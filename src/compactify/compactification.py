"""Building finite models of closures of coordinate embeddings.

A model of the closure of x -> (f_0(x), f_1(x), ...) inside the product of
the ranges is assembled from two point clouds: a dense image grid on a
bounded parameter window, and tail samples at large |x| whose clusters
approximate the remainder, the part of the closure the line itself never
reaches.
"""
from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict, dataclass, fields
from functools import cached_property

import numpy as np

from .functions import FunctionFamily, decode_json, json_float
from .product_space import (
    BOX_ROWS,
    BoxedCloud,
    ProductPoint,
    Space,
    box_lower_bound,
    capped_distance,
    distances_to_cloud,
    nearest_in_cloud,
)

__all__ = [
    "MODEL_MAGIC",
    "MAX_SAMPLES",
    "MAX_EMBEDDED_VALUES",
    "BuildParams",
    "EmbeddingMap",
    "RemainderCluster",
    "CompactificationModel",
    "Membership",
    "build_compactification",
    "closure_membership",
    "greedy_cluster",
    "save_model",
    "load_model",
    "write_remainder_csv",
]

MODEL_MAGIC = b"CPTF2\n"
# CPTF2 header length, right after the magic: little-endian uint64.
_HEADER_LEN = struct.Struct("<Q")
# CPTF2 witness-label dtypes, smallest first; a file uses the smallest
# that holds its cluster count.
_LABEL_DTYPES = ("<u1", "<u2", "<u4")

# Most parameters one build may sample, image grid and both tail grids
# together: 68 times the 490 003 of the default window.  A finer grid is
# rejected before anything is allocated.
MAX_SAMPLES = 2**25
# Most float64 values one build may embed, samples times coordinates:
# 256 MiB, 68 coordinates at the default window and one at MAX_SAMPLES.
# A longer family is rejected before anything is embedded.
MAX_EMBEDDED_VALUES = 2**25


@dataclass(frozen=True)
class BuildParams:
    """Sampling and clustering parameters for a model build.

    The image grid covers [-r_image, r_image] with step ``grid_step``; the
    two tail grids cover +-[r_tail_lo, r_tail_hi] with a step ten times
    coarser.  Each grid needs at least one step, and the three together
    may hold at most ``MAX_SAMPLES`` parameters; both are checked when the
    params are made.  ``cluster_radius`` is the capture radius of the
    greedy remainder clustering, and ``resolution``, twice that radius, is
    how close counts as the same point.
    """

    r_image: float = 50.0
    r_tail_lo: float = 50.0
    r_tail_hi: float = 2000.0
    grid_step: float = 1e-3
    cluster_radius: float = 0.05

    def __post_init__(self) -> None:
        for name, value in self.to_json().items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not (self.r_tail_hi > self.r_tail_lo >= self.r_image > 0):
            raise ValueError("need r_tail_hi > r_tail_lo >= r_image > 0")
        if self.grid_step <= 0:
            raise ValueError("grid_step must be positive")
        if self.cluster_radius <= 0:
            raise ValueError("cluster_radius must be positive")
        image, tails = self.sample_counts()
        if image + tails > MAX_SAMPLES:
            raise ValueError(
                f"grid_step {self.grid_step!r} asks for more than {MAX_SAMPLES} samples; "
                "use a larger grid_step or a narrower window"
            )
        if self.grid_step > 2.0 * self.r_image:
            raise ValueError("image grid is empty: grid_step exceeds the parameter window")
        if tails < 4:  # each tail grid needs one step, two parameters
            raise ValueError("tail grid is empty: tail step exceeds the tail window")

    @property
    def tail_step(self) -> float:
        return 10.0 * self.grid_step

    @property
    def resolution(self) -> float:
        """Twice the capture radius, the most a witness strays from its
        cluster's mean center: lifts, the membership checks that start
        them and compares' onto checks accept a point within it."""
        return 2.0 * self.cluster_radius

    def sample_counts(self) -> tuple[int, int]:
        """Parameters in the image grid and in both tail grids together.

        Step counts saturate at MAX_SAMPLES, so a quotient that overflows
        to inf still compares.
        """
        image = round(min(2.0 * self.r_image / self.grid_step, MAX_SAMPLES)) + 1
        tail = round(min((self.r_tail_hi - self.r_tail_lo) / self.tail_step, MAX_SAMPLES)) + 1
        return image, 2 * tail

    def image_grid(self) -> np.ndarray:
        """The image parameters across [-r_image, r_image], in increasing order."""
        return np.linspace(-self.r_image, self.r_image, self.sample_counts()[0])

    def tail_grid(self) -> np.ndarray:
        """Both tail grids in increasing order: the order the clustering sees."""
        plus = np.linspace(self.r_tail_lo, self.r_tail_hi, self.sample_counts()[1] // 2)
        return np.concatenate([-plus[::-1], plus])

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, obj: dict) -> "BuildParams":
        names = [f.name for f in fields(cls)]
        if obj.keys() != set(names):
            raise ValueError(f"params need exactly the fields {names}, got {list(obj)}")
        return cls(**{k: json_float(v, k) for k, v in obj.items()})


@dataclass(frozen=True)
class EmbeddingMap:
    """The coordinate embedding x -> (f_0(x), ..., f_{N-1}(x))."""

    family: FunctionFamily

    @property
    def space(self) -> Space:
        return self.family.space()

    def embed_array(self, xs: np.ndarray) -> np.ndarray:
        """Evaluate every coordinate on a parameter grid, one column each.

        Each column is written into the result as soon as it is evaluated,
        so at most one column is held apart from the result.
        """
        xs = np.asarray(xs, dtype=np.float64)
        out = np.empty((xs.shape[0], len(self.family)))
        for n, f in enumerate(self.family):
            out[:, n] = f.evaluate(xs)
        return out


@dataclass(frozen=True, eq=False)
class RemainderCluster:
    """One clustered patch of the approximated remainder.

    ``witnesses`` holds the tail parameters whose embeddings fed the
    cluster; they all sit within the capture radius of the original seed,
    hence within the build's ``resolution``, twice that radius, of the
    refined (mean) center.  ``side`` records which infinities the
    witnesses came from.  Checked once, when made: a cluster has a
    witness, a side that agrees with them and a finite center, or raises
    ValueError; the model checks the center's length.
    """

    cluster_id: int
    center: np.ndarray
    side: str  # "+inf", "-inf" or "both"
    witnesses: np.ndarray

    def __post_init__(self) -> None:
        cid = self.cluster_id
        if self.witnesses.size == 0:
            raise ValueError(f"cluster {cid} has no witnesses")
        if self.side != _cluster_side(self.witnesses):
            raise ValueError(f"cluster {cid} side {self.side!r} disagrees with its witnesses")
        # A NaN compares false with every tolerance, so it would pass any
        # check it reached.
        if not np.isfinite(self.center).all():
            raise ValueError(f"cluster {cid} center is not finite")

    @property
    def witness_count(self) -> int:
        return int(self.witnesses.shape[0])

    def center_point(self, space: Space) -> ProductPoint:
        iv_lo = np.asarray([iv.lo for iv in space])
        iv_hi = np.asarray([iv.hi for iv in space])
        return ProductPoint(np.clip(self.center, iv_lo, iv_hi), space)


@dataclass(frozen=True, eq=False)
class CompactificationModel:
    """Finite approximation of the closure of a coordinate embedding.

    Checked once, when made, and trusted, as immutable, by every later
    step: a model has clusters with ids 0..k-1 in order, finite image
    points of shape (image params, dim) and centers of length dim, or
    raises ValueError.  :func:`save_model` checks only what its format
    needs.
    """

    embedding: EmbeddingMap
    params: BuildParams
    image_params: np.ndarray  # (M,) parameters of the image grid
    image_points: np.ndarray  # (M, N) their embeddings, row per parameter
    remainder: tuple[RemainderCluster, ...]

    def __post_init__(self) -> None:
        if not self.remainder:
            raise ValueError("model has no remainder clusters")
        ids = [c.cluster_id for c in self.remainder]
        # 1.0 and True equal 1 but are not ids.
        if ids != list(range(len(ids))) or any(type(i) is not int for i in ids):
            raise ValueError("cluster ids must run 0..k-1 in order")
        shape = (self.image_params.shape[0], self.dim)
        if self.image_points.shape != shape:
            raise ValueError(f"image points of shape {self.image_points.shape}, expected {shape}")
        if not np.isfinite(self.image_points).all():
            raise ValueError("image points are not all finite")
        for c in self.remainder:
            if c.center.ndim != 1:
                raise ValueError(
                    f"cluster {c.cluster_id} center has shape {c.center.shape}, not {(self.dim,)}"
                )
            if c.center.shape != (self.dim,):
                raise ValueError(
                    f"cluster {c.cluster_id} center has {c.center.size} coordinates, not {self.dim}"
                )

    @property
    def family(self) -> FunctionFamily:
        return self.embedding.family

    @property
    def space(self) -> Space:
        return self.embedding.space

    @property
    def dim(self) -> int:
        return len(self.embedding.family)

    def embed(self, x: float) -> ProductPoint:
        return ProductPoint(tuple(f.evaluate(float(x)) for f in self.family), self.space)

    @cached_property
    def image_boxes(self) -> BoxedCloud:
        """The image cloud boxed for :func:`nearest_in_cloud`; computed on
        first use and kept with the model, which is treated as immutable."""
        return BoxedCloud.of(self.image_points)

    @cached_property
    def remainder_centers(self) -> np.ndarray:
        """The cluster centers as one read-only (clusters, dim) cloud, row k
        cluster k's; stacked on first use and kept with the model."""
        centers = np.vstack([c.center for c in self.remainder])
        centers.flags.writeable = False
        return centers


def _members(labels: np.ndarray, k: int) -> list[np.ndarray]:
    """Indices holding each label 0..k-1, in ascending order: one stable sort.

    The labels, all below k, are sorted in the narrowest dtype that holds
    them, where a stable sort is a radix sort up to 16 bits; a stable
    sort's order depends only on the values, so it is the order an int64
    sort gives.  The groups are cut where the sorted labels step up.
    """
    dtype = _label_dtype(k)
    narrow = labels.astype(dtype, copy=False)
    order = np.argsort(narrow, kind="stable")
    return np.split(order, np.take(narrow, order).searchsorted(np.arange(1, k, dtype=dtype)))


# One seed's update handles this many boxes at a time, so its temporaries
# stay near 32 768 rows however many boxes the seed reaches.  A seed that
# reaches every box of the default window's tail (the stereographic pair)
# would otherwise gather all 390 002 rows at once.
_UPDATE_BOXES = 1024


def greedy_cluster(points: np.ndarray, radius: float) -> np.ndarray:
    """Greedy one-pass agglomeration in presentation order.

    The first point seeds a cluster.  Each later point joins the nearest
    existing seed within ``radius`` (ties to the earliest seed) or founds a
    new cluster.  Returns the cluster label of every point, labels ordered
    by founding time.  Points must be finite; a NaN coordinate has no
    nearest seed, so non-finite input raises ValueError.

    The points are boxed once, ``BOX_ROWS`` consecutive rows per box.  When
    row f founds seed k, the seed is matched once against the rows after
    f, in the boxes whose :func:`~compactify.product_space.box_lower_bound`
    is at most ``radius``.  A row takes seed k when its distance d is at
    most ``radius`` and below the row's best distance so far.  The next
    founder is the first later row that no seed reached.  The labels equal
    those of a search against every seed, bit for bit:

    - seed k updates only rows after f, so each row is compared with
      exactly the seeds founded before it;
    - every such seed has been applied by the time the founder scan
      reaches the row;
    - a pruned box holds no row within ``radius``, by the bound's proof;
    - every distance comes from the same kernel, element by element, and
      the strict ``d < best`` keeps a tie with the earliest seed.

    The rows a seed reaches increase, so the ones outside f < row < n,
    in its first and last box, are cut off by two binary searches; the
    rows and best distances are gathered with ``np.take``, which copies
    the same values as fancy indexing.
    """
    points = np.asarray(points, dtype=np.float64)
    n, _ = points.shape
    if not np.isfinite(points).all():
        raise ValueError("greedy_cluster needs finite points")
    labels = np.empty(n, dtype=np.int64)
    if n == 0:
        return labels
    boxed = BoxedCloud.of(points)
    best = np.full(n, np.inf)
    in_box = np.arange(BOX_ROWS)
    f, k = 0, 0
    while True:
        labels[f] = k
        first = f // BOX_ROWS
        bound = box_lower_bound(points[f], boxed.lo[first:], boxed.hi[first:])
        alive = first + np.flatnonzero(bound <= radius)
        for part in range(0, alive.size, _UPDATE_BOXES):
            rows = (alive[part : part + _UPDATE_BOXES, None] * BOX_ROWS + in_box).ravel()
            rows = rows[rows.searchsorted(f, "right") : rows.searchsorted(n)]
            d = capped_distance(np.take(points, rows, axis=0), points[f])
            take = (d <= radius) & (d < np.take(best, rows))
            rows = rows[take]
            best[rows] = d[take]
            labels[rows] = k
        # The next founder: the first later row no seed reached, found in
        # windows that double, so the scans cost O(n) in all.
        start, width = f + 1, BOX_ROWS
        while start < n and np.isfinite(best[start : start + width]).all():
            start, width = start + width, 2 * width
        if start >= n:
            return labels
        f = start + int(np.argmax(np.isinf(best[start : start + width])))
        k += 1


def _cluster_side(witnesses: np.ndarray) -> str:
    if witnesses.min() > 0:
        return "+inf"
    if witnesses.max() < 0:
        return "-inf"
    return "both"


def build_compactification(
    family: FunctionFamily,
    params: BuildParams | None = None,
) -> CompactificationModel:
    """Sample the embedding and cluster its tails into a closure model.

    Tail samples are presented to the clustering in increasing parameter
    order (the negative tail first), so identical inputs produce identical
    models bit for bit.  The embedded samples may hold at most
    ``MAX_EMBEDDED_VALUES`` values; a larger build is refused up front.
    """
    if params is None:
        params = BuildParams()
    if not isinstance(family, FunctionFamily):
        family = FunctionFamily(tuple(family))
    values = sum(params.sample_counts()) * len(family)
    if values > MAX_EMBEDDED_VALUES:
        raise ValueError(
            f"a build of {len(family)} coordinates embeds {values} values, more than "
            f"{MAX_EMBEDDED_VALUES}; use fewer descriptors, a larger grid_step or a narrower window"
        )
    emb = EmbeddingMap(family)

    image_params = params.image_grid()
    image_points = emb.embed_array(image_params)

    tail_params = params.tail_grid()
    tail_points = emb.embed_array(tail_params)

    labels = greedy_cluster(tail_points, params.cluster_radius)
    clusters = []
    for cid, members in enumerate(_members(labels, int(labels.max()) + 1)):
        witnesses = np.take(tail_params, members)
        clusters.append(
            RemainderCluster(
                cluster_id=cid,
                center=np.take(tail_points, members, axis=0).mean(axis=0),
                side=_cluster_side(witnesses),
                witnesses=witnesses,
            )
        )
    return CompactificationModel(
        embedding=emb,
        params=params,
        image_params=image_params,
        image_points=image_points,
        remainder=tuple(clusters),
    )


@dataclass(frozen=True)
class Membership:
    """Where a probe point landed relative to a model."""

    kind: str  # "image", "remainder" or "outside"
    distance: float
    parameter: float | None = None
    cluster_id: int | None = None


def closure_membership(
    model: CompactificationModel, p: ProductPoint, eps: float
) -> Membership:
    """Classify a point against the sampled closure at resolution eps,
    which must be positive and finite.

    Remainder clusters take precedence over the image cloud: where a
    saturating coordinate (tanh beyond roughly |x| = 19 in float64) makes
    the sampled image indistinguishable from its limit set, a point near a
    cluster center is reported as remainder even though some image sample
    is equally close.

    The image cloud is searched through ``model.image_boxes``; the result
    equals a scan of every image point.
    """
    if p.space != model.space:
        raise ValueError("probe point lives in a different product space")
    if not (0.0 < eps < math.inf):
        raise ValueError(f"eps must be positive and finite, got {eps!r}")
    arr = p.as_array()

    cd = distances_to_cloud(arr, model.remainder_centers)
    best_c = int(np.argmin(cd))
    nearest_center = float(cd[best_c])
    if nearest_center < eps:
        return Membership("remainder", nearest_center, cluster_id=best_c)

    best, dist = nearest_in_cloud(arr, model.image_boxes)
    if dist < eps:
        return Membership("image", dist, parameter=float(model.image_params[best]))
    return Membership("outside", min(dist, nearest_center))


def _label_dtype(k: int) -> str:
    """The smallest label dtype that holds the labels 0..k-1."""
    return next(d for d in _LABEL_DTYPES if k <= np.iinfo(d).max + 1)


def _witness_labels(model: CompactificationModel) -> np.ndarray:
    """The cluster label of every tail parameter, in grid order.

    Raises ValueError unless regrouping the labels as :func:`load_model`
    does gives back each cluster's witnesses exactly: the witnesses must
    tile the tail grid, and each cluster's must be in grid order.  Once
    they tile the grid, whose parameters increase strictly, a cluster's
    witnesses are in grid order exactly when they increase strictly.
    """
    k = len(model.remainder)
    tail = model.params.tail_grid()
    witnesses = np.concatenate([c.witnesses for c in model.remainder])
    order = np.argsort(witnesses, kind="stable")
    if witnesses.shape != tail.shape or not np.array_equal(witnesses[order], tail):
        raise ValueError("cannot save model: its witnesses do not tile the tail grid")
    for c in model.remainder:
        if not (np.diff(c.witnesses) > 0).all():
            raise ValueError(
                f"cannot save model: the witnesses of cluster {c.cluster_id} are not in grid order"
            )
    counts = [c.witness_count for c in model.remainder]
    return np.repeat(np.arange(k, dtype=_label_dtype(k)), counts)[order]


def save_model(model: CompactificationModel, path) -> None:
    """Write a model file in the CPTF2 format.

    After the magic line come the header length (little-endian uint64), a
    JSON header (family, params, image shape, label dtype, and each
    cluster's id, side and center), the image points as raw little-endian
    float64, and one label per tail grid parameter.  Image parameters and
    witnesses are not stored: they are the image grid, and each cluster's
    tail parameters in grid order.  The model checked itself when made,
    so save checks only that the format can reproduce it: the image
    parameters are the image grid, and the witnesses tile the tail grid
    in grid order.  Otherwise ValueError, and nothing is written.
    """
    if not np.array_equal(model.image_params, model.params.image_grid()):
        raise ValueError("cannot save model: its image parameters are not the image grid")
    labels = _witness_labels(model)
    header = json.dumps(
        {
            "family": model.family.to_json(),
            "params": model.params.to_json(),
            "image_shape": list(model.image_points.shape),
            "label_dtype": _label_dtype(len(model.remainder)),
            "clusters": [
                {"cluster_id": c.cluster_id, "side": c.side, "center": [float(v) for v in c.center]}
                for c in model.remainder
            ],
        },
        sort_keys=True,
        allow_nan=False,
    ).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(_HEADER_LEN.pack(len(header)))
        fh.write(header)
        fh.write(np.ascontiguousarray(model.image_points, dtype="<f8"))
        fh.write(labels)


def load_model(path) -> CompactificationModel:
    """Read a model file written by :func:`save_model`.

    A file that is not a model, or is truncated, over-long or inconsistent
    with its own header, raises one ValueError naming the file.  Every size
    follows from the header's params, which ``MAX_SAMPLES`` bounds, and is
    checked against the file size before anything is allocated.  The
    model's own invariants are checked as the model is made, and reported
    the same way.
    """
    with open(path, "rb") as fh:
        magic = fh.read(len(MODEL_MAGIC))
        if magic != MODEL_MAGIC:
            raise ValueError(f"{path}: not a model file (bad magic {magic!r})")
        try:
            return _read_cptf2(fh)
        except KeyError as exc:
            raise ValueError(f"{path}: malformed model file: missing field {exc}") from exc
        except (TypeError, ValueError, AttributeError, OverflowError) as exc:
            raise ValueError(f"{path}: malformed model file: {exc}") from exc


def _read_into(fh, arr: np.ndarray, what: str) -> None:
    got = fh.readinto(arr)
    if got != arr.nbytes:
        raise ValueError(f"{what} truncated: {got} of {arr.nbytes} bytes")


def _read_cptf2(fh) -> CompactificationModel:
    """The model in a CPTF2 file positioned just after its magic."""
    size = os.fstat(fh.fileno()).st_size
    raw = fh.read(_HEADER_LEN.size)
    if len(raw) != _HEADER_LEN.size:
        raise ValueError("truncated header length")
    (header_len,) = _HEADER_LEN.unpack(raw)
    rest = size - len(MODEL_MAGIC) - _HEADER_LEN.size
    if header_len > rest:
        raise ValueError(f"header length {header_len} exceeds the {rest} bytes that follow it")
    header = decode_json(fh.read(header_len).decode("utf-8"))
    if not isinstance(header, dict):
        raise TypeError(f"header must be an object, not {type(header).__name__}")
    family = FunctionFamily.from_json(header["family"])
    params = BuildParams.from_json(header["params"])
    rows, tails = params.sample_counts()
    shape = [rows, len(family)]
    if header["image_shape"] != shape:
        raise ValueError(f"image shape {header['image_shape']!r} does not match the grid, {shape}")
    dtype = header["label_dtype"]
    if dtype not in _LABEL_DTYPES:
        raise ValueError(f"unknown label dtype {dtype!r}")
    clusters = header["clusters"]
    if not isinstance(clusters, list):
        raise TypeError(f"clusters must be a list, not {type(clusters).__name__}")
    k = len(clusters)

    # Sizes are checked against the file before anything is allocated.
    image_bytes = rows * len(family) * 8
    label_bytes = rest - header_len - image_bytes
    if label_bytes < 0:
        raise ValueError(f"image section truncated: {rest - header_len} of {image_bytes} bytes")
    itemsize = np.dtype(dtype).itemsize
    if label_bytes != tails * itemsize:
        raise ValueError(
            f"label section holds {label_bytes} bytes, not {tails} labels of {itemsize} bytes"
        )
    image_points = np.empty(shape, dtype="<f8")
    labels = np.empty(tails, dtype=dtype)
    _read_into(fh, image_points, "image section")
    _read_into(fh, labels, "label section")

    if int(labels.max()) >= k:
        raise ValueError(f"label {int(labels.max())} is not below the cluster count {k}")
    tail = params.tail_grid()
    return CompactificationModel(
        embedding=EmbeddingMap(family),
        params=params,
        image_params=params.image_grid(),
        image_points=image_points,
        remainder=tuple(
            RemainderCluster(c["cluster_id"], _center(i, c["center"]), c["side"], np.take(tail, members))
            for i, (c, members) in enumerate(zip(clusters, _members(labels, k)))
        ),
    )


def _center(i: int, center) -> np.ndarray:
    """Cluster i's center from its JSON list.  numpy would read a string
    such as ``"0.5"`` or a boolean as a number, so either is refused; a
    center of the wrong shape is left to the model's own check."""
    for v in center if isinstance(center, list) else ():
        if isinstance(v, (str, bool)):
            raise ValueError(f"cluster {i} center must hold numbers, got {v!r}")
    return np.asarray(center, dtype=np.float64)


def write_remainder_csv(model: CompactificationModel, path) -> None:
    """CSV view of the remainder: id, side, center coordinates, witness count."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        cols = ",".join(f"c{n}" for n in range(model.dim))
        fh.write(f"cluster_id,side,{cols},witness_count\n")
        for c in model.remainder:
            center = ",".join(f"{v:.17g}" for v in c.center)
            fh.write(f"{c.cluster_id},{c.side},{center},{c.witness_count}\n")
