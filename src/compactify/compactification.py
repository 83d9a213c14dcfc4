"""Building finite models of closures of coordinate embeddings.

A model of the closure of x -> (f_0(x), f_1(x), ...) inside the product of
the ranges is assembled from two point clouds: a dense image grid on a
bounded parameter window, and tail samples at large |x| whose clusters
approximate the remainder, the part of the closure the line itself never
reaches.
"""
from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass

import numpy as np

from .functions import FunctionFamily
from .product_space import ProductPoint, Space, capped_distance, distances_to_cloud

__all__ = [
    "MODEL_MAGIC",
    "MAX_SAMPLES",
    "BuildParams",
    "EmbeddingMap",
    "RemainderCluster",
    "CompactificationModel",
    "Membership",
    "build_compactification",
    "closure_membership",
    "remainder_separation",
    "greedy_cluster",
    "save_model",
    "load_model",
    "write_remainder_csv",
]

MODEL_MAGIC = b"CPTF1\n"

# Most parameters one build may sample, image grid and both tail grids
# together: 68 times the 490 003 of the default window.  A finer grid is
# rejected before anything is allocated.
MAX_SAMPLES = 2**25


def _steps(span: float, step: float) -> int:
    """Grid intervals of ``step`` across ``span``, saturating at MAX_SAMPLES
    so a quotient that overflows to inf still compares."""
    return round(min(span / step, MAX_SAMPLES))


@dataclass(frozen=True)
class BuildParams:
    """Sampling and clustering parameters for a model build.

    The image grid covers [-r_image, r_image] with step ``grid_step``; the
    two tail grids cover +-[r_tail_lo, r_tail_hi] with a step ten times
    coarser.  ``cluster_radius`` is the capture radius of the greedy
    remainder clustering.  The three grids together may hold at most
    ``MAX_SAMPLES`` parameters.
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
        image = _steps(2.0 * self.r_image, self.grid_step) + 1
        tails = 2 * (_steps(self.r_tail_hi - self.r_tail_lo, self.tail_step) + 1)
        if image + tails > MAX_SAMPLES:
            raise ValueError(
                f"grid_step {self.grid_step!r} asks for more than {MAX_SAMPLES} samples; "
                "use a larger grid_step or a narrower window"
            )

    @property
    def tail_step(self) -> float:
        return 10.0 * self.grid_step

    def to_json(self) -> dict:
        return {
            "r_image": self.r_image,
            "r_tail_lo": self.r_tail_lo,
            "r_tail_hi": self.r_tail_hi,
            "grid_step": self.grid_step,
            "cluster_radius": self.cluster_radius,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "BuildParams":
        return cls(**{k: float(v) for k, v in obj.items()})


@dataclass(frozen=True)
class EmbeddingMap:
    """The coordinate embedding x -> (f_0(x), ..., f_{N-1}(x))."""

    family: FunctionFamily

    @property
    def space(self) -> Space:
        return self.family.space()

    def embed(self, x: float) -> ProductPoint:
        coords = tuple(f.evaluate(float(x)) for f in self.family)
        return ProductPoint(coords, self.space)

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
    hence within twice that radius of the refined (mean) center.  ``side``
    records which infinities the witnesses came from.
    """

    cluster_id: int
    center: np.ndarray
    side: str  # "+inf", "-inf" or "both"
    witnesses: np.ndarray

    @property
    def witness_count(self) -> int:
        return int(self.witnesses.shape[0])

    def center_point(self, space: Space) -> ProductPoint:
        iv_lo = np.asarray([iv.lo for iv in space])
        iv_hi = np.asarray([iv.hi for iv in space])
        coords = np.clip(self.center, iv_lo, iv_hi)
        return ProductPoint(tuple(float(c) for c in coords), space)


@dataclass(frozen=True, eq=False)
class CompactificationModel:
    """Finite approximation of the closure of a coordinate embedding."""

    embedding: EmbeddingMap
    params: BuildParams
    image_params: np.ndarray  # (M,) parameters of the image grid
    image_points: np.ndarray  # (M, N) their embeddings, row per parameter
    remainder: tuple[RemainderCluster, ...]

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
        return self.embedding.embed(x)

    def remainder_centers(self) -> np.ndarray:
        if not self.remainder:
            return np.empty((0, self.dim))
        return np.vstack([c.center for c in self.remainder])


def _image_grid(params: BuildParams) -> np.ndarray:
    if params.grid_step > 2.0 * params.r_image:
        raise ValueError(
            "image grid is empty: grid_step exceeds the parameter window"
        )
    steps = _steps(2.0 * params.r_image, params.grid_step)
    return np.linspace(-params.r_image, params.r_image, steps + 1)


def _tail_grids(params: BuildParams) -> tuple[np.ndarray, np.ndarray]:
    steps = _steps(params.r_tail_hi - params.r_tail_lo, params.tail_step)
    if steps < 1:
        raise ValueError("tail grid is empty: tail step exceeds the tail window")
    plus = np.linspace(params.r_tail_lo, params.r_tail_hi, steps + 1)
    minus = -plus[::-1]
    return minus, plus


# greedy_cluster scans points in blocks of _BLOCK consecutive points and
# splits each block into boxes of _BOX consecutive points for the seed prune.
_BLOCK = 1024
_BOX = 32


def _nearest_seeds(
    chunk: np.ndarray, seeds: np.ndarray, radius: float
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest seed of every chunk row, and whether it lies within radius.

    Seeds whose box lower bound exceeds ``radius`` are skipped; see
    :func:`greedy_cluster` for why that is exact.
    """
    k, dim = chunk.shape
    boxes = -(-k // _BOX)
    # Pad the last box with copies of the last row; they leave its range
    # unchanged and their results are dropped.
    pad = np.repeat(chunk[-1:], boxes * _BOX - k, axis=0)
    cube = np.concatenate([chunk, pad]).reshape(boxes, _BOX, dim)
    lo = cube.min(axis=1)[:, None, :]
    hi = cube.max(axis=1)[:, None, :]
    # Distance from each seed to the nearest point of each box's bounding
    # box: a lower bound on its distance to every row of that box.
    bound = capped_distance(np.clip(seeds[None, :, :], lo, hi), seeds[None, :, :])
    alive = bound <= radius  # (boxes, seeds)
    width = max(1, int(alive.sum(axis=1).max()))
    # Surviving seeds first, in ascending seed index; the rest is padding.
    cand = np.argsort(~alive, axis=1, kind="stable")[:, :width]
    live = np.take_along_axis(alive, cand, axis=1)
    dists = capped_distance(cube[:, :, None, :], seeds[cand][:, None, :, :])
    dists = np.where(live[:, None, :], dists, np.inf)  # (boxes, _BOX, width)
    pick = np.argmin(dists, axis=2)  # first minimum: the earliest seed
    nearest = np.take_along_axis(cand, pick, axis=1).ravel()[:k]
    within = (dists.min(axis=2) <= radius).ravel()[:k]
    return nearest, within


def greedy_cluster(points: np.ndarray, radius: float) -> np.ndarray:
    """Greedy one-pass agglomeration in presentation order.

    The first point seeds a cluster.  Each later point joins the nearest
    existing seed within ``radius`` (ties to the earliest seed) or founds a
    new cluster.  Returns the cluster label of every point, labels ordered
    by founding time.  Points must be finite; a NaN coordinate has no
    nearest seed, so non-finite input raises ValueError.

    Points are processed in blocks: a whole block is matched against the
    current seeds at once, and the block is cut at the first point that
    founds a new seed, which reproduces the sequential result exactly.

    Within a block, seeds are pruned per box of consecutive points by an
    exact lower bound.  Clipping a seed s into the box's coordinate range
    gives the point of the range nearest to s, and the distance from s to
    it is computed by the same kernel, coordinate by coordinate in the
    same order.  For any point p of the box each computed |c_n - s_n| is
    at most |p_n - s_n|, because float subtraction is monotone; so are
    min{1, .}, the power-of-two weights and addition.  The bound therefore
    never exceeds the computed distance from s to any point of the box,
    and a seed whose bound exceeds ``radius`` can be no point's target.
    Survivors keep ascending seed order, so argmin keeps the earliest-seed
    tie-break, and the labels equal those of the dense search bit for bit.
    """
    points = np.asarray(points, dtype=np.float64)
    n, dim = points.shape
    if not np.isfinite(points).all():
        raise ValueError("greedy_cluster needs finite points")
    labels = np.empty(n, dtype=np.int64)
    if n == 0:
        return labels
    labels[0] = 0
    seeds = points[:1]
    i = 1
    while i < n:
        chunk = points[i : i + _BLOCK]
        nearest, within = _nearest_seeds(chunk, seeds, radius)
        if within.all():
            labels[i : i + chunk.shape[0]] = nearest
            i += chunk.shape[0]
            continue
        cut = int(np.argmin(within))  # first founder in the block
        labels[i : i + cut] = nearest[:cut]
        labels[i + cut] = seeds.shape[0]
        seeds = np.vstack([seeds, points[i + cut : i + cut + 1]])
        i += cut + 1
    return labels


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
    models bit for bit.
    """
    if params is None:
        params = BuildParams()
    if not isinstance(family, FunctionFamily):
        family = FunctionFamily(tuple(family))
    emb = EmbeddingMap(family)

    image_params = _image_grid(params)
    image_points = emb.embed_array(image_params)

    minus, plus = _tail_grids(params)
    tail_params = np.concatenate([minus, plus])
    tail_points = emb.embed_array(tail_params)

    labels = greedy_cluster(tail_points, params.cluster_radius)
    # One stable sort groups every cluster's members in presentation order.
    order = np.argsort(labels, kind="stable")
    splits = np.cumsum(np.bincount(labels))[:-1]
    clusters = []
    for cid, members in enumerate(np.split(order, splits)):
        witnesses = tail_params[members]
        clusters.append(
            RemainderCluster(
                cluster_id=cid,
                center=tail_points[members].mean(axis=0),
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
    """Classify a point against the sampled closure at resolution eps.

    Remainder clusters take precedence over the image cloud: where a
    saturating coordinate (tanh beyond roughly |x| = 19 in float64) makes
    the sampled image indistinguishable from its limit set, a point near a
    cluster center is reported as remainder even though some image sample
    is equally close.
    """
    if p.space != model.space:
        raise ValueError("probe point lives in a different product space")
    if eps <= 0:
        raise ValueError("eps must be positive")
    arr = p.as_array()

    nearest_center = np.inf
    centers = model.remainder_centers()
    if centers.shape[0]:
        cd = distances_to_cloud(arr, centers)
        best_c = int(np.argmin(cd))
        nearest_center = float(cd[best_c])
        if nearest_center < eps:
            return Membership("remainder", nearest_center, cluster_id=best_c)

    dists = distances_to_cloud(arr, model.image_points)
    best = int(np.argmin(dists))
    if dists[best] < eps:
        return Membership(
            "image", float(dists[best]), parameter=float(model.image_params[best])
        )
    return Membership("outside", float(min(dists[best], nearest_center)))


def remainder_separation(model: CompactificationModel) -> float:
    """Smallest distance from any remainder center to the image cloud.

    Diagnostic only.  For families with a saturating coordinate this can
    be 0 at wide parameter windows (tanh is exactly 1.0 in float64 beyond
    |x| of about 19), so it is not enforced as a build invariant; at
    narrow windows it measures how clearly the remainder stands off the
    sampled arc.
    """
    centers = model.remainder_centers()
    if not centers.shape[0]:
        return float("inf")
    best = np.inf
    for row in centers:
        best = min(best, float(distances_to_cloud(row, model.image_points).min()))
    return best


def _encode_array(arr: np.ndarray) -> dict:
    data = np.ascontiguousarray(arr, dtype="<f8")
    return {
        "shape": list(data.shape),
        "data": base64.b64encode(data.tobytes()).decode("ascii"),
    }


def _decode_array(obj: dict) -> np.ndarray:
    raw = base64.b64decode(obj["data"])
    return np.frombuffer(raw, dtype="<f8").reshape(obj["shape"]).copy()


def save_model(model: CompactificationModel, path) -> None:
    """Write a model file: magic line, then a JSON body with base64 arrays."""
    body = {
        "family": model.family.to_json(),
        "params": model.params.to_json(),
        "image_params": _encode_array(model.image_params),
        "image_points": _encode_array(model.image_points),
        "remainder": [
            {
                "cluster_id": c.cluster_id,
                "side": c.side,
                "center": [float(v) for v in c.center],
                "witnesses": _encode_array(c.witnesses),
            }
            for c in model.remainder
        ],
    }
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(json.dumps(body, sort_keys=True).encode("utf-8"))


def load_model(path) -> CompactificationModel:
    """Read a model file written by :func:`save_model`.

    A file that is not a model, or whose body lacks a field or holds one
    of the wrong type, raises one ValueError naming the file.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(MODEL_MAGIC):
        raise ValueError(f"{path}: not a model file (bad magic)")
    try:
        return _model_from_json(json.loads(blob[len(MODEL_MAGIC):].decode("utf-8")))
    except KeyError as exc:
        raise ValueError(f"{path}: malformed model file: missing field {exc}") from exc
    except (TypeError, ValueError, AttributeError) as exc:
        raise ValueError(f"{path}: malformed model file: {exc}") from exc


def _model_from_json(body: dict) -> CompactificationModel:
    family = FunctionFamily.from_json(body["family"])
    if not isinstance(body["remainder"], list):
        raise TypeError(f"remainder must be a list, not {type(body['remainder']).__name__}")
    clusters = tuple(
        RemainderCluster(
            cluster_id=int(c["cluster_id"]),
            center=np.asarray(c["center"], dtype=np.float64),
            side=c["side"],
            witnesses=_decode_array(c["witnesses"]),
        )
        for c in body["remainder"]
    )
    return CompactificationModel(
        embedding=EmbeddingMap(family),
        params=BuildParams.from_json(body["params"]),
        image_params=_decode_array(body["image_params"]),
        image_points=_decode_array(body["image_points"]),
        remainder=clusters,
    )


def write_remainder_csv(model: CompactificationModel, path) -> None:
    """CSV view of the remainder: id, side, center coordinates, witness count."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        cols = ",".join(f"c{n}" for n in range(model.dim))
        fh.write(f"cluster_id,side,{cols},witness_count\n")
        for c in model.remainder:
            center = ",".join(f"{v:.17g}" for v in c.center)
            fh.write(f"{c.cluster_id},{c.side},{center},{c.witness_count}\n")
