"""Continuous extension of bounded functions to a closure model.

A family member extends for free: its value at any closure point is the
corresponding coordinate, read off by projection.  For other bounded
functions the question is numerical: the oscillation of the function over
tail witnesses near each remainder cluster either collapses as the probe
radius shrinks (the function extends, with the midpoint as its value) or
stays macroscopic (no continuous extension can exist).
"""
from __future__ import annotations

import itertools
import math
import weakref
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .compactification import CompactificationModel, RemainderCluster
from .functions import FunctionDescriptor
from .product_space import distances_to_cloud, rowwise_distance

__all__ = [
    "DEFAULT_DELTAS",
    "MAX_DELTAS",
    "PASS_THRESHOLD",
    "FAIL_THRESHOLD",
    "MIN_FAIL_WITNESSES",
    "Verdict",
    "OscillationRow",
    "ExtensionReport",
    "InsufficientWitnessesError",
    "check_extendability",
]

DEFAULT_DELTAS: tuple[float, ...] = (0.2, 0.1, 0.05, 0.02, 0.01)
# A report holds a row per cluster and radius, so the ladder is bounded.
MAX_DELTAS = 64
PASS_THRESHOLD = 0.05
FAIL_THRESHOLD = 0.5
# A cluster may only carry a failure verdict when enough witnesses back it.
MIN_FAIL_WITNESSES = 100


class Verdict(str, Enum):
    EXTENDS_BY_PROJECTION = "extends_by_projection"
    EXTENDS_NUMERICALLY = "extends_numerically"
    FAILS_TO_EXTEND = "fails_to_extend"
    INCONCLUSIVE = "inconclusive"


class InsufficientWitnessesError(RuntimeError):
    """A cluster had no witnesses inside the smallest probe radius."""


class OscillationRow(NamedTuple):
    """Witness statistics of one cluster at one probe radius."""

    delta: float
    count: int
    oscillation: float
    midpoint: float


@dataclass(frozen=True, eq=False)
class ExtensionReport:
    """The verdict of an extend-check and the statistics behind it.

    ``counts``, ``oscillations`` and ``midpoints`` are read-only
    (clusters, deltas) arrays: entry [c, k] holds the number of cluster
    c's witnesses within ``deltas[k]`` of its center and the max - min and
    midpoint of f over them.  Every count is at least 1.  A projection
    verdict samples nothing, and its arrays have no rows.  ``tables`` and
    ``to_json`` build per-row objects from the arrays only when they are
    read.  Reports compare by identity; compare their ``to_json()`` for
    content.
    """

    verdict: Verdict
    deltas: tuple[float, ...]
    counts: np.ndarray
    oscillations: np.ndarray
    midpoints: np.ndarray
    coordinate: int | None = None
    values: dict[int, float] | None = None
    failing_cluster: int | None = None
    oscillation: float | None = None
    witness_count: int | None = None

    def _rows(self):
        """(cluster id, (counts, oscillations, midpoints)) as Python lists."""
        return enumerate(
            zip(self.counts.tolist(), self.oscillations.tolist(), self.midpoints.tolist())
        )

    @cached_property
    def tables(self) -> MappingProxyType[int, tuple[OscillationRow, ...]]:
        """Cluster id -> its rows, largest radius first; empty for a
        projection verdict.  Built on first read."""
        return MappingProxyType(
            {c: tuple(map(OscillationRow, self.deltas, *row)) for c, row in self._rows()}
        )

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "deltas": list(self.deltas),
            "pass_threshold": PASS_THRESHOLD,
            "fail_threshold": FAIL_THRESHOLD,
            "coordinate": self.coordinate,
            "values": (
                {str(k): v for k, v in self.values.items()} if self.values is not None else None
            ),
            "failing_cluster": self.failing_cluster,
            "oscillation": self.oscillation,
            "witness_count": self.witness_count,
            "tables": {
                str(c): [
                    {"delta": d, "count": n, "oscillation": o, "midpoint": m}
                    for d, n, o, m in zip(self.deltas, *row)
                ]
                for c, row in self._rows()
            },
        }


def _validate_deltas(deltas) -> tuple[float, ...]:
    deltas = tuple(float(d) for d in deltas)
    if not deltas:
        raise ValueError("need at least one probe radius")
    if len(deltas) > MAX_DELTAS:
        raise ValueError(f"at most {MAX_DELTAS} probe radii, got {len(deltas)}")
    if not all(0 < d < math.inf for d in deltas):  # NaN fails too
        raise ValueError("probe radii must be positive and finite")
    if any(a <= b for a, b in zip(deltas, deltas[1:])):
        raise ValueError("probe radii must be strictly decreasing")
    return deltas


@dataclass(frozen=True, eq=False)
class _WitnessShells:
    """The probe-independent part of an extend-check on one model.

    ``counts[c, k]`` is the number of cluster c's witnesses whose
    embeddings lie within ``deltas[k]`` of its center.  Laid end to end,
    ``pieces`` hold, cluster by cluster, those within ``deltas[0]``,
    stably sorted innermost shell first, so a cluster's ones within
    ``deltas[k]`` are the first ``counts[c, k]`` of its run.  A cluster
    that lies wholly inside the innermost shell is a piece of its own,
    its witnesses referenced, not copied; each run of other clusters is
    one joined piece.  Piece i starts at ``starts[i]`` of the sequence.
    The sequence splits into (cluster, shell) segments, cluster by
    cluster and innermost shell first; segment i starts at ``bounds[i]``,
    and ``bounds[-1]`` is the total.  ``empty`` marks the segments that
    hold no witness.

    Every array is the one a full exact embedding of the witnesses
    gives, bit for bit, though most distances behind it may be estimated
    (see ``_center_distances``).
    """

    deltas: tuple[float, ...]
    counts: np.ndarray  # (clusters, deltas) int
    pieces: tuple[np.ndarray, ...]  # tail parameters
    starts: tuple[int, ...]  # (pieces + 1,), ending with the total
    bounds: np.ndarray  # (clusters * deltas + 1,) int
    empty: np.ndarray  # (clusters, deltas) bool, segments innermost first


# f is evaluated, and shells are estimated, in blocks of this many
# witnesses: their temporaries then stay small enough to reuse memory
# instead of faulting in fresh pages.  Each block of a probe pass decides
# on its own whether f's estimate prunes it.
_EVAL_BLOCK = 65_536

# One slot per model, for the ladder it was last checked with.  Models
# hash by identity (eq=False) and are held weakly, so an entry dies with
# its model.  The slot lives here, not on the model, because its key is
# the probe-radius ladder, which only extension checks know about.
_SHELLS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _decided_distances(
    model: CompactificationModel, clusters: list[RemainderCluster], deltas: tuple[float, ...]
) -> list[np.ndarray]:
    """Distances from the witnesses of consecutive ``clusters`` to their
    centers, one array per cluster, that lie on the same side of every
    radius as the exact ones, ``distances_to_cloud`` of the embeddings.

    Each coordinate that offers an estimate of the joined witnesses
    (``FunctionDescriptor._estimate``) within E_n is taken from it; every
    other coordinate is evaluated exactly.  Each cluster's estimated
    distances D~ are ``distances_to_cloud`` of these rows, as the exact
    D are of the embedded ones.  Each capped term min(|u - c|, 1) 2^-n
    moves by at most 2^-n |u - v| when u moves to v, so D~ lies within
    B = sum 2^-n E_n of D, up to rounding.  Each sum rounds its N capped
    differences and its N additions, of values below 2, by at most 2^-53
    each, the differences weighted by 2^-n, so the two differ by at most
    B + (N + 2) 2^-52.

    A witness whose D~ lies more than B + R from every radius delta,
    with R = (N + 4) 2^-52, falls on the same side of delta as D, so
    ``D < delta`` is decided: the thresholds delta -+ (B + R) round by at
    most 2^-52 for the radii that are tested, inside R's spare 2^-51.
    The other witnesses are embedded exactly, all in one call, and their
    distances replaced by D, computed row by row with the same kernel:
    elementwise, that is ``distances_to_cloud`` bit for bit.  A radius
    beyond the largest D~ by more than that margin holds every witness,
    so it is not tested.
    """
    xs = np.concatenate([c.witnesses for c in clusters])
    ends = np.cumsum([c.witness_count for c in clusters])
    # One contiguous column per coordinate, read as (witnesses, N) rows.
    columns = np.empty((len(model.family), xs.size))
    bound, w = 0.0, 1.0
    for n, f in enumerate(model.family):
        estimate = f._estimate(xs)
        if estimate is None:
            columns[n] = f.evaluate(xs)
        else:
            columns[n] = estimate[0]
            bound += w * estimate[1]
        w *= 0.5
    rows = np.split(columns.T, ends[:-1])
    dist = np.concatenate([distances_to_cloud(c.center, r) for c, r in zip(clusters, rows)])
    margin = bound + (len(model.family) + 4) * 2.0**-52
    top = dist.max() + margin
    near = np.zeros(xs.size, dtype=bool)
    for delta in deltas:
        if delta <= top:
            near |= (dist >= delta - margin) & (dist <= delta + margin)
    picked = np.flatnonzero(near)
    if picked.size:
        owner = np.searchsorted(ends, picked, side="right")
        centers = np.vstack([c.center for c in clusters])
        points = model.embedding.embed_array(np.take(xs, picked))
        dist[picked] = rowwise_distance(points, np.take(centers, owner, axis=0))
    return np.split(dist, ends[:-1])


def _center_distances(model: CompactificationModel, deltas: tuple[float, ...]):
    """Each cluster's witness distances to its center, cluster by cluster,
    decided against every radius as the exact ones are.

    A family none of whose coordinates offers an estimate at the tail's
    two ends embeds each cluster's witnesses exactly.  Otherwise the
    clusters run in batches of consecutive ones with at most
    ``_EVAL_BLOCK`` witnesses, or of one larger cluster, and each batch
    is estimated and patched by ``_decided_distances``, so no more than
    one batch's columns are held at a time.
    """
    reach = np.array([-model.params.r_tail_hi, model.params.r_tail_hi])
    if all(f._estimate(reach) is None for f in model.family):
        for cluster in model.remainder:
            yield distances_to_cloud(cluster.center, model.embedding.embed_array(cluster.witnesses))
        return
    batch, held = [], 0
    for cluster in model.remainder:
        if batch and held + cluster.witness_count > _EVAL_BLOCK:
            yield from _decided_distances(model, batch, deltas)
            batch, held = [], 0
        batch.append(cluster)
        held += cluster.witness_count
    yield from _decided_distances(model, batch, deltas)  # a model has a cluster


def _witness_shells(model: CompactificationModel, deltas: tuple[float, ...]) -> _WitnessShells:
    """The model's shells for ``deltas``: cached, or computed and cached."""
    shells = _SHELLS.get(model)
    if shells is not None and shells.deltas == deltas:
        return shells
    counts = np.empty((len(model.remainder), len(deltas)), dtype=np.int64)
    kept = []  # (whole, witnesses within deltas[0]) per cluster
    for c, (cluster, dist) in enumerate(zip(model.remainder, _center_distances(model, deltas))):
        # A witness lies within all but the last ``depth`` radii of the
        # decreasing ladder; depth 0 is the innermost shell.  The narrow
        # dtype, which MAX_DELTAS fits, lets the stable sort run as a
        # radix sort.
        depth = np.full(dist.shape[0], len(deltas), dtype=np.uint8)
        for k, delta in enumerate(deltas):
            within = dist < delta
            counts[c, k] = np.count_nonzero(within)
            depth -= within
        if counts[c, -1] == depth.shape[0]:
            kept.append((True, cluster.witnesses))  # all in the innermost shell
        else:
            order = np.argsort(depth, kind="stable")[: counts[c, 0]]
            kept.append((False, np.take(cluster.witnesses, order)))
    pieces = []
    for whole, run in itertools.groupby(kept, key=lambda k: k[0]):
        arrays = [w for _, w in run]
        pieces.extend(arrays if whole else [np.concatenate(arrays)])
    counts.flags.writeable = False  # reports share it
    sizes = np.diff(counts[:, ::-1], axis=1, prepend=0)  # innermost shell first
    shells = _WitnessShells(
        deltas=deltas,
        counts=counts,
        pieces=tuple(pieces),
        starts=tuple(itertools.accumulate((len(w) for w in pieces), initial=0)),
        bounds=np.concatenate([[0], np.cumsum(sizes)]),
        empty=sizes == 0,
    )
    _SHELLS[model] = shells
    return shells


def _segment_extremes(shells: _WitnessShells, f: FunctionDescriptor) -> tuple[np.ndarray, np.ndarray]:
    """The min and max of f over each (cluster, shell) segment, shaped like
    ``counts``; an empty segment has min inf and max -inf.

    The witnesses are taken piece by piece, in blocks of at most
    ``_EVAL_BLOCK``, and each block folds its values into the segments it
    meets.  A block that f declines to estimate is evaluated on every
    witness.  On any other block, f is estimated within E of its exact
    values, and the largest and smallest estimate of each segment so far
    are updated.  A witness is a candidate if its estimate lies within 2E
    of either, and f is evaluated exactly on the candidates only.  This is
    exact: if j holds a segment's exact max in an estimated block, and m
    the largest estimate up to j's block, then
    est_j >= exact_j - E >= exact_m - E >= est_m - 2E, so j is a
    candidate, and likewise for the min.  E is a bound with a wide margin,
    which also covers the rounding of the float32 thresholds.
    """
    bounds = shells.bounds
    upper = np.full(shells.empty.size, -np.inf, dtype=np.float32)
    lower = np.full(shells.empty.size, np.inf, dtype=np.float32)
    lo = np.full(shells.empty.size, np.inf)
    hi = np.full(shells.empty.size, -np.inf)
    bound = 0.0
    blocks = (
        (piece[i : i + _EVAL_BLOCK], start + i)
        for piece, start in zip(shells.pieces, shells.starts)
        for i in range(0, piece.size, _EVAL_BLOCK)
    )
    for xs, start in blocks:
        # The segments that meet the block, the one holding its start up
        # to the last one starting before its end, and where each starts
        # in it; empty ones among them are masked at the end.
        first = int(np.searchsorted(bounds, start, side="right")) - 1
        met = slice(first, int(np.searchsorted(bounds, start + xs.size)))
        offsets = np.maximum(bounds[met], start) - start
        estimate = f._estimate(xs)
        if estimate is None:
            values = f.evaluate(xs)
            np.minimum(lo[met], np.minimum.reduceat(values, offsets), out=lo[met])
            np.maximum(hi[met], np.maximum.reduceat(values, offsets), out=hi[met])
            continue
        est, error = estimate
        bound = max(bound, error)
        margin = np.float32(2.0 * bound)
        upper[met] = np.maximum(upper[met], np.maximum.reduceat(est, offsets))
        lower[met] = np.minimum(lower[met], np.minimum.reduceat(est, offsets))
        sizes = np.diff(offsets, append=est.size)
        picked = np.flatnonzero(
            (est >= np.repeat(upper[met] - margin, sizes)) | (est <= np.repeat(lower[met] + margin, sizes))
        )
        if picked.size == 0:
            continue
        exact = f.evaluate(np.take(xs, picked))
        # Each candidate's segment; the candidates of one segment are a run.
        seg = np.searchsorted(offsets, picked, side="right") - 1
        runs = np.flatnonzero(np.diff(seg, prepend=-1))
        seg = seg[runs] + first
        lo[seg] = np.minimum(lo[seg], np.minimum.reduceat(exact, runs))
        hi[seg] = np.maximum(hi[seg], np.maximum.reduceat(exact, runs))
    lo = lo.reshape(shells.counts.shape)
    hi = hi.reshape(shells.counts.shape)
    lo[shells.empty] = np.inf
    hi[shells.empty] = -np.inf
    return lo, hi


def check_extendability(
    model: CompactificationModel,
    f: FunctionDescriptor,
    deltas=DEFAULT_DELTAS,
) -> ExtensionReport:
    """Decide whether f extends continuously to the model's remainder.

    A member of the family short-circuits to a projection verdict without
    any sampling.  Otherwise, for every remainder cluster and every probe
    radius delta, the oscillation max - min of f over tail witnesses whose
    embeddings lie within delta of the cluster center is measured, and the
    report keeps these (cluster, radius) arrays, with the counts and
    midpoints, as they are: its table rows are built only when read.  At the
    smallest radius: oscillation below ``PASS_THRESHOLD`` on every cluster
    means f extends numerically, with the min/max midpoint as its value;
    oscillation above ``FAIL_THRESHOLD`` on some cluster with at least
    ``MIN_FAIL_WITNESSES`` witnesses means it cannot extend; anything else
    is inconclusive, which is a result, not an error.  At most
    ``MAX_DELTAS`` radii are accepted.

    The probe-independent work is cached per model: the first sampled
    check measures every witness's distance to its cluster center and
    keeps, per cluster, the witness count within each radius and the
    witnesses within the largest radius, innermost first.  Where the
    family's coordinates offer estimates, a cosine's, the distances come
    from them, and only the witnesses whose estimated distance lies too
    near a radius to tell its side are embedded exactly, with the same
    counts and witnesses as a full embedding.  Later
    checks with the same ladder evaluate f on those witnesses only and
    reduce per (cluster, shell) segment; min and max are exact, so the
    report is the same as a fresh check's.  A probe that can estimate
    itself within a stated bound, a cosine, is evaluated exactly only on
    the witnesses where a segment's min or max can lie, with the same
    result.  Each block of ``_EVAL_BLOCK`` witnesses is pruned so when f
    offers an estimate of it, and evaluated whole when it does not.  The
    cache holds one slot per
    model, keyed by the ladder: a check with another ladder replaces it.
    Models are treated as immutable; the cache is never written to a
    model file and dies with its model.  A check runs on the calling
    thread and starts none.
    """
    deltas = _validate_deltas(deltas)
    for j, g in enumerate(model.family):
        if g == f:
            unsampled = np.empty((0, len(deltas)))
            unsampled.flags.writeable = False
            return ExtensionReport(
                verdict=Verdict.EXTENDS_BY_PROJECTION,
                deltas=deltas,
                counts=unsampled,
                oscillations=unsampled,
                midpoints=unsampled,
                coordinate=j,
            )

    shells = _witness_shells(model, deltas)
    short = np.flatnonzero(shells.counts[:, -1] == 0)
    if short.size:
        raise InsufficientWitnessesError(
            f"cluster {short[0]} has no witnesses within "
            f"delta={deltas[-1]}; rebuild with a denser tail grid "
            "(smaller grid_step) or a larger smallest delta"
        )
    lo, hi = _segment_extremes(shells, f)
    # Shells run innermost first, so a running min/max over them covers
    # the witnesses within each radius, smallest radius first.  Counts
    # never rise as the ladder falls, so every radius holds a witness.
    lo = np.minimum.accumulate(lo, axis=1)[:, ::-1]
    hi = np.maximum.accumulate(hi, axis=1)[:, ::-1]
    osc = hi - lo
    # Where a sum of extremes overflows, the midpoint is taken from their
    # halves.
    with np.errstate(over="ignore"):
        total = lo + hi
        mid = np.where(np.isinf(total), 0.5 * lo + 0.5 * hi, 0.5 * total)
    osc.flags.writeable = mid.flags.writeable = False
    final_osc = osc[:, -1].tolist()
    final_count = shells.counts[:, -1].tolist()
    arrays = dict(deltas=deltas, counts=shells.counts, oscillations=osc, midpoints=mid)

    if all(o < PASS_THRESHOLD for o in final_osc):
        return ExtensionReport(
            verdict=Verdict.EXTENDS_NUMERICALLY,
            values=dict(enumerate(mid[:, -1].tolist())),
            **arrays,
        )
    failing = [
        i
        for i, (o, n) in enumerate(zip(final_osc, final_count))
        if o > FAIL_THRESHOLD and n >= MIN_FAIL_WITNESSES
    ]
    if failing:
        worst = max(failing, key=lambda i: (final_osc[i], -i))
        return ExtensionReport(
            verdict=Verdict.FAILS_TO_EXTEND,
            failing_cluster=worst,
            oscillation=final_osc[worst],
            witness_count=final_count[worst],
            **arrays,
        )
    return ExtensionReport(verdict=Verdict.INCONCLUSIVE, oscillation=max(final_osc), **arrays)
