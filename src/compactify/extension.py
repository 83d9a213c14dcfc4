"""Continuous extension of bounded functions to a closure model.

A family member extends for free: its value at any closure point is the
corresponding coordinate, read off by projection.  For other bounded
functions the question is numerical: the oscillation of the function over
tail witnesses near each remainder cluster either collapses as the probe
radius shrinks (the function extends, with the midpoint as its value) or
stays macroscopic (no continuous extension can exist).
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .compactification import CompactificationModel
from .functions import Cos, FunctionDescriptor, chebyshev_recurrence
from .product_space import ProductPoint, distances_to_cloud

__all__ = [
    "DEFAULT_DELTAS",
    "PASS_THRESHOLD",
    "FAIL_THRESHOLD",
    "MIN_FAIL_WITNESSES",
    "Verdict",
    "OscillationRow",
    "ExtensionReport",
    "InsufficientWitnessesError",
    "ProjectionExtension",
    "ChebyshevExtension",
    "extend_by_projection",
    "derived_extension",
    "check_extendability",
]

DEFAULT_DELTAS: tuple[float, ...] = (0.2, 0.1, 0.05, 0.02, 0.01)
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


@dataclass(frozen=True)
class ProjectionExtension:
    """Extension of a family member: read coordinate ``coordinate``.

    Composing with the embedding reproduces the member exactly, bit for
    bit, because image points store the evaluated coordinates themselves.
    """

    coordinate: int

    def __call__(self, p):
        if isinstance(p, ProductPoint):
            return p.coords[self.coordinate]
        arr = np.asarray(p, dtype=np.float64)
        return arr[..., self.coordinate]


@dataclass(frozen=True)
class ChebyshevExtension:
    """Extension of the degree-n harmonic: T_n of the base cos coordinate."""

    coordinate: int
    degree: int

    def __call__(self, p):
        if isinstance(p, ProductPoint):
            return float(
                np.clip(chebyshev_recurrence(self.degree, p.coords[self.coordinate]), -1.0, 1.0)
            )
        arr = np.asarray(p, dtype=np.float64)
        return np.clip(chebyshev_recurrence(self.degree, arr[..., self.coordinate]), -1.0, 1.0)


def extend_by_projection(model: CompactificationModel, n: int) -> ProjectionExtension:
    """Extension handle for family member n: coordinate projection."""
    if not (0 <= n < model.dim):
        raise IndexError(f"coordinate {n} out of range for a {model.dim}-coordinate model")
    return ProjectionExtension(n)


def derived_extension(model: CompactificationModel, n: int) -> ChebyshevExtension:
    """Extension of cos(n x) through the base cosine coordinate.

    Uses the identity cos(n x) = T_n(cos x): the closure already carries
    cos as a coordinate, so the degree-n harmonic extends as T_n of that
    coordinate.  With n = 1 this is the plain projection in disguise.
    """
    if n < 1:
        raise ValueError("harmonic degree must be >= 1")
    for j, f in enumerate(model.family):
        if isinstance(f, Cos) and f.a == 1.0 and f.b == 0.0:
            return ChebyshevExtension(coordinate=j, degree=n)
    raise ValueError("family has no cos(x) coordinate to derive harmonics from")


@dataclass(frozen=True)
class OscillationRow:
    """Witness statistics of one cluster at one probe radius."""

    delta: float
    count: int
    oscillation: float | None
    midpoint: float | None


@dataclass(frozen=True)
class ExtensionReport:
    verdict: Verdict
    deltas: tuple[float, ...]
    tables: dict[int, tuple[OscillationRow, ...]]
    pass_threshold: float = PASS_THRESHOLD
    fail_threshold: float = FAIL_THRESHOLD
    coordinate: int | None = None
    values: dict[int, float] | None = None
    failing_cluster: int | None = None
    oscillation: float | None = None
    witness_count: int | None = None

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "deltas": list(self.deltas),
            "pass_threshold": self.pass_threshold,
            "fail_threshold": self.fail_threshold,
            "coordinate": self.coordinate,
            "values": (
                {str(k): v for k, v in self.values.items()} if self.values is not None else None
            ),
            "failing_cluster": self.failing_cluster,
            "oscillation": self.oscillation,
            "witness_count": self.witness_count,
            "tables": {
                str(cid): [
                    {
                        "delta": row.delta,
                        "count": row.count,
                        "oscillation": row.oscillation,
                        "midpoint": row.midpoint,
                    }
                    for row in rows
                ]
                for cid, rows in self.tables.items()
            },
        }


def _validate_deltas(deltas) -> tuple[float, ...]:
    deltas = tuple(float(d) for d in deltas)
    if not deltas:
        raise ValueError("need at least one probe radius")
    if not all(d > 0 for d in deltas):  # NaN fails too
        raise ValueError("probe radii must be positive")
    if any(a <= b for a, b in zip(deltas, deltas[1:])):
        raise ValueError("probe radii must be strictly decreasing")
    return deltas


@dataclass(frozen=True, eq=False)
class _WitnessShells:
    """The probe-independent part of an extend-check on one model.

    ``counts[c, k]`` is the number of cluster c's witnesses whose
    embeddings lie within ``deltas[k]`` of its center.  ``parts[c]`` holds
    those within ``deltas[0]``, stably sorted innermost shell first, so
    the ones within ``deltas[k]`` are its first ``counts[c, k]`` entries.
    Concatenated, the parts split into (cluster, shell) segments, cluster
    by cluster and innermost shell first; segment i starts at
    ``bounds[i]``, and ``bounds[-1]`` is the total.  ``empty`` marks the
    segments that hold no witness.
    """

    deltas: tuple[float, ...]
    counts: np.ndarray  # (clusters, deltas) int
    parts: tuple[np.ndarray, ...]
    bounds: np.ndarray  # (clusters * deltas + 1,) int
    empty: np.ndarray  # (clusters, deltas) bool, segments innermost first


# f is evaluated in blocks of this many witnesses: its temporaries then
# stay small enough to reuse memory instead of faulting in fresh pages.
_EVAL_BLOCK = 65_536

# One slot per model, for the ladder it was last checked with.  Models
# hash by identity (eq=False) and are held weakly, so an entry dies with
# its model.
_SHELLS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _witness_shells(model: CompactificationModel, deltas: tuple[float, ...]) -> _WitnessShells:
    """The model's shells for ``deltas``: cached, or computed and cached."""
    shells = _SHELLS.get(model)
    if shells is not None and shells.deltas == deltas:
        return shells
    depth_type = np.min_scalar_type(len(deltas))
    counts = np.empty((len(model.remainder), len(deltas)), dtype=np.int64)
    parts = []
    for c, cluster in enumerate(model.remainder):
        points = model.embedding.embed_array(cluster.witnesses)
        dist = distances_to_cloud(cluster.center, points)
        # A witness lies within all but the last ``depth`` radii of the
        # decreasing ladder; depth 0 is the innermost shell.  The narrow
        # dtype lets the stable sort run as a radix sort.
        depth = np.full(dist.shape[0], len(deltas), dtype=depth_type)
        for k, delta in enumerate(deltas):
            within = dist < delta
            counts[c, k] = np.count_nonzero(within)
            depth -= within
        if counts[c, -1] == depth.shape[0]:
            parts.append(cluster.witnesses)  # all in the innermost shell
        else:
            order = np.argsort(depth, kind="stable")[: counts[c, 0]]
            parts.append(cluster.witnesses[order])
    sizes = np.diff(counts[:, ::-1], axis=1, prepend=0)  # innermost shell first
    shells = _WitnessShells(
        deltas=deltas,
        counts=counts,
        parts=tuple(parts),
        bounds=np.concatenate([[0], np.cumsum(sizes)]),
        empty=sizes == 0,
    )
    _SHELLS[model] = shells
    return shells


def check_extendability(
    model: CompactificationModel,
    f: FunctionDescriptor,
    deltas=DEFAULT_DELTAS,
) -> ExtensionReport:
    """Decide whether f extends continuously to the model's remainder.

    A member of the family short-circuits to a projection verdict without
    any sampling.  Otherwise, for every remainder cluster and every probe
    radius delta, the oscillation max - min of f over tail witnesses whose
    embeddings lie within delta of the cluster center is tabulated.  At the
    smallest radius: oscillation below ``PASS_THRESHOLD`` on every cluster
    means f extends numerically, with the min/max midpoint as its value;
    oscillation above ``FAIL_THRESHOLD`` on some cluster with at least
    ``MIN_FAIL_WITNESSES`` witnesses means it cannot extend; anything else
    is inconclusive, which is a result, not an error.

    The probe-independent work is cached per model: the first sampled
    check embeds every witness, measures its distance to its cluster
    center and keeps, per cluster, the witness count within each radius
    and the witnesses within the largest radius, innermost first.  Later
    checks with the same ladder evaluate f on those witnesses only and
    reduce per (cluster, shell) segment; min and max are exact, so the
    report is the same as a fresh check's.  The cache holds one slot per
    model, keyed by the ladder: a check with another ladder replaces it.
    Models are treated as immutable; the cache is never written to a
    model file and dies with its model.
    """
    deltas = _validate_deltas(deltas)
    if not model.remainder:
        raise ValueError("model has no remainder clusters to test against")
    for j, g in enumerate(model.family):
        if g == f:
            return ExtensionReport(
                verdict=Verdict.EXTENDS_BY_PROJECTION,
                deltas=deltas,
                tables={},
                coordinate=j,
            )

    shells = _witness_shells(model, deltas)
    short = np.flatnonzero(shells.counts[:, -1] == 0)
    if short.size:
        raise InsufficientWitnessesError(
            f"cluster {model.remainder[short[0]].cluster_id} has no witnesses within "
            f"delta={deltas[-1]}; rebuild with a denser tail grid "
            "(smaller grid_step) or a larger smallest delta"
        )
    xs = np.concatenate(shells.parts)
    # One slot past the witnesses holds a sentinel, so the bounds can end
    # with the total and no segment runs on past its end; the sentinel's
    # own reduction is dropped.
    values = np.zeros(xs.shape[0] + 1)
    for start in range(0, xs.shape[0], _EVAL_BLOCK):
        block = xs[start : start + _EVAL_BLOCK]
        values[start : start + block.shape[0]] = f.evaluate(block)
    lo = np.minimum.reduceat(values, shells.bounds)[:-1].reshape(shells.counts.shape)
    hi = np.maximum.reduceat(values, shells.bounds)[:-1].reshape(shells.counts.shape)
    lo[shells.empty] = np.inf
    hi[shells.empty] = -np.inf
    # Shells run innermost first, so a running min/max over them covers
    # the witnesses within each radius, smallest radius first.
    lo = np.minimum.accumulate(lo, axis=1)[:, ::-1].tolist()
    hi = np.maximum.accumulate(hi, axis=1)[:, ::-1].tolist()

    tables: dict[int, tuple[OscillationRow, ...]] = {}
    final_osc: dict[int, float] = {}
    final_mid: dict[int, float] = {}
    final_count: dict[int, int] = {}
    for cluster, counts, lows, highs in zip(model.remainder, shells.counts.tolist(), lo, hi):
        rows = []
        for delta, count, vmin, vmax in zip(deltas, counts, lows, highs):
            if count == 0:
                rows.append(OscillationRow(delta, 0, None, None))
                continue
            rows.append(OscillationRow(delta, count, vmax - vmin, 0.5 * (vmin + vmax)))
        tables[cluster.cluster_id] = tuple(rows)
        last = rows[-1]
        final_osc[cluster.cluster_id] = last.oscillation
        final_mid[cluster.cluster_id] = last.midpoint
        final_count[cluster.cluster_id] = last.count

    if all(o < PASS_THRESHOLD for o in final_osc.values()):
        return ExtensionReport(
            verdict=Verdict.EXTENDS_NUMERICALLY,
            deltas=deltas,
            tables=tables,
            values=final_mid,
        )
    failing = [
        cid
        for cid, o in final_osc.items()
        if o > FAIL_THRESHOLD and final_count[cid] >= MIN_FAIL_WITNESSES
    ]
    if failing:
        worst = max(failing, key=lambda cid: (final_osc[cid], -cid))
        return ExtensionReport(
            verdict=Verdict.FAILS_TO_EXTEND,
            deltas=deltas,
            tables=tables,
            failing_cluster=worst,
            oscillation=final_osc[worst],
            witness_count=final_count[worst],
        )
    return ExtensionReport(
        verdict=Verdict.INCONCLUSIVE,
        deltas=deltas,
        tables=tables,
        oscillation=max(final_osc.values()),
    )
