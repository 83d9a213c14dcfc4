"""Comparing and enlarging compactification models.

One model sits above another when every coordinate of the smaller family
is T_n of a larger coordinate for some degree n >= 1, where T_1(t) = t
makes a verbatim copy the degree-1 case.  The induced coordinate mapping
is then checked numerically: it must reproduce the smaller embedding on
the image grid and carry the larger remainder onto the smaller one.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .compactification import CompactificationModel, build_compactification
from .extension import ExtensionReport, Verdict, check_extendability
from .functions import (
    MAX_CHEB_DEGREE, Cheb, Cos, FunctionDescriptor, FunctionFamily, chebyshev_recurrence,
)
from .product_space import capped_distance, rowwise_distance

__all__ = [
    "RESIDUAL_TOL",
    "ChebOfCoordinate",
    "ComparisonWitness",
    "Incomparable",
    "EnlargeResult",
    "DominationError",
    "compare",
    "apply_witness",
    "enlarge",
]

RESIDUAL_TOL = 1e-9

# The onto check measures distances in blocks of at most this many values.
_ONTO_BLOCK = 1 << 16


@dataclass(frozen=True)
class ChebOfCoordinate:
    """Smaller coordinate = T_degree of larger coordinate ``source``.

    Degree 1 is a verbatim copy, as T_1(t) = t.
    """

    degree: int
    source: int

    def apply(self, points: np.ndarray) -> np.ndarray:
        """This coordinate of the image of each row of an (M, N) float array."""
        return chebyshev_recurrence(self.degree, points[:, self.source])

    def to_json(self) -> dict:
        if self.degree == 1:
            return {"op": "copy", "source": self.source}
        return {"op": "cheb", "degree": self.degree, "source": self.source}


@dataclass(frozen=True)
class Incomparable:
    """Negative comparison outcome; a result, not an error."""

    reason: str


@dataclass(frozen=True, eq=False)
class ComparisonWitness:
    """Evidence that ``larger`` dominates ``smaller`` in the order.

    ``mapping`` has one entry per smaller coordinate.  ``residual`` is the
    largest distance between the mapped larger embedding and the smaller
    embedding over the larger image grid; ``onto_defect`` is the largest
    distance from a smaller remainder center to the mapped larger centers.
    """

    larger: CompactificationModel
    smaller: CompactificationModel
    mapping: tuple[ChebOfCoordinate, ...]
    residual: float
    onto_defect: float

    def mapping_json(self) -> list[dict]:
        return [m.to_json() for m in self.mapping]


def _harmonic(f: FunctionDescriptor) -> tuple[int, FunctionDescriptor]:
    """f as T_degree(inner): the product of its ``Cheb`` degrees, since
    T_m(T_n(t)) = T_mn(t), and the descriptor inside them."""
    degree = 1
    while isinstance(f, Cheb):
        degree, f = degree * f.n, f.inner
    return degree, f


def _derivation_degree(target: FunctionDescriptor, source: FunctionDescriptor) -> int | None:
    """The k with target = T_k(source), decided exactly on the stored
    parameters, or None.  A k above ``MAX_CHEB_DEGREE`` is not matched:
    applying T_k costs O(k) per point, as evaluating a descriptor does."""
    (dt, ft), (ds, fs) = _harmonic(target), _harmonic(source)
    if ft == fs:
        k = Fraction(dt, ds)
    elif isinstance(ft, Cos) and isinstance(fs, Cos) and fs.a != 0.0:
        # cos(m a x + m b) = T_m(cos(a x + b)); cos is even, so the
        # negated parameter pair names the same function.  Every float is
        # a rational, so the ratio and the phase are compared exactly.
        m = Fraction(ft.a) / Fraction(fs.a)
        if Fraction(ft.b) != m * Fraction(fs.b):
            return None
        k = abs(m) * dt / ds
    else:
        return None
    if k.denominator != 1 or not 1 <= k <= MAX_CHEB_DEGREE:
        return None
    return int(k)


def _match_coordinate(
    target: FunctionDescriptor, larger_family: FunctionFamily
) -> ChebOfCoordinate | None:
    """A verbatim member first, otherwise the first member, in family
    order, from which the target derives."""
    for j, g in enumerate(larger_family):
        if g == target:
            return ChebOfCoordinate(1, j)
    for j, g in enumerate(larger_family):
        k = _derivation_degree(target, g)
        if k is not None:
            return ChebOfCoordinate(k, j)
    return None


def _apply_mapping_array(
    mapping: tuple[ChebOfCoordinate, ...], points: np.ndarray
) -> np.ndarray:
    points = np.asarray(points, dtype=np.float64)
    return np.column_stack([m.apply(points) for m in mapping])


def apply_witness(witness: ComparisonWitness, points: np.ndarray) -> np.ndarray:
    """Map the (M, N) rows of larger-model coordinates to smaller-model rows.

    Values are clipped into the smaller space, since the recurrence can
    round past +-1: T_4(0.707106781186551) computes as
    -1.0000000000000002, and maps here to -1.0.
    """
    out = _apply_mapping_array(witness.mapping, points)
    lo = np.asarray([iv.lo for iv in witness.smaller.space])
    hi = np.asarray([iv.hi for iv in witness.smaller.space])
    return np.clip(out, lo, hi)


def _onto_defect(centers: np.ndarray, mapped: np.ndarray) -> float:
    """The largest distance from a row of ``centers`` to its nearest row of
    ``mapped``, measured in (centers x mapped) blocks of at most
    ``_ONTO_BLOCK`` values.  Each distance is ``distances_to_cloud``'s
    from that center to that mapped row, bit for bit."""
    cols = min(len(mapped), _ONTO_BLOCK)
    rows = _ONTO_BLOCK // cols
    defect = 0.0
    for i in range(0, len(centers), rows):
        block = centers[i : i + rows, None]
        nearest = np.full(block.shape[0], np.inf)
        for j in range(0, len(mapped), cols):
            np.minimum(nearest, capped_distance(mapped[None, j : j + cols], block).min(axis=1), out=nearest)
        defect = max(defect, float(nearest.max()))
    return defect


def _witness_from_mapping(
    larger: CompactificationModel,
    smaller: CompactificationModel,
    mapping: tuple[ChebOfCoordinate, ...],
) -> ComparisonWitness | Incomparable:
    mapped = _apply_mapping_array(mapping, larger.image_points)
    if np.array_equal(smaller.image_params, larger.image_params):
        # The smaller embedding on this grid is already stored.
        target = smaller.image_points
    else:
        target = smaller.embedding.embed_array(larger.image_params)
    residual = float(rowwise_distance(mapped, target).max())
    if residual > RESIDUAL_TOL:
        return Incomparable(
            f"coordinate mapping residual {residual:.3e} exceeds {RESIDUAL_TOL:.0e}"
        )
    onto_defect = _onto_defect(
        smaller.remainder_centers, _apply_mapping_array(mapping, larger.remainder_centers)
    )
    onto_tol = smaller.params.resolution
    if onto_defect > onto_tol:
        return Incomparable(
            f"mapped remainder misses a smaller cluster by {onto_defect:.3e} "
            f"(allowed {onto_tol:.3e})"
        )
    return ComparisonWitness(
        larger=larger,
        smaller=smaller,
        mapping=mapping,
        residual=residual,
        onto_defect=onto_defect,
    )


def compare(
    larger: CompactificationModel, smaller: CompactificationModel
) -> ComparisonWitness | Incomparable:
    """Try to exhibit ``larger`` above ``smaller`` in the order.

    Every smaller coordinate must be recognized syntactically inside the
    larger family, verbatim or as T_k of a member, with ``Cheb`` wrappers
    on either side unwrapped and cosine harmonics decided exactly; the
    resulting mapping is then verified numerically on the image grid and
    against the remainders.
    """
    mapping: list[ChebOfCoordinate] = []
    for n, f in enumerate(smaller.family):
        m = _match_coordinate(f, larger.family)
        if m is None:
            return Incomparable(
                f"smaller coordinate {n} is not derivable from the larger family"
            )
        mapping.append(m)
    return _witness_from_mapping(larger, smaller, tuple(mapping))


class DominationError(RuntimeError):
    """An enlarged model failed to sit above the model it enlarges."""


@dataclass(frozen=True, eq=False)
class EnlargeResult:
    """Outcome of adjoining a function to a model's family.

    ``strict`` records that the old model could not extend the new
    function, so the enlargement genuinely refines the compactification.
    """

    model: CompactificationModel
    strict: bool
    witness: ComparisonWitness
    old_report: ExtensionReport


def enlarge(model: CompactificationModel, f: FunctionDescriptor) -> EnlargeResult:
    """Rebuild with f adjoined and compare the result with the original.

    Adjoining a function already present leaves the family unchanged up to
    equivalence.  The enlargement is strict exactly when the old model
    fails to extend f.
    """
    old_report = check_extendability(model, f)
    descriptors = model.family.descriptors
    if f not in descriptors:
        descriptors = descriptors + (f,)
    new_model = build_compactification(FunctionFamily(descriptors), model.params)
    witness = compare(new_model, model)
    if isinstance(witness, Incomparable):
        raise DominationError(
            f"enlarged model failed to dominate the original: {witness.reason}"
        )
    return EnlargeResult(
        model=new_model,
        strict=old_report.verdict == Verdict.FAILS_TO_EXTEND,
        witness=witness,
        old_report=old_report,
    )

