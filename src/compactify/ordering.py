"""Comparing and enlarging compactification models.

One model sits above another when every coordinate of the smaller family
can be manufactured from the larger one, either verbatim or through a
Chebyshev identity.  The induced coordinate mapping is then checked
numerically: it must reproduce the smaller embedding on the image grid and
carry the larger remainder onto the smaller one.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .compactification import CompactificationModel, build_compactification
from .extension import ExtensionReport, Verdict, check_extendability
from .functions import Cheb, Cos, FunctionDescriptor, FunctionFamily, chebyshev_recurrence
from .product_space import distances_to_cloud, rowwise_distance

__all__ = [
    "RESIDUAL_TOL",
    "CopyCoordinate",
    "ChebOfCoordinate",
    "CoordinateMap",
    "ComparisonWitness",
    "Incomparable",
    "EnlargeResult",
    "DominationError",
    "compare",
    "apply_witness",
    "compose_mappings",
    "enlarge",
    "equivalence_check",
]

RESIDUAL_TOL = 1e-9


@dataclass(frozen=True)
class CopyCoordinate:
    """Smaller coordinate = larger coordinate ``source`` verbatim."""

    source: int


@dataclass(frozen=True)
class ChebOfCoordinate:
    """Smaller coordinate = T_degree of larger coordinate ``source``."""

    degree: int
    source: int


CoordinateMap = CopyCoordinate | ChebOfCoordinate


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
    mapping: tuple[CoordinateMap, ...]
    residual: float
    onto_defect: float

    def mapping_json(self) -> list[dict]:
        out = []
        for m in self.mapping:
            if isinstance(m, CopyCoordinate):
                out.append({"op": "copy", "source": m.source})
            else:
                out.append({"op": "cheb", "degree": m.degree, "source": m.source})
        return out


def _as_integer_multiple(value: float, base: float) -> int | None:
    if base == 0.0:
        return None
    m = round(value / base)
    if m >= 1 and value == m * base:
        return m
    return None


def _match_coordinate(
    target: FunctionDescriptor, larger_family: FunctionFamily
) -> CoordinateMap | None:
    for j, g in enumerate(larger_family):
        if g == target:
            return CopyCoordinate(j)
    if isinstance(target, Cheb):
        for j, g in enumerate(larger_family):
            if g == target.inner:
                return ChebOfCoordinate(target.n, j)
    if isinstance(target, Cos):
        # cos(m a x + m b) = T_m(cos(a x + b)); cos is even, so the
        # negated parameter pair names the same function.
        for j, g in enumerate(larger_family):
            if not isinstance(g, Cos) or g.a == 0.0:
                continue
            for aa, bb in ((target.a, target.b), (-target.a, -target.b)):
                m = _as_integer_multiple(aa, g.a)
                if m is not None and bb == m * g.b:
                    return CopyCoordinate(j) if m == 1 else ChebOfCoordinate(m, j)
    return None


def _apply_mapping_array(
    mapping: tuple[CoordinateMap, ...], points: np.ndarray
) -> np.ndarray:
    points = np.asarray(points, dtype=np.float64)
    cols = []
    for m in mapping:
        if isinstance(m, CopyCoordinate):
            cols.append(points[:, m.source])
        else:
            cols.append(np.asarray(chebyshev_recurrence(m.degree, points[:, m.source])))
    return np.column_stack(cols)


def apply_witness(witness: ComparisonWitness, points: np.ndarray) -> np.ndarray:
    """Map larger-model coordinate rows to smaller-model rows.

    Values are clipped into the smaller space so recurrence drift cannot
    push them outside their intervals.
    """
    out = _apply_mapping_array(witness.mapping, np.atleast_2d(points))
    lo = np.asarray([iv.lo for iv in witness.smaller.space])
    hi = np.asarray([iv.hi for iv in witness.smaller.space])
    out = np.clip(out, lo, hi)
    if np.asarray(points).ndim == 1:
        return out[0]
    return out


def _witness_from_mapping(
    larger: CompactificationModel,
    smaller: CompactificationModel,
    mapping: tuple[CoordinateMap, ...],
) -> ComparisonWitness | Incomparable:
    mapped = _apply_mapping_array(mapping, larger.image_points)
    target = smaller.embedding.embed_array(larger.image_params)
    residual = float(rowwise_distance(mapped, target).max())
    if residual > RESIDUAL_TOL:
        return Incomparable(
            f"coordinate mapping residual {residual:.3e} exceeds {RESIDUAL_TOL:.0e}"
        )
    mapped_centers = _apply_mapping_array(mapping, larger.remainder_centers())
    onto_defect = 0.0
    onto_tol = 2.0 * smaller.params.cluster_radius
    for c in smaller.remainder:
        gap = float(distances_to_cloud(c.center, mapped_centers).min())
        onto_defect = max(onto_defect, gap)
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
    larger family (verbatim, as T_n of a member, or as a cosine harmonic of
    a member); the resulting mapping is then verified numerically on the
    image grid and against the remainders.
    """
    mapping: list[CoordinateMap] = []
    for n, f in enumerate(smaller.family):
        m = _match_coordinate(f, larger.family)
        if m is None:
            return Incomparable(
                f"smaller coordinate {n} is not derivable from the larger family"
            )
        mapping.append(m)
    return _witness_from_mapping(larger, smaller, tuple(mapping))


def compose_mappings(
    outer: tuple[CoordinateMap, ...], inner: tuple[CoordinateMap, ...]
) -> tuple[CoordinateMap, ...]:
    """Mapping for A -> C given B -> C (outer) and A -> B (inner).

    Chebyshev stages multiply: T_m after T_k is T_{mk}.
    """
    out: list[CoordinateMap] = []
    for m in outer:
        src = inner[m.source]
        if isinstance(m, CopyCoordinate):
            out.append(src)
        elif isinstance(src, CopyCoordinate):
            out.append(ChebOfCoordinate(m.degree, src.source))
        else:
            out.append(ChebOfCoordinate(m.degree * src.degree, src.source))
    return tuple(out)


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


def equivalence_check(a: CompactificationModel, b: CompactificationModel) -> bool:
    """Whether each model dominates the other."""
    return isinstance(compare(a, b), ComparisonWitness) and isinstance(
        compare(b, a), ComparisonWitness
    )
