"""Self-contained acceptance checks for the whole package.

Each criterion is a function from a shared context (seed plus a model
cache) to a pass flag and deterministic measured details; its id and name
live only in ``CRITERIA``.
The ``verify`` subcommand runs them all and emits a JSON report whose
body is reproducible bit for bit; timestamps live only in the report
header.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import __version__
from .compactification import (
    BuildParams,
    CompactificationModel,
    build_compactification,
)
from .extension import Verdict, check_extendability, extend_by_projection
from .functions import Cos, FunctionFamily, Interval, StereoX, StereoY, Tanh, chebyshev_expand
from .inverse_limit import (
    InverseSystem,
    LiftError,
    chain_limit,
    lift_point,
    make_thread_from_parameter,
    thread_residuals,
)
from .ordering import ComparisonWitness, apply_witness, compare, enlarge, equivalence_check
from .product_space import (
    InclusionReport,
    ProductPoint,
    capped_distance,
    check_ball_cylinder_inclusions,
    product_distance,
    rowwise_distance,
    tail_bound,
)

__all__ = [
    "AcceptanceContext",
    "CriterionResult",
    "CRITERIA",
    "run_criteria",
    "metric_sample",
    "verify_report_body",
    "TWO_POINT_FAMILY",
    "ONE_POINT_FAMILY",
    "TWO_COORD_FAMILY",
    "chain_family",
]

TWO_POINT_FAMILY = FunctionFamily((Tanh(),))
ONE_POINT_FAMILY = FunctionFamily((StereoX(), StereoY()))
TWO_COORD_FAMILY = FunctionFamily((Tanh(), Cos()))


def chain_family(depth: int) -> FunctionFamily:
    """Family number ``depth`` of the canonical ascending chain.

    Depth 1 is the bare tanh family; each further level adjoins the next
    cosine harmonic.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    descriptors = [Tanh()] + [Cos(float(k), 0.0) for k in range(1, depth)]
    return FunctionFamily(tuple(descriptors))


@dataclass
class AcceptanceContext:
    """Seeded context with a build cache shared across criteria."""

    seed: int = 7
    params: BuildParams = field(default_factory=BuildParams)
    _models: dict[FunctionFamily, CompactificationModel] = field(default_factory=dict)

    def model(self, family: FunctionFamily) -> CompactificationModel:
        if family not in self._models:
            self._models[family] = build_compactification(family, self.params)
        return self._models[family]

    def rng(self, salt: int = 0) -> np.random.Generator:
        return np.random.default_rng(self.seed + salt)


@dataclass
class CriterionResult:
    cid: int
    name: str
    passed: bool
    details: dict

    def to_json(self) -> dict:
        return {
            "id": self.cid,
            "name": self.name,
            "passed": self.passed,
            "details": self.details,
        }


def _crit_chebyshev_identity(ctx: AcceptanceContext) -> tuple[bool, dict]:
    """T_n(cos x) must reproduce cos(n x) to 1e-9 for n = 1..12."""
    xs = np.linspace(-50.0, 50.0, 10_000)
    worst = 0.0
    worst_n = 0
    for n in range(1, 13):
        direct = np.cos(n * xs)  # independent route, no recurrence
        expanded = chebyshev_expand(n).evaluate(xs)
        err = float(np.abs(expanded - direct).max())
        if err > worst:
            worst, worst_n = err, n
    return (
        worst <= 1e-9,
        {"sup_error": worst, "worst_degree": worst_n, "grid": 10_000, "tolerance": 1e-9},
    )


def metric_sample(
    rng: np.random.Generator, n: int, dim: int, half_count: int, r: float
) -> tuple[dict, InclusionReport]:
    """Metric axioms on n random triples in [-1, 1]^dim, then both
    ball/cylinder inclusions at radius r on 2 * half_count points.

    Random points rarely land close enough to engage the inclusion
    hypotheses, so half the inclusion sample is built from small
    perturbations of the other half.  Returns the measured details and
    the inclusion report.
    """
    x, y, z = rng.uniform(-1.0, 1.0, (3, n, dim))
    dxy = rowwise_distance(x, y)
    dyz = rowwise_distance(y, z)
    dxz = rowwise_distance(x, z)
    symmetric = bool(np.array_equal(dxy, rowwise_distance(y, x)))
    identity = bool(np.all(rowwise_distance(x, x) == 0.0) and np.all(dxy > 0.0))
    triangle_slack = float((dxz - (dxy + dyz)).max())

    space = tuple([Interval(-1.0, 1.0)] * dim)
    base = rng.uniform(-1.0, 1.0, (half_count, dim))
    near = np.clip(base + rng.uniform(-0.02, 0.02, base.shape), -1.0, 1.0)
    samples = [ProductPoint(tuple(row), space) for row in np.vstack([base, near])]
    report = check_ball_cylinder_inclusions(space, samples, r=r)
    details = {
        "symmetric": symmetric,
        "identity": identity,
        "triangle_slack": triangle_slack,
        "inclusion_pairs": report.pairs_checked,
        "coordinate_violations": len(report.coordinate_violations),
        "cylinder_violations": len(report.cylinder_violations),
        "truncation_depth": report.k,
    }
    return details, report


def _crit_metric_axioms(ctx: AcceptanceContext) -> tuple[bool, dict]:
    """Metric axioms on random triples plus both ball/cylinder inclusions."""
    n = 10_000
    details, report = metric_sample(ctx.rng(2), n, dim=5, half_count=75, r=0.3)
    passed = (
        details["symmetric"]
        and details["identity"]
        and details["triangle_slack"] <= 1e-12
        and report.ok
        and report.pairs_checked >= 10_000
    )
    return passed, {"triples": n, **details}


def _crit_truncation_bound(ctx: AcceptanceContext) -> tuple[bool, dict]:
    """Dropping coordinates 3..19 moves no distance by more than 2^-2."""
    rng = ctx.rng(3)
    x, y = rng.uniform(-1.0, 1.0, (2, 10_000, 20))
    d_full = rowwise_distance(x, y)
    d_head = rowwise_distance(x[:, :3], y[:, :3])
    gap = float(np.abs(d_full - d_head).max())
    bound = tail_bound(3)
    halving = all(tail_bound(n + 1) == tail_bound(n) / 2.0 for n in range(1, 20))
    return (
        gap <= bound and bound == 0.25 and halving,
        {"max_gap": gap, "bound": bound, "halving_exact": halving},
    )


def _crit_canonical_remainders(ctx: AcceptanceContext) -> tuple[bool, dict]:
    """The circle family leaves one point at infinity, tanh leaves two."""
    one = ctx.model(ONE_POINT_FAMILY)
    two = ctx.model(TWO_POINT_FAMILY)

    one_centers = one.remainder_centers()
    one_ok = one_centers.shape[0] == 1 and bool(
        np.all(np.abs(one_centers[0] - np.array([0.0, 1.0])) <= 0.01)
    )
    one_side = one.remainder[0].side if one.remainder else None

    two_centers = sorted(float(c.center[0]) for c in two.remainder)
    two_ok = (
        len(two.remainder) == 2
        and abs(two_centers[0] - (-1.0)) <= 0.01
        and abs(two_centers[1] - 1.0) <= 0.01
        and sorted(c.side for c in two.remainder) == ["+inf", "-inf"]
    )
    return (
        one_ok and two_ok,
        {
            "one_point_clusters": int(one_centers.shape[0]),
            "one_point_center": [float(v) for v in one_centers[0]] if one_centers.shape[0] else None,
            "one_point_side": one_side,
            "two_point_clusters": len(two.remainder),
            "two_point_centers": two_centers,
        },
    )


def _crit_cosine_obstruction(ctx: AcceptanceContext) -> tuple[bool, dict]:
    """cos has no continuous extension to either canonical remainder."""
    results = {}
    passed = True
    for label, family in (("one_point", ONE_POINT_FAMILY), ("two_point", TWO_POINT_FAMILY)):
        report = check_extendability(ctx.model(family), Cos())
        ok = (
            report.verdict == Verdict.FAILS_TO_EXTEND
            and report.oscillation is not None
            and report.oscillation >= 1.9
            and report.witness_count is not None
            and report.witness_count >= 100
        )
        passed = passed and ok
        results[label] = {
            "verdict": report.verdict.value,
            "oscillation": report.oscillation,
            "witness_count": report.witness_count,
        }
    return passed, results


def _dense_tail(p: BuildParams) -> np.ndarray:
    """Both tails at a quarter of the build's tail step."""
    step = p.tail_step / 4.0
    count = round((p.r_tail_hi - p.r_tail_lo) / step)
    plus = np.linspace(p.r_tail_lo, p.r_tail_hi, count + 1)
    return np.concatenate([-plus[::-1], plus])


# Oracle parameters are embedded and measured this many at a time.
_ORACLE_BLOCK = 8_192


def _oracle_cover(embedding, params: np.ndarray, centers: np.ndarray) -> float:
    """Largest distance from an embedded parameter to its nearest center.

    The embedding is streamed block by block; a max of per-block maxima
    of element-wise minima is the one-shot value exactly.
    """
    cover = 0.0
    for lo in range(0, params.shape[0], _ORACLE_BLOCK):
        block = embedding.embed_array(params[lo : lo + _ORACLE_BLOCK])
        nearest = capped_distance(block[:, None, :], centers[None, :, :]).min(axis=1)
        cover = max(cover, float(nearest.max()))
    return cover


def _crit_two_coordinate_remainder(ctx: AcceptanceContext) -> tuple[bool, dict]:
    """Tanh plus cos leaves two segments at infinity: {-1,+1} x [-1,1].

    The clusters are compared against a brute-force oracle: a tail
    sampling four times denser than the build's, embedded directly.  Both
    one-sided Hausdorff distances must stay within 0.05: every oracle
    point near a cluster center, every center near the ideal segments.
    """
    model = ctx.model(TWO_COORD_FAMILY)
    centers = model.remainder_centers()
    p = model.params

    oracle_params = _dense_tail(p)
    cover = _oracle_cover(model.embedding, oracle_params, centers)

    # Distance from a center (t, c) to {-1,+1} x [-1,1] in the product
    # metric: the best capped gap in t, the c coordinate already lies in
    # its interval.
    proximity = float(
        np.max(np.minimum(np.minimum(1.0, np.abs(centers[:, 0] - 1.0)),
                          np.minimum(1.0, np.abs(centers[:, 0] + 1.0))))
    )
    passed = cover <= 0.05 and proximity <= 0.05
    return (
        passed,
        {
            "clusters": int(centers.shape[0]),
            "oracle_points": int(oracle_params.shape[0]),
            "oracle_to_centers_sup": cover,
            "centers_to_segments_sup": proximity,
            "tolerance": 0.05,
        },
    )


def _crit_projection_exactness(ctx: AcceptanceContext) -> tuple[bool, dict]:
    """Coordinate projections reproduce family members with zero error."""
    families = [TWO_POINT_FAMILY, ONE_POINT_FAMILY, TWO_COORD_FAMILY, chain_family(3)]
    checked = 0
    exact = True
    for family in families:
        model = ctx.model(family)
        for n, f in enumerate(model.family):
            handle = extend_by_projection(model, n)
            reproduced = handle(model.image_points)
            expected = f.evaluate(model.image_params)
            exact = exact and bool(np.array_equal(reproduced, expected))
            checked += 1
    return (
        exact,
        {"coordinates_checked": checked, "models": len(families), "max_error": 0.0 if exact else None},
    )


def _crit_comparison_witnesses(ctx: AcceptanceContext) -> tuple[bool, dict]:
    """Coordinate-subset comparisons and a Chebyshev equivalence."""
    two = ctx.model(TWO_POINT_FAMILY)
    pair = ctx.model(TWO_COORD_FAMILY)
    triple = ctx.model(chain_family(3))

    w1 = compare(pair, two)
    w2 = compare(triple, pair)
    ok_w = isinstance(w1, ComparisonWitness) and isinstance(w2, ComparisonWitness)
    res1 = w1.residual if ok_w else None
    res2 = w2.residual if ok_w else None
    equiv = equivalence_check(pair, triple)
    passed = (
        ok_w
        and res1 is not None
        and res1 <= 1e-9
        and res2 is not None
        and res2 <= 1e-9
        and equiv
    )
    return (
        passed,
        {
            "pair_over_two_residual": res1,
            "triple_over_pair_residual": res2,
            "harmonic_equivalence": equiv,
        },
    )


def _crit_strict_enlargement(ctx: AcceptanceContext) -> tuple[bool, dict]:
    """Adjoining cos to the tanh family is a strict enlargement."""
    two = ctx.model(TWO_POINT_FAMILY)
    result = enlarge(two, Cos())
    new_report = check_extendability(result.model, Cos())
    sound = (
        result.old_report.verdict == Verdict.FAILS_TO_EXTEND
        and new_report.verdict != Verdict.FAILS_TO_EXTEND
    )
    passed = result.strict and sound and new_report.verdict == Verdict.EXTENDS_BY_PROJECTION
    return (
        passed,
        {
            "strict": result.strict,
            "old_verdict": result.old_report.verdict.value,
            "new_verdict": new_report.verdict.value,
            "witness_residual": result.witness.residual,
        },
    )


def _crit_chain_and_limit(ctx: AcceptanceContext) -> tuple[bool, dict]:
    """A five-level chain: bonds, threads, lifts and the limit model."""
    levels = [ctx.model(chain_family(k)) for k in range(1, 6)]
    system = InverseSystem.from_levels(levels)
    bond_residuals = [w.residual for w in system.bonds]

    # Thread property on a 1000-point grid, checked in bulk per bond.
    xs = np.linspace(-40.0, 40.0, 1000)
    thread_sup = 0.0
    for n in range(system.depth - 1):
        upper = system.levels[n + 1].embedding.embed_array(xs)
        lower = system.levels[n].embedding.embed_array(xs)
        pushed = apply_witness(system.bonds[n], upper)
        thread_sup = max(thread_sup, float(rowwise_distance(pushed, lower).max()))
    sample = make_thread_from_parameter(system, 7.25)
    sample_res = max(thread_residuals(system, sample)) if system.depth > 1 else 0.0
    thread_sup = max(thread_sup, sample_res)

    coarse_idx = np.arange(0, levels[0].image_params.shape[0], 5000)
    lifts = 0
    lift_failures = 0
    agree_sup = 0.0
    for n, model in enumerate(levels):
        for i in coarse_idx:
            point = ProductPoint(tuple(float(v) for v in model.image_points[i]), model.space)
            try:
                thread = lift_point(system, n, point)
            except LiftError:
                lift_failures += 1
                continue
            lifts += 1
            x0 = float(model.image_params[i])
            # Away from tanh saturation the lifted thread must track the
            # parameter thread; inside saturation ties make the lift
            # legitimately ambiguous, so agreement is only measured where
            # the leading coordinate still separates grid points.
            if abs(x0) <= 15.0:
                reference = make_thread_from_parameter(system, x0)
                for a, b in zip(thread.entries, reference.entries):
                    agree_sup = max(agree_sup, product_distance(a, b))

    limit = chain_limit(system)
    limit_ok = True
    limit_residuals = []
    for level in levels:
        w = compare(limit, level)
        if isinstance(w, ComparisonWitness):
            limit_residuals.append(w.residual)
        else:
            limit_ok = False
            limit_residuals.append(None)

    passed = (
        max(bond_residuals) <= 1e-9
        and thread_sup <= 1e-9
        and lift_failures == 0
        and agree_sup <= 2.0 * ctx.params.cluster_radius
        and limit_ok
        and all(r is not None and r <= 1e-9 for r in limit_residuals)
    )
    return (
        passed,
        {
            "levels": system.depth,
            "bond_residuals": bond_residuals,
            "thread_sup": thread_sup,
            "thread_grid": 1000,
            "lifts": lifts,
            "lift_failures": lift_failures,
            "lift_agreement_sup": agree_sup,
            "limit_residuals": limit_residuals,
        },
    )


# The only place each criterion's id and name are written.
CRITERIA: tuple[tuple[int, str, Callable[[AcceptanceContext], tuple[bool, dict]]], ...] = (
    (1, "chebyshev-identity", _crit_chebyshev_identity),
    (2, "metric-axioms", _crit_metric_axioms),
    (3, "truncation-bound", _crit_truncation_bound),
    (4, "canonical-remainders", _crit_canonical_remainders),
    (5, "cosine-obstruction", _crit_cosine_obstruction),
    (6, "two-coordinate-remainder", _crit_two_coordinate_remainder),
    (7, "projection-exactness", _crit_projection_exactness),
    (8, "comparison-witnesses", _crit_comparison_witnesses),
    (9, "strict-enlargement", _crit_strict_enlargement),
    (10, "chain-and-limit", _crit_chain_and_limit),
)


def run_criteria(
    ctx: AcceptanceContext, ids: tuple[int, ...] | None = None
) -> list[CriterionResult]:
    """Run the selected criteria (all by default) against one context,
    in table order.  Unknown, repeated or no ids are a ``ValueError``."""
    if ids is not None:
        unknown = sorted(set(ids) - {cid for cid, _, _ in CRITERIA})
        repeated = sorted({cid for cid in ids if ids.count(cid) > 1})
        if unknown or repeated or not ids:
            raise ValueError(
                f"criteria must be distinct known ids (1-{len(CRITERIA)}): "
                f"unknown {unknown}, repeated {repeated}"
            )
    return [
        CriterionResult(cid, name, *fn(ctx))
        for cid, name, fn in CRITERIA
        if ids is None or cid in ids
    ]


def verify_report_body(seed: int, ids: tuple[int, ...] | None = None) -> dict:
    """Deterministic body of a verification report (no timestamps)."""
    ctx = AcceptanceContext(seed=seed)
    results = run_criteria(ctx, ids)
    return {
        "tool_version": __version__,
        "seed": seed,
        "build_params": ctx.params.to_json(),
        "all_passed": all(r.passed for r in results),
        "criteria": [r.to_json() for r in results],
    }
