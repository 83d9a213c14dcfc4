from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compactify.compactification import (
    BuildParams,
    EmbeddingMap,
    build_compactification,
    load_model,
    save_model,
)
from compactify import ordering
from compactify.acceptance import chain_family
from compactify.extension import Verdict
from compactify.functions import (
    MAX_CHEB_DEGREE, Cheb, Cos, FunctionFamily, Tanh, chebyshev_recurrence,
)
from compactify.ordering import (
    ChebOfCoordinate,
    ComparisonWitness,
    Incomparable,
    apply_witness,
    compare,
    enlarge,
    _apply_mapping_array,
    _match_coordinate,
    _witness_from_mapping,
)
from compactify.product_space import distances_to_cloud, rowwise_distance

from conftest import SMALL


# full-resolution companions of the session gamma model; the coarse SMALL
# tails leave the mapped remainder clouds too sparse for the onto check
@pytest.fixture(scope="module")
def tanh_cos2():
    return build_compactification((Tanh(), Cos(2.0, 0.0)))


@pytest.fixture(scope="module")
def tanh_cos4():
    return build_compactification((Tanh(), Cos(4.0, 0.0)))


def test_self_comparison_is_the_identity_witness(small_gamma):
    w = compare(small_gamma, small_gamma)
    assert isinstance(w, ComparisonWitness)
    assert w.mapping == (ChebOfCoordinate(1, 0), ChebOfCoordinate(1, 1))
    assert w.residual == 0.0
    assert w.onto_defect == 0.0


def test_harmonic_coordinate_is_recognized(gamma_model, tanh_cos2):
    w = compare(gamma_model, tanh_cos2)
    assert isinstance(w, ComparisonWitness)
    assert w.mapping == (ChebOfCoordinate(1, 0), ChebOfCoordinate(2, 1))
    assert w.residual <= 1e-9
    assert w.onto_defect <= 2.0 * tanh_cos2.params.cluster_radius


def test_negated_cosine_parameters_name_the_same_function(small_gamma):
    negated = build_compactification((Tanh(), Cos(-1.0, 0.0)), SMALL)
    w = compare(small_gamma, negated)
    assert isinstance(w, ComparisonWitness)
    assert w.mapping == (ChebOfCoordinate(1, 0), ChebOfCoordinate(1, 1))


def test_explicit_cheb_coordinate_is_recognized(small_gamma):
    wrapped = build_compactification((Tanh(), Cheb(3, Cos())), SMALL)
    w = compare(small_gamma, wrapped)
    assert isinstance(w, ComparisonWitness)
    assert w.mapping == (ChebOfCoordinate(1, 0), ChebOfCoordinate(3, 1))


def test_degree_one_cheb_coordinate_is_reported_as_a_copy(small_gamma):
    # T_1(t) = t, so Cheb(1, cos) is the cosine coordinate verbatim
    wrapped = build_compactification((Tanh(), Cheb(1, Cos())), SMALL)
    w = compare(small_gamma, wrapped)
    assert isinstance(w, ComparisonWitness)
    assert w.mapping == (ChebOfCoordinate(1, 0), ChebOfCoordinate(1, 1))
    assert w.mapping_json() == [{"op": "copy", "source": 0}, {"op": "copy", "source": 1}]
    assert w.residual == 0.0


def test_cheb_wrapped_larger_coordinates_are_unwrapped(small_gamma, tanh_cos4):
    # Cheb(1, cos) is cos, so the smaller cosine is a copy of it
    wrapped = build_compactification((Tanh(), Cheb(1, Cos())), SMALL)
    w = compare(wrapped, small_gamma)
    assert isinstance(w, ComparisonWitness)
    assert w.mapping == (ChebOfCoordinate(1, 0), ChebOfCoordinate(1, 1))
    assert w.residual == 0.0
    # Cheb(2, cos) is cos 2x, and cos 4x is T_2 of it
    cos2x = build_compactification((Tanh(), Cheb(2, Cos())))
    w = compare(cos2x, tanh_cos4)
    assert isinstance(w, ComparisonWitness)
    assert w.mapping == (ChebOfCoordinate(1, 0), ChebOfCoordinate(2, 1))
    assert w.residual <= 1e-9
    assert w.onto_defect <= tanh_cos4.params.resolution


def test_harmonics_are_decided_exactly_on_the_stored_floats(small_gamma):
    base = FunctionFamily((Tanh(), Cos(0.1, 0.0)))
    # 3 * 0.1 rounds to 0.30000000000000004, which is not 3 times the
    # float 0.1, so cos(0.30000000000000004 x) is no harmonic of it
    assert 3 * 0.1 == 0.30000000000000004
    assert _match_coordinate(Cos(3 * 0.1, 0.0), base) is None
    assert _match_coordinate(Cos(0.3, 0.0), base) is None
    assert _match_coordinate(Cos(0.5, 0.25), FunctionFamily((Tanh(), Cos(0.25, 0.125)))) == (
        ChebOfCoordinate(2, 1)
    )
    assert _match_coordinate(Cos(-0.5, -0.25), FunctionFamily((Tanh(), Cos(0.25, 0.125)))) == (
        ChebOfCoordinate(2, 1)
    )
    larger = build_compactification(base, SMALL)
    res = compare(larger, build_compactification((Tanh(), Cos(3 * 0.1, 0.0)), SMALL))
    assert isinstance(res, Incomparable)
    assert "not derivable" in res.reason


def test_derived_degrees_stay_within_the_descriptor_bound():
    family = FunctionFamily((Tanh(), Cos()))
    assert _match_coordinate(Cos(float(MAX_CHEB_DEGREE), 0.0), family) == (
        ChebOfCoordinate(MAX_CHEB_DEGREE, 1)
    )
    assert _match_coordinate(Cos(float(MAX_CHEB_DEGREE + 1), 0.0), family) is None
    # nested wrappers multiply their degrees: 2 * 1000 is past the bound
    assert _match_coordinate(Cheb(2, Cheb(MAX_CHEB_DEGREE, Cos())), family) is None
    assert _match_coordinate(Cheb(2, Cheb(3, Cos())), family) == ChebOfCoordinate(6, 1)
    wrapped = FunctionFamily((Tanh(), Cheb(2, Tanh(2.0))))
    assert _match_coordinate(Cheb(4, Tanh(2.0)), wrapped) == ChebOfCoordinate(2, 1)
    assert _match_coordinate(Cheb(3, Tanh(2.0)), wrapped) is None


def _as_integer_multiple(value, base):
    if base == 0.0:
        return None
    m = round(value / base)
    if m >= 1 and value == m * base:
        return m
    return None


def _float_match(target, larger_family):
    # The matcher before harmonics were decided on exact rationals: float
    # products, and Cheb wrappers seen only on the smaller side.
    for j, g in enumerate(larger_family):
        if g == target:
            return ChebOfCoordinate(1, j)
    if isinstance(target, Cheb):
        for j, g in enumerate(larger_family):
            if g == target.inner:
                return ChebOfCoordinate(target.n, j)
    if isinstance(target, Cos):
        for j, g in enumerate(larger_family):
            if not isinstance(g, Cos) or g.a == 0.0:
                continue
            for aa, bb in ((target.a, target.b), (-target.a, -target.b)):
                m = _as_integer_multiple(aa, g.a)
                if m is not None and bb == m * g.b:
                    return ChebOfCoordinate(m, j)
    return None


# Dyadic parameters with small numerators: every product below is exact.
DYADIC = st.builds(lambda i, e: i / 2.0**e, st.integers(-64, 64), st.integers(0, 6))


@settings(max_examples=300, deadline=2000, derandomize=True, database=None)
@given(
    cosines=st.lists(st.tuples(DYADIC, DYADIC), min_size=1, max_size=3),
    pick=st.integers(0, 2),
    m=st.integers(-20, 20),
    other=st.tuples(DYADIC, DYADIC),
    harmonic=st.booleans(),
)
def test_exact_cosine_ratios_match_as_the_float_matcher_did(cosines, pick, m, other, harmonic):
    family = FunctionFamily((Tanh(),) + tuple(Cos(a, b) for a, b in cosines))
    a, b = cosines[pick % len(cosines)]
    target = Cos(m * a, m * b) if harmonic else Cos(*other)
    assert _match_coordinate(target, family) == _float_match(target, family)


def test_incommensurable_frequency_is_incomparable(small_gamma):
    other = build_compactification((Tanh(), Cos(math.sqrt(2.0), 0.0)), SMALL)
    res = compare(small_gamma, other)
    assert isinstance(res, Incomparable)
    assert "no coordinate" in res.reason or "cannot" in res.reason or res.reason


def test_distinct_embeddings_are_incomparable(small_two_point, small_one_point):
    assert isinstance(compare(small_two_point, small_one_point), Incomparable)
    assert isinstance(compare(small_one_point, small_two_point), Incomparable)


def test_apply_witness_reproduces_the_smaller_embedding(gamma_model, tanh_cos2):
    w = compare(gamma_model, tanh_cos2)
    mapped = apply_witness(w, gamma_model.image_points)
    target = tanh_cos2.embedding.embed_array(gamma_model.image_params)
    assert np.max(np.abs(mapped - target)) <= 1e-9
    one = apply_witness(w, gamma_model.image_points[17:18])
    assert one.shape == (1, 2)
    assert np.array_equal(one, mapped[17:18])


def test_apply_witness_clips_recurrence_drift_into_the_smaller_space(gamma_model, tanh_cos4):
    # T_4 of this cosine value rounds past -1; the smaller space is [-1, 1]
    t = 0.707106781186551
    assert chebyshev_recurrence(4, t) == -1.0000000000000002
    w = compare(gamma_model, tanh_cos4)
    assert w.mapping == (ChebOfCoordinate(1, 0), ChebOfCoordinate(4, 1))
    mapped = apply_witness(w, np.array([[0.0, t]]))
    assert mapped.tolist() == [[0.0, -1.0]]


def compose_mappings(outer, inner):
    """Mapping for A -> C given B -> C (outer) and A -> B (inner).

    Chebyshev stages multiply: T_m after T_k is T_{mk}.
    """
    return tuple(
        ChebOfCoordinate(m.degree * inner[m.source].degree, inner[m.source].source)
        for m in outer
    )


def test_composed_mappings_match_direct_comparison(gamma_model, tanh_cos2, tanh_cos4):
    w_ab = compare(gamma_model, tanh_cos2)
    w_bc = compare(tanh_cos2, tanh_cos4)
    assert isinstance(w_ab, ComparisonWitness)
    assert isinstance(w_bc, ComparisonWitness)
    composed = compose_mappings(w_bc.mapping, w_ab.mapping)
    assert composed == (ChebOfCoordinate(1, 0), ChebOfCoordinate(4, 1))
    direct = compare(gamma_model, tanh_cos4)
    assert isinstance(direct, ComparisonWitness)
    assert direct.mapping == composed
    # the composed mapping is itself a valid witness, checked numerically
    w = _witness_from_mapping(gamma_model, tanh_cos4, composed)
    assert isinstance(w, ComparisonWitness)
    assert w.residual <= 1e-9


def test_wrong_mapping_is_rejected_by_the_residual_check(small_gamma, small_two_point):
    # white box: squaring the tanh coordinate is not the identity
    bogus = (ChebOfCoordinate(2, 0),)
    res = _witness_from_mapping(small_gamma, small_two_point, bogus)
    assert isinstance(res, Incomparable)
    assert "residual" in res.reason


def test_equivalence_up_to_cosine_sign(small_gamma):
    negated = build_compactification((Tanh(), Cos(-1.0, 0.0)), SMALL)
    assert isinstance(compare(small_gamma, negated), ComparisonWitness)
    assert isinstance(compare(negated, small_gamma), ComparisonWitness)


def test_enlarge_by_incommensurable_cosine_is_strict(small_two_point):
    res = enlarge(small_two_point, Cos(math.sqrt(2.0), 0.0))
    assert res.strict
    assert res.old_report.verdict is Verdict.FAILS_TO_EXTEND
    assert isinstance(res.witness, ComparisonWitness)
    assert res.witness.residual == 0.0
    assert len(res.model.remainder) > len(small_two_point.remainder)
    assert len(res.model.family) == 2


def test_enlarge_by_existing_member_changes_nothing(small_gamma):
    res = enlarge(small_gamma, Cos())
    assert not res.strict
    assert res.old_report.verdict is Verdict.EXTENDS_BY_PROJECTION
    assert tuple(res.model.family) == tuple(small_gamma.family)
    assert isinstance(compare(res.model, small_gamma), ComparisonWitness)
    assert isinstance(compare(small_gamma, res.model), ComparisonWitness)


def test_enlarge_by_derivable_function_is_not_strict(small_gamma):
    # cos(2x) already extends through T_2 of the cosine coordinate, so the
    # bigger model is no strict step upward
    res = enlarge(small_gamma, Cos(2.0, 0.0))
    assert not res.strict
    assert res.old_report.verdict is not Verdict.FAILS_TO_EXTEND
    assert isinstance(res.witness, ComparisonWitness)
    assert len(res.model.family) == 3


def _reembedded_residual(larger, smaller, mapping):
    # The residual as computed before stored image points were reused:
    # the smaller family evaluated afresh on the larger image grid.
    mapped = _apply_mapping_array(mapping, larger.image_points)
    return float(rowwise_distance(mapped, smaller.embedding.embed_array(larger.image_params)).max())


COMPARED_FAMILIES = [
    (Tanh(),),
    (Tanh(), Cos()),
    (Tanh(), Cos(2.0, 0.0)),
    (Tanh(), Cos(), Cos(2.0, 0.0)),
    (Tanh(), Cheb(3, Cos())),
]


@pytest.fixture(scope="module")
def built_and_loaded(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("models")
    built, loaded = [], []
    for k, family in enumerate(COMPARED_FAMILIES):
        model = build_compactification(family, SMALL)
        save_model(model, tmp / f"{k}.cptf")
        built.append(model)
        loaded.append(load_model(tmp / f"{k}.cptf"))
    return built, loaded


def _outcome(w):
    if isinstance(w, Incomparable):
        return w.reason
    return w.mapping, w.residual, w.onto_defect


def test_compare_on_loaded_models_matches_built_models_and_reembedding(built_and_loaded):
    built, loaded = built_and_loaded
    comparable = 0
    for i in range(len(built)):
        for j in range(len(built)):
            got = compare(loaded[i], loaded[j])
            assert _outcome(got) == _outcome(compare(built[i], built[j]))
            if isinstance(got, ComparisonWitness):
                comparable += 1
                assert got.residual == _reembedded_residual(loaded[i], loaded[j], got.mapping)
    assert comparable >= 10


def test_compare_on_one_grid_reuses_the_stored_points(built_and_loaded, monkeypatch):
    built, _ = built_and_loaded
    larger, smaller = built[1], built[2]
    expected = _outcome(compare(larger, smaller))
    assert expected[1] > 0.0  # a Chebyshev coordinate: a rounding-level residual

    def refuse(self, xs):
        raise AssertionError("the smaller family was evaluated again")

    monkeypatch.setattr(EmbeddingMap, "embed_array", refuse)
    assert _outcome(compare(larger, smaller)) == expected


def test_compare_across_grids_embeds_the_smaller_family_on_the_larger_grid():
    other = BuildParams(r_image=4.0, r_tail_lo=5.0, r_tail_hi=200.0, grid_step=0.05)
    larger = build_compactification((Tanh(), Cos(), Cos(2.0, 0.0)), SMALL)
    smaller = build_compactification((Tanh(), Cos(2.0, 0.0)), other)
    w = _witness_from_mapping(larger, smaller, (ChebOfCoordinate(1, 0), ChebOfCoordinate(2, 1)))
    assert isinstance(w, ComparisonWitness)
    assert w.residual == _reembedded_residual(larger, smaller, w.mapping)


def _per_cluster_onto_defect(centers, mapped):
    """Oracle for ``_onto_defect``: one distance scan per center."""
    return max(float(distances_to_cloud(c, mapped).min()) for c in centers)


@pytest.mark.parametrize("block", [ordering._ONTO_BLOCK, 64, 7, 1])
def test_onto_defect_matches_the_per_cluster_loop(block, monkeypatch):
    monkeypatch.setattr(ordering, "_ONTO_BLOCK", block)
    levels = [build_compactification(chain_family(k), SMALL) for k in (1, 2, 3)]
    checked = 0
    for larger in levels:
        for smaller in levels:
            mapping = [_match_coordinate(f, larger.family) for f in smaller.family]
            if None in mapping:
                continue
            mapped = _apply_mapping_array(tuple(mapping), larger.remainder_centers)
            got = ordering._onto_defect(smaller.remainder_centers, mapped)
            assert got == _per_cluster_onto_defect(smaller.remainder_centers, mapped)
            checked += 1
    assert checked == 7
