from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from compactify.acceptance import chain_family
from compactify.compactification import (
    BuildParams,
    build_compactification,
    load_model,
    save_model,
)
from compactify.functions import Cos, Interval, StereoX, StereoY, Tanh
from compactify.inverse_limit import (
    InverseSystem,
    LiftError,
    Thread,
    chain_limit,
    lift_point,
    thread_residuals,
)
from compactify.ordering import (
    ChebOfCoordinate,
    ComparisonWitness,
    Incomparable,
    apply_witness,
    compare,
)
from compactify.product_space import ProductPoint, capped_distance, distances_to_cloud

from conftest import SMALL


def _bond_image(system, n, p):
    """A level-(n+1) point pushed down through bond n, as a level-n point."""
    row = apply_witness(system.bonds[n], p.as_array()[None])[0]
    return ProductPoint(row, system.levels[n].space)


def _parameter_thread(system, x):
    """The thread of embeddings of one real parameter at every level."""
    return Thread(tuple(level.embed(x) for level in system.levels))


@pytest.fixture(scope="module")
def two_level():
    levels = [
        build_compactification((Tanh(),), SMALL),
        build_compactification((Tanh(), Cos()), SMALL),
    ]
    return InverseSystem.from_levels(levels)


def test_from_levels_builds_copy_bonds(two_level):
    assert two_level.depth == 2
    assert len(two_level.bonds) == 1
    assert two_level.bonds[0].mapping == (ChebOfCoordinate(1, 0),)
    assert two_level.bonds[0].residual == 0.0


def test_from_levels_rejects_incomparable_neighbours():
    levels = [
        build_compactification((Tanh(),), SMALL),
        build_compactification((StereoX(), StereoY()), SMALL),
    ]
    with pytest.raises(ValueError):
        InverseSystem.from_levels(levels)


def test_from_levels_rejects_empty_input():
    with pytest.raises(ValueError):
        InverseSystem.from_levels([])


def test_singleton_system_limit_is_its_only_level(small_two_point):
    system = InverseSystem.from_levels([small_two_point])
    assert system.depth == 1
    assert system.bonds == ()
    limit = chain_limit(system)
    assert limit.family == small_two_point.family
    assert len(limit.remainder) == len(small_two_point.remainder)
    witness = compare(limit, small_two_point)
    assert not isinstance(witness, Incomparable)
    assert witness.mapping == tuple(
        ChebOfCoordinate(degree=1, source=i) for i in range(len(small_two_point.family))
    )


def test_bond_projects_the_embedding(two_level):
    upper = two_level.levels[1]
    for x in (-3.0, 0.0, 1.7):
        down = _bond_image(two_level, 0, upper.embed(x))
        assert down.coords == (upper.embed(x).coords[0],)


def test_parameter_threads_have_zero_residual(two_level):
    th = _parameter_thread(two_level, 1.25)
    assert len(th) == 2
    res = thread_residuals(two_level, th)
    assert res == [0.0]


def test_thread_length_is_validated(two_level):
    short = Thread((two_level.levels[0].embed(0.0),))
    with pytest.raises(ValueError):
        thread_residuals(two_level, short)
    with pytest.raises(ValueError):
        Thread(())


def test_thread_entries_outside_their_level_are_rejected(two_level):
    good = _parameter_thread(two_level, 0.5)
    other_interval = ProductPoint((0.5,), (Interval(0.0, 1.0),))
    for entries in (
        (other_interval, good[1]),
        (good[1], good[1]),
        (good[0], good[0]),
    ):
        with pytest.raises(ValueError, match="does not live at"):
            thread_residuals(two_level, Thread(entries))


def test_lift_recovers_the_parameter_thread(two_level):
    # from the shared grid the upward search must find the exact candidate
    lower = two_level.levels[0]
    idx = 17
    p0 = ProductPoint(tuple(lower.image_points[idx]), lower.space)
    th = lift_point(two_level, 0, p0)
    x = float(lower.image_params[idx])
    expected = _parameter_thread(two_level, x)
    assert th[0].coords == p0.coords
    assert max(thread_residuals(two_level, th)) <= 1e-9
    assert np.max(np.abs(np.asarray(th[1].coords) - np.asarray(expected[1].coords))) <= 1e-9


def test_lift_downward_entries_are_exact_bond_images(two_level):
    upper = two_level.levels[1]
    p1 = upper.embed(2.5)
    th = lift_point(two_level, 1, p1)
    assert th[1].coords == p1.coords
    assert th[0].coords == _bond_image(two_level, 0, p1).coords


@pytest.fixture(scope="module")
def sparse_upper():
    """A fine tanh level under a (tanh, cos) level sampled at unit steps:
    near x = 0.5, tanh moves 0.3 between neighbouring upper samples, three
    times the upper level's resolution."""
    fine = BuildParams(r_image=5.0, r_tail_lo=5.0, r_tail_hi=200.0, grid_step=1e-3)
    sparse = BuildParams(r_image=5.0, r_tail_lo=5.0, r_tail_hi=200.0, grid_step=1.0)
    return InverseSystem.from_levels(
        [
            build_compactification((Tanh(),), fine),
            build_compactification((Tanh(), Cos()), sparse),
        ]
    )


def test_lift_fails_loudly_on_sparse_upper_levels(sparse_upper):
    lower = sparse_upper.levels[0]
    idx = int(np.argmin(np.abs(lower.image_params - 0.5)))
    p0 = ProductPoint(tuple(lower.image_points[idx]), lower.space)
    with pytest.raises(LiftError, match="level 1"):
        lift_point(sparse_upper, 0, p0)


def test_lift_rejects_points_far_from_the_model(two_level):
    off = ProductPoint((0.0, 0.0), two_level.levels[1].space)
    with pytest.raises(ValueError, match="away from the level-1 model"):
        lift_point(two_level, 1, off)


def test_chain_limit_unions_the_families(two_level):
    lim = chain_limit(two_level)
    assert tuple(lim.family) == tuple(two_level.levels[1].family)
    assert lim.params == two_level.levels[1].params
    # the deepest level is the limit itself: nothing is rebuilt
    assert lim is two_level.levels[1]


def test_chain_limit_is_the_deepest_level():
    # not a subset chain: the lower level carries a harmonic the deeper
    # family does not mention verbatim, and the bond derives it
    levels = [
        build_compactification((Tanh(), Cos(2.0, 0.0)), SMALL),
        build_compactification((Tanh(), Cos()), SMALL),
    ]
    system = InverseSystem.from_levels(levels)
    lim = chain_limit(system)
    assert lim is levels[-1]
    w = compare(lim, levels[0])
    assert isinstance(w, ComparisonWitness)
    assert w.mapping == (ChebOfCoordinate(1, 0), ChebOfCoordinate(2, 1))


def test_chain_limit_dominates_every_level(two_level):
    lim = chain_limit(two_level)
    for level in two_level.levels:
        w = compare(lim, level)
        assert isinstance(w, ComparisonWitness)
        assert w.residual <= 1e-9


def test_closedness_separates_threads_from_impostors(two_level):
    good = _parameter_thread(two_level, 7.25)
    bent = (
        ProductPoint((-good[0].coords[0],), two_level.levels[0].space),
        good[1],
    )
    assert thread_residuals(two_level, good)[0] <= 1e-9
    assert thread_residuals(two_level, Thread(bent))[0] > 1e-3


def test_bond_composition_is_functorial():
    levels = [
        build_compactification((Tanh(),), SMALL),
        build_compactification((Tanh(), Cos()), SMALL),
        build_compactification((Tanh(), Cos(), Cos(2.0, 0.0)), SMALL),
    ]
    system = InverseSystem.from_levels(levels)
    top = system.levels[2]
    for x in top.image_params[::20]:
        once = _bond_image(system, 1, top.embed(float(x)))
        twice = _bond_image(system, 0, once)
        direct = system.levels[0].embed(float(x))
        err = max(abs(a - b) for a, b in zip(twice.coords, direct.coords))
        assert err <= 2e-9


def test_lift_from_positive_infinity_hits_a_remainder_cluster(two_level):
    base = two_level.levels[0]
    upper = two_level.levels[1]
    thread = lift_point(two_level, 0, ProductPoint((1.0,), base.space))
    entry = thread[1]
    assert any(np.allclose(entry.coords, c.center) for c in upper.remainder)
    assert abs(entry.coords[0] - 1.0) <= 2.0 * upper.params.cluster_radius


def _dense_candidates(model):
    centers = model.remainder_centers
    if centers.shape[0] == 0:
        return model.image_points
    return np.vstack([model.image_points, centers])


def _dense_lift_point(system, n, p):
    # The lift before box pruning and caching: every candidate of every
    # upper level is pushed through its bond and scanned.
    base_tol = 2.0 * system.levels[n].params.cluster_radius
    near = float(distances_to_cloud(p.as_array(), _dense_candidates(system.levels[n])).min())
    if near > base_tol:
        raise ValueError(
            f"point is {near:.3e} away from the level-{n} model, beyond {base_tol:.3e}"
        )
    entries = {n: p}
    for i in range(n, 0, -1):
        row = apply_witness(system.bonds[i - 1], entries[i].as_array()[None])[0]
        entries[i - 1] = ProductPoint(row, system.levels[i - 1].space)
    for i in range(n, system.depth - 1):
        model_up = system.levels[i + 1]
        level_tol = 2.0 * model_up.params.cluster_radius
        candidates = _dense_candidates(model_up)
        dists = distances_to_cloud(entries[i].as_array(), apply_witness(system.bonds[i], candidates))
        best = int(np.argmin(dists))
        if float(dists[best]) > level_tol:
            raise LiftError(
                f"no candidate at level {i + 1} lands within {level_tol:.3e} "
                f"of the level-{i} entry (closest: {float(dists[best]):.3e}); "
                "the sampling at that level is too sparse"
            )
        entries[i + 1] = ProductPoint(tuple(float(v) for v in candidates[best]), model_up.space)
    return Thread(tuple(entries[i] for i in range(system.depth)))


def _outcome(lift, system, n, p):
    try:
        return lift(system, n, p)
    except (LiftError, ValueError) as exc:
        return type(exc), str(exc)


# An image window reaching into the tanh saturation band (|x| > 19), with
# grids coarse enough to build four levels in well under a second.
WIDE = BuildParams(r_image=25.0, r_tail_lo=25.0, r_tail_hi=200.0, grid_step=0.05)


@pytest.fixture(scope="module")
def wide_chain(tmp_path_factory):
    built = [build_compactification(chain_family(k), WIDE) for k in range(1, 5)]
    tmp = tmp_path_factory.mktemp("chain")
    for k, model in enumerate(built):
        save_model(model, tmp / f"level_{k}.cptf")
    loaded = [load_model(tmp / f"level_{k}.cptf") for k in range(len(built))]
    return InverseSystem.from_levels(built), InverseSystem.from_levels(loaded)


def _probes(model):
    """Image points across the window, saturation band included, every
    remainder center and a point off the model."""
    rows = model.image_points[::37]
    points = [ProductPoint(tuple(float(v) for v in r), model.space) for r in rows]
    points += [c.center_point(model.space) for c in model.remainder]
    points.append(ProductPoint((0.0,) + (-1.0,) * (model.dim - 1), model.space))
    return points


@pytest.mark.parametrize("which", ["built", "loaded"])
def test_lift_matches_the_dense_lift_on_every_level(wide_chain, which):
    system = wide_chain[which == "loaded"]
    assert any(abs(x) > 19.0 and abs(t) == 1.0 for x, t in zip(
        system.levels[0].image_params, system.levels[0].image_points[:, 0]))
    lifts = 0
    for n, model in enumerate(system.levels):
        for p in _probes(model):
            got = _outcome(lift_point, system, n, p)
            assert got == _outcome(_dense_lift_point, system, n, p)
            lifts += isinstance(got, Thread)
    assert lifts > 100


def _residual_oracle(system, thread):
    # One 1-D distance per entry, from the entry's coordinate tuple.
    return [
        float(capped_distance(_bond_image(system, i, thread[i + 1]).as_array(), thread[i].as_array()))
        for i in range(system.depth - 1)
    ]


def test_lift_passes_the_point_through_and_pushes_rows_down_exactly(wide_chain):
    system = wide_chain[0]
    threads = [_parameter_thread(system, x) for x in (-30.0, -1.5, 0.0, 7.25)]
    for n, model in enumerate(system.levels):
        for p in _probes(model):
            thread = _outcome(lift_point, system, n, p)
            if not isinstance(thread, Thread):
                continue
            assert thread[n] is p
            for i in range(n, 0, -1):
                pushed = apply_witness(system.bonds[i - 1], thread[i].as_array()[None])[0]
                assert pushed.tobytes() == thread[i - 1].as_array().tobytes()
            threads.append(thread)
    assert len(threads) > 100
    for thread in threads:
        got = np.array(thread_residuals(system, thread))
        assert got.tobytes() == np.array(_residual_oracle(system, thread)).tobytes()


def test_lift_error_texts_are_unchanged_on_a_coarse_window(sparse_upper):
    system = sparse_upper
    lower, upper = system.levels
    kinds = set()
    for idx in range(1, lower.image_points.shape[0], 250):
        p0 = ProductPoint(tuple(lower.image_points[idx]), lower.space)
        got = _outcome(lift_point, system, 0, p0)
        assert got == _outcome(_dense_lift_point, system, 0, p0)
        kinds.add(got[0] if isinstance(got, tuple) else Thread)
    off = ProductPoint((0.0, 0.0), upper.space)
    got = _outcome(lift_point, system, 1, off)
    assert got == _outcome(_dense_lift_point, system, 1, off)
    kinds.add(got[0])
    assert kinds == {LiftError, ValueError, Thread}
    # a remainder center is a candidate itself: each lower center lifts
    # onto an upper center, which lies nearer to it than tanh 5, the
    # sparse image grid's last point
    centers = [tuple(c.center) for c in upper.remainder]
    for n, model in enumerate(system.levels):
        for c in model.remainder:
            p = c.center_point(model.space)
            thread = lift_point(system, n, p)
            assert thread == _outcome(_dense_lift_point, system, n, p)
            assert thread[1].coords in centers


def test_cache_entries_die_with_their_system_and_models():
    system = InverseSystem.from_levels(
        [build_compactification(chain_family(k), SMALL) for k in (1, 2, 3)]
    )
    base = system.levels[0]
    p = ProductPoint(tuple(base.image_points[100]), base.space)  # x = 0, far from the remainder
    lift_point(system, 0, p)
    # the lift filled both caches: every bond's candidates, the base's boxes
    assert {"pushed_candidates"} <= set(vars(system)) and {"image_boxes"} <= set(vars(base))
    pushed = system.pushed_candidates
    assert len(pushed) == len(system.bonds) == 2
    lift_point(system, 0, p)
    assert system.pushed_candidates is pushed
    assert base.image_boxes is base.image_boxes
    refs = [weakref.ref(system)] + [weakref.ref(m) for m in system.levels]
    del system, base, pushed
    gc.collect()
    assert [r() for r in refs] == [None] * 4
