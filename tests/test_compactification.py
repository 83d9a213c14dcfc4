from __future__ import annotations

import math

import numpy as np
import pytest

from compactify.acceptance import chain_family
from compactify.compactification import (
    MAX_SAMPLES,
    BuildParams,
    EmbeddingMap,
    _image_grid,
    _tail_grids,
    build_compactification,
    closure_membership,
    greedy_cluster,
    load_model,
    remainder_separation,
    save_model,
    write_remainder_csv,
)
from compactify.functions import Cos, FunctionFamily, StereoX, StereoY, Tanh
from compactify.product_space import ProductPoint, capped_distance

from conftest import SMALL


def test_build_params_validation():
    with pytest.raises(ValueError):
        BuildParams(r_image=10.0, r_tail_lo=5.0)  # tails must start at the window edge
    with pytest.raises(ValueError):
        BuildParams(r_tail_lo=2000.0, r_tail_hi=50.0)
    with pytest.raises(ValueError):
        BuildParams(grid_step=0.0)
    with pytest.raises(ValueError):
        BuildParams(cluster_radius=-1.0)
    p = BuildParams()
    assert p.tail_step == 10.0 * p.grid_step
    assert BuildParams.from_json(p.to_json()) == p


PARAM_FIELDS = ("r_image", "r_tail_lo", "r_tail_hi", "grid_step", "cluster_radius")


@pytest.mark.parametrize("field", PARAM_FIELDS)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_build_params_reject_non_finite_fields(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        BuildParams(**{field: value})


def test_embed_scalar_matches_array_route():
    emb = EmbeddingMap(FunctionFamily((Tanh(), Cos())))
    xs = np.linspace(-3.0, 3.0, 101)
    cols = emb.embed_array(xs)
    for i in (0, 17, 50, 100):
        pt = emb.embed(float(xs[i]))
        assert pt.coords == tuple(cols[i])


def _reference_cluster(points, radius):
    # deliberately naive sequential version of the clustering contract:
    # join the nearest earlier seed within radius, else found a new one
    seeds, labels = [], []
    for p in points:
        best, best_d = -1, math.inf
        for j, s in enumerate(seeds):
            d = 0.0
            for k in range(len(p)):
                d += min(1.0, abs(p[k] - s[k])) * 0.5**k
            if d < best_d:
                best, best_d = j, d
        if best >= 0 and best_d <= radius:
            labels.append(best)
        else:
            seeds.append(p)
            labels.append(len(seeds) - 1)
    return labels


def test_greedy_cluster_matches_sequential_reference():
    rng = np.random.default_rng(3)
    cloud = rng.uniform(-1.0, 1.0, (500, 3))
    expected = _reference_cluster([tuple(r) for r in cloud], 0.3)
    got = greedy_cluster(cloud, 0.3)
    assert list(got) == expected


def _dense_greedy_cluster(points, radius):
    # the former dense kernel, kept as an oracle: every block against every
    # seed, cut at the first founder
    points = np.asarray(points, dtype=np.float64)
    n, dim = points.shape
    labels = np.empty(n, dtype=np.int64)
    seed_mat = np.empty((0, dim))
    block = 4096
    i = 0
    while i < n:
        if not seed_mat.shape[0]:
            seed_mat = points[i : i + 1]
            labels[i] = 0
            i += 1
            continue
        chunk = points[i : i + block]
        dists = capped_distance(chunk[:, None, :], seed_mat[None, :, :])
        nearest = np.argmin(dists, axis=1)
        within = dists[np.arange(chunk.shape[0]), nearest] <= radius
        if within.all():
            labels[i : i + chunk.shape[0]] = nearest
            i += chunk.shape[0]
            continue
        cut = int(np.argmin(within))
        labels[i : i + cut] = nearest[:cut]
        labels[i + cut] = seed_mat.shape[0]
        seed_mat = np.vstack([seed_mat, points[i + cut : i + cut + 1]])
        i += cut + 1
    return labels


@pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
def test_greedy_cluster_matches_dense_search_on_chain_tails(depth):
    tail = EmbeddingMap(chain_family(depth)).embed_array(np.concatenate(_tail_grids(SMALL)))
    got = greedy_cluster(tail, SMALL.cluster_radius)
    assert np.array_equal(got, _dense_greedy_cluster(tail, SMALL.cluster_radius))


def test_greedy_cluster_matches_dense_search_with_mid_block_founders():
    # a slow random walk keeps founding seeds throughout, far past the
    # first block and at arbitrary offsets inside later ones
    rng = np.random.default_rng(11)
    walk = np.cumsum(rng.normal(0.0, 0.01, (5000, 3)), axis=0)
    got = greedy_cluster(walk, 0.05)
    founders = np.unique(got, return_index=True)[1]
    assert founders.size > 200
    assert np.any(founders > 4096)
    assert np.array_equal(got, _dense_greedy_cluster(walk, 0.05))


def test_greedy_cluster_matches_dense_search_on_random_cloud():
    rng = np.random.default_rng(5)
    cloud = rng.uniform(-1.0, 1.0, (3000, 2))
    got = greedy_cluster(cloud, 0.1)
    assert np.array_equal(got, _dense_greedy_cluster(cloud, 0.1))


def test_greedy_cluster_breaks_ties_to_the_earliest_seed():
    # dyadic grid values make distances exact, so many points sit at the
    # same distance from several seeds, and many points repeat
    rng = np.random.default_rng(4)
    cloud = rng.integers(0, 8, (3000, 2)) * 0.125
    got = greedy_cluster(cloud, 0.125)
    assert np.array_equal(got, _dense_greedy_cluster(cloud, 0.125))
    assert list(got[:300]) == _reference_cluster([tuple(r) for r in cloud[:300]], 0.125)
    tie = np.array([[0.0, 0.0], [0.25, 0.0], [0.125, 0.0], [0.25, 0.0], [0.0, 0.0]])
    assert list(greedy_cluster(tie, 0.125)) == [0, 1, 0, 1, 0]


def test_greedy_cluster_handles_empty_and_single_point_input():
    empty = greedy_cluster(np.empty((0, 3)), 0.05)
    assert empty.shape == (0,) and empty.dtype == np.int64
    assert list(greedy_cluster(np.array([[0.5, -0.5]]), 0.05)) == [0]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_greedy_cluster_rejects_non_finite_points(bad):
    cloud = np.array([[0.0, 0.0], [bad, 0.0], [0.0, 0.01]])
    with pytest.raises(ValueError, match="finite"):
        greedy_cluster(cloud, 0.05)


def test_cluster_assembly_matches_the_per_label_mask_loop():
    model = build_compactification(chain_family(3), SMALL)
    tail_params = np.concatenate(_tail_grids(SMALL))
    tail_points = model.embedding.embed_array(tail_params)
    labels = greedy_cluster(tail_points, SMALL.cluster_radius)
    assert len(model.remainder) == labels.max() + 1
    for cid, cluster in enumerate(model.remainder):
        members = labels == cid
        assert cluster.cluster_id == cid
        assert np.array_equal(cluster.center, tail_points[members].mean(axis=0))
        assert np.array_equal(cluster.witnesses, tail_params[members])


def test_greedy_cluster_first_point_founds_cluster_zero():
    cloud = np.array([[0.0], [0.9], [0.01], [0.89]])
    labels = greedy_cluster(cloud, 0.05)
    assert list(labels) == [0, 1, 0, 1]


def test_greedy_cluster_is_deterministic():
    rng = np.random.default_rng(8)
    cloud = rng.uniform(-1.0, 1.0, (3000, 2))
    assert np.array_equal(greedy_cluster(cloud, 0.1), greedy_cluster(cloud, 0.1))


def test_build_rejects_step_wider_than_window():
    params = BuildParams(r_image=1.0, r_tail_lo=1.0, r_tail_hi=5.0, grid_step=3.0)
    with pytest.raises(ValueError, match="image grid is empty"):
        build_compactification((Tanh(),), params)


def test_build_is_deterministic_and_recomputable(small_gamma):
    again = build_compactification((Tanh(), Cos()), SMALL)
    assert np.array_equal(again.image_params, small_gamma.image_params)
    assert np.array_equal(again.image_points, small_gamma.image_points)
    assert len(again.remainder) == len(small_gamma.remainder)
    for a, b in zip(again.remainder, small_gamma.remainder):
        assert a.side == b.side
        assert np.array_equal(a.center, b.center)
        assert np.array_equal(a.witnesses, b.witnesses)
    # stored image points are exactly the embedding of the stored grid
    recomputed = small_gamma.embedding.embed_array(small_gamma.image_params)
    assert np.array_equal(recomputed, small_gamma.image_points)


def test_build_accepts_plain_descriptor_tuples(small_two_point):
    assert isinstance(small_two_point.family, FunctionFamily)
    assert small_two_point.dim == 1


def test_witnesses_stay_near_their_center(small_gamma):
    # refined centers are coordinate means, so every witness embedding sits
    # within twice the joining radius of its final center
    from compactify.product_space import distances_to_cloud

    for cluster in small_gamma.remainder:
        pts = small_gamma.embedding.embed_array(cluster.witnesses)
        d = distances_to_cloud(cluster.center, pts)
        assert np.max(d) <= 2.0 * SMALL.cluster_radius + 1e-12


def test_witness_totals_cover_both_tails(small_gamma):
    total = sum(c.witness_count for c in small_gamma.remainder)
    per_side = round((SMALL.r_tail_hi - SMALL.r_tail_lo) / SMALL.tail_step) + 1
    assert total == 2 * per_side


def test_two_point_remainder_saturates_to_exact_endpoints(two_point_model):
    """At the default window every tail sample has tanh == +-1.0 in float64."""
    assert len(two_point_model.remainder) == 2
    first, second = two_point_model.remainder
    assert first.side == "-inf"
    assert second.side == "+inf"
    assert first.center[0] == -1.0
    assert second.center[0] == 1.0


def test_one_point_remainder_is_a_single_patch(one_point_model):
    assert len(one_point_model.remainder) == 1
    only = one_point_model.remainder[0]
    assert only.side == "both"
    assert abs(only.center[0] - 0.0) < 0.01
    assert abs(only.center[1] - 1.0) < 0.01


def test_gamma_remainder_populates_both_tail_sides(gamma_model):
    sides = [c.side for c in gamma_model.remainder]
    assert sides.count("-inf") == sides.count("+inf")
    assert len(gamma_model.remainder) == 38


def test_membership_prefers_remainder_over_saturated_image(gamma_model):
    p = ProductPoint((1.0, 0.5), gamma_model.space)
    m = closure_membership(gamma_model, p, eps=0.05)
    assert m.kind == "remainder"
    assert m.cluster_id is not None
    assert m.distance < 0.05


def test_membership_finds_image_points_with_parameter(gamma_model):
    m = closure_membership(gamma_model, gamma_model.embed(0.0), eps=0.05)
    assert m.kind == "image"
    assert m.parameter == 0.0
    assert m.distance == 0.0


def test_membership_reports_outside_beyond_eps(gamma_model):
    m = closure_membership(gamma_model, ProductPoint((0.0, 0.0), gamma_model.space), eps=0.01)
    assert m.kind == "outside"
    assert m.cluster_id is None
    assert m.parameter is None
    assert m.distance == pytest.approx(0.5, abs=1e-6)


def test_remainder_separation_is_healthy_on_narrow_windows():
    params = BuildParams(r_image=5.0, grid_step=1e-3)
    model = build_compactification((StereoX(), StereoY()), params)
    assert len(model.remainder) == 1
    assert remainder_separation(model) > 0.1


def test_remainder_separation_collapses_under_saturation(two_point_model):
    # documented caveat: at the default window tanh tail samples coincide
    # with image samples bit for bit, so the diagnostic reads zero
    assert remainder_separation(two_point_model) == 0.0


def test_model_file_roundtrip_is_bitwise(tmp_path, small_gamma):
    path = tmp_path / "model.cptf"
    save_model(small_gamma, path)
    back = load_model(path)
    assert back.family == small_gamma.family
    assert back.params == small_gamma.params
    assert np.array_equal(back.image_params, small_gamma.image_params)
    assert np.array_equal(back.image_points, small_gamma.image_points)
    assert len(back.remainder) == len(small_gamma.remainder)
    for a, b in zip(back.remainder, small_gamma.remainder):
        assert a.cluster_id == b.cluster_id
        assert a.side == b.side
        assert np.array_equal(a.center, b.center)
        assert np.array_equal(a.witnesses, b.witnesses)


def test_load_model_rejects_foreign_files(tmp_path):
    path = tmp_path / "junk.cptf"
    path.write_bytes(b"PNG\x00 definitely not a model")
    with pytest.raises(ValueError, match="bad magic"):
        load_model(path)


def test_remainder_csv_lists_every_cluster(tmp_path, small_gamma):
    path = tmp_path / "remainder.csv"
    write_remainder_csv(small_gamma, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "cluster_id,side,c0,c1,witness_count"
    assert len(lines) == 1 + len(small_gamma.remainder)
    first = lines[1].split(",")
    assert int(first[0]) == small_gamma.remainder[0].cluster_id
    assert float(first[2]) == small_gamma.remainder[0].center[0]


def test_separated_parameters_stay_apart_after_embedding(small_two_point, small_gamma):
    # eta(0.1) must be positive on the narrow window, where float64 tanh is
    # still faithfully monotone; past |x| ~ 19 the lead saturates to 1.0
    # exactly and no gap survives, which caps the window this check can use
    for model in (small_two_point, small_gamma):
        xs = model.image_params
        lead = model.image_points[:, 0]
        gap = np.abs(xs[:, None] - xs[None, :])
        d0 = np.minimum(np.abs(lead[:, None] - lead[None, :]), 1.0)
        eta = np.min(d0[gap >= 0.1])
        assert eta > 0.0
    assert Tanh().evaluate(49.9) == Tanh().evaluate(50.0) == 1.0


def test_tanh_led_centers_hug_the_lead_endpoints(two_point_model, gamma_model):
    for model in (two_point_model, gamma_model):
        iv = model.family.descriptors[0].range_interval()
        for cluster in model.remainder:
            c0 = cluster.center[0]
            assert min(abs(c0 - iv.lo), abs(c0 - iv.hi)) <= 0.02


def test_build_params_bound_the_sample_count():
    image, minus, plus = _image_grid(BuildParams()), *_tail_grids(BuildParams())
    assert image.size + minus.size + plus.size == 490_003  # the default window
    # On this window a build samples 2.2 / grid_step + 3 parameters.
    window = dict(r_image=1.0, r_tail_lo=1.0, r_tail_hi=2.0)
    BuildParams(grid_step=2.2 / (MAX_SAMPLES - 1000), **window)
    for step in (2.2 / (MAX_SAMPLES + 1000), 1e-9, 5e-324):  # 5e-324: the quotient is inf
        with pytest.raises(ValueError, match=f"more than {MAX_SAMPLES} samples"):
            BuildParams(grid_step=step, **window)
