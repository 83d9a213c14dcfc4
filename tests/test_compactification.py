from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compactify.acceptance import chain_family
from compactify.compactification import (
    MAX_EMBEDDED_VALUES,
    MAX_SAMPLES,
    BuildParams,
    EmbeddingMap,
    Membership,
    _UPDATE_BOXES,
    _label_dtype,
    _members,
    build_compactification,
    closure_membership,
    greedy_cluster,
    load_model,
    save_model,
    write_remainder_csv,
)
from compactify.functions import Cos, FunctionFamily, Tanh
from compactify.product_space import BOX_ROWS, ProductPoint, capped_distance, distances_to_cloud

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
    assert p.resolution == 2.0 * p.cluster_radius
    assert BuildParams.from_json(p.to_json()) == p


# On this window the image grid empties past grid_step 2, the tail grids
# once round(0.4 / grid_step) is 0, at 0.8 and past.
NARROW = dict(r_image=1.0, r_tail_lo=1.0, r_tail_hi=5.0)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(grid_step=150.0), "image grid is empty"),  # the tails still have 2 steps
        (dict(grid_step=math.nextafter(100.0, math.inf)), "image grid is empty"),
        (dict(grid_step=0.8, **NARROW), "tail grid is empty"),
        (dict(grid_step=1.0, **NARROW), "tail grid is empty"),
        (dict(grid_step=3.0, **NARROW), "image grid is empty"),  # both empty
    ],
)
def test_build_params_reject_empty_grids(kwargs, message):
    with pytest.raises(ValueError, match=message):
        BuildParams(**kwargs)


@pytest.mark.parametrize(
    "kwargs, counts",
    [(dict(grid_step=100.0), (2, 6)), (dict(grid_step=0.79, **NARROW), (4, 4))],
)
def test_build_params_keep_grids_of_one_step(kwargs, counts):
    p = BuildParams(**kwargs)
    assert p.sample_counts() == counts
    assert (p.image_grid().size, p.tail_grid().size) == counts


PARAM_FIELDS = ("r_image", "r_tail_lo", "r_tail_hi", "grid_step", "cluster_radius")


@pytest.mark.parametrize("field", PARAM_FIELDS)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_build_params_reject_non_finite_fields(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        BuildParams(**{field: value})


def test_embed_scalar_matches_array_route(small_gamma):
    xs = np.linspace(-3.0, 3.0, 101)
    cols = small_gamma.embedding.embed_array(xs)
    for i in (0, 17, 50, 100):
        pt = small_gamma.embed(float(xs[i]))
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
    # the former dense kernel, kept as an oracle: every block of BOX_ROWS
    # rows against every seed, cut at the first founder; its labels do not
    # depend on the block size
    points = np.asarray(points, dtype=np.float64)
    n, dim = points.shape
    labels = np.empty(n, dtype=np.int64)
    seed_mat = np.empty((0, dim))
    i = 0
    while i < n:
        if not seed_mat.shape[0]:
            seed_mat = points[i : i + 1]
            labels[i] = 0
            i += 1
            continue
        chunk = points[i : i + BOX_ROWS]
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
    tail = EmbeddingMap(chain_family(depth)).embed_array(SMALL.tail_grid())
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


@pytest.mark.parametrize(
    "n",
    [1, 2, BOX_ROWS - 1, BOX_ROWS, BOX_ROWS + 1, 3 * BOX_ROWS + 5, 40 * BOX_ROWS + 17],
)
def test_greedy_cluster_matches_dense_search_at_every_size(n):
    # every row count around the box size, so a seed's first and last
    # boxes are cut at every offset
    rng = np.random.default_rng(n)
    walk = np.cumsum(rng.normal(0.0, 0.02, (n, 3)), axis=0)
    assert np.array_equal(greedy_cluster(walk, 0.05), _dense_greedy_cluster(walk, 0.05))
    repeated = np.repeat(walk, 2, axis=0)[:n]
    assert np.array_equal(greedy_cluster(repeated, 0.05), _dense_greedy_cluster(repeated, 0.05))


@pytest.mark.parametrize("n", [1, BOX_ROWS - 3, 4 * BOX_ROWS + 1])
def test_greedy_cluster_puts_equal_points_in_one_cluster(n):
    same = np.tile([0.25, -0.5, 1.0], (n, 1))
    got = greedy_cluster(same, 0.05)
    assert np.array_equal(got, np.zeros(n, dtype=np.int64))
    assert np.array_equal(got, _dense_greedy_cluster(same, 0.05))


def _former_members(labels, k):
    # the grouping as first written, kept as an oracle: an int64 stable
    # argsort cut by the label counts
    labels = labels.astype(np.int64)
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.cumsum(np.bincount(labels, minlength=k))[:-1])


@pytest.mark.parametrize("k", [1, 2, 255, 256, 257, 65_536, 65_537])
def test_members_equal_the_int64_grouping(k):
    rng = np.random.default_rng(k)
    # labels 0 and k - 1 absent, as an empty cluster leaves them in a
    # damaged file, then every label present
    sparse = rng.integers(1, max(k - 1, 2), 3 * k + 100) % k
    dense = np.concatenate([np.arange(k), rng.integers(0, k, 2 * k)])
    rng.shuffle(dense)
    for labels in (sparse, dense):
        want = _former_members(labels, k)
        for dtype in {np.int64, np.dtype(_label_dtype(k)), np.dtype("<u4")}:
            got = _members(labels.astype(dtype), k)
            assert [g.size for g in got] == [w.size for w in want]
            assert np.array_equal(np.concatenate(got), np.concatenate(want))
            assert {g.dtype for g in got} == {np.dtype(np.intp)}


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
    tail_params = SMALL.tail_grid()
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


@pytest.mark.parametrize("n", [1, 31, 32, 33, 1025])
def test_greedy_cluster_matches_dense_search_at_box_edges(n):
    # lengths around BOX_ROWS = 32, so the last box is full or partial
    cloud = np.random.default_rng(n).uniform(-1.0, 1.0, (n, 2))
    assert np.array_equal(greedy_cluster(cloud, 0.3), _dense_greedy_cluster(cloud, 0.3))


def test_greedy_cluster_founds_a_seed_inside_the_last_partial_box():
    # 1000 rows: 31 full boxes and one of 8 rows, 992..999
    rng = np.random.default_rng(2)
    cloud = rng.normal(0.0, 0.001, (1000, 2))
    cloud[[995, 997, 999]] += 0.9
    got = greedy_cluster(cloud, 0.05)
    assert list(np.unique(got, return_index=True)[1]) == [0, 995]
    assert got[997] == got[999] == 1
    assert np.array_equal(got, _dense_greedy_cluster(cloud, 0.05))


def test_greedy_cluster_matches_dense_search_on_a_founder_dense_cloud():
    # nearly every box holds a founder and prunes little
    cloud = np.random.default_rng(0).uniform(-1.0, 1.0, (6000, 4))
    got = greedy_cluster(cloud, 0.25)
    assert got.max() + 1 == 389
    assert np.array_equal(got, _dense_greedy_cluster(cloud, 0.25))


def test_greedy_cluster_matches_dense_search_when_seeds_reach_many_boxes():
    # boxes of 32 uniform points span most of the square, so few are
    # pruned and each seed updates more than _UPDATE_BOXES boxes, in parts
    cloud = np.random.default_rng(12).uniform(0.0, 0.2, (40_000, 2))
    got = greedy_cluster(cloud, 0.12)
    assert -(-cloud.shape[0] // BOX_ROWS) > _UPDATE_BOXES and got.max() > 2
    assert np.array_equal(got, _dense_greedy_cluster(cloud, 0.12))


def test_greedy_cluster_keeps_exact_ties_on_a_dyadic_grid():
    # row 41 on is exactly 0.25 from seed 0 (row 0) and seed 1 (row 1),
    # in later boxes than both: the tie goes to seed 0
    cloud = np.zeros((100, 2))
    cloud[1:41, 0] = 0.5
    cloud[41:, 0] = 0.25
    assert list(greedy_cluster(cloud, 0.25)) == [0] + [1] * 40 + [0] * 59
    # a box of copies of one row exactly at the radius has the radius as
    # its bound, and is kept, in a full box and in a partial one
    for n in (64, 33):
        edge = np.zeros((n, 2))
        edge[32:, 0] = 0.125
        assert not greedy_cluster(edge, 0.125).any()
    rng = np.random.default_rng(9)
    grid = rng.integers(0, 8, (2000, 3)) * 0.125
    assert np.array_equal(greedy_cluster(grid, 0.25), _dense_greedy_cluster(grid, 0.25))


_DYADIC = st.integers(-8, 8).map(lambda v: v * 0.125)


@settings(max_examples=80, deadline=2000, derandomize=True, database=None)
@given(data=st.data())
def test_greedy_cluster_matches_dense_search_on_small_clouds(data):
    # a few distinct rows, repeated in random order: duplicates and exact
    # ties on dyadic values, mixed with arbitrary floats
    dim = data.draw(st.integers(1, 3))
    value = st.one_of(_DYADIC, st.floats(-2.0, 2.0))
    base = data.draw(st.lists(st.tuples(*[value] * dim), min_size=1, max_size=40))
    picks = data.draw(st.lists(st.integers(0, len(base) - 1), min_size=1, max_size=120))
    cloud = np.array(base, dtype=np.float64)[picks]
    radius = data.draw(st.sampled_from([0.0625, 0.125, 0.25, 0.5, 1.0]))
    assert np.array_equal(greedy_cluster(cloud, radius), _dense_greedy_cluster(cloud, radius))


def test_build_rejects_step_wider_than_window():
    with pytest.raises(ValueError, match="image grid is empty"):
        build_compactification((Tanh(),), BuildParams(grid_step=3.0, **NARROW))


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


def test_remainder_centers_are_stacked_once_and_read_only(small_gamma):
    centers = small_gamma.remainder_centers
    assert centers is small_gamma.remainder_centers
    assert np.array_equal(centers, np.vstack([c.center for c in small_gamma.remainder]))
    with pytest.raises(ValueError, match="read-only"):
        centers[0, 0] = 0.0


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


@pytest.mark.parametrize("eps", [float("nan"), float("inf"), 0.0, -0.05])
def test_membership_rejects_an_eps_that_is_not_positive_and_finite(small_gamma, eps):
    # A NaN eps used to report an exact image point as "outside" at distance 0.
    with pytest.raises(ValueError, match="eps must be positive and finite"):
        closure_membership(small_gamma, small_gamma.embed(1.0), eps)


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
    p = BuildParams()
    assert p.image_grid().size + p.tail_grid().size == 490_003  # the default window
    # On this window a build samples 2.2 / grid_step + 3 parameters.
    window = dict(r_image=1.0, r_tail_lo=1.0, r_tail_hi=2.0)
    BuildParams(grid_step=2.2 / (MAX_SAMPLES - 1000), **window)
    for step in (2.2 / (MAX_SAMPLES + 1000), 1e-9, 5e-324):  # 5e-324: the quotient is inf
        with pytest.raises(ValueError, match=f"more than {MAX_SAMPLES} samples"):
            BuildParams(grid_step=step, **window)


def _refuse_to_embed(self, xs):
    raise ValueError("embedding reached")


@pytest.mark.parametrize("coordinates,allowed", [(68, True), (69, False), (1000, False)])
def test_build_bounds_the_embedded_values_before_embedding(coordinates, allowed, monkeypatch):
    # The default window samples 490 003 parameters per coordinate.
    assert (sum(BuildParams().sample_counts()) * coordinates <= MAX_EMBEDDED_VALUES) == allowed
    monkeypatch.setattr(EmbeddingMap, "embed_array", _refuse_to_embed)
    message = "embedding reached" if allowed else f"embeds {490_003 * coordinates} values, more than"
    with pytest.raises(ValueError, match=message):
        build_compactification([Tanh()] * coordinates)


def _dense_closure_membership(model, p, eps):
    # Membership before the image cloud was boxed: every image point scanned.
    arr = p.as_array()
    nearest_center = np.inf
    centers = model.remainder_centers
    if centers.shape[0]:
        cd = distances_to_cloud(arr, centers)
        best_c = int(np.argmin(cd))
        nearest_center = float(cd[best_c])
        if nearest_center < eps:
            return Membership("remainder", nearest_center, cluster_id=best_c)
    dists = distances_to_cloud(arr, model.image_points)
    best = int(np.argmin(dists))
    if dists[best] < eps:
        return Membership("image", float(dists[best]), parameter=float(model.image_params[best]))
    return Membership("outside", float(min(dists[best], nearest_center)))


# The image window reaches into the tanh saturation band (|x| > 19).
WIDE = BuildParams(r_image=25.0, r_tail_lo=25.0, r_tail_hi=200.0, grid_step=0.05)


@pytest.mark.parametrize("depth", [1, 3, 5])
def test_membership_matches_the_dense_scan_on_built_and_loaded_levels(tmp_path, depth):
    built = build_compactification(chain_family(depth), WIDE)
    save_model(built, tmp_path / "m.cptf")
    loaded = load_model(tmp_path / "m.cptf")
    rng = np.random.default_rng(depth)
    probes = [built.embed(float(x)) for x in rng.uniform(-30.0, 30.0, 30)]
    probes += [c.center_point(built.space) for c in built.remainder]
    probes += [ProductPoint(tuple(rng.uniform(-1.0, 1.0, depth)), built.space) for _ in range(30)]
    kinds = set()
    for model in (built, loaded):
        for p in probes:
            for eps in (1e-6, 0.02, 0.3):
                got = closure_membership(model, p, eps)
                assert got == _dense_closure_membership(model, p, eps)
                kinds.add(got.kind)
    assert kinds == {"image", "remainder", "outside"}
