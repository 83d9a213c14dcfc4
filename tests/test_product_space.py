from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from compactify import product_space
from compactify.functions import Interval
from compactify.product_space import (
    BOX_ROWS,
    BoxedCloud,
    ProductPoint,
    _truncation_depth,
    box_lower_bound,
    capped_distance,
    check_ball_cylinder_inclusions,
    distances_to_cloud,
    nearest_in_cloud,
    rowwise_distance,
    tail_bound,
    write_point_cloud_csv,
)

UNIT = Interval(-1.0, 1.0)


def cube(dim: int) -> tuple[Interval, ...]:
    return (UNIT,) * dim


def test_distance_worked_example():
    # coords differ by 1 in both slots: 1*1 + 1*(1/2) = 3/2
    assert capped_distance(np.array([0.0, 0.0]), np.array([1.0, 1.0])) == 1.5


def test_distance_is_a_metric_on_random_triples():
    """Symmetry and identity hold exactly; triangle up to accumulation error."""
    rng = np.random.default_rng(9)
    for _ in range(2000):
        dim = int(rng.integers(1, 8))
        x, y, z = rng.uniform(-1.0, 1.0, (3, dim))
        dxy = capped_distance(x, y)
        assert dxy == capped_distance(y, x)
        assert capped_distance(x, x) == 0.0
        assert dxy <= capped_distance(x, z) + capped_distance(z, y) + 1e-12
        assert dxy <= 2.0


def test_distance_zero_implies_equal_coords():
    rng = np.random.default_rng(10)
    for _ in range(200):
        x = rng.uniform(-1.0, 1.0, 4)
        assert capped_distance(x, x.copy()) == 0.0
        bumped = x.copy()
        bumped[1] = min(1.0, x[1] + 1e-9)
        if not np.array_equal(bumped, x):
            assert capped_distance(x, bumped) > 0.0


def test_product_point_validates_containment():
    with pytest.raises(ValueError):
        ProductPoint((1.5,), cube(1))
    with pytest.raises(ValueError):
        ProductPoint((0.0, 0.0), cube(1))


def test_vectorised_distances_agree_with_scalar():
    rng = np.random.default_rng(21)
    cloud = rng.uniform(-1.0, 1.0, (64, 5))
    p = rng.uniform(-1.0, 1.0, 5)
    a = rng.uniform(-1.0, 1.0, (64, 5))

    def scalar(u, v):
        d = float(capped_distance(u, v))
        # a plain Python sum that shares no code with the numpy kernel
        assert d == sum(min(1.0, abs(x - y)) * 0.5**n for n, (x, y) in enumerate(zip(u, v)))
        return d

    slow = np.array([scalar(p, row) for row in cloud])
    assert np.array_equal(distances_to_cloud(p, cloud), slow)

    slow_pair = np.array([scalar(u, v) for u, v in zip(a, cloud)])
    assert np.array_equal(rowwise_distance(a, cloud), slow_pair)

    block = capped_distance(a[:8, None, :], cloud[None, :, :])
    assert block.shape == (8, 64)
    for i in range(8):
        for j in range(64):
            assert block[i, j] == scalar(a[i], cloud[j])


def _former_capped_distance(a, b):
    # the kernel as first written, kept as an oracle: each term a fresh
    # array, capped with 1.0 first
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    acc = np.zeros(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]))
    w = 1.0
    for n in range(a.shape[-1]):
        acc += np.minimum(1.0, np.abs(a[..., n] - b[..., n])) * w
        w *= 0.5
    return acc


def _assert_same_bits(got, want):
    assert isinstance(got, np.ndarray) and got.shape == want.shape
    assert np.array_equal(got, want) and got.tobytes() == want.tobytes()


# Gaps above 1 (capped), zeros of both signs, equal coordinates and
# subnormals, in every coordinate position.
_EDGE_VALUES = np.array([0.0, -0.0, 1.0, -1.0, 0.5, 2.5, -3.75, 5e-324, -5e-324, 1e300, 0.1, 0.3])


@pytest.mark.parametrize(
    "a_shape,b_shape",
    [
        ((5,), (5,)),  # a 0-d distance
        ((40, 5), (5,)),  # row against a cloud
        ((40, 5), (40, 5)),  # row against row
        ((6, 1, 5), (1, 7, 5)),  # a block
        ((1,), (1,)),
        ((3, 1), (1,)),
    ],
)
def test_capped_distance_equals_the_former_kernel_bit_for_bit(a_shape, b_shape):
    rng = np.random.default_rng(len(a_shape) * 10 + a_shape[-1])
    for values in (rng.uniform(-3.0, 3.0, 1000), rng.choice(_EDGE_VALUES, 1000)):
        a = rng.choice(values, a_shape)
        b = rng.choice(values, b_shape)
        _assert_same_bits(capped_distance(a, b), _former_capped_distance(a, b))
        _assert_same_bits(capped_distance(b, a), _former_capped_distance(b, a))
    one = capped_distance(np.array([0.25, -0.0]), np.array([0.25, 0.0]))
    assert one.shape == () and one.tobytes() == np.float64(0.0).tobytes()


def test_box_lower_bound_equals_the_clipped_distance_bit_for_bit():
    rng = np.random.default_rng(3)
    cloud = rng.uniform(-1.0, 1.0, (BOX_ROWS, 4)) * rng.uniform(0.0, 3.0, 4)
    lo, hi = cloud.min(axis=0), cloud.max(axis=0)
    inside = rng.uniform(lo, hi, (50, 4))
    edges = [lo, hi, np.where(rng.random(4) < 0.5, lo, hi), cloud[0]]
    outside = rng.uniform(-9.0, 9.0, (200, 4))
    mixed = np.where(rng.random((50, 4)) < 0.5, inside, outside[:50])  # p == lo in some coordinates
    mixed[:, 0] = lo[0]
    for p in [*inside, *edges, *outside, *mixed]:
        want = _former_capped_distance(np.clip(p, lo, hi), p)
        _assert_same_bits(box_lower_bound(p, lo, hi), want)
    # zeros of both signs as bounds and as coordinates
    zeros = np.array([0.0, -0.0])
    for lo_z in zeros:
        for hi_z in zeros:
            for p_z in [*zeros, 1.5, -1.5]:
                lo2, hi2, p2 = np.array([lo_z, -1.0]), np.array([hi_z, 1.0]), np.array([p_z, p_z])
                want = _former_capped_distance(np.clip(p2, lo2, hi2), p2)
                _assert_same_bits(box_lower_bound(p2, lo2, hi2), want)
    # many boxes at once, as the searches ask
    boxed = BoxedCloud.of(rng.uniform(-2.0, 2.0, (1000, 3)))
    for p in rng.uniform(-3.0, 3.0, (20, 3)):
        want = _former_capped_distance(np.clip(p, boxed.lo, boxed.hi), p)
        _assert_same_bits(box_lower_bound(p, boxed.lo, boxed.hi), want)


def test_vectorised_distance_shape_errors():
    with pytest.raises(ValueError):
        distances_to_cloud(np.zeros(3), np.zeros((4, 2)))
    with pytest.raises(ValueError):
        rowwise_distance(np.zeros((4, 2)), np.zeros((5, 2)))
    # A 1-D cloud is not read as a column.
    with pytest.raises(ValueError):
        distances_to_cloud(np.zeros(1), np.zeros(4))
    with pytest.raises(ValueError):
        rowwise_distance(np.zeros(4), np.zeros(4))


def test_tail_bound_values():
    assert tail_bound(1) == 1.0
    assert tail_bound(2) == 0.5
    assert tail_bound(3) == 0.25
    for n in range(1, 40):
        assert tail_bound(n + 1) == tail_bound(n) / 2.0
    with pytest.raises(ValueError):
        tail_bound(0)


def test_tail_bound_controls_truncation_on_samples():
    rng = np.random.default_rng(5)
    dim, keep = 20, 3
    pts = rng.uniform(-1.0, 1.0, (100, dim))
    full = rowwise_distance(pts[:50], pts[50:])
    head = rowwise_distance(pts[:50, :keep], pts[50:, :keep])
    gap = np.abs(full - head)
    assert np.all(gap <= tail_bound(keep) + 1e-15)


def test_inclusion_checks_pass_on_random_samples():
    rng = np.random.default_rng(33)
    dim = 6
    base = rng.uniform(-1.0, 1.0, (60, dim))
    near = np.clip(base + rng.uniform(-0.01, 0.01, base.shape), -1.0, 1.0)
    report = check_ball_cylinder_inclusions(np.vstack([base, near]), r=0.3)
    assert report.ok
    # plain ints, as a report body writes them
    assert type(report.coordinate_violations) is int and type(report.cylinder_violations) is int
    assert report.pairs_checked == 120 * 119 // 2
    assert report.k >= 1


def test_inclusion_checks_engage_the_cylinder_hypothesis():
    # pairs equal on every leading coordinate but far on later ones: the
    # cylinder premise holds and the conclusion must too
    r = 0.3
    dim = 12
    lead = np.zeros(dim)
    far = lead.copy()
    far[8:] = 1.0  # beyond the truncation depth for r = 0.3
    report = check_ball_cylinder_inclusions(np.vstack([lead, far]), r)
    assert report.k <= 8
    assert report.ok


def test_inclusion_checks_run_past_a_thousand_coordinates():
    # 2.0**n overflows at n = 1024; the threshold r 2^-n must not.
    dim = 1100
    rng = np.random.default_rng(4)
    assert check_ball_cylinder_inclusions(rng.uniform(-1.0, 1.0, (4, dim)), r=0.3).ok


@pytest.mark.parametrize("r", [2.0, 1.0, 0.3, 0.25, 1e-9, 2.0**-1022, 5e-324])
def test_truncation_depth_is_the_least_k_whose_tail_weighs_under_half_r(r):
    # In exact arithmetic; the least subnormal radius used to loop forever.
    k = _truncation_depth(r)
    assert Fraction(2) ** (1 - k) < Fraction(r) / 2 <= Fraction(2) ** (2 - k)


def test_inclusion_report_counts_each_violation(monkeypatch):
    # The metric satisfies both inclusions, so broken distances stand in
    # for it to show that each violation is counted.
    pts = np.zeros((3, 12))
    pts[1, 8:] = 1.0
    monkeypatch.setattr(product_space, "capped_distance", lambda a, b: np.zeros(a.shape[0]))
    report = check_ball_cylinder_inclusions(pts, r=0.3)
    # pairs (0, 1) and (1, 2), each at coordinates 8 to 11
    assert (report.coordinate_violations, report.cylinder_violations, report.ok) == (8, 0, False)
    monkeypatch.setattr(product_space, "capped_distance", lambda a, b: np.full(a.shape[0], 2.0))
    report = check_ball_cylinder_inclusions(pts, r=0.3)
    # every pair agrees up to the truncation depth 4, yet lies 2 apart
    assert (report.coordinate_violations, report.cylinder_violations, report.ok) == (0, 3, False)


def test_inclusion_checker_rejects_bad_input():
    with pytest.raises(ValueError, match="radius must be positive"):
        check_ball_cylinder_inclusions(np.zeros((1, 2)), r=0.0)
    with pytest.raises(ValueError, match=r"sample of shape \(2,\) is not \(M, N\)"):
        check_ball_cylinder_inclusions(np.zeros(2), r=0.5)


def test_point_cloud_csv_roundtrip_is_bitwise(tmp_path):
    rng = np.random.default_rng(7)
    pts = rng.uniform(-1.0, 1.0, (37, 4))
    path = tmp_path / "cloud.csv"
    write_point_cloud_csv(path, pts)
    assert path.read_text(encoding="utf-8").splitlines()[0] == "c0,c1,c2,c3"
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(back, pts)


def _dense_nearest(p, cloud):
    # the scan the kernel replaces: every row, first minimum
    dists = capped_distance(cloud, p)
    best = int(np.argmin(dists))
    return best, float(dists[best])


def _assert_kernel_matches_dense(cloud, probes):
    boxed = BoxedCloud.of(cloud)
    for p in probes:
        got = nearest_in_cloud(p, boxed)
        want = _dense_nearest(p, cloud)
        assert got[0] == want[0] and np.array_equal(got[1], want[1]), (p, got, want)


def test_boxed_cloud_keeps_the_cloud_and_each_box_range():
    cloud = np.random.default_rng(0).uniform(-1.0, 1.0, (100, 3))
    boxed = BoxedCloud.of(cloud)
    assert boxed.cloud is cloud
    assert boxed.lo.shape == boxed.hi.shape == (4, 3)  # 100 rows: 3 full boxes and 4 rows
    for b in range(4):
        rows = cloud[b * BOX_ROWS : (b + 1) * BOX_ROWS]
        assert np.array_equal(boxed.lo[b], rows.min(axis=0))
        assert np.array_equal(boxed.hi[b], rows.max(axis=0))
    with pytest.raises(ValueError):
        BoxedCloud.of(np.empty((0, 3)))
    with pytest.raises(ValueError, match=r"cannot search a cloud of shape \(4,\)"):
        BoxedCloud.of(np.zeros(4))


def test_box_lower_bound_never_exceeds_a_row_distance():
    rng = np.random.default_rng(1)
    cloud = rng.uniform(-1.0, 1.0, (BOX_ROWS, 4)) * rng.uniform(0.0, 3.0, 4)
    lo, hi = cloud.min(axis=0), cloud.max(axis=0)
    for p in rng.uniform(-3.0, 3.0, (500, 4)):
        assert box_lower_bound(p, lo, hi) <= capped_distance(cloud, p).min()


@pytest.mark.parametrize("rows", [1, 31, 32, 33, 1000, 4099])
def test_nearest_in_cloud_matches_the_dense_scan_on_random_clouds(rows):
    rng = np.random.default_rng(rows)
    cloud = rng.uniform(-1.0, 1.0, (rows, 3))
    # probes inside the cloud, on its rows, and far outside every box
    probes = list(rng.uniform(-1.0, 1.0, (40, 3))) + list(cloud[:: max(1, rows // 7)])
    probes += [np.array([5.0, -5.0, 5.0]), np.array([1.5, 0.0, -1.5])]
    _assert_kernel_matches_dense(cloud, probes)


def test_nearest_in_cloud_breaks_exact_ties_to_the_earliest_row():
    # Dyadic coordinates make distances exact, so duplicated rows and
    # rows at mirrored offsets tie bit for bit, within a box and across.
    rng = np.random.default_rng(5)
    base = rng.integers(-8, 9, (300, 2)) / 8.0
    cloud = np.vstack([base, base[::-1], base])
    probes = list(base[:50]) + list(rng.integers(-16, 17, (50, 2)) / 16.0)
    _assert_kernel_matches_dense(cloud, probes)
    # the earliest of the duplicates wins
    boxed = BoxedCloud.of(cloud)
    assert nearest_in_cloud(base[299], boxed)[0] == int(np.flatnonzero((base == base[299]).all(axis=1))[0])


def test_nearest_in_cloud_matches_the_dense_scan_in_the_tanh_saturation_band():
    # beyond |x| of about 19 tanh is exactly +-1, so whole runs of boxes
    # hold rows tied in coordinate 0
    xs = np.linspace(-60.0, 60.0, 20_001)
    cloud = np.column_stack([np.tanh(xs), np.cos(xs), np.cos(2.0 * xs)])
    assert (np.abs(cloud[np.abs(xs) > 19.5, 0]) == 1.0).all()
    rng = np.random.default_rng(7)
    probes = list(cloud[rng.integers(0, xs.shape[0], 40)])
    probes += [np.array([1.0, c, 0.5]) for c in rng.uniform(-1.0, 1.0, 10)]
    probes += [np.array([-1.0, 0.25, -1.0]), np.array([0.0, 3.0, 3.0])]
    _assert_kernel_matches_dense(cloud, probes)
    _assert_kernel_matches_dense(cloud[:, :1], [p[:1] for p in probes])
