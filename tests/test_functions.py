from __future__ import annotations

import dataclasses
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import chebyshev as npcheb

from compactify.functions import (
    MAX_CHEB_DEGREE,
    MAX_DESCRIPTOR_DEPTH,
    AffineImage,
    Cheb,
    Const,
    Cos,
    FunctionDescriptor,
    FunctionFamily,
    Interval,
    StereoX,
    StereoY,
    Tanh,
    chebyshev_expand,
    chebyshev_recurrence,
    descriptor_from_json,
)

from descriptor_strategies import JUNK, NUMBERS, descriptor_json, nest

ALL_KINDS = [
    Tanh(),
    Tanh(0.5, -2.0),
    Cos(),
    Cos(-3.0, 0.7),
    StereoX(),
    StereoY(),
    Const(0.25),
    Cheb(3, Cos()),
    Cheb(2, Tanh()),
    AffineImage(Tanh(), 0.5, 0.25),
    AffineImage(Cos(2.0, 0.0), -1.5, 0.0),
]


def test_pointwise_values_match_math_module():
    # independent scalar route through math.*
    assert Tanh().evaluate(0.0) == 0.0
    assert Tanh().evaluate(1.3) == pytest.approx(math.tanh(1.3), abs=1e-15)
    assert Cos(2.0, 0.5).evaluate(0.7) == pytest.approx(math.cos(2.0 * 0.7 + 0.5), abs=1e-15)
    assert StereoX().evaluate(0.0) == 0.0
    assert StereoY().evaluate(0.0) == -1.0
    assert StereoX().evaluate(1.0) == 1.0
    assert StereoY().evaluate(1.0) == 0.0
    assert Const(0.75).evaluate(123.0) == 0.75


def test_scalar_evaluate_returns_python_float():
    v = Tanh().evaluate(2.0)
    assert isinstance(v, float)
    arr = Tanh().evaluate(np.array([2.0]))
    assert isinstance(arr, np.ndarray)


def test_stereo_coordinates_stay_on_unit_circle():
    xs = np.linspace(-80.0, 80.0, 20001)
    sx = StereoX().evaluate(xs)
    sy = StereoY().evaluate(xs)
    assert np.max(np.abs(sx * sx + sy * sy - 1.0)) < 1e-12


def test_stereo_x_is_finite_for_huge_arguments():
    xs = np.array([1e300, -1e300, 1e15])
    vals = StereoX().evaluate(xs)
    assert np.all(np.isfinite(vals))
    # asymptotically 2/x
    assert vals[2] == pytest.approx(2.0 / 1e15, rel=1e-12)


def test_tanh_saturates_to_endpoints():
    assert Tanh().evaluate(1e308) == 1.0
    assert Tanh().evaluate(-1e308) == -1.0


def test_cosine_is_even_bitwise():
    xs = np.linspace(0.0, 40.0, 5001)
    d = Cos(math.sqrt(2.0), 0.0)
    assert np.array_equal(d.evaluate(xs), d.evaluate(-xs))


def test_chebyshev_recurrence_base_cases():
    assert chebyshev_recurrence(0, 0.3) == 1.0
    assert chebyshev_recurrence(1, 0.3) == 0.3
    ts = np.linspace(-1.0, 1.0, 101)
    assert np.max(np.abs(chebyshev_recurrence(2, ts) - (2 * ts * ts - 1))) == 0.0


def test_chebyshev_recurrence_matches_clenshaw():
    """Dual route: explicit recurrence against numpy's Clenshaw evaluation."""
    rng = np.random.default_rng(11)
    ts = rng.uniform(-1.0, 1.0, 4096)
    for n in (1, 2, 3, 5, 8, 11):
        ref = npcheb.chebval(ts, [0.0] * n + [1.0])
        assert np.max(np.abs(chebyshev_recurrence(n, ts) - ref)) < 1e-13


def test_cheb_descriptor_matches_clenshaw_through_cos():
    rng = np.random.default_rng(11)
    xs = rng.uniform(-20.0, 20.0, 4096)
    for n in (1, 2, 3, 5, 8, 11):
        mine = Cheb(n, Cos()).evaluate(xs)
        ref = npcheb.chebval(np.cos(xs), [0.0] * n + [1.0])
        assert np.max(np.abs(mine - ref)) < 1e-13


def test_cheb_identity_on_cosine():
    # T_n(cos x) == cos(n x)
    xs = np.linspace(-50.0, 50.0, 10001)
    for n in (2, 5, 9):
        got = Cheb(n, Cos()).evaluate(xs)
        assert np.max(np.abs(got - np.cos(n * xs))) < 1e-9


def test_chebyshev_expand_builds_the_wrapped_descriptor():
    d = chebyshev_expand(3)
    assert d == Cheb(3, Cos(1.0, 0.0))
    with pytest.raises(ValueError):
        chebyshev_expand(0)
    with pytest.raises(ValueError):
        Cheb(0, Cos())


def test_range_intervals():
    assert Tanh().range_interval() == Interval(-1.0, 1.0)
    assert Cos(5.0, -1.0).range_interval() == Interval(-1.0, 1.0)
    assert StereoX().range_interval() == Interval(-1.0, 1.0)
    assert StereoY().range_interval() == Interval(-1.0, 1.0)
    assert Const(0.3).range_interval() == Interval(0.3, 0.3)
    flipped = AffineImage(Tanh(), -2.0, 1.0)
    assert flipped.range_interval() == Interval(-1.0, 3.0)


def test_cheb_range_over_shifted_inner_interval():
    # frozen: T_3 over [0.25, 0.75] has one interior extremum at t = 1/2
    # giving -1; hull cross-checked against dense Clenshaw sampling
    inner = AffineImage(Cos(), 0.25, 0.5)
    assert inner.range_interval() == Interval(0.25, 0.75)
    d = Cheb(3, inner)
    assert d.range_interval() == Interval(-1.0, -0.5625)


def test_cheb_range_on_full_interval_is_unit():
    assert Cheb(7, Cos()).range_interval() == Interval(-1.0, 1.0)
    assert Cheb(4, Tanh()).range_interval() == Interval(-1.0, 1.0)


@pytest.mark.parametrize("desc", ALL_KINDS, ids=lambda d: type(d).__name__)
def test_values_always_land_in_declared_range(desc):
    """Containment is exact, not approximate: evaluate clips into range."""
    xs = np.linspace(-1000.0, 1000.0, 100001)
    vals = desc.evaluate(xs)
    iv = desc.range_interval()
    assert np.all(vals >= iv.lo)
    assert np.all(vals <= iv.hi)


@pytest.mark.parametrize("desc", ALL_KINDS, ids=lambda d: type(d).__name__)
def test_json_roundtrip_is_exact(desc):
    blob = json.dumps(desc.to_json())
    back = descriptor_from_json(json.loads(blob))
    assert back == desc


def test_json_kind_strings_are_stable():
    assert Tanh().to_json() == {"kind": "tanh", "a": 1.0, "b": 0.0}
    assert Cos(2.0, 0.5).to_json() == {"kind": "cos", "a": 2.0, "b": 0.5}
    assert Cheb(3, Cos()).to_json() == {
        "kind": "cheb",
        "n": 3,
        "inner": {"kind": "cos", "a": 1.0, "b": 0.0},
    }


def test_descriptor_from_json_rejects_unknown_kind():
    with pytest.raises(ValueError):
        descriptor_from_json({"kind": "sine", "a": 1.0})
    with pytest.raises(ValueError):
        descriptor_from_json("tanh")


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)
    assert Interval(1.0, 1.0).width == 0.0
    assert Interval(-1.0, 1.0).contains(0.0)
    assert not Interval(-1.0, 1.0).contains(1.5)


def test_family_requires_an_injective_lead():
    FunctionFamily((Tanh(),))
    FunctionFamily((StereoX(), StereoY()))
    FunctionFamily((AffineImage(Tanh(), 0.5, 1.0), Cos()))
    with pytest.raises(ValueError):
        FunctionFamily((Cos(),))
    with pytest.raises(ValueError):
        FunctionFamily((StereoX(),))
    with pytest.raises(ValueError):
        FunctionFamily((Tanh(0.0, 1.0),))
    with pytest.raises(ValueError):
        FunctionFamily((AffineImage(Tanh(), 0.0, 1.0), Cos()))
    with pytest.raises(ValueError):
        FunctionFamily(())


def test_family_rejects_non_descriptors():
    with pytest.raises(TypeError):
        FunctionFamily((Tanh(), "cos"))


def test_family_space_and_iteration():
    fam = FunctionFamily((Tanh(), Cos(), Const(0.5)))
    assert len(fam) == 3
    assert fam[1] == Cos()
    assert fam.space() == (
        Interval(-1.0, 1.0),
        Interval(-1.0, 1.0),
        Interval(0.5, 0.5),
    )


def test_family_file_roundtrip(tmp_path):
    fam = FunctionFamily((Tanh(), Cheb(2, Cos())))
    p = tmp_path / "family.json"
    p.write_text(json.dumps(fam.to_json()))
    assert FunctionFamily.from_file(p) == fam
    # only the bare array is a family file
    for other in ({"family": fam.to_json()}, {"other": 1}):
        p.write_text(json.dumps(other))
        with pytest.raises(ValueError, match="JSON array"):
            FunctionFamily.from_file(p)


def test_injective_leads_separate_sampled_pairs():
    # tanh collapses to exactly +-1.0 in float64 once |x| passes ~19, so
    # the numeric spot check stays inside the faithfully monotone window;
    # the structural whitelist is what guards the lead slot in general.
    rng = np.random.default_rng(23)
    xs = rng.uniform(-10.0, 10.0, size=10_000)
    ys = rng.uniform(-10.0, 10.0, size=10_000)
    keep = xs != ys
    assert np.all(Tanh().evaluate(xs[keep]) != Tanh().evaluate(ys[keep]))

    # the stereographic legs repeat individually (x and 1/x agree on the
    # first leg) but the pair separates jointly
    sx, sy = StereoX(), StereoY()
    assert sx.evaluate(2.0) == sx.evaluate(0.5)
    both = (sx.evaluate(xs[keep]) == sx.evaluate(ys[keep])) & (
        sy.evaluate(xs[keep]) == sy.evaluate(ys[keep])
    )
    assert not np.any(both)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "make",
    [
        lambda v: Tanh(a=v),
        lambda v: Tanh(b=v),
        lambda v: Cos(a=v),
        lambda v: Cos(b=v),
        lambda v: Const(v),
        lambda v: AffineImage(Tanh(), scale=v),
        lambda v: AffineImage(Tanh(), shift=v),
    ],
)
def test_descriptors_reject_non_finite_parameters(make, bad):
    with pytest.raises(ValueError, match="must be finite"):
        make(bad)


@pytest.mark.parametrize("scale, shift", [(1e308, 1e308), (-1e308, -1e308), (1e308, 8e307)])
def test_affine_ranges_that_overflow_are_rejected(scale, shift):
    with pytest.raises(ValueError, match=r"AffineImage range .*inf.* is not finite"):
        AffineImage(Tanh(), scale, shift)
    half = scale / 2
    assert AffineImage(Tanh(), half, 0.0).range_interval() == Interval(-abs(half), abs(half))


@pytest.mark.parametrize("inner, scale", [(Tanh(), 1e308), (Cos(1.5), -1e308), (Tanh(), 9e307)])
def test_affine_ranges_wider_than_a_float_are_rejected(inner, scale):
    # Both ends are finite, but their difference, an extend-check's
    # largest oscillation, is not.
    with pytest.raises(ValueError, match=r"^AffineImage range \[.*\] is wider than the largest float$"):
        AffineImage(inner, scale)


@pytest.mark.parametrize(
    "obj",
    [
        {"kind": "cheb", "inner": {"kind": "cos"}},
        {"kind": "cheb", "n": 3},
        {"kind": "const"},
        {"kind": "affine", "scale": 2.0},
    ],
)
def test_descriptor_from_json_missing_field_is_a_value_error(obj):
    with pytest.raises(ValueError, match="descriptor needs"):
        descriptor_from_json(obj)


@pytest.mark.parametrize(
    "degree", [math.inf, -math.inf, math.nan, 2.7, MAX_CHEB_DEGREE + 1, 10**400, True, "3", None]
)
def test_cheb_rejects_bad_degrees(degree):
    with pytest.raises(ValueError, match="Chebyshev degree"):
        Cheb(degree, Cos())
    with pytest.raises(ValueError, match="Chebyshev degree"):
        descriptor_from_json({"kind": "cheb", "n": degree, "inner": {"kind": "cos"}})


def test_cheb_accepts_integral_degrees_up_to_the_bound():
    assert Cheb(MAX_CHEB_DEGREE, Cos()).n == MAX_CHEB_DEGREE
    d = descriptor_from_json({"kind": "cheb", "n": 3.0, "inner": {"kind": "cos"}})
    assert d == Cheb(3, Cos()) and type(d.n) is int
    assert Cheb(np.int64(4), Cos()).to_json()["n"] == 4


def _unfused_cos(d, x):
    phase = np.abs(d.a * x + d.b)
    return np.cos(np.where(np.isfinite(phase), phase, 0.0))


def _unfused_tanh(d, x):
    return np.tanh(d.a * x + d.b)


SPECIAL = np.array([0.0, -0.0, 1.0, -1.0, 1e-300, 5e-324, 1e17, -1e17, 1e308, -1e308, np.inf, -np.inf, np.nan])


@pytest.mark.parametrize(
    "desc,reference",
    [(d, _unfused_cos) for d in (Cos(), Cos(-3.0, 0.7), Cos(math.sqrt(2.0), 0.3), Cos(1e300, 0.0), Cos(0.0, 0.4))]
    + [(d, _unfused_tanh) for d in (Tanh(), Tanh(0.5, -2.0), Tanh(1e300, 1.0), Tanh(0.0, 0.4))],
)
def test_in_place_evaluation_is_bitwise_the_unfused_formula(desc, reference):
    rng = np.random.default_rng(5)
    x = np.concatenate([rng.uniform(-2000.0, 2000.0, 200_000), SPECIAL])
    iv = desc.range_interval()
    with np.errstate(over="ignore", invalid="ignore"):
        want = np.clip(reference(desc, x), iv.lo, iv.hi)
        assert np.array_equal(desc.evaluate(x), want, equal_nan=True)
        # Short arrays take the vector loops' remainder paths.
        for n in range(1, 70):
            assert np.array_equal(desc.evaluate(x[-n:]), want[-n:], equal_nan=True)
        assert np.array_equal(desc.evaluate(x[::7]), want[::7], equal_nan=True)
        for v in SPECIAL:
            got = desc.evaluate(float(v))
            assert type(got) is float
            assert np.array_equal(got, np.clip(reference(desc, np.float64(v)), iv.lo, iv.hi), equal_nan=True)


def test_evaluate_leaves_its_input_alone():
    x = np.linspace(-3.0, 3.0, 101)
    before = x.copy()
    for desc in ALL_KINDS:
        desc.evaluate(x)
        assert np.array_equal(x, before)


def _range_by_loop(n: int, inner) -> Interval:
    """Cheb.range_interval as it was computed on every evaluate call."""
    inner_iv = inner.range_interval()
    lo, hi = inner_iv.lo, inner_iv.hi
    candidates = [float(chebyshev_recurrence(n, lo)), float(chebyshev_recurrence(n, hi))]
    for k in range(1, n):
        crit = float(np.cos(k * np.pi / n))
        if lo <= crit <= hi:
            candidates.append(1.0 if k % 2 == 0 else -1.0)
    return Interval(min(candidates), max(candidates))


CHEB_INNERS = [
    Cos(),
    Cos(0.0, 0.3),
    Tanh(),
    Tanh(0.0, -0.5),
    AffineImage(Cos(), 0.3, 0.1),
    AffineImage(Tanh(2.0, 1.0), -0.5, 0.25),
    AffineImage(Cos(), 0.0, 0.7),
]


@pytest.mark.parametrize("inner", CHEB_INNERS)
def test_cheb_range_is_computed_once_and_equals_the_loop(inner, monkeypatch):
    for n in range(1, 51):
        desc = Cheb(n, inner)
        want = _range_by_loop(n, inner)
        got = desc.range_interval()
        assert (got.lo.hex(), got.hi.hex()) == (want.lo.hex(), want.hi.hex())
    # Evaluating reads the stored interval.
    monkeypatch.setattr(Cheb, "_range_from_inner", lambda self: pytest.fail("range recomputed"))
    desc.evaluate(np.linspace(-5.0, 5.0, 11))
    assert desc.range_interval() is desc.range_interval()


def test_cheb_rejects_a_non_descriptor_inner():
    with pytest.raises(TypeError, match="not a function descriptor"):
        Cheb(2, "cos")


@pytest.mark.parametrize(
    "inner, ends",
    [(AffineImage(Tanh(), 1e10), "-10000000000.0, 10000000000.0"), (AffineImage(Tanh(), 5e9, 5e9), "0.0, 10000000000.0")],
)
def test_a_chebyshev_range_that_overflows_is_refused(inner, ends):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(f"Chebyshev degree 100 overflows on the inner range [{ends}]")):
            Cheb(100, inner)
        assert Cheb(3, AffineImage(Tanh(), 1e100)).range_interval() == Interval(-4e300, 4e300)


@pytest.mark.parametrize(
    "obj, message",
    [
        ({"kind": "tanh", "a": None}, "Tanh.a must be a number, got None"),
        ({"kind": "cos", "b": [1.0]}, "Cos.b must be a number, got [1.0]"),
        ({"kind": "const", "c": {"x": 1}}, "Const.c must be a number, got {'x': 1}"),
        ({"kind": "affine", "inner": {"kind": "tanh"}, "scale": 10**400}, "AffineImage.scale must be a number, got 1000"),
        ({"kind": "tanh", "b": -(10**400)}, "Tanh.b must be a number, got -1000"),
        # float() would read these as 2.0, 10.0 and 1.0.
        ({"kind": "tanh", "a": "2"}, "Tanh.a must be a number, got '2'"),
        ({"kind": "cos", "a": " 1e1 "}, "Cos.a must be a number, got ' 1e1 '"),
        ({"kind": "tanh", "a": True}, "Tanh.a must be a number, got True"),
        ({"kind": "tanh", "A": 2}, "tanh descriptor has unknown fields ['A']"),
        ({"kind": "affine", "inner": {"kind": "cos", "c": 1}}, "cos descriptor has unknown fields ['c']"),
        ({"kind": ["tanh"]}, "unknown descriptor kind: ['tanh']"),
        ({"kind": {"kind": "tanh"}}, "unknown descriptor kind: {'kind': 'tanh'}"),
    ],
)
def test_fields_that_are_not_numbers_are_value_errors(obj, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        descriptor_from_json(obj)


def test_the_finite_check_reads_float_annotations_as_types_too():
    scaled = dataclasses.make_dataclass("Scaled", [("s", float)], bases=(FunctionDescriptor,), frozen=True)
    assert dataclasses.fields(scaled)[0].type is float
    with pytest.raises(ValueError, match="Scaled.s must be finite, got nan"):
        scaled(math.nan)


def test_const_needs_its_value():
    with pytest.raises(TypeError):
        Const()


# Shallow objects, and a third wrapped to about MAX_DESCRIPTOR_DEPTH.
DESCRIPTOR_JSON = st.one_of(
    descriptor_json(NUMBERS, JUNK, depth=3),
    descriptor_json(NUMBERS, JUNK, depth=3),
    st.builds(
        nest,
        descriptor_json(NUMBERS, JUNK, depth=1),
        st.integers(MAX_DESCRIPTOR_DEPTH - 2, MAX_DESCRIPTOR_DEPTH + 2),
    ),
)


@settings(max_examples=100, deadline=2000, derandomize=True, database=None)
@given(obj=DESCRIPTOR_JSON)
def test_random_descriptor_json_parses_or_is_a_value_error(obj):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            d = descriptor_from_json(obj)
        except ValueError:
            return
    assert isinstance(d, FunctionDescriptor)
    assert descriptor_from_json(d.to_json()) == d
    json.dumps(d.to_json(), allow_nan=False)
