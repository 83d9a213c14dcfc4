"""End-to-end acceptance gate.

Each numbered check prints its own pass/fail line so a scan of the log
shows the whole picture at once; the final check runs the command-line
battery twice from scratch and compares the report files byte for byte
after dropping the timestamp header.
"""
from __future__ import annotations

import json
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from compactify import acceptance
from compactify.acceptance import (
    _ORACLE_BLOCK,
    BUILD_PARAMS,
    CRITERIA,
    TWO_COORD_FAMILY,
    _oracle_cover,
    run_criteria,
)
from compactify.cli import run
from compactify.compactification import BuildParams, build_compactification
from compactify.product_space import capped_distance
from conftest import SMALL


def _announce(capsys, cid: int, name: str, passed: bool, note: str = "") -> None:
    with capsys.disabled():
        tag = "PASS" if passed else "FAIL"
        suffix = f"  ({note})" if note else ""
        print(f"[{tag}] criterion {cid}: {name}{suffix}")


@pytest.mark.parametrize(
    "cid,name,fn", CRITERIA, ids=[f"{cid:02d}-{name}" for cid, name, _ in CRITERIA]
)
def test_criterion(ctx, capsys, cid, name, fn):
    passed, details = fn(ctx)
    _announce(capsys, cid, name, passed)
    assert passed, json.dumps(details, indent=2, default=str)


def test_criterion_11_cli_reports_are_reproducible(tmp_path, capsys):
    def one_run(name: str) -> tuple[int, bytes, dict]:
        out = tmp_path / name
        rc = run(["verify", "--all", "--seed", "7", "--json-report", str(out)])
        report = json.loads(out.read_text())
        del report["header"]  # timestamp and elapsed time, nothing else
        return rc, json.dumps(report, sort_keys=True).encode(), report

    rc1, blob1, report1 = one_run("first.json")
    rc2, blob2, _ = one_run("second.json")
    ok = rc1 == rc2 == 0 and blob1 == blob2 and report1["result"]["all_passed"]
    _announce(capsys, 11, "deterministic-reports", ok, f"{len(blob1)} bytes")
    assert rc1 == 0 and rc2 == 0
    assert report1["result"]["all_passed"] is True
    assert [c["id"] for c in report1["result"]["criteria"]] == [cid for cid, _, _ in CRITERIA]
    assert blob1 == blob2


def _quarter_step_tail(p):
    # Criterion 6's oracle grid: both tails at a quarter of the build's step.
    return replace(p, grid_step=p.grid_step / 4).tail_grid()


def _dense_tail(p):
    # The same grid written out directly, as the reference: the tail step
    # quartered, its step count, and both tails in increasing order.
    step = p.tail_step / 4.0
    count = round((p.r_tail_hi - p.r_tail_lo) / step)
    plus = np.linspace(p.r_tail_lo, p.r_tail_hi, count + 1)
    return np.concatenate([-plus[::-1], plus])


def _random_params(rng):
    r_image = rng.uniform(0.5, 60.0)
    r_tail_lo = r_image * rng.uniform(1.0, 2.0)
    return BuildParams(
        r_image=r_image,
        r_tail_lo=r_tail_lo,
        r_tail_hi=r_tail_lo + rng.uniform(1.0, 2000.0),
        grid_step=10.0 ** rng.uniform(-2.5, -0.5),
    )


@pytest.mark.parametrize(
    "p",
    [BUILD_PARAMS, SMALL, *(_random_params(np.random.default_rng(seed)) for seed in range(20))],
    ids=["default", "SMALL", *(f"random-{seed}" for seed in range(20))],
)
def test_criterion_6_quarter_step_tail_matches_the_direct_formula(p):
    got = _quarter_step_tail(p)
    assert got.dtype == np.float64 and got.tobytes() == _dense_tail(p).tobytes()


def test_criterion_6_streamed_cover_equals_the_one_shot_value():
    model = build_compactification(TWO_COORD_FAMILY, SMALL)
    centers = model.remainder_centers
    # SMALL's oracle fits one block; a ten times finer one spans several,
    # the last of them partial.
    for params in (_quarter_step_tail(SMALL), _quarter_step_tail(replace(SMALL, grid_step=0.005))):
        oracle = model.embedding.embed_array(params)
        one_shot = capped_distance(oracle[:, None, :], centers[None, :, :]).min(axis=1).max()
        assert _oracle_cover(model.embedding, params, centers) == float(one_shot)
    assert params.shape[0] % _ORACLE_BLOCK and params.shape[0] > 2 * _ORACLE_BLOCK


# The oracle's parameters stand for already-embedded points here.
_POINTS_AS_PARAMS = SimpleNamespace(embed_array=lambda block: block)
# Two full blocks and a partial third.
_CLOUD_ROWS = 2 * _ORACLE_BLOCK + 777


def _centers(case: str, rng: np.random.Generator) -> np.ndarray:
    if case == "single center":
        return rng.uniform(-0.5, 0.5, size=(1, 3))
    centers = rng.uniform(-0.5, 0.5, size=(12, 3))
    if case == "shared last coordinate":
        centers[:, -1] = rng.choice([-0.5, 0.0, 0.5], size=12)
    return centers


@pytest.mark.parametrize("case", ["single center", "shared last coordinate", "distinct"])
@pytest.mark.parametrize(
    "row",
    [0, _ORACLE_BLOCK - 1, _ORACLE_BLOCK, 2 * _ORACLE_BLOCK - 1, 2 * _ORACLE_BLOCK, -1],
    ids=["first-of-first", "last-of-first", "first-of-second", "last-of-second",
         "first-of-partial", "last-of-partial"],
)
def test_criterion_6_early_exit_cover_equals_the_brute_force_cover(case, row):
    rng = np.random.default_rng(sum(map(ord, case)) + row)
    centers = _centers(case, rng)
    points = rng.uniform(-0.5, 0.5, size=(_CLOUD_ROWS, 3))
    nearest = capped_distance(points[:, None, :], centers[None, :, :]).min(axis=1)
    # Swap the row farthest from every center into the tested place.
    far = int(nearest.argmax())
    points[[far, row]] = points[[row, far]]
    assert nearest.max() > np.delete(nearest, far).max()
    assert _oracle_cover(_POINTS_AS_PARAMS, points, centers) == float(nearest.max())


@pytest.mark.parametrize("case", ["single center", "shared last coordinate", "distinct"])
def test_criterion_6_cover_of_the_centers_themselves_is_zero(case, monkeypatch):
    rng = np.random.default_rng(6)
    centers = _centers(case, rng)
    points = centers[rng.integers(centers.shape[0], size=_CLOUD_ROWS)]
    full_minimum_rows = []

    def counting(a, b):
        if np.ndim(a) == 3:
            full_minimum_rows.append(np.shape(a)[0])
        return capped_distance(a, b)

    monkeypatch.setattr(acceptance, "capped_distance", counting)
    assert _oracle_cover(_POINTS_AS_PARAMS, points, centers) == 0.0
    # With distinct last coordinates each point's own center is one of its
    # two neighbours, so its bound is 0.0, which never exceeds the cover.
    if case != "shared last coordinate":
        assert sum(full_minimum_rows) == 0


def test_run_criteria_rejects_an_empty_selection(ctx):
    with pytest.raises(ValueError, match="criteria must be distinct known ids"):
        run_criteria(ctx, ())
