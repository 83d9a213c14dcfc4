"""End-to-end acceptance gate.

Each numbered check prints its own pass/fail line so a scan of the log
shows the whole picture at once; the final check runs the command-line
battery twice from scratch and compares the report files byte for byte
after dropping the timestamp header.
"""
from __future__ import annotations

import json
from dataclasses import replace

import pytest

from compactify.acceptance import (
    _ORACLE_BLOCK,
    CRITERIA,
    TWO_COORD_FAMILY,
    _dense_tail,
    _oracle_cover,
    run_criteria,
)
from compactify.cli import run
from compactify.compactification import build_compactification
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


def test_criterion_6_streamed_cover_equals_the_one_shot_value():
    model = build_compactification(TWO_COORD_FAMILY, SMALL)
    centers = model.remainder_centers()
    # SMALL's oracle fits one block; a ten times finer one spans several,
    # the last of them partial.
    for params in (_dense_tail(SMALL), _dense_tail(replace(SMALL, grid_step=0.005))):
        oracle = model.embedding.embed_array(params)
        one_shot = capped_distance(oracle[:, None, :], centers[None, :, :]).min(axis=1).max()
        assert _oracle_cover(model.embedding, params, centers) == float(one_shot)
    assert params.shape[0] % _ORACLE_BLOCK and params.shape[0] > 2 * _ORACLE_BLOCK


def test_run_criteria_rejects_an_empty_selection(ctx):
    with pytest.raises(ValueError, match="criteria must be distinct known ids"):
        run_criteria(ctx, ())
