from __future__ import annotations

import json
import math

import pytest

from compactify import cli, ordering
from compactify.cli import run
from compactify.compactification import load_model
from compactify.functions import Cos, Tanh
from compactify.ordering import Incomparable

SMALL_FLAGS = [
    "--r-image", "5", "--r-tail-lo", "5", "--r-tail-hi", "200", "--grid-step", "0.05",
]


def write_json(path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture()
def family_file(tmp_path):
    return write_json(
        tmp_path / "family.json",
        [{"kind": "tanh", "a": 1.0, "b": 0.0}, {"kind": "cos", "a": 1.0, "b": 0.0}],
    )


@pytest.fixture()
def small_model_file(tmp_path, family_file):
    out = tmp_path / "model.cptf"
    rc = run(["build", "--family", family_file, "--out", str(out), *SMALL_FLAGS])
    assert rc == 0
    return str(out)


def test_build_writes_model_and_csv(tmp_path, family_file, capsys):
    out = tmp_path / "model.cptf"
    csv = tmp_path / "remainder.csv"
    rc = run(
        ["build", "--family", family_file, "--out", str(out),
         "--remainder-csv", str(csv), *SMALL_FLAGS]
    )
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["result"]["clusters"]) == len(load_model(out).remainder)
    assert csv.read_text().startswith("cluster_id,side,")
    model = load_model(out)
    assert model.params.r_image == 5.0
    assert len(model.family) == 2


def test_build_missing_family_file_is_a_usage_error(tmp_path):
    rc = run(["build", "--family", str(tmp_path / "nope.json"), "--out", str(tmp_path / "m.cptf")])
    assert rc == 2


def test_build_rejects_malformed_family(tmp_path):
    bad = write_json(tmp_path / "bad.json", [{"kind": "sine"}])
    rc = run(["build", "--family", bad, "--out", str(tmp_path / "m.cptf")])
    assert rc == 2


def test_unknown_flag_exits_with_usage_code(family_file, tmp_path):
    with pytest.raises(SystemExit) as exc:
        run(["build", "--family", family_file, "--out", str(tmp_path / "m.cptf"), "--bogus"])
    assert exc.value.code == 2


def test_extend_check_member_passes(tmp_path, small_model_file, capsys):
    fn = write_json(tmp_path / "f.json", {"kind": "cos", "a": 1.0, "b": 0.0})
    rc = run(["extend-check", "--model", small_model_file, "--function", fn, "--expect-extends"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["verdict"] == "extends_by_projection"
    assert report["result"]["expectation_met"] is True


def test_extend_check_incommensurable_fails(tmp_path, capsys):
    # a failing verdict needs a cluster with at least a hundred witnesses,
    # so give the tanh tails a denser grid than the other CLI tests use
    fam = write_json(tmp_path / "tanh.json", [{"kind": "tanh", "a": 1.0, "b": 0.0}])
    out = tmp_path / "tanh.cptf"
    rc = run(
        ["build", "--family", fam, "--out", str(out),
         "--r-image", "5", "--r-tail-lo", "5", "--r-tail-hi", "200", "--grid-step", "0.01"]
    )
    assert rc == 0
    capsys.readouterr()
    fn = write_json(tmp_path / "f.json", {"kind": "cos", "a": math.sqrt(2.0), "b": 0.0})
    rc = run(["extend-check", "--model", str(out), "--function", fn])
    assert rc == 3
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["verdict"] == "fails_to_extend"
    assert report["result"]["oscillation"] > 0.5


def test_extend_check_reports_insufficient_witnesses(tmp_path, capsys):
    fam = write_json(
        tmp_path / "stereo.json",
        [{"kind": "stereo_x"}, {"kind": "stereo_y"}],
    )
    out = tmp_path / "stereo.cptf"
    rc = run(
        ["build", "--family", fam, "--out", str(out),
         "--r-image", "5", "--r-tail-lo", "5", "--r-tail-hi", "100", "--grid-step", "0.05"]
    )
    assert rc == 0
    capsys.readouterr()
    fn = write_json(tmp_path / "f.json", {"kind": "cos", "a": 1.0, "b": 0.0})
    rc = run(["extend-check", "--model", str(out), "--function", fn])
    assert rc == 4
    report = json.loads(capsys.readouterr().out)
    assert "error" in report["result"]


def test_compare_self_yields_identity_witness(small_model_file, capsys):
    rc = run(["compare", "--larger", small_model_file, "--smaller", small_model_file])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["comparable"] is True
    assert report["result"]["mapping"] == [
        {"op": "copy", "source": 0},
        {"op": "copy", "source": 1},
    ]
    assert report["result"]["residual"] == 0.0


def test_compare_accepts_short_flag_spelling(small_model_file, capsys):
    rc = run(["compare", "--a", small_model_file, "--b", small_model_file])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["comparable"] is True


def test_compare_unrelated_models_is_negative(tmp_path, small_model_file, capsys):
    fam = write_json(tmp_path / "stereo.json", [{"kind": "stereo_x"}, {"kind": "stereo_y"}])
    other = tmp_path / "stereo.cptf"
    assert run(["build", "--family", fam, "--out", str(other), *SMALL_FLAGS]) == 0
    capsys.readouterr()
    rc = run(["compare", "--larger", str(other), "--smaller", small_model_file])
    assert rc == 3
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["comparable"] is False
    assert report["result"]["reason"]


def test_enlarge_strict_and_redundant(tmp_path, capsys):
    fam = write_json(tmp_path / "tanh.json", [{"kind": "tanh", "a": 1.0, "b": 0.0}])
    base = tmp_path / "base.cptf"
    assert run(["build", "--family", fam, "--out", str(base), *SMALL_FLAGS]) == 0
    capsys.readouterr()

    fn = write_json(tmp_path / "irr.json", {"kind": "cos", "a": math.sqrt(2.0), "b": 0.0})
    bigger = tmp_path / "bigger.cptf"
    rc = run(["enlarge", "--model", str(base), "--function", fn, "--out", str(bigger)])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["strict"] is True
    assert report["result"]["old_verdict"] == "fails_to_extend"
    assert len(load_model(bigger).family) == 2

    redundant = tmp_path / "same.cptf"
    member = write_json(tmp_path / "member.json", {"kind": "tanh", "a": 1.0, "b": 0.0})
    rc = run(["enlarge", "--model", str(base), "--function", member, "--out", str(redundant)])
    assert rc == 3
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["strict"] is False


def test_remainder_summary_lists_cluster_sides(small_model_file, capsys):
    rc = run(["remainder", "--model", small_model_file])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    sides = {c["side"] for c in report["result"]["clusters"]}
    assert sides == {"-inf", "+inf"}


def test_metric_check_passes_and_is_deterministic(tmp_path):
    out1 = tmp_path / "m1.json"
    out2 = tmp_path / "m2.json"
    assert run(["metric-check", "--pairs", "500", "--json-report", str(out1)]) == 0
    assert run(["metric-check", "--pairs", "500", "--json-report", str(out2)]) == 0
    r1 = json.loads(out1.read_text())
    r2 = json.loads(out2.read_text())
    del r1["header"], r2["header"]
    assert r1 == r2
    assert r1["result"]["ok"] is True


def test_chain_demo_builds_levels_and_limit(tmp_path, capsys):
    rc = run(["chain-demo", "--levels", "3", "--out-dir", str(tmp_path), *SMALL_FLAGS])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["levels"] == 3
    for k in range(3):
        assert (tmp_path / f"level_{k}.cptf").exists()
    assert (tmp_path / "limit.cptf").exists()
    assert report["result"]["bond_residuals"] == [0.0, 0.0]
    assert len(report["result"]["cluster_counts"]) == 3
    assert all(c["comparable"] for c in report["result"]["limit_comparisons"])
    lim = load_model(tmp_path / "limit.cptf")
    assert tuple(lim.family) == (Tanh(), Cos(), Cos(2.0, 0.0))


def test_verify_subset_runs_cheap_criteria(capsys):
    rc = run(["verify", "--criteria", "1,3"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    ids = [c["id"] for c in report["result"]["criteria"]]
    assert ids == [1, 3]
    assert report["result"]["all_passed"] is True


def _one_line_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    return err


@pytest.mark.parametrize(
    "flags",
    [["--dims", "0"], ["--dims", "-1"], ["--pairs", "0"], ["--r=0"], ["--r=nan"], ["--r=inf"]],
)
def test_metric_check_rejects_degenerate_samples(flags, capsys):
    assert run(["metric-check", *flags]) == 2
    _one_line_error(capsys)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_build_rejects_non_finite_params(tmp_path, family_file, value, capsys):
    out = tmp_path / "m.cptf"
    flags = [*SMALL_FLAGS, f"--r-tail-hi={value}"]
    assert run(["build", "--family", family_file, "--out", str(out), *flags]) == 2
    assert "r_tail_hi must be finite" in _one_line_error(capsys)
    assert not out.exists()


def test_build_rejects_non_finite_descriptor(tmp_path, capsys):
    fam = write_json(tmp_path / "nan.json", [{"kind": "tanh", "a": float("nan")}])
    assert run(["build", "--family", fam, "--out", str(tmp_path / "m.cptf")]) == 2
    assert "Tanh.a must be finite" in _one_line_error(capsys)


def test_build_rejects_cheb_without_degree(tmp_path, capsys):
    fam = write_json(
        tmp_path / "cheb.json",
        [{"kind": "tanh"}, {"kind": "cheb", "inner": {"kind": "cos"}}],
    )
    assert run(["build", "--family", fam, "--out", str(tmp_path / "m.cptf")]) == 2
    assert "cheb descriptor needs 'n'" in _one_line_error(capsys)


def _drop_remainder(body):
    del body["remainder"]


def _remainder_not_a_list(body):
    body["remainder"] = {str(c["cluster_id"]): c for c in body["remainder"]}


def _cluster_without_witnesses(body):
    del body["remainder"][-1]["witnesses"]


@pytest.mark.parametrize(
    "damage,message",
    [
        (_drop_remainder, "missing field 'remainder'"),
        (_remainder_not_a_list, "remainder must be a list"),
        (_cluster_without_witnesses, "missing field 'witnesses'"),
    ],
)
def test_malformed_model_body_is_a_usage_error(tmp_path, small_model_file, damage, message, capsys):
    blob = open(small_model_file, "rb").read()
    magic, body = blob.split(b"\n", 1)
    body = json.loads(body)
    damage(body)
    bad = tmp_path / "bad.cptf"
    bad.write_bytes(magic + b"\n" + json.dumps(body).encode())
    capsys.readouterr()
    fn = write_json(tmp_path / "f.json", {"kind": "cos", "a": 2.0, "b": 0.0})
    assert run(["extend-check", "--model", str(bad), "--function", fn]) == 2
    err = _one_line_error(capsys)
    assert str(bad) in err and message in err
    assert run(["remainder", "--model", str(bad)]) == 2
    assert message in _one_line_error(capsys)


def test_extend_check_rejects_nan_radii(tmp_path, small_model_file, capsys):
    fn = write_json(tmp_path / "f.json", {"kind": "cos", "a": 2.0, "b": 0.0})
    capsys.readouterr()
    argv = ["extend-check", "--model", small_model_file, "--function", fn]
    assert run([*argv, "--deltas", "0.2,nan,0.01"]) == 2
    assert "probe radii must be positive" in _one_line_error(capsys)


@pytest.mark.parametrize("ids", ["99", "1,1", "0,42"])
def test_verify_rejects_unknown_and_repeated_criteria(ids, capsys):
    assert run(["verify", "--criteria", ids]) == 2
    err = _one_line_error(capsys)
    assert "criteria must be distinct known ids" in err
    assert capsys.readouterr().out == ""


def test_build_rejects_an_over_large_grid(tmp_path, family_file, capsys):
    out = tmp_path / "m.cptf"
    assert run(["build", "--family", family_file, "--out", str(out), "--grid-step", "1e-9"]) == 2
    assert "samples" in _one_line_error(capsys)
    assert not out.exists()


def test_enlarge_that_fails_to_dominate_is_a_numeric_failure(tmp_path, monkeypatch, capsys):
    # No natural input has been found whose enlargement fails to dominate,
    # so the comparison is forced to come out incomparable.
    fam = write_json(tmp_path / "tanh.json", [{"kind": "tanh", "a": 1.0, "b": 0.0}])
    base = tmp_path / "base.cptf"
    assert run(["build", "--family", fam, "--out", str(base), *SMALL_FLAGS]) == 0
    capsys.readouterr()
    monkeypatch.setattr(ordering, "compare", lambda larger, smaller: Incomparable("forced"))
    fn = write_json(tmp_path / "f.json", {"kind": "cos", "a": 2.0, "b": 0.0})
    out, report = tmp_path / "big.cptf", tmp_path / "report.json"
    argv = ["enlarge", "--model", str(base), "--function", fn, "--out", str(out)]
    assert run([*argv, "--json-report", str(report)]) == 4
    assert "failed to dominate the original: forced" in _one_line_error(capsys)
    assert not out.exists() and not report.exists()


def test_a_plain_runtime_error_keeps_its_traceback(tmp_path, small_model_file, monkeypatch):
    def broken(model):
        raise RuntimeError("bug")

    monkeypatch.setattr(cli, "_cluster_summary", broken)
    with pytest.raises(RuntimeError, match="bug"):
        run(["remainder", "--model", small_model_file])


def test_every_report_carries_command_seed_and_workers(tmp_path, small_model_file):
    out = tmp_path / "r.json"
    argv = ["compare", "--a", small_model_file, "--b", small_model_file]
    assert run([*argv, "--seed", "11", "--json-report", str(out)]) == 0
    report = json.loads(out.read_text())
    assert set(report) == {"header", "config", "result"}
    assert set(report["header"]) == {"timestamp", "elapsed_seconds"}
    assert report["config"] == {
        "command": "compare",
        "larger": small_model_file,
        "smaller": small_model_file,
        "seed": 11,
        "workers": 1,
    }


def test_reports_are_strict_json():
    with pytest.raises(ValueError, match="JSON compliant"):
        cli._emit({"value": math.nan}, {}, 0.0, None)
