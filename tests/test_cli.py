from __future__ import annotations

import contextlib
import io
import json
import math
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compactify import cli, extension, ordering
from compactify.cli import run
from compactify.compactification import EmbeddingMap, load_model
from compactify.extension import MAX_DELTAS
from compactify.functions import MAX_CHEB_DEGREE, MAX_DESCRIPTOR_DEPTH, Cos, Tanh
from compactify.ordering import Incomparable

from descriptor_strategies import JUNK_VALUES, NUMBERS, descriptor_json
from model_files import split_cptf2

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


def test_unknown_flag_exits_with_usage_code(family_file, tmp_path, capsys):
    out = tmp_path / "m.cptf"
    assert run(["build", "--family", family_file, "--out", str(out), "--bogus"]) == 2
    assert "unrecognized arguments: --bogus" in _one_line_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize(
    "argv,message",
    [
        (["metric-check", "--dims", "x"], "error: argument --dims: invalid int value: 'x'\n"),
        ([], "the following arguments are required: command"),
        (["verify", "--all", "--criteria", "1"], "argument --criteria: not allowed with argument --all"),
        (["extend-check", "--model", "m", "--function", "f", "--deltas", "-inf"], "expected one argument"),
        (["remainder"], "the following arguments are required: --model"),
        (["verify", "--criteria", "1", "--seed", "-1"], "argument --seed: expected a non-negative integer, got '-1'"),
        (["verify", "--all", "--seed", "-1"], "argument --seed: expected a non-negative integer, got '-1'"),
        (["metric-check", "--seed", "-3"], "argument --seed: expected a non-negative integer, got '-3'"),
        (["metric-check", "--seed", "x"], "argument --seed: expected a non-negative integer, got 'x'"),
    ],
)
def test_flag_errors_are_one_line_usage_errors(argv, message, capsys):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_help_and_version_still_exit_zero(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        run([flag])
    assert exc.value.code == 0
    assert capsys.readouterr().out


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


def test_compare_spells_a_harmonic_coordinate_as_cheb(tmp_path, small_model_file, capsys):
    fam = write_json(
        tmp_path / "cos2.json",
        [{"kind": "tanh", "a": 1.0, "b": 0.0}, {"kind": "cos", "a": 2.0, "b": 0.0}],
    )
    smaller = tmp_path / "cos2.cptf"
    assert run(["build", "--family", fam, "--out", str(smaller), *SMALL_FLAGS]) == 0
    capsys.readouterr()
    rc = run(["compare", "--larger", small_model_file, "--smaller", str(smaller)])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["mapping"] == [
        {"op": "copy", "source": 0},
        {"op": "cheb", "degree": 2, "source": 1},
    ]


def test_compare_has_no_short_flag_spelling(small_model_file, capsys):
    rc = run(["compare", "--a", small_model_file, "--smaller", small_model_file])
    assert rc == 2
    assert "--larger" in _one_line_error(capsys)


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


def _refuse_to_sample(*args, **kwargs):
    raise ValueError("sampling reached")


@pytest.mark.parametrize(
    "pairs,dims,allowed",
    [
        (cli.MAX_METRIC_VALUES, 1, True),
        (cli.MAX_METRIC_VALUES + 1, 1, False),
        (1024, cli.MAX_METRIC_DIMS, True),
        (1, cli.MAX_METRIC_DIMS + 1, False),
        (10**12, 10**6, False),
    ],
)
def test_metric_check_sizes_are_bounded_before_sampling(pairs, dims, allowed, monkeypatch, capsys):
    monkeypatch.setattr(cli, "metric_sample", _refuse_to_sample)
    monkeypatch.setattr(cli.np.random, "default_rng", _refuse_to_sample)
    assert run(["metric-check", "--pairs", str(pairs), "--dims", str(dims)]) == 2
    err = _one_line_error(capsys)
    assert ("sampling reached" in err) == allowed
    assert ("metric-check needs --dims <=" in err) != allowed


def test_build_refuses_a_family_too_long_to_embed(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(EmbeddingMap, "embed_array", _refuse_to_sample)
    fam = write_json(tmp_path / "long.json", [{"kind": "tanh"}] * 1000)
    out = tmp_path / "m.cptf"
    assert run(["build", "--family", fam, "--out", str(out)]) == 2
    assert "embeds 490003000 values, more than" in _one_line_error(capsys)
    assert not out.exists()


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


def _cptf2(header: dict, image: bytes, labels: bytes, header_len: int | None = None) -> bytes:
    text = json.dumps(header).encode()
    length = len(text) if header_len is None else header_len
    return b"CPTF2\n" + struct.pack("<Q", length) + text + image + labels


def _set_label(labels: bytes, i: int, value: int) -> bytes:
    return labels[:i] + bytes([value]) + labels[i + 1 :]


def _empty_last_cluster(h, image, labels):
    last = len(h["clusters"]) - 1
    # Its witnesses go to the earlier cluster of the same side.
    side = h["clusters"][last]["side"]
    other = next(c["cluster_id"] for c in h["clusters"] if c["side"] == side)
    return _cptf2(h, image, labels.replace(bytes([last]), bytes([other])))


def _swap_first_ids(h, image, labels):
    h["clusters"][0]["cluster_id"], h["clusters"][1]["cluster_id"] = 1, 0
    return _cptf2(h, image, labels)


def _second_id_set(value):
    def damage(h, image, labels):
        h["clusters"][1]["cluster_id"] = value
        return _cptf2(h, image, labels)

    return damage


def _flip_first_side(h, image, labels):
    h["clusters"][0]["side"] = "both" if h["clusters"][0]["side"] != "both" else "+inf"
    return _cptf2(h, image, labels)


def _drop_a_center_coordinate(h, image, labels):
    h["clusters"][-1]["center"].pop()
    return _cptf2(h, image, labels)


def _nest_a_center(h, image, labels):
    h["clusters"][1]["center"] = [h["clusters"][1]["center"]]
    return _cptf2(h, image, labels)


def _with(key, value):
    return lambda h, image, labels: _cptf2({**h, key: value}, image, labels)


def _image_float_set(k, value):
    def damage(h, image, labels):
        return _cptf2(h, image[: 8 * k] + struct.pack("<d", value) + image[8 * k + 8 :], labels)

    return damage


def _nan_center(h, image, labels):
    h["clusters"][0]["center"][1] = math.nan  # written as NaN
    return _cptf2(h, image, labels)


def _infinite_center(h, image, labels):
    h["clusters"][1]["center"][1] = math.inf  # written as Infinity
    return _cptf2(h, image, labels)


def _center_spelled(i, spell):
    def damage(h, image, labels):
        h["clusters"][i]["center"] = [spell(v) for v in h["clusters"][i]["center"]]
        return _cptf2(h, image, labels)

    return damage


def _without_clusters(h, image, labels):
    del h["clusters"]
    return _cptf2(h, image, labels)


def _huge_center(h, image, labels):
    h["clusters"][0]["center"][0] = 10**400
    return _cptf2(h, image, labels)


def _empty_image_grid(h, image, labels):
    # grid_step beyond 2 * r_image, though round(2 * r_image / grid_step)
    # is 1: refused as an empty grid, not as an image-shape mismatch
    h["params"]["grid_step"] = 2.5 * h["params"]["r_image"]
    return _cptf2(h, image, labels)


def _huge_param(h, image, labels):
    h["params"]["grid_step"] = 10**400
    return _cptf2(h, image, labels)


def _radius_set(value):
    def damage(h, image, labels):
        h["params"]["cluster_radius"] = value
        return _cptf2(h, image, labels)

    return damage


def _without_radius(h, image, labels):
    del h["params"]["cluster_radius"]
    return _cptf2(h, image, labels)


def _huge_family_field(h, image, labels):
    h["family"][1]["b"] = -(10**400)
    return _cptf2(h, image, labels)


BAD_CPTF2 = {
    "CPTF1 file": (lambda h, image, labels: b"CPTF1\n{}", "bad magic b'CPTF1\\n'"),
    "truncated header length": (lambda h, image, labels: b"CPTF2\n\x10\x00", "truncated header length"),
    "oversized header length": (
        lambda h, image, labels: _cptf2(h, image, labels, header_len=2**40),
        "header length 1099511627776 exceeds",
    ),
    "short header length": (
        lambda h, image, labels: _cptf2(h, image, labels, header_len=len(json.dumps(h)) - 3),
        "malformed model file",
    ),
    "image shape off the grid": (
        lambda h, image, labels: _cptf2({**h, "image_shape": [h["image_shape"][0], 3]}, image, labels),
        "does not match the grid",
    ),
    "truncated image section": (
        lambda h, image, labels: _cptf2(h, image[:1000], b""),
        "image section truncated",
    ),
    "truncated label section": (
        lambda h, image, labels: _cptf2(h, image, labels[:-1]),
        "label section holds",
    ),
    "over-long raw section": (
        lambda h, image, labels: _cptf2(h, image, labels + b"\x00"),
        "label section holds",
    ),
    "missing header field": (_without_clusters, "missing field 'clusters'"),
    "clusters not a list": (_with("clusters", {}), "clusters must be a list, not dict"),
    "wrong label count": (_with("label_dtype", "<u2"), "label section holds"),
    "unknown label dtype": (_with("label_dtype", "<f8"), "unknown label dtype '<f8'"),
    "label at the cluster count": (
        lambda h, image, labels: _cptf2(h, image, _set_label(labels, 7, len(h["clusters"]))),
        "is not below the cluster count",
    ),
    "empty cluster": (_empty_last_cluster, "has no witnesses"),
    "cluster ids out of order": (_swap_first_ids, "cluster ids must run 0..k-1"),
    # Both compare equal to 1, yet neither is an integer id.
    "float cluster id": (_second_id_set(1.0), "cluster ids must run 0..k-1"),
    "boolean cluster id": (_second_id_set(True), "cluster ids must run 0..k-1"),
    "side that disagrees": (_flip_first_side, "disagrees with its witnesses"),
    "center short of a coordinate": (_drop_a_center_coordinate, "center has 1 coordinates, not 2"),
    "2-D center": (_nest_a_center, "cluster 1 center has shape (1, 2), not (2,)"),
    "NaN image point": (_image_float_set(5, math.nan), "image points are not all finite"),
    "infinite image point": (_image_float_set(0, -math.inf), "image points are not all finite"),
    "NaN center": (_nan_center, "cluster 0 center is not finite"),
    "infinite center": (_infinite_center, "cluster 1 center is not finite"),
    "400-digit center": (_huge_center, "int too large to convert to float"),
    # numpy would read both as numbers: the same values, and 0.0 and 1.0.
    "string center": (_center_spelled(0, str), "cluster 0 center must hold numbers, got '-0.99999999998"),
    "boolean center": (_center_spelled(2, lambda v: v > 0), "cluster 2 center must hold numbers, got False"),
    "400-digit param": (_huge_param, "grid_step must be a number, got 1000"),
    "empty image grid": (_empty_image_grid, "image grid is empty"),
    "400-digit family field": (_huge_family_field, "Cos.b must be a number, got -1000"),
    # float() would read both as numbers: 0.05 and 1.0.
    "string param": (_radius_set("0.05"), "cluster_radius must be a number, got '0.05'"),
    "boolean param": (_radius_set(True), "cluster_radius must be a number, got True"),
    "params without cluster_radius": (_without_radius, "params need exactly the fields"),
}


@pytest.mark.parametrize("case", list(BAD_CPTF2))
def test_malformed_cptf2_file_is_a_usage_error(tmp_path, small_model_file, case, capsys):
    damage, message = BAD_CPTF2[case]
    header, image, labels = split_cptf2(Path(small_model_file).read_bytes())
    assert header["label_dtype"] == "<u1" and len(header["clusters"]) > 2
    bad = tmp_path / "bad.cptf"
    bad.write_bytes(damage(header, image, labels))
    fn = write_json(tmp_path / "f.json", {"kind": "cos", "a": 2.0, "b": 0.0})
    capsys.readouterr()
    for argv in (
        ["extend-check", "--model", str(bad), "--function", fn],
        ["remainder", "--model", str(bad)],
        ["compare", "--larger", small_model_file, "--smaller", str(bad)],
    ):
        assert run(argv) == 2
        err = _one_line_error(capsys)
        assert f"error: {bad}: " in err and message in err


def _drop_remainder(h, image, labels):
    del h["clusters"]
    return _cptf2(h, image, b"")


def _cluster_without_a_center(h, image, labels):
    del h["clusters"][-1]["center"]
    return _cptf2(h, image, labels)


def _first_cluster_emptied(h, image, labels):
    return _cptf2(h, image, labels.replace(b"\x00", b"\x01"))


def _flip_side(h, image, labels):
    c = h["clusters"][0]
    c["side"] = "-inf" if c["side"] == "+inf" else "+inf"
    return _cptf2(h, image, labels)


def _image_row_missing(h, image, labels):
    rows, dim = h["image_shape"]
    return _cptf2({**h, "image_shape": [rows - 1, dim]}, image[: -8 * dim], labels)


def _nan_image_point(h, image, labels):
    rows, dim = h["image_shape"]
    return _image_float_set((rows // 2) * dim, math.nan)(h, image, labels)


def _short_center(h, image, labels):
    h["clusters"][0]["center"].pop()
    return _cptf2(h, image, labels)


# Damage to the model body: the remainder clusters and the image points.
# The case ids are the ones these cases had when the body was the JSON of
# the retired CPTF1 format; each now damages the same part of a CPTF2 file
# and expects the message the CPTF2 reader gives.
BAD_MODEL_BODY = {
    "_drop_remainder-missing field 'remainder'": (_drop_remainder, "missing field 'clusters'"),
    "_cluster_without_witnesses-missing field 'witnesses'": (
        _cluster_without_a_center,
        "missing field 'center'",
    ),
    "_empty_witnesses-has no witnesses": (_first_cluster_emptied, "cluster 0 has no witnesses"),
    "_flip_side-disagrees with its witnesses": (_flip_side, "disagrees with its witnesses"),
    "_image_row_missing-image points of shape": (_image_row_missing, "does not match the grid"),
    "_nan_image_point-image points are not all finite": (
        _nan_image_point,
        "image points are not all finite",
    ),
    "_short_center-center has 1 coordinates, not 2": (
        _short_center,
        "cluster 0 center has 1 coordinates, not 2",
    ),
}


@pytest.mark.parametrize("case", list(BAD_MODEL_BODY))
def test_malformed_model_body_is_a_usage_error(tmp_path, small_model_file, case, capsys):
    damage, message = BAD_MODEL_BODY[case]
    header, image, labels = split_cptf2(Path(small_model_file).read_bytes())
    assert header["label_dtype"] == "<u1" and header["image_shape"][1] == 2
    bad = tmp_path / "bad.cptf"
    bad.write_bytes(damage(header, image, labels))
    capsys.readouterr()
    fn = write_json(tmp_path / "f.json", {"kind": "cos", "a": 2.0, "b": 0.0})
    assert run(["extend-check", "--model", str(bad), "--function", fn]) == 2
    err = _one_line_error(capsys)
    assert str(bad) in err and message in err
    assert run(["remainder", "--model", str(bad)]) == 2
    assert message in _one_line_error(capsys)


@pytest.fixture(scope="module")
def damage_dir(tmp_path_factory):
    """A directory holding a SMALL tanh+cos CPTF2 file and a probe function."""
    root = tmp_path_factory.mktemp("damage")
    family = write_json(root / "family.json", [{"kind": "tanh"}, {"kind": "cos"}])
    assert run(["build", "--family", family, "--out", str(root / "good.cptf"), *SMALL_FLAGS,
                "--json-report", str(root / "build.json")]) == 0
    write_json(root / "f.json", {"kind": "cos", "a": 2.0, "b": 0.5})
    return root


def _strict_json(text: str):
    def refuse(constant):
        raise ValueError(f"{constant} is not strict JSON")

    return json.loads(text, parse_constant=refuse)


def _known_exit(argv: list[str], report: Path) -> tuple[int, str]:
    """Run one command in process, warnings as errors, and check that it
    ends in a known exit: 2 with one stderr line and no report, or 0, 3 or
    4 with no stderr and a strict-JSON report.  Returns the code and stderr."""
    report.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run([*argv, "--json-report", str(report)])
    err = err.getvalue()
    assert code in (0, 2, 3, 4)
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1
        # The report encoder's refusal: a result held a non-finite value.
        assert "not JSON compliant" not in err
        assert not report.exists()
    else:
        assert err == ""
        _strict_json(report.read_text())
    return code, err


@settings(max_examples=60, deadline=2000, derandomize=True, database=None)
@given(
    kind=st.sampled_from(["truncate", "flip header", "flip body", "non-finite image"]),
    where=st.integers(0, 2**32),
    bit=st.integers(0, 7),
    value=st.sampled_from([math.nan, math.inf, -math.inf]),
)
def test_damaged_model_bytes_end_in_a_known_exit(damage_dir, kind, where, bit, value):
    blob = (damage_dir / "good.cptf").read_bytes()
    header, image, labels = split_cptf2(blob)
    body = len(blob) - len(image) - len(labels)  # the first byte after the header
    if kind == "truncate":
        blob = blob[: where % len(blob)]
    elif kind == "non-finite image":
        blob = _image_float_set(where % (len(image) // 8), value)(header, image, labels)
    else:
        i = where % body if kind == "flip header" else body + where % (len(blob) - body)
        blob = blob[:i] + bytes([blob[i] ^ (1 << bit)]) + blob[i + 1 :]
    bad = damage_dir / "bad.cptf"
    bad.write_bytes(blob)
    for argv in (["remainder", "--model", str(bad)],
                 ["extend-check", "--model", str(bad), "--function", str(damage_dir / "f.json")]):
        code, err = _known_exit(argv, damage_dir / "report.json")
        if code == 2:
            assert err.startswith(f"error: {bad}: ")
        if kind == "non-finite image":
            assert code == 2 and "image points are not all finite" in err


@settings(max_examples=40, deadline=2000, derandomize=True, database=None)
@given(obj=descriptor_json(NUMBERS, JUNK_VALUES, depth=2))  # degrees of at most 8, shallow
def test_random_functions_end_in_a_known_exit(damage_dir, obj):
    fn = damage_dir / "random.json"
    fn.write_text(json.dumps(obj))
    argv = ["extend-check", "--model", str(damage_dir / "good.cptf"), "--function", str(fn)]
    _known_exit(argv, damage_dir / "random-report.json")


def _comma_joined(fields):
    return st.lists(fields, max_size=5).map(",".join)


# Flag values for --deltas: valid, non-finite, negative, out of order, junk.
_RADII = st.sampled_from(
    ["0.2", "0.1", "0.05", "0.01", "1e-3", "2", "0", "-0.1", "nan", "inf", "-inf", "1e400", ""]
) | st.text("0123456789.e-+naif x", max_size=6)
# Criterion ids: 1-3, which build no model, unknown ones, and junk without
# digits, so that no field can name criteria 4-10.
_CRITERIA = st.sampled_from(["1", "2", "3", "0", "11", "99", "-1", ""]) | st.text("abx-+. _", max_size=4)
_DIMS = st.integers(-2, 8) | st.sampled_from([cli.MAX_METRIC_DIMS + 1, 10**6])
_PAIRS = st.integers(-2, 200) | st.sampled_from([cli.MAX_METRIC_VALUES + 1, 10**12])
_R = st.floats() | st.sampled_from([0.0, -0.3, math.inf, math.nan, 5e-324, 1e300])


@settings(max_examples=120, deadline=2000, derandomize=True, database=None)
@given(
    argv=st.one_of(
        _comma_joined(_RADII).map(lambda d: ["extend-check", f"--deltas={d}"]),
        _comma_joined(_CRITERIA).map(lambda c: ["verify", f"--criteria={c}"]),
        st.builds(
            lambda dims, pairs, r: ["metric-check", f"--dims={dims}", f"--pairs={pairs}", f"--r={r!r}"],
            _DIMS, _PAIRS, _R,
        ),
    )
)
def test_random_flag_values_end_in_a_known_exit(damage_dir, argv):
    report = damage_dir / "flags-report.json"
    if argv[0] != "extend-check":
        _known_exit(argv, report)
        return
    flag = argv[1].removeprefix("--deltas=")
    argv = [*argv, "--model", str(damage_dir / "good.cptf"), "--function", str(damage_dir / "f.json")]
    if _known_exit(argv, report)[0] != 2:
        # A radius list that ran is the one given, never the default.
        expected = [float(v) for v in flag.split(",")] if flag else []
        assert _strict_json(report.read_text())["config"]["deltas"] == expected


def test_extend_check_rejects_nan_radii(tmp_path, small_model_file, capsys):
    fn = write_json(tmp_path / "f.json", {"kind": "cos", "a": 2.0, "b": 0.0})
    capsys.readouterr()
    argv = ["extend-check", "--model", small_model_file, "--function", fn]
    assert run([*argv, "--deltas", "0.2,nan,0.01"]) == 2
    assert "probe radii must be positive" in _one_line_error(capsys)
    # An infinite radius is refused before the check runs, not by the
    # report encoder after it.
    for deltas in ("1e400", "0.2,inf,0.01"):
        assert run([*argv, "--deltas", deltas]) == 2
        assert "probe radii must be positive and finite" in _one_line_error(capsys)
    # An empty list is not an absent flag: it never runs the default ladder.
    assert run([*argv, "--deltas", ""]) == 2
    assert "need at least one probe radius" in _one_line_error(capsys)


def test_extend_check_bounds_the_radius_ladder(tmp_path, small_model_file, capsys, monkeypatch):
    fn = write_json(tmp_path / "f.json", {"kind": "cos", "a": 2.0, "b": 0.0})
    report = tmp_path / "report.json"
    argv = ["extend-check", "--model", small_model_file, "--function", fn, "--json-report", str(report)]
    ladder = ",".join(repr(d) for d in np.geomspace(0.5, 0.01, MAX_DELTAS + 1).tolist())
    # At the bound the check runs; its verdict does not matter here.
    assert run([*argv, "--deltas", ladder.rsplit(",", 1)[0]]) != 2
    assert len(_strict_json(report.read_text())["config"]["deltas"]) == MAX_DELTAS
    report.unlink()
    capsys.readouterr()
    # One past it, nothing is computed and no report is written.
    monkeypatch.setattr(extension, "_witness_shells", lambda *args: pytest.fail("computed"))
    assert run([*argv, "--deltas", ladder]) == 2
    assert f"at most {MAX_DELTAS} probe radii, got {MAX_DELTAS + 1}" in _one_line_error(capsys)
    assert not report.exists()


@pytest.mark.parametrize("ids", ["99", "1,1", "0,42", ""])
def test_verify_rejects_unknown_and_repeated_criteria(ids, capsys):
    assert run(["verify", "--criteria", ids]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "criteria must be distinct known ids" in captured.err


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
    argv = ["compare", "--larger", small_model_file, "--smaller", small_model_file]
    assert run([*argv, "--json-report", str(out)]) == 0
    report = json.loads(out.read_text())
    assert set(report) == {"header", "config", "result"}
    assert set(report["header"]) == {"timestamp", "elapsed_seconds"}
    assert report["config"] == {
        "command": "compare",
        "larger": small_model_file,
        "smaller": small_model_file,
        "seed": 7,
        "workers": 1,
    }


def test_reports_are_strict_json():
    with pytest.raises(ValueError, match="JSON compliant"):
        cli._emit({"value": math.nan}, {}, 0.0, None)


def _body(path) -> dict:
    report = json.loads(path.read_text())
    del report["header"]
    return report


def test_runs_share_one_parser(tmp_path):
    parser = cli.build_parser()
    misses = cli.build_parser.cache_info().misses
    assert run(["metric-check", "--pairs", "50", "--json-report", str(tmp_path / "a.json")]) == 0
    assert run(["verify", "--criteria", "1"]) == 0
    assert cli.build_parser() is parser
    assert cli.build_parser.cache_info().misses == misses


@pytest.mark.parametrize(
    "bad",
    [
        ["metric-check", "--bogus"],
        ["metric-check", "--dims", "3", "--pairs", "x"],
        ["metric-check", "--dims", "3", "--seed", "9", "--r"],
        ["verify", "--all", "--criteria", "1"],
        ["compare", "--larger", "m"],
        [],
    ],
)
def test_a_refused_flag_leaves_the_next_run_unchanged(tmp_path, bad, capsys):
    argv = ["metric-check", "--pairs", "200"]
    assert run([*argv, "--json-report", str(tmp_path / "before.json")]) == 0
    assert run(bad) == 2
    _one_line_error(capsys)
    assert run([*argv, "--json-report", str(tmp_path / "after.json")]) == 0
    after = _body(tmp_path / "after.json")
    assert after == _body(tmp_path / "before.json")
    assert after["config"]["dims"] == 5 and after["config"]["seed"] == 7


def test_patched_commands_bite_through_the_shared_parser(monkeypatch, capsys):
    cli.build_parser()  # built before the patch, as in a long-lived process
    monkeypatch.setattr(cli, "metric_sample", _refuse_to_sample)
    assert run(["metric-check", "--pairs", "50"]) == 2
    assert "sampling reached" in _one_line_error(capsys)


@pytest.mark.parametrize(
    "degree, message",
    [
        (math.inf, "must be a finite integer, got inf"),  # written as Infinity
        (2.7, "must be a finite integer, got 2.7"),
        (MAX_CHEB_DEGREE + 1, f"exceeds MAX_CHEB_DEGREE = {MAX_CHEB_DEGREE}"),
    ],
)
def test_bad_chebyshev_degrees_are_usage_errors(tmp_path, degree, message, capsys):
    cheb = {"kind": "cheb", "n": degree, "inner": {"kind": "cos"}}
    fam = write_json(tmp_path / "family.json", [{"kind": "tanh"}, cheb])
    out = tmp_path / "m.cptf"
    assert run(["build", "--family", fam, "--out", str(out), *SMALL_FLAGS]) == 2
    assert message in _one_line_error(capsys)
    assert not out.exists()


def _nested_affine(depth: int) -> str:
    # JSON text, since json.dumps itself recurses once per level
    return '{"kind": "affine", "inner": ' * (depth - 1) + '{"kind": "tanh"}' + "}" * (depth - 1)


@pytest.mark.parametrize(
    "depth, message",
    [
        (MAX_DESCRIPTOR_DEPTH + 1, f"exceeds MAX_DESCRIPTOR_DEPTH = {MAX_DESCRIPTOR_DEPTH}"),
        (900, f"exceeds MAX_DESCRIPTOR_DEPTH = {MAX_DESCRIPTOR_DEPTH}"),
        (100_000, "JSON nested too deeply to decode"),
    ],
)
def test_deeply_nested_descriptors_are_usage_errors(tmp_path, small_model_file, depth, message, capsys):
    text = _nested_affine(depth)
    fam = tmp_path / "family.json"
    fam.write_text(f"[{text}]")
    out = tmp_path / "m.cptf"
    capsys.readouterr()
    assert run(["build", "--family", str(fam), "--out", str(out), *SMALL_FLAGS]) == 2
    assert message in _one_line_error(capsys)
    assert not out.exists()
    fn = tmp_path / "f.json"
    fn.write_text(text)
    assert run(["extend-check", "--model", small_model_file, "--function", str(fn)]) == 2
    assert message in _one_line_error(capsys)
    header, image, labels = split_cptf2(Path(small_model_file).read_bytes())
    head = json.dumps({**header, "family": "FAMILY"}).replace('"FAMILY"', f"[{text}]").encode()
    bad = tmp_path / "bad.cptf"
    bad.write_bytes(b"CPTF2\n" + struct.pack("<Q", len(head)) + head + image + labels)
    assert run(["remainder", "--model", str(bad)]) == 2
    err = _one_line_error(capsys)
    assert str(bad) in err and message in err


def test_descriptors_at_the_depth_bound_build(tmp_path):
    fam = tmp_path / "family.json"
    fam.write_text(f"[{_nested_affine(MAX_DESCRIPTOR_DEPTH)}]")
    assert run(["build", "--family", str(fam), "--out", str(tmp_path / "m.cptf"), *SMALL_FLAGS]) == 0


@pytest.mark.parametrize("kind", ["tanh", "cos"])
def test_an_overflowing_phase_builds_without_warnings(tmp_path, kind, capsys):
    fam = write_json(tmp_path / "family.json", [{"kind": "tanh"}, {"kind": kind, "a": 1e308}])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["build", "--family", fam, "--out", str(tmp_path / "m.cptf"), *SMALL_FLAGS]) == 0
    assert capsys.readouterr().err == ""


def test_an_affine_range_that_overflows_is_a_usage_error(tmp_path, small_model_file, capsys):
    affine = {"kind": "affine", "inner": {"kind": "tanh"}, "scale": 1e308, "shift": 1e308}
    fam = write_json(tmp_path / "family.json", [{"kind": "tanh"}, affine])
    fn = write_json(tmp_path / "f.json", affine)
    out = tmp_path / "m.cptf"
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["build", "--family", fam, "--out", str(out), *SMALL_FLAGS]) == 2
        assert "AffineImage range [0.0, inf] is not finite" in _one_line_error(capsys)
        assert run(["extend-check", "--model", small_model_file, "--function", fn]) == 2
        assert "AffineImage range [0.0, inf] is not finite" in _one_line_error(capsys)
    assert not out.exists()


def test_an_extend_check_of_a_huge_constant_reports_its_value(tmp_path, small_model_file, capsys):
    # The extremes are finite, but their sum is not.
    fn = write_json(tmp_path / "f.json", {"kind": "const", "c": 1e308})
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["extend-check", "--model", small_model_file, "--function", fn]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    result = json.loads(captured.out)["result"]
    assert result["verdict"] == "extends_numerically"
    assert set(result["values"].values()) == {1e308}
    rows = [row for table in result["tables"].values() for row in table if row["count"]]
    assert rows and all(row["midpoint"] == 1e308 and row["oscillation"] == 0.0 for row in rows)


def test_an_affine_range_wider_than_a_float_is_a_usage_error(tmp_path, small_model_file, capsys):
    affine = {"kind": "affine", "inner": {"kind": "cos", "a": 1.5}, "scale": 1e308}
    fn = write_json(tmp_path / "f.json", affine)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["extend-check", "--model", small_model_file, "--function", fn]) == 2
    err = _one_line_error(capsys)
    assert "AffineImage range [-1e+308, 1e+308] is wider than the largest float" in err


def test_a_chebyshev_range_that_overflows_is_a_usage_error(tmp_path, capsys):
    inner = {"kind": "affine", "inner": {"kind": "tanh"}, "scale": 1e10}
    fam = write_json(tmp_path / "family.json", [{"kind": "tanh"}, {"kind": "cheb", "n": 100, "inner": inner}])
    out = tmp_path / "m.cptf"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["build", "--family", fam, "--out", str(out), *SMALL_FLAGS]) == 2
    err = _one_line_error(capsys)
    assert "Chebyshev degree 100 overflows on the inner range [-10000000000.0, 10000000000.0]" in err
    assert not out.exists()


def test_verify_records_criteria_in_run_order(tmp_path):
    out = tmp_path / "r.json"
    assert run(["verify", "--criteria", "3,1", "--json-report", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["config"]["criteria"] == [1, 3]
    assert [c["id"] for c in report["result"]["criteria"]] == [1, 3]


@pytest.mark.parametrize(
    "argv, message",
    [
        *(
            pytest.param(["--levels", str(n)], "--levels", id=str(n))
            for n in (0, cli.MAX_CHAIN_LEVELS + 1, 10**6)
        ),
        # Bad params are refused before the output directory is made.
        pytest.param(["--levels", "2", "--grid-step", "150"], "image grid is empty", id="grid-step"),
        pytest.param(
            ["--levels", "2", "--cluster-radius", "-1"],
            "cluster_radius must be positive",
            id="cluster-radius",
        ),
    ],
)
def test_chain_demo_bounds_its_levels_before_building(tmp_path, monkeypatch, capsys, argv, message):
    def refuse(*args, **kwargs):
        raise AssertionError("chain-demo built a level")

    monkeypatch.setattr(cli, "build_compactification", refuse)
    out_dir = tmp_path / "chain"
    assert run(["chain-demo", *argv, "--out-dir", str(out_dir)]) == 2
    assert message in _one_line_error(capsys)
    assert not list(tmp_path.glob("**/level_*.cptf"))
    assert not out_dir.exists()


@pytest.fixture()
def unseeded_argv(tmp_path, small_model_file):
    """Each command that draws no random numbers, with every file it
    writes beside the report under tmp_path/out."""
    fam = write_json(tmp_path / "fam.json", [{"kind": "tanh", "a": 1.0, "b": 0.0}])
    fn = write_json(tmp_path / "f.json", {"kind": "cos", "a": 2.0, "b": 0.0})
    out = tmp_path / "out"
    return {
        "build": ["build", "--family", fam, "--out", str(out), *SMALL_FLAGS],
        "extend-check": ["extend-check", "--model", small_model_file, "--function", fn],
        "compare": ["compare", "--larger", small_model_file, "--smaller", small_model_file],
        "enlarge": ["enlarge", "--model", small_model_file, "--function", fn, "--out", str(out)],
        "remainder": ["remainder", "--model", small_model_file, "--csv", str(out)],
        "chain-demo": ["chain-demo", "--levels", "1", "--out-dir", str(out), *SMALL_FLAGS],
    }


@pytest.mark.parametrize(
    "command", ["build", "extend-check", "compare", "enlarge", "remainder", "chain-demo"]
)
def test_only_seeded_commands_take_a_seed(tmp_path, unseeded_argv, command, capsys):
    argv = unseeded_argv[command]
    report = tmp_path / "r.json"
    capsys.readouterr()
    assert run([*argv, "--seed", "3", "--json-report", str(report)]) == 2
    assert "unrecognized arguments: --seed 3" in _one_line_error(capsys)
    assert not report.exists()
    assert not (tmp_path / "out").exists()
    assert run([*argv, "--json-report", str(report)]) in (0, 3)
    assert json.loads(report.read_text())["config"]["seed"] == 7


@pytest.mark.parametrize(
    "argv",
    [["metric-check", "--pairs", "200"], ["verify", "--criteria", "2"]],
)
def test_seeded_commands_change_with_their_seed(tmp_path, argv):
    results = []
    for seed in ("7", "3"):
        report = tmp_path / f"r{seed}.json"
        assert run([*argv, "--seed", seed, "--json-report", str(report)]) == 0
        body = json.loads(report.read_text())
        assert body["config"]["seed"] == int(seed)
        # verify echoes its seed in the result too; the measured values
        # must move without it
        results.append({k: v for k, v in body["result"].items() if k != "seed"})
    assert results[0] != results[1]
