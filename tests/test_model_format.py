"""The CPTF2 model format."""
from __future__ import annotations

import dataclasses
import json
import math
import re
import struct

import numpy as np
import pytest

from compactify.acceptance import ONE_POINT_FAMILY, TWO_COORD_FAMILY, TWO_POINT_FAMILY, chain_family
from compactify.compactification import (
    MODEL_MAGIC,
    CompactificationModel,
    RemainderCluster,
    _label_dtype,
    build_compactification,
    closure_membership,
    load_model,
    save_model,
)
from compactify.extension import Verdict, check_extendability
from compactify.functions import Cos

from conftest import SMALL
from model_files import split_cptf2

FAMILIES = {
    "1-coord": TWO_POINT_FAMILY,
    "2-coord": TWO_COORD_FAMILY,
    "5-coord": chain_family(5),
    "stereographic": ONE_POINT_FAMILY,
}


def assert_same_model(a: CompactificationModel, b: CompactificationModel) -> None:
    assert a.family == b.family
    assert a.params == b.params
    assert np.array_equal(a.image_params, b.image_params)
    assert np.array_equal(a.image_points, b.image_points)
    assert len(a.remainder) == len(b.remainder)
    for x, y in zip(a.remainder, b.remainder):
        assert (x.cluster_id, x.side) == (y.cluster_id, y.side)
        assert np.array_equal(x.center, y.center)
        assert np.array_equal(x.witnesses, y.witnesses)
        assert x.witnesses.dtype == y.witnesses.dtype == np.float64


@pytest.mark.parametrize("window", ["default", "small"])
@pytest.mark.parametrize("kind", list(FAMILIES))
def test_cptf2_round_trips_the_model(ctx, tmp_path, kind, window):
    family = FAMILIES[kind]
    model = ctx.model(family) if window == "default" else build_compactification(family, SMALL)
    save_model(model, tmp_path / "m.cptf")
    assert (tmp_path / "m.cptf").read_bytes().startswith(b"CPTF2\n")
    assert_same_model(load_model(tmp_path / "m.cptf"), model)


def test_cluster_indices_are_the_cluster_ids_of_a_loaded_model(gamma_model, tmp_path):
    save_model(gamma_model, tmp_path / "m.cptf")
    model = load_model(tmp_path / "m.cptf")
    ids = [c.cluster_id for c in model.remainder]
    report = check_extendability(model, Cos(math.sqrt(2.0), 0.0))
    assert report.verdict is Verdict.FAILS_TO_EXTEND
    assert list(report.tables) == ids
    failing = model.remainder[report.failing_cluster]
    assert failing.cluster_id == report.failing_cluster
    assert report.tables[failing.cluster_id][-1].oscillation == report.oscillation
    members = [closure_membership(model, c.center_point(model.space), 1e-9) for c in model.remainder]
    assert [(m.kind, m.cluster_id) for m in members] == [("remainder", cid) for cid in ids]


def test_five_coordinate_file_is_under_five_megabytes(ctx, tmp_path):
    save_model(ctx.model(chain_family(5)), tmp_path / "m.cptf")
    assert (tmp_path / "m.cptf").stat().st_size <= 5_000_000


def test_a_saved_model_saves_to_the_same_bytes(small_gamma, tmp_path):
    save_model(small_gamma, tmp_path / "a.cptf")
    save_model(load_model(tmp_path / "a.cptf"), tmp_path / "b.cptf")
    assert (tmp_path / "a.cptf").read_bytes() == (tmp_path / "b.cptf").read_bytes()


def test_label_dtype_is_the_smallest_that_holds_the_clusters():
    assert [_label_dtype(k) for k in (1, 256, 257, 65536, 65537, 2**25)] == [
        "<u1", "<u1", "<u2", "<u2", "<u4", "<u4",
    ]


def _singletons(model: CompactificationModel) -> CompactificationModel:
    """The model with every tail parameter its own cluster."""
    tail = np.concatenate([c.witnesses for c in model.remainder])
    tail.sort()
    clusters = tuple(
        RemainderCluster(i, np.full(model.dim, 0.5), "+inf" if w > 0 else "-inf", tail[i : i + 1])
        for i, w in enumerate(tail)
    )
    return dataclasses.replace(model, remainder=clusters)


def test_more_than_256_clusters_take_two_byte_labels(small_two_point, tmp_path):
    many = _singletons(small_two_point)
    assert len(many.remainder) > 256
    save_model(many, tmp_path / "m.cptf")
    header, _, labels = split_cptf2((tmp_path / "m.cptf").read_bytes())
    assert header["label_dtype"] == "<u2"
    assert len(labels) == 2 * len(many.remainder)
    assert_same_model(load_model(tmp_path / "m.cptf"), many)


def _with_cluster(model, i, **changes):
    remainder = list(model.remainder)
    remainder[i] = dataclasses.replace(remainder[i], **changes)
    return dataclasses.replace(model, remainder=tuple(remainder))


def _move_first_witness(model):
    a, b = model.remainder[0], model.remainder[1]
    model = _with_cluster(model, 0, witnesses=a.witnesses[1:])
    return _with_cluster(model, 1, witnesses=np.concatenate([b.witnesses, a.witnesses[:1]]))


def _image_point_set(model, value):
    points = model.image_points.copy()
    points[3, 1] = value
    return dataclasses.replace(model, image_points=points)


# Damage a model cannot carry: each is refused when the damaged model is
# made, with the message load_model gives for the same damage in a file.
INVALID = {
    "an empty cluster": (
        lambda m: dataclasses.replace(
            m,
            remainder=m.remainder
            + (RemainderCluster(len(m.remainder), m.remainder[0].center, "+inf", np.empty(0)),),
        ),
        "has no witnesses",
    ),
    "a side that disagrees": (
        lambda m: _with_cluster(m, 0, side="both"),
        "cluster 0 side 'both' disagrees with its witnesses",
    ),
    "cluster ids out of order": (
        lambda m: _with_cluster(m, 0, cluster_id=1),
        "cluster ids must run 0..k-1",
    ),
    "a float cluster id": (
        lambda m: _with_cluster(m, 1, cluster_id=1.0),
        "cluster ids must run 0..k-1",
    ),
    "image points of the wrong shape": (
        lambda m: dataclasses.replace(m, image_points=m.image_points[:-1]),
        "image points of shape",
    ),
    "a NaN image point": (
        lambda m: _image_point_set(m, math.nan),
        "image points are not all finite",
    ),
    "an infinite center": (
        lambda m: _with_cluster(m, 1, center=np.full(m.dim, math.inf)),
        "cluster 1 center is not finite",
    ),
    "a center short of a coordinate": (
        lambda m: _with_cluster(m, 2, center=m.remainder[2].center[:1]),
        "cluster 2 center has 1 coordinates, not 2",
    ),
    "a 2-D center": (
        lambda m: _with_cluster(m, 1, center=m.remainder[1].center[None, :]),
        "cluster 1 center has shape (1, 2), not (2,)",
    ),
    "no clusters": (
        lambda m: dataclasses.replace(m, remainder=()),
        "model has no remainder clusters",
    ),
}


@pytest.mark.parametrize("case", list(INVALID))
def test_a_model_is_refused_when_made_if_it_breaks_an_invariant(small_gamma, case):
    damage, message = INVALID[case]
    with pytest.raises(ValueError, match=re.escape(message)):
        damage(small_gamma)


# Models that are valid but that CPTF2 cannot reproduce exactly.
UNENCODABLE = {
    "a witness dropped": (
        lambda m: _with_cluster(m, 0, witnesses=m.remainder[0].witnesses[1:]),
        "do not tile the tail grid",
    ),
    "a witness doubled": (
        lambda m: _with_cluster(m, 0, witnesses=np.repeat(m.remainder[0].witnesses, 2)),
        "do not tile the tail grid",
    ),
    "a witness off the grid": (
        lambda m: _with_cluster(m, 0, witnesses=m.remainder[0].witnesses + 1e-9),
        "do not tile the tail grid",
    ),
    "witnesses out of grid order": (
        lambda m: _with_cluster(m, 0, witnesses=m.remainder[0].witnesses[::-1]),
        "not in grid order",
    ),
    "a witness in the wrong place of another cluster": (_move_first_witness, "not in grid order"),
    "image parameters off the grid": (
        lambda m: dataclasses.replace(m, image_params=m.image_params * 1.5),
        "not the image grid",
    ),
}


@pytest.mark.parametrize("case", list(UNENCODABLE))
def test_save_refuses_a_model_it_cannot_encode_exactly(small_gamma, tmp_path, case):
    damage, message = UNENCODABLE[case]
    model = damage(small_gamma)
    path = tmp_path / "m.cptf"
    with pytest.raises(ValueError, match=message):
        save_model(model, path)
    assert not path.exists()


def test_an_oversized_header_length_is_refused_before_reading(small_gamma, tmp_path):
    save_model(small_gamma, tmp_path / "m.cptf")
    blob = (tmp_path / "m.cptf").read_bytes()
    bad = tmp_path / "bad.cptf"
    bad.write_bytes(MODEL_MAGIC + struct.pack("<Q", 2**64 - 1) + blob[14:])
    with pytest.raises(ValueError, match=re.escape(f"{bad}: malformed model file: header length")):
        load_model(bad)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_image_points_are_refused(small_gamma, tmp_path, value):
    path = tmp_path / "m.cptf"
    # Such a model cannot be made, so the float is set in a good file.
    save_model(small_gamma, path)
    blob = path.read_bytes()
    _, image, labels = split_cptf2(blob)
    at = len(blob) - len(image) - len(labels) + 8 * (3 * small_gamma.dim + 1)
    path.write_bytes(blob[:at] + struct.pack("<d", value) + blob[at + 8 :])
    with pytest.raises(ValueError, match=re.escape(f"{path}: malformed model file: image points are not all finite")):
        load_model(path)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_centers_are_refused(small_gamma, tmp_path, value):
    path = tmp_path / "m.cptf"
    save_model(small_gamma, path)
    header, image, labels = split_cptf2(path.read_bytes())
    header["clusters"][2]["center"][0] = value  # written as NaN or Infinity
    text = json.dumps(header).encode("utf-8")
    path.write_bytes(MODEL_MAGIC + struct.pack("<Q", len(text)) + text + image + labels)
    with pytest.raises(ValueError, match=re.escape(f"{path}: malformed model file: cluster 2 center is not finite")):
        load_model(path)
