"""Model-file helpers for the tests.

The CPTF1 writer is kept as an oracle for the current format.  CPTF1 is
the magic line ``CPTF1`` followed by a JSON body whose arrays are
base64-encoded little-endian float64; ``load_model`` still reads it.
"""
from __future__ import annotations

import base64
import json
import struct

import numpy as np

from compactify.compactification import MODEL_MAGIC


def encode_array(arr: np.ndarray) -> dict:
    data = np.ascontiguousarray(arr, dtype="<f8")
    return {
        "shape": list(data.shape),
        "data": base64.b64encode(data.tobytes()).decode("ascii"),
    }


def cptf1_body(model) -> dict:
    return {
        "family": model.family.to_json(),
        "params": model.params.to_json(),
        "image_params": encode_array(model.image_params),
        "image_points": encode_array(model.image_points),
        "remainder": [
            {
                "cluster_id": c.cluster_id,
                "side": c.side,
                "center": [float(v) for v in c.center],
                "witnesses": encode_array(c.witnesses),
            }
            for c in model.remainder
        ],
    }


def write_cptf1_body(body: dict, path) -> None:
    with open(path, "wb") as fh:
        fh.write(b"CPTF1\n")
        fh.write(json.dumps(body, sort_keys=True).encode("utf-8"))


def write_cptf1(model, path) -> None:
    write_cptf1_body(cptf1_body(model), path)


def split_cptf2(blob: bytes) -> tuple[dict, bytes, bytes]:
    """Header, image section and label section of a CPTF2 file."""
    assert blob.startswith(MODEL_MAGIC)
    (n,) = struct.unpack("<Q", blob[6:14])
    header = json.loads(blob[14 : 14 + n])
    rows, dim = header["image_shape"]
    raw = blob[14 + n :]
    return header, raw[: rows * dim * 8], raw[rows * dim * 8 :]
