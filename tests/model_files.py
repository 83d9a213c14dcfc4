"""Model-file helpers for the tests."""
from __future__ import annotations

import json
import struct

from compactify.compactification import MODEL_MAGIC


def split_cptf2(blob: bytes) -> tuple[dict, bytes, bytes]:
    """Header, image section and label section of a CPTF2 file."""
    assert blob.startswith(MODEL_MAGIC)
    (n,) = struct.unpack("<Q", blob[6:14])
    header = json.loads(blob[14 : 14 + n])
    rows, dim = header["image_shape"]
    raw = blob[14 + n :]
    return header, raw[: rows * dim * 8], raw[rows * dim * 8 :]
