"""IDX writer for building test inputs: the inverse of ptsparse.data.load_idx."""

import struct

import numpy as np

from ptsparse.data import IDX_DTYPES, IdxFormatError

IDX_CODES = {v.base.str.lstrip("><=|"): k for k, v in IDX_DTYPES.items()}


def save_idx(path, arr: np.ndarray) -> None:
    key = arr.dtype.str.lstrip("><=|")
    if key not in IDX_CODES:
        raise IdxFormatError(f"dtype {arr.dtype} not representable in IDX")
    code = IDX_CODES[key]
    with open(path, "wb") as f:
        f.write(bytes([0, 0, code, arr.ndim]))
        f.write(struct.pack(f">{arr.ndim}I", *arr.shape))
        f.write(np.ascontiguousarray(arr, dtype=IDX_DTYPES[code]).tobytes())
