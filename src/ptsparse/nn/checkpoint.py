"""Self-describing binary containers: 8-byte magic | uint64 little-endian
header length | UTF-8 JSON header | payload.

A checkpoint (``PTSNET01``) lists layer specs and per array (layer, name,
shape, offset) over raw little-endian float64, bit-exact at 64-bit; a mask
file (``PTSMSK01``) lists per layer (layer, shape, nnz, offset, nbytes) over
bit-packed masks. Every file is written to a temporary name next to its
target and renamed over it, so a reader never sees a half-written file.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct

import numpy as np

from .layers import LAYER_KINDS, Layer
from .network import Network

MAGIC = b"PTSNET01"
MASK_MAGIC = b"PTSMSK01"


class CheckpointError(ValueError):
    """A container file that is truncated, corrupt or inconsistent."""


@contextlib.contextmanager
def atomic_write(path, mode: str = "w", **kwargs):
    """Open a temporary file in path's directory, made if missing; on success
    it replaces path, on any error it is removed and path keeps its content."""
    tmp = f"{os.fspath(path)}.tmp{os.getpid()}"
    os.makedirs(os.path.dirname(os.path.abspath(tmp)), exist_ok=True)
    try:
        with open(tmp, mode, **kwargs) as f:
            yield f
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_container(path, magic: bytes, header: dict, blobs) -> None:
    """``magic | u64 length | JSON | payload``: the inverse of read_container.
    blobs are bytes-like objects written in order as the payload."""
    head = json.dumps(header, sort_keys=True).encode()
    with atomic_write(path, "wb") as f:
        f.write(magic)
        f.write(struct.pack("<Q", len(head)))
        f.write(head)
        for b in blobs:
            f.write(b)


def index_blobs(entries) -> tuple[list[dict], list[bytes]]:
    """The header records and payload blobs of (record, blob) pairs: each
    record gains its blob's payload offset and nbytes, which payload_slice
    reads back."""
    records, blobs, offset = [], [], 0
    for rec, blob in entries:
        records.append({**rec, "offset": offset, "nbytes": len(blob)})
        blobs.append(blob)
        offset += len(blob)
    return records, blobs


def save_network(net: Network, path) -> None:
    arrays, blobs = index_blobs(
        ({"layer": i, "name": name, "shape": list(arr.shape)},
         np.ascontiguousarray(arr, dtype="<f8").tobytes())
        for i, layer in enumerate(net.layers)
        for name, arr in sorted(layer.params().items()))
    write_container(path, MAGIC, {"layers": [l.spec() for l in net.layers],
                                  "arrays": arrays}, blobs)


def read_container(path, magic: bytes) -> tuple[dict, memoryview]:
    """Split a ``magic | u64 length | JSON | payload`` file into its header
    and payload; any mismatch or truncation raises CheckpointError."""
    with open(path, "rb") as f:
        head = f.read(len(magic))
        if head != magic:
            raise CheckpointError(f"bad magic {head!r}")
        raw = f.read(8)
        if len(raw) < 8:
            raise CheckpointError("truncated header length")
        (hlen,) = struct.unpack("<Q", raw)
        left = os.fstat(f.fileno()).st_size - f.tell()  # read(hlen) would allocate hlen
        if left < hlen:
            raise CheckpointError(f"truncated header: {left} of {hlen} bytes")
        text = f.read(hlen)
        payload = memoryview(f.read())
    try:
        header = json.loads(text.decode())
    except ValueError as exc:
        raise CheckpointError(f"unreadable header: {exc}") from exc
    if not isinstance(header, dict):
        raise CheckpointError("header is not a JSON object")
    return header, payload


def _uint(value, what: str, least: int = 0) -> int:
    """A header integer: a JSON integer >= least, never a float, string or
    bool, which int() would coerce; else CheckpointError."""
    if type(value) is not int or value < least:
        raise CheckpointError(f"{what} {value!r} is not an integer >= {least}")
    return value


def layer_from_spec(spec: dict) -> Layer:
    """The layer a spec() describes, parameters zeroed; keys beyond the
    kind's SPEC are ignored. Each SPEC value is an integer >= 1 (padding >= 0)."""
    kind = spec["kind"]
    if kind not in LAYER_KINDS:
        raise CheckpointError(f"unknown layer kind {kind!r}")
    cls = LAYER_KINDS[kind]
    return cls(*(_uint(spec[k], k, least=0 if k == "padding" else 1) for k in cls.SPEC))


def payload_slice(payload: memoryview, rec: dict) -> memoryview:
    """The bytes one header record points at; raises CheckpointError when
    the payload ends early."""
    offset, nbytes = _uint(rec["offset"], "offset"), _uint(rec["nbytes"], "nbytes")
    if offset + nbytes > len(payload):
        raise CheckpointError(f"record at {offset}+{nbytes} exceeds the "
                              f"{len(payload)}-byte payload")
    return payload[offset:offset + nbytes]


def load_network(path) -> Network:
    header, payload = read_container(path, MAGIC)
    try:
        net = Network([layer_from_spec(s) for s in header["layers"]])
        wanted = {(i, name) for i, layer in enumerate(net.layers) for name in layer.params()}
        named = [(_uint(rec["layer"], "layer"), rec["name"]) for rec in header["arrays"]]
        if len(named) != len(wanted) or set(named) != wanted:
            raise CheckpointError(f"the array records do not name each of the "
                                  f"{len(wanted)} layer parameters exactly once")
        for rec in header["arrays"]:
            layer = net.layers[rec["layer"]]
            shape = layer.params()[rec["name"]].shape
            if tuple(_uint(d, "shape entry") for d in rec["shape"]) != shape:
                raise CheckpointError(f"layer {rec['layer']} {rec['name']}: shape "
                                      f"{tuple(rec['shape'])}, spec wants {shape}")
            arr = np.frombuffer(payload_slice(payload, rec), dtype="<f8")
            setattr(layer, rec["name"], arr.reshape(shape).copy())
    except CheckpointError:
        raise
    except (KeyError, IndexError, TypeError, ValueError, MemoryError) as exc:
        raise CheckpointError(f"malformed checkpoint header: {exc!r}") from exc
    return net


def save_masks(masks: dict[int, np.ndarray], path) -> None:
    """Bit-packed binary masks, one record per layer."""
    index, blobs = index_blobs(
        ({"layer": i, "shape": list(m.shape), "nnz": int(m.sum())},
         np.packbits(m.astype(np.uint8).ravel()).tobytes())
        for i, m in sorted(masks.items()))
    write_container(path, MASK_MAGIC, {"masks": index}, blobs)


def load_masks(path) -> dict[int, np.ndarray]:
    """Masks written by save_masks; a corrupt or truncated file, a record
    integer that is not an int >= 0, a layer named twice, or an nnz that is not
    the count of set bits raises CheckpointError."""
    header, payload = read_container(path, MASK_MAGIC)
    masks = {}
    try:
        for rec in header["masks"]:
            layer = _uint(rec["layer"], "layer")
            if layer in masks:
                raise CheckpointError(f"mask record for layer {layer}: repeated")
            shape = tuple(_uint(d, "shape entry") for d in rec["shape"])
            size = math.prod(shape)
            packed = np.frombuffer(payload_slice(payload, rec), dtype=np.uint8)
            if packed.size != -(-size // 8):
                raise CheckpointError(f"layer {layer}: {packed.size} packed "
                                      f"bytes for {size} mask bits")
            bits = np.unpackbits(packed)[:size]
            if _uint(rec["nnz"], "nnz") != np.count_nonzero(bits):
                raise CheckpointError(f"layer {layer}: nnz {rec['nnz']} is not the mask's "
                                      f"set-bit count {np.count_nonzero(bits)}")
            masks[layer] = bits.astype(np.float64).reshape(shape)
    except CheckpointError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed mask header: {exc!r}") from exc
    return masks
