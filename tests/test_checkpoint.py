"""Every rule by which nn/checkpoint.py rejects a container file, one row
each in RULES: a valid file, one edit, and the exact CheckpointError message
that load_network or load_masks then raises. A new rule adds a row here; the
CLI tests check only the route by which such an error reaches exit code 2."""

import json
import re
import struct

import numpy as np
import pytest

from conftest import tiny_conv
from ptsparse.nn import CheckpointError, load_masks, load_network, save_masks, save_network
from ptsparse.nn.checkpoint import MAGIC, MASK_MAGIC, read_container, write_container

# three mask records: layer 0 has one of its eight bits set, layer 3 all
# three, layer 5 none
MASKS = {0: np.array([[0, 1, 0, 0], [0, 0, 0, 0]], np.float64), 3: np.ones(3),
         5: np.zeros((2, 2))}

CONTAINERS = {  # container: (magic, writer of a valid file, loader)
    "checkpoint": (MAGIC, lambda path: save_network(tiny_conv(), path), load_network),
    "masks": (MASK_MAGIC, lambda path: save_masks(MASKS, path), load_masks),
}


def raw(fn):
    """An edit of the file's bytes."""
    return lambda path, magic: path.write_bytes(fn(path.read_bytes()))


def head(fn):
    """An edit of the header in place, the payload kept."""
    def edit(path, magic):
        header, payload = read_container(path, magic)
        fn(header)
        write_container(path, magic, header, [payload])
    return edit


def text(body: bytes):
    """The header replaced by body, the payload kept."""
    def edit(path, magic):
        payload = read_container(path, magic)[1]
        path.write_bytes(magic + struct.pack("<Q", len(body)) + body + payload)
    return edit


def spec(layer, **values):
    """tiny_conv's layer 0 is a Conv2d and its layer 3 an AvgPool."""
    return head(lambda h: h["layers"][layer].update(values))


def record(key, index, **values):
    return head(lambda h: h[key][index].update(values))


# int() would read a layer of 0.7 or False as layer 0 and a stride of true as
# 1, a file that loads
RULES = [
    # read_container
    ("checkpoint", raw(lambda b: b"PTSNET02" + b[8:]), "bad magic b'PTSNET02'"),
    ("masks", raw(lambda b: bytes(range(100))),
     "bad magic b'\\x00\\x01\\x02\\x03\\x04\\x05\\x06\\x07'"),
    ("checkpoint", raw(lambda b: b[:12]), "truncated header length"),
    ("checkpoint", raw(lambda b: MAGIC + struct.pack("<Q", 2**62) + b"{}"),
     f"truncated header: 2 of {2**62} bytes"),
    ("checkpoint", text(b"{"), "unreadable header: Expecting property name enclosed in "
                               "double quotes: line 1 column 2 (char 1)"),
    ("masks", text(b"[]"), "header is not a JSON object"),
    # _uint, through each field it reads
    ("checkpoint", record("arrays", 0, layer=0.7), "layer 0.7 is not an integer >= 0"),
    ("checkpoint", record("arrays", 0, layer="0"), "layer '0' is not an integer >= 0"),
    ("checkpoint", record("arrays", 0, layer=False), "layer False is not an integer >= 0"),
    ("masks", record("masks", 0, layer=0.7), "layer 0.7 is not an integer >= 0"),
    ("masks", record("masks", 0, layer="0"), "layer '0' is not an integer >= 0"),
    ("masks", record("masks", 0, layer=False), "layer False is not an integer >= 0"),
    ("masks", record("masks", 0, layer=-1), "layer -1 is not an integer >= 0"),
    ("masks", record("masks", 0, layer=-100), "layer -100 is not an integer >= 0"),
    ("checkpoint", head(lambda h: h["arrays"][0]["shape"].__setitem__(0, 2.0)),
     "shape entry 2.0 is not an integer >= 0"),
    ("masks", record("masks", 1, offset=-1), "offset -1 is not an integer >= 0"),
    ("masks", record("masks", 1, nbytes="1"), "nbytes '1' is not an integer >= 0"),
    ("masks", record("masks", 0, nnz=-3), "nnz -3 is not an integer >= 0"),
    ("masks", record("masks", 0, nnz="x"), "nnz 'x' is not an integer >= 0"),
    ("masks", record("masks", 0, nnz=True), "nnz True is not an integer >= 0"),
    ("checkpoint", spec(0, stride=0), "stride 0 is not an integer >= 1"),
    ("checkpoint", spec(3, kernel_size=0), "kernel_size 0 is not an integer >= 1"),
    ("checkpoint", spec(0, stride=1.0), "stride 1.0 is not an integer >= 1"),
    ("checkpoint", spec(3, kernel_size="2"), "kernel_size '2' is not an integer >= 1"),
    ("checkpoint", spec(0, stride=True), "stride True is not an integer >= 1"),
    ("checkpoint", spec(0, padding=-1), "padding -1 is not an integer >= 0"),
    ("checkpoint", spec(0, padding=1.0), "padding 1.0 is not an integer >= 0"),
    ("checkpoint", spec(0, padding=True), "padding True is not an integer >= 0"),
    # layer_from_spec
    ("checkpoint", spec(0, kind="Conv3d"), "unknown layer kind 'Conv3d'"),
    # payload_slice
    ("checkpoint", record("arrays", 0, offset=10**6),
     "record at 1000000+16 exceeds the 680-byte payload"),
    # load_network
    ("checkpoint", head(lambda h: h["arrays"].pop()),
     "the array records do not name each of the 8 layer parameters exactly once"),
    ("checkpoint", head(lambda h: h["arrays"].append(h["arrays"][0])),
     "the array records do not name each of the 8 layer parameters exactly once"),
    ("checkpoint", record("arrays", 7, shape=[18, 3]),
     "layer 5 weight: shape (18, 3), spec wants (3, 18)"),
    ("checkpoint", head(lambda h: h["layers"][0].pop("padding")),
     "malformed checkpoint header: KeyError('padding')"),
    ("checkpoint", head(lambda h: h.update(layers=[])),
     "malformed checkpoint header: ValueError('a network needs at least one layer')"),
    # 10**16 weights, beyond the address space, so the allocation fails at once
    ("checkpoint", spec(0, kind="Dense", in_features=10**8, out_features=10**8),
     "checkpoint too large to load: Unable to allocate 71.1 PiB for an array with shape "
     "(100000000, 100000000) and data type float64"),
    # load_masks
    ("masks", record("masks", 1, layer=0), "mask record for layer 0: repeated"),
    ("masks", record("masks", 2, layer=3), "mask record for layer 3: repeated"),
    ("masks", record("masks", 0, nbytes=2), "layer 0: 2 packed bytes for 8 mask bits"),
    ("masks", record("masks", 0, nnz=0), "layer 0: nnz 0 is not the mask's set-bit count 1"),
    ("masks", record("masks", 0, nnz=99),
     "layer 0: nnz 99 is not the mask's set-bit count 1"),
    # without this rule the file would load as layer 0 alone
    ("masks", head(lambda h: h["masks"][1].pop("shape")),
     "malformed mask header: KeyError('shape')"),
]


@pytest.mark.parametrize("container,edit,message", RULES)
def test_rule(tmp_path, container, edit, message):
    magic, write, load = CONTAINERS[container]
    path = tmp_path / container
    write(path)
    load(path)
    edit(path, magic)
    with pytest.raises(CheckpointError, match=re.escape(message)):
        load(path)


def contents(loaded):
    """What a load returns, comparable across loads."""
    if isinstance(loaded, dict):
        return {layer: (m.shape, m.tobytes()) for layer, m in loaded.items()}
    return [layer.spec() for layer in loaded.layers], loaded.param_hash()


def pretty(path, magic):
    """The header rewritten as indented JSON, the payload kept."""
    header = read_container(path, magic)[0]
    text(json.dumps(header, indent=2).encode())(path, magic)


# edits that every rule lets pass: the loaded contents are those of the
# unedited file (check None) or pass the row's check
EDGES = [
    ("checkpoint", head(lambda h: h["arrays"].reverse()), None),
    ("checkpoint", head(lambda h: h.update(note="trained")), None),
    ("checkpoint", raw(lambda b: b + bytes(7)), None),
    ("checkpoint", pretty, None),
    ("checkpoint", spec(0, padding=0), lambda net: net.layers[0].padding == 0),
    ("checkpoint", spec(0, stride=3), lambda net: net.layers[0].stride == 3),
    ("checkpoint", spec(3, kernel_size=1), lambda net: net.layers[3].kernel_size == 1),
    ("masks", head(lambda h: h["masks"].reverse()), None),
    ("masks", head(lambda h: h["masks"][0].update(note="pruned")), None),
    ("masks", raw(lambda b: b + bytes(7)), None),
    ("masks", record("masks", 2, shape=[0], nbytes=0),
     lambda masks: masks[5].shape == (0,) and sorted(masks) == [0, 3, 5]),
    ("masks", head(lambda h: h.update(masks=[])), lambda masks: masks == {}),
]


@pytest.mark.parametrize("container,edit,check", EDGES)
def test_edge_loads(tmp_path, container, edit, check):
    magic, write, load = CONTAINERS[container]
    path = tmp_path / container
    write(path)
    before = contents(load(path))
    edit(path, magic)
    loaded = load(path)
    assert contents(loaded) == before if check is None else check(loaded)
