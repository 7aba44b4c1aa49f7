"""Weight file I/O: Darknet ``.weights`` and FINN ``binparam`` directories.

Darknet's binary format is a 3-int32 version header (``major, minor,
revision``), a seen-images counter (``uint64`` from format 0.2, ``uint32``
before) and then the raw float32 parameters of every layer in network order.
Loading is all-or-nothing (a file whose payload is not exactly the network's
parameters is refused before any layer changes) and costs one read; saving
streams to a temporary file that is renamed into place.
The paper's offload layers instead read a *binparam* directory produced by
FINN's export flow (Fig. 4: ``weights=binparam-tincy-yolo/``); our
re-interpretation stores per-layer ``.npy`` files plus a small JSON manifest
— documented here because the original format is tied to the HLS build.
"""

from __future__ import annotations

import json
import os
import struct
from typing import TYPE_CHECKING, Tuple

import numpy as np

from repro.nn.layers.base import ArraySource, StreamSink

if TYPE_CHECKING:  # pragma: no cover
    from repro.nn.network import Network

MAJOR, MINOR, REVISION = 0, 2, 0


def save_weights(network: "Network", path: str, seen: int = 0) -> None:
    """Write *network*'s parameters as a Darknet ``.weights`` file.

    Each layer's chunks stream straight into ``path + ".tmp"``, which is
    then renamed over *path*: a crash or a full disk mid-save leaves the
    previous file in place, never a torn one.
    """
    tmp = path + ".tmp"
    with open(tmp, "wb") as handle:
        handle.write(struct.pack("<iiiQ", MAJOR, MINOR, REVISION, seen))
        sink = StreamSink(handle.write)
        for layer in network.layers:
            layer.save_weights(sink)
    os.replace(tmp, path)


def load_weights(network: "Network", path: str) -> int:
    """Load a Darknet ``.weights`` file into *network*; returns ``seen``.

    All or nothing: the payload size (from ``fstat``) must be exactly the
    ``4 * network.num_params()`` bytes the layers consume, and a truncated
    header or a misaligned, short or oversized payload is refused before
    any layer is assigned.  The payload is read once into one private
    buffer and each layer keeps its own writable slice of it.
    """
    expected = network.num_params()
    with open(path, "rb") as handle:
        header = handle.read(12)
        if len(header) != 12:
            raise ValueError(f"{path}: truncated weight file header")
        major, minor, revision = struct.unpack("<iii", header)
        wide = (major, minor) >= (0, 2) or major >= 1000 or minor >= 1000
        counter = struct.Struct("<Q" if wide else "<I")
        packed = handle.read(counter.size)
        if len(packed) != counter.size:
            raise ValueError(f"{path}: truncated weight file header")
        (seen,) = counter.unpack(packed)
        size = os.fstat(handle.fileno()).st_size - handle.tell()
        if size % 4:
            raise ValueError(f"{path}: weight payload is not float32-aligned")
        if size // 4 > expected:
            raise ValueError(
                f"{path}: {size // 4 - expected} unconsumed weight floats"
            )
        values = np.fromfile(handle, dtype="<f4", count=expected)
    if values.size < expected:
        raise ValueError(
            f"{path}: weight stream exhausted: wanted {expected} floats, "
            f"{values.size} in the payload"
        )
    source = ArraySource(values, owned=True)
    for layer in network.layers:
        layer.load_weights(source)
    return int(seen)


# -- binparam directories (FINN export re-interpretation) -----------------------


def save_binparam(directory: str, arrays: dict, meta: dict = None) -> None:
    """Write named arrays + manifest into a FINN-style binparam directory."""
    os.makedirs(directory, exist_ok=True)
    manifest = {"format": "repro-binparam-v1", "arrays": sorted(arrays)}
    if meta:
        manifest["meta"] = meta
    for name, array in arrays.items():
        np.save(os.path.join(directory, f"{name}.npy"), np.asarray(array))
    with open(os.path.join(directory, "manifest.json"), "w") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)


def load_binparam(directory: str) -> Tuple[dict, dict]:
    """Read a binparam directory; returns ``(arrays, meta)``."""
    manifest_path = os.path.join(directory, "manifest.json")
    with open(manifest_path) as handle:
        manifest = json.load(handle)
    if manifest.get("format") != "repro-binparam-v1":
        raise ValueError(f"{directory}: not a repro binparam directory")
    arrays = {
        name: np.load(os.path.join(directory, f"{name}.npy"))
        for name in manifest["arrays"]
    }
    return arrays, manifest.get("meta", {})


__all__ = [
    "save_weights",
    "load_weights",
    "save_binparam",
    "load_binparam",
]
