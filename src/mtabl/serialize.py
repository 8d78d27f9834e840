"""Versioned binary container for checkpoints and dataset caches.

Layout: an 8-byte magic, a u32 format version, a u32 header length, a JSON
header, then the raw block payloads in header order. Each block is a 2-D
array stored little-endian (float64 or int64) with its shape recorded in
the header, so a save/load round trip is bit-exact. The header is
validated before any payload is read; every malformed file raises
:class:`FormatError`.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError
from .network import NetworkParams, NetworkSpec

MAGIC = b"MTABLBIN"
VERSION = 1

_DTYPES = {"f8": "<f8", "i8": "<i8"}


def write_container(path, kind: str, meta: dict, blocks: list[tuple[str, np.ndarray]]) -> None:
    entries = []
    payloads = []
    for name, array in blocks:
        if array.ndim != 2:
            raise FormatError(f"block {name!r} must be 2-D, got ndim={array.ndim}")
        if array.dtype.kind == "f":
            tag, dtype = "f8", "<f8"
        elif array.dtype.kind in "iu":
            tag, dtype = "i8", "<i8"
        else:
            raise FormatError(f"block {name!r} has unsupported dtype {array.dtype}")
        data = np.ascontiguousarray(array, dtype=dtype)
        entries.append({"name": name, "rows": array.shape[0],
                        "cols": array.shape[1], "dtype": tag})
        payloads.append(data.tobytes())
    header = json.dumps({"kind": kind, "meta": meta, "blocks": entries}).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(header)))
        fh.write(header)
        for payload in payloads:
            fh.write(payload)


def _check_header(header, path) -> None:
    if not (isinstance(header, dict) and isinstance(header.get("kind"), str)
            and isinstance(header.get("meta"), dict)
            and isinstance(header.get("blocks"), list)):
        raise FormatError(f"{path}: header needs a str kind, a dict meta and a blocks list")
    names = set()
    for entry in header["blocks"]:
        if not isinstance(entry, dict):
            raise FormatError(f"{path}: block entry {entry!r} is not an object")
        name = entry.get("name")
        if not isinstance(name, str) or name in names:
            raise FormatError(f"{path}: block name {name!r} is missing or repeated")
        names.add(name)
        for key in ("rows", "cols"):
            # bool is an int subclass; JSON true must not pass as a size.
            if type(entry.get(key)) is not int or entry[key] < 0:
                raise FormatError(f"{path}: block {name!r} has bad {key} {entry.get(key)!r}")
        if entry.get("dtype") not in _DTYPES:
            raise FormatError(f"{path}: unknown block dtype {entry.get('dtype')!r}")


def read_container(path, expect_kind: str | None = None):
    """Returns (meta, ordered dict of name -> array)."""
    raw = Path(path).read_bytes()
    if len(raw) < len(MAGIC) + 8:
        raise FormatError(f"{path}: truncated container")
    if raw[: len(MAGIC)] != MAGIC:
        raise FormatError(f"{path}: bad magic, not a container file")
    version, header_len = struct.unpack_from("<II", raw, len(MAGIC))
    if version != VERSION:
        raise FormatError(f"{path}: unsupported format version {version}")
    offset = len(MAGIC) + 8
    try:
        header = json.loads(raw[offset:offset + header_len].decode("utf-8"))
    except (ValueError, RecursionError) as err:  # bad UTF-8 and bad JSON are ValueErrors
        raise FormatError(f"{path}: corrupt header ({err})") from err
    _check_header(header, path)
    offset += header_len
    if expect_kind is not None and header["kind"] != expect_kind:
        raise FormatError(
            f"{path}: container holds {header['kind']!r}, expected {expect_kind!r}"
        )
    blocks: dict[str, np.ndarray] = {}
    for entry in header["blocks"]:
        rows, cols = entry["rows"], entry["cols"]
        nbytes = rows * cols * 8
        if offset + nbytes > len(raw):
            raise FormatError(f"{path}: truncated payload for block {entry['name']!r}")
        array = np.frombuffer(raw[offset:offset + nbytes], dtype=_DTYPES[entry["dtype"]])
        blocks[entry["name"]] = array.reshape(rows, cols).copy()
        offset += nbytes
    return header["meta"], blocks


def save_checkpoint(path, spec: NetworkSpec, params: NetworkParams,
                    meta: dict | None = None) -> None:
    """Write the network spec and the flat parameter vector, bit-exact."""
    container_meta = {"spec": spec.to_dict(), "extra": meta or {}}
    write_container(path, "checkpoint", container_meta, [("params", params.flat[None, :])])


def load_checkpoint(path):
    """Returns (spec, params, meta); the parameter layout follows from the spec."""
    meta, blocks = read_container(path, expect_kind="checkpoint")
    if "params" not in blocks:
        raise FormatError(f"{path}: checkpoint is missing block 'params'")
    try:
        spec = NetworkSpec.from_dict(meta["spec"])
        params = NetworkParams(spec, blocks["params"].ravel())
    except (KeyError, TypeError, ValueError) as err:
        raise FormatError(f"{path}: bad network spec or parameter vector ({err})") from None
    return spec, params, meta.get("extra", {})
