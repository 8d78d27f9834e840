"""Versioned binary container for checkpoints and dataset caches.

Layout: an 8-byte magic, a u32 format version, a u32 header length, a JSON
header, then the raw block payloads in header order. Each block is a 2-D
array stored little-endian (float64 ``f8``, int64 ``i8`` or int8 ``i1``)
with its shape in the header, so a save/load round trip is bit-exact. The
header is validated before any payload is read; every malformed file raises
:class:`FormatError`. Blocks stream between the file and their arrays:
a write sends each array's own buffer and a read fills each new array in
place, so a load holds the payload once. A write over a file the writer
owns creates a new file, so a reader holding the old one keeps it.
"""

from __future__ import annotations

import json
import os
import stat
import struct

import numpy as np

from .errors import FormatError
from .network import NetworkParams, NetworkSpec

MAGIC = b"MTABLBIN"
VERSION = 2

_DTYPES = {"f8": "<f8", "i8": "<i8", "i1": "i1"}


def write_container(path, kind: str, meta: dict, blocks: list[tuple[str, np.ndarray]]) -> None:
    entries = []
    for name, array in blocks:
        if array.ndim != 2:
            raise FormatError(f"block {name!r} must be 2-D, got ndim={array.ndim}")
        if array.dtype.kind not in "fiu":
            raise FormatError(f"block {name!r} has unsupported dtype {array.dtype}")
        dtype = "f8" if array.dtype.kind == "f" else "i1" if array.dtype == np.int8 else "i8"
        entries.append({"name": name, "rows": array.shape[0], "cols": array.shape[1],
                        "dtype": dtype})
    header = json.dumps({"kind": kind, "meta": meta, "blocks": entries}).encode("utf-8")
    # A regular file the writer owns and may write is removed and created
    # anew with its mode, not truncated: ext4 starts a truncated file's
    # writeback as it closes (auto_da_alloc), inside this call. Anything
    # else, a symlink included, is left to open(), which refuses or truncates.
    mode = 0o666
    try:
        st = os.lstat(path)
        if stat.S_ISREG(st.st_mode) and (st.st_uid, st.st_gid) == (os.geteuid(), os.getegid()):
            os.close(os.open(path, os.O_WRONLY))
            os.unlink(path)
            mode = stat.S_IMODE(st.st_mode)
    except OSError:
        pass
    with open(path, "wb", opener=lambda name, flags: os.open(name, flags, mode)) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(header)))
        fh.write(header)
        for (_, array), entry in zip(blocks, entries):
            # A no-op for a contiguous little-endian block of the stored dtype.
            fh.write(np.ascontiguousarray(array, dtype=_DTYPES[entry["dtype"]]))


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
            # bool is an int subclass; JSON true must not pass as a size. The
            # cap keeps an empty block's other side within what numpy allocates.
            if type(entry.get(key)) is not int or not 0 <= entry[key] < 2**31:
                raise FormatError(f"{path}: block {name!r} has bad {key} {entry.get(key)!r}")
        if entry.get("dtype") not in _DTYPES:
            raise FormatError(f"{path}: unknown block dtype {entry.get('dtype')!r}")


def read_container(path, expect_kind: str | None = None):
    """Returns (meta, ordered dict of name -> array)."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        prefix = fh.read(len(MAGIC) + 8)
        if len(prefix) < len(MAGIC) + 8:
            raise FormatError(f"{path}: truncated container")
        if prefix[: len(MAGIC)] != MAGIC:
            raise FormatError(f"{path}: bad magic, not a container file")
        version, header_len = struct.unpack_from("<II", prefix, len(MAGIC))
        if version != VERSION:
            raise FormatError(f"{path}: unsupported format version {version}")
        if header_len > size - len(prefix):
            raise FormatError(f"{path}: truncated header")
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"))
        except (ValueError, RecursionError) as err:  # bad UTF-8 and bad JSON are ValueErrors
            raise FormatError(f"{path}: corrupt header ({err})") from err
        _check_header(header, path)
        if expect_kind is not None and header["kind"] != expect_kind:
            raise FormatError(
                f"{path}: container holds {header['kind']!r}, expected {expect_kind!r}"
            )
        blocks: dict[str, np.ndarray] = {}
        for entry in header["blocks"]:
            # Sizes are checked against the file before anything is allocated.
            dtype = np.dtype(_DTYPES[entry["dtype"]])
            nbytes = entry["rows"] * entry["cols"] * dtype.itemsize
            array = None
            if nbytes <= size - fh.tell():
                array = np.empty((entry["rows"], entry["cols"]), dtype)
            if array is None or fh.readinto(array) != nbytes:
                raise FormatError(f"{path}: truncated payload for block {entry['name']!r}")
            blocks[entry["name"]] = array
    return header["meta"], blocks


def save_checkpoint(path, spec: NetworkSpec, params: NetworkParams,
                    meta: dict | None = None) -> None:
    """Write the network spec and the flat parameter vector, bit-exact. A
    ``meta`` that is not a dict, which no load accepts, raises FormatError
    before the file is opened."""
    if not (meta is None or isinstance(meta, dict)):
        raise FormatError(f"checkpoint meta is {type(meta).__name__}, expected a dict")
    container_meta = {"spec": spec.to_dict(), "extra": {} if meta is None else meta}
    write_container(path, "checkpoint", container_meta, [("params", params.flat[None, :])])


def load_checkpoint(path):
    """Returns (spec, params, meta); the parameter layout follows from the spec.
    A meta that is not a JSON object, a non-finite parameter or an attention
    ``lam`` outside [0, 1], which no training run saves, raises FormatError."""
    meta, blocks = read_container(path, expect_kind="checkpoint")
    if "params" not in blocks:
        raise FormatError(f"{path}: checkpoint is missing block 'params'")
    try:
        spec = NetworkSpec.from_dict(meta["spec"])
        params = NetworkParams(spec, blocks["params"].ravel())
    except (KeyError, TypeError, ValueError) as err:
        raise FormatError(f"{path}: bad network spec or parameter vector ({err})") from None
    for name, block in params.named_blocks():
        if not np.isfinite(block).all():
            raise FormatError(f"{path}: parameter block {name!r} holds non-finite values")
        if name.endswith("/lam") and not 0.0 <= block <= 1.0:
            raise FormatError(f"{path}: {name} is {float(block)}, outside [0, 1]")
    extra = meta.get("extra", {})
    if not isinstance(extra, dict):
        raise FormatError(f"{path}: checkpoint meta is {type(extra).__name__}, expected an object")
    return spec, params, extra
