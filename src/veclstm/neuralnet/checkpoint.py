"""Parameter checkpoint file.

Layout: magic b"VLNN", format version u16, then one block per parameter
array: name length u16, UTF-8 name bytes, rank u8, one u32 extent per
dimension, then the values as little-endian float32 in row-major order.
Blocks repeat until end of file. All integers little-endian.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from ..errors import SchemaMismatch

MAGIC = b"VLNN"
FORMAT_VERSION = 1
MAX_RANK = 32  # numpy's smallest dimension limit across versions


def save_checkpoint(path: str | Path, blocks: dict[str, np.ndarray]) -> None:
    """Write named arrays in sorted-name order (deterministic bytes)."""
    path = Path(path)
    parts = [MAGIC, struct.pack("<H", FORMAT_VERSION)]
    for name in sorted(blocks):
        arr = np.ascontiguousarray(blocks[name], dtype="<f4")
        encoded = name.encode("utf-8")
        parts.append(struct.pack("<H", len(encoded)))
        parts.append(encoded)
        parts.append(struct.pack("<B", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        parts.append(arr.tobytes())
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_bytes(b"".join(parts))
    tmp.replace(path)


def load_checkpoint(path: str | Path) -> dict[str, np.ndarray]:
    """Read arrays back as float64, the precision of the master weights.

    Every read is bounds-checked: a truncated or corrupted file raises
    SchemaMismatch naming the path and the byte offset of the bad field.
    """
    path = Path(path)
    data = path.read_bytes()
    offset = 0

    def take(n: int, what: str) -> int:
        """Claim the next n bytes for `what`; returns their offset."""
        nonlocal offset
        if offset + n > len(data):
            raise SchemaMismatch(
                f"{path}: {what} at byte {offset} needs {n} bytes,"
                f" only {len(data) - offset} remain")
        at, offset = offset, offset + n
        return at

    if data[take(4, "magic"):4] != MAGIC:
        raise SchemaMismatch(f"{path}: not a parameter checkpoint (bad magic)")
    (version,) = struct.unpack_from("<H", data, take(2, "format version"))
    if version != FORMAT_VERSION:
        raise SchemaMismatch(f"{path}: unsupported checkpoint version {version}")
    blocks: dict[str, np.ndarray] = {}
    while offset < len(data):
        (name_len,) = struct.unpack_from("<H", data, take(2, "name length"))
        at = take(name_len, "block name")
        try:
            name = data[at:at + name_len].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SchemaMismatch(f"{path}: block name at byte {at} is not UTF-8") from exc
        at = take(1, "rank")
        rank = data[at]
        if rank > MAX_RANK:
            raise SchemaMismatch(f"{path}: rank {rank} at byte {at} exceeds {MAX_RANK}")
        shape = struct.unpack_from(f"<{rank}I", data, take(4 * rank, "extents"))
        count = math.prod(shape)
        at = take(4 * count, f"{count} values of block {name!r}")
        values = np.frombuffer(data, dtype="<f4", count=count, offset=at)
        blocks[name] = values.reshape(shape).astype(np.float64)
    return blocks
