"""Binary columnar payloads for the result store.

JSON text was the right first format for store entries — inspectable,
dependency-free, forgiving — but once the compiled engines pushed a 256-run
batch to ~17 ms, ``json.dumps``/``json.loads`` of the per-run arrays became
a measurable share of every warm ``study run``.  This module packs the
numeric columns of an entry (execution times, per-run miss counters) as
typed little-endian binary blocks instead, keeping a small JSON *header*
for everything that is irregular (the canonical spec, the miss summary).

Layout (all integers big-endian in the frame, little-endian in the data)::

    +--------+-------------+------------------+---------------------------+
    | RCOL1\\0| header len  | JSON header      | column 0 | column 1 | ... |
    | 6 bytes| 4 bytes     | header-len bytes | concatenated typed blocks |
    +--------+-------------+------------------+---------------------------+

    header = {
        "meta":    {...},                  # arbitrary JSON (spec, summary)
        "columns": [{"name", "dtype", "count"}, ...],   # in payload order
        "payload_sha256": "...",           # checksum of the data section
    }

Each column is stored with the **narrowest sufficient dtype** (``u1``,
``u2``, ``u4``, ``u8``; ``i8`` when negatives appear), so a store entry is
typically 4--8x smaller than its JSON form and decodes via
:func:`numpy.frombuffer` without any per-element parsing.  The data section
starts at a fixed, header-derived offset, so :func:`unpack_columns` views
the columns zero-copy in the blob.

The codec is forgiving: :func:`unpack_columns` raises :class:`ValueError`
on *any* structural problem (bad magic, truncated frame, checksum
mismatch, unknown dtype), and callers treat that as a cache miss —
corrupt entries are overwritten by the next save, never propagated.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Mapping, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "COLUMNAR_SUFFIX",
    "pack_entry",
    "unpack_columns",
]

#: File extension of columnar store entries (``<key>.rcol``).
COLUMNAR_SUFFIX = ".rcol"

_MAGIC = b"RCOL1\x00"

#: dtype code -> numpy dtype string (little-endian on every platform).
_DTYPES = {
    "u1": "<u1",
    "u2": "<u2",
    "u4": "<u4",
    "u8": "<u8",
    "i8": "<i8",
}


def _narrowest_dtype(values: Sequence[int]) -> str:
    """The smallest dtype code that holds every value exactly."""
    if not len(values):
        return "u1"
    low = min(values)
    high = max(values)
    if low < 0:
        return "i8"
    if high <= 0xFF:
        return "u1"
    if high <= 0xFFFF:
        return "u2"
    if high <= 0xFFFFFFFF:
        return "u4"
    return "u8"


def _narrowest_dtype_of(array: "np.ndarray") -> str:
    """:func:`_narrowest_dtype` over an already-converted i8 array."""
    if not array.size:
        return "u1"
    low = int(array.min())
    high = int(array.max())
    if low < 0:
        return "i8"
    if high <= 0xFF:
        return "u1"
    if high <= 0xFFFF:
        return "u2"
    if high <= 0xFFFFFFFF:
        return "u4"
    return "u8"


def pack_entry(
    meta: Mapping[str, object],
    columns: Mapping[str, Sequence[int]],
) -> bytes:
    """Serialize ``meta`` + integer ``columns`` into one columnar blob.

    Column order is preserved (it defines the payload layout).  Values must
    be integers; each column is packed with its narrowest sufficient dtype.
    """
    specs: List[Dict[str, object]] = []
    blocks: List[bytes] = []
    for name, values in columns.items():
        try:
            # Fast path: one C conversion to i8, then narrow — no Python
            # per-element work on the hot save path.
            wide = np.asarray(values, dtype=np.dtype("<i8"))
            code = _narrowest_dtype_of(wide)
            array = wide if code == "i8" else wide.astype(np.dtype(_DTYPES[code]))
        except (OverflowError, ValueError):
            code = _narrowest_dtype(values)
            array = np.asarray(list(values), dtype=np.dtype(_DTYPES[code]))
        specs.append({"name": str(name), "dtype": code, "count": int(array.size)})
        blocks.append(array.tobytes())
    payload = b"".join(blocks)
    header = {
        "meta": dict(meta),
        "columns": specs,
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return b"".join(
        (_MAGIC, len(header_bytes).to_bytes(4, "big"), header_bytes, payload)
    )


def _parse_frame(blob: Union[bytes, memoryview]) -> Tuple[Dict[str, object], int]:
    """Validate the frame and return ``(header, payload_offset)``.

    Raises :class:`ValueError` on any structural problem — the caller
    treats that as a cache miss.
    """
    view = memoryview(blob)
    if len(view) < len(_MAGIC) + 4 or bytes(view[: len(_MAGIC)]) != _MAGIC:
        raise ValueError("not a columnar entry (bad magic)")
    offset = len(_MAGIC)
    header_len = int.from_bytes(view[offset : offset + 4], "big")
    offset += 4
    if len(view) < offset + header_len:
        raise ValueError("truncated columnar header")
    try:
        header = json.loads(bytes(view[offset : offset + header_len]).decode())
    except (ValueError, UnicodeDecodeError) as error:
        raise ValueError(f"unreadable columnar header: {error}") from None
    if not isinstance(header, dict):
        raise ValueError("columnar header is not an object")
    return header, offset + header_len


def _decode_columns(
    header: Dict[str, object], payload: Union[bytes, memoryview]
) -> Dict[str, np.ndarray]:
    digest = hashlib.sha256(payload).hexdigest()
    if digest != header.get("payload_sha256"):
        raise ValueError("columnar payload checksum mismatch")
    columns: Dict[str, np.ndarray] = {}
    position = 0
    try:
        specs = list(header["columns"])
    except (KeyError, TypeError):
        raise ValueError("columnar header is missing its column table") from None
    for spec in specs:
        try:
            name = str(spec["name"])
            dtype = np.dtype(_DTYPES[spec["dtype"]])
            count = int(spec["count"])
        except (KeyError, TypeError):
            raise ValueError(f"malformed column spec {spec!r}") from None
        nbytes = dtype.itemsize * count
        if position + nbytes > len(payload):
            raise ValueError(f"column {name!r} extends past the payload")
        columns[name] = np.frombuffer(payload, dtype=dtype, count=count, offset=position)
        position += nbytes
    if position != len(payload):
        raise ValueError("columnar payload has trailing bytes")
    return columns


def unpack_columns(
    blob: Union[bytes, memoryview],
) -> Tuple[Dict[str, object], Dict[str, np.ndarray]]:
    """Decode one blob into ``(meta, columns)``; columns as numpy views.

    The arrays alias ``blob`` (read-only when ``blob`` is ``bytes``): no
    per-element parsing and no copy.  Raises :class:`ValueError` on
    corruption.
    """
    header, payload_offset = _parse_frame(blob)
    arrays = _decode_columns(header, memoryview(blob)[payload_offset:])
    meta = header.get("meta")
    if not isinstance(meta, dict):
        raise ValueError("columnar header is missing its meta object")
    return meta, arrays

