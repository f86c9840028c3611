"""Length-prefixed binary encoding for every cross-node payload.

All inter-node traffic is serialized through this module so that
"communication bytes" is a measured quantity, not an estimate.  Partial sums,
centroid sets and shuffle record batches have explicit little-endian layouts;
control messages fall back to a pickled frame.
"""

from __future__ import annotations

import pickle
import struct
import zlib

import numpy as np

from .kernel import CentroidSet, PartialSums

_TAG_PARTIALS = 1
_TAG_CENTROIDS = 2
_TAG_PICKLE = 3
_TAG_COMPRESSED = 4

_FRAME = struct.Struct("<BI")  # tag, body length
_PARTIALS_HEAD = struct.Struct("<II")  # k, d
_CENTROIDS_HEAD = struct.Struct("<III")  # k, d, iteration

SHUFFLE_KEY_BYTES = 4


def shuffle_record_size(dims: int) -> int:
    """Exactly 4 + 8*d bytes per shuffle record (u32 key + d float64)."""
    return SHUFFLE_KEY_BYTES + 8 * dims


def shuffle_dtype(dims: int) -> np.dtype:
    return np.dtype([("key", "<u4"), ("coords", "<f8", (dims,))])


def encode_shuffle_records(keys: np.ndarray, coords: np.ndarray) -> bytes:
    recs = np.empty(len(keys), dtype=shuffle_dtype(coords.shape[1]))
    recs["key"] = keys
    recs["coords"][...] = coords
    return recs.tobytes()


def decode_shuffle_records(payload: bytes, dims: int) -> np.ndarray:
    return np.frombuffer(payload, dtype=shuffle_dtype(dims))


def encode(payload) -> bytes:
    if isinstance(payload, PartialSums):
        body = (
            _PARTIALS_HEAD.pack(payload.k, payload.dims)
            + np.ascontiguousarray(payload.sums, dtype="<f8").tobytes()
            + np.ascontiguousarray(payload.counts, dtype="<i8").tobytes()
        )
        tag = _TAG_PARTIALS
    elif isinstance(payload, CentroidSet):
        body = (
            _CENTROIDS_HEAD.pack(payload.k, payload.dims, payload.iteration)
            + np.ascontiguousarray(payload.coords, dtype="<f8").tobytes()
        )
        tag = _TAG_CENTROIDS
    else:
        body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        tag = _TAG_PICKLE
    return _FRAME.pack(tag, len(body)) + body


def encode_compressed(payload) -> bytes:
    """Losslessly compressed frame (deflate) wrapping a normal frame."""
    body = zlib.compress(encode(payload), 6)
    return _FRAME.pack(_TAG_COMPRESSED, len(body)) + body


def decode(data: bytes):
    tag, length = _FRAME.unpack_from(data)
    # A view, not a copy: a shuffle batch's frame is hundreds of kilobytes.
    body = memoryview(data)[_FRAME.size : _FRAME.size + length]
    if len(body) != length:
        raise ValueError("truncated frame")
    if tag == _TAG_COMPRESSED:
        return decode(zlib.decompress(body))
    if tag == _TAG_PARTIALS:
        k, d = _PARTIALS_HEAD.unpack_from(body)
        off = _PARTIALS_HEAD.size
        sums = np.frombuffer(body, dtype="<f8", count=k * d, offset=off).reshape(k, d)
        counts = np.frombuffer(body, dtype="<i8", count=k, offset=off + k * d * 8)
        return PartialSums(sums.copy(), counts.copy())
    if tag == _TAG_CENTROIDS:
        k, d, iteration = _CENTROIDS_HEAD.unpack_from(body)
        coords = np.frombuffer(
            body, dtype="<f8", count=k * d, offset=_CENTROIDS_HEAD.size
        ).reshape(k, d)
        return CentroidSet(coords.copy(), iteration)
    if tag == _TAG_PICKLE:
        return pickle.loads(body)
    raise ValueError(f"unknown frame tag {tag}")
