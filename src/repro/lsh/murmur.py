"""MurmurHash3 (x86 32-bit variant), scalar and vectorized.

The paper uses MurmurHash3 as the random-projection function of the
re-hashing mechanism (Section IV-A2). The scalar implementation follows
Appleby's reference; the vectorized versions hash whole numpy arrays with
the same algorithm so the two can be cross-checked.
"""

from __future__ import annotations

import numpy as np

_C1 = np.uint32(0xCC9E2D51)
_C2 = np.uint32(0x1B873593)
_MASK = 0xFFFFFFFF


def _rotl32(x: int, r: int) -> int:
    return ((x << r) | (x >> (32 - r))) & _MASK


def murmur3_32(data: bytes, seed: int = 0) -> int:
    """Reference scalar MurmurHash3_x86_32 over a byte string.

    Args:
        data: Bytes to hash.
        seed: 32-bit seed.

    Returns:
        The 32-bit hash as a non-negative int.
    """
    length = len(data)
    h = seed & _MASK
    n_blocks = length // 4
    for i in range(n_blocks):
        k = int.from_bytes(data[4 * i : 4 * i + 4], "little")
        k = (k * 0xCC9E2D51) & _MASK
        k = _rotl32(k, 15)
        k = (k * 0x1B873593) & _MASK
        h ^= k
        h = _rotl32(h, 13)
        h = (h * 5 + 0xE6546B64) & _MASK
    tail = data[4 * n_blocks :]
    k = 0
    if len(tail) >= 3:
        k ^= tail[2] << 16
    if len(tail) >= 2:
        k ^= tail[1] << 8
    if len(tail) >= 1:
        k ^= tail[0]
        k = (k * 0xCC9E2D51) & _MASK
        k = _rotl32(k, 15)
        k = (k * 0x1B873593) & _MASK
        h ^= k
    h ^= length
    return _fmix32_scalar(h)


def _fmix32_scalar(h: int) -> int:
    h &= _MASK
    h ^= h >> 16
    h = (h * 0x85EBCA6B) & _MASK
    h ^= h >> 13
    h = (h * 0xC2B2AE35) & _MASK
    h ^= h >> 16
    return h


def _rotl32_vec(x: np.ndarray, r: int) -> np.ndarray:
    return (x << np.uint32(r)) | (x >> np.uint32(32 - r))


def _fmix32_vec(h: np.ndarray) -> np.ndarray:
    h = h ^ (h >> np.uint32(16))
    h = h * np.uint32(0x85EBCA6B)
    h = h ^ (h >> np.uint32(13))
    h = h * np.uint32(0xC2B2AE35)
    return h ^ (h >> np.uint32(16))


def _seed_u32(seed) -> np.ndarray:
    """A seed or seed array reduced to its low 32 bits."""
    return (np.asarray(seed, dtype=np.int64) & _MASK).astype(np.uint32)


def murmur3_int64(values: np.ndarray, seed=0) -> np.ndarray:
    """Vectorized MurmurHash3_x86_32 of each int64 as an 8-byte little-endian key.

    Bit-identical to ``murmur3_32(value.tobytes(), s)`` element-wise, with
    ``s`` the element of ``seed`` broadcast against the value: an ``(n, m)``
    block under an ``(m,)`` seed row hashes ``m`` functions in one pass.

    Args:
        values: Array of int64 keys.
        seed: 32-bit seed, or a seed array broadcasting against ``values``.

    Returns:
        ``uint32`` array of hashes, of the broadcast shape.
    """
    vals = np.asarray(values, dtype=np.int64).view(np.uint64)
    low = (vals & np.uint64(_MASK)).astype(np.uint32)
    high = (vals >> np.uint64(32)).astype(np.uint32)
    h = _seed_u32(seed)  # broadcasts to the full shape in the first round
    with np.errstate(over="ignore"):
        for block in (low, high):
            k = block * _C1
            k = _rotl32_vec(k, 15)
            k = k * _C2
            h = h ^ k
            h = _rotl32_vec(h, 13)
            h = h * np.uint32(5) + np.uint32(0xE6546B64)
        h = h ^ np.uint32(8)  # key length in bytes
        return _fmix32_vec(h)


def hash_combine(values: np.ndarray, seed=0) -> np.ndarray:
    """Reduce int64 component vectors along the last axis to one hash each.

    Used to hash multi-dimensional LSH signatures (e.g. Random Binning
    Hashing's per-dimension grid coordinates) into a single 32-bit value:
    all components are murmur-mixed in one pass, then folded into a
    running state.

    Args:
        values: ``(..., d)`` int64 array; a 1-D array is read as ``(n, 1)``.
        seed: Seed of the first mixing round, or a seed array broadcasting
            against ``values.shape[:-1]`` (e.g. one per function).

    Returns:
        ``uint32`` array of shape ``values.shape[:-1]``.
    """
    arr = np.asarray(values, dtype=np.int64)
    if arr.ndim == 1:
        arr = arr[:, None]
    mixed = murmur3_int64(arr)
    state = np.full(arr.shape[:-1], _seed_u32(seed), dtype=np.uint32)
    with np.errstate(over="ignore"):
        for j in range(arr.shape[-1]):
            state = _fmix32_vec(state * np.uint32(31) + mixed[..., j])
    return state
