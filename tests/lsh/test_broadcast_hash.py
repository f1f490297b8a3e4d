"""The broadcast-seed hashing paths equal the per-function loops they replaced.

Each reference below is the column loop that ``murmur3_int64``,
``ReHasher.rehash``, ``hash_combine`` and ``RandomBinningHash.hash_points``
used to run; the vectorized forms must stay bit-identical to them.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import QueryError
from repro.lsh.murmur import _fmix32_vec, hash_combine, murmur3_32, murmur3_int64
from repro.lsh.rbh import RandomBinningHash
from repro.lsh.rehash import ReHasher

INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
SEED = st.integers(min_value=0, max_value=2**32 - 1)


def rehash_column_loop(rehasher, signatures):
    """One murmur pass per function, filling the bucket matrix column by column."""
    signatures = np.atleast_2d(np.asarray(signatures, dtype=np.int64))
    buckets = np.empty_like(signatures)
    for j in range(rehasher.num_functions):
        hashed = murmur3_int64(signatures[:, j], seed=int(rehasher._seeds[j]))
        buckets[:, j] = (hashed % np.uint32(rehasher.domain)).astype(np.int64)
    return buckets


def hash_combine_fold(values, seed=0):
    """Scalar-seeded fold of an ``(n, d)`` block, one murmur pass per column."""
    arr = np.asarray(values, dtype=np.int64)
    if arr.ndim == 1:
        arr = arr[:, None]
    state = np.full(arr.shape[0], np.uint32(seed & 0xFFFFFFFF), dtype=np.uint32)
    with np.errstate(over="ignore"):
        for j in range(arr.shape[1]):
            mixed = murmur3_int64(arr[:, j], seed=0)
            state = _fmix32_vec(state * np.uint32(31) + mixed)
    return state


def rbh_hash_points_loop(family, points, chunk=512):
    """RBH folding with one ``hash_combine`` call per function."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    n = points.shape[0]
    folded = np.empty((n, family.num_functions), dtype=np.int64)
    for start in range(0, n, chunk):
        cells = family.grid_coordinates(points[start : start + chunk])
        for j in range(family.num_functions):
            folded[start : start + chunk, j] = hash_combine_fold(
                cells[:, j, :], seed=j + 1
            ).astype(np.int64)
    return folded


class TestBroadcastMurmur:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(INT64, SEED), min_size=1, max_size=12))
    def test_each_element_matches_scalar_reference(self, pairs):
        values = np.array([v for v, _ in pairs], dtype=np.int64)
        seeds = np.array([s for _, s in pairs], dtype=np.int64)
        hashed = murmur3_int64(values, seed=seeds)
        for value, seed, h in zip(values, seeds, hashed):
            assert int(h) == murmur3_32(value.tobytes(), int(seed))

    def test_seed_row_broadcasts_across_columns(self):
        rng = np.random.default_rng(0)
        values = rng.integers(-(10**12), 10**12, size=(7, 5))
        seeds = rng.integers(1, 2**31 - 1, size=5)
        hashed = murmur3_int64(values, seed=seeds[None, :])
        assert hashed.shape == (7, 5)
        assert hashed.dtype == np.uint32
        for j in range(5):
            assert np.array_equal(hashed[:, j], murmur3_int64(values[:, j], seed=int(seeds[j])))

    def test_scalar_seed_unchanged(self):
        values = np.arange(-5, 5, dtype=np.int64)
        expected = [murmur3_32(v.tobytes(), 42) for v in values]
        assert murmur3_int64(values, seed=42).tolist() == expected

    def test_empty_block_keeps_broadcast_shape(self):
        hashed = murmur3_int64(np.empty((0, 4), dtype=np.int64), seed=np.arange(4)[None, :])
        assert hashed.shape == (0, 4)


class TestReHasherEquivalence:
    @pytest.mark.parametrize("n", [0, 1, 32, 2000])
    @pytest.mark.parametrize("m, domain", [(1, 2), (8, 67), (32, 8191), (237, 1 << 20)])
    def test_rehash_and_keywords_match_column_loop(self, n, m, domain):
        rehasher = ReHasher(num_functions=m, domain=domain, seed=n + m)
        signatures = np.random.default_rng(m).integers(-(2**62), 2**62, size=(n, m))
        expected = rehash_column_loop(rehasher, signatures)
        buckets = rehasher.rehash(signatures)
        assert buckets.dtype == np.int64
        assert buckets.shape == (n, m)
        assert np.array_equal(buckets, expected)
        offsets = np.arange(m, dtype=np.int64) * domain
        assert np.array_equal(rehasher.keywords(signatures), expected + offsets[None, :])

    def test_single_signature_row(self):
        rehasher = ReHasher(num_functions=6, domain=101, seed=3)
        row = np.arange(6, dtype=np.int64) * 1_000_003
        assert np.array_equal(rehasher.rehash(row), rehash_column_loop(rehasher, row))

    def test_mismatched_columns_raise_query_error(self):
        rehasher = ReHasher(num_functions=3, domain=50)
        with pytest.raises(QueryError, match="3 signature columns"):
            rehasher.rehash(np.zeros((4, 2), dtype=np.int64))
        with pytest.raises(QueryError):
            rehasher.rehash(np.zeros((0, 4), dtype=np.int64))


class TestHashCombineEquivalence:
    @pytest.mark.parametrize("shape", [(0, 3), (1, 1), (17, 4), (300, 9)])
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1])
    def test_matches_fold(self, shape, seed):
        values = np.random.default_rng(shape[0]).integers(-(10**9), 10**9, size=shape)
        assert np.array_equal(hash_combine(values, seed=seed), hash_combine_fold(values, seed))

    def test_one_dimensional_input_is_one_column(self):
        values = np.array([3, -7, 11], dtype=np.int64)
        assert np.array_equal(hash_combine(values, seed=5), hash_combine_fold(values, 5))

    def test_seed_array_folds_each_function_under_its_seed(self):
        cells = np.random.default_rng(1).integers(-50, 50, size=(20, 6, 4))
        seeds = np.arange(1, 7)
        combined = hash_combine(cells, seed=seeds)
        assert combined.shape == (20, 6)
        for j in range(6):
            assert np.array_equal(combined[:, j], hash_combine_fold(cells[:, j, :], j + 1))


class TestRbhEquivalence:
    @pytest.mark.parametrize("n, chunk", [(0, 512), (1, 512), (40, 512), (700, 128)])
    def test_hash_points_matches_per_function_loop(self, n, chunk):
        family = RandomBinningHash(num_functions=12, dim=5, sigma=2.0, seed=9)
        points = np.random.default_rng(n).standard_normal((n, 5)) * 3
        assert np.array_equal(
            family.hash_points(points, chunk=chunk), rbh_hash_points_loop(family, points, chunk)
        )
