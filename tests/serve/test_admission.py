"""The cheap admission path: cache keys, keyword queries and bad ANN vectors.

``make_cache_key`` and ``Query.from_keywords`` take whole-array shortcuts;
the references below are the per-element forms they replaced, and the
shortcuts must agree with them exactly. ANN vectors of the wrong shape or
with non-finite values are refused with ``QueryError`` on the direct and
the served path alike.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import GenieSession
from repro.core.types import Query
from repro.errors import QueryError
from repro.serve import BatchPolicy, GenieServer, make_cache_key

KEYWORDS = st.lists(st.integers(min_value=0, max_value=2**62), max_size=40)
DIM = 8
POINTS = np.random.default_rng(3).standard_normal((60, DIM))


def cache_key_reference(index, query, k, opts_key, raw=None):
    """The key as a tuple of per-keyword ``int`` conversions."""
    items = tuple(tuple(int(kw) for kw in item) for item in query.items)
    return (index, items, int(k), opts_key, raw)


def from_keywords_reference(keywords):
    """One validated, copied single-keyword item per keyword."""
    return Query(items=list(np.asarray(list(keywords), dtype=np.int64).reshape(-1, 1)))


class TestCacheKey:
    @settings(max_examples=50, deadline=None)
    @given(KEYWORDS, st.integers(min_value=1, max_value=50))
    def test_keyword_query_key_equals_reference(self, keywords, k):
        query = Query.from_keywords(keywords)
        key = make_cache_key("idx", query, k, (("n", 3),))
        assert key == cache_key_reference("idx", query, k, (("n", 3),))
        assert hash(key) == hash(cache_key_reference("idx", query, k, (("n", 3),)))

    def test_multi_keyword_items_and_raw_part(self):
        query = Query(items=[[9, 3, 3], [], [2**40]])
        key = make_cache_key("idx", query, 4, (), raw="abc")
        assert key == cache_key_reference("idx", query, 4, (), raw="abc")
        assert all(type(kw) is int for item in key[1] for kw in item)


class TestFromKeywords:
    @settings(max_examples=50, deadline=None)
    @given(KEYWORDS)
    def test_items_equal_reference(self, keywords):
        query = Query.from_keywords(np.asarray(keywords, dtype=np.int64))
        reference = from_keywords_reference(keywords)
        assert [item.tolist() for item in query.items] == [
            item.tolist() for item in reference.items
        ]
        assert all(item.dtype == np.int64 and item.shape == (1,) for item in query.items)
        assert query.count_bound() == reference.count_bound() == len(keywords)

    def test_duplicates_stay_separate_items(self):
        query = Query.from_keywords([4, 4, 1])
        assert [item.tolist() for item in query.items] == [[4], [4], [1]]

    @pytest.mark.parametrize("keywords", [np.arange(6, dtype=np.int64),
                                          np.arange(12, dtype=np.int64)[::2],
                                          np.arange(6, dtype=np.int32)])
    def test_never_aliases_caller_storage(self, keywords):
        query = Query.from_keywords(keywords)
        expected = keywords.astype(np.int64).tolist()
        keywords[:] = 99
        assert [int(item[0]) for item in query.items] == expected
        assert not any(np.shares_memory(item, keywords) for item in query.items)

    @pytest.mark.parametrize("keywords", [[3, -1, 2], np.array([-5], dtype=np.int64)])
    def test_negative_keywords_rejected(self, keywords):
        with pytest.raises(QueryError, match="non-negative"):
            Query.from_keywords(keywords)

    def test_empty(self):
        query = Query.from_keywords([])
        assert query.num_items == 0
        assert query.count_bound() == 0


BAD_VECTORS = {
    "short": np.zeros(DIM - 1),
    "long": np.zeros(DIM + 3),
    "nan": np.where(np.arange(DIM) == 2, np.nan, 0.5),
    "inf": np.where(np.arange(DIM) == 0, np.inf, 0.5),
    "-inf": np.full(DIM, -np.inf),
    "text": np.array(["a"] * DIM),
}


def make_session():
    session = GenieSession()
    session.create_index(POINTS, model="ann-e2lsh", num_functions=8, dim=DIM, width=4.0,
                         domain=67, seed=4, name="points")
    return session


class TestBadAnnVectors:
    @pytest.mark.parametrize("name", sorted(BAD_VECTORS))
    def test_direct_search_raises_query_error(self, name):
        handle = make_session().index("points")
        with pytest.raises(QueryError):
            handle.search([BAD_VECTORS[name]], k=3)
        with pytest.raises(QueryError):
            handle.encode_queries([BAD_VECTORS[name]])

    @pytest.mark.parametrize("name", sorted(BAD_VECTORS))
    def test_served_submit_counts_a_rejection(self, name):
        server = GenieServer(make_session(), policy=BatchPolicy.fifo())
        with pytest.raises(QueryError):
            server.submit("points", BAD_VECTORS[name], k=3)
        assert server.snapshot()["rejected_by_reason"] == {"bad_directive": 1}
        # The server still admits and answers a well-formed request.
        future = server.submit("points", POINTS[0], k=3)
        server.drain()
        assert future.result().ids.size == 3

    def test_three_dimensional_batch_rejected(self):
        handle = make_session().index("points")
        with pytest.raises(QueryError, match="shape"):
            handle.encode_queries(np.zeros((2, 2, DIM)))

    def test_good_vectors_unchanged(self):
        handle = make_session().index("points")
        ints = handle.encode_queries([np.arange(DIM)])[0]
        floats = handle.encode_queries([np.arange(DIM, dtype=np.float64)])[0]
        assert [i.tolist() for i in ints.items] == [f.tolist() for f in floats.items]
