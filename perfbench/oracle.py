"""Answer oracle that shares no code with the engine's index, plan or scan.

The oracle counts matches by brute force over the encoded keyword sets:
an object's count for a query is the number of (item, keyword) pairs the
object holds, summed over the query's items. The top-k is the k objects
with the highest positive count, ties broken by ascending object id.
"""

from __future__ import annotations

import numpy as np


class BruteForce:
    """Brute-force match counting over one list of keyword arrays.

    Args:
        keyword_arrays: One keyword array per object, indexed by object id
            (an empty array for a dead slot).
    """

    def __init__(self, keyword_arrays):
        arrays = [np.asarray(a, dtype=np.int64) for a in keyword_arrays]
        self.n = len(arrays)
        sizes = np.fromiter((a.size for a in arrays), dtype=np.int64, count=self.n)
        self.flat = np.concatenate(arrays) if arrays else np.empty(0, dtype=np.int64)
        self.owner = np.repeat(np.arange(self.n, dtype=np.int64), sizes)

    def counts(self, query) -> np.ndarray:
        counts = np.zeros(self.n, dtype=np.int64)
        for item in query.items:
            hit = np.isin(self.flat, item)
            counts += np.bincount(self.owner[hit], minlength=self.n)
        return counts

    def topk(self, query, k: int) -> tuple[np.ndarray, np.ndarray]:
        counts = self.counts(query)
        order = np.lexsort((np.arange(self.n), -counts))[:k]
        order = order[counts[order] > 0]
        return order, counts[order]


def same_answer(got, want_ids, want_counts) -> bool:
    """Whether a :class:`TopKResult` equals ``(want_ids, want_counts)``."""
    return np.array_equal(got.ids, want_ids) and np.array_equal(got.counts, want_counts)


def same_results(got, want) -> bool:
    """Whether two result lists agree id for id and count for count."""
    return len(got) == len(want) and all(
        same_answer(a, b.ids, b.counts) for a, b in zip(got, want)
    )


def sample_positions(n: int, size: int, rng: np.random.Generator) -> list[int]:
    """Sorted distinct positions below ``n`` (all of them when ``n <= size``)."""
    if n <= size:
        return list(range(n))
    return sorted(int(i) for i in rng.choice(n, size=size, replace=False))
