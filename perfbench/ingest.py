"""ingest: writes beside reads on a streamed, range-sharded keyword index.

A ``raw`` keyword-set index with four range shards and the default
``StreamConfig`` (automatic compaction) receives rounds of one ``insert``
batch, one ``delete`` of sampled live ids and one query batch. An episode
is a fixed list of rounds from a freshly built index, long enough for
several compactions; the timed run repeats episodes, so the work done per
episode never depends on how fast the program is.
"""

from __future__ import annotations

import gc
import time

import numpy as np

from common import latency_summary, percentile, replay_max_rate
from oracle import BruteForce, same_answer, same_results

NAME = "ingest"
K = 10
SHARDS = 4
BASE = 4000                # objects in the initial base
VOCAB = 200
ROUNDS = 100               # rounds per episode
INSERTS = 40               # objects inserted per round
DELETES = 20               # live objects deleted per round
QUERIES = 16               # queries per round's batch
LIMIT_S = 0.5              # p99 limit per round (its three calls) for max_rate
DATA_SEED = 0              # generator seed of the fixed base corpus
CHECKPOINTS = tuple(range(ROUNDS // 4 - 1, ROUNDS, ROUNDS // 4))   # rounds the oracle checks


def _objects(rng, n) -> list[list[int]]:
    return [rng.integers(0, VOCAB, size=int(rng.integers(2, 7))).tolist() for _ in range(n)]


class Workload:
    name = NAME

    def __init__(self, seed: int):
        self.seed = seed
        # The base corpus is fixed; the seed draws the writes and queries.
        self.base = _objects(np.random.default_rng(DATA_SEED), BASE)
        rng = np.random.default_rng([seed, 1])
        self.inserts = [_objects(rng, INSERTS) for _ in range(ROUNDS)]
        self.queries = [
            [rng.integers(0, VOCAB, size=3).tolist() for _ in range(QUERIES)]
            for _ in range(ROUNDS)
        ]
        self.warm_queries = [rng.integers(0, VOCAB, size=3).tolist() for _ in range(QUERIES)]

    def build(self) -> dict:
        from repro.api import GenieSession
        from repro.stream import StreamConfig

        session = GenieSession()
        start = time.perf_counter()
        handle = session.create_index(
            self.base, model="raw", name="live", shards=SHARDS,
            shard_strategy="range", stream_config=StreamConfig(),
        )
        write_s = [time.perf_counter() - start]
        handle.search(self.warm_queries, k=K)
        return {"session": session, "handle": handle, "write_s": write_s, "write_rows": BASE}

    def _episode(self, handle, on_round=None, checkpoints=()) -> dict:
        """Run every round once; returns per-call wall seconds and the final state.

        ``on_round(result)`` sees each round's query result. After each
        round in ``checkpoints`` the live objects and that round's answers
        are kept for the oracle. Inserted ids are checked against the ids a
        from-scratch numbering would give.
        """
        from repro.errors import ReproError

        clock = time.perf_counter
        rng = np.random.default_rng([self.seed, 2])
        live = dict(enumerate(self.base))
        order = list(live)               # live ids, for O(1) sampling
        where = {gid: i for i, gid in enumerate(order)}
        next_gid = BASE
        reads, writes, rounds = [], [], []
        failed = attempted = 0
        rewritten = 0
        counter = [0]  # compactions seen so far
        result = None
        snapshots = []
        for number, (objects, queries) in enumerate(zip(self.inserts, self.queries)):
            round_s = 0.0
            start = clock()
            try:
                gids = handle.insert(objects)
            except ReproError:
                gids = None
            elapsed = clock() - start
            attempted += 1
            writes.append(elapsed)
            round_s += elapsed
            rewritten += self._compacted(handle, counter)
            expected = np.arange(next_gid, next_gid + len(objects))
            if gids is None or not np.array_equal(gids, expected):
                failed += 1
            for gid, obj in zip(expected, objects):
                live[int(gid)] = obj
                where[int(gid)] = len(order)
                order.append(int(gid))
            next_gid += len(objects)

            doomed = [order[int(j)] for j in rng.choice(len(order), size=DELETES, replace=False)]
            start = clock()
            try:
                handle.delete(doomed)
            except ReproError:
                failed += 1
            elapsed = clock() - start
            attempted += 1
            writes.append(elapsed)
            round_s += elapsed
            rewritten += self._compacted(handle, counter)
            for gid in doomed:
                del live[gid]
                last = order.pop()
                if last != gid:
                    order[where[gid]] = last
                    where[last] = where[gid]
                del where[gid]

            start = clock()
            try:
                result = handle.search(queries, k=K)
            except ReproError:
                failed += 1
                result = None
            elapsed = clock() - start
            attempted += 1
            reads.append(elapsed)
            rounds.append(round_s + elapsed)
            if on_round is not None and result is not None:
                on_round(result)
            if number in checkpoints and result is not None:
                snapshots.append((number, dict(live), next_gid, result.results))
        return {
            "reads": reads, "writes": writes, "rounds": rounds,
            "attempted": attempted, "failed": failed, "snapshots": snapshots,
            "rows_written": ROUNDS * (INSERTS + DELETES), "rows_rewritten": rewritten,
        }

    @staticmethod
    def _compacted(handle, counter) -> int:
        """Rows the compactions since the last call rewrote (the new base size)."""
        manifest = handle.manifest
        if manifest.compactions == counter[0]:
            return 0
        counter[0] = manifest.compactions
        return manifest.base_objects

    @staticmethod
    def _sim_seconds(session) -> float:
        return session.host.timings.total + sum(
            device.timings.total for device in session.shard_devices(SHARDS)
        )

    def fixed_pass(self, state) -> dict:
        session, handle = state["session"], state["handle"]
        sim = []
        before = self._sim_seconds(session)
        episode = self._episode(
            handle, on_round=lambda r: sim.append(r.profile.query_total()),
            checkpoints=CHECKPOINTS,
        )
        elapsed = self._sim_seconds(session) - before
        manifest = handle.manifest
        return {
            "queries": ROUNDS * QUERIES,
            "sim_qps": ROUNDS * QUERIES / elapsed,
            "sim_p99_ms": percentile(sim, 99) * 1e3,
            "attempted": episode["attempted"],
            "failed": episode["failed"],
            "compactions": manifest.compactions,
            "delta_postings": manifest.delta_postings,
            "rows_rewritten_per_row": episode["rows_rewritten"] / episode["rows_written"],
            "evidence": {"snapshots": episode["snapshots"]},
        }

    def timed(self, state, seconds: float, part: int) -> dict:
        """Whole episodes while the next is expected to end closer to
        ``seconds`` of timed calls than stopping now (at least one).

        Every episode replays the same rounds, so ``part`` changes nothing.
        """
        reads, writes, rounds = [], [], []
        attempted = failed = episodes = 0
        spent = 0.0
        while not episodes or spent + 0.5 * spent / episodes < seconds:
            if episodes:
                # Every episode starts from a fresh index; the build is
                # set-up, not part of the timed calls.
                state["session"].close()
                state.update(self.build())
                gc.collect()
            episode = self._episode(state["handle"])
            episodes += 1
            reads += episode["reads"]
            writes += episode["writes"]
            rounds += episode["rounds"]
            attempted += episode["attempted"]
            failed += episode["failed"]
            spent += sum(episode["rounds"])
        return {"reads": reads, "writes": writes, "rounds": rounds, "episodes": episodes,
                "attempted": attempted, "failed": failed}

    def summarize(self, parts) -> dict:
        reads = [x for p in parts for x in p["reads"]]
        writes = [x for p in parts for x in p["writes"]]
        rounds = [x for p in parts for x in p["rounds"]]
        episodes = sum(p["episodes"] for p in parts)
        summary = latency_summary(reads)
        return {
            "qps": len(reads) * QUERIES / float(np.sum(reads)),
            "p50_ms": summary["p50_ms"],
            "p90_ms": summary["p90_ms"],
            "p99_ms": summary["p99_ms"],
            "max_rate": replay_max_rate(rounds, QUERIES, LIMIT_S, seed=self.seed),
            "write_rows_per_s": episodes * ROUNDS * (INSERTS + DELETES) / float(np.sum(writes)),
            "write_p99_ms": percentile(writes, 99) * 1e3,
            "attempted": sum(p["attempted"] for p in parts),
            "failed": sum(p["failed"] for p in parts),
            "samples": {
                "episodes": episodes, "query_batches": len(reads),
                "write_calls": len(writes), "queries_per_batch": QUERIES,
            },
        }

    def check(self, evidence) -> dict:
        """Answers at the checkpoints vs the brute-force count over the live
        objects; the final answers also vs a from-scratch fit."""
        from repro.api import GenieSession
        from repro.api.models import resolve_model

        model = resolve_model("raw")
        checked = mismatched = 0
        hits = total = 0
        for number, live, next_gid, streamed in evidence["snapshots"]:
            corpus = [live.get(gid, []) for gid in range(next_gid)]
            brute = BruteForce(model.encode_corpus(corpus).keyword_arrays)
            queries = self.queries[number]
            refit = None
            if number == ROUNDS - 1:
                truth = GenieSession().create_index(
                    corpus, model="raw", name="truth", shards=SHARDS, shard_strategy="range",
                )
                refit = truth.search(queries, k=K).results
                truth.session.close()
            for i, (query, got) in enumerate(zip(model.encode_queries(queries), streamed)):
                ids, counts = brute.topk(query, K)
                checked += 1
                hits += np.intersect1d(got.ids, ids).size
                total += ids.size
                ok = same_answer(got, ids, counts)
                if refit is not None:
                    ok = ok and same_results([got], [refit[i]]) and got.threshold == refit[i].threshold
                mismatched += not ok
        return {"checked": checked, "mismatched": mismatched,
                "recall_at_10": hits / max(total, 1)}
