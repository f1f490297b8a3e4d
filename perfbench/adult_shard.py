"""adult-shard: 64-query relational range batches on a sharded, replicated table.

A 20 k-row Adult-like table sorted by age is range-partitioned over four
shards with two replicas each (fault-free). Each batch asks age ranges
around one age quantile; the batch's width class (narrow to wide) decides
how many shards it reaches, so batch-granular pruning skips a shard only
for some batches. Calls are direct ``IndexHandle.search`` calls in a
closed loop with one caller.
"""

from __future__ import annotations

import time

import numpy as np

from common import latency_summary, percentile, replay_max_rate
from oracle import BruteForce, same_answer, same_results

NAME = "adult-shard"
K = 10
ROWS = 20_000
SHARDS = 4
REPLICAS = 2
BATCH = 64
BATCHES = 256              # distinct batches, cycled by the timed loop
FIXED_BATCHES = 40         # the deterministic pass
WIDTHS = (0.5, 2.0, 8.0, 30.0)   # age-range width classes
LIMIT_S = 0.5              # p99 limit per batch call for max_rate
ORACLE_BATCHES = len(WIDTHS)
DATA_SEED = 0              # generator seed of the fixed table


class Workload:
    name = NAME

    def __init__(self, seed: int):
        from repro.datasets.relational import adult_schema, make_adult_like

        self.seed = seed
        # The table is fixed (its age scale depends on the generator's seed);
        # the seed draws the query batches.
        columns = make_adult_like(n=ROWS, seed=DATA_SEED)
        order = np.argsort(columns["age"], kind="stable")
        self.table = {name: values[order] for name, values in columns.items()}
        self.schema = adult_schema()
        # Stratified draws keep every seed's mix alike: width classes take
        # turns, and batch centres cover the age distribution's quantiles
        # in a seeded order.
        rng = np.random.default_rng([seed, 2])
        strata = rng.permutation(BATCHES)
        self.batches = [
            self._batch(rng, (strata[i] + rng.uniform()) / BATCHES, WIDTHS[i % len(WIDTHS)])
            for i in range(BATCHES)
        ]
        rng = np.random.default_rng([seed, 3])
        self.warm_batch = self._batch(rng, rng.uniform(), WIDTHS[0])

    def _batch(self, rng, quantile: float, width: float) -> list[dict]:
        center = float(self.table["age"][min(int(quantile * ROWS), ROWS - 1)])
        batch = []
        for _ in range(BATCH):
            mid = center + float(rng.normal(0.0, width / 2))
            half = width * float(rng.uniform(0.25, 0.75))
            batch.append({"age": (mid - half, mid + half)})
        return batch

    # ------------------------------------------------------------------

    def build(self) -> dict:
        from repro.api import GenieSession

        session = GenieSession()
        start = time.perf_counter()
        handle = session.create_index(
            self.table, model="relational", schema=self.schema, name="adult",
            shards=SHARDS, replicas=REPLICAS,
        )
        write_s = [time.perf_counter() - start]
        handle.search(self.warm_batch, k=K)
        return {"session": session, "handle": handle, "write_s": write_s, "write_rows": ROWS}

    def fixed_pass(self, state) -> dict:
        handle = state["handle"]
        sim = []
        results = []
        failovers = 0
        for batch in self.batches[:FIXED_BATCHES]:
            result = handle.search(batch, k=K)
            sim.append(result.profile.query_total())
            results.append(result.results)
            failovers += bool(result.failovers)
        return {
            "queries": FIXED_BATCHES * BATCH,
            "sim_qps": FIXED_BATCHES * BATCH / float(np.sum(sim)),
            "sim_p99_ms": percentile(sim, 99) * 1e3,
            # Nothing injects faults, so a call that failed over is a failure.
            "attempted": FIXED_BATCHES,
            "failed": failovers,
            "evidence": {"results": results},
        }

    def timed(self, state, seconds: float, part: int) -> dict:
        """Closed-loop batch calls for ``seconds``; round ``part`` starts a
        quarter of the batch cycle further on, so rounds begin on different
        batches."""
        from repro.errors import ReproError

        handle = state["handle"]
        clock = time.perf_counter
        calls = []
        failed = 0
        deadline = clock() + seconds
        i = FIXED_BATCHES + part * BATCHES // 4
        while clock() < deadline:
            batch = self.batches[i % BATCHES]
            i += 1
            start = clock()
            try:
                failed += bool(handle.search(batch, k=K).failovers)
            except ReproError:
                failed += 1
            calls.append(clock() - start)
        return {"calls": calls, "failed": failed}

    def summarize(self, rounds) -> dict:
        calls = [x for r in rounds for x in r["calls"]]
        summary = latency_summary(calls)
        return {
            "qps": len(calls) * BATCH / float(np.sum(calls)),
            "p50_ms": summary["p50_ms"],
            "p90_ms": summary["p90_ms"],
            "p99_ms": summary["p99_ms"],
            "max_rate": replay_max_rate(calls, BATCH, LIMIT_S, seed=self.seed),
            "attempted": len(calls),
            "failed": sum(r["failed"] for r in rounds),
            "samples": {"batch_calls": len(calls), "queries_per_call": BATCH},
        }

    def check(self, evidence) -> dict:
        """Sharded+replicated answers vs a serial index and the brute-force count."""
        from repro.api import GenieSession
        from repro.api.models import resolve_model

        serial = GenieSession().create_index(
            self.table, model="relational", schema=self.schema, name="serial"
        )
        model = resolve_model("relational", schema=self.schema)
        brute = BruteForce(model.encode_corpus(self.table).keyword_arrays)
        checked = mismatched = 0
        hits = total = 0
        for b in range(ORACLE_BATCHES):  # one batch of each width class
            batch, served = self.batches[b], evidence["results"][b]
            direct = serial.search(batch, k=K).results
            for query, got, want in zip(model.encode_queries(batch), served, direct):
                ids, counts = brute.topk(query, K)
                checked += 1
                hits += np.intersect1d(got.ids, ids).size
                total += ids.size
                if not (same_results([got], [want]) and same_answer(got, ids, counts)):
                    mismatched += 1
        serial.session.close()
        return {"checked": checked, "mismatched": mismatched,
                "recall_at_10": hits / max(total, 1)}
