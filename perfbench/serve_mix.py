"""serve-mix: single-query open-loop traffic through ``GenieServer``.

The mix is 40 % tweets ``document``, 40 % ``ann-e2lsh`` (32 functions) and
20 % Adult ``relational`` requests, micro-batched (``max_batch=32``) with
the default exact-match cache, as in ``benchmarks/test_serve_throughput.py``.

* Phase A replays a seeded Poisson trace on the server's virtual clock as
  fast as the host allows: real capacity (``qps``) next to the simulated
  figures (``sim_qps``, ``sim_p99_ms``).
* Phase B sends Poisson arrivals on the wall clock at each rate of a fixed
  ladder, driving the server with ``advance_to(elapsed wall seconds)``.
  Each request is timed from when it was due until its future completes.
"""

from __future__ import annotations

import math
import time

import numpy as np

from common import latency_summary, median, percentile
from oracle import BruteForce, same_answer, same_results, sample_positions

NAME = "serve-mix"
K = 10
MAX_BATCH = 32
MAX_WAIT = 1e-4            # seconds a queued request may wait for lane-mates
TRACE_REQUESTS = 1500      # Phase A trace length
TRACE_RATE = 5e7           # Phase A offered load, requests per simulated second
# Every block of five requests holds the 40/40/20 mix exactly, in a seeded
# order, so the latency percentiles do not move with the mix a seed draws.
MIX = ("tweets", "tweets", "sift", "sift", "adult")
# Phase B offered rates, requests/s: the reference rate, then steps of
# sqrt(2) from 283 on, fine enough around the knee (400-800 on a 2-core
# host) that max_rate follows it instead of jumping between rungs.
LADDER = (100.0, 283.0, 400.0, 566.0, 800.0, 1131.0)
REFERENCE_RATE = 100.0     # rung whose latencies are the p50/p90/p99 figures
# Seconds of one segment of each rung. A round repeats short passes over
# the ladder, so every rung samples the whole run and a slow spell of the
# shared host lands on every rung alike; an overloaded rung still builds a
# backlog past the limit within its segment. The reference rung gets the
# most time, for over a thousand requests per run behind its p99.
SEGMENT_S = {100.0: 1.5, 283.0: 0.2, 400.0: 0.2, 566.0: 0.2, 800.0: 0.2, 1131.0: 0.2}
REPLAY_REQUESTS = 500      # requests of the Phase A trace each timed replay sends
# p99 latency limit per request. Below ~30 ms, p99 is set by single slow
# requests at every load and barely rises with the rate, so the crossing
# rate would be ill-defined; at 50 ms it crosses where queueing takes off.
LIMIT_S = 0.05
ABORT_LATE_S = 2.0         # stop a rung whose generator fell this far behind
QUEUE_DEPTH = 1 << 15
ORACLE_SAMPLE = 48
ANN_POOL = 1024            # held-out ANN query points
DATA_SEED = 7              # generator seed of the fixed corpora


class Workload:
    name = NAME

    def __init__(self, seed: int):
        from repro.datasets.documents import make_document_queries, make_tweets_like
        from repro.datasets.relational import adult_schema, make_adult_like
        from repro.datasets.synthetic import make_sift_like

        self.seed = seed
        # The corpora and query pools are fixed, so every seed asks the same
        # kinds of query; the seed draws the traffic from them.
        self.docs = make_tweets_like(n=2000, seed=DATA_SEED + 1)
        doc_pool, _ = make_document_queries(self.docs, 64, seed=DATA_SEED + 2)
        # ANN requests are held-out points of the same mixture as the data,
        # so that recall against the exact 10-NN is meaningful.
        self.sift = make_sift_like(n=2000, n_queries=ANN_POOL, seed=DATA_SEED + 3)
        ann_pool = self.sift.queries
        self.table = make_adult_like(n=4000, seed=DATA_SEED + 4)
        self.schema = adult_schema()
        self.ann_opts = dict(num_functions=32, dim=self.sift.dim, width=4.0, domain=256,
                             seed=DATA_SEED + 5)

        def adult_query(rng):
            lo = float(rng.uniform(10, 60))
            return {
                "age": (lo, lo + 25.0),
                "education_num": (float(rng.uniform(0, 40)), 100.0),
                "sex": (int(rng.integers(0, 2)),) * 2,
            }

        # Index name -> seeded sampler of one raw query for it.
        self.samplers = {
            "tweets": lambda rng: doc_pool[int(rng.integers(len(doc_pool)))],
            "sift": lambda rng: ann_pool[int(rng.integers(len(ann_pool)))],
            "adult": adult_query,
        }
        self.rows = len(self.docs) + len(self.sift.data) + len(self.table["age"])

    # ------------------------------------------------------------------
    # set-up

    def build(self) -> dict:
        """Session plus the three indexes, each warmed by one search."""
        from repro.api import GenieSession

        session = GenieSession()
        write_s = []
        for data, model, kwargs, name in (
            (self.docs, "document", {}, "tweets"),
            (self.sift.data, "ann-e2lsh", self.ann_opts, "sift"),
            (self.table, "relational", {"schema": self.schema}, "adult"),
        ):
            start = time.perf_counter()
            session.create_index(data, model=model, name=name, **kwargs)
            write_s.append(time.perf_counter() - start)
        rng = np.random.default_rng([self.seed, 99])
        for name, sample in self.samplers.items():
            session.index(name).search([sample(rng)], k=K)
        return {"session": session, "write_s": write_s, "write_rows": self.rows}

    def _server(self, session):
        from repro.serve import BatchPolicy, GenieServer

        return GenieServer(
            session, policy=BatchPolicy.micro(max_batch=MAX_BATCH, max_wait=MAX_WAIT),
            max_queue_depth=QUEUE_DEPTH,
        )

    # ------------------------------------------------------------------
    # Phase A: virtual-clock replay

    def _replay(self, session, trace):
        server = self._server(session)
        futures = []
        for arrival in trace:
            server.advance_to(arrival.time)
            futures.append(server.submit(arrival.index, arrival.raw_query, k=arrival.k))
        server.drain()
        return server, futures

    def _trace(self, n: int, rate: float, seed) -> list:
        """A seeded Poisson trace of ``n`` requests at ``rate`` per second."""
        from repro.serve import Arrival

        rng = np.random.default_rng(seed)
        times = np.cumsum(rng.exponential(1.0 / rate, size=n))
        blocks = -(-n // len(MIX))
        order = np.concatenate([rng.permutation(len(MIX)) for _ in range(blocks)])
        trace = []
        for t, slot in zip(times, order):
            name = MIX[slot]
            trace.append(Arrival(time=float(t), index=name,
                                 raw_query=self.samplers[name](rng), k=K, opts=()))
        return trace

    def _phase_a_trace(self) -> list:
        return self._trace(TRACE_REQUESTS, TRACE_RATE, [self.seed, 6])

    def fixed_pass(self, state) -> dict:
        """One Phase A replay: the deterministic figures and the oracle's sample."""
        from repro.datasets.synthetic import true_knn

        trace = self._phase_a_trace()
        server, futures = self._replay(state["session"], trace)
        snap = server.snapshot()
        ann = [i for i, a in enumerate(trace) if a.index == "sift"]
        truth, _ = true_knn(self.sift.data, np.stack([trace[i].raw_query for i in ann]), K)
        hits = [
            np.intersect1d(futures[i].result().ids, truth[j]).size
            for j, i in enumerate(ann)
        ]
        return {
            "queries": len(trace),
            "sim_qps": snap["throughput_qps"],
            "sim_p99_ms": snap["latency_p99"] * 1e3,
            "recall_at_10": float(np.sum(hits)) / (K * len(ann)),
            "snapshot": snap,
            "evidence": {"trace": trace, "served": [f.result() for f in futures]},
        }

    # ------------------------------------------------------------------
    # Phase B: wall-clock ladder

    def _rung(self, session, rate: float, seconds: float, part: int = 0) -> dict:
        """Open-loop arrivals at ``rate`` for ``seconds`` on a fresh server."""
        from repro.errors import ReproError

        n = max(1, int(math.ceil(rate * seconds)))
        trace = self._trace(n, rate, [self.seed, int(rate), part])
        server = self._server(session)
        clock = time.perf_counter
        pending = []
        latency, late = [], []
        failed = sent = 0
        t0 = clock()
        i = 0
        # The generator polls instead of sleeping: on a shared host a
        # sleep's wake-up latency adds milliseconds to measured arrivals.
        while i < n or pending:
            now = clock() - t0
            server.advance_to(now)
            while i < n and trace[i].time <= now:
                arrival = trace[i]
                i += 1
                behind = clock() - t0 - arrival.time
                late.append(behind)
                if behind > ABORT_LATE_S:
                    i = n  # the generator cannot keep up: the rung has failed
                    break
                sent += 1
                try:
                    future = server.submit(arrival.index, arrival.raw_query, k=arrival.k)
                except ReproError:
                    failed += 1
                    continue
                pending.append((arrival.time, future))
            done_at = clock() - t0
            waiting = []
            for due, future in pending:
                if not future.done():
                    waiting.append((due, future))
                    continue
                try:
                    future.result()
                except ReproError:
                    failed += 1
                    continue
                latency.append(done_at - due)
            pending = waiting
        return {"sent": sent, "failed": failed, "complete": sent == n,
                "latency": latency, "late": late}

    @staticmethod
    def _max_rate(rungs) -> float:
        """Highest rate meeting the limit, read off a fit around the knee.

        The ladder is climbed until the first rung that misses the limit.
        log(p99) is fitted linearly in the rate over that rung, the one
        after it and the two before it (the two closest on each side of
        the knee), and the fit's crossing of the limit is reported,
        clipped to lie between the last rung that met the limit and the
        first that missed it. A fit over four rungs moves less with the
        noise of any one rung's p99 than a line through two would. Beyond
        the ends of the ladder nothing is extrapolated: a ladder that meets
        the limit everywhere reports its top rate, and one that misses it
        at the first rung reports half that rung's rate.
        """
        j = 0
        while j < len(rungs) and rungs[j]["meets"]:
            j += 1
        if j == 0:
            return rungs[0]["rate"] / 2
        if j == len(rungs):
            return rungs[-1]["rate"]
        window = [r for r in rungs[max(0, j - 2):j + 2] if math.isfinite(r["p99_s"])]
        rates = np.array([r["rate"] for r in window])
        logs = np.log([max(r["p99_s"], 1e-9) for r in window])
        slope, intercept = np.polyfit(rates, logs, 1)
        low, high = rungs[j - 1]["rate"], rungs[j]["rate"]
        if slope <= 0:
            return low  # p99 did not rise across the knee: no crossing to refine
        return min(max((math.log(LIMIT_S) - intercept) / slope, low), high)

    def gen_late_p99_ms(self, state, seconds: float) -> float:
        """How late the open-loop generator ran at the reference rate."""
        rung = self._rung(state["session"], REFERENCE_RATE, seconds)
        return percentile(rung["late"], 99) * 1e3

    # ------------------------------------------------------------------
    # timed run

    def timed(self, state, seconds: float, part: int) -> dict:
        """Passes over the ladder, each followed by a Phase A replay.

        Passes repeat while the next one is expected to end closer to
        ``seconds`` than stopping now would (at least one pass);
        ``summarize`` pools the segments of every pass and round.
        """
        from repro.errors import ReproError

        session = state["session"]
        trace = self._phase_a_trace()[:REPLAY_REQUESTS]
        start = time.perf_counter()
        segments, replays = [], []
        failed = 0
        elapsed = 0.0
        while not replays or elapsed + 0.5 * elapsed / len(replays) < seconds:
            seed = part * 1000 + len(replays)
            segments.append([self._rung(session, rate, SEGMENT_S[rate], seed)
                             for rate in LADDER])
            begin = time.perf_counter()
            _, futures = self._replay(session, trace)
            replays.append(time.perf_counter() - begin)
            for future in futures:
                try:
                    future.result()
                except ReproError:
                    failed += 1
            elapsed = time.perf_counter() - start
        return {"segments": segments, "replays": replays, "replay_requests": len(trace),
                "replay_failed": failed}

    def summarize(self, rounds) -> dict:
        """Pool the rounds: Phase A capacity, reference latencies, max_rate.

        A rung meets the limit when none of its requests failed, every
        segment sent all of its arrivals, the pooled p99 is within the limit
        and the latest quarter of each segment's requests (a growing backlog
        shows there) has a median within it.
        """
        ladder = []
        for j, rate in enumerate(LADDER):
            segments = [rungs[j] for r in rounds for rungs in r["segments"]]
            latency = [x for seg in segments for x in seg["latency"]]
            tail = [x for seg in segments
                    for x in seg["latency"][-max(1, len(seg["latency"]) // 4):]]
            p99 = percentile(latency, 99) if latency else math.inf
            failed = sum(seg["failed"] for seg in segments)
            complete = all(seg["complete"] for seg in segments)
            meets = (failed == 0 and complete and p99 <= LIMIT_S
                     and bool(tail) and median(tail) <= LIMIT_S)
            ladder.append({"rate": rate, "p99_s": p99, "meets": meets, "latency": latency,
                           "sent": sum(seg["sent"] for seg in segments), "failed": failed,
                           "late": [x for seg in segments for x in seg["late"]]})
        reference = latency_summary(ladder[LADDER.index(REFERENCE_RATE)]["latency"])
        replayed = sum(len(r["replays"]) * r["replay_requests"] for r in rounds)
        return {
            "qps": replayed / sum(x for r in rounds for x in r["replays"]),
            "p50_ms": reference["p50_ms"],
            "p90_ms": reference["p90_ms"],
            "p99_ms": reference["p99_ms"],
            "max_rate": self._max_rate(ladder),
            "attempted": replayed + sum(rung["sent"] for rung in ladder),
            "failed": sum(rung["failed"] for rung in ladder)
            + sum(r["replay_failed"] for r in rounds),
            "samples": {
                "phase_a_replays": sum(len(r["replays"]) for r in rounds),
                "phase_a_requests_per_replay": REPLAY_REQUESTS,
                "ladder_passes": sum(len(r["segments"]) for r in rounds),
                "reference_requests": reference["samples"],
                "ladder": {
                    f"{rung['rate']:g}": {
                        "sent": rung["sent"], "failed": rung["failed"], "meets": rung["meets"],
                        "p99_ms": rung["p99_s"] * 1e3,
                        "gen_late_p99_ms": percentile(rung["late"], 99) * 1e3,
                    }
                    for rung in ladder
                },
            },
        }

    # ------------------------------------------------------------------
    # oracle

    def check(self, evidence) -> dict:
        """Served answers vs direct search on a fresh set-up and vs the
        brute-force count."""
        from repro.api.models import resolve_model

        trace, served = evidence["trace"], evidence["served"]
        data = {"tweets": self.docs, "sift": self.sift.data, "adult": self.table}
        models = {
            "tweets": resolve_model("document"),
            "sift": resolve_model("ann-e2lsh", **self.ann_opts),
            "adult": resolve_model("relational", schema=self.schema),
        }
        brute = {name: BruteForce(m.encode_corpus(data[name]).keyword_arrays)
                 for name, m in models.items()}
        session = self.build()["session"]
        rng = np.random.default_rng([self.seed, 11])
        checked = mismatched = 0
        for i in sample_positions(len(trace), ORACLE_SAMPLE, rng):
            arrival = trace[i]
            direct = session.index(arrival.index).search([arrival.raw_query], k=K)
            query = models[arrival.index].encode_queries([arrival.raw_query])[0]
            ids, counts = brute[arrival.index].topk(query, K)
            checked += 1
            if not (same_results([served[i]], direct.results)
                    and same_answer(served[i], ids, counts)):
                mismatched += 1
        session.close()
        return {"checked": checked, "mismatched": mismatched}
