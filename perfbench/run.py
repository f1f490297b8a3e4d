#!/usr/bin/env python3
"""Benchmark of the GENIE reproduction: real and simulated end-to-end figures.

Run from the repository root::

    python3 perfbench/run.py --workload serve-mix --seed 1 --seconds 24 --trace 0

Workloads (each in its own module, each run in a fresh process):

* ``serve-mix`` -- single-query open-loop traffic through ``GenieServer``;
* ``adult-shard`` -- 64-query range batches on a sharded, replicated table;
* ``ingest`` -- insert/delete/query rounds on a streamed sharded index.

``--trace 0`` is the timed run. It sets the workload up cold, runs a fixed
deterministic pass that doubles as warm-up (``sim_qps``, ``sim_p99_ms``,
``recall_at_10``) and checks a seeded sample of answers against an oracle
that shares no code with the engine's index, planner or scan. It then
measures for ``--seconds`` seconds in ``ROUNDS`` rounds, each after a
fresh set-up; ``setup_s`` is the median over all set-ups. Wall-clock
figures are scaled to a host speed probed between the rounds with a
reference kernel that uses none of the program's code
(``common.HostSpeed``); the unscaled figures are in the run's record.

``--trace 1`` is the traced run: the same fixed pass untraced and then
traced, with spans recorded around the program's public entry points
(see ``tracing.py``). It reports self time per layer, the ``unattributed``
rest of the wall time, ``trace_overhead`` and the layers' counters.

``--selfcheck`` runs the traced run twice with ``--seed`` and once with
the next seed, and fails unless the simulated figures and the count-type
layer metrics repeat exactly.

Every run prints a record with the environment stamp, then, as its last
line, ``{"correct", "attempted", "failed", "metrics"}``. A wrong answer
or failed operation makes ``correct`` false and the exit code 1. The
figures of each run are also written to ``.perfbench_out/``.

Each workload indexes a fixed corpus; ``--seed`` draws the traffic, writes
and queries. Latency figures are per request at 100 req/s for serve-mix,
per batch call for adult-shard and per query batch for ingest. Latency
limits: 50 ms per serve-mix request, 500 ms per adult-shard batch call,
500 ms per ingest round. ``max_rate`` for serve-mix is read off the
wall-clock rate ladder; for the closed-loop workloads it replays the
measured call times through a single FIFO server under Poisson arrivals
(``common.replay_max_rate``). The static workloads write only when they
build, so their ``write_*`` figures describe ``create_index``.
``p99_ms``, ``max_rate`` and ``write_p99_ms`` are printed and recorded but
are not in BENCHMARK.json (see ``UNGATED``).
"""

import os

# One driver thread and single-threaded BLAS, fixed before numpy loads.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in THREAD_ENV:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
ROUNDS = 8                 # timed rounds, each after a fresh set-up
# Wall-clock metrics, reported at host speed 1.0 (``common.HostSpeed``).
WALL_TIMES = ("setup_s", "p50_ms", "p90_ms", "p99_ms", "write_p99_ms")
WALL_RATES = ("qps", "max_rate", "write_rows_per_s")
SIM_STAGES = ("query_transfer", "match", "select", "result_merge", "index_transfer",
              "tombstone_filter")
# End-to-end figures printed and recorded but left out of BENCHMARK.json:
# over ten seeds their spread came within 0.05 of the 0.25 bound even after
# scaling to host speed. p99_ms: serve-mix's rests on ~12 requests beyond
# it and follows the host only loosely. max_rate: a knee read off short
# ladder rungs, or a queue replay. write_p99_ms: for the static workloads,
# about the slowest of a few create_index calls.
UNGATED = {"p99_ms": "ms", "max_rate": "1/s", "write_p99_ms": "ms"}
DETERMINISTIC = ("sim_qps", "sim_p99_ms", "recall_at_10")
DETERMINISTIC_COUNTS = ("serve.batches", "encode.queries", "core.scan_calls",
                        "plan.compiles", "stream.compactions")


def _workloads():
    import adult_shard
    import ingest
    import serve_mix

    return {m.NAME: m.Workload for m in (serve_mix, adult_shard, ingest)}


# ----------------------------------------------------------------------
# timed run


def _release(state) -> None:
    """Close a set-up's session and free it now, not at some later collection.

    Sessions hold reference cycles; collecting them here keeps the peak
    resident set from depending on when the collector happens to run.
    """
    state["session"].close()
    state.clear()
    gc.collect()


def timed_run(workload, seconds: float) -> tuple[dict, dict]:
    """Set-ups interleaved with the timed rounds, so each samples the whole run.

    The first set-up is cold (lazy imports, first plan compiles); it is
    followed by the deterministic pass, which doubles as warm-up, outside
    the timed region. Every round then starts from a fresh set-up and
    measures for its share of ``seconds``. ``setup_s`` is the median over
    all set-ups; the cold one is also reported on its own. The host's
    speed is probed before every set-up and round and once at the end,
    and the wall-clock figures are scaled by it. The oracle checks the
    deterministic pass's answers last, after the peak resident set has
    been read.
    """
    from common import HostSpeed, median, peak_rss_mb, percentile

    setups, write_s, write_rows = [], [], []
    host = HostSpeed()

    def setup():
        host.probe()
        start = time.perf_counter()
        built = workload.build()
        setups.append(time.perf_counter() - start)
        write_s.extend(built["write_s"])
        write_rows.append(built["write_rows"])
        return built

    state = setup()
    fixed = workload.fixed_pass(state)
    rounds = []
    for part in range(ROUNDS):
        _release(state)
        state = setup()
        # Collect the set-up garbage now and keep the surviving heap out of
        # the collector's way, so a full collection sized by the benchmark's
        # own objects does not land inside the timed region.
        gc.collect()
        host.probe()
        gc.freeze()
        try:
            rounds.append(workload.timed(state, seconds / ROUNDS, part))
        finally:
            gc.unfreeze()
    _release(state)
    host.probe()
    # The peak is read before the oracle allocates its own copies of the
    # data, so that it is the workload's and not the benchmark's.
    peak = peak_rss_mb()
    oracle = workload.check(fixed.pop("evidence"))
    real = workload.summarize(rounds)

    metrics = {
        "setup_s": median(setups),
        "qps": real["qps"],
        "p50_ms": real["p50_ms"],
        "p90_ms": real["p90_ms"],
        "p99_ms": real["p99_ms"],
        "max_rate": real["max_rate"],
        # A static workload writes only when it builds: its write figures
        # describe the create_index calls of the set-ups.
        "write_rows_per_s": real.get("write_rows_per_s", sum(write_rows) / sum(write_s)),
        "write_p99_ms": real.get("write_p99_ms", percentile(write_s, 99) * 1e3),
        "sim_qps": fixed["sim_qps"],
        "sim_p99_ms": fixed["sim_p99_ms"],
        "recall_at_10": fixed.get("recall_at_10", oracle.get("recall_at_10")),
        "peak_rss_mb": peak,
    }
    speed = host.factor()
    unscaled = {name: metrics[name] for name in WALL_TIMES + WALL_RATES}
    for name in WALL_TIMES:
        metrics[name] *= speed
    for name in WALL_RATES:
        metrics[name] /= speed
    tally = {
        "attempted": fixed.get("attempted", 0) + real["attempted"] + oracle["checked"],
        "failed": fixed.get("failed", 0) + real["failed"] + oracle["mismatched"],
        "oracle": oracle,
        "first_setup_s": setups[0],
        "host_speed": speed,
        "host_probe_rates": host.rates,
        "unscaled": unscaled,
        "samples": dict(real["samples"], setups=len(setups), rounds=ROUNDS,
                        fixed_pass_queries=fixed["queries"]),
    }
    return metrics, tally


# ----------------------------------------------------------------------
# traced run


class ResultTally:
    """Observer of every outermost ``search_encoded`` result of a traced pass."""

    def __init__(self):
        self.stages = defaultdict(float)
        self.shard_seconds = defaultdict(float)
        self.pruned = self.pairs = self.failovers = 0

    def __call__(self, result, nested: bool) -> None:
        if nested:
            return
        for stage, seconds in result.profile.seconds.items():
            self.stages[stage] += seconds
        if result.routing is not None:
            self.pruned += result.routing.pruned_pairs
            self.pairs += result.routing.pruned_pairs + result.routing.scanned_pairs
        for shard, profile in enumerate(result.shard_profiles or ()):
            self.shard_seconds[shard] += profile.query_total()
        self.failovers += len(result.failovers)

    def imbalance(self) -> float:
        seconds = list(self.shard_seconds.values())
        if not seconds or sum(seconds) == 0:
            return 0.0
        return max(seconds) / (sum(seconds) / len(seconds))


def traced_run(workload) -> tuple[dict, dict]:
    from tracing import LAYERS, SpanRecorder, instrument

    # Warm-up: lazy imports and first-call costs, on a throwaway build.
    state = workload.build()
    fixed = [workload.fixed_pass(state)]
    _release(state)

    state = workload.build()
    start = time.perf_counter()
    fixed.append(workload.fixed_pass(state))
    untraced = time.perf_counter() - start
    _release(state)

    recorder = SpanRecorder()
    tally = ResultTally()
    recorder.observers["api.search_encoded"] = tally
    with instrument(recorder), recorder.recording():
        state = workload.build()
        start = time.perf_counter()
        fixed.append(workload.fixed_pass(state))
        traced = time.perf_counter() - start
    residual = recorder.check_partition()
    plan_cache = state["session"].plan_cache
    _release(state)

    gen_late = 0.0
    if hasattr(workload, "gen_late_p99_ms"):
        state = workload.build()
        gen_late = workload.gen_late_p99_ms(state, seconds=2.0)
        _release(state)

    info = fixed[-1]
    selfs = recorder.self_times()
    spans = recorder.span_counts()
    layer = recorder.layer_split()
    snap = info.get("snapshot")
    lookups = plan_cache.hits + plan_cache.misses if plan_cache is not None else 0
    encode_queries = recorder.counts["encode.queries"]
    scanned = recorder.counts["core.scan"]
    metrics = {
        "encode.s": layer["encode"],
        "encode.queries": encode_queries,
        "encode.us_per_query": layer["encode"] / max(encode_queries, 1) * 1e6,
        "encode.corpus_s": layer["encode_corpus"],
        "serve.self_s": layer["serve"],
        "serve.batches": snap["batches"] if snap else 0,
        "serve.mean_batch": snap["mean_batch_size"] if snap else 0.0,
        "serve.cache_hit_ratio": (
            snap["cache_hits"] / max(snap["cache_hits"] + snap["cache_misses"], 1) if snap else 0.0
        ),
        "serve.sim_queue_p99_ms": snap["queue_time_p99"] * 1e3 if snap else 0.0,
        "serve.gen_late_p99_ms": gen_late,
        "plan.compile_s": layer["plan"],
        "plan.compiles": spans["plan.compile_search"],
        "plan.cache_hit_ratio": plan_cache.hits / lookups if lookups else 0.0,
        "plan.execute_self_s": layer["plan_execute"],
        "core.scan_s": layer["core_scan"],
        "core.scan_calls": spans["core.scan"],
        "core.scan_us_per_query": layer["core_scan"] / max(scanned, 1) * 1e6,
        "core.engine_self_s": layer["core_engine"],
        "core.build_s": layer["core_build"],
        "cluster.pruned_pair_ratio": tally.pruned / tally.pairs if tally.pairs else 0.0,
        "cluster.shard_imbalance": tally.imbalance(),
        "replica.failovers": tally.failovers,
        "stream.insert_s": selfs.get("stream.insert", 0.0),
        "stream.delete_s": selfs.get("stream.delete", 0.0),
        "stream.compact_s": layer["stream_compact"],
        "stream.compactions": info.get("compactions", 0),
        "stream.rows_rewritten_per_row": info.get("rows_rewritten_per_row", 0.0),
        "stream.delta_postings": info.get("delta_postings", 0),
        "gpu.launch_s": layer["gpu"],
        "gpu.launches": spans["gpu.launch"],
        "finalize.s": layer["finalize"],
        "api.self_s": layer["api"],
        "unattributed_s": layer["unattributed"],
        "traced_wall_s": recorder.wall,
        "trace_overhead": untraced / traced,
    }
    for stage in SIM_STAGES:
        metrics[f"sim.{stage}_s"] = tally.stages.get(stage, 0.0)
    for name in LAYERS:
        metrics[f"share.{name}"] = layer[name] / recorder.wall

    # The three fixed passes ran on fresh builds with one seed: their
    # simulated figures must agree bit for bit.
    drift = [key for key in DETERMINISTIC if key in info
             and len({repr(f[key]) for f in fixed}) != 1]
    detail = {
        "attempted": sum(f.get("attempted", f["queries"]) for f in fixed),
        # No workload injects faults: a failover is a failed call.
        "failed": sum(f.get("failed", 0) for f in fixed) + len(drift) + tally.failovers,
        "determinism_drift": drift,
        "deterministic": {key: info[key] for key in DETERMINISTIC if key in info},
        "partition_residual_s": residual,
        "layer_seconds": layer,
        "spans": recorder.dump(),
    }
    return metrics, detail


# ----------------------------------------------------------------------
# entry point


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _emit(spec_metrics, values: dict, ungated=()) -> dict:
    """Attach units from the spec; refuse a metric set that drifted from it.

    ``values`` may also hold the ``ungated`` names, which are left out.
    """
    names = [m["name"] for m in spec_metrics]
    missing = sorted(set(names) - set(values))
    extra = sorted(set(values) - set(names) - set(ungated))
    if missing or extra:
        raise SystemExit(f"metric set differs from BENCHMARK.json: missing {missing}, extra {extra}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec_metrics}


def _write(name: str, record: dict) -> None:
    OUT.mkdir(exist_ok=True)
    (OUT / name).write_text(json.dumps(record, indent=1, default=float))


def selfcheck(workloads, seed: int) -> int:
    bad = 0
    for name, factory in workloads.items():
        runs = [traced_run(factory(s)) for s in (seed, seed, seed + 1)]
        first, again, other = runs
        keys = DETERMINISTIC_COUNTS
        same = all(first[0][k] == again[0][k] for k in keys) and (
            first[1]["deterministic"] == again[1]["deterministic"]
        )
        clean = all(r[1]["failed"] == 0 for r in runs)
        print(json.dumps({
            "workload": name, "repeats_exactly": same, "all_clean": clean,
            "seed": {k: first[0][k] for k in keys} | first[1]["deterministic"],
            "next_seed": {k: other[0][k] for k in keys} | other[1]["deterministic"],
        }))
        bad += not (same and clean)
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workloads = _workloads()
    if args.workload not in workloads and not (args.selfcheck and args.workload == "all"):
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads)}",
              file=sys.stderr)
        return 2
    if args.selfcheck:
        chosen = workloads if args.workload == "all" else {args.workload: workloads[args.workload]}
        return selfcheck(chosen, args.seed)

    from common import environment

    # One driver thread, kept on one CPU: the scheduler otherwise moves it
    # between CPUs that run at different speeds on a shared host (the first
    # one also takes the interrupts), which shows up as run-to-run noise.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    spec = _spec()
    workload = workloads[args.workload](args.seed)
    ungated = {}
    if args.trace:
        values, detail = traced_run(workload)
        metrics = _emit(spec["per_layer"], values)
    else:
        values, detail = timed_run(workload, args.seconds)
        metrics = _emit(spec["end_to_end"], values, UNGATED)
        ungated = {name: {"value": values[name], "unit": unit} for name, unit in UNGATED.items()}
        detail["ungated"] = ungated
    result = {
        "correct": detail["failed"] == 0,
        "attempted": int(detail["attempted"]),
        "failed": int(detail["failed"]),
        "metrics": metrics,
    }
    spans = detail.pop("spans", None)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(THREAD_ENV), "detail": detail,
        "result": result,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    _write(stem + ".json", record)
    if spans is not None:
        _write(stem + "-spans.json", {"spans": spans})
    # The system the figures were measured on comes before them.
    for key, value in record["environment"].items():
        print(f"  {key:30s} {value}")
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for name, metric in metrics.items():
        print(f"  {name:30s} {metric['value']:>16.6g} {metric['unit']}")
    for name, metric in ungated.items():
        print(f"  {name:30s} {metric['value']:>16.6g} {metric['unit']} (not gated)")
    print(json.dumps({"record": record}, default=float))
    print(json.dumps(result, default=float))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
