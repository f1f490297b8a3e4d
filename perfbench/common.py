"""Shared helpers: statistics, the environment stamp and the queue replay.

Nothing here imports the program under test; the workload modules do.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
REPLAY_JOBS = 20_000       # minimum jobs in a queue replay
# Iterations per second of the reference kernel that define host speed 1.0:
# about its usual rate on a 2-vCPU Intel Xeon VM (Python 3.11, numpy 2, one
# thread), where the bounds in BENCHMARK.json were set.
REFERENCE_RATE = 150.0
PROBE_S = 0.15             # seconds of one host-speed probe


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile ``q`` (0-100) of ``values``."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return float(statistics.median(values))


def latency_summary(seconds) -> dict:
    """p50/p90/p99 in milliseconds plus the sample count."""
    ms = np.asarray(seconds, dtype=np.float64) * 1e3
    return {
        "p50_ms": percentile(ms, 50),
        "p90_ms": percentile(ms, 90),
        "p99_ms": percentile(ms, 99),
        "samples": int(ms.size),
    }


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def replay_p99(service_s: np.ndarray, gaps: np.ndarray, rate: float) -> float:
    """p99 response time of a single FIFO server fed ``service_s`` in order.

    ``gaps`` are unit-mean exponential inter-arrival gaps; arrivals come at
    ``rate`` per second (gap ``g / rate``). Lindley's recursion gives each
    job's wait; response time is wait plus its own service time.
    """
    wait = 0.0
    response = np.empty(service_s.size)
    for i, service in enumerate(service_s):
        if i:
            wait = max(0.0, wait + service_s[i - 1] - gaps[i] / rate)
        response[i] = wait + service
    return percentile(response, 99)


def replay_max_rate(service_s, queries_per_call: float, limit_s: float, seed: int) -> float:
    """Highest arrival rate whose replayed p99 response stays within ``limit_s``.

    The measured per-call service times are replayed, in the order they
    were measured and repeated to at least ``REPLAY_JOBS`` jobs, through a
    single FIFO server under seeded Poisson arrivals. Replayed p99 grows
    monotonically with the rate, so a bisection between zero and
    saturation (one call per mean service time) finds the crossing.
    Returned in queries per second: calls per second times
    ``queries_per_call``.
    """
    service = np.asarray(service_s, dtype=np.float64)
    if service.size == 0:
        return 0.0
    service = np.tile(service, -(-REPLAY_JOBS // service.size))
    gaps = np.random.default_rng(seed).exponential(1.0, size=service.size)
    lo, hi = 0.0, 1.0 / float(service.mean())
    if replay_p99(service, gaps, hi * 1e-6) > limit_s:
        return 0.0  # the calls alone, never queued, already miss the limit
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        if replay_p99(service, gaps, mid) <= limit_s:
            lo = mid
        else:
            hi = mid
    return lo * queries_per_call


_REF = np.random.default_rng(0)
_REF_VALUES = _REF.random(20_000)
_REF_KEYS = _REF.integers(0, 1000, 5_000)


def _reference_kernel() -> None:
    """Fixed work touching what the program's calls spend their time on:
    the interpreter, small numpy operations and freshly mapped pages."""
    counts: dict = {}
    for key in _REF_KEYS.tolist():
        counts[key] = counts.get(key, 0) + 1
    np.argsort(_REF_VALUES)
    np.bincount(_REF_KEYS, minlength=1000)
    block = np.empty(600_000)
    block.fill(1.0)
    float((block * 2.0).sum())


class HostSpeed:
    """Speed of the host while a run measures, from a reference kernel.

    A shared host runs the same code up to ~1.5x faster or slower for
    minutes at a time, longer than one run. The reference kernel uses
    none of the program's code; probes of it taken between the timed
    rounds follow those swings (correlation ~0.93 with adult-shard
    throughput over 20 s windows). Wall-clock figures are reported scaled
    to host speed 1.0 (``REFERENCE_RATE``), so that a change of the
    program moves them and a change of the host's state mostly does not;
    the unscaled figures are kept in the run's record.
    """

    def __init__(self):
        self.rates: list[float] = []

    def probe(self) -> None:
        _reference_kernel()  # warm
        start = time.perf_counter()
        n = 0
        while time.perf_counter() - start < PROBE_S:
            _reference_kernel()
            n += 1
        self.rates.append(n / (time.perf_counter() - start))

    def factor(self) -> float:
        """Host speed relative to the reference machine (>1: faster)."""
        return median(self.rates) / REFERENCE_RATE


def _git_sha() -> str:
    """HEAD's commit id read straight from ``.git`` (no subprocess)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment(thread_env) -> dict:
    """The machine and software a result was measured on."""
    return {
        "git_sha": _git_sha(),
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {name: os.environ.get(name) for name in thread_env},
        "driver_threads": 1,
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "kernel": f"{os.uname().sysname} {os.uname().release}",
    }
