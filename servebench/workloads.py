"""The shared scenario and one *unit* of each workload.

A unit serves one whole deployment to completion: the served-probe
closed loop for ``serve_local`` / ``serve_sharded_w2``, the offline
anytime loop for ``offline_floor``.  Every unit returns its timings
and the digest of what it computed, so the caller can check that all
three workloads produce the same bits.

Scenario (identical on every workload): ``planted`` instance,
n = m = 256, α = 0.5, D = 0; ``max_phases=2``, ``d_max=2``; probe grant
32, window 32; instance rng = seed, service rng = seed + 1 (the seeds
``repro.serve.loadgen.run_loadgen`` uses).
"""

from __future__ import annotations

import gc
import hashlib
import os
import resource
import time
from dataclasses import dataclass, field
from multiprocessing import active_children

import numpy as np

from repro.billboard.oracle import ProbeOracle
from repro.core.main import anytime_find_preferences
from repro.model.instance import Instance
from repro.serve import ServeConfig, serve
from repro.workloads.registry import make_instance

__all__ = [
    "N",
    "WINDOW",
    "WORKERS",
    "Digest",
    "UnitResult",
    "build_instance",
    "host_cpus",
    "offline_unit",
    "peak_rss_mb",
    "serve_config",
    "serve_setup",
    "serve_unit",
]

N = 256
ALPHA = 0.5
D = 0
MAX_PHASES = 2
D_MAX = 2
GRANT = 32
WINDOW = 32

#: ``workers`` of each serve workload.
WORKERS = {"serve_local": 1, "serve_sharded_w2": 2}

_perf = time.perf_counter


@dataclass(frozen=True)
class Digest:
    """What a unit computed: outputs, total probes, per-player counts."""

    outputs_sha: str
    probes: int
    counts_sha: str

    @classmethod
    def of(cls, outputs: np.ndarray, counts: np.ndarray) -> "Digest":
        out = np.ascontiguousarray(outputs, dtype=np.int8)
        cnt = np.ascontiguousarray(counts, dtype=np.int64)
        return cls(
            outputs_sha=hashlib.sha256(out.tobytes()).hexdigest(),
            probes=int(cnt.sum()),
            counts_sha=hashlib.sha256(cnt.tobytes()).hexdigest(),
        )


@dataclass
class UnitResult:
    """Timings and digest of one unit."""

    digest: Digest
    wall_s: float  # first submit (or the offline call) -> finished
    first_answer_s: float  # -> every player holds a phase-0 answer
    setup_s: float  # serve() -> first flushed response, or oracle build
    latencies_s: list[float] = field(default_factory=list)  # one per flush (serve)
    worker_hwm_mb: float = 0.0  # VmHWM of live workers, read before close

    @property
    def probes_per_s(self) -> float:
        return self.digest.probes / self.wall_s


def build_instance(seed: int, n: int = N) -> Instance:
    """The scenario's instance for *seed* (``n`` is smaller only in warm-ups)."""
    return make_instance("planted", n, n, ALPHA, D, rng=seed)


def serve_config(seed: int, workers: int) -> ServeConfig:
    return ServeConfig(
        seed=seed + 1,
        max_phases=MAX_PHASES,
        d_max=D_MAX,
        workers=workers,
        window=WINDOW,
        probes_per_request=GRANT,
    )


def _workers_hwm_mb() -> float:
    """Sum of the peak RSS (``VmHWM``) of this process's live children."""
    total_kb = 0
    for child in active_children():
        try:
            with open(f"/proc/{child.pid}/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def serve_unit(instance: Instance, seed: int, workers: int) -> UnitResult:
    """Serve one deployment to completion in the closed loop.

    Each round submits every open session in chunks of ``WINDOW`` and
    flushes each chunk; a chunk goes out only after the previous flush
    returned.  One latency sample per flush.
    """
    cfg = serve_config(seed, workers)
    gc.collect()
    t_setup = _perf()
    runtime = serve(instance, cfg)
    try:
        latencies: list[float] = []
        setup_s = first_answer_s = -1.0
        t_start = -1.0
        while not runtime.finished:
            players = runtime.open_players()
            if not players:
                break
            for start in range(0, len(players), WINDOW):
                t1 = _perf()
                if t_start < 0:
                    t_start = t1
                for player in players[start : start + WINDOW]:
                    runtime.submit(player)
                runtime.flush()
                t2 = _perf()
                latencies.append(t2 - t1)
                if setup_s < 0:
                    setup_s = t2 - t_setup
                if first_answer_s < 0 and runtime.phases_completed >= 1:
                    first_answer_s = t2 - t_start
        wall_s = _perf() - t_start
        digest = Digest.of(runtime.outputs(), runtime.probe_counts())
        hwm = _workers_hwm_mb()
    finally:
        runtime.close()
    if first_answer_s < 0:
        raise RuntimeError("deployment finished without completing a phase")
    return UnitResult(digest, wall_s, first_answer_s, setup_s, latencies, hwm)


def serve_setup(instance: Instance, seed: int, workers: int) -> float:
    """Set-up alone: ``serve()`` up to the first flushed response."""
    cfg = serve_config(seed, workers)
    gc.collect()
    t0 = _perf()
    runtime = serve(instance, cfg)
    try:
        for player in runtime.open_players()[:WINDOW]:
            runtime.submit(player)
        runtime.flush()
        return _perf() - t0
    finally:
        runtime.close()


def offline_unit(instance: Instance, seed: int) -> UnitResult:
    """The offline floor: ``ProbeOracle`` + ``anytime_find_preferences``."""
    gc.collect()
    t0 = _perf()
    oracle = ProbeOracle(instance)
    t1 = _perf()
    first: list[float] = []

    def on_phase(j: int, alpha: float, outputs: np.ndarray) -> None:
        if not first:
            first.append(_perf())

    result = anytime_find_preferences(
        oracle, rng=seed + 1, max_phases=MAX_PHASES, d_max=D_MAX, phase_callback=on_phase
    )
    t2 = _perf()
    if not first:
        raise RuntimeError("offline run completed no phase")
    digest = Digest.of(result.outputs, oracle.stats().per_player)
    return UnitResult(digest, t2 - t1, first[0] - t1, t1 - t0)


def host_cpus() -> int:
    return len(os.sched_getaffinity(0))
