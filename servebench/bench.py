"""Run one workload of the served-probe benchmark and print its metrics.

Untraced runs (``--trace 0``) report the end-to-end metrics; traced
runs (``--trace 1``) report the per-layer metrics (``METRICS.md``).
Every unit's outputs, probe total and per-player probe counts must
equal the offline floor's for the seed; a unit that differs counts as
failed and makes the run ``correct: false``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is the run's ``record`` (honesty stamps and per-metric sample
counts).  A human-readable summary goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import shutil
import statistics
import sys
import tempfile
import time
from multiprocessing import resource_tracker
from pathlib import Path
from typing import Any

import numpy as np

from repro.metrics.kernels import kernel_backend
from servebench.tracer import Tracer, TracerCoverageError
from servebench.layers import EXPECTED_LAYERS
from servebench.workloads import (
    WORKERS,
    Digest,
    UnitResult,
    build_instance,
    host_cpus,
    offline_unit,
    peak_rss_mb,
    serve_setup,
    serve_unit,
)

__all__ = ["END_TO_END", "PER_LAYER", "WORKLOADS", "Run", "end_to_end", "main", "measure", "trace"]

WORKLOADS = ("serve_local", "serve_sharded_w2", "offline_floor")

#: Rough unit length on a 2-vCPU host: ``--seconds`` buys
#: ``ceil(seconds / nominal)`` whole units, never fewer than the minimum.
NOMINAL_UNIT_S = {"serve_local": 12.0, "serve_sharded_w2": 20.0, "offline_floor": 0.25}
#: Two serve units hold 1,888 flush samples, enough for a p99 with ten
#: samples beyond it.
MIN_UNITS = {"serve_local": 2, "serve_sharded_w2": 2, "offline_floor": 5}
#: Extra set-up-only deployments per serve run (each unit adds one more).
SETUP_REPEATS = 5
#: Offline units that give the floor wall and the reference bits.
FLOOR_UNITS = 5
#: Warm-up deployments run on a small instance of the same scenario.
WARMUP_N = 64
#: Known answers (probe total, outputs sha256 prefix) of pinned seeds.
KNOWN = {21: (504_176, "696b9691f5ce")}

END_TO_END = {
    "probes_per_s": "1/s",
    "first_answer_s": "s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "router.flushes": "count",
    "router.self_s": "s",
    "router.wavefronts": "count",
    "router.wavefront_probes_mean": "count",
    "sessions.advance_calls": "count",
    "sessions.advance_self_s": "s",
    "sessions.useful_share": "ratio",
    "billboard.poll_calls": "count",
    "billboard.poll_self_s": "s",
    "billboard.read_calls": "count",
    "billboard.read_self_s": "s",
    "billboard.post_calls": "count",
    "billboard.post_self_s": "s",
    "vote.calls": "count",
    "vote.self_s": "s",
    "vote.unique_share": "ratio",
    "oracle.calls": "count",
    "oracle.probes": "count",
    "oracle.self_s": "s",
    "kernels.self_s": "s",
    "service.barrier_s": "s",
    "service.checkpoint_s": "s",
    "service.estimate_calls": "count",
    "service.estimate_s": "s",
    "sharded.flush_s": "s",
    "sharded.worker_busy_s": "s",
    "sharded.worker_busy_share": "ratio",
    "sharded.imbalance": "ratio",
    "postlog.appends": "count",
    "postlog.append_s": "s",
    "postlog.sync_calls": "count",
    "postlog.sync_s": "s",
    "core.zero_radius_s": "s",
    "core.small_radius_s": "s",
    "core.select_s": "s",
    "core.rselect_s": "s",
    "serve_overhead_x": "x",
    "trace.overhead_x": "x",
}

_perf = time.perf_counter


def units_for(workload: str, seconds: float) -> int:
    return max(MIN_UNITS[workload], math.ceil(seconds / NOMINAL_UNIT_S[workload]))


def calib_ms() -> float:
    """Median of five timings of a fixed pure-Python loop (host speed)."""
    times = []
    for _ in range(5):
        t0 = _perf()
        acc = 0
        for i in range(200_000):
            acc += i * i
        times.append((_perf() - t0) * 1000.0)
    return statistics.median(times)


def _quantile(samples: list[float], q: float) -> float:
    return float(np.quantile(np.asarray(samples, dtype=np.float64), q))


class Run:
    """Shared state of one run: scenario, reference bits, unit bookkeeping."""

    def __init__(self, workload: str, seed: int) -> None:
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
        self.workload = workload
        self.seed = seed
        self.instance = build_instance(seed)
        self.attempted = 0
        self.failed = 0
        self.reference: Digest | None = None
        self.known_ok = True
        self.calib_before = calib_ms()

    @property
    def serving(self) -> bool:
        return self.workload != "offline_floor"

    def warm_up(self) -> None:
        """Discarded small deployment with the workload's topology."""
        small = build_instance(self.seed, WARMUP_N)
        if self.serving:
            serve_unit(small, self.seed, WORKERS[self.workload])
        else:
            offline_unit(small, self.seed)

    def floor(self, units: int) -> list[UnitResult]:
        """Offline units; the first one fixes the reference bits."""
        results = [offline_unit(self.instance, self.seed) for _ in range(units)]
        self.reference = results[0].digest
        known = KNOWN.get(self.seed)
        if known is not None:
            probes, sha_prefix = known
            self.known_ok = (
                self.reference.probes == probes
                and self.reference.outputs_sha.startswith(sha_prefix)
            )
        for result in results[1:]:
            self.check(result)
        return results

    def unit(self) -> UnitResult:
        """One measured unit of this workload (bits checked)."""
        if not self.serving:
            return self.floor_unit()
        result = serve_unit(self.instance, self.seed, WORKERS[self.workload])
        self.check(result)
        return result

    def floor_unit(self) -> UnitResult:
        """One offline-floor unit (bits checked)."""
        result = offline_unit(self.instance, self.seed)
        self.check(result)
        return result

    def check(self, result: UnitResult) -> None:
        self.attempted += 1
        if result.digest != self.reference:
            self.failed += 1

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.known_ok and self.attempted > 0

    def record(self, **extra: Any) -> dict[str, Any]:
        assert self.reference is not None
        return {
            "workload": self.workload,
            "seed": self.seed,
            "kernel_backend": kernel_backend(),
            "host_cpus": host_cpus(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "host.calib_ms": {"before": self.calib_before, "after": calib_ms()},
            "reference": {
                "outputs_sha": self.reference.outputs_sha,
                "probes": self.reference.probes,
                "counts_sha": self.reference.counts_sha,
                "known_answer_ok": self.known_ok,
            },
            **extra,
        }


def end_to_end(
    units: list[UnitResult], setups: list[float], serving: bool
) -> tuple[dict[str, float], dict[str, int]]:
    """End-to-end metrics of measured units: ``(metrics, sample counts)``."""
    if serving:
        latencies = [dt for u in units for dt in u.latencies_s]
    else:
        # No requests: the offline floor answers the whole population in
        # one call, so a unit is its one "request".
        latencies = [u.wall_s for u in units]
    metrics = {
        "probes_per_s": statistics.median(u.probes_per_s for u in units),
        "first_answer_s": statistics.median(u.first_answer_s for u in units),
        "latency_p50_ms": _quantile(latencies, 0.50) * 1000.0,
        "latency_p99_ms": _quantile(latencies, 0.99) * 1000.0,
        "peak_rss_mb": peak_rss_mb() + max(u.worker_hwm_mb for u in units),
        "setup_s": statistics.median(setups),
    }
    samples = {
        "probes_per_s": len(units),
        "first_answer_s": len(units),
        "latency_p50_ms": len(latencies),
        "latency_p99_ms": len(latencies),
        "peak_rss_mb": 1,
        "setup_s": len(setups),
    }
    return metrics, samples


def measure(
    workload: str, seed: int, seconds: float
) -> tuple[Run, dict[str, float], dict[str, Any]]:
    """Untraced run: ``(run, end-to-end metrics, record)``."""
    run = Run(workload, seed)
    run.warm_up()
    run.floor(1)
    setups: list[float] = []
    if run.serving:
        setups = [
            serve_setup(run.instance, seed, WORKERS[workload]) for _ in range(SETUP_REPEATS)
        ]
    units = [run.unit() for _ in range(units_for(workload, seconds))]
    setups += [u.setup_s for u in units]
    metrics, samples = end_to_end(units, setups, run.serving)
    record = run.record(
        trace=0,
        units=len(units),
        samples=samples,
        p99_supported=samples["latency_p99_ms"] >= 1000,
        unit_wall_s=[u.wall_s for u in units],
        flushes_per_unit=[len(u.latencies_s) for u in units] if run.serving else None,
    )
    return run, metrics, record


def _ratio(num: float, den: float) -> float:
    """``num / den``, or 0 for a layer the workload never ran."""
    return num / den if den else 0.0


def _layer_metrics(tracer: Tracer, units: int, workers: list[dict[str, Any]]) -> dict[str, float]:
    """Per-unit per-layer metrics from a tracer's merged totals."""
    lt, counters = tracer.layer_totals, tracer.counters

    def calls(layer: str) -> float:
        return lt[layer][0]

    def self_s(layer: str) -> float:
        return lt[layer][1]

    def incl_s(layer: str) -> float:
        return lt[layer][2]

    busy = [w["top_s"] for w in workers]
    mean_busy = statistics.fmean(busy) if busy else 0.0
    wavefronts = counters["router.wavefronts"]
    m = {
        "router.flushes": tracer.calls.get("repro.serve.router:MicroBatchRouter.flush", 0),
        "router.self_s": self_s("router"),
        "router.wavefronts": wavefronts,
        "router.wavefront_probes_mean": _ratio(counters["router.wavefront_probes"], wavefronts),
        "sessions.advance_calls": calls("sessions"),
        "sessions.advance_self_s": self_s("sessions"),
        "sessions.useful_share": _ratio(counters["sessions.useful"], calls("sessions")),
        "billboard.poll_calls": calls("billboard.poll"),
        "billboard.poll_self_s": self_s("billboard.poll"),
        "billboard.read_calls": calls("billboard.read"),
        "billboard.read_self_s": self_s("billboard.read"),
        "billboard.post_calls": calls("billboard.post"),
        "billboard.post_self_s": self_s("billboard.post"),
        "vote.calls": calls("vote"),
        "vote.self_s": self_s("vote"),
        "vote.unique_share": _ratio(counters["vote.unique"], calls("vote")),
        "oracle.calls": calls("oracle"),
        "oracle.probes": counters["oracle.probes"],
        "oracle.self_s": self_s("oracle"),
        "kernels.self_s": self_s("kernels"),
        "service.barrier_s": counters["service.barrier_s"],
        "service.checkpoint_s": incl_s("service.checkpoint"),
        "service.estimate_calls": calls("service.estimate"),
        "service.estimate_s": incl_s("service.estimate"),
        "sharded.flush_s": incl_s("sharded.flush"),
        "sharded.worker_busy_s": sum(busy),
        "postlog.appends": calls("postlog.append"),
        "postlog.append_s": self_s("postlog.append"),
        "postlog.sync_calls": calls("postlog.sync"),
        "postlog.sync_s": self_s("postlog.sync"),
    }
    # Ratios stay ratios; every count and time is reported per unit.
    per_unit = {
        k: v / units
        for k, v in m.items()
        if not k.endswith(("_share", "_mean"))
    }
    m.update(per_unit)
    flush_s = incl_s("sharded.flush")
    m["sharded.worker_busy_share"] = _ratio(mean_busy, flush_s)
    m["sharded.imbalance"] = _ratio(max(busy, default=0.0), mean_busy)
    return m


def _floor_metrics(tracer: Tracer, units: int) -> dict[str, float]:
    """Per-unit ``core.*`` self times of traced offline-floor units."""
    return {
        f"{layer}_s": tracer.layer_totals[layer][1] / units
        for layer in ("core.zero_radius", "core.small_radius", "core.select", "core.rselect")
    }


def _require_calls(tracer: Tracer, expected: tuple[str, ...], where: str) -> None:
    missing = [layer for layer in expected if tracer.layer_totals[layer][0] == 0]
    if missing:
        raise TracerCoverageError(
            f"{where}: traced layers recorded no calls: {missing} "
            "(a wrapper is bypassed; update servebench/layers.py)"
        )


def trace(workload: str, seed: int) -> tuple[Run, dict[str, float], dict[str, Any]]:
    """Traced run: ``(run, per-layer metrics, record)``.

    Every traced run traces offline-floor units, which give the
    ``core.*`` metrics and the floor's per-node reference counts.  A
    serve workload then runs one untraced and one traced unit.
    """
    run = Run(workload, seed)
    run.warm_up()
    floor = run.floor(FLOOR_UNITS)
    floor_wall = statistics.median(u.wall_s for u in floor)
    with Tracer() as floor_tracer:
        floor_traced = []
        for _ in range(FLOOR_UNITS):
            floor_traced.append(run.floor_unit())
            floor_tracer.end_unit()
    _require_calls(floor_tracer, EXPECTED_LAYERS["offline_floor"], "offline_floor")
    floor_layers = _layer_metrics(floor_tracer, FLOOR_UNITS, [])
    worker_reports: list[dict[str, Any]] = []
    if run.serving:
        plain = [run.unit()]
        spool = Path(tempfile.mkdtemp(prefix=".servebench-", dir=Path.cwd()))
        try:
            with Tracer(spool=spool) as tracer:
                traced = [run.unit()]
                if WORKERS[workload] > 1:
                    worker_reports = tracer.collect_workers(WORKERS[workload])
                tracer.end_unit()
        finally:
            shutil.rmtree(spool, ignore_errors=True)
        _require_calls(tracer, EXPECTED_LAYERS[workload], workload)
        metrics = _layer_metrics(tracer, len(traced), worker_reports)
    else:
        plain, traced, metrics = floor, floor_traced, floor_layers
    metrics.update(_floor_metrics(floor_tracer, FLOOR_UNITS))
    plain_wall = statistics.median(u.wall_s for u in plain)
    metrics["serve_overhead_x"] = plain_wall / floor_wall
    metrics["trace.overhead_x"] = statistics.median(u.wall_s for u in traced) / plain_wall
    reference_names = ("vote.calls", "vote.unique_share", "oracle.calls", "oracle.self_s", "kernels.self_s")
    record = run.record(
        trace=1,
        units=len(traced),
        untraced_units=len(plain),
        floor_units=len(floor),
        samples={
            name: FLOOR_UNITS if name.startswith("core.") else len(traced) for name in PER_LAYER
        },
        floor_wall_s=floor_wall,
        floor_layers={name: floor_layers[name] for name in reference_names},
        unit_wall_s=plain_wall,
        traced_unit_wall_s=[u.wall_s for u in traced],
        worker_top_s=[w["top_s"] for w in worker_reports],
    )
    return run, {name: metrics[name] for name in PER_LAYER}, record


def _emit(run: Run, metrics: dict[str, float], units: dict[str, str], record: dict[str, Any]) -> None:
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": float(value), "unit": units[name]} for name, value in metrics.items()
        },
    }
    for name, value in metrics.items():
        print(f"{name:32s} {value:14.6g} {units[name]}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps(result))


def _stop_resource_tracker() -> None:
    """Stop and reap the tracker process that shared memory starts.

    The sharded runtime's segments register with multiprocessing's
    resource tracker, a helper process that would otherwise outlive this
    one by a moment; the benchmark waits for every process it started.
    """
    tracker = resource_tracker._resource_tracker  # the module's singleton
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.trace:
            run, metrics, record = trace(args.workload, args.seed)
            _emit(run, metrics, PER_LAYER, record)
        else:
            run, metrics, record = measure(args.workload, args.seed, args.seconds)
            _emit(run, metrics, END_TO_END, record)
    finally:
        _stop_resource_tracker()
    return 0
