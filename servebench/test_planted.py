"""Planted-slowdown self-test: a seeded layer slowdown must show.

For one layer at a time (the router, then the oracle) a busy-wait is
planted inside the layer's wrapper.  Its total is a share of the
baseline unit wall of serve_local, spread evenly over the layer's
outermost calls.  The test runs the scenario at n = m = 64 (0.7 s
units instead of 12 s) so that a dozen baseline/planted pairs can
alternate: the host's speed drifts by 20-40% over tens of seconds, and
two pairs of full-size units could not separate a planted 35% from
that drift.  The test checks that

1. the layer's self time grows by about the planted amount;
2. serve_local moves end to end: by about the planted share at 20%,
   and beyond a bound fixed in ``BENCHMARK.json`` at 35%;
3. a workload that bypasses the layer does not move beyond its bounds
   (offline_floor never calls the router; every workload calls the
   oracle, so the oracle has no bypass case).

The bounds are 0.25, the widest the benchmark contract allows, because
host speed drifts that much between runs on a shared 2-vCPU host.  A
20% slowdown moves serve_local by about 15-23%, inside those bounds, so the
gate alone would not flag it; 35% is the smallest round share that
clears them with margin.

Baseline and planted units alternate, both with the same single layer
wrapped, so host drift and wrapper cost fall on both sides alike.
Runs for a few minutes: ``python3 -m pytest servebench -q -s``.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from servebench import bench
from servebench.tracer import Tracer
from servebench.workloads import UnitResult, build_instance

ROOT = Path(__file__).resolve().parent.parent
BOUNDS = {
    m["name"]: m["bound"]
    for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
}
SEED = 5  # no known answer is pinned for this seed at n = 64
N = 64
PAIRS = 12
#: Planted shares of the baseline unit wall: the 20% slowdown the gate
#: is meant to catch, and the smallest round share the 0.25 bounds catch.
SHOWS, CAUGHT = 0.20, 0.35
#: Metrics a planted slowdown is judged by (set-up and memory are not
#: on the served path the delay lands in).
TIMED = ("probes_per_s", "first_answer_s", "latency_p50_ms")


def _sides(
    run: bench.Run, layer: str, delay_s: float, pairs: int
) -> tuple[list[UnitResult], list[UnitResult], list[float], list[float]]:
    """Interleaved (baseline, planted) units with *layer* wrapped on both."""
    base: list[UnitResult] = []
    planted: list[UnitResult] = []
    base_self: list[float] = []
    planted_self: list[float] = []
    for _ in range(pairs):
        for delays, units, selfs in (
            ({}, base, base_self),
            ({layer: delay_s}, planted, planted_self),
        ):
            with Tracer((layer,), delays=delays) as tracer:
                units.append(run.unit())
            selfs.append(tracer.layer_totals[layer][1])
    return base, planted, base_self, planted_self


def _moves(run: bench.Run, base: list[UnitResult], planted: list[UnitResult]) -> dict[str, float]:
    """Worsening of each timed metric, as a share of the baseline.

    Each adjacent (baseline, planted) pair gives one move per metric;
    the median over pairs cancels host drift slower than a pair.
    """
    pairs: dict[str, list[float]] = {name: [] for name in TIMED}
    for b, p in zip(base, planted):
        before, _ = bench.end_to_end([b], [0.0], run.serving)
        after, _ = bench.end_to_end([p], [0.0], run.serving)
        for name in TIMED:
            change = after[name] / before[name] - 1.0
            pairs[name].append(-change if name == "probes_per_s" else change)
    return {name: statistics.median(moves) for name, moves in pairs.items()}


def _small_run(workload: str) -> bench.Run:
    run = bench.Run(workload, SEED)
    run.instance = build_instance(SEED, N)
    run.warm_up()
    run.floor(1)
    return run


def _check_layer(layer: str, bypass: str | None) -> None:
    run = _small_run("serve_local")
    walls = []
    for _ in range(3):
        with Tracer((layer,)) as tracer:
            walls.append(run.unit().wall_s)
    wall_s = statistics.median(walls)
    calls = int(tracer.layer_totals[layer][0])
    assert calls > 0, f"serve_local never calls {layer}"

    for share in (SHOWS, CAUGHT):
        delay_s = share * wall_s / calls
        base, planted, base_self, planted_self = _sides(run, layer, delay_s, PAIRS)
        assert run.correct, "planted runs must still serve the reference bits"

        # 1. the layer's own self time carries the planted wait (adjacent
        # units are paired; the layer's own work still drifts with the host)
        planted_total = delay_s * calls
        grown = statistics.median(p - b for b, p in zip(base_self, planted_self))
        assert 0.5 * planted_total < grown < 1.5 * planted_total, (grown, planted_total)

        # 2. serve_local moves end to end
        moves = _moves(run, base, planted)
        print(f"{layer} {share:.0%}: planted {planted_total:.3f}s, self +{grown:.3f}s, moves {moves}")
        if share == SHOWS:
            assert max(moves.values()) > 0.75 * share, moves
        else:
            beyond = {name: move for name, move in moves.items() if move > BOUNDS[name]}
            assert beyond, f"{layer} {share:.0%} slowdown stayed within bounds: {moves}"

    # 3. a workload that bypasses the layer stays within its bounds, even
    # with the larger wait planted (its units are short: more pairs)
    if bypass is not None:
        other = _small_run(bypass)
        delay_s = CAUGHT * wall_s / calls
        base, planted, _, planted_self = _sides(other, layer, delay_s, 3 * PAIRS)
        assert other.correct
        assert max(planted_self) == 0.0, f"{bypass} ran {layer}"
        flat = _moves(other, base, planted)
        print(f"{layer} on {bypass}: moves {flat}")
        assert all(abs(flat[name]) <= BOUNDS[name] for name in TIMED), flat


def test_router_slowdown_shows_on_serve_local_only() -> None:
    _check_layer("router", bypass="offline_floor")


def test_oracle_slowdown_shows_on_serve_local() -> None:
    _check_layer("oracle", bypass=None)
