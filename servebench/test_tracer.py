"""Fast checks of the tracer: loud coverage, clean restore, self time."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from servebench import bench, layers
from servebench.tracer import Tracer, TracerCoverageError

ROOT = Path(__file__).resolve().parent.parent


def _repro_wrappers() -> list[str]:
    found = []
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if not name.startswith("repro"):
            continue
        for alias, value in vars(module).items():
            if hasattr(value, "__servebench_wrapped__"):
                found.append(f"{name}.{alias}")
            if isinstance(value, type):
                found += [
                    f"{name}.{value.__name__}.{attr}"
                    for attr, member in vars(value).items()
                    if hasattr(member, "__servebench_wrapped__")
                ]
    return found


def test_every_target_resolves_and_restores() -> None:
    tracer = Tracer().install()
    try:
        assert _repro_wrappers(), "install wrapped nothing"
        # The router calls `advance` through its own import alias.
        import repro.serve.router as router

        assert hasattr(router.advance, "__servebench_wrapped__")
    finally:
        tracer.restore()
    assert _repro_wrappers() == []


def test_missing_target_fails_loudly(monkeypatch: pytest.MonkeyPatch) -> None:
    broken = dict(layers.LAYERS)
    broken["vote"] = ("repro.utils.rowset:no_such_vote",)
    monkeypatch.setattr("servebench.tracer.LAYERS", broken)
    with pytest.raises(TracerCoverageError, match="no_such_vote"):
        Tracer().install()
    assert _repro_wrappers() == []


def test_inherited_method_is_not_a_target(monkeypatch: pytest.MonkeyPatch) -> None:
    broken = dict(layers.LAYERS)
    # SharedBillboard inherits has_channels: wrapping it there would hide
    # a moved definition, so the tracer refuses.
    broken["billboard.poll"] = ("repro.billboard.postlog:SharedBillboard.has_channels",)
    monkeypatch.setattr("servebench.tracer.LAYERS", broken)
    with pytest.raises(TracerCoverageError, match="has_channels"):
        Tracer().install()


def test_self_time_excludes_children() -> None:
    """The offline floor: core spans contain oracle and kernel spans."""
    run = bench.Run("offline_floor", 3)
    run.floor(1)
    with Tracer() as tracer:
        unit = run.unit()
        tracer.end_unit()
    assert run.correct
    lt = tracer.layer_totals
    self_total = sum(rec[1] for rec in lt.values())
    # Self times partition the traced part of the unit, so they add up
    # to no more than the unit wall and to no less than the outermost
    # spans' time.
    assert self_total <= unit.wall_s
    assert self_total == pytest.approx(tracer.top_s, rel=1e-6)
    for layer in layers.EXPECTED_LAYERS["offline_floor"]:
        assert lt[layer][0] > 0, layer
    assert lt["core.small_radius"][1] < lt["core.small_radius"][2]


def test_metric_names_match_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(bench.PER_LAYER)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(bench.WORKLOADS)
