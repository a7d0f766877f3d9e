"""Outside-in layer tracer: wraps public entry points, records spans.

The tracer replaces each target of :data:`servebench.layers.LAYERS`
with a wrapper that times the call and charges it to its layer.  It
keeps one span stack per process, so a layer's *self* time is its
span time minus the time of traced spans it called.  Nothing is
written while a unit runs: totals live in memory.

Patching covers the defining module or class and every ``from m import
f`` alias held by an already-imported ``repro`` module, and
:meth:`Tracer.restore` puts every original back.

Forked worker processes inherit the wrappers.  A worker resets its
totals after the fork and writes them, as JSON, into the tracer's spool
directory when it exits; :meth:`Tracer.collect_workers` folds them in.

``delays`` plants a busy-wait of a fixed length inside every outermost
call of a layer — the self-test's seeded slowdown.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import multiprocessing.util as mp_util
import os
import sys
import time
from pathlib import Path
from typing import Any, Callable

from servebench.layers import LAYERS, MODULES

__all__ = ["Tracer", "TracerCoverageError"]

_perf = time.perf_counter


class TracerCoverageError(RuntimeError):
    """A traced target no longer resolves, or a wrapper was bypassed."""


def _resolve(target: str) -> tuple[Any, str, Callable[..., Any]]:
    """``(owner, attribute, original)`` for ``"module:qualname"``."""
    module_name, _, qualname = target.partition(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise TracerCoverageError(f"{target}: module does not import ({exc})") from None
    owner: Any = module
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = vars(owner).get(part)
        if owner is None:
            raise TracerCoverageError(f"{target}: {part!r} not found")
    attr = parts[-1]
    original = vars(owner).get(attr)
    if original is None or not callable(original):
        where = "module" if owner is module else f"class {owner.__name__} itself"
        raise TracerCoverageError(f"{target}: {attr!r} is not defined on the {where}")
    return owner, attr, original


def _busy_wait(seconds: float) -> None:
    end = _perf() + seconds
    while _perf() < end:
        pass


def _advance_useful(tracer: "Tracer", args: tuple[Any, ...], result: Any) -> None:
    # ADVANCE_PROBE / ADVANCE_DONE end in work; ADVANCE_WAIT parks.
    if result in ("probe", "done"):
        tracer.counters["sessions.useful"] += 1


def _vote_digest(tracer: "Tracer", args: tuple[Any, ...], result: Any) -> None:
    h = hashlib.blake2b(digest_size=8)
    for arg in args:
        h.update(arg.tobytes() if hasattr(arg, "tobytes") else repr(arg).encode())
    tracer.vote_digests.add(h.hexdigest())


def _oracle_probes(tracer: "Tracer", args: tuple[Any, ...], result: Any) -> None:
    # probe_many(self, players, objects) / probe(self, player, obj)
    probes = len(args[1]) if hasattr(args[1], "__len__") else 1
    tracer.counters["oracle.probes"] += probes
    if tracer.depth.get("router", 0) > 0:
        tracer.counters["router.wavefronts"] += 1
        tracer.counters["router.wavefront_probes"] += probes


def _stage_mark(service: Any) -> tuple[Any, ...]:
    return (service.stage, service.phase_j, getattr(service, "at_barrier", False))


#: Per-target extras: ``post(tracer, args, result)`` after the call.
_POST: dict[str, Callable[["Tracer", tuple[Any, ...], Any], None]] = {
    "repro.serve.sessions:advance": _advance_useful,
    "repro.utils.rowset:popular_rows_packed": _vote_digest,
    "repro.utils.rowset:popular_rows": _vote_digest,
    "repro.billboard.oracle:ProbeOracle.probe_many": _oracle_probes,
    "repro.billboard.oracle:ProbeOracle.probe": _oracle_probes,
}

#: Barrier targets -> whether a call only counts as barrier work when it
#: moved the stage machine (most ``note_stage_done`` calls just record
#: one player's output; ``advance_stage`` always transitions).
_BARRIER: dict[str, bool] = {
    "repro.serve.service:ServeService.note_stage_done": True,
    "repro.serve.sharded:_ShardWorkerService.advance_stage": False,
}


class Tracer:
    """Installable set of layer wrappers (see module docstring).

    ``layers`` limits the wrapped layers (default: all of them);
    ``delays`` maps a layer to a per-call busy-wait in seconds; ``spool``
    is the directory worker processes report into (required when a
    traced deployment forks workers).
    """

    def __init__(
        self,
        layers: tuple[str, ...] | None = None,
        *,
        delays: dict[str, float] | None = None,
        spool: Path | None = None,
    ) -> None:
        self.layers = tuple(LAYERS) if layers is None else tuple(layers)
        unknown = [name for name in self.layers if name not in LAYERS]
        if unknown:
            raise TracerCoverageError(f"unknown layers: {unknown}")
        self.delays = dict(delays or {})
        self.spool = spool
        self._patches: list[tuple[Any, str, Any]] = []
        self.installed = False
        self.reset()

    # ------------------------------------------------------------------
    # totals
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Zero every total (the span stack must be empty)."""
        #: target -> calls (nested ones included)
        self.calls: dict[str, int] = {}
        #: layer -> [outermost calls, self s, outermost inclusive s]
        self.layer_totals: dict[str, list[float]] = {name: [0, 0.0, 0.0] for name in LAYERS}
        self.counters: dict[str, float] = {
            "sessions.useful": 0,
            "oracle.probes": 0,
            "router.wavefronts": 0,
            "router.wavefront_probes": 0,
            "service.barrier_s": 0.0,
            "vote.unique": 0,
        }
        self.vote_digests: set[str] = set()  # distinct vote inputs, this unit
        self.depth: dict[str, int] = {}
        self.stack: list[list[float]] = []
        self.top_s = 0.0  # time in spans with no traced parent (this process)

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready totals of this process."""
        return {
            "calls": self.calls,
            "layer_totals": self.layer_totals,
            "counters": self.counters,
            "vote_digests": sorted(self.vote_digests),
            "top_s": self.top_s,
        }

    def merge(self, snap: dict[str, Any]) -> None:
        """Add another process's :meth:`snapshot` into these totals."""
        for target, calls in snap["calls"].items():
            self.calls[target] = self.calls.get(target, 0) + calls
        for layer, rec in snap["layer_totals"].items():
            mine = self.layer_totals[layer]
            for i, value in enumerate(rec):
                mine[i] += value
        for key, value in snap["counters"].items():
            self.counters[key] = self.counters.get(key, 0) + value
        self.vote_digests.update(snap["vote_digests"])

    def end_unit(self) -> None:
        """Close one unit: fold its distinct vote inputs into the totals."""
        self.counters["vote.unique"] += len(self.vote_digests)
        self.vote_digests = set()

    # ------------------------------------------------------------------
    # install / restore
    # ------------------------------------------------------------------
    def install(self) -> "Tracer":
        """Wrap every target of the selected layers (all or nothing)."""
        if self.installed:
            raise RuntimeError("tracer already installed")
        for module_name in MODULES:
            importlib.import_module(module_name)
        resolved = [
            (layer, target, *_resolve(target))
            for layer in self.layers
            for target in LAYERS[layer]
        ]
        for layer, target, owner, attr, original in resolved:
            wrapper = self._wrap(layer, target, original)
            self._patch(owner, attr, wrapper)
            if isinstance(owner, type):
                continue
            for module in list(sys.modules.values()):
                name = getattr(module, "__name__", "")
                if module is owner or not name.startswith("repro"):
                    continue
                for alias, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, alias, wrapper)
        mp_util.register_after_fork(self, Tracer._after_fork)
        self.installed = True
        return self

    def restore(self) -> None:
        """Put every original back (idempotent).

        Also unwraps aliases bound while the tracer was installed (a
        module imported mid-run copies the wrapper, not the original).
        """
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for alias, value in list(vars(module).items()):
                inner = getattr(value, "__servebench_wrapped__", None)
                if inner is not None and callable(value):
                    setattr(module, alias, inner)
        self.installed = False

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc: object) -> None:
        self.restore()

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap(self, layer: str, target: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        tracer = self
        post = _POST.get(target)
        barrier = target in _BARRIER
        gated = _BARRIER.get(target, False)
        delay = self.delays.get(layer, 0.0)

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            depth = tracer.depth
            outer = depth.get(layer, 0) == 0
            depth[layer] = depth.get(layer, 0) + 1
            frame = [0.0]
            tracer.stack.append(frame)
            mark = _stage_mark(args[0]) if gated else None
            t0 = _perf()
            try:
                result = fn(*args, **kwargs)
                if delay and outer:
                    _busy_wait(delay)
            finally:
                dt = _perf() - t0
                tracer.stack.pop()
                depth[layer] -= 1
                if tracer.stack:
                    tracer.stack[-1][0] += dt
                else:
                    tracer.top_s += dt
                tracer.calls[target] = tracer.calls.get(target, 0) + 1
                lrec = tracer.layer_totals[layer]
                lrec[1] += dt - frame[0]
                if outer:
                    lrec[0] += 1
                    lrec[2] += dt
            if post is not None and outer:
                post(tracer, args, result)
            if barrier and (not gated or _stage_mark(args[0]) != mark):
                tracer.counters["service.barrier_s"] += dt
            return result

        wrapper.__servebench_wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    # ------------------------------------------------------------------
    # forked workers
    # ------------------------------------------------------------------
    def _after_fork(self) -> None:
        if not self.installed:
            return
        self.reset()
        mp_util.Finalize(None, self._report, exitpriority=10)

    def _report(self) -> None:
        if self.spool is None:
            return
        path = self.spool / f"worker-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.snapshot()))
        tmp.replace(path)

    def collect_workers(self, expected: int) -> list[dict[str, Any]]:
        """Fold in the reports of *expected* exited workers; returns them."""
        if self.spool is None:
            raise RuntimeError("tracer has no spool directory")
        paths = sorted(self.spool.glob("worker-*.json"))
        if len(paths) != expected:
            raise TracerCoverageError(
                f"expected {expected} worker trace reports, found {len(paths)}"
            )
        snaps = []
        for path in paths:
            snap = json.loads(path.read_text())
            path.unlink()
            self.merge(snap)
            snaps.append(snap)
        return snaps
