"""The layer map: which public functions the traced run wraps, per layer.

Each target is ``"module:qualname"`` — a module-level function or a
method defined on the named class itself.  The tracer resolves every
target when it installs and fails loudly if one is missing, so a
refactor that renames, moves or inlines a traced function must update
this map instead of silently reading 0.

Layer names are the metric prefixes of the per-layer metrics
(see ``METRICS.md``).
"""

from __future__ import annotations

__all__ = ["EXPECTED_LAYERS", "LAYERS", "MODULES"]

LAYERS: dict[str, tuple[str, ...]] = {
    # request path of one process: buffer, auto-flush, drive sessions
    "router": (
        "repro.serve.router:MicroBatchRouter.submit",
        "repro.serve.router:MicroBatchRouter.flush",
    ),
    # player-program (engine) stepping
    "sessions": ("repro.serve.sessions:advance",),
    # billboard reads and writes made by the player programs
    "billboard.poll": (
        "repro.billboard.board:Billboard.has_channels",
        "repro.billboard.board:Billboard.has_channel",
    ),
    "billboard.read": (
        "repro.billboard.board:Billboard.read_first_rows_packed",
        "repro.billboard.board:Billboard.read_first_rows",
        "repro.billboard.board:Billboard.read_vectors",
    ),
    "billboard.post": (
        "repro.billboard.board:Billboard.post_vectors",
        "repro.billboard.postlog:SharedBillboard.post_vectors",
    ),
    # the per-node vote: packed (player programs) and dense (core)
    "vote": (
        "repro.utils.rowset:popular_rows_packed",
        "repro.utils.rowset:popular_rows",
    ),
    # the charged oracle and the kernels it (and core) dispatches to
    "oracle": (
        "repro.billboard.oracle:ProbeOracle.probe_many",
        "repro.billboard.oracle:ProbeOracle.probe",
    ),
    "kernels": (
        "repro.metrics.kernels:extract_bits",
        "repro.metrics.kernels:fused_extract_post",
        "repro.metrics.kernels:scatter_values",
        "repro.metrics.kernels:diameter_words",
        "repro.metrics.kernels:pairwise_hamming_words",
        "repro.metrics.kernels:scan_column",
        "repro.metrics.kernels:pair_agreements",
    ),
    # service stage machine: stage completions, checkpoints, answers
    "service.barrier": (
        "repro.serve.service:ServeService.note_stage_done",
        "repro.serve.sharded:_ShardWorkerService.advance_stage",
    ),
    "service.checkpoint": (
        "repro.billboard.board:Billboard.checkpoint",
        "repro.billboard.oracle:ProbeOracle.checkpoint",
    ),
    "service.estimate": ("repro.serve.service:ServeService.estimate",),
    # sharded front end (its workers run the layers above)
    "sharded.flush": (
        "repro.serve.sharded:ShardedRuntime.submit",
        "repro.serve.sharded:ShardedRuntime.flush",
    ),
    "postlog.append": ("repro.billboard.postlog:PostLog.append",),
    "postlog.sync": ("repro.billboard.postlog:SharedBillboard.sync",),
    # offline drivers of the anytime loop
    "core.zero_radius": ("repro.core.zero_radius:zero_radius",),
    "core.small_radius": ("repro.core.small_radius:small_radius",),
    "core.select": (
        "repro.core.batching:select_batched",
        "repro.core.select:select",
    ),
    "core.rselect": (
        "repro.core.batching:rselect_batched",
        "repro.core.rselect:rselect",
    ),
}

#: Every module named above, imported before the tracer installs so
#: that ``from m import f`` aliases already exist and get patched too.
MODULES: tuple[str, ...] = tuple(
    sorted({target.split(":", 1)[0] for targets in LAYERS.values() for target in targets})
    + ["repro.core.main", "repro.engine.zero_radius_player", "repro.engine.small_radius_player"]
)

_SERVE = (
    "router",
    "sessions",
    "billboard.poll",
    "billboard.read",
    "billboard.post",
    "vote",
    "oracle",
    "kernels",
    "service.barrier",
    "service.checkpoint",
    "service.estimate",
)

#: Layers a traced unit of each workload must record calls in.  A layer
#: that reads 0 where it is expected means a wrapper is being bypassed
#: (for example a new import alias), so the traced run fails.
EXPECTED_LAYERS: dict[str, tuple[str, ...]] = {
    "serve_local": _SERVE,
    "serve_sharded_w2": _SERVE + ("sharded.flush", "postlog.append", "postlog.sync"),
    "offline_floor": (
        "vote",
        "oracle",
        "kernels",
        "core.zero_radius",
        "core.small_radius",
        "core.select",
        "core.rselect",
    ),
}
