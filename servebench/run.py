"""Served-probe benchmark entry point.

Usage, from the root of a checkout::

    python3 servebench/run.py --workload serve_local --seed 21 --seconds 12 --trace 0

``--workload`` is ``serve_local``, ``serve_sharded_w2`` or
``offline_floor``; ``--trace 1`` makes the traced run that reports the
per-layer metrics.  See ``servebench/METRICS.md``.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main() -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"servebench: no program source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from servebench.bench import main as bench_main

    return bench_main()


if __name__ == "__main__":
    sys.exit(main())
