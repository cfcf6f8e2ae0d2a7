"""(Re)write the golden corpus from the current substrate.

Usage::

    PYTHONPATH=src python tests/golden/capture.py

The checked-in corpus was captured from the dict adjacency with the routing
caches off, and matched the CSR substrate with caches on exactly, before the
dict substrate was retired.  Re-run this only when a change alters the pinned
outputs on purpose, and say so where the change is recorded.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import golden_facts as gf  # noqa: E402


def main() -> int:
    gf.dump("topology", {
        label: gf.topology_timeline(factory())
        for label, factory in gf.topology_cases()
    })
    gf.dump("runs", {
        label: gf.run_facts(name, overrides, keep)
        for label, name, overrides, keep in gf.RUN_CASES
    })
    gf.dump("figures", {name: rows() for name, rows in gf.FIGURES.items()})
    gf.dump("service", gf.service_facts())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
