"""Compare a parent result set with a change result set.

Usage::

    python3 perfbench/run.py compare PARENT CHANGE

PARENT and CHANGE are JSON-lines files (or directories of ``*.jsonl``)
written by ``run.py --out``.  Untraced records are compared metric by metric
against the bounds in ``BENCHMARK.json``:

* each side's median and quartiles, and the spread (quartile distance over
  the median);
* the share of pairs the change won, pairing runs by seed (ties count for
  neither side);
* the verdict: ``unresolved`` when either side spreads wider than the bound,
  unless every change run beats every parent run; else ``worse`` when the
  change's median is worse than the parent's by more than the bound;
  ``better`` when
  the change wins at least nine tenths of the pairs and the medians differ
  by more than the parent's quartile distance; else ``same``.

A digest that differs between the sides for the same workload, seed and size
is flagged: the change altered a simulated statistic.  The exit code is 1
when a metric is worse or a digest changed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_records(path: Path) -> List[Dict[str, Any]]:
    files = sorted(path.glob("*.jsonl")) if path.is_dir() else [path]
    records = []
    for file in files:
        for line in file.read_text().splitlines():
            if line.strip():
                records.append(json.loads(line))
    return records


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(parent: List[Tuple[int, float]], change: List[Tuple[int, float]],
            better: str, bound: float) -> Dict[str, Any]:
    """The comparison of one metric on one workload (values keyed by seed)."""
    sign = 1.0 if better == "higher" else -1.0
    p_values = [value for _seed, value in parent]
    c_values = [value for _seed, value in change]
    p_q1, p_med, p_q3 = quartiles(p_values)
    c_q1, c_med, c_q3 = quartiles(c_values)
    by_seed = dict(parent)
    pairs = [(by_seed[seed], value) for seed, value in change if seed in by_seed]
    if not pairs:
        pairs = list(zip(p_values, c_values))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    won = wins / len(pairs) if pairs else 0.0
    p_spread = (p_q3 - p_q1) / abs(p_med) if p_med else 0.0
    c_spread = (c_q3 - c_q1) / abs(c_med) if c_med else 0.0
    worse_by = -sign * (c_med - p_med) / abs(p_med) if p_med else 0.0
    all_better = all(sign * (c - p) > 0 for c in c_values for p in p_values)
    if max(p_spread, c_spread) > bound and not all_better:
        result = "unresolved"
    elif worse_by > bound:
        result = "worse"
    elif (won >= 0.9 and abs(c_med - p_med) > (p_q3 - p_q1)) or all_better:
        result = "better"
    else:
        result = "same"
    return {"parent": (p_med, p_q1, p_q3), "change": (c_med, c_q1, c_q3),
            "won": won, "pairs": len(pairs), "worse_by": worse_by,
            "spread": max(p_spread, c_spread), "verdict": result}


def _values(records, workload: str, metric: str) -> List[Tuple[int, float]]:
    return sorted((r["seed"], r["result"]["metrics"][metric]["value"])
                  for r in records
                  if r["workload"] == workload and not r["trace"]
                  and metric in r["result"]["metrics"])


def digest_changes(parent, change) -> List[str]:
    known: Dict[Tuple, set] = {}
    for record in parent:
        key = (record["workload"], record["seed"], record["size"])
        known.setdefault(key, set()).add(record["digest"])
    flagged = []
    for record in change:
        key = (record["workload"], record["seed"], record["size"])
        if key in known and record["digest"] not in known[key]:
            flagged.append(f"{key[0]} seed {key[1]} ({key[2]}): digest changed")
    return sorted(set(flagged))


def _cell(triple: Tuple[float, float, float]) -> str:
    median, q1, q3 = triple
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: run.py compare PARENT CHANGE", file=sys.stderr)
        return 2
    parent, change = (load_records(Path(arg)) for arg in argv)
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    workloads = sorted({r["workload"] for r in parent} & {r["workload"] for r in change})
    flagged = digest_changes(parent, change)
    status = 1 if flagged else 0
    print(f"{'workload':<16} {'metric':<17} {'parent median [q1, q3]':<30} "
          f"{'change median [q1, q3]':<30} {'won':>9} {'bound':>6}  verdict")
    for workload in workloads:
        verdicts = []
        for metric in metrics:
            p = _values(parent, workload, metric["name"])
            c = _values(change, workload, metric["name"])
            if not p or not c:
                continue
            row = verdict(p, c, metric["better"], metric["bound"])
            verdicts.append(row["verdict"])
            label = row["verdict"]
            if row["verdict"] == "unresolved":
                label += f" (spread {row['spread']:.1%})"
            print(f"{workload:<16} {metric['name']:<17} {_cell(row['parent']):<30} "
                  f"{_cell(row['change']):<30} {row['won']:>5.0%}/{row['pairs']:<3} "
                  f"{metric['bound']:>6.0%}  {label}")
        failed = {}
        for side, records in (("parent", parent), ("change", change)):
            results = [r["result"] for r in records if r["workload"] == workload]
            failed[side] = (sum(r["failed"] for r in results),
                            sum(r["attempted"] for r in results))
        digest = any(line.startswith(workload + " ") for line in flagged)
        summary = "worse" if "worse" in verdicts else (
            "unresolved" if "unresolved" in verdicts else (
                "better" if "better" in verdicts else "same"))
        print(f"{workload:<16} {'= workload':<17} failed {failed['parent'][0]}/"
              f"{failed['parent'][1]} -> {failed['change'][0]}/{failed['change'][1]}; "
              f"{summary}{'; DIGEST CHANGED' if digest else ''}")
        if "worse" in verdicts:
            status = 1
    for line in flagged:
        print("FLAG " + line)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
