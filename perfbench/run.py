"""Run one benchmark workload, or compare two sets of results.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-campaign --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seconds 40          # every workload
    python3 perfbench/run.py --workload service-churn --trace 1   # per-layer table
    python3 perfbench/run.py compare parent.jsonl change.jsonl

With ``--trace 0`` the run measures the end-to-end metrics with only the
op-level probes installed.  With ``--trace 1`` it runs a warm-up pass, a
traced pass and an untraced pass, and reports the per-layer metrics of the
traced pass plus ``trace.overhead_ratio``; the raw spans of the traced
set-up and pass go to ``.perfbench-out/`` at the end of the run.  The last
line of standard output is always one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; ``--out FILE`` appends the full
record (digest, machine fingerprint) to a JSON-lines file that ``compare``
reads.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from workloads import (  # noqa: E402  (needs the path above)
    DEFAULT_SEED,
    WORKLOADS,
    Recorder,
    install_probes,
    strategy_classes,
)
from tracer import Patcher, Tracer  # noqa: E402

#: end-to-end metrics: name, unit, which direction is better
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("init_s", "s", "lower"),
    ("cycle_ms_p50", "ms", "lower"),
    ("cycle_ms_p90", "ms", "lower"),
    ("sim_cycles_per_s", "1/s", "higher"),
)

#: set-ups made before the first pass; setup_s is their median
SETUP_REPEATS = {"paper-campaign": 51, "city-initiation": 3, "service-churn": 51}

#: passes an untraced run makes, however long they take
MIN_PASSES = 2

#: where a traced run writes its raw spans
SPANS_DIR = ROOT / ".perfbench-out"

DIGESTS_FILE = HERE / "digests.json"


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fingerprint() -> Dict[str, Any]:
    """Which code ran on which machine, as far as the checkout can tell."""
    import numpy

    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            if ref_path.exists():
                commit = ref_path.read_text().strip()
            else:
                packed = (ROOT / ".git" / "packed-refs").read_text().splitlines()
                commit = next((line.split()[0] for line in packed
                               if line.endswith(" " + ref[5:])), "unknown")
        else:
            commit = ref
    except OSError:
        pass
    cpu = platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg": list(os.getloadavg()),
    }


def recorded_digest(workload: str, size: str) -> Optional[str]:
    try:
        return json.loads(DIGESTS_FILE.read_text()).get(workload, {}).get(size)
    except (OSError, ValueError):
        return None


def verify_digests(rec: Recorder, workload: str, size: str, seed: int) -> None:
    """Every pass must agree, and the default seed must match the record."""
    if len(set(rec.digests)) > 1:
        rec.fail(f"digest differs between passes: {sorted(set(rec.digests))}")
    if seed == DEFAULT_SEED and rec.digests:
        expected = recorded_digest(workload, size)
        if expected is None:
            rec.fail(f"no digest recorded for {workload}/{size}")
        elif rec.digests[0] != expected:
            rec.fail(f"digest {rec.digests[0]} != recorded {expected}")


def _timed_setup(workload, rec: Recorder):
    # the last pass's garbage is collected before, not inside, the timing
    gc.collect()
    started = time.perf_counter()
    state = workload.setup()
    rec.setup_s.append(time.perf_counter() - started)
    return state


def _run_pass(workload, state, rec: Recorder) -> float:
    """One pass; keeps its samples apart and returns its host seconds."""
    first = {name: len(getattr(rec, name))
             for name in ("op_s", "cycle_s", "init_s")}
    started = time.perf_counter()
    rec.digests.append(workload.run_pass(state, rec))
    elapsed = time.perf_counter() - started
    rec.passes.append({name: getattr(rec, name)[index:] for name, index in first.items()})
    rec.pass_s.append(elapsed)
    return elapsed


def elementwise_best(passes: List[List[float]]) -> List[float]:
    """The fastest instance of each sample position across passes.

    Passes repeat identical work, so sample *i* of every pass times the same
    op (or cycle, or initiation).
    """
    length = min(len(samples) for samples in passes)
    return [min(samples[i] for samples in passes) for i in range(length)]


def end_to_end(rec: Recorder) -> Dict[str, float]:
    op_s = elementwise_best([p["op_s"] for p in rec.passes])
    cycle_s = elementwise_best([p["cycle_s"] for p in rec.passes])
    init_s = elementwise_best([p["init_s"] for p in rec.passes])
    cycle_ms = [value * 1000.0 for value in cycle_s]
    return {
        "setup_s": statistics.median(rec.setup_s),
        "ops_per_s": len(op_s) / sum(op_s),
        "init_s": sum(init_s),
        "cycle_ms_p50": percentile(cycle_ms, 50),
        "cycle_ms_p90": percentile(cycle_ms, 90),
        "sim_cycles_per_s": len(cycle_s) / sum(cycle_s),
    }


def measure(workload, rec: Recorder, seconds: float) -> Dict[str, Dict[str, Any]]:
    """The untraced run: several set-ups, then whole passes for *seconds*
    (at least ``MIN_PASSES`` of them).

    Every pass repeats the same ops, so each op, cycle and initiation is
    timed once per pass, and each keeps its fastest instance.  On a shared
    host, interference only ever slows work down, and it comes in stretches
    of seconds to minutes; the fastest instance of each op is the steadiest
    estimate of what the code costs.  Set-ups and passes take turns on the
    CPUs the process may use, so every op is timed on each of them: on the
    development host the slowdowns of its two vCPUs were uncorrelated.
    ``ops_per_s`` is a pass's ops over the sum of their fastest instances;
    ``setup_s`` is the median of the set-ups.
    """
    cpus = sorted(os.sched_getaffinity(0))
    turn = 0

    def next_cpu() -> None:
        nonlocal turn
        os.sched_setaffinity(0, {cpus[turn % len(cpus)]})
        turn += 1

    state = None
    try:
        for _ in range(SETUP_REPEATS[workload.name]):
            if state is not None:
                workload.teardown(state)
            next_cpu()
            state = _timed_setup(workload, rec)
        window_start = time.perf_counter()
        while True:
            next_cpu()
            gc.collect()
            last = _run_pass(workload, state, rec)
            # stop before a pass that would end past the window, but keep
            # two passes at least: the fastest instance needs a choice
            elapsed = time.perf_counter() - window_start
            if len(rec.passes) >= MIN_PASSES and elapsed + last > seconds:
                break
            if not workload.reusable:
                state = _timed_setup(workload, rec)
        if workload.reusable:
            workload.teardown(state)
    finally:
        os.sched_setaffinity(0, cpus)
    values = end_to_end(rec)
    rec.counts["samples.op"] = len(rec.op_s)
    rec.counts["samples.cycle"] = len(rec.cycle_s)
    rec.counts["samples.setup"] = len(rec.setup_s)
    rec.counts["passes"] = len(rec.passes)
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}


def trace(workload, rec: Recorder, spans_out: Path) -> Dict[str, Dict[str, Any]]:
    """Warm-up, traced and untraced passes; the per-layer metrics of the
    traced pass and its traced set-up.  The raw spans are written to
    *spans_out* at the end."""
    from layers import install_tracing, per_layer_metrics

    tracer = Tracer()
    classes = strategy_classes()
    traced_ns = 0

    def traced(action):
        nonlocal traced_ns
        patcher = Patcher()
        install_tracing(patcher, tracer, classes)
        workload.span = tracer.open
        tracer.start()
        try:
            return action()
        finally:
            tracer.stop()
            traced_ns += tracer.stopped_ns - tracer.started_ns
            del workload.span
            patcher.restore()

    def fresh(state):
        # a non-reusable pass consumes its state (closes the store, stops
        # the daemon), so the next pass needs a new set-up
        state = state if workload.reusable else workload.setup()
        gc.collect()
        return state

    state = traced(workload.setup)
    gc.collect()
    _run_pass(workload, state, rec)       # warm-up: neither side runs cold
    if not workload.reusable:
        state = traced(workload.setup)
    gc.collect()
    before = dict(rec.counts)
    traced_s = traced(lambda: _run_pass(workload, state, rec))
    counts = {key: value - before.get(key, 0.0) for key, value in rec.counts.items()}
    counts["process.peak_rss_mb"] = peak_rss_mb()
    state = fresh(state)
    untraced_s = _run_pass(workload, state, rec)
    if workload.reusable:
        workload.teardown(state)
    overhead = traced_s / untraced_s - 1.0
    spans_out.parent.mkdir(exist_ok=True)
    spans_out.write_text(json.dumps(tracer.dump()))
    return per_layer_metrics(tracer, traced_ns, counts, overhead)


def _format(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_workload(args: argparse.Namespace) -> int:
    try:
        import numpy  # noqa: F401
        import repro
    except ImportError as error:
        print(f"perfbench: cannot import the program under test ({error}); "
              "run from the root of a checkout that has src/repro", file=sys.stderr)
        return 2
    origin = [Path(path).resolve() for path in repro.__path__]
    if ROOT / "src" / "repro" not in origin:
        print(f"perfbench: repro was imported from {origin}, not from this "
              "checkout's src/", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench-work"
    workdir.mkdir(exist_ok=True)
    rec = Recorder()
    workload = WORKLOADS[args.workload](args.seed, args.size, workdir)
    probes = Patcher()
    install_probes(probes, rec)
    info = fingerprint()
    try:
        if args.trace:
            spans_out = SPANS_DIR / f"spans-{args.workload}-{args.size}-seed{args.seed}.json"
            metrics = trace(workload, rec, spans_out)
            print(f"spans written to {spans_out.relative_to(ROOT)}")
        else:
            metrics = measure(workload, rec, args.seconds)
    finally:
        probes.restore()
        shutil.rmtree(workdir, ignore_errors=True)
    verify_digests(rec, args.workload, args.size, args.seed)
    attempted = max(rec.attempted, 1)
    failed = min(rec.failed, attempted)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    width = max(len(name) for name in metrics)
    print(f"{args.workload} (seed {args.seed}, {args.size}, "
          f"{'traced' if args.trace else 'untraced'})")
    for name, entry in metrics.items():
        print(f"  {name:<{width}}  {_format(entry['value']):>14}  {entry['unit']}")
    print(f"  {'error_rate':<{width}}  {_format(failed / attempted):>14}  ratio "
          f"({failed}/{attempted})")
    for problem in rec.problems:
        print(f"  FAILED: {problem}")
    record = {"workload": args.workload, "seed": args.seed, "size": args.size,
              "trace": args.trace, "seconds": args.seconds,
              "digest": rec.digests[0] if rec.digests else None,
              "counts": rec.counts, "pass_s": rec.pass_s, "fingerprint": info,
              "result": result}
    if args.out is not None:
        with open(args.out, "a") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    print("record " + json.dumps({k: v for k, v in record.items() if k != "result"},
                                 sort_keys=True))
    print(json.dumps(result))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, so peak RSS belongs to one of them."""
    status = 0
    for name in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--size", args.size]
        if args.out is not None:
            command += ["--out", str(args.out)]
        completed = subprocess.run(command, capture_output=True, text=True, timeout=900)
        lines = completed.stdout.splitlines()
        print("\n".join(lines[:-2]))
        sys.stderr.write(completed.stderr)
        if completed.returncode != 0 or not lines:
            status = completed.returncode or 1
            continue
        if not json.loads(lines[-1])["correct"]:
            status = 1
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="measured window of an untraced run (whole passes)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: seconds-sized inputs for the self-tests")
    parser.add_argument("--out", type=Path, default=None,
                        help="append the run's record to this JSON-lines file")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        from compare import main as compare_main

        return compare_main(argv[1:])
    args = build_parser().parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
