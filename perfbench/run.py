"""Benchmark of rht, driven in process the way its users drive it.

    python3 perfbench/run.py --workload enumerate-gated --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the root of a checkout; the package is imported from ``src/``.
A run makes ``round(passes * seconds / 30)`` passes over one workload, in
one process and one thread.  Each pass starts from a fresh import of rht, so
no state of the program outlives a pass, and its set-up (the import plus
parsing or generating the inputs) is timed apart from the pass.  Every
output is checked; the last line of standard output is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``, and the exit code is
1 when an output is wrong or an operation failed.

With ``--trace 0`` the metrics are end to end, and every timing in them is
rescaled to a nominal host speed measured during the run (see ``speed.py``);
the plain wall times are printed beside them.  With ``--trace 1`` half of
the passes run untraced and half traced (see ``tracer.py``); the metrics
are per layer, in plain wall time, medians over the traced passes, and the
spans of the first traced pass go to ``perfbench/out/spans-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import subprocess
import sys
import time
import typing
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import workloads
from speed import SpeedProbe, Unprobed
from tracer import Tracer, per_layer_spec

ROOT = workloads.ROOT
SRC = ROOT / "src"
OUT = workloads.HERE / "out"

# set-ups per pass: each is a fresh import plus parsing or generating the
# inputs, and the ops of the last one are run
SETUP_REPEATS = 2

END_TO_END = (
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)


def forget_rht() -> None:
    """Drop every module of an earlier import of rht, and the objects it made.

    typing caches the unions that rht builds at import, and with them the
    classes of that import; they are cleared so that each import's memory
    is freed before the next.
    """
    for name in [m for m in sys.modules if m == "rht" or m.startswith("rht.")]:
        del sys.modules[name]
    for clear in getattr(typing, "_cleanups", ()):
        clear()
    gc.collect()


def import_rht():
    """Import rht, with its command line, from ``src/``."""
    importlib.import_module("rht.cli")
    rht = sys.modules["rht"]
    if not Path(rht.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"rht imported from {rht.__file__}, not from {SRC}")
    return rht


# a timed interval: (start, end, seconds the speed probe took inside it)
Span = tuple[float, float, float]


@dataclass
class Pass:
    """Timings and outcomes of one pass."""

    setups: list[list[Span]] = field(default_factory=list)  # the pieces of each set-up
    ops: list[Span] = field(default_factory=list)
    wall_s: float = 0.0  # plain wall time of the timed operations
    failed: list[str] = field(default_factory=list)
    wrong: list[str] = field(default_factory=list)
    start: float = 0.0  # clock reading when the timed operations began
    op_ids: range = range(0)  # tracer ids of the timed operations


class Untraced:
    """The tracer of an untraced pass: it records nothing."""

    ops = ()

    def install(self, rht) -> None:
        pass

    def begin(self, name: str) -> None:
        pass

    def end(self) -> None:
        pass


def run_pass(w, seed: int, pass_no: int, golden: dict, probe, tracer=Untraced()) -> Pass:
    """Set up SETUP_REPEATS times, time each operation of the last set-up,
    then check every output; the checks are not part of the pass's wall time."""
    p = Pass()
    clock = time.perf_counter

    def span(start: float, probe_before: float) -> Span:
        return start, clock(), probe.total - probe_before

    for repeat in range(SETUP_REPEATS):
        forget_rht()
        c, t = probe.total, clock()
        rht = import_rht()
        imported = span(t, c)
        if repeat == SETUP_REPEATS - 1:
            tracer.install(rht)
            tracer.begin("setup")
        c, t = probe.total, clock()
        ops = workloads.prepare(rht, w, seed, pass_no, golden)
        p.setups.append([imported, span(t, c)])
    tracer.end()
    first_op = len(tracer.ops)
    results = {}
    p.start = clock()
    for op in ops:
        tracer.begin(op.name)
        c, t = probe.total, clock()
        try:
            results[op.name] = op.call()
        except (Exception, SystemExit) as exc:
            p.failed.append(f"{op.name}: {type(exc).__name__}: {exc}")
        p.ops.append(span(t, c))
        tracer.end()
    p.wall_s = clock() - p.start
    p.op_ids = range(first_op, len(tracer.ops))
    tracer.begin("check")
    for op in ops:
        if op.name in results:
            message = op.check(results)
            if message:
                p.wrong.append(message)
    tracer.end()
    return p


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (value, pct, n)."""
    s, n = sorted(values), len(values)
    if n <= 10:
        return s[-1], 100.0, n
    return s[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(passes: list[Pass], probe) -> tuple[dict, dict]:
    """The end-to-end metrics, each timing at the probe's nominal speed."""
    lat = [probe.seconds(*op) for p in passes for op in p.ops]
    walls = [sum(probe.seconds(*op) for op in p.ops) for p in passes]
    value, pct, n = tail(lat)
    metrics = {
        "wall_s": median(walls),
        "op_p50_ms": 1000 * median(lat),
        "op_tail_ms": 1000 * value,
        "ops_per_s": len(lat) / sum(walls),
        "setup_s": median(sum(probe.seconds(*s) for s in pieces) for p in passes for pieces in p.setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    plain = sorted(p.wall_s for p in passes)
    notes = {
        "op_tail_ms": f"p{pct:.1f} of {n} operations",
        "wall_s": f"{len(passes)} passes; plain wall time median {median(plain):.4f}"
        f" min {plain[0]:.4f} max {plain[-1]:.4f}; speed probe kernel median"
        f" {1e6 * median(probe.durations):.1f} us over {len(probe.durations)} samples",
    }
    return metrics, notes


def report(w, passes: list[Pass], metrics: dict, units: dict, notes: dict) -> dict:
    attempted = sum(len(p.ops) for p in passes)
    failed = sum(len(p.failed) for p in passes)
    wrong = sum(len(p.wrong) for p in passes)
    for p in passes:
        for line in p.failed + p.wrong:
            print(f"[{w.name}] {line}", file=sys.stderr)
    print(f"workload {w.name}: {attempted} operations, {failed} failed, {wrong} wrong")
    print(f"  fail_ratio {failed / attempted:.4f} ratio  wrong_results {wrong} count")
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:44s} {value:14.6f} {units[name]}{note}")
    return {
        "correct": wrong == 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }


def run_untraced(w, seed: int, n_passes: int, golden: dict) -> dict:
    with SpeedProbe() as probe:
        passes = [run_pass(w, seed, k, golden, probe) for k in range(n_passes)]
    metrics, notes = end_to_end(passes, probe)
    return report(w, passes, metrics, dict(END_TO_END), notes)


def run_traced(w, seed: int, n_passes: int, golden: dict) -> dict:
    # traced pass k runs the inputs of untraced pass k, so that the ratio of
    # their wall times is the cost of tracing alone
    n_plain = max(1, n_passes // 2)
    probe = Unprobed()
    plain = [run_pass(w, seed, k, golden, probe) for k in range(n_plain)]
    traced, per_pass = [], []
    for k in range(n_plain):
        tracer = Tracer()
        p = run_pass(w, seed, k, golden, probe, tracer)
        traced.append(p)
        per_pass.append(tracer.metrics(p.op_ids, p.wall_s))
        if k == 0:
            path = OUT / f"spans-{w.name}.jsonl"
            tracer.write(path, p.start)
            print(f"spans of the first traced pass: {path.relative_to(ROOT)}")
            for i in p.op_ids:
                print(f"  counters {tracer.ops[i]}: {dict(sorted(tracer.counters[i].items()))}")
    metrics = {name: median(m[name] for m in per_pass) for name in per_pass[0]}
    metrics["trace.overhead"] = median(p.wall_s for p in traced) / median(p.wall_s for p in plain)
    spec = per_layer_spec()
    metrics = {name: metrics[name] for name, _, _ in spec}
    units = {name: unit for name, unit, _ in spec}
    return report(w, plain + traced, metrics, units, {})


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, cwd=ROOT).returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "rht" / "__init__.py").is_file():
        print(f"no rht package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    w = workloads.WORKLOADS[args.workload]
    golden = workloads.load_golden()
    n_passes = max(1, round(w.passes * args.seconds / 30))
    run = run_traced if args.trace else run_untraced
    result = run(w, args.seed, n_passes, golden)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
