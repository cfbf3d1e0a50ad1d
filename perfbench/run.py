"""Benchmark entry point: one workload and one seed in one process.

    python3 perfbench/run.py --workload realize --seed 0 --seconds 10 --trace 0

Run it from the root of a checkout, the directory that holds src/tropico
and tests/ch_oracle.py; it exits with code 2 and prints no result
anywhere else.  Readable lines go to stdout first.  The last line is one
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer ones with --trace 1.
The traced run also writes its spans to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import io as stdio
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

from refclock import REF_LOOP_S, RefClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_REPS = 5  # fresh processes that set up the workload; setup_s is their median
CLI_REPS = 7  # runs of the workload's CLI command; cli_s is their median
CHILD_TIMEOUT_S = 120
# workload and metric names, with their units, as BENCHMARK.json lists them
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
UNITS = {m["name"]: m["unit"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}


def use_checkout():
    """Put the checkout's src/ and tests/ first on sys.path, or exit 2."""
    missing = [
        rel for rel in ("src/tropico/__init__.py", "tests/ch_oracle.py")
        if not (ROOT / rel).is_file()
    ]
    if missing:
        print(f"perfbench: {ROOT} is not a tropico checkout: no {', '.join(missing)}",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]


def pin_to_one_cpu():
    """Run this process and its children on one CPU, so that the reference
    loop, sampled in this process, runs on the CPU that runs the measured
    child processes too."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def p95(samples):
    """Nearest-rank 95th percentile."""
    ordered = sorted(samples)
    return ordered[math.ceil(0.95 * len(ordered)) - 1]


def _child(cmd, env=None):
    t0 = perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    return (t0, perf_counter()), proc


def setup_runs(workload, seed, checks, reps):
    """Intervals of ``reps`` fresh processes that start, import and build
    the workload's corpus, then exit."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    out = []
    for _ in range(reps):
        interval, proc = _child(cmd)
        if checks.check(proc.returncode == 0, f"set-up process failed: {proc.stderr[-500:]}"):
            out.append(interval)
    return out


def cli_runs(corpus, checks, tracer, reps):
    """Intervals of the workload's ``python -m tropico`` command, run as a
    process and in-process through ``cli.cmd``; both outputs are checked."""
    import workloads
    from tropico import cli

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    OUT.mkdir(exist_ok=True)
    process, inproc = [], []
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        argv, stdout, files = workloads.cli_case(corpus, Path(tmp))
        span = tracer.span if tracer else (lambda name: nullcontext())
        for _ in range(reps):
            with span("bench.cli_process"):
                interval, proc = _child([sys.executable, "-m", "tropico", *argv], env)
            process.append(interval)
            checks.check(proc.returncode == 0 and proc.stdout == stdout,
                         f"CLI {argv[0]}: exit {proc.returncode}, stdout differs: "
                         f"{proc.stdout[:200]!r} {proc.stderr[-300:]!r}")
            written = {p: p.read_text() if p.exists() else None for p in files}
            for p, want in files.items():
                if want is not None:
                    checks.check(written[p] == want, f"CLI {argv[0]}: {p.name} differs")
            buf = stdio.StringIO()
            gc.collect()
            with tracer.installed() if tracer else nullcontext():
                t0 = perf_counter()
                with redirect_stdout(buf), redirect_stderr(stdio.StringIO()):
                    code = cli.cmd(argv)
                inproc.append((t0, perf_counter()))
            checks.check(code == 0 and buf.getvalue() == stdout,
                         f"in-process CLI {argv[0]}: exit {code}, stdout differs")
            for p in files:
                again = p.read_text() if p.exists() else None
                checks.check(again is not None and again == written[p],
                             f"CLI {argv[0]}: {p.name} differs in-process")
    return process, inproc


def per_layer(tracer, sec, corpus, runs):
    """Per-layer metrics: inclusive and self seconds per traced pass, counts
    per traced pass, set-up figures, CLI and tracing overheads."""
    import tracing

    incl, self_s, calls = tracer.totals(sec, "bench.pass")
    setup_incl, _, _ = tracer.totals(sec, "bench.setup")
    n = len(runs["traced"])
    spans = sum(calls.values()) - calls["bench.pass"]
    c = tracer.pass_counters

    def per_pass(x):
        return x / n

    def median(name):
        return statistics.median(sec(a, b) for a, b in runs[name])

    return {
        "lattice.direction_data_s": setup_incl["lattice.direction_data"],
        "lattice.specs": len(corpus.cases),
        "diagram.enumerate_diagrams_s": per_pass(incl["diagram.enumerate_diagrams"]),
        "diagram.diagrams": per_pass(c["diagram.diagrams"]),
        "diagram.enumerate_markings_s": per_pass(incl["diagram.enumerate_markings"]),
        "diagram.marking_classes": per_pass(c["diagram.marking_classes"]),
        "diagram.self_s": per_pass(self_s["diagram"]),
        "realize.realize_stretched_s": per_pass(incl["realize.realize_stretched"]),
        "realize.marked_diagrams": per_pass(c["realize.marked_diagrams"]),
        "realize.spacing_doublings": per_pass(c["realize.spacing_doublings"]),
        "realize.verify_realization_s": per_pass(incl["realize.verify_realization"]),
        "realize.violations": per_pass(c["realize.violations"]),
        "realize.self_s": per_pass(self_s["realize"]),
        "tropical.to_plane_curve_s": per_pass(incl["tropical.to_plane_curve"]),
        "tropical.crossings": per_pass(c["tropical.crossings"]),
        "tropical.tropical_multiplicity_s": per_pass(incl["tropical.tropical_multiplicity"]),
        "tropical.corner_locus_s": per_pass(incl["tropical.corner_locus"]),
        "tropical.subdivision_cells": per_pass(c["tropical.subdivision_cells"]),
        "tropical.legendre_transform_s": per_pass(incl["tropical.legendre_transform"]),
        "tropical.stable_intersection_s": per_pass(incl["tropical.stable_intersection_generic"]),
        "tropical.intersection_retries": per_pass(
            calls["tropical.stable_intersection"] - calls["tropical.stable_intersection_generic"]
        ),
        "tropical.self_s": per_pass(self_s["tropical"]),
        "io.json_s": per_pass(incl["io.curve_to_json"] + incl["io.dumps"]),
        "io.json_bytes": per_pass(c["io.json_bytes"]),
        "io.self_s": per_pass(self_s["io"]),
        "render.svg_s": per_pass(
            incl["render.render_curve_svg"] + incl["render.render_subdivision_svg"]
        ),
        "render.svg_bytes": per_pass(c["render.svg_bytes"]),
        "render.self_s": per_pass(self_s["render"]),
        "cli.overhead_s": median("cli_process") - median("cli_inproc"),
        # the passes' spans times what one span costs; see tracing.py
        "trace.overhead_s": per_pass(spans) * tracing.span_cost(sec, runs["calibration"]),
    }


def measure(workload, seed, seconds, trace, smoke=False):
    """Set up, run passes for ``seconds`` (traced passes when tracing), time
    the CLI; returns (result, readable lines).
    Every interval is taken under a reference clock and reported in
    reference seconds."""
    import tracing
    import workloads

    checks = workloads.Checks()
    reps = 1 if smoke else None
    tracer = tracing.Tracer() if trace else None
    runs = {"setup": [], "untraced": [], "traced": []}
    items = []  # per item, its (start, end) in every untraced pass
    digests = set()
    with RefClock() as clock:
        if tracer:
            with tracer.installed(), tracer.span("bench.setup"):
                corpus = workloads.build(workload, seed, smoke)
        else:
            corpus = workloads.build(workload, seed, smoke)
            runs["setup"] = setup_runs(workload, seed, checks, reps or SETUP_REPS)
        start = perf_counter()
        while True:
            gc.collect()  # every pass starts from the same collector state
            t0 = perf_counter()
            if trace:
                before = tracer.counters.copy()
                with tracer.installed(), tracer.span("bench.pass"):
                    out = workloads.run_pass(corpus, checks, tracer.span)
                tracer.pass_counters.update(tracer.counters - before)
            else:
                out = workloads.run_pass(corpus, checks)
                items = items or [[] for _ in out.items]
                for samples, interval in zip(items, out.items):
                    samples.append(interval)
            runs["traced" if trace else "untraced"].append((t0, perf_counter()))
            digests.add((out.json_sha256, out.svg_sha256))
            if perf_counter() - start >= seconds:
                break
        if trace:
            runs["calibration"] = tracing.calibrate()
        else:
            workloads.repeat_short_counts(corpus, checks, items)
        runs["cli_process"], runs["cli_inproc"] = cli_runs(
            corpus, checks, tracer, reps or CLI_REPS
        )
    checks.check(len(digests) == 1, "outputs differ between passes")
    sec = clock.ref_seconds

    def median(name):
        return statistics.median(sec(a, b) for a, b in runs[name])

    if trace:
        values = per_layer(tracer, sec, corpus, runs)
    else:
        item_ms = [statistics.median(sec(a, b) for a, b in s) * 1e3 for s in items]
        values = {
            "setup_s": median("setup") if runs["setup"] else 0.0,  # failed: see checks
            "wall_s": median("untraced"),
            "item_p50_ms": statistics.median(item_ms),
            "item_p95_ms": p95(item_ms),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "cli_s": median("cli_process"),
        }
    metrics = {name: {"value": value, "unit": UNITS[name]} for name, value in values.items()}
    failed = len(checks.failures)
    json_sha, svg_sha = sorted(digests)[0]
    raw_wall = statistics.median(b - a for a, b in runs["traced" if trace else "untraced"])
    lines = [
        f"workload {workload} seed {seed} trace {int(trace)}: "
        f"{len(runs['untraced'])} untraced and {len(runs['traced'])} traced passes, "
        f"{len(items)} items timed {sum(map(len, items))} times, "
        f"{len(runs['setup'])} set-ups, "
        f"{len(runs['cli_process'])} CLI runs",
        f"  reference loop {clock.loop_ms():.4f} ms (reference {REF_LOOP_S * 1e3:g} ms); "
        f"pass {raw_wall:.4f} s measured",
        *(f"  {name:32s} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()),
        f"  fail_ratio {failed}/{checks.attempted}"
        f" = {failed / max(checks.attempted, 1):.6g}",
        f"  json_sha256 {json_sha}",
        f"  svg_sha256 {svg_sha}",
        *(f"  FAILED {what}" for what in checks.failures[:20]),
    ]
    if tracer:
        _, self_all, _ = tracer.totals(sec)
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{workload}-{seed}.json"
        tracer.dump(path, {"workload": workload, "seed": seed, "metrics": values,
                           "self_s_by_layer": dict(self_all)})
        lines.append(f"  spans written to {path.relative_to(ROOT)}")
    result = {
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    use_checkout()
    if args.setup_only:
        import workloads

        workloads.build(args.workload, args.seed)
        return 0
    pin_to_one_cpu()
    result, lines = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
