"""Run every workload in its own process and print each end-to-end metric
by name and unit, with the fail ratio of the correctness checks.

    python3 perfbench/report.py                    # seed 0, one run per workload
    python3 perfbench/report.py --seeds 0-9        # ten seeds: medians and spreads
    python3 perfbench/report.py --seeds 0-9 --trace --baseline perfbench/BASELINE.json

Run it from the root of a checkout.  The spread of a metric is the
distance between the first and third quartiles of its values over the
seeds, as a share of their median; it is compared with a third of the
metric's bound in BENCHMARK.json.  --trace adds one traced run per
workload at the first seed and prints the per-layer metrics.
--baseline writes the medians, digests and per-layer figures, with the
machine and Python version, to the given file.  Exits 1 if any run failed
a check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if hi else [int(lo)]


def run_once(workload, seed, seconds, trace):
    """(result dict, readable lines) of one run.py process."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1]), lines[:-1]


def _digests(lines):
    return dict(line.split() for line in lines if line.strip().split()[0].endswith("_sha256"))


def _machine():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except OSError:
        return None
    return proc.stdout.strip() or None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=_seeds, default=[0], help="N or A-B")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--baseline", type=Path, default=None)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    ok = True
    baseline = {
        "program_commit": _commit(),
        "machine": _machine(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "run_seconds": seconds,
        "seeds": args.seeds,
        "workloads": {},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        values, units, attempted, failed, digests = {}, {}, 0, 0, {}
        for seed in args.seeds:
            result, lines = run_once(workload, seed, seconds, False)
            ok = ok and result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            digests[seed] = _digests(lines)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        print(f"{workload}: {len(args.seeds)} runs, fail_ratio {failed}/{attempted}"
              f" = {failed / max(attempted, 1):.6g}")
        entry = {"fail_ratio": failed / max(attempted, 1), "digests": digests, "end_to_end": {}}
        for name, vals in values.items():
            med = statistics.median(vals)
            row = {"median": med, "unit": units[name], "values": vals}
            text = f"  {name:14s} {med:12.6g} {units[name]:4s}"
            if len(vals) > 1:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med
                row.update(q1=q1, q3=q3, spread=spread)
                text += f"  q1 {q1:.6g} q3 {q3:.6g} spread {spread:.4f}"
                text += f" (bound {bounds[name]}, a third {bounds[name] / 3:.4f})"
            entry["end_to_end"][name] = row
            print(text)
        if args.trace:
            result, lines = run_once(workload, args.seeds[0], seconds, True)
            ok = ok and result["correct"]
            print(f"  traced run, seed {args.seeds[0]}:")
            for name, m in result["metrics"].items():
                print(f"    {name:34s} {m['value']:.6g} {m['unit']}")
            entry["per_layer"] = {n: m["value"] for n, m in result["metrics"].items()}
        baseline["workloads"][workload] = entry
    if args.baseline:
        args.baseline.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
