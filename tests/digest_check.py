"""The benchmark's output digests equal perfbench/BASELINE.json:
count-rational and count-nodal at seed 0, realize and tropicalize at
every seed the baseline lists.

    python tests/digest_check.py

Each case runs `perfbench/run.py --workload W --seed S --seconds 1
--trace 0` from the root of the checkout and reads the json_sha256 and
svg_sha256 lines of its report.  A run that fails, or a digest that is
missing or differs, ends the run with exit status 1.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KEYS = ("json_sha256", "svg_sha256")


def main():
    baseline = json.loads((ROOT / "perfbench" / "BASELINE.json").read_text())["workloads"]
    cases = [("count-rational", "0"), ("count-nodal", "0")]
    cases += [(w, seed) for w in ("realize", "tropicalize") for seed in sorted(baseline[w]["digests"], key=int)]
    for workload, seed in cases:
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", seed,
             "--seconds", "1", "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True,
        )
        if done.returncode:
            sys.stderr.write(done.stdout + done.stderr)
            raise SystemExit(f"{workload} seed {seed}: exited with {done.returncode}")
        report = {}
        for line in done.stdout.splitlines():
            fields = line.split()
            if len(fields) >= 2 and fields[0] in KEYS:
                report[fields[0]] = fields[1]
        for key in KEYS:
            got, want = report.get(key, ""), baseline[workload]["digests"][seed][key]
            print(f"{workload} seed {seed} {key} {got}")
            if not got or got != want:
                raise SystemExit(f"expected {want}")


if __name__ == "__main__":
    main()
