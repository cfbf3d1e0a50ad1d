"""Plane sextics through `tropico count --explain`, which lists the
diagrams and checks their marking counts against the peeled total.

    PYTHONPATH=src python tests/explain_check.py GENUS:COUNT [GENUS:COUNT ...]

Each case runs `tropico count --explain` on T6 at that genus with
--beta-minus 6, within 120 seconds, in a temporary directory that holds
the polygon file and the listing on stderr, and must print COUNT.  The
first case that fails prints the last 20 lines of its listing and ends the
run with exit status 1.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

TIMEOUT_S = 120


def main(cases):
    with tempfile.TemporaryDirectory() as tmp:
        polygon, log = Path(tmp) / "t6.json", Path(tmp) / "t6.log"
        polygon.write_text(json.dumps({"vertices": [[0, 0], [6, 0], [0, 6]]}) + "\n")
        for case in cases:
            genus, want = case.split(":")
            argv = [sys.executable, "-m", "tropico", "count", "--explain", "--polygon", str(polygon),
                    "--genus", genus, "--beta-minus", "6"]
            with log.open("w") as err:
                try:
                    done = subprocess.run(argv, stdout=subprocess.PIPE, stderr=err, text=True,
                                          timeout=TIMEOUT_S)
                    failure = done.returncode and f"exited with {done.returncode}"
                except subprocess.TimeoutExpired:
                    failure = f"took more than {TIMEOUT_S} s"
            if failure:
                print("\n".join(log.read_text().splitlines()[-20:]))
                raise SystemExit(f"T6 g={genus}: {failure}")
            got = done.stdout.strip()
            print(f"T6 g={genus}: {got}")
            if got != want:
                raise SystemExit(f"T6 g={genus}: expected {want}")


if __name__ == "__main__":
    main(sys.argv[1:])
