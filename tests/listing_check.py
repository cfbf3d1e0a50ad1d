"""Diagram listings of plane curves keep their bytes.

    PYTHONPATH=src python tests/listing_check.py DEGREE:GENUS:SHA256 [...]

Each case runs `tropico diagrams` on T_DEGREE at GENUS with --beta-minus
DEGREE, its polygon file in a temporary directory, and the sha256 of its
stdout must be SHA256.  The first case that fails, by its exit status or
its digest, ends the run with exit status 1.
"""

import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path


def main(cases):
    with tempfile.TemporaryDirectory() as tmp:
        for case in cases:
            degree, genus, want = case.split(":")
            d = int(degree)
            polygon = Path(tmp) / f"t{d}.json"
            polygon.write_text(json.dumps({"vertices": [[0, 0], [d, 0], [0, d]]}) + "\n")
            done = subprocess.run(
                [sys.executable, "-m", "tropico", "diagrams", "--polygon", str(polygon),
                 "--genus", genus, "--beta-minus", degree],
                capture_output=True,
            )
            if done.returncode:
                sys.stderr.write(done.stderr.decode())
                raise SystemExit(f"T{d} g={genus}: exited with {done.returncode}")
            got = hashlib.sha256(done.stdout).hexdigest()
            print(f"T{d} g={genus}: {got}")
            if got != want:
                raise SystemExit(f"T{d} g={genus}: expected {want}")


if __name__ == "__main__":
    main(sys.argv[1:])
