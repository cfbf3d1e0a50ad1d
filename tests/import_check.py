"""tropico count, and a count that exits with a domain error, load neither
tropico.diagram nor a geometry module (tropical, realize, render), nor
dataclasses, inspect or fractions.

    PYTHONPATH=src python tests/import_check.py

Two cases on the cubic triangle T3 at genus 0: --beta-minus 3, which
prints 12 and exits 0, and --alpha-plus 1, which exits 1 with the domain
error SideBoundaryCondition in its JSON.  Each runs once under
python -X importtime, whose listing must name tropico modules and none of
the banned ones but fractions, and once in a fresh process that runs the
CLI through runpy and then reads sys.modules: importtime lists no module
loaded through importlib.import_module, the path of the package's lazy
__getattr__, so sys.modules decides.  The first failure ends the run with
exit status 1.
"""

import sys

BANNED = ["tropico.diagram", "tropico.tropical", "tropico.realize", "tropico.render",
          "dataclasses", "inspect", "fractions"]
CASES = [(0, ["--beta-minus", "3"]), (1, ["--alpha-plus", "1"])]


def run_in_process(polygon, rc, opts):
    """Run `tropico count` on polygon at genus 0 with opts, expect exit
    status rc, and fail if it loaded a banned module.  Nothing but runpy
    and sys is imported before the count."""
    import runpy

    name = " ".join(["tropico count", *opts])
    sys.argv = ["tropico", "count", "--polygon", polygon, "--genus", "0", *opts]
    try:
        runpy.run_module("tropico", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        if exc.code != rc:
            raise SystemExit(f"{name} exited with {exc.code}, not {rc}")
    else:
        raise SystemExit(f"{name} did not exit")
    print(f"\n{name} loaded", sorted(m for m in sys.modules if m.startswith("tropico")))
    loaded = [m for m in BANNED if m in sys.modules]
    if loaded:
        raise SystemExit(f"{name} loaded {loaded}")


def main():
    import json
    import re
    import subprocess
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        polygon = str(Path(tmp) / "t3.json")
        Path(polygon).write_text(json.dumps({"vertices": [[0, 0], [3, 0], [0, 3]]}) + "\n")
        log = []
        for rc, opts in CASES:
            name = " ".join(["tropico count", *opts])
            done = subprocess.run(
                [sys.executable, "-X", "importtime", "-m", "tropico", "count",
                 "--polygon", polygon, "--genus", "0", *opts],
                capture_output=True, text=True,
            )
            log += done.stderr.splitlines()
            if done.returncode != rc:
                raise SystemExit(f"{name} exited with {done.returncode}, not {rc}")
            if rc == 0 and done.stdout.strip() != "12":
                raise SystemExit(f"{name} printed {done.stdout.strip()!r}, not 12")
            if rc == 1 and '"error": "SideBoundaryCondition"' not in done.stdout:
                raise SystemExit(f"{name} printed {done.stdout.strip()!r}, not a SideBoundaryCondition")
        listed = [line for line in log if re.search(r"\| +tropico(\.[a-z_]+)?$", line)]
        if not listed:
            raise SystemExit("importtime listed no tropico module")
        print("\n".join(listed))
        for pattern, what in (
            (r"\| +tropico\.(tropical|realize|render)$", "a geometry module"),
            (r"\| +tropico\.diagram$", "tropico.diagram"),
            (r"\| +(dataclasses|inspect)$", "dataclasses or inspect"),
        ):
            hits = [line for line in log if re.search(pattern, line)]
            if hits:
                print("\n".join(hits))
                raise SystemExit(f"tropico count imported {what}")
        for rc, opts in CASES:
            done = subprocess.run([sys.executable, __file__, polygon, str(rc), *opts])
            if done.returncode:
                raise SystemExit(done.returncode)


if __name__ == "__main__":
    if len(sys.argv) > 1:
        run_in_process(sys.argv[1], int(sys.argv[2]), sys.argv[3:])
    else:
        main()
