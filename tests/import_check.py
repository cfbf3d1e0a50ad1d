"""The commands of tropico load only the modules they run, as the docstring
of tropico.cli promises:

- tropico count, and a count that exits with a domain error, load neither
  tropico.diagram nor a geometry module (tropical, realize, render), nor
  dataclasses, inspect or fractions;
- tropico polygon report loads no tropico module but cli, io and lattice;
- tropico tropicalize loads neither peel, diagram nor realize.

    PYTHONPATH=src python tests/import_check.py

The counts are of the cubic triangle T3 at genus 0: --beta-minus 3, which
prints 12 and exits 0, and --alpha-plus 1, which exits 1 with the domain
error SideBoundaryCondition in its JSON.  polygon report reads T3 and
tropicalize a tropical line.  Each command runs once under python -X
importtime, whose listing must name tropico modules and none of the banned
ones but fractions, and once in a fresh process that runs the CLI through
runpy and then reads sys.modules: importtime lists no module loaded through
importlib.import_module, the path of the package's lazy __getattr__, so
sys.modules decides.  The first failure ends the run with exit status 1.
"""

import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tropico"
COUNT_BANNED = ["tropico.diagram", "tropico.tropical", "tropico.realize", "tropico.render",
                "dataclasses", "inspect", "fractions"]


def cases(polygon, poly):
    """(arguments, exit status, pattern its stdout holds, banned modules)
    per command, on the T3 polygon file and the tropical line file."""
    count = ["count", "--polygon", polygon, "--genus", "0"]
    kept = {"__init__", "__main__", "cli", "io", "lattice"}
    others = [f"tropico.{p.stem}" for p in sorted(PACKAGE.glob("*.py")) if p.stem not in kept]
    return [
        (count + ["--beta-minus", "3"], 0, r"\A12\n\Z", COUNT_BANNED),
        (count + ["--alpha-plus", "1"], 1, r'"error": "SideBoundaryCondition"', COUNT_BANNED),
        (["polygon", "report", polygon], 0, r'"p_a": 1', others),
        (["tropicalize", "--poly", poly], 0, r'"rays"', ["tropico.peel", "tropico.diagram", "tropico.realize"]),
    ]


def run_in_process(polygon, poly, index):
    """Run case number index of `cases` through runpy, expect its exit
    status, and fail if it loaded a banned module.  Nothing but runpy and
    sys is imported before the command."""
    import runpy

    argv, rc, _, banned = cases(polygon, poly)[index]
    name = " ".join(["tropico", *argv])
    sys.argv = ["tropico", *argv]
    try:
        runpy.run_module("tropico", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        if (exc.code or 0) != rc:
            raise SystemExit(f"{name} exited with {exc.code}, not {rc}")
    else:
        raise SystemExit(f"{name} did not exit")
    print(f"\n{name} loaded", sorted(m for m in sys.modules if m.startswith("tropico")))
    loaded = [m for m in banned if m in sys.modules]
    if loaded:
        raise SystemExit(f"{name} loaded {loaded}")


def main():
    import json
    import re
    import subprocess
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        polygon, poly = str(Path(tmp) / "t3.json"), str(Path(tmp) / "line.json")
        Path(polygon).write_text(json.dumps({"vertices": [[0, 0], [3, 0], [0, 3]]}) + "\n")
        terms = [{"i": i, "a": "0"} for i in ([0, 0], [1, 0], [0, 1])]
        Path(poly).write_text(json.dumps({"terms": terms}) + "\n")
        for argv, rc, pattern, banned in cases(polygon, poly):
            name = " ".join(["tropico", *argv])
            done = subprocess.run(
                [sys.executable, "-X", "importtime", "-m", "tropico", *argv],
                capture_output=True, text=True,
            )
            if done.returncode != rc:
                raise SystemExit(f"{name} exited with {done.returncode}, not {rc}")
            if not re.search(pattern, done.stdout):
                raise SystemExit(f"{name} printed {done.stdout.strip()!r}, not {pattern!r}")
            listed = re.findall(r"\| +([\w.]+)$", done.stderr, re.MULTILINE)
            if not any(m.startswith("tropico") for m in listed):
                raise SystemExit(f"importtime listed no tropico module for {name}")
            print(f"{name} imported", [m for m in listed if m.startswith("tropico")])
            hits = [m for m in banned if m in listed and m != "fractions"]
            if hits:
                raise SystemExit(f"{name} imported {hits}")
        for index in range(len(cases(polygon, poly))):
            done = subprocess.run([sys.executable, __file__, polygon, poly, str(index)])
            if done.returncode:
                raise SystemExit(done.returncode)


if __name__ == "__main__":
    if len(sys.argv) > 1:
        run_in_process(sys.argv[1], sys.argv[2], int(sys.argv[3]))
    else:
        main()
