"""Plane octics at genus 0..21 and nonics at genus 0..28 counted in one
process, upward and then downward, so that the later counts run on the
N-sequence tables the earlier ones built, each equal to the
Caporaso-Harris oracle of tests/ch_oracle.py.

    PYTHONPATH=src python tests/peel_sweep.py

The first count that differs ends the run with exit status 1.
"""

import ch_oracle
from tropico.lattice import triangle
from tropico.peel import DiagramSpec, count

cases = [(d, g) for d in (8, 9) for g in range(triangle(d).interior_points() + 1)]
want = {(d, g): ch_oracle.irreducible(d, g, (), (d,)) for d, g in cases}
for d, g in cases + cases[::-1]:
    got = count(DiagramSpec(triangle(d), (0, 1), g, (), (), (), (d,)))
    if got != want[d, g]:
        raise SystemExit(f"T{d} g={g}: count {got} != oracle {want[d, g]}")
print(f"T8 g=0..21 and T9 g=0..28, upward then downward: {2 * len(cases)} counts equal the oracle")
