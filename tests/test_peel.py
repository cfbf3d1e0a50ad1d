"""The tables of N-sequences that every count in a process shares."""

from functools import cached_property

import ch_oracle
from tropico import peel
from tropico.lattice import (
    LatticePolygon, diamond, direction_data, octic_quadrilateral, trapezium, triangle,
)
from tropico.peel import DiagramSpec, count

SHARED = (peel._subs, peel._grown, peel._rows)


def _plane(d, g, alpha=(), beta=None):
    beta = (d,) if beta is None else beta
    spec = DiagramSpec(triangle(d), (0, 1), g, (), alpha, (), beta)
    return spec, ch_oracle.irreducible(d, g, alpha, beta)


def _pinned(polygon, g, want, beta_plus=None, beta_minus=None):
    """A spec with mobile tangencies only, by default one of full order
    on each edge, and its pinned count."""
    dd = direction_data(polygon, (0, 1))
    beta_plus = ((dd.d_plus,) if dd.d_plus else ()) if beta_plus is None else beta_plus
    beta_minus = ((dd.d_minus,) if dd.d_minus else ()) if beta_minus is None else beta_minus
    return DiagramSpec(polygon, (0, 1), g, (), (), beta_plus, beta_minus), want


# the specs of the count workloads, with their oracle or pinned counts,
# then T3-T6 at every genus
CASES = [
    _plane(3, 0), _plane(3, 0, beta=(1, 1)), _plane(3, 0, alpha=(0, 1), beta=(1,)),
    _plane(4, 0), _plane(4, 0, beta=(0, 2)), _plane(4, 0, alpha=(0, 0, 0, 1), beta=()),
    _plane(4, 0, alpha=(2,), beta=(0, 1)), _plane(5, 0), _plane(4, 1), _plane(5, 1),
    _pinned(diamond(), 0, 4), _pinned(octic_quadrilateral(), 0, 16),
    _pinned(octic_quadrilateral(), 1, 12),
    _pinned(trapezium(2, 3, 2), 0, 10750752, (2,), (2, 3)),
    _pinned(trapezium(1, 3, 2), 1, 13775), _pinned(trapezium(1, 3, 2), 2, 4235),
] + [_plane(d, g) for d in (3, 4, 5, 6) for g in range(triangle(d).interior_points() + 1)]


def _built():
    """The rows the shared tables hold and the entries each has built."""
    return peel._held, [table.cache_info().misses for table in SHARED]


def test_counts_agree_with_cold_and_warm_tables():
    peel._clear_tables()
    cold = [count(spec) for spec, _ in CASES]
    assert 0 < peel._held <= peel._SHARED_ROWS
    built = _built()
    warm = [count(spec) for spec, _ in reversed(CASES)][::-1]
    assert cold == warm == [want for _, want in CASES]
    assert _built() == built


def test_a_count_past_the_bound_clears_the_shared_tables(monkeypatch):
    monkeypatch.setattr(peel, "_SHARED_ROWS", 0)
    spec, want = CASES[0]
    assert count(spec) == want
    assert peel._held == 0
    assert [table.cache_info().currsize for table in SHARED] == [0, 0, 0]


def test_a_second_count_builds_no_table_row():
    peel._clear_tables()
    spec, want = CASES[13]  # the trapezium with b- = (2, 3)
    assert count(spec) == want
    built = _built()
    assert built[0] > 0
    assert count(spec) == want
    assert _built() == built


def test_repeated_counts_scan_the_polygon_rows_once(monkeypatch):
    scans = []
    scan = LatticePolygon._interior_points.func
    counted = cached_property(lambda poly: scans.append(poly) or scan(poly))
    counted.__set_name__(LatticePolygon, "_interior_points")
    monkeypatch.setattr(LatticePolygon, "_interior_points", counted)
    spec = DiagramSpec(LatticePolygon([(0, 0), (4, 0), (0, 4)]), (0, 1), 2, (), (), (), (4,))
    assert [count(spec) for _ in range(3)] == [ch_oracle.irreducible(4, 2, (), (4,))] * 3
    assert scans == [spec.polygon]
