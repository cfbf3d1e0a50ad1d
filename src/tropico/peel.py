"""The count of marked floor diagrams by floor peeling: the enumerative
problem (`DiagramSpec`), its N-sequences and `count`.

The number of genus-g curves with Newton polygon Delta through the right
number of points equals the number of marked floor diagrams, each weighted
by I^beta * prod w(e)^2 over finite edges.  `count` lists no diagram.  It
recurses on theta states (L, R, g, a-, b-, a+, b+), the sorted left and
right thetas of the floors still to place, the Euler-characteristic genus
and the boundary type (`_peel_count`).  It counts every diagram of a
state, connected or not, by peeling the element of least mobile label: a
mobile down tail, which becomes fixed, or a floor whose only in-edges are
fixed down tails, whose finite out-edges become mobile down tails of a
state with one floor fewer.  The connected count subtracts the
configurations whose component through that label is proper.  This is the
Caporaso-Harris recursion read off marked floor diagrams (Gathmann-Markwig;
Fomin-Mikhalkin), with the thetas in place of the degree.  A state is one
integer key.  What depends on N-sequences alone (the sub-sequences of
one, the out-edges of a peeled floor, the floor-tail rows) comes from
tables built once per process and shared by every count, which a count
clears when it leaves them holding more than `_SHARED_ROWS` rows; what
depends on a state's thetas or its type comes from tables built once per
call.

This module holds the whole of what `tropico count` runs, so that command
compiles neither validation, generation, canonical forms nor markings.  It
imports no tropico module but `lattice`.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import cache, cached_property

from . import lattice
from .lattice import Record


class DiagramError(lattice.TropicoError):
    pass


class SideBoundaryCondition(DiagramError):
    """Boundary conditions requested off the top/bottom edges of the polygon."""


# ---------------------------------------------------------------------------
# N-sequences (finite sequences of tangency multiplicities)


def nseq(seq=()):
    """Normalize a finite multiplicity sequence: drop trailing zeros.  A
    negative entry raises DiagramError."""
    out = _trim(tuple(seq))
    if any(a < 0 for a in out):
        raise DiagramError("N-sequence entries must be nonnegative")
    return out


def nseq_I(a):
    """Ia = sum over k of k * a_k (entry a[i] has order k = i + 1)."""
    return sum(map(operator.mul, itertools.count(1), a))


def nseq_Ipow(a):
    """I^a = prod over k of k^(a_k)."""
    return math.prod(map(pow, itertools.count(1), a))


def _trim(a):
    """The tuple a without its trailing zeros."""
    n = len(a)
    while n and not a[n - 1]:
        n -= 1
    return a[:n]


def _radices(thetas):
    """(theta, radix, multiplicity) per distinct theta: sub-multiset
    number i holds i // radix % (multiplicity + 1) copies of theta."""
    out, radix = [], 1
    for v in sorted(set(thetas)):
        out.append((v, radix, thetas.count(v)))
        radix *= thetas.count(v) + 1
    return out


def _nseq_add(a, b):
    return _trim(tuple(itertools.starmap(operator.add, itertools.zip_longest(a, b, fillvalue=0))))


def _nseq_sub(a, b):
    """a - b, for b <= a."""
    return _trim(tuple(itertools.starmap(operator.sub, itertools.zip_longest(a, b, fillvalue=0))))


def _nseq_binom(a, b):
    """prod over k of C(a_k, b_k), for b <= a."""
    return math.prod(map(math.comb, a, b))


# ---------------------------------------------------------------------------
# the enumerative problem a diagram is measured against


class DiagramSpec(Record):
    """Polygon, stretching direction, genus, and boundary type (a+, a-, b+, b-).

    The spec owns the layout of a marking's labels: `s` point labels,
    `label_range()` and the weights of the alpha labels (`alpha_labels`),
    which the marking rule, the marking enumerator and the verifier read."""

    polygon: lattice.LatticePolygon
    direction: tuple = (0, 1)
    genus: int = 0
    alpha_plus: tuple = ()
    alpha_minus: tuple = ()
    beta_plus: tuple = ()
    beta_minus: tuple = ()

    def __post_init__(self):
        direction = tuple(self.direction)
        if len(direction) != 2 or any(type(x) is not int for x in direction):
            raise DiagramError(f"direction must be two ints, not {self.direction!r}")
        object.__setattr__(self, "direction", direction)
        if type(self.genus) is not int:
            raise DiagramError(f"genus must be an int, not {self.genus!r}")
        for name in ("alpha_plus", "alpha_minus", "beta_plus", "beta_minus"):
            value = tuple(getattr(self, name))
            if any(type(x) is not int for x in value):
                raise DiagramError(f"{name} entries must be ints, not {value!r}")
            object.__setattr__(self, name, nseq(value))

    @cached_property
    def data(self):
        return lattice.direction_data(self.polygon, self.direction)

    def check(self):
        dd = self.data
        if nseq_I(self.alpha_plus) + nseq_I(self.beta_plus) != dd.d_plus:
            raise SideBoundaryCondition(
                f"I a+ + I b+ = {nseq_I(self.alpha_plus) + nseq_I(self.beta_plus)}"
                f" != d_plus = {dd.d_plus}"
            )
        if nseq_I(self.alpha_minus) + nseq_I(self.beta_minus) != dd.d_minus:
            raise SideBoundaryCondition(
                f"I a- + I b- = {nseq_I(self.alpha_minus) + nseq_I(self.beta_minus)}"
                f" != d_minus = {dd.d_minus}"
            )
        if not 0 <= self.genus <= self.polygon.interior_points():
            raise DiagramError(f"genus {self.genus} out of range [0, p_a]")
        return self

    @property
    def s(self):
        """Number of movable base points: g - 1 + 2*d_height + |b+| + |b-|."""
        return (
            self.genus
            - 1
            + 2 * self.data.d_height
            + sum(self.beta_plus)
            + sum(self.beta_minus)
        )

    def label_range(self):
        """The marking label interval {-|a-|+1, ..., s+|a+|} as a list."""
        lo = -sum(self.alpha_minus) + 1
        hi = self.s + sum(self.alpha_plus)
        return list(range(lo, hi + 1))

    @cached_property
    def alpha_labels(self):
        """{label: weight} of the alpha labels of label_range(), each block
        by increasing weight: alpha- from -|a-| + 1 up to 0, alpha+ from
        s + 1.  Computed once; callers only read it."""
        minus = [k for k, n in enumerate(self.alpha_minus, 1) for _ in range(n)]
        plus = [k for k, n in enumerate(self.alpha_plus, 1) for _ in range(n)]
        return {**dict(enumerate(minus, 1 - len(minus))), **dict(enumerate(plus, self.s + 1))}

    def multiplicity_Ibeta(self):
        return nseq_Ipow(self.beta_plus) * nseq_Ipow(self.beta_minus)


# ---------------------------------------------------------------------------
# tables of N-sequences, shared by every count in the process

# These tables depend on N-sequences alone, so they are built once per
# process and shared by every later count, whatever its polygon or genus.
# This is not the functools.cache on _peel_count's inner functions that
# was tried and dropped: those caches were made anew on every call, so a
# small count paid for building them each time.  A count that leaves the
# tables holding more than this many rows clears them.  A row takes some
# 180 bytes, but the rows a large count builds also keep the memory that
# count freed from going back to the system: the 2,807 rows left by a
# count of a five-floor 12-gon at genus 5 held 8.7 MiB.  The counts of
# T_9 at every genus share 1,204 rows; T_16 g=0 builds 31,331.
_SHARED_ROWS = 2048
_held = 0  # the rows the shared tables hold


def _hold(rows):
    """``rows`` as a tuple, counted against _SHARED_ROWS."""
    global _held
    rows = tuple(rows)
    _held += len(rows)
    return rows


def _clear_tables():
    global _held
    for table in (_subs, _grown, _rows):
        table.cache_clear()
    _held = 0


@cache
def _subs(a):
    """(b, a - b, Ib, |b|, I^b, prod C(a_k, b_k), |b|! / prod b_k!) for
    every b <= a."""
    out = []
    for b in itertools.product(*(range(x + 1) for x in a)):
        size = sum(b)
        out.append((
            _trim(b), _nseq_sub(a, b), nseq_I(b), size, nseq_Ipow(b), _nseq_binom(a, b),
            math.factorial(size) // math.prod(map(math.factorial, b)),
        ))
    return _hold(out)


@cache
def _grown(bm, out):
    """(b- + gamma, |gamma|, I^gamma * C(b- + gamma, gamma)) for every
    gamma with I gamma = out: the out-edges of a peeled floor."""
    got = []

    def rec(k, left, acc):
        if not left:
            gamma = _trim(tuple(acc))
            bm2 = _nseq_add(bm, gamma)
            got.append((bm2, sum(gamma), nseq_Ipow(gamma) * _nseq_binom(bm2, gamma)))
        elif k <= left:
            for c in range(left // k + 1):
                rec(k + 1, left - c * k, acc + [c])

    rec(1, out, [])
    return _hold(got)


@cache
def _rows(am, ap, bp):
    """(a- - a-', a+ - a+', b+ - b+', inflow, C(a-, a-') C(a+, a+')
    |b+'|! / prod b+'_k!, I^b+', |b+'|) for every a-' <= a-, a+' <= a+
    and b+' <= b+, the tails a peeled floor takes, of inflow
    I a-' - I a+' - I b+'."""
    return _hold(
        (am2, ap2, bp2, i_am - i_ap - i_bp, c_am * c_ap * orders, pow_bp, n_bp)
        for _, am2, i_am, _, _, c_am, _ in _subs(am)
        for _, ap2, i_ap, _, _, c_ap, _ in _subs(ap)
        for _, bp2, i_bp, n_bp, pow_bp, _, orders in _subs(bp)
    )


# ---------------------------------------------------------------------------
# the count by floor peeling


def _peel_count(spec):
    """The number of marked floor diagrams of ``spec`` weighted by their
    multiplicity, which is `count`, by floor peeling on theta-multiset
    states; the spec must pass ``spec.check()``.

    A state is (L, R, g, a-, b-, a+, b+): the sorted left and right thetas
    of the floors, the Euler-characteristic genus and the boundary type.
    ``total`` counts every diagram of a state, connected or not.  Its
    element of least mobile label is a b- tail of weight k, which becomes
    fixed (factor k), or a floor (tl, tr) whose only in-edges are fixed down
    tails: removing the floor with its tails turns its finite out-edges
    gamma into mobile down tails of a state with one floor fewer.
    ``connected`` subtracts from ``total`` the configurations whose
    component through the least mobile label is proper.  A state with
    g < 1 - n, or above the genus its cuts allow, has no diagram.

    A state is one integer key: L and R by their numbers in mixed radix,
    the type by its number in order of appearance, and g + floors, which
    stays in [1, genus + 2 floors].  The memos and these tables live for one
    call: per (L, R) the (tl, tr) pairs by tr - tl, the cut flows and the
    genus ceiling per down weight; per type the b- tail moves and the
    components by balance; per (type, tr - tl) the floor moves, each row
    joined with its out-edges.  The floor-tail rows per (a-, a+, b+)
    (`_rows`), the out-edges per (b-, out) (`_grown`) and the sub-sequences
    (`_subs`) are keyed by N-sequences alone and live for the process, up
    to `_SHARED_ROWS` rows at the end of a call.  The factors k, I^b+' and
    I^gamma C(b- + gamma, gamma) have columns of their own.  The floor loop
    looks each child up in the memo itself; the memo starts with the state
    of no floor, and moves that leave g < 1 - n are skipped.
    """
    dd = spec.data
    lay_l, lay_r = _radices(dd.thetas_left()), _radices(dd.thetas_right())
    floors = len(dd.thetas_left())
    nr = math.prod(c + 1 for _, _, c in lay_r)
    G = spec.genus + 2 * floors + 1
    S = math.prod(c + 1 for _, _, c in lay_l) * nr * G  # key: t S + (L nr + R) G + g + floors
    tables = [[]] + [{} for _ in range(8)]
    (types, tids, totals, connecteds, pair_memo, type_memo, moves_memo, balance_memo,
     splits_memo) = tables

    def intern(*t):
        got = tids.get(t)
        if got is None:
            got = tids[t] = len(types)
            types.append(t)
        return got

    def counts(i, lay):
        return [(v, r, i // r % (c + 1)) for v, r, c in lay]

    def pairs_of(lr):
        """(n, [(tr - tl, [key offsets of the (tl, tr)])], cut flows, the
        genus ceiling by down weight)."""
        got = pair_memo.get(lr)
        if got is None:
            lc, rc = counts(lr // nr, lay_l), counts(lr % nr, lay_r)
            pairs = {}
            for tl, rl, kl in lc:
                for tr, rr, kr in rc:
                    if kl and kr:
                        pairs.setdefault(tr - tl, []).append((rl * nr + rr) * G)
            ls = [v for v, _, k in lc for _ in range(k)]
            rs = [v for v, _, k in rc for _ in range(k)]
            # the cut after k + 1 floors carries at most the down weight +
            # (the k + 1 largest lefts) - (the k + 1 smallest rights)
            flows = list(itertools.accumulate(a - b for a, b in zip(ls[:0:-1], rs)))
            got = pair_memo[lr] = (len(ls), list(pairs.items()), flows, {})
        return got

    def ceiling(lr, down):
        """The largest genus the cuts of (L, R) allow below down weight
        ``down``: each of the g + n - 1 finite edges crosses a cut."""
        n, _, flows, tops = pairs_of(lr)
        top = tops.get(down)
        if top is None:
            top = tops[down] = 1 - n + sum(max(0, down + f) for f in flows)
        return top

    def type_of(t):
        """(I(a-) + I(b-), |b-| + |b+|, |b+|, [(k, key offset)] per b- tail)."""
        got = type_memo.get(t)
        if got is None:
            am, bm, ap, bp = types[t]
            tails = []
            for i, b in enumerate(bm):
                if b:
                    e = (0,) * i + (1,)
                    tails.append((i + 1, (intern(_nseq_add(am, e), _nseq_sub(bm, e), ap, bp) - t) * S))
            got = type_memo[t] = (nseq_I(am) + nseq_I(bm), sum(bm) + sum(bp), sum(bp), tails)
        return got

    def moves(t, d):
        """(key offset, genus change, coefficient, |b+'|) per peeled floor
        of tr - tl = d with tails a-' <= a-, a+' <= a+, b+' <= b+ and
        out-edges gamma; the coefficient is C(a-, a-') C(a+, a+') (|b+'|! /
        prod b+'_k!) I^b+' I^gamma C(b- + gamma, gamma)."""
        got = moves_memo.get((t, d))
        if got is None:
            am, bm, ap, bp = types[t]
            got = moves_memo[t, d] = []
            for am2, ap2, bp2, inflow, head, pow_bp, n_bp in _rows(am, ap, bp):
                if inflow >= d:
                    for bm2, n_gamma, weight in _grown(bm, inflow - d):
                        child = intern(am2, bm2, ap2, bp2)
                        got.append(((child - t) * S + 1 - n_gamma, 1 - n_gamma,
                                    head * pow_bp * weight, n_bp))
        return got

    def balance(t):
        """(part, rest, I(a-_C + b-_C), C(a-, a-_C) C(a+, a+_C), |b-_C| +
        |b+_C|) per component type, by its balance I(a-_C + b-_C) -
        I(a+_C + b+_C), which equals its rights' sum minus its lefts'."""
        got = balance_memo.get(t)
        if got is None:
            am, bm, ap, bp = types[t]
            got = balance_memo[t] = {}
            s_ap, s_bm, s_bp = _subs(ap), _subs(bm), _subs(bp)
            for amc, amr, i_amc, _, _, c_am, _ in _subs(am):
                for apc, apr, i_apc, _, _, c_ap, _ in s_ap:
                    for bmc, bmr, i_bmc, n_bmc, _, _, _ in s_bm:
                        for bpc, bpr, i_bpc, n_bpc, _, _, _ in s_bp:
                            got.setdefault(i_amc + i_bmc - i_apc - i_bpc, []).append((
                                intern(amc, bmc, apc, bpc), intern(amr, bmr, apr, bpr),
                                i_amc + i_bmc, c_am * c_ap, n_bmc + n_bpc,
                            ))
        return got

    def splits(i, lay):
        """Per size, (part, rest, sum(part)) for every sub-multiset of i."""
        got = splits_memo.get((i, id(lay)))
        if got is None:
            ks = counts(i, lay)
            got = splits_memo[i, id(lay)] = [[] for _ in range(sum(k for *_, k in ks) + 1)]
            for take in itertools.product(*(range(k + 1) for *_, k in ks)):
                part = sum(r * x for (_, r, _), x in zip(ks, take))
                got[sum(take)].append((part, i - part, sum(v * x for (v, *_), x in zip(ks, take))))
        return got

    get = totals.get

    def total(key):
        """The weighted diagrams of a state with g >= 1 - n, connected or
        not; a floor move's term takes C(s - 1, |b+'|), s =
        g - 1 + 2n + |b-| + |b+| being the number of mobile labels."""
        t, lr = divmod(key, S)
        lr, g = divmod(lr, G)
        g -= floors
        n, pairs = pairs_of(lr)[:2]
        down, mobile, n_bp, tails = type_of(t)
        value = 0
        if g <= ceiling(lr, down):
            for k, off in tails:
                child = get(key + off)
                value += k * (total(key + off) if child is None else child)
            binoms = [math.comb(g - 2 + 2 * n + mobile, j) for j in range(n_bp + 1)] if n else ()
            low = 2 - n - g  # a smaller genus change leaves g < 1 - (n - 1)
            for d, offs in pairs:
                rows = moves(t, d)
                for off in offs:
                    base = key - off
                    for step, dg, c, j in rows:
                        if dg >= low:
                            child = get(base + step)
                            if child is None:
                                child = total(base + step)
                            if child:
                                value += c * binoms[j] * child
        totals[key] = value
        return value

    def connected(key):
        """``total`` minus, over the proper components C through the least
        mobile label, N(C) C(a-, a-_C) C(a+, a+_C) C(s - 1, s_C - 1)
        total(rest, g - g_C + 1)."""
        value = connecteds.get(key)
        if value is not None:
            return value
        value = get(key)
        if value is None:
            value = total(key)
        if value:
            t, lr = divmod(key, S)
            lr, g = divmod(lr, G)
            g -= floors
            n = pairs_of(lr)[0]
            s = g - 1 + 2 * n + type_of(t)[1]
            by_balance = balance(t)
            left_splits, right_splits = splits(lr // nr, lay_l), splits(lr % nr, lay_r)
            for size in range(1, n):
                for lc, lrest, sum_lc in left_splits[size]:
                    for rc, rrest, sum_rc in right_splits[size]:
                        piece0 = (lc * nr + rc) * G + floors
                        rest0 = (lrest * nr + rrest) * G + g + 1 + floors
                        for part, rest_t, down, coef, mobile in by_balance.get(sum_rc - sum_lc, ()):
                            # the genus of the rest is at least 1 - (n - size)
                            top = min(ceiling(lc * nr + rc, down), g + n - size)
                            for gc in range(top + 1):
                                rest = get(rest_t * S + rest0 - gc)
                                if rest is None:
                                    rest = total(rest_t * S + rest0 - gc)
                                piece = rest and connected(part * S + piece0 + gc)
                                if piece:
                                    s_c = gc - 1 + 2 * size + mobile
                                    value -= piece * coef * math.comb(s - 1, s_c - 1) * rest
        connecteds[key] = value
        return value

    intern((), (), (), ())
    totals[floors + 1] = 1  # no floor, no tail (type 0) and genus 1
    t = intern(spec.alpha_minus, spec.beta_minus, spec.alpha_plus, spec.beta_plus)
    try:
        return connected(t * S + (S // G - 1) * G + spec.genus + floors)
    finally:
        # the nested functions refer to each other, so only the cycle
        # collector would free what they hold: empty the tables now
        for table in tables:
            table.clear()
        if _held > _SHARED_ROWS:
            _clear_tables()


# ---------------------------------------------------------------------------
# the count


def count(spec):
    """Sum of multiplicities over equivalence classes of marked diagrams,
    by floor peeling (`_peel_count`), which lists no diagram.  A checked
    spec has at least one floor: its polygon is transverse to the
    direction, so some edge is not orthogonal to it and d_height >= 1."""
    spec.check()
    return _peel_count(spec)
