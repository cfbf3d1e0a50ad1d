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
integer key, and what depends only on its thetas or its type comes from
tables built once per call.

This module holds the whole of what `tropico count` runs, so that command
compiles neither validation, generation, canonical forms nor markings.  It
imports no tropico module but `lattice`.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import cached_property

from . import lattice
from .lattice import Record


class DiagramError(lattice.TropicoError):
    pass


class SideBoundaryCondition(DiagramError):
    """Boundary conditions requested off the top/bottom edges of the polygon."""


# ---------------------------------------------------------------------------
# N-sequences (finite sequences of tangency multiplicities)


def nseq(seq=()):
    """Normalize a finite multiplicity sequence: drop trailing zeros."""
    out = list(seq)
    while out and out[-1] == 0:
        out.pop()
    if any(a < 0 for a in out):
        raise ValueError("N-sequence entries must be nonnegative")
    return tuple(out)


def nseq_abs(a):
    """|a| = sum of the entries."""
    return sum(a)


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
    """Polygon, stretching direction, genus, and boundary type (a+, a-, b+, b-)."""

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
            + nseq_abs(self.beta_plus)
            + nseq_abs(self.beta_minus)
        )

    def label_range(self):
        """The marking label interval {-|a-|+1, ..., s+|a+|} as a list."""
        lo = -nseq_abs(self.alpha_minus) + 1
        hi = self.s + nseq_abs(self.alpha_plus)
        return list(range(lo, hi + 1))

    def multiplicity_Ibeta(self):
        return nseq_Ipow(self.beta_plus) * nseq_Ipow(self.beta_minus)


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
    components by balance; per (a-, a+, b+) the floor-tail rows; per
    (b-, out) the out-edges; per (type, tr - tl) the floor moves, each row
    joined with its out-edges.  The factors k, I^b+' and I^gamma
    C(b- + gamma, gamma) have columns of their own.  The floor loop looks
    each child up in the memo itself; the memo starts with the state of no
    floor, and moves that leave g < 1 - n are skipped.
    """
    dd = spec.data
    lay_l, lay_r = _radices(dd.thetas_left()), _radices(dd.thetas_right())
    floors = len(dd.thetas_left())
    nr = math.prod(c + 1 for _, _, c in lay_r)
    G = spec.genus + 2 * floors + 1
    S = math.prod(c + 1 for _, _, c in lay_l) * nr * G  # key: t S + (L nr + R) G + g + floors
    tables = [[]] + [{} for _ in range(11)]
    (types, tids, totals, connecteds, pair_memo, type_memo, subs_memo, grown_memo,
     rows_memo, moves_memo, balance_memo, splits_memo) = tables

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

    def subs(a):
        """(b, a - b, Ib, |b|, I^b, prod C(a_k, b_k), |b|! / prod b_k!) for
        every b <= a."""
        out = subs_memo.get(a)
        if out is None:
            out = []
            for b in itertools.product(*(range(x + 1) for x in a)):
                size = sum(b)
                out.append((
                    _trim(b), _nseq_sub(a, b), nseq_I(b), size, nseq_Ipow(b), _nseq_binom(a, b),
                    math.factorial(size) // math.prod(map(math.factorial, b)),
                ))
            subs_memo[a] = out
        return out

    def grown(bm, out):
        """(b- + gamma, |gamma|, I^gamma * C(b- + gamma, gamma)) for every
        gamma with I gamma = out: the out-edges of a peeled floor."""
        key = (bm, out)
        got = grown_memo.get(key)
        if got is None:
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
            grown_memo[key] = got
        return got

    def moves(t, d):
        """(key offset, genus change, coefficient, |b+'|) per peeled floor
        of tr - tl = d with tails a-' <= a-, a+' <= a+, b+' <= b+ and
        out-edges gamma; the coefficient is C(a-, a-') C(a+, a+') (|b+'|! /
        prod b+'_k!) I^b+' I^gamma C(b- + gamma, gamma)."""
        got = moves_memo.get((t, d))
        if got is None:
            am, bm, ap, bp = types[t]
            rows = rows_memo.get((am, ap, bp))
            if rows is None:  # (a-, a+, b+ left, inflow, C C |b+'|!/prod, I^b+', |b+'|)
                rows = rows_memo[am, ap, bp] = [
                    (am2, ap2, bp2, i_am - i_ap - i_bp, c_am * c_ap * orders, pow_bp, n_bp)
                    for _, am2, i_am, _, _, c_am, _ in subs(am)
                    for _, ap2, i_ap, _, _, c_ap, _ in subs(ap)
                    for _, bp2, i_bp, n_bp, pow_bp, _, orders in subs(bp)
                ]
            got = moves_memo[t, d] = []
            for am2, ap2, bp2, inflow, head, pow_bp, n_bp in rows:
                if inflow >= d:
                    for bm2, n_gamma, weight in grown(bm, inflow - d):
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
            s_ap, s_bm, s_bp = subs(ap), subs(bm), subs(bp)
            for amc, amr, i_amc, _, _, c_am, _ in subs(am):
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
    value = connected(t * S + (S // G - 1) * G + spec.genus + floors)
    # the nested functions refer to each other, so only the cycle collector
    # would free what they hold: empty the tables now
    for table in tables:
        table.clear()
    return value


# ---------------------------------------------------------------------------
# the count


def count(spec):
    """Sum of multiplicities over equivalence classes of marked diagrams,
    by floor peeling (`_peel_count`), which lists no diagram."""
    spec.check()
    if spec.data.d_height == 0:
        raise DiagramError("polygon has no floors")
    return _peel_count(spec)
