"""The floor-peeling count as it stood before its states became integer
keys with per-call tables: `peel_count_reference` is that `_peel_count`,
kept verbatim, with the N-sequence helpers it called.  Tests compare
`tropico.peel.count` with it where neither `ch_oracle` nor the
enumerator reaches."""

import itertools
import math

from tropico.peel import nseq, nseq_I, nseq_Ipow


def _nseq_add(a, b):
    return nseq(x + y for x, y in itertools.zip_longest(a, b, fillvalue=0))


def _nseq_sub(a, b):
    """a - b, for b <= a."""
    return nseq(x - y for x, y in itertools.zip_longest(a, b, fillvalue=0))


def _nseq_binom(a, b):
    """prod over k of C(a_k, b_k), for b <= a."""
    out = 1
    for x, y in zip(a, b):
        out *= math.comb(x, y)
    return out


def peel_count_reference(spec):
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
    g < 1 - n, or above the genus its cuts allow (``ceiling``), has no
    diagram.  The memos live for one call.
    """
    totals, connecteds, subs_memo, grown_memo, splits_memo = {}, {}, {}, {}, {}

    def subs(a):
        """(b, a - b, Ib, |b|, I^b, prod C(a_k, b_k), |b|! / prod b_k!) for
        every b <= a."""
        out = subs_memo.get(a)
        if out is None:
            out = []
            for b in itertools.product(*(range(x + 1) for x in a)):
                size = sum(b)
                out.append((
                    nseq(b), _nseq_sub(a, b), nseq_I(b), size, nseq_Ipow(b), _nseq_binom(a, b),
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
                    gamma = nseq(acc)
                    bm2 = _nseq_add(bm, gamma)
                    got.append((bm2, sum(gamma), nseq_Ipow(gamma) * _nseq_binom(bm2, gamma)))
                elif k <= left:
                    for c in range(left // k + 1):
                        rec(k + 1, left - c * k, acc + [c])

            rec(1, out, [])
            grown_memo[key] = got
        return got

    def splits(thetas):
        """Per size, (part, rest, sum(part)) for every sub-multiset."""
        out = splits_memo.get(thetas)
        if out is None:
            values = sorted(set(thetas))
            out = [[] for _ in range(len(thetas) + 1)]
            for take in itertools.product(*(range(thetas.count(v) + 1) for v in values)):
                part = tuple(v for v, c in zip(values, take) for _ in range(c))
                rest = tuple(
                    v for v, c in zip(values, take) for _ in range(thetas.count(v) - c)
                )
                out[len(part)].append((part, rest, sum(part)))
            splits_memo[thetas] = out
        return out

    def ceiling(lefts, rights, down):
        """The largest genus the cuts allow: each of the g + n - 1 finite
        edges crosses a cut, and the cut after k + 1 floors carries at most
        down + (the k + 1 largest lefts) - (the k + 1 smallest rights)."""
        n = len(lefts)
        top, flow = 1 - n, down
        for k in range(n - 1):
            flow += lefts[n - 1 - k] - rights[k]
            top += max(0, flow)
        return top

    def total(lefts, rights, g, am, bm, ap, bp):
        """The weighted diagrams of a state, connected or not.  A peeled
        floor takes fixed down tails a-' <= a-, fixed up tails a+' <= a+
        and mobile up tails b+' <= b+; its term has the coefficient
        C(a-, a-') C(a+, a+') C(s - 1, |b+'|) (|b+'|! / prod b+'_k!) I^b+'
        I^gamma C(b- + gamma, gamma), s = g - 1 + 2n + |b-| + |b+| being
        the number of mobile labels."""
        n = len(lefts)
        if not n:
            return int(g == 1 and not (am or bm or ap or bp))
        if g < 1 - n:
            return 0
        key = (lefts, rights, g, am, bm, ap, bp)
        value = totals.get(key)
        if value is not None:
            return value
        value = 0
        if g <= ceiling(lefts, rights, nseq_I(am) + nseq_I(bm)):
            for i, b in enumerate(bm):
                if b:
                    unit = (0,) * i + (1,)
                    am2, bm2 = _nseq_add(am, unit), _nseq_sub(bm, unit)
                    value += (i + 1) * total(lefts, rights, g, am2, bm2, ap, bp)
            s = g - 1 + 2 * n + sum(bm) + sum(bp)
            # per choice of the floor's tails: the residual a-, a+, b+, the
            # floor's tail inflow and the coefficient of the tails
            peels = [
                (am2, ap2, bp2, i_am - i_ap - i_bp,
                 c_am * c_ap * math.comb(s - 1, n_bp) * pow_bp * orders)
                for _, am2, i_am, _, _, c_am, _ in subs(am)
                for _, ap2, i_ap, _, _, c_ap, _ in subs(ap)
                for _, bp2, i_bp, n_bp, pow_bp, _, orders in subs(bp)
            ]
            for tl in set(lefts):
                i = lefts.index(tl)
                lefts2 = lefts[:i] + lefts[i + 1:]
                for tr in set(rights):
                    i = rights.index(tr)
                    rights2 = rights[:i] + rights[i + 1:]
                    for am2, ap2, bp2, inflow, head in peels:
                        out = inflow - (tr - tl)
                        if out < 0:
                            continue
                        for bm2, n_gamma, weight in grown(bm, out):
                            rest = total(lefts2, rights2, g - n_gamma + 1, am2, bm2, ap2, bp2)
                            if rest:
                                value += head * weight * rest
        totals[key] = value
        return value

    def connected(lefts, rights, g, am, bm, ap, bp):
        """The weighted connected diagrams of a state: ``total`` minus, over
        the proper components C through the least mobile label, N(C)
        C(a-, a-_C) C(a+, a+_C) C(s - 1, s_C - 1) total(rest, g - g_C + 1)."""
        if g < 0:
            return 0
        key = (lefts, rights, g, am, bm, ap, bp)
        value = connecteds.get(key)
        if value is not None:
            return value
        value = total(*key)
        if not value:
            connecteds[key] = value
            return value
        n = len(lefts)
        s = g - 1 + 2 * n + sum(bm) + sum(bp)
        # the component's boundary type by its balance I(a- + b-) - I(a+ + b+),
        # which must equal the sum of its rights minus the sum of its lefts
        by_balance = {}
        for amc, amr, i_amc, _, _, c_am, _ in subs(am):
            for apc, apr, i_apc, _, _, c_ap, _ in subs(ap):
                for bmc, bmr, i_bmc, n_bmc, _, _, _ in subs(bm):
                    for bpc, bpr, i_bpc, n_bpc, _, _, _ in subs(bp):
                        by_balance.setdefault(i_amc + i_bmc - i_apc - i_bpc, []).append((
                            (amc, bmc, apc, bpc), (amr, bmr, apr, bpr),
                            i_amc + i_bmc, c_am * c_ap, n_bmc + n_bpc,
                        ))
        left_splits, right_splits = splits(lefts), splits(rights)
        for size in range(1, n):
            for lc, lr, sum_lc in left_splits[size]:
                for rc, rr, sum_rc in right_splits[size]:
                    for part, rest_type, down, coefficient, mobile in by_balance.get(
                        sum_rc - sum_lc, ()
                    ):
                        # the genus of the rest is at least 1 - (n - size)
                        top = min(ceiling(lc, rc, down), g + n - size)
                        for gc in range(top + 1):
                            rest = total(lr, rr, g - gc + 1, *rest_type)
                            if not rest:
                                continue
                            piece = connected(lc, rc, gc, *part)
                            if piece:
                                s_c = gc - 1 + 2 * size + mobile
                                value -= piece * coefficient * math.comb(s - 1, s_c - 1) * rest
        connecteds[key] = value
        return value

    dd = spec.data
    return connected(
        dd.thetas_left(), dd.thetas_right(), spec.genus,
        spec.alpha_minus, spec.beta_minus, spec.alpha_plus, spec.beta_plus,
    )


if __name__ == "__main__":
    # the specs of the comparison that tier 1 leaves out for time
    from test_cross_validation import SLOW_REFERENCE_CASES, mismatches_with_the_peeling_reference

    bad = mismatches_with_the_peeling_reference(SLOW_REFERENCE_CASES)
    print(f"{len(SLOW_REFERENCE_CASES) - len(bad)} of {len(SLOW_REFERENCE_CASES)} specs match")
    for case in bad:
        print("mismatch:", *case)
    raise SystemExit(1 if bad else 0)
