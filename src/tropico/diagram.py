"""Floor diagrams: validation, exhaustive generation, canonical forms and
markings.

A floor diagram is a connected acyclic weighted oriented graph whose
vertices are floors (carrying an integer slope label theta) and 1-valent
vertices at infinity.  Orientation goes upward: vertices in inf_minus have
their unique edge outgoing, vertices in inf_plus ingoing.  The counting
contract: the number of genus-g curves with Newton polygon Delta equals
the number of marked diagrams, each weighted by I^beta * prod w(e)^2 over
finite edges.

The count itself, by floor peeling, lives in `peel`, with the spec, the
N-sequences and `DiagramError`, so that `tropico count` compiles none of
this module; this module takes from `peel` only what it uses.  The
listing that `tropico count --explain` prints is `explain`: the diagrams
of `enumerate_diagrams` with their marking classes and `multiplicity`,
checked to sum to `count`.

For each diagram `count_markings` counts the labellings L of floors and
edges that follow the diagram's order, respect the alpha label blocks and
give identical edges (same endpoints and weight) their labels in index
order, by a dynamic programme over the down-sets of the diagram's poset.
Automorphisms of (D, w, theta) act freely on markings, and |Aut| is
|Aut_floor|, the number of floor automorphisms, times the orderings of
each class of identical edges, which L already leaves out; so L /
|Aut_floor| is the number of marking classes, and a remainder raises
InvariantViolation.  `enumerate_markings` lists the same labellings by
depth-first search and keeps one representative per class.  Both take the
placement rule from `_label_moves`, one pass over the edges that gives
each floor and edge its bit, the mask of what must precede it and its part
of the class token.  Two labellings are one class exactly when they have
the same form, read off the placed moves with the floors renamed by their
rank in label order, so listing needs no automorphism.

Generation enumerates finite edges only from floor i to floors j > i:
every acyclic diagram has such a topological labelling of its floors.  The
thetas and tails fix the net finite inflow at each floor, which fixes the
weight crossing each prefix cut {0..k}; one depth-first search over
weighted edges keeps every cut at that weight.  One branch-and-bound
(`_least_forms`) per connected candidate then minimises two orders over
all n! relabellings of its floors: the least encoding is the canonical
key, which removes duplicates and orders the output, and the least in
search order is the first labelling, in which the class is returned, so
the output does not depend on which labellings the search visits.  It
fills the new floor positions in order and drops a partial relabelling as
soon as the known prefix of its sorted finite edges, with a bound on the
next edge, is above the best found, in place of listing the n!
relabellings.  No bound is strict, so it reaches every relabelling onto
the canonical key: these are one coset of the floor automorphisms, and
their number is |Aut_floor|.
"""

from __future__ import annotations

import itertools
from functools import cached_property

from . import lattice
from .lattice import InvariantViolation, Record, component_count
from .peel import DiagramError, DiagramSpec, count

# bound here only for perfbench, which calls diagram.nseq_Ipow and wraps
# diagram.direction_data
from .lattice import direction_data
from .peel import nseq_Ipow


class Disconnected(DiagramError):
    pass


# ---------------------------------------------------------------------------
# the diagram itself


class FloorDiagram(Record):
    """floors: (id, theta) pairs; inf_minus/inf_plus: vertex ids; edges: (src, dst, w)."""

    floors: tuple
    inf_minus: tuple
    inf_plus: tuple
    edges: tuple

    def __post_init__(self):
        ids = [f for f, _ in self.floors]
        allids = ids + list(self.inf_minus) + list(self.inf_plus)
        vertices = set(allids)
        if len(vertices) != len(allids):
            raise DiagramError("vertex ids must be distinct")
        infset = set(self.inf_minus) | set(self.inf_plus)
        seen = {v: 0 for v in infset}
        for s, t, w in self.edges:
            if w < 1:
                raise DiagramError("edge weights must be positive")
            if s in infset and t in infset:
                raise DiagramError("no edge may join two vertices at infinity")
            if s not in vertices or t not in vertices:
                raise DiagramError("edge endpoint is not a vertex")
            if s in infset:
                if s not in self.inf_minus:
                    raise DiagramError(f"vertex {s} at +infinity has an outgoing edge")
                seen[s] += 1
            if t in infset:
                if t not in self.inf_plus:
                    raise DiagramError(f"vertex {t} at -infinity has an incoming edge")
                seen[t] += 1
        if any(c != 1 for c in seen.values()):
            raise DiagramError("every vertex at infinity must be 1-valent")

    # -- basic structure ----------------------------------------------------

    @cached_property
    def canonical_form(self):
        """(`canonical_key`, |Aut_floor|) from one `_least_forms` search;
        computed once, since a diagram is immutable."""
        key, _, aut = _least_forms(_floor_data(self))
        return key, aut

    def valid_for(self, spec):
        """`validate` of the diagram against spec, remembered on the
        instance for the last spec asked about (by identity).  Each diagram
        that `enumerate_diagrams` returns remembers its own spec, against
        which the listing has validated it."""
        known = self.__dict__.get("valid_for_spec")
        if known is None or known[0] is not spec:
            known = self.__dict__["valid_for_spec"] = spec, validate(self, spec)
        return known[1]

    @property
    def floor_ids(self):
        return tuple(f for f, _ in self.floors)

    def vertex_count(self):
        return len(self.floors) + len(self.inf_minus) + len(self.inf_plus)

    def divergences(self):
        """Sum of incoming weights minus sum of outgoing weights at every
        vertex, by vertex id, in one pass over the edges."""
        div = dict.fromkeys(self.floor_ids + self.inf_minus + self.inf_plus, 0)
        for s, t, w in self.edges:
            div[s] -= w
            div[t] += w
        return div

    def finite_edges(self):
        fl = set(self.floor_ids)
        return [e for e in self.edges if e[0] in fl and e[1] in fl]

    def down_edges(self):
        inf = set(self.inf_minus)
        return [e for e in self.edges if e[0] in inf]

    def up_edges(self):
        inf = set(self.inf_plus)
        return [e for e in self.edges if e[1] in inf]

    def is_connected(self):
        verts = self.floor_ids + self.inf_minus + self.inf_plus
        return component_count(verts, [(s, t) for s, t, _ in self.edges]) == 1

    def is_acyclic(self):
        """Whether the finite edges have no oriented cycle: removing floors
        without incoming edges, one at a time, removes them all."""
        indeg = dict.fromkeys(self.floor_ids, 0)
        adj = {v: [] for v in indeg}
        for s, t, _ in self.finite_edges():
            indeg[t] += 1
            adj[s].append(t)
        ready = [v for v, d in indeg.items() if d == 0]
        removed = 0
        while ready:
            removed += 1
            for t in adj[ready.pop()]:
                indeg[t] -= 1
                if indeg[t] == 0:
                    ready.append(t)
        return removed == len(indeg)

    def genus(self):
        """First Betti number of the underlying graph; requires connectivity."""
        if not self.is_connected():
            raise Disconnected("genus of a disconnected diagram is undefined")
        return len(self.edges) - self.vertex_count() + 1


def diagram_genus(diagram):
    return diagram.genus()


# ---------------------------------------------------------------------------
# validation against a spec


def validate(diagram, spec):
    """Whether the diagram meets the defining conditions of the spec;
    `validate_verbose` also lists the violations."""
    ok, _ = validate_verbose(diagram, spec)
    return ok


def validate_verbose(diagram, spec):
    violations = []
    dd = spec.data
    try:
        genus = diagram.genus()
    except Disconnected:
        violations.append("disconnected")
    if not diagram.is_acyclic():
        violations.append("oriented cycle")
    if violations:
        return False, violations
    if genus != spec.genus:
        violations.append(f"genus {genus} != {spec.genus}")
    div = diagram.divergences()
    div_minus = sum(div[v] for v in diagram.inf_minus)
    div_plus = sum(div[v] for v in diagram.inf_plus)
    if div_minus != -dd.d_minus:
        violations.append(f"sum div over -inf vertices {div_minus} != {-dd.d_minus}")
    if div_plus != dd.d_plus:
        violations.append(f"sum div over +inf vertices {div_plus} != {dd.d_plus}")
    thetas = sorted(th for _, th in diagram.floors)
    if tuple(thetas) != dd.thetas_left():
        violations.append(f"theta list {thetas} != left directions {dd.thetas_left()}")
    thetas_r = sorted(th + div[f] for f, th in diagram.floors)
    if tuple(thetas_r) != dd.thetas_right():
        violations.append(
            f"theta+div list {thetas_r} != right directions {dd.thetas_right()}"
        )
    plane = dd.d_plus == 0 and set(dd.thetas_left()) <= {0} and set(dd.thetas_right()) <= {1}
    if plane:
        bad = [f for f, _ in diagram.floors if div[f] != 1]
        if bad:
            violations.append(f"plane case: floors {bad} have divergence != 1")
        total = sum(w for _, _, w in diagram.down_edges())
        if total != dd.d_minus:
            violations.append(f"plane case: total infinite weight {total} != {dd.d_minus}")
    return not violations, violations


def lemma_1_5_check(diagram):
    """Plane-case count identities: #floors = d and Card(D) = 2d+g-1+#Vert^-inf."""
    d = sum(w for _, _, w in diagram.down_edges())
    g = diagram.genus()
    card_d = len(diagram.floors) + len(diagram.edges)
    return len(diagram.floors) == d and card_d == 2 * d + g - 1 + len(diagram.inf_minus)


def weighted_count_check(diagram, spec):
    """Card_w(D) = Card(boundary lattice points) + g - 1, infinite edges weighted."""
    card_w = (
        len(diagram.floors)
        + len(diagram.finite_edges())
        + sum(w for _, _, w in diagram.down_edges())
        + sum(w for _, _, w in diagram.up_edges())
    )
    return card_w == spec.polygon.boundary_points() + spec.genus - 1


# ---------------------------------------------------------------------------
# canonical forms and automorphisms


def _floor_data(diagram):
    """The diagram by floor position 0..n-1: (lefts, rights, fins, downs,
    ups), the left and right thetas, the finite edges (s, t, w), and the
    down tails (t, w) and up tails (s, w) in edge order."""
    pos = {f: i for i, f in enumerate(diagram.floor_ids)}
    div = diagram.divergences()
    return (
        tuple(th for _, th in diagram.floors),
        tuple(th + div[f] for f, th in diagram.floors),
        [(pos[s], pos[t], w) for s, t, w in diagram.finite_edges()],
        [(pos[t], w) for _, t, w in diagram.down_edges()],
        [(pos[s], w) for s, _, w in diagram.up_edges()],
    )


def canonical_key(diagram):
    """Exact isomorphism key of (D, w, theta): the least encoding over all
    n! relabellings of the floors (`_least_forms`), so two diagrams have
    equal keys exactly when they are isomorphic.  It removes duplicates in
    `enumerate_diagrams` and fixes the order in which it returns them."""
    return diagram.canonical_form[0]


def _least_forms(data):
    """The least encoding and the least search order over all n!
    relabellings of the floors of `_floor_data` ``data``, and the number of
    relabellings onto the least encoding, from one branch-and-bound.

    The encoding of a relabelling is (left thetas by new position, finite
    edges (s, t, w) sorted, down tails (t, w) sorted, up tails (s, w)
    sorted); its search order is (left thetas, right thetas, finite pairs
    (s, t) sorted, down tails (w, t) sorted, up tails (w, s) sorted, finite
    weights in pair order).  Returns (key, first, aut): the least encoding,
    the least search order as those six parts, and |Aut_floor|, since the
    relabellings onto the key are one coset of the floor automorphisms.

    New positions 0, 1, ... are filled in order.  The thetas lead both
    orders, so a least relabelling puts at position k a floor of least left
    theta among those not yet placed, and a least in search order one of
    least (left, right).  With positions 0..k placed, the sorted finite
    edges start with a known prefix: the edge lists of the placed sources
    up to the first one, s, with an edge to an unplaced floor, whose list
    is known up to its edges to placed floors.  Every later entry is at
    least (s, k+1), or (k+1,) when no placed source has an unplaced target,
    so the prefix followed by that bound is a lower bound on every leaf of
    the subtree.  The prefix only grows along a branch.  Children are explored
    in order of their bounds, each while its bound is not above the best
    leaf of its order; tails and weights decide between leaves with the
    same edges.  No bound is strict, so every leaf onto the key is reached
    and counted.  The last two positions, and all of them for at most three
    floors, are tried without bounds: at two or six orders, bounding costs
    more than trying.
    """
    lefts, rights, fins, downs, ups = data
    n, m = len(lefts), len(fins)
    outs = [[] for _ in range(n)]  # (target, w) per source floor, by weight
    ins = [[] for _ in range(n)]  # the source of each such entry, per target
    for s, t, w in sorted(fins, key=lambda e: e[2]):
        outs[s].append((t, w))
        ins[t].append(s)
    # per floor, its entries in outs whose target is unplaced, kept by place
    # and unplace: a placed floor is closed (has no edge to an unplaced
    # floor) when its count is 0
    unplaced = [len(out) for out in outs]
    slots = sorted(zip(lefts, rights))  # (left, right) by position, least first
    pos = [-1] * n
    order = []  # the floor at each placed position
    # the best leaves: (edges, downs, ups) and (pairs, downs, ups, weights)
    best_key = best_first = None
    aut = 0  # the leaves onto best_key

    def leaf(key_alive, first_alive):
        nonlocal best_key, best_first, aut
        edges = tuple(sorted([(pos[s], pos[t], w) for s, t, w in fins]))
        if key_alive and (best_key is None or edges <= best_key[0]):
            key = (
                edges,
                tuple(sorted([(pos[t], w) for t, w in downs])),
                tuple(sorted([(pos[s], w) for s, w in ups])),
            )
            if best_key is None or key < best_key:
                best_key, aut = key, 1
            elif key == best_key:
                aut += 1
        if first_alive:
            pairs = tuple([(s, t) for s, t, _ in edges])
            if best_first is None or pairs <= best_first[0]:
                first = (
                    pairs,
                    tuple(sorted([(w, pos[t]) for t, w in downs])),
                    tuple(sorted([(w, pos[s]) for s, w in ups])),
                    tuple([w for _, _, w in edges]),
                )
                if best_first is None or first < best_first:
                    best_first = first

    def candidates(k, key_alive, first_alive):
        """(floor, still least in search order) for each floor position k may take."""
        out = []
        for f in range(n):
            if pos[f] < 0 and lefts[f] == slots[k][0]:
                f_first = first_alive and rights[f] == slots[k][1]
                if key_alive or f_first:
                    out.append((f, f_first))
        return out

    def place(f, k):
        pos[f] = k
        for a in ins[f]:
            unplaced[a] -= 1

    def unplace(f):
        pos[f] = -1
        for a in ins[f]:
            unplaced[a] += 1

    def direct(k, key_alive, first_alive):
        if k == n:
            leaf(key_alive, first_alive)
            return
        for f, f_first in candidates(k, key_alive, first_alive):
            place(f, k)
            direct(k + 1, key_alive, f_first)
            unplace(f)

    def search(k, prefix, pairs, src, key_alive, first_alive):
        # prefix: the known sorted edges; src: the first placed source whose
        # edges are not all in it (k when there is none)
        if n <= 3 or n - k <= 2:
            direct(k, key_alive, first_alive)
            return
        children = []
        for f, f_first in candidates(k, key_alive, first_alive):
            place(f, k)
            order.append(f)
            s = src
            if s < k:
                ext = [(s, k, w) for t, w in outs[order[s]] if t == f]
            else:
                ext = sorted([(k, pos[t], w) for t, w in outs[f] if pos[t] >= 0])
            while not unplaced[order[s]]:  # the floor at position s is closed
                s += 1
                if s > k:
                    break
                ext += sorted([(s, pos[t], w) for t, w in outs[order[s]] if pos[t] >= 0])
            order.pop()
            unplace(f)
            child = prefix + tuple(ext)
            child_pairs = pairs + tuple([(a, b) for a, b, _ in ext])
            if len(child) == m:
                bound, bound_pairs = child, child_pairs
            else:
                nxt = (s, k + 1) if s <= k else (k + 1,)
                bound, bound_pairs = child + (nxt,), child_pairs + (nxt,)
            children.append((bound, bound_pairs, f, f_first, child, child_pairs, s))
        children.sort()
        for bound, bound_pairs, f, f_first, child, child_pairs, s in children:
            key_ok = key_alive and (best_key is None or bound <= best_key[0])
            first_ok = f_first and (best_first is None or bound_pairs <= best_first[0])
            if key_ok or first_ok:
                place(f, k)
                order.append(f)
                search(k + 1, child, child_pairs, s, key_ok, first_ok)
                order.pop()
                unplace(f)

    search(0, (), (), 0, True, True)
    sorted_lefts = tuple(left for left, _ in slots)
    return (
        (sorted_lefts, *best_key),
        (sorted_lefts, tuple(right for _, right in slots), *best_first),
        aut,
    )


# ---------------------------------------------------------------------------
# exhaustive generation


def _lexicographic_permutations(values):
    """The distinct orderings of the multiset ``values``, in lexicographic
    order: next-permutation steps from the sorted ordering."""
    perm = sorted(values)
    while True:
        yield tuple(perm)
        i = len(perm) - 2
        while i >= 0 and perm[i] >= perm[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(perm) - 1
        while perm[j] <= perm[i]:
            j -= 1
        perm[i], perm[j] = perm[j], perm[i]
        perm[i + 1:] = reversed(perm[i + 1:])


def weight_multiset(alpha, beta):
    """Tail weights demanded by a type: alpha_k + beta_k copies of weight k."""
    n = max(len(alpha), len(beta))
    out = []
    for i in range(n):
        a = alpha[i] if i < len(alpha) else 0
        b = beta[i] if i < len(beta) else 0
        out.extend([i + 1] * (a + b))
    return tuple(out)


def _tail_distributions(weights, n):
    """Ways to attach a multiset of tail weights to n floors, up to reordering
    identical weights: per weight value, a multiset of target floors."""
    groups = {}
    for w in weights:
        groups[w] = groups.get(w, 0) + 1
    items = sorted(groups.items())
    pools = [
        list(itertools.combinations_with_replacement(range(n), k))
        for _, k in items
    ]
    for combo in itertools.product(*pools):
        dist = []
        for (w, _), targets in zip(items, combo):
            dist.extend((t, w) for t in targets)
        yield dist


def _boundary_choices(spec):
    """Every assignment of left and right thetas and of tails to the floors
    0..n-1 that leaves a balanced net finite inflow c at the floors (c[i] =
    finite in minus finite out): tuples (lefts, rights, downs, ups, c), the
    theta orderings in lexicographic order."""
    dd = spec.data
    n = dd.d_height
    downs = list(_tail_distributions(weight_multiset(spec.alpha_minus, spec.beta_minus), n))
    ups = list(_tail_distributions(weight_multiset(spec.alpha_plus, spec.beta_plus), n))
    for tl in _lexicographic_permutations(dd.thetas_left()):
        for tr in _lexicographic_permutations(dd.thetas_right()):
            for down in downs:
                for up in ups:
                    c = [tr[i] - tl[i] for i in range(n)]
                    for t, w in down:
                        c[t] -= w
                    for t, w in up:
                        c[t] += w
                    if sum(c) == 0:
                        yield tl, tr, down, up, c


def _weighted_edges(c, m):
    """The m finite edges (s, t, w), s < t, of every weighting with net
    inflow c[i] (finite in minus finite out) at each floor in which some
    edge crosses every cut, as tuples in pair order, the weights of
    parallel edges not increasing.

    Finite edges go up, so exactly F_k = -(c_0 + ... + c_k) of weight
    crosses the cut after floor k; the load of every cut equal to F_k is
    the same condition as net inflow c at every floor.  A connected diagram
    has an edge across each cut, so a c with some F_k < 1 yields nothing.
    The edges are chosen by depth-first search in pair order: a weight is
    tried only while every cut it crosses stays within F_k, a branch ends
    once the edges still to place cannot fit (every edge from floor k takes
    at least 1 of cut k), and the load of cut s must equal F_s once the
    last pair from floor s is left.
    """
    n = len(c)
    flows = list(itertools.accumulate(-x for x in c))[:-1]
    if any(f < 1 for f in flows):
        return
    pairs = list(itertools.combinations(range(n), 2))
    heaviest = max(flows, default=0)  # no edge weighs more
    load = [0] * len(flows)
    chosen = []

    def rec(idx, left, top):
        # top: the largest weight another edge on pairs[idx] may take
        if idx == len(pairs):
            if not left:
                yield tuple(chosen)
            return
        s, t = pairs[idx]
        if left > sum(flows[k] - load[k] for k in range(s, n - 1)):
            return
        cut = range(s, t)
        if left:
            room = min(top, *(flows[k] - load[k] for k in cut))
            for w in range(1, room + 1):
                chosen.append((s, t, w))
                for k in cut:
                    load[k] += w
                yield from rec(idx, left - 1, w)
                for k in cut:
                    load[k] -= w
                chosen.pop()
        if t < n - 1 or load[s] == flows[s]:
            yield from rec(idx + 1, left, heaviest)

    yield from rec(0, m, heaviest)


def enumerate_diagrams(spec):
    """All floor diagrams admitting markings of the spec's type, up to
    isomorphism of weighted oriented graphs preserving theta.

    The search fixes the theta assignment (left and right slope multisets)
    and the tail census demanded by (alpha, beta), which leaves a net finite
    inflow at each floor (`_boundary_choices`).  It then chooses the
    weighted finite edges i < j by one search that keeps the weight crossing
    every prefix cut exact (`_weighted_edges`), and keeps the connected
    ones.  Every acyclic diagram has such a topological labelling, so the
    search is complete.  One `_least_forms` search per candidate gives its
    `canonical_key`, which removes duplicates and orders the output, its
    first labelling, in which its class is returned, and |Aut_floor|, which
    fills the diagram's `canonical_form`; the validation of each returned
    diagram fills its `valid_for` answer for spec.  The first labelling is
    the one that a search over every labelling, iterating in this
    function's order, meets first: the one minimising (left thetas, right
    thetas, finite pairs, down-tail and up-tail targets per weight, finite
    weights).
    """
    spec.check()
    n = spec.data.d_height
    if n == 0:
        raise DiagramError("polygon has no floors")
    m = spec.genus + n - 1
    found = {}
    for tl, tr, down, up, c in _boundary_choices(spec):
        for fins in _weighted_edges(c, m):
            if component_count(range(n), [(s, t) for s, t, _ in fins]) != 1:
                continue
            key, first, aut = _least_forms((tl, tr, fins, down, up))
            found.setdefault(key, (first, aut))
    out = []
    for key in sorted(found):
        (lefts, _, pairs, down, up, weights), aut = found[key]
        fins = [(s, t, w) for (s, t), w in zip(pairs, weights)]
        diag = _build_diagram(lefts, fins, [(t, w) for w, t in down], [(s, w) for w, s in up])
        diag.__dict__["canonical_form"] = key, aut  # the cached property, filled
        ok, violations = validate_verbose(diag, spec)
        if not ok:
            raise InvariantViolation("generated diagram is invalid", violations)
        diag.__dict__["valid_for_spec"] = spec, True
        out.append(diag)
    return out


def _build_diagram(thetas, fins, down, up):
    n = len(thetas)
    floors = tuple((i, thetas[i]) for i in range(n))
    edges = []
    inf_minus, inf_plus = [], []
    nid = n
    for t, w in down:
        edges.append((nid, t, w))
        inf_minus.append(nid)
        nid += 1
    edges += fins
    for s, w in up:
        edges.append((s, nid, w))
        inf_plus.append(nid)
        nid += 1
    return FloorDiagram(floors, tuple(inf_minus), tuple(inf_plus), tuple(edges))


# ---------------------------------------------------------------------------
# markings


class Marking(Record):
    """Order-compatible bijection from the label interval to floors and edges.

    labels[i] is the element receiving label label_start + i; elements are
    ("f", floor_id) or ("e", edge_index).
    """

    diagram: FloorDiagram
    label_start: int
    labels: tuple

    def as_dict(self):
        return {self.label_start + i: el for i, el in enumerate(self.labels)}


def _label_moves(diagram, spec):
    """The placement rule of `enumerate_markings` and `count_markings`: per
    label of spec.label_range(), the moves (element, bit, need, part) that
    may place it, floors in floor order, then edges by index.

    Floor i has bit i and edge i bit n + i in a down-set mask; need is the
    mask of what must be placed before the element: a floor's in-edges, an
    edge's source floor and the edge before it with the same endpoints and
    weight, so that identical edges take their labels in index order.  part
    is the element's token: a floor's position, an edge's (source position
    or -1, target position or -2, weight).  Inside an alpha block only the
    tails of the block's weight may move, in index order.
    """
    pos = {f: i for i, (f, _) in enumerate(diagram.floors)}
    n = len(pos)
    floor_need = [0] * n
    edge_moves = []
    last = {}  # part -> bit of its latest edge
    tails = ({}, {})  # weight -> moves of the down tails, of the up tails
    for i, (s, t, w) in enumerate(diagram.edges):
        part = (pos.get(s, -1), pos.get(t, -2), w)
        bit = 1 << (n + i)
        need = last.get(part, 0)
        last[part] = bit
        if part[0] >= 0:
            need |= 1 << part[0]
        if part[1] >= 0:
            floor_need[part[1]] |= bit
        move = (("e", i), bit, need, part)
        edge_moves.append(move)
        if part[0] < 0:
            tails[0].setdefault(w, []).append(move)
        elif part[1] < 0:
            tails[1].setdefault(w, []).append(move)
    moves = [(("f", f), 1 << i, floor_need[i], i) for f, i in pos.items()] + edge_moves
    labels = spec.label_range()
    out = [moves] * len(labels)
    for start, alpha, by_weight in (
        (0, spec.alpha_minus, tails[0]),
        (spec.s + 1 - labels[0], spec.alpha_plus, tails[1]),
    ):
        weights = [w for w, times in enumerate(alpha, 1) for _ in range(times)]
        for k, w in enumerate(weights, start):
            out[k] = by_weight.get(w, [])
    return out


def enumerate_markings(diagram, spec):
    """Equivalence classes of markings of the given type, one representative each.

    A marking assigns the labels {-|a-|+1..0} to fixed bottom tails (grouped
    by weight), {s+1..s+|a+|} to fixed top tails, and {1..s} to everything
    else, compatibly with the diagram's partial order.  Classes are orbits
    under automorphisms of (D, w, theta).

    A depth-first search lists the markings in which identical edges take
    their labels in index order (`_label_moves`).  Two of them are one class
    exactly when they have the same form, which renames each floor by its
    rank in label order, with its theta, and writes each edge as (renamed
    source or -1, renamed target or -2, weight).  A class is represented by
    the first marking the search meets, and the classes are sorted by their
    least token, which writes each floor as its position and each edge as
    (source position or -1, target position or -2, weight).
    """
    if not diagram.valid_for(spec):
        return []
    # census must match the type or no marking exists
    down = sorted(w for _, _, w in diagram.down_edges())
    up = sorted(w for _, _, w in diagram.up_edges())
    if down != sorted(weight_multiset(spec.alpha_minus, spec.beta_minus)):
        return []
    if up != sorted(weight_multiset(spec.alpha_plus, spec.beta_plus)):
        return []

    moves = _label_moves(diagram, spec)
    theta = [th for _, th in diagram.floors]
    classes = {}  # form -> [least token, first marking]
    placed = []  # the moves taken, in label order

    def leaf():
        token = tuple((move[0][0], move[3]) for move in placed)
        rank = {}
        for kind, part in token:
            if kind == "f":
                rank[part] = len(rank)
        form = tuple(
            theta[part] if kind == "f" else (rank.get(part[0], -1), rank.get(part[1], -2), part[2])
            for kind, part in token
        )
        if form in classes:
            classes[form][0] = min(classes[form][0], token)
        else:
            classes[form] = [token, tuple(move[0] for move in placed)]

    def rec(k, mask):
        if k == len(moves):
            leaf()
            return
        for move in moves[k]:
            if not mask & move[1] and not move[2] & ~mask:
                placed.append(move)
                rec(k + 1, mask | move[1])
                placed.pop()

    rec(0, 0)
    start = spec.label_range()[0]
    return [Marking(diagram, start, seq) for _, seq in sorted(classes.values())]


def count_markings(diagram, spec):
    """len(enumerate_markings(diagram, spec)) for a diagram of
    `enumerate_diagrams(spec)`, without listing the markings.

    L, the number of markings that `enumerate_markings` searches (identical
    edges in index order), comes from a dynamic programme over the down-sets
    (bitmasks) of the diagram's poset, under the same placement rule
    (`_label_moves`); the size of a down-set is the position of the next
    label.  Automorphisms of (D, w, theta) act freely on markings, and the
    orderings of identical edges are already left out of L, so there are
    L / |Aut_floor| classes, |Aut_floor| from `FloorDiagram.canonical_form`.
    """
    ways = {0: 1}
    for moves in _label_moves(diagram, spec):
        nxt = {}
        for mask, n in ways.items():
            for _, b, need, _ in moves:
                if not mask & b and not need & ~mask:
                    nxt[mask | b] = nxt.get(mask | b, 0) + n
        ways = nxt
    labellings = sum(ways.values())
    aut = diagram.canonical_form[1]
    if labellings % aut:
        raise InvariantViolation(
            "marking count",
            [f"{labellings} labellings are not divisible by |Aut_floor| = {aut}"],
        )
    return labellings // aut


# ---------------------------------------------------------------------------
# the listing behind `tropico count --explain`


def multiplicity(diagram, spec):
    """I^beta times the product of squared finite edge weights; marking-free."""
    mu = spec.multiplicity_Ibeta()
    for _, _, w in diagram.finite_edges():
        mu *= w * w
    return mu


def explain(spec):
    """`count` with the diagrams behind it: (total, rows) with one row
    (diagram, classes, multiplicity) per diagram of `enumerate_diagrams`
    that has markings.  Raises InvariantViolation unless the rows sum to
    the peeled total."""
    total = count(spec)
    rows = []
    listed = 0
    for diag in enumerate_diagrams(spec):
        nclasses = count_markings(diag, spec)
        if not nclasses:
            continue
        mu = multiplicity(diag, spec)
        listed += mu * nclasses
        rows.append((diag, nclasses, mu))
    if listed != total:
        raise InvariantViolation(
            "count", [f"the listed diagrams sum to {listed}, floor peeling gives {total}"]
        )
    return total, rows


# Counts of worked examples, checked by `tropico check` and the acceptance
# suite: plane cubics of each boundary type, and two toric surfaces.
GOLDEN_CUBIC = (
    (DiagramSpec(lattice.triangle(3), (0, 1), 0, (), (), (), (3,)), 12),
    (DiagramSpec(lattice.triangle(3), (0, 1), 0, (), (), (), (1, 1)), 36),
    (DiagramSpec(lattice.triangle(3), (0, 1), 0, (), (0, 1), (), (1,)), 10),
    (DiagramSpec(lattice.triangle(3), (0, 1), 1, (), (), (), (3,)), 1),
)
GOLDEN_TORIC = (
    (DiagramSpec(lattice.diamond(), (0, 1), 0), 4),
    (DiagramSpec(lattice.octic_quadrilateral(), (0, 1), 1), 12),
    (DiagramSpec(lattice.octic_quadrilateral(), (0, 1), 0), 16),
)
