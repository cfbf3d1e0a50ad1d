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

A marking labels the floors and edges by the spec's label range, in the
diagram's order, each alpha label on a tail of its block's weight
(`marking_violations`, its one rule).  `count_markings` counts the
markings L that give identical edges (same endpoints and weight) their
labels in index order, by a dynamic programme over the down-sets.
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
fills the new floor positions in order and, at every position, drops a
partial relabelling from an order as soon as the known prefix of its
sorted finite edges, with a bound on the next edge, is above that order's
best (in search order, the pairs of that bound), in place of listing the
n! relabellings.  No bound is strict, so it reaches every relabelling onto
the canonical key: these are one coset of the floor automorphisms, and
their number is |Aut_floor|.
"""

from __future__ import annotations

import itertools
import math
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
    def floor_data(self):
        """`_floor_data` of the diagram; computed once, since a diagram is
        immutable."""
        return _floor_data(self.floors, self.edges)

    @cached_property
    def canonical_form(self):
        """(`canonical_key`, |Aut_floor|) from one `_least_forms` search;
        computed once, since a diagram is immutable."""
        key, _, aut = _least_forms(self.floor_data)
        return key, aut

    @cached_property
    def elements(self):
        """(floors, edges, every element) of the marking rule, built once:
        ("f", id) per floor in floor order, (("e", i), ("f", source),
        ("f", target)) per edge by index, and the set of the floor and edge
        elements."""
        floors = tuple(("f", f) for f, _ in self.floors)
        edges = tuple((("e", i), ("f", a), ("f", b)) for i, (a, b, _) in enumerate(self.edges))
        return floors, edges, frozenset((*floors, *(el for el, _, _ in edges)))

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

    def is_connected(self):
        """`_floors_connected`: every vertex at infinity is a leaf on a floor."""
        return _floors_connected(len(self.floors), self.floor_data[2])

    def is_acyclic(self):
        """Whether the finite edges have no oriented cycle: removing floors
        without incoming edges, one at a time, removes them all."""
        n = len(self.floors)
        indeg = [0] * n
        adj = [[] for _ in range(n)]
        for s, t, _ in self.floor_data[2]:
            indeg[t] += 1
            adj[s].append(t)
        ready = [v for v in range(n) if indeg[v] == 0]
        removed = 0
        while ready:
            removed += 1
            for t in adj[ready.pop()]:
                indeg[t] -= 1
                if indeg[t] == 0:
                    ready.append(t)
        return removed == n

    def genus(self):
        """First Betti number, |finite edges| - n + 1, since each leaf at
        infinity adds an edge and a vertex; requires connectivity."""
        if not self.is_connected():
            raise Disconnected("genus of a disconnected diagram is undefined")
        return len(self.floor_data[2]) - len(self.floors) + 1


def _floors_connected(n, fins):
    """Whether the floors 0..n-1 joined by the finite edges (s, t, w) form
    one component: the connectivity of a diagram, or of a candidate of
    `enumerate_diagrams`."""
    return component_count(range(n), [(s, t) for s, t, _ in fins]) == 1


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
    """(ok, violations), the one rule for a diagram of the spec: connected,
    acyclic, of its genus, with the polygon's directions as thetas and
    theta + divergence, its summed weight at each end and tails of the
    spec's type (`tail_type_violations`).  `realize`, `enumerate_markings`
    and `count_markings` refuse every other diagram (`FloorDiagram.valid_for`)."""
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
    # a vertex at -inf has one edge, out of it, and one at +inf one, into it
    lefts, rights, _, downs, ups = diagram.floor_data
    div_minus = -sum(w for _, w in downs)
    div_plus = sum(w for _, w in ups)
    if div_minus != -dd.d_minus:
        violations.append(f"sum div over -inf vertices {div_minus} != {-dd.d_minus}")
    if div_plus != dd.d_plus:
        violations.append(f"sum div over +inf vertices {div_plus} != {dd.d_plus}")
    violations += tail_type_violations([w for _, w in downs], [w for _, w in ups], spec)
    thetas = sorted(lefts)
    if tuple(thetas) != dd.thetas_left():
        violations.append(f"theta list {thetas} != left directions {dd.thetas_left()}")
    thetas_r = sorted(rights)
    if tuple(thetas_r) != dd.thetas_right():
        violations.append(
            f"theta+div list {thetas_r} != right directions {dd.thetas_right()}"
        )
    return not violations, violations


def tail_type_violations(downs, ups, spec):
    """A violation for each side whose tail weights, downs at -inf and ups
    at +inf, are not that side's weight_multiset(alpha, beta) as multisets:
    of a diagram's tails in `validate_verbose`, of a curve's rays along -d
    and +d in `realize.verify_realization`."""
    violations = []
    for side, weights, alpha, beta in (
        ("bottom", downs, spec.alpha_minus, spec.beta_minus),
        ("top", ups, spec.alpha_plus, spec.beta_plus),
    ):
        got, want = sorted(weights), list(weight_multiset(alpha, beta))
        if got != want:
            violations.append(f"{side} tail weights {got} != type {want}")
    return violations


def lemma_1_5_check(diagram):
    """Plane-case count identities: #floors = d and Card(D) = 2d+g-1+#Vert^-inf."""
    d = sum(w for _, w in diagram.floor_data[3])
    g = diagram.genus()
    card_d = len(diagram.floors) + len(diagram.edges)
    return len(diagram.floors) == d and card_d == 2 * d + g - 1 + len(diagram.inf_minus)


def weighted_count_check(diagram, spec):
    """Card_w(D) = Card(boundary lattice points) + g - 1, infinite edges weighted."""
    _, _, fins, downs, ups = diagram.floor_data
    card_w = len(diagram.floors) + len(fins) + sum(w for _, w in downs) + sum(w for _, w in ups)
    return card_w == spec.polygon.boundary_points() + spec.genus - 1


# ---------------------------------------------------------------------------
# canonical forms and automorphisms


def _floor_data(floors, edges):
    """The diagram of these floors and edges by floor position 0..n-1:
    (lefts, rights, fins, downs, ups), the left and right thetas, the finite
    edges (s, t, w), and the down tails (t, w) and up tails (s, w) in edge
    order, from one pass over the edges, in which every vertex at infinity
    has position n."""
    pos = {f: i for i, (f, _) in enumerate(floors)}
    lefts = tuple(th for _, th in floors)
    n = len(lefts)
    div = [0] * (n + 1)
    fins, downs, ups = [], [], []
    for s, t, w in edges:
        i, j = pos.get(s, n), pos.get(t, n)
        div[i] -= w
        div[j] += w
        if i == n:
            downs.append((j, w))
        elif j == n:
            ups.append((i, w))
        else:
            fins.append((i, j, w))
    rights = tuple(th + dv for th, dv in zip(lefts, div))
    return lefts, rights, tuple(fins), tuple(downs), tuple(ups)


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
    the subtree, and its pairs one on the leaf's pairs.  Children are
    explored in order of their bounds, each while its bound is not above
    the best leaf of its order; at k = n the prefix is the leaf's sorted
    edges, and tails and weights decide between leaves with the same
    edges.  No bound is strict, so every leaf onto the key is reached and
    counted.
    """
    lefts, rights, fins, downs, ups = data
    n, m = len(lefts), len(fins)
    outs = [[] for _ in range(n)]  # (target, w) per source floor, by weight
    for s, t, w in sorted(fins, key=lambda e: e[2]):
        outs[s].append((t, w))
    slots = sorted(zip(lefts, rights))  # (left, right) by position, least first
    pos = [-1] * n  # the new position of each floor, -1 while unplaced
    order = [-1] * n  # the floor at each placed position
    # the best leaves: (edges, downs, ups) and (pairs, downs, ups, weights)
    best_key = best_first = None
    aut = 0  # the leaves onto best_key

    def search(k, prefix, src, key_alive, first_alive):
        # prefix: the known sorted edges; src: the first placed source whose
        # edges are not all in it (k when there is none)
        nonlocal best_key, best_first, aut
        if k == n:
            if key_alive:
                key = (
                    prefix,
                    tuple(sorted([(pos[t], w) for t, w in downs])),
                    tuple(sorted([(pos[s], w) for s, w in ups])),
                )
                if best_key is None or key < best_key:
                    best_key, aut = key, 1
                elif key == best_key:
                    aut += 1
            if first_alive:
                first = (
                    tuple([e[:2] for e in prefix]),
                    tuple(sorted([(w, pos[t]) for t, w in downs])),
                    tuple(sorted([(w, pos[s]) for s, w in ups])),
                    tuple([w for _, _, w in prefix]),
                )
                if best_first is None or first < best_first:
                    best_first = first
            return
        children = []
        left, right = slots[k]
        for f in range(n):
            f_first = first_alive and rights[f] == right
            if pos[f] >= 0 or lefts[f] != left or not (key_alive or f_first):
                continue
            pos[f], order[k] = k, f
            s = src
            if s < k:
                ext = [(s, k, w) for t, w in outs[order[s]] if t == f]
            else:
                ext = sorted([(k, pos[t], w) for t, w in outs[f] if pos[t] >= 0])
            # past every closed source: one with no edge to an unplaced floor
            while all(pos[t] >= 0 for t, _ in outs[order[s]]):
                s += 1
                if s > k:
                    break
                ext += sorted([(s, pos[t], w) for t, w in outs[order[s]] if pos[t] >= 0])
            pos[f] = -1
            child = prefix + tuple(ext)
            bound = child if len(child) == m else child + ((s, k + 1) if s <= k else (k + 1,),)
            children.append((bound, f, f_first, child, s))
        children.sort()
        for bound, f, f_first, child, s in children:
            key_ok = key_alive and (best_key is None or bound <= best_key[0])
            first_ok = f_first and (
                best_first is None or tuple([e[:2] for e in bound]) <= best_first[0]
            )
            if key_ok or first_ok:
                pos[f], order[k] = k, f
                search(k + 1, child, s, key_ok, first_ok)
                pos[f] = -1

    search(0, (), 0, True, True)
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
    0..n-1, with the net finite inflow c it leaves at the floors (c[i] =
    finite in minus finite out): tuples (lefts, rights, downs, ups, c), the
    theta orderings in lexicographic order.  Every c sums to 0: the tails
    of a checked spec weigh d- and d+, and the polygon's two sides drift
    apart by d- - d+ = sum(thetas right) - sum(thetas left)."""
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
    weights).  A checked spec has d_height >= 1 floors, as `peel.count`
    says, so the search always has a floor to start from.
    """
    spec.check()
    n = spec.data.d_height
    m = spec.genus + n - 1
    found = {}
    for tl, tr, down, up, c in _boundary_choices(spec):
        for fins in _weighted_edges(c, m):
            if not _floors_connected(n, fins):
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


def marking_violations(diagram, marking, spec):
    """The one rule for a marking of a diagram of the spec, as its
    violations (none for a marking): the labels are spec.label_range(), one
    on each floor and edge (no label on an element the diagram does not
    have, no element labelled twice, no edge unlabelled); floors carry
    point labels 1..s; each edge's label lies between its floors'; and each
    alpha label goes to a tail on its side of the weight the spec gives it
    (DiagramSpec.alpha_labels).  Identical edges may take their labels in
    any order.  `realize` raises InvalidMarking with these violations, and
    `realize.verify_realization` reports them before any geometry.  The
    element tables are the diagram's (FloorDiagram.elements), and the
    label range and alpha labels the spec's, each built once."""
    labels, start, s = spec.label_range(), marking.label_start, spec.s
    got = list(range(start, start + len(marking.labels)))
    if got != labels:
        return [f"labels {got} are not the label range {labels}"]
    floors, edges, elements = diagram.elements
    label_of, violations = {}, []
    for lab, el in enumerate(marking.labels, start):
        if el in label_of:
            violations.append(f"labels {label_of[el]} and {lab} are both on {el!r}")
        elif el in elements:
            label_of[el] = lab
        else:
            violations.append(f"label {lab} is on {el!r}, not a floor or edge of the diagram")
    violations += [f"edge {el[1]} is unmarked" for el, _, _ in edges if el not in label_of]
    for el in floors:
        if not 1 <= label_of.get(el, 0) <= s:
            violations.append(f"floor {el[1]} must carry a point label")
    for el, source, target in edges:
        lab = label_of.get(el)
        if lab is not None and not label_of.get(source, -math.inf) < lab < label_of.get(target, math.inf):
            violations.append(f"label of edge {el[1]} is not between the labels of its floors")
    for lab, w in spec.alpha_labels.items():
        el = marking.labels[lab - start]
        a, b, weight = diagram.edges[el[1]] if el[0] == "e" and el in label_of else (None, None, 0)
        side, end = ("top", b) if lab > 0 else ("bottom", a)
        if weight != w or ("f", end) in elements:
            violations.append(f"label {lab} is not on a {side} tail of weight {w}")
    return violations


def _label_moves(diagram, spec):
    """The placement rule of `enumerate_markings` and `count_markings`: per
    label of spec.label_range(), the moves (element, bit, need, part) that
    may place it, floors in floor order, then edges by index.

    Floor i has bit i and edge i bit n + i in a down-set mask; need is the
    mask of what must be placed before the element: a floor's in-edges, an
    edge's source floor and the edge before it with the same endpoints and
    weight, so that identical edges take their labels in index order.  part
    is the element's token: a floor's position, an edge's (source position
    or -1, target position or -2, weight).  An alpha label may place only
    the tails on its side of the weight DiagramSpec.alpha_labels gives it.
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
    for lab, w in spec.alpha_labels.items():
        out[lab - labels[0]] = tails[lab > 0].get(w, [])
    return out


def enumerate_markings(diagram, spec):
    """Equivalence classes of markings of the given type, one representative each.

    A marking assigns the labels {-|a-|+1..0} to fixed bottom tails (grouped
    by weight), {s+1..s+|a+|} to fixed top tails, and {1..s} to everything
    else, compatibly with the diagram's partial order.  Classes are orbits
    under automorphisms of (D, w, theta).  A diagram that is not one of the
    spec (`validate_verbose`) has none.

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
    """len(enumerate_markings(diagram, spec)), without listing the markings:
    0 for a diagram that is not one of the spec (`FloorDiagram.valid_for`).

    L, the number of markings that `enumerate_markings` searches (identical
    edges in index order), comes from a dynamic programme over the down-sets
    (bitmasks) of the diagram's poset, under the same placement rule
    (`_label_moves`); the size of a down-set is the position of the next
    label.  Automorphisms of (D, w, theta) act freely on markings, and the
    orderings of identical edges are already left out of L, so there are
    L / |Aut_floor| classes, |Aut_floor| from `FloorDiagram.canonical_form`.
    """
    if not diagram.valid_for(spec):
        return 0
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
    for _, _, w in diagram.floor_data[2]:
        mu *= w * w
    return mu


def explain(spec):
    """`count` with the diagrams behind it: (total, rows) with one row
    (diagram, classes, multiplicity) per diagram of `enumerate_diagrams`.
    Every row has a marking class: the labels of a valid diagram can
    follow its order with the down tails, which are minimal, in the alpha-
    block and the up tails, which are maximal, in the alpha+ block.
    Raises InvariantViolation unless the rows sum to the peeled total."""
    total = count(spec)
    rows = []
    listed = 0
    for diag in enumerate_diagrams(spec):
        nclasses = count_markings(diag, spec)
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
