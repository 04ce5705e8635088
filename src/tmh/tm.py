"""Topological-minor machinery: models, dissolution, containment search,
boundaried graphs and their folios, and the exhaustive deletion oracle.

A model of a pattern H inside a host G is kept as a pair (M, T): M is a
subgraph of G, T the set of branch vertices, and every vertex of M outside T
has degree exactly two in M, so M is a subdivision shape.  Dissolving the
degree-two vertices of M recovers a graph on T which must be isomorphic to H.

Containment search is exhaustive and budgeted.  A family of frequently used
small patterns (triangle, 4-cycle, K4, K2,3) is additionally recognized and
dispatched to direct structural criteria; the generic search remains the
reference implementation and the two routes are cross-checked in the test
suite rather than trusted blindly.
"""

from __future__ import annotations

import itertools
import math
import os

from .graphs import Graph, MutableAdjacency, TmhError, _augment, _series_parallel_core, is_planar


class BudgetExceeded(TmhError):
    """The node budget of an exhaustive search ran out: the search result is
    unknown, which is distinct from a certified absence."""


DEFAULT_BUDGET_NODES = 10_000_000


def default_budget():
    raw = os.environ.get("TMH_BUDGET_NODES")
    if raw is None:
        return SearchBudget(DEFAULT_BUDGET_NODES)
    try:
        return SearchBudget(int(raw))
    except ValueError:
        raise TmhError("TMH_BUDGET_NODES must be an integer, got %r" % raw)


class SearchBudget:
    """A mutable countdown of search nodes shared across nested searches."""

    __slots__ = ("limit", "used")

    def __init__(self, limit):
        self.limit = limit
        self.used = 0

    def spend(self):
        self.used += 1
        if self.used > self.limit:
            raise BudgetExceeded("search budget of %d nodes exhausted" % self.limit)


class TmPair:
    """A subdivision-shaped subgraph M with branch vertices T."""

    __slots__ = ("model", "branches")

    def __init__(self, model, branches):
        branches = frozenset(branches)
        if not branches <= set(model.vertices):
            raise TmhError("branch vertices must belong to the model")
        for v in model.vertices:
            if v not in branches and model.degree(v) != 2:
                raise TmhError(
                    "non-branch vertex %r has degree %d, want 2" % (v, model.degree(v)))
        self.model = model
        self.branches = branches

    def __repr__(self):
        return "TmPair(|M|=%d, |T|=%d)" % (self.model.n, len(self.branches))


def arcs(pair):
    """The arc decomposition of a TmPair.

    Returns (arc_list, leftover) where arc_list holds triples
    (u, v, interior) for each maximal path between branch vertices u and v
    whose interior vertices are all non-branch, and leftover is the set of
    non-branch vertices on components containing no branch vertex at all
    (those make the pair dissolve into something non-simple, so callers
    treat a non-empty leftover as invalid).
    """
    m, t = pair.model, pair.branches
    used = set()
    out = []
    for b in sorted(t):
        for first in m.neighbors(b):
            if first in t:
                if b < first:
                    out.append((b, first, ()))
                continue
            if (b, first) in used:
                continue
            interior = [first]
            prev, cur = b, first
            while cur not in t:
                a, c = m.neighbors(cur)
                nxt = a if a != prev else c
                prev, cur = cur, nxt
                if cur not in t:
                    interior.append(cur)
            used.add((b, interior[0]))
            used.add((cur, interior[-1]))
            out.append((b, cur, tuple(interior)))
    covered = set(t)
    for _, _, interior in out:
        covered.update(interior)
    leftover = set(m.vertices) - covered
    return out, leftover


def dissolve(pair):
    """Contract every degree-two non-branch vertex away; the result is a
    graph on the branch set.  A pair whose dissolution would need a loop or
    parallel edge is rejected as an invalid model shape."""
    arc_list, leftover = arcs(pair)
    if leftover:
        raise TmhError(
            "model has branchless cycles through %r; not a subdivision" % (sorted(leftover)[:4],))
    edges = set()
    for u, v, _ in arc_list:
        if u == v:
            raise TmhError("dissolution creates a loop at %r" % (u,))
        e = (u, v) if u < v else (v, u)
        if e in edges:
            raise TmhError("dissolution creates parallel edges %r" % (e,))
        edges.add(e)
    return Graph(pair.branches, edges)


# -- generic containment search ---------------------------------------------


def _isomorphic_small(g, h):
    """Exact isomorphism for small graphs by ordered backtracking."""
    if g.n != h.n or g.m != h.m:
        return False
    if sorted(g.degree(v) for v in g.vertices) != sorted(h.degree(v) for v in h.vertices):
        return False
    hv = sorted(h.vertices, key=lambda v: (-h.degree(v), v))
    gv = list(g.vertices)

    def extend(i, mapping, used):
        if i == len(hv):
            return True
        p = hv[i]
        for c in gv:
            if c in used or g.degree(c) != h.degree(p):
                continue
            ok = True
            for q in h.neighbors(p):
                if q in mapping and not g.has_edge(mapping[q], c):
                    ok = False
                    break
            if not ok:
                continue
            for q in hv[:i]:
                if not h.has_edge(p, q) and g.has_edge(mapping[q], c):
                    ok = False
                    break
            if ok:
                mapping[p] = c
                used.add(c)
                if extend(i + 1, mapping, used):
                    return True
                del mapping[p]
                used.discard(c)
        return False

    return extend(0, {}, set())


def find_tm_model(g, h, budget=None):
    """Search for a topological-minor model of h inside g, a Graph or a
    graphs.MutableAdjacency: the search orders every candidate list
    itself, so both give the same model for the same nodes.

    Returns a TmPair with dissolve(pair) isomorphic to h, or None when the
    exhaustive search certifies absence.  Raises BudgetExceeded when the
    node budget runs out first.  Boundaried containment runs the same
    search with its own branch images and a forbidden boundary
    (_BoundariedHost).
    """
    budget = budget or default_budget()
    host_vs = sorted(g.vertices)
    # each arc at the image of p leaves through its own neighbour, so an
    # image of degree below h.degree(p) roots a subtree without a model,
    # and dropping it keeps the first model found
    allowed_at = {p: [c for c in host_vs if g.degree(c) >= h.degree(p)]
                  for p in sorted(h.vertices, key=lambda v: (-h.degree(v), v))}
    return _model_search(g, h, allowed_at, frozenset(), budget)


def _model_search(g, h, allowed_at, forbidden_interior, budget):
    """find_tm_model's search, given the branch images allowed_at[p] of
    each pattern vertex p, in the order the pattern vertices are placed."""
    pattern_vs = list(allowed_at)
    pattern_edges = h.sorted_edges()
    image = {}
    paths = {}

    def place(i):
        budget.spend()
        if i == len(pattern_vs):
            return route(0, frozenset(image.values()))
        p = pattern_vs[i]
        taken = set(image.values())
        for c in allowed_at[p]:
            if c in taken:
                continue
            image[p] = c
            if place(i + 1):
                return True
            del image[p]
        return False

    def route(j, blocked):
        """Pack an internally disjoint path for pattern edge j, then recurse;
        blocked holds branch images plus interiors of earlier paths."""
        if j == len(pattern_edges):
            return True
        a, b = pattern_edges[j]
        s, t = image[a], image[b]
        avoid = set(blocked) | set(forbidden_interior)
        avoid.discard(t)

        def later_pairs_alive(interior):
            # endpoints of every still-unrouted pattern edge must stay
            # connected around everything laid down so far; interiors only
            # grow deeper in the search, so a cut pair can never recover
            for a2, b2 in pattern_edges[j + 1:]:
                s2, t2 = image[a2], image[b2]
                if g.has_edge(s2, t2):
                    continue
                barrier = (blocked | forbidden_interior
                           | frozenset(interior)) - {s2, t2}
                seen = {s2}
                stack = [s2]
                hit = False
                while stack and not hit:
                    u = stack.pop()
                    for w in g.neighbors(u):
                        if w == t2:
                            hit = True
                            break
                        if w not in barrier and w not in seen:
                            seen.add(w)
                            stack.append(w)
                if not hit:
                    return False
            return True

        def extend(cur, interior):
            budget.spend()
            if not later_pairs_alive(interior):
                return False
            if g.has_edge(cur, t):
                paths[(a, b)] = tuple(interior)
                if route(j + 1, blocked | frozenset(interior)):
                    return True
                del paths[(a, b)]
            # distances to t through non-avoided vertices: neighbors cut
            # off from t cannot start a completion and are skipped, the
            # rest are tried nearest first so detours stay last resorts
            dist = {t: 0}
            frontier = [t]
            while frontier:
                nxt = []
                for u in frontier:
                    for w in g.neighbors(u):
                        if w not in dist and w not in avoid:
                            dist[w] = dist[u] + 1
                            nxt.append(w)
                frontier = nxt
            live = [w for w in g.neighbors(cur)
                    if w != t and w not in avoid and w in dist]
            live.sort(key=lambda w: (dist[w], w))
            for w in live:
                interior.append(w)
                avoid.add(w)
                if extend(w, interior):
                    return True
                avoid.discard(w)
                interior.pop()
            return False

        return extend(s, [])

    if not place(0):
        return None
    model_vertices = set(image.values())
    model_edges = []
    for (a, b), interior in paths.items():
        chain = [image[a], *interior, image[b]]
        model_vertices.update(interior)
        model_edges.extend(zip(chain, chain[1:]))
    model = Graph(model_vertices, model_edges)
    return TmPair(model, set(image.values()))


# -- structural fast paths for the common small patterns --------------------
#
# Each criterion below is an if-and-only-if characterization of containing
# the named pattern as a topological minor; all four patterns have maximum
# degree three, where topological-minor and minor containment coincide.


def _triangle_graph():
    return Graph.from_edges([(0, 1), (1, 2), (0, 2)])


def _c4_graph():
    return Graph.from_edges([(0, 1), (1, 2), (2, 3), (0, 3)])


def _k4_graph():
    return Graph.from_edges(itertools.combinations(range(4), 2))


def _k23_graph():
    return Graph.from_edges([(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])


def _k5_graph():
    return Graph.from_edges(itertools.combinations(range(5), 2))


def _k33_graph():
    return Graph.from_edges((a, b) for a in range(3) for b in range(3, 6))


def _has_cycle(g):
    # m > n - c forces a cycle, equality means forest; with m >= n the
    # count is not needed, as any vertex makes c >= 1
    if g.m >= g.n:
        return g.m > 0
    seen = set()
    comps = 0
    for root in g.vertices:
        if root in seen:
            continue
        comps += 1
        seen.add(root)
        stack = [root]
        while stack:
            for w in g.neighbors(stack.pop()):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return g.m > g.n - comps


def _block_vertex_sets(g):
    """Vertex sets of the biconnected components, by iterative DFS, each
    yielded as soon as the search closes it, so a caller looking for one
    block can stop there."""
    index = {}
    low = {}
    edge_stack = []
    counter = itertools.count()
    for root in g.vertices:
        if root in index:
            continue
        stack = [(root, None, iter(g.neighbors(root)))]
        index[root] = low[root] = next(counter)
        while stack:
            v, parent, it = stack[-1]
            advanced = False
            for w in it:
                if w == parent:
                    continue
                if w not in index:
                    index[w] = low[w] = next(counter)
                    edge_stack.append((v, w))
                    stack.append((w, v, iter(g.neighbors(w))))
                    advanced = True
                    break
                if index[w] < index[v]:
                    edge_stack.append((v, w))
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            stack.pop()
            if stack:
                u = stack[-1][0]
                low[u] = min(low[u], low[v])
                if low[v] >= index[u]:
                    block = set()
                    while edge_stack:
                        a, b = edge_stack.pop()
                        block.add(a)
                        block.add(b)
                        if (a, b) == (u, v):
                            break
                    yield block


def _count_internally_disjoint_long_paths(g, s, t, need):
    """Vertex-disjoint s-t paths of length at least two, up to need, by
    unit-capacity augmentation on the split digraph with the direct s-t
    edge removed: vertex v enters at (v, 0) and leaves at (v, 1)."""
    residual = {}
    for v in g.vertices:
        residual[(v, 0), (v, 1)] = need if v in (s, t) else 1
        residual[(v, 1), (v, 0)] = 0
        for w in g.neighbors(v):
            if {v, w} != {s, t}:
                residual[(v, 1), (w, 0)] = 1
                residual[(w, 0), (v, 1)] = 0
    return _augment(residual, (s, 1), (t, 0), need)


def _contains_fast(g, tag):
    if tag == "triangle":
        return _has_cycle(g)
    if tag == "c4":
        return any(len(b) >= 4 for b in _block_vertex_sets(g))
    if tag == "k4":
        return bool(_series_parallel_core({v: g.neighbors(v) for v in g.vertices}))
    if tag == "k23":
        # a vertex of degree at most one lies in no model of a pattern of
        # minimum degree two, so the test runs on the 2-core
        core = MutableAdjacency(g)
        core.delete_leaves()
        if core.m < 6:
            return False
        cands = sorted(v for v in core.vertices if core.degree(v) >= 3)
        for s, t in itertools.combinations(cands, 2):
            if _count_internally_disjoint_long_paths(core, s, t, 3) >= 3:
                return True
        return False
    raise TmhError("unknown fast containment tag %r" % tag)


_FAST_TAGS = (
    ("triangle", _triangle_graph),
    ("c4", _c4_graph),
    ("k4", _k4_graph),
    ("k23", _k23_graph),
)

# the tags each tagged pattern holds as a topological minor: a 4-cycle
# subdivides the triangle, and K4 and K2,3 each hold a 4-cycle, so a host
# free of any of them is free of the pattern
_TAGS_BELOW = {"triangle": (), "c4": ("triangle",),
               "k4": ("triangle", "c4"), "k23": ("triangle", "c4")}


def classify_pattern(h):
    """Tag patterns that have a direct structural containment test."""
    for tag, make in _FAST_TAGS:
        ref = make()
        if h.n == ref.n and h.m == ref.m and _isomorphic_small(h, ref):
            return tag
    return None


class PatternFamily:
    """A finite set of pattern graphs with cached search metadata.

    implied holds the tags whose fast test a family of tagged patterns
    skips: a host free of a tag below them is free of them too, so the
    family's answer stands without their tests.  A family with a pattern
    for the generic search skips none, so that search runs exactly when
    it did before.

    planar is the family of the planar patterns (the family itself when
    every pattern is planar), or None when there is none: a planar host
    holds no subdivision of a non-planar pattern (Kuratowski), so on a
    planar host the family and its planar part are contained alike."""

    __slots__ = ("patterns", "tags", "implied", "h", "g", "planar")

    def __init__(self, patterns):
        patterns = tuple(patterns)
        if not patterns:
            raise TmhError("a pattern family must contain at least one pattern")
        for p in patterns:
            if p.n == 0:
                raise TmhError("the empty pattern would make every host a hit")
        self.patterns = patterns
        self.tags = tuple(classify_pattern(p) for p in patterns)
        self.implied = frozenset() if None in self.tags else frozenset(
            t for t in self.tags if set(_TAGS_BELOW[t]) & set(self.tags))
        self.h = max(p.n for p in patterns)
        self.g = max(p.m for p in patterns)
        planar = [p for p in patterns if is_planar(p)]
        if len(planar) == len(patterns):
            self.planar = self
        else:
            self.planar = PatternFamily(planar) if planar else None

    def __repr__(self):
        return "PatternFamily(%d patterns, h=%d)" % (len(self.patterns), self.h)


BUILTIN_PATTERNS = {
    "K3": _triangle_graph,
    "C4": _c4_graph,
    "K4": _k4_graph,
    "K23": _k23_graph,
    "K5": _k5_graph,
    "K33": _k33_graph,
}


def is_F_free(g, family, budget=None, use_fast_paths=True):
    """True when no pattern of the family has a topological-minor model in g."""
    return _is_free(g, family, budget or default_budget(), use_fast_paths)


def _is_free(g, family, budget, use_fast_paths=True):
    # is_F_free on a Graph or a graphs.MutableAdjacency, which the fast
    # tests and the generic search read alike
    for pattern, tag in zip(family.patterns, family.tags):
        if use_fast_paths and tag is not None:
            if tag not in family.implied and _contains_fast(g, tag):
                return False
        elif find_tm_model(g, pattern, budget=budget) is not None:
            return False
    return True


def pF_oracle(g, family, kmax, budget=None, use_fast_paths=True):
    """Smallest k <= kmax such that some k vertex deletions make g free of
    the family, together with the lexicographically least witness set.
    Returns (k, witness) or None when every set of size <= kmax fails."""
    budget = budget or default_budget()
    for k in range(kmax + 1):
        for s in itertools.combinations(g.vertices, k):
            if is_F_free(g.delete_vertices(s), family, budget=budget,
                         use_fast_paths=use_fast_paths):
                return k, tuple(s)
    return None


# -- boundaried graphs and folios -------------------------------------------


class BoundariedGraph:
    """A graph with an injectively labeled boundary subset."""

    __slots__ = ("graph", "labels", "_canon")

    def __init__(self, graph, labels):
        labels = dict(labels)
        for v, lab in labels.items():
            if v not in graph:
                raise TmhError("boundary vertex %r not in graph" % (v,))
            if not isinstance(lab, int) or lab < 1:
                raise TmhError("labels must be positive integers, got %r" % (lab,))
        if len(set(labels.values())) != len(labels):
            raise TmhError("boundary labeling must be injective")
        self.graph = graph
        self.labels = labels
        self._canon = None

    @property
    def boundary(self):
        return frozenset(self.labels)

    def canonical_form(self):
        """A hashable encoding invariant under label-respecting isomorphism.

        Boundary vertices are pinned by label; inner vertices are
        canonicalized by minimizing the edge encoding over all their
        orderings, which is affordable at folio scale."""
        if self._canon is not None:
            return self._canon
        g = self.graph
        inner = sorted(v for v in g.vertices if v not in self.labels)
        label_of = dict(self.labels)
        lab_set = tuple(sorted(self.labels.values()))
        edges = g.sorted_edges()

        def encode(perm):
            name = {v: ("i", i) for i, v in enumerate(perm)}
            for v, lab in label_of.items():
                name[v] = ("b", lab)
            return tuple(sorted(tuple(sorted((name[u], name[v]))) for u, v in edges))

        if len(inner) <= 1:
            best = encode(inner)
        else:
            best = min(encode(p) for p in itertools.permutations(inner))
        self._canon = (g.n, lab_set, len(inner), best)
        return self._canon

    def __repr__(self):
        return "BoundariedGraph(n=%d, labels=%s)" % (
            self.graph.n, sorted(self.labels.values()))


def btm_contains(host, pattern, budget=None):
    """Does the host boundaried graph contain a model whose dissolution,
    restricted to the host boundary vertices it uses, reproduces the
    pattern with matching labels?

    Boundary vertices may appear in a model only as branch vertices, and a
    labeled pattern vertex must land exactly on the equally labeled host
    boundary vertex; unlabeled pattern vertices must use inner host
    vertices (see _BoundariedHost).
    """
    return _BoundariedHost(host).search(pattern, budget or default_budget()) is not None


class _BoundariedHost:
    """btm_contains against one host, for any number of patterns: the
    search of find_tm_model, with each labeled pattern vertex on the host
    vertex of its label, each other one on an inner vertex, and the
    boundary forbidden to arc interiors.  The branch images are read off
    per-vertex facts gathered once per host.

    An image c of pattern vertex p carries the arcs at p, each through
    its own neighbour: an arc interior vertex, never a boundary one, or
    the image of a pattern neighbour of p over a direct edge.  So c needs
    degree at least need = h.degree(p), and if it has boundary neighbours
    it counts only its inner neighbours and the boundary neighbours that
    carry the label of a pattern neighbour of p.  Images short of that
    root subtrees without a model, so dropping them keeps the first model
    found.  A list depends on the pattern only through need and those
    labels, and the unlabelled pattern vertices' lists, which run over
    every inner vertex in order, are kept per (need, labels)."""

    __slots__ = ("graph", "boundary", "_by_label", "_facts", "_inner", "_lists")

    def __init__(self, bg):
        g, labels = bg.graph, bg.labels
        self.graph = g
        self.boundary = bg.boundary
        self._by_label = {lab: v for v, lab in labels.items()}
        # vertex -> its degree and the labels of its boundary neighbours
        # (None if it has none); the inner vertices' facts in order
        bounded = {}
        for b, lab in labels.items():
            for v in g.neighbors(b):
                bounded[v] = bounded.get(v, frozenset()) | {lab}
        self._facts = {v: (g.degree(v), bounded.get(v)) for v in g.vertices}
        self._inner = [(v, *self._facts[v]) for v in g.vertices if v not in labels]
        self._lists = {}

    def search(self, pattern, budget):
        """A TmPair of the model found, or None when there is none."""
        by_label = self._by_label
        labels = pattern.labels
        if any(lab not in by_label for lab in labels.values()):
            return None
        h = pattern.graph
        allowed_at = {}
        for p in sorted(h.vertices, key=lambda v: (-h.degree(v), v)):
            need = h.degree(p)
            near = frozenset(labels[q] for q in h.neighbors(p) if q in labels)
            if p in labels:
                c = by_label[labels[p]]
                cands = [(c, *self._facts[c])]
            elif (need, near) in self._lists:
                allowed_at[p] = self._lists[need, near]
                continue
            else:
                cands = self._inner
            kept = [c for c, degree, bounded in cands
                    if degree >= need and (bounded is None
                                           or degree - len(bounded - near) >= need)]
            if p not in labels:
                self._lists[need, near] = kept
            allowed_at[p] = kept
        return _model_search(self.graph, h, allowed_at, self.boundary, budget)


def enumerate_boundaried_graphs(t, h, max_enumeration=2_000_000):
    """All t-boundaried graphs on at most h vertices, one canonical
    representative each, in a deterministic order.

    The census is exponential in h; the guard raises rather than letting a
    call with large parameters run away.
    """
    if t < 0 or h < 0:
        raise TmhError("t and h must be non-negative")
    # price the sweep up front, each raw graph together with the orderings
    # of its inner vertices that canonical_form tries, so oversized
    # parameters fail fast instead of after minutes of canonicalization
    total = sum(
        math.comb(t, nb) * (1 << math.comb(n, 2))
        * (1 + math.factorial(n - nb))
        for n in range(h + 1) for nb in range(min(t, n) + 1))
    if total > max_enumeration:
        raise TmhError(
            "boundaried-graph census for t=%d h=%d exceeds %d graphs; "
            "parameters infeasible at desk scale" % (t, h, max_enumeration))
    seen = {}
    for n in range(h + 1):
        slots = list(itertools.combinations(range(n), 2))
        for nb in range(0, min(t, n) + 1):
            for label_choice in itertools.combinations(range(1, t + 1), nb):
                # labeled vertices are 0..nb-1 bearing label_choice in order
                labels = {i: lab for i, lab in enumerate(label_choice)}
                for edge_bits in range(1 << len(slots)):
                    edges = [slots[i] for i in range(len(slots)) if edge_bits >> i & 1]
                    bg = BoundariedGraph(Graph(range(n), edges), labels)
                    key = bg.canonical_form()
                    if key not in seen:
                        seen[key] = bg
    return [seen[k] for k in sorted(seen)]


_CENSUS = {}
_CENSUS_REFUSED = {}


def _census(t, h):
    """enumerate_boundaried_graphs(t, h), built once per (t, h): members
    are never mutated and carry their canonical forms, so every folio and
    census count can share them.  The memo is never cleared, so it keeps
    the members of every census asked for alive for the whole process.
    A refusal is remembered too, by its message, and raised again without
    pricing the sweep a second time."""
    if (t, h) in _CENSUS_REFUSED:
        raise TmhError(_CENSUS_REFUSED[(t, h)])
    if (t, h) not in _CENSUS:
        try:
            _CENSUS[(t, h)] = tuple(enumerate_boundaried_graphs(t, h))
        except TmhError as err:
            _CENSUS_REFUSED[(t, h)] = str(err)
            raise
    return _CENSUS[(t, h)]


_CENSUS_BELOW = {}


def _census_below(t, h):
    """For each member of _census(t, h), by index, the indices of the
    members it contains (btm_contains), itself among them, in increasing
    order.  Boundaried containment is transitive, so a host that holds a
    member holds every member below it.

    A member holds only members with no more vertices, no more edges and
    no other labels, and none but itself with as many vertices and edges
    (a model that uses every vertex and edge is an isomorphism).  So the
    members are taken by vertex and edge count, and the lower members of
    each are searched as compute_folio searches a census (_present).  The
    searches run at the program's default node count.  Built on first use
    and kept, like _census."""
    if (t, h) not in _CENSUS_BELOW:
        members = _census(t, h)
        size = [(m.graph.n, m.graph.m) for m in members]
        below = [None] * len(members)
        for i in sorted(range(len(members)), key=size.__getitem__):
            (n, m), labels = size[i], set(members[i].labels.values())
            lower = [j for j in reversed(range(len(members)))
                     if size[j][0] <= n and size[j][1] <= m and size[j] != (n, m)
                     and labels.issuperset(members[j].labels.values())]
            present = _present(_BoundariedHost(members[i]), members, below, lower,
                               SearchBudget(DEFAULT_BUDGET_NODES))
            below[i] = tuple(sorted(present | {i}))
        _CENSUS_BELOW[(t, h)] = tuple(below)
    return _CENSUS_BELOW[(t, h)]


def _present(host, members, below, order, budget):
    """The indices in order of the members the host (a _BoundariedHost)
    contains.  Each is searched in turn unless a member found earlier
    holds it (below, see _census_below)."""
    present = set()
    for i in order:
        if i not in present and host.search(members[i], budget) is not None:
            present.update(below[i])
    return present


def f3(t, h):
    """Number of pairwise non-label-isomorphic t-boundaried graphs on at
    most h vertices."""
    return len(_census(t, h))


class Folio:
    """The set of detail-bounded representations a boundaried graph
    realizes: all members of the census that occur as dissolved models."""

    __slots__ = ("t", "h", "members", "_keys")

    def __init__(self, t, h, members):
        self.t = t
        self.h = h
        self.members = tuple(members)
        self._keys = frozenset(m.canonical_form() for m in self.members)

    @property
    def keys(self):
        return self._keys

    def __len__(self):
        return len(self.members)

    def issubset(self, other):
        return self._keys <= other._keys

    def __eq__(self, other):
        return (isinstance(other, Folio)
                and (self.t, self.h) == (other.t, other.h)
                and self._keys == other._keys)

    def __hash__(self):
        return hash((self.t, self.h, self._keys))

    def __repr__(self):
        return "Folio(t=%d, h=%d, %d members)" % (self.t, self.h, len(self.members))


def compute_folio(bg, t, h, budget=None):
    """Folio of a boundaried graph by filtering the census through the
    containment search; the exhaustive route needs no width bound.

    The members are tested from the last in census order back to the
    first, and a member that a member found earlier contains is in the
    folio without a search (_census_below).  The folio keeps census
    order."""
    if h < 0:
        raise TmhError("folio detail bound must be non-negative")
    budget = budget or default_budget()
    members = _census(t, h)
    present = _present(_BoundariedHost(bg), members, _census_below(t, h),
                       reversed(range(len(members))), budget)
    return Folio(t, h, [m for i, m in enumerate(members) if i in present])
