"""Tree decompositions, exact small-instance treewidth, brambles, walls and
their layers, and the wall-or-width entry point.

Treewidth is represented by tree decompositions throughout (every consumer
here wants bags, not k-trees).  Exact widths come from a dynamic program
over elimination prefixes and are capped by instance size; beyond the cap a
min-fill greedy order supplies certified upper bounds.

Brambles certify lower bounds.  Besides direct validation and exact order
computation, the module can search for a maximum-order bramble through the
equivalent escape-function formulation, which is what makes an exhaustive
duality check affordable on small graphs.
"""

from __future__ import annotations

import itertools
from collections import deque

from .graphs import (
    DiskRegion,
    EmbeddingError,
    Graph,
    PartiallyDiskEmbedded,
    PlaneEmbedding,
    TmhError,
    is_planar,
    planar_rotation,
)
from .tm import BudgetExceeded, SearchBudget, TmPair, arcs

DEFAULT_EXACT_TW_CAP = 15
DEFAULT_WIDTH_FACTOR = 124


class InstanceTooLarge(TmhError):
    """Exact computation refused; callers fall back to upper bounds."""


# -- tree decompositions -----------------------------------------------------


class TreeDecomposition:
    __slots__ = ("tree", "bags", "width")

    def __init__(self, tree, bags, width=None):
        self.tree = tree
        self.bags = {n: frozenset(b) for n, b in bags.items()}
        if width is None:
            width = max((len(b) for b in self.bags.values()), default=0) - 1
        self.width = width

    def __repr__(self):
        return "TreeDecomposition(%d nodes, width=%d)" % (len(self.bags), self.width)


class DecompositionViolation:
    """First failed axiom, as data rather than an exception."""

    __slots__ = ("axiom", "witness")

    def __init__(self, axiom, witness):
        self.axiom = axiom
        self.witness = witness

    def __repr__(self):
        return "DecompositionViolation(%s, %r)" % (self.axiom, self.witness)


def validate_decomposition(g, td):
    """Width when all axioms hold, else the first violation with a witness.

    Linear in the total bag size.  One map from each vertex to the nodes
    whose bags hold it settles coverage and occurrence: an edge is covered
    when the holder sets of its ends meet, and the holders of v form a
    subtree exactly when |holders(v)| - 1 tree edges have v in both bags,
    since a forest on those nodes with that many edges is connected.
    """
    nodes = set(td.tree.vertices)
    if set(td.bags) != nodes:
        return DecompositionViolation(
            "bag-node-mismatch", sorted(set(td.bags) ^ nodes))
    if nodes:
        if td.tree.m != len(nodes) - 1 or not td.tree.is_connected():
            return DecompositionViolation("tree-shape", None)
    holders = {}
    for n, b in td.bags.items():
        for v in b:
            holders.setdefault(v, set()).add(n)
    for v in g.vertices:
        if v not in holders:
            return DecompositionViolation("vertex-uncovered", v)
    for u, v in g.sorted_edges():
        if holders[u].isdisjoint(holders[v]):
            return DecompositionViolation("edge-uncovered", (u, v))
    shared = dict.fromkeys(holders, 0)
    for a, b in td.tree.edges:
        for v in td.bags[a] & td.bags[b]:
            shared[v] += 1
    for v in g.vertices:
        if shared[v] != len(holders[v]) - 1:
            return DecompositionViolation("occurrence-not-subtree", v)
    width = max((len(b) for b in td.bags.values()), default=0) - 1
    if width != td.width:
        return DecompositionViolation("width-mismatch", (td.width, width))
    return width


def _decomposition_from_order(g, order):
    """Standard fill-in construction: bag of v = v plus its not-yet
    eliminated neighborhood at elimination time."""
    adj = {v: set(g.neighbors(v)) for v in g.vertices}
    position = {v: i for i, v in enumerate(order)}
    bags = {}
    for v in order:
        later = {w for w in adj[v] if position[w] > position[v]}
        bags[position[v]] = frozenset({v} | later)
        for a, b in itertools.combinations(sorted(later), 2):
            adj[a].add(b)
            adj[b].add(a)
    edges = []
    n = len(order)
    for i in range(n):
        later = sorted(bags[i] - {order[i]}, key=lambda w: position[w])
        if later:
            edges.append((i, position[later[0]]))
        elif i + 1 < n:
            edges.append((i, i + 1))
    tree = Graph(range(n), edges)
    return TreeDecomposition(tree, bags)


def exact_treewidth(g, cap=DEFAULT_EXACT_TW_CAP):
    """Exact treewidth with a witnessing decomposition.

    Dynamic program over elimination prefixes (Bodlaender, Fomin, Koster,
    Kratsch and Thilikos, ESA 2006): best[S] is the least width achievable
    when the set S is eliminated first, and eliminating v after S costs the
    number of vertices outside S + v seen from v through S.  The layers
    run forward by prefix size and keep only prefixes with best[S] at most
    the min-fill width ub.  Every prefix on an optimal order has a value of
    at most tw <= ub, so the optimum survives; a mask's value is kept
    exactly when it is at most ub, and then all of its minimal
    predecessors are kept too.  Each mask keeps the least (value, index)
    pair, i.e. the lowest-index vertex among the optimal last picks, so
    the elimination order and the decomposition built from it do not
    depend on the pruning.  Costs come from the components of G[S],
    found once per kept prefix: v sees adj(v) plus the outer neighbourhood
    of every component it touches.
    """
    n = g.n
    if n > cap:
        raise InstanceTooLarge("exact treewidth capped at %d vertices, got %d" % (cap, n))
    if n == 0:
        return -1, TreeDecomposition(Graph(), {})
    ub = greedy_treewidth(g).width
    vs = list(g.vertices)
    pos = {v: i for i, v in enumerate(vs)}
    adjm = [0] * n
    for u, v in g.edges:
        adjm[pos[u]] |= 1 << pos[v]
        adjm[pos[v]] |= 1 << pos[u]

    full = (1 << n) - 1
    layer = {0: 0}
    choice = {}
    for _ in range(n):
        nxt = {}
        for prev, base in layer.items():
            # seen[v]: adj(v) plus the outer neighbourhood of each
            # component of G[prev] that v borders
            seen = adjm[:]
            rest = prev
            while rest:
                comp = frontier = rest & -rest
                outer = 0
                while frontier:
                    b = frontier & -frontier
                    frontier ^= b
                    nbrs = adjm[b.bit_length() - 1]
                    outer |= nbrs
                    grow = nbrs & prev & ~comp
                    comp |= grow
                    frontier |= grow
                rest &= ~comp
                outer &= ~prev
                m = outer
                while m:
                    b = m & -m
                    seen[b.bit_length() - 1] |= outer
                    m ^= b
            m = full & ~prev
            while m:
                b = m & -m
                m ^= b
                i = b.bit_length() - 1
                val = max(base, (seen[i] & ~prev & ~b).bit_count())
                if val > ub:
                    continue
                mask = prev | b
                old = nxt.get(mask)
                if old is None or (val, i) < old:
                    nxt[mask] = (val, i)
        layer = {mask: val for mask, (val, _) in nxt.items()}
        choice.update((mask, i) for mask, (_, i) in nxt.items())
    order = []
    mask = full
    while mask:
        i = choice[mask]
        order.append(vs[i])
        mask ^= 1 << i
    order.reverse()
    td = _decomposition_from_order(g, order)
    return layer[full], td


def greedy_treewidth(g):
    """Min-fill elimination; certified upper bound via the decomposition."""
    adj = {v: set(g.neighbors(v)) for v in g.vertices}
    order = []
    while adj:
        pick = None
        pick_fill = None
        for v in sorted(adj):
            nbrs = sorted(adj[v])
            fill = sum(1 for a, b in itertools.combinations(nbrs, 2)
                       if b not in adj[a])
            if pick_fill is None or fill < pick_fill:
                pick, pick_fill = v, fill
        order.append(pick)
        nbrs = sorted(adj.pop(pick))
        for a, b in itertools.combinations(nbrs, 2):
            adj[a].add(b)
            adj[b].add(a)
        for w in nbrs:
            adj[w].discard(pick)
    return _decomposition_from_order(g, order)


def boundaried_treewidth(g, boundary, cap=DEFAULT_EXACT_TW_CAP):
    """Width when the boundary must share a bag: add a clique on it."""
    boundary = sorted(boundary)
    extra = [(a, b) for a, b in itertools.combinations(boundary, 2)
             if not g.has_edge(a, b)]
    k, td = exact_treewidth(g.add_edges(extra), cap=cap)
    return k, td


# -- brambles ----------------------------------------------------------------


class Bramble:
    __slots__ = ("elements",)

    def __init__(self, elements):
        self.elements = tuple(frozenset(e) for e in elements)

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return "Bramble(%d elements)" % len(self.elements)


def _touching(g, a, b):
    if a & b:
        return True
    return any(w in b for v in a for w in g.neighbors(v))


def validate_bramble(g, bramble):
    """None when valid, else the first failed condition as a string pair."""
    for e in bramble.elements:
        if not e:
            return ("empty-element", e)
        if not e <= set(g.vertices):
            return ("element-outside-graph", sorted(e - set(g.vertices)))
        if len(g.subgraph(e).connected_components()) != 1:
            return ("element-disconnected", sorted(e))
    for a, b in itertools.combinations(bramble.elements, 2):
        if not _touching(g, a, b):
            return ("elements-not-touching", (sorted(a), sorted(b)))
    return None


class OrderResult(int):
    """Bramble order; exact is False when a budget stopped the search and
    the value is only a proved lower bound."""

    def __new__(cls, value, exact=True):
        obj = super().__new__(cls, value)
        obj.exact = exact
        return obj


def bramble_order(g, bramble, budget=None):
    """Exact minimum hitting-set size by iterative deepening: levels below
    the answer are exhausted, so a budget stop still certifies the depth
    reached as a lower bound."""
    bad = validate_bramble(g, bramble)
    if bad is not None:
        raise TmhError("invalid bramble: %s %r" % bad)
    elements = sorted(bramble.elements, key=lambda e: (len(e), sorted(e)))
    budget = budget or SearchBudget(10_000_000)

    def can_hit(k, remaining):
        budget.spend()
        if not remaining:
            return True
        if k == 0:
            return False
        tightest = min(remaining, key=lambda e: (len(e), sorted(e)))
        for v in sorted(tightest):
            rest = [e for e in remaining if v not in e]
            if can_hit(k - 1, rest):
                return True
        return False

    k = 0
    while True:
        try:
            if can_hit(k, elements):
                return OrderResult(k, exact=True)
        except BudgetExceeded:
            return OrderResult(k, exact=False)
        k += 1


def haven_bramble(g, k):
    """Search for a bramble of order k+1 via a consistent escape function:
    assign to every vertex set X with |X| <= k one component of g minus X,
    monotone under inclusion.  The assigned components form a bramble no
    set of k vertices can hit (the component assigned to a candidate
    hitting set avoids it by construction); conversely a bramble of order
    k+1 yields such an assignment by picking the component holding an
    untouched element.  The backtracking is exhaustive, so None certifies
    that no bramble of order k+1 exists."""
    vs = list(g.vertices)
    if k >= g.n:
        return None
    subsets = []
    for size in range(k + 1):
        subsets.extend(frozenset(c) for c in itertools.combinations(vs, size))
    comps_of = {}
    for x in subsets:
        comps_of[x] = [frozenset(c) for c in g.delete_vertices(x).connected_components()]
        if not comps_of[x]:
            return None
    chosen = {}
    order = sorted(subsets, key=lambda x: (len(x), sorted(x)))

    def assign(i):
        if i == len(order):
            return True
        x = order[i]
        for comp in comps_of[x]:
            ok = True
            for v in sorted(x):
                smaller = x - {v}
                if not comp <= chosen[smaller]:
                    ok = False
                    break
            if ok:
                chosen[x] = comp
                if assign(i + 1):
                    return True
                del chosen[x]
        return False

    if not assign(0):
        return None
    seen = {}
    for comp in chosen.values():
        seen.setdefault(comp, comp)
    return Bramble(sorted(seen, key=sorted))


def max_bramble_order(g):
    """Largest order over all brambles of g, by exhausting escape
    functions level by level."""
    best = 0
    k = 0
    while True:
        found = haven_bramble(g, k)
        if found is None:
            return best
        best = k + 1
        k += 1


def grid_bramble(q_graph, cycles, streams, boundary):
    """The stream-by-cycle bramble: crosses of interior cycle arcs with
    interior streams, stripped of the boundary cycle, plus three pairwise
    disjoint boundary pieces.

    The third boundary piece (last stream plus last arc) excludes the
    first arc and the first stream; leaving the two corner vertices it
    shares with them in place would let one vertex hit two pieces at once
    and drop the order from r+1 to r.
    """
    r = len(cycles)
    if len(streams) != r:
        raise TmhError("need equally many cycle arcs and streams, got %d and %d"
                       % (r, len(streams)))
    if r < 3:
        raise TmhError("interior index range [2, r-1] is empty for r=%d" % r)
    cyc_sets = [frozenset(c) for c in cycles]
    str_sets = [frozenset(s) for s in streams]
    for name, sets in (("cycle arcs", cyc_sets), ("streams", str_sets)):
        for a, b in itertools.combinations(range(r), 2):
            if sets[a] & sets[b]:
                raise TmhError("%s %d and %d are not disjoint" % (name, a + 1, b + 1))
    for i, c in enumerate(cyc_sets):
        for j, s in enumerate(str_sets):
            if not (c & s or _touching(q_graph, c, s)):
                raise TmhError("stream %d misses cycle arc %d" % (j + 1, i + 1))
    boundary_set = frozenset(boundary)
    want = cyc_sets[0] | str_sets[0] | cyc_sets[r - 1] | str_sets[r - 1]
    if boundary_set != want:
        raise TmhError("boundary cycle must cover exactly the first/last arcs and streams")
    cyc_graph = q_graph.subgraph(boundary_set)
    if not (cyc_graph.is_connected() and all(cyc_graph.degree(v) == 2 for v in boundary_set)):
        raise TmhError("first/last arcs and streams do not close into a cycle")
    elements = []
    for i in range(1, r - 1):
        for j in range(1, r - 1):
            elements.append((cyc_sets[i] | str_sets[j]) - boundary_set)
    elements.append(str_sets[0] - cyc_sets[0])
    elements.append(cyc_sets[0])
    elements.append((str_sets[r - 1] | cyc_sets[r - 1]) - cyc_sets[0] - str_sets[0])
    bramble = Bramble(elements)
    bad = validate_bramble(q_graph, bramble)
    if bad is not None:
        raise TmhError("construction failed validation: %s %r" % bad)
    return bramble


# -- walls -------------------------------------------------------------------


class Wall:
    __slots__ = ("host_subgraph", "r", "horizontal_paths", "vertical_paths",
                 "perimeter", "subdivision_vertices", "coordinates", "embedding")

    def __init__(self, host_subgraph, r, horizontal_paths, vertical_paths,
                 perimeter, subdivision_vertices=(), coordinates=None,
                 embedding=None):
        self.host_subgraph = host_subgraph
        self.r = r
        self.horizontal_paths = tuple(tuple(p) for p in horizontal_paths)
        self.vertical_paths = tuple(tuple(p) for p in vertical_paths)
        self.perimeter = tuple(perimeter)
        self.subdivision_vertices = frozenset(subdivision_vertices)
        self.coordinates = dict(coordinates) if coordinates else None
        self.embedding = embedding

    def __repr__(self):
        return "Wall(r=%d, n=%d)" % (self.r, self.host_subgraph.n)


class WallWithCompass:
    __slots__ = ("wall", "compass", "compass_tw_certificate")

    def __init__(self, wall, compass, compass_tw_certificate):
        self.wall = wall
        self.compass = compass
        self.compass_tw_certificate = compass_tw_certificate

    def __repr__(self):
        return "WallWithCompass(r=%d, compass_width=%d)" % (
            self.wall.r, self.compass_tw_certificate.width)


def _wall_vertex(x, y, r):
    return (y - 1) * 2 * r + (x - 1)


def _elementary_wall_edges(r):
    """Grid on [1..2r] x [1..r], vertical edges only where x+y is even,
    then the two degree-one corners dropped."""
    removed = {(2 * r, 1), (1, r)}
    edges = []
    for y in range(1, r + 1):
        for x in range(1, 2 * r):
            a, b = (x, y), (x + 1, y)
            if a not in removed and b not in removed:
                edges.append((a, b))
    for y in range(1, r):
        for x in range(1, 2 * r + 1):
            if (x + y) % 2 == 0:
                a, b = (x, y), (x, y + 1)
                if a not in removed and b not in removed:
                    edges.append((a, b))
    return edges, removed


def build_elementary_wall(r):
    if r % 2 == 0 or r < 3:
        raise TmhError("wall height must be odd and at least 3, got %d" % r)
    coord_edges, removed = _elementary_wall_edges(r)
    vid = {}
    for y in range(1, r + 1):
        for x in range(1, 2 * r + 1):
            if (x, y) not in removed:
                vid[(x, y)] = _wall_vertex(x, y, r)
    edges = [(vid[a], vid[b]) for a, b in coord_edges]
    g = Graph(vid.values(), edges)

    horizontals = []
    horizontals.append([vid[(x, 1)] for x in range(1, 2 * r)])
    for y in range(2, r):
        horizontals.append([vid[(x, y)] for x in range(1, 2 * r + 1)])
    horizontals.append([vid[(x, r)] for x in range(2, 2 * r + 1)])

    verticals = [_zigzag_path(vid, j, r) for j in range(1, r + 1)]

    emb, perimeter = _embed_wall(g)
    coords = {v: xy for xy, v in vid.items()}
    return Wall(g, r, horizontals, verticals, perimeter,
                subdivision_vertices=(), coordinates=coords, embedding=emb)


def _zigzag_path(vid, j, r):
    """Vertical path j: starts atop the odd column, then alternates the
    odd/even column pair row by row."""
    lo, hi = 2 * j - 1, 2 * j
    path = []
    for y in range(1, r + 1):
        if y == 1:
            cols = (lo,)
        elif y % 2 == 0:
            cols = (lo, hi)
        else:
            cols = (hi, lo)
        for x in cols:
            if (x, y) in vid:
                path.append(vid[(x, y)])
    return path


def _embed_wall(g):
    """Embed with the unique longest face outside; walls have hexagonal
    bricks, so the perimeter is the only long face."""
    def unique_longest(faces):
        sizes = sorted(((len(f), i) for i, f in enumerate(faces)), reverse=True)
        if len(sizes) > 1 and sizes[0][0] == sizes[1][0]:
            raise TmhError("ambiguous outer face; host is not a wall shape")
        return sizes[0][1]

    emb = PlaneEmbedding._traced(g, planar_rotation(g), unique_longest)
    walk = [de[0] for de in emb.faces[emb.outer_face]]
    if len(set(walk)) != len(walk):
        raise TmhError("outer walk revisits a vertex; host is not a wall shape")
    return emb, tuple(walk)


def validate_wall(w):
    """Check the wall shape: planar, every short face a hexagon, declared
    paths cover the graph, perimeter is the long face."""
    g = w.host_subgraph
    core = g
    if w.subdivision_vertices:
        if any(g.degree(v) != 2 for v in w.subdivision_vertices):
            raise TmhError("subdivision vertices must have degree 2")
        branch = set(g.vertices) - w.subdivision_vertices
        from .tm import dissolve
        core = dissolve(TmPair(g, branch))
    if core.n != 2 * w.r * w.r - 2:
        raise TmhError("wall has %d core vertices, expected %d"
                       % (core.n, 2 * w.r * w.r - 2))
    emb, _ = _embed_wall(core)
    lens = sorted(len(f) for f in emb.faces)
    if any(l != 6 for l in lens[:-1]):
        raise TmhError("a finite wall face is not a hexagon")
    covered = set()
    for p in w.horizontal_paths + w.vertical_paths:
        covered.update(p)
    if covered != set(g.vertices):
        raise TmhError("declared paths do not cover the wall")
    return True


def _peel_layers(g):
    """Repeatedly read off the long face and remove it, trimming the
    degree-one debris, until no cycle is left."""
    layers = []
    current = g
    while True:
        comps = current.connected_components()
        if current.m <= current.n - len(comps):
            break
        rotation = planar_rotation(current)
        probe = PlaneEmbedding(current, rotation, outer_face_index=0)
        sizes = sorted(((len(f), i) for i, f in enumerate(probe.faces)), reverse=True)
        outer = probe.faces[sizes[0][1]]
        walk = [de[0] for de in outer]
        if len(set(walk)) != len(walk):
            raise TmhError("peeled layer revisits a vertex; not a wall shape")
        layers.append(tuple(walk))
        remaining = current.delete_vertices(walk)
        doomed = deque(v for v in remaining.vertices if remaining.degree(v) <= 1)
        alive = dict((v, set(remaining.neighbors(v))) for v in remaining.vertices)
        while doomed:
            v = doomed.popleft()
            if v not in alive:
                continue
            for wv in alive.pop(v):
                alive[wv].discard(v)
                if len(alive[wv]) <= 1:
                    doomed.append(wv)
        edges = set()
        for v, nb in alive.items():
            for u in nb:
                if u < v:
                    edges.add((u, v))
        current = Graph(alive.keys(), edges)
    return layers


def wall_layers(w):
    """Layer cycles, outermost first: the perimeter, then the perimeter of
    the wall left after peeling it, and so on."""
    g = w.host_subgraph
    if not w.subdivision_vertices:
        return _peel_layers(g)
    branch = set(g.vertices) - w.subdivision_vertices
    pair = TmPair(g, branch)
    arc_list, leftover = arcs(pair)
    if leftover:
        raise TmhError("wall subdivision vertices form a stray cycle")
    from .tm import dissolve
    core = dissolve(pair)
    lift = {}
    for u, v, interior in arc_list:
        lift[(u, v)] = interior
        lift[(v, u)] = tuple(reversed(interior))
    lifted = []
    for cycle in _peel_layers(core):
        out = []
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            out.append(a)
            out.extend(lift.get((a, b), ()))
        lifted.append(tuple(out))
    return lifted


# -- the wall-or-width dichotomy --------------------------------------------


def _recognize_elementary_wall(g):
    """If g is isomorphic to an elementary wall, return (r, coordinates)."""
    n = g.n
    r2 = (n + 2) // 2
    r = int(round(r2 ** 0.5))
    if r * r != r2 or r % 2 == 0 or r < 3 or 2 * r * r - 2 != n:
        return None
    import networkx as nx

    template = build_elementary_wall(r)
    ng = nx.Graph(sorted(g.edges))
    nt = nx.Graph(sorted(template.host_subgraph.edges))
    matcher = nx.algorithms.isomorphism.GraphMatcher(ng, nt)
    if not matcher.is_isomorphic():
        return None
    coords = {v: template.coordinates[matcher.mapping[v]] for v in g.vertices}
    return r, coords


def extract_subwall_at(g, coords, q, x0=1, y0=1):
    """The q-subwall whose top-left sits at wall coordinate (x0, y0):
    rows y0..y0+q-1, columns x0..x0+2q-1, with the two degree-one corners
    left out.  Both offsets must be odd so the brick parity of the piece
    matches the host's; coordinate identity then makes it an elementary
    q-wall on the nose."""
    if x0 % 2 == 0 or y0 % 2 == 0:
        raise TmhError("subwall offsets must be odd, got (%d, %d)" % (x0, y0))
    inv = {xy: v for v, xy in coords.items()}
    sub_edges, removed = _elementary_wall_edges(q)
    vid = {}
    for y in range(1, q + 1):
        for x in range(1, 2 * q + 1):
            if (x, y) in removed:
                continue
            host_xy = (x0 + x - 1, y0 + y - 1)
            if host_xy not in inv:
                raise TmhError("subwall at (%d, %d) needs missing host "
                               "position %r" % (x0, y0, host_xy))
            vid[(x, y)] = inv[host_xy]
    edges = [(vid[a], vid[b]) for a, b in sub_edges]
    for u, v in edges:
        if not g.has_edge(u, v):
            raise TmhError("host is missing subwall edge %r-%r" % (u, v))
    sub = Graph(vid.values(), edges)
    horizontals = [[vid[(x, 1)] for x in range(1, 2 * q)]]
    for y in range(2, q):
        horizontals.append([vid[(x, y)] for x in range(1, 2 * q + 1)])
    horizontals.append([vid[(x, q)] for x in range(2, 2 * q + 1)])
    verticals = [_zigzag_path(vid, j, q) for j in range(1, q + 1)]
    emb, perimeter = _embed_wall(sub)
    coords_sub = {v: xy for xy, v in vid.items()}
    return Wall(sub, q, horizontals, verticals, perimeter,
                subdivision_vertices=(), coordinates=coords_sub, embedding=emb)


def find_wall(g, q, c=DEFAULT_WIDTH_FACTOR, tw_cap=DEFAULT_EXACT_TW_CAP):
    """Either a q-wall with a width-certified compass, or a tree
    decomposition of width at most c*q.  Wall recognition runs first so a
    host that is itself a wall gets the wall branch even when its width is
    below the bound.

    A non-planar graph is refused with EmbeddingError, after the height
    check.  The host is embedded only on the wall branch, where its
    rotation is read; the solver's passes, which know their graph is
    planar, run the same search without the planarity test."""
    if q % 2 == 0 or q < 3:
        raise TmhError("wall height must be odd and at least 3, got %d" % q)
    if not is_planar(g):
        raise EmbeddingError("graph is not planar")
    return _find_wall(g, q, c, tw_cap)


def _find_wall(g, q, c, tw_cap):
    # find_wall on a planar graph with a checked height; the host is
    # embedded only when it is recognised as a wall
    bound = c * q
    found = _recognize_elementary_wall(g)
    if found is not None and found[0] >= q:
        _, coords = found
        sub = extract_subwall_at(g, coords, q)
        emb = PlaneEmbedding._traced(g, planar_rotation(g), lambda faces: max(
            (len(f), i) for i, f in enumerate(faces))[1])
        region = DiskRegion.of_cycle(emb, sub.perimeter)
        compass_graph = region.subgraph("closed")
        if compass_graph != sub.host_subgraph:
            raise TmhError("disk of the subwall holds more than the subwall")
        compass = PartiallyDiskEmbedded(g, sub.embedding, sub.perimeter)
        if compass_graph.n <= tw_cap:
            _, cert = exact_treewidth(compass_graph, cap=tw_cap)
        else:
            cert = greedy_treewidth(compass_graph)
        if cert.width > bound:
            raise TmhError("compass certificate width %d exceeds %d" % (cert.width, bound))
        return WallWithCompass(sub, compass, cert)

    if g.n <= tw_cap:
        k, td = exact_treewidth(g, cap=tw_cap)
    else:
        td = greedy_treewidth(g)
        k = td.width
    if k <= bound:
        return td
    raise TmhError(
        "width %d exceeds %d and the host is not a recognizable wall; "
        "no conclusion at desk scale" % (k, bound))
