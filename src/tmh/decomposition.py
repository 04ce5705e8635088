"""Tree decompositions, exact small-instance treewidth, brambles, walls and
their layers, and the wall-or-width entry point.

Treewidth is represented by tree decompositions throughout (every consumer
here wants bags, not k-trees).  A min-fill elimination order gives the
certified upper bound that the solver's wall search uses, to decide its
width-bound branch and to certify a compass; the solver's fallback exit
builds none.  Exact widths come from a dynamic program over elimination
prefixes, capped by instance size; it serves find_wall's own
decomposition branch below the cap, the replay of traces without a
widths header in `tmh verify` (cli._replay_widths) and the tests.

Brambles certify lower bounds.  Besides direct validation and exact order
computation, the module can search for a maximum-order bramble through the
equivalent escape-function formulation, which is what makes an exhaustive
duality check affordable on small graphs.

Every wall carries the (x, y) coordinates of its vertices in the
elementary wall's grid and is embedded from them.  A host is recognised
as an elementary wall by placing a corner and its neighbours and
following the placements they force, so no general isomorphism test is
needed.
"""

from __future__ import annotations

import heapq
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
)
from .tm import BudgetExceeded, SearchBudget

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
    for u in g.vertices:
        at_u = holders[u]
        for v in g.neighbors(u):
            if u < v and at_u.isdisjoint(holders[v]):
                return DecompositionViolation("edge-uncovered", (u, v))
    shared = dict.fromkeys(holders, 0)
    for a in nodes:
        bag = td.bags[a]
        for b in td.tree.neighbors(a):
            if a < b:
                for v in bag & td.bags[b]:
                    shared[v] += 1
    for v in g.vertices:
        if shared[v] != len(holders[v]) - 1:
            return DecompositionViolation("occurrence-not-subtree", v)
    width = max((len(b) for b in td.bags.values()), default=0) - 1
    if width != td.width:
        return DecompositionViolation("width-mismatch", (td.width, width))
    return width


def _bitmask_adjacency(g):
    """One neighbour bitmask per vertex, bit i standing for g.vertices[i]."""
    index = {v: i for i, v in enumerate(g.vertices)}
    adj = []
    for v in g.vertices:
        mask = 0
        for w in g.neighbors(v):
            mask |= 1 << index[w]
        adj.append(mask)
    return adj


def _bits(mask):
    out = []
    while mask:
        b = mask & -mask
        mask ^= b
        out.append(b.bit_length() - 1)
    return out


def _eliminate(adj, i):
    # turn the neighbours of i into a clique and take i out of it
    nb = adj[i]
    for j in _bits(nb):
        adj[j] = (adj[j] | nb) & ~(1 << j) & ~(1 << i)


def _decomposition_from_order(g, order):
    """Standard fill-in construction: bag of v = v plus its not-yet
    eliminated neighborhood at elimination time."""
    index = {v: i for i, v in enumerate(g.vertices)}
    adj = _bitmask_adjacency(g)
    picks = [index[v] for v in order]
    later = []
    for i in picks:
        later.append(adj[i])
        _eliminate(adj, i)
    return _fill_in_decomposition(g, picks, later)


def _fill_in_decomposition(g, picks, later):
    """The decomposition of an elimination order, given as vertex indices
    with the bitmask of the neighbours each had when it went: that bag
    hangs below the bag of the first of those neighbours to go, or below
    the next bag if it had none."""
    vs = g.vertices
    step = [0] * len(vs)
    for s, i in enumerate(picks):
        step[i] = s
    bags = {}
    edges = []
    for s, i in enumerate(picks):
        nbrs = _bits(later[s])
        bags[s] = frozenset([vs[i]] + [vs[j] for j in nbrs])
        if nbrs:
            edges.append((s, min([step[j] for j in nbrs])))
        elif s + 1 < len(picks):
            edges.append((s, s + 1))
    return TreeDecomposition(Graph(range(len(picks)), edges), bags)


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
    vs = g.vertices
    adjm = _bitmask_adjacency(g)

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
    """Min-fill elimination (Bodlaender and Koster, Treewidth computations
    I. Upper bounds, 2010); certified upper bound via the decomposition.

    A vertex of degree d whose neighbours span e edges has fill
    C(d, 2) - e, and 2e is the sum over its neighbours u of
    |N(u) & N(v)|, read off the bitmask adjacency.  Each step eliminates
    the least vertex of least fill, popped from a heap of (fill, vertex).
    Eliminating v changes the neighbourhoods of its neighbours and the
    edges among the neighbours of their neighbours only, so only those
    fills are computed again; an entry whose fill is stale is skipped."""
    adj = _bitmask_adjacency(g)

    def fill(i):
        nb = adj[i]
        d = nb.bit_count()
        twice = d * (d - 1)  # twice the fill, as is every term below
        m = nb
        while m:
            b = m & -m
            m ^= b
            twice -= (adj[b.bit_length() - 1] & nb).bit_count()
        return twice

    fills = [fill(i) for i in range(g.n)]
    heap = [(f, i) for i, f in enumerate(fills)]
    heapq.heapify(heap)
    gone = 0
    picks = []
    later = []
    while len(picks) < g.n:
        f, pick = heapq.heappop(heap)
        if gone >> pick & 1 or f != fills[pick]:
            continue
        picks.append(pick)
        later.append(adj[pick])
        gone |= 1 << pick
        _eliminate(adj, pick)
        near = later[-1]
        for j in _bits(later[-1]):
            near |= adj[j]
        for j in _bits(near & ~gone):
            f = fill(j)
            if f != fills[j]:
                fills[j] = f
                heapq.heappush(heap, (f, j))
    return _fill_in_decomposition(g, picks, later)


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
    """A wall in its host subgraph: height r, horizontal and vertical
    paths, perimeter, coordinates and embedding.

    The coordinates give each vertex's (x, y) in the elementary wall's
    grid, with y growing downward, and the embedding is the one they
    draw: each vertex lists its neighbours above, right, below and left,
    and the perimeter is the outer face.  Every wall is built by
    _coordinate_wall."""

    __slots__ = ("host_subgraph", "r", "horizontal_paths", "vertical_paths",
                 "perimeter", "coordinates", "embedding")

    def __init__(self, host_subgraph, r, horizontal_paths, vertical_paths,
                 perimeter, coordinates, embedding):
        self.host_subgraph = host_subgraph
        self.r = r
        self.horizontal_paths = tuple(tuple(p) for p in horizontal_paths)
        self.vertical_paths = tuple(tuple(p) for p in vertical_paths)
        self.perimeter = tuple(perimeter)
        self.coordinates = dict(coordinates)
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


def _elementary_wall_edges(r):
    """The positions, row by row, and the edges of the elementary r-wall:
    the grid on [1..2r] x [1..r] with vertical edges only where x+y is
    even, and the two degree-one corners dropped."""
    removed = {(2 * r, 1), (1, r)}
    positions = [(x, y) for y in range(1, r + 1) for x in range(1, 2 * r + 1)
                 if (x, y) not in removed]
    kept = set(positions)
    edges = [((x, y), (x + 1, y)) for x, y in positions if (x + 1, y) in kept]
    edges += [((x, y), (x, y + 1)) for x, y in positions
              if (x + y) % 2 == 0 and (x, y + 1) in kept]
    return positions, edges


def build_elementary_wall(r):
    if r % 2 == 0 or r < 3:
        raise TmhError("wall height must be odd and at least 3, got %d" % r)
    positions, _ = _elementary_wall_edges(r)
    return _coordinate_wall(r, {(x, y): (y - 1) * 2 * r + x - 1 for x, y in positions})


def _coordinate_wall(r, vid):
    """The elementary r-wall whose vertex at position (x, y) is vid[(x, y)],
    with its paths, its coordinates, and the embedding and perimeter that
    its coordinates draw."""
    _, coord_edges = _elementary_wall_edges(r)
    g = Graph(vid.values(), [(vid[a], vid[b]) for a, b in coord_edges])
    horizontals = [[vid[(x, y)] for x in range(1, 2 * r + 1) if (x, y) in vid]
                   for y in range(1, r + 1)]
    verticals = [_zigzag_path(vid, j, r) for j in range(1, r + 1)]
    coords = {v: xy for xy, v in vid.items()}
    emb, perimeter = _embed_wall(g, _coordinate_rotation(g, coords))
    return Wall(g, r, horizontals, verticals, perimeter, coords, emb)


def _zigzag_path(vid, j, r):
    """Vertical path j: starts atop the odd column, then alternates the
    odd/even column pair row by row."""
    lo, hi = 2 * j - 1, 2 * j
    steps = [(lo, 1)] + [(x, y) for y in range(2, r + 1)
                         for x in ((lo, hi) if y % 2 == 0 else (hi, lo))]
    return [vid[xy] for xy in steps if xy in vid]


# the unit steps above, right, below and left: clockwise, as y grows downward
_CLOCKWISE = {(0, -1): 0, (1, 0): 1, (0, 1): 2, (-1, 0): 3}


def _coordinate_rotation(g, coords):
    """Each vertex's neighbours in the order above, right, below, left.  A
    wall drawn at its coordinates is a plane drawing with unit-step edges,
    so this rotation embeds it (Mohar and Thomassen, Graphs on Surfaces)."""
    rotation = {}
    for v in g.vertices:
        x, y = coords[v]
        rotation[v] = tuple(sorted(g.neighbors(v), key=lambda u: _CLOCKWISE[
            coords[u][0] - x, coords[u][1] - y]))
    return rotation


def _unique_longest(faces):
    # walls have hexagonal bricks, so their perimeter is the only long face
    sizes = sorted(((len(f), i) for i, f in enumerate(faces)), reverse=True)
    if len(sizes) > 1 and sizes[0][0] == sizes[1][0]:
        raise TmhError("ambiguous outer face; host is not a wall shape")
    return sizes[0][1]


def _long_face_walk(emb):
    """The vertices along the outer face, which is the unique longest face;
    refused if a vertex comes twice."""
    walk = emb.faces[emb.outer_face]
    if len(set(walk)) != len(walk):
        raise TmhError("outer walk revisits a vertex; host is not a wall shape")
    return walk


def _embed_wall(g, rotation):
    """g embedded under rotation with its unique longest face outside, and
    the perimeter walk read off that face."""
    emb = PlaneEmbedding(g, rotation, _unique_longest)
    return emb, _long_face_walk(emb)


def wall_layers(w):
    """Layer cycles, outermost first: the outer walk of the wall's
    embedding; then the wall's embedding restricted to what is left once
    that walk and the degree-one debris are removed, and its long face;
    and so on while anything is left.  A wall has minimum degree two, and
    so does each remnant, so each holds a cycle.  A restriction keeps the
    faces the peel left whole, so each layer traces only the faces along
    the one removed."""
    emb = w.embedding
    alive = {v: set(emb.graph.neighbors(v)) for v in emb.graph.vertices}
    layers = []
    while True:
        walk = _long_face_walk(emb)
        layers.append(walk)
        doomed = deque(walk)
        while doomed:
            v = doomed.popleft()
            if v in alive:
                for u in alive.pop(v):
                    alive[u].discard(v)
                    if len(alive[u]) <= 1:
                        doomed.append(u)
        if not alive:
            return layers
        emb = emb.restrict(alive, _unique_longest)


# -- the wall-or-width dichotomy --------------------------------------------


def _recognize_elementary_wall(g):
    """If g is isomorphic to an elementary wall, return (r, coordinates).

    A wall is rigid once a corner and its two neighbours are placed.  Each
    degree-2 vertex in sorted order, with its neighbours in either order,
    goes to (1, 1), (2, 1) and (1, 2), and _place fills in every other
    position.  The first placement that maps each template edge onto a
    host edge is an isomorphism, since n and m agree; on a host numbered
    row by row, as build_elementary_wall numbers it, that is the
    identity."""
    n = g.n
    r2 = (n + 2) // 2
    r = int(round(r2 ** 0.5))
    if r * r != r2 or r % 2 == 0 or r < 3 or 2 * r * r - 2 != n:
        return None
    positions, edges = _elementary_wall_edges(r)
    if g.m != len(edges):
        return None
    around = {p: [] for p in positions}
    for a, b in edges:
        around[a].append(b)
        around[b].append(a)
    for corner in g.vertices:
        if g.degree(corner) != 2:
            continue
        a, b = g.neighbors(corner)
        for right, down in ((a, b), (b, a)):
            img = _place(g, around, {(1, 1): corner, (2, 1): right, (1, 2): down})
            if img is not None and all(g.has_edge(img[p], img[q]) for p, q in edges):
                return r, {v: xy for xy, v in img.items()}
    return None


def _place(g, around, img):
    """Extend img, a map from template positions (around: position -> its
    template neighbours) to host vertices, by every image that is forced:
    the last free host neighbour of a placed vertex whose template
    neighbours are placed but one, or the one common neighbour of two
    placed vertices, which a wall's girth of 6 makes unique.  Returns the
    map once every position is placed, or None when a forced image is
    missing, ambiguous or taken, or a degree differs."""
    used = set(img.values())
    queue = deque(img)
    while queue:
        p = queue.popleft()
        v = img[p]
        if g.degree(v) != len(around[p]):
            return None
        free = [q for q in around[p] if q not in img]
        for q in free:
            placed = [img[t] for t in around[q] if t in img]
            if len(placed) >= 2:
                cand = set(g.neighbors(placed[0])).intersection(
                    *(g.neighbors(u) for u in placed[1:]))
            elif len(free) == 1:
                cand = set(g.neighbors(v)).difference(
                    img[t] for t in around[p] if t in img)
            else:
                continue
            cand -= used
            if len(cand) != 1:
                return None
            img[q] = u = cand.pop()
            used.add(u)
            queue.append(q)
            queue.extend(t for t in around[q] if t in img)
    return img if len(img) == len(around) else None


def extract_subwall_at(g, coords, q, x0=1, y0=1):
    """The q-subwall whose top-left sits at wall coordinate (x0, y0):
    rows y0..y0+q-1, columns x0..x0+2q-1, with the two degree-one corners
    left out.  Both offsets must be odd so the brick parity of the piece
    matches the host's; coordinate identity then makes it an elementary
    q-wall on the nose."""
    if x0 % 2 == 0 or y0 % 2 == 0:
        raise TmhError("subwall offsets must be odd, got (%d, %d)" % (x0, y0))
    inv = {xy: v for v, xy in coords.items()}
    positions, sub_edges = _elementary_wall_edges(q)
    vid = {}
    for x, y in positions:
        host_xy = (x0 + x - 1, y0 + y - 1)
        if host_xy not in inv:
            raise TmhError("subwall at (%d, %d) needs missing host "
                           "position %r" % (x0, y0, host_xy))
        vid[(x, y)] = inv[host_xy]
    for a, b in sub_edges:
        if not g.has_edge(vid[a], vid[b]):
            raise TmhError("host is missing subwall edge %r-%r" % (vid[a], vid[b]))
    return _coordinate_wall(q, vid)


def find_wall(g, q, c=DEFAULT_WIDTH_FACTOR):
    """Either a q-wall with a width-certified compass, or a tree
    decomposition of width at most c*q.  Wall recognition runs first so a
    host that is itself a wall gets the wall branch even when its width is
    below the bound.  The decomposition comes from the exact treewidth DP
    on at most DEFAULT_EXACT_TW_CAP vertices and from min-fill above that;
    the exact DP's other users are the replay of traces without a widths
    header in `tmh verify` and the tests.  The compass certificate is min-fill: the compass is a
    q-subwall, whose 2q^2 - 2 >= 16 vertices are above the cap anyway.

    A non-planar graph is refused with EmbeddingError, after the height
    check.  The host is embedded only on the wall branch, from the
    coordinates its recognition as a wall gives it; the solver's passes,
    which know their graph is planar, run the same search without the
    planarity test, and take the min-fill decomposition whatever the
    size, since its width only decides the branch."""
    if q % 2 == 0 or q < 3:
        raise TmhError("wall height must be odd and at least 3, got %d" % q)
    if not is_planar(g):
        raise EmbeddingError("graph is not planar")
    return _find_wall(g, q, c, lambda h: exact_treewidth(h)[1]
                      if h.n <= DEFAULT_EXACT_TW_CAP else greedy_treewidth(h))


def _find_wall(g, q, c, decompose):
    # find_wall on a planar graph with a checked height, taking the
    # decomposition branch's decomposition from decompose(g); the host is
    # embedded only when it is recognised as a wall, at its coordinates
    bound = c * q
    found = _recognize_elementary_wall(g)
    if found is not None and found[0] >= q:
        _, coords = found
        sub = extract_subwall_at(g, coords, q)
        emb, _ = _embed_wall(g, _coordinate_rotation(g, coords))
        region = DiskRegion.of_cycle(emb, sub.perimeter)
        compass_graph = region.subgraph("closed")
        if compass_graph != sub.host_subgraph:
            raise TmhError("disk of the subwall holds more than the subwall")
        compass = PartiallyDiskEmbedded(g, sub.embedding, sub.perimeter)
        cert = greedy_treewidth(compass_graph)
        if cert.width > bound:
            raise TmhError("compass certificate width %d exceeds %d" % (cert.width, bound))
        return WallWithCompass(sub, compass, cert)

    td = decompose(g)
    if td.width <= bound:
        return td
    raise TmhError(
        "width %d exceeds %d and the host is not a recognizable wall; "
        "no conclusion at desk scale" % (td.width, bound))
