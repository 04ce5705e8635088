"""Linkages and their rerouting machinery over railed annuli.

A linkage is a set of vertex-disjoint paths; its pattern is the set of
endpoint pairs.  The module provides exhaustive rerouting searches (cost
improvement against a degree-two base, minimal linkages relative to a
cycle family and a forbidden region), classification of how a linkage
interacts with nested cycles (streams, rivers, mountains, valleys, their
heights and pockets), the rotational ordering of disjoint streams around
a region, disjoint path routing through grids, confined
crossing families along annulus rails, and the two confinement entry
points: tame_linkage reroutes a linkage so that inside the middle band of
an annulus it runs only along chosen rails, and tame_tm_model does the
same for a subdivision model while preserving its branch vertices and its
dissolved shape.

Everything constructive here is verified against its own postconditions.
The configured threshold functions only gate hypothesis checks; when a
construction cannot be completed the entry points raise TameFailed instead
of returning an unverified object.
"""

import functools

from .graphs import (DiskRegion, Graph, NestedCycles, TmhError, _augment, _flood,
                     _normalize_edge, _path_edges)
from .annulus import _check_simple_path, rail_geometry
from .tm import TmPair, arcs, default_budget, dissolve


class TameFailed(TmhError):
    """A taming construction could not be completed.  The partial search is
    abandoned rather than returning an unverified linkage or model."""

    def __init__(self, stage, detail):
        super().__init__("taming failed during %s: %s" % (stage, detail))
        self.stage = stage
        self.detail = detail


def _default_f1(k):
    return 2 * k + 2


class TamingBudget:
    """Configured threshold functions for the taming hypotheses.

    f1 plays the role of the unique-linkage threshold: a closure or a
    table mapping a linkage size to an even, non-decreasing bound.  f2 is
    derived from it as 3*f1(k)**2 + 6*f1(k) + 2.  The true thresholds are
    non-constructive and astronomically large, so these stand in for them;
    every consumer verifies its output independently of the values here.
    """

    __slots__ = ("_f1",)

    def __init__(self, f1=None):
        self._f1 = f1 if f1 is not None else _default_f1

    def f1(self, k):
        if callable(self._f1):
            value = self._f1(k)
        else:
            try:
                value = self._f1[k]
            except KeyError:
                raise TmhError("the f1 table has no entry for %r" % (k,))
        if not isinstance(value, int) or value < 0 or value % 2:
            raise TmhError("f1(%r) must be an even non-negative integer, got %r"
                           % (k, value))
        return value

    def f2(self, k):
        m = self.f1(k)
        return 3 * m * m + 6 * m + 2


# -- linkages and patterns ---------------------------------------------------


class Linkage:
    """Pairwise vertex-disjoint non-trivial paths, stored end to end."""

    __slots__ = ("paths", "pattern", "terminals", "vertices", "edges")

    def __init__(self, paths):
        clean = []
        seen = set()
        edges = set()
        for p in paths:
            t = tuple(p)
            if len(t) < 2:
                raise TmhError("a linkage path needs at least one edge, got %r" % (t,))
            if len(set(t)) != len(t):
                raise TmhError("linkage path revisits a vertex: %r" % (t,))
            if seen & set(t):
                clash = sorted(seen & set(t))[0]
                raise TmhError("linkage paths share vertex %r" % (clash,))
            seen |= set(t)
            edges.update(_path_edges(t))
            clean.append(t)
        self.paths = tuple(clean)
        self.pattern = frozenset(frozenset((t[0], t[-1])) for t in clean)
        self.terminals = frozenset(v for t in clean for v in (t[0], t[-1]))
        self.vertices = frozenset(seen)
        self.edges = frozenset(edges)

    def union_graph(self):
        return Graph(self.vertices, self.edges)

    def canonical_key(self):
        return _canonical_paths_key(self.paths)

    def __len__(self):
        return len(self.paths)

    def __eq__(self, other):
        if not isinstance(other, Linkage):
            return NotImplemented
        return self.canonical_key() == other.canonical_key()

    def __hash__(self):
        return hash(self.canonical_key())

    def __repr__(self):
        return "Linkage(%d paths, %d vertices)" % (len(self.paths), len(self.vertices))


def equivalent(l1, l2):
    return l1.pattern == l2.pattern


def _require_in_graph(g, l, name="linkage"):
    for p in l.paths:
        for u, v in zip(p, p[1:]):
            if not g.has_edge(u, v):
                raise TmhError("%s step %r-%r is not an edge of the host" % (name, u, v))


class LBPair:
    """A linkage together with a base subgraph of maximum degree two; the
    cost cae counts the linkage edges that leave the base."""

    __slots__ = ("linkage", "base", "cae")

    def __init__(self, linkage, base):
        if base.max_degree() > 2:
            raise TmhError("the base of an LB-pair must have maximum degree 2, got %d"
                           % base.max_degree())
        self.linkage = linkage
        self.base = base
        self.cae = len(linkage.edges - base.edges)

    def __repr__(self):
        return "LBPair(%d paths, cae=%d)" % (len(self.linkage.paths), self.cae)


# -- exhaustive rerouting searches -------------------------------------------


def _canonical_paths_key(paths):
    return tuple(sorted(min(tuple(p), tuple(reversed(tuple(p)))) for p in paths))


def _search_linkages(steps, pairs, node_budget, better_than=None):
    """Exhaustive backtracking over vertex-disjoint path systems realizing
    the given terminal pairs along steps: a map from each vertex to its
    (neighbour, step cost) pairs in increasing neighbour order, symmetric
    in the two ends of a step.

    The cost of a system is the sum of its step costs.  Returns (cost,
    paths) for the cheapest system, ties broken toward the
    lexicographically least canonical form, or None when no system
    exists.  better_than admits only strictly cheaper systems.

    Partial paths grow in place, each step pushed before its recursion
    and popped after it, so nodes are visited as if each step copied the
    path.
    """
    pairs = sorted((min(u, v), max(u, v)) for u, v in pairs)
    if len(set(pairs)) != len(pairs):
        raise TmhError("pattern pairs must be distinct")
    terminals = set()
    for u, v in pairs:
        if u == v:
            raise TmhError("a pattern pair needs two distinct terminals")
        terminals.add(u)
        terminals.add(v)
    best = [None]

    def place(idx, used, acc, cost):
        if idx == len(pairs):
            key = _canonical_paths_key(acc)
            if best[0] is None or (cost, key) < (best[0][0], best[0][1]):
                best[0] = (cost, key, [tuple(p) for p in acc])
            return
        u, v = pairs[idx]
        blocked = terminals - {u, v}
        path = [u]
        on_path = {u}

        def extend(pcost):
            node_budget.spend()
            last = path[-1]
            if last == v:
                acc.append(tuple(path))
                place(idx + 1, used | on_path, acc, cost + pcost)
                acc.pop()
                return
            for w, step in steps[last]:
                if w in used or w in on_path or w in blocked:
                    continue
                ncost = pcost + step
                if better_than is not None and cost + ncost >= better_than:
                    continue
                if best[0] is not None and cost + ncost > best[0][0]:
                    continue
                path.append(w)
                on_path.add(w)
                extend(ncost)
                path.pop()
                on_path.discard(w)

        if u in steps and v in steps:
            extend(0)

    if not pairs:
        return (0, [])
    place(0, frozenset(), [], 0)
    if best[0] is None:
        return None
    return (best[0][0], best[0][2])


def improve_linkage(lb):
    """Search the union of the linkage and its base for an equivalent
    linkage of strictly smaller cae.

    Returns the cheapest such rerouting (lexicographically least among
    ties) or None when no equivalent linkage inside the union beats the
    current cost.  The search runs unconditionally, with no treewidth
    trigger, which is what makes the guarantee checkable on finite
    instances.
    """
    host = lb.linkage.union_graph().union(lb.base)
    base = lb.base.edges
    steps = {x: [(w, 0 if _normalize_edge(x, w) in base else 1)
                 for w in host.neighbors(x)] for x in host.vertices}
    pairs = [tuple(sorted(pair)) for pair in lb.linkage.pattern]
    found = _search_linkages(steps, pairs, default_budget(), better_than=lb.cae)
    if found is None:
        return None
    cost, paths = found
    improved = Linkage(paths)
    if cost >= lb.cae:
        raise TmhError("search returned a non-improving rerouting")
    return improved


def minimal_linkage(g, cycles, d, l, node_budget=None):
    """The cheapest linkage equivalent to l inside l plus the cycle family
    minus the region d, cost counted as edges off the cycles.

    Preconditions: the terminals of l avoid the band of the cycle family,
    and l avoids the closed region d.  The search is exhaustive, so the
    result is a global minimum; rerunning improve_linkage on it finds
    nothing by construction.

    The search steps along the cycles' own vertex orders and l's paths:
    a cycle step with neither end in d costs 0, any other step of l
    costs 1.  The terminals are checked against the band one by one
    (AnnulusBand.has_vertex), so no disk's sets are built for them.
    """
    _require_in_graph(g, l)
    node_budget = node_budget if node_budget is not None else default_budget()
    band = cycles.annulus(1, cycles.r)
    bad = [t for t in l.terminals if band.has_vertex(t)]
    if bad:
        raise TmhError("linkage terminal %r lies inside the cycle band" % (min(bad),))
    banned = frozenset()
    if d is not None:
        banned = d.vertices("closed")
        hit = l.vertices & banned
        if hit:
            raise TmhError("linkage meets the forbidden region at %r"
                           % (sorted(hit)[0],))
    steps = {}
    for c in cycles.cycles:
        for x, y in zip(c, c[1:] + c[:1]):
            if x not in banned and y not in banned:
                steps.setdefault(x, {})[y] = 0
                steps.setdefault(y, {})[x] = 0
    for p in l.paths:
        for x, y in zip(p, p[1:]):
            steps.setdefault(x, {}).setdefault(y, 1)
            steps.setdefault(y, {}).setdefault(x, 1)
    pairs = [tuple(sorted(pair)) for pair in l.pattern]
    found = _search_linkages({x: sorted(ws.items()) for x, ws in steps.items()},
                             pairs, node_budget)
    if found is None:
        raise TmhError("the linkage itself vanished from its own search space")
    _, paths = found
    return Linkage(paths)


# -- terrain classification --------------------------------------------------


class TerrainFeature:
    """One mountain or valley: its path, the cycle it is based on, its
    height, the pocket disk it cuts off, and whether it is tight."""

    __slots__ = ("kind", "path", "base", "dehe", "disk", "tight")

    def __init__(self, kind, path, base, dehe, disk):
        self.kind = kind
        self.path = tuple(path)
        self.base = base
        self.dehe = dehe
        self.disk = disk
        self.tight = None

    def __repr__(self):
        return "TerrainFeature(%s, base=%d, dehe=%d, tight=%r)" % (
            self.kind, self.base, self.dehe, self.tight)


class Terrain:
    """Complete classification of a linkage against nested cycles."""

    __slots__ = ("streams", "rivers", "mountains", "valleys")

    def __init__(self, streams, rivers, mountains, valleys):
        self.streams = list(streams)
        self.rivers = list(rivers)
        self.mountains = list(mountains)
        self.valleys = list(valleys)

    def max_dehe(self):
        return max((f.dehe for f in self.mountains + self.valleys), default=0)

    def __repr__(self):
        return "Terrain(%d streams, %d rivers, %d mountains, %d valleys)" % (
            len(self.streams), len(self.rivers), len(self.mountains),
            len(self.valleys))


def classify_terrain(g, cycles, d, l):
    """Enumerate every stream, river, mountain, and valley of l against the
    nested cycle family, with heights, pocket disks, and tightness flags.

    Mountains are subpaths dipping inward from a base cycle, valleys
    subpaths bulging outward; a feature's pocket must avoid the linkage
    terminals and the region d.  Rivers are the streams contained in no
    mountain or valley.  Features of height at most two are tight by
    definition; taller ones are checked for a witness chain.
    """
    _require_in_graph(g, l)
    emb = cycles.embedding
    r = cycles.r
    regions = cycles.regions
    band = cycles.annulus(1, r)
    cyc_sets = [set(c) for c in cycles.cycles]
    cyc_of = {v: i for i, c in enumerate(cycles.cycles, start=1) for v in c}
    cyc_edge_sets = [set(_path_edges(c, closed=True)) for c in cycles.cycles]
    all_faces = set(range(len(emb.faces)))
    # a disk builds its face set on each read, so each is read once
    interior = functools.cache(lambda i: regions[i - 1].interior_faces)
    inner_seed = interior(r)
    outer_seed = all_faces - interior(1)
    d_faces = d.interior_faces if d is not None else frozenset()
    d_closed = d.vertices("closed") if d is not None else frozenset()

    streams = []
    mountains = []
    valleys = []

    for pi in l.paths:
        n = len(pi)
        # maximal in-band runs of the path
        runs = []
        idx = 0
        while idx < n:
            if pi[idx] not in band.vertices:
                idx += 1
                continue
            j = idx
            while (j + 1 < n and pi[j + 1] in band.vertices
                   and _normalize_edge(pi[j], pi[j + 1]) in band.edges):
                j += 1
            runs.append((idx, j))
            idx = j + 1
        # a stream meets C_1 and C_r only at its ends, one on each, so its
        # ends are consecutive contacts of the run with those two cycles
        for lo, hi in runs:
            ends = [t for t in range(lo, hi + 1) if cyc_of.get(pi[t]) in (1, r)]
            for a, b in zip(ends, ends[1:]):
                if cyc_of[pi[a]] != cyc_of[pi[b]]:
                    p = pi[a:b + 1]
                    streams.append(p if cyc_of[p[0]] == 1 else tuple(reversed(p)))

        # a feature has both ends on its base cycle (the cycles are
        # disjoint, so the start fixes it) and meets that cycle in exactly
        # two runs; the run count only grows with the subpath, so each
        # start scans forward until a third run begins
        for a in range(n):
            base_i = cyc_of.get(pi[a])
            if base_i is None:
                continue
            reg = regions[base_i - 1]
            cyc_edges = cyc_edge_sets[base_i - 1]
            contact_runs = 1
            for b in range(a + 1, n):
                if cyc_of.get(pi[b]) != base_i:
                    continue
                if _normalize_edge(pi[b - 1], pi[b]) not in cyc_edges:
                    contact_runs += 1
                    if contact_runs > 2:
                        break
                if contact_runs < 2:
                    continue
                p = pi[a:b + 1]
                pv = set(p)
                pe = set(_path_edges(p))
                for kind in ("mountain", "valley"):
                    if kind == "mountain":
                        if not (pv <= reg.vertices("closed")
                                and pe <= reg.edges("closed")):
                            continue
                        if (pv & regions[r - 1].vertices("open")
                                or pe & regions[r - 1].edges("open")):
                            continue
                    else:
                        if (pv & reg.vertices("open")
                                or pe & reg.edges("open")):
                            continue
                        if not (pv <= regions[0].vertices("closed")
                                and pe <= regions[0].edges("closed")):
                            continue
                    # the pocket is what a flood from the far side of
                    # the base cycle leaves unreached
                    if kind == "mountain":
                        walled = all_faces - interior(base_i)
                        seeds = inner_seed
                    else:
                        walled = set(interior(base_i))
                        seeds = outer_seed
                    _flood(emb, walled, seeds, pe)
                    pocket_faces = all_faces - walled
                    if not pocket_faces:
                        continue
                    pocket = DiskRegion(emb, pocket_faces, ())
                    pocket_v = pocket.vertices("closed")
                    if pocket_v & l.terminals:
                        continue
                    if d is not None and (pocket_faces & d_faces
                                          or pocket_v & d_closed):
                        continue
                    if kind == "mountain":
                        deep = max(j for j in range(base_i, r + 1)
                                   if pv & cyc_sets[j - 1])
                        dehe = deep - base_i + 1
                    else:
                        shallow = min(j for j in range(1, base_i + 1)
                                      if pv & cyc_sets[j - 1])
                        dehe = base_i - shallow + 1
                    feature = TerrainFeature(kind, p, base_i, dehe, pocket)
                    if kind == "mountain":
                        mountains.append(feature)
                    else:
                        valleys.append(feature)

    feature_vsets = [set(f.path) for f in mountains + valleys]
    rivers = [s for s in streams
              if not any(set(s) <= fv for fv in feature_vsets)]
    terrain = Terrain(streams, rivers, mountains, valleys)
    for f in mountains + valleys:
        f.tight = True if f.dehe <= 2 else check_tight(f, terrain)
    return terrain


def check_tight(entry, terrain):
    """Whether a witness chain of same-based features exists: one of every
    height from 2 up to the entry's, each contained in the pocket of the
    next.  Height two is vacuously tight with the entry as its own witness."""
    if entry.dehe < 2:
        raise TmhError("tightness is defined for features of height at least 2")
    pool = terrain.mountains if entry.kind == "mountain" else terrain.valleys
    pool = [f for f in pool if f.base == entry.base and f.kind == entry.kind]
    level = [entry]
    for j in range(entry.dehe - 1, 1, -1):
        nxt = []
        for f in pool:
            if f.dehe != j:
                continue
            fv = set(f.path)
            fe = set(_path_edges(f.path))
            for s in level:
                if (fv <= s.disk.vertices("closed")
                        and fe <= s.disk.edges("closed")):
                    nxt.append(f)
                    break
        if not nxt:
            return False
        level = nxt
    return True


# -- stream orderings --------------------------------------------------------


def d_ordering(cycles, z, d):
    """The rotation of a disjoint stream collection placing the region d in
    the gap after the last stream, walking the outer cycle in its stored
    rotational direction.

    Streams are returned oriented from the outer cycle to the inner one.
    Errors: the region meets a stream, a stream does not join the two
    boundary cycles, or the region's slot between streams cannot be
    located.
    """
    r = cycles.r
    g = cycles.embedding.graph
    c1 = cycles.cycles[0]
    c1_set = set(c1)
    cr_set = set(cycles.cycles[r - 1])
    oriented = []
    seen = set()
    for s in z:
        t = tuple(s)
        if set(t) & seen:
            raise TmhError("streams share vertex %r" % (sorted(set(t) & seen)[0],))
        seen |= set(t)
        if t[0] in c1_set and t[-1] in cr_set:
            oriented.append(t)
        elif t[-1] in c1_set and t[0] in cr_set:
            oriented.append(tuple(reversed(t)))
        else:
            raise TmhError("stream %r does not join the two boundary cycles" % (t[:3],))
    d_closed = d.vertices("closed")
    band = cycles.annulus(1, r)
    if not (d_closed <= band.vertices):
        raise TmhError("the region leaves the cycle band")
    if d_closed & seen:
        raise TmhError("the region meets a stream at %r"
                       % (sorted(d_closed & seen)[0],))
    if len(oriented) <= 1:
        return list(oriented)

    pos1 = {v: k for k, v in enumerate(c1)}
    spos = sorted((pos1[t[0]], idx) for idx, t in enumerate(oriented))
    bandg = band.subgraph_of(g)
    cleared = bandg.delete_vertices(seen)
    comp = None
    for c in cleared.connected_components():
        if set(c) & d_closed:
            comp = set(c)
            break
    if comp is None:
        raise TmhError("the region vanished with the streams removed")
    marks = sorted(pos1[v] for v in comp if v in c1_set)
    if not marks:
        raise TmhError("cannot locate the region's slot between the streams")
    npos = len(c1)
    k = len(spos)
    slot = None
    for t in range(k):
        a = spos[t][0]
        b = spos[(t + 1) % k][0]
        width = (b - a) % npos
        if all(0 < (q - a) % npos < width for q in marks):
            slot = t
            break
    if slot is None:
        raise TmhError("the region's component spans more than one stream gap")
    order = [spos[(slot + 1 + j) % k][1] for j in range(k)]
    return [oriented[idx] for idx in order]


# -- grid rerouting ----------------------------------------------------------


def grid_reroute(dims, top, bottom):
    """Vertex-disjoint paths through a grid joining the h-th top column to
    the h-th bottom column.

    dims is (columns, rows) with rows <= columns; top and bottom are
    strictly increasing column lists of equal length, at most the row
    count.  Returns one path per pair as (row, column) tuples; the
    left-to-right pairing is forced by planarity and verified.
    """
    k, kp = dims
    if not (1 <= kp <= k):
        raise TmhError("grid dimensions need 1 <= rows <= columns, got %r" % (dims,))
    top = list(top)
    bottom = list(bottom)
    if len(top) != len(bottom):
        raise TmhError("top and bottom endpoint counts differ")
    rho = len(top)
    if rho == 0:
        return []
    for name, cols in (("top", top), ("bottom", bottom)):
        if any(not (1 <= c <= k) for c in cols):
            raise TmhError("%s column out of range [1, %d]: %r" % (name, k, cols))
        if any(a >= b for a, b in zip(cols, cols[1:])):
            raise TmhError("%s columns must increase left to right, got %r"
                           % (name, cols))
    if rho > kp:
        raise TmhError("%d paths cannot cross %d rows disjointly" % (rho, kp))

    # unit-capacity flow with split vertices; all nodes encoded as ints
    def n_in(row, col):
        return 2 * ((row - 1) * k + (col - 1))

    def n_out(row, col):
        return n_in(row, col) + 1

    source, sink = -1, -2
    residual = {}
    heads = {}

    def arc(a, b):
        residual[(a, b)] = 1
        residual[(b, a)] = 0
        heads.setdefault(a, []).append(b)

    for row in range(1, kp + 1):
        for col in range(1, k + 1):
            arc(n_in(row, col), n_out(row, col))
            if col < k:
                arc(n_out(row, col), n_in(row, col + 1))
                arc(n_out(row, col + 1), n_in(row, col))
            if row < kp:
                arc(n_out(row, col), n_in(row + 1, col))
                arc(n_out(row + 1, col), n_in(row, col))
    for c in top:
        arc(source, n_in(1, c))
    for c in bottom:
        arc(n_out(kp, c), sink)
    if _augment(residual, source, sink, rho) < rho:
        raise TmhError("grid routing infeasible for %r -> %r" % (top, bottom))

    # an arc carries a unit exactly when its residual is spent; one unit
    # enters each cell a path uses, so one arc of flow leaves it
    paths = []
    for h, c in enumerate(top):
        cells = [(1, c)]
        cur = n_out(1, c)
        while True:
            nxt = next((b for b in heads[cur] if residual[(cur, b)] == 0), None)
            if nxt is None or nxt == sink:
                break
            row, col = divmod(nxt // 2, k)
            cells.append((row + 1, col + 1))
            cur = nxt + 1
        if cells[-1] != (kp, bottom[h]):
            raise TmhError("disjoint routing violates the left-to-right pairing")
        paths.append(cells)
    return paths


# -- composite annulus cycles ------------------------------------------------


def ca_cycles(a, geo=None):
    """The nested family of composite cycles running along matched pairs of
    annulus cycles and the rails joining them: the i-th follows cycles i
    and r-i+1 between rails i and q-i+1.  Defined down to depth
    min(r, q) // 2; both dimensions must be at least 5.

    The i-th cycle bounds geo.delta_disk(i, r-i+1, i, q-i+1).  Those disks
    are flooded together, outermost first (see NestedCycles), and each is
    kept in geo.delta_disks under its key unless a disk is there already."""
    if a.r < 5 or a.q < 5:
        raise TmhError("composite cycles need r, q >= 5, got (%d, %d)" % (a.r, a.q))
    if geo is None:
        geo = rail_geometry(a)
    z = min(a.r, a.q) // 2
    keys = [(i, a.r - i + 1, i, a.q - i + 1) for i in range(1, z + 1)]
    nested = NestedCycles(a.embedding, [geo._frame_cycle(key) for key in keys])
    for key, disk in zip(keys, nested.regions):
        geo.delta_disks.setdefault(key, disk)
    return nested


# -- confined crossing families along rails ----------------------------------


def _subwalk(run, u, v):
    """The portion of a crossing tuple between two of its vertices, oriented
    from u to v."""
    pos = {x: t for t, x in enumerate(run)}
    iu, iv = pos[u], pos[v]
    if iu <= iv:
        return list(run[iu:iv + 1])
    return list(reversed(run[iv:iu + 1]))


def _stitch(walk, piece):
    """Append a walk segment, splicing at the shared vertex.  Either the
    current end lies on the piece (its prefix up to there is dropped) or
    the piece's start lies on the walk (the walk is cut back to it)."""
    piece = list(piece)
    if not walk:
        return piece
    last = walk[-1]
    if last in piece:
        j = piece.index(last)
        return walk + piece[j + 1:]
    if piece[0] in walk:
        i = walk.index(piece[0])
        return walk[:i + 1] + piece[1:]
    raise TmhError("walk segments do not meet")


def _check_walk(g, walk, name):
    if len(walk) < 2:
        raise TmhError("%s degenerated to a single vertex" % name)
    _check_simple_path(g, walk, name)


def _expand_grid_path(geo, gpath, row_to_cycle, cover_last, enter_vertex=None):
    """Replay a grid path on the annulus: grid cells become rail crossings,
    grid edges become the lateral or radial connector paths between them.

    The first crossing is traversed fully from its far end unless
    enter_vertex fixes the entry; the last is traversed fully when
    cover_last is true, else walked from its arrival vertex to its
    rail-forward end so a radial continuation attaches cleanly.
    """
    a = geo.annulus
    runs = [a.crossings[(row_to_cycle(row), col)] for row, col in gpath]
    conns = []
    for (r1, c1), (r2, c2) in zip(gpath, gpath[1:]):
        if r1 == r2:
            conns.append(list(geo.l_path(row_to_cycle(r1), c1, c2)))
        else:
            conns.append(list(geo.r_path(row_to_cycle(r1), row_to_cycle(r2), c1)))

    if not conns:
        # single-cell path: the whole crossing, entered as requested
        run = runs[0]
        if enter_vertex is None:
            walk = list(run)
        else:
            end = run[-1] if enter_vertex == run[0] else run[0]
            walk = _subwalk(run, enter_vertex, end)
        return walk

    first = runs[0]
    att = conns[0][0]
    if att not in (first[0], first[-1]):
        raise TmhError("connector attaches inside a crossing, not at an end")
    if enter_vertex is None:
        start = first[-1] if att == first[0] else first[0]
    else:
        start = enter_vertex
    walk = _subwalk(first, start, att)
    for t, conn in enumerate(conns):
        walk = _stitch(walk, conn)
        run = runs[t + 1]
        if t + 1 < len(conns):
            walk = _stitch(walk, _subwalk(run, conn[-1], conns[t + 1][0]))
    last_run = runs[-1]
    arrival = conns[-1][-1]
    if cover_last:
        if arrival not in (last_run[0], last_run[-1]):
            raise TmhError("connector attaches inside a crossing, not at an end")
        end = last_run[-1] if arrival == last_run[0] else last_run[0]
        walk = _stitch(walk, _subwalk(last_run, arrival, end))
    else:
        walk = _stitch(walk, _subwalk(last_run, arrival, last_run[-1]))
    return walk


def rail_linkage(a, s, b, d, i_set):
    """d disjoint crossing paths of the annulus, each entering on rail b+h,
    transferring to the h-th chosen rail inside the first b cycle levels,
    running that rail through the middle, and transferring back in the
    last b levels; the result is confined to the chosen rails on the
    middle s-band.

    Requires r >= s+2b, q >= b+d, at least d chosen rails, and d <= b (the
    transfers cross d disjoint paths through a b-row region, which is the
    binding width).  d = 0 yields the empty linkage.
    """
    if b < 1:
        raise TmhError("the transfer band needs b >= 1, got %r" % (b,))
    if d < 0:
        raise TmhError("negative path count %r" % (d,))
    if s % 2 == 0 or s < 1:
        raise TmhError("band width must be odd and positive, got %r" % (s,))
    if a.r < s + 2 * b:
        raise TmhError("need r >= s + 2b: r=%d, s=%d, b=%d" % (a.r, s, b))
    if a.q < b + d:
        raise TmhError("need q >= b + d: q=%d, b=%d, d=%d" % (a.q, b, d))
    rails = sorted(set(i_set))
    if any(not (1 <= j <= a.q) for j in rails):
        raise TmhError("rail index out of range [1, %d]: %r" % (a.q, rails))
    if len(rails) < d:
        raise TmhError("need at least %d chosen rails, got %d" % (d, len(rails)))
    if d > b:
        raise TmhError("%d transfers cannot cross a %d-level band disjointly"
                       % (d, b))
    if d == 0:
        return Linkage([])
    geo = rail_geometry(a)
    chosen = rails[:d]
    grid = grid_reroute((a.q, b), [b + h for h in range(1, d + 1)], chosen)

    g = a.embedding.graph
    paths = []
    for h in range(1, d + 1):
        gp = grid[h - 1]
        down = _expand_grid_path(geo, gp, lambda row: row, False)
        mid = list(geo.r_path(b, a.r - b + 1, chosen[h - 1]))
        up_gp = list(reversed(gp))
        up = _expand_grid_path(geo, up_gp, lambda row: a.r + 1 - row, True,
                               enter_vertex=mid[-1])
        walk = _stitch(_stitch(down, mid), up)
        _check_walk(g, walk, "crossing path %d" % h)
        top_run = a.crossings[(1, b + h)]
        bot_run = a.crossings[(a.r, b + h)]
        for run, name in ((top_run, "outer"), (bot_run, "inner")):
            if not set(_path_edges(run)) <= set(_path_edges(walk)):
                raise TmhError(
                    "crossing path %d does not cover its %s terminal run" % (h, name))
        paths.append(walk)
    result = Linkage(paths)
    if not a.confines(result, s, rails):
        raise TmhError("constructed crossing family leaks off its rails")
    return result


# -- linkage taming ----------------------------------------------------------


def _outside_parts(l, band):
    """The vertices and the edges of l (a Linkage or a Graph) off the band."""
    return frozenset(l.vertices) - band.vertices, frozenset(l.edges) - band.edges


def _check_hypotheses(names, force):
    failed = [msg for ok, msg in names if not ok]
    if failed and not force:
        raise TmhError("taming hypotheses not met (pass force=True to attempt "
                       "anyway): " + "; ".join(failed))
    return failed


def tame_linkage(g, a, l, s, i_set, budget=None, force=False, node_budget=None):
    """Reroute a linkage so that inside the middle s-band of the annulus it
    runs only along the chosen rails, preserving its pattern and touching
    nothing new outside the annulus.

    The linkage must avoid the annulus (no terminals inside the band).
    The configured budget gates the size hypotheses; force attempts the
    construction regardless.  On success all four guarantees are verified
    independently: same pattern, annulus avoidance, no new parts outside
    the band, and confinement.  A construction that cannot be completed
    and verified raises TameFailed.
    """
    budget = budget if budget is not None else TamingBudget()
    node_budget = node_budget if node_budget is not None else default_budget()
    _require_in_graph(g, l)
    if a.r < 5 or a.q < 5:
        raise TmhError("taming needs an annulus with r, q >= 5, got (%d, %d)"
                       % (a.r, a.q))
    rails = sorted(set(i_set))
    if not rails or any(not (1 <= j <= a.q) for j in rails):
        raise TmhError("chosen rails must be a non-empty subset of [1, %d], got %r"
                       % (a.q, rails))
    band = a.cycles.annulus(1, a.r)
    bad = [t for t in l.terminals if band.has_vertex(t)]
    if bad:
        raise TmhError("linkage terminal %r lies inside the annulus" % (min(bad),))
    if a.confines(l, s, rails):
        return l
    k = len(l.paths)
    m = budget.f1(k)
    _check_hypotheses([
        (a.r >= budget.f2(k) + s, "r=%d < f2(%d)+s=%d" % (a.r, k, budget.f2(k) + s)),
        (2 * a.q >= 5 * m, "q=%d < 5*f1(%d)/2=%.1f" % (a.q, k, 5 * m / 2)),
        (len(rails) > m, "|I|=%d <= f1(%d)=%d" % (len(rails), k, m)),
    ], force)

    geo = rail_geometry(a)
    ca = ca_cycles(a, geo=geo)
    flat = minimal_linkage(g, ca, None, l, node_budget=node_budget)

    r, q = a.r, a.q
    z = min(r, q) // 2
    b_hi = min(z - 1, (r - 3) // 2, (q - 3) // 2)
    if b_hi < 1:
        raise TameFailed("sizing", "annulus (%d, %d) leaves no room for a "
                         "forbidden sector" % (r, q))
    reasons = []
    plan = None
    for b in range(1, b_hi + 1):
        sector = geo.delta_disk(b + 1, r - b, b + 1, q - b)
        if flat.vertices & sector.vertices("closed"):
            reasons.append("b=%d: flattened linkage still meets the sector" % b)
            continue
        settled = minimal_linkage(g, a.cycles, sector, flat,
                                  node_budget=node_budget)
        terrain = classify_terrain(g, a.cycles, sector, settled)
        dcount = len(terrain.rivers)
        deepe = terrain.max_dehe()
        if deepe > b:
            reasons.append("b=%d: a feature of height %d exceeds the band" % (b, deepe))
            continue
        if dcount > len(rails):
            reasons.append("b=%d: %d rivers but only %d chosen rails"
                           % (b, dcount, len(rails)))
            continue
        if dcount > b:
            reasons.append("b=%d: %d rivers exceed the transfer width" % (b, dcount))
            continue
        w = (dcount + 1) * b + 2
        wp = r - (dcount + 1) * b - 1
        if wp - w + 1 < s + 2 * b:
            reasons.append("b=%d: inner window of %d levels is short of %d"
                           % (b, wp - w + 1, s + 2 * b))
            continue
        if q < 2 * b + dcount:
            reasons.append("b=%d: %d rails cannot hold the sector and %d transfers"
                           % (b, q, dcount))
            continue
        plan = (b, sector, settled, terrain, dcount, w, wp)
        break
    if plan is None:
        raise TameFailed("sizing", "no transfer width fits: " + "; ".join(reasons))
    b, sector, settled, terrain, dcount, w, wp = plan

    if dcount == 0:
        ltilde = settled
    else:
        ordered = d_ordering(a.cycles, terrain.rivers, sector)
        inner = a.window(w, wp)
        crossing = rail_linkage(inner, s, b, dcount, rails[:dcount])
        sector_open = sector.vertices("open")
        cyc_graphs = {}

        def cycle_graph(i):
            if i not in cyc_graphs:
                c = a.cycles.cycles[i - 1]
                cyc_graphs[i] = Graph(c, _path_edges(c, closed=True))
            return cyc_graphs[i]

        def half_walk(river, idx, depth, window_cycle):
            """The replacement tail on one side, starting at the river's
            first vertex on the cut cycle: around the cycle to the wide
            sector rail (the stub side stays strictly shallower, so this
            arc meets only linkage parts the surgery removes), back through
            the sector interior to the transfer rail, and along that rail
            to the window cycle."""
            cyc = cycle_graph(depth)
            cset = set(a.cycles.cycles[depth - 1])
            wide = a.crossings[(depth, q - b)]
            x = None
            for v in river:
                if v in cset:
                    x = v
                    break
            if x is None:
                raise TameFailed("cutting", "river misses cycle %d" % depth)
            certify = cyc.shortest_path(x, set(wide),
                                        forbidden_vertices=sector_open)
            if certify is None:
                raise TameFailed("cutting", "no arc to the wide rail on cycle %d"
                                 % depth)
            rail_j = b + idx
            run = a.crossings[(depth, rail_j)]
            blocked = set(a.crossings[(depth, q)])
            arc = cyc.shortest_path(certify[-1], set(run),
                                    forbidden_vertices=blocked)
            if arc is None:
                raise TameFailed("cutting", "no sector arc from rail %d to rail "
                                 "%d on cycle %d" % (q - b, rail_j, depth))
            descent = list(geo.r_path(depth, window_cycle, rail_j))
            walk = _stitch(list(certify), arc)
            walk = _stitch(walk, _subwalk(run, arc[-1], descent[0]))
            walk = _stitch(walk, descent)
            return x, walk

        replacements = {}
        for idx, river in enumerate(ordered, start=1):
            down_depth = (idx + 1) * b + 1
            up_depth = r - (idx + 1) * b
            x_down, down_tail = half_walk(river, idx, down_depth, w)
            x_up, up_tail = half_walk(tuple(reversed(river)), idx, up_depth, wp)
            pos = {v: t for t, v in enumerate(river)}
            if pos[x_down] >= pos[x_up]:
                raise TameFailed("cutting", "river cut vertices out of order")
            stub_down = list(river[:pos[x_down] + 1])
            stub_up = list(river[pos[x_up]:])
            walk = _stitch(stub_down, down_tail)
            kp_path = crossing.paths[idx - 1]
            head = set(a.crossings[(w, b + idx)])
            if kp_path[0] not in head and kp_path[-1] in head:
                kp_path = tuple(reversed(kp_path))
            walk = _stitch(walk, list(kp_path))
            up_full = _stitch(list(reversed(stub_up)), up_tail)
            walk = _stitch(walk, list(reversed(up_full)))
            replacements[river] = walk

        new_paths = []
        for pi in settled.paths:
            pos = {v: t for t, v in enumerate(pi)}
            spans = []
            for river, walk in replacements.items():
                if river[0] in pos and river[-1] in pos:
                    lo, hi = sorted((pos[river[0]], pos[river[-1]]))
                    seg = pi[lo:hi + 1]
                    if seg == river:
                        spans.append((lo, hi, walk))
                    elif tuple(reversed(seg)) == river:
                        spans.append((lo, hi, list(reversed(walk))))
            out = list(pi)
            for lo, hi, walk in sorted(spans, reverse=True):
                out[lo:hi + 1] = walk
            new_paths.append(out)
        try:
            ltilde = Linkage(new_paths)
        except TmhError as err:
            raise TameFailed("splicing", str(err))

    try:
        _require_in_graph(g, ltilde, "tamed linkage")
    except TmhError as err:
        raise TameFailed("verification", str(err))
    if not equivalent(l, ltilde):
        raise TameFailed("verification", "pattern changed")
    if any(band.has_vertex(t) for t in ltilde.terminals):
        raise TameFailed("verification", "a terminal moved into the annulus")
    ov, oe = _outside_parts(ltilde, band)
    lv, le = _outside_parts(l, band)
    if not (ov <= lv and oe <= le):
        raise TameFailed("verification", "new material appeared outside the annulus")
    off_v, off_e = a.confinement_offenders(ltilde, s, rails)
    if off_v or off_e:
        witness = sorted(off_v)[:3] or sorted(off_e)[:3]
        raise TameFailed("verification", "not confined, offenders %r" % (witness,))
    return ltilde


def tame_tm_model(g, a, m, s, i_set, budget=None):
    """Reroute a subdivision model so it crosses the middle s-band of the
    annulus only along the chosen rails, keeping its branch vertices, its
    dissolved shape, and everything outside the annulus.

    Branch vertices must avoid the annulus entirely.  The subdivision
    paths between branch neighbors form a linkage that is tamed inside the
    annulus shrunk by one cycle on each side; the model is then reassembled
    edge by edge around the rerouted paths and verified."""
    budget = budget if budget is not None else TamingBudget()
    band = a.cycles.annulus(1, a.r)
    t_in = m.branches & band.vertices
    if t_in:
        raise TmhError("branch vertex %r lies inside the annulus"
                       % (sorted(t_in)[0],))
    model_v = set(m.model.vertices)
    if not (model_v & band.vertices):
        return m

    arc_list, leftover = arcs(m)
    if leftover:
        raise TmhError("model has branchless components through %r"
                       % (sorted(leftover)[:4],))
    ge = len(arc_list)
    mm = budget.f1(ge)
    _check_hypotheses([
        (a.r >= budget.f2(ge) + 2 + s,
         "r=%d < f2(%d)+2+s=%d" % (a.r, ge, budget.f2(ge) + 2 + s)),
        (2 * a.q >= 5 * mm, "q=%d < 5*f1(%d)/2=%.1f" % (a.q, ge, 5 * mm / 2)),
        (len(set(i_set)) > mm, "|I|=%d <= f1(%d)=%d" % (len(set(i_set)), ge, mm)),
    ], force=False)

    shrunk = a.window(2, a.r - 1)
    link_paths = [interior for _, _, interior in arc_list if len(interior) >= 2]
    link = Linkage(link_paths)
    tamed = tame_linkage(g, shrunk, link, s, i_set, budget=budget, force=True)

    new_edges = (m.model.edges - link.edges) | tamed.edges
    new_verts = set(m.branches)
    for u, v in new_edges:
        new_verts.add(u)
        new_verts.add(v)
    try:
        rebuilt = TmPair(Graph(new_verts, new_edges), m.branches)
    except TmhError as err:
        raise TameFailed("reassembly", str(err))

    if rebuilt.branches != m.branches:
        raise TameFailed("verification", "branch set changed")
    if dissolve(rebuilt) != dissolve(m):
        raise TameFailed("verification", "dissolved shape changed")
    rv, re = _outside_parts(rebuilt.model, band)
    mv, me = _outside_parts(m.model, band)
    if not (rv <= mv and re <= me):
        raise TameFailed("verification", "new material appeared outside the annulus")
    off_v, off_e = a.confinement_offenders(rebuilt.model, s, sorted(set(i_set)))
    if off_v or off_e:
        witness = sorted(off_v)[:3] or sorted(off_e)[:3]
        raise TameFailed("verification", "model not confined, offenders %r"
                         % (witness,))
    return rebuilt
