"""Railed annuli: systems of nested cycles crossed by disjoint inward
rails, their construction from walls, the family extractor that carves one
outer annulus plus several inner ones out of a single wall, rail geometry
(reference edges, lateral and radial connector paths, enclosed disks), and
a synthetic generator for controlled test instances.

A note on heights.  The advertised capacity formula (annuli_capacity) is
kept exactly as specified, but it undercounts what the layer-by-layer
construction actually consumes: a wall needs height 2p+1 just to supply p
nested cycles, and the family extractor stacks subwalls on top of that.
The honest requirements live in wall_height_needed and
family_height_needed; the extractor checks both bounds and reports
precisely which one failed, so the gap between the advertised and the
achievable is visible instead of papered over.
"""

from __future__ import annotations

import bisect
import itertools
import math

from .decomposition import extract_subwall_at, wall_layers
from .graphs import (
    DiskRegion,
    Graph,
    NestedCycles,
    PartiallyDiskEmbedded,
    PlaneEmbedding,
    TmhError,
    _cycle_order,
    _normalize_edge,
    _path_edges,
)
from .tm import BoundariedGraph


def _check_simple_path(g, seq, name):
    if not seq:
        raise TmhError("%s is empty" % name)
    if len(set(seq)) != len(seq):
        raise TmhError("%s revisits a vertex" % name)
    for a, b in zip(seq, seq[1:]):
        if not g.has_edge(a, b):
            raise TmhError("%s step %r-%r is not an edge" % (name, a, b))


def _crossing_path(cycle_v, cycle_e, rail):
    """The shared vertices of a cycle and a simple path rail, in rail order,
    if the rail steps along the cycle join them into one path, else None.
    Those steps form a linear forest on the shared vertices, which is one
    path exactly when it has one edge fewer than it has vertices."""
    shared = [v for v in rail if v in cycle_v]
    if not shared:
        return None
    # only a step with both ends on the cycle can be a cycle edge
    steps = sum(1 for a, b in zip(rail, rail[1:])
                if a in cycle_v and b in cycle_v
                and ((a, b) if a < b else (b, a)) in cycle_e)
    return shared if steps == len(shared) - 1 else None


def _check_counts(r, q):
    if r < 3 or r % 2 == 0:
        raise TmhError("need an odd number of cycles, at least 3, got %d" % r)
    if q < 3:
        raise TmhError("need at least 3 rails, got %d" % q)


class RailedAnnulus:
    """Nested cycles C_1..C_r (outermost first) crossed by q pairwise
    disjoint rails, each oriented inward; every rail meets every cycle in
    a non-empty subpath.  Construction validates all axioms and rejects
    the input otherwise.

    crossings[(i, j)] lists the vertices rail j shares with C_i, in rail
    order, so its first vertex is where the rail enters C_i.  A rail's
    crossings are disjoint runs of consecutive rail vertices, in inward
    order.  So a rail cut from its entry into C_lo to its exit from C_hi
    holds the whole runs of C_lo..C_hi and no other vertex of those
    cycles: it crosses each kept cycle exactly where the whole rail did,
    inside the band between C_lo and C_hi.  A window cut this way
    (sub_annulus, window) therefore satisfies the axioms the parent was
    checked against, and takes its rails and crossings from the parent
    instead of validating them again."""

    __slots__ = ("embedding", "cycles", "rails", "r", "q", "crossings")

    def __init__(self, embedding, cycle_list, rail_list):
        """Each rail vertex is checked against the band on its own
        (AnnulusBand.has_vertex), so no disk's vertex or edge sets are
        built here."""
        _check_counts(len(cycle_list), len(rail_list))
        self.cycles = nested = NestedCycles(embedding, cycle_list)
        self.embedding = embedding
        self.r = r = nested.r
        self.q = q = len(rail_list)
        g = embedding.graph
        band = nested.annulus(1, r)
        for j, rail in enumerate(rail_list):
            _check_simple_path(g, rail, "rail %d" % (j + 1))
            outside = [v for v in rail if not band.has_vertex(v)]
            if outside:
                raise TmhError("rail %d leaves the annulus at %r"
                               % (j + 1, outside[0]))
        for a, b in itertools.combinations(range(q), 2):
            hit = set(rail_list[a]) & set(rail_list[b])
            if hit:
                raise TmhError("rails %d and %d share vertex %r"
                               % (a + 1, b + 1, sorted(hit)[0]))

        cyc_v = [frozenset(c) for c in nested.cycles]
        cyc_e = [frozenset(_path_edges(c, closed=True)) for c in nested.cycles]
        rails = []
        crossings = {}
        for j, rail in enumerate(rail_list):
            for cand in (tuple(rail), tuple(reversed(rail))):
                per_cycle = []
                for i in range(r):
                    shared = _crossing_path(cyc_v[i], cyc_e[i], cand)
                    if shared is None:
                        break
                    per_cycle.append(shared)
                if len(per_cycle) < r:
                    continue
                pos = {v: k for k, v in enumerate(cand)}
                firsts = [pos[shared[0]] for shared in per_cycle]
                if all(a < b for a, b in zip(firsts, firsts[1:])):
                    break
            else:
                raise TmhError(
                    "rail %d does not cross the cycles inward in order" % (j + 1))
            rails.append(cand)
            for i in range(r):
                crossings[(i + 1, j + 1)] = tuple(per_cycle[i])
        self.rails = tuple(rails)
        self.crossings = crossings

    def window(self, lo, hi):
        """The annulus on cycle levels lo..hi (see sub_annulus) in this
        annulus's embedding and on its own disks of those cycles, which
        nest already (NestedCycles._slice)."""
        _check_window(self, lo, hi)
        return self._cut(lo, hi, self.cycles._slice(lo, hi))

    def _cut(self, lo, hi, nested):
        """The annulus on cycle levels lo..hi bounded by nested, which
        holds those levels' cycles: every rail clipped from its entry into
        C_lo to its exit from C_hi, and the crossings of the kept levels
        renumbered from 1.  Nothing is validated again (see the class
        docstring)."""
        sub = RailedAnnulus.__new__(RailedAnnulus)
        sub.cycles = nested
        sub.embedding = nested.embedding
        sub.r = hi - lo + 1
        sub.q = self.q
        sub.rails = tuple(
            rail[rail.index(self.crossings[(lo, j)][0]):
                 rail.index(self.crossings[(hi, j)][-1]) + 1]
            for j, rail in enumerate(self.rails, 1))
        sub.crossings = {(i - lo + 1, j): self.crossings[(i, j)]
                         for j in range(1, self.q + 1)
                         for i in range(lo, hi + 1)}
        return sub

    def __repr__(self):
        return "RailedAnnulus(r=%d, q=%d)" % (self.r, self.q)

    def outer_disk(self):
        """Closed vertex set of the disk bounded by C_1."""
        return self.cycles.closed_disk(1)

    def inner_disk(self):
        """Closed vertex set of the disk bounded by C_r."""
        return self.cycles.closed_disk(self.r)

    def middle_band(self, s):
        """The band of the s middle cycle levels; s odd, 1 <= s <= r.  For
        s = r this is the full annulus."""
        if s % 2 == 0 or not (1 <= s <= self.r):
            raise TmhError("band width must be odd within [1, %d], got %r"
                           % (self.r, s))
        t = (self.r - 1) // 2
        half = (s - 1) // 2
        return self.cycles.annulus(t + 1 - half, t + 1 + half)

    def confinement_offenders(self, model, s, rail_indices):
        """Vertices and edges of the model (any object with vertices and
        edges: a Graph, a Linkage) inside the middle s-band that are not
        covered by the rails indexed by rail_indices (1-based)."""
        band = self.middle_band(s)
        allowed_v = set()
        allowed_e = set()
        for j in rail_indices:
            if not (1 <= j <= self.q):
                raise TmhError("rail index %r out of range [1, %d]" % (j, self.q))
            rail = self.rails[j - 1]
            allowed_v.update(rail)
            allowed_e.update(_path_edges(rail))
        bad_v = frozenset(v for v in model.vertices
                          if v in band.vertices and v not in allowed_v)
        bad_e = frozenset(e for e in model.edges
                          if e in band.edges and e not in allowed_e)
        return bad_v, bad_e

    def confines(self, model, s, rail_indices):
        """Does the model (see confinement_offenders) stay on the given
        rails across the middle s-band?  s=1 checks the middle cycle alone
        and s=r the whole annulus."""
        bad_v, bad_e = self.confinement_offenders(model, s, rail_indices)
        return not bad_v and not bad_e


# -- construction from walls -------------------------------------------------


def wall_height_needed(p):
    """Smallest wall height our construction turns into a (p,p)-railed
    annulus.  Height 2p+1 supplies the p nested layer cycles; rails are
    scarcer: clipped wall paths crossing all p cycles in a single run only
    arise from paths threading the hole inside the innermost cycle, and
    measurement shows their number is 4 + 8*d at height 2p+1+2d,
    independent of p.  So d = ceil((p-4)/8) extra double-rows buy the p-th
    rail (tests pin minimality across the deployed range)."""
    if p % 2 == 0 or p < 3:
        raise TmhError("annulus depth must be odd and at least 3, got %d" % p)
    return 2 * p + 1 + 2 * max(0, math.ceil((p - 4) / 8))


def annulus_from_wall(w, p):
    """A (p,p)-railed annulus whose cycles are the outer p layer cycles of
    the wall and whose rails are clipped wall paths, greedily selected in
    path order."""
    if p % 2 == 0 or p < 3:
        raise TmhError("annulus depth must be odd and at least 3, got %d" % p)
    layers = wall_layers(w)
    if len(layers) < p:
        raise TmhError(
            "wall of height %d has %d layer cycles; %d cycles need height %d"
            % (w.r, len(layers), p, wall_height_needed(p)))
    cycs = layers[:p]
    nested = NestedCycles(w.embedding, cycs)
    band_v = nested.annulus(1, p).vertices
    cyc_v = [frozenset(c) for c in cycs]
    cyc_e = [frozenset(_path_edges(c, closed=True)) for c in cycs]

    picked = []
    used = set()
    for path in w.vertical_paths + w.horizontal_paths:
        runs = []
        cur = []
        for v in path:
            if v in band_v:
                cur.append(v)
            elif cur:
                runs.append(cur)
                cur = []
        if cur:
            runs.append(cur)
        for run in runs:
            if len(picked) == p:
                break
            if used & set(run):
                continue
            if any(_crossing_path(cyc_v[i], cyc_e[i], run) is None
                   for i in range(p)):
                continue
            picked.append(run)
            used.update(run)
    if len(picked) < p:
        raise TmhError(
            "only %d of %d rails available on this wall; height %d suffices"
            % (len(picked), p, wall_height_needed(p)))
    return RailedAnnulus(w.embedding, cycs, picked)


def annuli_capacity(x, y, z):
    """The advertised wall height that is supposed to admit the family of
    one (x,x)-annulus plus z inner (y,y)-annuli.  Kept exactly as
    specified; the constructive requirement is family_height_needed, which
    is strictly larger (see the module docstring)."""
    if x % 2 == 0 or x < 3 or y % 2 == 0 or y < 3:
        raise TmhError("annulus depths must be odd and at least 3, got %d, %d"
                       % (x, y))
    if z < 0:
        raise TmhError("inner annulus count must be non-negative, got %d" % z)
    yp = y + math.ceil((y - 2) / 4)
    if yp % 2 == 0:
        yp += 1
    return x + max(math.ceil((x - 2) / 4), math.ceil(math.sqrt(z) / 2) * yp) + 1


def family_height_needed(x, y, z):
    """Wall height the family construction actually consumes.

    The hole strictly inside the x-th layer of an elementary h-wall is a
    full coordinate rectangle, rows x+1..h-x and columns 2x+1..2h-2x
    (measured, pinned by tests).  Subwalls of height s =
    wall_height_needed(y) pack into it at odd offsets: s rows plus a
    one-row parity gap vertically, 2s columns with no gap horizontally,
    so an h-wall fits floor((h-2x)/(s+1)) * floor((h-2x)/s) of them.
    Returns the smallest odd height at or above wall_height_needed(x)
    whose packing count reaches z."""
    base = wall_height_needed(x)
    if z == 0:
        return base
    s = wall_height_needed(y)
    h = base
    while ((h - 2 * x) // (s + 1)) * ((h - 2 * x) // s) < z:
        h += 2
    return h


class AnnulusFamily:
    """One outer annulus whose outer disk is the whole wall disk, plus
    inner annuli living strictly inside its inner disk with pairwise
    disjoint outer disks."""

    __slots__ = ("outer", "inner")

    def __init__(self, outer, inner):
        self.outer = outer
        self.inner = tuple(inner)
        hole = outer.inner_disk()
        for k, a in enumerate(self.inner):
            verts = set(a.embedding.graph.vertices)
            if not verts <= hole:
                raise TmhError("inner annulus %d leaves the inner disk" % (k + 1))
        for a, b in itertools.combinations(self.inner, 2):
            if a.outer_disk() & b.outer_disk():
                raise TmhError("two inner annuli have overlapping outer disks")

    def __len__(self):
        return 1 + len(self.inner)

    def __repr__(self):
        return "AnnulusFamily(outer=(%d,%d), inner=%d)" % (
            self.outer.r, self.outer.q, len(self.inner))


def find_collection_of_annuli(x, y, z, g, w):
    """Carve an (x,x)-annulus plus z disjoint (y,y)-annuli out of one wall.

    The wall must clear the advertised capacity; when it does but still
    falls short of what the construction consumes, the error says so
    rather than delivering a smaller family.
    """
    cap = annuli_capacity(x, y, z)
    if w.r < cap:
        raise TmhError("wall height %d is below the advertised capacity %d"
                       % (w.r, cap))
    need = family_height_needed(x, y, z)
    if w.r < need:
        raise TmhError(
            "wall height %d clears the advertised capacity %d but the "
            "construction needs height %d: %d nested cycles consume height "
            "%d and each inner annulus a %d-subwall"
            % (w.r, cap, need, x, 2 * x + 1, wall_height_needed(y)))
    if set(w.perimeter) != set(g.boundary_cycle):
        raise TmhError("wall perimeter does not bound the embedded disk")

    outer = annulus_from_wall(w, x)
    if z == 0:
        return AnnulusFamily(outer, [])

    s = wall_height_needed(y)
    hole_xy = {w.coordinates[v] for v in outer.cycles.open_disk(x)}
    cols = sorted(c for c, _ in hole_xy)
    rows = sorted(r for _, r in hole_xy)
    inner = []
    used_xy = set()
    y0 = rows[0] + (1 - rows[0] % 2)
    while y0 + s - 1 <= rows[-1] and len(inner) < z:
        x0 = cols[0] + (1 - cols[0] % 2)
        while x0 + 2 * s - 1 <= cols[-1] and len(inner) < z:
            rect = {(x0 + dx, y0 + dy)
                    for dx in range(2 * s) for dy in range(s)}
            if rect <= hole_xy and not (rect & used_xy):
                sub = extract_subwall_at(
                    w.host_subgraph, w.coordinates, s, x0, y0)
                inner.append(annulus_from_wall(sub, y))
                used_xy |= rect
                x0 += 2 * s
            else:
                x0 += 2
        y0 += 2
    if len(inner) < z:
        raise TmhError("hole inside the outer annulus fits only %d of %d "
                       "inner subwalls" % (len(inner), z))
    return AnnulusFamily(outer, inner)


# -- boundaried graphs at a cycle --------------------------------------------


def boundaried_at_cycle(g, a, i, t):
    """The part of the graph inside the closed disk of C_i, with boundary
    at the vertices where the first t rails enter C_i (the first vertex of
    each crossing), labeled by rail index."""
    if not (1 <= i <= a.r):
        raise TmhError("cycle index %r out of range [1, %d]" % (i, a.r))
    if not (1 <= t <= a.q):
        raise TmhError("boundary size %r out of range [1, %d]" % (t, a.q))
    region = a.cycles.regions[i - 1]
    sub = region.subgraph("closed")
    labels = {a.crossings[(i, j)][0]: j for j in range(1, t + 1)}
    return BoundariedGraph(sub, labels)


# -- rail geometry -----------------------------------------------------------


class RailGeometry:
    """Reference edges along each cycle, lateral connector paths within a
    cycle, radial connector paths along a rail, and the disks enclosed by
    four-sided frames of those pieces.

    The per-cycle reference edge set is the arc between the last and the
    first rail crossing that avoids the second rail; removing it turns the
    cycle into a linear order of the rails, which is what makes lateral
    shortest paths well defined.  Cycles where both arcs avoid the second
    rail are recorded in ambiguous_cycles (the shorter arc is used).

    Only the reference edges are computed up front.  Lateral and radial
    paths and frame disks are computed on first request and kept in
    l_paths, r_paths and delta_disks, so a caller pays for the pieces it
    reads.  A lateral path that does not exist is refused with TmhError
    when it is first requested.
    """

    __slots__ = ("annulus", "reference_edges", "l_paths", "r_paths",
                 "delta_disks", "ambiguous_cycles", "_lateral_orders")

    def __init__(self, annulus, reference_edges, ambiguous_cycles):
        self.annulus = annulus
        self.reference_edges = reference_edges
        self.ambiguous_cycles = tuple(ambiguous_cycles)
        self.l_paths = {}
        self.r_paths = {}
        self.delta_disks = {}
        self._lateral_orders = {}

    def l_path(self, i, j, jp):
        """Shortest path on cycle i from a crossing of rail j to one of
        rail jp that avoids cycle i's reference edges (no other cycle's
        lie on it: the cycles are disjoint); among equally short ones, the
        first crossing vertex of rail j wins."""
        if j == jp:
            raise TmhError("lateral path needs two distinct rails, got %d" % j)
        key = (i, j, jp)
        if key in self.l_paths:
            return self.l_paths[key]
        a = self.annulus
        order, pos = self._lateral_order(i)
        hits = sorted(pos[v] for v in a.crossings[(i, jp)] if v in pos)
        best = None
        for src in a.crossings[(i, j)]:
            k = pos.get(src)
            if k is None:
                continue
            # the nearest target on each side of src along the path; on a
            # tie the sorted-order BFS this replaces took the side of the
            # smaller neighbour first
            m = bisect.bisect_left(hits, k)
            if m < len(hits) and (not m or (hits[m] - k, order[k + 1])
                                  < (k - hits[m - 1], order[k - 1])):
                path = order[k:hits[m] + 1]
            elif m:
                path = order[hits[m - 1]:k + 1][::-1]
            else:
                continue
            if best is None or len(path) < len(best):
                best = path
        if best is None:
            raise TmhError("no lateral path from rail %d to %d on cycle %d"
                           % (j, jp, i))
        self.l_paths[key] = tuple(best)
        return self.l_paths[key]

    def _lateral_order(self, i):
        """Cycle i minus its reference edges, as a vertex order and an index
        map.  The reference arc joins two disjoint crossings, so it has at
        least one edge and misses at least one: what is left is a path,
        which starts where the arc ends.  The arc's inner vertices lie on
        no remaining edge and are left out."""
        if i not in self._lateral_orders:
            cyc = tuple(self.annulus.cycles.cycles[i - 1])
            n = len(cyc)
            ref = self.reference_edges[i]
            # on_ref[k]: the step into cyc[k] is a reference edge
            on_ref = [_normalize_edge(cyc[k - 1], cyc[k]) in ref for k in range(n)]
            start = next(k for k in range(n)
                         if on_ref[k] and not on_ref[(k + 1) % n])
            order = (cyc[start:] + cyc[:start])[:n - len(ref) + 1]
            self._lateral_orders[i] = order, {v: k for k, v in enumerate(order)}
        return self._lateral_orders[i]

    def r_path(self, i, ip, j):
        """The segment of rail j from its crossing with cycle i to its
        crossing with cycle ip, oriented from i."""
        if i == ip:
            raise TmhError("radial path needs two distinct cycles, got %d" % i)
        key = (i, ip, j)
        if key in self.r_paths:
            return self.r_paths[key]
        a = self.annulus
        runs = {c: a.crossings[(c, j)] for c in (i, ip)}
        rail = list(a.rails[j - 1])
        pos = {v: k for k, v in enumerate(rail)}
        spans = {}
        for c, run in runs.items():
            ks = [pos[v] for v in run]
            spans[c] = (min(ks), max(ks))
        lo, hi = (i, ip) if spans[i][0] < spans[ip][0] else (ip, i)
        seg = rail[spans[lo][1]:spans[hi][0] + 1]
        if lo != i:
            seg = list(reversed(seg))
        self.r_paths[key] = tuple(seg)
        return self.r_paths[key]

    def delta_disk(self, i, ip, j, jp):
        """The closed disk bounded by the unique cycle in the frame made of
        the four crossings, two lateral paths, and two radial paths."""
        key = (i, ip, j, jp)
        if key not in self.delta_disks:
            self.delta_disks[key] = DiskRegion.of_cycle(
                self.annulus.embedding, self._frame_cycle(key))
        return self.delta_disks[key]

    def _frame_cycle(self, key):
        """The unique cycle, in order, of the frame that delta_disk(*key)
        bounds; refused when the indices do not increase or the frame does
        not close into one cycle."""
        i, ip, j, jp = key
        if not (i < ip):
            raise TmhError("cycle indices must increase, got %d, %d" % (i, ip))
        if not (j < jp):
            raise TmhError("rail indices must increase, got %d, %d" % (j, jp))
        a = self.annulus
        pieces = [
            a.crossings[(i, j)], self.l_path(i, j, jp), a.crossings[(i, jp)],
            self.r_path(i, ip, jp), a.crossings[(ip, jp)],
            self.l_path(ip, jp, j), a.crossings[(ip, j)],
            self.r_path(ip, i, j),
        ]
        adj = {v: set() for seq in pieces for v in seq}
        for seq in pieces:
            for u, v in zip(seq, seq[1:]):
                adj[u].add(v)
                adj[v].add(u)
        stack = [v for v, nb in adj.items() if len(nb) <= 1]
        while stack:
            v = stack.pop()
            if v not in adj:
                continue
            for u in adj.pop(v):
                adj[u].discard(v)
                if len(adj[u]) <= 1:
                    stack.append(u)
        order = _cycle_order(adj)
        if order is None:
            raise TmhError("frame %r does not close into a unique cycle" % (key,))
        return order


def _cycle_arc(order, start, end, step):
    """Vertices of the cycle arc from index start to index end, walking by
    step (+1 or -1), endpoints included."""
    n = len(order)
    out = [order[start % n]]
    k = start
    while k % n != end % n:
        k += step
        out.append(order[k % n])
    return out


def rail_geometry(a):
    """The rail geometry of an annulus: the reference edges now, and the
    lateral and radial paths and enclosed disks lazily, on first request
    (see RailGeometry).  A cycle on which no arc avoids the second rail is
    refused here with TmhError; a missing lateral path is refused only
    when that path, or a disk framed by it, is first requested."""
    ref = {}
    ambiguous = []
    rail2 = set(a.rails[1])
    for i in range(1, a.r + 1):
        cyc = list(a.cycles.cycles[i - 1])
        pos = {v: k for k, v in enumerate(cyc)}
        n = len(cyc)

        def run_bounds(verts):
            ks = sorted(pos[v] for v in verts)
            if len(ks) == n:
                raise TmhError("a crossing swallows the whole cycle")
            # contiguous modulo n: find the gap and unwrap
            if len(ks) == 1:
                return ks[0], ks[0]
            gaps = [(b - a_) % n for a_, b in zip(ks, ks[1:] + ks[:1])]
            widest = max(range(len(gaps)), key=lambda m: gaps[m])
            start = ks[(widest + 1) % len(ks)]
            return start, ks[widest]

        sq, eq = run_bounds(a.crossings[(i, a.q)])
        so, eo = run_bounds(a.crossings[(i, 1)])
        forward = _cycle_arc(cyc, eq, so, +1)
        backward = _cycle_arc(cyc, sq, eo, -1)
        choices = [arc for arc in (forward, backward)
                   if not (set(arc) & rail2)]
        if not choices:
            raise TmhError("no reference arc avoids the second rail on cycle %d" % i)
        if len(choices) == 2:
            ambiguous.append(i)
            choices.sort(key=len)
        ref[i] = frozenset(_path_edges(choices[0]))

    return RailGeometry(a, ref, ambiguous)


def sub_annulus(a, lo, hi):
    """The railed annulus on cycle levels lo..hi of a (1-based, inclusive):
    rails trimmed to their crossings with the two boundary cycles, the
    embedding restricted to the closed disk of cycle lo so the result can
    stand on its own inside an annulus family.  The level count must stay
    odd and at least 3.

    The embedding is a's restricted to that disk (PlaneEmbedding.restrict),
    whose outer face is the face that walks cycle lo.  The window's disks
    are flooded again in it, once for the whole family (see NestedCycles).
    The rails and crossings are a's, cut as in RailedAnnulus.window: the
    restriction keeps every vertex and edge of the band between cycles lo
    and hi, so the rails a was checked against stay valid in it."""
    _check_window(a, lo, hi)
    cycles = a.cycles.cycles[lo - 1:hi]
    # a fresh view, so the parent's disk keeps no vertex set of this call
    keep = a.cycles.regions[lo - 1]._fresh().vertices()
    emb = a.embedding.restrict(keep, lambda faces: _cycle_face(
        faces, cycles[0], "restricted embedding lost the boundary face"))
    return a._cut(lo, hi, NestedCycles(emb, cycles))


def _check_window(a, lo, hi):
    if not (1 <= lo < hi <= a.r):
        raise TmhError("cycle window must satisfy 1 <= lo < hi <= r")
    _check_counts(hi - lo + 1, a.q)


def _cycle_face(faces, cycle, missing):
    """Index of the first face that walks exactly the vertices of cycle;
    TmhError(missing) when no face does."""
    ring = frozenset(cycle)
    for idx, face in enumerate(faces):
        if len(face) == len(cycle) and set(face) == ring:
            return idx
    raise TmhError(missing)


# -- synthetic instances -----------------------------------------------------


def synthetic_annulus_parts(r, q, girth=None, seed=0, span=1, noise=0,
                            core=False):
    """Concentric-ring host for a controlled (r,q)-railed annulus.

    r rings of `girth` vertices each; q rails descend radially, walking
    `span` consecutive ring positions on every ring before dropping one
    ring inward (so each crossing is a span-vertex path and the rails
    drift around the rings).  noise > 0 sprinkles that many seeded
    diagonal edges across ring gaps without touching the rails; core adds
    a hub vertex inside the innermost ring.

    Returns (embedding, cycle lists, rail lists).  The rotation is traced
    once, and the face that walks the outermost ring is the outer face.
    """
    if r < 3 or r % 2 == 0:
        raise TmhError("need an odd ring count of at least 3, got %d" % r)
    if q < 3:
        raise TmhError("need at least 3 rails, got %d" % q)
    if span < 1:
        raise TmhError("crossing span must be positive, got %d" % span)
    if noise < 0:
        raise TmhError("noise must be non-negative, got %d" % noise)
    m = girth if girth is not None else max(2 * q, q * span + q)
    if m < q * span + q:
        raise TmhError("girth %d cannot host %d rails of span %d" % (m, q, span))

    def vid(i, k):
        return i * m + k % m

    edges = set()
    for i in range(r):
        for k in range(m):
            edges.add(_normalize_edge(vid(i, k), vid(i, k + 1)))

    base = [k * m // q for k in range(q)]
    rails = []
    spokes = set()
    for j in range(q):
        path = []
        at = base[j]
        for i in range(r):
            for step in range(span):
                path.append(vid(i, at + step))
            at = at + span - 1
            if i + 1 < r:
                spokes.add(_normalize_edge(vid(i, at), vid(i + 1, at)))
                path.append(vid(i + 1, at))
                path.pop()
        rails.append(path)
    edges |= spokes

    n = r * m
    coords = {}
    for i in range(r):
        for k in range(m):
            radius = float(r + 1 - i)
            angle = 2 * math.pi * k / m
            coords[vid(i, k)] = (radius * math.cos(angle),
                                 radius * math.sin(angle))
    extra_vertices = []
    if core:
        hub = n
        extra_vertices.append(hub)
        coords[hub] = (0.0, 0.0)
        rail_pts = {v for rail in rails for v in rail}
        attached = 0
        for k in range(m):
            v = vid(r - 1, k)
            if v not in rail_pts:
                edges.add(_normalize_edge(v, hub))
                attached += 1
                if attached == 3:
                    break
        if attached == 0:
            raise TmhError("no free innermost-ring vertex for the hub")
    if noise:
        rng_state = seed * 2654435761 % (1 << 31) or 1
        rail_pts = {v for rail in rails for v in rail}
        added = 0
        attempts = 0
        while added < noise and attempts < 50 * noise:
            attempts += 1
            rng_state = (rng_state * 1103515245 + 12345) % (1 << 31)
            i = rng_state % (r - 1)
            k = (rng_state >> 8) % m
            u, v = vid(i, k), vid(i + 1, k + 1)
            e = _normalize_edge(u, v)
            if u in rail_pts or v in rail_pts or e in edges:
                continue
            # skip if the diagonal would cross an existing spoke or diagonal
            crossing = _normalize_edge(vid(i, k + 1), vid(i + 1, k))
            if crossing in edges or _normalize_edge(vid(i, k + 1), vid(i + 1, k + 1)) in spokes:
                continue
            if _normalize_edge(vid(i, k), vid(i + 1, k)) in spokes:
                continue
            edges.add(e)
            added += 1

    g = Graph(list(range(n)) + extra_vertices, edges)

    def clockwise(v):
        cx, cy = coords[v]
        nbrs = sorted(g.neighbors(v))

        def bearing(u):
            ux, uy = coords[u]
            return -math.atan2(uy - cy, ux - cx)

        return tuple(sorted(nbrs, key=bearing))

    rotation = {v: clockwise(v) for v in g.vertices}
    cycle_lists = [[vid(i, k) for k in range(m)] for i in range(r)]
    emb = PlaneEmbedding(g, rotation, lambda faces: _cycle_face(
        faces, cycle_lists[0], "generator lost the outer ring face"))
    return emb, cycle_lists, rails


def synthetic_annulus(r, q, girth=None, seed=0, span=1, noise=0, core=False):
    emb, cycles, rails = synthetic_annulus_parts(
        r, q, girth=girth, seed=seed, span=span, noise=noise, core=core)
    return RailedAnnulus(emb, cycles, rails)


def synthetic_disk_host(r, q, girth=None, seed=0, noise=0):
    """The synthetic annulus packaged as a graph embedded in a disk whose
    boundary is the outermost ring."""
    emb, cycles, rails = synthetic_annulus_parts(
        r, q, girth=girth, seed=seed, noise=noise)
    host = PartiallyDiskEmbedded(emb.graph, emb, cycles[0])
    return host, RailedAnnulus(emb, cycles, rails)
