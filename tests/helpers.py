"""Conversions and checks that only the tests read: the Graph of a
MutableAdjacency's current state, a graph relabelled onto 0..n-1, a report
without its volatile section, Euler's formula on an embedding, the face
incidences of an embedding, a nested family built with one flood per
cycle and the refusing membership query of a disk,
the darts of a face and a reference tracer of face walks as darts, the
separation of a partially disk-embedded graph, label-respecting
isomorphism of boundaried graphs, a folio found by enumerating models
instead of by containment tests, a graph kept as an explicit edge set
to check Graph against, and the containment checks and deletion oracle of
the generic search alone, with K2,3 also decided by vertex-pair flows."""

import itertools
import json

from tmh.graphs import (
    DiskRegion,
    EmbeddingError,
    Graph,
    MutableAdjacency,
    TmhError,
    _augment,
    _normalize_edge,
)
from tmh.tm import BoundariedGraph, Folio, TmPair, dissolve, find_tm_model


def adjacency_graph(adj):
    """The Graph of a MutableAdjacency's current state, the one
    delete_vertices gives for the deleted vertices."""
    return Graph(adj.vertices, [(v, w) for v in adj.vertices
                                for w in adj.neighbors(v) if v < w])


def normalize_graph(g):
    """The graph relabeled onto 0..n-1 in sorted-id order, with the old-id
    map, for emitting hosts whose ids have holes (wall extractions,
    deletion leftovers)."""
    order = sorted(g.vertices)
    to_new = {v: i for i, v in enumerate(order)}
    return (Graph(range(g.n), [(to_new[u], to_new[v]) for u, v in g.edges]),
            to_new)


def report_core(text):
    """Parsed report minus the timings section, the part that must be
    byte-stable across identical runs."""
    data = json.loads(text)
    data.pop("timings", None)
    return data


def check_euler(emb):
    """v - e + f = 2 on each connected component of a PlaneEmbedding (f
    counted locally)."""
    g = emb.graph
    for comp in g.connected_components():
        vs = set(comp)
        es = sum(1 for e in g.edges if e[0] in vs)
        fs = set()
        for v in comp:
            fs.update(faces_of_vertex(emb, v))
        if len(comp) == 1 and not fs:
            continue
        if len(vs) - es + len(fs) != 2:
            return False
    return True


def faces_of_vertex(emb, v):
    """The faces through v, read from the faces of its darts."""
    if v not in emb.graph:
        raise EmbeddingError("vertex %r is not embedded" % (v,))
    return frozenset(emb._faces_at(v))


def faces_of_edge(emb, u, v):
    """The faces on the two sides of edge u-v, in increasing order."""
    if not emb.graph.has_edge(u, v):
        raise EmbeddingError("edge %r is not embedded" % (_normalize_edge(u, v),))
    return tuple(sorted(dart_sides(emb, u, v)))


def dart_sides(emb, u, v):
    """The faces of the darts from u to v and from v to u, read from the
    darts around u in the face store."""
    darts, faces = emb._around(u)
    k = emb.rotation[u].index(v)
    return faces[k], emb._across[darts[k]]


def face_darts(face):
    """The darts (u, v) of a face walk given as the tuple of its tails."""
    return list(zip(face, face[1:] + face[:1]))


def traced_dart_walks(graph, rotation):
    """The face walks of a rotation system as tuples of darts, traced on
    their own: from each dart in sorted order not yet on a walk, leave v,
    reached from u, toward the neighbour after u in v's clockwise order.
    Each walk starts at its least dart, and the walks come ordered by it,
    the order PlaneEmbedding numbers its faces in."""
    used = set()
    walks = []
    for start in sorted((u, v) for u in graph.vertices for v in graph.neighbors(u)):
        if start in used:
            continue
        walk = []
        dart = start
        while dart not in used:
            used.add(dart)
            walk.append(dart)
            u, v = dart
            order = list(rotation[v])
            dart = (v, order[(order.index(u) + 1) % len(order)])
        assert dart == start
        walks.append(tuple(walk))
    return walks


def assert_store_matches_dart_walks(emb):
    """Face i of emb is the tails of the i-th walk of traced_dart_walks,
    and the face store, one integer per dart in each array, gives each
    dart of that walk face i and its reverse the walk that holds it."""
    walks = traced_dart_walks(emb.graph, emb.rotation)
    assert emb.faces == tuple(tuple(d[0] for d in walk) for walk in walks)
    darts = 2 * emb.graph.m
    assert len(emb._across) == len(emb._twin) == emb._face_base[-1] == darts
    assert all(emb._twin[emb._twin[d]] == d for d in range(darts))
    walk_of = {dart: i for i, walk in enumerate(walks) for dart in walk}
    for i, walk in enumerate(walks):
        assert all(dart_sides(emb, u, v) == (i, walk_of[v, u]) for u, v in walk)


def separation_halves(pde):
    """The two sides of a PartiallyDiskEmbedded graph: the compass, and the
    rest of the graph plus the disk boundary."""
    a = set(pde.compass.vertices)
    b = (set(pde.graph.vertices) - a) | set(pde.boundary_cycle)
    return a, b


def label_isomorphic(a, b):
    """Whether two boundaried graphs are isomorphic by a map that keeps
    every boundary label, read off their canonical forms."""
    return a.canonical_form() == b.canonical_form()


def folio_via_model_enumeration(bg, t, h):
    """The folio of a boundaried graph by a route independent of
    compute_folio: enumerate subgraphs of the host directly, dissolve
    every valid branch-vertex choice, and collect the resulting
    representations.  Exponential in the host size, so only tiny hosts
    are accepted."""
    g = bg.graph
    if g.n > 8 or g.m > 14:
        raise TmhError("model enumeration route only runs on tiny hosts")
    reps = {}
    edge_list = g.sorted_edges()
    for keep_bits in range(1 << len(edge_list)):
        kept = [edge_list[i] for i in range(len(edge_list)) if keep_bits >> i & 1]
        used = set(v for e in kept for v in e)
        for extra_iso in _subsets(sorted(set(g.vertices) - used)):
            mvs = used | set(extra_iso)
            model = Graph(mvs, kept)
            forced = frozenset(v for v in mvs if v in bg.labels)
            optional = sorted(v for v in mvs if v not in forced)
            for t_extra in _subsets(optional):
                branches = forced | set(t_extra)
                if len(branches) > h:
                    continue
                if any(model.degree(v) != 2 for v in mvs - branches):
                    continue
                try:
                    pair = TmPair(model, branches)
                    dg = dissolve(pair)
                except TmhError:
                    continue
                if dg.n > h:
                    continue
                rep = BoundariedGraph(dg, {v: bg.labels[v] for v in forced})
                reps.setdefault(rep.canonical_form(), rep)
    return Folio(t, h, [reps[k] for k in sorted(reps)])


def _subsets(items):
    for r in range(len(items) + 1):
        yield from itertools.combinations(items, r)


def reference_family(emb, cycles):
    """NestedCycles as it was built with one DiskRegion.of_cycle flood per
    cycle: disjointness, then each disk in order, then nesting."""
    seen = set()
    for c in cycles:
        if set(c) & seen:
            raise EmbeddingError("nested cycles must be pairwise vertex-disjoint")
        seen |= set(c)
    regions = [DiskRegion.of_cycle(emb, c) for c in cycles]
    for a, b in zip(regions, regions[1:]):
        if not b.interior_faces <= a.interior_faces:
            raise EmbeddingError("cycle disks do not nest")
    return regions


def contains_vertex(region, v, mode="closed"):
    """region.has_vertex(v, mode), refused for a vertex outside the
    region's embedding."""
    if v not in region.embedding.graph:
        raise EmbeddingError("vertex %r is outside the embedded part" % (v,))
    return region.has_vertex(v, mode)


class EdgeSetGraph:
    """A simple graph kept as a sorted vertex tuple and a frozenset of
    (low, high) edge tuples, every query answered from the edge set and
    every derivation made by filtering it: the reference that Graph, which
    keeps only adjacency rows, is checked against."""

    def __init__(self, vertices, edges):
        self.vertices = tuple(sorted(set(vertices)))
        self.edges = frozenset(_normalize_edge(u, v) for u, v in edges)

    @property
    def m(self):
        return len(self.edges)

    def sorted_edges(self):
        return sorted(self.edges)

    def has_edge(self, u, v):
        return u != v and _normalize_edge(u, v) in self.edges

    def neighbors(self, v):
        return tuple(sorted(w for e in self.edges if v in e for w in e if w != v))

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def subgraph(self, vertices):
        vs = set(vertices)
        return EdgeSetGraph(vs, [e for e in self.edges if set(e) <= vs])

    def delete_vertices(self, s):
        return self.subgraph(set(self.vertices) - set(s))

    def restrict(self, vertices, edges):
        return EdgeSetGraph(vertices, edges)

    def relabel(self, mapping):
        return EdgeSetGraph([mapping[v] for v in self.vertices],
                            [(mapping[u], mapping[v]) for u, v in self.edges])

    def union(self, other):
        return EdgeSetGraph(set(self.vertices) | set(other.vertices),
                            self.edges | other.edges)


def generic_free(g, family):
    """is_F_free by the generic search alone: find_tm_model once per
    pattern, whatever its tag."""
    return all(find_tm_model(g, p) is None for p in family.patterns)


def generic_oracle(g, family, kmax):
    """pF_oracle with generic_free as its containment check: the least
    k <= kmax and the lexicographically least witness, or None."""
    for k in range(kmax + 1):
        for s in itertools.combinations(g.vertices, k):
            if generic_free(g.delete_vertices(s), family):
                return k, tuple(s)
    return None


def k23_by_flows(g):
    """Whether g (a Graph or a MutableAdjacency) holds a K2,3 subdivision,
    decided by vertex pairs: on the 2-core, some two vertices of degree at
    least 3 are joined by three internally disjoint paths of length at
    least two, counted by unit-capacity augmentation on the split digraph
    without the direct edge (vertex v enters at (v, 0), leaves at (v, 1))."""
    core = MutableAdjacency(g)
    core.delete_leaves()
    if core.m < 6:
        return False
    cands = sorted(v for v in core.vertices if core.degree(v) >= 3)
    for s, t in itertools.combinations(cands, 2):
        residual = {}
        for v in core.vertices:
            residual[(v, 0), (v, 1)] = 3 if v in (s, t) else 1
            residual[(v, 1), (v, 0)] = 0
            for w in core.neighbors(v):
                if {v, w} != {s, t}:
                    residual[(v, 1), (w, 0)] = 1
                    residual[(w, 0), (v, 1)] = 0
        if _augment(residual, (s, 1), (t, 0), 3) >= 3:
            return True
    return False
