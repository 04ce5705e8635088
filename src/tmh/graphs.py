"""Simple undirected graphs, rotation-system embeddings, and combinatorial
disk regions.

Everything downstream (walls, annuli, linkages, the solver) operates on the
three substrates defined here:

  * Graph: an immutable simple graph over integer vertex ids.  Ids are stable
    across subgraph operations, so a vertex found in a reduced graph names the
    same vertex of the original instance.  A search that deletes and
    restores vertices runs on a MutableAdjacency instead of a Graph per
    deletion.

  * PlaneEmbedding: a clockwise rotation system plus the face structure it
    induces.  Faces are traced combinatorially; no coordinates are kept.
    A face is the tuple of its vertices, and the faces across its steps
    are integers.

  * DiskRegion / NestedCycles: disks are sets of faces, never geometry.  A
    cycle of an embedded graph bounds the set of faces that cannot reach the
    outer face without crossing the cycle, and every region predicate
    (open/closed membership, annulus bands, nesting) reduces to face-set
    arithmetic on that representation.  Every disk is stored one way: a
    depth per face and a level, its faces being those of depth at least
    the level.  A lone disk holds its own 0/1 depths; the disks of a
    nested family share the family's depths, the number of its disks
    that hold each face, and only _nested_disks builds such a family.
"""

from __future__ import annotations

import bisect
import functools
import itertools
from array import array
from collections import deque


class TmhError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(TmhError):
    """Malformed input document."""


class EmbeddingError(TmhError):
    """Rotation system is inconsistent or a region query is undefined."""


def _normalize_edge(u, v):
    if u == v:
        raise TmhError("loop edge %r forbidden" % (u,))
    return (u, v) if u < v else (v, u)


def _path_edges(seq, closed=False):
    """The edges of the walk seq, each low to high, in walk order; closed
    adds the step from the last vertex back to the first."""
    edges = [_normalize_edge(a, b) for a, b in zip(seq, seq[1:])]
    if closed:
        edges.append(_normalize_edge(seq[-1], seq[0]))
    return edges


class Graph:
    """Immutable simple undirected graph with integer-comparable vertex ids.

    Storage.  The adjacency rows are the only storage: each vertex, in
    increasing order, maps to the sorted tuple of its neighbours, and m
    is counted from them once.  The edge frozenset of (low, high) tuples
    is built from the rows on the first read of edges or of the hash, and
    kept; has_edge, sorted_edges and equality read the rows.  subgraph,
    delete_vertices and restrict hand every vertex whose row is unchanged
    the parent's own row tuple, so a subgraph holds new rows only where
    it cuts."""

    __slots__ = ("_adj", "_vertices", "_m", "_edges", "_hash")

    def __init__(self, vertices=(), edges=()):
        adj = {v: set() for v in vertices}
        for u, v in edges:
            if u == v or u not in adj or v not in adj:
                raise TmhError("edge %r has an undeclared endpoint" % (_normalize_edge(u, v),))
            adj[u].add(v)
            adj[v].add(u)
        self._set_rows({v: tuple(sorted(adj[v])) for v in sorted(adj)})

    def _set_rows(self, rows):
        """Take rows, vertex -> sorted neighbour tuple in increasing vertex
        order, as this graph's adjacency."""
        self._adj = rows
        self._vertices = tuple(rows)
        self._m = sum(map(len, rows.values())) // 2
        self._edges = self._hash = None
        return self

    @classmethod
    def _of_rows(cls, rows):
        return cls.__new__(cls)._set_rows(rows)

    @classmethod
    def from_edges(cls, edges, extra_vertices=()):
        edges = list(edges)
        vs = set(extra_vertices)
        for u, v in edges:
            vs.add(u)
            vs.add(v)
        return cls(vs, edges)

    @property
    def vertices(self):
        return self._vertices

    @property
    def edges(self):
        if self._edges is None:
            self._edges = frozenset(self.sorted_edges())
        return self._edges

    def sorted_edges(self):
        return [(u, w) for u, row in self._adj.items() for w in row if u < w]

    @property
    def n(self):
        return len(self._vertices)

    @property
    def m(self):
        return self._m

    def __contains__(self, v):
        return v in self._adj

    def has_edge(self, u, v):
        try:
            return v in self._adj[u]
        except KeyError:
            return False

    def neighbors(self, v):
        return self._adj[v]

    def degree(self, v):
        return len(self._adj[v])

    def max_degree(self):
        return max(map(len, self._adj.values()), default=0)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self._m == other._m and self._adj == other._adj

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self._vertices, self.edges))
        return self._hash

    def __repr__(self):
        return "Graph(n=%d, m=%d)" % (self.n, self.m)

    # -- derivation ----------------------------------------------------------

    def subgraph(self, vertices):
        """Induced subgraph on the given vertex set."""
        vs = set(vertices)
        unknown = vs - self._adj.keys()
        if unknown:
            raise TmhError("unknown vertices %r" % (sorted(unknown),))
        return self._induced(vs)

    def _induced(self, keep):
        """The subgraph induced on keep, a set of this graph's vertices; a
        vertex that keeps all its neighbours keeps this graph's row."""
        return Graph._of_rows({
            v: row if keep.issuperset(row) else tuple([w for w in row if w in keep])
            for v, row in self._adj.items() if v in keep})

    def restrict(self, vertices, edges):
        """Subgraph with exactly the given vertices and the given edges; a
        vertex that keeps all its neighbours keeps this graph's row."""
        edges = list(edges)
        for u, v in edges:
            if not self.has_edge(u, v):
                raise TmhError("edge %r not present" % (_normalize_edge(u, v),))
        g = Graph(vertices, edges)
        for v, row in g._adj.items():
            if row == self._adj.get(v):
                g._adj[v] = self._adj[v]
        return g

    def delete_vertices(self, s):
        s = set(s)
        unknown = s - self._adj.keys()
        if unknown:
            raise TmhError("cannot delete unknown vertices %r" % (sorted(unknown),))
        return self._induced(self._adj.keys() - s)

    def union(self, other):
        rows = {}
        for v in sorted(self._adj.keys() | other._adj.keys()):
            a, b = self._adj.get(v), other._adj.get(v)
            rows[v] = (b if a is None else a if b is None or a == b
                       else tuple(sorted(set(a).union(b))))
        return Graph._of_rows(rows)

    def relabel(self, mapping):
        """New graph with vertex v renamed mapping[v]; mapping must name
        every vertex and be injective."""
        for v in self._vertices:
            if v not in mapping:
                raise TmhError("relabel mapping misses vertex %r" % (v,))
        if len(set(mapping.values())) != len(mapping):
            raise TmhError("relabel mapping is not injective")
        rows = {mapping[v]: tuple(sorted(mapping[w] for w in row))
                for v, row in self._adj.items()}
        return Graph._of_rows({v: rows[v] for v in sorted(rows)})

    # -- traversal -----------------------------------------------------------

    def connected_components(self):
        """Components as sorted vertex tuples, ordered by smallest member."""
        seen = set()
        out = []
        for start in self._vertices:
            if start in seen:
                continue
            comp = [start]
            seen.add(start)
            queue = deque([start])
            while queue:
                u = queue.popleft()
                for w in self._adj[u]:
                    if w not in seen:
                        seen.add(w)
                        comp.append(w)
                        queue.append(w)
            out.append(tuple(sorted(comp)))
        return out

    def is_connected(self):
        return self.n <= 1 or len(self.connected_components()) == 1

    def shortest_path(self, source, targets, forbidden_vertices=None):
        """BFS path from source to the nearest of targets, or None.

        Ties are broken by visiting neighbors in sorted order, so the result
        is deterministic.  forbidden_vertices are excluded (the source
        itself is always allowed).
        """
        targets = set(targets)
        banned_v = set(forbidden_vertices or ())
        banned_v.discard(source)
        if source in targets:
            return [source]
        prev = {source: None}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for w in self._adj[u]:
                if w in prev or w in banned_v:
                    continue
                prev[w] = u
                if w in targets:
                    path = [w]
                    while path[-1] is not None and prev[path[-1]] is not None:
                        path.append(prev[path[-1]])
                    path.reverse()
                    return path
                queue.append(w)
        return None


class MutableAdjacency:
    """A graph's adjacency under vertex deletions undone in reverse order.

    delete(v) takes v and its edges out; restore() puts back the latest
    deletion still standing, so every restore returns the neighbour sets
    of the state before that deletion exactly.  Readers see the interface
    the containment tests read on a Graph: vertices (in no set order),
    membership, has_edge, neighbors (live sets, stale after the next
    deletion), degree, n and m.
    """

    __slots__ = ("_adj", "_m", "_undo")

    def __init__(self, g):
        self._adj = {v: set(g.neighbors(v)) for v in g.vertices}
        self._m = g.m
        self._undo = []

    @property
    def vertices(self):
        return self._adj.keys()

    @property
    def n(self):
        return len(self._adj)

    @property
    def m(self):
        return self._m

    @property
    def depth(self):
        """Deletions standing; restore_to(depth) undoes every later one."""
        return len(self._undo)

    def __contains__(self, v):
        return v in self._adj

    def has_edge(self, u, v):
        return u in self._adj and v in self._adj[u]

    def neighbors(self, v):
        return self._adj[v]

    def degree(self, v):
        return len(self._adj[v])

    def delete(self, v):
        ns = self._adj.pop(v)
        for w in ns:
            self._adj[w].discard(v)
        self._m -= len(ns)
        self._undo.append((v, ns))

    def restore(self):
        v, ns = self._undo.pop()
        for w in ns:
            self._adj[w].add(v)
        self._adj[v] = ns
        self._m += len(ns)

    def restore_to(self, depth):
        while len(self._undo) > depth:
            self.restore()

    def delete_leaves(self):
        """Delete vertices of degree at most one until none is left."""
        adj = self._adj
        doomed = [v for v, ns in adj.items() if len(ns) <= 1]
        while doomed:
            v = doomed.pop()
            if v not in adj:
                continue
            ns = adj[v]
            self.delete(v)
            doomed.extend(w for w in ns if len(adj[w]) <= 1)


def _cycle_order(walk):
    """The vertices of the closed walk (a list, its last vertex joined back
    to its first) in cyclic order from the smallest vertex toward its
    smaller neighbour, so the order is deterministic; None if the walk has
    fewer than 3 vertices or repeats one, so that it is no cycle."""
    n = len(walk)
    if n < 3 or len(set(walk)) != n:
        return None
    k = walk.index(min(walk))
    if walk[(k + 1) % n] < walk[k - 1]:
        return walk[k:] + walk[:k]
    return walk[k::-1] + walk[:k:-1]


def _augment(residual, source, sink, limit):
    """Push up to limit units from source to sink through the residual
    map residual, arc (a, b) -> spare capacity, in which the reverse of
    every arc is present; returns the units pushed and updates residual
    in place.  Each unit follows the augmenting path of a BFS that scans
    the heads of each node in sorted order."""
    heads = {}
    for a, b in residual:
        heads.setdefault(a, []).append(b)
    for bs in heads.values():
        bs.sort()
    pushed = 0
    while pushed < limit:
        prev = {source: None}
        queue = deque([source])
        while queue and sink not in prev:
            a = queue.popleft()
            for b in heads.get(a, ()):
                if b not in prev and residual[(a, b)] > 0:
                    prev[b] = a
                    queue.append(b)
        if sink not in prev:
            break
        b = sink
        while b != source:
            a = prev[b]
            residual[(a, b)] -= 1
            residual[(b, a)] += 1
            b = a
        pushed += 1
    return pushed


def parse_graph(text):
    """Parse a flat edge-list document: first line "n m", then m lines "u v".

    Vertex ids are 0..n-1.  Raises ParseError naming the offending line for
    duplicate edges, loops, and out-of-range ids.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    rows = [(i + 1, ln) for i, ln in enumerate(lines) if ln and not ln.startswith("#")]
    if not rows:
        raise ParseError("empty document")
    head_no, head = rows[0]
    parts = head.split()
    if len(parts) != 2:
        raise ParseError("line %d: expected 'n m', got %r" % (head_no, head))
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError("line %d: expected integers, got %r" % (head_no, head))
    if n < 0 or m < 0:
        raise ParseError("line %d: negative counts" % head_no)
    body = rows[1:]
    if len(body) != m:
        raise ParseError("expected %d edge lines, found %d" % (m, len(body)))
    seen = set()
    edges = []
    for line_no, ln in body:
        parts = ln.split()
        if len(parts) != 2:
            raise ParseError("line %d: expected 'u v', got %r" % (line_no, ln))
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError("line %d: expected integers, got %r" % (line_no, ln))
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError("line %d: vertex id out of range [0,%d)" % (line_no, n))
        if u == v:
            raise ParseError("line %d: loop forbidden" % line_no)
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise ParseError("line %d: duplicate edge" % line_no)
        seen.add(e)
        edges.append(e)
    return Graph(range(n), edges)


class PlaneEmbedding:
    """A rotation system (clockwise neighbor order per vertex) with faces.

    Faces are traced by following, after arriving at v from u, the neighbor
    that comes right after u in v's clockwise rotation.  Each directed edge
    (dart) lies on exactly one face walk; the walk bounding the unbounded
    region is designated the outer face.

    Storage.  rotation maps each vertex to a tuple, the caller's own tuple
    where one was given.  faces is a tuple of walks, each the tuple of the
    tails of its darts: dart j of a walk runs from its entry j to the next
    one, and its last dart back to its first entry.  A walk starts at the
    tail of its least dart (u, v), and the walks are ordered by their
    least darts: the order of one trace over the darts in the order the
    graph keeps them, sorted tails and then sorted heads.  No dart or edge
    is an object: the darts are numbered walk by walk, dart j of face f
    being _face_base[f] + j, and four integer arrays hold the rest.
    _across gives the face on the other side of each dart, _twin the
    reverse dart, and _vertex_dart one dart leaving each vertex, in graph
    order (-1 for an isolated one).  So a flood reads the face across each
    step of a walk directly, and the darts leaving v come one after the
    other from the successor of each one's twin (_around), for the faces
    at v (_faces_at).

    restrict(vertices, pick_outer) embeds an induced subgraph under the
    restricted rotation.  It keeps every face whose vertices all survive,
    as the same tuple, and traces only the surviving darts of the others.
    """

    __slots__ = ("graph", "rotation", "faces", "outer_face", "_face_base", "_across",
                 "_twin", "_vertex_dart", "_plane")

    def __init__(self, graph, rotation, pick_outer):
        """rotation: dict v -> sequence of neighbors in clockwise order.

        The outer face is pick_outer(faces), an index into the faces
        traced here, so one trace serves both the choice of the outer face
        and the embedding; pick_outer may refuse by raising."""
        self.graph = graph
        self._plane = None
        for v in rotation:
            if v not in graph:
                raise EmbeddingError("rotation given for %r, which is not a vertex" % (v,))
        rot = {}
        for v in graph.vertices:
            order = tuple(rotation.get(v, ()))
            if tuple(sorted(order)) != graph.neighbors(v):
                raise EmbeddingError(
                    "rotation at %r does not list its neighbors exactly once" % (v,))
            rot[v] = order
        self.rotation = rot
        faces, numbers = self._trace(
            (u, v) for u in graph.vertices for v in graph.neighbors(u))
        self.faces = tuple(faces)
        self._index(numbers)
        self.outer_face = pick_outer(self.faces)

    def restrict(self, vertices, pick_outer):
        """The embedding of the subgraph induced on vertices, under this
        rotation with the other vertices left out, whose outer face is
        pick_outer(faces), an index into its faces; pick_outer may refuse
        by raising.

        A face whose vertices all survive is still a face, as the same
        tuple: each of its darts still leaves toward the same next
        neighbour, since that neighbour survives.  Only the surviving
        darts of the other faces are traced again, and the faces come in
        the order a trace of the whole restriction gives them.

        A restriction of a plane embedding embeds each of its components
        in the sphere, so Euler's count alone tells whether it is plane
        (see _is_plane)."""
        keep = set(vertices)
        graph = self.graph.subgraph(keep)
        lost = set()
        for v in self.graph.vertices:
            if v not in keep:
                lost.update(self._faces_at(v))
        new = PlaneEmbedding.__new__(PlaneEmbedding)
        new.graph = graph
        rot = {}
        for v in graph.vertices:
            order = self.rotation[v]
            kept = tuple([u for u in order if u in keep])
            rot[v] = order if len(kept) == len(order) else kept
        new.rotation = rot
        faces, starts = [], []
        for idx, face in enumerate(self.faces):
            if idx not in lost:
                faces.append(face)
            else:
                starts.extend(d for d in _darts(face) if d[0] in keep and d[1] in keep)
        starts.sort()
        faces.extend(new._trace(starts)[0])
        # a walk starts at its least dart, and no two walks share a dart
        faces.sort()
        new.faces = tuple(faces)
        new._index(dict(zip(itertools.chain.from_iterable(map(_darts, faces)),
                            itertools.count())))
        new._plane = (graph.m > 0 and graph.n - graph.m + len(faces) == 2
                      if self._plane else None)
        new.outer_face = pick_outer(new.faces)
        return new

    def _trace(self, starts):
        """The face walks through the darts of starts, each begun at its
        first dart in starts, and a dict that numbers their darts walk by
        walk, in walk order; with starts increasing, each walk begins at
        its least dart and the walks come ordered by it."""
        rot = self.rotation
        used = {}
        faces = []
        for start in starts:
            if start in used:
                continue
            walk = []
            cur = start
            while cur not in used:
                used[cur] = len(used)
                u, v = cur
                walk.append(u)
                # Arriving at v from u, leave toward the next clockwise neighbor.
                order = rot[v]
                i = order.index(u) + 1
                cur = (v, order[i] if i < len(order) else order[0])
            if cur != start:
                raise EmbeddingError("face walk from %r does not close" % (start,))
            faces.append(tuple(walk))
        return faces, used

    def _index(self, numbers):
        """Fill the arrays of the class docstring, given the dict that
        numbers each dart (u, v) walk by walk."""
        faces = self.faces
        face_of = [f for f, face in enumerate(faces) for _ in face]
        self._face_base = array("i", itertools.accumulate(map(len, faces), initial=0))
        self._twin = array("i", [numbers[v, u] for u, v in numbers])
        self._across = array("i", [face_of[t] for t in self._twin])
        self._vertex_dart = array("i", [numbers[v, order[0]] if order else -1
                                        for v, order in self.rotation.items()])

    def _around(self, v):
        """The darts leaving v, toward rotation[v][0] and on in rotation
        order, and their faces, as two lists.  The dart after the twin of
        the one toward w leaves v toward the neighbour after w."""
        darts, faces = [], []
        if self.rotation[v]:
            d = self._vertex_dart[bisect.bisect_left(self.graph.vertices, v)]
            face_base, twin, across = self._face_base, self._twin, self._across
            f = bisect.bisect_right(face_base, d) - 1
            for _ in self.rotation[v]:
                darts.append(d)
                faces.append(f)
                d, f = twin[d] + 1, across[d]
                if d == face_base[f + 1]:
                    d = face_base[f]
        return darts, faces

    def _faces_at(self, v):
        """The faces through v, with repeats: those of the darts leaving
        v, since a face through v leaves it along a dart."""
        return self._around(v)[1]

    def _steps(self, f):
        """The darts (u, v) of face f in walk order, each with the face
        across it, as triples."""
        face, base = self.faces[f], self._face_base
        return zip(face, face[1:] + face[:1], self._across[base[f]:base[f + 1]])

    def _is_plane(self):
        """Whether the graph is connected with V - E + F = 2, i.e. the
        rotation embeds it in the sphere; computed once.

        A restriction of a plane embedding is decided by the count alone
        (restrict sets it): each of its components with an edge is plane
        and counts 2, and an isolated vertex counts 1, so with an edge the
        count is 2 exactly when the graph is connected, and with none the
        graph is not plane (Mohar and Thomassen, Graphs on Surfaces)."""
        if self._plane is None:
            g = self.graph
            self._plane = g.is_connected() and g.n - g.m + len(self.faces) == 2
        return self._plane


def _darts(face):
    """The darts of a face walk, in walk order from its first vertex."""
    return zip(face, face[1:] + face[:1])


def planar_rotation(g):
    """Clockwise rotation system for a planar graph, or raise EmbeddingError.

    Backed by the standard linear-time planarity test; the returned dict maps
    each vertex to its neighbors in clockwise order.
    """
    import networkx as nx

    ng = nx.Graph()
    ng.add_nodes_from(g.vertices)
    ng.add_edges_from(g.edges)
    ok, emb = nx.check_planarity(ng)
    if not ok:
        raise EmbeddingError("graph is not planar")
    data = emb.get_data()
    return {v: tuple(data.get(v, ())) for v in g.vertices}


def _series_parallel_core(adj):
    """Reduce the graph with adjacency map adj (vertex -> its neighbours,
    left unchanged) by deleting degree-<=1 vertices and smoothing degree-2
    vertices, collapsing any parallel edges that appear.  The reduction
    runs to a fixed point; the core is empty exactly when every block is
    series-parallel, i.e. when no K4 shape exists."""
    adj = {v: set(ns) for v, ns in adj.items()}
    queue = deque(v for v, ns in adj.items() if len(ns) <= 2)
    while queue:
        v = queue.popleft()
        if v not in adj:
            continue
        d = len(adj[v])
        if d > 2:
            continue
        if d <= 1:
            for w in adj.pop(v):
                adj[w].discard(v)
                if len(adj[w]) <= 2:
                    queue.append(w)
            continue
        a, b = adj.pop(v)
        adj[a].discard(v)
        adj[b].discard(v)
        # smoothing may create a parallel a-b edge: keep a single copy
        if b not in adj[a]:
            adj[a].add(b)
            adj[b].add(a)
        for w in (a, b):
            if len(adj[w]) <= 2:
                queue.append(w)
    return {v: ns for v, ns in adj.items() if ns}


def is_planar(g):
    """Whether g is planar, for callers that need no rotation.

    A graph with n >= 3 and more than 3n - 6 edges breaks Euler's bound.
    A graph whose series-parallel core is empty has no K4 minor, hence
    no K5 or K3,3 minor, and is planar (Duffin, 1965).  Any other graph
    is planar exactly when its core is (the core only drops pendant
    vertices, smooths degree-2 vertices and merges parallel edges), which
    the left-right test decides; _planar_adjacency runs these two steps.
    """
    if g.n >= 3 and g.m > 3 * g.n - 6:
        return False
    return _planar_adjacency(g._adj)


def _planar_adjacency(adj):
    """is_planar past its Euler bound, on an adjacency map."""
    core = _series_parallel_core(adj)
    return not core or _lr_planar(core)


def _lr_planar(adj):
    """Left-right planarity test (Brandes, "The Left-Right Planarity Test",
    2009; de Fraysseix and Rosenstiehl) on a simple graph given as a
    symmetric adjacency dict.  Only the orientation and testing phases run,
    without recursion, so the answer is a boolean and no rotation is built.

    Ported from the iterative LRPlanarity of networkx (BSD-3-Clause,
    Copyright (c) 2004-2025, NetworkX Developers), without its embedding
    phase and the side and tree-edge references that only that phase reads,
    and on integers: the vertices become 0..n-1 in adj's order, each edge
    gets an id in the order the DFS orients it, and the per-vertex and
    per-edge labels are lists indexed by these, with -1 for none.  A
    conflict pair is a list [left low, left high, right low, right high]
    of back-edge ids; an interval is empty when both of its ends are -1.
    """
    n = len(adj)
    m = sum(map(len, adj.values())) // 2
    if n > 2 and m > 3 * n - 6:
        return False
    index = {v: i for i, v in enumerate(adj)}
    nbrs = [[index[w] for w in ws] for ws in adj.values()]
    # orientation: DFS heights, lowpoints and the nesting order of edges
    height = [-1] * n
    parent_edge = [-1] * n
    # per edge id: the vertex it points to, its lowpoints and nesting depth
    head, lowpt, lowpt2, nesting = ([0] * m for _ in range(4))
    out = [[] for _ in range(n)]
    oriented = set()  # v * n + w for each edge oriented v -> w

    def finish(vw, hv, e):
        nesting[vw] = 2 * lowpt[vw] + (lowpt2[vw] < hv)
        if e >= 0:
            lw, le = lowpt[vw], lowpt[e]
            if lw < le:
                lowpt2[e] = min(le, lowpt2[vw])
                lowpt[e] = lw
            elif lw > le:
                lowpt2[e] = min(lowpt2[e], lw)
            else:
                lowpt2[e] = min(lowpt2[e], lowpt2[vw])

    for root in range(n):
        if height[root] >= 0:
            continue
        height[root] = 0
        frames = [(root, iter(nbrs[root]))]
        while frames:
            v, todo = frames[-1]
            hv = height[v]
            for w in todo:
                if w * n + v in oriented:
                    continue
                vw = len(oriented)
                oriented.add(v * n + w)
                head[vw] = w
                out[v].append(vw)
                lowpt[vw] = lowpt2[vw] = hv
                if height[w] < 0:
                    parent_edge[w] = vw
                    height[w] = hv + 1
                    frames.append((w, iter(nbrs[w])))
                    break
                lowpt[vw] = height[w]
                finish(vw, hv, parent_edge[v])
            else:
                frames.pop()
                e = parent_edge[v]
                if e >= 0:
                    u = frames[-1][0]  # the tail of e
                    finish(e, height[u], parent_edge[u])

    # testing: merge the constraints of the return edges, bottom up
    ordered = [sorted(es, key=nesting.__getitem__) for es in out]
    stack = []
    # stack_bottom holds the stack's size when the edge is reached
    stack_bottom, lowpt_edge, ref = ([-1] * m for _ in range(3))

    def conflicting(low, high, b):
        return (low >= 0 or high >= 0) and lowpt[high] > lowpt[b]

    def lowest(p):
        if p[0] < 0 and p[1] < 0:
            return lowpt[p[2]]
        if p[2] < 0 and p[3] < 0:
            return lowpt[p[0]]
        return min(lowpt[p[0]], lowpt[p[2]])

    def add_constraints(ei, e):
        p = [-1, -1, -1, -1]
        # merge the return edges of ei into the right interval of p
        while True:
            q = stack.pop()
            if q[0] >= 0 or q[1] >= 0:
                q[:] = q[2], q[3], q[0], q[1]
            if q[0] >= 0 or q[1] >= 0:
                return False
            if lowpt[q[2]] > lowpt[e]:
                if p[2] < 0 and p[3] < 0:
                    p[3] = q[3]
                else:
                    ref[p[2]] = q[3]
                p[2] = q[2]
            else:
                ref[q[2]] = lowpt_edge[e]
            if len(stack) == stack_bottom[ei]:
                break
        # merge the conflicting return edges of earlier siblings into the left
        while (conflicting(stack[-1][0], stack[-1][1], ei)
               or conflicting(stack[-1][2], stack[-1][3], ei)):
            q = stack.pop()
            if conflicting(q[2], q[3], ei):
                q[:] = q[2], q[3], q[0], q[1]
            if conflicting(q[2], q[3], ei):
                return False
            if p[2] >= 0:
                ref[p[2]] = q[3]
            if q[2] >= 0:
                p[2] = q[2]
            if p[0] < 0 and p[1] < 0:
                p[1] = q[1]
            else:
                ref[p[0]] = q[1]
            p[0] = q[0]
        if p != [-1, -1, -1, -1]:
            stack.append(p)
        return True

    def remove_back_edges(u):
        # u is the tail of the tree edge whose subtree is done
        hu = height[u]
        while stack and lowest(stack[-1]) == hu:
            stack.pop()
        if stack:
            p = stack[-1]
            # trim the left interval, then the right one
            while p[1] >= 0 and head[p[1]] == u:
                p[1] = ref[p[1]]
            if p[1] < 0 and p[0] >= 0:
                ref[p[0]] = p[2]
                p[0] = -1
            while p[3] >= 0 and head[p[3]] == u:
                p[3] = ref[p[3]]
            if p[3] < 0 and p[2] >= 0:
                ref[p[2]] = p[0]
                p[2] = -1

    for root in (v for v in range(n) if parent_edge[v] < 0):
        frames = [(root, 0, False)]
        while frames:
            v, k, resumed = frames.pop()
            e = parent_edge[v]
            hv = height[v]
            es = ordered[v]
            while k < len(es):
                ei = es[k]
                if not resumed:
                    stack_bottom[ei] = len(stack)
                    w = head[ei]
                    if parent_edge[w] == ei:
                        frames.append((v, k, True))
                        frames.append((w, 0, False))
                        break
                    lowpt_edge[ei] = ei
                    stack.append([-1, -1, ei, ei])
                resumed = False
                if lowpt[ei] < hv:
                    if k == 0:
                        lowpt_edge[e] = lowpt_edge[ei]
                    elif not add_constraints(ei, e):
                        return False
                k += 1
            else:
                if e >= 0:
                    remove_back_edges(frames[-1][0])
    return True


class DiskRegion:
    """A closed disk of an embedding: its interior faces plus the cycle
    bounding them.  Membership is face arithmetic and nothing else.

    A disk is a view (depth, level) of an array with one entry per face
    of the embedding: its interior faces are those of depth at least
    level.  A disk built from a face set, or by of_cycle, holds its own
    0/1 depths at level 1; the disks of a NestedCycles family share the
    family's depths, each at its own level (see _nested_disks).  Every
    disk is set up by _set.  interior_faces builds a frozenset on each
    read.  The closed and open vertex and edge sets are each built on
    first read (an open one from its closed one), so vertices() builds no
    edge set and edges() no vertex set; has_vertex asks only the faces at
    a vertex."""

    __slots__ = ("embedding", "boundary_cycle", "_depth", "_level", "_closed_v", "_open_v",
                 "_closed_e", "_open_e")

    def __init__(self, embedding, interior_faces, boundary_cycle):
        depth = array("I", [0]) * len(embedding.faces)
        for f in interior_faces:
            depth[f] = 1
        self._set(embedding, boundary_cycle, depth, 1)

    def _set(self, embedding, boundary_cycle, depth, level):
        """Make this the disk of the faces of depth at least level, with
        no vertex or edge set built yet."""
        self.embedding = embedding
        self.boundary_cycle = tuple(boundary_cycle)
        self._depth = depth
        self._level = level
        self._closed_v = self._open_v = self._closed_e = self._open_e = None
        return self

    @classmethod
    def of_cycle(cls, embedding, cycle_vertices):
        """The disk bounded by a cycle: all faces not reachable from the
        outer face in the dual graph without crossing a cycle edge."""
        cyc = list(cycle_vertices)
        outside = set()
        _flood(embedding, outside, [embedding.outer_face],
               _cycle_darts(embedding, cyc))
        depth = array("I", [1]) * len(embedding.faces)
        for f in outside:
            depth[f] = 0
        return cls.__new__(cls)._set(embedding, cyc, depth, 1)

    @property
    def interior_faces(self):
        return frozenset(self._faces())

    def _fresh(self):
        """A view of the same faces that holds no vertex or edge set."""
        return DiskRegion.__new__(DiskRegion)._set(self.embedding, self.boundary_cycle,
                                                   self._depth, self._level)

    def _faces(self):
        """The interior faces, as an iterable."""
        return itertools.compress(range(len(self._depth)),
                                  map(self._level.__le__, self._depth))

    def _exterior(self):
        """The faces of the embedding that are not interior, as an iterable."""
        return itertools.compress(range(len(self._depth)),
                                  map(self._level.__gt__, self._depth))

    def _inside(self, faces):
        """Whether each face of faces is interior, as an iterable."""
        return map(self._level.__le__, map(self._depth.__getitem__, faces))

    def _holds(self, faces):
        """Whether every face of faces is interior."""
        return all(self._inside(faces))

    def _meets(self, faces):
        """Whether some face of faces is interior."""
        return any(self._inside(faces))

    def vertices(self, mode="closed"):
        """Closed: the boundary and the vertices of interior faces; open:
        the closed ones off the boundary and on no face outside."""
        emb = self.embedding
        if _is_open(mode):
            if self._open_v is None:
                self._open_v = self.vertices().difference(
                    self.boundary_cycle, *map(emb.faces.__getitem__, self._exterior()))
            return self._open_v
        if self._closed_v is None:
            closed = set(itertools.chain.from_iterable(map(emb.faces.__getitem__,
                                                           self._faces())))
            closed.update(v for v in self.boundary_cycle if v in emb.graph)
            self._closed_v = frozenset(closed)
        return self._closed_v

    def edges(self, mode="closed"):
        """Closed: the edges of interior faces; open: those with both sides
        interior."""
        emb = self.embedding
        if _is_open(mode):
            if self._open_e is None:
                depth, level = self._depth, self._level
                steps = itertools.chain.from_iterable(map(emb._steps, self._faces()))
                self._open_e = frozenset((u, v) if u < v else (v, u)
                                         for u, v, g in steps if depth[g] >= level)
            return self._open_e
        if self._closed_e is None:
            faces = emb.faces
            self._closed_e = frozenset((u, v) if u < v else (v, u) for f in self._faces()
                                       for u, v in _darts(faces[f]))
        return self._closed_e

    def has_vertex(self, v, mode="closed"):
        """v in vertices(mode), read from that set where it exists and else
        from the faces at v.  False for a vertex outside the embedding."""
        is_open = _is_open(mode)
        known = self._open_v if is_open else self._closed_v
        if known is not None or v not in self.embedding.graph:
            return known is not None and v in known
        return self._at(v, is_open, self.embedding._faces_at(v))

    def _at(self, v, is_open, faces):
        """has_vertex(v) read from faces, the faces at v."""
        if is_open:
            return bool(faces) and self._holds(faces) and v not in self.boundary_cycle
        return self._meets(faces) or v in self.boundary_cycle

    def subgraph(self, mode="closed"):
        """The graph on the vertices of the given mode.  An open edge may
        end on the boundary cycle, which is not open, so the open subgraph
        keeps only the open edges whose ends are both open."""
        vs = self.vertices(mode)
        es = self.edges(mode)
        if mode == "open":
            es = [e for e in es if e[0] in vs and e[1] in vs]
        return self.embedding.graph.restrict(vs, es)


def _is_open(mode):
    """Whether mode asks for the open disk rather than the closed one."""
    if mode not in ("closed", "open"):
        raise TmhError("mode must be 'open' or 'closed'")
    return mode == "open"


def _cycle_darts(embedding, cyc):
    """The darts of a bounding cycle, both ways (see _walk_darts), refused
    unless the cycle has at least 3 vertices and every step is an edge."""
    if len(cyc) < 3:
        raise EmbeddingError("a bounding cycle needs at least 3 vertices")
    return _walk_darts(embedding, list(cyc) + [cyc[0]])


def _walk_darts(embedding, walk):
    """The set of the darts of the steps of walk, each step both ways, as
    dart ids.  A step's dart is found by turning about its tail through
    the rotation from the reverse of the step before; the first step
    turns from the dart toward rotation[tail][0], as if the walk had come
    from there.  A step that is not an edge is refused with
    EmbeddingError."""
    rot = embedding.rotation
    twin, across, base = embedding._twin, embedding._across, embedding._face_base
    u, v = walk[0], walk[1]
    if v not in rot.get(u, ()):
        raise EmbeddingError("cycle step %r-%r is not an edge" % (u, v))
    prev = rot[u][0]
    d = twin[embedding._vertex_dart[bisect.bisect_left(embedding.graph.vertices, u)]]
    darts = set()
    add = darts.add
    for u, v in zip(walk, walk[1:]):
        order = rot.get(u, ())
        if v not in order:
            raise EmbeddingError("cycle step %r-%r is not an edge" % (u, v))
        # the dart after the twin of the one toward w leaves u toward the
        # neighbour after w (see PlaneEmbedding._around); at a vertex of
        # degree two that is the other neighbour
        turns = ((order.index(v) - order.index(prev)) % len(order) if len(order) > 2
                 else v != prev)
        d = twin[d]
        while turns:
            f = across[d]
            d = twin[d] + 1
            if d == base[f + 1]:
                d = base[f]
            turns -= 1
        add(d)
        add(twin[d])
        prev = u
    return darts


def _flood(embedding, outside, seeds, cut, blocked=None):
    """Add to the face set outside every face the seeds reach in the dual
    graph without crossing a dart of cut, a set of dart ids that holds
    both darts of each edge it cuts (_walk_darts); returns the faces
    added, in no particular order.  A list blocked receives the face
    across each step along cut on the way.  The faces across a face with
    no dart in cut are taken as one slice of _across."""
    added = [f for f in dict.fromkeys(seeds) if f not in outside]
    outside.update(added)
    queue = deque(added)
    base, across = embedding._face_base, embedding._across
    while queue:
        f = queue.popleft()
        lo, hi = base[f], base[f + 1]
        if cut.isdisjoint(range(lo, hi)):
            fresh = set(across[lo:hi]).difference(outside)
        else:
            fresh = set()
            for d in range(lo, hi):
                if d in cut:
                    if blocked is not None:
                        blocked.append(across[d])
                elif across[d] not in outside:
                    fresh.add(across[d])
        outside.update(fresh)
        added.extend(fresh)
        queue.extend(fresh)
    return added


def _nested_disks(embedding, cycles):
    """The disks of pairwise disjoint cycles given outermost first, each
    with DiskRegion.of_cycle's faces, as views of one depth per face, disk
    i at level i, for about one flood of the dual per family.  The one
    place a nested family is built: refused, in this order, if two cycles
    meet, if of_cycle refuses a cycle (each in order), or if a disk does
    not lie in the one before.

    In a connected plane graph (V - E + F = 2) the edges of a simple
    cycle form a minimal edge cut of the dual graph (Whitney; Mohar and
    Thomassen, Graphs on Surfaces, 2001), so the dual minus them has two
    sides.  The faces outside C_{i-1}, plus the faces across C_{i-1}'s
    edges (which the flood of C_{i-1} meets; after of_cycle, the faces at
    C_{i-1}'s vertices, which lie outside C_i if the disks nest), flooded
    without crossing C_i, form a set closed in the dual minus C_i that
    holds the outer face: exactly the outside of C_i, or every face,
    which happens only when C_i's disk does not lie in C_{i-1}'s.  So the
    faces each flood adds have depth i - 1, and the disks nest by
    construction.  A cycle
    whose interior comes out empty, or that repeats a vertex, takes
    of_cycle, and so does every cycle of an embedding that is not
    connected or not plane; only such a disk is checked to lie in the one
    before."""
    seen = set()
    for c in cycles:
        if not seen.isdisjoint(c):
            raise EmbeddingError("nested cycles must be pairwise vertex-disjoint")
        seen.update(c)
    cuts = [_cycle_darts(embedding, c) for c in cycles]
    n_faces = len(embedding.faces)
    depth = array("I", [len(cycles)]) * n_faces
    plane = embedding._is_plane()
    outside, inside = set(), set(range(n_faces))
    seeds = [embedding.outer_face]
    for level, (c, cut) in enumerate(zip(cycles, cuts)):
        across = []
        gone = (_flood(embedding, outside, seeds, cut, across)
                if plane and len(set(c)) == len(c) else None)
        if gone is None or len(gone) == len(inside):
            disk = DiskRegion.of_cycle(embedding, c).interior_faces
            if not inside.issuperset(disk):
                raise EmbeddingError("cycle disks do not nest")
            gone = inside - disk
            outside = set(range(n_faces)) - disk
            across = [f for v in c for f in embedding._faces_at(v)]
        inside.difference_update(gone)
        for f in gone:
            depth[f] = level
        seeds = across
    return [DiskRegion.__new__(DiskRegion)._set(embedding, c, depth, i)
            for i, c in enumerate(cycles, 1)]


class NestedCycles:
    """A sequence [C_1..C_r] of pairwise disjoint cycles whose disks nest,
    outermost first, within one embedding.

    The constructor floods the dual graph about once for the whole family
    (see _nested_disks), with the disks and refusals of one
    DiskRegion.of_cycle per cycle.  The family keeps one depth per face,
    the number of its disks that hold the face, and its region i is the
    view of the faces of depth at least i; a slice (_slice) keeps those
    views."""

    __slots__ = ("embedding", "cycles", "regions")

    def __init__(self, embedding, cycles):
        self.embedding = embedding
        self.cycles = [tuple(c) for c in cycles]
        self.regions = _nested_disks(embedding, self.cycles)

    def _slice(self, lo, hi):
        """The family of levels lo..hi (1-based) on this family's own
        disks, which nest, so nothing is checked again."""
        part = NestedCycles.__new__(NestedCycles)
        part.embedding = self.embedding
        part.cycles = self.cycles[lo - 1:hi]
        part.regions = self.regions[lo - 1:hi]
        return part

    @property
    def r(self):
        return len(self.cycles)

    def open_disk(self, i):
        """Vertices strictly inside C_i (1-based)."""
        return self.regions[i - 1].vertices("open")

    def closed_disk(self, i):
        return self.regions[i - 1].vertices("closed")

    def annulus(self, x, y):
        """The band D-closed(x) minus D-open(y), 1-based, x outermost; the
        whole annulus is annulus(1, r)."""
        if not (1 <= x <= y <= self.r):
            raise TmhError("annulus indices must satisfy 1 <= x <= y <= r")
        return AnnulusBand(self.regions[x - 1], self.regions[y - 1], x, y)


class AnnulusBand:
    """The band between nested cycles x <= y: the closed disk of the outer
    one minus the open disk of the inner one.  Its vertex and edge sets are
    built on first read; has_vertex and inside ask the two disks instead."""

    def __init__(self, outer, inner, x, y):
        self.outer, self.inner, self.x, self.y = outer, inner, x, y

    @functools.cached_property
    def vertices(self):
        return self.outer.vertices("closed") - self.inner.vertices("open")

    @functools.cached_property
    def edges(self):
        return self.outer.edges("closed") - self.inner.edges("open")

    def has_vertex(self, v):
        outer, inner = self.outer, self.inner
        if outer._closed_v is None and inner._open_v is None and v in outer.embedding.graph:
            # neither disk holds its set, so both read the faces at v, once
            faces = outer.embedding._faces_at(v)
            return outer._at(v, False, faces) and not inner._at(v, True, faces)
        return outer.has_vertex(v, "closed") and not inner.has_vertex(v, "open")

    def inside(self, vertices, edges):
        """The given vertices and edges (a collection, maybe empty) that lie
        in the band, as two sets, read off the two disks' own sets, so the
        band builds no set of its own and no edge set is read for no
        edges."""
        vs = (self.outer.vertices("closed").intersection(vertices)
              .difference(self.inner.vertices("open")))
        if not edges:
            return vs, set()
        return vs, (self.outer.edges("closed").intersection(edges)
                    .difference(self.inner.edges("open")))

    def subgraph_of(self, g):
        vs = self.vertices & set(g.vertices)
        es = [e for e in self.edges if g.has_edge(*e)]
        return g.restrict(vs, es)


class PartiallyDiskEmbedded:
    """A graph G together with a disk Delta: the part of G inside Delta (the
    compass) carries a plane embedding whose designated boundary cycle is
    bor(Delta); the rest of G attaches only through boundary vertices."""

    __slots__ = ("graph", "compass", "embedding", "boundary_cycle")

    def __init__(self, graph, embedding, boundary_cycle):
        self.graph = graph
        self.embedding = embedding
        self.compass = embedding.graph
        self.boundary_cycle = tuple(boundary_cycle)
        b = set(self.boundary_cycle)
        k = len(self.boundary_cycle)
        for i in range(k):
            u, v = self.boundary_cycle[i], self.boundary_cycle[(i + 1) % k]
            if not self.compass.has_edge(u, v):
                raise EmbeddingError("boundary step %r-%r is not a compass edge" % (u, v))
        if not all(v in graph for v in self.compass.vertices):
            raise TmhError("compass vertices must belong to the graph")
        if not all(set(graph.neighbors(v)).issuperset(self.compass.neighbors(v))
                   for v in self.compass.vertices):
            raise TmhError("compass edges must belong to the graph")
        # an edge crossing the boundary away from it has an end inside only
        for u in self.compass.vertices:
            if u not in b:
                for v in graph.neighbors(u):
                    if v not in self.compass:
                        raise TmhError("edge %r-%r crosses the disk boundary away "
                                       "from it" % (min(u, v), max(u, v)))
