"""Synthetic instance builders shared by tests, demos, and the CLI
generator: stream-by-cycle fabric for bramble work, seeded planar hosts
for the end-to-end solver harness, and (elsewhere) annulus fixtures.

Generation is fully deterministic from the seed: a small linear
congruential generator keeps runs reproducible across platforms without
depending on interpreter hash state.
"""

from __future__ import annotations

from .graphs import Graph, TmhError, _planar_adjacency


class Lcg:
    """Minimal deterministic RNG for instance synthesis."""

    __slots__ = ("state",)

    def __init__(self, seed):
        self.state = (seed ^ 0x5DEECE66D) % (1 << 48)

    def next_int(self, bound):
        self.state = (self.state * 25214903917 + 11) % (1 << 48)
        return (self.state >> 16) % bound

    def choice(self, seq):
        return seq[self.next_int(len(seq))]


def stream_cycle_fabric(r, subdivide=0):
    """An r-by-r fabric of cycle arcs (rows) crossed by streams (columns),
    with the outer boundary closing into a cycle.

    Returns (graph, cycle_arcs, streams, boundary).  subdivide > 0 inserts
    that many extra vertices on interior stream segments, making the
    streams wiggle without changing the crossing structure.
    """
    if r < 2:
        raise TmhError("fabric needs r >= 2, got %d" % r)

    def vert(i, j):
        return (i - 1) * r + (j - 1)

    edges = set()
    for i in range(1, r + 1):
        for j in range(1, r):
            edges.add((vert(i, j), vert(i, j + 1)))
    columns = {j: [vert(i, j) for i in range(1, r + 1)] for j in range(1, r + 1)}
    next_id = r * r
    budget = subdivide
    for j in range(2, r):
        col = columns[j]
        grown = [col[0]]
        for below in col[1:]:
            if budget > 0:
                grown.append(next_id)
                next_id += 1
                budget -= 1
            grown.append(below)
        columns[j] = grown
    for j in range(1, r + 1):
        col = columns[j]
        for a, b in zip(col, col[1:]):
            edges.add((min(a, b), max(a, b)))
    g = Graph(range(next_id), edges)

    cycle_arcs = [[vert(i, j) for j in range(1, r + 1)] for i in range(1, r + 1)]
    streams = [columns[j] for j in range(1, r + 1)]
    boundary = []
    boundary.extend(vert(1, j) for j in range(1, r + 1))
    boundary.extend(columns[r][1:-1])
    boundary.extend(vert(r, j) for j in range(r, 0, -1))
    boundary.extend(reversed(columns[1][1:-1]))
    return g, cycle_arcs, streams, boundary


def random_planar_graph(seed, n, tries=200):
    """Seeded connected planar graph on n >= 1 vertices: grow a random
    tree, then keep adding random chords while planarity survives.

    Every try draws its two endpoints whatever happens to the chord, so
    the output depends only on the seed, n and tries.  The chords are
    tried on one adjacency of sets: added, tested, and taken out again if
    refused.  Two refusals need no test: a chord refused before (the graph
    only gains edges, and a graph with a non-planar subgraph is not
    planar), and any chord once the graph has 3n - 6 edges (Euler's bound).
    """
    if n < 1:
        raise TmhError("random planar graph needs n >= 1, got %d" % n)
    rng = Lcg(seed)
    adj = {v: set() for v in range(n)}
    edges = set()
    for v in range(1, n):
        u = rng.next_int(v)
        edges.add((u, v))
        adj[u].add(v)
        adj[v].add(u)
    rejected = set()
    for _ in range(tries):
        a = rng.next_int(n)
        b = rng.next_int(n)
        if a == b:
            continue
        e = (min(a, b), max(a, b))
        if e in edges or e in rejected or len(edges) >= 3 * n - 6:
            continue
        adj[a].add(b)
        adj[b].add(a)
        if _planar_adjacency(adj):
            edges.add(e)
        else:
            adj[a].discard(b)
            adj[b].discard(a)
            rejected.add(e)
    return Graph(range(n), edges)


def series_parallel_graph(seed, n):
    """Seeded 2-terminal series-parallel graph on ~n vertices; these hosts
    stay free of the complete pattern on four vertices by construction."""
    rng = Lcg(seed)
    edges = {(0, 1)}
    next_id = 2
    pool = [(0, 1)]
    while next_id < n:
        u, v = pool[rng.next_int(len(pool))]
        if rng.next_int(2):
            # series: subdivide u-v through a fresh vertex
            w = next_id
            next_id += 1
            edges.discard((min(u, v), max(u, v)))
            edges.add((min(u, w), max(u, w)))
            edges.add((min(v, w), max(v, w)))
            pool.remove((u, v))
            pool.append((u, w))
            pool.append((w, v))
        else:
            # parallel: a fresh two-edge path beside u-v
            w = next_id
            next_id += 1
            edges.add((min(u, w), max(u, w)))
            edges.add((min(v, w), max(v, w)))
            pool.append((u, w))
            pool.append((w, v))
    return Graph(range(next_id), edges)
