"""Conversions and checks that only the tests read: the Graph of a
MutableAdjacency's current state, a graph relabelled onto 0..n-1, a report
without its volatile section, and Euler's formula on an embedding."""

import json

from tmh.graphs import Graph


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
            fs.update(emb.faces_of_vertex(v))
        if len(comp) == 1 and not fs:
            continue
        if len(vs) - es + len(fs) != 2:
            return False
    return True
