"""Conversions and checks that only the tests read: the Graph of a
MutableAdjacency's current state, a graph relabelled onto 0..n-1, a report
without its volatile section, Euler's formula on an embedding, the face
incidences of an embedding and the refusing membership query of a disk,
and a graph kept as an explicit edge set to check Graph against."""

import json

from tmh.graphs import EmbeddingError, Graph, _normalize_edge


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
    """The faces through v, read from the embedding's vertex index."""
    if v not in emb._vertex_faces:
        raise EmbeddingError("vertex %r is not embedded" % (v,))
    return frozenset(emb._vertex_faces[v])


def faces_of_edge(emb, u, v):
    """The faces on the two sides of edge u-v, in increasing order."""
    e = _normalize_edge(u, v)
    if e not in emb._edge_faces:
        raise EmbeddingError("edge %r is not embedded" % (e,))
    return emb._edge_faces[e]


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
