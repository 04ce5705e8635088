import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    EdgeSetGraph,
    adjacency_graph,
    assert_store_matches_dart_walks,
    check_euler,
    contains_vertex,
    face_darts,
    faces_of_edge,
    faces_of_vertex,
    reference_family,
    separation_halves,
)
from tmh.graphs import (
    AnnulusBand,
    DiskRegion,
    EmbeddingError,
    Graph,
    MutableAdjacency,
    NestedCycles,
    ParseError,
    PartiallyDiskEmbedded,
    PlaneEmbedding,
    TmhError,
    _cycle_order,
    _flood,
    _lr_planar,
    _planar_adjacency,
    _series_parallel_core,
    _walk_darts,
    is_planar,
    parse_graph,
    planar_rotation,
)
from tmh.synth import random_planar_graph


def triangle():
    return Graph.from_edges([(0, 1), (1, 2), (0, 2)])


def _embed(g):
    """g under planar_rotation, with the outer face through the least dart,
    which face 0 holds."""
    return PlaneEmbedding(g, planar_rotation(g), lambda faces: 0)


def is_separation(g, a, b):
    """True iff (a, b) covers V(g) and no edge joins a-only to b-only."""
    a, b = set(a), set(b)
    if a | b != set(g.vertices):
        return False
    a_only = a - b
    b_only = b - a
    for u, v in g.edges:
        if (u in a_only and v in b_only) or (v in a_only and u in b_only):
            return False
    return True


def concentric_triangles():
    """Three nested triangles joined by spokes, with explicit rotations."""
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
             (6, 7), (7, 8), (6, 8), (0, 3), (1, 4), (2, 5),
             (3, 6), (4, 7), (5, 8)]
    g = Graph.from_edges(edges)
    rot = {
        0: (1, 3, 2), 1: (2, 4, 0), 2: (0, 5, 1),
        3: (0, 4, 6, 5), 4: (1, 5, 7, 3), 5: (2, 3, 8, 4),
        6: (3, 7, 8), 7: (4, 8, 6), 8: (5, 6, 7),
    }
    # face 0 holds the least dart, (0, 1), which runs along the outer triangle
    return PlaneEmbedding(g, rot, lambda faces: 0)


class TestParseGraph:
    def test_smallest_path(self):
        g = parse_graph("3 2\n0 1\n1 2")
        assert g.vertices == (0, 1, 2)
        assert g.edges == frozenset({(0, 1), (1, 2)})

    def test_isolated_vertex(self):
        g = parse_graph("1 0")
        assert g.vertices == (0,)
        assert g.m == 0

    def test_duplicate_edge_names_line(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_graph("2 2\n0 1\n0 1")

    def test_loop_rejected(self):
        with pytest.raises(ParseError, match="loop"):
            parse_graph("2 1\n1 1")

    def test_out_of_range(self):
        with pytest.raises(ParseError, match="range"):
            parse_graph("2 1\n0 5")

    def test_comments_and_blanks_ignored(self):
        g = parse_graph("# demo\n3 1\n\n0 2\n")
        assert g.has_edge(0, 2)


class TestGraphBasics:
    def test_delete_one_of_triangle(self):
        g = triangle().delete_vertices({2})
        assert g.vertices == (0, 1)
        assert g.edges == frozenset({(0, 1)})

    def test_delete_nothing_is_identity(self):
        g = triangle()
        assert g.delete_vertices(set()) == g

    def test_delete_everything(self):
        g = triangle().delete_vertices({0, 1, 2})
        assert g.n == 0 and g.m == 0

    def test_delete_unknown_errors(self):
        with pytest.raises(TmhError):
            triangle().delete_vertices({9})

    def test_derived_graphs_share_rows(self):
        g = Graph(range(5), [[1, 0], (1, 2), (3, 2), (3, 4), (0, 4)])
        assert g.edges == {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}
        restricted = g.restrict({0, 1, 2, 3}, [e for e in g.edges if 4 not in e])
        for h in (g.subgraph({0, 1, 2, 3}), g.delete_vertices({4}), restricted):
            assert h.edges == {(0, 1), (1, 2), (2, 3)}
            # 1 and 2 keep every neighbour, 0 and 3 lose 4
            assert [h.neighbors(v) is g.neighbors(v) for v in h.vertices] == \
                [False, True, True, False]
        # a disk's subgraph holds the edges the disk hands over, and an open
        # edge has an interior face on both sides
        emb = concentric_triangles()
        for cyc in ([0, 1, 2], [3, 4, 5], [6, 7, 8]):
            region = DiskRegion.of_cycle(emb, cyc)
            assert region.subgraph("closed").edges == region.edges("closed")
            inside = region.interior_faces
            assert region.edges("open") == {
                e for e in region.edges("closed") if set(faces_of_edge(emb, *e)) <= inside}

    def test_relabel_refuses_a_mapping_that_misses_a_vertex(self):
        with pytest.raises(TmhError, match="relabel mapping misses vertex 2"):
            Graph(range(3), [(0, 1), (1, 2)]).relabel({0: 5, 1: 6})

    def test_queries_read_the_rows(self):
        g = Graph(range(4), [(1, 0), (1, 2), (3, 2)])
        twin = g.relabel({v: v for v in g.vertices})
        assert g.has_edge(1, 0) and g.has_edge(2, 3) and not g.has_edge(0, 2)
        # a loop and an unknown vertex, on either side, are no edge
        assert not g.has_edge(1, 1)
        assert not g.has_edge(9, 0) and not g.has_edge(0, 9)
        assert g.sorted_edges() == [(0, 1), (1, 2), (2, 3)]
        assert g.m == 3 and g == twin and g != g.delete_vertices([3])
        assert (g._edges, twin._edges) == (None, None)
        # the edge set is built on its first read, or the hash's, and kept
        assert hash(g) == hash(((0, 1, 2, 3), frozenset({(0, 1), (1, 2), (2, 3)})))
        assert g.edges is g.edges
        assert g.m == len(g.edges)

    @pytest.mark.parametrize("edge", [(2, 2), [2, 2]])
    def test_loops_are_refused(self, edge):
        with pytest.raises(TmhError, match="loop edge 2 forbidden"):
            Graph(range(3), [(0, 1), edge])

    def test_separation_path(self):
        p = parse_graph("3 2\n0 1\n1 2")
        assert is_separation(p, {0, 1}, {1, 2})
        assert not is_separation(p, {0}, {2})

    def test_separation_crossing_edge(self):
        e = parse_graph("2 1\n0 1")
        assert not is_separation(e, {0}, {1})

    def test_cycle_order(self):
        # every rotation and direction of one closed walk gives one order
        walk = [0, 1, 2, 3]
        for k in range(4):
            for w in (walk[k:] + walk[:k], (walk[k:] + walk[:k])[::-1]):
                assert _cycle_order(w) == [0, 1, 2, 3]
        assert _cycle_order([5, 2, 9, 1, 7]) == [1, 7, 5, 2, 9]
        # a walk that repeats a vertex, or is too short, is no cycle
        assert _cycle_order([0, 1, 2, 1]) is None
        assert _cycle_order([0, 1]) is None

    def test_components_ordered(self):
        g = Graph.from_edges([(5, 6), (0, 1)], extra_vertices=[9])
        assert g.connected_components() == [(0, 1), (5, 6), (9,)]

    @given(st.sets(st.integers(0, 7)), st.sets(st.integers(0, 7)))
    @settings(max_examples=60, deadline=None)
    def test_delete_composes(self, s1, s2):
        g = Graph(range(8), [(i, (i + 1) % 8) for i in range(8)] + [(0, 4)])
        once = g.delete_vertices(s1 | s2)
        twice = g.delete_vertices(s1).delete_vertices(s2 - s1)
        assert once == twice


def _assert_matches_reference(g, ref):
    """Graph g answers every query as the edge-set reference ref does, and
    equals and hashes as a Graph built from ref's edges in another order."""
    assert g.vertices == ref.vertices
    assert g.edges == ref.edges
    assert g.sorted_edges() == ref.sorted_edges()
    assert g.m == ref.m == len(g.edges)
    probe = list(ref.vertices) + [max(ref.vertices, default=0) + 1]
    for u in probe:
        if u in g:
            assert g.neighbors(u) == ref.neighbors(u)
        for v in probe:
            assert g.has_edge(u, v) == ref.has_edge(u, v)
    twin = Graph(reversed(ref.vertices), [(v, u) for u, v in sorted(ref.edges, reverse=True)])
    assert g == twin and hash(g) == hash(twin) == hash(ref)


def _assert_rows_shared(h, g):
    """Each vertex of h keeps g's own row exactly when its row is g's."""
    for v in h.vertices:
        assert (h.neighbors(v) is g.neighbors(v)) == (h.neighbors(v) == g.neighbors(v))


class TestRowStorage:
    """Graph keeps only adjacency rows; it answers like a graph kept as an
    explicit edge set, on generated hosts and on every derivation."""

    @pytest.mark.parametrize("seed, n", [(s, n) for s in range(3) for n in (12, 24, 40)])
    def test_matches_the_edge_set_reference(self, seed, n):
        g = random_planar_graph(seed, n)
        rng = random.Random(seed * 1000 + n)
        ref = EdgeSetGraph(g.vertices, g.sorted_edges())
        order = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in ref.edges]
        rng.shuffle(order)
        built = Graph(rng.sample(g.vertices, n), order)
        _assert_matches_reference(g, ref)
        _assert_matches_reference(built, ref)
        assert built == g

        keep = set(rng.sample(g.vertices, n // 2 + 1))
        gone = set(g.vertices) - keep
        picked = [e for e in ref.subgraph(keep).sorted_edges() if rng.random() < 0.7]
        mapping = dict(zip(g.vertices, rng.sample(range(100, 100 + 2 * n), n)))
        halves = (keep, gone | set(rng.sample(sorted(keep), 2)))
        derived = {
            "subgraph": (g.subgraph(keep), ref.subgraph(keep)),
            "delete_vertices": (g.delete_vertices(gone), ref.delete_vertices(gone)),
            "restrict": (g.restrict(keep, picked), ref.restrict(keep, picked)),
            "relabel": (g.relabel(mapping), ref.relabel(mapping)),
            "union": (g.subgraph(halves[0]).union(g.subgraph(halves[1])),
                      ref.subgraph(halves[0]).union(ref.subgraph(halves[1]))),
            "relabel of subgraph": (g.subgraph(keep).relabel(mapping),
                                    ref.subgraph(keep).relabel(mapping)),
        }
        for h, href in derived.values():
            _assert_matches_reference(h, href)
        for name in ("subgraph", "delete_vertices", "restrict"):
            _assert_rows_shared(derived[name][0], g)
        # one graph by different routes
        sub = derived["subgraph"][0]
        assert sub == derived["delete_vertices"][0] == g.restrict(keep, sub.edges)
        assert hash(sub) == hash(derived["delete_vertices"][0])
        assert derived["union"][0].subgraph(keep) == sub
        assert g.subgraph(keep).union(g.subgraph(gone | set(g.vertices))) == g

    def test_subgraphs_share_the_rows_of_vertices_that_keep_every_neighbour(self):
        g = random_planar_graph(1, 40)
        for k in range(1, 5):
            gone = set(g.vertices[::k + 3])
            for h in (g.delete_vertices(gone), g.subgraph(set(g.vertices) - gone)):
                for v in h.vertices:
                    keeps = gone.isdisjoint(g.neighbors(v))
                    assert (h.neighbors(v) is g.neighbors(v)) == keeps
                assert h._edges is None


def _adjacency_state(adj):
    return ({v: set(adj.neighbors(v)) for v in adj.vertices}, adj.m, adj.depth)


class TestMutableAdjacency:
    """Deletions in place, undone in reverse order: every state a run of
    deletions and restores reaches is the graph delete_vertices gives."""

    @pytest.mark.parametrize("seed", range(20))
    def test_deletions_and_restores_track_delete_vertices(self, seed):
        rng = random.Random(seed)
        g = random_planar_graph(seed, 14)
        adj = MutableAdjacency(g)
        deleted = []
        states = [_adjacency_state(adj)]
        for _ in range(60):
            if deleted and (rng.random() < 0.4 or adj.n == 0):
                adj.restore()
                deleted.pop()
                states.pop()
                assert _adjacency_state(adj) == states[-1]
            else:
                v = rng.choice(sorted(adj.vertices))
                adj.delete(v)
                deleted.append(v)
                states.append(_adjacency_state(adj))
            want = g.delete_vertices(deleted)
            assert adjacency_graph(adj) == want
            assert (adj.n, adj.m, adj.depth) == (want.n, want.m, len(deleted))
            assert all(adj.degree(v) == want.degree(v) for v in want.vertices)
        adj.restore_to(0)
        assert _adjacency_state(adj) == states[0]
        assert adjacency_graph(adj) == g

    def test_delete_leaves_leaves_the_2_core(self):
        # a triangle with a pendant path 2-3-4 and an isolated vertex 5
        g = Graph(range(6), [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
        adj = MutableAdjacency(g)
        adj.delete(0)
        adj.delete_leaves()
        assert adj.n == 0 and adj.m == 0
        adj.restore_to(1)
        assert adjacency_graph(adj) == g.delete_vertices([0])
        adj.restore()
        adj.delete_leaves()
        assert adjacency_graph(adj) == g.subgraph({0, 1, 2})
        adj.restore_to(0)
        assert adjacency_graph(adj) == g


class TestFaces:
    def test_triangle_two_faces(self):
        emb = _embed(triangle())
        assert len(emb.faces) == 2
        assert check_euler(emb)

    def test_k4_four_faces(self):
        k4 = Graph.from_edges([(a, b) for a in range(4) for b in range(a + 1, 4)])
        emb = _embed(k4)
        assert len(emb.faces) == 4

    def test_cube_six_faces(self):
        edges = [(0, 1), (1, 2), (2, 3), (0, 3),
                 (4, 5), (5, 6), (6, 7), (4, 7),
                 (0, 4), (1, 5), (2, 6), (3, 7)]
        emb = _embed(Graph.from_edges(edges))
        assert len(emb.faces) == 6

    def test_every_directed_edge_once(self):
        emb = concentric_triangles()
        seen = [de for face in emb.faces for de in face_darts(face)]
        assert len(seen) == len(set(seen)) == 2 * emb.graph.m
        assert len(emb.faces) == 8

    def test_bad_rotation_rejected(self):
        g = triangle()
        with pytest.raises(EmbeddingError):
            PlaneEmbedding(g, {0: (1,), 1: (0, 2), 2: (1, 0)}, lambda faces: 0)

    def test_nonplanar_rejected(self):
        k5 = Graph.from_edges([(a, b) for a in range(5) for b in range(a + 1, 5)])
        with pytest.raises(EmbeddingError):
            planar_rotation(k5)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_euler_on_random_planar(self, seed):
        import random

        rng = random.Random(seed)
        n = rng.randint(3, 12)
        g = Graph(range(n), [])
        import networkx as nx

        attempts = [(rng.randrange(n), rng.randrange(n)) for _ in range(3 * n)]
        for u, v in attempts:
            if u == v or g.has_edge(u, v):
                continue
            cand = g.union(Graph.from_edges([(u, v)]))
            ng = nx.Graph(list(cand.edges))
            ng.add_nodes_from(cand.vertices)
            if nx.check_planarity(ng)[0]:
                g = cand
        if g.m == 0:
            return
        emb = _embed(g)
        assert check_euler(emb)


def _nx_planar(g):
    ng = nx.Graph()
    ng.add_nodes_from(g.vertices)
    ng.add_edges_from(g.edges)
    return nx.check_planarity(ng)[0]


def _maximal_planar_edges(rng, n):
    """Seeded triangulation on n >= 3 vertices: stack each new vertex into
    a random face, then flip random edges.  A face is kept as the third
    vertex on the left of each of its directed edges."""
    third = {(0, 1): 2, (1, 2): 0, (2, 0): 1, (1, 0): 2, (0, 2): 1, (2, 1): 0}
    faces = [(0, 1, 2), (0, 2, 1)]

    def add_face(x, y, z):
        third[(x, y)], third[(y, z)], third[(z, x)] = z, x, y

    for v in range(3, n):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        for face in ((a, b, v), (b, c, v), (c, a, v)):
            faces.append(face)
            add_face(*face)
    edges = {(min(e), max(e)) for e in third}
    for _ in range(4 * n):
        a, b = rng.choice(sorted(edges))
        c, d = third[(a, b)], third[(b, a)]
        if c == d or (min(c, d), max(c, d)) in edges:
            continue
        del third[(a, b)], third[(b, a)]
        add_face(c, a, d)
        add_face(d, b, c)
        edges.remove((a, b))
        edges.add((min(c, d), max(c, d)))
    return sorted(edges)


def _subdivided(edges, first_id, rng):
    """The edges with each one subdivided 0-2 times by fresh vertex ids."""
    out = []
    fresh = itertools.count(first_id)
    for u, v in edges:
        path = [u] + [next(fresh) for _ in range(rng.randint(0, 2))] + [v]
        out.extend(zip(path, path[1:]))
    return out


def _adjacency(g):
    return {v: set(g.neighbors(v)) for v in g.vertices}


def _chord_stream(monkeypatch):
    """(graph, verdict) for every planarity test random_planar_graph makes
    for seeds 0 and 1 and n in 12, 24, 48 and 96."""
    from tmh import synth

    asked = []

    def recording(adj):
        verdict = _planar_adjacency(adj)
        asked.append((Graph(adj, [(v, w) for v, ws in adj.items()
                                  for w in ws if v < w]), verdict))
        return verdict

    monkeypatch.setattr(synth, "_planar_adjacency", recording)
    for seed in range(2):
        for n in (12, 24, 48, 96):
            synth.random_planar_graph(seed, n)
    monkeypatch.undo()
    return asked


def _assert_matches_networkx(graphs):
    seen = set()
    for g in graphs:
        want = _nx_planar(g)
        assert is_planar(g) == want, sorted(g.edges)
        seen.add(want)
    assert seen == {True, False}


class TestIsPlanar:
    def test_matches_networkx_on_the_atlas(self):
        atlas = nx.graph_atlas_g()
        assert len(atlas) == 1253
        for ng in atlas:
            g = Graph(ng.nodes(), ng.edges())
            assert is_planar(g) == _nx_planar(g), sorted(g.edges)

    def test_matches_networkx_on_dense_graphs(self):
        seen = set()
        for seed in range(40):
            rng = random.Random(seed)
            n = rng.randint(6, 14)
            p = rng.choice([0.3, 0.45, 0.6])
            g = Graph(range(n), [(u, v) for u in range(n)
                                 for v in range(u + 1, n) if rng.random() < p])
            want = _nx_planar(g)
            assert is_planar(g) == want, seed
            seen.add(want)
        assert seen == {True, False}

    def test_matches_networkx_on_maximal_planar_graphs(self):
        # one extra edge breaks the Euler bound, so the left-right test
        # sees the non-planar cases only with edges removed as well
        rng = random.Random(0)
        graphs = []
        for _ in range(60):
            n = rng.randint(5, 60)
            edges = _maximal_planar_edges(rng, n)
            assert len(edges) == 3 * n - 6
            extra = rng.choice(sorted(
                set(itertools.combinations(range(n), 2)) - set(edges)))
            removed = set(rng.sample(edges, 5))
            thinned = [e for e in edges if e not in removed]
            for es in (edges, edges + [extra], thinned, thinned + [extra]):
                graphs.append(Graph(range(n), es))
        _assert_matches_networkx(graphs)

    def test_subdivided_kuratowski_graphs_inside_planar_hosts(self):
        k5 = list(itertools.combinations(range(5), 2))
        k33 = [(a, b) for a in range(3) for b in range(3, 6)]
        graphs = []
        for seed in range(20):
            rng = random.Random(seed)
            host = random_planar_graph(seed, 30)
            for pattern in (k5, k33):
                # the pattern itself, or the pattern less one edge, which
                # is planar; either is hung on host vertices by 1-3 edges
                for drop in (0, 1):
                    es = [(u + 100, v + 100)
                          for u, v in _subdivided(pattern[drop:], 6, rng)]
                    vs = sorted({v for e in es for v in e})
                    links = [(h, rng.choice(vs))
                             for h in rng.sample(sorted(host.vertices),
                                                 rng.randint(1, 3))]
                    graphs.append(host.union(Graph.from_edges(es + links)))
        _assert_matches_networkx(graphs)

    def test_blocks_components_and_relabelled_ids(self):
        rng = random.Random(7)
        graphs = []
        for _ in range(40):
            parts = []
            for _ in range(rng.randint(2, 4)):
                n = rng.randint(5, 16)
                es = _maximal_planar_edges(rng, n)
                es = [e for e in es if rng.random() < 0.85]
                if rng.random() < 0.3:
                    es.append(rng.choice(sorted(
                        set(itertools.combinations(range(n), 2)) - set(es))))
                parts.append((n, es))
            edges, offset = [], 0
            for n, es in parts:
                # share a cut vertex with the previous part half the time
                if offset and rng.random() < 0.5:
                    offset -= 1
                edges += [(u + offset, v + offset) for u, v in es]
                offset += n
            ids = rng.sample(range(-10 ** 6, 10 ** 6), offset)
            graphs.append(Graph(ids, [(ids[u], ids[v]) for u, v in edges]))
        _assert_matches_networkx(graphs)

    def test_matches_networkx_on_the_chord_stream(self, monkeypatch):
        # every verdict random_planar_graph asks for, up to n = 96
        seen = set()
        for g, verdict in _chord_stream(monkeypatch):
            assert verdict == _nx_planar(g), sorted(g.edges)
            seen.add(verdict)
        assert seen == {True, False}

    def test_lr_verdict_does_not_depend_on_order(self, monkeypatch):
        # shuffled key and neighbour orders give other DFS trees, which
        # exercise other conflict-pair merges
        adjs = []
        for ng in nx.graph_atlas_g():
            if ng.number_of_nodes() >= 5:
                adjs.append({v: set(ng[v]) for v in ng})
        for g, _ in _chord_stream(monkeypatch):
            core = _series_parallel_core(_adjacency(g))
            if core:
                adjs.append(core)
        for seed in range(4):
            for n in (192, 384):
                adjs.append(_adjacency(random_planar_graph(seed, n,
                                                           tries=n // 6)))
        seen = set()
        for adj in adjs:
            ng = nx.Graph()
            ng.add_nodes_from(adj)
            ng.add_edges_from((v, w) for v, ws in adj.items() for w in ws)
            want = nx.check_planarity(ng)[0]
            for seed in range(3):
                rng = random.Random(seed)
                keys = list(adj)
                rng.shuffle(keys)
                shuffled = {}
                for v in keys:
                    shuffled[v] = list(adj[v])
                    rng.shuffle(shuffled[v])
                assert _lr_planar(shuffled) == want, (sorted(ng.edges), seed)
            seen.add(want)
        assert seen == {True, False}

    def test_disconnected_graphs(self):
        k5 = [(a, b) for a in range(5) for b in range(a + 1, 5)]
        k4s = [(a + o, b + o) for o in (0, 4)
               for a in range(4) for b in range(a + 1, 4)]
        assert not is_planar(Graph(range(8), k5 + [(5, 6), (6, 7), (5, 7)]))
        assert is_planar(Graph(range(9), k4s))

    def test_fewer_than_three_vertices(self):
        for g in (Graph(), Graph([0], []), Graph([0, 1], []),
                  Graph.from_edges([(0, 1)])):
            assert is_planar(g)

    def test_shortcuts_skip_the_embedding(self, monkeypatch):
        from tmh import graphs

        def refuse(g):
            raise AssertionError("embedding test reached")

        monkeypatch.setattr(graphs, "planar_rotation", refuse)
        monkeypatch.setattr(graphs, "_lr_planar", refuse)
        k6 = Graph.from_edges([(a, b) for a in range(6) for b in range(a + 1, 6)])
        assert not is_planar(k6)  # 15 edges > 3 * 6 - 6
        wheel_free = Graph.from_edges([(i, i + 1) for i in range(9)]
                                      + [(0, 9), (0, 5), (2, 5)])
        assert is_planar(wheel_free)  # series-parallel: empty core


class TestRegions:
    def test_disk_of_middle_triangle(self):
        emb = concentric_triangles()
        region = DiskRegion.of_cycle(emb, [3, 4, 5])
        assert region.vertices("closed") == frozenset({3, 4, 5, 6, 7, 8})
        assert region.vertices("open") == frozenset({6, 7, 8})
        assert contains_vertex(region, 6, "closed")
        assert contains_vertex(region, 6, "open")
        assert contains_vertex(region, 3, "closed")
        assert not contains_vertex(region, 3, "open")
        assert not contains_vertex(region, 0, "closed")

    def test_open_subgraph_keeps_edges_between_open_vertices(self):
        # the spoke (0, 3) lies inside the outer triangle's disk, but its
        # end 0 is on the boundary cycle and so not open
        emb = concentric_triangles()
        region = DiskRegion.of_cycle(emb, [0, 1, 2])
        assert (0, 3) in region.edges("open")
        sub = region.subgraph("open")
        assert sub.vertices == (3, 4, 5, 6, 7, 8)
        assert sub.edges == {(3, 4), (4, 5), (3, 5), (6, 7), (7, 8), (6, 8),
                             (3, 6), (4, 7), (5, 8)}
        # the inner triangle keeps every neighbour and so the host's rows;
        # the middle one loses its spokes to the boundary
        assert [sub.neighbors(v) is emb.graph.neighbors(v) for v in sub.vertices] == \
            [False, False, False, True, True, True]

    def test_membership_outside_compass_errors(self):
        emb = concentric_triangles()
        region = DiskRegion.of_cycle(emb, [3, 4, 5])
        with pytest.raises(EmbeddingError):
            contains_vertex(region, 99, "closed")

    def test_closed_minus_open_is_boundary(self):
        emb = concentric_triangles()
        for cyc in ([0, 1, 2], [3, 4, 5], [6, 7, 8]):
            region = DiskRegion.of_cycle(emb, cyc)
            diff = region.vertices("closed") - region.vertices("open")
            assert diff == frozenset(cyc)

    def test_degenerate_annulus_is_cycle(self):
        emb = concentric_triangles()
        nc = NestedCycles(emb, [[0, 1, 2], [3, 4, 5], [6, 7, 8]])
        band = nc.annulus(2, 2)
        assert band.vertices == frozenset({3, 4, 5})
        assert band.edges == frozenset({(3, 4), (4, 5), (3, 5)})

    def test_full_annulus(self):
        emb = concentric_triangles()
        nc = NestedCycles(emb, [[0, 1, 2], [3, 4, 5], [6, 7, 8]])
        band = nc.annulus(1, 3)
        assert band.vertices == frozenset(range(9))
        assert (6, 7) in band.edges

    def test_outer_two_rings(self):
        emb = concentric_triangles()
        nc = NestedCycles(emb, [[0, 1, 2], [3, 4, 5], [6, 7, 8]])
        band = nc.annulus(1, 2)
        assert band.vertices == frozenset(range(6))
        assert (6, 7) not in band.edges
        assert (3, 6) not in band.edges
        assert (0, 3) in band.edges

    def test_band_monotone(self):
        emb = concentric_triangles()
        nc = NestedCycles(emb, [[0, 1, 2], [3, 4, 5], [6, 7, 8]])
        for (x, y) in [(1, 1), (1, 2), (2, 2), (2, 3), (1, 3), (3, 3)]:
            for (x2, y2) in [(1, 1), (1, 2), (2, 2), (2, 3), (1, 3), (3, 3)]:
                if x <= x2 <= y2 <= y:
                    inner = nc.annulus(x2, y2)
                    outer = nc.annulus(x, y)
                    assert inner.vertices <= outer.vertices

    def test_bad_indices(self):
        emb = concentric_triangles()
        nc = NestedCycles(emb, [[0, 1, 2], [3, 4, 5], [6, 7, 8]])
        with pytest.raises(TmhError):
            nc.annulus(2, 1)

    def test_disjointness_enforced(self):
        emb = concentric_triangles()
        with pytest.raises(EmbeddingError):
            NestedCycles(emb, [[0, 1, 2], [0, 1, 2]])

    def test_nesting_enforced(self):
        emb = concentric_triangles()
        with pytest.raises(EmbeddingError):
            NestedCycles(emb, [[3, 4, 5], [0, 1, 2]])


class TestPartiallyDiskEmbedded:
    def test_valid_split(self):
        emb = concentric_triangles()
        g = emb.graph.union(Graph.from_edges([(0, 9), (1, 9)]))
        pde = PartiallyDiskEmbedded(g, emb, [0, 1, 2])
        a, b = separation_halves(pde)
        assert is_separation(g, a, b)

    def test_crossing_edge_rejected(self):
        emb = concentric_triangles()
        g = emb.graph.union(Graph.from_edges([(6, 9)]))
        with pytest.raises(TmhError):
            PartiallyDiskEmbedded(g, emb, [0, 1, 2])


def _reference_interior(emb, cyc):
    """The interior faces of a cycle as DiskRegion.of_cycle computed them
    on its own: one flood of the whole dual from the outer face, never
    crossing a cycle edge."""
    k = len(cyc)
    cycle_edges = {tuple(sorted((cyc[i], cyc[(i + 1) % k]))) for i in range(k)}
    outside = {emb.outer_face}
    queue = [emb.outer_face]
    while queue:
        f = queue.pop()
        for u, v in face_darts(emb.faces[f]):
            e = (u, v) if u < v else (v, u)
            if e in cycle_edges:
                continue
            for g in faces_of_edge(emb, u, v):
                if g not in outside:
                    outside.add(g)
                    queue.append(g)
    return frozenset(range(len(emb.faces))) - outside


def _two_trace_embedding(graph, rotation, pick):
    """An embedding built the way the annulus and wall code built them
    before one trace sufficed: a probe embedding to read the faces from,
    then a second one with the chosen outer face."""
    probe = PlaneEmbedding(graph, rotation, lambda faces: 0)
    return PlaneEmbedding(graph, rotation, lambda faces: pick(probe.faces))


def _membership(region):
    return (region.vertices("closed"), region.vertices("open"),
            region.edges("closed"), region.edges("open"))


def _count_of_cycle(monkeypatch):
    calls = []
    of_cycle = DiskRegion.of_cycle.__func__

    def counting(cls, emb, cyc):
        calls.append(tuple(cyc))
        return of_cycle(cls, emb, cyc)

    monkeypatch.setattr(DiskRegion, "of_cycle", classmethod(counting))
    return calls


def _rings(r, m):
    """r concentric m-cycles joined by spokes at every position, embedded
    with ring 0 outside; ring i is [i*m .. i*m + m - 1]."""
    def vid(i, k):
        return i * m + k % m

    edges = [(vid(i, k), vid(i, k + 1)) for i in range(r) for k in range(m)]
    edges += [(vid(i, k), vid(i + 1, k)) for i in range(r - 1) for k in range(m)]
    g = Graph.from_edges(edges)
    rot = {}
    for i in range(r):
        for k in range(m):
            around = [vid(i, k + 1)]
            if i + 1 < r:
                around.append(vid(i + 1, k))
            around.append(vid(i, k - 1))
            if i > 0:
                around.append(vid(i - 1, k))
            rot[vid(i, k)] = tuple(around)
    # face 0 holds the least dart, (0, 1), which runs along ring 0
    emb = PlaneEmbedding(g, rot, lambda faces: 0)
    return emb, [[vid(i, k) for k in range(m)] for i in range(r)]


class TestNestedFlood:
    def test_rings_fixture_is_plane_with_ring_zero_outside(self):
        emb, rings = _rings(4, 6)
        assert check_euler(emb) and emb._is_plane()
        assert set(emb.faces[emb.outer_face]) == set(rings[0])

    def test_of_cycle_matches_the_reference_flood(self):
        emb = concentric_triangles()
        for cyc in ([0, 1, 2], [3, 4, 5], [6, 7, 8], [0, 3, 4, 1]):
            assert DiskRegion.of_cycle(emb, cyc).interior_faces \
                == _reference_interior(emb, cyc)
        emb, rings = _rings(5, 7)
        for cyc in rings + [[7, 8, 15, 14], [0, 1, 8, 15, 14, 7]]:
            assert DiskRegion.of_cycle(emb, cyc).interior_faces \
                == _reference_interior(emb, cyc)

    @pytest.mark.parametrize("r,m", [(3, 3), (5, 7), (9, 4)])
    def test_family_regions_equal_per_cycle_disks(self, monkeypatch, r, m):
        emb, rings = _rings(r, m)
        families = [rings, rings[1:], rings[::2], [rings[0], rings[-1]]]
        calls = _count_of_cycle(monkeypatch)
        built = [NestedCycles(emb, cycles) for cycles in families]
        assert calls == []
        monkeypatch.undo()
        for nc, cycles in zip(built, families):
            for region, ref in zip(nc.regions, reference_family(emb, cycles)):
                assert region.interior_faces == ref.interior_faces \
                    == _reference_interior(emb, list(ref.boundary_cycle))
                assert region.boundary_cycle == ref.boundary_cycle
                assert _membership(region) == _membership(ref)

    @pytest.mark.parametrize("cycles,message", [
        # inner first: the carried flood empties the second disk
        ([[3, 4, 5], [0, 1, 2]], "cycle disks do not nest"),
        ([[3, 4, 5], [0, 1, 2], [6, 7, 8]], "cycle disks do not nest"),
        ([[0, 1, 2], [6, 7, 8], [3, 4, 5]], "cycle disks do not nest"),
        ([[0, 1, 2], [0, 4, 5]], "nested cycles must be pairwise vertex-disjoint"),
        ([[3, 4, 5], [6, 8, 7], [0, 1, 5]],
         "nested cycles must be pairwise vertex-disjoint"),
        ([[0, 1, 2], [3, 4, 7]], "cycle step 7-3 is not an edge"),
        ([[0, 1, 2], [3, 4], [6, 7, 8]], "a bounding cycle needs at least 3 vertices"),
        # a later cycle's own refusal comes before the nesting refusal
        ([[3, 4, 5], [0, 1, 2], [6, 8]], "a bounding cycle needs at least 3 vertices"),
        ([[6, 7, 8], [0, 1, 2], [3, 5, 1]],
         "nested cycles must be pairwise vertex-disjoint"),
    ])
    def test_refusals_keep_message_and_order(self, cycles, message):
        emb = concentric_triangles()
        with pytest.raises(EmbeddingError) as ref:
            reference_family(emb, cycles)
        with pytest.raises(EmbeddingError) as got:
            NestedCycles(emb, cycles)
        assert str(got.value) == str(ref.value) == message

    def test_disconnected_embedding_floods_per_cycle(self, monkeypatch):
        base = concentric_triangles()
        g = base.graph.union(Graph.from_edges([(10, 11), (11, 12), (10, 12)]))
        rot = {**base.rotation, 10: (11, 12), 11: (12, 10), 12: (10, 11)}
        emb = PlaneEmbedding(g, rot, lambda faces: 0)
        assert not emb._is_plane()
        cycles = [[0, 1, 2], [3, 4, 5], [6, 7, 8]]
        calls = _count_of_cycle(monkeypatch)
        nc = NestedCycles(emb, cycles)
        assert calls == [tuple(c) for c in cycles]
        for region, cyc in zip(nc.regions, cycles):
            assert region.interior_faces == _reference_interior(emb, cyc)

    def test_closed_walk_that_repeats_a_vertex_floods_on_its_own(self, monkeypatch):
        emb = concentric_triangles()
        walk = [3, 4, 5, 3, 4, 5]
        calls = _count_of_cycle(monkeypatch)
        # the flood after the walk starts from the faces at the walk's vertices
        nc = NestedCycles(emb, [[0, 1, 2], walk, [6, 7, 8]])
        assert calls == [tuple(walk)]
        assert nc.regions[1].interior_faces == _reference_interior(emb, walk)
        assert nc.regions[2].interior_faces == _reference_interior(emb, [6, 7, 8])

    def test_one_trace_embedding_equals_two_constructions(self):
        emb = concentric_triangles()
        picks = [lambda faces: 0,
                 lambda faces: max((len(f), i) for i, f in enumerate(faces))[1],
                 lambda faces: len(faces) - 1]
        graphs = [(emb.graph, emb.rotation)]
        for seed in range(4):
            g = _rings(3 + seed, 4 + seed)[0].graph
            graphs.append((g, planar_rotation(g)))
        for g, rot in graphs:
            for pick in picks:
                one = PlaneEmbedding(g, rot, pick)
                two = _two_trace_embedding(g, rot, pick)
                assert one.faces == two.faces
                assert one.outer_face == two.outer_face
                assert one.rotation == two.rotation
                assert check_euler(one)

    def test_one_trace_embedding_passes_refusals_through(self):
        emb = concentric_triangles()

        def refuse(faces):
            raise TmhError("no such face")

        with pytest.raises(TmhError, match="no such face"):
            PlaneEmbedding(emb.graph, emb.rotation, refuse)


def _hand_restricted(emb, keep, pick):
    """The embedding of the subgraph induced on keep, built with two traces
    of emb's rotation restricted by hand."""
    sub_g = emb.graph.subgraph(keep)
    rotation = {v: tuple(u for u in emb.rotation[v] if u in keep)
                for v in sub_g.vertices}
    return _two_trace_embedding(sub_g, rotation, pick)


def _reference_incidences(emb):
    """The faces through each vertex and the faces on each edge, read off
    the face walks: every dart names both its ends and its edge once."""
    vertex_faces = {v: set() for v in emb.graph.vertices}
    edge_faces = {}
    for idx, face in enumerate(emb.faces):
        for u, v in face_darts(face):
            vertex_faces[u].add(idx)
            vertex_faces[v].add(idx)
            edge_faces.setdefault((min(u, v), max(u, v)), []).append(idx)
    return vertex_faces, {e: tuple(fs) for e, fs in edge_faces.items()}


def _assert_same_restriction(got, ref):
    assert got.graph == ref.graph
    assert got.rotation == ref.rotation
    assert got.faces == ref.faces
    assert got.outer_face == ref.outer_face
    vertex_faces, edge_faces = _reference_incidences(ref)
    for v in ref.graph.vertices:
        assert faces_of_vertex(got, v) == faces_of_vertex(ref, v) == vertex_faces[v]
    for u, v in ref.graph.edges:
        assert faces_of_edge(got, u, v) == faces_of_edge(ref, u, v) == edge_faces[u, v]


def _assert_shares_with(got, parent):
    """Every face of parent whose vertices all survive is a face of got as
    the same tuple, every rotation that lost no neighbour is the parent's
    tuple, and got's face store matches a trace of its own."""
    got_faces = {id(f) for f in got.faces}
    for face in parent.faces:
        if all(u in got.graph for u in face):
            assert id(face) in got_faces
    for v, order in got.rotation.items():
        if len(order) == len(parent.rotation[v]):
            assert order is parent.rotation[v]
    assert_store_matches_dart_walks(got)


def _longest(faces):
    return max(range(len(faces)), key=lambda i: len(faces[i]))


def chorded_square():
    """Square 0-1-2-3 around a hub 4, the chord 0-2 drawn outside the
    square around 1, and a vertex 5 between the chord and 1, joined to 0
    and 1.  The outer face walks the chord, 2, 3 and 0."""
    g = Graph.from_edges([(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (1, 4), (2, 4),
                          (3, 4), (0, 2), (0, 5), (1, 5)])
    rot = {0: (2, 5, 1, 4, 3), 1: (5, 2, 4, 0), 2: (3, 4, 1, 0), 3: (0, 4, 2),
           4: (3, 0, 1, 2), 5: (1, 0)}
    outer = frozenset({0, 2, 3})
    return PlaneEmbedding(g, rot, lambda faces: next(
        i for i, f in enumerate(faces) if set(f) == outer))


class TestRestrict:
    """PlaneEmbedding.restrict against two traces of the rotation restricted
    by hand, and what it shares with the embedding it restricts."""

    @pytest.mark.parametrize("keep,connected", [
        ({0, 1, 2, 3, 4, 5, 6, 7}, True),
        # the innermost triangle's face goes as a whole
        ({0, 1, 2, 3, 4, 5}, True),
        # so does the outer face
        ({3, 4, 5, 6, 7, 8}, True),
        ({0, 1, 2, 6, 7, 8}, False),
        ({0, 1, 3, 4, 6}, True),
        ({0, 1, 7, 8}, False),
    ])
    def test_concentric_triangles(self, keep, connected):
        emb = concentric_triangles()
        got = emb.restrict(keep, _longest)
        _assert_same_restriction(got, _hand_restricted(emb, keep, _longest))
        _assert_shares_with(got, emb)
        assert got.graph.is_connected() == connected

    def test_chord_outside_the_disk_stays(self):
        emb = chorded_square()
        assert check_euler(emb) and len(emb.faces) == 7
        keep = {0, 1, 2, 3, 4}
        got = emb.restrict(keep, _longest)
        assert got.graph.has_edge(0, 2)
        _assert_same_restriction(got, _hand_restricted(emb, keep, _longest))
        _assert_shares_with(got, emb)
        # the four triangles around the hub are kept; only the faces that
        # touched 5 merge into the one face beyond the chord
        assert len(got.faces) == 6
        assert check_euler(got)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_planar_hosts_on_random_subsets(self, seed):
        g = random_planar_graph(seed, 20 + seed)
        emb = _embed(g)
        assert_store_matches_dart_walks(emb)
        rng = random.Random(seed)
        for share in (0.95, 0.8, 0.6, 0.4):
            keep = {v for v in g.vertices if rng.random() < share}
            if g.subgraph(keep).m == 0:
                continue
            got = emb.restrict(keep, _longest)
            _assert_same_restriction(got, _hand_restricted(emb, keep, _longest))
            _assert_shares_with(got, emb)
            again = got.restrict(sorted(keep)[::2], lambda faces: 0)
            if again.faces:
                _assert_same_restriction(
                    again, _hand_restricted(got, again.graph.vertices, lambda faces: 0))

    def test_keeping_every_vertex_keeps_every_face(self):
        emb = _rings(4, 6)[0]
        got = emb.restrict(emb.graph.vertices, lambda faces: emb.outer_face)
        assert all(a is b for a, b in zip(got.faces, emb.faces))
        assert got.faces == emb.faces and got.rotation == emb.rotation
        assert all(got.rotation[v] is emb.rotation[v] for v in emb.graph.vertices)

    def test_refusals_pass_through(self):
        emb = concentric_triangles()
        with pytest.raises(TmhError, match="unknown vertices"):
            emb.restrict({0, 1, 99}, _longest)

        def refuse(faces):
            raise TmhError("no such face")

        with pytest.raises(TmhError, match="no such face"):
            emb.restrict({0, 1, 2}, refuse)


def _edge_cut_flood(emb, outside, seeds, cut):
    """_flood with the cut given as (low, high) edges, read off the face
    walks dart by dart: the faces the seeds reach, added to outside."""
    added = [f for f in dict.fromkeys(seeds) if f not in outside]
    outside.update(added)
    queue = list(added)
    while queue:
        f = queue.pop()
        for (u, v), g in zip(face_darts(emb.faces[f]),
                             emb._across[emb._face_base[f]:emb._face_base[f + 1]]):
            if tuple(sorted((u, v))) not in cut and g not in outside:
                outside.add(g)
                added.append(g)
                queue.append(g)
    return added


class TestDartCuts:
    """Floods cut by dart ids, found by turning through the rotation, give
    what floods cut by edges gave."""

    @staticmethod
    def _embeddings():
        out = [concentric_triangles(), _rings(4, 6)[0], _rings(3, 5)[0]]
        for seed in range(6):
            g = random_planar_graph(seed, 9 + seed, tries=4 + seed)
            if g.is_connected():
                out.append(_embed(g))
        return out

    def test_walk_darts_are_the_darts_of_the_walk_edges(self):
        rng = random.Random(5)
        walks = 0
        for emb in self._embeddings():
            dart_edge = [tuple(sorted(d)) for face in emb.faces for d in face_darts(face)]
            for _ in range(25):
                # a random walk; it may turn back and revisit vertices
                walk = [rng.choice(emb.graph.vertices)]
                for _ in range(rng.randint(1, 12)):
                    walk.append(rng.choice(emb.graph.neighbors(walk[-1])))
                edges = {tuple(sorted(e)) for e in zip(walk, walk[1:])}
                assert _walk_darts(emb, walk) == {
                    d for d, e in enumerate(dart_edge) if e in edges}
                walks += 1
        assert walks >= 150

    def test_dart_floods_match_edge_floods(self):
        rng = random.Random(11)
        for emb in self._embeddings():
            faces = range(len(emb.faces))
            for _ in range(20):
                walk = [rng.choice(emb.graph.vertices)]
                for _ in range(rng.randint(1, 10)):
                    walk.append(rng.choice(emb.graph.neighbors(walk[-1])))
                seeds = rng.sample(faces, rng.randint(1, 3))
                start = set(rng.sample(faces, rng.randint(0, 2))) - set(seeds)
                got, want = set(start), set(start)
                blocked = []
                added = _flood(emb, got, seeds, _walk_darts(emb, walk), blocked)
                _edge_cut_flood(emb, want, seeds, {tuple(sorted(e)) for e in zip(walk, walk[1:])})
                assert got == want and sorted(added) == sorted(want - start)
                # every blocked face lies across a step of the walk
                assert set(blocked) <= {g for f in got for (u, v), g in zip(
                    face_darts(emb.faces[f]),
                    emb._across[emb._face_base[f]:emb._face_base[f + 1]])
                    if {u, v} in [set(e) for e in zip(walk, walk[1:])]}

    def test_a_step_that_is_not_an_edge_is_refused(self):
        emb = concentric_triangles()
        for walk, step in (([0, 1, 5], "1-5"), ([7, 0], "7-0"), ([0, 99], "0-99"),
                           ([99, 0], "99-0")):
            with pytest.raises(EmbeddingError, match="^cycle step %s is not an edge$" % step):
                _walk_darts(emb, walk)
