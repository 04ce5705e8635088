"""Model/dissolution/containment tests, including the dual-route checks
that keep the structural fast paths honest against the generic search."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st
from networkx import graph_atlas_g

from helpers import folio_via_model_enumeration, label_isomorphic
from tmh import synth, tm
from tmh import solver
from tmh.annulus import AnnulusFamily, boundaried_at_cycle, sub_annulus, synthetic_disk_host
from tmh.graphs import Graph, MutableAdjacency, TmhError
from tmh.linkage import TamingBudget
from tmh.tm import (
    BUILTIN_PATTERNS,
    BoundariedGraph,
    BudgetExceeded,
    Folio,
    PatternFamily,
    SearchBudget,
    TmPair,
    arcs,
    btm_contains,
    classify_pattern,
    compute_folio,
    dissolve,
    enumerate_boundaried_graphs,
    f3,
    find_tm_model,
    is_F_free,
    pF_oracle,
    _isomorphic_small,
)


def path_graph(n):
    return Graph.from_edges((i, i + 1) for i in range(n - 1))


def cycle_graph(n):
    return Graph.from_edges([(i, (i + 1) % n) for i in range(n)])


def grid_graph(rows, cols):
    edges = []
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            if j + 1 < cols:
                edges.append((v, v + 1))
            if i + 1 < rows:
                edges.append((v, v + cols))
    return Graph.from_edges(edges)


def petersen():
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(edges)


def subdivide_edge(g, u, v, fresh):
    assert g.has_edge(u, v) and fresh not in g
    edges = set(g.edges)
    edges.remove((u, v) if u < v else (v, u))
    edges.add((min(u, fresh), max(u, fresh)))
    edges.add((min(v, fresh), max(v, fresh)))
    return Graph(set(g.vertices) | {fresh}, edges)


K3 = BUILTIN_PATTERNS["K3"]()
C4 = BUILTIN_PATTERNS["C4"]()
K4 = BUILTIN_PATTERNS["K4"]()
K23 = BUILTIN_PATTERNS["K23"]()
K5 = BUILTIN_PATTERNS["K5"]()


# -- dissolution -------------------------------------------------------------


def test_dissolve_subdivided_triangle():
    # triangle 0,1,2 with each edge subdivided once
    m = Graph.from_edges([(0, 3), (3, 1), (1, 4), (4, 2), (2, 5), (5, 0)])
    pair = TmPair(m, {0, 1, 2})
    d = dissolve(pair)
    assert d.vertices == (0, 1, 2)
    assert d.edges == Graph.from_edges([(0, 1), (1, 2), (0, 2)]).edges


def test_dissolve_keeps_direct_edges():
    m = Graph.from_edges([(0, 1), (1, 2), (2, 3)])
    pair = TmPair(m, {0, 1, 3})
    d = dissolve(pair)
    assert d.edges == frozenset({(0, 1), (1, 3)})


def test_dissolve_idempotent():
    m = Graph.from_edges([(0, 3), (3, 1), (1, 2), (2, 0)])
    once = dissolve(TmPair(m, {0, 1, 2}))
    twice = dissolve(TmPair(once, set(once.vertices)))
    assert once == twice


def test_dissolve_rejects_parallel_arcs():
    # theta shape: two internally disjoint 0-1 paths, both through interior
    m = Graph.from_edges([(0, 2), (2, 1), (0, 3), (3, 1)])
    with pytest.raises(TmhError, match="parallel"):
        dissolve(TmPair(m, {0, 1}))


def test_dissolve_rejects_loop_arc():
    m = cycle_graph(4)
    with pytest.raises(TmhError, match="loop"):
        dissolve(TmPair(m, {0}))


def test_dissolve_rejects_branchless_cycle():
    m = Graph.from_edges([(0, 1), (1, 2), (2, 0), (5, 6)])
    with pytest.raises(TmhError, match="branchless"):
        dissolve(TmPair(m, {5, 6}))


def test_tm_pair_rejects_wrong_interior_degree():
    m = Graph.from_edges([(0, 1), (1, 2), (1, 3)])
    with pytest.raises(TmhError, match="degree"):
        TmPair(m, {0, 2, 3})


def test_arcs_report_interiors():
    m = Graph.from_edges([(0, 3), (3, 1), (1, 2)])
    arc_list, leftover = arcs(TmPair(m, {0, 1, 2}))
    assert not leftover
    assert sorted(arc_list) == [(0, 1, (3,)), (1, 2, ())]


# -- generic containment search ---------------------------------------------


def test_triangle_model_in_five_cycle():
    pair = find_tm_model(cycle_graph(5), K3)
    assert pair is not None
    assert pair.branches <= set(range(5))
    assert _isomorphic_small(dissolve(pair), K3)
    assert pair.model.edges <= cycle_graph(5).edges


def test_k5_absent_from_petersen():
    # degrees cap at three, so no branch vertex can host a K5 corner
    assert find_tm_model(petersen(), K5) is None


def test_k33_present_in_petersen():
    pair = find_tm_model(petersen(), BUILTIN_PATTERNS["K33"]())
    assert pair is not None
    assert _isomorphic_small(dissolve(pair), BUILTIN_PATTERNS["K33"]())


def test_k4_found_in_grid():
    pair = find_tm_model(grid_graph(4, 4), K4)
    assert pair is not None
    assert _isomorphic_small(dissolve(pair), K4)
    host = grid_graph(4, 4)
    assert pair.model.edges <= host.edges


def test_budget_exhaustion_is_not_absence():
    with pytest.raises(BudgetExceeded):
        find_tm_model(grid_graph(4, 4), K4, budget=SearchBudget(5))


def test_isolated_pattern_vertices_need_spare_hosts():
    lonely = Graph(range(3), [(0, 1)])  # an edge plus an isolated vertex
    assert find_tm_model(path_graph(2), lonely) is None
    assert find_tm_model(path_graph(3), lonely) is not None


# -- family checks and the deletion oracle ----------------------------------


def test_family_metadata():
    fam = PatternFamily([K3, K23])
    assert fam.h == 5
    assert fam.g == 6
    assert fam.tags == ("triangle", "k23")


def test_classify_rejects_lookalikes():
    # house graph shares the K2,3 degree sequence but is a different graph
    house = Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (1, 4)])
    assert classify_pattern(house) is None


def test_is_F_free_spec_cases():
    assert is_F_free(path_graph(5), PatternFamily([K3]))
    assert not is_F_free(cycle_graph(5), PatternFamily([K3]))
    assert not is_F_free(grid_graph(4, 4), PatternFamily([K4]))


def test_pf_oracle_k4():
    got = pF_oracle(K4, PatternFamily([K4]), 2)
    assert got == (1, (0,))


def test_pf_oracle_two_triangles():
    host = Graph.from_edges([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    got = pF_oracle(host, PatternFamily([K3]), 3)
    assert got == (2, (0, 3))


def test_pf_oracle_reports_failure():
    assert pF_oracle(K4, PatternFamily([K3]), 1) is None


def random_graph(seed, n, extra):
    # deterministic sparse graph: a path plus seeded chords
    rnd = list(range(n))
    edges = {(i, i + 1) for i in range(n - 1)}
    state = seed
    for _ in range(extra):
        state = (state * 1103515245 + 12345) % (1 << 31)
        a = state % n
        state = (state * 1103515245 + 12345) % (1 << 31)
        b = state % n
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return Graph(rnd, edges)


@pytest.mark.parametrize("tag,pattern", [
    ("triangle", K3), ("c4", C4), ("k4", K4), ("k23", K23)])
def test_fast_paths_agree_with_generic_search(tag, pattern):
    fam_fast = PatternFamily([pattern])
    assert fam_fast.tags == (tag,)
    for seed in range(40):
        g = random_graph(seed, 9, seed % 7)
        fast = is_F_free(g, fam_fast)
        slow = is_F_free(g, fam_fast, use_fast_paths=False)
        assert fast == slow, "route disagreement on seed %d for %s" % (seed, tag)
    # and on every graph of at most seven vertices
    atlas = graph_atlas_g()
    assert len(atlas) == 1253
    for ng in atlas:
        g = Graph(ng.nodes(), ng.edges())
        fast = is_F_free(g, fam_fast)
        slow = is_F_free(g, fam_fast, use_fast_paths=False)
        assert fast == slow, "route disagreement on %r for %s" % (
            sorted(g.edges), tag)


@pytest.mark.parametrize("patterns,implied", [
    ([K3, K4, K23, C4], {"c4", "k4", "k23"}), ([K23, C4], {"k23"}),
    ([K3, K4], {"k4"}), ([K4, K23], set())],
    ids=["all4", "K23+C4", "K3+K4", "K4+K23"])
def test_families_skip_implied_fast_tests(patterns, implied):
    # a family answers as its patterns do one by one, whichever fast
    # tests it skips
    fam = PatternFamily(patterns)
    assert fam.implied == implied
    singles = [PatternFamily([p]) for p in patterns]
    for ng in graph_atlas_g():
        g = Graph(ng.nodes(), ng.edges())
        assert is_F_free(g, fam) == all(is_F_free(g, one) for one in singles)
    # with a pattern for the generic search, every fast test runs
    assert PatternFamily([C4, K4, K5]).implied == frozenset()


@pytest.mark.parametrize("tag", ["triangle", "c4", "k4", "k23"])
def test_fast_paths_read_an_adjacency_as_its_graph(tag):
    # the endgame runs the fast tests on a MutableAdjacency, with and
    # without a deletion standing
    for ng in graph_atlas_g():
        g = Graph(ng.nodes(), ng.edges())
        adj = MutableAdjacency(g)
        assert tm._contains_fast(adj, tag) == tm._contains_fast(g, tag)
        if g.n:
            adj.delete(g.vertices[0])
            assert tm._contains_fast(adj, tag) == tm._contains_fast(
                g.delete_vertices([g.vertices[0]]), tag)


def _reference_block_vertex_sets(g):
    """_block_vertex_sets as it was: the list of every block's vertex set,
    built before any is looked at."""
    index = {}
    low = {}
    blocks = []
    edge_stack = []
    counter = itertools.count()
    for root in g.vertices:
        if root in index:
            continue
        stack = [(root, None, iter(g.neighbors(root)))]
        index[root] = low[root] = next(counter)
        while stack:
            v, parent, it = stack[-1]
            advanced = False
            for w in it:
                if w == parent:
                    continue
                if w not in index:
                    index[w] = low[w] = next(counter)
                    edge_stack.append((v, w))
                    stack.append((w, v, iter(g.neighbors(w))))
                    advanced = True
                    break
                if index[w] < index[v]:
                    edge_stack.append((v, w))
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            stack.pop()
            if stack:
                u = stack[-1][0]
                low[u] = min(low[u], low[v])
                if low[v] >= index[u]:
                    block = set()
                    while edge_stack:
                        a, b = edge_stack.pop()
                        block.add(a)
                        block.add(b)
                        if (a, b) == (u, v):
                            break
                    blocks.append(block)
    return blocks


def test_block_generator_matches_the_list_version_on_the_atlas():
    for ng in graph_atlas_g():
        g = Graph(ng.nodes(), ng.edges())
        want = _reference_block_vertex_sets(g)
        assert list(tm._block_vertex_sets(g)) == want
        assert tm._contains_fast(g, "c4") == any(len(b) >= 4 for b in want)


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_containment_survives_host_subdivision(seed):
    g = random_graph(seed, 8, 5)
    for pattern in (K3, K4):
        if find_tm_model(g, pattern) is not None:
            u, v = min(g.edges)
            bigger = subdivide_edge(g, u, v, max(g.vertices) + 1)
            assert find_tm_model(bigger, pattern) is not None


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_deletion_distance_monotone(seed):
    g = random_graph(seed, 7, 4)
    fam = PatternFamily([K3])
    whole = pF_oracle(g, fam, 7)
    assert whole is not None
    k, _ = whole
    for v in g.vertices:
        smaller = pF_oracle(g.delete_vertices([v]), fam, 7)
        assert smaller is not None
        ks, _ = smaller
        assert k - 1 <= ks <= k


# -- boundaried graphs and folios -------------------------------------------


def test_census_counts_match_unlabeled_graph_counts():
    # cumulative counts of graphs up to iso on <= h vertices: 1, 2, 4, 8, 19
    for h, want in [(0, 1), (1, 2), (2, 4), (3, 8), (4, 19)]:
        assert f3(0, h) == want


def test_census_counts_small_labeled():
    assert f3(1, 1) == 3  # empty, bare vertex, labeled vertex
    assert f3(2, 2) == 12


def test_census_members_pairwise_distinct():
    got = enumerate_boundaried_graphs(2, 3)
    keys = [bg.canonical_form() for bg in got]
    assert len(keys) == len(set(keys))


def test_census_guard_trips_on_big_parameters():
    with pytest.raises(TmhError, match="infeasible"):
        enumerate_boundaried_graphs(3, 9, max_enumeration=10_000)


def test_census_guard_prices_each_ordering_canonical_form_tries():
    # t=2, h=3: 44 raw graphs, and 102 orderings of their inner vertices
    assert len(enumerate_boundaried_graphs(2, 3, max_enumeration=146)) == 36
    with pytest.raises(TmhError, match="t=2 h=3 exceeds 145 graphs"):
        enumerate_boundaried_graphs(2, 3, max_enumeration=145)
    # 67,735 raw graphs pass a 2,000,000 cap, their orderings do not
    with pytest.raises(TmhError, match="t=1 h=6 exceeds 2000000 graphs"):
        enumerate_boundaried_graphs(1, 6)


def test_census_refusal_is_remembered(monkeypatch):
    sweeps = []

    def counting(t, h):
        sweeps.append((t, h))
        return enumerate_boundaried_graphs(t, h)

    monkeypatch.setattr(tm, "enumerate_boundaried_graphs", counting)
    monkeypatch.setattr(tm, "_CENSUS_REFUSED", {})
    messages = []
    for _ in range(2):
        with pytest.raises(TmhError, match="infeasible") as caught:
            f3(9, 12)
        messages.append(str(caught.value))
    assert messages[0] == messages[1] == (
        "boundaried-graph census for t=9 h=12 exceeds 2000000 graphs; "
        "parameters infeasible at desk scale")
    assert sweeps == [(9, 12)]


def test_boundaried_graph_label_iso():
    a = BoundariedGraph(Graph.from_edges([(0, 1), (1, 2)]), {0: 1})
    b = BoundariedGraph(Graph.from_edges([(7, 5), (5, 3)]), {7: 1})
    c = BoundariedGraph(Graph.from_edges([(0, 1), (1, 2)]), {1: 1})
    assert label_isomorphic(a, b)
    assert not label_isomorphic(a, c)


def test_btm_six_cycle_antipodal():
    host = BoundariedGraph(cycle_graph(6), {0: 1, 3: 2})
    pattern = BoundariedGraph(Graph.from_edges([(10, 11)]), {10: 1, 11: 2})
    assert btm_contains(host, pattern)


def test_btm_boundary_cannot_be_interior():
    host = BoundariedGraph(path_graph(3), {1: 1})
    two_inner = BoundariedGraph(Graph.from_edges([(0, 1)]), {})
    assert not btm_contains(host, two_inner)
    just_the_label = BoundariedGraph(Graph(range(1), []), {0: 1})
    assert btm_contains(host, just_the_label)


def test_btm_missing_label_fails():
    host = BoundariedGraph(path_graph(3), {0: 1})
    pattern = BoundariedGraph(Graph(range(1), []), {0: 2})
    assert not btm_contains(host, pattern)


def test_folio_single_labeled_vertex():
    host = BoundariedGraph(Graph(range(1), []), {0: 1})
    fol = compute_folio(host, 1, 1)
    assert len(fol) == 2
    sizes = sorted(m.graph.n for m in fol.members)
    assert sizes == [0, 1]
    labeled = [m for m in fol.members if m.labels]
    assert len(labeled) == 1


def tiny_hosts_touching_the_boundary():
    """Seeded hosts with n <= 8 and m <= 14 whose first boundary vertex
    neighbours a least-degree inner vertex of degree at least two, the
    shape where an inner vertex has fewer usable neighbours than its
    degree."""
    for seed in range(10):
        g = synth.random_planar_graph(seed, 5 + seed % 4, tries=3 + seed % 4)
        t = 1 + seed % 2
        low = min((v for v in g.vertices if g.degree(v) >= 2),
                  key=lambda v: (g.degree(v), v))
        first = min(g.neighbors(low))
        rest = [v for v in sorted(g.vertices) if v not in (low, first)]
        bnd = [first] + random.Random(seed).sample(rest, t - 1)
        yield BoundariedGraph(g, {v: i + 1 for i, v in enumerate(bnd)}), t


def test_folio_two_routes_agree():
    hosts = [
        (BoundariedGraph(path_graph(3), {0: 1}), 2),
        (BoundariedGraph(cycle_graph(4), {0: 1, 2: 2}), 2),
        (BoundariedGraph(Graph.from_edges([(0, 1), (1, 2), (2, 0), (2, 3)]), {3: 1}), 2),
        *tiny_hosts_touching_the_boundary(),
    ]
    for host, t in hosts:
        direct = compute_folio(host, t, 3)
        exhaustive = folio_via_model_enumeration(host, t, 3)
        assert direct.keys == exhaustive.keys, host


def test_folio_monotone_under_subgraphs():
    big = BoundariedGraph(cycle_graph(4), {0: 1})
    small = BoundariedGraph(path_graph(4), {0: 1})  # spanning subgraph of the cycle
    f_small = compute_folio(small, 1, 3)
    f_big = compute_folio(big, 1, 3)
    assert f_small.issubset(f_big)


def test_folio_size_bounded_by_census():
    host = BoundariedGraph(grid_graph(2, 2), {0: 1, 3: 2})
    fol = compute_folio(host, 2, 3)
    assert len(fol) <= f3(2, 3)


# -- branch images must be able to carry their arcs --------------------------


def outer_cycle_host():
    """The forced pipeline's host and inner annulus.  Cut at cycle 1 with
    one boundary vertex, inner vertex 37 has degree two, but one of its
    neighbours is the boundary vertex 36, which no arc may use."""
    gr, full = synthetic_disk_host(25, 3, seed=1, noise=2)
    return gr.graph, sub_annulus(full, 7, 25)


@pytest.mark.parametrize("edges", [[(0, 1), (0, 2)], [(0, 1), (0, 2), (1, 2)]])
def test_unusable_branch_images_are_not_tried(edges):
    g, a = outer_cycle_host()
    host = boundaried_at_cycle(g, a, 1, 1)
    budget = SearchBudget(10_000_000)
    assert btm_contains(host, BoundariedGraph(Graph.from_edges(edges), {}),
                        budget=budget)
    # trying every placement around vertex 37 first spent over 37,000 nodes
    assert budget.used <= 100


def test_forced_pipeline_folio_sizes():
    g, a = outer_cycle_host()
    sizes = [len(compute_folio(boundaried_at_cycle(g, a, ci, 1), 1, 3))
             for ci in range(1, a.r + 1)]
    assert sizes == [17] * 18 + [16]


def test_census_order_memo_is_containment():
    # each member's list is exactly the members it contains, on every
    # census with at most two labels
    for t in (0, 1, 2):
        for h in range(5):
            members = tm._census(t, h)
            assert tm._census_below(t, h) == tuple(
                tuple(j for j, low in enumerate(members) if btm_contains(high, low))
                for high in members), (t, h)


def test_inferred_folios_match_model_enumeration():
    # at h = 4 a present member implies many below it, so most members
    # are inferred rather than searched
    hosts = [(BoundariedGraph(cycle_graph(5), {0: 1, 2: 2}), 2),
             (BoundariedGraph(grid_graph(2, 3), {0: 1}), 1),
             *tiny_hosts_touching_the_boundary()]
    for host, t in hosts:
        if host.graph.m > 10:
            continue
        assert compute_folio(host, t, 4).keys == \
            folio_via_model_enumeration(host, t, 4).keys, host


def test_forced_solve_searches_only_uninferred_members(monkeypatch):
    # the 19 folios of the forced pipeline over the 17-member census
    # (1, 3) searched all 323 members; each member found present now
    # settles the members below it
    gr, full = synthetic_disk_host(25, 3, seed=1, noise=2)
    fam = AnnulusFamily(sub_annulus(full, 1, 3), [sub_annulus(full, 7, 25)])
    zero = TamingBudget(f1=lambda k: 0)
    tm._census_below(1, 3)
    searched = []
    search = tm._BoundariedHost.search

    def counting(self, pattern, budget):
        searched.append(pattern)
        return search(self, pattern, budget)

    monkeypatch.setattr(tm._BoundariedHost, "search", counting)
    out = solver.solve_tm_deletion(gr.graph, PatternFamily([Graph(range(2), [(0, 1)])]), 0,
                                   budget=zero, mode="safe", force=True, annuli=(gr, fam),
                                   params=solver.derive_params(0, 2, zero))
    assert out.answer is False
    assert len(searched) == 77


# (host seed, census index, model edges, branches) with n = 8 + seed % 6,
# t = 1 + seed % 2 and the boundary sampled by the seed; every case has a
# candidate branch image with enough neighbours but too few usable ones
BOUNDARIED_MODELS = [
    (1, 14, [(0, 3), (3, 5)], [0, 3, 5]),
    (1, 15, None, None),
    (14, 9, [(0, 2), (2, 3)], [0, 2, 3]),
    (15, 15, None, None),
    (19, 18, None, None),
    (26, 10, [(4, 5), (4, 9), (5, 7), (7, 9)], [4, 5, 7]),
    (28, 10, None, None),
    (31, 14, [(2, 5), (2, 6)], [2, 5, 6]),
    (32, 9, [(2, 4), (3, 5), (3, 7), (4, 8), (7, 8)], [2, 3, 5]),
    (41, 15, [(1, 3), (1, 9), (3, 4), (4, 8), (8, 9)], [1, 3, 4]),
    (47, 33, [(1, 8), (1, 11), (8, 11)], [1, 8, 11]),
    (59, 15, [(2, 4), (2, 8), (4, 10), (8, 10)], [2, 4, 8]),
]


@pytest.mark.parametrize("seed,index,edges,branches", BOUNDARIED_MODELS)
def test_boundaried_search_returns_the_frozen_model(seed, index, edges, branches):
    t = 1 + seed % 2
    g = synth.random_planar_graph(seed, 8 + seed % 6, tries=2 + seed % 4)
    boundary = random.Random(seed).sample(sorted(g.vertices), t)
    by_label = {i + 1: v for i, v in enumerate(boundary)}
    pattern = enumerate_boundaried_graphs(t, 3)[index]
    host = tm._BoundariedHost(BoundariedGraph(g, {v: lab for lab, v in by_label.items()}))
    pair = host.search(pattern, SearchBudget(10_000_000))
    if edges is None:
        assert pair is None
    else:
        assert sorted(pair.model.edges) == edges
        assert sorted(pair.branches) == branches
