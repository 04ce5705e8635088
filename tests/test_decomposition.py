"""Decomposition, bramble, and wall tests with hand-frozen expectations;
the duality checks pit the exhaustive bramble search against the exact
width on every graph small enough to afford both."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st
import networkx as nx
from networkx.generators.atlas import graph_atlas_g

import tmh.decomposition as decomposition
import tmh.graphs as graphs
from tmh.graphs import DiskRegion, EmbeddingError, Graph, TmhError
from tmh.decomposition import (
    DEFAULT_EXACT_TW_CAP,
    Bramble,
    DecompositionViolation,
    InstanceTooLarge,
    TreeDecomposition,
    WallWithCompass,
    _decomposition_from_order,
    _elementary_wall_edges,
    _recognize_elementary_wall,
    bramble_order,
    build_elementary_wall,
    exact_treewidth,
    find_wall,
    greedy_treewidth,
    grid_bramble,
    haven_bramble,
    max_bramble_order,
    validate_bramble,
    validate_decomposition,
    wall_layers,
)
from tmh.synth import random_planar_graph, stream_cycle_fabric
from tmh.tm import SearchBudget


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


def complete_graph(n):
    return Graph.from_edges(itertools.combinations(range(n), 2))


def star_tree(n):
    return Graph.from_edges((0, i) for i in range(1, n))


# -- tree decomposition validation -------------------------------------------


def test_validate_path_two_bags():
    g = path_graph(3)
    td = TreeDecomposition(Graph([0, 1], [(0, 1)]), {0: {0, 1}, 1: {1, 2}})
    assert validate_decomposition(g, td) == 1


def test_validate_triangle_single_bag():
    g = cycle_graph(3)
    td = TreeDecomposition(Graph([0], []), {0: {0, 1, 2}})
    assert validate_decomposition(g, td) == 2


def test_validate_triangle_split_misses_edge():
    g = cycle_graph(3)
    td = TreeDecomposition(Graph([0, 1], [(0, 1)]), {0: {0, 1}, 1: {1, 2}})
    out = validate_decomposition(g, td)
    assert isinstance(out, DecompositionViolation)
    assert out.axiom == "edge-uncovered"
    assert out.witness == (0, 2)


def test_validate_occurrence_not_subtree():
    g = path_graph(2)
    tree = Graph([0, 1, 2], [(0, 1), (1, 2)])
    td = TreeDecomposition(tree, {0: {0, 1}, 1: {1}, 2: {0, 1}})
    out = validate_decomposition(g, td)
    assert isinstance(out, DecompositionViolation)
    assert out.axiom == "occurrence-not-subtree"
    assert out.witness == 0


def test_validate_disconnected_tree():
    g = path_graph(3)
    td = TreeDecomposition(Graph([0, 1], []), {0: {0, 1}, 1: {1, 2}})
    out = validate_decomposition(g, td)
    assert isinstance(out, DecompositionViolation)
    assert out.axiom == "tree-shape"


def test_validate_declared_width_mismatch():
    g = path_graph(3)
    td = TreeDecomposition(Graph([0, 1], [(0, 1)]), {0: {0, 1}, 1: {1, 2}},
                           width=5)
    out = validate_decomposition(g, td)
    assert isinstance(out, DecompositionViolation)
    assert out.axiom == "width-mismatch"
    assert out.witness == (5, 1)


def _reference_validate_decomposition(g, td):
    # the quadratic check: one scan of all bags per edge, one tree
    # subgraph per vertex
    nodes = set(td.tree.vertices)
    if set(td.bags) != nodes:
        return DecompositionViolation(
            "bag-node-mismatch", sorted(set(td.bags) ^ nodes))
    if nodes:
        if td.tree.m != len(nodes) - 1 or not td.tree.is_connected():
            return DecompositionViolation("tree-shape", None)
    covered = set()
    for b in td.bags.values():
        covered |= b
    for v in g.vertices:
        if v not in covered:
            return DecompositionViolation("vertex-uncovered", v)
    for e in g.sorted_edges():
        if not any(e[0] in b and e[1] in b for b in td.bags.values()):
            return DecompositionViolation("edge-uncovered", e)
    for v in g.vertices:
        holders = [n for n in td.bags if v in td.bags[n]]
        sub = td.tree.subgraph(holders)
        if len(sub.connected_components()) != 1:
            return DecompositionViolation("occurrence-not-subtree", v)
    width = max((len(b) for b in td.bags.values()), default=0) - 1
    if width != td.width:
        return DecompositionViolation("width-mismatch", (td.width, width))
    return width


def _verdict(out):
    if isinstance(out, DecompositionViolation):
        return (out.axiom, out.witness)
    return out


def _corruptions(g, td):
    """td itself, then copies with one defect each: a bag lost, a tree
    edge lost or added, a vertex taken out of or put into one bag, and a
    wrong declared width."""
    yield td
    nodes = sorted(td.bags)
    for n in nodes:
        bags = {m: b for m, b in td.bags.items() if m != n}
        yield TreeDecomposition(td.tree, bags, width=td.width)
    for e in sorted(td.tree.edges):
        tree = Graph(td.tree.vertices, td.tree.edges - {e})
        yield TreeDecomposition(tree, td.bags, width=td.width)
    if len(nodes) >= 3 and not td.tree.has_edge(nodes[0], nodes[-1]):
        tree = td.tree.union(Graph.from_edges([(nodes[0], nodes[-1])]))
        yield TreeDecomposition(tree, td.bags, width=td.width)
    for n in nodes:
        for v in sorted(td.bags[n]):
            bags = dict(td.bags)
            bags[n] = td.bags[n] - {v}
            yield TreeDecomposition(td.tree, bags, width=td.width)
        for v in g.vertices:
            if v not in td.bags[n]:
                bags = dict(td.bags)
                bags[n] = td.bags[n] | {v}
                yield TreeDecomposition(td.tree, bags, width=td.width)
    yield TreeDecomposition(td.tree, td.bags, width=td.width + 1)


def test_validation_matches_the_quadratic_reference():
    kinds = set()
    checked = 0
    graphs = [Graph(ng.nodes(), ng.edges())
              for ng in graph_atlas_g()[1::9] if ng.number_of_nodes() > 0]
    graphs += [path_graph(6), cycle_graph(7), grid_graph(3, 3), star_tree(6),
               Graph(range(5), [(0, 1), (2, 3)])]
    for g in graphs:
        for td in (greedy_treewidth(g), exact_treewidth(g)[1]):
            for bad in _corruptions(g, td):
                want = _verdict(_reference_validate_decomposition(g, bad))
                assert _verdict(validate_decomposition(g, bad)) == want
                kinds.add(want[0] if isinstance(want, tuple) else "valid")
                checked += 1
    assert kinds == {"valid", "bag-node-mismatch", "tree-shape",
                     "vertex-uncovered", "edge-uncovered",
                     "occurrence-not-subtree", "width-mismatch"}
    assert checked > 1000


# -- exact and greedy width --------------------------------------------------


def test_exact_treewidth_known_values():
    for g, want in [
        (path_graph(7), 1),
        (star_tree(8), 1),
        (cycle_graph(6), 2),
        (complete_graph(5), 4),
        (grid_graph(3, 3), 3),
    ]:
        k, td = exact_treewidth(g)
        assert k == want
        assert td.width == want
        assert validate_decomposition(g, td) == want


def test_exact_treewidth_degenerate():
    k, td = exact_treewidth(Graph())
    assert k == -1
    k, td = exact_treewidth(Graph([7], []))
    assert k == 0
    assert validate_decomposition(Graph([7], []), td) == 0


def test_exact_treewidth_cap():
    with pytest.raises(InstanceTooLarge):
        exact_treewidth(grid_graph(4, 4))
    k, _ = exact_treewidth(grid_graph(4, 4), cap=16)
    assert k == 4


def test_greedy_is_certified_upper_bound():
    for g in [path_graph(9), grid_graph(3, 3), complete_graph(6),
              cycle_graph(8)]:
        k, _ = exact_treewidth(g)
        td = greedy_treewidth(g)
        assert validate_decomposition(g, td) == td.width
        assert td.width >= k


def _reference_decomposition_from_order(g, order):
    """_decomposition_from_order as it was with neighbour sets."""
    adj = {v: set(g.neighbors(v)) for v in g.vertices}
    position = {v: i for i, v in enumerate(order)}
    bags = {}
    for v in order:
        later = {w for w in adj[v] if position[w] > position[v]}
        bags[position[v]] = frozenset({v} | later)
        for a, b in itertools.combinations(sorted(later), 2):
            adj[a].add(b)
            adj[b].add(a)
    edges = []
    n = len(order)
    for i in range(n):
        later = sorted(bags[i] - {order[i]}, key=lambda w: position[w])
        if later:
            edges.append((i, position[later[0]]))
        elif i + 1 < n:
            edges.append((i, i + 1))
    return TreeDecomposition(Graph(range(n), edges), bags)


def _reference_greedy_treewidth(g):
    """greedy_treewidth as it was with neighbour sets: each vertex's fill
    counted pair by pair, the least vertex of least fill eliminated, and
    the decomposition rebuilt from the order."""
    adj = {v: set(g.neighbors(v)) for v in g.vertices}
    order = []
    while adj:
        pick = None
        pick_fill = None
        for v in sorted(adj):
            nbrs = sorted(adj[v])
            fill = sum(1 for a, b in itertools.combinations(nbrs, 2)
                       if b not in adj[a])
            if pick_fill is None or fill < pick_fill:
                pick, pick_fill = v, fill
        order.append(pick)
        nbrs = sorted(adj.pop(pick))
        for a, b in itertools.combinations(nbrs, 2):
            adj[a].add(b)
            adj[b].add(a)
        for w in nbrs:
            adj[w].discard(pick)
    return _reference_decomposition_from_order(g, order)


def test_bitset_fill_in_matches_the_set_version():
    rnd = random.Random(0)
    for ng in graph_atlas_g():
        g = Graph(ng.nodes(), ng.edges())
        order = list(g.vertices)
        rnd.shuffle(order)
        td = _decomposition_from_order(g, order)
        want = _reference_decomposition_from_order(g, order)
        assert (td.width, td.bags, td.tree) == (want.width, want.bags, want.tree)


def test_bitset_min_fill_matches_the_set_version():
    hosts = [random_planar_graph(seed, n)
             for n in (8, 12, 16, 24, 40) for seed in range(300)]
    hosts += [Graph(ng.nodes(), ng.edges()) for ng in graph_atlas_g()]
    for g in hosts:
        td, want = greedy_treewidth(g), _reference_greedy_treewidth(g)
        assert (td.width, td.bags, td.tree) == (want.width, want.bags, want.tree)


def _reference_exact_treewidth(g):
    """The unpruned subset DP: every mask in size order, one BFS per
    (prefix, vertex) pair, ties going to the lowest vertex index."""
    n = g.n
    vs = list(g.vertices)
    pos = {v: i for i, v in enumerate(vs)}
    adjm = [0] * n
    for u, v in g.edges:
        adjm[pos[u]] |= 1 << pos[v]
        adjm[pos[v]] |= 1 << pos[u]

    def reach(mask):
        out = 0
        while mask:
            b = mask & -mask
            out |= adjm[b.bit_length() - 1]
            mask ^= b
        return out

    def cost(prev, i):
        comp = frontier = 1 << i
        while frontier:
            frontier = reach(frontier) & (prev | 1 << i) & ~comp
            comp |= frontier
        return (reach(comp) & ~prev & ~(1 << i)).bit_count()

    full = (1 << n) - 1
    best = {0: 0}
    choice = {}
    for mask in sorted(range(1, full + 1), key=lambda m: m.bit_count()):
        best[mask], choice[mask] = min(
            (max(best[mask ^ 1 << i], cost(mask ^ 1 << i, i)), i)
            for i in range(n) if mask >> i & 1)
    order = []
    mask = full
    while mask:
        order.append(vs[choice[mask]])
        mask ^= 1 << choice[mask]
    order.reverse()
    return best[full], _reference_decomposition_from_order(g, order)


def _assert_matches_reference(g):
    k, td = exact_treewidth(g)
    want_k, want_td = _reference_exact_treewidth(g)
    assert (k, td.width) == (want_k, want_td.width)
    assert td.bags == want_td.bags
    assert td.tree == want_td.tree
    return k


def test_pruned_dp_matches_the_unpruned_one_on_the_atlas():
    loose = []
    for idx, ng in enumerate(graph_atlas_g()):
        if ng.number_of_nodes() == 0:
            continue
        g = Graph(ng.nodes(), ng.edges())
        if greedy_treewidth(g).width > _assert_matches_reference(g):
            loose.append(idx)
    # the one atlas graph where min-fill overshoots, so the pruning bound
    # there is not the optimum
    assert loose == [1206]


@pytest.mark.parametrize("density", [0.1, 0.3, 0.5, 0.8])
def test_pruned_dp_matches_the_unpruned_one_on_random_graphs(density):
    rng = random.Random(int(density * 10))
    for n in range(1, 12):
        for _ in range(3):
            labels = rng.sample(range(100), n)
            edges = [(labels[a], labels[b])
                     for a, b in itertools.combinations(range(n), 2)
                     if rng.random() < density]
            _assert_matches_reference(Graph(labels, edges))


# -- brambles ----------------------------------------------------------------


def test_bramble_order_singleton():
    g = path_graph(2)
    assert bramble_order(g, Bramble([{0}])) == 1


def test_bramble_order_two_disjoint_touching():
    g = path_graph(2)
    b = Bramble([{0}, {1}])
    assert validate_bramble(g, b) is None
    assert bramble_order(g, b) == 2


def test_bramble_disconnected_element_rejected():
    g = path_graph(3)
    b = Bramble([{0, 2}])
    bad = validate_bramble(g, b)
    assert bad is not None and bad[0] == "element-disconnected"
    with pytest.raises(TmhError):
        bramble_order(g, b)


def test_bramble_not_touching_detected():
    g = path_graph(3)
    bad = validate_bramble(g, Bramble([{0}, {2}]))
    assert bad is not None and bad[0] == "elements-not-touching"


def test_bramble_order_budget_gives_lower_bound():
    g = path_graph(2)
    out = bramble_order(g, Bramble([{0}, {1}]), budget=SearchBudget(1))
    assert out.exact is False
    assert out <= 2


def test_boundary_pieces_sharing_corners_lose_order():
    # Keeping the shared corner vertices inside the third boundary piece
    # lets one vertex hit two pieces, so the order drops to r; the
    # construction in grid_bramble trims them away and recovers r+1.
    g = grid_graph(3, 3)
    sloppy = Bramble([{4}, {3, 6}, {0, 1, 2}, {2, 5, 6, 7, 8}])
    assert validate_bramble(g, sloppy) is None
    assert bramble_order(g, sloppy) == 3


def test_grid_bramble_three_by_three():
    g, cycles, streams, boundary = stream_cycle_fabric(3)
    b = grid_bramble(g, cycles, streams, boundary)
    got = {frozenset(e) for e in b.elements}
    assert got == {frozenset({4}), frozenset({3, 6}), frozenset({0, 1, 2}),
                   frozenset({5, 7, 8})}
    assert bramble_order(g, b) == 4


def test_grid_bramble_five_by_five():
    g, cycles, streams, boundary = stream_cycle_fabric(5)
    b = grid_bramble(g, cycles, streams, boundary)
    assert len(b) == 9 + 3
    order = bramble_order(g, b)
    assert order == 6 and order.exact


def test_grid_bramble_subdivided_streams():
    g, cycles, streams, boundary = stream_cycle_fabric(3, subdivide=2)
    assert g.n == 11
    b = grid_bramble(g, cycles, streams, boundary)
    assert bramble_order(g, b) == 4


def test_grid_bramble_rejects_small_r():
    g, cycles, streams, boundary = stream_cycle_fabric(2)
    with pytest.raises(TmhError):
        grid_bramble(g, cycles, streams, boundary)


def test_grid_bramble_rejects_overlapping_streams():
    g, cycles, streams, boundary = stream_cycle_fabric(3)
    streams = [list(streams[0]) + [streams[1][1]], streams[1], streams[2]]
    with pytest.raises(TmhError):
        grid_bramble(g, cycles, streams, boundary)


def test_grid_bramble_rejects_wrong_boundary():
    g, cycles, streams, boundary = stream_cycle_fabric(3)
    with pytest.raises(TmhError):
        grid_bramble(g, cycles, streams, boundary[:-1])


# -- duality on small graphs -------------------------------------------------


def test_haven_search_finds_validated_bramble():
    g = grid_graph(3, 3)
    b = haven_bramble(g, 3)
    assert b is not None
    assert validate_bramble(g, b) is None
    order = bramble_order(g, b)
    assert order == 4 and order.exact
    assert haven_bramble(g, 4) is None


def test_max_bramble_order_matches_width_on_named_graphs():
    for g in [path_graph(4), cycle_graph(5), complete_graph(4),
              Graph.from_edges([(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]),
              grid_graph(3, 3)]:
        k, _ = exact_treewidth(g)
        assert max_bramble_order(g) == k + 1


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=2 ** 15 - 1))
def test_max_bramble_order_matches_width_random(n, mask):
    pairs = list(itertools.combinations(range(n), 2))
    edges = [e for i, e in enumerate(pairs) if mask >> i & 1]
    g = Graph(range(n), edges)
    k, _ = exact_treewidth(g)
    assert max_bramble_order(g) == k + 1


# -- walls -------------------------------------------------------------------


def _validate_wall(w):
    """Cross-check of the wall shape, independent of the wall's
    coordinates: the host, embedded by planar_rotation, has 2r^2 - 2
    vertices, every short face is a hexagon, the perimeter is the long
    face, and the declared paths cover the graph."""
    g = w.host_subgraph
    assert g.n == 2 * w.r * w.r - 2
    emb, walk = decomposition._embed_wall(g, graphs.planar_rotation(g))
    lens = sorted(len(f) for f in emb.faces)
    assert all(l == 6 for l in lens[:-1])
    assert set(walk) == set(w.perimeter)
    covered = set()
    for p in w.horizontal_paths + w.vertical_paths:
        covered.update(p)
    assert covered == set(g.vertices)
    return True


def test_elementary_wall_shape():
    w = build_elementary_wall(3)
    g = w.host_subgraph
    assert g.n == 16 and g.m == 19
    assert all(g.degree(v) in (2, 3) for v in g.vertices)
    assert len(w.perimeter) == 14
    assert set(g.vertices) - set(w.perimeter) == {8, 9}
    assert w.coordinates[8] == (3, 2) and w.coordinates[9] == (4, 2)
    assert _validate_wall(w)


def test_elementary_wall_paths_cover_every_edge():
    for r in (3, 5):
        w = build_elementary_wall(r)
        seen = set()
        for p in w.horizontal_paths + w.vertical_paths:
            for a, b in zip(p, p[1:]):
                assert w.host_subgraph.has_edge(a, b)
                seen.add((min(a, b), max(a, b)))
        assert seen == w.host_subgraph.edges
        assert len(w.horizontal_paths) == r
        assert len(w.vertical_paths) == r


def test_elementary_wall_rejects_even_height():
    with pytest.raises(TmhError):
        build_elementary_wall(4)
    with pytest.raises(TmhError):
        build_elementary_wall(1)


def test_wall_layer_counts():
    for r, want in [(3, 1), (5, 2), (9, 4)]:
        w = build_elementary_wall(r)
        assert len(wall_layers(w)) == want


def test_wall_layers_are_nested_cycles():
    w = build_elementary_wall(9)
    layers = wall_layers(w)
    assert set(layers[0]) == set(w.perimeter)
    seen = set()
    for layer in layers:
        assert not (set(layer) & seen)
        seen |= set(layer)
        for a, b in zip(layer, layer[1:] + layer[:1]):
            assert w.host_subgraph.has_edge(a, b)
    for outer, inner in zip(layers, layers[1:]):
        region = DiskRegion.of_cycle(w.embedding, outer)
        assert set(inner) <= region.vertices("open")


# -- the wall-or-width entry point -------------------------------------------


def test_find_wall_on_a_wall_host():
    g = build_elementary_wall(5).host_subgraph
    out = find_wall(g, 5)
    assert isinstance(out, WallWithCompass)
    assert out.wall.r == 5
    assert _validate_wall(out.wall)
    assert set(out.compass.compass.vertices) == set(g.vertices)
    assert out.compass_tw_certificate.width <= 124 * 5


def test_find_wall_extracts_subwall():
    g = build_elementary_wall(9).host_subgraph
    out = find_wall(g, 5)
    assert isinstance(out, WallWithCompass)
    assert out.wall.r == 5
    assert _validate_wall(out.wall)
    sub = out.wall.host_subgraph
    assert set(sub.vertices) < set(g.vertices)
    assert sub.edges < g.edges
    assert out.compass.compass == sub
    cert = out.compass_tw_certificate
    assert cert.width <= 124 * 5
    assert validate_decomposition(sub, cert) == cert.width


@pytest.mark.parametrize("r, q", [(r, q) for r in (3, 5, 7, 9)
                                  for q in range(3, r + 1, 2)])
def test_compass_certificate_is_the_min_fill_decomposition(r, q):
    # a compass is a q-subwall, above the exact DP's cap for every q >= 3
    out = find_wall(build_elementary_wall(r).host_subgraph, q)
    compass = out.compass.compass
    assert compass.n > DEFAULT_EXACT_TW_CAP
    cert, want = out.compass_tw_certificate, greedy_treewidth(compass)
    assert (cert.width, cert.bags, cert.tree) == (want.width, want.bags, want.tree)


def test_find_wall_low_width_host():
    g = star_tree(10)
    out = find_wall(g, 3)
    assert isinstance(out, TreeDecomposition)
    assert out.width == 1
    assert validate_decomposition(g, out) == 1


def test_find_wall_small_wall_falls_back_to_width():
    g = build_elementary_wall(5).host_subgraph
    out = find_wall(g, 7)
    assert isinstance(out, TreeDecomposition)
    assert validate_decomposition(g, out) == out.width
    assert out.width <= 124 * 7


def test_find_wall_is_exact_below_the_cap_and_the_solver_is_not():
    # min-fill overshoots on this series-parallel host; the public entry
    # point reports the treewidth, the solver's search the min-fill width
    g = random_planar_graph(182, 10, tries=10)
    assert find_wall(g, 3).width == exact_treewidth(g)[0] == 2
    td = decomposition._find_wall(g, 3, 124, greedy_treewidth)
    assert td.width == greedy_treewidth(g).width == 3


def test_find_wall_rejects_bad_input():
    with pytest.raises(TmhError):
        find_wall(path_graph(4), 4)
    with pytest.raises(TmhError):
        find_wall(complete_graph(5), 3)


def test_find_wall_checks_the_height_before_planarity():
    with pytest.raises(TmhError, match="^wall height must be odd and at least 3, got 4$"):
        find_wall(complete_graph(5), 4)
    with pytest.raises(EmbeddingError, match="^graph is not planar$"):
        find_wall(complete_graph(5), 3)


def _count_rotations(monkeypatch):
    calls = []

    def counting(g):
        calls.append(g)
        return rotation(g)

    rotation = graphs.planar_rotation
    monkeypatch.setattr(graphs, "planar_rotation", counting)
    return calls


def test_find_wall_embeds_the_host_only_on_the_wall_branch(monkeypatch):
    # a 5x5 grid is no wall, and the planarity test reads no rotation; a
    # recognised wall and its subwall are embedded from their coordinates
    grid = grid_graph(5, 5)
    calls = _count_rotations(monkeypatch)
    assert isinstance(find_wall(grid, 3), TreeDecomposition)
    assert calls == []
    wall = build_elementary_wall(5).host_subgraph
    assert isinstance(find_wall(wall, 3), WallWithCompass)
    assert calls == []


def _cyclic_shifts(order):
    return {order[i:] + order[:i] for i in range(len(order))}


def _reference_peel(g):
    """The layer peel that embeds every layer afresh with networkx: the
    longest face (the later one on a tie), then the rest with its
    degree-one debris trimmed."""
    layers = []
    current = g
    while current.m > current.n - len(current.connected_components()):
        probe = graphs.PlaneEmbedding(current, graphs.planar_rotation(current),
                                      lambda faces: 0)
        _, i = max((len(f), i) for i, f in enumerate(probe.faces))
        walk = probe.faces[i]
        layers.append(walk)
        current = current.delete_vertices(walk)
        while True:
            low = [v for v in current.vertices if current.degree(v) <= 1]
            if not low:
                break
            current = current.delete_vertices(low)
    return layers


class TestCoordinateWalls:
    """A wall is embedded from its coordinates and peeled by restricting
    that embedding; networkx, embedding the wall and each layer afresh,
    is the reference."""

    @pytest.mark.parametrize("h", range(3, 50, 2))
    def test_coordinate_rotation_is_networkx_rotation(self, h):
        w = build_elementary_wall(h)
        g = w.host_subgraph
        ours = w.embedding.rotation
        theirs = graphs.planar_rotation(g)
        same = all(ours[v] in _cyclic_shifts(theirs[v]) for v in g.vertices)
        mirror = all(ours[v][::-1] in _cyclic_shifts(theirs[v]) for v in g.vertices)
        assert same or mirror
        assert len(wall_layers(w)) == (h - 1) // 2

    @pytest.mark.parametrize("h", range(3, 18, 2))
    def test_layers_match_the_networkx_peel(self, h):
        w = build_elementary_wall(h)
        got = wall_layers(w)
        ref = _reference_peel(w.host_subgraph)
        assert [set(c) for c in got] == [set(c) for c in ref]
        assert [c[0] for c in got] == [c[0] for c in ref]
        assert got[0] == w.perimeter


def _relabelled(g, seed):
    perm = list(g.vertices)
    random.Random(seed).shuffle(perm)
    return g.relabel(dict(zip(g.vertices, perm)))


class TestWallRecognition:
    """An elementary wall is recognised by rigid placement from a corner;
    networkx's isomorphism test is the reference."""

    @pytest.mark.parametrize("h", range(3, 22, 2))
    def test_row_major_walls_get_the_builder_coordinates(self, h):
        w = build_elementary_wall(h)
        assert _recognize_elementary_wall(w.host_subgraph) == (h, w.coordinates)

    @pytest.mark.parametrize("h, seed", [(h, s) for h in (3, 5, 7, 9) for s in range(5)])
    def test_relabelled_walls_map_onto_the_template(self, h, seed):
        g = _relabelled(build_elementary_wall(h).host_subgraph, seed)
        r, coords = _recognize_elementary_wall(g)
        positions, edges = _elementary_wall_edges(h)
        assert r == h and sorted(coords.values()) == sorted(positions)
        assert {frozenset((coords[u], coords[v])) for u, v in g.edges} \
            == {frozenset(e) for e in edges}
        out = find_wall(g, 3)
        assert isinstance(out, WallWithCompass)
        assert _validate_wall(out.wall)

    @pytest.mark.parametrize("h, seed", [(h, s) for h in (3, 5, 7) for s in range(6)])
    def test_a_moved_edge_is_no_wall(self, h, seed):
        g = build_elementary_wall(h).host_subgraph
        rng = random.Random(seed)
        gone = rng.choice(g.sorted_edges())
        new = rng.choice([e for e in itertools.combinations(g.vertices, 2)
                          if not g.has_edge(*e)])
        moved = Graph(g.vertices, (g.edges - {gone}) | {new})
        assert (moved.n, moved.m) == (g.n, g.m)
        assert _recognize_elementary_wall(moved) is None
        template = nx.Graph(_elementary_wall_edges(h)[1])
        assert not nx.is_isomorphic(nx.Graph(sorted(moved.edges)), template)
