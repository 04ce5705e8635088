"""Pipeline tests: derived search sizes, trace bookkeeping, solution-space
reduction with its safety sweep, disk discovery with grid certificates, the
per-vertex outer loop in both modes, the bounded-width endgame, and the full
solver checked against the brute-force deletion oracle."""

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from networkx import check_planarity, graph_atlas_g

from helpers import adjacency_graph
from tmh import decomposition, solver
from tmh.graphs import EmbeddingError, Graph, MutableAdjacency, TmhError
from tmh.linkage import TamingBudget
from tmh.tm import (
    BUILTIN_PATTERNS,
    BudgetExceeded,
    PatternFamily,
    SearchBudget,
    f3,
    find_tm_model,
    is_F_free,
    pF_oracle,
)
from tmh.annulus import (
    AnnulusFamily,
    family_height_needed,
    sub_annulus,
    synthetic_disk_host,
)
from tmh.decomposition import (
    DEFAULT_WIDTH_FACTOR,
    TreeDecomposition,
    build_elementary_wall,
    greedy_treewidth,
    validate_decomposition,
)
from tmh.solver import (
    ReductionTrace,
    SolveOutcome,
    SolverParams,
    TraceStep,
    bounded_tw_solve,
    derive_params,
    find_irrelevant_area,
    find_irrelevant_vertex,
    grid_minor_certificate,
    reduce_solution_space,
    solve_tm_deletion,
    verify_minor_model,
    verify_reduction_safety,
)
from tmh.synth import random_planar_graph, series_parallel_graph

K3 = BUILTIN_PATTERNS["K3"]()
K4 = BUILTIN_PATTERNS["K4"]()
K23 = BUILTIN_PATTERNS["K23"]()
C4 = BUILTIN_PATTERNS["C4"]()
K5 = BUILTIN_PATTERNS["K5"]()
K33 = BUILTIN_PATTERNS["K33"]()

# f1 == 0 keeps every folio boundary at a single vertex, the smallest
# geometry the formulas accept, so whole pipelines fit on a desk
ZERO = TamingBudget(f1=lambda k: 0)


def _odd(v):
    return v if v % 2 else v + 1


def _dense_graph(seed, n, p):
    # non-planar on purpose: K5 and K3,3 have no structural fast path,
    # so containment on these hosts runs the generic model search
    rnd = random.Random(seed)
    return Graph(range(n), [(u, v) for u in range(n)
                            for v in range(u + 1, n) if rnd.random() < p])


@pytest.fixture(scope="module")
def host91():
    # deep enough for the unforced stabilization threshold at h=1: 7 * 13
    return synthetic_disk_host(91, 3)


@pytest.fixture(scope="module")
def host13():
    return synthetic_disk_host(13, 3)


@pytest.fixture(scope="module")
def host13q5():
    return synthetic_disk_host(13, 5)


@pytest.fixture(scope="module")
def host21():
    return synthetic_disk_host(21, 3)


@pytest.fixture(scope="module")
def injected():
    """A 150-vertex disk host sliced into an outer annulus and one deep
    inner annulus, the forced-geometry entry into the pipeline."""
    gr, full = synthetic_disk_host(25, 3)
    outer = sub_annulus(full, 1, 3)
    inner = sub_annulus(full, 7, 25)
    return gr, AnnulusFamily(outer, [inner])


class TestDerivedSizes:
    def test_first_example_row(self):
        p = derive_params(1, 2)
        assert p.g == 1
        assert p.x == 462

    def test_default_budget_smallest_instance(self):
        p = derive_params(0, 1)
        assert (p.x, p.y, p.z) == (58, 19352, 3)
        assert p.wall_q == 24251

    def test_zero_budget_rows(self):
        p = derive_params(0, 1, ZERO)
        assert (p.x, p.y, p.z, p.wall_q) == (10, 77, 3, 109)
        p = derive_params(1, 2, ZERO)
        assert (p.x, p.y, p.z, p.wall_q) == (30, 272, 9829, 17082)

    def test_inner_count_collapses_without_deletions(self):
        # z loses its census power entirely at k=0
        assert derive_params(0, 1).z == 3
        assert derive_params(0, 3, ZERO).z == 3

    def test_census_formula_behind_y(self):
        p = derive_params(0, 2, ZERO)
        assert p.boundary_size == 1 and p.folio_detail == 3
        assert p.y == f3(1, 3) * (3 * p.block_width + 1)

    def test_infeasible_census_refuses_instead_of_stalling(self):
        p = derive_params(1, 2)
        with pytest.raises(TmhError, match="infeasible at desk scale"):
            p.y

    def test_outer_depth_monotone(self):
        xs = [[derive_params(k, h, ZERO).x for h in range(1, 5)]
              for k in range(4)]
        for row in xs:
            assert row == sorted(row)
        for col in zip(*xs):
            assert list(col) == sorted(col)

    def test_validation(self):
        with pytest.raises(TmhError):
            derive_params(-1, 2)
        with pytest.raises(TmhError):
            derive_params(0, 0)


class TestTrace:
    def test_records_round_trip(self):
        tr = ReductionTrace()
        tr.add("wall", {"branch": "wall", "height": 5})
        tr.add("delete_vertex", {"vertex": 3}, "unverified")
        recs = tr.as_records()
        assert [r["kind"] for r in recs] == ["wall", "delete_vertex"]
        assert recs[1]["status"] == "unverified"
        assert ReductionTrace(TraceStep(r["kind"], r["payload"], r["status"])
                              for r in recs) == tr

    def test_vocabulary_is_closed(self):
        with pytest.raises(TmhError):
            TraceStep("teleport", {}, "verified")
        with pytest.raises(TmhError):
            TraceStep("wall", {}, "maybe")

    @given(st.lists(st.tuples(
        st.sampled_from(("wall", "annuli", "reduce_space")),
        st.sampled_from(("verified", "unverified", "failed")),
        st.integers(0, 9)), max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_equality_tracks_records(self, rows):
        a = ReductionTrace()
        b = ReductionTrace()
        for kind, status, x in rows:
            a.add(kind, {"x": x}, status)
            b.add(kind, {"x": x}, status)
        assert a == b and a.as_records() == b.as_records()
        if rows:
            b.steps[-1].payload["x"] = -1
            assert a != b


class TestReduceSolutionSpace:
    def test_no_deletions_leave_an_empty_set(self, host13):
        gr, a = host13
        r = reduce_solution_space(derive_params(0, 1, ZERO), gr, a)
        assert r == frozenset()

    def test_single_deletion_on_homogeneous_rings(self, host21):
        # every single deletion leaves the same folios on these fabrics,
        # so one representative (the empty set) covers every profile and
        # nothing survives the clip to the annulus heart
        gr, a = host21
        p = derive_params(1, 1, ZERO)
        r = reduce_solution_space(p, gr, a)
        assert r == frozenset()
        verify_reduction_safety(gr.graph, a, r, PatternFamily([K3]), 1)

    def test_refuses_shallow_annulus(self, host13):
        gr, a = host13
        with pytest.raises(TmhError, match="block partition needs"):
            reduce_solution_space(derive_params(1, 1, ZERO), gr, a)

    def test_refuses_when_rails_cannot_carry_boundaries(self, host13):
        gr, a = host13
        with pytest.raises(TmhError, match="folio boundaries use 5"):
            reduce_solution_space(derive_params(1, 2), gr, a)

    def test_advisory_rail_count_and_its_override(self, host13q5):
        gr, a = host13q5
        p = derive_params(0, 2)
        with pytest.raises(TmhError, match="below the advisory 10"):
            reduce_solution_space(p, gr, a)
        assert reduce_solution_space(p, gr, a, force=True) == frozenset()

    def test_force_cannot_conjure_blocks_from_nothing(self, injected):
        gr, fam = injected
        p = derive_params(1, 2, ZERO)
        with pytest.raises(TmhError, match="even when forced"):
            reduce_solution_space(p, gr, fam.outer, force=True)

    def test_sweep_cap_refusal(self, host21):
        gr, a = host21
        p = derive_params(1, 1, ZERO)
        with pytest.raises(TmhError, match="infeasible at desk scale"):
            reduce_solution_space(p, gr, a, sweep_cap=5)


class TestMinorVerification:
    def test_accepts_an_honest_model(self):
        host = Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0), (1, 4)])
        pattern = Graph(range(2), [(0, 1)])
        verify_minor_model(host, pattern, {0: {0, 3}, 1: {1, 4}})

    def test_rejects_each_defect(self):
        host = Graph.from_edges([(0, 1), (1, 2), (3, 4)])
        edge = Graph(range(2), [(0, 1)])
        with pytest.raises(TmhError, match="empty branch set"):
            verify_minor_model(host, edge, {0: set(), 1: {1}})
        with pytest.raises(TmhError, match="leaves the host"):
            verify_minor_model(host, edge, {0: {9}, 1: {1}})
        with pytest.raises(TmhError, match="overlaps"):
            verify_minor_model(host, edge, {0: {1}, 1: {1, 2}})
        with pytest.raises(TmhError, match="disconnected"):
            verify_minor_model(host, edge, {0: {0, 3}, 1: {1}})
        with pytest.raises(TmhError, match="no host edge"):
            verify_minor_model(host, edge, {0: {0}, 1: {3, 4}})


class TestGridCertificates:
    def test_two_by_two(self, host13):
        _, a = host13
        sets = grid_minor_certificate(a, 5, 6, 2, 3)
        assert set(sets) == {(0, 0), (0, 1), (1, 0), (1, 1)}
        cells = list(sets.values())
        assert all(cells[i].isdisjoint(cells[j])
                   for i in range(4) for j in range(i + 1, 4))

    def test_three_by_three(self, host13q5):
        _, a = host13q5
        sets = grid_minor_certificate(a, 4, 6, 1, 3)
        assert len(sets) == 9
        assert len(set().union(*sets.values())) == sum(map(len, sets.values()))

    def test_frame_bounds(self, host13):
        _, a = host13
        with pytest.raises(TmhError, match="cycle frame"):
            grid_minor_certificate(a, 6, 5, 1, 2)
        with pytest.raises(TmhError, match="rail frame"):
            grid_minor_certificate(a, 5, 6, 3, 4)


def verify_area_safety(gr, region, family, k):
    """Cross-check of the carving contract behind the disk, by brute force:
    for every deletion set of size at most k that stays outside the
    embedded disk, any pattern surviving the deletion also survives it in
    the graph with the framed disk's vertices removed.  Raises on
    violation."""
    outside = sorted(set(gr.graph.vertices) - set(gr.compass.vertices))
    carved = gr.graph.delete_vertices(region.vertices("closed"))
    for size in range(min(k, len(outside)) + 1):
        for s in itertools.combinations(outside, size):
            left = gr.graph.delete_vertices(s)
            carved_left = carved.delete_vertices(s)
            for pattern in family.patterns:
                if find_tm_model(left, pattern) is None:
                    continue
                if find_tm_model(carved_left, pattern) is None:
                    raise TmhError(
                        "carving the disk loses a pattern that deletion "
                        "set %r kept" % (sorted(s),))


class TestIrrelevantArea:
    def test_unforced_discovery_at_full_depth(self, host91):
        gr, a = host91
        region = find_irrelevant_area(1, 0, 2, gr, a, budget=ZERO)
        closed = region.vertices("closed")
        assert closed
        # the run starts at the boundary, so the frame sits at cycles
        # 11..12 and never touches the run's last cycle
        assert not closed & set(a.cycles.cycles[12])
        verify_area_safety(gr, region, PatternFamily([K3]), 1)

    def test_refuses_below_stabilization_depth(self, host13):
        gr, a = host13
        with pytest.raises(TmhError, match="stabilization argument wants"):
            find_irrelevant_area(1, 0, 2, gr, a, budget=ZERO)

    def test_force_still_needs_one_full_run(self):
        gr, a = synthetic_disk_host(11, 3)
        with pytest.raises(TmhError, match="cannot hold one stabilized run"):
            find_irrelevant_area(2, 0, 2, gr, a, budget=ZERO, force=True)

    def test_frame_must_fit_between_rails(self, host13):
        gr, a = host13
        with pytest.raises(TmhError, match="disk frame wants rails"):
            find_irrelevant_area(1, 0, 3, gr, a, budget=ZERO, force=True)

    def test_frame_width_validation(self, host13):
        gr, a = host13
        with pytest.raises(TmhError, match="b >= 2"):
            find_irrelevant_area(1, 0, 1, gr, a, budget=ZERO)


class TestFindIrrelevantVertex:
    def test_injection_demands_force(self, injected):
        with pytest.raises(TmhError, match="needs force"):
            find_irrelevant_vertex(0, 2, injected[0].graph, budget=ZERO,
                                   annuli=injected,
                                   params=derive_params(0, 2, ZERO))

    def test_params_reuse_demands_force(self):
        g = Graph.from_edges([(0, 1), (1, 2)])
        with pytest.raises(TmhError, match="without force"):
            find_irrelevant_vertex(1, 2, g, params=derive_params(0, 1, ZERO))

    def test_mode_vocabulary(self):
        with pytest.raises(TmhError, match="mode"):
            find_irrelevant_vertex(0, 1, Graph(range(1), []), mode="turbo")

    def test_nonplanar_host_is_rejected(self):
        k5 = BUILTIN_PATTERNS["K5"]()
        with pytest.raises(TmhError):
            find_irrelevant_vertex(0, 1, k5, budget=ZERO)

    def test_infeasible_census_falls_back_to_decomposition(self):
        g = random_planar_graph(3, 18)
        tr = ReductionTrace()
        out = find_irrelevant_vertex(1, 5, g, trace=tr,
                                     family=PatternFamily([K4]))
        assert out is None
        step = tr.steps[0]
        assert step.kind == "wall" and step.status == "verified"
        assert step.payload["branch"] == "decomposition"
        assert "infeasible" in step.payload["reason"]
        assert "width" not in step.payload

    def test_missing_wall_exits_with_width_bound(self):
        g = random_planar_graph(4, 16)
        p = derive_params(0, 1, ZERO)
        tr = ReductionTrace()
        out = find_irrelevant_vertex(0, 1, g, budget=ZERO, trace=tr,
                                     family=PatternFamily([K3]), params=p)
        assert out is None
        payload = tr.steps[0].payload
        assert payload["branch"] == "decomposition"
        assert payload["width"] == greedy_treewidth(g).width
        assert payload["width_bound"] == DEFAULT_WIDTH_FACTOR * _odd(p.wall_q)

    def test_wall_branch_carves_the_annuli_and_reduces(self):
        # sizes preset small enough that find_wall meets a wall of the
        # needed height and the carving succeeds: the pass records the
        # wall and its annuli, then the inner annulus is too shallow
        p = SolverParams(0, 3, ZERO)
        p.x, p._y, p._z = 5, 3, 1
        p._wall_q = family_height_needed(5, 3, 1)
        assert p.wall_q == 19
        tr = ReductionTrace()
        with pytest.raises(TmhError) as caught:
            find_irrelevant_vertex(0, 3, build_elementary_wall(19).host_subgraph,
                                   force=True, mode="fast", trace=tr,
                                   family=PatternFamily([K3]), params=p)
        assert str(caught.value) == ("annulus depth 3 cannot hold one "
                                     "stabilized run of 23 cycles")
        assert tr.as_records() == [
            {"kind": "wall", "status": "verified",
             "payload": {"branch": "wall", "height": 19, "compass_width": 29}},
            {"kind": "annuli", "status": "verified",
             "payload": {"outer": [5, 5], "inner": 1}},
            {"kind": "reduce_space", "status": "unverified",
             "payload": {"size": 0, "vertices": []}}]

    def test_safe_mode_refuses_infeasible_oracle(self, injected):
        gr, fam = injected
        with pytest.raises(TmhError, match="safe mode refuses"):
            find_irrelevant_vertex(0, 2, gr.graph, force=True,
                                   params=derive_params(0, 2, ZERO),
                                   annuli=(gr, fam), b=2,
                                   family=PatternFamily([Graph(range(2),
                                                               [(0, 1)])]),
                                   oracle_cap=0)

    def test_safe_mode_requires_a_family(self, injected):
        gr, fam = injected
        with pytest.raises(TmhError, match="needs the pattern family"):
            find_irrelevant_vertex(0, 2, gr.graph, force=True,
                                   params=derive_params(0, 2, ZERO),
                                   annuli=(gr, fam))

    def _solve_with_refused_wall(self, monkeypatch, err):
        def refuse(*args, **kwargs):
            raise err

        monkeypatch.setattr(solver, "_find_wall", refuse)
        g = build_elementary_wall(5).host_subgraph
        return solve_tm_deletion(g, PatternFamily([Graph(range(2), [(0, 1)])]),
                                 0, budget=ZERO)

    def test_refused_wall_search_falls_back_to_decomposition(self,
                                                             monkeypatch):
        out = self._solve_with_refused_wall(monkeypatch,
                                            TmhError("no wall here"))
        assert out.answer is False
        step = out.trace.steps[0]
        assert step.kind == "wall" and step.status == "verified"
        assert step.payload["branch"] == "decomposition"
        assert step.payload["reason"] == "no wall here"

    def test_exhausted_wall_search_propagates(self, monkeypatch):
        err = BudgetExceeded("search budget of 1 nodes exhausted")
        with pytest.raises(BudgetExceeded) as caught:
            self._solve_with_refused_wall(monkeypatch, err)
        assert caught.value is err


class TestBoundedWidthEndgame:
    def test_no_budget_no_hope(self):
        out = bounded_tw_solve(K4, PatternFamily([K4]), 0)
        assert out.answer is False and out.witness is None

    def test_single_deletion_breaks_the_clique(self):
        fam = PatternFamily([K4])
        out = bounded_tw_solve(K4, fam, 1)
        assert out.answer is True
        assert len(out.witness) == 1
        assert is_F_free(K4.delete_vertices(out.witness), fam)
        again = bounded_tw_solve(K4, fam, 1)
        assert again.witness == out.witness

    def test_foreign_decomposition_is_rejected(self):
        # a decomposition of K4 with one vertex taken out of one bag
        td = greedy_treewidth(K4)
        node = min(td.bags)
        bags = dict(td.bags)
        bags[node] = bags[node] - {min(bags[node])}
        bad = TreeDecomposition(td.tree, bags, width=td.width)
        assert not isinstance(validate_decomposition(K4, bad), int)

    def test_matches_oracle_on_seeded_hosts(self):
        fam = PatternFamily([K3, C4])
        for seed in range(4):
            g = random_planar_graph(seed, 12)
            for k in (0, 1, 2):
                out = bounded_tw_solve(g, fam, k)
                assert out.answer == (pF_oracle(g, fam, k) is not None)
                if out.answer:
                    assert is_F_free(g.delete_vertices(out.witness), fam)

    @pytest.mark.parametrize("seed", [12, 19])
    @pytest.mark.parametrize("k", [1, 2])
    def test_matches_oracle_where_model_branching_ran_dry(self, seed, k):
        # these hosts exhausted the default budget when the endgame
        # branched on whole models found by the generic search
        fam = PatternFamily([K23, C4])
        g = random_planar_graph(seed, 17)
        out = bounded_tw_solve(g, fam, k)
        assert out.answer == (pF_oracle(g, fam, k) is not None)
        if out.answer:
            assert len(out.witness) <= k
            assert is_F_free(g.delete_vertices(out.witness), fam)

    @pytest.mark.parametrize("patterns", [[K5], [K33], [K5, K33]],
                             ids=["K5", "K33", "K5+K33"])
    def test_matches_oracle_on_the_generic_route(self, patterns):
        fam = PatternFamily(patterns)
        assert fam.tags == (None,) * len(patterns)
        answers = set()
        for seed in range(4):
            g = _dense_graph(seed, 8, 0.7)
            for k in (0, 1, 2):
                out = bounded_tw_solve(g, fam, k)
                assert out.answer == (pF_oracle(g, fam, k) is not None), \
                    "seed=%d k=%d" % (seed, k)
                answers.add(out.answer)
                if out.answer:
                    assert len(out.witness) <= k
                    assert is_F_free(g.delete_vertices(out.witness), fam)
        assert answers == {True, False}

    def test_exhausted_budget_is_never_a_no(self):
        # deleting one vertex of K6 leaves K5, so the honest answer is no;
        # a starved search must refuse rather than report that answer
        k6 = Graph(range(6), [(u, v) for u in range(6)
                              for v in range(u + 1, 6)])
        fam = PatternFamily([K5])
        assert bounded_tw_solve(k6, fam, 1).answer is False
        with pytest.raises(BudgetExceeded):
            bounded_tw_solve(k6, fam, 1, budget=SearchBudget(5))


def _reference_minimal_obstruction(cur, f, budget):
    # the full sorted-order scan over every vertex of cur
    core = cur
    for v in cur.vertices:
        smaller = core.delete_vertices([v])
        if not is_F_free(smaller, f, budget=budget):
            core = smaller
    return core.vertices


OBSTRUCTION_CASES = pytest.mark.parametrize("patterns,from_core", [
    ([K3], True), ([C4], True), ([K4], True), ([K23], True),
    ([K3, K4, K23, C4], True), ([K5], True),
    # a pendant pattern vertex: these families keep the full scan
    ([Graph(range(2), [(0, 1)])], False),
    ([K3, Graph(range(3), [(0, 1), (1, 2)])], False),
], ids=["K3", "C4", "K4", "K23", "all4", "K5", "edge", "K3+P3"])


def _adjacency_state(adj):
    return ({v: set(adj.neighbors(v)) for v in adj.vertices}, adj.m, adj.depth)


class TestMinimalObstruction:
    """The scan from the 2-core returns what the full scan returns, and the
    in-place scan and search leave their adjacency as they found it."""

    @OBSTRUCTION_CASES
    def test_matches_the_full_scan_on_the_atlas(self, patterns, from_core):
        fam = PatternFamily(patterns)
        assert solver._min_degree_two(fam) is from_core
        hits = 0
        for ng in graph_atlas_g():
            g = Graph(ng.nodes(), ng.edges())
            if is_F_free(g, fam):
                continue
            hits += 1
            got = solver._minimal_obstruction(MutableAdjacency(g), fam,
                                              SearchBudget(10 ** 6))
            want = _reference_minimal_obstruction(g, fam, SearchBudget(10 ** 6))
            assert got == want, "atlas graph %r" % (sorted(g.edges),)
        assert hits > 0

    @OBSTRUCTION_CASES
    def test_in_place_scan_restores_its_adjacency(self, patterns, from_core):
        # the scan runs below a deletion already standing, as it does
        # inside the search, and must undo exactly its own deletions
        fam = PatternFamily(patterns)
        hits = 0
        for ng in graph_atlas_g():
            g = Graph(ng.nodes(), ng.edges())
            if g.n == 0:
                continue
            smaller = g.delete_vertices([g.vertices[-1]])
            if is_F_free(smaller, fam):
                continue
            hits += 1
            adj = MutableAdjacency(g)
            adj.delete(g.vertices[-1])
            before = _adjacency_state(adj)
            got = solver._minimal_obstruction(adj, fam, SearchBudget(10 ** 6))
            assert _adjacency_state(adj) == before
            assert adjacency_graph(adj) == smaller
            want = _reference_minimal_obstruction(smaller, fam,
                                                  SearchBudget(10 ** 6))
            assert got == want, "atlas graph %r" % (sorted(g.edges),)
        assert hits > 0

    @OBSTRUCTION_CASES
    def test_search_restores_its_adjacency(self, patterns, from_core,
                                           monkeypatch):
        built = []

        class Recording(MutableAdjacency):
            def __init__(self, g):
                super().__init__(g)
                built.append((self, _adjacency_state(self)))

        monkeypatch.setattr(solver, "MutableAdjacency", Recording)
        fam = PatternFamily(patterns)
        # every fifth atlas graph, so the generic K5 search stays short
        for ng in graph_atlas_g()[::5]:
            g = Graph(ng.nodes(), ng.edges())
            for k in (0, 1, 2):
                bounded_tw_solve(g, fam, k)
        assert built
        for adj, state in built:
            assert _adjacency_state(adj) == state


def test_larger_hosts_are_frozen():
    # random_planar_graph(s, n, tries=n // 6) for s = 0..3, n in {48, 64, 96}
    # and the families {K3}, {C4}, {K2,3}: fast mode finds the frozen
    # witness at kmin, a deletion set of at most kmin vertices that leaves
    # the host pattern-free, and answers no at kmin - 1
    frozen = json.loads(
        Path(__file__).with_name("larger_hosts.json").read_text())
    assert len(frozen) == 36
    for row in frozen:
        g = random_planar_graph(row["seed"], row["n"], tries=row["n"] // 6)
        fam = PatternFamily([BUILTIN_PATTERNS[row["family"]]()])
        yes = solve_tm_deletion(g, fam, row["kmin"], mode="fast")
        assert (yes.answer, list(yes.witness)) == (True, row["witness"]), row
        assert len(yes.witness) <= row["kmin"], row
        assert is_F_free(g.delete_vertices(yes.witness), fam), row
        no = solve_tm_deletion(g, fam, row["kmin"] - 1, mode="fast")
        assert (no.answer, no.witness) == (False, None), row


PLANAR_ATLAS = [ng for ng in graph_atlas_g() if check_planarity(ng)[0]]


@pytest.mark.parametrize("patterns", [[K3], [C4], [K4], [K23],
                                      [K3, K4, K23, C4]],
                         ids=["K3", "C4", "K4", "K23", "all4"])
def test_safe_solve_matches_the_generic_oracle_on_the_atlas(patterns):
    # the oracle and the witness check search every pattern with
    # find_tm_model, so they share none of the fast containment tests the
    # solver runs; pF_oracle(g, fam, 2) returns the least deletion count,
    # which settles k = 0, 1 and 2 at once
    fam = PatternFamily(patterns)
    solved = 0
    for ng in PLANAR_ATLAS:
        g = Graph(ng.nodes(), ng.edges())
        best = pF_oracle(g, fam, 2, use_fast_paths=False)
        for k in (0, 1, 2):
            out = solve_tm_deletion(g, fam, k, mode="safe")
            solved += 1
            assert out.answer == (best is not None and best[0] <= k), \
                "atlas graph %r, k=%d" % (sorted(g.edges), k)
            if out.answer:
                assert len(out.witness) <= k
                assert is_F_free(g.delete_vertices(out.witness), fam,
                                 use_fast_paths=False)
    assert solved == 3 * len(PLANAR_ATLAS)


@pytest.mark.parametrize("extra", [K5, K33], ids=["K5", "K33"])
def test_non_planar_patterns_add_nothing_on_the_atlas(extra):
    # a planar host holds no subdivision of K5 or K3,3 (Kuratowski)
    alone, mixed = PatternFamily([K3]), PatternFamily([K3, extra])
    assert mixed.planar.patterns == (K3,) and mixed.h == extra.n
    for ng in PLANAR_ATLAS:
        g = Graph(ng.nodes(), ng.edges())
        for k in (0, 1, 2):
            want = solve_tm_deletion(g, alone, k)
            got = solve_tm_deletion(g, mixed, k)
            assert (got.answer, got.witness) == (want.answer, want.witness), \
                "atlas graph %r, k=%d" % (sorted(g.edges), k)


class TestSolve:
    def test_pattern_free_host_answers_immediately(self):
        g = Graph(range(6), [(0, 1), (2, 3)])
        out = solve_tm_deletion(g, PatternFamily([K3]), 0)
        assert out.answer is True and out.witness == ()
        assert len(out.trace) == 0

    def test_a_safe_solve_builds_no_edge_set(self, monkeypatch):
        # the solve, its re-proofs and every graph it derives read rows
        # only: neither an edge set nor a hash, which reads one, is asked for
        read = []
        edges = Graph.edges
        monkeypatch.setattr(Graph, "edges",
                            property(lambda g: read.append(g) or edges.fget(g)))
        answers = []
        for seed, n, tries, patterns, k in [
                (0, 16, 200, [K3], 2), (1, 20, 200, [C4], 1), (0, 12, 200, [K23], 1),
                (1, 20, 2, [C4], 2), (0, 16, 2, [K3, K4, K23, C4], 2)]:
            g = random_planar_graph(seed, n, tries=tries)
            answers.append(solve_tm_deletion(g, PatternFamily(patterns), k,
                                             mode="safe").answer)
        assert True in answers and False in answers
        assert read == []

    @pytest.mark.parametrize("patterns", [[K33], [K5], [K5, K33]],
                             ids=["K33", "K5", "K5+K33"])
    def test_non_planar_family_needs_no_search(self, patterns, monkeypatch):
        # the generic search would spend the whole budget looking for a
        # model that a planar host cannot hold
        monkeypatch.setenv("TMH_BUDGET_NODES", "100000")
        fam = PatternFamily(patterns)
        out = solve_tm_deletion(random_planar_graph(0, 12), fam, 0)
        assert out.answer is True and out.witness == ()
        assert len(out.trace) == 0
        assert fam.planar is None

    def test_validation(self):
        g = Graph(range(2), [(0, 1)])
        with pytest.raises(TmhError):
            solve_tm_deletion(g, PatternFamily([K3]), -1)
        with pytest.raises(TmhError):
            solve_tm_deletion(g, PatternFamily([K3]), 0, mode="turbo")

    def test_matches_oracle_on_seeded_instances(self):
        fam = PatternFamily([K3, K4, K23, C4])
        for seed in range(6):
            g = random_planar_graph(seed, 12 + seed)
            for k in (0, 1, 2):
                out = solve_tm_deletion(g, fam, k)
                assert out.answer == (pF_oracle(g, fam, k) is not None), \
                    "seed=%d k=%d" % (seed, k)
                if out.answer:
                    assert out.witness is not None
                    assert len(out.witness) <= k
                    assert is_F_free(g.delete_vertices(out.witness), fam)

    @pytest.mark.parametrize("seed,n,fam,t,h", [
        (0, 12, PatternFamily([K3]), 9, 12),
        (3, 15, PatternFamily([C4]), 15, 19),
    ], ids=["seed0-K3", "seed3-C4"])
    @pytest.mark.parametrize("k", [0, 1])
    def test_decomposition_exit_trace_is_stable(self, seed, n, fam, t, h, k):
        # tmh verify replays stored traces, so the fallback's record, which
        # names no width, and the records around it must not move
        g = random_planar_graph(seed, n)
        out = solve_tm_deletion(g, fam, k)
        assert (out.answer, out.witness) == (False, None)
        reason = ("boundaried-graph census for t=%d h=%d exceeds 2000000 "
                  "graphs; parameters infeasible at desk scale" % (t, h))
        assert out.trace.as_records() == [
            {"kind": "wall", "status": "verified",
             "payload": {"branch": "decomposition", "reason": reason}}]

    def test_fallback_builds_no_decomposition(self, monkeypatch):
        # check 1's 204 instances all take the fallback, whose endgame
        # needs no decomposition: neither width routine nor the validator
        # may run on the solve path
        def refusing(name):
            def refuse(*args, **kwargs):
                raise AssertionError("%s on the solve path" % name)
            return refuse

        for name in ("greedy_treewidth", "exact_treewidth",
                     "validate_decomposition"):
            for module in (decomposition, solver):
                monkeypatch.setattr(module, name, refusing(name),
                                    raising=False)
        families = [PatternFamily(f) for f in (
            [K3], [K4], [K23], [C4], [K3, K4], [K23, C4], [K3, K4, K23, C4])]
        large = [PatternFamily(f) for f in ([K3], [K3, K4, K23, C4], [K3, K4])]
        instances = [(random_planar_graph(s, 12 + s % 7), families[s % 7])
                     for s in range(56)]
        instances += [(random_planar_graph(s, 19 + s % 4), large[i % 3])
                      for i, s in enumerate(range(100, 112))]
        exits = 0
        for g, fam in instances:
            for k in (0, 1, 2):
                steps = solve_tm_deletion(g, fam, k).trace.steps
                assert all(step.kind == "wall" and "reason" in step.payload
                           for step in steps)
                exits += len(steps)
        assert exits > 0

    @pytest.mark.parametrize("patterns", [[K5], [K3]], ids=["K5", "K3"])
    def test_non_planar_input_is_refused_at_entry(self, patterns):
        # K3,3 is free of K5, but planarity is tested before the
        # pattern-free shortcut, so both families refuse alike
        with pytest.raises(EmbeddingError, match="not planar"):
            solve_tm_deletion(K33, PatternFamily(patterns), 1)

    def test_planarity_is_tested_once_per_solve(self, monkeypatch, injected):
        calls = []

        def counting(g):
            calls.append(g.n)
            return True

        monkeypatch.setattr(solver, "is_planar", counting)
        gr, fam = injected
        out = solve_tm_deletion(gr.graph, TestForcedPipeline.FAM, 0,
                                budget=ZERO, force=True, annuli=(gr, fam),
                                params=derive_params(0, 2, ZERO))
        # two passes: one deletes a vertex, the next exits to the endgame
        assert [s.kind for s in out.trace.steps] == [
            "annuli", "reduce_space", "irrelevant_area", "delete_vertex",
            "wall"]
        assert calls == [gr.graph.n]

    def test_large_sparse_instance_in_fast_mode(self):
        # series-parallel hosts never contain the 4-clique, so the
        # pattern-free shortcut answers without touching the pipeline
        g = series_parallel_graph(7, 500)
        out = solve_tm_deletion(g, PatternFamily([K4]), 1, mode="fast")
        assert out.answer is True and out.witness == ()


class TestForcedPipeline:
    """End-to-end run on injected geometry: the single-edge pattern keeps
    every folio cheap while the host is dense enough that the answer is a
    certified no."""

    FAM = PatternFamily([Graph(range(2), [(0, 1)])])

    def _run(self, injected, mode):
        gr, fam = injected
        return solve_tm_deletion(gr.graph, self.FAM, 0, budget=ZERO,
                                 mode=mode, force=True, annuli=(gr, fam),
                                 params=derive_params(0, 2, ZERO))

    def test_safe_run_shape(self, injected):
        out = self._run(injected, "safe")
        assert out.answer is False and out.witness is None
        kinds = [s.kind for s in out.trace.steps]
        assert kinds == ["annuli", "reduce_space", "irrelevant_area",
                         "delete_vertex", "wall"]
        by_kind = dict(zip(kinds, out.trace.steps))
        assert by_kind["annuli"].status == "unverified"
        assert by_kind["annuli"].payload["injected"] is True
        assert by_kind["reduce_space"].status == "verified"
        assert by_kind["reduce_space"].payload["size"] == 0
        assert by_kind["irrelevant_area"].status == "verified"
        assert by_kind["irrelevant_area"].payload["vertex"] == 128
        assert by_kind["delete_vertex"].payload["remaining"] == 149
        assert by_kind["wall"].payload["branch"] == "decomposition"

    def test_replay_is_deterministic(self, injected):
        first = self._run(injected, "safe")
        second = self._run(injected, "safe")
        assert first.answer == second.answer
        assert first.trace == second.trace

    def test_fast_run_marks_unverified(self, injected):
        out = self._run(injected, "fast")
        assert out.answer is False
        statuses = {s.kind: s.status for s in out.trace.steps}
        assert statuses["reduce_space"] == "unverified"
        assert statuses["irrelevant_area"] == "unverified"
        assert statuses["delete_vertex"] == "unverified"
        assert statuses["wall"] == "verified"
        # both modes walk the same geometry
        vertex = [s for s in out.trace.steps
                  if s.kind == "irrelevant_area"][0].payload["vertex"]
        assert vertex == 128


# sha256 over the sorted edge lists of the generator's outputs for the
# benchmark and acceptance host seeds, computed with a generator that
# tested every chord: skipping the test for a refused chord must not
# change a single host
GENERATOR_SHAPES = (
    [(s, 12 + s % 7, 200) for s in list(range(7)) + list(range(900, 907))]
    + [(s, 19 + s % 4, 200) for s in (100, 101, 102, 1000, 1001, 1002)]
    + [(s, n, n // 8) for s in (0, 1, 900, 901) for n in (16, 20, 24)])
GENERATOR_DIGEST = ("720cb770e033f3023b06fce595ba60f6"
                    "918923b27c13731441ea7e7b0dce97f9")


def test_random_planar_graph_output_is_frozen():
    h = hashlib.sha256()
    for seed, n, tries in GENERATOR_SHAPES:
        g = random_planar_graph(seed, n, tries=tries)
        h.update(repr(sorted(g.edges)).encode())
    assert h.hexdigest() == GENERATOR_DIGEST


# every (seed, n, tries) with seed 0-7, n in 12, 16, 20, 24, 40, 64, 128
# and tries n // 8, n // 6 or 200, hashed over one list of sorted edge lists
GENERATOR_GRID_DIGEST = ("8152bb7124f83a31b6993fed970eada8"
                         "dc0f4fe594c4746f33d342cf6d7a9508")


def test_random_planar_graph_grid_is_frozen():
    hosts = [sorted(random_planar_graph(s, n, t).edges) for s in range(8)
             for n in (12, 16, 20, 24, 40, 64, 128)
             for t in (n // 8, n // 6, 200)]
    digest = hashlib.sha256(repr(hosts).encode()).hexdigest()
    assert digest == GENERATOR_GRID_DIGEST


@pytest.mark.parametrize("n", [0, -3])
def test_random_planar_graph_refuses_an_empty_host(n):
    with pytest.raises(TmhError, match=r"needs n >= 1, got %d$" % n):
        random_planar_graph(0, n)


def test_random_planar_graph_on_one_and_two_vertices():
    assert random_planar_graph(0, 1) == Graph([0], [])
    assert random_planar_graph(0, 2) == Graph.from_edges([(0, 1)])


def test_outcome_repr_is_compact():
    out = SolveOutcome(True, (3, 1), ReductionTrace())
    assert out.witness == (3, 1)
    assert "answer=True" in repr(out)


# networkx is loaded only where planar_rotation reads a rotation; a wall
# reads its rotation off its coordinates, and is recognised by placing it
# at them; each program runs in a fresh interpreter and must leave it
# unimported
NO_NETWORKX_RUNS = {
    "cli_import": "import tmh.cli",
    "find_wall": """
from tmh.decomposition import WallWithCompass, build_elementary_wall, find_wall
assert isinstance(find_wall(build_elementary_wall(21).host_subgraph, 5), WallWithCompass)
""",
    "safe_solve": """
from tmh.graphs import _series_parallel_core
from tmh.solver import solve_tm_deletion
from tmh.synth import random_planar_graph
from tmh.tm import BUILTIN_PATTERNS, PatternFamily
g = random_planar_graph(5, 17)
# the planarity test runs in full
assert _series_parallel_core({v: g.neighbors(v) for v in g.vertices})
fam = PatternFamily([BUILTIN_PATTERNS["K23"](), BUILTIN_PATTERNS["C4"]()])
assert solve_tm_deletion(g, fam, 1, mode="safe").answer is False
""",
    "forced_pipeline": """
from tmh.annulus import (
    AnnulusFamily,
    family_height_needed,
    sub_annulus,
    synthetic_disk_host,
)
from tmh.graphs import Graph
from tmh.linkage import TamingBudget
from tmh.solver import derive_params, solve_tm_deletion
from tmh.tm import PatternFamily
gr, full = synthetic_disk_host(25, 3)
fam = AnnulusFamily(sub_annulus(full, 1, 3), [sub_annulus(full, 7, 25)])
zero = TamingBudget(f1=lambda k: 0)
out = solve_tm_deletion(gr.graph, PatternFamily([Graph(range(2), [(0, 1)])]),
                        0, budget=zero, mode="safe", force=True,
                        annuli=(gr, fam), params=derive_params(0, 2, zero))
assert [s.kind for s in out.trace.steps][-1] == "wall"
""",
    "walls": """
from tmh.annulus import annulus_from_wall, find_collection_of_annuli
from tmh.decomposition import build_elementary_wall, extract_subwall_at, wall_layers
from tmh.graphs import PartiallyDiskEmbedded
w = build_elementary_wall(15)
assert len(wall_layers(w)) == 7
sub = extract_subwall_at(w.host_subgraph, w.coordinates, 7, 3, 3)
assert len(wall_layers(sub)) == 3
assert annulus_from_wall(sub, 3).r == 3
g = PartiallyDiskEmbedded(w.host_subgraph, w.embedding, w.perimeter)
assert len(find_collection_of_annuli(3, 3, 1, g, w)) == 2
""",
}


@pytest.mark.parametrize("name", sorted(NO_NETWORKX_RUNS))
def test_networkx_is_not_imported(name):
    src = os.path.dirname(os.path.dirname(os.path.abspath(solver.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = NO_NETWORKX_RUNS[name] + "\nimport sys\nprint('networkx' in sys.modules)\n"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=300,
                         env=dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=path))
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["False"]
