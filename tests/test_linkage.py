"""Linkages and rerouting: patterns, vitality, cost-improvement and minimal
linkages, terrain classification with tightness, stream orderings, grid and
rail rerouting, composite boundary cycles, and the two taming entry points."""

import hashlib
import itertools
import json
import math
import random
from collections import deque
from pathlib import Path
from types import SimpleNamespace

import pytest

import tmh.linkage
from tmh.annulus import _path_edges, rail_geometry, synthetic_annulus
from tmh.decomposition import exact_treewidth, grid_bramble, validate_bramble
from tmh.graphs import (DiskRegion, Graph, NestedCycles, PlaneEmbedding, TmhError,
                        _normalize_edge)
from tmh.linkage import (
    LBPair,
    Linkage,
    TameFailed,
    TamingBudget,
    Terrain,
    TerrainFeature,
    _require_in_graph,
    ca_cycles,
    check_tight,
    classify_terrain,
    d_ordering,
    equivalent,
    grid_reroute,
    improve_linkage,
    minimal_linkage,
    rail_linkage,
    tame_linkage,
    tame_tm_model,
)
from tmh.tm import DEFAULT_BUDGET_NODES, SearchBudget, TmPair, default_budget, dissolve


def ring_graph(vertices):
    vs = list(vertices)
    return Graph(vs, list(zip(vs, vs[1:])) + [(vs[-1], vs[0])])


def vid(i, k, m):
    return i * m + k % m


def no_feature_on_boundary(terrain, r):
    # dipping inward from the innermost cycle or bulging outward from the
    # outermost is geometrically impossible; the classifier must agree
    assert all(f.base != r for f in terrain.mountains)
    assert all(f.base != 1 for f in terrain.valleys)


def zero_budget():
    return TamingBudget(f1=lambda k: 0)


@pytest.fixture(scope="module")
def seven_rails_13():
    full = synthetic_annulus(13, 7)
    return full, full.window(2, 12)


@pytest.fixture(scope="module")
def seven_rails_17():
    full = synthetic_annulus(17, 7)
    return full, full.window(2, 16)


@pytest.fixture(scope="module")
def five_rails_17():
    full = synthetic_annulus(17, 5)
    return full, full.window(2, 16)


@pytest.fixture(scope="module")
def six_rails_7():
    # girth 24 spreads the six rails four ring positions apart
    full = synthetic_annulus(7, 6, girth=24)
    return full, full.window(2, 6)


M6 = 24  # girth of the six-rail host
M7 = 14  # girth of the seven-rail hosts
M5 = 10  # girth of the five-rail host


def wedge_caps():
    """Two shallow paths on the six-rail host hugging the first band cycle,
    one on each side, leaving only the ring positions 0 and 12 open."""
    cap_a = (vid(0, 4, M6),) + tuple(vid(1, k, M6) for k in range(4, 9)) \
        + (vid(0, 8, M6),)
    cap_b = (vid(0, 16, M6),) + tuple(vid(1, k, M6) for k in range(16, 21)) \
        + (vid(0, 20, M6),)
    return cap_a, cap_b


def dip_path(depth):
    """A path on the six-rail host entering at position 0, crossing to the
    given ring and back out at position 12 along the short side."""
    down = tuple(vid(i, 0, M6) for i in range(depth + 1))
    across = tuple(vid(depth, k, M6) for k in range(1, 12))
    up = tuple(vid(i, 12, M6) for i in range(depth, -1, -1))
    return down + across + up


def _edge_flood(emb, outside, seeds, cut):
    """graphs._flood with its cut given as a set of (low, high) edges, as
    it was before it took dart ids: add to outside every face the seeds
    reach in the dual graph without crossing an edge of cut, and return
    the faces added."""
    added = [f for f in dict.fromkeys(seeds) if f not in outside]
    outside.update(added)
    queue = deque(added)
    while queue:
        for u, v, g in emb._steps(queue.popleft()):
            if _normalize_edge(u, v) not in cut and g not in outside:
                outside.add(g)
                added.append(g)
                queue.append(g)
    return added


def _reference_classify_terrain(g, cycles, d, l):
    """The exhaustive terrain scan: every subpath of every path is built
    and tested as a stream and, at every base cycle, as a mountain and a
    valley.  classify_terrain must return the same terrain in the same
    order."""
    _require_in_graph(g, l)
    emb = cycles.embedding
    r = cycles.r
    regions = cycles.regions
    band = cycles.annulus(1, r)
    cyc_sets = [set(c) for c in cycles.cycles]
    cyc_edge_sets = [set(_path_edges(list(c) + [c[0]])) for c in cycles.cycles]
    all_faces = set(range(len(emb.faces)))
    inner_seed = regions[r - 1].interior_faces
    outer_seed = all_faces - regions[0].interior_faces
    d_faces = d.interior_faces if d is not None else frozenset()
    d_closed = d.vertices("closed") if d is not None else frozenset()

    def contact_runs(p, cyc_set, cyc_edges):
        runs = 0
        for i, v in enumerate(p):
            if v in cyc_set and not (i and _normalize_edge(p[i - 1], v) in cyc_edges):
                runs += 1
        return runs

    streams, mountains, valleys = [], [], []
    for pi in l.paths:
        n = len(pi)
        runs = []
        idx = 0
        while idx < n:
            if pi[idx] not in band.vertices:
                idx += 1
                continue
            j = idx
            while (j + 1 < n and pi[j + 1] in band.vertices
                   and _normalize_edge(pi[j], pi[j + 1]) in band.edges):
                j += 1
            runs.append((idx, j))
            idx = j + 1
        for lo, hi in runs:
            for a in range(lo, hi + 1):
                for b in range(a + 1, hi + 1):
                    p = pi[a:b + 1]
                    s1 = [v for v in p if v in cyc_sets[0]]
                    sr = [v for v in p if v in cyc_sets[r - 1]]
                    if len(s1) != 1 or len(sr) != 1:
                        continue
                    if {s1[0], sr[0]} != {p[0], p[-1]}:
                        continue
                    oriented = p if p[0] in cyc_sets[0] else tuple(reversed(p))
                    streams.append(tuple(oriented))

        for a in range(n):
            for b in range(a + 1, n):
                p = pi[a:b + 1]
                pv = set(p)
                pe = set(_path_edges(p))
                for base_i in range(1, r + 1):
                    reg = regions[base_i - 1]
                    cset = cyc_sets[base_i - 1]
                    if p[0] not in cset or p[-1] not in cset:
                        continue
                    for kind in ("mountain", "valley"):
                        if kind == "mountain":
                            if not (pv <= reg.vertices("closed")
                                    and pe <= reg.edges("closed")):
                                continue
                            if (pv & regions[r - 1].vertices("open")
                                    or pe & regions[r - 1].edges("open")):
                                continue
                        else:
                            if pv & reg.vertices("open") or pe & reg.edges("open"):
                                continue
                            if not (pv <= regions[0].vertices("closed")
                                    and pe <= regions[0].edges("closed")):
                                continue
                        if contact_runs(p, cset, cyc_edge_sets[base_i - 1]) != 2:
                            continue
                        if kind == "mountain":
                            allowed = reg.interior_faces
                            seeds = inner_seed
                        else:
                            allowed = all_faces - reg.interior_faces
                            seeds = outer_seed
                        reach = set(_edge_flood(emb, all_faces - allowed, seeds, pe))
                        pocket_faces = allowed - reach
                        if not pocket_faces:
                            continue
                        pocket = DiskRegion(emb, pocket_faces, ())
                        pocket_v = pocket.vertices("closed")
                        if pocket_v & l.terminals:
                            continue
                        if d is not None and (pocket_faces & d_faces
                                              or pocket_v & d_closed):
                            continue
                        if kind == "mountain":
                            deep = max(j for j in range(base_i, r + 1)
                                       if pv & cyc_sets[j - 1])
                            dehe = deep - base_i + 1
                        else:
                            shallow = min(j for j in range(1, base_i + 1)
                                          if pv & cyc_sets[j - 1])
                            dehe = base_i - shallow + 1
                        feature = TerrainFeature(kind, p, base_i, dehe, pocket)
                        (mountains if kind == "mountain" else valleys).append(feature)

    feature_vsets = [set(f.path) for f in mountains + valleys]
    rivers = [s for s in streams if not any(set(s) <= fv for fv in feature_vsets)]
    terrain = Terrain(streams, rivers, mountains, valleys)
    for f in mountains + valleys:
        f.tight = True if f.dehe <= 2 else check_tight(f, terrain)
    return terrain


def _terrain_key(t):
    def features(fs):
        return [(f.kind, f.path, f.base, f.dehe, f.tight, f.disk.interior_faces)
                for f in fs]
    return t.streams, t.rivers, features(t.mountains), features(t.valleys)


def _matrix_rows():
    """(R, q, girth, noise) of each annulus of the acceptance gate's
    taming matrix, in order."""
    rows = [(13, q, 4 * q + pad, noise)
            for q in range(5, 12) for pad in (0, 6) for noise in (0, 2, 3)]
    return rows + [(11, q, 4 * q, noise) for q in range(5, 9) for noise in (0, 2)]


def _matrix_case(idx):
    """Annulus idx of the taming matrix with the linkage and the model the
    acceptance gate plants on it: (host, band, chosen rail, linkage,
    model)."""
    R, q, m, noise = _matrix_rows()[idx]
    full = synthetic_annulus(R, q, girth=m, seed=7 * q + noise, noise=noise)
    band = full.window(2, R - 1)
    p = [k * m // q for k in range(q)]
    ring = (R + 1) // 2
    kind = idx % 4
    if kind == 0:
        paths = [full.rails[1]]
    elif kind == 1:
        # down one rail, around the middle ring, down the neighbour rail
        r1, r2 = full.rails[0], full.rails[1]
        c = list(full.cycles.cycles[ring - 1])
        a_end, b_start = full.crossings[(ring, 1)][-1], full.crossings[(ring, 2)][0]
        ia, ib = c.index(a_end), c.index(b_start)
        seg = tuple(c[(ia + t) % len(c)] for t in range(1, (ib - ia) % len(c)))
        paths = [r1[:r1.index(a_end) + 1] + seg + r2[r2.index(b_start):]]
    elif kind == 2:
        # a dip to the middle ring and back up the next rail position
        paths = [tuple(vid(i, p[0], m) for i in range(ring + 1))
                 + tuple(vid(ring, k, m) for k in range(p[0] + 1, p[1]))
                 + tuple(vid(i, p[1], m) for i in range(ring, -1, -1))]
    else:
        # an outer arc, a full rail and an inner arc
        paths = [tuple(vid(0, k, m) for k in range(p[1] + 1, p[2])), full.rails[0],
                 tuple(vid(R - 1, k, m) for k in range(p[3] + 1, p[4]))]
    spine = [vid(i, p[0], m) for i in range(R)]
    tail = [vid(R - 1, p[0] + t, m) for t in range(4)]
    kind = idx % 5
    if kind == 0:
        legs, marks = [spine], {spine[0], spine[-1]}
    elif kind == 1:
        legs, marks = [spine, tail], {spine[0], tail[0], tail[-1]}
    elif kind == 2:
        left = [vid(0, p[1] - t, m) for t in range(3)]
        right = [vid(0, p[1] + t, m) for t in range(3)]
        down = [vid(i, p[1], m) for i in range(R)]
        legs, marks = [left, right, down], {left[0], left[-1], right[-1], down[-1]}
    elif kind == 3:
        legs, marks = [spine, tail], {spine[0]} | set(tail)
    else:
        outer = [vid(0, k, m) for k in range(m)]
        legs, marks = [outer + outer[:1]], {vid(0, k, m) for k in (0, 3, 7, 10)}
    model = Graph({v for leg in legs for v in leg},
                  [e for leg in legs for e in zip(leg, leg[1:])])
    return (full.embedding.graph, band, (q + 1) // 2 + 1, Linkage(paths),
            TmPair(model, frozenset(marks)))


class TestLinkageType:
    def test_trivial_path_rejected(self):
        with pytest.raises(TmhError):
            Linkage([(1,)])

    def test_revisit_rejected(self):
        with pytest.raises(TmhError):
            Linkage([(1, 2, 1)])

    def test_shared_vertex_rejected(self):
        with pytest.raises(TmhError):
            Linkage([(1, 2), (2, 3)])

    def test_same_linkage_equivalent(self):
        l = Linkage([(1, 2, 3), (4, 5)])
        assert l.pattern == {frozenset({1, 3}), frozenset({4, 5})}
        assert equivalent(l, l)

    def test_two_arcs_of_a_cycle_equivalent(self):
        assert equivalent(Linkage([(1, 2, 3, 4)]), Linkage([(1, 6, 5, 4)]))

    def test_swapped_pairings_not_equivalent(self):
        ab_cd = Linkage([(1, 2), (3, 4)])
        ac_bd = Linkage([(1, 5, 3), (2, 6, 4)])
        assert not equivalent(ab_cd, ac_bd)

    def test_canonical_equality_ignores_orientation_and_order(self):
        assert Linkage([(1, 2, 3), (4, 5)]) == Linkage([(5, 4), (3, 2, 1)])


class TestBudget:
    def test_f2_follows_f1(self):
        b = TamingBudget()
        assert b.f1(3) == 8
        assert b.f2(3) == 3 * 64 + 6 * 8 + 2

    def test_odd_values_rejected(self):
        with pytest.raises(TmhError):
            TamingBudget(f1=lambda k: 3).f1(2)

    def test_table_form(self):
        b = TamingBudget(f1={1: 4, 2: 0})
        assert b.f1(2) == 0
        with pytest.raises(TmhError):
            b.f1(3)


def is_vital(g, l, node_budget=None):
    """Cross-check: whether l spans g and is the unique linkage of g with
    its pattern, by an exhaustive search over the equivalent linkages of g,
    so only for small hosts."""
    _require_in_graph(g, l)
    node_budget = node_budget if node_budget is not None else default_budget()
    if l.vertices != frozenset(g.vertices):
        return False
    pairs = [tuple(sorted(pair)) for pair in l.pattern]
    found = _reference_search_linkages(
        g, pairs, node_budget, exclude_key=l.canonical_key(),
        stop_on_first=True)
    return found is None


class TestVitality:
    def test_spanning_path_of_a_path_is_vital(self):
        g = Graph([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4)])
        assert is_vital(g, Linkage([(1, 2, 3, 4)]))

    def test_short_arc_of_a_cycle_is_not(self):
        g = ring_graph([1, 2, 3, 4, 5])
        assert not is_vital(g, Linkage([(1, 2, 3)]))

    def test_chord_offers_a_second_route(self):
        g = Graph([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3)])
        assert not is_vital(g, Linkage([(2, 1, 3, 4)]))


class TestImprove:
    def test_shortcut_through_the_base(self):
        lb = LBPair(Linkage([(1, 2, 3)]), Graph([1, 3], [(1, 3)]))
        assert lb.cae == 2
        better = improve_linkage(lb)
        assert better == Linkage([(1, 3)])
        assert LBPair(better, lb.base).cae == 0

    def test_base_equal_to_linkage_already_costless(self):
        l = Linkage([(1, 2, 3)])
        lb = LBPair(l, l.union_graph())
        assert lb.cae == 0
        assert improve_linkage(lb) is None

    def test_detour_off_a_ring_flattens_onto_it(self, six_rails_7):
        full, _ = six_rails_7
        g = full.embedding.graph
        base = ring_graph([vid(2, k, M6) for k in range(M6)])
        lb = LBPair(Linkage([dip_path(3)]), base)
        assert lb.cae == 18
        better = improve_linkage(lb)
        assert better == Linkage([dip_path(2)])
        assert LBPair(better, base).cae == 4
        assert better.vertices <= set(g.vertices)


class TestMinimal:
    def test_already_minimal_returned_unchanged(self, six_rails_7):
        full, band = six_rails_7
        g = full.embedding.graph
        cap_a, cap_b = wedge_caps()
        l = Linkage([cap_a, cap_b, dip_path(2)])
        out = minimal_linkage(g, band.cycles, None, l)
        assert out == l

    def test_blocked_flattening_stops_one_ring_down(self, six_rails_7):
        # the caps occupy both first-cycle arcs, so the deep crossing can
        # only rise to the second cycle, not all the way
        full, band = six_rails_7
        g = full.embedding.graph
        cap_a, cap_b = wedge_caps()
        l = Linkage([cap_a, cap_b, dip_path(3)])
        out = minimal_linkage(g, band.cycles, None, l)
        assert out == Linkage([cap_a, cap_b, dip_path(2)])
        spokes = [e for e in out.edges if e[1] - e[0] == M6]
        assert len(spokes) == 8

    def test_result_terrain_all_tight(self, six_rails_7):
        full, band = six_rails_7
        g = full.embedding.graph
        cap_a, cap_b = wedge_caps()
        out = minimal_linkage(g, band.cycles, None,
                              Linkage([cap_a, cap_b, dip_path(3)]))
        t = classify_terrain(g, band.cycles, None, out)
        assert len(t.mountains) == 1
        m = t.mountains[0]
        assert (m.base, m.dehe, m.tight) == (1, 2, True)
        assert t.valleys == [] and t.rivers == []
        no_feature_on_boundary(t, band.r)

    def test_terminal_inside_band_rejected(self, six_rails_7):
        full, band = six_rails_7
        g = full.embedding.graph
        inner = tuple(vid(2, k, M6) for k in range(3))
        with pytest.raises(TmhError):
            minimal_linkage(g, band.cycles, None, Linkage([inner]))

    def test_region_violation_rejected(self, six_rails_7):
        full, band = six_rails_7
        g = full.embedding.graph
        d = rail_geometry(band).delta_disk(2, 4, 1, 2)
        with pytest.raises(TmhError):
            minimal_linkage(g, band.cycles, d, Linkage([dip_path(2)]))


class TestTerrain:
    def test_straight_crossings_are_rivers(self, seven_rails_13):
        full, band = seven_rails_13
        g = full.embedding.graph
        l = Linkage(full.rails)
        t = classify_terrain(g, band.cycles, None, l)
        expected = {tuple(r) for r in band.rails}
        assert set(t.streams) == expected
        assert set(t.rivers) == expected
        assert t.mountains == [] and t.valleys == []
        no_feature_on_boundary(t, band.r)

    def test_planted_three_cycle_dip(self, five_rails_17):
        # enter at rail 1, dip to the third band cycle, leave at rail 4
        full, band = five_rails_17
        g = full.embedding.graph
        down = tuple(vid(i, 0, M5) for i in range(4))
        across = tuple(vid(3, k, M5) for k in range(1, 6))
        up = tuple(vid(i, 6, M5) for i in range(3, -1, -1))
        t = classify_terrain(g, band.cycles, None, Linkage([down + across + up]))
        based_outermost = [m for m in t.mountains if m.base == 1]
        assert len(based_outermost) == 1
        assert based_outermost[0].dehe == 3
        assert not based_outermost[0].tight
        assert t.streams == [] and t.rivers == [] and t.valleys == []
        no_feature_on_boundary(t, band.r)

    def test_full_height_crossing_and_back(self, five_rails_17):
        # both crossing subpaths sit inside one mountain of full height, so
        # neither is a river
        full, band = five_rails_17
        g = full.embedding.graph
        down = tuple(vid(i, 0, M5) for i in range(16))
        across = tuple(vid(15, k, M5) for k in range(1, 4))
        up = tuple(vid(i, 4, M5) for i in range(15, -1, -1))
        t = classify_terrain(g, band.cycles, None, Linkage([down + across + up]))
        assert len(t.streams) == 2
        assert t.rivers == []
        assert any(m.base == 1 and m.dehe == band.r for m in t.mountains)
        no_feature_on_boundary(t, band.r)

    def test_weave_census(self, seven_rails_17):
        full, band = seven_rails_17
        g = full.embedding.graph
        t = classify_terrain(g, band.cycles, None, Linkage([weave_path()]))
        assert len(t.streams) == 1 and len(t.rivers) == 1
        assert sorted((f.base, f.dehe, f.tight) for f in t.mountains) == \
            [(6, 3, False), (6, 3, False), (6, 3, False), (7, 2, True)]
        assert sorted((f.base, f.dehe, f.tight) for f in t.valleys) == \
            [(7, 2, True), (8, 3, False), (8, 3, False), (8, 3, False)]
        no_feature_on_boundary(t, band.r)


def weave_path():
    """A single crossing of the seven-rail host that leaves rail 1 at the
    eighth ring, climbs two rings along rail 2, and descends rail 3."""
    down = tuple(vid(i, 0, M7) for i in range(9))
    shift_in = (vid(8, 1, M7), vid(8, 2, M7))
    climb = (vid(7, 2, M7), vid(6, 2, M7))
    shift_on = (vid(6, 3, M7), vid(6, 4, M7))
    descend = tuple(vid(i, 4, M7) for i in range(7, 17))
    return down + shift_in + climb + shift_on + descend


def staircase_path():
    """A dip of the five-rail host between rails 1 and 4 carrying a second,
    shallower dip between rails 3 and 2 inside its pocket."""
    down = tuple(vid(i, 0, M5) for i in range(8))
    across = tuple(vid(7, k, M5) for k in range(1, 7))
    rise = (vid(6, 6, M5), vid(5, 6, M5))
    walk_back = (vid(5, 5, M5), vid(5, 4, M5))
    inner = (vid(6, 4, M5), vid(6, 3, M5), vid(6, 2, M5))
    out = tuple(vid(i, 2, M5) for i in range(5, -1, -1))
    return down + across + rise + walk_back + inner + out


class TestTightness:
    def test_nested_same_base_dips_make_the_outer_tight(self, five_rails_17):
        full, band = five_rails_17
        g = full.embedding.graph
        t = classify_terrain(g, band.cycles, None, Linkage([staircase_path()]))
        threes = [m for m in t.mountains if m.base == 5 and m.dehe == 3]
        assert threes and all(m.tight for m in threes)

    def test_height_two_vacuously_tight(self, five_rails_17):
        full, band = five_rails_17
        g = full.embedding.graph
        t = classify_terrain(g, band.cycles, None, Linkage([staircase_path()]))
        twos = [m for m in t.mountains if m.dehe == 2]
        assert twos and all(m.tight for m in twos)

    def test_lone_dip_of_height_three_is_not_tight(self, five_rails_17):
        full, band = five_rails_17
        g = full.embedding.graph
        down = tuple(vid(i, 0, M5) for i in range(8))
        across = tuple(vid(7, k, M5) for k in range(1, 6))
        up = tuple(vid(i, 6, M5) for i in range(7, -1, -1))
        t = classify_terrain(g, band.cycles, None, Linkage([down + across + up]))
        assert any(m.base == 5 and m.dehe == 3 for m in t.mountains)
        assert all(not m.tight for m in t.mountains if m.dehe >= 3)

    def test_meaningless_below_height_two(self, five_rails_17):
        full, band = five_rails_17
        g = full.embedding.graph
        t = classify_terrain(g, band.cycles, None, Linkage([staircase_path()]))
        entry = t.mountains[0]
        shallow = type(entry)(entry.kind, entry.path, entry.base, 1, entry.disk)
        with pytest.raises(TmhError):
            check_tight(shallow, t)


class TestOrdering:
    def test_singleton(self, seven_rails_13):
        _, band = seven_rails_13
        d = rail_geometry(band).delta_disk(3, 9, 6, 7)
        out = d_ordering(band.cycles, [band.rails[2]], d)
        assert out == [tuple(band.rails[2])]

    def test_five_streams_start_after_the_gap(self, seven_rails_13):
        _, band = seven_rails_13
        d = rail_geometry(band).delta_disk(3, 9, 6, 7)
        shuffled = [band.rails[j] for j in (2, 0, 4, 1, 3)]
        out = d_ordering(band.cycles, shuffled, d)
        assert out == [tuple(band.rails[j]) for j in range(5)]

    def test_rotating_streams_and_region_rotates_the_answer(self, seven_rails_13):
        full, band = seven_rails_13
        emb = full.embedding
        trio = [band.rails[j] for j in (0, 2, 4)]
        d = rail_geometry(band).delta_disk(3, 9, 6, 7)
        base_order = d_ordering(band.cycles, [trio[1], trio[0], trio[2]], d)
        assert base_order == [tuple(t) for t in trio]
        shifted = [band.rails[j] for j in (1, 3, 5)]
        corner = {vid(i, k, M7) for i in (5, 6) for k in (12, 13, 0)}
        face = next(i for i, f in enumerate(emb.faces)
                    if set(f) == corner)
        d2 = DiskRegion(emb, frozenset([face]), ())
        out = d_ordering(band.cycles, [shifted[2], shifted[0], shifted[1]], d2)
        assert out == [tuple(t) for t in shifted]

    def test_region_on_a_stream_rejected(self, seven_rails_13):
        _, band = seven_rails_13
        d = rail_geometry(band).delta_disk(3, 9, 5, 6)
        with pytest.raises(TmhError):
            d_ordering(band.cycles, [band.rails[4]], d)

    def test_non_crossing_stream_rejected(self, seven_rails_13):
        _, band = seven_rails_13
        d = rail_geometry(band).delta_disk(3, 9, 6, 7)
        arc = [vid(3, k, M7) for k in range(3)]
        with pytest.raises(TmhError):
            d_ordering(band.cycles, [arc], d)


class TestGridReroute:
    def test_single_pair_monotone(self):
        (path,) = grid_reroute((5, 3), [2], [5])
        assert path[0] == (1, 2) and path[-1] == (3, 5)
        rows = [rc[0] for rc in path]
        assert rows == sorted(rows)
        assert all(1 <= r <= 3 and 1 <= c <= 5 for r, c in path)

    def test_aligned_full_width_goes_straight_down(self):
        paths = grid_reroute((4, 4), [1, 2, 3, 4], [1, 2, 3, 4])
        for h, path in enumerate(paths, start=1):
            assert all(c == h for _, c in path)

    def test_offset_triple_in_a_six_by_four_grid(self):
        paths = grid_reroute((6, 4), [1, 3, 5], [2, 4, 6])
        assert len(paths) == 3
        seen = set()
        for h, path in enumerate(paths):
            assert path[0] == (1, [1, 3, 5][h])
            assert path[-1] == (4, [2, 4, 6][h])
            cells = set(path)
            assert len(cells) == len(path)
            assert not cells & seen
            seen |= cells
            assert all(1 <= r <= 4 and 1 <= c <= 6 for r, c in path)

    def test_empty_request(self):
        assert grid_reroute((4, 3), [], []) == []

    def test_order_violation_rejected(self):
        with pytest.raises(TmhError):
            grid_reroute((6, 4), [3, 1], [2, 4])
        with pytest.raises(TmhError):
            grid_reroute((6, 4), [1, 7], [2, 4])


class TestRailLinkage:
    def test_zero_paths(self, seven_rails_13):
        _, band = seven_rails_13
        k = rail_linkage(band, 1, 2, 0, ())
        assert len(k) == 0

    def test_single_path_covers_its_terminal_runs(self, seven_rails_13):
        _, band = seven_rails_13
        k = rail_linkage(band, 1, 2, 1, (4,))
        (path,) = k.paths
        top = band.crossings[(1, 3)]
        bottom = band.crossings[(band.r, 3)]
        assert path[0] == top[0] and path[-1] == bottom[-1]
        assert set(top) <= set(path) and set(bottom) <= set(path)
        assert band.confines(k.union_graph(), 1, (4,))

    def test_two_paths_confined(self):
        a = synthetic_annulus(9, 7)
        k = rail_linkage(a, 1, 2, 2, (4, 6))
        assert len(k) == 2
        assert a.confines(k.union_graph(), 1, (4, 6))

    def test_arithmetic_preconditions(self):
        a = synthetic_annulus(9, 7)
        with pytest.raises(TmhError):
            rail_linkage(a, 7, 2, 1, (4,))  # band too thin for s + 2b
        with pytest.raises(TmhError):
            rail_linkage(a, 2, 2, 1, (4,))  # even s
        with pytest.raises(TmhError):
            rail_linkage(a, 1, 2, 2, (4,))  # fewer rails than paths
        with pytest.raises(TmhError):
            rail_linkage(a, 1, 2, 3, (3, 4, 5))  # more paths than the offset


class TestCompositeCycles:
    def test_family_shape(self):
        a = synthetic_annulus(9, 7)
        fam = ca_cycles(a)
        assert fam.r == 3
        assert [len(c) for c in fam.cycles] == [40, 28, 16]

    def test_outermost_runs_along_the_frame(self):
        a = synthetic_annulus(9, 7)
        fam = ca_cycles(a)
        frame = set(a.cycles.cycles[0]) | set(a.cycles.cycles[8]) \
            | set(a.rails[0]) | set(a.rails[6])
        assert set(fam.cycles[0]) <= frame

    def test_small_dimensions_rejected(self):
        with pytest.raises(TmhError):
            ca_cycles(synthetic_annulus(3, 7))
        with pytest.raises(TmhError):
            ca_cycles(synthetic_annulus(9, 4))


class TestTameLinkage:
    def test_already_confined_fast_path(self, seven_rails_13):
        full, band = seven_rails_13
        g = full.embedding.graph
        l = Linkage([full.rails[0]])
        out = tame_linkage(g, band, l, 1, (1,), budget=zero_budget())
        assert out is l
        assert equivalent(out, l)
        assert band.confines(out.union_graph(), 1, (1,))

    def test_reroute_single_crossing_into_the_chosen_rail(self, seven_rails_13):
        full, band = seven_rails_13
        g = full.embedding.graph
        l = Linkage([full.rails[1]])
        out = tame_linkage(g, band, l, 1, (4,), budget=zero_budget())
        assert equivalent(out, l)
        assert band.confines(out.union_graph(), 1, (4,))
        band_vertices = band.cycles.annulus(1, band.r).vertices
        assert (out.vertices - band_vertices) <= (l.vertices - band_vertices)

    def test_hypothesis_gate_and_override(self, seven_rails_13):
        full, band = seven_rails_13
        g = full.embedding.graph
        l = Linkage([full.rails[1]])
        with pytest.raises(TmhError) as ei:
            tame_linkage(g, band, l, 1, (4,))
        assert not isinstance(ei.value, TameFailed)
        out = tame_linkage(g, band, l, 1, (4,), force=True)
        assert equivalent(out, l)
        assert band.confines(out.union_graph(), 1, (4,))

    def test_weave_rerouted_and_postconditions(self, seven_rails_17):
        full, band = seven_rails_17
        g = full.embedding.graph
        l = Linkage([weave_path()])
        out = tame_linkage(g, band, l, 1, (5,), budget=zero_budget())
        assert equivalent(out, l)
        assert band.confines(out.union_graph(), 1, (5,))
        band_vertices = band.cycles.annulus(1, band.r).vertices
        assert (out.vertices - band_vertices) <= (l.vertices - band_vertices)
        for p in out.paths:
            for u, v in zip(p, p[1:]):
                assert v in g.neighbors(u)

    def test_more_crossings_than_rails_fails_honestly(self, seven_rails_13):
        full, band = seven_rails_13
        g = full.embedding.graph
        l = Linkage([full.rails[1], full.rails[4]])
        with pytest.raises(TameFailed) as ei:
            tame_linkage(g, band, l, 1, (4,), budget=zero_budget())
        assert ei.value.stage == "sizing"


class TestTameModel:
    def test_model_off_the_annulus_untouched(self, seven_rails_13):
        full, band = seven_rails_13
        g = full.embedding.graph
        outer = [vid(0, k, M7) for k in range(M7)]
        model = ring_graph(outer)
        marks = frozenset(vid(0, k, M7) for k in (0, 3, 7, 10))
        m = TmPair(model, marks)
        out = tame_tm_model(g, band, m, 1, (4,), budget=zero_budget())
        assert out.model == m.model and out.branches == m.branches

    def test_crossing_arc_rerouted_same_dissolution(self, seven_rails_13):
        full, band = seven_rails_13
        g = full.embedding.graph
        spine = [vid(i, 0, M7) for i in range(13)]
        tail = [vid(12, k, M7) for k in range(5)]
        model = Graph(set(spine) | set(tail),
                      list(zip(spine, spine[1:])) + list(zip(tail, tail[1:])))
        marks = frozenset({vid(0, 0, M7), vid(12, 0, M7), vid(12, 4, M7)})
        m = TmPair(model, marks)
        out = tame_tm_model(g, band, m, 1, (4,), budget=zero_budget())
        assert out.branches == m.branches
        assert dissolve(out) == dissolve(m)
        assert band.confines(out.model, 1, (4,))
        band_vertices = band.cycles.annulus(1, band.r).vertices
        assert (set(out.model.vertices) - band_vertices) \
            <= (set(m.model.vertices) - band_vertices)

    def test_branch_vertex_inside_rejected(self, seven_rails_13):
        full, band = seven_rails_13
        g = full.embedding.graph
        spine = [vid(i, 0, M7) for i in range(13)]
        model = Graph(spine, list(zip(spine, spine[1:])))
        m = TmPair(model, frozenset({vid(0, 0, M7), vid(6, 0, M7),
                                     vid(12, 0, M7)}))
        with pytest.raises(TmhError):
            tame_tm_model(g, band, m, 1, (4,), budget=zero_budget())


def seeded_lb_pair(seed):
    rng = random.Random(seed)
    n = rng.randint(6, 9)
    verts = list(range(n))
    spine = verts[:]
    rng.shuffle(spine)
    edges = {tuple(sorted(e)) for e in zip(spine, spine[1:])}
    for _ in range(n):
        u, v = rng.sample(verts, 2)
        edges.add((min(u, v), max(u, v)))
    g = Graph(verts, edges)
    deg = {v: 0 for v in verts}
    base_edges = []
    for e in sorted(edges, key=lambda _: rng.random()):
        if deg[e[0]] < 2 and deg[e[1]] < 2:
            base_edges.append(e)
            deg[e[0]] += 1
            deg[e[1]] += 1
    return g, LBPair(Linkage([spine]), Graph(verts, base_edges))


class TestInvariants:
    def test_improvement_descends_and_terminates(self):
        for seed in range(12):
            _, lb = seeded_lb_pair(seed)
            costs = [lb.cae]
            cur = lb
            for _ in range(lb.cae + 1):
                nxt = improve_linkage(cur)
                if nxt is None:
                    break
                cur = LBPair(nxt, cur.base)
                costs.append(cur.cae)
            else:
                pytest.fail("improvement failed to terminate")
            assert costs == sorted(costs, reverse=True)
            assert len(set(costs)) == len(costs)

    def test_width_of_settled_unions_within_the_configured_bound(self):
        # improvement returned nothing, so the configured bound must hold
        # on the final union; this is the testable contrapositive
        budget = TamingBudget()
        for seed in range(12):
            _, lb = seeded_lb_pair(seed)
            cur = lb
            while True:
                nxt = improve_linkage(cur)
                if nxt is None:
                    break
                cur = LBPair(nxt, cur.base)
            u = cur.linkage.union_graph().union(cur.base)
            width, _ = exact_treewidth(u)
            assert width <= budget.f1(len(cur.linkage))

    def test_ordered_streams_feed_a_valid_bramble(self):
        full = synthetic_annulus(9, 7)
        band = full.window(2, 6)
        g = full.embedding.graph
        d = rail_geometry(band).delta_disk(2, 4, 6, 7)
        shuffled = [band.rails[j] for j in (2, 0, 4, 1, 3)]
        ordered = d_ordering(band.cycles, shuffled, d)
        arcs = [[vid(i, k, M7) for k in range(9)] for i in range(1, 6)]
        boundary = set(arcs[0]) | set(ordered[0]) | set(arcs[4]) | set(ordered[4])
        bramble = grid_bramble(g, arcs, ordered, boundary)
        assert validate_bramble(g, bramble) is None
        scrambled = [ordered[1], ordered[0]] + ordered[2:]
        with pytest.raises(TmhError):
            grid_bramble(g, arcs, scrambled, boundary)


class TestTamingIdentity:
    def test_terrain_matches_the_reference_on_weave_and_staircase(
            self, seven_rails_17, five_rails_17):
        for (full, band), path in ((seven_rails_17, weave_path()),
                                   (five_rails_17, staircase_path())):
            args = (full.embedding.graph, band.cycles, None, Linkage([path]))
            assert _terrain_key(classify_terrain(*args)) == \
                _terrain_key(_reference_classify_terrain(*args))

    def test_terrain_matches_the_reference_on_settled_linkages(self, monkeypatch):
        # every terrain tame_linkage classifies on the taming matrix: the
        # settled linkages, against the cycles of the band and the sector
        seen = []

        def recording(*args):
            seen.append(args)
            return classify_terrain(*args)

        monkeypatch.setattr(tmh.linkage, "classify_terrain", recording)
        for idx in range(len(_matrix_rows())):
            g, band, mid, l, _ = _matrix_case(idx)
            tame_linkage(g, band, l, 1, (mid,), budget=zero_budget())
        monkeypatch.undo()
        assert len(seen) == 50
        assert sum(len(a[3].paths) for a in seen) > 50
        for args in seen:
            assert _terrain_key(classify_terrain(*args)) == \
                _terrain_key(_reference_classify_terrain(*args))

    def test_whole_taming_round_is_frozen(self, monkeypatch):
        # all 92 tamed outputs of the seed-0 matrix (every linkage, and the
        # model of every annulus deeper than 11) under one digest, and the
        # search nodes the round spends; any difference here is a change of
        # taming's behaviour
        spent = SearchBudget(DEFAULT_BUDGET_NODES)
        monkeypatch.setattr(tmh.linkage, "default_budget", lambda: spent)
        outs = []
        for idx, (R, *_) in enumerate(_matrix_rows()):
            g, band, mid, l, m = _matrix_case(idx)
            out = tame_linkage(g, band, l, 1, (mid,), budget=zero_budget())
            outs.append([list(p) for p in out.paths])
            if R > 11:
                out = tame_tm_model(g, band, m, 1, (mid,), budget=zero_budget())
                outs.append([sorted(out.branches),
                             [list(e) for e in sorted(out.model.edges)]])
            # taming reads the host and the band by their rows only
            assert (g._edges, band.embedding.graph._edges) == (None, None)
        assert len(outs) == 92
        assert spent.used == 2494
        assert hashlib.sha256(json.dumps(outs).encode()).hexdigest() == \
            "b01a65a88c3d7753d4ff6171c9515f2ed3ac81b1ad95c5633cbb0a68db434ea4"

    def test_tamed_outputs_are_frozen(self):
        # three linkages and three models over q in {5, 8, 11} and noise 0
        # and 2; any difference here is a change of taming's behaviour
        frozen = json.loads(Path(__file__).with_name("tamed_outputs.json").read_text())
        assert len(frozen["tame_linkage"]) == len(frozen["tame_tm_model"]) == 3
        for idx, paths in frozen["tame_linkage"].items():
            g, band, mid, l, _ = _matrix_case(int(idx))
            out = tame_linkage(g, band, l, 1, (mid,), budget=zero_budget())
            assert [list(p) for p in out.paths] == paths
        for idx, want in frozen["tame_tm_model"].items():
            g, band, mid, _, m = _matrix_case(int(idx))
            out = tame_tm_model(g, band, m, 1, (mid,), budget=zero_budget())
            assert sorted(out.branches) == want["branches"]
            assert [list(e) for e in sorted(out.model.edges)] == want["edges"]


def _reference_search_linkages(host, pairs, node_budget, better_than=None,
                               base_edges=None, exclude_key=None,
                               stop_on_first=False):
    """_search_linkages on a host graph, one vertex per step, with a fresh
    copy of the path and its vertex set at every step; base_edges cost 0
    and every other host edge 1."""
    pairs = sorted((min(u, v), max(u, v)) for u, v in pairs)
    if len(set(pairs)) != len(pairs):
        raise TmhError("pattern pairs must be distinct")
    terminals = set()
    for u, v in pairs:
        if u == v:
            raise TmhError("a pattern pair needs two distinct terminals")
        terminals.add(u)
        terminals.add(v)
    if base_edges is None:
        base_edges = host.edges
    best = [None]
    hit = [None]

    def place(idx, used, acc, cost):
        if idx == len(pairs):
            key = tmh.linkage._canonical_paths_key(acc)
            if exclude_key is not None and key == exclude_key:
                return False
            if best[0] is None or (cost, key) < (best[0][0], best[0][1]):
                best[0] = (cost, key, [tuple(p) for p in acc])
            if stop_on_first:
                hit[0] = (cost, [tuple(p) for p in acc])
                return True
            return False
        u, v = pairs[idx]
        blocked = terminals - {u, v}

        def extend(path, on_path, pcost):
            node_budget.spend()
            last = path[-1]
            if last == v:
                acc.append(tuple(path))
                stop = place(idx + 1, used | on_path, acc, cost + pcost)
                acc.pop()
                return stop
            for w in host.neighbors(last):
                if w in used or w in on_path or w in blocked:
                    continue
                step = 0 if _normalize_edge(last, w) in base_edges else 1
                ncost = pcost + step
                if better_than is not None and cost + ncost >= better_than:
                    continue
                if best[0] is not None and cost + ncost > best[0][0]:
                    continue
                if extend(path + [w], on_path | {w}, ncost):
                    return True
            return False

        if u not in host or v not in host:
            return False
        return extend([u], {u}, 0)

    if not pairs:
        return (0, [])
    place(0, frozenset(), [], 0)
    if stop_on_first:
        return hit[0]
    if best[0] is None:
        return None
    return (best[0][0], best[0][2])


def _record_calls(monkeypatch, name):
    """Record every call of tmh.linkage's function name: its positional
    arguments, its result and the search nodes it spent, with every
    search charged to one budget that default_budget hands out."""
    spent = SearchBudget(DEFAULT_BUDGET_NODES)
    monkeypatch.setattr(tmh.linkage, "default_budget", lambda: spent)
    real = getattr(tmh.linkage, name)
    calls = []

    def recording(*args, **kw):
        before = spent.used
        out = real(*args, **kw)
        calls.append((args, out, spent.used - before))
        return out

    monkeypatch.setattr(tmh.linkage, name, recording)
    return calls


def _pairs(l):
    return [tuple(sorted(pair)) for pair in l.pattern]


def _reference_result(host, pairs, base, better_than=None):
    return _reference_search_linkages(host, pairs, SearchBudget(DEFAULT_BUDGET_NODES),
                                      better_than=better_than, base_edges=base)


def _reference_paths(host, pairs, base, better_than=None):
    found = _reference_result(host, pairs, base, better_than)
    return None if found is None else found[1]


def _paths(l):
    return None if l is None else list(l.paths)


def _minimal_host(cycles, d, l):
    """The host minimal_linkage searches, unfolded: the cycles minus the
    closed region d, plus the linkage's edges, and the cycle edges left
    as the base."""
    banned = d.vertices("closed") if d is not None else frozenset()
    base = {e for c in cycles.cycles for e in _path_edges(c, closed=True)
            if banned.isdisjoint(e)}
    return Graph(set(l.vertices).union(*base), base | l.edges), base


def _unfolded_steps(host, base):
    """One row per host edge, cost 0 on the base, with empty runs."""
    return {x: [(w, 0 if _normalize_edge(x, w) in base else 1, ())
                for w in host.neighbors(x)] for x in host.vertices}


class _Family:
    """What minimal_linkage reads of a NestedCycles: the cycles and the
    band's membership test."""

    def __init__(self, cycles):
        self.cycles = cycles
        self.r = len(cycles)

    def annulus(self, x, y):
        on = {v for c in self.cycles[x - 1:y] for v in c}
        return SimpleNamespace(has_vertex=on.__contains__)


def _cycle_family_case(seed):
    """A random linkage over disjoint cycles and a forbidden region, as
    minimal_linkage takes them.  The linkage meets the first cycle once
    and the second twice, so two arcs join the same two vertices, and the
    later cycles at random, sometimes along a cycle edge; it also passes
    through vertices off the cycles.  The region bans at least one vertex
    off the linkage on each later cycle, cutting arcs."""
    rng = random.Random(seed)
    cycles = []
    ids = itertools.count()
    for _ in range(rng.randint(3, 5)):
        cycles.append(tuple(next(ids) for _ in range(rng.randint(3, 8))))
    blocks = []
    for i, c in enumerate(cycles):
        k = i + 1 if i < 2 else rng.randint(0, len(c) - 1)
        picked = sorted(rng.sample(range(len(c)), k))
        if rng.random() < 0.5:
            rng.shuffle(picked)
        blocks.append([c[t] for t in picked])
    rng.shuffle(blocks)
    seq = [v for b in blocks for v in b]
    cuts = sorted(rng.sample(range(1, len(seq)), rng.randint(0, 2)))
    paths = []
    for lo, hi in zip([0] + cuts, cuts + [len(seq)]):
        path = [next(ids)]
        for v in seq[lo:hi]:
            if rng.random() < 0.3:
                path.append(next(ids))
            path.append(v)
        path.append(next(ids))
        paths.append(path)
    l = Linkage(paths)
    banned = set()
    for c in cycles[2:]:
        spare = [v for v in c if v not in l.vertices]
        banned.add(rng.choice(spare))
        banned.update(v for v in spare if rng.random() < 0.2)
    edges = {e for c in cycles for e in _path_edges(c, closed=True)} | l.edges
    d = SimpleNamespace(vertices=lambda kind: frozenset(banned))
    return Graph(set().union(*edges), edges), _Family(cycles), d, l


def _chorded_rings(r, m, spokes, chords):
    """r rings of m vertices, ring i vertex k being i*m + k at radius
    r + 1 - i, drawn with straight edges: spokes join (i, k) to (i + 1, k)
    for each k in spokes and every i, and each chord (i, k) joins (i, k) to
    (i, k + 2) inside ring i, passing over (i, k + 1), which must have no
    spoke.  Returns the host and the rings as a NestedCycles."""
    def vid(i, k):
        return i * m + k % m

    def xy(v):
        i, k = divmod(v, m)
        return ((r + 1 - i) * math.cos(2 * math.pi * k / m),
                (r + 1 - i) * math.sin(2 * math.pi * k / m))

    edges = [(vid(i, k), vid(i, k + 1)) for i in range(r) for k in range(m)]
    edges += [(vid(i, k), vid(i + 1, k)) for i in range(r - 1) for k in spokes]
    edges += [(vid(i, k), vid(i, k + 2)) for i, k in chords]
    g = Graph(range(r * m), edges)

    def clockwise(v):
        x, y = xy(v)
        return tuple(sorted(g.neighbors(v), key=lambda u: -math.atan2(xy(u)[1] - y,
                                                                     xy(u)[0] - x)))

    rings = [[vid(i, k) for k in range(m)] for i in range(r)]
    outer = set(rings[0])
    emb = PlaneEmbedding(g, {v: clockwise(v) for v in g.vertices}, lambda faces: next(
        f for f, face in enumerate(faces) if set(face) == outer and len(face) == m))
    return g, NestedCycles(emb, rings)


def _self_avoiding_walk(g, rng, length, ring_of):
    """A random simple path from a random vertex, preferring steps along a
    ring three times to one, stopped at the given length or a dead end."""
    path = [rng.choice(g.vertices)]
    while len(path) < length:
        free = [w for w in g.neighbors(path[-1]) if w not in path]
        if not free:
            break
        weights = [3 if ring_of(w) == ring_of(path[-1]) else 1 for w in free]
        path.append(rng.choices(free, weights)[0])
    return tuple(path)


class TestTerrainScan:
    """classify_terrain's one-pass scan against the exhaustive reference on
    seeded paths of a host whose rings carry chords."""

    def test_seeded_paths_match_the_reference(self):
        r, m = 5, 16
        g, cycles = _chorded_rings(r, m, spokes=(0, 4, 8, 12), chords=((1, 1), (2, 9), (3, 14)))
        assert cycles.embedding._is_plane()
        ring_of = lambda v: v // m
        rng = random.Random(3)
        paths = [_self_avoiding_walk(g, rng, rng.randint(6, 30), ring_of)
                 for _ in range(120)]
        # around ring 1 through its index 0, then inward for good
        paths.append(tuple(range(m + 13, 2 * m)) + (m, m + 1, m + 2, m + 3, m + 4)
                     + (2 * m + 4, 3 * m + 4, 3 * m + 5))
        seen = {"wrap": 0, "jump": 0, "single": 0, "leaves": 0, "features": 0}
        for path in paths:
            if len(path) < 2:
                continue
            steps = list(zip(path, path[1:]))
            on = [ring_of(v) for v in path]
            seen["wrap"] += any(ring_of(u) == ring_of(v) and {u % m, v % m} == {0, m - 1}
                                for u, v in steps)
            seen["jump"] += any(ring_of(u) == ring_of(v) and (u - v) % m in (2, m - 2)
                                for u, v in steps)
            seen["single"] += any(on[t] not in (on[t - 1], on[t + 1])
                                  for t in range(1, len(path) - 1))
            seen["leaves"] += any(on[t] not in on[t + 1:] and len(path) - t > 3
                                  for t in range(len(path)))
            args = (g, cycles, None, Linkage([path]))
            got = classify_terrain(*args)
            assert _terrain_key(got) == _terrain_key(_reference_classify_terrain(*args)), path
            seen["features"] += bool(got.mountains or got.valleys)
        assert min(seen.values()) >= 3, seen


class TestFoldedSearch:
    """The rerouting search steps over runs of pass-through vertices; its
    results stay those of the copying search on the unfolded host."""

    def test_one_taming_round_searches_like_the_copying_reference(self, monkeypatch):
        # the 92 calls of the benchmark's taming part at seed 0: every
        # linkage, and the model of every annulus deeper than 11
        calls = _record_calls(monkeypatch, "minimal_linkage")
        tamed = []
        for idx, (R, *_) in enumerate(_matrix_rows()):
            g, band, mid, l, m = _matrix_case(idx)
            tamed.append(tame_linkage(g, band, l, 1, (mid,), budget=zero_budget()))
            if R > 11:
                tamed.append(tame_tm_model(g, band, m, 1, (mid,),
                                           budget=zero_budget()))
        monkeypatch.undo()
        assert len(tamed) == 92
        assert len(calls) == 168
        for (g, cycles, d, l), out, _ in calls:
            host, base = _minimal_host(cycles, d, l)
            assert _paths(out) == _reference_paths(host, _pairs(l), base)
        # the round's search nodes over the folded step tables
        assert sum(spent for *_, spent in calls) == 2494

    def test_vitality_and_improvement_match_the_reference(self, monkeypatch):
        calls = _record_calls(monkeypatch, "improve_linkage")
        verdicts = [
            is_vital(Graph([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4)]),
                     Linkage([(1, 2, 3, 4)])),
            is_vital(ring_graph([1, 2, 3, 4, 5]), Linkage([(1, 2, 3)])),
            is_vital(Graph([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3)]),
                     Linkage([(2, 1, 3, 4)])),
        ]
        improve = tmh.linkage.improve_linkage
        improve(LBPair(Linkage([(1, 2, 3)]), Graph([1, 3], [(1, 3)])))
        for seed in range(12):
            _, cur = seeded_lb_pair(seed)
            while (nxt := improve(cur)) is not None:
                cur = LBPair(nxt, cur.base)
        monkeypatch.undo()
        assert verdicts == [True, False, False]
        for (lb,), out, _ in calls:
            host = lb.linkage.union_graph().union(lb.base)
            assert _paths(out) == _reference_paths(
                host, _pairs(lb.linkage), lb.base.edges, better_than=lb.cae)
        assert len(calls) == 22
        # their search nodes over the folded step tables
        assert sum(spent for *_, spent in calls) == 102

    def test_folding_matches_the_reference_on_random_families(self):
        # every case has a cycle met once, two arcs between the same two
        # vertices, arcs cut by the region and linkage vertices off the
        # cycles; each is searched three ways against the unfolded host
        seen = set()
        for seed in range(80):
            g, family, d, l = _cycle_family_case(seed)
            host, base = _minimal_host(family, d, l)
            steps = _unfolded_steps(host, base)
            want = _reference_result(host, _pairs(l), base)
            assert list(minimal_linkage(g, family, d, l).paths) == want[1]
            assert tmh.linkage._search_linkages(
                steps, _pairs(l), SearchBudget(DEFAULT_BUDGET_NODES)) == want
            # the linkage itself ties the bound, so improvement must turn
            # ties away as the copying search does
            lb = LBPair(l, Graph(set().union(*base), base))
            got = improve_linkage(lb)
            assert _paths(got) == _reference_paths(host, _pairs(l), base,
                                                   better_than=lb.cae)
            seen.add(("improved", got is not None))
            # terminals on cycle vertices off the linkage, which would
            # otherwise fold into a run, under bounds that cut ties
            rng = random.Random(seed)
            on_runs = sorted(v for c in family.cycles for v in c
                             if v in host and v not in l.vertices)
            ends = rng.sample(on_runs, 1) + rng.sample(sorted(host.vertices), 3)
            ends = list(dict.fromkeys(ends))[:2 * rng.randint(1, 2)]
            pairs = list(zip(ends[::2], ends[1::2]))
            better_than = rng.choice([None, 0, 1, 2, 3])
            want = _reference_result(host, pairs, base, better_than)
            assert tmh.linkage._search_linkages(
                steps, pairs, SearchBudget(DEFAULT_BUDGET_NODES),
                better_than=better_than) == want
            seen.add(("routed", want is not None))
        assert len(seen) == 4
