"""Railed annuli: validation, wall extraction, capacity accounting, the
annulus-family extractor, confinement, entry vertices, and rail geometry."""

import gc
import hashlib
import itertools
import json
import random
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (assert_store_matches_dart_walks, check_euler, face_darts,
                     faces_of_edge, faces_of_vertex, reference_family)
import tmh.annulus
from tmh.annulus import (
    AnnulusFamily,
    RailedAnnulus,
    _crossing_path,
    _cycle_arc,
    _path_edges,
    annuli_capacity,
    annulus_from_wall,
    boundaried_at_cycle,
    family_height_needed,
    find_collection_of_annuli,
    rail_geometry,
    sub_annulus,
    synthetic_annulus,
    synthetic_annulus_parts,
    synthetic_disk_host,
    wall_height_needed,
)
from tmh.decomposition import (
    _embed_wall,
    build_elementary_wall,
    extract_subwall_at,
    find_wall,
    wall_layers,
)
from tmh.graphs import (
    DiskRegion,
    Graph,
    NestedCycles,
    PartiallyDiskEmbedded,
    PlaneEmbedding,
    TmhError,
)
from tmh.io import emit_embedding
from tmh.linkage import ca_cycles
from tmh.tm import TmPair


def rail_path_graph(rail):
    return Graph(rail, list(zip(rail, rail[1:])))


def wall_in_disk(h):
    w = build_elementary_wall(h)
    g = PartiallyDiskEmbedded(w.host_subgraph, w.embedding, w.perimeter)
    return g, w


def _reference_rail_geometry(a):
    """The eager rail geometry: every reference edge set, lateral path and
    radial path of the annulus, computed up front, with the refusals
    raised in loop order.  rail_geometry must agree on every path."""
    ref = {}
    ambiguous = []
    rail2 = set(a.rails[1])
    for i in range(1, a.r + 1):
        cyc = list(a.cycles.cycles[i - 1])
        pos = {v: k for k, v in enumerate(cyc)}
        n = len(cyc)

        def run_bounds(verts):
            ks = sorted(pos[v] for v in verts)
            if len(ks) == n:
                raise TmhError("a crossing swallows the whole cycle")
            if len(ks) == 1:
                return ks[0], ks[0]
            gaps = [(b - a_) % n for a_, b in zip(ks, ks[1:] + ks[:1])]
            widest = max(range(len(gaps)), key=lambda m: gaps[m])
            start = ks[(widest + 1) % len(ks)]
            return start, ks[widest]

        sq, eq = run_bounds(a.crossings[(i, a.q)])
        so, eo = run_bounds(a.crossings[(i, 1)])
        forward = _cycle_arc(cyc, eq, so, +1)
        backward = _cycle_arc(cyc, sq, eo, -1)
        choices = [arc for arc in (forward, backward)
                   if not (set(arc) & rail2)]
        if not choices:
            raise TmhError("no reference arc avoids the second rail on cycle %d" % i)
        if len(choices) == 2:
            ambiguous.append(i)
            choices.sort(key=len)
        ref[i] = frozenset(_path_edges(choices[0]))

    all_ref = frozenset(e for es in ref.values() for e in es)
    l_paths = {}
    for i in range(1, a.r + 1):
        cyc = list(a.cycles.cycles[i - 1])
        cyc_graph = Graph(cyc, [e for e in _path_edges(cyc + [cyc[0]])
                                if e not in all_ref])
        for j in range(1, a.q + 1):
            for jp in range(1, a.q + 1):
                if j == jp:
                    continue
                targets = set(a.crossings[(i, jp)])
                best = None
                for src in a.crossings[(i, j)]:
                    path = cyc_graph.shortest_path(src, targets)
                    if path is not None and (best is None or len(path) < len(best)):
                        best = path
                if best is None:
                    raise TmhError("no lateral path from rail %d to %d on cycle %d"
                                   % (j, jp, i))
                l_paths[(i, j, jp)] = tuple(best)

    r_paths = {}
    for j in range(1, a.q + 1):
        rail = list(a.rails[j - 1])
        pos = {v: k for k, v in enumerate(rail)}
        spans = {}
        for i in range(1, a.r + 1):
            ks = [pos[v] for v in a.crossings[(i, j)]]
            spans[i] = (min(ks), max(ks))
        for i in range(1, a.r + 1):
            for ip in range(1, a.r + 1):
                if i == ip:
                    continue
                lo, hi = (i, ip) if spans[i][0] < spans[ip][0] else (ip, i)
                seg = rail[spans[lo][1]:spans[hi][0] + 1]
                if lo != i:
                    seg = list(reversed(seg))
                r_paths[(i, ip, j)] = tuple(seg)

    return ref, l_paths, r_paths, ambiguous


def _taming_band(q, girth, noise):
    """A band of the acceptance gate's taming matrix: the depth-13 host
    with the given rail count, girth and noise, cut to cycles 2..12."""
    full = synthetic_annulus(13, q, girth=girth, seed=7 * q + noise, noise=noise)
    return full, full.window(2, 12)


def _scanned_membership(region):
    """Closed and open vertex and edge sets of a region, by a scan over
    every vertex and edge of its embedding."""
    emb = region.embedding
    inside = region.interior_faces
    boundary = set(region.boundary_cycle)
    closed_v, open_v = set(), set()
    for v in emb.graph.vertices:
        fs = faces_of_vertex(emb, v)
        if fs and fs <= inside:
            open_v.add(v)
            closed_v.add(v)
        elif fs & inside or v in boundary:
            closed_v.add(v)
    closed_e, open_e = set(), set()
    for e in emb.graph.edges:
        flags = [f in inside for f in faces_of_edge(emb, *e)]
        if all(flags):
            open_e.add(e)
            closed_e.add(e)
        elif any(flags):
            closed_e.add(e)
    return closed_v, open_v - boundary, closed_e, open_e


def _membership(region):
    return (region.vertices("closed"), region.vertices("open"),
            region.edges("closed"), region.edges("open"))


class TestCapacityFormula:
    def test_second_arm_vanishes_without_inner_annuli(self):
        for x in (3, 5, 7, 9):
            # z=0 collapses the max to its first arm
            expected = x + -(-(x - 2) // 4) + 1
            assert annuli_capacity(x, 3, 0) == expected
            assert annuli_capacity(x, 9, 0) == expected

    def test_smallest_mixed_instance(self):
        # y' = 3 + 1 = 4, rounded up to 5; 3 + max(1, 1*5) + 1
        assert annuli_capacity(3, 3, 1) == 9

    def test_spot_values_are_monotone(self):
        assert annuli_capacity(5, 3, 1) >= annuli_capacity(3, 3, 1)
        assert annuli_capacity(3, 5, 1) >= annuli_capacity(3, 3, 1)
        assert annuli_capacity(3, 3, 4) >= annuli_capacity(3, 3, 1)
        assert annuli_capacity(7, 5, 9) >= annuli_capacity(7, 5, 4)

    def test_parity_and_sign_violations(self):
        with pytest.raises(TmhError):
            annuli_capacity(4, 3, 0)
        with pytest.raises(TmhError):
            annuli_capacity(3, 6, 2)
        with pytest.raises(TmhError):
            annuli_capacity(1, 3, 0)
        with pytest.raises(TmhError):
            annuli_capacity(3, 3, -1)

    @settings(max_examples=40)
    @given(x=st.sampled_from([3, 5, 7, 9, 11]),
           y=st.sampled_from([3, 5, 7, 9]),
           z=st.integers(min_value=0, max_value=16))
    def test_bumping_any_argument_never_shrinks(self, x, y, z):
        base = annuli_capacity(x, y, z)
        assert annuli_capacity(x + 2, y, z) >= base
        assert annuli_capacity(x, y + 2, z) >= base
        assert annuli_capacity(x, y, z + 1) >= base


class TestWallHeights:
    def test_pinned_heights(self):
        # three cycles fit a 7-wall; beyond that rails run out first and
        # every extra double-row supplies eight more of them
        assert wall_height_needed(3) == 7
        assert wall_height_needed(5) == 13
        assert wall_height_needed(7) == 17
        assert wall_height_needed(9) == 21
        assert wall_height_needed(11) == 25
        assert wall_height_needed(13) == 31

    def test_rejects_bad_depth(self):
        with pytest.raises(TmhError):
            wall_height_needed(4)
        with pytest.raises(TmhError):
            wall_height_needed(1)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_height_is_exactly_minimal(self, p):
        h = wall_height_needed(p)
        a = annulus_from_wall(build_elementary_wall(h), p)
        assert (a.r, a.q) == (p, p)
        with pytest.raises(TmhError):
            annulus_from_wall(build_elementary_wall(h - 2), p)


class TestAnnulusFromWall:
    def test_smallest_wall_that_works(self):
        w = build_elementary_wall(7)
        a = annulus_from_wall(w, 3)
        assert (a.r, a.q) == (3, 3)
        assert set(a.cycles.cycles[0]) == set(w.perimeter)

    def test_five_wall_cannot_host_three_cycles(self):
        # a 5-wall peels into just two layers, so the stated height check
        # of roughly p + p/4 is an underestimate; the error names the
        # height that does work
        with pytest.raises(TmhError, match="height 7"):
            annulus_from_wall(build_elementary_wall(5), 3)

    def test_depth_exceeding_layer_count(self):
        with pytest.raises(TmhError):
            annulus_from_wall(build_elementary_wall(7), 5)

    def test_even_depth_rejected(self):
        with pytest.raises(TmhError):
            annulus_from_wall(build_elementary_wall(9), 4)

    def test_big_wall_cycles_are_the_outer_layers(self):
        w = build_elementary_wall(17)
        layers = wall_layers(w)
        assert len(layers) == 8
        a = annulus_from_wall(w, 5)
        assert (a.r, a.q) == (5, 5)
        for cyc, layer in zip(a.cycles.cycles, layers[:5]):
            assert set(cyc) == set(layer)

    def test_rails_are_clipped_wall_paths(self):
        w = build_elementary_wall(9)
        a = annulus_from_wall(w, 3)
        wall_paths = [list(p) for p in w.vertical_paths + w.horizontal_paths]
        for rail in a.rails:
            run = list(rail)
            assert any(
                run == path[k:k + len(run)]
                or run == path[k:k + len(run)][::-1]
                for path in wall_paths
                for k in range(len(path) - len(run) + 1)
            )


class TestSyntheticValidation:
    def test_reference_shape_accepted(self):
        a = synthetic_annulus(5, 8)
        assert (a.r, a.q) == (5, 8)
        assert check_euler(a.embedding)
        for i in range(1, 6):
            for j in range(1, 9):
                assert len(a.crossings[(i, j)]) >= 1
                run = a.crossings[(i, j)]
                assert min(run, key=a.rails[j - 1].index) == run[0]

    def test_rail_leaving_the_band_rejected(self):
        emb, cycles, rails = synthetic_annulus_parts(5, 8, core=True)
        hub = 5 * 16
        attached = sorted(emb.graph.neighbors(hub))[0]
        rails[0] = [attached, hub]
        with pytest.raises(TmhError, match="leaves the annulus"):
            RailedAnnulus(emb, cycles, rails)

    def test_rail_missing_a_cycle_rejected(self):
        emb, cycles, rails = synthetic_annulus_parts(5, 8)
        rails[0] = rails[0][:4]  # stops before the innermost ring
        with pytest.raises(TmhError, match="does not cross"):
            RailedAnnulus(emb, cycles, rails)

    def test_rails_sharing_a_vertex_rejected(self):
        emb, cycles, rails = synthetic_annulus_parts(5, 8)
        rails[1] = list(rails[0])
        with pytest.raises(TmhError, match="share vertex"):
            RailedAnnulus(emb, cycles, rails)

    def test_rail_revisiting_a_vertex_rejected(self):
        emb, cycles, rails = synthetic_annulus_parts(5, 8)
        rails[0] = rails[0] + [rails[0][-2]]
        with pytest.raises(TmhError, match="revisits"):
            RailedAnnulus(emb, cycles, rails)

    def test_even_cycle_count_rejected(self):
        emb, cycles, rails = synthetic_annulus_parts(5, 8)
        with pytest.raises(TmhError, match="odd number of cycles"):
            RailedAnnulus(emb, cycles[:4], rails)

    def test_two_rails_rejected(self):
        emb, cycles, rails = synthetic_annulus_parts(5, 8)
        with pytest.raises(TmhError, match="at least 3 rails"):
            RailedAnnulus(emb, cycles, rails[:2])

    def test_noise_and_hub_do_not_break_axioms(self):
        a = synthetic_annulus(5, 4, girth=24, seed=3, span=2, noise=5, core=True)
        assert (a.r, a.q) == (5, 4)
        assert check_euler(a.embedding)
        # span-2 rails cross each ring in a two-vertex path
        assert all(len(a.crossings[(i, j)]) == 2
                   for i in range(1, 6) for j in range(1, 5))

    def test_negative_noise_is_refused(self):
        with pytest.raises(TmhError, match="noise must be non-negative, got -1"):
            synthetic_annulus_parts(13, 8, girth=32, seed=58, noise=-1)

    @pytest.mark.parametrize("noise, digest", [
        (0, "1826a5dff81aefc449a0902a5989a8690469a13cd135db9fa60654a541871548"),
        (2, "39b1ecb133bc5e3f108c0fee7b74d6e5193fba5af91405053e3fd8b223d9f24a"),
    ])
    def test_noise_builds_the_pinned_edges(self, noise, digest):
        emb, _, _ = synthetic_annulus_parts(13, 8, girth=32, seed=58 + noise,
                                            noise=noise)
        edges = json.dumps(sorted(emb.graph.edges)).encode()
        assert hashlib.sha256(edges).hexdigest() == digest

    def test_disk_host_boundary_is_the_outer_ring(self):
        host, a = synthetic_disk_host(5, 8)
        assert set(host.boundary_cycle) == set(a.cycles.cycles[0])
        assert host.compass == a.embedding.graph


class TestEntryVertices:
    @pytest.mark.parametrize("kwargs", [
        dict(r=5, q=8),
        dict(r=5, q=4, girth=24, span=2),
        dict(r=7, q=3, girth=18),
    ])
    def test_entries_advance_inward_along_each_rail(self, kwargs):
        a = synthetic_annulus(**kwargs)
        for j in range(1, a.q + 1):
            pos = {v: k for k, v in enumerate(a.rails[j - 1])}
            firsts = [pos[a.crossings[(i, j)][0]] for i in range(1, a.r + 1)]
            assert firsts == sorted(firsts)
            assert len(set(firsts)) == a.r

    def test_wall_annulus_entries_advance_too(self):
        a = annulus_from_wall(build_elementary_wall(9), 3)
        for j in range(1, 4):
            pos = {v: k for k, v in enumerate(a.rails[j - 1])}
            firsts = [pos[a.crossings[(i, j)][0]] for i in range(1, 4)]
            assert firsts == sorted(firsts)


class TestConfinement:
    def test_middle_band_of_width_one_is_the_middle_cycle(self):
        a = synthetic_annulus(5, 8)
        band = a.middle_band(1)
        assert band.vertices == frozenset(a.cycles.cycles[2])

    def test_model_outside_the_annulus_is_confined(self):
        a = synthetic_annulus(5, 8, core=True)
        hub = 5 * 16
        pair = TmPair(Graph([hub], []), [hub])
        assert a.confines(pair.model, 1, []) is True
        assert a.confines(pair.model, 5, []) is True

    def test_non_rail_vertex_on_middle_cycle_breaks_confinement(self):
        a = synthetic_annulus(5, 8)
        stray = 2 * 16 + 1  # middle ring, between rails
        pair = TmPair(Graph([stray], []), [stray])
        assert a.confines(pair.model, 1, list(range(1, 9))) is False

    def test_model_planted_on_two_rails_is_confined_at_full_depth(self):
        a = synthetic_annulus(5, 8)
        r1, r2 = list(a.rails[0]), list(a.rails[1])
        model = rail_path_graph(r1).union(rail_path_graph(r2))
        pair = TmPair(model, [r1[0], r1[-1], r2[0], r2[-1]])
        assert a.confines(pair.model, 5, [1, 2]) is True
        assert a.confines(pair.model, 5, [1]) is False

    def test_allowed_rail_vertex_on_middle_cycle_is_fine(self):
        a = synthetic_annulus(5, 8)
        v = a.crossings[(3, 2)][0]
        pair = TmPair(Graph([v], []), [v])
        assert a.confines(pair.model, 1, [2]) is True

    def test_band_edges_count_not_just_vertices(self):
        # a chord joining two allowed rails inside the band must be caught
        # even though both of its endpoints sit on allowed rails
        import math as _math
        from tmh.graphs import PlaneEmbedding, _normalize_edge

        emb0, cycles, rails = synthetic_annulus_parts(3, 3, girth=6)
        chord = _normalize_edge(6, 8)  # middle-ring vertices of rails 1 and 2
        g = Graph(emb0.graph.vertices, set(emb0.graph.edges) | {chord})
        coords = {}
        for i in range(3):
            for k in range(6):
                radius = float(3 + 1 - i)
                angle = 2 * _math.pi * k / 6
                coords[i * 6 + k] = (radius * _math.cos(angle),
                                     radius * _math.sin(angle))
        rotation = {
            v: tuple(sorted(
                g.neighbors(v),
                key=lambda u: -_math.atan2(coords[u][1] - coords[v][1],
                                           coords[u][0] - coords[v][0])))
            for v in g.vertices
        }
        ring0 = frozenset(range(6))
        emb = PlaneEmbedding(g, rotation, lambda faces: next(
            i for i, f in enumerate(faces) if set(f) == ring0))
        a = RailedAnnulus(emb, cycles, rails)
        pair = TmPair(Graph([6, 8], [chord]), [6, 8])
        assert a.confines(Graph([6], []), 1, [1]) is True
        assert a.confines(Graph([8], []), 1, [2]) is True
        # the chord bulges strictly inside the middle cycle, so the
        # width-1 band sees only its two (allowed) endpoints
        assert a.confines(pair.model, 1, [1, 2, 3]) is True
        # at full width the chord edge itself is in the band and no
        # allowed rail covers it
        assert a.confines(pair.model, 3, [1, 2, 3]) is False

    def test_width_must_be_odd_and_in_range(self):
        a = synthetic_annulus(5, 8)
        pair = TmPair(Graph([0], []), [0])
        with pytest.raises(TmhError):
            a.confines(pair.model, 2, [1])
        with pytest.raises(TmhError):
            a.confines(pair.model, 7, [1])

    def test_unknown_rail_index_rejected(self):
        a = synthetic_annulus(5, 8)
        pair = TmPair(Graph([0], []), [0])
        with pytest.raises(TmhError):
            a.confines(pair.model, 1, [9])

    @settings(max_examples=25, deadline=None)
    @given(j=st.integers(min_value=1, max_value=8),
           s=st.sampled_from([1, 3, 5]),
           lo=st.integers(min_value=0, max_value=3))
    def test_any_rail_segment_is_confined_to_its_own_rail(self, j, s, lo):
        a = synthetic_annulus(5, 8)
        rail = list(a.rails[j - 1])
        seg = rail[lo:lo + 2]
        pair = TmPair(rail_path_graph(seg), seg)
        assert a.confines(pair.model, s, [j]) is True


class TestBoundariedAtCycle:
    def test_reference_shape_midway(self):
        host, a = synthetic_disk_host(5, 8)
        bg = boundaried_at_cycle(host, a, 3, 4)
        cyc3 = set(a.cycles.cycles[2])
        assert len(bg.labels) == 4
        assert set(bg.labels.values()) == {1, 2, 3, 4}
        for v, j in bg.labels.items():
            assert v in cyc3
            assert v == a.crossings[(3, j)][0]
        assert set(bg.graph.vertices) == a.cycles.closed_disk(3)

    def test_innermost_cycle_with_all_rails(self):
        host, a = synthetic_disk_host(5, 8)
        bg = boundaried_at_cycle(host, a, 5, 8)
        assert len(bg.labels) == 8
        assert set(bg.labels) == {a.crossings[(5, j)][0] for j in range(1, 9)}

    def test_single_vertex_boundary(self):
        host, a = synthetic_disk_host(5, 8)
        bg = boundaried_at_cycle(host, a, 1, 1)
        assert set(bg.labels.items()) == {(a.crossings[(1, 1)][0], 1)}

    def test_out_of_range_indices(self):
        host, a = synthetic_disk_host(5, 8)
        for i, t in ((0, 1), (6, 1), (1, 0), (1, 9)):
            with pytest.raises(TmhError):
                boundaried_at_cycle(host, a, i, t)

    def test_inner_graphs_nest_inward(self):
        host, a = synthetic_disk_host(5, 8)
        prev = None
        for i in range(1, 6):
            bg = boundaried_at_cycle(host, a, i, 3)
            vs = set(bg.graph.vertices)
            if prev is not None:
                assert vs < prev
            prev = vs


class TestRailGeometry:
    def test_reference_arc_avoids_the_second_rail(self):
        a = synthetic_annulus(5, 8)
        geo = rail_geometry(a)
        rail2 = set(a.rails[1])
        for i in range(1, 6):
            edges = geo.reference_edges[i]
            assert edges
            cyc = list(a.cycles.cycles[i - 1])
            cyc_edges = {tuple(sorted(e)) for e in zip(cyc, cyc[1:] + cyc[:1])}
            for e in edges:
                assert e in cyc_edges
                assert not set(e) & rail2

    def test_lateral_paths_stay_on_cycle_and_skip_reference_edges(self):
        a = synthetic_annulus(5, 8)
        geo = rail_geometry(a)
        all_ref = {e for es in geo.reference_edges.values() for e in es}
        for i in (1, 3, 5):
            cyc = set(a.cycles.cycles[i - 1])
            for (j, jp) in ((1, 2), (2, 5), (8, 1)):
                path = geo.l_path(i, j, jp)
                assert set(path) <= cyc
                assert path[0] in a.crossings[(i, j)]
                assert path[-1] in a.crossings[(i, jp)]
                for e in zip(path, path[1:]):
                    assert tuple(sorted(e)) not in all_ref

    def test_radial_paths_run_along_their_rail(self):
        a = synthetic_annulus(5, 8)
        geo = rail_geometry(a)
        seg = geo.r_path(2, 4, 3)
        rail = list(a.rails[2])
        assert list(seg) == rail[rail.index(seg[0]):rail.index(seg[-1]) + 1]
        assert seg[0] in a.crossings[(2, 3)]
        assert seg[-1] in a.crossings[(4, 3)]
        assert list(geo.r_path(4, 2, 3)) == list(reversed(seg))

    def test_same_index_queries_rejected(self):
        geo = rail_geometry(synthetic_annulus(5, 8))
        with pytest.raises(TmhError):
            geo.l_path(2, 3, 3)
        with pytest.raises(TmhError):
            geo.r_path(2, 2, 3)

    def test_delta_disk_index_order_enforced(self):
        geo = rail_geometry(synthetic_annulus(5, 8))
        with pytest.raises(TmhError):
            geo.delta_disk(4, 2, 3, 5)
        with pytest.raises(TmhError):
            geo.delta_disk(2, 4, 5, 3)
        with pytest.raises(TmhError):
            geo.delta_disk(2, 2, 3, 5)

    def test_adjacent_frame_closes_into_a_disk(self):
        a = synthetic_annulus(5, 8)
        geo = rail_geometry(a)
        disk = geo.delta_disk(2, 3, 4, 5)
        closed = disk.vertices("closed")
        for key in ((2, 4), (2, 5), (3, 4), (3, 5)):
            assert set(a.crossings[key]) <= closed

    def test_wide_frame_contains_interior_rail_crossings(self):
        a = synthetic_annulus(5, 8)
        geo = rail_geometry(a)
        disk = geo.delta_disk(3, 5, 2, 5)
        closed = disk.vertices("closed")
        for key in ((4, 3), (4, 4)):
            assert set(a.crossings[key]) <= closed

    def test_disjoint_index_boxes_give_disjoint_interiors(self):
        a = synthetic_annulus(5, 8)
        geo = rail_geometry(a)
        d1 = geo.delta_disk(1, 2, 1, 2)
        d2 = geo.delta_disk(3, 4, 4, 5)
        d3 = geo.delta_disk(3, 4, 6, 7)
        assert not d1.vertices("open") & d2.vertices("open")
        assert not d2.vertices("open") & d3.vertices("open")
        assert not d1.vertices("open") & d3.vertices("open")

    def test_disk_table_is_cached(self):
        geo = rail_geometry(synthetic_annulus(5, 8))
        assert geo.delta_disk(1, 2, 1, 2) is geo.delta_disk(1, 2, 1, 2)

    def test_geometry_survives_drifting_rails(self):
        a = synthetic_annulus(5, 4, girth=24, span=2)
        geo = rail_geometry(a)
        assert geo.delta_disk(1, 3, 1, 2) is not None
        assert geo.delta_disk(2, 4, 2, 3) is not None

    def test_lazy_paths_match_the_eager_reference(self):
        hosts = [synthetic_annulus(5, 8), synthetic_annulus(7, 6),
                 synthetic_annulus(5, 6), synthetic_annulus(5, 4, girth=24, span=2)]
        hosts += [_taming_band(q, girth, 2)[1]
                  for q, girth in ((5, 26), (8, 32), (11, 50))]
        for a in hosts:
            ref, l_paths, r_paths, ambiguous = _reference_rail_geometry(a)
            geo = rail_geometry(a)
            assert geo.reference_edges == ref
            assert list(geo.ambiguous_cycles) == ambiguous
            assert not geo.l_paths and not geo.r_paths
            for (i, j, jp), path in l_paths.items():
                assert geo.l_path(i, j, jp) == path
            for (i, ip, j), path in r_paths.items():
                assert geo.r_path(i, ip, j) == path
            assert geo.l_paths == l_paths and geo.r_paths == r_paths

    def test_missing_lateral_path_is_refused_when_requested(self):
        # listing the last two rails swapped puts the crossing of rail 4
        # inside the reference arc from rail 5 to rail 1, cut off from the
        # rest of the cycle
        emb, cycles, rails = synthetic_annulus_parts(5, 5)
        a = RailedAnnulus(emb, cycles, rails[:3] + [rails[4], rails[3]])
        with pytest.raises(TmhError) as eager:
            _reference_rail_geometry(a)
        geo = rail_geometry(a)
        assert geo.l_path(1, 1, 2)
        with pytest.raises(TmhError) as lazy:
            geo.l_path(1, 1, 4)
        assert str(lazy.value) == str(eager.value) \
            == "no lateral path from rail 1 to 4 on cycle 1"
        with pytest.raises(TmhError, match="no lateral path from rail 1 to 4"):
            geo.delta_disk(1, 2, 1, 4)


class TestDiskMembership:
    def test_every_built_region_matches_a_full_scan(self, monkeypatch):
        built = []
        set_up = DiskRegion._set

        def recording(self, *args):
            built.append(self)
            return set_up(self, *args)

        # every disk, lone or of a nested family, is set up by _set
        monkeypatch.setattr(DiskRegion, "_set", recording)
        for a in (synthetic_annulus(5, 8),
                  synthetic_annulus(7, 6, girth=24, seed=3, noise=4, core=True)):
            geo = rail_geometry(a)
            for i in range(1, a.r):
                for ip in range(i + 1, a.r + 1):
                    for j in range(1, a.q):
                        for jp in range(j + 1, a.q + 1):
                            geo.delta_disk(i, ip, j, jp)
            ca_cycles(a, geo=geo)
        w = build_elementary_wall(7)
        annulus_from_wall(w, 3)
        find_wall(w.host_subgraph, 5)
        monkeypatch.undo()
        assert len(built) > 600
        for region in built:
            assert _membership(region) == _scanned_membership(region)

    def test_every_disk_is_a_depth_view(self):
        a = synthetic_annulus(7, 6, girth=24, seed=3, noise=4, core=True)
        emb = a.embedding
        geo = rail_geometry(a)
        composite = ca_cycles(a, geo=geo)
        walled = NestedCycles(emb, a.cycles.cycles[1:])
        lone = [DiskRegion(emb, [0, 2], ()), DiskRegion.of_cycle(emb, a.cycles.cycles[2]),
                geo.delta_disk(1, 3, 1, 2)]
        for disk in lone:
            assert disk._level == 1 and set(disk._depth) <= {0, 1}
        for nc in (a.cycles, composite, walled):
            depth = nc.regions[0]._depth
            assert all(d._depth is depth for d in nc.regions)
            assert [d._level for d in nc.regions] == list(range(1, nc.r + 1))
        for disk in lone + a.cycles.regions + composite.regions + walled.regions:
            assert type(disk) is DiskRegion and not hasattr(disk, "__dict__")
            assert type(disk._depth) is array and len(disk._depth) == len(emb.faces)
            # the face set is built on each read, never held
            assert disk.interior_faces is not disk.interior_faces
            assert disk.interior_faces == {f for f, d in enumerate(disk._depth)
                                           if d >= disk._level}

    def test_arbitrary_face_sets_match_a_full_scan(self):
        # pockets are built from bare face sets, with no boundary cycle
        a = synthetic_annulus(7, 6, girth=24, seed=3, noise=4, core=True)
        emb = a.embedding
        rng = random.Random(5)
        for _ in range(40):
            faces = rng.sample(range(len(emb.faces)), rng.randint(0, 12))
            boundary = a.cycles.cycles[rng.randrange(a.r)] if rng.random() < 0.5 else ()
            region = DiskRegion(emb, faces, boundary)
            assert _membership(region) == _scanned_membership(region)

    def test_window_regions_equal_fresh_disks(self):
        for q, girth, noise in ((5, 20, 0), (8, 38, 2), (11, 44, 3)):
            full, band = _taming_band(q, girth, noise)
            assert band.embedding is full.embedding
            for k, region in enumerate(band.cycles.regions):
                assert region is full.cycles.regions[k + 1]
                fresh = DiskRegion.of_cycle(full.embedding, band.cycles.cycles[k])
                assert region.interior_faces == fresh.interior_faces
                assert region.boundary_cycle == fresh.boundary_cycle
                assert _membership(region) == _membership(fresh)


class TestSubwallOffsets:
    def test_offset_piece_is_a_wall(self):
        w = build_elementary_wall(9)
        sub = extract_subwall_at(w.host_subgraph, w.coordinates, 3, 3, 3)
        assert sub.r == 3
        assert sub.host_subgraph.n == 16
        assert set(sub.host_subgraph.vertices) <= set(w.host_subgraph.vertices)

    def test_even_offsets_rejected(self):
        w = build_elementary_wall(9)
        with pytest.raises(TmhError, match="odd"):
            extract_subwall_at(w.host_subgraph, w.coordinates, 3, 2, 3)
        with pytest.raises(TmhError, match="odd"):
            extract_subwall_at(w.host_subgraph, w.coordinates, 3, 3, 4)

    def test_out_of_range_offset_rejected(self):
        w = build_elementary_wall(9)
        with pytest.raises(TmhError):
            extract_subwall_at(w.host_subgraph, w.coordinates, 3, 15, 1)


class TestFamilyExtraction:
    def test_no_inner_annuli_keeps_only_the_outer(self):
        g, w = wall_in_disk(7)
        fam = find_collection_of_annuli(3, 3, 0, g, w)
        assert len(fam) == 1
        assert fam.inner == ()
        assert fam.outer.outer_disk() == frozenset(w.host_subgraph.vertices)

    def test_advertised_capacity_is_not_enough(self):
        # the stated height bound admits the call but the construction
        # cannot deliver on it; the error names both numbers
        g, w = wall_in_disk(annuli_capacity(3, 3, 1))
        with pytest.raises(TmhError, match="capacity 9.*height 15"):
            find_collection_of_annuli(3, 3, 1, g, w)

    def test_below_capacity_is_rejected_outright(self):
        g, w = wall_in_disk(7)
        with pytest.raises(TmhError, match="below the advertised capacity"):
            find_collection_of_annuli(3, 3, 1, g, w)

    def test_single_inner_annulus_at_honest_height(self):
        h = family_height_needed(3, 3, 1)
        g, w = wall_in_disk(h)
        fam = find_collection_of_annuli(3, 3, 1, g, w)
        assert len(fam) == 2
        assert (fam.outer.r, fam.outer.q) == (3, 3)
        assert (fam.inner[0].r, fam.inner[0].q) == (3, 3)
        hole = fam.outer.inner_disk()
        assert set(fam.inner[0].embedding.graph.vertices) <= hole

    def test_four_inner_annuli_have_disjoint_disks(self):
        h = family_height_needed(3, 3, 4)
        g, w = wall_in_disk(h)
        fam = find_collection_of_annuli(3, 3, 4, g, w)
        assert len(fam) == 5
        disks = [a.outer_disk() for a in fam.inner]
        for i in range(4):
            for j in range(i + 1, 4):
                assert not disks[i] & disks[j]

    @pytest.mark.parametrize("x,y,z", [(3, 3, 1), (3, 3, 2), (3, 3, 4), (3, 5, 1)])
    def test_honest_height_is_exactly_minimal(self, x, y, z):
        h = family_height_needed(x, y, z)
        g, w = wall_in_disk(h)
        fam = find_collection_of_annuli(x, y, z, g, w)
        assert len(fam) == z + 1
        g2, w2 = wall_in_disk(h - 2)
        with pytest.raises(TmhError):
            find_collection_of_annuli(x, y, z, g2, w2)

    def test_perimeter_must_bound_the_disk(self):
        _, w = wall_in_disk(15)
        small, _ = wall_in_disk(7)
        with pytest.raises(TmhError, match="perimeter"):
            find_collection_of_annuli(3, 3, 0, small, w)

    def test_family_constructor_rejects_stray_inner_annulus(self):
        g, w = wall_in_disk(15)
        fam = find_collection_of_annuli(3, 3, 1, g, w)
        # an inner annulus as large as the outer one cannot sit in the hole
        with pytest.raises(TmhError):
            AnnulusFamily(fam.outer, [fam.outer])

    def test_family_constructor_rejects_overlapping_inner_disks(self):
        g, w = wall_in_disk(15)
        fam = find_collection_of_annuli(3, 3, 1, g, w)
        with pytest.raises(TmhError, match="overlapping"):
            AnnulusFamily(fam.outer, [fam.inner[0], fam.inner[0]])


def _two_trace_embedding(graph, rotation, pick):
    """An embedding built the way the annulus and wall code built them
    before one trace sufficed: a probe embedding to read the faces from,
    then a second one with the chosen outer face."""
    probe = PlaneEmbedding(graph, rotation, lambda faces: 0)
    return PlaneEmbedding(graph, rotation, lambda faces: pick(probe.faces))


def _ring_face(cycle):
    """The outer-face rule of synthetic_annulus_parts and sub_annulus: the
    first face that walks exactly the vertices of the cycle."""
    ring = frozenset(cycle)

    def pick(faces):
        for idx, face in enumerate(faces):
            if len(face) == len(cycle) and set(face) == ring:
                return idx
        raise AssertionError("no face walks the cycle")
    return pick


def _longest_face(faces):
    """The outer-face rule of the wall code: the longest face, the later
    one on a tie (which _embed_wall refuses)."""
    return sorted(((len(f), i) for i, f in enumerate(faces)), reverse=True)[0][1]


def _reference_window_embedding(a, lo):
    """sub_annulus's embedding built from two traces of the rotation of a
    restricted to the closed disk of cycle lo."""
    keep = a.cycles.closed_disk(lo)
    sub_g = a.embedding.graph.subgraph(keep)
    rotation = {v: tuple(u for u in a.embedding.rotation[v] if u in keep)
                for v in sub_g.vertices}
    return _two_trace_embedding(sub_g, rotation, _ring_face(a.cycles.cycles[lo - 1]))


def _reference_ca_cycles(a):
    """The disks of ca_cycles with one DiskRegion.of_cycle flood per
    composite frame, refused as a nested family is refused."""
    geo = rail_geometry(a)
    z = min(a.r, a.q) // 2
    return reference_family(a.embedding, [geo._frame_cycle((i, a.r - i + 1, i, a.q - i + 1))
                                          for i in range(1, z + 1)])


def _assert_per_cycle_disks(nc, membership=False):
    """Every region of the family equals DiskRegion.of_cycle on its cycle."""
    for region, cyc in zip(nc.regions, nc.cycles):
        fresh = DiskRegion.of_cycle(nc.embedding, cyc)
        assert region.interior_faces == fresh.interior_faces
        assert region.boundary_cycle == fresh.boundary_cycle
        if membership:
            assert _membership(region) == _membership(fresh)


def _same_embedding(emb, ref):
    assert emb.graph == ref.graph
    assert emb.faces == ref.faces
    assert emb.outer_face == ref.outer_face


class TestOnePassAnnuli:
    """One face trace per embedding and one dual flood per nested cycle
    family give the embeddings, disks and refusals that two traces and
    one flood per cycle gave."""

    def test_building_an_annulus_traces_once_and_floods_per_family(self, monkeypatch):
        traces, floods = [], []
        trace = PlaneEmbedding._trace
        of_cycle = DiskRegion.of_cycle.__func__

        def counting_trace(self, starts):
            traces.append(self)
            return trace(self, starts)

        def counting_of_cycle(cls, emb, cyc):
            floods.append(cyc)
            return of_cycle(cls, emb, cyc)

        monkeypatch.setattr(PlaneEmbedding, "_trace", counting_trace)
        monkeypatch.setattr(DiskRegion, "of_cycle", classmethod(counting_of_cycle))
        full = synthetic_annulus(13, 8, girth=32, seed=58, noise=2)
        sub_annulus(full, 2, 12)
        assert len(traces) == 2
        assert floods == []

    def test_sub_annulus_leaves_no_vertex_set_on_its_parent(self):
        full = synthetic_annulus(13, 8, girth=32, seed=58, noise=2)
        for lo, hi in ((2, 12), (1, 3), (5, 9)):
            disk = full.cycles.regions[lo - 1]
            assert disk._closed_v is None
            win = sub_annulus(full, lo, hi)
            assert disk._closed_v is None
            assert set(win.embedding.graph.vertices) == disk.vertices("closed")

    @pytest.mark.parametrize("kw", [
        dict(r=5, q=8),
        dict(r=7, q=6, girth=24, seed=3, noise=4, core=True),
        dict(r=5, q=4, girth=24, span=2),
        dict(r=25, q=3, seed=1, noise=2),
        dict(r=13, q=11, girth=50, seed=80, noise=3),
    ])
    def test_generator_embedding_equals_two_traces(self, kw):
        emb, cycles, _ = synthetic_annulus_parts(**kw)
        _same_embedding(emb, _two_trace_embedding(emb.graph, emb.rotation,
                                                  _ring_face(cycles[0])))

    def test_window_embedding_equals_two_traces(self):
        full = synthetic_disk_host(25, 3, seed=1, noise=2)[1]
        taming = synthetic_annulus(13, 7, girth=34, seed=51, noise=2)
        for a, lo, hi in ((full, 1, 3), (full, 7, 25), (full, 4, 10),
                          (taming, 2, 12), (taming, 5, 9), (taming, 1, 13)):
            win = sub_annulus(a, lo, hi)
            _same_embedding(win.embedding, _reference_window_embedding(a, lo))
            _assert_per_cycle_disks(win.cycles, membership=True)

    @pytest.mark.parametrize("h", [3, 5, 7, 9])
    def test_wall_embedding_equals_two_traces(self, h):
        w = build_elementary_wall(h)
        g, rotation = w.host_subgraph, w.embedding.rotation
        emb, walk = _embed_wall(g, rotation)
        ref = _two_trace_embedding(g, rotation, _longest_face)
        _same_embedding(emb, ref)
        _same_embedding(w.embedding, ref)
        assert walk == w.perimeter == ref.faces[ref.outer_face]

    def test_wall_embedding_refuses_a_tie_for_the_outer_face(self):
        # the cube drawn as a square inside a square: six 4-faces
        rotation = {0: (1, 4, 3), 1: (2, 5, 0), 2: (3, 6, 1), 3: (0, 7, 2),
                    4: (0, 5, 7), 5: (1, 6, 4), 6: (2, 7, 5), 7: (3, 4, 6)}
        cube = Graph.from_edges([(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6),
                                 (6, 7), (4, 7), (0, 4), (1, 5), (2, 6), (3, 7)])
        with pytest.raises(TmhError, match="^ambiguous outer face; host is not a wall shape$"):
            _embed_wall(cube, rotation)

    @pytest.mark.parametrize("h,q", [(5, 3), (7, 5), (9, 7)])
    def test_find_wall_embedding_equals_two_traces(self, monkeypatch, h, q):
        g = build_elementary_wall(h).host_subgraph
        built = []
        init = PlaneEmbedding.__init__

        def recording(self, graph, rotation, pick):
            init(self, graph, rotation, pick)
            built.append(self)

        monkeypatch.setattr(PlaneEmbedding, "__init__", recording)
        find_wall(g, q)
        monkeypatch.undo()
        # the subwall and then the host, each from its own coordinates
        assert len(built) == 2
        _same_embedding(built[-1], _two_trace_embedding(
            g, build_elementary_wall(h).embedding.rotation, _longest_face))

    @pytest.mark.parametrize("q", range(5, 12))
    def test_restriction_of_every_window_equals_two_traces(self, q):
        """Every window lo of the taming-matrix annuli on q rails: faces,
        outer face, incidences and shared tuples."""
        rows = [(13, 4 * q + pad, noise) for pad in (0, 6) for noise in (0, 2, 3)]
        rows += [(11, 4 * q, noise) for noise in (0, 2) if q <= 8]
        for R, girth, noise in rows:
            a = synthetic_annulus(R, q, girth=girth, seed=7 * q + noise, noise=noise)
            for lo in range(1, R - 1):
                keep = a.cycles.closed_disk(lo)
                emb = a.embedding.restrict(keep, _ring_face(a.cycles.cycles[lo - 1]))
                ref = _reference_window_embedding(a, lo)
                _same_embedding(emb, ref)
                assert (emb._face_base, emb._across, emb._twin, emb._vertex_dart) \
                    == (ref._face_base, ref._across, ref._twin, ref._vertex_dart)
                assert emb.rotation == ref.rotation
                kept = {id(f) for f in emb.faces}
                assert all(id(f) in kept for f in a.embedding.faces
                           if all(u in keep for u in f))

    def test_taming_matrix_regions_equal_per_cycle_disks(self):
        for q in range(5, 12):
            for pad in (0, 6):
                for noise in (0, 2, 3):
                    full = synthetic_annulus(13, q, girth=4 * q + pad,
                                             seed=7 * q + noise, noise=noise)
                    band = sub_annulus(full, 2, 12)
                    _assert_per_cycle_disks(full.cycles)
                    _assert_per_cycle_disks(band.cycles, membership=pad == 6)

    @pytest.mark.parametrize("h", [7, 9])
    def test_wall_annulus_regions_equal_per_cycle_disks(self, h):
        a = annulus_from_wall(build_elementary_wall(h), 3)
        _assert_per_cycle_disks(a.cycles, membership=True)

    def test_composite_cycle_regions_equal_per_cycle_disks(self):
        hosts = [synthetic_annulus(5, 8), synthetic_annulus(7, 6, girth=24, seed=3,
                                                            noise=4, core=True)]
        hosts += [_taming_band(q, girth, noise)[1]
                  for q, girth, noise in ((5, 26, 2), (8, 32, 0), (11, 50, 3))]
        for a in hosts:
            geo = rail_geometry(a)
            nc = ca_cycles(a, geo=geo)
            _assert_per_cycle_disks(nc, membership=True)
            ref = _reference_ca_cycles(a)
            assert nc.cycles == [d.boundary_cycle for d in ref]
            for region, ref_region in zip(nc.regions, ref):
                assert region.interior_faces == ref_region.interior_faces
            z = min(a.r, a.q) // 2
            for i in range(1, z + 1):
                assert geo.delta_disks[(i, a.r - i + 1, i, a.q - i + 1)] \
                    is nc.regions[i - 1]
            for b in range(1, z):
                # the taming sector lookup reads the family's disk
                assert geo.delta_disk(b + 1, a.r - b, b + 1, a.q - b) \
                    is nc.regions[b]
            again = ca_cycles(a, geo=geo)
            assert [d.interior_faces for d in again.regions] \
                == [d.interior_faces for d in nc.regions]

    @pytest.mark.parametrize("r,q,order,message", [
        (5, 5, (0, 1, 2, 4, 3), "no lateral path from rail 2 to 4 on cycle 2"),
        (7, 6, (0, 1, 2, 5, 3, 4), "no lateral path from rail 3 to 4 on cycle 3"),
        (7, 6, (0, 1, 2, 4, 3, 5), "nested cycles must be pairwise vertex-disjoint"),
        (7, 6, (0, 1, 3, 4, 2, 5), "cycle disks do not nest"),
    ])
    def test_composite_cycle_refusals_keep_message_and_order(self, r, q, order,
                                                             message):
        emb, cycles, rails = synthetic_annulus_parts(r, q)
        a = RailedAnnulus(emb, cycles, [rails[k] for k in order])
        with pytest.raises(TmhError) as ref:
            _reference_ca_cycles(a)
        with pytest.raises(TmhError) as got:
            ca_cycles(a)
        assert type(got.value) is type(ref.value)
        assert str(got.value) == str(ref.value) == message


def _reference_crossing_path(cycle_v, cycle_e, rail):
    """_crossing_path through a Graph of the shared vertices and the shared
    rail steps: the shared vertices in rail order if that graph is one
    non-empty path, else None."""
    shared = [v for v in rail if v in cycle_v]
    if not shared:
        return None
    shared_set = set(shared)
    shared_e = [e for e in _path_edges(rail)
                if e in cycle_e and e[0] in shared_set and e[1] in shared_set]
    x = Graph(shared, shared_e)
    if len(x.connected_components()) != 1:
        return None
    if x.m != x.n - 1 or any(x.degree(v) > 2 for v in shared):
        return None
    return shared


def _reference_cycle_order(g):
    """graphs._cycle_order as a walk of its own: from the
    smallest vertex toward its smaller neighbour, or None."""
    if g.n < 3 or g.m != g.n:
        return None
    if any(g.degree(v) != 2 for v in g.vertices) or not g.is_connected():
        return None
    order = [g.vertices[0]]
    prev, cur = None, g.vertices[0]
    while True:
        a, b = g.neighbors(cur)
        nxt = a if a != prev else b
        if nxt == order[0]:
            return order
        prev, cur = cur, nxt
        order.append(cur)


def _reference_frame_cycle(geo, key):
    """_frame_cycle through Graph objects: the frame as a Graph, its 2-core
    as another, ordered by _reference_cycle_order."""
    i, ip, j, jp = key
    if not (i < ip):
        raise TmhError("cycle indices must increase, got %d, %d" % (i, ip))
    if not (j < jp):
        raise TmhError("rail indices must increase, got %d, %d" % (j, jp))
    a = geo.annulus
    pieces = [
        a.crossings[(i, j)], geo.l_path(i, j, jp), a.crossings[(i, jp)],
        geo.r_path(i, ip, jp), a.crossings[(ip, jp)],
        geo.l_path(ip, jp, j), a.crossings[(ip, j)],
        geo.r_path(ip, i, j),
    ]
    verts = set()
    edges = set()
    for seq in pieces:
        verts.update(seq)
        edges.update(_path_edges(seq))
    frame = Graph(verts, edges)
    adj = {v: set(frame.neighbors(v)) for v in frame.vertices}
    stack = [v for v, nb in adj.items() if len(nb) <= 1]
    while stack:
        v = stack.pop()
        if v not in adj:
            continue
        for u in adj.pop(v):
            adj[u].discard(v)
            if len(adj[u]) <= 1:
                stack.append(u)
    core = Graph(adj.keys(),
                 {(min(u, v), max(u, v)) for v, nb in adj.items() for u in nb})
    order = _reference_cycle_order(core)
    if order is None:
        raise TmhError("frame %r does not close into a unique cycle" % (key,))
    return order


def _outcome(f, *args):
    """What a call gives: its value, or the type and message it refuses with."""
    try:
        return "value", f(*args)
    except TmhError as err:
        return "refused", type(err), str(err)


def _walk(*pieces):
    """The pieces joined end to end, a vertex shared by two pieces kept once."""
    out = []
    for piece in pieces:
        for v in piece:
            if not out or out[-1] != v:
                out.append(v)
    return out


def _assert_crossings_match(a):
    """Every (cycle, rail, orientation) of the annulus gives the reference
    crossing; the rails in their own orientation cross every cycle."""
    for cyc in a.cycles.cycles:
        cycle_v = frozenset(cyc)
        cycle_e = frozenset(_path_edges(list(cyc) + [cyc[0]]))
        for rail in a.rails:
            for cand in (list(rail), list(reversed(rail))):
                got = _crossing_path(cycle_v, cycle_e, cand)
                assert got == _reference_crossing_path(cycle_v, cycle_e, cand)
            assert got is not None


def _assert_frames_match(a):
    """_frame_cycle gives the reference's cycle or refusal on every
    increasing key of the annulus, and on two keys that do not increase;
    returns the outcome kinds of the increasing keys."""
    geo, ref_geo = rail_geometry(a), rail_geometry(a)
    outcomes = []
    keys = [(i, ip, j, jp)
            for i, ip in itertools.combinations(range(1, a.r + 1), 2)
            for j, jp in itertools.combinations(range(1, a.q + 1), 2)]
    for key in keys + [(2, 1, 1, 2), (1, 2, 2, 1)]:
        got = _outcome(geo._frame_cycle, key)
        assert got == _outcome(_reference_frame_cycle, ref_geo, key)
        outcomes.append(got[0])
    return outcomes[:len(keys)]


def _record_crossings(monkeypatch):
    """Record every _crossing_path call: its arguments and result."""
    calls = []

    def recording(cycle_v, cycle_e, rail):
        out = _crossing_path(cycle_v, cycle_e, rail)
        calls.append((cycle_v, cycle_e, list(rail), out))
        return out

    monkeypatch.setattr(tmh.annulus, "_crossing_path", recording)
    return calls


class TestGraphFreeGeometry:
    """The crossing check and the frame cycles, on plain sets and an
    adjacency map, give what their Graph-based forms gave."""

    def test_crossings_match_the_reference_on_the_taming_matrix(self, monkeypatch):
        calls = _record_crossings(monkeypatch)
        rows = [(13, q, 4 * q + pad, noise)
                for q in range(5, 12) for pad in (0, 6) for noise in (0, 2, 3)]
        rows += [(11, q, 4 * q, noise) for q in range(5, 9) for noise in (0, 2)]
        annuli = []
        for R, q, m, noise in rows:
            full = synthetic_annulus(R, q, girth=m, seed=7 * q + noise, noise=noise)
            band = full.window(2, R - 1)
            # and the windows taming cuts from the band: the shrunk band of
            # tame_tm_model and the inner windows of one or two rivers
            annuli += [full, band] + [band.window(lo, band.r + 1 - lo)
                                      for lo in (2, 3, 4)]
        monkeypatch.undo()
        assert len(annuli) == 250
        for a in annuli:
            _assert_crossings_match(a)
        for cycle_v, cycle_e, rail, out in calls:
            assert out == _reference_crossing_path(cycle_v, cycle_e, rail)
        # only the constructor of each full annulus asks, once per cycle and
        # rail; the windows take their crossings from the annulus they are
        # cut from
        assert len(calls) == sum(a.r * a.q for a in annuli[::5]) == 4940

    @pytest.mark.parametrize("h", [7, 9])
    def test_crossings_match_the_reference_on_wall_runs(self, monkeypatch, h):
        # annulus_from_wall tries every run of every wall path in the band,
        # most of which are refused
        calls = _record_crossings(monkeypatch)
        a = annulus_from_wall(build_elementary_wall(h), 3)
        monkeypatch.undo()
        _assert_crossings_match(a)
        for cycle_v, cycle_e, rail, out in calls:
            assert out == _reference_crossing_path(cycle_v, cycle_e, rail)
        assert any(out is None for *_, out in calls)

    @pytest.mark.parametrize("seed", range(20))
    def test_crossing_gaps_and_chords_are_refused_like_the_reference(self, seed):
        rng = random.Random(seed)
        n = rng.randint(6, 14)
        cyc = list(range(n))
        rng.shuffle(cyc)
        cycle_v = frozenset(cyc)
        cycle_e = frozenset(_path_edges(cyc + cyc[:1]))
        start = rng.randrange(n)
        arc = [cyc[(start + t) % n] for t in range(n - 1)]
        k = rng.randint(1, n - 4)
        off = list(range(n, n + rng.randint(1, 3)))
        cases = {
            "path": ([n + 5] + arc[k:] + [n + 6], arc[k:]),
            "gap": (arc[:k] + off + arc[k + 1:], None),
            "chord": (arc[:k] + arc[k + 1:], None),
            "miss": (off, None),
        }
        for rail, want in cases.values():
            for cand in (rail, rail[::-1]):
                ref = _reference_crossing_path(cycle_v, cycle_e, cand)
                assert _crossing_path(cycle_v, cycle_e, cand) == ref
                assert ref == (None if want is None else
                               [v for v in cand if v in cycle_v])

    @pytest.mark.parametrize("r,q,girth,order", [
        (5, 5, None, None),
        (7, 6, None, None),
        (5, 6, 24, None),
        (5, 5, None, (0, 1, 2, 4, 3)),
        (7, 6, None, (0, 1, 2, 5, 3, 4)),
    ])
    def test_frame_cycles_match_the_reference(self, r, q, girth, order):
        emb, cycles, rails = synthetic_annulus_parts(r, q, girth=girth)
        if order is not None:
            rails = [rails[k] for k in order]
        a = RailedAnnulus(emb, cycles, rails)
        outcomes = _assert_frames_match(a)
        assert ("refused" in outcomes) == (order is not None)
        assert "value" in outcomes
        if order is None:
            # every lateral path forbids only its own cycle's reference
            # edges, and matches the eager reference that forbids them all
            _, l_paths, _, _ = _reference_rail_geometry(a)
            geo = rail_geometry(a)
            assert {key: geo.l_path(*key) for key in l_paths} == l_paths

    @pytest.mark.parametrize("h,p", [(9, 3), (13, 5)])
    def test_wall_frame_cycles_match_the_reference(self, h, p):
        # wall crossings run along their cycles, so the frames have
        # pendant pieces to peel
        a = annulus_from_wall(build_elementary_wall(h), p)
        assert "value" in _assert_frames_match(a)

    @pytest.mark.parametrize("r,q,girth", [(5, 5, None), (7, 6, None), (5, 6, 24)])
    def test_frames_that_do_not_close_are_refused_like_the_reference(self, r, q,
                                                                     girth):
        # a lateral path replaced by the walk around the other three sides
        # leaves a tree; one that also runs a chord along a middle cycle
        # leaves a theta
        a = synthetic_annulus(r, q, girth=girth)
        refusals = 0
        for key in ((1, r, 1, q), (1, 3, 2, 4), (2, r, 1, 3)):
            i, ip, j, jp = key
            for kind in ("tree", "theta"):
                geo = rail_geometry(a)
                if kind == "tree":
                    fake = _walk(geo.r_path(ip, i, jp), geo.l_path(i, jp, j),
                                 geo.r_path(i, ip, j))
                    geo.l_paths[(ip, jp, j)] = tuple(fake)
                else:
                    mid = (i + ip) // 2
                    fake = _walk(geo.l_path(mid, j, jp), geo.r_path(mid, i, jp),
                                 geo.l_path(i, jp, j))
                    geo.l_paths[(i, j, jp)] = tuple(fake)
                got = _outcome(geo._frame_cycle, key)
                assert got == _outcome(_reference_frame_cycle, geo, key)
                assert got == ("refused", TmhError,
                               "frame %r does not close into a unique cycle"
                               % (key,))
                refusals += 1
        assert refusals == 6


def _four_sets(region):
    """The closed and open vertex and edge sets, built together in one
    pass over the interior faces as a region once built them on any read;
    a cross-check for the separately built sets."""
    emb = region.embedding
    interior = region.interior_faces
    touched_v, touched_e = set(), set()
    for f in interior:
        for u, v in face_darts(emb.faces[f]):
            touched_v.add(u)
            touched_e.add((u, v) if u < v else (v, u))
    boundary = {v for v in region.boundary_cycle if v in emb.graph}
    open_v = {v for v in touched_v - boundary
              if interior.issuperset(faces_of_vertex(emb, v))}
    open_e = {e for e in touched_e if interior.issuperset(faces_of_edge(emb, *e))}
    return touched_v | boundary, open_v, touched_e, open_e


def _assert_point_queries_match(regions, bands=()):
    """DiskRegion.has_vertex in both modes, on a fresh copy of each region
    (which holds no sets, so every answer comes from the faces), and
    AnnulusBand.has_vertex, on every vertex of the embedding and on one
    vertex outside it, against the full scan."""
    scans = {}
    for region in regions:
        closed_v, open_v, _, _ = scans[id(region)] = _scanned_membership(region)
        emb = region.embedding
        twin = DiskRegion(emb, region.interior_faces, region.boundary_cycle)
        for v in list(emb.graph.vertices) + [max(emb.graph.vertices) + 1]:
            assert twin.has_vertex(v, "closed") == (v in closed_v)
            assert twin.has_vertex(v, "open") == (v in open_v)
        assert (twin._closed_v, twin._open_v, twin._closed_e, twin._open_e) \
            == (None,) * 4
    for band in bands:
        outer, inner = scans[id(band.outer)], scans[id(band.inner)]
        want = outer[0] - inner[1]
        emb = band.outer.embedding
        for v in list(emb.graph.vertices) + [max(emb.graph.vertices) + 1]:
            assert band.has_vertex(v) == (v in want)
        assert band.vertices == want


def _matrix_annuli():
    """The taming matrix annuli of the benchmark's seed 0, each with its
    band cut by the public sub_annulus."""
    rows = [(13, q, 4 * q + pad, noise)
            for q in range(5, 12) for pad in (0, 6) for noise in (0, 2, 3)]
    rows += [(11, q, 4 * q, noise) for q in range(5, 9) for noise in (0, 2)]
    for R, q, m, noise in rows:
        full = synthetic_annulus(R, q, girth=m, seed=7 * q + noise, noise=noise)
        yield full, sub_annulus(full, 2, R - 1)


class TestPointMembership:
    """Point queries answer like the vertex sets, the vertex and edge sets
    are built apart, and building an annulus builds neither."""

    def test_matrix_annuli_and_their_bands(self):
        count = 0
        for full, band in _matrix_annuli():
            for a in (full, band):
                _assert_point_queries_match(a.cycles.regions, [a.cycles.annulus(1, a.r)])
                count += 1
        assert count == 100

    def test_forced_host_sub_annuli(self):
        _, full = synthetic_disk_host(25, 3, seed=1, noise=2)
        for a in (sub_annulus(full, 1, 3), sub_annulus(full, 7, 25)):
            bands = [a.cycles.annulus(x, y) for x in range(1, a.r + 1)
                     for y in range(x, a.r + 1)]
            _assert_point_queries_match(a.cycles.regions, bands)

    def test_composite_cycle_disks(self):
        for full, band in itertools.islice(_matrix_annuli(), 0, 42, 5):
            ca = ca_cycles(band)
            _assert_point_queries_match(ca.regions, [ca.annulus(1, ca.r)])

    @pytest.mark.parametrize("h, p", [(7, 3), (13, 5)])
    def test_wall_annulus(self, h, p):
        a = annulus_from_wall(build_elementary_wall(h), p)
        _assert_point_queries_match(a.cycles.regions, [a.cycles.annulus(1, p)])

    def test_vertex_and_edge_sets_are_built_apart(self):
        _, full = synthetic_disk_host(25, 3, seed=1, noise=2)
        a = sub_annulus(full, 7, 25)
        _, band = next(_matrix_annuli())
        w = annulus_from_wall(build_elementary_wall(9), 3)
        regions = (list(full.cycles.regions) + list(a.cycles.regions)
                   + list(ca_cycles(band).regions) + list(w.cycles.regions))
        for region in regions:
            by_v, by_e = (DiskRegion(region.embedding, region.interior_faces,
                                     region.boundary_cycle) for _ in range(2))
            vs = by_v.vertices("closed"), by_v.vertices("open")
            assert (by_v._closed_e, by_v._open_e) == (None, None)
            es = by_e.edges("closed"), by_e.edges("open")
            assert (by_e._closed_v, by_e._open_v) == (None, None)
            assert vs + es == _four_sets(region) == _scanned_membership(region)
        # closed reads build no open set
        fresh = DiskRegion(band.embedding, band.cycles.regions[3].interior_faces,
                           band.cycles.cycles[3])
        fresh.vertices("closed")
        fresh.edges("closed")
        assert (fresh._open_v, fresh._open_e) == (None, None)

    def test_building_an_annulus_builds_no_sets(self):
        full = synthetic_annulus(13, 11, girth=50, noise=2)
        band = sub_annulus(full, 2, 12)
        for region in band.cycles.regions:
            assert (region._closed_v, region._open_v, region._closed_e,
                    region._open_e) == (None,) * 4


def _band_and_host():
    """A taming-matrix annulus (depth 13, 8 rails, girth 32, noise 2) and
    its band on cycles 2..12, as (host graph, band annulus)."""
    full = synthetic_annulus(13, 8, girth=32, noise=2)
    return full.embedding.graph, sub_annulus(full, 2, 12)


class TestRowStorage:
    """Annulus graphs keep only their adjacency rows: a band shares its
    host's rows, and neither the matrix nor its bands build an edge set."""

    # bytes a host graph and its band hold under tracemalloc, read in a
    # fresh interpreter (Python 3.11); with an edge set beside the rows of
    # every graph the same reading was 406,304
    HELD_BYTES = 305_584

    def test_matrix_graphs_hold_no_edge_set(self):
        count = 0
        for full, band in _matrix_annuli():
            for a in (full, band):
                assert a.embedding.graph._edges is None
                count += 1
        assert count == 100

    def test_band_shares_the_host_rows(self):
        host, band = _band_and_host()
        g = band.embedding.graph
        shared = 0
        for v in g.vertices:
            keeps = all(w in g for w in host.neighbors(v))
            assert (g.neighbors(v) is host.neighbors(v)) == keeps
            shared += keeps
        # only vertices of cycle 2 can lose a neighbour, on cycle 1
        assert g.n - 32 <= shared < g.n
        assert (host._edges, g._edges) == (None, None)

    def test_memory_of_a_band_and_its_host(self):
        gc.collect()
        tracemalloc.start()
        try:
            kept = _band_and_host()
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept[1].embedding.graph.n == 384
        assert held <= 1.05 * self.HELD_BYTES


def _clipped_rails(a, lo, hi):
    """Every rail of a cut from its first vertex on cycle lo to its last on
    cycle hi, found by cycle membership rather than by a's crossings."""
    first, last = set(a.cycles.cycles[lo - 1]), set(a.cycles.cycles[hi - 1])
    rails = []
    for rail in a.rails:
        start = min(k for k, v in enumerate(rail) if v in first)
        end = max(k for k, v in enumerate(rail) if v in last)
        rails.append(list(rail[start:end + 1]))
    return rails


class TestWindowsInheritRails:
    """A window cut from a validated annulus, in its embedding (window) or
    in a restriction of it (sub_annulus), has the rails and crossings the
    validating constructor gives its cycles and clipped rails.  Those do
    not depend on the embedding, which the constructor only checks the
    rails against, so one reference in the smaller, restricted embedding
    serves both."""

    @staticmethod
    def _assert_windows_match(a):
        count = 0
        for lo in range(1, a.r - 1):
            for hi in range(lo + 2, a.r + 1, 2):
                sub = sub_annulus(a, lo, hi)
                ref = RailedAnnulus(sub.embedding, a.cycles.cycles[lo - 1:hi],
                                    _clipped_rails(a, lo, hi))
                for win in (a.window(lo, hi), sub):
                    assert win.cycles.cycles == ref.cycles.cycles
                    assert (win.r, win.q) == (ref.r, ref.q)
                    assert win.rails == ref.rails
                    assert list(win.crossings.items()) == list(ref.crossings.items())
                count += 1
        return count

    def test_every_odd_window_of_the_matrix_bands(self):
        count = sum(self._assert_windows_match(band) for _, band in _matrix_annuli())
        assert count == 42 * 25 + 8 * 16

    def test_every_odd_window_of_the_forced_host(self):
        _, a = synthetic_disk_host(25, 3, seed=1, noise=2)
        assert self._assert_windows_match(a) == 144

    def test_windows_refuse_like_sub_annulus(self):
        a = synthetic_annulus(7, 4)
        for lo, hi in ((0, 3), (3, 3), (5, 8), (4, 2)):
            for cut in (a.window, lambda lo, hi: sub_annulus(a, lo, hi)):
                with pytest.raises(TmhError, match="^cycle window must satisfy "
                                   r"1 <= lo < hi <= r$"):
                    cut(lo, hi)
        for lo, hi in ((1, 2), (2, 5)):
            for cut in (a.window, lambda lo, hi: sub_annulus(a, lo, hi)):
                with pytest.raises(TmhError, match="^need an odd number of "
                                   "cycles, at least 3, got %d$" % (hi - lo + 1)):
                    cut(lo, hi)


class TestFaceStore:
    """Faces are vertex tuples and the face store is integers: the same
    faces, in the same order, as a trace of darts; embedding files as
    before; and an annulus with its window held in a bounded number of
    bytes."""

    # sha256 of emit_embedding, read before faces were stored as vertex
    # tuples: the forced host, then (full, band on cycles 2..R-1) for three
    # rows (R, q, girth, noise) of the taming matrix
    EMITTED = {
        "forced": "b073171953c45eb52732fdfd06ecacc52cf5b79919f09544dade100501ffd6a2",
        (13, 5, 20, 0): ("1283e795c47cf841227b6073c6396785b865f59a47230b27775455423c1ae748",
                         "19884cd867941a6555eb53a75d96ae769ecc3683b5343d5c8118823b637d94e8"),
        (13, 7, 34, 3): ("0296842095acefaaa0f3064458d6c97e705b45a4922a132be67160065e5eef74",
                         "66592d579f9739a4506c6470e2fbaedf514e2fbdc5a31d2019a4e0705926394c"),
        (11, 7, 28, 2): ("1fc3978bb24408ddb0e17672c5d4cc2e1eccf4dc103616ede52b0c1fa5bbdedf",
                         "05f6f905fd66fff340ded9bf8b68a0b405fa7e0ccdefaa70597f0d15312767b1"),
    }

    # bytes that synthetic_annulus(13, 7, girth=28, seed=51, noise=2) and
    # its sub_annulus on cycles 2..12 hold under tracemalloc (Python
    # 3.11.7); with faces of dart tuples, an edge-to-faces map and a face
    # set per disk, the same reading was 381,712; it is 191,720 now
    HELD_BYTES = 300_000

    def test_faces_are_the_tails_of_traced_dart_walks(self):
        count = 0
        for full, band in _matrix_annuli():
            for a in (full, band):
                assert_store_matches_dart_walks(a.embedding)
                count += 1
        _, host = synthetic_disk_host(25, 3, seed=1, noise=2)
        for a in (host, sub_annulus(host, 1, 3), sub_annulus(host, 7, 25)):
            assert_store_matches_dart_walks(a.embedding)
            count += 1
        assert count == 103

    def test_emitted_embeddings_are_unchanged(self):
        def digest(emb, disk=None):
            return hashlib.sha256(emit_embedding(emb, disk=disk).encode()).hexdigest()

        gr, _ = synthetic_disk_host(25, 3, seed=1, noise=2)
        assert digest(gr.embedding, gr.boundary_cycle) == self.EMITTED["forced"]
        for key, pinned in self.EMITTED.items():
            if key == "forced":
                continue
            R, q, girth, noise = key
            full = synthetic_annulus(R, q, girth=girth, seed=7 * q + noise, noise=noise)
            band = sub_annulus(full, 2, R - 1)
            assert (digest(full.embedding), digest(band.embedding)) == pinned

    def test_memory_of_an_annulus_and_its_window(self):
        gc.collect()
        tracemalloc.start()
        try:
            full = synthetic_annulus(13, 7, girth=28, seed=51, noise=2)
            kept = (full, sub_annulus(full, 2, 12))
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept[1].r == 11
        assert held <= self.HELD_BYTES

    def test_restrictions_are_plane_by_euler_count(self):
        """A restriction of a plane embedding is decided by V - E + F = 2
        alone, as the connectivity search decides it, with and without
        edges."""
        def searched(emb):
            g = emb.graph
            return g.is_connected() and g.n - g.m + len(emb.faces) == 2

        rng = random.Random(21)
        count = 0
        for full, _ in itertools.islice(_matrix_annuli(), 0, None, 7):
            emb = full.embedding
            assert emb._is_plane()
            vs = emb.graph.vertices
            u = vs[0]
            far = next(w for w in vs if w != u and not emb.graph.has_edge(u, w))
            keeps = [set(), {u}, {u, far}, {u, emb.graph.neighbors(u)[0]},
                     full.cycles.closed_disk(3), set(vs)]
            keeps += [{v for v in vs if rng.random() < share}
                      for share in (0.99, 0.95, 0.8, 0.5)]
            for keep in keeps:
                got = emb.restrict(keep, lambda faces: 0)
                assert got._plane is not None
                assert got._is_plane() == searched(got)
                count += got._is_plane()
        assert count > 0

    def test_every_odd_window_has_the_disks_of_of_cycle(self):
        count = 0
        for _, band in _matrix_annuli():
            emb = band.embedding
            fresh = [DiskRegion.of_cycle(emb, c).interior_faces for c in band.cycles.cycles]
            for lo in range(1, band.r - 1):
                for hi in range(lo + 2, band.r + 1, 2):
                    win = band.window(lo, hi)
                    for k, region in enumerate(win.cycles.regions):
                        assert region.interior_faces == fresh[lo - 1 + k]
                    count += 1
        assert count == 42 * 25 + 8 * 16
