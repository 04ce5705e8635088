"""Round trips for every file format, bundle digests, report shape, trace
records with tamper detection, and DOT export classes."""

import json

import pytest

from helpers import normalize_graph, report_core
from tmh.graphs import EmbeddingError, Graph, ParseError, TmhError, parse_graph
from tmh.annulus import synthetic_annulus, synthetic_disk_host
from tmh.decomposition import build_elementary_wall
from tmh.linkage import Linkage, Terrain, TerrainFeature
from tmh.io import (
    InstanceBundle,
    build_annulus,
    build_disk_host,
    build_embedding,
    emit_annulus_index,
    emit_embedding,
    emit_graph,
    emit_linkage,
    emit_report,
    export_dot,
    load_patterns,
    make_report,
    parse_annulus_index,
    parse_embedding,
    parse_linkage,
    parse_trace,
    trace_records,
)


class TestGraphFormat:
    def test_round_trip(self):
        g = Graph(range(5), [(0, 1), (1, 2), (3, 4), (0, 4)])
        assert parse_graph(emit_graph(g)) == g

    def test_isolated_vertices_survive(self):
        g = Graph(range(4), [(1, 2)])
        assert parse_graph(emit_graph(g)) == g

    def test_emission_requires_contiguous_ids(self):
        with pytest.raises(TmhError, match="0..n-1"):
            emit_graph(Graph([0, 2, 5], [(0, 2)]))

    def test_normalize_fills_the_holes(self):
        g = Graph([0, 2, 5], [(0, 2), (2, 5)])
        flat, to_new = normalize_graph(g)
        assert sorted(flat.vertices) == [0, 1, 2]
        assert flat.has_edge(to_new[0], to_new[2])
        assert flat.has_edge(to_new[2], to_new[5])
        assert parse_graph(emit_graph(flat)) == flat


class TestEmbeddingFormat:
    def test_round_trip_with_disk(self):
        gr, a = synthetic_disk_host(5, 3)
        text = emit_embedding(a.embedding, disk=gr.boundary_cycle)
        rotation, outer, disk = parse_embedding(text)
        assert rotation == {v: tuple(a.embedding.rotation[v])
                            for v in a.embedding.graph.vertices}
        assert outer == a.embedding.outer_face
        assert disk == tuple(gr.boundary_cycle)
        host = build_disk_host(gr.graph, text)
        assert host.boundary_cycle == gr.boundary_cycle

    def test_band_document_has_no_disk(self):
        a = synthetic_annulus(5, 3)
        _, _, disk = parse_embedding(emit_embedding(a.embedding))
        assert disk is None

    def test_parse_errors(self):
        with pytest.raises(ParseError, match="outer"):
            parse_embedding("rot 0 1\nrot 1 0\n")
        with pytest.raises(ParseError, match="duplicate"):
            parse_embedding("rot 0 1\nrot 0 1\nouter 0\n")
        with pytest.raises(ParseError, match="unknown directive"):
            parse_embedding("spin 0 1\n")

    TRIANGLE_ROTATION = "rot 0 1 2\nrot 1 2 0\nrot 2 0 1\n"

    @pytest.mark.parametrize("outer", [0, 1])
    def test_triangle_takes_either_face_as_outer(self, outer):
        g = Graph(range(3), [(0, 1), (1, 2), (0, 2)])
        emb, _ = build_embedding(g, self.TRIANGLE_ROTATION + "outer %d\n" % outer)
        assert emb.outer_face == outer and len(emb.faces) == 2

    @pytest.mark.parametrize("doc,message", [
        ("outer -1\n", "^outer face index -1 is not one of the 2 faces$"),
        ("outer 7\n", "^outer face index 7 is not one of the 2 faces$"),
        ("rot 9 4\nouter 0\n", "^rotation given for 9, which is not a vertex$"),
    ])
    def test_bad_outer_face_or_stray_rotation_is_refused(self, doc, message):
        g = Graph(range(3), [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(EmbeddingError, match=message):
            build_embedding(g, self.TRIANGLE_ROTATION + doc)


class TestAnnulusIndexFormat:
    def test_round_trip(self):
        a = synthetic_annulus(7, 3)
        cycles, rails = parse_annulus_index(emit_annulus_index(a))
        assert cycles == [tuple(c) for c in a.cycles.cycles]
        assert rails == [tuple(r) for r in a.rails]
        rebuilt = build_annulus(a.embedding, emit_annulus_index(a))
        assert rebuilt.r == a.r and rebuilt.q == a.q

    def test_needs_both_sections(self):
        with pytest.raises(ParseError, match="both c and r"):
            parse_annulus_index("c 0 1 2\n")


class TestLinkageFormat:
    def test_round_trip(self):
        l = Linkage([(0, 1, 2), (5, 4)])
        assert parse_linkage(emit_linkage(l)).paths == l.paths

    def test_invalid_paths_are_parse_errors(self):
        with pytest.raises(ParseError, match="invalid"):
            parse_linkage("p 0 1\np 1 2\n")
        with pytest.raises(ParseError, match="no p lines"):
            parse_linkage("# empty\n")


class TestPatternSpecs:
    def test_builtin_names(self):
        fam = load_patterns("K3,K4")
        assert len(fam.patterns) == 2 and fam.h == 4

    def test_file_pattern(self, tmp_path):
        p = tmp_path / "edge.txt"
        p.write_text("2 1\n0 1\n")
        fam = load_patterns(str(p))
        assert fam.h == 2

    def test_unknown_name(self):
        with pytest.raises(ParseError, match="neither builtin"):
            load_patterns("K99")


class TestBundles:
    def test_digests_and_hash_are_stable(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text(emit_graph(Graph(range(3), [(0, 1)])))
        b1 = InstanceBundle(graph_path=str(p), pattern_spec="K3", seed=7)
        b2 = InstanceBundle(graph_path=str(p), pattern_spec="K3", seed=7)
        assert b1.digests == b2.digests
        assert b1.bundle_hash() == b2.bundle_hash()
        assert b1.load_graph().n == 3
        p.write_text(emit_graph(Graph(range(3), [(0, 1), (1, 2)])))
        assert InstanceBundle(graph_path=str(p)).digests["graph"] \
            != b1.digests["graph"]

    def test_seed_feeds_the_hash(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text(emit_graph(Graph(range(2), [(0, 1)])))
        assert InstanceBundle(graph_path=str(p), seed=1).bundle_hash() \
            != InstanceBundle(graph_path=str(p), seed=2).bundle_hash()


class TestReports:
    def test_field_order_and_timing_quarantine(self):
        rep = make_report("solve", {"k": 1}, {"answer": "yes"},
                          {"verified": 2}, {"total_s": 0.5})
        assert list(rep) == ["command", "inputs", "outcome",
                            "verification", "timings"]
        text = emit_report(rep)
        assert list(json.loads(text)) == list(rep)
        core = report_core(text)
        assert "timings" not in core
        other = emit_report(make_report("solve", {"k": 1}, {"answer": "yes"},
                                        {"verified": 2}, {"total_s": 9.9}))
        assert report_core(other) == core


class TestTraceDocuments:
    HEADER = {"graph": "abc", "patterns": "K3", "k": 1, "mode": "safe",
              "budget_f1": "default", "force": False, "seed": None}
    STEPS = [{"kind": "wall", "status": "verified",
              "payload": {"branch": "decomposition", "width": 3}},
             {"kind": "delete_vertex", "status": "unverified",
              "payload": {"vertex": 4, "remaining": 9}}]

    def test_round_trip(self):
        text = trace_records(self.HEADER, self.STEPS)
        header, steps = parse_trace(text)
        assert header == self.HEADER
        assert steps == self.STEPS

    def test_tampered_payload_is_rejected(self):
        lines = trace_records(self.HEADER, self.STEPS).splitlines()
        lines[1] = lines[1].replace('"width": 3', '"width": 2')
        with pytest.raises(ParseError, match="digest mismatch"):
            parse_trace("\n".join(lines))

    def test_header_is_mandatory(self):
        with pytest.raises(ParseError, match="header"):
            parse_trace(trace_records(self.HEADER, self.STEPS)
                        .splitlines()[1] + "\n")


class TestDotExport:
    def test_plain_graph(self):
        dot = export_dot(Graph(range(3), [(0, 1), (1, 2)]))
        assert dot.startswith("graph G {")
        assert '"0" -- "1";' in dot
        assert export_dot(Graph(range(3), [(0, 1), (1, 2)])) == dot

    def test_wall_perimeter_class(self):
        w = build_elementary_wall(3)
        dot = export_dot(w)
        assert dot.count('class="perimeter"') == len(w.perimeter)

    def test_annulus_has_one_class_per_cycle_and_rail(self):
        a = synthetic_annulus(5, 8)
        dot = export_dot(a)
        cycles = {c for c in range(1, 10) if ('class="cycle%d"' % c) in dot}
        rails = {j for j in range(1, 10) if ('class="rail%d"' % j) in dot}
        assert len(cycles) == 5 and len(rails) == 8

    def test_linkage_paths_classed(self):
        dot = export_dot(Linkage([(0, 1, 2), (4, 5)]))
        assert 'class="path1"' in dot and 'class="path2"' in dot

    def test_terrain_mountain_edges_tagged(self):
        t = Terrain(streams=[(0, 1, 2)], rivers=[],
                    mountains=[TerrainFeature("mountain", (2, 3, 4),
                                              base=1, dehe=1, disk=None)],
                    valleys=[])
        dot = export_dot(t)
        assert dot.count('class="mountain"') == 2
        assert dot.count('class="stream"') == 2

    def test_unknown_object(self):
        with pytest.raises(TmhError, match="no DOT export"):
            export_dot(42)
