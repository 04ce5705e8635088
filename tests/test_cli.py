"""Driver tests: every subcommand end to end over real files, exit codes,
report stability, trace replay, and the environment budget cap."""

import json
import shlex
import time
from pathlib import Path

import pytest

from helpers import normalize_graph, report_core
from tmh import tm
from tmh.cli import _build_parser, _replay_widths, main
from tmh.graphs import Graph, parse_graph
from tmh.decomposition import TreeDecomposition
from tmh.annulus import synthetic_annulus
from tmh.linkage import Linkage
from tmh.tm import BUILTIN_PATTERNS
from tmh.synth import random_planar_graph
from tmh.io import (
    build_annulus,
    build_disk_host,
    emit_annulus_index,
    emit_embedding,
    emit_graph,
    emit_linkage,
    file_digest,
    load_patterns,
    parse_linkage,
    parse_trace,
    trace_records,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out else None
    return code, report, captured.err


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")

    def write(name, text):
        p = root / name
        p.write_text(text)
        return str(p)

    k4 = write("k4.txt", emit_graph(BUILTIN_PATTERNS["K4"]()))
    p5 = write("p5.txt", "5 4\n0 1\n1 2\n2 3\n3 4\n")
    bad = write("bad.txt", "not a graph\n")

    full = synthetic_annulus(13, 7)
    band = full.window(2, 12)
    paths = {
        "k4": k4, "p5": p5, "bad": bad, "root": str(root),
        "band_graph": write("band.graph.txt",
                            emit_graph(full.embedding.graph)),
        "band_emb": write("band.emb.txt", emit_embedding(full.embedding)),
        "band_ann": write("band.ann.txt", emit_annulus_index(band)),
        "band_lnk": write("band.lnk.txt",
                          emit_linkage(Linkage([full.rails[1]]))),
    }
    paths["band_obj"] = band
    return paths


@pytest.fixture(scope="module")
def disk_bundle(tmp_path_factory):
    root = tmp_path_factory.mktemp("gen")
    prefix = str(root / "a21")
    code = main(["gen-annulus", "--r", "21", "--q", "3",
                 "--out-prefix", prefix])
    assert code == 0
    return {"graph": prefix + ".graph.txt", "emb": prefix + ".emb.txt",
            "ann": prefix + ".ann.txt", "prefix": prefix, "root": str(root)}


class TestCheckTm:
    def test_absent(self, files, capsys):
        code, rep, _ = run(capsys, "check-tm", "--graph", files["p5"],
                           "--pattern", "K3")
        assert code == 1
        assert rep["outcome"]["outcome"] == "absent"

    def test_present(self, files, capsys):
        code, rep, _ = run(capsys, "check-tm", "--graph", files["k4"],
                           "--pattern", "K3")
        assert code == 0
        assert rep["outcome"]["outcome"] == "present"


class TestSolve:
    def test_yes_with_witness(self, files, capsys):
        code, rep, _ = run(capsys, "solve", "--graph", files["k4"],
                           "--patterns", "K4", "--k", "1")
        assert code == 0
        assert rep["outcome"]["answer"] == "yes"
        assert len(rep["outcome"]["witness"]) == 1

    def test_no(self, files, capsys):
        code, rep, _ = run(capsys, "solve", "--graph", files["k4"],
                           "--patterns", "K4", "--k", "0")
        assert code == 1
        assert rep["outcome"]["answer"] == "no"
        assert rep["outcome"]["witness"] is None

    def test_census_guard_prices_canonicalisation(self, capsys, tmp_path):
        # under --budget-f1 0 the {K2,3, C4} folios want the t=1, h=6
        # census: 67,735 raw graphs, but up to 720 orderings of inner
        # vertices for each to canonicalise, so the guard refuses it and
        # the solve exits through the decomposition within seconds
        host = tmp_path / "host.txt"
        host.write_text(emit_graph(random_planar_graph(5, 17)))
        trace = tmp_path / "run.json"
        t0 = time.perf_counter()
        code, rep, _ = run(capsys, "solve", "--graph", str(host),
                           "--patterns", "K23,C4", "--k", "1",
                           "--budget-f1", "0", "--trace", str(trace))
        assert time.perf_counter() - t0 < 60
        assert code == 1 and rep["outcome"]["answer"] == "no"
        _, steps = parse_trace(trace.read_text())
        assert [s["payload"]["reason"] for s in steps] == [
            "boundaried-graph census for t=1 h=6 exceeds 2000000 graphs; "
            "parameters infeasible at desk scale"]

    def test_report_stable_modulo_timings(self, files, capsys):
        argv = ("solve", "--graph", files["k4"], "--patterns", "K3,K4",
                "--k", "2")
        _, _, _ = run(capsys, *argv)
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert report_core(json.dumps(first[1])) \
            == report_core(json.dumps(second[1]))


class TestTraceAndVerify:
    def test_replay_reports_all_verified(self, files, capsys, tmp_path):
        trace = str(tmp_path / "run.json")
        code, _, _ = run(capsys, "solve", "--graph", files["k4"],
                         "--patterns", "K4", "--k", "1", "--trace", trace)
        assert code == 0
        code, rep, _ = run(capsys, "verify", "--trace", trace,
                           "--graph", files["k4"])
        assert code == 0
        assert rep["outcome"]["statuses_match"] is True
        assert rep["outcome"]["all_verified"] is True

    def test_tampered_payload_is_a_parse_error(self, files, capsys, tmp_path):
        trace = tmp_path / "run.json"
        run(capsys, "solve", "--graph", files["k4"], "--patterns", "K4",
            "--k", "1", "--trace", str(trace))
        lines = trace.read_text().splitlines()
        tampered = lines[1].replace('"branch": "decomposition"',
                                    '"branch": "wall"')
        assert tampered != lines[1]
        lines[1] = tampered
        trace.write_text("\n".join(lines))
        code, rep, err = run(capsys, "verify", "--trace", str(trace),
                             "--graph", files["k4"])
        assert code == 65 and rep is None
        assert "digest mismatch" in err

    def test_flipped_status_diverges_at_replay(self, files, capsys,
                                               tmp_path):
        # the digest covers only the payload, so a rewritten status gets
        # past parsing and the replay comparison has to catch it
        trace = tmp_path / "run.json"
        run(capsys, "solve", "--graph", files["k4"], "--patterns", "K4",
            "--k", "1", "--trace", str(trace))
        lines = trace.read_text().splitlines()
        lines[1] = lines[1].replace('"status": "verified"',
                                    '"status": "unverified"', 1)
        trace.write_text("\n".join(lines))
        code, rep, err = run(capsys, "verify", "--trace", str(trace),
                             "--graph", files["k4"])
        assert code == 2
        assert rep["outcome"]["statuses_match"] is False
        assert "diverged" in err

    def test_wrong_graph_is_a_stage_failure(self, files, capsys, tmp_path):
        trace = str(tmp_path / "run.json")
        run(capsys, "solve", "--graph", files["k4"], "--patterns", "K4",
            "--k", "1", "--trace", trace)
        code, _, err = run(capsys, "verify", "--trace", trace,
                           "--graph", files["p5"])
        assert code == 2
        assert "does not match" in err


class TestTraceWidths:
    """Traces name which decomposition exits record a width.  Today only
    the wall search's width-bound exit does; traces under "min-fill"
    recorded the min-fill width at every exit, and traces without the
    header field the exact treewidth on at most 15 vertices.  On this
    series-parallel host min-fill finds width 3, above the treewidth 2."""

    REASON = ("boundaried-graph census for t=9 h=12 exceeds 2000000 "
              "graphs; parameters infeasible at desk scale")

    @pytest.fixture
    def host(self, tmp_path):
        path = tmp_path / "sp.txt"
        path.write_text(emit_graph(random_planar_graph(182, 10, tries=10)))
        return str(path)

    def _old_trace(self, host, path, width, widths=None, patterns="K3", k=2,
                   reason=REASON):
        # a fallback exit as a solver that wrote the widths header value
        # recorded it, with a width
        header = {"graph": file_digest(host), "patterns": patterns, "k": k,
                  "mode": "safe", "budget_f1": "default", "force": False,
                  "seed": None}
        if widths is not None:
            header["widths"] = widths
        step = {"kind": "wall", "status": "verified",
                "payload": {"branch": "decomposition", "width": width,
                            "reason": reason}}
        path.write_text(trace_records(header, [step]))
        return str(path)

    def _verify(self, capsys, trace, host):
        code, rep, _ = run(capsys, "verify", "--trace", trace, "--graph", host)
        return code, rep["verification"]["replay"]

    def test_legacy_trace_replays_under_the_exact_rule(self, host, capsys,
                                                       tmp_path):
        trace = self._old_trace(host, tmp_path / "old.json", 2)
        assert self._verify(capsys, trace, host) == (0, "identical")

    def test_legacy_trace_with_the_min_fill_width_diverges(self, host, capsys,
                                                           tmp_path):
        trace = self._old_trace(host, tmp_path / "old.json", 3)
        assert self._verify(capsys, trace, host) == (2, "diverged")

    def test_min_fill_trace_replays_under_the_min_fill_rule(self, host, capsys,
                                                            tmp_path):
        trace = self._old_trace(host, tmp_path / "old.json", 3, "min-fill")
        assert self._verify(capsys, trace, host) == (0, "identical")

    def test_min_fill_trace_with_the_exact_width_diverges(self, host, capsys,
                                                          tmp_path):
        trace = self._old_trace(host, tmp_path / "old.json", 2, "min-fill")
        assert self._verify(capsys, trace, host) == (2, "diverged")

    @pytest.mark.parametrize("seed,n,patterns,t,h", [
        (0, 12, "K3", 9, 12), (3, 15, "C4", 15, 19)],
        ids=["seed0-K3", "seed3-C4"])
    @pytest.mark.parametrize("k", [0, 1])
    def test_min_fill_records_of_the_stable_traces_replay(
            self, seed, n, patterns, t, h, k, capsys, tmp_path):
        # the records min-fill traces held for the cases of
        # test_decomposition_exit_trace_is_stable: one exit of width 4
        path = tmp_path / "host.txt"
        path.write_text(emit_graph(random_planar_graph(seed, n)))
        reason = ("boundaried-graph census for t=%d h=%d exceeds 2000000 "
                  "graphs; parameters infeasible at desk scale" % (t, h))
        trace = self._old_trace(str(path), tmp_path / "old.json", 4,
                                "min-fill", patterns, k, reason)
        assert self._verify(capsys, trace, str(path)) == (0, "identical")

    def test_fresh_trace_records_no_fallback_width_and_verifies(
            self, host, capsys, tmp_path):
        trace = tmp_path / "new.json"
        code, _, _ = run(capsys, "solve", "--graph", host, "--patterns", "K3",
                         "--k", "2", "--trace", str(trace))
        assert code == 0
        header, steps = parse_trace(trace.read_text())
        assert header["widths"] == "width-bound"
        assert [s["payload"] for s in steps] == [
            {"branch": "decomposition", "reason": self.REASON}]
        assert self._verify(capsys, str(trace), host) == (0, "identical")

    def test_replay_rules_count_the_deleted_vertices(self):
        # 16 vertices: a pendant path on the host above.  The first exit
        # is past the cap and gets the min-fill width under both rules;
        # the one after a deletion is on 15 vertices and gets the exact
        # width under the rule of traces without the field.  An exit that
        # recorded its width keeps it past the cap
        sp = random_planar_graph(182, 10, tries=10)
        g = Graph(range(16), sorted(sp.edges) + [(0, 10)]
                  + [(v, v + 1) for v in range(10, 15)])
        exit_step = {"kind": "wall", "status": "verified",
                     "payload": {"branch": "decomposition",
                                 "reason": self.REASON}}
        bound = {"kind": "wall", "status": "verified",
                 "payload": {"branch": "decomposition", "width": 7,
                             "width_bound": 124}}
        deletion = {"kind": "delete_vertex", "status": "verified",
                    "payload": {"vertex": 15, "remaining": 15}}
        records = [bound, exit_step, deletion, exit_step]
        widths = {rule: [r["payload"].get("width")
                         for r in _replay_widths(g, records, rule)]
                  for rule in (None, "min-fill")}
        assert widths == {None: [7, 3, None, 2], "min-fill": [7, 3, None, 3]}
        assert "width" not in exit_step["payload"]

    def test_unknown_widths_are_a_parse_error(self, host, capsys, tmp_path):
        trace = tmp_path / "new.json"
        run(capsys, "solve", "--graph", host, "--patterns", "K3", "--k", "2",
            "--trace", str(trace))
        text = trace.read_text()
        assert '"width-bound"' in text
        trace.write_text(text.replace('"width-bound"', '"exact"', 1))
        code, rep, err = run(capsys, "verify", "--trace", str(trace),
                             "--graph", host)
        assert code == 65 and rep is None
        assert "unknown widths 'exact'" in err


class TestGenAnnulus:
    def test_deterministic_given_seed(self, disk_bundle, capsys, tmp_path):
        prefix = str(tmp_path / "again")
        code, rep, _ = run(capsys, "gen-annulus", "--r", "21", "--q", "3",
                           "--out-prefix", prefix)
        assert code == 0
        with open(disk_bundle["graph"]) as fh:
            first = fh.read()
        with open(prefix + ".graph.txt") as fh:
            assert fh.read() == first

    def test_negative_noise_fails_the_stage(self, capsys, tmp_path):
        code, rep, err = run(capsys, "gen-annulus", "--r", "5", "--q", "3",
                             "--noise", "-2", "--out-prefix", str(tmp_path / "a"))
        assert code == 2 and rep is None
        assert err == "failure in gen-annulus: noise must be non-negative, got -2\n"

    def test_bundle_parses_back(self, disk_bundle):
        with open(disk_bundle["graph"]) as fh:
            g = parse_graph(fh.read())
        with open(disk_bundle["emb"]) as fh:
            host = build_disk_host(g, fh.read())
        with open(disk_bundle["ann"]) as fh:
            a = build_annulus(host.embedding, fh.read())
        assert (a.r, a.q) == (21, 3)
        assert set(host.boundary_cycle) == set(a.cycles.cycles[0])


class TestReduce:
    def test_empty_representatives(self, disk_bundle, capsys):
        code, rep, _ = run(capsys, "reduce",
                           "--graph", disk_bundle["graph"],
                           "--embedding", disk_bundle["emb"],
                           "--annulus", disk_bundle["ann"],
                           "--k", "1", "--h", "1", "--budget-f1", "0")
        assert code == 0
        assert rep["outcome"] == {"size": 0, "vertices": []}

    def test_shallow_annulus_fails_the_stage(self, capsys, tmp_path):
        prefix = str(tmp_path / "a13")
        run(capsys, "gen-annulus", "--r", "13", "--q", "3",
            "--out-prefix", prefix)
        code, rep, err = run(capsys, "reduce",
                             "--graph", prefix + ".graph.txt",
                             "--embedding", prefix + ".emb.txt",
                             "--annulus", prefix + ".ann.txt",
                             "--k", "1", "--h", "1", "--budget-f1", "0")
        assert code == 2 and rep is None
        assert "block partition" in err


class TestFindWall:
    def test_wall_branch_with_dot(self, capsys, tmp_path):
        from tmh.decomposition import build_elementary_wall
        w = build_elementary_wall(3)
        flat, _ = normalize_graph(w.host_subgraph)
        gpath = tmp_path / "wall3.txt"
        gpath.write_text(emit_graph(flat))
        dot = tmp_path / "wall3.dot"
        code, rep, _ = run(capsys, "find-wall", "--graph", str(gpath),
                           "--height", "3", "--dot", str(dot))
        assert code == 0
        assert rep["outcome"]["branch"] == "wall"
        assert 'class="perimeter"' in dot.read_text()

    def test_decomposition_branch(self, files, capsys):
        code, rep, _ = run(capsys, "find-wall", "--graph", files["k4"],
                           "--height", "3")
        assert code == 0
        assert rep["outcome"]["branch"] == "decomposition"
        assert rep["outcome"]["width"] == 3
        assert rep["verification"] == {"decomposition": "validated"}

    def test_broken_decomposition_is_a_stage_failure(self, files, capsys,
                                                     monkeypatch):
        # one bag on K4's vertices but vertex 3: vertex 3 is uncovered;
        # the wall search validates the decomposition it is handed
        broken = TreeDecomposition(Graph([0]), {0: {0, 1, 2}})
        monkeypatch.setattr("tmh.decomposition.exact_treewidth",
                            lambda h: (1, broken))
        code, rep, err = run(capsys, "find-wall", "--graph", files["k4"],
                             "--height", "3")
        assert code == 2
        assert rep is None
        assert "failure in find-wall" in err
        assert "vertex-uncovered" in err


class TestTame:
    def test_reroute_through_files(self, files, capsys, tmp_path):
        out = tmp_path / "tamed.lnk.txt"
        code, rep, _ = run(capsys, "tame",
                           "--graph", files["band_graph"],
                           "--embedding", files["band_emb"],
                           "--annulus", files["band_ann"],
                           "--linkage", files["band_lnk"],
                           "--band", "1", "--rails", "4",
                           "--budget-f1", "0", "--out", str(out))
        assert code == 0
        assert rep["outcome"]["outcome"] == "tamed"
        tamed = parse_linkage(out.read_text())
        band = files["band_obj"]
        assert band.confines(tamed.union_graph(), 1, (4,))

    @pytest.mark.parametrize("rails, entry", [("x", "'x'"), ("", "''"), ("1,,2", "''")])
    def test_bad_rail_entry_is_a_usage_error_naming_it(self, files, capsys, rails,
                                                       entry):
        with pytest.raises(SystemExit) as ei:
            main(["tame", "--graph", files["band_graph"],
                  "--embedding", files["band_emb"], "--annulus", files["band_ann"],
                  "--linkage", files["band_lnk"], "--band", "1", "--rails", rails])
        assert ei.value.code == 64
        err = capsys.readouterr().err
        assert "argument --rails: rail index %s in %r is not an integer" % (
            entry, rails) in err

    def test_even_band_width_is_refused(self, files, capsys):
        # --band is the band's width in cycle levels, which must be odd
        code, rep, err = run(capsys, "tame",
                             "--graph", files["band_graph"],
                             "--embedding", files["band_emb"],
                             "--annulus", files["band_ann"],
                             "--linkage", files["band_lnk"],
                             "--band", "2", "--rails", "4", "--budget-f1", "0")
        assert (code, rep) == (2, None)
        assert err == ("failure in tame: band width must be odd within [1, 11], "
                       "got 2\n")

    def test_band_help_names_an_odd_width(self):
        tame = _build_parser()._subparsers._group_actions[0].choices["tame"]
        band, = (act for act in tame._actions if act.dest == "band")
        assert band.help == ("width in cycle levels (odd) of the middle band "
                             "to confine within")

    def test_readme_rails_parse(self):
        line, = (ln for ln in _readme_cli_lines() if ln.startswith("tmh tame "))
        assert _build_parser().parse_args(shlex.split(line)[1:]).rails == (4,)


class TestBench:
    def test_seeded_batch_agrees(self, capsys):
        code, rep, _ = run(capsys, "bench", "--patterns", "K3,K4",
                           "--k", "1", "--n", "12", "--seeds", "2")
        assert code == 0
        assert rep["verification"]["oracle_agreements"] == "2/2"
        assert len(rep["outcome"]["rows"]) == 2
        assert len(rep["timings"]["per_instance_s"]) == 2

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_a_host_without_vertices_is_refused(self, capsys, n):
        code, rep, err = run(capsys, "bench", "--patterns", "K3",
                             "--k", "0", "--n", n)
        assert code == 2 and rep is None
        assert err == ("failure in bench: random planar graph needs "
                       "n >= 1, got %s\n" % n)


class TestExitCodes:
    def test_usage_error_is_64(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["solve", "--graph"])
        assert ei.value.code == 64
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["--help"])
        assert ei.value.code == 0
        capsys.readouterr()

    def test_parse_error_is_65(self, files, capsys):
        code, rep, err = run(capsys, "solve", "--graph", files["bad"],
                             "--patterns", "K3", "--k", "0")
        assert code == 65 and rep is None
        assert "parse error" in err

    @pytest.mark.parametrize("flag, form", [
        ("--graph", "missing"), ("--graph", "directory"),
        ("--graph", "not-utf8"), ("--patterns", "directory"),
        ("--patterns", "not-utf8"), ("--trace", "not-utf8")])
    def test_unreadable_input_is_65(self, files, capsys, tmp_path, flag,
                                    form):
        # an input that cannot be read is a parse error, never the
        # negative outcome's exit 1
        path = tmp_path / "input.txt"
        if form == "directory":
            path.mkdir()
        elif form == "not-utf8":
            path.write_bytes(b"3 2\n0 1\n1 2\n# \xff\xfe\n")
        argv = {"--graph": ("solve", "--graph", str(path), "--patterns",
                            "K3", "--k", "0"),
                "--patterns": ("solve", "--graph", files["k4"],
                               "--patterns", str(path), "--k", "0"),
                "--trace": ("verify", "--trace", str(path), "--graph",
                            files["k4"])}[flag]
        code, rep, err = run(capsys, *argv)
        assert code == 65 and rep is None
        assert "parse error: cannot read %s" % path in err

    @pytest.mark.parametrize("flag", ["--trace", "--dot", "--out", "--out-prefix"])
    def test_unwritable_output_is_a_stage_failure(self, files, capsys, tmp_path,
                                                 flag):
        # an output that cannot be written fails the stage with exit 2,
        # never the negative outcome's exit 1 or a traceback
        bad = str(tmp_path / "no" / "such" / "dir" / "out")
        gen = ("gen-annulus", "--r", "5", "--q", "3")
        argv = {"--trace": ("solve", "--graph", files["k4"], "--patterns",
                            "K3", "--k", "1", "--trace", bad),
                "--dot": gen + ("--out-prefix", str(tmp_path / "a"),
                                "--dot", bad),
                "--out": ("tame", "--graph", files["band_graph"],
                          "--embedding", files["band_emb"],
                          "--annulus", files["band_ann"],
                          "--linkage", files["band_lnk"], "--band", "1",
                          "--rails", "4", "--budget-f1", "0", "--out", bad),
                "--out-prefix": gen + ("--out-prefix", bad)}[flag]
        code, rep, err = run(capsys, *argv)
        assert code == 2 and rep is None
        assert "cannot write %s" % bad in err

    def test_bad_budget_spec_is_65(self, files, capsys):
        code, _, err = run(capsys, "solve", "--graph", files["k4"],
                           "--patterns", "K4", "--k", "1",
                           "--budget-f1", "wild")
        assert code == 65
        assert "budget spec" in err


class TestEnvironmentCap:
    def test_small_cap_fails_the_search(self, disk_bundle, capsys,
                                        monkeypatch):
        before = tm.DEFAULT_BUDGET_NODES
        monkeypatch.setenv("TMH_BUDGET_NODES", "10")
        code, _, err = run(capsys, "check-tm",
                           "--graph", disk_bundle["graph"],
                           "--pattern", "K23")
        assert code == 2
        assert "budget" in err
        assert tm.DEFAULT_BUDGET_NODES == before

    def test_junk_value_is_usage(self, files, capsys, monkeypatch):
        monkeypatch.setenv("TMH_BUDGET_NODES", "much")
        code, _, err = run(capsys, "check-tm", "--graph", files["p5"],
                           "--pattern", "K3")
        assert code == 64
        assert "TMH_BUDGET_NODES" in err


def _readme_cli_lines():
    """The tmh invocations in the README's CLI block, continuations joined."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```")[1]
    return [ln for ln in block.replace("\\\n", " ").splitlines()
            if ln.startswith("tmh ")]


@pytest.mark.parametrize("line", _readme_cli_lines(),
                         ids=lambda line: line.split()[1])
def test_readme_cli_line_parses(line):
    args = _build_parser().parse_args(shlex.split(line)[1:])
    for spec in (getattr(args, "patterns", None), getattr(args, "pattern", None)):
        if spec is not None:
            load_patterns(spec)
