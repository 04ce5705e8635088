"""Command-line driver: solve, check-tm, find-wall, gen-annulus, tame,
reduce, verify, and bench subcommands over the plain-text formats.

Every run prints one JSON report to stdout (timings quarantined in their
own section); artifacts go to files named by flags.  Exit codes: 0 for a
positive outcome, 1 for a negative one, 2 for a stage failure, 64 for
usage errors, 65 for unparseable, missing or unreadable input.  The environment variable
TMH_BUDGET_NODES caps search nodes globally.
"""

import argparse
import os
import re
import sys
import time

from .graphs import ParseError, TmhError
from .tm import find_tm_model, pF_oracle
from .linkage import TamingBudget, tame_linkage
from .annulus import synthetic_annulus, synthetic_disk_host
from .decomposition import (
    DEFAULT_EXACT_TW_CAP,
    DEFAULT_WIDTH_FACTOR,
    TreeDecomposition,
    exact_treewidth,
    find_wall,
    greedy_treewidth,
)
from .solver import derive_params, reduce_solution_space, solve_tm_deletion
from .synth import random_planar_graph
from .io import (
    InstanceBundle,
    emit_annulus_index,
    emit_embedding,
    emit_graph,
    emit_linkage,
    emit_report,
    export_dot,
    load_patterns,
    make_report,
    parse_linkage,
    parse_trace,
    read_text,
    trace_records,
)

EXIT_YES = 0
EXIT_NO = 1
EXIT_FAIL = 2
EXIT_USAGE = 64
EXIT_PARSE = 65


class StageFailure(TmhError):
    """A subcommand stage failed after producing a report worth printing."""

    def __init__(self, stage, detail, report=None):
        super().__init__("%s failed: %s" % (stage, detail))
        self.stage = stage
        self.report = report


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the contract wants 64
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("%s: error: %s\n" % (self.prog, message))
        raise SystemExit(EXIT_USAGE)


def _rail_indices(text):
    """A --rails value: a comma list of integer rail indices."""
    rails = []
    for entry in text.split(","):
        try:
            rails.append(int(entry))
        except ValueError:
            raise argparse.ArgumentTypeError(
                "rail index %r in %r is not an integer" % (entry, text))
    return tuple(rails)


def _taming_from(spec):
    """TamingBudget from a --budget-f1 value: "default", a single even
    constant, a comma table indexed by linkage size, or a linear formula
    like 2k+2."""
    if spec is None or spec == "default":
        return TamingBudget()
    if re.fullmatch(r"\d+", spec):
        c = int(spec)
        return TamingBudget(f1=lambda k, c=c: c)
    if re.fullmatch(r"\d+(,\d+)+", spec):
        table = {i: int(v) for i, v in enumerate(spec.split(","))}
        return TamingBudget(f1=table)
    m = re.fullmatch(r"(\d+)k([+-]\d+)?", spec)
    if m:
        slope = int(m.group(1))
        shift = int(m.group(2) or 0)
        return TamingBudget(f1=lambda k, a=slope, b=shift: a * k + b)
    raise ParseError("cannot read budget spec %r: want default, an even "
                     "constant, a comma table, or <m>k+<c>" % (spec,))


def _write(path, text):
    """Write an output file; a path that cannot be written is a stage
    failure that names it, never the negative outcome's exit 1."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as err:
        raise TmhError("cannot write %s: %s" % (path, err))


def _status_tally(trace):
    tally = {"verified": 0, "unverified": 0, "failed": 0}
    for s in trace.steps:
        tally[s.status] += 1
    return tally


def _solve_header(bundle, args):
    return {"graph": bundle.digests["graph"], "patterns": args.patterns,
            "k": args.k, "mode": args.mode, "budget_f1": args.budget_f1,
            "force": args.force, "seed": args.seed}


# which of the solver's decomposition exits record a width, named in the
# trace header: only the wall search's width-bound exit does.  Traces
# written under "min-fill", or without the field, recorded a width at
# every exit (see _replay_widths)
TRACE_WIDTHS = "width-bound"


def cmd_solve(args):
    bundle = InstanceBundle(graph_path=args.graph, pattern_spec=args.patterns,
                            seed=args.seed)
    g = bundle.load_graph()
    fam = bundle.load_patterns()
    budget = _taming_from(args.budget_f1)
    t0 = time.perf_counter()
    out = solve_tm_deletion(g, fam, args.k, budget=budget, mode=args.mode,
                            force=args.force)
    elapsed = time.perf_counter() - t0
    if args.trace:
        _write(args.trace, trace_records(
            {**_solve_header(bundle, args), "widths": TRACE_WIDTHS},
            out.trace.as_records()))
    report = make_report(
        "solve",
        {"bundle": bundle.bundle_hash(), **_solve_header(bundle, args)},
        {"answer": "yes" if out.answer else "no",
         "witness": None if out.witness is None else list(out.witness),
         "steps": len(out.trace)},
        {"mode": args.mode, **_status_tally(out.trace)},
        {"total_s": round(elapsed, 6)})
    return report, EXIT_YES if out.answer else EXIT_NO


def cmd_check_tm(args):
    bundle = InstanceBundle(graph_path=args.graph, pattern_spec=args.pattern)
    g = bundle.load_graph()
    fam = load_patterns(args.pattern)
    if len(fam.patterns) != 1:
        raise ParseError("check-tm takes exactly one pattern, got %d"
                         % len(fam.patterns))
    t0 = time.perf_counter()
    pair = find_tm_model(g, fam.patterns[0])
    elapsed = time.perf_counter() - t0
    outcome = {"outcome": "present" if pair else "absent"}
    if pair:
        outcome["model_vertices"] = len(pair.model.vertices)
    report = make_report(
        "check-tm",
        {"bundle": bundle.bundle_hash(), "graph": bundle.digests["graph"],
         "pattern": args.pattern},
        outcome,
        {"search": "exhaustive rooted-model enumeration"},
        {"total_s": round(elapsed, 6)})
    return report, EXIT_YES if pair else EXIT_NO


def cmd_find_wall(args):
    bundle = InstanceBundle(graph_path=args.graph)
    g = bundle.load_graph()
    t0 = time.perf_counter()
    found = find_wall(g, args.height, c=args.width_factor)
    elapsed = time.perf_counter() - t0
    if isinstance(found, TreeDecomposition):
        outcome = {"branch": "decomposition", "width": found.width,
                   "width_bound": args.width_factor * args.height}
        verification = {"decomposition": "validated"}
    else:
        outcome = {"branch": "wall", "height": found.wall.r,
                   "compass_width": found.compass_tw_certificate.width}
        verification = {"wall": "validated", "compass": "width certified"}
        if args.dot:
            _write(args.dot, export_dot(found.wall))
    report = make_report(
        "find-wall",
        {"bundle": bundle.bundle_hash(), "graph": bundle.digests["graph"],
         "height": args.height, "width_factor": args.width_factor},
        outcome, verification, {"total_s": round(elapsed, 6)})
    return report, EXIT_YES


def cmd_gen_annulus(args):
    t0 = time.perf_counter()
    if args.kind == "disk":
        gr, a = synthetic_disk_host(args.r, args.q, girth=args.girth,
                                    seed=args.seed, noise=args.noise)
        emb_text = emit_embedding(a.embedding, disk=gr.boundary_cycle)
        g = gr.graph
    else:
        a = synthetic_annulus(args.r, args.q, girth=args.girth,
                              seed=args.seed, noise=args.noise)
        emb_text = emit_embedding(a.embedding)
        g = a.embedding.graph
    paths = {"graph": args.out_prefix + ".graph.txt",
             "embedding": args.out_prefix + ".emb.txt",
             "annulus": args.out_prefix + ".ann.txt"}
    _write(paths["graph"], emit_graph(g))
    _write(paths["embedding"], emb_text)
    _write(paths["annulus"], emit_annulus_index(a))
    if args.dot:
        _write(args.dot, export_dot(a))
    elapsed = time.perf_counter() - t0
    bundle = InstanceBundle(graph_path=paths["graph"],
                            embedding_path=paths["embedding"],
                            annulus_path=paths["annulus"], seed=args.seed)
    report = make_report(
        "gen-annulus",
        {"r": args.r, "q": args.q, "girth": args.girth, "seed": args.seed,
         "noise": args.noise, "kind": args.kind},
        {"files": paths, "bundle": bundle.bundle_hash(),
         "vertices": g.n, "edges": g.m},
        {"annulus": "validated on construction"},
        {"total_s": round(elapsed, 6)})
    return report, EXIT_YES


def _load_annulus_bundle(args, need_disk):
    bundle = InstanceBundle(graph_path=args.graph,
                            embedding_path=args.embedding,
                            annulus_path=args.annulus)
    g = bundle.load_graph()
    if need_disk:
        host = bundle.load_disk_host(g)
        a = bundle.load_annulus(host.embedding)
        return bundle, g, host, a
    emb, _ = bundle.load_embedding(g)
    a = bundle.load_annulus(emb)
    return bundle, g, None, a


def cmd_tame(args):
    bundle, g, _, a = _load_annulus_bundle(args, need_disk=False)
    l = parse_linkage(read_text(args.linkage))
    budget = _taming_from(args.budget_f1)
    rails = args.rails
    t0 = time.perf_counter()
    out = tame_linkage(g, a, l, args.band, rails, budget=budget,
                       force=args.force)
    elapsed = time.perf_counter() - t0
    if args.out:
        _write(args.out, emit_linkage(out))
    if args.dot:
        _write(args.dot, export_dot(out))
    report = make_report(
        "tame",
        {"bundle": bundle.bundle_hash(), "linkage": args.linkage,
         "band": args.band, "rails": sorted(rails),
         "budget_f1": args.budget_f1, "force": args.force},
        {"outcome": "tamed", "paths": len(out.paths),
         "confined_vertices": len(out.vertices),
         "unchanged": out is l},
        {"pattern": "preserved", "confinement": "verified",
         "outside_material": "no additions"},
        {"total_s": round(elapsed, 6)})
    return report, EXIT_YES


def cmd_reduce(args):
    bundle, _, host, a = _load_annulus_bundle(args, need_disk=True)
    budget = _taming_from(args.budget_f1)
    params = derive_params(args.k, args.h, budget)
    t0 = time.perf_counter()
    r_set = reduce_solution_space(params, host, a, force=args.force)
    elapsed = time.perf_counter() - t0
    report = make_report(
        "reduce",
        {"bundle": bundle.bundle_hash(), "k": args.k, "h": args.h,
         "budget_f1": args.budget_f1, "force": args.force},
        {"size": len(r_set), "vertices": sorted(r_set)},
        {"safety": "contract sweep available via the library",
         "forced": args.force},
        {"total_s": round(elapsed, 6)})
    return report, EXIT_YES


def _replay_widths(g, records, widths):
    """Replayed records as a solver that wrote the widths header value
    recorded them: a width at every decomposition exit.  Under "min-fill"
    an exit that records none gets the min-fill width of its working
    graph.  Without the field (None) every exit on a working graph of at
    most DEFAULT_EXACT_TW_CAP vertices gets the exact treewidth, and an
    exit above the cap that records none gets the min-fill width.  The
    working graph is the input less the vertices deleted so far."""
    out = []
    deleted = []
    for rec in records:
        if rec["kind"] == "delete_vertex":
            deleted.append(rec["payload"]["vertex"])
        elif (rec["kind"] == "wall"
              and rec["payload"]["branch"] == "decomposition"):
            work = g.delete_vertices(deleted)
            payload = rec["payload"]
            if widths is None and work.n <= DEFAULT_EXACT_TW_CAP:
                payload = {**payload, "width": exact_treewidth(work)[0]}
            elif "width" not in payload:
                payload = {**payload, "width": greedy_treewidth(work).width}
            rec = {**rec, "payload": payload}
        out.append(rec)
    return out


def cmd_verify(args):
    header, steps = parse_trace(read_text(args.trace))
    widths = header.get("widths")
    if widths not in (None, "min-fill", TRACE_WIDTHS):
        raise ParseError("trace header names unknown widths %r" % (widths,))
    bundle = InstanceBundle(graph_path=args.graph,
                            pattern_spec=header["patterns"],
                            seed=header.get("seed"))
    if bundle.digests["graph"] != header["graph"]:
        raise TmhError("graph digest %s does not match the trace header"
                       % bundle.digests["graph"][:12])
    g = bundle.load_graph()
    fam = bundle.load_patterns()
    budget = _taming_from(header.get("budget_f1"))
    t0 = time.perf_counter()
    out = solve_tm_deletion(g, fam, header["k"], budget=budget,
                            mode=header["mode"],
                            force=bool(header.get("force")))
    elapsed = time.perf_counter() - t0
    replayed = out.trace.as_records()
    if widths != TRACE_WIDTHS:
        replayed = _replay_widths(g, replayed, widths)
    matches = replayed == steps
    all_verified = bool(steps) and all(s["status"] == "verified"
                                       for s in steps)
    report = make_report(
        "verify",
        {"bundle": bundle.bundle_hash(), "trace": args.trace,
         "k": header["k"], "mode": header["mode"]},
        {"steps": len(steps), "replayed": len(replayed),
         "statuses_match": matches,
         "all_verified": all_verified and matches},
        {"replay": "identical" if matches else "diverged"},
        {"total_s": round(elapsed, 6)})
    if not matches:
        raise StageFailure("verify", "replay diverged from the trace",
                           report)
    return report, EXIT_YES


def cmd_bench(args):
    fam = load_patterns(args.patterns)
    budget = _taming_from(args.budget_f1)
    rows = []
    laps = []
    agreements = 0
    oracle_runs = 0
    for seed in range(args.seeds):
        g = random_planar_graph(seed, args.n)
        t0 = time.perf_counter()
        out = solve_tm_deletion(g, fam, args.k, budget=budget, mode=args.mode)
        laps.append(round(time.perf_counter() - t0, 6))
        row = {"seed": seed, "n": g.n, "answer": "yes" if out.answer else "no",
               "steps": len(out.trace)}
        if args.oracle:
            agreed = out.answer == (pF_oracle(g, fam, args.k) is not None)
            row["oracle_agrees"] = agreed
            oracle_runs += 1
            agreements += agreed
        rows.append(row)
    verification = {"mode": args.mode}
    if args.oracle:
        verification["oracle_agreements"] = "%d/%d" % (agreements, oracle_runs)
    report = make_report(
        "bench",
        {"patterns": args.patterns, "k": args.k, "n": args.n,
         "seeds": args.seeds, "budget_f1": args.budget_f1,
         "mode": args.mode, "oracle": args.oracle},
        {"rows": rows},
        verification,
        {"per_instance_s": laps, "total_s": round(sum(laps), 6)})
    if args.oracle and agreements != oracle_runs:
        raise StageFailure("bench", "oracle disagreement", report)
    return report, EXIT_YES


def _build_parser():
    parser = _Parser(
        prog="tmh",
        description="Deletion solver for topological-minor pattern families "
                    "on planar graphs, with verified reduction pipelines.",
        epilog="TMH_BUDGET_NODES caps search nodes for every subcommand.")
    sub = parser.add_subparsers(dest="command", required=True)

    def budget_flag(p):
        p.add_argument("--budget-f1", default="default", metavar="SPEC",
                       help="threshold table: default, an even constant, "
                            "a comma table, or a formula like 2k+2")

    p = sub.add_parser("solve", help="decide k-deletion against a family")
    p.add_argument("--graph", required=True)
    p.add_argument("--patterns", required=True,
                   help="comma list of builtin names or graph files")
    p.add_argument("--k", type=int, required=True)
    budget_flag(p)
    p.add_argument("--force", action="store_true",
                   help="run stages below their advisory thresholds")
    p.add_argument("--mode", choices=("safe", "fast"), default="safe")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--trace", metavar="PATH",
                   help="write the line-delimited step log here")
    p.set_defaults(run=cmd_solve)

    p = sub.add_parser("check-tm", help="test one pattern's presence")
    p.add_argument("--graph", required=True)
    p.add_argument("--pattern", required=True)
    p.set_defaults(run=cmd_check_tm)

    p = sub.add_parser("find-wall", help="wall or validated decomposition")
    p.add_argument("--graph", required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--width-factor", type=int, default=DEFAULT_WIDTH_FACTOR)
    p.add_argument("--dot", metavar="PATH")
    p.set_defaults(run=cmd_find_wall)

    p = sub.add_parser("gen-annulus", help="seeded synthetic annulus bundle")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--girth", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise", type=int, default=0)
    p.add_argument("--kind", choices=("disk", "band"), default="disk")
    p.add_argument("--out-prefix", required=True)
    p.add_argument("--dot", metavar="PATH")
    p.set_defaults(run=cmd_gen_annulus)

    p = sub.add_parser("tame", help="confine a linkage to chosen rails")
    p.add_argument("--graph", required=True)
    p.add_argument("--embedding", required=True)
    p.add_argument("--annulus", required=True)
    p.add_argument("--linkage", required=True)
    p.add_argument("--band", type=int, required=True,
                   help="width in cycle levels (odd) of the middle band to "
                   "confine within")
    p.add_argument("--rails", required=True, type=_rail_indices,
                   help="comma list of rail indices")
    budget_flag(p)
    p.add_argument("--force", action="store_true")
    p.add_argument("--out", metavar="PATH", help="write the tamed linkage")
    p.add_argument("--dot", metavar="PATH")
    p.set_defaults(run=cmd_tame)

    p = sub.add_parser("reduce", help="solution-space representatives R")
    p.add_argument("--graph", required=True)
    p.add_argument("--embedding", required=True)
    p.add_argument("--annulus", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--h", type=int, required=True)
    budget_flag(p)
    p.add_argument("--force", action="store_true")
    p.set_defaults(run=cmd_reduce)

    p = sub.add_parser("verify", help="replay a trace and compare statuses")
    p.add_argument("--trace", required=True)
    p.add_argument("--graph", required=True)
    p.set_defaults(run=cmd_verify)

    p = sub.add_parser("bench", help="seeded batch with oracle cross-check")
    p.add_argument("--patterns", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, default=14)
    p.add_argument("--seeds", type=int, default=3)
    budget_flag(p)
    p.add_argument("--mode", choices=("safe", "fast"), default="safe")
    p.add_argument("--oracle", action=argparse.BooleanOptionalAction,
                   default=True)
    p.set_defaults(run=cmd_bench)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    # tm.default_budget applies the cap; a junk value is a usage error
    # before any subcommand runs
    cap = os.environ.get("TMH_BUDGET_NODES")
    if cap is not None:
        try:
            int(cap)
        except ValueError:
            sys.stderr.write("TMH_BUDGET_NODES must be an integer, got %r\n"
                             % (cap,))
            return EXIT_USAGE
    try:
        report, code = args.run(args)
    except ParseError as err:
        sys.stderr.write("parse error: %s\n" % (err,))
        return EXIT_PARSE
    except StageFailure as err:
        if err.report is not None:
            sys.stdout.write(emit_report(err.report))
        sys.stderr.write("failure in %s: %s\n" % (err.stage, err))
        return EXIT_FAIL
    except TmhError as err:
        stage = getattr(err, "stage", args.command)
        sys.stderr.write("failure in %s: %s\n" % (stage, err))
        return EXIT_FAIL
    sys.stdout.write(emit_report(report))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
