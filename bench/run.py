"""Benchmark of the tmh solver and taming layers.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--hosts B]

runs one workload in this process, closed loop with one client and no
extra threads: each instance is sent after the previous one returned.
`--workload all` runs every workload, each in its own child process so
that peak memory and module caches belong to one workload.

The benchmark runs the program with `PYTHONHASHSEED=0` and without
`TMH_BUDGET_NODES`, re-executing itself once if its environment differs:
the search visits sets in hash order, so a random hash seed changed node
counts, and with them times, from process to process.

Untraced (`--trace 0`) the run builds the workload's instances three
times, then goes through rounds of instances until S seconds have passed
and reports the end-to-end metrics.  Traced (`--trace 1`) it runs the
same rounds twice, first with the layer wrappers counting search budgets
only and then recording spans, checks that the two passes agree exactly,
writes the spans to `bench/out/` and reports the per-layer metrics.

Every answer is checked outside the timed region; a wrong answer aborts
the run with exit code 1.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "bench", "out")


def _import_program():
    if not os.path.isfile(os.path.join(SRC, "tmh", "__init__.py")):
        sys.exit("bench: no program source at %s" % SRC)
    sys.path.insert(0, SRC)
    global TmhError, workloads, tracer
    from tmh.graphs import TmhError
    import workloads
    import tracer


def _pin_environment(argv):
    """Re-execute this script, replacing the process, unless the hash seed
    is pinned and no node cap is set."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("TMH_BUDGET_NODES", None)
    if env != dict(os.environ):
        sys.stdout.flush()
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)] + argv, env)


def _import_seconds(repeats=5):
    """Median time to import the program, each time in a fresh interpreter,
    so that work moved to import time shows in set-up."""
    code = ("import sys, time; sys.path.insert(0, %r); t = time.perf_counter(); "
            "import tmh.solver, tmh.synth; print(time.perf_counter() - t)" % SRC)
    return statistics.median(
        float(subprocess.run([sys.executable, "-c", code], stdout=subprocess.PIPE,
                             text=True, check=True).stdout)
        for _ in range(repeats))


class Round:
    """Outcome of one round: generation time, summed call time overall and
    per part, and per instance its latency and outcome."""

    def __init__(self, gen_s):
        self.gen_s = gen_s
        self.solve_s = 0.0
        self.part_s = {}
        self.latencies = []
        self.outcomes = []


def _run_round(wl, insts, gen_s, check, tr=None, first_instance=0):
    """Send the instances one after another.  The timed region is the call
    alone; a `TmhError` (budget exhausted, taming failed, or another typed
    refusal) counts as a failed instance at the time it took to fail.
    With a tracer, each outcome also carries the nodes spent and budgets
    exhausted.  Returns the round and the seconds spent checking."""
    rnd = Round(gen_s)
    check_s = 0.0
    for i, inst in enumerate(insts):
        if tr is not None:
            tr.instance = first_instance + i
            since = len(tr.budgets)
        t0 = time.perf_counter()
        try:
            out = wl.solve(inst)
            err = None
        except TmhError as e:
            out, err = None, type(e).__name__
        dt = time.perf_counter() - t0
        rnd.solve_s += dt
        rnd.latencies.append(dt)
        part = inst[0].name
        rnd.part_s[part] = rnd.part_s.get(part, 0.0) + dt
        outcome = [err]
        if tr is not None:
            mode, tr.mode = tr.mode, tracer.OFF
            outcome += tr.budget_counts(since)
        if err is None:
            if check:
                t0 = time.perf_counter()
                wl.check(inst, out)
                check_s += time.perf_counter() - t0
            outcome.append(getattr(out, "answer", None))
        if tr is not None:
            tr.mode = mode
        rnd.outcomes.append(tuple(outcome))
    return rnd, check_s


def _failures(rounds):
    return sum(1 for r in rounds for o in r.outcomes if o[0] is not None)


def _summary(wl, seed, rounds, mode):
    lat = sorted(x for r in rounds for x in r.latencies)
    failed = _failures(rounds)
    kinds = {}
    for r in rounds:
        for o in r.outcomes:
            if o[0] is not None:
                kinds[o[0]] = kinds.get(o[0], 0) + 1
    lines = ["workload %s  seed %d  rounds %d of %d instances  %s"
             % (wl.name, seed, len(rounds), len(rounds[0].latencies), mode),
             "round solve_s  " + " ".join("%.3f" % r.solve_s for r in rounds)]
    for part in sorted(rounds[0].part_s):
        lines.append("part %s solve_s  %.3f s median over rounds" % (
            part, statistics.median([r.part_s[part] for r in rounds])))
    lines.append("latency_p50_ms  %.3f ms  (%d samples)"
                 % (statistics.median(lat) * 1e3, len(lat)))
    if len(lat) >= 100:
        p90 = lat[int(0.9 * len(lat))]
        lines.append("latency_p90_ms  %.3f ms  (%d samples, %d beyond)"
                     % (p90 * 1e3, len(lat), sum(1 for x in lat if x > p90)))
    lines.append("failed_frac  %.4f  (%d of %d%s)" % (
        failed / len(lat), failed, len(lat),
        "".join(", %s %d" % kv for kv in sorted(kinds.items()))))
    return lines


def _build_fixture(wl, hosts, seed, repeats=3):
    """Build the workload's instances `repeats` times; return the last
    build and the median build time."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fixture = wl.fixture(hosts, seed)
        times.append(time.perf_counter() - t0)
    return fixture, statistics.median(times)


def run_untraced(wl, seed, hosts, seconds, import_s):
    fixture, fixture_s = _build_fixture(wl, hosts, seed)
    rounds = []
    t_measure = time.perf_counter()
    j = 0
    while not rounds or time.perf_counter() - t_measure < seconds:
        t0 = time.perf_counter()
        insts = wl.generate(fixture, seed, j)
        gen_s = time.perf_counter() - t0
        rounds.append(_run_round(wl, insts, gen_s, check=True)[0])
        del insts
        j += 1
    metrics = {
        "solve_s": (statistics.median([r.solve_s for r in rounds]), "s"),
        "setup_s": (import_s + fixture_s
                    + statistics.median([r.gen_s for r in rounds]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    lines = _summary(wl, seed, rounds, "untraced")
    return metrics, sum(len(r.latencies) for r in rounds), _failures(rounds), lines


def run_traced(wl, seed, hosts, seconds):
    tr = tracer.Tracer()
    tr.install()
    t_origin = time.perf_counter()
    tr.mode, tr.instance = tracer.SPANS, -1
    fixture = wl.fixture(hosts, seed)
    first = []
    check_s = 0.0
    # pass A: wrappers count budgets only; stop early if the rounds run long
    for j in range(wl.trace_rounds):
        tr.mode, tr.instance = tracer.SPANS, -1
        t0 = time.perf_counter()
        insts = wl.generate(fixture, seed, j)
        gen_s = time.perf_counter() - t0
        tr.mode = tracer.COUNT
        rnd, spent = _run_round(wl, insts, gen_s, check=True, tr=tr,
                                first_instance=j * len(fixture))
        first.append(rnd)
        check_s += spent
        if time.perf_counter() - t_origin >= seconds / 2:
            break
    # pass B: the same rounds with spans on, regenerated so that no lazy
    # state cached on the instances in pass A makes pass B look cheaper
    since = len(tr.budgets)
    second = []
    for j, rnd in enumerate(first):
        tr.mode = tracer.OFF
        insts = wl.generate(fixture, seed, j)
        tr.mode = tracer.SPANS
        second.append(_run_round(wl, insts, rnd.gen_s, check=False, tr=tr,
                                 first_instance=j * len(fixture))[0])
    tr.mode = tracer.OFF
    for j, (a, b) in enumerate(zip(first, second)):
        for i, (x, y) in enumerate(zip(a.outcomes, b.outcomes)):
            if x != y:
                raise workloads.WrongAnswer(
                    "instance %d of round %d gave (error, nodes, budgets "
                    "exhausted, answer) %r, then %r when traced" % (i, j, x, y))
    nodes, exhausted = tr.budget_counts(since)
    attempted = sum(len(r.latencies) for r in second)
    failed = _failures(second)
    values = tr.metrics()
    values.update({
        "tm.nodes": nodes,
        "tm.budget_exhausted": exhausted,
        "tm.pF_oracle.check_s": check_s if wl.uses_oracle else 0.0,
        "failed_frac": failed / attempted,
        "failed_count": failed,
        "trace.overhead_s": (statistics.median([r.solve_s for r in second])
                             - statistics.median([r.solve_s for r in first])),
    })
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, "spans-%s-seed%d.jsonl" % (wl.name, seed))
    tr.write_spans(spans_path, t_origin)
    metrics = {name: (values[name], unit) for name, unit in tracer.per_layer_names()}
    lines = _summary(wl, seed, second, "traced")
    lines.append("spans  %d written to %s" % (len(tr.start), os.path.relpath(spans_path, ROOT)))
    return metrics, attempted, failed, lines


def run_all(args):
    """Each workload in its own child process; exit non-zero if any fails."""
    results = {}
    status = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--hosts", str(args.hosts)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1]) if lines[-1].startswith("{") else None
        status = status or proc.returncode
    print(json.dumps(results))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--hosts", type=int, default=0,
                        help="host seed base of the fixture; 900 is held out")
    args = parser.parse_args(argv)
    _pin_environment(sys.argv[1:] if argv is None else argv)
    _import_program()
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error("unknown workload %r; choose from %s or all"
                     % (args.workload, ", ".join(workloads.WORKLOADS)))
    wl = workloads.WORKLOADS[args.workload]
    try:
        if args.trace:
            metrics, attempted, failed, lines = run_traced(
                wl, args.seed, args.hosts, args.seconds)
        else:
            metrics, attempted, failed, lines = run_untraced(
                wl, args.seed, args.hosts, args.seconds, _import_seconds())
    except workloads.WrongAnswer as err:
        print("bench: wrong answer on %s: %s" % (args.workload, err), file=sys.stderr)
        return 1
    for name, (value, unit) in metrics.items():
        lines.append("%-40s %.6g %s" % (name, value, unit))
    print("\n".join(lines))
    print(json.dumps({
        "correct": True, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
