"""The two workloads: instance sets, the timed call, and the correctness
check of each answer.

Each workload joins two instance sets, its "parts".  Identical work took
up to 1.6 times as long from one 20-second stretch to the next on a
shared 2-vCPU machine, so the four parts are paired into two workloads,
each measuring long enough to average some of that out:

- `deletion` is `planar_mix` plus `sparse_yes`: safe-mode
  `solve_tm_deletion` on small planar hosts, mostly no-answers with exact
  treewidth on the first, mostly yes-answers with greedy treewidth and
  witness lifting on the second;
- `geometry` is `forced_pipeline` plus `taming`: the injected-annulus
  pipeline through folios and `find_wall`, and the `tmh.linkage` taming
  calls that no solver path reaches.

Each workload is the "no change" side for the other's layers.  The run
prints the time of each part on its own.

A workload is an endless sequence of rounds.  `fixture(hosts, seed)`
builds the instances once per run, from the host seed base `hosts`
(base 0 gives the instance sets named in each part) and the benchmark
seed; `generate(fixture, seed, j)` makes round j: the same instances in
an order drawn from the seed and j.  The solver hosts do not depend on
the seed.  Their search cost depends strongly on the exact hosts and even
on how their vertices are numbered: fresh random hosts per round differed
threefold in time, and renumbering the vertices at random moved a
round's search nodes fourfold.  A held-out pool is chosen with `hosts`
instead.  The timed call is the solver or taming call alone; generation
and checks run outside it.  Calls go through module attributes
(`solver.solve_tm_deletion`, not a name bound at import), so that a
traced run sees them.

Every call runs at the program's default search budget, and every
instance finishes: none ends in a `TmhError`.
"""

import random

from tmh import annulus, linkage, solver, synth, tm
from tmh.graphs import Graph
from tmh.linkage import TamingBudget
from tmh.tm import BUILTIN_PATTERNS, DEFAULT_BUDGET_NODES, PatternFamily, SearchBudget

import plants

K3, K4, K23, C4 = (BUILTIN_PATTERNS[name]() for name in ("K3", "K4", "K23", "C4"))
ZERO = TamingBudget(f1=lambda k: 0)


class WrongAnswer(Exception):
    """An output of the program failed the benchmark's check."""


class Deletion:
    """Shared by the two solver parts: an instance is (graph, family, k)
    and the call is a safe-mode `solve_tm_deletion`."""

    uses_oracle = True

    def fresh(self, inst):
        """A copy on a new host object, so that no state cached on a host
        carries over from an earlier round."""
        g, family, k = inst
        return g.relabel({v: v for v in g.vertices}), family, k

    def solve(self, inst):
        g, family, k = inst
        return solver.solve_tm_deletion(g, family, k, mode="safe")

    def check(self, inst, out):
        """The answer must match the exhaustive oracle; a returned witness
        must have at most k host vertices and leave the graph pattern-free."""
        g, family, k = inst
        expect = tm.pF_oracle(g, family, k, budget=SearchBudget(DEFAULT_BUDGET_NODES))
        if out.answer != (expect is not None):
            raise WrongAnswer("answer %s, oracle %s" % (out.answer, expect))
        if out.answer and out.witness is not None:
            w = set(out.witness)
            if len(w) > k or not w <= set(g.vertices):
                raise WrongAnswer("witness %r is not a set of at most %d host "
                                  "vertices" % (out.witness, k))
            if not tm.is_F_free(g.delete_vertices(w), family,
                                budget=SearchBudget(DEFAULT_BUDGET_NODES)):
                raise WrongAnswer("deleting witness %r leaves a pattern"
                                  % (out.witness,))


class PlanarMix(Deletion):
    """Acceptance check 1's hosts, trimmed to a pool a round can solve:
    the small hosts base .. base+6 (n = 12 + seed % 7, one of the seven
    families by seed % 7) and the large hosts base+100 .. base+102
    (n = 19 + seed % 4, the three large families in turn), each with k in
    {0, 1, 2}.  The families {K2,3} and {K2,3, C4} run at k = 0 only: at
    k >= 1 their search outlasts a 200,000-node budget and, uncapped,
    takes more than 20 s per instance.  26 instances."""

    name = "planar_mix"
    FAMILIES = [PatternFamily(f) for f in
                ([K3], [K4], [K23], [C4], [K3, K4], [K23, C4], [K3, K4, K23, C4])]
    LARGE = [PatternFamily(f) for f in ([K3], [K3, K4, K23, C4], [K3, K4])]
    K0_ONLY = (FAMILIES[2], FAMILIES[5])

    def build(self, hosts, seed):
        pool = []
        for s in range(hosts, hosts + 7):
            pool.append((synth.random_planar_graph(s, 12 + s % 7),
                         self.FAMILIES[s % 7]))
        for i in range(3):
            s = hosts + 100 + i
            pool.append((synth.random_planar_graph(s, 19 + s % 4), self.LARGE[i]))
        return [(g, f, k) for g, f in pool for k in (0, 1, 2)
                if k == 0 or f not in self.K0_ONLY]


class SparseYes(Deletion):
    """Trees with a few chords, where most answers are yes: host seeds
    base and base+1 at n in {16, 20, 24}, built as
    random_planar_graph(seed, n, tries=n // 8), with families {K3}, {C4}
    and {K3, K4, K2,3, C4} and k in {1, 2, 3}: 54 instances.  The hosts
    are smaller than n in {24, 32, 40}, where one host's instances took
    several seconds."""

    name = "sparse_yes"
    FAMILIES = [PatternFamily(f) for f in ([K3], [C4], [K3, K4, K23, C4])]

    def build(self, hosts, seed):
        pool = []
        for s in (hosts, hosts + 1):
            for n in (16, 20, 24):
                g = synth.random_planar_graph(s, n, tries=n // 8)
                pool += [(g, f, k) for f in self.FAMILIES for k in (1, 2, 3)]
        return pool


class ForcedPipeline:
    """The injected-geometry pipeline, the only path through annuli,
    reduction, irrelevant area, deletion and the wall search: one solve on
    synthetic_disk_host(25, 3, seed=base+1, noise=2), the second host of
    the forced-pipeline tests at base 0.  The host is rebuilt every round,
    since the solve is handed its embedding."""

    name = "forced_pipeline"
    uses_oracle = False
    FAMILY = PatternFamily([Graph(range(2), [(0, 1)])])
    KINDS = ["annuli", "reduce_space", "irrelevant_area", "delete_vertex", "wall"]

    def build(self, hosts, seed):
        return [hosts + 1]

    def fresh(self, host_seed):
        gr, full = annulus.synthetic_disk_host(25, 3, seed=host_seed, noise=2)
        fam = annulus.AnnulusFamily(annulus.sub_annulus(full, 1, 3),
                                    [annulus.sub_annulus(full, 7, 25)])
        return gr, fam

    def solve(self, inst):
        gr, fam = inst
        return solver.solve_tm_deletion(
            gr.graph, self.FAMILY, 0, budget=ZERO, mode="safe", force=True,
            annuli=(gr, fam), params=solver.derive_params(0, 2, ZERO))

    def check(self, inst, out):
        kinds = [step.kind for step in out.trace.steps]
        if out.answer is not False or out.witness is not None or kinds != self.KINDS:
            raise WrongAnswer("forced pipeline gave answer %r, witness %r, "
                              "trace %r" % (out.answer, out.witness, kinds))


class Taming:
    """Acceptance checks 4 and 5: per annulus of the 50-annulus matrix, one
    `tame_linkage` of its planted linkage and one `tame_tm_model` of its
    planted model.  The eight annuli of depth 11 have too thin a band for
    the model to be tamed, and refuse it with `TameFailed` (six of eight
    at seed 0), so they contribute their linkage only: 92 operations.
    Annulus seeds are base + 1000*seed + 7q + noise; seed 0 at base 0 is
    the acceptance fixture.  The taming calls leave their inputs alone, so
    every round reuses them."""

    name = "taming"
    uses_oracle = False

    def build(self, hosts, seed):
        out = []
        rows = plants.build_matrix(hosts + 1000 * seed)
        for idx, (full, band, R, q, m) in enumerate(rows):
            g = full.embedding.graph
            mid = (q + 1) // 2 + 1
            inside = plants.band_vertices(R, m)
            out.append(("linkage", g, band, mid, inside,
                        plants.linkage_plant(full, R, q, m, idx % 4)))
            if R > 11:
                out.append(("model", g, band, mid, inside,
                            plants.model_plant(R, q, m, idx % 5)))
        return out

    def fresh(self, inst):
        return inst

    def solve(self, inst):
        kind, g, band, mid, _, planted = inst
        tame = linkage.tame_linkage if kind == "linkage" else linkage.tame_tm_model
        return tame(g, band, planted, 1, (mid,), budget=ZERO)

    def check(self, inst, out):
        kind, g, band, mid, inside, planted = inst
        if kind == "linkage":
            ends = lambda l: {frozenset((p[0], p[-1])) for p in l.paths}
            ok = (ends(out) == ends(planted)
                  and not {v for p in out.paths for v in (p[0], p[-1])} & inside
                  and out.vertices - inside <= planted.vertices
                  and {e for e in out.edges if not set(e) & inside} <= planted.edges
                  and band.confines(out.union_graph(), 1, (mid,)))
        else:
            ok = (out.branches == planted.branches
                  and tm.dissolve(out) == tm.dissolve(planted)
                  and band.confines(out.model, 1, (mid,))
                  and set(out.model.vertices) - inside <= set(planted.model.vertices))
        if not ok:
            raise WrongAnswer("tamed %s violates a taming conclusion" % kind)


class Workload:
    """Rounds over the instances of its parts; an instance is (part,
    payload)."""

    def __init__(self, name, parts, trace_rounds):
        self.name = name
        self.parts = parts
        self.trace_rounds = trace_rounds
        self.uses_oracle = any(p.uses_oracle for p in parts)

    def fixture(self, hosts, seed):
        return [(p, x) for p in self.parts for x in p.build(hosts, seed)]

    def generate(self, fixture, seed, j):
        insts = [(p, p.fresh(x)) for p, x in fixture]
        random.Random(seed * 1_000_003 + j).shuffle(insts)
        return insts

    def solve(self, inst):
        return inst[0].solve(inst[1])

    def check(self, inst, out):
        inst[0].check(inst[1], out)


WORKLOADS = {w.name: w for w in (
    Workload("deletion", [PlanarMix(), SparseYes()], trace_rounds=2),
    Workload("geometry", [ForcedPipeline(), Taming()], trace_rounds=1))}
