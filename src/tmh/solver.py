"""The deletion pipeline: derived search sizes, solution-space reduction
inside a deep annulus, discovery of a droppable disk, the one-vertex-at-a-
time outer loop, and the bounded-width endgame.

Every step that the theory justifies only at astronomically large
thresholds is cross-checked here, at desk scale, against the brute-force
deletion oracle: in safe mode a vertex is deleted only after the oracle
confirms the answer survives, and runs where that sweep is infeasible are
refused rather than trusted.  The trace records what was verified and
what was merely constructed.
"""

from __future__ import annotations

import itertools

from .graphs import EmbeddingError, Graph, MutableAdjacency, TmhError, is_planar
from .tm import (
    BoundariedGraph,
    BudgetExceeded,
    _is_free,
    compute_folio,
    default_budget,
    f3,
    find_tm_model,
    is_F_free,
    pF_oracle,
)
from .linkage import TamingBudget
from .annulus import (
    annuli_capacity,
    boundaried_at_cycle,
    find_collection_of_annuli,
    rail_geometry,
)
from .decomposition import (
    DEFAULT_WIDTH_FACTOR,
    TreeDecomposition,
    _find_wall,
    greedy_treewidth,
)

# candidate deletion sets examined per block before reduction refuses
DEFAULT_REDUCTION_SWEEP_CAP = 4000
# subsets the brute-force oracle may sweep when certifying one deletion
DEFAULT_ORACLE_SWEEP_CAP = 4000


def _odd_up(v):
    # the annulus machinery wants odd depths; rounding up only adds room
    return v if v % 2 else v + 1


def _subset_count(n, k):
    total = 0
    term = 1
    for i in range(min(n, k) + 1):
        total += term
        term = term * (n - i) // (i + 1)
    return total


class SolverParams:
    """Derived sizes for one (k, h) instance under a threshold budget.

    x is the depth of the outer annulus, y the depth of each inner
    annulus, z how many inner annuli are carved, wall_q the wall height
    that guarantees the carving.  y, z and wall_q need the boundaried
    census and are computed on first use; when the census guard deems
    them infeasible at desk scale the lookup raises instead of lying.
    """

    __slots__ = ("k", "h", "g", "budget", "x",
                 "boundary_size", "folio_detail", "block_width",
                 "_y", "_z", "_wall_q")

    def __init__(self, k, h, budget=None):
        if k < 0:
            raise TmhError("deletion budget must be non-negative, got %r" % (k,))
        if h < 1:
            raise TmhError("pattern size bound must be at least 1, got %r" % (h,))
        self.k = k
        self.h = h
        self.g = h * (h - 1) // 2
        self.budget = budget if budget is not None else TamingBudget()
        base = self.budget.f1(self.g)
        self.boundary_size = base + 1
        self.folio_detail = h + base + 1
        self.block_width = self.budget.f2(self.g) + 3
        self.x = (k + 1) * (h + 1) * self.block_width
        self._y = None
        self._z = None
        self._wall_q = None

    def _census(self):
        return f3(self.boundary_size, self.folio_detail)

    @property
    def y(self):
        if self._y is None:
            self._y = self._census() * ((self.h + 1) * self.block_width + 1)
        return self._y

    @property
    def z(self):
        if self._z is None:
            self._z = self._census() ** (self.h + 1) * self.k * (self.k + 1) + 3
        return self._z

    @property
    def wall_q(self):
        if self._wall_q is None:
            self._wall_q = annuli_capacity(_odd_up(self.x), _odd_up(self.y), self.z)
        return self._wall_q

    def __repr__(self):
        return "SolverParams(k=%d, h=%d, x=%d)" % (self.k, self.h, self.x)


def derive_params(k, h, budget=None):
    """Search sizes for deleting up to k vertices against patterns with at
    most h vertices each, under the given threshold budget."""
    return SolverParams(k, h, budget=budget)


_TRACE_KINDS = ("wall", "annuli", "reduce_space", "irrelevant_area",
                "delete_vertex")
_TRACE_STATUS = ("verified", "unverified", "failed")


class TraceStep:
    """One pipeline event: what happened, its data, and whether an oracle
    confirmed it."""

    __slots__ = ("kind", "payload", "status")

    def __init__(self, kind, payload, status):
        if kind not in _TRACE_KINDS:
            raise TmhError("unknown trace step kind %r" % (kind,))
        if status not in _TRACE_STATUS:
            raise TmhError("unknown trace status %r" % (status,))
        self.kind = kind
        self.payload = dict(payload)
        self.status = status

    def as_record(self):
        return {"kind": self.kind, "status": self.status,
                "payload": dict(self.payload)}

    def __eq__(self, other):
        if not isinstance(other, TraceStep):
            return NotImplemented
        return self.as_record() == other.as_record()

    def __repr__(self):
        return "TraceStep(%r, %s)" % (self.kind, self.status)


class ReductionTrace:
    """Ordered log of pipeline steps; equal traces mean a replay took the
    same decisions on the same data."""

    __slots__ = ("steps",)

    def __init__(self, steps=()):
        self.steps = list(steps)

    def add(self, kind, payload, status="verified"):
        step = TraceStep(kind, payload, status)
        self.steps.append(step)
        return step

    def as_records(self):
        return [s.as_record() for s in self.steps]

    def __len__(self):
        return len(self.steps)

    def __eq__(self, other):
        if not isinstance(other, ReductionTrace):
            return NotImplemented
        return self.as_records() == other.as_records()

    def __repr__(self):
        return "ReductionTrace(%d steps)" % len(self.steps)


class SolveOutcome:
    """Answer to one deletion instance: yes/no, a witness set when one
    was recovered, and the trace of every reduction taken."""

    __slots__ = ("answer", "witness", "trace")

    def __init__(self, answer, witness, trace):
        self.answer = bool(answer)
        self.witness = None if witness is None else tuple(witness)
        self.trace = trace

    def __repr__(self):
        return "SolveOutcome(answer=%s, witness=%r, steps=%d)" % (
            self.answer, self.witness, len(self.trace))


def _bg_without(bg, removed):
    if not removed:
        return bg
    labels = {v: lab for v, lab in bg.labels.items() if v not in removed}
    return BoundariedGraph(bg.graph.delete_vertices(removed), labels)


def reduce_solution_space(params, g, a, force=False,
                          sweep_cap=DEFAULT_REDUCTION_SWEEP_CAP):
    """A small vertex set R deep inside the annulus such that deletion
    sets never need to enter the annulus heart except through R.

    The cycles split into k+1 blocks of h+1 sub-blocks; every candidate
    deletion set drawn from inside a block's first cycle gets a profile,
    the tuple of folios left at the sub-block middle cycles, and one
    least representative per realized profile survives.  R is the union
    of the representatives, clipped to the open disk of the innermost
    cycle.  force accepts an annulus thinner than the partition wants
    by shrinking the sub-blocks; the thresholds are then no longer
    honored and the caller owns verification.
    """
    k, h = params.k, params.h
    block = params.block_width
    t = params.boundary_size
    base = t - 1
    if a.q < t:
        raise TmhError("annulus has %d rails but folio boundaries use %d"
                       % (a.q, t))
    advisory_q = -(-5 * base // 2)
    if a.q < advisory_q and not force:
        raise TmhError("annulus has %d rails, below the advisory %d"
                       % (a.q, advisory_q))
    need_r = (k + 1) * (h + 1) * block
    if a.r < need_r:
        if not force:
            raise TmhError("annulus depth %d is below the %d the block "
                           "partition needs" % (a.r, need_r))
        block = a.r // ((k + 1) * (h + 1))
        if block < 1:
            raise TmhError("annulus depth %d cannot host %d blocks even "
                           "when forced" % (a.r, (k + 1) * (h + 1)))
    if k == 0:
        return frozenset()

    detail = params.folio_detail
    heart = a.cycles.open_disk(a.r)
    chosen = []
    for i in range(1, k + 2):
        first = (i - 1) * (h + 1) * block + 1
        pool = sorted(a.cycles.open_disk(first))
        if _subset_count(len(pool), k) > sweep_cap:
            raise TmhError("candidate sweep over %d vertices with up to %d "
                           "deletions is infeasible at desk scale"
                           % (len(pool), k))
        mids = [first - 1 + (j - 1) * block + (block + 1) // 2
                for j in range(1, h + 2)]
        hosts = [boundaried_at_cycle(g, a, m, t) for m in mids]
        host_vs = [set(bg.graph.vertices) for bg in hosts]
        cache = {}

        def folio_at(idx, removed):
            key = (idx, removed)
            if key not in cache:
                cache[key] = compute_folio(_bg_without(hosts[idx], removed),
                                           t, detail)
            return cache[key]

        reps = {}
        for size in range(k + 1):
            for s in itertools.combinations(pool, size):
                profile = tuple(folio_at(j, frozenset(s) & host_vs[j])
                                for j in range(h + 1))
                if profile not in reps:
                    # first hit in (size, lex) order is the least representative
                    reps[profile] = s
        chosen.extend(reps.values())

    r_set = frozenset(v for s in chosen for v in s) & heart
    try:
        limit = params._census() ** (h + 1) * k * (k + 1)
    except TmhError:
        limit = None
    if limit is not None and len(r_set) > limit:
        raise TmhError("reduced set has %d vertices, above the %d the "
                       "profile count allows" % (len(r_set), limit))
    return frozenset(r_set)


def verify_reduction_safety(g, a, r_set, family, k):
    """Brute-force check of the retargeting contract behind R: whenever
    some deletion set of size at most k rids the graph of a pattern, a
    set that avoids the annulus heart except through R does too.

    Per pattern the sweep looks for a killer restricted to the allowed
    region first; only if none exists does it sweep all sets to hunt for
    a counterexample.  Raises on violation, returns None when safe.
    """
    heart = a.cycles.open_disk(a.r)
    allowed = sorted((set(g.vertices) - set(heart)) | set(r_set))
    everything = sorted(g.vertices)
    for pattern in family.patterns:
        found_allowed = False
        for size in range(min(k, len(allowed)) + 1):
            for s in itertools.combinations(allowed, size):
                if find_tm_model(g.delete_vertices(s), pattern,
                                 budget=default_budget()) is None:
                    found_allowed = True
                    break
            if found_allowed:
                break
        if found_allowed:
            continue
        for size in range(min(k, len(everything)) + 1):
            for s in itertools.combinations(everything, size):
                if find_tm_model(g.delete_vertices(s), pattern,
                                 budget=default_budget()) is None:
                    raise TmhError(
                        "deletion set %r rids the graph of a pattern but no "
                        "set avoiding the annulus heart does" % (sorted(s),))
    return None


def _grid_pattern(rows, cols):
    verts = [(i, j) for i in range(rows) for j in range(cols)]
    edges = []
    for i in range(rows):
        for j in range(cols):
            if j + 1 < cols:
                edges.append(((i, j), (i, j + 1)))
            if i + 1 < rows:
                edges.append(((i, j), (i + 1, j)))
    return Graph(verts, edges)


def verify_minor_model(host, pattern, branch_sets):
    """Check explicit branch sets witness the pattern as a minor of the
    host: non-empty, inside the host, pairwise disjoint, connected, and
    one host edge per pattern edge.  Raises on the first defect."""
    hv = set(host.vertices)
    seen = set()
    for p in sorted(pattern.vertices):
        s = branch_sets.get(p)
        if not s:
            raise TmhError("pattern vertex %r has an empty branch set" % (p,))
        s = set(s)
        if not s <= hv:
            raise TmhError("branch set of %r leaves the host" % (p,))
        if s & seen:
            raise TmhError("branch set of %r overlaps an earlier one" % (p,))
        seen |= s
        if len(host.subgraph(s).connected_components()) != 1:
            raise TmhError("branch set of %r is disconnected" % (p,))
    for u, v in pattern.sorted_edges():
        su, sv = branch_sets[u], branch_sets[v]
        if not any(host.has_edge(x, y) for x in su for y in sv):
            raise TmhError("no host edge joins the branch sets of %r and %r"
                           % (u, v))
    return None


def grid_minor_certificate(a, i, ip, j, jp, geo=None):
    """Branch sets of an (ip-i+1) by (jp-j+1) grid minor inside the disk
    framed by cycles i..ip and rails j..jp: each cell is its crossing
    plus the interiors of the cycle arc to the next rail and the rail
    segment to the next cycle.  Verified against the framed disk before
    returning, so a successful return certifies the disk's width."""
    if not (1 <= i < ip <= a.r):
        raise TmhError("cycle frame %d..%d out of range" % (i, ip))
    if not (1 <= j < jp <= a.q):
        raise TmhError("rail frame %d..%d out of range" % (j, jp))
    geo = geo if geo is not None else rail_geometry(a)
    rows = ip - i + 1
    cols = jp - j + 1
    sets = {}
    for rr in range(rows):
        for cc in range(cols):
            ci, rj = i + rr, j + cc
            piece = set(a.crossings[(ci, rj)])
            if cc + 1 < cols:
                lat = geo.l_path(ci, rj, rj + 1)
                piece.update(lat[1:-1])
            if rr + 1 < rows:
                rad = geo.r_path(ci, ci + 1, rj)
                piece.update(rad[1:-1])
            sets[(rr, cc)] = frozenset(piece)
    region = geo.delta_disk(i, ip, j, jp)
    verify_minor_model(region.subgraph("closed"), _grid_pattern(rows, cols),
                       sets)
    return sets


def find_irrelevant_area(h, g, b, gr, a, budget=None, force=False):
    """A closed disk inside the annulus whose interior the instance can
    afford to lose, framed wide enough to certify a b-by-b grid minor.

    Folios at successive cycles are scanned for a long constant run; the
    disk sits deep inside the first such run, framed by two cycles and b
    adjacent rails past the folio boundary, and never touches the run's
    last cycle.  force drops the depth threshold that the
    stabilization argument wants (the run scan itself still decides) and
    the rail-count advisory; the frame and certificate stay mandatory.
    """
    if b < 2:
        raise TmhError("disk frame needs b >= 2, got %r" % (b,))
    budget = budget if budget is not None else TamingBudget()
    base = budget.f1(g)
    t = base + 1
    block = budget.f2(g) + 3
    run = (h + 1) * block + b + 1
    if a.q < t + b:
        raise TmhError("disk frame wants rails %d..%d but the annulus has %d"
                       % (t + 1, t + b, a.q))
    advisory_q = max(-(-5 * base // 2), base + b)
    if a.q < advisory_q and not force:
        raise TmhError("annulus has %d rails, below the advisory %d"
                       % (a.q, advisory_q))
    if not force:
        need_r = f3(t, h + t) * run
        if a.r < need_r:
            raise TmhError("annulus depth %d is below the %d the "
                           "stabilization argument wants" % (a.r, need_r))
    elif a.r < run:
        raise TmhError("annulus depth %d cannot hold one stabilized run "
                       "of %d cycles" % (a.r, run))

    folios = []
    for ci in range(1, a.r + 1):
        bg = boundaried_at_cycle(gr, a, ci, t)
        folios.append(compute_folio(bg, t, h + t, budget=default_budget()))
    # run lengths computed directly: no reliance on folios shrinking inward
    run_len = [1] * a.r
    for ci in range(a.r - 2, -1, -1):
        if folios[ci] == folios[ci + 1]:
            run_len[ci] = run_len[ci + 1] + 1
    start = None
    for ci in range(a.r):
        if run_len[ci] >= run:
            start = ci + 1
            break
    if start is None:
        raise TmhError("no %d consecutive cycles share a folio within the "
                       "annulus depth %d" % (run, a.r))

    top = start + block * (h + 1)
    bottom = start + run - 2
    geo = rail_geometry(a)
    region = geo.delta_disk(top, bottom, t + 1, t + b)
    grid_minor_certificate(a, top, bottom, t + 1, t + b, geo=geo)
    return region


def _fall_back(trace, reason):
    # the wall branch could not run honestly; the endgame is exact on any
    # graph, so the pass exits to it and trusts nothing it did not check
    trace.add("wall", {"branch": "decomposition", "reason": reason},
              "verified")


def _oracle_feasible(n, k, cap):
    return _subset_count(n, k) <= cap


def _pass_params(k, h, budget, force, params, mode):
    if mode not in ("safe", "fast"):
        raise TmhError("mode must be 'safe' or 'fast', got %r" % (mode,))
    params = params if params is not None else derive_params(k, h, budget)
    if (params.k, params.h) != (k, h) and not force:
        raise TmhError("parameters derived for (k=%d, h=%d) reused for "
                       "(k=%d, h=%d) without force"
                       % (params.k, params.h, k, h))
    return params


def find_irrelevant_vertex(k, h, g, budget=None, force=False, params=None,
                           annuli=None, b=2, family=None, mode="safe",
                           trace=None, oracle_cap=DEFAULT_ORACLE_SWEEP_CAP):
    """One pipeline pass over a planar graph: either a vertex whose
    deletion keeps the k-deletion answer unchanged, or None when the pass
    exits to the bounded-width endgame, the exit recorded in the trace.

    A non-planar graph is refused with EmbeddingError, after the mode and
    parameter checks.  solve_tm_deletion tests planarity once, at entry,
    and runs its later passes without this test, since every graph a pass
    sees is a subgraph of a planar one.

    In safe mode the vertex is returned only after the brute-force
    deletion oracle confirms, for the concrete family being solved, that
    the answer survives its deletion; instances where that sweep is
    infeasible are refused.  In fast mode the vertex is recorded as
    unverified instead.  annuli, when given, must be a pair of a
    disk-embedded host and a pre-built annulus family; injecting
    geometry bypasses the derivation and therefore demands force.
    Steps land in the supplied trace (a fresh one otherwise).
    """
    params = _pass_params(k, h, budget, force, params, mode)
    if not is_planar(g):
        raise EmbeddingError("graph is not planar")
    trace = trace if trace is not None else ReductionTrace()
    return _irrelevant_vertex_pass(k, h, g, params, force=force, annuli=annuli,
                                   b=b, family=family, mode=mode, trace=trace,
                                   oracle_cap=oracle_cap)


def _irrelevant_vertex_pass(k, h, g, params, force, annuli, b, family, mode,
                            trace, oracle_cap):
    # find_irrelevant_vertex on a planar graph with checked parameters
    if annuli is None:
        try:
            wq = params.wall_q
        except TmhError as err:
            return _fall_back(trace, str(err))
        # odd, and at least 5 by annuli_capacity: a height find_wall accepts
        wq_geom = _odd_up(wq)
        try:
            found = _find_wall(g, wq_geom, DEFAULT_WIDTH_FACTOR,
                               greedy_treewidth)
        except BudgetExceeded:
            raise
        except TmhError as err:
            return _fall_back(trace, str(err))
        if isinstance(found, TreeDecomposition):
            trace.add("wall", {"branch": "decomposition",
                               "width": found.width,
                               "width_bound": DEFAULT_WIDTH_FACTOR * wq_geom},
                      "verified")
            return None
        gr = found.compass
        trace.add("wall", {"branch": "wall", "height": found.wall.r,
                           "compass_width": found.compass_tw_certificate.width},
                  "verified")
        try:
            fam = find_collection_of_annuli(_odd_up(params.x),
                                            _odd_up(params.y),
                                            params.z, gr, found.wall)
        except BudgetExceeded:
            raise
        except TmhError as err:
            return _fall_back(trace, str(err))
        trace.add("annuli", {"outer": [fam.outer.r, fam.outer.q],
                             "inner": len(fam.inner)}, "verified")
    else:
        if not force:
            raise TmhError("an injected annulus family bypasses the "
                           "derivation and needs force")
        gr, fam = annuli
        trace.add("annuli", {"outer": [fam.outer.r, fam.outer.q],
                             "inner": len(fam.inner), "injected": True},
                  "unverified")

    # refusals the arguments already decide come before the reduction
    # and the folio scan
    if mode == "safe":
        if family is None:
            raise TmhError("safe mode needs the pattern family to verify "
                           "the vertex against the deletion oracle")
        if not _oracle_feasible(g.n, k, oracle_cap):
            raise TmhError("safe mode refuses: oracle sweep over %d vertices "
                           "with up to %d deletions exceeds the cap %d"
                           % (g.n, k, oracle_cap))

    r_set = reduce_solution_space(params, gr, fam.outer, force=force)
    reduce_status = "unverified"
    if mode == "safe":
        if _oracle_feasible(gr.graph.n, k, oracle_cap):
            verify_reduction_safety(gr.graph, fam.outer, r_set, family, k)
            reduce_status = "verified"
    trace.add("reduce_space", {"size": len(r_set),
                               "vertices": sorted(r_set)}, reduce_status)

    pick = None
    pick_index = None
    for idx, inner in enumerate(fam.inner):
        if not (r_set & inner.cycles.annulus(1, inner.r).vertices):
            pick = inner
            pick_index = idx
            break
    if pick is None:
        if len(r_set) < len(fam.inner):
            raise TmhError("disjoint inner annuli cannot all meet a set "
                           "smaller than their count; geometry is broken")
        raise TmhError("every inner annulus meets the reduced set; the "
                       "forced geometry provides too few annuli")

    region = find_irrelevant_area(h, params.g, b, gr, pick,
                                  budget=params.budget, force=force)
    closed = sorted(set(region.vertices("closed")) & set(g.vertices))
    if not closed:
        raise TmhError("the framed disk contains no vertex of the graph")
    v = closed[0]

    if mode == "safe":
        before = pF_oracle(g, family, k, budget=default_budget()) is not None
        after = pF_oracle(g.delete_vertices([v]), family, k,
                          budget=default_budget()) is not None
        if before != after:
            raise TmhError("vertex %r fails the keep-the-answer check: "
                           "before=%s after=%s" % (v, before, after))
        status = "verified"
    else:
        status = "unverified"

    trace.add("irrelevant_area",
              {"annulus": pick_index, "rails": b,
               "boundary_len": len(region.boundary_cycle),
               "disk_vertices": len(closed), "vertex": v}, status)
    return v


def _min_degree_two(f):
    return all(p.degree(v) >= 2 for p in f.patterns for v in p.vertices)


def _minimal_obstruction(adj, f, budget):
    """An inclusion-minimal vertex set of the MutableAdjacency adj, as a
    sorted tuple, whose induced subgraph still holds a model of some
    pattern of f; adj must hold one.  The scan deletes from adj in place
    and leaves it as it found it.

    The vertices are scanned in sorted order and each is dropped when its
    removal keeps a pattern.  Containment is monotone under vertex
    deletion, so a vertex the scan keeps stays needed as later vertices
    leave, and the result is minimal.  When every pattern has minimum
    degree at least two, every model lies in the 2-core, so a full scan
    drops each vertex outside the 2-core of adj at its turn, and the
    2-core of what is left does not depend on those vertices; the scan
    then starts from the 2-core and returns the same set.  For the same
    reason a vertex that earlier drops left with degree at most one is
    dropped at its turn without a test.
    """
    depth = adj.depth
    peel = _min_degree_two(f)
    if peel:
        adj.delete_leaves()
    for v in sorted(adj.vertices):
        leaf = peel and adj.degree(v) <= 1
        adj.delete(v)
        if not leaf and _is_free(adj, f, budget):
            adj.restore()
    kept = tuple(sorted(adj.vertices))
    adj.restore_to(depth)
    return kept


def bounded_tw_solve(g, f, k, budget=None):
    """Exact decision by a bounded search tree over minimal obstructions.

    An obstruction is a vertex set whose induced subgraph still holds a
    model of some pattern (see _minimal_obstruction).  Every deletion set
    that rids the graph of the family must hit a minimal one, or the
    set's induced subgraph would survive with its pattern, so branching
    on deleting each of its vertices, in sorted order, is exhaustive and
    the answer is exact whatever the width of g.

    The search builds no graph per deletion: it runs on one
    MutableAdjacency of g, deleting a vertex before its branch and
    restoring it after, and the obstruction scan deletes and restores on
    the same adjacency, which the containment tests read directly.
    Every search charges the one shared budget, whose exhaustion raises
    BudgetExceeded rather than answering no.  The witness, when the
    answer is yes, is re-verified on g.delete_vertices before
    returning."""
    budget = budget if budget is not None else default_budget()
    adj = MutableAdjacency(g)

    def search(used, left):
        if _is_free(adj, f, budget):
            return tuple(used)
        if left == 0:
            return None
        for v in _minimal_obstruction(adj, f, budget):
            adj.delete(v)
            hit = search(used + [v], left - 1)
            adj.restore()
            if hit is not None:
                return hit
        return None

    s = search([], k)
    if s is None:
        return SolveOutcome(False, None, ReductionTrace())
    witness = tuple(sorted(s))
    if not is_F_free(g.delete_vertices(witness), f, budget=default_budget()):
        raise TmhError("branching produced %r but the deletion is not "
                       "pattern-free" % (witness,))
    return SolveOutcome(True, witness, ReductionTrace())


def solve_tm_deletion(g, f, k, budget=None, mode="safe", force=False,
                      params=None, annuli=None):
    """Decide whether deleting at most k vertices rids the planar graph
    of every pattern in the family.

    A non-planar graph is refused with EmbeddingError, even when it is
    already free of the family.  Planarity is tested once, here: every
    later pass sees a subgraph of this graph, so the searches look only
    for the family's planar patterns, and a family with none is answered
    yes with the empty witness.  The derived parameters still come from
    the whole family.  The loop strips one irrelevant vertex at a time,
    each deletion oracle-verified in safe mode, until a pass exits to
    the bounded-width endgame, which decides the remainder exactly; the
    witness is lifted back to the original graph.  Injected annuli apply
    to the first pass only.  The outcome carries the full trace.
    """
    if k < 0:
        raise TmhError("deletion budget must be non-negative, got %r" % (k,))
    if mode not in ("safe", "fast"):
        raise TmhError("mode must be 'safe' or 'fast', got %r" % (mode,))
    if not is_planar(g):
        raise EmbeddingError("graph is not planar")
    trace = ReductionTrace()
    h = f.h
    f = f.planar
    if f is None or is_F_free(g, f, budget=default_budget()):
        return SolveOutcome(True, (), trace)

    params = _pass_params(k, h, budget, force, params, mode)
    cur = g
    inject = annuli
    while True:
        out = _irrelevant_vertex_pass(
            k, h, cur, params, force=force, annuli=inject, b=2, family=f, mode=mode,
            trace=trace, oracle_cap=DEFAULT_ORACLE_SWEEP_CAP)
        inject = None
        if out is None:
            tail = bounded_tw_solve(cur, f, k)
            answer, witness = tail.answer, tail.witness
            break
        status = trace.steps[-1].status
        cur = cur.delete_vertices([out])
        trace.add("delete_vertex", {"vertex": out, "remaining": cur.n},
                  status)

    if not answer:
        return SolveOutcome(False, None, trace)
    if witness is not None and is_F_free(g.delete_vertices(witness), f,
                                         budget=default_budget()):
        return SolveOutcome(True, tuple(sorted(witness)), trace)
    # the reduced-graph witness does not transfer: recover one on the
    # original graph when the sweep is feasible, else return answer only
    if _oracle_feasible(g.n, k, DEFAULT_ORACLE_SWEEP_CAP):
        got = pF_oracle(g, f, k, budget=default_budget())
        if got is None:
            raise TmhError("reduced instance answered yes but the oracle "
                           "finds no deletion set on the original graph")
        return SolveOutcome(True, tuple(sorted(got[1])), trace)
    return SolveOutcome(True, None, trace)
