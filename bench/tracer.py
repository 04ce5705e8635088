"""Layer tracing from outside the program.

`Tracer.install` replaces each listed public function of `tmh` with a
wrapper, under every module name that bound it (a function imported with
`from .tm import find_tm_model` is also replaced as
`tmh.solver.find_tm_model`), so that no call slips past the trace.  A
wrapper records one span per call: name, start, end, parent span and
instance id.  Spans stay in compact arrays in memory and are written out
once, when the run ends.

The tracer has three modes.  `OFF` passes every call straight through.
`COUNT` records only the search budgets that `default_budget` hands out,
which is what the node counts need.  `SPANS` records everything.
"""

import json
import sys
import time
from array import array

import tmh.annulus
import tmh.decomposition
import tmh.graphs
import tmh.linkage
import tmh.solver
import tmh.synth
import tmh.tm

OFF, COUNT, SPANS = 0, 1, 2

# (layer, owner, attribute): the owner is a module, or a class for methods
WRAPPED = [
    ("graphs", tmh.graphs.Graph, "delete_vertices"),
    ("graphs", tmh.graphs, "planar_rotation"),
    ("tm", tmh.tm, "is_F_free"),
    ("tm", tmh.tm, "find_tm_model"),
    ("tm", tmh.tm, "btm_contains"),
    ("tm", tmh.tm, "compute_folio"),
    ("tm", tmh.tm, "pF_oracle"),
    ("decomposition", tmh.decomposition, "exact_treewidth"),
    ("decomposition", tmh.decomposition, "greedy_treewidth"),
    ("decomposition", tmh.decomposition, "find_wall"),
    ("decomposition", tmh.decomposition, "validate_decomposition"),
    ("annulus", tmh.annulus, "boundaried_at_cycle"),
    ("annulus", tmh.annulus, "rail_geometry"),
    ("annulus", tmh.annulus, "sub_annulus"),
    ("linkage", tmh.linkage, "tame_linkage"),
    ("linkage", tmh.linkage, "tame_tm_model"),
    ("linkage", tmh.linkage, "minimal_linkage"),
    ("linkage", tmh.linkage, "classify_terrain"),
    ("linkage", tmh.linkage, "rail_linkage"),
    ("solver", tmh.solver, "find_irrelevant_vertex"),
    ("solver", tmh.solver, "bounded_tw_solve"),
    ("solver", tmh.solver, "reduce_solution_space"),
    ("solver", tmh.solver, "find_irrelevant_area"),
    ("solver", tmh.solver, "verify_reduction_safety"),
    ("synth", tmh.synth, "random_planar_graph"),
]

# functions whose results are counted as hits: a model found, a folio member
HIT_RATIOS = {"tm.find_tm_model": "found_ratio", "tm.btm_contains": "hit_ratio"}

NAMES = ["%s.%s" % (layer, attr) for layer, _, attr in WRAPPED]


def per_layer_names():
    """Every per-layer metric a traced run reports, with its unit."""
    out = []
    for name in NAMES:
        out += [(name + ".calls", "count"), (name + ".s", "s"),
                (name + ".self_s", "s")]
        if name in HIT_RATIOS:
            out.append((name + "." + HIT_RATIOS[name], "ratio"))
    out += [("tm.nodes", "count"), ("tm.budget_exhausted", "count"),
            ("tm.pF_oracle.check_s", "s"), ("failed_frac", "ratio"),
            ("failed_count", "count"), ("trace.spans", "count"),
            ("trace.overhead_s", "s")]
    return out


class Tracer:
    def __init__(self):
        self.mode = OFF
        self.instance = -1
        self.budgets = []
        n = len(NAMES)
        self.calls = [0] * n
        self.hits = [0] * n
        self.incl = [0.0] * n
        self.self_s = [0.0] * n
        # span columns
        self.name = array("i")
        self.parent = array("l")
        self.inst = array("l")
        self.start = array("d")
        self.end = array("d")
        # open spans: indices and the time their children covered
        self._stack = []
        self._child = []

    def install(self):
        """Wrap every listed function and `default_budget` under each name
        that binds them in a loaded `tmh` module."""
        replace = {}
        for fid, (_, owner, attr) in enumerate(WRAPPED):
            fn = getattr(owner, attr)
            wrapper = self._wrap(fid, fn)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
            else:
                replace[id(fn)] = (fn, wrapper)
        fn = tmh.tm.default_budget
        replace[id(fn)] = (fn, self._wrap_budget(fn))
        for modname, mod in list(sys.modules.items()):
            if not (modname == "tmh" or modname.startswith("tmh.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])

    def _wrap_budget(self, fn):
        tracer = self

        def default_budget():
            budget = fn()
            if tracer.mode != OFF:
                tracer.budgets.append(budget)
            return budget
        return default_budget

    def _wrap(self, fid, fn):
        tracer = self
        clock = time.perf_counter
        stack = self._stack
        child = self._child

        def traced(*args, **kwargs):
            if tracer.mode != SPANS:
                return fn(*args, **kwargs)
            idx = len(tracer.start)
            tracer.name.append(fid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.inst.append(tracer.instance)
            tracer.end.append(0.0)
            stack.append(idx)
            child.append(0.0)
            t0 = clock()
            tracer.start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                covered = child.pop()
                dur = t1 - t0
                if child:
                    child[-1] += dur
                tracer.end[idx] = t1
                tracer.calls[fid] += 1
                tracer.incl[fid] += dur
                tracer.self_s[fid] += dur - covered
            if result is not None and result is not False:
                tracer.hits[fid] += 1
            return result
        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__doc__ = fn.__doc__
        return traced

    def budget_counts(self, since=0):
        """Nodes spent and budgets exhausted over the budgets handed out
        from index `since` on."""
        got = self.budgets[since:]
        return (sum(b.used for b in got),
                sum(1 for b in got if b.used > b.limit))

    def metrics(self):
        out = {}
        for fid, name in enumerate(NAMES):
            out[name + ".calls"] = self.calls[fid]
            out[name + ".s"] = self.incl[fid]
            out[name + ".self_s"] = self.self_s[fid]
            if name in HIT_RATIOS:
                ratio = self.hits[fid] / self.calls[fid] if self.calls[fid] else 0.0
                out[name + "." + HIT_RATIOS[name]] = ratio
        out["trace.spans"] = len(self.start)
        return out

    def write_spans(self, path, t_origin):
        """One JSON object per line: name, start and end in seconds since
        `t_origin`, index of the parent span (-1 for none) and instance id
        (-1 for set-up)."""
        with open(path, "w") as fh:
            for i in range(len(self.start)):
                fh.write(json.dumps({
                    "name": NAMES[self.name[i]],
                    "start": round(self.start[i] - t_origin, 7),
                    "end": round(self.end[i] - t_origin, 7),
                    "parent": self.parent[i],
                    "instance": self.inst[i]}) + "\n")
