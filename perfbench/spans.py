"""Spans around calls into monofem, recorded from outside the package.

The package imports functions by name (``from .sparse import cg_solve``),
so a hook replaces the name where it is looked up at call time
(``monofem.solver.cg_solve``), not where it is defined.  Hooks are
installed for one pass and removed afterwards.  A hooked name that no
longer exists is skipped; the metrics built on it are then reported as
absent instead of stopping the run.
"""
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

clock = time.perf_counter

ROOT = "pass"


class Tracer:
    """In-memory span log of one pass.

    ``spans`` holds ``[name, parent index, start, end, value]`` records,
    where ``value`` is a per-call count such as CG iterations.  Calls too
    frequent for one record each (the scalar ionic evaluations of the RK4
    reference, millions per study) are summed into ``leaves`` under their
    enclosing span instead.
    """

    def __init__(self):
        self.spans = []
        self.leaves = defaultdict(lambda: [0, 0.0])  # (parent, name) -> [calls, seconds]
        self._stack = [-1]

    def open(self, name):
        i = len(self.spans)
        self.spans.append([name, self._stack[-1], clock(), 0.0, 0])
        self._stack.append(i)
        return i

    def close(self, i, value=0):
        rec = self.spans[i]
        rec[3] = clock()
        rec[4] = value
        self._stack.pop()

    def current(self):
        i = self._stack[-1]
        return self.spans[i][0] if i >= 0 else None

    def add_leaf(self, name, seconds):
        agg = self.leaves[(self._stack[-1], name)]
        agg[0] += 1
        agg[1] += seconds

    def totals(self):
        """Per name: calls, total and self seconds, sum and max of values.

        Self time is a span's duration minus that of its children (spans
        nest strictly: the pass runs on one thread).
        """
        child = [0.0] * len(self.spans)
        for _, parent, t0, t1, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for (parent, _), (_, seconds) in self.leaves.items():
            if parent >= 0:
                child[parent] += seconds
        out = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0, "sum": 0, "max": 0})
        for i, (name, _, t0, t1, value) in enumerate(self.spans):
            t = out[name]
            t["calls"] += 1
            t["total"] += t1 - t0
            t["self"] += t1 - t0 - child[i]
            t["sum"] += value
            t["max"] = max(t["max"], value)
        for (_, name), (calls, seconds) in self.leaves.items():
            t = out[name]
            t["calls"] += calls
            t["total"] += seconds
            t["self"] += seconds
        return out

    def to_json(self):
        return {
            "spans": self.spans,
            "leaves": [[p, n, c, s] for (p, n), (c, s) in self.leaves.items()],
        }


def _spmv_bytes(args, out):
    """CSR traffic of y = A x, computed: values and int64 column indices
    per stored entry, row offsets, x and y per row.  Cache reuse ignored."""
    A = args[0]
    return 16 * getattr(A, "nnz", 0) + 24 * getattr(A, "nrows", 0)


# (span name, lookup sites "module:attr[.attr]", value of one call or None,
#  part of the light set timed in untraced passes)
HOOKS = [
    ("verification.study", ["monofem.verification:convergence_study"], None, False),
    ("mesh.build", ["monofem.verification:build_uniform_mesh", "monofem.mesh:build_uniform_mesh"],
     lambda a, out: getattr(out, "n_nodes", 0), True),
    ("solver.init", ["monofem.solver:MonodomainSolver.__init__"], None, True),
    ("solver.run", ["monofem.solver:MonodomainSolver.run"],
     lambda a, out: getattr(out, "n", 0), True),
    ("solver.step", ["monofem.solver:MonodomainSolver.step"], None, False),
    ("assembly.matrix", ["monofem.solver:assemble_mass", "monofem.solver:assemble_stiffness"],
     lambda a, out: getattr(out, "nnz", 0), False),
    ("assembly.interpolate",
     ["monofem.solver:interpolate_nodal", "monofem.verification:interpolate_nodal"], None, False),
    ("assembly.norm", ["monofem.verification:l2_norm"], None, False),
    ("sparse.csr_build", ["monofem.assembly:from_triplets", "monofem.sparse:from_triplets"],
     None, False),
    ("sparse.cg", ["monofem.solver:cg_solve"],
     lambda a, out: out[1] if isinstance(out, tuple) and len(out) > 1 else 0, False),
    ("sparse.spmv", ["monofem.sparse:spmv", "monofem.solver:spmv", "monofem.assembly:spmv"],
     _spmv_bytes, False),
    ("verification.reference",
     ["monofem.verification:ode_reference", "monofem.verification:discrete_cell_trajectory"],
     None, False),
    ("verification.source",
     ["monofem.verification:ManufacturedProblem.i_app",
      "monofem.verification:ManufacturedProblem.w_source"], None, False),
]

# Ionic evaluations are leaves, named after the span they are called from.
IONIC_SITE = "monofem.ionic:IonicModel.__call__"
IONIC_CONTEXT = {
    "solver.step": "ionic.step",
    "verification.reference": "ionic.reference",
    "verification.source": "ionic.source",
}


def _resolve(site):
    """(owner, attribute, original) for a site, or None if the name is gone."""
    module_name, _, path = site.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for p in parents:
        owner = vars(owner).get(p)
        if owner is None:
            return None
    original = vars(owner).get(attr)
    if original is None:
        return None
    return owner, attr, original


def _span_wrapper(tracer, name, fn, value):
    def wrapper(*args, **kwargs):
        i = tracer.open(name)
        out = None
        try:
            out = fn(*args, **kwargs)
            return out
        finally:
            tracer.close(i, value(args, out) if value is not None and out is not None else 0)

    return wrapper


def _leaf_wrapper(tracer, fn):
    def wrapper(*args, **kwargs):
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.add_leaf(IONIC_CONTEXT.get(tracer.current(), "ionic.other"), clock() - t0)

    return wrapper


@contextmanager
def hooks(tracer, full):
    """Install the light hooks, or all of them if ``full``; yields the set
    of span names that could be installed."""
    patched, installed = [], set()
    try:
        for name, sites, value, light in HOOKS:
            if not (light or full):
                continue
            for site in sites:
                found = _resolve(site)
                if found is None:
                    continue
                owner, attr, original = found
                setattr(owner, attr, _span_wrapper(tracer, name, original, value))
                patched.append(found)
                installed.add(name)
        if full:
            found = _resolve(IONIC_SITE)
            if found is not None:
                owner, attr, original = found
                setattr(owner, attr, _leaf_wrapper(tracer, original))
                patched.append(found)
                installed.update(IONIC_CONTEXT.values())
        yield installed
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


# Per-layer metric -> (span name, statistic of that name in ``Tracer.totals``).
LAYER_METRICS = {
    "sparse.cg_s": ("sparse.cg", "total"),
    "sparse.cg_self_s": ("sparse.cg", "self"),
    "sparse.cg_solves": ("sparse.cg", "calls"),
    "sparse.cg_iters": ("sparse.cg", "sum"),
    "sparse.cg_iters_max": ("sparse.cg", "max"),
    "sparse.spmv_s": ("sparse.spmv", "total"),
    "sparse.spmv_calls": ("sparse.spmv", "calls"),
    "sparse.spmv_gbs_computed": ("sparse.spmv", "gbs"),
    "sparse.csr_build_s": ("sparse.csr_build", "total"),
    "verification.reference_s": ("verification.reference", "total"),
    "verification.source_s": ("verification.source", "total"),
    "verification.study_self_s": ("verification.study", "self"),
    "ionic.reference_calls": ("ionic.reference", "calls"),
    "ionic.reference_s": ("ionic.reference", "total"),
    "ionic.step_calls": ("ionic.step", "calls"),
    "ionic.step_s": ("ionic.step", "total"),
    "solver.steps": ("solver.step", "calls"),
    "solver.step_self_s": ("solver.step", "self"),
    "solver.init_s": ("solver.init", "total"),
    "mesh.build_s": ("mesh.build", "total"),
    "mesh.nodes": ("mesh.build", "sum"),
    "assembly.matrix_s": ("assembly.matrix", "total"),
    "assembly.interpolate_s": ("assembly.interpolate", "total"),
    "assembly.norm_s": ("assembly.norm", "total"),
    "assembly.nnz": ("assembly.matrix", "sum"),
}


def layer_metrics(totals, installed):
    """Per-layer metrics of one traced pass; those whose span could not be
    hooked are left out.  A layer the workload never calls reads 0."""
    out = {}
    for metric, (name, stat) in LAYER_METRICS.items():
        if name not in installed:
            continue
        t = totals.get(name)
        if t is None:
            out[metric] = 0
        elif stat == "gbs":
            out[metric] = t["sum"] / t["total"] / 1e9 if t["total"] > 0 else 0.0
        else:
            out[metric] = t[stat]
    return out
