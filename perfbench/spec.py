"""What the benchmark measures: workloads, metrics, units and bounds.

``BENCHMARK.json`` at the repository root is this module's ``BENCHMARK``
written out by ``suite.py``; edit here, not there.
"""

RUN_SECONDS = 30

WORKLOADS = [
    ("ladder_ms",
     "criterion-1 ladder, ms model, h=1/8..1/64, dt=h^2: the published-table path and the only "
     "one where the scalar RK4 reference (verification, ionic) is heavy"),
    ("sweep_dt",
     "criterion-7 temporal sweep, fhn, h=1/64, dt=1/40..1/160: stiff solves of ~155 CG iterations, "
     "so sparse takes ~88% of the time"),
    ("sweep_h",
     "criterion-7 spatial sweep, fhn, dt=1e-5, h=1/8..1/32: many small steps, so per-call overhead, "
     "source terms and solver.step self time show"),
    ("fine_mesh",
     "one MonodomainSolver run at h=1/128 (ap, dt=h^2, seeded uniform states): CSR data exceeds L2 "
     "and set-up (mesh, assembly) is a visible share"),
]

# (name, unit, better, bound as a share of the parent's median).  Times
# are scaled to a reference machine speed (speed.py) and still get the
# widest bound allowed: step_ms times only the finest level, and set-up
# is a few short, allocation-heavy calls.
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("step_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("pass_ratio", "1", "higher", 0.01),
]

# (name, unit, better); each is the median over the traced passes of a run,
# with times scaled like the end-to-end ones.
PER_LAYER = [
    ("sparse.cg_s", "s", "lower"),
    ("sparse.cg_self_s", "s", "lower"),
    ("sparse.cg_solves", "count", "lower"),
    ("sparse.cg_iters", "count", "lower"),
    ("sparse.cg_iters_max", "count", "lower"),
    ("sparse.spmv_s", "s", "lower"),
    ("sparse.spmv_calls", "count", "lower"),
    ("sparse.spmv_gbs_computed", "GB/s", "higher"),
    ("sparse.csr_build_s", "s", "lower"),
    ("verification.reference_s", "s", "lower"),
    ("verification.source_s", "s", "lower"),
    ("verification.study_self_s", "s", "lower"),
    ("ionic.reference_calls", "count", "lower"),
    ("ionic.reference_s", "s", "lower"),
    ("ionic.step_calls", "count", "lower"),
    ("ionic.step_s", "s", "lower"),
    ("solver.steps", "count", "lower"),
    ("solver.step_self_s", "s", "lower"),
    ("solver.init_s", "s", "lower"),
    ("mesh.build_s", "s", "lower"),
    ("mesh.nodes", "count", "lower"),
    ("assembly.matrix_s", "s", "lower"),
    ("assembly.interpolate_s", "s", "lower"),
    ("assembly.norm_s", "s", "lower"),
    ("assembly.nnz", "count", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]

BENCHMARK = {
    "command": ["python3", "perfbench/run.py"],
    "paths": ["perfbench"],
    "run_seconds": RUN_SECONDS,
    "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
    "end_to_end": [
        {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
    ],
    "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
}
