"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py [--workload NAME ...]

Run from the root of a checkout.  Checks that

* ``BENCHMARK.json`` is ``spec.BENCHMARK`` and every per-layer metric in
  the spec has a definition;
* two traced runs of a workload report identical deterministic counters;
* in every traced pass, the self times of all spans, each its duration
  minus the part of it that child spans cover, add up to the pass's
  wall time within 1%;
* a hooked name that does not exist is skipped, its metrics are left
  out, and every replaced name is restored after the pass;
* without the package source, ``run.py`` exits non-zero and prints no
  result.

Exits 1 if any check fails.  Takes about two minutes for all workloads.
"""
import argparse
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import run  # sets the BLAS thread variables before numpy loads
import spans
import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# A traced pass's self times must add up to its wall time within this share.
SELF_TIME_TOL = 0.01

COUNTERS = ["sparse.cg_iters", "sparse.cg_solves", "sparse.spmv_calls", "solver.steps",
            "assembly.nnz", "ionic.reference_calls"]


def check_spec():
    problems = []
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    if committed != spec.BENCHMARK:
        problems.append("BENCHMARK.json differs from spec.BENCHMARK; run suite.py")
    defined = set(spans.LAYER_METRICS) | {"trace.overhead_pct"}
    for name, *_ in spec.PER_LAYER:
        if name not in defined:
            problems.append(f"per-layer metric {name} has no definition")
    return problems


def traced_run(workload, seed):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr}")
    return json.loads((OUT / f"{workload}-seed{seed}-trace1.json").read_text())


def interval_self_sum(trace):
    """Sum over spans and leaves of self time, from the interval definition.

    A self time below zero, from children or leaves that claim more time
    than their parent had, counts as zero, so the sum then exceeds the
    wall time."""
    spans_, leaves = trace["spans"], trace["leaves"]
    children = {}
    for i, (_, parent, t0, t1, _) in enumerate(spans_):
        children.setdefault(parent, []).append((t0, t1))
    leaf_seconds = {}
    for parent, _, _, seconds in leaves:
        leaf_seconds[parent] = leaf_seconds.get(parent, 0.0) + seconds
    total = sum(seconds for _, _, _, seconds in leaves)
    for i, (_, _, t0, t1, _) in enumerate(spans_):
        covered, end = 0.0, t0
        for c0, c1 in sorted(children.get(i, [])):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        total += max(0.0, (t1 - t0) - covered - leaf_seconds.get(i, 0.0))
    return total


def check_runs(workload, seed=3):
    problems = []
    records = [traced_run(workload, seed) for _ in range(2)]
    counts = []
    for record in records:
        if not record["result"]["correct"]:
            problems.append(f"{workload}: traced run not correct")
        metrics = record["result"]["metrics"]
        counts.append({c: metrics[c]["value"] for c in COUNTERS if c in metrics})
        for i, p in enumerate(record["passes"]):
            if not p["traced"]:
                continue
            total = interval_self_sum(p["trace"])
            if abs(total - p["wall_s"]) > SELF_TIME_TOL * p["wall_s"]:
                problems.append(f"{workload} pass {i}: self times {total:.6f} s, "
                                f"wall {p['wall_s']:.6f} s")
    if counts[0] != counts[1] or len(counts[0]) != len(COUNTERS):
        problems.append(f"{workload}: counters differ or are missing: {counts}")
    return problems


def hooked_names():
    sites = [site for _, sites, _, _ in spans.HOOKS for site in sites] + [spans.IONIC_SITE]
    return {site: spans._resolve(site) for site in sites}


def check_missing_name():
    workloads = run.import_package()
    before = hooked_names()
    hooks = spans.HOOKS
    spans.HOOKS = [(name, ["monofem.solver:no_such_name"] if name == "sparse.cg" else sites,
                    value, light) for name, sites, value, light in hooks]
    try:
        study = workloads.Study(lambda records: "", [], model="fhn", mode="manufactured",
                                levels=(1 / 8, 1 / 16), dt_rule=1e-5, t_final=1e-4)
        p = run.run_pass(study, study.make_inputs(random.Random(0)), True, ())
    finally:
        spans.HOOKS = hooks
    problems = []
    if any(m.startswith("sparse.cg") for m in p["layers"]):
        problems.append("metrics of a missing hook were reported")
    if p["layers"].get("sparse.spmv_calls", 0) <= 0:
        problems.append("hooks next to a missing one recorded nothing")
    if hooked_names() != before:
        problems.append("a hooked name was not restored")
    return problems


def check_without_source():
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in HERE.glob("*.py"):
        shutil.copy(f, bare / "perfbench")
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sweep_h", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return ["run.py without the package source printed a result or exited 0"]
    return []


def main(argv=None):
    names = [n for n, _ in spec.WORKLOADS]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    problems = check_spec() + check_without_source() + check_missing_name()
    for name in args.workload or names:
        problems += check_runs(name)
        print(f"{name}: checked", flush=True)
    for p in problems:
        print("FAIL " + p)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
