"""Run one benchmark workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload ladder_ms --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
A run repeats passes of the workload (one ``convergence_study`` call, or
mesh + solver + ``run()`` for ``fine_mesh``) until the next pass would end
after ``--seconds``, and checks every pass.  A pass that fails its check,
or raises ``NoConvergence`` or ``NonFiniteState``, counts as failed.

``--trace 0`` reports the end-to-end metrics of ``spec.END_TO_END`` as
medians over passes, with times scaled to a reference machine speed (see
``speed.py``; the measured times are in the per-pass lines and the run
record).  Only the few calls that set-up and step time need
are hooked.  ``--trace 1`` alternates untraced and fully traced passes
and reports the per-layer metrics of ``spec.PER_LAYER`` as medians over
the traced passes.  It also reports the tracing overhead, and writes
every span to ``perfbench/out``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
import os

# One BLAS thread, set before numpy loads: on a small shared machine a
# threaded 26k-element dot product can cost 100x the serial one.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
import spec  # noqa: E402
import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"


def import_package():
    """Put the checkout's ``src`` first on the path; fail without it."""
    if not (SRC / "monofem" / "__init__.py").is_file():
        sys.exit(f"run.py: no monofem package under {SRC}")
    sys.path.insert(0, str(SRC))
    import workloads

    return workloads


def environment(seed):
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "seed": seed,
    }


def run_pass(workload, inputs, traced, failures):
    tracer = spans.Tracer()
    out, reason = None, ""
    with spans.hooks(tracer, full=traced) as installed:
        t0 = spans.clock()
        root = tracer.open(spans.ROOT)
        try:
            out = workload.solve(inputs)
        except failures as exc:
            reason = f"{type(exc).__name__}: {exc}"
        finally:
            tracer.close(root)
        wall = spans.clock() - t0
    ok, err = False, float("nan")
    if out is not None:
        ok, err, reason = workload.check(inputs, out)
    totals = tracer.totals()
    p = {"traced": traced, "wall_s": wall, "ok": ok, "err_finest": err, "reason": reason}
    if "mesh.build" in installed or "solver.init" in installed:
        p["setup_s"] = sum(totals[n]["total"] for n in ("mesh.build", "solver.init")
                           if n in totals)
    runs = [s for s in tracer.spans if s[0] == "solver.run"]
    if runs and runs[-1][4]:
        _, _, start, end, steps = runs[-1]
        p["step_ms"] = 1000 * (end - start) / steps
    if traced:
        p["layers"] = spans.layer_metrics(totals, installed)
        p["trace"] = tracer.to_json()
    return p


def median_of(passes, key):
    vals = [p[key] for p in passes if key in p]
    return statistics.median(vals) if vals else None


def end_to_end(passes, warmup):
    good = [p for p in passes if p["ok"]] or passes
    checked = [warmup, *passes]
    return {
        "wall_s": median_of(good, "wall_s"),
        "setup_s": median_of(good, "setup_s"),
        "step_ms": median_of(good, "step_ms"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "pass_ratio": sum(p["ok"] for p in checked) / len(checked),
    }


def report(label, p):
    print(f"{label} traced={int(p['traced'])} wall_s={p['wall_s']:.4f} ok={p['ok']} "
          f"err_finest={p['err_finest']:.6e} {p['reason']}", flush=True)


def per_layer(passes):
    traced = [p for p in passes if p["traced"]]
    good = [p for p in traced if p["ok"]] or traced
    values = {}
    for name in good[0]["layers"]:
        values[name] = statistics.median(p["layers"][name] for p in good)
    plain = median_of([p for p in passes if not p["traced"]], "wall_s")
    values["trace.overhead_pct"] = 100 * (median_of(good, "wall_s") / plain - 1)
    return values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[n for n, _ in spec.WORKLOADS])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    workloads = import_package()
    workload = workloads.WORKLOADS[args.workload]
    failures = workloads.solver_failures()
    env = environment(args.seed)
    print("env " + json.dumps(env), flush=True)

    # Untraced passes each draw new inputs, so that the medians average
    # over inputs; traced passes all get the first draw, so that the
    # per-layer counts repeat exactly for a seed.
    rng = random.Random(args.seed)
    first = workload.make_inputs(rng)
    calibration = speed.Calibration()
    deadline = spans.clock() + args.seconds
    # The first pass pays for first-touch allocation; it is checked and
    # counted but not timed.
    calibration.sample()
    warmup = run_pass(workload, first, False, failures)
    report("warm-up", warmup)
    passes = []
    kinds = (False, True) if args.trace else (False,)
    while True:
        traced = kinds[len(passes) % len(kinds)]
        inputs = first if args.trace else workload.make_inputs(rng)
        calibration.sample()
        p = run_pass(workload, inputs, traced, failures)
        passes.append(p)
        report(f"pass {len(passes) - 1}", p)
        if len(passes) < len(kinds):
            continue
        following = kinds[len(passes) % len(kinds)]
        expected = median_of([q for q in passes if q["traced"] == following], "wall_s")
        if spans.clock() + expected > deadline:
            break

    metrics = per_layer(passes) if args.trace else end_to_end(passes, warmup)
    units = {n: u for n, u, *_ in (spec.PER_LAYER if args.trace else spec.END_TO_END)}
    factor = calibration.factor()
    print(f"speed factor {factor:.4f} (kernel median "
          f"{statistics.median(calibration.samples):.5f} s, reference {speed.REFERENCE_S} s)")
    metrics = speed.scale(metrics, units, factor)
    failed = sum(not p["ok"] for p in [warmup, *passes])
    result = {
        "correct": failed == 0,
        "attempted": len(passes) + 1,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()
                    if v is not None},
    }

    OUT.mkdir(exist_ok=True)
    record = {"args": vars(args), "env": env, "result": result, "speed_factor": factor,
              "calibration_s": calibration.samples, "warmup": warmup, "passes": passes}
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
