"""Run every workload untraced and traced, print every metric, write BENCHMARK.json.

    python3 perfbench/suite.py [--seconds N] [--seed N] [--workload NAME ...]

Each run is its own ``run.py`` process.  The table lists the end-to-end
metrics of the untraced run and the per-layer metrics of the traced run,
each with its unit and with times at the reference speed of ``speed.py``,
plus the finest-level error of the last pass.  The
runs are also saved together in ``perfbench/out/suite.json``, and
``BENCHMARK.json`` at the root of the checkout is rewritten from
``spec.BENCHMARK``.  Exits 1 if any run failed or was not correct.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        return None
    record = json.loads((OUT / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return {"result": json.loads(lines[-1]), "env": record["env"],
            "err_finest": record["passes"][-1]["err_finest"]}


def main(argv=None):
    names = [n for n, _ in spec.WORKLOADS]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=int, default=spec.RUN_SECONDS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args(argv)

    runs, ok = {}, True
    for name in args.workload or names:
        runs[name] = {trace: run(name, args.seed, args.seconds, trace) for trace in (0, 1)}
        print(f"== {name} (seed {args.seed}, {args.seconds} s per run)")
        for trace, r in runs[name].items():
            if r is None:
                print(f"  trace={trace}: run failed")
                ok = False
                continue
            res = r["result"]
            ok = ok and res["correct"]
            print(f"  trace={trace}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']}")
            for metric, m in res["metrics"].items():
                print(f"    {metric:28s} {m['value']:>14.7g} {m['unit']}")
        if runs[name][0] is not None:
            print(f"    {'err_finest':28s} {runs[name][0]['err_finest']:>14.7g} 1")

    OUT.mkdir(exist_ok=True)
    (OUT / "suite.json").write_text(json.dumps(runs, indent=1))
    (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.BENCHMARK, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
