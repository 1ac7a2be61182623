"""Command-line entry point and table emission.

``monofem study`` runs a convergence study and writes the resulting table
as CSV or markdown.  Exit codes: 0 success; 2 usage error (bad flags or
values, ``--dt`` outside a mesh sweep or ``--fixed-h`` outside a timestep
sweep, a spacing or time step that does not divide the domain or the
final time, a time step too large for the explicit reaction step along
the homogeneous or the manufactured trajectory, an unwritable ``--out``);
3 the solver failed (CG did not converge, stalled or broke down, the
homogeneous reference did not converge, or the state became
non-finite) or the run did not fit in memory (a ``MemoryError``, which
numpy raises when it cannot allocate an array).  Every usage error except
an unwritable ``--out`` is reported before any computation starts.
"""
from __future__ import annotations

import argparse
import sys
from fractions import Fraction

import numpy as np

from .assembly import DiffusionTensor, NonFiniteValue
from .ionic import SingularDenominator, make_model
from .solver import NonFiniteState
from .sparse import NoConvergence
from .verification import ConvergenceRecord, StudyConfig, convergence_study

CSV_COLUMNS = "level,h,dt,steps,l2_error,sroc,troc"


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # raise instead of sys.exit
        raise UsageError(message)


def _number(text: str) -> float:
    """A decimal or a fraction like 1/128, as the nearest float."""
    try:
        return float(Fraction(text))
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise UsageError(f"cannot parse {text!r} as a finite number") from exc


def _build_parser() -> _Parser:
    parser = _Parser(prog="monofem", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    study = sub.add_parser("study", help="run a convergence study")
    study.add_argument("--model", default="fhn")
    study.add_argument("--mode", default="homogeneous", choices=["homogeneous", "manufactured"])
    study.add_argument("--levels", default="1/8,1/16,1/32,1/64",
                       help="comma-separated h values (or dt values for --sweep timestep); fractions like 1/128 accepted")
    study.add_argument("--t-final", default="0.25")
    study.add_argument("--dt", help="mesh sweep only: 'h2' for dt = h^2, or a fixed time step")
    study.add_argument("--diffusion", default="1.0", help="scalar sigma or diagonal 'a,b'")
    study.add_argument("--param", action="append", default=[], metavar="KEY=VALUE",
                       help="ionic model parameter override (repeatable)")
    study.add_argument("--out", default=None)
    study.add_argument("--format", default="csv", choices=["csv", "md"])
    study.add_argument("--sweep", default="mesh", choices=["mesh", "timestep"])
    study.add_argument("--fixed-h", help="timestep sweep only: the mesh spacing")
    return parser


def parse_config(argv) -> tuple[StudyConfig, str | None, str]:
    """Resolve command-line arguments into (study config, output path, format).

    Only turns text into values; ``StudyConfig`` checks them before any compute.

    Raises:
        UsageError: unknown flags, bad values, or inconsistent settings.
    """
    ns = _build_parser().parse_args(list(argv))

    params = {}
    for item in ns.param:
        if "=" not in item:
            raise UsageError(f"--param expects KEY=VALUE, got {item!r}")
        key, _, val = item.partition("=")
        params[key.strip()] = _number(val.strip())

    diffusion = [_number(p) for p in ns.diffusion.split(",") if p.strip()]
    if len(diffusion) not in (1, 2):
        raise UsageError(f"--diffusion expects 'sigma' or 'a,b', got {ns.diffusion!r}")

    # Each sweep reads one of --dt and --fixed-h; StudyConfig owns their defaults.
    flag, unread = ("--dt", ns.dt) if ns.sweep == "timestep" else ("--fixed-h", ns.fixed_h)
    if unread is not None:
        raise UsageError(f"{flag} does not apply to a {ns.sweep} sweep")
    given = {}
    if ns.dt is not None:
        given["dt_rule"] = ns.dt if ns.dt == "h2" else _number(ns.dt)
    if ns.fixed_h is not None:
        given["fixed_h"] = _number(ns.fixed_h)

    try:
        cfg = StudyConfig(
            model=make_model(ns.model, **params),
            mode=ns.mode,
            levels=[_number(tok) for tok in ns.levels.split(",") if tok.strip()],
            t_final=_number(ns.t_final),
            diffusion=DiffusionTensor.diagonal(diffusion[0], diffusion[-1]),  # 'sigma' sets both
            sweep=ns.sweep,
            **given,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return cfg, ns.out, ns.format


def _fmt(value, pattern="%.12g") -> str:
    return "" if value is None else pattern % value


def emit_table(records: list[ConvergenceRecord], fmt: str = "csv") -> str:
    """Render study records as CSV (one row per level) or a markdown table
    laid out like the published one (h row, error row, sroc row, troc row)."""
    if not records:
        raise ValueError("no records to emit")
    if fmt == "csv":
        lines = [CSV_COLUMNS]
        for r in records:
            lines.append(
                f"{r.level},{_fmt(r.h)},{_fmt(r.dt)},{r.steps},"
                f"{_fmt(r.l2_error)},{_fmt(r.sroc, '%.6g')},{_fmt(r.troc, '%.6g')}"
            )
        return "\n".join(lines) + "\n"
    if fmt == "md":
        def row(label, cells):
            return "| " + " | ".join([label] + cells) + " |"

        def rate(x):
            return "-" if x is None else "%.6g" % x

        lines = [
            row("h", [_fmt(r.h) for r in records]),
            row("---", ["---"] * len(records)),
            row("error", [_fmt(r.l2_error) for r in records]),
            row("sroc", [rate(r.sroc) for r in records]),
            row("troc", [rate(r.troc) for r in records]),
        ]
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        cfg, out, fmt = parse_config(argv)
        # Overflow ends in NonFiniteState or NoConvergence; its warnings are noise.
        with np.errstate(over="ignore", invalid="ignore"):
            records = convergence_study(cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (NoConvergence, NonFiniteState, NonFiniteValue, SingularDenominator) as exc:
        print(f"solver did not converge or went non-finite: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"the run does not fit in memory: {exc or 'allocation failed'}", file=sys.stderr)
        return 3
    text = emit_table(records, fmt)
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"usage error: cannot write --out: {exc}", file=sys.stderr)
            return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
