import contextlib
import io
import os
import tempfile
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monofem.cli import UsageError, emit_table, main, parse_config
from monofem.verification import ConvergenceRecord


def test_parse_basic_study():
    cfg, out, fmt = parse_config(["study", "--model", "fhn", "--levels", "1/8,1/16", "--t-final", "0.25"])
    assert cfg.model.kind == "fhn"
    assert cfg.mode == "homogeneous"
    assert cfg.levels == (1 / 8, 1 / 16)
    assert cfg.t_final == 0.25
    assert cfg.dt_rule == "h2"
    assert (out, fmt) == (None, "csv")


def test_parse_param_override():
    cfg, _, _ = parse_config(["study", "--model", "ap", "--param", "mu2=0.3"])
    assert cfg.model.params.mu2 == 0.3


def test_parse_rejects_unknown_model():
    with pytest.raises(UsageError) as info:
        parse_config(["study", "--model", "bogus"])
    assert "fhn" in str(info.value)  # message lists the valid models


def test_parse_rejects_unknown_flag_and_bad_values():
    with pytest.raises(UsageError):
        parse_config(["study", "--frobnicate", "1"])
    with pytest.raises(UsageError):
        parse_config(["study", "--levels", "1/16,1/8"])
    with pytest.raises(UsageError):
        parse_config(["study", "--levels", ","])
    with pytest.raises(UsageError):
        parse_config(["study", "--param", "nonsense"])
    with pytest.raises(UsageError):
        parse_config(["study", "--model", "fhn", "--param", "a=1"])
    with pytest.raises(UsageError):
        parse_config(["study", "--diffusion", "1,2,3"])
    with pytest.raises(UsageError):
        parse_config(["study", "--sweep", "timestep"])  # needs manufactured mode


# The manufactured v = exp(-t) C starts below the raised gate wherever C < 0.5,
# and there dt * rho(J) = 10 on the tau_open branch: unstable from the first step.
MANUFACTURED_BELOW_GATE = [
    "--mode", "manufactured", "--model", "ms", "--param", "u_gate=0.5",
    "--param", "tau_open=0.001", "--param", "tau_in=1e300", "--dt", "0.01",
    "--t-final", "5", "--levels", "1/4",
]


def no_compute(cfg):
    raise AssertionError("study ran")


def test_parse_rejects_bad_levels_before_any_compute(monkeypatch):
    # parse_config runs no study, so these are found at parse time.
    import monofem.cli as cli

    monkeypatch.setattr(cli, "convergence_study", no_compute)
    for args in (
        ["--model", "ms", "--levels", "1/8,1/16,1/32,1/64,1/129"],
        ["--model", "ms", "--t-final", "0.3"],
        ["--diffusion", "1,0"],
        MANUFACTURED_BELOW_GATE,  # unstable along the manufactured trajectory
    ):
        with pytest.raises(UsageError):
            parse_config(["study", *args])
        assert main(["study", *args]) == 2


def test_parse_fractional_levels_and_dt():
    cfg, _, _ = parse_config(["study", "--levels", "1/128", "--dt", "1/40"])
    assert cfg.levels == (1 / 128,)
    assert cfg.dt_rule == 1 / 40


RECORDS = [
    ConvergenceRecord(0, 1 / 8, 1 / 64, 16, 0.0153718),
    ConvergenceRecord(1, 1 / 16, 1 / 256, 64, 0.00418786, sroc=1.8763921, troc=0.93819606),
]


def test_emit_csv_paper_cells():
    text = emit_table(RECORDS, "csv")
    lines = text.strip().splitlines()
    assert lines[0] == "level,h,dt,steps,l2_error,sroc,troc"
    first = lines[1].split(",")
    assert first[0] == "0" and first[3] == "16"
    assert first[5] == "" and first[6] == ""  # rate cells empty at level 0
    second = lines[2].split(",")
    assert float(second[5]) == pytest.approx(1.876, abs=1e-3)
    assert float(second[6]) == pytest.approx(0.938, abs=1e-3)


def test_emit_markdown_layout():
    text = emit_table(RECORDS, "md")
    lines = text.strip().splitlines()
    labels = [ln.split("|")[1].strip() for ln in lines]
    assert labels == ["h", "---", "error", "sroc", "troc"]
    assert "-" in lines[3]  # missing first-level rate rendered as dash


def test_emit_errors():
    with pytest.raises(ValueError):
        emit_table([], "csv")
    with pytest.raises(ValueError):
        emit_table(RECORDS, "xml")


def test_emit_single_record():
    text = emit_table(RECORDS[:1], "csv")
    assert text.strip().splitlines()[1].endswith(",,")


def test_main_usage_error_exit_code(capsys):
    assert main(["study", "--model", "bogus"]) == 2
    assert "usage error" in capsys.readouterr().err


def test_main_no_convergence_exit_code(capsys, monkeypatch):
    import monofem.cli as cli
    from monofem.sparse import NoConvergence

    def stalled(cfg):
        raise NoConvergence("stalled", residual=1.0, iterations=1)

    monkeypatch.setattr(cli, "convergence_study", stalled)
    assert main(["study", "--model", "fhn", "--levels", "1/4", "--t-final", "0.0625"]) == 3
    assert "did not converge" in capsys.readouterr().err


@pytest.mark.parametrize("error", [
    MemoryError("Unable to allocate 4.6 GiB for an array with shape (7, 10241, 10241) "
                "and data type float64"),
    MemoryError()], ids=["numpy", "bare"])
def test_main_out_of_memory_exit_code(capsys, monkeypatch, error):
    # A legal level such as 1/4096 asks for several GB of arrays; the run
    # ends with exit 3 and one stderr line, not a traceback.
    import monofem.cli as cli

    def too_large(cfg):
        raise error

    monkeypatch.setattr(cli, "convergence_study", too_large)
    assert main(["study", "--levels", "1/4096", "--t-final", "1/16"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("the run does not fit in memory: ")
    assert captured.err.count("\n") == 1


def test_main_step_count_no_array_can_hold(capsys):
    # dt = 1e-300 takes 2.5e299 steps to T = 0.25: the homogeneous check
    # once ended in numpy's "Maximum allowed dimension exceeded" from the
    # trajectory's np.empty.  It is a usage error that names dt and the
    # step count, found before anything large is allocated.
    tracemalloc.start()
    try:
        assert main(["study", "--levels", "1/8", "--dt", "1e-300"]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert err == "usage error: dt=1e-300 takes 2.5e+299 steps, more than an array can hold\n"
    assert peak < 1e6


EXIT_PATHS = {
    "non-divisible-h": (["--levels", "1/3"], 2),
    "t-final-not-multiple-of-dt": (["--t-final", "0.1", "--dt", "0.03", "--levels", "1/8"], 2),
    "singular-denominator": (
        ["--model", "ap", "--param", "mu2=-0.2", "--levels", "1/8", "--t-final", "1/64"], 3
    ),
    # The homogeneous trajectory overflows in the 11th step, so dt * rho(J) = inf;
    # the run itself once reached cg_solve as a non-finite rhs.
    "ap-trajectory-overflow": (
        ["--model", "ap", "--dt", "1", "--t-final", "16", "--levels", "1/4"], 2
    ),
    "ms-tau-zero": (["--model", "ms", "--param", "tau_in=0"], 2),
    "t-final-overflow": (["--t-final", "1e400"], 2),
    # k rho(J) = 1.47 at the initial data but 5e21 along the trajectory: once a
    # table with l2_error 2.3e10 and exit 0.
    "ms-trajectory-unstable": (
        ["--model", "ms", "--dt", "20", "--t-final", "100", "--levels", "1/4"], 2
    ),
    # At T = 200 the cubic reaction overflows in the 10th step of the cell
    # recursion, so dt * rho(J) = inf; the run itself once reached cg_solve
    # as a non-finite rhs.
    "ms-trajectory-overflow": (
        ["--model", "ms", "--dt", "20", "--t-final", "200", "--levels", "1/4"], 2
    ),
    # k rho(J) = 13.7 > 2: once a table with l2_error 15.3 and exit 0.
    "unstable-reaction-step": (["--dt", "10", "--t-final", "20", "--levels", "1/4"], 2),
    "reaction-jacobian-overflow": (
        ["--model", "ap", "--param", "k=1e300", "--levels", "1/8", "--t-final", "1/64"], 2
    ),
    "manufactured-below-gate-unstable": (MANUFACTURED_BELOW_GATE, 2),
    # 1e160 I is SPD: its check once overflowed in a * c and warned before
    # the exit-3 message.  S = M + k A then overflows and CG breaks down.
    "diffusion-overflow": (
        ["--diffusion", "1e160", "--levels", "1/4,1/8", "--dt", "1/64", "--t-final", "1/64"], 3
    ),
    # The two 1e-320 spacings divided a side to inf, and round(inf) raised
    # OverflowError out of main (exit 1, with a traceback).
    "h-subnormal": (["--levels", "1e-320"], 2),
    "fixed-h-subnormal": (
        ["--mode", "manufactured", "--sweep", "timestep", "--fixed-h", "1e-320", "--levels", "1/40"], 2
    ),
    "h-huge": (["--levels", "1e308"], 2),
    "h-zero": (["--levels", "0"], 2),
    "h-division-by-zero": (["--levels", "1/0"], 2),
    "levels-bad-separator": (["--levels", "1/8;1/16"], 2),
    "t-final-huge": (["--t-final", "1e308"], 2),
    "dt-subnormal": (["--dt", "1e-320"], 2),
    "dt-step-count-unallocatable": (["--levels", "1/8", "--dt", "1e-300"], 2),
    "diffusion-singular": (["--diffusion", "0,1"], 2),
    "param-empty-key": (["--param", "=1"], 2),
    "param-empty": (["--param", ""], 2),
    "format-unknown": (["--format", "xml"], 2),
    # Each sweep once dropped the other sweep's flag unread and ran (exit 0).
    "dt-in-timestep-sweep": (
        ["--mode", "manufactured", "--sweep", "timestep", "--fixed-h", "1/8", "--levels", "1/4,1/8",
         "--t-final", "1/2", "--dt", "0.3"], 2
    ),
    "fixed-h-in-mesh-sweep": (["--levels", "1/4,1/8", "--t-final", "1/16", "--fixed-h", "0.3"], 2),
    # S = M + k A overflows, so CG breaks down in its first iteration.
    "diffusion-huge": (["--levels", "1/8", "--diffusion", "1e308"], 3),
    # A is negligible next to M, and the run succeeds.
    "diffusion-subnormal": (["--levels", "1/8", "--diffusion", "1e-320", "--t-final", "1/64"], 0),
}


# pytest would capture a numpy RuntimeWarning instead of letting it reach
# stderr; the filterwarnings setting in pyproject.toml turns it into a failure.
@pytest.mark.parametrize("args,code", EXIT_PATHS.values(), ids=EXIT_PATHS.keys())
def test_main_exit_codes(capsys, monkeypatch, args, code):
    import monofem.cli as cli

    if code == 2:  # every usage error here is found before any compute
        monkeypatch.setattr(cli, "convergence_study", no_compute)
    assert main(["study", *args]) == code
    err = capsys.readouterr().err
    assert err.count("\n") == (code != 0)  # one-line message, no traceback


@pytest.mark.parametrize("args", [
    # A stable run whose state decays to about 1e-154 by step 507: p.Ap
    # underflowed to 0 and CG reported a breakdown (exit 3).
    ["--dt", "0.5", "--t-final", "300", "--levels", "1/4"],
    # Later the computed and the exact state underflow to 0 on both levels.
    # A zero error has no rate, so both rate columns stay blank.
    ["--dt", "0.5", "--t-final", "600", "--levels", "1/2,1/4"],
], ids=["tiny", "zero"])
def test_main_state_decaying_below_the_normal_range(capsys, args):
    assert main(["study", "--model", "fhn", *args]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.splitlines()[-1].endswith(",,")


def test_main_exit_code_when_reference_does_not_converge(capsys, monkeypatch):
    import monofem.verification as verification
    from monofem.sparse import NoConvergence

    # RK4 runs of 1 and 2 steps over T = 1/16 differ by about 2e-9, not 1e-13.
    monkeypatch.setattr(verification, "REFERENCE_MAX_STEPS", 2)
    args = ["--levels", "1/4", "--t-final", "1/16"]
    cfg, _, _ = parse_config(["study", *args])
    with pytest.raises(NoConvergence, match="cell ODE reference did not converge"):
        verification.convergence_study(cfg)
    assert main(["study", *args]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "reference did not converge" in err  # no traceback


def test_main_exit_code_when_cg_does_not_converge(capsys, monkeypatch):
    import monofem.sparse as sparse

    # No residual reaches 1e-30 of ||b||, so CG stops without converging.
    monkeypatch.setattr(sparse, "DEFAULT_CG_TOL", 1e-30)
    assert main(["study", "--levels", "1/4", "--t-final", "1/16"]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "CG did not converge in" in err  # no traceback


def test_main_unwritable_out_exit_code(tmp_path, capsys):
    out = tmp_path / "missing" / "table.csv"
    assert main(["study", "--levels", "1/4", "--t-final", "1/16", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("usage error: cannot write --out")


def test_main_writes_csv(tmp_path, capsys):
    out = tmp_path / "table.csv"
    code = main(
        [
            "study",
            "--model", "fhn",
            "--levels", "1/4,1/8",
            "--t-final", "0.25",
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "level,h,dt,steps,l2_error,sroc,troc"
    assert len(lines) == 3


def test_csv_deterministic_across_runs(tmp_path):
    args = ["study", "--model", "rm", "--levels", "1/4,1/8", "--t-final", "0.25"]
    outs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        assert main(args + ["--out", str(path)]) == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


# Byte-exact tables: any change to the arithmetic of assembly, the system
# matrix, CG or its preconditioner, or to the formatting, shows up here.
# They were recorded on OpenBLAS's SkylakeX kernel (numpy 2.4.6 with
# scipy-openblas 0.3.31).  manufactured-dt's steps are stiff (k >= 4 h^2),
# so its CG is preconditioned by FastDiag through np.fft.
# Under other kernels (OPENBLAS_CORETYPE=Haswell, for one) ap-ladder and
# fhn-non-dyadic change in the 12th digit of their finest l2_error: both
# are homogeneous studies, and where CG stops follows how BLAS ddot rounds.
GOLDEN = [
    (
        ["--model", "ap", "--levels", "1/8,1/16,1/32", "--t-final", "1/16"],
        "0,0.125,0.015625,4,6.64012411449e-05,,\n"
        "1,0.0625,0.00390625,16,1.67799364291e-05,1.98447,0.992236\n"
        "2,0.03125,0.0009765625,64,4.206394568e-06,1.99608,0.998041\n",
    ),
    (
        ["--mode", "manufactured", "--dt", "1e-4", "--levels", "1/8,1/16", "--t-final", "0.01"],
        "0,0.125,0.0001,100,0.000633774281386,,\n"
        "1,0.0625,0.0001,100,0.000158782187802,1.99692,\n",
    ),
    (
        ["--mode", "manufactured", "--sweep", "timestep", "--fixed-h", "1/16",
         "--levels", "1/20,1/40", "--t-final", "0.25", "--model", "rm"],
        "0,0.0625,0.05,5,0.0205808896021,,\n"
        "1,0.0625,0.025,10,0.0101014394644,,1.02674\n",
    ),
    # h = 1/10 and 1/20 are not dyadic: linspace nodes give each diagonal
    # several values over the interior, so every product multiplies by
    # stretches of the stored diagonals.
    (
        ["--model", "fhn", "--levels", "1/10,1/20", "--t-final", "1/20"],
        "0,0.1,0.01,5,9.34746606963e-06,,\n"
        "1,0.05,0.0025,20,2.27884441598e-06,2.03627,1.01814\n",
    ),
]


@pytest.mark.parametrize("args,rows", GOLDEN,
                         ids=["ap-ladder", "manufactured-mesh", "manufactured-dt", "fhn-non-dyadic"])
def test_golden_csv(tmp_path, args, rows):
    path = tmp_path / "table.csv"
    assert main(["study", *args, "--out", str(path)]) == 0
    assert path.read_bytes() == ("level,h,dt,steps,l2_error,sroc,troc\n" + rows).encode()


# Numbers as the CLI reads them: coarse valid values, and hostile ones
# (not finite, subnormal, huge, zero, negative, empty, unparsable, unicode
# digits).  Valid levels are 1/2..1/8 and valid times at most 1, so a run
# takes well under a second.
HOSTILE = ["nan", "inf", "-inf", "1e-320", "1e308", "1e400", "1/0", "0", "-1/4", "", " ",
           "x", "1/3", "١/٨", "½"]
SPACINGS = ["1/2", "1/4", "1/8", "0.25", "0.125"]
TIMES = ["1/16", "1/8", "0.25", "1/2", "1"]
PARAMS = ["k", "a", "eps0", "mu1", "mu2", "tau_in", "tau_out", "tau_open", "tau_close",
          "u_gate", "bogus", ""]


def number(valid):
    return st.sampled_from(valid) | st.sampled_from(HOSTILE)


@st.composite
def study_arguments(draw):
    """A `monofem study` argument list: flags in any order, each with a
    valid or hostile value, sometimes a stray token."""
    levels = st.lists(number(SPACINGS + TIMES), min_size=1, max_size=3).map(",".join)
    flags = {
        "--model": st.sampled_from(["fhn", "rm", "ap", "ms", "FHN", "bogus", ""]),
        "--mode": st.sampled_from(["homogeneous", "manufactured", "bogus"]),
        "--sweep": st.sampled_from(["mesh", "timestep", "bogus"]),
        "--levels": levels | st.sampled_from(["1/4;1/8", "1/8,1/4", ","]),
        "--t-final": number(TIMES),
        "--dt": st.just("h2") | number(TIMES + ["1/64"]),
        "--fixed-h": number(SPACINGS),
        "--diffusion": st.sampled_from(["1", "1,2", "0.5,2", "1e160", "1e308", "1e-320", "0,1",
                                        "-1", "1,2,3", "nan", ""]),
        "--param": st.tuples(st.sampled_from(PARAMS), number(["0.1", "2", "150"])).map("=".join)
                   | st.sampled_from(["nonsense", "=1", ""]),
        "--format": st.sampled_from(["csv", "md", "xml"]),
        "--out": st.sampled_from(["table", "missing/table"]),
    }
    chosen = draw(st.lists(st.sampled_from(sorted(flags)), max_size=6))
    args = [token for flag in chosen for token in (flag, draw(flags[flag]))]
    stray = draw(st.sampled_from([None, "--frobnicate", "extra", "-x"]))
    if stray is not None:
        args.insert(draw(st.integers(0, len(args))), stray)
    # The default levels reach h = 1/64; keep every run coarse.
    if "--levels" not in chosen:
        args += ["--levels", "1/4"]
    return args


@given(study_arguments())
@settings(deadline=None)  # each example takes milliseconds, up to about 0.1 s
def test_main_contract_on_random_arguments(args):
    # Exit 0, 2 or 3 and never an exception; one stderr line on a non-zero
    # exit and none on exit 0.  A warning would reach stderr (pytest turns
    # a RuntimeWarning into an error instead).
    with tempfile.TemporaryDirectory() as tmp:
        args = [os.path.join(tmp, a) if a.endswith("table") else a for a in args]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["study", *args])
    assert code in (0, 2, 3)
    assert err.getvalue().count("\n") == (code != 0)
