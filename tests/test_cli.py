import argparse
import cmath
import collections
import contextlib
import functools
import hashlib
import io
import json
import math
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qrh.cli as cli_module
from qrh.bps import structure_from_dict
from qrh.cli import EVAL_FUNCTIONS, main, parse_arg, parse_complex, parse_vector
from qrh.cli import EX_USAGE, FORMATS, CliError, read_argv
from qrh.rhsolver import RHInstance
from qrh.suites import SUITES, run_suite


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# literal grammar


def test_parse_complex_forms():
    assert parse_complex("1.5") == 1.5
    assert parse_complex("2i") == 2j
    assert parse_complex("1+2i") == 1 + 2j
    assert parse_complex("-0.5-0.25i") == -0.5 - 0.25j
    assert parse_complex("i") == 1j
    assert parse_complex("-i") == -1j
    assert parse_complex("3,4") == 3 + 4j
    assert parse_complex("1+2j") == 1 + 2j


def test_parse_complex_malformed():
    for bad in ("zz", "1+2", "1,2,3", "", "1..2"):
        with pytest.raises(CliError) as ei:
            parse_complex(bad)
        assert ei.value.code == 65


def test_parse_vector():
    assert parse_vector("1,1") == (1 + 0j, 1 + 0j)
    assert parse_vector("1+2i,0.5") == (1 + 2j, 0.5 + 0j)


KINDS = ("int", "complex", "vector", "side", "bps", "axis", "annulus")
# fragments that recombine into near-valid tokens of every kind
FRAGMENTS = ["1", "-2.5", "0", "nan", "inf", "1e400", "i", "+", "-", ",", ":", "x", " ", "1_0"]


def _is_finite_typed(kind, v) -> bool:
    if kind == "int":
        return type(v) is int
    if kind == "complex":
        return isinstance(v, complex) and cmath.isfinite(v)
    if kind == "vector":
        return len(v) > 0 and all(isinstance(x, complex) and cmath.isfinite(x) for x in v)
    if kind == "side":
        return v in (1, -1)
    if kind == "bps":
        return isinstance(v, RHInstance)
    # axis (min, max, n) and annulus (rmin, rmax, nr, nphi)
    return all(math.isfinite(x) for x in v[:2]) and all(type(n) is int and n >= 1 for n in v[2:])


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    text=st.one_of(st.text(), st.lists(st.sampled_from(FRAGMENTS), max_size=8).map("".join)),
)
def test_parse_arg_is_finite_value_or_cli_error(kind, text):
    try:
        value = parse_arg(kind, text)
    except CliError as exc:
        assert exc.code in (64, 65)
    else:
        assert _is_finite_typed(kind, value)


# ---------------------------------------------------------------------------
# eval


def test_eval_lambda_example(capsys):
    code, out, _ = run(capsys, "eval", "lambda", "w=1", "eta=0", "omega=1")
    assert code == 0
    assert float(out.split("=")[1].split("+")[0]) == pytest.approx(
        math.e / math.sqrt(2 * math.pi)
    )


def test_eval_eq_zero(capsys):
    code, out, _ = run(capsys, "eval", "eq", "q=0.5", "x=1")
    assert code == 0
    assert out.startswith("eq = 0")


def test_eval_bernoulli_example(capsys):
    code, out, _ = run(capsys, "eval", "bernoulli", "N=2", "k=2", "x=0", "a=1,1")
    assert code == 0
    assert "0.8333333333333333" in out


def test_eval_pole_signal_exit_code(capsys):
    code, out, _ = run(capsys, "eval", "gamma1", "x=-3", "a=1")
    assert code == 2


def test_eval_unknown_function(capsys):
    code, _, err = run(capsys, "eval", "nosuch", "x=1")
    assert code == 64
    assert "unknown function" in err


def test_eval_malformed_literal(capsys):
    code, _, err = run(capsys, "eval", "lambda", "w=zz", "eta=0", "omega=1")
    assert code == 65


def test_eval_domain_error_is_usage(capsys):
    code, _, err = run(capsys, "eval", "lambda", "w=-2", "eta=0", "omega=1")
    assert code == 64


def test_eval_json_format(capsys):
    code, out, _ = run(capsys, "--format", "json", "eval", "delta", "w=1", "eta=0")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "ok"
    assert doc["function"] == "delta"
    assert len(doc["value"]) == 2


#: doubled_a1(1 + 0.5j) with its constructed splitting, as a BPS file holds it.
A1_DOC = {
    "rank": 2,
    "skew_form": [[0, -1], [1, 0]],
    "Z": [[1.0, 0.5], [0.0, 0.0]],
    "omega": [
        {"gamma": [-1, 0], "poly": [{"n": 0, "c": "1/1"}]},
        {"gamma": [1, 0], "poly": [{"n": 0, "c": "1/1"}]},
    ],
    "splitting": {"electric": [[1, 0]], "magnetic": [[0, 1]]},
}

#: (argv, exit code, stdout, stderr) of eval in each format, for a value, a
#: signal and a domain error; "{path}" stands for the BPS file of A1_DOC.
EVAL_TABLE = [
    (["--format", "text", "eval", "lambda", "w=1", "eta=0", "omega=1"], 0,
     "lambda = 1.0844375514192277 + 0.0i\n", ""),
    (["--format", "text", "eval", "gamma1", "x=-3", "a=1"], 2,
     "gamma1: log_gamma1: pole at lattice point -3\n", ""),
    (["--format", "text", "eval", "lambda", "w=-2", "eta=0", "omega=1"], 64,
     "", "lambda: w must lie in C* minus the negative real axis, got (-2+0j)\n"),
    (["--format", "json", "eval", "lambda", "w=1", "eta=0", "omega=1"], 0,
     '{"args": {"eta": [0.0, 0.0], "omega": [1.0, 0.0], "w": [1.0, 0.0]}, "function": "lambda", '
     '"status": "ok", "value": [1.0844375514192277, 0.0]}\n', ""),
    (["--format", "json", "eval", "gamma1", "x=-3", "a=1"], 2,
     '{"function": "gamma1", "location": [-3.0, 0.0], "source": "log_gamma1", "status": "pole"}\n', ""),
    (["--format", "json", "eval", "lambda", "w=-2", "eta=0", "omega=1"], 64,
     "", "lambda: w must lie in C* minus the negative real axis, got (-2+0j)\n"),
    (["--format", "csv", "eval", "lambda", "w=1", "eta=0", "omega=1"], 0,
     "value_re,value_im,status\n1.0844375514192277,0.0,ok\n", ""),
    (["--format", "csv", "eval", "gamma1", "x=-3", "a=1"], 2,
     "value_re,value_im,status\n,,pole\n", ""),
    (["--format", "csv", "eval", "lambda", "w=-2", "eta=0", "omega=1"], 64,
     "", "lambda: w must lie in C* minus the negative real axis, got (-2+0j)\n"),
    (["--digits", "5", "eval", "lambda", "w=1", "eta=0", "omega=1"], 0,
     "lambda = 1.0844 + 0i\n", ""),
    (["--format", "json", "eval", "psi_general", "bps={path}", "r=1-0.2i", "t=0.8+0.1i",
      "tau=0.2+0.9i", "theta=0.1"], 0,
     '{"args": {"bps": "{path}", "r": [1.0, -0.2], "t": [0.8, 0.1], "tau": [0.2, 0.9], '
     '"theta": [[0.1, 0.0]]}, "function": "psi_general", "status": "ok", '
     '"value": [1.0210446080903564, 0.018335841792176056]}\n', ""),
]


@pytest.mark.parametrize("argv, code, out, err", EVAL_TABLE, ids=[" ".join(c[0]) for c in EVAL_TABLE])
def test_eval_prints_each_outcome_in_each_format(tmp_path, capsys, argv, code, out, err):
    path = tmp_path / "a1.json"
    path.write_text(json.dumps(A1_DOC))
    argv = [a.replace("{path}", str(path)) for a in argv]
    assert run(capsys, *argv) == (code, out.replace("{path}", str(path)), err)


def test_eval_psi_general_with_bps_file(tmp_path, capsys):
    path = tmp_path / "a1.json"
    path.write_text(json.dumps(A1_DOC))
    code, out, _ = run(
        capsys,
        "eval",
        "psi_general",
        f"bps={path}",
        "r=1-0.2i",
        "t=0.8+0.1i",
        "tau=0.2+0.9i",
        "theta=0.1",
    )
    assert code == 0
    # matches the rank-one adjoint scalar for the matching side
    from qrh.rhsolver import adjoint_psi_a1

    got = complex(*[float(x) for x in out.split("=")[1].replace("i", "").split(" + ")])
    assert got == pytest.approx(adjoint_psi_a1(1 + 0.5j, 0.8 + 0.1j, 0.2 + 0.9j, 0.1, 1), rel=1e-9)


def _library_calls(bps):
    """name -> (eval arguments, the library value there, each argument
    written out in the function's documented order); no two arguments of one
    kind are equal, so an argument spec that binds two of them in the wrong
    order gives another value (except omega1, omega2 of gamma2 and f, in
    which Gamma_2 is symmetric)."""
    from qrh import rhsolver as rh
    from qrh.bernoulli import multi_bernoulli
    from qrh import special as sp

    return {
        "bernoulli": (
            ["N=2", "k=3", "x=0.3+0.2i", "a=1.2,0.5+0.7i"],
            lambda: multi_bernoulli(2, 3, 0.3 + 0.2j, (1.2, 0.5 + 0.7j)),
        ),
        "zeta": (
            ["N=2", "s=3.5", "x=0.7+0.2i", "a=1.3,0.8+0.1i"],
            lambda: sp.barnes_zeta(2, 3.5, 0.7 + 0.2j, (1.3, 0.8 + 0.1j)),
        ),
        "gamma1": (["x=0.7+0.2i", "a=1.3"], lambda: cmath.exp(sp.log_gamma1(0.7 + 0.2j, 1.3))),
        "gamma2": (
            ["x=1.2+0.3i", "omega1=1", "omega2=0.8+0.1i"],
            lambda: cmath.exp(sp.log_gamma2(1.2 + 0.3j, 1, 0.8 + 0.1j)),
        ),
        "lambda": (
            ["w=1.1+0.4i", "eta=0.3", "omega=0.9+0.2i"],
            lambda: sp.lambda_fn(1.1 + 0.4j, 0.3, 0.9 + 0.2j),
        ),
        "f": (
            ["w=1.1+0.4i", "eta=0.3", "omega1=1", "omega2=0.2+0.9i"],
            lambda: sp.f_fn(1.1 + 0.4j, 0.3, 1, 0.2 + 0.9j),
        ),
        "eq": (["q=0.3+0.2i", "x=0.5-0.1i"], lambda: sp.quantum_dilog(0.3 + 0.2j, 0.5 - 0.1j)),
        "delta": (["w=1.1+0.4i", "eta=0.3"], lambda: sp.delta_fn(1.1 + 0.4j, 0.3)),
        "upsilon": (["w=1.1+0.4i", "theta=0.3"], lambda: sp.upsilon_fn(1.1 + 0.4j, 0.3)),
        "psi_a1": (
            ["z=1+0.2i", "t=0.5+0.4i", "tau=0.2+0.8i", "theta=0.1", "side=-1"],
            lambda: rh.adjoint_psi_a1(1 + 0.2j, 0.5 + 0.4j, 0.2 + 0.8j, 0.1, -1),
        ),
        "psi_general": (
            [f"bps={bps}", "r=0.3+1i", "t=0.5+0.4i", "tau=0.1+0.8i", "theta=0.1,0.2"],
            lambda: rh.adjoint_general(
                RHInstance(*structure_from_dict(json.loads(bps.read_text()))),
                0.3 + 1j, 0.5 + 0.4j, 0.1 + 0.8j, (0.1, 0.2),
            ),
        ),
        "hamiltonian": (
            ["z=1+0.2i", "t=0.5+0.2i", "theta=0.13", "side=-1"],
            lambda: rh.hamiltonian_limit(1 + 0.2j, 0.5 + 0.2j, 0.13, -1),
        ),
        "tau": (
            ["z=1+0.2i", "t=0.5+0.2i", "theta=0.13", "side=-1"],
            lambda: rh.tau_function_limit(1 + 0.2j, 0.5 + 0.2j, 0.13, -1),
        ),
    }


@pytest.mark.parametrize("name", list(EVAL_FUNCTIONS))
def test_eval_is_the_library_call_in_documented_order(tmp_path, capsys, name):
    bps = tmp_path / "rank4.json"
    bps.write_text(FILES["rank4.json"])
    argv, call = _library_calls(bps)[name]
    code, out, err = run(capsys, "--format", "json", "eval", name, *argv)
    assert (code, err) == (0, "")
    assert complex(*json.loads(out)["value"]) == complex(call())


# ---------------------------------------------------------------------------
# verify


def test_verify_suite_report_schema(capsys):
    code, out, _ = run(capsys, "verify", "reflection", "--samples", "50")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {
        "suite",
        "seed",
        "samples",
        "max_abs_residual",
        "max_rel_residual",
        "excluded_near_pole",
        "pass",
    }
    assert doc["pass"] is True
    assert doc["max_rel_residual"] < 1e-9


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "nosuch")
    assert code == 64


def test_verify_deterministic(capsys):
    _, out1, _ = run(capsys, "verify", "jump-a1", "--samples", "20", "--seed", "7")
    _, out2, _ = run(capsys, "verify", "jump-a1", "--samples", "20", "--seed", "7")
    assert out1 == out2


def test_verify_failure_exit_code(capsys):
    # an absurd tolerance forces a failure and exit code 1
    code, out, _ = run(capsys, "verify", "reflection", "--samples", "10", "--tol", "1e-30")
    assert code == 1
    assert json.loads(out)["pass"] is False


# ---------------------------------------------------------------------------
# grid


def test_grid_rect_deterministic(tmp_path, capsys):
    args = [
        "grid",
        "psi_a1",
        "z=1+0.5i",
        "tau=0.2+0.8i",
        "theta=0.1",
        "--t-re",
        "0.3:0.9:3",
        "--t-im",
        "0.2:0.4:2",
    ]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    lines = out1.strip().split("\n")
    assert lines[0] == "t_re,t_im,value_re,value_im,status"
    assert len(lines) == 7  # header + 3*2 points, row-major


def test_grid_annulus_marks_excluded_ray(capsys):
    code, out, _ = run(
        capsys,
        "grid",
        "psi_a1",
        "z=1",
        "tau=0.2+0.8i",
        "theta=0.1",
        "--annulus",
        "1:1:1:4",
    )
    assert code == 0
    statuses = [line.split(",")[-1] for line in out.strip().split("\n")[1:]]
    assert "excluded-ray" in statuses
    assert statuses.count("ok") == 3


def test_grid_tau_reproduces_upsilon(capsys):
    from qrh.rhsolver import tau_function_limit

    code, out, _ = run(
        capsys, "grid", "tau", "z=1", "theta=0", "side=+1", "--t-re", "0.5:0.5:1", "--t-im", "0.2:0.2:1"
    )
    assert code == 0
    row = out.strip().split("\n")[1].split(",")
    got = complex(float(row[2]), float(row[3]))
    want = tau_function_limit(1.0, 0.5 + 0.2j, 0.0, 1)
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize(
    "function, theta",
    [
        ("hamiltonian", complex(2.3902379702814516, -0.1806550742963713)),
        ("tau", complex(2.8902379702814516, -0.1806550742963713)),
    ],
)
def test_limit_eval_prints_closed_form_off_richardson_path(capsys, function, theta):
    # one sample of the tau -> 0 (resp. tau -> 1) Richardson path lands on
    # the pole lattice of F here; the printed closed form is finite
    from qrh.special import log_delta, upsilon_fn

    argv = ["eval", function, "z=1", "t=0.5+0.2i", f"theta={theta.real!r},{theta.imag!r}"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    w = 1 / (2j * math.pi * (0.5 + 0.2j))
    if function == "hamiltonian":
        want = -2j * math.pi * log_delta(w, 0.5 - theta)
    else:
        want = upsilon_fn(w, -theta)
    sign = "+" if want.imag >= 0 else "-"
    assert out == f"{function} = {want.real!r} {sign} {abs(want.imag)!r}i\n"


@pytest.mark.parametrize(
    "function, digest",
    [
        ("hamiltonian", "201222b6bad2ae9f36d915e65cdb650c8c96385db7610ef5afc953cdeac90037"),
        ("tau", "6499d85db392b1c96e278952325c4795514bc721ff4ab1d90138b2cbac0c5bc1"),
    ],
)
def test_grid_limit_golden(capsys, function, digest):
    code, out, _ = run(
        capsys, "grid", function, "z=1+0.5i", "theta=0.2-0.1i", "side=-1", "--annulus", "0.01:3:10:20"
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


#: `grid psi_a1` argv and the sha256 of its output.  |w| reaches about 8 on
#: the inner ring, so the points cover both the shifted and the unshifted
#: log Gamma_2 path.
GRID_PSI_A1 = (
    ["grid", "psi_a1", "z=1+0.5i", "tau=0.2+0.8i", "theta=0.1", "side=1", "--annulus", "0.02:0.2:4:16"],
    "1a7f8a702db2e6eab6c902cb6c9025167545f20e1699ae8eb3559658a3ffa626",
)
#: A `grid psi_a1` with every status: t = 0 (domain), t > 0 on the excluded
#: ray i*l_+ of z = -i, and t = -0.5, where w + eta = 1/pi + eta = 0 (pole).
GRID_PSI_A1_STATUSES = (
    [
        "grid", "psi_a1", "z=-i", "tau=0.2+0.8i", "theta=0.9183098861837907+0.4i", "side=1",
        "--t-re", "-1:1:5", "--t-im", "-0.5:0.5:5",
    ],
    "c6ae695d398fef93247cc7e9f40d04017d4ca0bf0ef02586e8e9304171d94598",
)
#: `grid psi_general` on the rank-6 file of _write_rank6 (argv after the file).
GRID_PSI_GENERAL = (
    ["r=1", "tau=0.1+0.7i", "theta=0.2+0.1i,-0.3i,0.5", "--t-re", "0.1:1.2:4", "--t-im", "-0.9:0.9:5"],
    "981812769590ec5970714dd1ce4660139f00f5ce996b144ee50d9978572735df",
)


def test_grid_psi_a1_golden(capsys):
    argv, digest = GRID_PSI_A1
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.count(",ok\n") == 64
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_grid_psi_a1_statuses_golden(capsys):
    argv, digest = GRID_PSI_A1_STATUSES
    code, out, _ = run(capsys, *argv)
    assert code == 0
    statuses = [row.rsplit(",", 1)[1] for row in out.splitlines()[1:]]
    assert sorted(set(statuses)) == ["domain", "excluded-ray", "ok", "pole"]
    assert statuses.count("ok") == 21
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _qrh_without_wide_simd(*argv: str) -> subprocess.CompletedProcess:
    """`python -m qrh argv` in a fresh interpreter whose numpy may not dispatch
    to AVX2/AVX-512 loops, as on older CPUs."""
    env = dict(os.environ)
    env["NPY_DISABLE_CPU_FEATURES"] = "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "qrh", *argv],
        env=env, capture_output=True, check=False, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc


@pytest.mark.parametrize("grid", [GRID_PSI_A1, GRID_PSI_A1_STATUSES], ids=["psi_a1", "statuses"])
def test_grid_psi_a1_golden_without_wide_simd(grid):
    # the batch kernel's real arithmetic must round the same on every dispatch
    argv, digest = grid
    assert hashlib.sha256(_qrh_without_wide_simd(*argv).stdout).hexdigest() == digest


def test_grid_psi_a1_memory_is_bounded(capsys):
    # 2000 points down to |t| = 1.6e-4, so w = z/(2 pi i t) reaches |w| = 1e3
    # just above the negative real axis, where log Gamma_2 takes about a
    # thousand shifts: one npts x max(n) complex array alone would take 32 MB
    import tracemalloc

    argv = ["grid", "psi_a1", "z=1", "tau=0.1+0.9i", "theta=0.2", "side=1",
            "--t-re", "-2e-4:-1e-5:40", "--t-im", "1.6e-4:0.02:50", "--out", os.devnull]
    tracemalloc.start()
    try:
        code, _, _ = run(capsys, *argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 12e6


def _write_rank6(path):
    # the direct sum of three doubled A1 structures, no stored splitting
    charges = [complex(1.2, 0.3), complex(-0.4, 0.9), complex(0.7, -1.1)]
    skew = [[0] * 6 for _ in range(6)]
    omega = []
    for k in range(3):
        skew[2 * k][2 * k + 1], skew[2 * k + 1][2 * k] = -1, 1
        for sign in (1, -1):
            gamma = [0] * 6
            gamma[2 * k] = sign
            omega.append({"gamma": gamma, "poly": [{"n": 0, "c": "1/1"}]})
    doc = {
        "rank": 6,
        "skew_form": skew,
        "Z": [v for z in charges for v in ([z.real, z.imag], [0.0, 0.0])],
        "omega": omega,
    }
    path.write_text(json.dumps(doc))


def test_grid_psi_general_golden(tmp_path, capsys):
    path = tmp_path / "rank6.json"
    _write_rank6(path)
    argv, digest = GRID_PSI_GENERAL
    code, out, _ = run(capsys, "grid", "psi_general", f"bps={path}", *argv)
    assert code == 0
    assert out.count(",ok\n") == 20
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_grid_psi_general_golden_without_wide_simd(tmp_path):
    path = tmp_path / "rank6.json"
    _write_rank6(path)
    argv, digest = GRID_PSI_GENERAL
    proc = _qrh_without_wide_simd("grid", "psi_general", f"bps={path}", *argv)
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


#: (function, fixed arguments, grid points, statuses of the rows); "{d}" is
#: the directory of the rank-6 file.  psi_a1-overflow and tau-not-finite are
#: the two grids that printed a traceback and a `nan,nan,ok` row before grid
#: rows followed eval's rule.
GRIDS_AGAINST_EVAL = {
    "psi_a1-statuses": (
        "psi_a1", GRID_PSI_A1_STATUSES[0][2:6], GRID_PSI_A1_STATUSES[0][6:],
        {"ok", "pole", "excluded-ray", "domain"},
    ),
    # exp(-log F) overflows at the first point, evaluated in the batch
    "psi_a1-batch-overflow": (
        "psi_a1",
        ["z=1.1475977539097284+0.0830758900653913i", "tau=0.0810763060401595+0.361481692326996i",
         "theta=-0.16396722303508726+0.0501290646395236i", "side=1"],
        ["--t-re", "0.0011075613843695023:0.3:2", "--t-im", "0.005568087087594374:0.3:2"],
        {"ok", "domain"},
    ),
    "psi_a1-overflow": (
        "psi_a1", ["z=1e308+1e308i", "tau=1i", "theta=0"], ["--annulus", "1:1:1:2"], {"domain"},
    ),
    "psi_general": (
        "psi_general",
        ["bps={d}/rank6.json", "r=1", "tau=0.1+0.7i", "theta=0.2+0.1i,-0.3i,0.5"],
        ["--annulus", "0.3:0.6:2:6"],
        {"ok", "domain"},
    ),
    "hamiltonian": (
        "hamiltonian", ["z=1", "theta=0.1"], ["--annulus", "0.2:0.5:2:4"], {"ok", "excluded-ray"},
    ),
    "tau": ("tau", ["z=1+0.5i", "theta=0.2-0.1i", "side=-1"], ["--annulus", "0.2:0.5:2:4"], {"ok"}),
    # w + theta = -1 + ~1e-16 at the first point: G(w + theta + 1) vanishes
    "tau-zero": (
        "tau",
        ["z=1", "theta=0.1+0.2i"],
        ["--t-re", "-0.03744822190397537:0.06255177809602464:2",
         "--t-im", "0.16851699856788918:0.16851699856788918:1"],
        {"ok", "zero"},
    ),
    "tau-not-finite": ("tau", ["z=1", "theta=0"], ["--annulus", "1e-300:1e-300:1:2"], {"domain"}),
    # tau overflows a quantity of the parameters alone: |shift|^2, the Gamma_2
    # coefficients, |tau|
    "psi_a1-huge-tau": ("psi_a1", ["z=1", "tau=1e300i", "theta=0"], ["--annulus", "1:2:2:2"], {"domain"}),
    "psi_a1-tiny-tau": ("psi_a1", ["z=1", "tau=1e-320i", "theta=0"], ["--annulus", "1:2:2:2"], {"domain"}),
    "psi_a1-tau-beyond-abs": (
        "psi_a1", ["z=1", "tau=1.5e308+1.5e308i", "theta=0"], ["--annulus", "1:2:2:2"], {"domain"},
    ),
    "psi_general-huge-tau": (
        "psi_general",
        ["bps={d}/rank6.json", "r=1", "tau=1e300i", "theta=0.2+0.1i,-0.3i,0.5"],
        ["--annulus", "0.3:0.6:2:2"],
        {"domain"},
    ),
    "psi_general-tiny-tau": (
        "psi_general",
        ["bps={d}/rank6.json", "r=1", "tau=1e-320i", "theta=0.2+0.1i,-0.3i,0.5"],
        ["--annulus", "0.3:0.6:2:2"],
        {"domain"},
    ),
}


@pytest.mark.parametrize("case", list(GRIDS_AGAINST_EVAL))
def test_grid_rows_follow_eval(tmp_path, capsys, case):
    # every row is what eval --format csv gives at its t: the same cells for
    # ok, pole and zero, and an eval exit 64 for domain and excluded-ray
    _write_rank6(tmp_path / "rank6.json")
    function, fixed, points, statuses = GRIDS_AGAINST_EVAL[case]
    fixed = [a.format(d=tmp_path) for a in fixed]
    code, out, err = run(capsys, "grid", function, *fixed, *points)
    assert code == 0 and err == ""
    seen = set()
    for row in out.splitlines()[1:]:
        t_re, t_im, cells = row.split(",", 2)
        status = cells.rsplit(",", 1)[1]
        seen.add(status)
        got = run(capsys, "--format", "csv", "eval", function, *fixed, f"t={t_re},{t_im}")
        if status in ("domain", "excluded-ray"):
            assert got[:2] == (64, "") and len(got[2].splitlines()) == 1, row
        else:
            assert got == (0 if status == "ok" else 2, f"value_re,value_im,status\n{cells}\n", ""), row
    assert seen == statuses


def test_grid_outcomes_leave_no_reference_cycles(tmp_path, capsys):
    # an exception that becomes a row keeps no traceback, so no frame that
    # holds the list of outcomes is kept alive through it: with the cyclic
    # collector off, grids with domain, pole, zero, excluded-ray and overflow
    # rows leave nothing for it to free
    import gc

    _write_rank6(tmp_path / "rank6.json")
    grids = [
        [function, *(a.format(d=tmp_path) for a in fixed), *points]
        for function, fixed, points, _statuses in GRIDS_AGAINST_EVAL.values()
    ]
    for argv in grids:  # fill the caches first
        run(capsys, "grid", *argv)
    gc.collect()
    gc.disable()
    try:
        for argv in grids:
            assert run(capsys, "grid", *argv)[0] == 0
            assert gc.collect() == 0, argv
    finally:
        gc.enable()


def test_grid_psi_general_decomposes_no_class_per_point(tmp_path, capsys, monkeypatch):
    from qrh import rhsolver
    from qrh.bps import EMSplitting
    from qrh.cli import _instance

    path = tmp_path / "rank6.json"
    _write_rank6(path)
    calls = []
    decompose = EMSplitting.decompose
    monkeypatch.setattr(
        EMSplitting, "decompose", lambda self, g: calls.append(g) or decompose(self, g)
    )

    def count(spec):
        calls.clear()
        code, out, _ = run(
            capsys, "grid", "psi_general", f"bps={path}", "r=1", "tau=0.1+0.7i",
            "theta=0.2+0.1i,-0.3i,0.5", "--annulus", spec,
        )
        assert code == 0 and out.count(",ok\n") > 0
        return len(calls)

    counts = []
    for spec in ("1:1:1:2", "0.5:1:3:8"):
        # each call builds its instance and analyses its lattice
        _instance.cache_clear()
        rhsolver._lattice_analysis.cache_clear()
        counts.append(count(spec))
    # six active classes, each decomposed once while the instance is built
    assert counts[0] == counts[1] <= 6
    # one more call on the same bytes builds nothing
    assert count("0.5:1:3:8") == 0


def test_bps_instance_is_kept_per_file_content(tmp_path, capsys):
    from qrh.cli import load_instance

    path, copy = tmp_path / "rank6.json", tmp_path / "copy.json"
    _write_rank6(path)
    copy.write_bytes(path.read_bytes())
    inst = load_instance(str(path))
    assert load_instance(str(path)) is inst
    assert load_instance(str(copy)) is inst
    argv = ["r=1", "t=0.6+0.2i", "tau=0.1+0.7i", "theta=0.2+0.1i,-0.3i,0.5"]
    before = run(capsys, "eval", "psi_general", f"bps={path}", *argv)
    # rewriting the file rebuilds its instance: new charges, a new value
    doc = json.loads(path.read_text())
    doc["Z"][0] = [0.9, 0.5]
    path.write_text(json.dumps(doc))
    assert load_instance(str(path)).classes[0][1] == -0.9 - 0.5j
    after = run(capsys, "eval", "psi_general", f"bps={path}", *argv)
    assert before[0] == after[0] == 0 and before[1] != after[1]
    copy.write_text(json.dumps(doc))
    assert run(capsys, "eval", "psi_general", f"bps={copy}", *argv) == after


def test_parser_keeps_no_state_between_calls(capsys):
    assert run(capsys, "grid")[0] == 64  # the function is missing
    argv = ["grid", "psi_a1", "z=1", "tau=0.3+0.9i", "theta=0.2", "--annulus", "0.3:0.6:2:5"]
    first, second = run(capsys, *argv), run(capsys, *argv)
    assert first[0] == 0
    assert first == second
    assert read_argv(argv) == read_argv(argv)
    assert argv[-1] == "0.3:0.6:2:5"  # the reader leaves its argv as it was


# ---------------------------------------------------------------------------
# the command-line reader against the argparse parser it replaced


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliError(message, EX_USAGE)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    p = _Parser(prog="qrh", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seed", type=int, default=None, help="seed for verification sampling (default 42)")
    p.add_argument("--tol", type=float, default=None, help="tolerance override")
    p.add_argument("--format", choices=FORMATS, default=None, help="output format (default text)")
    p.add_argument("--digits", type=int, default=None, help="printed digits (default and max 17)")
    p.add_argument("--config", default=None, help="JSON config file; explicit flags beat it")
    sub = p.add_subparsers(dest="command")

    pe = sub.add_parser("eval", help="evaluate a registered function")
    pe.add_argument("function")
    pe.add_argument(
        "args",
        nargs=argparse.REMAINDER,
        help="name=value pairs or --name value (complex: a+bi or a,b)",
    )

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("suite")
    pv.add_argument("--samples", type=int, default=None)
    pv.add_argument("--out", default=None)
    _global_after_subcommand(pv)

    pg = sub.add_parser("grid", help="evaluate a t-dependent function on a grid")
    pg.add_argument("function")
    pg.add_argument(
        "args",
        nargs=argparse.REMAINDER,
        help="fixed name=value pairs plus --t-re min:max:n --t-im min:max:n "
        "(or --annulus rmin:rmax:nr:nphi) and --out FILE",
    )

    pr = sub.add_parser(
        "report",
        help="run every suite and emit one JSON report; the suites are shared among the CPUs "
        "of the affinity mask, with the same bytes as on one (taskset -c 0)",
    )
    pr.add_argument("--out", default=None)
    _global_after_subcommand(pr)
    pr.set_defaults(suite="all", samples=None)  # verify all at the default sample counts
    return p


def _global_after_subcommand(sub: argparse.ArgumentParser) -> None:
    # --seed and --tol are also accepted after the subcommand; SUPPRESS keeps
    # the global value when they are not
    sub.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    sub.add_argument("--tol", type=float, default=argparse.SUPPRESS)


def _argparse_reads(argv):
    """The namespace argparse gave as a dict, "help" at -h, or "error"."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return vars(build_parser().parse_args(argv))
    except SystemExit as exc:
        assert exc.code == 0
        return "help"
    except CliError as exc:
        assert exc.code == 64
        return "error"


def _reader_reads(argv):
    try:
        return vars(read_argv(list(argv)))
    except CliError as exc:
        assert exc.code in (0, 64)
        return "error" if exc.code else "help"


def _same(theirs, ours) -> bool:
    """Equal outcomes; a namespace is compared by the repr of its items, so
    that a nan value equals itself."""
    key = lambda x: repr(sorted(x.items())) if isinstance(x, dict) else repr(x)
    return key(theirs) == key(ours)


def _exit_code(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


#: The grammar the argv are drawn from: the flags of each part of the
#: command line with good and bad values (a value of None is a flag given
#: no value), and the positional tokens each part may hold.
_INTS, _FLOATS = ["3", "0", "-0", "17", "-2", "x", "1.5", ""], ["1e-3", "0.5", "-1", "nan", "x", "-.5"]
_GLOBAL_FLAGS = {
    "--seed": _INTS,
    "--tol": _FLOATS,
    "--format": ["text", "json", "csv", "xml", "JSON"],
    "--digits": _INTS,
    "--config": ["c.json", "report", "-", "-x", "--"],
}
_VERIFY_FLAGS = {"--samples": _INTS, "--out": ["o.json", "--", "-1"], "--seed": _INTS + ["--"], "--tol": _FLOATS}
_REPORT_FLAGS = {k: _VERIFY_FLAGS[k] for k in ("--out", "--seed", "--tol")}
_STRAYS = ["-h", "--help", "--he", "-hx", "-hh", "--help=1", "--", "-", "", "-5", "-x", "--bogus", "--=3", "a b", "-x y"]
_KV = ["w=1", "eta=0", "--omega", "1", "--annulus", "1:1:1:2", "--t-re=0:1:2", "--seed", "-h", "--", "--s=1"]


def _draw_flag(rng, flags):
    name = rng.choice(list(flags) + list(_GLOBAL_FLAGS))
    spelled = name if rng.random() < 0.5 else name[: rng.randrange(3, len(name) + 1)]
    value = rng.choice(flags.get(name, ["3"]) + [None])
    if value is None:
        return [spelled]
    return [f"{spelled}={value}"] if rng.random() < 0.4 else [spelled, value]


def _draw_part(rng, flags, positionals, n):
    out = []
    for _ in range(rng.randrange(n + 1)):
        r = rng.random()
        if r < 0.55:
            out += _draw_flag(rng, flags)
        elif r < 0.75:
            out.append(rng.choice(positionals))
        else:
            out.append(rng.choice(_STRAYS))
    return out


def _draw_argv(rng):
    argv = _draw_part(rng, _GLOBAL_FLAGS, ["eval", "report"], 3)
    command = rng.choice(["eval", "grid", "verify", "report", "report", "verify", "nosuch", None])
    if command is None:
        return argv
    argv.append(command)
    if command in ("eval", "grid", "nosuch"):
        argv += _draw_part(rng, {}, ["-h"], 1) if rng.random() < 0.3 else []
        if rng.random() < 0.9:
            argv.append(rng.choice(["lambda", "psi_a1", "-5", ""]))
        argv += [rng.choice(_KV) for _ in range(rng.randrange(5))]
    elif command == "verify":
        argv += _draw_part(rng, _VERIFY_FLAGS, ["reflection", "all", "extra"], 4)
    else:
        argv += _draw_part(rng, _REPORT_FLAGS, ["extra"], 3)
    return argv


#: The argv where the reader deliberately differs from argparse: each holds
#: when a differing argv is of its kind and the reader's side is the stated one.
_DIVERGENCES = {
    # argparse read a "--" before the function name or the suite as the end
    # of its flags, and dropped one right after either; the reader refuses
    # "--" there, and hands one after the function name to _parse_kv_tokens,
    # which refuses it as an argument with no name, so main exits 64
    "--": lambda argv, theirs, ours: "--" in argv
    and (ours == "error" or "--" in ours.get("args", ()) and _exit_code(argv) == 64),
    # argparse dropped the "--" of --name=-- and set the flag to [], which
    # raised a TypeError out of main for --seed and --tol; the reader reads
    # the value "--", which int and float refuse
    "--name=--": lambda argv, theirs, ours: any(t[:1] == "-" and t.endswith("=--") for t in argv)
    and (ours == "error" or all(v == "--" and theirs[k] == [] for k, v in ours.items() if not _same(v, theirs[k]))),
    # argparse read -hh as -h given twice and printed the usage; the reader
    # refuses it as -h given the value h
    "-hh": lambda argv, theirs, ours: theirs == "help" and ours == "error" and "-hh" in argv,
}


def test_reader_reads_what_argparse_read():
    rng = random.Random(34)
    seen = collections.Counter()
    for _ in range(4000):
        argv = _draw_argv(rng)
        theirs, ours = _argparse_reads(argv), _reader_reads(argv)
        if theirs == "error":  # where argparse refused, the reader refuses
            assert ours == "error", argv
        if _same(theirs, ours):
            seen[theirs if isinstance(theirs, str) else "read"] += 1
            continue
        why = [name for name, holds in _DIVERGENCES.items() if holds(argv, theirs, ours)]
        assert why, (argv, theirs, ours)
        seen[why[0]] += 1
    # the draws reach every outcome and every listed divergence
    assert min(seen[k] for k in ("read", "help", "error", *_DIVERGENCES)) >= 10, seen


def test_grid_unwritable_path(capsys):
    code, _, err = run(
        capsys,
        "grid",
        "psi_a1",
        "z=1",
        "tau=0.2+0.8i",
        "theta=0.1",
        "--annulus",
        "1:1:1:2",
        "--out",
        "/nonexistent-dir/x.csv",
    )
    assert code == 73


PSI = ["z=1", "tau=0.2+0.8i", "theta=0.1"]


def _a1_doc(**keys):
    """The doubled A1 file with the given top-level keys added or replaced."""
    return json.dumps({**json.loads(_a1_file()), **keys})


def _a1_file(c="1/1", z=(1.0, 0.5), gamma=(1, 0), n=0):
    """Doubled A1 as a BPS file, with one entry of Omega(gamma) replaced."""
    return json.dumps(
        {
            "rank": 2,
            "skew_form": [[0, -1], [1, 0]],
            "Z": [list(z), [0.0, 0.0]],
            "omega": [
                {"gamma": list(gamma), "poly": [{"n": n, "c": c}]},
                {"gamma": [-1, 0], "poly": [{"n": 0, "c": "1/1"}]},
            ],
        }
    )


FILES = {
    "list.json": "[1]",
    "digits.json": '{"digits": "x"}',
    "format.json": '{"format": "xml"}',
    "seed.json": '{"seed": -1}',
    "truncation.json": '{"truncation": {"gamma2": "6"}}',
    "broken.json": "{bad",
    "nokeys.json": "{}",
    "badtype.json": '{"rank": "two", "skew_form": 1, "Z": [], "omega": []}',
    # doubled A1 whose stored splitting makes the active class magnetic
    "swapped.json": json.dumps(
        {
            "rank": 2,
            "skew_form": [[0, -1], [1, 0]],
            "Z": [[1.0, 0.5], [0.0, 0.0]],
            "omega": [
                {"gamma": [1, 0], "poly": [{"n": 0, "c": "1/1"}]},
                {"gamma": [-1, 0], "poly": [{"n": 0, "c": "1/1"}]},
            ],
            "splitting": {"electric": [[0, 1]], "magnetic": [[1, 0]]},
        }
    ),
    # coefficients, central charges and lattice entries of the wrong kind
    "zerodiv.json": _a1_file(c="1/0"),
    "nanz.json": _a1_file(z=[math.nan, 0.5]),
    "halfgamma.json": _a1_file(gamma=[1.5, 0]),
    "halfn.json": _a1_file(n=0.5),
    # tolerances that cannot mean anything, and keys nothing reads
    "tolnan.json": '{"tolerances": {"reflection": NaN}}',
    "tolinf.json": '{"tolerances": {"reflection": Infinity}}',
    "tolzero.json": '{"tolerances": {"reflection": 0}}',
    "tolkey.json": '{"tolerances": {"reflectoin": 1e-30}}',
    "truncationkey.json": '{"truncation": {"gama2": 3}}',
    "topkey.json": '{"sed": 5, "digts": 3}',
    "oldtruncation.json": '{"truncation": {"gamma2": 6}}',
    # keys the BPS schema does not have, and entries given twice
    "splittng.json": _a1_doc(splittng={"electric": [[0, 1]], "magnetic": [[1, 0]]}),
    "splitkey.json": _a1_doc(splitting={"electric": [[1, 0]], "magnetic": [[0, 1]], "dual": []}),
    "termkey.json": _a1_doc(omega=[
        {"gamma": [1, 0], "poly": [{"n": 0, "c": "1/1", "d": 2}]},
        {"gamma": [-1, 0], "poly": [{"n": 0, "c": "1/1"}]},
    ]),
    "twogamma.json": _a1_doc(omega=[
        {"gamma": [1, 0], "poly": [{"n": 0, "c": "1/1"}]},
        {"gamma": [-1, 0], "poly": [{"n": 0, "c": "1/1"}]},
        {"gamma": [1, 0], "poly": [{"n": 0, "c": "1/1"}]},
    ]),
    "twon.json": _a1_doc(omega=[
        {"gamma": g, "poly": [{"n": 0, "c": "1/1"}, {"n": 0, "c": "1/1"}]} for g in ([1, 0], [-1, 0])
    ]),
    # a key given twice: a config's seed, a BPS file's central charges
    "dupkey.json": '{"seed": 1, "seed": 7}',
    "twoz.json": _a1_file()[:-1] + ', "Z": [[2.0, 0.5], [0.0, 0.0]]}',
    # classes whose charge overflows a float, or is inf + inf i
    "bigclass.json": _a1_doc(omega=[
        {"gamma": [g * (10**400 + 1), 0], "poly": [{"n": 0, "c": "1/1"}]} for g in (1, -1)
    ]),
    "infz.json": _a1_doc(Z=[[1e308, 1e308], [0.0, 0.0]], omega=[
        {"gamma": [g, 0], "poly": [{"n": 0, "c": "1/1"}]} for g in (3, -3)
    ]),
    # JSON nested deeper than the decoder can recurse
    "nested.json": "[" * 100000 + "]" * 100000,
    # two doubled A1 summands: theta has two entries
    "rank4.json": json.dumps(
        {
            "rank": 4,
            "skew_form": [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]],
            "Z": [[1.0, 0.5], [0.0, 0.0], [-0.3, 1.0], [0.0, 0.0]],
            "omega": [
                {"gamma": g, "poly": [{"n": 0, "c": "1/1"}]}
                for g in ([1, 0, 0, 0], [-1, 0, 0, 0], [0, 0, 1, 0], [0, 0, -1, 0])
            ],
        }
    ),
}
GENERAL = ["r=0.3+1i", "t=0.5+0.4i", "tau=0.1+0.8i"]


@pytest.mark.parametrize(
    "argv, code",
    [
        # non-finite literals
        (["eval", "lambda", "w=nan", "eta=0", "omega=1"], 65),
        (["eval", "lambda", "w=1e400", "eta=0", "omega=1"], 65),
        (["eval", "lambda", "w=nan,0", "eta=0", "omega=1"], 65),
        (["eval", "bernoulli", "N=2", "k=2", "x=0", "a=1,nan"], 65),
        # grid specs and fixed arguments
        (["grid", "psi_a1", *PSI, "--t-re", "a:1:2", "--t-im", "0.2:0.4:2"], 64),
        (["grid", "psi_a1", *PSI, "--t-re", "0.3:0.9:2.5", "--t-im", "0.2:0.4:2"], 64),
        (["grid", "psi_a1", *PSI, "--annulus", "1:2:2:0"], 64),
        (["grid", "psi_a1", *PSI, "--annulus", "1:2:0:3"], 64),
        (["grid", "psi_a1", *PSI, "--annulus", "1:inf:2:3"], 64),
        (["grid", "psi_a1", *PSI, "side=0", "--annulus", "1:1:1:4"], 64),
        # config and global flags
        (["--config", "{d}/list.json", "eval", "delta", "w=1", "eta=0"], 65),
        (["--config", "{d}/digits.json", "eval", "delta", "w=1", "eta=0"], 65),
        (["--config", "{d}/format.json", "eval", "delta", "w=1", "eta=0"], 65),
        (["--config", "{d}/seed.json", "verify", "bps"], 65),
        (["--config", "{d}/truncation.json", "eval", "delta", "w=1", "eta=0"], 65),
        (["--config", "{d}/broken.json", "eval", "delta", "w=1", "eta=0"], 65),
        (["--digits", "-1", "eval", "delta", "w=1", "eta=0"], 64),
        (["--seed", "-1", "verify", "bps"], 64),
        # malformed BPS files
        (["eval", "psi_general", "bps={d}/broken.json", "r=1", "t=1", "tau=1j", "theta=0"], 65),
        (["eval", "psi_general", "bps={d}/nokeys.json", "r=1", "t=1", "tau=1j", "theta=0"], 65),
        (["eval", "psi_general", "bps={d}/badtype.json", "r=1", "t=1", "tau=1j", "theta=0"], 65),
        (["grid", "psi_general", "bps={d}/broken.json", "r=1", "tau=1j", "theta=0", "--annulus", "1:1:1:2"], 65),
        # empty verification runs
        (["verify", "reflection", "--samples", "0"], 64),
        (["verify", "bps", "--samples", "-3"], 64),
        # a stored splitting is verified like a constructed one
        (["eval", "psi_general", "bps={d}/swapped.json", *GENERAL, "theta=0.2"], 65),
        (["grid", "psi_general", "bps={d}/swapped.json", "r=1i", "tau=1j", "theta=0", "--annulus", "1:1:1:2"], 65),
        # theta needs one entry per electric basis vector
        (["eval", "psi_general", "bps={d}/rank4.json", *GENERAL, "theta=0.1"], 64),
        (["eval", "psi_general", "bps={d}/rank4.json", *GENERAL, "theta=0.1,0.2,0.3"], 64),
        # z = 0 in the rank-one functions
        (["eval", "psi_a1", "z=0", "t=1", "tau=0.2+0.8i", "theta=0.1"], 64),
        (["eval", "hamiltonian", "z=0", "t=1", "theta=0.1"], 64),
        (["eval", "tau", "z=0", "t=1", "theta=0.1"], 64),
        # E_q with |q| too close to 1 for the product
        (["eval", "eq", "q=0.54024827356+0.84138684394i", "x=0.001"], 64),
        # a non-integer s left of the parameters: the term branch is not principal
        (["eval", "zeta", "N=2", "s=5.5", "x=-3.3-0.05i", "a=1,1+0.1i"], 64),
        # malformed BPS data that parses as JSON
        (["eval", "psi_general", "bps={d}/zerodiv.json", *GENERAL, "theta=0.2"], 65),
        (["eval", "psi_general", "bps={d}/nanz.json", *GENERAL, "theta=0.2"], 65),
        (["grid", "psi_general", "bps={d}/nanz.json", "r=1", "tau=1j", "theta=0", "--annulus", "1:1:1:2"], 65),
        (["eval", "psi_general", "bps={d}/halfgamma.json", *GENERAL, "theta=0.2"], 65),
        (["eval", "psi_general", "bps={d}/halfn.json", *GENERAL, "theta=0.2"], 65),
        # a tolerance must be finite and positive, a config key a suite or function
        (["--tol", "nan", "verify", "reflection", "--samples", "2"], 64),
        (["--tol", "inf", "verify", "reflection", "--samples", "2"], 64),
        (["--tol", "-1", "verify", "reflection", "--samples", "2"], 64),
        (["--tol", "0", "verify", "reflection", "--samples", "2"], 64),
        (["verify", "reflection", "--samples", "2", "--tol", "nan"], 64),
        (["--config", "{d}/tolnan.json", "verify", "reflection", "--samples", "2"], 65),
        (["--config", "{d}/tolinf.json", "verify", "reflection", "--samples", "2"], 65),
        (["--config", "{d}/tolzero.json", "verify", "reflection", "--samples", "2"], 65),
        (["--config", "{d}/tolkey.json", "verify", "reflection", "--samples", "2"], 65),
        (["--config", "{d}/truncationkey.json", "eval", "delta", "w=1", "eta=0"], 65),
        # one point spec per grid
        (["grid", "psi_a1", *PSI, "--annulus", "1:1:1:2", "--t-re", "0:1:3", "--t-im", "0:1:2"], 64),
        (["grid", "psi_a1", *PSI, "--t-re", "0:1:3", "t_re=0:1:2", "--t-im", "0:1:2"], 64),
        # a name given twice, in either spelling
        (["eval", "lambda", "w=1", "w=2", "eta=0", "omega=1"], 64),
        (["grid", "psi_a1", *PSI, "--annulus", "1:1:1:2", "--annulus", "2:2:1:2"], 64),
        (["grid", "psi_a1", *PSI, "--t-re", "0.1:1:3", "--t-re=0.1:1:2", "--t-im", "0.1:1:2"], 64),
        # a top-level config key other than the four it may hold
        (["--config", "{d}/topkey.json", "eval", "delta", "w=1", "eta=0"], 65),
        # a multi-Bernoulli order whose k! overflows a float, refused at once
        (["eval", "bernoulli", "N=1", "k=3000", "x=0.5", "a=1"], 64),
        # the config has no truncation key
        (["--config", "{d}/oldtruncation.json", "eval", "gamma2", "x=1", "omega1=1", "omega2=1i"], 65),
        # a zeta that neither route reaches within HURWITZ_TERMS terms: the
        # shifted tail starts past the cap and the reflection's k-sum decays
        # too slowly; bounded work, then a refusal
        (["eval", "zeta", "N=1", "s=3", "x=-1000000+0.000001i", "a=1"], 64),
        (["eval", "zeta", "N=1", "s=2", "x=-5000+0.0001i", "a=1"], 64),
        # a zeta whose N = 2 Euler-Maclaurin tail in m starts next to a pole
        (["eval", "zeta", "N=2", "s=6", "x=-30+0.5i", "a=1,1+0.1i"], 64),
        # BPS keys outside the schema, a class or a Laurent index given twice
        (["eval", "psi_general", "bps={d}/splittng.json", *GENERAL, "theta=0.2"], 65),
        (["eval", "psi_general", "bps={d}/splitkey.json", *GENERAL, "theta=0.2"], 65),
        (["eval", "psi_general", "bps={d}/termkey.json", *GENERAL, "theta=0.2"], 65),
        (["eval", "psi_general", "bps={d}/twogamma.json", *GENERAL, "theta=0.2"], 65),
        (["eval", "psi_general", "bps={d}/twon.json", *GENERAL, "theta=0.2"], 65),
        # a config key given twice
        (["--config", "{d}/dupkey.json", "verify", "reflection", "--samples", "1"], 65),
        # a large |Im s|: the tail's first dropped term exceeds the value
        (["eval", "zeta", "N=1", "s=2+300i", "x=1", "a=1"], 64),
        # an active class whose charge overflows, or is not finite
        (["eval", "psi_general", "bps={d}/bigclass.json", "r=1i", "t=1i", "tau=1i", "theta=0.1"], 65),
        (["grid", "psi_general", "bps={d}/bigclass.json", "r=1i", "tau=1i", "theta=0.1", "--annulus", "1:1:1:2"], 65),
        (["eval", "psi_general", "bps={d}/infz.json", "r=1", "t=1", "tau=1i", "theta=0.1"], 65),
        (["grid", "psi_general", "bps={d}/infz.json", "r=1", "tau=1i", "theta=0.1", "--annulus", "1:1:1:2"], 65),
        # JSON nested too deeply, as a BPS file and as a config
        (["eval", "psi_general", "bps={d}/nested.json", *GENERAL, "theta=0.2"], 65),
        (["--config", "{d}/nested.json", "verify", "reflection", "--samples", "1"], 65),
        # a value that underflows to 0, whose relative error no estimate bounds
        (["eval", "zeta", "N=1", "s=5", "x=1e300+1i", "a=1"], 64),
        # the pole test runs before the tail coefficients are built: a pole at
        # x = -om1, though the coefficients of this pair overflow, as they do
        # for a point off the lattice
        (["eval", "gamma2", "x=-1e21", "omega1=1e21", "omega2=1e21i"], 2),
        (["eval", "gamma2", "x=1e20+5e19i", "omega1=1e21", "omega2=1e21i"], 64),
        # a Gamma_2 lattice coordinate that overflows to inf - inf
        (["eval", "gamma2", "x=1e159+1e159i", "omega1=1e150", "omega2=1e150+1e150i"], 64),
        (["eval", "f", "w=1e159+1e159i", "eta=0", "omega1=1e150", "omega2=1e150+1e150i"], 64),
        # the two scale bands where the Gamma_2 sum is NaN: refused, not printed
        (["eval", "gamma2", "x=3.3e-21+1.7e-21i", "omega1=1e-20", "omega2=1e-20i"], 64),
        (["eval", "gamma2", "x=4.95e15+2.55e15i", "omega1=1.5e16", "omega2=1.5e16i"], 64),
    ],
)
def test_bad_input_exit_code(tmp_path, capsys, argv, code):
    for name, text in FILES.items():
        (tmp_path / name).write_text(text)
    got, _, err = run(capsys, *[a.format(d=tmp_path) for a in argv])
    assert got == code
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "name",
    [
        "zerodiv.json",
        "nanz.json",
        "swapped.json",
        "splittng.json",
        "splitkey.json",
        "termkey.json",
        "twogamma.json",
        "twon.json",
        "twoz.json",
        "bigclass.json",
        "infz.json",
        "nested.json",
    ],
)
def test_malformed_bps_file_exits_65_on_every_call(tmp_path, capsys, name):
    path = tmp_path / name
    path.write_text(FILES[name])
    argv = ["eval", "psi_general", f"bps={path}", *GENERAL, "theta=0.2"]
    for _ in range(2):
        code, _, err = run(capsys, *argv)
        assert code == 65 and "malformed bps file" in err and "Traceback" not in err
    # once mended, the file is read afresh
    path.write_text(_a1_file())
    assert run(capsys, *argv)[0] == 0


def test_a_class_entry_beyond_float_range_counts_only_where_its_z_is_not_0(tmp_path, capsys):
    # Z(gamma) = 1 + 0.5i: the entry 10^400 + 1 meets Z = 0 only
    path = tmp_path / "bigclass0.json"
    path.write_text(_a1_doc(Z=[[0.0, 0.0], [1.0, 0.5]], omega=[
        {"gamma": [g * (10**400 + 1), g], "poly": [{"n": 0, "c": "1/1"}]} for g in (1, -1)
    ]))
    got = run(capsys, "eval", "psi_general", f"bps={path}", "r=1", "t=1", "tau=1i", "theta=0.1")
    assert got == (0, "psi_general = 1.0179036511340942 + 0.034890776791036325i\n", "")


ACTIVE_R = "r must be a non-active ray (and not opposite to one)"
THETA_LENGTH = "theta needs 1 values, one per electric basis vector, got 2"


@pytest.mark.parametrize(
    "argv, message",
    [
        # one defect each: the message it has always printed
        (["r=0", "t=0.5+0.4i", "theta=0.2"], "ray direction and t must be non-zero"),
        (["r=1+0.5i", "t=0.5+0.4i", "theta=0.2"], ACTIVE_R),
        (["r=-1-0.5i", "t=0.5+0.4i", "theta=0.2"], ACTIVE_R),
        (["r=1i", "t=1i", "theta=0.2,0.3"], THETA_LENGTH),
        (["r=1i", "t=0", "theta=0.2"], "ray direction and t must be non-zero"),
        (["r=1i", "t=-1i", "theta=0.2"], "t must lie in the half-plane H_r"),
        # two defects: r and theta are checked before t
        (["r=1+0.5i", "t=0", "theta=0.2"], ACTIVE_R),
        (["r=1i", "t=-1i", "theta=0.2,0.3"], THETA_LENGTH),
    ],
)
def test_eval_psi_general_reports_the_first_failing_check(tmp_path, capsys, argv, message):
    # the doubled A1 file of _a1_file: Z = 1+0.5i, theta of length 1
    path = tmp_path / "a1.json"
    path.write_text(_a1_file())
    code, out, err = run(capsys, "eval", "psi_general", f"bps={path}", "tau=0.1+0.8i", *argv)
    assert (code, out, err) == (64, "", f"psi_general: {message}\n")


def test_rank_zero_bps_file_builds_an_instance(tmp_path, capsys):
    # the empty lattice splits into empty bases, so only theta's length fails
    path = tmp_path / "rank0.json"
    path.write_text('{"rank": 0, "skew_form": [], "Z": [], "omega": []}')
    code, out, err = run(capsys, "eval", "psi_general", f"bps={path}", *GENERAL, "theta=0.1")
    expected = "psi_general: theta needs 0 values, one per electric basis vector, got 1\n"
    assert (code, out, err) == (64, "", expected)


#: eval where floating point overflows, divides by zero, leaves the math
#: domain or ends in a value that is not finite
EXTREME_EVAL = [
    ["eval", "f", "w=1e300", "eta=0", "omega1=1", "omega2=1i"],
    ["eval", "gamma1", "x=1e308+1e308i", "a=1"],
    ["eval", "psi_a1", "z=1e308+1e308i", "t=1", "tau=1i", "theta=0"],
    ["eval", "lambda", "w=1", "eta=0", "omega=1e-320"],
    ["eval", "f", "w=1", "eta=0", "omega1=1e-320", "omega2=1"],
    ["eval", "lambda", "w=1e308+1e308i", "eta=0", "omega=1"],
    ["eval", "eq", "q=0.5", "x=1e308+1e308i"],
    ["eval", "tau", "z=1", "t=1e-300", "theta=0"],
    ["eval", "upsilon", "w=1e200i", "theta=0"],
    ["eval", "bernoulli", "N=2", "k=3", "x=1e308+1e308i", "a=1,1"],
]


@pytest.mark.parametrize("argv", EXTREME_EVAL)
def test_eval_at_extreme_arguments_exits_64(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 64 and out == ""
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_eval_gamma2_at_large_parameters_is_homogeneous(capsys):
    # the tail coefficients of (3e12, 3e12 i) are finite; the value is the one
    # log Gamma_2(lam x | lam om) = log Gamma_2(x | om) - B_{2,2}(x | om) log(lam) / 2
    # gives from (1, i), lam = 3e12
    from qrh.bernoulli import multi_bernoulli
    from qrh.special import log_gamma2

    code, out, err = run(capsys, "eval", "gamma2", "x=1e12+5e11i", "omega1=3e12", "omega2=3e12i")
    assert code == 0 and err == ""
    lam, x = 3e12, complex(1 / 3, 1 / 6)
    log_ref = log_gamma2(x, 1, 1j) - multi_bernoulli(2, 2, x, (1, 1j)) * math.log(lam) / 2
    assert cmath.isclose(parse_complex(out.split(" = ")[1]), cmath.exp(log_ref), rel_tol=1e-13)
    diff = log_gamma2(lam * x, lam, lam * 1j) - log_ref
    assert abs(complex(diff.real, math.remainder(diff.imag, 2 * math.pi))) < 1e-13


@pytest.mark.parametrize("token", ["--", "--=3", "=3"])
def test_an_argument_with_no_name_is_refused_by_name(capsys, token):
    with pytest.raises(CliError, match=f"argument '{token}' has no name") as exc:
        cli_module._parse_kv_tokens(["w=1", token, "eta=0"])
    assert exc.value.code == EX_USAGE
    if token != "--=3":  # read_argv refuses --=3 first, as an ambiguous flag
        code, out, err = run(capsys, "eval", "lambda", token, "w=1", "eta=0", "omega=1")
        assert (code, out, err) == (64, "", f"argument '{token}' has no name\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "delta", "w=-1e8+1i", "eta=0"],
        ["eval", "gamma2", "x=-1e8+1i", "omega1=1", "omega2=1"],
    ],
    ids=["log_barnes_g", "log_gamma2"],
)
def test_recurrence_past_the_shift_cap_exits_64(capsys, argv):
    start = time.perf_counter()
    code, _, err = run(capsys, *argv)
    assert code == 64 and "recurrence steps" in err and "Traceback" not in err
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("command", ["eval", "grid"])
def test_ray_direction_beyond_the_largest_modulus(tmp_path, capsys, command):
    # |r| overflows a float although both parts are finite; psi_r depends on
    # the direction of r alone, so every output is that of r = 1+i
    path = tmp_path / "rank6.json"
    _write_rank6(path)
    points = ["t=1"] if command == "eval" else ["--annulus", "0.5:1:2:4"]

    def call(r):
        argv = [command, "psi_general", f"bps={path}", f"r={r}", "tau=0.2+0.8i", "theta=0,0,0"]
        return run(capsys, *argv, *points)

    code, out, err = call("1.5e308+1.5e308i")
    assert code == 0 and out and "Traceback" not in err
    assert (code, out) == call("1+1i")[:2]


def test_grid_unknown_function(capsys):
    code, _, err = run(capsys, "grid", "lambda", "--annulus", "1:1:1:2")
    assert code == 64


# ---------------------------------------------------------------------------
# report and config


def test_report_runs_all_suites(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        "--config",
        str(_write_config(tmp_path)),
        "report",
        "--out",
        str(out_path),
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["pass"] is True
    from qrh.suites import SUITES

    assert {r["suite"] for r in doc["reports"]} == set(SUITES)


#: sha256 of `qrh --seed 42 report`; a change that moves its numbers updates
#: this hash and lists the changed fields in CHANGES.md
REPORT_42_DIGEST = "2a8ee06c526a51d4a02cf3874cbf1951a6e62cf968f039a925704028d15c94b8"


def test_report_golden(capsys):
    code, out, _ = run(capsys, "--seed", "42", "report")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == REPORT_42_DIGEST


#: (exit code, sha256) of `qrh --seed S report` at two more seeds, a passing
#: one and one where eq-identities fails (ROADMAP open item 11), so that the
#: bytes of the suites are pinned on both sides of a verdict
REPORT_DIGESTS = {
    7: (0, "6aa2e873cdd55b6a6c3d75e7f31da9fa5b351ac658cc2a8a6b0e32fc2397b2e5"),
    144: (1, "5b09656345bd5dae36190c90d88ee547e80d66ac3f7d0eb12571398266a98823"),
}


@pytest.mark.parametrize("seed", sorted(REPORT_DIGESTS))
def test_report_golden_at_more_seeds(capsys, seed):
    code, out, _ = run(capsys, "--seed", str(seed), "report")
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == REPORT_DIGESTS[seed]


def test_report_golden_without_wide_simd():
    # the zeta-oracle references are numpy sums; the same bytes must come out
    proc = _qrh_without_wide_simd("--seed", "42", "report")
    assert hashlib.sha256(proc.stdout).hexdigest() == REPORT_42_DIGEST


def test_report_accepts_seed_after_subcommand(capsys):
    code, out, _ = run(capsys, "report", "--seed", "7")
    assert (code, out) == run(capsys, "--seed", "7", "report")[:2]


# ---------------------------------------------------------------------------
# suites shared among the CPUs of the affinity mask

needs_fork = pytest.mark.skipif(
    not hasattr(os, "fork") or not os.path.isdir("/proc/self/fd"),
    reason="forks workers and counts open fds in /proc/self/fd",
)


def _cpus(monkeypatch, n: int) -> list:
    """An affinity mask of n CPUs, so that a one-CPU runner forks too; the
    list it gives grows by one at each fork."""
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    monkeypatch.setattr(os, "fork", fork)
    return forks


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _patch_suites(monkeypatch, here, there):
    """Run each suite through here(name, kwargs) in this process and through
    there(name, kwargs) in a forked child."""
    parent = os.getpid()
    monkeypatch.setattr(
        cli_module, "run_suite", lambda name, **kw: (here if os.getpid() == parent else there)(name, kw)
    )


def _quick(name, kw):
    return run_suite(name, samples=1, seed=kw["seed"])


@needs_fork
@pytest.mark.parametrize("seed", ["42", "7", "144"])
def test_report_bytes_and_exit_code_on_one_and_two_cpus(capsys, monkeypatch, seed):
    forks = _cpus(monkeypatch, 1)
    one = run(capsys, "--seed", seed, "report")
    assert forks == []
    forks = _cpus(monkeypatch, 2)
    fds = _open_fds()
    assert run(capsys, "--seed", seed, "report") == one
    assert forks == [1]
    _assert_no_child_left()
    assert _open_fds() == fds


def _first_call_waits(seconds, then=_quick):
    """A suite runner that waits on its first call, so that the child claims
    some suites meanwhile, and then runs then(name, kwargs)."""
    calls = []

    def here(name, kw):
        if not calls:
            time.sleep(seconds)
        calls.append(name)
        return then(name, kw)

    return here


def _raise(name, kw):
    raise ValueError(f"{name} raised")


def _raise_with_pid(name, kw):
    raise ValueError(f"{name} raised in {os.getpid()}")


def _first_call_passes(then):
    """(suite runner, names it ran): the runner waits on its first call, so
    that the child claims the other suites meanwhile, and returns a report;
    later calls run then(name, kwargs)."""
    calls = []

    def here(name, kw):
        calls.append(name)
        if len(calls) > 1:
            return then(name, kw)
        time.sleep(0.3)
        return _quick(name, kw)

    return here, calls


@needs_fork
@pytest.mark.parametrize("where", ["child", "parent"])
def test_a_suite_that_raises_gives_its_exception(monkeypatch, where):
    _cpus(monkeypatch, 2)
    fds = _open_fds()
    if where == "parent":
        _patch_suites(monkeypatch, _raise, _first_call_waits(0.3))
        with pytest.raises(ValueError, match=" raised$"):
            main(["verify", "all"])
    else:
        # each suite raises in both processes, as a seeded suite does, except
        # the first one this process claims
        here, ran_here = _first_call_passes(_raise_with_pid)
        _patch_suites(monkeypatch, here, _raise_with_pid)
        with pytest.raises(ValueError) as raised:
            main(["verify", "all"])
        name = ran_here[-1]  # the child ran it first, then it ran here once more
        assert name != ran_here[0]
        assert str(raised.value) == f"{name} raised in {os.getpid()}"
    _assert_no_child_left()
    assert _open_fds() == fds


@needs_fork
def test_the_first_suite_that_raises_gives_the_exception(monkeypatch):
    _cpus(monkeypatch, 2)
    names = list(SUITES)

    def suite(name, kw):
        return _raise(name, kw) if names.index(name) >= 5 else _quick(name, kw)

    _patch_suites(monkeypatch, suite, suite)
    with pytest.raises(ValueError, match=f"^{names[5]} raised$"):
        main(["verify", "all"])
    _assert_no_child_left()


class _TwoArguments(Exception):
    """Pickles, but does not unpickle: its args hold one of its two arguments."""

    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


@needs_fork
@pytest.mark.parametrize("unpicklable", ["local class", "two arguments"])
def test_an_exception_that_does_not_pickle_is_raised_as_itself(monkeypatch, unpicklable):
    class Local(Exception):  # a local class does not pickle
        pass

    def suite(name, kw):
        if unpicklable == "local class":
            raise Local(f"raised in {os.getpid()}")
        raise _TwoArguments(f"raised in {os.getpid()}", 3)

    kind = Local if unpicklable == "local class" else _TwoArguments
    _cpus(monkeypatch, 1)
    _patch_suites(monkeypatch, suite, suite)
    with pytest.raises(kind) as one:
        main(["verify", "all"])
    # the first suite that raises is one the child ran
    _cpus(monkeypatch, 2)
    _patch_suites(monkeypatch, _first_call_passes(suite)[0], suite)
    with pytest.raises(kind) as two:
        main(["verify", "all"])
    assert (str(two.value), vars(two.value)) == (str(one.value), vars(one.value))
    assert kind is Local or two.value.code == 3
    _assert_no_child_left()


@needs_fork
def test_the_suites_of_a_child_that_dies_run_here(capsys, monkeypatch):
    _cpus(monkeypatch, 1)
    one = run(capsys, "verify", "all", "--samples", "3")

    def there(name, kw):
        os.kill(os.getpid(), signal.SIGKILL)

    forks = _cpus(monkeypatch, 2)
    _patch_suites(monkeypatch, _first_call_waits(0.3, lambda name, kw: run_suite(name, **kw)), there)
    fds = _open_fds()
    assert run(capsys, "verify", "all", "--samples", "3") == one
    assert forks == [1]
    _assert_no_child_left()
    assert _open_fds() == fds


@needs_fork
def test_an_interrupt_here_kills_and_reaps_the_children(monkeypatch):
    def here(name, kw):
        time.sleep(0.2)
        raise KeyboardInterrupt

    def there(name, kw):
        time.sleep(60)  # killed long before

    _cpus(monkeypatch, 2)
    _patch_suites(monkeypatch, here, there)
    fds = _open_fds()
    t0 = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        main(["verify", "all"])
    assert time.perf_counter() - t0 < 30
    _assert_no_child_left()
    assert _open_fds() == fds


def test_one_suite_never_forks(capsys, monkeypatch):
    def fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", fork, raising=False)
    code, out, _ = run(capsys, "verify", "reflection", "--samples", "5")
    assert code == 0 and json.loads(out)["suite"] == "reflection"


def _write_config(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(
        json.dumps(
            {
                "seed": 7,
                "digits": 12,
                "format": "json",
                "tolerances": {},
            }
        )
    )
    return cfg


def test_config_seed_and_format(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    code, out, _ = run(capsys, "--config", str(cfg), "eval", "lambda", "w=1", "eta=0", "omega=1")
    assert code == 0
    doc = json.loads(out)  # format json from config
    assert doc["status"] == "ok"


def test_flags_beat_config(tmp_path, capsys):
    cfg = str(_write_config(tmp_path))  # seed 7, digits 12, format json
    verify = ["verify", "reflection", "--samples", "2"]
    assert json.loads(run(capsys, "--config", cfg, *verify)[1])["seed"] == 7
    assert json.loads(run(capsys, "--config", cfg, "--seed", "42", *verify)[1])["seed"] == 42
    args = ["eval", "lambda", "w=1", "eta=0", "omega=1"]
    plain = run(capsys, *args)[1]
    assert run(capsys, "--config", cfg, "--format", "text", "--digits", "17", *args)[1] == plain
