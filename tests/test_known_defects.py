"""The known defects of `qrh`, as strict expected failures (ROADMAP item 16).

Each case runs one command in process and asserts its correct outcome,
which is known already: a value computed once with mpmath and committed as
a literal, or an exit code.  While the defect stands, the case fails and
pytest reports it as `xfailed`.  A fix makes it pass, which `strict=True`
turns into a failure until the fixing change removes the marker and lists
the case in CHANGES.md.  `raises=AssertionError` keeps a crash from passing
for the known defect.

Only defects that CHANGES.md or ROADMAP.md records enter the ledger; no
existing test moves here, and a case is never loosened.
"""

import json

import pytest

from qrh.cli import main

known_defect = pytest.mark.xfail(strict=True, raises=AssertionError)


def _eval(capsys, argv):
    """The exit code of `qrh --format json --digits 17 eval ...`, and its
    value when it printed one."""
    code = main(["--format", "json", "--digits", "17", "eval", *argv])
    out = capsys.readouterr().out
    return code, complex(*json.loads(out)["value"]) if code == 0 else None


def _within(value, ref, rel):
    return value is not None and abs(value - ref) <= rel * abs(ref)


#: (argv of eval, the correct value, its relative tolerance), by ROADMAP item
HAMILTONIAN = (
    # item 3: the closed forms cancel terms of size |w|^2 log|w|; prints
    # -0.000383i with exit 0.  mpmath at 60 digits
    ["hamiltonian", "z=-1", "t=0.000001i", "theta=0.1"],
    1.5791341961074535e-07j,
    1e-10,
)
EQ_NEAR_ONE = (
    # item 8: the product does not converge within 20000 factors (exit 64);
    # mpmath.qp(0.5, 0.99874) at 40 digits, matching exp(-sum x^n/(n(1-q^n)))
    ["eq", "q=0.99874", "x=0.5"],
    1.951211667917487851e-201,
    1e-12,
)


@known_defect
@pytest.mark.parametrize("argv, ref, rel", [HAMILTONIAN, EQ_NEAR_ONE], ids=["item3-hamiltonian", "item8-eq"])
def test_eval_prints_the_correct_value(capsys, argv, ref, rel):
    code, value = _eval(capsys, argv)
    assert code == 0 and _within(value, ref, rel)


@known_defect
@pytest.mark.parametrize("argv, ref, rel", [HAMILTONIAN], ids=["item3-hamiltonian"])
def test_eval_gives_no_confident_wrong_outcome(capsys, argv, ref, rel):
    # a refusal (exit 64) is allowed, a wrong value with exit 0 is not
    code, value = _eval(capsys, argv)
    assert code == 64 or (code == 0 and _within(value, ref, rel))


def test_psi_a1_at_a_huge_tau_is_not_a_pole(capsys):
    # item 12, mended: the Gamma_2 pole window is 1e-12 |x| / min|om| wide in
    # lattice coordinates, so past |x| / min|om| = 5e11 every point read as a
    # pole (exit 2), though x = 0.5+5e13i lies at lattice coordinates (0.5,
    # 0.5); there log_gamma2 now refuses (exit 64)
    code, _ = _eval(capsys, ["psi_a1", "z=1", "t=1", "tau=1e14i", "theta=0"])
    assert code == 64


@known_defect
@pytest.mark.parametrize(
    "seed, suite",
    [
        # item 11: log_f's cancellation at |w| = 40, 80 (item 3)
        (18, "asymptotic-order"),
        # item 11: the inverse series oracle cancels near q > 0, x < 0
        (144, "eq-identities"),
        # item 11: compare() scales a cancelling coefficient by max(1, |lv|, |rv|)
        (120, "qtorus"),
    ],
)
def test_verify_passes_at_a_failing_seed(capsys, seed, suite):
    code = main(["--seed", str(seed), "verify", suite])
    capsys.readouterr()
    assert code == 0
