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
from qrh.rhsolver import adjoint_psi_a1, solve_a1
from qrh.signals import DomainError

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
# item 22: the Gamma_2 sum is NaN at these scales of om (exit 64).  The value
# log Gamma_2(lam x | lam om) = log Gamma_2(x | om) - B_{2,2}(x | om) log(lam) / 2
# gives from x = 0.33+0.17i, om = (1, i): log Gamma_2 there by qrh, the rest
# by mpmath at 40 digits
GAMMA2_SMALL_OM = (
    ["gamma2", "x=3.3e-21+1.7e-21i", "omega1=1e-20", "omega2=1e-20i"],
    -5.429966721850079 + 13.799979785777426j,
    1e-12,
)
GAMMA2_LARGE_OM = (
    ["gamma2", "x=4.95e15+2.55e15i", "omega1=1.5e16", "omega2=1.5e16i"],
    0.025423612617036333 - 0.1362140055954276j,
    1e-12,
)


@known_defect
@pytest.mark.parametrize(
    "argv, ref, rel",
    [HAMILTONIAN, EQ_NEAR_ONE, GAMMA2_SMALL_OM, GAMMA2_LARGE_OM],
    ids=["item3-hamiltonian", "item8-eq", "item22-gamma2-small-om", "item22-gamma2-large-om"],
)
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
    ],
)
def test_verify_passes_at_a_failing_seed(capsys, seed, suite):
    code = main(["--seed", str(seed), "verify", suite])
    capsys.readouterr()
    assert code == 0


def test_verify_qtorus_passes_at_seed_120(capsys):
    # item 11, mended: compare() read 1.53e-12 at a coefficient that is
    # exactly 0; the coefficients are now exact data and compare equal
    code = main(["--seed", "120", "verify", "qtorus"])
    capsys.readouterr()
    assert code == 0


@known_defect
def test_adjoint_identity_holds_near_the_negative_axis():
    # item 23: at arg tau near pi the adjoint identity
    # adjoint_psi_a1(theta) / adjoint_psi_a1(theta + tau) = solve_a1(n = 1)
    # is off by 5.6e-3 with no refusal
    z, t, tau, theta, side = 1, 0.25, -0.99 + 0.14j, 0.1, 1
    try:
        psi0 = adjoint_psi_a1(z, t, tau, theta, side)
        psi1 = adjoint_psi_a1(z, t, tau, theta + tau, side)
        m = solve_a1(z, t, tau, theta, side, 1)
    except DomainError:  # a refusal is a correct outcome
        return
    assert abs(psi0 / psi1 / m - 1) <= 1e-8
