"""Closed-form solutions of the quantum Riemann-Hilbert problem.

The rank-one doubled case has two solution branches on C* minus a ray,
with multipliers built from the modified gamma function at omega = 1:

    Psi_side(t): y_dual -> prod_j Lambda( side*z/(2 pi i t),
                                          1/2 - side*(theta + (j+1/2) tau) | 1 )^side . y_dual,

side in {+1, -1}, and the adjoint scalar

    psi_side(t) = F( side*z/(2 pi i t), (1+tau)/2 - side*theta | 1, tau )^(-1).

The general finite/uncoupled/palindromic/integral case attaches a finite
triple product of Lambda factors to every non-active ray r, over the active
classes whose charge lies in i H_r (encoded as Im(Z(gamma)/r) > 0; the
convention is fixed by consistency with the doubled-case gluing).

Both limits tau -> 0 and tau -> 1 of the adjoint form are provided in
closed form (Delta and Upsilon).  Their Richardson extrapolations along
dyadic paths in the upper half-plane are cross-checks, each a function of
its own.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

from .bps import EMSplitting, RefinedBPSStructure, classify, kappa_set
from .bps import _split, active_rays, canonical_refinement
from .signals import DomainError, PoleSignal, failure, finite
from .special import log_delta, log_delta_many, log_f, log_f_many, log_lambda
from .special import log_upsilon_many, upsilon_fn

__all__ = [
    "RHInstance",
    "solve_a1",
    "adjoint_psi_a1",
    "adjoint_psi_a1_many",
    "verify_jump_a1",
    "LimitsA1",
    "verify_limits_a1",
    "solve_general",
    "adjoint_general",
    "adjoint_general_many",
    "hamiltonian_limit",
    "hamiltonian_limit_many",
    "hamiltonian_extrapolated",
    "tau_function_limit",
    "tau_function_limit_many",
    "tau_psi_closed",
    "tau_psi_extrapolated",
    "richardson",
    "predicted_special_t",
    "detect_special_t",
]

TWO_PI_I = 2j * math.pi

EXCLUDED_RAY_TOL = 1e-12


@lru_cache(maxsize=8)
def _lattice_analysis(skew: tuple, invariants: tuple, s: EMSplitting | None):
    """(splitting, electric coordinates of the active classes, canonical
    refinement) of the lattice (skew form, invariant items), with s verified
    or a splitting constructed if None.

    The analysis runs on a structure whose Z is all 0, so structures that
    differ only in Z share it; reports analyse 2 lattices in all, a grid 1.
    The items keep their order, which the refinement's errors name classes
    in.  A structure that fails a check raises DomainError on every call,
    since lru_cache keeps no exception.
    """
    b = RefinedBPSStructure(len(skew), skew, (0j,) * len(skew), dict(invariants))
    if not classify(b).all:
        raise DomainError("instance requires a finite, uncoupled, palindromic, integral structure")
    # the electric coordinates of the active classes come from the
    # splitting's verification, which also checks that the magnetic ones vanish
    return (*_split(b, s), canonical_refinement(b))


class RHInstance:
    """The Riemann-Hilbert instance of a finite, uncoupled, palindromic,
    integral structure b: its splitting em_splitting(b, s) (s verified, or
    constructed if None), canonical refinement and active rays, and
    (gamma, Z(gamma), electric coordinates of gamma, Omega terms (n, c_n))
    for each active class in sorted order."""

    def __init__(self, b: RefinedBPSStructure, s: EMSplitting | None = None):
        self.structure = b
        key = (b.skew, tuple(b.invariants.items()), s)
        try:
            hash(key)
            analysis = _lattice_analysis
        except TypeError:  # a lattice given in lists is analysed on every call
            analysis = _lattice_analysis.__wrapped__
        self.splitting, coordinates, self.refinement = analysis(*key)
        self.rays = tuple(active_rays(b))
        self.classes = tuple(
            (g, b.charge(g), ge, tuple((n, int(c)) for n, c in b.omega(g).items()))
            for g, ge in zip(b.active_classes, coordinates)
        )


def _check_side(side: int) -> int:
    if side not in (1, -1):
        raise DomainError("side must be +1 or -1")
    return side


def _rank_one_w(z, t, side: int) -> complex:
    """w = side*z/(2 pi i t), once side, z != 0 and t off the excluded ray are checked."""
    z, t = complex(z), complex(t)
    _check_side(side)
    if z == 0:
        raise DomainError("z must be non-zero")
    return _w_off_ray(t, 1j * side * z, side * z, side)


def _w_off_ray(t: complex, iz: complex, sz: complex, side: int) -> complex:
    """sz/(2 pi i t), sz = side*z, once t != 0 and t off the excluded ray
    i * l_side (the direction iz = i*side*z) are checked."""
    if t == 0:
        raise DomainError("t must be non-zero")
    u = t / iz
    if abs(u.imag) <= EXCLUDED_RAY_TOL * abs(u) and u.real > 0:
        raise DomainError(f"t lies on the excluded ray i*l_{'+' if side > 0 else '-'}")
    return sz / (TWO_PI_I * t)


def solve_a1(z, t, tau, theta, side: int = 1, n: int = 1) -> complex:
    """Multiplier of y_{n alpha_dual} under Psi_side(t) in the doubled case.

    n = 1 is the defining formula; general n is the twisted product of
    shifted factors, negative n the inverse product.
    """
    w = _rank_one_w(z, t, side)
    tau, theta = complex(tau), complex(theta)
    total = 0j
    if n >= 0:
        for j in range(n):
            total += side * log_lambda(w, 0.5 - side * (theta + (j + 0.5) * tau), 1.0)
    else:
        for j in range(n, 0):
            total -= side * log_lambda(w, 0.5 - side * (theta + (j + 0.5) * tau), 1.0)
    return cmath.exp(total)


def adjoint_psi_a1(z, t, tau, theta, side: int = 1) -> complex:
    """The adjoint-form scalar psi_side(t) = F(side*z/(2pi i t), (1+tau)/2 - side*theta | 1, tau)^(-1)."""
    w = _rank_one_w(z, t, side)
    tau, theta = complex(tau), complex(theta)
    return cmath.exp(-log_f(w, (1 + tau) / 2 - side * theta, 1.0, tau))


def _rank_one_ws(z, ts, side: int) -> list:
    """_rank_one_w(z, t, side) for each t in ts: w, or the outcome of the
    exception it raises (see signals.failure).  The checks on side and z, and
    i*side*z and side*z, are worked out once; with a bad side or z = 0 every
    point goes through _rank_one_w itself."""
    z = complex(z)
    fixed = side in (1, -1) and z != 0
    if fixed:
        iz, sz = 1j * side * z, side * z
    out = []
    for t in ts:
        try:
            out.append(_w_off_ray(complex(t), iz, sz, side) if fixed else _rank_one_w(z, t, side))
        except (ArithmeticError, ValueError) as exc:  # DomainError among them
            out.append(failure(exc))
    return out


def _exp_outcomes(logs) -> list:
    """outcome(cmath.exp, x) for each log value x (see signals.outcome), and
    failure(x) for each exception x."""
    out = []
    for x in logs:
        if isinstance(x, Exception):
            out.append(failure(x))
            continue
        try:
            v = cmath.exp(x)
        except (ArithmeticError, ValueError) as exc:
            out.append(failure(exc))
        else:
            out.append(finite(v))
    return out


def _rank_one_logs(batch, z, ts, arg: complex, side: int) -> list:
    """batch(ws, args) at the w = side*z/(2 pi i t) of each t in ts, every
    arg the given one: per point its log value, or the outcome of the
    exception of _rank_one_w or of the batch (see signals.failure)."""
    ws = _rank_one_ws(z, ts, side)
    live = [w for w in ws if not isinstance(w, Exception)]
    logs = iter(batch(live, [arg] * len(live)))
    out = []
    for w in ws:
        x = w if isinstance(w, Exception) else next(logs)
        out.append(failure(x) if isinstance(x, Exception) else x)
    return out


def adjoint_psi_a1_many(z, ts, tau, theta, side: int = 1) -> list:
    """outcome(adjoint_psi_a1, z, t, tau, theta, side) for each t in ts (see
    signals.outcome), with the checks on side and z once per call (see
    _rank_one_ws) and every log F from one log_f_many batch; values bitwise
    the scalar ones.  Any other exception propagates.
    """
    tau, theta = complex(tau), complex(theta)
    logs = _rank_one_logs(
        lambda ws, etas: log_f_many(ws, etas, 1.0, tau), z, ts, (1 + tau) / 2 - side * theta, side
    )
    return _exp_outcomes([x if isinstance(x, Exception) else -x for x in logs])


def verify_jump_a1(z, t, tau, theta) -> float:
    """|LHS/RHS - 1| of the jump identity behind the two-branch gluing:

        Lambda(w, 1/2-(theta+tau/2) | 1)
          = Lambda(-w, 1/2+(theta+tau/2) | 1)^(-1)
            * (1 + e^(c pi i tau) e^(-c z/t) e^(c 2 pi i theta))^(-1),

    with w = z/(2 pi i t) and c = sign Re(t/z) selecting the half-plane.
    """
    z, t, tau, theta = complex(z), complex(t), complex(tau), complex(theta)
    if t == 0 or z == 0:
        raise DomainError("z and t must be non-zero")
    re = (t / z).real
    if re == 0:
        raise DomainError("t/z on the boundary between the half-planes")
    c = 1 if re > 0 else -1
    w = z / (TWO_PI_I * t)
    lhs = log_lambda(w, 0.5 - (theta + tau / 2), 1.0)
    jump = 1 + cmath.exp(c * (1j * math.pi * tau - z / t + TWO_PI_I * theta))
    if jump == 0:
        raise PoleSignal("pole", 0j, "verify_jump_a1")
    rhs = -log_lambda(-w, 0.5 + (theta + tau / 2), 1.0) - cmath.log(jump)
    return abs(cmath.exp(lhs - rhs) - 1)


@dataclass(frozen=True)
class LimitsA1:
    """t->0 and t->infinity behaviour of the n=1 multiplier along a ray."""

    residuals: tuple[float, ...]  # |multiplier - 1| at t = t0 * 2^-j
    growth_exponents: tuple[float, ...]  # |log|multiplier|| / log|t| at t = 10^j
    t0: complex

    @property
    def zero_limit_residual(self) -> float:
        return self.residuals[-1]

    @property
    def growth_exponent(self) -> float:
        return max(self.growth_exponents)


def verify_limits_a1(z, side, tau, theta) -> LimitsA1:
    """Sample the multiplier along t -> 0 (12 dyadic steps t0 2^-j) and
    t -> infinity (6 decades 10^j)."""
    from .bernoulli import multi_bernoulli

    steps, decades = 12, 6
    z, tau, theta = complex(z), complex(tau), complex(theta)
    side = _check_side(side)
    # start on the side's ray Re(t/z) > 0, scaled so the final dyadic step
    # leaves |c1/w| near 3e-7: below the 1e-6 target but well above the
    # cancellation noise of log Lambda at huge |w|
    eta = 0.5 - side * (theta + tau / 2)
    c1 = abs(multi_bernoulli(1, 2, eta, (1.0,))) / 2
    c1 = min(max(c1, 0.05), 50.0)
    t0 = complex(side * z * (3e-7 * 2.0**steps) / (2 * math.pi * c1))
    residuals = []
    for j in range(1, steps + 1):
        m = solve_a1(z, t0 * 2.0 ** (-j), tau, theta, side, 1)
        residuals.append(abs(m - 1))
    unit = t0 / abs(t0)
    growth = []
    for j in range(1, decades + 1):
        m = solve_a1(z, unit * 10.0**j, tau, theta, side, 1)
        growth.append(abs(cmath.log(abs(m))) / (j * math.log(10.0)) if m != 0 else math.inf)
    return LimitsA1(tuple(residuals), tuple(growth), t0)


# ---------------------------------------------------------------------------
# general case


class _RaySelection:
    """The part of psi_r(t) that does not depend on t, for one instance, ray
    r and theta: r_unit = r/|r|, and classes, (gamma, Z(gamma), theta(gamma),
    Omega terms) for each active gamma with Z(gamma) in i H_r (encoded as
    Im(Z(gamma)/r) > 0).  ws(t) is the part per point.

    The constructor checks, in this order, that r is non-zero, that r is a
    non-active ray and that theta has one value per electric basis vector."""

    def __init__(self, inst: RHInstance, r, theta):
        r = complex(r)
        if r == 0:
            raise DomainError("ray direction and t must be non-zero")
        try:
            u = r / abs(r)
        except OverflowError:  # |r| above the largest float, both parts finite
            r = r / max(abs(r.real), abs(r.imag))
            u = r / abs(r)
        if any(abs(u - ray.phase) < 1e-9 or abs(u + ray.phase) < 1e-9 for ray in inst.rays):
            raise DomainError("r must be a non-active ray (and not opposite to one)")
        theta = tuple(complex(x) for x in theta)
        dim = inst.splitting.theta_space_dim
        if len(theta) != dim:
            raise DomainError(
                f"theta needs {dim} values, one per electric basis vector, got {len(theta)}"
            )
        self.r_unit = u
        self.classes = tuple(
            (g, z, sum(c * th for c, th in zip(ge, theta)), terms)
            for g, z, ge, terms in inst.classes
            if (z / u).imag > 0
        )

    def ws(self, t) -> list[complex]:
        """Z(gamma)/(2 pi i t) for each selected class, after checking, in this
        order, that t is non-zero and lies in H_r."""
        t = complex(t)
        if t == 0:
            raise DomainError("ray direction and t must be non-zero")
        if (t / self.r_unit).real <= 0:
            raise DomainError("t must lie in the half-plane H_r")
        d = TWO_PI_I * t
        return [z / d for _g, z, _th, _terms in self.classes]

    def ws_many(self, ts) -> list:
        """ws(t) for each t in ts, or the outcome of the exception it raises
        (see signals.failure)."""
        out = []
        for t in ts:
            try:
                out.append(self.ws(t))
            except (ArithmeticError, ValueError) as exc:  # DomainError among them
                out.append(failure(exc))
        return out


def solve_general(inst: RHInstance, r, t, tau, theta, beta) -> complex:
    """Multiplier of y_beta under Psi_r(t) for a non-active ray r:

        prod over active gamma with Z(gamma) in i H_r,
             lambda in kappa(beta, gamma), Laurent index n of
        Lambda( Z(gamma)/(2 pi i t), 1/2 - theta(gamma) - (n/2+lambda) tau | 1 )
            ^ (Omega_n(gamma) eps(beta, gamma)).

    theta is the vector of values on the electric basis; beta a magnetic
    lattice vector.
    """
    b = inst.structure
    sel = _RaySelection(inst, r, theta)
    ws = sel.ws(t)
    tau = complex(tau)
    beta = tuple(int(x) for x in beta)
    be, _bm = inst.splitting.decompose(beta)
    if any(be):
        raise DomainError("beta must be a magnetic class")
    total = 0j
    for (g, _z, th_g, terms), w in zip(sel.classes, ws):
        eps, kappas = kappa_set(b, beta, g)
        for n, omega_n in terms:
            power = omega_n * eps
            for lam in kappas:
                total += power * log_lambda(w, 0.5 - th_g - (n / 2 + float(lam)) * tau, 1.0)
    return cmath.exp(total)


def _f_factors(sel: _RaySelection, tau: complex) -> list[tuple[int, int, complex]]:
    """(selected class index, Omega_n, eta) of each F factor of psi_r, with
    eta = 1/2 + (n+1) tau/2 - theta(gamma)."""
    return [
        (i, omega_n, 0.5 + (n + 1) * tau / 2 - th_g)
        for i, (_g, _z, th_g, terms) in enumerate(sel.classes)
        for n, omega_n in terms
    ]


def adjoint_general(inst: RHInstance, r, t, tau, theta) -> complex:
    """Adjoint-form scalar for a non-active ray r:

        psi_r(t) = prod over active gamma with Z(gamma) in i H_r, index n of
            F( Z(gamma)/(2 pi i t), 1/2 + (n+1) tau/2 - theta(gamma) | 1, tau )^(-Omega_n(gamma)).

    The index n steps the argument by tau/2, as q^(n/2) does in solve_general
    and qtorus.s_q_ray, so psi_r(theta) / psi_r(theta + tau<beta,->) is the
    multiplier solve_general(..., beta) for refined Omega too.
    """
    tau = complex(tau)
    sel = _RaySelection(inst, r, theta)
    ws = sel.ws(t)
    total = 0j
    for i, omega_n, eta in _f_factors(sel, tau):
        total -= omega_n * log_f(ws[i], eta, 1.0, tau)
    return cmath.exp(total)


def adjoint_general_many(inst: RHInstance, r, ts, tau, theta) -> list:
    """outcome(adjoint_general, inst, r, t, tau, theta) for each t in ts (see
    signals.outcome), with the F factors of every point in one log_f_many
    batch; values bitwise the scalar ones.

    The checks on r and theta, the selected classes and the F factors are
    worked out once per call: where those checks fail, every point gets
    their exception.  The checks on t and w run once per point.  A point's
    outcome is its exception, else its first failing log F, else
    exp(-sum Omega_n log F).  Other exceptions as in adjoint_psi_a1_many.
    """
    tau = complex(tau)
    try:
        sel = _RaySelection(inst, r, theta)
    except Exception as exc:  # a DomainError, else raised again by failure
        return [failure(exc)] * len(ts)
    factors = _f_factors(sel, tau)
    points = [p if isinstance(p, Exception) else [p[i] for i, _c, _eta in factors] for p in sel.ws_many(ts)]
    live = [p for p in points if not isinstance(p, Exception)]
    etas = [eta for _i, _c, eta in factors]
    logs = log_f_many([w for p in live for w in p], etas * len(live), 1.0, tau)
    k, i, out = len(factors), 0, []
    for p in points:
        if not isinstance(p, Exception):  # the point's first failing log F, else its log psi
            values = logs[i : i + k]
            i += k
            for p in values:
                if isinstance(p, Exception):
                    break
            else:
                p = 0j
                for (_i, c, _eta), v in zip(factors, values):
                    p -= c * v
        out.append(p)
    return _exp_outcomes(out)


# ---------------------------------------------------------------------------
# limits


def richardson(values) -> complex:
    """Extrapolate f(s0), f(s0/2), ... to s=0 assuming f = L + c1 s + c2 s^2 + ..."""
    r = [complex(v) for v in values]
    for m in range(1, len(r)):
        fac = 2.0**m
        r = [(fac * r[j + 1] - r[j]) / (fac - 1) for j in range(len(r) - 1)]
    return r[0]


#: The Richardson path of the limit cross-checks: tau_j = base + i S0 2^-j
#: for j = J0, ..., J0 + LEVELS, with base 0 (tau -> 0) or 1 (tau -> 1).
RICHARDSON_S0, RICHARDSON_J0, RICHARDSON_LEVELS = 0.5, 3, 4


def _log_psi_path(w: complex, side_theta: complex, base: int):
    """(tau_j, log psi_side at tau_j) along the Richardson path from base."""
    for j in range(RICHARDSON_J0, RICHARDSON_J0 + RICHARDSON_LEVELS + 1):
        tv = base + 1j * RICHARDSON_S0 * 2.0 ** (-j)
        yield tv, -log_f(w, (1 + tv) / 2 - side_theta, 1.0, tv)


def hamiltonian_limit(z, t, theta, side: int = 1) -> complex:
    """tau->0 limit of (2 pi i tau) log psi_side(t) at w = side*z/(2 pi i t), in
    closed form: -2 pi i log Delta(w, 1/2 - side*theta).

    The closed form is global (a branch of -2 pi i log Delta); the
    cross-check hamiltonian_extrapolated agrees with it only where the
    pointwise limit is clean, i.e. with w + eta away from the lower-left
    quadrant swept by the accumulating pole lattice -m1 - m2*tau.
    """
    w = _rank_one_w(z, t, side)
    return -TWO_PI_I * log_delta(w, 0.5 - side * complex(theta))


def hamiltonian_limit_many(z, ts, theta, side: int = 1) -> list:
    """outcome(hamiltonian_limit, z, t, theta, side) for each t in ts (see
    signals.outcome), with every w from _rank_one_ws and every log Delta from
    one log_delta_many batch; values bitwise the scalar ones.  Any other
    exception propagates."""
    logs = _rank_one_logs(log_delta_many, z, ts, 0.5 - side * complex(theta), side)
    return [x if isinstance(x, Exception) else finite(-TWO_PI_I * x) for x in logs]


def hamiltonian_extrapolated(z, t, theta, side: int = 1) -> complex:
    """hamiltonian_limit by Richardson along tau_j = i S0 2^-j."""
    path = _log_psi_path(_rank_one_w(z, t, side), side * complex(theta), 0)
    return richardson(TWO_PI_I * tv * log_psi for tv, log_psi in path)


def tau_function_limit(z, t, theta, side: int = 1) -> complex:
    """tau->1 limit of psi_side(t), expressed through Upsilon: Upsilon(w,
    -side*theta) with w = side*z/(2 pi i t)."""
    w = _rank_one_w(z, t, side)
    return upsilon_fn(w, -side * complex(theta))


def tau_function_limit_many(z, ts, theta, side: int = 1) -> list:
    """outcome(tau_function_limit, z, t, theta, side) for each t in ts, as
    hamiltonian_limit_many, through one log_upsilon_many batch."""
    return _exp_outcomes(_rank_one_logs(log_upsilon_many, z, ts, -side * complex(theta), side))


def tau_psi_closed(z, t, theta, side: int = 1) -> complex:
    """psi_side(t) at tau = 1: F(w, 1 - side*theta | 1, 1)^(-1) = w^(-1/12) Upsilon."""
    w = _rank_one_w(z, t, side)
    return cmath.exp(-log_f(w, 1 - side * complex(theta), 1.0, 1.0))


def tau_psi_extrapolated(z, t, theta, side: int = 1) -> complex:
    """tau_psi_closed by Richardson along tau_j = 1 + i S0 2^-j."""
    path = _log_psi_path(_rank_one_w(z, t, side), side * complex(theta), 1)
    return richardson(cmath.exp(log_psi) for _tv, log_psi in path)


# ---------------------------------------------------------------------------
# pole/zero locations of the n=1 multiplier


def predicted_special_t(z, tau, theta, n: int) -> complex:
    """t = z / (2 pi i (n + theta + (1+tau)/2)): pole (n <= -1, + side) or
    zero (n >= 0, - side) locations of the multipliers."""
    z, tau, theta = complex(z), complex(tau), complex(theta)
    return z / (TWO_PI_I * (n + theta + (1 + tau) / 2))


def detect_special_t(z, tau, theta, n: int) -> complex:
    """Locate a pole/zero of the n=1 multiplier by a secant search on actual
    evaluations (1/multiplier near a pole, multiplier near a zero), started
    from deliberately offset copies of the predicted location; at most 60
    steps.
    """
    z, tau, theta = complex(z), complex(tau), complex(theta)
    side = 1 if n <= -1 else -1  # + branch carries the poles, - branch the zeros

    def h(t: complex) -> complex:
        m = solve_a1(z, t, tau, theta, side, 1)
        return 1 / m if side == 1 else m

    start = predicted_special_t(z, tau, theta, n)
    t0 = start * (1 + 3e-3 + 2e-3j)
    t1 = start * (1 - 2e-3 + 1e-3j)
    try:
        h0, h1 = h(t0), h(t1)
        for _ in range(60):
            denom = h1 - h0
            if denom == 0:
                break
            t2 = t1 - h1 * (t1 - t0) / denom
            if abs(t2 - t1) < 1e-15 * abs(t2):
                return t2
            t0, h0, t1 = t1, h1, t2
            h1 = h(t1)
    except PoleSignal:
        return t1
    return t1
