"""Quantum torus algebra, its meromorphic extension, and graded automorphisms.

Two layers:

* the formal quantum torus: finite sums over lattice classes with Laurent
  coefficients in q^(1/2), product y_g1 * y_g2 = q^(<g1,g2>/2) y_{g1+g2};

* the extended algebra: finite sums over magnetic classes delta with
  coefficients that are meromorphic functions f(tau, theta), theta in the
  electric dual space, twisted product

      (f1 . y_d1) * (f2 . y_d2) = f1(tau,theta) f2(tau,theta + tau<d1,->) . y_{d1+d2}.

A coefficient function is an `Expr`: a callable f(tau, theta), theta the
tuple of values on the electric basis, built from `const`, `tau`, `theta`,
`exp_`, `powi` and `shift` and combined with + and *.  A theta-shift is a
substitution of the argument, so shifts compose exactly.  Function equality
is decided numerically at seeded sample points (true meromorphic-identity
checking is not attempted).  Automorphisms are stored by their multipliers
on the magnetic basis generators plus an optional theta-translation; this
is complete data for the grading-preserving, degree-0-trivial automorphisms
used here.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

from .bps import EMSplitting, RefinedBPSStructure, Ray, kappa_set
from .rhsolver import RHInstance
from .signals import DomainError, PoleSignal

__all__ = [
    "Expr",
    "const",
    "tau",
    "theta",
    "exp_",
    "powi",
    "shift",
    "eval_expr",
    "TorusElement",
    "qt_mul",
    "TorusContext",
    "ExtendedElement",
    "ext_mul",
    "embed",
    "GradedAutomorphism",
    "eps_z",
    "s_q_ray",
    "ad",
    "compose",
]

Vec = tuple[int, ...]

_TWO_PI_I = 2j * math.pi


# ---------------------------------------------------------------------------
# coefficient functions


class Expr:
    """A coefficient function f(tau, theta); + and * are pointwise."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, tau_val: complex, theta_val: tuple[complex, ...]) -> complex:
        return self.fn(tau_val, theta_val)

    def __add__(self, other: Expr) -> Expr:
        f, g = self.fn, other.fn
        return Expr(lambda tv, th: f(tv, th) + g(tv, th))

    def __mul__(self, other: Expr) -> Expr:
        f, g = self.fn, other.fn
        return Expr(lambda tv, th: f(tv, th) * g(tv, th))


def const(v) -> Expr:
    c = complex(v)
    return Expr(lambda tv, th: c)


def tau() -> Expr:
    return Expr(lambda tv, th: tv)


def theta(coeffs) -> Expr:
    """The linear functional theta(gamma_e), gamma_e given by electric coords."""
    cs = tuple(int(c) for c in coeffs)
    return Expr(lambda tv, th: sum((c * th[i] for i, c in enumerate(cs)), 0j))


def exp_(a: Expr) -> Expr:
    f = a.fn
    return Expr(lambda tv, th: cmath.exp(f(tv, th)))


def powi(a: Expr, n: int) -> Expr:
    """a^n for an integer n; PoleSignal where a vanishes and n < 0."""
    f, n = a.fn, int(n)

    def power(tv, th):
        base = f(tv, th)
        if n < 0 and base == 0:
            raise PoleSignal("pole", 0j, "expr-powi")
        return base**n

    return Expr(power)


def shift(a: Expr, delta_pair=None, const_vec=None) -> Expr:
    """Substitution theta -> theta + tau * delta_pair + const_vec.

    delta_pair holds the integers <delta, e_i> on the electric basis.
    Composes associatively on evaluations: shift(a) o shift(b) = shift(a+b).
    """
    dp = tuple(int(c) for c in (delta_pair or ()))
    cv = tuple(complex(c) for c in (const_vec or ()))
    if not any(dp) and not any(cv):
        return a
    f = a.fn

    def shifted(tv, th):
        new_th = list(th)
        for i, c in enumerate(dp):
            new_th[i] += tv * c
        for i, c in enumerate(cv):
            new_th[i] += c
        return f(tv, tuple(new_th))

    return Expr(shifted)


def eval_expr(f: Expr, tau_val: complex, theta_val) -> complex:
    """Evaluate at (tau, theta); theta is a vector over the electric basis."""
    return f(complex(tau_val), tuple(complex(t) for t in theta_val))


# ---------------------------------------------------------------------------
# formal quantum torus


@dataclass
class TorusElement:
    """Finite sum over lattice classes with Laurent-in-q^(1/2) coefficients.

    terms maps a lattice vector to {k: c}, the coefficient sum c q^(k/2).
    """

    rank: int
    terms: dict

    @classmethod
    def generator(cls, gamma: Vec, k: int = 0, c: complex = 1.0) -> "TorusElement":
        return cls(len(gamma), {tuple(gamma): {int(k): complex(c)}})

    def __eq__(self, other):
        if not isinstance(other, TorusElement):
            return NotImplemented
        return self.rank == other.rank and _clean(self.terms) == _clean(other.terms)

    def __add__(self, other):
        if self.rank != other.rank:
            raise DomainError("rank mismatch")
        out = {g: dict(c) for g, c in self.terms.items()}
        for g, lq in other.terms.items():
            tgt = out.setdefault(g, {})
            for k, c in lq.items():
                tgt[k] = tgt.get(k, 0j) + c
        return TorusElement(self.rank, _clean(out))


def _clean(terms: dict) -> dict:
    out = {}
    for g, lq in terms.items():
        kept = {k: c for k, c in lq.items() if c != 0}
        if kept:
            out[g] = kept
    return out


def qt_mul(a: TorusElement, b: TorusElement, skew) -> TorusElement:
    """Product with the q^(<g1,g2>/2) twist in the y-generators."""
    if a.rank != b.rank:
        raise DomainError("rank mismatch")
    n = a.rank
    out: dict = {}
    for g1, lq1 in a.terms.items():
        for g2, lq2 in b.terms.items():
            tw = sum(g1[i] * skew[i][j] * g2[j] for i in range(n) for j in range(n))
            g = tuple(x + y for x, y in zip(g1, g2))
            tgt = out.setdefault(g, {})
            for k1, c1 in lq1.items():
                for k2, c2 in lq2.items():
                    k = k1 + k2 + tw
                    tgt[k] = tgt.get(k, 0j) + c1 * c2
    return TorusElement(n, _clean(out))


# ---------------------------------------------------------------------------
# extended algebra


@dataclass(frozen=True)
class TorusContext:
    """Skew form plus electric/magnetic splitting shared by extended objects."""

    skew: tuple[tuple[int, ...], ...]
    splitting: EMSplitting

    def pair_vec(self, mag_coords: Vec) -> Vec:
        """<delta, e_i> for each electric basis vector, delta in magnetic coords."""
        delta = self.splitting.magnetic_vector(tuple(mag_coords))
        n = len(delta)
        out = []
        for e in self.splitting.electric:
            out.append(sum(delta[i] * self.skew[i][j] * e[j] for i in range(n) for j in range(n)))
        return tuple(out)

    @cached_property
    def basis_pairs(self) -> tuple[Vec, ...]:
        """pair_vec of each magnetic basis generator."""
        k = len(self.splitting.magnetic)
        return tuple(self.pair_vec(tuple(int(i == j) for i in range(k))) for j in range(k))


@dataclass
class ExtendedElement:
    """Finite sum over magnetic coordinates with Expr coefficients."""

    ctx: TorusContext
    terms: dict  # Vec (magnetic coords) -> Expr

    def coefficient(self, coords: Vec) -> Expr:
        return self.terms.get(tuple(coords), const(0))

    def eval_coefficient(self, coords: Vec, tau_val, theta_val) -> complex:
        return eval_expr(self.coefficient(coords), tau_val, theta_val)

    def __mul__(self, other):
        return ext_mul(self, other)


def ext_mul(a: ExtendedElement, b: ExtendedElement) -> ExtendedElement:
    """Twisted product: the right factor's theta is shifted by tau<delta1,->."""
    if a.ctx != b.ctx:
        raise DomainError("elements live over different splittings")
    out: dict = {}
    for d1, f1 in a.terms.items():
        pv = a.ctx.pair_vec(d1)
        for d2, f2 in b.terms.items():
            d = tuple(x + y for x, y in zip(d1, d2))
            term = f1 * shift(f2, pv)
            out[d] = out[d] + term if d in out else term
    return ExtendedElement(a.ctx, out)


def embed(b: RefinedBPSStructure, s: EMSplitting, a: TorusElement) -> ExtendedElement:
    """The injective homomorphism I of the torus into the extended algebra:

        q^(k/2) y_{ge+gm}  |->  exp(pi i (k + <gm,ge>) tau + 2 pi i theta(ge)) . y_gm.
    """
    ctx = TorusContext(b.skew, s)
    out: dict = {}
    for g, lq in a.terms.items():
        ge_coords, gm_coords = s.decompose(g)
        ge = s.electric_vector(ge_coords)
        gm = s.magnetic_vector(gm_coords)
        mm = b.pairing(gm, ge)
        for k, c in lq.items():
            f = const(c) * exp_(
                const(1j * math.pi * (k + mm)) * tau() + const(_TWO_PI_I) * theta(ge_coords)
            )
            out[gm_coords] = out[gm_coords] + f if gm_coords in out else f
    return ExtendedElement(ctx, out)


# ---------------------------------------------------------------------------
# graded automorphisms


@dataclass
class GradedAutomorphism:
    """Grading-preserving automorphism, stored by generator data.

    Acts as A(f . y_delta) = f(tau, theta + translation) * m_delta(tau, theta) . y_delta,
    where m_delta is built multiplicatively (with twisted-product shifts)
    from the multipliers on the magnetic basis generators.  translation=None
    means the automorphism is trivial on the degree-0 subalgebra.
    """

    ctx: TorusContext
    multipliers: tuple  # Expr per magnetic basis vector
    translation: tuple | None = None  # complex per electric basis vector

    def multiplier_for(self, coords: Vec) -> Expr:
        acc = (0,) * self.ctx.splitting.theta_space_dim
        result = const(1)
        for j, power in enumerate(coords):
            pv = self.ctx.basis_pairs[j]
            for _ in range(power if power > 0 else 0):
                result = result * shift(self.multipliers[j], acc)
                acc = tuple(x + y for x, y in zip(acc, pv))
            for _ in range(-power if power < 0 else 0):
                acc = tuple(x - y for x, y in zip(acc, pv))
                result = result * powi(shift(self.multipliers[j], acc), -1)
        return result

    def apply(self, el: ExtendedElement) -> ExtendedElement:
        if el.ctx != self.ctx:
            raise DomainError("element lives over a different splitting")
        out = {}
        for d, f in el.terms.items():
            g = shift(f, None, self.translation) if self.translation else f
            out[d] = g * self.multiplier_for(d)
        return ExtendedElement(self.ctx, out)


def compose(a: GradedAutomorphism, b: GradedAutomorphism) -> GradedAutomorphism:
    """The automorphism 'a after b'."""
    if a.ctx != b.ctx:
        raise DomainError("automorphisms live over different splittings")
    tr_a = a.translation
    tr = None
    if tr_a or b.translation:
        k = a.ctx.splitting.theta_space_dim
        za = tr_a or (0j,) * k
        zb = b.translation or (0j,) * k
        tr = tuple(x + y for x, y in zip(za, zb))
    mult = tuple(
        shift(mb, None, tr_a) * ma if tr_a else mb * ma
        for ma, mb in zip(a.multipliers, b.multipliers)
    )
    return GradedAutomorphism(a.ctx, mult, tr)


def eps_z(b: RefinedBPSStructure, s: EMSplitting, t: complex) -> GradedAutomorphism:
    """The automorphism eps_Z(t): y_gamma -> exp(Z(gamma)/t) y_gamma.

    On the extended algebra: theta-translation by Z(e_i)/(2 pi i t) on the
    coefficients, together with the scalar multiplier exp(Z(delta)/t) on
    each magnetic generator (the lift of eps_Z to all of the lattice).
    """
    t = complex(t)
    if t == 0:
        raise DomainError("t must be non-zero")
    ctx = TorusContext(b.skew, s)
    translation = tuple(
        b.charge(e) / (_TWO_PI_I * t) for e in s.electric
    )
    mult = tuple(const(cmath.exp(b.charge(d) / t)) for d in s.magnetic)
    return GradedAutomorphism(ctx, mult, translation)


def s_q_ray(inst: RHInstance, ray: Ray, inverse: bool = False) -> GradedAutomorphism:
    """Wall-crossing automorphism of an active ray of inst, by its closed form.

    Multiplier on a magnetic generator beta:

        prod over active gamma on the ray, Laurent index n, lambda in
        kappa(beta, gamma) of
            (1 + q^(n/2+lambda) y_gamma)^(-Omega_n(gamma) eps(beta,gamma)),

    realised through the embedding: q^(n/2+lambda) y_gamma evaluates to
    exp(pi i (n+2 lambda) tau + 2 pi i theta(gamma)).  The instance
    guarantees what the closed form needs: integer Omega_n, the four
    classification predicates, a refinement with sigma(gamma) = (-1)^(n+1)
    on the support, and electric active classes.

    inverse=True flips the crossing orientation (negated exponents); the
    two orientations compose to the identity.
    """
    b, s = inst.structure, inst.splitting
    ctx = TorusContext(b.skew, s)
    electric = {g: ge for g, _z, ge, _terms in inst.classes}
    mults = []
    for beta in s.magnetic:
        m = const(1)
        for g in ray.classes:
            eps, kappas = kappa_set(b, beta, g)
            if eps == 0:
                continue
            ge_coords = electric[g]
            for n, c in b.omega(g).items():
                expo = -int(c) * eps
                if inverse:
                    expo = -expo
                for lam in kappas:
                    half = int(n + 2 * lam)  # n + 2*lambda is an integer
                    factor = powi(
                        const(1)
                        + exp_(
                            const(1j * math.pi * half) * tau()
                            + const(_TWO_PI_I) * theta(ge_coords)
                        ),
                        expo,
                    )
                    m = m * factor
        mults.append(m)
    return GradedAutomorphism(ctx, tuple(mults), None)


def ad(u: Expr, ctx: TorusContext) -> GradedAutomorphism:
    """Conjugation by an invertible degree-0 element u(tau, theta):

        Ad_u (f . y_delta) = f * u(tau,theta) u(tau, theta + tau<delta,->)^(-1) . y_delta.
    """
    return GradedAutomorphism(
        ctx, tuple(u * powi(shift(u, pv), -1) for pv in ctx.basis_pairs), None
    )
