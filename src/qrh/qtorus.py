"""Quantum torus algebra, its meromorphic extension, and graded automorphisms.

Two layers:

* the formal quantum torus: finite sums over lattice classes with Laurent
  coefficients in q^(1/2), product y_g1 * y_g2 = q^(<g1,g2>/2) y_{g1+g2};

* the extended algebra: finite sums over magnetic classes delta with
  coefficients that are meromorphic functions f(tau, theta), theta in the
  electric dual space, twisted product

      (f1 . y_d1) * (f2 . y_d2) = f1(tau,theta) f2(tau,theta + tau<d1,->) . y_{d1+d2}.

Every coefficient built here is exact data, an `Expr`.  Write q^(1/2) =
e^(pi i tau) and x^g = e^(2 pi i theta(g)), g an integer vector on the
electric basis.  An Expr maps a factor tuple ((C, h, g), e), ..., sorted and
with no zero exponent, to a Laurent dict {(a, g): c} with no zero c, and
stands for

    sum over its items of  prod (1 + C q^(h/2) x^g)^e * sum c q^(a/2) x^g.

Sum, product, the inverse of a single term and the theta-shift are exact
dict operations, so two coefficients built from the same monomials and
factors are equal as dicts; `eval_expr` is the only place that evaluates.
Automorphisms are stored by their multipliers on the magnetic basis
generators plus an optional theta-translation; this is complete data for
the grading-preserving, degree-0-trivial automorphisms used here.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from operator import add, mul

from .bps import EMSplitting, RefinedBPSStructure, Ray, kappa_set
from .rhsolver import RHInstance
from .signals import DomainError, PoleSignal

__all__ = [
    "Expr",
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
# coefficients


def _factors(items) -> tuple:
    """The factor tuple of ((C, h, g), e) items: like factors merged, zero
    exponents dropped, sorted by (h, g, C)."""
    acc: dict = {}
    for fac, e in items:
        acc[fac] = acc.get(fac, 0) + e
    kept = ((fac, e) for fac, e in acc.items() if e)
    return tuple(sorted(kept, key=lambda fe: (fe[0][1], fe[0][2], fe[0][0].real, fe[0][0].imag)))


def _expr(terms) -> Expr:
    """The Expr of (factors, (a, g), c) triples: like terms summed, zero
    coefficients dropped."""
    out: dict = {}
    for f, k, c in terms:
        lp = out.setdefault(f, {})
        lp[k] = lp.get(k, 0j) + c
    return Expr({f: kept for f, lp in out.items() if (kept := {k: c for k, c in lp.items() if c != 0})})


def _product(e1: Expr, e2: Expr):
    """The (factors, (a, g), c) triples of e1 * e2, like terms not yet summed."""
    for f1, lp1 in e1.items():
        for f2, lp2 in e2.items():
            f = _factors(f1 + f2) if f1 and f2 else f1 or f2
            for (a1, g1), c1 in lp1.items():
                for (a2, g2), c2 in lp2.items():
                    yield f, (a1 + a2, tuple(map(add, g1, g2))), c1 * c2


class Expr(dict):
    """A coefficient as exact data (see the module docstring); + and * are
    the pointwise sum and product."""

    __slots__ = ()

    def terms(self):
        """The (factors, (a, g), c) triples."""
        return ((f, k, c) for f, lp in self.items() for k, c in lp.items())

    def __add__(self, other: Expr) -> Expr:
        return _expr([*self.terms(), *other.terms()])

    def __mul__(self, other: Expr) -> Expr:
        return _expr(_product(self, other))

    def shifted(self, pv: Vec = (), cv: tuple = ()) -> Expr:
        """The substitution theta -> theta + tau * pv + cv, pv the integers
        <delta, e_i> on the electric basis: q^(a/2) x^g becomes
        q^(a/2 + g.pv) x^g e^(2 pi i g.cv), in monomials and factors alike."""
        if not any(pv) and not any(cv):
            return self

        def move(c, a, g):
            dc = sum(map(mul, g, cv))
            return (c * cmath.exp(_TWO_PI_I * dc) if dc else c), a + 2 * sum(map(mul, g, pv))

        out = []
        for f, lp in self.items():
            moved = f and _factors(((*move(fc, h, fg), fg), e) for (fc, h, fg), e in f)
            for (a, g), c in lp.items():
                c2, a2 = move(c, a, g)
                out.append((moved, (a2, g), c2))
        return _expr(out)

    def inverse(self) -> Expr:
        """1/self where self is a single term c q^(a/2) x^g times factors;
        DomainError for any other coefficient, zero included."""
        terms = list(self.terms())
        if len(terms) != 1:
            raise DomainError("only a single-term coefficient is invertible")
        ((f, (a, g), c),) = terms
        return Expr({tuple((fac, -e) for fac, e in f): {(-a, tuple(-x for x in g)): 1 / c}})


def eval_expr(f: Expr, tau_val: complex, theta_val) -> complex:
    """Evaluate at (tau, theta); theta is a vector over the electric basis.
    PoleSignal where a factor with a negative exponent vanishes."""
    tv = complex(tau_val)
    th = tuple(complex(t) for t in theta_val)

    def power(a, g):  # q^(a/2) x^g
        return cmath.exp(1j * math.pi * a * tv + _TWO_PI_I * sum((x * t for x, t in zip(g, th)), 0j))

    total = 0j
    for factors, lp in f.items():
        value = sum((c * power(a, g) for (a, g), c in lp.items()), 0j)
        for (c, h, g), e in factors:
            base = 1 + c * power(h, g)
            if e < 0 and base == 0:
                raise PoleSignal("pole", 0j, "eval_expr")
            value *= base**e
        total += value
    return total


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
        return self.terms.get(tuple(coords), Expr())

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
            out.setdefault(tuple(map(add, d1, d2)), []).extend(_product(f1, f2.shifted(pv)))
    return ExtendedElement(a.ctx, {d: _expr(ts) for d, ts in out.items()})


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
        out.setdefault(gm_coords, []).extend(((), (k + mm, ge_coords), c) for k, c in lq.items())
    return ExtendedElement(ctx, {d: _expr(ts) for d, ts in out.items()})


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
        result = Expr({(): {(0, acc): 1 + 0j}})
        for j, power in enumerate(coords):
            pv = self.ctx.basis_pairs[j]
            for _ in range(power if power > 0 else 0):
                result = result * self.multipliers[j].shifted(acc)
                acc = tuple(x + y for x, y in zip(acc, pv))
            for _ in range(-power if power < 0 else 0):
                acc = tuple(x - y for x, y in zip(acc, pv))
                result = result * self.multipliers[j].shifted(acc).inverse()
        return result

    def apply(self, el: ExtendedElement) -> ExtendedElement:
        if el.ctx != self.ctx:
            raise DomainError("element lives over a different splitting")
        out = {}
        for d, f in el.terms.items():
            g = f.shifted(cv=self.translation) if self.translation else f
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
        mb.shifted(cv=tr_a) * ma if tr_a else mb * ma
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
    zero = (0,) * s.theta_space_dim
    mult = tuple(Expr({(): {(0, zero): cmath.exp(b.charge(d) / t)}}) for d in s.magnetic)
    return GradedAutomorphism(ctx, mult, translation)


def s_q_ray(inst: RHInstance, ray: Ray, inverse: bool = False) -> GradedAutomorphism:
    """Wall-crossing automorphism of an active ray of inst, by its closed form.

    Multiplier on a magnetic generator beta:

        prod over active gamma on the ray, Laurent index n, lambda in
        kappa(beta, gamma) of
            (1 + q^(n/2+lambda) y_gamma)^(-Omega_n(gamma) eps(beta,gamma)),

    realised through the embedding as the factor (1, n + 2 lambda, the
    electric coordinates of gamma) with that exponent.  The instance
    guarantees what the closed form needs: integer Omega_n, the four
    classification predicates, a refinement with sigma(gamma) = (-1)^(n+1)
    on the support, and electric active classes.

    inverse=True flips the crossing orientation (negated exponents); the
    two orientations compose to the identity.
    """
    b, s = inst.structure, inst.splitting
    zero = (0,) * s.theta_space_dim
    mults = []
    for beta in s.magnetic:
        factors = []
        for g, _z, ge, terms in inst.classes:
            if g not in ray.classes:
                continue
            eps, kappas = kappa_set(b, beta, g)
            sign = eps if inverse else -eps
            # n + 2*lambda is an integer
            factors += [((1 + 0j, int(n + 2 * lam), ge), sign * c) for n, c in terms for lam in kappas]
        mults.append(Expr({_factors(factors): {(0, zero): 1 + 0j}}))
    return GradedAutomorphism(TorusContext(b.skew, s), tuple(mults), None)


def ad(u: Expr, ctx: TorusContext) -> GradedAutomorphism:
    """Conjugation by an invertible degree-0 element u(tau, theta), a single
    term c q^(a/2) x^g times factors (DomainError for any other u):

        Ad_u (f . y_delta) = f * u(tau,theta) u(tau, theta + tau<delta,->)^(-1) . y_delta.
    """
    return GradedAutomorphism(ctx, tuple(u * u.shifted(pv).inverse() for pv in ctx.basis_pairs), None)
