"""Refined BPS structures: lattice, skew form, central charge, invariants.

A structure holds a rank-n lattice with an integer antisymmetric pairing,
a central charge Z on the basis, and finitely many invariants Omega(gamma)
valued in Laurent polynomials in the half-power formal symbol L^(1/2)
(exponent n stands for L^(n/2)), with rational coefficients kept exact.

Also here: the four classification predicates, active rays, quadratic
refinements with the twisted multiplicativity rule, electric/magnetic
splittings, the half-integer index sets kappa(beta, gamma), and the JSON
round-trip format.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import atan2, pi

from .signals import DomainError

__all__ = [
    "LPoly",
    "RefinedBPSStructure",
    "Classification",
    "Ray",
    "QuadraticRefinement",
    "EMSplitting",
    "doubled_a1",
    "direct_sum",
    "classify",
    "active_rays",
    "canonical_refinement",
    "em_splitting",
    "kappa_set",
    "structure_to_dict",
    "structure_from_dict",
    "dumps",
    "loads",
]

Vec = tuple[int, ...]

RAY_PHASE_TOL = 1e-12


class LPoly:
    """Laurent polynomial in L^(1/2): {n: c} means sum c_n L^(n/2), c rational."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        if coeffs is None:
            coeffs = {}
        elif isinstance(coeffs, (int, Fraction)):
            coeffs = {0: Fraction(coeffs)}
        self.coeffs = {int(n): Fraction(c) for n, c in dict(coeffs).items() if c != 0}

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LPoly):
            other = LPoly(other)
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "LPoly(0)"
        parts = [f"{c}*L^({n}/2)" for n, c in sorted(self.coeffs.items())]
        return "LPoly(" + " + ".join(parts) + ")"

    def items(self):
        return sorted(self.coeffs.items())

    @property
    def palindromic(self) -> bool:
        return all(self.coeffs.get(-n, Fraction(0)) == c for n, c in self.coeffs.items())

    @property
    def integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs.values())


def _neg(v: Vec) -> Vec:
    return tuple(-x for x in v)


@dataclass(frozen=True)
class RefinedBPSStructure:
    rank: int
    skew: tuple[tuple[int, ...], ...]
    central_charge: tuple[complex, ...]
    invariants: dict  # Vec -> LPoly

    def __post_init__(self):
        n = self.rank
        if len(self.skew) != n or any(len(r) != n for r in self.skew):
            raise DomainError("skew form must be rank x rank")
        for i in range(n):
            for j in range(n):
                if self.skew[i][j] != -self.skew[j][i]:
                    raise DomainError("skew form must be antisymmetric")
        if len(self.central_charge) != n:
            raise DomainError("central charge must have one value per basis vector")
        for g, om in self.invariants.items():
            if len(g) != n:
                raise DomainError(f"class {g} has wrong rank")
            if not om:
                raise DomainError(f"stored invariant for {g} is zero; drop it")
            if not any(g):
                raise DomainError("Omega(0) must vanish")
            if self.invariants.get(_neg(g)) != om:
                raise DomainError(f"symmetry Omega(-gamma) = Omega(gamma) fails at {g}")

    def pairing(self, g1: Vec, g2: Vec) -> int:
        return sum(
            g1[i] * self.skew[i][j] * g2[j] for i in range(self.rank) for j in range(self.rank)
        )

    def charge(self, g: Vec) -> complex:
        return sum(c * m for c, m in zip(self.central_charge, g))

    def omega(self, g: Vec) -> LPoly:
        return self.invariants.get(tuple(g), LPoly())

    @property
    def active_classes(self) -> list[Vec]:
        return sorted(self.invariants.keys())


def doubled_a1(z: complex) -> RefinedBPSStructure:
    """The doubled A1 structure: <a_dual, a> = 1, Z(a) = z, Z(a_dual) = 0,
    Omega(+-a) = 1."""
    z = complex(z)
    if z == 0:
        raise DomainError("z must be non-zero")
    one = LPoly(1)
    return RefinedBPSStructure(
        rank=2,
        skew=((0, -1), (1, 0)),
        central_charge=(z, 0j),
        invariants={(1, 0): one, (-1, 0): one},
    )


def direct_sum(b1: RefinedBPSStructure, b2: RefinedBPSStructure) -> RefinedBPSStructure:
    n1, n2 = b1.rank, b2.rank
    skew = tuple(
        tuple(
            (b1.skew[i][j] if i < n1 and j < n1 else 0)
            if i < n1
            else (b2.skew[i - n1][j - n1] if j >= n1 else 0)
            for j in range(n1 + n2)
        )
        for i in range(n1 + n2)
    )
    inv = {}
    for g, om in b1.invariants.items():
        inv[g + (0,) * n2] = om
    for g, om in b2.invariants.items():
        inv[(0,) * n1 + g] = om
    return RefinedBPSStructure(
        rank=n1 + n2,
        skew=skew,
        central_charge=b1.central_charge + b2.central_charge,
        invariants=inv,
    )


@dataclass(frozen=True)
class Classification:
    finite: bool
    uncoupled: bool
    palindromic: bool
    integral: bool

    def __iter__(self):
        return iter((self.finite, self.uncoupled, self.palindromic, self.integral))

    @property
    def all(self) -> bool:
        return self.finite and self.uncoupled and self.palindromic and self.integral


def classify(b: RefinedBPSStructure) -> Classification:
    """The four predicates (finite holds by construction for explicit maps)."""
    active = b.active_classes
    uncoupled = all(b.pairing(g1, g2) == 0 for g1 in active for g2 in active)
    palindromic = all(om.palindromic for om in b.invariants.values())
    integral = all(om.integral for om in b.invariants.values())
    return Classification(True, uncoupled, palindromic, integral)


@dataclass(frozen=True)
class Ray:
    """An active ray R_{>0} * Z(gamma), stored by its unit phase."""

    phase: complex
    classes: tuple[Vec, ...]

    @property
    def angle(self) -> float:
        return atan2(self.phase.imag, self.phase.real)


def active_rays(b: RefinedBPSStructure) -> list[Ray]:
    """Active rays, grouped by phase (tolerance 1e-12 on unit phases),
    classes sorted lexicographically, rays ordered by angle in (-pi, pi]."""
    groups: list[tuple[complex, list[Vec]]] = []
    for g in b.active_classes:
        z = b.charge(g)
        if z == 0:
            raise DomainError(f"active class {g} has Z = 0 (degenerate ray)")
        u = z / abs(z)
        for i, (phase, members) in enumerate(groups):
            if abs(u - phase) < RAY_PHASE_TOL:
                members.append(g)
                break
        else:
            groups.append((u, [g]))
    rays = [Ray(phase, tuple(sorted(members))) for phase, members in groups]
    rays.sort(key=lambda r: r.angle if r.angle > -pi + 1e-15 else pi)
    return rays


@dataclass(frozen=True)
class QuadraticRefinement:
    """Sign map with sigma(g1+g2) = (-1)^<g1,g2> sigma(g1) sigma(g2).

    Determined by its values on the basis: for gamma = sum m_i e_i,

        sigma(gamma) = prod_i s_i^(m_i) * (-1)^(sum_{i<j} m_i m_j <e_i,e_j>).
    """

    skew: tuple[tuple[int, ...], ...]
    basis_signs: tuple[int, ...]

    def __call__(self, g: Vec) -> int:
        s = 1
        n = len(self.basis_signs)
        for i in range(n):
            if g[i] % 2:
                s *= self.basis_signs[i]
        e = 0
        for i in range(n):
            for j in range(i + 1, n):
                e += g[i] * g[j] * self.skew[i][j]
        return s if e % 2 == 0 else -s


def canonical_refinement(b: RefinedBPSStructure) -> QuadraticRefinement:
    """The refinement with sigma(gamma) = (-1)^(n+1) on every class where
    Omega_n(gamma) != 0, when one exists.

    Searches sign assignments on the basis (preferring +1), deterministic.
    Raises DomainError listing the violating classes if no assignment works.
    """
    n = b.rank
    constraints = []
    for g, om in b.invariants.items():
        needed = {(-1) ** ((k + 1) % 2) for k, _ in om.items()}
        if len(needed) > 1:
            raise DomainError(
                f"no consistent refinement: {g} carries both parities of n"
            )
        constraints.append((g, needed.pop()))
    for mask in range(1 << n):
        signs = tuple(-1 if (mask >> i) & 1 else 1 for i in range(n))
        sigma = QuadraticRefinement(b.skew, signs)
        if all(sigma(g) == want for g, want in constraints):
            return sigma
    bad = [g for g, _ in constraints]
    raise DomainError(f"no consistent quadratic refinement exists; classes: {bad}")


# ---------------------------------------------------------------------------
# electric/magnetic splittings


def _frac_solve(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Solve M x = rhs over Q (free variables set to 0); None if inconsistent."""
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    a = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    pivots = []
    r = 0
    for c in range(n):
        p = next((i for i in range(r, m) if a[i][c] != 0), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(m):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if a[i][n] != 0:
            return None
    x = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        x[c] = a[i][n]
    return x


def _lattice_basis(vectors: list[Vec], n: int) -> list[Vec]:
    """Row-echelon Z-basis of the sublattice generated by the vectors."""
    rows = [list(v) for v in vectors if any(v)]
    basis: list[Vec] = []
    for col in range(n):
        live = [r for r in rows if r[col] != 0]
        rest = [r for r in rows if r[col] == 0]
        if not live:
            rows = rest
            continue
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            p = live[0]
            reduced = [p]
            for r in live[1:]:
                q = r[col] // p[col]
                nr = [x - q * y for x, y in zip(r, p)]
                (reduced if nr[col] != 0 else rest).append(nr)
            live = reduced
        p = live[0]
        if p[col] < 0:
            p = [-x for x in p]
        basis.append(tuple(p))
        rows = rest
    return basis


@dataclass(frozen=True)
class EMSplitting:
    """Decomposition of the lattice into electric and magnetic sublattices."""

    electric: tuple[Vec, ...]
    magnetic: tuple[Vec, ...]

    @property
    def theta_space_dim(self) -> int:
        return len(self.electric)

    def full_basis(self) -> list[Vec]:
        return list(self.electric) + list(self.magnetic)

    @cached_property
    def _inverse(self) -> tuple[Vec, ...]:
        """Rows of the integer inverse of the matrix whose columns are the
        basis vectors; DomainError unless they form a Z-basis (a square
        integer matrix is unimodular exactly when its inverse is integral)."""
        basis = self.full_basis()
        n = len(basis)
        if any(len(v) != n for v in basis):
            raise DomainError("each electric or magnetic vector needs one entry per basis vector")
        matrix = [[Fraction(basis[j][i]) for j in range(n)] for i in range(n)]
        columns = []
        for i in range(n):
            sol = _frac_solve(matrix, [Fraction(int(k == i)) for k in range(n)])
            if sol is None or any(c.denominator != 1 for c in sol):
                raise DomainError("electric + magnetic vectors are not a Z-basis")
            columns.append([int(c) for c in sol])
        return tuple(zip(*columns))

    def decompose(self, g: Vec) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Coordinates (electric, magnetic) of g in the splitting basis."""
        inverse = self._inverse
        if len(g) != len(inverse):
            raise DomainError(f"class {g} does not decompose under this splitting")
        coords = tuple(sum(a * x for a, x in zip(row, g)) for row in inverse)
        k = len(self.electric)
        return coords[:k], coords[k:]

    def magnetic_vector(self, coords: tuple[int, ...]) -> Vec:
        n = len(self.magnetic[0])
        return tuple(
            sum(c * self.magnetic[j][i] for j, c in enumerate(coords)) for i in range(n)
        )

    def electric_vector(self, coords: tuple[int, ...]) -> Vec:
        n = len(self.electric[0])
        return tuple(
            sum(c * self.electric[j][i] for j, c in enumerate(coords)) for i in range(n)
        )


def _verify_splitting(b: RefinedBPSStructure, s: EMSplitting) -> None:
    if len(s.full_basis()) != b.rank:
        raise DomainError("electric + magnetic basis must have full rank")
    s._inverse  # DomainError unless the vectors form a Z-basis of the lattice
    for u in s.electric:
        for v in s.electric:
            if b.pairing(u, v) != 0:
                raise DomainError(f"pairing does not vanish on electric x electric: {u},{v}")
    for u in s.magnetic:
        for v in s.magnetic:
            if b.pairing(u, v) != 0:
                raise DomainError(f"pairing does not vanish on magnetic x magnetic: {u},{v}")
    for g in b.active_classes:
        ge, gm = s.decompose(g)
        if any(gm):
            raise DomainError(f"active class {g} is not electric under the splitting")


def em_splitting(
    b: RefinedBPSStructure, proposed: EMSplitting | None = None
) -> EMSplitting:
    """Verify a proposed splitting, or construct one for doubled-type inputs.

    Construction: electric basis from the lattice generated by active
    classes; magnetic duals d_i with <d_i, e_j> = delta_ij solved over Q
    (integrality required), then corrected by electric vectors to kill
    <d_i, d_j>.  Fails with a DomainError when no doubled-type splitting
    is found; a general constructive algorithm is out of scope.  A coupled
    structure fails verification: its active classes must all be electric,
    and the pairing must vanish on electric x electric.
    """
    if proposed is not None:
        _verify_splitting(b, proposed)
        return proposed
    n = b.rank
    electric = _lattice_basis(b.active_classes, n)
    k = len(electric)
    if 2 * k != n:
        raise DomainError(
            "automatic construction needs rank(active span) == rank/2 (doubled type)"
        )
    # duals over Q: <d, e_j> = d . (S e_j)
    c_rows = [
        [
            Fraction(sum(b.skew[p][q] * e[q] for q in range(n)))
            for p in range(n)
        ]
        for e in electric
    ]
    duals = []
    for i in range(k):
        rhs = [Fraction(1 if j == i else 0) for j in range(k)]
        sol = _frac_solve([row[:] for row in c_rows], rhs)
        if sol is None or any(c.denominator != 1 for c in sol):
            raise DomainError("no integral dual basis; structure is not doubled-type")
        duals.append([int(c) for c in sol])
    # kill <d_i, d_j> by adding electric vectors: d_j += sum_i c_ij e_i,
    # c_ij = -<d_i, d_j> for i < j
    pair = [[b.pairing(tuple(duals[i]), tuple(duals[j])) for j in range(k)] for i in range(k)]
    for j in range(k):
        for i in range(j):
            c = -pair[i][j]
            if c:
                duals[j] = [x + c * y for x, y in zip(duals[j], electric[i])]
    s = EMSplitting(tuple(electric), tuple(tuple(d) for d in duals))
    _verify_splitting(b, s)
    return s


def kappa_set(b: RefinedBPSStructure, beta: Vec, gamma: Vec) -> tuple[int, list[Fraction]]:
    """Sign eps of <beta,gamma> and the half-integers between 0 and <beta,gamma>.

    |kappa| = |<beta,gamma>|: pairing 1 -> {1/2}, pairing -2 -> {-1/2, -3/2}.
    This cardinality is forced by the rank-one wall-crossing automorphism,
    which carries exactly one factor at pairing 1.
    """
    m = b.pairing(beta, gamma)
    if m == 0:
        return 0, []
    eps = 1 if m > 0 else -1
    return eps, [Fraction(eps * (2 * j - 1), 2) for j in range(1, abs(m) + 1)]


# ---------------------------------------------------------------------------
# JSON round-trip


def structure_to_dict(
    b: RefinedBPSStructure, splitting: EMSplitting | None = None
) -> dict:
    doc = {
        "rank": b.rank,
        "skew_form": [list(r) for r in b.skew],
        "Z": [[z.real, z.imag] for z in b.central_charge],
        "omega": [
            {
                "gamma": list(g),
                "poly": [{"n": n, "c": f"{c.numerator}/{c.denominator}"} for n, c in om.items()],
            }
            for g, om in sorted(b.invariants.items())
        ],
    }
    if splitting is not None:
        doc["splitting"] = {
            "electric": [list(v) for v in splitting.electric],
            "magnetic": [list(v) for v in splitting.magnetic],
        }
    return doc


def structure_from_dict(doc: dict) -> tuple[RefinedBPSStructure, EMSplitting | None]:
    b = RefinedBPSStructure(
        rank=int(doc["rank"]),
        skew=tuple(tuple(int(x) for x in r) for r in doc["skew_form"]),
        central_charge=tuple(complex(re, im) for re, im in doc["Z"]),
        invariants={
            tuple(int(x) for x in e["gamma"]): LPoly(
                {int(p["n"]): Fraction(p["c"]) for p in e["poly"]}
            )
            for e in doc["omega"]
        },
    )
    s = None
    if "splitting" in doc:
        s = EMSplitting(
            tuple(tuple(int(x) for x in v) for v in doc["splitting"]["electric"]),
            tuple(tuple(int(x) for x in v) for v in doc["splitting"]["magnetic"]),
        )
    return b, s


def dumps(b: RefinedBPSStructure, splitting: EMSplitting | None = None) -> str:
    return json.dumps(structure_to_dict(b, splitting), indent=2, sort_keys=True)


def loads(text: str) -> tuple[RefinedBPSStructure, EMSplitting | None]:
    return structure_from_dict(json.loads(text))
