"""Refined BPS structures: lattice, skew form, central charge, invariants.

A structure holds a rank-n lattice with an integer antisymmetric pairing,
a central charge Z on the basis, and finitely many invariants Omega(gamma)
valued in Laurent polynomials in the half-power formal symbol L^(1/2)
(exponent n stands for L^(n/2)), with rational coefficients kept exact.

Also here: the four classification predicates, active rays, quadratic
refinements with the twisted multiplicativity rule, electric/magnetic
splittings, the half-integer index sets kappa(beta, gamma), and the JSON
reader.

Building an instance costs time polynomial in the rank.  The canonical
refinement is a linear system over GF(2): bit i of a mask is set when the
basis sign s_i is -1, and each class g asks for

    sum over odd g_i of bit_i = [sigma_+(g) != (-1)^(n+1)]  (mod 2),

sigma_+ the refinement with every s_i = +1.  Eliminating on each row's
lowest bit and setting the free bits to 0 gives the smallest mask that
solves it, the first one an exhaustive count over all 2^rank masks would
meet.  Every lattice system of the splitting is solved over Z by one
echelon routine, _lattice_basis.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import cached_property, partial
from fractions import Fraction
from math import atan2, inf, isfinite, pi, prod

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
    "structure_from_dict",
    "parse_json",
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

    @cached_property
    def _skew_rows(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The non-zero entries (j, skew[i][j]) of each row i."""
        return tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in self.skew)

    def pairing(self, g1: Vec, g2: Vec) -> int:
        rows = self._skew_rows
        return sum(x * sum(s * g2[j] for j, s in rows[i]) for i, x in enumerate(g1) if x)

    def charge(self, g: Vec) -> complex:
        """Z(g).  Terms whose Z entry is 0 are skipped, so an entry of g beyond
        float range counts only where its Z is not 0; the skipped terms are
        signed zeros, which leave a sum from +0 unchanged bit for bit."""
        return sum((c * m for c, m in zip(self.central_charge, g) if c), 0j)

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
    # the pairing is antisymmetric: <g, g> = 0 and <g2, g1> = -<g1, g2>
    uncoupled = all(
        b.pairing(g1, g2) == 0 for i, g1 in enumerate(active) for g2 in active[i + 1 :]
    )
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
    classes sorted lexicographically, rays ordered by angle in (-pi, pi].
    DomainError for a class whose Z is 0 or not a finite number."""
    groups: list[tuple[complex, list[Vec]]] = []
    for g in b.active_classes:
        try:
            z = b.charge(g)
            size = abs(z)
        except OverflowError:  # a class beyond float range, or |Z| beyond it
            size = inf
        if size == 0:
            raise DomainError(f"active class {g} has Z = 0 (degenerate ray)")
        if not isfinite(size):
            raise DomainError(f"active class {g} has a Z that is not a finite number")
        u = z / size
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
        support = [i for i in range(len(self.basis_signs)) if g[i]]
        for i in support:
            if g[i] % 2:
                s *= self.basis_signs[i]
        e = 0
        for a, i in enumerate(support):
            row = self.skew[i]
            for j in support[a + 1 :]:
                e += g[i] * g[j] * row[j]
        return s if e % 2 == 0 else -s


def canonical_refinement(b: RefinedBPSStructure) -> QuadraticRefinement:
    """The refinement with sigma(gamma) = (-1)^(n+1) on every class where
    Omega_n(gamma) != 0, when one exists.

    Solves the GF(2) system of the module docstring: the rows are reduced
    to one per lowest set bit (each pivot bit cleared from every other
    row), the pivot bits take their right-hand sides and the free bits 0.
    That is the smallest mask, so basis_signs are those of the first
    solution in the order mask = 0, 1, ..., 2^rank - 1 (+1 preferred on the
    high basis vectors first).  Raises DomainError listing the classes if
    a class carries both parities of n or the system is inconsistent.
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
    plus = QuadraticRefinement(b.skew, (1,) * n)
    rows: dict[int, list[int]] = {}  # lowest bit -> [bits, right-hand side]
    for g, want in constraints:
        bits = sum(1 << i for i, x in enumerate(g) if x % 2)
        rhs = int(plus(g) != want)
        for p, (pbits, prhs) in rows.items():
            if bits >> p & 1:
                bits ^= pbits
                rhs ^= prhs
        if not bits:
            if rhs:
                bad = [g for g, _ in constraints]
                raise DomainError(
                    f"no consistent quadratic refinement exists; classes: {bad}"
                )
            continue
        low = (bits & -bits).bit_length() - 1
        for row in rows.values():
            if row[0] >> low & 1:
                row[0] ^= bits
                row[1] ^= rhs
        rows[low] = [bits, rhs]
    signs = tuple(-1 if i in rows and rows[i][1] else 1 for i in range(n))
    return QuadraticRefinement(b.skew, signs)


# ---------------------------------------------------------------------------
# electric/magnetic splittings


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


def _lifted_basis(rows: list[Vec], n: int) -> list[Vec]:
    """Row-echelon Z-basis of {(R x, x) : x in Z^n}, from the vectors
    (R e_j, e_j): those with a pivot among the first m = len(R) entries span
    R Z^n, the others are (0, x) with x a Z-basis of the kernel of R."""
    lifted = [tuple(r[j] for r in rows) + tuple(int(i == j) for i in range(n)) for j in range(n)]
    return _lattice_basis(lifted, len(rows) + n)


def _integer_kernel(rows: list[Vec], n: int) -> list[Vec]:
    """Z-basis of {x in Z^n : r . x = 0 for every row r}."""
    m = len(rows)
    return [v[m:] for v in _lifted_basis(rows, n) if not any(v[:m])]


def _integer_solve(matrix: list[list[int]], rhs: list[list[int]]) -> list[list[int]] | None:
    """An integer X with M X = R for integer M (m x n) and R (m x k), or None
    when some column of R has no integer solution: reducing (r, 0) by the
    image vectors of _lifted_basis(M), each by an integer multiple, leaves
    (0, -x) with M x = r exactly when one exists.  For a square M, M X = I
    has a solution exactly when M is unimodular, and it is unique."""
    m, n = len(matrix), len(matrix[0]) if matrix else 0
    image = [v for v in _lifted_basis(matrix, n) if any(v[:m])]
    pivots = [next(i for i, x in enumerate(v) if x) for v in image]
    columns = []
    for column in zip(*rhs):
        rest = list(column) + [0] * n
        for p, v in zip(pivots, image):
            q, r = divmod(rest[p], v[p])
            if r:
                return None
            if q:
                rest = [a - q * c for a, c in zip(rest, v)]
        if any(rest[:m]):
            return None
        columns.append([-x for x in rest[m:]])
    return [list(row) for row in zip(*columns)]


def _saturated_basis(vectors: list[Vec], n: int) -> list[Vec]:
    """Row-echelon Z-basis of the saturation Q-span(vectors) ∩ Z^n.

    The lattice the vectors generate has index prod(its pivots) /
    prod(saturation pivots) in the saturation, so its own basis from
    _lattice_basis is kept whenever it is already saturated (always when
    every pivot is 1); otherwise the saturation is the integer kernel of
    the integer kernel.
    """
    basis = _lattice_basis(vectors, n)
    volume = _pivot_product(basis)
    if volume == 1:
        return basis
    saturated = _lattice_basis(_integer_kernel(_integer_kernel(basis, n), n), n)
    return saturated if _pivot_product(saturated) < volume else basis


def _pivot_product(basis: list[Vec]) -> int:
    """Product of the leading entries of a row-echelon basis."""
    return prod(next(x for x in v if x) for v in basis)


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
        basis vectors; DomainError unless they form a Z-basis (M X = I has
        an integer solution exactly when the square M is unimodular)."""
        basis = self.full_basis()
        n = len(basis)
        if any(len(v) != n for v in basis):
            raise DomainError("each electric or magnetic vector needs one entry per basis vector")
        sol = _integer_solve(list(zip(*basis)), [[int(i == j) for j in range(n)] for i in range(n)])
        if sol is None:
            raise DomainError("electric + magnetic vectors are not a Z-basis")
        return tuple(map(tuple, sol))

    def decompose(self, g: Vec) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Coordinates (electric, magnetic) of g in the splitting basis."""
        inverse = self._inverse
        if len(g) != len(inverse):
            raise DomainError(f"class {g} does not decompose under this splitting")
        support = [(i, x) for i, x in enumerate(g) if x]
        coords = tuple(sum(row[i] * x for i, x in support) for row in inverse)
        k = len(self.electric)
        return coords[:k], coords[k:]

    def magnetic_vector(self, coords: tuple[int, ...]) -> Vec:
        return _combination(self.magnetic, coords)

    def electric_vector(self, coords: tuple[int, ...]) -> Vec:
        return _combination(self.electric, coords)


def _combination(vectors, coords: tuple[int, ...]) -> Vec:
    """The integer combination sum_j coords[j] * vectors[j]."""
    n = len(vectors[0])
    return tuple(sum(c * vectors[j][i] for j, c in enumerate(coords)) for i in range(n))


def _verify_splitting(b: RefinedBPSStructure, s: EMSplitting) -> tuple[tuple[int, ...], ...]:
    """DomainError unless s splits b; the electric coordinates of b's active
    classes, in sorted order, when it does."""
    if len(s.full_basis()) != b.rank:
        raise DomainError("electric + magnetic basis must have full rank")
    s._inverse  # DomainError unless the vectors form a Z-basis of the lattice
    # antisymmetry: the first failing ordered pair (u, v) has u before v
    for name, vectors in (("electric", s.electric), ("magnetic", s.magnetic)):
        for i, u in enumerate(vectors):
            for v in vectors[i + 1 :]:
                if b.pairing(u, v) != 0:
                    raise DomainError(
                        f"pairing does not vanish on {name} x {name}: {u},{v}"
                    )
    coordinates = []
    for g in b.active_classes:
        ge, gm = s.decompose(g)
        if any(gm):
            raise DomainError(f"active class {g} is not electric under the splitting")
        coordinates.append(ge)
    return tuple(coordinates)


def em_splitting(
    b: RefinedBPSStructure, proposed: EMSplitting | None = None
) -> EMSplitting:
    """Verify a proposed splitting, or construct one for doubled-type inputs.

    Construction: electric basis from the saturation Q-span ∩ Z^n of the
    active classes (_saturated_basis); magnetic duals d_i with
    <d_i, e_j> = delta_ij, solved over Z in one elimination (_integer_solve),
    then corrected by electric vectors to kill <d_i, d_j>.  Fails
    with a DomainError when no doubled-type splitting is found; a general
    constructive algorithm is out of scope.  A coupled structure fails
    verification: its active classes must all be electric, and the pairing
    must vanish on electric x electric.
    """
    return _split(b, proposed)[0]


def _split(
    b: RefinedBPSStructure, proposed: EMSplitting | None
) -> tuple[EMSplitting, tuple[tuple[int, ...], ...]]:
    """em_splitting(b, proposed), and the electric coordinates of b's active
    classes that its verification computes."""
    if proposed is not None:
        return proposed, _verify_splitting(b, proposed)
    n = b.rank
    electric = _saturated_basis(b.active_classes, n)
    k = len(electric)
    if 2 * k != n:
        raise DomainError(
            "automatic construction needs rank(active span) == rank/2 (doubled type)"
        )
    # duals: <d, e_j> = d . (S e_j)
    rows = b._skew_rows
    c_rows = [[sum(x * e[q] for q, x in rows[p]) for p in range(n)] for e in electric]
    identity = [[int(i == j) for j in range(k)] for i in range(k)]
    sol = _integer_solve(c_rows, identity)
    if sol is None:
        raise DomainError("no integral dual basis; structure is not doubled-type")
    duals = [list(d) for d in zip(*sol)]
    # kill <d_i, d_j> by adding electric vectors: d_j += sum_i c_ij e_i,
    # c_ij = -<d_i, d_j> for i < j
    pair = [[b.pairing(duals[i], duals[j]) for j in range(k)] for i in range(k)]
    for j in range(k):
        for i in range(j):
            c = -pair[i][j]
            if c:
                duals[j] = [x + c * y for x, y in zip(duals[j], electric[i])]
    s = EMSplitting(tuple(electric), tuple(tuple(d) for d in duals))
    return s, _verify_splitting(b, s)


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
# JSON reader


def structure_from_dict(doc: dict) -> tuple[RefinedBPSStructure, EMSplitting | None]:
    """The structure and optional splitting of a JSON document (schema in the
    README).  Every object holds only the keys of the schema; lattice entries
    (rank, skew form, gamma, n, splitting vectors) must be integers, Z entries
    finite numbers and coefficients "p/q" strings with q != 0; a gamma may
    appear once, and an n once per poly; anything else raises KeyError,
    TypeError or ValueError."""
    _json_keys(doc, ("rank", "skew_form", "Z", "omega", "splitting"))
    b = RefinedBPSStructure(
        rank=_json_int(doc["rank"]),
        skew=_json_vectors(doc["skew_form"]),
        central_charge=tuple(complex(_json_real(x), _json_real(y)) for x, y in doc["Z"]),
        invariants=_json_unique("gamma", map(_json_invariant, doc["omega"])),
    )
    s = None
    if "splitting" in doc:
        split = _json_keys(doc["splitting"], ("electric", "magnetic"))
        s = EMSplitting(_json_vectors(split["electric"]), _json_vectors(split["magnetic"]))
    return b, s


def _json_keys(obj, keys: tuple) -> dict:
    """obj, a JSON object whose keys are among keys."""
    if type(obj) is not dict:
        raise TypeError(f"expected a JSON object, got {obj!r}")
    unknown = set(obj) - set(keys)
    if unknown:
        raise ValueError(f"unknown keys {', '.join(sorted(unknown))}")
    return obj


def _json_invariant(entry) -> tuple[Vec, LPoly]:
    """The class and refined invariant of one "omega" entry."""
    gamma = _json_vector(_json_keys(entry, ("gamma", "poly"))["gamma"])
    terms = (_json_keys(term, ("n", "c")) for term in entry["poly"])
    return gamma, LPoly(
        _json_unique("n", ((_json_int(t["n"]), _json_fraction(t["c"])) for t in terms))
    )


def _json_unique(name: str, pairs) -> dict:
    """The dict of the (key, value) pairs, each key given once."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"{name} {key} given twice")
        out[key] = value
    return out


def parse_json(text: str):
    """json.loads for the strict formats (BPS files, configs): the same
    document, but a key given twice in one object, or nesting too deep for
    the decoder, raises ValueError."""
    try:
        return json.loads(text, object_pairs_hook=partial(_json_unique, "key"))
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def _json_int(x) -> int:
    if type(x) is not int:
        raise TypeError(f"lattice entries must be integers, got {x!r}")
    return x


def _json_vector(v) -> Vec:
    return tuple(_json_int(x) for x in v)


def _json_vectors(vs) -> tuple[Vec, ...]:
    return tuple(_json_vector(v) for v in vs)


def _json_real(x) -> float:
    if type(x) not in (int, float) or not isfinite(x):
        raise ValueError(f"Z entries must be finite numbers, got {x!r}")
    return x


def _json_fraction(c) -> Fraction:
    match = re.fullmatch(r"([+-]?[0-9]+)/([0-9]+)", c) if type(c) is str else None
    if match is None or int(match[2]) == 0:
        raise ValueError(f'coefficients must be "p/q" strings with q != 0, got {c!r}')
    return Fraction(int(match[1]), int(match[2]))
