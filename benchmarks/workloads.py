"""Seeded workloads for the benchmark and the checkers of their outputs.

A workload turns a seed into a sequence of ``qrh`` command lines; the program
receives only these.  Every item of every call is checked with the identity of
the verification suite that matches it, at that suite's tolerance:

* ``psi_a1``: the ``adjoint-a1`` ratio psi(theta)/psi(theta+tau)/solve_a1 - 1,
  below 1e-8; the ratio cancels a constant factor, so the printed value must
  also equal its definition F(w, (1+tau)/2 - side theta | 1, tau)^-1;
* ``hamiltonian``: the derivative identity of ``tau0-limit``,
  d/dtheta H = -side 2 pi i log Lambda(w, 1/2 - side theta | 1), by central
  differences at h = 1e-4 and 5e-5, within its 1e-6 budget, on the suite's
  domain (w + 1/2 - side theta clear of the lower-left quadrant); the printed
  value must also equal the closed form -2 pi i log Delta it is defined by;
* ``psi_general``: the product of ``adjoint_psi_a1`` over the components whose
  charge the ray selects, within 1e-9 (``general-consistency``);
* ``report``: each suite's own ``pass`` flag.

An item fails when its identity misses the tolerance, when the reference side
raises, when the call raises (every point of that call fails), or when its
status is not ``ok`` and neither the suite's pole margin, the excluded ray nor
the half-plane H_r explains it.  Explained statuses, and ``hamiltonian``
points outside the suite's domain, are counted as unverified.
"""

from __future__ import annotations

import cmath
import json
import math
import os
from collections import Counter
from dataclasses import dataclass, field

TWO_PI_I = 2j * math.pi
#: Distance to a pole lattice, relative to max(1, |x|), that explains a
#: ``pole``/``zero`` status (the suites' POLE_MARGIN).
POLE_MARGIN = 1e-3
#: Relative tolerance of the excluded-ray test in ``rhsolver``.
EXCLUDED_RAY_TOL = 1e-12
#: Residuals below double-precision epsilon count as epsilon.
EPS = 2.0**-52

GRID_HEADER = "t_re,t_im,value_re,value_im,status"


class CheckError(Exception):
    """An output check could not run."""


@dataclass
class Call:
    kind: str
    argv: list[str]
    items: int = 0
    ctx: dict = field(default_factory=dict)


@dataclass
class Outcome:
    items: int = 0  # attempted
    completed: int = 0  # returned by the CLI
    failed: int = 0
    verified: int = 0
    unverified: int = 0
    worst: float | None = None  # largest verified identity residual
    raised: str | None = None  # exception type when the call itself raised
    consistent: bool = True  # the call-level output matched the request
    reasons: Counter = field(default_factory=Counter)

    def verify(self, residual: float, tol: float, reason: str) -> None:
        if residual < tol:
            self.verified += 1
            r = max(residual, EPS)
            self.worst = r if self.worst is None else max(self.worst, r)
        else:
            self.failed += 1
            self.reasons[reason] += 1


def lit(x: complex) -> str:
    """Exact "a,b" complex literal."""
    return f"{x.real!r},{x.imag!r}"


def vec_lit(xs) -> str:
    """Exact comma-separated a+bi literals."""
    return ",".join(f"{x.real!r}{'+' if x.imag >= 0 else ''}{x.imag!r}i" for x in xs)


def polar(rng, rmin: float, rmax: float) -> complex:
    return rng.uniform(rmin, rmax) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))


def box(rng, half_width: float) -> complex:
    return complex(rng.uniform(-half_width, half_width), rng.uniform(-half_width, half_width))


def annulus_points(rmin: float, rmax: float, nr: int, nphi: int) -> list[complex]:
    """The documented grid layout: radius outer, angle inner."""
    radii = [rmin] if nr == 1 else [rmin + i * (rmax - rmin) / (nr - 1) for i in range(nr)]
    return [r * cmath.exp(1j * 2 * math.pi * k / nphi) for r in radii for k in range(nphi)]


def lattice_distance(x: complex, tau: complex) -> float:
    """Distance from x to the pole lattice {-m1 - m2 tau : m1, m2 >= 0}."""
    b = -x.imag / tau.imag
    best = math.inf
    for m2 in {max(0, math.floor(b)), max(0, math.ceil(b))}:
        a = -(x + m2 * tau).real
        for m1 in {max(0, math.floor(a)), max(0, math.ceil(a))}:
            best = min(best, abs(x + m1 + m2 * tau))
    return best


def near_lattice(x: complex, tau: complex) -> bool:
    return lattice_distance(x, tau) < POLE_MARGIN * max(1.0, abs(x))


def near_nonpositive_integer(x: complex) -> bool:
    return abs(x - min(0, round(x.real))) < POLE_MARGIN * max(1.0, abs(x))


def on_negative_axis(w: complex) -> bool:
    return w == 0 or (w.imag == 0.0 and w.real < 0.0)


def on_excluded_ray(z: complex, t: complex, side: int) -> bool:
    u = t / (1j * side * z)
    return abs(u.imag) <= EXCLUDED_RAY_TOL * abs(u) and u.real > 0


def parse_grid(text: str, call: Call):
    """Yield (t, value or None, status, whether t is the requested point) per
    row; the row count must match the request."""
    lines = text.splitlines()
    if not lines or lines[0] != GRID_HEADER:
        raise CheckError(f"{call.kind}: grid output has no CSV header")
    rows = lines[1:]
    if len(rows) != call.items:
        raise CheckError(f"{call.kind}: {len(rows)} rows for {call.items} points")
    for line, expected in zip(rows, call.ctx["points"]):
        f = line.split(",")
        if len(f) != 5:
            raise CheckError(f"{call.kind}: malformed row {line!r}")
        try:
            t = complex(float(f[0]), float(f[1]))
            v = complex(float(f[2]), float(f[3])) if f[4] == "ok" else None
        except ValueError:
            raise CheckError(f"{call.kind}: malformed row {line!r}") from None
        yield t, v, f[4], abs(t - expected) <= 1e-12 * abs(expected)


class Workload:
    name = ""
    #: Calls per repetition of the call-kind pattern (traced runs alternate
    #: untraced and traced blocks of this length).
    period = 1
    #: Calls after which peak resident memory is read, so that it does not
    #: depend on the length of the run.
    rss_window = 1
    #: Calls a run makes per second of ``--seconds``: about one second of wall
    #: time each on the 2-vCPU reference machine, checks included.  The count
    #: is fixed, not timed, so a seed always gives the same calls, the same
    #: attempted items and the same failures.
    calls_per_second = 1.0

    def call_count(self, seconds: float) -> int:
        return max(self.rss_window, 2 * self.period, round(self.calls_per_second * seconds))

    def setup(self, rng, workdir: str) -> None:
        """Build fixed inputs before timing starts."""

    def calls(self, rng):
        raise NotImplementedError

    def check(self, call: Call, code, text: str, exc) -> Outcome:
        raise NotImplementedError


class GridWorkload(Workload):
    def verify_point(self, call: Call, t: complex, v: complex, out: Outcome) -> None:
        raise NotImplementedError

    def explains(self, call: Call, t: complex, status: str) -> bool:
        raise NotImplementedError

    def check(self, call, code, text, exc):
        out = Outcome(items=call.items)
        if exc is not None:
            out.failed = call.items
            out.raised = type(exc).__name__
            out.reasons[f"call raised {out.raised}"] += call.items
            return out
        if code != 0:
            raise CheckError(f"{call.kind}: grid exited with {code}")
        for t, v, status, same_point in parse_grid(text, call):
            out.completed += 1
            out.consistent &= same_point
            if status == "ok":
                try:
                    self.verify_point(call, t, v, out)
                except Exception as e:  # the reference side raised
                    out.failed += 1
                    out.reasons[f"reference raised {type(e).__name__}"] += 1
            elif self.explains(call, t, status):
                out.unverified += 1
                out.reasons[f"explained {status}"] += 1
            else:
                out.failed += 1
                out.reasons[f"unexplained {status}"] += 1
        return out


class GridA1(GridWorkload):
    """Alternating ``grid hamiltonian`` and ``grid psi_a1`` calls.

    Each call draws (z, tau, theta, side) and an annulus band with
    |w| = |z|/(2 pi |t|) in [w_hi/2, w_hi], w_hi log-uniform in [0.2, 50], so
    the calls together cover |w| from 0.1 to 50.  A band, not the whole range,
    per call: one overflowing point aborts a whole ``grid`` call, and calls
    spanning the whole range would nearly all abort.
    """

    name = "grid-a1"
    period = 2
    rss_window = 200
    calls_per_second = 34.0
    W_RANGE = (0.2, 50.0)
    #: (radii, angles) per call; hamiltonian points cost ~5x psi_a1 points,
    #: so the two kinds of call take similar time.
    SIZES = {"psi_a1": (3, 32), "hamiltonian": (2, 10)}

    def calls(self, rng):
        while True:
            for kind in ("hamiltonian", "psi_a1"):
                yield self._call(rng, kind)

    def _call(self, rng, kind: str) -> Call:
        z = polar(rng, 0.5, 2.0)
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.3, 1.5))
        theta = box(rng, 1.0)
        side = rng.choice((1, -1))
        lo, hi = self.W_RANGE
        w_hi = math.exp(rng.uniform(math.log(lo), math.log(hi)))
        rmin = abs(z) / (2 * math.pi * w_hi)
        rmax = 2 * rmin
        nr, nphi = self.SIZES[kind]
        argv = ["grid", kind, f"z={lit(z)}"]
        if kind == "psi_a1":
            argv.append(f"tau={lit(tau)}")
        argv += [f"theta={lit(theta)}", f"side={side:+d}", f"--annulus={rmin!r}:{rmax!r}:{nr}:{nphi}"]
        ctx = {"z": z, "tau": tau, "theta": theta, "side": side,
               "points": annulus_points(rmin, rmax, nr, nphi)}
        return Call(kind, argv, nr * nphi, ctx)

    def verify_point(self, call, t, v, out):
        from qrh import rhsolver as rh
        from qrh.special import log_delta, log_f, log_lambda

        c = call.ctx
        z, theta, side = c["z"], c["theta"], c["side"]
        w = side * z / (TWO_PI_I * t)
        if call.kind == "psi_a1":
            tau = c["tau"]
            # the ratio identity cancels a constant factor, so tie the printed
            # value to its definition F(w, (1+tau)/2 - side theta | 1, tau)^-1
            if not _same(v, cmath.exp(-log_f(w, (1 + tau) / 2 - side * theta, 1.0, tau)), out, "1/F"):
                return
            psi1 = rh.adjoint_psi_a1(z, t, tau, theta + tau, side)
            mult = rh.solve_a1(z, t, tau, theta, side, 1)
            out.verify(abs(v / psi1 / mult - 1), 1e-8, "adjoint-a1 identity")
            return
        x0 = w + 0.5 - side * theta
        if x0.real < 0.1 and x0.imag < 0.1:  # outside tau0-limit's domain
            out.unverified += 1
            out.reasons["outside tau0-limit domain"] += 1
            return

        def ham(th):
            return -TWO_PI_I * log_delta(w, 0.5 - side * th)

        if not _same(v, ham(theta), out, "-2 pi i log Delta"):
            return
        target = -side * TWO_PI_I * log_lambda(w, 0.5 - side * theta, 1.0)
        dres = max(abs((ham(theta + h) - ham(theta - h)) / (2 * h) - target) for h in (1e-4, 5e-5))
        out.verify(dres, 1e-6, "tau0-limit derivative identity")

    def explains(self, call, t, status):
        c = call.ctx
        z, theta, side = c["z"], c["theta"], c["side"]
        if status == "excluded-ray":
            return on_excluded_ray(z, t, side)
        w = side * z / (TWO_PI_I * t)
        if status == "domain":
            return on_negative_axis(w)
        if status not in ("pole", "zero"):
            return False
        if call.kind == "psi_a1":
            tau = c["tau"]
            return near_lattice(w + (1 + tau) / 2 - side * theta, tau)
        u = w + 0.5 - side * theta
        if near_nonpositive_integer(u):
            return True
        # the Richardson samples of hamiltonian_limit: tau_j = i 2^-(j+1), j = 3..7
        return any(
            near_lattice(w + (1 + tv) / 2 - side * theta, tv)
            for tv in (0.5j * 2.0**-j for j in range(3, 8))
        )


class GridGeneral(GridWorkload):
    """``grid psi_general`` on a rank-6 BPS file.

    The file is the direct sum of three doubled A1 structures with seeded
    central charges and no stored splitting, written once in set-up.  Each call
    draws tau, the theta vector, a non-active ray r and an annulus band.
    """

    name = "grid-general"
    rss_window = 100
    calls_per_second = 8.5
    SIZE = (2, 12)
    RAY_CLEARANCE = 0.05  # radians between r and any active ray

    def setup(self, rng, workdir):
        while True:
            charges = [polar(rng, 0.5, 2.0) for _ in range(3)]
            phases = [cmath.phase(s * z) for z in charges for s in (1, -1)]
            if all(_angle_gap(a, b) > 0.1 for i, a in enumerate(phases) for b in phases[i + 1:]):
                break
        self.charges = charges
        self.phases = phases
        self.path = os.path.join(workdir, "rank6.json")
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
        with open(self.path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

    def calls(self, rng):
        nr, nphi = self.SIZE
        while True:
            tau = complex(rng.uniform(-0.3, 0.3), rng.uniform(0.4, 1.2))
            theta = [box(rng, 0.8) for _ in range(3)]
            while True:
                angle = rng.uniform(-math.pi, math.pi)
                if all(_angle_gap(angle, p) > self.RAY_CLEARANCE for p in self.phases):
                    break
            r = cmath.exp(1j * angle)
            rmin = math.exp(rng.uniform(math.log(0.1), math.log(1.5)))
            rmax = 2 * rmin
            argv = [
                "grid", "psi_general", f"bps={self.path}", f"r={lit(r)}", f"tau={lit(tau)}",
                f"theta={vec_lit(theta)}", f"--annulus={rmin!r}:{rmax!r}:{nr}:{nphi}",
            ]
            # the electric basis of the constructed splitting is e1, e3, e5, so
            # theta[k] belongs to component k; the ray selects +e_2k or -e_2k
            sides = [1 if (z / r).imag > 0 else -1 for z in self.charges]
            ctx = {"r": r, "tau": tau, "theta": theta, "sides": sides,
                   "points": annulus_points(rmin, rmax, nr, nphi)}
            yield Call("psi_general", argv, nr * nphi, ctx)

    def verify_point(self, call, t, v, out):
        from qrh.rhsolver import adjoint_psi_a1

        c = call.ctx
        ref = 1.0 + 0j
        for z, th, side in zip(self.charges, c["theta"], c["sides"]):
            ref *= adjoint_psi_a1(z, t, c["tau"], th, side)
        out.verify(abs(v / ref - 1), 1e-9, "product of adjoint_psi_a1")

    def explains(self, call, t, status):
        c = call.ctx
        if status == "domain" and (t / c["r"]).real <= 0:
            return True  # t outside the half-plane H_r
        ws = [side * z / (TWO_PI_I * t) for z, side in zip(self.charges, c["sides"])]
        if status == "domain":
            return any(on_negative_axis(w) for w in ws)
        if status in ("pole", "zero"):
            tau = c["tau"]
            return any(
                near_lattice(w + (1 + tau) / 2 - side * th, tau)
                for w, th, side in zip(ws, c["theta"], c["sides"])
            )
        return False


class Report(Workload):
    """``qrh --seed S report`` with a fresh S per call from the workload seed.

    The seed goes before the subcommand: ``report`` itself takes no ``--seed``.
    """

    name = "report"
    rss_window = 6
    calls_per_second = 0.6
    #: Suites whose residual is not an identity residual: fitted or decay
    #: exponents, and limits reached only at a finite step.
    NOT_IDENTITIES = frozenset({"small-w", "asymptotic-order", "limits-a1", "tau0-limit"})

    def __init__(self):
        self.last_items = 1

    def calls(self, rng):
        while True:
            yield Call("report", ["--seed", str(rng.randrange(2**31)), "report"])

    def check(self, call, code, text, exc):
        if exc is not None:
            out = Outcome(items=self.last_items, failed=self.last_items, raised=type(exc).__name__)
            out.reasons[f"call raised {out.raised}"] += self.last_items
            return out
        if code not in (0, 1):
            raise CheckError(f"report exited with {code}")
        try:
            doc = json.loads(text)
            reports = doc["reports"]
            rows = [(r["suite"], int(r["samples"]), bool(r["pass"]), float(r["max_rel_residual"]))
                    for r in reports]
        except (ValueError, KeyError, TypeError):
            raise CheckError("report output is not the documented JSON") from None
        out = Outcome()
        out.consistent = (code == 0) == bool(doc["pass"]) == all(p for _, _, p, _ in rows)
        for suite, samples, passed, residual in rows:
            out.items += samples
            if not passed:
                out.failed += samples
                out.reasons[f"suite {suite} failed"] += 1
                continue
            out.verified += samples
            if suite not in self.NOT_IDENTITIES:
                r = max(residual, EPS)
                out.worst = r if out.worst is None else max(out.worst, r)
        out.completed = out.items
        self.last_items = out.items
        return out


def _same(value: complex, definition: complex, out: Outcome, name: str) -> bool:
    """Whether a printed value equals its defining formula to 1e-12; a
    mismatch fails the item."""
    if abs(value - definition) <= 1e-12 * max(1.0, abs(definition)):
        return True
    out.failed += 1
    out.reasons[f"value differs from {name}"] += 1
    return False


def _angle_gap(a: float, b: float) -> float:
    d = (a - b) % (2 * math.pi)
    return min(d, 2 * math.pi - d)


WORKLOADS = {w.name: w for w in (GridA1, GridGeneral, Report)}
