"""Numerical toolkit for Barnes-type special functions, refined BPS
structures, quantum torus algebras and closed-form quantum Riemann-Hilbert
solutions, with seeded verification suites and a CLI front end."""

from types import ModuleType as _ModuleType

from .bernoulli import classical_bernoulli, multi_bernoulli
from .bps import (
    EMSplitting,
    LPoly,
    Ray,
    RefinedBPSStructure,
    active_rays,
    canonical_refinement,
    classify,
    doubled_a1,
    em_splitting,
    kappa_set,
)
from .constants import rho_constant, zeta_prime_minus_one
from .rhsolver import (
    RHInstance,
    adjoint_general,
    adjoint_psi_a1,
    hamiltonian_limit,
    solve_a1,
    solve_general,
    tau_function_limit,
    verify_jump_a1,
    verify_limits_a1,
)
from .signals import DomainError, PoleSignal, UnsupportedRegimeError
from .special import (
    barnes_zeta,
    delta_fn,
    f_fn,
    lambda_fn,
    log_barnes_g,
    log_gamma,
    log_gamma1,
    log_gamma2,
    quantum_dilog,
    upsilon_fn,
)
from .suites import run_suite

#: every function and class imported above
__all__ = [name for name, v in globals().items() if name[0] != "_" and not isinstance(v, _ModuleType)]

__version__ = "0.1.0"
