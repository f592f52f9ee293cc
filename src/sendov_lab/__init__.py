"""Explicit degree bounds for Sendov's conjecture, with numerical verification.

The package has three layers:

* :mod:`sendov_lab.bounds` — closed-form evaluation of every quantity in the
  effective degree threshold, culminating in 20800 / (a^7 (1-a)^4);
* :mod:`sendov_lab.polynomial` — critical points of Sendov instances computed
  from their zeros and certified by inclusion discs, plus a residual-certified
  root finder for polynomials in coefficient form;
* :mod:`sendov_lab.verify` — deterministic inequality suites, limit checks,
  the majorization-chain audit, and randomized conjecture fuzzing.

``sendov_lab.cli`` exposes all of it as the ``sendov-lab`` command.
"""

from .bounds import (
    AuxParams,
    BoundBreakdown,
    DomainError,
    MeanBound,
    aux_params,
    breakdown,
    final_bound,
    k_prime,
    mean_upper_bound,
    mu1,
    mu2,
    small_circle_bound,
)
from .polynomial import (
    CriticalPointReport,
    InvalidInputError,
    Polynomial,
    RootResult,
    SendovInstance,
    critical_report,
    find_roots,
    from_roots,
    hull_distance,
    match_roots,
)
from .verify import (
    DEFAULT_SEED,
    FuzzReport,
    VerificationOutcome,
    check_extremal,
    fuzz_sendov,
    run_inequality_suite,
    verify_estimate_chain,
    verify_limits,
)

__version__ = "0.1.0"

__all__ = [
    "AuxParams",
    "BoundBreakdown",
    "CriticalPointReport",
    "DEFAULT_SEED",
    "DomainError",
    "FuzzReport",
    "InvalidInputError",
    "MeanBound",
    "Polynomial",
    "RootResult",
    "SendovInstance",
    "VerificationOutcome",
    "aux_params",
    "breakdown",
    "check_extremal",
    "critical_report",
    "final_bound",
    "find_roots",
    "from_roots",
    "fuzz_sendov",
    "hull_distance",
    "k_prime",
    "match_roots",
    "mean_upper_bound",
    "mu1",
    "mu2",
    "run_inequality_suite",
    "small_circle_bound",
    "verify_estimate_chain",
    "verify_limits",
    "__version__",
]
