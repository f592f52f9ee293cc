"""Explicit degree bounds for Sendov's conjecture, with numerical verification.

The package has four layers:

* :mod:`sendov_lab.bounds` — closed-form evaluation of every quantity in the
  effective degree threshold, culminating in 20800 / (a^7 (1-a)^4);
* :mod:`sendov_lab.polynomial` — critical points of Sendov instances computed
  from their zeros and certified by inclusion discs, and conjecture fuzzing;
* :mod:`sendov_lab.roots` — polynomials in coefficient form and a root
  finder whose roots get inclusion discs too, run on the same sweep loop;
* :mod:`sendov_lab.verify` — deterministic inequality suites, limit checks
  and the majorization-chain audit.

``sendov_lab.cli`` exposes all of it as the ``sendov-lab`` command.  Every
module checks its arguments by one rule, in the private
``sendov_lab._arguments``, and raises its one error class, DomainError.

Importing the package loads none of its modules: each public name, and
each submodule name, loads its module on first use, so a command starts
with only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# The module each public name lives in; a submodule's name maps to itself.
_HOME = {
    **{name: name for name in ("bounds", "cli", "polynomial", "roots", "verify")},
    **dict.fromkeys(("DEFAULT_SEED", "DomainError"), "_arguments"),
    **dict.fromkeys(("AuxParams", "BoundBreakdown", "MeanBound", "aux_params", "breakdown",
                     "final_bound", "k_prime", "mean_upper_bound", "mu1", "mu2",
                     "small_circle_bound"), "bounds"),
    **dict.fromkeys(("CriticalPointReport", "FuzzReport", "SendovInstance", "critical_report",
                     "fuzz_sendov"), "polynomial"),
    **dict.fromkeys(("Polynomial", "RootResult", "find_roots", "from_roots", "match_roots"),
                    "roots"),
    **dict.fromkeys(("VerificationOutcome", "run_inequality_suite", "verify_estimate_chain",
                     "verify_limits"), "verify"),
}


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module("." + home, __name__)
    return module if home == name else getattr(module, name)


def __dir__():
    return sorted(set(globals()) | set(_HOME))


# The public names in sorted order, then the version.
__all__ = sorted(name for name, home in _HOME.items() if home != name) + ["__version__"]
