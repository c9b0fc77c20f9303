"""Uniform interface over the linear-arithmetic decision backends.

A *backend* answers one question: is a conjunction of linear atoms
unsatisfiable over the integers?  ``True`` must be trustworthy
(soundness of check elimination depends on it); ``False`` may simply
mean "not proven".

Available backends:

* ``fourier`` — the paper's method (Fourier elimination + gcd
  tightening); incomplete but fast.  The default.
* ``fourier-rational`` — tightening disabled; complete for rationals
  only.  Demonstrates why the paper needed the rounding rule.
* ``omega`` — Pugh's Omega test; complete for integers (the paper's
  stated future work).
* ``simplex`` — exact rational simplex; like ``fourier-rational`` but
  by a different algorithm (cross-validation + ablation baseline).
* ``interval`` — bounds propagation in the SUP-INF spirit (Shostak
  1977, the paper's other cited alternative); fastest and weakest.
* ``portfolio`` — memoized escalation ``interval`` → ``fourier`` →
  ``omega`` with a shared canonical-form cache and telemetry (see
  :mod:`repro.solver.portfolio`).
* ``differential`` — answers with ``fourier`` but cross-checks every
  UNSAT verdict against ``omega``, raising on a soundness violation.

Only ``fourier`` is imported with this module.  Every other backend
imports its decision procedure on first use, so a one-shot ``repro
check`` with the default backend never loads the rest;
:func:`load_backend` imports one ahead of time.
"""

from __future__ import annotations

from importlib import import_module
from typing import Callable, Sequence

from repro.indices.linear import Atom
from repro.records import record
from repro.solver import fourier


@record
class Backend:
    """A named decision procedure for conjunctions of linear atoms."""

    name: str
    unsat: Callable[[Sequence[Atom]], bool]
    #: Complete over the integers (an ``unsat() == False`` answer then
    #: guarantees integer satisfiability).
    integer_complete: bool = False


def _fourier_unsat(atoms: Sequence[Atom]) -> bool:
    return fourier.fourier_unsat(atoms, fourier.FourierConfig())


def _fourier_rational_unsat(atoms: Sequence[Atom]) -> bool:
    config = fourier.FourierConfig(integer_tightening=False)
    return fourier.fourier_unsat(atoms, config)


def _omega_unsat(atoms: Sequence[Atom]) -> bool:
    from repro.solver.omega import omega_unsat

    return omega_unsat(atoms)


def _simplex_unsat(atoms: Sequence[Atom]) -> bool:
    from repro.solver.simplex import simplex_unsat

    return simplex_unsat(atoms)


def _interval_unsat(atoms: Sequence[Atom]) -> bool:
    from repro.solver.interval import interval_unsat

    return interval_unsat(atoms)


def _portfolio_unsat(atoms: Sequence[Atom]) -> bool:
    # Imported lazily: portfolio builds on this module's Backend class.
    from repro.solver import portfolio

    return portfolio.default_portfolio().unsat(atoms)


def _differential_unsat(atoms: Sequence[Atom]) -> bool:
    from repro.solver import portfolio

    return portfolio.default_differential().unsat(atoms)


_REGISTRY: dict[str, Backend] = {
    "fourier": Backend("fourier", _fourier_unsat),
    "fourier-rational": Backend("fourier-rational", _fourier_rational_unsat),
    "omega": Backend("omega", _omega_unsat, integer_complete=True),
    "simplex": Backend("simplex", _simplex_unsat),
    "interval": Backend("interval", _interval_unsat),
    # The last tier of the portfolio is omega, so a final "not proven"
    # carries omega's (budget-capped) completeness guarantee.
    "portfolio": Backend("portfolio", _portfolio_unsat, integer_complete=True),
    "differential": Backend("differential", _differential_unsat),
}

#: The ``repro.solver`` modules a backend imports on first use.
_MODULES: dict[str, tuple[str, ...]] = {
    "omega": ("omega",),
    "simplex": ("simplex",),
    "interval": ("interval",),
    "portfolio": ("portfolio", "interval", "omega"),
    "differential": ("portfolio", "omega"),
}

DEFAULT_BACKEND = "fourier"


def get_backend(name: str = DEFAULT_BACKEND) -> Backend:
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(f"unknown solver backend {name!r} (known: {known})") from None


def load_backend(name: str) -> None:
    """Import now the modules backend ``name`` would import on first
    use (a server calls this before it forks its workers, so that each
    inherits them instead of importing its own copy)."""
    for module in _MODULES.get(name, ()):
        import_module(f"repro.solver.{module}")


def backend_names() -> list[str]:
    return sorted(_REGISTRY)
