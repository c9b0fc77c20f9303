"""Unified resource governance for the solver stack (fail-soft policy).

The paper's core contract is graceful degradation: an obligation the
solver cannot discharge *keeps its run-time check* — it never crashes
the checker or poisons other goals (Section 3; Tables 2/3 count exactly
the checks that survive).  Before this module existed only the Omega
test carried a work budget; Fourier's case splits and the interval
propagator's tightening loops relied on ad-hoc caps, and exhaustion
surfaced inconsistently.

A :class:`Budget` is a *per-goal* resource envelope shared by every
decision backend that works on that goal:

* a **step budget** — an abstract work counter each backend decrements
  for its unit of work (an elimination pair, a propagation pass, a
  simplex pivot, a DNF case, an Omega shadow); and
* a **wall-clock deadline** — an absolute ``time.perf_counter`` bound,
  polled every :data:`_DEADLINE_STRIDE` steps so the common path stays
  one integer decrement.

Exhaustion raises :class:`BudgetExhausted` *inside* the solver layer;
every backend entry point catches it and returns ``False`` ("not proven
unsatisfiable"), and :func:`repro.solver.simplify.prove_goal` turns the
condition into a first-class *unknown* verdict — the goal is reported
unproved with a ``solver budget exhausted`` reason and its run-time
check is kept.  No budget condition ever escapes as an exception to
``check``/``check-corpus`` callers.

Budgets nest: :meth:`Budget.sub` creates a child whose spends forward
to the parent, so the Omega test keeps its classic per-call step cap
(:class:`repro.solver.omega.OmegaConfig.max_steps`) while still drawing
down the goal-level envelope.

Threading: backends receive the budget either as an explicit ``budget``
argument or — when called through wrappers whose signatures predate
budgets (the :class:`~repro.solver.backends.Backend` callable, the
portfolio tiers, the memoization layer) — from the *ambient* budget
installed by :func:`use_budget`.  The ambient slot is a
``threading.local``, so the parallel driver's workers never observe
each other's budgets.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterator

from repro.records import record

#: How many steps may pass between deadline polls.  Checking the clock
#: on every spend would double the cost of the hot decrement; one poll
#: per stride bounds the overshoot to a few microseconds of solver work.
_DEADLINE_STRIDE = 256


class BudgetExhausted(Exception):
    """The per-goal work budget or deadline ran out.

    Backends catch this and answer ``False`` ("unknown");
    ``prove_goal`` reports the goal unproved with the recorded reason.
    ``kind`` is ``"steps"`` or ``"deadline"``.
    """

    def __init__(self, kind: str) -> None:
        super().__init__(kind)
        self.kind = kind


@record(frozen=True)
class SolverLimits:
    """Per-goal resource knobs (CLI: ``--budget`` / ``--goal-timeout``).

    ``max_steps`` bounds the abstract solver work spent on one proof
    goal across *all* backend calls it triggers (every portfolio tier,
    every DNF case); ``None`` disables the step bound.  ``goal_timeout``
    is a wall-clock bound in seconds for one goal; ``None`` disables
    it.  The defaults are generous enough that every goal of the
    bundled corpus decides identically with or without them — budgets
    change verdicts only on pathological inputs, where the changed
    verdict is exactly the degradation the paper specifies (check
    kept).
    """

    max_steps: int | None = 2_000_000
    goal_timeout: float | None = None

    @staticmethod
    def unlimited() -> "SolverLimits":
        return SolverLimits(max_steps=None, goal_timeout=None)


#: The default envelope ``prove_goal`` applies when the caller passes
#: no explicit limits.
DEFAULT_LIMITS = SolverLimits()


class Budget:
    """A step counter plus an optional absolute deadline.

    Not locked: a budget belongs to one goal being proved on one
    thread.  (The driver's workers each prove whole goals; budgets are
    never shared across threads.)
    """

    __slots__ = ("remaining", "deadline", "parent", "exhausted_kind", "_tick")

    def __init__(
        self,
        max_steps: int | None = None,
        deadline: float | None = None,
        parent: "Budget | None" = None,
    ) -> None:
        self.remaining = max_steps
        self.deadline = deadline
        self.parent = parent
        #: ``None`` until the budget ran out; then ``"steps"`` or
        #: ``"deadline"`` (sticky — later spends keep raising).
        self.exhausted_kind: str | None = None
        self._tick = 0

    @classmethod
    def start(cls, limits: SolverLimits | None = None) -> "Budget":
        """A fresh budget for one goal, deadline anchored at *now*."""
        limits = limits if limits is not None else DEFAULT_LIMITS
        deadline = (
            time.perf_counter() + limits.goal_timeout
            if limits.goal_timeout is not None
            else None
        )
        return cls(limits.max_steps, deadline)

    def sub(self, max_steps: int | None) -> "Budget":
        """A child budget with its own step cap; spends forward to this
        budget (and its deadline still applies through the parent
        chain).  Used by the Omega test to keep its per-call cap."""
        return Budget(max_steps, None, parent=self)

    @property
    def exhausted(self) -> bool:
        if self.exhausted_kind is not None:
            return True
        return self.parent.exhausted if self.parent is not None else False

    def exhaust(self, kind: str) -> None:
        """Mark this budget spent and raise — used both internally and
        by backends mapping their own structural limits (e.g. the Omega
        test's recursion-depth cap) onto the budget verdict."""
        self.exhausted_kind = kind
        raise BudgetExhausted(kind)

    def spend(self, amount: int = 1) -> None:
        """Consume ``amount`` units of work; raise on exhaustion."""
        if self.exhausted_kind is not None:
            raise BudgetExhausted(self.exhausted_kind)
        if self.remaining is not None:
            self.remaining -= amount
            if self.remaining < 0:
                self.exhaust("steps")
        self._tick += amount
        if self._tick >= _DEADLINE_STRIDE:
            self._tick = 0
            self.checkpoint()
        if self.parent is not None:
            self.parent.spend(amount)

    def checkpoint(self) -> None:
        """Poll the deadline now (also called between backend calls,
        where overshoot would otherwise accumulate)."""
        if self.exhausted_kind is not None:
            raise BudgetExhausted(self.exhausted_kind)
        if self.deadline is not None and time.perf_counter() > self.deadline:
            self.exhaust("deadline")
        if self.parent is not None:
            self.parent.checkpoint()

    def describe(self) -> str:
        """Human-readable exhaustion reason for goal results."""
        kind = self.exhausted_kind
        if kind is None and self.parent is not None:
            kind = self.parent.exhausted_kind
        if kind == "deadline":
            return "goal timeout exceeded"
        return "step budget exhausted"


# ---------------------------------------------------------------------------
# Ambient budget
# ---------------------------------------------------------------------------

_AMBIENT = threading.local()


def current_budget() -> Budget | None:
    """The budget installed by the innermost :func:`use_budget`, if
    any.  Backends fall back to this when no explicit ``budget``
    argument reaches them (the ``Backend`` callable signature carries
    atoms only)."""
    return getattr(_AMBIENT, "budget", None)


@contextmanager
def use_budget(budget: Budget | None) -> Iterator[Budget | None]:
    """Install ``budget`` as the ambient budget for this thread."""
    previous = getattr(_AMBIENT, "budget", None)
    _AMBIENT.budget = budget
    try:
        yield budget
    finally:
        _AMBIENT.budget = previous


def resolve_budget(budget: Budget | None) -> Budget | None:
    """The budget a backend should spend from: the explicit one when
    given, else the ambient one, else ``None`` (unlimited)."""
    return budget if budget is not None else current_budget()


def fail_soft_lines(budget_exhausted: int, contained_crashes: int) -> list[str]:
    """The report line for goals that degraded fail-soft, or none when
    no goal did (``CheckReport.summary`` and the corpus report)."""
    if not (budget_exhausted or contained_crashes):
        return []
    return [
        f"fail-soft:        {budget_exhausted} budget-exhausted goal(s), "
        f"{contained_crashes} contained crash(es) (checks kept)"
    ]
