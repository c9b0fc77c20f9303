"""Counterexample search for unsolved constraints.

Section 6: "unsolved constraints generated during type-checking may
provide some hints on where type errors originate, but they are often
inaccurate and obscure.  Therefore, we plan to investigate how to
generate more informative error messages."

This module implements that plan: for a failed proof goal it searches
for a concrete assignment of the universal index variables that
satisfies every hypothesis but falsifies the conclusion — exactly the
scenario under which the run-time check would have fired.  The search
is bounded (small integer boxes, widened geometrically), which is
effective in practice because bound violations are witnessed by small
indices.
"""

from __future__ import annotations


from repro.indices.terms import EvarStore
from repro.records import record
from repro.solver.bruteforce import find_model
from repro.solver.simplify import Goal, UnsupportedGoal, goal_atom_sets


@record
class Counterexample:
    """A concrete scenario violating a proof goal."""

    goal: Goal
    assignment: dict[str, int]

    def describe(self) -> str:
        if not self.assignment:
            return "the conclusion is false outright"
        bindings = ", ".join(
            f"{name} = {value}" for name, value in sorted(self.assignment.items())
        )
        return f"fails when {bindings}"


def find_counterexample(
    goal: Goal,
    store: EvarStore,
    max_bound: int = 64,
) -> Counterexample | None:
    """Search for an assignment refuting the goal.

    Returns ``None`` when no counterexample exists within the bound
    (the goal may be valid but beyond the solver, e.g. nonlinear).
    """
    concl = store.resolve(goal.concl)
    hyps = [store.resolve(h) for h in goal.hyps]
    for name, sort in goal.rigid.items():
        from repro.indices import terms

        membership = sort.constraint_on(terms.IVar(name))
        if not (isinstance(membership, terms.BConst) and membership.value):
            hyps.append(membership)
    if store.unsolved_in(concl) or any(store.unsolved_in(h) for h in hyps):
        return None

    try:
        atom_sets = list(goal_atom_sets(hyps, concl))
    except UnsupportedGoal:
        return None

    bound = 4
    while bound <= max_bound:
        for atoms in atom_sets:
            model = find_model(atoms, bound)
            if model is not None:
                assignment = {
                    var: value
                    for var, value in model.items()
                    if isinstance(var, str) and not var.startswith("$")
                }
                return Counterexample(goal, assignment)
        bound *= 4
    return None


def explain_failures(report, limit: int = 5) -> list[str]:
    """Human-readable diagnostics for a CheckReport's failed goals."""
    lines: list[str] = []
    store = report.elab.store
    for result in report.failed_goals[:limit]:
        where = report.source.describe(result.goal.span)
        origin = f" [{result.goal.origin}]" if result.goal.origin else ""
        counterexample = find_counterexample(result.goal, store)
        concl = store.resolve(result.goal.concl)
        if counterexample is not None:
            lines.append(
                f"{where}{origin}: cannot prove {concl}; "
                f"{counterexample.describe()}"
            )
        else:
            lines.append(
                f"{where}{origin}: cannot prove {concl} ({result.reason})"
            )
    return lines
