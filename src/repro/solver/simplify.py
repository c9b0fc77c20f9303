"""Constraint simplification and goal proving (Sections 3.1-3.2).

This module bridges the constraint *language* (quantified implications
over boolean index terms) and the decision *backends* (conjunctions of
linear atoms):

1. :func:`extract_goals` flattens a constraint tree into a list of
   :class:`Goal` — each a universally quantified implication
   ``forall vars. hyps ==> concl`` — substituting fresh existential
   variables for ``exists`` binders.
2. :func:`solve_evars` eliminates existential variables by
   scope-checked equational solving, the step Section 3.1 reports as
   "crucial in practice".
3. :func:`prove_goal` negates the conclusion, eliminates ``div``,
   ``mod``, ``min``, ``max``, ``abs`` and ``sgn`` via fresh variables
   with defining constraints, splits disjunctions (and ``<>``) into
   cases, and asks a backend to refute every case.

Everything fails *closed*: any goal that cannot be put in linear form
or whose cases cannot all be refuted is reported unproved, and the
corresponding run-time check is kept.
"""

from __future__ import annotations

import itertools
import time
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.solver.portfolio import SolverCache, SolverTelemetry
    from repro.solver.slice import SliceContext

from repro.indices import terms
from repro.indices.constraints import (
    CAnd,
    CExists,
    CForall,
    CImpl,
    CProp,
    CTrue,
    Constraint,
)
from repro.indices.linear import (
    Atom,
    LinComb,
    NonLinearIndex,
    UnsupportedIndex,
    atoms_of_cmp,
    linearize,
)
from repro.indices.sorts import Sort
from repro.indices.terms import (
    And,
    BConst,
    BinOp,
    Cmp,
    EVar,
    EvarStore,
    IConst,
    IVar,
    IndexTerm,
    Not,
    Or,
    UnOp,
)
from repro.lang.source import DUMMY_SPAN, Span
from repro.records import record
from repro.solver.backends import Backend, get_backend
from repro.solver.budget import (
    DEFAULT_LIMITS,
    Budget,
    BudgetExhausted,
    SolverLimits,
    current_budget,
    use_budget,
)


@record
class Goal:
    """``forall rigid. hyps ==> concl`` with provenance."""

    rigid: dict[str, Sort]
    hyps: list[IndexTerm]
    concl: IndexTerm
    origin: str = ""
    span: Span = DUMMY_SPAN

    def __str__(self) -> str:
        quant = "".join(
            f"forall {name}:{sort}. " for name, sort in self.rigid.items()
        )
        if self.hyps:
            hyp_text = " /\\ ".join(str(h) for h in self.hyps)
            return f"{quant}({hyp_text}) ==> {self.concl}"
        return f"{quant}{self.concl}"


@record
class GoalResult:
    goal: Goal
    proved: bool
    reason: str = ""
    cases: int = 0
    elapsed: float = 0.0
    #: The goal degraded to 'unknown' because its work budget or
    #: deadline ran out (fail-soft: the run-time check is kept).
    budget_exhausted: bool = False
    #: A backend raised and the crash was contained to this goal.
    crashed: bool = False


@record
class SolveStats:
    """Aggregate statistics for one program (feeds Table 1)."""

    goals: int = 0
    proved: int = 0
    failed: int = 0
    cases: int = 0
    evars_created: int = 0
    evars_solved: int = 0
    solve_seconds: float = 0.0
    #: Goals that degraded to 'unknown' on budget/deadline exhaustion.
    budget_exhausted: int = 0
    #: Goals whose backend crash was contained (reported unproved).
    contained_crashes: int = 0


class UnsupportedGoal(Exception):
    """The goal cannot be reduced to linear integer arithmetic."""


# ---------------------------------------------------------------------------
# Goal extraction
# ---------------------------------------------------------------------------


def extract_goals(constraint: Constraint, store: EvarStore) -> list[Goal]:
    """Flatten a constraint tree into proof goals.

    ``exists`` binders are replaced by fresh evars scoped to the rigid
    variables currently in scope, with the binder sort's membership
    constraint recorded as an extra proof obligation on the witness.
    """
    goals: list[Goal] = []

    def walk(
        node: Constraint,
        rigid: dict[str, Sort],
        hyps: tuple[IndexTerm, ...],
        subst_map: dict[str, IndexTerm],
    ) -> None:
        if isinstance(node, CTrue):
            return
        if isinstance(node, CProp):
            prop = terms.subst(node.prop, subst_map)
            goals.append(
                Goal(dict(rigid), list(hyps), prop, node.origin, node.span)
            )
            return
        if isinstance(node, CAnd):
            walk(node.left, rigid, hyps, subst_map)
            walk(node.right, rigid, hyps, subst_map)
            return
        if isinstance(node, CImpl):
            hyp = terms.subst(node.hyp, subst_map)
            walk(node.body, rigid, hyps + (hyp,), subst_map)
            return
        if isinstance(node, CForall):
            name = node.var
            if name in rigid or name in subst_map:
                # alpha-rename to avoid shadowing.
                fresh = _fresh_name(name, set(rigid) | set(subst_map))
                inner_subst = dict(subst_map)
                inner_subst[name] = IVar(fresh)
                name = fresh
            else:
                inner_subst = dict(subst_map)
            new_rigid = dict(rigid)
            new_rigid[name] = node.sort
            membership = node.sort.constraint_on(IVar(name))
            new_hyps = hyps
            if not (isinstance(membership, BConst) and membership.value):
                new_hyps = hyps + (membership,)
            walk(node.body, new_rigid, new_hyps, inner_subst)
            return
        if isinstance(node, CExists):
            evar = store.fresh(node.var, set(rigid))
            inner_subst = dict(subst_map)
            inner_subst[node.var] = evar
            membership = node.sort.constraint_on(evar)
            if not (isinstance(membership, BConst) and membership.value):
                goals.append(
                    Goal(dict(rigid), list(hyps), membership, "witness sort", DUMMY_SPAN)
                )
            walk(node.body, rigid, hyps, inner_subst)
            return
        raise AssertionError(f"unknown constraint node {node!r}")

    walk(constraint, {}, (), {})
    return goals


def _fresh_name(base: str, taken: set[str]) -> str:
    for i in itertools.count(1):
        candidate = f"{base}'{i}"
        if candidate not in taken:
            return candidate
    raise AssertionError("unreachable")


# ---------------------------------------------------------------------------
# Existential variable elimination (Section 3.1)
# ---------------------------------------------------------------------------


def _equational_solution(
    prop: IndexTerm, store: EvarStore
) -> tuple[EVar, IndexTerm] | None:
    """If ``prop`` is an equality determining an unsolved evar with a
    unit coefficient, return ``(evar, witness)``."""
    if not (isinstance(prop, Cmp) and prop.op == "="):
        return None
    try:
        lhs = linearize(store.resolve(prop.left)) - linearize(
            store.resolve(prop.right)
        )
    except (NonLinearIndex, UnsupportedIndex):
        return None
    for var, coeff in lhs.coeffs:
        if isinstance(var, EVar) and not store.is_solved(var) and abs(coeff) == 1:
            rest = lhs.drop(var).scale(-coeff)
            witness = _lincomb_to_term(rest)
            if var not in terms.free_evars(witness):
                return var, witness
    return None


def _lincomb_to_term(lin: LinComb) -> IndexTerm:
    result: IndexTerm = IConst(lin.const)
    for var, coeff in lin.coeffs:
        base: IndexTerm = IVar(var) if isinstance(var, str) else var
        result = terms.iadd(result, terms.imul(IConst(coeff), base))
    return result


def solve_evars(goals: list[Goal], store: EvarStore) -> int:
    """Repeatedly mine goals for evar-determining equalities.

    Conclusions are preferred over hypotheses (solving a conclusion
    makes the goal trivial; solving from a hypothesis instantiates the
    evar with the only value under which the hypothesis can hold).
    Returns the number of evars solved.
    """
    solved = 0
    progress = True
    while progress:
        progress = False
        for goal in goals:
            candidates = [goal.concl] + goal.hyps
            for prop in candidates:
                resolved = store.resolve(prop)
                if not store.unsolved_in(resolved):
                    continue
                solution = _equational_solution(resolved, store)
                if solution is not None and store.solve(*solution):
                    solved += 1
                    progress = True
    return solved


# ---------------------------------------------------------------------------
# Operator elimination: div / mod / min / max / abs / sgn
# ---------------------------------------------------------------------------


class _Definitions:
    """Fresh-variable definitions introduced while flattening a goal."""

    def __init__(self) -> None:
        self.counter = 0
        self.props: list[IndexTerm] = []
        self.cache: dict[IndexTerm, IVar] = {}

    def fresh(self, hint: str) -> IVar:
        self.counter += 1
        return IVar(f"${hint}{self.counter}")


_ELIM_BINOPS = frozenset({"div", "mod", "min", "max"})
_ELIM_UNOPS = frozenset({"abs", "sgn"})


def _needs_elimination(term: IndexTerm) -> bool:
    """Does any subterm carry an operator :func:`_eliminate_ops` must
    rewrite?  Memoized on the interned node (``_elim`` slot) — goal
    hypotheses repeat across the goals of a declaration and across
    programs sharing the prelude, so the common all-linear case reduces
    to one slot read instead of a full traversal."""
    try:
        return term._elim  # type: ignore[attr-defined]
    except AttributeError:
        pass
    if isinstance(term, BinOp) and term.op in _ELIM_BINOPS:
        result = True
    elif isinstance(term, UnOp) and term.op in _ELIM_UNOPS:
        result = True
    else:
        result = any(_needs_elimination(kid) for kid in terms.children(term))
    object.__setattr__(term, "_elim", result)
    return result


def _eliminate_ops(term: IndexTerm, defs: _Definitions) -> IndexTerm:
    """Rewrite eliminable integer operators to fresh variables, adding
    their defining constraints to ``defs.props``."""
    if not _needs_elimination(term):
        return term

    def rewrite(node: IndexTerm) -> IndexTerm | None:
        if isinstance(node, BinOp) and node.op in {"div", "mod"}:
            return _define_divmod(node, defs)
        if isinstance(node, BinOp) and node.op in {"min", "max"}:
            return _define_minmax(node, defs)
        if isinstance(node, UnOp) and node.op == "abs":
            return _define_abs(node, defs)
        if isinstance(node, UnOp) and node.op == "sgn":
            return _define_sgn(node, defs)
        return None

    return terms.transform(term, rewrite)


def _define_divmod(node: BinOp, defs: _Definitions) -> IndexTerm:
    if node in defs.cache:
        quotient = defs.cache[node]
    else:
        divisor = node.right
        if not isinstance(divisor, IConst) or divisor.value == 0:
            # The reason is stored with the verdict and compared across
            # processes, so it names no variable: their numbering is
            # per process.
            kind = "zero" if isinstance(divisor, IConst) else "non-constant"
            raise UnsupportedGoal(
                f"cannot linearize {node.op} by a {kind} divisor")
        c = divisor.value
        key = BinOp("div", node.left, node.right)
        if key in defs.cache:
            quotient = defs.cache[key]
        else:
            quotient = defs.fresh("q")
            defs.cache[key] = quotient
            numerator = node.left
            if c > 0:
                # c*q <= numerator <= c*q + c - 1  (floor division)
                defs.props.append(terms.cmp("<=", terms.imul(IConst(c), quotient), numerator))
                defs.props.append(
                    terms.cmp(
                        "<=",
                        numerator,
                        terms.iadd(terms.imul(IConst(c), quotient), IConst(c - 1)),
                    )
                )
            else:
                # floor with negative divisor: c*q >= numerator >= c*q + c + 1
                defs.props.append(terms.cmp(">=", terms.imul(IConst(c), quotient), numerator))
                defs.props.append(
                    terms.cmp(
                        ">=",
                        numerator,
                        terms.iadd(terms.imul(IConst(c), quotient), IConst(c + 1)),
                    )
                )
        defs.cache[node] = quotient
    if node.op == "div":
        return quotient
    # mod(i, c) = i - c * div(i, c)
    assert isinstance(node.right, IConst)
    return terms.isub(node.left, terms.imul(node.right, quotient))


def _define_minmax(node: BinOp, defs: _Definitions) -> IndexTerm:
    if node in defs.cache:
        return defs.cache[node]
    var = defs.fresh("m")
    defs.cache[node] = var
    rel = "<=" if node.op == "min" else ">="
    defs.props.append(terms.cmp(rel, var, node.left))
    defs.props.append(terms.cmp(rel, var, node.right))
    defs.props.append(
        terms.bor(
            terms.cmp("=", var, node.left),
            terms.cmp("=", var, node.right),
        )
    )
    return var


def _define_abs(node: UnOp, defs: _Definitions) -> IndexTerm:
    if node in defs.cache:
        return defs.cache[node]
    var = defs.fresh("v")
    defs.cache[node] = var
    defs.props.append(terms.cmp(">=", var, node.arg))
    defs.props.append(terms.cmp(">=", var, terms.ineg(node.arg)))
    defs.props.append(
        terms.bor(
            terms.cmp("=", var, node.arg),
            terms.cmp("=", var, terms.ineg(node.arg)),
        )
    )
    return var


def _define_sgn(node: UnOp, defs: _Definitions) -> IndexTerm:
    if node in defs.cache:
        return defs.cache[node]
    var = defs.fresh("s")
    defs.cache[node] = var
    arg = node.arg
    defs.props.append(
        terms.bor(
            terms.bor(
                terms.band(terms.cmp(">", arg, terms.ZERO), terms.cmp("=", var, terms.ONE)),
                terms.band(terms.cmp("=", arg, terms.ZERO), terms.cmp("=", var, terms.ZERO)),
            ),
            terms.band(terms.cmp("<", arg, terms.ZERO), terms.cmp("=", var, IConst(-1))),
        )
    )
    return var


# ---------------------------------------------------------------------------
# Case splitting and backend dispatch
# ---------------------------------------------------------------------------

#: A literal is a comparison, a (possibly negated) boolean variable, or
#: a boolean constant.
_MAX_CASES = 4096


def _split_cases(formula: IndexTerm) -> tuple[tuple[IndexTerm, ...], ...]:
    """DNF of a boolean index term, as a tuple of literal tuples.

    Memoized on the interned node (``_dnf`` slot) — the same goal
    formula recurs whenever a prelude obligation is re-proved for
    another program, and subformulas recur within one program's case
    splits.  A ``UnsupportedGoal`` (case explosion) is cached and
    re-raised the same way."""
    try:
        cached = formula._dnf  # type: ignore[attr-defined]
    except AttributeError:
        pass
    else:
        if isinstance(cached, Exception):
            raise cached
        return cached
    try:
        result = _split_cases_uncached(formula)
    except UnsupportedGoal as exc:
        object.__setattr__(formula, "_dnf", exc)
        raise
    object.__setattr__(formula, "_dnf", result)
    return result


def _split_cases_uncached(formula: IndexTerm) -> tuple[tuple[IndexTerm, ...], ...]:
    if isinstance(formula, And):
        budget = current_budget()
        result = []
        for left in _split_cases(formula.left):
            for right in _split_cases(formula.right):
                # Each conjunction of sub-cases is a unit of DNF work;
                # exhaustion propagates uncached (a bigger budget may
                # finish this split), unlike the structural case cap.
                if budget is not None:
                    budget.spend()
                result.append(left + right)
                if len(result) > _MAX_CASES:
                    raise UnsupportedGoal("case explosion during DNF split")
        return tuple(result)
    if isinstance(formula, Or):
        return _split_cases(formula.left) + _split_cases(formula.right)
    if isinstance(formula, Not):
        inner = formula.arg
        if isinstance(inner, (IVar, EVar)):
            return ((formula,),)  # negated boolean variable literal
        return _split_cases(_negate(inner))
    return ((formula,),)


def _negate(formula: IndexTerm) -> IndexTerm:
    if isinstance(formula, And):
        return Or(_negate(formula.left), _negate(formula.right))
    if isinstance(formula, Or):
        return And(_negate(formula.left), _negate(formula.right))
    if isinstance(formula, Not):
        return formula.arg
    if isinstance(formula, Cmp):
        return Cmp(terms.CMP_NEGATION[formula.op], formula.left, formula.right)
    if isinstance(formula, BConst):
        return BConst(not formula.value)
    # boolean variable
    return Not(formula)


def _case_to_atom_sets(
    literals: "tuple[IndexTerm, ...] | list[IndexTerm]",
) -> list[list[Atom]] | None:
    """Convert one DNF case into conjunctions of linear atoms.

    Returns ``None`` when the case is propositionally unsatisfiable
    (conflicting boolean literals or a ``false`` constant).  ``<>``
    comparisons fan out into further sub-cases, hence a list of sets.
    """
    tagged = _tagged_case_atom_sets(literals, 0)
    if tagged is None:
        return None
    return [atoms for atoms, _ in tagged]


def _tagged_case_atom_sets(
    literals: "tuple[IndexTerm, ...] | list[IndexTerm]",
    split_index: int,
) -> list[tuple[list[Atom], int]] | None:
    """Like :func:`_case_to_atom_sets`, tagging each atom conjunction
    with how many of its leading atoms came from ``literals`` before
    ``split_index`` (the hypothesis part; the rest is the negated
    conclusion).  Boolean-literal conflict detection spans both parts —
    a hypothesis ``b`` and a conclusion case ``~b`` must still refute
    the case propositionally.
    """
    pos_bools: set[IndexTerm] = set()
    neg_bools: set[IndexTerm] = set()
    atom_choices: list[tuple[bool, list[list[Atom]]]] = []
    for position, literal in enumerate(literals):
        if isinstance(literal, BConst):
            if not literal.value:
                return None
            continue
        if isinstance(literal, (IVar, EVar)):
            if literal in neg_bools:
                return None
            pos_bools.add(literal)
            continue
        if isinstance(literal, Not):
            inner = literal.arg
            if inner in pos_bools:
                return None
            neg_bools.add(inner)
            continue
        if isinstance(literal, Cmp):
            try:
                atom_choices.append(
                    (position < split_index, atoms_of_cmp(literal))
                )
            except NonLinearIndex as exc:
                raise UnsupportedGoal(str(exc)) from exc
            except UnsupportedIndex as exc:  # pragma: no cover - defensive
                raise UnsupportedGoal(str(exc)) from exc
            continue
        raise UnsupportedGoal(f"unsupported literal in goal: {literal}")
    if pos_bools & neg_bools:
        return None

    # Cartesian product over the <> fan-outs.  Hypothesis literals
    # precede conclusion literals, so hypothesis atoms form a prefix of
    # every product element and a single count tags the split.
    budget = current_budget()
    result: list[tuple[list[Atom], int]] = [([], 0)]
    for from_hyp, choices in atom_choices:
        new_result = []
        for base, n_hyp in result:
            for choice in choices:
                if budget is not None:
                    budget.spend()
                new_result.append(
                    (base + choice, n_hyp + (len(choice) if from_hyp else 0))
                )
                if len(new_result) > _MAX_CASES:
                    raise UnsupportedGoal("case explosion from disequalities")
        result = new_result
    return result


def prove_goal(
    goal: Goal,
    store: EvarStore,
    backend: Backend | None = None,
    stats: SolveStats | None = None,
    cache: "SolverCache | None" = None,
    telemetry: "SolverTelemetry | None" = None,
    limits: SolverLimits | None = None,
    slicing: "SliceContext | None" = None,
) -> GoalResult:
    """Attempt to discharge one goal; never raises.

    ``cache``/``telemetry`` (see :mod:`repro.solver.portfolio`) wrap
    the backend with memoization on canonical goal keys and query
    accounting.  Callers that already hold an instrumented backend —
    :func:`repro.api.check` builds one per run — pass neither.

    ``slicing`` (see :mod:`repro.solver.slice`) routes every case
    through the verdict-preserving preprocessing layer — relevancy
    slicing, subsumption, shared-prefix Fourier — *above* the backend,
    so the memoization cache sees the sliced (smaller, more shareable)
    canonical keys.  ``None`` is the ``--no-slice`` escape hatch.

    ``limits`` is the goal's resource envelope (defaults to
    :data:`~repro.solver.budget.DEFAULT_LIMITS`): a fresh
    :class:`~repro.solver.budget.Budget` is installed as the ambient
    budget for every backend call this goal triggers.  Exhaustion
    degrades to an unproved goal with a recorded reason (check kept),
    and any backend exception — including ``RecursionError`` — is
    contained to this goal.  The one exception that always propagates
    is :class:`~repro.solver.portfolio.BackendDisagreement`: a
    soundness violation is a bug, never a degradation.
    """
    backend = backend or get_backend()
    if cache is not None or telemetry is not None:
        from repro.solver.portfolio import instrument

        backend = instrument(backend, telemetry, cache)
    budget = Budget.start(limits if limits is not None else DEFAULT_LIMITS)
    started = time.perf_counter()

    def finish(
        proved: bool,
        reason: str = "",
        cases: int = 0,
        *,
        budget_exhausted: bool = False,
        crashed: bool = False,
    ) -> GoalResult:
        elapsed = time.perf_counter() - started
        if stats is not None:
            stats.goals += 1
            stats.cases += cases
            stats.solve_seconds += elapsed
            if proved:
                stats.proved += 1
            else:
                stats.failed += 1
            if budget_exhausted:
                stats.budget_exhausted += 1
            if crashed:
                stats.contained_crashes += 1
        return GoalResult(
            goal, proved, reason, cases, elapsed,
            budget_exhausted=budget_exhausted, crashed=crashed,
        )

    concl = store.resolve(goal.concl)
    hyps = [store.resolve(h) for h in goal.hyps]
    # Sort memberships of the rigid variables are hypotheses too; the
    # extraction pass includes them in goal.hyps already, but adding
    # them here (duplicates are harmless) makes hand-built goals
    # self-contained.
    for name, sort in goal.rigid.items():
        membership = sort.constraint_on(terms.IVar(name))
        if not (isinstance(membership, BConst) and membership.value):
            hyps.append(membership)

    leftover = store.unsolved_in(concl)
    for hyp in hyps:
        leftover |= store.unsolved_in(hyp)
    if leftover:
        names = ", ".join(sorted(str(e) for e in leftover))
        return finish(False, f"unresolved existential variable(s): {names}")

    if isinstance(concl, BConst) and concl.value:
        return finish(True, "trivial", 0)

    total_atom_sets = 0
    try:
        with use_budget(budget):
            if slicing is not None:
                cases = goal_cases(hyps, concl)
            else:
                cases = ((atoms, 0) for atoms in goal_atom_sets(hyps, concl))
            for atoms, n_hyp in cases:
                total_atom_sets += 1
                if slicing is not None:
                    verdict = slicing.query(backend, atoms, n_hyp)
                else:
                    verdict = backend.unsat(atoms)
                if not verdict:
                    if budget.exhausted:
                        # The backend caught the exhaustion internally
                        # and answered 'unknown'; surface the real
                        # reason instead of "could not refute".
                        return finish(
                            False,
                            f"solver budget exhausted "
                            f"({budget.describe()})",
                            total_atom_sets,
                            budget_exhausted=True,
                        )
                    return finish(
                        False,
                        f"backend {backend.name} could not refute a case",
                        total_atom_sets,
                    )
                budget.checkpoint()  # poll the deadline between cases
        return finish(True, "", total_atom_sets)
    except UnsupportedGoal as exc:
        return finish(False, str(exc), total_atom_sets)
    except BudgetExhausted:
        return finish(
            False,
            f"solver budget exhausted ({budget.describe()})",
            total_atom_sets,
            budget_exhausted=True,
        )
    except Exception as exc:
        from repro.solver.portfolio import BackendDisagreement

        if isinstance(exc, BackendDisagreement):
            raise  # a soundness violation must never be swallowed
        return finish(
            False,
            f"solver crashed; check kept "
            f"({type(exc).__name__}: {exc})",
            total_atom_sets,
            crashed=True,
        )


def goal_atom_sets(hyps: list[IndexTerm], concl: IndexTerm):
    """Yield the atom conjunctions whose joint refutation proves
    ``hyps ==> concl`` — i.e. the DNF cases of ``hyps /\\ ~concl``
    after div/mod/min/max/abs/sgn elimination.

    Raises :class:`UnsupportedGoal` on nonlinearity or inexpressible
    operators.  Shared by :func:`prove_goal` (``--no-slice`` path) and
    the counterexample search in :mod:`repro.solver.diagnose`.
    """
    defs = _Definitions()
    flat_hyps = [_eliminate_ops(h, defs) for h in hyps]
    flat_concl = _eliminate_ops(concl, defs)
    formula = terms.conj(flat_hyps + defs.props + [_negate(flat_concl)])
    for literals in _split_cases(formula):
        atom_sets = _case_to_atom_sets(literals)
        if atom_sets is None:
            continue  # propositionally refuted
        yield from atom_sets


def goal_cases(hyps: list[IndexTerm], concl: IndexTerm):
    """Yield ``(atoms, n_hyp)`` pairs for the goal's DNF cases, where
    ``atoms[:n_hyp]`` originate from the hypotheses (and operator
    definitions they introduced) and the rest from the negated
    conclusion — the split the slicing layer needs.

    The flattened atom conjunctions coincide with
    :func:`goal_atom_sets`: ``conj`` is a left fold, so splitting the
    hypothesis and conclusion conjunctions separately and taking the
    product yields the same cases in the same lexicographic
    (hypothesis, conclusion) order, and the hypothesis subformula's DNF
    memo is shared with the unsliced path.
    """
    defs = _Definitions()
    flat_hyps = [_eliminate_ops(h, defs) for h in hyps]
    hyp_props = list(defs.props)
    flat_concl = _eliminate_ops(concl, defs)
    concl_props = defs.props[len(hyp_props):]
    hyp_formula = terms.conj(flat_hyps + hyp_props)
    concl_formula = terms.conj(concl_props + [_negate(flat_concl)])
    budget = current_budget()
    hyp_cases = _split_cases(hyp_formula)
    concl_cases = _split_cases(concl_formula)
    # The unsliced path caps the materialized DNF of the full formula;
    # case counts only grow along the conj fold, so it raises exactly
    # when the final product exceeds the cap — reproduce that here even
    # though the product is streamed, to keep failure modes identical.
    if len(hyp_cases) * len(concl_cases) > _MAX_CASES:
        raise UnsupportedGoal("case explosion during DNF split")
    for hyp_literals in hyp_cases:
        for concl_literals in concl_cases:
            if budget is not None:
                budget.spend()
            tagged = _tagged_case_atom_sets(
                tuple(hyp_literals) + tuple(concl_literals),
                len(hyp_literals),
            )
            if tagged is None:
                continue  # propositionally refuted
            yield from tagged


def prove_all(
    constraint: Constraint,
    store: EvarStore,
    backend: Backend | None = None,
    stats: SolveStats | None = None,
    cache: "SolverCache | None" = None,
    telemetry: "SolverTelemetry | None" = None,
    limits: SolverLimits | None = None,
    slicing: "SliceContext | None" = None,
) -> list[GoalResult]:
    """The full Section 3 pipeline for one constraint tree.

    ``slicing`` is shared across all goals, so refuted cores and
    presolved hypothesis prefixes from one goal accelerate the next.
    """
    if cache is not None or telemetry is not None:
        from repro.solver.portfolio import instrument

        backend = instrument(backend or get_backend(), telemetry, cache)
    goals = extract_goals(constraint, store)
    solved = solve_evars(goals, store)
    if stats is not None:
        stats.evars_solved += solved
    return [
        prove_goal(goal, store, backend, stats, limits=limits, slicing=slicing)
        for goal in goals
    ]
