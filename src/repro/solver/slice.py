"""Goal preprocessing: relevancy slicing, subsumption, prefix reuse.

:func:`repro.solver.simplify.prove_goal` historically shipped every
goal case to the backend as one monolithic conjunction — the full
hypothesis context plus the negated conclusion — even though most
hypotheses constrain variables the conclusion never mentions.  This
module sits between the case splitter and the (instrumented) backend
and applies three verdict-preserving transformations:

1. **Relevancy slicing** (:func:`split_components`): the atoms of a
   case are partitioned into connected components of the variable
   dependency graph (union-find over each atom's variable set).  A
   conjunction over disjoint variable sets is unsatisfiable iff *some*
   component is — integer variable domains are non-empty, so a
   satisfying assignment for each component extends to the whole
   system — which makes querying the backend per component exact, not
   heuristic.  Components connected to the conclusion are queried
   first: they are the ones the negated conclusion can contradict, so
   the common case short-circuits after one small query.  Smaller atom
   sets also mean smaller canonical keys, so structurally identical
   sliced goals from different declarations collapse to one entry in
   the LRU *and* the driver's persistent cache.

2. **Subsumption** (:class:`SliceContext`): every refuted component is
   remembered as a *core* (a set of atoms shown jointly
   unsatisfiable).  Any later component whose atom set is a syntactic
   superset of a recorded core is unsatisfiable by monotonicity of
   conjunction — no backend call needed.  The check is purely
   syntactic on atoms, so it is sound across goals and declarations
   even though ``$``-prefixed definition variables are scoped per
   goal: an unsatisfiable atom set stays unsatisfiable under any
   reading of its free variables.

3. **Shared-prefix incremental Fourier**: components of goals from the
   same declaration overwhelmingly share their hypothesis atoms and
   differ only in the negated conclusion.  For Fourier-routed backends
   the shared hypothesis part is presolved once
   (:func:`repro.solver.fourier.presolve_prefix`) and installed as the
   ambient prefix around the backend call, so per-goal elimination
   resumes from the residual system instead of restarting from
   scratch.

Invariant (enforced by ``tests/solver/test_slice.py`` and the CI
``slice-parity`` job): the layer never changes a verdict.  Slicing is
exact by the component argument above; subsumption only converts
would-be refutations the backend *could* re-derive into cache hits on
the corpus (where every goal is proved); prefix resume computes the
same Fourier fixpoint through a different elimination order and bails
out to the from-scratch path whenever the residual mentions an
eliminated variable.  Corpus verdicts are byte-identical with the
layer on and off (``--no-slice``).

Budget accounting stays honest: the subsumption probe for each
component charges one ambient :class:`~repro.solver.budget.Budget`
step, and a prefix presolve spends from the budget of the goal that
triggers it.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Sequence

from repro.indices.linear import Atom, LinVar
from repro.records import record
from repro.solver import fourier
from repro.solver.backends import Backend
from repro.solver.budget import current_budget

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.solver.portfolio import SolverTelemetry


#: Backends whose refutations route through Fourier elimination and so
#: can resume from a presolved hypothesis prefix.  Others (interval,
#: omega, simplex, bruteforce, fourier-rational with its distinct
#: config) ignore the ambient prefix entirely.
_PREFIX_BACKENDS = frozenset({"fourier", "portfolio", "differential"})


@record
class SlicedSystem:
    """The component decomposition of one goal case.

    ``refuted`` — a ground atom was trivially false (the whole case is
    unsatisfiable without consulting any backend).  ``components`` are
    the variable-connected atom groups, conclusion-connected groups
    first (each group in input atom order).  ``relevant_atoms`` is the
    size of the conclusion-connected slice — what classic relevancy
    slicing would keep — and feeds the atoms-after-slice telemetry.
    """

    refuted: bool
    components: list[list[Atom]]
    relevant_atoms: int


def split_components(
    atoms: Sequence[Atom], seed_vars: set[LinVar]
) -> SlicedSystem:
    """Partition ``atoms`` into variable-connected components.

    Ground atoms participate in no component: a trivially false one
    refutes the whole system (``refuted=True``), a trivially true one
    is dropped.  Components containing any of ``seed_vars`` (the
    conclusion's variables) are ordered first; within that split,
    components appear in order of their first atom and keep their
    atoms in input order, so the decomposition is deterministic.
    """
    parent: dict[LinVar, LinVar] = {}

    def find(var: LinVar) -> LinVar:
        root = var
        while parent[root] != root:
            root = parent[root]
        while parent[var] != root:
            parent[var], var = root, parent[var]
        return root

    var_atoms: list[tuple[Atom, LinVar]] = []
    for atom in atoms:
        avars = atom.lhs.variables()
        if not avars:
            if atom.is_trivially_false():
                return SlicedSystem(True, [], 0)
            continue  # trivially true ground atom
        first: LinVar | None = None
        for var in avars:
            if var not in parent:
                parent[var] = var
            if first is None:
                first = var
            else:
                root_a, root_b = find(first), find(var)
                if root_a != root_b:
                    parent[root_a] = root_b
        assert first is not None
        var_atoms.append((atom, first))

    groups: dict[LinVar, list[Atom]] = {}
    order: list[LinVar] = []
    for atom, var in var_atoms:
        root = find(var)
        if root not in groups:
            groups[root] = []
            order.append(root)
        groups[root].append(atom)

    seed_roots = {find(var) for var in seed_vars if var in parent}
    components = [groups[root] for root in order if root in seed_roots]
    relevant = sum(len(component) for component in components)
    components += [groups[root] for root in order if root not in seed_roots]
    return SlicedSystem(False, components, relevant)


class SliceContext:
    """Per-run shared state for the goal-preprocessing layer.

    One instance is shared by every goal of a check (and by every
    worker thread of the parallel driver — all mutation happens under
    one lock, and the state is only ever *extended*, so concurrent
    readers can at worst miss a subsumption or presolve another prefix,
    never change a verdict).  Process workers build their own instance.
    """

    #: Caps keep the shared dictionaries O(run size): recording stops
    #: silently once reached — only an optimization is lost.
    MAX_CORES = 1024
    MAX_CORE_ATOMS = 16
    MAX_PREFIXES = 1024

    def __init__(self, telemetry: "SolverTelemetry | None" = None) -> None:
        self.telemetry = telemetry
        self._lock = threading.Lock()
        #: Refuted cores anchored at their first atom: a candidate
        #: superset must contain every core atom, in particular the
        #: anchor, so lookup only scans cores anchored at the
        #: candidate's own atoms.
        self._cores: dict[Atom, list[frozenset[Atom]]] = {}
        self._core_count = 0
        #: Presolved Fourier state per distinct hypothesis atom set.
        self._prefixes: dict[frozenset[Atom], fourier.PrefixState] = {}

    # -- the main entry point -----------------------------------------

    def query(
        self, backend: Backend, atoms: Sequence[Atom], n_hyp: int
    ) -> bool:
        """Refute one goal case (``True`` iff unsatisfiable).

        ``atoms[:n_hyp]`` originate from the hypotheses, the rest from
        the negated conclusion — the split drives both the relevancy
        seed and the shared-prefix selection.
        """
        seed_vars: set[LinVar] = set()
        for atom in atoms[n_hyp:]:
            seed_vars |= atom.lhs.variables()
        sliced = split_components(atoms, seed_vars)
        if self.telemetry is not None:
            with self._lock:
                self.telemetry.sliced_queries += 1
                self.telemetry.atoms_before += len(atoms)
                self.telemetry.atoms_after += sliced.relevant_atoms
        if sliced.refuted:
            return True

        budget = current_budget()
        hyp_set = set(atoms[:n_hyp])
        for component in sliced.components:
            if budget is not None:
                budget.spend()  # the subsumption probe is real work
            component_set = frozenset(component)
            if self._subsumed(component, component_set):
                if self.telemetry is not None:
                    with self._lock:
                        self.telemetry.subsumption_hits += 1
                return True
            if self._refute_component(backend, component, component_set, hyp_set):
                self._record_core(component, component_set)
                return True
        return False

    # -- subsumption ---------------------------------------------------

    def _subsumed(
        self, component: list[Atom], component_set: frozenset[Atom]
    ) -> bool:
        with self._lock:
            for atom in component:
                for core in self._cores.get(atom, ()):
                    if core <= component_set:
                        return True
        return False

    def _record_core(
        self, component: list[Atom], component_set: frozenset[Atom]
    ) -> None:
        if len(component_set) > self.MAX_CORE_ATOMS:
            return
        with self._lock:
            if self._core_count >= self.MAX_CORES:
                return
            anchored = self._cores.setdefault(component[0], [])
            if component_set not in anchored:
                anchored.append(component_set)
                self._core_count += 1

    # -- shared-prefix Fourier ----------------------------------------

    def _refute_component(
        self,
        backend: Backend,
        component: list[Atom],
        component_set: frozenset[Atom],
        hyp_set: set[Atom],
    ) -> bool:
        state = None
        if backend.name in _PREFIX_BACKENDS:
            prefix_atoms = tuple(a for a in component if a in hyp_set)
            # A one-atom prefix saves nothing; a full-component prefix
            # would presolve the conclusion into the shared state.
            if 2 <= len(prefix_atoms) < len(component):
                state = self._prefix_state(prefix_atoms, component)
        if state is None:
            return backend.unsat(component)
        with fourier.use_prefix(state) as slot:
            verdict = backend.unsat(component)
        if slot.uses and self.telemetry is not None:
            with self._lock:
                self.telemetry.prefix_reuses += slot.uses
        return verdict

    def _prefix_state(
        self, prefix_atoms: tuple[Atom, ...], component: list[Atom]
    ) -> fourier.PrefixState:
        key = frozenset(prefix_atoms)
        with self._lock:
            cached = self._prefixes.get(key)
        if cached is not None:
            return cached
        protected: set[LinVar] = set()
        for atom in component:
            if atom not in key:
                protected |= atom.lhs.variables()
        # Spends this goal's ambient budget; BudgetExhausted propagates
        # (prove_goal degrades the goal) without caching a partial state.
        state = fourier.presolve_prefix(prefix_atoms, protected)
        with self._lock:
            if len(self._prefixes) < self.MAX_PREFIXES:
                state = self._prefixes.setdefault(key, state)
        return state
