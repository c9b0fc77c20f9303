"""Memoized solver portfolio with telemetry.

The constraint solver is the type checker's hot path (cf. *Really
Natural Linear Indexed Type Checking*): the corpus generates the same
linear-atom systems in bulk across call sites, and every backend query
re-solves them from scratch.  This module adds three layers on top of
the raw decision procedures in :mod:`repro.solver.backends`:

* **Canonical goal keys** — :func:`canonical_key` renames variables by
  first occurrence over a deterministic atom ordering, so structurally
  identical systems (differing only in rigid-variable names or evar
  uids) hash equally.  Equal keys imply the systems are identical up to
  a variable bijection, and (un)satisfiability is invariant under
  bijective renaming, so caching on the key is sound.
* **An LRU cache** — :class:`SolverCache` memoizes ``unsat`` verdicts
  per ``(backend, canonical key)`` with hit/miss/eviction counters.
* **A portfolio backend** — :class:`PortfolioSolver` screens each query
  with the cheap ``interval`` propagator, then escalates ``fourier`` →
  ``omega``, recording which tier decided; and
  :class:`DifferentialSolver` cross-checks any UNSAT verdict against
  the complete ``omega`` backend, raising :class:`BackendDisagreement`
  on a soundness violation (the discipline of *Practical Range
  Refinement Types with Inference*).

:class:`SolverTelemetry` aggregates queries, per-tier decisions and
wall time, and cache statistics; :meth:`repro.api.CheckReport.summary`
and the bench harness surface it.
"""

from __future__ import annotations

import json
import threading
import time
from collections import OrderedDict
from dataclasses import field
from functools import lru_cache
from typing import Callable, Iterator, Sequence

from repro.indices.linear import Atom
from repro.records import record
from repro.solver.backends import Backend, get_backend
from repro.solver.budget import current_budget

#: A fully renamed atom: ``(rel, const, ((var_id, coeff), ...))``.
CanonicalAtom = tuple[str, int, tuple[tuple[int, int], ...]]
CanonicalKey = tuple[CanonicalAtom, ...]


class BackendDisagreement(AssertionError):
    """Two backends returned contradictory verdicts where completeness
    guarantees one of them (a soundness bug — never swallow this)."""


# ---------------------------------------------------------------------------
# Canonical goal keys
# ---------------------------------------------------------------------------


def canonical_key(atoms: Sequence[Atom]) -> CanonicalKey:
    """A hashable normal form of an atom conjunction.

    Variables are renamed to consecutive integers by first occurrence
    while scanning the atoms in a name-independent order (sorted by
    relation, constant, and coefficient multiset); the renamed atoms
    are then sorted.  The construction is a deterministic function of
    the input, so equal keys reconstruct the *same* renamed system —
    i.e. the originals agree up to a variable bijection, under which
    integer satisfiability is invariant.  Alpha-equivalent systems
    (fresh evar uids, renamed rigids) therefore share a cache line.
    """

    def signature(atom: Atom) -> tuple:
        return (
            atom.rel,
            atom.lhs.const,
            tuple(sorted(c for _, c in atom.lhs.coeffs)),
        )

    ordered = sorted(atoms, key=signature)
    ids: dict[object, int] = {}
    renamed: list[CanonicalAtom] = []
    for atom in ordered:
        coeffs = []
        for var, coeff in atom.lhs.coeffs:
            if var not in ids:
                ids[var] = len(ids)
            coeffs.append((ids[var], coeff))
        coeffs.sort()
        renamed.append((atom.rel, atom.lhs.const, tuple(coeffs)))
    return tuple(sorted(renamed))


@lru_cache(maxsize=8192)
def _canonical_key_cached(atoms: tuple[Atom, ...]) -> CanonicalKey:
    return canonical_key(atoms)


def memoized_canonical_key(atoms: Sequence[Atom]) -> CanonicalKey:
    """:func:`canonical_key`, memoized on the atom tuple.

    With hash-consed terms an :class:`Atom`'s hash bottoms out in O(1)
    identity hashes of its variables, so the lookup is cheap; repeated
    queries over the same goal shapes (warm driver runs, shared prelude
    obligations) skip the sort-and-rename entirely.  Process-local
    only — the persistent codec (:func:`encode_key`) always receives
    the content-derived key itself, never anything id-dependent.
    """
    return _canonical_key_cached(tuple(atoms))


def canonical_key_stats() -> tuple[int, int, int]:
    """(hits, misses, evictions) of the canonical-key memo.

    The lru does not count evictions directly, but every miss inserts
    exactly one entry, so ``misses - currsize`` is the number evicted
    since the last clear.
    """
    info = _canonical_key_cached.cache_info()
    return info.hits, info.misses, info.misses - info.currsize


def encode_key(key: CanonicalKey) -> str:
    """A stable text form of a canonical key (JSON of nested lists) —
    the on-disk representation used by the driver's persistent cache."""
    return json.dumps(key, separators=(",", ":"))


def decode_key(text: str) -> CanonicalKey:
    """Inverse of :func:`encode_key`.

    Raises :class:`ValueError` on anything that does not reconstruct a
    well-formed key — corrupted cache entries must be *dropped*, never
    trusted.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"undecodable key: {text!r}") from exc
    if not isinstance(data, list):
        raise ValueError(f"malformed key: {text!r}")
    atoms: list[CanonicalAtom] = []
    for entry in data:
        if not (isinstance(entry, list) and len(entry) == 3):
            raise ValueError(f"malformed atom in key: {text!r}")
        rel, const, coeffs = entry
        if not (isinstance(rel, str) and isinstance(const, int)
                and isinstance(coeffs, list)):
            raise ValueError(f"malformed atom in key: {text!r}")
        pairs = []
        for pair in coeffs:
            if not (isinstance(pair, list) and len(pair) == 2
                    and all(isinstance(x, int) for x in pair)):
                raise ValueError(f"malformed coefficient in key: {text!r}")
            pairs.append((pair[0], pair[1]))
        atoms.append((rel, const, tuple(pairs)))
    return tuple(atoms)


# ---------------------------------------------------------------------------
# Memoization
# ---------------------------------------------------------------------------


class SolverCache:
    """A bounded LRU of ``unsat`` verdicts keyed on canonical form.

    Entries are namespaced by backend name — different backends give
    different (one-sided) answers to the same system, so they must not
    share verdicts.  Counters accumulate over the cache's lifetime.

    All operations are guarded by a lock so one cache can back the
    driver's concurrent workers; the uncontended acquire is trivially
    cheap next to any backend call.
    """

    def __init__(self, maxsize: int = 4096) -> None:
        self.maxsize = maxsize
        self._entries: OrderedDict[tuple[str, CanonicalKey], bool] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Entries that answered at least one lookup — the persistent
        #: store bumps its cross-run hit counts from this set.
        self._hit_keys: set[tuple[str, CanonicalKey]] = set()

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, backend: str, key: CanonicalKey) -> bool | None:
        """The cached verdict, or ``None`` on a miss."""
        entry = (backend, key)
        with self._lock:
            if entry not in self._entries:
                self.misses += 1
                return None
            self._entries.move_to_end(entry)
            self.hits += 1
            self._hit_keys.add(entry)
            return self._entries[entry]

    def store(self, backend: str, key: CanonicalKey, verdict: bool) -> int:
        """Record a verdict; returns how many entries were evicted."""
        with self._lock:
            self._entries[(backend, key)] = verdict
            self._entries.move_to_end((backend, key))
            evicted = 0
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1
                evicted += 1
            return evicted

    def preload(self, backend: str, key: CanonicalKey, verdict: bool) -> None:
        """Seed one entry without touching the hit/miss/eviction
        counters (used when warming from the driver's on-disk cache)."""
        with self._lock:
            self._entries[(backend, key)] = verdict
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def entries(self) -> Iterator[tuple[str, CanonicalKey, bool]]:
        """Snapshot of the cache contents, LRU-first (for persistence)."""
        with self._lock:
            snapshot = list(self._entries.items())
        for (backend, key), verdict in snapshot:
            yield backend, key, verdict

    def hit_keys(self) -> set[tuple[str, CanonicalKey]]:
        """Snapshot of the ``(backend, key)`` pairs that answered at
        least one lookup (hits on since-evicted entries included)."""
        with self._lock:
            return set(self._hit_keys)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._hit_keys.clear()


@record
class SolverTelemetry:
    """Aggregate solver-layer statistics for one run (or one shared
    accumulation — pass the same instance to several checks)."""

    #: Backend queries issued (cache hits included).
    queries: int = 0
    #: Queries answered UNSAT.
    unsat: int = 0
    #: Queries answered from the cache without running any backend.
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    #: tier/backend name -> number of queries it decided.
    decisions: dict[str, int] = field(default_factory=dict)
    #: tier/backend name -> wall-clock seconds spent inside it.
    tier_seconds: dict[str, float] = field(default_factory=dict)
    #: Goals degraded to 'unknown' on budget/deadline exhaustion
    #: (fail-soft: their run-time checks are kept).
    budget_exhausted: int = 0
    #: Goals whose backend crash was contained (reported unproved).
    contained_crashes: int = 0
    #: Goal cases routed through the relevancy-slicing layer.
    sliced_queries: int = 0
    #: Atoms entering the slicing layer vs. atoms in the
    #: conclusion-connected slice (the classic relevancy measure).
    atoms_before: int = 0
    atoms_after: int = 0
    #: Components refuted by subsumption against a recorded core,
    #: without any backend call.
    subsumption_hits: int = 0
    #: Fourier solves resumed from a presolved shared hypothesis prefix.
    prefix_reuses: int = 0

    def record_decision(self, tier: str, elapsed: float, decided: bool) -> None:
        self.tier_seconds[tier] = self.tier_seconds.get(tier, 0.0) + elapsed
        if decided:
            self.decisions[tier] = self.decisions.get(tier, 0) + 1

    def merge(self, other: "SolverTelemetry") -> None:
        """Fold another telemetry into this one (the parallel driver
        gives each worker thread its own instance, then merges — no
        counter races, no locks on the hot path)."""
        self.queries += other.queries
        self.unsat += other.unsat
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.cache_evictions += other.cache_evictions
        self.budget_exhausted += other.budget_exhausted
        self.contained_crashes += other.contained_crashes
        self.sliced_queries += other.sliced_queries
        self.atoms_before += other.atoms_before
        self.atoms_after += other.atoms_after
        self.subsumption_hits += other.subsumption_hits
        self.prefix_reuses += other.prefix_reuses
        for tier, count in other.decisions.items():
            self.decisions[tier] = self.decisions.get(tier, 0) + count
        for tier, seconds in other.tier_seconds.items():
            self.tier_seconds[tier] = self.tier_seconds.get(tier, 0.0) + seconds

    @property
    def consulted_cache(self) -> bool:
        """Did any query go to a solver cache?  (Every query does when
        one is attached.)"""
        return bool(self.cache_hits or self.cache_misses)

    def lines(self) -> list[str]:
        """Human-readable summary block (``CheckReport.summary`` and
        the CLI append these)."""
        cache = (
            f"cache {self.cache_hits} hit(s) / {self.cache_misses} miss(es) / "
            f"{self.cache_evictions} eviction(s)"
            if self.consulted_cache
            else "cache off"
        )
        out = [f"solver queries:   {self.queries} ({self.unsat} unsat), {cache}"]
        for tier in sorted(set(self.decisions) | set(self.tier_seconds)):
            decided = self.decisions.get(tier, 0)
            seconds = self.tier_seconds.get(tier, 0.0)
            out.append(
                f"  tier {tier:<10} decided {decided:>5} "
                f"in {seconds * 1000:.2f} ms"
            )
        if self.sliced_queries:
            out.append(
                f"slicing:          {self.sliced_queries} case(s), atoms "
                f"{self.atoms_before} -> {self.atoms_after}, "
                f"{self.subsumption_hits} subsumption hit(s), "
                f"{self.prefix_reuses} prefix reuse(s)"
            )
        return out


# ---------------------------------------------------------------------------
# Portfolio and differential solvers
# ---------------------------------------------------------------------------

#: The escalation ladder: cheap and incomplete first, exact last.  The
#: registered backends import their solver module on first use.
PORTFOLIO_TIERS: tuple[tuple[str, Callable[[Sequence[Atom]], bool]], ...] = tuple(
    (name, get_backend(name).unsat) for name in ("interval", "fourier", "omega")
)


class PortfolioSolver:
    """Tiered escalation over the registered backends.

    Soundness: every tier is individually sound for UNSAT, so the first
    ``True`` can be trusted; a final ``False`` is as strong as the last
    tier's (``omega``: complete up to its work budget).  Telemetry
    records which tier decided each query and where the time went.
    """

    def __init__(
        self,
        telemetry: SolverTelemetry | None = None,
        tiers: Sequence[tuple[str, Callable[[Sequence[Atom]], bool]]] = PORTFOLIO_TIERS,
    ) -> None:
        self.telemetry = telemetry if telemetry is not None else SolverTelemetry()
        self.tiers = tuple(tiers)

    def unsat(self, atoms: Sequence[Atom]) -> bool:
        budget = current_budget()
        last = len(self.tiers) - 1
        for position, (name, tier_unsat) in enumerate(self.tiers):
            if budget is not None and budget.exhausted:
                break  # every remaining tier would abort on first spend
            started = time.perf_counter()
            verdict = tier_unsat(atoms)
            elapsed = time.perf_counter() - started
            decided = verdict or position == last
            self.telemetry.record_decision(name, elapsed, decided)
            if verdict:
                return True
        return False


class DifferentialSolver:
    """Validation mode: answer with ``primary``, but confirm every
    UNSAT verdict with the integer-complete ``omega`` backend.

    ``omega`` proving the system *satisfiable* after another backend
    declared it unsatisfiable is a soundness violation — the exact
    failure that would silently delete a needed bound check — and
    raises :class:`BackendDisagreement`.  An exhausted omega work
    budget leaves the verdict unconfirmed but is not a disagreement.
    """

    def __init__(
        self,
        primary: Backend | str = "fourier",
        telemetry: SolverTelemetry | None = None,
    ) -> None:
        self.primary = get_backend(primary) if isinstance(primary, str) else primary
        self.telemetry = telemetry if telemetry is not None else SolverTelemetry()

    def unsat(self, atoms: Sequence[Atom]) -> bool:
        started = time.perf_counter()
        verdict = self.primary.unsat(atoms)
        self.telemetry.record_decision(
            self.primary.name, time.perf_counter() - started, True
        )
        if not verdict:
            return False
        from repro.solver.omega import OmegaBudgetExceeded, omega_sat

        started = time.perf_counter()
        try:
            confirmed = not omega_sat(atoms)
        except OmegaBudgetExceeded:
            confirmed = True  # unconfirmable, not contradicted
        self.telemetry.record_decision(
            "omega-confirm", time.perf_counter() - started, False
        )
        if not confirmed:
            raise BackendDisagreement(
                f"backend {self.primary.name!r} declared UNSAT but omega "
                f"found the system satisfiable: {'; '.join(map(str, atoms))}"
            )
        return True


# ---------------------------------------------------------------------------
# Instrumentation wrapper
# ---------------------------------------------------------------------------


def instrument(
    backend: Backend,
    telemetry: SolverTelemetry | None = None,
    cache: SolverCache | None = None,
) -> Backend:
    """Wrap ``backend`` with query counting and (optionally) the
    memoization cache.  The wrapper is transparent: same ``name`` and
    completeness flag, so failure messages and registry behaviour are
    unchanged."""
    telemetry = telemetry if telemetry is not None else SolverTelemetry()

    def unsat(atoms: Sequence[Atom]) -> bool:
        telemetry.queries += 1
        key: CanonicalKey | None = None
        if cache is not None:
            key = memoized_canonical_key(atoms)
            hit = cache.lookup(backend.name, key)
            if hit is not None:
                telemetry.cache_hits += 1
                if hit:
                    telemetry.unsat += 1
                return hit
            telemetry.cache_misses += 1
        verdict = backend.unsat(atoms)
        if cache is not None and key is not None:
            # A False computed under an exhausted budget means "query
            # aborted", not "not refutable" — caching it would pin the
            # degraded answer for later, fully-budgeted queries.
            ambient = current_budget()
            if verdict or ambient is None or not ambient.exhausted:
                telemetry.cache_evictions += cache.store(backend.name, key, verdict)
        if verdict:
            telemetry.unsat += 1
        return verdict

    return Backend(backend.name, unsat, backend.integer_complete)


# ---------------------------------------------------------------------------
# Module-level defaults (used by the backend registry)
# ---------------------------------------------------------------------------

#: Shared state behind ``get_backend("portfolio")`` /
#: ``get_backend("differential")``: repeated corpus checks in one
#: process stop re-solving identical goals.
GLOBAL_CACHE = SolverCache(maxsize=8192)
GLOBAL_TELEMETRY = SolverTelemetry()

_DEFAULT_PORTFOLIO: Backend | None = None
_DEFAULT_DIFFERENTIAL: Backend | None = None


def default_portfolio() -> Backend:
    global _DEFAULT_PORTFOLIO
    if _DEFAULT_PORTFOLIO is None:
        solver = PortfolioSolver(telemetry=GLOBAL_TELEMETRY)
        _DEFAULT_PORTFOLIO = instrument(
            Backend("portfolio", solver.unsat, integer_complete=True),
            GLOBAL_TELEMETRY,
            GLOBAL_CACHE,
        )
    return _DEFAULT_PORTFOLIO


def default_differential() -> Backend:
    global _DEFAULT_DIFFERENTIAL
    if _DEFAULT_DIFFERENTIAL is None:
        solver = DifferentialSolver("fourier", telemetry=GLOBAL_TELEMETRY)
        _DEFAULT_DIFFERENTIAL = instrument(
            Backend("differential", solver.unsat),
            GLOBAL_TELEMETRY,
            GLOBAL_CACHE,
        )
    return _DEFAULT_DIFFERENTIAL


def reset_global_state() -> None:
    """Fresh global cache/telemetry (test isolation)."""
    _canonical_key_cached.cache_clear()
    GLOBAL_CACHE.clear()
    GLOBAL_CACHE.hits = GLOBAL_CACHE.misses = GLOBAL_CACHE.evictions = 0
    GLOBAL_TELEMETRY.queries = GLOBAL_TELEMETRY.unsat = 0
    GLOBAL_TELEMETRY.cache_hits = GLOBAL_TELEMETRY.cache_misses = 0
    GLOBAL_TELEMETRY.cache_evictions = 0
    GLOBAL_TELEMETRY.budget_exhausted = GLOBAL_TELEMETRY.contained_crashes = 0
    GLOBAL_TELEMETRY.sliced_queries = GLOBAL_TELEMETRY.atoms_before = 0
    GLOBAL_TELEMETRY.atoms_after = GLOBAL_TELEMETRY.subsumption_hits = 0
    GLOBAL_TELEMETRY.prefix_reuses = 0
    GLOBAL_TELEMETRY.decisions.clear()
    GLOBAL_TELEMETRY.tier_seconds.clear()
