"""Hash-consing for the index core IR.

Every :class:`~repro.indices.terms.IndexTerm` and
:class:`~repro.indices.constraints.Constraint` construction in the
process — smart constructors, the parser, elaboration, solver
rewrites, tests — flows through the :class:`Interned` metaclass, which
consults a per-process, thread-safe, weakref-backed table before
building anything.  Structurally equal nodes are therefore *the same
object*, which buys, everywhere terms are compared today:

* **O(1) equality and hashing** — identity stands in for structural
  equality, so ``dict``/``set`` operations over terms no longer walk
  the tree;
* **maximal sharing** — a term is stored once no matter how many
  types, hypotheses, or goals mention it;
* **memoization points** — per-node slots (``free_vars``,
  ``free_evars``, ``linearize``, comparison atoms) computed at most
  once per distinct term, process-wide.

Invariants (see docs/LANGUAGE.md):

* interned classes must be immutable (frozen records) and their
  fields hashable — field tuples are the table keys;
* two nodes are ``==`` iff they are ``is`` iff their class and fields
  are equal;
* node ids (``_nid``) are unique among *live* nodes and stable for a
  node's lifetime, but are process-local and never persisted — on-disk
  cache keys must stay content-derived
  (:func:`repro.solver.portfolio.encode_key`).

The table holds only weak references: a term with no remaining users
is collected normally and its slot is vacated.  The table itself is
never cleared, because live nodes must keep their identity.
"""

from __future__ import annotations

import threading
import weakref
from _weakref import _remove_dead_weakref
from dataclasses import MISSING
from typing import Any


class _Entry(weakref.ref):
    """A table entry: a weak reference to a node that knows its key.

    (:class:`weakref.KeyedRef` does the same through Python-level
    ``__new__``/``__init__``; this class keeps construction in C.)"""

    __slots__ = ("key",)


class InternTable:
    """The process-wide node store: ``(cls, *fields) -> node`` (weak).

    Entries are :class:`_Entry` weak references in a plain dict.  A
    node's death callback removes its entry with
    ``_remove_dead_weakref``, the atomic helper
    :class:`weakref.WeakValueDictionary` itself uses: it deletes the slot
    only if it still holds a dead reference, so a callback that fires
    late can never evict a node republished under the same key.
    Lookups therefore need no lock; only publishing a new node (and the
    counters) takes it.
    """

    __slots__ = ("_entries", "_lock", "_next_id", "_remove", "hits", "misses")

    def __init__(self) -> None:
        entries: dict[tuple, _Entry] = {}

        def remove(entry: _Entry) -> None:
            _remove_dead_weakref(entries, entry.key)

        self._entries = entries
        self._remove = remove
        self._lock = threading.Lock()
        self._next_id = 0
        self.hits = 0
        self.misses = 0

    def canonical(self, cls: type, args: tuple, kwargs: dict) -> Any:
        """The unique node for ``cls(*args, **kwargs)``."""
        if kwargs or len(args) != len(cls.__match_args__):
            args = _normalize(cls, args, kwargs)
        key = (cls, *args)
        entry = self._entries.get(key)
        if entry is not None:
            node = entry()
            if node is not None:
                with self._lock:
                    self.hits += 1
                return node
        # Build outside the lock (field validation may raise; nothing
        # is published in that case), then re-check and publish under
        # it, so a racing thread's node wins consistently.
        node = type.__call__(cls, *args)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                existing = entry()
                if existing is not None:
                    self.hits += 1
                    return existing
            object.__setattr__(node, "_nid", self._next_id)
            self._next_id += 1
            self.misses += 1
            entry = _Entry(node, self._remove)
            entry.key = key
            self._entries[key] = entry
            return node

    @property
    def live(self) -> int:
        """Number of distinct nodes currently alive."""
        return len(self._entries)

    @property
    def created(self) -> int:
        """Distinct nodes ever built (== current miss total)."""
        return self._next_id


def _normalize(cls: type, args: tuple, kwargs: dict) -> tuple:
    """Full positional field tuple for a record call, applying
    declaration-order defaults — so ``EVar(3)``, ``EVar(3, "?")`` and
    ``EVar(uid=3)`` all intern to the same node."""
    names = cls.__match_args__
    if len(args) > len(names):
        raise TypeError(
            f"{cls.__name__}() takes {len(names)} arguments "
            f"but {len(args)} were given"
        )
    fields = cls.__dataclass_fields__  # type: ignore[attr-defined]
    values = list(args)
    for name in names[len(args) :]:
        if name in kwargs:
            values.append(kwargs.pop(name))
            continue
        spec = fields[name]
        if spec.default is not MISSING:
            values.append(spec.default)
        elif spec.default_factory is not MISSING:
            values.append(spec.default_factory())
        else:
            raise TypeError(
                f"{cls.__name__}() missing required argument: {name!r}"
            )
    if kwargs:
        unexpected = ", ".join(sorted(kwargs))
        raise TypeError(
            f"{cls.__name__}() got unexpected keyword argument(s): {unexpected}"
        )
    return tuple(values)


#: The per-process table shared by all interned classes.
TABLE = InternTable()


class Interned(type):
    """Metaclass routing every instantiation through :data:`TABLE`.

    Applying it to a (frozen, ``eq=False``) record makes the raw
    constructor itself hash-consing: ``IConst(3) is IConst(3)``.  No
    call site can bypass the table, which is what makes identity a
    sound replacement for structural equality.
    """

    def __call__(cls, *args: Any, **kwargs: Any) -> Any:
        return TABLE.canonical(cls, args, kwargs)


def reintern(node: Any) -> Any:
    """The canonical representative of ``node``.

    For any node built through an interned constructor this is the
    identity function (``reintern(t) is t``); it exists so tests can
    state the idempotence law, and as the rebuild hook ``__reduce__``
    uses to re-intern after unpickling."""
    cls = type(node)
    return cls(*[getattr(node, name) for name in cls.__match_args__])


# ---------------------------------------------------------------------------
# Memoization counters
# ---------------------------------------------------------------------------


class MemoCounter:
    """Hit/miss accounting for one per-node memoized function."""

    __slots__ = ("name", "hits", "misses")

    def __init__(self, name: str) -> None:
        self.name = name
        self.hits = 0
        self.misses = 0


_COUNTERS: dict[str, MemoCounter] = {}


def memo_counter(name: str) -> MemoCounter:
    """The (process-wide) counter for one memoized function."""
    counter = _COUNTERS.get(name)
    if counter is None:
        counter = _COUNTERS[name] = MemoCounter(name)
    return counter


def intern_stats() -> dict[str, Any]:
    """Snapshot of table occupancy and memo effectiveness (the
    ``indices.intern_hit_ratio`` metric of ``benchmarks/e2e`` reads
    it)."""
    return {
        "live": TABLE.live,
        "created": TABLE.created,
        "hits": TABLE.hits,
        "misses": TABLE.misses,
        "memo": {
            name: (counter.hits, counter.misses)
            for name, counter in sorted(_COUNTERS.items())
        },
    }
