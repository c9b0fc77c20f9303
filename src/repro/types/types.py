"""The dependent type language (Section 2.2).

    types tau ::= alpha | (tau1, ..., taun) delta (d1, ..., dk)
                | tau1 * ... * taun | tau1 -> tau2
                | Pi a : gamma . tau | Sigma a : gamma . tau

Representation decisions:

* Base families are always *fully indexed*: the surface type ``int``
  (without an index) is normalized to ``Sigma i:int. int(i)`` at
  conversion time, implementing the paper's "indices may be omitted in
  types, in which case they are interpreted existentially".
* ``Pi``/``Sigma`` bind a *group* of index variables with one optional
  guard, mirroring the concrete syntax ``{a:g, b:g | cond} tau``.
* :class:`DMeta` is a unification variable over *types*, used by the
  elaborator to instantiate ML polymorphism; its solutions live in a
  :class:`MetaStore` so types stay immutable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Mapping

from repro.indices import terms
from repro.indices.sorts import Sort
from repro.indices.terms import IndexTerm
from repro.types import map_items


class DType:
    """Base class of dependent types."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class DTyVar(DType):
    """A rigid type variable (``'a``), bound by a :class:`DScheme`."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class DMeta(DType):
    """A type unification variable introduced at instantiation."""

    uid: int
    hint: str = "'?"

    def __str__(self) -> str:
        return f"{self.hint}${self.uid}"


@dataclass(frozen=True, slots=True)
class DBase(DType):
    """``(tyargs) name (iargs)`` — an indexed base-family application."""

    name: str
    tyargs: tuple[DType, ...] = ()
    iargs: tuple[IndexTerm, ...] = ()

    def __str__(self) -> str:
        prefix = ""
        if len(self.tyargs) == 1:
            prefix = f"{self.tyargs[0]} "
        elif self.tyargs:
            prefix = "(" + ", ".join(str(t) for t in self.tyargs) + ") "
        suffix = ""
        if self.iargs:
            suffix = "(" + ", ".join(str(i) for i in self.iargs) + ")"
        return f"{prefix}{self.name}{suffix}"


@dataclass(frozen=True, slots=True)
class DTuple(DType):
    items: tuple[DType, ...] = ()

    def __str__(self) -> str:
        if not self.items:
            return "unit"
        return " * ".join(
            f"({t})" if isinstance(t, (DTuple, DArrow)) else str(t)
            for t in self.items
        )


UNIT = DTuple(())


@dataclass(frozen=True, slots=True)
class DArrow(DType):
    dom: DType
    cod: DType

    def __str__(self) -> str:
        dom = f"({self.dom})" if isinstance(self.dom, DArrow) else str(self.dom)
        return f"{dom} -> {self.cod}"


@dataclass(frozen=True, slots=True)
class DPi(DType):
    """``{a1:s1, ..., ak:sk | guard} body``."""

    binders: tuple[tuple[str, Sort], ...]
    guard: IndexTerm
    body: DType

    def __str__(self) -> str:
        binders = ", ".join(f"{n}:{s}" for n, s in self.binders)
        guard = "" if _is_true(self.guard) else f" | {self.guard}"
        return f"{{{binders}{guard}}} {self.body}"


@dataclass(frozen=True, slots=True)
class DSig(DType):
    """``[a1:s1, ..., ak:sk | guard] body``."""

    binders: tuple[tuple[str, Sort], ...]
    guard: IndexTerm
    body: DType

    def __str__(self) -> str:
        binders = ", ".join(f"{n}:{s}" for n, s in self.binders)
        guard = "" if _is_true(self.guard) else f" | {self.guard}"
        return f"[{binders}{guard}] {self.body}"


@dataclass(frozen=True, slots=True)
class DScheme:
    """ML-style polymorphism: ``forall 'a1 ... 'an . tau``."""

    tyvars: tuple[str, ...]
    body: DType

    def __str__(self) -> str:
        if not self.tyvars:
            return str(self.body)
        vars_text = " ".join(self.tyvars)
        return f"forall {vars_text}. {self.body}"


def _is_true(term: IndexTerm) -> bool:
    return isinstance(term, terms.BConst) and term.value


# ---------------------------------------------------------------------------
# Traversals
# ---------------------------------------------------------------------------


def subtypes(ty: DType) -> Iterator[DType]:
    """Pre-order iterator over a type's sub-types."""
    stack = [ty]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, DBase):
            stack.extend(node.tyargs)
        elif isinstance(node, DTuple):
            stack.extend(node.items)
        elif isinstance(node, DArrow):
            stack.append(node.dom)
            stack.append(node.cod)
        elif isinstance(node, (DPi, DSig)):
            stack.append(node.body)


def free_metas(ty: DType) -> set[DMeta]:
    return {node for node in subtypes(ty) if isinstance(node, DMeta)}


def free_tyvars(ty: DType) -> set[str]:
    return {node.name for node in subtypes(ty) if isinstance(node, DTyVar)}


def free_index_vars(ty: DType) -> set[str]:
    """Free index variables of a type (bound ones excluded)."""
    result: set[str] = set()

    def walk(node: DType, bound: frozenset[str]) -> None:
        if isinstance(node, DBase):
            for iarg in node.iargs:
                result.update(terms.free_vars(iarg) - bound)
            for tyarg in node.tyargs:
                walk(tyarg, bound)
        elif isinstance(node, DTuple):
            for item in node.items:
                walk(item, bound)
        elif isinstance(node, DArrow):
            walk(node.dom, bound)
            walk(node.cod, bound)
        elif isinstance(node, (DPi, DSig)):
            inner = bound | {name for name, _ in node.binders}
            result.update(terms.free_vars(node.guard) - inner)
            walk(node.body, inner)

    walk(ty, frozenset())
    return result


def subst_index(ty: DType, mapping: Mapping[str, IndexTerm]) -> DType:
    """Substitute index variables throughout a type, respecting binders.

    Returns ``ty`` itself when no substitution applies anywhere in it."""
    if not mapping:
        return ty
    if isinstance(ty, (DTyVar, DMeta)):
        return ty
    if isinstance(ty, DBase):
        tyargs = map_items(lambda t: subst_index(t, mapping), ty.tyargs)
        iargs = map_items(lambda i: terms.subst(i, mapping), ty.iargs)
        if tyargs is ty.tyargs and iargs is ty.iargs:
            return ty
        return DBase(ty.name, tyargs, iargs)
    if isinstance(ty, DTuple):
        items = map_items(lambda t: subst_index(t, mapping), ty.items)
        return ty if items is ty.items else DTuple(items)
    if isinstance(ty, DArrow):
        dom = subst_index(ty.dom, mapping)
        cod = subst_index(ty.cod, mapping)
        if dom is ty.dom and cod is ty.cod:
            return ty
        return DArrow(dom, cod)
    if isinstance(ty, (DPi, DSig)):
        inner = {k: v for k, v in mapping.items()
                 if k not in {name for name, _ in ty.binders}}
        guard = terms.subst(ty.guard, inner)
        body = subst_index(ty.body, inner)
        if guard is ty.guard and body is ty.body:
            return ty
        return type(ty)(ty.binders, guard, body)
    raise AssertionError(f"unknown type {ty!r}")


def subst_tyvars(ty: DType, mapping: Mapping[str, DType]) -> DType:
    """Substitute type variables (scheme instantiation).

    Returns ``ty`` itself when no substitution applies anywhere in it."""
    if not mapping:
        return ty
    if isinstance(ty, DTyVar):
        return mapping.get(ty.name, ty)
    if isinstance(ty, DMeta):
        return ty
    if isinstance(ty, DBase):
        tyargs = map_items(lambda t: subst_tyvars(t, mapping), ty.tyargs)
        return ty if tyargs is ty.tyargs else DBase(ty.name, tyargs, ty.iargs)
    if isinstance(ty, DTuple):
        items = map_items(lambda t: subst_tyvars(t, mapping), ty.items)
        return ty if items is ty.items else DTuple(items)
    if isinstance(ty, DArrow):
        dom = subst_tyvars(ty.dom, mapping)
        cod = subst_tyvars(ty.cod, mapping)
        if dom is ty.dom and cod is ty.cod:
            return ty
        return DArrow(dom, cod)
    if isinstance(ty, (DPi, DSig)):
        body = subst_tyvars(ty.body, mapping)
        return ty if body is ty.body else type(ty)(ty.binders, ty.guard, body)
    raise AssertionError(f"unknown type {ty!r}")


_rename_counter = itertools.count(1)


def rename_binders_fresh(
    binders: tuple[tuple[str, Sort], ...],
    guard: IndexTerm,
    body: DType,
    taken: set[str],
) -> tuple[list[tuple[str, Sort]], IndexTerm, DType]:
    """Freshen quantifier-bound index variables away from ``taken``.

    Subset sorts may mention *earlier* binders of the same group (rare
    but legal); those occurrences are renamed too.
    """
    mapping: dict[str, IndexTerm] = {}
    fresh_binders: list[tuple[str, Sort]] = []
    for name, sort in binders:
        sort = _subst_sort(sort, mapping)
        if name in taken:
            fresh = f"{name}#{next(_rename_counter)}"
            mapping[name] = terms.IVar(fresh)
            fresh_binders.append((fresh, sort))
        else:
            fresh_binders.append((name, sort))
            taken = taken | {name}
    return (
        fresh_binders,
        terms.subst(guard, mapping),
        subst_index(body, mapping),
    )


def _subst_sort(sort: Sort, mapping: Mapping[str, IndexTerm]) -> Sort:
    from repro.indices.sorts import BaseSort, SubsetSort

    if isinstance(sort, BaseSort) or not mapping:
        return sort
    assert isinstance(sort, SubsetSort)
    inner = {k: v for k, v in mapping.items() if k != sort.var}
    return SubsetSort(sort.var, _subst_sort(sort.parent, inner), terms.subst(sort.prop, inner))


class MetaStore:
    """Allocation and solution store for type metavariables."""

    def __init__(self) -> None:
        self._next_uid = 0
        self._solutions: dict[DMeta, DType] = {}

    def fresh(self, hint: str = "'?") -> DMeta:
        meta = DMeta(self._next_uid, hint)
        self._next_uid += 1
        return meta

    def is_solved(self, meta: DMeta) -> bool:
        return meta in self._solutions

    def solve(self, meta: DMeta, ty: DType) -> bool:
        if meta in self._solutions:
            return False
        resolved = self.resolve(ty)
        if meta in free_metas(resolved):
            return False  # occurs check
        self._solutions[meta] = resolved
        return True

    def resolve(self, ty: DType) -> DType:
        """Substitute solved metas throughout, to a fixed point.

        Returns ``ty`` itself when no solved meta occurs in it."""
        if not self._solutions:
            return ty
        if isinstance(ty, DBase):
            if not ty.tyargs:
                return ty
            tyargs = map_items(self.resolve, ty.tyargs)
            return ty if tyargs is ty.tyargs else DBase(ty.name, tyargs, ty.iargs)
        if isinstance(ty, DMeta):
            solution = self._solutions.get(ty)
            return ty if solution is None else self.resolve(solution)
        if isinstance(ty, DTyVar):
            return ty
        if isinstance(ty, DTuple):
            items = map_items(self.resolve, ty.items)
            return ty if items is ty.items else DTuple(items)
        if isinstance(ty, DArrow):
            dom = self.resolve(ty.dom)
            cod = self.resolve(ty.cod)
            if dom is ty.dom and cod is ty.cod:
                return ty
            return DArrow(dom, cod)
        if isinstance(ty, (DPi, DSig)):
            body = self.resolve(ty.body)
            return ty if body is ty.body else type(ty)(ty.binders, ty.guard, body)
        raise AssertionError(f"unknown type {ty!r}")


# ---------------------------------------------------------------------------
# Common constructors
# ---------------------------------------------------------------------------


def int_of(index: IndexTerm) -> DBase:
    return DBase("int", (), (index,))


def bool_of(index: IndexTerm) -> DBase:
    return DBase("bool", (), (index,))


def array_of(elem: DType, size: IndexTerm) -> DBase:
    return DBase("array", (elem,), (size,))


def list_of(elem: DType, length: IndexTerm) -> DBase:
    return DBase("list", (elem,), (length,))


def some_int(hint: str = "i") -> DSig:
    """``[i:int] int(i)`` — the type ``int`` without an index."""
    from repro.indices.sorts import INT

    return DSig(((hint, INT),), terms.TRUE, int_of(terms.IVar(hint)))


def some_bool(hint: str = "b") -> DSig:
    from repro.indices.sorts import BOOL

    return DSig(((hint, BOOL),), terms.TRUE, bool_of(terms.IVar(hint)))
