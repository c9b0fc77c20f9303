"""Index sorts: ``gamma ::= int | bool | {a : gamma | b}``.

A subset sort ``{a : gamma | b}`` classifies the elements of ``gamma``
satisfying ``b``; ``nat`` abbreviates ``{a : int | a >= 0}``
(Section 2.2).  Sorts matter in two places: quantifier introduction
(binding an index variable contributes the sort's constraint as a
hypothesis) and existential witnesses (a witness must provably satisfy
the constraint).
"""

from __future__ import annotations


from repro.indices import terms
from repro.indices.terms import BOOL_SORT, INT_SORT, IndexTerm, IVar
from repro.records import record


class Sort:
    """Base class for index sorts."""

    __slots__ = ()

    def base(self) -> str:
        """The underlying base sort, ``int`` or ``bool``."""
        raise NotImplementedError

    def constraint_on(self, var: IndexTerm) -> IndexTerm:
        """The boolean index expressing membership of ``var``."""
        raise NotImplementedError


@record(frozen=True, slots=True)
class BaseSort(Sort):
    name: str  # "int" or "bool"

    def base(self) -> str:
        return self.name

    def constraint_on(self, var: IndexTerm) -> IndexTerm:
        return terms.TRUE

    def __str__(self) -> str:
        return self.name


@record(frozen=True, slots=True)
class SubsetSort(Sort):
    """``{var : parent | prop}`` — ``prop`` may mention ``var``."""

    var: str
    parent: Sort
    prop: IndexTerm

    def base(self) -> str:
        return self.parent.base()

    def constraint_on(self, target: IndexTerm) -> IndexTerm:
        own = terms.subst(self.prop, {self.var: target})
        return terms.band(self.parent.constraint_on(target), own)

    def __str__(self) -> str:
        return f"{{{self.var}:{self.parent} | {self.prop}}}"


INT = BaseSort(INT_SORT)
BOOL = BaseSort(BOOL_SORT)
NAT = SubsetSort("a", INT, terms.cmp(">=", IVar("a"), terms.ZERO))


def named_sort(name: str) -> Sort | None:
    """Resolve a sort name from the concrete syntax."""
    return {"int": INT, "bool": BOOL, "nat": NAT}.get(name)


def satisfies(value: int | bool, sort: Sort) -> bool:
    """Reference semantics: does ``value`` inhabit ``sort``?

    Used by the brute-force solver oracle and property tests.
    """
    if isinstance(sort, BaseSort):
        if sort.name == INT_SORT:
            return isinstance(value, int) and not isinstance(value, bool)
        return isinstance(value, bool)
    assert isinstance(sort, SubsetSort)
    if not satisfies(value, sort.parent):
        return False
    return bool(terms.evaluate(sort.prop, {sort.var: value}))
