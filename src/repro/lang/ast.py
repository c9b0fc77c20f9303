"""Surface abstract syntax for DML-lite.

The language covers the fragment of ML used by the paper's prototype:
recursion, higher-order functions, ML polymorphism (with the value
restriction), datatypes, pattern matching, and arrays — extended with
the paper's concrete dependent-type syntax:

* ``assert name <| ty`` for pervasive dependent signatures,
* ``typeref tycon of sorts with con <| ty | ...`` for datatype
  refinement,
* ``where name <| ty`` clauses giving the dependent types of
  (possibly local) recursive functions,
* ``{a:sort | guard} ty`` universal and ``[a:sort | guard] ty``
  existential dependent types.

Index expressions inside types reuse :class:`repro.indices.terms`
directly — the parser builds semantic index terms, so no separate
surface index AST is needed.
"""

from __future__ import annotations

from dataclasses import field
from typing import Optional

from repro.indices.sorts import Sort
from repro.indices.terms import IndexTerm
from repro.lang.source import DUMMY_SPAN, Span
from repro.records import record

# ---------------------------------------------------------------------------
# Surface types
# ---------------------------------------------------------------------------


@record
class SType:
    """Base class for surface type expressions."""

    span: Span = field(default=DUMMY_SPAN, kw_only=True)


@record
class STyVar(SType):
    """A type variable such as ``'a``."""

    name: str

    def __str__(self) -> str:
        return self.name


@record
class STyCon(SType):
    """``(ty1, ..., tyk) name (i1, ..., im)`` — a possibly indexed
    application of a type constructor; either argument list may be
    empty (``int``, ``int(n)``, ``'a array``, ``'a array(n)``...)."""

    name: str
    tyargs: list[SType] = field(default_factory=list)
    iargs: list[IndexTerm] = field(default_factory=list)

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


@record
class STyTuple(SType):
    """``ty1 * ... * tyn`` (n >= 2) or ``unit`` (n = 0)."""

    items: list[SType]

    def __str__(self) -> str:
        if not self.items:
            return "unit"
        return " * ".join(
            f"({t})" if isinstance(t, (STyTuple, STyArrow)) else str(t)
            for t in self.items
        )


@record
class STyArrow(SType):
    dom: SType
    cod: SType

    def __str__(self) -> str:
        dom = f"({self.dom})" if isinstance(self.dom, STyArrow) else str(self.dom)
        return f"{dom} -> {self.cod}"


@record
class Binder:
    """One index binder ``name : sort`` inside a quantifier."""

    name: str
    sort: Sort
    span: Span = field(default=DUMMY_SPAN, kw_only=True)

    def __str__(self) -> str:
        return f"{self.name}:{self.sort}"


@record
class STyPi(SType):
    """``{a1:s1, ..., ak:sk | guard} ty`` — dependent function space.

    ``guard`` is ``None`` when no ``|`` condition was written.
    """

    binders: list[Binder]
    guard: Optional[IndexTerm]
    body: SType

    def __str__(self) -> str:
        binders = ", ".join(str(b) for b in self.binders)
        guard = f" | {self.guard}" if self.guard is not None else ""
        return f"{{{binders}{guard}}} {self.body}"


@record
class STySig(SType):
    """``[a1:s1, ..., ak:sk | guard] ty`` — existential dependent type."""

    binders: list[Binder]
    guard: Optional[IndexTerm]
    body: SType

    def __str__(self) -> str:
        binders = ", ".join(str(b) for b in self.binders)
        guard = f" | {self.guard}" if self.guard is not None else ""
        return f"[{binders}{guard}] {self.body}"


# ---------------------------------------------------------------------------
# Patterns
# ---------------------------------------------------------------------------


@record
class Pattern:
    span: Span = field(default=DUMMY_SPAN, kw_only=True)


@record
class PWild(Pattern):
    def __str__(self) -> str:
        return "_"


@record
class PVar(Pattern):
    name: str

    def __str__(self) -> str:
        return self.name


@record
class PInt(Pattern):
    value: int

    def __str__(self) -> str:
        return str(self.value)


@record
class PBool(Pattern):
    value: bool

    def __str__(self) -> str:
        return "true" if self.value else "false"


@record
class PTuple(Pattern):
    items: list[Pattern]

    def __str__(self) -> str:
        return "(" + ", ".join(str(p) for p in self.items) + ")"


@record
class PCon(Pattern):
    """Constructor pattern; ``arg`` is ``None`` for nullary
    constructors.  ``x :: xs`` parses as ``PCon("::", PTuple([x, xs]))``."""

    name: str
    arg: Optional[Pattern] = None

    def __str__(self) -> str:
        if self.name == "::" and isinstance(self.arg, PTuple):
            head, tail = self.arg.items
            return f"({head} :: {tail})"
        if self.arg is None:
            return self.name
        return f"{self.name}({self.arg})"


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@record
class Expr:
    span: Span = field(default=DUMMY_SPAN, kw_only=True)


@record
class EInt(Expr):
    value: int

    def __str__(self) -> str:
        return str(self.value)


@record
class EBool(Expr):
    value: bool

    def __str__(self) -> str:
        return "true" if self.value else "false"


@record
class EUnit(Expr):
    def __str__(self) -> str:
        return "()"


@record
class EVar(Expr):
    name: str

    def __str__(self) -> str:
        return self.name


@record
class ECon(Expr):
    """A datatype constructor used as an expression."""

    name: str

    def __str__(self) -> str:
        return self.name


@record
class EApp(Expr):
    fn: Expr
    arg: Expr

    def __str__(self) -> str:
        return f"{self.fn} {_atom_str(self.arg)}"


@record
class ETuple(Expr):
    items: list[Expr]

    def __str__(self) -> str:
        return "(" + ", ".join(str(e) for e in self.items) + ")"


@record
class EIf(Expr):
    cond: Expr
    then: Expr
    els: Expr

    def __str__(self) -> str:
        return f"if {self.cond} then {self.then} else {self.els}"


@record
class EAndAlso(Expr):
    left: Expr
    right: Expr

    def __str__(self) -> str:
        return f"({self.left} andalso {self.right})"


@record
class EOrElse(Expr):
    left: Expr
    right: Expr

    def __str__(self) -> str:
        return f"({self.left} orelse {self.right})"


@record
class ELet(Expr):
    decls: list["Decl"]
    body: Expr

    def __str__(self) -> str:
        decls = " ".join(str(d) for d in self.decls)
        return f"let {decls} in {self.body} end"


@record
class ECase(Expr):
    scrutinee: Expr
    clauses: list[tuple[Pattern, Expr]]

    def __str__(self) -> str:
        arms = " | ".join(f"{p} => {e}" for p, e in self.clauses)
        return f"(case {self.scrutinee} of {arms})"


@record
class EFn(Expr):
    param: Pattern
    body: Expr

    def __str__(self) -> str:
        return f"(fn {self.param} => {self.body})"


@record
class ERaise(Expr):
    """``raise e`` — raises the exception value ``e`` (type ``exn``)."""

    expr: Expr

    def __str__(self) -> str:
        return f"raise {self.expr}"


@record
class EHandle(Expr):
    """``e handle p1 => e1 | ...`` — exception handler.

    An unmatched exception re-raises, as in SML.
    """

    expr: Expr
    clauses: list[tuple[Pattern, Expr]]

    def __str__(self) -> str:
        arms = " | ".join(f"{p} => {e}" for p, e in self.clauses)
        return f"({self.expr} handle {arms})"


@record
class ESeq(Expr):
    """``(e1; e2; ...; en)`` — evaluate all, yield the last value."""

    items: list[Expr]

    def __str__(self) -> str:
        return "(" + "; ".join(str(e) for e in self.items) + ")"


@record
class EAnnot(Expr):
    """``e : ty`` — a checking-mode type ascription."""

    expr: Expr
    ty: SType

    def __str__(self) -> str:
        return f"({self.expr} : {self.ty})"


def _atom_str(expr: Expr) -> str:
    if isinstance(expr, (EInt, EBool, EVar, ECon, ETuple, EUnit)):
        return str(expr)
    return f"({expr})"


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


@record
class Decl:
    span: Span = field(default=DUMMY_SPAN, kw_only=True)


@record
class Clause:
    """One ``fun`` clause: ``f p1 ... pk = body``.

    A tupled definition ``fun f(x, y) = e`` has a single tuple-pattern
    parameter; a curried one ``fun filter p nil = e`` has several.
    """

    params: list[Pattern]
    body: Expr
    span: Span = field(default=DUMMY_SPAN, kw_only=True)


@record
class FunBinding:
    """One binding of a (possibly mutually recursive) ``fun`` group."""

    name: str
    #: Explicitly scoped type variables: ``fun('a) f ...``.
    typarams: list[str]
    #: Explicitly scoped index binders: ``fun{size:nat} f ...``.
    ixparams: list[Binder]
    clauses: list[Clause]
    #: The dependent type from the ``where name <| ty`` clause.
    where_type: Optional[SType]
    span: Span = field(default=DUMMY_SPAN, kw_only=True)


@record
class DFun(Decl):
    bindings: list[FunBinding]

    def __str__(self) -> str:
        names = ", ".join(b.name for b in self.bindings)
        return f"fun {names} ..."


@record
class DVal(Decl):
    pat: Pattern
    expr: Expr
    #: Optional ``where`` / ascription type.
    where_type: Optional[SType] = None

    def __str__(self) -> str:
        return f"val {self.pat} = {self.expr}"


@record
class ConDef:
    """One constructor in a ``datatype`` declaration."""

    name: str
    arg: Optional[SType]
    span: Span = field(default=DUMMY_SPAN, kw_only=True)


@record
class DDatatype(Decl):
    name: str
    tyvars: list[str]
    constructors: list[ConDef]

    def __str__(self) -> str:
        return f"datatype {self.name}"


@record
class RefClause:
    """One ``con <| ty`` clause of a ``typeref`` declaration."""

    con: str
    ty: SType
    span: Span = field(default=DUMMY_SPAN, kw_only=True)


@record
class DTyperef(Decl):
    """``typeref 'a list of nat with nil <| ... | :: <| ...``."""

    tycon: str
    sorts: list[Sort]
    clauses: list[RefClause]

    def __str__(self) -> str:
        return f"typeref {self.tycon}"


@record
class DAssert(Decl):
    """``assert name <| ty and name2 <| ty2 ...`` — trusted dependent
    signatures for pervasives (Section 2.1)."""

    items: list[tuple[str, SType]]

    def __str__(self) -> str:
        names = ", ".join(name for name, _ in self.items)
        return f"assert {names}"


@record
class DException(Decl):
    """``exception Name [of ty]`` — declares a constructor of the
    built-in ``exn`` type (Section 6's first future-work item)."""

    name: str
    arg: Optional[SType] = None

    def __str__(self) -> str:
        return f"exception {self.name}"


@record
class DTypeAbbrev(Decl):
    """``type name = ty`` — a transparent abbreviation (Figure 5's
    ``intPrefix``)."""

    name: str
    ty: SType

    def __str__(self) -> str:
        return f"type {self.name} = {self.ty}"


@record
class Program:
    decls: list[Decl]
    span: Span = field(default=DUMMY_SPAN, kw_only=True)
