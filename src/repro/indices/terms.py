"""The index language of Section 2.2.

Type indices are integer and boolean expressions::

    i, j ::= a | i+j | i-j | i*j | div(i,j) | min(i,j) | max(i,j)
           | abs(i) | sgn(i) | mod(i,j)
    b    ::= a | false | true | i < j | i <= j | i = j | i <> j
           | i >= j | i > j | ~b | b1 /\\ b2 | b1 \\/ b2

Terms are immutable; existential (unification) variables are
represented by :class:`EVar` nodes whose solutions live in an external
:class:`EvarStore`, keeping the term language purely functional.

Terms are also *hash-consed* (:mod:`repro.indices.intern`): every
constructor call — including the raw dataclass calls below — returns
the unique interned node for its class and fields, so structural
equality coincides with identity, ``==``/``hash`` are O(1), and the
traversal results below (:func:`free_vars`, :func:`free_evars`, plus
:func:`repro.indices.linear.linearize`) are memoized once per distinct
node, process-wide.  Do not mutate nodes and do not bypass the
constructors (``object.__new__`` etc.) — every invariant in the solver
pipeline now leans on sharing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

from repro.indices.intern import Interned, memo_counter
from repro.lang.errors import EvalError

# ---------------------------------------------------------------------------
# Term constructors
# ---------------------------------------------------------------------------


class IndexTerm(metaclass=Interned):
    """Base class of all index expressions (integer- or boolean-sorted).

    Equality and hashing are *identity* (sound because construction is
    hash-consed).  The extra slots hold the node id and the lazily
    computed per-node memos; they are written at most once, via
    ``object.__setattr__``, and never invalidated (terms are
    immutable).
    """

    __slots__ = (
        "_nid",
        "_fv",
        "_fev",
        "_lin",
        "_atoms",
        "_elim",
        "_dnf",
        "__weakref__",
    )

    @property
    def nid(self) -> int:
        """Process-local unique node id (assigned at intern time)."""
        return self._nid  # type: ignore[attr-defined]

    def __reduce__(self):
        # Pickle/copy/deepcopy rebuild through the constructor, so a
        # round-trip re-interns: loads(dumps(t)) is t in-process, and
        # a fresh process gets its own canonical node.
        cls = type(self)
        return (cls, tuple(getattr(self, name) for name in cls.__match_args__))

    def __add__(self, other: "IndexTerm | int") -> "IndexTerm":
        return iadd(self, _coerce(other))

    def __radd__(self, other: int) -> "IndexTerm":
        return iadd(_coerce(other), self)

    def __sub__(self, other: "IndexTerm | int") -> "IndexTerm":
        return isub(self, _coerce(other))

    def __rsub__(self, other: int) -> "IndexTerm":
        return isub(_coerce(other), self)

    def __mul__(self, other: "IndexTerm | int") -> "IndexTerm":
        return imul(self, _coerce(other))

    def __rmul__(self, other: int) -> "IndexTerm":
        return imul(_coerce(other), self)


def _coerce(value: "IndexTerm | int") -> "IndexTerm":
    if isinstance(value, IndexTerm):
        return value
    return IConst(value)


@dataclass(frozen=True, slots=True, eq=False)
class IVar(IndexTerm):
    """A rigid (universally bound) index variable."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True, eq=False)
class EVar(IndexTerm):
    """An existential index variable awaiting a witness.

    ``uid`` makes evars unique; ``hint`` preserves the source name for
    readable constraint dumps (the paper writes them as capitalised
    variables, e.g. ``M`` and ``N`` in Section 3.1).
    """

    uid: int
    hint: str = "?"

    def __str__(self) -> str:
        return f"{self.hint}${self.uid}"


@dataclass(frozen=True, slots=True, eq=False)
class IConst(IndexTerm):
    value: int

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True, slots=True, eq=False)
class BinOp(IndexTerm):
    """Integer binary operator: ``+ - * div mod min max``."""

    op: str
    left: IndexTerm
    right: IndexTerm

    def __str__(self) -> str:
        if self.op in {"+", "-", "*"}:
            return f"({self.left} {self.op} {self.right})"
        return f"{self.op}({self.left}, {self.right})"


@dataclass(frozen=True, slots=True, eq=False)
class UnOp(IndexTerm):
    """Integer unary operator: ``neg abs sgn``."""

    op: str
    arg: IndexTerm

    def __str__(self) -> str:
        if self.op == "neg":
            return f"(-{self.arg})"
        return f"{self.op}({self.arg})"


@dataclass(frozen=True, slots=True, eq=False)
class BConst(IndexTerm):
    value: bool

    def __str__(self) -> str:
        return "true" if self.value else "false"


#: Comparison operators in surface syntax order.
CMP_OPS = ("<", "<=", "=", "<>", ">=", ">")

#: Negation table for comparison operators.
CMP_NEGATION = {"<": ">=", "<=": ">", "=": "<>", "<>": "=", ">=": "<", ">": "<="}

#: Operator obtained by swapping the two operands.
CMP_FLIP = {"<": ">", "<=": ">=", "=": "=", "<>": "<>", ">=": "<=", ">": "<"}


@dataclass(frozen=True, slots=True, eq=False)
class Cmp(IndexTerm):
    """Integer comparison yielding a boolean index."""

    op: str
    left: IndexTerm
    right: IndexTerm

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True, slots=True, eq=False)
class Not(IndexTerm):
    arg: IndexTerm

    def __str__(self) -> str:
        return f"not ({self.arg})"


@dataclass(frozen=True, slots=True, eq=False)
class And(IndexTerm):
    left: IndexTerm
    right: IndexTerm

    def __str__(self) -> str:
        return f"({self.left} /\\ {self.right})"


@dataclass(frozen=True, slots=True, eq=False)
class Or(IndexTerm):
    left: IndexTerm
    right: IndexTerm

    def __str__(self) -> str:
        return f"({self.left} \\/ {self.right})"


TRUE = BConst(True)
FALSE = BConst(False)
ZERO = IConst(0)
ONE = IConst(1)


# ---------------------------------------------------------------------------
# Smart constructors (light constant folding keeps dumps readable)
# ---------------------------------------------------------------------------


def iadd(left: IndexTerm, right: IndexTerm) -> IndexTerm:
    if isinstance(left, IConst) and isinstance(right, IConst):
        return IConst(left.value + right.value)
    if isinstance(left, IConst) and left.value == 0:
        return right
    if isinstance(right, IConst) and right.value == 0:
        return left
    return BinOp("+", left, right)


def isub(left: IndexTerm, right: IndexTerm) -> IndexTerm:
    if isinstance(left, IConst) and isinstance(right, IConst):
        return IConst(left.value - right.value)
    if isinstance(right, IConst) and right.value == 0:
        return left
    return BinOp("-", left, right)


def imul(left: IndexTerm, right: IndexTerm) -> IndexTerm:
    if isinstance(left, IConst) and isinstance(right, IConst):
        return IConst(left.value * right.value)
    if isinstance(left, IConst) and left.value == 1:
        return right
    if isinstance(right, IConst) and right.value == 1:
        return left
    if (isinstance(left, IConst) and left.value == 0) or (
        isinstance(right, IConst) and right.value == 0
    ):
        return ZERO
    return BinOp("*", left, right)


def idiv(left: IndexTerm, right: IndexTerm) -> IndexTerm:
    if (
        isinstance(left, IConst)
        and isinstance(right, IConst)
        and right.value != 0
    ):
        return IConst(_floor_div(left.value, right.value))
    return BinOp("div", left, right)


def imod(left: IndexTerm, right: IndexTerm) -> IndexTerm:
    if (
        isinstance(left, IConst)
        and isinstance(right, IConst)
        and right.value != 0
    ):
        return IConst(left.value - right.value * _floor_div(left.value, right.value))
    return BinOp("mod", left, right)


def imin(left: IndexTerm, right: IndexTerm) -> IndexTerm:
    if isinstance(left, IConst) and isinstance(right, IConst):
        return IConst(min(left.value, right.value))
    return BinOp("min", left, right)


def imax(left: IndexTerm, right: IndexTerm) -> IndexTerm:
    if isinstance(left, IConst) and isinstance(right, IConst):
        return IConst(max(left.value, right.value))
    return BinOp("max", left, right)


def ineg(arg: IndexTerm) -> IndexTerm:
    if isinstance(arg, IConst):
        return IConst(-arg.value)
    return UnOp("neg", arg)


def iabs(arg: IndexTerm) -> IndexTerm:
    if isinstance(arg, IConst):
        return IConst(abs(arg.value))
    return UnOp("abs", arg)


def isgn(arg: IndexTerm) -> IndexTerm:
    if isinstance(arg, IConst):
        return IConst((arg.value > 0) - (arg.value < 0))
    return UnOp("sgn", arg)


def cmp(op: str, left: IndexTerm, right: IndexTerm) -> IndexTerm:
    if op not in CMP_OPS:
        raise ValueError(f"unknown comparison operator {op!r}")
    if isinstance(left, IConst) and isinstance(right, IConst):
        return BConst(_eval_cmp(op, left.value, right.value))
    return Cmp(op, left, right)


def bnot(arg: IndexTerm) -> IndexTerm:
    if isinstance(arg, BConst):
        return BConst(not arg.value)
    if isinstance(arg, Not):
        return arg.arg
    if isinstance(arg, Cmp):
        return Cmp(CMP_NEGATION[arg.op], arg.left, arg.right)
    return Not(arg)


def band(left: IndexTerm, right: IndexTerm) -> IndexTerm:
    if isinstance(left, BConst):
        return right if left.value else FALSE
    if isinstance(right, BConst):
        return left if right.value else FALSE
    return And(left, right)


def bor(left: IndexTerm, right: IndexTerm) -> IndexTerm:
    if isinstance(left, BConst):
        return TRUE if left.value else right
    if isinstance(right, BConst):
        return TRUE if right.value else left
    return Or(left, right)


def conj(parts: list[IndexTerm]) -> IndexTerm:
    """Conjunction of a possibly empty list of boolean indices."""
    result: IndexTerm = TRUE
    for part in parts:
        result = band(result, part)
    return result


# ---------------------------------------------------------------------------
# Generic traversals
# ---------------------------------------------------------------------------


def children(term: IndexTerm) -> tuple[IndexTerm, ...]:
    """Immediate subterms of an index term."""
    if isinstance(term, (BinOp, Cmp, And, Or)):
        return (term.left, term.right)
    if isinstance(term, (UnOp, Not)):
        return (term.arg,)
    return ()


def subterms(term: IndexTerm) -> Iterator[IndexTerm]:
    """Pre-order iterator over all subterms (including ``term``).

    With hash-consing this walks the term as a DAG-shaped tree: shared
    nodes are yielded once per *occurrence*, preserving the historical
    multiset semantics."""
    stack = [term]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(children(node))


_EMPTY_STRS: frozenset[str] = frozenset()
_EMPTY_EVARS: "frozenset[EVar]" = frozenset()
_FV_MEMO = memo_counter("free_vars")
_FEV_MEMO = memo_counter("free_evars")


def free_vars(term: IndexTerm) -> frozenset[str]:
    """Names of all rigid variables occurring in ``term``.

    Memoized once per interned node (``_fv`` slot)."""
    try:
        cached = term._fv  # type: ignore[attr-defined]
        _FV_MEMO.hits += 1
        return cached
    except AttributeError:
        _FV_MEMO.misses += 1
    if isinstance(term, IVar):
        result = frozenset((term.name,))
    else:
        result = _EMPTY_STRS
        for kid in children(term):
            kid_vars = free_vars(kid)
            if kid_vars:
                result = result | kid_vars if result else kid_vars
    object.__setattr__(term, "_fv", result)
    return result


def free_evars(term: IndexTerm) -> "frozenset[EVar]":
    """All existential variables occurring in ``term``.

    Memoized once per interned node (``_fev`` slot)."""
    try:
        cached = term._fev  # type: ignore[attr-defined]
        _FEV_MEMO.hits += 1
        return cached
    except AttributeError:
        _FEV_MEMO.misses += 1
    if isinstance(term, EVar):
        result = frozenset((term,))
    else:
        result = _EMPTY_EVARS
        for kid in children(term):
            kid_evars = free_evars(kid)
            if kid_evars:
                result = result | kid_evars if result else kid_evars
    object.__setattr__(term, "_fev", result)
    return result


def _rebuild(term: IndexTerm, new_children: tuple[IndexTerm, ...]) -> IndexTerm:
    if isinstance(term, BinOp):
        return BinOp(term.op, *new_children)
    if isinstance(term, UnOp):
        return UnOp(term.op, new_children[0])
    if isinstance(term, Cmp):
        return Cmp(term.op, *new_children)
    if isinstance(term, Not):
        return Not(new_children[0])
    if isinstance(term, And):
        return And(*new_children)
    if isinstance(term, Or):
        return Or(*new_children)
    raise AssertionError(f"not a compound term: {term!r}")


def transform(term: IndexTerm, fn: Callable[[IndexTerm], IndexTerm | None]) -> IndexTerm:
    """Bottom-up rewrite: ``fn`` may return a replacement or ``None``."""
    kids = children(term)
    if kids:
        new_kids = tuple(transform(kid, fn) for kid in kids)
        if new_kids != kids:
            term = _rebuild(term, new_kids)
    replacement = fn(term)
    return term if replacement is None else replacement


def subst(term: IndexTerm, mapping: Mapping[str, IndexTerm]) -> IndexTerm:
    """Capture-free substitution of rigid variables (index terms bind
    no variables, so capture cannot occur).

    Subtrees whose memoized :func:`free_vars` are disjoint from the
    mapping are returned unchanged — the identity short-circuit — so a
    substitution touches only the spine above actual occurrences."""
    if not mapping:
        return term
    targets = frozenset(mapping)

    def go(node: IndexTerm) -> IndexTerm:
        if free_vars(node).isdisjoint(targets):
            return node
        if isinstance(node, IVar):
            return mapping.get(node.name, node)
        return _rebuild(node, tuple(go(kid) for kid in children(node)))

    return go(term)


def subst_evars(term: IndexTerm, mapping: Mapping[EVar, IndexTerm]) -> IndexTerm:
    """Substitute solved existential variables (with the same identity
    short-circuit as :func:`subst`, over :func:`free_evars`)."""
    if not mapping:
        return term
    targets = frozenset(mapping)

    def go(node: IndexTerm) -> IndexTerm:
        if free_evars(node).isdisjoint(targets):
            return node
        if isinstance(node, EVar):
            return mapping.get(node, node)
        return _rebuild(node, tuple(go(kid) for kid in children(node)))

    return go(term)


def rename(term: IndexTerm, mapping: Mapping[str, str]) -> IndexTerm:
    """Rename rigid variables."""
    return subst(term, {old: IVar(new) for old, new in mapping.items()})


# ---------------------------------------------------------------------------
# Evaluation (reference semantics; used by the brute-force oracle and
# the property-based tests)
# ---------------------------------------------------------------------------


def _floor_div(a: int, b: int) -> int:
    # Python's // is already floor division, matching SML's div.
    return a // b


def _eval_cmp(op: str, a: int, b: int) -> bool:
    if op == "<":
        return a < b
    if op == "<=":
        return a <= b
    if op == "=":
        return a == b
    if op == "<>":
        return a != b
    if op == ">=":
        return a >= b
    return a > b


def evaluate(term: IndexTerm, env: Mapping[str, int | bool]) -> int | bool:
    """Evaluate an index term under an assignment of its variables.

    Raises :class:`EvalError` on division by zero or an unbound
    variable, mirroring the partiality of the index semantics.
    """
    if isinstance(term, IConst):
        return term.value
    if isinstance(term, BConst):
        return term.value
    if isinstance(term, IVar):
        if term.name not in env:
            raise EvalError(f"unbound index variable {term.name}")
        return env[term.name]
    if isinstance(term, EVar):
        raise EvalError(f"cannot evaluate unsolved existential variable {term}")
    if isinstance(term, BinOp):
        a = evaluate(term.left, env)
        b = evaluate(term.right, env)
        assert isinstance(a, int) and isinstance(b, int)
        if term.op == "+":
            return a + b
        if term.op == "-":
            return a - b
        if term.op == "*":
            return a * b
        if term.op == "div":
            if b == 0:
                raise EvalError("division by zero in index term")
            return _floor_div(a, b)
        if term.op == "mod":
            if b == 0:
                raise EvalError("modulo by zero in index term")
            return a - b * _floor_div(a, b)
        if term.op == "min":
            return min(a, b)
        if term.op == "max":
            return max(a, b)
        raise AssertionError(f"unknown binop {term.op}")
    if isinstance(term, UnOp):
        a = evaluate(term.arg, env)
        assert isinstance(a, int)
        if term.op == "neg":
            return -a
        if term.op == "abs":
            return abs(a)
        if term.op == "sgn":
            return (a > 0) - (a < 0)
        raise AssertionError(f"unknown unop {term.op}")
    if isinstance(term, Cmp):
        a = evaluate(term.left, env)
        b = evaluate(term.right, env)
        assert isinstance(a, int) and isinstance(b, int)
        return _eval_cmp(term.op, a, b)
    if isinstance(term, Not):
        return not evaluate(term.arg, env)
    if isinstance(term, And):
        return bool(evaluate(term.left, env)) and bool(evaluate(term.right, env))
    if isinstance(term, Or):
        return bool(evaluate(term.left, env)) or bool(evaluate(term.right, env))
    raise AssertionError(f"unknown index term {term!r}")


# ---------------------------------------------------------------------------
# Sort inference over raw terms
# ---------------------------------------------------------------------------

INT_SORT = "int"
BOOL_SORT = "bool"


def sort_of(term: IndexTerm, var_sorts: Mapping[str, str] | None = None) -> str:
    """Infer the base sort (``int`` or ``bool``) of an index term.

    ``var_sorts`` gives the sorts of rigid variables; variables default
    to ``int`` (the common case — boolean index variables only arise
    from ``bool(b)`` singletons).
    """
    sorts = var_sorts or {}
    if isinstance(term, (IConst, BinOp, UnOp)):
        return INT_SORT
    if isinstance(term, (BConst, Cmp, Not, And, Or)):
        return BOOL_SORT
    if isinstance(term, IVar):
        return sorts.get(term.name, INT_SORT)
    if isinstance(term, EVar):
        return INT_SORT
    raise AssertionError(f"unknown index term {term!r}")


class EvarStore:
    """Allocation and solution store for existential index variables.

    Each evar records the set of rigid variables that were in scope at
    its creation: a solution may only mention those (the scope check of
    Section 3.1's existential-variable elimination).
    """

    def __init__(self) -> None:
        self._next_uid = 0
        self._solutions: dict[EVar, IndexTerm] = {}
        self._scopes: dict[EVar, frozenset[str]] = {}

    def fresh(self, hint: str, scope: set[str] | frozenset[str]) -> EVar:
        evar = EVar(self._next_uid, hint)
        self._next_uid += 1
        self._scopes[evar] = frozenset(scope)
        return evar

    def scope(self, evar: EVar) -> frozenset[str]:
        return self._scopes.get(evar, frozenset())

    def is_solved(self, evar: EVar) -> bool:
        return evar in self._solutions

    def solve(self, evar: EVar, term: IndexTerm) -> bool:
        """Record ``evar := term`` if admissible; return success.

        Admissible means: not already solved, no occurrence of ``evar``
        in ``term`` (after resolution), and every rigid variable of the
        resolved ``term`` lies in the evar's scope.
        """
        if evar in self._solutions:
            return False
        resolved = self.resolve(term)
        if evar in free_evars(resolved):
            return False
        if not free_vars(resolved) <= self._scopes.get(evar, frozenset()):
            return False
        self._solutions[evar] = resolved
        return True

    def resolve(self, term: IndexTerm) -> IndexTerm:
        """Substitute all solved evars, to a fixed point.

        The common case — a term whose evars are all unsolved, or a
        fully resolved term revisited — costs one memoized
        :func:`free_evars` lookup and no rebuilding."""
        while True:
            solved: dict[EVar, IndexTerm] | None = None
            for ev in free_evars(term):
                if ev in self._solutions:
                    if solved is None:
                        solved = {}
                    solved[ev] = self._solutions[ev]
            if not solved:
                return term
            term = subst_evars(term, solved)

    def snapshot(self) -> "EvarStore":
        """An independent copy of the current allocation/solution state.

        The parallel driver hands each in-flight proof goal a snapshot
        taken at the same pipeline point where the sequential checker
        would have proved it, so later evar solutions (or concurrent
        ones) cannot change its verdict.  Terms are immutable; only the
        dictionaries need copying.
        """
        copy = EvarStore()
        copy._next_uid = self._next_uid
        copy._solutions = dict(self._solutions)
        copy._scopes = dict(self._scopes)
        return copy

    @property
    def solutions(self) -> dict[EVar, IndexTerm]:
        return dict(self._solutions)

    @property
    def created_count(self) -> int:
        return self._next_uid

    @property
    def solved_count(self) -> int:
        return len(self._solutions)

    def unsolved_in(self, term: IndexTerm) -> set[EVar]:
        return {ev for ev in free_evars(self.resolve(term)) if ev not in self._solutions}
