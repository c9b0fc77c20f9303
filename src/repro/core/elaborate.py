"""Phase 2: bidirectional dependent elaboration (Section 3).

The second traversal walks the (phase-1-annotated) program with the
dependent signatures in scope and collects index constraints:

* applying a ``Pi``-typed function instantiates its index binders with
  fresh existential variables and emits the binder-sort memberships and
  the guard as proof obligations — for ``sub`` these are exactly
  ``0 <= i`` and ``i < n``, the array bound conditions;
* pattern matching against refined constructors, ``if``/``case`` on
  singleton booleans, and quantifier guards all contribute *hypotheses*
  — this is how ``if i = n then ... else ...`` refines the else branch
  with ``i <> n``;
* existential variables are solved eagerly by scope-checked equations
  (Section 3.1's elimination), with :func:`repro.solver.simplify`
  mopping up stragglers.

Constraint scoping uses a *frame* discipline: entering a clause, a
branch, or a quantifier pushes a frame; introductions (universal index
variables, hypotheses) recorded in a frame wrap every constraint
generated later in that frame, which keeps types mentioning freshly
opened existential witnesses well-scoped for the rest of the block.

This phase is the heaviest producer and consumer of index terms; it
leans on the interned IR throughout — ``terms.subst``/``subst_evars``
short-circuit on memoized free-variable sets (substituting into a
subtree that cannot mention the target returns the *same* node), and
every structurally repeated guard or bound condition across clauses
is one shared object, not a fresh tree.

Types are inspected, not rebuilt:

* solved type metas are followed at the head only
  (:meth:`~repro.types.types.MetaStore.head`), and equality is
  :meth:`~repro.types.types.MetaStore.same`; a type is fully resolved
  only where all of it is consumed (error messages, escaping rigid
  variables, a meta's generalization, ``MetaStore.solve``);
* an application instantiates all of the callee's leading Pi layers
  into one binder -> evar environment, and :meth:`Elaborator.subtype`
  reads the parameter type under it — a Sigma on the right extends it
  the same way — so only the codomain is ever substituted.  A meta's
  solution lies outside the binders' scope, so the environment never
  reaches into it;
* the rigid scope an evar records is one frozenset snapshot, rebuilt
  only after an ``intro`` or a ``pop``.

Nothing of this outlives one check.
"""

from __future__ import annotations

import itertools
from dataclasses import field

from repro.core import tyconv
from repro.core.env import CHECK_SITES, GUARDED_OPS, GlobalEnv, ValueKind
from repro.core.lift import lift_scheme, lift_type
from repro.indices import constraints as cs
from repro.indices import terms
from repro.indices.sorts import INT, Sort
from repro.indices.terms import EvarStore, IVar, IndexTerm
from repro.lang import ast
from repro.lang.errors import ElabError
from repro.lang.source import Span
from repro.records import record
from repro.types import map_items
from repro.types import types as dt
from repro.types.types import DType, MetaStore


@record
class SiteInfo:
    """One eliminable check site (an application of sub/update/nth/...)."""

    site_id: str
    op: str
    kind: str  # "bound" or "tag"
    span: Span


@record
class DeclConstraint:
    """The constraint tree generated for one top-level declaration."""

    decl: ast.Decl
    constraint: cs.Constraint


@record
class ReachabilityProbe:
    """A branch point whose hypotheses might be contradictory.

    If the recorded hypotheses prove False, the branch is dead code by
    the index invariants (e.g. a nil clause for a list the types say is
    non-empty) — reported as a warning, never an error.
    """

    span: Span
    what: str  # "case clause" or "then branch" / "else branch"
    rigid: dict[str, Sort]
    hyps: list[IndexTerm]


@record
class ExhaustivenessProbe:
    """A value shape a ``case`` does not cover.

    The dual of :class:`ReachabilityProbe`: the match is still
    exhaustive if the recorded hypotheses (the scrutinee taking the
    missing shape) prove False — e.g. omitting the ``nil`` arm is fine
    when the list's length index is provably positive.  If they do
    *not* refute, the missing shape is reported as a warning.
    """

    span: Span
    missing: str  # constructor name or literal description
    rigid: dict[str, Sort]
    hyps: list[IndexTerm]


@record
class ElabResult:
    """Everything phase 2 produces for a program."""

    program: ast.Program
    env: GlobalEnv
    store: EvarStore
    decl_constraints: list[DeclConstraint] = field(default_factory=list)
    sites: dict[str, SiteInfo] = field(default_factory=dict)
    probes: list[ReachabilityProbe] = field(default_factory=list)
    coverage: list[ExhaustivenessProbe] = field(default_factory=list)

    @property
    def constraint(self) -> cs.Constraint:
        return cs.conj([dc.constraint for dc in self.decl_constraints])

    def count_constraints(self) -> int:
        return cs.count_props(self.constraint)


# ---------------------------------------------------------------------------
# Constraint collection with lexical frames
# ---------------------------------------------------------------------------

_INTRO = "intro"
_HYP = "hyp"
_SUB = "sub"


class Collector:
    """Accumulates constraints under nested introductions."""

    def __init__(self) -> None:
        self.frames: list[list[tuple]] = [[]]
        self.rigid: dict[str, Sort] = {}
        self._frame_intros: list[list[str]] = [[]]
        self._scope: frozenset[str] | None = frozenset()

    def push(self) -> None:
        self.frames.append([])
        self._frame_intros.append([])

    def pop(self) -> cs.Constraint:
        events = self.frames.pop()
        intros = self._frame_intros.pop()
        for name in intros:
            del self.rigid[name]
        if intros:
            self._scope = None
        acc: cs.Constraint = cs.TRUE
        for tag, payload in reversed(events):
            if tag == _SUB:
                acc = cs.cand(payload, acc)
            elif tag == _HYP:
                acc = cs.guard(payload, acc)
            else:  # intro
                name, sort = payload
                acc = cs.forall(name, sort, acc)
        return acc

    def pop_into_parent(self) -> None:
        constraint = self.pop()
        self.embed(constraint)

    def intro(self, name: str, sort: Sort) -> None:
        assert name not in self.rigid, f"duplicate rigid {name}"
        self.rigid[name] = sort
        self._scope = None
        self.frames[-1].append((_INTRO, (name, sort)))
        self._frame_intros[-1].append(name)

    def hyp(self, prop: IndexTerm) -> None:
        if isinstance(prop, terms.BConst) and prop.value:
            return
        self.frames[-1].append((_HYP, prop))

    def oblige(self, prop: IndexTerm, origin: str, span: Span) -> None:
        if isinstance(prop, terms.BConst) and prop.value:
            return
        self.embed(cs.CProp(prop, origin, span))

    def embed(self, constraint: cs.Constraint) -> None:
        if isinstance(constraint, cs.CTrue):
            return
        self.frames[-1].append((_SUB, constraint))

    def scope_names(self) -> frozenset[str]:
        """The rigid variables in scope: one snapshot, shared until the
        next ``intro`` or ``pop`` changes them."""
        if self._scope is None:
            self._scope = frozenset(self.rigid)
        return self._scope

    def snapshot(self) -> tuple[dict[str, Sort], list[IndexTerm]]:
        """The rigid variables and hypotheses currently in scope, for
        reachability probing."""
        hyps = [
            payload
            for frame in self.frames
            for tag, payload in frame
            if tag == _HYP
        ]
        return dict(self.rigid), hyps


# ---------------------------------------------------------------------------
# Value scope
# ---------------------------------------------------------------------------


class _Values:
    def __init__(self) -> None:
        self.frames: list[dict[str, dt.DScheme]] = [{}]

    def push(self) -> None:
        self.frames.append({})

    def pop(self) -> None:
        self.frames.pop()

    def bind(self, name: str, scheme: dt.DScheme) -> None:
        self.frames[-1][name] = scheme

    def bind_mono(self, name: str, ty: DType) -> None:
        self.bind(name, dt.DScheme((), ty))

    def lookup(self, name: str) -> dt.DScheme | None:
        for frame in reversed(self.frames):
            if name in frame:
                return frame[name]
        return None


# ---------------------------------------------------------------------------
# The elaborator
# ---------------------------------------------------------------------------

#: An instantiation environment: binder name -> the evar chosen for it.
Env = dict[str, IndexTerm]


class Elaborator:
    def __init__(self, env: GlobalEnv, store: EvarStore | None = None) -> None:
        self.env = env
        self.store = store or EvarStore()
        self.metas = MetaStore()
        self.col = Collector()
        self.values = _Values()
        self.sites: dict[str, SiteInfo] = {}
        self.probes: list[ReachabilityProbe] = []
        self.coverage: list[ExhaustivenessProbe] = []
        self._site_counter = itertools.count(1)
        # Per elaboration, so a program's fresh names (and goal text)
        # do not depend on what the process checked before.
        self._lift_counter = itertools.count(1)
        self._rigid_counter = itertools.count(1)

    # -- entry point ---------------------------------------------------------

    def elaborate_program(self, program: ast.Program) -> ElabResult:
        result = ElabResult(
            program, self.env, self.store, sites=self.sites,
            probes=self.probes, coverage=self.coverage,
        )
        for decl in program.decls:
            self.col.push()
            self.elab_decl(decl, top_level=True)
            constraint = self.col.pop()
            if not isinstance(constraint, cs.CTrue):
                result.decl_constraints.append(DeclConstraint(decl, constraint))
        return result

    # -- declarations ----------------------------------------------------------

    def elab_decl(self, decl: ast.Decl, top_level: bool = False) -> None:
        if isinstance(decl, (ast.DDatatype, ast.DTyperef, ast.DTypeAbbrev,
                             ast.DException)):
            return  # already registered by phase 1
        if isinstance(decl, ast.DAssert):
            return  # trusted signatures
        if isinstance(decl, ast.DVal):
            self._elab_val(decl, top_level)
            return
        if isinstance(decl, ast.DFun):
            self._elab_fun(decl)
            return
        raise AssertionError(f"unknown declaration {decl!r}")

    def _elab_val(self, decl: ast.DVal, top_level: bool) -> None:
        if decl.where_type is not None:
            annotated = tyconv.convert_type(
                decl.where_type, self.env, self.col.scope_names()
            )
            self.check(decl.expr, annotated)
            ty = annotated
        else:
            ty = self.synth(decl.expr)
        ty = self.open_sigmas_deep(ty)
        if top_level:
            ty = self._close_escaping(ty)
        self._bind_pattern(decl.pat, ty)

    def _close_escaping(self, ty: DType) -> DType:
        """Top-level bindings must not leak decl-local rigid variables;
        re-pack any that occur into an existential wrapper."""
        escaping = [
            name
            for name in dt.free_index_vars(self.metas.resolve(ty))
            if name in self.col.rigid
        ]
        if not escaping:
            return ty
        binders = tuple((name, self.col.rigid[name]) for name in escaping)
        return dt.DSig(binders, terms.TRUE, ty)

    def _elab_fun(self, decl: ast.DFun) -> None:
        schemes: dict[str, dt.DScheme] = {}
        for binding in decl.bindings:
            schemes[binding.name] = self._binding_scheme(binding)
            self.values.bind(binding.name, schemes[binding.name])
        for binding in decl.bindings:
            self._elab_fun_binding(binding, schemes[binding.name])

    def _binding_scheme(self, binding: ast.FunBinding) -> dt.DScheme:
        if binding.where_type is None:
            assert hasattr(binding, "ml_scheme"), "phase 1 must run first"
            return lift_scheme(binding.ml_scheme, self.env, self._lift_counter)
        index_scope = self.col.scope_names() | {b.name for b in binding.ixparams}
        tyvar_scope = set(binding.typarams) if binding.typarams else None
        converted = tyconv.convert_type(
            binding.where_type, self.env, index_scope, tyvar_scope
        )
        if binding.ixparams:
            converted = dt.DPi(
                tuple((b.name, b.sort) for b in binding.ixparams),
                terms.TRUE,
                converted,
            )
        return tyconv.scheme_of(converted)

    def _elab_fun_binding(self, binding: ast.FunBinding, scheme: dt.DScheme) -> None:
        for clause in binding.clauses:
            self.values.push()
            self.col.push()
            ty: DType = scheme.body
            params = list(clause.params)
            while params:
                ty = self.metas.head(ty)
                if isinstance(ty, (dt.DPi, dt.DSig)):
                    ty = self.open_rigid(ty)
                    continue
                if not isinstance(ty, dt.DArrow):
                    raise ElabError(
                        f"{binding.name}: too many parameters for type "
                        f"{self.metas.resolve(ty)}",
                        clause.span,
                    )
                self._bind_pattern(params.pop(0), ty.dom)
                ty = ty.cod
            self.check(clause.body, ty)
            self.col.pop_into_parent()
            self.values.pop()

    # -- quantifier manipulation -----------------------------------------------

    def open_rigid(self, ty: dt.DPi | dt.DSig) -> DType:
        """Introduce a quantifier's binders universally: a Pi when
        checking a body, a Sigma when eliminating one."""
        binders, guard, body = dt.rename_binders_fresh(
            ty.binders, ty.guard, ty.body, self.col.scope_names()
        )
        for name, sort in binders:
            self.col.intro(name, sort)
        self.col.hyp(guard)
        return body

    def instantiate(
        self, ty: dt.DPi | dt.DSig, origin: str, span: Span,
        env: Env | None = None,
    ) -> Env:
        """Instantiate a quantifier's binders with existential variables
        (a Pi at an application, a Sigma at an introduction), emitting
        the sort memberships and the guard as obligations.

        ``ty`` is read under ``env``; the result is ``env`` extended
        with the new binders, which shadow any of the same name.  A
        subset sort sees only the earlier binders of its own group."""
        layer: Env = {}
        scope = self.col.scope_names()
        for name, sort in ty.binders:
            evar = self.store.fresh(name.upper(), scope)
            layer[name] = evar
            membership = terms.subst(sort.constraint_on(evar), layer)
            self.col.oblige(membership, origin, span)
        env = {**env, **layer} if env else layer
        self.col.oblige(terms.subst(ty.guard, env), origin, span)
        return env

    def open_sigmas_deep(self, ty: DType) -> DType:
        """Open top-level Sigmas, including inside tuples (``ty`` itself
        when there is none)."""
        ty = self.metas.head(ty)
        if isinstance(ty, dt.DSig):
            return self.open_sigmas_deep(self.open_rigid(ty))
        if isinstance(ty, dt.DTuple):
            items = map_items(self.open_sigmas_deep, ty.items)
            return ty if items is ty.items else dt.DTuple(items)
        return ty

    # -- subtyping ------------------------------------------------------------

    def subtype(
        self, s: DType, t: DType, span: Span, origin: str = "",
        env: Env | None = None,
    ) -> None:
        """Emit the obligations of ``s <: t``.

        ``t`` is read under ``env``, the evars that an application or a
        Sigma introduction instantiated ``t``'s binders with: the
        result is that of ``subtype(s, subst_index(t, env))``.  Base
        families, tuples and a Sigma on the right are compared under
        ``env`` without building ``t``'s instance; every other case
        pushes ``env`` into ``t`` first."""
        metas = self.metas
        s = metas.head(s)
        if type(t) is dt.DMeta:
            # A meta's solution lies outside the scope of t's binders.
            t = metas.head(t)
            env = None
        # Kept past here, env reads a base family or a tuple, which the
        # component-wise comparison below finds equal to s when its
        # instance is, or a Sigma, which s (not a Sigma) cannot equal.
        if env and (
            isinstance(s, dt.DMeta)
            or not isinstance(t, (dt.DBase, dt.DTuple, dt.DSig))
            or isinstance(t, dt.DSig) and isinstance(s, dt.DSig)
        ):
            t = dt.subst_index(t, env)
            env = None
        if not env:
            if s is t or metas.same(s, t):
                return
            if isinstance(s, dt.DMeta):
                if not metas.solve(s, t):
                    raise ElabError(
                        f"cannot solve type variable: {s} := {metas.resolve(t)}",
                        span,
                    )
                return
            if isinstance(t, dt.DMeta):
                # Solving from the subtype side: take the *existential
                # generalization* of s, not s itself.  A singleton like
                # int(i) would otherwise pin the meta to one index and
                # make every later use demand equality — e.g. `y :: ys`
                # must instantiate the element type at [k:int] int(k),
                # not at y's own int(i) (this is DML's instantiation at
                # ML types).
                general = self._generalize_for_meta(s)
                if not metas.solve(t, general):
                    raise ElabError(
                        f"cannot solve type variable: {t} := {general}", span
                    )
                if general is not s:
                    self.subtype(s, general, span, origin)
                return
        if isinstance(s, dt.DSig):
            self.subtype(self.open_rigid(s), t, span, origin, env)
            return
        if isinstance(t, dt.DPi):
            # Bracket the opened Pi in its own frame: the rigid binders
            # and guard hypotheses scope *only* the constraints of this
            # subtype derivation.  Left mid-frame they would quantify
            # everything elaborated afterwards — a contradictory guard
            # (e.g. i < 0 from instantiating at n = 0) then makes every
            # later obligation vacuously provable.
            self.col.push()
            self.subtype(s, self.open_rigid(t), span, origin)
            self.col.pop_into_parent()
            return
        if isinstance(s, dt.DPi):
            s_body = dt.subst_index(s.body, self.instantiate(s, origin, span))
            self.subtype(s_body, t, span, origin, env)
            return
        if isinstance(t, dt.DSig):
            env = self.instantiate(t, origin, span, env)
            self.subtype(s, t.body, span, origin, env)
            return
        if isinstance(s, dt.DBase) and isinstance(t, dt.DBase):
            if s.name != t.name or len(s.tyargs) != len(t.tyargs) or len(
                s.iargs
            ) != len(t.iargs):
                raise self._mismatch("type mismatch", s, t, env, span)
            family = self.env.family(s.name)
            for k, (x, y) in enumerate(zip(s.tyargs, t.tyargs)):
                variance = family.variance(k) if family else "invariant"
                if variance == "co":
                    self.subtype(x, y, span, origin, env)
                elif variance == "contra":
                    self.subtype(_push(y, env), x, span, origin)
                else:
                    self.equate(x, _push(y, env), span, origin)
            sorts = family.index_sorts if family else []
            for k, (i, j) in enumerate(zip(s.iargs, t.iargs)):
                base = sorts[k].base() if k < len(sorts) else "int"
                if env:
                    j = env.get(j.name, j) if type(j) is IVar else terms.subst(j, env)
                self._oblige_index_eq(i, j, base, origin, span)
            return
        if isinstance(s, dt.DTuple) and isinstance(t, dt.DTuple):
            if len(s.items) != len(t.items):
                raise self._mismatch("tuple arity mismatch", s, t, env, span)
            for x, y in zip(s.items, t.items):
                self.subtype(x, y, span, origin, env)
            return
        if isinstance(s, dt.DArrow) and isinstance(t, dt.DArrow):
            self.subtype(t.dom, s.dom, span, origin)  # contravariant
            self.subtype(s.cod, t.cod, span, origin)
            return
        if isinstance(s, dt.DTyVar) and isinstance(t, dt.DTyVar) and s.name == t.name:
            return
        raise self._mismatch("type mismatch", s, t, env, span)

    def _mismatch(
        self, what: str, s: DType, t: DType, env: Env | None, span: Span
    ) -> ElabError:
        resolve = self.metas.resolve
        return ElabError(f"{what}: {resolve(s)} vs {resolve(_push(t, env))}", span)

    def equate(self, a: DType, b: DType, span: Span, origin: str = "") -> None:
        """Invariant positions (type arguments of families).

        Metas here solve *exactly* — generalizing an array's element
        type would lose the row length that writes/reads must agree on.
        """
        metas = self.metas
        a = metas.head(a)
        b = metas.head(b)
        if a is b or metas.same(a, b):
            return
        if isinstance(a, dt.DMeta):
            if not metas.solve(a, b):
                raise ElabError(
                    f"cannot solve type variable: {a} := {metas.resolve(b)}", span
                )
            return
        if isinstance(b, dt.DMeta):
            if not metas.solve(b, a):
                raise ElabError(
                    f"cannot solve type variable: {b} := {metas.resolve(a)}", span
                )
            return
        self.subtype(a, b, span, origin)
        self.subtype(b, a, span, origin)

    def _oblige_index_eq(
        self, i: IndexTerm, j: IndexTerm, base: str, origin: str, span: Span
    ) -> None:
        i = self.store.resolve(i)
        j = self.store.resolve(j)
        if i == j:
            return
        # Eager existential solving (Section 3.1).
        if isinstance(i, terms.EVar) and not self.store.is_solved(i):
            if self.store.solve(i, j):
                return
        if isinstance(j, terms.EVar) and not self.store.is_solved(j):
            if self.store.solve(j, i):
                return
        if base == "bool":
            prop = terms.bor(
                terms.band(i, j), terms.band(terms.bnot(i), terms.bnot(j))
            )
        else:
            prop = terms.cmp("=", i, j)
        self.col.oblige(prop, origin, span)

    # -- patterns ------------------------------------------------------------

    def _bind_pattern(self, pat: ast.Pattern, ty: DType) -> None:
        ty = self.open_sigmas_deep(ty)
        if isinstance(pat, ast.PWild):
            return
        if isinstance(pat, ast.PVar):
            self.values.bind_mono(pat.name, ty)
            return
        if isinstance(pat, ast.PInt):
            index = self._family_index(ty, "int", pat.span)
            self.col.hyp(terms.cmp("=", index, terms.IConst(pat.value)))
            return
        if isinstance(pat, ast.PBool):
            index = self._family_index(ty, "bool", pat.span)
            self.col.hyp(index if pat.value else terms.bnot(index))
            return
        if isinstance(pat, ast.PTuple):
            ty = self._as_tuple(ty, len(pat.items), pat.span)
            for item, item_ty in zip(pat.items, ty.items):
                self._bind_pattern(item, item_ty)
            return
        if isinstance(pat, ast.PCon):
            self._bind_con_pattern(pat, ty)
            return
        raise AssertionError(f"unknown pattern {pat!r}")

    def _bind_con_pattern(self, pat: ast.PCon, ty: DType) -> None:
        info = self.env.constructor(pat.name)
        if info is None:
            raise ElabError(f"unknown constructor {pat.name!r}", pat.span)
        scrutinee = self._as_family(ty, info.family, pat.span)

        # Instantiate the constructor's type variables with the
        # scrutinee's type arguments (positional).
        tymap = dict(zip(info.scheme.tyvars, scrutinee.tyargs))
        con_ty = dt.subst_tyvars(info.scheme.body, tymap)

        # Peel Pi binders universally: pattern matching *learns* them.
        while isinstance(con_ty, dt.DPi):
            con_ty = self.open_rigid(con_ty)

        if isinstance(con_ty, dt.DArrow):
            arg_ty, result = con_ty.dom, con_ty.cod
        else:
            arg_ty, result = None, con_ty
        if not isinstance(result, dt.DBase) or result.name != info.family:
            raise ElabError(
                f"constructor {pat.name} result type malformed: {result}", pat.span
            )

        # Inversion: the scrutinee's indices equal the constructor's.
        family = self.env.family(info.family)
        sorts = family.index_sorts if family else []
        for k, (i, j) in enumerate(zip(scrutinee.iargs, result.iargs)):
            base = sorts[k].base() if k < len(sorts) else "int"
            if base == "bool":
                self.col.hyp(
                    terms.bor(
                        terms.band(i, j),
                        terms.band(terms.bnot(i), terms.bnot(j)),
                    )
                )
            else:
                self.col.hyp(terms.cmp("=", i, j))

        if info.has_arg:
            if pat.arg is None:
                raise ElabError(
                    f"constructor {pat.name} expects an argument", pat.span
                )
            assert arg_ty is not None
            self._bind_pattern(pat.arg, arg_ty)
        elif pat.arg is not None:
            raise ElabError(f"constructor {pat.name} takes no argument", pat.span)

    # -- shape coercions -----------------------------------------------------

    def _as_tuple(self, ty: DType, arity: int, span: Span) -> dt.DTuple:
        ty = self.open_sigmas_deep(ty)
        if isinstance(ty, dt.DMeta):
            fresh = dt.DTuple(tuple(self.metas.fresh() for _ in range(arity)))
            self.metas.solve(ty, fresh)
            return fresh
        if not isinstance(ty, dt.DTuple) or len(ty.items) != arity:
            raise ElabError(f"expected a {arity}-tuple, found {ty}", span)
        return ty

    def _as_family(self, ty: DType, family_name: str, span: Span) -> dt.DBase:
        ty = self.open_sigmas_deep(ty)
        if isinstance(ty, dt.DMeta):
            family = self.env.family(family_name)
            assert family is not None
            tyargs = tuple(self.metas.fresh() for _ in range(family.tyvar_count))
            if family.index_sorts:
                binders = []
                iargs = []
                for sort in family.index_sorts:
                    name = self._fresh_rigid(family_name[0])
                    binders.append((name, sort))
                    iargs.append(IVar(name))
                packed = dt.DSig(
                    tuple(binders), terms.TRUE,
                    dt.DBase(family_name, tyargs, tuple(iargs)),
                )
                self.metas.solve(ty, packed)
                opened = self.open_sigmas_deep(packed)
                assert isinstance(opened, dt.DBase)
                return opened
            solved = dt.DBase(family_name, tyargs, ())
            self.metas.solve(ty, solved)
            return solved
        if isinstance(ty, dt.DBase) and ty.name == family_name:
            return ty
        raise ElabError(f"expected {family_name}, found {ty}", span)

    def _family_index(self, ty: DType, family_name: str, span: Span) -> IndexTerm:
        base = self._as_family(ty, family_name, span)
        assert len(base.iargs) == 1
        return base.iargs[0]

    def _fresh_rigid(self, hint: str) -> str:
        while True:
            name = f"_{hint}{next(self._rigid_counter)}"
            if name not in self.col.rigid:
                return name

    # -- expressions ------------------------------------------------------------

    def synth(self, expr: ast.Expr) -> DType:
        if isinstance(expr, ast.EInt):
            return dt.int_of(terms.IConst(expr.value))
        if isinstance(expr, ast.EBool):
            return dt.bool_of(terms.BConst(expr.value))
        if isinstance(expr, ast.EUnit):
            return dt.UNIT
        if isinstance(expr, ast.EVar):
            return self._instantiate_scheme(self._lookup(expr.name, expr.span))
        if isinstance(expr, ast.ECon):
            info = self.env.constructor(expr.name)
            assert info is not None
            return self._instantiate_scheme(info.scheme)
        if isinstance(expr, ast.EApp):
            return self._elab_app(expr)
        if isinstance(expr, ast.ETuple):
            return dt.DTuple(tuple(self.synth(e) for e in expr.items))
        if isinstance(expr, ast.EIf):
            expected = self._lifted_ml(expr)
            self._check_if(expr, expected)
            return expected
        if isinstance(expr, ast.ECase):
            expected = self._lifted_ml(expr)
            self._check_case(expr, expected)
            return expected
        if isinstance(expr, (ast.EAndAlso, ast.EOrElse)):
            expected = dt.some_bool()
            self._check_boolop(expr, expected)
            return expected
        if isinstance(expr, ast.ELet):
            self.values.push()
            for decl in expr.decls:
                self.elab_decl(decl)
            ty = self.synth(expr.body)
            self.values.pop()
            return ty
        if isinstance(expr, ast.EFn):
            expected = self._lifted_ml(expr)
            self.check(expr, expected)
            return expected
        if isinstance(expr, ast.ESeq):
            for item in expr.items[:-1]:
                self.synth(item)
            return self.synth(expr.items[-1])
        if isinstance(expr, ast.EAnnot):
            annotated = tyconv.convert_type(
                expr.ty, self.env, self.col.scope_names()
            )
            self.check(expr.expr, annotated)
            return annotated
        if isinstance(expr, ast.ERaise):
            self.check(expr.expr, dt.DBase("exn", (), ()))
            return self._lifted_ml(expr)
        if isinstance(expr, ast.EHandle):
            expected = self._lifted_ml(expr)
            self._check_handle(expr, expected)
            return expected
        raise AssertionError(f"unknown expression {expr!r}")

    def check(self, expr: ast.Expr, ty: DType) -> None:
        ty = self.metas.head(ty)
        if isinstance(expr, ast.EIf):
            self._check_if(expr, ty)
            return
        if isinstance(expr, ast.ECase):
            self._check_case(expr, ty)
            return
        if isinstance(expr, (ast.EAndAlso, ast.EOrElse)):
            self._check_boolop(expr, ty)
            return
        if isinstance(expr, ast.ELet):
            self.values.push()
            for decl in expr.decls:
                self.elab_decl(decl)
            self.check(expr.body, ty)
            self.values.pop()
            return
        if isinstance(expr, ast.ESeq):
            for item in expr.items[:-1]:
                self.synth(item)
            self.check(expr.items[-1], ty)
            return
        if isinstance(expr, ast.ERaise):
            # raise e has every type; only e's own typing matters.
            self.check(expr.expr, dt.DBase("exn", (), ()))
            return
        if isinstance(expr, ast.EHandle):
            self._check_handle(expr, ty)
            return
        if isinstance(ty, dt.DPi):
            self.col.push()
            body = self.open_rigid(ty)
            self.check(expr, body)
            self.col.pop_into_parent()
            return
        if isinstance(expr, ast.EFn):
            if isinstance(ty, dt.DArrow):
                self.values.push()
                self.col.push()
                self._bind_pattern(expr.param, ty.dom)
                self.check(expr.body, ty.cod)
                self.col.pop_into_parent()
                self.values.pop()
                return
            if isinstance(ty, dt.DSig):
                env = self.instantiate(ty, "", expr.span)
                self.check(expr, dt.subst_index(ty.body, env))
                return
        # General case: synthesize and coerce.
        sy = self.synth(expr)
        sy = self.open_sigmas_deep(sy)
        self.subtype(sy, ty, expr.span)

    # -- control flow with singleton refinement ---------------------------------

    def _check_if(self, expr: ast.EIf, ty: DType) -> None:
        self._check_branching(expr.cond, expr.then, expr.els, ty)

    def _check_branching(
        self,
        cond: ast.Expr,
        then_arm: ast.Expr,
        else_arm: ast.Expr,
        ty: DType,
    ) -> None:
        """Elaborate a two-way branch, compiling away ``andalso``/
        ``orelse`` in the condition so each arm sees the strongest
        hypothesis (``if a andalso b then X else Y`` refines like
        ``if a then (if b then X else Y) else Y``)."""
        if isinstance(cond, ast.EAndAlso):
            def inner(t=then_arm, e=else_arm, c=cond.right):
                self._check_branching(c, t, e, ty)

            self._branch_on(cond.left, inner, lambda: self.check(else_arm, ty))
            return
        if isinstance(cond, ast.EOrElse):
            def inner(t=then_arm, e=else_arm, c=cond.right):
                self._check_branching(c, t, e, ty)

            self._branch_on(cond.left, lambda: self.check(then_arm, ty), inner)
            return
        prop = self.as_bool(cond)
        self._branch_on_prop(
            prop,
            lambda: self.check(then_arm, ty),
            lambda: self.check(else_arm, ty),
            spans=(then_arm.span, else_arm.span),
        )

    def _branch_on(self, cond: ast.Expr, when_true, when_false) -> None:
        prop = self.as_bool(cond)
        self._branch_on_prop(prop, when_true, when_false)

    def _branch_on_prop(
        self,
        prop: IndexTerm,
        when_true,
        when_false,
        spans: tuple[Span, Span] | None = None,
    ) -> None:
        self.col.push()
        self.col.hyp(prop)
        if spans is not None:
            self._record_probe(spans[0], "then branch")
        when_true()
        self.col.pop_into_parent()
        self.col.push()
        self.col.hyp(terms.bnot(prop))
        if spans is not None:
            self._record_probe(spans[1], "else branch")
        when_false()
        self.col.pop_into_parent()

    def _record_probe(self, span: Span, what: str) -> None:
        rigid, hyps = self.col.snapshot()
        self.probes.append(ReachabilityProbe(span, what, rigid, hyps))

    def _check_boolop(self, expr: ast.Expr, ty: DType) -> None:
        """``a andalso b`` / ``a orelse b`` in value position: elaborate
        as the equivalent conditional."""
        assert isinstance(expr, (ast.EAndAlso, ast.EOrElse))
        if isinstance(expr, ast.EAndAlso):
            branch = ast.EIf(expr.left, expr.right, ast.EBool(False), span=expr.span)
        else:
            branch = ast.EIf(expr.left, ast.EBool(True), expr.right, span=expr.span)
        self._check_if(branch, ty)

    def _check_case(self, expr: ast.ECase, ty: DType) -> None:
        scrutinee_ty = self.open_sigmas_deep(self.synth(expr.scrutinee))
        # A case on a singleton bool refines like an if.
        for pat, body in expr.clauses:
            self.values.push()
            self.col.push()
            self._bind_pattern(pat, scrutinee_ty)
            self._record_probe(pat.span, "case clause")
            self.check(body, ty)
            self.col.pop_into_parent()
            self.values.pop()
        self._record_coverage(expr, scrutinee_ty)

    def _record_coverage(self, expr: ast.ECase, scrutinee_ty: DType) -> None:
        """Record what the match misses (index-aware exhaustiveness).

        Conservative: only analyzed when every clause's top pattern is
        a constructor, a literal, or a catch-all; any catch-all makes
        the match exhaustive outright."""
        tops = [pat for pat, _ in expr.clauses]
        if any(isinstance(p, (ast.PVar, ast.PWild)) for p in tops):
            return
        scrutinee_ty = self.metas.head(scrutinee_ty)
        if not isinstance(scrutinee_ty, dt.DBase):
            return
        rigid, hyps = self.col.snapshot()

        if scrutinee_ty.name == "bool" and all(
            isinstance(p, ast.PBool) for p in tops
        ):
            covered = {p.value for p in tops}
            index = scrutinee_ty.iargs[0]
            for value in (True, False):
                if value not in covered:
                    extra = index if value else terms.bnot(index)
                    self.coverage.append(ExhaustivenessProbe(
                        expr.span, "true" if value else "false",
                        rigid, hyps + [extra],
                    ))
            return

        if scrutinee_ty.name == "int" and all(
            isinstance(p, ast.PInt) for p in tops
        ):
            index = scrutinee_ty.iargs[0]
            extra = [
                terms.cmp("<>", index, terms.IConst(p.value)) for p in tops
            ]
            self.coverage.append(ExhaustivenessProbe(
                expr.span, "an uncovered integer", rigid, hyps + extra,
            ))
            return

        if not all(isinstance(p, ast.PCon) for p in tops):
            return
        family = self.env.family(scrutinee_ty.name)
        if family is None or family.builtin:
            return
        covered = {p.name for p in tops}
        for con_name in family.constructors:
            if con_name in covered:
                continue
            probe = self._missing_con_probe(
                expr, scrutinee_ty, con_name, rigid, hyps
            )
            if probe is not None:
                self.coverage.append(probe)

    def _missing_con_probe(
        self,
        expr: ast.ECase,
        scrutinee: dt.DBase,
        con_name: str,
        rigid: dict[str, Sort],
        hyps: list[IndexTerm],
    ) -> ExhaustivenessProbe | None:
        """Hypotheses under which the scrutinee is a ``con_name``
        value: the constructor's guards plus the index inversion."""
        info = self.env.constructor(con_name)
        assert info is not None
        tymap = dict(zip(info.scheme.tyvars, scrutinee.tyargs))
        con_ty = dt.subst_tyvars(info.scheme.body, tymap)

        taken = set(rigid)
        local_rigid = dict(rigid)
        local_hyps = list(hyps)
        while isinstance(con_ty, dt.DPi):
            binders, guard, body = dt.rename_binders_fresh(
                con_ty.binders, con_ty.guard, con_ty.body, taken
            )
            for name, sort in binders:
                local_rigid[name] = sort
                taken.add(name)
                membership = sort.constraint_on(IVar(name))
                if not (isinstance(membership, terms.BConst)
                        and membership.value):
                    local_hyps.append(membership)
            if not (isinstance(guard, terms.BConst) and guard.value):
                local_hyps.append(guard)
            con_ty = body
        result = con_ty.cod if isinstance(con_ty, dt.DArrow) else con_ty
        if not isinstance(result, dt.DBase):
            return None
        family = self.env.family(info.family)
        sorts = family.index_sorts if family else []
        for k, (i, j) in enumerate(zip(scrutinee.iargs, result.iargs)):
            base = sorts[k].base() if k < len(sorts) else "int"
            if base == "bool":
                local_hyps.append(terms.bor(
                    terms.band(i, j),
                    terms.band(terms.bnot(i), terms.bnot(j)),
                ))
            else:
                local_hyps.append(terms.cmp("=", i, j))
        return ExhaustivenessProbe(expr.span, con_name, local_rigid, local_hyps)

    def _check_handle(self, expr: ast.EHandle, ty: DType) -> None:
        """``e handle clauses``: the body and every handler produce the
        same type; handler patterns match the unindexed ``exn``."""
        self.check(expr.expr, ty)
        exn = dt.DBase("exn", (), ())
        for pat, body in expr.clauses:
            self.values.push()
            self.col.push()
            self._bind_pattern(pat, exn)
            self.check(body, ty)
            self.col.pop_into_parent()
            self.values.pop()

    def as_bool(self, expr: ast.Expr) -> IndexTerm:
        """Elaborate a condition to its singleton boolean index."""
        ty = self.open_sigmas_deep(self.synth(expr))
        return self._family_index(ty, "bool", expr.span)

    # -- application --------------------------------------------------------

    def _elab_app(self, expr: ast.EApp) -> DType:
        site: SiteInfo | None = None
        guard_origin = ""
        fn = expr.fn
        if isinstance(fn, ast.EVar):
            scheme, is_global = self._lookup_with_origin(fn.name, fn.span)
            if is_global and fn.name in CHECK_SITES:
                site_id = f"{fn.name}#{next(self._site_counter)}"
                site = SiteInfo(
                    site_id, fn.name, CHECK_SITES[fn.name], expr.span
                )
                self.sites[site_id] = site
                expr.site_id = site_id
            elif is_global and fn.name in GUARDED_OPS:
                # Partiality guard (nonzero divisor): tagged so a
                # failure keeps the run-time Div check without vetoing
                # elimination elsewhere.
                guard_origin = f"guard:{fn.name}#{next(self._site_counter)}"
            fty = self._instantiate_scheme(scheme)
        else:
            fty = self.synth(fn)

        # Elaborate the argument first so that existential witnesses it
        # opens are in scope for the Pi instantiation.  Explicitly
        # ascribed components keep their Sigma packed: `(~1 : intPrefix)`
        # must instantiate a polymorphic parameter at the existential
        # type, not at the opened singleton (Figure 5's arrayPrefix).
        aty = self._open_arg(expr.arg, self.synth(expr.arg))

        # Instantiate every leading Pi into one binder -> evar mapping;
        # only the codomain is ever substituted.
        origin = site.site_id if site is not None else guard_origin
        metas = self.metas
        env: Env | None = None
        while True:
            if type(fty) is dt.DMeta:
                # A meta's solution lies outside the binders' scope.
                fty = metas.head(fty)
                env = None
            if isinstance(fty, dt.DPi):
                env = self.instantiate(fty, origin, expr.span, env)
                fty = fty.body
                continue
            if isinstance(fty, dt.DSig):
                fty = self.open_rigid(_push(fty, env))
                env = None
                continue
            break
        if isinstance(fty, dt.DMeta):
            arrow = dt.DArrow(metas.fresh(), metas.fresh())
            metas.solve(fty, arrow)
            fty = arrow
        if not isinstance(fty, dt.DArrow):
            raise ElabError(
                f"applying a non-function of type "
                f"{metas.resolve(_push(fty, env))}",
                expr.span,
            )
        self.subtype(aty, fty.dom, expr.arg.span, origin, env)
        return _push(fty.cod, env)

    def _generalize_for_meta(self, ty: DType) -> DType:
        """The existential closure of a type's top-level indices.

        ``int(i)`` becomes ``[k:int] int(k)``; tuples generalize
        component-wise; everything else (Sigmas, arrows, type
        variables) is already as general as a meta solution should be.
        Type *arguments* of families are left exact — arrays are
        invariant, and precision there costs nothing for covariant
        families because subtyping re-opens them anyway.
        """
        ty = self.metas.resolve(ty)
        if isinstance(ty, dt.DBase) and ty.iargs:
            family = self.env.family(ty.name)
            sorts = family.index_sorts if family else []
            binders = []
            iargs = []
            for k in range(len(ty.iargs)):
                name = self._fresh_rigid(ty.name[0])
                sort = sorts[k] if k < len(sorts) else INT
                binders.append((name, sort))
                iargs.append(IVar(name))
            return dt.DSig(
                tuple(binders), terms.TRUE,
                dt.DBase(ty.name, ty.tyargs, tuple(iargs)),
            )
        if isinstance(ty, dt.DTuple):
            return dt.DTuple(tuple(self._generalize_for_meta(t) for t in ty.items))
        return ty

    def _open_arg(self, arg_expr: ast.Expr, ty: DType) -> DType:
        """Open an application argument's Sigmas, except where the
        programmer pinned the type with an ascription."""
        ty = self.metas.head(ty)
        if isinstance(arg_expr, ast.EAnnot):
            return ty
        if (
            isinstance(arg_expr, ast.ETuple)
            and isinstance(ty, dt.DTuple)
            and len(arg_expr.items) == len(ty.items)
        ):
            return dt.DTuple(
                tuple(
                    self._open_arg(e, t)
                    for e, t in zip(arg_expr.items, ty.items)
                )
            )
        return self.open_sigmas_deep(ty)

    # -- environment ------------------------------------------------------

    def _lookup(self, name: str, span: Span) -> dt.DScheme:
        scheme, _ = self._lookup_with_origin(name, span)
        return scheme

    def _lookup_with_origin(self, name: str, span: Span) -> tuple[dt.DScheme, bool]:
        local = self.values.lookup(name)
        if local is not None:
            return local, False
        info = self.env.value(name)
        if info is not None:
            return info.scheme, info.kind is ValueKind.ASSERTED
        raise ElabError(f"unbound variable {name!r}", span)

    def _instantiate_scheme(self, scheme: dt.DScheme) -> DType:
        if not scheme.tyvars:
            return scheme.body
        mapping = {name: self.metas.fresh(name) for name in scheme.tyvars}
        return dt.subst_tyvars(scheme.body, mapping)

    def _lifted_ml(self, expr: ast.Expr) -> DType:
        if not hasattr(expr, "ml_type"):
            raise ElabError(
                "internal: missing phase-1 type annotation", expr.span
            )
        return lift_type(expr.ml_type, self.env, self._lift_counter)


def _push(ty: DType, env: Env | None) -> DType:
    """``ty`` with an instantiation environment substituted in."""
    return dt.subst_index(ty, env) if env else ty


def elaborate_program(
    program: ast.Program, env: GlobalEnv, store: EvarStore | None = None
) -> ElabResult:
    """Run phase 2 over a phase-1-processed program."""
    return Elaborator(env, store).elaborate_program(program)
