"""Phase 1: plain ML type inference (Section 3, first paragraph).

"In the first phase, we ignore dependent type annotations and simply
perform the type inference of ML."  This module implements Algorithm W
with let polymorphism and the value restriction over the erased types,
and doubles as the declaration-processing pass: it registers datatypes,
``typeref`` refinements and ``assert`` signatures into the
:class:`~repro.core.env.GlobalEnv`, resolves constructor names, and
annotates the AST with inferred ML types for phase 2 to consult.

Conservativity checks also live here: a ``typeref`` constructor type
must erase to the constructor's declared ML type, and a ``where``
annotation must erase to a type unifiable with the function's inferred
ML type — so dependent annotations can never change ML typability.
"""

from __future__ import annotations


from repro.core import resolve, tyconv
from repro.core.env import (
    ALWAYS_CHECKED,
    CHECK_SITES,
    ConInfo,
    Family,
    GlobalEnv,
    ValueInfo,
    ValueKind,
)
from repro.lang import ast
from repro.lang.errors import ElabError, MLTypeError
from repro.lang.source import Span
from repro.records import record
from repro.types import erasure
from repro.types import mltype as ml
from repro.types import types as dt
from repro.types.unify import Unifier


@record
class InferResult:
    """Output of phase 1 for one program."""

    program: ast.Program  # with names resolved
    env: GlobalEnv


class _Scope:
    """A stack of value environments mapping names to ML schemes."""

    def __init__(self, base: dict[str, ml.MLScheme]) -> None:
        self.frames: list[dict[str, ml.MLScheme]] = [base]

    def push(self) -> None:
        self.frames.append({})

    def pop(self) -> None:
        self.frames.pop()

    def bind(self, name: str, scheme: ml.MLScheme) -> None:
        self.frames[-1][name] = scheme

    def lookup(self, name: str) -> ml.MLScheme | None:
        for frame in reversed(self.frames):
            if name in frame:
                return frame[name]
        return None

    def fork(self) -> "_Scope":
        """Copy the frame stack (schemes themselves are immutable)."""
        clone = _Scope({})
        clone.frames = [dict(frame) for frame in self.frames]
        return clone

    def monotype_bodies(self) -> list[ml.MLType]:
        """The bodies of all monomorphic bindings currently in scope.

        Captured *before* binding a new declaration; their free
        unification variables (resolved at generalization time) are the
        variables that must not generalize.
        """
        return [
            scheme.body
            for frame in self.frames
            for scheme in frame.values()
            if not scheme.tyvars
        ]


class MLInferencer:
    def __init__(self, env: GlobalEnv | None = None) -> None:
        self.env = env or GlobalEnv()
        self.unifier = Unifier()
        self.scope = _Scope({})
        # (node, raw type) pairs zonked after each top-level declaration.
        self._pending: list[tuple[object, ml.MLType]] = []

    def fork(self) -> "MLInferencer":
        """An independent inferencer continuing from this one's state.

        Used by :mod:`repro.api` to share the elaborated prelude: the
        template is forked per ``check`` call instead of deep-copied.
        Everything immutable (schemes, types, interned index terms) is
        shared; the mutable registries (:meth:`GlobalEnv.fork`, the
        unifier's substitution, the scope frames) are copied, so no
        declaration processed by the fork can leak into the template
        or into sibling checks.
        """
        clone = MLInferencer.__new__(MLInferencer)
        clone.env = self.env.fork()
        clone.unifier = self.unifier.fork()
        clone.scope = self.scope.fork()
        clone._pending = list(self._pending)
        return clone

    # -- entry points -----------------------------------------------------

    def infer_program(self, program: ast.Program) -> InferResult:
        resolved: list[ast.Decl] = []
        for decl in program.decls:
            resolved.append(self.infer_decl(decl))
        return InferResult(ast.Program(resolved, span=program.span), self.env)

    def infer_decl(self, decl: ast.Decl) -> ast.Decl:
        """Process one top-level declaration; returns the resolved decl."""
        if isinstance(decl, ast.DDatatype):
            self._register_datatype(decl)
            return decl
        if isinstance(decl, ast.DTyperef):
            self._register_typeref(decl)
            return decl
        if isinstance(decl, ast.DAssert):
            self._register_assert(decl)
            return decl
        if isinstance(decl, ast.DException):
            self._register_exception(decl)
            return decl
        if isinstance(decl, ast.DTypeAbbrev):
            self.env.abbrevs[decl.name] = tyconv.convert_type(
                decl.ty, self.env, set()
            )
            return decl
        cons = set(self.env.constructors)
        decl = resolve.resolve_decl(decl, cons)
        if isinstance(decl, ast.DVal):
            self._infer_val(decl)
        elif isinstance(decl, ast.DFun):
            self._infer_fun(decl)
        else:
            raise AssertionError(f"unknown declaration {decl!r}")
        self._zonk_pending()
        return decl

    # -- declaration registration ------------------------------------------

    def _register_datatype(self, decl: ast.DDatatype) -> None:
        if decl.name in self.env.families:
            raise ElabError(f"duplicate type name {decl.name!r}", decl.span)
        family = Family(decl.name, len(decl.tyvars))
        self.env.add_family(family)
        result = dt.DBase(
            decl.name, tuple(dt.DTyVar(v) for v in decl.tyvars), ()
        )
        for condef in decl.constructors:
            if condef.name in self.env.constructors:
                raise ElabError(
                    f"duplicate constructor {condef.name!r}", condef.span
                )
            if condef.arg is None:
                body: dt.DType = result
            else:
                arg_ty = tyconv.convert_type(
                    condef.arg, self.env, set(), set(decl.tyvars)
                )
                body = dt.DArrow(arg_ty, result)
            scheme = dt.DScheme(tuple(decl.tyvars), body)
            self.env.add_constructor(
                ConInfo(condef.name, decl.name, condef.arg is not None, scheme)
            )
        from repro.core.variance import compute_variances

        family.variances = compute_variances(family, self.env)

    def _register_exception(self, decl: ast.DException) -> None:
        if decl.name in self.env.constructors:
            raise ElabError(
                f"duplicate constructor {decl.name!r}", decl.span
            )
        result = dt.DBase("exn", (), ())
        if decl.arg is None:
            body: dt.DType = result
        else:
            arg_ty = tyconv.convert_type(decl.arg, self.env, set(), set())
            body = dt.DArrow(arg_ty, result)
        self.env.add_constructor(
            ConInfo(decl.name, "exn", decl.arg is not None, dt.DScheme((), body))
        )

    def _register_typeref(self, decl: ast.DTyperef) -> None:
        family = self.env.family(decl.tycon)
        if family is None or family.builtin:
            raise ElabError(
                f"typeref target {decl.tycon!r} is not a user datatype", decl.span
            )
        if family.index_sorts:
            raise ElabError(f"{decl.tycon!r} is already refined", decl.span)
        family.index_sorts = list(decl.sorts)

        declared = set(family.constructors)
        seen: set[str] = set()
        for clause in decl.clauses:
            info = self.env.constructor(clause.con)
            if info is None or info.family != decl.tycon:
                raise ElabError(
                    f"{clause.con!r} is not a constructor of {decl.tycon}",
                    clause.span,
                )
            if clause.con in seen:
                raise ElabError(
                    f"duplicate typeref clause for {clause.con!r}", clause.span
                )
            seen.add(clause.con)
            refined = tyconv.convert_type(clause.ty, self.env, set())
            refined_scheme = dt.DScheme(info.scheme.tyvars, refined)
            self._check_refinement_erasure(info, refined_scheme, clause.span)
            info.scheme = refined_scheme
        missing = declared - seen
        if missing:
            raise ElabError(
                f"typeref for {decl.tycon} misses constructor(s): "
                + ", ".join(sorted(missing)),
                decl.span,
            )

    def _check_refinement_erasure(
        self, info: ConInfo, refined: dt.DScheme, span: Span
    ) -> None:
        """Section 2.4: "The structure of the dependent types for the
        constructors ... must match the corresponding ML types."""
        original = erasure.erase(info.scheme.body)
        new = erasure.erase(refined.body)
        if not erasure.ml_equal(original, new):
            raise ElabError(
                f"refined type of {info.name} erases to {new}, "
                f"but its ML type is {original}",
                span,
            )

    def _register_assert(self, decl: ast.DAssert) -> None:
        for name, sty in decl.items:
            converted = tyconv.convert_type(sty, self.env, set())
            scheme = tyconv.scheme_of(converted)
            site_kind = CHECK_SITES.get(name) or ALWAYS_CHECKED.get(name)
            self.env.add_value(
                ValueInfo(name, ValueKind.ASSERTED, scheme, site_kind)
            )

    # -- val / fun inference -------------------------------------------------

    def _env_vars_of(self, bodies: list[ml.MLType]) -> set[ml.MLVar]:
        result: set[ml.MLVar] = set()
        for body in bodies:
            result |= ml.free_vars(self.unifier.resolve(body))
        return result

    def _infer_val(self, decl: ast.DVal) -> None:
        outer = self.scope.monotype_bodies()
        ty = self.infer_expr(decl.expr)
        pat_ty = self._infer_pattern_binding(decl.pat)
        self.unifier.unify(ty, pat_ty, decl.span)
        if decl.where_type is not None:
            annotated = tyconv.convert_type(
                decl.where_type, self.env, set(), strict_indices=False
            )
            self._unify_with_annotation(ty, annotated, decl.span)
        if _is_syntactic_value(decl.expr):
            self._generalize_pattern(decl.pat, self._env_vars_of(outer))
        decl.ml_scheme = self._scheme_of_pattern(decl.pat)

    def _infer_fun(self, decl: ast.DFun) -> None:
        outer = self.scope.monotype_bodies()
        # Bind every name of the group monomorphically first.
        fn_vars: dict[str, ml.MLVar] = {}
        for binding in decl.bindings:
            var = self.unifier.fresh()
            fn_vars[binding.name] = var
            self.scope.bind(binding.name, ml.MLScheme.mono(var))

        for binding in decl.bindings:
            self._infer_fun_binding(binding, fn_vars[binding.name])

        env_vars = self._env_vars_of(outer)
        for binding in decl.bindings:
            if binding.where_type is not None:
                scheme = self._scheme_from_annotation(binding)
            else:
                scheme = self.unifier.generalize(fn_vars[binding.name], env_vars)
            binding.ml_scheme = scheme
            self.scope.bind(binding.name, scheme)

    def _scheme_from_annotation(self, binding: ast.FunBinding) -> ml.MLScheme:
        """Erase the (Pi-wrapped) where-annotation and check it is
        consistent with the inferred type, then adopt it."""
        index_scope = {b.name for b in binding.ixparams}
        tyvar_scope = set(binding.typarams) if binding.typarams else None
        annotated = tyconv.convert_type(
            binding.where_type, self.env, index_scope, tyvar_scope,
            strict_indices=False,
        )
        erased = erasure.erase(annotated)
        tyvars = tuple(sorted(dt.free_tyvars(annotated)))
        scheme = ml.MLScheme(tyvars, erased)
        inferred = self.scope.lookup(binding.name)
        assert inferred is not None
        self._unify_with_annotation(
            self.unifier.instantiate(inferred), scheme, binding.span
        )
        return scheme

    def _unify_with_annotation(
        self, inferred: ml.MLType, annotation: object, span: Span
    ) -> None:
        if isinstance(annotation, dt.DType):
            annotation = ml.MLScheme(
                tuple(sorted(dt.free_tyvars(annotation))),
                erasure.erase(annotation),
            )
        assert isinstance(annotation, ml.MLScheme)
        self.unifier.unify(inferred, self.unifier.instantiate(annotation), span)

    def _infer_fun_binding(self, binding: ast.FunBinding, fn_var: ml.MLVar) -> None:
        arity = len(binding.clauses[0].params)
        for clause in binding.clauses:
            if len(clause.params) != arity:
                raise MLTypeError(
                    f"clauses of {binding.name} have inconsistent arities",
                    clause.span,
                )
        for clause in binding.clauses:
            self.scope.push()
            param_tys = [self._infer_pattern_binding(p) for p in clause.params]
            body_ty = self.infer_expr(clause.body)
            clause_ty: ml.MLType = body_ty
            for pty in reversed(param_tys):
                clause_ty = ml.MLArrow(pty, clause_ty)
            self.unifier.unify(fn_var, clause_ty, clause.span)
            self.scope.pop()

    # -- patterns --------------------------------------------------------

    def _infer_pattern_binding(self, pat: ast.Pattern) -> ml.MLType:
        """Infer a pattern's type, binding its variables monomorphically."""
        if isinstance(pat, ast.PWild):
            return self.unifier.fresh()
        if isinstance(pat, ast.PVar):
            var = self.unifier.fresh()
            self.scope.bind(pat.name, ml.MLScheme.mono(var))
            return var
        if isinstance(pat, ast.PInt):
            return ml.INT
        if isinstance(pat, ast.PBool):
            return ml.BOOL
        if isinstance(pat, ast.PTuple):
            return ml.MLTuple(
                tuple(self._infer_pattern_binding(p) for p in pat.items)
            )
        if isinstance(pat, ast.PCon):
            info = self.env.constructor(pat.name)
            if info is None:
                raise MLTypeError(f"unknown constructor {pat.name!r}", pat.span)
            con_ty = self.unifier.instantiate(erasure.erase_scheme(info.scheme))
            if info.has_arg:
                if pat.arg is None:
                    raise MLTypeError(
                        f"constructor {pat.name} expects an argument", pat.span
                    )
                assert isinstance(con_ty, ml.MLArrow)
                arg_ty = self._infer_pattern_binding(pat.arg)
                self.unifier.unify(con_ty.dom, arg_ty, pat.span)
                return con_ty.cod
            if pat.arg is not None:
                raise MLTypeError(
                    f"constructor {pat.name} takes no argument", pat.span
                )
            return con_ty
        raise AssertionError(f"unknown pattern {pat!r}")

    def _generalize_pattern(self, pat: ast.Pattern, env_vars: set[ml.MLVar]) -> None:
        """Re-bind pattern variables with generalized schemes."""
        if isinstance(pat, ast.PVar):
            scheme = self.scope.lookup(pat.name)
            assert scheme is not None
            self.scope.bind(
                pat.name, self.unifier.generalize(scheme.body, env_vars)
            )
        elif isinstance(pat, ast.PTuple):
            for item in pat.items:
                self._generalize_pattern(item, env_vars)
        elif isinstance(pat, ast.PCon) and pat.arg is not None:
            self._generalize_pattern(pat.arg, env_vars)

    def _scheme_of_pattern(self, pat: ast.Pattern) -> ml.MLScheme | None:
        if isinstance(pat, ast.PVar):
            return self.scope.lookup(pat.name)
        return None

    # -- expressions ------------------------------------------------------

    def infer_expr(self, expr: ast.Expr) -> ml.MLType:
        ty = self._infer_expr(expr)
        self._pending.append((expr, ty))
        return ty

    def _infer_expr(self, expr: ast.Expr) -> ml.MLType:
        if isinstance(expr, ast.EInt):
            return ml.INT
        if isinstance(expr, ast.EBool):
            return ml.BOOL
        if isinstance(expr, ast.EUnit):
            return ml.UNIT
        if isinstance(expr, ast.EVar):
            scheme = self.scope.lookup(expr.name)
            if scheme is None:
                info = self.env.value(expr.name)
                if info is None:
                    raise MLTypeError(f"unbound variable {expr.name!r}", expr.span)
                scheme = erasure.erase_scheme(info.scheme)
            return self.unifier.instantiate(scheme)
        if isinstance(expr, ast.ECon):
            info = self.env.constructor(expr.name)
            assert info is not None
            return self.unifier.instantiate(erasure.erase_scheme(info.scheme))
        if isinstance(expr, ast.EApp):
            fn_ty = self.infer_expr(expr.fn)
            arg_ty = self.infer_expr(expr.arg)
            result = self.unifier.fresh()
            self.unifier.unify(fn_ty, ml.MLArrow(arg_ty, result), expr.span)
            return result
        if isinstance(expr, ast.ETuple):
            return ml.MLTuple(tuple(self.infer_expr(e) for e in expr.items))
        if isinstance(expr, ast.EIf):
            self.unifier.unify(self.infer_expr(expr.cond), ml.BOOL, expr.cond.span)
            then_ty = self.infer_expr(expr.then)
            else_ty = self.infer_expr(expr.els)
            self.unifier.unify(then_ty, else_ty, expr.span)
            return then_ty
        if isinstance(expr, (ast.EAndAlso, ast.EOrElse)):
            self.unifier.unify(self.infer_expr(expr.left), ml.BOOL, expr.left.span)
            self.unifier.unify(self.infer_expr(expr.right), ml.BOOL, expr.right.span)
            return ml.BOOL
        if isinstance(expr, ast.ELet):
            self.scope.push()
            for decl in expr.decls:
                if isinstance(decl, ast.DVal):
                    self._infer_val(decl)
                elif isinstance(decl, ast.DFun):
                    self._infer_fun(decl)
                else:
                    raise MLTypeError(
                        "only val/fun declarations may appear in let", decl.span
                    )
            ty = self.infer_expr(expr.body)
            self.scope.pop()
            return ty
        if isinstance(expr, ast.ECase):
            scrutinee_ty = self.infer_expr(expr.scrutinee)
            result = self.unifier.fresh()
            for pat, body in expr.clauses:
                self.scope.push()
                pat_ty = self._infer_pattern_binding(pat)
                self.unifier.unify(scrutinee_ty, pat_ty, pat.span)
                self.unifier.unify(result, self.infer_expr(body), body.span)
                self.scope.pop()
            return result
        if isinstance(expr, ast.EFn):
            self.scope.push()
            param_ty = self._infer_pattern_binding(expr.param)
            body_ty = self.infer_expr(expr.body)
            self.scope.pop()
            return ml.MLArrow(param_ty, body_ty)
        if isinstance(expr, ast.ESeq):
            ty: ml.MLType = ml.UNIT
            for item in expr.items:
                ty = self.infer_expr(item)
            return ty
        if isinstance(expr, ast.EAnnot):
            ty = self.infer_expr(expr.expr)
            annotated = tyconv.convert_type(
                expr.ty, self.env, set(), strict_indices=False
            )
            self._unify_with_annotation(ty, annotated, expr.span)
            return ty
        if isinstance(expr, ast.ERaise):
            self.unifier.unify(
                self.infer_expr(expr.expr), ml.MLCon("exn"), expr.span
            )
            return self.unifier.fresh()  # raise has any type
        if isinstance(expr, ast.EHandle):
            result = self.infer_expr(expr.expr)
            for pat, body in expr.clauses:
                self.scope.push()
                pat_ty = self._infer_pattern_binding(pat)
                self.unifier.unify(pat_ty, ml.MLCon("exn"), pat.span)
                self.unifier.unify(result, self.infer_expr(body), body.span)
                self.scope.pop()
            return result
        raise AssertionError(f"unknown expression {expr!r}")

    def _zonk_pending(self) -> None:
        for node, ty in self._pending:
            node.ml_type = self.unifier.resolve(ty)
        self._pending.clear()


def _is_syntactic_value(expr: ast.Expr) -> bool:
    """SML's value restriction: only syntactic values generalize."""
    if isinstance(expr, (ast.EInt, ast.EBool, ast.EUnit, ast.EVar, ast.ECon,
                         ast.EFn)):
        return True
    if isinstance(expr, ast.ETuple):
        return all(_is_syntactic_value(e) for e in expr.items)
    if isinstance(expr, ast.EApp):
        return isinstance(expr.fn, ast.ECon) and _is_syntactic_value(expr.arg)
    if isinstance(expr, ast.EAnnot):
        return _is_syntactic_value(expr.expr)
    return False


def infer_program(program: ast.Program, env: GlobalEnv | None = None) -> InferResult:
    """Run phase 1 over a parsed program."""
    return MLInferencer(env).infer_program(program)
