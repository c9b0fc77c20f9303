"""A big-step interpreter for elaborated DML-lite programs.

The interpreter is the measurement instrument for Tables 2 and 3's
"checks eliminated" column: it executes the program once, counting how
many dynamic executions of ``sub``/``update``/``nth``/``hd``/``tl``
ran *with* their safety check (site not discharged) versus *without*
(site statically proved safe).

Self- and mutually-recursive loops written in tail form are executed
with constant Python stack via a trampoline: applications in tail
position return a :class:`~repro.eval.values.TailCall` marker that the
``apply`` loop unwinds.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.eval import runtime as rt
from repro.eval import values as rv
from repro.eval.values import (
    BuiltinV,
    Closure,
    ConV,
    Env,
    FnV,
    PartialV,
    TailCall,
)
from repro.lang import ast
from repro.lang.errors import (
    EvalError,
    RaisedException,
    bind_error,
    case_error,
    clause_error,
    fn_error,
)

if TYPE_CHECKING:
    from repro.core.env import GlobalEnv


class Interpreter:
    def __init__(
        self,
        program: ast.Program,
        unchecked_sites: set[str] | None = None,
        stats: rt.RuntimeStats | None = None,
        env: "GlobalEnv | None" = None,
    ) -> None:
        self.stats = stats if stats is not None else rt.RuntimeStats()
        self.unchecked_sites = unchecked_sites or set()
        self.type_env = env
        self._con_cache: dict[str, Any] = {}
        self.globals = Env(dict())
        for name, builtin in rt.make_builtins().items():
            self.globals.bindings[name] = builtin
        self._load(program)

    # -- program loading -------------------------------------------------

    def _load(self, program: ast.Program) -> None:
        for decl in program.decls:
            self.exec_decl(decl, self.globals)

    def exec_decl(self, decl: ast.Decl, env: Env) -> None:
        if isinstance(decl, (ast.DDatatype, ast.DTyperef, ast.DAssert,
                             ast.DTypeAbbrev, ast.DException)):
            return
        if isinstance(decl, ast.DVal):
            value = self.eval(decl.expr, env)
            if not self.match(decl.pat, value, env.bindings):
                raise bind_error(decl.span)
            return
        if isinstance(decl, ast.DFun):
            for binding in decl.bindings:
                arity = len(binding.clauses[0].params)
                clauses = [(c.params, c.body) for c in binding.clauses]
                env.bindings[binding.name] = Closure(
                    binding.name, clauses, env, arity
                )
            return
        raise AssertionError(f"unknown declaration {decl!r}")

    # -- entry point ------------------------------------------------------

    def call(self, name: str, *args: Any) -> Any:
        """Apply a top-level function to (already converted) values."""
        try:
            fn = self.globals.lookup(name)
        except KeyError:
            raise EvalError(f"no such function: {name}") from None
        result: Any = fn
        for arg in args:
            result = self.apply(result, arg)
        return result

    # -- application -----------------------------------------------------------

    def apply(self, fn: Any, arg: Any) -> Any:
        while True:
            result = self._apply_once(fn, arg)
            if isinstance(result, TailCall):
                fn, arg = result.fn, result.arg
                continue
            return result

    def _apply_once(self, fn: Any, arg: Any) -> Any:
        self.stats.applications += 1
        if isinstance(fn, BuiltinV):
            if fn.needs_apply:
                return fn.fn(arg, self.stats, self.apply)
            if fn.check_kind is not None and not fn.always_checked:
                # Bare builtin value (not a tagged call site): checked.
                return fn.fn(arg, self.stats, True)
            return fn.fn(arg, self.stats)
        if isinstance(fn, Closure):
            if fn.arity == 1:
                return self._enter_closure(fn, (arg,))
            return PartialV(fn, (arg,))
        if isinstance(fn, PartialV):
            args = fn.args + (arg,)
            if len(args) == fn.closure.arity:
                return self._enter_closure(fn.closure, args)
            return PartialV(fn.closure, args)
        if isinstance(fn, FnV):
            bindings: dict[str, Any] = {}
            if not self.match(fn.param, arg, bindings):
                raise fn_error()
            return self.eval_tail(fn.body, fn.env.child(bindings))
        raise EvalError(f"applying a non-function: {rv.render(fn)}")

    def _enter_closure(self, closure: Closure, args: tuple) -> Any:
        for params, body in closure.clauses:
            bindings: dict[str, Any] = {}
            if all(self.match(p, a, bindings) for p, a in zip(params, args)):
                return self.eval_tail(body, closure.env.child(bindings))
        raise clause_error(closure.name, ", ".join(rv.render(a) for a in args))

    # -- pattern matching ---------------------------------------------------

    def match(self, pat: ast.Pattern, value: Any, bindings: dict) -> bool:
        if isinstance(pat, ast.PWild):
            return True
        if isinstance(pat, ast.PVar):
            bindings[pat.name] = value
            return True
        if isinstance(pat, ast.PInt):
            return value == pat.value
        if isinstance(pat, ast.PBool):
            return value is pat.value or value == pat.value
        if isinstance(pat, ast.PTuple):
            if not isinstance(value, tuple) or len(value) != len(pat.items):
                return False
            return all(
                self.match(p, v, bindings) for p, v in zip(pat.items, value)
            )
        if isinstance(pat, ast.PCon):
            if not isinstance(value, ConV) or value.con != pat.name:
                return False
            if pat.arg is None:
                return True
            return self.match(pat.arg, value.arg, bindings)
        raise AssertionError(f"unknown pattern {pat!r}")

    # -- expression evaluation --------------------------------------------------

    def eval(self, expr: ast.Expr, env: Env) -> Any:
        result = self.eval_tail(expr, env)
        if isinstance(result, TailCall):
            return self.apply(result.fn, result.arg)
        return result

    def eval_tail(self, expr: ast.Expr, env: Env) -> Any:
        """Evaluate with ``expr`` in tail position: applications may be
        returned as :class:`TailCall` markers."""
        while True:
            if isinstance(expr, ast.EInt):
                return expr.value
            if isinstance(expr, ast.EBool):
                return expr.value
            if isinstance(expr, ast.EUnit):
                return rv.UNIT
            if isinstance(expr, ast.EVar):
                try:
                    return env.lookup(expr.name)
                except KeyError:
                    raise EvalError(
                        f"unbound variable {expr.name!r}", expr.span
                    ) from None
            if isinstance(expr, ast.ECon):
                return self._eval_con(expr)
            if isinstance(expr, ast.EApp):
                return self._eval_app(expr, env)
            if isinstance(expr, ast.ETuple):
                return tuple(self.eval(e, env) for e in expr.items)
            if isinstance(expr, ast.EIf):
                cond = self.eval(expr.cond, env)
                expr = expr.then if cond else expr.els
                continue
            if isinstance(expr, ast.EAndAlso):
                if not self.eval(expr.left, env):
                    return False
                expr = expr.right
                continue
            if isinstance(expr, ast.EOrElse):
                if self.eval(expr.left, env):
                    return True
                expr = expr.right
                continue
            if isinstance(expr, ast.ELet):
                env = env.child()
                for decl in expr.decls:
                    self.exec_decl(decl, env)
                expr = expr.body
                continue
            if isinstance(expr, ast.ECase):
                scrutinee = self.eval(expr.scrutinee, env)
                for pat, body in expr.clauses:
                    bindings: dict[str, Any] = {}
                    if self.match(pat, scrutinee, bindings):
                        env = env.child(bindings)
                        expr = body
                        break
                else:
                    raise case_error(rv.render(scrutinee), expr.span)
                continue
            if isinstance(expr, ast.EFn):
                return FnV(expr.param, expr.body, env)
            if isinstance(expr, ast.ESeq):
                for item in expr.items[:-1]:
                    self.eval(item, env)
                expr = expr.items[-1]
                continue
            if isinstance(expr, ast.EAnnot):
                expr = expr.expr
                continue
            if isinstance(expr, ast.ERaise):
                raise RaisedException(self.eval(expr.expr, env))
            if isinstance(expr, ast.EHandle):
                try:
                    return self.eval(expr.expr, env)
                except RaisedException as raised:
                    for pat, body in expr.clauses:
                        bindings: dict[str, Any] = {}
                        if self.match(pat, raised.value, bindings):
                            env = env.child(bindings)
                            expr = body
                            break
                    else:
                        raise
                continue
            raise AssertionError(f"unknown expression {expr!r}")

    def _eval_con(self, expr: ast.ECon) -> Any:
        """A bare constructor: nullary ones are values; a unary one
        used first-class becomes a constructor function."""
        name = expr.name
        if name in self._con_cache:
            return self._con_cache[name]
        has_arg = False
        if self.type_env is not None:
            info = self.type_env.constructor(name)
            has_arg = info is not None and info.has_arg
        if has_arg:
            value: Any = BuiltinV(
                name, lambda arg, stats, _n=name: ConV(_n, arg)
            )
        else:
            value = ConV(name)
        self._con_cache[name] = value
        return value

    def _eval_app(self, expr: ast.EApp, env: Env) -> Any:
        fn_expr = expr.fn
        if isinstance(fn_expr, ast.ECon):
            arg = self.eval(expr.arg, env)
            self.stats.allocations += 1
            return ConV(fn_expr.name, arg)
        fn = self.eval(fn_expr, env)
        arg = self.eval(expr.arg, env)
        if isinstance(fn, BuiltinV):
            self.stats.applications += 1
            if fn.needs_apply:
                return fn.fn(arg, self.stats, self.apply)
            if fn.check_kind is not None and not fn.always_checked:
                site = getattr(expr, "site_id", None)
                checked = site is None or site not in self.unchecked_sites
                return fn.fn(arg, self.stats, checked)
            return fn.fn(arg, self.stats)
        return TailCall(fn, arg)

