"""Compilation of elaborated DML-lite to Python source.

This backend exists to measure the *run-time* effect of bound-check
elimination (Tables 2 and 3): the interpreter counts checks exactly but
is too slow to show wall-clock differences, whereas generated Python
runs the paper's workloads (scaled) with and without checks.

The generator is a *core/dialect* split: this module owns lowering
(binder versioning, match compilation, tail-loop conversion,
instrumentation) and is representation-agnostic; everything about how
array values are stored and accessed is delegated to a pluggable
:class:`~repro.compile.dialects.Dialect` (``plain`` lists, ``packed``
``array('q')`` buffers, optional ``numpy``).  Which sites a dialect may
access unchecked is decided upstream by the elimination plan; a kept
site checks in every dialect.

Core code-generation decisions:

* a **statically proved** ``sub`` compiles to the dialect's unchecked
  read (a bare ``a[i]`` in ``plain``); an unproved one is the same read
  behind an inline bound test,
  ``(a[i] if len(a) > i >= 0 else _oob(a, i))`` — mirroring SML's
  ``Unsafe.Array.sub`` vs safe ``sub``, whose check is a compare and
  branch, not a call.  Kept ``update``/``hd``/``tl`` checks are inline
  too; an operand that is not a name, a literal or integer arithmetic
  over them is evaluated once, in order (see :meth:`PyCodegen._kept_access`);
* a pure primitive inlines the template of its row in
  :data:`repro.lang.prims.PRIMS`, which the interpreter shares
  (``(a + b)``), or calls the row's function (``_print_int(x)``, which
  returns ``()``).  ``div``/``mod`` by a non-zero literal are the
  floor-based ``//``/``%``; any other divisor calls ``_div``/``_mod``,
  which raise the interpreter's ``Div``/``Mod`` error on zero;
* **operands evaluate left to right**: every multi-operand form
  compiles its operands through :meth:`PyCodegen._operands`, which
  binds each earlier operand that is not simple to a temporary before a
  later one emits statements (``let``, ``case``, ``;``, ``handle``);
* datatype values: ``nil``/``::`` become ``None``/``(head, tail)``
  pairs, other nullary constructors their tag string, unary ones
  ``(tag, value)`` pairs — identical across dialects;
* **self-tail-recursive** functions compile to ``while`` loops
  regardless of arity, since CPython has no tail-call optimization and
  the corpus drives million-iteration loops — a self-call only loops
  when it is *saturated* (all parameters applied) and in tail
  position.  A tail call assigns, in one simultaneous assignment, only
  the loop locals that change;
* a parameter that is a tuple pattern of one width in every clause is
  matched on **one local per component**: a loop's tail call assigns
  a tuple literal's items to them (and unpacks any other argument), so
  no argument tuple is built or read per iteration;
* a ``let``-declared function of one tuple parameter whose name only
  ever appears as the function of a direct application takes **flat
  parameters** ``def f(x1, …, xk)`` (see :func:`_flat_funs`); every
  other function, and every top-level one, takes one tuple;
* an ``update`` whose unit is discarded (a non-final ``;`` item, a
  ``val _ =`` or a tail write) is the dialect's **store statement**
  where it has one (``a[i] = v`` in ``plain``), just as an eliminated
  read is ``a[i]``; a kept one puts ``if not len(a) > i >= 0:
  _oob(a, i)`` in front of the store;
* every binder, local functions included, gets a fresh versioned Python
  name, making ML shadowing and branch-local ``let``s safe in Python's
  function-level scope; only top-level functions keep their
  unversioned :func:`mangle` names;
* closures made inside a loop body are built by a factory def that
  takes the current values of the enclosing locals, because a Python
  closure would see the loop's later reassignments.
"""

from __future__ import annotations

import itertools
from dataclasses import field
from typing import Any, Optional

from repro.compile.dialects import Dialect, get_dialect, parens
from repro.core.env import ALWAYS_CHECKED, CHECK_SITES, GlobalEnv
from repro.lang import ast
from repro.lang.prims import PRIMS
from repro.records import record
from repro.types import erasure
from repro.types import mltype as ml

#: Primitives inlined only when the divisor is a non-zero literal.
_DIVISIONS = ("div", "mod")

#: The functions of :data:`PRIMS` that compiled code may call.
_CALLED = sorted(fn.__name__ for name, (fn, _, template) in PRIMS.items()
                 if template is None or name in _DIVISIONS)

_PRELUDE = f'''\
from repro.compile.support import (
    _bind_fail, _case_fail, _clause_fail, _empty, _fn_fail, _hdc,
    _mk_list, _nth_checked, _nth_unchecked, _oob, _ce, _cp, _raise, _subc,
    _tab_list, _tlc, _upd, _updc, from_pylist, to_pylist,
)
from repro.lang.errors import RaisedException as _Raised
from repro.lang.prims import {", ".join(f"{f} as _{f}" for f in _CALLED)}
'''

_PY_KEYWORDS = frozenset(
    """False None True and as assert async await break class continue def
    del elif else except finally for from global if import in is lambda
    nonlocal not or pass raise return while with yield""".split()
)


def mangle(name: str) -> str:
    """DML identifier -> safe Python identifier."""
    safe = name.replace("'", "_q")
    if not safe.isidentifier() or safe in _PY_KEYWORDS:
        safe = "d_" + "".join(c if c.isalnum() or c == "_" else "_" for c in safe)
        return safe
    return "d_" + safe


@record
class GeneratedModule:
    """Generated Python source plus a loader."""

    name: str
    source: str
    dialect: Optional[Dialect] = field(default=None, repr=False)
    _namespace: Optional[dict] = field(default=None, repr=False)

    def load(self) -> dict:
        if self._namespace is None:
            namespace: dict[str, Any] = {"__name__": self.name}
            exec(compile(self.source, f"<generated {self.name}>", "exec"), namespace)
            self._namespace = namespace
        return self._namespace

    def call(self, fn_name: str, *args: Any) -> Any:
        """Apply ``fn_name`` to ``args`` *as-is* (curried, no value
        adaptation — arguments must already use this module's dialect
        representation)."""
        fn = self.load()[mangle(fn_name)]
        result = fn
        for arg in args:
            result = result(arg)
        return result

    def run(self, fn_name: str, *args: Any) -> Any:
        """Like :meth:`call`, but adapts Python-native arguments into
        the module's dialect representation and extracts the result
        back to Python-native values."""
        dialect = self.dialect or get_dialect("plain")
        result = self.call(fn_name, *dialect.adapt_args(args))
        return dialect.extract_value(result)


class _Emitter:
    def __init__(self) -> None:
        self.lines: list[str] = []
        self.indent = 0

    def emit(self, line: str = "") -> None:
        self.lines.append("    " * self.indent + line if line else "")

    def block(self) -> "_Block":
        return _Block(self)


class _Block:
    def __init__(self, emitter: _Emitter) -> None:
        self.emitter = emitter

    def __enter__(self) -> None:
        self.emitter.indent += 1

    def __exit__(self, *exc) -> None:
        self.emitter.indent -= 1


class PyCodegen:
    def __init__(
        self,
        env: GlobalEnv,
        unchecked_sites: set[str] | None = None,
        instrument: bool = False,
        dialect: "str | Dialect" = "plain",
    ) -> None:
        self.env = env
        self.unchecked = unchecked_sites or set()
        #: When set, every access site increments the shared COUNTERS,
        #: so the harness can report exact dynamic check counts from
        #: the compiled code (Tables 2/3's "checks eliminated").
        self.instrument = instrument
        #: Value-representation backend; owns array storage and
        #: read/write/make emission.  The core never inspects it beyond
        #: the Dialect interface.
        self.dialect = get_dialect(dialect)
        self._overrides = self.dialect.builtin_overrides()
        self.out = _Emitter()
        self._temp = itertools.count(1)
        self._name_version = itertools.count(1)
        #: Builtin names referenced as first-class values.
        self._value_builtins: set[str] = set()
        #: Python names of local functions that take flat parameters.
        self._flat: set[str] = set()
        #: Python names bound at module level.
        self._globals: set[str] = set()
        #: Is code being emitted inside a loop body of the current def?
        self._in_loop = False
        #: The module's ``_DATA`` table (see :func:`value_shape`), made
        #: when a match failure first needs it.
        self._data: dict | None = None

    # -- public -------------------------------------------------------------

    def compile_program(self, program: ast.Program, name: str = "dml") -> GeneratedModule:
        body = _Emitter()
        self.out = body
        scope: dict[str, str] = {}
        for decl in program.decls:
            self.compile_decl(decl, scope)
            self._globals.update(scope.values())
        header = [f'"""Generated by repro.compile.pycodegen from {name}."""']
        header.append(_PRELUDE)
        dialect_prelude = self.dialect.prelude()
        if dialect_prelude:
            header.append(dialect_prelude)
        for builtin in sorted(self._value_builtins):
            header.append(self._builtin_value_def(builtin))
        if self._data is not None:
            header.append(f"_DATA = {self._data!r}\n")
        source = "\n".join(header) + "\n" + "\n".join(body.lines) + "\n"
        return GeneratedModule(name, source, self.dialect)

    # -- declarations ----------------------------------------------------------

    def compile_decl(
        self,
        decl: ast.Decl,
        scope: dict[str, str],
        flat: frozenset[str] | None = None,
    ) -> None:
        """Compile one declaration into ``scope``.

        ``flat`` is None for a top-level declaration, whose functions
        keep their unversioned names (``GeneratedModule.call`` finds
        them by :func:`mangle`).  For a ``let`` declaration it names the
        let's functions that take flat parameters (:func:`_flat_funs`).
        """
        if isinstance(decl, (ast.DDatatype, ast.DTyperef, ast.DAssert,
                             ast.DTypeAbbrev, ast.DException)):
            return
        if isinstance(decl, ast.DVal):
            if isinstance(decl.pat, ast.PWild):
                self._emit_effect(decl.expr, scope)
                return
            value = self.compile_expr(decl.expr, scope)
            self._emit_irrefutable_bind(decl.pat, value, scope, decl.span)
            return
        if isinstance(decl, ast.DFun):
            # Pre-bind names so mutually recursive references resolve.
            for binding in decl.bindings:
                if flat is None:
                    scope[binding.name] = mangle(binding.name)
                    self._globals.add(scope[binding.name])
                elif binding.name in flat:
                    self._flat.add(self._fresh_name(binding.name, scope))
                else:
                    self._fresh_name(binding.name, scope)
            if self._in_loop:
                # Defs made in a loop body would see later iterations'
                # values of the loop's locals, so a factory fixes them.
                names = ", ".join(scope[b.name] for b in decl.bindings)

                def group() -> str:
                    for binding in decl.bindings:
                        self.compile_fun(binding, scope)
                    return names

                own = {scope[b.name] for b in decl.bindings}
                self.out.emit(f"{names} = {self._via_factory(group, scope, own)}")
                return
            for binding in decl.bindings:
                self.compile_fun(binding, scope)
            return
        raise AssertionError(f"unknown declaration {decl!r}")

    def _compile_let_decls(self, expr: ast.ELet, scope: dict[str, str]) -> dict[str, str]:
        """Compile a ``let``'s declarations; returns the body's scope."""
        inner = dict(scope)
        flat = _flat_funs(expr)
        for decl in expr.decls:
            self.compile_decl(decl, inner, flat)
        return inner

    def _via_factory(self, build, scope: dict[str, str],
                     own: frozenset[str] | set[str] = frozenset()) -> str:
        """Emit a factory def around the closure(s) ``build`` emits and
        returns; returns a call of it passing the current value of
        every local in ``scope`` (``own`` names are made inside)."""
        fname = f"_mk{next(self._temp)}"
        params = ", ".join(sorted(set(scope.values()) - own - self._globals))
        self.out.emit(f"def {fname}({params}):")
        in_loop, self._in_loop = self._in_loop, False
        with self.out.block():
            self.out.emit(f"return {build()}")
        self._in_loop = in_loop
        return f"{fname}({params})"

    def compile_fun(self, binding: ast.FunBinding, scope: dict[str, str]) -> None:
        name = scope[binding.name]
        arity = len(binding.clauses[0].params)
        in_loop, self._in_loop = self._in_loop, False
        self._emit_fun_levels(binding, name, arity, scope)
        self._in_loop = in_loop
        self.out.emit()

    def _emit_fun_levels(
        self,
        binding: ast.FunBinding,
        name: str,
        arity: int,
        scope: dict[str, str],
    ) -> None:
        """Emit nested defs for a curried function of given arity.

        A parameter position that is a tuple pattern of the same width
        in every clause is matched on one local per component.  A
        function with flat parameters takes those locals as its own
        parameters; otherwise the innermost def unpacks its tuple
        argument into them.
        """
        uid = next(self._temp)
        arg_names = [f"_a{uid}_{i + 1}" for i in range(arity)]
        self_loop = _is_self_tail_recursive(binding, arity)
        subjects: list[str | list[str]] = [
            self._component_locals(binding, pos, uid) or arg
            for pos, arg in enumerate(arg_names)
        ]
        flat = name in self._flat

        def emit_level(level: int) -> None:
            def_name = name if level == 0 else f"_curry{level}"
            params = subjects[0] if flat else [arg_names[level]]
            self.out.emit(f"def {def_name}({', '.join(params)}):")
            with self.out.block():
                if level + 1 < arity:
                    emit_level(level + 1)
                    self.out.emit(f"return _curry{level + 1}")
                else:
                    self._emit_clause_dispatch(
                        binding, name, arg_names, subjects, scope, self_loop,
                        uid, flat,
                    )

        emit_level(0)

    def _component_locals(self, binding: ast.FunBinding, pos: int,
                          uid: int) -> list[str]:
        """One local per component of a tuple-pattern parameter (empty
        if the position is not a tuple of one width in every clause).
        A component takes the name of the first clause's variable
        there, which every clause's variable at it then aliases."""
        pats = [clause.params[pos] for clause in binding.clauses]
        width = _tuple_width(pats)
        names = []
        for k in range(width):
            var = next((p.items[k] for p in pats
                        if isinstance(p.items[k], ast.PVar)), None)
            names.append(
                f"{mangle(var.name)}_{next(self._name_version)}"
                if var is not None else f"_c{uid}_{pos + 1}_{k + 1}"
            )
        return names

    def _emit_clause_dispatch(
        self,
        binding: ast.FunBinding,
        name: str,
        arg_names: list[str],
        subjects: list[str | list[str]],
        outer_scope: dict[str, str],
        self_loop: bool,
        uid: int,
        flat: bool,
    ) -> None:
        # Tuple positions are unpacked into their component locals
        # unless they arrived as flat parameters.  For a multi-parameter
        # loop the other outer curried parameters are closure variables
        # of enclosing defs and cannot be reassigned, so each gets a
        # fresh local loop variable; the innermost def's own parameter
        # is directly assignable.
        subjects = list(subjects)
        for pos, subject in enumerate(subjects):
            if isinstance(subject, list) and not flat:
                self.out.emit(f"{', '.join(subject)} = {arg_names[pos]}")
            elif self_loop and pos + 1 < len(subjects):
                subjects[pos] = f"_l{uid}_{pos + 1}"
                self.out.emit(f"{subjects[pos]} = {subject}")
        loop_ctx: tuple | None = None
        if self_loop:
            loop_ctx = (name, subjects)
            self.out.emit("while True:")
            self.out.indent += 1
            self._in_loop = True
        for params, body_expr in [(c.params, c.body) for c in binding.clauses]:
            scope = dict(outer_scope)
            conds: list[str] = []
            binds: list[tuple[str, str]] = []
            for pat, subject in zip(params, subjects):
                pairs = (zip(pat.items, subject) if isinstance(subject, list)
                         else [(pat, subject)])
                for item, local in pairs:
                    if isinstance(subject, list) and isinstance(item, ast.PVar):
                        scope[item.name] = local
                        continue
                    c, b = self._pattern_parts(item, local, scope)
                    conds.extend(c)
                    binds.extend(b)
            if conds:
                self.out.emit(f"if {' and '.join(conds)}:")
                with self.out.block():
                    for target, source in binds:
                        self.out.emit(f"{target} = {source}")
                    self._compile_stmt(body_expr, scope, loop_ctx)
            else:
                for target, source in binds:
                    self.out.emit(f"{target} = {source}")
                self._compile_stmt(body_expr, scope, loop_ctx)
                break  # irrefutable clause: no fallthrough possible
        else:
            args = [f"({', '.join(s)},)" if isinstance(s, list) else s
                    for s in subjects]
            ty = binding.ml_scheme.body
            shapes = []
            for _ in subjects:
                shapes.append(self._shape(ty.dom))
                ty = ty.cod
            self.out.emit(f'_clause_fail("{binding.name}", ({", ".join(args)},), '
                          f'({", ".join(shapes)},), _DATA)')
        if self_loop:
            self.out.indent -= 1
            self._in_loop = False

    # -- statements --------------------------------------------------------

    def _compile_stmt(
        self,
        expr: ast.Expr,
        scope: dict[str, str],
        loop_ctx: tuple | None,
    ) -> None:
        """Compile ``expr`` in tail position: emits ``return`` (or a
        loop ``continue`` for a self tail call)."""
        if isinstance(expr, ast.EIf):
            cond = self.compile_expr(expr.cond, scope)
            self.out.emit(f"if {cond}:")
            with self.out.block():
                self._compile_stmt(expr.then, dict(scope), loop_ctx)
            self.out.emit("else:")
            with self.out.block():
                self._compile_stmt(expr.els, dict(scope), loop_ctx)
            return
        if isinstance(expr, ast.ECase):
            scrutinee = self._ensure_atom(self.compile_expr(expr.scrutinee, scope))
            for pat, body in expr.clauses:
                branch_scope = dict(scope)
                conds, binds = self._pattern_parts(pat, scrutinee, branch_scope)
                self.out.emit(f"if {' and '.join(conds) if conds else 'True'}:")
                with self.out.block():
                    for target, source in binds:
                        self.out.emit(f"{target} = {source}")
                    self._compile_stmt(body, branch_scope, loop_ctx)
            self._emit_case_fail(expr, scrutinee)
            return
        if isinstance(expr, ast.ELet):
            inner = self._compile_let_decls(expr, scope)
            self._compile_stmt(expr.body, inner, loop_ctx)
            return
        if isinstance(expr, ast.ESeq):
            for item in expr.items[:-1]:
                self._emit_effect(item, scope)
            self._compile_stmt(expr.items[-1], scope, loop_ctx)
            return
        if isinstance(expr, ast.EAnnot):
            self._compile_stmt(expr.expr, scope, loop_ctx)
            return
        if isinstance(expr, ast.EHandle):
            self._compile_handle(
                expr, scope,
                lambda body, sc: self._compile_stmt(body, sc, None),
                lambda body, sc: self._compile_stmt(body, sc, loop_ctx),
            )
            return
        if loop_ctx is not None and isinstance(expr, ast.EApp):
            head, spine = _app_spine(expr)
            loop_name, subjects = loop_ctx
            if (
                isinstance(head, ast.EVar)
                and scope.get(head.name) == loop_name
                and len(spine) == len(subjects)
            ):
                self._emit_loop_step(spine, subjects, scope)
                return
        if self._is_statement_write(expr, scope):
            self._emit_effect(expr, scope)
            self.out.emit("return ()")
            return
        self.out.emit(f"return {self.compile_expr(expr, scope)}")

    def _emit_loop_step(self, spine: list[ast.Expr], subjects: list,
                        scope: dict[str, str]) -> None:
        """Saturated self tail call: one simultaneous (tuple) assignment
        of the loop locals that change — every item evaluates before
        any local changes — then re-enter the dispatch loop.  A tuple
        parameter takes a literal's items component-wise and unpacks
        any other argument."""
        targets: list[str] = []
        items: list[ast.Expr] = []
        for arg, subject in zip(spine, subjects):
            if isinstance(subject, str):
                targets.append(subject)
                items.append(arg)
            elif isinstance(arg, ast.ETuple):
                targets.extend(subject)
                items.extend(arg.items)
            else:
                targets.append(f"({', '.join(subject)})")
                items.append(arg)
        values = self._operands(items, scope)
        changed = [(t, v) for t, v in zip(targets, values) if t != v]
        if changed:
            self.out.emit(f"{', '.join(t for t, _ in changed)} = "
                          f"{', '.join(v for _, v in changed)}")
        self.out.emit("continue")

    def _is_statement_write(self, expr: ast.Expr,
                            scope: dict[str, str]) -> bool:
        """Is ``expr`` a write that compiles to statements where its unit
        is discarded: a kept one (an inline bound test, then the store)
        or an eliminated one the dialect can store directly?
        Instrumented builds keep their counters on the expression."""
        return (
            not self.instrument
            and isinstance(expr, ast.EApp)
            and isinstance(expr.fn, ast.EVar)
            and expr.fn.name in ("update", "updateCK")
            and expr.fn.name not in scope
            and isinstance(expr.arg, ast.ETuple)
            and (self._is_kept(expr.fn.name, expr)
                 or self.dialect.emit_store is not None)
        )

    def _emit_effect(self, expr: ast.Expr, scope: dict[str, str]) -> None:
        """Emit ``expr`` as a statement whose value is discarded."""
        if not self._is_statement_write(expr, scope):
            self.out.emit(self.compile_expr(expr, scope))
            return
        kept = self._is_kept(expr.fn.name, expr)
        # ``a[i] = v`` evaluates v first, and a kept write tests a and i
        # before v, so a and i (and a kept write's v) must be atoms.
        a, i, v = self._operands(expr.arg.items, scope, atoms=3 if kept else 2)
        if kept:
            self.out.emit(f"if not {self.dialect.emit_in_bounds(a, i)}:")
            with self.out.block():
                self.out.emit(f"_oob({a}, {i})")
        store = self.dialect.emit_store or self.dialect.emit_write
        self.out.emit(store(a, i, v))

    def _operands(self, exprs: list[ast.Expr], scope: dict[str, str],
                  atoms: int = 0) -> list[str]:
        """Compile one form's operands, left to right, to code that the
        form's line evaluates in order.

        A later operand that emits statements (a ``let``, ``case``,
        ``;`` or ``handle`` needs them) runs them before that line, so
        each earlier operand that is not simple (:func:`_is_simple`) is
        first bound to a temporary, in front of those statements.  The
        first ``atoms`` operands are bound whenever they are not simple:
        their form mentions them twice or Python evaluates them late.
        """
        codes: list[str] = []
        unbound: list[int] = []
        for k, expr in enumerate(exprs):
            mark = len(self.out.lines)
            code = self.compile_expr(expr, scope)
            if unbound and len(self.out.lines) > mark:
                emitted = self.out.lines[mark:]
                del self.out.lines[mark:]
                for j in unbound:
                    codes[j] = self._ensure_atom(codes[j])
                self.out.lines += emitted
                unbound = []
            if not _is_simple(expr, scope):
                if k < atoms:
                    code = self._ensure_atom(code)
                else:
                    unbound.append(k)
            codes.append(code)
        return codes

    def _pair(self, arg: ast.Expr, scope: dict[str, str]) -> list[str]:
        """The code of a pair argument's two items: a tuple literal's
        operands, or any other pair bound once and indexed."""
        if isinstance(arg, ast.ETuple) and len(arg.items) == 2:
            return self._operands(arg.items, scope)
        pair = self._ensure_atom(self.compile_expr(arg, scope))
        return [f"{pair}[0]", f"{pair}[1]"]

    # -- expressions --------------------------------------------------------

    def compile_expr(self, expr: ast.Expr, scope: dict[str, str]) -> str:
        if isinstance(expr, ast.EInt):
            return repr(expr.value)
        if isinstance(expr, ast.EBool):
            return "True" if expr.value else "False"
        if isinstance(expr, ast.EUnit):
            return "()"
        if isinstance(expr, ast.EVar):
            return self._compile_var(expr.name, scope)
        if isinstance(expr, ast.ECon):
            return self._compile_bare_con(expr.name)
        if isinstance(expr, ast.ETuple):
            items = self._operands(expr.items, scope)
            if len(items) == 1:
                return f"({items[0]},)"
            return "(" + ", ".join(items) + ")"
        if isinstance(expr, ast.EApp):
            return self._compile_app(expr, scope)
        if isinstance(expr, ast.EAndAlso):
            if _emits_statements(expr.right):
                return self._via_temp(expr, scope)
            left = self.compile_expr(expr.left, scope)
            right = self.compile_expr(expr.right, scope)
            return f"({left} and {right})"
        if isinstance(expr, ast.EOrElse):
            if _emits_statements(expr.right):
                return self._via_temp(expr, scope)
            left = self.compile_expr(expr.left, scope)
            right = self.compile_expr(expr.right, scope)
            return f"({left} or {right})"
        if isinstance(expr, ast.EIf):
            if not _emits_statements(expr):
                cond = self.compile_expr(expr.cond, scope)
                then = self.compile_expr(expr.then, dict(scope))
                els = self.compile_expr(expr.els, dict(scope))
                return f"({then} if {cond} else {els})"
            return self._via_temp(expr, scope)
        if isinstance(expr, (ast.ECase, ast.ELet, ast.ESeq)):
            return self._via_temp(expr, scope)
        if isinstance(expr, ast.EFn):
            return self._compile_fn(expr, scope)
        if isinstance(expr, ast.EAnnot):
            return self.compile_expr(expr.expr, scope)
        if isinstance(expr, ast.ERaise):
            return f"_raise({self.compile_expr(expr.expr, scope)})"
        if isinstance(expr, ast.EHandle):
            return self._via_temp(expr, scope)
        raise AssertionError(f"unknown expression {expr!r}")

    def _via_temp(self, expr: ast.Expr, scope: dict[str, str]) -> str:
        """Compile a statement-needing expression into a fresh local."""
        temp = f"_t{next(self._temp)}"
        self._compile_assign(expr, temp, scope)
        return temp

    def _compile_assign(self, expr: ast.Expr, target: str, scope: dict[str, str]) -> None:
        if isinstance(expr, ast.EIf):
            cond = self.compile_expr(expr.cond, scope)
            self.out.emit(f"if {cond}:")
            with self.out.block():
                self._compile_assign(expr.then, target, dict(scope))
            self.out.emit("else:")
            with self.out.block():
                self._compile_assign(expr.els, target, dict(scope))
            return
        if isinstance(expr, ast.ECase):
            scrutinee = self._ensure_atom(self.compile_expr(expr.scrutinee, scope))
            first = True
            for pat, body in expr.clauses:
                branch_scope = dict(scope)
                conds, binds = self._pattern_parts(pat, scrutinee, branch_scope)
                keyword = "if" if first else "elif"
                first = False
                self.out.emit(f"{keyword} {' and '.join(conds) if conds else 'True'}:")
                with self.out.block():
                    for tgt, source in binds:
                        self.out.emit(f"{tgt} = {source}")
                    self._compile_assign(body, target, branch_scope)
            self.out.emit("else:")
            with self.out.block():
                self._emit_case_fail(expr, scrutinee)
            return
        if isinstance(expr, ast.ELet):
            inner = self._compile_let_decls(expr, scope)
            self._compile_assign(expr.body, target, inner)
            return
        if isinstance(expr, ast.ESeq):
            for item in expr.items[:-1]:
                self._emit_effect(item, scope)
            self._compile_assign(expr.items[-1], target, scope)
            return
        if isinstance(expr, ast.EAndAlso):
            desugared = ast.EIf(expr.left, expr.right, ast.EBool(False),
                                span=expr.span)
            self._compile_assign(desugared, target, scope)
            return
        if isinstance(expr, ast.EOrElse):
            desugared = ast.EIf(expr.left, ast.EBool(True), expr.right,
                                span=expr.span)
            self._compile_assign(desugared, target, scope)
            return
        if isinstance(expr, ast.EHandle):
            self._compile_handle(
                expr, scope,
                lambda body, sc: self._compile_assign(body, target, sc),
                lambda body, sc: self._compile_assign(body, target, sc),
            )
            return
        self.out.emit(f"{target} = {self.compile_expr(expr, scope)}")

    def _compile_handle(self, expr, scope, compile_body, compile_handler):
        """try/except skeleton for ``e handle clauses``.

        ``compile_body`` runs inside the try (never loop-continues: the
        handler must stay armed around the whole evaluation);
        ``compile_handler`` compiles each arm (tail position is fine
        there — the handler is finished once an arm runs).
        """
        exc = f"_e{next(self._temp)}"
        self.out.emit("try:")
        with self.out.block():
            compile_body(expr.expr, dict(scope))
        self.out.emit(f"except _Raised as {exc}:")
        with self.out.block():
            value = f"{exc}.value"
            first = True
            for pat, body in expr.clauses:
                branch_scope = dict(scope)
                conds, binds = self._pattern_parts(pat, value, branch_scope)
                keyword = "if" if first else "elif"
                first = False
                self.out.emit(
                    f"{keyword} {' and '.join(conds) if conds else 'True'}:"
                )
                with self.out.block():
                    for tgt, source in binds:
                        self.out.emit(f"{tgt} = {source}")
                    compile_handler(body, branch_scope)
            self.out.emit("else:")
            with self.out.block():
                self.out.emit("raise")

    # -- application ---------------------------------------------------------

    def _compile_app(self, expr: ast.EApp, scope: dict[str, str]) -> str:
        fn = expr.fn
        if isinstance(fn, ast.ECon):
            return self._compile_con_app(fn.name, expr.arg, scope)
        if isinstance(fn, ast.EVar) and fn.name not in scope:
            name = fn.name
            if name in PRIMS:
                return self._compile_prim(name, expr.arg, scope)
            if name in CHECK_SITES or name in ALWAYS_CHECKED:
                return self._compile_access(name, expr, scope)
            if name == "length":
                return self.dialect.emit_length(
                    self.compile_expr(expr.arg, scope)
                )
            if name in ("array", "tabulate"):
                make = (self.dialect.emit_make if name == "array"
                        else self.dialect.emit_tabulate)
                return make(*self._pair(expr.arg, scope))
        if isinstance(fn, ast.EVar) and scope.get(fn.name) in self._flat:
            if isinstance(expr.arg, ast.ETuple):
                items = self._operands(expr.arg.items, scope)
                return f"{scope[fn.name]}({', '.join(items)})"
            return f"{scope[fn.name]}(*{self.compile_expr(expr.arg, scope)})"
        fn_code, arg_code = self._operands([fn, expr.arg], scope)
        return f"{parens(fn_code)}({arg_code})"

    def _compile_prim(self, name: str, arg: ast.Expr,
                      scope: dict[str, str]) -> str:
        """A primitive of :data:`PRIMS` applied to ``arg``."""
        if PRIMS[name][1] == 1:
            return self._prim_code(name, [self.compile_expr(arg, scope)])
        literal = (isinstance(arg, ast.ETuple)
                   and _nonzero_literal(arg.items[-1]))
        return self._prim_code(name, self._pair(arg, scope), literal)

    def _prim_code(self, name: str, codes: list[str],
                   literal_divisor: bool = False) -> str:
        """The row's template over ``codes``, or a call of its function
        (always for a division unless its divisor is a non-zero
        literal)."""
        fn, _, template = PRIMS[name]
        if template is None or (name in _DIVISIONS and not literal_divisor):
            return f"_{fn.__name__}({', '.join(codes)})"
        return template.format(*map(parens, codes))

    def _is_kept(self, name: str, expr: ast.EApp) -> bool:
        """Does this access keep its run-time check?"""
        site = getattr(expr, "site_id", None)
        return name in ALWAYS_CHECKED or site is None or site not in self.unchecked

    def _compile_access(self, name: str, expr: ast.EApp, scope: dict[str, str]) -> str:
        """sub/update/nth/hd/tl and their *CK variants."""
        base = name[:-2] if name.endswith("CK") else name
        kept = self._is_kept(name, expr)
        arg = expr.arg
        #: (code, simple) per operand; see :func:`_is_simple`.
        operands: list[tuple[str, bool]]
        if isinstance(arg, ast.ETuple):
            codes = self._operands(arg.items, scope)
            operands = [(code, code.isidentifier() or _is_simple(e, scope))
                        for code, e in zip(codes, arg.items)]
        else:
            packed = self._ensure_atom(self.compile_expr(arg, scope))
            arity = {"sub": 2, "update": 3, "nth": 2, "hd": 1, "tl": 1}[base]
            # A literal ``nil`` is not simple: ``None[0]`` is a
            # compile-time warning, so it binds a temporary.
            operands = ([(f"{packed}[{k}]", True) for k in range(arity)]
                        if arity > 1 else [(packed, packed != "None")])
        if kept:
            body = self._kept_access(base, operands)
        else:
            body = self._unchecked_access(base, [code for code, _ in operands])
        if self.instrument:
            return f"{'_cp' if kept else '_ce'}({body})"
        return body

    def _unchecked_access(self, base: str, parts: list[str]) -> str:
        if base == "sub":
            return self.dialect.emit_read(*parts)
        if base == "update":
            return self.dialect.emit_write(*parts)
        if base == "nth":
            return f"_nth_unchecked({parts[0]}, {parts[1]})"
        return f"{parens(parts[0])}[{0 if base == 'hd' else 1}]"

    def _kept_access(self, base: str, operands: list[tuple[str, bool]]) -> str:
        """A kept check as an expression: the unchecked access behind an
        inline test, ``(a[i] if len(a) > i >= 0 else _oob(a, i))`` for a
        read.  Simple operands are repeated in the test.  A read's other
        operand binds a temporary (``:=``) where the test first evaluates
        it; a write's keeps the ``_updc`` helper, since its value must be
        evaluated before the test.  ``nth`` walks the list in a helper."""
        codes = [code for code, _ in operands]
        if base == "nth":
            return f"_nth_checked({codes[0]}, {codes[1]})"
        if base == "update":
            if not all(simple for _, simple in operands):
                return f"_updc({', '.join(codes)})"
            a, i, v = codes
            return (f"({self.dialect.emit_write(a, i, v)} "
                    f"if {self.dialect.emit_in_bounds(a, i)} "
                    f"else _oob({a}, {i}))")
        binds, names = [], []
        for code, simple in operands:
            if simple:
                binds.append(code)
                names.append(code)
            else:
                temp = f"_t{next(self._temp)}"
                binds.append(f"({temp} := {code})")
                names.append(temp)
        if base == "sub":
            (a, i), (a_bind, i_bind) = names, binds
            return (f"({self.dialect.emit_guarded_read(a, i)} "
                    f"if {self.dialect.emit_in_bounds(a_bind, i_bind)} "
                    f"else _oob({a}, {i}))")
        (lst,), (lst_bind,) = names, binds
        field = 0 if base == "hd" else 1
        return (f"({parens(lst)}[{field}] if {lst_bind} is not None "
                f'else _empty("{base}"))')

    def _compile_con_app(self, con: str, arg: ast.Expr, scope: dict[str, str]) -> str:
        if con == "::":
            return "({}, {})".format(*self._pair(arg, scope))
        return f'("{con}", {self.compile_expr(arg, scope)})'

    def _compile_bare_con(self, con: str) -> str:
        info = self.env.constructor(con)
        if con == "nil":
            return "None"
        if con == "::":
            return "(lambda _p: (_p[0], _p[1]))"
        if info is not None and info.has_arg:
            return f'(lambda _x: ("{con}", _x))'
        return f'"{con}"'

    def _compile_var(self, name: str, scope: dict[str, str]) -> str:
        if name in scope:
            return scope[name]
        info = self.env.value(name)
        if info is not None and info.kind.name == "ASSERTED":
            self._value_builtins.add(name)
            return _builtin_value_name(name)
        # A top-level defined value.
        return mangle(name)

    def _compile_fn(self, expr: ast.EFn, scope: dict[str, str]) -> str:
        if self._in_loop:
            return self._via_factory(lambda: self._compile_fn(expr, scope), scope)
        if isinstance(expr.param, ast.PVar) and not _emits_statements(expr.body):
            inner = dict(scope)
            pname = self._fresh_name(expr.param.name, inner)
            body = self.compile_expr(expr.body, inner)
            return f"(lambda {pname}: {body})"
        # Hoist to a local def.
        fname = f"_fn{next(self._temp)}"
        inner = dict(scope)
        self.out.emit(f"def {fname}(_a):")
        with self.out.block():
            conds, binds = self._pattern_parts(expr.param, "_a", inner)
            if conds:
                self.out.emit(f"if not ({' and '.join(conds)}):")
                with self.out.block():
                    self.out.emit("_fn_fail()")
            for target, source in binds:
                self.out.emit(f"{target} = {source}")
            self._compile_stmt(expr.body, inner, None)
        return fname

    # -- patterns --------------------------------------------------------------

    def _pattern_parts(
        self, pat: ast.Pattern, subject: str, scope: dict[str, str]
    ) -> tuple[list[str], list[tuple[str, str]]]:
        """(conditions, bindings) for matching ``subject`` against
        ``pat``; bindings update ``scope`` with fresh Python names."""
        conds: list[str] = []
        binds: list[tuple[str, str]] = []

        def walk(p: ast.Pattern, subj: str) -> None:
            if isinstance(p, ast.PWild):
                return
            if isinstance(p, ast.PVar):
                binds.append((self._fresh_name(p.name, scope), subj))
                return
            if isinstance(p, ast.PInt):
                conds.append(f"{subj} == {p.value}")
                return
            if isinstance(p, ast.PBool):
                conds.append(subj if p.value else f"(not {subj})")
                return
            if isinstance(p, ast.PTuple):
                for k, item in enumerate(p.items):
                    walk(item, f"{subj}[{k}]")
                return
            if isinstance(p, ast.PCon):
                if p.name == "nil":
                    conds.append(f"{subj} is None")
                    return
                if p.name == "::":
                    conds.append(f"{subj} is not None")
                    assert isinstance(p.arg, ast.PTuple)
                    walk(p.arg.items[0], f"{subj}[0]")
                    walk(p.arg.items[1], f"{subj}[1]")
                    return
                info = self.env.constructor(p.name)
                if info is not None and info.has_arg:
                    conds.append(
                        f'(isinstance({subj}, tuple) and {subj}[0] == "{p.name}")'
                    )
                    if p.arg is not None:
                        walk(p.arg, f"{subj}[1]")
                else:
                    conds.append(f'{subj} == "{p.name}"')
                return
            raise AssertionError(f"unknown pattern {p!r}")

        walk(pat, subject)
        return conds, binds

    def _emit_irrefutable_bind(
        self, pat: ast.Pattern, value: str, scope: dict[str, str], span
    ) -> None:
        if isinstance(pat, ast.PVar):
            self.out.emit(f"{self._fresh_name(pat.name, scope)} = {value}")
            return
        if isinstance(pat, ast.PWild):
            self.out.emit(f"{value}")
            return
        temp = self._ensure_atom(value)
        conds, binds = self._pattern_parts(pat, temp, scope)
        if conds:
            self.out.emit(f"if not ({' and '.join(conds)}):")
            with self.out.block():
                self.out.emit(f"_bind_fail({span.start}, {span.end})")
        for target, source in binds:
            self.out.emit(f"{target} = {source}")

    def _emit_case_fail(self, expr: ast.ECase, scrutinee: str) -> None:
        shape = self._shape(expr.scrutinee.ml_type)
        self.out.emit(f"_case_fail({scrutinee}, {shape}, _DATA, "
                      f"{expr.span.start}, {expr.span.end})")

    def _shape(self, ty) -> str:
        """The literal :func:`value_shape` makes of ``ty``."""
        if self._data is None:
            self._data = {}
        return repr(value_shape(ty, self.env, self._data))

    # -- small helpers -----------------------------------------------------

    def _fresh_name(self, name: str, scope: dict[str, str]) -> str:
        fresh = f"{mangle(name)}_{next(self._name_version)}"
        scope[name] = fresh
        return fresh

    def _ensure_atom(self, code: str) -> str:
        """Bind non-atomic expressions to a temp so the caller can
        mention them more than once without re-evaluation."""
        if code.isidentifier() or code.isdigit() or code == "None":
            return code
        temp = f"_t{next(self._temp)}"
        self.out.emit(f"{temp} = {code}")
        return temp

    def _builtin_value_def(self, name: str) -> str:
        """The definition of a builtin used as a first-class value: a
        function of its argument that is the builtin's direct
        application to the argument's items."""
        if name in self._overrides:
            return self._overrides[name]
        arity = (PRIMS.get(name) or _VALUE_CALLS[name])[1]
        items = [f"_p[{k}]" for k in range(arity)] if arity > 1 else ["_p"]
        body = (self._prim_code(name, items) if name in PRIMS
                else f"{_VALUE_CALLS[name][0]}({', '.join(items)})")
        return f"{_builtin_value_name(name)} = lambda _p: {body}"


def value_shape(ty, env: GlobalEnv, data: dict) -> Any:
    """How compiled code represents a value of ML type ``ty``, as the
    literal :func:`repro.compile.support.show` reads: ``None`` (shown
    as it is), ``("*", item, ...)``, ``("array", item)``, ``("list",
    item)``, ``("fn",)`` or ``("data", key)``.  ``data[key]`` maps each
    constructor of the datatype instance ``key`` that takes an argument
    to its argument's shape; this function fills it in."""
    if isinstance(ty, ml.MLTuple):
        return ("*", *(value_shape(t, env, data) for t in ty.items))
    if isinstance(ty, ml.MLArrow):
        return ("fn",)
    if not isinstance(ty, ml.MLCon):
        return None
    if ty.name in ("array", "list"):
        return (ty.name, value_shape(ty.args[0], env, data))
    family = env.family(ty.name)
    if family is None or not family.constructors:
        return None
    key = str(ty)
    if key not in data:
        data[key] = cons = {}
        for tag in family.constructors:
            info = env.constructor(tag)
            if info.has_arg:
                con_ty = ml.subst_rigid(
                    erasure.erase(info.scheme.body),
                    dict(zip(info.scheme.tyvars, ty.args)))
                cons[tag] = value_shape(con_ty.dom, env, data)
    return ("data", key)


def _builtin_value_name(name: str) -> str:
    return "_v_" + "".join(c if c.isalnum() else f"_{ord(c)}" for c in name)


#: The other builtins as first-class values: name -> (the support
#: function that applies them, number of argument items).
_VALUE_CALLS = {
    "length": ("len", 1), "array": ("_mk_list", 2),
    "tabulate": ("_tab_list", 2), "sub": ("_subc", 2), "subCK": ("_subc", 2),
    "update": ("_updc", 3), "updateCK": ("_updc", 3),
    "nth": ("_nth_checked", 2), "nthCK": ("_nth_checked", 2),
    "hd": ("_hdc", 1), "hdCK": ("_hdc", 1), "tl": ("_tlc", 1),
    "tlCK": ("_tlc", 1),
}


def _is_simple(expr: ast.Expr, scope: dict[str, str]) -> bool:
    """Is ``expr`` a name, a literal or integer arithmetic over them?
    Its code cannot raise or have an effect, so a kept check may
    evaluate it again, or before an earlier operand."""
    while isinstance(expr, ast.EAnnot):
        expr = expr.expr
    if isinstance(expr, (ast.EVar, ast.EInt, ast.EBool)):
        return True
    if not (isinstance(expr, ast.EApp) and isinstance(expr.fn, ast.EVar)
            and expr.fn.name not in scope):
        return False
    op, arg = expr.fn.name, expr.arg
    if op == "~":
        return _is_simple(arg, scope)
    if not (isinstance(arg, ast.ETuple) and len(arg.items) == 2):
        return False
    left, right = arg.items
    if op in _DIVISIONS:  # only a non-zero literal divisor cannot raise
        return _nonzero_literal(right) and _is_simple(left, scope)
    return op in ("+", "-", "*") and all(
        _is_simple(e, scope) for e in arg.items)


def _nonzero_literal(expr: ast.Expr) -> bool:
    return isinstance(expr, ast.EInt) and expr.value != 0


def _emits_statements(expr: ast.Expr) -> bool:
    """Does compiling ``expr`` as an expression require statements?"""
    if isinstance(expr, (ast.ELet, ast.ECase, ast.ESeq)):
        return True
    if isinstance(expr, ast.EIf):
        return (
            _emits_statements(expr.cond)
            or _emits_statements(expr.then)
            or _emits_statements(expr.els)
        )
    if isinstance(expr, ast.EApp):
        # A builtin that takes its argument's items (an access, a pair
        # primitive, array/tabulate, ``::``) binds an argument that is
        # not a tuple literal or a name to a temporary: a statement.
        fn = expr.fn
        if not isinstance(expr.arg, (ast.ETuple, ast.EVar)) and (
            (isinstance(fn, ast.ECon) and fn.name == "::")
            or (isinstance(fn, ast.EVar)
                and (fn.name in CHECK_SITES or fn.name in ALWAYS_CHECKED
                     or fn.name in ("array", "tabulate")
                     or PRIMS.get(fn.name, (None, 1))[1] == 2))):
            return True
        return _emits_statements(expr.fn) or _emits_statements(expr.arg)
    if isinstance(expr, ast.ETuple):
        return any(_emits_statements(e) for e in expr.items)
    if isinstance(expr, (ast.EAndAlso, ast.EOrElse)):
        return _emits_statements(expr.left) or _emits_statements(expr.right)
    if isinstance(expr, ast.EFn):
        return not (isinstance(expr.param, ast.PVar)
                    and not _emits_statements(expr.body))
    if isinstance(expr, ast.EAnnot):
        return _emits_statements(expr.expr)
    if isinstance(expr, ast.ERaise):
        return _emits_statements(expr.expr)
    if isinstance(expr, ast.EHandle):
        return True
    return False


def _app_spine(expr: ast.Expr) -> tuple[ast.Expr, list[ast.Expr]]:
    """Unroll curried application: ``f a b c`` -> ``(f, [a, b, c])``."""
    args: list[ast.Expr] = []
    while isinstance(expr, ast.EApp):
        args.append(expr.arg)
        expr = expr.fn
    args.reverse()
    return expr, args


def _is_self_tail_recursive(binding: ast.FunBinding,
                            arity: int | None = None) -> bool:
    """Does the binding tail-call itself (and is thus loop-convertible)?

    Conservative: any *non-tail* self reference disables the loop
    transform (the name would still resolve, but we only rewrite pure
    tail loops); references to the name as a value, partial
    applications, and over-applications also disable it — only a
    *saturated* self-call (exactly ``arity`` arguments) in tail
    position becomes a ``continue``.  Below a binder that rebinds the
    name, occurrences refer to that binder, not to the function.
    """
    name = binding.name
    if arity is None:
        arity = len(binding.clauses[0].params)

    def rebinds(*pats: ast.Pattern) -> bool:
        return any(name in _pat_vars(p) for p in pats)

    # Every occurrence of ``name`` that refers to the binding must be a
    # saturated tail self-call: walk (expression, in tail position)
    # pairs, and fail on the first other occurrence.
    calls = 0
    todo = [(c.body, True) for c in binding.clauses if not rebinds(*c.params)]
    while todo:
        expr, tail = todo.pop()
        if isinstance(expr, ast.EVar):
            if expr.name == name:
                return False
        elif isinstance(expr, ast.EApp):
            head, args = _app_spine(expr)
            if isinstance(head, ast.EVar) and head.name == name:
                if not tail or len(args) != arity:
                    return False
                calls += 1
            else:
                todo.append((head, False))
            todo.extend((a, False) for a in args)
        elif isinstance(expr, ast.EIf):
            todo += [(expr.cond, False), (expr.then, tail), (expr.els, tail)]
        elif isinstance(expr, ast.ECase):
            todo.append((expr.scrutinee, False))
            todo.extend((body, tail) for pat, body in expr.clauses
                        if not rebinds(pat))
        elif isinstance(expr, ast.ELet):
            for decl in expr.decls:
                if isinstance(decl, ast.DVal):
                    todo.append((decl.expr, False))
                    if rebinds(decl.pat):
                        break
                elif isinstance(decl, ast.DFun):
                    if any(b.name == name for b in decl.bindings):
                        break
                    todo.extend((c.body, False) for b in decl.bindings
                                for c in b.clauses if not rebinds(*c.params))
            else:
                todo.append((expr.body, tail))
        elif isinstance(expr, ast.ESeq):
            todo.extend((e, False) for e in expr.items[:-1])
            todo.append((expr.items[-1], tail))
        elif isinstance(expr, ast.EFn):
            if not rebinds(expr.param):
                todo.append((expr.body, False))
        elif isinstance(expr, ast.EAnnot):
            todo.append((expr.expr, tail))
        elif isinstance(expr, ast.EHandle):
            # The handler stays armed around the body, so nothing
            # inside may become a loop continue.
            todo.append((expr.expr, False))
            todo.extend((body, False) for pat, body in expr.clauses
                        if not rebinds(pat))
        else:
            todo.extend((child, False) for child in _expr_children(expr))
    return calls > 0


def _pat_vars(pat: ast.Pattern) -> set[str]:
    """The variables a pattern binds."""
    if isinstance(pat, ast.PVar):
        return {pat.name}
    if isinstance(pat, ast.PTuple):
        return set().union(*map(_pat_vars, pat.items))
    if isinstance(pat, ast.PCon) and pat.arg is not None:
        return _pat_vars(pat.arg)
    return set()


def _tuple_width(pats: list[ast.Pattern]) -> int:
    """k if every pattern is a tuple pattern of k >= 2 items, else 0."""
    widths = {len(p.items) if isinstance(p, ast.PTuple) else 0 for p in pats}
    width = widths.pop()
    return width if not widths and width >= 2 else 0


def _flat_funs(let: ast.ELet) -> frozenset[str]:
    """The ``let``'s functions that take flat parameters.

    A function qualifies when it has one curried parameter, which is a
    tuple pattern of the same width k >= 2 in every clause, and every
    occurrence of its name in the let (declarations and body) is the
    function of a direct application, with nothing in the let binding
    the name again.  Any other function keeps the one-tuple interface.
    """
    names = {
        b.name for decl in let.decls if isinstance(decl, ast.DFun)
        for b in decl.bindings
        if len(b.clauses[0].params) == 1
        and _tuple_width([c.params[0] for c in b.clauses])
    }
    if not names:
        return frozenset()
    bad: set[str] = set()
    declared: set[str] = set()

    def binds(pats) -> None:
        for pat in pats:
            bad.update(_pat_vars(pat) & names)

    todo: list[ast.Expr] = [let]
    while todo:
        expr = todo.pop()
        if isinstance(expr, ast.EVar):
            if expr.name in names:
                bad.add(expr.name)
            continue
        if isinstance(expr, ast.EApp) and isinstance(expr.fn, ast.EVar):
            todo.append(expr.arg)  # a direct application
            continue
        if isinstance(expr, ast.EFn):
            binds([expr.param])
        elif isinstance(expr, (ast.ECase, ast.EHandle)):
            binds(pat for pat, _ in expr.clauses)
        elif isinstance(expr, ast.ELet):
            for decl in expr.decls:
                if isinstance(decl, ast.DVal):
                    binds([decl.pat])
                elif isinstance(decl, ast.DFun):
                    for binding in decl.bindings:
                        if binding.name in declared:  # bound a second time
                            bad.add(binding.name)
                        declared.add(binding.name)
                        for clause in binding.clauses:
                            binds(clause.params)
        todo.extend(_expr_children(expr))
    return frozenset(names - bad)


def _expr_children(expr: ast.Expr) -> list[ast.Expr]:
    if isinstance(expr, ast.EApp):
        return [expr.fn, expr.arg]
    if isinstance(expr, ast.ETuple):
        return list(expr.items)
    if isinstance(expr, ast.EIf):
        return [expr.cond, expr.then, expr.els]
    if isinstance(expr, (ast.EAndAlso, ast.EOrElse)):
        return [expr.left, expr.right]
    if isinstance(expr, ast.ELet):
        children: list[ast.Expr] = [expr.body]
        for decl in expr.decls:
            if isinstance(decl, ast.DVal):
                children.append(decl.expr)
            elif isinstance(decl, ast.DFun):
                children.extend(
                    clause.body
                    for binding in decl.bindings
                    for clause in binding.clauses
                )
        return children
    if isinstance(expr, ast.ECase):
        return [expr.scrutinee] + [body for _, body in expr.clauses]
    if isinstance(expr, ast.EFn):
        return [expr.body]
    if isinstance(expr, ast.ESeq):
        return list(expr.items)
    if isinstance(expr, ast.EAnnot):
        return [expr.expr]
    if isinstance(expr, ast.ERaise):
        return [expr.expr]
    if isinstance(expr, ast.EHandle):
        return [expr.expr] + [body for _, body in expr.clauses]
    return []


def compile_program(
    program: ast.Program,
    env: GlobalEnv,
    unchecked_sites: set[str] | None = None,
    name: str = "dml",
    instrument: bool = False,
    dialect: "str | Dialect" = "plain",
) -> GeneratedModule:
    """Compile an elaborated program to a loadable Python module."""
    return PyCodegen(env, unchecked_sites, instrument, dialect).compile_program(
        program, name
    )
