"""Recursive-descent parser for DML-lite.

The grammar follows Standard ML for the expression fragment and the
paper's concrete syntax for dependent annotations:

* ``{a:sort, b:sort | guard} ty`` — universal quantification (Pi),
* ``[a:sort | guard] ty`` — existential quantification (Sigma),
* ``assert name <| ty and ...``,
* ``typeref 'a list of nat with nil <| ... | :: <| ...``,
* ``fun('a){n:nat} f p = e where f <| ty``.

Index expressions support chained comparisons (``0 <= i < n`` denotes
the conjunction, as in the paper's "transparent abbreviations").
"""

from __future__ import annotations

from repro.indices import sorts as sorts_mod
from repro.indices import terms
from repro.indices.sorts import Sort, SubsetSort
from repro.indices.terms import IConst, IVar, IndexTerm
from repro.lang import ast
from repro.lang.errors import ParseError
from repro.lang.lexer import Token, tokenize
from repro.lang.source import SourceFile, Span

#: Binary comparison tokens usable in both expressions and indices.
_CMP_TOKENS = ("=", "<>", "<", "<=", ">", ">=")

#: Index functions callable with parenthesized arguments.
_INDEX_FUNCTIONS = {
    "min": (terms.imin, 2),
    "max": (terms.imax, 2),
    "abs": (terms.iabs, 1),
    "sgn": (terms.isgn, 1),
    "div": (terms.idiv, 2),
    "mod": (terms.imod, 2),
}

#: Tokens that can never start an expression; the application loop and
#: clause bodies stop on these.
_EXPR_STOPPERS = frozenset(
    {
        "EOF", ")", "]", "}", ",", ";", "|", "=>", "then", "else", "of",
        "in", "end", "where", "and", "fun", "val", "datatype", "typeref",
        "assert", "type", "with", "andalso", "orelse", ":", "handle",
        "exception",
        "=", "<>", "<", "<=", ">", ">=", "+", "-", "*", "div", "mod", "::",
        "->", "<|",
    }
)


class Parser:
    def __init__(self, source: SourceFile) -> None:
        self.source = source
        self.tokens = tokenize(source)
        self.pos = 0

    # -- token utilities -------------------------------------------------

    # ``advance`` never moves past the final EOF token, so
    # ``self.tokens[self.pos]`` is always the current token.

    def peek(self, offset: int = 0) -> Token:
        if not offset:
            return self.tokens[self.pos]
        index = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def at(self, kind: str) -> bool:
        return self.tokens[self.pos].kind == kind

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind != "EOF":
            self.pos += 1
        return token

    def expect(self, kind: str) -> Token:
        token = self.peek()
        if token.kind != kind:
            raise ParseError(
                f"expected {kind!r} but found {token.kind!r}", token.span
            )
        return self.advance()

    def accept(self, kind: str) -> Token | None:
        if self.at(kind):
            return self.advance()
        return None

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.peek().span)

    # -- program ----------------------------------------------------------

    def parse_program(self) -> ast.Program:
        start = self.peek().span
        decls: list[ast.Decl] = []
        while not self.at("EOF"):
            decls.append(self.parse_decl())
        span = start if not decls else start.merge(decls[-1].span)
        return ast.Program(decls, span=span)

    # -- declarations -------------------------------------------------------

    def parse_decl(self) -> ast.Decl:
        token = self.peek()
        if token.kind == "fun":
            return self.parse_fun_decl()
        if token.kind == "val":
            return self.parse_val_decl()
        if token.kind == "datatype":
            return self.parse_datatype_decl()
        if token.kind == "typeref":
            return self.parse_typeref_decl()
        if token.kind == "assert":
            return self.parse_assert_decl()
        if token.kind == "type":
            return self.parse_type_abbrev()
        if token.kind == "exception":
            return self.parse_exception_decl()
        raise self.error(f"expected a declaration, found {token.kind!r}")

    def parse_fun_decl(self) -> ast.DFun:
        start = self.expect("fun").span
        bindings = [self.parse_fun_binding()]
        while self.accept("and"):
            bindings.append(self.parse_fun_binding())
        return ast.DFun(bindings, span=start.merge(bindings[-1].span))

    def parse_fun_binding(self) -> ast.FunBinding:
        start = self.peek().span
        typarams: list[str] = []
        ixparams: list[ast.Binder] = []
        # fun('a,'b){n:nat} name ...
        if self.at("(") and self.peek(1).kind == "TYVAR":
            self.advance()
            typarams.append(self.expect("TYVAR").text)
            while self.accept(","):
                typarams.append(self.expect("TYVAR").text)
            self.expect(")")
        while self.at("{"):
            binders, guard = self.parse_binder_group()
            if guard is not None:
                # Fold a group guard into the last binder's sort.
                last = binders[-1]
                binders[-1] = ast.Binder(
                    last.name,
                    SubsetSort(last.name, last.sort, guard),
                    span=last.span,
                )
            ixparams.extend(binders)
        name = self.expect("ID").text
        clauses = [self.parse_fun_clause()]
        while self.at("|"):
            self.advance()
            other = self.expect("ID")
            if other.text != name:
                raise ParseError(
                    f"clause name {other.text!r} does not match {name!r}",
                    other.span,
                )
            clauses.append(self.parse_fun_clause())
        where_type: ast.SType | None = None
        if self.at("where"):
            self.advance()
            where_name = self.expect("ID")
            if where_name.text != name:
                raise ParseError(
                    f"'where' annotates {where_name.text!r}, expected {name!r}",
                    where_name.span,
                )
            self.expect("<|")
            where_type = self.parse_type()
        end_span = clauses[-1].span if where_type is None else where_type.span
        return ast.FunBinding(
            name, typarams, ixparams, clauses, where_type, span=start.merge(end_span)
        )

    def parse_fun_clause(self) -> ast.Clause:
        start = self.peek().span
        params = [self.parse_atomic_pattern()]
        while not self.at("="):
            params.append(self.parse_atomic_pattern())
        self.expect("=")
        body = self.parse_expr()
        return ast.Clause(params, body, span=start.merge(body.span))

    def parse_val_decl(self) -> ast.DVal:
        start = self.expect("val").span
        pat = self.parse_pattern()
        where_type: ast.SType | None = None
        if self.accept(":"):
            where_type = self.parse_type()
        self.expect("=")
        expr = self.parse_expr()
        return ast.DVal(pat, expr, where_type, span=start.merge(expr.span))

    def parse_datatype_decl(self) -> ast.DDatatype:
        start = self.expect("datatype").span
        tyvars = self.parse_tyvar_seq()
        name = self.expect("ID").text
        self.expect("=")
        constructors = [self.parse_condef()]
        while self.accept("|"):
            constructors.append(self.parse_condef())
        return ast.DDatatype(
            name, tyvars, constructors, span=start.merge(constructors[-1].span)
        )

    def parse_condef(self) -> ast.ConDef:
        token = self.peek()
        if token.kind in {"ID", "::"}:
            self.advance()
        else:
            raise self.error("expected a constructor name")
        arg: ast.SType | None = None
        if self.accept("of"):
            arg = self.parse_type()
        span = token.span if arg is None else token.span.merge(arg.span)
        return ast.ConDef(token.text, arg, span=span)

    def parse_typeref_decl(self) -> ast.DTyperef:
        start = self.expect("typeref").span
        self.parse_tyvar_seq()  # documentation only; arity checked later
        tycon = self.expect("ID").text
        self.expect("of")
        sorts = [self.parse_sort()]
        while self.accept(","):
            sorts.append(self.parse_sort())
        self.expect("with")
        clauses = [self.parse_refclause()]
        while self.accept("|"):
            clauses.append(self.parse_refclause())
        return ast.DTyperef(tycon, sorts, clauses, span=start.merge(clauses[-1].span))

    def parse_refclause(self) -> ast.RefClause:
        token = self.peek()
        if token.kind in {"ID", "::"}:
            self.advance()
        else:
            raise self.error("expected a constructor name in typeref clause")
        self.expect("<|")
        ty = self.parse_type()
        return ast.RefClause(token.text, ty, span=token.span.merge(ty.span))

    def parse_assert_decl(self) -> ast.DAssert:
        start = self.expect("assert").span
        items = [self.parse_assert_item()]
        while self.accept("and"):
            items.append(self.parse_assert_item())
        return ast.DAssert(items, span=start)

    def parse_assert_item(self) -> tuple[str, ast.SType]:
        token = self.peek()
        if token.kind in {"ID", "::", "+", "-", "*", "div", "mod", "=", "<>",
                          "<", "<=", ">", ">=", "~", "not"}:
            self.advance()
        else:
            raise self.error("expected an identifier to assert a type for")
        self.expect("<|")
        ty = self.parse_type()
        return token.text, ty

    def parse_type_abbrev(self) -> ast.DTypeAbbrev:
        start = self.expect("type").span
        name = self.expect("ID").text
        self.expect("=")
        ty = self.parse_type()
        return ast.DTypeAbbrev(name, ty, span=start.merge(ty.span))

    def parse_exception_decl(self) -> ast.DException:
        start = self.expect("exception").span
        name = self.expect("ID")
        arg: ast.SType | None = None
        if self.accept("of"):
            arg = self.parse_type()
        end = arg.span if arg is not None else name.span
        return ast.DException(name.text, arg, span=start.merge(end))

    def parse_tyvar_seq(self) -> list[str]:
        if self.at("TYVAR"):
            return [self.advance().text]
        if self.at("(") and self.peek(1).kind == "TYVAR":
            self.advance()
            names = [self.expect("TYVAR").text]
            while self.accept(","):
                names.append(self.expect("TYVAR").text)
            self.expect(")")
            return names
        return []

    # -- types ---------------------------------------------------------------

    def parse_type(self) -> ast.SType:
        token = self.peek()
        if token.kind == "{":
            binders, guard = self.parse_binder_group()
            body = self.parse_type()
            return ast.STyPi(binders, guard, body, span=token.span.merge(body.span))
        if token.kind == "[":
            binders, guard = self.parse_binder_group()
            body = self.parse_type()
            return ast.STySig(binders, guard, body, span=token.span.merge(body.span))
        return self.parse_arrow_type()

    def parse_binder_group(self) -> tuple[list[ast.Binder], IndexTerm | None]:
        """``{a:sort, b:sort | guard}`` or the ``[...]`` variant."""
        opener = self.advance()
        closer = "}" if opener.kind == "{" else "]"
        binders = [self.parse_binder()]
        guard: IndexTerm | None = None
        while True:
            if self.accept(","):
                binders.append(self.parse_binder())
                continue
            if self.accept("|"):
                guard = self.parse_index_expr()
            break
        self.expect(closer)
        return binders, guard

    def parse_binder(self) -> ast.Binder:
        name_token = self.expect("ID")
        self.expect(":")
        sort = self.parse_sort()
        return ast.Binder(name_token.text, sort, span=name_token.span)

    def parse_sort(self) -> Sort:
        token = self.peek()
        if token.kind == "ID":
            known = sorts_mod.named_sort(token.text)
            if known is None:
                raise ParseError(f"unknown sort {token.text!r}", token.span)
            self.advance()
            return known
        if token.kind == "{":
            self.advance()
            name = self.expect("ID").text
            self.expect(":")
            parent = self.parse_sort()
            self.expect("|")
            prop = self.parse_index_expr()
            self.expect("}")
            return SubsetSort(name, parent, prop)
        raise self.error("expected a sort (int, bool, nat, or {a:sort | b})")

    def parse_arrow_type(self) -> ast.SType:
        dom = self.parse_tuple_type()
        if self.accept("->"):
            cod = self.parse_type()
            return ast.STyArrow(dom, cod, span=dom.span.merge(cod.span))
        return dom

    def parse_tuple_type(self) -> ast.SType:
        first = self.parse_app_type()
        if not self.at("*"):
            return first
        items = [first]
        while self.accept("*"):
            items.append(self.parse_app_type())
        return ast.STyTuple(items, span=first.span.merge(items[-1].span))

    def parse_app_type(self) -> ast.SType:
        ty = self.parse_atomic_type()
        while self.at("ID"):
            name_token = self.advance()
            iargs = self.parse_optional_iargs()
            tyargs = list(ty.items) if isinstance(ty, _TyArgs) else [ty]
            ty = ast.STyCon(
                name_token.text, tyargs, iargs, span=ty.span.merge(name_token.span)
            )
        if isinstance(ty, _TyArgs):
            raise ParseError("dangling type argument list", ty.span)
        return ty

    def parse_atomic_type(self) -> ast.SType:
        token = self.peek()
        if token.kind == "TYVAR":
            self.advance()
            return ast.STyVar(token.text, span=token.span)
        if token.kind == "ID":
            self.advance()
            iargs = self.parse_optional_iargs()
            return ast.STyCon(token.text, [], iargs, span=token.span)
        if token.kind == "(":
            self.advance()
            if self.accept(")"):
                return ast.STyTuple([], span=token.span)
            first = self.parse_type()
            if self.at(","):
                items = [first]
                while self.accept(","):
                    items.append(self.parse_type())
                close = self.expect(")")
                # (ty1, ty2) must be followed by a tycon name.
                return _TyArgs(items, span=token.span.merge(close.span))
            self.expect(")")
            return first
        raise self.error("expected a type")

    def parse_optional_iargs(self) -> list[IndexTerm]:
        """Index arguments directly after a tycon name: ``int(n+1)``."""
        if not self.at("("):
            return []
        self.advance()
        args = [self.parse_index_expr()]
        while self.accept(","):
            args.append(self.parse_index_expr())
        self.expect(")")
        return args

    # -- index expressions ------------------------------------------------

    def parse_index_expr(self) -> IndexTerm:
        return self.parse_index_or()

    def parse_index_or(self) -> IndexTerm:
        left = self.parse_index_and()
        while self.accept("\\/"):
            right = self.parse_index_and()
            left = terms.bor(left, right)
        return left

    def parse_index_and(self) -> IndexTerm:
        left = self.parse_index_not()
        while self.accept("/\\"):
            right = self.parse_index_not()
            left = terms.band(left, right)
        return left

    def parse_index_not(self) -> IndexTerm:
        if self.accept("not"):
            return terms.bnot(self.parse_index_not())
        return self.parse_index_cmp()

    def parse_index_cmp(self) -> IndexTerm:
        """A sum, or a chain of comparisons: ``0 <= i < n`` conjoins."""
        first = self.parse_index_sum()
        if self.peek().kind not in _CMP_TOKENS:
            return first
        props: list[IndexTerm] = []
        left = first
        while self.peek().kind in _CMP_TOKENS:
            op = self.advance().kind
            right = self.parse_index_sum()
            props.append(terms.cmp(op, left, right))
            left = right
        return terms.conj(props)

    def parse_index_sum(self) -> IndexTerm:
        left = self.parse_index_product()
        while self.peek().kind in {"+", "-"}:
            op = self.advance().kind
            right = self.parse_index_product()
            left = terms.iadd(left, right) if op == "+" else terms.isub(left, right)
        return left

    def parse_index_product(self) -> IndexTerm:
        left = self.parse_index_unary()
        while self.peek().kind in {"*", "div", "mod"}:
            op = self.advance().kind
            right = self.parse_index_unary()
            if op == "*":
                left = terms.imul(left, right)
            elif op == "div":
                left = terms.idiv(left, right)
            else:
                left = terms.imod(left, right)
        return left

    def parse_index_unary(self) -> IndexTerm:
        if self.peek().kind in {"-", "~"}:
            self.advance()
            return terms.ineg(self.parse_index_unary())
        return self.parse_index_atom()

    def parse_index_atom(self) -> IndexTerm:
        token = self.peek()
        if token.kind == "INT":
            self.advance()
            return IConst(int(token.text))
        if token.kind == "true":
            self.advance()
            return terms.TRUE
        if token.kind == "false":
            self.advance()
            return terms.FALSE
        if token.kind in {"div", "mod"} and self.peek(1).kind == "(":
            # Function-call syntax for the keyword operators: mod(i, 4).
            self.advance()
            fn, arity = _INDEX_FUNCTIONS[token.kind]
            self.advance()  # "("
            args = [self.parse_index_expr()]
            while self.accept(","):
                args.append(self.parse_index_expr())
            self.expect(")")
            if len(args) != arity:
                raise ParseError(
                    f"{token.kind} expects {arity} argument(s)", token.span
                )
            return fn(*args)
        if token.kind == "ID":
            self.advance()
            if token.text in _INDEX_FUNCTIONS and self.at("("):
                fn, arity = _INDEX_FUNCTIONS[token.text]
                self.advance()
                args = [self.parse_index_expr()]
                while self.accept(","):
                    args.append(self.parse_index_expr())
                self.expect(")")
                if len(args) != arity:
                    raise ParseError(
                        f"{token.text} expects {arity} argument(s)", token.span
                    )
                return fn(*args)
            return IVar(token.text)
        if token.kind == "(":
            self.advance()
            inner = self.parse_index_expr()
            self.expect(")")
            return inner
        raise self.error("expected an index expression")

    # -- patterns ------------------------------------------------------------

    def parse_pattern(self) -> ast.Pattern:
        left = self.parse_applied_pattern()
        if self.accept("::"):
            right = self.parse_pattern()
            return ast.PCon(
                "::",
                ast.PTuple([left, right], span=left.span.merge(right.span)),
                span=left.span.merge(right.span),
            )
        return left

    def parse_applied_pattern(self) -> ast.Pattern:
        """An identifier applied to an atomic pattern is a constructor
        pattern (``SOME(m, x)``); a lone identifier stays a variable
        until name resolution decides."""
        token = self.peek()
        if token.kind == "ID" and self.peek(1).kind in {"(", "ID", "INT", "_",
                                                        "true", "false"}:
            self.advance()
            arg = self.parse_atomic_pattern()
            return ast.PCon(token.text, arg, span=token.span.merge(arg.span))
        return self.parse_atomic_pattern()

    def parse_atomic_pattern(self) -> ast.Pattern:
        token = self.peek()
        if token.kind == "_":
            self.advance()
            return ast.PWild(span=token.span)
        if token.kind == "INT":
            self.advance()
            return ast.PInt(int(token.text), span=token.span)
        if token.kind in {"-", "~"} and self.peek(1).kind == "INT":
            self.advance()
            number = self.advance()
            return ast.PInt(-int(number.text), span=token.span.merge(number.span))
        if token.kind == "true":
            self.advance()
            return ast.PBool(True, span=token.span)
        if token.kind == "false":
            self.advance()
            return ast.PBool(False, span=token.span)
        if token.kind == "ID":
            self.advance()
            return ast.PVar(token.text, span=token.span)
        if token.kind == "(":
            self.advance()
            if self.accept(")"):
                return ast.PTuple([], span=token.span)
            items = [self.parse_pattern()]
            while self.accept(","):
                items.append(self.parse_pattern())
            close = self.expect(")")
            if len(items) == 1:
                return items[0]
            return ast.PTuple(items, span=token.span.merge(close.span))
        raise self.error("expected a pattern")

    # -- expressions -----------------------------------------------------------

    def parse_expr(self) -> ast.Expr:
        token = self.peek()
        if token.kind == "if":
            self.advance()
            cond = self.parse_expr()
            self.expect("then")
            then = self.parse_expr()
            self.expect("else")
            els = self.parse_expr()
            return self._maybe_handle(
                ast.EIf(cond, then, els, span=token.span.merge(els.span))
            )
        if token.kind == "case":
            self.advance()
            scrutinee = self.parse_expr()
            self.expect("of")
            self.accept("|")  # optional leading bar
            clauses = [self.parse_case_clause()]
            while self.accept("|"):
                clauses.append(self.parse_case_clause())
            return self._maybe_handle(
                ast.ECase(
                    scrutinee, clauses,
                    span=token.span.merge(clauses[-1][1].span),
                )
            )
        if token.kind == "let":
            self.advance()
            decls: list[ast.Decl] = []
            while not self.at("in"):
                decls.append(self.parse_decl())
            self.expect("in")
            body = self.parse_let_body()
            end = self.expect("end")
            return self._maybe_handle(
                ast.ELet(decls, body, span=token.span.merge(end.span))
            )
        if token.kind == "fn":
            self.advance()
            param = self.parse_pattern()
            self.expect("=>")
            body = self.parse_expr()
            return self._maybe_handle(
                ast.EFn(param, body, span=token.span.merge(body.span))
            )
        if token.kind == "raise":
            self.advance()
            exn = self.parse_expr()
            return ast.ERaise(exn, span=token.span.merge(exn.span))
        return self._maybe_handle(self.parse_orelse())

    def _maybe_handle(self, expr: ast.Expr) -> ast.Expr:
        """``e handle p => e' | ...`` binds loosest of all operators."""
        if not self.at("handle"):
            return expr
        self.advance()
        self.accept("|")
        clauses = [self.parse_case_clause()]
        while self.accept("|"):
            clauses.append(self.parse_case_clause())
        return ast.EHandle(
            expr, clauses, span=expr.span.merge(clauses[-1][1].span)
        )

    def parse_let_body(self) -> ast.Expr:
        first = self.parse_expr()
        if not self.at(";"):
            return first
        items = [first]
        while self.accept(";"):
            items.append(self.parse_expr())
        return ast.ESeq(items, span=first.span.merge(items[-1].span))

    def parse_case_clause(self) -> tuple[ast.Pattern, ast.Expr]:
        pat = self.parse_pattern()
        self.expect("=>")
        body = self.parse_expr()
        return pat, body

    def parse_orelse(self) -> ast.Expr:
        left = self.parse_andalso()
        while self.accept("orelse"):
            right = self.parse_andalso()
            left = ast.EOrElse(left, right, span=left.span.merge(right.span))
        return left

    def parse_andalso(self) -> ast.Expr:
        left = self.parse_cmp_expr()
        while self.accept("andalso"):
            right = self.parse_cmp_expr()
            left = ast.EAndAlso(left, right, span=left.span.merge(right.span))
        return left

    def parse_cmp_expr(self) -> ast.Expr:
        left = self.parse_cons_expr()
        if self.peek().kind in _CMP_TOKENS:
            op = self.advance().kind
            right = self.parse_cons_expr()
            return _binop(op, left, right)
        return left

    def parse_cons_expr(self) -> ast.Expr:
        left = self.parse_additive()
        if self.accept("::"):
            right = self.parse_cons_expr()  # right associative
            span = left.span.merge(right.span)
            return ast.EApp(
                ast.ECon("::", span=span),
                ast.ETuple([left, right], span=span),
                span=span,
            )
        return left

    def parse_additive(self) -> ast.Expr:
        left = self.parse_multiplicative()
        while self.peek().kind in {"+", "-"}:
            op = self.advance().kind
            right = self.parse_multiplicative()
            left = _binop(op, left, right)
        return left

    def parse_multiplicative(self) -> ast.Expr:
        left = self.parse_unary()
        while self.peek().kind in {"*", "div", "mod"}:
            op = self.advance().kind
            right = self.parse_unary()
            left = _binop(op, left, right)
        return left

    def parse_unary(self) -> ast.Expr:
        token = self.peek()
        if token.kind in {"~", "-"}:
            self.advance()
            arg = self.parse_unary()
            span = token.span.merge(arg.span)
            if isinstance(arg, ast.EInt):
                return ast.EInt(-arg.value, span=span)
            return ast.EApp(ast.EVar("~", span=token.span), arg, span=span)
        if token.kind == "not":
            self.advance()
            arg = self.parse_unary()
            span = token.span.merge(arg.span)
            return ast.EApp(ast.EVar("not", span=token.span), arg, span=span)
        return self.parse_application()

    def parse_application(self) -> ast.Expr:
        fn = self.parse_atom()
        while not self.peek().kind in _EXPR_STOPPERS and self._starts_atom():
            arg = self.parse_atom()
            fn = ast.EApp(fn, arg, span=fn.span.merge(arg.span))
        return fn

    def _starts_atom(self) -> bool:
        return self.peek().kind in {"INT", "ID", "true", "false", "("}

    def parse_atom(self) -> ast.Expr:
        token = self.peek()
        if token.kind == "INT":
            self.advance()
            return ast.EInt(int(token.text), span=token.span)
        if token.kind == "true":
            self.advance()
            return ast.EBool(True, span=token.span)
        if token.kind == "false":
            self.advance()
            return ast.EBool(False, span=token.span)
        if token.kind == "ID":
            self.advance()
            return ast.EVar(token.text, span=token.span)
        if token.kind == "op":
            # SML's `op` turns an infix into a value: `op +`.
            self.advance()
            op_token = self.advance()
            return ast.EVar(op_token.text, span=token.span.merge(op_token.span))
        if token.kind == "(":
            self.advance()
            if self.accept(")"):
                return ast.EUnit(span=token.span)
            first = self.parse_expr()
            if self.at(","):
                items = [first]
                while self.accept(","):
                    items.append(self.parse_expr())
                close = self.expect(")")
                return ast.ETuple(items, span=token.span.merge(close.span))
            if self.at(";"):
                items = [first]
                while self.accept(";"):
                    items.append(self.parse_expr())
                close = self.expect(")")
                return ast.ESeq(items, span=token.span.merge(close.span))
            if self.accept(":"):
                ty = self.parse_type()
                close = self.expect(")")
                return ast.EAnnot(first, ty, span=token.span.merge(close.span))
            self.expect(")")
            return first
        raise self.error(f"expected an expression, found {token.kind!r}")


class _TyArgs(ast.SType):
    """Internal marker for ``(ty1, ty2)`` awaiting a tycon name."""

    def __init__(self, items: list[ast.SType], span: Span) -> None:
        super().__init__(span=span)
        self.items = items


def _binop(op: str, left: ast.Expr, right: ast.Expr) -> ast.Expr:
    span = left.span.merge(right.span)
    return ast.EApp(
        ast.EVar(op, span=span),
        ast.ETuple([left, right], span=span),
        span=span,
    )


def parse_program(text: str, name: str = "<input>") -> ast.Program:
    """Parse a whole program from source text."""
    return Parser(SourceFile(text, name)).parse_program()


def parse_expression(text: str, name: str = "<expr>") -> ast.Expr:
    """Parse a single expression (test helper)."""
    parser = Parser(SourceFile(text, name))
    expr = parser.parse_expr()
    parser.expect("EOF")
    return expr


def parse_type(text: str, name: str = "<type>") -> ast.SType:
    """Parse a single type (test helper)."""
    parser = Parser(SourceFile(text, name))
    ty = parser.parse_type()
    parser.expect("EOF")
    return ty
