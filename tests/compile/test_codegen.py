"""Tests for the Python code generator."""

import pytest

from repro import api
from repro.compile import support
from repro.compile.pycodegen import compile_program, mangle
from repro.eval.interp import Interpreter
from repro.eval.values import from_pylist
from repro.lang.errors import BoundsError, MatchFailure, TagError


def build(source: str, eliminate: bool = True, instrument: bool = False):
    report = api.check(source, "<test>")
    sites = report.eliminable_sites() if eliminate else set()
    return report, compile_program(
        report.program, report.env, sites, "t", instrument=instrument
    )


class TestMangle:
    def test_plain(self):
        assert mangle("foo") == "d_foo"

    def test_prime(self):
        assert mangle("x'") == "d_x_q"

    def test_keyword(self):
        assert mangle("pass").isidentifier()

    def test_operator(self):
        assert mangle("+").isidentifier()


class TestExpressions:
    def test_arithmetic(self):
        _, mod = build("fun f(x) = (x + 3) * 2 - x div 2 + x mod 3")
        assert mod.call("f", 10) == 22

    def test_floor_division_matches_sml(self):
        _, mod = build("fun f(a, b) = (a div b, a mod b)")
        assert mod.call("f", (-7, 2)) == (-4, 1)

    def test_comparisons(self):
        _, mod = build("fun f(a, b) = (a < b, a <= b, a = b, a <> b)")
        assert mod.call("f", (2, 2)) == (False, True, True, False)

    def test_unary(self):
        _, mod = build("fun f(x) = (~x, abs(x), min(x, 1), max(x, 1))")
        assert mod.call("f", -3) == (3, 3, -3, 1)

    def test_if_expression_form(self):
        _, mod = build("fun f(x) = 1 + (if x > 0 then 10 else 20)")
        assert mod.call("f", 5) == 11
        assert mod.call("f", -5) == 21

    def test_if_statement_form_with_let(self):
        _, mod = build(
            "fun f(x) = if x > 0 then let val y = x * 2 in y + 1 end else 0"
        )
        assert mod.call("f", 3) == 7

    def test_let_in_argument_position(self):
        _, mod = build("fun g(y) = y + 1 fun f(x) = g(let val z = x in z * 2 end)")
        assert mod.call("f", 5) == 11

    def test_short_circuit(self):
        _, mod = build("fun f(x) = x > 0 andalso 10 div x > 1")
        assert mod.call("f", 0) is False
        assert mod.call("f", 4) is True

    def test_short_circuit_with_statement_rhs(self):
        _, mod = build(
            "fun f(x) = x > 0 andalso (let val y = 10 div x in y > 1 end)"
        )
        assert mod.call("f", 0) is False
        assert mod.call("f", 4) is True

    def test_sequence(self):
        _, mod = build("fun f(a) = (update(a, 0, 5); sub(a, 0) + 1)",
                       eliminate=False)
        assert mod.call("f", [0, 0]) == 6

    def test_shadowing(self):
        _, mod = build("fun f(x) = let val x = x + 1 val x = x * 2 in x end")
        assert mod.call("f", 5) == 12

    def test_branch_local_bindings_do_not_leak(self):
        _, mod = build(
            "fun f(b, x) = if b then let val y = 1 in x + y end "
            "else let val y = 100 in x + y end"
        )
        assert mod.call("f", (True, 0)) == 1
        assert mod.call("f", (False, 0)) == 100


class TestFunctions:
    def test_curried(self):
        _, mod = build("fun add x y z = x + y + z")
        assert mod.call("add", 1, 2, 3) == 6

    def test_partial_application(self):
        _, mod = build("fun add x y = x + y")
        add1 = mod.call("add", 1)
        assert add1(41) == 42

    def test_multi_clause(self):
        _, mod = build("fun f(0) = 100 | f(1) = 200 | f(n) = n * 2")
        assert [mod.call("f", i) for i in (0, 1, 5)] == [100, 200, 10]

    def test_match_failure(self):
        _, mod = build("fun f(0) = 1")
        with pytest.raises(MatchFailure):
            mod.call("f", 9)

    def test_tail_loop_constant_stack(self):
        _, mod = build(
            "fun loop(i, acc) = if i = 0 then acc else loop(i - 1, acc + i)"
        )
        n = 500_000
        assert mod.call("loop", (n, 0)) == n * (n + 1) // 2
        assert "while True:" in mod.source

    def test_non_tail_recursion_not_looped(self):
        _, mod = build("fun fact(n) = if n = 0 then 1 else n * fact(n - 1)")
        assert mod.call("fact", 10) == 3628800

    def test_mutual_recursion(self):
        _, mod = build(
            "fun even(n) = if n = 0 then true else odd(n - 1) "
            "and odd(n) = if n = 0 then false else even(n - 1)"
        )
        assert mod.call("even", 100) is True

    def test_fn_values(self):
        _, mod = build("fun f(x) = (fn y => y * 2) (x + 1)")
        assert mod.call("f", 4) == 10

    def test_builtin_as_value(self):
        _, mod = build(
            "fun fold f acc nil = acc | fold f acc (x::xs) = fold f (f(acc, x)) xs "
            "fun total(l) = fold (op +) 0 l"
        )
        assert mod.call("total", support.from_pylist([1, 2, 3, 4])) == 10

    def test_higher_order_compare(self):
        _, mod = build(
            "fun pick cmp (a, b) = case cmp(a, b) of "
            "LESS => a | EQUAL => a | GREATER => b "
            "fun smaller(a, b) = pick compare (a, b)"
        )
        assert mod.call("smaller", (5, 3)) == 3


class TestDatatypes:
    def test_nullary_constructors_are_tags(self):
        _, mod = build(
            "datatype color = RED | GREEN "
            "fun flip(RED) = GREEN | flip(GREEN) = RED"
        )
        assert mod.call("flip", "RED") == "GREEN"

    def test_unary_constructors_are_pairs(self):
        _, mod = build("fun get(SOME(x)) = x | get(NONE) = ~1")
        assert mod.call("get", ("SOME", 7)) == 7
        assert mod.call("get", "NONE") == -1

    def test_lists_are_cons_pairs(self):
        _, mod = build(
            "fun suml(nil) = 0 | suml(x::xs) = x + suml(xs)"
        )
        assert mod.call("suml", support.from_pylist([1, 2, 3])) == 6
        assert mod.call("suml", None) == 0

    def test_list_construction(self):
        _, mod = build("fun pair(x, y) = x :: y :: nil")
        assert mod.call("pair", (1, 2)) == (1, (2, None))

    def test_constructor_as_function_value(self):
        _, mod = build(
            "fun map f nil = nil | map f (x::xs) = f x :: map f xs "
            "fun wrap(l) = map SOME l"
        )
        result = mod.call("wrap", support.from_pylist([1]))
        assert result == (("SOME", 1), None)


class TestCheckCompilation:
    def test_unchecked_sub_is_bare_indexing(self):
        report, mod = build(
            "fun f(a) = sub(a, 0) where f <| {n:nat | n > 0} 'a array(n) -> 'a",
            eliminate=True,
        )
        assert "_oob(" not in mod.source
        assert mod.call("f", [42]) == 42

    def test_checked_sub_is_an_inline_bound_test(self):
        _, mod = build(
            "fun f(a, i) = sub(a, i) "
            "where f <| {n:nat} {i:nat | i < n} 'a array(n) * int(i) -> 'a",
            eliminate=False,
        )
        assert mod.call("f", ([7, 8], 1)) == 8
        for index in (2, -1):
            with pytest.raises(BoundsError):
                mod.call("f", ([7, 8], index))

    def test_checked_list_ops(self):
        _, mod = build("fun f(l) = (hdCK(l), tlCK(l))")
        assert mod.call("f", support.from_pylist([1, 2])) == (1, (2, None))
        with pytest.raises(TagError):
            mod.call("f", None)

    def test_nth_variants(self):
        report, mod = build(
            "fun f(l) = nth(l, 3) where f <| {n:nat | n > 3} int list(n) -> int"
        )
        assert "_nth_unchecked" in mod.source
        assert mod.call("f", support.from_pylist([0, 1, 2, 3, 4])) == 3

    def test_instrumented_counting(self):
        _, mod = build(
            "fun f(a) = sub(a, 0) + subCK(a, 1) "
            "where f <| {n:nat | n > 1} int array(n) -> int",
            eliminate=True, instrument=True,
        )
        support.COUNTERS.reset()
        assert mod.call("f", [10, 20]) == 30
        assert support.COUNTERS.eliminated == 1
        assert support.COUNTERS.performed == 1


class TestInterpAgreement:
    """The two execution engines agree on nontrivial programs."""

    PROGRAMS = [
        ("fun f(x) = let fun go(i, acc) = if i = 0 then acc "
         "else go(i - 1, acc * 2 + i) in go(x, 0) end", 10),
        ("fun f(n) = if n < 2 then n else f(n - 1) + f(n - 2)", 15),
        ("fun f(x) = (if x mod 2 = 0 then ~x else x) + min(x, 3)", 7),
    ]

    @pytest.mark.parametrize("source,arg", PROGRAMS)
    def test_agreement(self, source, arg):
        report = api.check(source, "<test>")
        interp = Interpreter(report.program, report.eliminable_sites(),
                             env=report.env)
        module = compile_program(
            report.program, report.env, report.eliminable_sites(), "t"
        )
        assert interp.call("f", arg) == module.call("f", arg)
