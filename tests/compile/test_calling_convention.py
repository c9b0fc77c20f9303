"""Differential tests of how compiled code passes arguments.

Tuple parameters of loops live in one local per component, known local
functions take flat parameters, and eliminated writes whose unit is
discarded are bare stores in ``plain``.  Every program here runs under
the interpreter with every check kept (the reference) and then, in
every available dialect, as the fully checked build and as the
plan-gated build.  Results, the arguments' final state and the class
of a raised exception must all agree, and the instrumented plan-gated
build must count the interpreter's checks.
"""

from __future__ import annotations

import copy

import pytest

from repro import api
from repro.compile import support
from repro.compile.dialects import available_dialects, get_dialect
from repro.compile.elim import plan_elimination
from repro.compile.pycodegen import compile_program
from repro.eval.interp import Interpreter
from repro.eval.runtime import RuntimeStats
from repro.lang.errors import RaisedException

DIALECTS = available_dialects()


def _outcome(thunk) -> tuple:
    try:
        return ("value", thunk())
    except Exception as exc:  # noqa: BLE001 - the class is the behaviour
        return ("error", type(exc).__name__)


def run_everywhere(source: str, entry: str, *args) -> tuple:
    """Check every engine against the interpreter; returns the
    interpreter's ``(kind, value-or-class, final args)``."""
    report = api.check(source, "<t>")
    interp_args = copy.deepcopy(args)
    reference = _outcome(
        lambda: Interpreter(report.program, set(), env=report.env)
        .call(entry, *interp_args)
    ) + (interp_args,)
    stats = RuntimeStats()
    if reference[0] == "value":
        Interpreter(report.program, report.eliminable_sites(), stats,
                    env=report.env).call(entry, *copy.deepcopy(args))
    for name in DIALECTS:
        dialect = get_dialect(name)
        plan = plan_elimination(report, dialect)
        for build, sites in (("checked", set()), ("gated", plan.unchecked)):
            module = compile_program(report.program, report.env, sites, "t",
                                     dialect=dialect)
            call_args = dialect.adapt_args(copy.deepcopy(args))
            got = _outcome(
                lambda: dialect.extract_value(module.call(entry, *call_args))
            ) + (dialect.extract_value(call_args),)
            assert got == reference, (name, build, module.source)
        if reference[0] == "value":
            counting = compile_program(report.program, report.env,
                                       plan.unchecked, "t", instrument=True,
                                       dialect=dialect)
            support.COUNTERS.reset()
            counting.call(entry, *dialect.adapt_args(copy.deepcopy(args)))
            assert (support.COUNTERS.performed, support.COUNTERS.eliminated) \
                == (stats.checks_performed, stats.checks_eliminated), name
    return reference


def value(source: str, entry: str, *args):
    kind, result, _ = run_everywhere(source, entry, *args)
    assert kind == "value", result
    return result


def error(source: str, entry: str, *args) -> str:
    kind, result, _ = run_everywhere(source, entry, *args)
    assert kind == "error"
    return result


SUM = """
fun sum(a) = let
  fun go(i, n, acc) = if i = n then acc else go(i + 1, n, acc + sub(a, i))
  where go <| {k:nat | k <= m} {i:nat | i <= k} int(i) * int(k) * int -> int
in go(0, length a, 0) end
where sum <| {m:nat} int array(m) -> int
"""

FILL = """
fun fill(a, v) = let
  fun go(i, n) =
    if i < n then (update(a, i, v + i); go(i + 1, n)) else ()
  where go <| {k:nat | k <= m} {i:nat | i <= k} int(i) * int(k) -> unit
in go(0, length a) end
where fill <| {m:nat} int array(m) * int -> unit
"""


class TestTupleLoops:
    def test_literal_tail_call(self):
        assert value(SUM, "sum", [3, 1, 4, 1, 5]) == 14

    def test_literal_tail_call_on_empty_array(self):
        assert value(SUM, "sum", []) == 0

    def test_tuple_variable_tail_call(self):
        source = """
        fun go(i, n) =
          if i >= n then i
          else let val p = (i + 3, n) in go p end
        """
        assert value(source, "go", (0, 10)) == 12

    def test_components_swap(self):
        # Both components read the old values: a sequential update
        # would make the second equal the first.
        source = """
        fun fib(n, a, b) = if n = 0 then a else fib(n - 1, b, a + b)
        """
        assert value(source, "fib", (30, 0, 1)) == 832040

    def test_unchanged_components(self):
        source = """
        fun go(i, n, a) = if i = n then sub(a, 0) + i else go(i + 1, n, a)
        where go <| {m:nat | m >= 1} {i:nat} int(i) * int * int array(m)
                    -> int
        """
        assert value(source, "go", (0, 5, [7])) == 12

    def test_no_component_changes(self):
        source = """
        fun go(i, n) = if i > 0 then i else if n > 0 then go(1, n) else 0
        """
        assert value(source, "go", (0, 4)) == 1

    def test_wildcard_component_whose_argument_raises(self):
        source = """
        exception Boom
        fun go(_, n) = if n = 0 then 7 else go(if n = 1 then raise Boom else 0, n - 1)
        """
        assert error(source, "go", (0, 3)) == "RaisedException"
        assert value(source, "go", (0, 0)) == 7

    def test_component_argument_raises_before_any_change(self):
        source = """
        fun go(i, a, x) = if i = 3 then x else go(i + 1, a, sub(a, i))
        """
        assert value(source, "go", (0, [1, 2, 3], 0)) == 3
        assert error(source, "go", (0, [1, 2], 0)) == "BoundsError"

    def test_eliminated_writes_become_stores(self):
        kind, result, (args,) = run_everywhere(FILL, "fill", ([0, 0, 0, 0], 10))
        assert (kind, result, args[0]) == ("value", (), [10, 11, 12, 13])

    def test_store_keeps_array_before_value_order(self):
        source = """
        exception Array
        exception Value
        fun pick(a, f) = if f then raise Array else a
        where pick <| {m:nat} int array(m) * bool -> int array(m)
        fun put(a, f, x) =
          (update(pick(a, f), 0, if x = 0 then raise Value else x); sub(a, 0))
        where put <| {m:nat | m >= 1} int array(m) * bool * int -> int
        """
        assert value(source, "put", ([5, 6], False, 9)) == 9
        assert error(source, "put", ([5, 6], True, 0)) == "RaisedException"
        # The store must raise the array expression's exception, not
        # the value's, although Python evaluates ``v`` in ``a[i] = v``
        # first.
        report = api.check(source, "<t>")
        module = compile_program(report.program, report.env,
                                 report.eliminable_sites(), "t")
        assert "[0] = " in module.source
        with pytest.raises(RaisedException) as raised:
            module.call("put", ([5, 6], True, 0))
        assert raised.value.value == "Array"


class TestRefutableClauses:
    def test_constant_component(self):
        source = """
        fun fact(0, acc) = acc
          | fact(n, acc) = fact(n - 1, acc * n)
        """
        assert value(source, "fact", (20, 1)) == 2432902008176640000

    def test_list_component(self):
        source = """
        fun len(nil, acc) = acc
          | len(x :: xs, acc) = len(xs, acc + x)
        fun main(n) = len(1 :: 2 :: 3 :: n :: nil, 0)
        """
        assert value(source, "main", 10) == 16

    def test_no_clause_matches(self):
        source = """
        fun f(0, x) = x
          | f(1, x) = f(0, x + 1)
        """
        assert value(source, "f", (1, 5)) == 6
        assert error(source, "f", (2, 5)) == "MatchFailure"

    def test_nested_tuple_component(self):
        source = """
        fun go((a, b), 0) = a * b
          | go((a, b), n) = go((b, a + 1), n - 1)
        """
        assert value(source, "go", ((2, 3), 3)) == 16


class TestCurriedLoops:
    def test_curried_tuple_position(self):
        source = """
        fun g (a, b) n = if n = 0 then a else g (b, a + b) (n - 1)
        """
        assert value(source, "g", (0, 1), 25) == 75025

    def test_curried_scalar_positions(self):
        source = """
        fun go a b c = if a = 0 then b - c else go (a - 1) (b + 1) b
        """
        assert value(source, "go", 6, 1, 0) == 1


HANOI = """
fun count(n) = let
  val moves = tabulate(1, fn i => 0)
  fun move(f, t) = update(moves, 0, sub(moves, 0) + f + t - f - t + 1)
  fun solve(k, f, t, v) =
    if k = 0 then ()
    else (solve(k - 1, f, v, t); move(f, t); solve(k - 1, v, t, f))
in (solve(n, 0, 1, 2); sub(moves, 0)) end
"""


class TestKnownLocals:
    def test_non_tail_recursion(self):
        assert value(HANOI, "count", 10) == 1023

    def test_mutual_recursion(self):
        source = """
        fun parity(x) = let
          fun even(n, k) = if n = 0 then k else odd(n - 1, k + 1)
          and odd(n, k) = if n = 0 then ~k else even(n - 1, k + 1)
        in (even(x, 0), odd(x, 0)) end
        """
        assert value(source, "parity", 7) == (-7, 7)

    def test_non_literal_argument(self):
        source = """
        fun f(x) = let
          fun add(a, b) = a * 10 + b
          val p = (x, 2)
        in add p + add(p) end
        """
        assert value(source, "f", 3) == 64

    def test_call_under_handle(self):
        source = """
        exception Big
        fun f(x) = let
          fun g(a, b) = if a > b then raise Big else a + b
        in g(x, 3) handle Big => 0 end
        """
        assert value(source, "f", 2) == 5
        assert value(source, "f", 9) == 0

    def test_over_application(self):
        source = """
        fun f(x) = let fun adder(a, b) = fn c => a + b + c in adder(x, 1) 2 end
        """
        assert value(source, "f", 4) == 7


class TestEscapingLocals:
    def test_passed(self):
        source = """
        fun f(x) = let
          fun add(a, b) = a + b
          fun app(g, y) = g(y, 1)
        in app(add, x) end
        """
        assert value(source, "f", 5) == 6

    def test_stored_in_a_tuple(self):
        source = """
        fun f(x) = let
          fun add(a, b) = a + b
          val (g, k) = (add, 3)
        in g(k, x) + add(x, x) end
        """
        assert value(source, "f", 4) == 15

    def test_returned(self):
        source = """
        fun mk(u) = let fun add(a, b) = a + b in add end
        fun main(x) = (mk ())(x, 2)
        """
        assert value(source, "main", 5) == 7

    def test_rebound_name(self):
        source = """
        fun f(x) = let
          fun add(a, b) = a + b
          val y = add(x, 1)
          fun add(a, b) = a * b
        in add(y, 3) end
        """
        assert value(source, "f", 2) == 9


class TestShadowingAndClosures:
    def test_inner_fun_reusing_the_loop_name(self):
        source = """
        fun go(i) = if i > 10 then i else let fun go(x) = x + 100 in go(i) end
        where go <| int -> int
        """
        assert value(source, "go", 3) == 103
        assert value(source, "go", 11) == 11

    def test_inner_fun_reusing_a_top_level_name(self):
        source = """
        fun f(x) = x + 1
        fun g(y) = let val a = f(y) fun f(z) = z * 2 in f(a) end
        """
        assert value(source, "g", 3) == 8

    def test_closure_made_in_a_loop(self):
        source = """
        fun mk(i, acc) = if i = 3 then acc else mk(i + 1, (fn u => i) :: acc)
        fun apply(l) = case l of nil => 0 | f :: r => f(()) + 10 * apply(r)
        fun main(u) = apply(mk(0, nil))
        """
        assert value(source, "main", ()) == 12

    def test_local_fun_made_in_a_loop(self):
        source = """
        fun mk(i, acc) =
          if i = 3 then acc
          else let val j = i * 2 fun get(u) = i + j in mk(i + 1, get :: acc) end
        fun apply(l) = case l of nil => 0 | f :: r => f(()) + 10 * apply(r)
        fun main(u) = apply(mk(0, nil))
        """
        assert value(source, "main", ()) == 36

    def test_closure_over_a_loop_local_passed_flat(self):
        source = """
        fun mk(i, acc) =
          if i = 3 then acc
          else let fun add(a, b) = a + b + i
               in mk(i + 1, (fn u => add(u, i)) :: acc) end
        fun apply(l) = case l of nil => 0 | f :: r => f(1) + 10 * apply(r)
        fun main(u) = apply(mk(0, nil))
        """
        assert value(source, "main", ()) == 135
