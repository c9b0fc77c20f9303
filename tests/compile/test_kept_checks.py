"""Kept checks: an inline bound test in front of the unchecked access.

In every dialect a kept ``sub``/``update``/``hd``/``tl`` compiles to the
dialect's unchecked access behind an inline test, not to a helper call.
These tests pin what that must preserve against the interpreter: the
exception and its message, the order in which the operands are
evaluated, and the dynamic check counts.  The same holds for the other
run-time faults (division by zero), for the operands of every
multi-operand form, and for each primitive of the shared table.
"""

from __future__ import annotations

import random

import pytest

from repro import api
from repro.compile import support
from repro.compile import workloads as wl
from repro.compile.dialects import available_dialects
from repro.compile.elim import plan_elimination
from repro.compile.pycodegen import compile_program
from repro.eval import values as rv
from repro.eval.interp import Interpreter
from repro.eval.runtime import RuntimeStats
from repro.fuzz.oracle import run_differential
from repro.lang.errors import DMLError
from repro.lang.prims import PRIMS

DIALECTS = available_dialects()

#: The programs of the ``compiled-run`` benchmark (Table 2 plus kmp).
TABLE2 = ("bcopy", "bsearch", "bubblesort", "hanoi", "kmp", "matmult",
          "queens", "quicksort")


@pytest.mark.parametrize("name", TABLE2)
def test_checked_build_calls_no_check_helper(name):
    """The speed-up this layout exists for: a fully checked ``plain``
    build tests bounds inline instead of calling a helper per access."""
    report = api.check_corpus(name)
    module = compile_program(report.program, report.env, set(), name)
    for helper in ("_subc(", "_updc(", "_hdc(", "_tlc("):
        assert helper not in module.source, helper


# -- run-time faults ----------------------------------------------------------

NEGATIVE_SIZES = """\
fun mk(n) = length(array(n - 5, 0))
fun tab(n) = length(tabulate(n - 5, fn i => i))
fun mk_value(n) = let val f = array in length(f(n - 5, 0)) end
fun tab_value(n) = let val f = tabulate in length(f(n - 5, fn i => i)) end
"""


@pytest.mark.parametrize("entry", ["mk", "tab", "mk_value", "tab_value"])
def test_negative_size_raises_in_every_engine(entry):
    result = run_differential(NEGATIVE_SIZES, name="sizes.dml",
                              entry=entry, args=(2,))
    assert result.outcomes["interp-checked"].error == "EvalError"
    assert result.ok, result.render()


CONSTRUCTORS = """\
fun mk(k) = (print_int k; fn i => i)
fun tab(n) = length(tabulate(n, mk 9))
fun guarded(c) = 1 + (if c > 0 then length(array(1 div 0, 0)) else 7)
"""


def test_constructor_operands_evaluate_once_in_place(capsys):
    """``array``'s operands are not hoisted out of a conditional, and
    ``tabulate`` evaluates its function once, not once per element."""
    result = run_differential(CONSTRUCTORS, name="ctor.dml",
                              entry="guarded", args=(0,))
    assert result.outcomes["interp-checked"].value == 8
    assert result.ok, result.render()
    report = api.check(CONSTRUCTORS, "ctor.dml")
    for dialect in DIALECTS:
        module = compile_program(report.program, report.env, set(), "ctor",
                                 dialect=dialect)
        for size in (0, 3):
            assert module.run("tab", size) == size
            assert capsys.readouterr().out == "9\n", (dialect, size)


FAULTS = """\
fun rd(i) = sub(array(2, 0), i)
fun wr(i) = update(array(2, 0), i, 1)
fun hd_nil(u) = hd(tl(1 :: nil))
fun tl_nil(u) = tl(tl(1 :: nil))
fun nth_of(n) = nth(1 :: 2 :: nil, n)
fun div_by(n) = 10 div n
fun mod_by(n) = 10 mod n
fun div_value(n) = let val f = op div in f(10, n) end
fun mod_value(n) = let val f = op mod in f(10, n) end
fun clause(0) = 1
fun case_of(n) = case n of 0 => 1
fun fn_pat(n) = (fn 0 => 1) n
fun val_pat(n) = let val 0 = n in 1 end
fun pair_case(n) = case (n :: nil, compare(n, 0)) of (nil, _) => 0
fun takes(f, g, a, 0) = 0
fun fn_args(n) = takes(clause, fn x => x, array(2, n), n)
"""

#: A read or write below 0 and at the length, hd/tl of nil, nth with a
#: negative index and past the end, division and modulus by zero,
#: direct and first-class, and a failed match of a ``fun`` clause, a
#: ``case`` (of an int, and of a list and a constructor in a tuple), an
#: ``fn`` and a ``val``, and a ``fun`` clause given a ``fun``, an ``fn``
#: and an array.
FAULT_CASES = [("rd", -1), ("rd", 2), ("wr", -1), ("wr", 2), ("hd_nil", 0),
               ("tl_nil", 0), ("nth_of", -1), ("nth_of", 2), ("div_by", 0),
               ("mod_by", 0), ("div_value", 0), ("mod_value", 0),
               ("clause", 2), ("case_of", 2), ("pair_case", 2),
               ("fn_pat", 2), ("val_pat", 2), ("fn_args", 2)]


def _error_line(thunk) -> str:
    with pytest.raises(DMLError) as info:
        thunk()
    return f"{type(info.value).__name__}: {info.value}"


@pytest.mark.parametrize("dialect", DIALECTS)
@pytest.mark.parametrize("entry,arg", FAULT_CASES)
def test_fault_message_matches_interpreter(dialect, entry, arg):
    report = api.check(FAULTS, "faults.dml")
    expected = _error_line(
        lambda: Interpreter(report.program, set(), env=report.env)
        .call(entry, arg))
    module = compile_program(report.program, report.env, set(), "faults",
                             dialect=dialect)
    assert _error_line(lambda: module.run(entry, arg)) == expected


# -- evaluation order ---------------------------------------------------------

ORDER = """\
fun arr(u) = (print_int 1; array(2, 0))
fun idx(i) = (print_int 2; i)
fun item(u) = (print_int 3; 7)
fun read(i) = sub(arr 0, idx i)
fun read_in_sum(i) = 1 + sub(arr 0, idx i)
fun write(i) = update(arr 0, idx i, item 0)
fun write_then(i) = (update(arr 0, idx i, item 0); 0)
fun write_bound(i) = let val u = update(arr 0, idx i, item 0) in 0 end
fun write_simple_index(i) = (update(arr 0, i, item 0); 0)
fun read_let(i) = sub(arr 0, let val j = idx i in j end)
fun write_let(i) =
  let val u = update(arr 0, let val j = idx i in j end, item 0) in 0 end
fun write_let_value(i) =
  let val u = update(arr 0, idx i, let val v = item 0 in v end) in 0 end
"""

#: Entry -> what its operands print, once each and in order, whether or
#: not the index is in bounds.
ORDER_PRINTS = {
    "read": "1\n2\n",
    "read_in_sum": "1\n2\n",
    "write": "1\n2\n3\n",
    "write_then": "1\n2\n3\n",
    "write_bound": "1\n2\n3\n",
    "write_simple_index": "1\n3\n",
    "read_let": "1\n2\n",
    "write_let": "1\n2\n3\n",
    "write_let_value": "1\n2\n3\n",
}


def _printed(capsys, thunk) -> tuple[str, str]:
    """(printed output, result or raised exception class)."""
    try:
        outcome = repr(thunk())
    except DMLError as exc:
        outcome = type(exc).__name__
    return capsys.readouterr().out, outcome


@pytest.mark.parametrize("dialect", DIALECTS)
@pytest.mark.parametrize("entry", sorted(ORDER_PRINTS))
def test_operands_evaluate_once_in_order(capsys, dialect, entry):
    report = api.check(ORDER, "order.dml")
    module = compile_program(report.program, report.env, set(), "order",
                             dialect=dialect)
    interp = Interpreter(report.program, set(), env=report.env)
    for index in (1, 2, -1):
        compiled = _printed(capsys, lambda: module.run(entry, index))
        interpreted = _printed(capsys, lambda: interp.call(entry, index))
        assert compiled[0] == interpreted[0] == ORDER_PRINTS[entry], index
        assert compiled[1] == interpreted[1], index
        assert (compiled[1] == "BoundsError") == (index != 1), index


EFFECTS = """\
datatype color = Red | Green of int
fun p(k) = (print_int k; k)
fun cur x y = x - y
fun tuple(u) = (p 1, let val j = p 2 in j end)
fun plus(u) = p 1 + (let val j = p 2 in j end)
fun curried(u) = cur (p 1) (let val j = p 2 in j end)
fun cons(u) = p 1 :: (let val j = p 2 in j end) :: nil
fun read(u) = sub(array(3, p 1), let val j = p 2 in j end)
fun loop(n, acc) =
  if n = 0 then acc else loop(p n - 1, let val j = p acc in j + 1 end)
fun twice(k) = (print_int k; (k, k))
fun branch_sum(c) = 1 + (if c > 0 then (op +) (twice c) else 0)
fun branch_array(c) = 1 + (if c > 0 then length(array (twice c)) else 0)
fun print_pair(u) = (print_int 7, 2)
fun print_bound(u) = let val r = print_bool true in r end
fun list_result(u) = 1 :: 2 :: nil
fun order_result(n) = compare(n, 3)
fun ctor_result(n) = if n > 0 then Green n else Red
"""

#: (entry, argument, what the interpreter prints).  Each multi-operand
#: form has a printing operand before a ``let`` operand; a branch not
#: taken runs none of its operands; the printing primitives evaluate to
#: unit; lists and constructors are results.
EFFECT_CASES = [
    ("tuple", 0, ("1", "2")), ("plus", 0, ("1", "2")),
    ("curried", 0, ("1", "2")), ("cons", 0, ("1", "2")),
    ("read", 0, ("1", "2")), ("loop", (2, 0), ("2", "0", "1", "1")),
    ("branch_sum", 0, ()), ("branch_sum", 2, ("2",)),
    ("branch_array", 0, ()), ("branch_array", 2, ("2",)),
    ("print_pair", 0, ("7",)), ("print_bound", 0, ("true",)),
    ("list_result", 0, ()), ("order_result", 2, ()),
    ("order_result", 3, ()), ("ctor_result", 3, ()), ("ctor_result", 0, ()),
]


@pytest.mark.parametrize("entry,arg,printed", EFFECT_CASES)
def test_engines_agree_on_effects_and_results(entry, arg, printed):
    result = run_differential(EFFECTS, name="effects.dml", entry=entry,
                              args=(arg,))
    assert result.outcomes["interp-checked"].printed == printed
    assert result.ok, result.render()


# -- the primitive table ------------------------------------------------------

#: Rows of the table whose operands are booleans; the others take ints.
BOOL_ROWS = ("not", "print_bool")
INTS = (-7, -2, 0, 1, 3)


def _table_entries() -> tuple[str, list[tuple[str, list]]]:
    """DML source applying every row of the table inline and as a
    first-class value; a row of two operands also takes the literals 3
    and ~3 as its second.  Returns the source and (entry, arguments)."""
    lines, entries = [], []
    for k, (name, (_, arity, _)) in enumerate(PRIMS.items()):
        if arity == 2:
            args = [(x, y) for x in INTS for y in INTS]
            forms = {f"i{k}": f"(op {name})(x, y)",
                     f"v{k}": f"let val f = op {name} in f(x, y) end",
                     f"p{k}": f"(op {name})(x, 3)",
                     f"n{k}": f"(op {name})(x, ~3)"}
            param = "(x, y)"
        else:
            args = [True, False] if name in BOOL_ROWS else list(INTS)
            forms = {f"i{k}": f"(op {name}) x",
                     f"v{k}": f"let val f = op {name} in f x end"}
            param = "x"
        for entry, body in forms.items():
            lines.append(f"fun {entry} {param} = {body}")
            entries.append((entry, args))
    return "\n".join(lines) + "\n", entries


def _run(capsys, thunk) -> tuple:
    """(value or error line, printed output); a constructor by its tag."""
    try:
        value = thunk()
    except DMLError as exc:
        value = f"{type(exc).__name__}: {exc}"
    return getattr(value, "con", value), capsys.readouterr().out


@pytest.mark.parametrize("dialect", DIALECTS)
def test_primitive_table_matches_interpreter(capsys, dialect):
    source, entries = _table_entries()
    report = api.check(source, "prims.dml")
    interp = Interpreter(report.program, set(), env=report.env)
    module = compile_program(report.program, report.env, set(), "prims",
                             dialect=dialect)
    for entry, args in entries:
        for arg in args:
            expected = _run(capsys, lambda: interp.call(entry, arg))
            assert _run(capsys, lambda: module.run(entry, arg)) == expected, (
                entry, arg)


# -- dynamic counts -----------------------------------------------------------


#: Tables 2 and 3: workload at ``scaled(64)`` -> (performed, eliminated)
#: checks of the checked build and of the plan-gated build.
COUNTS = {
    "bcopy": ((128, 0), (0, 128)),
    "binary search": ((438, 0), (0, 438)),
    "bubble sort": ((128, 0), (0, 128)),
    "hanoi towers": ((1016, 0), (254, 762)),
    "kmp": ((230, 0), (23, 207)),
    "list access": ((1024, 0), (0, 1024)),
    "matrix mult": ((216, 0), (0, 216)),
    "queen": ((37590, 0), (0, 37590)),
    "quick sort": ((1250, 0), (0, 1250)),
}


@pytest.mark.parametrize("display", sorted(COUNTS))
def test_instrumented_counts_match_interpreter(display):
    """``compile-and-run --counts`` reports the interpreter's performed
    and eliminated counts, for the checked and the plan-gated build,
    and they are the pinned ones.  Both engines compute the same
    result, and both builds leave the arguments in the same state."""
    workload = wl.WORKLOADS[display]
    params = workload.scaled(64)
    report = api.check_corpus(workload.program)
    builds = (set(), plan_elimination(report).unchecked)
    outcomes = []
    for unchecked, expected in zip(builds, COUNTS[display]):
        stats = RuntimeStats()
        interpreted = Interpreter(
            report.program, unchecked, stats, env=report.env).call(
            workload.entry,
            *workload.build(params, rv.from_pylist, random.Random(0)))
        module = compile_program(report.program, report.env, unchecked,
                                 workload.program, instrument=True)
        support.COUNTERS.reset()
        args = workload.build(params, support.from_pylist, random.Random(0))
        result = module.call(workload.entry, *args)
        assert (support.COUNTERS.performed, support.COUNTERS.eliminated) == (
            stats.checks_performed, stats.checks_eliminated) == expected
        assert result == interpreted
        assert workload.validate(result, params)
        outcomes.append((result, args))
    assert outcomes[0] == outcomes[1]
