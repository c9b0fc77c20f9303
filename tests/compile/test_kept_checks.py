"""Kept checks: an inline bound test in front of the unchecked access.

In every dialect a kept ``sub``/``update``/``hd``/``tl`` compiles to the
dialect's unchecked access behind an inline test, not to a helper call.
These tests pin what that must preserve against the interpreter: the
exception and its message, the order in which the operands are
evaluated, and the dynamic check counts.
"""

from __future__ import annotations

import random

import pytest

from repro import api
from repro.bench import workloads as wl
from repro.compile import support
from repro.compile.dialects import available_dialects
from repro.compile.elim import plan_elimination
from repro.compile.pycodegen import compile_program
from repro.eval import values as rv
from repro.eval.interp import Interpreter
from repro.eval.runtime import RuntimeStats
from repro.fuzz.oracle import run_differential
from repro.lang.errors import DMLError

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
"""

#: A read or write below 0 and at the length, hd/tl of nil, and nth
#: with a negative index and past the end.
FAULT_CASES = [("rd", -1), ("rd", 2), ("wr", -1), ("wr", 2), ("hd_nil", 0),
               ("tl_nil", 0), ("nth_of", -1), ("nth_of", 2)]


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


# -- dynamic counts -----------------------------------------------------------


@pytest.mark.parametrize(
    "display",
    sorted(d for d, w in wl.WORKLOADS.items() if w.program in TABLE2))
def test_instrumented_counts_match_interpreter(display):
    """``compile-and-run --counts`` reports the interpreter's performed
    and eliminated counts, for the checked and the plan-gated build."""
    workload = wl.WORKLOADS[display]
    params = workload.scaled(64)
    report = api.check_corpus(workload.program)
    for unchecked in (set(), plan_elimination(report).unchecked):
        stats = RuntimeStats()
        Interpreter(report.program, unchecked, stats, env=report.env).call(
            workload.entry,
            *workload.build_with(params, rv.from_pylist, random.Random(0)))
        module = compile_program(report.program, report.env, unchecked,
                                 workload.program, instrument=True)
        support.COUNTERS.reset()
        module.call(
            workload.entry,
            *workload.build_with(params, support.from_pylist,
                                 random.Random(0)))
        assert (support.COUNTERS.performed, support.COUNTERS.eliminated) == (
            stats.checks_performed, stats.checks_eliminated)
