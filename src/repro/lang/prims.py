"""The pure primitives of the prelude, each defined once for both engines.

A row of :data:`PRIMS` holds the Python function that *is* the
primitive: the interpreter calls it (:func:`repro.eval.runtime.make_builtins`
wraps it as a builtin value) and compiled code calls it as
``_<function name>``.  Where a Python expression does the same, the row
also holds it as a template that compiled code inlines instead.  The
engines represent integers, booleans and unit alike, so one function
serves both.  ``compare`` returns its constructor's tag, which is how
compiled code represents a nullary constructor; the interpreter wraps
the tag as a constructor value.

``div`` and ``mod`` floor like Python's ``//`` and ``%`` (as SML's do),
but a zero divisor raises the interpreter's ``Div``/``Mod`` error, which
the bare operators do not: compiled code inlines them only when the
divisor is a non-zero literal.

``repro check`` does not import this module.
"""

from __future__ import annotations

import operator
from typing import Callable

from repro.lang.errors import division_error


def div(a: int, b: int) -> int:
    if b == 0:
        raise division_error("div")
    return a // b


def mod(a: int, b: int) -> int:
    if b == 0:
        raise division_error("mod")
    return a % b


def compare(a: int, b: int) -> str:
    """The tag of ``compare(a, b)``'s ``order`` constructor."""
    return "LESS" if a < b else "EQUAL" if a == b else "GREATER"


def print_int(n: int) -> tuple:
    print(n)
    return ()


def print_bool(b: bool) -> tuple:
    print("true" if b else "false")
    return ()


#: DML name -> (function, arity, inline template).  A function of arity
#: 2 takes a pair's two items.  A template is a Python expression over
#: the operands' code ``{0}`` and ``{1}``; None means compiled code
#: calls the function.
PRIMS: dict[str, tuple[Callable, int, str | None]] = {
    "+": (operator.add, 2, "({0} + {1})"),
    "-": (operator.sub, 2, "({0} - {1})"),
    "*": (operator.mul, 2, "({0} * {1})"),
    "div": (div, 2, "({0} // {1})"),
    "mod": (mod, 2, "({0} % {1})"),
    "~": (operator.neg, 1, "(-{0})"),
    "min": (min, 2, "min({0}, {1})"),
    "max": (max, 2, "max({0}, {1})"),
    "abs": (abs, 1, "abs({0})"),
    "=": (operator.eq, 2, "({0} == {1})"),
    "<>": (operator.ne, 2, "({0} != {1})"),
    "<": (operator.lt, 2, "({0} < {1})"),
    "<=": (operator.le, 2, "({0} <= {1})"),
    ">": (operator.gt, 2, "({0} > {1})"),
    ">=": (operator.ge, 2, "({0} >= {1})"),
    "not": (operator.not_, 1, "(not {0})"),
    "compare": (compare, 2, None),
    "print_int": (print_int, 1, None),
    "print_bool": (print_bool, 1, None),
}
