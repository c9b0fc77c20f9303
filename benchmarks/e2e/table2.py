"""The ``compiled-run`` programs: inputs built from the seed, and the
known answer for each from a plain-Python reference implementation —
never from the compiler under test.

Sizes are fixed per program so that one fully checked run takes about
0.1 s on a 2-CPU x86-64 box under CPython 3.11 (the unchecked build is
faster by the program's elimination gain).  They are part of the
benchmark definition: changing one changes every number it reports.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from typing import Any, Callable

#: Known solution counts of the n-queens problem.
QUEENS_SOLUTIONS = {8: 92, 9: 352, 10: 724}


@dataclass(frozen=True)
class Case:
    """One program's input and its reference answer."""

    #: A fresh copy of the argument tuple for one call (the sorts and
    #: copies mutate their arguments).
    fresh: Callable[[], tuple]
    #: ``check(args, result)``: did the call that received ``args``
    #: leave the reference state and return the reference result?
    check: Callable[[tuple, Any], bool]


@dataclass(frozen=True)
class Program:
    name: str  # corpus program (``src/repro/programs/NAME.dml``)
    entry: str
    build: Callable[[random.Random], Case]


def _bcopy(rng: random.Random, size: int = 65_536, times: int = 6) -> Case:
    src = [rng.randrange(256) for _ in range(size)]
    expected = [0] * size
    expected[: len(src)] = src
    return Case(
        fresh=lambda: ((list(src), [0] * size, times),),
        check=lambda args, result: result == () and args[0][1] == expected,
    )


def _bsearch(rng: random.Random, size: int = 16_000, probes: int = 16_000) -> Case:
    arr = sorted(rng.sample(range(size * 4), size))
    keys = [rng.randrange(size * 4) for _ in range(probes)]

    def found(key: int) -> bool:
        i = bisect.bisect_left(arr, key)
        return i < len(arr) and arr[i] == key

    hits = sum(1 for key in keys if found(key))
    return Case(
        fresh=lambda: ((list(arr), list(keys)),),
        check=lambda args, result: result == hits,
    )


def _sort(size: int) -> Callable[[random.Random], Case]:
    def build(rng: random.Random) -> Case:
        arr = [rng.randrange(1_000_000) for _ in range(size)]
        expected = sorted(arr)
        return Case(
            fresh=lambda: (list(arr),),
            check=lambda args, result: result == () and args[0] == expected,
        )

    return build


def _matmult(rng: random.Random, dim: int = 70) -> Case:
    a = [[rng.randrange(100) for _ in range(dim)] for _ in range(dim)]
    b = [[rng.randrange(100) for _ in range(dim)] for _ in range(dim)]
    expected = [
        [sum(a[i][k] * b[k][j] for k in range(dim)) for j in range(dim)]
        for i in range(dim)
    ]
    return Case(
        fresh=lambda: (([r[:] for r in a], [r[:] for r in b],
                        [[0] * dim for _ in range(dim)]),),
        check=lambda args, result: result == () and args[0][2] == expected,
    )


def _queens(rng: random.Random, board: int = 9) -> Case:
    return Case(
        fresh=lambda: ([0] * board,),
        check=lambda args, result: result == QUEENS_SOLUTIONS[board],
    )


def _hanoi_state(disks: int) -> tuple[list[list[int]], list[int]]:
    poles = [[0] * disks for _ in range(3)]
    poles[0] = list(range(disks, 0, -1))
    return poles, [disks, 0, 0]


def _hanoi(rng: random.Random, disks: int = 17) -> Case:
    poles, tops = _hanoi_state(disks)

    def move(f: int, t: int) -> None:
        poles[t][tops[t]] = poles[f][tops[f] - 1]
        tops[f] -= 1
        tops[t] += 1

    def solve(k: int, f: int, t: int, v: int) -> None:
        if k:
            solve(k - 1, f, v, t)
            move(f, t)
            solve(k - 1, v, t, f)

    solve(disks, 0, 1, 2)

    def fresh() -> tuple:
        start, heights = _hanoi_state(disks)
        return ((start, heights, disks),)

    return Case(
        fresh=fresh,
        check=lambda args, result: (
            result == () and args[0][0] == poles and args[0][1] == tops
        ),
    )


def _kmp(rng: random.Random, size: int = 360_000, pattern: int = 16) -> Case:
    text = [rng.randrange(4) for _ in range(size)]
    pat = [rng.randrange(4) for _ in range(pattern)]
    # Planted near the end, so the scan covers (almost) the whole text
    # and the reference answer is an actual match position.
    at = size - 2 * pattern
    text[at: at + pattern] = pat
    expected = "".join(map(str, text)).find("".join(map(str, pat)))
    return Case(
        fresh=lambda: ((list(text), list(pat)),),
        check=lambda args, result: result == expected,
    )


PROGRAMS = (
    Program("bcopy", "bcopy_times", _bcopy),
    Program("bsearch", "bsearch_all", _bsearch),
    Program("bubblesort", "bubble_sort", _sort(640)),
    Program("matmult", "matmult", _matmult),
    Program("queens", "queens", _queens),
    Program("quicksort", "quicksort", _sort(16_000)),
    Program("hanoi", "hanoi", _hanoi),
    Program("kmp", "kmpMatch", _kmp),
)
