"""Seeded inputs for the corpus programs ``compile-and-run`` times.

Each workload names a corpus program, its entry function and a seeded
argument builder.  Size presets:

* ``small`` and ``default`` — scaled down for CPython (the paper's
  substrate was compiled SML; generated Python is roughly 100x slower
  per operation, so the inputs shrink while keeping their shape);
* ``paper`` — the sizes of Section 4 (1M-byte copies, 2^20 arrays,
  256x256 matrices, ...);
* ``huge`` — >= 2^21 elements on the linear array workloads (and
  complexity-bounded sizes for the quadratic, cubic and exponential
  ones).

A workload can also be sized by a single element count ``n`` via
:meth:`Workload.scaled` (the CLI's ``--scale N``): ``n`` is the
primary array size for linear workloads, and super-linear workloads
derive a size whose total operation count is roughly ``n``.

Arguments are built fresh per call (the sorts mutate their input);
``mklist`` builds a list in the caller's representation.
"""

from __future__ import annotations

import math
import random
from typing import Any, Callable

from repro.records import record

#: Workload sizes: name -> {preset: parameters}.
SIZES: dict[str, dict[str, dict[str, int]]] = {
    "bcopy": {
        "small": {"bytes": 4_096, "times": 1},
        "default": {"bytes": 65_536, "times": 3},
        "paper": {"bytes": 1_048_576, "times": 10},
        "huge": {"bytes": 2_097_152, "times": 1},
    },
    "bsearch": {
        "small": {"size": 1_024, "probes": 512},
        "default": {"size": 16_384, "probes": 16_384},
        "paper": {"size": 1_048_576, "probes": 1_048_576},
        "huge": {"size": 2_097_152, "probes": 2_097_152},
    },
    "bubblesort": {
        "small": {"size": 96},
        "default": {"size": 512},
        "paper": {"size": 8_192},
        "huge": {"size": 2_048},
    },
    "matmult": {
        "small": {"dim": 10},
        "default": {"dim": 48},
        "paper": {"dim": 256},
        "huge": {"dim": 128},
    },
    "queens": {
        "small": {"board": 6},
        "default": {"board": 8},
        "paper": {"board": 12},
        "huge": {"board": 10},
    },
    "quicksort": {
        "small": {"size": 1_024},
        "default": {"size": 16_384},
        "paper": {"size": 1_048_576},
        "huge": {"size": 2_097_152},
    },
    "hanoi": {
        "small": {"disks": 8},
        "default": {"disks": 14},
        "paper": {"disks": 24},
        "huge": {"disks": 21},
    },
    "listaccess": {
        "small": {"length": 64, "times": 256},
        "default": {"length": 64, "times": 16_384},
        "paper": {"length": 64, "times": 1_048_576},
        "huge": {"length": 64, "times": 2_097_152},
    },
    "kmp": {
        "small": {"text": 4_096, "pattern": 6},
        "default": {"text": 65_536, "pattern": 8},
        "paper": {"text": 1_048_576, "pattern": 8},
        "huge": {"text": 2_097_152, "pattern": 8},
    },
}

PRESETS = ("small", "default", "paper", "huge")

#: ``--scale N`` -> preset-style parameters.  ``n`` is the primary
#: array size for the linear workloads; the super-linear ones derive a
#: size whose *total operation count* is roughly ``n`` (bubble sort
#: O(size^2), matmult O(dim^3), hanoi O(2^disks), queens bounded by
#: the largest board with a known solution count).
SCALED: dict[str, Callable[[int], dict[str, int]]] = {
    "bcopy": lambda n: {"bytes": n, "times": 1},
    "bsearch": lambda n: {"size": n, "probes": n},
    "bubblesort": lambda n: {"size": max(2, math.isqrt(n))},
    "matmult": lambda n: {"dim": max(2, round(n ** (1 / 3)))},
    "queens": lambda n: {"board": min(12, max(4, n.bit_length()))},
    "quicksort": lambda n: {"size": n},
    "hanoi": lambda n: {"disks": min(30, max(1, n.bit_length()))},
    "listaccess": lambda n: {"length": 64, "times": n},
    # Pattern 16 over the 4-symbol alphabet: ~4^16 positions per
    # expected match, so a random text of any benchmark size is scanned
    # end to end instead of exiting on an early hit.
    "kmp": lambda n: {"text": n, "pattern": 16},
}

SEED = 19980617  # PLDI '98, Montreal


@record
class Workload:
    """One workload: program + entry point + argument builder."""

    name: str
    program: str
    entry: str
    #: build(params, mklist, rng) -> the arguments of ``entry``.
    build: Callable[[dict[str, int], Callable[[list], Any], random.Random],
                    tuple]
    #: Optional result validator (result, params) -> bool.
    validate: Callable[[Any, dict[str, int]], bool] = lambda r, p: True

    def params(self, preset: str = "default") -> dict[str, int]:
        return dict(SIZES[self.program][preset])

    def scaled(self, n: int) -> dict[str, int]:
        """Parameters for a single element-count knob (``--scale N``)."""
        return SCALED[self.program](n)


def _build_bcopy(p, mklist, rng):
    src = [rng.randrange(256) for _ in range(p["bytes"])]
    dst = [0] * p["bytes"]
    return ((src, dst, p["times"]),)


def _build_bsearch(p, mklist, rng):
    arr = sorted(rng.sample(range(p["size"] * 4), p["size"]))
    keys = [rng.randrange(p["size"] * 4) for _ in range(p["probes"])]
    return ((arr, keys),)


def _build_bubble(p, mklist, rng):
    arr = [rng.randrange(1_000_000) for _ in range(p["size"])]
    return ((arr),)


def _build_matmult(p, mklist, rng):
    d = p["dim"]
    a = [[rng.randrange(100) for _ in range(d)] for _ in range(d)]
    b = [[rng.randrange(100) for _ in range(d)] for _ in range(d)]
    c = [[0] * d for _ in range(d)]
    return ((a, b, c),)


def _build_queens(p, mklist, rng):
    return (([0] * p["board"]),)


def _build_quicksort(p, mklist, rng):
    arr = [rng.randrange(1_000_000) for _ in range(p["size"])]
    return ((arr),)


def _build_hanoi(p, mklist, rng):
    n = p["disks"]
    poles = [[0] * n for _ in range(3)]
    poles[0] = list(range(n, 0, -1))
    tops = [n, 0, 0]
    return ((poles, tops, n),)


def _build_listaccess(p, mklist, rng):
    data = mklist([rng.randrange(1000) for _ in range(p["length"])])
    return ((data, p["times"]),)


def _build_kmp(p, mklist, rng):
    text = [rng.randrange(4) for _ in range(p["text"])]
    pattern = [rng.randrange(4) for _ in range(p["pattern"])]
    return ((text, pattern),)


_QUEENS_SOLUTIONS = {4: 2, 5: 10, 6: 4, 7: 40, 8: 92, 9: 352, 10: 724,
                     11: 2680, 12: 14200}

#: Display name -> workload; the comments give the paper's Section 4
#: workload, which the ``paper`` preset sizes.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in [
        # copy 1M bytes of data 10 times in a byte-by-byte style
        Workload("bcopy", "bcopy", "bcopy_times", _build_bcopy),
        # look for 2^20 random numbers in a random array of size 2^20
        Workload("binary search", "bsearch", "bsearch_all", _build_bsearch),
        # sort a randomly generated array of size 2^13
        Workload("bubble sort", "bubblesort", "bubble_sort", _build_bubble),
        # multiply two random arrays of size 256 x 256
        Workload("matrix mult", "matmult", "matmult", _build_matmult),
        # chessboard of size 12 x 12
        Workload(
            "queen", "queens", "queens", _build_queens,
            validate=lambda r, p: r == _QUEENS_SOLUTIONS.get(p["board"], r),
        ),
        # sort a random integer array of size 2^20
        Workload("quick sort", "quicksort", "quicksort", _build_quicksort),
        # 24 disks
        Workload("hanoi towers", "hanoi", "hanoi", _build_hanoi),
        # access the first sixteen elements of a random list 2^20 times
        Workload("list access", "listaccess", "access_times",
                 _build_listaccess),
        # Figure 5's program; not in the paper's tables
        Workload("kmp", "kmp", "kmpMatch", _build_kmp),
    ]
}
