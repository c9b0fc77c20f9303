"""Benchmark workloads reproducing Section 4's experimental setup.

Each workload names a corpus program, the entry function, and a seeded
argument builder.  Size presets:

* ``default`` — scaled down so the whole harness runs in a couple of
  minutes under CPython (the paper's substrate was compiled SML on
  1990s hardware; ours is generated Python, roughly 100x slower per
  operation, so we shrink the inputs while preserving shape);
* ``paper`` — the sizes reported in Section 4 (1M-byte copies, 2^20
  arrays, 256x256 matrices, ...), for patient reproduction runs;
* ``huge`` — ≥2^21 elements on the linear array workloads (and
  complexity-bounded sizes for the quadratic/cubic/exponential ones),
  for dialect benchmarking where per-access deltas need scale.

A workload can also be sized by a single element count ``n`` via
:meth:`Workload.scaled` (the CLI's ``--scale N``): ``n`` is the
primary array size for linear workloads, and super-linear workloads
derive a size whose total operation count is roughly ``n``.

Arguments are built fresh per call (the sorts mutate their input).
Lists are delivered in each backend's representation via the
``convert_lists`` hook.
"""

from __future__ import annotations

import math
import random
from typing import Any, Callable

from repro.compile import support
from repro.eval import values as rv
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

#: Workloads (display names) dominated by per-element array accesses —
#: the ones where the checked-vs-unchecked delta is the signal, not
#: noise.  The dialect benchmarks key their pass/fail claims on these.
ACCESS_DENSE = ("bcopy", "binary search", "quick sort", "kmp")

SEED = 19980617  # PLDI '98, Montreal


@record
class Workload:
    """One benchmark: program + entry point + argument builder."""

    name: str
    program: str
    entry: str
    paper_workload: str
    #: builder(params, mklist) -> argument tuple for ``call(entry, args)``.
    build: Callable[[dict[str, int], Callable[[list], Any]], tuple]
    #: Optional result validator (result, params) -> bool.
    validate: Callable[[Any, dict[str, int]], bool] = lambda r, p: True

    def params(self, preset: str = "default") -> dict[str, int]:
        return dict(SIZES[self.program][preset])

    def scaled(self, n: int) -> dict[str, int]:
        """Parameters for a single element-count knob (``--scale N``)."""
        return SCALED[self.program](n)

    def args_for(self, preset: str, backend: str) -> tuple:
        """Fresh arguments; ``backend`` is "interp" or "compiled"."""
        mklist = (
            rv.from_pylist if backend == "interp" else support.from_pylist
        )
        rng = random.Random(SEED)
        return self.build_with(self.params(preset), mklist, rng)

    def build_with(self, params, mklist, rng):
        return self.build(params, mklist, rng)


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

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in [
        Workload(
            "bcopy", "bcopy", "bcopy_times",
            "copy 1M bytes of data 10 times in a byte-by-byte style",
            _build_bcopy,
        ),
        Workload(
            "binary search", "bsearch", "bsearch_all",
            "look for 2^20 randomly generated numbers in a random array "
            "of size 2^20",
            _build_bsearch,
        ),
        Workload(
            "bubble sort", "bubblesort", "bubble_sort",
            "sort a randomly generated array of size 2^13",
            _build_bubble,
        ),
        Workload(
            "matrix mult", "matmult", "matmult",
            "multiply two randomly generated arrays of size 256 x 256",
            _build_matmult,
        ),
        Workload(
            "queen", "queens", "queens",
            "chessboard of size 12 x 12",
            _build_queens,
            validate=lambda r, p: r == _QUEENS_SOLUTIONS.get(p["board"], r),
        ),
        Workload(
            "quick sort", "quicksort", "quicksort",
            "sort a randomly generated integer array of size 2^20",
            _build_quicksort,
        ),
        Workload(
            "hanoi towers", "hanoi", "hanoi",
            "24 disks",
            _build_hanoi,
        ),
        Workload(
            "list access", "listaccess", "access_times",
            "access the first sixteen elements in a random list 2^20 times",
            _build_listaccess,
        ),
        Workload(
            "kmp", "kmp", "kmpMatch",
            "(Figure 5 program; not in the paper's tables)",
            _build_kmp,
        ),
    ]
}

#: The eight programs of Tables 1-3, in the paper's row order.
TABLE_ORDER = [
    "bcopy", "binary search", "bubble sort", "matrix mult",
    "queen", "quick sort", "hanoi towers", "list access",
]
