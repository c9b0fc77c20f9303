"""Greedy delta-debugging over program specs.

The shrinker edits the generator's :class:`~repro.fuzz.gen.ProgramSpec`
— never raw source text — so every candidate re-renders to a
well-typed program with freshly recomputed ground truth; a shrink can
change a site's by-construction eliminability (say, an index literal
dropping into bounds) and the truth follows automatically, because
:func:`~repro.fuzz.gen.render` derives it from the same spec fields.

The loop is the classic greedy fixpoint: passes run until none makes
progress or the attempt budget is spent.  A candidate is kept iff the
caller's predicate still holds (the runner's predicate: "the worst
mismatch kind reproduces"), so any transformation is sound — an
overeager shrink that loses the bug is simply rejected.

Passes, cheapest-win first:

1. drop contiguous chunks of ``main``'s ops (halving chunk sizes down
   to single ops — most findings need two or three lines);
2. drop now-unreferenced arrays and lists (indices remapped);
3. simplify literals: indices toward 0, values toward 0/1, array sizes
   toward 1, tabulate builds to plain ``array`` builds, list payloads
   to ``(1,)``; an ``eff`` op's form toward ``binop``, its later
   operand toward a plain print and its printed literal toward 0.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Iterator

from repro.fuzz.gen import TEMPLATES, ArrayDecl, Op, ProgramSpec


def _array_refs(spec: ProgramSpec, op: Op) -> int | None:
    """The array index ``op`` references, if any."""
    if op.kind in ("sub", "update", "len") or (
            op.kind == "eff" and op.value[0] in ("sub", "update")):
        return op.target
    if op.kind == "call":
        t = TEMPLATES[spec.helpers[op.helper].template]
        if t.kind == "array":
            return op.target
    return None


def _list_refs(spec: ProgramSpec, op: Op) -> int | None:
    if op.kind in ("nth", "hd"):
        return op.target
    if op.kind == "call":
        t = TEMPLATES[spec.helpers[op.helper].template]
        if t.kind == "list":
            return op.target
    return None


def _drop_array(spec: ProgramSpec, ai: int) -> ProgramSpec | None:
    if len(spec.arrays) <= 1:
        return None  # the generator invariant keeps one array around
    if any(_array_refs(spec, op) == ai for op in spec.ops):
        return None
    ops = tuple(
        replace(op, target=op.target - 1)
        if (ref := _array_refs(spec, op)) is not None and ref > ai
        else op
        for op in spec.ops
    )
    return replace(spec, arrays=spec.arrays[:ai] + spec.arrays[ai + 1:],
                   ops=ops)


def _drop_list(spec: ProgramSpec, li: int) -> ProgramSpec | None:
    if any(_list_refs(spec, op) == li for op in spec.ops):
        return None
    ops = tuple(
        replace(op, target=op.target - 1)
        if (ref := _list_refs(spec, op)) is not None and ref > li
        else op
        for op in spec.ops
    )
    return replace(spec, lists=spec.lists[:li] + spec.lists[li + 1:],
                   ops=ops)


def _literal_candidates(spec: ProgramSpec) -> Iterator[ProgramSpec]:
    """One-field simplifications, yielded lazily."""
    for i, op in enumerate(spec.ops):
        def with_op(new_op: Op, i=i) -> ProgramSpec:
            return replace(spec, ops=spec.ops[:i] + (new_op,)
                           + spec.ops[i + 1:])

        if op.idx != 0:
            # Even call indices may move: a candidate that breaks the
            # callee's guard renders to a structurally failing program
            # and the predicate rejects it.
            yield with_op(replace(op, idx=0))
        if op.kind == "eff":
            form, later, k = op.value
            for simpler in (("binop", later, k), (form, "print", k),
                            (form, later, 0)):
                if simpler != op.value:
                    yield with_op(replace(op, value=simpler))
        elif op.value[0] == "acc":
            yield with_op(replace(op, value=("lit", 1)))
        elif op.kind != "arith" and op.value != ("lit", 0):
            yield with_op(replace(op, value=("lit", 0)))
        elif op.kind == "arith" and op.value[1] not in (1,):
            yield with_op(replace(op, value=(op.value[0], 1)))

    for ai, a in enumerate(spec.arrays):
        def with_array(new_a: ArrayDecl, ai=ai) -> ProgramSpec:
            return replace(spec, arrays=spec.arrays[:ai] + (new_a,)
                           + spec.arrays[ai + 1:])

        if a.tab:
            yield with_array(ArrayDecl(size=a.size, init=a.add))
        if a.size > 1:
            yield with_array(replace(a, size=1))
        if a.init not in (0,) and not a.tab:
            yield with_array(replace(a, init=0))

    for li, l in enumerate(spec.lists):
        if l.items != (1,):
            yield replace(spec, lists=spec.lists[:li]
                          + (replace(l, items=(1,)),) + spec.lists[li + 1:])


def shrink(
    spec: ProgramSpec,
    predicate: Callable[[ProgramSpec], bool],
    *,
    max_attempts: int = 250,
) -> tuple[ProgramSpec, int]:
    """Greedily minimize ``spec`` while ``predicate`` holds.

    Returns the smallest accepted spec and the number of predicate
    evaluations spent.  ``predicate(spec)`` itself is assumed true
    (the caller found the mismatch before asking for a shrink).
    """
    attempts = 0

    def keep(candidate: ProgramSpec) -> bool:
        nonlocal spec, attempts
        if attempts >= max_attempts:
            return False
        attempts += 1
        if predicate(candidate):
            spec = candidate
            return True
        return False

    progress = True
    while progress and attempts < max_attempts:
        progress = False

        # Pass 1: drop op chunks, largest first.
        chunk = max(1, len(spec.ops) // 2)
        while chunk >= 1:
            i = 0
            while i < len(spec.ops):
                candidate = replace(
                    spec, ops=spec.ops[:i] + spec.ops[i + chunk:]
                )
                if len(candidate.ops) < len(spec.ops) and keep(candidate):
                    progress = True  # same i: the next chunk slid in
                else:
                    i += chunk
            chunk //= 2

        # Pass 2: drop unreferenced declarations.
        for ai in reversed(range(len(spec.arrays))):
            candidate = _drop_array(spec, ai)
            if candidate is not None and keep(candidate):
                progress = True
        for li in reversed(range(len(spec.lists))):
            candidate = _drop_list(spec, li)
            if candidate is not None and keep(candidate):
                progress = True

        # Pass 3: simplify literals.
        changed = True
        while changed and attempts < max_attempts:
            changed = False
            for candidate in list(_literal_candidates(spec)):
                if keep(candidate):
                    changed = progress = True
                    break  # spec changed; regenerate candidates

    return spec, attempts
