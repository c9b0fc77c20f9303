"""Seeded, grammar-directed generation of well-typed DML programs.

The generator targets exactly the decidable linear-index fragment the
elaborator handles, so every generated program parses, ML-infers, and
dependently elaborates with ``structural_ok`` — by construction, never
by retry.  The trick is to generate a *spec* (plain records below)
rather than text: helper functions are drawn from a fixed template
library whose annotations are known-provable shapes (the corpus
programs' own loop and access idioms), and every call the spec makes to
a constrained helper is generated to satisfy the helper's guard with
literal arguments the solver can discharge.

Ground truth rides along.  Each rendered access site lands on its own
source line, and :func:`render` emits one :class:`SiteTruth` per site
recording whether that site is eliminable *by construction*:

* helper-body sites are eliminable iff the template's annotation pins
  the index (``get_ok``, ``sum_loop``, ...) and non-eliminable iff the
  index arrives as an unconstrained ``int`` (``get_any``, ...);
* direct sites in ``main`` use literal indices against literal-sized
  arrays/lists, so eliminability is plain arithmetic
  (``0 <= idx < size``).

A solver verdict that *disagrees* with the truth is itself a finding:
proving a non-eliminable-by-construction site is a soundness alarm,
failing an eliminable-by-construction one is an incompleteness
regression (the oracle distinguishes the two).

Out-of-int64-range literals are generated with configurable bias so the
packed/numpy dialects' repack-on-overflow and read-unboxing paths stay
under differential test.

Effects ride along too (``eff`` ops): a printing helper ``pr`` is an
operand of a binary operator, a tuple, a curried call, a read or a
write, followed by a later operand that is a ``let``, ``case``, ``;``,
``handle``, another print or a conditional that prints in one branch,
so the oracle's comparison of printed lines checks that every engine
evaluates operands left to right, each once and only where taken.  A
division or modulus may take a zero divisor (a literal ``0`` or the
accumulator), so every engine must raise the interpreter's error.
These ops are drawn after all others, leaving a seed's other shapes as
they were.

Determinism: the same :class:`random.Random` stream and config produce
the identical spec, and :func:`render` is a pure function of the spec —
``repro fuzz --seed N`` is exactly reproducible.
"""

from __future__ import annotations

import random
import re
from typing import Callable

from repro.records import record

# ---------------------------------------------------------------------------
# Ground truth
# ---------------------------------------------------------------------------


@record(frozen=True)
class SiteTruth:
    """By-construction eliminability of one access site.

    ``line`` is the 1-based source line the site was rendered on; the
    renderer guarantees one access site per line, so the oracle can
    join truths to :class:`~repro.core.elaborate.SiteInfo` spans by
    line number alone.
    """

    line: int
    op: str  # "sub" | "update" | "nth" | "hd"
    eliminable: bool
    note: str  # template key, "direct" or "effect"


# ---------------------------------------------------------------------------
# Program specs (the shrinker edits these, never raw text)
# ---------------------------------------------------------------------------


@record(frozen=True)
class ArrayDecl:
    """``val aK = array(size, init)`` or ``tabulate(size, fn j => ...)``."""

    size: int
    init: int = 0
    tab: bool = False
    mul: int = 1
    add: int = 0


@record(frozen=True)
class ListDecl:
    """``val lK = x0 :: x1 :: ... :: nil`` (always non-empty: an
    unannotated ``nil`` binding would be polymorphic)."""

    items: tuple[int, ...] = (1,)


@record(frozen=True)
class HelperDecl:
    """One instance of a template from :data:`TEMPLATES`."""

    template: str
    shift: int = 1  # get_shift's offset / fill_loop's multiplier


@record(frozen=True)
class Op:
    """One line of ``main``'s body.

    ``kind``: ``call`` (apply helper ``helper`` to target ``target``),
    ``sub``/``update``/``nth``/``hd`` (direct builtin access with a
    literal index), ``len`` (length read), ``arith`` (accumulator
    arithmetic; the operator and literal travel in ``value``) or
    ``eff`` (effectful operands, see :data:`EFFECT_FORMS`).
    ``value`` is ``("lit", n)`` or ``("acc",)`` for writes, ``(op, n)``
    for ``arith``, where a divisor ``n`` may be ``"acc"``, and
    ``(form, later, k)`` for ``eff``.
    """

    kind: str
    helper: int = 0
    target: int = 0
    idx: int = 0
    value: tuple = ("lit", 0)


@record(frozen=True)
class ProgramSpec:
    arrays: tuple[ArrayDecl, ...]
    lists: tuple[ListDecl, ...]
    helpers: tuple[HelperDecl, ...]
    ops: tuple[Op, ...]


@record(frozen=True)
class Rendered:
    source: str
    truths: tuple[SiteTruth, ...]


@record(frozen=True)
class GenConfig:
    decls: int = 3  # helper instances drawn
    depth: int = 8  # ops in main's body
    max_size: int = 8  # max array/list element count
    big_bias: float = 0.3  # P(an int literal is near/over int64)


# ---------------------------------------------------------------------------
# Template library
# ---------------------------------------------------------------------------
#
# Each template renders a standalone helper declaration.  The shapes are
# the corpus programs' own proven idioms (dotprod's counting loop,
# bcopy's copy loop, listaccess's nth/hd wrappers), so ``eliminable``
# templates are known-provable for the fourier backend — the generator
# test suite pins that assumption across many seeds.


@record(frozen=True)
class Template:
    key: str
    kind: str  # "array" | "list"
    takes: str  # "idx" | "idx_val" | "none"
    result: str  # "int" | "unit"
    op: str  # site op in the body
    eliminable: bool
    #: Minimum target size for a *valid* call (structural guard).
    min_size: Callable[[int], int]  # shift -> size floor
    #: Valid literal index range for a call, or None when any int goes.
    idx_range: Callable[[int, int], tuple[int, int] | None]  # (size, shift)
    render: Callable[[str, int], tuple[list[str], int]]  # -> (lines, site line offset)


def _any_idx(size: int, shift: int) -> None:
    return None


def _t_get_ok(name: str, shift: int) -> tuple[list[str], int]:
    return [
        f"fun {name}(a, i) = sub(a, i)",
        f"where {name} <| {{n:nat}} {{i:nat | i < n}} "
        "int array(n) * int(i) -> int",
    ], 0


def _t_get_shift(name: str, shift: int) -> tuple[list[str], int]:
    return [
        f"fun {name}(a, i) = sub(a, i + {shift})",
        f"where {name} <| {{n:nat}} {{i:nat | i + {shift} < n}} "
        "int array(n) * int(i) -> int",
    ], 0


def _t_get_any(name: str, shift: int) -> tuple[list[str], int]:
    return [
        f"fun {name}(a, i) = sub(a, i)",
        f"where {name} <| {{n:nat}} int array(n) * int -> int",
    ], 0


def _t_get_last(name: str, shift: int) -> tuple[list[str], int]:
    return [
        f"fun {name}(a) = sub(a, length a - 1)",
        f"where {name} <| {{n:nat | n >= 1}} int array(n) -> int",
    ], 0


def _t_rev_get(name: str, shift: int) -> tuple[list[str], int]:
    return [
        f"fun {name}(a, i) = sub(a, length a - 1 - i)",
        f"where {name} <| {{n:nat}} {{i:nat | i < n}} "
        "int array(n) * int(i) -> int",
    ], 0


def _t_set_ok(name: str, shift: int) -> tuple[list[str], int]:
    return [
        f"fun {name}(a, i, v) = update(a, i, v)",
        f"where {name} <| {{n:nat}} {{i:nat | i < n}} "
        "int array(n) * int(i) * int -> unit",
    ], 0


def _t_set_any(name: str, shift: int) -> tuple[list[str], int]:
    return [
        f"fun {name}(a, i, v) = update(a, i, v)",
        f"where {name} <| {{n:nat}} int array(n) * int * int -> unit",
    ], 0


def _t_sum_loop(name: str, shift: int) -> tuple[list[str], int]:
    go = f"go_{name}"
    return [
        f"fun {name}(a) = let",
        f"  fun {go}(i, k, acc) =",
        f"    if i = k then acc",
        f"    else {go}(i + 1, k, acc + sub(a, i))",
        f"  where {go} <| {{k:nat | k <= m}} {{i:nat | i <= k}} "
        "int(i) * int(k) * int -> int",
        f"in {go}(0, length a, 0) end",
        f"where {name} <| {{m:nat}} int array(m) -> int",
    ], 3


def _t_fill_loop(name: str, shift: int) -> tuple[list[str], int]:
    go = f"go_{name}"
    return [
        f"fun {name}(a) = let",
        f"  fun {go}(i, k) =",
        f"    if i = k then ()",
        f"    else (update(a, i, i * {shift}); {go}(i + 1, k))",
        f"  where {go} <| {{k:nat | k <= m}} {{i:nat | i <= k}} "
        "int(i) * int(k) -> unit",
        f"in {go}(0, length a) end",
        f"where {name} <| {{m:nat}} int array(m) -> unit",
    ], 3


def _t_nth_ok(name: str, shift: int) -> tuple[list[str], int]:
    return [
        f"fun {name}(l, i) = nth(l, i)",
        f"where {name} <| {{n:nat}} {{i:nat | i < n}} "
        "int list(n) * int(i) -> int",
    ], 0


def _t_nth_any(name: str, shift: int) -> tuple[list[str], int]:
    return [
        f"fun {name}(l, i) = nth(l, i)",
        f"where {name} <| {{n:nat}} int list(n) * int -> int",
    ], 0


def _t_hd_ok(name: str, shift: int) -> tuple[list[str], int]:
    return [
        f"fun {name}(l) = hd(l)",
        f"where {name} <| {{n:nat | n >= 1}} int list(n) -> int",
    ], 0


TEMPLATES: dict[str, Template] = {
    t.key: t
    for t in [
        Template("get_ok", "array", "idx", "int", "sub", True,
                 lambda s: 1, lambda size, s: (0, size), _t_get_ok),
        Template("get_shift", "array", "idx", "int", "sub", True,
                 lambda s: s + 1, lambda size, s: (0, size - s),
                 _t_get_shift),
        Template("get_any", "array", "idx", "int", "sub", False,
                 lambda s: 0, _any_idx, _t_get_any),
        Template("get_last", "array", "none", "int", "sub", True,
                 lambda s: 1, _any_idx, _t_get_last),
        Template("rev_get", "array", "idx", "int", "sub", True,
                 lambda s: 1, lambda size, s: (0, size), _t_rev_get),
        Template("set_ok", "array", "idx_val", "unit", "update", True,
                 lambda s: 1, lambda size, s: (0, size), _t_set_ok),
        Template("set_any", "array", "idx_val", "unit", "update", False,
                 lambda s: 0, _any_idx, _t_set_any),
        Template("sum_loop", "array", "none", "int", "sub", True,
                 lambda s: 0, _any_idx, _t_sum_loop),
        Template("fill_loop", "array", "none", "unit", "update", True,
                 lambda s: 0, _any_idx, _t_fill_loop),
        Template("nth_ok", "list", "idx", "int", "nth", True,
                 lambda s: 1, lambda size, s: (0, size), _t_nth_ok),
        Template("nth_any", "list", "idx", "int", "nth", False,
                 lambda s: 0, _any_idx, _t_nth_any),
        Template("hd_ok", "list", "none", "int", "hd", True,
                 lambda s: 1, _any_idx, _t_hd_ok),
    ]
}

_ARRAY_TEMPLATES = [k for k, t in TEMPLATES.items() if t.kind == "array"]
_LIST_TEMPLATES = [k for k, t in TEMPLATES.items() if t.kind == "list"]

#: The declarations ``eff`` ops use, each rendered in front of ``main``
#: when an op's form or later operand names it.  ``pr`` prints its
#: argument and returns it, index and all, so a printed index still
#: proves its site.
EFFECT_HELPERS = {
    "Fuzz": ["exception Fuzz"],
    "pr": ["fun pr(x) = (print_int x; x)",
           "where pr <| {n:int} int(n) -> int(n)"],
    "pick": ["fun pick(x, y) = x - y", "where pick <| int * int -> int"],
    "cur": ["fun cur x y = x + y", "where cur <| int -> int -> int"],
    "dup": ["fun dup(x) = (print_int x; (x, x))",
            "where dup <| int -> int * int"],
}

#: ``eff`` forms, by the line they render: ``s`` is the accumulator,
#: ``L`` the later operand, ``a`` and ``i`` the op's array and literal
#: index.  ``sub`` and ``update`` are access sites, eliminable iff ``i``
#: is in bounds.
EFFECT_FORMS = {
    "binop": "val {s1} = pr {s} + ({L})",
    "tuple": "val {s1} = pick(pr {s}, ({L}))",
    "curried": "val {s1} = cur (pr {s}) ({L})",
    "sub": "val {s1} = pr {s} + sub({a}, pr {i}) + ({L})",
    "update": "val () = update({a}, pr {i}, ({L}))",
}

#: Later operands, each printing on the way to an int; all but
#: ``print`` and ``branch`` need statements in compiled code, and
#: ``branch`` prints only when its condition holds.
EFFECT_LATER = {
    "print": "pr {k}",
    "let": "let val t = pr {k} in t end",
    "case": "case pr {k} of 0 => 0 | t => t",
    "seq": "print_int {k}; {k}",
    "handle": "pr {k} handle Fuzz => 0",
    "branch": "if {k} > 4 then (op +) (dup {k}) else {k}",
}


#: int64-boundary literals: the fitting edge cases and the overflowing
#: ones that force the packed/numpy repack paths.
BIG_LITERALS = (
    2 ** 63 - 1,
    -(2 ** 63),
    2 ** 62,
    3 * 2 ** 62,
    2 ** 63,
    2 ** 64 + 9,
    -(2 ** 63) - 1,
)


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


def _literal(rng: random.Random, big_bias: float) -> int:
    if rng.random() < big_bias:
        return rng.choice(BIG_LITERALS)
    return rng.randrange(-9, 100)


def _target_size(spec_arrays: list[ArrayDecl], ai: int) -> int:
    return spec_arrays[ai].size


def generate(rng: random.Random, config: GenConfig = GenConfig()) -> ProgramSpec:
    """Draw one program spec from the grammar."""
    arrays: list[ArrayDecl] = []
    for i in range(1 + rng.randrange(3)):
        # The first array is always non-empty so constrained templates
        # have a valid target; later ones may be empty (size 0), which
        # keeps the unified-empty-representation path under test.
        size = (1 + rng.randrange(config.max_size) if i == 0
                else rng.randrange(config.max_size + 1))
        if rng.random() < 0.3:
            arrays.append(ArrayDecl(
                size=size, tab=True,
                mul=rng.randrange(4),
                add=_literal(rng, config.big_bias),
            ))
        else:
            arrays.append(ArrayDecl(size=size, init=_literal(rng, config.big_bias)))

    lists: list[ListDecl] = []
    for _ in range(rng.randrange(3)):
        items = tuple(rng.randrange(-9, 50)
                      for _ in range(1 + rng.randrange(4)))
        lists.append(ListDecl(items=items))

    pool = _ARRAY_TEMPLATES + (_LIST_TEMPLATES if lists else [])
    helpers = tuple(
        HelperDecl(template=rng.choice(pool), shift=1 + rng.randrange(2))
        for _ in range(max(1, config.decls))
    )

    ops: list[Op] = []
    for _ in range(config.depth):
        ops.append(_gen_op(rng, config, arrays, lists, helpers))
    # Drawn last, so that the ops above are what they were before
    # effects joined the grammar.
    for _ in range(rng.randrange(1 + config.depth // 4)):
        ops.insert(rng.randrange(len(ops) + 1), _gen_effect(rng, arrays))

    return ProgramSpec(
        arrays=tuple(arrays), lists=tuple(lists),
        helpers=helpers, ops=tuple(ops),
    )


def _gen_op(
    rng: random.Random,
    config: GenConfig,
    arrays: list[ArrayDecl],
    lists: list[ListDecl],
    helpers: tuple[HelperDecl, ...],
) -> Op:
    roll = rng.random()
    if roll < 0.45 and helpers:
        op = _gen_call(rng, config, arrays, lists, helpers)
        if op is not None:
            return op
        # No valid target for the drawn helper: degrade to arithmetic.
    if roll < 0.70:
        ai = rng.randrange(len(arrays))
        size = arrays[ai].size
        idx = rng.randrange(size + 3)  # OOB with probability ~3/(size+3)
        if rng.random() < 0.5:
            return Op("sub", target=ai, idx=idx)
        return Op("update", target=ai, idx=idx,
                  value=_gen_value(rng, config))
    if roll < 0.80 and lists:
        li = rng.randrange(len(lists))
        if rng.random() < 0.7:
            idx = rng.randrange(len(lists[li].items) + 2)
            return Op("nth", target=li, idx=idx)
        return Op("hd", target=li)
    if roll < 0.87:
        return Op("len", target=rng.randrange(len(arrays)))
    return _gen_arith(rng, config)


def _gen_value(rng: random.Random, config: GenConfig) -> tuple:
    if rng.random() < 0.25:
        return ("acc",)
    # Writes lean harder on boundary literals: update-of-a-bignum is
    # the repack-on-overflow trigger.
    return ("lit", _literal(rng, min(1.0, config.big_bias * 1.8)))


def _gen_arith(rng: random.Random, config: GenConfig) -> Op:
    kind = rng.choice(["+", "+", "-", "*", "div", "mod"])
    if kind in ("div", "mod"):
        lit = 1 + rng.randrange(9)  # nonzero by construction
    elif kind == "*":
        lit = rng.choice([2, 3, 5, 7, 2 ** 31])
    else:
        lit = _literal(rng, config.big_bias)
    return Op("arith", value=(kind, lit))


def _gen_effect(rng: random.Random, arrays: list[ArrayDecl]) -> Op:
    """An ``eff`` op, or a division whose divisor may be zero."""
    if rng.random() < 0.25:
        return Op("arith", value=(rng.choice(["div", "mod"]),
                                  rng.choice([0, "acc"])))
    ai = rng.randrange(len(arrays))
    return Op("eff", target=ai, idx=rng.randrange(arrays[ai].size + 2),
              value=(rng.choice(list(EFFECT_FORMS)),
                     rng.choice(list(EFFECT_LATER)), rng.randrange(10)))


def _gen_call(
    rng: random.Random,
    config: GenConfig,
    arrays: list[ArrayDecl],
    lists: list[ListDecl],
    helpers: tuple[HelperDecl, ...],
) -> Op | None:
    hi = rng.randrange(len(helpers))
    helper = helpers[hi]
    t = TEMPLATES[helper.template]
    sizes = ([a.size for a in arrays] if t.kind == "array"
             else [len(x.items) for x in lists])
    floor = t.min_size(helper.shift)
    candidates = [i for i, size in enumerate(sizes) if size >= floor]
    if not candidates:
        return None
    target = rng.choice(candidates)
    size = sizes[target]

    idx = 0
    if t.takes in ("idx", "idx_val"):
        span = t.idx_range(size, helper.shift)
        if span is None:
            # Unconstrained index: anything goes, including negative
            # and past-the-end (the body's kept check fields it).
            idx = rng.randrange(-1, size + 3)
        else:
            lo, hi_excl = span
            idx = lo + rng.randrange(hi_excl - lo)
    value = _gen_value(rng, config) if t.takes == "idx_val" else ("lit", 0)
    return Op("call", helper=hi, target=target, idx=idx, value=value)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _int(n: int) -> str:
    # The grammar has no negative literals; subtraction from zero is
    # the corpus-idiomatic spelling.
    return str(n) if n >= 0 else f"(0 - {-n})"


def render(spec: ProgramSpec) -> Rendered:
    """Render a spec to DML source plus per-site ground truth."""
    lines: list[str] = []
    truths: list[SiteTruth] = []

    used = {op.helper for op in spec.ops if op.kind == "call"}
    names: dict[int, str] = {}
    for hi, helper in enumerate(spec.helpers):
        if hi not in used:
            continue
        name = f"h{hi}"
        names[hi] = name
        t = TEMPLATES[helper.template]
        body, site_offset = t.render(name, helper.shift)
        truths.append(SiteTruth(
            line=len(lines) + 1 + site_offset,
            op=t.op, eliminable=t.eliminable, note=helper.template,
        ))
        lines.extend(body)
        lines.append("")

    effects = " ".join(EFFECT_FORMS[op.value[0]] + EFFECT_LATER[op.value[1]]
                       for op in spec.ops if op.kind == "eff")
    for name, decl in EFFECT_HELPERS.items():
        if re.search(rf"\b{name}\b", effects):
            lines.extend(decl + [""])
    lines.append("fun main(u) = let")
    for ai, a in enumerate(spec.arrays):
        if a.tab:
            lines.append(f"  val a{ai} = tabulate({a.size}, "
                         f"fn j => j * {a.mul} + {_int(a.add)})")
        else:
            lines.append(f"  val a{ai} = array({a.size}, {_int(a.init)})")
    for li, l in enumerate(spec.lists):
        chain = " :: ".join(_int(x) for x in l.items)
        lines.append(f"  val l{li} = {chain} :: nil")
    lines.append("  val s0 = 0")

    acc = 0
    for op in spec.ops:
        line_no = len(lines) + 1

        def value_expr(value: tuple) -> str:
            return f"s{acc}" if value[0] == "acc" else _int(value[1])

        if op.kind == "call":
            helper = spec.helpers[op.helper]
            t = TEMPLATES[helper.template]
            base = f"{'l' if t.kind == 'list' else 'a'}{op.target}"
            if t.takes == "idx":
                args = f"{base}, {_int(op.idx)}"
            elif t.takes == "idx_val":
                args = f"{base}, {_int(op.idx)}, {value_expr(op.value)}"
            else:
                args = base
            call = f"{names[op.helper]}({args})"
            if t.result == "int":
                lines.append(f"  val s{acc + 1} = s{acc} + {call}")
                acc += 1
            else:
                lines.append(f"  val _ = {call}")
        elif op.kind == "sub":
            size = spec.arrays[op.target].size
            lines.append(f"  val s{acc + 1} = s{acc} + "
                         f"sub(a{op.target}, {op.idx})")
            acc += 1
            truths.append(SiteTruth(line_no, "sub", op.idx < size, "direct"))
        elif op.kind == "update":
            size = spec.arrays[op.target].size
            lines.append(f"  val _ = update(a{op.target}, {op.idx}, "
                         f"{value_expr(op.value)})")
            truths.append(SiteTruth(line_no, "update", op.idx < size,
                                    "direct"))
        elif op.kind == "nth":
            length = len(spec.lists[op.target].items)
            lines.append(f"  val s{acc + 1} = s{acc} + "
                         f"nth(l{op.target}, {op.idx})")
            acc += 1
            truths.append(SiteTruth(line_no, "nth", op.idx < length,
                                    "direct"))
        elif op.kind == "hd":
            # Generated lists are never empty, so a direct hd is always
            # eliminable; OOB tag behaviour comes from nth instead.
            lines.append(f"  val s{acc + 1} = s{acc} + hd(l{op.target})")
            acc += 1
            truths.append(SiteTruth(line_no, "hd", True, "direct"))
        elif op.kind == "len":
            lines.append(f"  val s{acc + 1} = s{acc} + length a{op.target}")
            acc += 1
        elif op.kind == "arith":
            kind, lit = op.value
            rhs = f"s{acc}" if lit == "acc" else _int(lit)
            lines.append(f"  val s{acc + 1} = s{acc} {kind} {rhs}")
            acc += 1
        elif op.kind == "eff":
            form, later, k = op.value
            lines.append("  " + EFFECT_FORMS[form].format(
                s1=f"s{acc + 1}", s=f"s{acc}", a=f"a{op.target}",
                i=op.idx, L=EFFECT_LATER[later].format(k=k)))
            if form in ("sub", "update"):
                size = spec.arrays[op.target].size
                truths.append(SiteTruth(line_no, form, op.idx < size,
                                        "effect"))
            if form != "update":
                acc += 1
        else:  # pragma: no cover - spec invariant
            raise ValueError(f"unknown op kind {op.kind!r}")

    lines.append(f"in s{acc} end")
    lines.append("where main <| int -> int")
    return Rendered(source="\n".join(lines) + "\n", truths=tuple(truths))


def generate_rendered(seed_key: str, config: GenConfig = GenConfig()) -> Rendered:
    """Convenience: seed-string to rendered program in one call."""
    return render(generate(random.Random(seed_key), config))
