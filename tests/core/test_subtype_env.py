"""``subtype`` under an instantiation environment, and the capture case.

An application and a Sigma on the right of ``subtype`` no longer build
the instance of a type: ``subtype(s, t, env=env)`` reads ``t``'s
binders through ``env``, the evars they were instantiated with.  It
must leave exactly what ``subtype(s, subst_index(t, env))`` leaves: the
same constraint text, the same evar and meta solutions and the same
``ElabError`` message.  The random pairs below cover binders shadowed
across quantifier layers, guards and subset sorts that name an outer or
an earlier binder, quantifiers, arrows and metas inside an arrow's
domain, and chains of solved metas.
"""

from __future__ import annotations

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.core.elaborate import Elaborator
from repro.indices import terms
from repro.indices.sorts import INT, NAT, SubsetSort
from repro.indices.terms import EVar, IConst, IVar
from repro.lang import ast
from repro.lang.errors import ElabError
from repro.lang.source import DUMMY_SPAN
from repro.types import types as dt

#: Binders the environment instantiates, and the evars it maps them to
#: (the ones ``_run`` creates first, in this order).
ENV_NAMES = ("n", "i")
ENV = {name: EVar(uid, name.upper()) for uid, name in enumerate(ENV_NAMES)}
#: Rigid variables in scope on both sides.
RIGIDS = ("r", "q")
METAS = tuple(dt.DMeta(uid) for uid in range(4))

GENV = api._prelude_inferencer().env


def _index(rng: random.Random, names: tuple[str, ...]) -> terms.IndexTerm:
    roll = rng.random()
    if roll < 0.6:
        return IVar(rng.choice(names))
    if roll < 0.8:
        return IConst(rng.randint(0, 2))
    return terms.iadd(IVar(rng.choice(names)), IConst(1))


def _binders(rng: random.Random, names: tuple[str, ...]):
    """One or two binders; a subset sort may name an outer binder or
    the group's earlier one, and a name may shadow an outer one."""
    first = rng.choice(("n", "k", "i"))
    sorts = [INT, NAT, SubsetSort("a", INT, terms.cmp(
        "<", IVar("a"), IVar(rng.choice(names))))]
    binders = [(first, rng.choice(sorts))]
    if rng.random() < 0.4:
        earlier = SubsetSort("b", INT, terms.cmp("<=", IVar("b"), IVar(first)))
        binders.append(("m", rng.choice(sorts + [earlier])))
    inner = names + tuple(name for name, _ in binders)
    guard = terms.TRUE
    if rng.random() < 0.5:
        guard = terms.cmp("<", _index(rng, inner), _index(rng, inner))
    return tuple(binders), guard, inner


def _pair(rng: random.Random, depth: int, t_names: tuple[str, ...]):
    """A subtype candidate ``(s, t)`` of correlated shape; ``t`` may
    mention ``t_names`` (the environment's binders among them)."""
    s_names = RIGIDS
    roll = rng.random() if depth else 0.0
    if roll < 0.3:
        leaf = rng.random()
        if leaf < 0.55:
            return dt.int_of(_index(rng, s_names)), dt.int_of(_index(rng, t_names))
        if leaf < 0.7:
            return dt.some_int("k"), dt.int_of(_index(rng, t_names))
        if leaf < 0.9:
            meta = rng.choice(METAS)
            other = dt.int_of(_index(rng, t_names))
            return (meta, other) if rng.random() < 0.5 else (other, meta)
        return dt.DTyVar("'a"), dt.DTyVar(rng.choice(("'a", "'b")))
    if roll < 0.42:
        s, t = _pair(rng, depth - 1, t_names)
        return (dt.array_of(s, _index(rng, s_names)),
                dt.array_of(t, _index(rng, t_names)))
    if roll < 0.52:
        s, t = _pair(rng, depth - 1, t_names)
        return (dt.list_of(s, _index(rng, s_names)),
                dt.list_of(t, _index(rng, t_names)))
    if roll < 0.62:
        pairs = [_pair(rng, depth - 1, t_names) for _ in range(rng.randint(1, 3))]
        s_items = tuple(s for s, _ in pairs)
        t_items = tuple(t for _, t in pairs)
        if rng.random() < 0.1:
            t_items = t_items[:-1]
        return dt.DTuple(s_items), dt.DTuple(t_items)
    if roll < 0.74:
        # An arrow: contravariant domain, which may hold a quantifier,
        # an arrow or a meta.
        t_dom, s_dom = _pair(rng, depth - 1, t_names)
        s_cod, t_cod = _pair(rng, depth - 1, t_names)
        return dt.DArrow(s_dom, s_cod), dt.DArrow(t_dom, t_cod)
    binders, guard, inner = _binders(rng, t_names)
    s, t = _pair(rng, depth - 1, inner)
    if roll < 0.88:
        return s, dt.DSig(binders, guard, t)
    if roll < 0.95:
        s_binders = tuple((f"{name}s", sort) for name, sort in binders)
        return dt.DPi(s_binders, terms.TRUE, s), dt.DPi(binders, guard, t)
    return dt.DSig(binders, guard, s), dt.DSig(binders, guard, t)


def _solutions(rng: random.Random) -> list[tuple[dt.DMeta, dt.DType]]:
    """Meta solutions, including a chain: METAS[0] := METAS[1] := T."""
    t_names = ENV_NAMES + RIGIDS
    return [
        (METAS[0], METAS[1]),
        (METAS[1], rng.choice((dt.int_of(IVar("n")), dt.some_int("k"),
                               dt.int_of(_index(rng, t_names))))),
        (METAS[2], dt.array_of(METAS[3], _index(rng, t_names))),
    ][:rng.randint(0, 3)]


def _elaborator(solutions) -> Elaborator:
    elab = Elaborator(GENV)
    for name in RIGIDS:
        elab.col.intro(name, INT)
    made = {name: elab.store.fresh(name.upper(), elab.col.scope_names())
            for name in ENV_NAMES}
    assert made == ENV
    assert tuple(elab.metas.fresh() for _ in METAS) == METAS
    for meta, solution in solutions:
        assert elab.metas.solve(meta, solution)
    return elab


def _outcome(solutions, s, t, pushed: bool):
    """What one ``subtype`` call leaves behind, with the renaming
    counter restarted so that both runs draw the same fresh names (each
    elaborator numbers its own rigid variables)."""
    saved = dt._rename_counter
    dt._rename_counter = itertools.count(1)
    try:
        elab = _elaborator(solutions)
        error = None
        try:
            if pushed:
                elab.subtype(s, dt.subst_index(t, ENV), DUMMY_SPAN, "o")
            else:
                elab.subtype(s, t, DUMMY_SPAN, "o", ENV)
        except ElabError as exc:
            error = str(exc)
        constraints = []
        while elab.col.frames:
            constraints.append(str(elab.col.pop()))
        return {
            "constraints": constraints,
            "evars": sorted((str(k), str(v)) for k, v in elab.store.solutions.items()),
            "created": elab.store.created_count,
            "metas": [str(elab.metas.resolve(m)) for m in METAS],
            "error": error,
        }
    finally:
        dt._rename_counter = saved


@settings(max_examples=400, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_subtype_under_env_matches_subtype_against_the_instance(seed):
    # A seed, not ``st.randoms()``: hypothesis's own Random shrinks its
    # draws toward 0, so nearly every pair would be two ints.
    rng = random.Random(seed)
    s, t = _pair(rng, 3, ENV_NAMES + RIGIDS)
    solutions = _solutions(rng)
    assert _outcome(solutions, s, t, pushed=False) == _outcome(
        solutions, s, t, pushed=True
    )


def test_the_pairs_reach_every_outcome():
    # The generator is not vacuous: some pairs solve evars, some emit
    # obligations and some fail with a mismatch.
    rng = random.Random(2301)
    solved = obliged = failed = 0
    for _ in range(300):
        s, t = _pair(rng, 3, ENV_NAMES + RIGIDS)
        outcome = _outcome(_solutions(rng), s, t, pushed=False)
        solved += bool(outcome["evars"])
        obliged += any(c != "true" for c in outcome["constraints"])
        failed += outcome["error"] is not None
    assert min(solved, obliged, failed) > 20


def test_a_meta_solution_keeps_a_rigid_named_like_the_binder():
    # f : {n:nat} int -> 'm, where the meta 'm was solved to int(n) for
    # the rigid n in scope.  Applying f instantiates the binder n, but
    # the meta's solution belongs to the outer scope: the result is
    # the rigid int(n), not int(N) for the application's evar.  (Fully
    # resolving f's type before instantiating it captured the rigid.)
    elab = Elaborator(GENV)
    elab.col.intro("n", INT)
    meta = elab.metas.fresh()
    elab.metas.solve(meta, dt.int_of(IVar("n")))
    fty = dt.DPi((("n", NAT),), terms.TRUE, dt.DArrow(dt.some_int(), meta))
    elab.values.bind_mono("f", fty)
    result = elab.synth(ast.EApp(ast.EVar("f"), ast.EInt(1)))
    assert elab.metas.resolve(result) == dt.int_of(IVar("n"))
