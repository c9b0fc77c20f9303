"""Identity laws of the type-layer traversals, on seeded random types.

``MetaStore.resolve``, ``subst_index``, ``subst_tyvars`` and
``Unifier.resolve`` return their argument itself when nothing in it is
rewritten, so ``subtype``'s ``s is t`` test fires instead of a deep
``==``.  When something is rewritten, the result must equal what a
traversal that rebuilds every node produces; the reference traversals
below are the rebuilding versions the identity-preserving ones
replaced.
"""

import random

from repro.indices import terms
from repro.indices.sorts import INT, NAT
from repro.indices.terms import IConst, IVar
from repro.types import types as dt
from repro.types.mltype import MLArrow, MLCon, MLRigid, MLTuple, MLVar, free_vars
from repro.types.unify import Unifier

N_TYPES = 300
INDEX_VARS = ("i", "j", "n")
TYVARS = ("'a", "'b")


def random_index(rng: random.Random) -> terms.IndexTerm:
    if rng.random() < 0.7:
        return IVar(rng.choice(INDEX_VARS))
    return terms.iadd(IVar(rng.choice(INDEX_VARS)), IConst(rng.randint(0, 3)))


def random_dtype(rng: random.Random, metas: list[dt.DMeta], depth: int = 3) -> dt.DType:
    roll = rng.random()
    if depth == 0 or roll < 0.25:
        leaf = rng.random()
        if leaf < 0.3:
            return dt.DTyVar(rng.choice(TYVARS))
        if leaf < 0.6:
            return rng.choice(metas)
        return dt.int_of(random_index(rng))
    if roll < 0.45:
        return dt.array_of(random_dtype(rng, metas, depth - 1), random_index(rng))
    if roll < 0.6:
        items = tuple(random_dtype(rng, metas, depth - 1) for _ in range(rng.randint(0, 3)))
        return dt.DTuple(items)
    if roll < 0.8:
        return dt.DArrow(random_dtype(rng, metas, depth - 1),
                         random_dtype(rng, metas, depth - 1))
    name = rng.choice(INDEX_VARS)
    cls = rng.choice((dt.DPi, dt.DSig))
    guard = rng.choice((terms.TRUE, terms.cmp("<", IVar(name), random_index(rng))))
    return cls(((name, rng.choice((INT, NAT))),), guard,
               random_dtype(rng, metas, depth - 1))


def random_mltype(rng: random.Random, variables: list[MLVar], depth: int = 3):
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        leaf = rng.random()
        if leaf < 0.5:
            return rng.choice(variables)
        if leaf < 0.7:
            return MLRigid(rng.choice(TYVARS))
        return MLCon("int")
    if roll < 0.5:
        return MLCon("array", (random_mltype(rng, variables, depth - 1),))
    if roll < 0.7:
        return MLTuple(tuple(random_mltype(rng, variables, depth - 1)
                             for _ in range(rng.randint(0, 3))))
    return MLArrow(random_mltype(rng, variables, depth - 1),
                   random_mltype(rng, variables, depth - 1))


# -- reference traversals: rebuild every node ---------------------------------


def rebuild_resolve(store: dt.MetaStore, ty: dt.DType) -> dt.DType:
    if isinstance(ty, dt.DMeta):
        solution = store._solutions.get(ty)
        return ty if solution is None else rebuild_resolve(store, solution)
    if isinstance(ty, dt.DTyVar):
        return ty
    if isinstance(ty, dt.DBase):
        return dt.DBase(ty.name, tuple(rebuild_resolve(store, t) for t in ty.tyargs),
                        ty.iargs)
    if isinstance(ty, dt.DTuple):
        return dt.DTuple(tuple(rebuild_resolve(store, t) for t in ty.items))
    if isinstance(ty, dt.DArrow):
        return dt.DArrow(rebuild_resolve(store, ty.dom), rebuild_resolve(store, ty.cod))
    return type(ty)(ty.binders, ty.guard, rebuild_resolve(store, ty.body))


def rebuild_subst_index(ty: dt.DType, mapping: dict) -> dt.DType:
    if isinstance(ty, (dt.DTyVar, dt.DMeta)):
        return ty
    if isinstance(ty, dt.DBase):
        return dt.DBase(ty.name,
                        tuple(rebuild_subst_index(t, mapping) for t in ty.tyargs),
                        tuple(terms.subst(i, mapping) for i in ty.iargs))
    if isinstance(ty, dt.DTuple):
        return dt.DTuple(tuple(rebuild_subst_index(t, mapping) for t in ty.items))
    if isinstance(ty, dt.DArrow):
        return dt.DArrow(rebuild_subst_index(ty.dom, mapping),
                         rebuild_subst_index(ty.cod, mapping))
    bound = {name for name, _ in ty.binders}
    inner = {k: v for k, v in mapping.items() if k not in bound}
    return type(ty)(ty.binders, terms.subst(ty.guard, inner),
                    rebuild_subst_index(ty.body, inner))


def rebuild_subst_tyvars(ty: dt.DType, mapping: dict) -> dt.DType:
    if isinstance(ty, dt.DTyVar):
        return mapping.get(ty.name, ty)
    if isinstance(ty, dt.DMeta):
        return ty
    if isinstance(ty, dt.DBase):
        return dt.DBase(ty.name,
                        tuple(rebuild_subst_tyvars(t, mapping) for t in ty.tyargs),
                        ty.iargs)
    if isinstance(ty, dt.DTuple):
        return dt.DTuple(tuple(rebuild_subst_tyvars(t, mapping) for t in ty.items))
    if isinstance(ty, dt.DArrow):
        return dt.DArrow(rebuild_subst_tyvars(ty.dom, mapping),
                         rebuild_subst_tyvars(ty.cod, mapping))
    return type(ty)(ty.binders, ty.guard, rebuild_subst_tyvars(ty.body, mapping))


def rebuild_ml_resolve(unifier: Unifier, ty):
    ty = unifier.prune(ty)
    if isinstance(ty, (MLVar, MLRigid)):
        return ty
    if isinstance(ty, MLCon):
        return MLCon(ty.name, tuple(rebuild_ml_resolve(unifier, a) for a in ty.args))
    if isinstance(ty, MLTuple):
        return MLTuple(tuple(rebuild_ml_resolve(unifier, a) for a in ty.items))
    return MLArrow(rebuild_ml_resolve(unifier, ty.dom), rebuild_ml_resolve(unifier, ty.cod))


# -- the laws ------------------------------------------------------------------


def test_meta_resolve_returns_its_argument_unless_a_meta_is_solved():
    rng = random.Random(1501)
    store = dt.MetaStore()
    metas = [store.fresh() for _ in range(4)]
    types = [random_dtype(rng, metas) for _ in range(N_TYPES)]
    for ty in types:  # nothing solved yet: every type comes back as is
        assert store.resolve(ty) is ty
    store.solve(metas[0], dt.int_of(IVar("n")))
    store.solve(metas[1], dt.array_of(metas[2], IVar("i")))
    solved = {metas[0], metas[1]}
    rewritten = 0
    for ty in types:
        result = store.resolve(ty)
        assert result == rebuild_resolve(store, ty)
        if dt.free_metas(ty).isdisjoint(solved):
            assert result is ty
        else:
            rewritten += 1
    assert rewritten > N_TYPES // 4


def test_subst_index_returns_its_argument_when_nothing_is_substituted():
    rng = random.Random(1502)
    metas = [dt.MetaStore().fresh()]
    rewritten = 0
    for _ in range(N_TYPES):
        ty = random_dtype(rng, metas)
        name = rng.choice(INDEX_VARS)
        mapping = {name: terms.iadd(IVar("k"), IConst(1))}
        result = dt.subst_index(ty, mapping)
        assert result == rebuild_subst_index(ty, mapping)
        if name not in dt.free_index_vars(ty):
            assert result is ty
        else:
            rewritten += 1
    assert rewritten > N_TYPES // 4


def test_subst_tyvars_returns_its_argument_when_nothing_is_substituted():
    rng = random.Random(1503)
    metas = [dt.MetaStore().fresh()]
    rewritten = 0
    for _ in range(N_TYPES):
        ty = random_dtype(rng, metas)
        name = rng.choice(TYVARS)
        mapping = {name: dt.some_int()}
        result = dt.subst_tyvars(ty, mapping)
        assert result == rebuild_subst_tyvars(ty, mapping)
        if name not in dt.free_tyvars(ty):
            assert result is ty
        else:
            rewritten += 1
    assert rewritten > N_TYPES // 4


def test_unifier_resolve_returns_its_argument_unless_a_variable_is_solved():
    rng = random.Random(1504)
    unifier = Unifier()
    variables = [unifier.fresh() for _ in range(4)]
    types = [random_mltype(rng, variables) for _ in range(N_TYPES)]
    unifier.unify(variables[0], MLCon("int"))
    unifier.unify(variables[1], MLCon("array", (variables[2],)))
    solved = {variables[0], variables[1]}
    rewritten = 0
    for ty in types:
        result = unifier.resolve(ty)
        assert result == rebuild_ml_resolve(unifier, ty)
        if free_vars(ty).isdisjoint(solved):
            assert result is ty
        else:
            rewritten += 1
    assert rewritten > N_TYPES // 4
