"""Lifting plain ML types to dependent types.

An unannotated program fragment still has to interact with dependent
types; the paper's device is the existential interpretation — ``int``
means ``[i:int] int(i)``.  Lifting extends that convention to whole ML
types: every indexed family application is wrapped in a ``Sigma`` over
its index sorts.  Lifted types are exactly the "smooth boundary between
annotated and unannotated programs" of Section 2.4.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from repro.core.env import GlobalEnv
from repro.indices import terms
from repro.types import mltype as ml
from repro.types import types as dt


def lift_type(ty: ml.MLType, env: GlobalEnv,
              fresh: Iterator[int] | None = None) -> dt.DType:
    """Lift an ML type, wrapping indexed families existentially.

    The binders are named ``_l1``, ``_l2``, ... from ``fresh``; an
    elaboration passes its own counter, so the names it makes do not
    depend on what was checked before it.
    """
    if fresh is None:
        fresh = itertools.count(1)
    if isinstance(ty, ml.MLRigid):
        return dt.DTyVar(ty.name)
    if isinstance(ty, ml.MLVar):
        # An under-determined type; treat as an opaque rigid type.
        return dt.DTyVar(f"'_u{ty.uid}")
    if isinstance(ty, ml.MLTuple):
        return dt.DTuple(tuple(lift_type(t, env, fresh) for t in ty.items))
    if isinstance(ty, ml.MLArrow):
        return dt.DArrow(lift_type(ty.dom, env, fresh),
                         lift_type(ty.cod, env, fresh))
    if isinstance(ty, ml.MLCon):
        family = env.family(ty.name)
        tyargs = tuple(lift_type(t, env, fresh) for t in ty.args)
        if family is None or not family.index_sorts:
            return dt.DBase(ty.name, tyargs, ())
        binders = []
        iargs = []
        for sort in family.index_sorts:
            name = f"_l{next(fresh)}"
            binders.append((name, sort))
            iargs.append(terms.IVar(name))
        return dt.DSig(
            tuple(binders), terms.TRUE, dt.DBase(ty.name, tyargs, tuple(iargs))
        )
    raise AssertionError(f"unknown ML type {ty!r}")


def lift_scheme(scheme: ml.MLScheme, env: GlobalEnv,
                fresh: Iterator[int] | None = None) -> dt.DScheme:
    return dt.DScheme(scheme.tyvars, lift_type(scheme.body, env, fresh))
