"""Type languages: ML types (:mod:`~repro.types.mltype`) and dependent
types (:mod:`~repro.types.types`), with the traversal helper both use."""

from __future__ import annotations

import operator
from typing import Callable, TypeVar

T = TypeVar("T")


def map_items(fn: Callable[[T], T], items: tuple[T, ...]) -> tuple[T, ...]:
    """``tuple(map(fn, items))``, or ``items`` itself when ``fn`` returns
    every element unchanged — so traversals that rewrite nothing
    return their argument instead of an equal copy."""
    if not items:
        return items
    mapped = tuple(map(fn, items))
    return items if all(map(operator.is_, mapped, items)) else mapped
