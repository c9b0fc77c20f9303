"""Plain ML types for phase-1 type inference.

The paper's elaboration is two-phase: "In the first phase, we ignore
dependent type annotations and simply perform the type inference of
ML."  These are the types of that first phase — no indices, no
quantifiers beyond prenex ML polymorphism.
"""

from __future__ import annotations

from typing import Iterator

from repro.records import record


class MLType:
    __slots__ = ()


@record(frozen=True, slots=True)
class MLVar(MLType):
    """A unification variable; solutions live in the inferencer."""

    uid: int

    def __str__(self) -> str:
        return f"'_{self.uid}"


@record(frozen=True, slots=True)
class MLRigid(MLType):
    """A scheme-bound type variable such as ``'a``."""

    name: str

    def __str__(self) -> str:
        return self.name


@record(frozen=True, slots=True)
class MLCon(MLType):
    """``(args) name`` — ``int``, ``bool``, ``'a array``, datatypes..."""

    name: str
    args: tuple[MLType, ...] = ()

    def __str__(self) -> str:
        if not self.args:
            return self.name
        if len(self.args) == 1:
            return f"{self.args[0]} {self.name}"
        inner = ", ".join(str(a) for a in self.args)
        return f"({inner}) {self.name}"


@record(frozen=True, slots=True)
class MLTuple(MLType):
    items: tuple[MLType, ...] = ()

    def __str__(self) -> str:
        if not self.items:
            return "unit"
        return " * ".join(
            f"({t})" if isinstance(t, (MLTuple, MLArrow)) else str(t)
            for t in self.items
        )


@record(frozen=True, slots=True)
class MLArrow(MLType):
    dom: MLType
    cod: MLType

    def __str__(self) -> str:
        dom = f"({self.dom})" if isinstance(self.dom, MLArrow) else str(self.dom)
        return f"{dom} -> {self.cod}"


@record(frozen=True, slots=True)
class MLScheme:
    """``forall 'a1 ... 'an. ty``."""

    tyvars: tuple[str, ...]
    body: MLType

    def __str__(self) -> str:
        if not self.tyvars:
            return str(self.body)
        return f"forall {' '.join(self.tyvars)}. {self.body}"

    @staticmethod
    def mono(ty: MLType) -> "MLScheme":
        return MLScheme((), ty)


INT = MLCon("int")
BOOL = MLCon("bool")
UNIT = MLTuple(())


def subtypes(ty: MLType) -> Iterator[MLType]:
    stack = [ty]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, MLCon):
            stack.extend(node.args)
        elif isinstance(node, MLTuple):
            stack.extend(node.items)
        elif isinstance(node, MLArrow):
            stack.append(node.dom)
            stack.append(node.cod)


def free_vars(ty: MLType) -> set[MLVar]:
    return {node for node in subtypes(ty) if isinstance(node, MLVar)}


def subst_rigid(ty: MLType, mapping: dict[str, MLType]) -> MLType:
    if not mapping:
        return ty
    if isinstance(ty, MLRigid):
        return mapping.get(ty.name, ty)
    if isinstance(ty, MLVar):
        return ty
    if isinstance(ty, MLCon):
        return MLCon(ty.name, tuple(subst_rigid(a, mapping) for a in ty.args))
    if isinstance(ty, MLTuple):
        return MLTuple(tuple(subst_rigid(a, mapping) for a in ty.items))
    if isinstance(ty, MLArrow):
        return MLArrow(subst_rigid(ty.dom, mapping), subst_rigid(ty.cod, mapping))
    raise AssertionError(f"unknown ML type {ty!r}")
