"""First-order unification for phase-1 ML type inference."""

from __future__ import annotations

from repro.lang.errors import MLTypeError
from repro.lang.source import DUMMY_SPAN, Span
from repro.types import map_items
from repro.types.mltype import (
    MLArrow,
    MLCon,
    MLRigid,
    MLScheme,
    MLTuple,
    MLType,
    MLVar,
)


class Unifier:
    """A mutable substitution with path-compressing resolution."""

    def __init__(self) -> None:
        self._next_uid = 0
        self._solutions: dict[MLVar, MLType] = {}

    def fresh(self) -> MLVar:
        var = MLVar(self._next_uid)
        self._next_uid += 1
        return var

    def fork(self) -> "Unifier":
        """An independent unifier continuing from this substitution.

        Solutions are immutable ML types, so only the dictionary needs
        copying; fresh variables allocated by either side never
        collide because the uid counter is carried over."""
        clone = Unifier()
        clone._next_uid = self._next_uid
        clone._solutions = dict(self._solutions)
        return clone

    def prune(self, ty: MLType) -> MLType:
        """Follow solution chains at the head of a type."""
        while isinstance(ty, MLVar) and ty in self._solutions:
            ty = self._solutions[ty]
        return ty

    def resolve(self, ty: MLType) -> MLType:
        """Fully apply the substitution (zonk).

        Returns ``ty`` itself when no solved variable occurs in it."""
        ty = self.prune(ty)
        if isinstance(ty, (MLVar, MLRigid)):
            return ty
        if isinstance(ty, MLCon):
            args = map_items(self.resolve, ty.args)
            return ty if args is ty.args else MLCon(ty.name, args)
        if isinstance(ty, MLTuple):
            items = map_items(self.resolve, ty.items)
            return ty if items is ty.items else MLTuple(items)
        if isinstance(ty, MLArrow):
            dom = self.resolve(ty.dom)
            cod = self.resolve(ty.cod)
            if dom is ty.dom and cod is ty.cod:
                return ty
            return MLArrow(dom, cod)
        raise AssertionError(f"unknown ML type {ty!r}")

    def occurs(self, var: MLVar, ty: MLType) -> bool:
        ty = self.prune(ty)
        if ty == var:
            return True
        if isinstance(ty, MLCon):
            return any(self.occurs(var, a) for a in ty.args)
        if isinstance(ty, MLTuple):
            return any(self.occurs(var, a) for a in ty.items)
        if isinstance(ty, MLArrow):
            return self.occurs(var, ty.dom) or self.occurs(var, ty.cod)
        return False

    def unify(self, a: MLType, b: MLType, span: Span = DUMMY_SPAN) -> None:
        a = self.prune(a)
        b = self.prune(b)
        if a == b:
            return
        if isinstance(a, MLVar):
            if self.occurs(a, b):
                raise MLTypeError(
                    f"occurs check: cannot construct infinite type {a} = {self.resolve(b)}",
                    span,
                )
            self._solutions[a] = b
            return
        if isinstance(b, MLVar):
            self.unify(b, a, span)
            return
        if isinstance(a, MLCon) and isinstance(b, MLCon):
            if a.name != b.name or len(a.args) != len(b.args):
                raise MLTypeError(
                    f"type mismatch: {self.resolve(a)} vs {self.resolve(b)}", span
                )
            for x, y in zip(a.args, b.args):
                self.unify(x, y, span)
            return
        if isinstance(a, MLTuple) and isinstance(b, MLTuple):
            if len(a.items) != len(b.items):
                raise MLTypeError(
                    f"tuple arity mismatch: {self.resolve(a)} vs {self.resolve(b)}",
                    span,
                )
            for x, y in zip(a.items, b.items):
                self.unify(x, y, span)
            return
        if isinstance(a, MLArrow) and isinstance(b, MLArrow):
            self.unify(a.dom, b.dom, span)
            self.unify(a.cod, b.cod, span)
            return
        raise MLTypeError(
            f"type mismatch: {self.resolve(a)} vs {self.resolve(b)}", span
        )

    # -- schemes ------------------------------------------------------

    def instantiate(self, scheme: MLScheme) -> MLType:
        """Replace scheme-bound rigids with fresh unification vars."""
        if not scheme.tyvars:
            return scheme.body
        mapping: dict[str, MLType] = {name: self.fresh() for name in scheme.tyvars}
        from repro.types.mltype import subst_rigid

        return subst_rigid(scheme.body, mapping)

    def generalize(self, ty: MLType, env_vars: set[MLVar]) -> MLScheme:
        """Quantify the unification variables of ``ty`` not free in the
        environment, renaming them ``'a``, ``'b``, ..."""
        ty = self.resolve(ty)
        from repro.types.mltype import free_vars

        candidates = [v for v in sorted(free_vars(ty), key=lambda v: v.uid)
                      if v not in env_vars]
        if not candidates:
            return MLScheme.mono(ty)
        names: list[str] = []
        for i, var in enumerate(candidates):
            name = "'" + _letter(i)
            names.append(name)
            self._solutions[var] = MLRigid(name)
        return MLScheme(tuple(names), self.resolve(ty))


def _letter(i: int) -> str:
    alphabet = "abcdefghijklmnopqrstuvwxyz"
    if i < len(alphabet):
        return alphabet[i]
    return f"a{i}"
