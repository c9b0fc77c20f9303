"""Global typing environment shared by both elaboration phases.

Tracks type *families* (built-in and user ``datatype``s, with their
index sorts once ``typeref``'d), *constructors* (dependent signatures),
top-level *values* (dependent schemes, tagged by how they were bound),
and transparent type *abbreviations*.
"""

from __future__ import annotations

from dataclasses import field
from enum import Enum
from typing import Optional

from repro.indices.sorts import BOOL, INT, NAT, Sort
from repro.records import record
from repro.types.types import DScheme


class ValueKind(Enum):
    """How a top-level value entered the environment."""

    ASSERTED = "asserted"  # `assert name <| ty` — trusted, has builtin runtime
    DEFINED = "defined"  # `fun`/`val` in the program
    CONSTRUCTOR = "constructor"


#: Built-in operations whose run-time safety checks the compiler may
#: eliminate, mapped to the kind of check they perform.
CHECK_SITES = {
    "sub": "bound",
    "update": "bound",
    "nth": "tag",
    "hd": "tag",
    "tl": "tag",
}

#: Built-in operations whose dependent guard is a *partiality*
#: condition (divide by zero), not an eliminable memory-safety check.
#: Their obligations are tagged so an unprovable divisor does not block
#: check elimination elsewhere — the run-time Div exception remains.
GUARDED_OPS = {"div", "mod"}

#: Checked variants that never lose their run-time check (Figure 5's
#: ``subCK``): same runtime behaviour, non-dependent type.
ALWAYS_CHECKED = {
    "subCK": "bound",
    "updateCK": "bound",
    "nthCK": "tag",
    "hdCK": "tag",
    "tlCK": "tag",
}


@record
class Family:
    """One type family: built-in or user ``datatype``."""

    name: str
    tyvar_count: int
    #: Index sorts after ``typeref``; empty if unrefined.
    index_sorts: list[Sort] = field(default_factory=list)
    constructors: list[str] = field(default_factory=list)
    builtin: bool = False
    #: Subtyping variance per type argument: "co", "contra", or
    #: "invariant".  Arrays are invariant (mutable); datatype variances
    #: are computed from constructor argument types at declaration.
    variances: list[str] = field(default_factory=list)

    def variance(self, position: int) -> str:
        if position < len(self.variances):
            return self.variances[position]
        return "invariant"


@record
class ConInfo:
    name: str
    family: str
    #: ``None`` for nullary constructors.
    has_arg: bool
    scheme: DScheme


@record
class ValueInfo:
    name: str
    kind: ValueKind
    scheme: DScheme
    #: Check-site kind ("bound"/"tag") when this is an eliminable op.
    site_kind: Optional[str] = None


class GlobalEnv:
    """Families + constructors + values + abbreviations."""

    def __init__(self) -> None:
        self.families: dict[str, Family] = {}
        self.constructors: dict[str, ConInfo] = {}
        self.values: dict[str, ValueInfo] = {}
        self.abbrevs: dict[str, "object"] = {}  # name -> DType
        self._install_builtin_families()

    def _install_builtin_families(self) -> None:
        self.families["int"] = Family("int", 0, [INT], builtin=True)
        self.families["bool"] = Family("bool", 0, [BOOL], builtin=True)
        self.families["array"] = Family(
            "array", 1, [NAT], builtin=True, variances=["invariant"]
        )
        # The exception type: user `exception` declarations add
        # constructors to this unindexed, extensible family.
        self.families["exn"] = Family("exn", 0, [], builtin=True)

    # -- registration -----------------------------------------------------

    def add_family(self, family: Family) -> None:
        self.families[family.name] = family

    def add_constructor(self, info: ConInfo) -> None:
        self.constructors[info.name] = info
        self.families[info.family].constructors.append(info.name)

    def add_value(self, info: ValueInfo) -> None:
        self.values[info.name] = info

    # -- forking ----------------------------------------------------------

    def fork(self) -> "GlobalEnv":
        """An independent environment continuing from this one's state.

        Shares the immutable payloads (schemes, sorts, types — all
        frozen or interned) but copies every mutable record: later
        declarations mutate :class:`Family` (``typeref`` fills
        ``index_sorts``; ``exception`` appends to the ``exn`` family's
        constructor list) and :class:`ConInfo` (``typeref`` replaces
        ``scheme``), so the memoized prelude template must hand each
        check its own copies.  Cheap: a few dozen small records.
        """
        clone = GlobalEnv.__new__(GlobalEnv)
        clone.families = {
            name: Family(
                f.name,
                f.tyvar_count,
                list(f.index_sorts),
                list(f.constructors),
                f.builtin,
                list(f.variances),
            )
            for name, f in self.families.items()
        }
        clone.constructors = {
            name: ConInfo(c.name, c.family, c.has_arg, c.scheme)
            for name, c in self.constructors.items()
        }
        clone.values = {
            name: ValueInfo(v.name, v.kind, v.scheme, v.site_kind)
            for name, v in self.values.items()
        }
        clone.abbrevs = dict(self.abbrevs)
        return clone

    # -- queries --------------------------------------------------------

    def is_constructor(self, name: str) -> bool:
        return name in self.constructors

    def family(self, name: str) -> Family | None:
        return self.families.get(name)

    def value(self, name: str) -> ValueInfo | None:
        return self.values.get(name)

    def constructor(self, name: str) -> ConInfo | None:
        return self.constructors.get(name)
