"""The dialect layer: registry, value adaptation, and the safety gate.

The invariant the whole layer hangs on: a dialect can only *keep more*
checks than the elimination plan allows — ``may_eliminate`` filters the
eliminable set, so no dialect can uncheck a site the solver did not
discharge.  Everything else (packed buffers, numpy arrays) is value
representation, verified by differential execution against plain.
"""

from __future__ import annotations

import random
from array import array as pyarray

import pytest

from repro import api
from repro.compile import support
from repro.compile import workloads as wl
from repro.compile.certificate import issue_certificate
from repro.compile.dialects import (
    DEFAULT_DIALECT,
    DialectError,
    available_dialects,
    dialect_names,
    dialect_summary,
    get_dialect,
)
from repro.compile.dialects.buffers import Buf
from repro.compile.dialects.packed import PackedDialect, _mk_arr, _mk_tab
from repro.compile.dialects.plain import PlainDialect
from repro.compile.elim import plan_elimination
from repro.compile.pycodegen import compile_program
from repro.lang.errors import BoundsError

DIALECTS = available_dialects()

#: Provable program: the annotation discharges the bound check.
GOOD = (
    "fun get(a, i) = sub(a, i) where get <| "
    "{n:nat} {i:int | 0 <= i /\\ i < n} 'a array(n) * int(i) -> 'a\n"
)

#: Unprovable index: the site keeps its run-time check.
KEPT = "fun get(a, i) = sub(a, i)\n"


# -- registry ----------------------------------------------------------------


class TestRegistry:
    def test_names_are_sorted_and_complete(self):
        assert list(dialect_names()) == sorted(dialect_names())
        assert {"plain", "packed", "numpy"} <= set(dialect_names())

    def test_default_dialect_is_registered_and_available(self):
        assert DEFAULT_DIALECT in available_dialects()

    def test_plain_and_packed_always_available(self):
        assert {"plain", "packed"} <= set(available_dialects())

    def test_get_unknown_names_the_registered_ones(self):
        with pytest.raises(DialectError, match="plain"):
            get_dialect("fortran")

    def test_get_accepts_an_instance(self):
        d = PlainDialect()
        assert get_dialect(d) is d

    def test_summary_counts_per_dialect(self):
        report = api.check(GOOD, "good.dml")
        summary = dialect_summary(report.sites, report.eliminable_sites())
        for name in dialect_names():
            entry = summary[name]
            assert entry["sites"] == len(report.sites)
            assert 0 <= entry["eliminable"] <= len(report.eliminable_sites())
        assert (summary["plain"]["eliminable"]
                == len(report.eliminable_sites()))


# -- the safety gate ---------------------------------------------------------


def _wraps_negative_index(module, dialect) -> bool:
    """Does ``get(a, -1)`` read ``a``'s last element, as an eliminated
    read does, rather than raise ``BoundsError`` as a kept check does?"""
    array = get_dialect(dialect).adapt_value([1, 2, 3])
    try:
        return module.call("get", (array, -1)) == 3
    except BoundsError:
        return False


class _Paranoid(PackedDialect):
    """A dialect whose gate vetoes every elimination."""

    name = "paranoid"

    def may_eliminate(self, site) -> bool:
        return False


class TestEliminationGate:
    def test_plan_records_the_dialect(self):
        report = api.check(GOOD, "good.dml")
        for name in DIALECTS:
            plan = plan_elimination(report, name)
            assert plan.dialect == name
            assert name in plan.summary()

    def test_certificate_records_the_dialect(self):
        report = api.check(GOOD, "good.dml")
        cert = issue_certificate(report, dialect="packed")
        assert cert.dialect == "packed"
        assert "dialect packed" in cert.render()

    def test_gate_can_only_keep_more_checks(self):
        report = api.check(GOOD, "good.dml")
        baseline = plan_elimination(report).unchecked
        for name in DIALECTS:
            assert plan_elimination(report, name).unchecked <= baseline

    def test_vetoing_dialect_keeps_every_check(self):
        report = api.check(GOOD, "good.dml")
        assert plan_elimination(report).unchecked  # eliminable in plain
        plan = plan_elimination(report, _Paranoid())
        assert plan.unchecked == set()
        module = compile_program(report.program, report.env, plan.unchecked,
                                 "p", dialect=_Paranoid())
        assert not _wraps_negative_index(module, _Paranoid())

    def test_kept_site_checks_in_every_dialect(self):
        report = api.check(KEPT, "kept.dml")
        for name in DIALECTS:
            plan = plan_elimination(report, name)
            module = compile_program(report.program, report.env,
                                     plan.unchecked, "k", dialect=name)
            assert not _wraps_negative_index(module, name)

    def test_proved_site_goes_unchecked_in_every_dialect(self):
        report = api.check(GOOD, "good.dml")
        for name in DIALECTS:
            plan = plan_elimination(report, name)
            module = compile_program(report.program, report.env,
                                     plan.unchecked, "g", dialect=name)
            assert _wraps_negative_index(module, name)


# -- value adaptation --------------------------------------------------------


class TestPackedValues:
    def test_int_list_roundtrip(self):
        d = get_dialect("packed")
        packed = d.adapt_value([1, 2, 3])
        assert isinstance(packed, Buf)
        assert isinstance(packed.buf, pyarray)
        assert d.extract_value(packed) == [1, 2, 3]

    def test_nested_and_mixed_structures(self):
        d = get_dialect("packed")
        value = ([[1, 2], [3]], True, 7)
        adapted = d.adapt_value(value)
        assert d.extract_value(adapted) == value

    def test_non_int64_values_stay_plain_lists(self):
        d = get_dialect("packed")
        huge = [2 ** 70, 1]
        adapted = d.adapt_value(huge)
        assert isinstance(adapted, Buf)
        assert type(adapted.buf) is list  # unpackable, unpacked cell
        assert d.extract_value(adapted) == huge
        bools = d.adapt_value([True, False])  # bools excluded
        assert type(bools.buf) is list
        assert d.extract_value(bools) == [True, False]

    def test_long_cons_spine_does_not_recurse(self):
        # DML lists are cons pairs shared across dialects; the walker
        # must handle million-scale spines iteratively.
        d = get_dialect("packed")
        spine = support.from_pylist(list(range(10_000)))
        adapted = d.adapt_value(spine)
        # Compare iteratively: == on a 10k-deep cons chain would itself
        # blow the recursion limit.
        cell, expected = d.extract_value(adapted), 0
        while cell is not None:
            assert cell[0] == expected
            cell, expected = cell[1], expected + 1
        assert expected == 10_000

    def test_extracted_results_match_plain(self):
        report = api.check_corpus("quicksort")
        data = [5, 3, 9, 1, 1, 8]
        results = {}
        for name in ("plain", "packed"):
            plan = plan_elimination(report, name)
            module = compile_program(report.program, report.env,
                                     plan.unchecked, "qs", dialect=name)
            buf = get_dialect(name).adapt_value(list(data))
            module.call("quicksort", buf)
            results[name] = get_dialect(name).extract_value(buf)
        assert results["plain"] == results["packed"] == sorted(data)


# -- error parity ------------------------------------------------------------


class TestErrorParity:
    def test_bounds_error_in_every_dialect(self):
        from repro.lang.errors import BoundsError

        report = api.check(KEPT, "kept.dml")
        for name in DIALECTS:
            plan = plan_elimination(report, name)
            module = compile_program(report.program, report.env,
                                     plan.unchecked, "k", dialect=name)
            d = get_dialect(name)
            arr = d.adapt_value([10, 20, 30])
            assert module.call("get", (arr, 1)) == 20
            with pytest.raises(BoundsError):
                module.call("get", (arr, 3))
            with pytest.raises(BoundsError):
                module.call("get", (arr, -1))

    def test_tag_error_in_every_dialect(self):
        from repro.lang.errors import TagError

        source = "fun pick(l, n) = nth(l, n)\n"
        report = api.check(source, "nth.dml")
        for name in DIALECTS:
            plan = plan_elimination(report, name)
            module = compile_program(report.program, report.env,
                                     plan.unchecked, "n", dialect=name)
            lst = support.from_pylist([1, 2])
            assert module.call("pick", (lst, 1)) == 2
            with pytest.raises(TagError):
                module.call("pick", (lst, 5))


# -- int64-edge parity (regressions found by the differential fuzzer) --------


#: Packs at construction (small ints), then updates an out-of-int64
#: value: pre-fix, packed/numpy raised OverflowError where plain
#: stored the bignum.
OVERFLOW = (
    "fun main(u) = let\n"
    "  val a0 = array(3, 1)\n"
    "  val _ = update(a0, 1, 4611686018427387904 * 4)\n"
    "in sub(a0, 1) end\n"
    "where main <| int -> int\n"
)

#: Every element fits int64, but their sum does not: pre-fix, numpy's
#: np.int64 scalars leaked into generated arithmetic and wrapped.
WRAP = (
    "fun main(u) = let\n"
    "  val a0 = array(4, 4611686018427387904)\n"
    "in sub(a0, 0) + sub(a0, 1) + sub(a0, 2) end\n"
    "where main <| int -> int\n"
)


def _run_main(source: str, dialect: str):
    report = api.check(source, "edge.dml")
    plan = plan_elimination(report, dialect)
    module = compile_program(report.program, report.env, plan.unchecked,
                             "edge", dialect=dialect)
    return module.run("main", 0)


class TestInt64EdgeParity:
    @pytest.mark.parametrize("dialect", DIALECTS)
    def test_update_overflow_repacks_to_bignum(self, dialect):
        assert _run_main(OVERFLOW, dialect) == 4611686018427387904 * 4

    @pytest.mark.parametrize("dialect", DIALECTS)
    def test_reads_promote_to_bignum_arithmetic(self, dialect):
        assert _run_main(WRAP, dialect) == 3 * 4611686018427387904

    def test_packed_repack_preserves_aliases(self):
        d = get_dialect("packed")
        buf = d.adapt_value([1, 2, 3])
        alias = buf
        buf[1] = 2 ** 64  # repack-on-overflow demotes the shared cell
        assert type(buf.buf) is list
        assert alias[1] == 2 ** 64
        assert d.extract_value(alias) == [1, 2 ** 64, 3]

    def test_checked_packed_write_still_bounds_checks(self):
        report = api.check("fun put(a, i) = update(a, i, 9)\n", "put.dml")
        module = compile_program(report.program, report.env, set(), "put",
                                 dialect="packed")
        buf = get_dialect("packed").adapt_value([1, 2, 3])
        for index in (3, -1):
            with pytest.raises(BoundsError):
                module.call("put", (buf, index))
        assert buf.buf.tolist() == [1, 2, 3]

    @pytest.mark.skipif("numpy" not in DIALECTS, reason="numpy unavailable")
    def test_numpy_repack_on_overflow(self):
        d = get_dialect("numpy")
        buf = d.adapt_value([1, 2, 3])
        buf[0] = -(2 ** 70)
        assert type(buf.buf) is list
        # The demoted elements are Python ints, not np.int64 scalars.
        assert all(type(x) is int for x in buf.buf)
        assert d.extract_value(buf) == [-(2 ** 70), 2, 3]


class TestEmptyArrayRepresentation:
    def test_packed_constructors_agree_on_empty(self):
        made, tabulated = _mk_arr(0, 5), _mk_tab(0, lambda i: i)
        assert type(made) is type(tabulated)
        assert type(made.buf) is type(tabulated.buf) is list
        assert made == tabulated

    @pytest.mark.skipif("numpy" not in DIALECTS, reason="numpy unavailable")
    def test_numpy_constructors_agree_on_empty(self):
        from repro.compile.dialects.numpy_backend import _np_mk, _np_tab

        made, tabulated = _np_mk(0, 5), _np_tab(0, lambda i: i)
        assert type(made) is type(tabulated)
        assert type(made.buf) is type(tabulated.buf) is list

    @pytest.mark.parametrize("dialect", DIALECTS)
    def test_empty_extracts_identically(self, dialect):
        source = (
            "fun main(u) = array(0, 7)\n"
            "where main <| int -> int array(0)\n"
        )
        assert _run_main(source, dialect) == []


# -- differential execution (the CI backstop) --------------------------------


def test_all_presets_defined():
    for program, presets in wl.SIZES.items():
        assert set(presets) == set(wl.PRESETS), program


def test_paper_sizes_match_section4():
    assert wl.SIZES["bcopy"]["paper"] == {"bytes": 1_048_576, "times": 10}
    assert wl.SIZES["bsearch"]["paper"]["size"] == 2**20
    assert wl.SIZES["bubblesort"]["paper"]["size"] == 2**13
    assert wl.SIZES["matmult"]["paper"]["dim"] == 256
    assert wl.SIZES["queens"]["paper"]["board"] == 12
    assert wl.SIZES["quicksort"]["paper"]["size"] == 2**20
    assert wl.SIZES["hanoi"]["paper"]["disks"] == 24
    assert wl.SIZES["listaccess"]["paper"]["times"] == 2**20


@pytest.mark.parametrize("display", sorted(wl.WORKLOADS))
def test_workloads_agree_across_dialects(display):
    """Every benchmark workload computes identical results (and
    identical argument mutations) in every available dialect."""
    workload = wl.WORKLOADS[display]
    report = api.check_corpus(workload.program)
    params = workload.params("small")
    outcomes = {}
    for name in DIALECTS:
        d = get_dialect(name)
        plan = plan_elimination(report, name)
        module = compile_program(report.program, report.env, plan.unchecked,
                                 workload.program, dialect=name)
        rng = random.Random(wl.SEED)
        args = d.adapt_args(
            workload.build(params, support.from_pylist, rng))
        result = module.call(workload.entry, *args)
        outcomes[name] = (d.extract_value(result), d.extract_value(args))
    reference = outcomes["plain"]
    for name, outcome in outcomes.items():
        assert outcome == reference, f"dialect {name} diverged on {display}"
    assert workload.validate(reference[0], params)
