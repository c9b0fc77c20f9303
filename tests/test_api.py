"""Tests for the public pipeline API."""

import re

import pytest

from repro import api
from repro.lang.errors import UnsolvedConstraint
from repro.solver.backends import get_backend
from repro.solver.portfolio import SolverCache

GOOD = (
    "fun f(a) = sub(a, 0) "
    "where f <| {n:nat | n > 0} 'a array(n) -> 'a"
)
BAD = "fun f(a, i) = sub(a, i)"


class TestCheck:
    def test_good_program(self):
        report = api.check(GOOD)
        assert report.all_proved
        assert report.failed_goals == []
        assert report.num_constraints > 0
        assert report.generation_seconds > 0
        assert report.solve_seconds >= 0

    def test_bad_program(self):
        report = api.check(BAD)
        assert not report.all_proved
        assert report.failed_goals
        assert report.eliminable_sites() == set()

    def test_summary_mentions_unsolved(self):
        report = api.check(BAD)
        assert "UNSOLVED" in report.summary()

    def test_summary_good(self):
        text = api.check(GOOD).summary()
        assert "1 eliminable" in text

    def test_raise_if_failed(self):
        api.check(GOOD).raise_if_failed()
        with pytest.raises(UnsolvedConstraint):
            api.check(BAD).raise_if_failed()

    def test_backend_by_name_and_object(self):
        assert api.check(GOOD, backend="omega").all_proved
        assert api.check(GOOD, backend=get_backend("simplex")).all_proved

    def test_without_prelude_rejects_builtins(self):
        from repro.lang.errors import MLTypeError

        with pytest.raises(MLTypeError):
            api.check("fun f(a) = sub(a, 0)", include_prelude=False)

    def test_without_prelude_pure_program(self):
        report = api.check(
            "datatype t = A | B fun f(A) = B | f(B) = A",
            include_prelude=False,
        )
        assert report.all_proved

    def test_site_proved_per_site(self):
        report = api.check(
            GOOD + " fun g(a, i) = sub(a, i)"
        )
        proved = [s for s in report.sites if report.site_proved(s)]
        unproved = [s for s in report.sites if not report.site_proved(s)]
        assert len(proved) == 1 and len(unproved) == 1

    def test_check_corpus(self):
        report = api.check_corpus("dotprod")
        assert report.name == "dotprod.dml"
        assert report.all_proved

    def test_check_corpus_unknown(self):
        with pytest.raises(FileNotFoundError):
            api.check_corpus("does-not-exist")

    def test_summary_without_a_cache_says_cache_off(self):
        text = api.check_corpus("bcopy").summary()
        (line,) = [ln for ln in text.splitlines() if ln.startswith("solver queries:")]
        assert line.endswith("unsat), cache off")
        assert "canonical keys:" not in text

    def test_summary_with_a_cache_reports_its_counts(self):
        text = api.check_corpus("bcopy", cache=SolverCache()).summary()
        assert re.search(
            r"^solver queries:   \d+ \(\d+ unsat\), cache \d+ hit\(s\) / "
            r"\d+ miss\(es\) / 0 eviction\(s\)$", text, re.M,
        )
        assert re.search(r"^canonical keys:   \d+ hit\(s\) / ", text, re.M)


class TestEliminationPlan:
    def test_plan_good(self):
        from repro.compile.elim import plan_elimination

        plan = plan_elimination(api.check(GOOD))
        assert plan.program_proved
        assert len(plan.unchecked) == 1
        assert plan.bound_sites and not plan.tag_sites
        assert "1 of 1" in plan.summary()

    def test_plan_bad_is_fail_closed(self):
        from repro.compile.elim import plan_elimination

        plan = plan_elimination(api.check(BAD))
        assert not plan.program_proved
        assert plan.unchecked == set()

    def test_plan_is_per_site(self):
        """Pin the per-site policy: a failed obligation at one access
        site keeps that site's check without vetoing the other."""
        from repro.compile.elim import plan_elimination

        plan = plan_elimination(api.check(GOOD + " fun g(a, i) = sub(a, i)"))
        assert not plan.program_proved
        assert len(plan.sites) == 2
        assert len(plan.unchecked) == 1
        (site,) = plan.unchecked
        assert plan.site_proved[site]
        assert not all(plan.site_proved.values())

    def test_plan_structural_failure_vetoes_every_site(self):
        """...but one failed structural goal (an unjustified annotation)
        fail-closes the whole program, even where site goals held."""
        from repro.compile.elim import plan_elimination

        src = (
            "fun head(a) = sub(a, 0) "
            "where head <| {n:nat | n > 0} 'a array(n) -> 'a "
            "fun g(a) = head(a) where g <| {n:nat} 'a array(n) -> 'a"
        )
        plan = plan_elimination(api.check(src))
        assert plan.unchecked == set()
        # The site's own goals discharged; only the structural gate
        # keeps its check.
        assert all(plan.site_proved.values())


class TestPreludeMemoization:
    """The prelude is parsed and ML-inferred once per process; per-call
    work (and ``generation_seconds``) covers only the user program."""

    def test_prelude_not_reparsed_on_later_checks(self, monkeypatch):
        api.check(GOOD)  # prime the template
        real_parse = api.parse_program

        def guarded(source, name="<input>"):
            assert name != "prelude.dml", "prelude re-parsed after priming"
            return real_parse(source, name)

        monkeypatch.setattr(api, "parse_program", guarded)
        assert api.check(GOOD).all_proved

    def test_reset_forces_a_rebuild(self, monkeypatch):
        api.check(GOOD)
        api.reset_prelude_cache()
        seen = []
        real_parse = api.parse_program

        def spying(source, name="<input>"):
            seen.append(name)
            return real_parse(source, name)

        monkeypatch.setattr(api, "parse_program", spying)
        try:
            assert api.check(GOOD).all_proved
        finally:
            # The rebuilt template holds a parse from the spy; drop it.
            api.reset_prelude_cache()
        assert "prelude.dml" in seen

    def test_checks_do_not_leak_bindings_through_the_template(self):
        api.check("fun leaky(x) = x + 1")
        from repro.lang.errors import MLTypeError

        with pytest.raises(MLTypeError):
            api.check("fun g(x) = leaky(x)")

    def test_exception_declarations_do_not_leak(self):
        # ``exception`` appends to the shared exn family's constructor
        # list; the fork must copy that list so check A's declaration
        # is invisible to check B.
        from repro.lang.errors import MLTypeError

        api.check("exception Oops fun f(x) = if x then raise Oops else 1")
        with pytest.raises(MLTypeError):
            api.check("fun g(x) = if x then raise Oops else 1")

    def test_typeref_refinements_do_not_leak(self):
        # ``typeref`` mutates Family.index_sorts and replaces each
        # ConInfo.scheme in place.  A later check declaring the same
        # datatype must start from the unrefined template, not see the
        # previous check's refinement.
        refined = (
            "datatype box = EMPTY | FULL of int "
            "typeref box of nat with EMPTY <| box(0) | FULL <| int -> box(1) "
        )
        assert api.check(refined).structural_ok
        # Same datatype, no typeref: must elaborate as plain ML (no
        # stale index sorts demanding indices on box).
        assert api.check(
            "datatype box = EMPTY | FULL of int fun mk(x) = FULL(x)"
        ).all_proved
        # And re-refining from scratch still works.
        assert api.check(refined).structural_ok

    def test_forks_share_prelude_payloads_without_aliasing_registries(self):
        # The fork shares immutable payloads (schemes) by identity but
        # never the mutable registries themselves — no deepcopy, no
        # aliasing.
        r1, r2 = api.check(GOOD), api.check(GOOD)
        assert r1.env is not r2.env
        assert r1.env.values is not r2.env.values
        for name, info in r1.env.values.items():
            assert r2.env.values[name].scheme is info.scheme

    def test_evar_solutions_do_not_leak_between_checks(self):
        # Each check gets a fresh EvarStore; solving existentials for
        # one program must not perturb a repeat check of another.
        first = api.check(GOOD)
        api.check(BAD)
        again = api.check(GOOD)
        assert again.all_proved
        assert again.stats.evars_solved == first.stats.evars_solved

    def test_goal_text_does_not_depend_on_earlier_checks(self):
        # Lifted binders (``_l1``) and fresh rigid variables are
        # numbered per elaboration, so checking another program in
        # between leaves a program's goals word for word the same.
        def goal_texts():
            report = api.check(BAD)
            return [r.goal.text(report.elab.store) for r in report.goal_results]

        first = goal_texts()
        api.check_corpus("bsearch")
        assert goal_texts() == first
        assert "_l1" in first[0]

    def test_generation_time_is_per_program_work_only(self):
        import time

        api.check(GOOD)  # prime
        started = time.perf_counter()
        report = api.check(GOOD)
        wall = time.perf_counter() - started
        # The reported window is a subset of this call's wall clock
        # (it cannot be charging a fresh prelude elaboration).
        assert 0 < report.generation_seconds <= wall
