"""Shrinker properties: minimality under a predicate, and the
end-to-end acceptance bar — a re-introduced dialect bug shrinks to a
repro under twenty source lines."""

from dataclasses import replace

from repro.fuzz.faults import get_fault
from repro.fuzz.gen import GenConfig, Op, generate, render
from repro.fuzz.oracle import run_differential
from repro.fuzz.runner import fuzz, iteration_rng
from repro.fuzz.shrink import shrink


class TestGreedyShrink:
    def test_never_violates_predicate(self):
        spec = generate(iteration_rng(11, 0), GenConfig(depth=10))

        def has_ops(candidate):
            return len(candidate.ops) >= 2

        shrunk, attempts = shrink(spec, has_ops, max_attempts=120)
        assert has_ops(shrunk)
        assert len(shrunk.ops) == 2  # greedy floor of the predicate
        assert attempts <= 120

    def test_rerender_stays_well_formed(self):
        spec = generate(iteration_rng(5, 3), GenConfig(depth=12))
        shrunk, _ = shrink(spec, lambda s: True, max_attempts=150)
        rendered = render(shrunk)
        result = run_differential(rendered.source, rendered.truths,
                                  dialects=["plain"])
        assert result.ok, result.render()

    def test_noop_when_predicate_rejects_everything(self):
        spec = generate(iteration_rng(2, 0), GenConfig())
        same, _ = shrink(spec, lambda s: s == spec, max_attempts=60)
        assert same == spec

    def test_drops_unreferenced_arrays(self):
        spec = generate(iteration_rng(9, 1), GenConfig(decls=2, depth=6))
        # Keep only the first op; later arrays usually unreferenced.
        spec = replace(spec, ops=spec.ops[:1])
        shrunk, _ = shrink(spec, lambda s: True, max_attempts=120)
        assert len(shrunk.arrays) <= len(spec.arrays)


    def test_simplifies_effect_ops(self):
        spec = generate(iteration_rng(0, 0), GenConfig(depth=0))
        spec = replace(spec, ops=(
            Op("eff", target=0, idx=1, value=("update", "handle", 7)),))

        def has_effect(candidate):
            return any(op.kind == "eff" for op in candidate.ops)

        shrunk, _ = shrink(spec, has_effect, max_attempts=60)
        assert shrunk.ops == (Op("eff", value=("binop", "print", 0)),)


class TestAcceptanceBar:
    def test_overflow_fault_shrinks_below_twenty_lines(self):
        # The issue's acceptance criterion: re-introduce the packed
        # overflow bug and the fuzzer must find it AND shrink the repro
        # below 20 source lines.
        fault = get_fault("overflow-update")
        report = fuzz(seed=0, iterations=40,
                      dialects=[(fault.name, fault)])
        assert report.findings, "fault not detected in 40 iterations"
        for finding in report.findings:
            assert finding.final_lines < 20, finding.render()

    def test_kept_check_fault_shrinks_below_twenty_lines(self):
        # A kept check that lets a negative index through.
        fault = get_fault("kept-check")
        report = fuzz(seed=0, iterations=60,
                      dialects=[(fault.name, fault)])
        assert report.findings, "fault not detected in 60 iterations"
        for finding in report.findings:
            assert finding.final_lines < 20, finding.render()
