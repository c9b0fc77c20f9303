"""Generator invariants: determinism, well-typedness, and the
by-construction ground truth agreeing with the solver."""

from dataclasses import replace

import pytest

from repro import api
from repro.fuzz.gen import (
    EFFECT_FORMS,
    EFFECT_LATER,
    GenConfig,
    Op,
    generate,
    render,
)
from repro.fuzz.runner import iteration_rng
from repro.solver.portfolio import SolverCache

SHARED_CACHE = SolverCache(maxsize=1 << 16)


def _rendered(seed: int, iteration: int = 0, **kw):
    return render(generate(iteration_rng(seed, iteration), GenConfig(**kw)))


class TestDeterminism:
    def test_same_seed_same_source(self):
        assert _rendered(7).source == _rendered(7).source

    def test_different_iterations_differ(self):
        sources = {
            render(generate(iteration_rng(0, i), GenConfig())).source
            for i in range(20)
        }
        assert len(sources) > 10  # the stream is not degenerate

    def test_truths_rerender_identically(self):
        a, b = _rendered(3), _rendered(3)
        assert a.truths == b.truths


class TestWellTyped:
    @pytest.mark.parametrize("seed", range(12))
    def test_elaborates_and_matches_truth(self, seed):
        rendered = _rendered(seed)
        report = api.check(rendered.source, f"gen-{seed}",
                           cache=SHARED_CACHE)
        # Structural goals always hold: generated calls satisfy their
        # callees' guards with literal arguments.
        assert report.structural_ok, rendered.source
        # Exactly one tracked site per ground-truth entry...
        assert len(report.sites) == len(rendered.truths), rendered.source
        # ...and the solver verdict equals the by-construction truth.
        elim = report.eliminable_sites()
        by_line = {t.line: t for t in rendered.truths}
        for sid, info in report.sites.items():
            line, _ = report.source.line_col(info.span.start)
            truth = by_line[line]
            assert (sid in elim) == truth.eliminable, (
                f"{sid} line {line} ({truth.note}):\n{rendered.source}"
            )

    def test_sizing_knobs(self):
        small = _rendered(1, depth=2, decls=1)
        big = _rendered(1, depth=20, decls=4)
        assert len(big.source.splitlines()) > len(small.source.splitlines())


class TestRendering:
    def test_negative_literals_are_parenthesized(self):
        # The grammar has no negative literals; big negative values
        # must render as (0 - n).
        for seed in range(40):
            source = _rendered(seed).source
            assert "-9" not in source.replace("(0 - 9", "")

    def test_one_site_per_line(self):
        # The truth join key is the source line, so two tracked sites
        # must never share one.
        for seed in range(20):
            rendered = _rendered(seed)
            lines = [t.line for t in rendered.truths]
            assert len(lines) == len(set(lines)), rendered.source


class TestEffects:
    def test_every_effect_shape_is_drawn(self):
        ops = [op for seed in range(40)
               for op in generate(iteration_rng(seed, 0), GenConfig()).ops]
        effects = [op.value for op in ops if op.kind == "eff"]
        assert {form for form, _, _ in effects} == set(EFFECT_FORMS)
        assert {later for _, later, _ in effects} == set(EFFECT_LATER)
        divisors = {op.value[1] for op in ops
                    if op.kind == "arith" and op.value[0] in ("div", "mod")}
        assert {0, "acc"} <= divisors

    def test_only_used_helpers_are_declared(self):
        spec = generate(iteration_rng(0, 0), GenConfig(depth=0))
        spec = replace(spec, ops=(Op("eff", value=("binop", "let", 3)),))
        source = render(spec).source
        assert "fun pr(" in source
        assert "pick" not in source and "Fuzz" not in source
