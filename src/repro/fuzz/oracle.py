"""The differential oracle: one program, every engine, one verdict.

An *engine* is one way to execute a DML program end to end:

* ``interp-checked`` — the interpreter with every run-time check kept
  (the reference semantics; everything else is compared against it);
* ``interp`` — the interpreter with the solver-certified sites
  eliminated;
* ``<dialect>-checked`` — the compiled build with every check kept;
* ``<dialect>-unchecked`` — the compiled build with the
  certificate-gated elimination plan applied,

for every requested dialect (default: every *available* dialect).  An
engine's :class:`Outcome` is the value it returned or the exception it
raised (class name and message), together with the lines it printed —
each engine's stdout is captured on its own.  A compiled value is
extracted by ``Dialect.extract_value``, and an interpreter value is put
in compiled code's representation (:func:`_compiled_form`), so
representation differences can never masquerade as behaviour, while
``BoundsError``/``TagError``/``OverflowError``, their messages and the
order of printed output are all compared behaviour.

Mismatch kinds, most severe first:

* ``pipeline-error`` — the static pipeline raised on a generated
  program (generator or frontend bug);
* ``soundness`` — the solver proved a site that is non-eliminable *by
  construction* (the paper's central claim would be violated);
* ``behaviour`` — an engine's outcome differs from the reference;
* ``structural`` — a generated program failed a structural goal
  (generator invariant broken: every generated call satisfies its
  callee's guard with literals);
* ``incompleteness`` — a by-construction-eliminable site stayed
  unproved (solver regression; checks stay sound but the paper's
  elimination rate silently degrades).

When any mismatch is found and goals failed, the report carries the
concrete counterexample valuations from
:func:`repro.solver.diagnose.explain_failures` — "fails when i = 3,
n = 2" is the difference between a repro and a riddle.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import field
from typing import Any, Iterable, Sequence

from repro import api
from repro.compile.dialects import available_dialects, get_dialect
from repro.compile.dialects.base import Dialect
from repro.eval.interp import Interpreter
from repro.eval.values import ConV
from repro.fuzz.gen import SiteTruth
from repro.lang.errors import DMLError
from repro.records import record

#: Mismatch kinds in decreasing severity.
KINDS = ("pipeline-error", "soundness", "behaviour", "structural",
         "incompleteness")


@record(frozen=True)
class Outcome:
    """What one engine produced: a native value or an exception (class
    and message), and the lines it printed on the way."""

    kind: str  # "value" | "error"
    value: Any = None
    error: str = ""
    message: str = ""
    printed: tuple[str, ...] = ()

    def render(self) -> str:
        text = (f"raises {self.error}: {self.message}" if self.kind == "error"
                else repr(self.value))
        if self.printed:
            text += f" after printing {' '.join(self.printed)}"
        return text if len(text) <= 100 else text[:97] + "..."


@record(frozen=True)
class Mismatch:
    kind: str
    detail: str
    engine: str | None = None
    site: str | None = None


@record
class DiffResult:
    """Everything one differential run produced."""

    outcomes: dict[str, Outcome] = field(default_factory=dict)
    mismatches: list[Mismatch] = field(default_factory=list)
    report: api.CheckReport | None = None
    #: Counterexample valuations for failed goals (diagnose wiring).
    diagnostics: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    @property
    def kinds(self) -> set[str]:
        return {m.kind for m in self.mismatches}

    @property
    def worst(self) -> str | None:
        for kind in KINDS:
            if kind in self.kinds:
                return kind
        return None

    def render(self) -> str:
        lines = []
        for m in sorted(self.mismatches, key=lambda m: KINDS.index(m.kind)):
            where = f" [{m.engine or m.site}]" if (m.engine or m.site) else ""
            lines.append(f"{m.kind}{where}: {m.detail}")
        if self.outcomes:
            lines.append("engine outcomes:")
            for name, outcome in self.outcomes.items():
                lines.append(f"  {name:<20} {outcome.render()}")
        if self.diagnostics:
            lines.append("diagnostics:")
            lines.extend(f"  {d}" for d in self.diagnostics)
        return "\n".join(lines)


def _compiled_form(value: Any) -> Any:
    """An interpreter value in compiled code's representation: ``nil``
    is ``None``, ``::`` a ``(head, tail)`` pair, another nullary
    constructor its tag string and a unary one a ``(tag, arg)`` pair."""
    if isinstance(value, ConV):
        if value.con == "nil":
            return None
        if value.con == "::":
            return tuple(_compiled_form(x) for x in value.arg)
        if value.arg is None:
            return value.con
        return (value.con, _compiled_form(value.arg))
    if isinstance(value, list):
        return [_compiled_form(x) for x in value]
    if isinstance(value, tuple):
        return tuple(_compiled_form(x) for x in value)
    return value


def _capture(thunk) -> Outcome:
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            value = thunk()
    except Exception as exc:  # noqa: BLE001 - engine divergence IS the signal
        return Outcome("error", error=type(exc).__name__, message=str(exc),
                       printed=tuple(out.getvalue().splitlines()))
    return Outcome("value", value=value,
                   printed=tuple(out.getvalue().splitlines()))


def resolve_dialects(
    dialects: Sequence[str | Dialect] | None,
) -> list[tuple[str, Dialect]]:
    """Normalize a dialect request to ``(label, instance)`` pairs.

    ``None`` selects every available registered dialect.  Instances
    pass through unchanged (that is how :mod:`repro.fuzz.faults`
    injects broken variants under their own labels).
    """
    if dialects is None:
        return [(name, get_dialect(name)) for name in available_dialects()]
    resolved: list[tuple[str, Dialect]] = []
    for d in dialects:
        if isinstance(d, tuple):  # already-resolved (label, instance)
            resolved.append(d)
        elif isinstance(d, Dialect):
            resolved.append((d.name, d))
        else:
            resolved.append((d, get_dialect(d)))
    return resolved


def _truth_mismatches(
    report: api.CheckReport, truths: Iterable[SiteTruth]
) -> list[Mismatch]:
    truths = list(truths)
    if not truths:
        return []
    if not report.structural_ok:
        failed = [r for r in report.failed_goals if not r.goal.origin]
        where = report.source.describe(failed[0].goal.span) if failed else "?"
        return [Mismatch(
            "structural",
            f"{len(failed)} structural goal(s) failed (first at {where}); "
            "generated calls satisfy their guards by construction, so "
            "this is a generator or elaborator bug",
        )]
    mismatches: list[Mismatch] = []
    elim = report.eliminable_sites()
    by_line = {t.line: t for t in truths}
    for sid, info in report.sites.items():
        line, _ = report.source.line_col(info.span.start)
        truth = by_line.get(line)
        if truth is None:
            mismatches.append(Mismatch(
                "structural",
                f"site {sid} on line {line} has no ground truth "
                "(renderer invariant: one tracked site per line)",
                site=sid,
            ))
            continue
        proved = sid in elim
        if proved and not truth.eliminable:
            mismatches.append(Mismatch(
                "soundness",
                f"solver proved site {sid} (line {line}, {truth.note}) "
                "which is non-eliminable by construction",
                site=sid,
            ))
        elif truth.eliminable and not proved:
            mismatches.append(Mismatch(
                "incompleteness",
                f"site {sid} (line {line}, {truth.note}) is eliminable "
                "by construction but stayed unproved",
                site=sid,
            ))
    return mismatches


def run_differential(
    source: str,
    truths: Sequence[SiteTruth] = (),
    *,
    name: str = "<fuzz>",
    dialects: Sequence[str | Dialect] | None = None,
    backend: str = "fourier",
    cache=None,
    entry: str = "main",
    args: tuple = (0,),
) -> DiffResult:
    """Run one program through every engine and compare outcomes."""
    from repro.compile.elim import plan_elimination
    from repro.compile.pycodegen import compile_program

    try:
        report = api.check(source, name, backend=backend, cache=cache)
    except DMLError as exc:
        return DiffResult(mismatches=[Mismatch(
            "pipeline-error",
            f"static pipeline raised {type(exc).__name__}: {exc}",
        )])

    result = DiffResult(report=report)
    result.mismatches.extend(_truth_mismatches(report, truths))

    elim = report.eliminable_sites()
    result.outcomes["interp-checked"] = _capture(
        lambda: _compiled_form(
            Interpreter(report.program, set(), env=report.env)
            .call(entry, *args)
        )
    )
    result.outcomes["interp"] = _capture(
        lambda: _compiled_form(
            Interpreter(report.program, elim, env=report.env)
            .call(entry, *args)
        )
    )

    for label, dialect in resolve_dialects(dialects):
        plan = plan_elimination(report, dialect)
        for mode, unchecked in (("checked", set()),
                                ("unchecked", plan.unchecked)):
            def compiled(unchecked=unchecked, dialect=dialect):
                module = compile_program(
                    report.program, report.env, unchecked,
                    name="fuzzmod", dialect=dialect,
                )
                module.load()
                adapted = dialect.adapt_args(tuple(args))
                return dialect.extract_value(module.call(entry, *adapted))

            result.outcomes[f"{label}-{mode}"] = _capture(compiled)

    reference = result.outcomes["interp-checked"]
    for engine, outcome in result.outcomes.items():
        if outcome != reference:
            result.mismatches.append(Mismatch(
                "behaviour",
                f"{engine} disagrees with interp-checked: "
                f"{outcome.render()} vs {reference.render()}",
                engine=engine,
            ))

    if result.mismatches and report.failed_goals:
        result.diagnostics = report.explain()
    return result
