"""The checker's output on every ``.dml`` program in the repository.

``tests/data/verdict_digest.json`` holds, for each program, its goal
and site counts and a SHA-256 over everything ``api.check`` reports:
the constraint text of each declaration, the evar solutions, each
goal's position, text, verdict and reason, the check sites with the
eliminable ones, and the warnings.  A change to any of them fails the
test named after the program.

Fresh index variables are named from process-wide counters (``_i33``,
``n#4``), so their numbers depend on what the process checked before.
The output renumbers them in formulas by first appearance, which keeps
each program's digest independent of the others; site ids such as
``sub#3`` are numbered per program and stay as they are.

Regenerate the golden only on purpose, when a change is meant to alter
verdicts or goal text:

    PYTHONPATH=src python tests/test_verdict_digest.py
"""

import hashlib
import json
import re
from pathlib import Path

import pytest

from repro import api

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "verdict_digest.json"

#: Every directory of checkable programs (the prelude is checked as
#: part of each of them, not on its own).
PROGRAM_DIRS = (
    "src/repro/programs",
    "tests/corpus/fuzz_regressions",
    "benchmarks/e2e/inputs/gen",
)


def programs() -> list[str]:
    return sorted(
        path.relative_to(ROOT).as_posix()
        for directory in PROGRAM_DIRS
        for path in (ROOT / directory).glob("*.dml")
        if path.name != "prelude.dml"
    )


#: A counter-made name: ``_`` + letter + number, or a ``#number`` suffix.
FRESH = re.compile(r"(?<![A-Za-z0-9])_[A-Za-z]\d+|#\d+")


def renumberer():
    """A function renumbering counter-made names in formula text, the
    same name to the same number across calls."""
    seen: dict[str, str] = {}

    def rename(match: re.Match) -> str:
        token = match.group()
        if token not in seen:
            prefix = token[:2] if token.startswith("_") else "#"
            seen[token] = f"{prefix}{len(seen)}"
        return seen[token]

    return lambda formula: FRESH.sub(rename, str(formula))


def output(name: str) -> list[str]:
    """The checker's report on one program, one fact a line."""
    report = api.check((ROOT / name).read_text(), name)
    fresh = renumberer()
    lines = [
        f"constraint {fresh(dc.constraint)}" for dc in report.elab.decl_constraints
    ]
    solutions = report.elab.store.solutions
    for evar, term in sorted(solutions.items(), key=lambda kv: kv[0].uid):
        lines.append(f"evar {fresh(evar)} := {fresh(term)}")
    for result in report.goal_results:
        goal = result.goal
        verdict = "proved" if result.proved else "UNSOLVED"
        lines.append(
            f"goal {report.source.describe(goal.span)} [{goal.origin}] "
            f"{fresh(goal)} -- {verdict}: {fresh(result.reason)}"
        )
    eliminable = report.eliminable_sites()
    for site_id, info in sorted(report.sites.items()):
        status = "eliminable" if site_id in eliminable else "kept"
        lines.append(f"site {site_id} {info.op} {info.kind} {status}")
    lines.extend(f"warning {fresh(warning)}" for warning in report.warnings)
    return lines


def digest(name: str) -> dict:
    lines = output(name)
    goals = [line for line in lines if line.startswith("goal ")]
    sites = [line for line in lines if line.startswith("site ")]
    return {
        "goals": len(goals),
        "unsolved": sum(" -- UNSOLVED: " in line for line in goals),
        "sites": len(sites),
        "eliminable": sum(line.endswith(" eliminable") for line in sites),
        "sha256": hashlib.sha256("\n".join(lines).encode()).hexdigest(),
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_program(golden):
    assert sorted(golden) == programs()


@pytest.mark.parametrize("name", programs())
def test_checker_output_is_unchanged(name, golden):
    assert digest(name) == golden[name]


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({name: digest(name) for name in programs()}, indent=1) + "\n"
    )
    print(f"wrote {GOLDEN.relative_to(ROOT)}")
