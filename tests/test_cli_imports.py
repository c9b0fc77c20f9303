"""A one-shot ``repro check`` imports only the checking pipeline.

Each import check runs in a fresh interpreter, because this test
process has long since imported every module.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import cli, driver
from repro.bench.workloads import PRESETS
from repro.compile.dialects import dialect_names
from repro.solver.backends import backend_names

ROOT = Path(__file__).resolve().parents[1]
BCOPY = "src/repro/programs/bcopy.dml"

#: Packages and modules the ``check`` path must never load.
FORBIDDEN = (
    "repro.driver", "repro.compile", "repro.eval", "repro.bench",
    "repro.server", "repro.fuzz",
    "repro.solver.omega", "repro.solver.simplex", "repro.solver.interval",
    "sqlite3", "multiprocessing", "concurrent.futures",
)

# Runs the CLI's ``main`` in a fresh interpreter, then reports its exit
# code, its output and the modules it left loaded.  (``python -m
# repro.cli check`` itself ends with ``os._exit``; see the entry-point
# test below.)
_CLI_CHILD = """
import contextlib, io, json, sys
from repro import cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(sys.argv[1:])
print(json.dumps({"code": code, "stdout": out.getvalue(),
                  "modules": sorted(sys.modules)}))
"""


def _child(code: str, *argv: str) -> dict:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _loaded(modules: list[str], names: tuple[str, ...]) -> list[str]:
    return [m for m in modules
            if any(m == n or m.startswith(n + ".") for n in names)]


def _counts(summary: str) -> list[str]:
    """The count lines of a check summary (timings vary run to run)."""
    return [line for line in summary.splitlines()
            if line.startswith(("constraints:", "proof goals:",
                                "existential vars:", "check sites:"))]


# Counts the audit events for compiling source text ("<string>": code
# built by exec or eval) while the check path imports.
_COMPILES_AT_IMPORT = """
import json, sys
compiles = []
sys.addaudithook(
    lambda event, args: event == "compile" and args[1] == "<string>"
    and compiles.append(1)
)
import repro.cli, repro.api
print(json.dumps({"compiles": len(compiles)}))
"""


def test_check_path_import_compiles_no_per_class_code():
    # ``@dataclass`` compiled about four methods per record class as
    # the module imported: 408 for the check path's 105 classes.
    # ``@record`` compiles each on its first call; what is left is the
    # constructors of module-level constants and the standard library's
    # named tuples (25 on CPython 3.11).
    assert _child(_COMPILES_AT_IMPORT)["compiles"] <= 50


@pytest.mark.parametrize("command", ["check", "goals"])
def test_check_imports_only_the_checking_pipeline(command):
    result = _child(_CLI_CHILD, command, BCOPY)
    assert result["code"] == 0
    assert result["stdout"]
    assert _loaded(result["modules"], FORBIDDEN) == []


#: bcopy's summary counts per backend (the weaker backends keep checks).
BCOPY_COUNTS = {
    "omega": (51, 0, 12), "portfolio": (51, 0, 12),
    "differential": (51, 0, 12),
    "simplex": (42, 9, 0), "interval": (37, 14, 0),
}


@pytest.mark.parametrize("backend", sorted(BCOPY_COUNTS))
def test_lazily_imported_backends_still_check(backend):
    proved, failed, eliminable = BCOPY_COUNTS[backend]
    result = _child(_CLI_CHILD, "check", BCOPY, "--backend", backend)
    assert result["code"] == (0 if failed == 0 else 1)
    assert _counts(result["stdout"]) == [
        "constraints:      51",
        f"proof goals:      51 ({proved} proved, {failed} failed)",
        "existential vars: 0 solved",
        f"check sites:      12 ({eliminable} eliminable)",
    ]


@pytest.mark.parametrize("argv, code, lines", [
    (["check", BCOPY], 0, 9),
    (["check", BCOPY, "--backend", "interval"], 1, 9 + 14),
    (["goals", BCOPY], 0, 51),
    (["check", "no-such.dml"], 2, 0),
])
def test_entry_point_flushes_output_and_keeps_the_exit_code(argv, code, lines):
    # check and goals skip interpreter teardown (os._exit) once their
    # output is flushed: every line must still arrive, block-buffered.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == code, proc.stderr
    assert len(proc.stdout.splitlines()) == lines
    assert proc.stdout.endswith("\n") if lines else proc.stderr.startswith("error: ")


# Preloads a backend, then checks a program with it and reports the
# modules the check itself imported.
_LOAD_THEN_CHECK = """
import json, sys
from pathlib import Path
from repro import api
from repro.solver.backends import load_backend
load_backend(sys.argv[1])
before = set(sys.modules)
api.check(Path(sys.argv[2]).read_text(), backend=sys.argv[1])
print(json.dumps({"modules": sorted(set(sys.modules) - before)}))
"""


@pytest.mark.parametrize("backend", backend_names())
def test_load_backend_imports_what_the_backend_runs(backend):
    result = _child(_LOAD_THEN_CHECK, backend, BCOPY)
    assert _loaded(result["modules"], ("repro.solver",)) == []


def test_driver_store_does_not_run_driver_core():
    result = _child(
        "import json, sys\n"
        "import repro.driver.store\n"
        "print(json.dumps({'modules': sorted(sys.modules)}))\n"
    )
    assert _loaded(result["modules"], ("repro.driver.core",
                                       "concurrent.futures")) == []


def test_the_daemon_and_the_driver_load_no_process_pool():
    # The daemon imports the driver at start-up; ``check_corpus``
    # imports its process pool only when it fans out (``jobs > 1``).
    result = _child(
        "import json, sys\n"
        "import repro.server.sessions, repro.driver.core\n"
        "print(json.dumps({'modules': sorted(sys.modules)}))\n"
    )
    assert _loaded(result["modules"], ("multiprocessing",)) == []


def test_every_driver_export_resolves():
    for name in driver.__all__:
        assert getattr(driver, name) is not None, name
    with pytest.raises(AttributeError):
        driver.no_such_name  # noqa: B018


def test_parser_choices_match_their_registries():
    assert cli.DIALECTS == dialect_names()
    assert list(cli.PRESETS) == list(PRESETS)


def test_help_text_is_unchanged(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    parser = cli.build_parser()
    (subparsers,) = [
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    text = parser.format_help() + "".join(
        f"==== {name}\n{sub.format_help()}"
        for name, sub in subparsers.choices.items()
    )
    # Python 3.10 titles the options section "optional arguments".
    text = text.replace("optional arguments:", "options:")
    assert text == (ROOT / "tests" / "data" / "cli_help.txt").read_text()
