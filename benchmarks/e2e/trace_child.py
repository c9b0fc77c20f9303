"""One traced ``repro check FILE`` in a fresh interpreter.

The ``cli-cold`` workload runs this in place of ``python -m repro.cli
check FILE`` when tracing.  It times the package import and the prelude
(``api._prelude_inferencer``, the entry point the daemon warms), then
runs the CLI's own ``main`` with the layer wrappers installed, and
prints one JSON line: when it started and finished, the CLI's exit
code and output, the spans, the intern-table and canonical-key counter
deltas, and the verdict digest.

    PYTHONPATH=src python3 benchmarks/e2e/trace_child.py FILE
"""

import time

STARTED = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

import spans  # noqa: E402


def main(path: str) -> None:
    tracer = spans.Tracer()
    with tracer.op() as root:
        # This script's own imports: tracing overhead the plain CLI
        # does not pay.
        tracer.add("trace.bootstrap", STARTED, root.start, root.id, root.id)
        with tracer.span("startup.import"):
            from repro import api, cli
            from repro.indices import intern
            from repro.solver import portfolio
        # Patched after the prelude, so its parse and inference count
        # as start-up rather than as the program's front end.
        with tracer.span("startup.prelude"):
            api._prelude_inferencer()
        with spans.install(tracer):
            intern_before = intern.intern_stats()
            keys_before = portfolio.canonical_key_stats()
            out = io.StringIO()
            with tracer.span("cli.main"), contextlib.redirect_stdout(out):
                code = cli.main(["check", path])
    checks = [s for s in tracer.spans if s.name == "api.check"]
    print(json.dumps({
        "started": STARTED,
        "finished": time.perf_counter(),
        "code": code,
        "stdout": out.getvalue(),
        "verdicts": checks[0].counters["verdicts"] if checks else None,
        "intern": [intern_before, intern.intern_stats()],
        "canonical_keys": [keys_before, portfolio.canonical_key_stats()],
        # The root "op" span belongs to the parent's operation.
        "spans": [s for s in tracer.export() if s["name"] != "op"],
    }))


if __name__ == "__main__":
    main(sys.argv[1])
