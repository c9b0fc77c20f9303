"""The ``dml`` command line interface.

Subcommands:

* ``dml check FILE``    — type-check, report constraints/sites, exit
  nonzero when obligations fail;
* ``dml goals FILE``    — dump every proof goal with its verdict;
* ``dml compile FILE``  — emit the generated Python (checks eliminated
  where proved) for a ``--dialect``;
* ``dml compile-and-run FILE`` — check, compile for a dialect, run the
  checked and the unchecked build, and report timings and eliminated
  checks.  FILE may name a bundled program; a benchmark workload then
  supplies seeded inputs, otherwise ``--entry`` and argument literals
  drive the call;
* ``dml run FILE ENTRY [ARG ...]`` — interpret, printing the result and
  the dynamic check counters.  Arguments parse as ML-ish literals:
  ``42``, ``true``, ``[1,2,3]`` (list), ``[|1,2,3|]`` (array), and
  tuples ``(1, [|2|])``;
* ``dml fmt FILE``      — pretty-print a program (``-i`` rewrites it in
  place);
* ``dml certify FILE``  — issue a safety certificate for the eliminated
  checks and re-verify it with an independent ``--verifier`` backend;
* ``dml bench``         — regenerate the paper's tables (delegates to
  ``python -m repro.bench``);
* ``dml check-corpus``  — check every bundled corpus program through
  the parallel, incrementally-cached driver (``repro.driver``) and
  print an aggregate Table-1-style report with cache telemetry;
* ``dml fuzz``          — differentially fuzz the whole pipeline with
  generated programs (``repro.fuzz``), shrinking any divergence to a
  minimal repro;
* ``dml serve``         — run the warm checking daemon
  (``repro.server``): prelude template, solver caches, and the
  goal-preprocessing context stay hot across HTTP/JSON ``/check``
  requests, with server-side admission caps on client budgets.

``check`` and ``goals`` import only the checking pipeline.  Every other
subcommand imports what it runs (interpreter, code generator, driver,
store, server) when it is dispatched.

The ``repro`` entry point is an alias for ``dml``.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from pathlib import Path
from typing import Any, Callable

from repro import api
from repro.lang.errors import DMLError
from repro.lang.source import SourceFile
from repro.solver.backends import backend_names
from repro.solver.budget import DEFAULT_LIMITS, SolverLimits

# Argparse choices owned by registries that import the code generator
# or the bench workloads.  Every invocation builds the whole parser, so
# it keeps copies of the names; tests/test_cli_imports.py pins each
# copy to its registry.
DIALECTS = ("numpy", "packed", "plain")  # compile.dialects.dialect_names()
PRESETS = ("small", "default", "paper", "huge")  # bench.workloads.PRESETS


class UsageError(Exception):
    """A bad command-line value found after parsing: printed as
    ``error: <message>``, exit status 2."""


def _read(args: argparse.Namespace) -> str:
    """The text of FILE.  It is also kept on ``args`` as ``source``, so
    :func:`main` can show where a pipeline error points."""
    text = Path(args.file).read_text()
    args.source = SourceFile(text, args.file)
    return text


def _budget_steps(text: str) -> int:
    """``--budget`` argument type: a non-negative step count.

    Only ``0`` is documented to lift the cap; a negative value is a
    usage error, not a silent "no budgeting".
    """
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid step count: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"step budget must be >= 0 (got {value}; 0 lifts the cap)"
        )
    return value


def _timeout_seconds(text: str) -> float:
    """``--goal-timeout`` argument type: non-negative seconds
    (``0`` explicitly means "no deadline"; negatives are rejected)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid seconds value: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"goal timeout must be >= 0 (got {value}; 0 means no deadline)"
        )
    return value


def _limits(args: argparse.Namespace) -> SolverLimits | None:
    """Build per-goal solver limits from ``--budget``/``--goal-timeout``.

    ``None`` (no flag given) keeps the defaults; ``--budget 0`` lifts
    the step cap entirely, and ``--goal-timeout 0`` means "no
    deadline".  Negative values never reach here — the argument types
    (:func:`_budget_steps`/:func:`_timeout_seconds`) reject them with
    a usage error.
    """
    budget = getattr(args, "budget", None)
    timeout = getattr(args, "goal_timeout", None)
    if budget is None and timeout is None:
        return None
    max_steps = DEFAULT_LIMITS.max_steps
    if budget is not None:
        max_steps = budget if budget > 0 else None
    goal_timeout = DEFAULT_LIMITS.goal_timeout
    if timeout is not None:
        goal_timeout = timeout if timeout > 0 else None
    return SolverLimits(max_steps=max_steps, goal_timeout=goal_timeout)


def cmd_check(args: argparse.Namespace) -> int:
    report = api.check(_read(args), args.file, backend=args.backend,
                       cache=args.cache, limits=_limits(args),
                       slice_goals=not args.no_slice)
    print(report.summary())
    if args.explain and not report.all_proved:
        print()
        print("diagnostics:")
        for line in report.explain():
            print(f"  {line}")
    return 0 if report.all_proved else 1


def cmd_goals(args: argparse.Namespace) -> int:
    report = api.check(_read(args), args.file, backend=args.backend,
                       cache=args.cache, limits=_limits(args),
                       slice_goals=not args.no_slice)
    store = report.elab.store
    for result in report.goal_results:
        status = "solved  " if result.proved else "UNSOLVED"
        where = report.source.describe(result.goal.span)
        hyps = " /\\ ".join(str(store.resolve(h)) for h in result.goal.hyps)
        concl = str(store.resolve(result.goal.concl))
        origin = f" [{result.goal.origin}]" if result.goal.origin else ""
        body = f"({hyps}) ==> {concl}" if hyps else concl
        print(f"{status} {where}{origin}: {body}")
        if not result.proved:
            print(f"         reason: {result.reason}")
    if not report.all_proved:
        print()
        print("diagnostics:")
        for line in report.explain():
            print(f"  {line}")
    return 0 if report.all_proved else 1


def _compile_source(args: argparse.Namespace, source: str, name: str):
    """Shared check+plan+codegen step.

    ``--cache-dir`` turns on the persistent verdict store: the solver
    cache is seeded from it before checking and absorbed back after,
    so a daemon- or corpus-populated store warms compile runs too.
    Without it the in-memory ``--cache`` semantics apply.
    """
    cache, disk = args.cache, None
    if args.cache_dir is not None:
        from repro.driver.store import open_store
        from repro.solver.portfolio import SolverCache

        disk = open_store(args.cache_dir)
        cache = SolverCache(maxsize=65536)
    try:
        if disk is not None:
            disk.seed(cache)
        result = api.compile(
            source, name,
            dialect=getattr(args, "dialect", "plain"),
            backend=args.backend,
            cache=cache,
            limits=_limits(args),
            slice_goals=not args.no_slice,
        )
        if disk is not None:
            disk.absorb(cache)
    finally:
        if disk is not None:
            disk.close()
    # The eliminated-checks summary goes to stderr in every output
    # mode, so piping the generated source (or timing table) leaves
    # the summary visible.
    print(result.summary(), file=sys.stderr)
    return result


def cmd_compile(args: argparse.Namespace) -> int:
    result = _compile_source(args, _read(args), args.file)
    if args.output:
        Path(args.output).write_text(result.module.source)
        print(f"wrote {args.output}")
    else:
        print(result.module.source)
    return 0


def cmd_compile_and_run(args: argparse.Namespace) -> int:
    """Check, compile for a dialect, execute, and report timings.

    FILE is a path to a DML source file or the name of a bundled
    corpus program.  When the program is a registered benchmark
    workload and no explicit arguments are given, seeded workload
    inputs are built at ``--scale``/``--preset`` size; otherwise
    ``--entry`` plus argument literals drive the call directly.
    """
    import random
    import time as _time

    from repro import programs
    from repro.bench import workloads as wl
    from repro.compile import support
    from repro.compile.dialects import DialectError, get_dialect
    from repro.compile.pycodegen import compile_program, mangle

    path = Path(args.file)
    if path.exists():
        source, prog_name, display = _read(args), path.stem, args.file
    elif args.file in programs.available():
        source = programs.load_source(args.file)
        prog_name, display = args.file, f"{args.file}.dml"
        args.source = SourceFile(source, display)
    else:
        print(f"error: {args.file!r} is neither a file nor a corpus "
              f"program (available: {', '.join(programs.available())})",
              file=sys.stderr)
        return 2

    try:
        dialect = get_dialect(args.dialect)
    except DialectError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    result = _compile_source(args, source, display)
    report, plan, module = result.report, result.plan, result.module

    workload = next(
        (w for w in wl.WORKLOADS.values() if w.program == prog_name), None
    )
    entry = args.entry or (workload.entry if workload else None)
    if entry is None:
        print("error: no --entry given and FILE is not a registered "
              "benchmark workload", file=sys.stderr)
        return 2
    if mangle(entry) not in module.load():
        print(f"error: no such function: {entry}", file=sys.stderr)
        return 2

    if args.args:
        params = None

        def build_args() -> tuple:
            # Re-parse per run: the sorts mutate their inputs.
            return dialect.adapt_args(
                tuple(_parse_value(a, support.from_pylist)
                      for a in args.args)
            )

        build_args()  # a bad literal fails here, before any output
    elif workload is not None:
        if args.scale is not None:
            params = workload.scaled(args.scale)
        else:
            params = workload.params(args.preset)

        def build_args() -> tuple:
            rng = random.Random(wl.SEED)
            raw = workload.build_with(params, support.from_pylist, rng)
            return dialect.adapt_args(raw)
    else:
        print(f"error: entry {entry!r} needs argument literals (FILE is "
              f"not a registered workload, so none can be generated)",
              file=sys.stderr)
        return 2

    def timed(sites: set) -> tuple[float, tuple]:
        """Best time, and the last call's result and argument state."""
        mod = compile_program(report.program, report.env, sites,
                              prog_name, dialect=dialect)
        mod.load()
        best, last = float("inf"), None
        for _ in range(max(1, args.repeat)):
            call_args = build_args()
            started = _time.perf_counter()
            last = mod.call(entry, *call_args)
            best = min(best, _time.perf_counter() - started)
        return best, dialect.extract_value((last, call_args))

    size_note = (
        f"scale {args.scale}" if args.scale is not None
        else (f"preset {args.preset}" if params is not None else "explicit args")
    )
    print(f"compile-and-run {prog_name} (dialect {dialect.name}, "
          f"entry {entry}, {size_note})")

    unchecked_t, outcome = timed(plan.unchecked)
    extracted = outcome[0]
    ok = workload.validate(extracted, params) if workload and params else True
    kept = len(plan.sites) - len(plan.unchecked)
    print(f"  unchecked : {unchecked_t:.3f} s  "
          f"({len(plan.unchecked)} site(s) unchecked, {kept} kept)")
    if not args.no_baseline:
        checked_t, checked_outcome = timed(set())
        ok = ok and checked_outcome == outcome  # both builds agree
        gain = ((checked_t - unchecked_t) / checked_t * 100.0
                if checked_t > 0 else 0.0)
        print(f"  checked   : {checked_t:.3f} s  (every check kept)")
        print(f"  gain      : {gain:.1f}%")
    if args.counts:
        counter_mod = compile_program(
            report.program, report.env, plan.unchecked, prog_name,
            instrument=True, dialect=dialect,
        )
        support.COUNTERS.reset()
        counter_mod.call(entry, *build_args())
        print(f"  counts    : {support.COUNTERS.performed:,} performed, "
              f"{support.COUNTERS.eliminated:,} eliminated")
    if workload and params or not ok:
        print(f"  result    : {'ok' if ok else 'MISMATCH'}")
    else:
        text = repr(extracted)
        if len(text) > 70:
            text = text[:67] + "..."
        print(f"  result    : {text}")
    return 0 if ok else 1


def _parse_value(text: str, mklist: Callable[[list], Any] | None = None):
    """Parse a command-line argument literal into a runtime value.

    ``mklist`` builds DML list values — the interpreter (the default)
    and the compiled backends represent cons cells differently.  A
    malformed literal raises :class:`UsageError`.
    """
    if mklist is None:
        from repro.eval.values import from_pylist as mklist
    text = text.strip()
    if text == "true":
        return True
    if text == "false":
        return False
    if text == "()":
        return ()
    if text.startswith("[|") and text.endswith("|]"):
        inner = text[2:-2].strip()
        return ([_parse_value(t, mklist) for t in _split_commas(inner)]
                if inner else [])
    if text.startswith("[") and text.endswith("]"):
        inner = text[1:-1].strip()
        items = ([_parse_value(t, mklist) for t in _split_commas(inner)]
                 if inner else [])
        return mklist(items)
    if text.startswith("(") and text.endswith(")"):
        inner = text[1:-1].strip()
        return tuple(_parse_value(t, mklist) for t in _split_commas(inner))
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"invalid argument literal {text!r}") from None


def _split_commas(text: str) -> list[str]:
    parts = []
    depth = 0
    current = []
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if current:
        parts.append("".join(current))
    return parts


def cmd_run(args: argparse.Namespace) -> int:
    from repro.eval.interp import Interpreter
    from repro.eval.values import render

    call_args = [_parse_value(a) for a in args.args]
    report = api.check(_read(args), args.file, backend=args.backend,
                       cache=args.cache, limits=_limits(args),
                       slice_goals=not args.no_slice)
    unchecked = report.eliminable_sites() if not args.always_check else set()
    interp = Interpreter(report.program, unchecked, env=report.env)
    result = interp.call(args.entry, *call_args)
    print(render(result))
    stats = interp.stats
    print(
        f"-- checks: {stats.checks_performed} performed, "
        f"{stats.checks_eliminated} eliminated "
        f"(bounds {stats.bound_checks_performed}/"
        f"{stats.bound_checks_eliminated}, "
        f"tags {stats.tag_checks_performed}/{stats.tag_checks_eliminated})",
        file=sys.stderr,
    )
    return 0


def cmd_fmt(args: argparse.Namespace) -> int:
    from repro.lang.parser import parse_program
    from repro.lang.pretty import pretty_program

    program = parse_program(_read(args), args.file)
    formatted = pretty_program(program)
    if args.in_place:
        Path(args.file).write_text(formatted)
        print(f"formatted {args.file}")
    else:
        print(formatted, end="")
    return 0


def cmd_certify(args: argparse.Namespace) -> int:
    from repro.compile.certificate import issue_certificate, verify_certificate

    report = api.check(_read(args), args.file, backend=args.backend,
                       cache=args.cache, limits=_limits(args),
                       slice_goals=not args.no_slice)
    if not report.structural_ok:
        print("error: cannot certify: structural obligations failed "
              "(some annotation is unjustified)", file=sys.stderr)
        for line in report.explain():
            print(f"  {line}", file=sys.stderr)
        return 1
    certificate = issue_certificate(report, dialect=args.dialect)
    kept = len(report.sites) - len(report.eliminable_sites())
    if kept:
        print(f"note: {kept} site(s) keep their run-time checks "
              f"(unproved obligations; not certified)", file=sys.stderr)
    print(certificate.render())
    result = verify_certificate(certificate, backend=args.verifier)
    print(f"verification ({args.verifier}): "
          f"{'VALID' if result.valid else 'INVALID'} "
          f"({result.checked} obligation(s))")
    return 0 if result.valid else 1


def cmd_check_corpus(args: argparse.Namespace) -> int:
    from repro import driver, programs

    names = args.programs or None
    if names and args.dir is None:
        known = set(programs.available())
        unknown = [n for n in names if n not in known]
        if unknown:
            print(f"error: unknown corpus program(s): {', '.join(unknown)} "
                  f"(available: {', '.join(sorted(known))})", file=sys.stderr)
            return 2
    report = driver.check_corpus(
        names,
        jobs=args.jobs,
        backend=args.backend,
        cache_dir=None if args.no_cache else args.cache_dir,
        clear=args.clear_cache,
        limits=_limits(args),
        slice_goals=not args.no_slice,
        source_dir=args.dir,
    )
    print(report.render())
    return 0 if report.all_ok else 1


def cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.compile.dialects import DialectError
    from repro.fuzz import GenConfig, emit_corpus, fuzz
    from repro.fuzz.faults import FAULTS, get_fault
    from repro.fuzz.oracle import resolve_dialects

    config = GenConfig(decls=args.decls, depth=args.depth)

    if args.corpus_scale is not None:
        if args.out is None:
            print("error: --corpus-scale needs --out DIR", file=sys.stderr)
            return 2
        paths = emit_corpus(args.out, args.corpus_scale,
                            seed=args.seed, config=config)
        print(f"emitted {len(paths)} program(s) to {args.out} "
              f"(seed {args.seed}); check them with "
              f"`repro check-corpus --dir {args.out}`")
        return 0

    try:
        dialects = resolve_dialects(
            args.dialects.split(",") if args.dialects else None
        )
    except DialectError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.fault is not None:
        if args.fault not in FAULTS:
            print(f"error: unknown fault {args.fault!r} "
                  f"(available: {', '.join(sorted(FAULTS))})", file=sys.stderr)
            return 2
        fault = get_fault(args.fault)
        dialects = [*dialects, (fault.name, fault)]

    def progress(i: int, result) -> None:
        if not result.ok:
            print(f"  [{i}] {result.worst} mismatch found, shrinking..."
                  if args.shrink else f"  [{i}] {result.worst} mismatch found",
                  file=sys.stderr)

    report = fuzz(
        seed=args.seed,
        iterations=args.iterations,
        dialects=dialects,
        config=config,
        shrink=args.shrink,
        max_shrink_attempts=args.max_shrink_attempts,
        backend=args.backend,
        out=args.out,
        progress=progress,
    )
    print(report.render())
    return 0 if report.ok else 1


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.server.app import ServeDaemon
    from repro.server.sessions import CheckService, ServerConfig

    caps = SolverLimits(
        max_steps=args.max_budget if args.max_budget > 0 else None,
        goal_timeout=(
            args.max_goal_timeout if args.max_goal_timeout > 0 else None
        ),
    )
    config = ServerConfig(
        backend=args.backend,
        jobs=args.jobs,
        cache_dir=None if args.no_cache else args.cache_dir,
        caps=caps,
        slice_goals=not args.no_slice,
        executor=args.executor,
        worker_timeout=args.worker_timeout if args.worker_timeout > 0 else None,
    )
    daemon = ServeDaemon(
        CheckService(config),
        host=args.host,
        port=args.port,
        idle_timeout=args.idle_timeout if args.idle_timeout > 0 else None,
    )
    return daemon.run()


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench.__main__ import main as bench_main

    forwarded = []
    if args.preset:
        forwarded += ["--preset", args.preset]
    if args.skip_timing:
        forwarded += ["--skip-timing"]
    return bench_main(forwarded)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dml",
        description="DML-lite: dependent types for array bound check "
        "elimination (Xi & Pfenning, PLDI 1998).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", help="DML source file")
        p.add_argument("--backend", default="fourier",
                       choices=backend_names(),
                       help="constraint solver backend (see `dml check "
                            "--backend portfolio` for the tiered solver)")
        p.add_argument("--cache", action="store_true",
                       help="memoize solver verdicts on canonical goal "
                            "keys (shared across the process)")
        slice_flag(p)
        budget_flags(p)

    def slice_flag(p):
        p.add_argument("--no-slice", action="store_true",
                       help="disable the goal-preprocessing layer "
                            "(relevancy slicing, subsumption, shared-"
                            "prefix solving); verdicts are identical "
                            "either way")

    def budget_flags(p):
        p.add_argument("--budget", type=_budget_steps, default=None,
                       metavar="STEPS",
                       help="per-goal solver step budget (fail-soft: an "
                            "exhausted goal keeps its run-time check; "
                            "0 = unlimited, negatives are a usage error)")
        p.add_argument("--goal-timeout", type=_timeout_seconds, default=None,
                       metavar="SECONDS",
                       help="per-goal wall-clock deadline (fail-soft, "
                            "like --budget; 0 = no deadline, negatives "
                            "are a usage error)")

    def dialect_flag(p):
        p.add_argument("--dialect", default="plain",
                       choices=DIALECTS,
                       help="generated-code value representation: plain "
                            "(Python lists), packed (array('q') int64 "
                            "buffers), numpy (optional).  A site the "
                            "solver could not prove checks in every "
                            "dialect.")

    def store_flags(p):
        p.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="persistent verdict cache directory: seeds "
                            "the solver cache from the shared store "
                            "(daemon/corpus runs warm compiles) and "
                            "writes new verdicts back")

    p_check = sub.add_parser("check", help="type-check a program")
    common(p_check)
    p_check.add_argument("--explain", action="store_true",
                         help="on failure, print concrete counterexample "
                              "valuations for every unproved goal "
                              "(\"fails when i = 3, n = 2\")")
    p_check.set_defaults(fn=cmd_check)

    p_goals = sub.add_parser("goals", help="dump all proof goals")
    common(p_goals)
    p_goals.set_defaults(fn=cmd_goals)

    p_compile = sub.add_parser("compile", help="emit generated Python")
    common(p_compile)
    p_compile.add_argument("-o", "--output", help="output file")
    dialect_flag(p_compile)
    store_flags(p_compile)
    p_compile.set_defaults(fn=cmd_compile)

    p_car = sub.add_parser(
        "compile-and-run",
        help="check, compile for a dialect, execute, and print a "
             "timing + eliminated-check report",
    )
    common(p_car)
    p_car.add_argument("args", nargs="*",
                       help="argument literals for --entry (omit for a "
                            "registered workload to use seeded inputs)")
    dialect_flag(p_car)
    store_flags(p_car)
    p_car.add_argument("--entry", default=None, metavar="FN",
                       help="function to call (default: the workload "
                            "entry when FILE is a benchmark program)")
    p_car.add_argument("--scale", type=int, default=None, metavar="N",
                       help="size workload inputs by a single element "
                            "count (super-linear workloads derive a "
                            "size with ~N total operations)")
    p_car.add_argument("--preset", choices=list(PRESETS),
                       default="default",
                       help="named workload size (ignored with --scale)")
    p_car.add_argument("--repeat", type=int, default=3, metavar="R",
                       help="timing repeats; best-of-R is reported "
                            "(default: 3)")
    p_car.add_argument("--no-baseline", action="store_true",
                       help="skip the all-checks-kept baseline run")
    p_car.add_argument("--counts", action="store_true",
                       help="add an instrumented run reporting exact "
                            "dynamic check counts")
    p_car.set_defaults(fn=cmd_compile_and_run)

    p_run = sub.add_parser("run", help="interpret a program")
    common(p_run)
    p_run.add_argument("entry", help="function to call")
    p_run.add_argument("args", nargs="*", help="argument literals")
    p_run.add_argument("--always-check", action="store_true",
                       help="keep every run-time check")
    p_run.set_defaults(fn=cmd_run)

    p_fmt = sub.add_parser("fmt", help="pretty-print a program")
    p_fmt.add_argument("file")
    p_fmt.add_argument("-i", "--in-place", action="store_true")
    p_fmt.set_defaults(fn=cmd_fmt)

    p_cert = sub.add_parser(
        "certify", help="issue and verify a safety certificate"
    )
    common(p_cert)
    p_cert.add_argument("--verifier", default="omega",
                        choices=backend_names(),
                        help="independent backend for re-verification")
    dialect_flag(p_cert)
    p_cert.set_defaults(fn=cmd_certify)

    p_corpus = sub.add_parser(
        "check-corpus",
        help="check all bundled programs through the parallel driver",
    )
    p_corpus.add_argument(
        "programs", nargs="*",
        help="corpus program names (default: every bundled program)")
    p_corpus.add_argument(
        "--dir", default=None, metavar="DIR",
        help="check *.dml files under DIR instead of the bundled "
             "corpus (e.g. a `repro fuzz --corpus-scale` output tree); "
             "positional names then select stems within DIR")
    p_corpus.add_argument(
        "--jobs", "-j", type=int, default=1, metavar="N",
        help="worker processes (default: 1, checks in this process; "
             "0 = CPU count)")
    p_corpus.add_argument(
        "--backend", default="fourier", choices=backend_names(),
        help="constraint solver backend")
    p_corpus.add_argument(
        "--cache-dir", default=".repro-cache", metavar="DIR",
        help="persistent verdict cache directory (default: .repro-cache)")
    p_corpus.add_argument(
        "--no-cache", action="store_true",
        help="disable the persistent cache entirely")
    p_corpus.add_argument(
        "--clear-cache", action="store_true",
        help="wipe the persisted verdicts first (guaranteed-cold run)")
    slice_flag(p_corpus)
    budget_flags(p_corpus)
    p_corpus.set_defaults(fn=cmd_check_corpus)

    p_fuzz = sub.add_parser(
        "fuzz",
        help="differentially fuzz the whole pipeline: generated "
             "well-typed programs run through the interpreter and every "
             "dialect's checked + certificate-gated unchecked builds; "
             "any divergence is shrunk to a minimal repro",
    )
    p_fuzz.add_argument("--seed", type=int, default=0,
                        help="base seed; iteration i draws from the "
                             "stream \"SEED:i\" (default: 0)")
    p_fuzz.add_argument("--iterations", "-n", type=int, default=200,
                        metavar="N",
                        help="programs to generate and cross-check "
                             "(default: 200)")
    p_fuzz.add_argument("--dialects", default=None, metavar="A,B",
                        help="comma-separated dialect names to compare "
                             "(default: every available dialect)")
    p_fuzz.add_argument("--depth", type=int, default=8, metavar="D",
                        help="ops per generated main body (default: 8)")
    p_fuzz.add_argument("--decls", type=int, default=3, metavar="K",
                        help="helper declarations per program "
                             "(default: 3)")
    p_fuzz.add_argument("--no-shrink", dest="shrink", action="store_false",
                        help="report findings unminimized")
    p_fuzz.add_argument("--max-shrink-attempts", type=int, default=250,
                        metavar="N",
                        help="oracle evaluations the shrinker may spend "
                             "per finding (default: 250)")
    p_fuzz.add_argument("--out", default=None, metavar="DIR",
                        help="write finding_NNNN.dml/.txt repros (or the "
                             "--corpus-scale programs) under DIR")
    p_fuzz.add_argument("--backend", default="fourier",
                        choices=backend_names(),
                        help="constraint solver backend")
    p_fuzz.add_argument("--fault", default=None, metavar="NAME",
                        help="self-test: add a deliberately broken "
                             "dialect variant (overflow-update, "
                             "oob-read) and expect findings")
    p_fuzz.add_argument("--corpus-scale", type=int, default=None,
                        metavar="COUNT",
                        help="emit COUNT generated programs to --out "
                             "and exit (no oracle runs): scaled input "
                             "for `check-corpus --dir`")
    p_fuzz.set_defaults(fn=cmd_fuzz)

    p_serve = sub.add_parser(
        "serve",
        help="run the warm checking daemon (HTTP/JSON; see "
             "POST /check, POST /check-batch, GET /stats, GET /healthz)",
    )
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address (default: 127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=8972, metavar="PORT",
                         help="listen port (default: 8972; 0 = pick a "
                              "free one)")
    p_serve.add_argument("--jobs", "-j", type=int, default=None, metavar="N",
                         help="checking workers (default: CPU count)")
    p_serve.add_argument("--executor", choices=["thread", "process"],
                         default="thread",
                         help="worker model: 'thread' shares one "
                              "interpreter (GIL-bound); 'process' "
                              "pre-forks warm workers after prelude/"
                              "cache warm-up, so /check-batch "
                              "throughput scales with cores")
    p_serve.add_argument("--worker-timeout", type=_timeout_seconds,
                         default=0.0, metavar="SECONDS",
                         help="process executor: kill and respawn a "
                              "worker that spends longer than this on "
                              "one request (default: 0 = never)")
    p_serve.add_argument("--idle-timeout", type=_timeout_seconds,
                         default=75.0, metavar="SECONDS",
                         help="close keep-alive connections idle this "
                              "long (default: 75; 0 = never)")
    p_serve.add_argument("--backend", default="fourier",
                         choices=backend_names(),
                         help="default solver backend for requests that "
                              "name none")
    p_serve.add_argument("--max-budget", type=_budget_steps,
                         default=DEFAULT_LIMITS.max_steps, metavar="STEPS",
                         help="admission cap on per-goal step budgets: "
                              "client-requested budgets are clamped to "
                              "this (default: the process default; "
                              "0 = uncapped)")
    p_serve.add_argument("--max-goal-timeout", type=_timeout_seconds,
                         default=0.0, metavar="SECONDS",
                         help="admission cap on per-goal deadlines "
                              "(default: 0 = uncapped)")
    p_serve.add_argument("--cache-dir", default=".repro-cache", metavar="DIR",
                         help="persistent verdict cache directory "
                              "(default: .repro-cache)")
    p_serve.add_argument("--no-cache", action="store_true",
                         help="run without the persistent verdict cache")
    p_serve.add_argument("--no-slice", action="store_true",
                         help="disable the shared goal-preprocessing "
                              "layer for all requests")
    p_serve.set_defaults(fn=cmd_serve)

    p_bench = sub.add_parser("bench", help="regenerate the paper's tables")
    p_bench.add_argument("--preset", choices=["small", "default", "paper"])
    p_bench.add_argument("--skip-timing", action="store_true")
    p_bench.set_defaults(fn=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except DMLError as exc:
        source = getattr(args, "source", None)
        print(f"error: {exc.render(source)}", file=sys.stderr)
        return 2
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output piped into a pager/head that closed early.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


def run() -> None:
    """The ``dml``/``repro`` command and ``python -m repro.cli``.

    ``check`` and ``goals`` leave nothing open, so once their output is
    flushed they exit without tearing the interpreter down, which
    would free every object the check built (about 6% of a cold
    ``repro check``).  Every other subcommand exits normally.
    """
    code = main()
    if sys.argv[1:2] in (["check"], ["goals"]):
        for stream in (sys.stdout, sys.stderr):
            # A reader that went away (a closed pipe) takes nothing more.
            with contextlib.suppress(OSError, ValueError):
                stream.flush()
        os._exit(code)
    raise SystemExit(code)


if __name__ == "__main__":
    run()
