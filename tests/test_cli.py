"""Tests for the ``dml`` command line interface."""

import pytest

from repro.cli import _parse_value, main
from repro.eval.values import from_pylist

GOOD = (
    "fun f(a) = sub(a, 0) "
    "where f <| {n:nat | n > 0} 'a array(n) -> 'a\n"
)
BAD = "fun f(a, i) = sub(a, i)\n"


@pytest.fixture()
def good_file(tmp_path):
    path = tmp_path / "good.dml"
    path.write_text(GOOD)
    return str(path)


@pytest.fixture()
def bad_file(tmp_path):
    path = tmp_path / "bad.dml"
    path.write_text(BAD)
    return str(path)


class TestArgumentLiterals:
    def test_ints_and_bools(self):
        assert _parse_value("42") == 42
        assert _parse_value("-3") == -3
        assert _parse_value("true") is True
        assert _parse_value("false") is False
        assert _parse_value("()") == ()

    def test_array(self):
        assert _parse_value("[|1, 2, 3|]") == [1, 2, 3]
        assert _parse_value("[||]") == []

    def test_list(self):
        assert _parse_value("[1, 2]") == from_pylist([1, 2])
        assert _parse_value("[]") == from_pylist([])

    def test_tuple(self):
        assert _parse_value("(1, true)") == (1, True)

    def test_nested(self):
        assert _parse_value("([|1, 2|], [3], (4, 5))") == (
            [1, 2],
            from_pylist([3]),
            (4, 5),
        )


class TestCommands:
    def test_check_good(self, good_file, capsys):
        assert main(["check", good_file]) == 0
        assert "proof goals" in capsys.readouterr().out

    def test_check_bad(self, bad_file, capsys):
        assert main(["check", bad_file]) == 1
        assert "UNSOLVED" in capsys.readouterr().out

    def test_check_backend_flag(self, good_file):
        assert main(["check", good_file, "--backend", "omega"]) == 0

    def test_check_unknown_backend(self, good_file, capsys):
        # argparse rejects the name up front with the known choices.
        with pytest.raises(SystemExit) as exc:
            main(["check", good_file, "--backend", "nope"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'nope'" in err
        assert "portfolio" in err

    def test_goals(self, good_file, capsys):
        assert main(["goals", good_file]) == 0
        out = capsys.readouterr().out
        assert "solved" in out

    def test_goals_bad(self, bad_file, capsys):
        assert main(["goals", bad_file]) == 1
        assert "UNSOLVED" in capsys.readouterr().out

    def test_compile_to_stdout(self, good_file, capsys):
        assert main(["compile", good_file]) == 0
        captured = capsys.readouterr()
        assert "def d_f" in captured.out
        # The elimination summary goes to stderr in BOTH output modes,
        # so stdout stays a clean Python module.
        assert "1/1 checks eliminated (dialect plain)" in captured.err

    def test_compile_to_file(self, good_file, tmp_path, capsys):
        out = tmp_path / "gen.py"
        assert main(["compile", good_file, "-o", str(out)]) == 0
        assert "def d_f" in out.read_text()
        captured = capsys.readouterr()
        assert f"wrote {out}" in captured.out
        assert "1/1 checks eliminated (dialect plain)" in captured.err

    def test_compile_dialect_flag(self, good_file, capsys):
        assert main(["compile", good_file, "--dialect", "packed"]) == 0
        captured = capsys.readouterr()
        assert "_mk_arr" in captured.out  # packed prelude import
        assert "(dialect packed)" in captured.err

    def test_compile_with_store(self, good_file, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        argv = ["compile", good_file, "--store", "sqlite",
                "--cache-dir", str(cache_dir)]
        assert main(argv) == 0
        assert (cache_dir / "verdicts.sqlite").exists()
        capsys.readouterr()
        assert main(argv) == 0  # second run warm-starts from the store
        assert "1/1 checks eliminated" in capsys.readouterr().err

    def test_run(self, good_file, capsys):
        assert main(["run", good_file, "f", "[|7, 8|]"]) == 0
        assert capsys.readouterr().out.strip() == "7"

    def test_run_always_check(self, good_file, capsys):
        assert main(["run", good_file, "f", "[|7|]", "--always-check"]) == 0
        err = capsys.readouterr().err
        assert "1 performed" in err

    def test_run_eliminated(self, good_file, capsys):
        main(["run", good_file, "f", "[|7|]"])
        assert "1 eliminated" in capsys.readouterr().err

    def test_compile_and_run_corpus_workload(self, capsys):
        argv = ["compile-and-run", "bsearch", "--dialect", "packed",
                "--scale", "256", "--repeat", "1", "--counts"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "compile-and-run bsearch (dialect packed" in captured.out
        assert "unchecked :" in captured.out
        assert "checked   :" in captured.out
        assert "gain" in captured.out
        assert "result    : ok" in captured.out
        assert "checks eliminated (dialect packed)" in captured.err

    def test_compile_and_run_explicit_entry(self, good_file, capsys):
        argv = ["compile-and-run", good_file, "[|7, 8|]",
                "--entry", "f", "--no-baseline", "--repeat", "1"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "result    : 7" in out

    def test_compile_and_run_unknown_program(self, capsys):
        assert main(["compile-and-run", "no_such_prog"]) == 2
        assert "neither a file nor a corpus" in capsys.readouterr().err

    def test_compile_and_run_needs_entry(self, good_file, capsys):
        assert main(["compile-and-run", good_file]) == 2
        assert "no --entry" in capsys.readouterr().err

    def test_compile_and_run_unknown_entry(self, capsys):
        assert main(["compile-and-run", "bcopy", "--entry", "nosuch"]) == 2
        assert "error: no such function: nosuch" in capsys.readouterr().err

    def test_run_unknown_entry(self, good_file, capsys):
        assert main(["run", good_file, "nosuch"]) == 2
        assert "no such function: nosuch" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["run", "{file}", "f", "foo"],
        ["run", "{file}", "f", "[|1, foo|]"],
        ["compile-and-run", "{file}", "foo", "--entry", "f"],
    ])
    def test_invalid_argument_literal(self, good_file, argv, capsys):
        argv = [good_file if a == "{file}" else a for a in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "error: invalid argument literal 'foo'" in captured.err
        assert "result" not in captured.out

    def test_missing_file(self, capsys):
        assert main(["check", "/nonexistent/x.dml"]) == 2

    def test_parse_error_rendered(self, tmp_path, capsys):
        path = tmp_path / "syntax.dml"
        path.write_text("fun = 3")
        assert main(["check", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["check"], ["goals"], ["compile"], ["fmt"], ["certify"],
        ["run", "f"], ["compile-and-run", "--entry", "f"],
    ])
    def test_front_end_error_shows_its_location(self, tmp_path, argv, capsys):
        path = tmp_path / "bad.dml"
        path.write_text("val x = 1 $ 2\n")
        assert main([argv[0], str(path), *argv[1:]]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0] == (
            f"error: {path}:1:11: LexError: unexpected character '$'"
        )
        assert err[1:] == ["val x = 1 $ 2", " " * 10 + "^"]

    def test_curried_entry(self, tmp_path, capsys):
        path = tmp_path / "curry.dml"
        path.write_text("fun add x y = x + y\n")
        assert main(["run", str(path), "add", "2", "40"]) == 0
        assert capsys.readouterr().out.strip() == "42"

    def test_fmt_roundtrips(self, good_file, capsys):
        assert main(["fmt", good_file]) == 0
        formatted = capsys.readouterr().out
        # The output re-parses and re-checks identically.
        from repro import api

        report = api.check(formatted, "<fmt>")
        assert report.all_proved

    def test_fmt_in_place(self, good_file, capsys):
        assert main(["fmt", good_file, "-i"]) == 0
        from pathlib import Path

        assert "fun" in Path(good_file).read_text()

    def test_certify_valid(self, good_file, capsys):
        assert main(["certify", good_file]) == 0
        out = capsys.readouterr().out
        assert "safety certificate" in out
        assert "VALID" in out

    def test_certify_site_failure_certifies_nothing(self, bad_file, capsys):
        # Per-site policy: an unprovable access keeps its run-time
        # check; the (empty) certificate for the rest is still valid.
        assert main(["certify", bad_file]) == 0
        captured = capsys.readouterr()
        assert "0 eliminated site(s)" in captured.out
        assert "keep their run-time checks" in captured.err

    def test_certify_refuses_structural_failure(self, tmp_path, capsys):
        path = tmp_path / "struct_bad.dml"
        path.write_text(
            "fun head(a) = sub(a, 0) "
            "where head <| {n:nat | n > 0} 'a array(n) -> 'a\n"
            "fun g(a) = head(a) where g <| {n:nat} 'a array(n) -> 'a\n"
        )
        assert main(["certify", str(path)]) == 1
        assert "cannot certify" in capsys.readouterr().err

    def test_run_list_result_rendering(self, tmp_path, capsys):
        path = tmp_path / "lists.dml"
        path.write_text(
            "fun rev2(nil, ys) = ys | rev2(x::xs, ys) = rev2(xs, x::ys) "
            "where rev2 <| {m:nat} {n:nat} 'a list(m) * 'a list(n) "
            "-> 'a list(m+n)\n"
        )
        assert main(["run", str(path), "rev2", "([1, 2, 3], [])"]) == 0
        assert capsys.readouterr().out.strip() == "[3, 2, 1]"


class TestBudgetFlags:
    """--budget/--goal-timeout validation: only 0 lifts a cap;
    negatives are usage errors, never silent "no budgeting"."""

    def test_negative_budget_is_a_usage_error(self, good_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", good_file, "--budget", "-1"])
        assert exc.value.code == 2
        assert "must be >= 0" in capsys.readouterr().err

    def test_negative_budget_rejected_everywhere(self, good_file, capsys):
        for argv in (
            ["goals", good_file, "--budget", "-5"],
            ["check-corpus", "bsearch", "--budget", "-5"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2

    def test_negative_timeout_is_a_usage_error(self, good_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", good_file, "--goal-timeout", "-0.5"])
        assert exc.value.code == 2
        assert "must be >= 0" in capsys.readouterr().err

    def test_zero_budget_lifts_the_cap(self, good_file, capsys):
        assert main(["check", good_file, "--budget", "0"]) == 0
        assert "proof goals" in capsys.readouterr().out

    def test_zero_timeout_means_no_deadline(self, good_file, capsys):
        assert main(["check", good_file, "--goal-timeout", "0"]) == 0
        assert "proof goals" in capsys.readouterr().out

    def test_limits_helper_semantics(self):
        import argparse

        from repro.cli import _limits
        from repro.solver.budget import DEFAULT_LIMITS

        ns = argparse.Namespace(budget=None, goal_timeout=None)
        assert _limits(ns) is None  # no flags: library defaults
        ns = argparse.Namespace(budget=0, goal_timeout=None)
        assert _limits(ns).max_steps is None  # 0 = unlimited
        ns = argparse.Namespace(budget=120, goal_timeout=0.0)
        limits = _limits(ns)
        assert limits.max_steps == 120
        assert limits.goal_timeout is None  # explicit 0 = no deadline
        ns = argparse.Namespace(budget=None, goal_timeout=1.5)
        limits = _limits(ns)
        assert limits.max_steps == DEFAULT_LIMITS.max_steps
        assert limits.goal_timeout == 1.5


class TestServeParser:
    def test_serve_subcommand_exists(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--port", "0", "--max-budget", "500", "--no-cache"]
        )
        assert args.fn.__name__ == "cmd_serve"
        assert args.port == 0
        assert args.max_budget == 500
        assert args.no_cache is True

    def test_serve_rejects_negative_max_budget(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--max-budget", "-1"])
        assert exc.value.code == 2

    def test_serve_rejects_negative_max_timeout(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--max-goal-timeout", "-2"])
        assert exc.value.code == 2


class TestCheckCorpus:
    def test_single_program_cold_then_warm(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        argv = ["check-corpus", "bsearch", "--jobs", "2", "--cache-dir", cache]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "bsearch" in cold
        assert "0/" in cold.split("decl cache:")[1]  # no hits yet

        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "goal(s) replayed" in warm
        decl_line = warm.split("decl cache:")[1].splitlines()[0]
        assert "0 hit(s)" not in decl_line

    def test_no_cache_flag(self, tmp_path, capsys):
        assert main(["check-corpus", "bsearch", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "0 verdict(s) preloaded" in out

    def test_unknown_program_is_an_argument_error(self, capsys):
        assert main(["check-corpus", "nope"]) == 2
        assert "unknown corpus program" in capsys.readouterr().err
