"""Unit tests for code-generation internals: tail-call analysis,
statement detection, and generated-source structure."""

import re

from repro import api, programs
from repro.compile.pycodegen import (
    _emits_statements,
    _flat_funs,
    _is_self_tail_recursive,
    compile_program,
)
from repro.lang.parser import parse_expression, parse_program


def binding_of(source: str):
    program = parse_program(source)
    for decl in program.decls:
        if hasattr(decl, "bindings"):
            return decl.bindings[0]
    raise AssertionError("no fun declaration in source")


class TestTailDetection:
    def test_simple_tail_loop(self):
        binding = binding_of(
            "fun loop(i, acc) = if i = 0 then acc else loop(i - 1, acc)"
        )
        assert _is_self_tail_recursive(binding)

    def test_non_tail_recursion(self):
        binding = binding_of(
            "fun fact(n) = if n = 0 then 1 else n * fact(n - 1)"
        )
        assert not _is_self_tail_recursive(binding)

    def test_no_recursion_at_all(self):
        binding = binding_of("fun inc(x) = x + 1")
        assert not _is_self_tail_recursive(binding)

    def test_tail_in_case_arms(self):
        binding = binding_of(
            "fun go(l, acc) = case l of nil => acc | x::xs => go(xs, acc + x)"
        )
        assert _is_self_tail_recursive(binding)

    def test_tail_under_let(self):
        binding = binding_of(
            "fun go(i) = if i = 0 then 0 "
            "else let val j = i - 1 in go(j) end"
        )
        assert _is_self_tail_recursive(binding)

    def test_tail_in_seq_last(self):
        binding = binding_of(
            "fun go(a, i) = if i = 0 then () "
            "else (updateCK(a, 0, i); go(a, i - 1))"
        )
        assert _is_self_tail_recursive(binding)

    def test_self_call_in_seq_non_last_disables(self):
        binding = binding_of(
            "fun go(i) = if i = 0 then () else (go(i - 1); ())"
        )
        assert not _is_self_tail_recursive(binding)

    def test_self_reference_as_value_disables(self):
        binding = binding_of(
            "fun go(f, i) = if i = 0 then 0 else go(go, i - 1)"
        )
        assert not _is_self_tail_recursive(binding)

    def test_self_call_in_argument_disables(self):
        binding = binding_of(
            "fun go(i) = if i = 0 then 0 else go(go(i - 1))"
        )
        assert not _is_self_tail_recursive(binding)

    def test_handle_disables(self):
        binding = binding_of(
            "exception E fun go(i) = (if i = 0 then 0 else go(i - 1)) "
            "handle E => 0"
        )
        assert not _is_self_tail_recursive(binding)

    def test_tail_under_andalso_is_not_tail(self):
        binding = binding_of(
            "fun go(i) = i > 0 andalso go(i - 1)"
        )
        assert not _is_self_tail_recursive(binding)

    def test_inner_rebinding_is_not_a_self_call(self):
        binding = binding_of(
            "fun go(i) = if i > 10 then i "
            "else let fun go(x) = x + 100 in go(i) end"
        )
        assert not _is_self_tail_recursive(binding)

    def test_parameter_rebinding_is_not_a_self_call(self):
        binding = binding_of("fun go(f, go) = go(f)")
        assert not _is_self_tail_recursive(binding)

    def test_case_arm_binders(self):
        binding = binding_of(
            "fun go(i) = case i of 0 => 0 | go => go - 1"
        )
        assert not _is_self_tail_recursive(binding)
        binding = binding_of(
            "fun go(l) = case l of nil => 0 "
            "| x :: go' => go(go')"
        )
        assert _is_self_tail_recursive(binding)


def flat(source: str) -> set[str]:
    return set(_flat_funs(parse_expression(source)))


class TestFlatParameters:
    """The syntactic escape rule for flat parameters of ``let`` funs."""

    def test_direct_calls(self):
        assert flat("let fun f(a, b) = a + b in f(1, 2) + f(3, 4) end") == {"f"}

    def test_non_literal_argument_is_still_a_direct_call(self):
        assert flat("let fun f(a, b) = a val p = (1, 2) in f p end") == {"f"}

    def test_recursive_and_mutual_calls(self):
        assert flat(
            "let fun f(n, k) = if n = 0 then k else g(n - 1, k) "
            "and g(n, k) = f(n, k + 1) in f(3, 0) end"
        ) == {"f", "g"}

    def test_call_inside_a_closure(self):
        assert flat("let fun f(a, b) = a in fn x => f(x, x) end") == {"f"}

    def test_passed_as_an_argument_escapes(self):
        assert flat(
            "let fun f(a, b) = a fun g(h, x) = h(x, x) in g(f, 1) end"
        ) == {"g"}

    def test_stored_in_a_tuple_escapes(self):
        assert flat("let fun f(a, b) = a val p = (f, 1) in 0 end") == set()

    def test_returned_escapes(self):
        assert flat("let fun f(a, b) = a in f end") == set()

    def test_annotated_function_position_escapes(self):
        assert flat("let fun f(a, b) = a in (f : int * int -> int)(1, 2) end") \
            == set()

    def test_rebinding_in_the_let_disqualifies(self):
        assert flat("let fun f(a, b) = a val f = 3 in f end") == set()
        assert flat(
            "let fun f(a, b) = a fun f(c, d) = d in f(1, 2) end"
        ) == set()

    def test_rebinding_below_disqualifies(self):
        assert flat("let fun f(a, b) = a in fn f => f end") == set()
        assert flat(
            "let fun f(a, b) = a in let fun f(x) = x in f 1 end end"
        ) == set()
        assert flat(
            "let fun f(a, b) = a in case 1 of f => f(1, 2) end"
        ) == set()

    def test_only_one_tuple_parameter_of_one_width_qualifies(self):
        assert flat("let fun f(x) = x in f 1 end") == set()
        assert flat("let fun f (a, b) c = a in f (1, 2) 3 end") == set()
        assert flat(
            "let fun f(0, b) = b | f p = 1 in f(1, 2) end"
        ) == set()
        assert flat(
            "let fun f(0, b) = b | f(a, b) = a in f(1, 2) end"
        ) == {"f"}


class TestEmitsStatements:
    def test_pure_arithmetic(self):
        assert not _emits_statements(parse_expression("a + b * 2"))

    def test_pure_if(self):
        assert not _emits_statements(parse_expression("if a then 1 else 2"))

    def test_let_emits(self):
        assert _emits_statements(parse_expression("let val x = 1 in x end"))

    def test_case_emits(self):
        assert _emits_statements(parse_expression("case x of _ => 1"))

    def test_if_with_let_branch_emits(self):
        assert _emits_statements(
            parse_expression("if a then let val x = 1 in x end else 2")
        )

    def test_handle_emits(self):
        assert _emits_statements(
            parse_expression("x handle NONE => 1")
        )

    def test_tuple_of_pure(self):
        assert not _emits_statements(parse_expression("(a, b, f c)"))


class TestGeneratedStructure:
    def compile(self, source):
        report = api.check(source, "<t>")
        return compile_program(
            report.program, report.env, report.eliminable_sites(), "t"
        )

    def test_tail_loop_has_no_recursion(self):
        mod = self.compile(
            "fun loop(i, acc) = if i = 0 then acc else loop(i - 1, acc + i)"
        )
        body = mod.source.split("def d_loop")[1]
        assert "while True:" in body
        assert "d_loop(" not in body  # no recursive call remains

    def test_curried_levels(self):
        mod = self.compile("fun f a b c = a + b + c")
        assert mod.source.count("_curry") >= 2

    def test_multi_param_tail_loop_converts(self):
        # Curried multi-parameter self-tail-recursion also becomes a
        # while loop: a saturated tail call assigns all loop locals at
        # once (tuple assignment) and continues.
        mod = self.compile(
            "fun loop2 n acc = if n = 0 then acc else loop2 (n - 1) (acc + n)"
        )
        body = mod.source.split("def d_loop2")[1]
        assert "while True:" in body
        assert "d_loop2(" not in body

    def test_multi_param_tail_loop_runs_deep(self):
        mod = self.compile(
            "fun loop2 n acc = if n = 0 then acc else loop2 (n - 1) (acc + n)"
        )
        n = 100_000  # far past the CPython recursion limit
        assert mod.call("loop2", n, 0) == n * (n + 1) // 2

    def test_three_param_tail_loop_runs_deep(self):
        mod = self.compile(
            "fun go a b c = if a = 0 then b - c else go (a - 1) (b + 1) b"
        )
        # b/c swap each step: catches ordering bugs a sequential
        # (non-tuple) loop-variable update would introduce.
        assert mod.source.count("while True:") >= 1
        assert mod.call("go", 50_000, 1, 0) == 1

    def test_multi_param_non_tail_stays_recursive(self):
        mod = self.compile(
            "fun f n acc = if n = 0 then acc else 1 + f (n - 1) acc"
        )
        assert "while True:" not in mod.source.split("def d_f")[1]

    def test_partial_self_application_stays_recursive(self):
        # An unsaturated self-call is a value, not a loop iteration.
        mod = self.compile(
            "fun g n k = if n = 0 then k else (g (n - 1)) (k + n)"
        )
        assert mod.call("g", 5, 0) == 15

    def test_fresh_names_never_collide(self):
        mod = self.compile(
            "fun f(x) = let val y = x + 1 in "
            "(let val y = x * 2 in y end) + y end"
        )
        assert mod.call("f", 10) == 31  # 20 + 11

    def test_generated_source_compiles_standalone(self):
        mod = self.compile("fun f(x) = x + 1")
        import ast as pyast

        pyast.parse(mod.source)  # syntactically valid Python

    def test_namespace_caching(self):
        mod = self.compile("fun f(x) = x")
        assert mod.load() is mod.load()

    def test_tuple_loop_keeps_its_state_in_locals(self):
        # bcopy's copy loop takes flat parameters and advances only its
        # index: no argument tuple is built or read per byte.
        body = self.compile(programs.load_source("bcopy")).source
        copy = body.split("def d_copy_")[1].split("\n\n")[0]
        assert re.match(r"\d+\(d_i_(\d+), d_len_\d+\):", copy)
        index = re.match(r"\d+\(d_i_(\d+)", copy).group(1)
        assert f"d_i_{index} = (d_i_{index} + 1)" in copy
        assert "_a" not in copy and "[0]" not in copy

    def test_known_local_takes_flat_parameters(self):
        source = self.compile(programs.load_source("hanoi")).source
        assert re.search(r"def d_solve_\d+\(\w+, \w+, \w+, \w+\):", source)
        assert re.search(r"d_solve_\d+\(\(d_k_\d+ - 1\), ", source)
        # The top-level entry keeps the one-tuple interface.
        assert "def d_hanoi(_a1_1):" in source

    def test_eliminated_statement_write_is_a_store_in_plain_only(self):
        report = api.check(programs.load_source("bcopy"), "bcopy.dml")
        sites = report.eliminable_sites()
        plain = compile_program(report.program, report.env, sites, "t").source
        assert re.search(r"d_dst_\d+\[d_i_\d+\] = d_src_\d+\[d_i_\d+\]", plain)
        assert "_upd(" not in plain.split("def d_bcopy")[1]
        for dialect in ("packed", "numpy"):
            other = compile_program(report.program, report.env, sites, "t",
                                    dialect=dialect).source
            assert "] = " not in other.split("def d_bcopy")[1]
        counted = compile_program(report.program, report.env, sites, "t",
                                  instrument=True).source
        assert "_ce(_upd(" in counted
