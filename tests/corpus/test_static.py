"""Static checking of the whole benchmark corpus.

Every program must fully type-check with every dependent access site
eliminable, under both the paper's solver and the Omega test; the
constraint counts are pinned as regressions.  So are the exact static
answers of the paper's Section 4 on its eight programs: Table 1's
annotation counts, each solver backend's proved goals (Section 3.2)
and the Figure 4 goals of binary search.
"""

import pytest

from repro import api, programs
from repro.compile.pycodegen import _expr_children
from repro.lang import ast
from repro.solver.backends import backend_names, get_backend
from repro.solver.simplify import prove_goal

#: program -> (expected sites, expected all-proved)
CORPUS = {
    "dotprod": 2,
    "reverse": 0,
    "bsearch": 2,
    "bcopy": 12,
    "bubblesort": 6,
    "matmult": 6,
    "queens": 5,
    "quicksort": 6,
    "hanoi": 6,
    "listaccess": 3,
    "kmp": 6,
    "mergesort": 0,
    "braun": 0,
    "listlib": 7,
}


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_program_fully_checks(name):
    report = api.check_corpus(name)
    assert report.all_proved, report.summary()
    assert len(report.sites) == CORPUS[name]
    assert report.eliminable_sites() == set(report.sites)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_all_existentials_solved(name):
    report = api.check_corpus(name)
    store = report.elab.store
    assert store.solved_count == store.created_count


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_omega_agrees(name):
    report = api.check_corpus(name, backend="omega")
    assert report.all_proved


def test_available_lists_corpus():
    names = programs.available()
    assert set(CORPUS) <= set(names)
    assert "prelude" not in names


def test_constraint_counts_are_stable():
    """Pin the constraint counts: a regression here means elaboration
    changed its obligations (compare against Table 1's magnitudes)."""
    counts = {
        name: api.check_corpus(name).num_constraints for name in sorted(CORPUS)
    }
    assert counts == {
        "bcopy": 51,
        "braun": 33,
        "bsearch": 31,
        "bubblesort": 29,
        "dotprod": 20,
        "hanoi": 45,
        "kmp": 44,
        "listaccess": 18,
        "listlib": 58,
        "matmult": 31,
        "mergesort": 36,
        "queens": 40,
        "quicksort": 42,
        "reverse": 27,
    }


def test_solver_time_is_practical():
    """Section 4's headline: constraints "can be solved efficiently in
    practice" — the whole corpus solves in well under a second."""
    total = sum(api.check_corpus(name).solve_seconds for name in CORPUS)
    assert total < 5.0  # generous bound for slow CI machines


def test_kmp_checked_sites_are_the_deep_invariant_ones():
    """KMP keeps exactly its subCK accesses checked (by construction:
    they are not elimination sites at all), mirroring Figure 5."""
    report = api.check_corpus("kmp")
    source = programs.load_source("kmp")
    assert source.count("subCK(") == 2  # the two deep-invariant accesses
    # All six *dependent* sites eliminated.
    assert len(report.eliminable_sites()) == 6


# -- the paper's Section 4 ----------------------------------------------------

#: The eight programs of Tables 1-3, in the paper's row order.
PAPER = ("bcopy", "bsearch", "bubblesort", "matmult", "queens",
         "quicksort", "hanoi", "listaccess")


def count_annotations(program: ast.Program, source_text: str) -> tuple[int, int]:
    """(number of dependent annotations, source lines they occupy)."""
    spans = []
    count = 0

    def visit_expr(expr: ast.Expr) -> None:
        nonlocal count
        if isinstance(expr, ast.EAnnot):
            count += 1
            spans.append(expr.ty.span)
        for child in _expr_children(expr):
            visit_expr(child)

    for decl in program.decls:
        if isinstance(decl, ast.DFun):
            for binding in decl.bindings:
                if binding.where_type is not None:
                    count += 1
                    spans.append(binding.where_type.span)
                if binding.ixparams:
                    count += 1
                for clause in binding.clauses:
                    visit_expr(clause.body)
        elif isinstance(decl, ast.DVal):
            if decl.where_type is not None:
                count += 1
                spans.append(decl.where_type.span)
            visit_expr(decl.expr)
        elif isinstance(decl, ast.DAssert):
            count += len(decl.items)
            spans.append(decl.span)
        elif isinstance(decl, ast.DTyperef):
            count += len(decl.clauses)
            spans.append(decl.span)
        elif isinstance(decl, ast.DTypeAbbrev):
            count += 1
            spans.append(decl.span)

    lines: set[int] = set()
    for span in spans:
        start_line = source_text.count("\n", 0, span.start) + 1
        end_line = source_text.count("\n", 0, span.end) + 1
        lines.update(range(start_line, end_line + 1))
    return count, len(lines)


def count_code_lines(source_text: str) -> int:
    """Non-blank source lines outside (nested) ``(* ... *)`` comments."""
    out = []
    depth = 0
    i = 0
    while i < len(source_text):
        if source_text.startswith("(*", i):
            depth += 1
            i += 2
            continue
        if source_text.startswith("*)", i) and depth:
            depth -= 1
            i += 2
            continue
        if depth == 0 or source_text[i] == "\n":
            out.append(source_text[i])
        i += 1
    return sum(1 for line in "".join(out).splitlines() if line.strip())


def test_counts_where_and_asserts():
    # An ``assert`` item, a ``where`` and an ascription, on two lines.
    source = (
        "assert foo <| int -> int\n"
        "fun f(x) = (x : int) where f <| int -> int\n"
    )
    report = api.check(source, "<t>")
    assert count_annotations(report.program, source) == (3, 2)


def test_code_lines_strips_comments():
    source = "(* a\n b *)\nfun f(x) = x\n\n(* trailing *)\n"
    assert count_code_lines(source) == 1


def test_table1_annotation_counts():
    """Table 1's static columns: program -> (annotations, lines they
    take, code lines).  Its constraint counts are pinned above; its
    times come from ``repro check-corpus --no-cache``."""
    counts = {}
    for name in PAPER:
        source = programs.load_source(name)
        report = api.check(source, name)
        counts[name] = (*count_annotations(report.program, source),
                        count_code_lines(source))
    assert counts == {
        "bcopy": (6, 3, 35),
        "bsearch": (4, 2, 31),
        "bubblesort": (2, 1, 20),
        "matmult": (2, 2, 27),
        "queens": (2, 1, 23),
        "quicksort": (2, 1, 33),
        "hanoi": (2, 1, 23),
        "listaccess": (3, 3, 21),
    }


#: Section 3.2: backend -> program -> goals it fails to prove (none if
#: absent).  The rational backends miss exactly bcopy's nine
#: divisibility goals, which need Fourier's gcd tightening or Omega.
FAILED = {
    "fourier-rational": {"bcopy": 9},
    "simplex": {"bcopy": 9},
    "interval": {"bcopy": 14, "bsearch": 12, "bubblesort": 11, "matmult": 8,
                 "queens": 14, "quicksort": 20, "listaccess": 1},
}


@pytest.mark.parametrize("backend", backend_names())
def test_backend_proved_goals(backend):
    goals = {"bcopy": 51, "bsearch": 31, "bubblesort": 29, "matmult": 31,
             "queens": 40, "quicksort": 42, "hanoi": 45, "listaccess": 18}
    proved = {}
    for name in PAPER:
        report = api.check_corpus(name, backend=backend)
        proved[name] = (report.stats.proved, report.stats.goals)
    failed = FAILED.get(backend, {})
    assert proved == {name: (total - failed.get(name, 0), total)
                      for name, total in goals.items()}


#: Figure 4: the binary-search goals about the midpoint ``l + (h - l)
#: div 2``, under look's annotation and the ``hi >= lo`` branch.
FIGURE4_HYPS = ("(size >= 0 /\\ l >= 0 /\\ (0 <= l /\\ l <= size) /\\ "
                "(0 <= (h + 1) /\\ (h + 1) <= size) /\\ h >= l) ==> ")
FIGURE4 = [
    FIGURE4_HYPS + "(l + div((h - l), 2)) >= 0",
    FIGURE4_HYPS + "(l + div((h - l), 2)) < size",
    FIGURE4_HYPS + "(0 <= (((l + div((h - l), 2)) - 1) + 1) /\\ "
                   "(((l + div((h - l), 2)) - 1) + 1) <= size)",
    FIGURE4_HYPS + "((l + div((h - l), 2)) + 1) >= 0",
    FIGURE4_HYPS + "(0 <= ((l + div((h - l), 2)) + 1) /\\ "
                   "((l + div((h - l), 2)) + 1) <= size)",
]


def test_figure4_goals():
    """After the ``div`` elimination the goals are rationally
    refutable: every backend but ``interval`` proves each one."""
    report = api.check_corpus("bsearch")
    store = report.elab.store
    goals = [r.goal for r in report.goal_results if "div" in r.goal.text(store)]
    assert [goal.text(store) for goal in goals] == FIGURE4
    for name in backend_names():
        backend = get_backend(name)
        proved = [prove_goal(goal, store, backend).proved for goal in goals]
        assert proved == [name != "interval"] * len(FIGURE4), name
