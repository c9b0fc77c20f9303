"""Property-based tests for the hash-consed index-term core.

The interned IR promises a handful of algebraic invariants that the
whole pipeline (elaboration, solving, caching) silently relies on:

* interning is idempotent and structural — two construction routes for
  the same content yield the *same object*;
* memoized ``free_vars`` agrees with ``subst``: substituting a variable
  that is not free is the identity (same node, not a copy), and
  substituting one that is free removes it;
* ``linearize`` is a homomorphism into :class:`LinComb`:
  ``linearize(a) - linearize(b) == linearize(a - b)``;
* the solver-level canonical key is invariant under alpha-renaming of
  rigid variables;
* pickling round-trips through the intern table (``loads . dumps`` is
  the identity *object*, not just an equal one).

Random terms are generated in the style of
``tests/solver/test_differential.py`` — a seeded ``random.Random`` so
failures replay deterministically.
"""

import pickle
import random

from repro.indices import terms
from repro.indices.intern import reintern
from repro.indices.linear import Atom, LinComb, NonLinearIndex, linearize
from repro.indices.terms import (
    BinOp,
    Cmp,
    EVar,
    IConst,
    IVar,
    UnOp,
    free_vars,
    subst,
)
from repro.solver.portfolio import canonical_key

N_TERMS = 400
VARS = ("x", "y", "z", "n")


def random_int_term(rng: random.Random, depth: int = 3) -> terms.IndexTerm:
    """A random integer-sorted index term (linear-friendly bias)."""
    if depth == 0 or rng.random() < 0.3:
        kind = rng.random()
        if kind < 0.45:
            return IVar(rng.choice(VARS))
        if kind < 0.6:
            return EVar(rng.randint(0, 5))
        return IConst(rng.randint(-9, 9))
    roll = rng.random()
    if roll < 0.8:
        op = rng.choice(("+", "+", "-", "-", "*"))
        left = random_int_term(rng, depth - 1)
        right = random_int_term(rng, depth - 1)
        if op == "*":
            # Keep most products linear so linearize succeeds often.
            right = IConst(rng.randint(-4, 4))
        return BinOp(op, left, right)
    return UnOp("neg", random_int_term(rng, depth - 1))


def random_terms():
    rng = random.Random(19980617)  # PLDI '98, for determinism
    return [random_int_term(rng) for _ in range(N_TERMS)]


TERMS = random_terms()


def test_generator_is_deterministic():
    assert [str(t) for t in random_terms()] == [str(t) for t in TERMS]


def test_interning_is_structural_and_idempotent():
    for t in TERMS:
        assert reintern(t) is t
        # Rebuilding the same content through a second construction
        # route must land on the same object.
        if isinstance(t, BinOp):
            assert BinOp(t.op, t.left, t.right) is t
            # The operator route goes through the smart constructors
            # (which may fold constants), but whatever node it builds
            # is itself interned: the same route twice is one object.
            if t.op in {"+", "-"}:
                once = t.left + t.right if t.op == "+" else t.left - t.right
                again = t.left + t.right if t.op == "+" else t.left - t.right
                assert once is again


def test_default_arguments_intern_with_explicit_ones():
    assert EVar(3) is EVar(3, "?")
    assert EVar(3) is EVar(uid=3)
    assert EVar(3, "k") is not EVar(3)


def test_subst_agrees_with_free_vars():
    rng = random.Random(404)
    replacement = IConst(7)
    for t in TERMS:
        fv = free_vars(t)
        fresh = "completely_fresh_variable"
        assert fresh not in fv
        # Substituting a non-free variable is the identity object.
        assert subst(t, {fresh: replacement}) is t
        if fv:
            victim = sorted(fv)[rng.randrange(len(fv))]
            substituted = subst(t, {victim: replacement})
            assert victim not in free_vars(substituted)
            assert free_vars(substituted) == fv - {victim}


def test_linearize_is_a_subtraction_homomorphism():
    rng = random.Random(405)
    checked = 0
    for _ in range(N_TERMS):
        a = random_int_term(rng)
        b = random_int_term(rng)
        try:
            la, lb, lab = linearize(a), linearize(b), linearize(a - b)
        except NonLinearIndex:
            continue
        checked += 1
        assert la - lb == lab, f"a={a} b={b}"
    assert checked > N_TERMS // 2


def test_linearize_memoization_preserves_failures():
    x, y = IVar("x"), IVar("y")
    nonlinear = BinOp("*", x, y)
    first = None
    for _ in range(2):  # second round hits the memoized exception
        try:
            linearize(nonlinear)
        except NonLinearIndex as exc:
            if first is None:
                first = exc
            else:
                assert exc is first  # the cached instance is re-raised
        else:
            raise AssertionError("x*y linearized")


def random_atom_system(rng: random.Random) -> list[Atom]:
    atoms = []
    for _ in range(rng.randint(1, 4)):
        coeffs = tuple(
            (v, c)
            for v in VARS
            if (c := rng.randint(-3, 3)) != 0 and rng.random() < 0.7
        )
        rel = "=" if rng.random() < 0.25 else ">="
        atoms.append(Atom(rel, LinComb(coeffs, rng.randint(-6, 6))))
    return atoms


def test_canonical_key_is_alpha_invariant():
    rng = random.Random(406)
    renaming = {"x": "alpha", "y": "beta", "z": "gamma", "n": "delta"}
    for _ in range(200):
        atoms = random_atom_system(rng)
        renamed = [
            Atom(
                a.rel,
                LinComb(
                    tuple((renaming[v], c) for v, c in a.lhs.coeffs),
                    a.lhs.const,
                ),
            )
            for a in atoms
        ]
        assert canonical_key(atoms) == canonical_key(renamed)


def test_canonical_key_distinguishes_distinct_systems():
    """Alpha-invariance must not collapse genuinely different systems."""
    a = [Atom(">=", LinComb((("x", 1),), 0))]
    b = [Atom(">=", LinComb((("x", 2),), 0))]
    assert canonical_key(a) != canonical_key(b)


def test_pickle_round_trips_through_the_intern_table():
    for t in TERMS[:50]:
        assert pickle.loads(pickle.dumps(t)) is t


def test_comparisons_and_booleans_intern_too():
    x, y = IVar("x"), IVar("y")
    c = Cmp("<", x, y)
    assert Cmp("<", x, y) is c
    assert terms.band(c, terms.TRUE) is c  # smart constructor folds
    assert terms.bnot(terms.bnot(c)) is c
