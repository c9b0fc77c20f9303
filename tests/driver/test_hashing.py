"""Prefix-chain content hashing: exactly the right suffix invalidates."""

from repro.driver import hashing
from repro.lang.parser import parse_program
from repro.solver.budget import DEFAULT_LIMITS, SolverLimits

BASE = (
    "fun one(x) = x + 1\n"
    "fun two(x) = x + 2\n"
    "fun three(x) = x + 3\n"
)


def keys_of(source: str, **kwargs) -> list[str]:
    program = parse_program(source, "<test>")
    return hashing.decl_keys(source, program.decls, backend="fourier", **kwargs)


class TestDeclKeys:
    def test_deterministic(self):
        assert keys_of(BASE) == keys_of(BASE)

    def test_one_key_per_decl(self):
        assert len(keys_of(BASE)) == 3

    def test_edit_invalidates_suffix_only(self):
        edited = BASE.replace("x + 2", "x + 20")
        before, after = keys_of(BASE), keys_of(edited)
        assert after[0] == before[0]
        assert after[1] != before[1]
        assert after[2] != before[2]

    def test_insertion_invalidates_suffix_only(self):
        inserted = (
            "fun one(x) = x + 1\n"
            "fun extra(x) = x\n"
            "fun two(x) = x + 2\n"
            "fun three(x) = x + 3\n"
        )
        before, after = keys_of(BASE), keys_of(inserted)
        assert after[0] == before[0]
        # Every key at and after the insertion point changes, even for
        # declarations whose own text is unchanged.
        assert set(after[1:]).isdisjoint(before)

    def test_reorder_invalidates_from_first_moved(self):
        swapped = (
            "fun two(x) = x + 2\n"
            "fun one(x) = x + 1\n"
            "fun three(x) = x + 3\n"
        )
        assert set(keys_of(swapped)).isdisjoint(keys_of(BASE))

    def test_backend_is_part_of_the_key(self):
        program = parse_program(BASE, "<test>")
        fourier = hashing.decl_keys(BASE, program.decls, backend="fourier")
        omega = hashing.decl_keys(BASE, program.decls, backend="omega")
        assert set(fourier).isdisjoint(omega)

    def test_prelude_is_part_of_the_key(self):
        real = keys_of(BASE)
        other = keys_of(BASE, prelude="deadbeef")
        assert set(real).isdisjoint(other)

    def test_limits_are_part_of_the_key(self):
        default = keys_of(BASE)
        assert keys_of(BASE, limits=DEFAULT_LIMITS) == default
        steps = keys_of(BASE, limits=SolverLimits(max_steps=3))
        timeout = keys_of(BASE, limits=SolverLimits(goal_timeout=0.5))
        unlimited = keys_of(BASE, limits=SolverLimits.unlimited())
        for other in (steps, timeout, unlimited):
            assert set(other).isdisjoint(default)
        assert set(steps).isdisjoint(timeout)

    def test_identical_decl_texts_do_not_collide(self):
        twice = "fun f(x) = x\nfun f(x) = x\n"
        keys = keys_of(twice)
        assert keys[0] != keys[1]

    def test_prelude_hash_stable(self):
        assert hashing.prelude_hash() == hashing.prelude_hash()
