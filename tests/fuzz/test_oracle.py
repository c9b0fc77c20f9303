"""Differential-oracle behaviour: clean programs pass, injected
faults and wrong ground truth are flagged with the right kinds."""

from repro.compile.dialects import available_dialects
from repro.fuzz.faults import get_fault
from repro.fuzz.gen import SiteTruth
from repro.fuzz.oracle import resolve_dialects, run_differential

OVERFLOW = """\
fun main(u) = let
  val a0 = array(1, 0)
  val _ = update(a0, 0, 9223372036854775808)
in sub(a0, 0) end
where main <| int -> int
"""

OOB = """\
fun main(u) = let
  val a0 = array(2, 5)
in sub(a0, 9) end
where main <| int -> int
"""


PRINTS_THEN_FAILS = """\
fun main(u) = (print_int 1; print_int 2; sub(array(2, 5), 9))
where main <| int -> int
"""


class TestEngines:
    def test_clean_program_all_engines_agree(self):
        result = run_differential(OVERFLOW)
        assert result.ok, result.render()
        # interp + every dialect, checked and unchecked builds each.
        expected = 2 + 2 * len(available_dialects())
        assert len(result.outcomes) == expected

    def test_oob_raises_everywhere(self):
        result = run_differential(OOB)
        assert result.ok, result.render()
        assert result.outcomes["interp-checked"].error == "BoundsError"

    def test_outcome_records_printed_lines_and_message(self):
        result = run_differential(PRINTS_THEN_FAILS)
        assert result.ok, result.render()
        reference = result.outcomes["interp-checked"]
        assert reference.printed == ("1", "2")
        assert reference.message == (
            "Subscript: index 9 out of bounds for array of size 2")

    def test_pipeline_error_kind(self):
        result = run_differential("fun main(u) = nope(u)\n"
                                  "where main <| int -> int\n")
        assert result.worst == "pipeline-error"


class TestTruthJoin:
    def test_wrong_truth_flags_soundness(self):
        # Claim the (provable) update site is non-eliminable: the
        # solver "disagreeing" with ground truth must be reported as a
        # soundness alarm.
        truths = (SiteTruth(line=3, op="update", eliminable=False,
                            note="test lie"),)
        result = run_differential(OVERFLOW, truths)
        assert result.worst == "soundness"

    def test_unproved_eliminable_flags_incompleteness(self):
        truths = (SiteTruth(line=3, op="sub", eliminable=True,
                            note="test lie"),)
        result = run_differential(OOB, truths)
        assert result.worst == "incompleteness"
        # The diagnose wiring: failed goals come with counterexamples.
        assert result.diagnostics


class TestFaults:
    def test_overflow_fault_detected(self):
        fault = get_fault("overflow-update")
        result = run_differential(
            OVERFLOW, dialects=[(fault.name, fault)]
        )
        assert not result.ok
        assert result.outcomes[f"{fault.name}-checked"].error == (
            "OverflowError"
        )

    def test_oob_read_fault_detected(self):
        source = (
            "fun get(a, i) = sub(a, i)\n"
            "where get <| {n:nat} {i:nat | i < n} "
            "int array(n) * int(i) -> int\n\n"
            "fun main(u) = let\n"
            "  val a0 = array(2, 5)\n"
            "in get(a0, 1) end\n"
            "where main <| int -> int\n"
        )
        fault = get_fault("oob-read")
        result = run_differential(source, dialects=[(fault.name, fault)])
        assert not result.ok
        # Only the certificate-gated build reads through the broken
        # path; the checked build stays honest.
        bad = {m.engine for m in result.mismatches}
        assert bad == {f"{fault.name}-unchecked"}

    def test_kept_check_fault_detected(self):
        source = (
            "fun get(a, i) = sub(a, i)\n\n"
            "fun main(u) = get(array(2, 5), u - 1)\n"
            "where main <| int -> int\n"
        )
        fault = get_fault("kept-check")
        result = run_differential(source, dialects=[(fault.name, fault)])
        assert result.outcomes["interp-checked"].error == "BoundsError"
        # The site is unprovable, so both builds keep the broken check
        # and read a[-1] instead of raising.
        bad = {m.engine for m in result.mismatches}
        assert bad == {f"{fault.name}-checked", f"{fault.name}-unchecked"}


class TestResolveDialects:
    def test_default_is_every_available(self):
        labels = [label for label, _ in resolve_dialects(None)]
        assert labels == list(available_dialects())

    def test_pairs_pass_through(self):
        fault = get_fault("oob-read")
        resolved = resolve_dialects([("x", fault)])
        assert resolved == [("x", fault)]

    def test_names_resolve(self):
        labels = [label for label, _ in resolve_dialects(["plain"])]
        assert labels == ["plain"]
