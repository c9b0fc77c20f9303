"""Tests for safety certificates (the Section 6 certifying-compiler
direction)."""

import pytest

from repro import api
from repro.compile.certificate import (
    Obligation,
    issue_certificate,
    verify_certificate,
)
from repro.indices import terms
from repro.indices.sorts import INT
from repro.indices.terms import IConst, IVar

GOOD = (
    "fun f(a, i) = if 0 <= i andalso i < length a then sub(a, i) else 0 "
    "where f <| int array * int -> int"
)

#: One provable access site and one unprovable one — per-site policy
#: certifies the first and keeps the second's run-time check.
MIXED = (
    "fun f(a) = sub(a, 0) where f <| {n:nat | n > 0} 'a array(n) -> 'a\n"
    "fun g(a, i) = sub(a, i)\n"
)

#: A failed *structural* goal (the call of ``head`` cannot justify its
#: ``n > 0`` guard) — nothing may be certified.
STRUCT_BAD = (
    "fun head(a) = sub(a, 0) "
    "where head <| {n:nat | n > 0} 'a array(n) -> 'a\n"
    "fun g(a) = head(a) where g <| {n:nat} 'a array(n) -> 'a\n"
)


class TestIssue:
    def test_issue_for_good_program(self):
        cert = issue_certificate(api.check(GOOD, "<t>"))
        assert len(cert.sites) == 1
        assert cert.obligation_count > 0
        (op, obligations), = cert.sites.values()
        assert op == "sub"
        assert obligations  # bound conditions recorded

    def test_refuses_structural_failure(self):
        report = api.check(STRUCT_BAD, "<t>")
        assert not report.structural_ok
        with pytest.raises(ValueError):
            issue_certificate(report)

    def test_site_failure_certifies_the_other_site(self):
        """Per-site policy: one unprovable access keeps its own check
        but does not block certification of an independent site."""
        report = api.check(MIXED, "<t>")
        assert not report.all_proved
        cert = issue_certificate(report)
        assert set(cert.sites) == report.eliminable_sites()
        assert len(cert.sites) == 1
        (op, obligations), = cert.sites.values()
        assert op == "sub" and obligations
        # The kept site's (unproved) obligations appear nowhere.
        certified = {ob.origin for _, obs in cert.sites.values() for ob in obs}
        kept = set(report.sites) - report.eliminable_sites()
        assert kept and not (kept & certified)
        assert verify_certificate(cert, backend="omega").valid

    def test_unproved_site_only_program_certifies_nothing(self):
        report = api.check("fun f(a, i) = sub(a, i)", "<t>")
        cert = issue_certificate(report)  # no structural failure: legal
        assert cert.sites == {}
        assert cert.obligation_count == 0

    def test_certificate_is_evar_free(self):
        cert = issue_certificate(api.check(GOOD, "<t>"))
        for _, obligations in cert.sites.values():
            for ob in obligations:
                assert not terms.free_evars(ob.concl)
                assert not any(terms.free_evars(h) for h in ob.hyps)

    def test_render(self):
        cert = issue_certificate(api.check(GOOD, "<t>"))
        text = cert.render()
        assert "safety certificate" in text
        assert "sub" in text


class TestVerify:
    def test_roundtrip_with_omega(self):
        cert = issue_certificate(api.check(GOOD, "<t>"))
        result = verify_certificate(cert, backend="omega")
        assert result.valid
        assert result.checked == cert.obligation_count
        assert result.failures == []

    def test_roundtrip_with_fourier(self):
        cert = issue_certificate(api.check(GOOD, "<t>"))
        assert verify_certificate(cert, backend="fourier").valid

    def test_tampered_certificate_rejected(self):
        cert = issue_certificate(api.check(GOOD, "<t>"))
        bogus = Obligation(
            rigid={"i": INT},
            hyps=[],
            concl=terms.cmp(">=", IVar("i"), IConst(0)),
            origin="forged",
            location="<nowhere>",
        )
        site_id = next(iter(cert.sites))
        cert.sites[site_id][1].append(bogus)
        result = verify_certificate(cert)
        assert not result.valid
        assert any(ob.origin == "forged" for _, ob in result.failures)

    @pytest.mark.parametrize("name", [
        "dotprod", "bsearch", "quicksort", "kmp",
        # the rest of the paper's eight programs
        "bcopy", "bubblesort", "matmult", "queens", "hanoi", "listaccess",
    ])
    def test_corpus_certificates_verify(self, name):
        cert = issue_certificate(api.check_corpus(name))
        assert cert.obligation_count > 0
        result = verify_certificate(cert, backend="omega")
        assert result.valid, [ob.render() for _, ob in result.failures]

    def test_bcopy_certificate_needs_integer_reasoning(self):
        """bcopy4's divisibility obligations defeat a rational-only
        verifier — the certificate consumer's solver matters."""
        cert = issue_certificate(api.check_corpus("bcopy"))
        assert verify_certificate(cert, backend="omega").valid
        rational = verify_certificate(cert, backend="fourier-rational")
        assert not rational.valid
