"""Safety certificates for check elimination.

Section 6: "We also plan to pursue using our language as a front-end
for a certifying compiler for ML along the lines of work by Necula and
Lee ... We can propagate program properties (including array bound
information) through a compiler where they can be used for
optimizations or safety certificates in proof-carrying code."

A :class:`SafetyCertificate` is the artifact that would travel with the
compiled code: for every eliminated check site, the exact proof goals
whose validity justifies removing the check (plus the program-level
structural goals those proofs depend on).  A *consumer* re-validates
the certificate with its own trusted solver — here, any registered
backend; the natural choice is ``omega``, which is independent of and
stronger than the ``fourier`` producer — without re-running type
inference or elaboration.
"""

from __future__ import annotations

from dataclasses import field

from repro.api import CheckReport
from repro.indices.sorts import Sort
from repro.indices.terms import EvarStore, IndexTerm
from repro.records import record
from repro.solver.backends import Backend, get_backend
from repro.solver.simplify import Goal, prove_goal


@record
class Obligation:
    """One self-contained proof goal (evars already substituted)."""

    rigid: dict[str, Sort]
    hyps: list[IndexTerm]
    concl: IndexTerm
    origin: str
    location: str

    def to_goal(self) -> Goal:
        return Goal(dict(self.rigid), list(self.hyps), self.concl, self.origin)

    def render(self) -> str:
        quant = "".join(f"forall {n}:{s}. " for n, s in self.rigid.items())
        hyps = " /\\ ".join(str(h) for h in self.hyps)
        body = f"({hyps}) ==> {self.concl}" if hyps else str(self.concl)
        return f"{quant}{body}"


@record
class SafetyCertificate:
    """The obligations justifying every eliminated check."""

    program_name: str
    #: site_id -> (operation, obligations local to the site)
    sites: dict[str, tuple[str, list[Obligation]]]
    #: Obligations not tied to a site (annotation consistency etc.);
    #: site proofs assume the annotated invariants these establish.
    structural: list[Obligation] = field(default_factory=list)
    #: Value-representation dialect the certified compilation targets;
    #: ``sites`` covers exactly the plan issued for that dialect.
    dialect: str = "plain"

    @property
    def obligation_count(self) -> int:
        return len(self.structural) + sum(
            len(obs) for _, obs in self.sites.values()
        )

    def render(self) -> str:
        lines = [f"safety certificate for {self.program_name} "
                 f"(dialect {self.dialect})",
                 f"  {len(self.sites)} eliminated site(s), "
                 f"{self.obligation_count} obligation(s)"]
        for site_id, (op, obligations) in sorted(self.sites.items()):
            lines.append(f"  site {site_id} ({op}):")
            for ob in obligations:
                lines.append(f"    {ob.render()}")
        if self.structural:
            lines.append("  structural:")
            for ob in self.structural:
                lines.append(f"    {ob.render()}")
        return "\n".join(lines)


def issue_certificate(
    report: CheckReport, dialect: str = "plain"
) -> SafetyCertificate:
    """Produce a certificate covering exactly the eliminated checks.

    The certificate mirrors the per-site elimination policy
    (:meth:`~repro.api.CheckReport.eliminable_sites`): it contains the
    structural goals (which every elimination assumes) plus the
    obligations of each *eliminated* site.  Sites that keep their
    run-time checks — unproved, budget-exhausted, or crashed
    obligations — are simply absent: their safety is enforced
    dynamically, so there is nothing to certify (and nothing a
    consumer's re-validation could fail on).

    The certificate records the *dialect* the compilation targets and
    covers the plan issued for it: if the dialect's per-site gate keeps
    an otherwise-eliminable site, that site is absent here too.

    Raises :class:`ValueError` only when a *structural* goal is
    unproved — then no elimination is justified and no certificate can
    exist.  ``guard:``-tagged division obligations are never part of a
    certificate; they do not justify any eliminated check.
    """
    if not report.structural_ok:
        raise ValueError(
            "cannot certify: structural obligations failed "
            "(some annotation is unjustified)"
        )
    store = report.elab.store

    def freeze(goal) -> Obligation:
        return Obligation(
            rigid=dict(goal.rigid),
            hyps=[store.resolve(h) for h in goal.hyps],
            concl=store.resolve(goal.concl),
            origin=goal.origin,
            location=report.source.describe(goal.span),
        )

    from repro.compile.elim import plan_elimination

    plan = plan_elimination(report, dialect)
    sites: dict[str, tuple[str, list[Obligation]]] = {
        site_id: (info.op, [])
        for site_id, info in report.sites.items()
        if site_id in plan.unchecked
    }
    structural: list[Obligation] = []
    for result in report.goal_results:
        origin = result.goal.origin
        if origin in sites:
            sites[origin][1].append(freeze(result.goal))
        elif not origin:
            structural.append(freeze(result.goal))
        # Kept-site and guard: obligations are enforced at run time.
    return SafetyCertificate(report.name, sites, structural, plan.dialect)


@record
class VerificationResult:
    valid: bool
    checked: int
    failures: list[tuple[str, Obligation]] = field(default_factory=list)


def verify_certificate(
    certificate: SafetyCertificate,
    backend: Backend | str = "omega",
) -> VerificationResult:
    """Independently re-validate every obligation of a certificate."""
    if isinstance(backend, str):
        backend = get_backend(backend)
    store = EvarStore()  # certificates are evar-free by construction
    failures: list[tuple[str, Obligation]] = []
    checked = 0
    for site_id, (_, obligations) in certificate.sites.items():
        for ob in obligations:
            checked += 1
            if not prove_goal(ob.to_goal(), store, backend).proved:
                failures.append((site_id, ob))
    for ob in certificate.structural:
        checked += 1
        if not prove_goal(ob.to_goal(), store, backend).proved:
            failures.append(("<structural>", ob))
    return VerificationResult(not failures, checked, failures)
