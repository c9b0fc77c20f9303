"""Check-elimination decisions (the paper's pay-off step).

Given a :class:`~repro.api.CheckReport`, decide for every dependent
array/list operation call site whether its run-time check may be
omitted.  The policy is *per-site* and fail-closed (see DESIGN.md,
mirrored by :meth:`~repro.api.CheckReport.eliminable_sites`):

* **Structural goals gate everything.**  Site proofs assume the
  program's annotated invariants (``where``-clauses, result
  subsumptions, existential witnesses); those invariants are exactly
  what the structural goals — the ones with an empty origin —
  establish.  One failed structural goal therefore vetoes every
  elimination: no proof that leans on an unjustified annotation can
  be trusted.
* **Site goals gate only their own site.**  Once the structural goals
  hold, each check site stands or falls on its own obligations: a
  failed (or budget-exhausted) bound proof at one access keeps *that*
  site's run-time check and leaves every independently proved site
  unchecked.
* **Dialects can only keep more checks.**  A plan is issued for one
  value-representation dialect; the dialect's per-site gate
  (:meth:`~repro.compile.dialects.Dialect.may_eliminate`) may veto an
  otherwise-eliminable site but is never consulted about kept sites —
  so dialect choice can narrow the plan, never widen it.

``*CK`` operations never appear here — they always check.
"""

from __future__ import annotations


from repro.api import CheckReport
from repro.compile.dialects import Dialect, get_dialect
from repro.core.elaborate import SiteInfo
from repro.records import record


@record
class EliminationPlan:
    """Which check sites compile to unchecked accesses."""

    #: Did *every* obligation discharge?  Diagnostic only — elimination
    #: is per-site (``unchecked``); a program with one failed site goal
    #: still eliminates the others.
    program_proved: bool
    sites: dict[str, SiteInfo]
    #: The eliminable sites (structural goals all hold, and the site's
    #: own obligations discharged) — the decision consumers act on.
    unchecked: set[str]
    #: Per-site proof status over the site's own goals (ignores the
    #: structural gate, so a site may be "proved" yet still checked).
    site_proved: dict[str, bool]
    #: Value-representation dialect this plan was issued for; the
    #: ``unchecked`` set already reflects its per-site gate.
    dialect: str = "plain"

    @property
    def bound_sites(self) -> list[SiteInfo]:
        return [s for s in self.sites.values() if s.kind == "bound"]

    @property
    def tag_sites(self) -> list[SiteInfo]:
        return [s for s in self.sites.values() if s.kind == "tag"]

    def summary(self) -> str:
        kept = len(self.sites) - len(self.unchecked)
        return (
            f"{len(self.unchecked)} of {len(self.sites)} check sites "
            f"eliminated ({kept} kept) [dialect {self.dialect}]"
        )


def plan_elimination(
    report: CheckReport, dialect: "str | Dialect" = "plain"
) -> EliminationPlan:
    """Compute the elimination plan for a checked program, gated by
    the target dialect's per-site veto."""
    resolved = get_dialect(dialect)
    site_proved = {
        site_id: report.site_proved(site_id) for site_id in report.sites
    }
    unchecked = {
        site_id
        for site_id in report.eliminable_sites()
        if resolved.may_eliminate(report.sites[site_id])
    }
    return EliminationPlan(
        program_proved=report.all_proved,
        sites=dict(report.sites),
        unchecked=unchecked,
        site_proved=site_proved,
        dialect=resolved.name,
    )
