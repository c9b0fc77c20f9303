"""Request/response shapes and admission control for ``repro serve``.

The wire format is deliberately tiny: JSON objects both ways, no
framing beyond HTTP.  Everything that can be wrong with a request is
rejected *here*, before any solver work happens, with a
:class:`ProtocolError` carrying the HTTP status the daemon should
answer — the solving layer behind it only ever sees validated,
admission-clamped input.

Admission control mirrors the fail-soft design (DESIGN.md §7): the
client may *request* a per-goal budget envelope (same semantics as the
CLI's ``--budget``/``--goal-timeout``: positive = cap, ``0`` = ask for
no cap), but the server clamps every request against its own caps
(``repro serve --max-budget/--max-goal-timeout``), so one pathological
goal can never starve the daemon regardless of what the client asks
for.  A goal that exhausts the admitted envelope degrades exactly as
in one-shot checking: recorded unproved, run-time check kept, session
unharmed.
"""

from __future__ import annotations


from repro.api import CheckReport
from repro.compile.dialects import dialect_summary
from repro.records import record
from repro.solver.backends import backend_names
from repro.solver.budget import DEFAULT_LIMITS, SolverLimits

#: Bumped when the JSON shapes change incompatibly.
PROTOCOL_VERSION = 1

#: Largest accepted request body (the whole corpus is ~100 KiB).
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Largest accepted ``/check-batch`` fan-out.
MAX_BATCH = 256

#: ``Accept`` this on ``/check-batch`` to get chunked per-item results
#: (one JSON object per line, each carrying its request ``index``) as
#: workers finish, instead of one buffered ``{"results": [...]}``.
NDJSON_CONTENT_TYPE = "application/x-ndjson"


def stream_requested(accept: str | None) -> bool:
    """Whether a request's ``Accept`` header opts into NDJSON
    streaming (exact media type, parameters ignored)."""
    if not accept:
        return False
    return any(
        part.strip().split(";", 1)[0].lower() == NDJSON_CONTENT_TYPE
        for part in accept.split(",")
    )


class ProtocolError(ValueError):
    """A malformed or inadmissible request; ``status`` is the HTTP
    answer (400 for malformed input, 413 for oversized bodies, 422 for
    programs that fail to parse/elaborate)."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


@record(frozen=True)
class CheckRequest:
    """One validated ``/check`` request.

    ``budget``/``goal_timeout`` are the *requested* envelope (``None``
    = server default, ``0`` = request no cap); :func:`admit_limits`
    clamps them against the server's caps before any goal is solved.
    """

    source: str
    name: str = "<request>"
    #: ``None`` = use the server's configured backend.
    backend: str | None = None
    budget: int | None = None
    goal_timeout: float | None = None
    slice_goals: bool = True

    _FIELDS = frozenset(
        {"source", "name", "backend", "budget", "goal_timeout", "slice_goals"}
    )

    @classmethod
    def from_json(cls, payload: object) -> "CheckRequest":
        if not isinstance(payload, dict):
            raise ProtocolError("request body must be a JSON object")
        unknown = set(payload) - cls._FIELDS
        if unknown:
            raise ProtocolError(
                f"unknown request field(s): {', '.join(sorted(unknown))}"
            )
        source = payload.get("source")
        if not isinstance(source, str):
            raise ProtocolError("'source' is required and must be a string")
        name = payload.get("name", "<request>")
        if not isinstance(name, str):
            raise ProtocolError("'name' must be a string")
        backend = payload.get("backend")
        if backend is not None and backend not in backend_names():
            raise ProtocolError(
                f"unknown backend {backend!r} "
                f"(available: {', '.join(backend_names())})"
            )
        budget = payload.get("budget")
        if budget is not None:
            if not isinstance(budget, int) or isinstance(budget, bool):
                raise ProtocolError("'budget' must be an integer")
            if budget < 0:
                raise ProtocolError(
                    "'budget' must be >= 0 (0 requests no step cap)"
                )
        goal_timeout = payload.get("goal_timeout")
        if goal_timeout is not None:
            if isinstance(goal_timeout, bool) or not isinstance(
                goal_timeout, (int, float)
            ):
                raise ProtocolError("'goal_timeout' must be a number")
            if goal_timeout < 0:
                raise ProtocolError(
                    "'goal_timeout' must be >= 0 (0 requests no deadline)"
                )
            goal_timeout = float(goal_timeout)
        slice_goals = payload.get("slice_goals", True)
        if not isinstance(slice_goals, bool):
            raise ProtocolError("'slice_goals' must be a boolean")
        return cls(
            source=source,
            name=name,
            backend=backend,
            budget=budget,
            goal_timeout=goal_timeout,
            slice_goals=slice_goals,
        )


def batch_from_json(payload: object) -> list[CheckRequest]:
    """Validate one ``/check-batch`` body: ``{"programs": [request...]}``."""
    if not isinstance(payload, dict) or "programs" not in payload:
        raise ProtocolError("batch body must be {'programs': [...]} ")
    programs = payload["programs"]
    if not isinstance(programs, list) or not programs:
        raise ProtocolError("'programs' must be a non-empty list")
    if len(programs) > MAX_BATCH:
        raise ProtocolError(
            f"batch too large ({len(programs)} > {MAX_BATCH})", status=413
        )
    return [CheckRequest.from_json(entry) for entry in programs]


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------


def _clamp(requested: float | None, cap: float | None) -> float | None:
    """The admitted bound: the tighter of request and cap, where
    ``None`` means unbounded on either side."""
    if cap is None:
        return requested
    if requested is None:
        return cap
    return min(requested, cap)


def admit_limits(request: CheckRequest, caps: SolverLimits) -> SolverLimits:
    """The per-goal envelope one request actually gets to spend.

    A request that asks for nothing gets the process defaults; a
    request that asks for *more* than the server allows (including
    ``0`` = "no cap, please") is silently clamped to the cap.  The
    admitted envelope is reported back in the response so clients can
    see what they were granted.
    """
    steps_requested = (
        DEFAULT_LIMITS.max_steps
        if request.budget is None
        else (request.budget or None)
    )
    timeout_requested = (
        DEFAULT_LIMITS.goal_timeout
        if request.goal_timeout is None
        else (request.goal_timeout or None)
    )
    steps = _clamp(steps_requested, caps.max_steps)
    timeout = _clamp(timeout_requested, caps.goal_timeout)
    if steps is not None:
        steps = int(steps)
    return SolverLimits(max_steps=steps, goal_timeout=timeout)


# ---------------------------------------------------------------------------
# Responses
# ---------------------------------------------------------------------------


def check_response(
    report: CheckReport,
    wall_seconds: float,
    limits: SolverLimits,
    goals_replayed: int,
) -> dict:
    """The JSON body answering one ``/check`` request.

    ``verdicts`` carries the exact ``(origin, proved, reason)`` triples
    of the sequential checker — the parity currency shared with the
    verdict store's declaration records and the CI smoke jobs.
    ``goals_replayed`` counts the goals answered from stored
    declaration records instead of being proved.
    """
    return {
        "name": report.name,
        "ok": report.all_proved,
        "verdicts": [
            [r.goal.origin, r.proved, r.reason] for r in report.goal_results
        ],
        "goals": report.stats.goals,
        "goals_replayed": goals_replayed,
        "proved": report.stats.proved,
        "failed": report.stats.failed,
        "constraints": report.num_constraints,
        "sites": len(report.sites),
        "eliminable": sorted(report.eliminable_sites()),
        "dialects": dialect_summary(report.sites, report.eliminable_sites()),
        "warnings": list(report.warnings),
        "budget_exhausted": report.stats.budget_exhausted,
        "contained_crashes": report.stats.contained_crashes,
        "generation_seconds": report.generation_seconds,
        "solve_seconds": report.solve_seconds,
        "wall_seconds": wall_seconds,
        "limits": {
            "max_steps": limits.max_steps,
            "goal_timeout": limits.goal_timeout,
        },
        "summary": report.summary(),
    }


def error_response(message: str) -> dict:
    return {"ok": False, "error": message}
