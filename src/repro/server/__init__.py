"""The warm checking-as-a-service daemon (``repro serve``).

One-shot ``repro check`` pays prelude elaboration and cold caches on
every invocation.  This package keeps that state warm in a long-lived
process: :mod:`repro.server.sessions` owns the elaborated prelude
template, the shared solver-verdict cache (seeded from the persistent
verdict store, :mod:`repro.driver.store`), and the goal-preprocessing
:class:`~repro.solver.slice.SliceContext`; :mod:`repro.server.app`
serves them over an asyncio HTTP/JSON protocol defined in
:mod:`repro.server.protocol`; :mod:`repro.server.client` is the small
blocking client the tests, the CI smoke job, and the benchmarks use.

Verdicts are byte-identical to ``repro check`` on the same source: a
request runs :func:`repro.driver.core.check_program`, whose verdicts
equal :func:`repro.api.check`'s, against an isolated prelude fork, and
every piece of shared state (solver cache, slice context, declaration
records keyed by source prefix, backend and envelope) is
verdict-preserving by construction.
"""

from repro.server.app import ServeDaemon
from repro.server.client import ServeClient, ServeError
from repro.server.protocol import CheckRequest, ProtocolError, admit_limits
from repro.server.sessions import CheckService, ServerConfig

__all__ = [
    "CheckRequest",
    "CheckService",
    "ProtocolError",
    "ServeClient",
    "ServeDaemon",
    "ServeError",
    "ServerConfig",
    "admit_limits",
]
