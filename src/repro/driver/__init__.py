"""Batch-capable, parallel, incrementally-cached checking driver.

Public surface::

    from repro import driver

    outcome = driver.check_program(source, jobs=4, disk=driver.open_store())
    outcome.report.all_proved          # the usual CheckReport
    outcome.driver.utilization         # plus driver telemetry

    corpus = driver.check_corpus(jobs=4, cache_dir=".repro-cache")
    print(corpus.render())

The persistent verdict store is pluggable (``driver.open_store(dir,
"sqlite"|"json")``): :class:`~repro.driver.store.SqliteVerdictStore`
is the concurrent-writer-safe default, :class:`DiskCache` the JSON
fallback.  See :mod:`repro.driver.core` for the architecture,
:mod:`repro.driver.store` for the store interface and merge
semantics, and :mod:`repro.driver.hashing` for the
incrementality/invalidation rules.
"""

from importlib import import_module

#: Public name -> the submodule that defines it.  Names resolve on first
#: access (PEP 562), so importing one submodule, say ``driver.store``
#: for the server, does not run ``driver.core`` and its executors.
_EXPORTS = {
    "DEFAULT_CACHE_DIR": "store",
    "DEFAULT_STORE": "store",
    "STORE_BACKENDS": "store",
    "DiskCache": "cache",
    "SqliteVerdictStore": "store",
    "VerdictStore": "store",
    "open_store": "store",
    "CorpusReport": "core",
    "DriverReport": "core",
    "DriverStats": "core",
    "ProgramResult": "core",
    "check_corpus": "core",
    "check_program": "core",
    "decl_keys": "hashing",
    "prelude_hash": "hashing",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
