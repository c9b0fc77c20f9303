"""Whole-pipeline differential fuzzing (ROADMAP item 4).

The subpackage splits along the classic fuzzing pipeline:

* :mod:`repro.fuzz.gen` — a seeded, grammar-directed generator of
  well-typed DML programs whose access sites are eliminable or
  non-eliminable *by construction* (the ground truth rides along);
* :mod:`repro.fuzz.oracle` — the differential oracle: one program, every
  engine (interpreter with/without elimination, checked and
  certificate-gated unchecked compiled builds, per dialect), outcomes
  compared as value or exception (class and message) plus the lines
  each engine printed;
* :mod:`repro.fuzz.shrink` — a greedy delta-debugging shrinker over the
  generator's spec (never over raw text, so every shrink candidate is
  well-typed by construction too);
* :mod:`repro.fuzz.faults` — deliberately broken dialect variants used
  to prove the fuzzer finds (and shrinks) the bugs it was built for;
* :mod:`repro.fuzz.runner` — the ``repro fuzz`` loop and the
  ``--corpus-scale`` emitter for driver/store stress runs.
"""

from repro.fuzz.gen import GenConfig, ProgramSpec, Rendered, generate, render
from repro.fuzz.oracle import DiffResult, Mismatch, Outcome, run_differential
from repro.fuzz.runner import Finding, FuzzReport, emit_corpus, fuzz
from repro.fuzz.shrink import shrink

__all__ = [
    "DiffResult",
    "Finding",
    "FuzzReport",
    "GenConfig",
    "Mismatch",
    "Outcome",
    "ProgramSpec",
    "Rendered",
    "emit_corpus",
    "fuzz",
    "generate",
    "render",
    "run_differential",
    "shrink",
]
