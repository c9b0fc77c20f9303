"""Regenerate the frozen generated-program pool under ``inputs/gen/``.

The benchmark never calls the generator at run time: it reads the
committed ``gNN.dml`` files and ``truths.json``, so a later change to
``repro.fuzz.gen`` cannot change what the benchmark feeds the checker.
Run this only to rebuild the pool deliberately (and then treat the
change as a new benchmark baseline)::

    PYTHONPATH=src python3 benchmarks/e2e/make_inputs.py

The known answer for each program is the generator's by-construction
``SiteTruth`` list: how many access sites it rendered and how many of
them are eliminable.  It comes from the template library, not from the
checker under test.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.fuzz.gen import GenConfig, generate_rendered

POOL_SIZE = 64
CONFIG = GenConfig(decls=6, depth=24)
OUT = Path(__file__).resolve().parent / "inputs" / "gen"


def main() -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    truths = {
        "config": {"decls": CONFIG.decls, "depth": CONFIG.depth},
        "programs": {},
    }
    for i in range(POOL_SIZE):
        seed_key = f"bench:{i}"
        rendered = generate_rendered(seed_key, CONFIG)
        name = f"g{i:02d}"
        (OUT / f"{name}.dml").write_text(rendered.source)
        truths["programs"][name] = {
            "seed_key": seed_key,
            "sites": len(rendered.truths),
            "eliminable": sum(1 for t in rendered.truths if t.eliminable),
        }
    (OUT / "truths.json").write_text(json.dumps(truths, indent=1) + "\n")
    print(f"wrote {POOL_SIZE} programs to {OUT}")


if __name__ == "__main__":
    main()
