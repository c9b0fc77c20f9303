"""Binary search (Figure 3): check elimination through div and
branch refinement.

The interesting obligation is that the midpoint m = lo + (hi-lo) div 2
stays inside the array.  Proving it needs three ingredients working
together:

* look's `where` annotation bounds lo and hi by the array size;
* the `if hi >= lo` branch contributes its test as a hypothesis
  (singleton booleans);
* the solver eliminates `div 2` with a fresh quotient variable
  (2q <= h-l <= 2q+1).

Run:  python examples/binary_search.py
"""

import random

from repro import api
from repro.eval.interp import Interpreter


def main() -> None:
    report = api.check_corpus("bsearch")
    print(report.summary())
    print()

    print("The Figure 4 constraints (regenerated; all involve the")
    print("midpoint expression l + (h - l) div 2):")
    store = report.elab.store
    for result in report.goal_results:
        text = result.goal.text(store)
        if "div" in text:
            print(f"  [{'solved' if result.proved else 'UNSOLVED'}] {text}")
    print()

    # Run a search workload and observe zero checked accesses.
    interp = Interpreter(report.program, report.eliminable_sites(),
                         env=report.env)
    rng = random.Random(7)
    arr = sorted(rng.sample(range(10_000), 500))
    keys = [rng.randrange(10_000) for _ in range(200)]
    hits = interp.call("bsearch_all", (arr, keys))
    expected = sum(1 for k in keys if k in set(arr))
    print(f"bsearch_all over {len(keys)} probes: {hits} hits "
          f"(expected {expected})")
    print(f"  bound checks performed:  {interp.stats.bound_checks_performed}")
    print(f"  bound checks eliminated: {interp.stats.bound_checks_eliminated}")
    assert hits == expected
    assert interp.stats.bound_checks_performed == 0


if __name__ == "__main__":
    main()
