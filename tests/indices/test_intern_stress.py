"""Thread-stress test of the intern table.

Lookups that hit take no lock, and a node's death callback removes its
entry concurrently with lookups and publications.  Eight threads, under
a tiny switch interval, race to build the same new terms round after
round, and between rounds build and drop terms over shared leaves, with
periodic collections.  Afterwards every content must have had one node,
every construction must have been counted once, and the table must hold
exactly the nodes still referenced.

The threads build through a private :class:`InternTable` (the same
``canonical`` the metaclass calls on the process-wide table), so nodes
that other code drops meanwhile cannot move its counts.
"""

import gc
import random
import sys
import threading
import time

from repro.indices import terms
from repro.indices.intern import InternTable
from repro.indices.terms import BinOp, Cmp, IVar, Not

THREADS = 8
SHAPES = 48
ROUNDS = 300
DEADLINE_S = 10.0
TIMEOUT_S = 60.0
LEAVES = [f"x{k}" for k in range(6)]


def random_shape(rng: random.Random, depth: int = 3) -> tuple:
    """A term as nested tuples, so each thread constructs it itself."""
    if depth == 0 or rng.random() < 0.25:
        return ("var", rng.choice(LEAVES))
    roll = rng.random()
    if roll < 0.6:
        return ("binop", rng.choice("+-*"), random_shape(rng, depth - 1),
                random_shape(rng, depth - 1))
    if roll < 0.9:
        return ("cmp", rng.choice(("<", "<=", "=")), random_shape(rng, depth - 1),
                random_shape(rng, depth - 1))
    return ("not", random_shape(rng, depth - 1))


def build(table: InternTable, shape: tuple, built: list[int],
          suffix: str = "") -> terms.IndexTerm:
    """Construct ``shape`` in ``table``, appending ``suffix`` to its
    variable names: one intern lookup per node, counted in ``built``."""
    kind = shape[0]
    if kind == "var":
        cls, args = IVar, (shape[1] + suffix,)
    elif kind == "not":
        cls, args = Not, (build(table, shape[1], built, suffix),)
    else:
        cls = BinOp if kind == "binop" else Cmp
        args = (shape[1], build(table, shape[2], built, suffix),
                build(table, shape[3], built, suffix))
    built[0] += 1
    return table.canonical(cls, args, {})


def reachable(roots) -> int:
    """The number of distinct nodes under ``roots``."""
    seen: dict[int, terms.IndexTerm] = {}
    for root in roots:
        for node in terms.subterms(root):
            seen[id(node)] = node
    return len(seen)


def test_concurrent_interning_keeps_one_node_per_content():
    rng = random.Random(1515)
    table = InternTable()
    shapes = [random_shape(rng) for _ in range(SHAPES)]
    results: list[list] = [[None] * THREADS for _ in range(ROUNDS)]
    built = [[0] for _ in range(THREADS)]
    errors: list[BaseException] = []
    deadline = time.monotonic() + DEADLINE_S
    state = {"stop": False}

    def at_round_start() -> None:
        # Runs once per round, before any thread is released, so every
        # thread sees the same decision.
        state["stop"] = time.monotonic() > deadline

    barrier = threading.Barrier(THREADS, action=at_round_start)

    def worker(index: int) -> None:
        local = random.Random(index)
        try:
            for round_ in range(ROUNDS):
                barrier.wait(timeout=TIMEOUT_S)
                if state["stop"]:
                    break
                # Every node of this round is new (round-specific leaf
                # names), so all threads race to publish each one.
                shape = shapes[round_ % SHAPES]
                results[round_][index] = build(
                    table, shape, built[index], f"_{round_}")
                # Churn: a term over the shared leaves, dropped at once.
                build(table, shapes[local.randrange(SHAPES)], built[index])
                if index == 0 and round_ % 25 == 0:
                    gc.collect()
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)
            barrier.abort()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=TIMEOUT_S)
    finally:
        sys.setswitchinterval(interval)

    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    # Every construction was counted exactly once, as a hit or a miss.
    assert table.hits + table.misses == sum(b[0] for b in built)
    # All threads got the same node for the same content.
    done = [row for row in results if row[0] is not None]
    assert len(done) >= 20
    for row in done:
        assert all(node is row[0] for node in row)
    # Once dropped terms are collected, the table holds exactly the
    # nodes the kept terms still reference.
    kept = [row[0] for row in done[::4]]
    del done, row
    results.clear()
    gc.collect()
    assert table.live == reachable(kept)
    kept.clear()
    gc.collect()
    assert table.live == 0
