"""Shared helpers for the benchmark harness.

Every bench regenerates one of the paper's tables/figures: it runs the
experiment exactly once under ``pytest-benchmark`` (the timing is the
scheduler runtime the paper discusses) and prints the paper-style rows
so `pytest benchmarks/ --benchmark-only -s` reproduces the evaluation
section end to end.  A/B benches time their two sides with
:func:`warm_ab` (interleaved warm pairs, or one cold pass each for the
smoke points).  Wall-time regressions are gated by the end-to-end
benchmark (``benchmarks/e2e``), not here.

Scale: benchmarks default to 150-task random graphs (the paper uses
~500).  Set ``REPRO_FULL=1`` to run at full paper scale.
"""

from __future__ import annotations

import time
from typing import Any, Callable, List, NamedTuple

import pytest


def run_once(benchmark, fn):
    """Run an experiment exactly once under the benchmark fixture."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


class WarmAB(NamedTuple):
    """What :func:`warm_ab` measured of an A/B pair of callables."""

    result_a: Any
    result_b: Any
    #: each side's best wall seconds over the timed pairs.
    best_a: float
    best_b: float

    @property
    def speedup(self) -> float:
        """A's best time over B's."""
        return self.best_a / self.best_b


def warm_ab(run_a: Callable[[], Any], run_b: Callable[[], Any], pairs: int = 5) -> WarmAB:
    """Time an A/B comparison as interleaved warm pairs.

    One untimed pair warms both sides up; then ``pairs`` timed pairs
    alternate which side goes first.  Each side keeps its best time and
    its last call's result.  ``pairs=0`` is one cold, timed call per
    side: the smoke benches use it to stay quick.
    """
    sides = (run_a, run_b)
    results = [run_a(), run_b()] if pairs else [None, None]
    times: List[List[float]] = [[], []]
    for pair in range(max(pairs, 1)):
        for side in ((0, 1) if pair % 2 == 0 else (1, 0)):
            started = time.perf_counter()
            results[side] = sides[side]()
            times[side].append(time.perf_counter() - started)
    return WarmAB(results[0], results[1], min(times[0]), min(times[1]))


@pytest.fixture
def show():
    """Print through pytest's capture so -s (or failure) reveals tables."""

    def _show(text: str) -> None:
        print()
        print(text)

    return _show
