"""Shared helpers for the benchmark harness.

Every bench regenerates one of the paper's tables/figures: it runs the
experiment exactly once under ``pytest-benchmark`` (the timing is the
scheduler runtime the paper discusses) and prints the paper-style rows
so `pytest benchmarks/ --benchmark-only -s` reproduces the evaluation
section end to end.

Telemetry: :func:`run_once` appends each run's wall time, energy, miss
count and git revision to ``BENCH_<name>.json`` in the repository root
via :class:`repro.obs.benchstore.BenchStore` — the persistent perf
trajectory future optimisation PRs are measured against.  Set
``REPRO_BENCH_DIR`` to redirect the store (``off`` disables it), and
pass ``--bench-check`` to fail any benchmark that runs >10 % slower
than its stored median.  A/B benches time their two sides with
:func:`warm_ab` (interleaved warm pairs, or one cold pass each for the
smoke points).

Scale: benchmarks default to 150-task random graphs (the paper uses
~500).  Set ``REPRO_FULL=1`` to run at full paper scale.
"""

from __future__ import annotations

import os
import time
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

import pytest

from repro.obs.benchstore import BenchRun, BenchStore
from repro.parallel.pool import resolve_jobs

_CONFIG = None


def pytest_addoption(parser):
    parser.addoption(
        "--bench-check",
        action="store_true",
        default=False,
        help="fail benchmarks that run >10%% slower than their stored median",
    )


def pytest_configure(config):
    global _CONFIG
    _CONFIG = config


def run_once(benchmark, fn):
    """Run an experiment exactly once under the benchmark fixture.

    Also records the run into the persistent bench store (wall time plus
    whatever energy/miss telemetry the result carries) and, under
    ``--bench-check``, fails on a >10 % wall-time regression against the
    stored median.
    """
    timing: Dict[str, float] = {}

    def timed():
        started = time.perf_counter()
        result = fn()
        timing["wall"] = time.perf_counter() - started
        return result

    result = benchmark.pedantic(timed, rounds=1, iterations=1, warmup_rounds=0)
    _record(benchmark.name, timing.get("wall"), result)
    return result


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
    side: smoke benches use it so the total wall :func:`run_once`
    records stays the one pass per side their stored baselines measured.
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


def _record(test_name: str, wall: Optional[float], result: Any) -> None:
    if wall is None:
        return
    store = BenchStore.from_env()
    if store is None:
        return
    name = test_name[len("test_"):] if test_name.startswith("test_") else test_name
    # CPU-cohorted gate: only compare against medians measured on a host
    # with the same cpu_count, so a 1-CPU CI container and a many-core
    # workstation never gate (or "improve") each other's baselines.
    cpu_count = os.cpu_count()
    check = store.check(name, wall, cpu_count=cpu_count)
    energy, misses, extra = _telemetry_from_result(result)
    store.append(
        BenchRun(
            name=name,
            wall_seconds=wall,
            energy_nJ=energy,
            misses=misses,
            cpu_count=cpu_count,
            jobs=resolve_jobs(None),
            extra=extra,
        )
    )
    if _CONFIG is not None and _CONFIG.getoption("--bench-check", default=False):
        print(check.describe())
        if check.regressed:
            pytest.fail(f"benchmark regression: {check.describe()}", pytrace=False)


def _telemetry_from_result(result: Any) -> Tuple[Optional[float], Optional[int], Dict[str, Any]]:
    """(total energy, total misses, per-scheduler extras) from a result.

    Understands :class:`~repro.evalx.experiments.ExperimentRow` objects
    and (nested) lists/tuples of them, plus plain dicts (recorded
    verbatim as ``extra``, with optional ``energy_nJ`` / ``misses`` keys
    lifted into the headline columns — how ``bench_scaling`` ships its
    per-size speedup telemetry); anything else records wall time only.
    Energy/misses prefer the ``eas`` column when present.
    """
    if isinstance(result, dict):
        extra = {k: v for k, v in result.items() if k not in ("energy_nJ", "misses")}
        return result.get("energy_nJ"), result.get("misses"), extra
    rows = list(_iter_rows(result))
    if not rows:
        return None, None, {}
    energy_totals: Dict[str, float] = {}
    miss_totals: Dict[str, int] = {}
    for row in rows:
        for scheduler, value in row.energies.items():
            if value == value:  # skip NaN (infeasible points)
                energy_totals[scheduler] = energy_totals.get(scheduler, 0.0) + value
        for scheduler, value in row.misses.items():
            miss_totals[scheduler] = miss_totals.get(scheduler, 0) + value
    primary = "eas" if "eas" in energy_totals else next(iter(sorted(energy_totals)), None)
    extra: Dict[str, Any] = {
        "rows": len(rows),
        "energy_by_scheduler": energy_totals,
        "misses_by_scheduler": miss_totals,
    }
    energy = energy_totals.get(primary) if primary else None
    misses = miss_totals.get(primary) if primary and primary in miss_totals else None
    return energy, misses, extra


def _iter_rows(result: Any):
    if isinstance(result, (list, tuple)):
        for item in result:
            yield from _iter_rows(item)
    elif hasattr(result, "energies") and hasattr(result, "misses"):
        yield result


@pytest.fixture
def show():
    """Print through pytest's capture so -s (or failure) reveals tables."""

    def _show(text: str) -> None:
        print()
        print(text)

    return _show
