"""Run one workload of the end-to-end benchmark and print its result.

    python3 benchmarks/e2e/run.py --workload eas-cat1-6x6 --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the ``end_to_end`` metrics of ``BENCHMARK.json``:
the workload is set up ``SETUPS`` times, then one caller runs its ops in a
closed loop, round-robin over the inputs, for ``--seconds`` (and at least
two full passes).  ``--trace 1`` measures the ``per_layer`` metrics: an
untraced and a traced closed loop of half the time each, the traced one
with every layer's entry points wrapped by :class:`LayerTracer`.

Timings are *calibrated seconds*.  A shared host changes speed by 10-50%
from one second to the next, and every op slows with it.  So the run
times a fixed pure-Python kernel (:func:`calibration_sample`) right
before and right after each op and each set-up, and every
``SAMPLE_EVERY_S`` while it runs (on ``SIGALRM``; those samples' own
time is taken out), and scales the op's time by ``CALIB_REF_S`` over the
mean kernel time: the time the op would take on a host whose kernel time
is ``CALIB_REF_S``.  An input's op time is the median of its reps.  The
kernel never calls the program, so a change to the program moves
calibrated times exactly as it moves raw ones.  Raw times are in the
``detail`` line.

Every op's output is checked (see ``workloads.py``), reps of one input
must return identical schedules, and the traced loop must return the
untraced loop's schedules.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it starts with ``detail `` and carries the
digest, schedule quality and raw times.  The exit code is 1 when any op
or check failed, 2 when the checkout lacks the program or
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[2]
#: set-ups per ``--trace 0`` run; ``setup_s`` is their median.
SETUPS = 5
#: kernel seconds on the host the README's baselines come from.
CALIB_REF_S = 3.0e-3
#: one kernel sample per this much time while an op or set-up runs.
SAMPLE_EVERY_S = 0.05


def load_spec() -> Dict[str, Any]:
    """``BENCHMARK.json``: the workload and metric names the runner emits."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b


def calibration_sample() -> float:
    """Seconds for a fixed mix of what the scheduler does most in Python:
    attribute reads, tuple-keyed dict lookups, sorted inserts, a sort.

    The collector is off meanwhile: inside an op, a collection would scan
    the op's objects and bill the kernel for them (30% on the mean).
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table: Dict[tuple, float] = {}
        window: List[tuple] = []
        for i in range(3000):
            point = _Point(i & 63, i >> 6)
            key = (point.a, point.b)
            table[key] = table.get(key, 0.0) + point.a
            bisect.insort(window, (point.b, point.a))
            if len(window) > 64:
                del window[:32]
        sorted(table.items())
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def peak_rss_mb() -> float:
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss / 2**20 if sys.platform == "darwin" else rss / 1024  # bytes vs KiB


@dataclass
class Loop:
    """What one closed loop measured, per input."""

    #: calibrated and raw seconds of each rep.
    times: List[List[float]]
    walls: List[List[float]]
    #: the first op's outcome and registry counters of each input.
    outcomes: List[Any]
    counters: List[Dict[str, float]]
    #: per-op layer values (self times calibrated), traced loops only.
    layers: List[List[Dict[str, float]]]

    def typical(self, raw: bool = False) -> List[float]:
        """Per input, the median of its reps."""
        return [statistics.median(reps) for reps in (self.walls if raw else self.times)]

    @property
    def samples(self) -> int:
        return sum(len(reps) for reps in self.times)


@dataclass
class Runner:
    items: List[Any]
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    #: every kernel sample of the run, raw seconds.
    kernels: List[float] = field(default_factory=list)

    def fail(self, name: str, reason: str) -> None:
        self.failures.append(f"{name}: {reason}")
        print(f"FAILED {name}: {reason}", file=sys.stderr)

    def timed(self, fn: Callable[[], Any], tracer=None) -> Tuple[Any, float, float]:
        """``(fn(), raw seconds, calibrated seconds)``.

        Kernel samples are taken right before and right after ``fn`` and,
        on ``SIGALRM``, every ``SAMPLE_EVERY_S`` while it runs; the time
        of the samples inside is taken out of the raw seconds (and out of
        the tracer's layers), and the calibration uses the mean of all.
        """
        inside: List[float] = []
        spent = 0.0
        sampling = False

        def sample(signum, frame) -> None:
            nonlocal spent, sampling
            if sampling:  # the host stalled this sample past the next tick
                return
            sampling = True
            start = time.perf_counter()
            inside.append(calibration_sample())
            end = time.perf_counter()
            spent += end - start
            if tracer is not None:
                tracer.exclude(start, end)
            sampling = False

        before = calibration_sample()
        previous = signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            start = time.perf_counter()
            result = fn()
            wall = time.perf_counter() - start - spent
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        samples = [before, *inside, calibration_sample()]
        self.kernels += samples
        return result, wall, wall * CALIB_REF_S / statistics.fmean(samples)

    def run_op(self, item, tracer=None, spans_of: Optional[str] = None):
        """One timed op under a fresh metrics registry, then its check.

        Returns ``(wall, calibrated, outcome, counters, layers)``, or None
        when the op or its check failed (the failure is counted).
        """
        from repro import obs

        self.attempted += 1
        bundle = obs.Instrumentation.disabled()
        layers = None

        def op():
            nonlocal layers
            if tracer is None:
                return item.op()
            tracer.begin(spans_of)
            try:
                return item.op()
            finally:
                layers = tracer.end()

        try:
            with obs.activate(bundle):
                result, wall, calibrated = self.timed(op, tracer)
            counters = bundle.metrics.counter_values()
            outcome = item.check(result, counters)
        except Exception:  # an op or check failed: count it, keep measuring
            self.fail(item.name, traceback.format_exc())
            return None
        if layers is not None:
            scale = calibrated / wall
            layers = {k: v * scale if k.endswith("self_s") else v for k, v in layers.items()}
        return wall, calibrated, outcome, counters, layers

    def loop(self, seconds: float, min_passes: int, tracer=None) -> Loop:
        """Round-robin closed loop: next op only after the previous returns."""
        items = self.items
        n = len(items)
        loop = Loop([[] for _ in items], [[] for _ in items], [None] * n, [{} for _ in items],
                    [[] for _ in items])
        started = time.perf_counter()
        k = 0
        while k < min_passes * n or time.perf_counter() - started < seconds:
            index, item = k % n, items[k % n]
            k += 1
            measured = self.run_op(item, tracer)
            if measured is None:
                continue
            wall, calibrated, outcome, counters, layers = measured
            if loop.outcomes[index] is None:
                loop.outcomes[index] = outcome
                loop.counters[index] = counters
            elif outcome.digest != loop.outcomes[index].digest:
                self.fail(item.name, "reps of this input returned different schedules")
                continue
            loop.walls[index].append(wall)
            loop.times[index].append(calibrated)
            if layers is not None:
                loop.layers[index].append(layers)
        return loop


def end_to_end(items, loop: Loop, setups: List[float]) -> Dict[str, float]:
    tasks = sum(item.tasks for item in items)
    deadlines = sum(outcome.deadlines for outcome in loop.outcomes)
    return {
        "tasks_per_s": tasks / sum(loop.typical()),
        "op_p50_s": statistics.median(loop.typical()),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "energy_per_task_nJ": sum(outcome.energy for outcome in loop.outcomes) / tasks,
        "deadlines_met_frac": sum(outcome.met for outcome in loop.outcomes) / deadlines,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(plain: Loop, traced: Loop, runner: Runner) -> Dict[str, float]:
    """Per-layer values of one pass over the inputs.

    Call counts, sizes and registry counters are those of each input's
    first traced op (they repeat exactly); self times are each input's
    median over its traced reps, in calibrated seconds.  A layer's
    ``share`` is its self time over the traced pass time.
    """
    traced_s = sum(traced.typical())
    values: Dict[str, float] = {}
    for key in traced.layers[0][0]:
        if key.endswith(".self_s"):
            values[key] = sum(statistics.median(op[key] for op in reps) for reps in traced.layers)
            values[key[: -len("self_s")] + "share"] = values[key] / traced_s
        else:
            values[key] = sum(reps[0][key] for reps in traced.layers)
    totals: Dict[str, float] = {}
    for counters in traced.counters:
        for name, value in counters.items():
            totals[name] = totals.get(name, 0.0) + value

    def count(name: str) -> float:
        return totals.get(name, 0.0)

    probes = values["overlay.path_probe.calls"] + values["overlay.pe_probe.calls"]
    replayed, reused = count("repair.replayed_tasks"), count("repair.prefix_reused_tasks")
    candidates = count("repair.incremental_candidates")
    path_lookups = count("comm.path_cache_hits") + count("comm.path_cache_misses")
    values.update(
        {
            "eas.evaluations": count("eas.evaluations"),
            "eas.cache_hit_ratio": _ratio(
                count("eas.cache_hits"), count("eas.cache_hits") + count("eas.evaluations")
            ),
            "eas.invalidations": count("eas.cache_invalidations"),
            "comm.link_probes": count("comm.link_probes"),
            "comm.local_transfers": count("comm.local_transfers"),
            "overlay.path_cache_hit_ratio": _ratio(count("comm.path_cache_hits"), path_lookups),
            "overlay.horizon_skip_ratio": _ratio(count("comm.horizon_fast_path"), probes),
            "table.merge_intervals": count("comm.merge_intervals"),
            "rebuild.tasks_scheduled": count("rebuild.tasks_scheduled"),
            "increbuild.replayed_tasks": replayed,
            "increbuild.prefix_reuse_ratio": _ratio(reused, reused + replayed),
            "increbuild.abort_ratio": _ratio(count("repair.incremental_aborts"), candidates),
            "increbuild.frontier_probes": count("repair.frontier_probes"),
            "repair.rounds": count("repair.rounds"),
            "repair.candidates": candidates,
            "repair.accept_ratio": _ratio(
                count("repair.lts_moves") + count("repair.gtm_moves"), candidates
            ),
            "faults.salvaged_tasks": count("faults.salvaged_tasks"),
            "faults.rerun_tasks": count("faults.rerun_tasks"),
            "trace.wall_s": traced_s,
            "trace.overhead_frac": traced_s / sum(plain.typical()) - 1.0,
            "host.calib_s": statistics.median(runner.kernels),
            "samples": plain.samples + traced.samples,
        }
    )
    return values


def _emit(runner: Runner, declared, values: Dict[str, float], detail: Dict[str, Any]) -> int:
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared if values}
    for name, metric in metrics.items():
        print(f"  {name:32s} {metric['value']:>16.6g} {metric['unit']}")
    detail["failures"] = runner.failures[:5]
    print("detail " + json.dumps(detail))
    correct = not runner.failures
    result = {"correct": correct, "attempted": runner.attempted, "failed": len(runner.failures)}
    print(json.dumps(dict(result, metrics=metrics)))
    return 0 if correct else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--quick", action="store_true", help="first input only, 2 set-ups")
    parser.add_argument("--trace-out", help="write the first traced op's spans here (Chrome trace)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"run.py: {ROOT} holds no src/repro or no BENCHMARK.json", file=sys.stderr)
        return 2
    spec = load_spec()
    from benchmarks.e2e.trace import LayerTracer
    from benchmarks.e2e.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    declared = spec["per_layer" if args.trace else "end_to_end"]
    detail: Dict[str, Any] = {"workload": args.workload, "seed": args.seed, "nproc": os.cpu_count()}

    runner = Runner([])
    raw_setups: List[float] = []
    setups: List[float] = []
    items: Any = None
    for _ in range(1 if args.trace else (2 if args.quick else SETUPS)):
        items = None
        gc.collect()  # every set-up starts from the same collector state
        try:
            items, raw, calibrated = runner.timed(lambda: WORKLOADS[args.workload](args.seed))
        except Exception:  # the inputs could not be built: nothing to measure
            runner.attempted += 1
            runner.fail(args.workload, traceback.format_exc())
            return _emit(runner, declared, {}, detail)
        raw_setups.append(raw)
        setups.append(calibrated)
    runner.items = items = items[:1] if args.quick else items
    runner.run_op(items[0])  # warm-up, not measured

    if args.trace == 0:
        loop = runner.loop(args.seconds, min_passes=2)
        complete = all(loop.walls)
        values = end_to_end(items, loop, setups) if complete else {}
    else:
        loop = runner.loop(args.seconds / 2, min_passes=1)
        with LayerTracer() as tracer:
            if args.trace_out:  # an extra op whose every span is kept, not measured
                runner.run_op(items[0], tracer, spans_of=f"{args.workload}:{items[0].name}")
                Path(args.trace_out).write_text(tracer.chrome_trace())
            traced = runner.loop(args.seconds / 2, min_passes=1, tracer=tracer)
        for item, plain_outcome, traced_outcome in zip(items, loop.outcomes, traced.outcomes):
            if plain_outcome and traced_outcome and plain_outcome.digest != traced_outcome.digest:
                runner.fail(item.name, "tracing changed the schedule")
        complete = all(loop.walls) and all(traced.walls)
        values = per_layer(loop, traced, runner) if complete else {}
        # Every layer's values; BENCHMARK.json declares the subset that is
        # never a time of exactly 0 (see README.md, Per-layer metrics).
        detail["layers"] = values

    outcomes = [o for o in loop.outcomes if o is not None]
    detail.update(
        {
            "inputs": len(items),
            "samples": loop.samples,
            "digest": hashlib.sha256("".join(o.digest for o in outcomes).encode()).hexdigest(),
            "energy_nJ": sum(o.energy for o in outcomes),
            "deadline_misses": sum(o.deadlines - o.met for o in outcomes),
            "host.calib_s": statistics.median(runner.kernels),
            "raw_op_p50_s": statistics.median(loop.typical(raw=True)) if complete else None,
            "raw_pass_s": sum(loop.typical(raw=True)) if complete else None,
            "raw_setup_s": statistics.median(raw_setups),
        }
    )
    return _emit(runner, declared, values, detail)


if __name__ == "__main__":
    # Run as a script, sys.path[0] is this directory, whose trace.py would
    # shadow the standard library's; import through the package instead.
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    sys.exit(main())
