"""Run every workload of the benchmark, or compare result files.

    PYTHONPATH=src python -m benchmarks.e2e run --seed 0 --out A.json
    python -m benchmarks.e2e compare A.json B.json
    python -m benchmarks.e2e compare A1.json A2.json ... --vs B1.json B2.json ...

``run`` measures the workloads of ``BENCHMARK.json`` one after another,
each in its own fresh single-threaded process: first ``--trace 0`` (the
end-to-end metrics), then ``--trace 1`` (the per-layer split).  It prints
both tables and writes them, with each workload's schedule digest, to
``--out``.  ``compare`` prints one row per (workload, end-to-end metric)
with each side's median over its files, and exits 1 when B's median is
worse than A's by more than the metric's bound, when two results of the
same seed have different schedule digests, or when a run failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from benchmarks.e2e.run import ROOT, load_spec

HERE = Path(__file__).resolve().parent


def run_workload(
    workload: str, seed: int, seconds: float, trace: int, quick: bool, trace_out: Optional[str]
) -> Dict[str, Any]:
    """One ``run.py`` process; returns its result line plus its detail line."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    if quick:
        cmd.append("--quick")
    if trace_out:
        cmd += ["--trace-out", trace_out]
    # Keep the flight recorder and bench stores from writing into the checkout.
    env = dict(os.environ, REPRO_LEDGER="off", REPRO_BENCH_DIR="off")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        detail = json.loads(next(line[len("detail "):] for line in lines if line.startswith("detail ")))
    except (IndexError, StopIteration, json.JSONDecodeError):
        raise SystemExit(f"{workload}: run.py exited {proc.returncode} without a result") from None
    result["detail"] = detail
    return result


def _table(title: str, rows: List[str], columns: Dict[str, Dict[str, float]], units: Dict[str, str]) -> str:
    names = list(columns)
    lines = [f"== {title}", f"{'metric':34s} {'unit':8s}" + "".join(f"{n:>18s}" for n in names)]
    for row in rows:
        cells = "".join(f"{columns[n].get(row, float('nan')):>18.6g}" for n in names)
        lines.append(f"{row:34s} {units[row]:8s}{cells}")
    return "\n".join(lines)


def cmd_run(args: argparse.Namespace) -> int:
    spec = load_spec()
    seconds = 0 if args.quick else spec["run_seconds"]
    if args.trace_out:
        Path(args.trace_out).mkdir(parents=True, exist_ok=True)
    results: Dict[str, Any] = {}
    for workload in (w["name"] for w in spec["workloads"]):
        print(f"-- {workload}", file=sys.stderr, flush=True)
        trace_out = str(Path(args.trace_out) / f"{workload}.trace.json") if args.trace_out else None
        plain = run_workload(workload, args.seed, seconds, 0, args.quick, None)
        traced = run_workload(workload, args.seed, seconds, 1, args.quick, trace_out)
        results[workload] = {
            "correct": plain["correct"] and traced["correct"],
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"],
            "digest": plain["detail"].get("digest"),
            "end_to_end": {k: v["value"] for k, v in plain["metrics"].items()},
            "per_layer": traced["detail"].get("layers", {}),
            "detail": plain["detail"],
        }
        if traced["detail"].get("digest") != plain["detail"].get("digest"):
            results[workload]["correct"] = False
    document = {
        "seed": args.seed,
        "seconds": seconds,
        "quick": args.quick,
        "nproc": os.cpu_count(),
        "workloads": results,
    }
    for key, title in (("end_to_end", "end-to-end"), ("per_layer", "per-layer (traced pass)")):
        units = {m["name"]: m["unit"] for m in spec[key]}
        columns = {w: r[key] for w, r in results.items()}
        # The per-layer table also shows the self times BENCHMARK.json leaves out.
        rows = list(dict.fromkeys(name for column in columns.values() for name in column))
        for name in rows:
            units.setdefault(name, "s" if name.endswith("_s") else "count")
        print(_table(f"{title} metrics, seed {args.seed}", rows, columns, units))
    for workload, result in results.items():
        print(f"{workload}: digest {str(result['digest'])[:16]}  correct={result['correct']}  "
              f"failed {result['failed']}/{result['attempted']}")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return 0 if all(r["correct"] for r in results.values()) else 1


def compare(a: List[Dict[str, Any]], b: List[Dict[str, Any]], spec: Dict[str, Any]) -> List[str]:
    """Table rows for the B results against the A results (medians over
    each side's files); the failing rows start with ``!``."""
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        sides = {"A": a, "B": b}
        results = {side: [doc["workloads"].get(workload) for doc in docs] for side, docs in sides.items()}
        if any(r is None for side in results.values() for r in side):
            rows.append(f"! {workload:16s} missing from a result file")
            continue
        digests: Dict[int, set] = {}
        for side, docs in sides.items():
            for doc, result in zip(docs, results[side]):
                digests.setdefault(doc["seed"], set()).add(result["digest"])
                if not result["correct"]:
                    failed = f"{result['failed']}/{result['attempted']}"
                    rows.append(f"! {workload:16s} a run of {side} failed {failed} ops")
        for seed, seen in sorted(digests.items()):
            if len(seen) > 1:
                rows.append(f"! {workload:16s} seed {seed}: schedule digests differ")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            va = statistics.median(r["end_to_end"][name] for r in results["A"])
            vb = statistics.median(r["end_to_end"][name] for r in results["B"])
            change = (vb - va) / va
            worse = change if metric["better"] == "lower" else -change
            verdict = "WORSE" if worse > bound else ("better" if worse < -bound else "ok")
            rows.append(
                f"{'!' if verdict == 'WORSE' else ' '} {workload:16s} {name:20s} {va:>14.6g} {vb:>14.6g} "
                f"{100 * change:>+8.2f}% {100 * bound:>6.1f}%  {verdict}"
            )
    return rows


def cmd_compare(args: argparse.Namespace) -> int:
    if args.vs:
        paths_a, paths_b = args.files, args.vs
    elif len(args.files) == 2:
        paths_a, paths_b = args.files[:1], args.files[1:]
    else:
        raise SystemExit("compare: give A.json B.json, or A files --vs B files")
    a, b = ([json.loads(Path(p).read_text()) for p in paths] for paths in (paths_a, paths_b))
    rows = compare(a, b, load_spec())
    header = f"{'A':>14s} {'B':>14s} {'change':>9s} {'bound':>7s}"
    print(f"  {'workload':16s} {'metric':20s} {header}  verdict   (medians of {len(a)} vs {len(b)} files)")
    print("\n".join(rows))
    return 1 if any(row.startswith("!") for row in rows) else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="measure every workload")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--quick", action="store_true", help="first input of each workload, fewest reps")
    run.add_argument("--out", help="write the results here as JSON")
    run.add_argument("--trace-out", help="directory for one Chrome trace per workload")
    run.set_defaults(func=cmd_run)
    cmp = sub.add_parser("compare", help="check B against A within the bounds")
    cmp.add_argument("files", nargs="+", help="A.json B.json, or the A files when --vs is given")
    cmp.add_argument("--vs", nargs="+", help="the B files")
    cmp.set_defaults(func=cmd_compare)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
