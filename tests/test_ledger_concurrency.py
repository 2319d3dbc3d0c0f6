"""Stress: the ledger's lockfile must never let a rewrite drop an append."""

import multiprocessing
import os
import time

import pytest

from repro.obs.ledger import RunLedger, exclusive_lock, prune_ledger, read_ledger

#: writers x appends-per-writer for the multi-process stress test.
N_WRITERS = 6
N_APPENDS = 4
#: full-ledger rewrites the pruner races against the writers.
N_PRUNES = 10


def _append(path: str, writer: int) -> None:
    """Worker entry: append N_APPENDS records under one run id."""
    ledger = RunLedger(path, run_id=f"w{writer}")
    for i in range(N_APPENDS):
        ledger.phase("cell", writer=writer, i=i)
    assert ledger.io_errors == 0


def _prune(path: str) -> None:
    """Worker entry: rewrite the whole ledger, keeping every run."""
    for _ in range(N_PRUNES):
        prune_ledger(path, keep=N_WRITERS + 1)


class TestConcurrentAppend:
    def test_multiprocess_stress(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        RunLedger(path, run_id="seed").phase("start")
        ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        )
        workers = [ctx.Process(target=_prune, args=(str(path),))]
        workers += [
            ctx.Process(target=_append, args=(str(path), writer))
            for writer in range(N_WRITERS)
        ]
        for proc in workers:
            proc.start()
        for proc in workers:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        records = read_ledger(path)
        # Every append survived the concurrent rewrites: none was lost
        # between a prune's read and its replace.
        seen = {(r["writer"], r["i"]) for r in records if r.get("name") == "cell"}
        assert len(seen) == N_WRITERS * N_APPENDS
        assert len(records) == N_WRITERS * N_APPENDS + 1
        # No lock or temp litter left behind.
        assert [p.name for p in tmp_path.iterdir()] == ["ledger.jsonl"]

    def test_single_process_append_still_works(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = RunLedger(path, run_id="solo")
        for i in range(3):
            ledger.phase("cell", i=i)
        assert [r["i"] for r in read_ledger(path)] == [0, 1, 2]
        assert [p.name for p in tmp_path.iterdir()] == ["ledger.jsonl"]

    def test_stale_lock_is_broken(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        lock = path.with_suffix(path.suffix + ".lock")
        lock.write_text("424242\n")
        # Age the lock far past LOCK_TIMEOUT_SECONDS: a dead writer's
        # leftover must not wedge the ledger.
        old = time.time() - 100
        os.utime(lock, (old, old))
        ledger = RunLedger(path)
        ledger.phase("after-crash")
        assert ledger.io_errors == 0
        assert len(read_ledger(path)) == 1
        assert not lock.exists()

    def test_held_lock_times_out(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        lock = path.with_suffix(path.suffix + ".lock")
        lock.write_text("1\n")  # fresh lock, held by a "live" writer
        with pytest.raises(TimeoutError, match="still held"):
            with exclusive_lock(path, timeout=0.3):
                pass
        lock.unlink()
