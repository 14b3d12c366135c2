"""Self-test of the benchmark: every workload at minimal size.

Runs ``perfbench/run.py`` the way a benchmark harness runs it, from the
repository root, with ``--seconds 1`` (one repetition, the smallest
traffic).  It checks three things.  Every metric of ``BENCHMARK.json``
is printed by name with its unit.  No operation failed, so
``error_rate`` is its floor, 1 / (attempted + 2).  No process and no
``/dev/shm`` segment is left behind.  Takes a few minutes; the first
search run in a checkout also pretrains the baseline.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Layers each workload must enter, and layers it must leave alone.
ENTERED = {
    "search": ["probe.rounds", "recover.epochs", "checkpoint.saves",
               "kernel.conv2d_backward.calls"],
    "search_pool": ["probe.rounds", "fanout.rounds", "ddp.busy_s",
                    "pool.broadcast_s"],
    "serve": ["engine.batches", "kernel.int_gemm.calls", "compile.busy_s"],
}
IDLE = {
    "search": ["fanout.rounds", "ddp.busy_s", "engine.batches"],
    "search_pool": ["engine.batches", "kernel.int_gemm.calls"],
    "serve": ["probe.rounds", "fanout.rounds", "checkpoint.saves"],
}


def _ours() -> set:
    """Live processes started from the benchmark or the program's pool."""
    found = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            cmdline = Path("/proc", entry, "cmdline").read_bytes()
            state = Path("/proc", entry, "stat").read_text().rsplit(")", 1)[1].split()[0]
        except OSError:
            continue
        if state != "Z" and (b"perfbench" in cmdline or b"multiprocessing" in cmdline):
            found.add(int(entry))
    return found


def _shm() -> set:
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


def _bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=900,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_every_metric_and_leaves_nothing(workload, trace):
    before, shm_before = _ours(), _shm()
    proc = _bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1

    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    table = "\n".join(lines[:-1])
    for metric in expected:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], float)
        assert f"{metric['name']} " in table and f" {metric['unit']}" in table

    if trace:
        values = {k: v["value"] for k, v in result["metrics"].items()}
        assert all(values[name] > 0 for name in ENTERED[workload]), values
        assert all(values[name] == 0 for name in IDLE[workload]), values
        assert "unaccounted" in table and "covered" in table
    else:
        error_rate = result["metrics"]["error_rate"]["value"]
        assert error_rate == pytest.approx(1 / (result["attempted"] + 2))
        assert "stamp " in table and "n=" in table

    assert _ours() <= before
    assert _shm() <= shm_before


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("search", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
