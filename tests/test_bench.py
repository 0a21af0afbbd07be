"""Smoke run of the benchmark harness, whose trace hooks reach into the library."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_bench(*args):
    """bench/run.py with args from the repository root: its result object."""
    proc = subprocess.run([sys.executable, "bench/run.py", *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout[-2000:]
    assert result["failed"] == 0
    return result


def test_untraced_train_plain_run_is_correct():
    # the path the end-to-end metrics come from; seed 0 is pinned in
    # bench/reference.json, so the outputs are checked too
    result = run_bench("--workload", "train-plain", "--seed", "0", "--seconds", "1",
                       "--trace", "0")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"]]
    assert len(names) == 7
    assert all(name in result["metrics"] for name in names), sorted(result["metrics"])


def test_traced_train_full_run_is_correct():
    # --trace 1 patches Tape.backward (and reads tape.grads), isw.kmeans_1d
    # (called with three positional arguments) and net.lambda1/lambda2;
    # seed 0 is pinned in bench/reference.json, so the outputs are checked too
    result = run_bench("--workload", "train-full", "--seed", "0", "--seconds", "1",
                       "--trace", "1")
    # a conv the tracer cannot name by its layer reads 0 here, not an error
    convs = [(name, m["value"]) for name, m in result["metrics"].items()
             if name.startswith("tensor.conv2d.") and name.endswith(("fwd_ms", "bwd_ms"))]
    assert len(convs) == 22
    assert all(value > 0 for _, value in convs), convs
