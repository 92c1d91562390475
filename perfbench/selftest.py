"""Tests of the benchmark harness itself (not part of the library's suite).

    python3 -m pytest -q perfbench/selftest.py

They use zero-second runs: one counting pass plus the minimum number of
timed passes.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

COUNT_METRICS = [name for name, unit in tracing.LAYER_METRICS if unit in ("count", "ratio")]


def _varieties(workload):
    lib, varieties, _ = run.setup(workload, run.Speed())
    return varieties


def test_same_seed_gives_same_inputs():
    for workload in workloads.WORKLOADS:
        varieties = _varieties(workload)
        first = workloads.make_inputs(workload, 3, varieties)
        assert first == workloads.make_inputs(workload, 3, varieties)
        assert first != workloads.make_inputs(workload, 4, varieties)


def test_deep_inputs_include_the_anchors():
    inputs = workloads.make_inputs("deep-cohomology", 7, _varieties("deep-cohomology"))
    assert set(workloads.ANCHORS) <= set(inputs)
    assert len(set(inputs)) == len(inputs)


def test_tail_percentile_leaves_ten_samples_beyond():
    assert run.tail(list(range(45))) == (33, "75")
    assert run.tail(list(range(70))) == (55, "80")
    assert run.tail(list(range(416)))[1] == "95"


def test_two_traced_runs_give_identical_counts():
    a = run.Run("oracle-scan", 2, 0, True).execute()
    b = run.Run("oracle-scan", 2, 0, True).execute()
    assert a["detail"]["counts"] == b["detail"]["counts"]
    assert a["detail"]["counts"]["evaluations_per_op"] > 1
    for name in COUNT_METRICS:
        assert a["result"]["metrics"][name] == b["result"]["metrics"][name], name
    assert a["result"]["correct"] and b["result"]["correct"]


def _flaky(raise_on, corrupt_on, corrupt_first_pass):
    """op_region, except that one input always raises and another returns
    a corrupted SVG (from the first call, or from the second call on).  The
    sidecar stays intact, so only the byte comparisons can notice."""
    calls = {}

    def operation(lib, X, n_min):
        out = workloads.op_region(lib, X, n_min)
        key = (X.name, n_min)
        calls[key] = calls.get(key, 0) + 1
        if key == raise_on:
            raise RuntimeError("injected failure")
        if key == corrupt_on and (corrupt_first_pass or calls[key] > 1):
            return out.replace(b'r="4"', b'r="5"')
        return out

    return operation


def _run_with(operation, seed):
    r = run.Run("region-grid", seed, 0, False)
    r.operation = operation
    return r.execute()


def test_raising_and_corrupted_operations_are_counted():
    inputs = workloads.make_inputs("region-grid", 5, _varieties("region-grid"))
    out = _run_with(_flaky(inputs[3], inputs[10], False), 5)
    detail, result = out["detail"], out["result"]
    passes = detail["passes"]
    m = len(inputs)
    assert result["attempted"] == m * (1 + passes)
    # input 3 fails every time; input 10 on every timed pass
    assert result["failed"] == (1 + passes) + passes
    assert result["correct"] is False
    assert detail["error_rate"] == result["failed"] / result["attempted"]
    assert result["metrics"]["success_rate"]["value"] == 1 - detail["error_rate"]
    assert detail["latency_samples"] == m - 2  # the run went on with the rest


def test_default_seed_digests_catch_corrupted_bytes():
    inputs = workloads.make_inputs("region-grid", run.DEFAULT_SEED, _varieties("region-grid"))
    out = _run_with(_flaky(None, inputs[20], True), run.DEFAULT_SEED)
    passes = out["detail"]["passes"]
    assert out["result"]["failed"] == 1 + passes
    assert "recorded digest" in out["detail"]["failures"][0]


def test_exits_nonzero_without_the_library():
    bare = os.path.join(run.OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "perfbench"))
    try:
        for name in ("run.py", "tracing.py", "workloads.py", "reference.json"):
            shutil.copy(os.path.join(HERE, name), os.path.join(bare, "perfbench", name))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "region-grid",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode != 0
        assert proc.stdout == ""
    finally:
        shutil.rmtree(bare)
