"""Smoke test of the benchmark itself, on a tiny mesh for a few steps.

    python3 -m pytest -q perfbench

For each workload it runs the benchmark untraced and traced, and checks
the result line against BENCHMARK.json: every named metric is printed
once with its unit, counts are non-negative integers, and the spans of
the traced repeat nest so that self time plus child time equals each
span's duration, and the layer self times account for the traced wall.
"""

import json
import os
import subprocess
import sys
from collections import defaultdict

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
COUNT_UNITS = ("count", "B")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", "5", "--seconds", "0", "--trace", str(trace),
         "--smoke"], cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def check_result(last_line, result, expected):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        assert last_line.count('"%s":' % m["name"]) == 1, m["name"]
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        if m["unit"] in COUNT_UNITS:
            assert isinstance(got["value"], int) and got["value"] >= 0, m


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end(workload):
    lines, result = bench(workload, 0)
    check_result(lines[-1], result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced(workload):
    lines, result = bench(workload, 1)
    check_result(lines[-1], result, SPEC["per_layer"])
    records = [json.loads(line) for line in lines[:-1]]
    (traced,) = [r for r in records if "spans_file" in r]
    with open(traced["spans_file"], encoding="utf-8") as fh:
        dump = json.load(fh)
    spans = {s[0]: s for s in dump["spans"]}
    kids = defaultdict(list)
    for sid, _name, t0, t1, parent, tid in spans.values():
        if parent is not None:
            p = spans[parent]
            assert p[5] == tid
            assert p[2] <= t0 <= t1 <= p[3]
            kids[parent].append(t1 - t0)
    own = {sid: (s[3] - s[2]) - sum(kids[sid]) for sid, s in spans.items()}
    for sid, s in spans.items():
        assert own[sid] >= -1e-9
        assert abs(own[sid] + sum(kids[sid]) - (s[3] - s[2])) <= 1e-9

    # wall = startup + self time of every span on the main thread
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    main_self = sum(own[sid] for sid, s in spans.items()
                    if s[5] == dump["main_thread"])
    wall = metrics["trace.wall_s"]
    assert abs(metrics["trace.startup_s"] + main_self - wall) <= 1e-6
    layer_self = sum(metrics[k] for k in (
        "stepper.lu_factor_s", "stepper.lu_solve_s", "stepper.self_s",
        "stepper.other_self_s", "graphs.self_s", "diskfem.self_s",
        "diagnostics.self_s", "cli.self_s", "trace.unaccounted_s"))
    assert abs(layer_self - metrics["trace.worker_busy_s"]
               + metrics["trace.startup_s"] - wall) <= 1e-6
    shares = [v for k, v in metrics.items() if k.startswith("share.")]
    assert abs(sum(shares) - 100.0) <= 1e-6
