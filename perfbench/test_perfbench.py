"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
from spans import Tracer  # noqa: E402

COUNTS = (
    "series.mul_calls", "series.mul_full_calls", "series.mul_full_triples",
    "series.xonly_mul_calls", "series.newton_calls", "series.log_exp_calls",
    "engine.frame_calls", "engine.fsq_calls", "engine.riemann_calls",
    "volume.quadrature_directions", "classify.errored_states",
)


def traced(workload, seed):
    args = argparse.Namespace(workload=workload, seed=seed, seconds=1, trace=1)
    return run.worker(args, time.monotonic() + run.DEADLINE_S)


@pytest.mark.parametrize("workload", ["verify-identities", "bh-quadrature"])
def test_traced_counts_repeat_exactly(workload):
    first, second = traced(workload, 7), traced(workload, 7)
    assert first["per_state_counts"] == second["per_state_counts"]
    assert {k: first["layers"][k] for k in COUNTS} == {
        k: second["layers"][k] for k in COUNTS}
    assert first["layers"]["series.mul_full_calls"] > 0


def test_self_time_subtracts_children_and_same_name_nesting_counts_once():
    tracer = Tracer(lib=None)
    tracer.spans = [
        (0, "engine.Frame", 0.0, 10.0, None, "s0"),
        (1, "engine.fsq", 1.0, 4.0, 0, "s0"),
        (2, "scalars.ring_det", 5.0, 9.0, 0, "s0"),
        (3, "scalars.ring_det", 6.0, 8.0, 2, "s0"),
    ]
    own = tracer.self_seconds()
    assert own["engine.Frame"] == 3.0
    assert own["scalars.ring_det"] == 4.0
    assert tracer.layer_seconds()["scalars.ring_det"] == 4.0
    assert tracer._frame_split() == (3.0, 3.0)


def test_refuses_a_directory_without_the_program(tmp_path):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    shutil.copytree(os.path.join(root, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(root, "BENCHMARK.json"), tmp_path)
    bench = json.loads((tmp_path / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        bench["command"] + ["--workload", "frame-n4", "--seed", "1",
                            "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
