"""The benchmark's own output checks pass on one unit of each workload.

perfbench/workloads.py runs the library and checks what comes back; a
change of signature or output that breaks one of its checks would
otherwise show only when the benchmark runs.  Here each workload runs
one unit (the first state drawn at seed 3, or one catalog entry) the way
a benchmark run does, and every check must be ok.  The perfbench
modules are read, not changed.
"""

import importlib.util
import os

import pytest

import finslerlab
import finslerlab.cli  # noqa: F401  (the frame-n4 workload reads lib.cli)
from finslerlab import curvature

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                     "perfbench")
SEED = 3


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)  # workloads.py imports calibrate
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(BENCH, "workloads.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


def run_one(workload, unit):
    result = workload.run_unit(unit)
    checks = workload.check([result])
    assert checks and all(c["ok"] for c in checks), [
        "%s: %s" % (c["name"], c["detail"]) for c in checks if not c["ok"]
    ]
    return result


@pytest.mark.parametrize(
    "name", ["bh-quadrature", "verify-identities", "frame-n4"]
)
def test_state_workload_checks_pass(workloads, name):
    workload = workloads[name](finslerlab, BENCH)
    run_one(workload, workload.draw(SEED)[0])


def test_classify_catalog_checks_pass(workloads, monkeypatch):
    # the workload rebinds curvature.Frame to a timed wrapper
    monkeypatch.setattr(curvature, "Frame", curvature.Frame)
    workload = workloads["classify-catalog"](finslerlab, BENCH)
    unit = next(u for u in workload.draw(SEED) if u[0].name == "randers_osaka")
    result = run_one(workload, unit)
    assert len(result["state_seconds"]) == result["states"]  # every Frame timed
