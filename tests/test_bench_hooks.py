"""The module attributes the benchmark's tracer and timers hook must exist.

perfbench/spans.py wraps library functions by module attribute and
Series methods by name in Series.__dict__, and the catalog workload
times the Frame that GeometryState.frame constructs through
curvature.Frame.  A refactor that renames one of those, or that
builds a Frame some other way, breaks tracing or timing silently; these
tests make it fail here instead.  The spans module is read, not changed.
"""

import importlib.util
import os

import finslerlab
from finslerlab import curvature
from finslerlab.catalog import get_example
from finslerlab.series import Series

SPANS = os.path.join(
    os.path.dirname(__file__), os.pardir, "perfbench", "spans.py"
)


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_spanned_attribute_resolves():
    for path, _ in _spans().SPANNED:
        module_name, attr = path.split(".")
        assert callable(getattr(getattr(finslerlab, module_name), attr)), path


def test_every_tallied_method_is_defined_on_series():
    # the tracer wraps Series.__dict__[name]: an inherited or a missing
    # method would raise KeyError in the traced run
    for kind, methods in _spans().TALLIED.items():
        for name in methods:
            assert callable(Series.__dict__.get(name)), (kind, name)


def test_geometry_state_builds_frame_through_module_name(monkeypatch):
    calls = []
    original = curvature.Frame

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(curvature, "Frame", counted)
    entry = get_example("euclidean")
    state = curvature.GeometryState(
        entry.metric, entry.volume, (0.1, 0.0, 0.0), (1.0, 0.0, 0.0)
    )
    assert state.frame is state.frame
    assert len(calls) == 1
