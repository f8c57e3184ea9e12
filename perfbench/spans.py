"""Spans and tallies recorded from outside the library.

The tracer wraps module attributes of finslerlab where their callers
look them up, so nothing under src/ changes:

- stage functions of ``engine`` (fsq, metric, log sigma, spray,
  Riemann, modified spray) and the ``ring_det``/``ring_inv`` names that
  ``engine`` and ``volume`` import;
- ``curvature.Frame``, which ``GeometryState`` constructs;
- ``classify.sample_states``, which ``classify_metric`` calls;
- the volume densities the ``VolumeForm.sigma`` closures look up;
- the public accessors the benchmark itself calls;
- ``Series`` methods, patched on the class.

Layer calls become spans (name, start, end, parent, state id) kept in
memory until the run ends.  ``Series`` operations are tallied per state
instead (count and summed time, plus each full-budget product's
duration), because one quadrature state makes about 10^5 of them.
"""

import json
import statistics
from array import array
from collections import defaultdict
from time import perf_counter

# (module attribute path, span name)
SPANNED = (
    ("curvature.Frame", "engine.Frame"),
    ("engine.fsq_series", "engine.fsq"),
    ("engine.metric_series", "engine.metric"),
    ("engine.log_sigma_series", "engine.log_sigma"),
    ("engine.spray_series", "engine.spray"),
    ("engine.riemann_series", "engine.riemann"),
    ("engine.modified_spray", "engine.modified_spray"),
    ("engine.ring_det", "scalars.ring_det"),
    ("engine.ring_inv", "scalars.ring_inv"),
    ("volume.ring_det", "scalars.ring_det"),
    ("volume.ring_inv", "scalars.ring_inv"),
    ("volume.bh_sigma_quadrature", "volume.quadrature"),
    ("volume.bh_randers_closed", "volume.closed_form"),
    ("classify.sample_states", "classify.sample"),
    ("classify.classify_metric", "classify.classify_metric"),
    ("curvature.riemann", "curvature.query"),
    ("curvature.douglas_tensor", "curvature.query"),
    ("curvature.s_curvature", "curvature.query"),
    ("curvature.distortion", "curvature.query"),
    ("curvature.residual_scale", "curvature.query"),
    ("projective.identity_residual", "projective.identity"),
)

TOP_LAYER = ("engine.fsq", "engine.metric", "engine.log_sigma")

# Series methods tallied per state: kind -> method names
TALLIED = {"newton": ("reciprocal", "sqrt"), "log_exp": ("ln", "exp")}

# bytes a full-budget product touches per triple, computed from the
# table layout: three int64 indices, two float64 operand gathers and
# one float64 product
BYTES_PER_TRIPLE = 3 * 8 + 2 * 8 + 8


class Tracer:
    """Spans and Series tallies for one traced pass."""

    def __init__(self, lib):
        self.lib = lib
        self.enabled = False
        self.frame_is_state = False
        self.reset()

    def reset(self):
        """Forget everything recorded so far."""
        self.state = "setup"
        self.frame_count = 0
        self.spans = []  # (id, name, start, end, parent, state)
        self._stack = []
        self.tally = defaultdict(lambda: defaultdict(float))
        self.full_mul_durations = array("d")
        self.full_triples = 0
        self.sample_draws = 0
        self.sample_states = 0
        self.quadrature_directions = defaultdict(int)

    # -- installation ---------------------------------------------------

    def install(self):
        for path, name in SPANNED:
            module_name, attr = path.split(".")
            module = getattr(self.lib, module_name)
            original = getattr(module, attr)
            setattr(module, attr, self._span_wrapper(name, original))
        Series = self.lib.series.Series
        for attr in ("__mul__", "__rmul__"):
            setattr(Series, attr, self._mul_wrapper(Series.__dict__[attr]))
        for kind, methods in TALLIED.items():
            for attr in methods:
                setattr(Series, attr,
                        self._tally_wrapper(kind, Series.__dict__[attr]))
        SeriesRing = self.lib.series.SeriesRing
        SeriesRing.__init__ = self._span_wrapper(
            "series.ring_build", SeriesRing.__init__)

    # -- wrappers -------------------------------------------------------

    def _span_wrapper(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            saved_state = tracer.state
            if name == "engine.Frame" and tracer.frame_is_state:
                tracer.frame_count += 1
                tracer.state = "%s/%d" % (saved_state, tracer.frame_count)
            span_id = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(span_id)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer.spans[span_id] = (
                    span_id, name, start, end, parent, tracer.state
                )
                tracer.state = saved_state
            tracer._observe(name, args, kwargs, out)
            return out

        return traced

    def _observe(self, name, args, kwargs, out):
        if name == "classify.sample":
            self.sample_states += len(out.states)
            self.sample_draws += len(out.states) + out.rejections
        elif name == "volume.quadrature":
            nodes = kwargs.get("nodes") or self.lib.volume.sphere_nodes(
                args[0].dimension
            )
            self.quadrature_directions[self.state] += len(nodes[0])

    def _mul_wrapper(self, fn):
        tracer = self
        Series = self.lib.series.Series

        def traced(a, b):
            if not tracer.enabled or not isinstance(b, Series):
                return fn(a, b)
            start = perf_counter()
            out = fn(a, b)
            dt = perf_counter() - start
            ring = a.ring
            counts = tracer.tally[tracer.state]
            counts["mul_calls"] += 1
            counts["mul_s"] += dt
            if ring.cap_y == 0:
                counts["xonly_mul_calls"] += 1
            elif out.bx == ring.cap_x and out.by == ring.cap_y:
                counts["mul_full_calls"] += 1
                tracer.full_mul_durations.append(dt)
                tracer.full_triples += len(ring.mul_table(out.bx, out.by)[0])
            return out

        return traced

    def _tally_wrapper(self, kind, fn):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            start = perf_counter()
            out = fn(*args, **kwargs)
            counts = tracer.tally[tracer.state]
            counts[kind + "_calls"] += 1
            counts[kind + "_s"] += perf_counter() - start
            return out

        return traced

    # -- accounting -----------------------------------------------------

    def begin_unit(self, state):
        self.state = state
        self.frame_count = 0

    def layer_seconds(self):
        """Inclusive seconds per span name, not counting a span twice
        when it nests inside another of the same name."""
        out = defaultdict(float)
        for span_id, name, start, end, parent, _ in self.spans:
            if not self._has_ancestor_named(parent, name):
                out[name] += end - start
        return out

    def self_seconds(self):
        """Seconds per span name minus the time its children cover."""
        child = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(float)
        for span_id, name, start, end, _, _ in self.spans:
            out[name] += end - start - child[span_id]
        return out

    def _has_ancestor_named(self, parent, name):
        while parent is not None:
            span = self.spans[parent]
            if span[1] == name:
                return True
            parent = span[4]
        return False

    def span_counts(self):
        out = defaultdict(int)
        for span in self.spans:
            out[span[1]] += 1
        return out

    def per_state_counts(self):
        """Deterministic counts keyed by state id."""
        named = {"engine.Frame": "engine.frame_calls",
                 "engine.fsq": "engine.fsq_calls"}
        states = defaultdict(lambda: defaultdict(int))
        for _, name, _, _, _, state in self.spans:
            if name in named:
                states[state][named[name]] += 1
        for state, counts in self.tally.items():
            states[state]["series.mul_full_calls"] = int(
                counts.get("mul_full_calls", 0)
            )
        for state, dirs in self.quadrature_directions.items():
            states[state]["volume.quadrature_directions"] = dirs
        return {
            state: dict(sorted(counts.items()))
            for state, counts in sorted(states.items())
        }

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(
                    ("id", "name", "start", "end", "parent", "state"), span
                ))) + "\n")

    def layer_metrics(self):
        """Per-layer metrics of everything recorded after set-up."""
        inclusive = self.layer_seconds()
        own = self.self_seconds()
        calls = self.span_counts()
        tallies = defaultdict(float)
        for counts in self.tally.values():
            for key, value in counts.items():
                tallies[key] += value
        frame_s = inclusive["engine.Frame"]
        frame_self_s, top = self._frame_split()
        durations = sorted(self.full_mul_durations)
        return {
            "series.mul_calls": int(tallies["mul_calls"]),
            "series.mul_full_calls": int(tallies["mul_full_calls"]),
            "series.mul_s": tallies["mul_s"],
            "series.mul_full_us_p50": (
                statistics.median(durations) * 1e6 if durations else 0.0
            ),
            "series.mul_full_triples": self.full_triples,
            "series.mul_full_bytes_computed": self.full_triples * BYTES_PER_TRIPLE,
            "series.xonly_mul_calls": int(tallies["xonly_mul_calls"]),
            "series.newton_calls": int(tallies["newton_calls"]),
            "series.newton_s": tallies["newton_s"],
            "series.log_exp_calls": int(tallies["log_exp_calls"]),
            "series.log_exp_s": tallies["log_exp_s"],
            "series.ring_build_s": inclusive["series.ring_build"],
            "engine.frame_calls": calls["engine.Frame"],
            "engine.frame_s": frame_s,
            "engine.fsq_calls": calls["engine.fsq"],
            "engine.fsq_s": inclusive["engine.fsq"],
            "engine.metric_s": inclusive["engine.metric"],
            "engine.log_sigma_s": inclusive["engine.log_sigma"],
            "engine.spray_s": inclusive["engine.spray"],
            "engine.riemann_calls": calls["engine.riemann"],
            "engine.riemann_s": inclusive["engine.riemann"],
            "engine.modified_spray_s": inclusive["engine.modified_spray"],
            "engine.frame_self_s": frame_self_s,
            "engine.top_layer_share": top / frame_s if frame_s else 0.0,
            "scalars.ring_det_s": inclusive["scalars.ring_det"],
            "scalars.ring_inv_s": inclusive["scalars.ring_inv"],
            "volume.quadrature_s": inclusive["volume.quadrature"],
            "volume.quadrature_directions": sum(
                self.quadrature_directions.values()),
            "volume.closed_form_s": inclusive["volume.closed_form"],
            "classify.sample_s": inclusive["classify.sample"],
            "classify.accept_ratio": (
                self.sample_states / self.sample_draws if self.sample_draws else 0.0
            ),
            "classify.predicate_s": own["classify.classify_metric"],
            "curvature.query_s": own["curvature.query"],
            "projective.identity_s": own["projective.identity"],
        }

    def _frame_split(self):
        """(Frame time not covered by its child spans, Frame time in the
        top layer: F^2, g/g^-1 and the volume density)."""
        frames = {span[0]: span[3] - span[2] for span in self.spans
                  if span[1] == "engine.Frame"}
        covered = top = 0.0
        for _, name, start, end, parent, _ in self.spans:
            if parent in frames:
                covered += end - start
                if name in TOP_LAYER:
                    top += end - start
        return sum(frames.values()) - covered, top
