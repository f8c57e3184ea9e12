"""The four benchmark workloads and the checks on their outputs.

Each workload draws its inputs from the workload seed through
``SamplePlan(seed=...)``, runs one unit of work at a time (a catalog
entry, or one sampled state), and checks every output afterwards.  A
check is one attempted operation; a failed check counts towards the
error rate.  Library calls go through module attributes
(``lib.curvature.riemann``, not a local alias) so that a traced run can
wrap them.

Why these four:

- ``classify-catalog`` is the CLI's main job and is bound by the Frame:
  every stage of the (2,8) ring pipeline, the sampler and the predicates.
- ``bh-quadrature`` spends over 90 % of a state in the tiny x-only ring
  of the quadrature volume, a path the catalog never takes.
- ``verify-identities`` uses the engine partly and redundantly: a whole
  Frame for ``riemann`` alone, and ``lemma21`` re-running F^2 -> g -> G.
- ``frame-n4`` is the only n=4 run: a ring whose product tables do not
  fit in L2, the n=4 cofactor ``ring_det``/``ring_inv``, and the ring
  build that dominates set-up.
"""

import json
import os
from time import perf_counter

import calibrate

P_FACTOR = "0.3*y1"


def check(name, ok, detail="", known_defect=None):
    return {"name": name, "ok": bool(ok), "detail": detail,
            "known_defect": None if ok else known_defect}


def errored(name, exc):
    return check(name, False, "%s: %s" % (type(exc).__name__, exc))


class StateWorkload:
    """A workload whose unit is one sampled state."""

    name = None
    count = None  # distinct input states; the timed loop cycles them
    trace_units = None  # fixed unit count of a traced pass
    holdout_units = 1

    def __init__(self, lib, bench_dir):
        self.lib = lib
        self.bench_dir = bench_dir
        self.tol = lib.classify.Tolerances()
        self.metric, self.volume = self.build()

    def draw(self, seed):
        plan = self.lib.classify.SamplePlan(count=self.count, seed=seed)
        return list(self.lib.classify.sample_states(self.metric, plan).states)

    def warm_up(self, inputs):
        self.run_unit(inputs[0])

    def run_unit(self, state):
        first = calibrate.slice_count()
        start, cpu_start = perf_counter(), calibrate.program_time()
        try:
            out = self.compute(*state)
        except Exception as exc:  # a broken state is a counted failure
            out = exc
        return {"state": state, "states": 1,
                "state_seconds": [perf_counter() - start],
                "state_cpu_seconds": [calibrate.program_time() - cpu_start],
                "slices": (first, calibrate.slice_count()), "out": out}

    def check(self, results):
        checks = []
        for r in results:
            label = "%s state %s" % (self.name, _fmt_state(r["state"]))
            if isinstance(r["out"], Exception):
                checks.append(errored(label, r["out"]))
            else:
                checks.extend(self.check_state(label, r["state"], r["out"]))
        return checks

    def within(self, label, value, scale):
        bound = self.tol.bound(scale)
        return check(label, value <= bound,
                     "%.3e (bound %.3e)" % (value, bound))


class BhQuadrature(StateWorkload):
    name = "bh-quadrature"
    count = 24
    trace_units = 2

    def build(self):
        entry = self.lib.catalog.get_example("randers_osaka")
        self.closed_form = entry.volume
        self._reference = {}
        return entry.metric, self.lib.volume.bh_quadrature_volume(entry.metric)

    def compute(self, x, y):
        curvature = self.lib.curvature
        state = curvature.GeometryState(self.metric, self.volume, x, y)
        return curvature.s_curvature(state), curvature.distortion(state)

    def reference(self, x, y):
        """S, tau and scale from the closed-form density; untimed."""
        key = (x, y)
        if key not in self._reference:
            curvature = self.lib.curvature
            state = curvature.GeometryState(self.metric, self.closed_form, x, y)
            self._reference[key] = (
                curvature.s_curvature(state),
                curvature.distortion(state),
                curvature.residual_scale(state),
            )
        return self._reference[key]

    def check_state(self, label, state, out):
        S, tau = out
        S_ref, tau_ref, scale = self.reference(*state)
        return [
            self.within(label + " S vs closed form", abs(S - S_ref), scale),
            self.within(label + " tau vs closed form", abs(tau - tau_ref), scale),
        ]


class VerifyIdentities(StateWorkload):
    name = "verify-identities"
    count = 64
    trace_units = 8
    holdout_units = 2

    def build(self):
        entry = self.lib.catalog.get_example("randers_humo")
        return entry.metric, entry.volume

    def compute(self, x, y):
        curvature, projective = self.lib.curvature, self.lib.projective
        first = curvature.GeometryState(self.metric, self.volume, x, y)
        R = curvature.riemann(first).components
        R_scale = curvature.residual_scale(first)
        second = curvature.GeometryState(self.metric, self.volume, x, y)
        residuals = {}
        for kind in ("master", "pricci", "lemma21"):
            p = P_FACTOR if kind == "lemma21" else None
            residual = projective.identity_residual(kind, second, p=p)
            residuals[kind] = float(abs(residual.components).max())
        scale = curvature.residual_scale(second)
        return float(abs(R).max()), R_scale, residuals, scale

    def check_state(self, label, state, out):
        R_max, R_scale, residuals, scale = out
        # randers_humo is flat: the catalog's expected_lambda is 0
        checks = [self.within(label + " riemann vanishes", R_max, R_scale)]
        for kind, value in residuals.items():
            checks.append(self.within(label + " " + kind, value, scale))
        return checks


class FrameN4(StateWorkload):
    name = "frame-n4"
    count = 32
    trace_units = 3

    def build(self):
        path = os.path.join(self.bench_dir, "randers_n4.json")
        with open(path, "r", encoding="utf-8") as handle:
            metric = self.lib.cli.load_metric_definition(json.load(handle))
        return metric, self.lib.volume.bh_randers_volume(metric)

    def compute(self, x, y):
        curvature, projective = self.lib.curvature, self.lib.projective
        state = curvature.GeometryState(self.metric, self.volume, x, y)
        curvature.riemann(state)
        curvature.douglas_tensor(state)
        curvature.s_curvature(state)
        residuals = {
            kind: float(abs(projective.identity_residual(kind, state).components).max())
            for kind in ("master", "pricci")
        }
        return residuals, curvature.residual_scale(state)

    def check_state(self, label, state, out):
        residuals, scale = out
        return [self.within(label + " " + kind, value, scale)
                for kind, value in residuals.items()]


MKROPINA_DEFECT = "mkropina_yang-seed-verdicts"


class ClassifyCatalog:
    """classify_metric on every catalog entry; one unit per entry."""

    name = "classify-catalog"
    count = 20  # the CLI default

    def __init__(self, lib, bench_dir):
        self.lib = lib
        self.entries = [lib.catalog.get_example(name)
                        for name in lib.catalog.list_examples()]
        self.trace_units = len(self.entries)
        self.frame_seconds = []
        self.frame_cpu_seconds = []
        frame = lib.curvature.Frame

        # the one timing inside the library, besides the calibration
        # sampler: per-state time is the Frame construction that
        # GeometryState.frame triggers
        def timed_frame(*args):
            start, cpu_start = perf_counter(), calibrate.program_time()
            try:
                return frame(*args)
            finally:
                self.frame_seconds.append(perf_counter() - start)
                self.frame_cpu_seconds.append(calibrate.program_time() - cpu_start)

        lib.curvature.Frame = timed_frame

    def draw(self, seed):
        plan = self.lib.classify.SamplePlan(count=self.count, seed=seed)
        return [(entry, plan) for entry in self.entries]

    def warm_up(self, inputs):
        entry, plan = inputs[0]
        small = self.lib.classify.SamplePlan(count=1, seed=plan.seed)
        self.lib.classify.classify_metric(entry.metric, entry.volume, small)

    def run_unit(self, unit):
        entry, plan = unit
        self.frame_seconds = []
        self.frame_cpu_seconds = []
        first = calibrate.slice_count()
        try:
            out = self.lib.classify.classify_metric(entry.metric, entry.volume, plan)
        except Exception as exc:  # a broken entry is a counted failure
            out = exc
        return {"state": entry.name, "states": plan.count,
                "state_seconds": self.frame_seconds,
                "state_cpu_seconds": self.frame_cpu_seconds,
                "slices": (first, calibrate.slice_count()), "out": out}

    def check(self, results):
        checks = []
        for r in results:
            checks.extend(self.check_report(r["state"], r["out"]))
        return checks

    def check_report(self, name, report):
        if isinstance(report, Exception):
            return [errored(name, report)]
        entry = next(e for e in self.entries if e.name == name)
        # mkropina_yang's verdicts depend on the sample seed: a mismatch or
        # hierarchy violation with no errored state is that named defect
        known = (MKROPINA_DEFECT
                 if name == "mkropina_yang" and report.errored_states == 0
                 else None)
        label = "%s seed %d" % (name, report.plan.seed)
        checks = [
            check("%s state %d" % (label, k), k >= report.errored_states,
                  "errored (classify_metric caught an exception)")
            for k in range(report.plan.count)
        ]
        for pred, expected in sorted(entry.expected_verdicts.items()):
            want = "holds" if expected else "fails"
            result = report.predicates[pred]
            checks.append(check(
                "%s %s" % (label, pred), result.verdict == want,
                "expected %s, got %s (max residual %.3e, scale %.3e)"
                % (want, result.verdict, result.max_residual, result.scale),
                known,
            ))
        checks.append(check(
            label + " hierarchy", not report.hierarchy_violations,
            "; ".join(report.hierarchy_violations), known,
        ))
        return checks

    def mkropina_probe(self, seed):
        """The catalog verdicts of mkropina_yang at one sample seed."""
        entry = next(e for e in self.entries if e.name == "mkropina_yang")
        plan = self.lib.classify.SamplePlan(count=self.count, seed=seed)
        report = self.lib.classify.classify_metric(entry.metric, entry.volume, plan)
        failed = [c for c in self.check_report(entry.name, report) if not c["ok"]]
        return {
            "name": "%s@seed%d" % (MKROPINA_DEFECT, seed),
            "reproduced": bool(failed),
            "detail": [c["name"] + ": " + c["detail"] for c in failed],
        }


def quartic_probe(lib, seed):
    """minkowski_quartic with the bh-quadrature volume, once, untimed.

    Its F does not depend on x, so the quadrature density comes back as
    a float and embedding it raises; classify_metric turns that into
    all-indeterminate verdicts.
    """
    entry = lib.catalog.get_example("minkowski_quartic")
    volume = lib.volume.bh_quadrature_volume(entry.metric)
    plan = lib.classify.SamplePlan(count=2, seed=seed)
    report = lib.classify.classify_metric(entry.metric, volume, plan)
    x, y = lib.classify.sample_states(entry.metric, plan).states[0]
    try:
        lib.curvature.GeometryState(entry.metric, volume, x, y).frame
        raised = None
    except Exception as exc:  # the defect under probe
        raised = "%s: %s" % (type(exc).__name__, exc)
    verdicts = sorted({r.verdict for r in report.predicates.values()})
    return {
        "name": "minkowski_quartic-bh-quadrature",
        "reproduced": raised is not None and report.errored_states > 0,
        "detail": ["Frame raises %s" % raised,
                   "classify_metric: %d of %d states errored, verdicts %s"
                   % (report.errored_states, plan.count, "/".join(verdicts))],
    }


def _fmt_state(state):
    x, y = state
    return "x=(%s)" % ", ".join("%.4f" % v for v in x)


WORKLOADS = {
    w.name: w
    for w in (ClassifyCatalog, BhQuadrature, VerifyIdentities, FrameN4)
}
