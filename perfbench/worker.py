"""One benchmark process: set-up, timed work, checks, probes.

Started by run.py in a fresh interpreter with BLAS/OpenMP threads
pinned to 1.  Prints one JSON object on its last stdout line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 [--setup-only]

Set-up time is the process's CPU time at the end of set-up, which
counts from the start of the process and so includes interpreter
start-up, less the calibration slices (calibrate.py) that ran during
it.  ``setup_s`` is that time calibrated by those slices.  A traced
run runs no slices.
"""

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
from time import perf_counter, process_time

import calibrate

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
MODULES = ("catalog", "classify", "cli", "curvature", "engine", "projective",
           "scalars", "series", "volume")
# added to the run's seed to draw the hold-out inputs
HOLDOUT_OFFSET = 1000
MKROPINA_PROBE_SEEDS = (3, 99)


def import_library():
    sys.path.insert(0, SRC)
    lib = importlib.import_module("finslerlab")
    if not os.path.abspath(lib.__file__).startswith(SRC + os.sep):
        raise ImportError("finslerlab imported from %s, not %s"
                          % (lib.__file__, SRC))
    for name in MODULES:
        importlib.import_module("finslerlab." + name)
    return lib


def timed_rounds(workload, inputs, seconds):
    """Whole rounds until another half round would pass `seconds`."""
    per_round = len(inputs) if workload.name == "classify-catalog" else 1
    results = []
    start = perf_counter()
    i = 0
    while True:
        round_start = perf_counter()
        for _ in range(per_round):
            results.append(workload.run_unit(inputs[i % len(inputs)]))
            i += 1
        elapsed = perf_counter() - start
        if elapsed + 0.5 * (perf_counter() - round_start) >= seconds:
            return results, elapsed


def summarize(results, elapsed, per_entry):
    slices = []
    for r in results:
        factor = calibrate.factor(*r["slices"])
        r["state_cal_seconds"] = [t * factor for t in r["state_cpu_seconds"]]
        slices.append(calibrate.NOMINAL_S / factor)

    def median_ms(key):
        if not per_entry:
            return statistics.median(t for r in results for t in r[key]) * 1e3
        # catalog Frame times cluster by entry, so the pooled median would
        # depend on the mix of entries a run reached; average the entries'
        # own medians
        by_entry = {}
        for r in results:
            if r[key]:  # an entry that raised may have none
                by_entry.setdefault(r["state"], []).extend(r[key])
        return statistics.fmean(
            statistics.median(t) for t in by_entry.values()) * 1e3

    states = sum(r["states"] for r in results)
    times = sorted(t for r in results for t in r["state_seconds"])
    p90 = None
    # the 90th percentile needs ten samples beyond it
    if len(times) >= 100:
        p90 = statistics.quantiles(times, n=10)[-1] * 1e3
    return {
        "states": states,
        "timed_s": elapsed,
        "states_per_s": states / elapsed,
        "state_cal_ms_p50": median_ms("state_cal_seconds"),
        "state_cpu_ms_p50": median_ms("state_cpu_seconds"),
        "state_ms_p50": median_ms("state_seconds"),
        "state_ms_p90": p90,
        "state_samples": len(times),
        "calibration_ms_p50": statistics.median(slices) * 1e3,
        "calibration_slices": calibrate.slice_count(),
    }


def ring_sizes(lib):
    out = []
    for ring in list(lib.series.SeriesRing._instances.values()):
        triples = len(ring.mul_table(ring.cap_x, ring.cap_y)[0])
        out.append({"n": ring.n, "caps": [ring.cap_x, ring.cap_y],
                    "coefficients": ring.size, "triples": triples,
                    "table_mb": triples * 3 * 8 / 2**20})
    return sorted(out, key=lambda r: (r["n"], r["caps"]))


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if not args.trace:
        calibrate.start()
    lib = import_library()
    import numpy
    from workloads import WORKLOADS, quartic_probe
    from spans import Tracer

    tracer = None
    if args.trace:
        tracer = Tracer(lib)
        tracer.install()
        tracer.enabled = True
    workload = WORKLOADS[args.workload](lib, BENCH_DIR)
    inputs = workload.draw(args.seed)
    workload.warm_up(inputs)
    setup_cpu_s = calibrate.program_time(process_time)
    setup = {"setup_cpu_s": setup_cpu_s, "setup_s": setup_cpu_s
             * calibrate.factor(0, calibrate.slice_count())}
    if args.setup_only:
        calibrate.stop()
        print(json.dumps(setup))
        return 0

    out = dict(setup, workload=args.workload, seed=args.seed)
    if tracer is None:
        results, elapsed = timed_rounds(workload, inputs, args.seconds)
        calibrate.stop()
        out["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out.update(summarize(results, elapsed,
                             per_entry=args.workload == "classify-catalog"))
    else:
        results = traced_pass(tracer, workload, inputs, out)
        tracer.enabled = False
    rings = ring_sizes(lib)  # before the probes build rings of their own
    checks = workload.check(results)

    holdout_seed = args.seed + HOLDOUT_OFFSET
    held = workload.draw(holdout_seed)
    if args.workload == "classify-catalog":
        held = [held[args.seed % len(held)]]
    else:
        held = held[: workload.holdout_units]
    out["holdout_seed"] = holdout_seed
    out["holdout_checks"] = workload.check([workload.run_unit(u) for u in held])

    probes = [quartic_probe(lib, args.seed)]
    if args.workload == "classify-catalog":
        probes += [workload.mkropina_probe(s) for s in MKROPINA_PROBE_SEEDS]
    out["probes"] = probes
    out["checks"] = checks
    out["environment"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "rings": rings,
    }
    print(json.dumps(out))
    return 0


def traced_pass(tracer, workload, inputs, out):
    """Run the fixed trace set untraced, then traced; count the second."""
    ring_build_s = tracer.layer_seconds()["series.ring_build"]
    tracer.enabled = False
    units = [inputs[i % len(inputs)] for i in range(workload.trace_units)]
    start = perf_counter()
    plain = [workload.run_unit(u) for u in units]
    plain_s = perf_counter() - start

    tracer.reset()
    tracer.frame_is_state = workload.name == "classify-catalog"
    tracer.enabled = True
    if not tracer.frame_is_state:
        # classify_metric samples inside the catalog units; elsewhere the
        # sampler's share is drawing the inputs, traced here
        tracer.begin_unit("inputs")
        workload.draw(out["seed"])
    traced = []
    start = perf_counter()
    for k, unit in enumerate(units):
        tracer.begin_unit(unit[0].name if tracer.frame_is_state else "s%d" % k)
        traced.append(workload.run_unit(unit))
    traced_s = perf_counter() - start
    tracer.enabled = False

    states = sum(r["states"] for r in traced)
    metrics = tracer.layer_metrics()
    metrics["series.ring_build_s"] = ring_build_s
    metrics["classify.errored_states"] = sum(
        1 if isinstance(r["out"], Exception)
        else getattr(r["out"], "errored_states", 0)
        for r in traced)
    metrics["trace.states_per_s"] = states / traced_s
    metrics["trace.overhead_ratio"] = traced_s / plain_s
    out["layers"] = metrics
    out["trace_states"] = states
    out["untraced_states_per_s"] = states / plain_s
    out["per_state_counts"] = tracer.per_state_counts()
    path = os.path.join(BENCH_DIR, "out")
    os.makedirs(path, exist_ok=True)
    span_file = os.path.join(
        path, "spans-%s-seed%d.jsonl" % (workload.name, out["seed"]))
    tracer.write(span_file)
    out["span_file"] = os.path.relpath(span_file, ROOT)
    return plain + traced


if __name__ == "__main__":
    sys.exit(main())
