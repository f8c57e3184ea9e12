"""finslerlab benchmark: one workload, one run, every metric by name.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each run starts fresh interpreters
(perfbench/worker.py) with BLAS/OpenMP threads pinned to 1: two that
only set up, then one that sets up, measures and checks.  The untraced
run (--trace 0) prints the end-to-end metrics; the traced run
(--trace 1) prints the per-layer metrics and the tracing overhead.  The
last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The exit code is 0 only when a result was printed.
"""

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("classify-catalog", "bh-quadrature", "verify-identities", "frame-n4")
# every run ends well inside the 180 s a run may take
DEADLINE_S = 170.0
SETUP_PROBES = 2
PINNED = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}

# the JSON line's end-to-end metrics: calibrated CPU times (calibrate.py)
# and memory
END_TO_END = (
    ("state_cal_ms_p50", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
# printed beside them: the same times uncalibrated, which other tenants'
# load moves by up to a third from run to run, and wall-clock figures
PRINTED = (
    ("state_cpu_ms_p50", "ms"),
    ("calibration_ms_p50", "ms"),
    ("states_per_s", "states/s"),
    ("state_ms_p50", "ms"),
    ("setup_cpu_s", "s"),
)
PER_LAYER = (
    ("series.mul_calls", "count"),
    ("series.mul_full_calls", "count"),
    ("series.mul_s", "s"),
    ("series.mul_full_us_p50", "us"),
    ("series.mul_full_triples", "count"),
    ("series.mul_full_bytes_computed", "B"),
    ("series.xonly_mul_calls", "count"),
    ("series.newton_calls", "count"),
    ("series.newton_s", "s"),
    ("series.log_exp_calls", "count"),
    ("series.log_exp_s", "s"),
    ("series.ring_build_s", "s"),
    ("engine.frame_calls", "count"),
    ("engine.frame_s", "s"),
    ("engine.fsq_calls", "count"),
    ("engine.fsq_s", "s"),
    ("engine.metric_s", "s"),
    ("engine.log_sigma_s", "s"),
    ("engine.spray_s", "s"),
    ("engine.riemann_calls", "count"),
    ("engine.riemann_s", "s"),
    ("engine.frame_self_s", "s"),
    ("engine.top_layer_share", "ratio"),
    ("scalars.ring_det_s", "s"),
    ("scalars.ring_inv_s", "s"),
    ("volume.quadrature_directions", "count"),
    ("classify.sample_s", "s"),
    ("classify.accept_ratio", "ratio"),
    ("classify.errored_states", "count"),
    ("trace.states_per_s", "states/s"),
    ("trace.overhead_ratio", "ratio"),
)
# named by the layer map but zero on the workloads that skip the layer,
# so printed here and kept out of the JSON line
PRINTED_ONLY = (
    ("engine.modified_spray_s", "s"),
    ("volume.quadrature_s", "s"),
    ("volume.closed_form_s", "s"),
    ("classify.predicate_s", "s"),
    ("curvature.query_s", "s"),
    ("projective.identity_s", "s"),
)


class RunError(Exception):
    pass


def worker(args, deadline, setup_only=False):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunError("out of time before starting a worker")
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0", **PINNED)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the worker and waits for it before raising
        raise RunError("worker ran past the %.0f s deadline" % DEADLINE_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError("worker exited with code %d" % proc.returncode)
    return json.loads(lines[-1])


def environment(worker_env):
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(index, "level")) as f:
                level = f.read().strip()
            with open(os.path.join(index, "type")) as f:
                kind = f.read().strip()
            with open(os.path.join(index, "size")) as f:
                size = f.read().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches["L%s" % level] = size
    src_lines = 0
    for path in glob.glob(os.path.join(ROOT, "src", "finslerlab", "*.py")):
        with open(path, encoding="utf-8") as f:
            src_lines += sum(1 for _ in f)
    return dict(worker_env, nproc=os.cpu_count(), caches=caches,
                src_lines=src_lines)


def report(args, res, setup_runs):
    checks = res["checks"]
    failed = [c for c in checks if not c["ok"]]
    held_failed = [c for c in res["holdout_checks"] if not c["ok"]]
    unexplained = [c for c in failed + held_failed if not c["known_defect"]]
    env = environment(res["environment"])
    mode = "traced" if args.trace else "untraced"
    print("finslerlab benchmark  workload=%s  seed=%d  seconds=%d  %s"
          % (args.workload, args.seed, args.seconds, mode))
    print("environment: python %s, numpy %s, nproc %s, caches %s, "
          "src lines %d, pinned %s"
          % (env["python"], env["numpy"], env["nproc"],
             ", ".join("%s %s" % kv for kv in sorted(env["caches"].items())),
             env["src_lines"],
             " ".join("%s=%s" % kv for kv in sorted(PINNED.items()))))
    for ring in env["rings"]:
        print("ring n=%d caps=%s: %d coefficients, %d product triples, "
              "%.1f MB index tables"
              % (ring["n"], tuple(ring["caps"]), ring["coefficients"],
                 ring["triples"], ring["table_mb"]))

    metrics = {}
    if args.trace:
        layers = res["layers"]
        print("%-32s %16s  %s" % ("per-layer metric", "value", "unit"))
        for name, unit in PER_LAYER + PRINTED_ONLY:
            print("%-32s %16.6g  %s" % (name, layers[name], unit))
        for name, unit in PER_LAYER:
            metrics[name] = {"value": layers[name], "unit": unit}
        print("tracing overhead: %.4g states/s traced against %.4g untraced "
              "on the same %d states"
              % (layers["trace.states_per_s"], res["untraced_states_per_s"],
                 res["trace_states"]))
        if args.workload == "classify-catalog":
            print("engine.top_layer_share %.1f %% (ROADMAP seed figure: 85-95 %%)"
                  % (100 * layers["engine.top_layer_share"]))
        counts = res["per_state_counts"]
        print("deterministic counts per state (%d states):" % len(counts))
        groups = {}
        for state, c in counts.items():
            key = (state.split("/")[0], tuple(sorted(c.items())))
            groups[key] = groups.get(key, 0) + 1
        for (prefix, c), k in groups.items():
            print("  %-20s %3d state(s)  %s" % (
                prefix, k, "  ".join("%s=%d" % kv for kv in c)))
        print("spans written to %s" % res["span_file"])
    else:
        values = dict(res, **{
            key: statistics.median(run[key] for run in setup_runs)
            for key in ("setup_s", "setup_cpu_s")})
        for name, unit in END_TO_END:
            metrics[name] = {"value": values[name], "unit": unit}
        states = "%d states" % res["state_samples"]
        interpreters = "median of %d fresh interpreters" % len(setup_runs)
        samples = {
            "state_cal_ms_p50": states + ", CPU time, calibrated",
            "state_cpu_ms_p50": states + ", CPU time",
            "calibration_ms_p50": "%d slices, CPU time" % res["calibration_slices"],
            "setup_s": interpreters + ", CPU time, calibrated",
            "setup_cpu_s": interpreters + ", CPU time",
            "peak_rss_mb": "measuring interpreter",
            "states_per_s": "%d states in %.2f s" % (res["states"], res["timed_s"]),
            "state_ms_p50": states,
        }
        print("%-16s %14s  %-9s %s" % ("metric", "value", "unit", "samples"))
        for name, unit in END_TO_END + PRINTED:
            print("%-16s %14.6g  %-9s %s" % (name, values[name], unit, samples[name]))
        p90 = res["state_ms_p90"]
        print("%-16s %14s  %-9s %d states%s" % (
            "state_ms_p90", "null" if p90 is None else "%.6g" % p90, "ms",
            res["state_samples"], "" if p90 is not None else
            " (needs >= 100 for ten beyond the 90th percentile)"))
    def show(c):
        tag = " [known defect %s]" % c["known_defect"] if c["known_defect"] else ""
        print("  FAILED %s: %s%s" % (c["name"], c["detail"], tag))

    print("%-16s %14.6g  %-9s %d failed of %d attempted checks" % (
        "error_rate", len(failed) / len(checks), "ratio", len(failed), len(checks)))
    for c in failed[:20]:
        show(c)
    print("hold-out seed %d: %d failed of %d checks"
          % (res["holdout_seed"], len(held_failed), len(res["holdout_checks"])))
    for c in held_failed:
        show(c)
    print("known-defect probes:")
    for probe in res["probes"]:
        print("  %s: %s" % (probe["name"],
                            "reproduced" if probe["reproduced"] else "not reproduced"))
        for line in probe["detail"]:
            print("    " + line)

    print(json.dumps({
        "correct": not unexplained,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": metrics,
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "finslerlab", "__init__.py")):
        sys.stderr.write("error: no finslerlab sources under %s\n"
                         % os.path.join(ROOT, "src"))
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        setup_runs = []
        if not args.trace:
            setup_runs = [worker(args, deadline, setup_only=True)
                          for _ in range(SETUP_PROBES)]
        res = worker(args, deadline)
    except RunError as err:
        sys.stderr.write("error: %s\n" % err)
        return 1
    report(args, res, setup_runs + [res])
    return 0


if __name__ == "__main__":
    sys.exit(main())
