"""Acceptance gate: the ten release criteria, one pass/fail line each.

Run with -s to see the per-criterion summary lines.  Each criterion
carries its stated runtime ceiling; the default tolerance policy is
rel=1e-6 / abs=1e-9 on exactly differentiated residuals and 1e-5 where
quadrature enters.
"""

import math
import time
import zlib

import numpy as np

from finslerlab.catalog import get_example, list_examples
from finslerlab.classify import (
    SamplePlan,
    Tolerances,
    classify_metric,
    sample_states,
)
from finslerlab.curvature import GeometryState, douglas_tensor
from finslerlab.volume import bh_randers_closed, bh_sigma_quadrature, choose_rule

from jet_oracle import mixed_partial
from support import (
    distortion_flow_derivative,
    douglas_from_mean_berwald,
    fd_partial,
    rel_error,
)

PLAN = SamplePlan()  # 20 states, seed 20250405, radius 0.4, unit_F
TOL = Tolerances()  # rel 1e-6, abs 1e-9

_STATES = {}


def catalog_states(name, **overrides):
    """Cached (entry, GeometryStates at the default plan) per metric."""
    key = (name, tuple(sorted(overrides.items())))
    if key not in _STATES:
        entry = get_example(name, **overrides)
        batch = sample_states(entry.metric, PLAN)
        states = [
            GeometryState(entry.metric, entry.volume, x, y)
            for x, y in batch.states
        ]
        _STATES[key] = (entry, states)
    return _STATES[key]


def _bound(frame):
    return TOL.bound(frame.scale)


def _report(num, ok, detail):
    print("[criterion %02d] %s  %s" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d failed: %s" % (num, detail)


def test_01_randers_osaka_suite():
    t0 = time.time()
    _, states = catalog_states("randers_osaka")
    frames = [s.frame for s in states]
    r = max(np.abs(f.R).max() / _bound(f) for f in frames)
    s = max(abs(f.S) / _bound(f) for f in frames)
    dbar = max(np.abs(f.Dbar).max() / _bound(f) for f in frames)
    d_floor = max(np.abs(f.D).max() / _bound(f) for f in frames)
    elapsed = time.time() - t0
    ok = r <= 1 and s <= 1 and dbar <= 1 and d_floor >= 1e3 and elapsed < 60
    _report(
        1, ok,
        "R=%.1e S=%.1e Dbar=%.1e of tolerance; max|D|=%.0fx floor; %.1fs"
        % (r, s, dbar, d_floor, elapsed),
    )


def test_02_randers_humo_suite():
    t0 = time.time()
    _, states = catalog_states("randers_humo")
    frames = [s.frame for s in states]
    r = max(np.abs(f.R).max() / _bound(f) for f in frames)
    e = max(np.abs(f.E).max() / _bound(f) for f in frames)
    s = max(abs(f.S) / _bound(f) for f in frames)
    flow = max(np.abs(f.D_h0).max() / _bound(f) for f in frames)
    b_floor = max(np.abs(f.B).max() / _bound(f) for f in frames)
    d_floor = max(np.abs(f.D).max() / _bound(f) for f in frames)
    elapsed = time.time() - t0
    ok = (
        r <= 1 and e <= 1 and s <= 1 and flow <= 1
        and b_floor >= 1e3 and d_floor >= 1e3 and elapsed < 60
    )
    _report(
        2, ok,
        "R=%.1e E=%.1e S=%.1e D_flow=%.1e of tolerance; "
        "|B|=%.0fx |D|=%.0fx floor; %.1fs"
        % (r, e, s, flow, b_floor, d_floor, elapsed),
    )


def _baoshen_run(c):
    _, states = catalog_states("randers_baoshen", c=c)
    frames = [s.frame for s in states]
    s_ok = all(abs(f.S) <= _bound(f) for f in frames)
    lams = [f.constflag_lambda_fit() for f in frames]
    lam_hat = float(np.mean(lams))
    cf_ok = all(
        np.abs(f.constflag_residual(lam)).max() <= _bound(f)
        for f, lam in zip(frames, lams)
    ) and abs(lam_hat - 1.0) <= 1e-3
    gdw_ok = all(np.abs(f.gdw_residual).max() <= _bound(f) for f in frames)
    t2c_ok = all(
        np.abs(f.gdw_factor - 2.0 * f.C).max() <= 1e-5 * f.scale
        for f in frames
    )
    flow_floor = all(
        np.abs(f.D_h0).max() >= 1e3 * _bound(f) for f in frames
    )
    thm31_floor = all(
        np.abs(f.thm31_residual).max() >= 1e3 * _bound(f) for f in frames
    )
    ok = s_ok and cf_ok and gdw_ok and t2c_ok and flow_floor and thm31_floor
    return ok, lam_hat


def test_03_randers_baoshen_sweep():
    t0 = time.time()
    outcomes = {}
    for c in (1.0, "quarter"):
        ok, lam_hat = _baoshen_run(c)
        outcomes[str(c)] = (ok, lam_hat)
    elapsed = time.time() - t0
    passing = [c for c, (ok, _) in outcomes.items() if ok]
    ok = bool(passing) and elapsed < 120
    _report(
        3, ok,
        "passing sweep values: %s (lambda_hat %s); %.1fs"
        % (
            passing or "none",
            ", ".join(
                "%s->%.4f" % (c, lam) for c, (_, lam) in outcomes.items()
            ),
            elapsed,
        ),
    )


def test_04_mkropina_douglas():
    t0 = time.time()
    _, states = catalog_states("mkropina_yang")
    frames = [s.frame for s in states]
    worst = max(np.abs(f.D).max() / _bound(f) for f in frames)
    elapsed = time.time() - t0
    ok = len(frames) == 20 and worst <= 1 and elapsed < 60
    _report(
        4, ok,
        "max|D|=%.1e of tolerance at %d cone-admissible states; %.1fs"
        % (worst, len(frames), elapsed),
    )


def test_05_master_identity_catalog():
    t0 = time.time()
    worst_name, worst = None, 0.0
    for name in list_examples():
        _, states = catalog_states(name)
        for s in states:
            f = s.frame
            ratio = np.abs(f.master_residual).max() / (1e-6 * f.scale)
            if ratio > worst:
                worst_name, worst = name, ratio
    elapsed = time.time() - t0
    ok = worst <= 1.0 and elapsed < 300
    _report(
        5, ok,
        "worst residual %.1e of 1e-6*scale (%s), %d metrics x 20 states; %.1fs"
        % (worst, worst_name, len(list_examples()), elapsed),
    )


def test_06_pr_quadratic_equivalence():
    t0 = time.time()
    disagreements = 0
    checked = 0
    for name in list_examples():
        _, states = catalog_states(name)
        for s in states:
            f = s.frame
            direct = np.abs(f.projective.R_full_dot).max() <= _bound(f)
            via_douglas = np.abs(f.thm31_residual).max() <= _bound(f)
            checked += 1
            if direct != via_douglas:
                disagreements += 1
    elapsed = time.time() - t0
    ok = disagreements == 0
    _report(
        6, ok,
        "%d disagreements over %d states; %.1fs"
        % (disagreements, checked, elapsed),
    )


def test_07_internal_route_agreement():
    t0 = time.time()
    d_gap = e_gap = s_gap = 0.0
    for name in list_examples():
        _, states = catalog_states(name)
        for s in states:
            f = s.frame
            direct = douglas_tensor(s).components
            assembled = douglas_from_mean_berwald(f)
            d_gap = max(
                d_gap, np.abs(direct - assembled).max() / f.scale
            )
            e_gap = max(e_gap, float(np.abs(f.E - f.E_from_trace).max()))
            s_gap = max(
                s_gap,
                abs(f.S - distortion_flow_derivative(f)) / max(1.0, abs(f.S)),
            )
    elapsed = time.time() - t0
    ok = d_gap <= 1e-9 and e_gap <= 1e-8 and s_gap <= 1e-7
    _report(
        7, ok,
        "Douglas routes %.1e of scale; E routes %.1e; S vs distortion "
        "flow %.1e rel; %.1fs" % (d_gap, e_gap, s_gap, elapsed),
    )


def _fd_check_state(f2, x, y, rng):
    """One AD-vs-FD comparison; returns rel error or None if the FD
    stencil left the domain."""
    order = int(rng.integers(1, 7))
    wrt = []
    for _ in range(order):
        kind = "x" if rng.uniform() < 0.35 else "y"
        wrt.append((kind, int(rng.integers(0, len(x)))))
    try:
        exact = mixed_partial(f2, x, y, wrt)
        approx = fd_partial(f2, x, y, wrt)
    except Exception:
        return None
    if not np.isfinite(approx) or not np.isfinite(exact):
        return None
    return rel_error(approx, exact)


def test_08_derivative_tower_vs_finite_differences():
    t0 = time.time()
    worst = 0.0
    for name in list_examples():
        entry, states = catalog_states(name)
        f2 = entry.metric.F2
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        verified = 0
        for s in states:
            if verified == 10:
                break
            x = [float(v) for v in s.x]
            y = [float(v) for v in s.y]
            for _ in range(20):
                err = _fd_check_state(f2, x, y, rng)
                if err is not None:
                    worst = max(worst, err)
                    verified += 1
                    break
        assert verified == 10, "%s: only %d states verified" % (
            name, verified
        )
    elapsed = time.time() - t0
    ok = worst <= 1e-4
    _report(
        8, ok,
        "worst relative gap %.1e over %d metrics x 10 states; %.1fs"
        % (worst, len(list_examples()), elapsed),
    )


def test_09_volume_closed_form_vs_quadrature():
    t0 = time.time()
    worst = 0.0
    rng = np.random.default_rng(4711)
    for name in ("randers_osaka", "randers_humo"):
        entry, _ = catalog_states(name)
        nodes = choose_rule(entry.metric).nodes
        for _ in range(10):
            d = rng.normal(size=3)
            x = list(d / np.linalg.norm(d) * 0.4 * rng.uniform() ** (1 / 3))
            # ln sigma: its gap is the relative gap of sigma, to first order
            closed = bh_randers_closed(entry.metric, x)
            quad = math.log(bh_sigma_quadrature(entry.metric, x, nodes=nodes))
            worst = max(worst, abs(closed - quad))
    elapsed = time.time() - t0
    ok = worst <= 1e-6
    _report(
        9, ok,
        "worst ln sigma gap %.1e at 10 points per metric; %.1fs"
        % (worst, elapsed),
    )


def test_10_hierarchy_consistency():
    t0 = time.time()
    violations = []
    mismatches = []
    for name in list_examples():
        entry = get_example(name)
        report = classify_metric(entry.metric, entry.volume, PLAN, TOL)
        violations.extend(
            "%s: %s" % (name, v) for v in report.hierarchy_violations
        )
        for pred, expected in entry.expected_verdicts.items():
            want = "holds" if expected else "fails"
            if report.verdict(pred) != want:
                mismatches.append(
                    "%s.%s=%s" % (name, pred, report.verdict(pred))
                )
    elapsed = time.time() - t0
    ok = not violations and not mismatches
    _report(
        10, ok,
        "violations=%s mismatches=%s across %d metrics; %.1fs"
        % (violations or 0, mismatches or 0, len(list_examples()), elapsed),
    )
