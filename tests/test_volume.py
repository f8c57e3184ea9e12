import math
from dataclasses import replace

import numpy as np
import pytest

from finslerlab.catalog import get_example, list_examples
from finslerlab.classify import SamplePlan, sample_states
from finslerlab.curvature import GeometryState, residual_scale, s_curvature
from finslerlab.engine import Frame
from finslerlab.errors import ConfigError, DomainError, TowerBudgetError
from finslerlab.metrics import (
    MetricSpec,
    alpha_beta_metric,
    construct_metric,
    randers_b_norm_sq,
    riemannian_metric,
)
from finslerlab.scalars import ln, value_of
from finslerlab.series import SeriesRing
from finslerlab.volume import (
    LADDER,
    bh_quadrature_volume,
    bh_randers_closed,
    bh_randers_volume,
    bh_sigma_quadrature,
    choose_rule,
    constant_volume,
    dsl_volume,
    grid_shape,
    sphere_nodes,
    unit_ball_volume,
)

from jet_oracle import seed_direction
from support import closed_randers_sigma, fd_partial, long_double_log_sigma, randers_n4


def osaka_like(n=3):
    def a_fn(x):
        w = 1.0 - x[0] * x[0] - x[1] * x[1]
        q = [-x[1], x[0], 0.0]
        return [
            [(w * (1.0 if i == j else 0.0) + q[i] * q[j]) / (w * w) for j in range(n)]
            for i in range(n)
        ]

    def b_fn(x):
        w = 1.0 - x[0] * x[0] - x[1] * x[1]
        return [-x[1] / w, x[0] / w, 0.0]

    return alpha_beta_metric("osaka_like", n, a_fn, b_fn)


def test_unit_ball_volumes():
    assert unit_ball_volume(2) == pytest.approx(math.pi)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)


def test_sphere_nodes_weights_sum_to_sphere_area():
    areas = {2: 2.0 * math.pi, 3: 4.0 * math.pi, 4: 2.0 * math.pi**2}
    for n, area in areas.items():
        for m in LADDER:
            dirs, weights = sphere_nodes(n, m)
            assert len(dirs) == len(weights) == math.prod(grid_shape(n, m))
            assert weights.sum() == pytest.approx(area, rel=1e-12)
            assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)
            # every rung integrates the quadratics exactly
            second = (dirs.T * weights) @ dirs
            assert np.allclose(second, area / n * np.eye(n), atol=1e-13)


def test_sphere_nodes_unsupported_dimension():
    with pytest.raises(ConfigError):
        sphere_nodes(5, LADDER[0])
    # up front, before any probe
    with pytest.raises(ConfigError, match="n in"):
        bh_quadrature_volume(construct_metric(family="euclidean", dimension=5))


def test_euclidean_quadrature_density_is_one():
    for n in (2, 3):
        metric = construct_metric(family="euclidean", dimension=n)
        sigma = bh_sigma_quadrature(metric, [0.0] * n, nodes=choose_rule(metric).nodes)
        assert sigma == pytest.approx(1.0, abs=1e-12)


def test_riemannian_density_matches_sqrt_det():
    metric = riemannian_metric(
        "diag49", 2, lambda x: [[4.0, 0.0], [0.0, 9.0]]
    )
    sigma = bh_sigma_quadrature(metric, [0.2, -0.1], nodes=choose_rule(metric).nodes)
    assert abs(sigma - 6.0) <= 1e-8


def test_randers_closed_form_flat_example():
    metric = alpha_beta_metric(
        "flat_randers",
        2,
        lambda x: [[1.0, 0.0], [0.0, 1.0]],
        lambda x: [0.5, 0.0],
    )
    log_sigma = bh_randers_closed(metric, [0.0, 0.0])
    assert log_sigma == pytest.approx(1.5 * math.log(0.75), rel=1e-14)


def test_randers_closed_vs_quadrature_2d():
    metric = alpha_beta_metric(
        "flat_randers2",
        2,
        lambda x: [[1.0, 0.0], [0.0, 1.0]],
        lambda x: [0.3, 0.1],
    )
    x = [0.0, 0.0]
    # ln sigma: its gap is the relative gap of sigma, to first order
    closed = bh_randers_closed(metric, x)
    quad = math.log(bh_sigma_quadrature(metric, x, nodes=choose_rule(metric).nodes))
    assert abs(closed - quad) <= 1e-6


def test_randers_closed_vs_quadrature_curved_3d():
    metric = osaka_like()
    nodes = choose_rule(metric).nodes
    for x in ([0.1, 0.2, 0.0], [0.3, -0.1, 0.25], [-0.2, -0.2, 0.1]):
        closed = bh_randers_closed(metric, x)
        quad = math.log(bh_sigma_quadrature(metric, x, nodes=nodes))
        assert abs(closed - quad) <= 1e-6


def test_quadrature_rejects_conic_metric():
    metric = alpha_beta_metric(
        "kropina_like",
        2,
        lambda x: [[1.0, 0.0], [0.0, 1.0]],
        lambda x: [1.0, 0.0],
        power_m=0.5,
    )
    with pytest.raises(DomainError):
        bh_sigma_quadrature(metric, [0.0, 0.0], nodes=sphere_nodes(2, LADDER[0]))
    with pytest.raises(ConfigError):
        bh_quadrature_volume(metric)


def test_quadrature_rejects_nonpositive_f():
    metric = alpha_beta_metric(
        "bad_randers",
        2,
        lambda x: [[1.0, 0.0], [0.0, 1.0]],
        lambda x: [1.2, 0.0],
    )
    with pytest.raises(DomainError):
        bh_sigma_quadrature(metric, [0.0, 0.0], nodes=sphere_nodes(2, LADDER[0]))


def test_closed_form_requires_randers():
    metric = construct_metric(family="euclidean", dimension=2)
    with pytest.raises(ConfigError):
        bh_randers_closed(metric, [0.0, 0.0])


def test_constant_volume():
    form = constant_volume(2.5)
    assert form.kind == "constant"
    assert form.log_sigma([0.1, 0.2]) == math.log(2.5)
    with pytest.raises(ConfigError):
        constant_volume(0.0)


def test_dsl_volume_evaluates_and_differentiates():
    form = dsl_volume("exp(3*x1)", 3)
    assert form.log_sigma([0.2, 0.0, 0.0]) == pytest.approx(0.6)
    x = seed_direction([0.2, 0.0, 0.0], 0, 0)
    jet = form.log_sigma(x)
    assert jet.tangent.value() == pytest.approx(3.0, rel=1e-12)


def test_dsl_volume_rejects_y_dependence():
    with pytest.raises(ConfigError):
        dsl_volume("1 + y1^2", 3)


@pytest.mark.parametrize("value", ["abc", math.nan, math.inf])
def test_dsl_volume_rejects_a_parameter_that_is_no_number(value):
    with pytest.raises(ConfigError, match="parameter 'k' must be a finite number"):
        dsl_volume("1 + k*x1^2", 3, {"k": value})


def varying_randers():
    # a Randers metric whose BH density varies with x (osaka's is 1)
    def a_fn(x):
        return [
            [1.0 + 0.3 * x[0] * x[0], 0.1 * x[1], 0.0],
            [0.1 * x[1], 1.0 + 0.2 * x[2], 0.0],
            [0.0, 0.0, 1.0 + 0.1 * x[0]],
        ]

    def b_fn(x):
        return [0.2 + 0.1 * x[1], 0.1 * x[0], 0.15 * x[2]]

    return alpha_beta_metric("varying_randers", 3, a_fn, b_fn)


QUAD_BASE = [0.1, 0.15, 0.05]


def _xonly_state(x):
    ring = SeriesRing.get(3).stage(2, 0)
    return [ring.variable_x(i, x[i]) for i in range(3)]


def test_quadrature_sigma_x_partial_matches_fd():
    for metric in (osaka_like(), varying_randers()):
        nodes = choose_rule(metric).nodes
        sigma = bh_sigma_quadrature(metric, _xonly_state(QUAD_BASE), nodes=nodes)
        got = sigma.partials(1, 0)[0]
        want = fd_partial(
            lambda x, y: bh_sigma_quadrature(metric, x, nodes=nodes),
            QUAD_BASE, [0.0] * 3, [("x", 0)],
        )
        assert got == pytest.approx(want, rel=1e-7), metric.name


def test_quadrature_sigma_series_matches_randers_closed_form():
    # every coefficient of ln sigma: value, all first and second
    # x-partials, of max(1, max |closed|)
    for metric in (osaka_like(), varying_randers()):
        x = _xonly_state(QUAD_BASE)
        quad = ln(bh_sigma_quadrature(metric, x, nodes=choose_rule(metric).nodes))
        closed = bh_randers_closed(metric, x)
        assert (quad.bx, quad.by) == (closed.bx, closed.by) == (2, 0)
        scale = max(1.0, np.abs(closed.c).max())
        assert np.abs(quad.c - closed.c).max() <= 1e-6 * scale, metric.name


def test_quadrature_rejects_jet_x():
    x = seed_direction(QUAD_BASE, 0, 0)
    with pytest.raises(TypeError, match="x-only Series"):
        bh_sigma_quadrature(osaka_like(), x, nodes=sphere_nodes(3, LADDER[0]))


def test_randers_closed_density_is_ring_generic():
    # ln sigma in the root ring against floats, and its first x-partial
    # against the sweep's sigma (support.closed_randers_sigma) on jets;
    # osaka's sigma is 1, varying_randers' is not
    x_float = [0.1, 0.2, 0.0]
    ring = SeriesRing.get(3)
    x_ring = [ring.variable_x(i, x_float[i]) for i in range(3)]
    for metric in (osaka_like(), varying_randers()):
        got = bh_randers_closed(metric, x_ring)
        want = bh_randers_closed(metric, x_float)
        assert got.value() == pytest.approx(want, rel=1e-13)
        jet = ln(closed_randers_sigma(metric, seed_direction(x_float, 0, 0)))
        assert got.partials(1, 0)[0] == pytest.approx(jet.tangent.value(), rel=1e-11)
        # the lane route takes floats and Series free of y, not jets,
        # and not coordinates that move with y, where its ln det a would
        # be truncated
        moving = [v + 0.5 * ring.variable_y(i, 0.0) for i, v in enumerate(x_ring)]
        for x in (seed_direction(x_float, 0, 0), moving):
            with pytest.raises(TypeError, match="floats or as x-only Series"):
                bh_randers_closed(metric, x)


def test_randers_closed_reads_the_spec_fields():
    # the density reads MetricSpec.a_fn and b_fn themselves: a Randers
    # spec built from them directly gives the same ln sigma, and a copy
    # with a replaced a_fn gives its own, also where the original's
    # memo holds the state
    metric = varying_randers()
    direct = MetricSpec(
        name="direct",
        dimension=3,
        F=metric.F,
        chart_domain=metric.chart_domain,
        cone_domain=metric.cone_domain,
        family="randers",
        a_fn=metric.a_fn,
        b_fn=metric.b_fn,
    )
    scaled = replace(
        metric, a_fn=lambda x: [[2.0 * v for v in row] for row in metric.a_fn(x)]
    )
    for x in (QUAD_BASE, _xonly_state(QUAD_BASE)):
        own = bh_randers_volume(metric).log_sigma(x)
        assert value_of(bh_randers_volume(direct).log_sigma(x)) == value_of(own)
        got = bh_randers_volume(scaled).log_sigma(x)
        want = ln(closed_randers_sigma(scaled, x))
        assert value_of(got) == pytest.approx(value_of(want), rel=1e-13)
        # a scaled by 2: ln det a gains (3/2) ln 2, and |b|^2 halves
        assert abs(value_of(got) - value_of(own)) > 0.5


# every coefficient of ln sigma against ln of the sweep's sigma
# (support.closed_randers_sigma) in the x-only stage, of max(1, max
# |reference|), at the 20 sampled x of plan seeds 0-9: measured at most
# 2.2e-15 (randers_osaka; baoshen 1.0e-15, n4 3.3e-16, humo 2.4e-16)
CLOSED_COEFFICIENT_REL = 5e-15


def _closed_entries():
    entries = {name: get_example(name) for name in list_examples()}
    entries = {k: e for k, e in entries.items() if e.metric.family == "randers"}
    assert sorted(entries) == ["randers_baoshen", "randers_humo", "randers_osaka"]
    return {**entries, "randers_n4": randers_n4()}


def test_randers_closed_coefficients_match_the_sweep():
    for name, entry in _closed_entries().items():
        metric = entry.metric
        ring = SeriesRing.get(metric.dimension).stage(2, 0)
        worst = 0.0
        for seed in range(10):
            for x, _ in sample_states(metric, SamplePlan(seed=seed)).states:
                xs = [ring.variable_x(i, v) for i, v in enumerate(x)]
                got = bh_randers_closed(metric, xs)
                want = ln(closed_randers_sigma(metric, xs))
                assert got.ring is want.ring is ring
                scale = max(1.0, float(np.abs(want.c).max()))
                worst = max(worst, float(np.abs(got.c - want.c).max()) / scale)
        assert worst <= CLOSED_COEFFICIENT_REL, (name, worst)


# ln sigma on floats against long_double_log_sigma of the same float a(x)
# and b(x) (evaluated in the (0, 0) stage, as the route evaluates them),
# of max(1, |reference|), at the 20 sampled x of plan seeds 0-9: measured
# at most 5.6e-16 (randers_baoshen; osaka 2.2e-16, humo 2.2e-16, n4
# 2.6e-16), where sigma through the sweep, powr and sqrt read 7.1e-16
# (baoshen) from float a(x) and b(x); about twice the larger
CLOSED_LONG_DOUBLE_REL = 1.5e-15


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
    reason="np.longdouble is float64 on this platform: no wider reference",
)
def test_randers_closed_value_against_long_double():
    for name, entry in _closed_entries().items():
        metric = entry.metric
        n = metric.dimension
        ring = SeriesRing.get(n).stage(0, 0)
        worst = 0.0
        for seed in range(10):
            for x, _ in sample_states(metric, SamplePlan(seed=seed)).states:
                got = bh_randers_closed(metric, list(x))
                assert isinstance(got, float)
                lifted = [ring.constant(v) for v in x]
                a = [[value_of(v) for v in row] for row in metric.a_fn(lifted)]
                b = [value_of(v) for v in metric.b_fn(lifted)]
                want = long_double_log_sigma(a, b)
                err = abs(np.longdouble(got) - want) / max(1, abs(want))
                worst = max(worst, float(err))
        assert worst <= CLOSED_LONG_DOUBLE_REL, (name, worst)


def test_randers_closed_domain_and_budget_errors():
    metric = varying_randers()

    def flat(name, a, b):
        return alpha_beta_metric(name, 2, lambda x: a, lambda x: b)

    # |b|^2 >= 1, and det a <= 0, at the value
    far = flat("far", [[1.0, 0.0], [0.0, 1.0]], [1.0, 0.0])
    with pytest.raises(DomainError, match="norm\\^2 1.000000 >= 1"):
        bh_randers_closed(far, [0.0, 0.0])
    flip = flat("flip", [[1.0, 0.0], [0.0, -1.0]], [0.1, 0.0])
    with pytest.raises(DomainError, match="det"):
        bh_randers_closed(flip, [0.0, 0.0])
    # a zero leading minor stops the sweep: the same DomainError
    swap = flat("swap", [[0.0, 1.0], [1.0, 0.0]], [0.1, 0.0])
    ring = SeriesRing.get(2).stage(2, 0)
    for x in ([0.0, 0.0], [ring.variable_x(i, 0.0) for i in range(2)]):
        with pytest.raises(DomainError, match="det 0.0"):
            bh_randers_closed(swap, x)
    # ln det a is exact only to x-order or total degree 2
    for caps, fails in (((3, 0), True), ((2, 1), False), ((3, 2, 2), False)):
        ring = SeriesRing(3, *caps)
        xs = [ring.variable_x(i, v) for i, v in enumerate(QUAD_BASE)]
        if fails:
            with pytest.raises(TowerBudgetError, match="ln det a"):
                bh_randers_closed(metric, xs)
        else:
            assert bh_randers_closed(metric, xs).ring is ring


def _counting(metric_fn):
    calls = []
    base = metric_fn()

    def a_fn(x):
        calls.append(x)
        return base.a_fn(x)

    metric = alpha_beta_metric("counted", base.dimension, a_fn, base.b_fn)
    return metric, calls


def test_a_state_evaluates_the_fields_once():
    # F^2 and the closed density of one state read a(x) and b(x) through
    # one memoized evaluation (the parent evaluated them twice); states
    # 1, 2 and 1 again give the arrays of Frames with a cold memo
    metric, calls = _counting(varying_randers)
    volume = bh_randers_volume(metric)
    states = sample_states(metric, SamplePlan(count=2, seed=3)).states
    calls.clear()  # the sampler's chart checks read a(x) on floats
    frame = Frame(metric, volume, *states[0])
    frame.S, frame.tau
    assert len(calls) == 1
    fields = ("g", "G", "S", "S_x", "S_y", "tau", "tau_x", "tau_y")
    for x, y in (states[0], states[1], states[0]):
        warm = Frame(metric, volume, x, y)
        fresh_metric, _ = _counting(varying_randers)
        cold = Frame(fresh_metric, bh_randers_volume(fresh_metric), x, y)
        for field in fields:
            assert np.array_equal(getattr(warm, field), getattr(cold, field)), field
    # the chart reads a(x) on floats, past the memo
    x = [float(v) for v in states[1][0]]
    calls.clear()
    inside = metric.chart_domain(x)
    assert len(calls) == 1
    assert inside and randers_b_norm_sq(metric, x) < 1.0


def test_volume_form_constructors_record_kind():
    metric = osaka_like()
    closed = bh_randers_volume(metric)
    quad = bh_quadrature_volume(metric)
    assert closed.kind == "bh_randers_closed"
    assert quad.kind == "bh_quadrature"
    x = [0.1, 0.2, 0.0]
    assert closed.log_sigma(x) == pytest.approx(quad.log_sigma(x), abs=1e-6)


# the chosen rule's ln sigma series against the closed form's, every
# coefficient, of max(1, max |closed|), at the 20 sampled x of each of
# plan seeds 0-39: measured at most 3.6e-15 (randers_baoshen; osaka
# 2.5e-15, humo 1.1e-15), where the fixed 48 x 96 grid read up to 8.2e-15
RULE_GATE_REL = 1e-14


def _ln_sigma_gap(metric, nodes, x):
    ring = SeriesRing.get(metric.dimension).stage(2, 0)
    xs = [ring.variable_x(i, v) for i, v in enumerate(x)]
    quad = ln(bh_sigma_quadrature(metric, xs, nodes=nodes)).c
    closed = bh_randers_closed(metric, xs).c
    return np.abs(quad - closed).max() / max(1.0, np.abs(closed).max())


def test_chosen_rule_matches_randers_closed_form():
    rules = {}
    for name in list_examples():
        metric = get_example(name).metric
        if metric.family != "randers":
            continue
        rule = rules[name] = bh_quadrature_volume(metric).rule
        worst = max(
            _ln_sigma_gap(metric, rule.nodes, x)
            for seed in range(40)
            for x, _ in sample_states(metric, SamplePlan(seed=seed)).states
        )
        assert worst <= RULE_GATE_REL, (name, worst)
        assert worst <= rule.estimate, (name, worst, rule.estimate)
    assert sorted(rules) == ["randers_baoshen", "randers_humo", "randers_osaka"]
    # a ladder, not a fixed grid: baoshen needs a finer rung than osaka
    assert rules["randers_baoshen"].directions > rules["randers_osaka"].directions


def test_hopf_rule_matches_randers_closed_form_n4():
    # measured 3.3e-15 for ln sigma and 1.3e-16 of scale for S; the rung
    # below the chosen one (12 x 24 x 24) reads 2.2e-15, and 8 x 16 x 16
    # 9.4e-12, so the ladder must not stop there
    entry = randers_n4()
    volume = bh_quadrature_volume(entry.metric)
    assert volume.rule.shape == (16, 32, 32)
    states = sample_states(entry.metric, SamplePlan(count=3, seed=1)).states
    for x, _ in states:
        assert _ln_sigma_gap(entry.metric, volume.rule.nodes, x) <= RULE_GATE_REL
    x, y = states[0]
    quad = GeometryState(entry.metric, volume, x, y)
    closed = GeometryState(entry.metric, entry.volume, x, y)
    assert abs(s_curvature(quad) - s_curvature(closed)) <= 1e-14 * residual_scale(closed)
