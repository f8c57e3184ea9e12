import math

import numpy as np
import pytest

from finslerlab.catalog import get_example, list_examples
from finslerlab.classify import SamplePlan, sample_states
from finslerlab.curvature import GeometryState, residual_scale, s_curvature
from finslerlab.errors import ConfigError, DomainError
from finslerlab.metrics import alpha_beta_metric, construct_metric, riemannian_metric
from finslerlab.scalars import ln
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
from support import fd_partial, randers_n4


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
    sigma = bh_randers_closed(metric, [0.0, 0.0])
    assert sigma == pytest.approx(0.75**1.5, rel=1e-14)


def test_randers_closed_vs_quadrature_2d():
    metric = alpha_beta_metric(
        "flat_randers2",
        2,
        lambda x: [[1.0, 0.0], [0.0, 1.0]],
        lambda x: [0.3, 0.1],
    )
    x = [0.0, 0.0]
    closed = bh_randers_closed(metric, x)
    quad = bh_sigma_quadrature(metric, x, nodes=choose_rule(metric).nodes)
    assert abs(closed - quad) / closed <= 1e-6


def test_randers_closed_vs_quadrature_curved_3d():
    metric = osaka_like()
    nodes = choose_rule(metric).nodes
    for x in ([0.1, 0.2, 0.0], [0.3, -0.1, 0.25], [-0.2, -0.2, 0.1]):
        closed = bh_randers_closed(metric, x)
        quad = bh_sigma_quadrature(metric, x, nodes=nodes)
        assert abs(closed - quad) / closed <= 1e-6


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
    assert form.sigma([0.1, 0.2]) == 2.5
    with pytest.raises(ConfigError):
        constant_volume(0.0)


def test_dsl_volume_evaluates_and_differentiates():
    form = dsl_volume("exp(3*x1)", 3)
    assert form.sigma([0.2, 0.0, 0.0]) == pytest.approx(math.exp(0.6))
    x = seed_direction([0.2, 0.0, 0.0], 0, 0)
    jet = form.sigma(x)
    assert jet.tangent.value() == pytest.approx(3.0 * math.exp(0.6), rel=1e-12)


def test_dsl_volume_rejects_y_dependence():
    with pytest.raises(ConfigError):
        dsl_volume("1 + y1^2", 3)


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
    # every coefficient: value, all first and second x-partials
    for metric in (osaka_like(), varying_randers()):
        x = _xonly_state(QUAD_BASE)
        quad = bh_sigma_quadrature(metric, x, nodes=choose_rule(metric).nodes)
        closed = bh_randers_closed(metric, x)
        assert (quad.bx, quad.by) == (closed.bx, closed.by) == (2, 0)
        scale = np.abs(closed.c).max()
        assert np.abs(quad.c - closed.c).max() <= 1e-6 * scale, metric.name


def test_quadrature_rejects_jet_x():
    x = seed_direction(QUAD_BASE, 0, 0)
    with pytest.raises(TypeError, match="x-only Series"):
        bh_sigma_quadrature(osaka_like(), x, nodes=sphere_nodes(3, LADDER[0]))


def test_randers_closed_density_is_ring_generic():
    metric = osaka_like()
    x_float = [0.1, 0.2, 0.0]
    ring = SeriesRing.get(3)
    x_ring = [ring.variable_x(i, x_float[i]) for i in range(3)]
    got = bh_randers_closed(metric, x_ring)
    want = bh_randers_closed(metric, x_float)
    assert got.value() == pytest.approx(want, rel=1e-13)
    # first x-derivative from the series matches jets
    jx = seed_direction(x_float, 0, 0)
    jet = bh_randers_closed(metric, jx)
    assert got.partials(1, 0)[0] == pytest.approx(
        jet.tangent.value(), rel=1e-11
    )


def test_volume_form_constructors_record_kind():
    metric = osaka_like()
    closed = bh_randers_volume(metric)
    quad = bh_quadrature_volume(metric)
    assert closed.kind == "bh_randers_closed"
    assert quad.kind == "bh_quadrature"
    x = [0.1, 0.2, 0.0]
    assert closed.sigma(x) == pytest.approx(quad.sigma(x), rel=1e-6)


# the chosen rule's ln sigma series against the closed form's, every
# coefficient, of max(1, max |closed|), at the 20 sampled x of each of
# plan seeds 0-39: measured at most 3.6e-15 (randers_baoshen; osaka
# 2.5e-15, humo 1.1e-15), where the fixed 48 x 96 grid read up to 8.2e-15
RULE_GATE_REL = 1e-14


def _ln_sigma_gap(metric, nodes, x):
    ring = SeriesRing.get(metric.dimension).stage(2, 0)
    xs = [ring.variable_x(i, v) for i, v in enumerate(x)]
    quad = ln(bh_sigma_quadrature(metric, xs, nodes=nodes)).c
    closed = ln(bh_randers_closed(metric, xs)).c
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
