"""Metric families, fundamental tensor, Cartan torsion."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finslerlab import series
from finslerlab.classify import SamplePlan, classify_metric, sample_states
from finslerlab.curvature import GeometryState
from finslerlab.errors import ConfigError, RegularityError
from finslerlab.metrics import (
    TensorValue,
    cartan_torsion,
    construct_metric,
    fundamental_tensor,
    navigation_metric,
    randers_b_norm_sq,
)
from finslerlab.scalars import value_of
from finslerlab.series import Series, SeriesRing
from finslerlab.volume import bh_randers_volume
from support import fd_partial, homogeneity_defect, is_admissible, record_rings

IDENTITY2 = [["1", "0"], ["0", "1"]]


def make_randers2():
    # mildly position-dependent Randers metric on a unit-ball chart
    a = [
        ["1 + 0.2*x1^2", "0.1*x1*x2"],
        ["0.1*x1*x2", "1 + 0.1*x2^2"],
    ]
    b = ["0.3*x2", "0.2*x1"]
    return construct_metric("randers", 2, a=a, b=b, chart_radius=1.0)


def test_euclidean_f():
    m = construct_metric("euclidean", 2)
    assert m.F([0.0, 0.0], [3.0, 4.0]) == 5.0


def test_randers_f_at_simple_state():
    m = construct_metric("randers", 2, a=IDENTITY2, b=["0.5", "0"])
    assert m.F([0.0, 0.0], [1.0, 0.0]) == 1.5


def test_power_metric_at_beta_equals_alpha():
    m = construct_metric(
        "alpha_beta_power", 2, a=IDENTITY2, b=["1", "0"], m=0.5
    )
    assert m.F([0.0, 0.0], [1.0, 0.0]) == pytest.approx(1.0, rel=1e-14)


def test_power_metric_cone_is_beta_positive():
    m = construct_metric(
        "alpha_beta_power", 2, a=IDENTITY2, b=["1", "0"], m=0.5
    )
    assert is_admissible(m, [0.0, 0.0], [1.0, 0.5])
    assert not is_admissible(m, [0.0, 0.0], [-1.0, 0.5])


def test_non_symmetric_matrix_rejected():
    with pytest.raises(ConfigError):
        construct_metric("riemannian", 2, a=[["1", "0.2"], ["0.1", "1"]])


def test_large_one_form_rejected_at_center():
    with pytest.raises(RegularityError):
        construct_metric("randers", 2, a=IDENTITY2, b=["1.1", "0"])


def test_power_exponent_must_avoid_degenerate_values():
    with pytest.raises(ConfigError):
        construct_metric("alpha_beta_power", 2, a=IDENTITY2, b=["1", "0"], m=1.0)


@pytest.mark.parametrize("m", [math.inf, -math.inf, math.nan, "abc"])
def test_power_exponent_must_be_a_finite_number(m):
    with pytest.raises(ConfigError, match="exponent m must be a finite number"):
        construct_metric("alpha_beta_power", 2, a=IDENTITY2, b=["1", "0"], m=m)


def test_unknown_family():
    with pytest.raises(ConfigError):
        construct_metric("kropina_squared", 2)


def test_coefficients_may_not_depend_on_y():
    with pytest.raises(ConfigError):
        construct_metric("riemannian", 2, a=[["1", "y1"], ["y1", "1"]])


def test_fundamental_tensor_euclidean_identity():
    m = construct_metric("euclidean", 2)
    g = fundamental_tensor(m, ([0.0, 0.0], [0.6, 0.8]))
    assert np.allclose(g.components, np.eye(2), atol=1e-12)
    assert g.variance == ("lower", "lower")


def test_fundamental_tensor_riemannian_is_a_of_x():
    m = construct_metric("riemannian", 2, a=[["4", "0"], ["0", "9"]])
    for y in ([1.0, 0.0], [0.3, -0.7]):
        g = fundamental_tensor(m, ([0.1, 0.2], y))
        assert np.allclose(g.components, np.diag([4.0, 9.0]), atol=1e-10)


def test_fundamental_tensor_matches_fd_hessian():
    m = make_randers2()
    x, y = [0.2, -0.1], [0.9, 0.55]
    g = fundamental_tensor(m, (x, y)).components
    f2 = m.F2
    for i in range(2):
        for j in range(2):
            fd = 0.5 * fd_partial(f2, x, y, [("y", i), ("y", j)])
            assert abs(g[i, j] - fd) <= 1e-6 * max(1.0, abs(fd))


def test_degenerate_metric_raises_regularity():
    # quartic norm without the convexifying term: Hessian singular on axes
    m = construct_metric("dsl", 2, F="(y1^4 + y2^4)^(1/4)")
    with pytest.raises(RegularityError):
        fundamental_tensor(m, ([0.0, 0.0], [1.0, 0.0]))


def test_inverse_fundamental_diag():
    m = construct_metric("riemannian", 2, a=[["4", "0"], ["0", "9"]])
    g = fundamental_tensor(m, ([0.0, 0.0], [1.0, 1.0]))
    inv = np.linalg.inv(g.components)
    assert np.allclose(inv, np.diag([0.25, 1.0 / 9.0]), atol=1e-12)


def test_inverse_times_forward_is_identity():
    m = make_randers2()
    state = ([0.15, 0.3], [0.7, -0.5])
    g = fundamental_tensor(m, state).components
    ginv = np.linalg.inv(g)
    assert np.max(np.abs(ginv @ g - np.eye(2))) <= 1e-12


def test_cartan_torsion_riemannian_vanishes():
    m = construct_metric("riemannian", 2, a=[["4", "0"], ["0", "9"]])
    C = cartan_torsion(m, ([0.2, 0.1], [0.5, 0.6]))
    assert np.max(np.abs(C.components)) <= 1e-12


def test_cartan_torsion_contracts_to_zero_on_y():
    m = make_randers2()
    x, y = [0.2, -0.1], [0.9, 0.55]
    C = cartan_torsion(m, (x, y)).components
    assert np.max(np.abs(C @ np.array(y))) <= 1e-11
    assert np.max(np.abs(C)) > 1e-3  # genuinely non-Riemannian


def test_cartan_torsion_matches_fd():
    m = make_randers2()
    x, y = [0.1, 0.25], [0.8, 0.6]
    C = cartan_torsion(m, (x, y)).components
    f2 = m.F2
    fd = 0.25 * fd_partial(f2, x, y, [("y", 0), ("y", 0), ("y", 1)])
    assert abs(C[0, 0, 1] - fd) <= 1e-5 * max(1.0, abs(fd))


def test_metric_quadratic_form_recovers_f_squared():
    m = make_randers2()
    x, y = [0.3, 0.2], [0.6, -0.9]
    g = fundamental_tensor(m, (x, y)).components
    yv = np.array(y)
    F = m.F(x, y)
    assert float(yv @ g @ yv) == pytest.approx(F * F, rel=1e-10)


def test_homogeneity_defect_small():
    for m in (make_randers2(), construct_metric("dsl", 2, F="(y1^4 + y2^4 + 0.5*(y1^2 + y2^2)^2)^(1/4)")):
        assert homogeneity_defect(m, [0.1, 0.2], [0.7, 0.4]) <= 1e-10


def test_b_norm_uses_alpha_inner_product():
    m = construct_metric("randers", 2, a=[["4", "0"], ["0", "1"]], b=["0.8", "0.3"])
    # |b|^2 = b a^{-1} b = 0.64/4 + 0.09 = 0.25
    assert randers_b_norm_sq(m, [0.0, 0.0]) == pytest.approx(0.25, rel=1e-12)


def test_randers_chart_holds_the_regularity_condition():
    # |b|_alpha < 1 is part of a Randers metric's chart: the sampler keeps
    # no state past it and tallies such draws as outside the chart, and an
    # a(x) that numpy cannot solve is outside the chart too
    from finslerlab.classify import SamplePlan, sample_states
    from finslerlab.metrics import alpha_beta_metric

    m = construct_metric("randers", 2, a=IDENTITY2, b=["2*x1", "0"])
    batch = sample_states(m, SamplePlan(count=40, seed=0, x_radius=0.9))
    assert all(randers_b_norm_sq(m, x) < 1.0 for x, _ in batch.states)
    assert batch.rejection_reasons["chart_domain"] > 0
    assert not m.chart_domain([0.6, 0.0]) and m.chart_domain([0.4, 0.0])

    singular = alpha_beta_metric(
        "singular", 2, lambda x: [[x[0], 0.0], [0.0, 1.0]], lambda x: [0.1, 0.0]
    )
    assert not singular.chart_domain([0.0, 0.3])
    assert singular.chart_domain([0.5, 0.3])
    # so is an x where a coefficient field is undefined (sqrt of 1 + x1 < 0)
    rooted = construct_metric(
        "randers", 2, a=[["1 + sqrt(1 + x1)", "0"], ["0", "1"]], b=["0.1", "0"]
    )
    assert not rooted.chart_domain([-1.5, 0.0])
    assert rooted.chart_domain([0.2, 0.0])
    # the power family keeps the chart it is given
    power = construct_metric("alpha_beta_power", 2, a=IDENTITY2, b=["2*x1", "1"], m=0.5)
    assert power.chart_domain([0.6, 0.0])


def test_tensor_value_variance_checked():
    with pytest.raises(ValueError):
        TensorValue(np.zeros((2, 2)), ("lower",), ((0.0,), (1.0,)))


def test_dsl_family_runs_all_rings():
    m = construct_metric("dsl", 2, F="sqrt(y1^2 + y2^2) + b*y1", parameters={"b": 0.25})
    assert m.F([0.0, 0.0], [3.0, 4.0]) == pytest.approx(5.75)
    g = fundamental_tensor(m, ([0.0, 0.0], [3.0, 4.0]))
    assert g.components.shape == (2, 2)


def test_dimension_above_five_rejected_before_any_ring(monkeypatch):
    # the series root builds in 0.17 to 0.19 s of CPU at 94 MB peak RSS
    # at n=5; at n=6 it would hold 57 057 coefficients, so n=6 fails
    # before any ring is built
    from finslerlab.catalog import get_example
    from finslerlab.cli import load_metric_definition

    built = record_rings(monkeypatch, 5)
    for family, extra in (("euclidean", {}), ("dsl", {"F": "y1^2 + y6^2"})):
        with pytest.raises(ConfigError, match="dimension"):
            construct_metric(family, 6, **extra)
    with pytest.raises(ConfigError, match="dimension"):
        get_example("riemannian_sphere", n=6)
    with pytest.raises(ConfigError, match="dimension"):
        load_metric_definition(
            {"name": "six", "dimension": 6, "family": "euclidean"}
        )
    assert 6 not in built
    assert construct_metric("euclidean", 5).dimension == 5


# -- alpha^2 and beta through Series.times_y -----------------------------------


def _loop_alpha_sq(a, y):
    """sum a_ij y_i y_j in (i, j) order, one ring product per factor."""
    total = None
    for i in range(len(y)):
        for j in range(len(y)):
            term = a[i][j] * y[i] * y[j]
            total = term if total is None else total + term
    return total


def _loop_beta(b, y):
    total = None
    for i in range(len(y)):
        term = b[i] * y[i]
        total = term if total is None else total + term
    return total


def _forms(a, b, y):
    """alpha^2 and beta by series.quadratic_form and linear_form, and
    whether either took the loop (the only route that calls _of_x)."""
    with mock.patch.object(series, "_of_x", wraps=series._of_x) as loop:
        forms = series.quadratic_form(a, y), series.linear_form(b, y)
    return forms, loop.called


COEFFICIENT_KINDS = ("float", "zero", "negative", "series")


def _coefficient(ring, rng, kind):
    if kind == "float":
        return float(rng.uniform(-2.0, 2.0))
    if kind == "zero":
        return float(rng.choice([0.0, -0.0]))
    if kind == "negative":
        return -float(rng.uniform(0.5, 2.0))
    # a series of the x-only stage of y's ring, with exact zeros and a -0
    low = ring.stage(ring.cap_x, 0)
    c = rng.uniform(-1.0, 1.0, low.size) * (rng.uniform(size=low.size) < 0.7)
    c[-1] = -0.0
    return Series(low, c)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n=st.integers(2, 4),
    # the (2, 8) root and stage rings of it, among them those S's drift
    # and the spray's braces run in
    caps=st.sampled_from([(2, 8), (2, 2), (1, 3), (0, 2), (1, 8), (1, 6)]),
    seed=st.integers(0, 2**32 - 1),
    kinds=st.lists(st.sampled_from(COEFFICIENT_KINDS), min_size=20, max_size=20),
    zero=st.booleans(),
)
def test_forms_equal_the_loop(n, caps, seed, kinds, zero):
    # alpha^2 and beta from their coefficients, at y-variables with
    # negative values and maybe a zero among them: every coefficient of
    # the loop's sum of ring products, in its order (series module notes)
    ring = SeriesRing.get(n).stage(*caps)
    rng = np.random.default_rng(seed)
    kind = iter(kinds)
    a = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = _coefficient(ring, rng, next(kind))
    b = [_coefficient(ring, rng, next(kind)) for _ in range(n)]
    values = rng.uniform(-1.5, 1.5, n)
    if zero:
        values[rng.integers(n)] = 0.0
    ys = ring.y_variables(values)

    def lifted(v):  # the coefficient in y's ring, as the loop multiplies it
        return series.embed(v, ring) if isinstance(v, Series) else v

    a_ring = [[lifted(v) for v in row] for row in a]
    b_ring = [lifted(v) for v in b]
    got, looped = _forms(a, b, ys)
    assert not looped
    # a plain list of the same y-variables takes the loop, and so does a
    # series of y's own ring: both with the same bits
    listed, looped = _forms(a, b, list(ys))
    assert looped
    in_ring, looped = _forms(a_ring, b_ring, ys)
    assert looped == any(isinstance(v, Series) for v in b + sum(a, []))
    want = _loop_alpha_sq(a_ring, ys), _loop_beta(b_ring, ys)
    for forms in (got, listed, in_ring):
        for have, loop in zip(forms, want):
            assert have.ring is loop.ring
            assert np.array_equal(have.c, loop.c)


def test_forms_fall_back_to_the_loop():
    # in the root: a non-finite coefficient, a sum whose terms overflow,
    # a coefficient of y's own ring (free of y, or reading y) and a y that
    # is no y-variable each run the loop itself, as a plain list of
    # y-variables does; finite coefficients at a zero value of y do not
    ring = SeriesRing.get(3)
    xs, ys = ring.state((0.1, -0.2, 0.3), (0.5, -1.0, 2.0))
    _, huge = ring.state((0.1, -0.2, 0.3), (1e300, -1.0, 2.0))
    _, zero = ring.state((0.1, -0.2, 0.3), (0.5, 0.0, 2.0))
    moving = [xs[0] * 0.5 + 1.0, xs[1] * ys[0], -0.25]
    cases = (  # b, y, and whether the forms take the loop
        ([math.inf, 1.0, 0.5], ys, True),
        ([math.nan, 1.0, 0.5], ys, True),
        ([1.0, math.inf, 0.5], zero, True),  # inf times a zero value
        ([1.0, -0.5, 0.5], zero, False),
        ([1e300, -1.0, 2.0], huge, True),  # b_1 y_1 overflows
        ([xs[0] * 0.5 + 1.0, 1.0, 0.5], ys, True),
        (moving, ys, True),
        ([1.0, 0.5, 0.25], list(ys), True),
        ([1.0, 0.5, 0.25], [ys[0] + ys[1], ys[1], ys[2]], True),
    )
    for b, y, looped in cases:
        a = [[bi * bj for bj in b] for bi in b]
        with np.errstate(all="ignore"):
            got, took_loop = _forms(a, b, y)
            want = _loop_alpha_sq(a, y), _loop_beta(b, y)
        assert took_loop == looped
        for have, loop in zip(got, want):
            assert have.ring is loop.ring
            assert np.array_equal(have.c, loop.c, equal_nan=True)


def test_forms_check_the_coefficients_before_y(monkeypatch):
    # a batched coefficient, as in the spray's braces, takes the loop
    # before any product by y
    ring = SeriesRing.get(3).stage(1, 6)
    xs, ys = ring.state((0.1, -0.2, 0.3), (0.5, -1.0, 2.0))
    batched = Series(ring, np.stack([xs[0].c, (xs[1] * xs[2]).c]))
    b = [batched, 1.0, xs[2]]
    want = _loop_beta(b, ys)

    def refuse(self, u):
        raise AssertionError("a coefficient was multiplied by y")

    monkeypatch.setattr(Series, "times_y", refuse)
    assert np.array_equal(series.linear_form(b, ys).c, want.c)


# Navigation by W = q J x + c x on Euclidean R^3, J the rotation in the
# (x1, x2) plane: W is an infinitesimal homothety, so F has constant flag
# curvature K = -c^2/4 (Bao, Robles & Shen, "Zermelo navigation on
# Riemannian manifolds", JDG 2004), and with the BH volume
# S = -(n+1)(c/2) F (Xing, "The geometric meaning of Randers metrics with
# isotropic S-curvature", 2005); beta is closed, so F is Douglas, exactly
# when q = 0, and R is quadratic exactly when c = 0.  Measured over the
# 13 draws below (plan seed 1, 20 states each): |lambda_hat + c^2/4| at
# most 1.6e-16 and |S/((n+1)F) + c/2| at most 2.2e-16.
NAVIGATION_BOUND = 1e-14
rate = st.one_of(st.just(0.0), st.floats(0.05, 0.9), st.floats(-0.9, -0.05))


@settings(max_examples=8, deadline=None, derandomize=True)
@given(q=rate, c=rate)
@example(q=0.3, c=0.0)
@example(q=0.0, c=0.5)
@example(q=0.3, c=0.5)
@example(q=0.3, c=-0.8)
@example(q=0.7, c=0.2)
def test_navigation_by_a_homothety_matches_bao_robles_shen(q, c):
    n = 3
    metric = navigation_metric(
        "homothety", n,
        lambda x: [-q * x[1] + c * x[0], q * x[0] + c * x[1], c * x[2]],
    )
    volume = bh_randers_volume(metric)
    # |W| <= 0.4 sqrt(q^2 + c^2) < 1 on the sample ball: inside the chart
    plan = SamplePlan(seed=1)
    report = classify_metric(metric, volume, plan)
    assert report.errored_states == 0 and not report.hierarchy_violations
    flag = report.predicates["constant_flag"]
    assert flag.verdict == "holds"
    assert abs(flag.details["lambda_hat"] + c * c / 4.0) <= NAVIGATION_BOUND
    assert report.verdict("douglas") == ("holds" if q == 0.0 else "fails")
    assert report.verdict("r_quadratic") == ("holds" if c == 0.0 else "fails")
    s_gap = 0.0
    for x, y in sample_states(metric, plan).states:
        S = GeometryState(metric, volume, x, y).frame.S
        F = value_of(metric.F(x, y))
        s_gap = max(s_gap, abs(S / ((n + 1) * F) + c / 2.0))
    assert s_gap <= NAVIGATION_BOUND
