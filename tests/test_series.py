"""Truncated series ring, cross-checked against the jet towers of the
test oracle (jet_oracle).

The towers are the reference semantics; the series ring must reproduce
their partials to rounding accuracy on every composition the geometry
pipeline uses (rational, sqrt, exp, ln, fractional powers).
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finslerlab import catalog, classify, engine, scalars, series as series_module
from finslerlab.errors import DomainError, EvalError, TowerBudgetError
from finslerlab.expr import evaluate, parse
from finslerlab.series import Series, SeriesRing, embed, restrict

from jet_oracle import mixed_partial
from support import all_pairs_triples, derivative, randers_n4


def partial_of(series, wrt):
    """The mixed partial named by wrt, read through Series.partials."""
    xslots = [idx for kind, idx in wrt if kind == "x"]
    yslots = [idx for kind, idx in wrt if kind == "y"]
    return series.partials(len(xslots), len(yslots))[tuple(xslots + yslots)]


def smooth3(x, y):
    # same composition depth as a Randers metric squared, n=3
    w = 1.0 + 0.3 * x[0] * x[0] + 0.1 * x[0] * x[1] - 0.2 * x[2]
    quad = (
        w * (y[0] * y[0] + y[1] * y[1] + y[2] * y[2])
        + x[1] * y[0] * y[1]
        + 0.5 * x[2] * y[1] * y[2]
    )
    alpha = scalars.sqrt(quad)
    beta = 0.2 * x[1] * y[0] + 0.1 * x[0] * y[1] - 0.15 * x[2] * y[2]
    F = alpha + beta
    return F * F


def transcend3(x, y):
    inner = 2.0 + 0.3 * x[0] + 0.25 * y[0] * y[1] - 0.1 * x[2] * y[2]
    return scalars.exp(0.2 * x[1] * y[0]) * scalars.ln(inner) + scalars.powr(
        inner, -1.5
    )


X3 = [0.25, -0.15, 0.3]
Y3 = [1.1, 0.7, -0.4]

DERIV_BATTERY = [
    [],
    [("y", 0)],
    [("x", 2)],
    [("y", 0), ("y", 1)],
    [("x", 0), ("y", 2)],
    [("y", 0), ("y", 1), ("y", 2)],
    [("x", 0), ("x", 1), ("y", 0), ("y", 1)],
    [("y", 0)] * 4 + [("x", 1)],
    [("y", 0), ("y", 1), ("y", 2), ("y", 0), ("y", 1), ("y", 2)],
    [("x", 0), ("y", 0), ("y", 1), ("y", 2), ("y", 1), ("y", 0), ("y", 2)],
]


@pytest.mark.parametrize("f", [smooth3, transcend3])
@pytest.mark.parametrize("wrt", DERIV_BATTERY, ids=[str(i) for i in range(len(DERIV_BATTERY))])
def test_partials_match_jets(f, wrt):
    ring = SeriesRing.get(3)
    xs, ys = ring.state(X3, Y3)
    series = f(xs, ys)
    got = partial_of(series, wrt)
    if len(wrt) <= 6:
        want = mixed_partial(f, X3, Y3, wrt)
    else:
        want = mixed_partial(f, X3, Y3, wrt)  # order 7 still fits the cap
    assert got == pytest.approx(want, rel=1e-11, abs=1e-11), (wrt, got, want)


def test_polynomial_partials_exact():
    ring = SeriesRing.get(2)
    xs, ys = ring.state([2.0, 0.0], [3.0, 1.0])
    series = 3.0 * xs[0] * xs[0] * ys[0] * ys[0] * ys[0]
    assert series.partials(1, 2)[0, 0, 0] == 216.0
    assert series.partials(2, 3)[0, 0, 0, 0, 0] == 36.0
    assert series.partials(0, 0) == 3.0 * 4.0 * 27.0


def test_value_parts():
    ring = SeriesRing.get(2)
    xs, ys = ring.state([0.5, 0.0], [3.0, 4.0])
    F2 = ys[0] * ys[0] + ys[1] * ys[1]
    assert F2.value() == 25.0
    assert scalars.value_of(F2) == 25.0


def test_ring_is_cached():
    assert SeriesRing.get(3) is SeriesRing.get(3)
    assert SeriesRing.get(3) is not SeriesRing.get(2)


def test_budgets_decrease_and_exhaust():
    ring = SeriesRing.get(2)
    xs, ys = ring.state([0.1, 0.2], [1.0, 2.0])
    p = (xs[0] + ys[0] * ys[1]) * (xs[1] + ys[0])
    d = derivative(p, "x", 0, 1)
    assert (d.bx, d.by) == (0, ring.cap_y)
    with pytest.raises(TowerBudgetError):
        d.grad("x", d.ring)
    yd = derivative(p, "y", *[0] * ring.cap_y)
    with pytest.raises(TowerBudgetError):
        yd.grad("y", yd.ring)


def test_partials_respect_budget():
    ring = SeriesRing.get(2)
    xs, ys = ring.state([0.1, 0.2], [1.0, 2.0])
    p = derivative(xs[0] * ys[0] * ys[1], "x", 0, 1)  # bx exhausted, bd = cap_d - 2
    assert (p.bx, p.by, p.bd) == (0, ring.cap_y, ring.cap_d - 2)
    assert p.partials(0, p.bd).shape == (2,) * p.bd
    with pytest.raises(TowerBudgetError):
        p.partials(1, 0)
    with pytest.raises(TowerBudgetError):
        p.partials(0, ring.cap_y)  # within by, past the total cap
    q = derivative(p, "y", 0)  # by = cap_y - 1, bd = cap_d - 3
    with pytest.raises(TowerBudgetError):
        q.partials(0, ring.cap_y)
    with pytest.raises(TowerBudgetError):
        q.partials(0, q.bd + 1)


@pytest.mark.parametrize("nx, ny", [(0, 0), (0, 1), (0, 2), (0, 3), (0, 4),
                                    (1, 0), (1, 1), (1, 2), (1, 3)])
def test_partials_table_matches_jets(nx, ny):
    # every slot tuple of the order, on a transcendental F at n=3
    ring = SeriesRing.get(3)
    xs, ys = ring.state(X3, Y3)
    got = transcend3(xs, ys).partials(nx, ny)
    assert got.shape == (3,) * (nx + ny)
    for slots in itertools.product(range(3), repeat=nx + ny):
        wrt = [("x", m) for m in slots[:nx]] + [("y", r) for r in slots[nx:]]
        want = mixed_partial(transcend3, X3, Y3, wrt)
        assert got[slots] == pytest.approx(want, rel=1e-11, abs=1e-11), slots


def test_hard_truncation_beyond_budget():
    # a result lives in the stage ring of the common budget, so no
    # coefficient beyond that budget is stored
    ring = SeriesRing.get(2)
    xs, ys = ring.state([0.3, 0.1], [1.0, 0.5])
    a = (1.0 + xs[0] + ys[0]).powr(5)  # full budget
    b = derivative(a, "y", 0, 0)  # by = cap_y - 2, bd = cap_d - 2
    common = ring.stage(2, ring.cap_y - 2, ring.cap_d - 2)
    assert a.ring is ring and b.ring is common
    for mixed in (a + b, b - a, a * b, b / a):
        assert mixed.ring is common
        assert (mixed.bx, mixed.by, mixed.bd) == (2, ring.cap_y - 2, ring.cap_d - 2)
        assert mixed.c.shape == (common.size,)
    assert not (common.deg > ring.cap_d - 2).any()
    c = derivative(a, "x", 1) * b  # (1, cap_y, cap_d - 1) by (2, cap_y - 2, cap_d - 2)
    assert c.ring is ring.stage(1, ring.cap_y - 2, ring.cap_d - 2)
    assert not ((c.ring.xdeg > 1) | (c.ring.ydeg > ring.cap_y - 2)).any()
    assert not (c.ring.deg > ring.cap_d - 2).any()


def test_division_matches_jets():
    f = lambda x, y: (1.0 + y[0] * y[0]) / (2.0 + x[0] * y[1])
    ring = SeriesRing.get(2)
    xs, ys = ring.state([0.4, 0.0], [0.7, 1.2])
    series = f(xs, ys)
    for wrt in ([("y", 0)], [("y", 1), ("y", 1)], [("x", 0), ("y", 1), ("y", 0)]):
        want = mixed_partial(f, [0.4, 0.0], [0.7, 1.2], wrt)
        got = partial_of(series, wrt)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-13)


def test_reciprocal_of_zero_value_raises():
    ring = SeriesRing.get(2)
    xs, ys = ring.state([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(DomainError):
        1.0 / xs[0]


def test_sqrt_of_negative_value_raises():
    ring = SeriesRing.get(2)
    xs, _ = ring.state([-2.0, 0.0], [1.0, 0.0])
    with pytest.raises(DomainError):
        xs[0].sqrt()


def test_exp_overflow_names_the_value_part():
    # math.exp raises OverflowError past about 709.78; the rings raise a
    # DomainError that names the value part (and its lane, if batched)
    ring = SeriesRing.get(3).stage(2, 0)
    with pytest.raises(DomainError, match=r"exp of value 800\.0 overflows"):
        scalars.exp(800.0)
    with pytest.raises(DomainError, match=r"fractional power of value 1e\+300"):
        scalars.powr(1e300, 3.5)
    with pytest.raises(DomainError, match=r"800\.0 \(lane 1\) overflows"):
        ring.constant([1.0, 800.0, 900.0]).exp()
    with pytest.raises(DomainError, match=r"exp of value part 800\.0 overflows"):
        SeriesRing.get(2).constant(800.0).exp()


def test_ln_exp_round_trip():
    ring = SeriesRing.get(2)
    xs, ys = ring.state([0.2, -0.1], [0.9, 0.4])
    a = 1.5 + 0.3 * xs[0] * ys[1] + 0.1 * ys[0] * ys[0]
    back = a.exp().ln()
    assert np.allclose(back.c, a.c, rtol=1e-13, atol=1e-13)


def test_integer_power_through_zero_value():
    # binary powering must not need a positive value part
    ring = SeriesRing.get(2)
    xs, ys = ring.state([0.0, 0.0], [0.0, 1.0])
    p = ys[0].powr(3.0)  # value 0, fine for integer exponents
    assert p.partials(0, 3)[0, 0, 0] == 6.0


def test_expr_tree_evaluates_over_series():
    from finslerlab.expr import evaluate, parse

    tree = parse("sqrt(y1^2 + y2^2) + 0.5*x1*y1", 2)
    ring = SeriesRing.get(2)
    xs, ys = ring.state([0.2, 0.0], [3.0, 4.0])
    series = evaluate(tree, xs, ys)
    f = lambda x, y: evaluate(tree, x, y)
    want = mixed_partial(f, [0.2, 0.0], [3.0, 4.0], [("x", 0), ("y", 0)])
    got = series.partials(1, 1)[0, 0]
    assert got == pytest.approx(want, rel=1e-13)
    assert series.value() == pytest.approx(5.0 + 0.3, rel=1e-15)


def test_scalar_coercion_forms():
    ring = SeriesRing.get(2)
    xs, ys = ring.state([0.5, 0.0], [2.0, 1.0])
    s = ys[0]
    assert (1.0 + s).value() == 3.0
    assert (1.0 - s).value() == -1.0
    assert (3.0 * s).value() == 6.0
    assert (1.0 / s).value() == 0.5
    assert (s / 4.0).value() == 0.5
    assert (-s).value() == -2.0


# -- batch axis (x-only rings) -----------------------------------------

LANES = np.linspace(-0.9, 2.2, 41)

BATCH_OPS = {
    "mul": lambda xs, d: (1.0 + d * xs[0]) * (0.5 + d * xs[1] * xs[2] + d),
    "broadcast": lambda xs, d: (2.0 + d * xs[0]) * (xs[1] - 0.3 * xs[2] + 1.0),
    "reciprocal": lambda xs, d: (2.0 + d * xs[0] - 0.2 * xs[2]).reciprocal(),
    "sqrt": lambda xs, d: (2.0 + d * xs[0] * xs[1] + 0.1 * d).sqrt(),
    "powr-3": lambda xs, d: (1.5 + d * xs[2] + 0.2 * xs[0]).powr(-3.0),
    "ln": lambda xs, d: (2.0 + d * xs[0] + 0.4 * xs[1] * xs[1]).ln(),
    "exp": lambda xs, d: (d + 0.5 * xs[0] - d * xs[2] * xs[1]).exp(),
    "dx": lambda xs, d: (
        (1.0 + d * xs[0]) * (xs[1] + d * xs[0] * xs[2])
    ).grad("x", xs[0].ring).part(0),
    "lane constant": lambda xs, d: (d * d) * (xs[0] - 0.3 * xs[1] * xs[2]) * d,
}


@pytest.mark.parametrize("op", sorted(BATCH_OPS))
def test_batched_lanes_equal_unbatched(op):
    ring = SeriesRing.get(3).stage(2, 0)
    xs = [ring.variable_x(i, X3[i]) for i in range(3)]
    build = BATCH_OPS[op]
    batched = build(xs, ring.constant(LANES))
    assert batched.c.shape == (len(LANES), batched.ring.size)
    for k, d in enumerate(LANES):
        lane = build(xs, ring.constant(d))
        assert batched.ring is lane.ring
        assert np.all(batched.c[k] == lane.c), (op, k)
        assert batched.value()[k] == lane.value()


def test_batched_value_parts_match_float_ring():
    # ln and exp take their value parts from the math module lane by
    # lane, as the float ring does (numpy's differ in the last bit on some
    # inputs); sqrt takes them from np.sqrt, which rounds correctly, as
    # math.sqrt does
    ring = SeriesRing.get(3).stage(2, 0)
    values = LANES + 1.5
    for f in (scalars.sqrt, scalars.ln, scalars.exp,
              lambda v: scalars.powr(v, 0.25)):
        got = scalars.value_of(f(ring.constant(values)))
        assert got.tolist() == [f(float(v)) for v in values]


@pytest.mark.parametrize("k", [-3, -2, -1, 0, 1, 2, 3, 4, 6])
def test_integer_powers_match_the_float_ring(k):
    # both rings power by one routine (scalars.ipow), so value parts are
    # the float results bit for bit, for either sign of the base
    ring = SeriesRing.get(3).stage(2, 0)
    values = np.concatenate([LANES + 1.5, -(LANES + 1.5)])
    base = ring.constant(values) + 0.3 * ring.variable_x(0, X3[0])
    got = np.broadcast_to(base.powr(k).value(), values.shape)
    assert got.tolist() == [scalars.powr(v, k) for v in base.value()]
    if k < 0:
        with pytest.raises(DomainError, match="negative power of zero"):
            scalars.powr(0.0, k)
        with pytest.raises(DomainError, match="reciprocal of zero value part"):
            ring.constant([1.0, 0.0]).powr(k)
    if k < -1:
        # 1e-200 ** |k| underflows to 0.0: a DomainError naming the base
        # in the float ring, as the series ring's reciprocal raises one
        with pytest.raises(DomainError, match="1e-200 underflows"):
            scalars.powr(1e-200, k)
        with pytest.raises(EvalError, match="1e-200 underflows") as caught:
            evaluate(parse("x1^(%d)" % k, 2), [1e-200, 0.0], [1.0, 0.0])
        assert isinstance(caught.value.__cause__, DomainError)
        with pytest.raises(DomainError, match="reciprocal of zero value part"):
            ring.constant([1.0, 1e-200]).powr(k)


def test_batched_domain_error_names_first_bad_lane():
    ring = SeriesRing.get(3).stage(2, 0)
    with pytest.raises(DomainError, match=r"-3\.0 \(lane 2\)"):
        ring.constant([1.0, 2.0, -3.0, -1.0]).sqrt()
    # lanes of several component axes are counted in row-major order
    with pytest.raises(DomainError, match=r"-3\.0 \(lane 2\)"):
        ring.constant([[1.0, 2.0], [-3.0, -1.0]]).ln()


def test_batched_quadrature_names_first_bad_direction():
    from finslerlab.metrics import alpha_beta_metric
    from finslerlab.volume import bh_sigma_quadrature, sphere_nodes

    # |b| = 1.2 > 1: F = |d| + 1.2 d_1 is negative on a cap of directions
    metric = alpha_beta_metric(
        "bad_randers3",
        3,
        lambda x: [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        lambda x: [1.2, 0.0, 0.0],
    )
    nodes = sphere_nodes(3, 16)
    dirs = nodes[0]
    first = int(np.flatnonzero(np.linalg.norm(dirs, axis=1) + 1.2 * dirs[:, 0] <= 0.0)[0])
    with pytest.raises(DomainError) as err:
        bh_sigma_quadrature(metric, [0.0, 0.0, 0.0], nodes=nodes)
    assert str(tuple(dirs[first])) in str(err.value)


def test_full_ring_takes_no_batch_axis():
    with pytest.raises(ValueError):
        SeriesRing.get(2).constant([1.0, 2.0])


# -- one_kind: work of one kind of variable in its stage ring ---------------


def _x_fields():
    from finslerlab.catalog import get_example
    from finslerlab.volume import bh_randers_closed

    fields = {}
    for name in ("randers_osaka", "randers_baoshen", "mkropina_yang"):
        metric = get_example(name).metric
        fields[name + ".a"] = metric.a_fn
        fields[name + ".b"] = metric.b_fn
    fields["riemannian_sphere.a"] = get_example("riemannian_sphere").metric.a_fn
    osaka = get_example("randers_osaka").metric
    fields["bh_randers_closed"] = lambda x: bh_randers_closed(osaka, x)
    return fields


def _leaves(value):
    if isinstance(value, (list, tuple)):
        return [leaf for v in value for leaf in _leaves(v)]
    return [value]


def _close(got, want):
    scale = max(1.0, float(np.abs(want.c).max()))
    return (got.bx, got.by) == (want.bx, want.by) and (
        np.abs(got.c - want.c).max() <= 1e-14 * scale
    )


@pytest.mark.parametrize("name", sorted(_x_fields()))
def test_x_only_matches_full_ring(name):
    from finslerlab.series import one_kind

    fn = _x_fields()[name]
    ring = SeriesRing.get(3)
    xs, _ = ring.state((0.12, -0.2, 0.07), (0.3, 0.5, -0.8))
    hoisted, full = _leaves(one_kind(fn, xs, "x")), _leaves(fn(xs))
    assert len(hoisted) == len(full)
    assert any(isinstance(f, Series) for f in full)
    for h, f in zip(hoisted, full):
        if isinstance(f, Series):
            assert h.ring is ring and _close(h, f), name
        else:
            assert h == f, name


def test_x_only_passes_other_inputs_through():
    from jet_oracle import seed_direction
    from finslerlab.series import one_kind

    seen = []

    def fn(x):
        seen.append(x)
        return "out"

    point = (0.1, 0.2, 0.3)
    small = SeriesRing.get(3).stage(2, 0)
    xs, ys = SeriesRing.get(3).state(point, (1.0, 0.0, 0.0))
    inputs = (
        list(point),
        seed_direction(list(point), 0, 0),
        [small.variable_x(i, v) for i, v in enumerate(point)],
        [xs[0] + ys[0], xs[1], xs[2]],  # moves with y
    )
    for x in inputs:
        seen.clear()
        assert one_kind(fn, x, "x") == "out"
        assert len(seen) == 1 and seen[0] is x


def test_y_only_matches_full_ring():
    # a function of y alone in the (0, 8) stage ring gives the (2, 8)
    # ring's coefficients, embedded back with zeros for the x-monomials
    from finslerlab.series import one_kind

    def fn(y):
        q = y[0] * y[0] + y[1] * y[1] * 0.5 + y[2] * y[2]
        return scalars.sqrt(q) + scalars.powr(q, -1.5) * y[0]

    ring = SeriesRing.get(3)
    _, ys = ring.state((0.12, -0.2, 0.07), (0.3, 0.5, -0.8))
    got, want = one_kind(fn, ys, "y"), fn(ys)
    assert got.ring is ring
    assert np.array_equal(got.c, want.c)


def test_y_only_passes_other_inputs_through():
    from jet_oracle import seed_direction
    from finslerlab.series import one_kind

    seen = []

    def fn(y):
        seen.append(y)
        return "out"

    direction = (1.0, 0.5, -0.2)
    xs, ys = SeriesRing.get(3).state((0.1, 0.2, 0.3), direction)
    inputs = (
        list(direction),
        seed_direction(list(direction), 0, 0),
        [SeriesRing.get(3).stage(0, 2).variable_y(i, v) for i, v in enumerate(direction)],
        [ys[0] + xs[0], ys[1], ys[2]],  # moves with x
    )
    for y in inputs:
        seen.clear()
        assert one_kind(fn, y, "y") == "out"
        assert len(seen) == 1 and seen[0] is y


def test_x_only_keeps_affine_coordinates(monkeypatch):
    # a restriction, not fresh variables at c[0]: F at x = A xs + c.
    # F's order-8 y-coefficients amplify last-bit differences in a(x) to
    # about 1e-13 of the largest coefficient, at plain xs as well
    from finslerlab import metrics
    from finslerlab.catalog import get_example

    ring = SeriesRing.get(3)
    xs, ys = ring.state((0.05, -0.1, 0.08), (0.6, 0.3, -0.5))
    A = np.array([[0.9, 0.2, 0.0], [-0.1, 1.1, 0.3], [0.0, 0.4, 0.8]])
    x = [
        sum((xs[j] * float(A[i, j]) for j in range(3)), 0.02 * (i + 1))
        for i in range(3)
    ]
    names = ("randers_osaka", "mkropina_yang", "riemannian_sphere")
    hoisted = [get_example(n).metric.F(x, ys) for n in names]
    monkeypatch.setattr(metrics, "one_kind", lambda fn, x, kind, lift=True: fn(x))
    for name, got in zip(names, hoisted):
        want = get_example(name).metric.F(x, ys)
        scale = max(1.0, float(np.abs(want.c).max()))
        assert np.abs(got.c - want.c).max() <= 1e-12 * scale, name


def test_unlifted_coefficients_give_the_lifted_forms(monkeypatch):
    # a metric's coefficient fields stay in the x-only stage (one_kind
    # with lift=False): at y-variables the forms are placed from them as
    # they are, and at a y that is no set of y-variables the forms' loop
    # embeds them first as fields of x alone (their products with y in
    # the x-only ring would drop every y-term).  Both bit for bit the
    # route of lifted fields
    from finslerlab import metrics
    from finslerlab.catalog import get_example
    from finslerlab.series import one_kind

    ring = SeriesRing.get(3)
    xs, ys = ring.state((0.05, -0.1, 0.08), (0.6, 0.3, -0.5))
    moved = [ys[0] + ys[1] * 0.5, ys[1], ys[2]]
    osaka = get_example("randers_osaka").metric
    a = one_kind(osaka.a_fn, xs, "x", lift=False)
    assert a[0][0].ring is ring.stage(ring.cap_x, 0)
    assert series_module._form_parts([v for row in a for v in row], ys) is not None
    assert series_module._form_parts([v for row in a for v in row], moved) is None
    names = ("randers_osaka", "mkropina_yang", "riemannian_sphere")
    unlifted = [get_example(n).metric.F2(xs, y) for n in names for y in (ys, moved)]
    monkeypatch.setattr(
        metrics, "one_kind", lambda fn, x, kind, lift=True: one_kind(fn, x, kind)
    )
    lifted = [get_example(n).metric.F2(xs, y) for n in names for y in (ys, moved)]
    for got, want in zip(unlifted, lifted):
        assert got.ring is want.ring is ring
        assert np.array_equal(got.c, want.c)


# -- stage rings: a stage runs in the ring of the budget its readers need -----

STAGE_BUDGETS = [(1, 6), (1, 5), (0, 4), (0, 3), (2, 0)]


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("budget", STAGE_BUDGETS, ids=str)
def test_stage_tables_are_the_roots_mapped(n, budget):
    # the stage ring's product table is the root's, restricted and mapped
    # through the inverse of positions_of, and equals the table a ring of
    # those caps builds for itself; so do its monomials and grad tables
    root = SeriesRing.get(n)
    stage = root.stage(*budget)
    own = SeriesRing(n, *budget)
    pos = root.positions_of(stage)
    assert np.all(np.diff(pos) > 0)
    assert np.array_equal(stage._powers, own._powers)
    with pytest.raises(ValueError):
        root.positions_of(own)  # its keys are another root's
    inverse = np.full(root.size, -1)
    inverse[pos] = np.arange(stage.size)
    mapped = [inverse[t] for t in root.mul_table(*budget)]
    for table in (stage.triples, own.triples):
        assert all(np.array_equal(a, b) for a, b in zip(table, mapped))
    kinds = [kind for kind, cap in zip("xy", budget) if cap]
    for kind in kinds:
        (low, *got), (own_low, *want) = (r.grad_table(kind, r) for r in (stage, own))
        assert low.root is root and np.array_equal(low._powers, own_low._powers)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_stage_rings_are_shared_under_the_root():
    root = SeriesRing.get(3)
    assert root.stage(1, 6) is root.stage(1, 6)
    assert root.stage(1, 6).stage(0, 3) is root.stage(0, 3)
    assert root.stage(0, 3).root is root
    assert root.stage(2, 8) is root.stage(1, 6).stage(2, 8) is root
    assert SeriesRing.get(3).stage(1, 6) is root.stage(1, 6)
    # a stage keeps the variables of the kinds its caps keep
    assert root.stage(0, 3).variable_y(2, 0.5).c[0] == 0.5
    with pytest.raises(ValueError, match="no y-variable"):
        root.stage(2, 0).variable_y(0, 1.0)
    with pytest.raises(ValueError, match="no x-variable"):
        root.stage(0, 3).variable_x(1, 1.0)


@pytest.mark.parametrize("caps", [(8, 0), (3, 0), (0, 9), (-1, 2)])
def test_stage_past_the_roots_caps_raises(caps):
    # the root holds no monomial past its own caps, so such a stage would
    # hold fewer than its caps name (a (8, 0) stage held the 10 monomials
    # of the (2, 0) stage, and its first levels() raised IndexError)
    root = SeriesRing.get(3)
    with pytest.raises(ValueError, match="past the root's caps"):
        root.stage(*caps)
    with pytest.raises(ValueError, match="past the root's caps"):
        root.stage(1, 6).stage(*caps)
    assert caps not in root._stages


def test_budget_is_the_ring():
    # a Series stores its ring and coefficients; a derivative writes into
    # the stage ring one order below; a stage ring maps its product table
    # on its first product, not when it is built
    assert Series.__slots__ == ("ring", "c")
    root = SeriesRing(2, 2, 8)
    xs, ys = root.state([0.1, 0.2], [1.0, 2.0])
    f = xs[0] * ys[1] * ys[1]
    assert f.grad("x", root).ring is root.stage(1, 8)
    assert derivative(f, "y", 1, 0).ring is root.stage(2, 6)
    assert derivative(f, "y", 1).partials(0, 1)[1] == 2.0 * 0.1
    stage = root.stage(1, 6)
    assert stage._triples is None
    restrict(f, stage) * restrict(ys[0], stage)
    assert stage._triples is not None


@pytest.mark.parametrize("budget", [(1, 6), (0, 3), (2, 0)], ids=str)
def test_restrict_then_embed_keeps_every_in_budget_coefficient(budget):
    ring = SeriesRing.get(3)
    xs, ys = ring.state(X3, Y3)
    f = smooth3(xs, ys)
    stage = ring.stage(*budget)
    small = restrict(f, stage)
    assert small.ring is stage and (small.bx, small.by) == budget
    back = embed(small, ring)
    assert back.ring is ring
    keep = (ring.xdeg <= budget[0]) & (ring.ydeg <= budget[1])
    assert np.array_equal(back.c[keep], f.c[keep])
    assert not back.c[~keep].any()
    assert np.array_equal(restrict(back, stage).c, small.c)
    # a nested list becomes leading component axes, in the ring of the
    # smallest budget among its parts and the target's caps
    g = derivative(f, "y", 0, 1) * 0.5  # (2, 6, cap_d - 2)
    wide = ring.stage(1, 7)
    both = restrict([[f, g], [g, ys[2]]], wide)
    common = ring.stage(1, 6, ring.cap_d - 2)
    assert both.ring is common and both.c.shape == (2, 2, common.size)
    assert np.array_equal(both.part((0, 1)).c, restrict(g, wide).c)
    assert np.array_equal(both.part((0, 0)).c, restrict(f, common).c)
    y2 = embed(both.part((1, 1)), ring)
    assert np.array_equal(y2.c, embed(restrict(ys[2], common), ring).c)


def _stage_factors(stage, rng, lanes):
    c = rng.uniform(-1.0, 1.0, lanes + (stage.size,)) * 0.6 ** (stage.xdeg + stage.ydeg)
    return Series(stage, c)


def test_batched_stage_product_equals_each_lane():
    # component axes broadcast: lanes (k, i) from a [1, i] and a [k, 1]
    # factor, and from a [k, i] factor times an unbatched one
    stage = SeriesRing.get(3).stage(0, 3)
    rng = np.random.default_rng(5)
    a = _stage_factors(stage, rng, (1, 3))
    b = _stage_factors(stage, rng, (3, 1))
    u = _stage_factors(stage, rng, ())
    got = a * b
    assert got.c.shape == (3, 3, stage.size)
    for k in range(3):
        for i in range(3):
            lane = a.part((0, i)) * b.part((k, 0))
            assert np.array_equal(got.c[k, i], lane.c)
            assert np.array_equal((got * u).c[k, i], (lane * u).c)


def test_batched_dense_times_sparse_skips_rows_in_every_lane():
    # a y variable against a batch: the rows of its two nonzeros are
    # gathered once for all lanes, and every lane equals its own product
    # (the (2, 7, cap_d - 1) ring of d f/dy^0: products in the (1, 6) ring
    # gather its whole table)
    ring = SeriesRing.get(3)
    stage = ring.stage(2, 7, ring.cap_d - 1)
    assert len(stage.triples[0]) >= series_module.ROW_SKIP_MIN_TRIPLES
    xs, ys = ring.state(X3, Y3)
    f = smooth3(xs, ys)
    batch = restrict([f, derivative(f, "y", 0), derivative(f, "y", 2) * 3.0], stage)
    y = restrict(ys[1], stage)
    assert batch.ring is y.ring is stage
    assert series_module._sparse_triples(stage, batch.c, y.c) is not None
    assert series_module._sparse_triples(stage, y.c, batch.c) is not None
    for got in (batch * y, y * batch):
        for k in range(3):
            assert np.array_equal(got.c[k], _dense_product(batch.part(k), y).c)


GRADED = {
    "reciprocal": lambda s: s.reciprocal(),
    "sqrt": lambda s: s.sqrt(),
    "ln": lambda s: s.ln(),
    "exp": lambda s: s.exp(),
    "powr 0.25": lambda s: s.powr(0.25),
}


def test_graded_operations_are_budget_invariant_by_construction():
    # each level of a graded recurrence reads only lower degrees, so a
    # (1, 6, 6) ring of its own and the root's (1, 6, 6) stage ring, where
    # g lives, give the same bits (Newton's reciprocal ran 3 steps in the
    # first and the root's 4 in the second, and the two differed in the
    # last bits)
    ring = SeriesRing.get(3)
    xs, ys = ring.state(X3, Y3)
    g = derivative(smooth3(xs, ys), "y", 0, 0) * 0.5  # (2, 6, 6)
    stage = ring.stage(1, 6, 6)
    own = SeriesRing(3, 1, 6, 6)
    assert np.array_equal(own._powers, stage._powers)
    for name, op in GRADED.items():
        got = op(restrict(g, stage))
        alone = op(Series(own, restrict(g, stage).c))
        assert got.ring is stage and alone.ring is own
        assert np.array_equal(alone.c, got.c), name


# -- work skipped in products: bit-identical to the plain algorithms ----------


def _dense_product(a, b):
    """a * b gathered over the whole table of their common ring."""
    a, b = series_module._meet(a, b)
    iout, ia, ib = a.ring.triples
    w = a.c.take(ia, axis=-1) * b.c.take(ib, axis=-1)
    return Series(a.ring, np.bincount(iout, weights=w, minlength=a.ring.size))


def _full_ring_fields(ring=None):
    ring = ring or SeriesRing.get(3)
    xs, ys = ring.state(X3, Y3)
    f = smooth3(xs, ys)
    small = ring.stage(2, 0)
    xv = [small.variable_x(i, X3[i]) for i in range(3)]
    w = 1.0 + 0.3 * xv[0] * xv[0] + 0.1 * xv[0] * xv[1] - 0.2 * xv[2]
    return ring, ys, f, embed(w, ring)


def _with_inf(series):
    c = series.c.copy()
    c[7] = np.inf
    return Series(series.ring, c)


# name -> (first factor, second factor, whether rows are skipped)
SKIP_CASES = {
    "y-variable x dense": lambda ring, ys, f, w: (ys[1], f, True),
    "embedded x-only x dense": lambda ring, ys, f, w: (w, f, True),
    "dense x sparse": lambda ring, ys, f, w: (f, ys[2], True),
    "g budget, dense x sparse": lambda ring, ys, f, w: (derivative(f, "y", 0, 1), w, True),
    "empty selection": lambda ring, ys, f, w: (
        Series(ring, np.zeros(ring.size)), f, True),
    "inf in the dense factor": lambda ring, ys, f, w: (ys[1], _with_inf(f), False),
}


@pytest.mark.parametrize("case", sorted(SKIP_CASES))
def test_skipped_rows_equal_dense_product(case):
    ring, ys, f, w = _full_ring_fields()
    a, b, skips = SKIP_CASES[case](ring, ys, f, w)
    ma, mb = series_module._meet(a, b)
    assert (series_module._sparse_triples(ma.ring, ma.c, mb.c) is not None) == skips
    with np.errstate(invalid="ignore"):  # inf * 0 in the last case
        got, want = a * b, _dense_product(a, b)
    assert got.c.dtype == np.float64
    assert got.ring is want.ring
    assert np.array_equal(got.c, want.c, equal_nan=True), case
    if case == "inf in the dense factor":
        assert np.isnan(want.c).any()


def _sparse_factor(ring, rng, count):
    c = np.zeros(ring.size)
    c[rng.choice(ring.size, count, replace=False)] = rng.uniform(-1.0, 1.0, count)
    return Series(ring, c)


def _pairs_nonzeros(ring, a, b):
    """Whether the sparse dispatch gathers exactly the triples of the
    table whose factors are both nonzero: the pairs of nonzeros."""
    sparse = series_module._sparse_triples(ring, a.c, b.c)
    if sparse is None:
        return False
    both = (a.c[ring.triples[1]] != 0.0) & (b.c[ring.triples[2]] != 0.0)
    return all(np.array_equal(t[both], s) for t, s in zip(ring.triples, sparse))


def _same_bits(got, want):
    """Equal values (NaN where NaN) and equal sign bits, so -0.0 != +0.0."""
    return np.array_equal(got, want, equal_nan=True) and np.array_equal(
        np.signbit(got), np.signbit(want)
    )


@pytest.mark.parametrize("n, budget", [(3, (2, 8)), (4, (2, 8)), (4, (1, 6))])
def test_sparse_pairs_equal_dense_product(n, budget):
    # both factors with at most 8 nonzeros anywhere in the ring: the
    # product multiplies the pairs of nonzeros alone
    ring = SeriesRing.get(n).stage(*budget)
    assert len(ring.triples[0]) >= series_module.ROW_SKIP_MIN_TRIPLES
    rng = np.random.default_rng(n + budget[1])
    for _ in range(25):
        a, b = (_sparse_factor(ring, rng, rng.integers(0, 9)) for _ in "ab")
        assert _pairs_nonzeros(ring, a, b)
        assert _same_bits((a * b).c, _dense_product(a, b).c)


def test_sparse_pairs_with_zero_signed_and_non_finite_factors():
    ring, ys, f, w = _full_ring_fields()
    rng = np.random.default_rng(5)
    zero = Series(ring, np.zeros(ring.size))
    sparse = _sparse_factor(ring, rng, 6)
    signed = _sparse_factor(ring, rng, 6)
    signed.c[[0, 3, 40]] = -0.0
    tiny = Series(ring, np.where(sparse.c, -1e-200, 0.0))  # products underflow to -0
    cases = [
        (zero, sparse, True), (sparse, zero, True), (zero, f, True),
        (signed, sparse, True), (sparse, signed, True), (tiny, tiny, True),
        (signed, ys[1], True), (w, ys[2], True),
    ]
    for bad in (np.nan, np.inf):
        broken = Series(ring, sparse.c.copy())
        broken.c[np.flatnonzero(sparse.c)[2]] = bad
        cases += [(broken, sparse, False), (ys[0], broken, False)]
    for a, b, paired in cases:
        assert _pairs_nonzeros(ring, a, b) == paired
        with np.errstate(invalid="ignore"):  # inf * 0 in the non-finite cases
            got, want = a * b, _dense_product(a, b)
        assert _same_bits(got.c, want.c)
        if not paired:
            assert np.isnan(want.c).any()
    assert not (zero * f).c.any()


def _dense_lanes(a, b):
    """a * b gathered over the whole table, lane by lane."""
    a, b = series_module._meet(a, b)
    ca, cb = np.broadcast_arrays(a.c, b.c)
    c = np.empty(ca.shape)
    for k in np.ndindex(ca.shape[:-1]):
        c[k] = _dense_product(Series(a.ring, ca[k]), Series(a.ring, cb[k])).c
    return Series(a.ring, c)


@pytest.mark.parametrize("budget", [(2, 0), (1, 6)], ids=str)
def test_constant_products_equal_dense_product(budget):
    # a batch of constants times a series or a batch: the other factor
    # times the value parts, +0 where the table's sums give +0, and the
    # whole table once a coefficient is not finite
    ring = SeriesRing.get(3).stage(*budget)
    rng = np.random.default_rng(7)
    dense = _stage_factors(ring, rng, ())
    batch = _stage_factors(ring, rng, (4,))
    batch.c[1, ::3] = -0.0
    values = np.array([1.5, -0.0, 0.0, -2.0e-200])  # the last underflows
    const = ring.constant(values)
    tiny = Series(ring, np.where(dense.c > 0.0, 1e-200, -1e-200))
    # (first factor, second factor, how the product runs): "scaled" by
    # the value parts, or over the "table", where a non-finite coefficient
    # of the series gives "nan" past its own slot
    cases = [
        (dense, const, "scaled"), (const, dense, "scaled"),
        (batch, const, "scaled"), (const, batch, "scaled"),
        (const, const, "scaled"), (tiny, const, "scaled"),
        (const, ring.constant(-0.0), "scaled"),
        (batch, ring.constant(0.0), "scaled"), (batch, dense, "table"),
    ]
    for bad in (np.nan, np.inf):
        broken = Series(ring, batch.c.copy())
        broken.c[2, 5] = bad
        cases += [(broken, const, "nan"), (const, broken, "nan")]
        lanes = ring.constant(np.where(values == 1.5, bad, values))
        cases += [(lanes, dense, "table"), (batch, lanes, "table")]
    for a, b, runs in cases:
        with np.errstate(invalid="ignore"):  # inf * 0 in the non-finite cases
            scaled = series_module._constant_product(a.c, b.c) is not None
            got, want = a * b, _dense_lanes(a, b)
        assert scaled == (runs == "scaled")
        assert got.ring is want.ring
        assert _same_bits(got.c, want.c)
        if runs == "nan":
            assert np.isnan(want.c).any()
    # the table turns the -0 products of the constants 0.0 and -0.0 into +0
    zeros = (batch * const).c[1:3]
    assert not zeros.any() and not np.signbit(zeros).any()


def test_row_index_lists_every_triple_once():
    ring = SeriesRing.get(3).stage(2, 6)
    iout, ia, ib = ring.triples
    starts_a, perm_b, starts_b = ring.row_index()
    everything = np.arange(ring.size)
    assert np.array_equal(series_module._rows(starts_a, everything), np.arange(len(ia)))
    assert np.array_equal(ia[series_module._rows(starts_a, everything)], np.sort(ia))
    by_b = perm_b[series_module._rows(starts_b, everything)]
    assert np.array_equal(np.sort(by_b), np.arange(len(ib)))
    assert np.all(np.diff(ib[by_b]) >= 0)


# Test-local reference routes for the graded recurrences: Newton's
# reciprocal, and the Horner ln and exp with every step and every power
# at the full caps of the argument's ring; and the graded sqrt as it ran
# before the shared pair sum, which the doubling must reproduce exactly.


def _lane_map(fn, v):
    return np.array([fn(t) for t in np.ravel(v).tolist()]).reshape(np.shape(v))


def _newton_reciprocal(s):
    # k steps are correct through total degree 2^k - 1
    z = s.ring.constant(1.0 / s.c[..., 0])
    for _ in range((s.bx + s.by).bit_length()):
        z = z * (2.0 - s * z)
    return z


def _pairs_once_sqrt(s):
    u = s.c
    w = np.zeros_like(u)
    w[..., 0] = _lane_map(math.sqrt, u[..., 0])
    for rows, iout, ia, ib, sq_out, sq_src in s.ring.levels():
        pairs = series_module._bincount(iout, w[..., ia] * w[..., ib], len(rows))
        pairs *= 2.0
        pairs[..., sq_out] += np.square(w[..., sq_src])
        w[..., rows] = (u[..., rows] - pairs) / (2.0 * w[..., :1])
    return Series(s.ring, w)


def _full_budget_exp(s):
    ring = s.ring
    u = Series(ring, s.c.copy())
    u.c[..., 0] = 0.0
    acc = ring.constant(1.0)
    for k in range(s.bx + s.by, 0, -1):
        acc = 1.0 + (u * (1.0 / k)) * acc
    return Series(ring, acc.c * _lane_map(math.exp, s.c[..., 0])[..., None])


def _full_budget_ln(s):
    ring = s.ring
    a0 = s.c[..., 0]
    v = Series(ring, s.c / a0[..., None])
    v.c[..., 0] = 0.0
    t = ring.constant(0.0)
    for k in range(s.bx + s.by, 0, -1):
        t = ((-1.0) ** (k + 1)) / k + v * t
    out = v * t
    out.c[..., 0] = _lane_map(math.log, a0)
    return out


def _full_budget_powr(s, q):
    if q != int(q):
        return _full_budget_exp(_full_budget_ln(s) * q)
    k = int(q)
    if k < 0:
        return _full_budget_powr(s, -q).reciprocal()
    out = s.ring.constant(1.0)
    base = s
    while k:
        if k & 1:
            out = out * base
        base = base * base
        k >>= 1
    return out


def _elementary_input(name):
    if name == "batched x-only":
        ring = SeriesRing.get(3).stage(2, 0)
        xv = [ring.variable_x(i, X3[i]) for i in range(3)]
        return ring.constant(LANES + 2.0) + 0.4 * xv[0] - 0.3 * xv[1] * xv[2]
    ring = SeriesRing.get(3)
    xs, ys = ring.state(X3, Y3)
    f = smooth3(xs, ys)
    return f if name == "(2, 8)" else derivative(f, "y", 0, 0) * 0.5  # g_00, budget (2, 6)


ELEMENTARY = {
    "reciprocal": (lambda s: s.reciprocal(), _newton_reciprocal),
    "sqrt": (lambda s: s.sqrt(), _pairs_once_sqrt),
    "ln": (lambda s: s.ln(), _full_budget_ln),
    "exp": (lambda s: s.exp(), _full_budget_exp),
}
for _q in (0.0, 1.0, 2.0, 3.0, 4.0, 6.0, -1.0, -3.0, 0.25):
    ELEMENTARY["powr %g" % _q] = (
        lambda s, q=_q: s.powr(q),
        lambda s, q=_q: _full_budget_powr(s, q),
    )
# the same bits: the graded sqrt, and integer powers, which are products
# alone (a negative power's reciprocal is the graded one on both sides)
EXACT = {"sqrt", *("powr %d" % k for k in (0, 1, 2, 3, 4, 6, -1, -3))}


@pytest.mark.parametrize("name", ["(2, 8)", "(2, 6)", "batched x-only"])
@pytest.mark.parametrize("op", sorted(ELEMENTARY))
def test_elementary_functions_equal_full_budget_algorithms(monkeypatch, name, op):
    s = _elementary_input(name)
    fast, full = ELEMENTARY[op]
    got = fast(s)
    # the reference gathers whole tables as well
    monkeypatch.setattr(series_module, "ROW_SKIP_MIN_TRIPLES", math.inf)
    want = full(s)
    assert got.ring is want.ring is s.ring
    if op in EXACT:
        assert np.array_equal(got.c, want.c), (name, op)
        return
    # the graded recurrences round differently from Newton and Horner:
    # measured at most 9.3e-14 of the scale for the reciprocal at (2, 8),
    # where Newton is the less accurate (below), and 1.7e-14 otherwise
    scale = np.maximum(1.0, np.abs(want.c).max(axis=-1, keepdims=True))
    assert np.all(np.abs(got.c - want.c) <= 1e-13 * scale), (name, op)
    if op == "reciprocal":
        # and more accurately: Newton's s z - 1 reaches 9.5e-12 at (2, 8)
        one = s * got - 1.0
        assert np.abs(one.c).max() <= 1e-13, name


def test_ring_inv_det_equals_ring_det_on_series():
    ring = SeriesRing.get(3)
    xs, ys = ring.state(X3, Y3)
    f = smooth3(xs, ys)
    g = [[derivative(f, "y", i, j) * 0.5 for j in range(3)] for i in range(3)]
    det, _ = scalars.ring_inv(g)
    want = scalars.ring_det(g)
    assert det.ring is want.ring is ring.stage(2, 6, ring.cap_d - 2)
    assert np.array_equal(det.c, want.c)


@pytest.mark.parametrize("name", catalog.list_examples() + ["randers_n4"])
def test_trace_series_ln_det_matches_ring_inv(name):
    # tau's ln det g, ln det g0 + tr M - tr(M M)/2 in the (1, 1) ring
    # (engine.ln_det_series), against a second route: the ln of the
    # sweep's det of the (1, 6, 6)-ring g, restricted to the (1, 1) ring, at
    # 5 states of plan seed 3.  Value parts agree bit for bit (both are
    # ln of the float sweep's det); measured max|diff| / max(1, max|ref|)
    # at most 5.8e-16 (mkropina_yang), so the bound leaves 2x headroom
    entry = randers_n4() if name == "randers_n4" else catalog.get_example(name)
    n = entry.metric.dimension
    ring = SeriesRing.get(n)
    plan = classify.SamplePlan(count=5, seed=3)
    for x, y in classify.sample_states(entry.metric, plan).states:
        xs, ys = ring.state(x, y)
        fsq = engine.fsq_series(entry.metric, xs, ys)
        g = engine.metric_series(fsq)  # lanes [i, j]
        assert g.ring is ring.stage(1, 6, 6)  # no reader takes g_xx
        g0 = scalars.ring_inv(g.c[..., 0].tolist())
        got = engine.ln_det_series(g, g0)
        entries = [[g.part((i, j)) for j in range(n)] for i in range(n)]
        want = restrict(scalars.ring_inv(entries)[0].ln(), ring.stage(1, 1))
        assert got.ring is want.ring
        assert got.c[0] == want.c[0], (name, x, y)
        err = np.abs(got.c - want.c).max() / max(1.0, np.abs(want.c).max())
        assert err <= 1.2e-15, (name, x, y, err)


def _long_double_inverse(b):
    """Inverse of a Series b with axes [i, j], in np.longdouble, by the
    graded recurrence Q_d = -B_0^-1 sum_{0<j<=d} B_j Q_{d-j} over the
    ring's product table; B_0^-1 is a float64 inverse refined by Newton
    steps in long double."""
    ring = b.ring
    c = b.c.astype(np.longdouble)
    n = c.shape[0]
    b0 = c[..., 0]
    q0 = np.linalg.inv(b0.astype(float)).astype(np.longdouble)
    for _ in range(3):
        q0 = q0 @ (2 * np.eye(n, dtype=np.longdouble) - b0 @ q0)
    iout, ia, ib = ring.triples
    deg = ring.xdeg + ring.ydeg
    q = np.zeros_like(c)
    q[..., 0] = q0
    for d in range(1, int(deg.max()) + 1):
        sel = (deg[iout] == d) & (deg[ia] > 0)
        acc = np.zeros((ring.size, n, n), dtype=np.longdouble)
        terms = np.einsum("ijt,jkt->tik", c[..., ia[sel]], q[..., ib[sel]])
        np.add.at(acc, iout[sel], terms)
        rows = np.flatnonzero(deg == d)
        q[..., rows] = -np.einsum("ij,tjk->ikt", q0, acc[rows])
    return q


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps > 1e-18,
    reason="np.longdouble is no wider than float64 on this platform",
)
@pytest.mark.parametrize("name", catalog.list_examples() + ["randers_n4"])
def test_ring_inv_error_against_long_double(name):
    # g^-1 of the (1, 6)-ring g that the Frame's spray solves with
    # (test_ring_solve_error_against_long_double; ring_inv inverts the
    # closed-form Randers volume's a(x) in the library), at 5 states of
    # plan seed 3.  Measured max|Q - ref| / max|ref|: at most
    # 1.6e-15 (randers_baoshen), so the bound leaves 2x headroom
    entry = randers_n4() if name == "randers_n4" else catalog.get_example(name)
    n = entry.metric.dimension
    ring = SeriesRing.get(n)
    stage = ring.stage(1, 6)
    plan = classify.SamplePlan(count=5, seed=3)
    for x, y in classify.sample_states(entry.metric, plan).states:
        fsq = engine.fsq_series(entry.metric, *ring.state(x, y))
        g = [
            [restrict(derivative(fsq, "y", i, j) * 0.5, stage) for j in range(n)]
            for i in range(n)
        ]
        got = restrict(scalars.ring_inv(g)[1], stage).c
        want = _long_double_inverse(restrict(g, stage))
        err = float(np.abs(got - want).max() / np.abs(want).max())
        assert err <= 3.2e-15, (name, x, y, err)


def _long_double_contract(ring, q, b):
    """sum_l q[i, l] b[l] over the ring's product table, for long-double
    coefficient arrays q with axes [i, l] and b with axis [l]."""
    iout, ia, ib = ring.triples
    terms = np.einsum("ilt,lt->it", q[..., ia], b[:, ib])
    out = np.zeros((len(q), ring.size), dtype=np.longdouble)
    for i in range(len(q)):
        np.add.at(out[i], iout, terms[i])
    return out


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps > 1e-18,
    reason="np.longdouble is no wider than float64 on this platform",
)
@pytest.mark.parametrize("name", catalog.list_examples() + ["randers_n4"])
def test_ring_solve_error_against_long_double(monkeypatch, name):
    # The spray G in the (1, 6) stage ring, solved from g G = A/4 as the
    # Frame does (series.graded_solve, preconditioned by the float g0^-1),
    # and by the route the solves replaced (ring_inv's g^-1 contracted
    # with A/4), against the long-double g^-1 contracted with the same
    # A/4, at 5 states of plan seed 3.  Measured worst max|G - ref| /
    # max|ref| over the states, solve (inverse): mkropina_yang 8.8e-11
    # (4.0e-10, the ill-conditioned g of its last two states),
    # randers_baoshen 1.6e-14 (1.3e-14), randers_osaka 7.1e-15 (1.8e-14),
    # randers_humo 1.7e-15 (1.2e-15), randers_n4 1.6e-15 (1.7e-15), at
    # most 1.3e-16 elsewhere.  The bounds, set for the symmetric
    # elimination the graded solve replaced (mkropina 1.5e-10, osaka
    # 1.9e-14), stay: 3.0e-10 for mkropina_yang, 3.8e-14 for the others,
    # and the solve within twice the inverse's error
    entry = randers_n4() if name == "randers_n4" else catalog.get_example(name)
    n = entry.metric.dimension
    ring = SeriesRing.get(n)
    solve, calls = series_module.graded_solve, []

    def spy(a, b, inverse):
        calls.append((a, b))
        return solve(a, b, inverse)

    monkeypatch.setattr(engine, "graded_solve", spy)
    worst = {"solve": 0.0, "inverse": 0.0}
    plan = classify.SamplePlan(count=5, seed=3)
    for x, y in classify.sample_states(entry.metric, plan).states:
        xs, ys = ring.state(x, y)
        fsq = engine.fsq_series(entry.metric, xs, ys)
        g = engine.metric_series(fsq)  # lanes [i, j]
        g0 = scalars.ring_inv(g.c[..., 0].tolist())
        G = engine.spray_series(fsq, g, g0, ys)
        ((a, rhs),) = calls
        calls.clear()
        stage = rhs.ring
        entries = [[g.part((i, j)) for j in range(n)] for i in range(n)]
        ginv = restrict(scalars.ring_inv(entries)[1], stage)
        inverse = ginv.part(np.s_[:, 0]) * rhs.part(0)
        for l in range(1, n):
            inverse = inverse + ginv.part(np.s_[:, l]) * rhs.part(l)
        want = _long_double_contract(
            stage, _long_double_inverse(a), rhs.c.astype(np.longdouble)
        )
        scale = max(float(np.abs(want).max()), np.finfo(float).tiny)
        for route, got in (("solve", restrict(G, stage)), ("inverse", inverse)):
            err = float(np.abs(got.c - want).max()) / scale
            worst[route] = max(worst[route], err)
    bound = 3.0e-10 if name == "mkropina_yang" else 3.8e-14
    assert worst["solve"] <= bound, (name, worst)
    assert worst["solve"] <= 2.0 * worst["inverse"], (name, worst)


# Budget invariance: an operation run in a stage ring gives exactly the
# root's result, restricted to that ring.

INVARIANCE_BUDGETS = [(1, 6), (2, 5), (0, 3), (1, 1)]
INVARIANCE_OPS = {
    "*": lambda a, b: a * b,
    "reciprocal": lambda a, b: a.reciprocal(),
    "sqrt": lambda a, b: a.sqrt(),
    "ln": lambda a, b: a.ln(),
    "exp": lambda a, b: a.exp(),
    "powr 1.5": lambda a, b: a.powr(1.5),
    "powr 3": lambda a, b: a.powr(3),
}


def test_graded_solve_is_budget_invariant():
    # run in a stage ring, the solve gives the root's solution restricted
    # to it, bit for bit, as the graded recurrences do (in rings of its
    # own, whose workspaces its n^2 lanes grow)
    for n in (3, 4):
        ring = SeriesRing(n, 2, 5)
        rng = np.random.default_rng(n)
        a = rng.normal(size=(n, n, ring.size)) * 0.5 ** (ring.xdeg + ring.ydeg)
        a = a + a.swapaxes(0, 1)
        a[..., 0] += 4.0 * np.eye(n)
        b = rng.normal(size=(n, ring.size))
        inverse = np.linalg.inv(a[..., 0])
        x = series_module.graded_solve(Series(ring, a), Series(ring, b), inverse)
        for bx, by in [(1, 4), (2, 3), (0, 3), (1, 1)]:
            stage = ring.stage(bx, by)
            pos = ring.positions_of(stage)
            got = series_module.graded_solve(
                Series(stage, a[..., pos]), Series(stage, b[..., pos]), inverse
            )
            assert np.array_equal(got.c, x.c[..., pos]), (n, bx, by)


# -- the total cap: the root drops the monomials past total degree cap_d --


def _capped_and_box(n):
    """A ring of the root's caps, the box ring of its cap_x and cap_y, and
    the positions of the former's monomials in the latter (the two share
    their keys)."""
    ring = SeriesRing(n, *series_module.ROOT_CAPS)
    box = SeriesRing(n, ring.cap_x, ring.cap_y)
    pos = np.searchsorted(box.keys, ring.keys)
    assert ring.cap_d < box.cap_d and np.array_equal(box.keys[pos], ring.keys)
    return ring, box, pos


def _monomials(ring, terms):
    """The 1-D series sum of value * x^xe y^ye over terms (value, xe, ye)."""
    c = np.zeros(ring.size)
    for value, xe, ye in terms:
        c[np.flatnonzero((ring._powers == xe + ye).all(axis=1))] = value
    return Series(ring, c)


def test_sparse_products_respect_the_total_cap():
    # x1^2 times y-monomials of degree 8: every product of the two
    # nonzeros of degree 2 and 8 has degree 10, past the cap, so the pair
    # path must drop it rather than place it by a key the ring lacks; a
    # dense third factor takes the row path
    ring, box, pos = _capped_and_box(3)
    assert len(ring.triples[0]) >= series_module.ROW_SKIP_MIN_TRIPLES
    x2 = [(1.5, (2, 0, 0), (0, 0, 0)), (0.5, (0, 0, 0), (0, 0, 0))]
    y8 = [(2.0, (0, 0, 0), (8, 0, 0)), (-1.0, (0, 0, 0), (3, 4, 1)),
          (0.25, (0, 0, 0), (0, 1, 0))]
    dense, other = np.random.default_rng(4).uniform(-1.0, 1.0, (2, box.size))
    for terms in (x2, y8):
        assert np.count_nonzero(_monomials(box, terms).c) == len(terms)
    pairs = [(_monomials(r, x2), _monomials(r, y8)) for r in (ring, box)]
    rows = [(_monomials(r, x2), Series(r, dense[p])) for r, p in
            ((ring, pos), (box, slice(None)))]
    full = [(Series(r, dense[p]), Series(r, other[p])) for r, p in
            ((ring, pos), (box, slice(None)))]
    for (a, b), (wa, wb) in (pairs, rows, full):
        got, want = a * b, wa * wb
        assert got.ring is ring
        assert np.array_equal(got.c, want.c[pos])
    # the pair path ran, and kept no pair past the cap
    iout, ia, ib = series_module._sparse_triples(ring, *(f.c for f in pairs[0]))
    assert len(ia) < 2 * 3 and (ring.deg[ia] + ring.deg[ib] <= ring.cap_d).all()
    assert np.array_equal(ring.deg[iout], ring.deg[ia] + ring.deg[ib])


@pytest.mark.parametrize("op", ["sqrt", "reciprocal", "ln", "exp", "solve"])
def test_graded_operations_respect_the_total_cap(op):
    # in a ring of the root's caps every graded level reads lower degrees
    # only, so each operation is the box ring's restricted, bit for bit
    ring, box, pos = _capped_and_box(3)
    rng = np.random.default_rng(7)
    c = rng.uniform(-1.0, 1.0, box.size) * 0.6 ** (box.xdeg + box.ydeg)
    c[0] = 1.5
    if op == "solve":
        a = rng.normal(size=(3, 3, box.size)) * 0.5 ** (box.xdeg + box.ydeg)
        a = a + a.swapaxes(0, 1)
        a[..., 0] += 4.0 * np.eye(3)
        b = rng.normal(size=(3, box.size))
        inverse = np.linalg.inv(a[..., 0])
        got = series_module.graded_solve(
            Series(ring, a[..., pos]), Series(ring, b[..., pos]), inverse
        )
        want = series_module.graded_solve(Series(box, a), Series(box, b), inverse)
    else:
        got = getattr(Series(ring, c[pos]), op)()
        want = getattr(Series(box, c), op)()
    assert got.ring is ring and len(ring.levels()) == ring.cap_d
    assert np.array_equal(got.c, want.c[..., pos])


def _random_series(ring, rng, density):
    """Coefficients shrinking with total degree, value part in [1, 2]."""
    degree = ring.xdeg + ring.ydeg
    c = rng.uniform(-1.0, 1.0, ring.size) * 0.6 ** degree
    c *= rng.uniform(size=ring.size) < density
    c[0] = rng.uniform(1.0, 2.0)
    return Series(ring, c)


@pytest.mark.parametrize("name", sorted(INVARIANCE_OPS))
@settings(max_examples=8, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), density=st.sampled_from([1.0, 0.04]))
def test_operations_are_budget_invariant(name, seed, density):
    # density 0.04 makes the second factor sparse enough for row skipping
    ring = SeriesRing.get(3)
    rng = np.random.default_rng(seed)
    a = _random_series(ring, rng, 1.0)
    b = _random_series(ring, rng, density)
    op = INVARIANCE_OPS[name]
    full = op(a, b)
    for budget in INVARIANCE_BUDGETS:
        stage = ring.stage(*budget)
        got = op(restrict(a, stage), restrict(b, stage))
        assert got.ring is stage
        assert np.array_equal(got.c, restrict(full, stage).c), budget


def test_restrict_and_embed_at_the_ring_edges():
    # the series itself in its own ring; down in x and up in y at once is
    # a restrict, then a zero-filling embed
    ring = SeriesRing.get(3)
    xs, ys = ring.state(X3, Y3)
    f = smooth3(xs, ys)
    assert restrict(f, ring) is f and embed(f, ring) is f
    wide = ring.stage(1, 8)
    mixed = embed(restrict(derivative(f, "y", 0), wide), wide)
    assert mixed.ring is wide
    common = ring.stage(1, 7, ring.cap_d - 1)
    assert np.array_equal(restrict(mixed, common).c, restrict(derivative(f, "y", 0), common).c)
    assert not mixed.c[(wide.ydeg == 8) | (wide.deg == ring.cap_d)].any()


# -- the product table and the product workspace -----------------------------

TABLE_CAPS = [(1, 2, 8), (2, 2, 8), (3, 2, 8), (3, 1, 1), (3, 0, 3), (3, 2, 0), (2, 0, 0)]


@pytest.mark.parametrize("n, cap_x, cap_y", TABLE_CAPS, ids=str)
def test_table_equals_the_all_pairs_build(n, cap_x, cap_y):
    # the degree-class build keeps exactly the pairs the all-pairs search
    # finds, in the same order: by first factor, then by second
    ring = SeriesRing(n, cap_x, cap_y)
    for got, want in zip(ring.triples, all_pairs_triples(ring)):
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want)


def test_table_build_peak_memory_is_a_few_tables():
    # the all-pairs build peaked at 11.7 times the table's bytes at n=4;
    # the root's total cap keeps 172 458 of the box's 579 150 triples
    tracemalloc.start()
    try:
        ring = SeriesRing(4, *series_module.ROOT_CAPS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table_bytes = sum(t.nbytes for t in ring.triples)
    assert len(ring.triples[0]) == 172458
    assert peak <= 4 * table_bytes, peak / table_bytes


def test_products_never_alias_the_workspace():
    ring, ys, f, w = _full_ring_fields()
    stage = ring.stage(1, 6)
    batch = restrict([f, derivative(f, "y", 0)], stage)
    for got in (f * f, ys[1] * f, batch * restrict(f, stage), batch * batch):
        for buffer in got.ring.root._work:
            assert not np.shares_memory(got.c, buffer)


def test_workspace_reuse_keeps_products_exact():
    # a row-skip product uses a prefix of the buffers, a full product all
    # of them, and a shorter one after it leaves stale values past its end;
    # a fresh root, as a batch in a stage ring of the shared one (the
    # quadrature's x-only ring) grows its workspace past its table
    ring, ys, f, w = _full_ring_fields(SeriesRing(3, 2, 8))
    for a, b in ((ys[1], f), (f, f), (w, f), (f, ys[2])):
        got = a * b
        assert got.ring is ring
        assert np.array_equal(got.c, _dense_product(a, b).c)
    assert len(ring._work[0]) == len(ring.triples[0])


@pytest.mark.parametrize("lanes", [(), (3,)], ids=str)
def test_product_over_an_empty_selection_is_float_zeros(lanes):
    stage = SeriesRing.get(3).stage(2, 6)
    assert len(stage.triples[0]) >= series_module.ROW_SKIP_MIN_TRIPLES
    zero = Series(stage, np.zeros(stage.size))
    dense = _stage_factors(stage, np.random.default_rng(2), lanes)
    for got in (zero * dense, dense * zero):
        assert got.c.dtype == np.float64
        assert got.c.shape == lanes + (stage.size,)
        assert not got.c.any()


def test_batched_product_grows_the_workspace():
    # a stage ring gathers into its root's workspace, as long as the
    # root's table (84 084 triples), which 30 lanes of the stage's 3234
    # outgrow
    root = SeriesRing(3, 2, 8)  # a fresh workspace
    stage = root.stage(1, 5)
    rng = np.random.default_rng(9)
    u = _stage_factors(stage, rng, ())
    u * u
    table = len(stage.triples[0])
    assert len(root._work[0]) == len(root.triples[0])
    for count in (2, 30, 3):
        batch = _stage_factors(stage, rng, (count,))
        got = batch * u
        assert len(root._work[0]) >= max(count * table, len(root.triples[0]))
        for k in range(count):
            lane = batch.part(k)
            assert np.array_equal(got.c[k], (lane * u).c)
            assert np.array_equal(got.c[k], _dense_product(lane, u).c)


# -- the graded sqrt and its level table -------------------------------------

SQRT_RINGS = [(2, 2, 8, None), (3, 2, 8, None), (4, 2, 8, None), (3, 8, 0, 16)]


@pytest.mark.parametrize("n, cap_x, cap_y, lanes", SQRT_RINGS, ids=str)
def test_sqrt_of_a_square_recovers_the_polynomial(n, cap_x, cap_y, lanes):
    # Newton's 4 steps left up to 7.2e-13 (n=4) and 2.7e-14 (n=2) here
    ring = SeriesRing(n, cap_x, cap_y)
    rng = np.random.default_rng(0)
    c = rng.uniform(-1.0, 1.0, (lanes or 1, ring.size))
    c[:, 0] = np.linspace(1.5, 2.0, lanes) if lanes else 2.0
    p = Series(ring, c if lanes else c[0])
    root = (p * p).sqrt()
    assert root.ring is ring
    gap = np.abs(root.c - p.c).max(axis=-1) / np.abs(p.c).max(axis=-1)
    assert np.all(gap <= 1e-14), gap.max()


LEVEL_CAPS = [(2, 2, 8), (3, 2, 8), (3, 1, 6), (3, 2, 0), (4, 0, 2)]


@pytest.mark.parametrize("stage", [False, True], ids=["own ring", "stage ring"])
@pytest.mark.parametrize("n, cap_x, cap_y", LEVEL_CAPS, ids=str)
def test_levels_are_the_tables_positive_degree_pairs(n, cap_x, cap_y, stage):
    # level d lists the triples of the product table whose output has
    # total degree d and whose factors a <= b both have positive degree,
    # in table order: the pairs a < b apart, the squares a = b apart
    if stage:
        ring = SeriesRing.get(n).stage(cap_x, cap_y)
    else:
        ring = SeriesRing(n, cap_x, cap_y)
    iout, ia, ib = ring.triples
    deg = ring.xdeg + ring.ydeg
    levels = ring.levels()
    # a stage's total cap is the root's where the box's is past it
    cap_d = min(cap_x + cap_y, series_module.ROOT_CAPS[2]) if stage else cap_x + cap_y
    assert ring.cap_d == cap_d and len(levels) == cap_d
    for d, (rows, out, a, b, sq_out, sq_src) in enumerate(levels, 1):
        for t in (rows, out, a, b, sq_out, sq_src):
            assert t.dtype == np.min_scalar_type(ring.size)
        assert np.array_equal(rows, np.flatnonzero(deg == d))
        keep = (deg[iout] == d) & (deg[ia] > 0) & (deg[ib] > 0)
        pairs, squares = keep & (ia < ib), keep & (ia == ib)
        assert np.array_equal(rows[out], iout[pairs])
        assert np.array_equal(a, ia[pairs]) and np.array_equal(b, ib[pairs])
        assert np.array_equal(rows[sq_out], iout[squares])
        assert np.array_equal(sq_src, ia[squares])


def test_level_tables_are_small_beside_the_product_table():
    ring = SeriesRing.get(4)
    level_bytes = sum(t.nbytes for level in ring.levels() for t in level)
    assert level_bytes <= 0.15 * sum(t.nbytes for t in ring.triples)


def test_level_build_peaks_under_half_the_product_table():
    # the level table is the product table's pairs past the constant,
    # cast to the small index type before they are split by degree
    ring = SeriesRing(4, 2, 8)
    tracemalloc.start()
    try:
        ring.levels()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table_bytes = sum(t.nbytes for t in ring.triples)
    assert peak <= 0.5 * table_bytes, peak / table_bytes


def test_batched_stage_sqrt_lanes_equal_unbatched():
    # the x-only ring's batches are in test_batched_lanes_equal_unbatched
    ring = SeriesRing.get(3)
    xs, ys = ring.state(X3, Y3)
    f = smooth3(xs, ys)
    g = [derivative(f, "y", i, i) * 0.5 for i in range(3)]
    batch = restrict(g + [f], ring.stage(1, 6))
    got = batch.sqrt()
    assert got.ring is batch.ring
    for k in range(len(batch.c)):
        assert np.array_equal(got.c[k], batch.part(k).sqrt().c), k


# -- index maps: fused derivatives, products by a y-variable, list restricts --

# (kind, caps of the differentiated ring, caps of the target ring) of every
# Series.grad call of a Frame's stages, the projective spray's, lemma21 and
# the Douglas invariance gap (test_engine_grads_are_the_listed_pairs)
ENGINE_GRADS = [
    ("x", (1, 2, 3), (0, 1, 1)),
    ("x", (1, 2, 3), (1, 2, 3)),
    ("x", (1, 5, 5), (0, 4, 4)),
    ("x", (1, 6, 6), (0, 4, 4)),
    ("x", (2, 8, 8), (1, 5, 5)),
    ("x", (2, 8, 8), (1, 7, 8)),
    ("y", (0, 1, 1), (0, 0, 0)),
    ("y", (0, 4, 4), (0, 3, 3)),
    ("y", (1, 2, 3), (0, 1, 1)),
    ("y", (1, 2, 3), (1, 2, 3)),
    ("y", (1, 5, 5), (0, 4, 4)),
    ("y", (1, 5, 5), (1, 5, 5)),
    ("y", (1, 5, 6), (1, 5, 6)),
    ("y", (1, 6, 6), (0, 4, 4)),
    ("y", (1, 6, 6), (1, 6, 6)),
    ("y", (1, 7, 7), (1, 6, 6)),
    ("y", (1, 7, 7), (1, 7, 7)),
    ("y", (2, 8, 8), (1, 8, 8)),
]
# the rings of the engine's products by a y-variable (the spray's braces,
# S and the divergence, G + P y at lemma21's and the cubes' budgets,
# lemma21's P_{|0}), and an x-only ring, where y is the constant u
TIMES_Y_RINGS = [(1, 6, 6), (1, 5, 5), (1, 5, 6), (1, 2, 3), (0, 2, 2), (2, 0, 2)]
LANE_SHAPES = [(), (2,), (2, 3)]


def _caps(ring):
    return ring.cap_x, ring.cap_y, ring.cap_d


def _bits(a):
    """The float64 array's bit patterns: -0.0 and NaN payloads count."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def _coefficients(rng, shape):
    """Floats of which half are small dyadic numbers, zeros of both signs
    among them, so that terms cancel exactly and products give -0."""
    dyadic = rng.choice([-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.0], size=shape)
    return np.where(rng.uniform(size=shape) < 0.5, dyadic, rng.uniform(-1.0, 1.0, shape))


def _table_products(s, u):
    """s.part(k) times y^k at value u[k], lane by lane over the whole
    product table of s's ring, with a leading slot axis."""
    ring, out = s.ring, np.empty_like(s.c)
    for k in range(len(u)):
        y = ring.root.variable_y(k, u[k])
        for lane in np.ndindex(s.c.shape[1:-1]):
            out[(k,) + lane] = _dense_product(Series(ring, s.c[(k,) + lane]), y).c
    return out


def test_engine_grads_are_the_listed_pairs(monkeypatch):
    from finslerlab import curvature, projective

    seen, plain = set(), Series.grad

    def spy(self, kind, ring):
        seen.add((kind, _caps(self.ring), _caps(ring)))
        return plain(self, kind, ring)

    monkeypatch.setattr(Series, "grad", spy)
    entry = catalog.get_example("randers_osaka")
    x, y = classify.sample_states(entry.metric, classify.SamplePlan(count=1)).states[0]
    state = curvature.GeometryState(entry.metric, entry.volume, x, y)
    frame = state.frame
    frame.R, frame.S, frame.D, frame.projective.R, frame.projective.D
    projective.identity_residual("lemma21", state, p="0.3*y1")
    projective.douglas_invariance_gap(state, "0.3*y1")
    assert sorted(seen) == ENGINE_GRADS


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n=st.integers(2, 5),
    grad=st.sampled_from(ENGINE_GRADS),
    lanes=st.sampled_from(LANE_SHAPES),
    seed=st.integers(0, 2**32 - 1),
)
def test_grad_is_the_restricted_derivatives(n, grad, lanes, seed):
    # one gather through the composed table gives the derivative chain's
    # arrays bit for bit, for every pair of rings the engine uses
    kind, source, target = grad
    root = SeriesRing.get(n)
    ring, target = root.stage(*source), root.stage(*target)
    s = Series(ring, _coefficients(np.random.default_rng(seed), lanes + (ring.size,)))
    parts = [restrict(derivative(s, kind, k), target) for k in range(n)]
    got = s.grad(kind, target)
    assert got.ring is parts[0].ring
    assert np.array_equal(_bits(got.c), _bits(np.stack([p.c for p in parts])))


@pytest.mark.parametrize("caps", [(0, 3, 3), (1, 0, 1), (1, 1, 0), (0, 0, 0), (2, 1, 3)])
def test_grad_raises_where_a_derivative_would(caps):
    # a first derivative needs one order of its kind and one of total degree
    for n in range(2, 6):
        ring = SeriesRing.get(n).stage(*caps)
        s = ring.constant(1.0)
        for kind, b in (("x", ring.cap_x), ("y", ring.cap_y)):
            if min(b, ring.cap_d) >= 1:
                assert s.grad(kind, ring).c.shape[0] == n
                continue
            message = "%s-derivative budget exhausted (b%s=%d, bd=%d)"
            with pytest.raises(TowerBudgetError) as raised:
                s.grad(kind, ring)
            assert str(raised.value) == message % (kind, kind, b, ring.cap_d)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    n=st.integers(2, 5),
    caps=st.sampled_from(TIMES_Y_RINGS),
    lanes=st.sampled_from(LANE_SHAPES),
    seed=st.integers(0, 2**32 - 1),
)
def test_times_y_is_the_table_product(n, caps, lanes, seed):
    # a shift plus a multiple, bit for bit: signed zeros and exactly
    # cancelling terms (the dyadic coefficients) included
    ring = SeriesRing.get(n).stage(*caps)
    rng = np.random.default_rng(seed)
    s = Series(ring, _coefficients(rng, (n,) + lanes + (ring.size,)))
    u = _coefficients(rng, n)
    got = s.times_y(u)
    assert got.ring is ring
    assert np.array_equal(_bits(got.c), _bits(_table_products(s, u)))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    n=st.integers(2, 5),
    caps=st.sampled_from(TIMES_Y_RINGS),
    lanes=st.sampled_from(LANE_SHAPES),
    bad=st.sampled_from([math.inf, -math.inf, math.nan]),
    in_u=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_times_y_with_a_non_finite_number_takes_the_table(n, caps, lanes, bad, in_u, seed):
    # the skipped zero terms would be NaN: the table's products, NaNs
    # included, bit for bit
    ring = SeriesRing.get(n).stage(*caps)
    rng = np.random.default_rng(seed)
    s = Series(ring, _coefficients(rng, (n,) + lanes + (ring.size,)))
    u = _coefficients(rng, n)
    if in_u:
        u[rng.integers(n)] = bad
    else:
        s.c.reshape(-1)[rng.integers(s.c.size)] = bad
    with np.errstate(invalid="ignore"):  # inf * 0 in the table
        got, want = s.times_y(u), _table_products(s, u)
    assert not np.isfinite(got.c).all()
    assert np.array_equal(_bits(got.c), _bits(want))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    n=st.integers(2, 5),
    target=st.sampled_from([(2, 8, 8), (1, 6, 6), (1, 7, 8), (0, 4, 4), (1, 2, 3)]),
    lanes=st.sampled_from(LANE_SHAPES),
    seed=st.integers(0, 2**32 - 1),
)
def test_restrict_of_a_list_is_the_restricted_parts(n, target, lanes, seed):
    # a list in one ring stacks once and gathers once; a mixed-ring or
    # nested list lands in the smallest caps of the target and its parts
    root = SeriesRing.get(n)
    rng = np.random.default_rng(seed)
    target = root.stage(*target)

    def part(caps):
        ring = root.stage(*caps)
        return Series(ring, _coefficients(rng, lanes + (ring.size,)))

    same = [part((1, 6, 6)) for _ in range(3)]
    mixed = [part((1, 6, 6)), part((2, 5, 7)), part((1, 7, 7))]
    nested = [mixed[:2], [part((0, 6, 6)), same[0]]]
    for parts in (same, mixed, nested):
        leaves = list(itertools.chain.from_iterable(
            p if isinstance(p, list) else [p] for p in parts
        ))
        caps = [min(c) for c in zip(_caps(target), *(_caps(p.ring) for p in leaves))]
        got = restrict(parts, target)
        assert got.ring is root.stage(*caps)
        want = [
            np.stack([restrict(q, got.ring).c for q in p]) if isinstance(p, list)
            else restrict(p, got.ring).c
            for p in parts
        ]
        assert np.array_equal(_bits(got.c), _bits(np.stack(want)))
