"""Jet towers of the test oracle: arithmetic exactness, seeding, mixed
partials, ring inverse."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finslerlab.errors import DomainError, TowerBudgetError
from finslerlab.scalars import ring_det, ring_inv
from finslerlab.series import SeriesRing, graded_solve, restrict

from jet_oracle import (
    MAX_LEVELS,
    JetScalar,
    lift,
    mixed_partial,
    seed_direction,
)
from support import fd_partial


def flatten(j):
    """All float leaves of a jet, primal-first (structure fingerprint)."""
    if not isinstance(j, JetScalar):
        return [float(j)]
    if j.level == 0:
        return [j.primal]
    return flatten(j.primal) + flatten(j.tangent)


# -- lift -----------------------------------------------------------------


def test_lift_constant_has_zero_tangents():
    j = lift(3.0, 2)
    assert j.value() == 3.0
    assert flatten(j) == [3.0, 0.0, 0.0, 0.0]


def test_lift_zero_is_additive_identity():
    z = lift(0.0, 5)
    (j,) = seed_direction([2.5], 0, 0)
    for _ in range(4):
        (j,) = seed_direction([j], 0, j.level)
    assert flatten(z + j) == flatten(j)


def test_lift_one_is_multiplicative_identity():
    one = lift(1.0, 1)
    (j,) = seed_direction([1.75], 0, 0)
    assert flatten(one * j) == flatten(j)


# -- seeding --------------------------------------------------------------


def test_seed_power_rule():
    (y1,) = seed_direction([3.0], 0, 0)
    f = y1 * y1
    assert f.tangent.primal == pytest.approx(6.0, abs=0.0)


def test_seed_two_levels_mixed():
    x = seed_direction([2.0], 0, 0)
    y = seed_direction([5.0, 7.0], None, 0)
    x = seed_direction(x, None, 1)
    y = seed_direction(y, 1, 1)
    f = x[0] * y[1]
    assert f.tangent.tangent.primal == 1.0


def test_seed_slot_out_of_range():
    with pytest.raises(IndexError):
        seed_direction([1.0, 2.0], 2, 0)


def test_seed_beyond_tower_cap():
    with pytest.raises(TowerBudgetError):
        seed_direction([1.0], 0, MAX_LEVELS)


def test_seed_rejects_mismatched_level():
    (j,) = seed_direction([1.0], 0, 0)
    with pytest.raises(TypeError):
        seed_direction([j], 0, 3)


# -- mixed_partial --------------------------------------------------------


def norm_sq(x, y):
    return y[0] * y[0] + y[1] * y[1]


def test_mixed_partial_norm_sq():
    assert mixed_partial(norm_sq, [0.0, 0.0], [3.0, 4.0], [("y", 0), ("y", 0)]) == 2.0


def test_mixed_partial_norm_gradient():
    f = lambda x, y: norm_sq(x, y).sqrt()
    d = mixed_partial(f, [0.0, 0.0], [3.0, 4.0], [("y", 0)])
    assert d == pytest.approx(3.0 / 5.0, rel=1e-15)


def test_mixed_partial_order_cap():
    with pytest.raises(TowerBudgetError):
        mixed_partial(norm_sq, [0.0], [1.0], [("y", 0)] * (MAX_LEVELS + 1))


def test_mixed_partial_polynomial_exact():
    # f = 3 x1^2 y1^3, d^3 f / dx1 dy1 dy1 = 36 x1 y1 = 216 at (2, 3)
    f = lambda x, y: 3.0 * x[0] * x[0] * y[0] * y[0] * y[0]
    d = mixed_partial(f, [2.0], [3.0], [("x", 0), ("y", 0), ("y", 0)])
    assert d == 216.0


def test_mixed_partial_constant_function_is_zero():
    f = lambda x, y: 7.0
    assert mixed_partial(f, [1.0], [1.0], [("y", 0)]) == 0.0


def randers_like(x, y):
    # position-dependent norm squared, same smoothness class as the
    # catalog metrics: F = sqrt(a_ij y^i y^j) + b_i y^i, this is F^2
    w = 1.0 + 0.3 * x[0] * x[0] + 0.1 * x[0] * x[1]
    alpha = (w * (y[0] * y[0] + y[1] * y[1]) + x[1] * y[0] * y[1]).sqrt() \
        if isinstance(y[0], JetScalar) else \
        math.sqrt(w * (y[0] * y[0] + y[1] * y[1]) + x[1] * y[0] * y[1])
    beta = 0.2 * x[1] * y[0] + 0.1 * x[0] * y[1]
    F = alpha + beta
    return F * F


@pytest.mark.parametrize(
    "wrt",
    [
        [("y", 0)],
        [("y", 0), ("y", 1)],
        [("x", 0), ("y", 1)],
        [("x", 0), ("x", 1), ("y", 0), ("y", 1)],
        [("y", 0), ("y", 1), ("y", 0), ("x", 1), ("y", 1), ("x", 0)],
    ],
)
def test_mixed_partial_matches_fd(wrt):
    x = [0.3, -0.2]
    y = [1.1, 0.7]
    ad = mixed_partial(randers_like, x, y, wrt)
    fd = fd_partial(randers_like, x, y, wrt)
    assert abs(ad - fd) <= 1e-4 * max(1.0, abs(fd)), (wrt, ad, fd)


def test_schwarz_symmetry_transcendental():
    f = lambda x, y: (x[0] * y[0] + y[1] * y[1]).exp() * (2.0 + y[0] * x[1]).ln()
    x = [0.4, 0.9]
    y = [0.5, -0.3]
    a = mixed_partial(f, x, y, [("x", 0), ("y", 0), ("y", 1)])
    b = mixed_partial(f, x, y, [("y", 1), ("x", 0), ("y", 0)])
    c = mixed_partial(f, x, y, [("y", 0), ("y", 1), ("x", 0)])
    assert a == pytest.approx(b, rel=1e-12)
    assert a == pytest.approx(c, rel=1e-12)


@given(
    coeffs=st.lists(st.integers(min_value=-4, max_value=4), min_size=6, max_size=6),
    px=st.integers(min_value=-3, max_value=3),
    py=st.integers(min_value=-3, max_value=3),
)
@settings(max_examples=60, deadline=None)
def test_schwarz_bit_identical_on_exact_polynomials(coeffs, px, py):
    # small-integer data keeps every float op exact, so permuting the
    # nesting order must reproduce the identical bits
    c0, c1, c2, c3, c4, c5 = [float(c) for c in coeffs]

    def f(x, y):
        return (
            c0 * x[0] * x[0] * y[0]
            + c1 * x[0] * y[0] * y[0]
            + c2 * y[0] * y[0] * y[0]
            + c3 * x[0] * y[0]
            + c4 * y[0]
            + c5
        )

    orders = [
        [("x", 0), ("y", 0), ("y", 0)],
        [("y", 0), ("x", 0), ("y", 0)],
        [("y", 0), ("y", 0), ("x", 0)],
    ]
    vals = [mixed_partial(f, [float(px)], [float(py)], o) for o in orders]
    assert vals[0] == vals[1] == vals[2]


@given(
    a=st.floats(min_value=0.2, max_value=2.0),
    b=st.floats(min_value=-1.0, max_value=1.0),
)
@settings(max_examples=40, deadline=None)
def test_value_chain_matches_float_evaluation(a, b):
    # evaluating through level-3 jets and reading the value part must
    # reproduce the float computation bit for bit
    def f(x, y):
        from finslerlab import scalars

        return scalars.sqrt(x[0] * x[0] + y[0] * y[0] + 1.0) * scalars.exp(
            y[0] * 0.25
        ) + scalars.powr(x[0] + 2.0, -1.5)

    xj = seed_direction([a], 0, 0)
    yj = seed_direction([b], None, 0)
    xj = seed_direction(xj, None, 1)
    yj = seed_direction(yj, 0, 1)
    xj = seed_direction(xj, 0, 2)
    yj = seed_direction(yj, None, 2)
    assert f(xj, yj).value() == f([a], [b])


# -- domain and level guards ---------------------------------------------


def test_sqrt_negative_value_part_raises():
    (j,) = seed_direction([-2.0], 0, 0)
    with pytest.raises(DomainError):
        j.sqrt()


def test_ln_zero_value_part_raises():
    (j,) = seed_direction([0.0], 0, 0)
    with pytest.raises(DomainError):
        j.ln()


def test_division_by_zero_value_part_raises():
    (num,) = seed_direction([1.0], 0, 0)
    (den,) = seed_direction([0.0], 0, 0)
    with pytest.raises(DomainError):
        num / den


def test_abs_at_zero_raises_inside_derivative_region():
    (j,) = seed_direction([0.0], 0, 0)
    with pytest.raises(DomainError):
        abs(j)


def test_abs_picks_sign_from_value_part():
    (j,) = seed_direction([-3.0], 0, 0)
    assert flatten(abs(j)) == [3.0, -1.0]


def test_mixed_level_arithmetic_rejected():
    (a,) = seed_direction([1.0], 0, 0)
    (b,) = seed_direction(seed_direction([1.0], 0, 0), 0, 1)
    with pytest.raises(TypeError):
        a + b


# -- ring_det / ring_inv / the graded solve --------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_ring_det_and_inv_match_numpy(n):
    # the sweep's precondition: symmetric, with nonzero leading minors
    rng = np.random.default_rng(n)
    b = rng.normal(size=(n, n))
    a = b @ b.T + n * np.eye(n)
    rows = a.tolist()
    assert ring_det(rows) == pytest.approx(np.linalg.det(a), rel=1e-12)
    assert np.abs(np.array(ring_inv(rows)[1]) - np.linalg.inv(a)).max() <= 1e-12
    assert ring_inv(rows)[0] == ring_det(rows)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_ring_solve_matches_numpy(n):
    # the spray's graded solve, in the (1, 2) ring at n: a(x + xi, y +
    # eta) = a0 + the shifts times random symmetric matrices, for which
    # a x = b holds coefficient for coefficient, and x's value part is
    # numpy's solve of the values (measured: at most 8.9e-16 off, n = 3)
    rng = np.random.default_rng(n)
    c = rng.normal(size=(n, n))
    a0 = c @ c.T + n * np.eye(n)
    b0 = rng.normal(size=n)
    ring = SeriesRing.get(n).stage(1, 2)
    xs, ys = ring.state(rng.normal(size=n), rng.normal(size=n))
    a = [[ring.constant(a0[i, j]) for j in range(n)] for i in range(n)]
    for shift in [*xs, *ys]:
        s = rng.normal(size=(n, n)) * 0.3
        s = s + s.T
        for i in range(n):
            for j in range(n):
                a[i][j] = a[i][j] + (shift - shift.value()) * s[i, j]
    eta = [v - v.value() for v in ys]
    b = [ring.constant(b0[i]) + eta[i] * eta[i] * 0.5 for i in range(n)]
    x = graded_solve(restrict(a, ring), restrict(b, ring), np.linalg.inv(a0))
    assert np.abs(x.value() - np.linalg.solve(a0, b0)).max() <= 1e-14
    for i in range(n):
        ax = sum((a[i][l] * x.part(l) for l in range(1, n)), a[i][0] * x.part(0))
        assert np.abs((ax - b[i]).c).max() <= 1e-14


def test_ring_inv_tangent_matches_fd():
    # d/dt of A(t)^-1 through jets against a central difference
    def build(t):
        return [
            [4.0 + t, 1.0, 0.5],
            [1.0, 3.0 - 0.5 * t, 0.2 * t],
            [0.5, 0.2 * t, 5.0 + t * t],
        ]

    t0 = 0.3
    (tj,) = seed_direction([t0], 0, 0)
    inv = ring_inv(build(tj))[1]
    h = 1e-6
    lo = ring_inv(build(t0 - h))[1]
    hi = ring_inv(build(t0 + h))[1]
    for i in range(3):
        for j in range(3):
            fd = (hi[i][j] - lo[i][j]) / (2.0 * h)
            assert inv[i][j].tangent.primal == pytest.approx(fd, abs=1e-8)
