"""Identities that hold for every Finsler metric, over random metrics.

Each drawn metric is a 3-D Randers metric with x-dependent a(x) and
b(x); each drawn state must be regular, with a relative condition
number kappa <= 10 (classify.relative_condition), so that rounding stays
far below the bounds.  The identities do not depend on how the
derivatives are computed:

    g_ij y^i y^j = F^2,  C_ijk totally symmetric,  C_ijk y^k = 0,
    F_{|m} = 0 (the horizontal derivative of F vanishes);

and coordinate covariance: under x = A x' + c, y = A y', the spray,
R^i_k and the Douglas tensor of F'(x', y') = F(A x' + c, A y') are
those of F carried by A, and S with a constant density is unchanged;
so is S with each metric's Busemann-Hausdorff quadrature density, which
picks up the factor |det A|.
"""

import itertools
import math
import time

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from finslerlab.classify import relative_condition
from finslerlab.curvature import GeometryState
from finslerlab.errors import DomainError, RegularityError
from finslerlab.metrics import (
    alpha_beta_metric,
    cartan_torsion,
    fundamental_tensor,
    randers_b_norm_sq,
)
from finslerlab.scalars import value_of
from finslerlab.volume import bh_quadrature_volume, constant_volume

from support import horizontal_derivative

N = 3
KAPPA_MAX = 10.0
# the covariance gaps measured at most 3e-13 of max(1, |tensor|), on D
COVARIANCE_REL = 1e-10
# ln sigma' against ln |det A| + ln sigma (sigma' against |det A| sigma,
# relative to sigma'), and S' against S, with quadrature densities:
# measured at most 1.7e-15 and 1.8e-15 (of max(1, |S|))
QUADRATURE_REL = 1e-13

coefficient = st.floats(-0.5, 0.5, allow_nan=False, allow_infinity=False)


def coefficients(count):
    return st.lists(coefficient, min_size=count, max_size=count)


def random_randers(lower, slopes, b0, b_slopes):
    """F = alpha + beta with a(x) = L L^T + (s . x) S and b(x) = b0 + B x.

    L is lower triangular with unit diagonal, S a fixed symmetric matrix
    scaled by the slopes s, and B a 3x3 matrix of slopes.
    """
    L = np.eye(N)
    L[np.tril_indices(N, -1)] = lower
    base = (L @ L.T).tolist()
    bend = [[0.4, 0.1, 0.0], [0.1, -0.3, 0.2], [0.0, 0.2, 0.5]]
    B = np.reshape(b_slopes, (N, N)).tolist()

    def a_fn(x):
        t = slopes[0] * x[0] + slopes[1] * x[1] + slopes[2] * x[2]
        return [[base[i][j] + bend[i][j] * t for j in range(N)] for i in range(N)]

    def b_fn(x):
        return [
            b0[i] + B[i][0] * x[0] + B[i][1] * x[1] + B[i][2] * x[2]
            for i in range(N)
        ]

    return alpha_beta_metric("random_randers", N, a_fn, b_fn)


@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(
    lower=coefficients(3),
    slopes=coefficients(3),
    b0=coefficients(3),
    b_slopes=coefficients(9),
    x=st.lists(st.floats(-0.3, 0.3), min_size=N, max_size=N),
    y=st.lists(st.floats(-1.0, 1.0), min_size=N, max_size=N),
)
def test_randers_identities(lower, slopes, b0, b_slopes, x, y):
    assume(np.linalg.norm(y) > 0.1)
    metric = random_randers(lower, slopes, b0, b_slopes)
    assume(randers_b_norm_sq(metric, x) < 1.0)
    F = value_of(metric.F(x, y))
    assume(F > 0.0)
    try:
        g = fundamental_tensor(metric, (x, y)).components
    except RegularityError:
        assume(False)
    kappa = relative_condition(metric, x, g)
    assume(kappa <= KAPPA_MAX)

    yv = np.array(y)
    assert abs(yv @ g @ yv - F * F) <= 1e-12 * F * F

    C = cartan_torsion(metric, (x, y)).components
    scale = max(1.0, np.abs(g).max())
    for p in itertools.permutations(range(3)):
        assert np.abs(C - C.transpose(p)).max() <= 1e-14 * scale
    assert np.abs(C @ yv).max() <= 1e-12 * scale

    state = GeometryState(metric, constant_volume(1.0), x, y)
    Fh = horizontal_derivative(metric.F, state).components
    assert np.abs(Fh).max() <= 1e-10 * F


def pulled_back(metric, A, c):
    """F'(x, y) = F(A x + c, A y) as a Randers metric of its own, with
    a'(x) = A^T a(A x + c) A and b'(x) = A^T b(A x + c)."""
    A = np.asarray(A, dtype=float).tolist()

    def moved(x):
        return [sum((x[j] * A[i][j] for j in range(N)), c[i]) for i in range(N)]

    def a_fn(x):
        a = metric.a_fn(moved(x))
        return [
            [
                sum(
                    a[i][j] * (A[i][k] * A[j][m])
                    for i in range(N)
                    for j in range(N)
                )
                for m in range(N)
            ]
            for k in range(N)
        ]

    def b_fn(x):
        b = metric.b_fn(moved(x))
        return [sum(b[i] * A[i][k] for i in range(N)) for k in range(N)]

    return alpha_beta_metric("pulled_back", N, a_fn, b_fn)


@settings(
    max_examples=12,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(
    lower=coefficients(3),
    slopes=coefficients(3),
    b0=coefficients(3),
    b_slopes=coefficients(9),
    mix=coefficients(9),
    c=st.lists(st.floats(-0.1, 0.1), min_size=N, max_size=N),
    x=st.lists(st.floats(-0.2, 0.2), min_size=N, max_size=N),
    y=st.lists(st.floats(-1.0, 1.0), min_size=N, max_size=N),
)
def test_tensors_transform_under_affine_coordinates(
    lower, slopes, b0, b_slopes, mix, c, x, y
):
    # F'(x', y') = F(A x' + c, A y') with A = I + 0.4 M, |M_ij| <= 0.5,
    # so cond(A) <= 4: the spray, R^i_k and the Douglas tensor of F' are
    # those of F at (A x' + c, A y'), carried by A as tensors; S with a
    # constant density is a scalar
    assume(np.linalg.norm(y) > 0.1)
    A = np.eye(N) + 0.4 * np.reshape(mix, (N, N))
    Ainv = np.linalg.inv(A)
    metric = random_randers(lower, slopes, b0, b_slopes)
    xm, ym = A @ x + c, A @ y
    assume(randers_b_norm_sq(metric, xm) < 1.0)
    assume(value_of(metric.F(xm, ym)) > 0.0)
    try:
        g = fundamental_tensor(metric, (xm, ym)).components
    except RegularityError:
        assume(False)
    assume(relative_condition(metric, xm, g) <= KAPPA_MAX)

    volume = constant_volume(1.0)
    old = GeometryState(metric, volume, xm, ym).frame
    new = GeometryState(pulled_back(metric, A, c), volume, x, y).frame
    pairs = {
        "G": (new.G, Ainv @ old.G),
        "R": (new.R, Ainv @ old.R @ A),
        "D": (new.D, np.einsum("im,pmqr,pj,qk,rl->jikl", Ainv, old.D, A, A, A)),
        "S": (new.S, old.S),
    }
    for name, (got, want) in pairs.items():
        bound = COVARIANCE_REL * max(1.0, float(np.abs(want).max()))
        assert float(np.abs(got - want).max()) <= bound, name


def test_quadrature_density_transforms_as_a_density():
    # for F'(x', y') = F(A x' + c, A y'): sigma'(x') = |det A| sigma(A x'
    # + c), and S with each metric's own quadrature density is a scalar.
    # F' puts other directions of F on the rule's nodes, so this checks
    # the chosen rules without a closed form.  Fixed draws (rng seed 11),
    # A = I + 0.4 M as above.  The four states pick rungs 32 and 48, the
    # two metrics of one state different rungs in three of them
    start = time.process_time()
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 4:
        lower, slopes, b0 = (rng.uniform(-0.3, 0.3, 3) for _ in range(3))
        b_slopes = rng.uniform(-0.3, 0.3, 9)
        A = np.eye(N) + 0.4 * rng.uniform(-0.5, 0.5, (N, N))
        c = rng.uniform(-0.1, 0.1, N)
        x = rng.uniform(-0.2, 0.2, N)
        y = rng.normal(size=N)
        metric = random_randers(lower, slopes, b0, b_slopes)
        moved = pulled_back(metric, A, c)
        xm, ym = A @ x + c, A @ y
        try:
            g = fundamental_tensor(metric, (xm, ym)).components
            volume, volume_moved = bh_quadrature_volume(metric), bh_quadrature_volume(moved)
        except (DomainError, RegularityError):
            continue
        if relative_condition(metric, xm, g) > KAPPA_MAX:
            continue
        checked += 1
        log_sigma = volume.log_sigma(list(xm))
        log_moved = volume_moved.log_sigma(list(x))
        gap = log_moved - math.log(abs(np.linalg.det(A))) - log_sigma
        assert abs(gap) <= QUADRATURE_REL
        old = GeometryState(metric, volume, xm, ym).frame
        new = GeometryState(moved, volume_moved, x, y).frame
        assert abs(new.S - old.S) <= QUADRATURE_REL * max(1.0, abs(old.S))
    assert time.process_time() - start <= 20.0
