"""Finsler metric abstraction, built-in families, pointwise tensors.

A MetricSpec wraps a scalar-ring-generic evaluator for F(x, y) together
with its chart and cone domains.  The (alpha, beta) and Riemannian
families, which every catalog metric with x-dependent coefficients and
every DSL (a, b) metric is built through, take their coefficient fields
a(x), b(x) through series.one_kind: they depend on x alone, so in a
curvature Frame they run in the x-only stage ring of the Frame's root,
and stay there: alpha^2 and beta are series.quadratic_form and
series.linear_form of those fields at the YVariables of a series ring
(every Frame and every point tensor), products by y alone.  The (alpha,
beta) families keep each field with a one-entry memo (_memo_last),
keyed on the ring and the coefficient bytes of x-only coordinates, and
store the memoized fields as MetricSpec.a_fn and b_fn: a Frame's F^2,
its closed-form density and its quadrature F evaluate each once per
state.  navigation_metric builds randers_humo, the wind of a rigid
rotation of rate q, and randers_osaka, the same wind at q = -1.  The pointwise
operations here (fundamental tensor, Cartan torsion) read the
y-partials of F^2 from one evaluation in SeriesRing.get(n).stage(0,
k), with x kept as floats; the curvature pipeline in the engine module
reads the same partials from that root ring itself.

Both read F^2 from one evaluator, MetricSpec.F2.
Each family assembles F^2 from its own parts, so the square of a sqrt
and the dense product F * F are formed only where F has no parts:

- Randers: alpha^2 + beta (2 alpha + beta), one ring product;
- Riemannian: alpha^2 itself, with no sqrt and no ring product;
- alpha_beta_power: (alpha^2)^m beta^(2 - 2m), one fractional power
  fewer than F itself at m = 1/2;
- a DSL F metric: its tree, compiled once by construct_metric.  The
  tree of F^2 is E when F's root is sqrt(E) and E^(2p/q) when it is
  E^(p/q), which is E at p/q = 1/2 and sqrt(E) at p/q = 1/4 (the
  quartic norm's F^2 runs no ln and no exp); any other root gives F * F.
  Each maximal subtree that reads x alone runs in the x-only stage ring,
  each that reads y alone in the (0, cap_y) stage ring (both through
  series.one_kind), and a quotient by one of them is a product by its
  reciprocal there (expr.hoist);
- a metric given by F alone: F * F.

A Randers metric's chart holds |b|_alpha < 1 as well as the chart it is
given: the sampler rejects a draw past it as outside the chart, and the
quadrature leaves such probes out.

Every evaluator raises DomainError("F <= 0") before its products when F
is not positive at the state (for a power metric: alpha^2 or beta is
not positive; for a compiled DSL F^2: the float value of F, from the
value parts of x and y), which a curvature Frame reports as a
RegularityError at the state.
"""

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import expr as dsl
from .errors import ConfigError, DomainError, FinslerError, RegularityError
from .scalars import powr, sqrt, value_of
from .series import Series, SeriesRing, linear_form, one_kind, quadratic_form


# The curvature Frame's series root bounds the dimension: at n=5 it
# builds, with its level table, in 0.08 to 0.09 s of CPU at 60 MB peak
# RSS (2-core x86-64 VM); at n=6 it would hold 32 703 coefficients.
MAX_DIMENSION = 5


def check_dimension(n):
    """n as an int, or ConfigError unless it is an integer in [2, 5].

    Callers run it before any series ring is built.
    """
    try:
        whole = int(n)
    except (TypeError, ValueError, OverflowError):
        whole = None
    if whole is None or whole != n or not 2 <= whole <= MAX_DIMENSION:
        raise ConfigError(
            "dimension must be an integer from 2 to %d, got %r"
            % (MAX_DIMENSION, n)
        )
    return whole


def finite_number(value, what):
    """value as a finite float, or ConfigError "<what> must be a finite
    number, got ..." (a string that is no number, an infinity or NaN)."""
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if not math.isfinite(number):
        raise ConfigError("%s must be a finite number, got %r" % (what, value))
    return number


def finite_parameters(parameters):
    """A DSL's parameters (a name -> value map, or None) as a dict of
    finite floats; ConfigError (finite_number) naming the first that is
    no finite number."""
    return {
        key: finite_number(value, "parameter %r" % key)
        for key, value in dict(parameters or {}).items()
    }


@dataclass(frozen=True)
class MetricSpec:
    name: str
    dimension: int
    F: Callable  # (x_vec, y_vec) -> scalar, any ring
    chart_domain: Callable  # x_vec -> bool
    cone_domain: Callable  # (x_vec, y_vec) -> bool
    parameters: dict = field(default_factory=dict)
    family: str = "dsl"
    # for (alpha, beta) families: ring-generic coefficient evaluators
    a_fn: Optional[Callable] = None  # x_vec -> n x n nested list
    b_fn: Optional[Callable] = None  # x_vec -> length-n list
    # (x_vec, y_vec) -> F^2, any ring: the one F^2 evaluator (module
    # notes); None gives F * F
    F2: Optional[Callable] = None

    def __post_init__(self):
        if self.F2 is None:
            object.__setattr__(self, "F2", _squared(self.F))


@dataclass(frozen=True)
class TensorValue:
    components: np.ndarray
    variance: tuple  # per slot: "upper" | "lower"
    state: tuple  # (x, y) where evaluated

    def __post_init__(self):
        if self.components.ndim != len(self.variance):
            raise ValueError(
                "variance length %d does not match rank %d"
                % (len(self.variance), self.components.ndim)
            )


def _positive_F(value):
    """DomainError("F <= 0") unless F's value part is positive."""
    if value <= 0.0:
        raise DomainError("F <= 0")


def _squared(F):
    """F^2 of a metric given by F alone: F * F, once F > 0."""

    def F2(x, y):
        f = F(x, y)
        _positive_F(value_of(f))
        return f * f

    return F2


def _dsl_F2(tree, parameters):
    """The F^2 evaluator of a DSL metric, compiled once from its tree
    (module notes): the tree of F^2 when F's root is a square root or a
    power, else F * F, each with its one-kind subtrees hoisted."""
    square = dsl.squared(tree)
    if square is None:
        hoisted_F = dsl.hoist(tree)
        return _squared(lambda x, y: dsl.evaluate(hoisted_F, x, y, parameters))
    hoisted = dsl.hoist(square)

    def F2(x, y):
        values = [value_of(v) for v in x], [value_of(v) for v in y]
        _positive_F(dsl.evaluate(tree, *values, parameters))
        return dsl.evaluate(hoisted, x, y, parameters)

    return F2


def ball_predicate(radius):
    if radius is None:
        return lambda x: True
    r2 = float(radius) ** 2

    def inside(x):
        return sum(float(v) * float(v) for v in x) < r2

    return inside


def _everywhere(x, y):
    return True


def _parse_matrix(a, n, parameter_names):
    if len(a) != n or any(len(row) != n for row in a):
        raise ConfigError("coefficient matrix must be %d x %d" % (n, n))
    return [
        [
            dsl.parse_x_field(
                a[i][j], n, parameter_names, "coefficient a_%d%d" % (i + 1, j + 1)
            )
            for j in range(n)
        ]
        for i in range(n)
    ]


def _parse_vector(b, n, parameter_names):
    if len(b) != n:
        raise ConfigError("coefficient vector must have length %d" % n)
    return [dsl.parse_x_field(v, n, parameter_names, "coefficient b_i") for v in b]


def _matrix_fn(trees, parameters):
    def a_fn(x):
        zeros = [0.0] * len(x)
        return [
            [dsl.evaluate(t, x, zeros, parameters) for t in row] for row in trees
        ]

    return a_fn


def _vector_fn(trees, parameters):
    def b_fn(x):
        zeros = [0.0] * len(x)
        return [dsl.evaluate(t, x, zeros, parameters) for t in trees]

    return b_fn


def _check_symmetric(a_fn, n, where):
    for x in where:
        a = a_fn(x)
        for i in range(n):
            for j in range(i + 1, n):
                aij, aji = value_of(a[i][j]), value_of(a[j][i])
                if abs(aij - aji) > 1e-12 * max(1.0, abs(aij)):
                    raise ConfigError(
                        "a_ij not symmetric at x=%s: a[%d][%d]=%r vs a[%d][%d]=%r"
                        % (x, i + 1, j + 1, aij, j + 1, i + 1, aji)
                    )


def _memo_last(fn):
    """fn(x) with a one-entry memo for x of 1-D Series of one x-only ring,
    keyed on that ring and the coordinates' coefficient bytes: a Frame's
    F^2, its closed-form density and its quadrature F read the x-only
    coordinates of one state and share one evaluation of each field.
    Any other x goes to fn."""
    last = [(None, None)]  # (key, fn(x)) of the last x-only state

    def memoized(x):
        ring = getattr(x[0], "ring", None)
        if ring is None or ring.cap_y or not all(
            isinstance(v, Series) and v.ring is ring and v.c.ndim == 1 for v in x
        ):
            return fn(x)
        key = ring, b"".join(v.c.tobytes() for v in x)
        seen, out = last[0]
        if seen != key:
            out = fn(x)
            last[0] = key, out
        return out

    return memoized


def alpha_beta_metric(
    name,
    dimension,
    a_fn,
    b_fn,
    power_m=None,
    chart_domain=None,
    parameters=None,
):
    """MetricSpec from Riemannian-part and one-form evaluators.

    power_m=None gives Randers F = alpha + beta, on the part of the chart
    where |b|_alpha < 1; otherwise the conic power metric F = alpha^m
    beta^(1-m) on the half-cone beta > 0.
    """
    parameters = dict(parameters or {})
    given = chart_domain or (lambda x: True)
    a_fn, b_fn = _memo_last(a_fn), _memo_last(b_fn)

    def parts(x, y):
        a, b = one_kind(lambda x: (a_fn(x), b_fn(x)), x, "x", lift=False)
        return quadratic_form(a, y), linear_form(b, y)

    if power_m is None:

        def F(x, y):
            alpha_sq, beta = parts(x, y)
            return sqrt(alpha_sq) + beta

        def F2(x, y):
            alpha_sq, beta = parts(x, y)
            alpha = sqrt(alpha_sq)
            _positive_F(value_of(alpha) + value_of(beta))
            return alpha_sq + beta * (2.0 * alpha + beta)

        def chart(x):  # the given chart, where also |b|_alpha < 1
            if not given(x):
                return False
            try:
                return _b_norm_sq(a_fn, b_fn, x) < 1.0
            except (FinslerError, ZeroDivisionError):
                return False  # a(x) singular, or a field undefined at x

        cone = _everywhere
        family = "randers"
    else:
        m = float(power_m)
        if m in (0.0, 1.0):
            raise ConfigError("power exponent m must avoid 0 and 1")

        def F(x, y):
            alpha_sq, beta = parts(x, y)
            return powr(alpha_sq, m / 2.0) * powr(beta, 1.0 - m)

        def F2(x, y):
            alpha_sq, beta = parts(x, y)
            # F is real and positive on the half-cone beta > 0, alpha^2 > 0
            _positive_F(min(value_of(alpha_sq), value_of(beta)))
            return powr(alpha_sq, m) * powr(beta, 2.0 - 2.0 * m)

        def cone(x, y):  # the half-cone beta > 0
            return value_of(linear_form(b_fn(x), y)) > 0.0

        chart = given
        family = "alpha_beta_power"

    return MetricSpec(
        name=name,
        dimension=dimension,
        F=F,
        chart_domain=chart,
        cone_domain=cone,
        parameters=parameters,
        family=family,
        a_fn=a_fn,
        b_fn=b_fn,
        F2=F2,
    )


def navigation_metric(name, dimension, W_fn, chart_domain=None):
    """The Randers metric of Zermelo navigation on Euclidean space by the
    wind W_fn(x), a length-n list (Bao, Robles & Shen, JDG 2004): with
    lambda = 1 - |W|^2, summed in W's order, a = (lambda delta + W W^T) /
    lambda^2 and b = -W / lambda.  |b|_alpha = |W|, so the Randers chart
    keeps |W| < 1.  A component of W given as the number 0 stays 0.0 in b.
    """

    def wind(x):
        W = W_fn(x)
        return W, 1.0 - sum((w * w for w in W[1:]), W[0] * W[0])

    def a_fn(x):
        W, lam = wind(x)
        inv = 1.0 / (lam * lam)
        return [[(lam * (1.0 if i == j else 0.0) + W[i] * W[j]) * inv
                 for j in range(dimension)] for i in range(dimension)]

    def b_fn(x):
        W, lam = wind(x)
        inv = 1.0 / lam
        return [
            0.0 if isinstance(w, numbers.Real) and w == 0.0 else -w * inv
            for w in W
        ]

    return alpha_beta_metric(name, dimension, a_fn, b_fn,
                             chart_domain=chart_domain)


def riemannian_metric(name, dimension, a_fn, chart_domain=None, parameters=None):
    parameters = dict(parameters or {})

    def F(x, y):
        return sqrt(quadratic_form(one_kind(a_fn, x, "x", lift=False), y))

    def F2(x, y):
        alpha_sq = quadratic_form(one_kind(a_fn, x, "x", lift=False), y)
        _positive_F(value_of(alpha_sq))  # F = sqrt(alpha^2)
        return alpha_sq

    return MetricSpec(
        name=name,
        dimension=dimension,
        F=F,
        chart_domain=chart_domain or (lambda x: True),
        cone_domain=_everywhere,
        parameters=parameters,
        family="riemannian",
        a_fn=a_fn,
        F2=F2,
    )


def construct_metric(
    family,
    dimension,
    a=None,
    b=None,
    m=None,
    F=None,
    parameters=None,
    chart_radius=None,
    name=None,
):
    """Build a MetricSpec from one of the named families.

    Matrix/vector coefficients and F are DSL source strings; identifiers
    listed in ``parameters`` (a name -> value map of finite numbers) are
    usable inside them.  chart_radius, when given, is a positive number:
    the chart is the open ball of that radius.  The Randers regularity
    condition |b|_alpha < 1 is checked at the chart center (a
    RegularityError) and is part of the metric's chart
    (alpha_beta_metric), so the sampler rejects a draw that fails it as
    outside the chart.
    """
    parameters = finite_parameters(parameters)
    names = frozenset(parameters)
    n = check_dimension(dimension)
    if chart_radius is not None:
        chart_radius = finite_number(chart_radius, "chart_radius")
        if chart_radius <= 0.0:
            raise ConfigError("chart_radius must be positive, got %r" % chart_radius)
    chart = ball_predicate(chart_radius)
    label = name or family

    if family == "euclidean":
        return riemannian_metric(
            label, n, lambda x: np.eye(n).tolist(), chart, parameters
        )

    if family == "riemannian":
        if a is None:
            raise ConfigError("riemannian family needs the matrix a")
        trees = _parse_matrix(a, n, names)
        a_fn = _matrix_fn(trees, parameters)
        _check_symmetric(a_fn, n, _symmetry_probes(n, chart_radius))
        return riemannian_metric(label, n, a_fn, chart, parameters)

    if family in ("randers", "alpha_beta_power"):
        if a is None or b is None:
            raise ConfigError("%s family needs both a and b" % family)
        trees_a = _parse_matrix(a, n, names)
        trees_b = _parse_vector(b, n, names)
        a_fn = _matrix_fn(trees_a, parameters)
        b_fn = _vector_fn(trees_b, parameters)
        _check_symmetric(a_fn, n, _symmetry_probes(n, chart_radius))
        power_m = None
        if family == "alpha_beta_power":
            if m is None:
                raise ConfigError("alpha_beta_power needs the exponent m")
            power_m = finite_number(m, "alpha_beta_power exponent m")
        metric = alpha_beta_metric(
            label, n, a_fn, b_fn, power_m=power_m, chart_domain=chart,
            parameters=parameters,
        )
        if family == "randers":
            _check_randers_regularity(metric, [0.0] * n)
        return metric

    if family == "dsl":
        if F is None:
            raise ConfigError("dsl family needs the expression F")
        tree = dsl.parse(F, n, names)

        def F_fn(x, y):
            return dsl.evaluate(tree, x, y, parameters)

        return MetricSpec(
            name=label,
            dimension=n,
            F=F_fn,
            chart_domain=chart,
            cone_domain=_everywhere,
            parameters=parameters,
            family="dsl",
            F2=_dsl_F2(tree, parameters),
        )

    raise ConfigError("unknown metric family %r" % (family,))


def _symmetry_probes(n, chart_radius):
    r = 0.1 if chart_radius is None else 0.25 * float(chart_radius)
    probes = [[0.0] * n]
    for i in range(n):
        p = [0.0] * n
        p[i] = r
        probes.append(p)
    return probes


def _check_randers_regularity(metric, x):
    norm = randers_b_norm_sq(metric, x)
    if norm >= 1.0:
        raise RegularityError(
            "Randers one-form has alpha-norm^2 %.6f >= 1" % norm, x=x
        )


def randers_b_norm_sq(metric, x):
    """|b|^2 in the alpha inner product at a point (floats)."""
    if metric.a_fn is None or metric.b_fn is None:
        raise ConfigError("metric %r has no (alpha, beta) data" % metric.name)
    return _b_norm_sq(metric.a_fn, metric.b_fn, x)


def _b_norm_sq(a_fn, b_fn, x):
    xs = [float(v) for v in x]
    a = np.array([[value_of(v) for v in row] for row in a_fn(xs)], dtype=float)
    b = np.array([value_of(v) for v in b_fn(xs)], dtype=float)
    try:
        return float(b @ np.linalg.solve(a, b))
    except np.linalg.LinAlgError:
        raise RegularityError("Randers a(x) is singular", x=xs) from None


def _fsq_partials(metric, state, order):
    """Every order-th y-partial of F^2 at a state, indexed [r_1..r_order].

    One evaluation in the stage ring SeriesRing.get(n).stage(0, order),
    with x kept as floats and y its YVariables.
    """
    x, y = state
    n = metric.dimension
    ring = SeriesRing.get(n).stage(0, order)
    ys = ring.y_variables(y)
    fsq = metric.F2([float(v) for v in x], ys)
    if not isinstance(fsq, Series):  # F^2 does not depend on y
        return np.zeros((n,) * order)
    return fsq.partials(0, order)


def fundamental_tensor(metric, state):
    """g_ij = half the y-Hessian of F^2 (lower-lower), checked definite."""
    x, y = state
    g = 0.5 * _fsq_partials(metric, state, 2)
    if np.linalg.eigvalsh(g)[0] <= 0.0:
        raise RegularityError(
            "fundamental tensor is not positive definite", x=x, y=y
        )
    return TensorValue(g, ("lower", "lower"), (tuple(x), tuple(y)))


def cartan_torsion(metric, state):
    """C_ijk = quarter of the third y-derivative of F^2 (lower^3)."""
    x, y = state
    C = 0.25 * _fsq_partials(metric, state, 3)
    return TensorValue(C, ("lower", "lower", "lower"), (tuple(x), tuple(y)))
