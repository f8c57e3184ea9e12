"""Volume forms dV = sigma(x) dx for the S-curvature.

Four kinds: constant density, Busemann-Hausdorff by spherical
quadrature, the Randers closed form, and a user DSL density.  A
VolumeForm carries ln sigma (VolumeForm.log_sigma), all that S and tau
read: the constant, DSL and quadrature forms take ln of the sigma they
compute, and the closed form computes ln sigma itself.  Each takes x as
series, so the S-curvature pipeline differentiates through it, and the
DSL density also takes jets.  ln sigma depends on x alone, so the
engine evaluates every kind in the x-only stage ring of the Frame's
root (series.one_kind in engine.log_sigma_series).

The closed form, ln sigma = ((n+1)/2) ln(1 - b.a^-1 b) + ln(det a)/2,
is one lane pass (bh_randers_closed): a(x) is one Series with lanes
[i, j] and b(x) one with lanes [i]; the sweep on floats (ring_inv of
a's value) gives det a0 and a0^-1; the graded solve (series.graded_solve)
gives a^-1 b, and |b|^2 is one product of n lanes; ln det a is tau's
formula (series.ln_det), exact in the x-only stage, where M = a0^-1 a -
I has no cube: 2 ring products and 1 graded ln.  a(x) and b(x) come
from MetricSpec.a_fn and b_fn, which the (alpha, beta) families keep
with a one-entry memo (metrics module notes), so a state's F^2 and its
density share one evaluation of each.

The quadrature takes x as series of an
x-only ring (cap_y = 0), or floats lifted into the root's (0, 0) stage:
all its directions enter F as one batch of constants (see the series
module), so F is evaluated once per x, not once per direction.  A
product with a batch of constants scales the other factor rather than
gathering the product table, so of the 22 batched products in a Randers
F^-3 at n=3 only F * F and F^2 * F gather it.

Quadrature rules: a rung m of a fixed ladder (LADDER) is a product
rule on S^{n-1} (sphere_nodes, n = 2, 3, 4).  Periodic angles get 2m
uniform trapezoid nodes each (spectrally accurate there); the polar
coordinate u is not periodic, where a trapezoid would be stuck at
O(h^2), so it gets m Gauss-Legendre nodes.  After averaging over the
angles the integrand is analytic in u, which makes that factor
spectral as well.  At n = 3, u = cos(theta); at n = 4, Hopf coordinates
leave two periodic angles.  One size does not fit every metric (a
coarse rung can be exact at x = 0 and off by 1e-11 at sampled x), so
bh_quadrature_volume chooses the rung once per metric (choose_rule):
it walks up the ladder, evaluating ln sigma on floats at the origin and
at +-PROBE_RADIUS e_i, and stops at the first two consecutive rungs
that agree at every probe to AGREE_EPS machine epsilons of
max(1, |ln sigma|).  The finer of the two is the rule, and its reported
error estimate is that tolerance: the two rungs agree within it, and
the ladder does not tell a smaller gap from rounding.  Only a ladder
that ends with no two rungs agreeing reports a larger estimate, the
last rung's gap.
"""

import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from . import expr as dsl
from .errors import ConfigError, DomainError, TowerBudgetError
from .metrics import finite_parameters
from .scalars import ln, powr, ring_inv, value_of
from .scalars import ring_det  # noqa: F401  (perfbench/spans.py wraps this name)
from .series import Series, SeriesRing, as_lanes, graded_solve, ln_det, one_kind


# the rungs m of the quadrature ladder (module notes)
LADDER = (8, 12, 16, 24, 32, 48, 64)
# two rungs agree when ln sigma differs by at most this many machine
# epsilons of max(1, |ln sigma|) at every probe
AGREE_EPS = 64
# the probes are the origin and +-PROBE_RADIUS e_i: the sampler's default
# x radius (classify.SamplePlan), so that they span the sampled states
PROBE_RADIUS = 0.4


@dataclass(frozen=True)
class QuadratureRule:
    """The rung of the ladder that choose_rule picked for a metric."""

    shape: tuple  # nodes per sphere coordinate, polar first
    # AGREE_EPS machine epsilons (1.4e-14) whenever two rungs agreed, as
    # the ladder does not tell a smaller gap from rounding; else the last
    # rung's largest ln sigma gap to the rung below, of max(1, |ln sigma|)
    estimate: float
    nodes: tuple = field(repr=False, compare=False)  # sphere_nodes' (dirs, weights)

    @property
    def directions(self):
        return len(self.nodes[1])

    def as_dict(self):
        return {
            "grid": list(self.shape),
            "directions": self.directions,
            "estimate": self.estimate,
        }


@dataclass(frozen=True)
class VolumeForm:
    """A density sigma(x) dx, given by its logarithm: ln sigma is all
    that the S-curvature and the distortion read.  The constant, dsl and
    quadrature forms take ln of the sigma they compute; the closed form
    computes ln sigma itself (bh_randers_closed)."""

    kind: str  # constant | bh_quadrature | bh_randers_closed | dsl
    label: str
    log_sigma: Callable  # x_vec (floats or Series of x) -> ln sigma
    rule: Optional[QuadratureRule] = None  # the quadrature's chosen rule


def grid_shape(n, m):
    """Nodes per coordinate of rung m on S^{n-1}, polar first."""
    return (2 * m,) if n == 2 else (m,) + (2 * m,) * (n - 2)


@lru_cache(maxsize=None)
def sphere_nodes(n, m):
    """Rung m of the ladder on the unit sphere S^{n-1}: (dirs, weights).

    n = 2: 2m trapezoids in the angle.  n = 3: m Gauss-Legendre nodes in
    u = cos(theta) times 2m trapezoids in the azimuth.  n = 4, in Hopf
    coordinates y = (r1 cos a, r1 sin a, r2 cos b, r2 sin b) with
    r1^2 = (1 + u)/2, r2^2 = (1 - u)/2 and area element du da db / 4:
    m Gauss-Legendre nodes in u times 2m trapezoids in each of a and b.
    Directions run over the last coordinate fastest.
    """
    if not 2 <= n <= 4:
        raise ConfigError(
            "quadrature volume is implemented for n in {2, 3, 4}, got %d" % n
        )
    k = 2 * m
    phi = 2.0 * math.pi * np.arange(k) / k
    h = 2.0 * math.pi / k
    circle = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
    u, wu = np.polynomial.legendre.leggauss(m)
    if n == 2:
        dirs, weights = circle, np.full(k, h)
    elif n == 3:
        dirs = np.empty((m, k, 3))
        dirs[..., :2] = np.sqrt(1.0 - u**2)[:, None, None] * circle
        dirs[..., 2] = u[:, None]
        weights = np.repeat(wu * h, k)
    else:
        dirs = np.empty((m, k, k, 4))
        dirs[..., :2] = np.sqrt((1.0 + u) / 2.0)[:, None, None, None] * circle[:, None]
        dirs[..., 2:] = np.sqrt((1.0 - u) / 2.0)[:, None, None, None] * circle
        weights = np.repeat(wu * (h * h / 4.0), k * k)
    dirs = dirs.reshape(-1, n)
    # every caller shares the cached arrays
    dirs.flags.writeable = weights.flags.writeable = False
    return dirs, weights


def unit_ball_volume(n):
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def _in_ring(n, x, what):
    """(x, ring, lifted): floats lifted into the root's (0, 0) stage, or
    Series of an x-only ring as they are."""
    if all(isinstance(v, numbers.Real) for v in x):
        ring = SeriesRing.get(n).stage(0, 0)
        return [ring.constant(v) for v in x], ring, True
    if all(isinstance(v, Series) and v.ring.cap_y == 0 for v in x):
        return x, x[0].ring, False
    raise TypeError(
        "%s takes x as floats or as x-only Series (cap_y=0), got %s"
        % (what, sorted({type(v).__name__ for v in x}))
    )


def _sigma(metric, x, nodes):
    """The quadrature density at x (floats or x-only Series) by one rule."""
    n = metric.dimension
    x, ring, lifted = _in_ring(n, x, "quadrature density")
    dirs, weights = nodes
    F = metric.F(x, [ring.constant(dirs[:, i]) for i in range(n)])
    bad = np.flatnonzero(value_of(F) <= 0.0)
    if bad.size:
        raise DomainError(
            "F <= 0 at quadrature direction %s" % (tuple(dirs[bad[0]]),)
        )
    terms = powr(F, -float(n))
    total = Series(terms.ring, weights @ terms.c)
    sigma = (float(n) * unit_ball_volume(n)) / total
    return sigma.value() if lifted else sigma


def _require_whole_sphere(metric, error):
    if metric.family == "alpha_beta_power":
        raise error(
            "Busemann-Hausdorff quadrature needs F on the whole sphere; "
            "%r is conic - supply a constant or dsl density instead" % metric.name
        )


def choose_rule(metric):
    """The QuadratureRule of a metric: the finer of the first two
    consecutive rungs of LADDER whose ln sigma agree at every probe
    (module notes), or the last rung if none do.  The probes outside the
    metric's chart are left out; a DomainError at a probe propagates."""
    n = metric.dimension
    _require_whole_sphere(metric, ConfigError)
    probes = [[0.0] * n] + [
        [sign * PROBE_RADIUS if j == i else 0.0 for j in range(n)]
        for i in range(n)
        for sign in (1.0, -1.0)
    ]
    probes = [x for x in probes if metric.chart_domain(x)]
    if not probes:
        raise ConfigError(
            "no quadrature probe lies in the chart of %r" % metric.name
        )
    tolerance = AGREE_EPS * np.finfo(float).eps
    below, gap = None, math.inf
    for m in LADDER:
        nodes = sphere_nodes(n, m)  # a dimension with no rule fails here
        logs = np.log([_sigma(metric, x, nodes) for x in probes])
        if below is not None:
            gap = float(np.max(np.abs(logs - below) / np.maximum(1.0, np.abs(logs))))
            if gap <= tolerance:
                break
        below = logs
    return QuadratureRule(grid_shape(n, m), max(gap, tolerance), nodes)


def bh_sigma_quadrature(metric, x, nodes):
    """Busemann-Hausdorff density at x by spherical quadrature.

    sigma(x) = Vol(B^n) / ((1/n) * integral over S^{n-1} of F(x, d)^-n).
    x is a list of floats (returns a float) or of x-only Series (returns
    a Series of that ring).  nodes is a rule's (dirs, weights), as
    sphere_nodes gives them: the metric's QuadratureRule.nodes, which
    bh_quadrature_volume chooses once per metric (choose_rule).
    Errors on conic metrics, whose F is undefined on part of the sphere.
    """
    _require_whole_sphere(metric, DomainError)
    return _sigma(metric, x, nodes)


def bh_randers_closed(metric, x):
    """ln sigma of the closed-form BH density of a Randers metric,
    sigma = (1 - |b|_alpha^2)^((n+1)/2) sqrt(det a), in one lane pass.

    x is a list of floats (returns a float, run in the (0, 0) stage as
    the quadrature does) or of Series free of y (returns a Series of
    their ring): coordinates of a ring with y-orders run in its x-only
    stage and the result is embedded back (series.one_kind), and
    coordinates that move with y, like jets, are a TypeError.  a(x) is
    one Series with lanes [i, j], read from its upper triangle as the
    sweep reads it, and b(x) one with lanes [i]; the sweep on a's value
    (ring_inv on floats) gives det a0 and a0^-1, the graded solve a^-1 b,
    and |b|^2 = b . a^-1 b is one product of n lanes.  ln det a is
    series.ln_det, exact in an x-only ring of x-order or total degree at
    most 2 (TowerBudgetError past both).  DomainError when det a0 <= 0
    (a zero pivot of the sweep included) or |b|^2 >= 1.
    """
    _require_randers(metric)
    return one_kind(lambda x: _closed_log_sigma(metric, x), x, "x")


def _closed_log_sigma(metric, x):
    """bh_randers_closed at floats or x-only Series."""
    n = metric.dimension
    x, ring, lifted = _in_ring(n, x, "closed-form density")
    if min(ring.cap_x, ring.cap_d) > 2:
        raise TowerBudgetError(
            "ln det a is exact to x-order or total degree 2, past the "
            "ring's (%d, %d, %d)" % (ring.cap_x, ring.cap_y, ring.cap_d)
        )
    a, b = metric.a_fn(x), metric.b_fn(x)
    upper = [a[min(i, j)][max(i, j)] for i in range(n) for j in range(n)]
    a, b = as_lanes(upper, ring, ring), as_lanes(b, ring, ring)
    if a is None or b is None:
        raise TypeError("a coefficient field left the ring of x")
    a = Series(ring, a.c.reshape(n, n, ring.size))
    try:
        det, inverse = ring_inv(a.value().tolist())
    except ZeroDivisionError:  # a zero leading minor: a0 is not definite
        det = 0.0
    if not det > 0.0:
        raise DomainError("Randers a(x) has det %r <= 0 at x" % det)
    inverse = np.array(inverse)
    ainv_b = graded_solve(a, b, inverse)
    b2 = Series(ring, (b * ainv_b).c.sum(axis=0))
    if b2.value() >= 1.0:
        raise DomainError("Randers one-form norm^2 %.6f >= 1 at x" % b2.value())
    out = ln(1.0 - b2) * ((n + 1) / 2.0) + ln_det(a, det, inverse) * 0.5
    return out.value() if lifted else out


def constant_volume(value=1.0):
    v = float(value)
    if v <= 0.0:
        raise ConfigError("constant density must be positive")
    log_v = ln(v)
    return VolumeForm(kind="constant", label="constant", log_sigma=lambda x: log_v)


def dsl_volume(source, dimension, parameters=None):
    parameters = finite_parameters(parameters)
    tree = dsl.parse_x_field(
        source, dimension, frozenset(parameters), "volume density"
    )

    def log_sigma(x):
        return ln(dsl.evaluate(tree, x, [0.0] * dimension, parameters))

    return VolumeForm(kind="dsl", label="dsl:%s" % source, log_sigma=log_sigma)


def _require_randers(metric):
    if metric.family != "randers":
        raise ConfigError(
            "closed-form BH density applies to Randers metrics only, got %r"
            % metric.family
        )


def bh_randers_volume(metric):
    """The closed-form BH volume form; a ConfigError up front unless the
    metric is Randers."""
    _require_randers(metric)

    def log_sigma(x):
        return bh_randers_closed(metric, x)

    return VolumeForm(kind="bh_randers_closed", label="bh-randers", log_sigma=log_sigma)


def bh_quadrature_volume(metric):
    """The quadrature BH volume form with its rule, chosen here
    (choose_rule); a ConfigError up front on a conic metric or a
    dimension with no rule."""
    rule = choose_rule(metric)

    def log_sigma(x):
        return ln(bh_sigma_quadrature(metric, x, nodes=rule.nodes))

    return VolumeForm(
        kind="bh_quadrature", label="bh-quadrature", log_sigma=log_sigma, rule=rule
    )
