"""Volume forms dV = sigma(x) dx for the S-curvature.

Four kinds: constant density, Busemann-Hausdorff by spherical
quadrature, the Randers closed form, and a user DSL density.  The
closed-form and DSL sigmas are scalar-ring-generic in x so the
S-curvature pipeline can differentiate through them.  A density
depends on x alone, so the engine evaluates every kind, and its
logarithm, in the x-only ring and embeds the result into the full ring
once (engine.log_sigma_series).  The quadrature takes x as floats or
as series of an x-only ring: all its directions enter F as one batch of
constants (see the series module), so F is evaluated once per x, not
once per direction.  A product with a batch of constants scales the
other factor rather than gathering the product table, so of the 22
batched products in a Randers F^-3 at n=3 only F * F and F^2 * F
gather it.

Quadrature grid: the azimuthal directions are periodic and get uniform
trapezoid nodes (spectrally accurate there); the polar direction is not
periodic, where a trapezoid would be stuck at O(h^2), so it uses
Gauss-Legendre in cos(theta) instead.  After averaging over the
azimuth the integrand is analytic in cos(theta), which makes that
factor spectral as well; the node count (48 x 96 for n=3, 256 for
n=2) then lands the closed-form comparison well inside 1e-6.
"""

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from . import expr as dsl
from .errors import ConfigError, DomainError
from .scalars import powr, ring_inv, sqrt, value_of
from .scalars import ring_det  # noqa: F401  (perfbench/spans.py wraps this name)
from .series import Series, SeriesRing


@dataclass(frozen=True)
class VolumeForm:
    kind: str  # constant | bh_quadrature | bh_randers_closed | dsl
    label: str
    sigma: Callable  # x_vec (any ring) -> positive scalar


@lru_cache(maxsize=None)
def sphere_nodes(n):
    """Fixed direction/weight set on the unit sphere S^{n-1}."""
    if n == 2:
        k = 256
        phi = 2.0 * math.pi * np.arange(k) / k
        dirs = np.stack([np.cos(phi), np.sin(phi)], axis=1)
        weights = np.full(k, 2.0 * math.pi / k)
        return dirs, weights
    if n == 3:
        nu, nphi = 48, 96
        u, wu = np.polynomial.legendre.leggauss(nu)  # u = cos(theta)
        phi = 2.0 * math.pi * np.arange(nphi) / nphi
        wphi = 2.0 * math.pi / nphi
        su = np.sqrt(1.0 - u**2)
        dirs = np.empty((nu * nphi, 3))
        weights = np.empty(nu * nphi)
        for i in range(nu):
            rows = slice(i * nphi, (i + 1) * nphi)
            dirs[rows, 0] = su[i] * np.cos(phi)
            dirs[rows, 1] = su[i] * np.sin(phi)
            dirs[rows, 2] = u[i]
            weights[rows] = wu[i] * wphi
        return dirs, weights
    raise ConfigError("quadrature volume is implemented for n in {2, 3}")


def unit_ball_volume(n):
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def bh_sigma_quadrature(metric, x):
    """Busemann-Hausdorff density at x by spherical quadrature.

    sigma(x) = Vol(B^n) / ((1/n) * integral over S^{n-1} of F(x, d)^-n).
    x is a list of floats (returns a float) or of x-only Series (returns
    a Series of that ring).  Errors on conic metrics, whose F is
    undefined on part of the sphere.
    """
    n = metric.dimension
    if metric.family == "alpha_beta_power":
        raise DomainError(
            "Busemann-Hausdorff quadrature needs F on the whole sphere; "
            "%r is conic - supply a density instead" % metric.name
        )
    lifted = all(isinstance(v, numbers.Real) for v in x)
    if lifted:
        ring = SeriesRing.get(n, 0, 0)
        x = [ring.constant(v) for v in x]
    elif all(isinstance(v, Series) and v.ring.cap_y == 0 for v in x):
        ring = x[0].ring
    else:
        raise TypeError(
            "quadrature density takes x as floats or as x-only Series "
            "(cap_y=0), got %s" % sorted({type(v).__name__ for v in x})
        )
    dirs, weights = sphere_nodes(n)
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


def bh_randers_closed(metric, x):
    """Closed-form BH density of a Randers metric.

    sigma = (1 - |b|_alpha^2)^((n+1)/2) * sqrt(det a); ring-generic.
    """
    _require_randers(metric)
    n = metric.dimension
    a = metric.a_fn(x)
    b = metric.b_fn(x)
    det, ainv = ring_inv(a)
    bnorm2 = None
    for i in range(n):
        for j in range(n):
            term = b[i] * ainv[i][j] * b[j]
            bnorm2 = term if bnorm2 is None else bnorm2 + term
    if value_of(bnorm2) >= 1.0:
        raise DomainError(
            "Randers one-form norm^2 %.6f >= 1 at x" % value_of(bnorm2)
        )
    return powr(1.0 - bnorm2, (n + 1) / 2.0) * sqrt(det)


def constant_volume(value=1.0):
    v = float(value)
    if v <= 0.0:
        raise ConfigError("constant density must be positive")
    return VolumeForm(kind="constant", label="constant", sigma=lambda x: v)


def dsl_volume(source, dimension, parameters=None):
    parameters = dict(parameters or {})
    tree = dsl.parse_x_field(
        source, dimension, frozenset(parameters), "volume density"
    )

    def sigma(x):
        return dsl.evaluate(tree, x, [0.0] * dimension, parameters)

    return VolumeForm(kind="dsl", label="dsl:%s" % source, sigma=sigma)


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

    def sigma(x):
        return bh_randers_closed(metric, x)

    return VolumeForm(kind="bh_randers_closed", label="bh-randers", sigma=sigma)


def bh_quadrature_volume(metric):
    n = metric.dimension
    if metric.family == "alpha_beta_power":
        raise ConfigError(
            "conic metric %r has no all-directions BH density; "
            "use a constant or dsl volume form" % metric.name
        )
    sphere_nodes(n)  # a dimension with no grid fails here, before any state

    def sigma(x):
        return bh_sigma_quadrature(metric, x)

    return VolumeForm(kind="bh_quadrature", label="bh-quadrature", sigma=sigma)
