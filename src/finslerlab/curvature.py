"""Curvature quantities of a Finsler metric at one admissible state.

Everything here is a pure function of (metric, volume form, x, y),
read from the one engine Frame a GeometryState builds on first use.
The heavy lifting (deep mixed partials of the spray) happens in the
series engine.  Each accessor returns one Frame output through
tensor(state, name): a copy of the Frame's array, so a caller that
changes it changes nothing the Frame serves next, with the variance
that engine.VARIANCE records for that output.
"""

from functools import cached_property
from operator import attrgetter

import numpy as np

from .engine import VARIANCE, Frame
from .errors import RegularityError
from .metrics import TensorValue

_ROUTE_TOL = 1e-6


class GeometryState:
    """A metric, a volume form, and one admissible tangent vector."""

    def __init__(self, metric, volume, x, y):
        self.metric = metric
        self.volume = volume
        self.x = tuple(float(v) for v in x)
        self.y = tuple(float(v) for v in y)

    @cached_property
    def frame(self):
        """The engine Frame of this state, built once on first use."""
        return Frame(self.metric, self.volume, self.x, self.y)

    @property
    def state_tuple(self):
        return (self.x, self.y)


def tensor(state, name):
    """The Frame output `name` at the state: a copy of the array, with the
    variance engine.VARIANCE records for its last name ("projective.R" is
    R of the projective spray)."""
    return TensorValue(
        components=np.array(attrgetter(name)(state.frame), dtype=float),
        variance=VARIANCE[name.rsplit(".", 1)[-1]],
        state=state.state_tuple,
    )


def spray(state):
    """Spray coefficients G^i (degree 2 in y)."""
    return tensor(state, "G")


def connections(state):
    """Nonlinear connection N^i_j and Berwald connection Gamma^i_jk."""
    return tensor(state, "N"), tensor(state, "Gamma")


def riemann(state):
    """Riemann curvature R^i_k built from the spray."""
    return tensor(state, "R")


def riemann_full(state):
    """(R^i_kl, R_j^i_kl): the antisymmetrized curvature and its fiber
    derivative, with R_j^i_kl y^j = R^i_kl."""
    return tensor(state, "R_kl"), tensor(state, "R_full")


def berwald_curvature(state):
    """Berwald curvature B_j^i_kl (third fiber derivative of the spray)."""
    return tensor(state, "B")


def mean_berwald(state):
    """Mean Berwald curvature E_jk = half the (i,l) trace of B.

    Computed by the trace route and cross-checked against the
    half-Hessian of the S-curvature; a disagreement means the state is
    numerically unusable, which is reported as a regularity failure.
    """
    f = state.frame
    gap = np.abs(f.E - f.E_from_trace).max()
    if gap > _ROUTE_TOL * max(1.0, np.abs(f.E).max()):
        raise RegularityError(
            "mean Berwald routes disagree by %.3e at x=%s y=%s"
            % (gap, state.x, state.y)
        )
    return tensor(state, "E_from_trace")


def s_curvature(state):
    """S-curvature: spray divergence minus the logarithmic volume drift."""
    return float(state.frame.S)


def distortion(state):
    """Distortion ln(sqrt(det g)/sigma) at the state."""
    return float(state.frame.tau)


def douglas_tensor(state):
    """Douglas tensor: Berwald curvature minus its spray-divergence part."""
    return tensor(state, "D")


def gdw_residual(state):
    """(component of P orthogonal to y, extracted factor T_jkl).

    The metric is generalized Douglas-Weyl iff the first part vanishes;
    T is the proportionality factor P = T y, meaningful only then.
    """
    return tensor(state, "gdw_residual"), np.array(state.frame.gdw_factor)


def residual_scale(state):
    """max(1, max|B|, max|D|): the reference magnitude for verdicts."""
    return float(state.frame.scale)

