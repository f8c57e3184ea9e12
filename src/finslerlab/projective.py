"""Projective spray, projective curvature, and identity residuals.

Given a spray G and a volume form, the projective spray is
Gt^i = G^i - S y^i / (n + 1), the engine.Spray frame.projective.  Its
Riemann curvature and its Douglas tensor, which is D itself (Douglas is
a projective invariant), feed a family of identities (named below) that
hold either for every metric or exactly on a classification boundary;
each identity is exposed as a residual whose two sides come from
separate pipelines.
The tensors come from the state's Frame as curvature.tensor returns
them (copies, with the variance of engine.VARIANCE); the residuals of
constflag and lemma21 are R-shaped arrays computed per call.
"""

from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from . import engine
from .curvature import GeometryState, tensor
from .errors import ConfigError
from .expr import evaluate, parse
from .metrics import TensorValue

IDENTITY_KINDS = ("thm31", "master", "thm33", "constflag", "pricci", "lemma21")

# the kinds that are one Frame residual, and its attribute name
_FRAME_RESIDUALS = {
    "thm31": "thm31_residual",
    "master": "master_residual",
    "thm33": "thm33_residual",
    "pricci": "pricci_residual",
}


class ProjectiveState(NamedTuple):
    base: GeometryState
    spray_tilde: np.ndarray
    S_value: float


class ProjectiveRicci(NamedTuple):
    direct: float
    assembled: float


def projective_spray(state: GeometryState) -> ProjectiveState:
    """Projective spray of (metric, volume) at the state.

    The returned components come from the truncated-series pipeline;
    they are cross-checked against the direct assembly from the spray
    and the S-curvature before being handed back.
    """
    frame = state.frame
    tilde = np.array(frame.projective.G, dtype=float)
    assembled = frame.G - frame.S * np.asarray(state.y, dtype=float) / (
        frame.n + 1
    )
    bound = 1e-12 * max(1.0, float(np.abs(frame.G).max()), abs(frame.S))
    gap = float(np.abs(tilde - assembled).max())
    if gap > bound:
        raise ArithmeticError(
            "projective spray assembly mismatch (%.3e > %.3e)" % (gap, bound)
        )
    return ProjectiveState(state, tilde, float(frame.S))


def projective_ricci(state: GeometryState) -> ProjectiveRicci:
    """Projective Ricci curvature by two routes.

    direct: trace of the Riemann curvature of the projective spray.
    assembled: Ric + (n-1) { S_{|0}/(n+1) + (S/(n+1))^2 } from the base
    metric's tensors.
    """
    frame = state.frame
    return ProjectiveRicci(
        frame.projective_ricci_direct(), frame.projective_ricci_assembled()
    )


def pr_riemann(state: GeometryState):
    """Projective Riemann curvature: PR^i_k and PR_j^i_{kl}, the Riemann
    curvature of the projective spray."""
    return tensor(state, "projective.R"), tensor(state, "projective.R_full")


def pr_quadratic_residual(state: GeometryState) -> TensorValue:
    """y-derivative of PR_j^i_{kl}; zero iff the metric is PR-quadratic."""
    return tensor(state, "projective.R_full_dot")


ProjectiveFactor = Union[str, Callable]


def projective_factor(p: Optional[ProjectiveFactor], dimension, parameters=None):
    """The projective factor P as a callable P(x, y).

    p is a callable, used as it is, or a DSL expression in x1..xn,
    y1..yn and the parameters, parsed here once.  A missing p is a
    ConfigError.
    """
    if p is None:
        raise ConfigError(
            "lemma21 needs a projective factor "
            "(DSL expression in x1..xn, y1..yn, or a callable)"
        )
    if callable(p):
        return p
    tree = parse(str(p), dimension, parameter_names=tuple(parameters or ()))

    def func(xs, ys, _params=dict(parameters or {})):
        return evaluate(tree, xs, ys, _params)

    return func


def _homogeneous_factor(p, state: GeometryState, parameters):
    """projective_factor(p, ...), checked 1-homogeneous in y at the state
    before anything builds the state's Frame."""
    func = projective_factor(p, state.metric.dimension, parameters)
    x = [float(v) for v in state.x]
    y = [float(v) for v in state.y]
    base = float(np.asarray(func(x, y), dtype=float))
    doubled = float(np.asarray(func(x, [2.0 * v for v in y]), dtype=float))
    if abs(doubled - 2.0 * base) > 1e-8 * max(1.0, abs(base), abs(doubled)):
        raise ConfigError(
            "projective factor is not 1-homogeneous in y: "
            "P(x,2y)=%.6g but 2 P(x,y)=%.6g" % (doubled, 2.0 * base)
        )
    return func


def identity_residual(
    kind: str,
    state: GeometryState,
    lam: Optional[float] = None,
    p: Optional[ProjectiveFactor] = None,
    parameters=None,
) -> TensorValue:
    """Residual LHS - RHS of one of the named curvature identities.

    Kinds:
      thm31    -- D_{kl|0} against its S-curvature source term; zero iff
                  PR-quadratic.
      master   -- fiber derivative of the projective Riemann curvature
                  against the Dbar / S-curvature assembly; an identity
                  for every metric.
      thm33    -- horizontal derivative of S_{.j.k} against S_{.r} D;
                  the R-quadratic reduction.
      constflag-- R^i_k - lam (F^2 delta - y y_flat); lam=None fits the
                  least-squares value at the state.
      pricci   -- Ricci-type commutator of the projective Douglas tensor
                  (D, differentiated along the projective spray's
                  connection) against the same fiber derivative; every
                  metric.
      lemma21  -- curvature transformation under G -> G + P y for a
                  1-homogeneous factor P (pass p=...).
    """
    kind_key = str(kind).lower()
    if kind_key not in IDENTITY_KINDS:
        raise ConfigError(
            "unknown identity kind %r; expected one of: %s"
            % (kind, ", ".join(IDENTITY_KINDS))
        )
    if kind_key in _FRAME_RESIDUALS:
        return tensor(state, _FRAME_RESIDUALS[kind_key])
    if kind_key == "lemma21":
        func = _homogeneous_factor(p, state, parameters)
        residual = engine.lemma21_residual(state.frame, func)
    else:  # constflag
        frame = state.frame
        value = frame.constflag_lambda_fit() if lam is None else float(lam)
        residual = frame.constflag_residual(value)
    return TensorValue(residual, engine.VARIANCE["R"], state.state_tuple)


def douglas_invariance_gap(
    state: GeometryState, p: ProjectiveFactor, parameters=None
) -> float:
    """Max deviation of the Douglas tensor under the change G -> G + P y."""
    func = _homogeneous_factor(p, state, parameters)
    frame = state.frame
    Ghat, _ = engine.modified_spray(frame, func, (1, 5))  # the cubes' reads
    modified = engine.Spray(Ghat, frame.ys).D
    return float(np.abs(modified - frame.D).max())
