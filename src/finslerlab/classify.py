"""Sampling plans, tolerance policy, and curvature classification.

A metric is classified by evaluating curvature residuals at a seeded
batch of admissible states.  Every "holds" verdict is a statement about
the sample; a single above-tolerance state refutes a predicate, which
matches how the underlying definitions quantify (they are for-all
statements over the slit tangent bundle).

A state only counts if its residuals can resolve the tolerance.  The
rounding floor of a relative residual grows with the condition number
kappa of the fundamental tensor g (the fourth y-derivative of the spray
carries up to five factors of g^-1, then one horizontal derivative
follows).  kappa is taken relative to the metric's Riemannian part a(x)
(relative_condition): it follows the degeneracy of g at the edge of
strong convexity, is unchanged by linear changes of coordinates, and is
1 for every Riemannian metric, however anisotropic its a(x).  The
predicted floor is eps max(C kappa^p) over the terms (C, p) of
ROUNDING_FLOOR, fitted as the upper envelope of the residuals of a
Berwald metric (mkropina_yang), where every nonzero one is rounding.  The
sampler rejects a draw whose predicted floor exceeds Tolerances.rel and
tallies it as "ill_conditioned"; at the default rel = 1e-6 that is
kappa > 18.4.  Draws near the strong-convexity edge of a conic metric are
the ones it removes; the Randers and Riemannian catalog entries sit at
kappa <= 3.5 and lose none.  A metric given by a DSL F alone has no a(x)
and is not screened.
"""

import math
import numbers
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from . import __version__
from .curvature import GeometryState
from .errors import ConfigError, FinslerError, ParseError, SamplingError
from .metrics import fundamental_tensor
from .scalars import value_of

PREDICATES = (
    "riemannian",
    "berwald",
    "weakly_berwald",
    "douglas",
    "dbar",
    "gdw",
    "r_quadratic",
    "pr_quadratic",
    "s_flat",
    "constant_flag",
)

# Terms (C, p) of the rounding floor eps max(C kappa^p) of a relative
# residual at relative condition number kappa.  Fitted as upper envelopes
# of the Berwald-implied residuals of mkropina_yang at sample seeds 0-39:
# C = 115 is 114.1 over the residuals that reach 1e-8 (1 % of the default
# rel), rounded up; the kappa^4 term (2.69e4, rounded up) covers the
# smaller ones, which the kappa^6 term underestimates (4e-9 at kappa 5).
ROUNDING_FLOOR = ((115.0, 6), (2.7e4, 4))

# spread of the per-state least-squares flag curvature that still counts
# as "constant across the sample"
LAMBDA_CONSTANCY_TOL = 1e-4

_HIERARCHY_EDGES = (
    ("berwald", "douglas"),
    ("douglas", "dbar"),
    ("dbar", "gdw"),
    ("douglas", "pr_quadratic"),
    ("pr_quadratic", "gdw"),
)


@dataclass(frozen=True)
class SamplePlan:
    count: int = 20
    seed: int = 20250405
    x_radius: float = 0.4

    def __post_init__(self):
        for name, low in (("count", 1), ("seed", 0)):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
                    or value < low):
                raise ConfigError(
                    "sample %s must be an integer >= %d, got %r" % (name, low, value)
                )
        # the negated test also rejects NaN
        if not 0.0 < self.x_radius < math.inf:
            raise ConfigError(
                "x_radius must be positive and finite, got %r" % (self.x_radius,)
            )


@dataclass(frozen=True)
class Tolerances:
    rel: float = 1e-6
    absolute: float = 1e-9

    def __post_init__(self):
        # the negated tests also reject NaN; rel may be infinite
        if not self.rel > 0.0:
            raise ConfigError("tolerance rel must be positive, got %r" % self.rel)
        if not self.absolute >= 0.0:
            raise ConfigError(
                "tolerance abs must be non-negative, got %r" % self.absolute
            )

    def bound(self, scale):
        return self.absolute + self.rel * scale


@dataclass(frozen=True)
class SampleBatch:
    states: Tuple[Tuple[tuple, tuple], ...]
    rejections: int
    rejection_reasons: Dict[str, int]


@dataclass(frozen=True)
class PredicateResult:
    name: str
    verdict: str  # holds | fails | indeterminate
    max_residual: float
    scale: float
    worst_state: Optional[Tuple[tuple, tuple]]
    details: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class ErroredState:
    """A sampled state whose Frame raised, with the exception it raised."""

    error: str  # exception class name
    message: str
    state: Tuple[tuple, tuple]

    def as_dict(self):
        return {
            "error": self.error,
            "message": self.message,
            "x": list(self.state[0]),
            "y": list(self.state[1]),
        }


@dataclass(frozen=True)
class ClassificationReport:
    metric_name: str
    volume_label: str
    plan: SamplePlan
    tolerances: Tolerances
    predicates: Dict[str, PredicateResult]
    rejections: int
    rejection_reasons: Dict[str, int]  # reason -> rejected draws
    errors: Tuple[ErroredState, ...]
    hierarchy_violations: Tuple[str, ...]
    version: str = __version__

    @property
    def errored_states(self):
        return len(self.errors)

    def verdict(self, name):
        return self.predicates[name].verdict

    def as_dict(self):
        preds = []
        for name in PREDICATES:
            r = self.predicates[name]
            entry = {
                "name": name,
                "verdict": r.verdict,
                "max_residual": r.max_residual,
                "scale": r.scale,
                "worst_state": (
                    None
                    if r.worst_state is None
                    else [list(r.worst_state[0]), list(r.worst_state[1])]
                ),
            }
            entry.update(r.details)
            preds.append(entry)
        return {
            "metric": self.metric_name,
            "volume": self.volume_label,
            "plan": {
                "count": self.plan.count,
                "seed": self.plan.seed,
                "x_radius": self.plan.x_radius,
            },
            "tolerances": {
                "rel": self.tolerances.rel,
                "abs": self.tolerances.absolute,
            },
            "predicates": preds,
            "rejections": self.rejections,
            "rejection_reasons": dict(sorted(self.rejection_reasons.items())),
            "errored_states": self.errored_states,
            "errors": [e.as_dict() for e in self.errors],
            "hierarchy_violations": list(self.hierarchy_violations),
            "version": self.version,
        }


def relative_condition(metric, x, g):
    """Condition number of g relative to the metric's Riemannian part
    a(x), or None when the metric has none.

    cond(L^-1 a L^-T) with g = L L^T: the ratio of the extreme eigenvalues
    of a^-1 g.  Both are (0, 2) tensors, so it does not depend on the
    linear coordinates, and it is 1 when g = a.
    """
    if metric.a_fn is None:
        return None
    a = np.array(
        [[value_of(v) for v in row] for row in metric.a_fn(x)], dtype=float
    )
    li = np.linalg.inv(np.linalg.cholesky(g))
    return float(np.linalg.cond(li @ a @ li.T))


def rounding_floor(kappa):
    """Predicted rounding floor of a relative residual at relative
    condition number kappa: eps max(C kappa^p) over ROUNDING_FLOOR."""
    eps = np.finfo(float).eps
    return max(c * eps * kappa**p for c, p in ROUNDING_FLOOR)


def sample_states(metric, plan=None, tolerances=None):
    """Deterministic batch of admissible (x, y) states for a metric.

    x is drawn uniformly from the ball of radius plan.x_radius, y from
    the unit sphere, then rescaled to F(x,y)=1.
    Draws failing the chart, the cone, positivity, or strong convexity
    are rejected and redrawn, and so are draws whose rounding_floor at
    the relative_condition of g exceeds tolerances.rel
    ("ill_conditioned"); the rejection tally is part of the batch.
    """
    plan = plan or SamplePlan()
    tol = tolerances or Tolerances()
    n = metric.dimension
    rng = np.random.default_rng(plan.seed)
    states = []
    reasons = Counter()
    attempts = 0
    while len(states) < plan.count:
        attempts += 1
        if attempts >= max(30, 10 * plan.count):
            rej = attempts - len(states)
            if rej / attempts > 0.9:
                top = reasons.most_common(1)[0][0] if reasons else "unknown"
                raise SamplingError(
                    "rejected %d of %d draws for %r "
                    "(dominant reason: %s)" % (rej, attempts, metric.name, top)
                )
            if attempts > 1000 * plan.count:
                raise SamplingError(
                    "sampler did not converge for %r after %d draws"
                    % (metric.name, attempts)
                )
        d = rng.normal(size=n)
        x = d / np.linalg.norm(d) * plan.x_radius * rng.uniform() ** (1.0 / n)
        e = rng.normal(size=n)
        y = e / np.linalg.norm(e)
        xs, ys = [float(v) for v in x], [float(v) for v in y]
        if not metric.chart_domain(xs):
            reasons["chart_domain"] += 1
            continue
        if not metric.cone_domain(xs, ys):
            reasons["cone_domain"] += 1
            continue
        try:
            scale = value_of(metric.F(xs, ys))
        except FinslerError:
            scale = math.nan
        if not scale > 0.0:
            reasons["positivity"] += 1
            continue
        ys = [v / scale for v in ys]
        try:
            g = fundamental_tensor(metric, (xs, ys)).components
        except FinslerError:
            reasons["regularity"] += 1
            continue
        kappa = relative_condition(metric, xs, g)
        if kappa is not None and rounding_floor(kappa) > tol.rel:
            reasons["ill_conditioned"] += 1
            continue
        states.append((tuple(xs), tuple(ys)))
    return SampleBatch(tuple(states), attempts - len(states), dict(reasons))


def _frame_residuals(frame):
    return {
        "riemannian": float(np.abs(frame.C).max()),
        "berwald": float(np.abs(frame.B).max()),
        "weakly_berwald": float(np.abs(frame.E).max()),
        "douglas": float(np.abs(frame.D).max()),
        "dbar": float(np.abs(frame.Dbar).max()),
        "gdw": float(np.abs(frame.gdw_residual).max()),
        "r_quadratic": float(np.abs(frame.R_full_dot).max()),
        "pr_quadratic": float(np.abs(frame.projective.R_full_dot).max()),
        "s_flat": abs(frame.S),
    }


def measure_states(metric, volume, states, measure):
    """(rows, errors) of measure(GeometryState) over a batch of states.

    Each row is (state, *measure(...)).  A state whose evaluation raises
    a FinslerError becomes an ErroredState; a ConfigError or ParseError
    is the run's configuration, not the state's, and propagates.
    """
    rows, errors = [], []
    for state in states:
        try:
            rows.append((state, *measure(GeometryState(metric, volume, *state))))
        except (ConfigError, ParseError):
            raise
        except FinslerError as exc:
            errors.append(ErroredState(type(exc).__name__, str(exc), state))
    return rows, errors


def verdict(rows, tol):
    """(holds, max value, worst row) over rows (state, scale, value): it
    holds when every value is within tol.bound(scale)."""
    worst = max(rows, key=lambda r: r[2] / tol.bound(r[1]))
    holds = all(value <= tol.bound(scale) for _, scale, value in rows)
    return holds, max(value for _, _, value in rows), worst


def _measure(state):
    """(scale, residual per predicate, least-squares flag curvature)."""
    frame = state.frame
    res = _frame_residuals(frame)
    lam = frame.constflag_lambda_fit()
    res["constant_flag"] = float(np.abs(frame.constflag_residual(lam)).max())
    return frame.scale, res, lam


def classify_metric(metric, volume, plan=None, tolerances=None):
    """Evaluate all classification predicates on a sampled batch."""
    plan = plan or SamplePlan()
    tol = tolerances or Tolerances()
    batch = sample_states(metric, plan, tol)
    rows, errors = measure_states(metric, volume, batch.states, _measure)

    predicates = {}
    for name in PREDICATES:
        if errors or not rows:
            predicates[name] = PredicateResult(
                name, "indeterminate", math.nan, math.nan, None
            )
            continue
        holds, top, worst = verdict(
            [(state, scale, res[name]) for state, scale, res, _ in rows], tol
        )
        details = {}
        if name == "constant_flag":
            lams = [lam for _, _, _, lam in rows]
            spread = max(lams) - min(lams)
            holds = holds and spread <= LAMBDA_CONSTANCY_TOL
            details = {
                "lambda_hat": float(np.mean(lams)),
                "lambda_spread": float(spread),
            }
        predicates[name] = PredicateResult(
            name, "holds" if holds else "fails", top, worst[1], worst[0], details
        )

    violations = []
    for weaker, stronger in _HIERARCHY_EDGES:
        if (
            predicates[weaker].verdict == "holds"
            and predicates[stronger].verdict == "fails"
        ):
            violations.append(
                "%s holds but %s fails" % (weaker, stronger)
            )

    return ClassificationReport(
        metric.name,
        volume.label,
        plan,
        tol,
        predicates,
        batch.rejections,
        batch.rejection_reasons,
        tuple(errors),
        tuple(violations),
    )

