"""Built-in example metrics with known classification behavior.

Four families from the projective-curvature literature (an m-Kropina
metric of Yang's parallel-form type, the Randers metric on the unit
ball with K=0, the Hu-Mo family with vanishing Riemann curvature, and
the Bao-Shen family on the 3-sphere) plus four controls (Euclidean,
round sphere, a conformally flat metric, and a quartic Minkowski norm).
Each entry bundles the metric, a recommended volume form, and the
expected classification verdicts with a one-line note saying where each
expectation comes from.
"""
import math

from .classify import PREDICATES
from .errors import CatalogError, ConfigError
from .metrics import (
    alpha_beta_metric,
    check_dimension,
    construct_metric,
    finite_number,
)
from .volume import (
    bh_randers_volume,
    constant_volume,
    dsl_volume,
)


class CatalogEntry:
    """One named example: metric + volume form + expected verdicts.

    expected_verdicts maps predicate name -> bool; verdict_notes carries
    the provenance of each expectation (literature claim or measurement).
    expected_lambda is the flag-curvature constant the constant-flag fit
    should recover, when one is known.
    """

    def __init__(self, name, metric, volume, expected_verdicts,
                 verdict_notes, expected_lambda, parameters, description):
        self.name = name
        self.metric = metric
        self.volume = volume
        self.expected_verdicts = dict(expected_verdicts)
        self.verdict_notes = dict(verdict_notes)
        self.expected_lambda = expected_lambda
        self.parameters = dict(parameters)
        self.description = description

    def __repr__(self):
        return "CatalogEntry(%r, n=%d)" % (self.name, self.metric.dimension)


def _resolve(name, defaults, overrides):
    params = dict(defaults)
    for key, value in overrides.items():
        if key not in defaults:
            raise ConfigError(
                "unknown parameter %r for catalog entry %r (have: %s)"
                % (key, name, ", ".join(sorted(defaults)))
            )
        params[key] = value
    return params


def _dim(params):
    return check_dimension(params["n"])


def _number(params, key):
    """A numeric parameter as a finite float, checked before any work."""
    return finite_number(params[key], "parameter %r" % key)


def _flag(params, key):
    """A yes/no parameter: a bool, 0 or 1, or true or false in any case
    (the command line passes "false" as a string and 0 as an int);
    anything else is a ConfigError naming it."""
    value = params[key]
    if isinstance(value, str):
        value = {"true": True, "false": False, "1": True, "0": False}.get(
            value.strip().lower(), value
        )
    if isinstance(value, (bool, int, float)) and value in (0, 1):
        return bool(value)
    raise ConfigError(
        "parameter %r must be true or false (or 1 or 0), got %r" % (key, params[key])
    )


# ---------------------------------------------------------------------------
# controls


def _euclidean(overrides):
    params = _resolve("euclidean", {"n": 3}, overrides)
    n = _dim(params)
    metric = construct_metric("euclidean", n, name="euclidean")
    verdicts = {p: True for p in _ALL_PREDICATES}
    notes = {p: "flat norm: every predicate holds trivially"
             for p in _ALL_PREDICATES}
    return CatalogEntry(
        "euclidean", metric, constant_volume(1.0), verdicts, notes,
        0.0, params, "Euclidean norm |y| on R^n",
    )


def _sphere(overrides):
    params = _resolve("riemannian_sphere", {"n": 3}, overrides)
    n = _dim(params)
    r2 = "+".join("x%d^2" % (i + 1) for i in range(n))
    entry = "4/((1+%s)^2)" % r2
    a = [[entry if i == j else "0" for j in range(n)] for i in range(n)]
    metric = construct_metric(
        "riemannian", n, a=a, name="riemannian_sphere", chart_radius=None
    )
    sigma = "%d/((1+%s)^%d)" % (2 ** n, r2, n)
    verdicts = {p: True for p in _ALL_PREDICATES}
    verdicts["riemannian"] = True
    notes = {
        "riemannian": "quadratic norm, Cartan torsion vanishes",
        "constant_flag": "round-sphere chart metric, curvature 1",
        "s_flat": "Riemannian metric with its own volume density",
    }
    for p in _ALL_PREDICATES:
        notes.setdefault(p, "Riemannian metrics have quadratic sprays")
    return CatalogEntry(
        "riemannian_sphere", metric, dsl_volume(sigma, n), verdicts, notes,
        1.0, params, "round sphere of curvature 1 in a conformal chart",
    )


def _conformal(overrides):
    params = _resolve("riemannian_conformal", {"n": 3}, overrides)
    n = _dim(params)
    a = [["exp(2*x1)" if i == j else "0" for j in range(n)] for i in range(n)]
    metric = construct_metric(
        "riemannian", n, a=a, name="riemannian_conformal", chart_radius=None
    )
    verdicts = {p: True for p in _ALL_PREDICATES}
    verdicts["constant_flag"] = False
    notes = {
        "constant_flag": "one-sided conformal factor: sectional curvature "
                         "varies with direction (measured fit spread >> tol)",
    }
    for p in _ALL_PREDICATES:
        notes.setdefault(p, "Riemannian metrics have quadratic sprays")
    return CatalogEntry(
        "riemannian_conformal", metric, dsl_volume("exp(%d*x1)" % n, n),
        verdicts, notes, None, params, "conformally flat metric exp(2x1) dx^2",
    )


def _quartic(overrides):
    params = _resolve("minkowski_quartic", {"eps": 0.5}, overrides)
    eps = _number(params, "eps")
    if eps <= 0.0:
        raise ConfigError("quartic regularizer eps must be positive")
    metric = construct_metric(
        "dsl", 3,
        F="(y1^4 + y2^4 + %g*(y1^2 + y2^2 + y3^2)^2)^(1/4)" % eps,
        name="minkowski_quartic",
    )
    verdicts = {p: True for p in _ALL_PREDICATES}
    verdicts["riemannian"] = False
    notes = {
        "riemannian": "quartic norm has nonvanishing Cartan torsion",
        "berwald": "no position dependence: the spray vanishes identically",
        "constant_flag": "flat (R=0), fit recovers lambda=0",
    }
    for p in _ALL_PREDICATES:
        notes.setdefault(p, "locally Minkowski: curvature and spray vanish")
    return CatalogEntry(
        "minkowski_quartic", metric, constant_volume(1.0), verdicts, notes,
        0.0, params, "position-independent quartic norm (Berwald, R=0)",
    )


# ---------------------------------------------------------------------------
# literature examples


def _osaka(overrides):
    params = _resolve("randers_osaka", {}, overrides)

    def a_fn(x):
        w = 1.0 - x[0] * x[0] - x[1] * x[1]
        q = [-x[1], x[0], 0.0]
        inv = 1.0 / (w * w)
        return [
            [(w * (1.0 if i == j else 0.0) + q[i] * q[j]) * inv
             for j in range(3)]
            for i in range(3)
        ]

    def b_fn(x):
        inv = 1.0 / (1.0 - x[0] * x[0] - x[1] * x[1])
        return [-x[1] * inv, x[0] * inv, 0.0]

    def chart(x):
        return x[0] * x[0] + x[1] * x[1] + x[2] * x[2] < 1.0

    metric = alpha_beta_metric("randers_osaka", 3, a_fn, b_fn,
                               chart_domain=chart)
    verdicts = {
        "riemannian": False,
        "berwald": False,
        "weakly_berwald": True,
        "douglas": False,
        "dbar": True,
        "gdw": True,
        "r_quadratic": True,
        "pr_quadratic": True,
        "s_flat": True,
        "constant_flag": True,
    }
    notes = {
        "riemannian": "Randers with a rotational one-form, C != 0",
        "berwald": "one-form not parallel",
        "weakly_berwald": "E = 0 follows from S = 0",
        "douglas": "one-form is not closed, so not Douglas",
        "dbar": "K = 0 and S = 0 force the commutator to vanish",
        "gdw": "implied by the D-bar property",
        "r_quadratic": "vanishing flag curvature: R = 0",
        "pr_quadratic": "R = 0 and S = 0 give a projectively flat spray",
        "s_flat": "rotational Killing-type one-form: S = 0",
        "constant_flag": "K = 0, fit recovers lambda = 0",
    }
    return CatalogEntry(
        "randers_osaka", metric, bh_randers_volume(metric), verdicts, notes,
        0.0, params,
        "Randers metric on the unit ball with K = 0 and S = 0",
    )


def _humo(overrides):
    params = _resolve("randers_humo", {"q": 0.3}, overrides)
    q = _number(params, "q")
    if abs(q) >= 10.0:
        raise ConfigError("rotation rate q out of range")

    def v_of(x):
        return [-q * x[1], q * x[0], 0.0]

    def a_fn(x):
        v = v_of(x)
        s = 1.0 - (v[0] * v[0] + v[1] * v[1])
        inv = 1.0 / (s * s)
        return [
            [(s * (1.0 if i == j else 0.0) + v[i] * v[j]) * inv
             for j in range(3)]
            for i in range(3)
        ]

    def b_fn(x):
        v = v_of(x)
        inv = 1.0 / (1.0 - (v[0] * v[0] + v[1] * v[1]))
        return [-v[0] * inv, -v[1] * inv, 0.0]

    def chart(x):
        return q * q * (x[0] * x[0] + x[1] * x[1]) < 1.0

    metric = alpha_beta_metric("randers_humo", 3, a_fn, b_fn,
                               chart_domain=chart)
    if q == 0.0:
        verdicts = {p: True for p in _ALL_PREDICATES}
        notes = {p: "zero rotation degenerates to the Euclidean norm"
                 for p in _ALL_PREDICATES}
        lam = 0.0
    else:
        verdicts = {
            "riemannian": False,
            "berwald": False,
            "weakly_berwald": True,
            "douglas": False,
            "dbar": True,
            "gdw": True,
            "r_quadratic": True,
            "pr_quadratic": True,
            "s_flat": True,
            "constant_flag": True,
        }
        notes = {
            "riemannian": "Randers with a rotational one-form, C != 0",
            "berwald": "B != 0 whenever the rotation rate is nonzero",
            "weakly_berwald": "E = 0 follows from S = 0",
            "douglas": "one-form not closed, so not Douglas",
            "dbar": "R = 0 and S = 0 force the commutator to vanish",
            "gdw": "implied by the D-bar property",
            "r_quadratic": "R = 0 identically",
            "pr_quadratic": "R = 0 and S = 0 give a projectively flat spray",
            "s_flat": "rigid-rotation wind: S = 0",
            "constant_flag": "R = 0, fit recovers lambda = 0",
        }
        lam = 0.0
    return CatalogEntry(
        "randers_humo", metric, bh_randers_volume(metric), verdicts, notes,
        lam, params,
        "rigid-rotation Randers metric near the origin with R = 0",
    )


def _baoshen(overrides):
    defaults = {"lam": 1.44, "c": 1.0, "beta_sign": 1.0, "normalized": True}
    params = _resolve("randers_baoshen", defaults, overrides)
    lam = _number(params, "lam")
    if lam < 1.0:
        raise ConfigError(
            "Bao-Shen parameter lam must be >= 1 (one-form length sqrt(1-1/lam))"
        )
    sign = _number(params, "beta_sign")
    if sign not in (1.0, -1.0):
        raise ConfigError("beta_sign must be +1 or -1")
    c_param = params["c"]
    if c_param != "quarter":
        c_param = _number(params, "c")
    # The flag curvature of the raw chart formula is lam itself; scaling
    # F by sqrt(lam) is the unique similarity normalization with
    # curvature 1, which is how the family is usually quoted.
    normalized = params["normalized"] = _flag(params, "normalized")
    scale = math.sqrt(lam) if normalized else 1.0
    root = math.sqrt(lam - 1.0)

    def c_of(x):
        if c_param == "quarter":
            return 0.25 * (1.0 + x[0] * x[0] + x[1] * x[1] + x[2] * x[2])
        return c_param

    def rows(x):
        c = c_of(x)
        return (
            [c, -x[2], x[1]],
            [x[2], c, -x[0]],
            [-x[1], x[0], c],
        )

    def a_fn(x):
        m1, m2, m3 = rows(x)
        w = 1.0 + x[0] * x[0] + x[1] * x[1] + x[2] * x[2]
        inv = 1.0 / (w * w)
        s2 = scale * scale
        return [
            [
                s2 * (lam * m1[i] * m1[j] + m2[i] * m2[j] + m3[i] * m3[j]) * inv
                for j in range(3)
            ]
            for i in range(3)
        ]

    def b_fn(x):
        m1, _, _ = rows(x)
        inv = 1.0 / (1.0 + x[0] * x[0] + x[1] * x[1] + x[2] * x[2])
        return [sign * scale * root * m1[i] * inv for i in range(3)]

    metric = alpha_beta_metric("randers_baoshen", 3, a_fn, b_fn)
    verdicts = {
        "riemannian": lam == 1.0,
        "berwald": lam == 1.0,
        "weakly_berwald": True,
        "douglas": lam == 1.0,
        "dbar": lam == 1.0,
        "gdw": True,
        "r_quadratic": lam == 1.0,
        "pr_quadratic": lam == 1.0,
        "s_flat": True,
        "constant_flag": True,
    }
    notes = {
        "riemannian": "one-form has length sqrt(1-1/lam) > 0 for lam > 1",
        "berwald": "invariant coframe twists the spray for lam > 1",
        "weakly_berwald": "E = 0 follows from S = 0",
        "douglas": "not Douglas for lam > 1 (measured max|D| ~ 1)",
        "dbar": "constant positive curvature with D != 0 breaks the "
                "commutator (measured contraction ~ 0.3)",
        "gdw": "constant flag curvature with S = 0 implies the "
               "projected contraction vanishes",
        "r_quadratic": "R = lam_hat(F^2 I - y y_flat) has a quartic term "
                       "through F^2",
        "pr_quadratic": "fails together with r_quadratic here (S = 0 "
                        "makes the projective spray equal the spray)",
        "s_flat": "invariant construction: S = 0 for every lam",
        "constant_flag": "constant flag curvature by construction",
    }
    lam_hat = 1.0 if normalized else lam
    return CatalogEntry(
        "randers_baoshen", metric, bh_randers_volume(metric), verdicts, notes,
        lam_hat, params,
        "Bao-Shen invariant Randers family on the 3-sphere, curvature "
        "normalized to 1",
    )


def _mkropina(overrides):
    defaults = {
        "m": 0.5, "t": 1.0, "lam": 1.0,
        "f1": 1.0, "f2": 0.0, "f3": 0.0,
        "beta_form": "parallel",
    }
    params = _resolve("mkropina_yang", defaults, overrides)
    m, t, lam = (_number(params, key) for key in ("m", "t", "lam"))
    f = tuple(_number(params, key) for key in ("f1", "f2", "f3"))
    beta_form = params["beta_form"]
    if beta_form not in ("parallel", "displayed"):
        raise ConfigError("beta_form must be 'parallel' or 'displayed'")
    if t == 0.0 or f == (0.0, 0.0, 0.0):
        raise ConfigError("need t != 0 and a nonzero axis vector f")
    if lam * lam + t * (f[0] ** 2 + f[1] ** 2 + f[2] ** 2) == 0.0:
        raise ConfigError("degenerate parameters: lam^2 + t|f|^2 = 0")

    def u_of(x):
        fx = f[0] * x[0] + f[1] * x[1] + f[2] * x[2]
        xx = x[0] * x[0] + x[1] * x[1] + x[2] * x[2]
        return [
            -2.0 * (lam + t * fx) * x[i] + (t * xx + 1.0) * f[i]
            for i in range(3)
        ]

    def a_fn(x):
        u = u_of(x)
        uu = u[0] * u[0] + u[1] * u[1] + u[2] * u[2]
        return [
            [(1.0 if i == j else 0.0) / uu for j in range(3)]
            for i in range(3)
        ]

    def b_fn(x):
        u = u_of(x)
        uu = u[0] * u[0] + u[1] * u[1] + u[2] * u[2]
        src = u if beta_form == "parallel" else x
        return [src[i] / uu for i in range(3)]

    def chart(x):
        u = u_of(x)
        return u[0] * u[0] + u[1] * u[1] + u[2] * u[2] > 1e-6

    metric = alpha_beta_metric(
        "mkropina_yang", 3, a_fn, b_fn, power_m=m, chart_domain=chart
    )
    if beta_form == "parallel":
        verdicts = {
            "riemannian": False,
            "berwald": True,
            "weakly_berwald": True,
            "douglas": True,
            "dbar": True,
            "gdw": True,
            "r_quadratic": True,
            "pr_quadratic": True,
            "s_flat": False,
            "constant_flag": False,
        }
        notes = {
            "riemannian": "fractional power of alpha and beta, C != 0",
            "berwald": "the one-form is parallel for the Riemannian part "
                       "(checked: |grad b| ~ 4e-16), so the spray is "
                       "quadratic",
            "weakly_berwald": "B = 0 forces E = 0",
            "douglas": "Berwald metrics are Douglas",
            "dbar": "D = 0 identically",
            "gdw": "D = 0 identically",
            "r_quadratic": "Berwald: the curvature is the y-independent "
                           "affine curvature",
            "pr_quadratic": "D = 0 satisfies the projective-quadratic "
                            "criterion identically",
            "s_flat": "nonzero against the constant volume form "
                      "(measured |S| ~ 25 near the chart edge)",
            "constant_flag": "measured fit spread ~ 3: curvature varies",
        }
    else:
        # literal transcription of the source display; kept for
        # comparison, known not to satisfy the parallel-form premise
        verdicts = {
            "riemannian": False,
            "berwald": False,
            "douglas": False,
            "dbar": False,
            "pr_quadratic": False,
        }
        notes = {
            "riemannian": "fractional power of alpha and beta, C != 0",
            "berwald": "this reading leaves the one-form non-parallel "
                       "(|grad b| ~ 1)",
            "douglas": "measured max|D| ~ 1e6",
            "dbar": "measured commutator ~ 4e9",
            "pr_quadratic": "measured criterion residual ~ 4e9",
        }
    return CatalogEntry(
        "mkropina_yang", metric, constant_volume(1.0), verdicts, notes,
        None, params,
        "conic m-Kropina metric with a parallel one-form after conformal "
        "rescaling (Berwald, not projectively flat)",
    )


_ALL_PREDICATES = PREDICATES

_BUILDERS = {
    "euclidean": _euclidean,
    "riemannian_sphere": _sphere,
    "riemannian_conformal": _conformal,
    "minkowski_quartic": _quartic,
    "randers_osaka": _osaka,
    "randers_humo": _humo,
    "randers_baoshen": _baoshen,
    "mkropina_yang": _mkropina,
}


def list_examples():
    """Names of the built-in examples, stable order."""
    return sorted(_BUILDERS)


def get_example(name, **overrides):
    """Catalog entry by name, with parameter overrides applied.

    Raises ConfigError for an unknown name, an unknown parameter, or
    parameter values that break the family's regularity requirements.
    """
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise CatalogError(
            "unknown catalog entry %r (have: %s)"
            % (name, ", ".join(list_examples()))
        ) from None
    return builder(overrides)
