"""Shared numerical oracles for the test suite.

The jet towers (jet_oracle) are the independent check on the series
ring, and finite differences the independent check on the towers.  Naive
central differences with a tiny step drown high-order partials in
rounding noise (step 1e-4 at order 4 leaves ~1e-1 absolute noise in
float64), so the oracle uses balanced steps plus Richardson
extrapolation: truncation O(h^6) with two extrapolation levels while the
smallest step stays large enough to keep rounding in check.

The product table of a SeriesRing has its own oracle here: the direct
build that tests every pair of monomials, and Series.grad its own:
derivative, built slot by slot from the exponent rows.  Three curvature
quantities have second routes here, beside the Frame's own arrays: the
Douglas tensor assembled from the mean Berwald curvature, S as the
distortion's flow derivative tau_{|0}, and the Ricci identity for the
horizontal derivatives of B.  horizontal_derivative differentiates any
ring-generic field along the Frame's connection.  homogeneity_defect
checks F itself.  The closed-form Randers density has two references:
closed_randers_sigma, the sweep in any ring, and long_double_log_sigma,
an elimination in np.longdouble on float a(x) and b(x).
"""

import itertools
import json
import os
import types

import numpy as np
from hypothesis import strategies as st

from finslerlab import cli, volume
from finslerlab.engine import RICCI_LM_SIGN, VARIANCE, horizontal
from finslerlab.errors import FinslerError
from finslerlab.metrics import TensorValue, construct_metric
from finslerlab.scalars import powr, ring_inv, sqrt, value_of
from finslerlab import series as series_module
from finslerlab.series import Series, SeriesRing

from jet_oracle import mixed_partial

N4_DEFINITION = os.path.join(os.path.dirname(__file__), "data", "randers_n4.json")


def randers_n4():
    """The 4-D Randers definition of data/randers_n4.json, with its
    closed-form Busemann-Hausdorff volume, as an entry-like record."""
    with open(N4_DEFINITION, encoding="utf-8") as handle:
        metric = cli.load_metric_definition(json.load(handle))
    return types.SimpleNamespace(
        metric=metric, volume=volume.bh_randers_volume(metric)
    )


def record_rings(monkeypatch, n_max):
    """Dimensions of every SeriesRing built from now on.  A ring above
    n_max fails at once, before its tables are built."""
    from finslerlab.series import SeriesRing

    built = []
    plain = SeriesRing.__init__

    def init(ring, n, cap_x, cap_y, *root):
        built.append(n)
        assert n <= n_max, "a %d-dimensional ring was built" % n
        plain(ring, n, cap_x, cap_y, *root)

    monkeypatch.setattr(SeriesRing, "__init__", init)
    return built


def oracle_fsq_partials(metric, x, y, order):
    """Every order-th y-partial of F^2, one jet-oracle mixed_partial per
    sorted slot tuple, copied to its permutations.  F^2 is metric.F
    squared here, not the metric's own F^2 evaluator, so the oracle also
    checks the evaluator's algebra."""
    n = metric.dimension

    def f2(x, y):
        F = metric.F(x, y)
        return F * F

    out = np.empty((n,) * order)
    for slots in itertools.combinations_with_replacement(range(n), order):
        v = mixed_partial(f2, x, y, [("y", r) for r in slots])
        for p in itertools.permutations(slots):
            out[p] = v
    return out


def nested_central(f, x, y, wrt, h):
    """Composed central differences, one application per slot in wrt."""
    if not wrt:
        return f(list(x), list(y))
    (kind, idx), rest = wrt[0], wrt[1:]

    def shifted(sign):
        if kind == "x":
            x2 = list(x)
            x2[idx] += sign * h
            return nested_central(f, x2, y, rest, h)
        y2 = list(y)
        y2[idx] += sign * h
        return nested_central(f, x, y2, rest, h)

    return (shifted(+1.0) - shifted(-1.0)) / (2.0 * h)


def fd_partial(f, x, y, wrt, h0=None, levels=2):
    """Richardson-extrapolated mixed partial of f at (x, y).

    h0 defaults increase with the order so the 2^order rounding
    amplification stays below the truncation gain.
    """
    order = len(wrt)
    if h0 is None:
        h0 = {0: 1e-2, 1: 1e-2, 2: 1e-2, 3: 2e-2, 4: 2e-2}.get(order, 4e-2)
    rows = [nested_central(f, x, y, wrt, h0 / 2.0**i) for i in range(levels + 1)]
    for m in range(1, levels + 1):
        fac = 4.0**m
        rows = [
            (fac * rows[i + 1] - rows[i]) / (fac - 1.0)
            for i in range(len(rows) - 1)
        ]
    return rows[0]


def rel_error(got, want, floor=1.0):
    """|got - want| over a denominator that never collapses below floor."""
    return abs(got - want) / max(abs(want), floor)


def is_admissible(metric, x, y):
    """Cheap float-level admissibility: chart, cone, and F > 0."""
    xs = [float(v) for v in x]
    ys = [float(v) for v in y]
    if not metric.chart_domain(xs):
        return False
    if not metric.cone_domain(xs, ys):
        return False
    try:
        return value_of(metric.F(xs, ys)) > 0.0
    except FinslerError:
        return False


def all_pairs_triples(ring):
    """The product table (iout, ia, ib) of a ring, found by testing every
    pair of monomials: a pair is kept when the sum of its mixed-radix
    exponent keys is the key of a monomial of the ring."""
    rx, ry = 2 * ring.cap_x + 1, 2 * ring.cap_y + 1
    keys = np.zeros(ring.size, dtype=np.int64)
    for i, row in enumerate(ring._powers.tolist()):
        k = 0
        for d in row[: ring.n]:
            k = k * rx + d
        for d in row[ring.n :]:
            k = k * ry + d
        keys[i] = k
    key_order = np.argsort(keys)
    sorted_keys = keys[key_order]
    iout_parts, ia_parts, ib_parts = [], [], []
    chunk = max(1, (1 << 22) // max(ring.size, 1))
    for start in range(0, ring.size, chunk):
        rows = np.arange(start, min(start + chunk, ring.size))
        sums = keys[rows, None] + keys[None, :]
        pos = np.searchsorted(sorted_keys, sums)
        pos[pos == ring.size] = 0
        found = key_order[pos]
        ok = keys[found] == sums
        ra, cb = np.nonzero(ok)
        iout_parts.append(found[ra, cb])
        ia_parts.append(rows[ra])
        ib_parts.append(cb)
    return (
        np.concatenate(iout_parts).astype(np.int64),
        np.concatenate(ia_parts).astype(np.int64),
        np.concatenate(ib_parts).astype(np.int64),
    )


def four_gather_pair_sum(ring, d, p, q, value=False):
    """series._pair_sum's reference: the pair sum as it ran on lane-major
    coefficients with one gather per factor and per side of the pairs
    (four, or two when p is q), its squares added after the bincount and
    the value-part term p_r q_0 added after them.  The graded operations
    used to add that term first (u_r q_0 + P), which a sum of two floats
    gives bit for bit.  Takes and returns arrays of the shape
    series._pair_sum does."""
    same = q is p
    p = p.T  # (lanes, size)
    q = p if same else q.T
    rows, iout, ia, ib, sq_out, sq_src = ring.levels()[d - 1]
    count = p[..., 0].size
    m = count * len(ia)
    if not m:
        s = np.zeros(p.shape[:-1] + (len(rows),))
    else:
        wa, wb = ring.workspace(m if p is q else 2 * m)
        t = series_module._gather(p, ia, wa)
        t *= series_module._gather(q, ib, wb)
        if p is not q:
            t2 = series_module._gather(p, ib, wa[m:])
            t2 *= series_module._gather(q, ia, wb[m:])
            t += t2
        s = series_module._bincount(iout, t, len(rows))
        if p is q:
            s *= 2.0
    if len(sq_out):
        s[..., sq_out] += p[..., sq_src] * q[..., sq_src]
    if value:
        s += p[..., rows] * q[..., :1]
    return s


def derivative(s, kind, *slots):
    """The first derivatives of the series s in the kind ("x" or "y") at
    the slots, taken in order: Series.grad's reference, built from the
    rings' exponent rows and keys.  Each lands in the stage one order
    below in the kind and in total degree, where the coefficient of a
    monomial with exponent e at the slot is (e + 1) times s's coefficient
    at the monomial with e + 1 there."""
    x = kind == "x"
    for slot in slots:
        ring = s.ring
        digit = slot if x else ring.n + slot
        low = ring.stage(ring.cap_x - x, ring.cap_y - (not x), ring.cap_d - 1)
        powers = low._powers.copy()
        powers[:, digit] += 1
        keys = powers @ ring.root._place
        src = np.searchsorted(ring.keys, keys)
        assert np.array_equal(ring.keys[src], keys)  # each source is in s's ring
        s = Series(low, s.c[..., src] * powers[:, digit].astype(np.float64))
    return s


def closed_randers_sigma(metric, x):
    """sigma = (1 - |b|_alpha^2)^((n+1)/2) sqrt(det a) of a Randers metric,
    in any ring (floats, Series, jets): the sweep (ring_inv) on a(x) in
    that ring, |b|^2 as the sum of b_i (a^-1)_ij b_j over (i, j) in order,
    then powr and sqrt.  The reference for volume.bh_randers_closed, which
    gives ln sigma in one lane pass."""
    n = metric.dimension
    a, b = metric.a_fn(x), metric.b_fn(x)
    det, ainv = ring_inv(a)
    bnorm2 = None
    for i in range(n):
        for j in range(n):
            term = b[i] * ainv[i][j] * b[j]
            bnorm2 = term if bnorm2 is None else bnorm2 + term
    return powr(1.0 - bnorm2, (n + 1) / 2.0) * sqrt(det)


def long_double_log_sigma(a, b):
    """ln sigma of the closed form, ((n+1)/2) ln(1 - b.a^-1 b) + ln(det
    a)/2, for float a (n x n) and b (n) in np.longdouble: Gaussian
    elimination with partial pivoting of a against b, det a the product
    of the pivots and their row swaps."""
    a = np.array(a, dtype=np.longdouble)
    v = np.array(b, dtype=np.longdouble)
    n = len(v)
    m = np.concatenate([a, v[:, None]], axis=1)
    det = np.longdouble(1)
    for k in range(n):
        p = k + int(np.argmax(np.abs(m[k:, k])))
        if p != k:
            m[[k, p]] = m[[p, k]]
            det = -det
        det *= m[k, k]
        m[k + 1 :] -= m[k + 1 :, k : k + 1] / m[k, k] * m[k]
    solved = np.zeros(n, dtype=np.longdouble)
    for k in reversed(range(n)):
        solved[k] = (m[k, n] - m[k, k + 1 : n] @ solved[k + 1 :]) / m[k, k]
    half = np.longdouble(n + 1) / 2
    return half * np.log(1 - v @ solved) + np.log(det) / 2


def homogeneity_defect(metric, x, y):
    """max over L in (0.5, 2, 3) of |F(x, L y) - L F(x, y)| / (L F), floats."""
    xs = [float(v) for v in x]
    ys = [float(v) for v in y]
    base = value_of(metric.F(xs, ys))
    worst = 0.0
    for lam in (0.5, 2.0, 3.0):
        scaled = value_of(metric.F(xs, [lam * v for v in ys]))
        worst = max(worst, abs(scaled - lam * base) / abs(lam * base))
    return worst


def douglas_from_mean_berwald(frame):
    """The Douglas tensor [j,i,k,l] assembled from E and its fiber
    derivative E_jk.l = S_.j.k.l / 2:

    D_j^i_kl = B_j^i_kl - (2/(n+1)) { E_jk d^i_l + E_jl d^i_k
               + E_kl d^i_j + E_jk.l y^i }
    """
    n = frame.n
    eye = np.eye(n)
    E, E_y = frame.E_from_trace, 0.5 * frame.S_yyy
    corr = (
        np.einsum("jk,il->jikl", E, eye)
        + np.einsum("jl,ik->jikl", E, eye)
        + np.einsum("kl,ij->jikl", E, eye)
        + np.einsum("jkl,i->jikl", E_y, np.array(frame.y))
    )
    return frame.B - (2.0 / (n + 1.0)) * corr


def distortion_flow_derivative(frame):
    """tau_{|m} y^m, the distortion's derivative along the geodesic flow:
    the S-curvature by a second route."""
    yv = np.array(frame.y)
    return float(yv @ frame.tau_x - 2.0 * frame.G @ frame.tau_y)


def ricci_identity_sides(frame):
    """The two sides of the Ricci identity for the Berwald curvature:
    B_j^i_{kl|m} - B_j^i_{km|l}, and RICCI_LM_SIGN d_k R_j^i_{lm}."""
    B_h = horizontal(frame.B, frame.B_x, frame.B_y, frame.N, frame.Gamma, VARIANCE["B"])
    return B_h - np.transpose(B_h, (0, 1, 2, 4, 3)), RICCI_LM_SIGN * frame.R_full_dot


def horizontal_derivative(field, state, variance=()):
    """Horizontal covariant derivative of a ring-generic field.

    field(x, y) must accept coordinates from the series ring and return
    components shaped like its variance signature (a bare scalar for
    variance=()).  Its value and partials come from one evaluation in
    SeriesRing.get(n).stage(1, 1), the ring of the Frame's tau; the
    connection terms (formula at engine.horizontal) are shared with its own
    horizontal derivatives.  The result appends one lower slot.
    """
    f = state.frame
    n = f.n
    xs, ys = SeriesRing.get(n).stage(1, 1).state(state.x, state.y)
    comps = np.asarray(field(xs, ys), dtype=object)
    shape = comps.shape
    if len(shape) != len(variance):
        raise ValueError(
            "variance %r does not match field rank %d" % (variance, len(shape))
        )
    base = np.empty(shape)
    dx = np.zeros(shape + (n,))
    dy = np.zeros(shape + (n,))
    for idx in np.ndindex(*shape):
        v = comps[idx]
        if isinstance(v, Series):
            base[idx] = v.value()
            dx[idx] = v.partials(1, 0)
            dy[idx] = v.partials(0, 1)
        else:  # a component that is constant on the state's neighbourhood
            base[idx] = float(v)

    return TensorValue(
        components=horizontal(base, dx, dy, f.N, f.Gamma, variance),
        variance=tuple(variance) + ("lower",),
        state=state.state_tuple,
    )


def _away(low, high):
    """A float of magnitude in [low, high], of either sign."""
    return st.one_of(st.floats(low, high), st.floats(-high, -low))


# 2-D DSL metrics, each family with its F and its parameter draws:
# - quartic: a quartic norm whose coefficients depend on x;
# - randers: alpha with x-dependent coefficients plus a beta whose curl
#   is -2s, so beta is not closed;
# - square: (alpha + beta)^2 / alpha with the same kind of beta.
# The bounds keep every F regular on the ball of radius 0.4: the
# coefficients 1 + k x and 1 + m x stay at least 0.6, and |b|_alpha,
# which must stay below 1, at most 0.7 for randers and 0.49 for square.
SURFACE_FAMILIES = {
    "quartic": (
        "((1 + k1*x2)*y1^4 + (1 + k2*x1)*y2^4 + e*(y1^2 + y2^2)^2)^(1/4)",
        {"k1": _away(0.2, 1.0), "k2": _away(0.2, 1.0), "e": st.floats(0.2, 1.0)},
    ),
    "randers": (
        "sqrt((1 + m1*x1)*y1^2 + (1 + m2*x2)*y2^2)"
        " + (u1 + s*x2)*y1 + (u2 - s*x1)*y2",
        {"m1": st.floats(-0.5, 0.5), "m2": st.floats(-0.5, 0.5),
         "u1": st.floats(-0.3, 0.3), "u2": st.floats(-0.3, 0.3),
         "s": _away(0.1, 0.5)},
    ),
    "square": (
        "(sqrt(y1^2 + y2^2) + (u1 + s*x2)*y1 + (u2 - s*x1)*y2)^2"
        " / sqrt(y1^2 + y2^2)",
        {"u1": st.floats(-0.2, 0.2), "u2": st.floats(-0.2, 0.2),
         "s": _away(0.1, 0.5)},
    ),
}


def surface_metrics():
    """A hypothesis strategy of (family, metric): a 2-D DSL metric of one
    of SURFACE_FAMILIES, with its parameters drawn."""

    def build(family):
        source, draws = SURFACE_FAMILIES[family]
        return st.fixed_dictionaries(draws).map(
            lambda params: (family, construct_metric(
                "dsl", 2, F=source, parameters=params, name=family
            ))
        )

    return st.sampled_from(sorted(SURFACE_FAMILIES)).flatmap(build)
