"""One-pass curvature pipeline over the truncated series ring.

A Frame evaluates F^2 once at a state as a Series in the coordinate
shifts, walks the derivative tree inside the ring, and is the only code
that evaluates F^2 -> g -> G.  Its constructor runs the metric stage (F^2,
g, C, the spray G) and its checks: F <= 0, g not positive definite.
Every other stage is a cached_property of pure ring arithmetic that runs
on its first read.  A Spray holds what depends on a spray alone (N,
Gamma, the Riemann curvature and its fiber partials, the divergence, the
Berwald and Douglas tensors and their horizontal derivatives); the Frame
is the Spray of G plus the volume stage (ln sigma, S, tau and
frame.projective, the Spray of Gt = G - S y/(n+1)).  So S and tau cost
no Riemann and no cube, and Riemann and the cubes cost no volume.  The
projective-change routes (lemma21_residual,
projective.douglas_invariance_gap) build G + P y with modified_spray.
Work of x alone (the coefficient fields of F, which F^2 and the
closed-form density share through the memoized MetricSpec.a_fn and
b_fn, and the volume form's ln sigma) runs in the x-only stage of the
root (series.one_kind).  The Frame's y are the root's YVariables
(SeriesRing.state), so every product by y^m is a shift (Series.times_y),
not a ring product: alpha^2 and beta, each sum over y^m (S's drift, the
spray's braces, lemma21's P_{|0}: series.linear_form), Riemann's y^m
term, G - S y/(n+1) and G + P y.  First derivatives are gathered for
all n slots at once (Series.grad).  The point tensors of the metrics
module read g and C from small rings of the same series module; the
test suite holds both against an independent jet-tower oracle.

Each stage runs in the stage ring of the budget its readers need (bx
x-orders, by y-orders), with its vectors and matrices as component axes
of one Series.  A Series's budget is its ring, and Series operations are
budget-invariant (series module notes), so every array stays
bit-identical:

- F^2 in the root, of caps (2, 8, 8) (series.ROOT_CAPS): x-order 2,
  y-order 8, total degree 8, where its readers end (g's (1, 8, 8) stage
  and the spray's x-derivative in (1, 7, 7)), from the metric's one F^2
  evaluator
  (MetricSpec.F2: alpha^2 + beta (2 alpha + beta) for Randers, alpha^2
  for Riemannian metrics, the tree of F^2 compiled from a DSL metric's,
  F * F for a metric given by F alone);
- g in the (1, 6, 6) ring, two y-gradients of F^2's (1, 8, 8) part: its
  readers take its value and (0, 1) partials (C), and the spray and tau
  read it only through one x-derivative of F^2;
- the spray's x-derivatives in the (1, 7, 7) ring, and its braces A and
  the spray itself in the (1, 6, 6) ring, after the check that g is
  positive definite: the Frame's g^-1 is a float matrix, the sweep
  (scalars.ring_inv) on the value of g, and the graded solve
  (series.graded_solve) preconditions g G = A/4 by it and fills G level
  by level, with no ring product, reciprocal or inverse of g in the ring;
- ln det g in the (1, 1) ring, where tau is read at its value and first
  partials: ln det g0 + tr M - tr(M M)/2 with M = g0^-1 g - I, one
  product of n^2 lanes (series.ln_det, which the closed-form volume's
  ln det a also runs, in the x-only stage);
- ln sigma in the x-only stage, the volume form's log_sigma (volume
  module notes: the closed form's is one lane pass), embedded back into
  the (2, 8, 8) ring;
- the divergence, S (its drift a shift there too), the projective spray
  and the Douglas core in the (1, 5) ring: the cubes read their (0, 3),
  (1, 3) and (0, 4) partials.
  Douglas is a projective invariant, so the projective spray's Douglas
  tensor is D, and no projective Douglas core is extracted;
- Riemann's derivatives of G in the (0, 4) and (0, 3) rings, its y^m
  term a shift in the latter and its other products there one product
  over the 2 n^3 lanes (term, m, k, i): a Spray reads R^i_k and its
  fiber partials up to order 3;
- lemma21_residual's G + P y and P in the (1, 2) ring, where its reads
  end (its Riemann at the value, (0, 0)), and douglas_invariance_gap's
  in the (1, 5) ring of the cubes.

Index layout mirrors the written order of the symbols: B[j,i,k,l] holds
B_j^i_{kl}, horizontal derivatives append the new lower slot last
(D_h[j,i,k,l,m] is D_j^i_{kl|m}), curvature pairs are R[i,k].  One
routine, horizontal, adds the connection terms of every horizontal
derivative: the Spray's and lemma21_residual's.
"""

import math
from functools import cached_property

import numpy as np

from .errors import DomainError, EvalError, RegularityError, TowerBudgetError
from .scalars import ring_inv, value_of
from .scalars import ring_det  # noqa: F401  (perfbench/spans.py wraps this name)
from .series import Series, SeriesRing, graded_solve, linear_form, ln_det, one_kind
from .series import restrict

# Orientation of the Ricci identity for the Berwald-curvature
# commutator: B_j^i_{kl|m} - B_j^i_{km|l} = RICCI_LM_SIGN * d_k R_j^i_{lm}
# where d_k is the fiber derivative of the full Riemann tensor indexed
# [j,i,k,l,m] as Spray.R_full_dot below; Frame.master_lhs reads it.  The
# literature writes the right side with both (l,m) and (m,l) orderings;
# this sign is pinned numerically in the test suite on metrics where the
# commutator does not vanish (it comes out as the (m,l) ordering).
RICCI_LM_SIGN = -1.0

# Variance of each Frame or Spray output that a caller reads, keyed by
# attribute name (projective.R has R's): one entry per slot, in the index
# layout above (B[j,i,k,l] holds B_j^i_{kl}; a horizontal derivative's
# new slot is lower and last).
VARIANCE = {
    "G": ("upper",),
    **dict.fromkeys(("N", "R"), ("upper", "lower")),
    **dict.fromkeys(("Gamma", "R_kl"), ("upper", "lower", "lower")),
    **dict.fromkeys(("S_yy", "E_from_trace"), ("lower", "lower")),
    "thm33_residual": ("lower", "lower", "lower"),
    **dict.fromkeys(
        ("B", "D", "R_full", "D_h0", "gdw_residual", "thm31_residual"),
        ("lower", "upper", "lower", "lower"),
    ),
    **dict.fromkeys(
        ("Dbar", "R_full_dot", "master_residual", "pricci_residual"),
        ("lower", "upper", "lower", "lower", "lower"),
    ),
}

# ---------------------------------------------------------------------------
# ring pipeline


def _at_state(x, y, fn, *args):
    """fn(*args), with a domain failure raised as a RegularityError at the
    state (x, y), also one a DSL expression re-raised.

    expr.evaluate turns a failing ln/sqrt/pow/division into EvalError
    with the DomainError (or ZeroDivisionError) as its cause; an unbound
    parameter is an EvalError with no such cause and passes through.
    """
    try:
        return fn(*args)
    except (DomainError, ZeroDivisionError, EvalError) as exc:
        cause = exc.__cause__ if isinstance(exc, EvalError) else exc
        if not isinstance(cause, (DomainError, ZeroDivisionError)):
            raise
        raise RegularityError(str(exc), x=x, y=y) from exc


def fsq_series(metric, xs, ys):
    """F^2 from the metric's one evaluator (MetricSpec.F2), which raises
    DomainError("F <= 0") before any product when F is not positive."""
    return metric.F2(xs, ys)


def metric_series(fsq):
    """g_ij from the F^2 series, in the stage ring its readers need.

    No reader takes an x-derivative of order 2 of g: the Frame reads its
    value and its (0, 1) partials (C), and the spray and tau read g only
    through one x-derivative of F^2.  So the first y-gradient lands in
    (bx - 1, by - 1, bd - 1), and g keeps the budget (bx - 1, by - 2,
    bd - 2); g_ij for i <= j is differentiated in y^i first, and g_ji is
    g_ij; g is one Series with lanes [i, j].  Its value must be positive
    definite (a DomainError otherwise), so that the sweep that inverts
    the value for the spray's graded solve meets no zero pivot.
    """
    n = fsq.ring.n
    first = fsq.grad("y", fsq.ring.stage(fsq.bx - 1, fsq.by))  # [i]
    second = first.grad("y", first.ring)  # [j, i]: y^i first
    i, j = np.indices((n, n))
    g = second.c[np.maximum(i, j), np.minimum(i, j)] * 0.5  # [i, j]
    low = np.linalg.eigvalsh(g[..., 0])[0]
    if low <= 0.0:
        raise DomainError(
            "fundamental tensor not positive definite (min eigenvalue %.3e)" % low
        )
    return Series(second.ring, g)


def spray_series(fsq, g, g0, ys):
    """The spray, one Series with lanes [i], from g in its stage ring
    (metric_series) and g0 = (det, inverse) of its value
    (scalars.ring_inv on floats).

    G^i solves g_il G^l = 1/4 { d2 F^2/dx^k dy^l y^k - dF^2/dx^l }: the
    braces run over the lanes l in the stage ring of g (lanes [i, l]), and
    the graded solve, preconditioned by g0's inverse, fills G there: no
    ring product.
    """
    stage = g.ring
    dxP = fsq.grad("x", fsq.ring.stage(stage.cap_x, stage.cap_y + 1))  # [k]
    D = dxP.grad("y", stage)  # [l, k]
    A = linear_form(Series(stage, D.c.swapaxes(0, 1)), ys)  # over k: lanes l
    A = (A - restrict(dxP, stage)) * 0.25
    return graded_solve(g, A, np.asarray(g0[1]))  # lanes [i]


def ln_det_series(g, g0):
    """ln det g in the (1, 1) ring, where tau is read at its value and
    first partials, from g (metric_series) and g0 = (det, inverse) of its
    value: series.ln_det, exact there (M^3 has degree >= 3), one product
    of n^2 lanes."""
    return ln_det(restrict(g, g.ring.stage(1, 1)), g0[0], np.asarray(g0[1]))


def riemann_series(G, ys, by):
    """R^i_k of a spray G (lanes [i]) at the YVariables ys of its ring
    state, one Series with component axes [i, k].

    R^i_k = 2 dG^i/dx^k - y^m d2G^i/dx^m dy^k + 2 G^m d2G^i/dy^m dy^k
            - dG^i/dy^m dG^m/dy^k.

    by is the highest y-order any reader takes; none takes an
    x-derivative.  So G must keep x-order 1 and y-order and total degree
    by + 2 (TowerBudgetError otherwise, before any product).  Its
    derivatives go straight into the (0, by + 1) and (0, by) stages.
    y^m d2G^i/dx^m dy^k is a shift over the lanes [m, k, i]
    (Series.times_y); the other two products of each m are one product
    in the (0, by) stage over the 2 n^3 lanes (term, m, k, i).  Each lane
    (k, i) adds its terms for m = 0..n-1 in the order of the written sum.
    """
    n = len(G.c)
    ring = ys[0].ring
    mid, low = ring.stage(0, by + 1), ring.stage(0, by)
    # a shorter G would land its derivatives in rings below mid and low
    if min(G.by, G.bd) < by + 2:
        raise TowerBudgetError(
            "Riemann curvature to y-order %d needs the spray's budget (1, %d, %d), "
            "past its (%d, %d, %d)" % (by, by + 2, by + 2, G.bx, G.by, G.bd)
        )
    Gdx = G.grad("x", mid)  # [m, i]
    Gdy = G.grad("y", mid)  # [m, i]
    Gdxy = Gdx.grad("y", low).c.swapaxes(0, 1)  # [m, k, i]
    Gdyy = Gdy.grad("y", low).c  # [k, m, i]
    Gdy_low = restrict(Gdy, low).c  # [m, i]
    G2_low = restrict(G, low).c * 2.0  # [m]
    ydxy = Series(low, Gdxy).times_y(ys.u).c  # [m, k, i]
    shape = (n, n, n, low.size)  # lanes [m, k, i]
    first = np.stack([  # d2G^i/dy^m dy^k, dG^i/dy^m
        Gdyy.swapaxes(0, 1),
        np.broadcast_to(Gdy_low[:, None], shape),
    ])
    shape = (n, n, 1, low.size)  # lanes [m, k], broadcast along i
    second = np.stack([  # 2 G^m, dG^m/dy^k
        np.broadcast_to(G2_low[:, None, None], shape),
        Gdy_low.swapaxes(0, 1)[:, :, None],
    ])
    terms = (Series(low, first) * Series(low, second)).c  # [term, m, k, i]
    acc = restrict(Gdx, low).c * 2.0  # [k, i]
    for m in range(n):
        acc = acc - ydxy[m]
        acc = acc + terms[0, m]
        acc = acc - terms[1, m]
    return Series(low, acc.swapaxes(0, 1))


def _cube_extract(W):
    """Value, x-gradient, y-gradient of the third fiber derivative of W^i.

    Returns arrays indexed [j,i,k,l], [j,i,k,l,m], [j,i,k,l,r].
    """
    val = W.partials(0, 3)  # [i,j,k,l]
    xd = W.partials(1, 3)  # [i,m,j,k,l]
    yd = W.partials(0, 4)  # [i,j,k,l,r]
    return (
        np.transpose(val, (1, 0, 2, 3)),
        np.transpose(xd, (2, 0, 3, 4, 1)),
        np.transpose(yd, (1, 0, 2, 3, 4)),
    )


def log_sigma_series(volume, xs):
    """ln sigma as a ring element, or a float when sigma does not vary.

    ln sigma depends on x alone, so the volume form's log_sigma runs in
    the x-only stage ring (series.one_kind), and the result is embedded
    into the ring of xs.
    """
    if volume is None:
        return 0.0
    return one_kind(volume.log_sigma, xs, "x")


def horizontal(T, Tx, Ty, N, Gamma, variance):
    """Horizontal covariant derivative T_{|m} of a tensor, as an array.

    T holds the components at the state, Tx and Ty its x- and
    y-gradients (one more slot, last), N and Gamma the connection, and
    variance names each slot of T "upper" or "lower":

        T_{|m} = dT/dx^m - N^r_m dT/dy^r
                 + Gamma^i_rm T(r in upper slot i)
                 - Gamma^r_jm T(r in lower slot j)

    The terms are added in the order written: upper slots, then lower
    ones, each in slot order.
    """
    idx = "abcdefghijkl"[: T.ndim]
    out = Tx - np.einsum("%sr,rm->%sm" % (idx, idx), Ty, N)
    for slot in sorted(range(T.ndim), key=lambda s: variance[s] != "upper"):
        i, moved = idx[slot], idx.replace(idx[slot], "r")
        if variance[slot] == "upper":
            out += np.einsum("%srm,%s->%sm" % (i, moved, idx), Gamma, T)
        else:
            out -= np.einsum("r%sm,%s->%sm" % (i, moved, idx), Gamma, T)
    return out


def _fiber_pair(A, axes):
    """(A - A with its last two slots swapped) / 3 of A transposed to axes:
    R^i_{kl}, R_j^i_{kl} and d_k R_j^i_{lm} from fiber partials of R^i_k."""
    A = np.transpose(A, axes)
    return (A - np.swapaxes(A, -1, -2)) / 3.0


def _item(stage, k):
    """A read-only attribute: item k of the cached stage named stage."""
    return property(lambda self: getattr(self, stage)[k])


# ---------------------------------------------------------------------------
# Spray and Frame


class Spray:
    """Every output of the spray G^i (one Series with lanes [i]; ys are
    the YVariables of its ring state), each stage run on its first read: B is the
    y-cube of G, D that of the Douglas core G - div(G) y/(n+1), each with
    its x- and y-gradients."""

    def __init__(self, G, ys):
        self.n = len(G.c)
        self.series, self.ys = G, ys

    @cached_property
    def _jet(self):
        return [self.series.partials(0, k) for k in range(3)]

    G, N, Gamma = (_item("_jet", k) for k in range(3))

    @cached_property
    def _riemann(self):
        R = riemann_series(self.series, self.ys, 3)
        return [R.partials(0, k) for k in range(4)]

    R, R_y, R_yy, R_y3 = (_item("_riemann", k) for k in range(4))

    @cached_property
    def R_kl(self):
        return _fiber_pair(self.R_y, (0, 1, 2))

    @cached_property
    def R_full(self):
        return _fiber_pair(self.R_yy, (3, 0, 1, 2))

    @cached_property
    def R_full_dot(self):
        """d_k R_j^i_{lm} as [j,i,k,l,m] from third fiber partials of R^i_k."""
        return _fiber_pair(self.R_y3, (3, 0, 4, 1, 2))

    @cached_property
    def div(self):
        d = self.series.grad("y", self.series.ring)  # [m, i]
        return Series(d.ring, sum((d.c[m, m] for m in range(1, self.n)), d.c[0, 0]))

    @cached_property
    def _berwald(self):
        return _cube_extract(self.series)

    B, B_x, B_y = (_item("_berwald", k) for k in range(3))

    @cached_property
    def _douglas(self):
        return _cube_extract(self.plus_y(self.div, -1.0 / (self.n + 1)))

    def plus_y(self, P, scale):
        """G^i + P y^i scale, lanes [i], with no ring product (times_y):
        G - S y/(n+1) (the Douglas core, the projective spray), G + P y."""
        Py = restrict([P] * self.n, P.ring).times_y(self.ys.u)
        return restrict(self.series, Py.ring) + Py * scale

    D, D_x, D_y = (_item("_douglas", k) for k in range(3))

    @cached_property
    def D_h(self):
        return horizontal(self.D, self.D_x, self.D_y, self.N, self.Gamma, VARIANCE["D"])


class Frame(Spray):
    """Every curvature quantity of one (metric, volume, x, y), as arrays.

    The constructor runs F^2 -> g -> G and its checks; the Frame is the
    Spray of G.  The volume stage runs on its first read: ln sigma (a
    domain failure names the state), S with its drift and partials, tau
    with ln det g, and projective, the Spray of the projective spray.
    """

    def __init__(self, metric, volume, x, y):
        n = metric.dimension
        self.x = tuple(float(v) for v in x)
        self.y = tuple(float(v) for v in y)
        self._volume = volume
        ring = SeriesRing.get(n)
        xs, ys = ring.state(self.x, self.y)
        self.xs = xs  # the volume stage reads ln sigma there

        fsq = _at_state(self.x, self.y, fsq_series, metric, xs, ys)
        self.F2 = fsq.value()
        if self.F2 <= 0.0:
            raise RegularityError("F^2 <= 0", x=self.x, y=self.y)
        self.F = math.sqrt(self.F2)

        g = self._g = _at_state(self.x, self.y, metric_series, fsq)  # lanes [i, j]
        self.g = g.c[..., 0].copy()
        det0, ginv = ring_inv(self.g.tolist())
        self.ginv = np.array(ginv)
        self._g0 = det0, self.ginv
        self.y_low = self.g @ np.array(self.y)
        self.C = 0.5 * g.partials(0, 1)
        super().__init__(spray_series(fsq, g, self._g0, ys), ys)

    # -- the volume stage -------------------------------------------------

    @cached_property
    def _log_sigma(self):
        return _at_state(self.x, self.y, log_sigma_series, self._volume, self.xs)

    @cached_property
    def _S(self):
        S = self.div
        if not isinstance(self._log_sigma, float):
            # the drift sum_m d_m ln sigma y^m, in the ring of the divergence
            dx = self._log_sigma.grad("x", S.ring)
            S = S - linear_form(dx, self.ys)
        return S

    @cached_property
    def _s_jet(self):
        S = self._S
        return (
            S.c[0],
            S.partials(1, 0),
            S.partials(0, 1),
            S.partials(0, 2),
            S.partials(0, 3),
            np.transpose(S.partials(1, 2), (1, 2, 0)),
        )

    S, S_x, S_y, S_yy, S_yyy, S_xyy = (_item("_s_jet", k) for k in range(6))

    @cached_property
    def _tau(self):
        tau = ln_det_series(self._g, self._g0) * 0.5 - self._log_sigma
        return tau.c[0], tau.partials(1, 0), tau.partials(0, 1)

    tau, tau_x, tau_y = (_item("_tau", k) for k in range(3))

    @cached_property
    def projective(self):
        return Spray(self.plus_y(self._S, -1.0 / (self.n + 1)), self.ys)

    # -- assembled quantities -------------------------------------------

    @cached_property
    def scale(self):
        return max(1.0, float(np.abs(self.B).max()), float(np.abs(self.D).max()))

    @cached_property
    def E(self):
        return 0.5 * self.S_yy

    @cached_property
    def E_from_trace(self):
        return 0.5 * np.einsum("jmkm->jk", self.B)

    @cached_property
    def Dbar(self):
        return self.D_h - np.transpose(self.D_h, (0, 1, 2, 4, 3))

    @cached_property
    def D_h0(self):
        return np.einsum("jiklm,m->jikl", self.D_h, np.array(self.y))

    @cached_property
    def S_yy_h(self):
        return horizontal(
            self.S_yy, self.S_xyy, self.S_yyy, self.N, self.Gamma, VARIANCE["S_yy"]
        )

    # -- identity residuals ---------------------------------------------

    @cached_property
    def master_lhs(self):
        return RICCI_LM_SIGN * self.projective.R_full_dot

    @cached_property
    def master_rhs(self):
        n = self.n
        yv = np.array(self.y)
        I = np.eye(n)
        SD = np.einsum("r,jrka->jka", self.S_y, self.D)
        SyyD = np.einsum("rb,jrka->jkab", self.S_yy, self.D)
        corr = np.einsum("jkl,im->jiklm", SD, I)
        corr -= np.einsum("jkm,il->jiklm", SD, I)
        corr += np.einsum("jklm,i->jiklm", SyyD, yv)
        corr -= np.einsum("jkml,i->jiklm", SyyD, yv)
        return self.Dbar - corr / (n + 1)

    @cached_property
    def master_residual(self):
        return self.master_lhs - self.master_rhs

    @cached_property
    def pricci_residual(self):
        # D is also the projective spray's Douglas tensor (a projective
        # invariant): differentiate it along the projective connection
        p = self.projective
        D_h = horizontal(self.D, self.D_x, self.D_y, p.N, p.Gamma, VARIANCE["D"])
        return D_h - np.transpose(D_h, (0, 1, 2, 4, 3)) - self.master_lhs

    @cached_property
    def thm31_residual(self):
        yv = np.array(self.y)
        SD = np.einsum("r,jrkl->jkl", self.S_y, self.D)
        return self.D_h0 - np.einsum("jkl,i->jikl", SD, yv) / (self.n + 1)

    @cached_property
    def thm33_residual(self):
        return self.S_yy_h - np.einsum("r,jrkm->jkm", self.S_y, self.D)

    def constflag_matrix(self):
        return self.F2 * np.eye(self.n) - np.outer(np.array(self.y), self.y_low)

    def constflag_residual(self, lam):
        return self.R - lam * self.constflag_matrix()

    def constflag_lambda_fit(self):
        M = self.constflag_matrix()
        denom = float(np.sum(M * M))
        if denom == 0.0:
            return 0.0
        return float(np.sum(self.R * M)) / denom

    @cached_property
    def gdw_factor(self):
        yv = np.array(self.y)
        return np.einsum("jrkl,r->jkl", self.D_h0, yv) / float(yv @ yv)

    @cached_property
    def gdw_residual(self):
        return self.D_h0 - np.einsum("jkl,i->jikl", self.gdw_factor, np.array(self.y))

    @cached_property
    def s_hor0(self):
        yv = np.array(self.y)
        return float(yv @ self.S_x - 2.0 * self.G @ self.S_y)

    def projective_ricci_direct(self):
        return float(np.trace(self.projective.R))

    def projective_ricci_assembled(self):
        n = self.n
        ric = float(np.trace(self.R))
        s_norm = self.S / (n + 1)
        return ric + (n - 1) * (self.s_hor0 / (n + 1) + s_norm * s_norm)


def modified_spray(frame, p_func, budget):
    """The spray G + P y of a projective factor P, and P, as Series in
    the stage ring of budget (bx, by), all that the caller reads.

    G is the Frame's spray; P = p_func(xs, ys) on the Frame's state in
    that ring, which gives the root's P restricted (budget invariance).
    """
    ring = SeriesRing.get(frame.n).stage(*budget)
    P = p_func(*ring.state(frame.x, frame.y))
    P = restrict(P, ring) if hasattr(P, "ring") else ring.constant(value_of(P))
    return frame.plus_y(P, 1.0), P


def lemma21_residual(frame, p_func):
    """Residual of the projective-change law for the Riemann curvature.

    With Ghat = G + P y, the curvatures satisfy
    Rhat^i_k = R^i_k + Xi delta^i_k + tau_k y^i where Xi = P^2 - P_{|0}
    and tau_k = 3(P_{|k} - P P_{.k}) + Xi_{.k}; P-derivatives use the
    base connection.  R, N and G come from the Frame; only Rhat is new.
    Every read ends at (1, 2): Rhat reads Ghat there, P_{|k} and P_{.k}
    are (1, 1), Xi_{.k} is (0, 1), so Ghat and P run in that ring.
    """
    n = frame.n
    ys, G = frame.ys, frame.series
    Ghat, P = modified_spray(frame, p_func, (1, 2))

    Rhat_val = riemann_series(Ghat, ys, 0).c[..., 0]

    P_val = P.c[0]
    P_x = P.partials(1, 0)
    P_y = P.partials(0, 1)

    dx, dy = P.grad("x", P.ring), P.grad("y", P.ring)
    hor0 = linear_form(dx, ys)
    for r in range(n):
        hor0 = hor0 - dy.part(r) * (G.part(r) * 2.0)
    Xi = P * P - hor0
    Xi_val = Xi.c[0]
    Xi_y = Xi.partials(0, 1)

    P_h = horizontal(P_val, P_x, P_y, frame.N, frame.Gamma, ())
    tau_k = 3.0 * (P_h - P_val * P_y) + Xi_y
    yv = np.array(frame.y)
    predicted = frame.R + Xi_val * np.eye(n) + np.outer(yv, tau_k)
    return Rhat_val - predicted
