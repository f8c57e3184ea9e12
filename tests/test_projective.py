"""Projective spray, projective Ricci, and identity residuals."""

import time

import numpy as np
import pytest

from finslerlab import engine
from finslerlab.catalog import get_example, list_examples
from finslerlab.classify import SamplePlan, classify_metric, sample_states
from finslerlab.curvature import GeometryState, residual_scale
from finslerlab.errors import ConfigError
from finslerlab.metrics import alpha_beta_metric, construct_metric
from finslerlab.scalars import sqrt
from finslerlab.projective import (
    IDENTITY_KINDS,
    douglas_invariance_gap,
    identity_residual,
    pr_quadratic_residual,
    pr_riemann,
    projective_ricci,
    projective_spray,
)
from finslerlab.volume import bh_randers_volume, dsl_volume

from support import randers_n4

X3, Y3 = (0.12, -0.2, 0.15), (0.6, -0.35, 0.72)


def entry_state(name, x=X3, y=Y3, **overrides):
    entry = get_example(name, **overrides)
    return GeometryState(entry.metric, entry.volume, x, y)


def test_projective_spray_riemannian_volume_is_neutral():
    # sigma = sqrt(det a) gives S = 0, so the spray is untouched
    st = entry_state("riemannian_sphere")
    ps = projective_spray(st)
    assert abs(ps.S_value) <= 1e-12
    assert np.abs(ps.spray_tilde - st.frame.G).max() <= 1e-12


def test_projective_spray_osaka_matches_base_spray():
    st = entry_state("randers_osaka")
    ps = projective_spray(st)
    assert np.abs(
        ps.spray_tilde - st.frame.G
    ).max() <= 1e-6 * residual_scale(st)


def test_projective_spray_euclidean_with_tilted_volume():
    m = construct_metric(
        "dsl", 3, F="(y1^2 + y2^2 + y3^2)^(1/2)", name="flat3"
    )
    st = GeometryState(m, dsl_volume("exp(x1)", 3), X3, Y3)
    ps = projective_spray(st)
    assert ps.S_value == pytest.approx(-Y3[0], abs=1e-12)
    expected = -ps.S_value * np.array(Y3) / 4.0
    assert np.abs(ps.spray_tilde - expected).max() <= 1e-12


def test_projective_ricci_euclidean_is_zero():
    st = entry_state("euclidean")
    pr = projective_ricci(st)
    assert pr.direct == pytest.approx(0.0, abs=1e-12)
    assert pr.assembled == pytest.approx(0.0, abs=1e-12)


def test_projective_ricci_osaka_vanishes_both_routes():
    st = entry_state("randers_osaka")
    pr = projective_ricci(st)
    tol = 1e-6 * residual_scale(st)
    assert abs(pr.direct) <= tol
    assert abs(pr.assembled) <= tol


def test_projective_ricci_routes_agree_on_humo():
    st = entry_state("randers_humo")
    pr = projective_ricci(st)
    assert abs(pr.direct - pr.assembled) <= 1e-6 * residual_scale(st)


def test_pr_riemann_shapes_and_contraction():
    st = entry_state("randers_baoshen")
    pr_ik, pr_full = pr_riemann(st)
    assert pr_ik.components.shape == (3, 3)
    assert pr_full.components.shape == (3, 3, 3, 3)
    contracted = np.einsum("jikl,j->ikl", pr_full.components, st.y)
    # contracting the j-slot with y recovers the kl-antisymmetrization
    rt_kl = st.frame.projective.R_kl
    assert np.abs(contracted - rt_kl).max() <= 1e-10


def test_pr_quadratic_residual_riemannian_zero():
    st = entry_state("riemannian_sphere")
    assert np.abs(
        pr_quadratic_residual(st).components
    ).max() <= 1e-9 * residual_scale(st)


def test_pr_quadratic_residual_douglas_metric_zero():
    st = entry_state("mkropina_yang", y=(0.9, 0.2, 0.1))
    assert np.abs(
        pr_quadratic_residual(st).components
    ).max() <= 1e-6 * residual_scale(st)


def test_pr_quadratic_residual_nonzero_for_baoshen():
    st = entry_state("randers_baoshen")
    assert np.abs(
        pr_quadratic_residual(st).components
    ).max() > 1e-2 * residual_scale(st)


def test_identity_master_on_humo():
    st = entry_state("randers_humo")
    res = identity_residual("master", st)
    assert np.abs(res.components).max() <= 1e-6 * residual_scale(st)


def test_identity_master_across_catalog():
    rng = np.random.default_rng(7)
    for name in list_examples():
        entry = get_example(name)
        n = entry.metric.dimension
        for _ in range(3):
            x = tuple(0.3 * rng.uniform(-1.0, 1.0, n))
            y = tuple(rng.uniform(0.2, 1.0, n))
            try:
                st = GeometryState(entry.metric, entry.volume, x, y)
                res = identity_residual("master", st)
            except Exception:
                continue  # domain rejects are exercised elsewhere
            assert np.abs(res.components).max() <= 1e-6 * residual_scale(st), name


def test_identity_pricci_matches_master_lhs():
    st = entry_state("randers_baoshen")
    res = identity_residual("pricci", st)
    assert np.abs(res.components).max() <= 1e-6 * residual_scale(st)


def test_identity_thm31_tracks_pr_quadratic_verdict():
    for name, y in (
        ("mkropina_yang", (0.9, 0.2, 0.1)),
        ("randers_baoshen", Y3),
        ("randers_osaka", Y3),
    ):
        st = entry_state(name, y=y)
        tol = 1e-6 * residual_scale(st)
        lhs_small = np.abs(identity_residual("thm31", st).components).max() <= tol
        rhs_small = np.abs(pr_quadratic_residual(st).components).max() <= tol
        assert lhs_small == rhs_small, name


def test_identity_thm33_on_osaka():
    st = entry_state("randers_osaka")
    res = identity_residual("thm33", st)
    assert np.abs(res.components).max() <= 1e-7 * residual_scale(st)


def test_identity_constflag_fixed_lambda():
    st = entry_state("randers_baoshen")
    res = identity_residual("constflag", st, lam=1.0)
    assert np.abs(res.components).max() <= 1e-5 * residual_scale(st)


def test_identity_constflag_fitted_lambda():
    st = entry_state("riemannian_sphere")
    assert st.frame.constflag_lambda_fit() == pytest.approx(1.0, abs=1e-10)
    res = identity_residual("constflag", st)
    assert np.abs(res.components).max() <= 1e-10


def test_identity_lemma21_zero_factor():
    st = entry_state("randers_osaka")
    res = identity_residual("lemma21", st, p="0")
    assert np.abs(res.components).max() <= 1e-13


def test_identity_lemma21_linear_factor():
    st = entry_state("randers_humo")
    res = identity_residual(
        "lemma21", st, p="0.3*y1 - 0.2*y2 + 0.1*y3"
    )
    assert np.abs(res.components).max() <= 1e-10 * residual_scale(st)


def test_identity_lemma21_rejects_inhomogeneous_factor():
    st = entry_state("euclidean")
    with pytest.raises(ConfigError):
        identity_residual("lemma21", st, p="y1^2")
    with pytest.raises(ConfigError):
        douglas_invariance_gap(st, "y1^2")
    # the factor is checked at the state before its Frame is built
    assert "frame" not in vars(st)


def test_identity_lemma21_requires_factor():
    st = entry_state("euclidean")
    with pytest.raises(ConfigError):
        identity_residual("lemma21", st)


def test_identity_unknown_kind():
    st = entry_state("euclidean")
    with pytest.raises(ConfigError):
        identity_residual("thm99", st)
    assert "frame" not in vars(st)  # rejected before any work
    assert set(IDENTITY_KINDS) == {
        "thm31", "master", "thm33", "constflag", "pricci", "lemma21"
    }


def test_douglas_tensor_projective_invariance_linear():
    st = entry_state("randers_osaka")
    gap = douglas_invariance_gap(st, "0.4*y1 + 0.25*y2 - 0.3*y3")
    assert gap <= 1e-7 * residual_scale(st)


def test_douglas_tensor_projective_invariance_scaled_norm():
    st = entry_state("randers_humo")

    def scaled_f(xs, ys):
        return sqrt(engine.fsq_series(st.metric, xs, ys)) * 0.35

    gap = douglas_invariance_gap(st, scaled_f)
    assert gap <= 1e-7 * residual_scale(st)


@pytest.mark.parametrize("name", ["randers_osaka", "randers_n4"])
def test_douglas_tensor_projective_invariance_nonlinear_factor(name):
    # P = sqrt(y^T Q y) + c.y, Q SPD and c from a fixed-seed rng: a
    # 1-homogeneous factor that is not linear in y, so G + P y changes
    # the Berwald tensor and must keep D, at 3 states of plan seed 3.
    # Measured worst gap / residual_scale: 3.7e-16 (osaka), 1.7e-15 (n4),
    # in 0.07 and 0.25 s of CPU; B moves by at least 4.2
    entry = randers_n4() if name == "randers_n4" else get_example(name)
    n = entry.metric.dimension
    rng = np.random.default_rng(7)
    L = rng.normal(size=(n, n))
    Q = L @ L.T + n * np.eye(n)
    c = rng.normal(size=n) * 0.3

    def factor(xs, ys):
        quad = sum(Q[i, j] * ys[i] * ys[j] for i in range(n) for j in range(n))
        return sqrt(quad) + sum(c[i] * ys[i] for i in range(n))

    start = time.process_time()
    plan = SamplePlan(count=3, seed=3)
    for x, y in sample_states(entry.metric, plan).states:
        st = GeometryState(entry.metric, entry.volume, x, y)
        gap = douglas_invariance_gap(st, factor)
        assert gap <= 4e-15 * residual_scale(st), (name, x, y, gap)
        frame = st.frame
        Ghat, _ = engine.modified_spray(frame, factor, (1, 5))
        moved = np.abs(engine.Spray(Ghat, frame.ys).B - frame.B).max()
        assert moved >= 1.0, (name, x, y, moved)
    assert time.process_time() - start <= 20.0


@pytest.mark.parametrize(
    "name", ["randers_osaka", "randers_humo", "randers_baoshen"]
)
def test_closed_form_change_keeps_douglas_and_gdw(name):
    # F + df with f = 0.05 (x1 x2 + x1 x3 + x3^2/2) has the geodesics of F
    # as point sets, so its Douglas tensor is D(F) at every (x, y), and
    # the Douglas and GDW verdicts, both projective invariants, stay
    metric = get_example(name).metric

    def b_fn(x):
        grad = (x[1] + x[2], x[0], x[0] + x[2])
        return [b + 0.05 * d for b, d in zip(metric.b_fn(x), grad)]

    changed = alpha_beta_metric(
        name + "+df", 3, metric.a_fn, b_fn, chart_domain=metric.chart_domain
    )
    for x, y in sample_states(metric, SamplePlan(count=10, seed=0)).states:
        D = engine.Frame(metric, None, x, y).D
        D_df = engine.Frame(changed, None, x, y).D
        assert np.abs(D_df - D).max() <= 1e-12 * max(1.0, np.abs(D).max())
    plan = SamplePlan(count=20, seed=0)
    before, after = (
        classify_metric(m, bh_randers_volume(m), plan).predicates
        for m in (metric, changed)
    )
    for pred in ("douglas", "gdw"):
        assert before[pred].verdict == after[pred].verdict, pred


def test_projective_factor_accepts_parameters():
    st = entry_state("euclidean")
    res = identity_residual(
        "lemma21", st, p="c*y1", parameters={"c": 0.5}
    )
    assert np.isfinite(res.components).all()


@pytest.mark.parametrize("kind", IDENTITY_KINDS)
def test_tensor_values_carry_the_state_tuple(kind):
    # TensorValue.state is the (x, y) tuple, as every curvature accessor
    # stores it, not the GeometryState
    st = entry_state("randers_osaka")
    kwargs = {"p": "0.3*y1"} if kind == "lemma21" else {}
    values = [identity_residual(kind, st, **kwargs)]
    values += [*pr_riemann(st), pr_quadratic_residual(st)]
    for value in values:
        assert value.state == st.state_tuple == (X3, Y3)
