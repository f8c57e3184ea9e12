"""Series engine: one-state pipeline, curvature identities, sign pins.

The catalog examples double as oracles here: their curvature profiles
are known in closed form (K=0, K=1, B=0, ...), so a machine-precision
residual on each is a strong whole-pipeline check.
"""

import ast
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finslerlab
from finslerlab.catalog import get_example, list_examples
from finslerlab.classify import SamplePlan, sample_states
from finslerlab.engine import (
    RICCI_LM_SIGN,
    Frame,
    lemma21_residual,
)
from finslerlab.errors import RegularityError
from finslerlab.metrics import alpha_beta_metric, construct_metric
from finslerlab.series import ROOT_CAPS, Series, SeriesRing, restrict
from finslerlab.volume import (
    bh_quadrature_volume,
    bh_sigma_quadrature,
    choose_rule,
    constant_volume,
    dsl_volume,
)

from support import (
    derivative,
    distortion_flow_derivative,
    horizontal_derivative,
    oracle_fsq_partials,
    randers_n4,
    ricci_identity_sides,
)

STATE = ((0.11, -0.07, 0.13), (0.6, -0.3, 0.74))


def generic_randers():
    # x-dependent a and b with no special symmetry: nothing cancels
    def a_fn(x):
        base = [[1.0, 0.1, 0.0], [0.1, 1.2, 0.05], [0.0, 0.05, 0.9]]
        return [
            [
                base[i][j]
                + (0.2 * x[0] * x[1] if i == j == 0 else 0.0)
                + (0.1 * x[2] if (i, j) in ((0, 1), (1, 0)) else 0.0)
                for j in range(3)
            ]
            for i in range(3)
        ]

    def b_fn(x):
        return [0.1 + 0.15 * x[1], 0.2 * x[2] - 0.05, 0.1 * x[0]]

    return alpha_beta_metric("generic", 3, a_fn, b_fn)


def frame_of(entry_name, x, y, **overrides):
    entry = get_example(entry_name, **overrides)
    return Frame(entry.metric, entry.volume, x, y)


def test_ricci_identity_orientation_is_pinned():
    # the commutator of horizontal derivatives of B matches exactly one
    # orientation of the curvature's fiber derivative
    f = Frame(generic_randers(), constant_volume(1.0), *STATE)
    commutator, rhs = ricci_identity_sides(f)
    good = np.abs(commutator - rhs).max()
    flipped = np.abs(commutator + rhs).max()
    assert good <= 1e-12 * f.scale
    assert flipped > 1e-3
    assert RICCI_LM_SIGN == -1.0


def test_master_identity_generic_randers():
    f = Frame(generic_randers(), constant_volume(1.0), *STATE)
    assert np.abs(f.master_residual).max() <= 1e-12 * f.scale


def test_master_identity_with_quadrature_volume():
    # the identity must survive a volume density known only by quadrature
    m = generic_randers()
    f = Frame(m, bh_quadrature_volume(m), *STATE)
    assert np.abs(f.master_residual).max() <= 1e-9 * f.scale


def test_projective_curvature_commutator_route():
    f = frame_of("randers_baoshen", (0.12, -0.2, 0.08), (0.7, 0.3, -0.5))
    assert np.abs(f.pricci_residual).max() <= 1e-10 * f.scale


def test_sphere_has_constant_flag_curvature_one():
    f = frame_of("riemannian_sphere", (0.1, 0.2, -0.1), (0.5, 0.5, 0.7))
    assert f.constflag_lambda_fit() == pytest.approx(1.0, abs=1e-12)
    assert np.abs(f.constflag_residual(1.0)).max() <= 1e-12
    assert abs(f.S) <= 1e-12


def test_quartic_is_locally_minkowski():
    f = frame_of("minkowski_quartic", (0.2, -0.1, 0.3), (0.6, -0.5, 0.4))
    assert np.abs(f.B).max() <= 1e-15
    assert np.abs(f.R).max() <= 1e-15
    assert abs(f.S) <= 1e-15
    assert np.abs(f.C).max() > 0.1
    assert np.linalg.eigvalsh(f.g)[0] > 0.0


def test_osaka_curvature_profile():
    f = frame_of("randers_osaka", (0.1, 0.2, 0.0), (0.55, -0.4, 0.65))
    assert np.abs(f.R).max() <= 1e-12
    assert abs(f.S) <= 1e-12
    assert np.abs(f.Dbar).max() <= 1e-10
    assert np.abs(f.D).max() > 0.1


def test_humo_curvature_profile():
    f = frame_of("randers_humo", (0.15, -0.1, 0.2), (0.4, 0.8, -0.3))
    assert np.abs(f.R).max() <= 1e-12
    assert np.abs(f.E).max() <= 1e-12
    assert abs(f.S) <= 1e-12
    assert np.abs(f.D_h0).max() <= 1e-10
    assert np.abs(f.B).max() > 0.1


def test_baoshen_flag_factor_is_twice_cartan():
    f = frame_of("randers_baoshen", (0.12, -0.2, 0.08), (0.7, 0.3, -0.5))
    assert abs(f.S) <= 1e-12
    assert np.abs(f.gdw_residual).max() <= 1e-10
    assert np.abs(f.gdw_factor - 2.0 * f.C).max() <= 1e-10
    assert np.abs(f.Dbar).max() > 1e-2
    assert np.abs(f.thm31_residual).max() > 1e-2


def test_mean_berwald_two_routes_agree():
    for f in (
        Frame(generic_randers(), constant_volume(1.0), *STATE),
        frame_of("randers_osaka", (0.1, 0.2, 0.0), (0.55, -0.4, 0.65)),
    ):
        assert np.abs(f.E - f.E_from_trace).max() <= 1e-11 * max(
            1.0, np.abs(f.E).max()
        )


def test_s_curvature_is_distortion_derivative():
    for name, x, y in (
        ("randers_osaka", (0.1, 0.2, 0.0), (0.55, -0.4, 0.65)),
        ("riemannian_conformal", (0.2, -0.15, 0.1), (0.3, 0.9, -0.2)),
    ):
        f = frame_of(name, x, y)
        assert distortion_flow_derivative(f) == pytest.approx(
            f.S, abs=1e-10 * max(1.0, abs(f.S))
        )


def test_projective_ricci_two_routes_agree():
    f = Frame(generic_randers(), constant_volume(1.0), *STATE)
    direct = f.projective_ricci_direct()
    assembled = f.projective_ricci_assembled()
    assert direct == pytest.approx(assembled, abs=1e-11 * max(1.0, abs(direct)))


@pytest.mark.parametrize("spray", ["frame", "projective"])
def test_euler_contractions(spray):
    # Euler homogeneity of the spray G and of the projective spray
    # G - S y/(n+1), which share one Spray pipeline
    f = Frame(generic_randers(), constant_volume(1.0), *STATE)
    if spray == "projective":
        f = f.projective
    y = np.array(STATE[1])
    assert np.abs(f.N @ y - 2.0 * f.G).max() <= 1e-13
    assert np.abs(f.R @ y).max() <= 1e-13
    assert np.abs(np.einsum("ijk,k->ij", f.Gamma, y) - f.N).max() <= 1e-13
    assert np.abs(np.einsum("jikl,l->jik", f.B, y)).max() <= 1e-13
    assert np.abs(np.einsum("jmkm->jk", f.D)).max() <= 1e-13
    assert np.abs(np.einsum("jikl,j->ikl", f.D, y)).max() <= 1e-13


def test_spray_stages_run_on_first_read(monkeypatch):
    # a Frame builds the metric stage only: S runs no Riemann, riemann
    # runs the spray's once at y-order 3, and the projective spray's
    # Riemann runs only for a projective output, master or pricci
    from finslerlab import curvature, engine, projective

    calls = []
    plain = engine.riemann_series

    def recorded(G, ys, by):
        calls.append((id(G), by))
        return plain(G, ys, by)

    monkeypatch.setattr(engine, "riemann_series", recorded)
    entry = get_example("randers_osaka")

    def state():
        x, y = (0.1, 0.2, 0.0), (0.55, -0.4, 0.65)
        return curvature.GeometryState(entry.metric, entry.volume, x, y)

    st = state()
    st.frame
    curvature.s_curvature(st)
    curvature.distortion(st)
    assert calls == []
    curvature.riemann(st)
    curvature.douglas_tensor(st)
    curvature.tensor(st, "Dbar")
    curvature.gdw_residual(st)
    curvature.residual_scale(st)
    assert calls == [(id(st.frame.series), 3)]
    projective.pr_riemann(st)
    assert calls[1:] == [(id(st.frame.projective.series), 3)]
    for kind in ("master", "pricci"):
        calls.clear()
        st = state()
        projective.identity_residual(kind, st)
        assert calls == [(id(st.frame.projective.series), 3)], kind


def test_volume_stage_runs_only_when_read():
    # ln sigma, S, tau and the projective spray run on their first read:
    # Riemann, the cubes, the scale, lemma21 and constflag evaluate no
    # density, and a reader of S or tau evaluates it once
    from dataclasses import replace

    from finslerlab import curvature, projective

    entry = get_example("randers_osaka")
    calls = []

    def log_sigma(x):
        calls.append(x)
        return entry.volume.log_sigma(x)

    volume = replace(entry.volume, log_sigma=log_sigma)

    def identity(kind, **kwargs):
        return lambda st: projective.identity_residual(kind, st, **kwargs)

    readers = {
        "riemann": (curvature.riemann, 0),
        "berwald_curvature": (curvature.berwald_curvature, 0),
        "douglas_tensor": (curvature.douglas_tensor, 0),
        "residual_scale": (curvature.residual_scale, 0),
        "lemma21": (identity("lemma21", p="0.3*y1"), 0),
        "constflag": (identity("constflag"), 0),
        "s_curvature": (curvature.s_curvature, 1),
        "distortion": (curvature.distortion, 1),
        "thm33": (identity("thm33"), 1),
    }
    for name, (read, count) in readers.items():
        calls.clear()
        st = curvature.GeometryState(entry.metric, volume, *STATE)
        read(st)
        assert len(calls) == count, name
    curvature.s_curvature(st)
    curvature.distortion(st)
    assert len(calls) == 1


def test_homogeneity_degrees_under_y_scaling():
    m = generic_randers()
    x, y = STATE
    f1 = Frame(m, constant_volume(1.0), x, y)
    f2 = Frame(m, constant_volume(1.0), x, tuple(2.0 * v for v in y))
    assert f2.F2 == pytest.approx(4.0 * f1.F2, rel=1e-13)
    assert np.abs(f2.g - f1.g).max() <= 1e-12
    assert np.abs(f2.G - 4.0 * f1.G).max() <= 1e-12
    assert np.abs(f2.N - 2.0 * f1.N).max() <= 1e-12
    assert np.abs(f2.Gamma - f1.Gamma).max() <= 1e-12
    assert np.abs(f2.R - 4.0 * f1.R).max() <= 1e-12
    assert np.abs(f2.B - 0.5 * f1.B).max() <= 1e-12
    assert f2.S == pytest.approx(2.0 * f1.S, rel=1e-12)


def test_indefinite_hessian_raises_regularity_error():
    m = construct_metric(
        "dsl", 3, F="(y1^2 - 0.5*y2^2 + 2*y3^2)^(1/2)", name="saddle"
    )
    with pytest.raises(RegularityError):
        Frame(m, constant_volume(1.0), (0.0, 0.0, 0.0), (1.0, 0.2, 0.1))


def test_modification_curvature_relation_linear_factor():
    def p_func(xs, ys):
        return (0.1 + 0.3 * xs[1]) * ys[0] + 0.05 * ys[2]

    frame = Frame(generic_randers(), constant_volume(1.0), *STATE)
    res = lemma21_residual(frame, p_func=p_func)
    assert np.abs(res).max() <= 1e-12

    res0 = lemma21_residual(frame, p_func=lambda xs, ys: 0.0)
    assert np.abs(res0).max() == 0.0


def test_engine_matches_jet_oracle():
    for metric, state in (
        (generic_randers(), STATE),
        (get_example("minkowski_quartic").metric,
         ((0.2, -0.1, 0.3), (0.6, -0.5, 0.4))),
    ):
        f = Frame(metric, constant_volume(1.0), *state)
        g_jet = 0.5 * oracle_fsq_partials(metric, *state, 2)
        c_jet = 0.25 * oracle_fsq_partials(metric, *state, 3)
        assert np.abs(f.g - g_jet).max() <= 1e-12
        assert np.abs(f.C - c_jet).max() <= 1e-12


def _names_jets(module):
    return module is not None and any(
        part in ("jets", "jet_oracle") for part in module.split(".")
    )


def test_src_has_one_differentiation_engine():
    # the jet towers are the suite's oracle only: no package module
    # defines them or imports them, and classifying loads none of them
    src = pathlib.Path(finslerlab.__file__).parent
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                assert node.name != "JetScalar", path.name
            elif isinstance(node, ast.Import):
                assert not any(_names_jets(a.name) for a in node.names), path.name
            elif isinstance(node, ast.ImportFrom):
                assert not _names_jets(node.module), path.name
                assert not any(_names_jets(a.name) for a in node.names), path.name
    probe = (
        "import sys, finslerlab\n"
        "from finslerlab.catalog import get_example\n"
        "e = get_example('euclidean')\n"
        "finslerlab.classify_metric(e.metric, e.volume, finslerlab.SamplePlan(count=2))\n"
        "print([m for m in sys.modules if 'jet' in m.rsplit('.', 1)[-1]])\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=str(src.parent)),
    )
    assert out.stdout.strip() == "[]"


def test_closed_and_quadrature_volumes_give_same_s():
    entry = get_example("randers_osaka")
    x, y = (0.1, 0.2, 0.0), (0.55, -0.4, 0.65)
    f_closed = Frame(entry.metric, entry.volume, x, y)
    f_quad = Frame(entry.metric, bh_quadrature_volume(entry.metric), x, y)
    assert f_quad.S == pytest.approx(f_closed.S, abs=1e-8)


def test_constant_dsl_density_matches_constant_volume():
    metric = get_example("randers_osaka").metric
    x, y = (0.1, 0.2, 0.0), (0.55, -0.4, 0.65)
    f_dsl = Frame(metric, dsl_volume("2", 3), x, y)
    f_const = Frame(metric, constant_volume(2.0), x, y)
    assert f_dsl.S == f_const.S
    assert f_dsl.tau == f_const.tau


def test_dsl_domain_failure_is_regularity_error():
    # a DSL F whose own ln fails names the state, as every other domain
    # failure does (test_classify covers a DSL density); an unbound
    # parameter stays an EvalError, raised where S is first read, as the
    # volume stage runs on its first read
    from finslerlab import expr
    from finslerlab.errors import EvalError
    from finslerlab.metrics import construct_metric
    from finslerlab.volume import VolumeForm

    dsl_f = construct_metric("dsl", 2, F="sqrt(y1^2 + y2^2) * exp(ln(x1))")
    with pytest.raises(RegularityError, match="at offset .* at x="):
        Frame(dsl_f, None, (-0.5, 0.1), (1.0, 0.0))
    euclid = get_example("euclidean").metric
    tree = expr.parse("k * x1 + 2", 3, frozenset({"k"}))
    unbound = VolumeForm(
        kind="dsl",
        label="unbound",
        log_sigma=lambda x: expr.evaluate(tree, x, [0.0] * 3, {}),
    )
    with pytest.raises(EvalError, match="unbound parameter"):
        Frame(euclid, unbound, (0.1, 0.0, 0.0), (1.0, 0.0, 0.0)).S


def test_nonpositive_f_names_the_state():
    # a metric given by F alone (F = y1 at y1 < 0) and a Randers metric
    # (alpha + beta < 0 where |b| > 1): each F^2 evaluator fails before
    # its products, with the message F * F gave
    from finslerlab.curvature import GeometryState
    from finslerlab.metrics import construct_metric

    strong = alpha_beta_metric(
        "strong", 2, lambda x: [[1.0, 0.0], [0.0, 1.0]], lambda x: [2.0 * x[0], 0.0]
    )
    for metric, x, y in (
        (construct_metric("dsl", 2, F="y1"), (0.1, 0.2), (-1.0, 0.5)),
        (strong, (0.9, 0.0), (-1.0, 0.0)),
    ):
        with pytest.raises(RegularityError, match="F <= 0 at x=") as caught:
            GeometryState(metric, None, x, y).frame
        assert str(caught.value) == "F <= 0 at x=%s, y=%s" % (x, y)
        assert caught.value.x == x
        assert caught.value.y == y


@pytest.mark.parametrize("name", list_examples() + ["randers_n4"])
def test_f2_evaluator_matches_f_times_f(name):
    # each family assembles F^2 from its parts (metrics module notes): at
    # these states at most 1.9e-14 of scale from F * F (mkropina_yang).  A
    # Riemannian alpha^2 has no coefficient past y-degree 2, while F * F
    # squares a sqrt and keeps its rounding (2.8e-13 of scale on the
    # sphere; 1.8e-13 off a long-double run, against 7e-16 for alpha^2).
    # A DSL metric's F^2 is compiled from its tree: the quartic norm's is
    # sqrt(E) for F = E^(1/4), 5.9e-15 of scale from F * F here (8.1e-15
    # over the states of seeds 0-39)
    from finslerlab import engine

    metric = (randers_n4() if name == "randers_n4" else get_example(name)).metric
    ring = SeriesRing.get(metric.dimension)
    for x, y in sample_states(metric, SamplePlan(seed=1)).states:
        xs, ys = ring.state(x, y)
        F = metric.F(xs, ys)
        got, want = engine.fsq_series(metric, xs, ys).c, (F * F).c
        bound = 1e-13
        if metric.family == "riemannian":
            assert not got[ring.ydeg > 2].any()
            bound = 5e-13
        scale = max(1.0, float(np.abs(want).max()))
        assert np.abs(got - want).max() <= bound * scale, (x, y)


# DSL metrics whose compiled F^2 is checked against F * F: the quartic
# norm (root E^(1/4)), a Randers-like sum (root +, so F * F of the hoisted
# tree) and, at n=4, sqrt(F1^2 + F2^2) of a 2-D rigid-rotation Randers
# metric F1 and a conformally flat F2 (root sqrt; its quotient by an
# x-only field becomes a product by a reciprocal in the x-only ring)
DSL_METRICS = {
    "quartic2": (2, "(y1^4 + y2^4 + 0.5*(y1^2 + y2^2)^2)^(1/4)"),
    "randers_like": (2, "sqrt(y1^2 + y2^2) + 0.25*x2*y1"),
    "product_n4": (
        4,
        "sqrt(((sqrt((1 - 0.09*(x1^2 + x2^2))*(y1^2 + y2^2)"
        " + (0.3*x1*y2 - 0.3*x2*y1)^2) - (0.3*x1*y2 - 0.3*x2*y1))"
        " / (1 - 0.09*(x1^2 + x2^2)))^2 + exp(0.6*x3^2 + 0.4*x4)*(y3^2 + y4^2))",
    ),
}


def _f2_gap(metric, states):
    """max over the states of |compiled F^2 - F * F| / max(1, |F * F|)."""
    ring = SeriesRing.get(metric.dimension)
    gap = 0.0
    for x, y in states:
        xs, ys = ring.state(x, y)
        F = metric.F(xs, ys)
        got, want = metric.F2(xs, ys), F * F
        assert got.ring is want.ring
        scale = max(1.0, float(np.abs(want.c).max()))
        gap = max(gap, float(np.abs(got.c - want.c).max()) / scale)
    return gap


@pytest.mark.parametrize("name", sorted(DSL_METRICS))
def test_compiled_dsl_f2_matches_f_times_f(name):
    # measured at most 4.5e-15 of scale (product_n4) at these states
    n, source = DSL_METRICS[name]
    metric = construct_metric("dsl", n, F=source, chart_radius=0.5)
    states = sample_states(metric, SamplePlan(count=3, seed=1)).states
    assert _f2_gap(metric, states) <= 1e-13


# positive building blocks of random DSL trees at n=2, and the exponents
# of their powers
POSITIVE_ATOMS = (
    "(1 + 0.3*x1^2)", "exp(0.4*x2 - 0.2*x1)", "(y1^2 + y2^2)",
    "(y1^2 + 0.6*y1*y2 + y2^2)", "(y1^4 + y2^4 + 0.5*(y1^2 + y2^2)^2)",
    "(2 + 0.3*x1*y2)", "(1.5 + 0.2*y1 - 0.1*x2)",
)
POWERS = ("1/2", "1/4", "3/2", "-1/2", "2", "3", "-1", "1/3")


def _positive_trees(depth):
    """DSL text of a positive function of (x, y) near the states below."""
    atom = st.sampled_from(POSITIVE_ATOMS)
    if depth == 0:
        return atom
    sub = _positive_trees(depth - 1)
    return st.one_of(
        atom,
        st.builds("({} + {})".format, sub, sub),
        st.builds("{} * {}".format, sub, sub),
        st.builds("{} / {}".format, sub, sub),
        st.builds("sqrt({})".format, sub),
        st.builds("({})^({})".format, sub, st.sampled_from(POWERS)),
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(source=_positive_trees(3))
def test_compiled_f2_of_random_trees_matches_f_times_f(source):
    # over 1500 such trees at these states the gap was at most 7.8e-13 of
    # scale, for F = (A)^(-1) with A = (Q + Q)^(-1): its F^2 is 1 / (A A),
    # where F * F is (1 / A) (1 / A)
    metric = construct_metric("dsl", 2, F=source)
    states = (((0.2, -0.3), (0.8, 0.5)), ((-0.1, 0.35), (-0.4, 1.1)))
    assert _f2_gap(metric, states) <= 2e-12


@pytest.mark.parametrize(
    "source, y, message",
    [
        ("sqrt(y1^2 - 2*y2^2)", (0.5, 1.0), "sqrt of non-positive value"),
        ("(y1 - 2*y2)^3", (0.5, 1.0), "F <= 0"),
        ("(y1 - 2*y2)^(-1)", (0.5, 1.0), "F <= 0"),
        ("(y1^2 + y2^2)^(3/2) * (y1 - 2*y2)", (0.5, 1.0), "F <= 0"),
    ],
)
def test_compiled_f2_keeps_the_sign_of_f(source, y, message):
    # the squared tree of a negative radicand or of a negative odd power
    # would be positive: F's float value fails first, at the state, as F
    # did before its square
    from finslerlab.curvature import GeometryState

    x = (0.1, 0.2)
    metric = construct_metric("dsl", 2, F=source)
    with pytest.raises(RegularityError, match=message) as caught:
        GeometryState(metric, None, x, y).frame
    assert (caught.value.x, caught.value.y) == (x, y)


def test_non_positive_definite_g_names_the_state():
    # g = [[0, 1], [1, 1]] here: its first leading minor is 0, so the
    # check must come before the sweep that would divide by it
    from finslerlab.curvature import GeometryState
    from finslerlab.metrics import construct_metric

    metric = construct_metric("dsl", 2, F="sqrt(2*y1*y2 + y2^2)")
    state = GeometryState(metric, None, (0.1, 0.2), (1.0, 1.0))
    with pytest.raises(RegularityError, match="positive definite.* at x=") as caught:
        state.frame
    assert caught.value.x == (0.1, 0.2)
    assert caught.value.y == (1.0, 1.0)


def _frame_products(monkeypatch, entry):
    """(stages, budget, ring caps, lanes) of every ring product of one Frame.

    The Frame runs at the first state of SamplePlan(count=1, seed=1), and
    its lazy stages run by reading R, tau, the projective spray's R and
    the Berwald and Douglas cubes; stages are the enclosing metric_series,
    spray_series, graded_solve, ln_det_series and riemann_series calls,
    and Spray.plus_y (the Douglas core and the projective spray).
    lanes is the number of products a batched product stands for (1 when
    unbatched).
    """
    from finslerlab import engine

    stack, counted = [], []
    plain = Series.__mul__

    def mul(a, b):
        out = plain(a, b)
        if isinstance(b, Series):
            caps = (a.ring.cap_x, a.ring.cap_y)
            lanes = out.c.size // out.ring.size
            counted.append((tuple(stack), (out.bx, out.by), caps, lanes))
        return out

    def staged(name, fn):
        def run(*args):
            stack.append(name)
            try:
                return fn(*args)
            finally:
                stack.pop()

        return run

    x, y = sample_states(entry.metric, SamplePlan(count=1, seed=1)).states[0]
    for name in (
        "metric_series", "spray_series", "graded_solve", "ln_det_series",
        "riemann_series",
    ):
        monkeypatch.setattr(engine, name, staged(name, getattr(engine, name)))
    core = engine.Spray.plus_y
    monkeypatch.setattr(engine.Spray, "plus_y", staged("plus_y", core))
    monkeypatch.setattr(Series, "__mul__", mul)
    monkeypatch.setattr(Series, "__rmul__", mul)
    frame = Frame(entry.metric, entry.volume, x, y)
    frame.R, frame.tau, frame.projective.R, frame.B, frame.D
    return counted


@pytest.mark.parametrize("name", ["randers_osaka", "randers_n4"])
def test_stage_budgets(monkeypatch, name):
    # g feeds only the spray and tau, through one x-derivative of F^2,
    # and every reader of R takes it at x-degree 0 and y-order <= 3, so
    # each stage runs its products at that budget, in the stage ring of
    # that budget.  metric_series runs no product, nor does the graded
    # solve.  The spray's braces, Riemann's y^m term and the cores G - S
    # y/(n+1) multiply by y-variables, which are shifts (Series.times_y),
    # so they run no ring product either (the braces ran n batched (1, 6)
    # products of n lanes), and tau's ln det runs one product of n^2
    # lanes (M_il M_li) in the (1, 1) ring, all that tau reads
    from finslerlab import engine

    entry = randers_n4() if name == "randers_n4" else get_example(name)
    n = entry.metric.dimension
    cores = []
    core = engine.Spray.plus_y
    monkeypatch.setattr(
        engine.Spray, "plus_y", lambda self, *args: cores.append(args) or core(self, *args)
    )
    counted = _frame_products(monkeypatch, entry)

    def budgets(stage):
        return {budget for stages, budget, _, _ in counted if stage in stages}

    def rings(stage):
        return {caps for stages, _, caps, _ in counted if stage in stages}

    def lanes(stage, caps):
        return [k for stages, _, c, k in counted if stage in stages and c == caps]

    assert budgets("metric_series") == set()
    assert budgets("graded_solve") == set()
    assert budgets("spray_series") == set()
    assert budgets("plus_y") == set()
    assert len(cores) == 2  # the Douglas core and the projective spray ran
    assert budgets("ln_det_series") == rings("ln_det_series") == {(1, 1)}
    assert budgets("riemann_series") == rings("riemann_series") == {(0, 3)}
    assert lanes("ln_det_series", (1, 1)) == [n * n]
    # two calls, 2 n^3 products each, as one product of 2 n^3 lanes (it
    # ran 3 n batched products of n^2 lanes, then one of 3 n^3 lanes)
    in_riemann = [k for stages, _, _, k in counted if "riemann_series" in stages]
    assert in_riemann == [2 * n**3] * 2


def _full_budget_products(monkeypatch, name):
    # only the Frame's (2, 8) ring: a stage ring's products all run at
    # its caps, and none of them is a full-budget product
    counted = _frame_products(monkeypatch, get_example(name))
    return sum(
        lanes for _, budget, caps, lanes in counted if budget == caps == (2, 8)
    )


@pytest.mark.parametrize(
    "name, most",
    [("randers_osaka", 34), ("mkropina_yang", 65), ("riemannian_sphere", 26)],
)
def test_full_budget_products_per_frame(monkeypatch, name, most):
    # a(x), b(x) and ln sigma run in the x-only ring, and alpha^2 and beta
    # are placed from their coefficients (metrics module notes), so only
    # the work where y enters beyond them multiplies at the full (2, 8)
    # budget: one product for osaka (beta (2 alpha + beta)) and mkropina
    # (its two powers), none for the sphere, whose F^2 is alpha^2 (osaka
    # made 334 such products, mkropina 182 and the sphere 118 before the
    # x-only ring; 21, 22 and 12 before the placement)
    count = _full_budget_products(monkeypatch, name)
    assert count == 0 if name == "riemannian_sphere" else 0 < count <= most


@pytest.mark.parametrize(
    "name, most",
    [("randers_osaka", 21), ("riemannian_sphere", 13), ("randers_baoshen", 22),
     ("euclidean", 10), ("mkropina_yang", 35)],
)
def test_graded_sqrt_runs_no_full_budget_products(monkeypatch, name, most):
    # sqrt reads its level table instead of Newton's 13 (2, 8) products
    # (osaka made 34, the sphere 26, baoshen 35 and euclidean 23); no sqrt
    # runs for mkropina, whose powr goes through ln and exp, nor for a
    # Riemannian metric, whose F^2 is alpha^2, which runs no product
    count = _full_budget_products(monkeypatch, name)
    riemannian = name in ("riemannian_sphere", "euclidean")
    assert count == 0 if riemannian else 0 < count <= most


# the graded operations a Frame of each entry runs: the spray's solve
# runs none, mkropina's and osaka's coefficient fields take reciprocals
# in the x-only stage ring, and the quartic norm's F^2 is sqrt(E) for F =
# E^(1/4), in the (0, 8) stage ring
GRADED_RUN = {
    "mkropina_yang": {"reciprocal", "ln", "exp"},
    "minkowski_quartic": {"sqrt"},
    "randers_osaka": {"reciprocal", "sqrt", "ln"},
}


@pytest.mark.parametrize("name", sorted(GRADED_RUN))
def test_graded_operations_run_no_products(monkeypatch, name):
    # reciprocal, sqrt, ln and exp read the level table, where Newton
    # and the Horner loops ran ring products
    entry = get_example(name)
    x, y = sample_states(entry.metric, SamplePlan(count=1, seed=1)).states[0]
    inside, calls, products = [], [], []

    def graded(op, fn):
        def run(self):
            calls.append(op)
            inside.append(op)
            try:
                return fn(self)
            finally:
                inside.pop()

        return run

    plain = Series.__mul__

    def mul(a, b):
        if inside:
            products.append(tuple(inside))
        return plain(a, b)

    for op in ("reciprocal", "sqrt", "ln", "exp"):
        monkeypatch.setattr(Series, op, graded(op, Series.__dict__[op]))
    monkeypatch.setattr(Series, "__mul__", mul)
    monkeypatch.setattr(Series, "__rmul__", mul)
    frame = Frame(entry.metric, entry.volume, x, y)
    frame.R, frame.projective.R, frame.B, frame.D
    assert set(calls) == GRADED_RUN[name]
    assert products == []


def test_one_kind_work_runs_in_stage_rings_of_the_root(monkeypatch):
    # every x-only ring (cap_y = 0) that a Frame's products and graded
    # operations run in is a stage ring of the Frame's (2, 8) root: a
    # Randers entry's coefficient fields and closed-form density, and a DSL
    # metric's hoisted subtrees of x; the DSL's subtree of y runs in the
    # (0, 8) stage.  SeriesRing.get caches rings, so the rings themselves
    # are recorded, not their constructions
    ran = []
    for op in ("__mul__", "reciprocal", "sqrt", "ln", "exp"):
        def record(self, *args, plain=Series.__dict__[op]):
            ran.append(self.ring)
            return plain(self, *args)

        monkeypatch.setattr(Series, op, record)
    root = SeriesRing.get(3)
    osaka = get_example("randers_osaka")
    dsl = construct_metric(
        "dsl", 3, F="sqrt(y1^2 + y2^2 + y3^2) * exp(x1) / (1 + x2^2) + 0.1*x3*y1"
    )
    for metric, volume in ((osaka.metric, osaka.volume), (dsl, None)):
        ran.clear()
        Frame(metric, volume, *STATE)
        x_only = {ring for ring in ran if ring.cap_y == 0}
        assert x_only and all(ring.root is root for ring in x_only)
    assert root.stage(0, 8) in ran


def test_frames_sum_over_y_by_shifts_alone(monkeypatch):
    # every sum over y of a Frame and of the point tensors (alpha^2 and
    # beta, the spray's braces) runs through Series.times_y: the forms'
    # loop, the only route that calls series._of_x, is never taken
    from finslerlab import series
    from finslerlab.metrics import cartan_torsion, fundamental_tensor

    entries = [get_example(name) for name in list_examples()] + [randers_n4()]
    states = [sample_states(e.metric, SamplePlan(count=2)).states for e in entries]

    def refuse(b, y):
        raise AssertionError("a form took the loop")

    monkeypatch.setattr(series, "_of_x", refuse)
    for entry, batch in zip(entries, states):
        for x, y in batch:
            Frame(entry.metric, entry.volume, x, y)
            fundamental_tensor(entry.metric, (x, y))
            cartan_torsion(entry.metric, (x, y))


def test_one_ring_per_dimension(monkeypatch):
    # every ring that classify, the quadrature volume, the point tensors,
    # the tests' generic horizontal derivative and an n=4 Frame build is
    # the one root of its dimension, of caps ROOT_CAPS, or a stage of it
    from finslerlab.classify import classify_metric
    from finslerlab.curvature import GeometryState
    from finslerlab.metrics import cartan_torsion, fundamental_tensor

    built = []
    plain = SeriesRing.__init__

    def init(ring, *args):
        built.append(ring)
        plain(ring, *args)

    monkeypatch.setattr(SeriesRing, "__init__", init)
    monkeypatch.setattr(SeriesRing, "_instances", {})
    for name in list_examples():
        entry = get_example(name)
        classify_metric(entry.metric, entry.volume, SamplePlan(count=2))
    osaka = get_example("randers_osaka").metric
    state = GeometryState(osaka, bh_quadrature_volume(osaka), *STATE)
    state.frame
    fundamental_tensor(osaka, STATE)
    cartan_torsion(osaka, STATE)
    horizontal_derivative(lambda x, y: x[0] * y[1], state)
    n4 = randers_n4()
    Frame(n4.metric, n4.volume, (0.1, -0.05, 0.08, 0.02), (0.6, -0.3, 0.5, 0.2))
    assert set(SeriesRing._instances) == {3, 4}
    for root in SeriesRing._instances.values():
        assert (root.cap_x, root.cap_y, root.cap_d) == ROOT_CAPS
    for ring in built:
        assert ring.root is SeriesRing.get(ring.n), (ring.n, ring.cap_x, ring.cap_y)


def test_only_the_series_module_makes_rings():
    # every other module takes its rings as SeriesRing.get(n) and its
    # stages, never a ring of its own caps
    package = pathlib.Path(finslerlab.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name == "series.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = ast.unparse(node.func)
            assert func != "SeriesRing", "%s builds a ring" % path.name
            if func == "SeriesRing.get":
                assert len(node.args) == 1 and not node.keywords, (
                    "%s passes caps to SeriesRing.get" % path.name
                )


def test_quadrature_gathers_the_table_in_two_products(monkeypatch):
    # the directions enter F as batches of constants, so a_ij(x) y_i y_j
    # and b_i y_i scale instead of gathering the table; only F * F and
    # F^2 * F in powr(F, -3) gather it, over every lane of the rule
    metric = get_example("randers_osaka").metric
    rule = choose_rule(metric)
    ring = SeriesRing.get(3).stage(2, 0)
    xs = [ring.variable_x(i, v) for i, v in enumerate([0.1, -0.2, 0.15])]
    batched, gathered = [], []
    plain, bins = Series.__mul__, SeriesRing.lane_bins

    def mul(a, b):
        if isinstance(b, Series) and max(a.c.ndim, b.c.ndim) > 1:
            batched.append(1)
        return plain(a, b)

    def lane_bins(self, count, d=None):
        if d is None:  # the product table's, not a level's
            gathered.append(count)
        return bins(self, count, d)

    monkeypatch.setattr(Series, "__mul__", mul)
    monkeypatch.setattr(Series, "__rmul__", mul)
    monkeypatch.setattr(SeriesRing, "lane_bins", lane_bins)
    bh_sigma_quadrature(metric, xs, nodes=rule.nodes)
    assert len(batched) == 22
    assert gathered == [rule.directions] * 2


def _full_ring_riemann(G, ys, by):
    """R^i_k of a spray G (lanes [i]) as n x n Series of the ring of G:
    the written formula component by component, each product at (0, by)."""
    G = [G.part(i) for i in range(len(G.c))]
    n = len(G)
    Gdx = [[derivative(G[i], "x", m) for m in range(n)] for i in range(n)]
    Gdy = [[derivative(G[i], "y", m) for m in range(n)] for i in range(n)]
    low = G[0].ring.stage(0, by)
    y_low = [restrict(v, low) for v in ys]
    G2_low = [restrict(g * 2.0, low) for g in G]
    Gdy_low = [[restrict(d, low) for d in row] for row in Gdy]
    R = [[None] * n for _ in range(n)]
    for i in range(n):
        for k in range(n):
            acc = Gdx[i][k] * 2.0
            for m in range(n):
                acc = acc - derivative(Gdx[i][m], "y", k) * y_low[m]
                acc = acc + derivative(Gdy[i][m], "y", k) * G2_low[m]
                acc = acc - Gdy[i][m] * Gdy_low[m][k]
            R[i][k] = acc
    return R


def _riemann_arrays(R, by):
    """The value and fiber partials up to order by, each indexed [i, k, ...]."""
    return [
        np.array([[r.partials(0, order) for r in row] for row in R])
        for order in range(by + 1)
    ]


@pytest.mark.parametrize("name", ["randers_osaka", "mkropina_yang", "randers_n4"])
def test_stage_riemann_equals_full_ring_formula(monkeypatch, name):
    # every riemann_series call of a Frame (the spray's and the projective
    # spray's, by = 3) and of lemma21_residual (by = 0) gives exactly the
    # component-wise full-ring formula's R, R_y, R_yy and R_y3
    from finslerlab import engine

    entry = randers_n4() if name == "randers_n4" else get_example(name)
    x, y = sample_states(entry.metric, SamplePlan(count=1, seed=1)).states[0]
    calls = []
    plain = engine.riemann_series

    def recorded(G, ys, by):
        out = plain(G, ys, by)
        calls.append((G, ys, by, out))
        return out

    monkeypatch.setattr(engine, "riemann_series", recorded)
    frame = Frame(entry.metric, entry.volume, x, y)
    frame.R, frame.projective.R
    p_func = lambda xs, ys: (0.1 + 0.3 * xs[1]) * ys[0] + 0.05 * ys[-1]  # noqa: E731
    lemma21_residual(frame, p_func)
    assert [by for _, _, by, _ in calls] == [3, 3, 0]
    for G, ys, by, out in calls:
        n = len(G.c)
        assert out.c.shape[:2] == (n, n)
        want = _riemann_arrays(_full_ring_riemann(G, ys, by), by)
        got = [out.partials(0, order) for order in range(by + 1)]
        for order, (g, w) in enumerate(zip(got, want)):
            assert np.array_equal(g, w), (name, by, order)
    ys, G = frame.ys, frame.series
    spray_R = _riemann_arrays(_full_ring_riemann(G, ys, 3), 3)
    for field, want in zip(("R", "R_y", "R_yy", "R_y3"), spray_R):
        assert np.array_equal(getattr(frame, field), want), field
