"""Public curvature operations: contract examples and invariants."""

import numpy as np
import pytest

from finslerlab.catalog import get_example
from finslerlab.curvature import (
    GeometryState,
    berwald_curvature,
    connections,
    distortion,
    douglas_tensor,
    gdw_residual,
    mean_berwald,
    residual_scale,
    riemann,
    riemann_full,
    s_curvature,
    spray,
    tensor,
)
from finslerlab.engine import VARIANCE
from finslerlab.metrics import construct_metric
from finslerlab.projective import identity_residual
from finslerlab.scalars import ring_inv
from finslerlab.volume import bh_quadrature_volume, constant_volume

from support import (
    distortion_flow_derivative,
    douglas_from_mean_berwald,
    horizontal_derivative,
    ricci_identity_sides,
)

X3, Y3 = (0.12, -0.2, 0.15), (0.6, -0.35, 0.72)


def entry_state(name, x=X3, y=Y3, **overrides):
    entry = get_example(name, **overrides)
    return GeometryState(entry.metric, entry.volume, x, y)


def test_variance_table_matches_frame_ranks():
    st = entry_state("randers_osaka")
    for name, variance in VARIANCE.items():
        assert getattr(st.frame, name).ndim == len(variance), name
        assert tensor(st, name).variance == variance


@pytest.mark.parametrize(
    "accessor",
    [riemann, douglas_tensor, lambda st: identity_residual("master", st)],
    ids=["riemann", "douglas_tensor", "master"],
)
def test_accessors_return_copies(accessor):
    st, fresh = entry_state("randers_osaka"), entry_state("randers_osaka")
    before = accessor(st).components.copy()
    assert np.abs(before).max() > 0.0
    accessor(st).components[...] = 0.0
    assert np.array_equal(accessor(st).components, before)
    # the GDW and Dbar properties read the Frame's own D
    for name in ("D_h0", "Dbar"):
        assert np.array_equal(
            tensor(st, name).components, tensor(fresh, name).components
        )


def test_euclidean_curvatures_vanish():
    st = entry_state("euclidean")
    assert np.abs(spray(st).components).max() == 0.0
    N, Gam = connections(st)
    assert np.abs(N.components).max() == 0.0
    assert np.abs(Gam.components).max() == 0.0
    assert np.abs(riemann(st).components).max() == 0.0
    assert s_curvature(st) == 0.0
    assert distortion(st) == pytest.approx(0.0, abs=1e-14)


def test_constant_riemannian_has_zero_connection():
    m = construct_metric(
        "riemannian", 2, a=[["4", "0"], ["0", "9"]], name="diag49"
    )
    st = GeometryState(m, constant_volume(6.0), (0.3, -0.1), (0.5, 0.2))
    N, Gam = connections(st)
    assert np.abs(N.components).max() == 0.0
    assert np.abs(Gam.components).max() == 0.0


def test_conformal_spray_matches_christoffel_formula():
    # for exp(2*x1) * delta the Christoffel route is elementary:
    # G^i = y^i (y.grad) - |y|^2 grad^i / 2 with grad = (1,0,0)
    st = entry_state("riemannian_conformal")
    y = np.array(st.y)
    grad = np.array([1.0, 0.0, 0.0])
    expected = y * float(y @ grad) - 0.5 * float(y @ y) * grad
    assert np.abs(spray(st).components - expected).max() <= 1e-8


def test_spray_homogeneity_on_humo():
    e = get_example("randers_humo")
    st1 = GeometryState(e.metric, e.volume, X3, Y3)
    st2 = GeometryState(e.metric, e.volume, X3, tuple(2 * v for v in Y3))
    assert np.abs(
        spray(st2).components - 4.0 * spray(st1).components
    ).max() <= 1e-10 * max(1.0, np.abs(spray(st1).components).max())


def test_euler_identity_connections():
    for name in ("randers_osaka", "randers_baoshen", "mkropina_yang"):
        x, y = X3, Y3
        if name == "mkropina_yang":
            y = (0.9, 0.2, 0.1)  # inside the half-cone
        st = entry_state(name, x=x, y=y)
        N, Gam = connections(st)
        yv = np.array(st.y)
        assert np.abs(
            np.einsum("ijk,k->ij", Gam.components, yv) - N.components
        ).max() <= 1e-10
        assert np.abs(N.components @ yv - 2.0 * spray(st).components).max() <= 1e-10


def test_riemann_trace_against_y_vanishes():
    st = entry_state("randers_baoshen")
    yv = np.array(st.y)
    assert np.abs(riemann(st).components @ yv).max() <= 1e-12


def test_riemann_full_structure():
    st = entry_state("randers_baoshen")
    Rkl, Rfull = riemann_full(st)
    assert np.abs(
        Rkl.components + np.transpose(Rkl.components, (0, 2, 1))
    ).max() <= 1e-13
    contracted = np.einsum("jikl,j->ikl", Rfull.components, st.y)
    assert np.abs(contracted - Rkl.components).max() <= 1e-12


def test_round_sphere_curvature_in_two_dimensions():
    st = entry_state("riemannian_sphere", x=(0.2, -0.1), y=(0.7, 0.4), n=2)
    f2 = float(
        get_example("riemannian_sphere", n=2).metric.F([0.2, -0.1], [0.7, 0.4])
    ) ** 2
    yv = np.array(st.y)
    g = st.frame.g
    expected = f2 * np.eye(2) - np.outer(yv, g @ yv)
    assert np.abs(riemann(st).components - expected).max() <= 1e-7


def test_berwald_symmetry_and_contraction():
    st = entry_state("randers_osaka")
    B = berwald_curvature(st).components
    assert np.abs(B - np.transpose(B, (2, 1, 0, 3))).max() <= 1e-13
    assert np.abs(B - np.transpose(B, (0, 1, 3, 2))).max() <= 1e-13
    assert np.abs(np.einsum("jikm,m->jik", B, st.y)).max() <= 1e-9 * residual_scale(st)


def test_riemannian_berwald_curvature_vanishes():
    st = entry_state("riemannian_conformal")
    assert np.abs(berwald_curvature(st).components).max() <= 1e-13
    assert np.abs(douglas_tensor(st).components).max() <= 1e-13


def test_mean_berwald_vanishes_for_humo():
    st = entry_state("randers_humo")
    assert np.abs(mean_berwald(st).components).max() <= 1e-8


def test_douglas_two_routes_agree():
    for name in ("randers_osaka", "randers_humo", "randers_baoshen"):
        st = entry_state(name)
        gap = np.abs(
            douglas_tensor(st).components
            - douglas_from_mean_berwald(st.frame)
        ).max()
        assert gap <= 1e-9 * residual_scale(st)


def test_douglas_trace_free():
    st = entry_state("randers_osaka")
    D = douglas_tensor(st).components
    assert np.abs(np.einsum("jmkm->jk", D)).max() <= 1e-12
    assert np.abs(np.einsum("jikm,m->jik", D, st.y)).max() <= 1e-12


def test_mkropina_is_douglas():
    st = entry_state("mkropina_yang", y=(0.9, 0.2, 0.1))
    assert np.abs(douglas_tensor(st).components).max() <= 1e-7 * residual_scale(st)


def test_douglas_tensor_ignores_volume_form():
    e = get_example("randers_osaka")
    st_bh = GeometryState(e.metric, e.volume, X3, Y3)
    st_const = GeometryState(e.metric, constant_volume(2.5), X3, Y3)
    assert np.abs(
        douglas_tensor(st_bh).components - douglas_tensor(st_const).components
    ).max() <= 1e-12


def test_distortion_flow_matches_s_curvature():
    for name, vol in (
        ("randers_osaka", None),
        ("riemannian_conformal", None),
    ):
        entry = get_example(name)
        st = GeometryState(entry.metric, vol or entry.volume, X3, Y3)
        assert abs(
            distortion_flow_derivative(st.frame) - s_curvature(st)
        ) <= 1e-7 * max(1.0, abs(s_curvature(st)))


def test_riemannian_distortion_vanishes():
    # sigma = sqrt(det a) makes tau identically zero for quadratic norms
    st = entry_state("riemannian_sphere")
    assert distortion(st) == pytest.approx(0.0, abs=1e-12)


def test_dbar_antisymmetry_and_gdw_consistency():
    st = entry_state("randers_baoshen")
    Dbar = tensor(st, "Dbar").components
    assert np.abs(Dbar + np.transpose(Dbar, (0, 1, 2, 4, 3))).max() <= 1e-13
    contracted = np.einsum("jiklm,m->jikl", Dbar, st.y)
    # contracting the last slot with y splits into the flow derivative
    # minus the term where y hits the inner derivative slot
    second = np.einsum("jikml,m->jikl", st.frame.D_h, st.y)
    assert np.abs(
        contracted - (tensor(st, "D_h0").components - second)
    ).max() <= 1e-9 * residual_scale(st)


def test_gdw_of_douglas_metric_is_zero():
    st = entry_state("mkropina_yang", y=(0.9, 0.2, 0.1))
    hP, T = gdw_residual(st)
    assert np.abs(tensor(st, "D_h0").components).max() <= 1e-7
    assert np.abs(hP.components).max() <= 1e-7
    assert np.abs(T).max() <= 1e-7


def test_gdw_humo_flow_derivative_vanishes():
    st = entry_state("randers_humo")
    assert np.abs(tensor(st, "D_h0").components).max() <= 1e-7 * residual_scale(st)


def test_horizontal_derivative_of_metric_function_vanishes():
    for name in ("randers_osaka", "randers_baoshen", "riemannian_sphere"):
        entry = get_example(name)
        st = GeometryState(entry.metric, entry.volume, X3, Y3)
        Fh = horizontal_derivative(
            lambda xs, ys, m=entry.metric: m.F(xs, ys), st
        )
        assert np.abs(Fh.components).max() <= 1e-9


def test_horizontal_derivative_of_fiber_coordinate_vanishes():
    st = entry_state("randers_osaka")
    yh = horizontal_derivative(
        lambda xs, ys: list(ys), st, variance=("upper",)
    )
    assert np.abs(yh.components).max() <= 1e-10


def rank_two_fields(metric):
    """a_ij, a^ij and y^i a_jk y^k with their variances: parallel for the
    Levi-Civita connection of a, so they vanish on a Riemannian metric."""
    n = metric.dimension

    def mixed(xs, ys):
        a = metric.a_fn(xs)
        low = [sum(a[j][k] * ys[k] for k in range(n)) for j in range(n)]
        return [[ys[i] * low[j] for j in range(n)] for i in range(n)]

    return (
        (lambda xs, ys: metric.a_fn(xs), ("lower", "lower")),
        (lambda xs, ys: ring_inv(metric.a_fn(xs))[1], ("upper", "upper")),
        (mixed, ("upper", "lower")),
    )


def test_horizontal_derivative_of_rank_two_fields():
    for name in ("riemannian_conformal", "riemannian_sphere"):
        st = entry_state(name)
        for field, variance in rank_two_fields(st.metric):
            h = horizontal_derivative(field, st, variance)
            assert h.variance == variance + ("lower",)
            assert np.abs(h.components).max() <= 1e-12, (name, variance)
    # negative control: a Randers metric's Berwald connection is not the
    # Levi-Civita connection of its a
    st = entry_state("randers_osaka")
    for field, variance in rank_two_fields(st.metric):
        h = horizontal_derivative(field, st, variance)
        assert np.abs(h.components).max() > 0.1, variance


def test_horizontal_derivative_variance_mismatch():
    st = entry_state("euclidean")
    with pytest.raises(ValueError):
        horizontal_derivative(lambda xs, ys: list(ys), st, variance=())


def test_douglas_contracted_horizontal_derivative():
    # D_j^i_{km|l} y^m = 0 pointwise (from D.y = 0 and y_{|l} = 0)
    st = entry_state("randers_osaka")
    mixed = np.einsum("jikml,m->jikl", st.frame.D_h, st.y)
    assert np.abs(mixed).max() <= 1e-8 * residual_scale(st)


def test_ricci_identity_on_flat_curvature_examples():
    # with R = 0 both routes of the commutator identity must vanish
    for name in ("randers_osaka", "randers_humo", "riemannian_sphere"):
        entry = get_example(name)
        st = GeometryState(entry.metric, entry.volume, X3, Y3)
        commutator, rhs = ricci_identity_sides(st.frame)
        assert np.abs(commutator - rhs).max() <= 1e-6 * residual_scale(st)


def test_homogeneity_ladder_at_operation_level():
    e = get_example("randers_osaka")
    st1 = GeometryState(e.metric, e.volume, X3, Y3)
    st2 = GeometryState(e.metric, e.volume, X3, tuple(2 * v for v in Y3))
    rel = lambda a, b: np.abs(a - b).max() / max(1.0, np.abs(b).max())
    assert rel(spray(st2).components, 4.0 * spray(st1).components) <= 1e-9
    assert rel(riemann(st2).components, 4.0 * riemann(st1).components) <= 1e-9
    assert rel(
        berwald_curvature(st2).components,
        0.5 * berwald_curvature(st1).components,
    ) <= 1e-9
    assert rel(
        douglas_tensor(st2).components, 0.5 * douglas_tensor(st1).components
    ) <= 1e-9


def test_quadrature_volume_state_is_usable():
    e = get_example("randers_humo")
    st = GeometryState(e.metric, bh_quadrature_volume(e.metric), X3, Y3)
    assert abs(s_curvature(st)) <= 1e-6
