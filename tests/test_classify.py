"""Sampling determinism, tolerance policy, and classification verdicts."""

import json

import numpy as np
import pytest

from finslerlab import classify as classify_module
from finslerlab import errors
from finslerlab.catalog import get_example, list_examples
from finslerlab.classify import (
    PREDICATES,
    SamplePlan,
    Tolerances,
    _frame_residuals,
    classify_metric,
    relative_condition,
    rounding_floor,
    sample_states,
)
from finslerlab.curvature import GeometryState
from finslerlab.errors import ConfigError, SamplingError
from finslerlab.metrics import (
    TensorValue,
    cartan_torsion,
    construct_metric,
    fundamental_tensor,
)
from finslerlab.scalars import value_of
from finslerlab.volume import VolumeForm, bh_quadrature_volume, dsl_volume

from support import oracle_fsq_partials


def test_plan_defaults():
    plan = SamplePlan()
    assert plan.count == 20
    assert plan.seed == 20250405
    assert plan.x_radius == 0.4


@pytest.mark.parametrize(
    "kwargs",
    [{"count": 0}, {"x_radius": -0.1}, {"count": 2.5}, {"count": True},
     {"seed": -1}, {"seed": 1.0}, {"seed": False}, {"x_radius": float("inf")},
     {"x_radius": float("nan")}],
)
def test_plan_validation(kwargs):
    with pytest.raises(ConfigError):
        SamplePlan(**kwargs)


def test_euclidean_sampling_has_no_rejections():
    e = get_example("euclidean")
    batch = sample_states(e.metric, SamplePlan(count=5, seed=42))
    assert len(batch.states) == 5
    assert batch.rejections == 0


def test_sampling_is_deterministic():
    e = get_example("randers_osaka")
    b1 = sample_states(e.metric, SamplePlan(count=8, seed=7))
    b2 = sample_states(e.metric, SamplePlan(count=8, seed=7))
    assert b1.states == b2.states


def test_conic_sampling_respects_cone():
    e = get_example("mkropina_yang")
    batch = sample_states(e.metric, SamplePlan(count=10, seed=3))
    for x, y in batch.states:
        assert e.metric.cone_domain(list(x), list(y))


def test_unit_f_normalization():
    e = get_example("randers_humo")
    batch = sample_states(e.metric, SamplePlan(count=6, seed=11))
    for x, y in batch.states:
        assert value_of(e.metric.F(list(x), list(y))) == pytest.approx(
            1.0, abs=1e-12
        )


def test_hopeless_chart_raises_sampling_error():
    m = construct_metric(
        "riemannian",
        3,
        a=[["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        chart_radius=1e-9,
        name="pinhole",
    )
    with pytest.raises(SamplingError) as err:
        sample_states(m, SamplePlan(count=5, seed=1))
    assert "chart_domain" in str(err.value)


def test_classify_euclidean_all_hold():
    e = get_example("euclidean")
    report = classify_metric(e.metric, e.volume, SamplePlan(count=5))
    assert set(report.predicates) == set(PREDICATES)
    for name in PREDICATES:
        assert report.verdict(name) == "holds", name
    assert report.hierarchy_violations == ()


def test_classify_osaka_profile():
    e = get_example("randers_osaka")
    report = classify_metric(e.metric, e.volume, SamplePlan(count=6))
    expected = {
        "riemannian": "fails",
        "berwald": "fails",
        "douglas": "fails",
        "dbar": "holds",
        "gdw": "holds",
        "r_quadratic": "holds",
        "pr_quadratic": "holds",
        "s_flat": "holds",
    }
    for name, verdict in expected.items():
        assert report.verdict(name) == verdict, name


def test_classify_baoshen_profile():
    e = get_example("randers_baoshen")
    report = classify_metric(e.metric, e.volume, SamplePlan(count=6))
    expected = {
        "gdw": "holds",
        "dbar": "fails",
        "pr_quadratic": "fails",
        "douglas": "fails",
        "s_flat": "holds",
        "constant_flag": "holds",
    }
    for name, verdict in expected.items():
        assert report.verdict(name) == verdict, name
    cf = report.predicates["constant_flag"]
    assert cf.details["lambda_hat"] == pytest.approx(1.0, abs=1e-3)
    assert cf.details["lambda_spread"] <= 1e-4


def test_classify_matches_catalog_tables():
    for name in list_examples():
        e = get_example(name)
        report = classify_metric(e.metric, e.volume, SamplePlan(count=4))
        for pred, expect in e.expected_verdicts.items():
            want = "holds" if expect else "fails"
            assert report.verdict(pred) == want, (name, pred)
        assert report.hierarchy_violations == (), name


def test_monotonicity_under_refinement():
    e = get_example("randers_osaka")
    small = classify_metric(e.metric, e.volume, SamplePlan(count=5, seed=99))
    large = classify_metric(e.metric, e.volume, SamplePlan(count=10, seed=99))
    for name in PREDICATES:
        if large.verdict(name) == "holds":
            assert small.verdict(name) == "holds", name


def test_errored_state_yields_indeterminate():
    e = get_example("euclidean")
    # a volume density with a half-space domain hole errors during
    # evaluation at sampled states the plain metric accepts
    broken = dsl_volume("ln(x1)", 3)
    report = classify_metric(e.metric, broken, SamplePlan(count=5, seed=2))
    assert report.errored_states > 0
    for name in PREDICATES:
        assert report.verdict(name) == "indeterminate", name
    # each errored state is on record with its cause
    states = sample_states(e.metric, SamplePlan(count=5, seed=2)).states
    assert report.errors
    for err in report.errors:
        assert issubclass(getattr(errors, err.error), errors.FinslerError)
        assert "ln" in err.message
        assert err.state in states
    # ln(x1) <= 0 and x1 <= 0 (ln failing inside the DSL) are one cause:
    # both report a RegularityError that names the state
    assert len(report.errors) == 5
    for err in report.errors:
        assert err.error == "RegularityError"
        assert "at x=" in err.message
    blob = json.loads(json.dumps(report.as_dict()))
    assert blob["errored_states"] == len(blob["errors"])
    assert blob["errors"][0] == report.errors[0].as_dict()


def test_overflowing_density_errors_at_the_state():
    # exp(5000 x1) overflows where x1 > 0.142 and underflows to 0 where
    # x1 < -0.149, so its ln fails: both are errored states that name
    # the state, not an OverflowError out of classify
    e = get_example("euclidean")
    plan = SamplePlan(count=5, seed=2)
    report = classify_metric(e.metric, dsl_volume("exp(5000*x1)", 3), plan)
    assert report.errored_states > 0
    messages = [err.message for err in report.errors]
    assert any("exp of value part" in m and "overflows" in m for m in messages)
    for err in report.errors:
        assert err.error == "RegularityError"
        assert "at x=" in err.message


def test_bug_in_volume_is_not_indeterminate():
    # only package errors make a state "errored"; a programming error
    # in the volume surfaces instead of becoming an indeterminate verdict
    def sigma(x):
        raise TypeError("broken density")

    e = get_example("euclidean")
    broken = VolumeForm(kind="dsl", label="broken", sigma=sigma)
    with pytest.raises(TypeError, match="broken density"):
        classify_metric(e.metric, broken, SamplePlan(count=2, seed=2))


def test_config_error_in_volume_is_not_an_errored_state():
    # a ConfigError is the run's configuration, not one state's: it
    # propagates from classify_metric as it does from verify
    def sigma(x):
        raise ConfigError("unusable density")

    e = get_example("euclidean")
    broken = VolumeForm(kind="dsl", label="broken", sigma=sigma)
    with pytest.raises(ConfigError, match="unusable density"):
        classify_metric(e.metric, broken, SamplePlan(count=2, seed=2))


def test_report_serializes_to_json():
    e = get_example("riemannian_sphere")
    report = classify_metric(e.metric, e.volume, SamplePlan(count=4))
    payload = report.as_dict()
    blob = json.loads(json.dumps(payload))
    assert blob["metric"] == "riemannian_sphere"
    assert len(blob["predicates"]) == len(PREDICATES)
    assert blob["plan"]["count"] == 4
    assert blob["version"] == report.version
    assert blob["rejection_reasons"] == report.rejection_reasons
    assert blob["errors"] == []
    for entry in blob["predicates"]:
        assert {"name", "verdict", "max_residual", "scale"} <= set(entry)


def test_tolerance_bound_formula():
    tol = Tolerances(rel=1e-6, absolute=1e-9)
    assert tol.bound(2.0) == pytest.approx(1e-9 + 2e-6)
    loose = Tolerances(rel=10.0, absolute=10.0)
    e = get_example("randers_osaka")
    report = classify_metric(e.metric, e.volume, SamplePlan(count=4), loose)
    # with absurd tolerances everything collapses to "holds"
    for name in PREDICATES:
        assert report.verdict(name) == "holds", name


def test_x_independent_quadrature_density_classifies():
    # F does not depend on x, so the quadrature density is a float
    entry = get_example("minkowski_quartic")
    volume = bh_quadrature_volume(entry.metric)
    report = classify_metric(entry.metric, volume, SamplePlan(count=3))
    assert report.errored_states == 0
    for name, expected in entry.expected_verdicts.items():
        assert report.verdict(name) == ("holds" if expected else "fails"), name


# -- the rounding floor ------------------------------------------------------

BERWALD_IMPLIED = [
    name for name, holds in get_example("mkropina_yang").expected_verdicts.items()
    if holds
]


def test_rounding_floor_bounds_berwald_residuals():
    # mkropina_yang is Berwald, so every residual of a predicate Berwald
    # implies is rounding.  Seeds 40-42 were not used to fit the floor; an
    # infinite rel keeps the ill-conditioned draws the sampler rejects.
    e = get_example("mkropina_yang")
    kappas = []
    for seed in (40, 41, 42):
        plan = SamplePlan(count=20, seed=seed)
        for x, y in sample_states(e.metric, plan, Tolerances(rel=np.inf)).states:
            g = fundamental_tensor(e.metric, (x, y)).components
            kappa = relative_condition(e.metric, x, g)
            kappas.append(kappa)
            frame = GeometryState(e.metric, e.volume, x, y).frame
            res = _frame_residuals(frame)
            for name in BERWALD_IMPLIED:
                rel = res[name] / frame.scale
                assert rel <= rounding_floor(kappa), (name, x, y)
    assert min(kappas) < 3.0 and max(kappas) > 40.0  # both terms are tried


def test_sampler_rejects_ill_conditioned_draws():
    tol = Tolerances()
    e = get_example("mkropina_yang")
    batch = sample_states(e.metric, SamplePlan(count=20, seed=3), tol)
    assert batch.rejection_reasons["ill_conditioned"] > 0
    for x, y in batch.states:
        g = fundamental_tensor(e.metric, (x, y)).components
        assert rounding_floor(relative_condition(e.metric, x, g)) <= tol.rel
    for name in ("randers_osaka", "randers_baoshen", "randers_humo"):
        e = get_example(name)
        batch = sample_states(e.metric, SamplePlan(count=20, seed=3), tol)
        assert "ill_conditioned" not in batch.rejection_reasons, name


def test_relative_condition_ignores_linear_coordinates():
    # g of a Riemannian metric is its a(x), however anisotropic; a Randers
    # metric keeps its kappa when x2 and y2 are stretched by 5
    flat = construct_metric("riemannian", 2, a=[["1", "0"], ["0", "25"]])
    x, y = [0.1, -0.2], [0.6, 0.8]
    g = fundamental_tensor(flat, (x, y)).components
    assert np.linalg.cond(g) == pytest.approx(25.0)
    assert relative_condition(flat, x, g) == pytest.approx(1.0, abs=1e-12)
    b = ["0.3", "0.2 * x1"]
    plain = construct_metric("randers", 2, a=[["1", "0"], ["0", "1"]], b=b)
    stretched = construct_metric(
        "randers", 2, a=[["1", "0"], ["0", "25"]], b=["0.3", "x1"]
    )
    kappas = []
    for metric, ys in ((plain, y), (stretched, [y[0], y[1] / 5.0])):
        g = fundamental_tensor(metric, (x, ys)).components
        kappas.append(relative_condition(metric, x, g))
    assert kappas[0] > 1.5
    assert kappas[1] == pytest.approx(kappas[0], rel=1e-10)


def test_floor_resolves_a_tight_tolerance():
    # at rel = 1e-9 the kappa^4 term sets the limit (kappa about 3.6):
    # the kept mkropina states still resolve every Berwald-implied verdict
    tol = Tolerances(rel=1e-9, absolute=1e-15)
    e = get_example("mkropina_yang")
    report = classify_metric(e.metric, e.volume, SamplePlan(count=10), tol)
    assert report.rejection_reasons["ill_conditioned"] > 0
    for name in BERWALD_IMPLIED:
        assert report.verdict(name) == "holds", name


@pytest.mark.parametrize("seed", [3, 99])
def test_mkropina_verdicts_at_ill_conditioned_seeds(seed):
    # without the floor these sample seeds drew states where rounding
    # alone exceeds the tolerance, and Berwald-implied predicates failed
    e = get_example("mkropina_yang")
    report = classify_metric(e.metric, e.volume, SamplePlan(count=20, seed=seed))
    assert report.errored_states == 0
    for name, expected in e.expected_verdicts.items():
        assert report.verdict(name) == ("holds" if expected else "fails"), name
    assert report.hierarchy_violations == ()
    assert report.rejection_reasons["ill_conditioned"] > 0
    assert sum(report.rejection_reasons.values()) == report.rejections


def _oracle_fundamental_tensor(metric, state):
    """The sampler's g check, with g from the jet oracle."""
    x, y = state
    g = 0.5 * oracle_fsq_partials(metric, x, y, 2)
    if np.linalg.eigvalsh(g)[0] <= 0.0:
        raise errors.RegularityError(
            "fundamental tensor is not positive definite", x=x, y=y
        )
    return TensorValue(g, ("lower", "lower"), (tuple(x), tuple(y)))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sampler_gate_matches_jet_oracle(monkeypatch, seed):
    # the ring g keeps and rejects exactly the draws the oracle's g does,
    # with the same tallies per reason
    plan = SamplePlan(seed=seed)
    names = list_examples()
    ring = {name: sample_states(get_example(name).metric, plan) for name in names}
    monkeypatch.setattr(
        classify_module, "fundamental_tensor", _oracle_fundamental_tensor
    )
    for name in names:
        assert sample_states(get_example(name).metric, plan) == ring[name], name


def test_point_tensors_match_jet_oracle():
    for name in list_examples():
        metric = get_example(name).metric
        for x, y in sample_states(metric, SamplePlan(count=3, seed=0)).states:
            pairs = (
                (fundamental_tensor(metric, (x, y)).components,
                 0.5 * oracle_fsq_partials(metric, x, y, 2)),
                (cartan_torsion(metric, (x, y)).components,
                 0.25 * oracle_fsq_partials(metric, x, y, 3)),
            )
            for got, want in pairs:
                scale = max(1.0, np.abs(want).max())
                assert np.abs(got - want).max() <= 1e-13 * scale, (name, x, y)
