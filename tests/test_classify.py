"""Sampling determinism, tolerance policy, and classification verdicts."""

import json

import numpy as np
import pytest

from finslerlab.catalog import get_example, list_examples
from finslerlab.classify import (
    PREDICATES,
    ClassificationReport,
    SamplePlan,
    Tolerances,
    classify_metric,
    sample_states,
)
from finslerlab.errors import ConfigError, SamplingError
from finslerlab.metrics import construct_metric
from finslerlab.scalars import value_of
from finslerlab.volume import VolumeForm, bh_quadrature_volume, dsl_volume


def test_plan_defaults():
    plan = SamplePlan()
    assert plan.count == 20
    assert plan.seed == 20250405
    assert plan.x_radius == 0.4
    assert plan.y_mode == "unit_F"


@pytest.mark.parametrize(
    "kwargs",
    [{"count": 0}, {"x_radius": -0.1}, {"y_mode": "unit_cube"}],
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


def test_unit_sphere_mode_keeps_euclidean_norm():
    e = get_example("randers_humo")
    batch = sample_states(
        e.metric, SamplePlan(count=6, seed=11, y_mode="unit_sphere")
    )
    for x, y in batch.states:
        assert np.linalg.norm(y) == pytest.approx(1.0, abs=1e-12)


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


def test_bug_in_volume_is_not_indeterminate():
    # only package errors make a state "errored"; a programming error
    # in the volume surfaces instead of becoming an indeterminate verdict
    def sigma(x):
        raise TypeError("broken density")

    e = get_example("euclidean")
    broken = VolumeForm(kind="dsl", label="broken", sigma=sigma)
    with pytest.raises(TypeError, match="broken density"):
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
