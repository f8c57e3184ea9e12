"""Built-in example catalog: construction, defaults, overrides."""

import numpy as np
import pytest

from finslerlab.catalog import get_example, list_examples
from finslerlab.errors import CatalogError, ConfigError
from finslerlab.metrics import randers_b_norm_sq
from finslerlab.series import Series, SeriesRing
from support import is_admissible


def test_listing_is_stable_and_complete():
    names = list_examples()
    assert names == sorted(names)
    assert set(names) == {
        "euclidean", "minkowski_quartic", "mkropina_yang",
        "randers_baoshen", "randers_humo", "randers_osaka",
        "riemannian_conformal", "riemannian_sphere",
    }


def test_euclidean_dimension_override():
    entry = get_example("euclidean", n=2)
    assert entry.metric.dimension == 2
    assert entry.metric.F([0.0, 0.0], [3.0, 4.0]) == 5.0


def test_osaka_is_euclidean_at_origin():
    entry = get_example("randers_osaka")
    assert entry.metric.F([0.0, 0.0, 0.0], [3.0, 4.0, 0.0]) == pytest.approx(
        5.0, rel=1e-14
    )


def test_humo_zero_rotation_degenerates():
    entry = get_example("randers_humo", q=0.0)
    assert all(entry.expected_verdicts.values())
    assert entry.metric.F([0.2, -0.1, 0.3], [0.0, 0.0, 2.0]) == pytest.approx(
        2.0, rel=1e-14
    )


def test_humo_chart_is_the_wind_below_one():
    # humo's chart is the Randers chart |W| < 1; where |W| = 1 exactly,
    # lambda = 0 and a(x) is undefined, which is outside it, not an error
    chart = get_example("randers_humo", q=2.0).metric.chart_domain
    assert chart([0.49, 0.0, 0.3]) and chart([0.0, -0.49, 5.0])
    assert not chart([0.5, 0.0, 0.0]) and not chart([0.0, 0.6, 0.0])


def test_unknown_name_rejected():
    with pytest.raises(CatalogError):
        get_example("nosuch")


def test_unknown_parameter_rejected():
    with pytest.raises(ConfigError):
        get_example("randers_osaka", frequency=2.0)


def test_baoshen_regularity_guard():
    with pytest.raises(ConfigError):
        get_example("randers_baoshen", lam=0.5)


def test_baoshen_one_form_is_short():
    entry = get_example("randers_baoshen")
    for x in ([0.0, 0.0, 0.0], [0.3, -0.2, 0.1]):
        assert randers_b_norm_sq(entry.metric, x) < 1.0


def test_baoshen_unnormalized_expected_lambda():
    entry = get_example("randers_baoshen", normalized=False)
    assert entry.expected_lambda == pytest.approx(1.44)
    assert get_example("randers_baoshen").expected_lambda == 1.0


def test_mkropina_cone_is_half_space():
    entry = get_example("mkropina_yang")
    x = [0.1, 0.0, 0.0]
    assert is_admissible(entry.metric, x, [1.0, 0.1, 0.0])
    assert not is_admissible(entry.metric, x, [-1.0, 0.1, 0.0])


def test_mkropina_beta_form_validated():
    with pytest.raises(ConfigError):
        get_example("mkropina_yang", beta_form="sideways")
    displayed = get_example("mkropina_yang", beta_form="displayed")
    assert displayed.expected_verdicts["douglas"] is False
    assert get_example("mkropina_yang").expected_verdicts["douglas"] is True


def test_every_entry_has_notes_for_every_expectation():
    for name in list_examples():
        entry = get_example(name)
        for predicate in entry.expected_verdicts:
            assert entry.verdict_notes.get(predicate), (name, predicate)


def test_quartic_regularizer_guard():
    with pytest.raises(ConfigError):
        get_example("minkowski_quartic", eps=-1.0)


def test_recommended_volumes_evaluate():
    for name in list_examples():
        entry = get_example(name)
        log_sigma = entry.volume.log_sigma([0.05, -0.1, 0.2][: entry.metric.dimension])
        assert np.isfinite(float(log_sigma))


@pytest.mark.parametrize(
    "name", ["randers_osaka", "randers_humo", "randers_baoshen"]
)
def test_coefficient_fields_take_one_reciprocal_each(monkeypatch, name):
    # every entry of a(x) shares one denominator and so does every entry
    # of b(x): each field takes its reciprocal once and multiplies by it
    metric = get_example(name).metric
    ring = SeriesRing.get(3).stage(2, 0)
    x = [ring.variable_x(i, v) for i, v in enumerate((0.1, -0.2, 0.15))]
    calls = []
    plain = Series.reciprocal

    def reciprocal(self):
        calls.append(self)
        return plain(self)

    monkeypatch.setattr(Series, "reciprocal", reciprocal)
    for field in (metric.a_fn, metric.b_fn):
        calls.clear()
        field(x)
        assert len(calls) == 1, field
