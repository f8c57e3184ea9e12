"""End-to-end command-line behavior: flags, exit codes, report schema."""

import json

import pytest

from finslerlab import classify, cli
from finslerlab.cli import load_metric_definition, main
from finslerlab.errors import ConfigError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list_json(capsys):
    code, out, _ = run(capsys, "list")
    assert code == 0
    blob = json.loads(out)
    names = [row["name"] for row in blob["catalog"]]
    assert "randers_osaka" in names and "mkropina_yang" in names
    assert len(names) == 8


def test_classify_euclidean_two_dimensional(capsys):
    code, out, _ = run(
        capsys, "classify", "--metric", "euclidean", "--dim", "2",
        "--samples", "4",
    )
    assert code == 0
    blob = json.loads(out)
    assert all(p["verdict"] == "holds" for p in blob["predicates"])
    assert blob["mismatches"] == []


def test_dimension_six_is_a_config_error(capsys, monkeypatch):
    from support import record_rings

    built = record_rings(monkeypatch, 5)
    code, out, err = run(
        capsys, "classify", "--metric", "euclidean", "--dim", "6",
        "--samples", "2",
    )
    assert code == 2
    assert "dimension must be an integer from 2 to 5" in err
    assert out == "" and built == []


def test_classify_reports_ill_conditioned_rejections(capsys):
    args = ("classify", "--metric", "mkropina_yang", "--seed", "3")
    code, out, _ = run(capsys, *args)
    assert code == 0
    reasons = json.loads(out)["rejection_reasons"]
    assert reasons["ill_conditioned"] > 0
    # --tol-rel moves the limit: a residual may now sit far above eps
    code, out, _ = run(capsys, *args, "--tol-rel", "1")
    assert "ill_conditioned" not in json.loads(out)["rejection_reasons"]
    code, out, _ = run(capsys, *args, "--output", "text")
    assert "ill_conditioned %d" % reasons["ill_conditioned"] in out


def test_anisotropic_definition_file_is_not_ill_conditioned(tmp_path, capsys):
    # cond(g) = 25 on every draw of this flat metric; kappa relative to
    # its a(x) is 1, so neither classify nor verify rejects a draw
    definition = {
        "name": "flat25",
        "dimension": 2,
        "family": "riemannian",
        "expressions": {"a": [["1", "0"], ["0", "25"]]},
    }
    path = tmp_path / "flat25.json"
    path.write_text(json.dumps(definition))
    code, out, _ = run(capsys, "classify", "--file", str(path), "--samples", "4")
    assert code == 0
    blob = json.loads(out)
    assert "ill_conditioned" not in blob["rejection_reasons"]
    verdicts = {p["name"]: p["verdict"] for p in blob["predicates"]}
    assert verdicts["riemannian"] == verdicts["berwald"] == "holds"
    code, _, _ = run(
        capsys, "verify", "--identity", "master", "--file", str(path),
        "--samples", "2",
    )
    assert code == 0


def test_classify_osaka_matches_expectations(capsys):
    code, out, _ = run(
        capsys, "classify", "--metric", "randers_osaka",
        "--samples", "20", "--seed", "42", "--volume-form", "bh-randers",
    )
    assert code == 0
    blob = json.loads(out)
    verdicts = {p["name"]: p["verdict"] for p in blob["predicates"]}
    assert verdicts["douglas"] == "fails"
    assert verdicts["dbar"] == "holds"
    assert verdicts["s_flat"] == "holds"
    assert verdicts["r_quadratic"] == "holds"
    assert blob["hierarchy_violations"] == []


def test_classify_unknown_entry(capsys):
    code, _, err = run(capsys, "classify", "--metric", "nosuch")
    assert code == 2
    assert "unknown catalog entry" in err


def test_classify_requires_one_source(capsys):
    code, _, err = run(capsys, "classify", "--samples", "3")
    assert code == 2
    assert "--metric or --file" in err


def test_verify_master_on_humo(capsys):
    code, out, _ = run(
        capsys, "verify", "--identity", "master",
        "--metric", "randers_humo", "--samples", "4",
    )
    assert code == 0
    blob = json.loads(out)
    row = blob["identities"][0]
    assert row["kind"] == "master"
    assert row["verdict"] == "pass"
    assert row["max_residual"] <= 1e-6 * row["scale"] + 1e-9
    assert blob["errored_states"] == 0 and blob["errors"] == []


def test_verify_constflag_with_lambda(capsys):
    code, out, _ = run(
        capsys, "verify", "--identity", "constflag",
        "--metric", "riemannian_sphere", "--param", "lambda=1",
        "--samples", "3",
    )
    assert code == 0
    assert json.loads(out)["identities"][0]["verdict"] == "pass"


def test_verify_lemma21_zero_factor(capsys):
    code, out, _ = run(
        capsys, "verify", "--identity", "lemma21",
        "--metric", "euclidean", "--param", "P=0", "--samples", "3",
    )
    assert code == 0
    assert json.loads(out)["identities"][0]["max_residual"] <= 1e-12


def test_verify_lemma21_rejects_bad_factor(capsys):
    code, _, err = run(
        capsys, "verify", "--identity", "lemma21",
        "--metric", "euclidean", "--param", "P=y1^2", "--samples", "3",
    )
    assert code == 2
    assert "1-homogeneous" in err


def refuse_sampling(monkeypatch):
    def sample_states(*args, **kwargs):
        raise AssertionError("sampled states for a run that cannot work")

    monkeypatch.setattr(cli, "sample_states", sample_states)
    monkeypatch.setattr(classify, "sample_states", sample_states)


def test_bh_randers_on_non_randers_metric_fails_before_sampling(
    capsys, monkeypatch
):
    refuse_sampling(monkeypatch)
    for argv in (
        ("classify", "--metric", "mkropina_yang"),
        ("verify", "--identity", "thm33", "--metric", "riemannian_sphere"),
    ):
        code, out, err = run(
            capsys, *argv, "--volume-form", "bh-randers", "--samples", "3"
        )
        assert code == 2 and out == ""
        assert "applies to Randers metrics only" in err


def test_verify_lemma21_factor_fails_before_sampling(capsys, monkeypatch):
    refuse_sampling(monkeypatch)
    argv = ("verify", "--identity", "lemma21", "--metric", "euclidean",
            "--samples", "3")
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "lemma21 needs a projective factor" in err
    code, out, err = run(capsys, *argv, "--param", "P=y1^")
    assert code == 2 and out == "" and err.startswith("error: ")


@pytest.mark.parametrize(
    "flag, value, named",
    [("--tol-rel", "-1", "tolerance rel"), ("--tol-rel", "0", "tolerance rel"),
     ("--tol-rel", "nan", "tolerance rel"), ("--tol-abs", "-1", "tolerance abs"),
     ("--tol-abs", "nan", "tolerance abs")],
)
def test_bad_tolerance_fails_before_sampling(capsys, monkeypatch, flag, value,
                                             named):
    refuse_sampling(monkeypatch)
    for argv in (("classify", "--metric", "euclidean"),
                 ("verify", "--identity", "master", "--metric", "euclidean")):
        code, out, err = run(capsys, *argv, flag, value, "--samples", "3")
        assert code == 2 and out == ""
        assert named in err


@pytest.mark.parametrize(
    "flag, value, named",
    [("--seed", "-1", "sample seed"), ("--samples", "0", "sample count"),
     ("--x-radius", "inf", "x_radius"), ("--x-radius", "nan", "x_radius")],
)
def test_bad_plan_fails_before_sampling(capsys, monkeypatch, flag, value, named):
    refuse_sampling(monkeypatch)
    for argv in (("classify", "--metric", "euclidean"),
                 ("verify", "--identity", "master", "--metric", "euclidean")):
        code, out, err = run(capsys, *argv, flag, value)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and named in err


def test_report_is_reproducible_except_timestamp(capsys):
    argv = (
        "classify", "--metric", "riemannian_sphere", "--samples", "4",
        "--seed", "5",
    )
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    b1, b2 = json.loads(out1), json.loads(out2)
    b1.pop("timestamp"), b2.pop("timestamp")
    assert json.dumps(b1, sort_keys=True) == json.dumps(b2, sort_keys=True)


@pytest.mark.parametrize("value", ["abc", "inf", "nan"])
def test_verify_constflag_rejects_a_bad_lambda(capsys, monkeypatch, value):
    refuse_sampling(monkeypatch)
    code, out, err = run(
        capsys, "verify", "--identity", "constflag",
        "--metric", "riemannian_sphere", "--param", "lambda=" + value,
        "--samples", "3",
    )
    assert code == 2
    assert "lambda must be a finite number" in err and out == ""


@pytest.mark.parametrize(
    "metric, param",
    [("randers_humo", "q=abc"), ("randers_baoshen", "c=abc"),
     ("mkropina_yang", "m=inf"), ("randers_baoshen", "lam=nan"),
     ("randers_humo", "q=nan"), ("minkowski_quartic", "eps=inf")],
)
def test_bad_catalog_parameter_fails_before_sampling(capsys, monkeypatch,
                                                     metric, param):
    refuse_sampling(monkeypatch)
    code, out, err = run(
        capsys, "classify", "--metric", metric, "--param", param, "--samples", "3"
    )
    key = param.split("=")[0]
    assert code == 2 and out == ""
    assert "parameter %r must be a finite number" % key in err


def test_catalog_dimension_that_is_not_a_number_is_a_config_error(capsys):
    code, out, err = run(
        capsys, "classify", "--metric", "euclidean", "--param", "n=abc",
    )
    assert code == 2
    assert "dimension must be an integer" in err and out == ""


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"dimension": 2,', "not valid JSON"),
        ('[{"dimension": 2, "family": "euclidean"}]', "a JSON object, got list"),
        ('{"dimension": "abc", "family": "euclidean"}', "got 'abc'"),
        ('{"dimension": 2.5, "family": "euclidean"}', "got 2.5"),
        ('{"dimension": 2, "family": "dsl", '
         '"expressions": {"F": "(y1^2 + y2^2)^(1e400)"}}',
         "exponent inf is not finite at offset 15"),
        ('{"dimension": 2, "family": "alpha_beta_power", "expressions": '
         '{"a": [["1", "0"], ["0", "1"]], "b": ["1", "0"], "m": 1e400}}',
         "exponent m must be a finite number, got inf"),
        ('{"dimension": 2, "family": "dsl", "parameters": {"x1": 2.0}, '
         '"expressions": {"F": "sqrt(y1^2 + y2^2)"}}',
         "parameter name 'x1' collides with a variable or function"),
        ('{"dimension": 2, "family": "randers", "parameters": {"sqrt": 0.1}, '
         '"expressions": {"a": [["1", "0"], ["0", "1"]], "b": ["0", "0"]}}',
         "parameter name 'sqrt' collides with a variable or function"),
        ('{"dimension": 2, "family": "randers", "expressions": '
         '{"a": [["x1^2 + x2^2", "0"], ["0", "1"]], "b": ["0.1", "0"]}}',
         "Randers a(x) is singular at x=(0.0, 0.0)"),
        ('{"dimension": 2, "family": "euclidean", "chart_radius": -0.5}',
         "chart_radius must be positive, got -0.5"),
        ('{"dimension": 2, "family": "euclidean", "chart_radius": "abc"}',
         "chart_radius must be a finite number, got 'abc'"),
        ('{"dimension": 2, "family": "euclidean", "chart_radius": NaN}',
         "chart_radius must be a finite number, got nan"),
        ('{"dimension": 2, "family": "dsl", "parameters": {"k": "abc"}, '
         '"expressions": {"F": "k * sqrt(y1^2 + y2^2)"}}',
         "parameter 'k' must be a finite number, got 'abc'"),
    ],
    ids=["invalid-json", "not-an-object", "dimension-abc", "dimension-2.5",
         "exponent-1e400", "m-1e400", "parameter-x1", "parameter-sqrt",
         "singular-a-at-center", "chart-radius-negative", "chart-radius-abc",
         "chart-radius-nan", "parameter-abc"],
)
def test_bad_definition_file_is_a_config_error(
    tmp_path, capsys, monkeypatch, text, message
):
    refuse_sampling(monkeypatch)
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run(capsys, "classify", "--file", str(path), "--samples", "3")
    assert code == 2
    assert message in err and out == ""


def test_lemma21_parameter_that_is_no_number_fails_before_sampling(
    tmp_path, capsys, monkeypatch
):
    refuse_sampling(monkeypatch)
    path = tmp_path / "ok.json"
    path.write_text('{"dimension": 2, "family": "euclidean"}')
    code, out, err = run(
        capsys, "verify", "--file", str(path), "--identity", "lemma21",
        "--param", "P=k*y1", "--param", "k=abc", "--samples", "3",
    )
    assert code == 2 and out == ""
    assert "parameter 'k' must be a finite number, got 'abc'" in err


@pytest.mark.parametrize("command", [("classify",), ("verify", "--identity", "master")])
def test_dim_with_a_definition_file_is_a_config_error(
    tmp_path, capsys, monkeypatch, command
):
    # the file gives the dimension; a --dim beside it would be echoed in
    # the report and ignored
    refuse_sampling(monkeypatch)
    path = tmp_path / "ok.json"
    path.write_text('{"dimension": 2, "family": "euclidean"}')
    code, out, err = run(
        capsys, *command, "--file", str(path), "--dim", "3", "--samples", "3"
    )
    assert code == 2 and out == ""
    assert "--dim applies to a catalog entry" in err


def test_definition_file_classifies(tmp_path, capsys):
    definition = {
        "name": "stretched",
        "dimension": 2,
        "family": "riemannian",
        "expressions": {"a": [["1", "0"], ["0", "1 + x1^2"]]},
        "chart_radius": 2.0,
    }
    path = tmp_path / "stretched.json"
    path.write_text(json.dumps(definition))
    code, out, _ = run(
        capsys, "classify", "--file", str(path), "--samples", "4",
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["metric"] == "stretched"
    verdicts = {p["name"]: p["verdict"] for p in blob["predicates"]}
    assert verdicts["riemannian"] == "holds"
    assert verdicts["berwald"] == "holds"


def test_definition_round_trip(tmp_path):
    definition = {
        "name": "quartic_like",
        "dimension": 3,
        "family": "dsl",
        "expressions": {
            "F": "(y1^4 + y2^4 + eps*(y1^2 + y2^2 + y3^2)^2)^(1/4)"
        },
        "parameters": {"eps": 0.5},
        "chart_radius": None,
    }
    path = tmp_path / "m.json"
    path.write_text(json.dumps(definition))
    reread = json.loads(path.read_text())
    assert reread == definition
    metric = load_metric_definition(reread)
    assert metric.name == "quartic_like"
    assert metric.dimension == 3
    assert metric.F([0.0, 0.0, 0.0], [1.0, 0.0, 0.0]) == pytest.approx(
        1.5 ** 0.25
    )


def test_definition_rejects_unknown_fields():
    with pytest.raises(ConfigError):
        load_metric_definition({
            "dimension": 2, "family": "euclidean", "flavor": "mint",
        })
    with pytest.raises(ConfigError):
        load_metric_definition({"family": "euclidean"})


def test_missing_file_exits_two(capsys):
    code, _, err = run(
        capsys, "classify", "--file", "/nonexistent/metric.json",
    )
    assert code == 2
    assert "error" in err


def test_errored_states_exit_one(tmp_path, capsys):
    # sigma = x1 is negative on half the chart: those states error, every
    # verdict is indeterminate, and that is not an expected outcome
    definition = {
        "name": "flat2",
        "dimension": 2,
        "family": "riemannian",
        "expressions": {"a": [["1", "0"], ["0", "1"]]},
    }
    path = tmp_path / "flat2.json"
    path.write_text(json.dumps(definition))
    code, out, _ = run(
        capsys, "classify", "--file", str(path), "--volume-form", "dsl",
        "--param", "sigma=x1", "--samples", "4",
    )
    assert code == 1
    blob = json.loads(out)
    assert blob["errored_states"] == len(blob["errors"]) > 0
    for err in blob["errors"]:
        assert set(err) == {"error", "message", "x", "y"}
        assert err["x"][0] <= 0.0  # sigma = x1 fails where x1 <= 0
    assert all(p["verdict"] == "indeterminate" for p in blob["predicates"])
    assert any("errored" in m for m in blob["mismatches"])


def test_param_overrides_reach_catalog(capsys):
    code, out, _ = run(
        capsys, "classify", "--metric", "randers_baoshen",
        "--param", "lam=2.25", "--samples", "4",
    )
    assert code == 0
    blob = json.loads(out)
    cf = [p for p in blob["predicates"] if p["name"] == "constant_flag"][0]
    assert cf["verdict"] == "holds"
    assert cf["lambda_hat"] == pytest.approx(1.0, abs=1e-3)


@pytest.mark.parametrize(
    "value, lam", [("false", 1.44), ("FALSE", 1.44), ("0", 1.44), ("True", 1.0)]
)
def test_baoshen_normalized_reads_true_or_false(capsys, value, lam):
    # the command line passes "false" as a string, which is truthy
    code, out, _ = run(
        capsys, "classify", "--metric", "randers_baoshen",
        "--param", "normalized=" + value, "--samples", "4",
    )
    assert code == 0
    blob = json.loads(out)
    cf = [p for p in blob["predicates"] if p["name"] == "constant_flag"][0]
    assert cf["verdict"] == "holds"
    assert cf["lambda_hat"] == pytest.approx(lam, abs=1e-3)


@pytest.mark.parametrize("value", ["abc", "2", "yes"])
def test_baoshen_normalized_rejects_other_values(capsys, monkeypatch, value):
    refuse_sampling(monkeypatch)
    code, out, err = run(
        capsys, "classify", "--metric", "randers_baoshen",
        "--param", "normalized=" + value, "--samples", "3",
    )
    assert code == 2 and out == ""
    assert "parameter 'normalized' must be true or false" in err


def test_bad_param_syntax(capsys):
    code, _, err = run(
        capsys, "classify", "--metric", "euclidean", "--param", "oops",
    )
    assert code == 2
    assert "KEY=VALUE" in err


def test_dsl_volume_needs_sigma(capsys):
    code, _, err = run(
        capsys, "classify", "--metric", "euclidean",
        "--volume-form", "dsl", "--samples", "3",
    )
    assert code == 2
    assert "sigma" in err


def test_loose_tolerances_cause_expectation_mismatch(capsys):
    # melting the tolerances makes everything "hold", which contradicts
    # the catalog's fail expectations and must exit 1
    code, out, _ = run(
        capsys, "classify", "--metric", "randers_osaka",
        "--samples", "4", "--tol-rel", "1e6",
    )
    assert code == 1
    assert json.loads(out)["mismatches"]


def test_text_output_renders(capsys):
    code, out, _ = run(
        capsys, "classify", "--metric", "minkowski_quartic",
        "--samples", "4", "--output", "text",
    )
    assert code == 0
    assert "predicate" in out and "berwald" in out


def test_verify_reports_errored_states_as_classify_does(capsys):
    # ln sigma fails at every sampled state: each is listed with class,
    # message and (x, y), the verdict is indeterminate and the exit code 1
    args = ("--metric", "euclidean", "--volume-form", "dsl",
            "--param", "sigma=ln(x1)", "--samples", "5", "--seed", "2")
    code, out, _ = run(capsys, "verify", "--identity", "thm33", *args)
    assert code == 1
    blob = json.loads(out)
    row = blob["identities"][0]
    assert row["verdict"] == "indeterminate" and row["worst_state"] is None
    assert blob["errored_states"] == len(blob["errors"]) == 5
    for err in blob["errors"]:
        assert err["error"] == "RegularityError" and "at x=" in err["message"]
        assert len(err["x"]) == len(err["y"]) == 3
    assert blob["rejections"] == 0 and blob["rejection_reasons"] == {}
    code, out, _ = run(capsys, "classify", *args)
    assert code == 1
    assert json.loads(out)["errors"] == blob["errors"]
    code, out, _ = run(capsys, "verify", "--identity", "thm33", *args,
                       "--output", "text")
    assert "thm33: indeterminate" in out and out.count("errored state:") == 5


@pytest.mark.parametrize("identity", ["lemma21", "constflag"])
def test_identities_that_read_no_volume_pass_with_a_failing_density(
    capsys, identity
):
    # lemma21 and constflag read R, N, Gamma, G and g, never S or tau, so
    # the volume stage that fails at every state above never runs
    code, out, _ = run(
        capsys, "verify", "--identity", identity, "--metric", "euclidean",
        "--volume-form", "dsl", "--param", "sigma=ln(x1)", "--param", "P=0.3*y1",
        "--samples", "5", "--seed", "2",
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["identities"][0]["verdict"] == "pass"
    assert blob["errored_states"] == 0 and blob["errors"] == []


def test_quadrature_volume_reports_its_rule(capsys):
    # the chosen rule goes next to "volume", for classify and verify
    blobs = []
    for argv in (("classify",), ("verify", "--identity", "master")):
        code, out, _ = run(
            capsys, *argv, "--metric", "randers_osaka", "--samples", "2",
            "--volume-form", "bh-quadrature",
        )
        assert code == 0
        blobs.append(json.loads(out))
    for blob in blobs:
        assert blob["volume"] == "bh-quadrature"
        rule = blob["volume_rule"]
        assert rule["grid"] == [16, 32] and rule["directions"] == 512
        assert 0.0 < rule["estimate"] < 1e-13
    # other volume kinds report nothing new
    code, out, _ = run(
        capsys, "classify", "--metric", "randers_osaka", "--samples", "2",
        "--volume-form", "bh-randers",
    )
    assert "volume_rule" not in json.loads(out)


@pytest.mark.parametrize("command", ["classify", "verify"])
def test_every_option_has_help_stating_its_default(command):
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if a.choices and command in a.choices)
    actions = [a for a in sub.choices[command]._actions if a.option_strings]
    assert {"--samples", "--tol-abs", "--output"} <= {
        s for a in actions for s in a.option_strings
    }
    for action in actions:
        assert action.help, action.option_strings
    # the defaults in the help are the library's, not copies
    text = sub.choices[command].format_help()
    plan, tol = classify.SamplePlan(), classify.Tolerances()
    for value in (plan.count, plan.seed, plan.x_radius, tol.rel, tol.absolute):
        assert "(default %r)" % value in text
