"""Command-line front end: list, classify, and verify.

Reports go to standard output as JSON (default) or aligned text.  Every
report embeds the fully resolved run configuration, so a report is
reproducible from its own header.  Exit codes: 0 when the outcome
matches expectations (catalog verdicts for classify, tolerance pass for
verify), 1 on a mismatch, an errored state or a failed identity, 2 on any
error.
"""

import argparse
import datetime
import json
import math
import sys

import numpy as np

from . import __version__
from .catalog import get_example, list_examples
from .classify import (
    SamplePlan,
    Tolerances,
    classify_metric,
    measure_states,
    sample_states,
    verdict,
)
from .curvature import residual_scale
from .errors import ConfigError, FinslerError
from .metrics import construct_metric, finite_number
from .projective import IDENTITY_KINDS, identity_residual, projective_factor
from .volume import (
    bh_quadrature_volume,
    bh_randers_volume,
    constant_volume,
    dsl_volume,
)

VOLUME_FORMS = ("constant", "bh-quadrature", "bh-randers", "dsl")

DEFINITION_FIELDS = (
    "name", "dimension", "family", "expressions", "parameters",
    "chart_radius",
)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="finslerlab",
        description="Classify Finsler metrics and verify curvature identities.",
    )
    parser.add_argument(
        "--version", action="version", version="finslerlab " + __version__
    )
    sub = parser.add_subparsers(dest="command", required=True)

    plan, tol = SamplePlan(), Tolerances()
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--metric", help="catalog entry name")
    common.add_argument("--file", help="metric definition file (JSON)")
    common.add_argument("--dim", type=int, help="dimension override")
    common.add_argument(
        "--samples", type=int, default=None,
        help="states to sample (default %d)" % plan.count,
    )
    common.add_argument(
        "--seed", type=int, default=None,
        help="sampling seed (default %d)" % plan.seed,
    )
    common.add_argument(
        "--x-radius", type=float, default=None,
        help="radius of the ball the base points x are drawn from "
        "(default %r)" % plan.x_radius,
    )
    common.add_argument(
        "--tol-rel", type=float, default=None,
        help="relative tolerance: a residual holds within "
        "tol-abs + tol-rel * scale (default %r)" % tol.rel,
    )
    common.add_argument(
        "--tol-abs", type=float, default=None,
        help="absolute tolerance (default %r)" % tol.absolute,
    )
    common.add_argument(
        "--volume-form", choices=VOLUME_FORMS, default=None,
        help="volume form for S and tau (default: the catalog entry's, "
        "else constant)",
    )
    common.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="metric/identity parameter; repeatable "
        "(verify reserves 'lambda' for constflag and 'P' for lemma21; "
        "volume-form dsl reads 'sigma')",
    )
    output = "report format (default json)"
    common.add_argument(
        "--output", choices=("json", "text"), default="json", help=output
    )

    listp = sub.add_parser("list", help="list catalog entries")
    listp.add_argument(
        "--output", choices=("json", "text"), default="json", help=output
    )

    sub.add_parser(
        "classify", parents=[common], help="run all predicates on a metric"
    )

    verifyp = sub.add_parser(
        "verify", parents=[common], help="check one identity on a metric"
    )
    verifyp.add_argument(
        "--identity", required=True, choices=IDENTITY_KINDS,
        help="the identity whose residual is checked",
    )
    return parser


def _parse_params(pairs):
    out = {}
    for raw in pairs:
        if "=" not in raw:
            raise ConfigError(
                "--param needs KEY=VALUE, got %r" % raw
            )
        key, value = raw.split("=", 1)
        key = key.strip()
        value = value.strip()
        for cast in (int, float):
            try:
                out[key] = cast(value)
                break
            except ValueError:
                continue
        else:
            out[key] = value
    return out


def load_metric_definition(data, overrides=None):
    """MetricSpec from a parsed definition document, with the values in
    overrides (--param) for the parameters it declares; keys it does not
    declare are left to the caller."""
    if not isinstance(data, dict):
        raise ConfigError(
            "a definition is a JSON object, got %s" % type(data).__name__
        )
    unknown = set(data) - set(DEFINITION_FIELDS)
    if unknown:
        raise ConfigError(
            "unknown definition fields: %s" % ", ".join(sorted(unknown))
        )
    for required in ("dimension", "family"):
        if required not in data:
            raise ConfigError("definition needs %r" % required)
    expressions = dict(data.get("expressions") or {})
    allowed = {"F", "a", "b", "m"}
    if set(expressions) - allowed:
        raise ConfigError(
            "expressions accepts only %s" % ", ".join(sorted(allowed))
        )
    parameters = data.get("parameters")
    if overrides and isinstance(parameters, dict):
        parameters = dict(parameters)
        parameters.update((k, v) for k, v in overrides.items() if k in parameters)
    return construct_metric(
        data["family"],
        data["dimension"],
        a=expressions.get("a"),
        b=expressions.get("b"),
        m=expressions.get("m"),
        F=expressions.get("F"),
        parameters=parameters,
        chart_radius=data.get("chart_radius"),
        name=data.get("name"),
    )


def load_metric_file(path, overrides=None):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except ValueError as exc:
            raise ConfigError("%s is not valid JSON: %s" % (path, exc)) from exc
    return load_metric_definition(data, overrides)


def _resolve_metric(args, params):
    """(metric, default volume, catalog entry or None, leftover params):
    a definition file takes the values of the params it declares, and
    all params are left over for lemma21's P; a catalog entry takes all
    but sigma, rejects a key it lacks and leaves none."""
    if bool(args.metric) == bool(args.file):
        raise ConfigError("give exactly one of --metric or --file")
    if args.file:
        if args.dim is not None:
            raise ConfigError("--dim applies to a catalog entry, not to --file")
        metric = load_metric_file(args.file, params)
        return metric, constant_volume(1.0), None, params
    overrides = dict(params)
    overrides.pop("sigma", None)
    if args.dim is not None:
        overrides["n"] = args.dim
    entry = get_example(args.metric, **overrides)
    return entry.metric, entry.volume, entry, {}


def _resolve_volume(args, metric, default, params):
    if args.volume_form is None:
        return default
    if args.volume_form == "constant":
        return constant_volume(1.0)
    if args.volume_form == "bh-quadrature":
        return bh_quadrature_volume(metric)
    if args.volume_form == "bh-randers":
        return bh_randers_volume(metric)
    source = params.get("sigma")
    if not isinstance(source, str):
        source = str(source) if source is not None else None
    if not source:
        raise ConfigError(
            "volume-form dsl needs --param sigma=<expression>"
        )
    return dsl_volume(source, metric.dimension, metric.parameters)


def _plan(args):
    kwargs = {}
    if args.samples is not None:
        kwargs["count"] = args.samples
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if args.x_radius is not None:
        kwargs["x_radius"] = args.x_radius
    return SamplePlan(**kwargs)


def _tolerances(args):
    kwargs = {}
    if args.tol_rel is not None:
        kwargs["rel"] = args.tol_rel
    if args.tol_abs is not None:
        kwargs["absolute"] = args.tol_abs
    return Tolerances(**kwargs)


def _config_echo(args, params):
    return {
        "command": args.command,
        "metric": args.metric,
        "file": args.file,
        "dim": args.dim,
        "samples": args.samples,
        "seed": args.seed,
        "x_radius": getattr(args, "x_radius"),
        "tol_rel": args.tol_rel,
        "tol_abs": args.tol_abs,
        "volume_form": args.volume_form,
        "identity": getattr(args, "identity", None),
        "params": params,
        "output": args.output,
    }


def _emit(payload, args, stream):
    if args.output == "json":
        json.dump(payload, stream, indent=2, sort_keys=True)
        stream.write("\n")
        return
    _emit_text(payload, stream)


def _emit_text(payload, stream):
    write = stream.write
    write("metric: %s    volume: %s    version: %s\n" % (
        payload["metric"], payload.get("volume", "-"), payload["version"]
    ))
    if payload["predicates"]:
        write("%-16s %-14s %12s %12s\n" % (
            "predicate", "verdict", "residual", "scale"
        ))
        for row in payload["predicates"]:
            write("%-16s %-14s %12.3e %12.3e\n" % (
                row["name"], row["verdict"],
                row["max_residual"], row["scale"],
            ))
    for row in payload.get("identities", []):
        write("identity %s: %s (max residual %.3e, scale %.3e)\n" % (
            row["kind"], row["verdict"],
            row["max_residual"], row["scale"],
        ))
    reasons = payload.get("rejection_reasons")
    if reasons:
        write("rejected draws: %s\n" % ", ".join(
            "%s %d" % item for item in sorted(reasons.items())
        ))
    for err in payload.get("errors", []):
        write("errored state: %s: %s\n" % (err["error"], err["message"]))
    extra = payload.get("hierarchy_violations")
    if extra:
        write("hierarchy violations: %s\n" % "; ".join(extra))
    mismatches = payload.get("mismatches")
    if mismatches:
        write("expectation mismatches: %s\n" % "; ".join(mismatches))


def _base_payload(args, params, metric_name, volume):
    payload = {
        "config": _config_echo(args, params),
        "metric": metric_name,
        "volume": volume.label,
        "predicates": [],
        "identities": [],
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "version": __version__,
    }
    if volume.rule is not None:
        # the quadrature's chosen rule: grid, directions, error estimate
        payload["volume_rule"] = volume.rule.as_dict()
    return payload


def run_list(args, stream=None):
    stream = stream or sys.stdout
    rows = []
    for name in list_examples():
        entry = get_example(name)
        rows.append({
            "name": name,
            "dimension": entry.metric.dimension,
            "volume": entry.volume.label,
            "description": entry.description,
        })
    if args.output == "json":
        json.dump({"catalog": rows, "version": __version__},
                  stream, indent=2, sort_keys=True)
        stream.write("\n")
    else:
        for row in rows:
            stream.write("%-22s n=%d  %s\n" % (
                row["name"], row["dimension"], row["description"]
            ))
    return 0


def run_classify(args, stream=None):
    stream = stream or sys.stdout
    params = _parse_params(args.param)
    metric, default_volume, entry, leftover = _resolve_metric(args, params)
    unknown = sorted(set(leftover) - set(metric.parameters) - {"sigma"})
    if unknown:
        raise ConfigError(
            "unknown parameter %r for definition %r (declares: %s)"
            % (unknown[0], args.file, ", ".join(sorted(metric.parameters)) or "none")
        )
    volume = _resolve_volume(args, metric, default_volume, params)
    report = classify_metric(metric, volume, _plan(args), _tolerances(args))

    payload = _base_payload(args, params, metric.name, volume)
    summary = report.as_dict()
    for key in ("plan", "tolerances", "predicates", "rejections",
                "rejection_reasons", "hierarchy_violations", "errored_states",
                "errors"):
        payload[key] = summary[key]

    mismatches = []
    if report.errored_states:
        mismatches.append(
            "%d of %d states errored, verdicts indeterminate"
            % (report.errored_states, report.plan.count)
        )
    if entry is not None:
        for pred, expected in entry.expected_verdicts.items():
            want = "holds" if expected else "fails"
            got = report.verdict(pred)
            if got != want:
                mismatches.append(
                    "%s: expected %s, got %s" % (pred, want, got)
                )
    payload["mismatches"] = mismatches
    _emit(payload, args, stream)
    return 1 if mismatches else 0


def run_verify(args, stream=None):
    stream = stream or sys.stdout
    params = _parse_params(args.param)
    lam = params.pop("lambda", None)
    p_source = params.pop("P", None)
    metric, default_volume, entry, leftover = _resolve_metric(args, params)
    volume = _resolve_volume(args, metric, default_volume, params)
    plan = _plan(args)
    tol = _tolerances(args)

    kwargs, echo = {}, dict(params)
    if args.identity == "constflag" and lam is not None:
        kwargs["lam"] = echo["lam"] = finite_number(lam, "lambda")
    if args.identity == "lemma21":
        echo["p"] = str(p_source) if p_source is not None else None
        echo["parameters"] = leftover or None
        # a missing or malformed P fails here, before any sampling
        kwargs["p"] = projective_factor(echo["p"], metric.dimension,
                                        echo["parameters"])

    def measure(state):
        residual = identity_residual(args.identity, state, **kwargs)
        return residual_scale(state), float(np.abs(residual.components).max())

    batch = sample_states(metric, plan, tol)
    rows, errors = measure_states(metric, volume, batch.states, measure)
    row = {"kind": args.identity, "verdict": "indeterminate", "states": len(rows),
           "max_residual": math.nan, "scale": math.nan, "worst_state": None}
    if not errors:
        ok, top, (worst, scale, _) = verdict(rows, tol)
        row.update(
            verdict="pass" if ok else "fail",
            max_residual=top,
            scale=scale,
            worst_state=[list(worst[0]), list(worst[1])],
        )

    payload = _base_payload(args, echo, metric.name, volume)
    payload["identities"] = [row]
    payload.update(
        plan=plan.as_dict(), tolerances=tol.as_dict(),
        rejections=batch.rejections,
        rejection_reasons=dict(sorted(batch.rejection_reasons.items())),
        errored_states=len(errors),
        errors=[err.as_dict() for err in errors],
    )
    _emit(payload, args, stream)
    return 0 if row["verdict"] == "pass" else 1


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags already; version/help exit 0
        return int(exc.code or 0)
    try:
        if args.command == "list":
            return run_list(args)
        if args.command == "classify":
            return run_classify(args)
        return run_verify(args)
    except FinslerError as err:
        sys.stderr.write("error: %s\n" % err)
        return 2
    except OSError as err:
        sys.stderr.write("error: %s\n" % err)
        return 2


if __name__ == "__main__":
    sys.exit(main())
