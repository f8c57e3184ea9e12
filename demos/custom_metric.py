"""Define a metric from scratch and push it through classification.

The same definition works three ways: directly through
construct_metric, as a JSON document for the command line's --file
flag, and through the catalog-style API.  Here we build a quartic
Minkowski norm perturbed by position and watch it stop being Berwald.
"""

import json
import os
import tempfile

from finslerlab import SamplePlan, classify_metric, construct_metric
from finslerlab.cli import load_metric_definition, main as cli_main
from finslerlab.volume import constant_volume

definition = {
    "name": "bent_quartic",
    "dimension": 3,
    "family": "dsl",
    "expressions": {
        "F": "(y1^4 + y2^4 + (eps + x1^2)*(y1^2 + y2^2 + y3^2)^2)^(1/4)"
    },
    "parameters": {"eps": 0.5},
    "chart_radius": None,
}

metric = load_metric_definition(definition)
print("defined %r, n=%d" % (metric.name, metric.dimension))
print("F(0, (1,0,0)) = %.6f" % metric.F([0.0] * 3, [1.0, 0.0, 0.0]))

report = classify_metric(metric, constant_volume(1.0), SamplePlan(count=10))
for name in ("riemannian", "berwald", "douglas", "s_flat"):
    row = report.predicates[name]
    print("  %-12s %-6s (max residual %.2e)" % (
        name, row.verdict, row.max_residual
    ))

# the position-dependent perturbation destroys the Berwald property the
# unperturbed norm has; compare:
flat = construct_metric(
    "dsl", 3,
    F="(y1^4 + y2^4 + eps*(y1^2 + y2^2 + y3^2)^2)^(1/4)",
    parameters={"eps": 0.5}, name="flat_quartic",
)
flat_report = classify_metric(flat, constant_volume(1.0), SamplePlan(count=10))
print("unperturbed quartic: berwald %s, riemannian %s" % (
    flat_report.verdict("berwald"), flat_report.verdict("riemannian")
))

# same document, driven through the CLI
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "bent_quartic.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(definition, fh)
    print()
    print("CLI on the same definition file:")
    code = cli_main([
        "classify", "--file", path, "--samples", "6", "--output", "text",
    ])
print("exit status:", code)
