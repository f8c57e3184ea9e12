"""Every demo script runs to completion and prints its headline."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# a line each demo prints once it has done its work
EXPECTED = {
    "classify_catalog.py": "riemannian_sphere          h     h",
    "curvature_walkthrough.py": "metric : randers_osaka",
    "custom_metric.py": "unperturbed quartic: berwald holds, riemannian fails",
    "projective_identities.py": "Douglas projective invariance",
}


def test_every_demo_has_an_expected_line():
    assert sorted(EXPECTED) == [path.name for path in DEMOS]


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.name)
def test_demo_runs(path, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    done = subprocess.run(
        [sys.executable, str(path)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert EXPECTED[path.name] in done.stdout
    # a definition file a demo writes goes away with its temp directory
    assert not list(tmp_path.rglob("*.json"))
