"""Every Frame output on the catalog states against a committed snapshot.

The snapshot holds, for 3 sampled states of every catalog entry and 2 of
the 4-D Randers definition in data/randers_n4.json (the benchmark's
frame-n4 metric, with its closed-form Busemann-Hausdorff volume), the
Frame arrays that OUTPUTS names (the metric stage, the stages of the
spray and of the projective spray, and the residuals that
classify_metric reads), the identity residuals, and the two
projective-change checks (lemma21 and the Douglas invariance gap, with
P = 0.3*y1).  A refactor of the ring pipeline must reproduce all of it
to 1e-12 relative.

Regenerate (only from a commit whose outputs are the reference):

    PYTHONPATH=src python tests/test_frame_snapshot.py tests/data/frame_snapshot.npz

A wider reference adds plan seeds (each seed samples its own states)
and states of randers_osaka with the quadrature volume; --compare then
lists every array the current code does not reproduce bit for bit
(np.array_equal) at the reference's states, with its scaled shift
max|diff| / max(1, max|ref|), then per entry the number of arrays that
differ and the largest shift, and exits 1 if an array differs:

    PYTHONPATH=src python tests/test_frame_snapshot.py REF.npz --seeds 1 2 --quadrature 2
    PYTHONPATH=src python tests/test_frame_snapshot.py --compare REF.npz
"""

import argparse
import math
import operator
import os
import sys
import types

import numpy as np
import pytest

from finslerlab import catalog, classify, curvature, metrics, projective, volume
from finslerlab.errors import TowerBudgetError
from finslerlab.series import SeriesRing

from support import randers_n4

SNAPSHOT = os.path.join(
    os.path.dirname(__file__), "data", "frame_snapshot.npz"
)
STATES_PER_ENTRY = 3
N4_NAME = "randers_n4"
N4_STATES = 2
QUADRATURE_NAME = "randers_osaka+bh_quadrature"
P_FACTOR = "0.3*y1"
REL = 1e-12

IDENTITIES = ("thm31", "master", "thm33", "pricci", "constflag")

# snapshot key -> Frame attribute path.  The Spray stages are lazy, so
# they are not in vars(frame): this table, not the instance, says what
# the snapshot records.
OUTPUTS = {
    **{name: name for name in (
        "F2", "F", "g", "ginv", "y_low", "C", "G", "N", "Gamma", "R", "R_y",
        "R_yy", "R_y3", "S", "S_x", "S_y", "S_yy", "S_yyy", "S_xyy", "tau",
        "tau_x", "tau_y", "B", "B_x", "B_y", "D", "D_x", "D_y")},
    "Gt": "projective.G",
    "Nt": "projective.N",
    "Gammat": "projective.Gamma",
    "Rt": "projective.R",
    "Rt_y": "projective.R_y",
    "Rt_yy": "projective.R_yy",
    "Rt_y3": "projective.R_y3",
    **{"res." + name: name for name in (
        "C", "B", "E", "D", "Dbar", "gdw_residual", "R_full_dot", "scale")},
    "res.Rt_full_dot": "projective.R_full_dot",
}


def state_outputs(entry, x, y):
    """Name -> array of everything the snapshot records at one state."""
    state = curvature.GeometryState(entry.metric, entry.volume, x, y)
    frame = state.frame
    out = {
        key: np.asarray(operator.attrgetter(path)(frame), dtype=float)
        for key, path in OUTPUTS.items()
    }
    lam = frame.constflag_lambda_fit()
    out["res.lambda_fit"] = np.asarray(lam)
    out["res.constflag"] = frame.constflag_residual(lam)
    for kind in IDENTITIES:
        out["id." + kind] = projective.identity_residual(kind, state).components
    out["id.lemma21"] = projective.identity_residual(
        "lemma21", state, p=P_FACTOR
    ).components
    out["douglas_invariance_gap"] = np.asarray(
        projective.douglas_invariance_gap(state, P_FACTOR)
    )
    return out


def entry_of(name):
    """A catalog entry, the n=4 definition as an entry-like record, or
    randers_osaka with the Busemann-Hausdorff quadrature volume."""
    if name == N4_NAME:
        return randers_n4()
    if name == QUADRATURE_NAME:
        metric = catalog.get_example("randers_osaka").metric
        return types.SimpleNamespace(
            metric=metric, volume=volume.bh_quadrature_volume(metric)
        )
    return catalog.get_example(name)


def write_snapshot(path, seeds=(classify.SamplePlan.seed,), quadrature=0):
    """The outputs at count states per entry and plan seed, keyed name/k
    with k counting across seeds."""
    arrays = {}
    counts = [(name, STATES_PER_ENTRY) for name in catalog.list_examples()]
    counts.append((N4_NAME, N4_STATES))
    if quadrature:
        counts.append((QUADRATURE_NAME, quadrature))
    for name, count in counts:
        entry = entry_of(name)
        states = []
        for seed in seeds:
            plan = classify.SamplePlan(count=count, seed=seed)
            states += classify.sample_states(entry.metric, plan).states
        for k, (x, y) in enumerate(states):
            key = "%s/%d" % (name, k)
            arrays[key + "/x"] = np.array(x)
            arrays[key + "/y"] = np.array(y)
            for field, value in state_outputs(entry, x, y).items():
                arrays["%s/%s" % (key, field)] = value
    np.savez_compressed(path, **arrays)


def compare_exactly(path):
    """The arrays of a reference file that the current code does not
    reproduce bit for bit, as (name, scaled shift), and per entry the
    number of arrays compared."""
    differ, compared = [], {}
    for key, ref in sorted(_load(path).items()):
        x, y = tuple(ref.pop("x")), tuple(ref.pop("y"))
        entry = key.split("/")[0]
        got = state_outputs(entry_of(entry), x, y)
        for field, want in sorted(ref.items()):
            compared[entry] = compared.get(entry, 0) + 1
            have = got.get(field)
            if have is None or not np.array_equal(have, want):
                differ.append(("%s/%s" % (key, field), _shift(have, want)))
    return differ, compared


def _shift(have, want):
    """max|have - want| / max(1, max|want|); inf for a missing or
    reshaped array."""
    if have is None or have.shape != want.shape:
        return math.inf
    gap = float(np.abs(have - want).max(initial=0.0))
    return gap / max(1.0, float(np.abs(want).max(initial=0.0)))


def _load(path=SNAPSHOT):
    grouped = {}
    with np.load(path) as data:
        for full, value in data.items():
            key, field = full.rsplit("/", 1)
            grouped.setdefault(key, {})[field] = value
    return grouped


def pytest_generate_tests(metafunc):
    if "ref" in metafunc.fixturenames:
        reference = _load()
        metafunc.parametrize(
            "key, ref", sorted(reference.items()), ids=sorted(reference)
        )


def test_outputs_name_every_snapshot_array():
    # the snapshot and OUTPUTS name the same arrays, and OUTPUTS names
    # every array the Frame constructor sets
    recorded = {field for fields in _load().values() for field in fields}
    entry = catalog.get_example("randers_osaka")
    x, y = classify.sample_states(
        entry.metric, classify.SamplePlan(count=1)
    ).states[0]
    assert set(state_outputs(entry, x, y)) == recorded - {"x", "y"}
    frame = curvature.GeometryState(entry.metric, entry.volume, x, y).frame
    eager = {
        name for name, value in vars(frame).items()
        if isinstance(value, (np.ndarray, float))
    }
    assert eager <= set(OUTPUTS.values())


def test_frame_matches_snapshot(key, ref):
    ref = dict(ref)
    x, y = tuple(ref.pop("x")), tuple(ref.pop("y"))
    got = state_outputs(entry_of(key.split("/")[0]), x, y)
    assert set(ref) <= set(got)
    bad = []
    for field, want in sorted(ref.items()):
        have = got[field]
        assert have.shape == want.shape, field
        bound = REL * max(1.0, float(np.abs(want).max(initial=0.0)))
        gap = float(np.abs(have - want).max(initial=0.0))
        if not gap <= bound:
            bad.append("%s: %.3e > %.3e" % (field, gap, bound))
    assert not bad, "; ".join(bad)


def _randers_n2():
    metric = metrics.construct_metric(
        "randers", 2, a=[["1 + x1^2/4", "0"], ["0", "1 + x2^2"]],
        b=["0.3*x2", "0.2 - 0.1*x1"], chart_radius=1.0, name="randers_n2",
    )
    return types.SimpleNamespace(metric=metric, volume=volume.bh_randers_volume(metric))


BOX_ENTRIES = [
    ("randers_n2", 2), ("riemannian_conformal", 2), *((name, 3) for name in (
        "euclidean", "minkowski_quartic", "mkropina_yang", "randers_baoshen",
        "randers_humo", "randers_osaka", "riemannian_sphere", QUADRATURE_NAME)),
    (N4_NAME, 4),
]


@pytest.mark.parametrize("name, n", BOX_ENTRIES, ids=str)
def test_no_reader_reads_past_the_roots_total_degree(monkeypatch, name, n):
    # every output, lemma21 among them, at a sampled state is bit for bit
    # the one a box root gives, which also keeps the monomials past total
    # degree 8 that the root's total cap drops; this holds without the
    # committed snapshot
    def entry():
        if name == "randers_n2":
            return _randers_n2()
        if name == "riemannian_conformal":
            return catalog.get_example(name, n=n)
        return entry_of(name)

    first = entry()
    x, y = classify.sample_states(first.metric, classify.SamplePlan(count=1)).states[0]
    want = state_outputs(first, x, y)
    root = SeriesRing.get(n)
    box = SeriesRing(n, root.cap_x, root.cap_y)
    assert box.size > root.size
    monkeypatch.setitem(SeriesRing._instances, n, box)
    got = state_outputs(entry(), x, y)
    assert len(box._stages) > 1  # the Frame ran under the box root
    assert set(got) == set(want)
    bad = [key for key in sorted(want) if not np.array_equal(got[key], want[key])]
    assert not bad, bad


def test_a_root_one_total_degree_short_fails_with_a_named_error(monkeypatch):
    # the projective spray's Riemann reads G to its full total degree 6, so
    # under a root of total degree 7 it raises TowerBudgetError, not a
    # shape error from numpy: with the box root above, the root's total cap
    # is both enough and needed
    entry = entry_of("randers_osaka")
    n = entry.metric.dimension
    x, y = classify.sample_states(entry.metric, classify.SamplePlan(count=1)).states[0]
    root = SeriesRing.get(n)
    short = SeriesRing(n, root.cap_x, root.cap_y, root.cap_d - 1)
    monkeypatch.setitem(SeriesRing._instances, n, short)
    frame = curvature.GeometryState(entry.metric, entry.volume, x, y).frame
    with pytest.raises(TowerBudgetError, match="Riemann"):
        frame.projective.R
    assert len(short._stages) > 1  # the Frame ran under the short root


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("path", nargs="?", help="snapshot file to write")
    parser.add_argument("--seeds", type=int, nargs="+",
                        default=[classify.SamplePlan.seed])
    parser.add_argument("--quadrature", type=int, default=0,
                        help="randers_osaka states with the quadrature volume")
    parser.add_argument("--compare", metavar="REF",
                        help="list the arrays not bit-identical to REF")
    args = parser.parse_args(argv)
    if args.compare:
        differ, compared = compare_exactly(args.compare)
        for name, shift in differ:
            print("%s %.3g" % (name, shift))
        for entry, count in compared.items():
            shifts = [shift for name, shift in differ if name.split("/")[0] == entry]
            print("%s: %d of %d arrays differ, largest shift %.3g"
                  % (entry, len(shifts), count, max(shifts, default=0.0)))
        print("%d of %d arrays differ" % (len(differ), sum(compared.values())))
        return 1 if differ else 0
    if not args.path:
        parser.error("give a snapshot path to write, or --compare REF")
    write_snapshot(args.path, args.seeds, args.quadrature)
    return 0


if __name__ == "__main__":
    sys.exit(main())
