"""Classification outcomes over plan seeds, written and compared.

For every catalog entry and the 4-D Randers definition of
data/randers_n4.json (with its closed-form Busemann-Hausdorff volume),
and for every plan seed, the outcome of classify_metric at the default
plan size and tolerances: the ten verdicts, errored_states and the
rejection tallies.  A sampler that gives up (SamplingError) is an
outcome too, recorded with its message, not a crash.  A change that
alters rounding must leave every outcome as it was.

Write a reference from one commit, then compare another against it; the
comparison lists every (entry, seed) whose outcome differs and exits 1
if there is one.  Seeds are integers or inclusive ranges A-B:

    PYTHONPATH=src python tests/verdict_seeds.py REF.json --seeds 0-39 2001-2010
    PYTHONPATH=src python tests/verdict_seeds.py --compare REF.json

This is a command-line tool, not a test module: pytest does not collect
it, and one run over the default seeds takes a few minutes.
"""

import argparse
import json
import sys

from finslerlab import catalog, classify
from finslerlab.errors import SamplingError

from support import randers_n4

N4_NAME = "randers_n4"
DEFAULT_SEEDS = ("0-39", "2001-2010")


def entry_of(name):
    return randers_n4() if name == N4_NAME else catalog.get_example(name)


def outcome(entry, seed):
    """The classification outcome of one entry at one plan seed."""
    plan = classify.SamplePlan(seed=seed)
    try:
        report = classify.classify_metric(entry.metric, entry.volume, plan)
    except SamplingError as exc:
        return {"abort": type(exc).__name__, "message": str(exc)}
    return {
        "verdicts": {name: report.verdict(name) for name in classify.PREDICATES},
        "errored_states": report.errored_states,
        "rejections": report.rejections,
        "rejection_reasons": dict(sorted(report.rejection_reasons.items())),
    }


def outcomes(names, seeds):
    """"name/seed" -> outcome, over every name and seed."""
    out = {}
    for name in names:
        entry = entry_of(name)
        for seed in seeds:
            out["%s/%d" % (name, seed)] = outcome(entry, seed)
    return out


def compare(path):
    """The (key, reference, current) triples whose outcomes differ, and
    the number of outcomes compared."""
    with open(path, encoding="utf-8") as handle:
        reference = json.load(handle)["outcomes"]
    differ = []
    for key, want in sorted(reference.items()):
        name, seed = key.rsplit("/", 1)
        got = outcome(entry_of(name), int(seed))
        if got != want:
            differ.append((key, want, got))
    return differ, len(reference)


def _seeds(text):
    """One seed, or the inclusive range A-B."""
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("path", nargs="?", help="reference file to write")
    parser.add_argument("--seeds", type=_seeds, nargs="+",
                        default=[_seeds(s) for s in DEFAULT_SEEDS],
                        help="plan seeds: integers or ranges A-B")
    parser.add_argument("--compare", metavar="REF",
                        help="list the outcomes that differ from REF")
    args = parser.parse_args(argv)
    if args.compare:
        differ, count = compare(args.compare)
        for key, want, got in differ:
            print("%s\n  reference: %s\n  current:   %s"
                  % (key, json.dumps(want, sort_keys=True),
                     json.dumps(got, sort_keys=True)))
        print("%d of %d outcomes differ" % (len(differ), count))
        return 1 if differ else 0
    if not args.path:
        parser.error("give a reference path to write, or --compare REF")
    seeds = sorted({s for group in args.seeds for s in group})
    names = catalog.list_examples() + [N4_NAME]
    document = {"seeds": seeds, "outcomes": outcomes(names, seeds)}
    with open(args.path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
    aborts = sorted(k for k, v in document["outcomes"].items() if "abort" in v)
    print("%d outcomes written, %d sampler aborts: %s"
          % (len(document["outcomes"]), len(aborts), ", ".join(aborts) or "none"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
