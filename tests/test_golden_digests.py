"""Byte identity of the CLI's CSVs, checked against recorded digests.

tests/golden/digests.json holds the SHA-256 of every CSV that a fixed set
of CLI runs writes: the four configs/fig*.cfg sweeps, the benchmark's
finite_grid jobs and 8 of its topology_scan protocols (their command lines
written into the file), and three tasks at small sizes.  A change that means
to move output bits regenerates the file with tests/golden/make_digests.py
and reports the moves; any other change must leave every byte as it is.
"""

import importlib.util
import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
_spec = importlib.util.spec_from_file_location(
    "make_digests", os.path.join(HERE, "golden", "make_digests.py")
)
make_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_digests)

REGENERATE = "PYTHONPATH=src python3 tests/golden/make_digests.py"


def test_every_csv_matches_its_recorded_digest(tmp_path):
    with open(make_digests.DIGESTS, encoding="utf-8") as fh:
        golden = json.load(fh)
    here = make_digests.fingerprint()
    # tan and log may round differently on another numpy or SIMD path: that is a
    # different baseline, not a pass
    differ = {k: (here.get(k), v) for k, v in golden["platform"].items() if here.get(k) != v}
    assert not differ, (
        f"platform differs from the recorded one, (here, recorded): {differ}; "
        f"regenerate the digests on this platform with: {REGENERATE}"
    )
    runs = [run["command"] for run in golden["runs"]]
    codes, digests = make_digests.run_all(runs, str(tmp_path))

    bad_codes = [
        f"{run} exited {got}, recorded {r['exit']}"
        for run, got, r in zip(runs, codes, golden["runs"])
        if got != r["exit"]
    ]
    assert not bad_codes, "; ".join(bad_codes)
    recorded = golden["digests"]
    missing = sorted(recorded.keys() - digests.keys())
    extra = sorted(digests.keys() - recorded.keys())
    changed = sorted(p for p in recorded.keys() & digests.keys() if recorded[p] != digests[p])
    assert not (missing or extra or changed), (
        f"{len(changed)} CSVs changed (first: {changed[:3]}), missing {missing[:3]}, "
        f"unrecorded {extra[:3]}"
    )
