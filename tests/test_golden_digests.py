"""Byte identity of the CLI's CSVs, checked against recorded digests.

tests/golden/digests.json holds the SHA-256 of every CSV that a fixed set
of CLI runs writes: the four configs/fig*.cfg sweeps, the benchmark's
finite_grid jobs and 8 of its topology_scan protocols (their command lines
written into the file), and three tasks at small sizes.  A change that means
to move output bits regenerates the file with tests/golden/make_digests.py
and reports the moves (its --keep and --compare steps); any other change
must leave every byte as it is.
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


def write_tree(root, files):
    for path, text in files.items():
        (root / path).parent.mkdir(parents=True, exist_ok=True)
        (root / path).write_text(text, encoding="utf-8")


def test_compare_reports_each_rate_move_against_its_bounds(tmp_path, capsys):
    header = "t,r,err_bound,singular_flag\n"
    write_tree(tmp_path / "old", {
        "a/rate.csv": header + "0,0.5,1e-16,0\n0.1,2,0,0\n0.2,nan,nan,1\n",
        "a/index.csv": "x\n1\n",
        "b/other.csv": "y\n1\n",
        "gone.csv": "z\n",
    })
    write_tree(tmp_path / "new", {
        # one ulp within the two bounds, one ulp of 2 above bounds of 0, NaN kept
        "a/rate.csv": header + "0,0.50000000000000011,1e-16,0\n0.1,2.0000000000000004,0,0\n"
        "0.2,nan,nan,1\n",
        "a/index.csv": "x\n1\n",
        "b/other.csv": "y\n2\n",
        "extra.csv": "z\n",
    })
    old, new = str(tmp_path / "old"), str(tmp_path / "new")
    assert make_digests.compare(old, new) == [
        f"gone.csv: only in {old}",
        f"extra.csv: only in {new}",
        "a/rate.csv: 2 of 3 samples moved, max |dr| 4.44e-16, max |dr|/max(1,|r|) 2.22e-16, "
        "1 above the sum of their two err_bounds",
        "  t=0.1: |dr| 4.44e-16 > err_bound sum 0",
        "b/other.csv: changed",
        "1 of 5 CSVs unchanged",
    ]
    make_digests.main(["--compare", old, new])
    assert capsys.readouterr().out.splitlines() == make_digests.compare(old, new)
