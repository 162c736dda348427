"""The benchmark workloads' outputs match their committed record bit for bit.

tests/golden/rewrite_record.py runs the 34 pass seeds of bench/workloads.py
(bench seed 1) through cli.main in process; this test runs them again and
compares each pass with tests/golden/workloads.json: the exit code, the
sweeps' selected index and support, nnz per entry, grid-fit and refit
iteration counts and converged flags, every artifact line and float (as a
17-digit string), and the sha256 of stdout and of the artifacts.  The
first difference is named.

Bits depend on the numpy version, the BLAS build and its thread count
(the `fit-50k` fit differs under two BLAS threads), so under another build
than the record's the test skips and names both; under the record's build
it fails whenever a bit moves.  A change that moves numbers on purpose
reruns the script and lists every changed entry.
"""

import importlib.util
import json
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parent / "golden" / "rewrite_record.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("golden_rewrite_record", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


golden = _load_script()


def _first_difference(recorded, fresh, where=""):
    """The key path and the two values of the first difference, or None."""
    if isinstance(recorded, dict) and isinstance(fresh, dict):
        for key in sorted(recorded.keys() | fresh.keys()):
            found = _first_difference(recorded.get(key), fresh.get(key), f"{where}/{key}")
            if found:
                return found
        return None
    if isinstance(recorded, list) and isinstance(fresh, list) and len(recorded) == len(fresh):
        for i, (a, b) in enumerate(zip(recorded, fresh)):
            found = _first_difference(a, b, f"{where}[{i}]")
            if found:
                return found
        return None
    return None if recorded == fresh else (where, recorded, fresh)


def test_workload_outputs_match_the_record(tmp_path):
    record = json.loads(golden.RECORD.read_text())
    if record["build"] != golden.build():
        pytest.skip(f"record taken under {record['build']}; this is {golden.build()}")
    fresh = golden.run_passes(tmp_path)
    assert sorted(fresh) == sorted(record["passes"])
    for key, facts in record["passes"].items():
        found = _first_difference(facts, fresh[key], key)
        assert found is None, "%s: recorded %r, now %r" % found


def test_the_rewrite_summary_counts_what_changed():
    def facts(selected, supports, nnz, fit_its, refit_its, bic):
        return {"sweeps": [{"selected_index": selected, "selected_support": supports[selected],
                            "supports": supports, "nnz": nnz,
                            "fits": [[k, True] for k in fit_its],
                            "refits": [[k, True] for k in refit_its]}],
                "artifacts": {"_path.csv": ["lambda,bic,nnz", *(
                    f"0.1,{b!r},{n}" for b, n in zip(bic, nnz))]}}

    old = {"w/0": facts(1, [[], [2]], [0, 1], [5, 7], [3, 3], [10.0, 8.0])}
    new = {"w/0": facts(0, [[], [3]], [0, 1], [2, 3], [2, 2], [10.5, 9.0])}
    assert golden.summarize(old, new) == [
        "w: 1 of 1 selections changed; 1 of 2 entries changed support or nnz; grid-fit "
        "iterations 12 -> 5; refit iterations over entries 6 -> 4; largest relative change "
        "where the support held 4.76e-02"]
