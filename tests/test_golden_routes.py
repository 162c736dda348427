"""The library routes that no benchmark workload takes match their record bit for bit.

tests/golden/rewrite_record.py's ROUTES are seeded library calls on
datasets built in code: many Z'Z blocks, q = 1 and q = 3, p > N with a
failed entry, raw units, the elastic net and ridge, kfold_cv,
remove_linear_combos, a refit stack with a truncated factor and two
supports on either side of the truncation threshold.  Each case runs
again here and is compared with tests/golden/routes.json: iteration
counts, supports, converged flags, errors and warnings, and every float of
the params, traces, log-likelihoods and criteria as a 17-digit string.
The first difference is named.  As in test_golden.py, the test skips
under another numpy version, BLAS build or thread setting than the
record's, and a change that moves these numbers on purpose reruns the
script, which names the changed cases.
"""

import json

import pytest

from test_golden import _first_difference, golden

RECORD = json.loads(golden.ROUTES_RECORD.read_text())


def test_the_record_holds_every_route():
    assert sorted(RECORD["routes"]) == sorted(golden.ROUTES)


@pytest.mark.parametrize("name", sorted(golden.ROUTES))
def test_route_matches_the_record(name):
    if RECORD["build"] != golden.build():
        pytest.skip(f"record taken under {RECORD['build']}; this is {golden.build()}")
    found = _first_difference(RECORD["routes"][name], golden.ROUTES[name](), name)
    assert found is None, "%s: recorded %r, now %r" % found
