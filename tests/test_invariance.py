"""Metamorphic tests: a whole sweep does not depend on how the data are labeled.

Relabeling the data (the order of X's columns, of the subjects, or of the
rows within a subject) changes no quantity of the model, so a sweep on
the relabeled data must make the same selection along the same path:
the same selected entry, every entry's support (mapped back to the
original columns) and nnz, and every grid fit's and refit's EM iteration
count.  Only the order of floating-point sums may change, so BIC is
compared within 1e-12 relative.
"""

import numpy as np
import pytest

from lmmlasso.dataset import LongitudinalDataset
from lmmlasso.selector import default_grid, sweep
from lmmlasso.simkit import ScenarioConfig, generate_scenario

SEEDS = (0, 1, 2)


def _sweep(ds):
    return sweep(ds, default_grid(20), lambda_scale="per_obs")


@pytest.fixture(scope="module")
def base():
    """Each seed's scenario-3 dataset and its sweep."""
    out = {}
    for seed in SEEDS:
        ds, _ = generate_scenario(ScenarioConfig.scenario3(seed=seed))
        out[seed] = ds, _sweep(ds)
    return out


def _supports(path, columns):
    """Each entry's support as sorted original column indices (None if it failed)."""
    return [None if fit is None
            else sorted(int(columns[j]) for j in np.flatnonzero(fit.params.beta))
            for fit in path.fits]


def _iterations(fits):
    return [None if fit is None else fit.iterations for fit in fits]


def _assert_same_path(path, ref, columns):
    assert path.selected_index == ref.selected_index
    assert _supports(path, columns) == _supports(ref, np.arange(len(columns)))
    assert path.nnz.tolist() == ref.nnz.tolist()
    assert _iterations(path.fits) == _iterations(ref.fits)
    assert _iterations(path.refit_fits) == _iterations(ref.refit_fits)
    np.testing.assert_allclose(path.bic, ref.bic, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("seed", SEEDS)
def test_permuting_the_columns_of_x_keeps_the_path(base, seed):
    ds, ref = base[seed]
    perm = np.random.default_rng(100 + seed).permutation(ds.p)
    permuted = LongitudinalDataset(ds.subject_ids, ds.counts, ds.y, ds.X[:, perm], ds.Z)
    _assert_same_path(_sweep(permuted), ref, perm)


@pytest.mark.parametrize("seed", SEEDS)
def test_permuting_the_subjects_keeps_the_path(base, seed):
    ds, ref = base[seed]
    perm = np.random.default_rng(200 + seed).permutation(ds.n)
    _assert_same_path(_sweep(ds.subset_subjects(perm)), ref, np.arange(ds.p))


@pytest.mark.parametrize("seed", SEEDS)
def test_permuting_the_rows_within_each_subject_keeps_the_path(base, seed):
    ds, ref = base[seed]
    rng = np.random.default_rng(300 + seed)
    rows = np.concatenate([start + rng.permutation(count)
                           for start, count in zip(ds.starts, ds.counts)])
    permuted = LongitudinalDataset(ds.subject_ids, ds.counts, ds.y[rows], ds.X[rows], ds.Z[rows])
    _assert_same_path(_sweep(permuted), ref, np.arange(ds.p))
