import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lmmlasso import dataset
from lmmlasso.dataset import (
    ColumnRoles,
    LongitudinalDataset,
    ingest_long_csv,
    remove_linear_combos,
    standardize,
)
from lmmlasso.em_engine import LmmParams
from lmmlasso.exceptions import ConfigurationError, DataError
from lmmlasso.fileio import write_csv

from oracles import destandardize, stack_subjects, subject_rows

ROLES = ColumnRoles(subject="id", response="chol", fixed=("sex", "age", "time"),
                    random=("1", "time"))


def _write_cholesterol_style_csv(path, n_subjects=200, rows_per_subject=3, seed=0):
    rng = np.random.default_rng(seed)
    lines = ["id,chol,sex,age,time"]
    for i in range(n_subjects):
        sex = rng.integers(0, 2)
        age = rng.uniform(31, 62)
        for t in range(rows_per_subject):
            chol = rng.normal(2.3, 0.4)
            lines.append(f"s{i},{chol:.6f},{sex},{age:.3f},{t * 0.2 - 0.3:.1f}")
    path.write_text("\n".join(lines) + "\n")


def test_ingest_groups_by_subject(tmp_path):
    f = tmp_path / "chol.csv"
    _write_cholesterol_style_csv(f)
    ds = ingest_long_csv(f, ROLES)
    assert ds.n == 200
    assert ds.N == 600
    assert ds.p == 3
    assert ds.q == 2
    assert np.all(ds.Z[:, 0] == 1.0)
    assert ds.standardization is None


def test_ingest_single_row_dataset(tmp_path):
    f = tmp_path / "tiny.csv"
    f.write_text("id,y,x1,t\nA,1.5,2.0,1\n")
    ds = ingest_long_csv(f, ColumnRoles("id", "y", ("x1",), ("1", "t")))
    assert (ds.n, ds.N, ds.p) == (1, 1, 1)


def test_ingest_reports_bad_cell_with_row_number(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("id,y,x1,t\nA,1.5,2.0,1\nA,oops,1.0,2\n")
    with pytest.raises(DataError, match="row 3.*'oops'.*'y'"):
        ingest_long_csv(f, ColumnRoles("id", "y", ("x1",), ("1", "t")))


def test_ingest_missing_column_is_config_error(tmp_path):
    f = tmp_path / "m.csv"
    f.write_text("id,y,x1\nA,1.0,2.0\n")
    with pytest.raises(ConfigurationError, match="'t'"):
        ingest_long_csv(f, ColumnRoles("id", "y", ("x1",), ("1", "t")))


def test_ingest_preserves_row_multiset(tmp_path):
    f = tmp_path / "order.csv"
    # subjects interleaved in the file
    f.write_text("id,y,x1,t\nA,1,10,1\nB,2,20,1\nA,3,30,2\nB,4,40,2\n")
    ds = ingest_long_csv(f, ColumnRoles("id", "y", ("x1",), ("1", "t")))
    assert ds.n == 2
    assert list(ds.subject_ids) == ["A", "B"]
    (y_a, _, _), (y_b, _, _) = subject_rows(ds)
    np.testing.assert_array_equal(y_a, [1, 3])
    np.testing.assert_array_equal(y_b, [2, 4])
    rows = sorted((float(ds.y[i]), float(ds.X[i, 0])) for i in range(ds.N))
    assert rows == [(1.0, 10.0), (2.0, 20.0), (3.0, 30.0), (4.0, 40.0)]


def test_roles_shorthand():
    roles = ColumnRoles.from_mapping(
        {"subject": "id", "response": "y", "fixed": ["a"], "random": "intercept+time"})
    assert roles.random == ("1", "time")


def _toy_dataset(seed=5, n=40, n_i=4, p=3):
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        X = rng.normal(6.0, 1.0, size=(n_i, p))
        Z = np.column_stack([np.ones(n_i), np.arange(1, n_i + 1)])
        y = X @ np.ones(p) + rng.normal(size=n_i)
        rows.append((y, X, Z))
    return stack_subjects(rows)


def test_standardize_pooled_moments():
    ds = standardize(_toy_dataset())
    assert ds.standardization is not None
    np.testing.assert_allclose(ds.X.mean(axis=0), 0.0, atol=1e-10)
    np.testing.assert_allclose(ds.X.std(axis=0, ddof=1), 1.0, atol=1e-10)
    np.testing.assert_allclose(ds.y.mean(), 0.0, atol=1e-10)
    np.testing.assert_allclose(ds.y.std(ddof=1), 1.0, atol=1e-10)


def test_standardize_exempts_flagged_binary_column():
    base = _toy_dataset()
    sex = np.repeat(np.arange(base.n) % 2, base.counts).astype(float)
    ds = LongitudinalDataset(base.subject_ids, base.counts, base.y,
                             np.column_stack([sex, base.X]), base.Z)
    out = standardize(ds, categorical=[0])
    np.testing.assert_array_equal(out.X[:, 0], sex)
    np.testing.assert_allclose(out.X[:, 1:].std(axis=0, ddof=1), 1.0, atol=1e-10)


def test_standardize_rejects_constant_column():
    base = _toy_dataset()
    ds = LongitudinalDataset(base.subject_ids, base.counts, base.y,
                             np.column_stack([np.full(base.N, 3.0), base.X]), base.Z)
    with pytest.raises(DataError, match="zero variance"):
        standardize(ds)


@pytest.mark.parametrize("scale_y", [True, False], ids=["scale_y", "center_y"])
def test_standardize_refuses_a_one_row_dataset(scale_y):
    # one row has no sample standard deviation: numpy warned "Degrees of
    # freedom <= 0 for slice" on y, and the refusal blamed column 'x1'
    y, X, Z = subject_rows(_toy_dataset())[0]
    ds = stack_subjects([(y[:1], X[:1], Z[:1])])
    with pytest.raises(DataError) as err:
        standardize(ds, scale_y=scale_y)
    assert str(err.value) == "standardize needs at least 2 rows; the data have 1"


@pytest.mark.parametrize("x1_scale, message", [
    (1e200, "columns 'y', 'x1': sum of squares overflows double precision; rescale"),
    (1.0, "column 'y': sum of squares overflows double precision; rescale"),
], ids=["x1", "response"])
def test_standardize_rejects_a_scale_that_overflows(x1_scale, message):
    # squares of values near 1e200 overflow, so the sample standard
    # deviation would be inf: the dataset is refused when it is built,
    # before standardize runs; the check itself must not warn
    base = _toy_dataset()
    with pytest.raises(DataError) as err:
        standardize(LongitudinalDataset(base.subject_ids, base.counts, 1e200 * base.y,
                                        base.X * [x1_scale, 1.0, 1.0], base.Z))
    assert str(err.value) == message


@pytest.mark.parametrize("scales, message", [
    ((1.0, [1e200, 1.0, 1.0], [1.0, 1.0]),
     "column 'x1': sum of squares overflows double precision; rescale"),
    ((1.0, [1.0, 1.0, 1.0], [1.0, 1e160]),
     "column 'z2': sum of squares overflows double precision; rescale"),
    ((1e155, [1.0, 1.0, 1e155], [1.0, 1.0]),
     "columns 'y', 'x3': sum of squares overflows double precision; rescale"),
], ids=["x1", "z2", "y_and_x3"])
def test_dataset_refuses_a_column_whose_squares_overflow(scales, message):
    # every cell is finite, but no fit could form X'X or r'r: a fit on such a
    # dataset overflowed in a matmul and failed with a NumericalError
    y_scale, x_scale, z_scale = scales
    base = _toy_dataset()
    with pytest.raises(DataError) as err:
        LongitudinalDataset(base.subject_ids, base.counts, y_scale * base.y,
                            base.X * x_scale, base.Z * z_scale)
    assert str(err.value) == message
    # a derived dataset is checked the same
    with pytest.raises(DataError, match="sum of squares overflows"):
        base._derive(y=y_scale * base.y, X=base.X * x_scale, Z=base.Z * z_scale)


def test_destandardize_round_trip():
    ds = _toy_dataset(seed=9)
    back = destandardize(standardize(ds))
    np.testing.assert_allclose(back.X, ds.X, rtol=1e-12)
    np.testing.assert_allclose(back.y, ds.y, rtol=1e-12)


def test_original_scale_reproduces_predictions():
    ds = _toy_dataset(seed=13)
    std = standardize(ds)
    rec = std.standardization
    rng = np.random.default_rng(1)
    beta_s = rng.normal(size=ds.p)
    D = np.array([[1.0, 0.25], [0.25, 0.5]])
    orig = rec.original_scale(LmmParams(beta_s, 0.7, D))
    pred_std = rec.y_center + rec.y_scale * (std.X @ beta_s)
    pred_orig = orig["intercept"] + ds.X @ np.array(orig["beta"])
    np.testing.assert_allclose(pred_std, pred_orig, rtol=1e-12)
    # the variance components scale with the response's variance
    assert orig["sigma2"] == pytest.approx(0.7 * rec.y_scale ** 2, rel=1e-15)
    np.testing.assert_allclose(orig["D"], D * rec.y_scale ** 2, rtol=1e-15)


def _with_dependent_column(seed=3, n=20, n_i=3):
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        A = rng.normal(size=(n_i, 2))
        X = np.column_stack([A[:, 0], A[:, 1], A[:, 0] + A[:, 1], rng.normal(size=n_i)])
        Z = np.ones((n_i, 1))
        rows.append((rng.normal(size=n_i), X, Z))
    return stack_subjects(rows)


def test_remove_linear_combos_drops_constructed_dependency():
    ds = _with_dependent_column()
    reduced, report = remove_linear_combos(ds)
    assert report.dropped == (2,)
    assert report.kept == (0, 1, 3)
    assert sorted(report.dependency_sets[2]) == [0, 1]
    assert reduced.p == 3
    assert reduced.x_names == ["x1", "x2", "x4"]


def test_remove_linear_combos_keeps_full_rank_design():
    rng = np.random.default_rng(8)
    rows = [(rng.normal(size=4), rng.normal(size=(4, 3)), np.ones((4, 1))) for i in range(10)]
    _, report = remove_linear_combos(stack_subjects(rows))
    assert report.dropped == ()


def test_remove_linear_combos_gene_expression_shape():
    # 71 rows, 101 columns, true rank 70: 31 trailing columns are random
    # combinations of the first 70.
    rng = np.random.default_rng(17)
    base = rng.normal(size=(71, 70))
    extra = base @ rng.normal(size=(70, 31))
    X = np.column_stack([base, extra])
    counts = rng.integers(2, 5, size=28)
    while counts.sum() != 71:
        counts = rng.integers(2, 5, size=28)
    y = np.concatenate([rng.normal(size=c) for c in counts])
    ds = LongitudinalDataset(np.arange(counts.size), counts, y, X, np.ones((71, 1)))
    reduced, report = remove_linear_combos(ds)
    assert len(report.kept) == 70
    assert reduced.p == 70


def test_remove_linear_combos_drops_a_leading_zero_column_with_no_dependency():
    # no column is kept before it, so nothing reproduces it
    ds = _with_dependent_column(seed=4)
    ds = ds._derive(X=np.column_stack([np.zeros(ds.N), ds.X]), x_names=["x0", *ds.x_names])
    _, report = remove_linear_combos(ds)
    assert report.dropped == (0, 3)
    assert report.dependency_sets[0] == []
    assert sorted(report.dependency_sets[3]) == [1, 2]


def test_remove_linear_combos_idempotent():
    ds = _with_dependent_column(seed=21)
    reduced, first = remove_linear_combos(ds)
    again, second = remove_linear_combos(reduced)
    assert second.dropped == ()
    assert again.p == reduced.p
    assert [reduced.x_names[j] for j in second.kept] == reduced.x_names


def test_select_columns_and_subset_subjects():
    ds = _toy_dataset(seed=31, n=6)
    sub = ds.select_columns([2, 0])
    assert sub.x_names == ["x3", "x1"]
    np.testing.assert_array_equal(sub.X[:, 1], ds.X[:, 0])
    part = ds.subset_subjects([4, 1])
    assert part.n == 2
    assert list(part.subject_ids) == [4, 1]


def test_public_index_arguments_refuse_non_integers_and_out_of_range_indices():
    ds = _toy_dataset(seed=7, n=5)
    for bad in ([-1], [ds.p], [1.5], [True], ["0"], 3):
        with pytest.raises(ConfigurationError, match="categorical column index"):
            standardize(ds, categorical=bad)
    for bad in ([-1], [ds.n], [1.5], [True], 5):
        with pytest.raises(ConfigurationError, match="subset_subjects: subject index"):
            ds.subset_subjects(bad)
    assert standardize(ds, categorical=np.array([2])).standardization.x_scale[2] == 1.0
    # a resample with replacement repeats subjects
    assert list(ds.subset_subjects(np.array([3, 3, 0])).subject_ids) == [3, 3, 0]


def test_dataset_arrays_are_readonly():
    ds = _toy_dataset(seed=2, n=3)
    for name in ("y", "X", "Z", "counts", "subject_ids"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(ds, name)[0] = 99


def test_gram_is_cached_read_only():
    ds = _toy_dataset(seed=6, n=5)
    gram = ds.gram
    assert ds.gram is gram
    np.testing.assert_array_equal(gram, ds.X.T @ ds.X)
    with pytest.raises(ValueError):
        gram[0, 0] = 99.0
    w, V, G_A = ds.gram_factor((0, 2))
    assert ds.gram_factor([0, 2])[1] is V
    assert ds.gram_factor(np.array([0, 2]))[2] is G_A
    np.testing.assert_allclose((V * w) @ V.T, gram[np.ix_([0, 2], [0, 2])], atol=1e-10)
    np.testing.assert_array_equal(G_A, gram[:, [0, 2]])
    for a in (w, G_A):
        with pytest.raises(ValueError):
            a[0] = 99.0
    # the dataset holds one factor: another request replaces it
    ds.gram_factor((1,))
    w2, V2, _ = ds.gram_factor((0, 2))
    assert V2 is not V
    np.testing.assert_array_equal(V2, V)
    # every column in order shares X'X itself
    assert ds.gram_factor(range(ds.p))[2] is gram


@pytest.mark.parametrize("text,message", [
    ("", "empty file"),
    ("id,y,x1,t\n", "no data rows"),
    ("id,y,x1,t\n\n\n", "no data rows"),
    ("id,y,x1,t\nA,1,2,1\nA,1,2\n", "row 3 has 3 fields, expected 4"),
])
def test_ingest_rejects_malformed_file(tmp_path, text, message):
    f = tmp_path / "in.csv"
    f.write_text(text)
    with pytest.raises(DataError, match=message):
        ingest_long_csv(f, ColumnRoles("id", "y", ("x1",), ("1", "t")))


# Round trips of the stacked representation against plain per-subject loops.

_AWKWARD_IDS = ["s0", "s1", 'quote"d', "com,ma", "new\nline", "7", " pad "]


@st.composite
def _datasets(draw, min_rows=1):
    """A small dataset stacked from per-subject rows: 1-6 subjects of 1-4 rows,
    p in 0..3, q in 1..3."""
    p = draw(st.integers(0, 3))
    q = draw(st.integers(1, 3))
    counts = draw(st.lists(st.integers(1, 4), min_size=1, max_size=6))
    counts[0] += max(0, min_rows - sum(counts))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = [(rng.normal(6.0, 1.0, size=c), rng.normal(6.0, 1.0, size=(c, p)),
             rng.normal(size=(c, q))) for c in counts]
    return stack_subjects(rows, [f"s{i}" for i in range(len(counts))])


def _assert_same_dataset(a, b):
    for name in ("y", "X", "Z", "counts", "starts"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name), err_msg=name)
    assert list(a.subject_ids) == list(b.subject_ids)
    assert (a.x_names, a.y_name, a.z_names) == (b.x_names, b.y_name, b.z_names)
    for ma, mb in zip(a.block_moments, b.block_moments):
        np.testing.assert_array_equal(ma, mb)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.data())
def test_ingest_round_trips_written_csv(tmp_path_factory, data):
    n = data.draw(st.integers(1, len(_AWKWARD_IDS)))
    ids = data.draw(st.permutations(_AWKWARD_IDS))[:n]
    counts = data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    p = data.draw(st.integers(0, 3))
    random = data.draw(st.sampled_from([("1",), ("t",), ("1", "t"), ("t", "1", "x1")]))
    if "x1" in random and p == 0:
        random = ("1", "t")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    # rows in file order: (subject, y, x..., t), subjects interleaved
    order = data.draw(st.permutations([i for i, c in enumerate(counts) for _ in range(c)]))
    rows = [(ids[i], rng.normal(), *rng.normal(size=p), float(rng.integers(0, 5)))
            for i in order]
    x_names = [f"x{j + 1}" for j in range(p)]
    f = tmp_path_factory.mktemp("csv") / "long.csv"
    write_csv(f, ["id", "y", *x_names, "t"], rows)

    ds = ingest_long_csv(f, ColumnRoles("id", "y", tuple(x_names), random))

    by_subject = {}
    for row in rows:
        by_subject.setdefault(row[0], []).append(row)
    col = {"y": 1, "t": 2 + p, **{name: 2 + j for j, name in enumerate(x_names)}}
    assert list(ds.subject_ids) == list(by_subject)
    assert ds.counts.tolist() == [len(r) for r in by_subject.values()]
    for sub_rows, (y_i, X_i, Z_i) in zip(by_subject.values(), subject_rows(ds)):
        np.testing.assert_array_equal(y_i, [r[1] for r in sub_rows])
        np.testing.assert_array_equal(
            X_i, np.array([r[2:2 + p] for r in sub_rows]).reshape(len(sub_rows), p))
        np.testing.assert_array_equal(
            Z_i, [[1.0 if c == "1" else r[col[c]] for c in random] for r in sub_rows])
    assert ds.z_names == list(random)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_datasets())
def test_block_moments_match_per_subject_products(ds):
    ztz, ztx, zty = ds.block_moments
    assert ztx.shape == (ds.n, ds.q, ds.p)
    for i, (y_i, X_i, Z_i) in enumerate(subject_rows(ds)):
        np.testing.assert_allclose(ztz[i], Z_i.T @ Z_i, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(ztx[i], Z_i.T @ X_i, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(zty[i], Z_i.T @ y_i, rtol=1e-12, atol=1e-12)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_datasets(min_rows=2), st.booleans())
def test_destandardize_inverts_standardize(ds, scale_y):
    categorical = [j for j in range(ds.p) if j % 2]
    std = standardize(ds, categorical=categorical, scale_y=scale_y)
    back = destandardize(std)
    np.testing.assert_allclose(back.X, ds.X, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(back.y, ds.y, rtol=1e-12, atol=0.0)
    assert back.standardization is None


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_datasets(min_rows=2), st.data())
def test_standardize_is_bit_identical_to_numpy_mean_and_std(ds, data):
    exempt = data.draw(st.lists(st.integers(0, ds.p - 1), max_size=ds.p, unique=True)
                       if ds.p else st.just([]))
    std = standardize(ds, categorical=exempt)
    center, scale = ds.X.mean(axis=0), ds.X.std(axis=0, ddof=1)
    X = (ds.X - center) / scale
    center[exempt], scale[exempt], X[:, exempt] = 0.0, 1.0, ds.X[:, exempt]
    rec = std.standardization
    assert _same_bits(std.X, X)
    assert _same_bits(rec.x_center, center)
    assert _same_bits(rec.x_scale, scale)
    assert _same_bits(std.y, (ds.y - ds.y.mean()) / ds.y.std(ddof=1))


_ZTZ_DESIGNS = ("balanced", "missing", "unbalanced", "signed_zeros")


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.sampled_from(_ZTZ_DESIGNS), st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_distinct_ztz_is_np_unique_of_the_blocks(design, n, seed):
    """Subjects with Z_i = [s_i, t]: balanced (s_i = 1, t = 0..3, one block),
    missing (some subjects miss a visit), unbalanced (each at its own times,
    n blocks) or signed_zeros (t = 0 and s_i = +-1, so the off-diagonal of
    Z_i'Z_i is 0.0 or -0.0, which are one block)."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        t, s = np.arange(4.0), 1.0
        if design == "missing" and rng.random() < 0.5:
            t = np.delete(t, rng.integers(4))
        elif design == "unbalanced":
            t = rng.uniform(0.0, 5.0, size=rng.integers(1, 5))
        elif design == "signed_zeros":
            t, s = np.zeros(2), rng.choice([-1.0, 1.0])
        rows.append((rng.normal(size=t.size), np.empty((t.size, 0)),
                     np.column_stack([np.full(t.size, s), t])))
    ds = stack_subjects(rows)
    ztz = ds.block_moments[0]
    got = ds.distinct_ztz
    np.testing.assert_array_equal(got.ztz[got.index], ztz)
    blocks, index, counts = np.unique(ztz.reshape(ds.n, -1), axis=0, return_inverse=True,
                                      return_counts=True)
    np.testing.assert_array_equal(got.ztz.reshape(counts.size, -1), blocks)
    np.testing.assert_array_equal(got.index, index.reshape(-1))
    np.testing.assert_array_equal(got.counts, counts)
    if design == "balanced":
        assert counts.size == 1
    elif design == "signed_zeros":
        assert counts.size == 1 and np.signbit(ztz[:, 0, 1]).any() == (-1.0 in ds.Z[:, 0])


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.data())
def test_select_columns_and_subset_subjects_match_rebuilt_datasets(data):
    ds = data.draw(_datasets(min_rows=2))
    if data.draw(st.booleans()):
        ds = standardize(ds)
    cols = data.draw(st.lists(st.integers(0, max(ds.p - 1, 0)), max_size=ds.p, unique=True))
    sub = ds.select_columns(cols)
    rows = subject_rows(ds)
    rebuilt = stack_subjects([(y, X[:, cols], Z) for y, X, Z in rows], ds.subject_ids,
                             x_names=[ds.x_names[j] for j in cols], y_name=ds.y_name,
                             z_names=ds.z_names)
    _assert_same_dataset(sub, rebuilt)
    if ds.standardization is not None:
        np.testing.assert_array_equal(sub.standardization.x_scale,
                                      ds.standardization.x_scale[cols])

    idx = data.draw(st.lists(st.integers(0, ds.n - 1), min_size=1, max_size=ds.n,
                             unique=True))
    part = ds.subset_subjects(idx)
    _assert_same_dataset(part, stack_subjects([rows[i] for i in idx], ds.subject_ids[idx],
                                              x_names=ds.x_names, y_name=ds.y_name,
                                              z_names=ds.z_names))
    assert part.standardization is ds.standardization


# argument: value in place of the valid one, the DataError's message
_VALID = dict(subject_ids=[0, 1], counts=[1, 2], y=np.arange(3.0), X=np.ones((3, 2)),
              Z=np.ones((3, 1)))
_CONSTRUCTOR_REFUSALS = {
    "y-rows": (dict(y=np.arange(4.0)), "y must have shape (3,), got (4,)"),
    "X-rows": (dict(X=np.ones((2, 2))), "X must have shape (3, *), got (2, 2)"),
    "Z-rows": (dict(Z=np.ones((4, 1))), "Z must have shape (3, *), got (4, 1)"),
    "zero-count": (dict(counts=[0, 3]), "counts must be >= 1, got 0"),
    "float-count": (dict(counts=[1.0, 2.0]), "counts must be integers, got dtype float64"),
    "bool-count": (dict(counts=[True, True]), "counts must be integers, got dtype bool"),
    "counts-2d": (dict(counts=[[1, 2]]), "counts must have shape (*,), got (1, 2)"),
    "ids": (dict(subject_ids=[0]), "subject_ids must have shape (2,), got (1,)"),
    "y-2d": (dict(y=np.ones((3, 1))), "y must have shape (3,), got (3, 1)"),
    "X-1d": (dict(X=np.ones(3)), "X must have shape (3, *), got (3,)"),
    "Z-1d": (dict(Z=np.ones(3)), "Z must have shape (3, *), got (3,)"),
    "Z-no-columns": (dict(Z=np.ones((3, 0))),
                     "random-effect design must have at least one column"),
    "no-subject": (dict(subject_ids=[], counts=[], y=np.empty(0), X=np.empty((0, 2)),
                        Z=np.empty((0, 1))), "dataset needs at least one subject"),
    "non-finite": (dict(y=np.array([0.0, np.nan, 2.0])), "subject 1: non-finite values in y"),
    "none-cell": (dict(y=np.array([0.0, None, 2.0], dtype=object)),
                  "subject 1: non-finite values in y"),
    # unchecked, numpy's bare ValueError "could not convert string to float"
    "string-cell": (dict(y=[0.0, "a", 2.0]), "y must hold real numbers, got dtype <U32"),
    "object-string-cell": (dict(X=np.array([[1.0, 1.0], [1.0, "a"], [1.0, 1.0]], dtype=object)),
                           "X must hold real numbers, got a cell 'a'"),
    # unchecked, a ComplexWarning, and the imaginary part dropped
    "complex": (dict(y=[1 + 2j, 2.0, 3.0]), "y must hold real numbers, got dtype complex128"),
    "object-complex-cell": (dict(Z=np.array([[1.0], [2j], [1.0]], dtype=object)),
                            "Z must hold real numbers, got a cell 2j"),
    "x_names": (dict(x_names=["a"]), "x_names must have shape (2,), got (1,)"),
    # unchecked, a fit on such a column reported converged at beta 0 and the sigma2 floor
    "y-underflow": (dict(y=1e-200 * np.arange(3.0)),
                    "column 'y': sum of squares underflows double precision; rescale"),
    "X-underflow": (dict(X=np.array([[1.0, 1e-160], [1.0, 0.0], [1.0, -1e-160]])),
                    "column 'x2': sum of squares underflows double precision; rescale"),
}


@pytest.mark.parametrize("case", list(_CONSTRUCTOR_REFUSALS))
def test_constructor_refuses_arrays_that_do_not_fit(case):
    changes, message = _CONSTRUCTOR_REFUSALS[case]
    with pytest.raises(DataError) as err:
        LongitudinalDataset(**{**_VALID, **changes})
    assert str(err.value) == message


def test_constructor_builds_an_all_zero_column():
    # its sum of squares is below the underflow refusal's bound, but no entry is lost
    ds = LongitudinalDataset(**{**_VALID, "X": np.array([[1.0, 0.0]] * 3)})
    assert ds.X[:, 1].tolist() == [0.0] * 3


def test_constructor_takes_object_arrays_of_numbers():
    ds = LongitudinalDataset(**{**_VALID, "X": np.ones((3, 2), dtype=int).astype(object)})
    assert ds.X.dtype == float and ds.X.tolist() == _VALID["X"].tolist()


def test_constructor_copies_and_leaves_callers_arrays_writeable():
    ids, counts = np.array([0, 1], dtype=object), np.array([1, 2])
    y, X, Z = np.arange(3.0), np.ones((3, 2)), np.ones((3, 1))
    ds = LongitudinalDataset(ids, counts, y, X, Z)
    assert all(a.flags.writeable for a in (ids, counts, y, X, Z))
    y[0], counts[0] = 7.0, 2
    assert ds.y[0] == 0.0 and ds.counts[0] == 1
    assert not any(getattr(ds, name).flags.writeable
                   for name in ("subject_ids", "counts", "y", "X", "Z"))
    # a derived dataset shares the read-only arrays it does not replace
    assert ds.select_columns([1]).Z is ds.Z


def test_ingest_and_standardize_hand_their_arrays_to_the_constructor_uncopied(tmp_path,
                                                                               monkeypatch):
    # ingest's grouped y, X and Z and standardize's X and y are made for the
    # dataset, which copied each of them once more (0.3-0.5 ms per 50,000-row
    # build, 0.5 ms per standardize)
    copies = []
    taken = dataset._taken

    def counted(a, dtype=float):
        out = taken(a, dtype)
        if dtype is float:  # y, X and Z; not the ids or counts
            copies.append(out is not a)
        return out

    monkeypatch.setattr(dataset, "_taken", counted)
    f = tmp_path / "chol.csv"
    _write_cholesterol_style_csv(f, n_subjects=20)
    ds = ingest_long_csv(f, ROLES)
    assert copies == [False] * 3
    std = standardize(ds, categorical=[0])
    assert copies == [False] * 6
    assert std.Z is ds.Z and not std.X.flags.writeable


@pytest.mark.parametrize("fixed, random, expected", [
    ("a, b,,c", "1, time", (("a", "b", "c"), ("1", "time"))),
    (["a"], "intercept+ time", (("a",), ("1", "time"))),
    (("a",), ["1", "time"], (("a",), ("1", "time"))),
], ids=["comma-lists", "shorthand-spaced", "sequences"])
def test_roles_from_mapping_parses_comma_lists(fixed, random, expected):
    roles = ColumnRoles.from_mapping(
        {"subject": "id", "response": "y", "fixed": fixed, "random": random})
    assert (roles.fixed, roles.random) == expected



# Both ingest routes on hand-written files: the one np.loadtxt pass, and the
# csv.reader row loop it falls back to.  c_route says whether the file is read
# without the row loop.
_HEAD = "id,y,x1,t,note\n"
_ROUTE_CASES = {
    "blank_lines": (_HEAD + "A,1,2,1,a\n\nB,2,3,1,b\n\n\nA,3,4,2,c\n", True),
    "blank_lines_only": (_HEAD + "\n\n\n", True),
    "crlf": (_HEAD.replace("\n", "\r\n") + "A,1,2,1,a\r\nB,2,3,1,b\r\nA,3,4,2,c\r\n", True),
    "quoted_ids": (_HEAD + '"a,b",1,2,1,x\n"q""d",2,3,1,y\n"new\nline",3,4,2,z\n'
                   '"a,b",4,5,2,w\n', True),
    "hash_in_id": (_HEAD + "#7,1,2,1,a\nB#,2,3,1,b\n", True),
    "underscore_cell": (_HEAD + "A,1,2,1,a\nA,1_0,3,2,b\n", False),
    "unused_free_text": (_HEAD + 'A,1,2,1,"free text, quoted"\nB,2,3,1,some words\n', True),
    "trailing_comma": (_HEAD + "A,1,2,1,a\nA,2,3,2,b,\n", False),
    "short_row": (_HEAD + "A,1,2,1,a\nA,2,3,2\n", False),
    "long_row": (_HEAD + "A,1,2,1,a\nA,2,3,2,b,c\n", False),
    "oops_in_row_3": (_HEAD + "A,1,2,1,a\nA,oops,3,2,b\n", False),
    "separator_padded_cell": (_HEAD + "A,1,2,1,a\nA,\x1c2,3,2,b\n", False),
}


def _ingest_outcome(path):
    try:
        ds = ingest_long_csv(path, ColumnRoles("id", "y", ("x1",), ("1", "t")))
    except DataError as e:
        return type(e), str(e)
    return ([getattr(ds, name).tobytes() for name in ("y", "X", "Z", "counts")],
            list(ds.subject_ids))


@pytest.mark.parametrize("case", list(_ROUTE_CASES))
def test_ingest_routes_agree(tmp_path, monkeypatch, case):
    text, c_route = _ROUTE_CASES[case]
    f = tmp_path / "in.csv"
    f.write_bytes(text.encode())
    row_loops = []
    parse_rows = dataset._parse_rows
    monkeypatch.setattr(dataset, "_parse_rows",
                        lambda *a: row_loops.append(1) or parse_rows(*a))
    fast = _ingest_outcome(f)
    assert row_loops == ([] if c_route else [1])

    def refuse(*a):
        raise ValueError("forced onto the row loop")

    monkeypatch.setattr(dataset, "_parse_table", refuse)
    assert _ingest_outcome(f) == fast


def test_valid_file_is_read_by_one_loadtxt_call_and_no_row_loop(tmp_path, monkeypatch):
    f = tmp_path / "chol.csv"
    _write_cholesterol_style_csv(f)
    f.write_text("\n".join(line + ",free text" for line in f.read_text().splitlines()) + "\n")
    calls = []
    loadtxt = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *a, **kw: calls.append(1) or loadtxt(*a, **kw))
    monkeypatch.setattr(dataset, "_parse_rows", lambda *a: pytest.fail("row loop ran"))
    ds = ingest_long_csv(f, ROLES)
    assert calls == [1]
    assert (ds.n, ds.N, ds.p, ds.q) == (200, 600, 3, 2)



def test_pipe_that_needs_the_row_loop_is_read_once(tmp_path):
    # a pipe cannot be reread, so it goes straight to the row loop, which
    # reads the "1_0" cell that the C pass refuses
    f = tmp_path / "in.csv"
    f.write_text(_HEAD + "A,1,2,1,a\nB,1_0,3,1,b\nA,3,4,2,c\n")
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    writer = threading.Thread(target=lambda: fifo.write_bytes(f.read_bytes()))
    writer.start()
    try:
        piped = _ingest_outcome(fifo)
    finally:
        writer.join()
    assert piped == _ingest_outcome(f)
    assert piped[1] == ["A", "B"]


@pytest.mark.parametrize("rows", ["A,1,2,1,a\nB,2,3,1,b\nA,3,4,2,c\n",
                                  "A,1,2,1,a\nB,1_0,3,1,b\nA,3,4,2,c\n"],
                         ids=["c-pass", "row-loop"])
def test_byte_order_mark_before_a_quoted_first_header_cell_is_dropped(tmp_path, rows):
    # csv reads '\ufeff"id"' as the cell \ufeff"id" (the quote is not its
    # first character), so the mark must go before csv parses the header;
    # a pipe takes the same route with no second read
    plain = tmp_path / "plain.csv"
    plain.write_text(_HEAD + rows, encoding="utf-8")
    marked = tmp_path / "marked.csv"
    marked.write_text('\ufeff"id","y",x1,t,note\n' + rows, encoding="utf-8")
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    writer = threading.Thread(target=lambda: fifo.write_bytes(marked.read_bytes()))
    writer.start()
    try:
        piped = _ingest_outcome(fifo)
    finally:
        writer.join()
    assert _ingest_outcome(marked) == piped == _ingest_outcome(plain)
    assert piped[1] == ["A", "B"]
