import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lmmlasso.dataset import (
    ColumnRoles,
    LongitudinalDataset,
    SubjectBlock,
    beta_original_scale,
    destandardize,
    ingest_long_csv,
    remove_linear_combos,
    standardize,
)
from lmmlasso.exceptions import ConfigurationError, DataError
from lmmlasso.fileio import write_csv

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
    assert np.all(ds.blocks[0].Z[:, 0] == 1.0)
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
    assert [b.subject_id for b in ds.blocks] == ["A", "B"]
    np.testing.assert_array_equal(ds.blocks[0].y, [1, 3])
    np.testing.assert_array_equal(ds.blocks[1].y, [2, 4])
    rows = sorted((float(ds.y[i]), float(ds.X[i, 0])) for i in range(ds.N))
    assert rows == [(1.0, 10.0), (2.0, 20.0), (3.0, 30.0), (4.0, 40.0)]


def test_roles_shorthand():
    roles = ColumnRoles.from_mapping(
        {"subject": "id", "response": "y", "fixed": ["a"], "random": "intercept+time"})
    assert roles.random == ("1", "time")


def _toy_dataset(seed=5, n=40, n_i=4, p=3):
    rng = np.random.default_rng(seed)
    blocks = []
    for i in range(n):
        X = rng.normal(6.0, 1.0, size=(n_i, p))
        Z = np.column_stack([np.ones(n_i), np.arange(1, n_i + 1)])
        y = X @ np.ones(p) + rng.normal(size=n_i)
        blocks.append(SubjectBlock(i, y, X, Z))
    return LongitudinalDataset(blocks)


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
    blocks = [
        SubjectBlock(b.subject_id, b.y,
                     np.column_stack([sex[sl], b.X]), b.Z)
        for b, sl in zip(base.blocks, base.slices())
    ]
    ds = LongitudinalDataset(blocks)
    out = standardize(ds, categorical=[0])
    np.testing.assert_array_equal(out.X[:, 0], sex)
    np.testing.assert_allclose(out.X[:, 1:].std(axis=0, ddof=1), 1.0, atol=1e-10)


def test_standardize_rejects_constant_column():
    base = _toy_dataset()
    blocks = [
        SubjectBlock(b.subject_id, b.y,
                     np.column_stack([np.full(b.n_obs, 3.0), b.X]), b.Z)
        for b in base.blocks
    ]
    with pytest.raises(DataError, match="zero variance"):
        standardize(LongitudinalDataset(blocks))


def test_destandardize_round_trip():
    ds = _toy_dataset(seed=9)
    back = destandardize(standardize(ds))
    np.testing.assert_allclose(back.X, ds.X, rtol=1e-12)
    np.testing.assert_allclose(back.y, ds.y, rtol=1e-12)


def test_beta_original_scale_reproduces_predictions():
    ds = _toy_dataset(seed=13)
    std = standardize(ds)
    rng = np.random.default_rng(1)
    beta_s = rng.normal(size=ds.p)
    beta_o, intercept = beta_original_scale(std.standardization, beta_s)
    pred_std = std.standardization.y_center + std.standardization.y_scale * (std.X @ beta_s)
    pred_orig = intercept + ds.X @ beta_o
    np.testing.assert_allclose(pred_std, pred_orig, rtol=1e-12)


def _with_dependent_column(seed=3, n=20, n_i=3):
    rng = np.random.default_rng(seed)
    blocks = []
    for i in range(n):
        A = rng.normal(size=(n_i, 2))
        X = np.column_stack([A[:, 0], A[:, 1], A[:, 0] + A[:, 1], rng.normal(size=n_i)])
        Z = np.ones((n_i, 1))
        blocks.append(SubjectBlock(i, rng.normal(size=n_i), X, Z))
    return LongitudinalDataset(blocks)


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
    blocks = [SubjectBlock(i, rng.normal(size=4), rng.normal(size=(4, 3)),
                           np.ones((4, 1))) for i in range(10)]
    _, report = remove_linear_combos(LongitudinalDataset(blocks))
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
    blocks = []
    r = 0
    for i, c in enumerate(counts):
        blocks.append(SubjectBlock(i, rng.normal(size=c), X[r:r + c],
                                   np.ones((c, 1))))
        r += c
    reduced, report = remove_linear_combos(LongitudinalDataset(blocks))
    assert len(report.kept) == 70
    assert reduced.p == 70


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
    assert part.blocks[0].subject_id == 4


def test_dataset_arrays_are_readonly():
    ds = _toy_dataset(seed=2, n=3)
    with pytest.raises(ValueError):
        ds.X[0, 0] = 99.0
    with pytest.raises(ValueError):
        ds.blocks[0].y[0] = 99.0


def test_blocks_view_is_built_once():
    ds = _toy_dataset(seed=4, n=5)
    assert ds.blocks is ds.blocks
    assert [b.subject_id for b in ds.blocks] == list(ds.subject_ids)
    for b, sl in zip(ds.blocks, ds.slices()):
        np.testing.assert_array_equal(b.X, ds.X[sl])


def test_gram_is_cached_read_only():
    ds = _toy_dataset(seed=6, n=5)
    gram = ds.gram
    assert ds.gram is gram
    np.testing.assert_array_equal(gram, ds.X.T @ ds.X)
    with pytest.raises(ValueError):
        gram[0, 0] = 99.0
    w, V = ds.gram_factor((0, 2))
    assert ds.gram_factor([0, 2])[1] is V
    np.testing.assert_allclose((V * w) @ V.T, gram[np.ix_([0, 2], [0, 2])], atol=1e-10)
    with pytest.raises(ValueError):
        w[0] = 99.0


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
    """A small dataset from SubjectBlocks: 1-6 subjects of 1-4 rows, p in 0..3, q in 1..3."""
    p = draw(st.integers(0, 3))
    q = draw(st.integers(1, 3))
    counts = draw(st.lists(st.integers(1, 4), min_size=1, max_size=6))
    counts[0] += max(0, min_rows - sum(counts))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = [SubjectBlock(f"s{i}", rng.normal(6.0, 1.0, size=c),
                           rng.normal(6.0, 1.0, size=(c, p)), rng.normal(size=(c, q)))
              for i, c in enumerate(counts)]
    return LongitudinalDataset(blocks)


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
    for (sid, sub_rows), block in zip(by_subject.items(), ds.blocks):
        assert block.subject_id == sid
        np.testing.assert_array_equal(block.y, [r[1] for r in sub_rows])
        np.testing.assert_array_equal(
            block.X, np.array([r[2:2 + p] for r in sub_rows]).reshape(len(sub_rows), p))
        np.testing.assert_array_equal(
            block.Z, [[1.0 if c == "1" else r[col[c]] for c in random] for r in sub_rows])
    assert ds.z_names == list(random)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_datasets())
def test_block_moments_match_per_subject_products(ds):
    ztz, ztx, zty = ds.block_moments
    assert ztx.shape == (ds.n, ds.q, ds.p)
    for i, b in enumerate(ds.blocks):
        np.testing.assert_allclose(ztz[i], b.Z.T @ b.Z, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(ztx[i], b.Z.T @ b.X, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(zty[i], b.Z.T @ b.y, rtol=1e-12, atol=1e-12)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_datasets(min_rows=2), st.booleans(), st.booleans())
def test_destandardize_inverts_standardize(ds, center_categorical, scale_y):
    categorical = [j for j in range(ds.p) if j % 2]
    std = standardize(ds, categorical=categorical, center_categorical=center_categorical,
                      scale_y=scale_y)
    back = destandardize(std)
    np.testing.assert_allclose(back.X, ds.X, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(back.y, ds.y, rtol=1e-12, atol=0.0)
    assert back.standardization is None


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.data())
def test_select_columns_and_subset_subjects_match_rebuilt_datasets(data):
    ds = data.draw(_datasets(min_rows=2))
    if data.draw(st.booleans()):
        ds = standardize(ds)
    cols = data.draw(st.lists(st.integers(0, max(ds.p - 1, 0)), max_size=ds.p, unique=True))
    sub = ds.select_columns(cols)
    rebuilt = LongitudinalDataset(
        [SubjectBlock(b.subject_id, b.y, b.X[:, cols], b.Z) for b in ds.blocks],
        [ds.x_names[j] for j in cols], ds.y_name, ds.z_names)
    _assert_same_dataset(sub, rebuilt)
    if ds.standardization is not None:
        np.testing.assert_array_equal(sub.standardization.x_scale,
                                      ds.standardization.x_scale[cols])

    idx = data.draw(st.lists(st.integers(0, ds.n - 1), min_size=1, max_size=ds.n,
                             unique=True))
    part = ds.subset_subjects(idx)
    _assert_same_dataset(part, LongitudinalDataset([ds.blocks[i] for i in idx], ds.x_names,
                                                   ds.y_name, ds.z_names))
    assert part.standardization is ds.standardization
