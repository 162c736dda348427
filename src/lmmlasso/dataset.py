"""Grouped longitudinal data: ingestion, standardization, rank screening.

A dataset is held as stacked arrays: the response y and the designs X
(p fixed-effect columns) and Z (q random-effect columns), rows grouped
by subject, with per-subject cross products computed by grouped sums.
The dataset also caches X'X and the eigendecompositions of its blocks.
Values are immutable after construction, so datasets can be shared
read-only across concurrent fits.
"""

from __future__ import annotations

import csv
from array import array
from dataclasses import dataclass, field

import numpy as np

from .exceptions import ConfigurationError, DataError

__all__ = [
    "SubjectBlock",
    "LongitudinalDataset",
    "StandardizationRecord",
    "ColumnRoles",
    "ColumnReductionReport",
    "ingest_long_csv",
    "standardize",
    "destandardize",
    "remove_linear_combos",
    "beta_original_scale",
]


def _frozen(a, dtype=float) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=dtype)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class SubjectBlock:
    """One subject's response, fixed-effect design, and random-effect design.

    The constructor's input format and the type of LongitudinalDataset.blocks;
    the dataset checks that the values are finite.
    """

    subject_id: object
    y: np.ndarray
    X: np.ndarray
    Z: np.ndarray

    def __post_init__(self):
        y = _frozen(np.atleast_1d(self.y))
        X = _frozen(np.atleast_2d(self.X))
        Z = _frozen(np.atleast_2d(self.Z))
        if y.ndim != 1 or y.shape[0] < 1:
            raise DataError(f"subject {self.subject_id!r}: y must be a nonempty vector")
        if X.shape[0] != y.shape[0] or Z.shape[0] != y.shape[0]:
            raise DataError(f"subject {self.subject_id!r}: row counts of y, X, Z differ")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Z", Z)

    @property
    def n_obs(self) -> int:
        return self.y.shape[0]


@dataclass(frozen=True)
class StandardizationRecord:
    """Per-column centering/scaling applied to X plus the (center, scale) of y."""

    x_center: np.ndarray
    x_scale: np.ndarray
    x_exempt: np.ndarray  # boolean mask of columns left unscaled
    y_center: float
    y_scale: float

    def __post_init__(self):
        object.__setattr__(self, "x_center", _frozen(self.x_center))
        object.__setattr__(self, "x_scale", _frozen(self.x_scale))
        object.__setattr__(self, "x_exempt", _frozen(self.x_exempt, bool))

    def subset(self, cols) -> "StandardizationRecord":
        cols = np.asarray(cols, dtype=int)
        return StandardizationRecord(self.x_center[cols], self.x_scale[cols],
                                     self.x_exempt[cols], self.y_center, self.y_scale)


class LongitudinalDataset:
    """Immutable grouped dataset held as stacked arrays.

    Subject i, with id subject_ids[i], owns the counts[i] rows of y (N,),
    X (N, p) and Z (N, q) from starts[i].  The constructor takes
    SubjectBlocks; every derived dataset is built from arrays by
    _from_arrays, and blocks is a view.
    """

    _FIELDS = ("subject_ids", "counts", "y", "X", "Z", "x_names", "y_name", "z_names",
               "standardization")

    def __init__(self, blocks, x_names=None, y_name="y", z_names=None,
                 standardization: StandardizationRecord | None = None):
        blocks = tuple(blocks)
        if not blocks:
            raise DataError("dataset needs at least one subject")
        p, q = blocks[0].X.shape[1], blocks[0].Z.shape[1]
        for b in blocks:
            if b.X.shape[1] != p:
                raise DataError(f"subject {b.subject_id!r}: expected {p} fixed-effect columns")
            if b.Z.shape[1] != q:
                raise DataError(f"subject {b.subject_id!r}: expected {q} random-effect columns")
        ids = np.fromiter((b.subject_id for b in blocks), dtype=object, count=len(blocks))
        self._setup(ids, [b.n_obs for b in blocks], np.concatenate([b.y for b in blocks]),
                    np.vstack([b.X for b in blocks]), np.vstack([b.Z for b in blocks]),
                    x_names, y_name, z_names, standardization)

    @classmethod
    def _from_arrays(cls, *fields, **named) -> "LongitudinalDataset":
        """A dataset from stacked arrays whose rows are grouped by subject (see _setup)."""
        ds = cls.__new__(cls)
        ds._setup(*fields, **named)
        return ds

    def _setup(self, subject_ids, counts, y, X, Z, x_names=None, y_name="y", z_names=None,
               standardization=None):
        """Store and check the arrays; the one path every dataset is built by."""
        self.counts = _frozen(counts, int)
        self.n = self.counts.size
        if not self.n:
            raise DataError("dataset needs at least one subject")
        self.N = int(self.counts.sum())
        self.starts = np.cumsum(self.counts) - self.counts
        self.subject_ids = _frozen(subject_ids, object)
        self.y, self.X, self.Z = _frozen(y), _frozen(X), _frozen(Z)
        self.p, self.q = self.X.shape[1], self.Z.shape[1]
        if self.q < 1:
            raise DataError("random-effect design must have at least one column")
        for name, a in (("y", self.y[:, None]), ("X", self.X), ("Z", self.Z)):
            bad = np.flatnonzero(~np.isfinite(a).all(axis=1))
            if bad.size:
                i = np.searchsorted(self.starts, bad[0], side="right") - 1
                raise DataError(f"subject {self.subject_ids[i]!r}: non-finite values in {name}")
        self.x_names = list(x_names) if x_names is not None else [f"x{j + 1}" for j in range(self.p)]
        if len(self.x_names) != self.p:
            raise DataError("x_names length does not match p")
        self.y_name = y_name
        self.z_names = list(z_names) if z_names is not None else [f"z{j + 1}" for j in range(self.q)]
        self.standardization = standardization
        self._moments = None
        self._blocks = None
        self._gram = None
        self._gram_factors = {}

    def _derive(self, **changes) -> "LongitudinalDataset":
        """This dataset with some of _setup's arguments (_FIELDS) replaced."""
        return self._from_arrays(**{k: changes.get(k, getattr(self, k)) for k in self._FIELDS})

    def slices(self):
        for start, count in zip(self.starts, self.counts):
            yield slice(int(start), int(start + count))

    @property
    def blocks(self) -> tuple:
        """Read-only per-subject SubjectBlock views, built on first access."""
        if self._blocks is None:
            self._blocks = tuple(SubjectBlock(i, self.y[s], self.X[s], self.Z[s])
                                 for i, s in zip(self.subject_ids, self.slices()))
        return self._blocks

    @property
    def block_moments(self):
        """Batched per-subject cross products (Z'Z, Z'X, Z'y).

        Shapes (n, q, q), (n, q, p), (n, q); grouped sums (np.add.reduceat)
        of row products, one column of Z at a time.  Computed once and cached.
        """
        if self._moments is None:
            n, q, p = self.n, self.q, self.p
            ztz = np.empty((n, q, q))
            ztx = np.empty((n, q, p))
            zty = np.empty((n, q))
            for k in range(q):
                z = self.Z[:, k, None]
                ztz[:, k] = np.add.reduceat(z * self.Z, self.starts)
                ztx[:, k] = np.add.reduceat(z * self.X, self.starts)
                zty[:, k] = np.add.reduceat(z[:, 0] * self.y, self.starts)
            self._moments = (_frozen(ztz), _frozen(ztx), _frozen(zty))
        return self._moments

    @property
    def gram(self) -> np.ndarray:
        """X'X, (p, p).  Computed once and cached read-only."""
        if self._gram is None:
            self._gram = _frozen(self.X.T @ self.X)
        return self._gram

    def gram_factor(self, cols):
        """np.linalg.eigh of the cols x cols block of X'X, cached read-only per column tuple."""
        cols = tuple(cols)
        if cols not in self._gram_factors:
            self._gram_factors[cols] = tuple(
                map(_frozen, np.linalg.eigh(self.gram[np.ix_(cols, cols)])))
        return self._gram_factors[cols]

    def select_columns(self, cols) -> "LongitudinalDataset":
        """Dataset with X restricted to the given column indices (in order)."""
        cols = list(cols)
        record = self.standardization.subset(cols) if self.standardization else None
        return self._derive(X=self.X[:, cols], x_names=[self.x_names[j] for j in cols],
                            standardization=record)

    def subset_subjects(self, indices) -> "LongitudinalDataset":
        """Dataset of the given subjects (indices into subject order), in that order."""
        idx = np.asarray(indices, dtype=int)
        counts = self.counts[idx]
        offsets = self.starts[idx] - (np.cumsum(counts) - counts)
        rows = np.arange(counts.sum()) + np.repeat(offsets, counts)
        return self._derive(subject_ids=self.subject_ids[idx], counts=counts,
                            y=self.y[rows], X=self.X[rows], Z=self.Z[rows])


@dataclass(frozen=True)
class ColumnRoles:
    """Mapping of CSV columns onto model roles.

    random entries may name file columns or use the literal "1" for a
    synthesized all-ones (intercept) column.  The shorthand string
    "intercept+<col>" expands to ["1", "<col>"].
    """

    subject: str
    response: str
    fixed: tuple
    random: tuple

    @classmethod
    def from_mapping(cls, d: dict) -> "ColumnRoles":
        try:
            subject = d["subject"]
            response = d["response"]
            fixed = tuple(d["fixed"])
            random = d["random"]
        except KeyError as e:
            raise ConfigurationError(f"column-role mapping is missing {e.args[0]!r}") from None
        if isinstance(random, str):
            if random.startswith("intercept+"):
                random = ("1", random.split("+", 1)[1])
            else:
                raise ConfigurationError(
                    "random must be a list of columns or 'intercept+<col>'")
        return cls(subject, response, fixed, tuple(random))


@dataclass(frozen=True)
class ColumnReductionReport:
    """Outcome of linear-dependency screening of the fixed-effect design."""

    kept: tuple
    dropped: tuple
    dependency_sets: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "kept": list(self.kept),
            "dropped": list(self.dropped),
            "dependency_sets": {str(j): list(v) for j, v in self.dependency_sets.items()},
        }


def ingest_long_csv(path, roles: ColumnRoles) -> LongitudinalDataset:
    """Read a long-format CSV (one row per observation, header required).

    Rows are grouped by the subject column preserving within-subject file
    order; subjects are ordered by first appearance.  No standardization
    is applied.  A column given a role must appear exactly once in the
    header.  Role columns are parsed into float buffers, and rows grouped
    by a stable sort of the subjects' first-appearance codes.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        col_index = {name: i for i, name in enumerate(header)}
        needed = [roles.subject, roles.response, *roles.fixed]
        needed += [c for c in roles.random if c != "1"]
        for name in needed:
            if name not in col_index:
                raise ConfigurationError(f"{path}: column {name!r} not found in header")
            if header.count(name) > 1:
                raise DataError(f"{path}: column {name!r} appears more than once in header")

        sub_i = col_index[roles.subject]
        columns = {col_index[c]: array("d") for c in needed[1:]}
        codes = array("q")
        first_seen: dict = {}
        for rownum, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(f"{path}: row {rownum} has {len(row)} fields, expected {len(header)}")
            codes.append(first_seen.setdefault(row[sub_i], len(first_seen)))
            try:
                for ci, buf in columns.items():
                    buf.append(float(row[ci]))
            except ValueError:
                raise DataError(
                    f"{path}: row {rownum}: non-numeric value {row[ci]!r} "
                    f"in column {header[ci]!r}") from None

    if not codes:
        raise DataError(f"{path}: no data rows")
    codes = np.frombuffer(codes, dtype=np.int64)
    order = np.argsort(codes, kind="stable")
    values = {ci: np.frombuffer(buf)[order] for ci, buf in columns.items()}

    def stack(cols):
        return np.column_stack(cols) if cols else np.empty((codes.size, 0))

    X = stack([values[col_index[c]] for c in roles.fixed])
    Z = stack([np.ones(codes.size) if c == "1" else values[col_index[c]] for c in roles.random])
    return LongitudinalDataset._from_arrays(
        list(first_seen), np.bincount(codes), values[col_index[roles.response]], X, Z,
        roles.fixed, roles.response, roles.random)


def standardize(ds: LongitudinalDataset, categorical=(), center_categorical=False,
                scale_y=True) -> LongitudinalDataset:
    """Center and scale pooled X columns and the response.

    Columns listed in ``categorical`` (indices) are exempt from scaling
    and, unless center_categorical is set, from centering too.  The
    response is always centered and scaled when scale_y.  Sample standard
    deviations use the n-1 convention.  A non-exempt constant column is a
    data error.
    """
    if ds.standardization is not None:
        raise ConfigurationError("dataset is already standardized")
    exempt = np.zeros(ds.p, dtype=bool)
    exempt[list(categorical)] = True

    center = ds.X.mean(axis=0) if ds.p else np.zeros(0)
    scale = ds.X.std(axis=0, ddof=1) if ds.N > 1 else np.zeros(ds.p)
    for j in range(ds.p):
        if not exempt[j] and scale[j] == 0.0:
            raise DataError(f"column {ds.x_names[j]!r} has zero variance; "
                            "flag it categorical or drop it")
    if not center_categorical:
        center = np.where(exempt, 0.0, center)
    scale = np.where(exempt, 1.0, np.where(scale == 0.0, 1.0, scale))

    y_center = float(ds.y.mean())
    y_scale = float(ds.y.std(ddof=1)) if scale_y else 1.0
    if scale_y and y_scale == 0.0:
        raise DataError("response has zero variance")

    record = StandardizationRecord(center, scale, exempt, y_center, y_scale)
    return ds._derive(y=(ds.y - y_center) / y_scale, X=(ds.X - center) / scale,
                      standardization=record)


def destandardize(ds: LongitudinalDataset) -> LongitudinalDataset:
    """Invert a standardize() transform, recovering original-scale values."""
    rec = ds.standardization
    if rec is None:
        raise ConfigurationError("dataset carries no standardization record")
    return ds._derive(y=ds.y * rec.y_scale + rec.y_center,
                      X=ds.X * rec.x_scale + rec.x_center, standardization=None)


def beta_original_scale(record: StandardizationRecord, beta: np.ndarray):
    """Map coefficients fitted on standardized data back to original units.

    Returns (beta_original, implied_intercept).  The intercept term arises
    from the centering of X and y and is not part of the fitted model.
    """
    beta = np.asarray(beta, dtype=float)
    beta_orig = beta * record.y_scale / record.x_scale
    intercept = record.y_center - float(beta_orig @ record.x_center)
    return beta_orig, intercept


def remove_linear_combos(ds: LongitudinalDataset, rank_tol: float = 1e-7):
    """Drop fixed-effect columns that are linear combinations of earlier ones.

    Columns are scanned left to right; a column is kept when its residual
    after projecting onto the span of previously kept columns exceeds
    rank_tol times the largest column norm.  Earlier columns therefore
    win over later ones, and the result is deterministic and idempotent.

    Returns (reduced dataset, ColumnReductionReport); dependency_sets maps
    each dropped column to the kept columns that reproduce it.
    """
    if not 0.0 < rank_tol < np.inf:
        raise ConfigurationError("rank_tol must be finite and > 0")
    X = ds.X
    p = ds.p
    kept: list = []
    dropped: list = []
    deps: dict = {}
    if p:
        scale = float(np.max(np.linalg.norm(X, axis=0)))
        basis = np.empty((X.shape[0], 0))
        for j in range(p):
            v = X[:, j].copy()
            # two projection passes for numerical reorthogonalization
            for _ in range(2):
                if basis.shape[1]:
                    v -= basis @ (basis.T @ v)
            norm = float(np.linalg.norm(v))
            if scale > 0.0 and norm > rank_tol * scale:
                kept.append(j)
                basis = np.column_stack([basis, v / norm])
            else:
                dropped.append(j)
                if kept:
                    coef, *_ = np.linalg.lstsq(X[:, kept], X[:, j], rcond=None)
                    cmax = float(np.max(np.abs(coef)))
                    mask = np.abs(coef) > 1e-6 * max(cmax, 1e-300)
                    deps[j] = [kept[i] for i in np.flatnonzero(mask)]
                else:
                    deps[j] = []

    report = ColumnReductionReport(tuple(kept), tuple(dropped), deps)
    return ds.select_columns(kept), report
