"""Grouped longitudinal data: ingestion, standardization, rank screening.

A dataset is an ordered collection of per-subject blocks (y_i, X_i, Z_i)
sharing the fixed-effect dimension p and random-effect dimension q.
Values are immutable after construction, so datasets can be shared
read-only across concurrent fits.
"""

from __future__ import annotations

import csv
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


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class SubjectBlock:
    """One subject's response, fixed-effect design, and random-effect design."""

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
        for name, arr in (("y", y), ("X", X), ("Z", Z)):
            if arr.size and not np.isfinite(arr).all():
                raise DataError(f"subject {self.subject_id!r}: non-finite values in {name}")
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
        mask = np.ascontiguousarray(self.x_exempt, dtype=bool)
        mask.setflags(write=False)
        object.__setattr__(self, "x_exempt", mask)

    def subset(self, cols) -> "StandardizationRecord":
        cols = np.asarray(cols, dtype=int)
        return StandardizationRecord(self.x_center[cols], self.x_scale[cols],
                                     self.x_exempt[cols], self.y_center, self.y_scale)


class LongitudinalDataset:
    """Immutable grouped dataset with cached stacked views and block moments."""

    def __init__(self, blocks, x_names=None, y_name="y", z_names=None,
                 standardization: StandardizationRecord | None = None):
        blocks = tuple(blocks)
        if not blocks:
            raise DataError("dataset needs at least one subject")
        p = blocks[0].X.shape[1]
        q = blocks[0].Z.shape[1]
        for b in blocks:
            if b.X.shape[1] != p:
                raise DataError(f"subject {b.subject_id!r}: expected {p} fixed-effect columns")
            if b.Z.shape[1] != q:
                raise DataError(f"subject {b.subject_id!r}: expected {q} random-effect columns")
        if q < 1:
            raise DataError("random-effect design must have at least one column")
        self.blocks = blocks
        self.n = len(blocks)
        self.p = p
        self.q = q
        counts = np.array([b.n_obs for b in blocks])
        self.N = int(counts.sum())
        self.starts = np.concatenate([[0], np.cumsum(counts)[:-1]]).astype(int)
        self.counts = counts
        self.X = _frozen(np.vstack([b.X for b in blocks]) if p else np.zeros((self.N, 0)))
        self.y = _frozen(np.concatenate([b.y for b in blocks]))
        self.Z = _frozen(np.vstack([b.Z for b in blocks]))
        self.x_names = list(x_names) if x_names is not None else [f"x{j + 1}" for j in range(p)]
        if len(self.x_names) != p:
            raise DataError("x_names length does not match p")
        self.y_name = y_name
        self.z_names = list(z_names) if z_names is not None else [f"z{j + 1}" for j in range(q)]
        self.standardization = standardization
        self._moments = None

    def slices(self):
        for start, count in zip(self.starts, self.counts):
            yield slice(int(start), int(start + count))

    @property
    def block_moments(self):
        """Batched per-subject cross products (Z'Z, Z'X, Z'y).

        Shapes (n, q, q), (n, q, p), (n, q); computed once and cached.
        """
        if self._moments is None:
            n, q, p = self.n, self.q, self.p
            ztz = np.empty((n, q, q))
            ztx = np.empty((n, q, p))
            zty = np.empty((n, q))
            for i, b in enumerate(self.blocks):
                ztz[i] = b.Z.T @ b.Z
                ztx[i] = b.Z.T @ b.X
                zty[i] = b.Z.T @ b.y
            self._moments = (_frozen(ztz), _frozen(ztx), _frozen(zty))
        return self._moments

    def select_columns(self, cols) -> "LongitudinalDataset":
        """Dataset with X restricted to the given column indices (in order)."""
        cols = list(cols)
        blocks = [SubjectBlock(b.subject_id, b.y, b.X[:, cols], b.Z) for b in self.blocks]
        record = self.standardization.subset(cols) if self.standardization else None
        return LongitudinalDataset(blocks, [self.x_names[j] for j in cols],
                                   self.y_name, self.z_names, record)

    def subset_subjects(self, indices) -> "LongitudinalDataset":
        blocks = [self.blocks[i] for i in indices]
        return LongitudinalDataset(blocks, self.x_names, self.y_name,
                                   self.z_names, self.standardization)


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
    header.
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
        numeric_cols = [col_index[c] for c in needed[1:]]
        groups: dict = {}
        for rownum, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(f"{path}: row {rownum} has {len(row)} fields, expected {len(header)}")
            values = {}
            for ci in numeric_cols:
                cell = row[ci]
                try:
                    values[ci] = float(cell)
                except ValueError:
                    raise DataError(
                        f"{path}: row {rownum}: non-numeric value {cell!r} "
                        f"in column {header[ci]!r}") from None
            groups.setdefault(row[sub_i], []).append(values)

    if not groups:
        raise DataError(f"{path}: no data rows")

    y_i = col_index[roles.response]
    x_is = [col_index[c] for c in roles.fixed]
    blocks = []
    for subject_id, rows in groups.items():
        y = np.array([r[y_i] for r in rows])
        X = np.array([[r[ci] for ci in x_is] for r in rows]).reshape(len(rows), len(x_is))
        zcols = []
        for c in roles.random:
            if c == "1":
                zcols.append(np.ones(len(rows)))
            else:
                ci = col_index[c]
                zcols.append(np.array([r[ci] for r in rows]))
        Z = np.column_stack(zcols)
        blocks.append(SubjectBlock(subject_id, y, X, Z))

    z_names = ["1" if c == "1" else c for c in roles.random]
    return LongitudinalDataset(blocks, list(roles.fixed), roles.response, z_names)


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
    for j in categorical:
        exempt[j] = True

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
    blocks = [
        SubjectBlock(b.subject_id, (b.y - y_center) / y_scale,
                     (b.X - center) / scale, b.Z)
        for b in ds.blocks
    ]
    return LongitudinalDataset(blocks, ds.x_names, ds.y_name, ds.z_names, record)


def destandardize(ds: LongitudinalDataset) -> LongitudinalDataset:
    """Invert a standardize() transform, recovering original-scale values."""
    rec = ds.standardization
    if rec is None:
        raise ConfigurationError("dataset carries no standardization record")
    blocks = [
        SubjectBlock(b.subject_id, b.y * rec.y_scale + rec.y_center,
                     b.X * rec.x_scale + rec.x_center, b.Z)
        for b in ds.blocks
    ]
    return LongitudinalDataset(blocks, ds.x_names, ds.y_name, ds.z_names, None)


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
    if rank_tol <= 0:
        raise ConfigurationError("rank_tol must be > 0")
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
