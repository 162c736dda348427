"""Grouped longitudinal data: ingestion, standardization, rank screening.

A dataset is held as stacked arrays: the response y and the designs X
(p fixed-effect columns) and Z (q random-effect columns), rows grouped
by subject, with per-subject cross products computed by grouped sums.
The dataset also caches X'X, X'y, the distinct Z_i'Z_i blocks, Z
transposed, the Z_i'X_i blocks as rows, whether a mixed-model fit can
identify D on its design, and the eigendecomposition of the last block of
X'X asked for, with that block's columns of X'X.  Values are immutable
after construction, so datasets can be shared read-only across
concurrent fits.
"""

from __future__ import annotations

import csv
import itertools
import os
import warnings
from array import array
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .exceptions import (ConfigurationError, DataError, _checked_array, _checked_int,
                         _checked_real, _checked_shape, _checked_type)

__all__ = [
    "DistinctBlocks",
    "LongitudinalDataset",
    "StandardizationRecord",
    "ColumnRoles",
    "name_list",
    "ColumnReductionReport",
    "ingest_long_csv",
    "standardize",
    "remove_linear_combos",
]


def _frozen(a, dtype=float) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=dtype)
    a.setflags(write=False)
    return a


def _entries(A: np.ndarray) -> tuple:
    """The upper-triangle entries (a00,) or (a00, a01, a11) of one symmetric
    q x q block A, q <= 2, as Python floats: the q x q algebra of the EM
    costs less on them than numpy's per-call dispatch on 2 x 2 arrays."""
    A = A.tolist()
    return (A[0][0],) if len(A) == 1 else (A[0][0], A[0][1], A[1][1])


def _taken(a, dtype=float) -> np.ndarray:
    """_frozen(a) when a is already read-only (another dataset's array), else
    _frozen of a copy, so that the caller's arrays stay writeable."""
    if isinstance(a, np.ndarray) and not a.flags.writeable:
        return _frozen(a, dtype)
    return _frozen(np.array(a, dtype=dtype), dtype)


def _handed_over(*arrays) -> tuple:
    """arrays, which their caller has just made for a dataset, marked read-only
    so that the constructor shares them (_taken) instead of copying them."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


@dataclass(frozen=True)
class StandardizationRecord:
    """Per-column centering/scaling applied to X plus the (center, scale) of y.

    x_center and x_scale are 1-D arrays of one length (_checked_array) and
    y_center and y_scale real numbers (_checked_real), else a
    ConfigurationError naming the field.
    """

    x_center: np.ndarray
    x_scale: np.ndarray
    y_center: float
    y_scale: float

    def __post_init__(self):
        x_center = _checked_array(self.x_center, "StandardizationRecord: x_center", (None,),
                                  ConfigurationError)
        object.__setattr__(self, "x_center", _frozen(x_center))
        object.__setattr__(self, "x_scale", _frozen(_checked_array(
            self.x_scale, "StandardizationRecord: x_scale", x_center.shape, ConfigurationError)))
        for name in ("y_center", "y_scale"):
            object.__setattr__(self, name, _checked_real(getattr(self, name),
                                                         f"StandardizationRecord: {name}"))

    def subset(self, cols) -> "StandardizationRecord":
        cols = np.asarray(cols, dtype=int)
        return StandardizationRecord(self.x_center[cols], self.x_scale[cols],
                                     self.y_center, self.y_scale)

    def original_scale(self, params) -> dict:
        """One member's (beta, sigma2, D), fitted on the standardized data, in
        the data's own units: beta, the intercept that the centering of X and
        y implies (not part of the fitted model), sigma2 and D, as lists and
        floats."""
        beta = params.beta * self.y_scale / self.x_scale
        return {
            "beta": beta.tolist(),
            "intercept": self.y_center - float(beta @ self.x_center),
            "sigma2": params.sigma2 * self.y_scale ** 2,
            "D": (params.D * self.y_scale ** 2).tolist(),
        }


class DistinctBlocks(NamedTuple):
    """The distinct Z_i'Z_i blocks of a dataset (LongitudinalDataset.distinct_ztz).

    Subject i's Z_i'Z_i is ztz[index[i]], and counts[g] subjects share
    block g.  A balanced design, every subject observed at the same times,
    has one block; in the worst case there are n.
    """

    ztz: np.ndarray     # (G, q, q)
    index: np.ndarray   # (n,)
    counts: np.ndarray  # (G,)


class LongitudinalDataset:
    """Immutable grouped dataset held as stacked arrays.

    Subject i, with id subject_ids[i], owns the counts[i] rows of y (N,),
    X (N, p) and Z (N, q) from starts[i].  The constructor takes these
    stacked arrays, rows grouped by subject; ingest, generate_scenario and
    every derived dataset build through it.
    """

    _FIELDS = ("subject_ids", "counts", "y", "X", "Z", "x_names", "y_name", "z_names",
               "standardization")

    def __init__(self, subject_ids, counts, y, X, Z, x_names=None, y_name="y", z_names=None,
                 standardization: StandardizationRecord | None = None):
        """Store and check the arrays; the one path every dataset is built by.

        The arrays are held read-only: a writeable one is copied, so the
        caller's stays writeable, and a read-only one (another dataset's) is
        shared.  Refuses, naming the argument: counts that are not integers
        >= 1; a size that does not match (_checked_shape: an id per subject,
        sum(counts) rows, a name per column); a y, X or Z that _checked_array
        refuses, a non-finite cell named by its subject; and
        columns of y, X or Z whose sum of squares overflows double precision
        (no fit could form X'X or r'r) or, for a column with a nonzero entry,
        underflows it (below the smallest normal double, where the fit's
        products lose the column).
        """
        counts = np.asarray(counts)
        _checked_shape(counts.shape, (None,), "counts")
        if not counts.size:
            raise DataError("dataset needs at least one subject")
        if counts.dtype.kind not in "iu":
            raise DataError(f"counts must be integers, got dtype {counts.dtype}")
        if counts.min() < 1:
            raise DataError(f"counts must be >= 1, got {counts.min()}")
        self.counts = _taken(counts, int)
        self.n = self.counts.size
        self.N = int(self.counts.sum())
        self.starts = np.cumsum(self.counts) - self.counts
        self.subject_ids = _taken(subject_ids, object)
        _checked_shape(self.subject_ids.shape, (self.n,), "subject_ids")
        for name, a, shape in (("y", y, (self.N,)), ("X", X, (self.N, None)),
                               ("Z", Z, (self.N, None))):
            try:
                a = _taken(_checked_array(a, name, shape))
            except DataError as err:  # a NaN or inf is named by the subject of its first row
                if str(err) != f"{name} must be finite, got a NaN or inf":
                    raise
                rows = np.isfinite(np.asarray(a, dtype=float).reshape(len(a), -1)).all(axis=1)
                sid = self.subject_ids[self.starts.searchsorted(rows.argmin(), side="right") - 1]
                raise DataError(f"subject {sid!r}: non-finite values in {name}") from None
            setattr(self, name, a)
        self.p, self.q = self.X.shape[1], self.Z.shape[1]
        if self.q < 1:
            raise DataError("random-effect design must have at least one column")
        for what, names, size in (("x_names", x_names, self.p), ("z_names", z_names, self.q)):
            names = ([f"{what[0]}{j + 1}" for j in range(size)] if names is None else
                     list(_iterated(names, f"{what} must be an iterable of names")))
            _checked_shape((len(names),), (size,), what)
            for name in names:
                _checked_type(name, str, f"{what} must hold names (str)")
            setattr(self, what, names)
        self.y_name = y_name
        with np.errstate(over="ignore"):  # refused below, by name
            squares = np.concatenate([[self.y @ self.y], np.einsum("ij,ij->j", self.X, self.X),
                                      np.einsum("ij,ij->j", self.Z, self.Z)])
        names = [y_name, *self.x_names, *self.z_names]

        def refuse(cols, what):
            if cols:
                bad = ", ".join(repr(names[j]) for j in cols)
                raise DataError(f"column{'s' * (len(cols) > 1)} {bad}: sum of squares {what} "
                                "double precision; rescale")

        refuse(np.flatnonzero(~np.isfinite(squares)).tolist(), "overflows")
        # an all-zero column builds; only the columns below tiny are scanned
        refuse([j for j in np.flatnonzero(squares < np.finfo(float).tiny).tolist()
                if (self.y if j == 0 else self.X[:, j - 1] if j <= self.p
                    else self.Z[:, j - 1 - self.p]).any()], "underflows")
        self.standardization = standardization
        self._moments = None
        self._gram_factor = None  # (cols, (w, V, X'X[:, cols])) of the last block factored

    def _derive(self, **changes) -> "LongitudinalDataset":
        """This dataset with some of the constructor's arguments (_FIELDS) replaced."""
        return type(self)(**{k: changes.get(k, getattr(self, k)) for k in self._FIELDS})

    # a property over the _moments slot: the benchmark tracer patches it as a property
    @property
    def block_moments(self):
        """Batched per-subject cross products (Z'Z, Z'X, Z'y).

        Shapes (n, q, q), (n, q, p), (n, q); grouped sums (np.add.reduceat)
        of row products, one column of Z at a time.  Computed once and cached.
        The EM reads its per-subject terms from these and from distinct_ztz:
        Z_i'r_i = Z_i'y_i - Z_i'X_i beta, and the M-step's right-hand side
        X'y - sum_i (Z_i'X_i)' b_i, so no iteration forms an N-row product
        for them.
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

    @cached_property
    def ztx_rows(self) -> np.ndarray:
        """block_moments' Z'X as (n q, p) rows, a read-only view: Z'X beta is
        beta @ ztx_rows.T, and sum_i (Z_i'X_i)' b_i is b.reshape(n q) @
        ztx_rows.  Computed once."""
        return self.block_moments[1].reshape(self.n * self.q, self.p)

    @cached_property
    def design_refusal(self) -> str | None:
        """Why no mixed-model fit can identify D on this design, or None: fewer
        than 2 subjects, no more rows than subjects (no row is left to
        separate D from sigma2), or a column of Z that is zero in every row
        (nothing would move its part of D).  Decided once."""
        if self.n < 2:
            return f"a fit needs at least 2 subjects; the data have {self.n}"
        if self.N <= self.n:
            return (f"a fit needs more rows than subjects; the data have {self.N} rows "
                    f"for {self.n} subjects")
        for name, column in zip(self.z_names, self.zt):
            if not column.any():
                return f"random-effect column {name!r} is zero in every row"
        return None

    @cached_property
    def distinct_ztz(self) -> DistinctBlocks:
        """The distinct blocks of block_moments' Z'Z, each subject's index
        into them and each block's count (DistinctBlocks).

        Blocks are equal when they are equal in every entry (so -0.0 equals
        0.0), and come in the lexicographic order of their entries: the
        result of np.unique(..., axis=0), found by one np.lexsort of the
        flattened blocks and one comparison of adjacent sorted rows.
        Everything the E-step computes from Z_i'Z_i alone (K_i, its inverse
        and log determinant, and Cov[b_i | y_i]) is computed once per block.
        Computed once and cached read-only.
        """
        flat = self.block_moments[0].reshape(self.n, -1)
        order = np.lexsort(flat.T[::-1])  # the first entry is the primary key
        ranked = flat[order]
        first = np.empty(self.n, dtype=bool)
        first[0] = True
        np.any(ranked[1:] != ranked[:-1], axis=1, out=first[1:])
        index = np.empty(self.n, dtype=int)
        index[order] = np.cumsum(first) - 1
        return DistinctBlocks(_frozen(ranked[first].reshape(-1, self.q, self.q)),
                              _frozen(index, int), _frozen(np.bincount(index), int))

    @cached_property
    def ztz_entries(self) -> tuple | None:
        """The one distinct Z_i'Z_i block's upper-triangle entries as Python
        floats (_entries), on which the EM runs one member's q x q algebra;
        None unless the design has one distinct block and q <= 2.  Computed
        once."""
        if self.q > 2 or self.distinct_ztz.counts.size != 1:
            return None
        return _entries(self.distinct_ztz.ztz[0])

    @cached_property
    def repeats(self):
        """counts as np.repeat takes them to spread per-subject values over the
        rows: the one count, an int, when every subject has it (a scalar
        repeat is faster), else counts."""
        return int(self.counts[0]) if (self.counts == self.counts[0]).all() else self.counts

    @cached_property
    def zt(self) -> np.ndarray:
        """Z transposed, a contiguous (q, N) copy, so that a sum over Z's
        columns runs along the rows.  Computed once and cached read-only."""
        return _frozen(self.Z.T)

    @cached_property
    def xty(self) -> np.ndarray:
        """X'y, (p,).  Computed once and cached read-only."""
        return _frozen(self.X.T @ self.y)

    @cached_property
    def gram(self) -> np.ndarray:
        """X'X, (p, p).  Computed once and cached read-only."""
        return _frozen(self.X.T @ self.X)

    def gram_factor(self, cols):
        """(w, V, G_A): np.linalg.eigh of the cols x cols block of X'X and the
        columns cols of X'X (p, |cols|), all read-only.

        The dataset holds one slot, the last columns asked for: a request for
        the same columns in the same order reuses it, with no eigh and no
        copy of the columns, and any other replaces it.  The slot is keyed by
        the columns as Python ints (tuple(ndarray) would build numpy scalars)
        and read once per call, so callers on other threads cannot mix one
        request's columns with another's factor.  All p columns in order
        share X'X itself.
        """
        key = tuple(cols.tolist()) if isinstance(cols, np.ndarray) else tuple(cols)
        slot = self._gram_factor
        if slot is None or slot[0] != key:
            A = np.array(key, dtype=np.intp)
            G_A = self.gram if key == tuple(range(self.p)) else _frozen(self.gram[:, A])
            slot = key, (*map(_frozen, np.linalg.eigh(self.gram[np.ix_(A, A)])), G_A)
            self._gram_factor = slot
        return slot[1]

    def select_columns(self, cols) -> "LongitudinalDataset":
        """Dataset with X restricted to the given column indices (in order)."""
        cols = list(cols)
        record = self.standardization.subset(cols) if self.standardization else None
        return self._derive(X=self.X[:, cols], x_names=[self.x_names[j] for j in cols],
                            standardization=record)

    def subset_subjects(self, indices) -> "LongitudinalDataset":
        """Dataset of the given subjects (integer indices into subject order,
        in [0, n), else a ConfigurationError), in that order.  A subject may
        be given more than once, as a resample with replacement does."""
        idx = _checked_indices(indices, self.n, "subset_subjects: subject")
        counts = self.counts[idx]
        offsets = self.starts[idx] - (np.cumsum(counts) - counts)
        rows = np.arange(counts.sum()) + np.repeat(offsets, counts)
        return self._derive(subject_ids=self.subject_ids[idx], counts=counts,
                            y=self.y[rows], X=self.X[rows], Z=self.Z[rows])


def _iterated(values, what: str):
    """iter(values), else a ConfigurationError "{what}, got {values!r}"; a
    string or bytes, an iterable of its characters or their codes, is not a
    list of names or indices."""
    try:
        return iter(None if isinstance(values, (str, bytes)) else values)
    except TypeError:
        raise ConfigurationError(f"{what}, got {values!r}") from None


def _checked_indices(indices, size: int, what: str) -> np.ndarray:
    """indices as an integer array; ConfigurationError unless indices is a
    collection of integers in [0, size) (_checked_int)."""
    items = _iterated(indices, f"{what} index list must be an iterable of integers")
    return np.array([_checked_int(j, f"{what} index", 0, size) for j in items], dtype=int)


def name_list(names) -> tuple:
    """A comma-separated string's nonblank names, stripped, or a sequence's items."""
    if isinstance(names, str):
        return tuple(c.strip() for c in names.split(",") if c.strip())
    return tuple(names)


@dataclass(frozen=True)
class ColumnRoles:
    """Mapping of CSV columns onto model roles.

    random entries may name file columns or use the literal "1" for a
    synthesized all-ones (intercept) column.  The shorthand string
    "intercept+<col>" expands to ["1", "<col>"].  subject and response
    are column names, and fixed and random iterables of them, held as
    tuples (_iterated: a bare string is not a list of names).  A column
    may be both fixed and random; any other column named twice, or a name
    that is not a string, is a ConfigurationError naming the role.
    """

    subject: str
    response: str
    fixed: tuple
    random: tuple

    def __post_init__(self):
        for role in ("subject", "response"):
            _checked_type(getattr(self, role), str, f"ColumnRoles: {role} must be a column name")
        for role in ("fixed", "random"):
            names = tuple(_iterated(getattr(self, role),
                                    f"ColumnRoles: {role} must be an iterable of column names"))
            for name in names:
                _checked_type(name, str, f"ColumnRoles: {role} column must be a column name")
            object.__setattr__(self, role, names)
        if self.subject == self.response:
            raise ConfigurationError(f"column {self.subject!r} is both subject and response")
        for role in ("subject", "response"):
            name = getattr(self, role)
            if name in self.fixed or name in self.random:
                raise ConfigurationError(
                    f"{role} column {name!r} is also named as a fixed or random column")
        for role in ("fixed", "random"):
            names = getattr(self, role)
            if len(set(names)) != len(names):
                raise ConfigurationError(f"{role} columns {list(names)} name a column twice")

    @classmethod
    def from_mapping(cls, d: dict) -> "ColumnRoles":
        """Roles from a mapping whose fixed and random may be comma lists
        (name_list); a d that is not a mapping is a ConfigurationError."""
        _checked_type(d, Mapping, "column-role mapping must be a mapping")
        try:
            subject, response, fixed, random = (
                d[key] for key in ("subject", "response", "fixed", "random"))
        except KeyError as e:
            raise ConfigurationError(f"column-role mapping is missing {e.args[0]!r}") from None
        if isinstance(random, str) and random.startswith("intercept+"):
            random = "1," + random.split("+", 1)[1]  # shorthand for "1,<col>"
        return cls(subject, response, *(name_list(v) if isinstance(v, str) else v
                                         for v in (fixed, random)))


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


# ASCII file, group, record and unit separators: numpy's float parser skips
# them as whitespace around a number, and float() refuses them
_SEPARATORS = ("\x1c", "\x1d", "\x1e", "\x1f")


def _lines_without_separators(fh):
    """fh's lines, in blocks checked for _SEPARATORS (ValueError if found)."""
    for lines in iter(lambda: fh.readlines(1 << 16), []):
        block = "".join(lines)
        if any(c in block for c in _SEPARATORS):
            raise ValueError("an ASCII separator character in the input")
        yield from lines


def csv_reader(fh):
    """A csv.reader over the text file fh, less a UTF-8 byte-order mark at
    its start (spreadsheets write one when saving "CSV UTF-8").  The mark is
    dropped before csv parses the header, so a quoted first cell stays
    quoted; fh is read one line at a time, so a pipe works too."""
    first = fh.readline().removeprefix("\ufeff")
    return csv.reader(itertools.chain([first] if first else [], fh))


def _parse_table(fh, width, sub_i, value_cols):
    """The rows left in fh, in one np.loadtxt pass: the subject cells and a
    float column per index in value_cols.  Raises ValueError on any input the
    row loop (_parse_rows) might read differently; blank lines are skipped,
    as csv.reader does."""
    dtype = [(f"f{i}", "f8" if i in value_cols else "O" if i == sub_i else "S1")
             for i in range(width)]
    with warnings.catch_warnings():
        # a file with no data rows is a DataError, raised by the caller
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        table = np.loadtxt(_lines_without_separators(fh), dtype=dtype, delimiter=",",
                           quotechar='"', comments=None, ndmin=1)
    return table[f"f{sub_i}"], {ci: table[f"f{ci}"] for ci in value_cols}


def _parse_rows(path, reader, header, sub_i, value_cols):
    """_parse_table's result from a loop over the rows left in a csv.reader,
    raising the DataError for the first row it cannot read."""
    subjects = []
    columns = {ci: array("d") for ci in value_cols}
    for rownum, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise DataError(f"{path}: row {rownum} has {len(row)} fields, expected {len(header)}")
        subjects.append(row[sub_i])
        try:
            for ci, buf in columns.items():
                buf.append(float(row[ci]))
        except ValueError:
            raise DataError(
                f"{path}: row {rownum}: non-numeric value {row[ci]!r} "
                f"in column {header[ci]!r}") from None
    return subjects, columns


def ingest_long_csv(path, roles: ColumnRoles) -> LongitudinalDataset:
    """Read a long-format CSV (one row per observation, header required).

    Rows are grouped by the subject column preserving within-subject file
    order; subjects are ordered by first appearance.  No standardization
    is applied.  A column given a role must appear exactly once in the
    header, which is read by csv_reader (a byte-order mark before it is
    dropped).  After csv.reader has read and checked the header, the rows
    are parsed in one C pass (np.loadtxt): role columns as floats, the
    subject column as strings, and any other column only counted.  The
    error path is a csv.reader row loop, run on an input the C pass refuses
    or might read differently, and on one that cannot be reread (a pipe).
    It raises the DataError naming the row, cell and column, or reads the
    cells float() takes and numpy does not (such as "1_0").  y, X and Z
    are stacked from the parsed columns, and their rows grouped by one
    gather per array, in the order of a stable sort of the subjects'
    first-appearance codes; the dataset shares these arrays.  A missing,
    unreadable or undecodable file is a DataError, and so is a header or
    row csv.reader refuses (a field over its size limit), named by the
    line it ends on, and an empty subject cell.  A path that is not a str
    or os.PathLike, or roles that are not a ColumnRoles, is a
    ConfigurationError.
    """
    _checked_type(path, (str, os.PathLike), "ingest_long_csv: path must be a str or os.PathLike")
    _checked_type(roles, ColumnRoles, "ingest_long_csv: roles must be a ColumnRoles")
    try:
        with open(path, newline="") as fh:
            reader = csv_reader(fh)
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
            value_cols = list(dict.fromkeys(col_index[c] for c in needed[1:]))
            parsed = None
            if fh.seekable():  # else the row loop could not read the rows again
                try:
                    parsed = _parse_table(fh, len(header), sub_i, value_cols)
                except ValueError:
                    fh.seek(0)
                    reader = csv_reader(fh)
                    next(reader)  # the header, read and checked above
            subjects, columns = parsed or _parse_rows(path, reader, header, sub_i, value_cols)
    except OSError as e:
        raise DataError(f"{path}: cannot read input: {e.strerror or e}") from None
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: input is not {e.encoding} text: {e.reason}") from None
    except csv.Error as e:  # from the header read or the row loop
        raise DataError(f"{path}: line {reader.line_num}: {e}") from None

    first_seen: dict = {}
    codes = np.fromiter((first_seen.setdefault(s, len(first_seen)) for s in subjects),
                        dtype=np.int64, count=len(subjects))
    if not codes.size:
        raise DataError(f"{path}: no data rows")
    if "" in first_seen:
        blank = np.count_nonzero(codes == first_seen[""])
        raise DataError(f"{path}: subject column {roles.subject!r} is empty in {blank} row(s)")
    order = np.argsort(codes, kind="stable")

    def stack(cols):
        return np.column_stack(cols) if cols else np.empty((codes.size, 0))

    y = np.asarray(columns[col_index[roles.response]], dtype=float)
    X = stack([columns[col_index[c]] for c in roles.fixed])
    Z = stack([np.ones(codes.size) if c == "1" else columns[col_index[c]] for c in roles.random])
    return LongitudinalDataset(
        list(first_seen), np.bincount(codes), *_handed_over(y[order], X[order], Z[order]),
        roles.fixed, roles.response, roles.random)


def standardize(ds: LongitudinalDataset, categorical=(), scale_y=True) -> LongitudinalDataset:
    """Center and scale pooled X columns and the response.

    Columns listed in ``categorical`` (integer indices in [0, p), else a
    ConfigurationError) are exempt from centering and scaling.  The
    response is always centered, and scaled when scale_y.  Sample standard
    deviations use the n-1 convention, so a dataset of fewer than 2 rows
    is a data error; so is a non-exempt constant column, and so is a
    column or response whose standard deviation is not finite (its
    squares overflow double precision).

    X's deviations from the column means are formed once: the scale is
    taken from them with X.std(ddof=1)'s arithmetic (the sum of their
    squares over N - 1, then the square root), they are divided by it in
    place, and the exempt columns are copied from X.  The new dataset
    shares the scaled X and y, and ds's Z.  A ds that is not a
    LongitudinalDataset, or a scale_y that is not a bool, is a
    ConfigurationError.
    """
    _checked_type(ds, LongitudinalDataset, "standardize: ds must be a LongitudinalDataset")
    _checked_type(scale_y, (bool, np.bool_), "standardize: scale_y must be a bool")
    if ds.standardization is not None:
        raise ConfigurationError("dataset is already standardized")
    if ds.N < 2:
        raise DataError(f"standardize needs at least 2 rows; the data have {ds.N}")
    exempt = np.zeros(ds.p, dtype=bool)
    exempt[_checked_indices(categorical, ds.p, "standardize: categorical column")] = True

    with np.errstate(over="ignore", invalid="ignore"):  # refused below, by name
        center = ds.X.mean(axis=0)
        X = ds.X - center
        scale = np.sqrt(np.add.reduce(X * X, axis=0) / (ds.N - 1))
        y_center = float(ds.y.mean())
        y_scale = float(ds.y.std(ddof=1)) if scale_y else 1.0
    for j in np.flatnonzero(~exempt):
        if scale[j] == 0.0:
            raise DataError(f"column {ds.x_names[j]!r} has zero variance; "
                            "flag it categorical or drop it")
        if not np.isfinite(scale[j]):
            raise DataError(f"column {ds.x_names[j]!r} has a non-finite standard "
                            "deviation; rescale it")
    center = np.where(exempt, 0.0, center)
    scale = np.where(exempt, 1.0, scale)
    X /= scale
    X[:, exempt] = ds.X[:, exempt]

    if scale_y and y_scale == 0.0:
        raise DataError("response has zero variance")
    if not np.isfinite(y_scale):
        raise DataError("response has a non-finite standard deviation; rescale it")

    record = StandardizationRecord(center, scale, y_center, y_scale)
    y, X = _handed_over((ds.y - y_center) / y_scale, X)
    return ds._derive(y=y, X=X, standardization=record)


def remove_linear_combos(ds: LongitudinalDataset, rank_tol: float = 1e-7):
    """Drop fixed-effect columns that are linear combinations of earlier ones.

    Columns are scanned left to right; a column is kept when its residual
    after projecting onto the span of previously kept columns exceeds
    rank_tol times the largest column norm.  Earlier columns therefore
    win over later ones, and the result is deterministic and idempotent.

    Returns (reduced dataset, ColumnReductionReport); dependency_sets maps
    each dropped column to the kept columns that reproduce it.
    """
    rank_tol = _checked_real(rank_tol, "rank_tol", 0, low_open=True)
    _checked_type(ds, LongitudinalDataset, "remove_linear_combos: ds must be a LongitudinalDataset")
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
