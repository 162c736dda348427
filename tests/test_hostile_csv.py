"""Hostile but valid-looking CSVs through cli.main answer with a typed error or succeed.

CASES seeded cases, each a valid long-format CSV of 6-12 subjects (columns
id, y, a, b, c, t; fixed a,b,c, random 1,t) with one or two mutations from
MUTATIONS: quoting, a byte-order mark, bad or extreme cells, control
characters, ragged rows, duplicate or constant columns, one-row subjects,
a blank subject id, a quoted separator, and the column-role flags that
name what the file does not hold.  Each case runs fit, select (two grid
points), cv (k = 2) and reduce in process.  Every call returns 0, or
returns the exit code of the LmmLassoError whose JSON error is the last
line of its stdout, or is argparse's SystemExit(2); no other exception may
escape.
"""

import functools
import json

import numpy as np

from lmmlasso import cli, exceptions
from lmmlasso.exceptions import LmmLassoError

CASES = 200
COLUMNS = ["id", "y", "a", "b", "c", "t"]
NUMERIC = COLUMNS[1:]
CONTROL = [chr(c) for c in range(0x1C, 0x20)]  # the separators str.split takes as blanks


def _base(rng):
    """A valid table: header and rows of cells, 6-12 subjects of 2-5 visits."""
    rows = []
    for i in range(int(rng.integers(6, 13))):
        b_i = rng.normal(size=2)
        for t in range(1, int(rng.integers(3, 7))):
            a, b, c = rng.normal(size=3)
            y = 1.0 + a - 0.5 * b + b_i[0] + b_i[1] * t + 0.3 * rng.normal()
            rows.append([f"s{i}", *(f"{v:.6g}" for v in (y, a, b, c)), str(t)])
    return {"header": list(COLUMNS), "rows": rows, "bom": False,
            "fixed": "a,b,c", "random": "1,t", "extra": []}


def _cell(rng, case, numeric=False):
    """A random (row, column) position of case's table."""
    cols = [COLUMNS.index(c) for c in NUMERIC] if numeric else range(len(COLUMNS))
    return int(rng.integers(len(case["rows"]))), int(rng.choice(list(cols)))


def _quoted(rng, case):
    for row in [case["header"], *case["rows"]]:
        for j in range(len(row)):
            if rng.random() < 0.3:
                row[j] = f'"{row[j]}"'


def _bom(rng, case):
    case["bom"] = True


def _bad_cell(rng, case):
    r, j = _cell(rng, case)
    case["rows"][r][j] = str(rng.choice(["nan", "NaN", "inf", "-inf", "", "abc", "1_0"]))


def _control_char(rng, case):
    r, j = _cell(rng, case)
    ch, cell = str(rng.choice(CONTROL)), case["rows"][r][j]
    case["rows"][r][j] = str(rng.choice([ch + cell, cell + ch, cell[:1] + ch + cell[1:]]))


def _ragged(rng, case):
    r = int(rng.integers(len(case["rows"])))
    row = case["rows"][r]
    case["rows"][r] = row[:-1] if rng.random() < 0.5 else [*row, "1.5"]


def _duplicate_column(rng, case):
    # a second column of the same name, or a copy of a fixed column under a new name
    j = COLUMNS.index(str(rng.choice(["a", "b", "t"])))
    same_name = rng.random() < 0.5
    case["header"].append(case["header"][j] if same_name else "d")
    for row in case["rows"]:
        row.append(row[j] if j < len(row) else "0")
    if not same_name:
        case["fixed"] += ",d"


def _constant_column(rng, case):
    value = str(rng.choice(["0", "1", "2.5"]))
    if rng.random() < 0.5:
        j = COLUMNS.index(str(rng.choice(["a", "b", "c", "t"])))
        for row in case["rows"]:
            if j < len(row):
                row[j] = value
    else:
        case["header"].append("k")
        for row in case["rows"]:
            row.append(value)
        case["fixed"] += ",k"


def _one_row_subjects(rng, case):
    ids = sorted({row[0] for row in case["rows"]})
    lone = set(rng.choice(ids, size=int(rng.integers(1, len(ids) + 1)), replace=False))
    seen = set()
    kept = []
    for row in case["rows"]:
        if row[0] in lone and row[0] in seen:
            continue
        seen.add(row[0])
        kept.append(row)
    case["rows"] = kept


def _blank_subject(rng, case):
    case["rows"][int(rng.integers(len(case["rows"])))][0] = str(rng.choice(["", '""']))


def _quoted_separator(rng, case):
    r, j = _cell(rng, case)
    sep = str(rng.choice([",", "\n"]))
    cell = case["rows"][r][j]
    case["rows"][r][j] = f'"{cell[:1]}{sep}{cell[1:]}"'


def _extreme_cell(rng, case):
    r, j = _cell(rng, case, numeric=True)
    case["rows"][r][j] = str(rng.choice(["1e154", "-1e154", "1e-310"]))


def _fixed_missing(rng, case):
    case["fixed"] += "," + str(rng.choice(["zz", "id", "y"]))


def _categorical_outside(rng, case):
    case["extra"] += ["--standardize", "--categorical", str(rng.choice(["t", "zz", "y"]))]


def _random_missing(rng, case):
    case["random"] = "intercept+zz"


MUTATIONS = {
    "quoted": _quoted,
    "bom": _bom,
    "bad-cell": _bad_cell,
    "control-char": _control_char,
    "ragged": _ragged,
    "duplicate-column": _duplicate_column,
    "constant-column": _constant_column,
    "one-row-subjects": _one_row_subjects,
    "blank-subject": _blank_subject,
    "quoted-separator": _quoted_separator,
    "extreme-cell": _extreme_cell,
    "fixed-missing": _fixed_missing,
    "categorical-outside": _categorical_outside,
    "random-missing": _random_missing,
}


def _case(seed):
    """(names of the mutations, CSV text, column-role flags) of case seed."""
    rng = np.random.default_rng(seed)
    case = _base(rng)
    names = list(rng.choice(list(MUTATIONS), size=int(rng.integers(1, 3)), replace=False))
    for name in names:
        MUTATIONS[name](rng, case)
    flags = ["--subject", "id", "--response", "y", "--fixed", case["fixed"],
             "--random", case["random"], *case["extra"]]
    return names, _text(case), flags


def _text(case):
    """The CSV text of case's table."""
    text = "".join(",".join(row) + "\n" for row in [case["header"], *case["rows"]])
    return ("\ufeff" if case["bom"] else "") + text


def _commands(out):
    """argv tails of the four commands that read a CSV, writing into out."""
    em = ["--max-iter", "30"]
    return {
        "fit": ["--lambda", "0.05", *em, "--output", f"{out}/fit.json"],
        "select": ["--grid", "0.1,0.01", *em, "--output-prefix", f"{out}/sel"],
        "cv": ["--k", "2", "--seed", "0", "--grid", "0.1,0.01", *em, "--output", f"{out}/cv.csv"],
        "reduce": ["--output", f"{out}/red.csv", "--report", f"{out}/red.json"],
    }


def _outcome(argv, capsys):
    """0, the exit code of a typed error, or "usage"; anything else is the finding."""
    try:
        code = cli.main(argv)
    except SystemExit as e:
        capsys.readouterr()
        return "usage" if e.code == 2 else f"SystemExit({e.code!r})"
    except Exception as err:  # noqa: BLE001 - any other error is the finding
        capsys.readouterr()
        return f"{type(err).__name__}: {err}"
    out = capsys.readouterr().out
    if code == 0:
        return 0
    lines = out.strip().splitlines()
    try:
        error = json.loads(lines[-1])["error"]
        kind = getattr(exceptions, error["type"])
    except (IndexError, ValueError, KeyError, TypeError, AttributeError):
        return f"exit {code} without a JSON error: {lines[-1:]}"
    if not (isinstance(kind, type) and issubclass(kind, LmmLassoError)
            and kind.exit_code == error["exit_code"] == code):
        return f"exit {code} with {error}"
    return code


def test_hostile_csvs_through_the_cli_end_in_a_typed_error_or_success(tmp_path, capsys,
                                                                      monkeypatch):
    # one parser for the 800 calls: building it is about a quarter of their time,
    # and parse_args leaves a parser as it found it
    monkeypatch.setattr(cli, "build_parser", functools.cache(cli.build_parser))
    findings, clean, used = [], 0, set()
    for seed in range(CASES):
        names, text, flags = _case(seed)
        used.update(names)
        folder = tmp_path / str(seed)
        folder.mkdir()
        path = folder / "long.csv"
        path.write_text(text, encoding="utf-8")
        outcomes = []
        for command, tail in _commands(folder).items():
            outcomes.append(_outcome([command, "--input", str(path), *flags, *tail], capsys))
            if isinstance(outcomes[-1], str) and outcomes[-1] != "usage":
                findings.append(f"case {seed} {names} {command}: {outcomes[-1]}")
        clean += all(outcome == 0 for outcome in outcomes)
    assert findings == []
    assert used == set(MUTATIONS)
    assert clean >= CASES // 4, f"only {clean} of {CASES} cases run clean"
