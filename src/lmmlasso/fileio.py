"""Deterministic artifact writing shared by the CLI and the simulation kit.

CSV numbers are serialized with 17 significant digits and JSON numbers
as Python's shortest round-trip repr, both exact, so that repeated runs
can be compared byte for byte; files are written to a temporary sibling
and renamed into place, so failed runs leave no partial outputs.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
from contextlib import contextmanager

__all__ = ["fmt17", "write_csv", "write_json"]


def fmt17(x) -> str:
    """Render a number with 17 significant digits (round-trip exact)."""
    if isinstance(x, int):
        return str(x)
    return format(float(x), ".17g")


@contextmanager
def _atomic_open(path):
    """A text file on a temporary sibling of path, renamed onto path on success.

    If the body raises, the sibling is removed and path is left untouched.
    """
    path = os.fspath(path)
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path, header, rows):
    """Write rows of mixed str/number cells; numbers get fmt17.

    Rows may be any iterable; they are written as they come, so a
    generator over a large input is never held in memory.  Cells holding
    a comma, quote or newline are quoted, so the file reads back through
    csv.reader with the same fields.
    """
    with _atomic_open(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(cell if isinstance(cell, str) else fmt17(cell)
                            for cell in row)


def write_json(path, obj):
    with _atomic_open(path) as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")
