"""Deterministic artifact writing shared by the CLI and the simulation kit.

Numbers are serialized with 17 significant digits so that repeated runs
can be compared byte for byte; files are written to a temporary sibling
and renamed into place, so failed runs leave no partial outputs.
"""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile

__all__ = ["fmt17", "atomic_write_text", "write_csv", "write_json"]


def fmt17(x) -> str:
    """Render a number with 17 significant digits (round-trip exact)."""
    if isinstance(x, bool):
        return str(x)
    if isinstance(x, (int,)):
        return str(x)
    return format(float(x), ".17g")


def atomic_write_text(path, text: str):
    path = os.fspath(path)
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path, header, rows):
    """Write rows of mixed str/number cells; numbers get fmt17.

    Cells holding a comma, quote or newline are quoted, so the file
    reads back through csv.reader with the same fields.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(cell if isinstance(cell, str) else fmt17(cell)
                        for cell in row)
    atomic_write_text(path, buf.getvalue())


def write_json(path, obj):
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")
