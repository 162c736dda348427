"""exceptions._checked_real owns a real-number setting's whole check: its
type, whether a float holds it, its finiteness and its range.  No other
module tests its result again.

The check reads each module's syntax tree: a _checked_real(...) call that is
an operand of a comparison, of `not` or of `and`/`or`, or the one argument
of another call (float(...), abs(...), np.isfinite(...)), fails here.  Its
result is assigned, returned or passed on as it is.

Likewise exceptions._checked_array owns an array argument's check: the text
of its refusal of a cell that is not a real number ("must hold real
numbers") is written nowhere but in exceptions.py.  So does
exceptions._checked_shape own the refusal of a size that must match another
("must have shape").
"""

import ast
import pathlib

import pytest

import lmmlasso

PACKAGE = pathlib.Path(lmmlasso.__file__).parent
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "exceptions.py")


def _retested(source: str) -> list:
    """The lines of source where the result of a _checked_real call is
    compared, negated, joined by and/or, or wrapped in a one-argument call."""
    tree = ast.parse(source)
    parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    lines = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_checked_real"):
            continue
        up = parent[node]
        if (isinstance(up, (ast.Compare, ast.BoolOp))
                or isinstance(up, ast.UnaryOp) and isinstance(up.op, ast.Not)
                or isinstance(up, ast.Call) and up.args == [node] and not up.keywords):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("source", [
    "ok = 0.0 <= _checked_real(v, 'v')",
    "ok = np.isfinite(_checked_real(v, 'v'))",
    "ok = abs(_checked_real(v, 'v')) <= big",
    "x = float(_checked_real(v, 'v'))",
    "ok = not _checked_real(v, 'v')",
])
def test_the_guard_sees_a_retested_result(source):
    assert _retested(source) == [1]


def test_the_guard_passes_a_result_used_as_it_is():
    source = ("x = _checked_real(v, 'v', 0)\n"
              "grid = [_checked_real(g, 'g', 0) for g in grid]\n"
              "cfg = dict(s=_checked_real(s, 's', 0), m=_checked_real(m, 'm'))\n"
              "def f(v):\n    return _checked_real(v, 'v', 0, 1)\n")
    assert _retested(source) == []


@pytest.mark.parametrize("module", MODULES)
def test_no_module_retests_a_checked_real_number(module):
    assert _retested((PACKAGE / module).read_text()) == []


ARRAY_MESSAGE = "must hold real numbers"
SHAPE_MESSAGE = "must have shape"


def _messages(source: str, message: str) -> list:
    """The lines of source where a string, or a literal part of an f-string,
    holds message (ARRAY_MESSAGE, SHAPE_MESSAGE)."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and message in node.value)


def test_the_array_guard_sees_its_message_written_elsewhere():
    source = ("x = _checked_array(v, 'v', (None,))\n"
              "raise DataError(f'{name} must hold real numbers, got {bad}')\n"
              "msg = 'y must hold real numbers'\n")
    assert _messages(source, ARRAY_MESSAGE) == [2, 3]


def test_the_array_message_is_written_only_in_exceptions():
    assert _messages((PACKAGE / "exceptions.py").read_text(), ARRAY_MESSAGE)
    assert {m: _messages((PACKAGE / m).read_text(), ARRAY_MESSAGE) for m in MODULES} == {
        m: [] for m in MODULES}


def test_the_shape_guard_sees_its_message_written_elsewhere():
    source = ("_checked_shape(a.shape, (n,), 'subject_ids')\n"
              "raise DataError(f'{name} must have shape ({n},), got {a.shape}')\n"
              "msg = 'x_names must have shape (p,)'\n")
    assert _messages(source, SHAPE_MESSAGE) == [2, 3]


def test_the_shape_message_is_written_only_in_exceptions():
    assert _messages((PACKAGE / "exceptions.py").read_text(), SHAPE_MESSAGE)
    assert {m: _messages((PACKAGE / m).read_text(), SHAPE_MESSAGE) for m in MODULES} == {
        m: [] for m in MODULES}
