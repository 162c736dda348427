"""README.md's call signatures against the code.

Every backticked `name(...)` whose name is a public callable of lmmlasso
(backticks may span a line break) must list the callable's leading
parameters in order as its positional names, where `...` skips some, and
name a parameter with every `key=`.
"""

import inspect
import pathlib
import re

import pytest

import lmmlasso

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
_CALL = re.compile(r"`([A-Za-z_]\w*)\(([^`]*)\)`")


def _readme_calls():
    """(name, the text between the parentheses) of each backticked call of a
    public callable, its whitespace, line breaks included, collapsed."""
    for name, args in _CALL.findall(README.read_text()):
        if callable(getattr(lmmlasso, name, None)) and not name.startswith("_"):
            yield name, " ".join(args.split())


def _mismatch(name, args):
    """Why the written call does not fit the callable's parameters, or None."""
    params = list(inspect.signature(getattr(lmmlasso, name)).parameters)
    at, skipping = 0, False
    for token in (t.strip() for t in args.split(",") if args.strip()):
        if token == "...":
            skipping = True
        elif "=" in token:
            key = token.split("=")[0].strip()
            if key not in params:
                return f"{key!r} is not a parameter"
        elif skipping and token in params[at:]:
            at, skipping = params.index(token, at) + 1, False
        elif at < len(params) and params[at] == token:
            at += 1
        else:
            return f"{token!r} is not parameter {at} ({params[at:at + 1]})"
    return None


CALLS = sorted(set(_readme_calls()))


def test_the_readme_writes_the_main_entry_points():
    assert {"fit_em", "m_step", "solve_pls", "ScenarioConfig"} <= {name for name, _ in CALLS}


@pytest.mark.parametrize("name, args", CALLS, ids=[f"{n}({a})" for n, a in CALLS])
def test_a_readme_call_fits_the_signature(name, args):
    assert (why := _mismatch(name, args)) is None, why
