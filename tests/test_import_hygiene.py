"""Every module-level import of a package module is used there or listed in
its __all__.

No linter is installed, so the check reads each module's syntax tree: a
stale import, such as a helper left behind after the code that called it
moved to another layer, fails here.
"""

import ast
import pathlib

import pytest

import lmmlasso

PACKAGE = pathlib.Path(lmmlasso.__file__).parent
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")

# module: {name: why it is imported but unused}
ALLOWED = {
    "em_engine.py": {
        "solve_pls": "the benchmark tracer (bench/spans.py) wraps em_engine's binding "
                     "of it; the name goes when the tracer drops it",
    },
}


def _imported_names(tree: ast.Module) -> set:
    """The names the module-level import statements bind, __future__ aside."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
    return names


def _exported(tree: ast.Module) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("module", MODULES)
def test_every_module_level_import_is_used(module):
    tree = ast.parse((PACKAGE / module).read_text(), filename=module)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = _imported_names(tree) - used - _exported(tree)
    assert sorted(unused) == sorted(ALLOWED.get(module, {}))
