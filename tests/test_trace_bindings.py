"""The benchmark tracer's bindings still name the package's call structure.

bench/spans.py wraps module-level bindings by name and raises at install
time when one has gone, so a refactor that renames or inlines a wrapped
call would break only a traced benchmark run.  This test reads the same
table and fails first.
"""

import importlib
import importlib.util
import pathlib

import pytest

SPANS = pathlib.Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BINDINGS = _load_spans().BINDINGS


@pytest.mark.parametrize("module, attr", [(b[0], b[1]) for b in BINDINGS],
                         ids=[f"{b[0]}.{b[1]}" for b in BINDINGS])
def test_trace_binding_resolves(module, attr):
    namespace = vars(importlib.import_module(f"lmmlasso.{module}"))
    assert callable(namespace.get(attr)), f"lmmlasso.{module} has no binding {attr!r}"


def test_traced_dataset_members_exist():
    from lmmlasso.dataset import LongitudinalDataset

    assert callable(LongitudinalDataset.select_columns)
    assert isinstance(vars(LongitudinalDataset)["block_moments"], property)
