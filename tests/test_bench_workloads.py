"""The benchmark's set-up path still runs against the package.

bench/workloads.py builds each workload's inputs and datasets with the
package's public loaders and hands the CLI its arguments; a change to a
settings API that breaks these would otherwise show only when the
benchmark runs.  This test loads the file by path, as
test_trace_bindings.py loads spans.py, and runs that set-up for every
workload.
"""

import importlib.util
import pathlib

import pytest

from lmmlasso import LongitudinalDataset, cli

WORKLOADS = pathlib.Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("name", workloads.NAMES)
def test_workload_setup_builds_and_parses(tmp_path, name):
    seed = 1
    inputs = workloads.make_inputs(name, seed, tmp_path)
    datasets = workloads.build_datasets(name, seed, inputs["paths"])
    groups = workloads.pass_seeds(name)
    assert len(datasets) == groups * (workloads.SIM_REPLICATES if name == "sim-s3" else 1)
    assert all(isinstance(ds, LongitudinalDataset) for ds in datasets)
    parser = cli.build_parser()
    for group in range(groups):
        argv = workloads.cli_argv(name, seed, group, inputs["paths"],
                                  str(tmp_path / f"out-{group}"))
        args = parser.parse_args(argv)
        assert args.command == argv[0]
