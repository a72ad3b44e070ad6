"""The benchmark's workloads still run against the program, at their tiny size.

``benchmarks/workloads.py`` calls the program's public names; if a change
deletes or renames one of them, this test fails in the repository's own
suite.  The module is loaded from its file without writing bytecode, so the
benchmark directory is left as it is.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "benchmarks" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    name = "benchmark_workloads"
    spec = importlib.util.spec_from_file_location(name, WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # its dataclasses look their module up there
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    yield module
    del sys.modules[name]


@pytest.mark.parametrize("name", ["paper600", "sync600", "sweep"])
def test_tiny_workload_runs_and_passes_its_checks(workloads, name, tmp_path):
    workload = workloads.make(name, "tiny", tmp_path / "sweep")
    inputs = workload.setup(workload.default_seed)
    outcome = workload.outcome(inputs, workload.solve(inputs))
    assert outcome.failures == []
