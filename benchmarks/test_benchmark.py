"""Smoke tests of the benchmark at n=8: every workload, untraced and traced.

Run with ``python -m pytest benchmarks``; the repository's own suite does not
collect this directory.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )  # fmt: skip


@pytest.mark.parametrize("trace,listed", [("0", "end_to_end"), ("1", "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("seed", ["7", "11"])
def test_tiny_run_reports_every_metric_and_passes_checks(workload, trace, listed, seed):
    proc = run_bench(
        "--workload", workload, "--seed", seed, "--seconds", "0.2", "--trace", trace, "--size", "tiny"
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC[listed]]
    if trace == "1":
        assert "absent wrapped names: none" in proc.stdout
        assert result["metrics"]["trace.overhead"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "sweep", "--seed", "5", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_missing_target_is_reported_absent_and_others_still_traced():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import tracing
    from asyncadmm import digraph

    original = digraph.diameter
    targets = [
        ("asyncadmm.netsim", "NoSuchQueue.advance", "netsim.advance", None, None),
        ("asyncadmm.no_such_module", "f", "x", None, None),
        ("asyncadmm.digraph", "diameter", "digraph.diameter", lambda a, k, d: {"digraph.D": d}, None),
    ]
    tracer = tracing.Tracer()
    g = digraph.random_strongly_connected(6, 0.2, seed=1)
    with tracer.installed(targets):
        d = digraph.diameter(g)
    assert digraph.diameter is original
    assert tracer.absent == ["asyncadmm.netsim.NoSuchQueue.advance", "asyncadmm.no_such_module.f"]
    metrics = tracing.layer_metrics(tracer)
    assert metrics["digraph.diameter_calls"] == 1 and metrics["digraph.D"] == d
    assert metrics["netsim.messages"] == 0
