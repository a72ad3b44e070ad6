"""Benchmark of asyncadmm: one workload per process, untraced or traced.

Run from any directory of a checkout::

    python3 benchmarks/run.py --workload paper600 --seed 7 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics: set-up time (imports, timed
in fresh interpreters, plus the workload's own set-up, repeated), the time
of the timed call (repeated while ``--seconds`` allows, median reported)
and peak resident memory.  The load is a closed loop with one caller: each
timed call starts when the previous one has returned.  ``--trace 1`` runs the timed call once untraced
and once with spans around every layer's public functions, checks that both
produced the same bytes, and reports the per-layer metrics.  Metric names
and units come from ``BENCHMARK.json``; workload configurations and the
values expected at each workload's default seed from ``workloads.json``.

Outputs are checked on every call; a failed check counts as a failed
operation and makes the command exit with code 1.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
IMPORT_REPEATS = 5
SETUP_REPEATS = 3


def import_program():
    """Import asyncadmm from this checkout's sources, never from elsewhere."""
    package = SRC / "asyncadmm"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: no asyncadmm sources at {package}")
    sys.path.insert(0, str(SRC))
    import asyncadmm

    if Path(asyncadmm.__file__).resolve().parent != package:
        sys.exit(f"error: imported asyncadmm from {asyncadmm.__file__}, not from {package}")


def import_seconds() -> float:
    """Median time for a fresh interpreter to start and import the program."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    times = []
    for _ in range(IMPORT_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import asyncadmm.cli"],
            env=env, cwd=ROOT, check=True, timeout=120, capture_output=True,
        )  # fmt: skip
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def expected_failures(workload, outcome, seed: int, size: str, expected: dict) -> list[str]:
    """Exact values recorded at the workload's default seed."""
    if size != "full" or seed != workload.default_seed:
        return []
    return [
        f"{key} is {getattr(outcome, key)!r}, expected {want!r} at seed {seed}"
        for key, want in expected.items()
        if getattr(outcome, key) != want
    ]


def timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


def measure(workload, seed: int, seconds: float, size: str, expected: dict):
    """Untraced run: set-up repeated, then timed calls while the budget lasts."""
    imports = import_seconds()
    setups = []
    for _ in range(SETUP_REPEATS):
        inputs, dt = timed(workload.setup, seed)
        setups.append(dt)
    solves, outcomes = [], []
    begin = time.perf_counter()
    while True:
        result, dt = timed(workload.solve, inputs)
        solves.append(dt)
        outcomes.append(workload.outcome(inputs, result))
        if time.perf_counter() - begin + statistics.median(solves) > seconds:
            break
    for outcome in outcomes:
        if outcome.fingerprint != outcomes[0].fingerprint:
            outcome.failures.append("output differs from the first call's")
        outcome.failures += expected_failures(workload, outcome, seed, size, expected)
    values = {
        "setup_s": imports + statistics.median(setups),
        "solve_s": statistics.median(solves),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(
        f"{workload.name} seed {seed}: imports {imports:.3f} s (median of {IMPORT_REPEATS}), "
        f"set-up {statistics.median(setups):.3f} s (median of {SETUP_REPEATS}), "
        f"{len(solves)} timed call(s): {', '.join(f'{t:.3f}' for t in solves)} s"
    )
    return values, outcomes


def measure_traced(workload, seed: int, size: str, expected: dict):
    """One untraced and one traced call on the same inputs; both must agree."""
    import tracing

    inputs = workload.setup(seed)
    plain, plain_s = timed(workload.solve, inputs)
    tracer = tracing.Tracer()
    with tracer.installed():
        traced_inputs = workload.setup(seed)
        traced, traced_s = timed(workload.solve, traced_inputs)
    outcomes = [workload.outcome(inputs, plain), workload.outcome(traced_inputs, traced)]
    if outcomes[1].fingerprint != outcomes[0].fingerprint:
        outcomes[1].failures.append("traced output differs from the untraced output")
    for outcome in outcomes:
        outcome.failures += expected_failures(workload, outcome, seed, size, expected)
    values = tracing.layer_metrics(tracer)
    values["trace.overhead"] = traced_s / plain_s
    spans_file = OUT / f"{workload.name}-{size}-spans.npz"
    written = tracer.write(spans_file)
    print(f"{workload.name} seed {seed}: untraced {plain_s:.3f} s, traced {traced_s:.3f} s")
    print(f"spans: {written} written to {spans_file.relative_to(ROOT)}")
    print("absent wrapped names: " + (", ".join(tracer.absent) or "none"))
    return values, outcomes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, help="workload seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=10.0, help="time budget for timed calls")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: n=8 smoke run")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    config = json.loads((HERE / "workloads.json").read_text())
    import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.make(args.workload, args.size, OUT)
    seed = workload.default_seed if args.seed is None else args.seed
    expected = config["workloads"][workload.name]["expected_at_default_seed"]

    if args.trace:
        values, outcomes = measure_traced(workload, seed, args.size, expected)
        listed = spec["per_layer"]
    else:
        values, outcomes = measure(workload, seed, args.seconds, args.size, expected)
        listed = spec["end_to_end"]

    last = outcomes[-1]
    shown = {"rel_error": (last.rel_error, "ratio"), "sim_steps": (last.sim_steps, "steps")}
    for name, (value, unit) in shown.items():
        if value is not None:
            print(f"{name} = {value!r} {unit}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    failures = [f for o in outcomes for f in o.failures]
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    failed = sum(1 for o in outcomes if o.failures)
    result = {"correct": failed == 0, "attempted": len(outcomes), "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
