"""The benchmark's workloads: inputs from a seed, one timed call, output checks.

Every workload fixes the size of its problem, so that the work a run
measures does not depend on the seed:

* ``paper600`` draws its graph, its consensus input and its delays from the
  seed.  At n=600 every such graph has diameter 2, so every instance takes
  the same number of steps.
* ``sync600`` keeps the graph and the least-squares data of seed 7, the
  problem its configuration names; the seed draws the solver's initial point.
  A new data set moves the iteration count by up to a third, a new initial
  point by a few iterations.
* ``sweep`` keeps the graph of seed 5 (the CLI reads it from a topology file)
  and passes the seed to the CLI, which draws data, initial point and delays
  from it.  The residual stop is off, so every cell runs exactly ``kmax``
  iterations; at seed 5 no cell stops early anyway, so ``sweep.csv`` is the
  same as without the two flags.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from asyncadmm import admm, cli, consensus, digraph, netsim, oracle, problems

# Seed streams, numbered as the CLI and the solver number theirs.
DELAY_STREAM = 1
GRAPH_STREAM = 2
INSTANCE_STREAM = 3
Y0_STREAM = 4

EDGE_PROB = 0.2
DIM = 3


@dataclass
class Outcome:
    """What a timed call produced, reduced to what the checks need."""

    fingerprint: bytes  # exact output bytes; repeats and traced runs must match
    rel_error: float
    failures: list[str]
    sim_steps: int | None = None
    iterations: int | None = None
    sha256: str | None = None


class Paper600:
    """One terminating-consensus instance at the paper's scale."""

    name = "paper600"
    default_seed = 7
    sizes = {"full": {"nodes": 600}, "tiny": {"nodes": 8}}
    tau_bar = 3
    eps = 0.1
    step_cap = 1000

    def __init__(self, nodes: int):
        self.nodes = nodes

    def setup(self, seed: int):
        g = digraph.random_strongly_connected(self.nodes, EDGE_PROB, seed=(seed, GRAPH_STREAM))
        d = digraph.diameter(g)
        weights = digraph.build_weights(g)
        y0 = np.random.default_rng((seed, Y0_STREAM)).standard_normal((self.nodes, DIM))
        return seed, g, d, weights, y0

    def solve(self, inputs):
        seed, g, d, weights, y0 = inputs
        dm = netsim.DelayModel.uniform(self.tau_bar, seed=(seed, DELAY_STREAM))
        return consensus.run_terminating_consensus(
            g, weights, dm, y0, self.eps, self.step_cap, graph_diameter=d
        )

    def outcome(self, inputs, res) -> Outcome:
        y0 = inputs[-1]
        avg = oracle.exact_average(y0)
        deviation = float(np.max(np.linalg.norm(res.z - avg, axis=1)))
        failures = []
        if not res.converged:
            failures.append(f"not converged after {res.steps} steps")
        if not deviation <= self.eps:
            failures.append(f"a node is {deviation!r} from the exact average (eps {self.eps})")
        return Outcome(
            fingerprint=res.z.tobytes() + repr((res.steps, res.converged, res.check_steps)).encode(),
            rel_error=deviation / float(np.linalg.norm(avg)),
            failures=failures,
            sim_steps=res.steps,
        )


class Sync600:
    """The exact-averaging solver (the CLI's ``sync_baseline``) at n=600."""

    name = "sync600"
    default_seed = 7
    problem_seed = 7
    sizes = {"full": {"nodes": 600}, "tiny": {"nodes": 8}}
    k_max = 200
    max_rel_error = 1e-2

    def __init__(self, nodes: int):
        self.nodes = nodes

    def setup(self, seed: int):
        g = digraph.random_strongly_connected(
            self.nodes, EDGE_PROB, seed=(self.problem_seed, GRAPH_STREAM)
        )
        instance = problems.generate_ls(self.nodes, DIM, DIM, seed=(self.problem_seed, INSTANCE_STREAM))
        truth = oracle.centralized_solution(instance)
        return seed, g, instance, truth

    def solve(self, inputs):
        seed, g, instance, truth = inputs
        cfg = admm.SolverConfig(eps=0.1, tau_bar=0, k_max=self.k_max, seed=seed)
        return admm.run(instance, g, cfg, exact_averaging=True, truth=truth)

    def outcome(self, inputs, record) -> Outcome:
        truth = inputs[-1]
        rel_error = abs(record.final_objective - truth.f_star) / abs(truth.f_star)
        failures = []
        if not rel_error <= self.max_rel_error:
            failures.append(f"rel_error {rel_error!r} above {self.max_rel_error}")
        metrics = repr((list(record.rows()), record.capped, record.stopped_early)).encode()
        return Outcome(
            fingerprint=record.z_hist[-1].tobytes() + metrics,
            rel_error=rel_error,
            failures=failures,
            iterations=record.iterations,
        )


class Sweep:
    """The CLI ``sweep`` command over eps x tau_bar on a small graph."""

    name = "sweep"
    default_seed = 5
    graph_seed = 5
    sizes = {"full": {"nodes": 20, "kmax": 60}, "tiny": {"nodes": 8, "kmax": 3}}

    def __init__(self, nodes: int, kmax: int, workdir: Path):
        self.nodes = nodes
        self.kmax = kmax
        self.workdir = workdir

    def setup(self, seed: int):
        g = digraph.random_strongly_connected(self.nodes, EDGE_PROB, seed=(self.graph_seed, GRAPH_STREAM))
        self.workdir.mkdir(parents=True, exist_ok=True)
        topology = self.workdir / f"topology-n{self.nodes}.txt"
        digraph.save_edge_list(g, topology)
        return seed, topology

    def argv(self, inputs, out_dir) -> list[str]:
        seed, topology = inputs
        return [
            "sweep", "--topology", f"file:{topology}",
            "--nodes", str(self.nodes), "--edge-prob", str(EDGE_PROB), "--dim", str(DIM),
            "--kmax", str(self.kmax), "--seed", str(seed),
            "--epsilons", "0.1,0.01", "--tau-bars", "3,5,10",
            "--eps-abs", "0", "--eps-rel", "0",
            "--out", str(out_dir),
        ]  # fmt: skip

    def solve(self, inputs):
        out_dir = Path(tempfile.mkdtemp(prefix="sweep-", dir=self.workdir))
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(self.argv(inputs, out_dir))
            csv = (out_dir / "sweep.csv").read_bytes() if code == 0 else b""
        finally:
            shutil.rmtree(out_dir)
        return code, csv

    def outcome(self, inputs, result) -> Outcome:
        code, csv = result
        failures = [] if code == 0 else [f"sweep exited with code {code}"]
        rows = [line.split(",") for line in csv.decode().splitlines()[1:]]
        if len(rows) != 6:
            failures.append(f"sweep.csv has {len(rows)} cells, expected 6")
        failures += [f"cell eps={r[0]} tau_bar={r[1]}: {r[2]}" for r in rows if r[2] != "ok"]
        rel = [float(r[3]) for r in rows if r[2] == "ok"]
        return Outcome(
            fingerprint=csv,
            rel_error=max(rel) if rel else float("nan"),
            failures=failures,
            sha256=hashlib.sha256(csv).hexdigest(),
        )


WORKLOADS = {w.name: w for w in (Paper600, Sync600, Sweep)}


def make(name: str, size: str, workdir: Path):
    cls = WORKLOADS[name]
    params = dict(cls.sizes[size])
    if cls is Sweep:
        params["workdir"] = workdir
    return cls(**params)
