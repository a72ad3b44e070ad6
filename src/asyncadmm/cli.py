"""Experiment harness: single runs, parameter sweeps, CSV export."""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import Field, dataclass, field, fields, replace
from pathlib import Path

from . import admm, consensus, oracle
from .digraph import Digraph, diameter, load_edge_list, random_strongly_connected, save_edge_list
from .problems import LeastSquaresInstance, generate_ls

__all__ = ["ExperimentConfig", "run_once", "sweep", "main"]

MODES = ("asyadmm", "sync_baseline")

_GRAPH_STREAM = 2
_INSTANCE_STREAM = 3
_BOOL_WORDS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}

SUMMARY_COLUMNS = (
    "final_objective",
    "oracle_objective",
    "relative_error",
    "total_consensus_steps",
    "mean_consensus_steps",
)
SWEEP_COLUMNS = (
    "epsilon",
    "tau_bar",
    "status",
    "final_rel_error",
    "mean_consensus_steps",
    "capped_iterations",
)

REFERENCE_TREND = (
    "# paper's reference (600-node digraph): eps=0.1 -> mean steps 9/13/23 for tau_bar=3/5/10, "
    "the first check boundary (1+tau_bar)*D plus one at D=2; eps=0.01 -> capped at 1000\n"
    "# a correct check cannot exit at the first boundary: by then nodes can agree only on "
    "extrema of the tick-0 snapshot y0 (spread 9.6-31.1 at n=600)\n"
    "# so this implementation exits no earlier than 2*(1+tau_bar)*D steps: 16/24/44 at D=2, "
    "and no tested mode caps at eps=0.01: the spread at the second boundary is at most 2.5e-4"
)


@dataclass
class ExperimentConfig:
    """Flat run configuration; every field maps to one CLI flag / config key."""

    topology: str = field(default="random", metadata={"help": "'random' or 'file:<path>'"})
    nodes: int = field(default=20, metadata={"help": "node count for random topologies"})
    edge_prob: float = field(default=0.2, metadata={"help": "extra edge probability"})
    dim: int = field(default=3, metadata={"help": "decision dimension p (= q)"})
    epsilon: float = field(default=0.1, metadata={"help": "consensus tolerance"})
    tau_bar: int = field(default=3, metadata={"help": "max message delay"})
    rho: float = field(default=1.0, metadata={"help": "penalty parameter"})
    kmax: int = field(default=200, metadata={"help": "max ADMM iterations"})
    eps_abs: float = field(default=1e-4, metadata={"help": "absolute stop tolerance"})
    eps_rel: float = field(default=1e-2, metadata={"help": "relative stop tolerance"})
    step_cap: int = field(default=1000, metadata={"help": "consensus step cap"})
    seed: int = field(default=0, metadata={"help": "run seed"})
    mode: str = field(default="asyadmm", metadata={"help": f"solver mode: {' or '.join(MODES)}"})
    trace: bool = field(default=False, metadata={"help": "dump delivery trace (run only)"})

    def solver_config(self) -> admm.SolverConfig:
        return admm.SolverConfig(
            rho=self.rho,
            eps=self.epsilon,
            tau_bar=self.tau_bar,
            k_max=self.kmax,
            eps_abs=self.eps_abs,
            eps_rel=self.eps_rel,
            step_cap=self.step_cap,
            seed=self.seed,
        )

    def to_file(self, path) -> None:
        lines = [f"{f.name}={getattr(self, f.name)}" for f in fields(self)]
        Path(path).write_text("\n".join(lines) + "\n")

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        values: dict[str, str] = {}
        for raw in Path(path).read_text().splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"malformed config line in {path}: {line!r}")
            key, _, val = line.partition("=")
            key = key.strip()
            if key in values:
                raise ValueError(f"repeated config key in {path}: {key!r}")
            values[key] = val.strip()
        known = [f for f in fields(cls) if f.name in values]
        kwargs = {f.name: _parse(f, values.pop(f.name), f"config {f.name}") for f in known}
        if values:
            raise ValueError(f"unknown config keys in {path}: {sorted(values)}")
        return cls(**kwargs)


def _parse(f: Field, raw: str, name: str):
    """``raw`` as field ``f``'s type; a value that does not parse is a ValueError naming ``name``.

    ``f.type`` is the annotation's text, as this module defers annotations.
    """
    if f.type == "bool":
        if raw.lower() not in _BOOL_WORDS:
            raise ValueError(f"{name} must be 1/true/yes or 0/false/no, got {raw!r}")
        return _BOOL_WORDS[raw.lower()]
    if f.type in ("int", "float"):
        number, what = (int, "an integer") if f.type == "int" else (float, "a number")
        try:
            return number(raw)
        except ValueError:
            raise ValueError(f"{name} must be {what}, got {raw!r}") from None
    return raw


def build_problem(cfg: ExperimentConfig) -> tuple[admm.SolverConfig, Digraph, LeastSquaresInstance]:
    """The solver settings, digraph and least-squares instance every run of ``cfg`` shares.

    The one check of the settings a command's runs share, made in this order:
    mode, topology string, solver settings (before any draw), the digraph as
    loaded or drawn, its strong connectivity (the termination rule needs it,
    in every mode), checked by :func:`~asyncadmm.digraph.diameter`, which
    keeps the diameter on the digraph for every run, then the instance.
    """
    if cfg.mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {cfg.mode!r}")
    if cfg.topology != "random" and not cfg.topology.startswith("file:"):
        raise ValueError(f"topology must be 'random' or 'file:<path>', got {cfg.topology!r}")
    solver = cfg.solver_config()
    if cfg.topology.startswith("file:"):
        g = load_edge_list(cfg.topology[len("file:"):])
    else:
        g = random_strongly_connected(cfg.nodes, cfg.edge_prob, seed=(cfg.seed, _GRAPH_STREAM))
    try:
        diameter(g)  # kept on g, so no run and no forked cell computes it again
    except ValueError:
        raise ValueError(f"topology {cfg.topology} is not strongly connected") from None
    return solver, g, generate_ls(g.n, cfg.dim, cfg.dim, seed=(cfg.seed, _INSTANCE_STREAM))


def _write_csv(path, columns, rows) -> None:
    """A header line, then one line per row: a float as its repr, None as empty, anything else by str."""
    def text(v) -> str:
        return "" if v is None else repr(float(v)) if isinstance(v, float) else str(v)

    lines = [",".join(columns)] + [",".join(map(text, row)) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def run_once(cfg: ExperimentConfig, out_dir) -> int:
    """One solver run; writes run.csv, summary.csv, config.txt (and trace.txt).

    The output directory is made only once the run has succeeded, so a
    rejected run leaves nothing behind.  The trace is replayed after the run
    from the digraph, the run's delay stream and each iteration's consensus
    steps (:func:`~asyncadmm.consensus.delivery_trace`) and streamed to
    ``trace.txt``: a traced run solves exactly as an untraced one.
    """
    started = time.perf_counter()
    solver, g, instance = build_problem(cfg)
    record = admm.run(instance, g, solver, exact_averaging=(cfg.mode == "sync_baseline"))
    elapsed = time.perf_counter() - started
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "run.csv", admm.RUN_COLUMNS, record.rows())
    totals = (record.final_objective, record.truth.f_star, record.relative_error)
    steps = (sum(record.consensus_steps), record.mean_consensus_steps)
    _write_csv(out / "summary.csv", SUMMARY_COLUMNS, [totals + steps])
    cfg.to_file(out / "config.txt")
    save_edge_list(g, out / "topology.txt")
    if cfg.trace:  # every iteration of sync_baseline takes 0 steps: an empty file
        lines = consensus.delivery_trace(g, solver.delay_model(), record.consensus_steps)
        with open(out / "trace.txt", "w") as f:
            f.writelines(f"{line}\n" for line in lines)
    print(
        f"iterations={record.iterations} final_objective={record.final_objective!r} "
        f"oracle_objective={record.truth.f_star!r} capped_iterations={record.capped_iterations}"
    )
    print(f"runtime_seconds={elapsed:.3f}")  # informational only; never in the CSVs
    return 0


def _sweep_cell(shared, eps: float, tau: int):
    """One cell's status, relative error, mean steps and capped iterations.

    ``shared`` is the sweep's ``(solver, exact_averaging, digraph, instance,
    truth)``; a cell sets only the solver's ``eps`` and ``tau_bar``.
    """
    solver, exact_averaging, g, instance, truth = shared
    try:
        # replace re-validates: a bad list item (eps -1, tau_bar 2.5) fails here, as a cell error
        cell = replace(solver, eps=eps, tau_bar=tau)
        record = admm.run(instance, g, cell, exact_averaging=exact_averaging, truth=truth)
    except (ValueError, consensus.ProtocolError) as exc:
        # a bad list item or a failed protocol run must not kill the sweep
        return ("error: " + str(exc).replace(",", ";"), None, None, None)
    return ("ok", record.relative_error, record.mean_consensus_steps, record.capped_iterations)


def sweep(cfg: ExperimentConfig, eps_list, tau_list, out_dir) -> int:
    """Grid of runs over (epsilon, tau_bar); one CSV row per cell, in key order.

    Every cell solves one problem, built here with its centralized optimum
    before ``out_dir`` is made, so a setting the cells share that fails
    fails the whole sweep; only a bad list item or a failed run is a cell
    error.  Each cell is an independent seeded run, so the cells run in
    worker processes forked from this one, one per available CPU at most.
    They are submitted longest first: a consensus round lasts
    ``(1 + tau_bar) * D`` ticks, so the largest ``tau_bar`` goes first, and
    within one ``tau_bar`` the smallest ``epsilon``: on the same inputs a
    smaller tolerance runs at least as many check rounds.  Rows are
    collected in key order, so ``sweep.csv`` is the same for any number
    of workers.  Where the platform cannot fork, the cells run in this
    process.
    """
    if not eps_list or not tau_list:
        raise ValueError("sweep needs nonempty epsilon and tau_bar lists")
    if cfg.trace:
        raise ValueError("--trace is only written by run")
    # imported here: importing the CLI stays as cheap as the solver's imports
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    solver, g, instance = build_problem(cfg)
    shared = (solver, cfg.mode == "sync_baseline", g, instance, oracle.centralized_solution(instance))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cells = [(eps, tau) for eps in eps_list for tau in tau_list]
    if "fork" in multiprocessing.get_all_start_methods():
        # fork, not spawn: a worker starts as a copy of this process
        # (imports, configuration), not from a fresh interpreter
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        pool = ProcessPoolExecutor(
            min(len(cells), cpus or 1), mp_context=multiprocessing.get_context("fork")
        )
        try:
            longest_first = sorted(range(len(cells)), key=lambda i: (-cells[i][1], cells[i][0]))
            futures = {i: pool.submit(_sweep_cell, shared, *cells[i]) for i in longest_first}
            results = [futures[i].result() for i in range(len(cells))]
        finally:
            pool.shutdown(cancel_futures=True)
    else:
        results = [_sweep_cell(shared, *cell) for cell in cells]
    _write_csv(out / "sweep.csv", SWEEP_COLUMNS, [cell + row for cell, row in zip(cells, results)])
    cfg.to_file(out / "config.txt")
    print(REFERENCE_TREND)
    return 0


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    """One flag per ExperimentConfig field; the values stay strings until ``_parse``."""
    parser.add_argument("--config", help="flat key=value config file; flags override it")
    for f in fields(ExperimentConfig):
        switch = {"action": "store_const", "const": "true"} if f.type == "bool" else {}
        parser.add_argument(_flag(f.name), help=f.metadata["help"], **switch)
    parser.add_argument("--out", required=True, help="output directory")


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    cfg = ExperimentConfig.from_file(args.config) if args.config else ExperimentConfig()
    given = [(f, getattr(args, f.name)) for f in fields(cfg)]
    return replace(cfg, **{f.name: _parse(f, raw, _flag(f.name)) for f, raw in given if raw is not None})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="asyncadmm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="single run: run.csv + summary.csv")
    _add_common_flags(run_p)

    sweep_p = sub.add_parser("sweep", help="grid over epsilon x tau_bar: sweep.csv")
    _add_common_flags(sweep_p)
    sweep_p.add_argument("--epsilons", required=True, help="comma-separated epsilon list")
    sweep_p.add_argument("--tau-bars", required=True, dest="tau_bars", help="comma-separated tau_bar list")

    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        if args.command == "run":
            return run_once(cfg, args.out)
        table = {f.name: f for f in fields(ExperimentConfig)}
        eps_list = [_parse(table["epsilon"], v, "--epsilons") for v in args.epsilons.split(",") if v.strip()]
        tau_list = [_parse(table["tau_bar"], v, "--tau-bars") for v in args.tau_bars.split(",") if v.strip()]
        return sweep(cfg, eps_list, tau_list, args.out)
    except OSError as exc:  # a topology, config or --out path the user named
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # a singular problem (oracle.SingularProblemError) among them
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
