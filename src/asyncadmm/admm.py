"""Outer optimization loop: local prox steps, consensus averaging, dual ascent.

Each iteration performs, per node, the local prox update of the decision
variable, then replaces the coupling variable by an approximate projection
onto the consensus set: a terminating ratio-consensus instance seeded with
``x + lam / rho`` whose result every node holds to within the tolerance
``eps`` of the exact network average.  The dual variable then takes the usual
ascent step.  Iteration boundaries are barriers: iteration ``k + 1`` starts
only after the consensus instance of iteration ``k`` has terminated at every
node, which is exactly what the coarse per-round synchronization of the
underlying protocol guarantees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import oracle as oracle_mod
from .consensus import run_terminating_consensus
from .digraph import Digraph, WeightMatrix, build_weights, diameter
from .netsim import DelayModel
from .problems import LeastSquaresInstance

__all__ = [
    "SolverConfig",
    "RunRecord",
    "GapDiagnostics",
    "x_update",
    "z_update",
    "lambda_update",
    "stopping_criterion",
    "run",
    "rate_diagnostics",
]

CSV_COLUMNS = ("k", "objective", "primal_res", "dual_res", "consensus_steps", "gap", "max_node_err")

_INIT_STREAM = 0
_DELAY_STREAM = 1


@dataclass
class SolverConfig:
    """Knobs of one solver run.

    ``eps`` is the consensus tolerance of the approximate projection, not the
    optimization accuracy.  ``stop_on_residuals`` disables the primal/dual
    residual exit when False, so the loop always runs ``k_max`` iterations
    (useful for rate studies).
    """

    rho: float = 1.0
    eps: float = 0.01
    tau_bar: int = 3
    k_max: int = 200
    eps_abs: float = 1e-4
    eps_rel: float = 1e-2
    step_cap: int = 1000
    seed: int = 0
    stop_on_residuals: bool = True

    def __post_init__(self) -> None:
        if self.rho <= 0.0:
            raise ValueError(f"rho must be > 0, got {self.rho}")
        if self.eps <= 0.0:
            raise ValueError(f"eps must be > 0, got {self.eps}")
        if self.k_max < 1:
            raise ValueError(f"k_max must be >= 1, got {self.k_max}")
        if self.tau_bar < 0:
            raise ValueError(f"tau_bar must be >= 0, got {self.tau_bar}")
        if self.step_cap < 1:
            raise ValueError(f"step_cap must be >= 1, got {self.step_cap}")
        if self.eps_abs < 0.0 or self.eps_rel < 0.0:
            raise ValueError("stopping tolerances must be >= 0")

    def delay_model(self) -> DelayModel:
        if self.tau_bar == 0:
            return DelayModel.zero()
        return DelayModel.uniform(self.tau_bar, seed=(self.seed, _DELAY_STREAM))


@dataclass
class RunRecord:
    """Everything one run produced: per-iteration metrics plus trajectories."""

    config: SolverConfig
    truth: oracle_mod.GroundTruth
    x0: np.ndarray
    z0: np.ndarray
    lam0: np.ndarray
    k: list[int] = field(default_factory=list)
    objective: list[float] = field(default_factory=list)
    primal_res: list[float] = field(default_factory=list)
    dual_res: list[float] = field(default_factory=list)
    consensus_steps: list[int] = field(default_factory=list)
    gap: list[float] = field(default_factory=list)
    max_node_err: list[float] = field(default_factory=list)
    capped: list[bool] = field(default_factory=list)
    x_hist: list[np.ndarray] = field(default_factory=list)
    z_hist: list[np.ndarray] = field(default_factory=list)
    lam_hist: list[np.ndarray] = field(default_factory=list)
    stopped_early: bool = False

    @property
    def iterations(self) -> int:
        return len(self.k)

    @property
    def final_objective(self) -> float:
        return self.objective[-1]

    @property
    def capped_iterations(self) -> int:
        return sum(self.capped)

    def rows(self):
        for i in range(self.iterations):
            yield (
                self.k[i],
                self.objective[i],
                self.primal_res[i],
                self.dual_res[i],
                self.consensus_steps[i],
                self.gap[i],
                self.max_node_err[i],
            )

    def to_csv(self, path) -> None:
        lines = [",".join(CSV_COLUMNS)]
        for k, obj, primal, dual, steps, gap, node_err in self.rows():
            lines.append(
                f"{k},{_fmt(obj)},{_fmt(primal)},{_fmt(dual)},{steps},{_fmt(gap)},{_fmt(node_err)}"
            )
        Path(path).write_text("\n".join(lines) + "\n")


@dataclass(frozen=True)
class GapDiagnostics:
    """Ergodic-average optimality gaps and the matching analytic bound curve."""

    gaps: np.ndarray
    bound: np.ndarray
    theta: float
    c_fit: float


def _fmt(v: float) -> str:
    return repr(float(v))


def x_update(cost, lam_i: np.ndarray, z_i: np.ndarray, rho: float) -> np.ndarray:
    """Local prox step: ``argmin_x f(x) + lam_i^T x + (rho/2) ||x - z_i||^2``.

    Completing the square turns this into the cost's prox at target
    ``z_i - lam_i / rho``.
    """
    return cost.prox(z_i - lam_i / rho, rho)


def z_update(
    g: Digraph,
    weights: WeightMatrix,
    dm: DelayModel,
    y0: np.ndarray,
    eps: float,
    step_cap: int,
    graph_diameter: int | None = None,
    trace: list[str] | None = None,
) -> tuple[np.ndarray, int, bool]:
    """Approximate projection onto the consensus set by terminating consensus.

    Returns ``(z_rows, steps, converged)``.  On a cap hit the capped estimates
    are returned as-is; the caller decides what to do with the event.
    """
    result = run_terminating_consensus(
        g, weights, dm, y0, eps, step_cap, graph_diameter=graph_diameter, trace=trace
    )
    return result.z, result.steps, result.converged


def lambda_update(lam_i: np.ndarray, x_i: np.ndarray, z_i: np.ndarray, rho: float) -> np.ndarray:
    """Dual ascent step ``lam + rho * (x - z)``."""
    return lam_i + rho * (x_i - z_i)


def stopping_criterion(
    x_rows: np.ndarray,
    z_rows: np.ndarray,
    z_prev_rows: np.ndarray,
    lam_rows: np.ndarray,
    eps_abs: float,
    eps_rel: float,
    rho: float,
) -> bool:
    """Mixed absolute/relative primal and dual residual test (both inclusive)."""
    total_dim = np.sqrt(x_rows.size)
    primal = float(np.linalg.norm(x_rows - z_rows))
    dual = rho * float(np.linalg.norm(z_rows - z_prev_rows))
    primal_thr = total_dim * eps_abs + eps_rel * max(
        float(np.linalg.norm(x_rows)), float(np.linalg.norm(z_rows))
    )
    dual_thr = total_dim * eps_abs + eps_rel * float(np.linalg.norm(lam_rows))
    return primal <= primal_thr and dual <= dual_thr


def run(
    problem: LeastSquaresInstance,
    g: Digraph,
    cfg: SolverConfig,
    exact_averaging: bool = False,
    truth: oracle_mod.GroundTruth | None = None,
    trace: list[str] | None = None,
) -> RunRecord:
    """Drive the full solver and record per-iteration diagnostics.

    ``exact_averaging=True`` swaps the consensus-based projection for the
    exact network average (the idealized synchronous baseline); everything
    else, the random initialization included, stays identical so runs with
    the same seed are directly comparable across the two modes.

    Deterministic: identical ``(problem, g, cfg)`` produce an identical
    record.
    """
    if problem.n != g.n:
        raise ValueError(f"problem has {problem.n} nodes but digraph has {g.n}")
    n, p = g.n, problem.p
    if not exact_averaging:
        weights = build_weights(g)
        d = diameter(g)
        dm = cfg.delay_model()
    if truth is None:
        truth = oracle_mod.centralized_solution(problem)
    costs = [problem.cost(i) for i in range(n)]

    rng = np.random.default_rng((cfg.seed, _INIT_STREAM))
    x = rng.standard_normal((n, p))
    z = rng.standard_normal((n, p))
    lam = rng.standard_normal((n, p))

    record = RunRecord(config=cfg, truth=truth, x0=x.copy(), z0=z.copy(), lam0=lam.copy())
    record.x_hist.append(x.copy())
    record.z_hist.append(z.copy())
    record.lam_hist.append(lam.copy())

    x_star_rows = np.tile(truth.x_star, (n, 1))
    sum_x = np.zeros((n, p))
    sum_z = np.zeros((n, p))

    for k in range(1, cfg.k_max + 1):
        x = np.stack([x_update(costs[i], lam[i], z[i], cfg.rho) for i in range(n)])
        y0 = x + lam / cfg.rho
        if exact_averaging:
            z_new = np.tile(oracle_mod.exact_average(y0), (n, 1))
            steps, converged = 0, True
        else:
            z_new, steps, converged = z_update(
                g, weights, dm, y0, cfg.eps, cfg.step_cap, graph_diameter=d, trace=trace
            )
        z_prev = z
        z = z_new
        lam = lam + cfg.rho * (x - z)

        sum_x += x
        sum_z += z
        x_bar = sum_x / k
        z_bar = sum_z / k
        gap = (
            problem.objective(x_bar)
            + float(np.sum(truth.lam_star * (x_bar - z_bar)))
            - truth.f_star
        )

        record.k.append(k)
        record.objective.append(problem.objective(x))
        record.primal_res.append(float(np.linalg.norm(x - z)))
        record.dual_res.append(cfg.rho * float(np.linalg.norm(z - z_prev)))
        record.consensus_steps.append(steps)
        record.gap.append(gap)
        record.max_node_err.append(float(np.max(np.linalg.norm(x - x_star_rows, axis=1))))
        record.capped.append(not converged)
        record.x_hist.append(x.copy())
        record.z_hist.append(z.copy())
        record.lam_hist.append(lam.copy())

        if cfg.stop_on_residuals and stopping_criterion(
            x, z, z_prev, lam, cfg.eps_abs, cfg.eps_rel, cfg.rho
        ):
            record.stopped_early = True
            break

    return record


def rate_diagnostics(
    problem: LeastSquaresInstance,
    x_hist: list[np.ndarray],
    z_hist: list[np.ndarray],
    truth: oracle_mod.GroundTruth,
    rho: float,
    eps: float,
    lam0: np.ndarray,
    z0: np.ndarray,
) -> GapDiagnostics:
    """Per-iteration ergodic optimality gaps and the O(1/k) reference curve.

    ``gaps[k-1]`` is the saddle-point gap evaluated at the ergodic averages of
    the first ``k`` iterates.  The reference curve is ``theta / k`` plus a
    consensus-error allowance ``c * sqrt(n) * eps`` where ``c`` is the
    smallest nonnegative constant making the curve dominate the measured
    gaps; ``c`` is reported, never asserted.
    """
    n = z0.shape[0]
    iters = len(x_hist) - 1
    x_star_rows = np.tile(truth.x_star, (n, 1))
    theta = float(np.linalg.norm(truth.lam_star - lam0)) ** 2 / (2.0 * rho)
    theta += 0.5 * rho * float(np.linalg.norm(x_star_rows - z0)) ** 2

    gaps = np.empty(iters)
    sum_x = np.zeros_like(x_hist[0])
    sum_z = np.zeros_like(z_hist[0])
    for k in range(1, iters + 1):
        sum_x += x_hist[k]
        sum_z += z_hist[k]
        x_bar = sum_x / k
        z_bar = sum_z / k
        gaps[k - 1] = (
            problem.objective(x_bar)
            + float(np.sum(truth.lam_star * (x_bar - z_bar)))
            - truth.f_star
        )

    ks = np.arange(1, iters + 1, dtype=float)
    slack = np.sqrt(n) * eps
    c_fit = max(0.0, float(np.max((gaps - theta / ks) / slack))) if slack > 0 else 0.0
    bound = theta / ks + c_fit * slack
    return GapDiagnostics(gaps=gaps, bound=bound, theta=theta, c_fit=c_fit)
