"""Outer optimization loop: local prox steps, consensus averaging, dual ascent.

Each iteration performs the local prox update of every node's decision
variable in one stacked solve, then replaces the coupling variable by an
approximate projection onto the consensus set: a terminating ratio-consensus
instance seeded with ``x + lam / rho`` whose result every node holds to
within the tolerance ``eps`` of the exact network average.  The dual
variable then takes the usual ascent step.  Iteration boundaries are
barriers: iteration ``k + 1`` starts only after the consensus instance of
iteration ``k`` has terminated at every node, which is exactly what the
coarse per-round synchronization of the underlying protocol guarantees.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import oracle as oracle_mod
from .consensus import run_terminating_consensus
from .digraph import Digraph, build_weights
from .netsim import DelayModel, _integer, _real
from .problems import LeastSquaresInstance

__all__ = ["SolverConfig", "RunRecord", "x_update", "stopping_criterion", "run"]

_INIT_STREAM = 0
_DELAY_STREAM = 1

# run.csv's columns: k, then the RunRecord lists of the same names
RUN_COLUMNS = ("k", "objective", "primal_res", "dual_res", "consensus_steps", "gap", "max_node_err")


@dataclass
class SolverConfig:
    """Knobs of one solver run.

    ``eps`` is the consensus tolerance of the approximate projection, not the
    optimization accuracy.  With ``eps_abs = eps_rel = 0`` the residual exit
    needs both residuals to be exactly zero, i.e. an exact fixed point, so
    the loop otherwise runs ``k_max`` iterations (useful for rate studies).
    """

    rho: float = 1.0
    eps: float = 0.01
    tau_bar: int = 3
    k_max: int = 200
    eps_abs: float = 1e-4
    eps_rel: float = 1e-2
    step_cap: int = 1000
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("rho", "eps", "eps_abs", "eps_rel"):
            _real(getattr(self, name), name)
        # "not x > 0", not "x <= 0": NaN fails every comparison
        if not self.rho > 0.0:
            raise ValueError(f"rho must be > 0, got {self.rho}")
        if self.rho == np.inf:  # the prox would scale the identity by inf: NaN off its diagonal
            raise ValueError(f"rho must be finite, got {self.rho}")
        if not self.eps > 0.0:
            raise ValueError(f"eps must be > 0, got {self.eps}")
        # numpy would reject a negative seed only at the first draw
        for name, low in (("k_max", 1), ("step_cap", 1), ("seed", 0), ("tau_bar", 0)):
            _integer(getattr(self, name), name, low)
        for name in ("eps_abs", "eps_rel"):
            if not getattr(self, name) >= 0.0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")

    def delay_model(self) -> DelayModel:
        return DelayModel(self.tau_bar, seed=(self.seed, _DELAY_STREAM))


@dataclass
class RunRecord:
    """Everything one run produced: per-iteration metrics plus the z trajectory.

    ``gap[k-1]`` is the saddle-point gap at the ergodic averages of the first
    ``k`` iterates; :attr:`theta` is the constant of its O(1/k) bound.
    ``z_hist[k]`` is ``z_k``, ``z_hist[0]`` the random start ``z0``.  The
    iterates ``x_k`` and ``lam_k`` are not kept: they follow from ``lam0``
    and ``z_hist`` as ``x_k = x_update(problem, lam_{k-1}, z_{k-1}, rho)``
    and ``lam_k = lam_{k-1} + rho * (x_k - z_k)``.  In exact-averaging mode
    every node holds one average, so ``z_hist[1:]`` are read-only views of
    one ``(p,)`` row broadcast to ``(n, p)``: copy one before writing to it.
    """

    config: SolverConfig
    truth: oracle_mod.GroundTruth
    lam0: np.ndarray
    objective: list[float] = field(default_factory=list)
    primal_res: list[float] = field(default_factory=list)
    dual_res: list[float] = field(default_factory=list)
    consensus_steps: list[int] = field(default_factory=list)
    gap: list[float] = field(default_factory=list)
    max_node_err: list[float] = field(default_factory=list)
    capped: list[bool] = field(default_factory=list)
    z_hist: list[np.ndarray] = field(default_factory=list)
    stopped_early: bool = False

    @property
    def iterations(self) -> int:
        return len(self.objective)

    @property
    def final_objective(self) -> float:
        return self.objective[-1]

    @property
    def capped_iterations(self) -> int:
        return sum(self.capped)

    @property
    def relative_error(self) -> float:
        """``|f - f*| / |f*|``; at ``f* == 0`` it is ``inf``, or 0.0 when ``f`` is 0 too."""
        gap, scale = abs(self.final_objective - self.truth.f_star), abs(self.truth.f_star)
        if scale == 0.0:
            return np.inf if gap else 0.0
        return gap / scale

    @property
    def mean_consensus_steps(self) -> float:
        return sum(self.consensus_steps) / self.iterations

    @property
    def theta(self) -> float:
        """Constant of the O(1/k) bound on ``gap``.

        ``||lam* - lam0||^2 / (2 rho) + (rho/2) * ||x* - z0||^2``, with ``x*``
        repeated on every node's row.
        """
        rho = self.config.rho
        theta = float(np.linalg.norm(self.truth.lam_star - self.lam0)) ** 2 / (2.0 * rho)
        return theta + 0.5 * rho * float(np.linalg.norm(self.truth.x_star - self.z_hist[0])) ** 2

    def rows(self):
        """One tuple per iteration, in :data:`RUN_COLUMNS` order."""
        return zip(range(1, self.iterations + 1), *(getattr(self, c) for c in RUN_COLUMNS[1:]))


def x_update(
    problem: LeastSquaresInstance, lam: np.ndarray, z: np.ndarray, rho: float
) -> np.ndarray:
    """Every node's prox step at once.

    Row ``i`` minimizes ``f_i(x) + lam_i^T x + (rho/2) ||x - z_i||^2``;
    completing the square turns this into the prox at target
    ``z_i - lam_i / rho``.  A rho small enough to overflow that target raises
    ``ValueError`` naming it.
    """
    with np.errstate(over="ignore"):
        targets = z - lam / rho
    if not np.isfinite(targets).all():
        raise ValueError(f"rho={rho!r} overflows the prox target z - lam / rho")
    return problem.prox(targets, rho)


def stopping_criterion(
    x_rows: np.ndarray,
    z_rows: np.ndarray,
    lam_rows: np.ndarray,
    primal: float,
    dual: float,
    eps_abs: float,
    eps_rel: float,
) -> bool:
    """Mixed absolute/relative primal and dual residual test (both inclusive).

    ``primal`` is ``||x - z||`` and ``dual`` is ``rho * ||z - z_prev||``, as
    :func:`run` records them.
    """
    total_dim = np.sqrt(x_rows.size)
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
        dm = cfg.delay_model()
    if truth is None:
        truth = oracle_mod.centralized_solution(problem)

    rng = np.random.default_rng((cfg.seed, _INIT_STREAM))
    # x_1 never reads this draw; it only moves the stream on to z0 and lam0
    rng.standard_normal((n, p))
    z = rng.standard_normal((n, p))
    lam = rng.standard_normal((n, p))

    # z is never written in place (each iteration makes a new one)
    record = RunRecord(config=cfg, truth=truth, lam0=lam)
    record.z_hist.append(z)

    sum_x = np.zeros((n, p))
    sum_z = np.zeros((n, p))

    for k in range(1, cfg.k_max + 1):
        x = x_update(problem, lam, z, cfg.rho)
        y0 = x + lam / cfg.rho
        z_prev = z
        if exact_averaging:
            avg = oracle_mod.exact_average(y0)
            # the arithmetic below reads a contiguous z faster; the record
            # keeps one row, broadcast (read-only) to n
            z = np.tile(avg, (n, 1))
            z_kept = np.broadcast_to(avg, (n, p))
            steps, converged = 0, True
        else:
            # on a cap hit the capped estimates are kept and the event recorded
            res = run_terminating_consensus(g, weights, dm, y0, cfg.eps, cfg.step_cap)
            z, steps, converged = res.z, res.steps, res.converged
            z_kept = z
        with np.errstate(over="ignore"):
            lam = lam + cfg.rho * (x - z)
        if not np.isfinite(lam).all():
            raise ValueError(f"rho={cfg.rho!r} overflows the dual step lam + rho * (x - z)")
        with np.errstate(over="ignore"):  # the residual test's dual threshold reads ||lam||
            lam_overflows = np.linalg.norm(lam) == np.inf
        if lam_overflows:
            raise ValueError(f"rho={cfg.rho!r} overflows the residual test's ||lam||")

        sum_x += x
        sum_z += z
        x_bar = sum_x / k
        z_bar = sum_z / k
        gap = (
            problem.objective(x_bar)
            + float(np.sum(truth.lam_star * (x_bar - z_bar)))
            - truth.f_star
        )

        primal = float(np.linalg.norm(x - z))
        dual = cfg.rho * float(np.linalg.norm(z - z_prev))
        record.objective.append(problem.objective(x))
        record.primal_res.append(primal)
        record.dual_res.append(dual)
        record.consensus_steps.append(steps)
        record.gap.append(gap)
        record.max_node_err.append(float(np.max(np.linalg.norm(x - truth.x_star, axis=1))))
        record.capped.append(not converged)
        record.z_hist.append(z_kept)

        if stopping_criterion(x, z, lam, primal, dual, cfg.eps_abs, cfg.eps_rel):
            record.stopped_early = True
            break

    return record

