"""Independent ground-truth computations used by tests and diagnostics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problems import LeastSquaresInstance, _node_order_totals

__all__ = [
    "SingularProblemError",
    "GroundTruth",
    "centralized_solution",
    "exact_average",
]


class SingularProblemError(ValueError):
    """The aggregate normal matrix is singular; regenerate the instance."""


@dataclass(frozen=True)
class GroundTruth:
    """Centralized optimum: minimizer, optimal value, and per-node dual blocks."""

    x_star: np.ndarray
    f_star: float
    lam_star: np.ndarray


def centralized_solution(instance: LeastSquaresInstance) -> GroundTruth:
    """Solve ``(sum A_i^T A_i) x = sum A_i^T b_i`` and derive the dual blocks.

    The dual block of node ``i`` is ``-A_i^T (A_i x* - b_i)``; the blocks sum
    to zero by the normal equations.  Sums over nodes run in node order.
    """
    ata, atb = instance.normal_blocks
    h = _node_order_totals(ata)[-1]
    r = _node_order_totals(atb)[-1]
    try:
        x_star = np.linalg.solve(h, r)
    except np.linalg.LinAlgError as exc:
        raise SingularProblemError(f"aggregate normal matrix is singular: {exc}") from exc
    res = instance.a @ x_star - instance.b
    lam_star = (-instance.a.transpose(0, 2, 1) @ res[..., None])[..., 0]
    f_star = instance.objective(np.broadcast_to(x_star, (instance.n, instance.p)))
    return GroundTruth(x_star=x_star, f_star=f_star, lam_star=lam_star)


def exact_average(vectors) -> np.ndarray:
    """Arithmetic mean of the rows, single pass with compensated summation.

    Uses the Neumaier variant, which keeps the correction term even when a
    new row is larger in magnitude than the running sum.  Every column runs
    at once, as two node-order folds: first the running totals, then the
    corrections, each taken from a total and the row that produced it.
    """
    arr = np.asarray(vectors, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot average an empty collection")
    if arr.ndim == 1:
        arr = arr[:, None]
    rows = arr.reshape(arr.shape[0], -1)
    totals = _node_order_totals(rows)
    prev, t = totals[:-1], totals[1:]
    comp = np.where(np.abs(prev) >= np.abs(rows), (prev - t) + rows, (rows - t) + prev)
    sums = totals[-1] + _node_order_totals(comp)[-1]
    return sums.reshape(arr.shape[1:]) / arr.shape[0]

