"""Independent ground-truth computations used by tests and diagnostics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .digraph import WeightMatrix
from .problems import LeastSquaresInstance

__all__ = [
    "SingularProblemError",
    "GroundTruth",
    "centralized_solution",
    "exact_average",
    "synchronous_ratio_oracle",
    "synchronous_ratio_trajectory",
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
    to zero by the normal equations.
    """
    p = instance.p
    h = np.zeros((p, p))
    r = np.zeros(p)
    for i in range(instance.n):
        h += instance.a[i].T @ instance.a[i]
        r += instance.a[i].T @ instance.b[i]
    try:
        x_star = np.linalg.solve(h, r)
    except np.linalg.LinAlgError as exc:
        raise SingularProblemError(f"aggregate normal matrix is singular: {exc}") from exc
    lam_star = np.empty((instance.n, p))
    f_star = 0.0
    for i in range(instance.n):
        res = instance.a[i] @ x_star - instance.b[i]
        lam_star[i] = -instance.a[i].T @ res
        f_star += 0.5 * float(res @ res)
    return GroundTruth(x_star=x_star, f_star=f_star, lam_star=lam_star)


def exact_average(vectors) -> np.ndarray:
    """Arithmetic mean of the rows, single pass with compensated summation.

    Uses the Neumaier variant, which keeps the correction term even when a
    new row is larger in magnitude than the running sum.  Each column runs
    the recurrence on Python floats (IEEE doubles, as in numpy), which is
    far cheaper than one array operation chain per row.
    """
    arr = np.asarray(vectors, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot average an empty collection")
    if arr.ndim == 1:
        arr = arr[:, None]
    sums = []
    for column in arr.reshape(arr.shape[0], -1).T.tolist():
        total = comp = 0.0
        for x in column:
            t = total + x
            if abs(total) >= abs(x):
                comp += (total - t) + x
            else:
                comp += (x - t) + total
            total = t
        sums.append(total + comp)
    return np.array(sums).reshape(arr.shape[1:]) / arr.shape[0]


def synchronous_ratio_oracle(weights: WeightMatrix, y0: np.ndarray, k: int) -> np.ndarray:
    """Undelayed ratio estimate at step ``k`` by explicit matrix powering.

    Computes ``(P^k y0) / (P^k 1)`` entrywise, accumulating per receiver in
    ascending sender order with scale-then-sum, which is the exact operation
    order of the simulator's zero-delay path.  The two must agree bit for bit.
    """
    return synchronous_ratio_trajectory(weights, y0, k)[k]


def synchronous_ratio_trajectory(weights: WeightMatrix, y0: np.ndarray, k: int) -> list[np.ndarray]:
    """All undelayed ratio estimates ``[z^0, ..., z^k]`` in one pass."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    matrix = weights.matrix
    n = matrix.shape[0]
    senders = [np.nonzero(matrix[j])[0] for j in range(n)]
    y = np.asarray(y0, dtype=float)
    if y.ndim == 1:
        y = y[:, None]
    y = y.copy()
    w = np.ones(n)
    traj = [y / w[:, None]]
    for _ in range(k):
        y_next = np.zeros_like(y)
        w_next = np.zeros(n)
        for j in range(n):
            for l in senders[j]:
                plj = matrix[j, l]
                y_next[j] += plj * y[l]
                w_next[j] += plj * w[l]
        y, w = y_next, w_next
        traj.append(y / w[:, None])
    return traj
