"""Local convex costs: the prox interface and the random least-squares family."""

from __future__ import annotations

import abc
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "CostFunction",
    "LeastSquaresCost",
    "LeastSquaresInstance",
    "generate_ls",
    "save_instance",
    "load_instance",
]


class CostFunction(abc.ABC):
    """A closed, proper, convex local cost with a proximal map.

    ``prox(target, rho)`` must return ``argmin_x  f(x) + (rho/2) * ||x - target||^2``.
    ``gradient`` is optional; it is only needed to derive dual ground truth.
    """

    @abc.abstractmethod
    def eval(self, x: np.ndarray) -> float: ...

    @abc.abstractmethod
    def prox(self, target: np.ndarray, rho: float) -> np.ndarray: ...

    def gradient(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError(f"{type(self).__name__} has no gradient oracle")


class LeastSquaresCost(CostFunction):
    """``f(x) = 0.5 * ||A x - b||^2`` with a closed-form prox.

    The prox solves the p-by-p normal system ``(A^T A + rho I) x = A^T b + rho*target``
    by direct factorization; the system is positive definite for any rho > 0.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray):
        self.a = np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float)
        if self.a.ndim != 2 or self.b.ndim != 1 or self.a.shape[0] != self.b.shape[0]:
            raise ValueError(f"incompatible shapes A={self.a.shape}, b={self.b.shape}")
        self._gram = self.a.T @ self.a
        self._atb = self.a.T @ self.b

    @property
    def dim(self) -> int:
        return self.a.shape[1]

    def eval(self, x: np.ndarray) -> float:
        r = self.a @ x - self.b
        return 0.5 * float(r @ r)

    def prox(self, target: np.ndarray, rho: float) -> np.ndarray:
        if rho <= 0.0:
            raise ValueError(f"rho must be > 0, got {rho}")
        lhs = self._gram + rho * np.eye(self.dim)
        return np.linalg.solve(lhs, self._atb + rho * np.asarray(target, dtype=float))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return self.a.T @ (self.a @ x - self.b)


@dataclass(frozen=True)
class LeastSquaresInstance:
    """Per-node data ``(A_i, b_i)`` for the distributed least-squares problem.

    ``a`` has shape ``(n, q, p)`` and ``b`` shape ``(n, q)``.  The generation
    seed is carried along for reproducibility.
    """

    a: np.ndarray
    b: np.ndarray
    seed: object = None

    def __post_init__(self) -> None:
        if self.a.ndim != 3 or self.b.ndim != 2:
            raise ValueError(f"expected a (n,q,p) and b (n,q), got {self.a.shape}, {self.b.shape}")
        if self.a.shape[:2] != self.b.shape:
            raise ValueError(f"inconsistent node blocks: a={self.a.shape}, b={self.b.shape}")

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def q(self) -> int:
        return self.a.shape[1]

    @property
    def p(self) -> int:
        return self.a.shape[2]

    def cost(self, i: int) -> LeastSquaresCost:
        return LeastSquaresCost(self.a[i], self.b[i])

    def objective(self, x_rows: np.ndarray) -> float:
        """``F(X) = 0.5 * sum_i ||A_i x_i - b_i||^2`` for stacked rows ``x_rows``."""
        x_rows = np.asarray(x_rows, dtype=float)
        total = 0.0
        for i in range(self.n):
            r = self.a[i] @ x_rows[i] - self.b[i]
            total += 0.5 * float(r @ r)
        return total


def generate_ls(n: int, p: int, q: int, seed) -> LeastSquaresInstance:
    """Draw every entry of every ``A_i`` and ``b_i`` i.i.d. standard normal."""
    if min(n, p, q) < 1:
        raise ValueError(f"dimensions must be >= 1, got n={n}, p={p}, q={q}")
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, q, p))
    b = rng.standard_normal((n, q))
    return LeastSquaresInstance(a=a, b=b, seed=seed)


def save_instance(instance: LeastSquaresInstance, path) -> None:
    """Text export, one block per node: header ``i q p``, q rows of A_i, then b_i."""
    lines = []
    for i in range(instance.n):
        lines.append(f"{i} {instance.q} {instance.p}")
        for row in instance.a[i]:
            lines.append(" ".join(repr(float(v)) for v in row))
        lines.append(" ".join(repr(float(v)) for v in instance.b[i]))
    Path(path).write_text("\n".join(lines) + "\n")


def load_instance(path) -> LeastSquaresInstance:
    """Read the block format written by :func:`save_instance`."""
    raw = [ln for ln in Path(path).read_text().splitlines() if ln.strip()]
    blocks_a, blocks_b = [], []
    pos = 0
    while pos < len(raw):
        header = raw[pos].split()
        if len(header) != 3:
            raise ValueError(f"malformed block header at line {pos + 1}: {raw[pos]!r}")
        _, q, p = (int(v) for v in header)
        rows = [[float(v) for v in raw[pos + 1 + r].split()] for r in range(q)]
        b_row = [float(v) for v in raw[pos + 1 + q].split()]
        if any(len(r) != p for r in rows) or len(b_row) != q:
            raise ValueError(f"inconsistent block starting at line {pos + 1}")
        blocks_a.append(rows)
        blocks_b.append(b_row)
        pos += q + 2
    return LeastSquaresInstance(a=np.array(blocks_a, dtype=float), b=np.array(blocks_b, dtype=float))
