"""The random least-squares family: stacked per-node data, prox and objective."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .netsim import _integer

__all__ = ["LeastSquaresInstance", "generate_ls"]


@dataclass(frozen=True)
class LeastSquaresInstance:
    """Per-node data ``(A_i, b_i)`` with local costs ``f_i(x) = 0.5 * ||A_i x - b_i||^2``.

    ``a`` has shape ``(n, q, p)`` and ``b`` shape ``(n, q)``.  Every method
    works on all nodes at once and gives the same bits as the per-node
    computation.
    """

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        if self.a.ndim != 3 or self.b.ndim != 2:
            raise ValueError(f"expected a (n,q,p) and b (n,q), got {self.a.shape}, {self.b.shape}")
        if self.a.shape[:2] != self.b.shape:
            raise ValueError(f"inconsistent node blocks: a={self.a.shape}, b={self.b.shape}")

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def p(self) -> int:
        return self.a.shape[2]

    @cached_property
    def normal_blocks(self) -> tuple[np.ndarray, np.ndarray]:
        """``A_i^T A_i`` ``(n, p, p)`` and ``A_i^T b_i`` ``(n, p)``: computed once, read-only."""
        a_t = self.a.transpose(0, 2, 1)
        ata, atb = a_t @ self.a, (a_t @ self.b[..., None])[..., 0]
        ata.flags.writeable = atb.flags.writeable = False
        return ata, atb

    def prox(self, targets: np.ndarray, rho: float) -> np.ndarray:
        """Row ``i`` is ``argmin_x f_i(x) + (rho/2) * ||x - targets[i]||^2``.

        One stacked solve of the p-by-p normal systems
        ``(A_i^T A_i + rho I) x_i = A_i^T b_i + rho * targets[i]``, each
        positive definite for any finite rho > 0 that survives rounding on
        the diagonal.  Finite targets and a rho large enough to overflow
        either side, or the solution, raise ``ValueError`` naming rho, and
        so does a rho below the blocks' rounding (``1 + rho == 1`` beside a
        unit diagonal) that leaves a rank-deficient block's system singular.
        """
        if not rho > 0.0:  # NaN fails every comparison
            raise ValueError(f"rho must be > 0, got {rho}")
        if rho == np.inf:  # inf * I is NaN off the diagonal
            raise ValueError(f"rho must be finite, got {rho}")
        targets = np.asarray(targets, dtype=float)
        if not np.isfinite(targets).all():
            raise ValueError("prox targets must be finite")
        ata, atb = self.normal_blocks
        with np.errstate(over="ignore"):
            lhs = ata + rho * np.eye(self.p)
            rhs = atb + rho * targets
        if not (np.isfinite(lhs).all() and np.isfinite(rhs).all()):
            raise ValueError(f"rho={rho!r} overflows the prox system")
        try:
            x = np.linalg.solve(lhs, rhs[..., None])[..., 0]
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"rho={rho!r} leaves the prox system singular: {exc}") from exc
        if not np.isfinite(x).all():
            raise ValueError(f"rho={rho!r} overflows the prox output")
        return x

    def objective(self, x_rows: np.ndarray) -> float:
        """``F(X) = 0.5 * sum_i ||A_i x_i - b_i||^2`` for stacked rows ``x_rows``.

        The node terms are added in node order (see :func:`_node_order_totals`).
        """
        r = (self.a @ np.asarray(x_rows, dtype=float)[..., None])[..., 0] - self.b
        terms = 0.5 * (r[:, None, :] @ r[:, :, None])[:, 0, 0]
        return float(_node_order_totals(terms)[-1])


def _node_order_totals(terms: np.ndarray) -> np.ndarray:
    """Running sums over axis 0: row ``k`` adds up ``terms[:k]`` in node order.

    Row 0 is +0.0, so the first sum is ``0.0 + terms[0]``, as in a loop from
    ``total = 0.0``, signed zeros included.  ``np.sum`` (pairwise) and Python's
    ``sum`` (compensated since 3.12) would round differently.
    """
    return np.cumsum(np.concatenate([np.zeros((1, *terms.shape[1:])), terms]), axis=0)


def generate_ls(n: int, p: int, q: int, seed) -> LeastSquaresInstance:
    """Draw every entry of every ``A_i`` and ``b_i`` i.i.d. standard normal."""
    n, p, q = (_integer(value, name) for value, name in zip((n, p, q), "npq"))
    if min(n, p, q) < 1:
        raise ValueError(f"dimensions must be >= 1, got n={n}, p={p}, q={q}")
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, q, p))
    b = rng.standard_normal((n, q))
    return LeastSquaresInstance(a=a, b=b)
