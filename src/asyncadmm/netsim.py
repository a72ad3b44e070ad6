"""Seeded integer message delays in ``[0, tau_bar]``.

One logical clock drives the whole network.  A message sent at time ``k``
with sampled delay ``tau`` is consumed by the update that starts at time
``k + tau``, i.e. it feeds the state computed for time ``k + tau + 1``.
Delay zero is therefore the ordinary synchronous exchange, and a node's own
value (always sent with delay zero) is never stale.  Delivery itself is done
by :class:`asyncadmm.consensus.ConsensusEngine`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["DelayModel"]


class DelayModel:
    """Per-message integer delays in ``[0, tau_bar]``.

    Two samplers are available: ``zero`` (every delay is 0, reproducing the
    synchronous case exactly and consuming no randomness) and ``uniform``
    (i.i.d. uniform over ``{0, ..., tau_bar}`` per message).  Sampling is
    reproducible for a fixed seed.
    """

    KINDS = ("zero", "uniform")

    def __init__(self, tau_bar: int, kind: str = "uniform", seed=0):
        if tau_bar < 0:
            raise ValueError(f"tau_bar must be >= 0, got {tau_bar}")
        if kind not in self.KINDS:
            raise ValueError(f"unknown delay kind {kind!r}; expected one of {self.KINDS}")
        if kind == "zero" and tau_bar != 0:
            raise ValueError("zero delay model requires tau_bar == 0")
        self.tau_bar = int(tau_bar)
        self.kind = kind
        self._rng = np.random.default_rng(seed)

    @classmethod
    def zero(cls) -> "DelayModel":
        return cls(0, kind="zero")

    @classmethod
    def uniform(cls, tau_bar: int, seed=0) -> "DelayModel":
        return cls(tau_bar, kind="uniform", seed=seed)

    def sample_many(self, count: int) -> np.ndarray:
        """``count`` delays drawn in one batch from the model's stream.

        A batch yields the same values as the same number of draws split
        over several calls.
        """
        if self.kind == "zero":
            return np.zeros(count, dtype=np.int64)
        return self._rng.integers(0, self.tau_bar + 1, size=count)
