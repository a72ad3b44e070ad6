"""Seeded integer message delays in ``[0, tau_bar]``.

One logical clock drives the whole network.  A message sent at time ``k``
with sampled delay ``tau`` is consumed by the update that starts at time
``k + tau``, i.e. it feeds the state computed for time ``k + tau + 1``.
Delay zero is therefore the ordinary synchronous exchange, and a node's own
value (always sent with delay zero) is never stale.  Delivery itself is done
by :class:`asyncadmm.consensus.ConsensusEngine`.
"""

from __future__ import annotations

import numbers
import operator

import numpy as np

__all__ = ["DelayModel"]


class DelayModel:
    """Per-message integer delays, i.i.d. uniform over ``{0, ..., tau_bar}``.

    ``tau_bar == 0`` is the synchronous case: every delay is 0 and no
    randomness is consumed.  Sampling is reproducible for a fixed seed.
    ``uniform(tau_bar, seed)`` is another spelling of the constructor, kept
    because ``benchmarks/workloads.py`` calls it.
    """

    def __init__(self, tau_bar: int, seed=0):
        self.tau_bar = _integer(tau_bar, "tau_bar", low=0)
        self._rng = np.random.default_rng(seed)

    @classmethod
    def uniform(cls, tau_bar: int, seed=0) -> "DelayModel":
        return cls(tau_bar, seed=seed)

    def sample_many(self, count: int) -> np.ndarray:
        """``count`` delays drawn in one batch from the model's stream.

        A batch yields the same values as the same number of draws split
        over several calls.
        """
        # int32 and int64 draws take the same 32-bit path, so the values and
        # the stream are those of an int64 draw; at tau_bar == 0 this is
        # zeros and draws nothing from the stream
        return self._rng.integers(0, self.tau_bar + 1, size=count, dtype=np.int32)


def _integer(value, name: str, low: int | None = None) -> int:
    """``value`` as an int (numpy integers pass), at least ``low`` if given.

    Anything else, a bool included, raises ``ValueError`` naming ``name``: the
    one integer check of the package.
    """
    try:
        if isinstance(value, bool):  # operator.index takes True as 1
            raise TypeError
        value = operator.index(value)  # a cast would truncate 2.5 to 2 silently
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return value


def _real(value, name: str) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is a real number.

    numpy floats and integers pass; a Python or numpy bool does not, as in
    :func:`_integer`: the one real-number check of the package.  Bounds stay
    with the caller.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):  # np.bool_ is not Real
        raise ValueError(f"{name} must be a real number, got {value!r}")
