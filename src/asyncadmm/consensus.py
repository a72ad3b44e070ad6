"""Delayed ratio consensus with finite-time min/max-based termination.

The ratio iteration tracks a numerator vector ``y`` and a positive scalar
mass ``w`` per node.  Every step each node rescales its pair by its broadcast
weight, ships it to all out-neighbors (and to itself, undelayed), and
replaces its state by the sum of everything delivered to it on that tick.
Because the weights are column stochastic, total mass is conserved and the
ratio ``y / w`` at every node converges to the network-wide average of the
initial ``y``.

Termination rides on the same message schedule: each node also maintains a
running componentwise maximum ``M`` and minimum ``m`` of ratio snapshots.
Both mix through the network in at most ``(1 + tau_bar) * D`` steps, so every
that-many steps all nodes hold the same extrema and can decide, simultaneously
and without extra coordination, whether the snapshot spread has dropped below
the tolerance.  If not, the extrema are re-seeded from the current ratios and
the next round begins.

One protocol subtlety: min/max state must not survive a re-seed.  A max fold
never forgets, so a delayed extrema message sent before a re-seed would
re-infect the fresh round with stale values (with the ``+inf`` initial values
it would wedge the check permanently).  Receivers therefore discard extrema
messages sent before the current round started, which every node can decide
locally from the message's send stamp.  Ratio messages are never discarded:
mass conservation requires each one to be consumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .digraph import Digraph, WeightMatrix, diameter
from .netsim import DelayModel

__all__ = [
    "ProtocolError",
    "ConsensusResult",
    "ConsensusEngine",
    "run_ratio_consensus",
    "ratio_trajectory",
    "run_minmax_consensus",
    "run_terminating_consensus",
]

RATIO, MIN_MAX = 0, 1  # message kinds; ratio sorts before min/max
KIND_NAMES = ("RATIO_PAIR", "MIN_MAX_PAIR")


class ProtocolError(RuntimeError):
    """The consensus state stopped being well-formed (lost mass, split extrema)."""


@dataclass
class ConsensusResult:
    """Outcome of a terminating consensus instance."""

    z: np.ndarray
    steps: int
    converged: bool
    check_steps: list[int] = field(default_factory=list)


def _rows(a, n: int, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    if a.shape[0] != n:
        raise ValueError(f"{name} has {a.shape[0]} rows for a {n}-node digraph")
    return a.copy()


class ConsensusEngine:
    """One network of ratio and/or extrema states, stepped in lockstep over arrays.

    Each tick every node ships its ratio pair ``(y, w)``, scaled by its
    broadcast weight, and its extrema pair ``(hi, lo)`` to each out-neighbor
    with an independent delay in ``[0, tau_bar]``, and to itself undelayed.
    Each receiver then folds whatever is due.  The ratio kind is present when
    ``y0`` is given, the min/max kind when ``extrema`` is.

    The edges are numbered in draw order: sender-major, then kind (ratio
    before min/max), then receivers ascending, so one batched delay draw per
    tick consumes the delay stream exactly as per-sender draws would.  A ring
    of depth ``tau_bar + 1`` keeps, per send tick, those delays
    (``delays``) and one payload row per sender.  The send made ``lag``
    ticks ago on an edge is consumed now iff its delay equals ``lag``.
    Ratio sums fold sequentially in receiver, sender, send-time order, so
    results are reproducible bit for bit.  Min/max folds are order-free; they
    drop extrema sent before ``epoch_start``, the latest re-seed.
    """

    def __init__(
        self,
        g: Digraph,
        dm: DelayModel,
        y0: np.ndarray | None = None,
        weights: WeightMatrix | None = None,
        extrema: tuple[np.ndarray, np.ndarray] | None = None,
        trace: list[str] | None = None,
    ):
        n = g.n
        self.n = n
        self.dm = dm
        self.trace = trace
        self.time = 0
        self.epoch_start = 0
        self.kinds = []
        depth = dm.tau_bar + 1
        if y0 is not None:
            self.y = _rows(y0, n, "y0")
            self.w = np.ones(n)
            self.z = self.y / self.w[:, None]
            self._bw = np.asarray(weights.sender_weight, dtype=float)
            self._y_ring = np.zeros((depth, *self.y.shape))
            self._w_ring = np.zeros((depth, n))
            self.kinds.append(RATIO)
        if extrema is not None:
            self.hi, self.lo = (_rows(a, n, "extrema") for a in extrema)
            self._hi_ring = np.zeros((depth, *self.hi.shape))
            self._lo_ring = np.zeros((depth, *self.lo.shape))
            self.kinds.append(MIN_MAX)

        # Index arrays are int32 to halve their footprint at the paper's scale.
        degree = np.array([len(out) for out in g.out_neighbors], dtype=np.int32)
        nodes = np.arange(n, dtype=np.int32)
        self.edge_sender = np.repeat(nodes, degree)
        self.edge_receiver = np.array([r for out in g.out_neighbors for r in out], dtype=np.int32)
        edges = len(self.edge_sender)
        first_edge = (np.cumsum(degree, dtype=np.int32) - degree)[self.edge_sender]
        kind_count = len(self.kinds)
        # position of each edge's delay, per kind, in one tick's batch
        self.draw_pos = [
            np.arange(edges, dtype=np.int32)
            + (kind_count - 1) * first_edge
            + q * degree[self.edge_sender]
            for q in range(kind_count)
        ]
        self._draws = kind_count * edges
        self._lags = np.arange(depth, dtype=np.int32)
        # -1 marks ring slots not yet written; the extra last column is the
        # self term's delay, which is always zero
        self.delays = np.full((depth, self._draws + 1), -1, dtype=np.int32)
        self.delays[:, -1] = 0

        # Candidates: the send made ``lag`` ticks ago on each edge, plus every
        # node's self term at lag 0, sorted by receiver, sender, send time.
        # The order is the same for every kind; only draw positions differ.
        lag = np.concatenate([np.repeat(self._lags, edges), np.zeros(n, dtype=np.int32)])
        sender = np.concatenate([np.tile(self.edge_sender, depth), nodes])
        receiver = np.concatenate([np.tile(self.edge_receiver, depth), nodes])
        order = np.lexsort((-lag, sender, receiver))
        self._receiver = receiver[order]
        self._lag = lag[order]
        # flat index into the tick's (lag, sender) payload rows
        self._payload_at = self._lag * n + sender[order]
        # flat index into the tick's (lag, draw position) arrival matrix
        self._seen_at = [
            self._lag * (self._draws + 1)
            + np.concatenate([np.tile(pos, depth), np.full(n, self._draws, dtype=np.int32)])[order]
            for pos in self.draw_pos
        ]

    def reseed_extrema(self) -> None:
        self.hi = self.z.copy()
        self.lo = self.z.copy()
        self.epoch_start = self.time

    def step(self) -> None:
        k = self.time
        depth = len(self._lags)
        slot = k % depth
        by_lag = (k - self._lags) % depth  # ring slot of the sends made ``lag`` ticks ago
        self.delays[slot, :-1] = self.dm.sample_many(self._draws)
        seen = (self.delays[by_lag] == self._lags[:, None]).ravel()
        arrived = [seen[at] for at in self._seen_at]
        if self.trace is not None:
            self._trace_tick(k, arrived)
        if RATIO in self.kinds:
            self._y_ring[slot] = self._bw[:, None] * self.y
            self._w_ring[slot] = self._bw * self.w
            got = arrived[0]
            receiver, source = self._receiver[got], self._payload_at[got]
            w = np.bincount(receiver, weights=self._w_ring[by_lag].ravel()[source], minlength=self.n)
            if np.any(w <= 0.0):
                raise ProtocolError(f"nonpositive mass {w.min()} after update")
            y_in = self._y_ring[by_lag].reshape(-1, self.y.shape[1])[source]
            self.y = np.column_stack(
                [np.bincount(receiver, weights=col, minlength=self.n) for col in y_in.T]
            )
            self.w = w
            self.z = self.y / self.w[:, None]
        if MIN_MAX in self.kinds:
            self._hi_ring[slot] = self.hi
            self._lo_ring[slot] = self.lo
            got = arrived[-1] & (self._lag <= k - self.epoch_start)
            receiver, source = self._receiver[got], self._payload_at[got]
            hi, lo = self.hi.copy(), self.lo.copy()
            np.maximum.at(hi, receiver, self._hi_ring[by_lag].reshape(-1, hi.shape[1])[source])
            np.minimum.at(lo, receiver, self._lo_ring[by_lag].reshape(-1, lo.shape[1])[source])
            self.hi, self.lo = hi, lo
        self.time = k + 1

    def _trace_tick(self, k: int, arrived: list[np.ndarray]) -> None:
        """One ``k,sender,receiver,KIND`` line per delivery, by receiver, sender, kind."""
        receiver = np.concatenate([self._receiver[got] for got in arrived])
        sender = np.concatenate([self._payload_at[got] % self.n for got in arrived])
        kind = np.concatenate([np.full(np.count_nonzero(got), q) for q, got in zip(self.kinds, arrived)])
        order = np.lexsort((kind, sender, receiver))
        self.trace.extend(
            f"{k},{s},{r},{KIND_NAMES[q]}"
            for s, r, q in zip(sender[order].tolist(), receiver[order].tolist(), kind[order].tolist())
        )

    def advance(self, steps: int) -> None:
        for _ in range(steps):
            self.step()

    def trajectory(self, steps: int) -> list[np.ndarray]:
        """Ratio estimates ``[z^now, ..., z^(now + steps)]``."""
        traj = [self.z]
        for _ in range(steps):
            self.step()
            traj.append(self.z)
        return traj

    def terminate(self, eps: float, step_cap: int, round_len: int) -> ConsensusResult:
        """Step until the extrema spread drops below ``eps`` at a check boundary.

        Checks happen every ``round_len`` ticks, when every node must hold the
        same extrema; a failed check re-seeds them from the current ratios.
        """
        check_steps: list[int] = []
        while True:
            k = self.time
            if k != 0 and k % round_len == 0:
                if not (np.all(self.hi == self.hi[0]) and np.all(self.lo == self.lo[0])):
                    raise ProtocolError(f"extrema disagree across nodes at check boundary {k}")
                check_steps.append(k)
                if float(np.linalg.norm(self.hi[0] - self.lo[0])) < eps:
                    return ConsensusResult(z=self.z, steps=k, converged=True, check_steps=check_steps)
                self.reseed_extrema()
            if k >= step_cap:
                return ConsensusResult(z=self.z, steps=k, converged=False, check_steps=check_steps)
            self.step()


def run_ratio_consensus(
    g: Digraph,
    weights: WeightMatrix,
    dm: DelayModel,
    y0: np.ndarray,
    steps: int,
    trace: list[str] | None = None,
) -> np.ndarray:
    """Run the delayed ratio iteration for a fixed number of steps.

    Returns the ``(n, p)`` array of per-node ratio estimates after ``steps``
    updates.  No termination logic is involved.
    """
    engine = ConsensusEngine(g, dm, y0=y0, weights=weights, trace=trace)
    engine.advance(steps)
    return engine.z


def ratio_trajectory(
    g: Digraph,
    weights: WeightMatrix,
    dm: DelayModel,
    y0: np.ndarray,
    steps: int,
) -> list[np.ndarray]:
    """Per-step ratio estimates ``[z^0, z^1, ..., z^steps]``."""
    return ConsensusEngine(g, dm, y0=y0, weights=weights).trajectory(steps)


def run_minmax_consensus(
    g: Digraph,
    dm: DelayModel,
    hi0: np.ndarray,
    lo0: np.ndarray,
    steps: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Standalone asynchronous max- and min-consensus for ``steps`` updates.

    Starting from per-node rows ``hi0`` / ``lo0``, every node repeatedly folds
    whatever extrema deliveries are due each tick into its own pair.  With
    delays bounded by ``tau_bar``, every node holds the global extrema after
    at most ``(1 + tau_bar) * D`` updates.
    """
    engine = ConsensusEngine(g, dm, extrema=(hi0, lo0))
    engine.advance(steps)
    return engine.hi, engine.lo


def run_terminating_consensus(
    g: Digraph,
    weights: WeightMatrix,
    dm: DelayModel,
    y0: np.ndarray,
    eps: float,
    step_cap: int,
    graph_diameter: int | None = None,
    trace: list[str] | None = None,
) -> ConsensusResult:
    """Ratio consensus that halts once all nodes agree they are within ``eps``.

    Every ``(1 + tau_bar) * D`` steps each node compares its extrema pair; the
    first check necessarily fails (the pair starts at ``+inf / -inf``) and
    re-seeds the extrema from the current ratios, so the earliest possible
    exit is the second boundary.  On success every node stops at the same
    boundary and the final estimates have pairwise spread at most ``eps``.
    If ``step_cap`` updates elapse first, the current estimates are returned
    with ``converged=False``.

    Parameters
    ----------
    y0 : ndarray, shape (n, p)
        Initial numerator rows; masses start at one.
    eps : float
        Spread tolerance (2-norm over the ``p`` components), must be > 0.
    step_cap : int
        Upper bound on ratio updates before giving up.
    graph_diameter : int, optional
        Pass a precomputed diameter to skip the reachability computation
        (repeated squaring of ``I + A``, see :func:`~asyncadmm.digraph.diameter`).
    """
    if eps <= 0.0:
        raise ValueError(f"eps must be > 0, got {eps}")
    if step_cap < 1:
        raise ValueError(f"step_cap must be >= 1, got {step_cap}")
    d = diameter(g) if graph_diameter is None else graph_diameter
    round_len = (1 + dm.tau_bar) * max(d, 1)
    y0 = _rows(y0, g.n, "y0")
    extrema = (np.full(y0.shape, np.inf), np.full(y0.shape, -np.inf))
    engine = ConsensusEngine(g, dm, y0=y0, weights=weights, extrema=extrema, trace=trace)
    return engine.terminate(eps, step_cap, round_len)
