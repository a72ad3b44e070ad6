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
from itertools import chain

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

# Most arrival-table entries (tick x kind x column x lag) one block may hold.
# One tick at the paper's scale (n=600, tau_bar=3) already needs about 583k,
# so there every block is a single tick; small digraphs step whole rounds.
BLOCK_ENTRIES = 1 << 17


class ProtocolError(RuntimeError):
    """The consensus state stopped being well-formed (lost mass, split extrema)."""


@dataclass
class ConsensusResult:
    """Outcome of a terminating consensus instance.

    ``delivered`` counts every delivery the trace would list (ratio and
    min/max, self terms included); ``stale_discarded`` counts the extrema
    among them that arrived from before the latest re-seed and were dropped.
    """

    z: np.ndarray
    steps: int
    converged: bool
    check_steps: list[int] = field(default_factory=list)
    delivered: int = 0
    stale_discarded: int = 0


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

    The engine steps in blocks: runs of ticks with a fixed ``epoch_start``
    (``terminate`` runs one per round, ``advance`` and ``trajectory`` one per
    span), each cut to at most ``BLOCK_ENTRIES`` arrival-table entries.  A
    block draws all its delays at once: edges are numbered in draw order
    (sender-major, then kind with ratio before min/max, then receivers
    ascending), so one batch consumes the delay stream exactly as per-sender
    draws per tick would.  The delays land in a per-tick history whose
    columns, per kind, are the edges and every node's self term (delay 0)
    sorted by receiver and then sender.  The send made ``lag`` ticks ago on a
    column is consumed now iff its delay equals ``lag``, so one comparison
    per lag yields the block's arrival table in receiver, sender, oldest-send
    order.  Only the folds run tick by tick, since each tick's sends carry
    the state the previous tick produced.

    Sends sit in a ring of ``depth`` slots of ``n`` senders, component-major,
    and each tick's sends are written twice, to slots ``k % depth`` and
    ``k % depth + depth``.  The ``depth`` sends a tick can consume then lie
    in consecutive slots from ``(k + 1) % depth`` on, so two int32 maps over
    the arrival table's (column, lag) offsets give each arrival's payload row
    (past that first slot) and its receiver without any modular arithmetic.

    Ratio sums fold sequentially with ``bincount`` in that order, so results
    are reproducible bit for bit.  Extrema fold over each receiver's
    arrivals, which always include its own lag-0 term, and drop extrema sent
    before ``epoch_start``, the latest re-seed.  They travel as ranks: at the
    start and at every re-seed each component of the snapshot is sorted once,
    ``hi`` ascending and ``lo`` descending, into a table of the smallest
    unsigned type that holds ``n``, so a single ``maximum.reduceat`` folds
    both; values are decoded only where ``hi`` and ``lo`` are read (at check
    boundaries).  This is exact because every extremum that passes the epoch
    filter is a copy of an entry of the current epoch's table.  Equal values
    get distinct ranks in node order, so which of them a fold keeps, and with
    it the sign of a zero, may differ from a fold over values
    (``max(0.0, -0.0)`` returns its first argument); the ``==`` agreement
    check and the spread norm both ignore that.  A NaN, which has no rank,
    is rejected up front.
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
        self.delivered = 0
        self.stale_discarded = 0
        self.kinds = []
        depth = dm.tau_bar + 1
        if y0 is not None:
            y0 = _rows(y0, n, "y0")
            if not np.isfinite(y0).all():
                raise ValueError("y0 must be finite")
            # the ratio state component-major: numerator rows, then the mass
            self._yw = np.vstack([y0.T, np.ones(n)])
            self.z = np.divide(self.y, self.w[:, None], order="C")
            self._bw = np.asarray(weights.sender_weight, dtype=float)
            # the scaled pairs sent, [component, ring slot * n + sender]; the
            # same memory as [component, copy, slot, sender] for the writes
            self._ratio_sent = np.zeros((len(self._yw), 2 * depth * n))
            self._ratio_slots = self._ratio_sent.reshape(len(self._yw), 2, depth, n)
            self.kinds.append(RATIO)
        if extrema is not None:
            hi, lo = (_rows(a, n, "extrema") for a in extrema)
            if np.isnan(hi).any() or np.isnan(lo).any():
                raise ValueError("extrema must not contain NaN")
            # the extrema state component-major, as ranks: hi rows, then lo rows
            self._hi_rows = hi.shape[1]
            self._encode_extrema(hi, lo)
            # the extrema ranks sent, laid out as the ratio pairs
            self._ext_sent = np.zeros((len(self._ext), 2 * depth * n), dtype=self._ext.dtype)
            self._ext_slots = self._ext_sent.reshape(len(self._ext), 2, depth, n)
            self.kinds.append(MIN_MAX)

        # Index arrays are int32 to halve their footprint at the paper's scale.
        degree = np.fromiter(map(len, g.out_neighbors), dtype=np.int32, count=n)
        nodes = np.arange(n, dtype=np.int32)
        self.edge_sender = np.repeat(nodes, degree)
        self.edge_receiver = np.fromiter(
            chain.from_iterable(g.out_neighbors), dtype=np.int32, count=len(self.edge_sender)
        )
        edges = len(self.edge_sender)
        kind_count = len(self.kinds)

        # Columns of one kind: every edge and every node's self term, sorted
        # by receiver, then sender (one unique key per pair).
        sender = np.concatenate([self.edge_sender, nodes])
        receiver = np.concatenate([self.edge_receiver, nodes])
        order = np.argsort(receiver.astype(np.int64) * n + sender)
        self._cols = cols = edges + n
        self._col_sender = sender[order]
        self._col_receiver = receiver[order]
        col_of = np.empty(cols, dtype=np.int32)
        col_of[order] = np.arange(cols, dtype=np.int32)
        # each receiver's first column, where its extrema segment starts
        self._first_col = np.searchsorted(self._col_receiver, nodes)
        # by arrival-table offset (column, lag position): the payload row
        # past the tick's first ring slot, and the receiver
        self._payload_of = (np.arange(depth, dtype=np.int32) * n + self._col_sender[:, None]).ravel()
        self._receiver_of = np.repeat(self._col_receiver, depth)
        # column of each edge's delay, per kind, in a ``delays`` row
        self.draw_pos = [q * cols + col_of[:edges] for q in range(kind_count)]
        first_edge = (np.cumsum(degree, dtype=np.int32) - degree)[self.edge_sender]
        self._draws = kind_count * edges
        self._draw_col = np.empty(self._draws, dtype=np.int32)  # batch position -> column
        for q, pos in enumerate(self.draw_pos):
            at = np.arange(edges) + (kind_count - 1) * first_edge + q * degree[self.edge_sender]
            self._draw_col[at] = pos

        # Delay history, one row per tick.  Between blocks rows 0..depth-1
        # hold the last ``depth`` ticks; a block writes its ticks behind them.
        # -1 marks ticks before time 0; self-term columns stay 0.
        dtype = np.min_scalar_type(-1 - dm.tau_bar)
        width = kind_count * cols
        self._block_cap = max(1, BLOCK_ENTRIES // max(1, depth * width))
        self._hist = np.full((depth + self._block_cap, width), -1, dtype=dtype)
        self._hist[:, np.add.outer(np.arange(kind_count) * cols, col_of[edges:]).ravel()] = 0
        self._lags_desc = np.arange(depth - 1, -1, -1, dtype=dtype)  # oldest send first

    @property
    def y(self) -> np.ndarray:
        return self._yw[:-1].T

    @property
    def w(self) -> np.ndarray:
        return self._yw[-1]

    @property
    def delays(self) -> np.ndarray:
        """Delay ring: row ``t % depth`` holds the delays drawn at tick ``t``.

        Covers the last ``depth`` ticks; -1 marks ticks before time 0.
        """
        depth = len(self._lags_desc)
        ring = np.empty_like(self._hist[:depth])
        ring[np.arange(self.time - depth, self.time) % depth] = self._hist[:depth]
        return ring

    @property
    def hi(self) -> np.ndarray:
        return self._decode_extrema()[: self._hi_rows].T.copy()

    @property
    def lo(self) -> np.ndarray:
        return self._decode_extrema()[self._hi_rows :].T.copy()

    def _encode_extrema(self, hi: np.ndarray, lo: np.ndarray) -> None:
        """Rank each component of a snapshot: ``hi`` ascending, ``lo`` descending."""
        values = np.vstack([hi.T, lo.T])
        order = np.argsort(np.vstack([hi.T, -lo.T]), axis=1, kind="stable")
        self._ext_table = np.take_along_axis(values, order, axis=1)
        self._ext = np.empty(order.shape, dtype=np.min_scalar_type(self.n))
        np.put_along_axis(self._ext, order, np.arange(self.n), axis=1)

    def _decode_extrema(self) -> np.ndarray:
        return np.take_along_axis(self._ext_table, self._ext, axis=1)

    def reseed_extrema(self) -> None:
        self._encode_extrema(self.z, self.z)
        self.epoch_start = self.time

    def _schedule(self, q: int, kind: int, steps: int, traced: list[np.ndarray]):
        """Kind ``q``'s arrivals over the next ``steps`` ticks, as fold inputs.

        Returns each arrival's payload row (ring slot times ``n`` plus
        sender), per-tick bounds into them, and the receivers (ratio) or each
        tick's per-receiver segment starts (min/max).
        """
        n, k0, cols, hist = self.n, self.time, self._cols, self._hist
        depth = len(self._lags_desc)
        # [tick, column, oldest send first]: the send from tick k0 + t - lag
        # arrives at k0 + t iff its delay equals lag
        table = np.stack(
            [
                hist[1 + j : 1 + j + steps, q * cols : (q + 1) * cols] == lag
                for j, lag in enumerate(self._lags_desc)
            ],
            axis=-1,
        )
        arrived = np.count_nonzero(table)
        self.delivered += arrived
        if self.trace is not None:
            traced.append(np.flatnonzero(table))
        cut = self.epoch_start - k0 + depth - 1  # sent before the re-seed iff t + j < cut
        if kind == MIN_MAX and cut > 0:
            table &= (np.add.outer(np.arange(steps), np.arange(depth)) >= cut)[:, None, :]
        flat = np.flatnonzero(table)
        self.stale_discarded += arrived - len(flat)
        ticks = np.arange(steps)
        bounds = np.searchsorted(flat, np.arange(steps + 1) * cols * depth)
        if kind == MIN_MAX:
            starts = np.add.outer(ticks * cols, self._first_col) * depth
            segments = np.searchsorted(flat, starts) - bounds[:-1, None]
        # flat = t * cols * depth + (c * depth + j); keep the offset in tick t's table
        counts = np.diff(bounds)
        flat -= np.repeat(ticks * (cols * depth), counts)
        # Tick k0 + t reads the sends of ticks k0 + t - (depth - 1) .. k0 + t,
        # from ring slot (k0 + t + 1) % depth on; the ring holds every send
        # twice, so that window never wraps.
        source = self._payload_of[flat].astype(np.intp)  # each fold gathers with it
        source += np.repeat((k0 + 1 + ticks) % depth * n, counts)
        if kind == RATIO:
            segments = self._receiver_of[flat]
        return source, bounds, segments

    def _block(self, steps: int, traj: list[np.ndarray] | None = None) -> None:
        """``steps`` ticks: delays and arrival tables once, then the per-tick folds."""
        k0, hist = self.time, self._hist
        depth = len(self._lags_desc)
        hist[depth : depth + steps, self._draw_col] = self.dm.sample_many(
            steps * self._draws
        ).reshape(steps, self._draws)
        traced: list[np.ndarray] = []
        folds = [self._schedule(q, kind, steps, traced) for q, kind in enumerate(self.kinds)]
        if traced:
            lines, line_bounds = self._trace_lines(k0, steps, traced)

        for t in range(steps):
            self.time = k = k0 + t
            slot = k % depth
            if traced:
                self.trace.extend(lines[line_bounds[t] : line_bounds[t + 1]])
            for kind, (source, bounds, segments) in zip(self.kinds, folds):
                at = slice(bounds[t], bounds[t + 1])
                if kind == RATIO:
                    self._fold_ratio(slot, source[at], segments[at])
                else:
                    self._fold_extrema(slot, source[at], segments[t])
            if traj is not None:
                traj.append(self.z)
        self.time = k0 + steps
        # row by row, so no row is overwritten before it is read
        for i in range(depth):
            hist[i] = hist[steps + i]

    def _fold_ratio(self, slot: int, source: np.ndarray, receiver: np.ndarray) -> None:
        n = self.n
        self._ratio_slots[:, :, slot] = (self._bw * self._yw)[:, None]
        self._yw = np.array(
            [np.bincount(receiver, weights=row[source], minlength=n) for row in self._ratio_sent]
        )
        if (self.w <= 0.0).any():
            raise ProtocolError(f"nonpositive mass {self.w.min()} after update")
        self.z = np.divide(self.y, self.w[:, None], order="C")

    def _fold_extrema(self, slot: int, source: np.ndarray, segments: np.ndarray) -> None:
        self._ext_slots[:, :, slot] = self._ext[:, None]
        self._ext = np.maximum.reduceat(self._ext_sent.take(source, axis=1), segments, axis=1)

    def _trace_lines(self, k0: int, steps: int, traced: list[np.ndarray]):
        """``k,sender,receiver,KIND`` lines by tick, receiver, sender, kind; per-tick bounds."""
        depth = len(self._lags_desc)
        tick_col = np.concatenate(traced) // depth
        t, c = np.divmod(tick_col, self._cols)
        kind = np.concatenate([np.full(len(flat), q) for q, flat in zip(self.kinds, traced)])
        sender, receiver = self._col_sender[c], self._col_receiver[c]
        order = np.lexsort((kind, sender, receiver, t))
        lines = [
            f"{k0 + tt},{s},{r},{KIND_NAMES[q]}"
            for tt, s, r, q in zip(
                t[order].tolist(), sender[order].tolist(), receiver[order].tolist(), kind[order].tolist()
            )
        ]
        return lines, np.searchsorted(t[order], np.arange(steps + 1))

    def _run(self, steps: int, traj: list[np.ndarray] | None = None) -> None:
        while steps > 0:
            block = min(steps, self._block_cap)
            self._block(block, traj)
            steps -= block

    def step(self) -> None:
        self._block(1)

    def advance(self, steps: int) -> None:
        self._run(steps)

    def trajectory(self, steps: int) -> list[np.ndarray]:
        """Ratio estimates ``[z^now, ..., z^(now + steps)]``."""
        traj = [self.z]
        self._run(steps, traj)
        return traj

    def terminate(self, eps: float, step_cap: int, round_len: int) -> ConsensusResult:
        """Step until the extrema spread drops below ``eps`` at a check boundary.

        Checks happen every ``round_len`` ticks, when every node must hold the
        same extrema; a failed check re-seeds them from the current ratios.
        """
        check_steps: list[int] = []
        while True:
            k = self.time
            converged = False
            if k != 0 and k % round_len == 0:
                extrema = self._decode_extrema()
                if not np.all(extrema == extrema[:, :1]):
                    raise ProtocolError(f"extrema disagree across nodes at check boundary {k}")
                check_steps.append(k)
                hi, lo = extrema[: self._hi_rows, 0], extrema[self._hi_rows :, 0]
                converged = float(np.linalg.norm(hi - lo)) < eps
                if not converged:
                    self.reseed_extrema()
            if converged or k >= step_cap:
                return ConsensusResult(
                    z=self.z,
                    steps=k,
                    converged=converged,
                    check_steps=check_steps,
                    delivered=self.delivered,
                    stale_discarded=self.stale_discarded,
                )
            self._run(min(step_cap, (k // round_len + 1) * round_len) - k)


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
        Initial numerator rows, all finite (else ``ValueError``); masses
        start at one.
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
