"""Delayed ratio consensus with finite-time min/max-based termination.

The ratio iteration tracks a numerator vector ``y`` and a positive scalar
mass ``w`` per node.  Every step each node rescales its pair by its broadcast
weight, ships it to all out-neighbors (and to itself, undelayed), and
replaces its state by the sum of everything delivered to it on that tick.
Each weight is one over the sender's out-degree plus one, so the implied
weight matrix is column stochastic: total mass is conserved and the
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

import weakref
from dataclasses import dataclass, field

import numpy as np

from .digraph import Digraph, diameter
from .netsim import DelayModel, _integer

__all__ = [
    "ProtocolError",
    "ConsensusResult",
    "ConsensusEngine",
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
    ``extrema_folds`` counts the ticks whose extrema fold ran: the engine
    skips the folds that cannot change the extrema, which are those after
    every node holds one non-zero value per row.  A zero extreme folds on
    every tick.
    """

    z: np.ndarray
    steps: int
    converged: bool
    check_steps: list[int] = field(default_factory=list)
    delivered: int = 0
    stale_discarded: int = 0
    extrema_folds: int = 0


@dataclass(frozen=True, eq=False)
class _ColumnMaps:
    """The engine's maps that depend only on the digraph, ``tau_bar`` and the kind count.

    Built by :func:`_column_maps` once per digraph and key, all read-only.
    ``ticks`` is the block length: the most ticks whose arrival tables fit in
    ``BLOCK_ENTRIES`` entries, at least one.  ``receiver`` and ``sender``
    name every kind's history columns, all in one order (the delay draw
    order).  ``payload_of`` and ``receiver_of`` cover the arrival tables of a
    block: offset ``(t * cols + c) * depth + j`` maps to the payload's
    history offset ``(1 + t + j) * n + sender`` and to the receiver.
    ``col_draw`` maps every history column to its delay's batch position,
    ``draws`` for a self term (the zero past the batch's end).
    """

    receiver: np.ndarray
    sender: np.ndarray
    payload_of: np.ndarray
    receiver_of: np.ndarray
    col_draw: np.ndarray
    draws: int
    ticks: int


# Each digraph's maps by (tau_bar, kind count), kept while the digraph lives:
# every instance of a solver run shares them, and the maps hold no reference back.
_maps_by_digraph: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _column_maps(g: Digraph, tau_bar: int, kinds: int) -> _ColumnMaps:
    """The maps of engines on ``g`` with ``tau_bar`` and ``kinds`` message kinds, built on first use."""
    by_key = _maps_by_digraph.setdefault(g, {})
    if (tau_bar, kinds) in by_key:
        return by_key[tau_bar, kinds]
    n, depth = g.n, tau_bar + 1
    receiver, sender = g.links
    cols = len(receiver)
    ticks = max(1, BLOCK_ENTRIES // (depth * cols * kinds))
    # draw order: sender-major, receivers ascending (the links' order within
    # a sender), each self term in place; node ids in the smallest unsigned
    # type that holds n, uint16 at n=600
    order = np.argsort(sender, kind="stable")
    receiver, sender = (a[order].astype(np.min_scalar_type(n)) for a in (receiver, sender))
    # two maps of ticks * cols * depth entries, payload offsets (below
    # (ticks + depth) * n) and receivers (below n), each in the smallest
    # unsigned type that holds them
    rows = (1 + np.add.outer(np.arange(ticks), np.arange(depth))) * n  # [tick, lag]
    payload_of = (rows[:, None, :] + sender[:, None]).astype(np.min_scalar_type((ticks + depth) * n)).ravel()
    receiver_of = np.tile(np.repeat(receiver, depth), ticks)
    # delay column -> batch position: the edge columns kind-major, sorted
    # stably by sender; self-term columns read the zero past the batch's end
    edge = np.flatnonzero(receiver != sender)
    edge_cols = np.add.outer(np.arange(kinds, dtype=np.int32) * cols, edge).ravel()
    draw_col = edge_cols[np.argsort(np.tile(sender[edge], kinds), kind="stable")]
    draws = len(draw_col)
    col_draw = np.full(kinds * cols, draws, dtype=np.int32)
    col_draw[draw_col] = np.arange(draws, dtype=np.int32)
    for a in (receiver, sender, payload_of, receiver_of, col_draw):
        a.flags.writeable = False
    maps = _ColumnMaps(receiver, sender, payload_of, receiver_of, col_draw, draws, ticks)
    by_key[tau_bar, kinds] = maps
    return maps


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
    ``y0`` is given, with ``weights`` the ``(n,)`` vector of per-sender
    weights (:func:`~asyncadmm.digraph.build_weights`); the min/max kind is
    present when ``extrema`` is.  An engine without either is a ``ValueError``.

    The engine steps in blocks: runs of ticks with a fixed ``epoch_start``
    (``terminate`` runs one per round, ``advance`` one per span), each cut
    to at most ``BLOCK_ENTRIES`` arrival-table entries.  A block draws all
    its delays at once, in draw order (sender-major, then kind with ratio
    before min/max, then receivers ascending), so one batch consumes the
    delay stream exactly as per-sender draws per tick would.  The delays
    land in a per-tick history whose columns, per kind, are the digraph's
    links (the edges and every node's self term, delay 0), in one order for
    every kind: the draw order (sender, then receiver, each self term in
    place), as the protocol sends both kinds on one schedule.  One gather
    through a column-to-draw map writes them, the self terms reading a zero
    appended to the batch.

    The delays never depend on the state, so a span of two or more blocks
    (at n=600, where every block is one tick, any span of two or more
    ticks) draws ahead: its first block draws on the caller's thread, and
    one helper thread draws and gathers block ``i + 1``'s rows while block
    ``i`` folds (numpy's bounded-integer fill and ``take`` release the GIL).
    The one helper draws the blocks in order, so the stream is consumed as
    on one thread, bit for bit.  A span of one block, such as every round
    at n=20, starts no thread, and the helper is joined when ``advance``
    returns or raises, so no thread outlives a span.  Every draw's result is
    read, so a failed draw reaches the caller, even past a fold that raised
    (which it then carries as its context).  A block that raises leaves the
    stream one block ahead: the next block's delays were drawn.

    Each block decides its arrivals once: the send made ``lag`` ticks ago on
    a column is consumed now iff its delay equals ``lag``, one comparison
    per lag over every kind's columns (a lag slab over the block's ticks).
    ``delivered`` and the trace read those slabs; then the extrema sent
    before ``epoch_start`` are counted into ``stale_discarded`` and cleared
    from them, the one place the epoch filter runs.  Only for a fold that
    will run is a kind's share of them stacked into an arrival table (tick,
    column, oldest send first) and turned into fold inputs: each arrival's
    payload offset and receiver.  Only the folds run tick by tick, since
    each tick's sends carry the state the previous tick produced.

    The history is the engine's one time axis: each tick's sends sit on the
    row of its delays, per kind as ``[..., row * n + sender]`` behind the
    state's own leading axes, written once when the tick folds.  Between
    blocks rows ``0 .. depth - 1`` hold the last ``depth`` ticks (-1 before
    time 0, which no lag matches); a block writes its ticks behind them, and
    one shift at the block's end moves the newest ``depth`` rows, delays and
    sends together, back to the front.  Tick ``t`` of a block consumes sends from rows
    ``t + 1 .. t + depth``, so two unsigned maps over a whole block's
    arrival-table offsets ``(t * cols + c) * depth + j``, shared by the
    kinds, give each arrival's payload offset ``(1 + t + j) * n + sender``
    and its receiver.  These maps, the column-to-draw map and the block
    length, which reads ``BLOCK_ENTRIES``, depend only on the digraph,
    ``tau_bar`` and the number of kinds, so they are built once per such
    triple and kept while the digraph lives: every instance of a solver run
    shares them.  ``delays`` returns the history's first ``depth`` rows as
    stored, each kind's columns in draw order.

    Ratio sums fold sequentially with ``bincount`` in column order: each
    receiver's arrivals come by sender, oldest send first, so results are
    reproducible bit for bit.  Consecutive columns of one sender go to
    distinct receivers, which spares ``bincount`` back-to-back updates of one
    bin, each of which waits for the last: one call over the 72,835 links of
    an n=600 digraph takes 110 instead of 290 us in link order (2-vCPU Xeon,
    numpy 2.4).

    Extrema fold over each receiver's arrivals, which always include its own
    lag-0 term, and drop extrema sent before ``epoch_start``, the latest
    re-seed.  They travel as values, one ``[hi | lo, component, node]``
    array, and like the ratio sums each row folds by scatter: one
    ``maximum.at`` (``hi``) or ``minimum.at`` (``lo``) of the tick's
    arrivals into the receivers' current state, in place (the tick's sends
    already hold its copy), each receiver's arrivals by sender, oldest send
    first.  Only a ``0.0`` / ``-0.0`` tie has two bit patterns, and which
    one a tie keeps is numpy's choice (on x86 the arrival:
    ``np.maximum(-0.0, 0.0)`` is ``0.0``), so ``hi`` and ``lo`` are
    reproducible bit for bit, signed zeros included, in that fold order
    alone.  A NaN, which no comparison orders, is rejected up front.

    One setter, ``_set_extrema``, judges the extrema, at the start, at every
    re-seed and after every fold, and records both facts that are read
    about them: they agree, every node holding one value per row, which
    ``terminate`` requires at each check boundary; and they are fixed,
    agreeing with no row zero (the ``+inf`` / ``-inf`` start, a constant
    re-seed, every node holding a non-zero extreme).  An extrema fold runs
    only while it can change the extrema, which is until they are fixed.
    Within an epoch each node's ``hi`` only grows and its ``lo`` only
    shrinks, and each arrival that passes the epoch filter is a value some
    node held in this epoch, so an agreed row is the epoch's extreme, and a
    tie with a non-zero value leaves its bytes as they are.  Extrema with a
    zero row are never fixed.  From then to the round's end the ticks skip
    the fold and its sends, and a block that starts so builds no fold inputs
    for the extrema: their slabs are only counted and traced.  Every later
    reader of those sends is a skipped fold or is cut by the epoch filter.
    ``extrema_folds`` counts the folds that ran.
    """

    def __init__(
        self,
        g: Digraph,
        dm: DelayModel,
        y0: np.ndarray | None = None,
        weights: np.ndarray | None = None,
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
        self.extrema_folds = 0
        self.kinds = []
        depth = dm.tau_bar + 1
        if y0 is None and extrema is None:
            raise ValueError("an engine needs y0, extrema or both")
        if y0 is not None:
            if weights is None:
                raise ValueError("y0 needs weights")
            y0 = _rows(y0, n, "y0")
            if not np.isfinite(y0).all():
                raise ValueError("y0 must be finite")
            # the ratio state component-major: numerator rows, then the mass
            self._yw = np.vstack([y0.T, np.ones(n)])
            self._bw = np.asarray(weights, dtype=float)
            if self._bw.shape != (n,):
                raise ValueError(f"weights has shape {self._bw.shape} for a {n}-node digraph")
            self.kinds.append(RATIO)
        if extrema is not None:
            hi, lo = (_rows(a, n, "extrema") for a in extrema)
            if hi.shape != lo.shape:
                raise ValueError(f"extrema hi and lo differ in shape: {hi.shape} and {lo.shape}")
            if np.isnan(hi).any() or np.isnan(lo).any():
                raise ValueError("extrema must not contain NaN")
            # the extrema state as [hi | lo, component, node]
            self._set_extrema(np.stack([hi.T, lo.T]))
            self.kinds.append(MIN_MAX)

        self._cols = cols = len(g.links[0])
        self._depth = depth
        self._maps = _column_maps(g, dm.tau_bar, len(self.kinds))

        # The history, one row per tick: its delays (-1 marks ticks before
        # time 0, which no lag matches) and, per kind, its sends as
        # [..., row * n + sender] (the scaled ratio pairs [component, ...],
        # the extrema [hi | lo, component, ...]), in kind order.  A self term is compared only at lag 0, on
        # a row its block drew, so no pre-start value of it is ever read.
        rows = depth + self._maps.ticks
        self._hist = np.full((rows, len(self.kinds) * cols), -1, dtype=np.min_scalar_type(-depth))
        states = [self._yw if kind == RATIO else self._ext for kind in self.kinds]
        self._sent = [np.zeros((*s.shape[:-1], rows * n), dtype=s.dtype) for s in states]

    @property
    def y(self) -> np.ndarray:
        return self._yw[:-1].T

    @property
    def w(self) -> np.ndarray:
        return self._yw[-1]

    @property
    def z(self) -> np.ndarray:
        """Ratio estimates ``y / w``, one row per node, computed on each read."""
        return np.divide(self.y, self.w[:, None], order="C")

    @property
    def delays(self) -> np.ndarray:
        """The delays drawn over the last ``depth`` ticks, one row per tick.

        Rows run oldest first: row ``-1 - age`` holds the draws of tick
        ``time - 1 - age``; -1 marks ticks before time 0.  Columns run by
        kind, then in draw order (sender, then receiver).
        """
        return self._hist[: self._depth].copy()

    @property
    def hi(self) -> np.ndarray:
        return self._ext[0].T.copy()

    @property
    def lo(self) -> np.ndarray:
        return self._ext[1].T.copy()

    def _set_extrema(self, ext: np.ndarray) -> None:
        """The extrema, one ``[hi | lo, component, node]`` array, and the one judgement of them.

        Called at the start, at every re-seed and after every fold, which
        folds into ``ext`` in place.  ``_ext_agree``: every node holds one
        value per row, as ``terminate`` requires at a check boundary.
        ``_ext_fixed``: they agree and no row is zero, so no fold can change
        them for the rest of the epoch.
        """
        self._ext = ext
        self._ext_agree = bool((ext == ext[..., :1]).all())
        self._ext_fixed = self._ext_agree and bool((ext[..., 0] != 0.0).all())

    def reseed_extrema(self) -> None:
        z = self.z.T
        self._set_extrema(np.stack([z, z]))
        self.epoch_start = self.time

    def _arrivals(self, steps: int) -> list[np.ndarray]:
        """The lag slabs over the next ``steps`` ticks and every kind's columns, counted.

        Slab ``j`` is ``[tick t, column]``: the send on history row ``1 + t + j``,
        made ``lag = depth - 1 - j`` ticks before tick ``t``, arrives then iff
        its delay equals ``lag``.
        """
        hist, depth = self._hist, self._depth
        slabs = [hist[1 + j : 1 + j + steps] == depth - 1 - j for j in range(depth)]
        self.delivered += sum(np.count_nonzero(slab) for slab in slabs)
        return slabs

    def _fold_inputs(self, q: int, slabs: list[np.ndarray]):
        """Kind ``q``'s arrivals as fold inputs, in the order each receiver folds them.

        Returns each arrival's payload offset (history row times ``n`` plus
        sender), per-tick bounds into them, and its receiver as ``intp``:
        every fold gathers the payloads and scatters them into their receivers.
        """
        cols, depth, maps = self._cols, self._depth, self._maps
        steps = len(slabs[0])
        # [tick, column, oldest send first]
        table = np.stack([slab[:, q * cols : (q + 1) * cols] for slab in slabs], axis=-1)
        # (t * cols + c) * depth + j: the block maps' offsets.  Tick k0 + t
        # reads the sends of ticks k0 + t - (depth - 1) .. k0 + t, history
        # rows t + 1 .. t + depth.
        flat = np.flatnonzero(table)
        bounds = np.searchsorted(flat, np.arange(steps + 1) * cols * depth)
        # cast once here, not once per component: each fold gathers with the
        # offsets, and bincount and maximum.at want intp receivers
        return maps.payload_of[flat].astype(np.intp), bounds, maps.receiver_of[flat].astype(np.intp)

    def _delay_rows(self, steps: int) -> np.ndarray:
        """The history rows of the next ``steps`` ticks: one batch of delays, gathered into columns."""
        draws = self._maps.draws
        drawn = np.zeros((steps, draws + 1), dtype=self._hist.dtype)  # the last column stays 0
        drawn[:, :draws] = self.dm.sample_many(steps * draws).reshape(steps, draws)
        return np.take(drawn, self._maps.col_draw, axis=1)

    def _block(self, steps: int, rows: np.ndarray) -> None:
        """``steps`` ticks on their delay ``rows``: arrivals once, then the per-tick folds."""
        n, k0, hist, depth = self.n, self.time, self._hist, self._depth
        hist[depth : depth + steps] = rows
        arrivals = self._arrivals(steps)
        traced = self.trace is not None
        if traced:  # the trace lists stale extrema too: read before they are dropped
            lines, line_bounds = self._trace_lines(k0, steps, arrivals)
        if MIN_MAX in self.kinds:
            # count, then drop, the extrema sent before the re-seed (t + j < cut)
            # from the last kind's columns; cut < 0 once a block starts more
            # than depth - 1 ticks after it, and then nothing is stale
            cut = self.epoch_start - k0 + depth - 1
            for j, slab in enumerate(arrivals[: max(cut, 0)]):
                stale = slab[: cut - j, -self._cols :]
                self.stale_discarded += np.count_nonzero(stale)
                stale[...] = False
        # fixed extrema fold nothing: their arrivals are only counted and traced
        folds = [
            None if kind == MIN_MAX and self._ext_fixed else self._fold_inputs(q, arrivals)
            for q, kind in enumerate(self.kinds)
        ]

        for t in range(steps):
            self.time = k0 + t
            # this tick's sends go on its delays' row
            sends = slice((depth + t) * n, (depth + t + 1) * n)
            if traced:
                self.trace.extend(lines[line_bounds[t] : line_bounds[t + 1]])
            for kind, sent, fold in zip(self.kinds, self._sent, folds):
                if kind == MIN_MAX and self._ext_fixed:
                    # no reader of these sends is a fold that runs: later
                    # ticks of this epoch skip theirs, the epoch filter cuts the rest
                    continue
                source, bounds, receiver = fold
                at = slice(bounds[t], bounds[t + 1])
                fold_kind = self._fold_ratio if kind == RATIO else self._fold_extrema
                fold_kind(sent, sends, source[at], receiver[at])
        self.time = k0 + steps
        # the newest depth rows to the front (numpy buffers an overlap)
        hist[:depth] = hist[steps : steps + depth]
        for sent in self._sent:
            sent[..., : depth * n] = sent[..., steps * n : (steps + depth) * n]

    def _fold_ratio(self, sent: np.ndarray, sends: slice, source: np.ndarray, receiver: np.ndarray) -> None:
        sent[:, sends] = self._bw * self._yw
        self._yw = np.array([np.bincount(receiver, weights=row[source], minlength=self.n) for row in sent])
        if (self.w <= 0.0).any():
            raise ProtocolError(f"nonpositive mass {self.w.min()} after update")

    def _fold_extrema(self, sent: np.ndarray, sends: slice, source: np.ndarray, receiver: np.ndarray) -> None:
        sent[..., sends] = self._ext
        # in place, since the sends hold this tick's copy; oldest send first per sender
        for extreme, half, sent_half in zip((np.maximum, np.minimum), self._ext, sent):
            for row, sends_q in zip(half, sent_half):
                extreme.at(row, receiver, sends_q[source])
        self.extrema_folds += 1
        self._set_extrema(self._ext)

    def _trace_lines(self, k0: int, steps: int, arrivals: list[np.ndarray]):
        """``k,sender,receiver,KIND`` lines by tick, receiver, sender, kind; per-tick bounds."""
        t, c = (np.concatenate(a) for a in zip(*map(np.nonzero, arrivals)))
        kind = np.asarray(self.kinds)[c // self._cols]
        receiver, sender = (a[c % self._cols] for a in (self._maps.receiver, self._maps.sender))
        order = np.lexsort((kind, sender, receiver, t))
        bounds = np.searchsorted(t[order], np.arange(steps + 1))
        t, sender, receiver, kind = (a[order].tolist() for a in (t, sender, receiver, kind))
        return [f"{k0 + tt},{s},{r},{KIND_NAMES[q]}" for tt, s, r, q in zip(t, sender, receiver, kind)], bounds

    def advance(self, steps: int) -> None:
        steps, ticks = _integer(steps, "steps", low=0), self._maps.ticks
        blocks = [min(ticks, steps - start) for start in range(0, steps, ticks)]
        if not blocks:
            return
        rows = self._delay_rows(blocks[0])
        if len(blocks) > 1:
            # imported here: a run whose spans are all one block (every sweep
            # cell at n=20) never loads it
            from concurrent.futures import ThreadPoolExecutor

            # one helper draws block i + 1 while block i folds, in order, so the
            # stream is consumed as on one thread; it is joined when the span
            # ends, and its every result is read, a fold's raise included
            with ThreadPoolExecutor(1) as helper:
                for block, ahead in zip(blocks, blocks[1:]):
                    drawing = helper.submit(self._delay_rows, ahead)
                    try:
                        self._block(block, rows)
                    finally:
                        rows = drawing.result()
        self._block(blocks[-1], rows)

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
                if not self._ext_agree:
                    raise ProtocolError(f"extrema disagree across nodes at check boundary {k}")
                check_steps.append(k)
                hi, lo = self._ext[..., 0]
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
                    extrema_folds=self.extrema_folds,
                )
            self.advance(min(step_cap, (k // round_len + 1) * round_len) - k)


def run_terminating_consensus(
    g: Digraph,
    weights: np.ndarray,
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
    exit is the second boundary.  No extrema fold can change that start, so
    the first round runs none, and a later round stops folding once every
    node holds its extrema, unless one of them is zero: a zero extreme
    never stops folding (``ConsensusResult.extrema_folds``).  On success
    every node stops at the same boundary and the final estimates have
    pairwise spread at most ``eps``.
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
        Overrides the diameter :func:`~asyncadmm.digraph.diameter` keeps on
        ``g`` (computed on first use); an integer, at least 1 unless the
        digraph has one node (else ``ValueError``).  The package passes none:
        it stays only while the benchmark workloads pass one.
    """
    if not eps > 0.0:  # NaN fails every comparison
        raise ValueError(f"eps must be > 0, got {eps}")
    _integer(step_cap, "step_cap", low=1)
    # checked before any delay is drawn
    d = diameter(g) if graph_diameter is None else _integer(graph_diameter, "graph_diameter", min(g.n - 1, 1))
    round_len = (1 + dm.tau_bar) * max(d, 1)
    shape = np.shape(y0)  # the engine converts and checks y0
    extrema = (np.full(shape, np.inf), np.full(shape, -np.inf))
    engine = ConsensusEngine(g, dm, y0=y0, weights=weights, extrema=extrema, trace=trace)
    return engine.terminate(eps, step_cap, round_len)
