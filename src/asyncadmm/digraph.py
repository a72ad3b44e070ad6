"""Directed communication topologies: representation, generation, weights."""

from __future__ import annotations

from functools import cached_property
from pathlib import Path

import numpy as np

__all__ = [
    "Digraph",
    "random_strongly_connected",
    "is_strongly_connected",
    "diameter",
    "build_weights",
    "save_edge_list",
    "load_edge_list",
]


class Digraph:
    """Fixed directed topology on nodes ``0 .. n-1``, stored as its link table.

    An edge ``(j, i)`` means node ``i`` transmits to node ``j``.  ``edges`` is
    any iterable of such pairs or an ``(m, 2)`` integer array; repeated edges
    collapse to one.  Self-loops are implied by the broadcast weighting and
    never passed in.  ``n == 1`` is the degenerate single-node case.  Only
    ``n`` and ``links`` are given: the receiver and sender of every edge and
    self-loop, int32, read-only, by receiver then sender (the edge-list
    file's line order), which everything that reads the topology reads.
    :attr:`edges` is a derived view for tests and edge counts.  The topology
    is never mutated, so instances are safe to share across threads (two
    threads may each build a derived view once; they build equal ones), and
    compare and hash by identity.
    """

    def __init__(self, n: int, edges) -> None:
        if n < 1:
            raise ValueError(f"node count must be >= 1, got {n}")
        pairs = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges))
        pairs = pairs if pairs.size else np.empty((0, 2), dtype=np.int64)  # [] reads as float
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError(f"edges must be (j, i) pairs, got an array of shape {pairs.shape}")
        if pairs.dtype.kind not in "iu":  # a cast would truncate 1.5 to node 1 silently
            raise ValueError(f"edge {tuple(pairs[0].tolist())} has a non-integer node id")
        out_of_range = ((pairs < 0) | (pairs >= n)).any(axis=1)
        if out_of_range.any():
            raise ValueError(f"edge {tuple(pairs[out_of_range][0].tolist())} out of range for n={n}")
        self_edge = pairs[:, 0] == pairs[:, 1]
        if self_edge.any():
            raise ValueError(f"self-edge {tuple(pairs[self_edge][0].tolist())} must not be stored")
        receiver, sender = pairs.T.astype(np.int64)
        # sort, then drop repeats: np.unique hashes ints since numpy 2.3, 15x slower here
        keys = np.sort(np.concatenate([receiver * n + sender, np.arange(n) * (n + 1)]))
        keys = keys[np.diff(keys, prepend=-1) != 0]
        receiver, sender = (a.astype(np.int32) for a in np.divmod(keys, n))
        receiver.flags.writeable = sender.flags.writeable = False
        self.n = n
        self.links = receiver, sender

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The edges ``(j, i)`` as Python ints, derived from ``links``."""
        receiver, sender = self.links
        edge = receiver != sender
        return frozenset(zip(receiver[edge].tolist(), sender[edge].tolist()))


def random_strongly_connected(n: int, extra_edge_prob: float, seed) -> Digraph:
    """Directed Hamiltonian cycle ``0 -> 1 -> ... -> n-1 -> 0`` plus Bernoulli extras.

    The cycle guarantees strong connectivity; every other ordered pair gets an
    edge independently with probability ``extra_edge_prob``.  Deterministic
    for a fixed ``seed``.
    """
    if n < 2:
        raise ValueError(f"generator needs n >= 2, got {n}")
    if not 0.0 <= extra_edge_prob <= 1.0:
        raise ValueError(f"extra_edge_prob must be in [0, 1], got {extra_edge_prob}")
    rng = np.random.default_rng(seed)
    senders = np.arange(n)
    cycle = np.column_stack([(senders + 1) % n, senders])
    return Digraph(n, np.concatenate([cycle, *_extra_edges(rng, n, extra_edge_prob)]))


def _extra_edges(rng: np.random.Generator, n: int, extra_edge_prob: float):
    """Yield each row's Bernoulli extras as an ``(m, 2)`` array of ``(j, i)``.

    Pairs are drawn in row-major ``(i, j)`` order, skipping ``j == i`` and the
    cycle edge ``j == (i + 1) % n``, so row ``i`` has ``n - 2`` draws.  Draw
    ``c`` maps to ``j = c`` below the skipped pair and ``j = c + 2`` above it;
    in row ``n - 1`` the skipped pair is ``{0, n - 1}``, so ``j = c + 1``.
    Row-by-row draws consume the same stream as one ``(n, n - 2)`` batch
    without holding the batch in memory.
    """
    for i in range(n if n > 2 else 0):
        c = np.flatnonzero(rng.random(n - 2) < extra_edge_prob)
        j = c + 2 * (c >= i) + (i == n - 1)
        yield np.column_stack([j, np.full_like(j, i)])


def _reachability_powers(g: Digraph) -> list[np.ndarray] | None:
    """``[R, R^2, R^4, ..., R^(2^k)]`` as boolean matrices, ``R = I + A``.

    ``R^m[u, v]`` is true iff ``v`` is within ``m`` hops of ``u``.  Squaring
    stops at the first power that is all true; ``None`` means none is within
    ``n - 1`` hops, i.e. the digraph is not strongly connected.  Products are
    taken in float32: every count is at most ``n``, so it is exact.
    """
    receiver, sender = g.links
    r = np.zeros((g.n, g.n), dtype=bool)
    r[sender, receiver] = True  # the self-loops make the identity
    powers = [r]
    hops = 1
    while not powers[-1].all():
        if hops >= g.n - 1:
            return None
        powers.append(_compose(powers[-1], powers[-1]))
        hops *= 2
    return powers


def _compose(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Boolean product: within ``s + t`` hops, from within ``s`` and ``t`` hops."""
    return (a.astype(np.float32) @ b.astype(np.float32)) > 0


def is_strongly_connected(g: Digraph) -> bool:
    """True iff every ordered node pair is joined by a directed path."""
    return _reachability_powers(g) is not None


def diameter(g: Digraph) -> int:
    """Longest shortest directed path over all ordered pairs.

    Squares the reachability matrix ``R = I + A`` until it is all true, then
    binary-searches the smallest full power with the stored squares: about
    ``2 log2(D)`` dense ``n x n`` products.  Fast for the well-connected
    digraphs the experiments use (n=600, p=0.2: D=2, one product, about
    0.04 s against 2 s for an all-pairs breadth-first search); slower than
    that search on long cycles (a bare 600-node cycle, D=599, needs 19
    products: 0.09-0.47 s against about 0.1 s, on 2 vCPUs).
    """
    powers = _reachability_powers(g)
    if powers is None:
        raise ValueError("diameter is undefined: digraph is not strongly connected")
    if g.n == 1:
        return 0
    # powers[-1] = R^(2^k) is the first full power, so k == 0 means D == 1;
    # otherwise D lies in (2^(k-1), 2^k].  Grow a non-full power greedily.
    k = len(powers) - 1
    if k == 0:
        return 1
    reach, hops = powers[k - 1], 2 ** (k - 1)
    for step in range(k - 2, -1, -1):
        longer = _compose(reach, powers[step])
        if not longer.all():
            reach, hops = longer, hops + 2**step
    return hops + 1


def build_weights(g: Digraph) -> np.ndarray:
    """Broadcast weights: entry ``j`` is ``1 / (1 + d_j)``, ``d_j`` the out-degree of ``j``.

    Sender ``j`` scales everything it ships (and keeps) by it, so the implied
    matrix ``P``, that weight on ``j``'s out-edges and self-loop, is column
    stochastic.  No node needs ``P``, so only this length-``n`` vector exists.
    """
    return 1.0 / np.bincount(g.links[1], minlength=g.n)  # d_j edges plus the self-loop


def save_edge_list(g: Digraph, path) -> None:
    """Write the text format: first line ``n``, then one ``j i`` line per edge.

    A line ``j i`` means node ``i`` transmits to node ``j``.  Lines are in
    link-table order, so the output is canonical.
    """
    receiver, sender = g.links
    edge = receiver != sender
    lines = [str(g.n)]
    lines.extend(f"{j} {i}" for j, i in zip(receiver[edge].tolist(), sender[edge].tolist()))
    Path(path).write_text("\n".join(lines) + "\n")


def load_edge_list(path) -> Digraph:
    """Read the edge-list format written by :func:`save_edge_list`."""
    raw = [ln.strip() for ln in Path(path).read_text().splitlines() if ln.strip()]
    if not raw:
        raise ValueError(f"empty topology file: {path}")
    try:
        n = int(raw[0])
        edges = [(int(j), int(i)) for j, i in map(str.split, raw[1:])]
    except ValueError as exc:
        raise ValueError(f"malformed topology file {path}: {exc}") from exc
    return Digraph(n, edges)
