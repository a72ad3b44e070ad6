"""Directed communication topologies: representation, generation, weights."""

from __future__ import annotations

from functools import cached_property
from pathlib import Path

import numpy as np

from .netsim import _integer, _real

__all__ = [
    "Digraph",
    "random_strongly_connected",
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
    :attr:`edges` is a derived view that only the traced benchmark's edge
    count reads, and the diameter is kept once :func:`diameter` has computed it, so a pickled copy
    carries it.  The topology is never mutated, so instances are safe to
    share across threads (two threads may each build a derived view or the
    diameter once; they build equal ones), and compare and hash by identity.
    """

    def __init__(self, n: int, edges) -> None:
        n = _integer(n, "node count", low=1)
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

    @cached_property
    def _diameter(self) -> int:
        """What :func:`diameter` returns, by the passes it describes; a raise keeps nothing."""
        hops = _hops_to_reach_all(self)
        if hops is None:
            raise ValueError("diameter is undefined: digraph is not strongly connected")
        return hops


def random_strongly_connected(n: int, extra_edge_prob: float, seed) -> Digraph:
    """Directed Hamiltonian cycle ``0 -> 1 -> ... -> n-1 -> 0`` plus Bernoulli extras.

    The cycle guarantees strong connectivity; every other ordered pair gets an
    edge independently with probability ``extra_edge_prob``.  Deterministic
    for a fixed ``seed``.  The extras are one ``(n, n - 2)`` batch of draws:
    row ``i`` holds sender ``i``'s pairs in ``j`` order, skipping ``j == i``
    and the cycle edge ``j == (i + 1) % n``.  Draw ``c`` maps to ``j = c``
    below the skipped pair and ``j = c + 2`` above it; in row ``n - 1`` the
    skipped pair is ``{0, n - 1}``, so ``j = c + 1``.
    """
    n = _integer(n, "n")
    if n < 2:
        raise ValueError(f"generator needs n >= 2, got {n}")
    _real(extra_edge_prob, "extra_edge_prob")
    if not 0.0 <= extra_edge_prob <= 1.0:
        raise ValueError(f"extra_edge_prob must be in [0, 1], got {extra_edge_prob}")
    senders = np.arange(n)
    cycle = np.column_stack([(senders + 1) % n, senders])
    i, c = np.nonzero(np.random.default_rng(seed).random((n, n - 2)) < extra_edge_prob)
    j = c + 2 * (c >= i) + (i == n - 1)
    return Digraph(n, np.concatenate([cycle, np.column_stack([j, i])]))


def _hops_to_reach_all(g: Digraph) -> int | None:
    """The least ``m`` such that every node reaches every node within ``m`` hops; ``None`` past ``n - 1``.

    That ``m`` is the diameter, and ``None`` means the digraph is not
    strongly connected.  Row ``w`` of ``reach`` holds, for every node ``v``,
    bits ``64 w .. 64 w + 63`` of the set of nodes that reach ``v`` within
    ``hops`` hops: ``ceil(n / 64)`` ``uint64`` words per node, no ``n x n``
    array.  It starts from the one-hop sets, the senders of ``v``'s links,
    self-loop included.  Each pass composes one more hop, ``D - 1`` passes
    in all: per word, the links gather their senders' words and one
    ``bitwise_or.reduceat`` folds them by receiver.  A pass calls no BLAS,
    and its transient is one links-long word array (0.58 MB on paper600's
    72835 links).
    """
    receiver, sender = g.links
    n = g.n
    full = np.full(-(-n // 64), np.uint64(2**64 - 1))
    full[-1] >>= np.uint64(-n % 64)  # the last word holds n % 64 nodes, or 64
    reach = np.zeros((len(full), n), dtype=np.uint64)
    for w, word in enumerate(reach):  # a word at a time: no links-long uint64 array
        mine = sender // 64 == w
        np.bitwise_or.at(word, receiver[mine], np.left_shift(np.uint64(1), (sender[mine] % 64).astype(np.uint64)))
    starts = np.searchsorted(receiver, np.arange(n, dtype=receiver.dtype))  # each node's first link
    hops = 1
    while not (reach == full[:, None]).all():
        if hops >= n - 1:
            return None
        reach, hops = np.array([np.bitwise_or.reduceat(word[sender], starts) for word in reach]), hops + 1
    return hops if n > 1 else 0  # a node reaches itself in 0 hops


def diameter(g: Digraph) -> int:
    """Longest shortest directed path over all ordered pairs; also the strong-connectivity check.

    Grows, for every node, the set of nodes that reach it, one hop per pass,
    as bit words, until every set holds every node: ``D - 1`` passes (none
    on a complete or one-node digraph), each one gather and one
    ``bitwise_or.reduceat`` over the links per 64-node word, with no BLAS
    call and no ``n x n`` matrix.  paper600's digraph (n=600, p=0.2: D=2,
    one pass) takes about 4.5 ms, half of it reading the one-hop sets off
    the links; a bare 600-node cycle (D=599, 598 passes) about 75 ms, on 2
    vCPUs (numpy 2.4).

    The result is kept on ``g``, so each digraph is composed at most once.  A
    digraph that is not strongly connected keeps nothing: every call raises
    ``ValueError``.
    """
    return g._diameter


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
