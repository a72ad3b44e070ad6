"""Directed communication topologies: representation, generation, weights."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

__all__ = [
    "Digraph",
    "WeightMatrix",
    "random_strongly_connected",
    "is_strongly_connected",
    "diameter",
    "build_weights",
    "save_edge_list",
    "load_edge_list",
]


@dataclass(frozen=True)
class Digraph:
    """Fixed directed topology on nodes ``0 .. n-1``.

    An edge ``(j, i)`` means node ``i`` transmits to node ``j``.  Self-loops
    are implied by the broadcast weighting and never stored.  Instances are
    immutable and safe to share across threads.  ``n == 1`` is permitted as
    the degenerate single-node case.
    """

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"node count must be >= 1, got {self.n}")
        if not isinstance(self.edges, frozenset):
            object.__setattr__(self, "edges", frozenset(self.edges))
        for j, i in self.edges:
            if not (0 <= j < self.n and 0 <= i < self.n):
                raise ValueError(f"edge ({j}, {i}) out of range for n={self.n}")
            if j == i:
                raise ValueError(f"self-edge ({j}, {i}) must not be stored")

    @cached_property
    def out_neighbors(self) -> tuple[tuple[int, ...], ...]:
        """``out_neighbors[i]``: sorted receivers of node ``i``."""
        outs: list[list[int]] = [[] for _ in range(self.n)]
        for j, i in self.edges:
            outs[i].append(j)
        return tuple(tuple(sorted(o)) for o in outs)

    @cached_property
    def in_neighbors(self) -> tuple[tuple[int, ...], ...]:
        """``in_neighbors[j]``: sorted transmitters heard by node ``j``."""
        ins: list[list[int]] = [[] for _ in range(self.n)]
        for j, i in self.edges:
            ins[j].append(i)
        return tuple(tuple(sorted(s)) for s in ins)

    def out_degree(self, i: int) -> int:
        return len(self.out_neighbors[i])


@dataclass(frozen=True, eq=False)
class WeightMatrix:
    """Column-stochastic broadcast weights.

    ``matrix[l, j]`` is the weight a message from sender ``j`` carries at
    receiver ``l``; it is ``1 / (1 + out_degree(j))`` for every receiver in
    the sender's out-neighborhood and for the sender itself, zero elsewhere.
    Every column therefore sums to one.  ``sender_weight[j]``, the scaling
    sender ``j`` applies to everything it ships (and keeps), is exposed
    separately because senders scale their own broadcasts: no node ever
    needs the full matrix.
    """

    matrix: np.ndarray
    sender_weight: np.ndarray


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
    edges = {((i + 1) % n, i) for i in range(n)}
    for i in range(n):
        for j in range(n):
            if i == j or (j, i) in edges:
                continue
            if rng.random() < extra_edge_prob:
                edges.add((j, i))
    return Digraph(n, frozenset(edges))


def _reaches_all(n: int, adjacency, start: int = 0) -> bool:
    seen = {start}
    frontier = deque([start])
    while frontier:
        u = frontier.popleft()
        for v in adjacency[u]:
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return len(seen) == n


def is_strongly_connected(g: Digraph) -> bool:
    """True iff every ordered node pair is joined by a directed path."""
    if g.n == 1:
        return True
    return _reaches_all(g.n, g.out_neighbors) and _reaches_all(g.n, g.in_neighbors)


def diameter(g: Digraph) -> int:
    """Longest shortest directed path over all ordered pairs (all-pairs BFS)."""
    best = 0
    for src in range(g.n):
        dist = {src: 0}
        frontier = deque([src])
        while frontier:
            u = frontier.popleft()
            for v in g.out_neighbors[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    frontier.append(v)
        if len(dist) != g.n:
            raise ValueError("diameter is undefined: digraph is not strongly connected")
        best = max(best, max(dist.values()))
    return best


def build_weights(g: Digraph) -> WeightMatrix:
    """Weights ``1 / (1 + out_degree)`` on each sender's out-edges and self-loop."""
    sender_weight = np.array([1.0 / (1.0 + g.out_degree(j)) for j in range(g.n)])
    matrix = np.zeros((g.n, g.n))
    for j in range(g.n):
        matrix[j, j] = sender_weight[j]
        for l in g.out_neighbors[j]:
            matrix[l, j] = sender_weight[j]
    return WeightMatrix(matrix=matrix, sender_weight=sender_weight)


def save_edge_list(g: Digraph, path) -> None:
    """Write the text format: first line ``n``, then one ``j i`` line per edge.

    A line ``j i`` means node ``i`` transmits to node ``j``.  Lines are sorted
    so the output is canonical.
    """
    lines = [str(g.n)]
    lines.extend(f"{j} {i}" for j, i in sorted(g.edges))
    Path(path).write_text("\n".join(lines) + "\n")


def load_edge_list(path) -> Digraph:
    """Read the edge-list format written by :func:`save_edge_list`."""
    raw = [ln.strip() for ln in Path(path).read_text().splitlines() if ln.strip()]
    if not raw:
        raise ValueError(f"empty topology file: {path}")
    try:
        n = int(raw[0])
        edges = set()
        for ln in raw[1:]:
            j, i = ln.split()
            edges.add((int(j), int(i)))
    except ValueError as exc:
        raise ValueError(f"malformed topology file {path}: {exc}") from exc
    return Digraph(n, frozenset(edges))
