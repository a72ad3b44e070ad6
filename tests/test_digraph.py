from collections import deque
from pathlib import Path

import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asyncadmm import digraph
from asyncadmm.digraph import (
    Digraph,
    build_weights,
    diameter,
    load_edge_list,
    random_strongly_connected,
    save_edge_list,
)
from reference import edges, out_lists

DATA = Path(__file__).parent / "data"


def cycle(n):
    return Digraph(n, frozenset(((i + 1) % n, i) for i in range(n)))


def complete(n):
    return Digraph(n, frozenset((j, i) for i in range(n) for j in range(n) if i != j))


class TestDigraph:
    def test_rejects_bad_nodes(self):
        with pytest.raises(ValueError):
            Digraph(0, frozenset())

    def test_rejects_self_edge(self):
        with pytest.raises(ValueError, match=r"self-edge \(1, 1\)"):
            Digraph(3, frozenset({(1, 1)}))

    def test_rejects_out_of_range_edge(self):
        # 1.5 would be truncated to node 1, duplicating edge (1, 0); likewise
        # a float array, and an object id has no integer to cast to
        ring = [(1, 0), (2, 1), (0, 2)]
        for bad in (
            frozenset({(0, 3)}),
            frozenset({(1.5, 0), *ring}),
            np.array([(1.0, 0.0), *ring]),
            [(object(), 0), *ring],
        ):
            with pytest.raises(ValueError, match=r"edge \("):
                Digraph(3, bad)

    @pytest.mark.parametrize("bad", [np.array([0, 1, 2]), np.zeros((2, 3), dtype=int)], ids=["1d", "3_columns"])
    def test_rejects_edges_that_are_not_pairs(self, bad):
        message = f"edges must be (j, i) pairs, got an array of shape {bad.shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Digraph(3, bad)

    def test_array_tuples_and_repeats_give_the_same_links(self):
        g = random_strongly_connected(30, 0.2, seed=5)
        pairs = sorted(edges(g))
        repeated = [*pairs, *pairs[:7]]  # a repeated pair collapses to one edge
        for given_pairs in (np.array(pairs), np.array(pairs, dtype=np.uint16), pairs, repeated):
            h = Digraph(g.n, given_pairs)
            for a, b in zip(g.links, h.links):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            assert edges(h) == frozenset(pairs)

    def test_single_node_is_degenerate_but_valid(self):
        g = Digraph(1, frozenset())
        assert diameter(g) == 0
        assert_matches_references(g, d=0)


class TestGenerator:
    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            random_strongly_connected(1, 0.0, seed=0)

    def test_rejects_bad_prob(self):
        with pytest.raises(ValueError):
            random_strongly_connected(5, 1.5, seed=0)

    def test_two_node_cycle(self):
        g = random_strongly_connected(2, 0.0, seed=0)
        assert edges(g) == frozenset({(1, 0), (0, 1)})
        assert diameter(g) == 1

    def test_five_node_ring(self):
        g = random_strongly_connected(5, 0.0, seed=0)
        assert edges(g) == edges(cycle(5))
        assert diameter(g) == 4

    def test_golden_snapshot_n20(self):
        g = random_strongly_connected(20, 0.2, seed=7)
        golden = load_edge_list(DATA / "digraph_n20_p02_s7.txt")
        assert g.n == golden.n
        assert edges(g) == edges(golden)
        # cycle plus roughly 0.2 * (20*19 - 20) extras
        assert len(edges(g)) == 100

    @pytest.mark.parametrize("seed", range(10))
    def test_always_strongly_connected(self, seed):
        g = random_strongly_connected(4 + 3 * seed, 0.1, seed=seed)
        assert 1 <= diameter(g) <= g.n - 1

    def test_deterministic(self):
        a = random_strongly_connected(15, 0.25, seed=99)
        b = random_strongly_connected(15, 0.25, seed=99)
        assert edges(a) == edges(b)


class TestConnectivityAndDiameter:
    def test_cycle_is_strongly_connected(self):
        assert diameter(cycle(3)) == 2

    def test_path_is_not(self):
        g = Digraph(3, frozenset({(1, 0), (2, 1)}))
        with pytest.raises(ValueError, match="not strongly connected"):
            diameter(g)

    def test_complete_is(self):
        assert diameter(complete(4)) == 1

    @pytest.mark.parametrize("n", [2, 5, 9])
    def test_cycle_diameter(self, n):
        assert diameter(cycle(n)) == n - 1

    def test_complete_diameter(self):
        assert diameter(complete(5)) == 1

    def test_four_node_chord(self):
        # ring 0->1->2->3->0 plus chord 0->2; worst pair is 1 -> 0 at length 3,
        # checked by hand over all 12 ordered pairs
        g = Digraph(4, frozenset({(1, 0), (2, 1), (3, 2), (0, 3), (2, 0)}))
        assert diameter(g) == 3

    def test_diameter_requires_strong_connectivity(self):
        # no edge at all: the first power is already past n - 1 hops
        with pytest.raises(ValueError, match="not strongly connected"):
            diameter(Digraph(2, frozenset()))

    def test_diameter_is_kept_and_a_raise_keeps_nothing(self, monkeypatch):
        passes = []
        original = digraph._hops_to_reach_all
        monkeypatch.setattr(digraph, "_hops_to_reach_all", lambda g: passes.append(g) or original(g))
        g = random_strongly_connected(12, 0.2, seed=3)
        assert diameter(g) == diameter(g) == diameter(pickle.loads(pickle.dumps(g)))
        assert passes == [g]  # the second call and the pickled copy read the kept value
        path = Digraph(3, frozenset({(1, 0), (2, 1)}))
        for _ in range(2):
            with pytest.raises(ValueError, match="not strongly connected"):
                diameter(path)
        assert passes == [g, path, path]  # no result was kept, so every call composes

    @pytest.mark.parametrize(
        "make,d,products",
        [
            (lambda: random_strongly_connected(600, 0.2, seed=(7, 2)), 2, 1),  # paper600, sync600
            (lambda: random_strongly_connected(600, 0.2, seed=(8, 2)), 2, 1),
            (lambda: random_strongly_connected(20, 0.2, seed=(5, 2)), 4, 3),  # the sweep workload
            (lambda: cycle(9), 8, 7),
            (lambda: complete(5), 1, 0),
            (lambda: Digraph(1, []), 0, 0),
        ],
        ids=["paper600", "n600_seed8", "sweep", "cycle9", "complete5", "one_node"],
    )
    def test_diameter_takes_d_minus_one_products(self, monkeypatch, make, d, products):
        g, taken = make(), []

        class Counted(np.ndarray):
            """A reachability matrix that counts the products it is the left factor of."""

            def __matmul__(self, other):
                taken.append(other)
                return super().__matmul__(other)

        zeros = np.zeros
        with monkeypatch.context() as m:
            m.setattr(digraph.np, "zeros", lambda *args, **kwargs: zeros(*args, **kwargs).view(Counted))
            assert digraph._hops_to_reach_all(g) == d
        assert len(taken) == products

    @pytest.mark.parametrize("seed", range(8))
    def test_diameter_at_most_n_minus_one(self, seed):
        g = random_strongly_connected(6 + seed, 0.2, seed=seed)
        assert diameter(g) <= g.n - 1


class TestWeights:
    def test_two_cycle_weights_are_half(self):
        w = build_weights(cycle(2))
        assert w.shape == (2,) and np.all(w == 0.5)

    def test_out_degree_three_column(self):
        # node 0 sends to 1, 2, 3 in a complete 4-node digraph
        w = build_weights(complete(4))
        assert w[0] == 0.25

    @pytest.mark.parametrize("seed", range(6))
    def test_columns_sum_to_one(self, seed):
        # column j of the implied matrix: j's weight on each of its links
        g = random_strongly_connected(5 + 2 * seed, 0.3, seed=seed)
        w = build_weights(g)
        sender = g.links[1]
        assert np.abs(np.bincount(sender, weights=w[sender]) - 1.0).max() < 1e-12


class TestEdgeListFormat:
    def test_round_trip(self, tmp_path):
        g = random_strongly_connected(11, 0.3, seed=13)
        path = tmp_path / "topo.txt"
        save_edge_list(g, path)
        back = load_edge_list(path)
        assert back.n == g.n and edges(back) == edges(g)

    def test_format_is_receiver_sender(self, tmp_path):
        path = tmp_path / "topo.txt"
        path.write_text("2\n0 1\n1 0\n")
        g = load_edge_list(path)
        assert edges(g) == frozenset({(0, 1), (1, 0)})

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "topo.txt"
        path.write_text("2\n0 x\n")
        with pytest.raises(ValueError):
            load_edge_list(path)

    def test_rejects_empty(self, tmp_path):
        path = tmp_path / "topo.txt"
        path.write_text("\n")
        with pytest.raises(ValueError):
            load_edge_list(path)


def loop_generator(n, extra_edge_prob, seed):
    """Reference: the per-pair generator loop, one scalar draw per pair."""
    rng = np.random.default_rng(seed)
    pairs = {((i + 1) % n, i) for i in range(n)}
    for i in range(n):
        for j in range(n):
            if i == j or (j, i) in pairs:
                continue
            if rng.random() < extra_edge_prob:
                pairs.add((j, i))
    return frozenset(pairs)


def bfs_diameter(g):
    """Reference: one breadth-first search per source."""
    best = 0
    outs = out_lists(g)
    for src in range(g.n):
        dist = {src: 0}
        frontier = deque([src])
        while frontier:
            u = frontier.popleft()
            for v in outs[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    frontier.append(v)
        if len(dist) != g.n:
            raise ValueError("not strongly connected")
        best = max(best, max(dist.values()))
    return best


def loop_weights(g):
    """Reference: the per-sender weight loop."""
    outs = out_lists(g)
    return np.array([1.0 / (1.0 + len(outs[j])) for j in range(g.n)])


def assert_links_match_edges(g):
    """The link table against a loop over :func:`reference.edges`, and ``g.edges`` against that loop."""
    receiver, sender = g.links
    assert g.edges == edges(g)
    pairs = sorted([*edges(g), *((v, v) for v in range(g.n))])
    assert list(zip(receiver.tolist(), sender.tolist())) == pairs
    for a in (receiver, sender):
        assert a.dtype == np.int32 and not a.flags.writeable
        with pytest.raises(ValueError):
            a[:1] = 0


def assert_matches_references(g, d=None):
    assert_links_match_edges(g)
    assert diameter(g) == (bfs_diameter(g) if d is None else d)
    w = build_weights(g)
    assert w.dtype == np.float64 and w.tobytes() == loop_weights(g).tobytes()


class TestMatchesReferenceLoops:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 40),
        p=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**63 - 1),
    )
    def test_random_digraphs(self, n, p, seed):
        g = random_strongly_connected(n, p, seed=seed)
        pairs = sorted(loop_generator(n, p, seed))
        assert edges(g) == frozenset(pairs)
        assert edges(Digraph(n, pairs)) == frozenset(pairs)
        assert_matches_references(g)

    @pytest.mark.parametrize("seed", [(7, 2), (8, 2)])
    def test_paper_scale(self, seed):
        g = random_strongly_connected(600, 0.2, seed=seed)
        assert edges(g) == loop_generator(600, 0.2, seed)
        assert_matches_references(g)
        assert diameter(g) == 2

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 8, 9, 16, 17, 33, 64])
    def test_cycles(self, n):
        assert_matches_references(cycle(n), d=n - 1)

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_complete_graphs(self, n):
        assert_matches_references(complete(n), d=1)

    def test_not_strongly_connected_raises(self):
        # two 3-cycles joined one way only: 0..2 reaches 3..5, not back
        pairs = {((i + 1) % 3, i) for i in range(3)}
        pairs |= {(3 + (i + 1) % 3, 3 + i) for i in range(3)} | {(3, 0)}
        g = Digraph(6, frozenset(pairs))
        with pytest.raises(ValueError):
            bfs_diameter(g)
        with pytest.raises(ValueError):
            diameter(g)
