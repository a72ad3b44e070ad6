import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asyncadmm.consensus import (
    KIND_NAMES,
    MIN_MAX,
    RATIO,
    ConsensusEngine,
    ConsensusResult,
    ProtocolError,
    ratio_trajectory,
    run_minmax_consensus,
    run_ratio_consensus,
    run_terminating_consensus,
)
from asyncadmm.digraph import Digraph, WeightMatrix, build_weights, diameter, random_strongly_connected
from asyncadmm.netsim import DelayModel
from asyncadmm.oracle import exact_average, synchronous_ratio_oracle

# frozen once from the seeded run below; re-runs must reproduce it exactly
GOLDEN_N20_TAU3_EPS01_STEPS = 32

# Frozen from the message-object simulator that preceded the array engine.
# (n, tau_bar) -> (steps, number of checks, first check, sha256 prefix of z)
GOLDEN_TERMINATING = {
    (1, 0): (2, 2, 1, "e078a71334524f3e"),
    (1, 1): (4, 2, 2, "e078a71334524f3e"),
    (1, 3): (8, 2, 4, "e078a71334524f3e"),
    (1, 10): (22, 2, 11, "e078a71334524f3e"),
    (8, 0): (12, 4, 3, "a7863d06c6db888f"),
    (8, 1): (24, 4, 6, "4d65f7b71266b3dc"),
    (8, 3): (48, 4, 12, "cf7aef018f8ac9b7"),
    (8, 10): (99, 3, 33, "991ddfe0e5219929"),
    (20, 0): (16, 4, 4, "f067f60790b7e8a5"),
    (20, 1): (24, 3, 8, "b194a1bac81b9e44"),
    (20, 3): (48, 3, 16, "8d4bc70c99396323"),
    (20, 10): (132, 3, 44, "641db1c697e48e24"),
}
# (n, tau_bar, steps) -> sha256 prefix of the (hi, lo) bytes
GOLDEN_MINMAX = {
    (8, 1, 2): "0e479b9d4b5662bb",
    (8, 1, 4): "595f52352734eec9",
    (8, 3, 2): "737f73b01568a7dd",
    (8, 3, 4): "2b29dc5c3a26b279",
    (8, 10, 2): "06347f3a7d9fde27",
    (8, 10, 4): "48eb876508c73143",
    (20, 1, 2): "157cab21bf6fe5c2",
    (20, 1, 4): "22a776aeb4978553",
    (20, 3, 2): "41b620902e5bb837",
    (20, 3, 4): "79a3cbf18627e81f",
    (20, 10, 2): "e6c3b2e83d51ee7d",
    (20, 10, 4): "b64d80a9413fd967",
}
# (n, tau_bar) -> sha256 prefixes of z after 30 ratio steps and of z^0 .. z^30
GOLDEN_RATIO = {
    (8, 0): ("f3744fa3c394b6a8", "2997b8c9a95d06c1"),
    (8, 2): ("a4a6772018b2f9c0", "2893f25fc9471463"),
    (8, 5): ("e7d685d3329eb3a5", "dff2b4e1bdcc0efa"),
    (20, 0): ("d263033f61ab63dd", "77e27607a681f9c1"),
    (20, 2): ("ed58218c4f7f99f8", "b06d1691cfb5574b"),
    (20, 5): ("a70223cdf37c7c58", "fd74a4fc3a030cd9"),
}


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def pinned_graph(n):
    return Digraph(1, frozenset()) if n == 1 else random_strongly_connected(n, 0.25, seed=n)


def pinned_delays(tau_bar):
    return DelayModel.zero() if tau_bar == 0 else DelayModel.uniform(tau_bar, seed=100 + tau_bar)


def two_cycle():
    return Digraph(2, frozenset({(0, 1), (1, 0)}))


def three_cycle():
    return Digraph(3, frozenset({(1, 0), (2, 1), (0, 2)}))


def seeded_setup(n=10, edge_prob=0.3, seed=1, p=2):
    g = random_strongly_connected(n, edge_prob, seed=seed)
    w = build_weights(g)
    y0 = np.random.default_rng(seed).standard_normal((n, p))
    return g, w, y0


class TestRatioStep:
    def test_two_node_hand_iteration(self):
        # symmetric half weights: one step lands both nodes on the average
        g = two_cycle()
        w = build_weights(g)
        y0 = np.array([[0.0], [4.0]])
        z = run_ratio_consensus(g, w, DelayModel.zero(), y0, 1)
        assert z[0, 0] == 2.0 and z[1, 0] == 2.0

    def test_fold_matches_manual_sum(self):
        # reference: a per-message loop that folds each receiver's deliveries
        # sequentially, by sender and then by send time
        g, w, y0 = seeded_setup(n=8, seed=3)
        dm = DelayModel.uniform(3, seed=4)
        engine = ConsensusEngine(g, dm, y0=y0, weights=w)
        bw = w.sender_weight
        depth = dm.tau_bar + 1
        sent = []
        for k in range(30):
            sent.append((bw[:, None] * engine.y, bw * engine.w))
            engine.step()
            inbox = [[(j, k)] for j in range(g.n)]
            for lag in range(min(depth, k + 1)):
                due = engine.delays[(k - lag) % depth, engine.draw_pos[0]] == lag
                for s, r in zip(engine.edge_sender[due], engine.edge_receiver[due]):
                    inbox[r].append((s, k - lag))
            for r in range(g.n):
                y_ref = np.zeros(y0.shape[1])
                w_ref = 0.0
                for s, t in sorted(inbox[r]):
                    y_ref += sent[t][0][s]
                    w_ref += sent[t][1][s]
                assert np.array_equal(engine.y[r], y_ref)
                assert engine.w[r] == w_ref
            assert np.allclose(engine.z, engine.y / engine.w[:, None])

    def test_consensus_fixed_point(self):
        g, w, _ = seeded_setup()
        y0 = np.tile([2.5, -1.0], (g.n, 1))
        for dm in (DelayModel.zero(), DelayModel.uniform(3, seed=4)):
            z = run_ratio_consensus(g, w, dm, y0, 40)
            assert np.allclose(z, y0, rtol=1e-12, atol=1e-12)

    def test_nonpositive_mass_raises(self):
        bad = WeightMatrix(matrix=np.zeros((2, 2)), sender_weight=np.array([-0.5, -0.5]))
        with pytest.raises(ProtocolError):
            run_ratio_consensus(two_cycle(), bad, DelayModel.zero(), np.array([[1.0], [2.0]]), 1)


class TestMassConservation:
    @pytest.mark.parametrize("tau_bar", [0, 2, 5])
    def test_state_plus_in_flight_is_constant(self, tau_bar):
        g, w, y0 = seeded_setup(n=8, seed=5)
        dm = DelayModel.zero() if tau_bar == 0 else DelayModel.uniform(tau_bar, seed=6)
        engine = ConsensusEngine(g, dm, y0=y0, weights=w)
        bw = w.sender_weight
        depth = tau_bar + 1
        sent = []
        y_mass0 = y0.sum(axis=0)
        for k in range(120):
            sent.append((bw[:, None] * engine.y, bw * engine.w))
            engine.step()
            y_mass = engine.y.sum(axis=0).copy()
            w_mass = float(engine.w.sum())
            # in flight: sends still in the ring whose delay exceeds their age
            for lag in range(min(depth, k + 1)):
                late = engine.delays[(k - lag) % depth, engine.draw_pos[0]] > lag
                senders = engine.edge_sender[late]
                y_mass += sent[k - lag][0][senders].sum(axis=0)
                w_mass += float(sent[k - lag][1][senders].sum())
            assert np.allclose(y_mass, y_mass0, rtol=1e-10, atol=1e-12)
            assert abs(w_mass - g.n) < 1e-10


class TestAsymptoticAverage:
    @pytest.mark.parametrize("tau_bar", [0, 1, 3])
    def test_converges_to_exact_average(self, tau_bar):
        g, w, y0 = seeded_setup(n=12, seed=2)
        dm = DelayModel.zero() if tau_bar == 0 else DelayModel.uniform(tau_bar, seed=3)
        z = run_ratio_consensus(g, w, dm, y0, 800)
        assert np.abs(z - exact_average(y0)).max() < 1e-10


class TestSynchronousEquivalence:
    def test_bit_for_bit_against_power_iteration(self):
        g, w, y0 = seeded_setup(n=9, seed=7, p=3)
        traj = ratio_trajectory(g, w, DelayModel.zero(), y0, 80)
        for k in (0, 1, 2, 5, 20, 80):
            assert np.array_equal(traj[k], synchronous_ratio_oracle(w, y0, k))


class TestMinMax:
    def test_fold(self):
        # one undelayed exchange folds each neighbor's pair into the node's own
        hi0 = np.array([[1.0, 5.0], [3.0, 2.0]])
        lo0 = np.array([[1.0, 5.0], [0.0, 4.0]])
        hi, lo = run_minmax_consensus(two_cycle(), DelayModel.zero(), hi0, lo0, steps=1)
        assert np.array_equal(hi, [[3.0, 5.0], [3.0, 5.0]])
        assert np.array_equal(lo, [[0.0, 4.0], [0.0, 4.0]])

    def test_max_consensus_on_three_cycle(self):
        g = three_cycle()
        vals = np.array([[5.0], [1.0], [3.0]])
        hi, lo = run_minmax_consensus(g, DelayModel.zero(), vals, vals, steps=diameter(g))
        assert np.all(hi == 5.0)
        assert np.all(lo == 1.0)

    def test_delayed_three_cycle_within_bound(self):
        # tau_bar=2, D=2: both extrema settle within (1+2)*2 = 6 steps
        g = three_cycle()
        vals = np.array([[5.0], [1.0], [3.0]])
        dm = DelayModel.uniform(2, seed=0)
        hi, lo = run_minmax_consensus(g, dm, vals, vals, steps=6)
        assert np.all(hi == 5.0) and np.all(lo == 1.0)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_graphs_within_bound(self, seed):
        g = random_strongly_connected(7 + seed, 0.25, seed=seed)
        tau_bar = (seed % 3) + 1
        dm = DelayModel.uniform(tau_bar, seed=seed + 100)
        vals = np.random.default_rng(seed).standard_normal((g.n, 2))
        bound = (1 + tau_bar) * diameter(g)
        hi, lo = run_minmax_consensus(g, dm, vals, vals, steps=bound)
        assert np.array_equal(hi, np.tile(vals.max(axis=0), (g.n, 1)))
        assert np.array_equal(lo, np.tile(vals.min(axis=0), (g.n, 1)))


class TestTerminatingConsensus:
    def test_equal_inputs_terminate_at_second_boundary(self):
        # the extrema start at +/- inf, so the first boundary always re-seeds;
        # with zero spread the second check succeeds immediately
        g, w, _ = seeded_setup(n=6, seed=8)
        y0 = np.tile([1.0, 2.0], (g.n, 1))
        dm = DelayModel.uniform(2, seed=9)
        round_len = (1 + 2) * diameter(g)
        res = run_terminating_consensus(g, w, dm, y0, eps=1e-6, step_cap=100_000)
        assert res.converged
        assert res.steps == 2 * round_len
        assert res.check_steps == [round_len, 2 * round_len]

    def test_huge_eps_terminates_at_second_boundary(self):
        g, w, y0 = seeded_setup(n=6, seed=10)
        dm = DelayModel.uniform(1, seed=11)
        round_len = (1 + 1) * diameter(g)
        res = run_terminating_consensus(g, w, dm, y0, eps=1e6, step_cap=100_000)
        assert res.converged and res.steps == 2 * round_len
        spread = np.linalg.norm(res.z.max(axis=0) - res.z.min(axis=0))
        assert spread <= 1e6

    def test_golden_steps_and_determinism(self):
        g = random_strongly_connected(20, 0.2, seed=7)
        w = build_weights(g)
        y0 = np.random.default_rng(42).standard_normal((20, 3))
        runs = [
            run_terminating_consensus(g, w, DelayModel.uniform(3, seed=11), y0, 0.1, 100_000)
            for _ in range(2)
        ]
        assert runs[0].steps == GOLDEN_N20_TAU3_EPS01_STEPS
        assert runs[1].steps == runs[0].steps
        assert np.array_equal(runs[0].z, runs[1].z)

    @pytest.mark.parametrize("eps", [0.1, 0.01, 0.001])
    def test_halts_with_spread_below_eps(self, eps):
        g, w, y0 = seeded_setup(n=10, seed=12, p=3)
        dm = DelayModel.uniform(3, seed=13)
        res = run_terminating_consensus(g, w, dm, y0, eps=eps, step_cap=100_000)
        assert res.converged
        spread = float(np.linalg.norm(res.z.max(axis=0) - res.z.min(axis=0)))
        assert spread <= eps

    def test_final_estimates_near_exact_average(self):
        g, w, y0 = seeded_setup(n=20, edge_prob=0.2, seed=14, p=3)
        dm = DelayModel.uniform(3, seed=15)
        eps = 0.01
        res = run_terminating_consensus(g, w, dm, y0, eps=eps, step_cap=100_000)
        assert res.converged
        assert np.max(np.linalg.norm(res.z - exact_average(y0), axis=1)) <= eps

    def test_checks_only_at_round_boundaries(self):
        g, w, y0 = seeded_setup(n=10, seed=16)
        dm = DelayModel.uniform(2, seed=17)
        round_len = (1 + 2) * diameter(g)
        res = run_terminating_consensus(g, w, dm, y0, eps=1e-3, step_cap=100_000)
        assert res.check_steps
        assert all(cs % round_len == 0 and cs > 0 for cs in res.check_steps)
        assert res.check_steps == sorted(set(res.check_steps))

    def test_step_cap_returns_unconverged(self):
        g, w, y0 = seeded_setup(n=10, seed=18)
        dm = DelayModel.uniform(3, seed=19)
        res = run_terminating_consensus(g, w, dm, y0, eps=1e-12, step_cap=25)
        assert not res.converged and res.steps == 25

    def test_steps_nondecreasing_in_tau(self):
        g, w, y0 = seeded_setup(n=12, edge_prob=0.25, seed=20, p=3)
        steps = []
        for tau in (0, 1, 3, 5):
            dm = DelayModel.zero() if tau == 0 else DelayModel.uniform(tau, seed=21)
            steps.append(run_terminating_consensus(g, w, dm, y0, 0.1, 100_000).steps)
        assert steps == sorted(steps)

    def test_steps_nonincreasing_in_eps(self):
        g, w, y0 = seeded_setup(n=12, edge_prob=0.25, seed=22, p=3)
        steps = []
        for eps in (0.5, 0.05, 0.005):
            dm = DelayModel.uniform(3, seed=23)
            steps.append(run_terminating_consensus(g, w, dm, y0, eps, 100_000).steps)
        assert steps == sorted(steps)

    def test_extrema_snap_to_ratio_on_reseed(self):
        g, w, y0 = seeded_setup(n=8, seed=24)
        dm = DelayModel.uniform(2, seed=25)
        round_len = (1 + 2) * diameter(g)
        extrema = (np.full(y0.shape, np.inf), np.full(y0.shape, -np.inf))
        engine = ConsensusEngine(g, dm, y0=y0, weights=w, extrema=extrema)
        engine.advance(round_len)
        engine.reseed_extrema()
        assert np.array_equal(engine.hi, engine.z)
        assert np.array_equal(engine.lo, engine.z)

    def test_rejects_bad_args(self):
        g, w, y0 = seeded_setup(n=4, seed=26)
        dm = DelayModel.zero()
        with pytest.raises(ValueError):
            run_terminating_consensus(g, w, dm, y0, eps=0.0, step_cap=10)
        with pytest.raises(ValueError):
            run_terminating_consensus(g, w, dm, y0, eps=0.1, step_cap=0)

    def test_single_node_network(self):
        g = Digraph(1, frozenset())
        w = build_weights(g)
        y0 = np.array([[3.0, -1.0]])
        res = run_terminating_consensus(g, w, DelayModel.zero(), y0, eps=0.1, step_cap=100)
        assert res.converged
        assert np.allclose(res.z, y0)


class TestGoldenPins:
    """Bit-level outputs of every consensus entry point, delays included."""

    @pytest.mark.parametrize("n,tau_bar", sorted(GOLDEN_TERMINATING))
    def test_terminating(self, n, tau_bar):
        g = pinned_graph(n)
        y0 = np.random.default_rng(n).standard_normal((n, 3))
        res = run_terminating_consensus(g, build_weights(g), pinned_delays(tau_bar), y0, 0.01, 100_000)
        steps, checks, first, z_digest = GOLDEN_TERMINATING[n, tau_bar]
        assert res.converged
        assert res.steps == steps
        assert res.check_steps == list(range(first, steps + 1, first)) and len(res.check_steps) == checks
        assert digest(res.z) == z_digest

    @pytest.mark.parametrize("n,tau_bar,steps", sorted(GOLDEN_MINMAX))
    def test_minmax(self, n, tau_bar, steps):
        g = pinned_graph(n)
        vals = np.random.default_rng(n + 1).standard_normal((n, 2))
        hi, lo = run_minmax_consensus(g, pinned_delays(tau_bar), vals, vals + 0.5, steps)
        assert digest(hi, lo) == GOLDEN_MINMAX[n, tau_bar, steps]

    @pytest.mark.parametrize("n,tau_bar", sorted(GOLDEN_RATIO))
    def test_ratio(self, n, tau_bar):
        g = pinned_graph(n)
        w = build_weights(g)
        y0 = np.random.default_rng(n + 2).standard_normal((n, 2))
        z = run_ratio_consensus(g, w, pinned_delays(tau_bar), y0, 30)
        traj = ratio_trajectory(g, w, pinned_delays(tau_bar), y0, 30)
        assert (digest(z), digest(*traj)) == GOLDEN_RATIO[n, tau_bar]


class PerTickEngine:
    """Reference: the engine as it stepped before block stepping.

    One delay draw, one candidate gather and ``ufunc.at`` extrema folds per
    tick, over a ring of delays in draw order.
    """

    def __init__(self, g, dm, y0=None, weights=None, extrema=None, trace=None):
        n = g.n
        self.n, self.dm, self.trace = n, dm, trace
        self.time = self.epoch_start = self.delivered = self.stale_discarded = 0
        self.kinds = []
        depth = dm.tau_bar + 1
        if y0 is not None:
            self.y = np.array(y0, dtype=float)
            self.w = np.ones(n)
            self.z = self.y / self.w[:, None]
            self._bw = np.asarray(weights.sender_weight, dtype=float)
            self._y_ring = np.zeros((depth, *self.y.shape))
            self._w_ring = np.zeros((depth, n))
            self.kinds.append(RATIO)
        if extrema is not None:
            self.hi, self.lo = (np.array(a, dtype=float) for a in extrema)
            self._hi_ring = np.zeros((depth, *self.hi.shape))
            self._lo_ring = np.zeros((depth, *self.lo.shape))
            self.kinds.append(MIN_MAX)
        degree = np.array([len(out) for out in g.out_neighbors], dtype=np.int32)
        nodes = np.arange(n, dtype=np.int32)
        edge_sender = np.repeat(nodes, degree)
        edge_receiver = np.array([r for out in g.out_neighbors for r in out], dtype=np.int32)
        edges = len(edge_sender)
        first_edge = (np.cumsum(degree, dtype=np.int32) - degree)[edge_sender]
        kind_count = len(self.kinds)
        draw_pos = [
            np.arange(edges, dtype=np.int32) + (kind_count - 1) * first_edge + q * degree[edge_sender]
            for q in range(kind_count)
        ]
        self._draws = kind_count * edges
        self._lags = np.arange(depth, dtype=np.int32)
        self.delays = np.full((depth, self._draws + 1), -1, dtype=np.int32)
        self.delays[:, -1] = 0
        lag = np.concatenate([np.repeat(self._lags, edges), np.zeros(n, dtype=np.int32)])
        sender = np.concatenate([np.tile(edge_sender, depth), nodes])
        receiver = np.concatenate([np.tile(edge_receiver, depth), nodes])
        order = np.lexsort((-lag, sender, receiver))
        self._receiver = receiver[order]
        self._lag = lag[order]
        self._payload_at = self._lag * n + sender[order]
        self._seen_at = [
            self._lag * (self._draws + 1)
            + np.concatenate([np.tile(pos, depth), np.full(n, self._draws, dtype=np.int32)])[order]
            for pos in draw_pos
        ]

    def reseed_extrema(self):
        self.hi = self.z.copy()
        self.lo = self.z.copy()
        self.epoch_start = self.time

    def step(self):
        k = self.time
        depth = len(self._lags)
        slot = k % depth
        by_lag = (k - self._lags) % depth
        self.delays[slot, :-1] = self.dm.sample_many(self._draws)
        seen = (self.delays[by_lag] == self._lags[:, None]).ravel()
        arrived = [seen[at] for at in self._seen_at]
        self.delivered += sum(int(got.sum()) for got in arrived)
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
            fresh = self._lag <= k - self.epoch_start
            self.stale_discarded += int((arrived[-1] & ~fresh).sum())
            got = arrived[-1] & fresh
            receiver, source = self._receiver[got], self._payload_at[got]
            hi, lo = self.hi.copy(), self.lo.copy()
            np.maximum.at(hi, receiver, self._hi_ring[by_lag].reshape(-1, hi.shape[1])[source])
            np.minimum.at(lo, receiver, self._lo_ring[by_lag].reshape(-1, lo.shape[1])[source])
            self.hi, self.lo = hi, lo
        self.time = k + 1

    def _trace_tick(self, k, arrived):
        receiver = np.concatenate([self._receiver[got] for got in arrived])
        sender = np.concatenate([self._payload_at[got] % self.n for got in arrived])
        kind = np.concatenate([np.full(np.count_nonzero(got), q) for q, got in zip(self.kinds, arrived)])
        order = np.lexsort((kind, sender, receiver))
        self.trace.extend(
            f"{k},{s},{r},{KIND_NAMES[q]}"
            for s, r, q in zip(sender[order].tolist(), receiver[order].tolist(), kind[order].tolist())
        )

    def advance(self, steps):
        for _ in range(steps):
            self.step()

    def trajectory(self, steps):
        traj = [self.z]
        for _ in range(steps):
            self.step()
            traj.append(self.z)
        return traj

    def terminate(self, eps, step_cap, round_len):
        check_steps = []
        while True:
            k = self.time
            if k != 0 and k % round_len == 0:
                if not (np.all(self.hi == self.hi[0]) and np.all(self.lo == self.lo[0])):
                    raise ProtocolError(f"extrema disagree across nodes at check boundary {k}")
                check_steps.append(k)
                if float(np.linalg.norm(self.hi[0] - self.lo[0])) < eps:
                    return self._result(k, True, check_steps)
                self.reseed_extrema()
            if k >= step_cap:
                return self._result(k, False, check_steps)
            self.step()

    def _result(self, k, converged, check_steps):
        return ConsensusResult(
            z=self.z,
            steps=k,
            converged=converged,
            check_steps=check_steps,
            delivered=self.delivered,
            stale_discarded=self.stale_discarded,
        )


def graph_for(n, edge_prob, seed):
    return Digraph(1, frozenset()) if n == 1 else random_strongly_connected(n, edge_prob, seed=seed)


def delays_for(tau_bar, seed):
    return DelayModel.zero() if tau_bar == 0 else DelayModel.uniform(tau_bar, seed=seed)


networks = st.tuples(
    st.integers(1, 30),  # n
    st.floats(0.0, 0.5),  # edge probability
    st.sampled_from([0, 1, 3, 10]),  # tau_bar
    st.integers(0, 2**32 - 1),  # seed
)


def both_engines(network, p=2, ratio=True, extrema=None, traced=False, weights=None):
    """The block engine and the per-tick reference on the same inputs and delay seed."""
    n, edge_prob, tau_bar, seed = network
    g = graph_for(n, edge_prob, seed)
    y0 = np.random.default_rng(seed).standard_normal((n, p)) if ratio else None
    w = (weights or build_weights)(g) if ratio else None
    engines = [
        cls(g, delays_for(tau_bar, seed + 1), y0=y0, weights=w, extrema=extrema, trace=[] if traced else None)
        for cls in (ConsensusEngine, PerTickEngine)
    ]
    return g, engines


def assert_same_result(got, want):
    assert got.z.tobytes() == want.z.tobytes()
    assert (got.steps, got.converged, got.check_steps) == (want.steps, want.converged, want.check_steps)
    assert (got.delivered, got.stale_discarded) == (want.delivered, want.stale_discarded)


class TestBlockMatchesPerTick:
    """Block stepping reproduces per-tick stepping bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(network=networks, eps=st.sampled_from([1.0, 0.1, 0.01]), step_cap=st.integers(1, 400))
    def test_terminate(self, network, eps, step_cap):
        n, _, tau_bar, _ = network
        extrema = (np.full((n, 2), np.inf), np.full((n, 2), -np.inf))
        g, (block, ref) = both_engines(network, extrema=extrema, traced=True)
        round_len = (1 + tau_bar) * max(diameter(g), 1)
        got = block.terminate(eps, step_cap, round_len)
        want = ref.terminate(eps, step_cap, round_len)
        assert_same_result(got, want)
        assert block.trace == ref.trace
        assert got.delivered == len(block.trace)

    @pytest.mark.parametrize("tau_bar", [1, 3, 10])
    def test_step_cap_mid_round(self, tau_bar):
        network = (20, 0.2, tau_bar, 7)
        extrema = (np.full((20, 2), np.inf), np.full((20, 2), -np.inf))
        g, (block, ref) = both_engines(network, extrema=extrema, traced=True)
        round_len = (1 + tau_bar) * diameter(g)
        cap = 2 * round_len + round_len // 2
        got = block.terminate(1e-12, cap, round_len)
        assert_same_result(got, ref.terminate(1e-12, cap, round_len))
        assert not got.converged and got.steps == cap and got.check_steps == [round_len, 2 * round_len]
        assert block.trace == ref.trace

    @settings(max_examples=30, deadline=None)
    @given(network=networks, spans=st.lists(st.integers(0, 40), min_size=1, max_size=4))
    def test_advance_and_trajectory(self, network, spans):
        _, (block, ref) = both_engines(network, traced=True)
        for span in spans:
            block.advance(span)
            ref.advance(span)
            assert block.z.tobytes() == ref.z.tobytes()
            assert block.time == ref.time
        got, want = block.trajectory(spans[0]), ref.trajectory(spans[0])
        assert [z.tobytes() for z in got] == [z.tobytes() for z in want]
        assert block.trace == ref.trace
        assert block.delivered == ref.delivered == len(block.trace)

    @staticmethod
    def raise_tick(network, sender_weight):
        """Advance both engines over weights that may lose mass; the tick each stopped at."""
        n = network[0]
        weights = WeightMatrix(matrix=np.zeros((n, n)), sender_weight=sender_weight)
        _, (block, ref) = both_engines(network, traced=True, weights=lambda g: weights)
        outcomes = []
        for engine in (block, ref):
            try:
                engine.advance(60)
                outcomes.append(("ok", engine.z.tobytes()))
            except ProtocolError as err:
                outcomes.append(("raised", str(err)))
        assert outcomes[0] == outcomes[1]
        assert block.time == ref.time
        assert block.trace == ref.trace
        return block.time if outcomes[0][0] == "raised" else None

    @settings(max_examples=30, deadline=None)
    @given(network=networks, data=st.data())
    def test_nonpositive_mass_at_the_same_tick(self, network, data):
        # some negative broadcast weights: the mass can go nonpositive at any tick
        n = network[0]
        self.raise_tick(network, np.array(data.draw(st.lists(st.floats(-0.2, 1.0), min_size=n, max_size=n))))

    def test_nonpositive_mass_inside_a_block(self):
        sender_weight = np.random.default_rng(1).uniform(-0.05, 1.0, 20)
        assert self.raise_tick((20, 0.2, 3, 1), sender_weight) == 6


def signed_values(with_zeros):
    values = st.floats(-1e3, 1e3, allow_nan=False).filter(lambda v: v != 0.0)
    if with_zeros:
        values = st.one_of(values, st.sampled_from([0.0, -0.0]))
    return values


class TestExtremaFold:
    """The ``reduceat`` extrema fold against the ``ufunc.at`` fold it replaced."""

    @settings(max_examples=40, deadline=None)
    @given(network=networks, data=st.data(), with_zeros=st.booleans(), steps=st.integers(1, 40))
    def test_matches_ufunc_at(self, network, data, with_zeros, steps):
        n = network[0]
        rows = st.lists(signed_values(with_zeros), min_size=n * 2, max_size=n * 2)
        hi0 = np.reshape(data.draw(rows), (n, 2))
        lo0 = np.reshape(data.draw(rows), (n, 2))
        _, (block, ref) = both_engines(network, ratio=False, extrema=(hi0, lo0))
        block.advance(steps)
        ref.advance(steps)
        # fold order decides only the sign of a zero, which == ignores
        assert np.array_equal(block.hi, ref.hi) and np.array_equal(block.lo, ref.lo)
        if not with_zeros:
            assert block.hi.tobytes() == ref.hi.tobytes()
            assert block.lo.tobytes() == ref.lo.tobytes()


class TestInFlightMass:
    """Mass in the states plus mass still in flight is conserved across blocks."""

    @settings(max_examples=40, deadline=None)
    @given(network=networks, spans=st.lists(st.integers(0, 50), min_size=1, max_size=5))
    def test_conserved_at_block_boundaries(self, network, spans):
        n, _, tau_bar, _ = network
        g, (engine, _) = both_engines(network, p=2)
        depth = tau_bar + 1
        y_mass0 = engine.y.sum(axis=0)
        for span in spans:
            engine.advance(span)
            y_mass = engine.y.sum(axis=0)
            w_mass = float(engine.w.sum())
            ring = engine.delays
            # sends still in flight: delay longer than their age
            for lag in range(min(depth, engine.time)):
                slot = (engine.time - 1 - lag) % depth
                late = ring[slot, engine.draw_pos[0]] > lag
                sent = engine._ratio_sent[:, slot * n + engine.edge_sender[late]]
                y_mass = y_mass + sent[:-1].sum(axis=1)
                w_mass += float(sent[-1].sum())
            assert np.allclose(y_mass, y_mass0, rtol=1e-10, atol=1e-10)
            assert abs(w_mass - n) < 1e-10 * n


class TestCounters:
    def test_counts_deliveries_and_stale_extrema(self):
        g, w, y0 = seeded_setup(n=12, seed=30)
        trace = []
        res = run_terminating_consensus(g, w, DelayModel.uniform(3, seed=31), y0, 1e-3, 10_000, trace=trace)
        assert res.delivered == len(trace)
        assert 0 < res.stale_discarded < res.delivered

    def test_nothing_stale_without_delays(self):
        g, w, y0 = seeded_setup(n=12, seed=30)
        res = run_terminating_consensus(g, w, DelayModel.zero(), y0, 1e-3, 10_000)
        # every node folds one message of each kind from itself and each in-neighbor per tick
        assert res.delivered == 2 * res.steps * (len(g.edges) + g.n)
        assert res.stale_discarded == 0


class TestRankFold:
    """The rank-encoded extrema fold against the per-tick ``ufunc.at`` fold of values."""

    @settings(max_examples=40, deadline=None)
    @given(network=networks, data=st.data(), with_zeros=st.booleans(), steps=st.integers(1, 40))
    def test_ties_signed_zeros_and_infinities(self, network, data, with_zeros, steps):
        n = network[0]
        # few distinct values, so most of them are tied
        values = [-np.inf, -2.5, -1.0, 1.0, 2.5, np.inf] + ([0.0, -0.0] if with_zeros else [])
        rows = st.lists(st.sampled_from(values), min_size=n * 2, max_size=n * 2)
        hi0 = np.reshape(data.draw(rows), (n, 2))
        lo0 = np.reshape(data.draw(rows), (n, 2))
        _, (block, ref) = both_engines(network, ratio=False, extrema=(hi0, lo0))
        block.advance(steps)
        ref.advance(steps)
        assert np.array_equal(block.hi, ref.hi) and np.array_equal(block.lo, ref.lo)
        if not with_zeros:
            assert block.hi.tobytes() == ref.hi.tobytes()
            assert block.lo.tobytes() == ref.lo.tobytes()

    @pytest.mark.parametrize("tau_bar", [0, 3])
    def test_more_nodes_than_one_byte_ranks(self, tau_bar):
        # 300 distinct values per component: ranks past 255 must survive the fold
        n = 300
        g = random_strongly_connected(n, 0.02, seed=9)
        vals = np.random.default_rng(9).standard_normal((n, 2))
        for steps in (1, 3, (1 + tau_bar) * diameter(g)):
            hi, lo = run_minmax_consensus(g, delays_for(tau_bar, 10), vals, vals + 0.5, steps)
            ref = PerTickEngine(g, delays_for(tau_bar, 10), extrema=(vals, vals + 0.5))
            ref.advance(steps)
            assert hi.tobytes() == ref.hi.tobytes() and lo.tobytes() == ref.lo.tobytes()

    def test_reseeds_swap_the_rank_table(self):
        # tau_bar=10: extrema sent before each re-seed are still in flight after it
        network = (20, 0.2, 10, 3)
        extrema = (np.full((20, 2), np.inf), np.full((20, 2), -np.inf))
        g, (block, ref) = both_engines(network, extrema=extrema, traced=True)
        round_len = 11 * diameter(g)
        got = block.terminate(0.01, 100_000, round_len)
        assert_same_result(got, ref.terminate(0.01, 100_000, round_len))
        assert len(got.check_steps) >= 3 and got.stale_discarded > 0
        assert block.hi.tobytes() == ref.hi.tobytes() and block.lo.tobytes() == ref.lo.tobytes()
        assert block.trace == ref.trace


class TestRejectsBadInput:
    """Inputs that no fold can handle fail before the first tick."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_y0(self, bad):
        g, w, y0 = seeded_setup(n=20, edge_prob=0.2, seed=7, p=3)
        y0[4, 1] = bad
        dm = DelayModel.uniform(3, seed=11)
        with pytest.raises(ValueError, match="y0 must be finite"):
            run_terminating_consensus(g, w, dm, y0, 0.1, 100_000)
        with pytest.raises(ValueError, match="y0 must be finite"):
            run_ratio_consensus(g, w, dm, y0, 5)
        # no tick ran: the delay stream is untouched
        assert np.array_equal(dm.sample_many(50), DelayModel.uniform(3, seed=11).sample_many(50))

    @pytest.mark.parametrize("which", ["hi", "lo"])
    def test_nan_extrema(self, which):
        g = three_cycle()
        vals = np.array([[5.0], [1.0], [3.0]])
        bad = vals.copy()
        bad[1, 0] = np.nan
        hi0, lo0 = (bad, vals) if which == "hi" else (vals, bad)
        dm = DelayModel.uniform(2, seed=0)
        with pytest.raises(ValueError, match="extrema must not contain NaN"):
            run_minmax_consensus(g, dm, hi0, lo0, steps=6)
        assert np.array_equal(dm.sample_many(20), DelayModel.uniform(2, seed=0).sample_many(20))
