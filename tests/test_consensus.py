import hashlib

import numpy as np
import pytest

from asyncadmm.consensus import (
    ProtocolError,
    ConsensusEngine,
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
