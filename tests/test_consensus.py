import concurrent.futures
import gc
import hashlib
import itertools
import re
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from asyncadmm import consensus
from asyncadmm.consensus import (
    KIND_NAMES,
    MIN_MAX,
    RATIO,
    ConsensusEngine,
    ConsensusResult,
    ProtocolError,
    delivery_trace,
    run_terminating_consensus,
)
from asyncadmm.digraph import Digraph, build_weights, diameter, random_strongly_connected
from asyncadmm.netsim import DelayModel
from asyncadmm.oracle import exact_average
from reference import edges, message_columns, out_lists, synchronous_ratio_trajectory

# frozen once from the seeded run below; re-runs must reproduce it exactly
GOLDEN_N20_TAU3_EPS01_STEPS = 32
# the ticks of that run whose extrema fold ran: none in the +-inf first
# round, and 7 of the second round's 16 before max and min saturate
GOLDEN_N20_TAU3_EPS01_EXTREMA_FOLDS = 7

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

# The benchmark's paper600 inputs at seed 7: random_strongly_connected(600,
# 0.2) with graph seed (7, 2), y0 (7, 4) standard normal (600, 3), delays
# (7, 1), eps 0.1, step cap 1000.  Frozen from the engine whose ratio columns
# ran in link order.  tau_bar -> (steps, check steps, delivered, stale
# discarded, extrema folds, sha256 of z)
GOLDEN_PAPER600 = {
    3: (16, [8, 16], 2113691, 108082, 3, "24029419c01c74b69245d797319e0e250c1056447df7e3527e8081732558890a"),
    10: (44, [22, 44], 5688152, 361374, 4, "9d2d8b6cf8f9e1b306b4279703f9be66e176bbc618feb8a8e78bff341c859153"),
}


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def pinned_graph(n):
    return Digraph(1, frozenset()) if n == 1 else random_strongly_connected(n, 0.25, seed=n)


def pinned_delays(tau_bar):
    return DelayModel(tau_bar, seed=100 + tau_bar)


class ScriptedDelays(DelayModel):
    """Hands out a fixed sequence of delays, in draw order."""

    def __init__(self, tau_bar, delays):
        super().__init__(tau_bar)
        self.script = list(delays)

    def sample_many(self, count):
        drawn, self.script = self.script[:count], self.script[count:]
        return np.array(drawn)


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
        engine = ConsensusEngine(g, DelayModel(0), y0=np.array([[0.0], [4.0]]), weights=w)
        engine.advance(1)
        assert engine.z[0, 0] == 2.0 and engine.z[1, 0] == 2.0

    def test_fold_matches_manual_sum(self):
        # reference: a per-message loop that folds each receiver's deliveries
        # sequentially, by sender and then by send time
        g, w, y0 = seeded_setup(n=8, seed=3)
        dm = DelayModel(3, seed=4)
        engine = ConsensusEngine(g, dm, y0=y0, weights=w)
        depth = dm.tau_bar + 1
        columns = message_columns(g)
        sent = []
        for k in range(30):
            sent.append((w[:, None] * engine.y, w * engine.w))
            engine.advance(1)
            inbox = [[(j, k)] for j in range(g.n)]
            for lag in range(min(depth, k + 1)):
                delays = engine.delays[-1 - lag]
                for (r, s), d in zip(columns, delays.tolist()):
                    if r != s and d == lag:
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

    def test_sum_order_with_pinned_delays(self):
        # receiver 2 hears from senders 0 and 1: their tick-0 sends with delay
        # 1 and their tick-1 sends with delay 0 all arrive at tick 1, beside
        # its own send; sums of 1e16-sized terms round differently per order
        g = Digraph(3, [(2, 0), (2, 1)])
        w = build_weights(g)
        engine = ConsensusEngine(g, ScriptedDelays(1, [1, 1, 0, 0]), y0=np.array([[3.0], [4e16], [-4e16]]), weights=w)
        sent = []
        for _ in range(2):
            sent.append((w * engine.y[:, 0]).tolist())
            engine.advance(1)
        by_sender = [sent[0][0], sent[1][0], sent[0][1], sent[1][1], sent[1][2]]
        newest_first = [sent[1][0], sent[0][0], sent[1][1], sent[0][1], sent[1][2]]
        senders_descending = [sent[1][2], sent[0][1], sent[1][1], sent[0][0], sent[1][0]]
        folds = []
        for terms in (by_sender, newest_first, senders_descending):
            total = 0.0
            for term in terms:
                total += term
            folds.append(total)
        assert folds[0] not in folds[1:]
        assert engine.y[2, 0].hex() == folds[0].hex()

    def test_consensus_fixed_point(self):
        g, w, _ = seeded_setup()
        y0 = np.tile([2.5, -1.0], (g.n, 1))
        for dm in (DelayModel(0), DelayModel(3, seed=4)):
            engine = ConsensusEngine(g, dm, y0=y0, weights=w)
            engine.advance(40)
            assert np.allclose(engine.z, y0, rtol=1e-12, atol=1e-12)

    def test_nonpositive_mass_raises(self):
        engine = ConsensusEngine(
            two_cycle(), DelayModel(0), y0=np.array([[1.0], [2.0]]), weights=np.array([-0.5, -0.5])
        )
        with pytest.raises(ProtocolError):
            engine.advance(1)


class TestMassConservation:
    @pytest.mark.parametrize("tau_bar", [0, 2, 5])
    def test_state_plus_in_flight_is_constant(self, tau_bar):
        g, w, y0 = seeded_setup(n=8, seed=5)
        dm = DelayModel(tau_bar, seed=6)
        engine = ConsensusEngine(g, dm, y0=y0, weights=w)
        depth = tau_bar + 1
        col_sender = np.array([s for _, s in message_columns(g)])
        sent = []
        y_mass0 = y0.sum(axis=0)
        for k in range(120):
            sent.append((w[:, None] * engine.y, w * engine.w))
            engine.advance(1)
            y_mass = engine.y.sum(axis=0).copy()
            w_mass = float(engine.w.sum())
            # in flight: sends of the last depth ticks whose delay exceeds
            # their age (a self term has delay 0, so it is never late)
            for lag in range(min(depth, k + 1)):
                late = engine.delays[-1 - lag] > lag
                senders = col_sender[late]
                y_mass += sent[k - lag][0][senders].sum(axis=0)
                w_mass += float(sent[k - lag][1][senders].sum())
            assert np.allclose(y_mass, y_mass0, rtol=1e-10, atol=1e-12)
            assert abs(w_mass - g.n) < 1e-10


class TestAsymptoticAverage:
    @pytest.mark.parametrize("tau_bar", [0, 1, 3])
    def test_converges_to_exact_average(self, tau_bar):
        g, w, y0 = seeded_setup(n=12, seed=2)
        dm = DelayModel(tau_bar, seed=3)
        engine = ConsensusEngine(g, dm, y0=y0, weights=w)
        engine.advance(800)
        assert np.abs(engine.z - exact_average(y0)).max() < 1e-10


class TestSynchronousEquivalence:
    def test_bit_for_bit_against_power_iteration(self):
        g, w, y0 = seeded_setup(n=9, seed=7, p=3)
        engine = ConsensusEngine(g, DelayModel(0), y0=y0, weights=w)
        ref = synchronous_ratio_trajectory(g, y0, 80)
        for k in (0, 1, 2, 5, 20, 80):
            engine.advance(k - engine.time)
            assert np.array_equal(engine.z, ref[k])


class TestMinMax:
    def test_fold(self):
        # one undelayed exchange folds each neighbor's pair into the node's own
        hi0 = np.array([[1.0, 5.0], [3.0, 2.0]])
        lo0 = np.array([[1.0, 5.0], [0.0, 4.0]])
        engine = ConsensusEngine(two_cycle(), DelayModel(0), extrema=(hi0, lo0))
        engine.advance(1)
        assert np.array_equal(engine.hi, [[3.0, 5.0], [3.0, 5.0]])
        assert np.array_equal(engine.lo, [[0.0, 4.0], [0.0, 4.0]])

    def test_max_consensus_on_three_cycle(self):
        g = three_cycle()
        vals = np.array([[5.0], [1.0], [3.0]])
        engine = ConsensusEngine(g, DelayModel(0), extrema=(vals, vals))
        engine.advance(diameter(g))
        assert np.all(engine.hi == 5.0)
        assert np.all(engine.lo == 1.0)

    def test_delayed_three_cycle_within_bound(self):
        # tau_bar=2, D=2: both extrema settle within (1+2)*2 = 6 steps
        g = three_cycle()
        vals = np.array([[5.0], [1.0], [3.0]])
        engine = ConsensusEngine(g, DelayModel(2, seed=0), extrema=(vals, vals))
        engine.advance(6)
        assert np.all(engine.hi == 5.0) and np.all(engine.lo == 1.0)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_graphs_within_bound(self, seed):
        g = random_strongly_connected(7 + seed, 0.25, seed=seed)
        tau_bar = (seed % 3) + 1
        dm = DelayModel(tau_bar, seed=seed + 100)
        vals = np.random.default_rng(seed).standard_normal((g.n, 2))
        engine = ConsensusEngine(g, dm, extrema=(vals, vals))
        engine.advance((1 + tau_bar) * diameter(g))
        assert np.array_equal(engine.hi, np.tile(vals.max(axis=0), (g.n, 1)))
        assert np.array_equal(engine.lo, np.tile(vals.min(axis=0), (g.n, 1)))


class TestTerminatingConsensus:
    def test_equal_inputs_terminate_at_second_boundary(self):
        # the extrema start at +/- inf, so the first boundary always re-seeds;
        # with zero spread the second check succeeds immediately
        g, w, _ = seeded_setup(n=6, seed=8)
        y0 = np.tile([1.0, 2.0], (g.n, 1))
        dm = DelayModel(2, seed=9)
        round_len = (1 + 2) * diameter(g)
        res = run_terminating_consensus(g, w, dm, y0, eps=1e-6, step_cap=100_000)
        assert res.converged
        assert res.steps == 2 * round_len
        assert res.check_steps == [round_len, 2 * round_len]

    def test_huge_eps_terminates_at_second_boundary(self):
        g, w, y0 = seeded_setup(n=6, seed=10)
        dm = DelayModel(1, seed=11)
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
            run_terminating_consensus(g, w, DelayModel(3, seed=11), y0, 0.1, 100_000)
            for _ in range(2)
        ]
        assert runs[0].steps == GOLDEN_N20_TAU3_EPS01_STEPS
        assert runs[1].steps == runs[0].steps
        assert np.array_equal(runs[0].z, runs[1].z)

    def test_disagreeing_extrema_raise_at_the_check_boundary(self):
        # a one-tick round is far shorter than (1 + tau_bar) * D: the distinct
        # values cannot have reached every node by the first boundary
        g = random_strongly_connected(10, 0.1, seed=3)
        assert diameter(g) == 7
        vals = np.arange(10.0)[:, None]
        engine = ConsensusEngine(g, DelayModel(1, seed=1), extrema=(vals, vals))
        with pytest.raises(ProtocolError, match="^extrema disagree across nodes at check boundary 1$"):
            engine.terminate(0.1, 100, 1)
        assert engine.time == 1

    def test_one_dimensional_y0_is_one_column(self):
        g, w, y0 = seeded_setup(n=8, seed=5, p=1)
        flat, column = (run_terminating_consensus(g, w, DelayModel(3, seed=11), y, 0.1, 1000) for y in (y0[:, 0], y0))
        assert flat.z.shape == (8, 1)
        assert flat.z.tobytes() == column.z.tobytes()
        assert (flat.steps, flat.check_steps) == (column.steps, column.check_steps)

    def test_golden_extrema_folds(self):
        g = random_strongly_connected(20, 0.2, seed=7)
        y0 = np.random.default_rng(42).standard_normal((20, 3))
        res = run_terminating_consensus(g, build_weights(g), DelayModel(3, seed=11), y0, 0.1, 100_000)
        assert (res.steps, res.extrema_folds) == (GOLDEN_N20_TAU3_EPS01_STEPS, GOLDEN_N20_TAU3_EPS01_EXTREMA_FOLDS)

    @pytest.mark.parametrize("eps", [0.1, 0.01, 0.001])
    def test_halts_with_spread_below_eps(self, eps):
        g, w, y0 = seeded_setup(n=10, seed=12, p=3)
        dm = DelayModel(3, seed=13)
        res = run_terminating_consensus(g, w, dm, y0, eps=eps, step_cap=100_000)
        assert res.converged
        spread = float(np.linalg.norm(res.z.max(axis=0) - res.z.min(axis=0)))
        assert spread <= eps

    def test_final_estimates_near_exact_average(self):
        g, w, y0 = seeded_setup(n=20, edge_prob=0.2, seed=14, p=3)
        dm = DelayModel(3, seed=15)
        eps = 0.01
        res = run_terminating_consensus(g, w, dm, y0, eps=eps, step_cap=100_000)
        assert res.converged
        assert np.max(np.linalg.norm(res.z - exact_average(y0), axis=1)) <= eps

    def test_checks_only_at_round_boundaries(self):
        g, w, y0 = seeded_setup(n=10, seed=16)
        dm = DelayModel(2, seed=17)
        round_len = (1 + 2) * diameter(g)
        res = run_terminating_consensus(g, w, dm, y0, eps=1e-3, step_cap=100_000)
        assert res.check_steps
        assert all(cs % round_len == 0 and cs > 0 for cs in res.check_steps)
        assert res.check_steps == sorted(set(res.check_steps))

    def test_step_cap_returns_unconverged(self):
        g, w, y0 = seeded_setup(n=10, seed=18)
        dm = DelayModel(3, seed=19)
        res = run_terminating_consensus(g, w, dm, y0, eps=1e-12, step_cap=25)
        assert not res.converged and res.steps == 25

    def test_steps_nondecreasing_in_tau(self):
        g, w, y0 = seeded_setup(n=12, edge_prob=0.25, seed=20, p=3)
        steps = []
        for tau in (0, 1, 3, 5):
            dm = DelayModel(tau, seed=21)
            steps.append(run_terminating_consensus(g, w, dm, y0, 0.1, 100_000).steps)
        assert steps == sorted(steps)

    def test_steps_nonincreasing_in_eps(self):
        g, w, y0 = seeded_setup(n=12, edge_prob=0.25, seed=22, p=3)
        steps = []
        for eps in (0.5, 0.05, 0.005):
            dm = DelayModel(3, seed=23)
            steps.append(run_terminating_consensus(g, w, dm, y0, eps, 100_000).steps)
        assert steps == sorted(steps)

    def test_extrema_snap_to_ratio_on_reseed(self):
        g, w, y0 = seeded_setup(n=8, seed=24)
        dm = DelayModel(2, seed=25)
        round_len = (1 + 2) * diameter(g)
        extrema = (np.full(y0.shape, np.inf), np.full(y0.shape, -np.inf))
        engine = ConsensusEngine(g, dm, y0=y0, weights=w, extrema=extrema)
        engine.advance(round_len)
        engine.reseed_extrema()
        assert np.array_equal(engine.hi, engine.z)
        assert np.array_equal(engine.lo, engine.z)

    def test_rejects_bad_args(self):
        g, w, y0 = seeded_setup(n=4, seed=26)
        dm = DelayModel(0)
        with pytest.raises(ValueError):
            run_terminating_consensus(g, w, dm, y0, eps=0.0, step_cap=10)
        with pytest.raises(ValueError):
            run_terminating_consensus(g, w, dm, y0, eps=0.1, step_cap=0)
        # NaN is not > 0; it would otherwise run to the step cap
        with pytest.raises(ValueError, match="eps must be > 0, got nan"):
            run_terminating_consensus(g, w, dm, y0, eps=float("nan"), step_cap=10)

    def test_single_node_network(self):
        g = Digraph(1, frozenset())
        w = build_weights(g)
        y0 = np.array([[3.0, -1.0]])
        res = run_terminating_consensus(g, w, DelayModel(0), y0, eps=0.1, step_cap=100)
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
        engine = ConsensusEngine(g, pinned_delays(tau_bar), extrema=(vals, vals + 0.5))
        engine.advance(steps)
        assert digest(engine.hi, engine.lo) == GOLDEN_MINMAX[n, tau_bar, steps]

    @pytest.mark.parametrize("n,tau_bar", sorted(GOLDEN_RATIO))
    def test_ratio(self, n, tau_bar):
        g = pinned_graph(n)
        w = build_weights(g)
        y0 = np.random.default_rng(n + 2).standard_normal((n, 2))
        spans, ticks = (ConsensusEngine(g, pinned_delays(tau_bar), y0=y0, weights=w) for _ in range(2))
        spans.advance(30)
        traj = [ticks.z]
        for _ in range(30):
            ticks.advance(1)
            traj.append(ticks.z)
        assert (digest(spans.z), digest(*traj)) == GOLDEN_RATIO[n, tau_bar]


class TestPaperScale:
    """The paper's scale, where every block is one tick, pinned bit for bit."""

    @pytest.fixture(scope="class")
    def inputs(self):
        g = random_strongly_connected(600, 0.2, seed=(7, 2))
        return g, build_weights(g), np.random.default_rng((7, 4)).standard_normal((600, 3))

    @pytest.mark.parametrize("tau_bar", sorted(GOLDEN_PAPER600))
    def test_terminating(self, inputs, tau_bar):
        g, w, y0 = inputs
        extrema = (np.full(y0.shape, np.inf), np.full(y0.shape, -np.inf))
        assert ConsensusEngine(g, DelayModel(tau_bar), y0=y0, weights=w, extrema=extrema)._maps.ticks == 1
        res = run_terminating_consensus(g, w, DelayModel(tau_bar, seed=(7, 1)), y0, 0.1, 1000)
        assert res.converged
        got = (res.steps, res.check_steps, res.delivered, res.stale_discarded, res.extrema_folds)
        assert got == GOLDEN_PAPER600[tau_bar][:5]
        assert hashlib.sha256(res.z.tobytes()).hexdigest() == GOLDEN_PAPER600[tau_bar][5]

    def test_one_draw_allocates_its_batch_and_rows_only(self, inputs):
        g, w, y0 = inputs
        engine = ConsensusEngine(g, DelayModel(3), y0=y0, weights=w, extrema=(y0, y0))
        cols = len(g.links[0])
        # one tick's int32 delays, one per edge and kind, and its int8 row over
        # both kinds' columns, plus 64 KiB: no room for a per-draw index copy (1.17 MB)
        assert engine._hist.dtype == np.int8
        bound = 4 * 2 * (cols - g.n) + 2 * cols + (64 << 10)
        tracemalloc.start()
        try:
            engine._delay_rows(1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound == 789_086


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
            self._bw = np.asarray(weights, dtype=float)
            self._y_ring = np.zeros((depth, *self.y.shape))
            self._w_ring = np.zeros((depth, n))
            self.kinds.append(RATIO)
        if extrema is not None:
            self.hi, self.lo = (np.array(a, dtype=float) for a in extrema)
            self._hi_ring = np.zeros((depth, *self.hi.shape))
            self._lo_ring = np.zeros((depth, *self.lo.shape))
            self.kinds.append(MIN_MAX)
        outs = out_lists(g)
        degree = np.array([len(out) for out in outs], dtype=np.int32)
        nodes = np.arange(n, dtype=np.int32)
        edge_sender = np.repeat(nodes, degree)
        edge_receiver = np.array([r for out in outs for r in out], dtype=np.int32)
        m = len(edge_sender)
        first_edge = (np.cumsum(degree, dtype=np.int32) - degree)[edge_sender]
        kind_count = len(self.kinds)
        draw_pos = [
            np.arange(m, dtype=np.int32) + (kind_count - 1) * first_edge + q * degree[edge_sender]
            for q in range(kind_count)
        ]
        self._draw_pos = draw_pos
        self._draws = kind_count * m
        self._lags = np.arange(depth, dtype=np.int32)
        self.delays = np.full((depth, self._draws + 1), -1, dtype=np.int32)
        self.delays[:, -1] = 0
        lag = np.concatenate([np.repeat(self._lags, m), np.zeros(n, dtype=np.int32)])
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


networks = st.tuples(
    st.integers(1, 30),  # n
    st.floats(0.0, 0.5),  # edge probability
    st.sampled_from([0, 1, 3, 10]),  # tau_bar
    st.integers(0, 2**32 - 1),  # seed
)


def delays_of(network):
    """The delay stream of ``network``'s engines, from its start."""
    _, _, tau_bar, seed = network
    return DelayModel(tau_bar, seed=seed + 1)


def both_engines(
    network, p=2, ratio=True, extrema=None, traced=False, weights=None, classes=(ConsensusEngine, PerTickEngine)
):
    """The block engine and the per-tick reference on the same inputs and delay seed.

    ``traced`` keeps the reference's trace: the block engine keeps none.
    """
    n, edge_prob, _, seed = network
    g = graph_for(n, edge_prob, seed)
    y0 = np.random.default_rng(seed).standard_normal((n, p)) if ratio else None
    w = (weights or build_weights)(g) if ratio else None
    engines = [cls(g, delays_of(network), y0=y0, weights=w, extrema=extrema) for cls in classes]
    if traced:
        engines[classes.index(PerTickEngine)].trace = []
    return g, engines


def assert_replayed(g, dm, ref):
    """``delivery_trace`` of the reference's one two-kind instance, on a fresh stream ``dm``, is its trace."""
    assert list(delivery_trace(g, dm, [ref.time])) == ref.trace


def assert_same_result(got, want):
    assert got.z.tobytes() == want.z.tobytes()
    assert (got.steps, got.converged, got.check_steps) == (want.steps, want.converged, want.check_steps)
    assert (got.delivered, got.stale_discarded) == (want.delivered, want.stale_discarded)


class TestBlockMatchesPerTick:
    """Block stepping reproduces per-tick stepping bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(network=networks, eps=st.sampled_from([1.0, 0.1, 0.01]), step_cap=st.integers(1, 400))
    # a block that starts more than tau_bar ticks after a re-seed: nothing in it is stale
    @example(network=(26, 0.5, 10, 1), eps=1.0, step_cap=21)
    def test_terminate(self, network, eps, step_cap):
        n, _, tau_bar, _ = network
        extrema = (np.full((n, 2), np.inf), np.full((n, 2), -np.inf))
        g, (block, ref) = both_engines(network, extrema=extrema, traced=True)
        round_len = (1 + tau_bar) * max(diameter(g), 1)
        got = block.terminate(eps, step_cap, round_len)
        want = ref.terminate(eps, step_cap, round_len)
        assert_same_result(got, want)
        assert_replayed(g, delays_of(network), ref)
        assert got.delivered == len(ref.trace)

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
        assert_replayed(g, delays_of(network), ref)

    @settings(max_examples=30, deadline=None)
    @given(network=networks, spans=st.lists(st.integers(0, 40), min_size=1, max_size=4))
    def test_advance_and_trajectory(self, network, spans):
        _, (block, ref) = both_engines(network)
        for span in spans:
            block.advance(span)
            ref.advance(span)
            assert block.z.tobytes() == ref.z.tobytes()
            assert block.time == ref.time
        for _ in range(spans[0]):
            block.advance(1)
            ref.advance(1)
            assert block.z.tobytes() == ref.z.tobytes()
        assert block.delivered == ref.delivered

    @staticmethod
    def raise_tick(network, sender_weight):
        """Advance both engines over weights that may lose mass; the tick each stopped at."""
        _, (block, ref) = both_engines(network, weights=lambda g: sender_weight)
        outcomes = []
        for engine in (block, ref):
            try:
                engine.advance(60)
                outcomes.append(("ok", engine.z.tobytes()))
            except ProtocolError as err:
                outcomes.append(("raised", str(err)))
        assert outcomes[0] == outcomes[1]
        assert block.time == ref.time
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


class TestBlockBoundaries:
    """Blocks of one tick, and blocks that end mid-round, step as per-tick stepping does.

    The end-of-block shift moves the delays and the sends together; these
    caps put that shift on every tick, and inside every round.
    """

    @pytest.mark.parametrize("mid_round", [False, True])
    def test_terminate_then_advance(self, monkeypatch, mid_round):
        n, _, tau_bar, _ = network = (20, 0.2, 3, 7)
        g = graph_for(*network[:2], network[3])
        round_len = (1 + tau_bar) * diameter(g)
        cap = round_len // 2 + 1 if mid_round else 1
        # two kinds: a block of cap ticks holds cap * depth * 2 * cols table entries
        entries = cap * (1 + tau_bar) * 2 * len(g.links[0]) if mid_round else 0
        monkeypatch.setattr(consensus, "BLOCK_ENTRIES", entries)
        extrema = (np.full((n, 2), np.inf), np.full((n, 2), -np.inf))
        _, (block, ref) = both_engines(network, extrema=extrema, traced=True)
        assert block._maps.ticks == cap and (cap == 1 or round_len % cap != 0)
        got = block.terminate(1e-3, 10 * round_len, round_len)
        assert_same_result(got, ref.terminate(1e-3, 10 * round_len, round_len))
        assert len(got.check_steps) >= 2
        assert_replayed(g, delays_of(network), ref)
        # distinct starting extrema: a value lost at a block end shows while they spread
        vals = np.random.default_rng(n).standard_normal((n, 2))
        _, (block, ref) = both_engines(network, extrema=(vals, vals + 0.5), traced=True)
        for span in (1, cap - 1, cap, cap + 1, round_len + 1):
            block.advance(span)
            ref.advance(span)
            assert block.time == ref.time
            assert block.z.tobytes() == ref.z.tobytes()
            assert block.hi.tobytes() == ref.hi.tobytes() and block.lo.tobytes() == ref.lo.tobytes()
        assert_replayed(g, delays_of(network), ref)
        assert (block.delivered, block.stale_discarded) == (ref.delivered, ref.stale_discarded)


def history_of(ref, g):
    """The reference's delay ring as the block engine keeps its history.

    Oldest tick first; per kind, the columns of ``message_columns(g)``, each
    edge read at the reference's own draw position for it and each self term
    at the ring's zero column; valid once ``depth`` ticks have run.
    """
    depth = len(ref._lags)
    ring = ref.delays[(ref.time - depth + np.arange(depth)) % depth]
    is_edge = np.array([r != s for r, s in message_columns(g)])
    columns = []
    for pos in ref._draw_pos:  # edges by sender, then receiver: message_columns' order
        col = np.full(len(is_edge), ref._draws)
        col[is_edge] = pos
        columns.append(col)
    return ring[:, np.concatenate(columns)]


class RecordingExecutor(concurrent.futures.ThreadPoolExecutor):
    """A thread pool that keeps every future it hands out."""

    futures = []

    def submit(self, *args, **kwargs):
        future = super().submit(*args, **kwargs)
        self.futures.append(future)
        return future


class TestDrawAhead:
    """A span of several blocks draws each next block on a helper thread.

    One-tick blocks give every span of two or more ticks a helper, which the
    small digraphs here would otherwise never start, and a tiny switch
    interval lets the helper and the folds interleave as often as they can.
    """

    @pytest.fixture(autouse=True)
    def one_tick_blocks(self, monkeypatch):
        monkeypatch.setattr(consensus, "BLOCK_ENTRIES", 1)
        monkeypatch.setattr(RecordingExecutor, "futures", [])
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingExecutor)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            yield
        finally:
            sys.setswitchinterval(interval)

    @staticmethod
    def losing_mass(g):
        """Weights, some negative: network (20, 0.2, 3, 1) loses its mass at tick 6."""
        return np.random.default_rng(1).uniform(-0.05, 1.0, g.n)

    @staticmethod
    def assert_same(g, network, block, ref):
        assert block.time == ref.time >= block._depth
        assert block.z.tobytes() == ref.z.tobytes()
        assert block.hi.tobytes() == ref.hi.tobytes() and block.lo.tobytes() == ref.lo.tobytes()
        assert np.array_equal(block.delays, history_of(ref, g))
        assert (block.delivered, block.stale_discarded) == (ref.delivered, ref.stale_discarded)
        assert_replayed(g, delays_of(network), ref)
        # the helper drew ahead, and each of its draws reads back
        assert RecordingExecutor.futures
        for future in RecordingExecutor.futures:
            assert future.result() is not None

    @pytest.mark.parametrize("network", [(20, 0.2, 3, 7), (12, 0.3, 10, 5), (6, 0.5, 0, 2)])
    def test_terminate(self, network):
        n, _, tau_bar, _ = network
        extrema = (np.full((n, 2), np.inf), np.full((n, 2), -np.inf))
        g, (block, ref) = both_engines(network, extrema=extrema, traced=True)
        assert block._maps.ticks == 1
        round_len = (1 + tau_bar) * diameter(g)
        got = block.terminate(1e-3, 10 * round_len, round_len)
        assert_same_result(got, ref.terminate(1e-3, 10 * round_len, round_len))
        assert len(got.check_steps) >= 2
        self.assert_same(g, network, block, ref)

    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(network=networks, spans=st.lists(st.integers(0, 30), min_size=1, max_size=4))
    def test_advance(self, network, spans):
        n, _, tau_bar, _ = network
        vals = np.random.default_rng(n).standard_normal((n, 2))
        g, (block, ref) = both_engines(network, extrema=(vals, vals + 0.5), traced=True)
        for span in [*spans, tau_bar + 2]:
            block.advance(span)
            ref.advance(span)
        self.assert_same(g, network, block, ref)

    def test_nonpositive_mass_inside_a_span(self):
        _, (block, ref) = both_engines((20, 0.2, 3, 1), weights=self.losing_mass)
        errors = []
        for engine in (block, ref):
            with pytest.raises(ProtocolError, match="^nonpositive mass ") as raised:
                engine.advance(60)
            errors.append(str(raised.value))
        assert errors[0] == errors[1]
        assert block.time == ref.time == 6
        assert (block.delivered, block.stale_discarded) == (ref.delivered, ref.stale_discarded)
        # the helper drew the next block before the raise: the stream is one block ahead
        draws = ref._draws
        assert np.array_equal(block.dm.sample_many(50), ref.dm.sample_many(draws + 50)[draws:])
        assert len(RecordingExecutor.futures) == 7
        for future in RecordingExecutor.futures:
            assert future.result() is not None

    def test_no_thread_outlives_a_span(self):
        before = threading.enumerate()
        _, (ok,) = both_engines((20, 0.2, 3, 7), classes=(ConsensusEngine,))
        ok.advance(30)
        assert threading.enumerate() == before
        _, (bad,) = both_engines((20, 0.2, 3, 1), weights=self.losing_mass, classes=(ConsensusEngine,))
        with pytest.raises(ProtocolError):
            bad.advance(60)
        assert threading.enumerate() == before
        assert len(RecordingExecutor.futures) == 29 + 7
        for future in RecordingExecutor.futures:
            assert future.result() is not None

    def test_a_helper_error_reaches_the_caller(self):
        _, (engine,) = both_engines((20, 0.2, 3, 7), classes=(ConsensusEngine,))
        draw, on_main = engine._delay_rows, []

        def failing_third_draw(steps):
            on_main.append(threading.current_thread() is threading.main_thread())
            if len(on_main) == 3:
                raise RuntimeError("draw failed")
            return draw(steps)

        engine._delay_rows = failing_third_draw
        before = threading.enumerate()
        with pytest.raises(RuntimeError, match="^draw failed$"):
            engine.advance(10)
        assert threading.enumerate() == before
        # the first block draws on the caller's thread, each next one on the helper
        assert on_main == [True, False, False]
        assert engine.time == 2

    def test_a_helper_error_while_a_fold_raises(self):
        # the draw that fails is the one ahead of the block that loses mass
        _, (engine,) = both_engines((20, 0.2, 3, 1), weights=self.losing_mass, classes=(ConsensusEngine,))
        draw, drawn = engine._delay_rows, []

        def failing_eighth_draw(steps):
            drawn.append(steps)
            if len(drawn) == 8:
                raise RuntimeError("draw failed")
            return draw(steps)

        engine._delay_rows = failing_eighth_draw
        with pytest.raises(RuntimeError, match="^draw failed$") as raised:
            engine.advance(60)
        assert isinstance(raised.value.__context__, ProtocolError)
        assert engine.time == 6


class FoldEveryTick(ConsensusEngine):
    """The block engine with the extrema folded on every tick, none skipped."""

    def _set_extrema(self, ext):
        super()._set_extrema(ext)
        self._ext_fixed = False


def assert_same_state(got, want):
    """Time, z, the hi and lo bytes and counters."""
    assert got.time == want.time
    assert got.z.tobytes() == want.z.tobytes()
    assert got.hi.tobytes() == want.hi.tobytes() and got.lo.tobytes() == want.lo.tobytes()
    assert (got.delivered, got.stale_discarded) == (want.delivered, want.stale_discarded)


class TestFixedExtrema:
    """Skipping the extrema folds that cannot change the extrema changes no output.

    An epoch's extrema are fixed, at its start or after any fold, when every
    node holds one non-zero value per row (the +-inf start, a constant
    input, every node holding the extreme).  Extrema with a zero row fold
    on every tick.
    """

    @pytest.mark.parametrize("tau_bar", [0, 1, 3, 10])
    def test_infinite_start(self, tau_bar):
        n = 20
        extrema = (np.full((n, 2), np.inf), np.full((n, 2), -np.inf))
        network = (n, 0.2, tau_bar, 7)
        g, (block, ref) = both_engines(network, extrema=extrema, traced=True)
        round_len = (1 + tau_bar) * diameter(g)
        block.advance(round_len)
        ref.advance(round_len)
        assert block.extrema_folds == 0
        assert_same_state(block, ref)
        got = block.terminate(0.01, 100_000, round_len)
        assert_same_result(got, ref.terminate(0.01, 100_000, round_len))
        assert_same_state(block, ref)
        assert_replayed(g, delays_of(network), ref)
        # every later round folds until it saturates, then skips
        rounds = len(got.check_steps) - 1
        assert rounds <= got.extrema_folds < rounds * round_len

    @pytest.mark.parametrize("mid_round", [False, True])
    def test_saturation_inside_a_block(self, monkeypatch, mid_round):
        n, _, tau_bar, _ = network = (20, 0.2, 3, 7)
        g = graph_for(*network[:2], network[3])
        round_len = (1 + tau_bar) * diameter(g)
        cap = round_len // 2 + 1 if mid_round else 1
        entries = cap * (1 + tau_bar) * 2 * len(g.links[0]) if mid_round else 0
        monkeypatch.setattr(consensus, "BLOCK_ENTRIES", entries)
        vals = np.random.default_rng(n).standard_normal((n, 2))
        _, (block, ref) = both_engines(network, extrema=(vals, vals + 0.5), traced=True)
        assert block._maps.ticks == cap
        block.advance(3 * round_len)
        ref.advance(3 * round_len)
        assert_same_state(block, ref)
        assert_replayed(g, delays_of(network), ref)
        # the first skipped tick, extrema_folds, is inside a block when blocks are longer than one tick
        assert 0 < block.extrema_folds <= round_len
        assert cap == 1 or block.extrema_folds % cap != 0
        extrema = (np.full((n, 2), np.inf), np.full((n, 2), -np.inf))
        _, (block, ref) = both_engines(network, extrema=extrema, traced=True)
        got = block.terminate(1e-3, 10 * round_len, round_len)
        assert_same_result(got, ref.terminate(1e-3, 10 * round_len, round_len))
        assert_same_state(block, ref)
        assert_replayed(g, delays_of(network), ref)
        assert got.extrema_folds < got.steps - round_len

    @pytest.mark.parametrize("all_tied", [False, True])
    @pytest.mark.parametrize("tau_bar", [0, 3])
    def test_signed_zeros_tied_at_the_maximum(self, tau_bar, all_tied):
        n = 20
        network = (n, 0.2, tau_bar, 7)
        rng = np.random.default_rng(5)
        signs = np.where(rng.random((n, 2)) < 0.5, 1.0, -1.0)
        if all_tied:
            # every hi equals 0 but not bitwise: the start is not fixed
            hi0 = 0.0 * signs
        else:
            # the maximum of each hi component is a tie of 0.0 and -0.0
            hi0 = -np.abs(rng.standard_normal((n, 2)))
            hi0[::3] = 0.0 * signs[::3]
        lo0 = np.full((n, 2), -5.0)  # already agreed: only hi decides whether the folds stop
        steps = 3 * (1 + tau_bar) * diameter(graph_for(n, 0.2, 7))
        g, (block, ref, every) = both_engines(
            network, extrema=(hi0, lo0), traced=True, classes=(ConsensusEngine, PerTickEngine, FoldEveryTick)
        )
        for engine in (block, ref, every):
            engine.advance(steps)
        assert_same_state(block, ref)
        assert_same_state(block, every)
        assert_replayed(g, delays_of(network), ref)
        # a zero extreme is never fixed: it folds on every tick
        assert block.extrema_folds == steps == every.extrema_folds

    def test_a_zero_in_flight_after_the_rows_agree(self):
        # every node holds -0.0 after tick 5 while a 0.0 sent before it is
        # still in flight; where a tie takes the arrival (x86), it lands at tick 6
        hi0 = np.array([[-0.0], [0.0], [-0.0], [-0.0]])
        _, (block, ref) = both_engines((4, 0.3, 3, 12), ratio=False, extrema=(hi0, np.full((4, 1), -5.0)))
        for _ in range(12):
            block.advance(1)
            ref.advance(1)
            assert block.hi.tobytes() == ref.hi.tobytes() and block.lo.tobytes() == ref.lo.tobytes()

    @pytest.mark.parametrize("tau_bar", [1, 3, 10])
    def test_constant_reseed(self, tau_bar):
        # equal inputs give every node the same ratio bits, so each re-seed is
        # fixed from its start while extrema sent before it are still arriving
        g, w, _ = seeded_setup(n=6, seed=8)
        y0 = np.tile([1.0, 2.0], (g.n, 1))
        extrema = (np.full(y0.shape, np.inf), np.full(y0.shape, -np.inf))
        block = ConsensusEngine(g, DelayModel(tau_bar, seed=9), y0=y0, weights=w, extrema=extrema)
        ref = PerTickEngine(g, DelayModel(tau_bar, seed=9), y0=y0, weights=w, extrema=extrema, trace=[])
        round_len = (1 + tau_bar) * diameter(g)
        got = block.terminate(1e-6, 100_000, round_len)
        assert_same_result(got, ref.terminate(1e-6, 100_000, round_len))
        assert_same_state(block, ref)
        assert_replayed(g, DelayModel(tau_bar, seed=9), ref)
        assert got.check_steps == [round_len, 2 * round_len]
        assert got.extrema_folds == 0 and got.stale_discarded > 0

    @pytest.mark.parametrize("tau_bar", [0, 3])
    def test_minmax_constant_and_saturating_inputs(self, tau_bar):
        n = 20
        g = graph_for(n, 0.2, 7)
        bound = (1 + tau_bar) * diameter(g)
        vals = np.random.default_rng(n).standard_normal((n, 2))
        constant = np.tile([1.5, -2.0], (n, 1))
        zeros = np.tile([0.0, -0.0], (n, 1))
        steps = bound + 5
        folds = []
        for hi0, lo0 in ((constant, constant), (zeros, zeros), (vals, vals + 0.5)):
            block, ref, every = (
                cls(g, DelayModel(tau_bar, seed=10), extrema=(hi0, lo0))
                for cls in (ConsensusEngine, PerTickEngine, FoldEveryTick)
            )
            for engine in (block, ref, every):
                engine.advance(steps)
            for other in (ref, every):
                assert block.hi.tobytes() == other.hi.tobytes() and block.lo.tobytes() == other.lo.tobytes()
                assert (block.delivered, block.stale_discarded) == (other.delivered, other.stale_discarded)
            folds.append(block.extrema_folds)
        # a constant non-zero input folds nothing, a constant zero one folds on
        # every tick; distinct inputs saturate within the bound, before steps
        assert folds[:2] == [0, steps] and 0 < folds[2] <= bound

def signed_values(with_zeros):
    values = st.floats(-1e3, 1e3, allow_nan=False).filter(lambda v: v != 0.0)
    if with_zeros:
        values = st.one_of(values, st.sampled_from([0.0, -0.0]))
    return values


def assert_extrema_fold_matches(network, data, values, steps):
    n = network[0]
    rows = st.lists(values, min_size=n * 2, max_size=n * 2)
    hi0 = np.reshape(data.draw(rows), (n, 2))
    lo0 = np.reshape(data.draw(rows), (n, 2))
    _, (block, ref) = both_engines(network, ratio=False, extrema=(hi0, lo0))
    block.advance(steps)
    ref.advance(steps)
    assert block.hi.tobytes() == ref.hi.tobytes()
    assert block.lo.tobytes() == ref.lo.tobytes()


class TestExtremaFold:
    """The engine's extrema fold against the per-tick ``ufunc.at`` fold, bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(network=networks, data=st.data(), with_zeros=st.booleans(), steps=st.integers(1, 40))
    def test_matches_ufunc_at(self, network, data, with_zeros, steps):
        assert_extrema_fold_matches(network, data, signed_values(with_zeros), steps)

    @pytest.mark.parametrize("tau_bar", [0, 3])
    def test_three_hundred_distinct_values(self, tau_bar):
        # the one check against the reference above n=30
        n = 300
        g = random_strongly_connected(n, 0.02, seed=9)
        vals = np.random.default_rng(9).standard_normal((n, 2))
        for steps in (1, 3, (1 + tau_bar) * diameter(g)):
            block, ref = (
                cls(g, DelayModel(tau_bar, seed=10), extrema=(vals, vals + 0.5)) for cls in (ConsensusEngine, PerTickEngine)
            )
            block.advance(steps)
            ref.advance(steps)
            assert block.hi.tobytes() == ref.hi.tobytes() and block.lo.tobytes() == ref.lo.tobytes()

    def test_reseeds_while_old_extrema_are_in_flight(self):
        # tau_bar=10: extrema sent before each re-seed are still in flight after it
        network = (20, 0.2, 10, 3)
        extrema = (np.full((20, 2), np.inf), np.full((20, 2), -np.inf))
        g, (block, ref) = both_engines(network, extrema=extrema, traced=True)
        round_len = 11 * diameter(g)
        got = block.terminate(0.01, 100_000, round_len)
        assert_same_result(got, ref.terminate(0.01, 100_000, round_len))
        assert len(got.check_steps) >= 3 and got.stale_discarded > 0
        assert block.hi.tobytes() == ref.hi.tobytes() and block.lo.tobytes() == ref.lo.tobytes()
        assert_replayed(g, delays_of(network), ref)


class TestRankFold:
    """The extrema fold where the order of values is delicate: ties, signed zeros and infinities."""

    @settings(max_examples=40, deadline=None)
    @given(network=networks, data=st.data(), with_zeros=st.booleans(), steps=st.integers(1, 40))
    def test_ties_signed_zeros_and_infinities(self, network, data, with_zeros, steps):
        # few distinct values, so most of them are tied
        values = [-np.inf, -2.5, -1.0, 1.0, 2.5, np.inf] + ([0.0, -0.0] if with_zeros else [])
        assert_extrema_fold_matches(network, data, st.sampled_from(values), steps)


class TestInFlightMass:
    """Mass in the states plus mass still in flight is conserved across blocks."""

    @settings(max_examples=40, deadline=None)
    @given(network=networks, spans=st.lists(st.integers(0, 50), min_size=1, max_size=5))
    def test_conserved_at_block_boundaries(self, network, spans):
        n, _, tau_bar, _ = network
        g, (engine, _) = both_engines(network, p=2)
        depth = tau_bar + 1
        columns = message_columns(g)
        col_sender = np.array([s for _, s in columns], dtype=np.intp)
        y_mass0 = engine.y.sum(axis=0)
        for span in spans:
            engine.advance(span)
            y_mass = engine.y.sum(axis=0)
            w_mass = float(engine.w.sum())
            delays = engine.delays
            # sends still in flight: delay longer than their age (the ratio
            # kind's columns come first; a self term is never late).  Between
            # blocks the history's first depth rows hold the last depth
            # ticks, oldest first, sends beside delays.
            for lag in range(min(depth, engine.time)):
                late = delays[-1 - lag, : len(columns)] > lag
                sent = engine._sent[0][:, (depth - 1 - lag) * n + col_sender[late]]
                y_mass = y_mass + sent[:-1].sum(axis=1)
                w_mass += float(sent[-1].sum())
            assert np.allclose(y_mass, y_mass0, rtol=1e-10, atol=1e-10)
            assert abs(w_mass - n) < 1e-10 * n


class TestCounters:
    def test_counts_deliveries_and_stale_extrema(self):
        g, w, y0 = seeded_setup(n=12, seed=30)
        res = run_terminating_consensus(g, w, DelayModel(3, seed=31), y0, 1e-3, 10_000)
        extrema = (np.full(y0.shape, np.inf), np.full(y0.shape, -np.inf))
        ref = PerTickEngine(g, DelayModel(3, seed=31), y0=y0, weights=w, extrema=extrema, trace=[])
        assert_same_result(res, ref.terminate(1e-3, 10_000, 4 * diameter(g)))
        assert_replayed(g, DelayModel(3, seed=31), ref)
        assert res.delivered == len(ref.trace)
        assert 0 < res.stale_discarded < res.delivered

    def test_nothing_stale_without_delays(self):
        g, w, y0 = seeded_setup(n=12, seed=30)
        res = run_terminating_consensus(g, w, DelayModel(0), y0, 1e-3, 10_000)
        # every node folds one message of each kind from itself and each in-neighbor per tick
        assert res.delivered == 2 * res.steps * (len(edges(g)) + g.n)
        assert res.stale_discarded == 0

    @pytest.mark.parametrize("tau_bar", [0, 3])
    @pytest.mark.parametrize("kinds", ["ratio", "extrema", "both"])
    def test_delays_before_the_first_tick_are_minus_one(self, tau_bar, kinds):
        # self-term columns included: every column of every pre-start row
        g, w, y0 = seeded_setup(n=12, seed=30)
        extrema = None if kinds == "ratio" else (y0, y0)
        y0, w = (None, None) if kinds == "extrema" else (y0, w)
        engine = ConsensusEngine(g, DelayModel(tau_bar, seed=31), y0=y0, weights=w, extrema=extrema)
        width = len(engine.kinds) * (len(edges(g)) + g.n)
        assert engine.delays.shape == (tau_bar + 1, width)
        assert (engine.delays == -1).all()


class TestDeliveryTrace:
    """``delivery_trace`` rebuilds the per-tick reference's trace from the digraph and the delay stream alone."""

    @settings(max_examples=30, deadline=None)
    @given(
        network=networks,
        eps=st.sampled_from([1.0, 0.1, 0.01]),
        caps=st.lists(st.integers(1, 200), min_size=2, max_size=2),
    )
    @example(network=(1, 0.0, 0, 3), eps=0.1, caps=[5, 7])
    @example(network=(1, 0.0, 3, 3), eps=0.1, caps=[5, 7])
    @example(network=(12, 0.3, 0, 4), eps=0.01, caps=[200, 200])
    def test_consecutive_terminate_instances_on_one_stream(self, network, eps, caps):
        # two instances drawing from one stream in turn, as admm.run's do
        n, edge_prob, tau_bar, seed = network
        g = graph_for(n, edge_prob, seed)
        w = build_weights(g)
        round_len = (1 + tau_bar) * max(diameter(g), 1)
        extrema = (np.full((n, 2), np.inf), np.full((n, 2), -np.inf))
        block_dm, ref_dm = delays_of(network), delays_of(network)
        traces, steps = [], []
        for y0, cap in zip(np.random.default_rng(seed).standard_normal((2, n, 2)), caps):
            got = run_terminating_consensus(g, w, block_dm, y0, eps, cap)
            ref = PerTickEngine(g, ref_dm, y0=y0, weights=w, extrema=extrema, trace=[])
            assert_same_result(got, ref.terminate(eps, cap, round_len))
            assert got.delivered == len(ref.trace)
            traces.append(ref.trace)
            steps.append(got.steps)
        lines = delivery_trace(g, delays_of(network), steps)
        for trace in traces:
            assert list(itertools.islice(lines, len(trace))) == trace
        assert next(lines, None) is None

    @pytest.mark.parametrize("tau_bar", [0, 3])
    def test_a_zero_step_instance_draws_nothing(self, tau_bar):
        g = graph_for(12, 0.3, 5)
        dm = DelayModel(tau_bar, seed=6)
        assert list(delivery_trace(g, dm, [0, 0])) == []
        assert np.array_equal(dm.sample_many(50), DelayModel(tau_bar, seed=6).sample_many(50))
        # and leaves the next instance's lines as they are
        between = list(delivery_trace(g, DelayModel(tau_bar, seed=6), [9, 0, 7]))
        assert between == list(delivery_trace(g, DelayModel(tau_bar, seed=6), [9, 7]))
        with pytest.raises(ValueError, match="^steps must be >= 0, got -1$"):
            list(delivery_trace(g, dm, [-1]))

    def test_lines_come_one_block_at_a_time(self):
        # an instance of 10**9 ticks: its first line needs only its first block's draws
        g = graph_for(20, 0.2, 7)
        dm = DelayModel(3, seed=8)
        assert next(delivery_trace(g, dm, [10**9])) == "0,0,0,RATIO_PAIR"
        maps = consensus._column_maps(g, 3, 2)
        drawn = maps.ticks * len(maps.draw_col)
        assert np.array_equal(dm.sample_many(10), DelayModel(3, seed=8).sample_many(drawn + 10)[drawn:])


class TestSharedLinkTable:
    """Engines built on one digraph share its link table and its column maps.

    The maps are built once per delay bound and kind count; consecutive
    instances on one digraph must step as instances on fresh digraphs do.
    """

    @pytest.mark.parametrize("tau_bar", [0, 3])
    def test_consecutive_instances_equal_fresh_digraphs(self, tau_bar):
        g, w, _ = seeded_setup(n=20, edge_prob=0.2, seed=7, p=3)
        y0s = np.random.default_rng(8).standard_normal((4, g.n, 3))
        runs = []
        for fresh in (False, True):
            dm = DelayModel(tau_bar, seed=11)  # one delay stream across the instances
            results = []
            for y0 in y0s:
                h = Digraph(g.n, edges(g)) if fresh else g
                results.append(run_terminating_consensus(h, build_weights(h), dm, y0, 0.01, 100_000))
            runs.append(results)
        for got, want in zip(*runs):
            assert got.z.tobytes() == want.z.tobytes()
            assert (got.steps, got.check_steps) == (want.steps, want.check_steps)
            assert (got.delivered, got.stale_discarded) == (want.delivered, want.stale_discarded)
        # the reference's instances on one stream, traced into one list, and
        # the replay of them over the kept maps and over a fresh digraph's
        dm, trace = DelayModel(tau_bar, seed=11), []
        extrema = (np.full((g.n, 3), np.inf), np.full((g.n, 3), -np.inf))
        for y0, got in zip(y0s, runs[0]):
            ref = PerTickEngine(g, dm, y0=y0, weights=w, extrema=extrema, trace=trace)
            assert_same_result(got, ref.terminate(0.01, 100_000, (1 + tau_bar) * diameter(g)))
        steps = [got.steps for got in runs[0]]
        for h in (g, Digraph(g.n, edges(g))):
            assert list(delivery_trace(h, DelayModel(tau_bar, seed=11), steps)) == trace

    def test_interleaved_bounds_and_kinds_equal_fresh_digraphs(self):
        g, _, _ = seeded_setup(n=20, edge_prob=0.2, seed=7, p=3)
        vals = np.random.default_rng(9).standard_normal((2, g.n, 2))
        plan = [(tau_bar, kinds) for _ in range(2) for tau_bar in (0, 3, 10) for kinds in ("ratio", "extrema", "both")]
        runs, maps = [], {}
        for fresh in (False, True):
            streams = {tau_bar: DelayModel(tau_bar, seed=12) for tau_bar in (0, 3, 10)}  # one per bound
            states = []
            for steps, (tau_bar, kinds) in enumerate(plan, start=5):
                h = Digraph(g.n, edges(g)) if fresh else g
                y0 = None if kinds == "extrema" else vals[0]
                extrema = None if kinds == "ratio" else (vals[1], vals[1] + 0.5)
                weights = None if y0 is None else build_weights(h)
                engine = ConsensusEngine(h, streams[tau_bar], y0=y0, weights=weights, extrema=extrema)
                if not fresh:
                    maps[tau_bar, kinds] = engine._maps
                engine.advance(steps)
                state = [engine.time, engine.delays.tobytes()]
                state += [engine.delivered, engine.stale_discarded, engine.extrema_folds]
                state += [] if y0 is None else [engine.z.tobytes()]
                state += [] if extrema is None else [engine.hi.tobytes(), engine.lo.tobytes()]
                states.append(state)
            runs.append(states)
        assert runs[0] == runs[1]
        kept = consensus._maps_by_digraph[g]
        assert sorted(kept) == [(tau_bar, kinds) for tau_bar in (0, 3, 10) for kinds in (1, 2)]
        # a ratio-only and an extrema-only engine on one digraph share one maps object
        for tau_bar in (0, 3, 10):
            assert maps[tau_bar, "ratio"] is maps[tau_bar, "extrema"] is kept[tau_bar, 1]
            assert maps[tau_bar, "both"] is kept[tau_bar, 2]

    def test_every_kind_columns_in_draw_order(self):
        g, w, y0 = seeded_setup(n=20, edge_prob=0.2, seed=7, p=3)
        engine = ConsensusEngine(g, DelayModel(3, seed=5), y0=y0, weights=w, extrema=(y0, y0))
        # sender by sender, receivers ascending, each self term in place
        maps = engine._maps
        assert list(zip(maps.receiver.tolist(), maps.sender.tolist())) == message_columns(g)
        for a in (maps.receiver, maps.sender):
            assert a.dtype == np.min_scalar_type(g.n) and not a.flags.writeable
        # each kind's history columns, read back by delays as stored
        engine.advance(5)
        assert np.array_equal(engine._hist[: engine._depth], engine.delays)
        assert engine.delays.shape == (4, 2 * len(message_columns(g)))

    @pytest.mark.parametrize("network", [(20, 0.2, 3, 7), (12, 0.3, 10, 5), (1, 0.0, 3, 2)])
    @pytest.mark.parametrize("ratio,extrema", [(True, True), (True, False), (False, True)])
    def test_each_edge_column_draws_once_in_stream_order(self, network, ratio, extrema):
        n, _, tau_bar, seed = network
        vals = np.random.default_rng(seed).standard_normal((n, 2))
        g, (engine,) = both_engines(
            network, ratio=ratio, extrema=(vals, vals) if extrema else None, classes=(ConsensusEngine,)
        )
        columns = message_columns(g)
        kinds, cols = ratio + extrema, len(columns)
        self_cols = [q * cols + c for q in range(kinds) for c, (r, s) in enumerate(columns) if r == s]
        # every edge column of each kind once, no self term, in the stream's
        # order: sender, then kind, then receiver
        stream = [
            q * cols + c for i in range(n) for q in range(kinds) for c, (r, s) in enumerate(columns) if s == i != r
        ]
        draw_col = engine._maps.draw_col
        assert draw_col.tolist() == stream
        assert draw_col.dtype == np.intp and not draw_col.flags.writeable
        rows = engine._delay_rows(3)
        drawn = DelayModel(tau_bar, seed=seed + 1).sample_many(3 * len(stream)).reshape(3, -1)
        assert rows.shape == (3, kinds * cols) and rows.dtype == engine._hist.dtype
        assert np.array_equal(rows[:, stream], drawn)
        assert not rows[:, self_cols].any()

    def test_dropping_a_digraph_drops_its_maps(self):
        g, w, y0 = seeded_setup(n=20, edge_prob=0.2, seed=7, p=3)
        engine = ConsensusEngine(g, DelayModel(3, seed=5), y0=y0, weights=w)
        assert consensus._maps_by_digraph[g][3, 1] is engine._maps
        graph, maps = weakref.ref(g), weakref.ref(engine._maps)
        del g, engine
        gc.collect()
        assert graph() is None and maps() is None

    def test_block_entries_patched_after_the_maps_exist(self, monkeypatch):
        g, w, y0 = seeded_setup(n=20, edge_prob=0.2, seed=7, p=3)
        multi = ConsensusEngine(g, DelayModel(3, seed=5), y0=y0, weights=w)
        monkeypatch.setattr(consensus, "BLOCK_ENTRIES", 0)
        # the kept maps keep their block length; a fresh digraph's maps read the patched cap
        kept = ConsensusEngine(g, DelayModel(3, seed=5), y0=y0, weights=w)
        h = Digraph(g.n, edges(g))
        single = ConsensusEngine(h, DelayModel(3, seed=5), y0=y0, weights=build_weights(h))
        assert kept._maps is multi._maps and single._maps is not multi._maps
        assert multi._maps.ticks > 1 and single._maps.ticks == 1
        for engine in (multi, kept, single):
            engine.advance(40)
        for engine in (kept, single):
            assert engine.z.tobytes() == multi.z.tobytes() and engine.delivered == multi.delivered

    def test_short_long_and_one_tick_blocks_step_alike(self, monkeypatch):
        g, w, y0 = seeded_setup(n=20, edge_prob=0.2, seed=7, p=3)
        extrema = (np.full(y0.shape, np.inf), np.full(y0.shape, -np.inf))
        engines = []
        for entries in (consensus.BLOCK_ENTRIES, 5 * consensus.BLOCK_ENTRIES, 0):
            monkeypatch.setattr(consensus, "BLOCK_ENTRIES", entries)
            h = Digraph(g.n, edges(g))  # fresh, so its maps read the patched cap
            engines.append(ConsensusEngine(h, DelayModel(3, seed=5), y0=y0, weights=w, extrema=extrema))
        short, long, single = engines
        round_len = 4 * diameter(g)
        assert single._maps.ticks == 1 < short._maps.ticks < long._maps.ticks
        for engine in engines:
            engine.terminate(1e-3, 10 * round_len, round_len)
            # then one span longer than a long block, from extrema that still spread
            engine.reseed_extrema()
            engine.advance(long._maps.ticks + round_len + 1)
        for engine in (short, long):
            assert_same_state(engine, single)
            assert engine.extrema_folds == single.extrema_folds
        assert single.stale_discarded > 0 and single.extrema_folds > round_len


class TestRejectsBadInput:
    """Inputs that no fold can handle fail before the first tick."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_y0(self, bad):
        g, w, y0 = seeded_setup(n=20, edge_prob=0.2, seed=7, p=3)
        y0[4, 1] = bad
        dm = DelayModel(3, seed=11)
        with pytest.raises(ValueError, match="y0 must be finite"):
            run_terminating_consensus(g, w, dm, y0, 0.1, 100_000)
        with pytest.raises(ValueError, match="y0 must be finite"):
            ConsensusEngine(g, dm, y0=y0, weights=w)
        # no tick ran: the delay stream is untouched
        assert np.array_equal(dm.sample_many(50), DelayModel(3, seed=11).sample_many(50))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_weights(self, bad):
        # unchecked, a NaN mass passes the nonpositive-mass check, and the
        # terminating run fails late with extrema that disagree at a check boundary
        g = random_strongly_connected(8, 0.3, seed=1)
        w = build_weights(g).copy()
        w[2] = bad
        y0 = np.random.default_rng(0).standard_normal((8, 3))
        dm = DelayModel(2, seed=1)
        with pytest.raises(ValueError, match="^weights must be finite$"):
            run_terminating_consensus(g, w, dm, y0, 0.1, 200)
        with pytest.raises(ValueError, match="^weights must be finite$"):
            ConsensusEngine(g, dm, y0=y0, weights=w)
        # no tick ran: the delay stream is untouched
        assert np.array_equal(dm.sample_many(50), DelayModel(2, seed=1).sample_many(50))

    def test_engine_without_kinds(self):
        # it would only keep time: no caller builds one
        dm = DelayModel(3, seed=31)
        with pytest.raises(ValueError, match="^an engine needs y0, extrema or both$"):
            ConsensusEngine(three_cycle(), dm)
        assert np.array_equal(dm.sample_many(20), DelayModel(3, seed=31).sample_many(20))

    def test_y0_without_weights(self):
        with pytest.raises(ValueError, match="y0 needs weights"):
            ConsensusEngine(three_cycle(), DelayModel(2, seed=0), y0=np.ones((3, 1)))

    @pytest.mark.parametrize("n,d", [(8, 2.5), (8, "2"), (8, -1), (8, 0), (1, -1)])
    def test_bad_graph_diameter(self, n, d):
        # unchecked, 2.5 and "2" fail with a bare TypeError, and -1 or 0 on an
        # 8-node digraph as extrema that disagree at a check boundary
        g = graph_for(n, 0.3, 5)
        w, y0 = build_weights(g), np.random.default_rng(5).standard_normal((n, 2))
        dm = DelayModel(3, seed=11)
        with pytest.raises(ValueError, match=r"^graph_diameter must be "):
            run_terminating_consensus(g, w, dm, y0, 0.1, 100_000, graph_diameter=d)
        # no tick ran: the delay stream is untouched
        assert np.array_equal(dm.sample_many(50), DelayModel(3, seed=11).sample_many(50))
        assert run_terminating_consensus(g, w, dm, y0, 0.1, 100_000, graph_diameter=diameter(g)).converged

    @pytest.mark.parametrize("steps,message", [(-3, "must be >= 0, got -3"), (2.5, "must be an integer, got 2.5")])
    def test_bad_steps(self, steps, message):
        # unchecked, -3 steps nothing silently and 2.5 fails with a bare TypeError
        g, w, y0 = seeded_setup(n=8, seed=5)
        dm = DelayModel(3, seed=11)
        engine = ConsensusEngine(g, dm, y0=y0, weights=w)
        with pytest.raises(ValueError, match=rf"^steps {re.escape(message)}$"):
            engine.advance(steps)
        assert engine.time == 0
        assert np.array_equal(dm.sample_many(50), DelayModel(3, seed=11).sample_many(50))
        engine.advance(np.int64(0))
        assert engine.time == 0

    @pytest.mark.parametrize("step_cap", [30.5, 30.0, "30"])
    def test_non_integer_step_cap(self, step_cap):
        # unchecked, a float cap passes unnoticed when the run converges
        # before it, and fails mid-run with a bare TypeError when it does not
        g, w, y0 = seeded_setup(n=8, seed=5)
        with pytest.raises(ValueError, match=rf"^step_cap must be an integer, got {re.escape(repr(step_cap))}$"):
            run_terminating_consensus(g, w, DelayModel(3, seed=11), y0, 1e-12, step_cap)
        res = run_terminating_consensus(g, w, DelayModel(3, seed=11), y0, 1e-12, np.int64(30))
        assert (res.steps, res.converged) == (30, False)

    @pytest.mark.parametrize("which", ["hi", "lo"])
    def test_nan_extrema(self, which):
        g = three_cycle()
        vals = np.array([[5.0], [1.0], [3.0]])
        bad = vals.copy()
        bad[1, 0] = np.nan
        hi0, lo0 = (bad, vals) if which == "hi" else (vals, bad)
        dm = DelayModel(2, seed=0)
        with pytest.raises(ValueError, match="extrema must not contain NaN"):
            ConsensusEngine(g, dm, extrema=(hi0, lo0))
        assert np.array_equal(dm.sample_many(20), DelayModel(2, seed=0).sample_many(20))

    def test_extrema_of_different_shapes(self):
        vals = np.array([[5.0, 1.0], [1.0, 2.0], [3.0, 0.0]])
        dm = DelayModel(2, seed=0)
        with pytest.raises(ValueError, match=r"extrema hi and lo differ in shape: \(3, 2\) and \(3, 1\)"):
            ConsensusEngine(three_cycle(), dm, extrema=(vals, vals[:, :1]))
        assert np.array_equal(dm.sample_many(20), DelayModel(2, seed=0).sample_many(20))

    @pytest.mark.parametrize("kind", ["y0", "extrema"])
    def test_rows_of_another_count(self, kind):
        rows = np.ones((4, 1))
        given = {"y0": rows, "weights": np.full(3, 0.5)} if kind == "y0" else {"extrema": (rows, rows)}
        dm = DelayModel(2, seed=0)
        with pytest.raises(ValueError, match=f"^{kind} has 4 rows for a 3-node digraph$"):
            ConsensusEngine(three_cycle(), dm, **given)
        assert np.array_equal(dm.sample_many(20), DelayModel(2, seed=0).sample_many(20))

    @pytest.mark.parametrize("shape", [(2,), (4,), (3, 3)], ids=["2", "4", "3x3"])
    def test_weights_of_another_shape(self, shape):
        # a dense weight matrix is refused by name, not by a numpy broadcast error
        weights = np.full(shape, 0.5)
        dm = DelayModel(2, seed=0)
        with pytest.raises(ValueError, match=rf"weights has shape {re.escape(str(shape))} for a 3-node digraph"):
            ConsensusEngine(three_cycle(), dm, y0=np.ones((3, 1)), weights=weights)
        assert np.array_equal(dm.sample_many(20), DelayModel(2, seed=0).sample_many(20))
