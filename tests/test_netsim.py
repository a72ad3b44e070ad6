import copy
import re
from collections import Counter

import numpy as np
import pytest

from asyncadmm.admm import SolverConfig
from asyncadmm.consensus import KIND_NAMES, ConsensusEngine, delivery_trace, run_terminating_consensus
from asyncadmm.digraph import Digraph, build_weights, random_strongly_connected
from asyncadmm.netsim import DelayModel, _integer, _real
from asyncadmm.problems import generate_ls
from reference import edges, message_columns, out_lists, synchronous_ratio_trajectory


class FixedDelays(DelayModel):
    """Every message delayed by exactly ``tau_bar``."""

    def sample_many(self, count):
        return np.full(count, self.tau_bar, dtype=np.int64)


def engine_for(g, dm):
    """A terminating-consensus engine: ratio and min/max kinds both present."""
    y0 = np.random.default_rng(0).standard_normal((g.n, 2))
    return ConsensusEngine(g, dm, y0=y0, weights=build_weights(g), extrema=(y0, y0))


def run_logged(g, dm, steps):
    """Step an engine; return its trace lines and every non-self send.

    The trace is :func:`delivery_trace` over a copy of ``dm`` taken before
    the first tick, and lists as many lines as the engine counts
    deliveries.  Sends are ``(sent_at, sender, receiver, kind, delay)``,
    read from the engine's newest delay row right after the tick that drew them.
    """
    trace = list(delivery_trace(g, copy.deepcopy(dm), [steps]))
    engine = engine_for(g, dm)
    columns = message_columns(g)
    sends = []
    for k in range(steps):
        engine.advance(1)
        row = engine.delays[-1].tolist()
        for q, kind in enumerate(engine.kinds):
            # one kind's columns after another's, each in message_columns order
            kind_row = row[q * len(columns) : (q + 1) * len(columns)]
            for (r, s), d in zip(columns, kind_row):
                if r != s:
                    sends.append((k, s, r, KIND_NAMES[kind], d))
    assert engine.delivered == len(trace)
    return engine, trace, sends


def expected_lines(g, sends, steps):
    """Trace lines of every send due before ``steps``, self terms included."""
    lines = [f"{k + d},{s},{r},{kind}" for k, s, r, kind, d in sends if k + d < steps]
    lines += [f"{k},{j},{j},{kind}" for k in range(steps) for j in range(g.n) for kind in KIND_NAMES]
    return Counter(lines)


def lines_at(trace, k):
    return [line for line in trace if line.split(",")[0] == str(k)]


def is_self(line):
    _, sender, receiver, _ = line.split(",")
    return sender == receiver


class TestDelayModel:
    def test_zero_model(self):
        dm = DelayModel(0)
        draws = dm.sample_many(1000)
        assert draws.dtype == np.int32 and np.all(draws == 0)
        # the zeros consume nothing from the model's stream
        assert np.array_equal(dm._rng.integers(0, 4, size=20), np.random.default_rng(0).integers(0, 4, size=20))

    @pytest.mark.parametrize("tau_bar", [1, 2, 3, 5, 10, 255])
    def test_int32_draws_are_the_int64_stream(self, tau_bar):
        # the values and the generator's later state of a default (int64) draw
        dm = DelayModel(tau_bar, seed=(7, 1))
        reference = np.random.default_rng((7, 1))
        draws = dm.sample_many(5000)
        assert draws.dtype == np.int32
        assert np.array_equal(draws, reference.integers(0, tau_bar + 1, size=5000))
        assert dm._rng.bit_generator.state == reference.bit_generator.state

    def test_rejects_negative_bound(self):
        with pytest.raises(ValueError):
            DelayModel(-1)

    @pytest.mark.parametrize("bad", [2.5, 3.0, "3", None])
    def test_rejects_non_integer_bound(self, bad):
        with pytest.raises(ValueError, match="tau_bar must be an integer"):
            DelayModel(bad)

    def test_numpy_integer_bound(self):
        dm = DelayModel(np.int64(3), seed=5)
        assert dm.tau_bar == 3 and type(dm.tau_bar) is int
        assert np.array_equal(dm.sample_many(50), DelayModel(3, seed=5).sample_many(50))

    def test_uniform_alias_draws_equal_the_constructor(self):
        # DelayModel.uniform stays while benchmarks/workloads.py calls it
        alias, constructed = DelayModel.uniform(3, seed=(7, 1)), DelayModel(3, seed=(7, 1))
        assert alias.tau_bar == constructed.tau_bar == 3
        assert np.array_equal(alias.sample_many(200), constructed.sample_many(200))

    def test_uniform_within_bound(self):
        dm = DelayModel(4, seed=0)
        draws = dm.sample_many(500)
        assert draws.min() >= 0 and draws.max() <= 4

    def test_uniform_reproducible(self):
        a = DelayModel(3, seed=5)
        b = DelayModel(3, seed=5)
        assert np.array_equal(a.sample_many(100), b.sample_many(100))

    def test_uniform_frequencies(self):
        # 1e4 draws at tau_bar=3: each value lands near 1/4
        dm = DelayModel(3, seed=123)
        draws = dm.sample_many(10_000)
        freqs = np.bincount(draws, minlength=4) / 10_000
        assert np.all(np.abs(freqs - 0.25) <= 0.02)

    def test_batch_matches_stream_determinism(self):
        # one batch equals the same draws split over several calls
        a = DelayModel(2, seed=7)
        b = DelayModel(2, seed=7)
        split = np.concatenate([b.sample_many(c) for c in (3, 0, 5, 1)])
        assert np.array_equal(a.sample_many(9), split)


def _consensus(step_cap=10, eps=0.1, **kwargs):
    g = random_strongly_connected(4, 0.3, seed=0)
    return run_terminating_consensus(g, build_weights(g), DelayModel(1), np.zeros(4), eps, step_cap, **kwargs)


def _oracle(k):
    return synchronous_ratio_trajectory(random_strongly_connected(4, 0.3, seed=0), np.zeros(4), k)


class TestInteger:
    """``_integer``, the package's one integer check, and its lower bound."""

    @pytest.mark.parametrize("value", [0, 5, np.int64(0), np.uint8(5), np.int32(7)])
    def test_at_or_above_the_bound_passes_as_an_int(self, value):
        got = _integer(value, "x", low=0)
        assert got == value and type(got) is int

    @pytest.mark.parametrize(
        "value,low", [(-1, 0), (np.int64(-1), 0), (0, 1), (np.int32(2), 3), (np.uint8(0), 1)]
    )
    def test_below_the_bound_names_it(self, value, low):
        with pytest.raises(ValueError, match=rf"^x must be >= {low}, got {int(value)}$"):
            _integer(value, "x", low=low)

    @pytest.mark.parametrize("value", [2.5, 3.0, "3", None, np.float64(1.0), True, False, np.True_])
    def test_a_non_integer_fails_before_the_bound(self, value):
        with pytest.raises(ValueError, match=rf"^x must be an integer, got {re.escape(repr(value))}$"):
            _integer(value, "x", low=0)

    @pytest.mark.parametrize(
        "call,message",
        [
            (lambda: DelayModel(np.int64(-1)), "tau_bar must be >= 0, got -1"),
            (lambda: DelayModel(True), "tau_bar must be an integer, got True"),
            (lambda: SolverConfig(k_max=0), "k_max must be >= 1, got 0"),
            (lambda: SolverConfig(step_cap=np.int32(0)), "step_cap must be >= 1, got 0"),
            (lambda: SolverConfig(seed=np.int64(-1)), "seed must be >= 0, got -1"),
            (lambda: SolverConfig(tau_bar=-2), "tau_bar must be >= 0, got -2"),
            (lambda: _consensus(step_cap=0), "step_cap must be >= 1, got 0"),
            (lambda: _consensus(graph_diameter=np.int64(0)), "graph_diameter must be >= 1, got 0"),
            (lambda: _oracle(np.int64(-1)), "k must be >= 0, got -1"),
            (lambda: _oracle(2.5), "k must be an integer, got 2.5"),
            (lambda: Digraph(2.5, [(1, 0), (0, 1)]), "node count must be an integer, got 2.5"),
            (lambda: random_strongly_connected(4.0, 0.2, 1), "n must be an integer, got 4.0"),
            (lambda: generate_ls(2.5, 2, 2, 1), "n must be an integer, got 2.5"),
            (lambda: generate_ls(3, 2.0, 2, 1), "p must be an integer, got 2.0"),
            (lambda: generate_ls(3, 2, "2", 1), "q must be an integer, got '2'"),
            (lambda: Digraph(np.int64(0), []), "node count must be >= 1, got 0"),
            (lambda: random_strongly_connected(np.int64(1), 0.2, 1), "generator needs n >= 2, got 1"),
            (lambda: generate_ls(3, np.int32(0), 2, 1), "dimensions must be >= 1, got n=3, p=0, q=2"),
        ],
        ids=["delay_tau_bar", "delay_tau_bar_bool", "k_max", "step_cap", "seed", "solver_tau_bar", "consensus_step_cap",
             "graph_diameter", "oracle_k", "oracle_k_float", "digraph_n", "generator_n", "ls_n", "ls_p", "ls_q",
             "digraph_n_range", "generator_n_range", "ls_range"],
    )
    def test_every_integer_bound_reads_the_same(self, call, message):
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            call()


class TestReal:
    """``_real``, the package's one real-number check: a bool or a non-number is not a real value."""

    @pytest.mark.parametrize("value", [0, 2.5, -1, float("nan"), float("inf"), np.float32(0.5), np.float64(1.0),
                                       np.int64(3), np.uint8(0)])
    def test_numbers_pass_whatever_their_bound(self, value):
        assert _real(value, "x") is None

    @pytest.mark.parametrize("value", [True, False, np.True_, np.False_, "1", None, [1.0], np.array(1.0), 1j])
    def test_a_bool_or_a_non_number_names_the_parameter(self, value):
        with pytest.raises(ValueError, match=rf"^x must be a real number, got {re.escape(repr(value))}$"):
            _real(value, "x")

    @pytest.mark.parametrize("value", [True, np.True_, "1"], ids=["bool", "numpy_bool", "str"])
    @pytest.mark.parametrize(
        "name,call",
        [
            ("rho", lambda x: SolverConfig(rho=x)),
            ("eps", lambda x: SolverConfig(eps=x)),
            ("eps_abs", lambda x: SolverConfig(eps_abs=x)),
            ("eps_rel", lambda x: SolverConfig(eps_rel=x)),
            ("rho", lambda x: generate_ls(3, 2, 2, 1).prox(np.zeros((3, 2)), x)),
            ("eps", lambda x: _consensus(eps=x)),
            ("extra_edge_prob", lambda x: random_strongly_connected(5, x, seed=1)),
        ],
        ids=["solver_rho", "solver_eps", "solver_eps_abs", "solver_eps_rel", "prox_rho", "consensus_eps",
             "extra_edge_prob"],
    )
    def test_every_real_parameter_reads_the_same(self, name, call, value):
        with pytest.raises(ValueError, match=rf"^{name} must be a real number, got {re.escape(repr(value))}$"):
            call(value)


class TestEventQueue:
    """The engine's delay ring as an event queue: when each send is consumed."""

    def setup_method(self):
        self.g = random_strongly_connected(6, 0.3, seed=4)

    def test_delay_two_delivered_at_two_not_before(self):
        _, trace, _ = run_logged(self.g, FixedDelays(2), 3)
        for k in (0, 1):
            assert all(is_self(line) for line in lines_at(trace, k))
        sent_on_edges = {line.rsplit(",", 1)[0] for line in lines_at(trace, 2) if not is_self(line)}
        assert sent_on_edges == {f"2,{i},{j}" for j, i in edges(self.g)}

    def test_zero_delay_is_synchronous(self):
        _, trace, _ = run_logged(self.g, DelayModel(0), 1)
        assert len(trace) == 2 * (len(edges(self.g)) + self.g.n)

    def test_empty_advance_returns_empty(self):
        # nothing was sent before time 0: while every delay is tau_bar, the
        # first tau_bar ticks deliver only the undelayed self terms
        _, trace, _ = run_logged(self.g, FixedDelays(3), 3)
        assert len(trace) == 3 * 2 * self.g.n
        assert all(is_self(line) for line in trace)

    def test_same_tick_sorted_by_receiver_sender_kind(self):
        _, trace, _ = run_logged(self.g, DelayModel(2, seed=1), 12)
        for k in range(12):
            keys = [
                (int(r), int(s), KIND_NAMES.index(kind))
                for _, s, r, kind in (line.split(",") for line in lines_at(trace, k))
            ]
            assert keys == sorted(keys)


class TestBroadcast:
    """Each node's per-tick broadcast, as the engine's arrays and the replayed trace record it."""

    def setup_method(self):
        self.g = random_strongly_connected(8, 0.3, seed=2)

    def test_enqueues_out_neighbors_plus_self(self):
        _, trace, _ = run_logged(self.g, DelayModel(0), 1)
        outs = out_lists(self.g)
        for j in range(self.g.n):
            from_j = [line.split(",") for line in trace if line.startswith(f"0,{j},")]
            for kind in KIND_NAMES:
                got = sorted(int(r) for _, _, r, k in from_j if k == kind)
                assert got == sorted([*outs[j], j])

    def test_self_message_never_delayed(self):
        _, trace, _ = run_logged(self.g, DelayModel(6, seed=0), 30)
        for k in range(30):
            selfs = [line for line in lines_at(trace, k) if is_self(line)]
            expected = [f"{k},{j},{j},{kind}" for j in range(self.g.n) for kind in KIND_NAMES]
            assert Counter(selfs) == Counter(expected)

    def test_synchronous_when_tau_zero(self):
        _, trace, sends = run_logged(self.g, DelayModel(0), 5)
        assert all(d == 0 for *_, d in sends)
        assert Counter(trace) == expected_lines(self.g, sends, 5)

    def test_reproducible_delays(self):
        # one batch per tick, laid out sender-major, then kind (ratio before
        # min/max), then receivers ascending: the draws of per-sender calls
        runs = [run_logged(self.g, DelayModel(3, seed=17), 5) for _ in range(2)]
        assert runs[0][1] == runs[1][1] and runs[0][2] == runs[1][2]
        reference = DelayModel(3, seed=17)
        outs = out_lists(self.g)
        expected = []
        for k in range(5):
            for j in range(self.g.n):
                for kind in KIND_NAMES:
                    draws = reference.sample_many(len(outs[j]))
                    expected += [(k, j, r, kind, int(d)) for r, d in zip(outs[j], draws)]
        assert sorted(runs[0][2]) == sorted(expected)

    def test_conservation_every_message_delivered_once(self):
        for seed in range(4):
            g = random_strongly_connected(6 + seed, 0.3, seed=seed)
            for tau_bar in (0, 1, 4):
                dm = DelayModel(tau_bar, seed=3 + seed)
                _, trace, sends = run_logged(g, dm, 20)
                assert Counter(trace) == expected_lines(g, sends, 20)

    def test_bounded_staleness(self):
        # a value consumed while forming state k+1 was produced in [k - tau_bar, k]
        _, trace, sends = run_logged(self.g, DelayModel(3, seed=8), 40)
        assert all(0 <= d <= 3 for *_, d in sends)
        assert Counter(trace) == expected_lines(self.g, sends, 40)

    def test_trace_lines(self):
        _, trace, _ = run_logged(self.g, DelayModel(0), 1)
        assert trace and all(line.startswith("0,") for line in trace)
        fields = trace[0].split(",")
        assert len(fields) == 4 and fields[3] == "RATIO_PAIR"
