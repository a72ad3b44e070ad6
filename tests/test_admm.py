import dataclasses
import re

import numpy as np
import pytest

from asyncadmm import cli
from asyncadmm.admm import RUN_COLUMNS, RunRecord, SolverConfig, run, stopping_criterion, x_update
from asyncadmm.consensus import run_terminating_consensus
from asyncadmm.digraph import Digraph, build_weights, diameter, random_strongly_connected
from asyncadmm.netsim import DelayModel
from asyncadmm.oracle import GroundTruth, centralized_solution, exact_average
from asyncadmm.problems import LeastSquaresInstance, generate_ls
from reference import replay


def seeded_problem(n=10, p=3, graph_seed=1, inst_seed=2, edge_prob=0.3):
    g = random_strongly_connected(n, edge_prob, seed=graph_seed)
    inst = generate_ls(n, p, p, seed=inst_seed)
    return g, inst


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(rho=0.0)
        with pytest.raises(ValueError):
            SolverConfig(eps=-0.1)
        with pytest.raises(ValueError):
            SolverConfig(k_max=0)
        with pytest.raises(ValueError):
            SolverConfig(tau_bar=-1)

    @pytest.mark.parametrize("name", ["rho", "eps", "eps_abs", "eps_rel"])
    def test_rejects_nan(self, name):
        # NaN fails every comparison, so a "<= 0" test lets it through
        with pytest.raises(ValueError, match=rf"^{name} must be >=? 0, got nan$"):
            SolverConfig(**{name: float("nan")})

    def test_rejects_infinite_rho(self):
        # inf passes "> 0"; the prox would then solve with NaN off the diagonal
        with pytest.raises(ValueError, match=r"^rho must be finite, got inf$"):
            SolverConfig(rho=float("inf"))

    def test_rejects_non_integer_tau_bar(self):
        # it would otherwise run at tau_bar=2
        with pytest.raises(ValueError, match="tau_bar must be an integer"):
            SolverConfig(tau_bar=2.5)
        assert SolverConfig(tau_bar=np.int32(2)).delay_model().tau_bar == 2

    @pytest.mark.parametrize("name", ["k_max", "step_cap"])
    def test_rejects_non_integer_counts(self, name):
        # run would otherwise fail later with a bare TypeError from range()
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, got 2\.5$"):
            SolverConfig(**{name: 2.5})
        assert getattr(SolverConfig(**{name: np.int32(2)}), name) == 2

    @pytest.mark.parametrize(
        "seed,message",
        [(-1, "must be >= 0, got -1"), (2.5, "must be an integer, got 2.5"), ("3", "must be an integer, got '3'")],
    )
    def test_rejects_bad_seed(self, seed, message):
        # numpy would reject -1 only at the first draw, 2.5 with a TypeError, and run "3"
        with pytest.raises(ValueError, match=rf"^seed {re.escape(message)}$"):
            SolverConfig(seed=seed)
        assert SolverConfig(seed=np.int64(3)).seed == 3

    def test_delay_model_is_zero_for_tau_zero(self):
        assert np.all(SolverConfig(tau_bar=0).delay_model().sample_many(1000) == 0)
        draws = SolverConfig(tau_bar=4).delay_model().sample_many(1000)
        assert draws.min() == 0 and draws.max() == 4


def replicated(a, b, n=2) -> LeastSquaresInstance:
    """``n`` nodes that all hold ``f(x) = 0.5 * ||A x - b||^2``."""
    return LeastSquaresInstance(a=np.tile(a, (n, 1, 1)), b=np.tile(b, (n, 1)))


class TestXUpdate:
    def test_identity_zero_data(self):
        problem = replicated(np.eye(3), np.zeros(3))
        x = x_update(problem, np.zeros((2, 3)), np.zeros((2, 3)), rho=1.0)
        assert np.allclose(x, 0.0)

    def test_identity_solves_two_x_equals_b(self):
        problem = replicated(np.eye(3), np.array([2.0, 2.0, 2.0]))
        x = x_update(problem, np.zeros((2, 3)), np.zeros((2, 3)), rho=1.0)
        assert np.allclose(x, 1.0)

    def test_pure_penalty_completing_the_square(self):
        # zero quadratic: minimizer of lam^T x + rho/2 ||x - z||^2 is z - lam/rho
        problem = replicated(np.zeros((3, 3)), np.zeros(3))
        z = np.array([[1.0, -2.0, 0.5], [0.25, 3.0, -1.0]])
        rho = 2.0
        lam = rho * z
        x = x_update(problem, lam, z, rho)
        assert np.allclose(x, 0.0, atol=1e-14)

    def test_names_a_rho_that_overflows_the_target(self):
        problem = replicated(np.eye(3), np.zeros(3))
        with pytest.raises(ValueError, match=r"^rho=1e-320 overflows the prox target z - lam / rho$"):
            x_update(problem, np.ones((2, 3)), np.zeros((2, 3)), rho=1e-320)


class TestZUpdate:
    """The z-update: one terminating-consensus instance seeded with ``x + lam / rho``."""

    def test_identical_inputs_terminate_at_second_boundary(self):
        g, _ = seeded_problem(n=6)
        w = build_weights(g)
        dm = DelayModel(2, seed=3)
        y0 = np.tile([1.0, 2.0, 3.0], (6, 1))
        res = run_terminating_consensus(g, w, dm, y0, eps=1e-9, step_cap=100_000)
        assert res.converged and res.steps == 2 * (1 + 2) * diameter(g)
        assert np.allclose(res.z, y0, rtol=1e-12)

    def test_estimates_within_eps_of_exact_average(self):
        g, _ = seeded_problem(n=12)
        w = build_weights(g)
        dm = DelayModel(3, seed=4)
        y0 = np.random.default_rng(5).standard_normal((12, 3))
        eps = 0.05
        res = run_terminating_consensus(g, w, dm, y0, eps=eps, step_cap=100_000)
        assert res.converged
        assert np.max(np.linalg.norm(res.z - exact_average(y0), axis=1)) <= eps

    def test_cap_exhaustion_reports_false(self):
        g, _ = seeded_problem(n=10)
        w = build_weights(g)
        dm = DelayModel(3, seed=6)
        y0 = np.random.default_rng(7).standard_normal((10, 3))
        res = run_terminating_consensus(g, w, dm, y0, eps=1e-13, step_cap=30)
        assert not res.converged and res.steps == 30


class TestStoppingCriterion:
    def test_feasible_and_stationary(self):
        x = np.ones((3, 2))
        lam = np.ones((3, 2))
        assert stopping_criterion(x, x, lam, 0.0, 0.0, eps_abs=1e-4, eps_rel=1e-2)

    def test_large_primal_residual_fails(self):
        x = np.ones((3, 2)) * 100
        z = np.zeros((3, 2))
        primal = float(np.linalg.norm(x - z))
        assert not stopping_criterion(x, z, z, primal, 0.0, eps_abs=1e-4, eps_rel=1e-2)

    def test_boundary_is_inclusive(self):
        # ||x - z|| exactly equals sqrt(total) * eps_abs with eps_rel = 0
        x = np.zeros((2, 2))
        z = np.zeros((2, 2))
        x[0, 0] = 0.5  # norm = 0.5 = sqrt(4) * 0.25
        lam = np.zeros((2, 2))
        assert stopping_criterion(x, z, lam, float(np.linalg.norm(x - z)), 0.0, eps_abs=0.25, eps_rel=0.0)
        x[0, 0] = np.nextafter(0.5, 1.0)
        assert not stopping_criterion(x, z, lam, float(np.linalg.norm(x - z)), 0.0, eps_abs=0.25, eps_rel=0.0)


class TestRun:
    def test_single_node_reduces_to_centralized(self):
        g = Digraph(1, frozenset())
        inst = generate_ls(1, 2, 4, seed=8)
        truth = centralized_solution(inst)
        cfg = SolverConfig(rho=1.0, eps=1e-8, tau_bar=0, k_max=300, seed=9, eps_abs=0, eps_rel=0)
        rec = run(inst, g, cfg)
        x, _ = replay(inst, rec)
        assert np.linalg.norm(x[-1][0] - truth.x_star) <= 1e-6

    def test_synchronous_tight_eps_reaches_oracle_optimum(self):
        g, inst = seeded_problem(n=10, graph_seed=10, inst_seed=11)
        truth = centralized_solution(inst)
        cfg = SolverConfig(
            rho=1.0, eps=1e-10, tau_bar=0, k_max=250, seed=12, eps_abs=0, eps_rel=0
        )
        rec = run(inst, g, cfg, truth=truth)
        assert abs(rec.final_objective - truth.f_star) <= 1e-6

    def test_desk_scale_accuracy(self):
        g, inst = seeded_problem(n=20, p=3, graph_seed=13, inst_seed=14, edge_prob=0.2)
        truth = centralized_solution(inst)
        cfg = SolverConfig(rho=1.0, eps=0.01, tau_bar=3, k_max=200, seed=15)
        rec = run(inst, g, cfg, truth=truth)
        rel = abs(rec.final_objective - truth.f_star) / truth.f_star
        assert rel <= 1e-2

    def test_dual_update_identity_bitwise(self):
        # the replay applies the identity; its x then reproduces the record bit for bit
        g, inst = seeded_problem(n=8, graph_seed=16, inst_seed=17)
        cfg = SolverConfig(rho=1.3, eps=0.05, tau_bar=2, k_max=25, seed=18)
        replay(inst, run(inst, g, cfg))

    def test_z_feasibility_each_iteration(self):
        g, inst = seeded_problem(n=10, graph_seed=19, inst_seed=20)
        cfg = SolverConfig(rho=1.0, eps=0.02, tau_bar=3, k_max=40, seed=21)
        rec = run(inst, g, cfg)
        replay(inst, rec)
        for k in range(1, rec.iterations + 1):
            if rec.capped[k - 1]:
                continue
            z = rec.z_hist[k]
            spread = max(
                float(np.linalg.norm(z[i] - z[j]))
                for i in range(g.n)
                for j in range(i + 1, g.n)
            )
            assert spread <= cfg.eps

    def test_deterministic_records(self):
        g, inst = seeded_problem(n=8, graph_seed=22, inst_seed=23)
        cfg = SolverConfig(rho=1.0, eps=0.05, tau_bar=2, k_max=30, seed=24)
        a = run(inst, g, cfg)
        b = run(inst, g, cfg)
        assert a.objective == b.objective
        assert a.consensus_steps == b.consensus_steps
        assert np.array_equal(replay(inst, a)[0][-1], replay(inst, b)[0][-1])

    @pytest.mark.parametrize("exact_averaging", [False, True])
    def test_record_keeps_no_x_or_lam_iterates(self, exact_averaging):
        # z_0 .. z_K, lam0 and the truth's lam_star, each n x p, and its x_star (p)
        g, inst = seeded_problem(n=8, graph_seed=38, inst_seed=39)
        cfg = SolverConfig(rho=1.0, eps=0.05, tau_bar=2, k_max=30, seed=40, eps_abs=0, eps_rel=0)
        rec = run(inst, g, cfg, exact_averaging=exact_averaging)
        arrays = {}

        def collect(value):
            if isinstance(value, np.ndarray):
                arrays[id(value)] = value
            elif isinstance(value, list):
                for item in value:
                    collect(item)
            elif dataclasses.is_dataclass(value):
                for f in dataclasses.fields(value):
                    collect(getattr(value, f.name))

        collect(rec)
        assert rec.iterations == 30
        floats = sum(a.size for a in arrays.values())
        assert floats <= (rec.iterations + 3) * g.n * inst.p + inst.p
        replay(inst, rec)  # the record still holds what x and lam are rebuilt from

    def test_exact_averaging_record_keeps_one_row_per_iteration(self):
        g, inst = seeded_problem(n=12, graph_seed=41, inst_seed=42)
        cfg = SolverConfig(rho=1.0, k_max=25, seed=43, eps_abs=0, eps_rel=0)
        rec = run(inst, g, cfg, exact_averaging=True)
        assert rec.iterations == 25
        for z in rec.z_hist[1:]:
            assert z.shape == (g.n, inst.p)
            assert z.strides[0] == 0
            assert not z.flags.writeable
            assert z.tobytes() == np.tile(z[0], (g.n, 1)).tobytes()
        replay(inst, rec)

    def test_cap_events_recorded_but_run_continues(self):
        g, inst = seeded_problem(n=10, graph_seed=25, inst_seed=26)
        cfg = SolverConfig(rho=1.0, eps=1e-12, tau_bar=3, k_max=8, seed=27, step_cap=20)
        rec = run(inst, g, cfg)
        assert rec.iterations == 8
        assert rec.capped_iterations == 8
        assert all(np.isfinite(v) for v in rec.objective)

    def test_exact_averaging_matches_tiny_eps_synchronous(self):
        g, inst = seeded_problem(n=8, graph_seed=28, inst_seed=29)
        truth = centralized_solution(inst)
        base = SolverConfig(rho=1.0, eps=1e-12, tau_bar=0, k_max=40, seed=30, eps_abs=0, eps_rel=0)
        approx = run(inst, g, base, truth=truth)
        ideal = run(inst, g, base, exact_averaging=True, truth=truth)
        assert ideal.consensus_steps == [0] * ideal.iterations
        gaps = np.abs(np.array(approx.gap) - np.array(ideal.gap))
        assert gaps.max() <= 1e-9

    def test_rejects_mismatched_problem(self):
        g, _ = seeded_problem(n=8)
        inst = generate_ls(9, 3, 3, seed=31)
        with pytest.raises(ValueError):
            run(inst, g, SolverConfig())

    def test_csv_round_trip_format(self, tmp_path):
        g, inst = seeded_problem(n=6, graph_seed=32, inst_seed=33)
        cfg = SolverConfig(rho=1.0, eps=0.05, tau_bar=1, k_max=10, seed=34)
        rec = run(inst, g, cfg)
        path = tmp_path / "run.csv"
        cli._write_csv(path, RUN_COLUMNS, rec.rows())
        lines = path.read_text().splitlines()
        assert lines[0] == "k,objective,primal_res,dual_res,consensus_steps,gap,max_node_err"
        assert len(lines) == rec.iterations + 1
        first = lines[1].split(",")
        assert int(first[0]) == 1
        assert float(first[1]) == rec.objective[0]


@pytest.mark.parametrize("final,f_star,want", [(1.5, 1.0, 0.5), (0.5, -2.0, 1.25), (0.25, 0.0, np.inf), (0.0, 0.0, 0.0)])
def test_relative_error(final, f_star, want):
    # at f* == 0 no scale exists: a final objective off it is infinitely far, one on it is not off
    truth = GroundTruth(x_star=np.zeros(1), f_star=f_star, lam_star=np.zeros((1, 1)))
    record = RunRecord(config=SolverConfig(), truth=truth, lam0=np.zeros((1, 1)), objective=[final])
    assert record.relative_error == want


class TestRateDiagnostics:
    def setup_method(self):
        self.g, self.inst = seeded_problem(n=10, graph_seed=35, inst_seed=36)
        self.truth = centralized_solution(self.inst)
        self.cfg = SolverConfig(
            rho=1.0, eps=1e-6, tau_bar=0, k_max=120, seed=37, eps_abs=0, eps_rel=0
        )
        self.rec = run(self.inst, self.g, self.cfg, truth=self.truth)

    def test_first_gap_uses_first_iterate(self):
        x1, z1 = replay(self.inst, self.rec)[0][1], self.rec.z_hist[1]
        manual = (
            self.inst.objective(x1)
            + float(np.sum(self.truth.lam_star * (x1 - z1)))
            - self.truth.f_star
        )
        assert np.isclose(self.rec.gap[0], manual, rtol=1e-12)

    def test_gap_matches_online_record(self):
        # the ergodic averages rebuilt from the replayed iterates
        ks = np.arange(1, self.rec.iterations + 1)[:, None, None]
        x_bar = np.cumsum(replay(self.inst, self.rec)[0][1:], axis=0) / ks
        z_bar = np.cumsum(self.rec.z_hist[1:], axis=0) / ks
        rebuilt = [
            self.inst.objective(xb) + float(np.sum(self.truth.lam_star * (xb - zb))) - self.truth.f_star
            for xb, zb in zip(x_bar, z_bar)
        ]
        assert np.allclose(rebuilt, np.array(self.rec.gap), rtol=1e-10)

    def test_gap_nonnegative(self):
        assert min(self.rec.gap) >= -1e-8

    def test_k_times_gap_bounded_by_theta(self):
        gaps = np.array(self.rec.gap)
        ks = np.arange(1, len(gaps) + 1)
        assert np.all((ks * gaps)[9:] <= 1.05 * self.rec.theta)

    def test_theta_formula(self):
        rec, truth, rho = self.rec, self.truth, self.cfg.rho
        x_star_rows = np.tile(truth.x_star, (self.g.n, 1))
        expected = (
            float(np.linalg.norm(truth.lam_star - rec.lam0)) ** 2 / (2.0 * rho)
            + 0.5 * rho * float(np.linalg.norm(x_star_rows - rec.z_hist[0])) ** 2
        )
        assert rec.theta == expected
