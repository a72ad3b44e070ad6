"""End-to-end acceptance gate.

One test per numbered criterion, each at its stated tolerance.  Every test
emits one ``ACCEPTANCE <n> PASS/FAIL`` line; run with ``pytest -s`` to see
the lines as they stream, or rely on the pytest outcome per test otherwise.
"""

import functools

import numpy as np
import pytest

from asyncadmm.admm import SolverConfig, run
from asyncadmm.cli import main as cli_main
from asyncadmm.consensus import ConsensusEngine, run_terminating_consensus
from asyncadmm.digraph import build_weights, diameter, random_strongly_connected
from asyncadmm.netsim import DelayModel
from asyncadmm.oracle import centralized_solution, exact_average
from asyncadmm.problems import generate_ls
from reference import replay, synchronous_ratio_trajectory, unbounded

TRIAL_SIZES = (5, 10, 20)
TRIAL_TAUS = (0, 1, 3, 5)


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num:2d} FAIL  {desc}")
                raise
            print(f"ACCEPTANCE {num:2d} PASS  {desc}")

        return wrapper

    return deco


def pairwise_spread(rows):
    n = rows.shape[0]
    return max(
        float(np.linalg.norm(rows[i] - rows[j])) for i in range(n) for j in range(i + 1, n)
    )


@pytest.fixture(scope="module")
def trial_set():
    """50 seeded strongly connected digraphs cycling n in {5,10,20}, tau in {0,1,3,5}."""
    trials = []
    for t in range(50):
        n = TRIAL_SIZES[t % len(TRIAL_SIZES)]
        tau = TRIAL_TAUS[t % len(TRIAL_TAUS)]
        g = random_strongly_connected(n, 0.3 if n < 20 else 0.2, seed=1000 + t)
        trials.append((t, g, build_weights(g), diameter(g), tau))
    return trials


@pytest.fixture(scope="module")
def solver_runs():
    """The solver runs shared by criteria 5-9, keyed by criterion."""
    runs = {}

    g5 = random_strongly_connected(20, 0.2, seed=(5, 2))
    inst5 = generate_ls(20, 3, 3, seed=(5, 3))
    truth5 = centralized_solution(inst5)
    cfg5 = SolverConfig(rho=1.0, eps=0.01, tau_bar=3, k_max=200, seed=5)
    runs["crit5"] = (run(inst5, g5, cfg5, truth=truth5), cfg5, truth5, inst5)

    g6 = random_strongly_connected(10, 0.3, seed=(21, 2))
    inst6 = generate_ls(10, 3, 3, seed=(21, 3))
    truth6 = centralized_solution(inst6)
    cfg6 = SolverConfig(
        rho=1.0, eps=1e-6, tau_bar=0, k_max=200, seed=21, eps_abs=0, eps_rel=0
    )
    runs["crit6"] = (run(inst6, g6, cfg6, truth=truth6), cfg6, truth6, inst6)

    g7 = random_strongly_connected(20, 0.2, seed=(11, 2))
    inst7 = generate_ls(20, 3, 3, seed=(11, 3))
    truth7 = centralized_solution(inst7)
    for eps in (0.1, 0.01):
        cfg = SolverConfig(
            rho=1.0, eps=eps, tau_bar=3, k_max=200, seed=11, eps_abs=0, eps_rel=0
        )
        runs[f"crit7_eps{eps}"] = (run(inst7, g7, cfg, truth=truth7), cfg, truth7, inst7)

    for tau in (3, 5, 10):
        cfg = SolverConfig(
            rho=1.0, eps=0.1, tau_bar=tau, k_max=40, seed=11, eps_abs=0, eps_rel=0
        )
        runs[f"crit8_tau{tau}"] = (run(inst7, g7, cfg, truth=truth7), cfg, truth7, inst7)

    return runs


@criterion(1, "ratio consensus reaches the exact average on 50 delayed digraphs")
def test_criterion_1_ratio_consensus_correctness(trial_set):
    for t, g, w, _, tau in trial_set:
        rng = np.random.default_rng(2000 + t)
        y0 = rng.standard_normal((g.n, 2))
        engine = ConsensusEngine(g, DelayModel(tau, seed=3000 + t), y0=y0, weights=w, extrema=unbounded(y0.shape))
        engine.advance(2000)
        err = np.max(np.linalg.norm(engine.z - exact_average(y0), axis=1))
        assert err <= 1e-8, f"trial {t}: n={g.n} tau={tau} err={err}"


@criterion(2, "max/min consensus settles within (1+tau)*D steps on every trial")
def test_criterion_2_minmax_finite_time_bound(trial_set):
    for t, g, w, d, tau in trial_set:
        rng = np.random.default_rng(4000 + t)
        vals = rng.standard_normal((g.n, 2))
        # the extrema of the ratio inputs, as a re-seed starts them
        engine = ConsensusEngine(g, DelayModel(tau, seed=5000 + t), y0=vals, weights=w, extrema=(vals, vals))
        engine.advance((1 + tau) * d)
        assert np.array_equal(engine.hi, np.tile(vals.max(axis=0), (g.n, 1))), f"trial {t}"
        assert np.array_equal(engine.lo, np.tile(vals.min(axis=0), (g.n, 1))), f"trial {t}"


@criterion(3, "terminating consensus halts with spread <= eps; checks on round boundaries")
def test_criterion_3_termination_guarantee():
    for gi, n in enumerate((5, 10, 20, 5, 10, 20)):
        g = random_strongly_connected(n, 0.3, seed=6000 + gi)
        w = build_weights(g)
        d = diameter(g)
        rng = np.random.default_rng(6100 + gi)
        y0 = rng.standard_normal((n, 3))
        for tau in (0, 3):
            dm = DelayModel(tau, seed=6200 + gi)
            round_len = (1 + tau) * max(d, 1)
            for eps in (0.1, 0.01, 0.001):
                res = run_terminating_consensus(g, w, dm, y0, eps, step_cap=100_000)
                assert res.converged, f"n={n} tau={tau} eps={eps} hit the cap"
                assert pairwise_spread(res.z) <= eps
                assert res.check_steps
                assert all(c > 0 and c % round_len == 0 for c in res.check_steps)


@criterion(4, "zero-delay simulator equals the power-iteration oracle for 200 steps")
def test_criterion_4_synchronous_equivalence():
    for gi in range(10):
        g = random_strongly_connected(5 + gi, 0.3, seed=7000 + gi)
        w = build_weights(g)
        y0 = np.random.default_rng(7100 + gi).standard_normal((g.n, 2))
        engine = ConsensusEngine(g, DelayModel(0), y0=y0, weights=w, extrema=unbounded(y0.shape))
        ref = synchronous_ratio_trajectory(g, y0, 200)
        for k in range(201):
            assert np.abs(engine.z - ref[k]).max() <= 1e-12, f"graph {gi}, step {k}"
            engine.advance(1)


@criterion(5, "desk-scale solver accuracy: rel objective <= 1e-2, node error <= 0.1")
def test_criterion_5_admm_optimality(solver_runs):
    record, _, truth, _ = solver_runs["crit5"]
    rel = abs(record.final_objective - truth.f_star) / truth.f_star
    assert rel <= 1e-2, f"relative objective error {rel}"
    assert record.max_node_err[-1] <= 0.1, f"max node error {record.max_node_err[-1]}"


@criterion(6, "O(1/k) rate: k*gap <= 1.05*theta on k in [10,200], gap >= -1e-8")
def test_criterion_6_rate_bound(solver_runs):
    record = solver_runs["crit6"][0]
    gaps = np.array(record.gap)
    assert len(gaps) == 200
    assert gaps.min() >= -1e-8, f"gap dipped to {gaps.min()}"
    ks = np.arange(1, 201)
    windowed = (ks * gaps)[9:]
    assert windowed.max() <= 1.05 * record.theta, (
        f"k*gap peaked at {windowed.max()} vs 1.05*theta={1.05 * record.theta}"
    )


@criterion(7, "smaller consensus tolerance gives at most the objective error of the larger")
def test_criterion_7_eps_sensitivity(solver_runs):
    errors = {}
    for eps in (0.1, 0.01):
        record, _, truth, _ = solver_runs[f"crit7_eps{eps}"]
        errors[eps] = abs(record.final_objective - truth.f_star) / truth.f_star
    assert errors[0.01] <= errors[0.1], f"errors: {errors}"


@criterion(8, "mean consensus steps per iteration nondecreasing across tau 3 -> 5 -> 10")
def test_criterion_8_tau_sensitivity(solver_runs):
    means = []
    for tau in (3, 5, 10):
        record, _, _, _ = solver_runs[f"crit8_tau{tau}"]
        means.append(sum(record.consensus_steps) / record.iterations)
    assert means == sorted(means), f"means: {means}"
    print(
        f"  measured mean steps (n=20): {[round(m, 1) for m in means]}; "
        "paper's 600-node reference: 9/13/23 at eps=0.1, the first check boundary (1+tau)*D "
        "plus one at D=2, and cap 1000 at eps=0.01; a correct check cannot exit at the first "
        "boundary, where nodes can agree only on extrema of the tick-0 snapshot y0 (spread "
        "9.6-31.1 at n=600), so this implementation's floor 2*(1+tau)*D is 16/24/44 at D=2; "
        "no tested mode caps at eps=0.01, as the spread at the second boundary is at most 2.5e-4"
    )


@criterion(9, "dual-update identity (bitwise) and z-feasibility hold on every run")
def test_criterion_9_invariants(solver_runs):
    for name, (record, cfg, _, inst) in solver_runs.items():
        # the replay applies the identity; its x then reproduces the record bit for bit
        replay(inst, record)
        cap_events = 0
        for k in range(1, record.iterations + 1):
            if record.capped[k - 1]:
                cap_events += 1
                continue
            spread = pairwise_spread(record.z_hist[k])
            assert spread <= cfg.eps, f"{name} iteration {k}: spread {spread} > {cfg.eps}"
        assert cap_events == record.capped_iterations


@criterion(10, "identical config and seed produce byte-identical CSVs")
def test_criterion_10_determinism(tmp_path):
    args = [
        "run", "--nodes", "10", "--edge-prob", "0.3", "--dim", "3", "--epsilon", "0.05",
        "--tau-bar", "3", "--kmax", "25", "--seed", "13",
    ]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(args + ["--out", str(out_a)]) == 0
    assert cli_main(args + ["--out", str(out_b)]) == 0
    assert (out_a / "run.csv").read_bytes() == (out_b / "run.csv").read_bytes()
    assert (out_a / "summary.csv").read_bytes() == (out_b / "summary.csv").read_bytes()
