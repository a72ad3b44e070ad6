import numpy as np
import pytest

from asyncadmm.consensus import ConsensusEngine
from asyncadmm.digraph import Digraph, build_weights, random_strongly_connected
from asyncadmm.netsim import DelayModel
from asyncadmm.oracle import (
    GroundTruth,
    SingularProblemError,
    centralized_solution,
    exact_average,
)
from asyncadmm.problems import LeastSquaresInstance, generate_ls
from reference import synchronous_ratio_trajectory


class TestCentralizedSolution:
    def test_identity_blocks_recover_common_target(self):
        n, p = 5, 3
        c = np.array([1.0, -2.0, 0.5])
        inst = LeastSquaresInstance(a=np.tile(np.eye(p), (n, 1, 1)), b=np.tile(c, (n, 1)))
        truth = centralized_solution(inst)
        assert np.allclose(truth.x_star, c)
        assert abs(truth.f_star) < 1e-20

    def test_single_node_is_ordinary_least_squares(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((6, 3))
        b = rng.standard_normal(6)
        inst = LeastSquaresInstance(a=a[None], b=b[None])
        truth = centralized_solution(inst)
        expected, *_ = np.linalg.lstsq(a, b, rcond=None)
        assert np.allclose(truth.x_star, expected)

    def test_dual_blocks_sum_to_zero(self):
        inst = generate_ls(8, 3, 3, seed=1)
        truth = centralized_solution(inst)
        assert np.abs(truth.lam_star.sum(axis=0)).max() < 1e-8

    def test_gradient_vanishes_at_optimum(self):
        inst = generate_ls(7, 4, 4, seed=2)
        truth = centralized_solution(inst)
        grad = sum(a.T @ (a @ truth.x_star - b) for a, b in zip(inst.a, inst.b))
        assert np.linalg.norm(grad) < 1e-8

    def test_minimality_under_perturbations(self):
        inst = generate_ls(6, 3, 3, seed=3)
        truth = centralized_solution(inst)
        rng = np.random.default_rng(4)
        x_rows = np.tile(truth.x_star, (inst.n, 1))
        for _ in range(1000):
            delta = rng.standard_normal(3)
            delta *= rng.uniform(0, 1.0) / np.linalg.norm(delta)
            perturbed = inst.objective(x_rows + delta)
            assert perturbed >= truth.f_star - 1e-12

    def test_singular_aggregate_reported(self):
        inst = LeastSquaresInstance(a=np.zeros((3, 2, 2)), b=np.ones((3, 2)))
        with pytest.raises(SingularProblemError):
            centralized_solution(inst)


def per_node_centralized(instance):
    """Reference: the centralized optimum with one loop iteration per node."""
    p = instance.p
    h = np.zeros((p, p))
    r = np.zeros(p)
    for i in range(instance.n):
        h += instance.a[i].T @ instance.a[i]
        r += instance.a[i].T @ instance.b[i]
    x_star = np.linalg.solve(h, r)
    lam_star = np.empty((instance.n, p))
    f_star = 0.0
    for i in range(instance.n):
        res = instance.a[i] @ x_star - instance.b[i]
        lam_star[i] = -instance.a[i].T @ res
        f_star += 0.5 * float(res @ res)
    return GroundTruth(x_star=x_star, f_star=f_star, lam_star=lam_star)


class TestCentralizedMatchesPerNode:
    @pytest.mark.parametrize(
        "n, q, p", [(1, 3, 3), (1, 5, 3), (20, 3, 3), (20, 2, 4), (600, 3, 3), (600, 5, 3)]
    )
    def test_bitwise(self, n, q, p):
        inst = generate_ls(n, p, q, seed=(n, q, p))
        got, want = centralized_solution(inst), per_node_centralized(inst)
        assert got.x_star.tobytes() == want.x_star.tobytes()
        assert got.lam_star.tobytes() == want.lam_star.tobytes()
        assert type(got.f_star) is float and got.f_star == want.f_star


class TestExactAverage:
    def test_two_vectors(self):
        assert np.array_equal(exact_average([[1.0], [3.0]]), [2.0])

    def test_all_equal(self):
        rows = np.tile([4.0, -1.0], (7, 1))
        assert np.array_equal(exact_average(rows), [4.0, -1.0])

    def test_permutation_invariant(self):
        rng = np.random.default_rng(5)
        rows = rng.standard_normal((30, 3))
        shuffled = rows[rng.permutation(30)]
        assert np.allclose(exact_average(rows), exact_average(shuffled), atol=1e-14)

    def test_compensation_beats_naive_on_adversarial_sum(self):
        rows = np.array([[1e16], [1.0], [-1e16], [1.0]])
        assert exact_average(rows)[0] == 0.5

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            exact_average(np.empty((0, 2)))


def row_loop_average(vectors):
    """Reference: the Neumaier recurrence as one numpy op chain per row."""
    arr = np.asarray(vectors, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    total = np.zeros(arr.shape[1:])
    comp = np.zeros_like(total)
    for row in arr:
        t = total + row
        comp += np.where(
            np.abs(total) >= np.abs(row), (total - t) + row, (row - t) + total
        )
        total = t
    return (total + comp) / arr.shape[0]


class TestExactAverageMatchesRowLoop:
    def assert_same_bytes(self, vectors):
        got, want = exact_average(vectors), row_loop_average(vectors)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(1, 3), (1, 1), (2, 1), (20, 3), (600, 3), (5, 8)])
    def test_standard_normal_rows(self, shape):
        self.assert_same_bytes(np.random.default_rng(sum(shape)).standard_normal(shape))

    @pytest.mark.parametrize("n", [1, 2, 17])
    def test_one_dimensional_input(self, n):
        self.assert_same_bytes(np.random.default_rng(n).standard_normal(n))

    @pytest.mark.parametrize("n", [1, 2, 17])
    def test_signed_zero_columns(self, n):
        normal = np.random.default_rng(n).standard_normal(n)
        starts_with_negative_zero = np.concatenate([[-0.0], normal[1:]])
        self.assert_same_bytes(np.full((n, 1), -0.0))
        self.assert_same_bytes(np.column_stack([np.full(n, -0.0), starts_with_negative_zero]))

    def test_heavy_cancellation(self):
        rng = np.random.default_rng(11)
        big = rng.choice([-1.0, 1.0], size=(200, 3)) * 1e16
        rows = np.concatenate([big, -big[::-1], rng.standard_normal((200, 3))])
        self.assert_same_bytes(rows[rng.permutation(len(rows))])
        self.assert_same_bytes(np.array([[1e16], [1.0], [-1e16], [1.0]]))

    @pytest.mark.parametrize("seed", range(5))
    def test_magnitudes_from_1e_minus8_to_1e8(self, seed):
        rng = np.random.default_rng(seed)
        shape = (300, 4)
        rows = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, shape)
        self.assert_same_bytes(rows)


class TestSynchronousRatioOracle:
    def test_k_zero_is_initial_value(self):
        g = random_strongly_connected(6, 0.3, seed=6)
        y0 = np.random.default_rng(7).standard_normal((6, 2))
        assert np.array_equal(synchronous_ratio_trajectory(g, y0, 0)[0], y0)

    def test_three_cycle_limit_is_average(self):
        g = Digraph(3, frozenset({(1, 0), (2, 1), (0, 2)}))
        y0 = np.array([[1.0], [2.0], [6.0]])
        z = synchronous_ratio_trajectory(g, y0, 400)[400]
        assert np.abs(z - 3.0).max() < 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_simulator_every_step(self, seed):
        g = random_strongly_connected(7 + seed, 0.3, seed=seed)
        w = build_weights(g)
        y0 = np.random.default_rng(seed).standard_normal((g.n, 2))
        engine = ConsensusEngine(g, DelayModel(0), y0=y0, weights=w)
        ref = synchronous_ratio_trajectory(g, y0, 60)
        for k in range(61):
            assert np.array_equal(engine.z, ref[k])
            engine.advance(1)

    def test_rejects_negative_k(self):
        g = random_strongly_connected(4, 0.2, seed=0)
        with pytest.raises(ValueError):
            synchronous_ratio_trajectory(g, np.zeros((4, 1)), -1)
