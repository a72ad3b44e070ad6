import numpy as np
import pytest

from asyncadmm.problems import LeastSquaresInstance, generate_ls


def single_node(a, b) -> LeastSquaresInstance:
    """The one-node instance holding ``f(x) = 0.5 * ||A x - b||^2``."""
    return LeastSquaresInstance(a=np.asarray(a, dtype=float)[None], b=np.asarray(b, dtype=float)[None])


class TestLsProx:
    """Hand cases of the ADMM x-update ``(A^T A + rho I) x = A^T b - lam + rho z``."""

    def test_identity_system(self):
        x = single_node(np.eye(2), [2.0, 2.0]).prox(np.zeros((1, 2)), rho=1.0)
        assert np.allclose(x, [[1.0, 1.0]])

    def test_zero_matrix_reduces_to_shifted_target(self):
        lam = np.array([0.5, -1.0])
        z = np.array([2.0, 3.0])
        x = single_node(np.zeros((2, 2)), np.zeros(2)).prox((z - lam / 2.0)[None], rho=2.0)
        assert np.allclose(x[0], z - lam / 2.0)

    def test_normal_equation_residual(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 3))
        b = rng.standard_normal(4)
        lam = rng.standard_normal(3)
        z = rng.standard_normal(3)
        x = single_node(a, b).prox((z - lam / 0.7)[None], rho=0.7)[0]
        lhs = (a.T @ a + 0.7 * np.eye(3)) @ x
        rhs = a.T @ b - lam + 0.7 * z
        assert np.linalg.norm(lhs - rhs) <= 1e-10

    def test_rejects_nonpositive_rho(self):
        with pytest.raises(ValueError):
            single_node(np.eye(2), np.zeros(2)).prox(np.zeros((1, 2)), rho=0.0)
        with pytest.raises(ValueError, match="rho must be > 0, got nan"):
            single_node(np.eye(2), np.zeros(2)).prox(np.zeros((1, 2)), rho=float("nan"))

    def test_rejects_infinite_rho(self):
        with pytest.raises(ValueError, match="rho must be finite, got inf"):
            single_node(np.eye(2), np.zeros(2)).prox(np.zeros((1, 2)), rho=float("inf"))

    def test_names_a_rho_that_overflows(self):
        # finite, but rho * targets is not: named here, not later as a bad consensus input
        with pytest.raises(ValueError, match=r"^rho=1e\+308 overflows the prox system$"):
            single_node(np.eye(2), np.zeros(2)).prox(np.full((1, 2), 10.0), rho=1e308)

    def test_names_a_rho_whose_solution_overflows(self):
        # both sides finite; x_1 = 1.5e308 + 1e308 / (2 + rho) is not
        inst = LeastSquaresInstance(a=np.ones((1, 1, 2)), b=np.full((1, 1), 1e308))
        with pytest.raises(ValueError, match=r"^rho=0\.001 overflows the prox output$"):
            inst.prox(np.array([[1.5e308, -1.5e308]]), rho=1e-3)

    def test_names_a_rho_that_leaves_the_system_singular(self):
        # 1 + 1e-300 == 1: the rank-one block's system is exactly [[1, 1], [1, 1]]
        with pytest.raises(ValueError, match=r"^rho=1e-300 leaves the prox system singular"):
            LeastSquaresInstance(a=np.ones((1, 1, 2)), b=np.ones((1, 1))).prox(np.zeros((1, 2)), 1e-300)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_nonfinite_targets(self, bad):
        with pytest.raises(ValueError, match="^prox targets must be finite$"):
            single_node(np.eye(2), np.zeros(2)).prox(np.array([[0.0, bad]]), rho=1.0)


class TestLeastSquaresCost:
    """One node's cost ``f(x) = 0.5 * ||A x - b||^2`` and its prox, via a one-node instance."""

    def setup_method(self):
        rng = np.random.default_rng(3)
        self.a = rng.standard_normal((5, 3))
        self.b = rng.standard_normal(5)
        self.inst = single_node(self.a, self.b)

    def f(self, x):
        return self.inst.objective(x[None])

    def gradient(self, x):
        return self.a.T @ (self.a @ x - self.b)

    def test_eval_includes_half_factor(self):
        assert single_node(np.eye(2), [2.0, 0.0]).objective(np.zeros((1, 2))) == 2.0

    def test_prox_first_order_optimality(self):
        # directional finite differences of f(x) + rho/2 ||x - t||^2 at the
        # prox output must be nonnegative up to discretization error
        rng = np.random.default_rng(5)
        for _ in range(10):
            target = rng.standard_normal(3)
            rho = float(rng.uniform(0.2, 3.0))
            x = self.inst.prox(target[None], rho)[0]

            def penalized(v):
                return self.f(v) + 0.5 * rho * float((v - target) @ (v - target))

            base = penalized(x)
            h = 1e-6
            for _ in range(12):
                u = rng.standard_normal(3)
                u /= np.linalg.norm(u)
                assert (penalized(x + h * u) - base) / h >= -1e-6

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal(3)
        grad = self.gradient(x)
        h = 1e-6
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            fd = (self.f(x + e) - self.f(x - e)) / (2 * h)
            assert abs(fd - grad[i]) <= 1e-6 * max(1.0, abs(grad[i]))

    def test_subgradient_optimality_residual(self):
        rng = np.random.default_rng(7)
        target = rng.standard_normal(3)
        rho = 0.9
        x = self.inst.prox(target[None], rho)[0]
        residual = self.gradient(x) + rho * (x - target)
        assert np.linalg.norm(residual) <= 1e-8

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            single_node(np.eye(3), np.zeros(2))


def per_node_prox(inst, targets, rho):
    """The prox as one dense solve per node."""
    return np.stack([
        np.linalg.solve(
            inst.a[i].T @ inst.a[i] + rho * np.eye(inst.p), inst.a[i].T @ inst.b[i] + rho * targets[i]
        )
        for i in range(inst.n)
    ])


def per_node_objective(inst, x_rows):
    """The objective as a sequential sum of per-node terms, in node order."""
    total = 0.0
    for i in range(inst.n):
        r = inst.a[i] @ x_rows[i] - inst.b[i]
        total += 0.5 * float(r @ r)
    return total


class TestStackedMatchesPerNode:
    @pytest.mark.parametrize("n", [1, 20, 600])
    @pytest.mark.parametrize("q, p", [(3, 3), (5, 3), (2, 4)])
    def test_prox_and_objective_bitwise(self, n, q, p):
        inst = generate_ls(n, p, q, seed=(n, q, p))
        rng = np.random.default_rng((n, q, p))
        targets = rng.standard_normal((n, p))
        for rho in (0.3, 1.0, 7.0):
            assert np.array_equal(inst.prox(targets, rho), per_node_prox(inst, targets, rho))
        assert inst.objective(targets) == per_node_objective(inst, targets)


class TestGenerate:
    def test_benchmark_scale_shapes(self):
        inst = generate_ls(600, 3, 3, seed=0)
        assert inst.a.shape == (600, 3, 3) and inst.b.shape == (600, 3)

    def test_scalar_instance(self):
        inst = generate_ls(2, 1, 1, seed=0)
        assert inst.a.shape == (2, 1, 1) and inst.b.shape == (2, 1)

    def test_deterministic(self):
        a = generate_ls(5, 3, 4, seed=11)
        b = generate_ls(5, 3, 4, seed=11)
        assert np.array_equal(a.a, b.a) and np.array_equal(a.b, b.b)

    def test_entries_look_standard_normal(self):
        inst = generate_ls(40, 4, 4, seed=1)
        flat = np.concatenate([inst.a.ravel(), inst.b.ravel()])
        assert abs(flat.mean()) < 0.1
        assert abs(flat.std() - 1.0) < 0.1

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            generate_ls(0, 3, 3, seed=0)

    def test_objective_sums_node_costs(self):
        inst = generate_ls(4, 2, 2, seed=2)
        x_rows = np.random.default_rng(3).standard_normal((4, 2))
        assert inst.objective(x_rows) == per_node_objective(inst, x_rows)


class TestInstanceIO:
    def test_instance_validates_shapes(self):
        with pytest.raises(ValueError):
            LeastSquaresInstance(a=np.zeros((2, 3, 3)), b=np.zeros((3, 3)))
        # a 2-D a, a 3-D b
        for a_shape, b_shape in (((3, 3), (3, 3)), ((2, 3, 3), (2, 3, 1))):
            with pytest.raises(ValueError, match=r"^expected a \(n,q,p\) and b \(n,q\)"):
                LeastSquaresInstance(a=np.zeros(a_shape), b=np.zeros(b_shape))
