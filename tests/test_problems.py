import numpy as np
import pytest

from asyncadmm.problems import (
    CostFunction,
    LeastSquaresCost,
    LeastSquaresInstance,
    generate_ls,
    load_instance,
    save_instance,
)


class TestLsProx:
    """Hand cases of the ADMM x-update ``(A^T A + rho I) x = A^T b - lam + rho z``."""

    def test_identity_system(self):
        x = LeastSquaresCost(np.eye(2), np.array([2.0, 2.0])).prox(np.zeros(2), rho=1.0)
        assert np.allclose(x, [1.0, 1.0])

    def test_zero_matrix_reduces_to_shifted_target(self):
        lam = np.array([0.5, -1.0])
        z = np.array([2.0, 3.0])
        x = LeastSquaresCost(np.zeros((2, 2)), np.zeros(2)).prox(z - lam / 2.0, rho=2.0)
        assert np.allclose(x, z - lam / 2.0)

    def test_normal_equation_residual(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 3))
        b = rng.standard_normal(4)
        lam = rng.standard_normal(3)
        z = rng.standard_normal(3)
        x = LeastSquaresCost(a, b).prox(z - lam / 0.7, rho=0.7)
        lhs = (a.T @ a + 0.7 * np.eye(3)) @ x
        rhs = a.T @ b - lam + 0.7 * z
        assert np.linalg.norm(lhs - rhs) <= 1e-10

    def test_rejects_nonpositive_rho(self):
        with pytest.raises(ValueError):
            LeastSquaresCost(np.eye(2), np.zeros(2)).prox(np.zeros(2), rho=0.0)


class TestLeastSquaresCost:
    def setup_method(self):
        rng = np.random.default_rng(3)
        self.cost = LeastSquaresCost(rng.standard_normal((5, 3)), rng.standard_normal(5))

    def test_eval_includes_half_factor(self):
        cost = LeastSquaresCost(np.eye(2), np.array([2.0, 0.0]))
        assert cost.eval(np.zeros(2)) == 2.0

    def test_prox_first_order_optimality(self):
        # directional finite differences of f(x) + rho/2 ||x - t||^2 at the
        # prox output must be nonnegative up to discretization error
        rng = np.random.default_rng(5)
        for _ in range(10):
            target = rng.standard_normal(3)
            rho = float(rng.uniform(0.2, 3.0))
            x = self.cost.prox(target, rho)

            def penalized(v):
                return self.cost.eval(v) + 0.5 * rho * float((v - target) @ (v - target))

            base = penalized(x)
            h = 1e-6
            for _ in range(12):
                u = rng.standard_normal(3)
                u /= np.linalg.norm(u)
                assert (penalized(x + h * u) - base) / h >= -1e-6

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal(3)
        grad = self.cost.gradient(x)
        h = 1e-6
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            fd = (self.cost.eval(x + e) - self.cost.eval(x - e)) / (2 * h)
            assert abs(fd - grad[i]) <= 1e-6 * max(1.0, abs(grad[i]))

    def test_subgradient_optimality_residual(self):
        rng = np.random.default_rng(7)
        target = rng.standard_normal(3)
        rho = 0.9
        x = self.cost.prox(target, rho)
        residual = self.cost.gradient(x) + rho * (x - target)
        assert np.linalg.norm(residual) <= 1e-8

    def test_base_class_gradient_optional(self):
        class Indicator(CostFunction):
            def eval(self, x):
                return 0.0

            def prox(self, target, rho):
                return np.asarray(target)

        with pytest.raises(NotImplementedError):
            Indicator().gradient(np.zeros(2))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            LeastSquaresCost(np.eye(3), np.zeros(2))


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
        manual = sum(inst.cost(i).eval(x_rows[i]) for i in range(4))
        assert np.isclose(inst.objective(x_rows), manual)


class TestInstanceIO:
    def test_round_trip(self, tmp_path):
        inst = generate_ls(6, 3, 2, seed=9)
        path = tmp_path / "instance.txt"
        save_instance(inst, path)
        back = load_instance(path)
        assert np.array_equal(back.a, inst.a)
        assert np.array_equal(back.b, inst.b)

    def test_rejects_malformed(self, tmp_path):
        path = tmp_path / "instance.txt"
        path.write_text("0 2 2\n1.0 2.0\n")
        with pytest.raises((ValueError, IndexError)):
            load_instance(path)

    def test_instance_validates_shapes(self):
        with pytest.raises(ValueError):
            LeastSquaresInstance(a=np.zeros((2, 3, 3)), b=np.zeros((3, 3)))
