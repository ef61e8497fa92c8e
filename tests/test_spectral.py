import numpy as np
import pytest
import scipy.fft

from gspm2.mesh import Grid, laplacian
from gspm2.spectral import (DENSE_AXIS_MAX, build_plan, dct_matrix,
                            dense_operator_matrix, laplacian_eigenvalues, solve,
                            solve_dense_oracle)

# an axis at the dense-transform limit and one just beyond it, alone and mixed
D, P = DENSE_AXIS_MAX, DENSE_AXIS_MAX + 1
DENSE_LIMIT_SHAPES = [(D, 1, 1), (P, 1, 1), (1, D, 1), (1, 1, P), (P, 5, 1),
                      (3, 1, P + 1), (D, 3, 2), (2, P, 3)]


class TestEigenvalues:
    def test_two_cells_unit_spacing(self):
        assert np.allclose(laplacian_eigenvalues(2, 1.0), [0.0, -2.0])

    def test_degenerate_axis(self):
        assert np.allclose(laplacian_eigenvalues(1, 0.3), [0.0])

    def test_four_cells_quarter_spacing(self):
        lam = laplacian_eigenvalues(4, 0.25)
        expected = -64.0 * np.sin(np.pi * np.arange(4) / 8.0) ** 2
        assert np.abs(lam - expected).max() < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_match_dense_spectrum(self, n):
        g = Grid.line(n, lx=0.7 * n)
        # dense Laplacian recovered from the operator with a=1, b=0
        L = np.eye(g.n_cells) - dense_operator_matrix(g, 1.0, 0.0)
        got = np.sort(np.linalg.eigvalsh(L))
        want = np.sort(laplacian_eigenvalues(n, g.hx))
        assert np.abs(got - want).max() < 1e-12 * max(1.0, abs(want).max())

    def test_nonpositive(self):
        plan = build_plan(Grid(5, 4, 3, 1.0, 1.0, 1.0))
        assert plan.lam.max() <= 0.0
        assert plan.lam_x[0] == 0.0 and plan.lam_y[0] == 0.0 and plan.lam_z[0] == 0.0


class TestTransform:
    def test_round_trip(self):
        plan = build_plan(Grid(6, 5, 1, 1.0, 0.8, 1.0))
        rng = np.random.default_rng(0)
        u = rng.standard_normal(plan.grid.shape)
        v = plan.inverse(plan.forward(u))
        assert np.abs(v - u).max() < 1e-13 * max(1.0, np.abs(u).max())

    def test_forward_diagonalizes_laplacian(self):
        g = Grid(8, 1, 1, 1.0, 1.0, 1.0)
        plan = build_plan(g)
        rng = np.random.default_rng(1)
        u = rng.standard_normal(g.shape)
        lhs = plan.forward(laplacian(g, u))
        rhs = plan.lam * plan.forward(u)
        assert np.abs(lhs - rhs).max() < 1e-11


class TestDenseTransform:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 40, D, P, 256])
    def test_matrix_is_scipy_dct(self, n):
        want = scipy.fft.dct(np.eye(n), norm="ortho", axis=0)
        assert np.abs(dct_matrix(n) - want).max() <= 1e-15

    def test_matrix_is_cached_and_read_only(self):
        C = dct_matrix(7)
        assert dct_matrix(7) is C
        assert not C.flags.writeable

    @pytest.mark.parametrize("shape", DENSE_LIMIT_SHAPES)
    def test_matches_scipy_dctn(self, shape):
        plan = build_plan(Grid(*shape, 1.0, 0.8, 0.6))
        axes = tuple(ax - 3 for ax, n in enumerate(shape) if n > 1)
        u = np.random.default_rng(8).standard_normal((3,) + shape)
        for got, want in [
                (plan.forward(u), scipy.fft.dctn(u, norm="ortho", axes=axes)),
                (plan.inverse(u), scipy.fft.idctn(u, norm="ortho", axes=axes))]:
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


class TestSolve:
    def test_identity_coefficients(self):
        plan = build_plan(Grid(4, 4, 1, 1.0, 1.0, 1.0))
        rng = np.random.default_rng(2)
        f = rng.standard_normal(plan.grid.shape)
        assert np.abs(solve(plan, f, 0.0, 0.0) - f).max() < 1e-13

    def test_constant_passthrough(self):
        plan = build_plan(Grid(4, 4, 2, 1.0, 1.0, 1.0))
        f = np.full(plan.grid.shape, 2.5)
        u = solve(plan, f, 0.7, 0.2)
        assert np.abs(u - f).max() < 1e-12

    def test_against_dense_lu(self):
        g = Grid(4, 4, 1, 1.0, 1.0, 1.0)
        plan = build_plan(g)
        rng = np.random.default_rng(3)
        f = rng.standard_normal(g.shape)
        u = solve(plan, f, 0.3, 0.09)
        w = solve_dense_oracle(g, f, 0.3, 0.09)
        assert np.abs(u - w).max() < 1e-11

    def test_heat_solve_b_zero(self):
        g = Grid.line(7, lx=0.5)
        plan = build_plan(g)
        rng = np.random.default_rng(4)
        f = rng.standard_normal(g.shape)
        u = solve(plan, f, 0.02)
        w = solve_dense_oracle(g, f, 0.02, 0.0)
        assert np.abs(u - w).max() < 1e-12

    def test_linearity(self):
        plan = build_plan(Grid(5, 3, 2, 1.0, 1.0, 1.0))
        rng = np.random.default_rng(5)
        f, gf = rng.standard_normal((2,) + plan.grid.shape)
        lhs = solve(plan, 2.0 * f - 3.0 * gf, 0.1, 0.01)
        rhs = 2.0 * solve(plan, f, 0.1, 0.01) - 3.0 * solve(plan, gf, 0.1, 0.01)
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_rejects_bad_coefficients(self):
        plan = build_plan(Grid.line(4))
        f = np.zeros(plan.grid.shape)
        for a, b in [(-0.1, 0.0), (0.1, -1.0), (np.nan, 0.0), (0.0, np.inf)]:
            with pytest.raises(ValueError):
                solve(plan, f, a, b)

    def test_solve_count_increments(self):
        plan = build_plan(Grid.line(4))
        f = np.zeros(plan.grid.shape)
        before = plan.solve_count
        solve(plan, f, 0.1, 0.01)
        solve(plan, f, 0.0, 0.0)
        assert plan.solve_count == before + 2

    # (3, 1, 1): three components over three cells; the component axis is
    # not a grid axis, even where the lengths agree
    @pytest.mark.parametrize("shape", [(3, 1, 1), (7, 1, 1), (1, 5, 1), (6, 5, 1),
                                       (1, 4, 3), (5, 4, 3), (4, 4, 4), (8, 3, 2)]
                             + DENSE_LIMIT_SHAPES)
    def test_stack_equals_per_component(self, shape):
        plan = build_plan(Grid(*shape, 1.0, 0.8, 0.6))
        f = np.random.default_rng(7).standard_normal((3,) + shape)
        before = plan.solve_count
        u = solve(plan, f, 0.1, 0.01)
        assert plan.solve_count == before + 3
        for i in range(3):
            assert np.array_equal(u[i], solve(plan, f[i], 0.1, 0.01))

    def test_rejects_field_not_ending_in_grid_shape(self):
        plan = build_plan(Grid.line(4))
        for shape in [(4,), (3, 4), (4, 1), (3, 1, 1)]:
            with pytest.raises(ValueError, match="grid shape"):
                solve(plan, np.ones(shape), 0.1, 0.01)
        assert plan.solve_count == 0


    def test_symbol_kept_for_its_coefficients(self):
        plan = build_plan(Grid(5, 3, 2, 1.0, 1.0, 1.0))
        sym = plan.symbol(0.1, 0.01)
        assert plan.symbol(0.1, 0.01) is sym
        assert np.array_equal(sym, 1.0 - 0.1 * plan.lam + 0.01 * plan.lam * plan.lam)
        assert not sym.flags.writeable
        f = np.random.default_rng(6).standard_normal(plan.grid.shape)
        u = solve(plan, f, 0.2, 0.0)
        assert plan.symbol(0.2, 0.0) is not sym
        assert np.array_equal(u, plan.inverse(plan.forward(f)
                                              / (1.0 - 0.2 * plan.lam)))

    def test_symbol_below_one_raises(self):
        # a check, not an assert: it must hold under python -O too
        plan = build_plan(Grid.line(4))
        with pytest.raises(ValueError, match="below 1"):
            plan.symbol(0.0, -1.0)


class TestDenseOracle:
    def test_operator_matrix_symmetric(self):
        g = Grid(3, 3, 2, 1.0, 1.2, 0.9)
        A = dense_operator_matrix(g, 0.4, 0.16)
        assert np.abs(A - A.T).max() < 1e-12 * np.abs(A).max()

    def test_size_cap(self):
        g = Grid(17, 16, 16, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            dense_operator_matrix(g, 0.1)

    def test_randomized_agreement_sweep(self):
        # mutual consistency of the spectral and dense paths on random shapes;
        # coefficients stay in the integrators' range so the dense oracle's
        # own conditioning does not dominate the comparison
        rng = np.random.default_rng(42)
        for _ in range(25):
            shape = rng.integers(1, 9, size=3)
            g = Grid(int(shape[0]), int(shape[1]), int(shape[2]),
                     *(float(v) for v in rng.uniform(0.8, 2.0, size=3)))
            a = float(rng.uniform(0.0, 0.5))
            b = a * a
            f = rng.standard_normal(g.shape)
            u = solve(build_plan(g), f, a, b)
            w = solve_dense_oracle(g, f, a, b)
            denom = max(1.0, np.abs(w).max())
            assert np.abs(u - w).max() / denom < 1e-10
