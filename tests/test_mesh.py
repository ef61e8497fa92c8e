import numpy as np
import pytest

from gspm2.mesh import (Grid, biharmonic, laplacian, norm_inf, norm_l2,
                        sample_scalar, sample_vector)


def dense_laplacian_matrix(grid):
    """Independent oracle: assemble the mirrored-Neumann Laplacian by explicit
    neighbor loops with ghost indices clamped back to their mirror cells."""
    nx, ny, nz = grid.shape
    n = grid.n_cells
    A = np.zeros((n, n))

    def flat(i, j, k):
        return (i * ny + j) * nz + k

    for i in range(nx):
        for j in range(ny):
            for k in range(nz):
                row = flat(i, j, k)
                for axis, (extent, h) in enumerate(zip(grid.shape, grid.spacing)):
                    if extent == 1:
                        continue
                    for step in (-1, 1):
                        idx = [i, j, k]
                        idx[axis] += step
                        # first ghost layer mirrors the first interior layer
                        if idx[axis] < 0:
                            idx[axis] = 0
                        elif idx[axis] >= extent:
                            idx[axis] = extent - 1
                        A[row, flat(*idx)] += 1.0 / h**2
                        A[row, row] -= 1.0 / h**2
    return A


class TestGrid:
    def test_spacing_and_centers(self):
        g = Grid(2, 1, 1, 1.0, 1.0, 1.0)
        assert g.hx == 0.5
        X, _, _ = g.centers
        assert np.allclose(X.ravel(), [0.25, 0.75])

    def test_centers_are_read_only(self):
        # shared by every caller and a cache key of ManufacturedCase
        g = Grid.line(4)
        with pytest.raises(ValueError):
            g.centers[0][0, 0, 0] = 1.0
        for a in g.centers:
            assert not a.flags.writeable and a.flags.owndata

    def test_cell_volume(self):
        g = Grid(4, 3, 2, 2.0, 1.5, 1.0)
        assert np.isclose(g.cell_volume, 0.5 * 0.5 * 0.5)

    @pytest.mark.parametrize("bad", [
        dict(nx=0, ny=1, nz=1, lx=1.0, ly=1.0, lz=1.0),
        dict(nx=2, ny=1, nz=1, lx=-1.0, ly=1.0, lz=1.0),
        dict(nx=2, ny=1, nz=1, lx=np.inf, ly=1.0, lz=1.0),
        # a bool is an int to Python: Grid.line(True) would build one cell
        dict(nx=True, ny=1, nz=1, lx=1.0, ly=1.0, lz=1.0),
        dict(nx=2, ny=True, nz=2, lx=1.0, ly=1.0, lz=1.0),
        dict(nx=4, ny=4, nz=4, lx=True, ly=1.0, lz=1.0),
        dict(nx=2, ny=1, nz=1, lx="1", ly=1.0, lz=1.0),
    ])
    def test_rejects_bad_arguments(self, bad):
        with pytest.raises(ValueError):
            Grid(**bad)


class TestSampling:
    def test_constant_vector(self):
        g = Grid(3, 2, 2, 1.0, 1.0, 1.0)
        m = sample_vector(g, lambda X, Y, Z: (0.0, 0.0, 1.0))
        assert m.shape == (3, 3, 2, 2)
        assert np.all(m[2] == 1.0) and np.all(m[:2] == 0.0)

    def test_identity_on_half_grid(self):
        g = Grid.line(2)
        u = sample_scalar(g, lambda X, Y, Z: X)
        assert np.allclose(u.ravel(), [0.25, 0.75])

    def test_nonfinite_rejected_with_index(self):
        g = Grid.line(4)

        def fn(X, Y, Z):
            v = np.where(X > 0.6, np.inf, 1.0)
            return (v, 0.0 * X, 0.0 * X)

        with pytest.raises(ValueError, match="index"):
            sample_vector(g, fn)


class TestLaplacian:
    def test_constant_annihilated(self):
        g = Grid(4, 3, 2, 1.0, 2.0, 0.5)
        u = np.full(g.shape, 3.7)
        assert np.abs(laplacian(g, u)).max() == 0.0

    def test_two_cell_line_by_hand(self):
        g = Grid.line(2, lx=2.0)   # h = 1
        u = np.array([1.5, -0.5]).reshape(2, 1, 1)
        out = laplacian(g, u).ravel()
        # (b - a, a - b) with mirrored ghosts
        assert np.allclose(out, [-2.0, 2.0])

    def test_matches_dense_oracle(self):
        g = Grid(4, 3, 2, 1.0, 0.8, 0.6)
        rng = np.random.default_rng(7)
        u = rng.standard_normal(g.shape)
        A = dense_laplacian_matrix(g)
        assert np.abs(laplacian(g, u).ravel() - A @ u.ravel()).max() < 1e-13

    def test_axis_reversal_symmetry(self):
        g = Grid(6, 5, 1, 1.0, 1.0, 1.0)
        rng = np.random.default_rng(8)
        u = rng.standard_normal(g.shape)
        for axis in (0, 1):
            flipped = laplacian(g, np.flip(u, axis=axis))
            assert np.abs(np.flip(flipped, axis=axis) - laplacian(g, u)).max() < 1e-13

    def test_sum_vanishes(self):
        g = Grid(5, 4, 3, 1.0, 1.3, 0.7)
        rng = np.random.default_rng(9)
        u = rng.standard_normal(g.shape)
        total = laplacian(g, u).sum()
        assert abs(total) < 1e-12 * np.abs(laplacian(g, u)).max() * g.n_cells

    def test_linearity(self):
        g = Grid(4, 4, 2, 1.0, 1.0, 1.0)
        rng = np.random.default_rng(10)
        u, v = rng.standard_normal((2,) + g.shape)
        a, b = 1.7, -0.3
        lhs = laplacian(g, a * u + b * v)
        rhs = a * laplacian(g, u) + b * laplacian(g, v)
        assert np.abs(lhs - rhs).max() < 1e-13

    def test_applies_to_stacked_fields(self):
        g = Grid(4, 3, 1, 1.0, 1.0, 1.0)
        rng = np.random.default_rng(11)
        m = rng.standard_normal((3,) + g.shape)
        out = laplacian(g, m)
        for c in range(3):
            assert np.abs(out[c] - laplacian(g, m[c])).max() == 0.0


class TestBiharmonic:
    def test_constant_annihilated(self):
        g = Grid(4, 4, 1, 1.0, 1.0, 1.0)
        assert np.abs(biharmonic(g, np.ones(g.shape))).max() == 0.0

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_eigenvectors_1d(self, n):
        g = Grid.line(n)
        h = g.hx
        A = dense_laplacian_matrix(g)
        eigvals = np.sort(np.linalg.eigvalsh(A))
        expected = np.sort(-(4.0 / h**2) * np.sin(np.pi * np.arange(n) / (2 * n)) ** 2)
        assert np.abs(eigvals - expected).max() < 1e-12 / h**2
        for p in range(n):
            i = np.arange(1, n + 1)
            v = np.cos(np.pi * p * (2 * i - 1) / (2 * n)).reshape(n, 1, 1)
            lam = -(4.0 / h**2) * np.sin(np.pi * p / (2 * n)) ** 2
            assert np.abs(biharmonic(g, v) - lam**2 * v).max() < 1e-10 * max(1.0, lam**2)

    def test_equals_squared_dense_laplacian(self):
        g = Grid(4, 3, 2, 1.0, 0.9, 1.1)
        rng = np.random.default_rng(12)
        u = rng.standard_normal(g.shape)
        A = dense_laplacian_matrix(g)
        oracle = (A @ (A @ u.ravel())).reshape(g.shape)
        scale = max(1.0, np.abs(oracle).max())
        assert np.abs(biharmonic(g, u) - oracle).max() < 1e-13 * scale

    def test_wide_stencil_second_ghost_rule_1d(self):
        # by hand: cell 1 of the wide stencil with ghosts u0 = u1, u_{-1} = u2
        # reduces to (2 u1 - 3 u2 + u3)/h^4
        g = Grid.line(5, lx=5.0)   # h = 1
        rng = np.random.default_rng(13)
        u = rng.standard_normal(g.shape)
        expected = 2 * u[0, 0, 0] - 3 * u[1, 0, 0] + u[2, 0, 0]
        assert np.isclose(biharmonic(g, u)[0, 0, 0], expected, rtol=1e-13)


class TestNorms:
    def test_uniform_unit_vector_inf(self):
        g = Grid(3, 3, 1, 1.0, 1.0, 1.0)
        m = sample_vector(g, lambda X, Y, Z: (0.0, 0.0, 1.0))
        assert norm_inf(m) == 1.0

    def test_zero_field_l2(self):
        g = Grid(3, 3, 1, 1.0, 1.0, 1.0)
        assert norm_l2(g, np.zeros((3,) + g.shape)) == 0.0

    def test_single_cell_definition(self):
        g = Grid(1, 1, 1, 1.0, 1.0, 1.0)
        u = np.full(g.shape, 2.0)
        assert norm_l2(g, u) == 2.0
        assert norm_inf(u) == 2.0
