import numpy as np
import pytest

from gspm2.convergence import integrate
from gspm2.manufactured import (PHASES, bump, bump_d1, bump_d2, case_1d,
                                case_3d, cosine, cosine_d1, cosine_d2,
                                neel_wall_initial)
from gspm2.mesh import Grid, sample_vector
from gspm2.physics import MaterialParams


def fd_second_derivative(f, x, h=2e-3):
    """6th-order central second difference (independent oracle)."""
    c = np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0]) / (180.0 * h * h)
    return sum(ci * f(x + k * h) for ci, k in zip(c, range(-3, 4)))


class TestBump:
    def test_derivatives_match_fd(self):
        xs = np.linspace(0.05, 0.95, 11)
        h = 1e-4
        d1_fd = (bump(xs + h) - bump(xs - h)) / (2 * h)
        assert np.abs(bump_d1(xs) - d1_fd).max() < 1e-7
        d2_fd = (bump(xs + h) - 2 * bump(xs) + bump(xs - h)) / (h * h)
        assert np.abs(bump_d2(xs) - d2_fd).max() < 1e-6

    def test_boundary_slopes_vanish(self):
        assert bump_d1(0.0) == 0.0
        assert bump_d1(1.0) == 0.0


class TestCosinePhase:
    def test_derivatives_match_fd(self):
        xs = np.linspace(0.05, 0.95, 11)
        h = 1e-4
        d1_fd = (cosine(xs + h) - cosine(xs - h)) / (2 * h)
        assert np.abs(cosine_d1(xs) - d1_fd).max() < 1e-7
        d2_fd = (cosine(xs + h) - 2 * cosine(xs) + cosine(xs - h)) / (h * h)
        assert np.abs(cosine_d2(xs) - d2_fd).max() < 1e-6

    def test_same_peak_and_symmetry_as_bump(self):
        xs = np.linspace(0.0, 1.0, 41)
        assert np.isclose(cosine(0.5), bump(0.5))
        assert np.abs(cosine(xs) - cosine(1.0 - xs)).max() < 1e-15

    def test_first_and_third_derivatives_vanish_at_walls(self):
        # one-sided differences of u'' at the walls: the bump's third
        # derivative is -12 / +12 there, this phase's is zero, so its
        # solution also has d/dn Lap(m) = 0 at the walls
        h = 1e-6
        for x in (0.0, 1.0):
            assert abs(cosine_d1(x)) < 1e-14
        assert abs((cosine_d2(h) - cosine_d2(0.0)) / h) < 1e-4
        assert abs((cosine_d2(1.0) - cosine_d2(1.0 - h)) / h) < 1e-4
        assert np.isclose((bump_d2(h) - bump_d2(0.0)) / h, -12.0, atol=1e-4)
        assert np.isclose((bump_d2(1.0) - bump_d2(1.0 - h)) / h, 12.0, atol=1e-4)

    def test_unknown_phase_rejected(self):
        with pytest.raises(ValueError, match="phase"):
            case_1d(0.01, phase="sine")


class TestExactSolution:
    @pytest.mark.parametrize("case", [case_1d(0.01), case_3d(0.1),
                                      case_1d(0.01, phase="cosine")])
    def test_unit_length_everywhere(self, case):
        rng = np.random.default_rng(31)
        X, Y, Z = rng.uniform(0, 1, size=(3, 200))
        for t in (0.0, 0.37, 2.9):
            m = case.exact(X, Y, Z, t)
            assert np.abs((m * m).sum(axis=0) - 1.0).max() < 1e-14

    def test_initial_state_is_uniform_pole(self):
        case = case_1d(0.01)
        X = np.linspace(0, 1, 7)
        m = case.exact(X, 0.0, 0.0, 0.0)
        assert np.allclose(m[2], 1.0) and np.abs(m[:2]).max() == 0.0
        assert np.abs(case.laplacian(X, 0.0, 0.0, 0.0)).max() == 0.0

    def test_boundary_values_1d(self):
        case = case_1d(0.01)
        t = 0.8
        for x in (0.0, 1.0):
            m = case.exact(np.array(x), 0.0, 0.0, t)
            assert np.allclose(m.ravel(), [np.sin(t), 0.0, np.cos(t)])

    def test_neumann_at_boundaries(self):
        # closed form: the phase derivative vanishes identically at 0 and 1,
        # and a one-sided FD of m confirms it
        case = case_1d(0.01)
        t, h = 1.1, 1e-5
        for x in (0.0, 1.0):
            fd = (case.exact(np.array(x + h), 0.0, 0.0, t)
                  - case.exact(np.array(x - h), 0.0, 0.0, t)) / (2 * h)
            assert np.abs(fd).max() < 1e-9

    @pytest.mark.parametrize("dim,phase", [(1, "bump"), (3, "bump"),
                                           (1, "cosine"), (3, "cosine")],
                             ids=["1", "3", "1-cosine", "3-cosine"])
    def test_laplacian_matches_fd(self, dim, phase):
        case = case_1d(0.01, phase) if dim == 1 else case_3d(0.1, phase)
        rng = np.random.default_rng(32)
        pts = rng.uniform(0.1, 0.9, size=(3, 20))
        t = 0.73
        lap = case.laplacian(pts[0], pts[1], pts[2], t)
        fd = np.zeros_like(lap)
        for axis in range(dim if dim == 3 else 1):
            def f(s, axis=axis):
                coords = [pts[0].copy(), pts[1].copy(), pts[2].copy()]
                coords[axis] = s
                return case.exact(coords[0], coords[1], coords[2], t)
            fd += fd_second_derivative(f, pts[axis])
        assert np.abs(lap - fd).max() < 1e-8

    def test_time_derivative_matches_fd(self):
        case = case_3d(0.1)
        rng = np.random.default_rng(33)
        X, Y, Z = rng.uniform(0, 1, size=(3, 16))
        t, h = 0.41, 1e-5
        fd = (case.exact(X, Y, Z, t + h) - case.exact(X, Y, Z, t - h)) / (2 * h)
        assert np.abs(case.time_derivative(X, Y, Z, t) - fd).max() < 1e-9


class TestSource:
    def test_source_at_time_zero(self):
        # Lap m = 0 at t = 0, so g reduces to the time derivative
        case = case_1d(0.01)
        X = np.linspace(0.0, 1.0, 9)
        g = case.source(X, 0.0, 0.0, 0.0)
        xb = bump(X)
        assert np.abs(g[0] - np.cos(xb)).max() < 1e-14
        assert np.abs(g[1] - np.sin(xb)).max() < 1e-14
        assert np.abs(g[2]).max() < 1e-14

    def test_alpha_zero_drops_damping(self):
        c0 = case_1d(0.0)
        X = np.array([0.3, 0.6])
        t = 0.9
        m = c0.exact(X, 0.0, 0.0, t)
        lap = c0.laplacian(X, 0.0, 0.0, t)
        expected = c0.time_derivative(X, 0.0, 0.0, t) + np.cross(m, lap, axis=0)
        assert np.abs(c0.source(X, 0.0, 0.0, t) - expected).max() == 0.0

    @pytest.mark.parametrize("case", [case_1d(0.01), case_3d(0.1),
                                      case_1d(0.01, phase="cosine"),
                                      case_3d(0.1, phase="cosine")])
    def test_pde_residual_closed_forms(self, case):
        rng = np.random.default_rng(34)
        X, Y, Z = rng.uniform(0, 1, size=(3, 1000))
        t = rng.uniform(0, 3, size=1000)
        residual = np.zeros((3, 1000))
        for i in range(0, 1000, 200):
            sl = slice(i, i + 200)
            ti = float(t[i])
            m = case.exact(X[sl], Y[sl], Z[sl], ti)
            lap = case.laplacian(X[sl], Y[sl], Z[sl], ti)
            cross = np.cross(m, lap, axis=0)
            rhs = -cross - case.alpha * np.cross(m, cross, axis=0) \
                + case.source(X[sl], Y[sl], Z[sl], ti)
            residual[:, sl] = case.time_derivative(X[sl], Y[sl], Z[sl], ti) - rhs
        assert np.abs(residual).max() < 1e-12

    def test_pde_residual_with_fd_laplacian(self):
        # residual evaluated with an independent FD Laplacian stays small
        case = case_1d(0.01)
        rng = np.random.default_rng(35)
        X = rng.uniform(0.1, 0.9, size=25)
        t = 1.3
        m = case.exact(X, 0.0, 0.0, t)
        lap_fd = fd_second_derivative(lambda s: case.exact(s, 0.0, 0.0, t), X)
        cross = np.cross(m, lap_fd, axis=0)
        rhs = -cross - case.alpha * np.cross(m, cross, axis=0) \
            + case.source(X, 0.0, 0.0, t)
        dt = 1e-5
        mt_fd = (case.exact(X, 0.0, 0.0, t + dt)
                 - case.exact(X, 0.0, 0.0, t - dt)) / (2 * dt)
        assert np.abs(mt_fd - rhs).max() < 1e-7

    def test_invalid_dimension(self):
        from gspm2.manufactured import ManufacturedCase
        with pytest.raises(ValueError):
            ManufacturedCase(dimension=2, alpha=0.1)


METHODS = ("exact", "time_derivative", "laplacian", "source")


def _writable(grid):
    """Copies of the grid's centers: writable, so the case does not cache them."""
    return tuple(a.copy() for a in grid.centers)


class TestSpatialFactorCache:
    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize("phase", ["bump", "cosine"])
    @pytest.mark.parametrize("t", [0.0, 0.3, 1.7])
    def test_cached_equals_fresh(self, dim, phase, t):
        make, grid = (case_1d, Grid.line(16)) if dim == 1 else (case_3d, Grid.cube(4))
        case, fresh = make(0.1, phase), make(0.1, phase)
        for name in METHODS:
            expected = getattr(fresh, name)(*_writable(grid), t)
            for _ in range(2):
                got = getattr(case, name)(*grid.centers, t)
                assert np.array_equal(got, expected), name

    @pytest.mark.parametrize("case,grid", [(case_1d(0.3, "cosine"), Grid.line(16)),
                                           (case_3d(0.3), Grid.cube(4))],
                             ids=["1", "3"])
    def test_source_is_the_cross_product_form(self, case, grid):
        C, t = grid.centers, 0.9
        m = case.exact(*C, t)
        cross = np.cross(m, case.laplacian(*C, t), axis=0)
        expected = (case.time_derivative(*C, t) + cross
                    + case.alpha * np.cross(m, cross, axis=0))
        assert np.array_equal(case.source(*C, t), expected)

    def test_alternating_grids(self):
        case, fresh = case_1d(0.1, "cosine"), case_1d(0.1, "cosine")
        grids = [Grid.line(16), Grid.line(24)]
        expected = {(g.nx, name): getattr(fresh, name)(*_writable(g), 0.7)
                    for g in grids for name in METHODS}
        for _ in range(3):
            for g in grids:
                for name in METHODS:
                    got = getattr(case, name)(*g.centers, 0.7)
                    assert got.shape == (3, g.nx, 1, 1)
                    assert np.array_equal(got, expected[(g.nx, name)]), (g.nx, name)

    def test_warm_cache_leaves_equality_and_hash(self):
        case = case_1d(0.1, "cosine")
        case.source(*Grid.line(16).centers, 0.3)
        fresh = case_1d(0.1, "cosine")
        assert case == fresh and hash(case) == hash(fresh)
        assert repr(case) == repr(fresh)
        assert case != case_1d(0.2, "cosine")


class TestSourceBuffers:
    """The source reuses work arrays per grid; what it returns stays the
    caller's."""

    @pytest.mark.parametrize("make,grid", [(case_1d, Grid.line(16)),
                                           (case_3d, Grid.cube(4))],
                             ids=["1", "3"])
    def test_successive_calls_return_separate_arrays(self, make, grid):
        case = make(0.3)
        first = case.source(*grid.centers, 0.4)
        kept = first.copy()
        second = case.source(*grid.centers, 0.9)
        assert not np.shares_memory(first, second)
        assert np.array_equal(first, kept)
        assert np.array_equal(second, make(0.3).source(*_writable(grid), 0.9))


class TestOncePerGrid:
    @pytest.fixture
    def calls(self, monkeypatch):
        """Per-derivative call counts of the bump phase: [u, u', u'']."""
        counts = [0, 0, 0]

        def counting(k, fn):
            def wrapped(s):
                counts[k] += 1
                return fn(s)
            return wrapped

        monkeypatch.setitem(PHASES, "bump", tuple(
            counting(k, fn) for k, fn in enumerate(PHASES["bump"])))
        return counts

    def test_sourced_run_evaluates_the_phase_once(self, calls):
        case = case_1d(0.1)
        grid = Grid.line(16)
        m0 = sample_vector(grid, lambda X, Y, Z: case.exact(X, Y, Z, 0.0))
        res = integrate("scheme-a", m0, grid, MaterialParams(eps=1.0, alpha=0.1),
                        1e-4, 20, source=case.source)
        assert res.n_steps == 20
        assert calls == [1, 1, 1]

    def test_exact_alone_skips_the_laplacian_factors(self, calls):
        # the studies' set-up samples the exact field only; the Laplacian
        # factors wait for the first step
        case_1d(0.1).exact(*Grid.line(16).centers, 0.5)
        assert calls == [1, 0, 0]


class TestNeelWall:
    def test_profile_unit_length(self):
        fn = neel_wall_initial(eta=0.1)
        X = np.linspace(0.05, 0.95, 10)
        c1, c2, c3 = fn(X, 0.0 * X, 0.0 * X)
        assert np.abs(c1 * c1 + c2 * c2 + c3 * c3 - 1.0).max() < 1e-14

    def test_wall_centered(self):
        fn = neel_wall_initial(eta=0.1)
        c1, c2, c3 = fn(np.array(0.5), np.array(0.0), np.array(0.0))
        assert abs(c1) < 1e-14 and np.isclose(c2, 1.0)
