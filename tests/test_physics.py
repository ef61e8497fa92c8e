import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.fft

from gspm2.mesh import Grid, laplacian, sample_vector
from gspm2.physics import (MU0, MaterialParams, PhysicalConstants,
                           _displacements, build_demag_kernel, demag_field,
                           demag_tensor_entry, energy, local_field,
                           nondimensionalize)

FILM_CONSTANTS = PhysicalConstants(A=1.3e-11, Ms=8.0e5, Ku=1.0e2,
                                   gamma=1.76e11, L=1.0e-6)


def uniform_field(grid, direction):
    d = np.asarray(direction, dtype=float)
    return sample_vector(grid, lambda X, Y, Z: (np.full_like(X, d[0]),
                                                np.full_like(X, d[1]),
                                                np.full_like(X, d[2])))


class TestNondimensionalize:
    def test_film_constants(self):
        eps, q, tu = nondimensionalize(FILM_CONSTANTS)
        # independent arithmetic: denom = mu0 Ms^2 = 4pi e-7 * 6.4e11
        denom = MU0 * (8.0e5) ** 2
        assert np.isclose(eps, 2 * 1.3e-11 / (denom * 1e-12), rtol=1e-12)
        assert np.isclose(eps, 3.2328e-5, rtol=1e-4)
        assert np.isclose(q, 2.4868e-4, rtol=1e-4)
        assert np.isclose(tu, 5.6518e-12, rtol=1e-4)

    def test_picosecond_step_dimensionless(self):
        _, _, tu = nondimensionalize(FILM_CONSTANTS)
        assert np.isclose(1.0e-12 / tu, 0.17694, rtol=1e-3)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            PhysicalConstants(A=0.0, Ms=8e5, Ku=1e2, gamma=1.76e11, L=1e-6)


class TestMaterialParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            MaterialParams(eps=-1.0, alpha=0.1)
        with pytest.raises(ValueError):
            MaterialParams(eps=1.0, alpha=-0.1)
        with pytest.raises(ValueError):
            MaterialParams(eps=1.0, alpha=0.1, h_ext=(0.0, np.nan, 0.0))

    def test_has_local_field(self):
        assert not MaterialParams(eps=1.0, alpha=0.1).has_local_field
        assert MaterialParams(eps=1.0, alpha=0.1, q=0.5).has_local_field
        assert MaterialParams(eps=1.0, alpha=0.1, h_ext=(0, 0, 1)).has_local_field


class TestDemagTensor:
    def test_single_cube_thirds(self):
        g = Grid(1, 1, 1, 1.0, 1.0, 1.0)
        k = build_demag_kernel(g)
        assert np.abs(k.self_diag - 1.0 / 3.0).max() < 1e-10
        for comp in ("xy", "xz", "yz"):
            assert abs(demag_tensor_entry(comp, 0.0, 0.0, 0.0, g.spacing)) < 1e-12

    @pytest.mark.parametrize("spacing", [(1.0, 1.0, 1.0), (0.3, 1.0, 2.0),
                                         (0.015625, 0.015625, 0.00666667)])
    def test_self_trace_is_one(self, spacing):
        total = sum(demag_tensor_entry(c, 0.0, 0.0, 0.0, spacing)
                    for c in ("xx", "yy", "zz"))
        assert abs(total - 1.0) < 1e-8

    def test_far_field_dipole_decay(self):
        h = (1.0, 1.0, 1.0)
        near = demag_tensor_entry("zz", 6.0, 0.0, 0.0, h)
        far = demag_tensor_entry("zz", 12.0, 0.0, 0.0, h)
        assert abs(near / far - 8.0) < 0.4   # 1/r^3 within 5%

    def test_offset_parity(self):
        h = (0.8, 1.0, 1.2)
        x, y, z = 1.6, -2.0, 3.6
        # diagonal entries even in every offset; xy odd in x and y, even in z
        assert np.isclose(demag_tensor_entry("xx", -x, y, z, h),
                          demag_tensor_entry("xx", x, y, z, h), rtol=1e-10)
        assert np.isclose(demag_tensor_entry("xy", -x, y, z, h),
                          -demag_tensor_entry("xy", x, y, z, h), rtol=1e-10)
        assert np.isclose(demag_tensor_entry("xy", x, -y, z, h),
                          -demag_tensor_entry("xy", x, y, z, h), rtol=1e-10)
        assert np.isclose(demag_tensor_entry("xy", x, y, -z, h),
                          demag_tensor_entry("xy", x, y, z, h), rtol=1e-10)

    # odd and length-1 axes, and a non-dyadic hz whose shifted offsets differ
    # from the lattice nodes in the last bit
    @pytest.mark.parametrize("shape,spacing", [
        ((1, 1, 1), (1.0, 0.8, 0.3)), ((5, 3, 1), (1.0, 0.8, 0.3)),
        ((1, 4, 2), (1.0, 0.8, 0.3)), ((6, 5, 2), (1.0, 0.8, 0.3)),
        ((16, 16, 3), (1.0, 1.0, 0.02)),
    ], ids=["1x1x1", "5x3x1", "1x4x2", "6x5x2", "16x16x3-film"])
    def test_kernel_is_the_entry_bit_for_bit(self, shape, spacing):
        g = Grid(*shape, *(n * h for n, h in zip(shape, spacing)))
        k = build_demag_kernel(g)
        X, Y, Z = np.meshgrid(*(_displacements(n) * h
                                for n, h in zip(g.shape, g.spacing)),
                              indexing="ij", sparse=True)
        for i, comp in enumerate(("xx", "yy", "zz", "xy", "xz", "yz")):
            block = np.broadcast_to(demag_tensor_entry(comp, X, Y, Z, g.spacing),
                                    k.padded_shape)
            assert k.fft[comp].tobytes() == scipy.fft.rfftn(block).tobytes(), comp
            if i < 3:
                assert k.self_diag[i].tobytes() == block[0, 0, 0].tobytes(), comp

    def test_build_peak_memory_bound(self):
        # 64x64x4 padded blocks of 128 KiB; the six spectra hold 1.1 MiB.
        # The build peaked at 1.8 MiB when it evaluated the potential on the
        # padded lattice directly; holding every shifted block would not fit.
        g = Grid(32, 32, 2, 32.0, 32.0, 0.04)
        build_demag_kernel(g)
        tracemalloc.start()
        try:
            build_demag_kernel(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * 2 ** 20, peak


class TestDemagField:
    def test_zero_magnetization(self):
        g = Grid(3, 3, 2, 1.0, 1.0, 0.5)
        k = build_demag_kernel(g)
        assert np.abs(demag_field(k, np.zeros((3,) + g.shape))).max() == 0.0

    def test_flat_film_interior(self):
        g = Grid(32, 32, 1, 1.0, 1.0, 0.01)
        k = build_demag_kernel(g)
        m = uniform_field(g, (0.0, 0.0, 1.0))
        hs = demag_field(k, m)
        center = hs[:, 16, 16, 0]
        assert abs(center[2] + 1.0) < 0.05
        assert np.abs(center[:2]).max() < 1e-10

    def test_matches_direct_summation(self):
        # odd and length-1 axes exercise the pruned transforms' padding
        rng = np.random.default_rng(21)
        comps = ("xx", "xy", "xz", "yy", "yz", "zz")
        for shape in ((4, 4, 2), (5, 3, 1), (1, 4, 2)):
            g = Grid(*shape, 1.0, 1.0, 0.5)
            k = build_demag_kernel(g)
            m = rng.standard_normal((3,) + g.shape)
            hs = demag_field(k, m)
            direct = np.zeros_like(m)
            cells = list(itertools.product(*(range(n) for n in shape)))
            for (i, j, kk) in cells:
                for (p, q, r) in cells:
                    off = ((i - p) * g.hx, (j - q) * g.hy, (kk - r) * g.hz)
                    n = {c: demag_tensor_entry(c, *off, g.spacing) for c in comps}
                    N = np.array([[n["xx"], n["xy"], n["xz"]],
                                  [n["xy"], n["yy"], n["yz"]],
                                  [n["xz"], n["yz"], n["zz"]]])
                    direct[:, i, j, kk] -= N @ m[:, p, q, r]
            assert np.abs(hs - direct).max() < 1e-10, shape

    def test_linearity_and_symmetry(self):
        g = Grid(3, 2, 2, 1.0, 0.8, 0.6)
        k = build_demag_kernel(g)
        rng = np.random.default_rng(22)
        u, v = rng.standard_normal((2, 3) + g.shape)
        lhs = demag_field(k, 2.0 * u - 0.5 * v)
        rhs = 2.0 * demag_field(k, u) - 0.5 * demag_field(k, v)
        assert np.abs(lhs - rhs).max() < 1e-12
        # interaction symmetry sum h(u).v == sum h(v).u
        a = (demag_field(k, u) * v).sum()
        b = (demag_field(k, v) * u).sum()
        assert abs(a - b) < 1e-10 * max(1.0, abs(a))


class TestLocalField:
    def test_all_off_is_zero(self):
        g = Grid(2, 2, 1, 1.0, 1.0, 1.0)
        params = MaterialParams(eps=1.0, alpha=0.1)
        m = uniform_field(g, (0, 1, 0))
        assert np.abs(local_field(params, m)).max() == 0.0

    def test_anisotropy_formula(self):
        g = Grid(2, 2, 1, 1.0, 1.0, 1.0)
        params = MaterialParams(eps=1.0, alpha=0.1, q=1.0)
        m = uniform_field(g, (0, 1, 0))
        f = local_field(params, m)
        assert np.allclose(f[1], -1.0) and np.abs(f[[0, 2]]).max() == 0.0

    def test_applied_field(self):
        g = Grid(2, 2, 1, 1.0, 1.0, 1.0)
        params = MaterialParams(eps=1.0, alpha=0.1, h_ext=(0.0, 0.0, 0.5))
        m = uniform_field(g, (1, 0, 0))
        f = local_field(params, m)
        assert np.allclose(f[2], 0.5) and np.abs(f[[0, 1]]).max() == 0.0

    def test_given_stray_field_replaces_the_convolution(self):
        g = Grid(3, 2, 2, 1.0, 1.0, 0.5)
        params = MaterialParams(eps=1.0, alpha=0.1, q=0.4, stray_enabled=True)
        k = build_demag_kernel(g)
        m = np.random.default_rng(24).standard_normal((3,) + g.shape)
        hs = demag_field(k, m)
        assert np.array_equal(local_field(params, m, stray=hs),
                              local_field(params, m, k))

    def test_missing_kernel_raises(self):
        g = Grid(2, 2, 1, 1.0, 1.0, 1.0)
        params = MaterialParams(eps=1.0, alpha=0.1, stray_enabled=True)
        with pytest.raises(ValueError, match="kernel"):
            local_field(params, uniform_field(g, (0, 0, 1)))


class TestEnergy:
    def test_uniform_exchange_only_is_zero(self):
        g = Grid(4, 4, 2, 1.0, 1.0, 0.5)
        params = MaterialParams(eps=1.0, alpha=0.1)
        assert energy(params, g, uniform_field(g, (0, 0, 1))) == 0.0

    def test_uniform_anisotropy_value(self):
        g = Grid(3, 3, 3, 1.0, 2.0, 1.0)
        params = MaterialParams(eps=1.0, alpha=0.1, q=0.8)
        e = energy(params, g, uniform_field(g, (0, 1, 0)))
        assert np.isclose(e, 0.5 * 0.8 * 2.0)   # q/2 * volume

    def test_zeeman_value(self):
        g = Grid(2, 2, 2, 1.0, 1.0, 1.0)
        params = MaterialParams(eps=1.0, alpha=0.1, h_ext=(0.0, 0.0, 0.25))
        e = energy(params, g, uniform_field(g, (0, 0, 1)))
        assert np.isclose(e, -0.25)

    def test_exchange_rotation_invariance(self):
        g = Grid(6, 5, 1, 1.0, 1.0, 1.0)
        params = MaterialParams(eps=1.0, alpha=0.1)

        def smooth(X, Y, Z):
            phi = 0.7 * np.sin(np.pi * X) * np.cos(np.pi * Y)
            return np.cos(phi), np.sin(phi), np.zeros_like(X)

        m = sample_vector(g, smooth)
        rng = np.random.default_rng(23)
        w = rng.standard_normal(3)
        w /= np.linalg.norm(w)
        theta = 1.234
        K = np.array([[0, -w[2], w[1]], [w[2], 0, -w[0]], [-w[1], w[0], 0]])
        R = np.eye(3) + np.sin(theta) * K + (1 - np.cos(theta)) * (K @ K)
        m_rot = np.einsum("ab,b...->a...", R, m)
        assert np.isclose(energy(params, g, m), energy(params, g, m_rot),
                          rtol=1e-12)

    def test_stray_self_energy(self):
        g = Grid(4, 4, 1, 1.0, 1.0, 0.1)
        params = MaterialParams(eps=1.0, alpha=0.1, stray_enabled=True)
        k = build_demag_kernel(g)
        m = uniform_field(g, (0, 0, 1))
        hs = demag_field(k, m)
        e = energy(params, g, m, k)
        assert np.isclose(e, -0.5 * (hs * m).sum() * g.cell_volume, rtol=1e-12)
        assert e > 0.0   # out-of-plane film pays stray-field energy
        assert energy(params, g, m, stray=hs) == e

    def test_gradient_is_minus_effective_field(self):
        # energy() is the Lyapunov functional of the dynamics: its derivative
        # along a tangent v is -sum h_eff.v vol, h_eff = eps Lap m + f(m)
        g = Grid(6, 5, 2, 1.0, 0.8, 0.1)
        params = MaterialParams(eps=0.02, alpha=0.1, q=0.3,
                                h_ext=(0.1, 0.0, 0.05), stray_enabled=True)
        k = build_demag_kernel(g)
        rng = np.random.default_rng(25)
        m = rng.standard_normal((3,) + g.shape)
        m /= np.sqrt((m * m).sum(axis=0))
        v = rng.standard_normal(m.shape)
        v -= (v * m).sum(axis=0) * m
        v /= np.sqrt((v * v).sum(axis=0))
        delta = 1e-4
        fd = (energy(params, g, m + delta * v, k)
              - energy(params, g, m - delta * v, k)) / (2 * delta)
        h_eff = params.eps * laplacian(g, m) + local_field(params, m, k)
        expected = -(h_eff * v).sum() * g.cell_volume
        assert abs(fd - expected) <= 1e-6 * abs(expected)

    def test_warns_off_sphere(self):
        g = Grid(2, 1, 1, 1.0, 1.0, 1.0)
        params = MaterialParams(eps=1.0, alpha=0.1)
        with pytest.warns(UserWarning):
            energy(params, g, 2.0 * uniform_field(g, (0, 0, 1)))
