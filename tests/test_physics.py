import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.fft

from gspm2 import physics
from gspm2.mesh import Grid, laplacian, sample_vector
from gspm2.physics import (MU0, DemagKernel, MaterialParams,
                           PhysicalConstants, build_demag_kernel, demag_field,
                           demag_tensor_entry, energy, local_field,
                           nondimensionalize)

FILM_CONSTANTS = PhysicalConstants(A=1.3e-11, Ms=8.0e5, Ku=1.0e2,
                                   gamma=1.76e11, L=1.0e-6)


def uniform_field(grid, direction):
    d = np.asarray(direction, dtype=float)
    return sample_vector(grid, lambda X, Y, Z: (np.full_like(X, d[0]),
                                                np.full_like(X, d[1]),
                                                np.full_like(X, d[2])))

# the demag kernel's grids: odd and length-1 axes, tall and single-layer films
KERNEL_GRIDS = [
    ((1, 1, 1), (1.0, 0.8, 0.3)), ((5, 3, 1), (1.0, 0.8, 0.3)),
    ((1, 4, 2), (1.0, 0.8, 0.3)), ((6, 5, 2), (1.0, 0.8, 0.3)),
    ((16, 16, 3), (1.0, 1.0, 0.02)), ((2, 3, 17), (0.3, 0.8, 0.1)),
    ((16, 16, 1), (1.0, 1.0, 0.02)), ((7, 5, 3), (0.3, 0.7, 0.11)),
]
KERNEL_IDS = ["1x1x1", "5x3x1", "1x4x2", "6x5x2", "16x16x3-film", "2x3x17",
              "16x16x1", "7x5x3"]


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
        # not numbers: numpy's TypeError, or a bool taken for 1
        for A in ("x", True):
            with pytest.raises(ValueError, match="A must be positive"):
                PhysicalConstants(A=A, Ms=8e5, Ku=1e2, gamma=1.76e11, L=1e-6)


class TestMaterialParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            MaterialParams(eps=-1.0, alpha=0.1)
        with pytest.raises(ValueError):
            MaterialParams(eps=1.0, alpha=-0.1)
        with pytest.raises(ValueError):
            MaterialParams(eps=1.0, alpha=0.1, h_ext=(0.0, np.nan, 0.0))
        with pytest.raises(ValueError, match="q must be >= 0"):
            MaterialParams(eps=1.0, alpha=0.1, q=-1)

    @pytest.mark.parametrize("change", [
        dict(stray_enabled="no"), dict(stray_enabled=1), dict(stray_enabled=None),
        dict(eps=True), dict(alpha=True), dict(q=np.True_),
        dict(h_ext=(0.0, True, 0.0)), dict(eps="x"), dict(h_ext=5),
    ], ids=["stray-string", "stray-int", "stray-none", "eps-bool", "alpha-bool",
            "q-numpy-bool", "h_ext-bool", "eps-string", "h_ext-scalar"])
    def test_flags_and_coefficients_are_not_interchangeable(self, change):
        # a truthy non-bool stray_enabled would switch the stray field on
        name = next(iter(change))
        with pytest.raises(ValueError, match=name):
            MaterialParams(**dict(dict(eps=1.0, alpha=0.1), **change))

    def test_h_ext_is_a_value_in_any_form(self):
        # stored as given, an array makes == ambiguous and hash fail, and a
        # list is unhashable and unequal to the same tuple
        forms = [MaterialParams(eps=1.0, alpha=0.1, h_ext=h)
                 for h in ((0, 0.5, 0), [0, 0.5, 0], np.array([0, 0.5, 0]))]
        for p in forms:
            assert p == forms[0] and hash(p) == hash(forms[0])
            assert p.h_ext == (0.0, 0.5, 0.0)
            assert all(type(c) is float for c in p.h_ext)

    def test_numpy_bool_switches_the_stray_field(self):
        params = MaterialParams(eps=1.0, alpha=0.1, stray_enabled=np.True_)
        assert params.has_local_field

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

    def test_entries_reflect_exactly(self):
        # each entry equals +- its reflection along every axis exactly (float
        # equality, which is bit equality but for the sign of a zero):
        # diagonal entries are even in each offset, an off-diagonal entry is
        # odd in the two axes it names and even in the third
        shape, h = (16, 12, 3), (1 / 64, 0.8 / 64, 0.02 / 3)
        X, Y, Z = np.meshgrid(*(np.arange(-(n - 1), n) * hn
                                for n, hn in zip(shape, h)),
                              indexing="ij", sparse=True)
        for comp in ("xx", "yy", "zz", "xy", "xz", "yz"):
            entry = np.broadcast_to(demag_tensor_entry(comp, X, Y, Z, h),
                                    tuple(2 * n - 1 for n in shape))
            for axis, name in enumerate("xyz"):
                sign = -1.0 if comp[0] != comp[1] and name in comp else 1.0
                reflected = sign * np.flip(entry, axis=axis)
                assert np.array_equal(entry, reflected), (comp, name)

    def test_potentials_have_exact_parity(self):
        # the premise of building the kernel on the non-negative offsets: each
        # diagonal potential is even along every axis, each off-diagonal one
        # odd along the two axes it names and even along the third, on the
        # film's shifted offsets (non-dyadic hz) and at zero. Float equality
        # is bit equality but for the sign of a zero: an exactly zero g is +0
        # or -0 at either sign of its argument
        shape, h = (64, 64, 3), (1 / 64, 1 / 64, 0.02 / 3)
        X, Y, Z = np.meshgrid(*(np.unique(np.abs(np.arange(n + 1) * hn
                                                 + np.array([-1, 0, 1])[:, None] * hn))
                                for n, hn in zip(shape, h)),
                              indexing="ij", sparse=True)
        potential = physics._newell(X, Y, Z)
        reflected = [physics._newell(*(-c if i == axis else c
                                       for i, c in enumerate((X, Y, Z))))
                     for axis in range(3)]
        for comp in ("xx", "yy", "zz", "xy", "xz", "yz"):
            value = potential(comp)
            nonzero = value != 0
            assert not nonzero.all()
            for axis, name in enumerate("xyz"):
                sign = -1.0 if comp[0] != comp[1] and name in comp else 1.0
                got = reflected[axis](comp)
                assert np.array_equal(got, sign * value), (comp, name)
                assert got[nonzero].tobytes() == (sign * value)[nonzero].tobytes(), (comp, name)

    @pytest.mark.parametrize("shape,spacing", [
        ((64, 64, 3), (1 / 64, 1 / 64, 0.02 / 3)), ((5, 3, 1), (1.0, 0.8, 0.3)),
        ((2, 3, 17), (0.1, 0.1, 0.1)), ((1, 1, 1), (1.0, 0.8, 0.3)),
        ((7, 5, 3), (0.3, 0.7, 0.11)), ((20, 1, 1), (0.1, 1.0, 1.0)),
    ], ids=["64x64x3-film", "5x3x1", "2x3x17", "1x1x1", "7x5x3", "20x1x1"])
    def test_potentials_see_the_half_lattice(self, shape, spacing, monkeypatch):
        # one evaluation of the seven shared terms per build, on the distinct
        # absolute offsets d h + k h, d = 0..n, k in {-1, 0, 1}: at most
        # 3 (n + 1) per axis, since offsets an ulp apart stay distinct. It
        # takes three arcsinh and three arctan calls, where one call per
        # potential took 15 and 12
        seen, calls = [], {"arcsinh": 0, "arctan": 0}
        newell = physics._newell

        def evaluation(x, y, z):
            seen.append(np.broadcast(x, y, z).size)
            return newell(x, y, z)

        def counting(name, func):
            def counted(*args, **kwargs):
                calls[name] += 1
                return func(*args, **kwargs)
            return counted

        monkeypatch.setattr(physics, "_newell", evaluation)
        for name in calls:
            monkeypatch.setattr(np, name, counting(name, getattr(np, name)))
        g = Grid(*shape, *(n * h for n, h in zip(shape, spacing)))
        build_demag_kernel(g)
        assert calls == {"arcsinh": 3, "arctan": 3}
        assert len(seen) == 1
        assert seen[0] <= math.prod(3 * (n + 1) for n in shape), seen
        if shape == (64, 64, 3):
            # the whole padded lattice took 130 * 130 * 9 = 152,100
            assert seen == [66 * 66 * 6]

    # 60-digit Newell sums for N_xx along x on the 64x64x3 film spacing; the
    # entry's relative errors when this test was written were 5.7e-8, 4.1e-6
    # and 8.5e-5, set by the cancelling potentials in double precision
    @pytest.mark.parametrize("cells,error", [(16, 5.7e-8), (40, 4.1e-6), (63, 8.5e-5)],
                             ids=["16", "40", "63"])
    def test_far_field_against_mpmath(self, cells, error):
        mp = pytest.importorskip("mpmath")
        h = Grid(64, 64, 3, 1.0, 1.0, 0.02).spacing
        X = cells * h[0]
        with mp.workdps(60):
            hx, hy, hz = (mp.mpf(v) for v in h)

            def f(x, y, z):
                # Newell's f for x > 0
                r = mp.sqrt(x * x + y * y + z * z)
                return (y / 2 * (z * z - x * x) * mp.asinh(y / mp.sqrt(x * x + z * z))
                        + z / 2 * (y * y - x * x) * mp.asinh(z / mp.sqrt(x * x + y * y))
                        - x * y * z * mp.atan(y * z / (x * r))
                        + (2 * x * x - y * y - z * z) * r / 6)

            weight = {-1: -1, 0: 2, 1: -1}
            total = mp.fsum(weight[i] * weight[j] * weight[k]
                            * f(mp.mpf(X) + i * hx, j * hy, k * hz)
                            for i, j, k in itertools.product((-1, 0, 1), repeat=3))
            exact = total / (4 * mp.pi * hx * hy * hz)
            rel = float(abs((demag_tensor_entry("xx", X, 0.0, 0.0, h) - exact) / exact))
        assert rel <= 1.5 * error, rel

    @pytest.mark.parametrize("component", ["xq", "zx", "", "XX"])
    def test_entry_rejects_an_unknown_component(self, component):
        with pytest.raises(ValueError, match="xx, yy, zz, xy, xz, yz"):
            demag_tensor_entry(component, 1.0, 0.0, 0.0, (1.0, 1.0, 1.0))

    @pytest.mark.parametrize("spacing", [
        (1.0, 1.0), (1, -1, 1), (1, 0, 1), (1.0, np.inf, 1.0), (1.0, np.nan, 1.0),
        (True, 1.0, 1.0), "abc", 1.0, (1.0, 1.0, 1.0, 1.0), None,
    ], ids=["two", "negative", "zero", "inf", "nan", "bool", "string", "scalar",
            "four", "none"])
    def test_entry_rejects_a_bad_spacing(self, spacing):
        # a negative spacing gave a finite wrong entry, a zero one NaN
        with pytest.raises(ValueError, match="spacing must be three positive"):
            demag_tensor_entry("xx", 1.0, 0.0, 0.0, spacing)

    @pytest.mark.parametrize("grid", [None, (4, 4, 2)], ids=["none", "tuple"])
    def test_build_rejects_a_non_grid(self, grid):
        with pytest.raises(TypeError, match="Grid"):
            build_demag_kernel(grid)

    # a non-dyadic hz whose shifted offsets differ from the lattice nodes in
    # the last bit, and the parity transforms on odd, tall and single-layer axes
    @pytest.mark.parametrize("shape,spacing", KERNEL_GRIDS, ids=KERNEL_IDS)
    def test_kernel_is_the_entry_bit_for_bit(self, shape, spacing):
        # the oracle: the entry on the half lattice, through the same transforms
        g = Grid(*shape, *(n * h for n, h in zip(shape, spacing)))
        k = build_demag_kernel(g)
        X, Y, Z = np.meshgrid(*(np.arange(n + 1 if n > 1 else 1) * h
                                for n, h in zip(shape, g.spacing)),
                              indexing="ij", sparse=True)
        for i, comp in enumerate(("xx", "yy", "zz", "xy", "xz", "yz")):
            half = np.broadcast_to(demag_tensor_entry(comp, X, Y, Z, g.spacing),
                                   np.broadcast_shapes(X.shape, Y.shape, Z.shape))
            odd = [i >= 3 and name in comp for name in "xyz"]
            spectrum = physics._parity_spectrum(half, odd, np.empty_like(k.fft[comp]))
            assert k.fft[comp].tobytes() == spectrum.tobytes(), comp
            if i < 3:
                assert k.self_diag[i].tobytes() == half[0, 0, 0].tobytes(), comp

    # the film catches dense products on x or y, which read 1.47e-15 there
    @pytest.mark.parametrize("shape,spacing",
                             KERNEL_GRIDS + [((64, 64, 3), (1 / 64, 1 / 64, 0.02 / 3))],
                             ids=KERNEL_IDS + ["64x64x3-film"])
    def test_kernel_is_the_entry_blocks_transform(self, shape, spacing):
        # independent of the parity transforms: the complex FFT of the entry
        # block on the whole padded lattice, real part kept
        g = Grid(*shape, *(n * h for n, h in zip(shape, spacing)))
        k = build_demag_kernel(g)
        scale = max(np.abs(a).max() for a in k.fft.values())
        for comp, spectrum in k.fft.items():
            block = _entry_block(g, k.padded_shape, comp)
            expected = scipy.fft.rfftn(block, axes=(1, 2, 0)).real
            assert np.abs(spectrum - expected).max() <= 1e-15 * scale, comp

    @pytest.mark.parametrize("shape", [(16, 16, 1), (5, 3, 1)],
                             ids=["16x16x1", "5x3x1"])
    def test_single_layer_xz_yz_are_zero(self, shape):
        # odd along z, a length-1 axis: no z offset but 0, whose entry is 0
        k = build_demag_kernel(Grid(*shape, *(float(n) for n in shape[:2]), 0.02))
        for comp in ("xz", "yz"):
            assert not k.fft[comp].any(), comp

    @pytest.mark.parametrize("shape,spacing", [
        ((64, 64, 3), (1 / 64, 0.8 / 64, 0.02 / 3)), ((5, 3, 1), (1.0, 0.8, 0.3)),
        ((2, 3, 17), (1.0, 1.0, 0.5)), ((16, 16, 1), (1.0, 1.0, 0.02)),
    ], ids=["64x64x3-film", "5x3x1", "2x3x17", "16x16x1"])
    def test_spectra_are_real(self, shape, spacing):
        # the premise of the real transforms: with slot n zeroed along the odd
        # axes, every entry block has exact parity, so the imaginary part of
        # its complex spectrum is rounding
        g = Grid(*shape, *(n * h for n, h in zip(shape, spacing)))
        padded = build_demag_kernel(g).padded_shape
        for comp in ("xx", "yy", "zz", "xy", "xz", "yz"):
            spectrum = scipy.fft.rfftn(_entry_block(g, padded, comp), axes=(1, 2, 0))
            imag, real = np.abs(spectrum.imag).max(), np.abs(spectrum.real).max()
            assert imag <= 1e-15 * real, (comp, imag / real)

    def test_build_peak_memory_bound(self):
        # 64x64x4 padded lattice; the six real spectra hold 0.39 MiB, the
        # kernel's slab buffers 0.84 MiB and its dense x pair with the x
        # spectrum's buffer 0.13 MiB. The build peaks at 1.39 MiB, 0.03 MiB
        # above what the finished kernel holds: the half block (33x33x3) and
        # its transforms are small. Without the x pair it peaked at 1.26
        # MiB. It peaked at 1.44 MiB when it mirrored the half block and took
        # its complex transform, 1.36 MiB when it took the differences over
        # the whole padded lattice, and 1.8 MiB when it evaluated the
        # potential on that lattice directly.
        g = Grid(32, 32, 2, 32.0, 32.0, 0.04)
        build_demag_kernel(g)
        tracemalloc.start()
        try:
            build_demag_kernel(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 2 ** 20, peak

    def test_kernel_spectra_bytes(self):
        # six real (px//2 + 1, py, pz) spectra: 2.40 MB at 64x64x3
        g = Grid(64, 64, 3, 1.0, 1.0, 0.02)
        k = build_demag_kernel(g)
        px, py, pz = k.padded_shape
        assert (px, py, pz) == (128, 128, 6)
        assert all(a.dtype == np.float64 and a.flags.c_contiguous
                   for a in k.fft.values())
        assert sum(a.nbytes for a in k.fft.values()) == 6 * (px // 2 + 1) * py * pz * 8


def _displacements(n):
    """Padded-axis slot -> signed cell offset; slot n maps to -n."""
    if n == 1:
        return np.zeros(1, dtype=int)
    idx = np.arange(2 * n)
    return np.where(idx < n, idx, idx - 2 * n)


def _entry_block(g, padded, comp):
    """The tensor entry on the padded lattice's displacements, slot n (offset
    -n) zeroed along each odd axis longer than 1."""
    X, Y, Z = np.meshgrid(*(_displacements(n) * h for n, h in zip(g.shape, g.spacing)),
                          indexing="ij", sparse=True)
    block = np.broadcast_to(demag_tensor_entry(comp, X, Y, Z, g.spacing), padded).copy()
    for axis, n in enumerate(g.shape):
        if comp[0] != comp[1] and "xyz"[axis] in comp and n > 1:
            block[(slice(None),) * axis + (n,)] = 0.0
    return block


def _direct_stray(g, m):
    """-(N * m) by pairwise summation over every source cell, the tensor
    entries taken at each integer cell offset."""
    offsets = [np.arange(-(n - 1), n) * h for n, h in zip(g.shape, g.spacing)]
    X, Y, Z = np.meshgrid(*offsets, indexing="ij", sparse=True)
    span = tuple(2 * n - 1 for n in g.shape)
    n = {c: np.broadcast_to(demag_tensor_entry(c, X, Y, Z, g.spacing), span)
         for c in ("xx", "xy", "xz", "yy", "yz", "zz")}
    N = ((n["xx"], n["xy"], n["xz"]), (n["xy"], n["yy"], n["yz"]),
         (n["xz"], n["yz"], n["zz"]))
    nx, ny, nz = g.shape
    direct = np.zeros_like(m)
    for i, j, k in itertools.product(*(range(s) for s in g.shape)):
        # source cell p sits at offset index (i - p) + nx - 1, reversed in p
        window = (slice(i + nx - 1, i - 1 if i else None, -1),
                  slice(j + ny - 1, j - 1 if j else None, -1),
                  slice(k + nz - 1, k - 1 if k else None, -1))
        for a in range(3):
            direct[a, i, j, k] = -sum((N[a][b][window] * m[b]).sum() for b in range(3))
    return direct


def _fresh(kernel):
    """The same spectra on a new kernel, which takes the cached x and z
    matrices and makes its own slabs and buffers, at the slab width
    _SLAB_BYTES gives now."""
    return DemagKernel(kernel.grid, kernel.fft, kernel.padded_shape,
                       kernel.self_diag)


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
        # odd and length-1 axes exercise the pruned transforms' padding; the
        # next three z axes are taller than a film, for the DFT-matrix z
        # transform at lengths no workload reaches; the last x axis, as long
        # as a 128x32x1 film's, gives the dense x products their longest sums
        rng = np.random.default_rng(21)
        for shape in ((4, 4, 2), (5, 3, 1), (1, 4, 2), (3, 1, 4), (1, 1, 1),
                      (5, 3, 3), (2, 3, 17), (2, 2, 40), (1, 3, 33), (128, 2, 1)):
            g = Grid(*shape, 1.0, 1.0, 0.5)
            k = build_demag_kernel(g)
            m = rng.standard_normal((3,) + g.shape)
            hs = demag_field(k, m)
            assert np.abs(hs - _direct_stray(g, m)).max() < 1e-10, shape

    def test_direct_sum_is_pairwise(self):
        # the windowed reference against the plain double loop over cells
        g = Grid(3, 2, 2, 1.0, 0.8, 0.6)
        m = np.random.default_rng(26).standard_normal((3,) + g.shape)
        comps = ("xx", "xy", "xz", "yy", "yz", "zz")
        direct = np.zeros_like(m)
        cells = list(itertools.product(*(range(n) for n in g.shape)))
        for (i, j, kk) in cells:
            for (p, q, r) in cells:
                off = ((i - p) * g.hx, (j - q) * g.hy, (kk - r) * g.hz)
                n = {c: demag_tensor_entry(c, *off, g.spacing) for c in comps}
                N = np.array([[n["xx"], n["xy"], n["xz"]],
                              [n["xy"], n["yy"], n["yz"]],
                              [n["xz"], n["yz"], n["zz"]]])
                direct[:, i, j, kk] -= N @ m[:, p, q, r]
        assert np.abs(_direct_stray(g, m) - direct).max() < 1e-14

    @pytest.mark.parametrize("shape", [(3, 4, 8, 2), (2, 8, 8, 2)],
                             ids=["short-x", "two-components"])
    def test_rejects_wrong_shape(self, shape):
        # both used to return a field: zero-padded, or without m_z
        k = build_demag_kernel(Grid(8, 8, 2, 1.0, 1.0, 0.25))
        with pytest.raises(ValueError, match="shape"):
            demag_field(k, np.ones(shape))

    def test_field_peak_memory_bound(self):
        # 64x64x3: a call allocates only the field (0.28 MiB) and peaks at
        # 0.29 MiB. It peaked at 1.42 MiB when it held the x spectrum (0.57
        # MiB) and the inverse x transform (0.56 MiB) too. The kernel is built
        # with its slab buffers (1.6 MiB) and the x spectrum's (0.29 MiB), so
        # the first call allocates no more than the next. The bound is the
        # field plus 64 KiB, room for a library's small temporaries (a
        # product buffering its output, say) but far below any array of the
        # grid's size.
        g = Grid(64, 64, 3, 1.0, 1.0, 0.02)
        k = build_demag_kernel(g)
        m = np.random.default_rng(27).standard_normal((3,) + g.shape)
        peaks = []
        for _ in range(2):
            tracemalloc.start()
            try:
                demag_field(k, m)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) <= m.nbytes + 64 * 2 ** 10, peaks

    @pytest.mark.parametrize("shape", [(64, 64, 3), (2, 3, 17), (1, 1, 1), (16, 16, 1),
                                       (128, 2, 1)],
                             ids=["film", "tall-z", "one-cell", "single-layer", "long-x"])
    def test_field_does_not_depend_on_slab_width(self, shape, monkeypatch):
        g = Grid(*shape, 1.0, 1.0, 0.5)
        k = build_demag_kernel(g)
        m = np.random.default_rng(28).standard_normal((3,) + g.shape)
        h = demag_field(k, m)
        px, py, pz = k.padded_shape
        for budget, width in ((16 * py * pz, 1), (2 ** 40, px // 2 + 1)):
            monkeypatch.setattr(physics, "_SLAB_BYTES", budget)
            fresh = _fresh(k)
            assert np.array_equal(demag_field(fresh, m), h)
            assert max(hi - lo for lo, hi, *_ in fresh._slabs) == width

    @pytest.mark.parametrize("shape", [(64, 64, 3), (2, 3, 17), (1, 1, 1), (16, 16, 1)],
                             ids=["film", "tall-z", "one-cell", "single-layer"])
    def test_slabs_tile_the_x_modes(self, shape, monkeypatch):
        # in order, with no gap and no overlap, evenly, each view w modes wide
        k = build_demag_kernel(Grid(*shape, 1.0, 1.0, 0.5))
        px, py, pz = k.padded_shape
        for budget in (physics._SLAB_BYTES, 16 * py * pz, 3 * 16 * py * pz):
            monkeypatch.setattr(physics, "_SLAB_BYTES", budget)
            slabs = _fresh(k)._slabs
            bounds = [(lo, hi) for lo, hi, *_ in slabs]
            assert [lo for lo, _ in bounds] == [0] + [hi for _, hi in bounds[:-1]]
            assert bounds[-1][1] == px // 2 + 1
            widths = [hi - lo for lo, hi in bounds]
            assert min(widths) >= 1 and max(widths) - min(widths) <= 1, widths
            for lo, hi, y, s, out, tmp, halves in slabs:
                w = hi - lo
                assert y.shape == (3, w, py, k.grid.nz) and s.shape == (3, 2, w, py, pz)
                assert out.shape == tmp.shape == (2, w, py, pz)
                assert halves.shape == (2, w, py, 2 * k.grid.nz)

    def test_calls_return_fresh_fields(self):
        g = Grid(6, 5, 2, 1.0, 1.0, 0.5)
        k = build_demag_kernel(g)
        m1, m2 = np.random.default_rng(29).standard_normal((2, 3) + g.shape)
        h1 = demag_field(k, m1)
        kept = h1.copy()
        h2 = demag_field(k, m2)
        assert not np.shares_memory(h1, h2)
        assert np.array_equal(h1, kept)

    def test_kernels_keep_their_own_buffers(self):
        kernels = [build_demag_kernel(Grid(64, 64, 3, 1.0, 1.0, 0.02)),
                   build_demag_kernel(Grid(6, 5, 2, 1.0, 1.0, 0.5))]
        rng = np.random.default_rng(30)
        for k in kernels * 3:
            m = rng.standard_normal((3,) + k.grid.shape)
            assert np.array_equal(demag_field(k, m), demag_field(_fresh(k), m))

    def test_buffers_are_not_spectra(self):
        # physics.kernel_mb sums the spectra; the slab buffers stay out of it
        k = build_demag_kernel(Grid(8, 8, 2, 1.0, 1.0, 0.25))
        before = {c: a.nbytes for c, a in k.fft.items()}
        demag_field(k, np.ones((3,) + k.grid.shape))
        assert {c: a.nbytes for c, a in k.fft.items()} == before
        assert not any(np.shares_memory(a, view) for a in k.fft.values()
                       for slab in k._slabs for view in slab[2:])

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


def _aharoni_dz(a, b, c):
    """Demagnetizing factor D_z of the prism |x| <= a, |y| <= b, |z| <= c in
    closed form (A. Aharoni, J. Appl. Phys. 83, 3432 (1998)),
    evaluated in 40-digit arithmetic; D_x = D_z(b, c, a), D_y = D_z(c, a, b)."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        a, b, c = mp.mpf(a), mp.mpf(b), mp.mpf(c)
        r = mp.sqrt(a * a + b * b + c * c)
        ab, bc, ac = mp.sqrt(a * a + b * b), mp.sqrt(b * b + c * c), mp.sqrt(a * a + c * c)
        total = ((b * b - c * c) / (2 * b * c) * mp.log((r - a) / (r + a))
                 + (a * a - c * c) / (2 * a * c) * mp.log((r - b) / (r + b))
                 + b / (2 * c) * mp.log((ab + a) / (ab - a))
                 + a / (2 * c) * mp.log((ab + b) / (ab - b))
                 + c / (2 * a) * mp.log((bc - b) / (bc + b))
                 + c / (2 * b) * mp.log((ac - a) / (ac + a))
                 + 2 * mp.atan(a * b / (c * r))
                 + (a ** 3 + b ** 3 - 2 * c ** 3) / (3 * a * b * c)
                 + (a * a + b * b - 2 * c * c) / (3 * a * b * c) * r
                 + c / (a * b) * (ac + bc)
                 - (ab ** 3 + bc ** 3 + ac ** 3) / (3 * a * b * c))
        return float(total / mp.pi)


class TestDemagFactors:
    """The cell-averaged field of a uniformly magnetized prism, averaged over
    its cells, is the prism's magnetometric demagnetizing factor: an
    independent closed form for the whole kernel and convolution."""

    def test_closed_form_sums_to_one(self):
        a, b, c = 0.15, 0.85, 0.45
        total = _aharoni_dz(b, c, a) + _aharoni_dz(c, a, b) + _aharoni_dz(a, b, c)
        assert abs(total - 1.0) < 1e-15
        assert abs(_aharoni_dz(1, 1, 1) - 1 / 3) < 1e-16

    # measured errors: cube 6e-17 to 1.1e-16, film 8e-14 to 4.5e-13,
    # thin film 4e-16 to 9e-16
    @pytest.mark.parametrize("shape,extent", [
        ((16, 16, 16), (1.0, 1.0, 1.0)), ((40, 20, 2), (2.0, 1.0, 0.1)),
        ((64, 64, 3), (1.0, 1.0, 0.02)),
    ], ids=["cube", "film", "thin-film"])
    def test_mean_field_is_aharoni_factor(self, shape, extent):
        g = Grid(*shape, *extent)
        k = build_demag_kernel(g)
        a, b, c = (e / 2 for e in extent)
        exact = (_aharoni_dz(b, c, a), _aharoni_dz(c, a, b), _aharoni_dz(a, b, c))
        for i in range(3):
            m = np.zeros((3,) + g.shape)
            m[i] = 1.0
            factor = -demag_field(k, m)[i].mean()
            assert abs(factor - exact[i]) < 1e-12, (i, factor, exact[i])

    def test_square_film_factors_agree(self):
        # x and y are interchangeable on a square film; measured 2.5e-15
        g = Grid(64, 64, 3, 1.0, 1.0, 0.02)
        k = build_demag_kernel(g)
        factors = []
        for i in range(2):
            m = np.zeros((3,) + g.shape)
            m[i] = 1.0
            factors.append(-demag_field(k, m)[i].mean())
        assert abs(factors[0] - factors[1]) < 1e-14 * factors[0], factors


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

    @pytest.mark.parametrize("stray", [False, True])
    def test_equals_the_term_by_term_sum(self, stray):
        # the reference: -q m on a zero array, then h_ext, then h_s
        g = Grid(3, 2, 2, 1.0, 1.0, 0.5)
        params = MaterialParams(eps=1.0, alpha=0.1, q=0.3, h_ext=(0.2, -0.1, 0.0),
                                stray_enabled=stray)
        k = build_demag_kernel(g) if stray else None
        m = np.random.default_rng(24).standard_normal((3,) + g.shape)
        want = np.zeros_like(m)
        want[1] -= params.q * m[1]
        want[2] -= params.q * m[2]
        want += np.asarray(params.h_ext)[:, None, None, None]
        if stray:
            want += demag_field(k, m)
        assert np.array_equal(local_field(params, m, k), want)

    # (grid, params, seed): the golden stray film and field family
    CARRIED = {
        "stray-film": (Grid(6, 5, 2, 1.0, 0.8, 0.1),
                       MaterialParams(eps=0.05, alpha=0.1, q=0.3,
                                      h_ext=(0.0, 0.1, 0.0), stray_enabled=True),
                       31),
        "field": (Grid(4, 3, 2, 1.0, 0.75, 0.5),
                  MaterialParams(eps=1.0, alpha=0.1, q=2.0, h_ext=(0.0, 0.5, 0.0)),
                  11),
    }

    @pytest.mark.parametrize("family", sorted(CARRIED))
    @pytest.mark.parametrize("scheme", ["gspm1", "si2", "scheme-a", "scheme-b",
                                        "bdf2-ref"])
    def test_carried_field_is_the_evaluated_one(self, scheme, family):
        # after the bootstrap and one step of the scheme, the carried f is
        # f(m^n) bit for bit, and the energy read from it is the energy
        from gspm2.convergence import integrate
        g, params, seed = self.CARRIED[family]
        k = build_demag_kernel(g) if params.stray_enabled else None
        rng = np.random.default_rng(seed)
        m0 = rng.standard_normal((3,) + g.shape)
        m0 /= np.sqrt((m0 * m0).sum(axis=0))
        state = integrate(scheme, m0, g, params, 1e-3, 2, kernel=k).state
        assert np.array_equal(state.f_curr, local_field(params, state.m_curr, k))
        carried = state.f_curr.copy()
        assert (energy(params, g, state.m_curr, k, field=state.f_curr)
                == energy(params, g, state.m_curr, k))
        assert np.array_equal(state.f_curr, carried)

    @pytest.mark.parametrize("shape", [(4, 4, 2), (2, 4, 4, 2), (3, 4, 4)],
                             ids=["no-component-axis", "two-components", "three-axes"])
    def test_rejects_m_without_three_components(self, shape):
        # without the check a (4, 4, 2) m took its x rows as components
        params = MaterialParams(eps=1.0, alpha=0.1, q=1.0)
        with pytest.raises(ValueError, match="m must have shape"):
            local_field(params, np.ones(shape))

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
        # with the stray field alone, f is h_s
        assert energy(params, g, m, field=hs) == e

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

    @pytest.mark.parametrize("m_shape,field_shape", [
        ((3, 5, 3, 2), None), ((2, 4, 3, 2), None), ((3, 4, 3, 2), (3, 1, 1, 1)),
        ((3, 4, 3, 2), (3, 4, 3)),
    ], ids=["m-of-another-grid", "m-of-two-components", "broadcast-field",
            "field-of-another-shape"])
    def test_rejects_wrong_shape(self, m_shape, field_shape):
        # m of 5x3x2 against a 4x3x2 grid gave a number, and so did a field
        # that only broadcasts
        g = Grid(4, 3, 2, 1.0, 1.0, 1.0)
        params = MaterialParams(eps=1.0, alpha=0.1, q=0.5)
        rng = np.random.default_rng(26)
        m = rng.standard_normal(m_shape)
        m /= np.sqrt((m * m).sum(axis=0))
        field = None if field_shape is None else np.ones(field_shape)
        with pytest.raises(ValueError, match=r"must have shape \(3, 4, 3, 2\)"):
            energy(params, g, m, field=field)

    def test_warns_off_sphere(self):
        g = Grid(2, 1, 1, 1.0, 1.0, 1.0)
        params = MaterialParams(eps=1.0, alpha=0.1)
        with pytest.warns(UserWarning):
            energy(params, g, 2.0 * uniform_field(g, (0, 0, 1)))
