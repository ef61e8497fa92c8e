"""Closed-form test solutions of the exchange-driven magnetization equation.

Each case carries an exact unit-length field m(x, t) together with its time
derivative and Laplacian in closed form, and the source g that makes m solve

    dm/dt = -m x Lap(m) - alpha m x (m x Lap(m)) + g.

The spatial profile is built from a phase whose derivative vanishes at s = 0
and s = 1, so the homogeneous Neumann condition holds exactly on the unit
domain. The default phase is the bump s^2 (1-s)^2; its third derivative is
-12 and +12 at the walls. The "cosine" phase (1 - cos 2 pi s)/32 has the
same peak and symmetry and every odd derivative zero at the walls, so the
solution also satisfies d/dn Lap(m) = 0 there, as every source-free solution
with Neumann walls does (see notes/criterion1.md).

A sourced run evaluates the source on the same grid at every step, and
most of that work does not depend on t. So a case caches, per grid, cos u
and sin u and the two Laplacian brackets -sin u Lap u - cos u |grad u|^2
and cos u Lap u - sin u |grad u|^2, each pair as one (2, ...) stack; the
brackets are built on the first call that needs them, so sampling the
exact field alone does not pay for them. The cache has one entry, keyed by
the identity of the coordinate arrays and holding them by reference. It is
used only for arrays that are read-only and own their data, as
`Grid.centers` are; other coordinates are evaluated afresh on every call.
The arithmetic that depends on t keeps one fixed order, the one the golden
fixtures pin, so a result is the same bit for bit whether its factors come
from the cache or not.

The entry also keeps the source's work arrays, made on its first call:
m's and Lap(m)'s first two components, each pair formed by one product,
the cross products c = m x Lap(m) and d = m x c, and one plane of scratch.
The third components of m and Lap(m), cos t and 0, stay scalars. Every
operation writes into these with out=, and the sum g = dm/dt + c + alpha d
runs on whole stacks, so a call makes 29 numpy calls instead of 38 and
allocates only the array it returns. That array is the caller's: a later
call never writes into it. On a 10,000-cell line the work arrays hold 11
planes, 0.9 MB, for as long as the entry lives. Cross products on stacks that
repeat m's first two components after its third, so that each is three
(3, ...) operations on shifted views, would save nine more calls, but on a
10,000-cell line the repeated rows cost more than the calls: inside a
sourced run such a source took 255-266 us a call against 198-203 us for
this one (2-vCPU VM, one BLAS thread).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def bump(s):
    """s^2 (1-s)^2; zero with zero slope at both ends of [0, 1]."""
    return s * s * (1.0 - s) ** 2


def bump_d1(s):
    return 2.0 * s * (1.0 - s) * (1.0 - 2.0 * s)


def bump_d2(s):
    return 2.0 - 12.0 * s + 12.0 * s * s


def cosine(s):
    """(1 - cos 2 pi s)/32; peak 1/16 at s = 1/2 like the bump."""
    return (1.0 - np.cos(2.0 * np.pi * s)) / 32.0


def cosine_d1(s):
    return np.pi * np.sin(2.0 * np.pi * s) / 16.0


def cosine_d2(s):
    return np.pi ** 2 * np.cos(2.0 * np.pi * s) / 8.0


# phase name -> (u, u', u'')
PHASES = {
    "bump": (bump, bump_d1, bump_d2),
    "cosine": (cosine, cosine_d1, cosine_d2),
}


def _owned_read_only(a) -> bool:
    return (isinstance(a, np.ndarray) and not a.flags.writeable
            and a.flags.owndata)


class _SpatialFactors:
    """The parts of m and Lap(m) that do not depend on t, on one set of
    coordinates: cos u and sin u at once, stacked, the two Laplacian
    brackets on first use (an `exact` call alone needs only the former),
    and the source's work arrays on its first call."""

    def __init__(self, phase: str, dimension: int, coords: tuple):
        self.coords = coords
        self.shape = np.broadcast(*coords).shape
        self._phase = PHASES[phase]
        p = self._phase[0]
        X, Y, Z = coords
        if dimension == 1:
            self._b = None
            u = p(X)
        else:
            bx, by, bz = self._b = (p(X), p(Y), p(Z))
            u = bx * by * bz
        self.cos_sin = np.stack([np.cos(u), np.sin(u)])
        self._brackets = None
        self._scratch = None

    def brackets(self) -> np.ndarray:
        """(-sin u Lap u - cos u |grad u|^2, cos u Lap u - sin u |grad u|^2),
        stacked: Lap(m) is (first, second, 0) sin t, by the chain rule on u."""
        if self._brackets is None:
            _, p1, p2 = self._phase
            X, Y, Z = self.coords
            if self._b is None:
                lap_u = p2(X)
                grad2 = p1(X) ** 2
            else:
                bx, by, bz = self._b
                lap_u = p2(X) * by * bz + bx * p2(Y) * bz + bx * by * p2(Z)
                grad2 = ((p1(X) * by * bz) ** 2
                         + (bx * p1(Y) * bz) ** 2
                         + (bx * by * p1(Z)) ** 2)
            cos_u, sin_u = self.cos_sin
            self._brackets = np.stack([-sin_u * lap_u - cos_u * grad2,
                                       cos_u * lap_u - sin_u * grad2])
        return self._brackets

    def scratch(self) -> tuple:
        """The source's work arrays, made on first use and then reused: m's
        and Lap(m)'s first two components as (2, ...) stacks, c = m x Lap(m)
        and d = m x c as (3, ...) stacks, and one plane."""
        if self._scratch is None:
            shape = self.shape
            self._scratch = (np.empty((2,) + shape), np.empty((2,) + shape),
                             np.empty((3,) + shape), np.empty((3,) + shape),
                             np.empty(shape))
        return self._scratch


@dataclass(frozen=True)
class ManufacturedCase:
    """Exact solution, derivatives, and source for the sourced dynamics.

    With p the named 1D phase (default the bump), dimension 1 uses u = p(x)
    and dimension 3 uses u = p(x) p(y) p(z). In both, m = (cos(u) sin t,
    sin(u) sin t, cos t), which is unit length identically.

    The factors that do not depend on t are kept for the most recent
    coordinates (see the module docstring); the cache takes no part in
    equality, hashing or repr. Not thread safe.
    """

    dimension: int
    alpha: float
    phase: str = "bump"
    _factors: _SpatialFactors | None = field(init=False, repr=False,
                                              compare=False)

    def __post_init__(self):
        if self.dimension not in (1, 3):
            raise ValueError(f"dimension must be 1 or 3, got {self.dimension}")
        if self.phase not in PHASES:
            raise ValueError(f"phase must be one of {sorted(PHASES)}, "
                             f"got {self.phase!r}")
        object.__setattr__(self, "_factors", None)

    def _factors_at(self, X, Y, Z) -> _SpatialFactors:
        """The cached factors when X, Y, Z are the cached arrays; else fresh
        ones, cached only if all three are read-only and own their data."""
        coords = (X, Y, Z)
        cached = self._factors
        if cached is not None and all(a is b for a, b in zip(cached.coords, coords)):
            return cached
        factors = _SpatialFactors(self.phase, self.dimension, coords)
        if all(_owned_read_only(a) for a in coords):
            object.__setattr__(self, "_factors", factors)
        return factors

    def exact(self, X, Y, Z, t: float) -> np.ndarray:
        f = self._factors_at(X, Y, Z)
        st = np.sin(t)
        cos_u, sin_u = f.cos_sin
        return np.stack([
            cos_u * st,
            sin_u * st,
            np.broadcast_to(np.cos(t), f.shape).copy(),
        ])

    def time_derivative(self, X, Y, Z, t: float) -> np.ndarray:
        f = self._factors_at(X, Y, Z)
        ct = np.cos(t)
        cos_u, sin_u = f.cos_sin
        return np.stack([
            cos_u * ct,
            sin_u * ct,
            np.broadcast_to(-np.sin(t), f.shape).copy(),
        ])

    def laplacian(self, X, Y, Z, t: float) -> np.ndarray:
        """Closed-form Lap(m) by the chain rule on the phase u."""
        f = self._factors_at(X, Y, Z)
        lap_a, lap_b = f.brackets()
        st = np.sin(t)
        return np.stack([lap_a * st, lap_b * st, np.zeros(f.shape)])

    def source(self, X, Y, Z, t: float) -> np.ndarray:
        """g = dm/dt + m x Lap(m) + alpha m x (m x Lap(m)), all closed form.

        Uses the cached cos u, sin u and Laplacian brackets of the grid whose
        centers X, Y, Z are (one entry, keyed by the identity of the
        coordinate arrays). What depends on t runs operation for operation
        as `time_derivative + np.cross(m, L) + alpha np.cross(m, np.cross(m,
        L))` with m = `exact` and L = `laplacian` would, so the two agree
        bit for bit.
        """
        f = self._factors_at(X, Y, Z)
        lap_pair = f.brackets()
        m, lap, c, d, tmp = f.scratch()
        st, ct = np.sin(t), np.cos(t)
        # m = (cos u sin t, sin u sin t, cos t), Lap(m) = (first, second, 0)
        # sin t: their last components are the scalars cos t and 0
        np.multiply(f.cos_sin, st, out=m)
        np.multiply(lap_pair, st, out=lap)
        (m0, m1), (l0, l1) = m, lap
        (c0, c1, c2), (d0, d1, d2) = c, d
        # c = m x Lap(m), then d = m x c, in np.cross's component order
        np.multiply(m1, 0.0, out=c0)
        c0 -= np.multiply(ct, l1, out=tmp)
        np.multiply(ct, l0, out=c1)
        c1 -= np.multiply(m0, 0.0, out=tmp)
        np.multiply(m0, l1, out=c2)
        c2 -= np.multiply(m1, l0, out=tmp)
        np.multiply(m1, c2, out=d0)
        d0 -= np.multiply(ct, c1, out=tmp)
        np.multiply(ct, c0, out=d1)
        d1 -= np.multiply(m0, c2, out=tmp)
        np.multiply(m0, c1, out=d2)
        d2 -= np.multiply(m1, c0, out=tmp)
        # g = dm/dt + c + alpha d, summed in that order, in the array it is
        # returned in: the caller's, never written by a later call
        g = np.empty((3,) + f.shape)
        np.multiply(f.cos_sin, ct, out=g[:2])
        g[2] = -st
        g += c
        d *= self.alpha
        g += d
        return g


def case_1d(alpha: float, phase: str = "bump") -> ManufacturedCase:
    return ManufacturedCase(dimension=1, alpha=alpha, phase=phase)


def case_3d(alpha: float, phase: str = "bump") -> ManufacturedCase:
    return ManufacturedCase(dimension=3, alpha=alpha, phase=phase)


def neel_wall_initial(eta: float):
    """In-plane wall profile (tanh(l), sech(l), 0), l = (0.5 - x)/(2 eta).

    Sampling function for the 2D benchmark without source; eta is usually the
    mesh spacing.
    """

    def fn(X, Y, Z):
        ell = (0.5 - X) / (2.0 * eta)
        return np.tanh(ell), 1.0 / np.cosh(ell), np.zeros_like(X)

    return fn
