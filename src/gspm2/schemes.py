"""Time integrators for unit-magnetization dynamics.

Every stepper consumes a :class:`SchemeState` and returns a fresh one; inputs
are never mutated. The second-order methods share three ingredients: the
extrapolation m_hat = 2 m^n - m^(n-1), stiffly damped implicit solves with the
operator L = I - eps*dt*Lap + (eps*dt)^2*Lap^2 (the dt^2-biharmonic term is
what lifts the auxiliary-field approximation of Lap(m) to second order), and a
final pointwise projection onto the unit sphere.

The four split methods are one step body, `split_step`, that reads a
`SplitScheme` row. Row i = 1, 2, 3 of its sweep (with j, k the next two,
cyclically) computes

    m_i* = w [base_i - (h_j g_k - h_k g_j) - alpha (h.g) h_i + alpha |h|^2 g_i
              + dt src_i].

In the first `refreshed` rows the sweep then refreshes the slot h_i from m_i*
and re-solves g_i = L^(-1)(h_i + dt f_i), so that the later rows see the
update. That count is the Gauss-Seidel structure. A `bdf2` row has
base = 2 m^n - m^(n-1)/2, h = m_hat, w = 2/3, the biharmonic-type L and the
slot h_i = 2 m_i* - 2 m_i^n + m_i^(n-1) (second order at t_(n+1), as m_hat
is); otherwise base = h = m^n, w = 1, the heat operator L = I - eps*dt*Lap
and the slot h_i = m_i*. g is solved from h (three solves) unless the row is
`lagged`.

    row        name       stepper        bdf2   refreshed  lagged  solves
    GSPM1      gspm1      gspm1_step     no     2          no      5
    SI2        si2        si2_step       yes    0          no      3
    SCHEME_A   scheme-a   scheme_a_step  yes    2          no      5
    SCHEME_B   scheme-b   scheme_b_step  yes    3          yes     3

- GSPM1 is first order. Only m_curr is consumed, so it also bootstraps the
  two-level methods.
- SI2 is the plain second-order baseline: every row sees the same h and g,
  so the update is one BDF2 step with the torque frozen at m_hat,
  parabolically CFL-limited.
- SCHEME_A is meant to be unconditionally stable. Its linearised map is not
  about every uniform state; tests/test_stability_map.py pins the radius.
- SCHEME_B has a CFL constant near 0.25. Its g is lagged from the previous
  step, and the refresh of row 3 adds a solve q_3. By linearity of L the
  next step's g, L^(-1)(2 m^(n+1) - m^n + dt f), is q + d with
  d = L^(-1)(m^n - m^(n-1)) carried alongside, and the next d is
  (q + 2 d - g) / 2. `scheme_b_init` builds g^0 and d^0; a step from a
  state without them calls it first.

The sweep, `_sweep`, keeps h and g as (3, ...) arrays of its own (copies
where they would be the state's) and writes the rows into m* with out= and
in-place operations, each one operation of the expression above in
Python's evaluation order, so the rows are bit for bit those of the plain
expression. What does not change from row to row is formed once, in
(3, ...) operations: every row's base, written into m* before the first
row; dt src; and the products h_c g_c and h_c h_c, whose sums left to right
are the two dot products. A refresh renews only its own component's two
products. The rows take their views of these stacks once per step. On
tens of cells a numpy call's fixed cost outweighs its arithmetic, and these
are the calls a row-by-row sweep would repeat.
Every scratch array has the (3, ...) or one-plane size of a row-by-row
sweep, never a larger block: on long lines a block beyond glibc's mmap
threshold would be mapped and faulted in afresh on every step. The scratch
is allocated before m*, the one array the step keeps, and is freed when
`_sweep` returns, before the projection allocates its own. m* is then
projected in place. The projection returns the step's health signal, the
largest ||m*| - 1| before it, which the new state carries as
`projection_deviation`.

`bdf2_reference_step` is a fully coupled semi-implicit solve used as a
reference integrator.

The pointwise field f(m) = -q (m2 e2 + m3 e3) + h_ext + h_s(m) (anisotropy,
applied, stray) enters each step once, at the extrapolated state, and is
never refreshed inside the Gauss-Seidel sweep. f is affine in m, so
f(m_hat) = 2 f(m^n) - f(m^(n-1)) in exact arithmetic: the state carries f of
its two levels, and each step evaluates f once, by one `local_field` call
(and so at most one convolution) on the projected m^(n+1) in `_finish`. The
first-order step uses f(m^n) as carried. A state without the pair gets it at
its first step; runs without a local field carry nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import spectral
from .mesh import laplacian, pointwise_magnitude
from .physics import DemagKernel, MaterialParams, local_field

BLOWUP_MAGNITUDE = 10.0
PROJECTION_FLOOR = 1e-12


class BlowUpError(RuntimeError):
    """A step produced non-finite values or runaway magnitudes."""


class KrylovError(RuntimeError):
    """The coupled implicit solve did not converge; carries the residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class SchemeState:
    """Two magnetization time levels plus optional carried fields.

    g_prev and d_prev are populated only for three-solve (scheme B) runs, by
    :func:`scheme_b_init`, which the first such step calls: g_prev
    approximates L^(-1)(m_hat + dt f) at the current extrapolation, d_prev
    approximates L^(-1)(m^n - m^(n-1)).
    f_prev and f_curr are the pointwise fields f(m^(n-1)) and f(m^n) of runs
    with a local field; a state built without them gets them at its first
    step. projection_deviation is the health signal of the step that made
    the state: max over cells of ||m*| - 1| before its projection, 0 for a
    state no step made.
    """

    m_prev: np.ndarray
    m_curr: np.ndarray
    t: float = 0.0
    step_index: int = 0
    g_prev: np.ndarray | None = None
    d_prev: np.ndarray | None = None
    f_prev: np.ndarray | None = None
    f_curr: np.ndarray | None = None
    projection_deviation: float = 0.0

    @classmethod
    def from_initial(cls, m0: np.ndarray) -> "SchemeState":
        return cls(m_prev=m0, m_curr=m0)


def extrapolate(m_prev: np.ndarray, m_curr: np.ndarray) -> np.ndarray:
    """2 m_curr - m_prev; note the result is generally not unit length."""
    if m_prev.shape != m_curr.shape:
        raise ValueError(f"shape mismatch {m_prev.shape} vs {m_curr.shape}")
    return 2.0 * m_curr - m_prev


def _normalized(m: np.ndarray, context: str, magnitude_cap: float | None) -> float:
    """Divide m, in place, by its per-cell magnitude and return max over cells
    of |magnitude - 1| from the magnitudes' max and min; BlowUpError first
    if a magnitude is non-finite (a NaN or inf anywhere makes their max so),
    above `magnitude_cap` or below PROJECTION_FLOOR."""
    mag = pointwise_magnitude(m)
    top = mag.max()
    if not math.isfinite(top):
        raise BlowUpError(f"non-finite magnetization in {context}")
    if magnitude_cap is not None and top > magnitude_cap:
        cell = tuple(int(c) for c in np.unravel_index(int(mag.argmax()), mag.shape))
        raise BlowUpError(
            f"pre-projection magnitude {top:.3g} > {magnitude_cap} at cell "
            f"{cell} in {context}")
    bottom = mag.min()
    if bottom < PROJECTION_FLOOR:
        cell = tuple(int(c) for c in np.unravel_index(int(mag.argmin()), mag.shape))
        raise BlowUpError(
            f"magnitude {bottom:.3g} below {PROJECTION_FLOOR} at cell {cell} "
            f"in {context}")
    m /= mag
    # |x - 1| rounds monotonically in x, so the extremes give its max exactly
    return float(max(top - 1.0, 1.0 - bottom))


def project(m: np.ndarray) -> np.ndarray:
    """Normalize each cell onto the unit sphere, in a copy: m is unchanged.

    A magnitude below 1e-12 anywhere is a hard error naming the cell; it
    signals blow-up and is what the stability scanner listens for.
    """
    m = np.array(m, dtype=float)
    _normalized(m, "projection", None)
    return m


def unit_length_deviation(m: np.ndarray) -> float:
    """max over cells of ||m| - 1|; at most a few machine epsilons post-projection."""
    return float(np.abs(pointwise_magnitude(m) - 1.0).max())


def _check_shape(state: SchemeState, grid) -> None:
    """ValueError unless m_curr has shape (3,) + the grid's: a step would
    otherwise drop extra components or fail on missing ones."""
    if np.shape(state.m_curr) != (3,) + grid.shape:
        raise ValueError(f"m_curr must have shape {(3,) + grid.shape}, "
                         f"got {np.shape(state.m_curr)}")


def _with_field(state: SchemeState, params: MaterialParams,
                kernel: DemagKernel | None) -> SchemeState:
    """The state with f of both levels filled in, if the run has a local
    field and the state lacks them; one evaluation when the levels are the
    same array (an initial state), two otherwise."""
    if state.f_curr is not None or not params.has_local_field:
        return state
    f_curr = local_field(params, state.m_curr, kernel)
    f_prev = (f_curr if state.m_prev is state.m_curr
              else local_field(params, state.m_prev, kernel))
    return replace(state, f_prev=f_prev, f_curr=f_curr)


def _frozen_field(state: SchemeState,
                  bdf2: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """h, the state the step freezes f at (m_hat for a second-order step, m^n
    otherwise), and f(h) from the carried pair, None without a local field."""
    if not bdf2:
        return state.m_curr, state.f_curr
    h = extrapolate(state.m_prev, state.m_curr)
    return h, None if state.f_curr is None else 2.0 * state.f_curr - state.f_prev


def _source_of(source, grid, t: float) -> np.ndarray | None:
    if source is None:
        return None
    X, Y, Z = grid.centers
    return np.asarray(source(X, Y, Z, t), dtype=float)


def _finish(state: SchemeState, m_star: np.ndarray, dt: float, context: str,
            params: MaterialParams, kernel, g_prev=None,
            d_prev=None) -> SchemeState:
    """Project m_star, which the step owns, onto the sphere in place, keeping
    its pre-projection deviation; evaluate the step's one pointwise field on
    the projected m^(n+1) and shift the carried pair along."""
    deviation = _normalized(m_star, context, BLOWUP_MAGNITUDE)
    f_next = local_field(params, m_star, kernel) if params.has_local_field else None
    return SchemeState(m_prev=state.m_curr, m_curr=m_star, t=state.t + dt,
                       step_index=state.step_index + 1, g_prev=g_prev,
                       d_prev=d_prev, f_prev=state.f_curr, f_curr=f_next,
                       projection_deviation=deviation)


@dataclass(frozen=True)
class SplitScheme:
    """One row of the split-step table in the module docstring; `name`, the
    scheme name `integrate` and the configs take, labels the step in blow-up
    messages."""

    name: str
    bdf2: bool
    refreshed: int
    lagged: bool


GSPM1 = SplitScheme("gspm1", bdf2=False, refreshed=2, lagged=False)
SI2 = SplitScheme("si2", bdf2=True, refreshed=0, lagged=False)
SCHEME_A = SplitScheme("scheme-a", bdf2=True, refreshed=2, lagged=False)
SCHEME_B = SplitScheme("scheme-b", bdf2=True, refreshed=3, lagged=True)


def split_step(state: SchemeState, params: MaterialParams,
               plan: spectral.SpectralPlan, dt: float, scheme: SplitScheme, *,
               kernel: DemagKernel | None, source) -> SchemeState:
    """One step of the split scheme `scheme`: the cyclic row sweep of the
    module docstring, then the projection. A lagged row given a state without
    its lagged fields builds them first with `scheme_b_init`. Raises
    ValueError unless m_curr has shape (3,) + the plan's grid shape."""
    _check_shape(state, plan.grid)
    state = _with_field(state, params, kernel)
    if scheme.lagged and (state.g_prev is None or state.d_prev is None):
        state = scheme_b_init(state, params, plan, dt, kernel=kernel)
    m_star, g = _sweep(state, params, plan, dt, scheme, source)
    context = f"{scheme.name} step {state.step_index}"
    if not scheme.lagged:
        return _finish(state, m_star, dt, context, params, kernel)
    # d^(n+1) = (g + 2 d - g_prev) / 2, in one array
    d_next = np.multiply(state.d_prev, 2.0)
    np.add(g, d_next, out=d_next)
    d_next -= state.g_prev
    d_next *= 0.5
    return _finish(state, m_star, dt, context, params, kernel,
                   g_prev=g + state.d_prev, d_prev=d_next)


def _sweep(state: SchemeState, params: MaterialParams,
           plan: spectral.SpectralPlan, dt: float, scheme: SplitScheme,
           source) -> tuple[np.ndarray, np.ndarray]:
    """(m*, g) of the row sweep, m* unprojected; its scratch is freed on
    return, before the projection allocates its own."""
    src = _source_of(source, plan.grid, state.t + dt)
    if src is not None:
        src = src * dt      # the source's own array is left as it is
    h, f = _frozen_field(state, scheme.bdf2)
    a = params.eps * dt
    b = a * a if scheme.bdf2 else 0.0
    dt_f = None if f is None else dt * f

    def solve(x, i):
        """L^(-1)(x + dt f_i); i = ... solves all three components."""
        return spectral.solve(plan, x if dt_f is None else x + dt_f[i], a, b)

    mp, mc, alpha = state.m_prev, state.m_curr, params.alpha
    # g and h become this step's work arrays; neither may be the state's
    g = state.g_prev.copy() if scheme.lagged else solve(h, ...)
    if not scheme.bdf2 and scheme.refreshed:
        h = h.copy()
    # the products h_c g_c and h_c h_c; a refresh renews its component's.
    # The scratch goes before m*, the one array the step keeps
    hg, hh = h * g, h * h
    dot_hg, dot_hh = np.empty_like(mc[0]), np.empty_like(mc[0])
    t, s = np.empty_like(mc[0]), np.empty_like(mc[0])
    # every row's base, 2 m^n - m^(n-1)/2 or m^n, in (3, ...) operations;
    # m^(n-1)/2 is freed before the rows allocate their solves' arrays
    if scheme.bdf2:
        half_mp = np.multiply(mp, 0.5)
        m_star = np.multiply(mc, 2.0)
        m_star -= half_mp
        del half_mp
    else:
        m_star = mc.copy()
    # the rows of each stack as views, taken once
    H, G, HG, HH = tuple(h), tuple(g), tuple(hg), tuple(hh)
    for i, row in enumerate(m_star):
        j, k = (i + 1) % 3, (i + 2) % 3
        h_i, g_i = H[i], G[i]
        if i == 0 or i <= scheme.refreshed:
            # alpha (h.g) and alpha |h|^2, each summed left to right; only
            # a refresh of the row before changes them
            np.add(HG[0], HG[1], out=dot_hg)
            dot_hg += HG[2]
            dot_hg *= alpha
            np.add(HH[0], HH[1], out=dot_hh)
            dot_hh += HH[2]
            dot_hh *= alpha
        np.multiply(H[j], G[k], out=t)
        t -= np.multiply(H[k], G[j], out=s)
        row -= t
        row -= np.multiply(dot_hg, h_i, out=t)
        row += np.multiply(dot_hh, g_i, out=t)
        if src is not None:
            row += src[i]
        if scheme.bdf2:
            row *= 2.0 / 3.0
        if i < scheme.refreshed:
            if scheme.bdf2:
                np.multiply(row, 2.0, out=h_i)
                h_i -= np.multiply(mc[i], 2.0, out=t)
                h_i += mp[i]
            else:
                h_i[...] = row
            g_i[...] = solve(h_i, i)
            np.multiply(h_i, g_i, out=HG[i])
            np.multiply(h_i, h_i, out=HH[i])
    return m_star, g


def gspm1_step(state: SchemeState, params: MaterialParams, plan: spectral.SpectralPlan,
               dt: float, *, kernel: DemagKernel | None = None,
               source=None) -> SchemeState:
    """One first-order Gauss-Seidel projection step (five heat-equation solves)."""
    return split_step(state, params, plan, dt, GSPM1, kernel=kernel, source=source)


def si2_step(state: SchemeState, params: MaterialParams, plan: spectral.SpectralPlan,
             dt: float, *, kernel: DemagKernel | None = None,
             source=None) -> SchemeState:
    """Plain second-order step: three biharmonic-type solves, one BDF2 update;
    the baseline whose stability the five-solve variant improves on."""
    return split_step(state, params, plan, dt, SI2, kernel=kernel, source=source)


def scheme_a_step(state: SchemeState, params: MaterialParams,
                  plan: spectral.SpectralPlan, dt: float, *,
                  kernel: DemagKernel | None = None, source=None) -> SchemeState:
    """One step of the five-solve Gauss-Seidel method (unconditional stability)."""
    return split_step(state, params, plan, dt, SCHEME_A, kernel=kernel, source=source)


def scheme_b_init(state: SchemeState, params: MaterialParams,
                  plan: spectral.SpectralPlan, dt: float, *,
                  kernel: DemagKernel | None = None) -> SchemeState:
    """Populate the lagged fields g^0 = L^(-1)(2 m^1 - m^0 + dt f(m_hat)) and
    d^0 = L^(-1)(m^1 - m^0).

    g^0 is built exactly as every later carried field is, local field
    included. Expects a state holding m^0 and m^1 (the latter from one
    first-order bootstrap step). Six solves, once per run.
    """
    state = _with_field(state, params, kernel)
    m_hat, f = _frozen_field(state, SCHEME_B.bdf2)
    a = params.eps * dt
    d0 = spectral.solve(plan, state.m_curr - state.m_prev, a, a * a)
    g0 = spectral.solve(plan, m_hat if f is None else m_hat + dt * f, a, a * a)
    return replace(state, g_prev=g0, d_prev=d0)


def scheme_b_step(state: SchemeState, params: MaterialParams,
                  plan: spectral.SpectralPlan, dt: float, *,
                  kernel: DemagKernel | None = None, source=None) -> SchemeState:
    """One step of the three-solve Gauss-Seidel method (CFL-limited). The
    carried g holds f from one step back (see notes/criterion1.md)."""
    return split_step(state, params, plan, dt, SCHEME_B, kernel=kernel, source=source)


def bdf2_reference_step(state: SchemeState, params: MaterialParams,
                        plan: spectral.SpectralPlan, dt: float, *,
                        kernel: DemagKernel | None = None, source=None,
                        tol: float = 1e-12) -> SchemeState:
    """Coupled semi-implicit BDF2 step, solved matrix-free with GMRES.

    Solves (3/2) m + dt [m_hat x (eps Lap m) + alpha m_hat x (m_hat x
    (eps Lap m))] = 2 m^n - (1/2) m^(n-1) - dt [same torque applied to
    f(m_hat)] + dt g for the three coupled components, preconditioned by the
    per-component heat solve (I - (2/3) eps dt Lap)^(-1), then projects.
    Raises KrylovError, naming the relative residual, when GMRES ends
    unconverged or as soon as a restart cycle does not lower the residual,
    and ValueError unless m_curr has shape (3,) + the plan's grid shape.
    """
    # imported here, not with the module: it adds about 10 MB to the resident
    # memory of every process, and only this reference scheme uses it
    import scipy.sparse.linalg

    grid = plan.grid
    _check_shape(state, grid)
    state = _with_field(state, params, kernel)
    m_hat, phi = _frozen_field(state, bdf2=True)
    src = _source_of(source, grid, state.t + dt)
    al = params.alpha

    def torque(h):
        cross = np.cross(m_hat, h, axis=0)
        return cross + al * np.cross(m_hat, cross, axis=0)

    rhs = 2.0 * state.m_curr - 0.5 * state.m_prev
    if phi is not None:
        rhs -= dt * torque(phi)
    if src is not None:
        rhs += dt * src

    shape = (3,) + grid.shape
    nflat = 3 * grid.n_cells

    def matvec(v):
        v = v.reshape(shape)
        lap = params.eps * laplacian(grid, v)
        return (1.5 * v + dt * torque(lap)).ravel()

    def precondition(r):
        out = spectral.solve(plan, r.reshape(shape), (2.0 / 3.0) * params.eps * dt)
        return ((2.0 / 3.0) * out).ravel()

    A = scipy.sparse.linalg.LinearOperator((nflat, nflat), matvec=matvec)
    M = scipy.sparse.linalg.LinearOperator((nflat, nflat), matvec=precondition)
    b_flat = rhs.ravel()
    b_norm = max(np.linalg.norm(b_flat), 1e-300)
    last = np.inf

    def relative_residual(x):
        return float(np.linalg.norm(b_flat - A.matvec(x)) / b_norm)

    def stall_check(x):
        """Called after each restart cycle: one that ends above tol without
        lowering the residual has stalled, so the solve fails there rather
        than running out its remaining cycles."""
        nonlocal last
        residual = relative_residual(x)
        if residual > tol and residual >= last:
            raise KrylovError(
                f"coupled BDF2 solve stalled at relative residual "
                f"{residual:.3e} at step {state.step_index}", residual)
        last = residual

    sol, info = scipy.sparse.linalg.gmres(
        A, b_flat, x0=m_hat.ravel(), rtol=tol, atol=0.0,
        restart=min(50, nflat), maxiter=500, M=M, callback=stall_check,
        callback_type="x")
    if info != 0:
        residual = relative_residual(sol)
        raise KrylovError(
            f"coupled BDF2 solve did not converge (info={info}, relative "
            f"residual {residual:.3e}) at step {state.step_index}", residual)

    return _finish(state, sol.reshape(shape), dt,
                   f"bdf2-ref step {state.step_index}", params, kernel)
