"""Time integrators for unit-magnetization dynamics.

Every stepper consumes a :class:`SchemeState` and returns a fresh one; inputs
are never mutated. The second-order methods share three ingredients: the
extrapolation m_hat = 2 m^n - m^(n-1), stiffly damped implicit solves with the
operator L = I - eps*dt*Lap + (eps*dt)^2*Lap^2 (the dt^2-biharmonic term is
what lifts the auxiliary-field approximation of Lap(m) to second order), and a
final pointwise projection onto the unit sphere.

The three Gauss-Seidel methods share one sweep, `_gauss_seidel_sweep`. Row
i = 1, 2, 3 (with j, k the next two, cyclically) computes

    m_i* = w [base_i - (h_j g_k - h_k g_j) - alpha (h.g) h_i + alpha |h|^2 g_i
              + dt src_i],

refreshes the slot h_i from m_i* and re-solves g_i = L^(-1)(h_i + dt f_i), so
that the later rows see the update; after row 3 only when a solve follows it.
The steppers differ only in what they pass:

- `gspm1_step`, first order, five solves with the heat operator
  L = I - eps*dt*Lap: base = h = m^n, w = 1, slot h_i = m_i*, g solved from
  m^n. Only m_curr is consumed, so it also bootstraps the two-level methods.
- `scheme_a_step`, five solves, unconditionally stable in practice:
  base = 2 m^n - m^(n-1)/2, h = m_hat, w = 2/3, slot h_i = 2 m_i* - 2 m_i^n +
  m_i^(n-1) (second order at t_(n+1), as m_hat is), g solved from m_hat.
- `scheme_b_step`, three solves, CFL constant near 0.25: as scheme-a, but g
  is lagged from the previous step and a solve q_3 follows row 3. By
  linearity of L the next step's g, L^(-1)(2 m^(n+1) - m^n + dt f), is q + d
  with d = L^(-1)(m^n - m^(n-1)) carried alongside, and the next d is
  (q + 2 d - g) / 2. `scheme_b_init` builds g^0 and d^0.

`si2_step` is the plain non-Gauss-Seidel baseline and `bdf2_reference_step` a
fully coupled semi-implicit solve used as a reference integrator.

The pointwise field f(m) (anisotropy, applied, stray) enters each step once,
at the extrapolated state, and is never refreshed inside the Gauss-Seidel
sweep. Anisotropy and the applied field are evaluated at m_hat directly. The
stray field is linear in m, so h_s(m_hat) = 2 h_s(m^n) - h_s(m^(n-1)) exactly
in exact arithmetic: the state carries h_s of its two levels, and each step
evaluates the stray field once, by one convolution of the projected
m^(n+1) in `_finish`. The first-order step uses h_s(m^n) as carried. Runs
without a stray field carry nothing and call `local_field` as before.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import spectral
from .mesh import laplacian
from .physics import DemagKernel, MaterialParams, demag_field, local_field

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

    g_prev and d_prev are populated only for three-solve (scheme B) runs,
    after :func:`scheme_b_init`: g_prev approximates L^(-1)(m_hat + dt f) at
    the current extrapolation, d_prev approximates L^(-1)(m^n - m^(n-1)).
    hs_prev and hs_curr are the stray fields h_s(m^(n-1)) and h_s(m^n) of
    runs with the stray field on; a state built without them gets them at
    its first step.
    """

    m_prev: np.ndarray
    m_curr: np.ndarray
    t: float = 0.0
    step_index: int = 0
    g_prev: np.ndarray | None = None
    d_prev: np.ndarray | None = None
    hs_prev: np.ndarray | None = None
    hs_curr: np.ndarray | None = None

    @classmethod
    def from_initial(cls, m0: np.ndarray) -> "SchemeState":
        return cls(m_prev=m0, m_curr=m0)


def extrapolate(m_prev: np.ndarray, m_curr: np.ndarray) -> np.ndarray:
    """2 m_curr - m_prev; note the result is generally not unit length."""
    if m_prev.shape != m_curr.shape:
        raise ValueError(f"shape mismatch {m_prev.shape} vs {m_curr.shape}")
    return 2.0 * m_curr - m_prev


def _normalized(m: np.ndarray, context: str, magnitude_cap: float | None) -> np.ndarray:
    mag = np.sqrt((m * m).sum(axis=0))
    if not np.isfinite(mag).all():
        raise BlowUpError(f"non-finite magnetization in {context}")
    if magnitude_cap is not None and mag.max() > magnitude_cap:
        cell = tuple(int(c) for c in np.unravel_index(int(mag.argmax()), mag.shape))
        raise BlowUpError(
            f"pre-projection magnitude {mag.max():.3g} > {magnitude_cap} at cell "
            f"{cell} in {context}")
    if mag.min() < PROJECTION_FLOOR:
        cell = tuple(int(c) for c in np.unravel_index(int(mag.argmin()), mag.shape))
        raise BlowUpError(
            f"magnitude {mag.min():.3g} below {PROJECTION_FLOOR} at cell {cell} "
            f"in {context}")
    return m / mag


def project(m: np.ndarray) -> np.ndarray:
    """Normalize each cell onto the unit sphere.

    A magnitude below 1e-12 anywhere is a hard error naming the cell; it
    signals blow-up and is what the stability scanner listens for.
    """
    return _normalized(np.asarray(m, dtype=float), "projection", None)


def unit_length_deviation(m: np.ndarray) -> float:
    """max over cells of ||m| - 1|; at most a few machine epsilons post-projection."""
    mag = np.sqrt((m * m).sum(axis=0))
    return float(np.abs(mag - 1.0).max())


def with_stray_field(state: SchemeState, params: MaterialParams,
                     kernel: DemagKernel | None) -> SchemeState:
    """The state with h_s of both levels filled in, if the run has a stray
    field and the state lacks them; one convolution when the levels are the
    same array (an initial state), two otherwise."""
    if not params.stray_enabled or state.hs_curr is not None:
        return state
    if kernel is None:
        raise ValueError("stray field enabled but no demag kernel supplied")
    hs_curr = demag_field(kernel, state.m_curr)
    hs_prev = (hs_curr if state.m_prev is state.m_curr
               else demag_field(kernel, state.m_prev))
    return replace(state, hs_prev=hs_prev, hs_curr=hs_curr)


def _field_of(params: MaterialParams, m: np.ndarray,
              stray: np.ndarray | None) -> np.ndarray | None:
    return local_field(params, m, stray=stray) if params.has_local_field else None


def _field_at_hat(state: SchemeState, params: MaterialParams,
                  m_hat: np.ndarray) -> np.ndarray | None:
    """f(m_hat), its stray part 2 h_s(m^n) - h_s(m^(n-1)) from the carried pair."""
    stray = None
    if state.hs_curr is not None:
        stray = 2.0 * state.hs_curr - state.hs_prev
    return _field_of(params, m_hat, stray)


def _source_of(source, grid, t: float) -> np.ndarray | None:
    if source is None:
        return None
    X, Y, Z = grid.centers
    return np.asarray(source(X, Y, Z, t), dtype=float)


def _finish(state: SchemeState, m_star: np.ndarray, dt: float, context: str,
            params: MaterialParams, kernel, g_prev=None,
            d_prev=None) -> SchemeState:
    """Project onto the sphere; evaluate the step's one stray field on the
    projected m^(n+1) and shift the carried pair along."""
    m_next = _normalized(m_star, context, BLOWUP_MAGNITUDE)
    hs_next = demag_field(kernel, m_next) if params.stray_enabled else None
    return SchemeState(m_prev=state.m_curr, m_curr=m_next, t=state.t + dt,
                       step_index=state.step_index + 1, g_prev=g_prev,
                       d_prev=d_prev, hs_prev=state.hs_curr, hs_curr=hs_next)


def _solver(plan: spectral.SpectralPlan, a: float, b: float,
            phi: np.ndarray | None, dt: float):
    """solve(x, i) = L^(-1)(x + dt f_i) with L = I - a*Lap + b*Lap^2 and f the
    step's frozen field phi (None: no local field); x is component i, or by
    default all three."""

    def solve(x, i=...):
        return spectral.solve(plan, x if phi is None else x + dt * phi[i], a, b)

    return solve


def _second_order_solver(state: SchemeState, params: MaterialParams,
                         plan: spectral.SpectralPlan, dt: float):
    """m_hat and the solve of the second-order steps, with f(m_hat)."""
    m_hat = extrapolate(state.m_prev, state.m_curr)
    a = params.eps * dt
    return m_hat, _solver(plan, a, a * a, _field_at_hat(state, params, m_hat), dt)


def _gauss_seidel_sweep(state: SchemeState, h, g, solve, alpha: float,
                        src: np.ndarray | None, dt: float, *, bdf2: bool,
                        solve_last: bool = False):
    """The cyclic row update of the module docstring; returns m* and the final
    auxiliary fields. bdf2 selects base 2 m^n - m^(n-1)/2, the 2/3 weight and
    the second-order slot refresh; otherwise base is m^n and the slot m_i*."""
    mp, mc = state.m_prev, state.m_curr
    base = 2.0 * mc - 0.5 * mp if bdf2 else mc
    h, g, rows = list(h), list(g), []
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        m_i = (base[i] - (h[j] * g[k] - h[k] * g[j])
               - alpha * (h[0] * g[0] + h[1] * g[1] + h[2] * g[2]) * h[i]
               + alpha * (h[0] * h[0] + h[1] * h[1] + h[2] * h[2]) * g[i])
        if src is not None:
            m_i += dt * src[i]
        if bdf2:
            m_i *= 2.0 / 3.0
        rows.append(m_i)
        if i < 2 or solve_last:
            h[i] = 2.0 * m_i - 2.0 * mc[i] + mp[i] if bdf2 else m_i
            g[i] = solve(h[i], i)
    return np.stack(rows), g


def gspm1_step(state: SchemeState, params: MaterialParams, plan: spectral.SpectralPlan,
               dt: float, *, kernel: DemagKernel | None = None,
               source=None) -> SchemeState:
    """One first-order Gauss-Seidel projection step (five heat-equation solves)."""
    state = with_stray_field(state, params, kernel)
    src = _source_of(source, plan.grid, state.t + dt)
    m = state.m_curr
    solve = _solver(plan, params.eps * dt, 0.0,
                    _field_of(params, m, state.hs_curr), dt)
    m_star, _ = _gauss_seidel_sweep(state, m, solve(m), solve, params.alpha, src,
                                    dt, bdf2=False)
    return _finish(state, m_star, dt, f"first-order step {state.step_index}",
                   params, kernel)


def si2_step(state: SchemeState, params: MaterialParams, plan: spectral.SpectralPlan,
             dt: float, *, kernel: DemagKernel | None = None,
             source=None) -> SchemeState:
    """Plain second-order step: three biharmonic-type solves, one BDF2 update.

    No Gauss-Seidel refresh; this is the baseline whose stability the
    five-solve variant improves on. The damping triple product is expanded as
    (m_hat . G) m_hat - |m_hat|^2 G since |m_hat| differs from 1.
    """
    state = with_stray_field(state, params, kernel)
    m_hat, solve = _second_order_solver(state, params, plan, dt)
    m_star = solve(m_hat)
    src = _source_of(source, plan.grid, state.t + dt)

    G = m_star - m_hat
    cross = np.cross(m_hat, G, axis=0)
    dot = (m_hat * G).sum(axis=0)
    hat2 = (m_hat * m_hat).sum(axis=0)
    m_tilde = (2.0 * state.m_curr - 0.5 * state.m_prev
               - cross - params.alpha * (dot * m_hat - hat2 * G))
    if src is not None:
        m_tilde += dt * src
    m_tilde *= 2.0 / 3.0

    return _finish(state, m_tilde, dt, f"plain second-order step {state.step_index}",
                   params, kernel)


def scheme_a_step(state: SchemeState, params: MaterialParams,
                  plan: spectral.SpectralPlan, dt: float, *,
                  kernel: DemagKernel | None = None, source=None) -> SchemeState:
    """One step of the five-solve Gauss-Seidel method (unconditional stability)."""
    state = with_stray_field(state, params, kernel)
    src = _source_of(source, plan.grid, state.t + dt)
    m_hat, solve = _second_order_solver(state, params, plan, dt)
    m_star, _ = _gauss_seidel_sweep(state, m_hat, solve(m_hat), solve,
                                    params.alpha, src, dt, bdf2=True)
    return _finish(state, m_star, dt, f"five-solve step {state.step_index}",
                   params, kernel)


def scheme_b_init(state: SchemeState, params: MaterialParams,
                  plan: spectral.SpectralPlan, dt: float, *,
                  kernel: DemagKernel | None = None) -> SchemeState:
    """Populate the lagged fields g^0 = L^(-1)(2 m^1 - m^0 + dt f(m_hat)) and
    d^0 = L^(-1)(m^1 - m^0).

    g^0 is built exactly as every later carried field is, local field
    included. Expects a state holding m^0 and m^1 (the latter from one
    first-order bootstrap step). Six solves, once per run.
    """
    state = with_stray_field(state, params, kernel)
    m_hat, solve = _second_order_solver(state, params, plan, dt)
    a = params.eps * dt
    d0 = spectral.solve(plan, state.m_curr - state.m_prev, a, a * a)
    return replace(state, g_prev=solve(m_hat), d_prev=d0)


def scheme_b_step(state: SchemeState, params: MaterialParams,
                  plan: spectral.SpectralPlan, dt: float, *,
                  kernel: DemagKernel | None = None, source=None) -> SchemeState:
    """One step of the three-solve Gauss-Seidel method (CFL-limited).

    The carried g holds f from one step back (see notes/criterion1.md).
    """
    if state.g_prev is None or state.d_prev is None:
        raise ValueError("three-solve scheme requires scheme_b_init() first")
    state = with_stray_field(state, params, kernel)
    src = _source_of(source, plan.grid, state.t + dt)
    m_hat, solve = _second_order_solver(state, params, plan, dt)
    m_star, q = _gauss_seidel_sweep(state, m_hat, state.g_prev, solve, params.alpha,
                                    src, dt, bdf2=True, solve_last=True)
    q = np.stack(q)
    return _finish(state, m_star, dt, f"three-solve step {state.step_index}",
                   params, kernel, g_prev=q + state.d_prev,
                   d_prev=0.5 * (q + 2.0 * state.d_prev - state.g_prev))


def bdf2_reference_step(state: SchemeState, params: MaterialParams,
                        plan: spectral.SpectralPlan, dt: float, *,
                        kernel: DemagKernel | None = None, source=None,
                        tol: float = 1e-12) -> SchemeState:
    """Coupled semi-implicit BDF2 step, solved matrix-free with GMRES.

    Solves (3/2) m + dt [m_hat x (eps Lap m) + alpha m_hat x (m_hat x
    (eps Lap m))] = 2 m^n - (1/2) m^(n-1) - dt [same torque applied to
    f(m_hat)] + dt g for the three coupled components, preconditioned by the
    per-component heat solve (I - (2/3) eps dt Lap)^(-1), then projects.
    """
    # imported here, not with the module: it adds about 10 MB to the resident
    # memory of every process, and only this reference scheme uses it
    import scipy.sparse.linalg

    state = with_stray_field(state, params, kernel)
    grid = plan.grid
    m_hat = extrapolate(state.m_prev, state.m_curr)
    phi = _field_at_hat(state, params, m_hat)
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
    sol, info = scipy.sparse.linalg.gmres(
        A, b_flat, x0=m_hat.ravel(), rtol=tol, atol=0.0,
        restart=min(50, nflat), maxiter=500, M=M)
    if info != 0:
        residual = float(np.linalg.norm(b_flat - A.matvec(sol))
                         / max(np.linalg.norm(b_flat), 1e-300))
        raise KrylovError(
            f"coupled BDF2 solve did not converge (info={info}, relative "
            f"residual {residual:.3e}) at step {state.step_index}", residual)

    return _finish(state, sol.reshape(shape), dt,
                   f"coupled reference step {state.step_index}", params, kernel)
