"""Time integrators for unit-magnetization dynamics.

Every stepper consumes a :class:`SchemeState` and returns a fresh one; inputs
are never mutated. The second-order methods share three ingredients: the
extrapolation m_hat = 2 m^n - m^(n-1), stiffly damped implicit solves with the
operator L = I - eps*dt*Lap + (eps*dt)^2*Lap^2 (the dt^2-biharmonic term is
what lifts the auxiliary-field approximation of Lap(m) to second order), and a
final pointwise projection onto the unit sphere.

Two Gauss-Seidel variants are provided. Both refresh an updated component's
slot to 2 m_i* - 2 m_i^n + m_i^(n-1), a second-order approximation of m_i at
t_(n+1), before it feeds the later rows. `scheme_a_step` re-solves the first
two auxiliary components within the step (five solves per step,
unconditionally stable in practice). `scheme_b_step` instead carries the
refreshed auxiliary fields over to the next step (three solves per step,
conditionally stable with a CFL constant near 0.25). `si2_step` is the plain
non-Gauss-Seidel baseline, `gspm1_step` the first-order method used to
bootstrap the two-level schemes, and `bdf2_reference_step` a fully coupled
semi-implicit solve used as a reference integrator.

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
import scipy.sparse.linalg

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


def gspm1_step(state: SchemeState, params: MaterialParams, plan: spectral.SpectralPlan,
               dt: float, *, kernel: DemagKernel | None = None,
               source=None) -> SchemeState:
    """One first-order Gauss-Seidel projection step (five heat-equation solves).

    Auxiliary fields g_i = (I - eps*dt*Lap)^(-1)(m_i + dt f_i(m)) stand in for
    m_i + dt (eps Lap m_i + f_i); the first two are re-solved from the updated
    components before they feed the later rows. Only m_curr of the state is
    consumed, so this also bootstraps the two-level methods.
    """
    state = with_stray_field(state, params, kernel)
    a = params.eps * dt
    m1, m2, m3 = state.m_curr
    phi = _field_of(params, state.m_curr, state.hs_curr)

    def rhs(i, comp):
        return comp if phi is None else comp + dt * phi[i]

    g1 = spectral.solve(plan, rhs(0, m1), a)
    g2 = spectral.solve(plan, rhs(1, m2), a)
    g3 = spectral.solve(plan, rhs(2, m3), a)
    src = _source_of(source, plan.grid, state.t + dt)
    al = params.alpha

    m1s = (m1 - (m2 * g3 - m3 * g2)
           - al * (m1 * g1 + m2 * g2 + m3 * g3) * m1
           + al * (m1 * m1 + m2 * m2 + m3 * m3) * g1)
    if src is not None:
        m1s += dt * src[0]
    g1 = spectral.solve(plan, rhs(0, m1s), a)

    m2s = (m2 - (m3 * g1 - m1s * g3)
           - al * (m1s * g1 + m2 * g2 + m3 * g3) * m2
           + al * (m1s * m1s + m2 * m2 + m3 * m3) * g2)
    if src is not None:
        m2s += dt * src[1]
    g2 = spectral.solve(plan, rhs(1, m2s), a)

    m3s = (m3 - (m1s * g2 - m2s * g1)
           - al * (m1s * g1 + m2s * g2 + m3 * g3) * m3
           + al * (m1s * m1s + m2s * m2s + m3 * m3) * g3)
    if src is not None:
        m3s += dt * src[2]

    return _finish(state, np.stack([m1s, m2s, m3s]), dt,
                   f"first-order step {state.step_index}", params, kernel)


def si2_step(state: SchemeState, params: MaterialParams, plan: spectral.SpectralPlan,
             dt: float, *, kernel: DemagKernel | None = None,
             source=None) -> SchemeState:
    """Plain second-order step: three biharmonic-type solves, one BDF2 update.

    No Gauss-Seidel refresh; this is the baseline whose stability the
    five-solve variant improves on. The damping triple product is expanded as
    (m_hat . G) m_hat - |m_hat|^2 G since |m_hat| differs from 1.
    """
    state = with_stray_field(state, params, kernel)
    m_hat = extrapolate(state.m_prev, state.m_curr)
    a = params.eps * dt
    b = a * a
    phi = _field_at_hat(state, params, m_hat)
    m_star = np.stack([
        spectral.solve(plan, m_hat[i] if phi is None else m_hat[i] + dt * phi[i], a, b)
        for i in range(3)
    ])
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
    """One step of the five-solve Gauss-Seidel method (unconditional stability).

    Sequence: solve g_i* = L^(-1)(m_hat_i + dt f_i(m_hat)) for i = 1, 2, 3;
    update the first component; refresh its slot to m_hat_1* = 2 m_1* -
    2 m_1^n + m_1^(n-1), which approximates m_1(t_(n+1)) to second order as
    m_hat_1 does, and re-solve its auxiliary field; same for the second
    component; update the third. Second order in time. The |m_hat|^2 and
    dot-product factors always use the freshest available components.
    f(m_hat), including the stray field, enters every solve of the step.
    """
    state = with_stray_field(state, params, kernel)
    m_hat = extrapolate(state.m_prev, state.m_curr)
    mh1, mh2, mh3 = m_hat
    a = params.eps * dt
    b = a * a
    phi = _field_at_hat(state, params, m_hat)

    def rhs(i, comp):
        return comp if phi is None else comp + dt * phi[i]

    g1 = spectral.solve(plan, rhs(0, mh1), a, b)
    g2 = spectral.solve(plan, rhs(1, mh2), a, b)
    g3 = spectral.solve(plan, rhs(2, mh3), a, b)
    src = _source_of(source, plan.grid, state.t + dt)
    al = params.alpha
    mp, mc = state.m_prev, state.m_curr

    m1s = (2.0 * mc[0] - 0.5 * mp[0]
           - (mh2 * g3 - mh3 * g2)
           - al * (mh1 * g1 + mh2 * g2 + mh3 * g3) * mh1
           + al * (mh1 * mh1 + mh2 * mh2 + mh3 * mh3) * g1)
    if src is not None:
        m1s += dt * src[0]
    m1s *= 2.0 / 3.0
    mh1s = 2.0 * m1s - 2.0 * mc[0] + mp[0]
    g1n = spectral.solve(plan, rhs(0, mh1s), a, b)

    m2s = (2.0 * mc[1] - 0.5 * mp[1]
           - (mh3 * g1n - mh1s * g3)
           - al * (mh1s * g1n + mh2 * g2 + mh3 * g3) * mh2
           + al * (mh1s * mh1s + mh2 * mh2 + mh3 * mh3) * g2)
    if src is not None:
        m2s += dt * src[1]
    m2s *= 2.0 / 3.0
    mh2s = 2.0 * m2s - 2.0 * mc[1] + mp[1]
    g2n = spectral.solve(plan, rhs(1, mh2s), a, b)

    m3s = (2.0 * mc[2] - 0.5 * mp[2]
           - (mh1s * g2n - mh2s * g1n)
           - al * (mh1s * g1n + mh2s * g2n + mh3 * g3) * mh3
           + al * (mh1s * mh1s + mh2s * mh2s + mh3 * mh3) * g3)
    if src is not None:
        m3s += dt * src[2]
    m3s *= 2.0 / 3.0

    return _finish(state, np.stack([m1s, m2s, m3s]), dt,
                   f"five-solve step {state.step_index}", params, kernel)


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
    a = params.eps * dt
    b = a * a
    m_hat = extrapolate(state.m_prev, state.m_curr)
    phi = _field_at_hat(state, params, m_hat)
    rhs = m_hat if phi is None else m_hat + dt * phi
    g0 = np.stack([spectral.solve(plan, rhs[i], a, b) for i in range(3)])
    d0 = np.stack([spectral.solve(plan, state.m_curr[i] - state.m_prev[i], a, b)
                   for i in range(3)])
    return replace(state, g_prev=g0, d_prev=d0)


def scheme_b_step(state: SchemeState, params: MaterialParams,
                  plan: spectral.SpectralPlan, dt: float, *,
                  kernel: DemagKernel | None = None, source=None) -> SchemeState:
    """One step of the three-solve Gauss-Seidel method (CFL-limited).

    Row 1 consumes the auxiliary fields g lagged from the previous step. After
    each row its slot is refreshed to m_hat_i* = 2 m_i* - 2 m_i^n + m_i^(n-1)
    (second order at t_(n+1)) and q_i = L^(-1)(m_hat_i* + dt f_i(m_hat)) is
    solved; q_i feeds the remaining rows. By linearity of L, the field the
    next step needs, L^(-1)(2 m^(n+1) - m^n + dt f), is q + d with
    d = L^(-1)(m^n - m^(n-1)) carried alongside, and the next d is
    (q + 2 d - g) / 2. Exactly three solves per step; second order in time.
    The carried g holds f from one step back (see notes/criterion1.md).
    """
    if state.g_prev is None or state.d_prev is None:
        raise ValueError("three-solve scheme requires scheme_b_init() first")
    state = with_stray_field(state, params, kernel)
    g1p, g2p, g3p = state.g_prev
    m_hat = extrapolate(state.m_prev, state.m_curr)
    mh1, mh2, mh3 = m_hat
    a = params.eps * dt
    b = a * a
    phi = _field_at_hat(state, params, m_hat)

    def rhs(i, comp):
        return comp if phi is None else comp + dt * phi[i]

    src = _source_of(source, plan.grid, state.t + dt)
    al = params.alpha
    mp, mc = state.m_prev, state.m_curr

    m1s = (2.0 * mc[0] - 0.5 * mp[0]
           - (mh2 * g3p - mh3 * g2p)
           - al * (mh1 * g1p + mh2 * g2p + mh3 * g3p) * mh1
           + al * (mh1 * mh1 + mh2 * mh2 + mh3 * mh3) * g1p)
    if src is not None:
        m1s += dt * src[0]
    m1s *= 2.0 / 3.0
    mh1s = 2.0 * m1s - 2.0 * mc[0] + mp[0]
    q1 = spectral.solve(plan, rhs(0, mh1s), a, b)

    m2s = (2.0 * mc[1] - 0.5 * mp[1]
           - (mh3 * q1 - mh1s * g3p)
           - al * (mh1s * q1 + mh2 * g2p + mh3 * g3p) * mh2
           + al * (mh1s * mh1s + mh2 * mh2 + mh3 * mh3) * g2p)
    if src is not None:
        m2s += dt * src[1]
    m2s *= 2.0 / 3.0
    mh2s = 2.0 * m2s - 2.0 * mc[1] + mp[1]
    q2 = spectral.solve(plan, rhs(1, mh2s), a, b)

    m3s = (2.0 * mc[2] - 0.5 * mp[2]
           - (mh1s * q2 - mh2s * q1)
           - al * (mh1s * q1 + mh2s * q2 + mh3 * g3p) * mh3
           + al * (mh1s * mh1s + mh2s * mh2s + mh3 * mh3) * g3p)
    if src is not None:
        m3s += dt * src[2]
    m3s *= 2.0 / 3.0
    mh3s = 2.0 * m3s - 2.0 * mc[2] + mp[2]
    q3 = spectral.solve(plan, rhs(2, mh3s), a, b)

    q = np.stack([q1, q2, q3])
    return _finish(state, np.stack([m1s, m2s, m3s]), dt,
                   f"three-solve step {state.step_index}", params, kernel,
                   g_prev=q + state.d_prev,
                   d_prev=0.5 * (q + 2.0 * state.d_prev - state.g_prev))


def bdf2_reference_step(state: SchemeState, params: MaterialParams,
                        plan: spectral.SpectralPlan, dt: float, *,
                        kernel: DemagKernel | None = None, source=None,
                        tol: float = 1e-12, maxiter: int = 500) -> SchemeState:
    """Coupled semi-implicit BDF2 step, solved matrix-free with GMRES.

    Solves (3/2) m + dt [m_hat x (eps Lap m) + alpha m_hat x (m_hat x
    (eps Lap m))] = 2 m^n - (1/2) m^(n-1) - dt [same torque applied to
    f(m_hat)] + dt g for the three coupled components, preconditioned by the
    per-component heat solve (I - (2/3) eps dt Lap)^(-1), then projects.
    """
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
        r = r.reshape(shape)
        out = np.stack([
            spectral.solve(plan, r[i], (2.0 / 3.0) * params.eps * dt)
            for i in range(3)
        ])
        return ((2.0 / 3.0) * out).ravel()

    A = scipy.sparse.linalg.LinearOperator((nflat, nflat), matvec=matvec)
    M = scipy.sparse.linalg.LinearOperator((nflat, nflat), matvec=precondition)
    b_flat = rhs.ravel()
    sol, info = scipy.sparse.linalg.gmres(
        A, b_flat, x0=m_hat.ravel(), rtol=tol, atol=0.0,
        restart=min(50, nflat), maxiter=maxiter, M=M)
    if info != 0:
        residual = float(np.linalg.norm(b_flat - A.matvec(sol))
                         / max(np.linalg.norm(b_flat), 1e-300))
        raise KrylovError(
            f"coupled BDF2 solve did not converge (info={info}, relative "
            f"residual {residual:.3e}) at step {state.step_index}", residual)

    return _finish(state, sol.reshape(shape), dt,
                   f"coupled reference step {state.step_index}", params, kernel)
