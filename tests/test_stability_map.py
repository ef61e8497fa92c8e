"""The linearised one-step map of the split schemes about uniform states.

`spectral_radius` takes the Jacobian of (m^(n-1), m^n) -> (m^n, m^(n+1))
through `split_step` by central differences and returns the largest
eigenvalue magnitude. A radius above 1 means some perturbation of the
uniform state grows every step, even though the projection keeps the run
bounded. The sweep updates the components in a fixed order, so the radius
depends on the direction of the uniform state, not only on alpha and dt.
"""

from dataclasses import replace

import numpy as np
import pytest

from gspm2.mesh import Grid
from gspm2.physics import MaterialParams
from gspm2.schemes import (GSPM1, SCHEME_A, SchemeState, si2_step,
                           split_step)
from gspm2.spectral import build_plan

GRID = Grid.line(20)
DELTA = 1e-7
DIRECTIONS = {
    "e1": (1.0, 0.0, 0.0),
    "e3": (0.0, 0.0, 1.0),
    "xy": (0.6, 0.8, 0.0),
    "diagonal": (1.0, 1.0, 1.0),
    "oblique": (0.3, -0.5, 0.81),
}
ALPHAS = (0.01, 0.1, 1.0)
DT_OVER_H2 = (0.2, 1.0, 1e5)


def spectral_radius(scheme, direction, alpha, dt_over_h2):
    """Largest |eigenvalue| of the step map's Jacobian about the uniform state
    along `direction`, with eps = 1 and no field."""
    plan = build_plan(GRID)
    params = MaterialParams(eps=1.0, alpha=alpha)
    dt = dt_over_h2 * GRID.hx ** 2
    shape = (2, 3) + GRID.shape

    def step_map(x):
        m_prev, m_curr = x.reshape(shape)
        out = split_step(SchemeState(m_prev=m_prev, m_curr=m_curr), params, plan,
                         dt, scheme, kernel=None, source=None)
        return np.concatenate([m_curr.ravel(), out.m_curr.ravel()])

    d = np.asarray(direction) / np.linalg.norm(direction)
    x0 = np.broadcast_to(d[None, :, None, None, None], shape).ravel()
    jac = np.empty((x0.size, x0.size))
    for col in range(x0.size):
        dx = np.zeros(x0.size)
        dx[col] = DELTA
        jac[:, col] = (step_map(x0 + dx) - step_map(x0 - dx)) / (2.0 * DELTA)
    return float(np.abs(np.linalg.eigvals(jac)).max())


@pytest.mark.parametrize("scheme", [
    GSPM1,
    pytest.param(SCHEME_A, marks=pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 1: the five-solve sweep's linearised map grows about "
        "uniform states off the (1, 1, 1) diagonal, e.g. rho = 2.79 about "
        "e1 at alpha = 1, dt = h^2"))),
], ids=["gspm1", "scheme-a"])
def test_radius_at_most_one(scheme):
    above = {}
    for name, direction in DIRECTIONS.items():
        for alpha in ALPHAS:
            for ratio in DT_OVER_H2:
                rho = spectral_radius(scheme, direction, alpha, ratio)
                if rho > 1.0 + 1e-6:
                    above[(name, alpha, ratio)] = rho
    assert not above, f"radius above 1 at (direction, alpha, dt/h^2): {above}"


def test_si2_is_scheme_a_with_no_refreshed_row():
    plan = build_plan(GRID)
    params = MaterialParams(eps=1.0, alpha=0.1, q=0.5, h_ext=(0.1, -0.2, 0.3))
    rng = np.random.default_rng(61)
    m = rng.standard_normal((2, 3) + GRID.shape)
    m /= np.sqrt((m * m).sum(axis=1, keepdims=True))
    state = SchemeState(m_prev=m[0], m_curr=m[1])
    dt = 0.5 * GRID.hx ** 2
    row = split_step(state, params, plan, dt, replace(SCHEME_A, refreshed=0),
                     kernel=None, source=None)
    assert np.array_equal(row.m_curr, si2_step(state, params, plan, dt).m_curr)
