import numpy as np
import pytest

from gspm2 import physics, schemes, spectral
from gspm2.cli import run as run_experiment
from gspm2.config import ExperimentConfig
from gspm2.convergence import integrate, observed_order
from gspm2.manufactured import case_1d
from gspm2.mesh import Grid, norm_inf, sample_vector
from gspm2.physics import MaterialParams, build_demag_kernel
from gspm2.schemes import (GSPM1, SCHEME_A, SCHEME_B, SI2, BlowUpError,
                           SchemeState, bdf2_reference_step, extrapolate,
                           gspm1_step, project, scheme_a_step, scheme_b_init,
                           scheme_b_step, si2_step, split_step,
                           unit_length_deviation)
from gspm2.spectral import build_plan

EPS64 = np.finfo(float).eps

ALL_STEPPERS = {
    "gspm1": gspm1_step,
    "si2": si2_step,
    "scheme-a": scheme_a_step,
    "scheme-b": scheme_b_step,
    "bdf2-ref": bdf2_reference_step,
}


def uniform_state(grid, direction=(0.6, 0.8, 0.0)):
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    m = np.empty((3,) + grid.shape)
    m[0], m[1], m[2] = d[:, None, None, None]
    return SchemeState.from_initial(m)


def random_unit_field(grid, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((3,) + grid.shape)
    return m / np.sqrt((m * m).sum(axis=0))


class TestExtrapolate:
    def test_steady(self):
        u = np.ones((3, 2, 1, 1))
        assert np.all(extrapolate(u, u) == u)

    def test_arithmetic_and_overshoot(self):
        mp = np.zeros((3, 1, 1, 1)); mp[0] = 1.0
        mc = np.zeros((3, 1, 1, 1)); mc[1] = 1.0
        mh = extrapolate(mp, mc)
        assert np.allclose(mh.ravel(), [-1.0, 2.0, 0.0])
        assert np.isclose(np.linalg.norm(mh), np.sqrt(5.0))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            extrapolate(np.zeros((3, 2, 1, 1)), np.zeros((3, 3, 1, 1)))


class TestStateShape:
    @pytest.mark.parametrize("name", sorted(ALL_STEPPERS))
    @pytest.mark.parametrize("shape", [(4, 8, 1, 1), (2, 8, 1, 1), (3, 7, 1, 1)],
                             ids=["four-components", "two-components", "other-grid"])
    def test_rejects_a_state_of_another_shape(self, name, shape):
        grid = Grid.line(8)
        m = np.zeros(shape)
        m[0] = 1.0
        with pytest.raises(ValueError, match=r"m_curr must have shape \(3, 8, 1, 1\)"):
            ALL_STEPPERS[name](SchemeState.from_initial(m),
                               MaterialParams(eps=1.0, alpha=0.1),
                               build_plan(grid), 1e-3)


class TestProject:
    def test_simple_values(self):
        m = np.zeros((3, 2, 1, 1))
        m[2, 0] = 2.0
        m[0, 1], m[1, 1] = 3.0, 4.0
        p = project(m)
        assert np.allclose(p[:, 0, 0, 0], [0, 0, 1])
        assert np.allclose(p[:, 1, 0, 0], [0.6, 0.8, 0])

    def test_zero_cell_is_hard_error_naming_cell(self):
        m = np.zeros((3, 2, 1, 1))
        m[2, 0] = 1.0
        with pytest.raises(BlowUpError, match=r"\(1, 0, 0\)"):
            project(m)

    def test_nan_cell_is_hard_error(self):
        m = np.zeros((3, 2, 1, 1))
        m[2] = 1.0
        m[0, 1] = np.nan
        with pytest.raises(BlowUpError, match="non-finite magnetization in projection"):
            project(m)

    def test_inf_cell_is_hard_error(self):
        m = np.ones((3, 2, 1, 1))
        m[1, 0] = np.inf
        with pytest.raises(BlowUpError, match="non-finite magnetization in projection"):
            project(m)

    def test_input_unchanged(self):
        m = np.random.default_rng(42).standard_normal((3, 4, 3, 2)) * 3.0
        before = m.copy()
        p = project(m)
        assert m.tobytes() == before.tobytes()
        assert not np.shares_memory(p, m)

    def test_result_unit_to_4eps(self):
        rng = np.random.default_rng(41)
        m = rng.standard_normal((3, 6, 5, 4)) * 3.0
        assert unit_length_deviation(project(m)) <= 4 * EPS64


class TestUniformInvariance:
    """With no local field and spatially uniform data every scheme is exact."""

    @pytest.mark.parametrize("name", ["gspm1", "si2", "scheme-a", "bdf2-ref"])
    def test_two_level_schemes(self, name):
        grid = Grid(4, 3, 2, 1.0, 1.0, 1.0)
        plan = build_plan(grid)
        params = MaterialParams(eps=1.0, alpha=0.1)
        st = uniform_state(grid)
        out = ALL_STEPPERS[name](st, params, plan, 0.05)
        assert np.abs(out.m_curr - st.m_curr).max() < 8 * EPS64
        assert out.step_index == 1 and np.isclose(out.t, 0.05)

    def test_scheme_b_with_init(self):
        grid = Grid(4, 3, 2, 1.0, 1.0, 1.0)
        plan = build_plan(grid)
        params = MaterialParams(eps=1.0, alpha=0.1)
        st = scheme_b_init(uniform_state(grid), params, plan, 0.05)
        assert np.abs(st.g_prev - st.m_curr).max() < 8 * EPS64
        out = scheme_b_step(st, params, plan, 0.05)
        assert np.abs(out.m_curr - st.m_curr).max() < 8 * EPS64
        assert np.abs(out.g_prev - st.m_curr).max() < 8 * EPS64


class TestSolveCounts:
    def test_per_step_budget(self):
        grid = Grid.line(16)
        plan = build_plan(grid)
        params = MaterialParams(eps=1.0, alpha=0.02)
        st = SchemeState.from_initial(random_unit_field(grid, 5))
        dt = 1e-4

        st1 = gspm1_step(st, params, plan, dt)
        budgets = {}
        for name, prep in [("gspm1", st), ("si2", st1), ("scheme-a", st1)]:
            before = plan.solve_count
            ALL_STEPPERS[name](prep, params, plan, dt)
            budgets[name] = plan.solve_count - before
        stb = scheme_b_init(st1, params, plan, dt)
        before = plan.solve_count
        scheme_b_step(stb, params, plan, dt)
        budgets["scheme-b"] = plan.solve_count - before

        assert budgets["scheme-a"] == 5
        assert budgets["scheme-b"] == 3
        assert budgets["si2"] == 3
        assert budgets["gspm1"] == 5
        # three solves of g unless it is lagged, one per refreshed row
        rows = {"gspm1": GSPM1, "si2": SI2, "scheme-a": SCHEME_A, "scheme-b": SCHEME_B}
        for name, row in rows.items():
            assert budgets[name] == 3 * (not row.lagged) + row.refreshed, name


def stray_film():
    grid = Grid(6, 5, 2, 1.0, 0.8, 0.1)
    params = MaterialParams(eps=0.05, alpha=0.1, q=0.3, h_ext=(0.0, 0.1, 0.0),
                            stray_enabled=True)
    return grid, params, build_demag_kernel(grid)


class TestPlainStepIsTheUnrefreshedSweep:
    """si2 is the shared sweep with no refreshed row. It must equal, to
    rounding, the plain BDF2 update written out on its own with the expanded
    damping triple product (m_hat.G) m_hat - |m_hat|^2 G, G = g - m_hat; the
    two agree because m_hat x (g - m_hat) = m_hat x g."""

    @staticmethod
    def oracle(state, params, plan, dt, kernel=None, source=None):
        m_hat = 2.0 * state.m_curr - state.m_prev
        a = params.eps * dt
        phi = physics.local_field(params, m_hat, kernel)
        G = spectral.solve(plan, m_hat + dt * phi, a, a * a) - m_hat
        dot = (m_hat * G).sum(axis=0)
        hat2 = (m_hat * m_hat).sum(axis=0)
        m_tilde = (2.0 * state.m_curr - 0.5 * state.m_prev
                   - np.cross(m_hat, G, axis=0)
                   - params.alpha * (dot * m_hat - hat2 * G))
        if source is not None:
            m_tilde += dt * np.stack(source(*plan.grid.centers, state.t + dt))
        return project(2.0 / 3.0 * m_tilde)

    def test_local_field_and_source(self):
        grid = Grid(7, 5, 3, 1.0, 0.7, 0.4)
        plan = build_plan(grid)
        params = MaterialParams(eps=0.8, alpha=0.3, q=1.5, h_ext=(0.2, -0.4, 0.1))

        def source(X, Y, Z, t):
            return (np.sin(3 * X + t), np.cos(2 * Y) * Z, X * Y - t)

        st = SchemeState(m_prev=random_unit_field(grid, 51),
                         m_curr=random_unit_field(grid, 52), t=0.1, step_index=1)
        assert unit_length_deviation(extrapolate(st.m_prev, st.m_curr)) > 0.5
        dt = 2e-3
        got = si2_step(st, params, plan, dt, source=source).m_curr
        assert np.abs(got - self.oracle(st, params, plan, dt,
                                        source=source)).max() <= 1e-14

    def test_stray_film(self):
        grid, params, kernel = stray_film()
        plan = build_plan(grid)
        st = SchemeState(m_prev=random_unit_field(grid, 53),
                         m_curr=random_unit_field(grid, 54))
        dt = 1e-3
        # the step extrapolates the carried f; the oracle evaluates f(m_hat)
        got = si2_step(st, params, plan, dt, kernel=kernel).m_curr
        want = self.oracle(st, params, plan, dt, kernel=kernel)
        assert np.abs(got - want).max() <= 1e-14


class TestCarriedStrayField:
    @pytest.mark.parametrize("name", sorted(ALL_STEPPERS))
    def test_one_convolution_per_step(self, name, demag_calls):
        grid, params, kernel = stray_film()
        seen = []
        integrate(name, random_unit_field(grid, 31), grid, params, 1e-3, 6,
                  kernel=kernel, on_step=lambda st: seen.append(len(demag_calls)))
        # f(m0) in the first step, then one f(m^(n+1)) per step
        assert seen == [2, 3, 4, 5, 6, 7]

    @pytest.mark.parametrize("name", sorted(ALL_STEPPERS))
    def test_matches_recomputed_field(self, name, monkeypatch):
        grid, params, kernel = stray_film()
        m0 = random_unit_field(grid, 32)
        carried = integrate(name, m0, grid, params, 1e-3, 6, kernel=kernel)

        def fresh_field(state, bdf2):
            """f evaluated afresh at the state the step freezes it at."""
            h = extrapolate(state.m_prev, state.m_curr) if bdf2 else state.m_curr
            return h, physics.local_field(params, h, kernel)

        monkeypatch.setattr(schemes, "_frozen_field", fresh_field)
        fresh = integrate(name, m0, grid, params, 1e-3, 6, kernel=kernel)
        assert np.abs(carried.state.m_curr - fresh.state.m_curr).max() <= 1e-12

    def test_hand_built_state_gets_the_pair(self):
        grid, params, kernel = stray_film()
        plan = build_plan(grid)
        m0, m1 = random_unit_field(grid, 33), random_unit_field(grid, 34)
        out = scheme_a_step(SchemeState(m_prev=m0, m_curr=m1), params, plan,
                            1e-3, kernel=kernel)
        filled = SchemeState(m_prev=m0, m_curr=m1,
                             f_prev=physics.local_field(params, m0, kernel),
                             f_curr=physics.local_field(params, m1, kernel))
        assert np.array_equal(
            out.m_curr,
            scheme_a_step(filled, params, plan, 1e-3, kernel=kernel).m_curr)
        assert np.array_equal(out.f_prev, filled.f_curr)
        assert np.array_equal(out.f_curr,
                              physics.local_field(params, out.m_curr, kernel))

    def test_field_free_state_carries_nothing(self):
        grid = Grid(6, 5, 2, 1.0, 0.8, 0.1)
        params = MaterialParams(eps=0.05, alpha=0.1)
        res = integrate("scheme-a", random_unit_field(grid, 35), grid, params,
                        1e-3, 3)
        assert res.state.f_prev is None and res.state.f_curr is None


class TestInputsUnchanged:
    """Every stepper, and scheme_b_init, leaves each array of its input state
    bit for bit as it was and returns arrays that share no memory with them,
    though the sweep and the projection work in place on their own
    buffers."""

    FIELDS = ("m_prev", "m_curr", "g_prev", "d_prev", "f_prev", "f_curr")

    @staticmethod
    def source(X, Y, Z, t):
        return np.stack([np.sin(X + t), Y * Z, np.cos(Z) * t])

    @pytest.mark.parametrize("carried", [False, True], ids=["bare", "carried"])
    @pytest.mark.parametrize("name", sorted(ALL_STEPPERS) + ["scheme-b-init"])
    def test_input_unchanged_and_output_fresh(self, name, carried):
        grid, params, kernel = stray_film()
        plan = build_plan(grid)
        dt = 1e-3
        state = SchemeState(m_prev=random_unit_field(grid, 61),
                            m_curr=random_unit_field(grid, 62), t=0.5)
        if carried:  # f of both levels, g and d
            state = scheme_b_init(state, params, plan, dt, kernel=kernel)
        inputs = {k: getattr(state, k) for k in self.FIELDS
                  if getattr(state, k) is not None}
        before = {k: v.tobytes() for k, v in inputs.items()}
        if name == "scheme-b-init":
            out = scheme_b_init(state, params, plan, dt, kernel=kernel)
            made = ("g_prev", "d_prev")
        else:
            out = ALL_STEPPERS[name](state, params, plan, dt, kernel=kernel,
                                     source=self.source)
            made = ("m_curr", "f_curr", "g_prev", "d_prev")
        for k, v in inputs.items():
            assert v.tobytes() == before[k], f"{name} changed {k}"
        for k in made:
            new = getattr(out, k)
            assert new is not None or k in ("g_prev", "d_prev")
            for old_k, old in inputs.items():
                assert new is None or not np.shares_memory(new, old), (k, old_k)


class TestStoredSource:
    @pytest.mark.parametrize("scheme", [GSPM1, SI2, SCHEME_A, SCHEME_B],
                             ids=lambda s: s.name)
    def test_read_only_source_array_is_left_unchanged(self, scheme):
        """A source may hand back the same stored array at every call; the
        step scales its own copy."""
        grid = Grid.line(12)
        plan = build_plan(grid)
        params = MaterialParams(eps=1.0, alpha=0.1)
        stored = np.random.default_rng(63).standard_normal((3,) + grid.shape)
        stored.flags.writeable = False
        before = stored.tobytes()
        state = SchemeState(m_prev=random_unit_field(grid, 64),
                            m_curr=random_unit_field(grid, 65))
        for _ in range(2):
            state = split_step(state, params, plan, 1e-3, scheme, kernel=None,
                               source=lambda X, Y, Z, t: stored)
        assert stored.tobytes() == before
        assert not np.shares_memory(state.m_curr, stored)


class TestSchemeBInit:
    def test_matches_dense_oracle(self):
        from oracles import solve_dense_oracle
        grid = Grid(3, 2, 1, 1.0, 1.0, 1.0)
        plan = build_plan(grid)
        params = MaterialParams(eps=0.7, alpha=0.1)
        dt = 0.05
        m0 = random_unit_field(grid, 6)
        m1 = random_unit_field(grid, 7)
        st = SchemeState(m_prev=m0, m_curr=m1, t=dt, step_index=1)
        out = scheme_b_init(st, params, plan, dt)
        a = params.eps * dt
        for i in range(3):
            want = solve_dense_oracle(grid, 2 * m1[i] - m0[i], a, a * a)
            assert np.abs(out.g_prev[i] - want).max() < 1e-11

    def test_field_and_difference_match_dense_oracle(self):
        # g^0 carries dt f(m_hat) like every later lagged field; d^0 is the
        # solved level difference the step's bookkeeping starts from
        from oracles import solve_dense_oracle
        grid = Grid(3, 2, 1, 1.0, 1.0, 1.0)
        plan = build_plan(grid)
        params = MaterialParams(eps=0.7, alpha=0.1, h_ext=(0.3, -0.2, 0.5))
        dt = 0.05
        m0 = random_unit_field(grid, 6)
        m1 = random_unit_field(grid, 7)
        st = SchemeState(m_prev=m0, m_curr=m1, t=dt, step_index=1)
        out = scheme_b_init(st, params, plan, dt)
        a = params.eps * dt
        for i in range(3):
            want_g = solve_dense_oracle(
                grid, 2 * m1[i] - m0[i] + dt * params.h_ext[i], a, a * a)
            want_d = solve_dense_oracle(grid, m1[i] - m0[i], a, a * a)
            assert np.abs(out.g_prev[i] - want_g).max() < 1e-11
            assert np.abs(out.d_prev[i] - want_d).max() < 1e-11

    def test_transform_domain_contraction(self):
        # symbol >= 1 implies the solve never grows l2 norms or the mean
        grid = Grid.line(32)
        plan = build_plan(grid)
        params = MaterialParams(eps=1.0, alpha=0.1)
        dt = 0.01
        m0 = random_unit_field(grid, 8)
        m1 = random_unit_field(grid, 9)
        st = SchemeState(m_prev=m0, m_curr=m1, t=dt, step_index=1)
        out = scheme_b_init(st, params, plan, dt)
        rhs = 2 * m1 - m0
        for i in range(3):
            assert (np.linalg.norm(out.g_prev[i])
                    <= np.linalg.norm(rhs[i]) * (1 + 1e-13))
            assert np.isclose(out.g_prev[i].mean(), rhs[i].mean(), rtol=1e-12)

    def test_step_without_lagged_fields_initializes_them(self):
        # a three-solve step from a two-level state builds g^0 and d^0 itself
        grid = Grid(6, 5, 2, 1.0, 1.0, 0.4)
        plan = build_plan(grid)
        kernel = build_demag_kernel(grid)
        params = MaterialParams(eps=0.7, alpha=0.1, q=0.5, h_ext=(0.3, -0.2, 0.5),
                                stray_enabled=True)
        dt = 0.05
        st = SchemeState(m_prev=random_unit_field(grid, 6),
                         m_curr=random_unit_field(grid, 7), t=dt, step_index=1)
        direct = scheme_b_step(st, params, plan, dt, kernel=kernel)
        init = scheme_b_init(st, params, plan, dt, kernel=kernel)
        want = scheme_b_step(init, params, plan, dt, kernel=kernel)
        for name in ("m_prev", "m_curr", "g_prev", "d_prev", "f_prev", "f_curr"):
            assert (getattr(direct, name).tobytes()
                    == getattr(want, name).tobytes()), name


class TestSingleSpinPrecession:
    """Uniform magnetization in h_ext = (0, 0, 1): exchange inert, closed form
    m3(t) = tanh(alpha t + c0), (m1 + i m2) = sech(alpha t + c0) e^{i(t + phi0)}."""

    @staticmethod
    def analytic(t, alpha, m0):
        c0 = np.arctanh(m0[2])
        phi0 = np.arctan2(m0[1], m0[0])
        m3 = np.tanh(alpha * t + c0)
        amp = 1.0 / np.cosh(alpha * t + c0)
        return np.array([amp * np.cos(t + phi0), amp * np.sin(t + phi0), m3])

    def run_scheme(self, name, dt, t_final, alpha):
        grid = Grid(1, 1, 1, 1.0, 1.0, 1.0)
        params = MaterialParams(eps=1.0, alpha=alpha, h_ext=(0.0, 0.0, 1.0))
        m0 = np.array([0.8, 0.0, 0.6])
        field = m0.reshape(3, 1, 1, 1) * np.ones((3, 1, 1, 1))
        n = round(t_final / dt)
        res = integrate(name, field, grid, params, dt, n)
        return res.state.m_curr.ravel(), self.analytic(res.state.t, alpha, m0)

    def test_gspm1_first_order(self):
        errs = []
        for dt in (0.02, 0.01, 0.005):
            got, want = self.run_scheme("gspm1", dt, 2.0, 0.1)
            errs.append(np.abs(got - want).max())
        order = observed_order(list(zip((0.02, 0.01, 0.005), errs)))
        assert 0.8 < order < 1.3

    @pytest.mark.parametrize("name", ["si2", "bdf2-ref"])
    def test_second_order_schemes(self, name):
        errs = []
        for dt in (0.02, 0.01, 0.005):
            got, want = self.run_scheme(name, dt, 2.0, 0.1)
            errs.append(np.abs(got - want).max())
        order = observed_order(list(zip((0.02, 0.01, 0.005), errs)))
        assert 1.7 < order < 2.3

    @pytest.mark.parametrize("name", ["scheme-a", "scheme-b"])
    def test_gauss_seidel_refresh_costs_an_order_when_field_active(self, name):
        # despite the name, this checks that the refresh costs no order: with
        # an active field nothing hides an O(dt) error in the refreshed
        # slots, so this pins that they approximate m at t_(n+1) to second
        # order (and, for scheme-b, that the initial lagged fields include
        # dt f): the Gauss-Seidel schemes keep the order of si2/bdf2-ref
        errs = []
        for dt in (0.02, 0.01, 0.005):
            got, want = self.run_scheme(name, dt, 2.0, 0.1)
            errs.append(np.abs(got - want).max())
        order = observed_order(list(zip((0.02, 0.01, 0.005), errs)))
        assert 1.7 < order < 2.3


class TestSelfConvergence:
    """Temporal orders against a fine-step run of the same scheme, smooth 1D
    initial data, exchange only (spatial error cancels on the shared grid)."""

    @staticmethod
    def smooth_initial(grid):
        def fn(X, Y, Z):
            phi = 0.9 * np.sin(np.pi * X) ** 2
            return np.cos(phi), np.sin(phi) * 0.6, np.sin(phi) * 0.8
        m = sample_vector(grid, fn)
        return m / np.sqrt((m * m).sum(axis=0))

    @pytest.mark.parametrize("name,expected", [
        ("gspm1", (0.7, 1.35)),
        ("si2", (1.6, 2.5)),
        # the Gauss-Seidel variants refresh their slots to second order at
        # t_(n+1), so they share the second-order window of si2/bdf2-ref
        ("scheme-a", (1.6, 2.5)),
        ("scheme-b", (1.6, 2.5)),
        ("bdf2-ref", (1.6, 2.5)),
    ])
    def test_order(self, name, expected):
        grid = Grid.line(12)
        params = MaterialParams(eps=1.0, alpha=0.1)
        m0 = self.smooth_initial(grid)
        T = 0.04
        ref = integrate(name, m0, grid, params, T / 160, 160).state.m_curr
        errs = []
        dts = [T / 10, T / 20, T / 40]
        for div in (10, 20, 40):
            res = integrate(name, m0, grid, params, T / div, div)
            errs.append(norm_inf(res.state.m_curr - ref))
        order = observed_order(list(zip(dts, errs)))
        lo, hi = expected
        assert lo < order < hi, f"{name}: order {order}, errors {errs}"

    def test_si2_energy_drift_conservative_limit(self):
        # alpha = 0: exchange energy drift at fixed T improves at least ~4x
        # per halving (in practice faster: the projection pushes the drift
        # beyond plain second order on smooth data)
        from gspm2.physics import energy
        grid = Grid.line(12)
        params = MaterialParams(eps=1.0, alpha=0.0)
        m0 = self.smooth_initial(grid)
        e0 = energy(params, grid, m0)
        T = 0.04
        drifts = []
        for div in (20, 40):
            res = integrate("si2", m0, grid, params, T / div, div)
            drifts.append(abs(energy(params, grid, res.state.m_curr) - e0))
        ratio = drifts[0] / drifts[1]
        assert ratio > 3.0


class TestManufacturedOrders:
    def test_gspm1_first_order_in_time(self):
        case = case_1d(0.0)
        grid = Grid.line(400)
        params = MaterialParams(eps=1.0, alpha=0.0)
        m0 = sample_vector(grid, lambda X, Y, Z: case.exact(X, Y, Z, 0.0))
        X, Y, Z = grid.centers
        T = 0.1
        errs = []
        dts = [T / 25, T / 50, T / 100]
        for div in (25, 50, 100):
            res = integrate("gspm1", m0, grid, params, T / div, div,
                            source=case.source)
            errs.append(norm_inf(res.state.m_curr - case.exact(X, Y, Z, res.state.t)))
        order = observed_order(list(zip(dts, errs)))
        assert 0.75 < order < 1.35


class TestBdf2Reference:
    def test_matches_dense_coupled_solve(self):
        from gspm2.mesh import laplacian
        grid = Grid(2, 2, 2, 1.0, 1.0, 1.0)
        plan = build_plan(grid)
        params = MaterialParams(eps=0.8, alpha=0.3, h_ext=(0.0, 0.1, 0.2))
        dt = 0.07
        m_prev = random_unit_field(grid, 11)
        m_curr = random_unit_field(grid, 12)
        st = SchemeState(m_prev=m_prev, m_curr=m_curr, t=0.0, step_index=1)
        out = bdf2_reference_step(st, params, plan, dt, tol=1e-13)

        # dense assembly of the coupled 3N x 3N system in the test
        n = grid.n_cells
        m_hat = 2 * m_curr - m_prev

        def torque(h):
            c = np.cross(m_hat, h, axis=0)
            return c + params.alpha * np.cross(m_hat, c, axis=0)

        def op(v):
            v = v.reshape((3,) + grid.shape)
            return (1.5 * v + dt * torque(params.eps * laplacian(grid, v))).ravel()

        A = np.column_stack([op(e) for e in np.eye(3 * n)])
        phi = np.zeros((3,) + grid.shape)
        phi += np.asarray(params.h_ext)[:, None, None, None]
        rhs = (2 * m_curr - 0.5 * m_prev - dt * torque(phi)).ravel()
        m_tilde = np.linalg.solve(A, rhs).reshape((3,) + grid.shape)
        want = project(m_tilde)
        assert np.abs(out.m_curr - want).max() < 1e-10

    def test_uniform_converges_immediately(self):
        grid = Grid(2, 2, 1, 1.0, 1.0, 1.0)
        plan = build_plan(grid)
        params = MaterialParams(eps=1.0, alpha=0.1)
        st = uniform_state(grid)
        out = bdf2_reference_step(st, params, plan, 0.1)
        assert np.abs(out.m_curr - st.m_curr).max() < 8 * EPS64


class TestBlowUpDetection:
    def test_scheme_b_far_above_cfl_blows_up(self):
        case = case_1d(1.0)
        grid = Grid.line(100)
        params = MaterialParams(eps=1.0, alpha=1.0)
        m0 = sample_vector(grid, lambda X, Y, Z: case.exact(X, Y, Z, 0.0))
        with pytest.raises(BlowUpError, match="scheme-b step"):
            integrate("scheme-b", m0, grid, params, 1e-3, 1000,
                      source=case.source)

    def test_projection_invariant_along_run(self):
        case = case_1d(0.01)
        grid = Grid.line(50)
        params = MaterialParams(eps=1.0, alpha=0.01)
        m0 = sample_vector(grid, lambda X, Y, Z: case.exact(X, Y, Z, 0.0))
        res = integrate("scheme-a", m0, grid, params, 1e-3, 100,
                        source=case.source)
        assert res.max_unit_deviation <= 4 * EPS64


class TestFilmTemporalOrderWithStrayField:
    """Criterion 3b's order window on the `micromag` film with the stray
    field on: an 8x8x2 film over 8 ps at dt = 1, 1/2, 1/4 and 1/8 ps, the
    order fitted to the differences of each final m from the next half
    step's."""

    @pytest.mark.parametrize("scheme", [
        pytest.param(name, marks=pytest.mark.xfail(strict=True, reason=(
            "ROADMAP items 2 and 19: dt f inside the solve makes the film's "
            "step first order in time; scheme-a fits 1.13 and scheme-b 1.50")))
        for name in ("scheme-a", "scheme-b")])
    def test_second_order(self, scheme):
        dts = [1e-12 / 2 ** k for k in range(4)]
        finals = [run_experiment(ExperimentConfig.from_dict({
            "kind": "micromag", "alpha": 0.01, "scheme": scheme,
            "grid": [8, 8, 2], "dt_seconds": dt, "t_final_seconds": 8e-12,
            "snapshot_every": 0})).final_field for dt in dts]
        errors = [norm_inf(a - b) for a, b in zip(finals, finals[1:])]
        order = observed_order(list(zip(dts, errors)))
        assert 1.8 <= order <= 2.1, f"order {order:.3f}, errors {errors}"
