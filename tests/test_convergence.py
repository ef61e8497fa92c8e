import numpy as np
import pytest

from gspm2.convergence import (ConvergenceReport, cells_across, integrate,
                               observed_order, run_time_convergence,
                               run_wall_reference_convergence, stability_scan)
from gspm2.manufactured import case_1d
from gspm2.mesh import Grid
from gspm2.physics import MaterialParams


class TestObservedOrder:
    def test_exact_second_order_pair(self):
        assert np.isclose(observed_order([(2.0, 4.0), (1.0, 1.0)]), 2.0)

    def test_exact_first_order_pair(self):
        assert np.isclose(observed_order([(2.0, 2.0), (1.0, 1.0)]), 1.0)

    def test_published_row_recomputes_to_its_order(self):
        # four errors of the fine-grid 1D temporal benchmark row fit 2.06
        T = 0.3
        steps = [T / 200, T / 300, T / 400, T / 500]
        errors = [1.5771e-04, 7.4962e-05, 3.9885e-05, 2.3881e-05]
        assert abs(observed_order(list(zip(steps, errors))) - 2.06) < 0.02

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        steps = [0.1, 0.05, 0.025, 0.0125]
        errors = list(np.exp(rng.uniform(-8, -2, size=4)))
        base = observed_order(list(zip(steps, errors)))
        scaled = observed_order([(s, 137.0 * e) for s, e in zip(steps, errors)])
        assert abs(base - scaled) < 1e-12

    def test_rejects_short_or_nonpositive(self):
        with pytest.raises(ValueError):
            observed_order([(0.1, 1e-3)])
        with pytest.raises(ValueError):
            observed_order([(0.1, 1e-3), (0.05, 0.0)])
        with pytest.raises(ValueError):
            observed_order([(0.1, 1e-3), (-0.05, 1e-4)])
        # one step size repeated fits no slope
        with pytest.raises(ValueError, match="2 distinct step sizes"):
            observed_order([(0.001, 1e-3), (0.001, 2e-3)])


class TestIntegrateArguments:
    @staticmethod
    def run(dt, n_steps, scheme="scheme-a"):
        grid = Grid.line(8)
        m0 = np.zeros((3,) + grid.shape)
        m0[2] = 1.0
        return integrate(scheme, m0, grid, MaterialParams(eps=1.0, alpha=0.1),
                         dt, n_steps)

    @pytest.mark.parametrize("scheme", ["scheme-c", ["scheme-a"], None],
                             ids=["unknown", "list", "none"])
    def test_scheme_must_be_a_known_name(self, scheme):
        with pytest.raises(ValueError, match="unknown scheme"):
            self.run(1e-3, 1, scheme)

    @pytest.mark.parametrize("n_steps", [-4, True, 2.0, "3", None])
    def test_step_count_must_be_a_nonnegative_integer(self, n_steps):
        with pytest.raises(ValueError, match="n_steps"):
            self.run(1e-3, n_steps)

    @pytest.mark.parametrize("dt", [0.0, -1e-3, np.inf, np.nan, True])
    def test_step_size_must_be_finite_and_positive(self, dt):
        with pytest.raises(ValueError, match="dt"):
            self.run(dt, 3)

    @pytest.mark.parametrize("shape,bad", [
        ((4, 8, 1, 1), None), ((2, 8, 1, 1), None), ((3, 7, 1, 1), None),
        ((3, 8, 1, 1), np.nan), ((3, 8, 1, 1), np.inf),
    ], ids=["four-components", "two-components", "other-grid", "nan", "inf"])
    def test_initial_field_must_be_finite_on_the_grid(self, shape, bad):
        # a four-component m0 came back truncated to three, a two-component
        # one raised IndexError, a non-finite one ran a step
        grid = Grid.line(8)
        m0 = np.zeros(shape)
        m0[-1] = 1.0
        if bad is not None:
            m0[0, 3] = bad
        with pytest.raises(ValueError,
                           match=r"m0 must be a finite array of shape \(3, 8, 1, 1\)"):
            integrate("scheme-a", m0, grid, MaterialParams(eps=1.0, alpha=0.1), 1e-3, 1)

    def test_valid_arguments(self):
        assert self.run(1e-3, 0).n_steps == 0
        res = self.run(1e-3, np.int64(3))
        assert res.n_steps == 3 and np.isclose(res.state.t, 3e-3)


class TestReports:
    def test_report_dict_fields(self):
        rep = ConvergenceReport(scheme="si2", variable="dt",
                                points=[(0.1, 4e-2, 2e-2), (0.05, 1e-2, 5e-3)])
        d = rep.fit().to_dict()
        assert d["scheme"] == "si2" and d["variable"] == "dt"
        assert np.isclose(d["order"], d["order_inf"])
        assert np.isclose(d["order_inf"], 2.0)
        assert len(d["points"]) == 2 and "error_l2" in d["points"][0]

    def test_time_convergence_smoke(self):
        # coarse, fast setting; order is near 2 but only loosely pinned here
        case = case_1d(alpha=0.01)
        rep = run_time_convergence("si2", case, dx=0.1, t_final=0.04,
                                   dt_list=[0.004, 0.002, 0.001])
        assert len(rep.points) == 3
        assert rep.points[0][1] > rep.points[-1][1]
        assert rep.max_unit_deviation <= 4 * np.finfo(float).eps


class TestMeshDivisibility:
    @pytest.mark.parametrize("length,h,n", [(1.0, 0.1, 10), (0.2, 0.05, 4),
                                            (1.0, 1e-4, 10000)])
    def test_counts_cells(self, length, h, n):
        assert cells_across(length, h) == n

    @pytest.mark.parametrize("length,h", [(1.0, 0.3), (0.2, 0.15), (1.0, 3.0)])
    def test_rejects_a_size_that_does_not_divide(self, length, h):
        with pytest.raises(ValueError, match="does not divide"):
            cells_across(length, h)

    @pytest.mark.parametrize("dx", [0.15, 0.125], ids=["lx", "ly"])
    def test_wall_study_checks_both_lengths(self, dx):
        # on the 1 x 0.2 domain these used to run 7 x 1 cells of width 1/7
        # and 8 x 2 of height 0.1; raised before the reference run starts
        with pytest.raises(ValueError, match="does not divide"):
            run_wall_reference_convergence("gspm1", dx=dx)


class TestStabilityScan:
    def test_invalid_bracket_rejected(self):
        case = case_1d(alpha=1.0)
        with pytest.raises(ValueError, match="bracket"):
            stability_scan("scheme-b", case, [0.1], cfl_bracket=(1.0, 0.5))

    def test_bracket_must_straddle(self):
        case = case_1d(alpha=1.0)
        # both endpoints far below the threshold: hi endpoint stays stable
        with pytest.raises(ValueError, match="still stable"):
            stability_scan("scheme-b", case, [0.1], t_final=0.2,
                           cfl_bracket=(0.01, 0.05), rounds=2)

    def test_scan_brackets_threshold(self):
        case = case_1d(alpha=1.0)
        report = stability_scan("scheme-b", case, [0.1], t_final=0.5, rounds=4)
        row = report.rows[0]
        assert row.bracket[0] < row.dt_stable < row.bracket[1]
        stable_prob = [s for _, s in row.probes]
        assert any(stable_prob) and not all(stable_prob)
        d = report.to_dict()
        assert d["rows"][0]["h"] == 0.1


class TestProjectionDeviation:
    """The steps' health signal, max over cells of ||m*| - 1| before each
    projection, against a direct recomputation from the unprojected m*."""

    def test_running_max_of_a_sourced_run(self, monkeypatch):
        from gspm2 import schemes
        original = schemes._normalized
        seen = []

        def recording(m, context, magnitude_cap):
            direct = schemes.unit_length_deviation(m)
            deviation = original(m, context, magnitude_cap)
            seen.append((direct, deviation))
            return deviation

        monkeypatch.setattr(schemes, "_normalized", recording)
        case = case_1d(alpha=1.0)
        grid = Grid.line(40)
        m0 = case.exact(*grid.centers, 0.0)
        states = []
        res = integrate("scheme-b", m0, grid, MaterialParams(eps=1.0, alpha=1.0),
                        0.2 / 40 ** 2, 30, source=case.source,
                        on_step=states.append)
        assert len(seen) == len(states) == 30
        for (direct, deviation), state in zip(seen, states):
            assert deviation == direct == state.projection_deviation
        assert res.max_projection_deviation == max(d for d, _ in seen) > 0.0
        assert res.max_unit_deviation <= 4 * np.finfo(float).eps

    def test_zero_without_steps(self):
        grid = Grid.line(4)
        m0 = np.zeros((3,) + grid.shape)
        m0[2] = 1.0
        res = integrate("scheme-a", m0, grid, MaterialParams(eps=1.0, alpha=0.1),
                        1e-3, 0)
        assert res.max_projection_deviation == 0.0
        assert res.state.projection_deviation == 0.0
