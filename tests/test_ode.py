"""Within-host model, observer correction terms and condition diagnostics."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anthobs import (
    Measurement,
    ModelState,
    ObserverState,
    WithinHostSystem,
    check_conditions,
    make_measurement,
    model_rhs,
    observer_rhs,
    simulate,
)
from anthobs import forcing as F
from anthobs.ode import growth_saturation, interior_indicator, rot_innovation, volume_gap

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestModelRhs:
    def test_all_forcings_vanish_at_peak_time(self, p):
        d = model_rhs(0.75, ModelState(0.3, 0.4, 0.2), p)
        assert d == (0.0, 0.0, 0.0)

    def test_volume_equilibrium(self, p):
        theta = 0.3
        v_eq = F.volume_capacity(0.1, p) * p.v_max * (1.0 + p.epsilon - theta)
        d = model_rhs(0.1, ModelState(theta, v_eq, 0.1), p)
        assert d[1] == pytest.approx(0.0, abs=1e-15)

    def test_full_rot_stops(self, p):
        d = model_rhs(0.1, ModelState(0.5, 0.5, 1.0), p)
        assert d[2] == 0.0

    def test_rot_frozen_without_berry(self, p):
        d = model_rhs(0.1, ModelState(0.5, 0.0, 0.3), p)
        assert d[2] == 0.0

    def test_capacity_guard(self, p):
        with pytest.raises(ValueError, match="capacity"):
            model_rhs(0.1, ModelState(1.0 + 2 * p.epsilon, 0.5, 0.1), p)

    @given(th=unit, v=unit, rho=unit, t=unit)
    @settings(max_examples=100)
    def test_finite_in_box(self, p, th, v, rho, t):
        d = model_rhs(t, ModelState(th, v, rho), p)
        assert all(math.isfinite(x) for x in d)

    @given(v=unit, rho=unit)
    def test_rot_volume_derived_and_bounded(self, v, rho):
        s = ModelState(0.5, v, rho)
        assert s.rot_volume == rho * v
        assert s.rot_volume <= s.v


class TestVolumeGap:
    def test_hand_value(self, p):
        m = Measurement(0.3, 0.2, 0.0)
        expected = (1.0 - 0.3 / 0.6) * (1.0 + p.epsilon - 0.5)
        assert volume_gap(0.5, 0.6, m.v, p.epsilon) == pytest.approx(expected, rel=1e-15)
        assert expected == pytest.approx(0.25005, rel=1e-10)

    def test_inactive_when_measured_volume_larger(self, p):
        assert volume_gap(0.5, 0.6, 0.7, p.epsilon) == 0.0

    def test_inactive_at_boundary_estimate(self, p):
        assert volume_gap(1.0, 0.6, 0.3, p.epsilon) == 0.0
        assert volume_gap(0.0, 0.6, 0.3, p.epsilon) == 0.0

    def test_inactive_at_zero_volume_estimate(self, p):
        assert volume_gap(0.5, 0.0, 0.0, p.epsilon) == 0.0

    @given(th=unit, vh=unit, v=unit)
    def test_nonnegative(self, p, th, vh, v):
        assert volume_gap(th, vh, v, p.epsilon) >= 0.0


def _innovation(t, theta_hat, m, p):
    """The rot-rate innovation the observer forms from the measurement ``m``."""
    return rot_innovation(
        theta_hat, m.drho_dt, F.rot_forcing(t, theta_hat, m.v, m.rho, p) * (1.0 - m.rho))


class TestRotInnovation:
    def test_consistent_estimate_gives_zero(self, p):
        t, th, v, rho = 0.05, 0.75, 0.5, 0.25
        drho = F.rot_forcing(t, th, v, rho, p) * (1.0 - rho)
        m = Measurement(v, rho, drho)
        assert _innovation(t, th, m, p) == 0.0

    def test_boundary_estimate_gives_zero(self, p):
        m = Measurement(0.5, 0.25, 0.123)
        assert _innovation(0.05, 0.0, m, p) == 0.0
        assert _innovation(0.05, 1.0, m, p) == 0.0

    def test_gap_equals_forcing_difference(self, p):
        # with an exact measurement the innovation reduces to
        # (1 - rho) * (rot_forcing(theta) - rot_forcing(theta_hat))
        t, th, th_hat, v, rho = 0.05, 0.75, 0.5, 0.5, 0.25
        drho = F.rot_forcing(t, th, v, rho, p) * (1.0 - rho)
        m = Measurement(v, rho, drho)
        expected = (1.0 - rho) * (
            F.rot_forcing(t, th, v, rho, p) - F.rot_forcing(t, th_hat, v, rho, p))
        assert _innovation(t, th_hat, m, p) == pytest.approx(expected, rel=1e-14)


class TestGrowthSaturation:
    def test_empty_volume(self, p):
        assert growth_saturation(0.1, 0.5, 0.0, p) == 1.0

    def test_equilibrium(self, p):
        th = 0.3
        v_eq = (1.0 + p.epsilon - th) * F.volume_capacity(0.1, p) * p.v_max
        assert growth_saturation(0.1, th, v_eq, p) == pytest.approx(0.0, abs=1e-15)

    def test_hand_value(self, p):
        # 1 - 0.5 / (0.5001 * (1/1.0001) * 1)
        expected = 1.0 - 0.5 / (0.5001 * (1.0 / 1.0001))
        got = growth_saturation(0.1, 0.5, 0.5, p)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(9.998e-5, rel=1e-3)

    def test_guard(self, p):
        with pytest.raises(ValueError):
            growth_saturation(0.1, 1.0 + 2 * p.epsilon, 0.5, p)


class TestObserverRhs:
    def test_matches_model_at_truth_without_gains(self, p):
        t, th, v, rho = 0.13, 0.4, 0.3, 0.2
        drho = F.rot_forcing(t, th, v, rho, p) * (1.0 - rho)
        m = Measurement(v, rho, drho)
        d_model = model_rhs(t, ModelState(th, v, rho), p)
        d_obs = observer_rhs(t, ObserverState(th, v), m, p)
        assert d_obs[0] == pytest.approx(d_model[0], rel=1e-14)
        assert d_obs[1] == pytest.approx(d_model[1], rel=1e-14)

    def test_vanishes_at_peak_time(self, p):
        m = Measurement(0.5, 0.25, 0.0)
        assert observer_rhs(0.75, ObserverState(0.3, 0.4), m, p) == (0.0, 0.0)

    def test_innovation_gain_shifts_rate(self, p):
        # against the brute-force correction k2*(1-rho)*(forcing gap)
        t, th, th_hat, v, rho = 0.05, 0.75, 0.5, 0.5, 0.25
        p2 = replace(p, k2=1e3)
        drho = F.rot_forcing(t, th, v, rho, p2) * (1.0 - rho)
        m = Measurement(v, rho, drho)
        base = observer_rhs(t, ObserverState(th_hat, v), m, p)[0]
        with_gain = observer_rhs(t, ObserverState(th_hat, v), m, p2)[0]
        expected = 1e3 * (1.0 - rho) * (
            F.rot_forcing(t, th, v, rho, p) - F.rot_forcing(t, th_hat, v, rho, p))
        assert with_gain - base == pytest.approx(expected, rel=1e-12)


class TestInteriorIndicator:
    @pytest.mark.parametrize("x,expected", [
        (0.5, 1.0), (0.0, 0.0), (1.0, 0.0), (-0.2, 0.0), (1.2, 0.0), (1e-12, 1.0),
    ])
    def test_values(self, x, expected):
        assert interior_indicator(x) == expected


class TestMeasurement:
    def test_exact_full_rot(self, p):
        m = make_measurement(0.1, ModelState(0.5, 0.4, 1.0), "exact", p=p)
        assert m.drho_dt == 0.0

    def test_exact_equals_model_rhs(self, p):
        s = ModelState(0.6, 0.4, 0.2)
        m = make_measurement(0.1, s, "exact", p=p)
        assert m.drho_dt == model_rhs(0.1, s, p)[2]
        assert (m.v, m.rho) == (s.v, s.rho)

    def test_fd_constant_rot(self, p):
        s = ModelState(0.5, 0.4, 0.3)
        prev = (ModelState(0.6, 0.5, 0.3), 0.0999)
        m = make_measurement(0.1, s, "finite_difference", prev)
        assert m.drho_dt == 0.0

    def test_fd_requires_prev(self, p):
        with pytest.raises(ValueError, match="previous"):
            make_measurement(0.1, ModelState(0.5, 0.4, 0.3), "finite_difference")

    def test_unknown_mode(self, p):
        with pytest.raises(ValueError, match="mode"):
            make_measurement(0.1, ModelState(0.5, 0.4, 0.3), "noisy", p=p)

    def test_fd_tracks_exact_at_first_order(self, p):
        # backward differences on a smooth run converge at O(dt): halving the
        # step roughly halves the gap to the exact synthesis
        gaps = {}
        for dt in (2e-4, 1e-4):
            sys_fd = WithinHostSystem(p, 0.75, 0.5, 0.25, "finite_difference")
            sys_ex = WithinHostSystem(p, 0.75, 0.5, 0.25, "exact")
            tr_fd = simulate(sys_fd, 0.0, 0.3, dt, record_stride=1)
            tr_ex = simulate(sys_ex, 0.0, 0.3, dt, record_stride=1)
            gaps[dt] = np.max(np.abs(tr_fd.measurements[1:, 2] - tr_ex.measurements[1:, 2]))
        assert gaps[1e-4] < 1e-2
        assert 1.3 < gaps[2e-4] / gaps[1e-4] < 3.0


@pytest.fixture(scope="module")
def traj(p):
    system = WithinHostSystem(p, 0.75, 0.5, 0.25)
    return simulate(system, 0.0, 1.0, 1e-4)


class TestCheckConditions:

    def test_alpha_inf_zero_at_roots(self, p, traj):
        report = check_conditions(traj, p)
        assert report.alpha_inf == 0.0
        # closed-form root set of (1 - cos(10 pi t))*(t - 0.75)^2 on the grid
        expected = sorted({0.0, 0.2, 0.4, 0.6, 0.75, 0.8, 1.0})
        assert [round(t, 9) for t in report.alpha_zero_times] == expected

    def test_truth_equal_estimate_uninformative(self, p):
        # hand-build a short degenerate trajectory
        system = WithinHostSystem(p, 0.5, 0.5, 0.25)
        traj = simulate(system, 0.0, 0.01, 1e-4)
        traj.observer[:, 0] = traj.truth[:, 0]
        traj.observer[:, 1] = traj.truth[:, 1]
        report = check_conditions(traj, p)
        assert report.coercivity_inf is None
        assert any("no informative samples" in note for note in report.notes)

    def test_dominance_without_volume_gain(self, p, traj):
        report = check_conditions(traj, p)
        # k1 = 0: margin reduces to k2*|phi2| >= 0, and k2 = 0 here
        assert report.dominance_inf == 0.0

    def test_dominance_margin_with_gains(self, p):
        p2 = replace(p, k2=1e3)
        system = WithinHostSystem(p2, 0.75, 0.5, 0.25)
        traj = simulate(system, 0.0, 0.3, 1e-4)
        report = check_conditions(traj, p2)
        assert report.dominance_inf >= 0.0

    def test_empty_trajectory_rejected(self, p, traj):
        import dataclasses
        empty = dataclasses.replace(traj, times=np.array([]))
        with pytest.raises(ValueError, match="empty"):
            check_conditions(empty, p)

    def test_singular_samples_excluded_and_counted(self, p):
        # v = 0 with an interior estimate and k1 > 0 makes the stability
        # fraction singular; such samples leave the infimum and are counted
        p1 = replace(p, k1=1e3)
        system = WithinHostSystem(p1, 0.75, 0.5, 0.25)
        traj = simulate(system, 0.0, 0.01, 1e-4)
        traj.truth[:3, 1] = 0.0
        traj.observer[:, 0] = 0.5
        report = check_conditions(traj, p1)
        assert report.stability1_excluded >= 3
        assert report.stability1_excluded == report.stability2_excluded
        assert report.stability1_inf is not None
