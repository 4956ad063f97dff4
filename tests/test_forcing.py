"""Forcing functions, control signal and parameter validation."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anthobs import Grid, ParameterSet, SpatialParameterSet, validate, validate_spatial
from anthobs import forcing as F
from anthobs import ode
from anthobs.pde import spatial_coefficients

times = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestControl:
    def test_zero_at_first_phase(self, p):
        assert F.control(0.6, p) == 0.0

    def test_half_year_value(self, p):
        # sin^2(25pi*(0.5-0.6)^2) = sin^2(pi/4) = 1/2, times exp(-10*(0.1)^2)
        assert F.control(0.5, p) == pytest.approx(0.5 * math.exp(-0.1), rel=1e-12)

    def test_zero_at_sine_root(self, p):
        # 25pi*(0.4-0.6)^2 = pi exactly
        assert F.control(0.4, p) == pytest.approx(0.0, abs=1e-28)

    @given(t=times)
    def test_bounded(self, p, t):
        assert 0.0 <= F.control(t, p) <= 1.0

    def test_series_matches_scalar(self, p):
        ts = np.linspace(0.0, 1.0, 257)
        series = F.control(ts, p)
        scalar = np.array([F.control(float(t), p) for t in ts])
        # vectorised transcendentals may differ from libm by one ulp
        np.testing.assert_allclose(series, scalar, rtol=1e-14, atol=1e-16)


class TestInhibitionWeight:
    def test_identity_without_control(self, p):
        q = replace(p, omega1=0.0)  # sin^2(0) = 0 -> u = 0
        assert F.inhibition_weight(0.3, q) == 1.0

    def test_full_control(self):
        # u = 1 via omega1 such that the sine is 1 and no damping
        q = ParameterSet(omega1=math.pi / 2, omega2=0.0, phase1=0.0, phase2=0.0,
                         sigma=0.9)
        assert F.control(1.0, q) == pytest.approx(1.0, rel=1e-12)
        assert F.inhibition_weight(1.0, q) == pytest.approx(10.0, rel=1e-12)

    def test_half_control(self):
        q = ParameterSet(omega1=math.pi / 4, omega2=0.0, phase1=0.0, phase2=0.0,
                         sigma=0.9)
        assert F.control(1.0, q) == pytest.approx(0.5, rel=1e-12)
        assert F.inhibition_weight(1.0, q) == pytest.approx(1.0 / 0.55, rel=1e-12)

    def test_singular_configuration_raises(self):
        q = ParameterSet(omega1=math.pi / 2, omega2=0.0, phase1=0.0, phase2=0.0,
                         sigma=1.0)
        with pytest.raises(ValueError, match="singular"):
            F.inhibition_weight(1.0, q)

    @given(t=times)
    def test_range(self, p, t):
        w = F.inhibition_weight(t, p)
        assert 1.0 <= w <= 1.0 / (1.0 - p.sigma) + 1e-12

    def test_series_matches_scalar(self, p):
        ts = np.linspace(0.0, 1.0, 257)
        series = F.inhibition_weight(ts, p)
        scalar = np.array([F.inhibition_weight(float(t), p) for t in ts])
        np.testing.assert_allclose(series, scalar, rtol=1e-14)


class TestInhibitionForcing:
    def test_zero_at_peak_time(self, p):
        assert F.inhibition_forcing(0.75, p) == 0.0

    def test_zero_at_cosine_root(self, p):
        # c1*t = 2pi at t = 0.2
        assert F.inhibition_forcing(0.2, p) == pytest.approx(0.0, abs=1e-25)

    def test_early_season_value(self, p):
        # b1*(1-cos(pi/2))*(0.05-0.75)^2 = 5 ln10 * 0.49
        expected = 5.0 * math.log(10.0) * 0.49
        assert F.inhibition_forcing(0.05, p) == pytest.approx(expected, rel=1e-12)

    def test_constant_baseline_mode(self, p):
        q = replace(p, p1_mode="constant", p1_const=2.5)
        assert F.inhibition_forcing(0.75, q) == 2.5

    @given(t=times)
    def test_nonnegative(self, p, t):
        assert F.inhibition_forcing(t, p) >= 0.0

    def test_series_matches_scalar(self, p):
        ts = np.linspace(0.0, 1.0, 257)
        series = F.inhibition_forcing(ts, p)
        scalar = np.array([F.inhibition_forcing(float(t), p) for t in ts])
        np.testing.assert_allclose(series, scalar, rtol=1e-14, atol=1e-18)


class TestGrowthForcing:
    def test_zero_at_peak_time(self, p):
        assert F.growth_forcing(0.75, 0.3, p) == 0.0

    def test_profile_root(self, p):
        # linear profile 2 - x vanishes at x = 2
        assert F.growth_forcing(0.05, 2.0, p) == 0.0

    def test_early_season_value(self, p):
        # b2 * (1-cos(pi/2)) * 0.49 * (2 - 0.5), with table-derived b2
        b2 = p.v_max * math.log(1e5 * p.v_max * (1 - p.epsilon * p.eta_star)) / 2
        assert F.growth_forcing(0.05, 0.5, p) == pytest.approx(b2 * 0.49 * 1.5, rel=1e-12)

    def test_quadratic_profile(self, p):
        q = replace(p, p2_mode="quadratic")
        ratio = F.growth_forcing(0.05, 0.5, q) / F.growth_forcing(0.05, 0.5, p)
        assert ratio == pytest.approx(1.5, rel=1e-12)  # (2-0.5)^2 / (2-0.5)

    @given(t=times, th1=unit, th2=unit)
    def test_nonincreasing_in_theta(self, p, t, th1, th2):
        lo, hi = sorted((th1, th2))
        assert F.growth_forcing(t, lo, p) >= F.growth_forcing(t, hi, p)


class TestRotForcing:
    @given(t=times, th=unit, rho=unit)
    def test_zero_without_volume(self, p, t, th, rho):
        assert F.rot_forcing(t, th, 0.0, rho, p) == 0.0

    def test_zero_at_balance(self, p):
        # theta = kappa * rho cancels the feedback factor
        assert F.rot_forcing(0.1, 0.5, 0.7, 0.5, p) == 0.0

    def test_zero_at_origin_pair(self, p):
        assert F.rot_forcing(0.1, 0.0, 0.7, 0.0, p) == 0.0

    def test_early_season_value(self, p):
        # ln(1e5) * (1-cos(pi/2)) * 0.49 * 0.75 * 0.5
        expected = math.log(1e5) * 0.49 * 0.75 * 0.5
        assert F.rot_forcing(0.05, 0.75, 0.5, 0.0, p) == pytest.approx(expected, rel=1e-12)

    @given(t=times, v=unit, rho=unit, th1=unit, th2=unit)
    def test_increasing_in_theta(self, p, t, v, rho, th1, th2):
        lo, hi = sorted((th1, th2))
        assert F.rot_forcing(t, lo, v, rho, p) <= F.rot_forcing(t, hi, v, rho, p)


class TestVolumeCapacity:
    def test_no_regulariser(self):
        q = ParameterSet(epsilon=0.0, eta_star=0.5)
        assert F.volume_capacity(0.3, q) == 1.0

    def test_reference_value(self, p):
        assert F.volume_capacity(0.0, p) == pytest.approx(1.0 / 1.0001, rel=1e-15)

    def test_time_constant(self, p):
        assert F.volume_capacity(0.1, p) == F.volume_capacity(0.9, p)

    @given(t=times)
    def test_seasonal_mode_stays_in_band(self, t):
        q = ParameterSet(eta_mode="seasonal", eta_star=0.8)
        eta = F.volume_capacity(t, q)
        assert q.eta_star - 1e-12 <= eta <= 1.0 / (1.0 + q.epsilon) + 1e-12


class TestArrayTimes:
    """Every time function takes one float time or an array of times."""

    samples = st.lists(st.tuples(times, unit, unit, unit, unit, unit), min_size=1, max_size=16)

    @settings(max_examples=60, deadline=None)
    @given(rows=samples, eta_mode=st.sampled_from(["constant", "seasonal"]),
           eta_star=st.floats(min_value=0.05, max_value=0.99),
           p1_mode=st.sampled_from(["zero", "constant"]),
           p1_const=st.floats(min_value=0.0, max_value=5.0),
           p2_mode=st.sampled_from(["linear", "quadratic"]))
    def test_array_matches_float(self, p, rows, eta_mode, eta_star, p1_mode, p1_const,
                                 p2_mode):
        q = replace(p, eta_mode=eta_mode, eta_star=eta_star, p1_mode=p1_mode,
                    p1_const=p1_const, p2_mode=p2_mode)
        # each function of a sample (t, theta, v, rho, theta_hat, v_hat)
        functions = {
            "control": lambda t, *_: F.control(t, q),
            "inhibition_weight": lambda t, *_: F.inhibition_weight(t, q),
            "seasonal": lambda t, *_: F.seasonal(t, q.b3, q.c3, q.d3),
            "inhibition_forcing": lambda t, *_: F.inhibition_forcing(t, q),
            "growth_forcing": lambda t, theta, *_: F.growth_forcing(t, theta, q),
            "rot_forcing": lambda t, theta, v, rho, *_: F.rot_forcing(t, theta, v, rho, q),
            "volume_capacity": lambda t, *_: F.volume_capacity(t, q),
            "growth_saturation": lambda t, _th, _v, _rho, theta_hat, v_hat:
                ode.growth_saturation(t, theta_hat, v_hat, q),
        }
        columns = np.array(rows).T
        for name, f in functions.items():
            on_array = np.broadcast_to(f(*columns), len(rows))
            by_float = [f(*row) for row in rows]
            assert all(isinstance(x, float) for x in by_float), name
            # numpy's exp may differ from libm by one ulp; absolute floor for
            # values that cancel to zero, such as the seasonal shape at its roots
            np.testing.assert_allclose(on_array, by_float, rtol=1e-14, atol=1e-15,
                                       err_msg=name)

    def test_singular_array_names_first_offending_time(self):
        q = ParameterSet(omega1=math.pi / 2, omega2=0.0, phase1=0.0, phase2=0.0,
                         sigma=1.0)
        with pytest.raises(ValueError, match=r"at t=1\.0:"):
            F.inhibition_weight(np.array([0.0, 0.5, 1.0, 3.0]), q)


class TestAnisotropy:
    def test_zero_scale(self):
        assert np.array_equal(F.anisotropy_matrix(7, 3, 0.0), np.zeros((3, 3)))

    def test_deterministic(self):
        a = F.anisotropy_matrix(42, 2, 5.0)
        b = F.anisotropy_matrix(42, 2, 5.0)
        assert np.array_equal(a, b)

    def test_range_and_shape(self):
        m = F.anisotropy_matrix(42, 2, 5.0)
        assert m.shape == (2, 2)
        assert np.all((m >= 0.0) & (m < 5.0))

    def test_distinct_seeds_differ(self):
        assert not np.array_equal(F.anisotropy_matrix(1, 3, 5.0),
                                  F.anisotropy_matrix(2, 3, 5.0))

    @pytest.mark.parametrize("seed", [0, 42, 43, 44, 45, 2015, 31337, 2**32 - 1, 2**32,
                                      2**64 + 7])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_numpy_stream_bit_for_bit(self, seed, dim):
        # numpy's default_rng stream in C order; a seed of 2**32 and above
        # hashes more than one 32-bit word into the generator's state
        m = F.anisotropy_matrix(seed, dim, 5.0)
        expected = np.random.default_rng(seed).random((dim, dim)) * 5.0
        assert m.shape == expected.shape and m.tobytes() == expected.tobytes()

    @given(seed=st.integers(min_value=0, max_value=2**128 - 1))
    @settings(max_examples=100, deadline=None)
    def test_numpy_stream_of_any_seed(self, seed):
        m = F.anisotropy_matrix(seed, 2, 5.0)
        assert m.tobytes() == (np.random.default_rng(seed).random((2, 2)) * 5.0).tobytes()

    def test_negative_seed_named(self):
        with pytest.raises(ValueError, match=r"^anisotropy seed -1 must be >= 0$"):
            F.anisotropy_matrix(-1, 2, 5.0)


class TestSpatialWeight:
    def test_value_at_center(self, sp):
        x = np.zeros((1, 2))
        q = F.spatial_weight(x, 1, sp, dim=2)
        assert q[0] == pytest.approx(0.5, rel=1e-15)

    def test_upper_value(self, p):
        # identity anisotropy via scale 0 is degenerate; craft |M(x-c)|^2 = pi/2
        sp1 = SpatialParameterSet(base=p, anisotropy_scale=5.0)
        m = F.anisotropy_matrix(p.seed + 1, 1, 5.0)
        # pick x with (m[0,0]*x)^2 = pi/2
        x = math.sqrt(math.pi / 2.0) / m[0, 0]
        q = F.spatial_weight(np.array([[x]]), 1, sp1, dim=1)
        assert q[0] == pytest.approx(1.0, rel=1e-12)

    @given(x=st.floats(min_value=0, max_value=1), y=st.floats(min_value=0, max_value=1))
    @settings(max_examples=50)
    def test_range(self, sp, x, y):
        q = F.spatial_weight(np.array([[x, y]]), 2, sp, dim=2)
        assert 0.5 <= q[0] <= 1.0


class TestSpatialControl:
    """Spatial control ``u(t, x) = u_space(x) * u(t)`` with the profile of
    :func:`anthobs.pde.spatial_coefficients`."""

    def test_zero_at_center(self, sp):
        # put the control centre x0 on a cell centre of a 4x4 grid
        grid = Grid(2, 4)
        sp0 = replace(sp, x0=(0.125, 0.375))
        u = spatial_coefficients(grid, sp0).u_space * F.control(0.5, sp0.base)
        assert u[0, 1] == 0.0

    def test_zero_at_phase(self, sp):
        u = spatial_coefficients(Grid(2, 4), sp).u_space * F.control(0.6, sp.base)
        assert np.array_equal(u, np.zeros((4, 4)))

    def test_unit_spatial_factor_reduces_to_control(self, p, sp):
        # place x0 so the cell centre x = 1/8 has |M(x-x0)|^2 = pi/2: factor 1
        m = F.anisotropy_matrix(p.seed, 1, sp.anisotropy_scale)
        sp1 = replace(sp, x0=(0.125 - math.sqrt(math.pi / 2.0) / m[0, 0],))
        u = spatial_coefficients(Grid(1, 4), sp1).u_space * F.control(0.5, p)
        assert u[0] == pytest.approx(F.control(0.5, p), rel=1e-12)


class TestValidate:
    def test_defaults_clean(self, p):
        assert validate(p) == []

    def test_spatial_defaults_clean(self, sp):
        assert validate_spatial(sp) == []

    def test_gain_cap_is_hard(self, p):
        bad = replace(p, k1=1e4)  # cap is 1/(10*1e-4) = 1e3
        violations = validate(bad)
        assert any("gain cap" in v.message and v.hard for v in violations)

    def test_sigma_one_is_singular(self, p):
        violations = validate(replace(p, sigma=1.0))
        assert any("singular" in v.message for v in violations)

    def test_negative_epsilon_flagged(self, p):
        assert any(v.key == "epsilon" for v in validate(replace(p, epsilon=-1e-3)))

    def test_eta_star_boundary_flagged(self, p):
        # epsilon = 0 makes the default eta_star hit the open bound at 1
        violations = validate(ParameterSet(epsilon=0.0))
        assert any(v.key == "eta_star" for v in violations)

    @pytest.mark.parametrize("eta_mode", ["constant", "seasonal"])
    def test_eta_band_violation(self, p, eta_mode):
        hi = 1.0 / (1.0 + p.epsilon)

        def flagged(q):
            return any(v.key == "eta_mode" for v in validate(q))

        above = replace(p, eta_mode=eta_mode, eta_star=0.5 * (hi + 1.0))
        assert flagged(above)
        assert all(v.key != "eta_star" for v in validate(above))  # eta_star itself is fine
        assert not flagged(replace(p, eta_mode=eta_mode, eta_star=0.5))
        assert not flagged(replace(p, eta_mode=eta_mode, eta_star=hi))
        assert not flagged(ParameterSet(eta_mode=eta_mode))

    def test_unknown_selector_flagged(self, p):
        violations = validate(replace(p, p2_mode="cubic"))
        assert any(v.key == "p2_mode" and v.hard for v in violations)

    def test_spatial_gain_cap(self, p):
        sp_bad = SpatialParameterSet(base=replace(p, k2=2e3))
        assert any("gain cap" in v.message for v in validate_spatial(sp_bad))

    @pytest.mark.parametrize("seed,message", [
        (True, "seed=True must be an integer"),
        (42.0, "seed=42.0 must be an integer"),
        (math.nan, "seed=nan must be finite"),
        (-1, "seed=-1 must be >= 0: seed + i draws the anisotropy matrices"),
    ])
    def test_seed_rule_is_hard(self, p, seed, message):
        # a snapshot cannot carry the first three, and the last cannot draw
        for violations in (validate(replace(p, seed=seed)),
                           validate_spatial(SpatialParameterSet(base=replace(p, seed=seed)))):
            assert [(v.key, v.message, v.hard) for v in violations] == [("seed", message, True)]

    def test_negative_diffusivity(self, p):
        sp_bad = SpatialParameterSet(base=p, diffusivity=-1.0)
        assert any(v.key == "diffusivity" for v in validate_spatial(sp_bad))
