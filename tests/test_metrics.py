"""Error measures, envelopes and decay-rate estimation."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from anthobs import metrics
from anthobs import (
    analytic_envelope,
    envelope_check,
    envelope_series,
    fit_decay_rate,
    l2_envelope,
    relative_abs_error,
)
from anthobs.forcing import inhibition_forcing, inhibition_weight

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


class TestRelativeAbsError:
    def test_zero_at_match(self):
        assert relative_abs_error(0.5, 0.5) == 0.0

    def test_plain_ratio(self):
        assert relative_abs_error(0.5, 0.4, floor=1e-3) == pytest.approx(0.2, rel=1e-12)

    def test_floor_active(self):
        assert relative_abs_error(0.0, 1e-3, floor=1e-3) == pytest.approx(1.0, rel=1e-12)

    def test_bad_floor(self):
        with pytest.raises(ValueError):
            relative_abs_error(0.5, 0.4, floor=0.0)

    @given(theta=finite, theta_hat=finite)
    def test_sign_symmetric(self, theta, theta_hat):
        gap = theta - theta_hat
        assert relative_abs_error(theta, theta + gap) == pytest.approx(
            relative_abs_error(theta, theta - gap), rel=1e-12, abs=1e-300)

    @given(theta=st.floats(min_value=0.01, max_value=1e3),
           theta_hat=finite, scale=st.floats(min_value=0.5, max_value=100.0))
    def test_scale_covariant_above_floor(self, theta, theta_hat, scale):
        base = relative_abs_error(theta, theta_hat, floor=1e-9)
        scaled = relative_abs_error(scale * theta, scale * theta_hat, floor=1e-9)
        assert scaled == pytest.approx(base, rel=1e-9)


class TestAnalyticEnvelope:
    def test_initial_value(self, p):
        a = lambda ts: inhibition_forcing(ts, p)
        w = lambda ts: inhibition_weight(ts, p)
        assert analytic_envelope(0.0, a, w, 0.75) == 0.75

    def test_constant_coefficients(self):
        a = lambda ts: np.full_like(ts, 3.0)
        w = lambda ts: np.ones_like(ts)
        got = analytic_envelope(1.0, a, w, 2.0)
        assert got == pytest.approx(2.0 * math.exp(-3.0), rel=1e-10)

    def test_dual_quadrature_crosscheck(self, p):
        # composite Simpson vs independent high-resolution trapezoid
        a = lambda ts: inhibition_forcing(ts, p)
        w = lambda ts: inhibition_weight(ts, p)
        got = analytic_envelope(1.0, a, w, 1.0, panels=10_000)
        ts = np.linspace(0.0, 1.0, 1_000_001)
        q_ref = np.trapezoid(a(ts) * w(ts), ts)
        assert got == pytest.approx(math.exp(-q_ref), rel=1e-8)

    def test_nonincreasing(self, p):
        a = lambda ts: inhibition_forcing(ts, p)
        w = lambda ts: inhibition_weight(ts, p)
        vals = [analytic_envelope(t, a, w, 1.0, panels=2000)
                for t in (0.0, 0.25, 0.5, 0.75, 1.0)]
        assert all(x >= y - 1e-15 for x, y in zip(vals, vals[1:]))

    def test_negative_time_rejected(self, p):
        a = lambda ts: inhibition_forcing(ts, p)
        w = lambda ts: inhibition_weight(ts, p)
        with pytest.raises(ValueError):
            analytic_envelope(-0.1, a, w, 1.0)


class TestEnvelopeSeries:
    def test_matches_scalar_op(self, p):
        a = lambda ts: inhibition_forcing(ts, p)
        w = lambda ts: inhibition_weight(ts, p)
        # wide intervals, and the 1e-3 record intervals of the study's year,
        # which take the fewest sub-intervals
        for times in (np.array([0.001, 0.1, 0.25, 0.5, 0.777, 1.0]), np.linspace(0.0, 1.0, 1001)):
            series = envelope_series(times, p, 0.75)
            scalar = np.array([analytic_envelope(t, a, w, 0.75) for t in times])
            np.testing.assert_allclose(series, scalar, rtol=1e-9)

    def test_time_zero_included(self, p):
        times = np.array([0.0, 0.5])
        series = envelope_series(times, p, 0.3)
        assert series[0] == 0.3

    def test_unsorted_rejected(self, p):
        with pytest.raises(ValueError):
            envelope_series(np.array([0.5, 0.2]), p, 1.0)

    @pytest.mark.parametrize("times", [np.array([0.0, 1e6]), np.array([0.0, 0.01, 1e6]),
                                       np.array([1e6])])
    def test_interval_beyond_the_node_budget_rejected(self, p, times):
        # one wide interval sets the rule of every interval: 1e6 would take
        # billions of nodes each
        with pytest.raises(ValueError, match="Simpson nodes"):
            envelope_series(times, p, 1.0)

    @pytest.mark.parametrize("times", [np.linspace(0.0, 1.0, 1001), np.linspace(0.3, 0.9, 65),
                                       np.array([0.0]), np.array([0.2])])
    def test_blocks_of_intervals_leave_the_value(self, p, times, monkeypatch):
        # one block of every interval is the rule on all Simpson nodes at once
        widest = np.diff(np.concatenate([[0.0], times])).max(initial=0.0)
        nodes = 2 * max(1, math.ceil(widest / (2 * metrics.ENVELOPE_STEP))) + 1  # per interval
        monkeypatch.setattr(metrics, "ENVELOPE_NODES", nodes * (len(times) + 1))
        whole = envelope_series(times, p, 0.75)
        for block in (1, 7, 64):
            monkeypatch.setattr(metrics, "ENVELOPE_NODES", nodes * block)
            assert np.array_equal(envelope_series(times, p, 0.75), whole)

    @given(t0=st.one_of(st.just(0.0), st.floats(1e-3, 0.05)),
           widths=st.lists(st.floats(1e-4, 0.01), max_size=49),
           k1=st.floats(0.0, 1e4), k2=st.floats(0.0, 1e4))
    def test_gains_leave_the_value(self, p, t0, widths, k1, k2):
        # the envelope is the gain-free law: the gains of the run leave it
        times = t0 + np.cumsum([0.0, *widths])
        assert np.array_equal(envelope_series(times, replace(p, k1=k1, k2=k2), 1.0),
                              envelope_series(times, replace(p, k1=0.0, k2=0.0), 1.0))


class TestL2Envelope:
    def test_flat_bound(self):
        vals = l2_envelope(np.array([0.0, 0.5, 1.0]), 0.0, 0.4)
        np.testing.assert_array_equal(vals, np.full(3, 0.4 ** 2))

    def test_initial_value(self):
        assert l2_envelope(0.0, 2.0, 0.4) == pytest.approx(0.16, rel=1e-15)

    def test_unit_rate(self):
        assert l2_envelope(1.0, 1.0, 1.0) == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            l2_envelope(1.0, -0.5, 1.0)


class TestFitDecayRate:
    def test_synthetic_exponential(self):
        t = np.arange(0.0, 1.0, 1e-3)
        fit = fit_decay_rate(t, np.exp(-3.0 * t))
        assert fit.rate == pytest.approx(3.0, rel=1e-2)
        assert fit.residual_rms < 1e-9
        assert not fit.truncated

    def test_constant_series(self):
        t = np.linspace(0.0, 1.0, 50)
        fit = fit_decay_rate(t, np.full(50, 0.3))
        assert fit.rate == pytest.approx(0.0, abs=1e-12)

    def test_exact_zero_truncates(self):
        t = np.linspace(0.0, 1.0, 40)
        e = np.exp(-2.0 * t)
        e[25:] = 0.0
        fit = fit_decay_rate(t, e)
        assert fit.truncated
        assert fit.n_used == 25
        assert fit.rate == pytest.approx(2.0, rel=1e-6)

    def test_window(self):
        t = np.linspace(0.0, 2.0, 200)
        e = np.where(t < 1.0, 1.0, np.exp(-(t - 1.0)))
        fit = fit_decay_rate(t, e, window=(1.0, 2.0))
        assert fit.rate == pytest.approx(1.0, rel=1e-6)

    def test_insufficient_data(self):
        with pytest.raises(ValueError, match="insufficient"):
            fit_decay_rate(np.array([0.0, 0.1]), np.array([1.0, 0.5]))

    def test_envelope_rate_recovery(self, p):
        # constant forcing a, unit weight: the envelope decays at rate a
        a = lambda ts: np.full_like(np.asarray(ts, dtype=float), 2.5)
        w = lambda ts: np.ones_like(np.asarray(ts, dtype=float))
        t = np.linspace(0.0, 1.0, 101)
        env = np.array([analytic_envelope(x, a, w, 1.0, panels=200) for x in t])
        fit = fit_decay_rate(t, env)
        assert fit.rate == pytest.approx(2.5, rel=1e-3)


class TestEnvelopeCheck:
    def test_equal_series_zero_tol(self):
        e = np.array([1.0, 0.5, 0.25])
        res = envelope_check(e, e, tol=0.0)
        assert res.passed

    def test_single_violation_located(self):
        env = np.array([1.0, 0.5, 0.25, 0.1])
        series = env.copy()
        series[2] = 2.0 * env[2]
        res = envelope_check(series, env, tol=1e-3)
        assert not res.passed
        assert res.worst_index == 2

    def test_tolerance_absorbs_slack(self):
        env = np.ones(5)
        series = np.full(5, 1.0005)
        assert envelope_check(series, env, tol=1e-3).passed
        assert not envelope_check(series, env, tol=1e-4).passed

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            envelope_check(np.ones(3), np.ones(4))
