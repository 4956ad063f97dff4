"""Fixed-step integrators, trajectory recording and run safeguards."""

import math
from dataclasses import replace

import numpy as np
import pytest

from anthobs import (
    Grid,
    ModelState,
    SpatialParameterSet,
    SpatialSystem,
    WithinHostSystem,
    model_rhs,
    simulate,
    step_euler,
    step_rk4,
)
from anthobs import stepping
from anthobs.ode import rot_rate
from anthobs.stepping import NonFiniteError, OvershootError, cfl_step_limit


def decay(t, x):
    return -x


class TestStepEuler:
    def test_zero_rhs(self):
        state = np.array([1.0, 2.0])
        out = step_euler(lambda t, x: np.zeros(2), 0.0, state, 0.1)
        assert np.array_equal(out, state)

    def test_linear_decay_single_step(self):
        assert step_euler(decay, 0.0, 1.0, 1e-4) == pytest.approx(0.9999, rel=1e-15)

    def test_full_year_decay(self):
        x = 1.0
        dt = 1e-4
        for k in range(10_000):
            x = step_euler(decay, k * dt, x, dt)
        assert x == pytest.approx(math.exp(-1.0), rel=1e-4)

    def test_nonfinite_derivative_identified(self):
        def bad(t, x):
            return np.array([0.0, math.nan, 0.0])
        with pytest.raises(NonFiniteError, match=r"component \(1,\)"):
            step_euler(bad, 0.0, np.zeros(3), 0.1)


class TestStepRk4:
    def test_zero_rhs(self):
        state = np.array([1.0, 2.0])
        out = step_rk4(lambda t, x: np.zeros(2), 0.0, state, 0.1)
        assert np.array_equal(out, state)

    def test_decay_high_accuracy(self):
        x = 1.0
        for k in range(100):
            x = step_rk4(decay, k * 0.01, x, 0.01)
        assert x == pytest.approx(math.exp(-1.0), rel=1e-8, abs=1e-10)

    def test_agrees_with_euler_to_second_order(self):
        # single step on a smooth system: |euler - rk4| = O(dt^2)
        gaps = {}
        for dt in (1e-2, 5e-3):
            e = step_euler(decay, 0.0, 1.0, dt)
            r = step_rk4(decay, 0.0, 1.0, dt)
            gaps[dt] = abs(e - r)
        assert 3.0 < gaps[1e-2] / gaps[5e-3] < 5.0


class TestConvergenceOrder:
    """Step-halving on the reference within-host model."""

    @staticmethod
    def _final_state(p, scheme, dt):
        state = np.array([0.75, 0.5, 0.25])
        steps = int(round(1.0 / dt))
        rhs = lambda t, y: np.array(model_rhs(t, ModelState(*y.tolist()), p))
        stepper = step_euler if scheme == "euler" else step_rk4
        for k in range(steps):
            state = stepper(rhs, k * dt, state, dt)
        return state

    def test_euler_first_order(self, p):
        x1 = self._final_state(p, "euler", 2e-3)
        x2 = self._final_state(p, "euler", 1e-3)
        x3 = self._final_state(p, "euler", 5e-4)
        ratio = np.linalg.norm(x1 - x2) / np.linalg.norm(x2 - x3)
        assert 1.0 < ratio < 4.0  # theoretical 2, within a factor 2

    def test_rk4_fourth_order(self, p):
        x1 = self._final_state(p, "rk4", 4e-3)
        x2 = self._final_state(p, "rk4", 2e-3)
        x3 = self._final_state(p, "rk4", 1e-3)
        ratio = np.linalg.norm(x1 - x2) / np.linalg.norm(x2 - x3)
        assert 8.0 < ratio < 32.0  # theoretical 16, within a factor 2


class TestSimulate:
    def test_zero_duration_single_sample(self, p):
        system = WithinHostSystem(p, 0.5, 0.5, 0.25)
        traj = simulate(system, 0.3, 0.3, 1e-4)
        assert len(traj) == 1
        np.testing.assert_array_equal(traj.truth[0], [0.5, 0.5, 0.25])

    def test_sample_count(self, p):
        system = WithinHostSystem(p, 0.5, 0.5, 0.25)
        traj = simulate(system, 0.0, 1.0, 1e-4, record_stride=10)
        assert len(traj) == 1001
        assert traj.times[0] == 0.0
        np.testing.assert_allclose(np.diff(traj.times), 1e-3, rtol=1e-9)

    def test_determinism(self, p):
        def run():
            system = WithinHostSystem(p, 0.75, 0.5, 0.25)
            return simulate(system, 0.0, 0.2, 1e-4)
        a, b = run(), run()
        assert np.array_equal(a.truth, b.truth)
        assert np.array_equal(a.observer, b.observer)
        assert np.array_equal(a.measurements, b.measurements)

    def test_float_and_array_kernels_agree(self, p):
        # every Euler and rk4 step and every clamp of the float kernels equals
        # the array kernels bit for bit on the within-host truth and observer RHS
        system = WithinHostSystem(replace(p, k2=1e3), 0.75, 0.5, 0.25)
        as_array = lambda f: lambda t, a: np.array(f(t, tuple(a.tolist())))
        lo = (0.0, 0.0, 0.0, 0.0, 0.0)
        hi = (1.0, p.v_max, 1.0, 1.0, p.v_max)
        dt = 1e-4
        for scheme in ("euler", "rk4"):
            float_step = stepping._FLOAT_STEPPERS[scheme]
            array_step = stepping._STEPPERS[scheme]
            y, z = (0.75, 0.5, 0.25), (0.0, 0.5)
            float_max, array_max = [0.0] * 5, np.zeros(5)
            for k in range(1000):
                t = k * dt
                m = system.measure(t, y, None)
                obs_rhs = lambda tt, zz: system.observer_rhs(tt, zz, m)
                y_new = float_step(system.truth_rhs, t, y, dt)
                z_new = float_step(obs_rhs, t, z, dt)
                assert y_new == tuple(array_step(as_array(system.truth_rhs), t, np.array(y), dt))
                assert z_new == tuple(array_step(as_array(obs_rhs), t, np.array(z), dt))
                # a state pushed off its box on both sides clamps alike, and
                # both kernels fold the same overshoot into the run's maxima
                off = (*y_new, *z_new)
                off = tuple(x + d * (k % 7) for x, d in zip(off, (0.1, -0.1, -0.05, -1e-3, 0.1)))
                fs, fw = stepping._clamp_floats(off, lo, hi, float_max)
                as_, aw = stepping._clamp_array(np.array(off)[:, None], np.array(lo),
                                                np.array(hi), array_max)
                assert fs == tuple(as_[:, 0]) and fw == aw
                assert float_max == array_max.tolist()
                y, z = y_new, z_new
            assert min(float_max) > 0.0

    @pytest.mark.parametrize("scheme", ["euler", "rk4"])
    def test_exact_sensor_reads_the_truths_rot_rate(self, p, scheme):
        # the exact drho_dt is the rot rate of the recorded truth at every
        # record, in a lone run and in a batch
        q = replace(p, k1=1e3, k2=1e3)
        lone = WithinHostSystem(q, 0.75, 0.5, 0.25)
        batch = WithinHostSystem(q, [0.75, 0.05, 0.5], [0.5, 0.05, 0.25], [0.25, 0.05, 0.5],
                                 gains=(np.array([1e3, 0.0, 1e3]), np.array([1e3, 1e3, 0.0])))
        for system in (lone, batch):
            traj = simulate(system, 0.0, 0.2, 1e-4, scheme, record_stride=8)
            assert traj.times[-1] == pytest.approx(0.2)
            for t, (theta, v, rho), drho in zip(traj.times, traj.truth, traj.measurements[:, 2]):
                assert np.array_equal(drho, rot_rate(float(t), theta, v, rho, q))

    def test_measurement_causality_fd(self, p):
        # backward differencing: the recorded measurement at step n only uses
        # rho at steps n and n-1
        system = WithinHostSystem(p, 0.75, 0.5, 0.25, "finite_difference")
        traj = simulate(system, 0.0, 0.01, 1e-4, record_stride=1)
        rho = traj.truth[:, 2]
        expected = (rho[1:] - rho[:-1]) / 1e-4
        np.testing.assert_allclose(traj.measurements[1:, 2], expected,
                                   rtol=1e-7, atol=1e-12)

    def test_gain_cap_rechecked(self, p):
        system = WithinHostSystem(p, 0.5, 0.5, 0.25)
        system.p = replace(p, k2=1e3)  # legal for dt=1e-4 ...
        with pytest.raises(ValueError, match="cap"):
            simulate(system, 0.0, 0.1, 1e-2)  # ... but not for dt=1e-2

    def test_overshoot_abort(self, p):
        # a hostile rhs that jumps far outside the box must abort the run
        class Hostile(WithinHostSystem):
            def truth_rhs(self, t, y):
                return (1e6, 0.0, 0.0)
        system = Hostile(p, 0.5, 0.5, 0.25)
        with pytest.raises(OvershootError, match="theta"):
            simulate(system, 0.0, 0.1, 1e-4)

    @pytest.mark.parametrize("scheme", ["euler", "rk4"])
    @pytest.mark.parametrize("kind", ["within_host", "spatial_1d"])
    def test_nonfinite_observer_named(self, p, sp, kind, scheme):
        within_host = kind == "within_host"

        class Broken(WithinHostSystem if within_host else SpatialSystem):
            def observer_rhs(self, t, z, m):
                return (math.nan, 0.0) if within_host else np.stack([z[0] * math.nan, z[1]])
        system = (Broken(p, 0.5, 0.5, 0.25) if within_host
                  else Broken(sp, Grid(1, 4), 0.5, 0.5, 0.5))
        with pytest.raises(NonFiniteError, match=r"at t=0\.0.*\(observer\)$"):
            simulate(system, 0.0, 0.01, 1e-4, scheme=scheme)

    @pytest.mark.parametrize("scheme", ["euler", "rk4"])
    @pytest.mark.parametrize("kind", ["within_host", "spatial_1d"])
    def test_nonfinite_truth_named(self, p, sp, kind, scheme):
        # the last truth component sits next to the observer's first in the
        # coupled state: its name comes from the index of the non-finite entry
        within_host = kind == "within_host"

        class Broken(WithinHostSystem if within_host else SpatialSystem):
            def truth_rhs(self, t, y):
                return ((0.0, 0.0, math.nan) if within_host
                        else np.stack([0.0 * y[0], 0.0 * y[1], y[2] * math.nan]))
        system = (Broken(p, 0.5, 0.5, 0.25) if within_host
                  else Broken(sp, Grid(1, 4), 0.5, 0.5, 0.5))
        with pytest.raises(NonFiniteError, match=r"at t=0\.0, component \(2,?.*\(truth\)$"):
            simulate(system, 0.0, 0.01, 1e-4, scheme=scheme)

    @pytest.mark.parametrize("scheme", ["euler", "rk4"])
    @pytest.mark.parametrize("kind", ["within_host", "spatial_1d"])
    @pytest.mark.parametrize("pushed", ["theta", "theta_hat"])
    def test_small_overshoot_is_clamped(self, p, sp, kind, scheme, pushed):
        # every step pushes theta to 1 + 5e-7 (or theta_hat to -5e-7): below
        # OVERSHOOT_LIMIT, so the run completes, the box holds and the
        # excursion is recorded for that component only
        rate = 5e-7 / 1e-4
        up = rate if pushed == "theta" else 0.0
        down = rate if pushed == "theta_hat" else 0.0
        if kind == "within_host":
            class Pushed(WithinHostSystem):
                def truth_rhs(self, t, y):
                    return (up, 0.0, 0.0)

                def observer_rhs(self, t, z, m):
                    return (-down, 0.0)
            system = Pushed(p, 1.0, 0.5, 0.25)
        else:
            class Pushed(SpatialSystem):
                def truth_rhs(self, t, y):
                    return np.stack([np.full_like(y[0], up), 0.0 * y[1], 0.0 * y[2]])

                def observer_rhs(self, t, z, m):
                    return np.stack([np.full_like(z[0], -down), 0.0 * z[1]])
            system = Pushed(sp, Grid(1, 4), 1.0, 0.5, 0.25)
        traj = simulate(system, 0.0, 0.01, 1e-4, scheme=scheme, record_stride=1)
        assert len(traj) == 101
        assert np.all(traj.truth[:, 0] == 1.0)
        assert np.all(traj.observer[:, 0] == 0.0)
        assert traj.overshoot[pushed] == pytest.approx(5e-7, rel=1e-6)
        assert set(traj.overshoot.values()) == {0.0, traj.overshoot[pushed]}
        assert sum(v > 0.0 for v in traj.overshoot.values()) == 1

    def test_bad_scheme_rejected(self, p):
        system = WithinHostSystem(p, 0.5, 0.5, 0.25)
        with pytest.raises(ValueError, match="scheme"):
            simulate(system, 0.0, 0.1, 1e-4, scheme="heun")

    def test_reversed_interval_rejected(self, p):
        system = WithinHostSystem(p, 0.5, 0.5, 0.25)
        with pytest.raises(ValueError, match="earlier"):
            simulate(system, 1.0, 0.0, 1e-4)

    def test_truth_only_run(self, p):
        # no observer reads a truth-only run's measurement, so none is taken;
        # the truth is the truth of the full run, bit for bit
        def refuse(*args):
            raise AssertionError("a truth-only run took a measurement")

        for make in (lambda: WithinHostSystem(p, 0.5, 0.5, 0.25, "finite_difference"),
                     lambda: SpatialSystem(SpatialParameterSet(base=p), Grid(2, 4),
                                           0.5, 0.5, 0.5)):
            full = simulate(make(), 0.0, 0.01, 1e-4)
            system = make()
            system.measure = refuse
            traj = next(stepping.record_blocks(system, 0.0, 0.01, 1e-4, truth_only=True,
                                               whole=True))
            assert traj.observer is None and traj.measurements is None
            assert len(traj) == 11
            assert np.array_equal(traj.truth, full.truth)


class TestBatch:
    """A within-host system with a member axis steps each member as its lone run."""

    TRIPLES = [(0.75, 0.5, 0.25), (1.0, 0.5, 0.25), (0.05, 0.05, 0.05)]
    GAINS = [(0.0, 0.0), (0.0, 1e3), (1e3, 1e3)]

    @staticmethod
    def _batch(cls, p, triples, gains, mode="exact"):
        return cls(p, *zip(*triples), mode, gains=tuple(np.array(g) for g in zip(*gains)))

    @pytest.mark.parametrize("scheme", ["euler", "rk4"])
    @pytest.mark.parametrize("mode", ["exact", "finite_difference"])
    def test_members_record_their_lone_runs(self, p, scheme, mode):
        # theta0 = 1 and a push: that member alone is clamped, below the limit
        class Pushed(WithinHostSystem):
            def truth_rhs(self, t, y):
                dtheta, dv, drho = super().truth_rhs(t, y)
                return dtheta + 5e-3 * (y[0] >= 1.0), dv, drho

        batch = self._batch(Pushed, p, self.TRIPLES, self.GAINS, mode)
        traj = simulate(batch, 0.0, 0.02, 1e-4, scheme, record_stride=3)
        for j, (triple, (k1, k2)) in enumerate(zip(self.TRIPLES, self.GAINS)):
            lone = simulate(Pushed(replace(p, k1=k1, k2=k2), *triple, mode),
                            0.0, 0.02, 1e-4, scheme, record_stride=3)
            member = traj.member(j)
            for name in ("times", "truth", "observer", "measurements"):
                assert np.array_equal(getattr(member, name), getattr(lone, name)), name
            assert member.overshoot == lone.overshoot
        assert list(traj.overshoot["theta"] > 0.0) == [False, True, False]

    def test_every_member_admitted(self, p):
        with pytest.raises(ValueError, match=r"theta0=1\.5"):
            self._batch(WithinHostSystem, p, [*self.TRIPLES, (1.5, 0.5, 0.25)],
                        [*self.GAINS, (0.0, 0.0)])
        batch = self._batch(WithinHostSystem, p, self.TRIPLES,
                            [(0.0, 0.0), (0.0, 2e3), (1e3, 1e3)])
        with pytest.raises(ValueError, match="gain cap exceeded: max\\(k1,k2\\)=2000"):
            simulate(batch, 0.0, 0.01, 1e-4)


class TestCflLimit:
    def test_no_diffusion_unbounded(self):
        assert cfl_step_limit(0.1, 2, 0.0) == math.inf

    def test_reference_grid(self):
        # n=32, 2-D, D=1e-2: 0.9 * (1/32)^2 / (4 * 1e-2)
        assert cfl_step_limit(1 / 32, 2, 1e-2) == pytest.approx(0.9 / (1024 * 0.04))
