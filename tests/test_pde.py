"""Spatial discretisation: stencil, field dynamics, reduction to the ODE."""

import dataclasses
import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings
from hypothesis import strategies as st

from anthobs import (
    Grid,
    Measurement,
    ModelState,
    ObserverState,
    ParameterSet,
    SpatialParameterSet,
    SpatialSystem,
    WithinHostSystem,
    aggregate,
    check_conditions_spatial,
    laplacian_neumann,
    simulate,
)
from anthobs import forcing as F
from anthobs import ode, pde
from anthobs.ode import SpatialCoefficients
from anthobs.systems import MEASUREMENT_MODES


@pytest.fixture(scope="module")
def uniform_sp(p):
    return SpatialParameterSet(base=p, spatial_profile="uniform")


class TestGrid:
    def test_spacing(self):
        g = Grid(1, 8)
        assert g.h == 0.125 and g.h * g.n == 1.0

    def test_centers_1d(self):
        g = Grid(1, 4)
        np.testing.assert_allclose(g.centers()[:, 0], [0.125, 0.375, 0.625, 0.875])

    def test_centers_2d_shape(self):
        g = Grid(2, 8)
        assert g.centers().shape == (8, 8, 2)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            Grid(1, 1)

    def test_bad_dim_rejected(self):
        with pytest.raises(ValueError):
            Grid(3, 8)


class TestLaplacian:
    def test_constant_field_is_flat(self):
        g = Grid(2, 16)
        out = laplacian_neumann(np.full(g.shape, 0.7), g, 1e-2)
        assert np.array_equal(out, np.zeros(g.shape))

    def test_quadratic_interior_identity(self):
        # f(x) = x^2 has second difference exactly 2 at interior cells
        g = Grid(1, 32)
        x = g.centers()[:, 0]
        out = laplacian_neumann(x ** 2, g, 1.0)
        np.testing.assert_allclose(out[1:-1], 2.0, rtol=1e-9)

    def test_conservation_random_fields(self):
        rng = np.random.default_rng(7)
        for dim in (1, 2):
            g = Grid(dim, 16)
            for _ in range(50):
                f = rng.random(g.shape)
                out = laplacian_neumann(f, g, 1e-2)
                assert abs(out.sum()) <= 1e-12 * np.abs(out).sum()

    def test_dissipative(self):
        # pure diffusion shrinks the L2 norm monotonically
        g = Grid(1, 32)
        rng = np.random.default_rng(3)
        f = rng.random(g.shape)
        dt = 0.4 * g.h ** 2 / (2 * 1e-2)
        norms = [float((f ** 2).mean())]
        for _ in range(1000):
            f = f + dt * laplacian_neumann(f, g, 1e-2)
            norms.append(float((f ** 2).mean()))
        diffs = np.diff(norms)
        assert np.all(diffs <= 1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            laplacian_neumann(np.zeros(5), Grid(1, 8), 1e-2)

    @given(data=st.data(), dim=st.sampled_from([1, 2]), n=st.integers(2, 9),
           lead=st.lists(st.integers(1, 3), max_size=2),
           diffusivity=st.floats(0.0, 10.0))
    @settings(max_examples=200, deadline=None)
    def test_leading_axes_hold_independent_fields(self, data, dim, n, lead, diffusivity):
        # each leading index gets what the one-field formula (np.pad in 2-D) gives it
        g = Grid(dim, n)
        values = st.floats(-1e6, 1e6, allow_subnormal=False)
        f = np.array(data.draw(st.lists(values, min_size=n ** dim * int(np.prod(lead)),
                                        max_size=n ** dim * int(np.prod(lead))))
                     ).reshape(*lead, *g.shape)
        out = laplacian_neumann(f, g, diffusivity)
        assert out.shape == f.shape
        inv_h2 = diffusivity / (g.h * g.h)
        for idx in np.ndindex(*lead):
            one = f[idx]
            if dim == 1:
                ref = np.empty_like(one)
                ref[1:-1] = one[:-2] - 2.0 * one[1:-1] + one[2:]
                ref[0], ref[-1] = one[1] - one[0], one[-2] - one[-1]
            else:
                pad = np.pad(one, 1, mode="edge")
                ref = pad[:-2, 1:-1] + pad[2:, 1:-1] + pad[1:-1, :-2] + pad[1:-1, 2:] - 4.0 * one
            assert np.array_equal(out[idx], inv_h2 * ref)
            # the cell sum telescopes to zero, up to the rounding of each cell
            # (absolute below the normal range)
            assert abs(out[idx].sum()) <= (1e-12 * inv_h2 * np.abs(one).sum()
                                           + one.size * np.finfo(float).smallest_subnormal)


class TestAggregate:
    def test_constant(self):
        assert aggregate(np.full((4, 4), 2.5)) == (2.5, 2.5, 2.5)

    def test_split_values(self):
        assert aggregate(np.array([0.0, 1.0, 0.0, 1.0])) == (0.0, 0.5, 1.0)

    def test_order(self):
        f = np.random.default_rng(12).random((6, 6))
        mn, mean, mx = aggregate(f)
        assert mn <= mean <= mx

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate(np.array([]))


class TestPointwiseKernels:
    """The field correction terms agree pointwise with the scalar forms."""

    def test_phi1_matches_scalar(self, p):
        rng = np.random.default_rng(5)
        th = rng.random(64)
        vh = rng.random(64)
        v = rng.random(64)
        field = ode.volume_gap(th, vh, v, p.epsilon)
        scalar = np.array([
            ode.volume_gap(t, y, vm, p.epsilon)
            for t, y, vm in zip(th, vh, v)])
        assert np.array_equal(field, scalar)

    def test_phi2_matches_scalar(self, p, uniform_sp):
        rng = np.random.default_rng(6)
        th = rng.random(64)
        v = rng.random(64)
        rho = rng.random(64)
        drho = rng.standard_normal(64)
        q3 = np.ones(64)
        t = 0.11
        field = ode.rot_innovation(th, drho, q3 * F.rot_forcing(t, th, v, rho, p) * (1.0 - rho))
        scalar = np.array([
            ode.rot_innovation(x, dm, F.rot_forcing(t, x, vm, rm, p) * (1.0 - rm))
            for x, vm, rm, dm in zip(th, v, rho, drho)])
        assert np.array_equal(field, scalar)

    def test_phi3_matches_scalar(self, p):
        rng = np.random.default_rng(8)
        th = rng.random(64)
        vh = rng.random(64)
        t = 0.27
        field = ode.growth_saturation(t, th, vh, p)
        scalar = np.array([ode.growth_saturation(t, x, y, p) for x, y in zip(th, vh)])
        assert np.array_equal(field, scalar)

    def test_phi3_guard(self, p):
        # the guard names the first offending sample, for a float or a field
        with pytest.raises(ValueError, match=r"theta_hat=-9\.99[0-9e-]+ <= 0 at t=0\.1$"):
            ode.growth_saturation(0.1, 1.0 + 2 * p.epsilon, 0.5, p)
        theta_hat = np.array([0.5, 1.0 + 2 * p.epsilon, 1.0 + 3 * p.epsilon])
        with pytest.raises(ValueError, match=r"theta_hat=-9\.99[0-9e-]+ <= 0 at t=0\.2$"):
            ode.growth_saturation(np.array([0.1, 0.2, 0.3]), theta_hat, 0.5, p)


class TestSpatialRhs:
    def test_constant_state_matches_ode_rhs(self, p, uniform_sp):
        g = Grid(2, 8)
        th, v, rho = 0.4, 0.3, 0.2
        system = SpatialSystem(uniform_sp, g, th, v, rho)
        d = system.truth_rhs(0.11, system.truth0)
        d_ode = ode.model_rhs(0.11, ode.ModelState(th, v, rho), p)
        for field, scalar in zip(d, d_ode):
            assert np.array_equal(field, np.full(g.shape, scalar))

    def test_vanishes_at_peak_time(self, p, sp):
        g = Grid(1, 8)
        system = SpatialSystem(sp, g, 0.4, 0.3, 0.2)
        d = system.truth_rhs(0.75, system.truth0)
        for field in d:
            assert np.array_equal(field, np.zeros(g.shape))

    def test_two_equal_cells_have_zero_diffusion(self, p, sp):
        g = Grid(1, 2)
        with_d = SpatialSystem(sp, g, 0.4, 0.3, 0.2)
        without_d = SpatialSystem(replace(sp, diffusivity=0.0), g, 0.4, 0.3, 0.2)
        d_with = with_d.truth_rhs(0.11, with_d.truth0)
        d_without = without_d.truth_rhs(0.11, without_d.truth0)
        np.testing.assert_array_equal(d_with[0], d_without[0])

    def test_observer_matches_model_at_truth_without_gains(self, p, sp):
        g = Grid(1, 8)
        rng = np.random.default_rng(4)
        th = 0.2 + 0.5 * rng.random(g.shape)
        v = 0.1 + 0.5 * rng.random(g.shape)
        rho = 0.1 * rng.random(g.shape)
        system = SpatialSystem(sp, g, 0.5, 0.5, 0.5)
        d_model = system.truth_rhs(0.11, np.stack([th, v, rho]))
        m = np.stack([v, rho, d_model[2]])
        d_obs = system.observer_rhs(0.11, np.stack([th, v]), m)
        np.testing.assert_allclose(d_obs[0], d_model[0], rtol=1e-13, atol=1e-16)
        np.testing.assert_allclose(d_obs[1], d_model[1], rtol=1e-13, atol=1e-16)


def _cells(draw_unit, n):
    return st.lists(draw_unit, min_size=n, max_size=n).map(np.array)


_N = 3
_unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
_profile = st.floats(min_value=0.5, max_value=1.0, allow_nan=False)
_gain = st.sampled_from([0.0, 1.0, 1e3])
#: baseline forcing p1 (not scaled by q1) and growth profile p2 variants
_variant = st.tuples(st.sampled_from([0.0, 2.0]), st.sampled_from(["linear", "quadratic"]))


class TestFoldedEquivalence:
    """Each cell of the spatial model without diffusion is the within-host
    model with that cell's profiles folded into its constants: ``q_i`` into
    ``b_i`` and ``u_space`` into ``sigma``.  Folding reorders one product, so
    cells agree within 1e-13 relative to the magnitude of the summed terms;
    with the uniform profile nothing is folded and they agree exactly."""

    @staticmethod
    def _both(p, t, coef, truth, est, drho, k1, k2):
        pk = replace(p, k1=k1, k2=k2)
        d_model = ode.model_rhs(t, ModelState(*truth), pk, coef)
        d_obs = ode.observer_rhs(t, ObserverState(*est), Measurement(truth[1], truth[2], drho),
                                 pk, coef)
        for i in range(_N):
            pc = replace(p, b1=coef.q1[i] * p.b1, b2=coef.q2[i] * p.b2, b3=coef.q3[i] * p.b3,
                         sigma=coef.u_space[i] * p.sigma, k1=k1, k2=k2)
            s = ModelState(*(float(f[i]) for f in truth))
            o = ObserverState(*(float(f[i]) for f in est))
            m = Measurement(s.v, s.rho, float(drho[i]))
            scale = (abs(F.inhibition_forcing(t, pc)) * (1.0 + F.inhibition_weight(t, pc))
                     + k1 * abs(ode.volume_gap(o.theta_hat, o.v_hat, m.v, pc.epsilon))
                     + k2 * (abs(m.drho_dt) + abs(F.rot_forcing(t, o.theta_hat, m.v, m.rho, pc))))
            yield ([f[i] for f in d_model], ode.model_rhs(t, s, pc),
                   [f[i] for f in d_obs], ode.observer_rhs(t, o, m, pc), scale)

    @given(t=_unit, q=st.tuples(*[_cells(_profile, _N)] * 3), u=_cells(_unit, _N),
           truth=st.tuples(*[_cells(_unit, _N)] * 3), est=st.tuples(*[_cells(_unit, _N)] * 2),
           drho=_cells(st.floats(-50.0, 50.0), _N), k1=_gain, k2=_gain, variant=_variant)
    @settings(max_examples=200, deadline=None)
    def test_cells_match_folded_ode(self, p, t, q, u, truth, est, drho, k1, k2, variant):
        p = replace(p, p1_mode="constant", p1_const=variant[0], p2_mode=variant[1])
        coef = SpatialCoefficients(*q, u)
        for model, model_ode, obs, obs_ode, scale in self._both(
                p, t, coef, truth, est, drho, k1, k2):
            for field, scalar in zip(model + obs, model_ode + obs_ode):
                assert abs(field - scalar) <= 1e-13 * (abs(scalar) + scale)

    @given(t=_unit, truth=st.tuples(*[_cells(_unit, _N)] * 3),
           est=st.tuples(*[_cells(_unit, _N)] * 2), drho=_cells(st.floats(-50.0, 50.0), _N),
           k1=_gain, k2=_gain, rho_prev=_cells(_unit, _N))
    @settings(max_examples=100, deadline=None)
    def test_uniform_profile_is_exact(self, p, t, truth, est, drho, k1, k2, rho_prev):
        one = np.ones(_N)
        coef = SpatialCoefficients(one, one, one, one)
        for model, model_ode, obs, obs_ode, _ in self._both(p, t, coef, truth, est, drho, k1, k2):
            assert [float(x) for x in model] == list(model_ode)
            assert [float(x) for x in obs] == list(obs_ode)
        # the measurement of each cell, read off the model or differenced
        sp = SpatialParameterSet(base=p, spatial_profile="uniform")
        y, y_prev = np.stack(truth), np.stack([truth[0], truth[1], rho_prev])
        prev = (t - 1e-3, y_prev)
        for mode in MEASUREMENT_MODES:
            fields = SpatialSystem(sp, Grid(1, _N), 0.5, 0.5, 0.5, mode).measure(t, y, prev)
            within = WithinHostSystem(p, 0.5, 0.5, 0.5, mode)
            for i in range(_N):
                cell = within.measure(t, tuple(y[:, i].tolist()),
                                      (prev[0], tuple(y_prev[:, i].tolist())))
                assert fields[:, i].tolist() == list(cell)


class TestReductionOracle:
    def test_uniform_profile_reproduces_ode_trajectory(self, p, uniform_sp):
        g = Grid(1, 4)
        pde_sys = SpatialSystem(uniform_sp, g, 0.75, 0.5, 0.75)
        ode_sys = WithinHostSystem(p, 0.75, 0.5, 0.75)
        tr_pde = simulate(pde_sys, 0.0, 0.2, 1e-4)
        tr_ode = simulate(ode_sys, 0.0, 0.2, 1e-4)
        for pde_arr, ode_arr in ((tr_pde.truth, tr_ode.truth),
                                 (tr_pde.observer, tr_ode.observer)):
            gap = np.abs(pde_arr - ode_arr[..., None]).max()
            assert gap <= 1e-6

    def test_uniform_profile_with_gains(self, p, uniform_sp):
        p2 = replace(p, k2=1e3)
        sp2 = SpatialParameterSet(base=p2, spatial_profile="uniform")
        g = Grid(1, 4)
        pde_sys = SpatialSystem(sp2, g, 0.75, 0.5, 0.75)
        ode_sys = WithinHostSystem(p2, 0.75, 0.5, 0.75)
        tr_pde = simulate(pde_sys, 0.0, 0.2, 1e-4)
        tr_ode = simulate(ode_sys, 0.0, 0.2, 1e-4)
        gap = np.abs(tr_pde.observer - tr_ode.observer[..., None]).max()
        assert gap <= 1e-6


class TestSpatialConditions:
    def test_reduces_to_ode_report_on_constant_run(self, p, uniform_sp):
        g = Grid(1, 4)
        pde_sys = SpatialSystem(uniform_sp, g, 0.75, 0.5, 0.75)
        tr_pde = simulate(pde_sys, 0.0, 0.3, 1e-4)
        ode_sys = WithinHostSystem(p, 0.75, 0.5, 0.75)
        tr_ode = simulate(ode_sys, 0.0, 0.3, 1e-4)
        rep_pde = check_conditions_spatial(tr_pde, uniform_sp, pde_sys.coef)
        rep_ode = ode.check_conditions(tr_ode, p)
        assert rep_pde.alpha_inf == pytest.approx(rep_ode.alpha_inf, abs=1e-15)
        assert rep_pde.coercivity_inf == pytest.approx(rep_ode.coercivity_inf, rel=1e-9)
        assert rep_pde.dominance_inf == pytest.approx(rep_ode.dominance_inf, abs=1e-12)

    def test_gain_free_reduces_to_alpha_weight_inf(self, p, sp):
        g = Grid(1, 4)
        system = SpatialSystem(sp, g, 0.5, 0.5, 0.5)
        tr = simulate(system, 0.0, 0.05, 1e-4)
        rep = check_conditions_spatial(tr, sp, system.coef)
        # K1 = K2 = 0: both stability infima equal inf over (t, x) of alpha*w
        assert rep.stability1_inf == rep.stability2_inf
        assert rep.stability1_inf >= rep.alpha_inf

    def test_k1_without_sensitivity_is_flagged(self, p):
        p1 = replace(p, k1=1e3)
        sp1 = SpatialParameterSet(base=p1)
        g = Grid(1, 4)
        system = SpatialSystem(sp1, g, 0.5, 0.5, 0.5)
        tr = simulate(system, 0.0, 0.02, 1e-4)
        rep = check_conditions_spatial(tr, sp1, system.coef)
        assert rep.stability1_inf is None
        assert any("sensitivity" in note for note in rep.notes)

    def test_dominance_nonnegative_without_volume_gain(self, p):
        p2 = replace(p, k2=1e3)
        sp2 = SpatialParameterSet(base=p2)
        g = Grid(1, 4)
        system = SpatialSystem(sp2, g, 0.5, 0.5, 0.5)
        tr = simulate(system, 0.0, 0.05, 1e-4)
        rep = check_conditions_spatial(tr, sp2, system.coef)
        assert rep.dominance_inf >= 0.0


    def test_blocks_match_per_record_loop(self, p):
        # 101 records of 32x32 cells: more than one block, not a multiple of it
        sp1 = SpatialParameterSet(base=replace(p, k1=1e3, k2=1e3))
        system = SpatialSystem(sp1, Grid(2, 32), 0.75, 0.05, 0.75)
        tr = simulate(system, 0.15, 0.25, 1e-4)
        block = pde.BLOCK_SAMPLES // 32 ** 2
        assert len(tr) > block and len(tr) % block != 0
        tr.truth[3, 1, :2] = 0.0  # a few cells without volume: excluded samples
        sens = np.random.default_rng(3).standard_normal(tr.truth[:, 1].shape)
        rep = check_conditions_spatial(tr, sp1, system.coef, sens)
        ref = _per_record_report(tr, sp1, system.coef, sens)
        for f in dataclasses.fields(rep):
            # numpy's exp may differ from libm by one ulp
            assert getattr(rep, f.name) == pytest.approx(getattr(ref, f.name), rel=1e-12), f.name
        # the values the per-record loop gave before records were evaluated in blocks
        assert rep.alpha_inf == 0.0 and rep.alpha_zero_times == [0.2]
        assert rep.coercivity_samples == 103424
        assert rep.stability1_excluded == rep.stability2_excluded == 64
        assert rep.stability1_inf == pytest.approx(-14463.690093139494, rel=1e-9)
        assert rep.stability2_inf == pytest.approx(-14444.194565850023, rel=1e-9)
        assert rep.dominance_inf == pytest.approx(-60.43171097519059, rel=1e-9)


def _per_record_report(traj, sp, coef, sensitivity):
    """The spatial diagnostics evaluated one record at a time on float times:
    the reference for the block evaluation of ``check_conditions_spatial``."""
    p = sp.base

    def batches():
        for i, t in enumerate(traj.times.tolist()):
            theta, v, _ = traj.truth[i]
            o = ObserverState(*traj.observer[i])
            m = Measurement(*traj.measurements[i])
            excluded = v < ode.SINGULAR_TOL
            ratio = (v + (1.0 + p.epsilon - theta) * sensitivity[i]) / np.where(excluded, 1.0, v)
            yield t, theta, o, m, ratio, excluded

    return ode.condition_report(batches(), p, [], coef)


class TestL2Envelope:
    def test_gain_free_run_obeys_flat_bound(self, p, sp):
        # inf alpha = 0 with the seasonal forcing, so the mean-square error
        # must never rise above its initial value (plus tolerance)
        g = Grid(1, 8)
        system = SpatialSystem(sp, g, 0.75, 0.5, 0.75)
        tr = simulate(system, 0.0, 0.3, 1e-4)
        err = tr.truth[:, 0] - tr.observer[:, 0]
        norm2 = (err ** 2).mean(axis=1)
        assert np.all(norm2 <= norm2[0] * (1 + 1e-3))

    def test_positive_baseline_gives_exponential_decay(self, p):
        # a constant baseline forcing makes inf alpha > 0 and the L2 norm
        # decay at least at rate 2*inf(alpha)
        p1 = replace(p, p1_mode="constant", p1_const=2.0)
        sp1 = SpatialParameterSet(base=p1)
        g = Grid(1, 8)
        system = SpatialSystem(sp1, g, 0.75, 0.5, 0.75)
        tr = simulate(system, 0.0, 0.3, 1e-4)
        err = tr.truth[:, 0] - tr.observer[:, 0]
        norm2 = (err ** 2).mean(axis=1)
        bound = norm2[0] * np.exp(-2.0 * 2.0 * tr.times)
        assert np.all(norm2 <= bound * (1 + 1e-3))


class TestCfl:
    def test_unstable_step_refused(self, p):
        sp_fast = SpatialParameterSet(base=p, diffusivity=10.0)
        g = Grid(2, 32)
        system = SpatialSystem(sp_fast, g, 0.5, 0.5, 0.5)
        with pytest.raises(ValueError, match="stability bound"):
            simulate(system, 0.0, 0.1, 1e-4)

    def test_reference_step_passes(self, p, sp):
        g = Grid(2, 32)
        system = SpatialSystem(sp, g, 0.5, 0.5, 0.5)
        assert system.cfl_limit() > p.dt
