"""Configuration files, scenario matrix, artifacts, re-checks and the CLI."""

import collections
import dataclasses
import math
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import tracemalloc
import xml.etree.ElementTree as ET
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anthobs import Grid, ParameterSet, SpatialParameterSet, SpatialSystem, WithinHostSystem
from anthobs import metrics, pde, runner, simulate, svgplot
from anthobs.cli import main
from anthobs.config import ConfigError, load_config, load_config_text, write_config
from anthobs.fileio import write_atomic
from anthobs.params import gain_cap, validate_spatial


def _floats(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


@st.composite
def admissible_configs(draw):
    """A parameter set, spatial set and scenario that the config loader admits."""
    dt = draw(_floats(1e-5, 1e-2))
    gain = _floats(0.0, gain_cap(dt))
    p = ParameterSet(
        **{k: draw(_floats(0.0, 50.0)) for k in ("b1", "b2", "b3", "omega1", "omega2",
                                                  "kappa", "p1_const")},
        **{k: draw(_floats(1e-3, 100.0)) for k in ("c1", "c2", "c3")},
        **{k: draw(_floats(0.0, 1.0)) for k in ("d1", "d2", "d3", "phase1", "phase2")},
        sigma=draw(_floats(0.01, 0.99)), epsilon=draw(_floats(0.0, 1e-2)),
        eta_star=draw(st.one_of(st.none(), _floats(0.01, 0.99))),
        eta_mode=draw(st.sampled_from(["constant", "seasonal"])),
        v_max=draw(_floats(0.1, 10.0)), k1=draw(gain), k2=draw(gain),
        p1_mode=draw(st.sampled_from(["zero", "constant"])),
        p2_mode=draw(st.sampled_from(["linear", "quadratic"])),
        dt=dt, seed=draw(st.integers(0, 2**31 - 1)))
    point = st.lists(_floats(0.0, 1.0), min_size=1, max_size=3).map(tuple)
    sp = SpatialParameterSet(
        base=p, diffusivity=draw(_floats(0.0, 1.0)), anisotropy_scale=draw(_floats(0.0, 10.0)),
        spatial_profile=draw(st.sampled_from(["radial", "uniform"])),
        x0=draw(point), x1=draw(point), x2=draw(point), x3=draw(point))
    model = draw(st.sampled_from(["ode", "pde"]))
    theta0 = draw(_floats(0.0, 1.0))
    t0 = draw(_floats(0.0, 1.0))
    grid = {"dim": draw(st.sampled_from([1, 2])), "n": draw(st.integers(2, 64))}
    s = runner.make_scenario(
        p, model, theta0, draw(_floats(0.0, p.v_max)),
        draw(_floats(0.0, theta0)) if model == "ode" else theta0, draw(gain), draw(gain),
        measurement=draw(st.sampled_from(["exact", "finite_difference"])),
        scheme=draw(st.sampled_from(["euler", "rk4"])), t0=t0,
        t1=t0 + draw(_floats(0.0, 1.0)), **(grid if model == "pde" else {}))
    return p, sp, s


#: Every float field of the parameter sets, and every spatial point.
FLOAT_KEYS = [f.name for cls in (ParameterSet, SpatialParameterSet) for f in dataclasses.fields(cls)
              if f.type.startswith(("float", "tuple"))]


@pytest.fixture()
def fast_scenarios(p):
    """Short-horizon scenarios for artifact tests."""
    return [
        runner.make_scenario(p, "ode", 0.75, 0.5, 0.25, 0.0, 0.0, t1=0.02),
        runner.make_scenario(p, "ode", 0.75, 0.5, 0.25, 0.0, 1e3, t1=0.02),
        runner.make_scenario(p, "pde", 0.5, 0.5, 0.5, 0.0, 0.0, t1=0.01,
                             dim=1, n=4),
    ]


class TestConfig:
    def test_empty_file_defaults(self):
        cfg = load_config_text("")
        assert cfg.params == ParameterSet()
        assert cfg.scenarios == [] and cfg.sweeps == []

    def test_comments_and_blanks(self):
        cfg = load_config_text("# a comment\n\nsigma = 0.8  # inline\n")
        assert cfg.params.sigma == 0.8

    def test_unknown_key_with_line(self):
        with pytest.raises(ConfigError, match="line 3.*unknown key 'sganarelle'"):
            load_config_text("sigma = 0.9\n\nsganarelle = 1\n")

    def test_bad_value_with_line(self):
        with pytest.raises(ConfigError, match="line 1.*bad value"):
            load_config_text("sigma = huge\n")

    def test_gain_cap_rejected(self):
        with pytest.raises(ConfigError, match="gain cap"):
            load_config_text("k1 = 10000\ndt = 1e-4\n")

    @given(drawn=admissible_configs())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_drawn(self, drawn):
        p, sp, s = drawn
        text = write_config(p, sp, [s])
        cfg = load_config_text(text)
        assert (cfg.params, cfg.spatial, cfg.scenarios) == (p, sp, [s])
        # equal text means equal bits: repr tells -0.0 from 0.0
        assert write_config(cfg.params, cfg.spatial, cfg.scenarios) == text

    def test_spatial_gain_keys_unknown(self):
        # the spatial observer uses the gains k1, k2 of the base set
        with pytest.raises(ConfigError, match="line 2.*unknown key 'K1'"):
            load_config_text("k1 = 0\nK1 = 500\n")

    @pytest.mark.parametrize("item", ["k1=nan", "t1=inf", "t1=nan"])
    def test_nonfinite_scenario_rejected_with_line(self, item):
        with pytest.raises(ConfigError, match="line 2: invalid scenario"):
            load_config_text(f"# two\nscenario = ode theta0=0.5 v0=0.5 rho0=0.25 {item}\n")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_nonfinite_parameter_rejected(self, p, key, value):
        sp = SpatialParameterSet(base=p)
        if key in {f.name for f in dataclasses.fields(ParameterSet)}:
            sp = replace(sp, base=replace(p, **{key: value}))
        else:
            sp = replace(sp, **{key: (0.5, value) if key.startswith("x") else value})
        # reported once: a value that is not finite takes part in no other check
        assert [(v.key, v.hard) for v in validate_spatial(sp)] == [(key, True)]
        with pytest.raises(ConfigError, match=f"configuration rejected: .*{key}="):
            load_config_text(write_config(sp.base, sp))

    def test_round_trip_exact(self):
        p = ParameterSet(sigma=0.85, k2=123.456789, epsilon=3e-5, seed=7,
                         p2_mode="quadratic")
        sp = SpatialParameterSet(base=p, diffusivity=0.5e-2, anisotropy_scale=2.5)
        cfg = load_config_text(write_config(p, sp))
        assert cfg.params == p
        assert cfg.spatial == sp

    def test_scenario_line(self):
        cfg = load_config_text(
            "scenario = ode theta0=0.5 v0=0.25 rho0=0.25 k1=0 k2=1000\n")
        (s,) = cfg.scenarios
        assert (s.model, s.theta0, s.k2) == ("ode", 0.5, 1000.0)

    def test_scenario_inherits_gains(self):
        cfg = load_config_text("k2 = 500\nscenario = ode theta0=0.5 v0=0.2 rho0=0.1\n")
        assert cfg.scenarios[0].k2 == 500.0

    def test_pde_scenario_defaults_rho_to_theta(self):
        cfg = load_config_text("scenario = pde theta0=0.25 v0=0.5 n=8 dim=1\n")
        assert cfg.scenarios[0].rho0 == 0.25

    def test_invalid_scenario_reported_with_line(self):
        with pytest.raises(ConfigError, match="line 1.*rho0"):
            load_config_text("scenario = ode theta0=0.05 v0=0.5 rho0=0.5\n")

    def test_unknown_sweep(self):
        with pytest.raises(ConfigError, match="unknown sweep"):
            load_config_text("sweep = paper-sde\n")

    def test_scenario_round_trips_through_config(self, p):
        s = runner.make_scenario(p, "pde", 0.75, 0.5, 0.75, 0.0, 1e3,
                                 t1=0.5, dim=1, n=16)
        cfg = load_config_text(write_config(p, scenarios=[s]))
        assert cfg.scenarios == [s]


class TestScenarioMatrix:
    def test_paper_ode_counts(self, p):
        scenarios = runner.scenario_matrix("paper-ode", p)
        # theta0=0.05 pairs fall back to rho0=theta0 (one value); theta0=0.75
        # pairs admit all three grid values; four gain pairs throughout
        assert len(scenarios) == (2 * 1 + 2 * 3) * 4 == 32
        assert len(scenarios) >= 16
        assert all(s.rho0 <= s.theta0 for s in scenarios)

    def test_paper_pde_counts(self, p):
        scenarios = runner.scenario_matrix("paper-pde", p)
        assert len(scenarios) == 16  # 4 initial pairs x 4 gain pairs
        assert all(s.rho0 == s.theta0 for s in scenarios)

    def test_gain_pairs_present(self, p):
        gains = {(s.k1, s.k2) for s in runner.scenario_matrix("paper-pde", p)}
        assert gains == {(0.0, 0.0), (0.0, 1e3), (1e3, 0.0), (1e3, 1e3)}

    def test_custom_empty(self, p):
        assert runner.scenario_matrix("custom", p) == []

    def test_unknown_kind(self, p):
        with pytest.raises(ValueError):
            runner.scenario_matrix("paper-dde", p)

    def test_ode_rho_filter_enforced(self, p):
        with pytest.raises(ValueError, match="rho0"):
            runner.make_scenario(p, "ode", 0.05, 0.5, 0.25, 0.0, 0.0)


class TestInputValidation:
    """Scenarios and both systems reject a bad input with the same message."""

    @pytest.mark.parametrize("theta0,v0,rho0,mode,message", [
        (1.5, 0.5, 1.5, "exact", "theta0=1.5"),
        (0.5, 1.2, 0.5, "exact", "v0=1.2"),
        (0.5, 0.5, -0.1, "exact", "rho0=-0.1"),
        (0.5, 0.5, 0.5, "psychic", "measurement mode 'psychic'"),
    ])
    def test_same_rejection_everywhere(self, p, sp, theta0, v0, rho0, mode, message):
        builders = [
            lambda: runner.make_scenario(p, "ode", theta0, v0, rho0, 0.0, 0.0,
                                         measurement=mode),
            lambda: WithinHostSystem(p, theta0, v0, rho0, mode),
            lambda: SpatialSystem(sp, Grid(1, 4), theta0, v0, rho0, mode),
        ]
        for build in builders:
            with pytest.raises(ValueError, match=re.escape(message)):
                build()

    def test_unknown_scheme(self, p):
        with pytest.raises(ValueError, match="scheme"):
            runner.make_scenario(p, "ode", 0.5, 0.5, 0.25, 0.0, 0.0, scheme="leapfrog")

    @pytest.mark.parametrize("k1,t1,message", [
        (math.nan, 1.0, "k1=nan must be finite"),
        (0.0, math.inf, "t1=inf must be finite"),
        (0.0, math.nan, "t1=nan must be finite"),
        (1e4, 1.0, "gain cap exceeded"),
        (-1.0, 1.0, "k1=-1.0 must be finite and >= 0"),
        (0.0, -1.0, "t1=-1.0 earlier than t0=0.0"),
    ])
    def test_same_run_rule_as_simulate(self, p, k1, t1, message):
        # make_scenario admits exactly the runs simulate accepts
        with pytest.raises(ValueError, match=re.escape(message)):
            runner.make_scenario(p, "ode", 0.5, 0.5, 0.25, k1, 0.0, t1=t1)
        with pytest.raises(ValueError, match=re.escape(message)):
            simulate(WithinHostSystem(replace(p, k1=k1), 0.5, 0.5, 0.25), 0.0, t1, p.dt)

    def test_infinite_step_named(self, p):
        # the gain cap 1/(10*dt) of dt = inf is 0: the step is at fault, not the gain
        p = replace(p, dt=math.inf, k1=1e3)
        for run in (lambda: runner.make_scenario(p, "ode", 0.5, 0.5, 0.25, 1e3, 0.0),
                    lambda: simulate(WithinHostSystem(p, 0.5, 0.5, 0.25), 0.0, 1.0, p.dt)):
            with pytest.raises(ValueError, match="^dt=inf must be a positive finite step$"):
                run()


def _streamed(group, sp, grid) -> tuple[dict, list[int]]:
    """The blocks of the volume sensitivity stream of ``group``, concatenated
    (one field per initial state, over every record of the run), and the
    number of records of each block."""
    blocks = list(runner._volume_sensitivity(group, sp, grid))
    return ({state: np.concatenate([b[state] for b in blocks]) for state in blocks[0]},
            [len(next(iter(b.values()))) for b in blocks])


class TestVolumeSensitivity:
    def test_one_sided_quotient_at_box_edge(self, p):
        # theta0 = 1 clamps the upper perturbed run to 1: the quotient must
        # divide by the actual spread, not by twice the perturbation
        s = runner.make_scenario(p, "pde", 1.0, 0.5, 1.0, 1e3, 0.0, t1=0.01, dim=1, n=4)
        sp1 = SpatialParameterSet(base=replace(p, k1=1e3))
        grid = Grid(1, 4)
        with pytest.MonkeyPatch.context() as mp:  # 11 records in blocks of 3, 3, 3, 2
            mp.setattr(pde, "BLOCK_SAMPLES", 3 * 4)
            fields, sizes = _streamed([s], sp1, grid)
        sens = fields[(1.0, 0.5, 1.0)]
        assert sizes == [3, 3, 3, 2]
        lower = 1.0 - runner.SENSITIVITY_DELTA
        v = [simulate(SpatialSystem(sp1, grid, theta0, 0.5, 1.0), 0.0, 0.01, p.dt,
                      record_stride=runner.RECORD_STRIDE, truth_only=True).truth[:, 1]
             for theta0 in (1.0, lower)]
        np.testing.assert_allclose(sens, (v[0] - v[1]) / (1.0 - lower), rtol=1e-12, atol=0)
        assert np.abs(sens[-1]).min() > 0.0

    @given(block=st.integers(1, 12))
    @settings(max_examples=20, deadline=None)
    def test_the_stream_is_the_same_at_every_block_size(self, p, block):
        # 11 records on 4 cells, in blocks of `block` records: most sizes leave
        # a partial last block, 11 and 12 give the whole run in one
        grid = dict(dim=1, n=4, t1=0.01)
        scenarios = [runner.make_scenario(p, "pde", th, v0, th, k1, k2, **grid)
                     for (th, v0), (k1, k2) in ((SPATIAL_PAIRS[0], (1e3, 0.0)),
                                                (SPATIAL_PAIRS[2], (1e3, 1e3)),
                                                (SPATIAL_PAIRS[0], (0.0, 0.0)))]
        sp, cells = SpatialParameterSet(base=p), Grid(1, 4)
        whole, sizes = _streamed(scenarios[:2], sp, cells)
        assert sizes == [11]
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            root = Path(tmp)
            runner.sweep("custom", p, out_dir=root / "whole", scenarios=scenarios)
            mp.setattr(pde, "BLOCK_SAMPLES", block * 4)
            fields, sizes = _streamed(scenarios[:2], sp, cells)
            assert sizes == [block] * (11 // block) + [11 % block] * bool(11 % block)
            assert fields.keys() == whole.keys() == {(0.75, 0.05, 0.75), (1.0, 0.5, 1.0)}
            for state, field in whole.items():  # bit for bit
                assert fields[state].tobytes() == field.tobytes(), state
            records = runner.sweep("custom", p, out_dir=root / "blocks", scenarios=scenarios)
            assert [r.status for r in records] == ["ok"] * len(scenarios)
            for s in scenarios:
                assert _artifacts(root / "blocks" / s.label) == _artifacts(
                    root / "whole" / s.label), s.label


class TestRunScenario:
    def test_artifact_files(self, p, tmp_path, fast_scenarios):
        rec = runner.run_scenario(fast_scenarios[0], p, out_dir=tmp_path)
        assert rec.status == "ok"
        d = Path(rec.out_dir)
        names = {f.name for f in d.iterdir()}
        assert names == {"config.txt", "series.csv", "record.txt",
                         "estimate.svg", "error.svg"}

    def test_csv_schema_ode(self, p, tmp_path, fast_scenarios):
        rec = runner.run_scenario(fast_scenarios[0], p, out_dir=tmp_path)
        header = (Path(rec.out_dir) / "series.csv").read_text().splitlines()[0]
        assert header == "t,theta,v,rho,theta_hat,v_hat,abs_err,rel_err"

    def test_csv_schema_pde(self, p, tmp_path, fast_scenarios):
        rec = runner.run_scenario(fast_scenarios[2], p, out_dir=tmp_path)
        header = (Path(rec.out_dir) / "series.csv").read_text().splitlines()[0]
        assert header.startswith("t,theta_min,theta_mean,theta_max,theta_hat_min")
        assert header.endswith("rel_err_min,rel_err_mean,rel_err_max")

    def test_zero_duration_header_plus_initial_row(self, p, tmp_path):
        s = runner.make_scenario(p, "ode", 0.5, 0.5, 0.25, 0.0, 0.0,
                                 t0=0.3, t1=0.3)
        rec = runner.run_scenario(s, p, out_dir=tmp_path)
        lines = (Path(rec.out_dir) / "series.csv").read_text().strip().splitlines()
        assert len(lines) == 2  # header + initial sample

    @pytest.mark.parametrize("t0, k2", [(0.0, 0.0), (0.3, 0.0), (0.3, 1e3)])
    def test_natural_observer_envelope_passes(self, p, tmp_path, t0, k2):
        # a run from t0 > 0 decays from its own e(t0), not from e(0)
        s = runner.make_scenario(p, "ode", 0.75, 0.5, 0.25, 0.0, k2, t0=t0)
        rec = runner.run_scenario(s, p, out_dir=tmp_path)
        assert rec.checks["exact_law"] == ("pass" if k2 == 0.0 else "n/a")
        assert rec.checks["decay_envelope"] == "pass"
        assert runner.check_artifacts(tmp_path) == []

    def test_pde_gain_free_l2_envelope_passes(self, p, tmp_path):
        s = runner.make_scenario(p, "pde", 0.75, 0.5, 0.75, 0.0, 0.0,
                                 t1=0.05, dim=1, n=4)
        rec = runner.run_scenario(s, p, out_dir=tmp_path)
        assert rec.checks["l2_envelope"] == "pass"

    def test_gain_runs_skip_envelopes(self, p, tmp_path):
        s = runner.make_scenario(p, "ode", 0.75, 0.5, 0.25, 1e3, 0.0, t1=0.02)
        rec = runner.run_scenario(s, p, out_dir=tmp_path)
        assert rec.checks == {"exact_law": "n/a", "decay_envelope": "n/a"}

    def test_failure_recorded_not_raised(self, p, tmp_path):
        # diffusivity far beyond the CFL bound must fail the run, not the batch
        sp_bad = SpatialParameterSet(base=p, diffusivity=10.0)
        s = runner.make_scenario(p, "pde", 0.5, 0.5, 0.5, 0.0, 0.0,
                                 t1=0.01, dim=1, n=32)
        rec = runner.run_scenario(s, p, sp_bad, out_dir=tmp_path)
        assert rec.status == "failed"
        assert "stability bound" in rec.error

    def test_failed_rerun_leaves_only_record(self, p, tmp_path):
        # same label, other spatial parameters: the earlier artifacts would
        # describe a run that the record does not
        s = runner.make_scenario(p, "pde", 0.5, 0.5, 0.5, 0.0, 0.0, t1=0.01, dim=1, n=32)
        assert runner.run_scenario(s, p, out_dir=tmp_path).status == "ok"
        assert len(list((tmp_path / s.label).iterdir())) == 5
        rec = runner.run_scenario(s, p, SpatialParameterSet(base=p, diffusivity=10.0),
                                  out_dir=tmp_path)
        assert rec.status == "failed"
        assert [f.name for f in (tmp_path / s.label).iterdir()] == ["record.txt"]

    def test_l2_err_column(self, p, tmp_path):
        s = runner.make_scenario(p, "pde", 0.75, 0.5, 0.75, 0.0, 0.0, t1=0.05, dim=2, n=8)
        rec = runner.run_scenario(s, p, out_dir=tmp_path)
        header, data = runner._read_csv(Path(rec.out_dir) / "series.csv")
        col = dict(zip(header, data.T))
        assert header[header.index("abs_err_max") + 1] == "l2_err"
        system = SpatialSystem(SpatialParameterSet(base=p), Grid(2, 8), 0.75, 0.5, 0.75)
        traj = simulate(system, s.t0, s.t1, p.dt, record_stride=runner.RECORD_STRIDE)
        e = traj.truth[:, 0] - traj.observer[:, 0]
        direct = np.sqrt((e ** 2).mean(axis=(1, 2)))
        np.testing.assert_allclose(col["l2_err"], direct, rtol=1e-8, atol=0)
        # mean |e| <= sqrt(mean e^2) <= max |e|, up to the 9-digit rounding
        assert np.all(col["abs_err_mean"] <= col["l2_err"] * (1 + 1e-8))
        assert np.all(col["l2_err"] <= col["abs_err_max"] * (1 + 1e-8))
        assert np.ptp(col["l2_err"] - col["abs_err_mean"]) > 0  # not the same column

    def test_lone_within_host_run_steps_floats_once(self, p, fast_scenarios, monkeypatch):
        # a group of one: one simulate call on the float kernels (a 1-D state)
        calls = []

        def spy(system, *args, **kwargs):
            calls.append(np.ndim(system.truth0))
            return simulate(system, *args, **kwargs)

        monkeypatch.setattr(runner, "simulate", spy)
        assert runner.run_scenario(fast_scenarios[1], p).status == "ok"
        assert calls == [1]

    def test_condition_report_recorded(self, p, tmp_path, fast_scenarios):
        rec = runner.run_scenario(fast_scenarios[0], p, out_dir=tmp_path)
        assert "alpha_inf" in rec.condition
        text = (Path(rec.out_dir) / "record.txt").read_text()
        assert "cond_alpha_inf" in text


class TestSweepAndCheck:
    def test_sweep_writes_manifest_and_checks_clean(self, p, tmp_path, fast_scenarios):
        records = runner.sweep("custom", p, out_dir=tmp_path,
                               scenarios=fast_scenarios)
        assert all(r.status == "ok" for r in records)
        manifest = (tmp_path / "manifest.txt").read_text().splitlines()
        assert len(manifest) == len(fast_scenarios)
        assert runner.check_artifacts(tmp_path) == []

    def test_sweep_deterministic_bytes(self, p, tmp_path, fast_scenarios):
        a, b = tmp_path / "a", tmp_path / "b"
        runner.sweep("custom", p, out_dir=a, scenarios=fast_scenarios)
        runner.sweep("custom", p, out_dir=b, scenarios=fast_scenarios)
        for csv_a in sorted(a.glob("*/series.csv")):
            csv_b = b / csv_a.relative_to(a)
            assert csv_a.read_bytes() == csv_b.read_bytes()
        for svg_a in sorted(a.glob("*/*.svg")):
            assert svg_a.read_bytes() == (b / svg_a.relative_to(a)).read_bytes()

    def test_worker_pool_matches_serial(self, p, tmp_path, fast_scenarios):
        # the two within-host scenarios form one group: the pool steps a batch
        serial, parallel = tmp_path / "s", tmp_path / "p"
        runner.sweep("custom", p, out_dir=serial, scenarios=fast_scenarios)
        runner.sweep("custom", p, out_dir=parallel, scenarios=fast_scenarios,
                     workers=2)
        manifest = [(d / "manifest.txt").read_bytes() for d in (serial, parallel)]
        assert manifest[0] == manifest[1]
        for s in fast_scenarios:
            assert _artifacts(serial / s.label) == _artifacts(parallel / s.label), s.label

    def test_worker_pool_failure_stays_with_its_scenario(self, p, tmp_path, fast_scenarios):
        # dt = 1e-4 breaks the diffusion bound of a 512^2 grid
        bad = runner.make_scenario(p, "pde", 0.05, 0.5, 0.05, 0.0, 0.0, dim=2, n=512)
        scenarios = [*fast_scenarios, bad]
        serial, parallel = tmp_path / "s", tmp_path / "p"
        runner.sweep("custom", p, out_dir=serial, scenarios=scenarios)
        records = runner.sweep("custom", p, out_dir=parallel, scenarios=scenarios, workers=2)
        assert [r.status for r in records] == ["ok"] * len(fast_scenarios) + ["failed"]
        assert records[-1].error == runner.run_scenario(bad, p).error
        assert records[-1].error.startswith("ValueError: dt=0.0001 violates the diffusion")
        for s in scenarios:
            assert _artifacts(serial / s.label) == _artifacts(parallel / s.label), s.label

    def test_tampered_csv_detected(self, p, tmp_path, fast_scenarios):
        runner.sweep("custom", p, out_dir=tmp_path, scenarios=fast_scenarios[:1])
        csv = next(tmp_path.glob("*/series.csv"))
        lines = csv.read_text().splitlines()
        parts = lines[5].split(",")
        parts[1] = "0.999999"
        lines[5] = ",".join(parts)
        csv.write_text("\n".join(lines) + "\n")
        assert runner.check_artifacts(tmp_path) != []

    def test_tampered_record_detected(self, p, tmp_path, fast_scenarios):
        runner.sweep("custom", p, out_dir=tmp_path, scenarios=fast_scenarios[:2])
        rec = next(tmp_path.glob("*/record.txt"))
        text = rec.read_text().replace("check_decay_envelope = pass",
                                       "check_decay_envelope = fail")
        rec.write_text(text)
        assert runner.check_artifacts(tmp_path) != []

    @staticmethod
    def _edit_csv(csv: Path, column: str, line: int, edit) -> None:
        """Replace one value of ``column`` on ``line`` (the header is line 0)."""
        lines = csv.read_text().splitlines()
        i = lines[0].split(",").index(column)
        parts = lines[line].split(",")
        parts[i] = edit(float(parts[i]))
        lines[line] = ",".join(parts)
        csv.write_text("\n".join(lines) + "\n")

    def test_tampered_l2_verdict_detected(self, p, tmp_path, fast_scenarios):
        runner.sweep("custom", p, out_dir=tmp_path, scenarios=fast_scenarios[2:])
        rec = next(tmp_path.glob("pde*/record.txt"))
        text = rec.read_text()
        assert "check_l2_envelope = pass" in text
        rec.write_text(text.replace("check_l2_envelope = pass", "check_l2_envelope = fail"))
        assert runner.check_artifacts(tmp_path) == [
            f"{rec.parent}: check l2_envelope recomputes to 'pass' but record says 'fail'"]

    def test_tampered_l2_value_detected(self, p, tmp_path, fast_scenarios):
        runner.sweep("custom", p, out_dir=tmp_path, scenarios=fast_scenarios[2:])
        csv = next(tmp_path.glob("pde*/series.csv"))
        original = csv.read_text()
        # the last sample above its envelope: the replayed bound flips
        self._edit_csv(csv, "l2_err", -1, lambda x: "0.6")
        assert f"{csv.parent}: check l2_envelope recomputes to 'fail' but record says 'pass'" \
            in runner.check_artifacts(tmp_path)
        # a sample moved out of mean |e| <= l2 <= max |e| by more than the
        # 9-digit slack (1e-7) is caught; moved by less, it passes as rounding
        header, data = runner._read_csv(csv)
        col = dict(zip(header, data.T))
        unordered = f"{csv.parent}: columns abs_err_min, abs_err_mean, l2_err, abs_err_max not ordered"
        for bound, shift, problems in (("abs_err_max", 2e-7, [unordered]),
                                       ("abs_err_mean", -2e-7, [unordered]),
                                       ("abs_err_max", 5e-8, []),
                                       ("abs_err_mean", -5e-8, [])):
            csv.write_text(original)
            self._edit_csv(csv, "l2_err", 4, lambda x: f"{col[bound][3] + shift:.9g}")
            assert runner.check_artifacts(tmp_path) == problems

    def test_missing_dir(self):
        assert runner.check_artifacts("/nonexistent/place") != []

    def test_failed_scenario_fails_check(self, p, tmp_path, fast_scenarios, capsys):
        # dt = 1e-4 breaks the diffusion bound of a 512^2 grid: the run fails
        # at validation and leaves only its record behind
        bad = runner.make_scenario(p, "pde", 0.05, 0.5, 0.05, 0.0, 0.0, dim=2, n=512)
        records = runner.sweep("custom", p, out_dir=tmp_path,
                               scenarios=[fast_scenarios[0], bad])
        assert [r.status for r in records] == ["ok", "failed"]
        problems = runner.check_artifacts(tmp_path)
        assert problems == [f"{tmp_path / bad.label}: manifest status 'failed'"]
        assert main(["check", str(tmp_path)]) == 1

    def test_failed_run_writes_record(self, p, tmp_path, fast_scenarios, capsys):
        bad = runner.make_scenario(p, "pde", 0.05, 0.5, 0.05, 0.0, 0.0, dim=2, n=512)
        runner.sweep("custom", p, out_dir=tmp_path, scenarios=[fast_scenarios[0], bad])
        d = tmp_path / bad.label
        assert [f.name for f in d.iterdir()] == ["record.txt"]
        rec = runner._read_record(d / "record.txt")
        assert rec["status"] == "failed"
        assert rec["error"].startswith("ValueError: dt=0.0001 violates the diffusion")
        assert runner.check_artifacts(d) == [
            f"{d}: recorded status 'failed' ({rec['error']})"]
        assert main(["check", str(d)]) == 1
        assert main(["check", str(tmp_path)]) == 1

    def test_nested_sweep_checked(self, p, tmp_path, fast_scenarios, capsys):
        # the layout of `anthobs run` with only a sweep line: <out>/<kind>/
        runner.sweep("custom", p, out_dir=tmp_path / "paper-ode", scenarios=fast_scenarios[:2])
        assert runner.check_artifacts(tmp_path) == []
        assert main(["check", str(tmp_path)]) == 0

    def test_nested_sweep_tamper_detected(self, p, tmp_path, fast_scenarios, capsys):
        # custom scenarios at the root and a sweep below it, as `anthobs run` writes
        runner.sweep("custom", p, out_dir=tmp_path, scenarios=fast_scenarios[:1])
        nested = tmp_path / "paper-ode"
        runner.sweep("custom", p, out_dir=nested, scenarios=fast_scenarios[1:2])
        rec = nested / fast_scenarios[1].label / "record.txt"
        rec.write_text(rec.read_text().replace("status = ok", "status = failed"))
        assert runner.check_artifacts(tmp_path) == [f"{rec.parent}: recorded status 'failed'"]
        assert main(["check", str(tmp_path)]) == 1

    def test_malformed_manifest_line_reported(self, p, tmp_path, fast_scenarios, capsys):
        runner.sweep("custom", p, out_dir=tmp_path, scenarios=fast_scenarios[:1])
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(manifest.read_text() + "stray\n")
        assert runner.check_artifacts(tmp_path) == [
            f"{manifest}:2: malformed line 'stray', expected 'label status'"]
        assert main(["check", str(tmp_path)]) == 1
        assert "malformed line" in capsys.readouterr().err

    def test_damaged_directories_reported_and_checking_goes_on(
            self, p, tmp_path, fast_scenarios, capsys):
        runner.sweep("custom", p, out_dir=tmp_path, scenarios=fast_scenarios)
        ode_a, ode_b, spatial = (tmp_path / s.label for s in fast_scenarios)
        # a snapshot from before the spatial gain keys were removed
        cfg = spatial / "config.txt"
        cfg.write_text(cfg.read_text() + "K1 = 0.0\n")
        (ode_a / "series.csv").write_text("t,theta\n0.0,oops\n")
        rec = ode_b / "record.txt"
        rec.write_text(rec.read_text().replace("check_exact_law = n/a", "check_exact_law = pass"))
        problems = runner.check_artifacts(tmp_path)
        assert len(problems) == 3
        assert problems[0].startswith(f"{ode_a}: unparsable series.csv: ")
        assert problems[1] == (f"{ode_b}: check exact_law recomputes to 'n/a'"
                               " but record says 'pass'")
        assert re.fullmatch(rf"{re.escape(str(spatial))}: config\.txt: line \d+: unknown key 'K1'",
                            problems[2])
        assert main(["check", str(tmp_path)]) == 1
        assert "3 problem(s) found" in capsys.readouterr().err

    def test_directory_holding_another_scenario_reported(self, p, tmp_path, fast_scenarios):
        # the files of the k2 = 0 run copied over those of the k2 = 1000 run
        # agree with each other, but not with the directory's name
        runner.sweep("custom", p, out_dir=tmp_path, scenarios=fast_scenarios[:2])
        source, target = (tmp_path / s.label for s in fast_scenarios[:2])
        for f in source.iterdir():
            shutil.copy(f, target / f.name)
        assert runner.check_artifacts(tmp_path) == [
            f"{target}: config snapshot describes scenario {source.name}"]

    @pytest.mark.parametrize("key", ["final_abs_err", "cond_alpha_inf"])
    def test_record_value_not_a_number_reported(self, p, tmp_path, fast_scenarios, key,
                                                monkeypatch, capsys):
        runner.sweep("custom", p, out_dir=tmp_path, scenarios=fast_scenarios[:2])
        damaged, other = sorted(tmp_path / s.label for s in fast_scenarios[:2])
        rec = damaged / "record.txt"
        rec.write_text(re.sub(rf"^{key} = ", f"{key} = x", rec.read_text(), flags=re.M))
        checked = []
        check_one = runner._check_one_dir
        monkeypatch.setattr(runner, "_check_one_dir",
                            lambda d, envelopes: checked.append(d) or check_one(d, envelopes))
        (problem,) = runner.check_artifacts(tmp_path)
        assert re.fullmatch(rf"{re.escape(str(damaged))}: record\.txt: {key} = 'x.*'"
                            " is not a number", problem)
        assert checked == [damaged, other]
        assert main(["check", str(tmp_path)]) == 1
        assert "1 problem(s) found" in capsys.readouterr().err

    @pytest.mark.parametrize("model", ["ode", "pde"])
    def test_unreplayable_directory_reported_and_checking_goes_on(
            self, p, tmp_path, model, monkeypatch, capsys):
        # a gain-free run, damaged so that its checks cannot be replayed, and a
        # healthy gains-on run checked after it
        theta0, rho0, grid = (0.75, 0.25, {}) if model == "ode" else (0.5, 0.5, {"dim": 1, "n": 4})
        damaged, healthy = (
            runner.make_scenario(p, model, theta0, 0.5, rho0, 0.0, k2, t1=0.02, **grid)
            for k2 in (0.0, 1e3))
        runner.sweep("custom", p, out_dir=tmp_path, scenarios=[damaged, healthy])
        d = tmp_path / damaged.label
        if model == "ode":  # two swapped times
            lines = (d / "series.csv").read_text().splitlines()
            rows = [line.split(",") for line in lines[3:5]]
            rows[0][0], rows[1][0] = rows[1][0], rows[0][0]
            lines[3:5] = [",".join(row) for row in rows]
            (d / "series.csv").write_text("\n".join(lines) + "\n")
            reason = "times must be nonnegative and strictly increasing"
        else:  # an alpha infimum below zero
            rec = d / "record.txt"
            rec.write_text(re.sub(r"^cond_alpha_inf = .*$", "cond_alpha_inf = -1",
                                  rec.read_text(), flags=re.M))
            reason = "inf_alpha=-1.0 must be >= 0"
        checked = []
        check_one = runner._check_one_dir
        monkeypatch.setattr(runner, "_check_one_dir",
                            lambda directory, envelopes:
                            checked.append(directory) or check_one(directory, envelopes))
        problems = runner.check_artifacts(tmp_path)
        assert problems[-1] == f"{d}: cannot replay the checks: {reason}"
        assert all(problem.startswith(f"{d}: ") for problem in problems)
        assert checked == [d, tmp_path / healthy.label]
        assert main(["check", str(tmp_path)]) == 1
        assert f"{len(problems)} problem(s) found" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("model", ["ode", "pde"])
    def test_nonfinite_value_reported_and_checking_goes_on(
            self, p, tmp_path, model, value, monkeypatch, capsys):
        # gains-on runs; every comparison with nan is false, so only an explicit
        # finiteness check catches the damaged row of the first one
        theta0, rho0, grid = (0.75, 0.25, {}) if model == "ode" else (0.5, 0.5, {"dim": 1, "n": 4})
        damaged, healthy = (
            runner.make_scenario(p, model, theta0, 0.5, rho0, k1, k2, t1=0.02, **grid)
            for k1, k2 in ((0.0, 1e3), (1e3, 0.0)))
        runner.sweep("custom", p, out_dir=tmp_path, scenarios=[damaged, healthy])
        d = tmp_path / damaged.label
        csv = d / "series.csv"
        columns = (["theta_hat", "abs_err", "rel_err"] if model == "ode"
                   else ["theta_hat_min", "theta_hat_mean", "theta_hat_max"])
        row = len(csv.read_text().splitlines()) // 2
        for name in columns:
            self._edit_csv(csv, name, row, lambda x: value)
        t = csv.read_text().splitlines()[row].split(",")[0]
        checked = []
        check_one = runner._check_one_dir
        monkeypatch.setattr(runner, "_check_one_dir",
                            lambda directory, envelopes:
                            checked.append(directory) or check_one(directory, envelopes))
        assert runner.check_artifacts(tmp_path) == [
            f"{d}: column {name} is not finite at t={t}" for name in columns]
        assert checked == [d, tmp_path / healthy.label]
        assert main(["check", str(tmp_path)]) == 1
        assert f"{len(columns)} problem(s) found" in capsys.readouterr().err

    @pytest.mark.parametrize("dt", [1 / 30000, 1 / 7000], ids=["dt_1_30000", "dt_1_7000"])
    def test_time_grid_slack_follows_csv_rounding(self, tmp_path, dt):
        q = ParameterSet(dt=dt)
        s = runner.make_scenario(q, "ode", 0.75, 0.5, 0.25, 0.0, 0.0, t1=0.5)
        runner.sweep("custom", q, out_dir=tmp_path, scenarios=[s])
        assert runner.check_artifacts(tmp_path) == []
        csv = tmp_path / s.label / "series.csv"
        self._edit_csv(csv, "t", 100, lambda x: f"{x + 1e-6:.9g}")
        assert f"{csv.parent}: time axis is not a uniform grid" in runner.check_artifacts(tmp_path)

    @pytest.mark.parametrize("forgery", ["rescaled", "halved", "first_row_dropped"])
    @pytest.mark.parametrize("model", ["ode", "pde"])
    def test_time_axis_off_the_snapshot_reported(self, p, tmp_path, model, forgery):
        # k1 > 0 runs, whose verdicts read no time: each forged axis is still a
        # uniform grid, and only the snapshot's t0, t1 and dt tell it apart
        theta0, rho0, grid = (0.75, 0.25, {}) if model == "ode" else (0.5, 0.5, {"dim": 1, "n": 4})
        s = runner.make_scenario(p, model, theta0, 0.5, rho0, 1e3, 0.0, t1=0.02, **grid)
        runner.sweep("custom", p, out_dir=tmp_path, scenarios=[s])
        assert runner.check_artifacts(tmp_path) == []
        csv = tmp_path / s.label / "series.csv"
        lines = csv.read_text().splitlines()
        if forgery == "first_row_dropped":
            csv.write_text("\n".join(lines[:1] + lines[2:]) + "\n")
        else:
            edit = (lambda x: f"{x * 0.5 + 0.3:.9g}") if forgery == "rescaled" else (
                lambda x: f"{x * 0.5:.9g}")
            for row in range(1, len(lines)):
                self._edit_csv(csv, "t", row, edit)
        assert runner.check_artifacts(tmp_path) == [
            f"{csv.parent}: time axis is not the records of the snapshot's span"]

    @pytest.mark.parametrize("key", ["cond_alpha_inf", "final_rel_err"])
    def test_record_value_missing_reported(self, p, tmp_path, fast_scenarios, key):
        # the gain-free spatial run, whose L2 envelope verdict reads cond_alpha_inf
        runner.sweep("custom", p, out_dir=tmp_path, scenarios=fast_scenarios[2:])
        rec = tmp_path / fast_scenarios[2].label / "record.txt"
        rec.write_text(re.sub(rf"^{key} = .*\n", "", rec.read_text(), flags=re.M))
        assert runner.check_artifacts(tmp_path) == [f"{rec.parent}: record.txt: no {key}"]

    @pytest.mark.parametrize("text", ["", "t,theta\n", "t,theta\n0.0,0.5\n0.1\n"])
    def test_empty_or_ragged_csv_reported(self, p, tmp_path, fast_scenarios, text):
        runner.sweep("custom", p, out_dir=tmp_path, scenarios=fast_scenarios[:1])
        csv = next(tmp_path.glob("*/series.csv"))
        csv.write_text(text)
        (problem,) = runner.check_artifacts(tmp_path)
        assert problem.startswith(f"{csv.parent}: ")

    def test_missing_ok_scenario_detected(self, p, tmp_path, fast_scenarios):
        runner.sweep("custom", p, out_dir=tmp_path, scenarios=fast_scenarios[:2])
        gone = fast_scenarios[1].label
        shutil.rmtree(tmp_path / gone)
        assert runner.check_artifacts(tmp_path) == [
            f"{tmp_path / gone}: listed ok but has no artifacts"]

    def test_unlisted_directory_reported(self, p, tmp_path, fast_scenarios):
        # a directory left by an earlier sweep into the same root
        runner.sweep("custom", p, out_dir=tmp_path, scenarios=fast_scenarios[:2])
        runner.sweep("custom", p, out_dir=tmp_path, scenarios=fast_scenarios[:1])
        assert runner.check_artifacts(tmp_path) == [
            f"{tmp_path / fast_scenarios[1].label}: not listed in manifest.txt"]

    def test_observer_start_forgery_reported(self, p, tmp_path):
        # an estimate forged to equal the truth agrees with every error column
        # and record value, but no run starts its observer at the truth
        scenarios = [runner.make_scenario(p, "ode", 0.75, 0.5, 0.25, 1e3, 0.0, t1=0.02),
                     runner.make_scenario(p, "pde", 0.5, 0.5, 0.5, 1e3, 0.0, t1=0.02,
                                          dim=1, n=4)]
        runner.sweep("custom", p, out_dir=tmp_path, scenarios=scenarios)
        assert runner.check_artifacts(tmp_path) == []
        for s in scenarios:
            _forge_exact_estimate(tmp_path / s.label)
        assert runner.check_artifacts(tmp_path) == [
            f"{tmp_path / s.label}: first row is not the observer's initial state"
            for s in scenarios]

    def test_colliding_labels_rejected_before_any_run(self, p, tmp_path, fast_scenarios):
        first = fast_scenarios[0]
        twin = replace(first, t1=2 * first.t1)
        assert twin.label == first.label
        with pytest.raises(ValueError, match=re.escape(first.label)):
            runner.sweep("custom", p, out_dir=tmp_path / "out", scenarios=[first, twin])
        assert not (tmp_path / "out").exists()

    def test_one_envelope_per_time_grid_and_call(self, p, tmp_path, monkeypatch):
        # one within-host group: three gain-free members and a k1 > 0 one
        scenarios = [runner.make_scenario(p, "ode", *triple, k1, k2, t1=0.02)
                     for triple, k1, k2 in (((0.75, 0.5, 0.25), 0.0, 0.0),
                                            ((0.75, 0.5, 0.25), 0.0, 1e3),
                                            ((0.05, 0.05, 0.05), 0.0, 0.0),
                                            ((0.05, 0.05, 0.05), 1e3, 0.0))]
        assert len(runner._groups(scenarios)) == 1
        calls = []
        envelope_series = metrics.envelope_series
        monkeypatch.setattr(metrics, "envelope_series",
                            lambda *args: calls.append(args) or envelope_series(*args))
        runner.sweep("custom", p, out_dir=tmp_path, scenarios=scenarios)
        assert len(calls) == 1
        # each call computes its own, and the second one computes it again
        verdicts = []
        for _ in range(2):
            calls.clear()
            verdicts.append(runner.check_artifacts(tmp_path))
            assert len(calls) == 1
        assert verdicts == [[], []]
        # times shifted far beyond the 9-digit slack: only that directory fails,
        # as it does when checked alone, with a quadrature of its own
        shifted = tmp_path / scenarios[2].label
        csv = shifted / "series.csv"
        header, *rows = csv.read_text().splitlines()
        csv.write_text("\n".join([header] + [f"{float(t) + 0.05:.9g},{rest}" for t, rest in
                                              (row.split(",", 1) for row in rows)]) + "\n")
        alone = runner.check_artifacts(shifted)
        assert alone and all(problem.startswith(f"{shifted}: ") for problem in alone)
        calls.clear()
        assert runner.check_artifacts(tmp_path) == alone
        assert len(calls) == 2


#: The initial triples of the reference within-host study, and short spans.
ODE_TRIPLES = sorted({(s.theta0, s.v0, s.rho0)
                      for s in runner.scenario_matrix("paper-ode", ParameterSet())})
SHORT_SPANS = ((0.0, 0.01), (0.0, 0.02), (0.4, 0.41))


def _forge_exact_estimate(directory: Path) -> None:
    """Rewrite a scenario directory as if its estimate had equalled the truth
    at every record: ``theta_hat := theta``, zero error columns and final errors."""
    csv, rec = directory / "series.csv", directory / "record.txt"
    header, *rows = csv.read_text().splitlines()
    names = header.split(",")

    def forged(row: str) -> str:
        col = dict(zip(names, row.split(",")))
        return ",".join(col[name.replace("theta_hat", "theta")] if name.startswith("theta_hat")
                        else "0" if "err" in name else col[name] for name in names)
    csv.write_text("\n".join([header, *map(forged, rows)]) + "\n")
    rec.write_text(re.sub(r"^(final_\w+_err) = .*$", r"\1 = 0", rec.read_text(), flags=re.M))


@st.composite
def within_host_sweeps(draw):
    """Within-host scenarios of the reference study in a drawn order: at least
    two that share scheme, sensor and span, and others drawn freely, over both
    schemes, both sensors, the four gain pairs and short spans."""
    p = ParameterSet()
    run = st.tuples(st.sampled_from(ODE_TRIPLES), st.sampled_from(runner.GAIN_PAIRS))
    numerics = st.tuples(st.sampled_from(["euler", "rk4"]),
                         st.sampled_from(["exact", "finite_difference"]),
                         st.sampled_from(SHORT_SPANS))

    def make(run, numerics):
        (triple, gains), (scheme, sensor, (t0, t1)) = run, numerics
        return runner.make_scenario(p, "ode", *triple, *gains, scheme=scheme,
                                    measurement=sensor, t0=t0, t1=t1)

    shared = draw(numerics)
    batch = [make(r, shared) for r in draw(st.lists(run, min_size=2, max_size=6, unique=True))]
    others = [make(*x) for x in draw(st.lists(st.tuples(run, numerics), max_size=4))]
    labels = {s.label for s in batch}
    for s in others:  # one scenario per label
        if s.label not in labels:
            labels.add(s.label)
            batch.append(s)
    return draw(st.permutations(batch))


def _artifacts(directory: Path) -> dict[str, bytes]:
    """Every file of a scenario directory; ``record.txt`` without its wall clock."""
    out = {}
    for f in sorted(directory.iterdir()):
        data = f.read_bytes()
        if f.name == "record.txt":
            data = b"".join(line for line in data.splitlines(keepends=True)
                            if not line.startswith(b"wall_clock_s"))
        out[f.name] = data
    return out


def _sweep_and_lone_runs(p, scenarios, root: Path, monkeypatch):
    """Sweep ``scenarios`` into ``root/sweep`` and run each alone into
    ``root/lone``; return the records of both and the member counts of the
    systems the sweep stepped (0 for a lone run)."""
    members = []

    def spy(system, *args, **kwargs):
        members.append(np.shape(system.truth0)[1] if np.ndim(system.truth0) > 1 else 0)
        return simulate(system, *args, **kwargs)

    monkeypatch.setattr(runner, "simulate", spy)
    records = runner.sweep("custom", p, out_dir=root / "sweep", scenarios=scenarios)
    monkeypatch.setattr(runner, "simulate", simulate)
    return records, [runner.run_scenario(s, p, out_dir=root / "lone") for s in scenarios], members


class TestBatchedSweep:
    """A sweep steps its within-host scenarios in batches; each scenario still
    writes what its lone run writes."""

    @given(scenarios=within_host_sweeps())
    @settings(max_examples=30, deadline=None)
    def test_each_scenario_writes_its_lone_run(self, p, scenarios):
        shared = collections.Counter((s.scheme, s.measurement, s.t0, s.t1) for s in scenarios)
        batches = sorted(n for n in shared.values() if n > 1)
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            root = Path(tmp)
            records, _, members = _sweep_and_lone_runs(p, scenarios, root, mp)
            assert sorted(m for m in members if m) == batches
            assert [r.status for r in records] == ["ok"] * len(scenarios)
            for s in scenarios:
                swept = _artifacts(root / "sweep" / s.label)
                assert set(swept) == {"config.txt", "series.csv", "record.txt",
                                      "estimate.svg", "error.svg"}
                assert swept == _artifacts(root / "lone" / s.label), s.label

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_block_size_leaves_every_artifact_unchanged(self, p, data):
        # spans from t0 > 0, the longer over alpha's zeros at 0.75 and 0.8, where
        # the k1 > 0 members exclude singular samples: both fold across blocks
        t0, t1 = data.draw(st.sampled_from([(0.4, 0.41), (0.74, 0.81)]))
        runs = data.draw(st.lists(st.tuples(st.sampled_from(ODE_TRIPLES),
                                            st.sampled_from(runner.GAIN_PAIRS)),
                                  min_size=1, max_size=4, unique=True)
                         .filter(lambda runs: any(k1 > 0.0 for _, (k1, _) in runs)))
        numerics = dict(scheme=data.draw(st.sampled_from(["euler", "rk4"])),
                        measurement=data.draw(st.sampled_from(["exact", "finite_difference"])),
                        t0=t0, t1=t1)
        scenarios = [runner.make_scenario(p, "ode", *triple, *gains, **numerics)
                     for triple, gains in runs]
        n_rec = runner.step_count(t0, t1, p.dt) // runner.RECORD_STRIDE + 1
        block = data.draw(st.integers(1, n_rec))
        blocks = []

        def spy(system, *args, on_block, **kwargs):
            return simulate(system, *args, **kwargs,
                            on_block=lambda b: blocks.append(len(b)) or on_block(b))

        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            root = Path(tmp)
            runner.sweep("custom", p, out_dir=root / "one", scenarios=scenarios)
            mp.setattr(pde, "BLOCK_SAMPLES", block)
            mp.setattr(runner, "simulate", spy)
            records = runner.sweep("custom", p, out_dir=root / "blocks", scenarios=scenarios)
            assert blocks == [block] * (n_rec // block) + [n_rec % block] * bool(n_rec % block)
            assert [r.status for r in records] == ["ok"] * len(scenarios)
            for s in scenarios:
                assert _artifacts(root / "blocks" / s.label) == _artifacts(
                    root / "one" / s.label), s.label
            assert runner.check_artifacts(root / "blocks") == []

    @pytest.mark.parametrize("case", ["gain_over_cap", "overshoot", "clamped"])
    def test_a_failing_member_fails_alone(self, p, tmp_path, monkeypatch, case):
        # theta0 = 1 puts a member on the top of its box; a push of 0.05 per
        # unit time overshoots by 5e-6 a step (fatal), one of 5e-3 by 5e-7 (clamped)
        scenarios = [runner.make_scenario(p, "ode", 0.75, 0.5, 0.25, k1, k2, t1=0.01)
                     for k1, k2 in runner.GAIN_PAIRS]
        if case == "gain_over_cap":  # built directly: make_scenario refuses it
            odd = runner.Scenario("ode", 0.5, 0.5, 0.25, 0.0, 2 * gain_cap(p.dt), t1=0.01)
        else:
            odd = runner.make_scenario(p, "ode", 1.0, 0.5, 0.25, 0.0, 1e3, t1=0.01)
            rate = 0.05 if case == "overshoot" else 5e-3

            class Pushed(WithinHostSystem):
                """Pushes theta upwards wherever it sits on the top of its box."""

                def truth_rhs(self, t, y):
                    dtheta, dv, drho = super().truth_rhs(t, y)
                    return dtheta + rate * (y[0] >= 1.0), dv, drho
            monkeypatch.setattr(runner, "WithinHostSystem", Pushed)
        scenarios.insert(2, odd)
        records, lone, members = _sweep_and_lone_runs(p, scenarios, tmp_path, monkeypatch)
        assert members[0] == len(scenarios)  # the batch was stepped as one system
        failing = odd if case != "clamped" else None
        for r, alone, s in zip(records, lone, scenarios):
            assert r.status == alone.status == ("failed" if s is failing else "ok")
            assert r.error == alone.error
            assert _artifacts(tmp_path / "sweep" / s.label) == _artifacts(
                tmp_path / "lone" / s.label)
        if failing is not None:
            assert [f.name for f in (tmp_path / "sweep" / odd.label).iterdir()] == ["record.txt"]
            message = "gain cap exceeded" if case == "gain_over_cap" else "overshot its box"
            assert message in records[2].error
        else:  # the clamp of one member leaves the others' overshoot at 0
            assert records[2].overshoot["theta"] > 0.0
            assert all(v == 0.0 for r in records if r is not records[2]
                       for v in r.overshoot.values())
        manifest = (tmp_path / "sweep" / "manifest.txt").read_text().splitlines()
        assert manifest == [f"{r.scenario.label} {r.status}" for r in records]


#: Initial pairs of drawn spatial groups: two figure pairs, and the top of the
#: box, where the sensitivity quotient is one-sided.
SPATIAL_PAIRS = ((0.75, 0.05), (0.05, 0.5), (1.0, 0.5))


@st.composite
def spatial_groups(draw):
    """Spatial scenarios that form one group: a 1-D or 2-D grid with ``n <= 8``,
    a span of a few dozen steps, both schemes and sensors, and 2-4 members
    drawn from few initial pairs, so that ``k1 > 0`` members may share one."""
    p = ParameterSet()
    t0 = draw(st.sampled_from([0.0, 0.4]))
    shared = dict(dim=draw(st.sampled_from([1, 2])), n=draw(st.integers(2, 8)),
                  scheme=draw(st.sampled_from(["euler", "rk4"])),
                  measurement=draw(st.sampled_from(["exact", "finite_difference"])),
                  t0=t0, t1=t0 + draw(st.integers(20, 60)) * p.dt)
    runs = draw(st.lists(st.tuples(st.sampled_from(SPATIAL_PAIRS),
                                   st.sampled_from(runner.GAIN_PAIRS)),
                         min_size=2, max_size=4, unique=True))
    return [runner.make_scenario(p, "pde", th, v0, th, k1, k2, **shared)
            for (th, v0), (k1, k2) in runs]


def _spatial_sweep(p, scenarios, out: Path, monkeypatch):
    """Sweep ``scenarios`` into ``out``; return the records and, for each system
    the sweep stepped, whether it was truth-only and its member count (1 for
    a lone run), in the order the runs were started: a group's sensitivity
    stream, then the group's own run."""
    steps = []

    def spying(run):
        def spy(system, *args, **kwargs):
            batch = np.ndim(system.truth0) > 1 + system.grid.dim
            steps.append((kwargs.get("truth_only", False),
                          np.shape(system.truth0)[1] if batch else 1))
            return run(system, *args, **kwargs)
        return spy

    runs = {"simulate": runner.simulate, "record_blocks": runner.record_blocks}
    for name, run in runs.items():
        monkeypatch.setattr(runner, name, spying(run))
    records = runner.sweep("custom", p, out_dir=out, scenarios=scenarios)
    for name, run in runs.items():
        monkeypatch.setattr(runner, name, run)
    return records, steps


class TestSpatialGroups:
    """A sweep steps the spatial scenarios that share grid and numerics as one
    system and folds their records in blocks; each still writes what its lone
    run writes."""

    @given(scenarios=spatial_groups(), block=st.sampled_from([None, 1, 2, 3]))
    @settings(max_examples=30, deadline=None)
    def test_each_member_writes_its_lone_run(self, p, scenarios, block):
        # the group folds blocks of `block` records when drawn; the lone runs
        # fold their few records in one block
        sensing = {(s.theta0, s.v0, s.rho0) for s in scenarios if s.k1 > 0.0}
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            root = Path(tmp)
            if block is not None:
                mp.setattr(pde, "BLOCK_SAMPLES", block * scenarios[0].n ** scenarios[0].dim)
            records, steps = _spatial_sweep(p, scenarios, root / "sweep", mp)
            mp.undo()
            lone = [runner.run_scenario(s, p, out_dir=root / "lone") for s in scenarios]
            # one truth-only run for every distinct k1 > 0 state, then one batch
            assert steps == [(True, 2 * len(sensing))] * bool(sensing) + [(False, len(scenarios))]
            for r, alone, s in zip(records, lone, scenarios):
                assert (r.status, r.error) == (alone.status, alone.error)
                assert _artifacts(root / "sweep" / s.label) == _artifacts(
                    root / "lone" / s.label), s.label

    @pytest.mark.parametrize("case", ["gain_over_cap", "overshoot", "diagnostics"])
    def test_a_failing_member_fails_alone(self, p, tmp_path, monkeypatch, case):
        grid = dict(dim=1, n=4, t1=0.005)
        scenarios = [runner.make_scenario(p, "pde", th, v0, th, k1, k2, **grid)
                     for (th, v0), (k1, k2) in zip(SPATIAL_PAIRS[:2] * 2, runner.GAIN_PAIRS)]
        if case == "gain_over_cap":  # built directly: make_scenario refuses it
            odd = runner.Scenario("pde", 0.5, 0.5, 0.5, 0.0, 2 * gain_cap(p.dt), **grid)
            message = "gain cap exceeded"
        else:
            odd = runner.make_scenario(p, "pde", 1.0, 0.5, 1.0, 0.0, 1e3, **grid)
        if case == "overshoot":  # 5e-6 a step above the top of the box
            message = "overshot its box"

            class Pushed(SpatialSystem):
                def truth_rhs(self, t, y):
                    dtheta, dv, drho = super().truth_rhs(t, y)
                    return dtheta + 0.05 * (y[0] >= 1.0), dv, drho
            monkeypatch.setattr(runner, "SpatialSystem", Pushed)
        if case == "diagnostics":  # the rows of the odd member alone raise
            message = "ValueError: no rows at full inhibition"
            pde_rows = runner._pde_rows

            def refuse(traj):
                if traj.truth[0, 0].min() >= 1.0:
                    raise ValueError("no rows at full inhibition")
                return pde_rows(traj)
            monkeypatch.setattr(runner, "_pde_rows", refuse)
        scenarios.insert(2, odd)
        records, steps = _spatial_sweep(p, scenarios, tmp_path / "sweep", monkeypatch)
        lone = [runner.run_scenario(s, p, out_dir=tmp_path / "lone") for s in scenarios]
        # the sensitivity batch of the two k1 > 0 states, then the group's batch
        assert steps[:2] == [(True, 4), (False, len(scenarios))]
        if case == "diagnostics":  # no member ran again
            assert len(steps) == 2
        for r, alone, s in zip(records, lone, scenarios):
            assert r.status == alone.status == ("failed" if s is odd else "ok")
            assert r.error == alone.error
            assert _artifacts(tmp_path / "sweep" / s.label) == _artifacts(
                tmp_path / "lone" / s.label)
        assert message in records[2].error
        assert [f.name for f in (tmp_path / "sweep" / odd.label).iterdir()] == ["record.txt"]

    def test_a_failing_sensitivity_fails_its_k1_members_alone(self, p, tmp_path, monkeypatch):
        grid = dict(dim=1, n=4, t1=0.005)
        scenarios = [runner.make_scenario(p, "pde", th, v0, th, k1, k2, **grid)
                     for (th, v0), (k1, k2) in zip(SPATIAL_PAIRS[:2] * 2, runner.GAIN_PAIRS)]
        for s in scenarios:
            if s.k1 == 0.0:
                runner.run_scenario(s, p, out_dir=tmp_path / "lone")

        def refuse(*args):
            raise RuntimeError("no sensitivity")
        monkeypatch.setattr(runner, "_volume_sensitivity", refuse)
        sizes, run_group = [], runner._run_group
        monkeypatch.setattr(runner, "_run_group",
                            lambda group, *args: sizes.append(len(group)) or run_group(group, *args))
        records, steps = _spatial_sweep(p, scenarios, tmp_path / "sweep", monkeypatch)
        # the group runs its members alone, and a lone k1 > 0 run steps nothing
        # once its sensitivity has raised
        assert sizes == [4, 1, 1, 1, 1]
        assert steps == [(False, 1), (False, 1)]
        for r, s in zip(records, scenarios):
            directory = tmp_path / "sweep" / s.label
            if s.k1 > 0.0:
                assert (r.status, r.error) == ("failed", "RuntimeError: no sensitivity")
                assert [f.name for f in directory.iterdir()] == ["record.txt"]
            else:
                assert r.status == "ok"
                assert _artifacts(directory) == _artifacts(tmp_path / "lone" / s.label)

    def test_a_sensitivity_failing_mid_run_fails_its_k1_members_alone(
            self, p, tmp_path, monkeypatch):
        # 6 records in blocks of 2: the stream gives the first block, then raises
        # when the group asks for the second
        grid = dict(dim=1, n=4, t1=0.005)
        scenarios = [runner.make_scenario(p, "pde", th, v0, th, k1, k2, **grid)
                     for (th, v0), (k1, k2) in zip(SPATIAL_PAIRS[:2] * 2, runner.GAIN_PAIRS)]
        monkeypatch.setattr(pde, "BLOCK_SAMPLES", 2 * 4)
        for s in scenarios:
            if s.k1 == 0.0:
                runner.run_scenario(s, p, out_dir=tmp_path / "lone")
        events, volume_sensitivity, add = [], runner._volume_sensitivity, runner._Folded.add

        def one_block(*args):
            stream = volume_sensitivity(*args)  # built here, as the stream is

            def first_then_raise():
                yield next(stream)
                events.append("raise")
                raise RuntimeError("sensitivity lost")
            return first_then_raise()

        def spy(fold, block, sensitivity):
            events.append(("add", len(block)))
            add(fold, block, sensitivity)
        monkeypatch.setattr(runner, "_volume_sensitivity", one_block)
        monkeypatch.setattr(runner._Folded, "add", spy)
        records, steps = _spatial_sweep(p, scenarios, tmp_path / "sweep", monkeypatch)
        # every member of the group folded the first block before the stream raised
        assert events[:5] == [("add", 2)] * 4 + ["raise"]
        # then each member alone: a k1 > 0 run steps its stream beside its own run
        assert steps == [(True, 4), (False, 4), (False, 1), (False, 1),
                         (True, 2), (False, 1), (True, 2), (False, 1)]
        for r, s in zip(records, scenarios):
            directory = tmp_path / "sweep" / s.label
            if s.k1 > 0.0:
                assert (r.status, r.error) == ("failed", "RuntimeError: sensitivity lost")
                assert [f.name for f in directory.iterdir()] == ["record.txt"]
            else:
                assert r.status == "ok"
                assert _artifacts(directory) == _artifacts(tmp_path / "lone" / s.label)

    @pytest.mark.parametrize("k1", [0.0, 1e3])
    def test_memory_does_not_grow_with_the_span(self, p, k1):
        # 41 and 401 records: a run keeps one block of records, not all of them,
        # and with k1 > 0 its sensitivity stream one block of its truths
        peaks = []
        for t1 in (0.04, 0.4):
            scenarios = [runner.make_scenario(p, "pde", th, v0, th, k1, k2, t1=t1)
                         for (th, v0), k2 in (((0.75, 0.5), 0.0), ((0.05, 0.05), 1e3))]
            tracemalloc.start()
            try:
                records = runner.sweep("custom", p, scenarios=scenarios)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert [r.status for r in records] == ["ok", "ok"]
        cells = 32 * 32
        # (5 state + 3 measured) fields per member and record
        block = pde.block_records(cells) * 8 * len(scenarios) * cells * 8
        assert abs(peaks[1] - peaks[0]) < block, peaks


_SPECIAL = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.5e-310,
                            2.2250738585072014e-308, 1.7976931348623157e308])


class TestCsvFormat:
    @given(rows=st.integers(1, 4).flatmap(lambda width: st.lists(
        st.lists(st.one_of(st.floats(), st.floats(-1e30, 1e30), _SPECIAL),
                 min_size=width, max_size=width), min_size=1, max_size=5)))
    @settings(max_examples=300, deadline=None)
    def test_rows_read_as_per_value_format(self, rows):
        # one % format per row writes the text of f"{x:.9g}" for every value
        columns = tuple(f"c{i}" for i in range(len(rows[0])))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "series.csv"
            runner._write_csv(path, columns, np.array(rows))
            text = path.read_text()
        expected = [",".join(columns)] + [",".join(f"{x:.9g}" for x in row) for row in rows]
        assert text == "\n".join(expected) + "\n"


class TestAtomicWrites:
    @staticmethod
    def _fail_midway(monkeypatch):
        # the disk fills up after half of the text is written
        def half_then_fail(self, text):
            with open(self, "w") as f:
                f.write(text[: len(text) // 2])
            raise OSError(28, "No space left on device")
        monkeypatch.setattr(Path, "write_text", half_then_fail)

    @pytest.mark.parametrize("writer", ["csv", "svg"])
    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch, writer):
        target = tmp_path / f"artifact.{writer}"
        self._fail_midway(monkeypatch)
        with pytest.raises(OSError):
            if writer == "csv":
                runner._write_csv(target, ("t", "x"), np.ones((50, 2)))
            else:
                svgplot.line_plot(target, [0.0, 1.0], [("x", [0.0, 1.0])], "t", "x", "y")
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch):
        target = tmp_path / "manifest.txt"
        write_atomic(target, "a ok\n")
        self._fail_midway(monkeypatch)
        with pytest.raises(OSError):
            write_atomic(target, "a ok\nb ok\n")
        assert [f.name for f in tmp_path.iterdir()] == ["manifest.txt"]
        assert target.read_text() == "a ok\n"


def _reference_line_plot(path, x, series, title, xlabel, ylabel) -> None:
    """``svgplot.line_plot`` as it formatted each point with its own f-string."""
    from anthobs.svgplot import (HEIGHT, MARGIN_B, MARGIN_L, MARGIN_R, MARGIN_T, PALETTE,
                                 WIDTH, _fmt, _range, _ticks)
    x = [float(v) for v in x]
    ys_all = [float(v) for _, ys in series for v in ys]
    x_lo, x_hi = _range(x)
    y_lo, y_hi = _range(ys_all)
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    pw, ph = WIDTH - MARGIN_L - MARGIN_R, HEIGHT - MARGIN_T - MARGIN_B
    sx = lambda v: MARGIN_L + (v - x_lo) / (x_hi - x_lo) * pw
    sy = lambda v: MARGIN_T + (y_hi - v) / (y_hi - y_lo) * ph
    axis_style = 'stroke="#333333" stroke-width="1"'
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.1f}" y="28" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>',
        f'<line x1="{MARGIN_L}" y1="{MARGIN_T + ph}" x2="{MARGIN_L + pw}" '
        f'y2="{MARGIN_T + ph}" {axis_style}/>',
        f'<line x1="{MARGIN_L}" y1="{MARGIN_T}" x2="{MARGIN_L}" '
        f'y2="{MARGIN_T + ph}" {axis_style}/>',
    ]
    for tx in _ticks(x_lo, x_hi):
        out.append(f'<line x1="{sx(tx):.2f}" y1="{MARGIN_T + ph}" x2="{sx(tx):.2f}" '
                   f'y2="{MARGIN_T + ph + 5}" {axis_style}/>')
        out.append(f'<text x="{sx(tx):.2f}" y="{MARGIN_T + ph + 20}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="11">{_fmt(tx)}</text>')
    for ty in _ticks(y_lo, y_hi):
        out.append(f'<line x1="{MARGIN_L - 5}" y1="{sy(ty):.2f}" x2="{MARGIN_L}" '
                   f'y2="{sy(ty):.2f}" {axis_style}/>')
        out.append(f'<text x="{MARGIN_L - 9}" y="{sy(ty) + 4:.2f}" text-anchor="end" '
                   f'font-family="sans-serif" font-size="11">{_fmt(ty)}</text>')
    out.append(f'<text x="{MARGIN_L + pw / 2:.1f}" y="{HEIGHT - 12}" '
               f'text-anchor="middle" font-family="sans-serif" font-size="13">{xlabel}</text>')
    out.append(f'<text x="20" y="{MARGIN_T + ph / 2:.1f}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="13" '
               f'transform="rotate(-90 20 {MARGIN_T + ph / 2:.1f})">{ylabel}</text>')
    for i, (label, ys) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        pts = " ".join(f"{sx(xv):.2f},{sy(float(yv)):.2f}" for xv, yv in zip(x, ys))
        out.append(f'<polyline class="series" fill="none" stroke="{color}" '
                   f'stroke-width="1.5" points="{pts}"/>')
        ly, lx = MARGIN_T + 16 + 18 * i, MARGIN_L + pw + 12
        out.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
                   f'stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" '
                   f'font-size="12">{label}</text>')
    out.append("</svg>")
    Path(path).write_text("\n".join(out) + "\n")


@st.composite
def plot_inputs(draw):
    """An x axis (increasing, or one value repeated) and 1-4 series over it."""
    n = draw(st.integers(1, 300))
    if draw(st.booleans()):
        x = np.full(n, draw(_floats(-1e3, 1e3)))
    else:
        x = np.sort(draw(st.lists(_floats(0.0, 1.0), min_size=n, max_size=n))) * 10.0 ** draw(
            st.integers(-6, 6))
    series = []
    for i in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):  # a constant series
            ys = np.full(n, draw(_floats(-1e6, 1e6)))
        else:  # signed mantissas over many decades
            mantissa = np.array(draw(st.lists(_floats(-10.0, 10.0), min_size=n, max_size=n)))
            ys = mantissa * 10.0 ** np.array(draw(st.lists(st.integers(-30, 30),
                                                           min_size=n, max_size=n)))
        series.append((f"series {i}", ys))
    return x, series


class TestPlots:
    @given(inputs=plot_inputs())
    @settings(max_examples=60, deadline=None)
    def test_polylines_keep_the_per_point_text(self, inputs):
        x, series = inputs
        with tempfile.TemporaryDirectory() as d:
            new, old = Path(d) / "new.svg", Path(d) / "old.svg"
            svgplot.line_plot(new, x, series, "title", "t", "y")
            _reference_line_plot(old, x, series, "title", "t", "y")
            assert new.read_text() == old.read_text()

    @pytest.mark.parametrize("x, ys", [
        *(([0.0, 1.0], [y, y]) for y in (5e15, 9e15, 1e16, 2e16, 4e16)),
        ([0.0, 1.0], [1e16, 1e16 + 4]),
        ([1e6, math.nextafter(1e6, 2e6)], [0.0, 1.0]),
        # spans that underflow to a zero tick step, or overflow with their pad
        ([0.0, 5e-324], [0.0, 1.0]),
        ([0.0, 1.0], [-1e308, 1e308]),
        ([0.0, 1.0], [sys.float_info.max] * 2),
    ])
    def test_span_below_float_spacing(self, tmp_path, x, ys):
        # a range whose widening by 1 is lost, whose tick step is below the float
        # spacing of its values, or whose span leaves the floats: the plot must
        # still end, in finite numbers
        def stop(*_):
            raise TimeoutError("line_plot did not return within a second")

        previous = signal.signal(signal.SIGALRM, stop)
        signal.setitimer(signal.ITIMER_REAL, 1.0)
        try:
            svgplot.line_plot(tmp_path / "plot.svg", x, [("y", ys)], "title", "t", "y")
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        root = ET.parse(tmp_path / "plot.svg").getroot()
        coords = [v for el in root.iter() for key, v in el.attrib.items()
                  if key in ("x", "y", "x1", "y1", "x2", "y2", "points")]
        numbers = [float(n) for c in coords for n in re.split("[ ,]", c)]
        assert len(numbers) > 4 and np.all(np.isfinite(numbers))

    @pytest.mark.parametrize("lo, hi", [(0.0, 1e-13), (-3e-20, 7e-20), (0.0, 1e-300),
                                        (1.0, 1.0 + 1e-14), (0.3, 0.3 + 1e-10), (0.0, 1.0)])
    def test_ticks_of_a_small_span_stay_apart(self, lo, hi):
        # a tick rounded to 12 decimals reads 0 for every tick of a span below 1e-12
        ticks = svgplot._ticks(lo, hi)
        assert len(ticks) >= 2
        assert all(a < b for a, b in zip(ticks, ticks[1:])), ticks
        assert lo <= ticks[0] and ticks[-1] <= hi, ticks

    def test_a_plot_over_a_small_span_labels_each_tick(self, tmp_path):
        svgplot.line_plot(tmp_path / "plot.svg", [0.0, 1.0], [("y", [0.0, 1e-13])],
                          "t", "t", "y")
        labels = [el.text for el in ET.parse(tmp_path / "plot.svg").getroot().iter()
                  if el.get("text-anchor") == "end"]  # the y tick labels
        assert len(labels) == len(set(labels)) >= 2, labels

    @pytest.fixture()
    def run_dirs(self, p, tmp_path, fast_scenarios):
        runner.sweep("custom", p, out_dir=tmp_path, scenarios=fast_scenarios)
        return tmp_path

    @staticmethod
    def _series_count(path: Path) -> int:
        root = ET.parse(path).getroot()
        return sum(1 for el in root.iter()
                   if el.tag.endswith("polyline") and el.get("class") == "series")

    def test_svg_well_formed(self, run_dirs):
        for svg in run_dirs.glob("*/*.svg"):
            ET.parse(svg)  # raises on malformed XML

    def test_ode_estimate_has_two_series(self, run_dirs):
        d = next(d for d in run_dirs.iterdir() if d.name.startswith("ode"))
        assert self._series_count(d / "estimate.svg") == 2

    def test_pde_error_has_three_series(self, run_dirs):
        d = next(d for d in run_dirs.iterdir() if d.name.startswith("pde"))
        assert self._series_count(d / "error.svg") == 3

    def test_pde_estimate_has_six_series(self, run_dirs):
        d = next(d for d in run_dirs.iterdir() if d.name.startswith("pde"))
        assert self._series_count(d / "estimate.svg") == 6


class TestCli:
    def test_validate_defaults_ok(self, capsys):
        assert main(["validate"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_validate_bad_config(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("sigma = 1.0\n")
        assert main(["validate", str(cfg)]) == 1

    def test_validate_lists_gain_cap(self, tmp_path, capsys):
        cfg = tmp_path / "cap.cfg"
        cfg.write_text("k1 = 10000\n")
        assert main(["validate", str(cfg)]) == 1
        assert "gain cap" in capsys.readouterr().out

    @pytest.mark.parametrize("line, message", [
        ("v_max = -1", "v_max=-1.0 must be > 0"),
        ("v_max = 0", "v_max=0.0 must be > 0"),
        ("eta_star = inf", "eta_star=inf must be finite"),
        ("epsilon = inf", "epsilon=inf must be finite"),
        # eta_star defaults to 1/(1+epsilon)
        ("epsilon = -1",
         "epsilon=-1.0 must be > -1: the volume capacity 1/(1+epsilon) is undefined"),
        ("epsilon = 5\neta_star = 0.99",
         "epsilon*eta_star=4.95 >= 1: the reference growth amplitude takes the"
         " logarithm of 1 - epsilon*eta_star"),
    ])
    def test_validate_names_the_input_of_derived_forcings(self, tmp_path, capsys, line, message):
        # b2 and b3 default to logarithms of v_max and eta_star terms
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        assert main(["validate", str(cfg)]) == 1
        out = capsys.readouterr().out
        assert f"error: {message}" in out.splitlines()
        assert "b2" not in out and "b3" not in out
        if line.endswith("inf"):  # neither a derived value nor another check speaks
            assert out.splitlines() == [f"error: {message}"]
        with pytest.raises(ConfigError, match=f"^configuration rejected: {re.escape(message)}$"):
            load_config(cfg)

    def test_run_rejects_gain_cap(self, tmp_path, capsys):
        cfg = tmp_path / "cap.cfg"
        cfg.write_text("k1 = 10000\n")
        assert main(["run", str(cfg)]) == 2
        assert "gain cap" in capsys.readouterr().err

    def test_run_scenarios_and_check(self, p, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "scenario = ode theta0=0.75 v0=0.5 rho0=0.25 k1=0 k2=1000 t1=0.02\n")
        out = tmp_path / "out"
        assert main(["run", str(cfg), "-o", str(out)]) == 0
        assert main(["check", str(out)]) == 0

    def test_run_rejects_colliding_labels(self, tmp_path, capsys):
        cfg = tmp_path / "twins.cfg"
        cfg.write_text(
            "scenario = ode theta0=0.75 v0=0.5 rho0=0.25 t1=0.01\n"
            "scenario = ode theta0=0.75 v0=0.5 rho0=0.25 t1=0.02\n")
        assert main(["run", str(cfg), "-o", str(tmp_path / "out")]) == 2
        assert "ode_th0.75_v0.5_rho0.25_k1_0_k2_0" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", [0, -3])
    def test_sweep_rejects_worker_counts_below_one(self, tmp_path, monkeypatch, capsys, workers):
        def refuse(*args, **kwargs):
            raise AssertionError("a rejected sweep started work")
        monkeypatch.setattr(runner, "ProcessPoolExecutor", refuse)
        monkeypatch.setattr(runner, "_run_group", refuse)
        message = f"workers={workers} must be >= 1"
        with pytest.raises(ValueError, match=f"^{message}$"):
            runner.sweep("paper-ode", out_dir=tmp_path / "direct", workers=workers)
        out = tmp_path / "cli"
        assert main(["sweep", "paper-ode", "--workers", str(workers), "-o", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert list(tmp_path.iterdir()) == []

    def test_run_empty_config(self, tmp_path, capsys):
        cfg = tmp_path / "empty.cfg"
        cfg.write_text("")
        assert main(["run", str(cfg)]) == 0
        assert "no scenarios" in capsys.readouterr().out

    def test_check_tampered_exits_nonzero(self, p, tmp_path, fast_scenarios, capsys):
        runner.sweep("custom", p, out_dir=tmp_path, scenarios=fast_scenarios[:1])
        csv = next(tmp_path.glob("*/series.csv"))
        lines = csv.read_text().splitlines()
        parts = lines[3].split(",")
        parts[1] = "0.111111"
        lines[3] = ",".join(parts)
        csv.write_text("\n".join(lines) + "\n")
        assert main(["check", str(tmp_path)]) == 1

    def test_plot_regenerates(self, p, tmp_path, fast_scenarios, capsys):
        runner.sweep("custom", p, out_dir=tmp_path, scenarios=fast_scenarios[:1])
        d = next(tmp_path.glob("ode*"))
        (d / "estimate.svg").unlink()
        assert main(["plot", str(d)]) == 0
        assert (d / "estimate.svg").exists()

    def test_plot_walks_the_directories_check_walks(self, p, tmp_path, fast_scenarios, capsys):
        # the layout of `anthobs run` with a sweep line: <out>/<kind>/<label>/
        runner.sweep("custom", p, out_dir=tmp_path / "paper-ode", scenarios=fast_scenarios)
        svgs = sorted(tmp_path.glob("paper-ode/*/*.svg"))
        assert len(svgs) == 2 * len(fast_scenarios)
        for svg in svgs:
            svg.unlink()
        assert main(["check", str(tmp_path)]) == 0
        assert main(["plot", str(tmp_path)]) == 0
        assert sorted(tmp_path.glob("paper-ode/*/*.svg")) == svgs
        assert runner.scenario_dirs(tmp_path) == sorted(
            tmp_path / "paper-ode" / s.label for s in fast_scenarios)

    def test_plot_without_artifacts(self, tmp_path, capsys):
        assert main(["plot", str(tmp_path)]) == 2
        assert "no artifacts" in capsys.readouterr().err

    def test_missing_config_file(self, capsys):
        assert main(["run", "/does/not/exist.cfg"]) == 2

    def test_output_env_override(self, p, tmp_path, monkeypatch):
        monkeypatch.setenv("ANTHOBS_OUT", str(tmp_path / "env_out"))
        assert runner.output_root() == tmp_path / "env_out"
        monkeypatch.delenv("ANTHOBS_OUT")
        assert runner.output_root() == Path("runs")
        assert runner.output_root("explicit") == Path("explicit")


NO_SCIPY_RUN = """
import sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
import anthobs
from anthobs import cli, runner
p = anthobs.ParameterSet()
scenarios = [runner.make_scenario(p, "ode", 0.75, 0.5, 0.25, 0.0, 0.0, t1=0.02),
             runner.make_scenario(p, "pde", 0.5, 0.5, 0.5, 0.0, 0.0, t1=0.01, dim=1, n=4)]
runner.sweep("custom", p, out_dir=sys.argv[1], scenarios=scenarios)
assert runner.check_artifacts(sys.argv[1]) == []
assert cli.main(["validate"]) == 0
"""


def test_runs_without_scipy(tmp_path):
    # numpy is the only runtime dependency: import, sweep, check and validate
    src = str(Path(runner.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", NO_SCIPY_RUN, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert sorted(d.name for d in tmp_path.iterdir()) == [
        "manifest.txt", "ode_th0.75_v0.5_rho0.25_k1_0_k2_0", "pde_th0.5_v0.5_rho0.5_k1_0_k2_0_1d4"]
