"""Scenario execution: the simulation study matrix, artifacts and re-checks.

Each scenario writes one directory containing a configuration snapshot
(``config.txt``), the recorded time series (``series.csv``, 9 significant
digits), a key-value run summary (``record.txt``) and two SVG plots.  The
verdicts in the summary are recomputable from the CSV and snapshot alone:
:func:`check_artifacts` replays them and reports any divergence, so a
tampered artifact never passes.

CSV schemas
-----------
ODE: ``t,theta,v,rho,theta_hat,v_hat,abs_err,rel_err``
PDE: ``t`` plus ``{min,mean,max}`` triples for ``theta``, ``theta_hat``,
``abs_err`` and ``rel_err``.
"""

from __future__ import annotations

import collections
import dataclasses
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import config as configmod
from . import metrics, ode, pde, svgplot
from .fileio import write_atomic
from .params import ParameterSet, SpatialParameterSet, gain_cap
from .stepping import SCHEMES, simulate
from .systems import SpatialSystem, WithinHostSystem, check_inputs

__all__ = [
    "Scenario",
    "RunRecord",
    "make_scenario",
    "scenario_matrix",
    "run_scenario",
    "sweep",
    "check_artifacts",
    "emit_plot",
    "output_root",
]

#: Figure initial conditions (theta0, v0) of the reference study.
FIGURE_PAIRS = ((0.05, 0.05), (0.05, 0.5), (0.75, 0.05), (0.75, 0.5))
#: Gain pairs (k1, k2) of the reference study.
GAIN_PAIRS = ((0.0, 0.0), (0.0, 1e3), (1e3, 0.0), (1e3, 1e3))
#: Candidate initial rot proportions of the reference study.
RHO0_GRID = (0.25, 0.5, 0.75)

RECORD_STRIDE = 10
ENV_OUTPUT_VAR = "ANTHOBS_OUT"

ODE_COLUMNS = ("t", "theta", "v", "rho", "theta_hat", "v_hat", "abs_err", "rel_err")
PDE_COLUMNS = ("t",) + tuple(
    f"{name}_{agg}" for name in ("theta", "theta_hat", "abs_err", "rel_err")
    for agg in ("min", "mean", "max"))

#: Perturbation of theta(0) used for the paired-run volume sensitivity.
SENSITIVITY_DELTA = 1e-4


@dataclass(frozen=True)
class Scenario:
    """One simulation run: model kind, initial data, gains and numerics.

    The observer always starts at ``theta_hat(0) = 0`` and
    ``v_hat(0) = v(0)``, matching the convergence analysis.
    """

    model: str
    theta0: float
    v0: float
    rho0: float
    k1: float
    k2: float
    measurement: str = "exact"
    scheme: str = "euler"
    t0: float = 0.0
    t1: float = 1.0
    dim: int = 2
    n: int = 32

    @property
    def label(self) -> str:
        bits = [self.model, f"th{self.theta0:g}", f"v{self.v0:g}",
                f"rho{self.rho0:g}", f"k1_{self.k1:g}", f"k2_{self.k2:g}"]
        if self.measurement != "exact":
            bits.append("fd")
        if self.scheme != "euler":
            bits.append(self.scheme)
        if self.model == "pde":
            bits.append(f"{self.dim}d{self.n}")
        return "_".join(bits)


def make_scenario(p: ParameterSet, model: str, theta0: float, v0: float,
                  rho0: float, k1: float, k2: float, **kwargs) -> Scenario:
    """Build and validate a :class:`Scenario` against parameter set ``p``."""
    s = Scenario(model=model, theta0=theta0, v0=v0, rho0=rho0,
                 k1=k1, k2=k2, **kwargs)
    if s.model not in ("ode", "pde"):
        raise ValueError(f"model must be 'ode' or 'pde', got {s.model!r}")
    check_inputs(p, s.theta0, s.v0, s.rho0, s.measurement)
    if s.model == "ode" and s.rho0 > s.theta0:
        raise ValueError(f"rho0={s.rho0} must not exceed theta0={s.theta0}")
    if s.model == "pde" and s.rho0 != s.theta0:
        raise ValueError(f"spatial runs take rho0 equal to theta0, got {s.rho0}")
    if min(s.k1, s.k2) < 0.0:
        raise ValueError("gains must be >= 0")
    if max(s.k1, s.k2) > gain_cap(p.dt):
        raise ValueError(
            f"gain {max(s.k1, s.k2)} exceeds the cap 1/(10*dt)={gain_cap(p.dt)}")
    if s.scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {s.scheme!r}")
    if s.t1 < s.t0:
        raise ValueError(f"t1={s.t1} earlier than t0={s.t0}")
    if s.model == "pde":
        pde.Grid(s.dim, s.n)  # raises on an invalid grid
    return s


def scenario_matrix(kind: str, p: ParameterSet | None = None) -> list[Scenario]:
    """Scenario list for the reference study (or an empty custom list).

    ``paper-ode``: the four figure initial pairs crossed with the admissible
    initial rot proportions (grid values ``<= theta0``, falling back to
    ``rho0 = theta0`` when none qualifies) and the four gain pairs.
    ``paper-pde``: the same four pairs with ``rho0 = theta0`` on the default
    2-D grid.  ``custom``: empty; scenarios come from the configuration file.
    """
    p = p or ParameterSet()
    out: list[Scenario] = []
    if kind in ("paper-ode", "paper_ode"):
        for theta0, v0 in FIGURE_PAIRS:
            rho0s = [r for r in RHO0_GRID if r <= theta0] or [theta0]
            for rho0 in rho0s:
                for k1, k2 in GAIN_PAIRS:
                    out.append(make_scenario(p, "ode", theta0, v0, rho0, k1, k2))
    elif kind in ("paper-pde", "paper_pde"):
        for theta0, v0 in FIGURE_PAIRS:
            for k1, k2 in GAIN_PAIRS:
                out.append(make_scenario(p, "pde", theta0, v0, theta0, k1, k2))
    elif kind == "custom":
        pass
    else:
        raise ValueError(f"unknown scenario matrix kind {kind!r}")
    return out


@dataclass
class RunRecord:
    """Outcome of one scenario run (summary, verdicts, provenance)."""

    scenario: Scenario
    status: str
    error: str | None
    wall_clock_s: float
    overshoot: dict[str, float]
    final_abs_err: float | None
    final_rel_err: float | None
    checks: dict[str, str]
    condition: dict[str, object]
    out_dir: str | None


def output_root(override: str | None = None) -> Path:
    """Output directory root: explicit override, else $ANTHOBS_OUT, else ./runs."""
    if override:
        return Path(override)
    env = os.environ.get(ENV_OUTPUT_VAR)
    return Path(env) if env else Path("runs")


def _fmt9(x: float) -> str:
    return f"{x:.9g}"


def _write_csv(path: Path, columns: tuple[str, ...], rows: np.ndarray) -> None:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt9(v) for v in row))
    write_atomic(path, "\n".join(lines) + "\n")


def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, data


def _ode_rows(traj, err: metrics.ErrorSeries) -> np.ndarray:
    return np.column_stack([
        traj.times,
        traj.truth[:, 0], traj.truth[:, 1], traj.truth[:, 2],
        traj.observer[:, 0], traj.observer[:, 1],
        err.abs_err, err.rel_err,
    ])


def _pde_rows(traj, err: metrics.ErrorSeries) -> np.ndarray:
    axes = tuple(range(1, traj.truth[:, 0].ndim))
    agg = lambda f: [f.min(axis=axes), f.mean(axis=axes), f.max(axis=axes)]
    cols = [traj.times]
    cols += agg(traj.truth[:, 0])
    cols += agg(traj.observer[:, 0])
    cols += [err.abs_agg[:, 0], err.abs_agg[:, 1], err.abs_agg[:, 2]]
    cols += [err.rel_agg[:, 0], err.rel_agg[:, 1], err.rel_agg[:, 2]]
    return np.column_stack(cols)


def _envelope_checks_ode(s: Scenario, p: ParameterSet, t: np.ndarray, e: np.ndarray,
                         slack: float = 0.0) -> dict[str, str]:
    """Exact-law and squared-error envelope verdicts of the error ``e`` at times
    ``t``, where applicable; ``slack`` absorbs the rounding of stored artifacts."""
    checks: dict[str, str] = {"exact_law": "n/a", "decay_envelope": "n/a"}
    if s.k1 != 0.0 or s.measurement != "exact":
        return checks
    env = metrics.envelope_series(t, p, float(e[0]))
    if s.k2 == 0.0:
        worst = float(np.max(np.abs(e - env)))
        checks["exact_law"] = "pass" if worst <= 1e-3 * abs(e[0]) + slack else "fail"
    res = metrics.envelope_check(e ** 2, env * e[0] + slack, tol=metrics.ENVELOPE_TOL)
    checks["decay_envelope"] = "pass" if res.passed else "fail"
    return checks


def _envelope_checks_pde(s: Scenario, sp: SpatialParameterSet, traj,
                         alpha_inf: float) -> dict[str, str]:
    """Spatial L2 envelope verdict for the gain-free observer."""
    checks: dict[str, str] = {"l2_envelope": "n/a"}
    if s.k1 != 0.0 or s.k2 != 0.0 or s.measurement != "exact":
        return checks
    err = traj.truth[:, 0] - traj.observer[:, 0]
    axes = tuple(range(1, err.ndim))
    norm2 = (err ** 2).mean(axis=axes)  # unit domain: h^dim * sum = mean
    env = metrics.l2_envelope(traj.times - traj.times[0], alpha_inf,
                              float(np.sqrt(norm2[0])))
    res = metrics.envelope_check(norm2, env, tol=metrics.ENVELOPE_TOL)
    checks["l2_envelope"] = "pass" if res.passed else "fail"
    return checks


def _volume_sensitivity(s: Scenario, sp: SpatialParameterSet, grid) -> np.ndarray:
    """d v / d theta(0) per recorded time, from two perturbed truth runs.

    The perturbed initial rates are clamped into ``[0, 1]``, so at the box
    edge the quotient is one-sided; it always divides by the actual spread.
    """
    thetas = [min(1.0, max(0.0, s.theta0 + sign * SENSITIVITY_DELTA)) for sign in (+1.0, -1.0)]
    fields = []
    for theta0 in thetas:
        system = SpatialSystem(sp, grid, theta0, s.v0, s.rho0, s.measurement)
        traj = simulate(system, s.t0, s.t1, sp.base.dt, s.scheme,
                        RECORD_STRIDE, truth_only=True)
        fields.append(traj.truth[:, 1])
    return (fields[0] - fields[1]) / (thetas[0] - thetas[1])


def _condition_summary(report) -> dict[str, object]:
    out = {}
    for f in dataclasses.fields(report):
        val = getattr(report, f.name)
        if f.name == "alpha_zero_times":
            out[f.name] = " ".join(f"{t:.9g}" for t in val)
        elif f.name == "notes":
            out[f.name] = "; ".join(val)
        else:
            out[f.name] = val
    return out


def run_scenario(s: Scenario, p: ParameterSet,
                 sp: SpatialParameterSet | None = None,
                 out_dir: str | Path | None = None) -> RunRecord:
    """Execute one scenario, write its artifact directory, return the record.

    Failures (overshoot, instability, non-finite states) are captured in the
    record with ``status="failed"`` and the error line, so a batch can
    continue; a failed run's directory holds only ``record.txt``.
    """
    t_start = time.perf_counter()
    p_run = dataclasses.replace(p, k1=s.k1, k2=s.k2)
    if sp is None:
        sp = SpatialParameterSet(base=p)
    sp_run = dataclasses.replace(sp, base=p_run, K1=s.k1, K2=s.k2)

    directory = None
    if out_dir is not None:
        directory = Path(out_dir) / s.label
        directory.mkdir(parents=True, exist_ok=True)

    try:
        if s.model == "ode":
            system = WithinHostSystem(p_run, s.theta0, s.v0, s.rho0, s.measurement)
            traj = simulate(system, s.t0, s.t1, p_run.dt, s.scheme, RECORD_STRIDE)
            err = metrics.error_series_ode(traj)
            report = ode.check_conditions(traj, p_run)
            checks = _envelope_checks_ode(s, p_run, traj.times,
                                          traj.truth[:, 0] - traj.observer[:, 0])
            rows = _ode_rows(traj, err)
            columns = ODE_COLUMNS
        else:
            grid = pde.Grid(s.dim, s.n)
            system = SpatialSystem(sp_run, grid, s.theta0, s.v0, s.rho0, s.measurement)
            traj = simulate(system, s.t0, s.t1, p_run.dt, s.scheme, RECORD_STRIDE)
            err = metrics.error_series_pde(traj)
            sens = _volume_sensitivity(s, sp_run, grid) if s.k1 > 0.0 else None
            report = pde.check_conditions_spatial(traj, sp_run, system.coef, sens)
            checks = _envelope_checks_pde(s, sp_run, traj, report.alpha_inf)
            rows = _pde_rows(traj, err)
            columns = PDE_COLUMNS
    except Exception as exc:  # recorded, batch continues
        record = RunRecord(
            scenario=s, status="failed", error=f"{type(exc).__name__}: {exc}",
            wall_clock_s=time.perf_counter() - t_start, overshoot={},
            final_abs_err=None, final_rel_err=None, checks={}, condition={},
            out_dir=str(directory) if directory else None)
        if directory is not None:
            _write_record(directory / "record.txt", record)
        return record

    record = RunRecord(
        scenario=s,
        status="ok",
        error=None,
        wall_clock_s=time.perf_counter() - t_start,
        overshoot=traj.overshoot,
        final_abs_err=float(err.abs_err[-1]),
        final_rel_err=float(err.rel_err[-1]),
        checks=checks,
        condition=_condition_summary(report),
        out_dir=str(directory) if directory else None,
    )
    if directory is not None:
        write_atomic(directory / "config.txt",
                     configmod.write_config(p_run, sp_run if s.model == "pde" else None,
                                            scenarios=[s]))
        _write_csv(directory / "series.csv", columns, rows)
        _write_record(directory / "record.txt", record)
        emit_plot(directory, "estimate")
        emit_plot(directory, "error")
    return record


def _write_record(path: Path, r: RunRecord) -> None:
    lines = []
    for f in dataclasses.fields(Scenario):
        lines.append(f"scenario_{f.name} = {getattr(r.scenario, f.name)}")
    lines.append(f"status = {r.status}")
    if r.error:
        lines.append(f"error = {r.error}")
    lines.append(f"wall_clock_s = {r.wall_clock_s:.3f}  # informational only")
    for name, val in r.overshoot.items():
        lines.append(f"overshoot_{name} = {val:.9g}")
    if r.final_abs_err is not None:
        lines.append(f"final_abs_err = {r.final_abs_err:.9g}")
        lines.append(f"final_rel_err = {r.final_rel_err:.9g}")
    for name, val in r.checks.items():
        lines.append(f"check_{name} = {val}")
    for name, val in r.condition.items():
        lines.append(f"cond_{name} = {val}")
    write_atomic(path, "\n".join(lines) + "\n")


def _read_record(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text().splitlines():
        stmt = line.split("#", 1)[0].strip()
        if not stmt or "=" not in stmt:
            continue
        key, _, val = stmt.partition("=")
        out[key.strip()] = val.strip()
    return out


def _run_one(args) -> RunRecord:
    s, p, sp, out_dir = args
    return run_scenario(s, p, sp, out_dir)


def sweep(kind: str, p: ParameterSet | None = None,
          sp: SpatialParameterSet | None = None,
          out_dir: str | Path | None = None, workers: int = 1,
          scenarios: list[Scenario] | None = None) -> list[RunRecord]:
    """Run a scenario matrix (or an explicit scenario list) into ``out_dir``.

    With ``workers > 1`` scenarios execute in a process pool; every scenario
    owns its output directory, so results are identical to a serial run.
    Raises ``ValueError`` before any run when two scenarios share a label,
    since they would write into the same directory.
    """
    p = p or ParameterSet()
    if scenarios is None:
        scenarios = scenario_matrix(kind, p)
    repeated = [lab for lab, n in collections.Counter(s.label for s in scenarios).items() if n > 1]
    if repeated:
        raise ValueError(f"scenario label {repeated[0]!r} names more than one scenario")
    if out_dir is not None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
    jobs = [(s, p, sp, out_dir) for s in scenarios]
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_run_one, jobs))
    else:
        records = [_run_one(job) for job in jobs]
    if out_dir is not None:
        manifest = [f"{r.scenario.label} {r.status}" for r in records]
        write_atomic(Path(out_dir) / "manifest.txt", "\n".join(manifest) + "\n")
    return records


# ---------------------------------------------------------------------------
# artifact re-verification and plotting
# ---------------------------------------------------------------------------

def _check_one_dir(directory: Path) -> list[str]:
    problems: list[str] = []
    csv_path = directory / "series.csv"
    rec_path = directory / "record.txt"
    cfg_path = directory / "config.txt"
    if not rec_path.exists():
        return [f"{directory}: missing {rec_path.name}"]
    rec = _read_record(rec_path)
    if rec.get("status") != "ok":
        error = f" ({rec['error']})" if "error" in rec else ""
        return [f"{directory}: recorded status {rec.get('status')!r}{error}"]
    for f in (csv_path, cfg_path):
        if not f.exists():
            return [f"{directory}: missing {f.name}"]
    loaded = configmod.load_config(cfg_path)
    if len(loaded.scenarios) != 1:
        return [f"{directory}: config snapshot must hold exactly one scenario"]
    s = loaded.scenarios[0]
    p = dataclasses.replace(loaded.params, k1=s.k1, k2=s.k2)
    header, data = _read_csv(csv_path)
    expected_cols = list(ODE_COLUMNS if s.model == "ode" else PDE_COLUMNS)
    if header != expected_cols:
        return [f"{directory}: unexpected CSV columns {header}"]
    col = {name: data[:, i] for i, name in enumerate(header)}
    t = col["t"]
    nine_digit_slack = 1e-7

    if len(t) > 1:
        strides = np.diff(t)
        if np.any(strides <= 0) or np.ptp(strides) > 1e-9:
            problems.append(f"{directory}: time axis is not a uniform grid")

    if s.model == "ode":
        box = {"theta": (0, 1), "v": (0, p.v_max), "rho": (0, 1),
               "theta_hat": (0, 1), "v_hat": (0, p.v_max)}
        for name, (lo, hi) in box.items():
            vals = col[name]
            if vals.min() < lo - nine_digit_slack or vals.max() > hi + nine_digit_slack:
                problems.append(f"{directory}: column {name} leaves [{lo}, {hi}]")
        abs_err = np.abs(col["theta"] - col["theta_hat"])
        if np.max(np.abs(abs_err - col["abs_err"])) > nine_digit_slack:
            problems.append(f"{directory}: abs_err column does not match theta, theta_hat")
        rel_err = metrics.relative_abs_error(col["theta"], col["theta_hat"])
        if np.max(np.abs(rel_err - col["rel_err"])) > 2e-7 * (1 + np.max(rel_err)):
            problems.append(f"{directory}: rel_err column does not match theta, theta_hat")
        checks = _envelope_checks_ode(s, p, t, col["theta"] - col["theta_hat"],
                                      nine_digit_slack)
    else:
        for base_name in ("theta", "theta_hat", "abs_err", "rel_err"):
            mn = col[f"{base_name}_min"]
            mean = col[f"{base_name}_mean"]
            mx = col[f"{base_name}_max"]
            if np.any(mn > mean + nine_digit_slack) or np.any(mean > mx + nine_digit_slack):
                problems.append(f"{directory}: {base_name} min/mean/max not ordered")
        for name in ("theta_min", "theta_max", "theta_hat_min", "theta_hat_max"):
            if col[name].min() < -nine_digit_slack or col[name].max() > 1 + nine_digit_slack:
                problems.append(f"{directory}: column {name} leaves [0, 1]")
        checks = _recheck_envelopes_pde(s, rec, col, nine_digit_slack)

    for name, verdict in checks.items():
        recorded = rec.get(f"check_{name}")
        if recorded != verdict:
            problems.append(
                f"{directory}: check {name} recomputes to {verdict!r}"
                f" but record says {recorded!r}")
    for name in ("final_abs_err", "final_rel_err"):
        recorded = rec.get(name)
        fresh = col["abs_err" if name == "final_abs_err" else "rel_err"][-1] \
            if s.model == "ode" else col[name.replace("final_", "") + "_mean"][-1]
        if recorded is None or abs(float(recorded) - fresh) > nine_digit_slack:
            problems.append(f"{directory}: {name} does not match the CSV")
    return problems


def _recheck_envelopes_pde(s, rec, col, slack) -> dict[str, str]:
    # the CSV stores aggregates, not fields: replay the mean-square bound
    # ||e||^2 <= exp(-2 t inf(alpha)) ||e(0)||^2 via the recorded inf(alpha)
    checks = {"l2_envelope": "n/a"}
    if s.k1 != 0.0 or s.k2 != 0.0 or s.measurement != "exact":
        return checks
    alpha_inf = float(rec.get("cond_alpha_inf", "0") or 0.0)
    e_mean = col["abs_err_mean"]
    # mean |e| <= sqrt(mean e^2): the recorded aggregate obeys the envelope root
    env = np.sqrt(metrics.l2_envelope(col["t"] - col["t"][0], alpha_inf, e_mean[0]))
    res = metrics.envelope_check(e_mean, env + slack, tol=metrics.ENVELOPE_TOL)
    checks["l2_envelope"] = "pass" if res.passed else "fail"
    return checks


def check_artifacts(run_dir: str | Path) -> list[str]:
    """Re-verify every scenario artifact below ``run_dir``; return problems.

    Accepts either one scenario directory or a sweep root.  A sweep root's
    ``manifest.txt``, when present, must list every scenario as ``label ok``
    with a checked directory; any other entry is a problem of
    ``<root>/<label>``, and a line of any other shape is a problem of the
    manifest.  Every subdirectory that holds a ``manifest.txt`` (such as the
    ``<out>/<kind>`` sweeps of ``anthobs run``) is checked as a sweep root too.
    A clean result is an empty list.  Pure function of the on-disk artifacts.
    """
    run_dir = Path(run_dir)
    if not run_dir.exists():
        return [f"{run_dir}: no such directory"]
    if (run_dir / "series.csv").exists() or (run_dir / "record.txt").exists():
        return _check_one_dir(run_dir)
    sub = sorted(d for d in run_dir.iterdir() if (d / "series.csv").exists())
    nested = sorted(d for d in run_dir.iterdir() if (d / "manifest.txt").exists())
    problems: list[str] = [] if sub or nested else [f"{run_dir}: no scenario artifacts found"]
    for d in sub:
        problems.extend(_check_one_dir(d))
    manifest = run_dir / "manifest.txt"
    if manifest.exists():
        checked = {d.name for d in sub}
        for number, line in enumerate(manifest.read_text().splitlines(), 1):
            entry = line.split()
            if not entry:
                continue
            if len(entry) != 2:
                problems.append(f"{manifest}:{number}: malformed line {line!r},"
                                " expected 'label status'")
                continue
            label, status = entry
            if status != "ok":
                problems.append(f"{run_dir / label}: manifest status {status!r}")
            elif label not in checked:
                problems.append(f"{run_dir / label}: listed ok but has no artifacts")
    for d in nested:
        problems.extend(check_artifacts(d))
    return problems


def emit_plot(run_dir: str | Path, kind: str, path: str | Path | None = None) -> Path:
    """Render the ``estimate`` or ``error`` plot of a scenario artifact to SVG."""
    run_dir = Path(run_dir)
    header, data = _read_csv(run_dir / "series.csv")
    rec = _read_record(run_dir / "record.txt")
    col = {name: data[:, i] for i, name in enumerate(header)}
    model = rec.get("scenario_model", "ode")
    title = run_dir.name
    t = col["t"]
    if kind == "estimate":
        if model == "ode":
            series = [("inhibition rate", col["theta"]),
                      ("estimate", col["theta_hat"])]
        else:
            series = [(f"rate {agg}", col[f"theta_{agg}"]) for agg in ("min", "mean", "max")]
            series += [(f"estimate {agg}", col[f"theta_hat_{agg}"])
                       for agg in ("min", "mean", "max")]
        ylabel = "inhibition rate"
    elif kind == "error":
        if model == "ode":
            series = [("relative error", col["rel_err"])]
        else:
            series = [(f"rel. error {agg}", col[f"rel_err_{agg}"])
                      for agg in ("min", "mean", "max")]
        ylabel = "relative absolute error"
    else:
        raise ValueError(f"unknown plot kind {kind!r}")
    out = Path(path) if path else run_dir / f"{kind}.svg"
    svgplot.line_plot(out, t, series, title, "t (fraction of the year)", ylabel)
    return out
