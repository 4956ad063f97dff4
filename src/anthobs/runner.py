"""Scenario execution: the simulation study matrix, artifacts and re-checks.

Every scenario runs in a group (:func:`_run_group`): the scenarios of a
sweep that share model, scheme, sensor and span, and for the spatial model
the grid, are stepped as one system, with a member per scenario; a lone run
(:func:`run_scenario`) is a group of one.  A sweep runs its groups in a
process pool when asked for workers.  Each member of a group writes what its
lone run writes.

No run keeps its whole records: a group hands them over in blocks while it
steps, and each member folds every block into its CSV rows and its condition
diagnostics, the same way for both models.  The volume sensitivity of the
``k1 > 0`` members of a spatial group comes from one truth-only run stepped
block by block beside the group, so no field of it outlives its block.

Each scenario writes one directory ``<out>/<label>`` (see :func:`_finish`):
a configuration snapshot (``config.txt``), the recorded time series
(``series.csv``, 9 significant digits), two SVG plots and, written last, a
key-value run summary (``record.txt``).  The verdicts in the summary are
recomputable from the CSV and snapshot alone: :func:`check_artifacts`
replays them and reports any divergence, though a forgery that agrees with
itself and keeps the first row passes, since it re-runs nothing.

CSV schemas
-----------
ODE: ``t,theta,v,rho,theta_hat,v_hat,abs_err,rel_err``
PDE: ``t``, the ``{min,mean,max}`` triples of ``theta``, ``theta_hat`` and
``abs_err``, then ``l2_err`` (the square root of the cell mean of the squared
error, the norm of the L2 envelope), then the ``rel_err`` triple.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import itertools
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import config as configmod
from . import forcing, metrics, ode, pde, svgplot
from .fileio import write_atomic
from .params import ParameterSet, SpatialParameterSet, admit
from .stepping import OVERSHOOT_LIMIT, check_run, record_blocks, simulate, step_count
from .systems import COMPONENTS, SpatialSystem, WithinHostSystem, check_inputs, state_box

__all__ = [
    "Scenario",
    "RunRecord",
    "make_scenario",
    "scenario_matrix",
    "run_scenario",
    "sweep",
    "check_artifacts",
    "scenario_dirs",
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


def _aggregates(name: str) -> tuple[str, str, str]:
    return (f"{name}_min", f"{name}_mean", f"{name}_max")


PDE_COLUMNS = ("t", *_aggregates("theta"), *_aggregates("theta_hat"),
               *_aggregates("abs_err"), "l2_err", *_aggregates("rel_err"))
#: Plots of a scenario directory, each written to ``<kind>.svg``: the y label and
#: the curves, each as (within-host label, spatial label, column).
PLOTS = {
    "estimate": ("inhibition rate", [("inhibition rate", "rate", "theta"),
                                     ("estimate", "estimate", "theta_hat")]),
    "error": ("relative absolute error", [("relative error", "rel. error", "rel_err")]),
}
#: The files of a scenario directory; ``record.txt``, written last, commits it.
FILES = ("record.txt", "series.csv", "config.txt", *(f"{kind}.svg" for kind in PLOTS))

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
        """The directory name: the span is named unless it is ``[0, 1]``."""
        bits = [self.model, f"th{self.theta0:g}", f"v{self.v0:g}",
                f"rho{self.rho0:g}", f"k1_{self.k1:g}", f"k2_{self.k2:g}"]
        if self.measurement != "exact":
            bits.append("fd")
        if self.scheme != "euler":
            bits.append(self.scheme)
        if self.model == "pde":
            bits.append(f"{self.dim}d{self.n}")
        if (self.t0, self.t1) != (0.0, 1.0):
            bits.append(f"t{self.t0:g}-{self.t1:g}")
        return "_".join(bits)

    def checked(self, p: ParameterSet) -> Scenario:
        """This scenario, once its own checks against ``p`` pass; ``p`` itself
        is admitted by the caller (:func:`make_scenario` admits it first)."""
        if self.model not in ("ode", "pde"):
            raise ValueError(f"model must be 'ode' or 'pde', got {self.model!r}")
        check_inputs(p, self.theta0, self.v0, self.rho0, self.measurement)
        check_run(self.t0, self.t1, p.dt, self.scheme, self.k1, self.k2)
        if self.model == "ode" and self.rho0 > self.theta0:
            raise ValueError(f"rho0={self.rho0} must not exceed theta0={self.theta0}")
        if self.model == "pde" and self.rho0 != self.theta0:
            raise ValueError(f"spatial runs take rho0 equal to theta0, got {self.rho0}")
        if self.model == "pde":
            pde.Grid(self.dim, self.n)  # raises on an invalid grid
        return self


def make_scenario(p: ParameterSet, model: str, theta0: float, v0: float,
                  rho0: float, k1: float, k2: float, **kwargs) -> Scenario:
    """Build and validate a :class:`Scenario` against parameter set ``p``,
    which is refused as every run refuses it (:func:`anthobs.params.admit`)."""
    admit(p)
    return Scenario(model, theta0, v0, rho0, k1, k2, **kwargs).checked(p)


def scenario_matrix(kind: str, p: ParameterSet | None = None) -> list[Scenario]:
    """Scenario list for the reference study (or an empty custom list).

    ``paper-ode``: the four figure initial pairs crossed with the admissible
    initial rot proportions (grid values ``<= theta0``, falling back to
    ``rho0 = theta0`` when none qualifies) and the four gain pairs.
    ``paper-pde``: the same four pairs with ``rho0 = theta0`` on the default
    2-D grid.  ``custom``: empty; scenarios come from the configuration file.
    A paper matrix admits ``p`` once, as :func:`make_scenario` does.
    """
    if kind not in ("paper-ode", "paper-pde", "custom"):
        raise ValueError(f"unknown scenario matrix kind {kind!r}")
    if kind == "custom":
        return []
    p = p or ParameterSet()
    admit(p)  # once for the matrix
    within = kind == "paper-ode"
    return [Scenario("ode" if within else "pde", theta0, v0, rho0, k1, k2).checked(p)
            for theta0, v0 in FIGURE_PAIRS
            for rho0 in (([r for r in RHO0_GRID if r <= theta0] or [theta0]) if within
                         else [theta0])
            for k1, k2 in GAIN_PAIRS]


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


def _write_csv(path: Path, columns: tuple[str, ...], rows: np.ndarray) -> None:
    # one % format per row: the text of f"{x:.9g}" for every value
    fmt = ",".join(["%.9g"] * len(columns))
    lines = [",".join(columns), *(fmt % tuple(row) for row in rows)]
    write_atomic(path, "\n".join(lines) + "\n")


def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    """Header and rows of a series CSV; ``ValueError`` without rows, on a row of
    another width, or on a value that is not a number."""
    header, *rows = path.read_text().splitlines() or [""]
    if not rows:
        raise ValueError("no rows")
    return header.split(","), np.loadtxt(rows, delimiter=",", ndmin=2)


def _ode_rows(traj) -> np.ndarray:
    err = metrics.error_series_ode(traj)
    return np.column_stack([traj.times, traj.truth, traj.observer, err.abs_err, err.rel_err])


def _pde_rows(traj) -> np.ndarray:
    err = metrics.error_series_pde(traj)
    axes = tuple(range(1, traj.truth[:, 0].ndim))
    return np.column_stack([traj.times, *pde.aggregate(traj.truth[:, 0], axes),
                            *pde.aggregate(traj.observer[:, 0], axes),
                            *err.abs_agg.T, err.l2_err, *err.rel_agg.T])


def _envelope_checks_ode(s: Scenario, p: ParameterSet, t: np.ndarray, e: np.ndarray,
                         slack: float = 0.0) -> dict[str, str]:
    """Exact-law and squared-error envelope verdicts of the error ``e`` at times
    ``t``, where applicable; ``slack`` absorbs the rounding of stored artifacts."""
    checks: dict[str, str] = {"exact_law": "n/a", "decay_envelope": "n/a"}
    if s.k1 != 0.0 or s.measurement != "exact":
        return checks
    unit = metrics.envelope_series(t, p, 1.0)
    # envelope_series integrates from 0: a run from t0 > 0 starts at its own e(t0)
    env = float(e[0]) * unit / unit[0]
    if s.k2 == 0.0:
        worst = float(np.max(np.abs(e - env)))
        checks["exact_law"] = "pass" if worst <= 1e-3 * abs(e[0]) + slack else "fail"
    res = metrics.envelope_check(e ** 2, env * e[0] + slack, tol=metrics.ENVELOPE_TOL)
    checks["decay_envelope"] = "pass" if res.passed else "fail"
    return checks


def _envelope_checks_pde(s: Scenario, t: np.ndarray, l2_err: np.ndarray,
                         alpha_inf: float, slack: float = 0.0) -> dict[str, str]:
    """Spatial L2 envelope verdict of the gain-free observer from the L2 norm
    ``l2_err`` of its error at times ``t``; ``slack`` as for the within-host checks."""
    checks: dict[str, str] = {"l2_envelope": "n/a"}
    if s.k1 != 0.0 or s.k2 != 0.0 or s.measurement != "exact":
        return checks
    env = metrics.l2_envelope(t - t[0], alpha_inf, float(l2_err[0]))
    res = metrics.envelope_check(l2_err ** 2, env + slack, tol=metrics.ENVELOPE_TOL)
    checks["l2_envelope"] = "pass" if res.passed else "fail"
    return checks


def _verdicts(s: Scenario, p: ParameterSet, col: dict[str, np.ndarray],
              alpha_inf: float, slack: float = 0.0) -> tuple[dict[str, str], float, float]:
    """Envelope verdicts and final absolute and relative errors of a run, read
    from its artifact columns ``col``; the run and :func:`check_artifacts` both
    derive them here.  ``alpha_inf`` is the run's ``inf(alpha)`` diagnostic."""
    if s.model == "ode":
        checks = _envelope_checks_ode(s, p, col["t"], col["theta"] - col["theta_hat"], slack)
        return checks, float(col["abs_err"][-1]), float(col["rel_err"][-1])
    checks = _envelope_checks_pde(s, col["t"], col["l2_err"], alpha_inf, slack)
    return checks, float(col["abs_err_mean"][-1]), float(col["rel_err_mean"][-1])


def _volume_sensitivity(group: list[Scenario], sp: SpatialParameterSet, grid):
    """d v / d theta(0) for the scenarios of ``group`` (which share span,
    scheme and sensor), from two perturbed truth runs of each distinct initial
    state: an iterator that gives, for each block of records that a run of the
    group cuts, one field per state ``(theta0, v0, rho0)`` over those records.

    The truths from theta(0) +- ``SENSITIVITY_DELTA`` of every distinct state
    step as one truth-only batch, a block per item.  Its system is built
    before this returns, so bad input raises before any step; a stepping
    error raises from the item being taken.
    The perturbed initial rates are clamped into ``[0, 1]``, so at the box
    edge the quotient is one-sided; it always divides by the actual spread.
    """
    first, states = group[0], list(dict.fromkeys((x.theta0, x.v0, x.rho0) for x in group))
    # members (+, -) of each state in turn
    thetas = np.array([[min(1.0, max(0.0, theta0 + sign * SENSITIVITY_DELTA))
                        for sign in (+1.0, -1.0)] for theta0, _, _ in states])
    spread = (thetas[:, 0] - thetas[:, 1]).reshape(-1, 1, *(1,) * grid.dim)
    twice = lambda i: np.repeat([state[i] for state in states], 2)
    zeros = np.zeros(thetas.size)  # a truth-only run reads no gain
    system = SpatialSystem(sp, grid, thetas.ravel(), twice(1), twice(2), first.measurement,
                           gains=(zeros, zeros))

    def quotients(block):
        v = np.moveaxis(block.truth[:, 1], 1, 0)
        return dict(zip(states, (v[0::2] - v[1::2]) / spread))

    return map(quotients, record_blocks(system, first.t0, first.t1, sp.base.dt, first.scheme,
                                        RECORD_STRIDE, truth_only=True))


class _Folded:
    """The CSV rows and condition diagnostics of scenario ``s``, a member of a
    run of ``system``, folded from the blocks of its records in time order
    (:meth:`add`) by its model's ``rows`` and ``batches``, looked up per group
    since benchmarks/tracing.py patches them; ``batches`` reads the volume
    sensitivity over the block's records, or ``None``.  The first error
    either raises is kept."""

    def __init__(self, s: Scenario, system, columns, rows, batches):
        self.p_run = dataclasses.replace(system.p, k1=s.k1, k2=s.k2)
        self.columns, self.to_rows, self.batches = columns, rows, batches
        self.fold = ode.ConditionFold(self.p_run, [], system.coef)
        self.rows: list[np.ndarray] = []
        self.error: Exception | None = None

    def add(self, block, sensitivity) -> None:
        if self.error is None:
            try:
                self.rows.append(self.to_rows(block))
                for batch in self.batches(block, self.p_run, sensitivity):
                    self.fold.add(*batch)
            except Exception as exc:  # fails this member alone
                self.error = exc

    def result(self) -> tuple[np.ndarray, ode.ConditionReport]:
        """The rows and the condition report of every block, or the error."""
        if self.error is not None:
            raise self.error
        return np.concatenate(self.rows), self.fold.report()


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
    record with ``status="failed"`` and the error line, so a sweep can
    continue; a failed run's directory holds only ``record.txt``, since
    :func:`_finish` removes the files of an earlier run of the same label.
    """
    return _run_group([s], p, sp, out_dir)[0]


def _run_group(group: list[Scenario], p: ParameterSet, sp: SpatialParameterSet | None,
               out_dir) -> list[RunRecord]:
    """Step the scenarios of ``group`` (see :func:`_groups`) as one system, then
    conclude each: one record per scenario, in group order.

    A group of one steps its float within-host system or its spatial system;
    a group of several one system with a member per scenario.  The volume
    sensitivity of a spatial group's ``k1 > 0`` members is one truth-only
    run for all (:func:`_volume_sensitivity`), stepped one block per block
    of the group, and each member takes the field of its initial state.
    Every group hands each block of its records to every member's
    :class:`_Folded`; an error in one member's diagnostics fails that member
    alone.  When building a system, the stepping or the sensitivity raises,
    even after some blocks were folded, a group of one fails with that error
    and a group of several runs each member as a group of one, so a failing
    scenario fails by itself with the error of its lone run.
    """
    t_start = time.perf_counter()
    first = group[0]
    # the floats of a lone run (on a member axis it takes several times its
    # float kernels), or one entry per member
    column = ((lambda key: getattr(first, key)) if len(group) == 1 else
              (lambda key: np.array([getattr(s, key) for s in group])))
    initial, gains = [column(key) for key in ("theta0", "v0", "rho0")], (column("k1"), column("k2"))
    member = (lambda traj, j: traj.member(j)) if len(group) > 1 else (lambda traj, j: traj)
    sensitivity = itertools.repeat({})  # no field for any member, block after block
    try:
        if first.model == "pde":
            system = SpatialSystem(dataclasses.replace(sp or SpatialParameterSet(), base=p),
                                   pde.Grid(first.dim, first.n), *initial, first.measurement,
                                   gains)
            sensing = [s for s in group if s.k1 > 0.0]
            if sensing:
                sensitivity = _volume_sensitivity(sensing, system.sp, system.grid)
            model = (PDE_COLUMNS, _pde_rows, pde.condition_batches)
        else:
            system = WithinHostSystem(p, *initial, first.measurement, gains=gains)
            model = (ODE_COLUMNS, _ode_rows,
                     lambda block, p_run, _sensitivity: ode.condition_batches(block, p_run))
        folded = [_Folded(s, system, *model) for s in group]

        def on_block(block):
            fields = next(sensitivity)  # over the same records as the block
            for j, (fold, s) in enumerate(zip(folded, group)):
                fold.add(member(block, j), fields.get((s.theta0, s.v0, s.rho0)))

        traj = simulate(system, first.t0, first.t1, p.dt, first.scheme, RECORD_STRIDE,
                        on_block=on_block)
    except Exception as exc:
        if len(group) == 1:
            return [_failed(first, out_dir, t_start, exc)]
        return [r for s in group for r in _run_group([s], p, sp, out_dir)]
    share = (time.perf_counter() - t_start) / len(group)  # of each member's wall clock
    return [_conclude(s, system, member(traj, j).overshoot, out_dir,
                      time.perf_counter() - share, folded[j])
            for j, s in enumerate(group)]


def _conclude(s: Scenario, system, overshoot: dict, out_dir, t_start: float,
              folded: _Folded) -> RunRecord:
    """Derive the verdicts of scenario ``s``, a member of a run of ``system``
    with the overshoot maxima ``overshoot``, from the rows and condition
    report that ``folded`` took from every block of its records; its directory
    holds the artifacts, or only the record of the failure that the
    diagnostics or the verdicts raised."""
    p_run, columns = folded.p_run, folded.columns
    sp_run = system.sp and dataclasses.replace(system.sp, base=p_run)
    try:
        rows, report = folded.result()
        checks, final_abs_err, final_rel_err = _verdicts(
            s, p_run, dict(zip(columns, rows.T)), report.alpha_inf)
    except Exception as exc:  # recorded, the sweep goes on
        return _failed(s, out_dir, t_start, exc)

    record = RunRecord(
        scenario=s, status="ok", error=None, wall_clock_s=time.perf_counter() - t_start,
        overshoot=overshoot, final_abs_err=final_abs_err, final_rel_err=final_rel_err,
        checks=checks, condition=_condition_summary(report), out_dir=None)

    def artifacts(directory: Path) -> None:  # emit_plot reads the CSV
        _write_csv(directory / "series.csv", columns, rows)
        write_atomic(directory / "config.txt",
                     configmod.write_config(p_run, sp_run, scenarios=[s]))
        for kind in PLOTS:
            emit_plot(directory, kind)
    return _finish(record, out_dir, artifacts)


def _failed(s: Scenario, out_dir, t_start: float, exc: Exception) -> RunRecord:
    """The record of scenario ``s`` failed with ``exc``; its directory holds only that record."""
    return _finish(RunRecord(
        scenario=s, status="failed", error=f"{type(exc).__name__}: {exc}",
        wall_clock_s=time.perf_counter() - t_start, overshoot={},
        final_abs_err=None, final_rel_err=None, checks={}, condition={}, out_dir=None),
        out_dir)


def _finish(record: RunRecord, out_dir, artifacts=None) -> RunRecord:
    """Write the directory of ``record`` below ``out_dir``, if any: remove its ``FILES``,
    ``record.txt`` first; ``artifacts(directory)`` writes the rest; ``record.txt`` last."""
    if out_dir is not None:
        directory = Path(out_dir) / record.scenario.label
        directory.mkdir(parents=True, exist_ok=True)
        for name in FILES:
            (directory / name).unlink(missing_ok=True)
        if artifacts is not None:
            artifacts(directory)
        record.out_dir = str(directory)
        _write_record(directory / "record.txt", record)
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


def _groups(scenarios: list[Scenario]) -> list[list[Scenario]]:
    """The scenarios stepped as one system, in order of first appearance: those
    that share model, scheme, sensor and span, and for the spatial model the
    grid (``dim`` and ``n``).  A spatial group also shares one truth-only run,
    stepped beside it, for the volume sensitivity of its ``k1 > 0`` members."""
    groups: dict[tuple, list[Scenario]] = {}
    for s in scenarios:
        key = (s.model, s.scheme, s.measurement, s.t0, s.t1)
        groups.setdefault(key + ((s.dim, s.n) if s.model == "pde" else ()), []).append(s)
    return list(groups.values())


def sweep(kind: str, p: ParameterSet | None = None,
          sp: SpatialParameterSet | None = None,
          out_dir: str | Path | None = None, workers: int = 1,
          scenarios: list[Scenario] | None = None) -> list[RunRecord]:
    """Run a scenario matrix (or an explicit scenario list) into ``out_dir``.

    Each group of :func:`_groups` is stepped as one system
    (:func:`_run_group`), with ``workers > 1`` in a process pool, imported
    only then.  Every scenario owns its output directory and writes what its
    lone run writes, so results are identical to a serial run of
    :func:`run_scenario`.
    Raises ``ValueError`` before any run when ``workers < 1``, when a paper
    matrix's ``p`` is refused, or when two scenarios share a label, since they
    would write into one directory; the runs of a scenario list that read a
    refused set (``p`` or ``sp``) fail instead, with the refusal's text.
    """
    if workers < 1:
        raise ValueError(f"workers={workers} must be >= 1")
    p = p or ParameterSet()
    if scenarios is None:
        scenarios = scenario_matrix(kind, p)
    repeated = [lab for lab, n in collections.Counter(s.label for s in scenarios).items() if n > 1]
    if repeated:
        raise ValueError(f"scenario label {repeated[0]!r} names more than one scenario")
    if out_dir is not None:  # a killed sweep leaves no manifest of an earlier one
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        (Path(out_dir) / "manifest.txt").unlink(missing_ok=True)
    groups = _groups(scenarios)
    jobs = (groups, itertools.repeat(p), itertools.repeat(sp), itertools.repeat(out_dir))
    if workers > 1 and len(groups) > 1:
        from concurrent.futures import ProcessPoolExecutor  # about 2 MB of RSS once imported

        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_run_group, *jobs))
    else:
        done = list(map(_run_group, *jobs))
    by_label = {r.scenario.label: r for records in done for r in records}
    records = [by_label[s.label] for s in scenarios]
    if out_dir is not None:
        manifest = [f"{r.scenario.label} {r.status}" for r in records]
        write_atomic(Path(out_dir) / "manifest.txt", "\n".join(manifest) + "\n")
    return records


# ---------------------------------------------------------------------------
# artifact re-verification and plotting
# ---------------------------------------------------------------------------

def _check_one_dir(directory: Path) -> list[str]:
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
    try:
        loaded = configmod.load_config(cfg_path)
    except configmod.ConfigError as exc:
        return [f"{directory}: {cfg_path.name}: {exc}"]
    if len(loaded.scenarios) != 1:
        return [f"{directory}: config snapshot must hold exactly one scenario"]
    s, p = loaded.scenarios[0], loaded.params
    if s.label != os.path.basename(os.path.abspath(directory)):  # runs write <out>/<label>
        return [f"{directory}: config snapshot describes scenario {s.label}"]
    try:
        header, data = _read_csv(csv_path)
    except ValueError as exc:
        return [f"{directory}: unparsable {csv_path.name}: {exc}"]
    expected_cols = list(ODE_COLUMNS if s.model == "ode" else PDE_COLUMNS)
    if header != expected_cols or data.shape[1] != len(header):
        return [f"{directory}: unexpected CSV table: columns {header}, shape {data.shape}"]
    bad = ~np.isfinite(data)
    if bad.any():  # every comparison with nan is false, so no check below would fail
        return [f"{directory}: column {name} is not finite at t={data[bad[:, c].argmax(), 0]:.9g}"
                for c, name in enumerate(header) if bad[:, c].any()]
    col = dict(zip(header, data.T))
    t = col["t"]
    nine_digit_slack = 1e-7
    problems: list[str] = []

    # a time written to 9 significant digits is off by at most 5e-9 of itself
    time_slack = 1e-8 * np.max(np.abs(t))
    # the record times of the loop, t0 + k*dt at every RECORD_STRIDE-th step
    # k, in the same IEEE operations, as many as the CSV has rows, so that a
    # forged span allocates no grid
    record_t = s.t0 + np.arange(len(t)) * RECORD_STRIDE * p.dt
    if len(t) != step_count(s.t0, s.t1, p.dt) // RECORD_STRIDE + 1 or np.max(np.abs(
            t - record_t)) > time_slack:
        problems.append(f"{directory}: time axis is not the records of the snapshot's span")
    # a run records its observer at t0 as theta_hat = 0, and within host v_hat = v
    start = [col[key][0] for key in col if key.startswith("theta_hat")]
    start += [col["v_hat"][0] - col["v"][0]] if s.model == "ode" else []
    if abs(t[0] - s.t0) <= time_slack and any(start):
        problems.append(f"{directory}: first row is not the observer's initial state")

    for name, lo, hi in zip(COMPONENTS, *state_box(p)):
        for key in (name, f"{name}_min", f"{name}_max"):
            if key in col and (col[key].min() < lo - nine_digit_slack
                               or col[key].max() > hi + nine_digit_slack):
                problems.append(f"{directory}: column {key} leaves [{lo:g}, {hi:g}]")

    if s.model == "ode":
        abs_err = np.abs(col["theta"] - col["theta_hat"])
        if np.max(np.abs(abs_err - col["abs_err"])) > nine_digit_slack:
            problems.append(f"{directory}: abs_err column does not match theta, theta_hat")
        rel_err = metrics.relative_abs_error(col["theta"], col["theta_hat"])
        if np.max(np.abs(rel_err - col["rel_err"])) > 2e-7 * (1 + np.max(rel_err)):
            problems.append(f"{directory}: rel_err column does not match theta, theta_hat")
    else:
        # min <= mean <= max per quantity; mean |e| <= l2 <= max |e| as well
        for name in ("theta", "theta_hat", "abs_err", "rel_err"):
            chain = _aggregates(name)
            if name == "abs_err":
                chain = (chain[0], chain[1], "l2_err", chain[2])
            if any(np.any(col[a] > col[b] + nine_digit_slack) for a, b in zip(chain, chain[1:])):
                problems.append(f"{directory}: columns {', '.join(chain)} not ordered")

    numbers = {}
    overshoot = [f"overshoot_{name}" for name in COMPONENTS]
    for key in ("cond_alpha_inf", "final_abs_err", "final_rel_err", *overshoot):
        if key not in rec:
            return problems + [f"{directory}: {rec_path.name}: no {key}"]
        try:
            numbers[key] = float(rec[key])
        except ValueError:
            return problems + [f"{directory}: {rec_path.name}: {key} = {rec[key]!r} is not a number"]
    problems += [f"{directory}: {key} = {rec[key]} leaves [0, {OVERSHOOT_LIMIT:g}]"
                 for key in overshoot if not 0.0 <= numbers[key] <= OVERSHOOT_LIMIT]
    try:
        alpha_inf = _alpha_inf(s, p, loaded.spatial, record_t)
        checks, *finals = _verdicts(s, p, col, alpha_inf, nine_digit_slack)
    except ValueError as exc:  # a table or record no run writes
        return problems + [f"{directory}: cannot replay the checks: {exc}"]
    if not abs(numbers["cond_alpha_inf"] - alpha_inf) <= nine_digit_slack:
        problems.append(f"{directory}: cond_alpha_inf = {rec['cond_alpha_inf']} does not"
                        f" match the snapshot's forcing, {alpha_inf!r}")
    for name, verdict in checks.items():
        recorded = rec.get(f"check_{name}")
        if recorded != verdict:
            problems.append(
                f"{directory}: check {name} recomputes to {verdict!r}"
                f" but record says {recorded!r}")
    for name, fresh in zip(("final_abs_err", "final_rel_err"), finals):
        if not abs(numbers[name] - fresh) <= nine_digit_slack:
            problems.append(f"{directory}: {name} does not match the CSV")
    return problems


def _alpha_inf(s: Scenario, p: ParameterSet, sp: SpatialParameterSet, times) -> float:
    """The ``inf(alpha)`` diagnostic of a run of ``s`` with the record ``times``:
    the smallest inhibition forcing over the times and the cells.  The forcing
    is affine in the profile ``q1``, so over the cells it is smallest at the
    smallest or the largest ``q1``, and no records x cells field is built."""
    lo = hi = 1.0
    if s.model == "pde":  # q1 reads only the seed of the base set
        lo, hi = _q1_range(dataclasses.replace(sp, base=ParameterSet(seed=p.seed)),
                           pde.Grid(s.dim, s.n))
    return float(np.min(forcing.inhibition_forcing(times, p, np.array([[lo], [hi]]))))


@functools.lru_cache(maxsize=16)
def _q1_range(sp: SpatialParameterSet, grid: pde.Grid) -> tuple[float, float]:
    """The smallest and largest value on ``grid`` of the profile ``q1`` that
    :func:`pde.spatial_coefficients` makes of ``sp``; cached, since every
    spatial directory of a sweep reads the same one."""
    if sp.spatial_profile == "uniform":
        return 1.0, 1.0
    q1 = forcing.spatial_weight(grid.centers(), 1, sp, grid.dim)
    return float(q1.min()), float(q1.max())


def _sweeps(run_dir: Path):
    """Yield ``(sweep root, scenario directories)``: ``(None, [run_dir])`` when
    ``run_dir`` is one scenario, else ``run_dir`` with its subdirectories that
    are scenarios, then the same for every other subdirectory (such as the
    ``<out>/<kind>`` sweeps of ``anthobs run``, whose manifest a killed sweep
    leaves out).  A scenario directory holds a ``series.csv`` or, after a
    failed run, only a ``record.txt``."""
    scenario = lambda d: (d / "series.csv").exists() or (d / "record.txt").exists()
    if scenario(run_dir):
        yield None, [run_dir]
        return
    subdirs = sorted(d for d in run_dir.iterdir() if d.is_dir())
    yield run_dir, [d for d in subdirs if scenario(d)]
    for d in subdirs:
        if not scenario(d):
            yield from _sweeps(d)


def scenario_dirs(run_dir: str | Path) -> list[Path]:
    """Every scenario directory :func:`check_artifacts` verifies for ``run_dir``."""
    return [d for _, dirs in _sweeps(Path(run_dir)) for d in dirs]


def check_artifacts(run_dir: str | Path) -> list[str]:
    """Re-verify every scenario artifact below ``run_dir``; return problems.

    Accepts either one scenario directory or a sweep root.  A scenario
    directory holds a ``series.csv`` or a ``record.txt``, so a failed run's
    directory is checked, and fails by its recorded status.  A sweep root's
    ``manifest.txt``, when present, must list every checked directory, and
    every scenario as ``label ok`` with a checked directory; any other entry
    or directory is a problem of ``<root>/<label>``, and a line of any other
    shape is a problem of the manifest.  Every subdirectory that is not a
    scenario is checked as a sweep root too.  A damaged snapshot or
    CSV is a problem of its directory.  A clean result is an empty list.
    Pure function of the on-disk artifacts: each time must be its record
    time of the snapshot's span, the first row the observer's initial state,
    each recorded overshoot in ``[0, OVERSHOOT_LIMIT]``, ``cond_alpha_inf``
    its recomputation from the snapshot (:func:`_alpha_inf`), and the verdicts,
    with that value, and the final errors must replay from the CSV; but nothing
    is re-run, so later states forged to agree with the error columns and the
    record pass.
    """
    run_dir = Path(run_dir)
    if not run_dir.exists():
        return [f"{run_dir}: no such directory"]
    sweeps = list(_sweeps(run_dir))
    found = any(dirs for _, dirs in sweeps)
    problems: list[str] = [] if found else [f"{run_dir}: no scenario artifacts found"]
    for root, dirs in sweeps:
        for d in dirs:
            problems.extend(_check_one_dir(d))
        if root is None or not (root / "manifest.txt").exists():
            continue
        manifest = root / "manifest.txt"
        checked, listed = {d.name for d in dirs}, set()
        for number, line in enumerate(manifest.read_text().splitlines(), 1):
            entry = line.split()
            if not entry:
                continue
            if len(entry) != 2:
                problems.append(f"{manifest}:{number}: malformed line {line!r},"
                                " expected 'label status'")
                continue
            label, status = entry
            listed.add(label)
            if status != "ok":
                problems.append(f"{root / label}: manifest status {status!r}")
            elif label not in checked:
                problems.append(f"{root / label}: listed ok but has no artifacts")
        problems.extend(f"{root / label}: not listed in {manifest.name}"
                        for label in sorted(checked - listed))
    return problems


def emit_plot(run_dir: str | Path, kind: str) -> Path:
    """Render the ``estimate`` or ``error`` plot of a scenario directory to ``<kind>.svg``."""
    if kind not in PLOTS:
        raise ValueError(f"unknown plot kind {kind!r}")
    run_dir = Path(run_dir)
    header, data = _read_csv(run_dir / "series.csv")
    if tuple(header) not in (ODE_COLUMNS, PDE_COLUMNS) or data.shape[1] != len(header):
        raise ValueError(f"{run_dir}: unexpected CSV table: columns {header}, shape {data.shape}")
    col = dict(zip(header, data.T))
    ylabel, curves = PLOTS[kind]
    if "theta" in col:  # within-host
        series = [(label, col[name]) for label, _, name in curves]
    else:  # spatial: the min/mean/max of each quantity
        series = [(f"{short} {agg}", col[f"{name}_{agg}"])
                  for _, short, name in curves for agg in ("min", "mean", "max")]
    out = run_dir / f"{kind}.svg"
    svgplot.line_plot(out, col["t"], series, run_dir.name, "t (fraction of the year)", ylabel)
    return out
