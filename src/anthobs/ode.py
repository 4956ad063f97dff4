"""The disease model, its observer and measurement, and condition diagnostics.

State variables: inhibition rate ``theta`` in [0,1], berry volume ``v`` in
[0, v_max], rot proportion ``rho`` in [0,1].  The rot volume is the derived
product ``rho * v`` and is never evolved on its own.  The observer estimates
``(theta, v)`` from the measurable stream ``(v, rho, drho_dt)``; its
correction uses three terms:

* a volume-deficit term, active only when the measured volume is below the
  estimate and the inhibition estimate is strictly interior;
* a rot-rate innovation, the gap between the measured rot-proportion rate
  and the rate the estimate would predict;
* a growth-saturation term that steers the volume estimate towards its
  logistic equilibrium.

Each formula is written once, on floats or fields, with profiles ``coef``
that scale the forcings at each point: the within-host model is the unit
profile :data:`UNIT` on floats, the spatial model the profiles of
:func:`anthobs.pde.spatial_coefficients` on fields plus the diffusion its
system adds.  The condition diagnostics serve both models.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import forcing
from .forcing import Value
from .params import ParameterSet

__all__ = [
    "ModelState",
    "ObserverState",
    "Measurement",
    "SpatialCoefficients",
    "UNIT",
    "model_rhs",
    "observer_rhs",
    "rot_rate",
    "volume_gap",
    "rot_innovation",
    "growth_saturation",
    "interior_indicator",
    "make_measurement",
    "condition_report",
    "ConditionFold",
    "condition_batches",
    "check_conditions",
    "ConditionReport",
]

#: Denominators smaller than this are treated as singular in diagnostics.
SINGULAR_TOL = 1e-9


class ModelState(NamedTuple):
    theta: Value
    v: Value
    rho: Value

    @property
    def rot_volume(self) -> Value:
        """Derived rot volume ``rho * v``; never an independent state."""
        return self.rho * self.v


class ObserverState(NamedTuple):
    theta_hat: Value
    v_hat: Value


class Measurement(NamedTuple):
    """Observable stream: volume, rot proportion and its time derivative."""

    v: Value
    rho: Value
    drho_dt: Value


@dataclass(frozen=True)
class SpatialCoefficients:
    """Profiles that scale the forcings at each point, fixed over a run:
    ``q1, q2, q3`` multiply the three forcings, ``u_space`` the control signal.
    """

    q1: Value
    q2: Value
    q3: Value
    u_space: Value


#: The within-host model: profiles of float 1 leave every product bit for bit.
UNIT = SpatialCoefficients(1.0, 1.0, 1.0, 1.0)


def rot_rate(t: Value, theta: Value, v: Value, rho: Value, p: ParameterSet,
             coef: SpatialCoefficients = UNIT) -> Value:
    """Rot-proportion rate ``q3 * rot_forcing(theta, v, rho) * (1 - rho)``: the
    model's rate, the observer's prediction at ``theta_hat`` and the exact sensor."""
    return coef.q3 * forcing.rot_forcing(t, theta, v, rho, p) * (1.0 - rho)


def model_rhs(t: float, s: ModelState, p: ParameterSet,
              coef: SpatialCoefficients = UNIT) -> tuple:
    """Right-hand side ``(dtheta, dv, drho)`` of the model at every point of
    ``s``, without the diffusion of ``theta`` in the spatial model.

    Raises ``ValueError`` naming the first sample where ``1 + epsilon - theta
    <= 0`` (cannot happen in the state box; guards against numerical drift).
    """
    cap = 1.0 + p.epsilon - s.theta
    bad = cap <= 0.0
    if bad is not False and np.any(bad):  # float states test one bool
        t_bad, cap_bad = forcing.first_offender(bad, t, cap)
        raise ValueError(f"volume capacity 1+epsilon-theta={cap_bad} <= 0 at t={t_bad}")
    a = forcing.inhibition_forcing(t, p, coef.q1)
    w = forcing.inhibition_weight(t, p, coef.u_space)
    dtheta = a * (1.0 - w * s.theta)
    dv = coef.q2 * forcing.growth_forcing(t, s.theta, p) * (
        1.0 - s.v / (forcing.volume_capacity(t, p) * p.v_max * cap)
    )
    return dtheta, dv, rot_rate(t, s.theta, s.v, s.rho, p, coef)


def interior_indicator(x: Value) -> Value:
    """Whether ``x`` lies strictly inside ``]0, 1[`` (elementwise on arrays)."""
    return (x > 0.0) & (x < 1.0)


def volume_gap(theta_hat: Value, v_hat: Value, v_meas: Value, epsilon: float) -> Value:
    """Volume-deficit correction ``(1 - v_meas/v_hat)*(1 + epsilon - theta_hat)``.

    Active only when ``v_meas <= v_hat``, ``theta_hat in ]0,1[`` and
    ``v_hat > 0``; zero elsewhere, which absorbs every degenerate input.
    Always >= 0.  Elementwise when ``theta_hat`` is an array.
    """
    if isinstance(theta_hat, np.ndarray):  # the same branches, dividing only where active
        active = (v_meas <= v_hat) & interior_indicator(theta_hat) & (v_hat > 0.0)
        ratio = np.divide(v_meas, v_hat, out=np.ones(np.shape(active)), where=active)
        return np.where(active, (1.0 - ratio) * (1.0 + epsilon - theta_hat), 0.0)
    if v_meas <= v_hat and 0.0 < theta_hat < 1.0 and v_hat > 0.0:
        return (1.0 - v_meas / v_hat) * (1.0 + epsilon - theta_hat)
    return 0.0


def rot_innovation(theta_hat: Value, drho_meas: Value, predicted: Value) -> Value:
    """Rot-rate innovation: the measured ``drho_meas`` minus the rate
    ``predicted`` from the estimate.

    Zero outside ``theta_hat in ]0,1[`` and whenever the estimate already
    explains the measured rot rate.  Elementwise when ``theta_hat`` is an array.
    """
    if isinstance(theta_hat, np.ndarray):
        return np.where(interior_indicator(theta_hat), drho_meas - predicted, 0.0)
    if 0.0 < theta_hat < 1.0:
        return drho_meas - predicted
    return 0.0


def growth_saturation(t: Value, theta_hat: Value, v_hat: Value,
                      p: ParameterSet) -> Value:
    """Logistic saturation ``1 - v_hat/((1+eps-theta_hat)*eta(t)*v_max)``.

    Zero exactly at the volume equilibrium, on floats or fields; raises
    ``ValueError`` naming the first sample where ``1 + epsilon - theta_hat <= 0``.
    """
    cap = 1.0 + p.epsilon - theta_hat
    bad = cap <= 0.0
    if bad is not False and np.any(bad):  # float states test one bool
        t_bad, cap_bad = forcing.first_offender(bad, t, cap)
        raise ValueError(f"1+epsilon-theta_hat={cap_bad} <= 0 at t={t_bad}")
    return 1.0 - v_hat / (cap * forcing.volume_capacity(t, p) * p.v_max)


def observer_rhs(t: float, o: ObserverState, m: Measurement, p: ParameterSet,
                 coef: SpatialCoefficients = UNIT, gains: tuple | None = None) -> tuple:
    """Right-hand side ``(dtheta_hat, dv_hat)`` of the observer at every point,
    without diffusion; reads only its own state ``o`` and the measurement ``m``.
    ``gains = (k1, k2)`` overrides ``p.k1, p.k2``, with one gain per point.
    """
    k1, k2 = (p.k1, p.k2) if gains is None else gains
    predicted = rot_rate(t, o.theta_hat, m.v, m.rho, p, coef)
    a = forcing.inhibition_forcing(t, p, coef.q1)
    w = forcing.inhibition_weight(t, p, coef.u_space)
    dtheta = (
        a * (1.0 - w * o.theta_hat)
        + k1 * volume_gap(o.theta_hat, o.v_hat, m.v, p.epsilon)
        + k2 * rot_innovation(o.theta_hat, m.drho_dt, predicted)
    )
    dv = coef.q2 * forcing.growth_forcing(t, o.theta_hat, p) * growth_saturation(
        t, o.theta_hat, o.v_hat, p
    )
    return dtheta, dv


def make_measurement(t: float, s: ModelState, mode: str = "exact",
                     prev: tuple[ModelState, float] | None = None,
                     p: ParameterSet | None = None,
                     coef: SpatialCoefficients = UNIT) -> Measurement:
    """Synthesise the observable stream from the true state, at every point.

    ``exact`` mode reads ``drho_dt`` off the model right-hand side;
    ``finite_difference`` emulates a real differencing sensor with a backward
    quotient, and requires the previous sample ``prev = (state, time)``.
    """
    if mode == "exact":
        if p is None:
            raise ValueError("exact mode requires the parameter set")
        drho = rot_rate(t, s.theta, s.v, s.rho, p, coef)
    elif mode == "finite_difference":
        if prev is None:
            raise ValueError("finite_difference mode requires the previous sample")
        s_prev, t_prev = prev
        drho = (s.rho - s_prev.rho) / (t - t_prev)
    else:
        raise ValueError(f"unknown measurement mode {mode!r}")
    return Measurement(s.v, s.rho, drho)


# ---------------------------------------------------------------------------
# convergence-condition diagnostics
# ---------------------------------------------------------------------------

@dataclass
class ConditionReport:
    """Empirical infima of the observer convergence conditions on a run.

    Infima are taken over every sample: each recorded time, and for the
    spatial model each grid cell.  ``alpha_inf`` / ``alpha_zero_times``:
    smallest sampled inhibition forcing and the times where it (numerically)
    vanishes somewhere.  ``coercivity_inf`` is the smallest sampled ratio
    ``|rot_forcing(theta) - rot_forcing(theta_hat)| / |theta - theta_hat|``
    (``None`` when no sample has ``theta != theta_hat``).
    ``stability1_inf`` / ``stability2_inf`` are the infima of the two gain
    stability expressions ``alpha*w + k1*delta*R`` and ``... + k2*phi2``,
    with singular samples excluded and counted; ``None`` when not evaluable.
    ``dominance_inf`` is the smallest margin ``k2*|phi2| - k1*phi1``.
    """

    alpha_inf: float
    alpha_zero_times: list[float]
    coercivity_inf: float | None
    coercivity_samples: int
    stability1_inf: float | None
    stability1_excluded: int
    stability2_inf: float | None
    stability2_excluded: int
    dominance_inf: float | None
    notes: list[str] = field(default_factory=list)


class ConditionFold:
    """Condition infima over every sample of one run, taken a batch at a time
    in time order (:meth:`add`), with the observer gains ``p.k1`` and ``p.k2``
    and the profiles ``coef``; :meth:`report` gives the infima of the batches
    added so far, with ``notes``.

    A batch ``(t, theta, o, m, ratio, excluded)`` broadcasts: its times, true
    rate, observer state, measurement, stability factor ``R`` (``None``: not
    evaluable when ``k1 > 0``) and the samples excluded as singular.  A batch
    holds any number of records, with the times on the leading axis.
    """

    def __init__(self, p: ParameterSet, notes: list[str], coef: SpatialCoefficients = UNIT):
        self.p, self.notes, self.coef = p, notes, coef
        self.infima: dict[str, list] = {key: [] for key in ("alpha", "coer", "s1", "s2", "dom")}
        self.zero_times: list[float] = []
        self.n_coer = self.n_excluded = 0

    def add(self, t, theta, o, m, ratio, excluded) -> None:
        p, coef, infima = self.p, self.coef, self.infima
        k1, k2 = p.k1, p.k2
        alpha = forcing.inhibition_forcing(t, p, coef.q1)
        w = forcing.inhibition_weight(t, p, coef.u_space)
        # the rot forcing at theta and at theta_hat, with the measured v, rho
        rot, rot_hat = (coef.q3 * forcing.rot_forcing(t, x, m.v, m.rho, p)
                        for x in (theta, o.theta_hat))
        err = np.abs(theta - o.theta_hat)
        informative = err > 1e-12
        coer = np.abs(rot - rot_hat)[informative] / err[informative]
        phi2 = rot_innovation(o.theta_hat, m.drho_dt, rot_hat * (1.0 - m.rho))
        dom = k2 * np.abs(phi2) - k1 * volume_gap(o.theta_hat, o.v_hat, m.v, p.epsilon)
        self.zero_times += np.unique(
            np.broadcast_to(t, np.shape(alpha))[alpha < SINGULAR_TOL]).tolist()
        infima["alpha"].append(np.min(alpha))
        infima["dom"].append(np.min(dom))
        if coer.size:
            infima["coer"].append(coer.min())
            self.n_coer += coer.size
        if k1 != 0.0 and ratio is None:
            return
        k1d = k1 * interior_indicator(o.theta_hat)
        with np.errstate(invalid="ignore", over="ignore"):
            k1_term = np.where(k1d != 0.0, k1d * ratio, 0.0) if k1 else 0.0
        expr1 = np.broadcast_to(alpha * w + k1_term, phi2.shape)
        keep = ~np.broadcast_to(excluded, phi2.shape)
        self.n_excluded += phi2.size - int(np.count_nonzero(keep))
        if np.any(keep):
            infima["s1"].append(expr1[keep].min())
            infima["s2"].append((expr1 + k2 * phi2)[keep].min())

    def report(self) -> ConditionReport:
        def inf(key):
            return float(min(self.infima[key])) if self.infima[key] else None

        notes = self.notes
        if self.n_coer == 0:
            notes = notes + ["coercivity: no informative samples (theta_hat == theta throughout)"]
        return ConditionReport(
            alpha_inf=inf("alpha"),
            alpha_zero_times=self.zero_times,
            coercivity_inf=inf("coer"),
            coercivity_samples=self.n_coer,
            stability1_inf=inf("s1"),
            stability1_excluded=self.n_excluded,
            stability2_inf=inf("s2"),
            stability2_excluded=self.n_excluded,
            dominance_inf=inf("dom"),
            notes=notes,
        )


def condition_report(batches, p: ParameterSet, notes: list[str],
                     coef: SpatialCoefficients = UNIT) -> ConditionReport:
    """Condition infima over every sample of one run's ``batches``: the
    :class:`ConditionFold` of the batches, in order."""
    fold = ConditionFold(p, notes, coef)
    for batch in batches:
        fold.add(*batch)
    return fold.report()


def condition_batches(traj, p: ParameterSet):
    """The batch of :class:`ConditionFold` for the records of ``traj``, a
    recorded :class:`~anthobs.stepping.Trajectory` of the coupled within-host
    system or a block of one: all its records in one batch, each forcing
    called once on the array of their times.  Samples where the stability
    fraction is singular and ``k1*delta != 0`` are excluded and counted;
    non-evaluable samples are never fatal.
    """
    if len(traj.times) == 0:
        raise ValueError("empty trajectory")
    t = traj.times
    theta, v, _ = traj.truth.T
    o = ObserverState(*traj.observer.T)
    ratio, excluded = None, False
    if p.k1 != 0.0:
        # R = 1 + frac, frac singular where v, 1 - theta*w or alpha vanishes
        alpha, w = forcing.inhibition_forcing(t, p), forcing.inhibition_weight(t, p)
        eta = forcing.volume_capacity(t, p)
        num = forcing.growth_forcing(t, theta, p) * (
            eta * p.v_max * (1.0 + p.epsilon - theta) - v)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = 1.0 + num / (alpha * eta * v * p.v_max * (1.0 - theta * w))
        excluded = interior_indicator(o.theta_hat) & (
            (v < SINGULAR_TOL) | (np.abs(1.0 - theta * w) < SINGULAR_TOL) | (alpha < SINGULAR_TOL))
    yield t, theta, o, Measurement(*traj.measurements.T), ratio, excluded


def check_conditions(traj, p: ParameterSet) -> ConditionReport:
    """Evaluate the convergence-condition diagnostics along a within-host
    trajectory ``traj``: the report of its :func:`condition_batches`."""
    return condition_report(condition_batches(traj, p), p, [])
