"""Fixed-step explicit time integration with recording and box clamping.

``simulate`` advances a coupled truth+observer system in lockstep: at each
step the measurement is synthesised from the current true state, the truth
is advanced, then the observer is advanced using that measurement (held
constant over the step).  The observer therefore only ever sees truth data
from the current or earlier steps.

After every step, states are clamped to their invariant boxes and the
pre-clamp overshoot is recorded; any overshoot beyond ``OVERSHOOT_LIMIT``
aborts the run, since the continuous dynamics cannot leave the box and a
larger excursion signals an unstable step size.

One loop serves both models through the one system of :mod:`anthobs.systems`
(the spatial system is the within-host system on grid profiles, plus
diffusion); the kind of the initial state picks its step and clamp kernels
once per run.  A lone within-host run (a 1-D initial state) runs on tuples
of floats; a field system, or a batch of within-host runs, on numpy arrays
with the component axis first.  The two kernel kinds perform identical IEEE
arithmetic, so member ``j`` of a batch records what the lone run of member
``j`` records, bit for bit; the test suite cross-checks them.  Recorded
samples are written straight into the preallocated trajectory arrays.

The overshoot is reduced over the state axes that the box bounds do not
span (the grid axes of a field).  A batch's bounds span its member axis
with a unit axis, so each member keeps the overshoot of its own run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .params import _check_gains

__all__ = [
    "step_euler",
    "step_rk4",
    "simulate",
    "check_run",
    "members",
    "Trajectory",
    "NonFiniteError",
    "OvershootError",
    "OVERSHOOT_LIMIT",
    "cfl_step_limit",
]

#: Largest tolerated pre-clamp excursion outside the state box.
OVERSHOOT_LIMIT = 1e-6
#: Fraction of the explicit diffusion stability bound that a step may take.
CFL_SAFETY = 0.9


class NonFiniteError(RuntimeError):
    """A derivative or state component became NaN or infinite."""


class OvershootError(RuntimeError):
    """A state component left its invariant box by more than the tolerance."""


def _require_finite(d: np.ndarray, t: float, what: str) -> None:
    if math.isfinite(float(d.sum())):
        return
    if not np.all(np.isfinite(d)):
        idx = tuple(int(i) for i in np.argwhere(~np.isfinite(d))[0])
        raise NonFiniteError(f"non-finite {what} at t={t}, component {idx}")


def step_euler(rhs, t: float, state, dt: float):
    """One explicit Euler step: ``state + dt * rhs(t, state)``.

    ``rhs`` returns an array, or a sequence of component arrays (the
    within-host right-hand sides on a batch), like ``state``."""
    d = np.asarray(rhs(t, state))
    _require_finite(d, t, "derivative")
    return state + dt * d


def step_rk4(rhs, t: float, state, dt: float):
    """One classical 4-stage Runge-Kutta step; ``rhs`` as for :func:`step_euler`."""
    k1 = np.asarray(rhs(t, state))
    _require_finite(k1, t, "derivative (stage 1)")
    k2 = np.asarray(rhs(t + 0.5 * dt, state + 0.5 * dt * k1))
    _require_finite(k2, t, "derivative (stage 2)")
    k3 = np.asarray(rhs(t + 0.5 * dt, state + 0.5 * dt * k2))
    _require_finite(k3, t, "derivative (stage 3)")
    k4 = np.asarray(rhs(t + dt, state + dt * k3))
    _require_finite(k4, t, "derivative (stage 4)")
    return state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


_STEPPERS = {"euler": step_euler, "rk4": step_rk4}


def cfl_step_limit(h: float, dim: int, diffusivity: float) -> float:
    """Largest stable explicit step for diffusion: ``CFL_SAFETY*h^2/(2*dim*D)``."""
    if diffusivity <= 0.0:
        return math.inf
    return CFL_SAFETY * h * h / (2.0 * dim * diffusivity)


@dataclass
class Trajectory:
    """Recorded samples of a coupled truth+observer run.

    ``truth`` has shape ``(n_records, 3[, *grid])`` holding
    ``(theta, v, rho)``; ``observer`` has shape ``(n_records, 2[, *grid])``
    holding ``(theta_hat, v_hat)``; ``measurements`` holds ``(v, rho, drho_dt)``
    as consumed by the observer at each recorded time; both are ``None`` for
    truth-only runs.  ``overshoot`` maps component names to the largest
    pre-clamp excursion outside the box seen anywhere in the run.  A batch
    run adds a member axis after the component axis, and its ``overshoot``
    holds one value per member; :meth:`member` takes one member's run.
    """

    times: np.ndarray
    truth: np.ndarray
    observer: np.ndarray | None
    measurements: np.ndarray | None
    overshoot: dict[str, float]
    meta: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.times)

    def member(self, j: int) -> "Trajectory":
        """Member ``j`` of a batch run: the records of that member's run alone."""
        pick = lambda a: None if a is None else a[:, :, j]
        return Trajectory(
            times=self.times, truth=pick(self.truth), observer=pick(self.observer),
            measurements=pick(self.measurements),
            overshoot={name: float(v[j]) for name, v in self.overshoot.items()},
            meta=self.meta)


def check_run(t0: float, t1: float, dt: float, scheme: str, k1: float, k2: float) -> None:
    """Reject a run whose span, step, scheme or gains no system can take:
    finite ``t0 <= t1``, a finite ``dt > 0``, a known scheme and the gain rule of
    :mod:`anthobs.params`.  Raises ``ValueError`` with the first violation."""
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError(f"t0={t0} and t1={t1} must be finite")
    if t1 < t0:
        raise ValueError(f"t1={t1} earlier than t0={t0}")
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt={dt} must be a positive finite step")
    if scheme not in _STEPPERS:
        raise ValueError(f"unknown scheme {scheme!r}; pick one of {sorted(_STEPPERS)}")
    violations = _check_gains(k1, k2, dt)
    if violations:
        raise ValueError(violations[0].message)


def members(*values):
    """The per-member tuples of ``values``: the floats of one run, or equal-length
    sequences with one entry per member of a batch."""
    return zip(*values) if np.ndim(values[0]) else [values]


def _validate_run(system, t0, t1, dt, scheme, record_stride) -> int:
    # a system's own gains, per member of a batch, or else those of its parameters
    gains = (system.p.k1, system.p.k2) if system.gains is None else system.gains
    for k1, k2 in members(*gains):
        check_run(t0, t1, dt, scheme, k1, k2)
    if record_stride < 1:
        raise ValueError("record_stride must be >= 1")
    cfl = system.cfl_limit()
    if dt > cfl:
        raise ValueError(
            f"dt={dt} violates the diffusion stability bound {cfl:.3e}; refuse to run")
    return int(math.floor((t1 - t0) / dt + 1e-9))


def simulate(system, t0: float, t1: float, dt: float, scheme: str = "euler",
             record_stride: int = 10, clamp: bool = True,
             truth_only: bool = False) -> Trajectory:
    """Advance truth and observer from ``t0`` to ``t1`` with fixed step ``dt``.

    Records every ``record_stride``-th step (plus the initial sample) and
    returns a :class:`Trajectory`.  ``clamp=False`` disables box clamping but
    still tracks (and enforces the limit on) pre-clamp overshoot.

    Raises ``ValueError`` on a run :func:`check_run` rejects or on an unstable
    diffusion step (CFL check), :class:`NonFiniteError` on a non-finite
    derivative or state, :class:`OvershootError` when the box is left by more
    than ``OVERSHOOT_LIMIT``.
    """
    n_steps = _validate_run(system, t0, t1, dt, scheme, record_stride)
    names = system.component_names
    if np.ndim(system.truth0) == 1:  # a handful of scalar components
        step, clamp_state, track = _FLOAT_STEPPERS[scheme], _clamp_floats, _track_floats
        as_state = _floats
        max_over = [0.0] * len(names)
    else:  # component axis first, then a member axis or the grid axes
        step, clamp_state, track = _STEPPERS[scheme], _clamp_array, _track_array
        as_state = np.asarray
        # one overshoot per component and member: the axes the bounds span
        spanned = np.ndim(system.truth_bounds[0])
        max_over = np.zeros((len(names), *np.shape(system.truth0)[1:spanned]))
    truth = as_state(system.truth0)
    obs = None if truth_only else as_state(system.observer0)
    t_lo, t_hi = (as_state(b) for b in system.truth_bounds)
    o_lo, o_hi = (as_state(b) for b in system.observer_bounds)
    truth_rhs, obs_rhs, measure = system.truth_rhs, system.observer_rhs, system.measure

    # records go straight into the output rows: a measurement has the shape
    # of the truth state, (v, rho, drho_dt) against (theta, v, rho)
    n_rec = n_steps // record_stride + 1
    times = np.empty(n_rec)
    truth_rec = np.empty((n_rec, *np.shape(truth)))
    # no observer reads the measurement of a truth-only run: none is taken
    obs_rec = None if truth_only else np.empty((n_rec, *np.shape(obs)))
    meas_rec = None if truth_only else np.empty_like(truth_rec)
    prev = None
    for k in range(n_steps + 1):
        t = t0 + k * dt
        if obs is not None:
            m = measure(t, truth, prev)
        if k % record_stride == 0:
            i = k // record_stride
            times[i] = t
            truth_rec[i] = truth
            if obs is not None:
                obs_rec[i] = obs
                meas_rec[i] = m
        if k == n_steps:
            break

        what = "truth"
        try:
            new_truth = step(truth_rhs, t, truth, dt)
            if obs is not None:
                what = "observer"
                new_obs = step(lambda tt, z: obs_rhs(tt, z, m), t, obs, dt)
        except NonFiniteError as exc:
            raise NonFiniteError(f"{exc} ({what})") from None
        prev = (t, truth)

        truth, over = clamp_state(new_truth, t_lo, t_hi, clamp)
        if obs is not None:
            obs, over_o = clamp_state(new_obs, o_lo, o_hi, clamp)
            over = (*over, *over_o)
        if track(max_over, over) > OVERSHOOT_LIMIT:
            peaks = [float(np.max(v)) for v in max_over]
            idx = peaks.index(max(peaks))
            raise OvershootError(
                f"component {names[idx]!r} overshot its box by "
                f"{peaks[idx]:.3e} (> {OVERSHOOT_LIMIT}) at t={t + dt}")

    return Trajectory(
        times=times,
        truth=truth_rec,
        observer=obs_rec,
        measurements=meas_rec,
        overshoot={name: v if np.ndim(v) else float(v) for name, v in zip(names, max_over)},
        meta={"scheme": scheme, "dt": dt, "t0": t0, "t1": t0 + n_steps * dt,
              "record_stride": record_stride, "clamp": clamp},
    )


def _clamp_array(state: np.ndarray, lo: np.ndarray, hi: np.ndarray, apply: bool):
    """Clamp a stacked state componentwise; return (state, overshoot per
    component and member), reduced over the axes the bounds do not span."""
    axes = tuple(range(lo.ndim, state.ndim))
    over = np.maximum(
        0.0,
        np.maximum(lo - state.min(axis=axes), state.max(axis=axes) - hi),
    )
    if apply and over.max() > 0.0:
        shape = lo.shape + (1,) * (state.ndim - lo.ndim)
        state = np.clip(state, lo.reshape(shape), hi.reshape(shape))
    return state, over


def _track_array(max_over: np.ndarray, over) -> float:
    """Fold one step's overshoot, of the truth's components alone in a
    truth-only run, into the run's maxima; return its worst."""
    over = np.array(over)
    seen = max_over[:len(over)]
    np.maximum(seen, over, out=seen)
    return over.max()


# ---------------------------------------------------------------------------
# float kernels: the same arithmetic on tuples of floats (within-host states)
# ---------------------------------------------------------------------------

def _floats(values) -> tuple:
    return tuple(float(x) for x in values)


def _euler_floats(rhs, t, state, dt):
    d = rhs(t, state)
    for x in d:
        if not math.isfinite(x):
            raise NonFiniteError(f"non-finite derivative at t={t}, component {d.index(x)}")
    return tuple(x + dt * dx for x, dx in zip(state, d))


def _rk4_floats(rhs, t, state, dt):
    k1 = rhs(t, state)
    k2 = rhs(t + 0.5 * dt, tuple(x + 0.5 * dt * dx for x, dx in zip(state, k1)))
    k3 = rhs(t + 0.5 * dt, tuple(x + 0.5 * dt * dx for x, dx in zip(state, k2)))
    k4 = rhs(t + dt, tuple(x + dt * dx for x, dx in zip(state, k3)))
    for stage in (k1, k2, k3, k4):
        for x in stage:
            if not math.isfinite(x):
                raise NonFiniteError(f"non-finite derivative at t={t}")
    return tuple(
        x + (dt / 6.0) * (a + 2.0 * b + 2.0 * c + d)
        for x, a, b, c, d in zip(state, k1, k2, k3, k4)
    )


_FLOAT_STEPPERS = {"euler": _euler_floats, "rk4": _rk4_floats}


def _clamp_floats(state, lo, hi, apply):
    over = tuple(max(0.0, l - x, x - h) for x, l, h in zip(state, lo, hi))
    if apply and max(over) > 0.0:
        state = tuple(min(max(x, l), h) for x, l, h in zip(state, lo, hi))
    return state, over


def _track_floats(max_over: list, over) -> float:
    worst = 0.0
    for i, ov in enumerate(over):
        if ov > max_over[i]:
            max_over[i] = ov
        if ov > worst:
            worst = ov
    return worst
