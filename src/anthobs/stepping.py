"""Fixed-step explicit time integration with recording and box clamping.

``simulate`` advances a coupled truth+observer system as one state: the
truth's components, then the observer's.  At each step the measurement is
synthesised from the current true state, then one step of the coupled
right-hand side advances both, the observer holding that measurement over
the step.  The observer therefore only ever sees truth data from the
current or earlier steps.  A truth-only run's state is the truth alone.

After every step, one clamp kernel clamps the state to its invariant box
and folds the pre-clamp overshoot into the run's maxima; any overshoot
beyond ``OVERSHOOT_LIMIT`` aborts the run, since the continuous dynamics
cannot leave the box and a larger excursion signals an unstable step size.

One loop serves both models through the one system of :mod:`anthobs.systems`
(the spatial system is the within-host system on grid profiles, plus
diffusion); the kind of the initial state picks its step and clamp kernels
once per run.  A lone within-host run (a 1-D initial state) runs on tuples
of floats; a field system, or a batch of within-host runs, on numpy arrays
with the component axis first.  The two kernel kinds perform identical IEEE
arithmetic, so member ``j`` of a batch records what the lone run of member
``j`` records, bit for bit; the test suite cross-checks them.  Recorded
samples are written straight into one preallocated buffer, of which the
trajectory's truth and observer are views.

The loop is one generator, :func:`record_blocks`: its buffer holds one
block of the system's ``block_records()`` records, which it yields as a
:class:`Trajectory` each time it is full (and at the last record) before
reusing it, so a run's memory does not grow with its span.  Two runs of one
span, step, record stride and grid cut their blocks at the same records, so
they can be stepped in lockstep.  :func:`simulate` drains it into a block
consumer ``on_block``, or holds the whole run in one block.  Every run of the
runner, of either model, folds each block into its CSV rows and diagnostics.

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
    "record_blocks",
    "check_run",
    "step_count",
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
    """A derivative became NaN or infinite; ``component`` indexes its first
    non-finite entry, and :func:`simulate` names the part of the state holding it."""

    def __init__(self, message: str, component: tuple = ()):
        super().__init__(message)
        self.component = component


class OvershootError(RuntimeError):
    """A state component left its invariant box by more than the tolerance."""


def _require_finite(d: np.ndarray, t: float, what: str) -> None:
    if math.isfinite(float(d.sum())):
        return
    if not np.all(np.isfinite(d)):
        idx = tuple(int(i) for i in np.argwhere(~np.isfinite(d))[0])
        raise NonFiniteError(f"non-finite {what} at t={t}, component {idx}", idx)


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
    truth-only runs (:func:`record_blocks`).  ``overshoot`` maps each component
    to the largest pre-clamp excursion outside the box seen in the run.  A batch
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


def step_count(t0: float, t1: float, dt: float) -> int:
    """Steps of ``dt`` that a run takes from ``t0`` to ``t1``."""
    return int(math.floor((t1 - t0) / dt + 1e-9))


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
    return step_count(t0, t1, dt)


def simulate(system, t0: float, t1: float, dt: float, scheme: str = "euler",
             record_stride: int = 10, on_block=None) -> Trajectory:
    """Advance truth and observer from ``t0`` to ``t1`` with fixed step ``dt``.

    Records every ``record_stride``-th step (plus the initial sample) and
    returns a :class:`Trajectory`.  Every step ends clamped to the box.  With
    a block consumer ``on_block``, each block of :func:`record_blocks` is
    passed to it as a :class:`Trajectory` (valid until the call returns), and
    the returned trajectory holds the records of the last block only.

    Raises ``ValueError`` on a run :func:`check_run` rejects or on an unstable
    diffusion step (CFL check), :class:`NonFiniteError` on a non-finite
    derivative or state, :class:`OvershootError` when the box is left by more
    than ``OVERSHOOT_LIMIT``.
    """
    blocks = record_blocks(system, t0, t1, dt, scheme, record_stride, whole=on_block is None)
    while True:
        try:
            block = next(blocks)
        except StopIteration as done:
            return done.value
        if on_block is not None:
            on_block(block)


def record_blocks(system, t0: float, t1: float, dt: float, scheme: str = "euler",
                  record_stride: int = 10, truth_only: bool = False, whole: bool = False):
    """The run of :func:`simulate` as a generator: yields each block of records
    (the whole run as one when ``whole``) as a :class:`Trajectory` valid until
    it resumes, and returns the last block with the run's overshoot and meta.
    It checks and steps nothing before the first block is taken."""
    n_steps = _validate_run(system, t0, t1, dt, scheme, record_stride)
    names = system.component_names
    if np.ndim(system.truth0) == 1:  # a handful of scalar components
        step, clamp_state, as_state = _FLOAT_STEPPERS[scheme], _clamp_floats, _floats
    else:  # component axis first, then a member axis or the grid axes
        step, clamp_state, as_state = _STEPPERS[scheme], _clamp_array, np.asarray
    # the coupled state, initial and box bounds: the truth's, then the observer's
    state, lo, hi = (as_state(np.concatenate(parts[:1] if truth_only else parts))
                     for parts in zip((system.truth0, *system.truth_bounds),
                                      (system.observer0, *system.observer_bounds)))
    # one overshoot per component and member: the axes the bounds span
    max_over = np.zeros(np.shape(state)[:np.ndim(lo)])
    if isinstance(state, tuple):
        max_over = max_over.tolist()
    truth_rhs, obs_rhs, measure = system.truth_rhs, system.observer_rhs, system.measure
    # the observer holds the step's measurement m over the step
    rhs = truth_rhs if truth_only else lambda t, x: (*truth_rhs(t, x[:3]), *obs_rhs(t, x[3:], m))

    # records go straight into one buffer; a measurement has the shape of the
    # truth state, (v, rho, drho_dt) against (theta, v, rho)
    n_rec = n_steps // record_stride + 1
    size = n_rec if whole else min(n_rec, system.block_records())
    times = np.empty(size)
    rec = np.empty((size, *np.shape(state)))
    # no observer reads the measurement of a truth-only run: none is taken
    meas_rec = None if truth_only else np.empty((size, 3, *np.shape(state)[1:]))
    # the records of the buffer up to the latest, which is its record i
    records = lambda overshoot, **meta: Trajectory(
        times[:i + 1], rec[:i + 1, :3], None if truth_only else rec[:i + 1, 3:],
        None if truth_only else meas_rec[:i + 1], overshoot, meta)
    prev = None
    for k in range(n_steps + 1):
        t = t0 + k * dt
        if not truth_only:
            m = measure(t, state[:3], prev)
        if k % record_stride == 0:
            r = k // record_stride
            i = r % size
            times[i] = t
            rec[i] = state
            if not truth_only:
                meas_rec[i] = m
            if i == size - 1 or r == n_rec - 1:
                yield records({})
        if k == n_steps:
            break

        try:
            new_state = step(rhs, t, state, dt)
        except NonFiniteError as exc:
            part = "truth" if exc.component[0] < 3 else "observer"
            raise NonFiniteError(f"{exc} ({part})") from None
        prev = (t, state[:3])

        state, worst = clamp_state(new_state, lo, hi, max_over)
        if worst > OVERSHOOT_LIMIT:
            peaks = [float(np.max(v)) for v in max_over]
            idx = peaks.index(max(peaks))
            raise OvershootError(
                f"component {names[idx]!r} overshot its box by "
                f"{peaks[idx]:.3e} (> {OVERSHOOT_LIMIT}) at t={t + dt}")

    return records(
        {name: v if np.ndim(v) else float(v) for name, v in zip(names, max_over)},
        scheme=scheme, dt=dt, t0=t0, t1=t0 + n_steps * dt, record_stride=record_stride)


def _clamp_array(state: np.ndarray, lo: np.ndarray, hi: np.ndarray, max_over: np.ndarray):
    """Clamp a stacked state componentwise and fold its overshoot per component
    and member, reduced over the axes the bounds do not span, into the run's
    maxima ``max_over``; return (state, the step's worst overshoot)."""
    axes = tuple(range(lo.ndim, state.ndim))
    over = np.maximum(0.0, np.maximum(lo - state.min(axis=axes), state.max(axis=axes) - hi))
    worst = over.max()
    if worst > 0.0:  # else no maximum grows
        np.maximum(max_over, over, out=max_over)
        shape = lo.shape + (1,) * (state.ndim - lo.ndim)
        state = np.clip(state, lo.reshape(shape), hi.reshape(shape))
    return state, worst


# ---------------------------------------------------------------------------
# float kernels: the same arithmetic on tuples of floats (within-host states)
# ---------------------------------------------------------------------------

def _floats(values) -> tuple:
    return tuple(float(x) for x in values)


def _euler_floats(rhs, t, state, dt):
    d = rhs(t, state)
    if not math.isfinite(sum(d)):
        _require_finite(np.array(d), t, "derivative")
    return tuple(x + dt * dx for x, dx in zip(state, d))


def _rk4_floats(rhs, t, state, dt):
    k1 = rhs(t, state)
    k2 = rhs(t + 0.5 * dt, tuple(x + 0.5 * dt * dx for x, dx in zip(state, k1)))
    k3 = rhs(t + 0.5 * dt, tuple(x + 0.5 * dt * dx for x, dx in zip(state, k2)))
    k4 = rhs(t + dt, tuple(x + dt * dx for x, dx in zip(state, k3)))
    for stage in (k1, k2, k3, k4):
        if not math.isfinite(sum(stage)):
            _require_finite(np.array(stage), t, "derivative")
    return tuple(
        x + (dt / 6.0) * (a + 2.0 * b + 2.0 * c + d)
        for x, a, b, c, d in zip(state, k1, k2, k3, k4)
    )


_FLOAT_STEPPERS = {"euler": _euler_floats, "rk4": _rk4_floats}


def _clamp_floats(state, lo, hi, max_over: list):
    over = [max(0.0, l - x, x - h) for x, l, h in zip(state, lo, hi)]
    worst = max(over)
    if worst > 0.0:
        max_over[:] = map(max, max_over, over)
        state = tuple(min(max(x, l), h) for x, l, h in zip(state, lo, hi))
    return state, worst
