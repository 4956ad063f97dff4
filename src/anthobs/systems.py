"""Coupled truth+observer systems consumed by :func:`anthobs.stepping.simulate`.

A system bundles initial states, invariant boxes, right-hand sides and
measurement synthesis behind one interface: ``truth_rhs(t, y)``,
``observer_rhs(t, z, m)`` and ``measure(t, y, prev)``.  Both systems call the
same right-hand sides and measurement of :mod:`anthobs.ode` with their
coefficient profiles ``coef``: the unit profile on tuples of floats for the
within-host system; the grid profiles on fields for the spatial system, which
adds diffusion to the inhibition rate and stacks the components, component
axis first, then the grid axes.  The integrator reads the kind from the
initial state and drives both models with the same loop.

A within-host system also takes a batch: equal-length arrays of initial
values and gains, one entry per member.  Its states are then arrays with
the component axis first and the member axis second, stepped by the
integrator's array kernels through the same right-hand sides, and its box
bounds span the member axis, so each member keeps its own overshoot.
"""

from __future__ import annotations

import numpy as np

from . import ode, pde
from .params import ParameterSet, SpatialParameterSet
from .stepping import cfl_step_limit, members

__all__ = ["WithinHostSystem", "SpatialSystem", "MEASUREMENT_MODES", "check_inputs",
           "state_box"]

MEASUREMENT_MODES = ("exact", "finite_difference")

#: Order of stacked components across truth then observer state.
COMPONENTS = ("theta", "v", "rho", "theta_hat", "v_hat")


def state_box(p: ParameterSet) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper corners of the invariant box, in ``COMPONENTS`` order:
    the truth state (first three) then the observer state."""
    return np.zeros(5), np.array([1.0, p.v_max, 1.0, 1.0, p.v_max])


def check_inputs(p: ParameterSet, theta0: float, v0: float, rho0: float,
                 measurement_mode: str) -> None:
    """Reject an unknown measurement mode or an initial state outside the box."""
    if measurement_mode not in MEASUREMENT_MODES:
        raise ValueError(f"unknown measurement mode {measurement_mode!r}")
    for name, x, lo, hi in zip(("theta0", "v0", "rho0"), (theta0, v0, rho0), *state_box(p)):
        if not lo <= x <= hi:
            raise ValueError(f"initial state {name}={x} outside [{lo:g}, {hi:g}]")


def _measure(system, t: float, y, prev) -> ode.Measurement:
    """The measured stream of ``system`` at ``t``: exact, or a backward quotient
    over ``prev = (t_prev, y_prev)`` after the first step of a differencing sensor."""
    s = ode.ModelState(*y)
    if system.measurement_mode == "finite_difference" and prev is not None:
        t_prev, y_prev = prev
        return ode.make_measurement(
            t, s, "finite_difference", (ode.ModelState(*y_prev), t_prev))
    return ode.make_measurement(t, s, "exact", p=system.p, coef=system.coef)


class WithinHostSystem:
    """Within-host model coupled to its observer.

    Truth state is ``(theta, v, rho)``; observer state is
    ``(theta_hat, v_hat)`` with the fixed initialisation ``theta_hat(0) = 0``
    and ``v_hat(0) = v(0)`` assumed by the convergence analysis.

    ``theta0``, ``v0`` and ``rho0`` are floats for one run, or equal-length
    sequences for a batch; a batch takes its observer gains per member as
    ``gains = (k1, k2)``, two arrays.  ``gains = None`` reads ``p.k1`` and ``p.k2``.
    """

    component_names = COMPONENTS
    coef = ode.UNIT

    def __init__(self, p: ParameterSet, theta0, v0, rho0,
                 measurement_mode: str = "exact", gains=None):
        for member in members(theta0, v0, rho0):
            check_inputs(p, *member, measurement_mode)
        self.p = p
        self.gains = gains
        self.measurement_mode = measurement_mode
        self.truth0 = np.array([theta0, v0, rho0])
        self.observer0 = np.array([np.zeros_like(self.truth0[1]), self.truth0[1]])
        lo, hi = state_box(p)
        if self.truth0.ndim > 1:  # span the member axis: each member keeps its overshoot
            lo, hi = lo[:, None], hi[:, None]
        self.truth_bounds, self.observer_bounds = (lo[:3], hi[:3]), (lo[3:], hi[3:])

    def cfl_limit(self):
        return None

    # states and measurements are tuples of floats, or of member arrays

    def truth_rhs(self, t: float, y: tuple) -> tuple:
        return ode.model_rhs(t, ode.ModelState(*y), self.p, self.coef)

    def measure(self, t: float, y: tuple, prev) -> ode.Measurement:
        # a name of its own: benchmarks/tracing.py counts measurements by patching it
        return self.measure_scalar(t, y, prev)

    measure_scalar = _measure

    def observer_rhs(self, t: float, z: tuple, m: tuple) -> tuple:
        return ode.observer_rhs(
            t, ode.ObserverState(*z), ode.Measurement(*m), self.p, self.coef, self.gains)


class SpatialSystem:
    """Spatial reaction-diffusion model coupled to its spatial observer.

    Initial fields are spatially constant (which satisfies the zero-flux
    boundary exactly); spatial coefficient profiles are precomputed once.
    """

    component_names = COMPONENTS
    gains = None

    def __init__(self, sp: SpatialParameterSet, grid: pde.Grid,
                 theta0: float, v0: float, rho0: float,
                 measurement_mode: str = "exact"):
        p = sp.base
        check_inputs(p, theta0, v0, rho0, measurement_mode)
        self.sp = sp
        self.p = p
        self.grid = grid
        self.measurement_mode = measurement_mode
        self.coef = pde.spatial_coefficients(grid, sp)
        shape = grid.shape
        self.truth0 = np.stack([
            np.full(shape, theta0), np.full(shape, v0), np.full(shape, rho0)])
        self.observer0 = np.stack([np.zeros(shape), np.full(shape, v0)])
        lo, hi = state_box(p)
        self.truth_bounds, self.observer_bounds = (lo[:3], hi[:3]), (lo[3:], hi[3:])

    def cfl_limit(self) -> float:
        return cfl_step_limit(self.grid.h, self.grid.dim, self.sp.diffusivity)

    def truth_rhs(self, t: float, y: np.ndarray) -> np.ndarray:
        dtheta, dv, drho = ode.model_rhs(t, ode.ModelState(*y), self.p, self.coef)
        return np.stack([dtheta + pde.laplacian_neumann(y[0], self.grid, self.sp.diffusivity),
                         dv, drho])

    def measure(self, t: float, y: np.ndarray, prev) -> np.ndarray:
        return np.stack(_measure(self, t, y, prev))

    def observer_rhs(self, t: float, z: np.ndarray, m: np.ndarray) -> np.ndarray:
        dtheta, dv = ode.observer_rhs(
            t, ode.ObserverState(*z), ode.Measurement(*m), self.p, self.coef)
        return np.stack([dtheta + pde.laplacian_neumann(z[0], self.grid, self.sp.diffusivity),
                         dv])
