"""Coupled truth+observer systems consumed by :func:`anthobs.stepping.simulate`.

A system bundles initial states, invariant boxes, right-hand sides,
measurement synthesis and a CFL limit behind one interface, written once:
the within-host model is the spatial model with unit profiles and no grid.
:class:`WithinHostSystem` calls the right-hand sides and measurement of
:mod:`anthobs.ode` with ``ode.UNIT`` on tuples of floats; its CFL limit is
unbounded.  :class:`SpatialSystem` only supplies a grid, its profiles and a
diffusivity: its states are spatially constant fields, component axis
first, and its right-hand sides add diffusion to the rates of ``theta`` and
``theta_hat``.

Either system also takes a batch: equal-length arrays of initial values
and gains, one entry per member.  Its states are then arrays with the
component axis first and the member axis second (then the grid axes), and
its box bounds span the member axis, so each member keeps its own overshoot.
"""

from __future__ import annotations

import math

import numpy as np

from . import ode, pde
from .params import ParameterSet, SpatialParameterSet, admit
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


def check_inputs(p: ParameterSet, theta0, v0, rho0, measurement_mode: str) -> None:
    """Reject an unknown measurement mode or an initial state outside the box of
    one run or of any batch member.  The set ``p`` is admitted once, before,
    by :func:`anthobs.params.admit`, as every run and the loader admit it."""
    if measurement_mode not in MEASUREMENT_MODES:
        raise ValueError(f"unknown measurement mode {measurement_mode!r}")
    for member in members(theta0, v0, rho0):
        for name, x, lo, hi in zip(("theta0", "v0", "rho0"), member, *state_box(p)):
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
    """Within-host model coupled to its observer; the body of both systems.

    Truth state is ``(theta, v, rho)``; observer state is
    ``(theta_hat, v_hat)`` with the fixed initialisation ``theta_hat(0) = 0``
    and ``v_hat(0) = v(0)`` assumed by the convergence analysis.

    ``theta0``, ``v0`` and ``rho0`` are floats for one run, or equal-length
    sequences for a batch; a batch takes its observer gains per member as
    ``gains = (k1, k2)``, two arrays.  ``gains = None`` reads ``p.k1`` and ``p.k2``.
    ``gains`` stays flat, one entry per member, as :func:`stepping.check_run`
    takes them; on a grid the observer reads them with a unit axis per grid axis.
    """

    component_names = COMPONENTS
    grid = sp = None
    coef = ode.UNIT

    def __init__(self, p: ParameterSet, theta0, v0, rho0,
                 measurement_mode: str = "exact", gains=None):
        admit(self.sp or p)  # refused with the loader's text; a spatial set with its keys
        check_inputs(p, theta0, v0, rho0, measurement_mode)
        self.p = p
        self.gains = gains
        self.measurement_mode = measurement_mode
        self.truth0 = np.array([theta0, v0, rho0], dtype=float)
        self.observer0 = np.array([np.zeros_like(self.truth0[1]), self.truth0[1]])
        lo, hi = state_box(p)
        if self.truth0.ndim > 1:  # span the member axis: each member keeps its overshoot
            lo, hi = lo[:, None], hi[:, None]
        self.truth_bounds, self.observer_bounds = (lo[:3], hi[:3]), (lo[3:], hi[3:])
        self._point_gains = gains
        if self.grid is not None:  # constant fields satisfy the zero-flux boundary
            on_grid = lambda a: a.reshape(a.shape + (1,) * self.grid.dim)
            self.truth0, self.observer0 = (np.full(a.shape + self.grid.shape, on_grid(a))
                                           for a in (self.truth0, self.observer0))
            if gains is not None:
                self._point_gains = tuple(on_grid(np.asarray(k, dtype=float)) for k in gains)

    def cfl_limit(self) -> float:
        if self.grid is None:
            return math.inf
        return cfl_step_limit(self.grid.h, self.grid.dim, self.diffusivity)

    def block_records(self) -> int:
        """Records per block that :func:`stepping.simulate` hands to a block
        consumer: ``pde.BLOCK_SAMPLES`` samples of a point or a field."""
        return pde.block_records(1 if self.grid is None else math.prod(self.grid.shape))

    # states and measurements are tuples of floats, of member arrays or of fields

    def truth_rhs(self, t: float, y):
        return self._diffused(ode.model_rhs(t, ode.ModelState(*y), self.p, self.coef), y[0])

    def measure(self, t: float, y, prev) -> ode.Measurement:
        # a name of its own: benchmarks/tracing.py counts measurements by patching it
        return self.measure_scalar(t, y, prev)

    measure_scalar = _measure

    def observer_rhs(self, t: float, z, m):
        rates = ode.observer_rhs(
            t, ode.ObserverState(*z), ode.Measurement(*m), self.p, self.coef, self._point_gains)
        return self._diffused(rates, z[0])

    def _diffused(self, rates: tuple, theta):
        """``rates``, with diffusion of ``theta`` added to the first on a grid."""
        if self.grid is None:
            return rates
        return (rates[0] + pde.laplacian_neumann(theta, self.grid, self.diffusivity),
                *rates[1:])


class SpatialSystem(WithinHostSystem):
    """Spatial reaction-diffusion model coupled to its spatial observer: the
    coupled system on the grid of ``grid``, with the coefficient profiles of
    ``sp`` (precomputed once) and its diffusivity; a batch as for the
    within-host system."""

    def __init__(self, sp: SpatialParameterSet, grid: pde.Grid, theta0, v0, rho0,
                 measurement_mode: str = "exact", gains=None):
        self.sp = sp
        self.grid = grid
        self.diffusivity = sp.diffusivity
        super().__init__(sp.base, theta0, v0, rho0, measurement_mode, gains)
        self.coef = pde.spatial_coefficients(grid, sp)

    def measure(self, t: float, y: np.ndarray, prev) -> ode.Measurement:
        # not through measure_scalar, which benchmarks/tracing.py counts too
        return _measure(self, t, y, prev)
