"""Finite-difference discretisation of the spatial disease model and observer.

The domain is the unit interval (1-D) or unit square (2-D) on a cell-centred
uniform grid; homogeneous Neumann (zero normal flux) boundaries are realised
by ghost-cell reflection, which is second-order accurate and conserves the
cell sum of the diffusion operator exactly (up to rounding).

Fields are plain numpy arrays of shape ``grid.shape``, carried in the
within-host state tuples of :mod:`anthobs.ode`.  The reaction terms are the
within-host forcings of :mod:`anthobs.forcing` evaluated per cell and scaled
by the spatial coefficient profiles; diffusion acts on the inhibition rate
(true and estimated) only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import forcing, ode
from .params import ParameterSet, SpatialParameterSet

__all__ = [
    "Grid",
    "SpatialCoefficients",
    "laplacian_neumann",
    "spatial_coefficients",
    "inhibition_forcing_field",
    "rot_rate",
    "spatial_model_rhs",
    "spatial_observer_rhs",
    "aggregate",
    "check_conditions_spatial",
]

#: Samples (records x cells) per block of the spatial condition diagnostics;
#: each block temporary takes 256 KiB.
BLOCK_SAMPLES = 2 ** 15


@dataclass(frozen=True)
class Grid:
    """Cell-centred uniform grid on the unit interval or square."""

    dim: int
    n: int

    def __post_init__(self) -> None:
        if self.dim not in (1, 2):
            raise ValueError(f"grid dim must be 1 or 2, got {self.dim}")
        if self.n < 2:
            raise ValueError(f"grid needs n >= 2 cells per axis, got {self.n}")

    @property
    def h(self) -> float:
        return 1.0 / self.n

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.dim

    def centers(self) -> np.ndarray:
        """Cell-centre coordinates, shape ``(*shape, dim)``."""
        axis = (np.arange(self.n) + 0.5) * self.h
        if self.dim == 1:
            return axis[:, None]
        gx, gy = np.meshgrid(axis, axis, indexing="ij")
        return np.stack([gx, gy], axis=-1)


def laplacian_neumann(f: np.ndarray, grid: Grid, diffusivity: float) -> np.ndarray:
    """``D * laplacian(f)`` with zero-flux (reflecting ghost cell) boundaries.

    Second-order central stencil; the cell sum of the output telescopes to
    zero, so diffusion conserves the field total exactly.
    """
    if f.shape != grid.shape:
        raise ValueError(f"field shape {f.shape} does not match grid {grid.shape}")
    inv_h2 = diffusivity / (grid.h * grid.h)
    if grid.dim == 1:
        out = np.empty_like(f)
        out[1:-1] = f[:-2] - 2.0 * f[1:-1] + f[2:]
        out[0] = f[1] - f[0]
        out[-1] = f[-2] - f[-1]
        return inv_h2 * out
    g = np.pad(f, 1, mode="edge")
    out = (
        g[:-2, 1:-1] + g[2:, 1:-1] + g[1:-1, :-2] + g[1:-1, 2:]
        - 4.0 * f
    )
    return inv_h2 * out


@dataclass(frozen=True)
class SpatialCoefficients:
    """Per-cell spatial profiles, fixed over a run.

    ``q1, q2, q3`` multiply the three forcings, ``u_space`` multiplies the
    control signal.  The ``uniform`` profile sets all four to 1, reducing
    every cell to the within-host dynamics.
    """

    q1: np.ndarray
    q2: np.ndarray
    q3: np.ndarray
    u_space: np.ndarray


def spatial_coefficients(grid: Grid, sp: SpatialParameterSet) -> SpatialCoefficients:
    """Evaluate the spatial coefficient profiles on the grid cells."""
    if sp.spatial_profile == "uniform":
        one = np.ones(grid.shape)
        return SpatialCoefficients(one, one.copy(), one.copy(), one.copy())
    pts = grid.centers()
    m0 = forcing.anisotropy_matrix(sp.base.seed, grid.dim, sp.anisotropy_scale)
    u_space = np.sin(forcing.radial_squared(pts, m0, sp.center(0, grid.dim))) ** 2
    qs = [forcing.spatial_weight(pts, i, sp, grid.dim) for i in (1, 2, 3)]
    return SpatialCoefficients(qs[0], qs[1], qs[2], u_space)


def inhibition_forcing_field(t: forcing.Value, coef: SpatialCoefficients,
                             p: ParameterSet) -> np.ndarray:
    """Inhibition forcing ``alpha(t, x) = p1(t) + q1(x)*b1*(1 - cos(c1*t))*(t - d1)^2``."""
    return forcing.baseline_forcing(t, p) + coef.q1 * forcing.seasonal(t, p.b1, p.c1, p.d1)


def _weight_field(t: forcing.Value, coef: SpatialCoefficients, p: ParameterSet) -> np.ndarray:
    u = coef.u_space * forcing.control(t, p)
    den = 1.0 - p.sigma * u
    bad = den <= 0.0
    if np.any(bad):
        raise ValueError(f"sigma*u(t,x) >= 1 somewhere at t={forcing.first_offender(bad, t)[0]}")
    return 1.0 / den


def rot_rate(t: forcing.Value, s: ode.ModelState, coef: SpatialCoefficients,
             p: ParameterSet) -> np.ndarray:
    """Rot-proportion rate field ``q3 * rot_forcing * (1 - rho)``."""
    return coef.q3 * forcing.rot_forcing(t, s.theta, s.v, s.rho, p) * (1.0 - s.rho)


def spatial_model_rhs(t: float, s: ode.ModelState, grid: Grid, sp: SpatialParameterSet,
                      coef: SpatialCoefficients):
    """Field derivatives ``(dtheta, dv, drho)`` of the spatial model.

    The inhibition rate diffuses; volume and rot proportion are pointwise.
    """
    p = sp.base
    cap = 1.0 + p.epsilon - s.theta
    if np.any(cap <= 0.0):
        raise ValueError(f"volume capacity 1+epsilon-theta <= 0 somewhere at t={t}")
    alpha = inhibition_forcing_field(t, coef, p)
    w = _weight_field(t, coef, p)
    dtheta = alpha * (1.0 - w * s.theta) + laplacian_neumann(s.theta, grid, sp.diffusivity)
    dv = coef.q2 * forcing.growth_forcing(t, s.theta, p) * (
        1.0 - s.v / (forcing.volume_capacity(t, p) * p.v_max * cap))
    return dtheta, dv, rot_rate(t, s, coef, p)


def spatial_observer_rhs(t: float, o: ode.ObserverState, m: ode.Measurement, grid: Grid,
                         sp: SpatialParameterSet, coef: SpatialCoefficients):
    """Field derivatives ``(dtheta_hat, dv_hat)`` of the spatial observer.

    Reads only its own state ``o`` and the measured fields ``m``.  The
    estimate diffuses like the true inhibition rate; corrections act
    pointwise with the spatially constant gains ``k1, k2`` of ``sp.base``.
    """
    p = sp.base
    predicted = rot_rate(t, ode.ModelState(o.theta_hat, m.v, m.rho), coef, p)
    dtheta = (
        inhibition_forcing_field(t, coef, p) * (1.0 - _weight_field(t, coef, p) * o.theta_hat)
        + p.k1 * ode.phi1_field(o.theta_hat, o.v_hat, m.v, p.epsilon)
        + p.k2 * ode.phi2_field(o.theta_hat, m.drho_dt, predicted)
        + laplacian_neumann(o.theta_hat, grid, sp.diffusivity)
    )
    dv = coef.q2 * forcing.growth_forcing(t, o.theta_hat, p) * ode.growth_saturation(
        t, o.theta_hat, o.v_hat, p)
    return dtheta, dv


def aggregate(f: np.ndarray) -> tuple[float, float, float]:
    """Spatial ``(min, mean, max)`` of a field."""
    if f.size == 0:
        raise ValueError("empty field")
    return float(np.min(f)), float(np.mean(f)), float(np.max(f))


# ---------------------------------------------------------------------------
# convergence-condition diagnostics (spatial)
# ---------------------------------------------------------------------------

def check_conditions_spatial(traj, sp: SpatialParameterSet, coef: SpatialCoefficients,
                             sensitivity: np.ndarray | None = None) -> ode.ConditionReport:
    """Evaluate the convergence diagnostics over every (time, cell) sample.

    With ``k1 > 0`` the stability factor is ``R = (v + (1+epsilon-theta)*S)/v``
    where ``S = sensitivity[i]`` is ``d v / d theta(0)`` at record ``i``, from
    paired truth runs; cells with ``v`` below tolerance are excluded and
    counted.  Without ``sensitivity`` the stability infima are ``None``.
    Each forcing is called once per block of ``BLOCK_SAMPLES`` samples, on the
    block's times shaped to broadcast against its fields.
    """
    p = sp.base
    if len(traj.times) == 0:
        raise ValueError("empty trajectory")
    notes: list[str] = []
    if p.k1 > 0.0 and sensitivity is None:
        notes.append(
            "stability expressions skipped: k1 > 0 needs the paired-run"
            " volume sensitivity estimate")
    block = max(1, BLOCK_SAMPLES // traj.truth[0, 0].size)

    def batches():
        for lo in range(0, len(traj.times), block):
            rec = slice(lo, lo + block)
            t = traj.times[rec].reshape(-1, *(1,) * (traj.truth.ndim - 2))
            theta, v, _ = np.moveaxis(traj.truth[rec], 1, 0)
            o = ode.ObserverState(*np.moveaxis(traj.observer[rec], 1, 0))
            m = ode.Measurement(*np.moveaxis(traj.measurements[rec], 1, 0))
            ratio, excluded = None, False
            if p.k1 > 0.0 and sensitivity is not None:
                excluded = v < ode.SINGULAR_TOL
                ratio = (v + (1.0 + p.epsilon - theta) * sensitivity[rec]) / np.where(excluded, 1.0, v)
            yield (t, inhibition_forcing_field(t, coef, p), _weight_field(t, coef, p), theta,
                   coef.q3 * forcing.rot_forcing(t, theta, m.v, m.rho, p),
                   coef.q3 * forcing.rot_forcing(t, o.theta_hat, m.v, m.rho, p),
                   o, m, ratio, excluded)

    return ode.condition_report(batches(), p, notes)
