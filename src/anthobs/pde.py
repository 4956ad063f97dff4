"""Finite-difference discretisation of the spatial disease model and observer.

The domain is the unit interval (1-D) or unit square (2-D) on a cell-centred
uniform grid; homogeneous Neumann (zero normal flux) boundaries are realised
by ghost-cell reflection, which is second-order accurate and conserves the
cell sum of the diffusion operator exactly (up to rounding).

Fields are plain numpy arrays of shape ``grid.shape``, carried in the state
tuples of :mod:`anthobs.ode`.  This module holds only what is spatial: the
grid, the diffusion operator, the coefficient profiles and the diagnostics
over (time, cell) samples.  The reaction terms are the right-hand sides of
:mod:`anthobs.ode` evaluated on fields with these profiles; the spatial system
adds diffusion to the inhibition rate (true and estimated) only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import forcing, ode
from .ode import SpatialCoefficients
from .params import ParameterSet, SpatialParameterSet

__all__ = [
    "Grid",
    "laplacian_neumann",
    "spatial_coefficients",
    "aggregate",
    "check_conditions_spatial",
    "condition_batches",
    "block_records",
]

#: Samples (records x cells) per block of the spatial condition diagnostics,
#: and per member in a block of the records a run hands to the runner; each
#: block temporary takes 64 KiB.
BLOCK_SAMPLES = 2 ** 13


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
        return np.stack(np.meshgrid(*[axis] * self.dim, indexing="ij"), axis=-1)


def laplacian_neumann(f: np.ndarray, grid: Grid, diffusivity: float) -> np.ndarray:
    """``D * laplacian(f)`` with zero-flux (reflecting ghost cell) boundaries.

    Second-order central stencil; the cell sum of the output telescopes to
    zero, so diffusion conserves the field total exactly.  The stencil acts
    on the last ``grid.dim`` axes of ``f``; leading axes (such as the member
    axis of a batch) hold independent fields, each given what it alone would be.
    """
    if f.shape[f.ndim - grid.dim:] != grid.shape:
        raise ValueError(f"field shape {f.shape} does not match grid {grid.shape}")
    inv_h2 = diffusivity / (grid.h * grid.h)
    if grid.dim == 1:
        out = np.empty_like(f)
        out[..., 1:-1] = f[..., :-2] - 2.0 * f[..., 1:-1] + f[..., 2:]
        out[..., 0] = f[..., 1] - f[..., 0]
        out[..., -1] = f[..., -2] - f[..., -1]
        return inv_h2 * out
    # ghost cells repeat the edge values (the corners are never read)
    g = np.empty(f.shape[:-2] + (grid.n + 2, grid.n + 2))
    g[..., 1:-1, 1:-1] = f
    g[..., 0, 1:-1], g[..., -1, 1:-1] = f[..., 0, :], f[..., -1, :]
    g[..., 1:-1, 0], g[..., 1:-1, -1] = f[..., :, 0], f[..., :, -1]
    out = (
        g[..., :-2, 1:-1] + g[..., 2:, 1:-1] + g[..., 1:-1, :-2] + g[..., 1:-1, 2:]
        - 4.0 * f
    )
    return inv_h2 * out


def spatial_coefficients(grid: Grid, sp: SpatialParameterSet) -> SpatialCoefficients:
    """Evaluate the spatial coefficient profiles on the grid cells; the ``uniform``
    profile sets all four to 1, reducing every cell to the within-host dynamics."""
    if sp.spatial_profile == "uniform":
        one = np.ones(grid.shape)
        return SpatialCoefficients(one, one.copy(), one.copy(), one.copy())
    pts = grid.centers()
    m0 = forcing.anisotropy_matrix(sp.base.seed, grid.dim, sp.anisotropy_scale)
    u_space = np.sin(forcing.radial_squared(pts, m0, sp.center(0, grid.dim))) ** 2
    qs = [forcing.spatial_weight(pts, i, sp, grid.dim) for i in (1, 2, 3)]
    return SpatialCoefficients(qs[0], qs[1], qs[2], u_space)


def block_records(cells: int) -> int:
    """Records per block of ``BLOCK_SAMPLES`` samples of fields of ``cells`` cells."""
    return max(1, BLOCK_SAMPLES // cells)


def aggregate(f: np.ndarray, axes: tuple[int, ...] | None = None) -> tuple:
    """Spatial ``(min, mean, max)`` of ``f`` over ``axes``, by default of the
    whole field; ``ValueError`` when a reduction has no element."""
    return f.min(axis=axes), f.mean(axis=axes), f.max(axis=axes)


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
    The samples are folded in the blocks of :func:`condition_batches`.
    """
    p = sp.base
    if len(traj.times) == 0:
        raise ValueError("empty trajectory")
    notes: list[str] = []
    if p.k1 > 0.0 and sensitivity is None:
        notes.append(
            "stability expressions skipped: k1 > 0 needs the paired-run"
            " volume sensitivity estimate")
    return ode.condition_report(condition_batches(traj, p, sensitivity), p, notes, coef)


def condition_batches(traj, p: ParameterSet, sensitivity: np.ndarray | None = None):
    """The batches of :class:`ode.ConditionFold` for the records of ``traj``,
    :func:`block_records` of them at a time.  ``traj`` holds a block of
    records of one run, or all of them, and ``sensitivity`` is aligned with
    it: one field per record of ``traj``.  Each forcing is called once per
    batch, on the batch's times shaped to broadcast against its fields."""
    block = block_records(traj.truth[0, 0].size)
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
        yield t, theta, o, m, ratio, excluded
