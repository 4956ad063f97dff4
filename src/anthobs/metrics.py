"""Error measures, analytic convergence envelopes and decay-rate estimation.

The observer analysis yields two closed-form bounds which double as test
oracles: the exact error law of the gain-free observer,
``e(t) = exp(-int_0^t alpha*w) * e(0)``, and the squared-error envelope
``e^2(t) <= exp(-int_0^t alpha*w) * e^2(0)`` when only the rot-innovation
gain is active.  Envelope integrals are evaluated by the composite Simpson
rule, written once in numpy (:func:`_simpson`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import forcing, pde
from .params import ParameterSet

__all__ = [
    "ErrorSeries",
    "relative_abs_error",
    "error_series_ode",
    "error_series_pde",
    "analytic_envelope",
    "envelope_series",
    "l2_envelope",
    "fit_decay_rate",
    "DecayFit",
    "envelope_check",
    "EnvelopeCheck",
    "REL_ERR_FLOOR",
    "ENVELOPE_TOL",
]

#: Floor in the relative-error denominator (the estimate starts at 0 while
#: early-season inhibition is near 0, so a bare |theta| denominator blows up).
REL_ERR_FLOOR = 1e-3

#: Default envelope slack, absorbing the explicit-Euler global error at the
#: reference step 1e-4.
ENVELOPE_TOL = 1e-3

#: Widest Simpson sub-interval of :func:`envelope_series`, for the 1e-9 relative
#: accuracy against :func:`analytic_envelope` that the tests pin: a study record
#: interval, 1e-3 plus rounding, takes 6 and deviates by at most 4.2e-10 in the
#: year; 4 would deviate by 2.1e-9 at the control weight's peaks near t = 0.28.
ENVELOPE_STEP = 1.7e-4
#: Most Simpson nodes :func:`envelope_series` evaluates at once; it refuses
#: an interval that needs more.
ENVELOPE_NODES = 2 ** 16


def relative_abs_error(theta, theta_hat, floor: float = REL_ERR_FLOOR):
    """Floored relative error ``|theta - theta_hat| / max(|theta|, floor)``.

    Works elementwise on arrays.  ``floor`` must be positive.
    """
    if floor <= 0.0:
        raise ValueError(f"floor={floor} must be > 0")
    return np.abs(theta - theta_hat) / np.maximum(np.abs(theta), floor)


@dataclass
class ErrorSeries:
    """Per-time estimation errors; spatial runs carry (min, mean, max) triples
    and the L2 norm of the error field."""

    times: np.ndarray
    abs_err: np.ndarray
    rel_err: np.ndarray
    abs_agg: np.ndarray | None = None  # (n, 3) spatial min/mean/max of abs_err
    rel_agg: np.ndarray | None = None  # (n, 3) spatial min/mean/max of rel_err
    l2_err: np.ndarray | None = None  # (n,) sqrt of the cell mean of e^2


def error_series_ode(traj) -> ErrorSeries:
    """Inhibition-rate estimation errors along a within-host trajectory."""
    theta = traj.truth[:, 0]
    theta_hat = traj.observer[:, 0]
    return ErrorSeries(
        times=traj.times,
        abs_err=np.abs(theta - theta_hat),
        rel_err=relative_abs_error(theta, theta_hat),
    )


def error_series_pde(traj) -> ErrorSeries:
    """Spatially aggregated estimation errors along a spatial trajectory."""
    theta = traj.truth[:, 0]
    theta_hat = traj.observer[:, 0]
    axes = tuple(range(1, theta.ndim))
    abs_err = np.abs(theta - theta_hat)
    rel_err = relative_abs_error(theta, theta_hat)
    abs_agg, rel_agg = (np.stack(pde.aggregate(f, axes), axis=1) for f in (abs_err, rel_err))
    return ErrorSeries(
        times=traj.times,
        abs_err=abs_agg[:, 1],
        rel_err=rel_agg[:, 1],
        abs_agg=abs_agg,
        rel_agg=rel_agg,
        l2_err=np.sqrt((abs_err ** 2).mean(axis=axes)),  # unit domain: h^dim * sum = mean
    )


def _simpson(y: np.ndarray, h):
    """Composite Simpson rule on the last axis of ``y``: an odd number of
    samples ``h`` apart (``h`` broadcasts against the leading axes)."""
    weights = np.ones(y.shape[-1])
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return (h / 3.0) * (y * weights).sum(axis=-1)


def analytic_envelope(t: float, alpha_fn, w_fn, e0: float,
                      panels: int = 10_000) -> float:
    """Gain-free error envelope ``e0 * exp(-int_0^t alpha(s) w(s) ds)``.

    The integral uses the composite Simpson rule with ``panels`` panels on
    ``[0, t]``.  ``alpha_fn`` and ``w_fn`` must accept numpy arrays.
    """
    if t < 0.0:
        raise ValueError(f"t={t} must be >= 0")
    if t == 0.0:
        return e0
    ts = np.linspace(0.0, t, 2 * panels + 1)
    q = _simpson(alpha_fn(ts) * w_fn(ts), t / (2 * panels))
    return e0 * math.exp(-q)


def envelope_series(times: np.ndarray, p: ParameterSet, e0: float) -> np.ndarray:
    """Gain-free envelope at every recorded time of a run.

    Equivalent to calling :func:`analytic_envelope` at each element of
    ``times`` (validated against it in the test suite) but evaluated with a
    cumulative per-interval Simpson rule of sub-intervals no wider than
    ``ENVELOPE_STEP``, on at most ``ENVELOPE_NODES`` nodes at once.  Raises
    ``ValueError`` when one interval needs more nodes than that.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) == 0:
        raise ValueError("times must be a nonempty 1-D array")
    if times[0] < 0.0 or np.any(np.diff(times) <= 0.0):
        raise ValueError("times must be nonnegative and strictly increasing")
    edges = np.concatenate([[0.0], times]) if times[0] > 0.0 else times
    widths = np.diff(edges)
    panels = widths.max(initial=0.0) / (2 * ENVELOPE_STEP)
    if not panels <= (ENVELOPE_NODES - 1) // 2:
        raise ValueError(f"an interval of width {widths.max():g} needs more than"
                         f" {ENVELOPE_NODES} Simpson nodes")
    m = max(1, math.ceil(panels))
    # blocks of whole intervals, at most ENVELOPE_NODES nodes each: a study year is one
    block_len = ENVELOPE_NODES // (2 * m + 1)
    starts, spacing = edges[:-1], np.linspace(0.0, 1.0, 2 * m + 1)
    integrals = np.empty(len(widths))
    for i in range(0, len(widths), block_len):
        block = slice(i, i + block_len)
        nodes = starts[block, None] + widths[block, None] * spacing
        vals = forcing.inhibition_forcing(nodes, p) * forcing.inhibition_weight(nodes, p)
        integrals[block] = _simpson(vals, widths[block] / (2 * m))
    q = np.concatenate([[0.0], np.cumsum(integrals)])
    if times[0] > 0.0:
        q = q[1:]
    return e0 * np.exp(-q)


def l2_envelope(t, inf_alpha: float, e0_norm: float):
    """Spatial L2 envelope ``e0_norm^2 * exp(-2 t inf_alpha)``.

    ``inf_alpha`` is the space-time infimum of the inhibition forcing; with
    the seasonal reference forcing it is 0 and the bound is flat.
    """
    if inf_alpha < 0.0:
        raise ValueError(f"inf_alpha={inf_alpha} must be >= 0")
    return e0_norm ** 2 * np.exp(-2.0 * np.asarray(t, dtype=float) * inf_alpha)


@dataclass
class DecayFit:
    """Least-squares exponential decay rate of an error series.

    ``rate`` is the decay constant (positive = shrinking error),
    ``residual_rms`` the RMS of the log-linear fit residuals, ``n_used`` the
    number of samples fitted, ``truncated`` whether an exact zero cut the
    window short.
    """

    rate: float
    log_intercept: float
    residual_rms: float
    n_used: int
    truncated: bool


def fit_decay_rate(times, errors, window: tuple[float, float] | None = None,
                   min_samples: int = 10) -> DecayFit:
    """Fit ``errors ~ exp(log_intercept - rate * t)`` on a time window.

    Zero-error samples are excluded; if an exact zero appears inside the
    window the fit uses the positive prefix and flags ``truncated``.  Raises
    ``ValueError`` when fewer than ``min_samples`` positive samples remain.
    """
    times = np.asarray(times, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if window is not None:
        mask = (times >= window[0]) & (times <= window[1])
        times, errors = times[mask], errors[mask]
    truncated = False
    zero = np.flatnonzero(errors == 0.0)
    if len(zero) > 0:
        times, errors = times[: zero[0]], errors[: zero[0]]
        truncated = True
    if len(errors) < min_samples:
        raise ValueError(
            f"insufficient data: {len(errors)} positive samples < {min_samples}")
    log_e = np.log(errors)
    slope, intercept = np.polyfit(times, log_e, 1)
    resid = log_e - (slope * times + intercept)
    return DecayFit(
        rate=float(-slope),
        log_intercept=float(intercept),
        residual_rms=float(np.sqrt(np.mean(resid ** 2))),
        n_used=len(errors),
        truncated=truncated,
    )


@dataclass
class EnvelopeCheck:
    """Outcome of a pointwise envelope comparison."""

    passed: bool
    worst_index: int
    worst_margin: float  # max of series - envelope*(1+tol); <= 0 means pass


def envelope_check(series, envelope, tol: float = ENVELOPE_TOL) -> EnvelopeCheck:
    """Verify ``series[i] <= envelope[i] * (1 + tol)`` for every sample."""
    series = np.asarray(series, dtype=float)
    envelope = np.asarray(envelope, dtype=float)
    if series.shape != envelope.shape:
        raise ValueError(f"length mismatch: {series.shape} vs {envelope.shape}")
    margin = series - envelope * (1.0 + tol)
    worst = int(np.argmax(margin))
    return EnvelopeCheck(
        passed=bool(margin[worst] <= 0.0),
        worst_index=worst,
        worst_margin=float(margin[worst]),
    )
