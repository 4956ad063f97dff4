"""Time- and space-dependent forcing functions, control signal and profiles.

Each time function (``control``, ``inhibition_forcing``, ...) takes a float
time, on ``math`` for the integrator's per-step calls, or an array of times,
on numpy for quadrature and diagnostics.  ``math`` raising ``TypeError`` on
an array picks numpy: unlike a type test in every call, this costs the float
path nothing.  State arguments broadcast against the time; a value that
does not depend on time stays a float.

Every function here is pure: no global state, safe for concurrent use.
"""

from __future__ import annotations

import itertools
import math
import operator

import numpy as np

from .params import ParameterSet, SpatialParameterSet

__all__ = [
    "control",
    "inhibition_weight",
    "inhibition_forcing",
    "growth_profile",
    "growth_forcing",
    "rot_forcing",
    "volume_capacity",
    "seasonal",
    "anisotropy_matrix",
    "radial_squared",
    "spatial_weight",
]

#: A time, a state component or a forcing value: a float, or an array of
#: values that broadcast against each other.
Value = float | np.ndarray


def positive(x: Value, t: Value, message: str) -> Value:
    """``x``, or ``ValueError(message.format(value=..., t=...))`` at the first sample
    where ``x <= 0``, with ``t`` broadcast against ``x``; a guard, not in ``__all__``."""
    bad = x <= 0.0
    if bad is not False and np.any(bad):  # a float x tests one bool
        index = np.unravel_index(np.argmax(bad), np.shape(bad))
        value, t_bad = (float(np.broadcast_to(v, np.shape(bad))[index]) for v in (x, t))
        raise ValueError(message.format(value=value, t=t_bad))
    return x


# ---------------------------------------------------------------------------
# time functions: a float time on math, an array of times on numpy
# ---------------------------------------------------------------------------

def control(t: Value, p: ParameterSet) -> Value:
    """Fungicide control signal ``u(t) = sin^2(w1*(t-ph1)^2) * exp(-w2*(t-ph2)^2)``.

    Always in ``[0, 1]``: a burst of treatments around ``phase1`` damped by a
    Gaussian window centred at ``phase2``.
    """
    x, y = p.omega1 * (t - p.phase1) ** 2, -p.omega2 * (t - p.phase2) ** 2
    try:
        s, e = math.sin(x), math.exp(y)
    except TypeError:  # an array of times
        s, e = np.sin(x), np.exp(y)
    return s * s * e


def inhibition_weight(t: Value, p: ParameterSet, u_space: Value = 1.0) -> Value:
    """Control weight ``w(t) = 1/(1 - sigma*u_space*u(t))`` in the inhibition dynamics.

    ``u_space`` is the spatial control profile (1 in the within-host model).
    Under treatment the inhibition rate relaxes towards ``1/w <= 1`` instead
    of 1.  Raises ``ValueError`` when ``sigma*u >= 1`` (singular
    configuration; impossible for ``sigma < 1`` since ``u_space*u <= 1``).
    """
    den = 1.0 - p.sigma * (u_space * control(t, p))
    return 1.0 / positive(den, t, "sigma*u(t) >= 1 at t={t}: control weight is singular")


def seasonal(t: Value, b: float, c: float, d: float) -> Value:
    """Seasonal shape ``b*(1 - cos(c*t))*(t - d)^2`` common to all forcings."""
    x = c * t
    try:
        cos = math.cos(x)
    except TypeError:  # an array of times
        cos = np.cos(x)
    return b * (1.0 - cos) * (t - d) ** 2


def inhibition_forcing(t: Value, p: ParameterSet, q1: Value = 1.0) -> Value:
    """Inhibition-rate forcing ``p1 + q1*b1*(1 - cos(c1*t))*(t - d1)^2``, with the baseline
    ``p1`` (zero unless ``p1_mode`` is constant) and the spatial profile ``q1``."""
    p1 = p.p1_const if p.p1_mode == "constant" else 0.0
    return p1 + q1 * seasonal(t, p.b1, p.c1, p.d1)


def growth_profile(theta: Value, p: ParameterSet) -> Value:
    """Profile ``p2`` shaping how inhibition suppresses berry growth."""
    if p.p2_mode == "quadratic":
        return (2.0 - theta) ** 2
    return 2.0 - theta


def growth_forcing(t: Value, theta: Value, p: ParameterSet) -> Value:
    """Berry-growth forcing ``b2*(1 - cos(c2*t))*(t - d2)^2 * p2(theta)``.

    Nonincreasing in ``theta`` for both profiles on ``[0, 1]``.
    """
    return seasonal(t, p.b2, p.c2, p.d2) * growth_profile(theta, p)


def rot_forcing(t: Value, theta: Value, v: Value, rho: Value, p: ParameterSet) -> Value:
    """Rot-proportion forcing ``b3*(1 - cos(c3*t))*(t - d3)^2*(theta - kappa*rho)*v``.

    Vanishes exactly when ``v = 0`` (no berry, no rot) and when
    ``theta = kappa*rho``; increasing in ``theta``.
    """
    return seasonal(t, p.b3, p.c3, p.d3) * (theta - p.kappa * rho) * v


def volume_capacity(t: Value, p: ParameterSet) -> Value:
    """Environmental capacity factor ``eta(t)`` limiting the maximal volume.

    ``constant`` mode is the reference choice ``1/(1 + epsilon)``; the
    ``seasonal`` mode oscillates inside its admissible band
    ``[eta_star, 1/(1 + epsilon)]``.
    """
    hi = 1.0 / (1.0 + p.epsilon)
    if p.eta_mode == "seasonal":
        x = 2.0 * math.pi * t
        try:
            cos = math.cos(x)
        except TypeError:  # an array of times
            cos = np.cos(x)
        return p.eta_star + (hi - p.eta_star) * 0.5 * (1.0 + cos)
    return hi


# ---------------------------------------------------------------------------
# spatial factors
# ---------------------------------------------------------------------------

_MASK32, _MASK64, _MASK128 = 2 ** 32 - 1, 2 ** 64 - 1, 2 ** 128 - 1
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_sequence(seed: int) -> tuple[int, int]:
    """``SeedSequence(seed).generate_state(4, uint64)`` as PCG64 reads it: the
    initial state and the stream, each from two 64-bit words, high word first."""
    words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal const
        value = (value ^ const) * (const := const * 0x931E8875 & _MASK32) & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(w) for w in (words + [0] * 4)[:4]]
    for src, dst in itertools.permutations(range(4), 2):
        pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w, dst in itertools.product(words[4:], range(4)):
        pool[dst] = mix(pool[dst], hashmix(w))
    state, const = [], 0x8B51F9DD
    for w in pool * 2:
        w = (w ^ const) * (const := const * 0x58F38DED & _MASK32) & _MASK32
        state.append(w ^ w >> 16)
    u64 = [lo | hi << 32 for lo, hi in zip(state[0::2], state[1::2])]  # little-endian
    return u64[0] << 64 | u64[1], u64[2] << 64 | u64[3]


def _uniform_draws(seed: int, count: int) -> list[float]:
    """The first ``count`` values of ``np.random.default_rng(seed).random()``."""
    initstate, initseq = _seed_sequence(seed)
    inc = (initseq << 1 | 1) & _MASK128
    # set-seed: one step from state 0, add the initial state, one more step
    state = ((inc + initstate) * _PCG64_MULTIPLIER + inc) & _MASK128
    out = []
    for _ in range(count):
        state = (state * _PCG64_MULTIPLIER + inc) & _MASK128
        x, rot = (state >> 64 ^ state) & _MASK64, state >> 122  # XSL-RR output
        out.append((((x >> rot | x << (64 - rot)) & _MASK64) >> 11) * 2.0 ** -53)
    return out


def anisotropy_matrix(seed: int, dim: int, scale: float) -> np.ndarray:
    """Random ``dim x dim`` matrix, entries i.i.d. uniform on ``[0, scale)``.

    Pure function of ``(seed, dim, scale)``: the same arguments always
    reproduce the same matrix, ``scale * np.random.default_rng(seed).random((dim,
    dim))`` bit for bit.  That PCG64 stream is kept because every spatial
    artifact and the benchmark reference depend on it; it is re-implemented
    here so that no run imports ``numpy.random``.  ``ValueError`` for a
    negative seed.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"anisotropy seed {seed} must be >= 0")
    return scale * np.array(_uniform_draws(seed, dim * dim)).reshape(dim, dim)


def radial_squared(points: np.ndarray, matrix: np.ndarray, center) -> np.ndarray:
    """``|M (x - c)|^2`` for points of shape ``(..., dim)``."""
    d = np.asarray(points, dtype=float) - np.asarray(center, dtype=float)
    md = d @ matrix.T
    return np.sum(md * md, axis=-1)


def spatial_weight(points: np.ndarray, i: int, sp: SpatialParameterSet, dim: int) -> np.ndarray:
    """Radial profile ``q_i(x) = (sin^2(|M_i (x - x_i)|^2) + 1)/2`` in ``[1/2, 1]``.

    ``M_i = anisotropy_matrix(seed + i, dim, anisotropy_scale)``.
    """
    if not 1 <= i <= 3:
        raise ValueError(f"profile index {i} not in 1..3")
    m = anisotropy_matrix(sp.base.seed + i, dim, sp.anisotropy_scale)
    r2 = radial_squared(points, m, sp.center(i, dim))
    return (np.sin(r2) ** 2 + 1.0) / 2.0

