"""Parameter containers and hypothesis validation.

All model constants live in :class:`ParameterSet` (within-host model) and
:class:`SpatialParameterSet` (reaction-diffusion model).  Defaults reproduce
the reference simulation study: the cultivation year is normalised to
``t in [0, 1]`` and every rate constant is interpreted on that axis.

Parameter sets are frozen dataclasses: validate once, then share freely
between threads / worker processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

__all__ = [
    "ParameterSet",
    "SpatialParameterSet",
    "Violation",
    "admit",
    "gain_cap",
    "validate",
    "validate_spatial",
]

#: Selectors for the baseline inhibition forcing p1(t).
P1_MODES = ("zero", "constant")
#: Selectors for the growth profile p2: "linear" -> 2 - x, "quadratic" -> (2 - x)^2.
P2_MODES = ("linear", "quadratic")
#: Selectors for the volume-capacity function eta(t).
ETA_MODES = ("constant", "seasonal")


@dataclass(frozen=True)
class ParameterSet:
    """Constants of the within-host model, its observer and the control signal.

    ``b2``, ``b3`` and ``eta_star`` may be left as ``None``; they are then
    resolved from the reference formulas ``b2 = v_max*ln(1e5*v_max*(1 -
    epsilon*eta_star))/2``, ``b3 = v_max*ln(1e5*v_max)`` and ``eta_star =
    1/(1 + epsilon)`` at construction time; a logarithm of a nonpositive
    number, or ``1 + epsilon <= 0``, resolves to nan, and :func:`validate`
    reports the input at fault.
    """

    # seasonal forcing amplitudes / pulsations / peak times
    b1: float = 5.0 * math.log(10.0)
    b2: float | None = None
    b3: float | None = None
    c1: float = 10.0 * math.pi
    c2: float = 10.0 * math.pi
    c3: float = 10.0 * math.pi
    d1: float = 0.75
    d2: float = 0.75
    d3: float = 0.75
    # control signal u(t) = sin^2(omega1*(t-phase1)^2) * exp(-omega2*(t-phase2)^2)
    omega1: float = 25.0 * math.pi
    omega2: float = 10.0
    phase1: float = 0.6
    phase2: float = 0.4
    # epidermis-penetration bound: inhibition cannot drop below 1 - sigma
    sigma: float = 0.9
    # volume regulariser: berries keep a minimal size ~ epsilon*v_max*min(eta)
    epsilon: float = 1e-4
    eta_star: float | None = None
    eta_mode: str = "constant"
    v_max: float = 1.0
    # rot feedback constant in the rot forcing (theta - kappa*rho)
    kappa: float = 1.0
    # observer correction gains
    k1: float = 0.0
    k2: float = 0.0
    # baseline forcing p1 and growth profile p2 selectors
    p1_mode: str = "zero"
    p1_const: float = 0.0
    p2_mode: str = "linear"
    # integration step and PRNG seed (anisotropy matrices)
    dt: float = 1e-4
    seed: int = 42

    def __post_init__(self) -> None:
        if self.eta_star is None:
            eta_star = 1.0 / (1.0 + self.epsilon) if 1.0 + self.epsilon > 0.0 else math.nan
            object.__setattr__(self, "eta_star", eta_star)
        log = lambda x: math.log(x) if x > 0.0 else math.nan
        if self.b2 is None:
            b2 = self.v_max * log(1e5 * self.v_max * (1.0 - self.epsilon * self.eta_star)) / 2.0
            object.__setattr__(self, "b2", b2)
        if self.b3 is None:
            object.__setattr__(self, "b3", self.v_max * log(1e5 * self.v_max))


@dataclass(frozen=True)
class SpatialParameterSet:
    """Constants specific to the reaction-diffusion model.

    The diffusion tensor is isotropic, ``A = diffusivity * I``.  Anisotropy
    matrices for the radial space profiles are drawn uniformly from
    ``[0, anisotropy_scale)`` using ``base.seed`` (control matrix) and
    ``base.seed + i`` (profile matrix i), from numpy's PCG64 stream of
    ``default_rng``, which every spatial artifact and the benchmark reference
    depend on; :func:`anthobs.forcing.anisotropy_matrix` re-implements it so
    that no run imports ``numpy.random``.  ``spatial_profile = "uniform"``
    replaces every spatial factor by 1, which reduces each grid cell to the
    within-host model.  The observer gains are the spatially constant
    ``base.k1`` and ``base.k2``.
    """

    base: ParameterSet = field(default_factory=ParameterSet)
    diffusivity: float = 1e-2
    anisotropy_scale: float = 5.0
    spatial_profile: str = "radial"
    # centres of the radial control / profile factors (truncated to grid dim)
    x0: tuple[float, ...] = (0.0, 0.0, 0.0)
    x1: tuple[float, ...] = (0.0, 0.0, 0.0)
    x2: tuple[float, ...] = (0.0, 0.0, 0.0)
    x3: tuple[float, ...] = (0.0, 0.0, 0.0)

    def center(self, i: int, dim: int) -> tuple[float, ...]:
        """Centre of radial factor ``i`` (0 = control) truncated to ``dim``."""
        pt = (self.x0, self.x1, self.x2, self.x3)[i]
        return tuple(pt[:dim]) + (0.0,) * max(0, dim - len(pt))


@dataclass(frozen=True)
class Violation:
    """One violated hypothesis, with the originating parameter and severity."""

    key: str
    message: str
    hard: bool = False


def gain_cap(dt: float) -> float:
    """Largest admissible observer gain for step ``dt``: ``1 / (10 * dt)``."""
    return 1.0 / (10.0 * dt)


def _check_gains(k1: float, k2: float, dt: float) -> list[Violation]:
    """The gain rule: both gains finite and >= 0 and, for a positive finite step,
    the finite gains within the cap; one violation per broken condition."""
    gains = {"k1": k1, "k2": k2}
    out = [Violation(key, f"{key}={k} must be finite and >= 0", hard=True)
           for key, k in gains.items() if k < 0.0 or not math.isfinite(k)]
    finite = {key: k for key, k in gains.items() if math.isfinite(k)}
    top = max(finite, key=finite.get, default=None)
    if top is not None and 0.0 < dt < math.inf and finite[top] > gain_cap(dt):
        out.append(Violation(
            top, f"gain cap exceeded: max(k1,k2)={finite[top]} >"
            f" 1/(10*dt)={gain_cap(dt)}", hard=True))
    return out


def _screen(obj, derived=()):
    """Check that every float field of ``obj``, and every spatial point, is
    finite.  Returns the violations and ``flag(key, message, hard=False,
    reads=())``, which adds the violation of a further check of field ``key``
    that also reads the fields ``reads``.  A field that is not finite takes
    part in no further check, nor does a default in ``derived`` (one whose
    input is at fault), which is not reported at all."""
    out, skip = [], set(derived)
    for f in fields(obj):
        value = getattr(obj, f.name)
        numbers = value if isinstance(value, tuple) else (value,)
        if not all(math.isfinite(x) for x in numbers if isinstance(x, float)):
            if f.name not in skip:
                out.append(Violation(f.name, f"{f.name}={value} must be finite", hard=True))
            skip.add(f.name)

    def flag(key: str, message: str, hard: bool = False, reads=()) -> None:
        if skip.isdisjoint((key, *reads)):
            out.append(Violation(key, message, hard))
    return out, flag


def _check_selector(flag, key: str, value: str, allowed) -> None:
    if value not in allowed:
        flag(key, f"{key}={value!r} not one of {sorted(allowed)}", hard=True)


def validate(p: ParameterSet) -> list[Violation]:
    """Check every configuration-level model hypothesis on ``p``.

    Returns a (possibly empty) list of :class:`Violation`; never raises.
    Violations flagged ``hard`` make simulation meaningless (a value that is
    not finite, singular control weight, unstable gains, non-positive step)
    and are rejected by the configuration loader; soft ones note broken model
    assumptions.
    """
    # eta_star defaults to a formula in epsilon, b2 and b3 to formulas in
    # epsilon, eta_star and v_max: when an input is at fault, report it and
    # not the values derived from it
    derived = set()
    if not -1.0 < p.epsilon < math.inf:
        derived |= {"eta_star", "b2"}
    if not 0.0 < p.v_max < math.inf:
        derived |= {"b2", "b3"}
    product = p.epsilon * p.eta_star
    growth_log_undefined = math.isnan(p.b2) and product >= 1.0
    if not math.isfinite(p.eta_star) or growth_log_undefined:
        derived.add("b2")
    out, flag = _screen(p, derived)
    if growth_log_undefined:
        flag("epsilon", f"epsilon*eta_star={product} >= 1: the reference growth"
             " amplitude takes the logarithm of 1 - epsilon*eta_star", hard=True,
             reads=("eta_star",))
    if not 0.0 < p.sigma < 1.0:
        flag("sigma", f"sigma={p.sigma} outside ]0,1[: the control weight 1/(1-sigma*u)"
             " is singular at full control effort", hard=True)
    if p.dt <= 0.0:
        flag("dt", f"dt={p.dt} must be a positive finite step", hard=True)
    if 1.0 + p.epsilon <= 0.0:
        flag("epsilon", f"epsilon={p.epsilon} must be > -1: the volume capacity"
             " 1/(1+epsilon) is undefined", hard=True)
    elif p.epsilon < 0.0:
        flag("epsilon", f"epsilon={p.epsilon} must be >= 0")
    if not 0.0 < p.eta_star < 1.0:
        flag("eta_star", f"eta_star={p.eta_star} must lie in ]0,1[ (lower bound of eta)")
    for v in _check_gains(p.k1, p.k2, p.dt):
        flag(v.key, v.message, v.hard)
    for key in ("b1", "b2", "b3"):
        if getattr(p, key) < 0.0:
            flag(key, f"{key}={getattr(p, key)} must be >= 0 (nonnegative forcing)")
    for key in ("c1", "c2", "c3"):
        if getattr(p, key) <= 0.0:
            flag(key, f"{key}={getattr(p, key)} must be a positive pulsation")
    for key in ("d1", "d2", "d3"):
        if not 0.0 <= getattr(p, key) <= 1.0:
            flag(key, f"{key}={getattr(p, key)} must be a peak time in [0,1]")
    for key in ("phase1", "phase2"):
        if not 0.0 <= getattr(p, key) <= 1.0:
            flag(key, f"{key}={getattr(p, key)} must be a phase in [0,1]")
    if p.omega1 < 0.0:
        flag("omega1", f"omega1={p.omega1} must be >= 0")
    if p.omega2 < 0.0:
        flag("omega2", f"omega2={p.omega2} must be >= 0 (decaying control)")
    if p.kappa < 0.0:
        flag("kappa", f"kappa={p.kappa} must be >= 0")
    if p.v_max <= 0.0:
        flag("v_max", f"v_max={p.v_max} must be > 0", hard=True)
    if p.p1_const < 0.0:
        flag("p1_const", f"p1_const={p.p1_const} must be >= 0")
    if isinstance(p.seed, bool) or not isinstance(p.seed, int):  # as a snapshot carries it
        flag("seed", f"seed={p.seed!r} must be an integer", hard=True)
    elif p.seed < 0:
        flag("seed", f"seed={p.seed} must be >= 0: seed + i draws the anisotropy matrices",
             hard=True)
    _check_selector(flag, "p1_mode", p.p1_mode, P1_MODES)
    _check_selector(flag, "p2_mode", p.p2_mode, P2_MODES)
    _check_selector(flag, "eta_mode", p.eta_mode, ETA_MODES)
    # both eta modes take values in [min, max] of {eta_star, 1/(1+epsilon)}, so
    # eta(t) stays inside its band [eta_star, 1/(1+epsilon)] iff the band is
    # not empty
    if p.epsilon >= 0.0 and p.eta_star > 1.0 / (1.0 + p.epsilon):
        flag("eta_mode", f"eta(t) escapes [eta_star, 1/(1+epsilon)]: eta_star={p.eta_star}"
             f" > 1/(1+epsilon)={1.0 / (1.0 + p.epsilon)}", reads=("epsilon", "eta_star"))
    return out


def validate_spatial(sp: SpatialParameterSet) -> list[Violation]:
    """Validate the spatial extension together with its base parameters."""
    out, flag = _screen(sp)
    if sp.diffusivity < 0.0:
        flag("diffusivity", f"diffusivity={sp.diffusivity} must be >= 0", hard=True)
    if sp.anisotropy_scale < 0.0:
        flag("anisotropy_scale", f"anisotropy_scale={sp.anisotropy_scale} must be >= 0")
    _check_selector(flag, "spatial_profile", sp.spatial_profile, ("radial", "uniform"))
    return validate(sp.base) + out


def admit(ps: ParameterSet | SpatialParameterSet) -> None:
    """The admission rule of every run: ``ValueError`` with the hard violations of
    ``ps`` (:func:`validate_spatial` for a spatial set), joined as the loader joins them."""
    found = validate_spatial(ps) if isinstance(ps, SpatialParameterSet) else validate(ps)
    hard = "; ".join(v.message for v in found if v.hard)
    if hard:
        raise ValueError(hard)
