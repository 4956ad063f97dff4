"""Plain-text key-value configuration files.

Format, one statement per line::

    # comment (also allowed inline)
    sigma = 0.9              # ParameterSet field
    diffusivity = 0.01       # SpatialParameterSet field
    x0 = 0.0, 0.0            # spatial points: comma-separated floats
    scenario = ode theta0=0.05 v0=0.5 rho0=0.05 k1=0 k2=1000
    sweep = paper-ode

Unknown keys are errors; every diagnostic carries the offending line number.
An empty file yields the reference defaults and no scenarios.  The codec
round-trips exactly: ``load_config_text(write_config(p, sp))`` reproduces the
parameter sets bit for bit (floats are serialised with ``repr``).
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

from .params import ParameterSet, SpatialParameterSet, admit

__all__ = ["ConfigError", "LoadedConfig", "load_config", "load_config_text",
           "write_config", "scenario_line"]

#: Config keys and their annotations: the fields of the parameter sets.
_PARAM_TYPES = {f.name: f.type for f in dataclasses.fields(ParameterSet)}
_SPATIAL_TYPES = {f.name: f.type for f in dataclasses.fields(SpatialParameterSet)
                  if f.name != "base"}

SWEEP_KINDS = ("paper-ode", "paper-pde")


class ConfigError(ValueError):
    """Malformed or invalid configuration; message carries line provenance."""


@dataclasses.dataclass
class LoadedConfig:
    """Validated parameter sets plus the scenario work list."""

    params: ParameterSet
    spatial: SpatialParameterSet
    scenarios: list  # list[runner.Scenario]
    sweeps: list[str]


def _parse_value(key: str, annotation: str, raw: str, lineno: int):
    try:
        if annotation == "str":
            return raw
        if annotation == "int":
            return int(raw)
        if annotation.startswith("tuple"):  # a spatial point
            return tuple(float(part) for part in raw.split(","))
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"line {lineno}: bad value for {key!r}: {raw!r} ({exc})")


def _parse_scenario(raw: str, lineno: int, keys: dict[str, str]) -> dict:
    parts = raw.split()
    if not parts or parts[0] not in ("ode", "pde"):
        raise ConfigError(f"line {lineno}: scenario must start with 'ode' or 'pde'")
    fields = {"model": parts[0]}
    for item in parts[1:]:
        if "=" not in item:
            raise ConfigError(f"line {lineno}: scenario item {item!r} is not key=value")
        key, _, val = item.partition("=")
        if key not in keys:
            raise ConfigError(f"line {lineno}: unknown scenario key {key!r}")
        fields[key] = _parse_value(key, keys[key], val, lineno)
    return fields


def load_config_text(text: str, strict: bool = True) -> LoadedConfig:
    """Parse and validate a configuration string.

    Raises :class:`ConfigError` on unknown keys or malformed values, and
    (when ``strict``) on hard hypothesis violations such as an exceeded gain
    cap (:func:`anthobs.params.admit`).  ``strict=False`` defers hypothesis
    judgement to the caller, which lets the ``validate`` command enumerate every
    violation; the scenario lines are still checked, against the set as given.
    """
    from . import runner  # Scenario lives with the execution machinery

    scenario_keys = {f.name: f.type for f in dataclasses.fields(runner.Scenario)
                     if f.name != "model"}
    param_kv: dict[str, object] = {}
    spatial_kv: dict[str, object] = {}
    scenario_lines: list[tuple[dict, int]] = []
    sweeps: list[str] = []

    for lineno, line in enumerate(text.splitlines(), start=1):
        stmt = line.split("#", 1)[0].strip()
        if not stmt:
            continue
        if "=" not in stmt:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stmt!r}")
        key, _, raw = stmt.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key == "scenario":
            scenario_lines.append((_parse_scenario(raw, lineno, scenario_keys), lineno))
        elif key == "sweep":
            if raw not in SWEEP_KINDS:
                raise ConfigError(
                    f"line {lineno}: unknown sweep {raw!r}; pick one of {SWEEP_KINDS}")
            sweeps.append(raw)
        elif key in _PARAM_TYPES:
            param_kv[key] = _parse_value(key, _PARAM_TYPES[key], raw, lineno)
        elif key in _SPATIAL_TYPES:
            spatial_kv[key] = _parse_value(key, _SPATIAL_TYPES[key], raw, lineno)
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")

    try:
        params = ParameterSet(**param_kv)
        spatial = SpatialParameterSet(base=params, **spatial_kv)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid parameter combination: {exc}")

    if strict:
        try:
            admit(spatial)
        except ValueError as exc:
            raise ConfigError(f"configuration rejected: {exc}")

    scenarios = []
    for fields, lineno in scenario_lines:
        fields.setdefault("k1", params.k1)
        fields.setdefault("k2", params.k2)
        if fields["model"] == "pde":
            fields.setdefault("rho0", fields.get("theta0"))
        try:
            scenarios.append(runner.Scenario(**fields).checked(params))  # admitted above
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: invalid scenario: {exc}")
    return LoadedConfig(params=params, spatial=spatial, scenarios=scenarios,
                        sweeps=sweeps)


def load_config(path: str | Path, strict: bool = True) -> LoadedConfig:
    """Load and validate a configuration file (see :func:`load_config_text`)."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}")
    return load_config_text(text, strict=strict)


def _fmt(value) -> str:
    if isinstance(value, tuple):
        return ", ".join(repr(float(x)) for x in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_config(p: ParameterSet, sp: SpatialParameterSet | None = None,
                 scenarios: list | None = None) -> str:
    """Serialise parameter sets (and optional scenarios) to config-file text."""
    lines = ["# anthobs configuration"]
    for f in dataclasses.fields(ParameterSet):
        lines.append(f"{f.name} = {_fmt(getattr(p, f.name))}")
    if sp is not None:
        for key in sorted(_SPATIAL_TYPES):  # the sorted order puts the points last
            lines.append(f"{key} = {_fmt(getattr(sp, key))}")
    for s in scenarios or []:
        lines.append(scenario_line(s))
    return "\n".join(lines) + "\n"


def scenario_line(s) -> str:
    """One-line config statement reproducing scenario ``s`` (a within-host
    scenario has no grid)."""
    items = [f"{f.name}={_fmt(getattr(s, f.name))}" for f in dataclasses.fields(s)
             if f.name != "model" and (s.model == "pde" or f.name not in ("dim", "n"))]
    return "scenario = " + " ".join([s.model] + items)
