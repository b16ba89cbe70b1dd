"""Experiment configuration: a strict line-oriented key = value format.

Sections in square brackets, one ``key = value`` per line, ``#`` comments.
Unknown sections, unknown keys, and duplicates are errors with line numbers;
the physical parameters (gamma, dt, box length, far-field density, horizon)
must be explicit, never defaulted.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from .fields import FieldError, Grid
from .probes import GROWTH_PROBES, ProbeError, resolve_audits, resolve_probes
from .solver import PRESET_NAMES, PRESET_PARAMS, SolverConfig, theorem_range_warnings

__all__ = ["ConfigError", "ExperimentConfig", "parse_config"]


class ConfigError(ValueError):
    pass


_SCHEMA = {
    "grid": ("dim", "n", "box_length", "far_field_density"),
    "preset": ("name", *dict.fromkeys(key for keys in PRESET_PARAMS.values() for key in keys)),
    "solver": ("gamma", "dt", "t_end", "formulation", "cfl_safety"),
    "probes": ("names",),
    "audits": ("names",),
    "output": ("directory", "state_stride"),
    "rng": ("seed",),
}

_REQUIRED = {
    "grid": ("dim", "n", "box_length", "far_field_density"),
    "preset": ("name",),
    "solver": ("gamma", "dt", "t_end"),
    "output": ("directory",),
}


@dataclass
class ExperimentConfig:
    grid_params: dict
    preset_name: str
    preset_params: dict
    solver: SolverConfig
    formulation: str
    probe_names: tuple
    audit_names: tuple
    directory: str
    state_stride: int
    seed: int
    warnings: list = field(default_factory=list)
    text: str = ""

    def make_grid(self) -> Grid:
        return Grid(**self.grid_params)

    def config_hash(self) -> str:
        return hashlib.sha256(self.text.encode("utf-8")).hexdigest()


def _parse_scalar(raw: str, lineno: int):
    low = raw.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    return raw


def _raw_sections(text: str) -> dict:
    sections: dict[str, dict] = {}
    current = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            name = stripped[1:-1].strip()
            if name not in _SCHEMA:
                raise ConfigError(f"line {lineno}: unknown section [{name}]")
            current = sections.setdefault(name, {})
            continue
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        section_name = next(n for n, d in sections.items() if d is current)
        if key not in _SCHEMA[section_name]:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in [{section_name}]")
        if key in current:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} in [{section_name}]")
        current[key] = (_parse_scalar(raw, lineno), lineno)
    return sections


def _take(sections, section, key, expect, required=True, default=None):
    entry = sections.get(section, {}).get(key)
    if entry is None:
        if required:
            raise ConfigError(f"missing required key {key!r} in [{section}]")
        return default
    value, lineno = entry
    if expect is float and isinstance(value, int):
        try:
            value = float(value)
        except OverflowError:
            raise ConfigError(f"line {lineno}: {key!r} is too large for a float") from None
    if not isinstance(value, expect):
        raise ConfigError(f"line {lineno}: {key!r} must be {expect.__name__}, got {value!r}")
    return value


def _name_list(sections, section) -> tuple:
    entry = sections.get(section, {}).get("names")
    if entry is None:
        return ()
    value, _ = entry
    if not isinstance(value, str):
        value = str(value)
    return tuple(tok.strip() for tok in value.split(",") if tok.strip())


def parse_config(text: str) -> ExperimentConfig:
    sections = _raw_sections(text)
    for section, keys in _REQUIRED.items():
        if section not in sections:
            raise ConfigError(f"missing required section [{section}]")
        for key in keys:
            if key not in sections[section]:
                raise ConfigError(f"missing required key {key!r} in [{section}]")

    grid_params = {
        "dim": _take(sections, "grid", "dim", int),
        "n": _take(sections, "grid", "n", int),
        "box_length": _take(sections, "grid", "box_length", float),
        "far_field_density": _take(sections, "grid", "far_field_density", float),
    }
    try:
        Grid(**grid_params)
    except FieldError as err:
        raise ConfigError(f"invalid [grid]: {err}") from err

    preset_name = _take(sections, "preset", "name", str)
    if preset_name not in PRESET_NAMES:
        raise ConfigError(f"unknown preset {preset_name!r}; choose one of {', '.join(PRESET_NAMES)}")
    preset_params = {}
    for key, (value, lineno) in sections.get("preset", {}).items():
        if key == "name":
            continue
        if key not in PRESET_PARAMS[preset_name]:
            raise ConfigError(f"line {lineno}: preset {preset_name!r} takes no parameter {key!r}")
        preset_params[key] = value

    try:
        solver = SolverConfig(
            gamma=_take(sections, "solver", "gamma", float),
            dt=_take(sections, "solver", "dt", float),
            t_end=_take(sections, "solver", "t_end", float),
            cfl_safety=_take(sections, "solver", "cfl_safety", float, required=False, default=0.5),
        )
    except FieldError as err:
        raise ConfigError(f"invalid [solver]: {err}") from err

    formulation = _take(sections, "solver", "formulation", str, required=False, default="primitive")
    if formulation not in ("primitive", "effective"):
        raise ConfigError(f"formulation must be primitive or effective, got {formulation!r}")

    probe_names = _name_list(sections, "probes")
    audit_names = _name_list(sections, "audits")
    try:
        resolve_probes(probe_names, solver.gamma)
        resolve_audits(audit_names)
    except ProbeError as err:
        raise ConfigError(str(err)) from err
    missing = [name for name in GROWTH_PROBES if name not in probe_names]
    if "growth-law" in audit_names and missing:
        raise ConfigError(
            f"audit 'growth-law' reads the probes {', '.join(missing)}; add them to [probes] names"
        )
    for name in ("pi-equivalence", "region-split"):
        if name in audit_names and solver.gamma == 1.0:
            raise ConfigError(f"audit {name!r} needs gamma > 1, got gamma = 1")

    state_stride = _take(sections, "output", "state_stride", int, required=False, default=1)
    if state_stride < 1:
        raise ConfigError("state_stride must be >= 1")
    seed = _take(sections, "rng", "seed", int, required=False, default=0)
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")

    cfg = ExperimentConfig(
        grid_params=grid_params,
        preset_name=preset_name,
        preset_params=preset_params,
        solver=solver,
        formulation=formulation,
        probe_names=probe_names,
        audit_names=audit_names,
        directory=_take(sections, "output", "directory", str),
        state_stride=state_stride,
        seed=seed,
        warnings=theorem_range_warnings(
            _take(sections, "solver", "gamma", float), grid_params["dim"]
        ),
        text=text,
    )
    return cfg
