"""Experiment configuration: a strict line-oriented key = value format.

Sections in square brackets, one ``key = value`` per line, ``#`` comments.
Unknown sections, unknown keys, and duplicates are errors with line numbers;
the physical parameters (gamma, dt, box length, far-field density, horizon)
must be explicit, never defaulted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .fields import FieldError, Grid
from .probes import AUDITS, ProbeError, require_finite_weights, resolve_audits, resolve_probes
from .solver import PRESET_NAMES, PRESET_PARAMS, SolverConfig, theorem_range_warnings

# CPython's built-in sha256, as random.py takes its seed digest: hashlib maps
# OpenSSL's libcrypto, 3.3 MB resident, for this one digest
try:
    from _sha2 import sha256  # Python 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "parse_config", "read_config"]


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
        return sha256(self.text.encode("utf-8")).hexdigest()


def _parse_scalar(raw: str):
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
    """``{section: {key: (raw text, line number)}}``; a value is parsed only
    once its key's type is known."""
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
        current[key] = (raw, lineno)
    return sections


def _take(sections, section, key, expect, required=True, default=None):
    entry = sections.get(section, {}).get(key)
    if entry is None:
        if required:
            what = f"key {key!r} in [{section}]" if section in sections else f"section [{section}]"
            raise ConfigError(f"missing required {what}")
        return default
    raw, lineno = entry
    if expect is str:
        return raw
    value = _parse_scalar(raw)
    if expect is float and type(value) is int:
        try:
            value = float(value)
        except OverflowError:
            raise ConfigError(f"line {lineno}: {key!r} is too large for a float") from None
    # true/false are no numbers, though bool is a subclass of int
    if not isinstance(value, expect) or isinstance(value, bool):
        raise ConfigError(f"line {lineno}: {key!r} must be {expect.__name__}, got {value!r}")
    return value


def _name_list(sections, section) -> tuple:
    names = _take(sections, section, "names", str, required=False, default="")
    return tuple(tok.strip() for tok in names.split(",") if tok.strip())


def read_config(path) -> str:
    """The text of the config file at ``path``, read as UTF-8, the encoding
    its hash is taken in, with universal newlines; bytes that are not UTF-8
    are a ConfigError naming the path and the byte offset."""
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path}: not UTF-8 at byte {err.start}") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def load_config(path) -> ExperimentConfig:
    return parse_config(read_config(path))


def parse_config(text: str) -> ExperimentConfig:
    sections = _raw_sections(text)
    grid_params = {
        "dim": _take(sections, "grid", "dim", int),
        "n": _take(sections, "grid", "n", int),
        "box_length": _take(sections, "grid", "box_length", float),
        "far_field_density": _take(sections, "grid", "far_field_density", float),
    }
    try:
        grid = Grid(**grid_params)
    except FieldError as err:
        raise ConfigError(f"invalid [grid]: {err}") from err

    preset_name = _take(sections, "preset", "name", str)
    if preset_name not in PRESET_NAMES:
        raise ConfigError(f"unknown preset {preset_name!r}; choose one of {', '.join(PRESET_NAMES)}")
    preset_params = {}
    for key, (raw, lineno) in sections.get("preset", {}).items():
        if key == "name":
            continue
        if key not in PRESET_PARAMS[preset_name]:
            raise ConfigError(f"line {lineno}: preset {preset_name!r} takes no parameter {key!r}")
        preset_params[key] = _parse_scalar(raw)

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
        require_finite_weights(probe_names, grid)
        resolve_audits(audit_names)
    except ProbeError as err:
        raise ConfigError(str(err)) from err
    for name in audit_names:
        missing = [probe for probe in AUDITS[name].probes if probe not in probe_names]
        if missing:
            raise ConfigError(f"audit {name!r} reads the probes {', '.join(missing)}; add them to [probes] names")
        if AUDITS[name].gamma_above_one and solver.gamma == 1.0:
            raise ConfigError(f"audit {name!r} needs gamma > 1, got gamma = 1")

    state_stride = _take(sections, "output", "state_stride", int, required=False, default=1)
    if state_stride < 1:
        raise ConfigError("state_stride must be >= 1")
    seed = _take(sections, "rng", "seed", int, required=False, default=0)
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    directory = _take(sections, "output", "directory", str)
    if Path(directory) == Path("."):  # '', '.' and './' would write into the output root
        raise ConfigError(f"[output] directory must name a directory, got {directory!r}")
    if ".." in Path(directory).parts:  # 'b/../a' would alias 'a', and '..' leave the output root
        raise ConfigError(f"[output] directory must have no '..' part, got {directory!r}")

    cfg = ExperimentConfig(
        grid_params=grid_params,
        preset_name=preset_name,
        preset_params=preset_params,
        solver=solver,
        formulation=formulation,
        probe_names=probe_names,
        audit_names=audit_names,
        directory=directory,
        state_stride=state_stride,
        seed=seed,
        warnings=theorem_range_warnings(solver.gamma, grid_params["dim"]),
        text=text,
    )
    return cfg
