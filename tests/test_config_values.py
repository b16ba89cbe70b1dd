"""Numeric config values reach the program only through its validating
constructors: every value of a numeric key of ``[grid]``, ``[preset]``,
``[solver]`` and ``[rng]`` either gives an initial state or raises
``ConfigError``; never another exception, and never a numpy warning (the
suite turns RuntimeWarnings into errors).

``n`` is capped at 32 in 2D and 16 in 3D so that no draw allocates a large
lattice.
"""

import math

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from nsklab.cli import main as cli_main
from nsklab.config import ConfigError, parse_config
from nsklab.experiment import _initial_state
from nsklab.solver import PRESET_PARAMS

_SPECIAL = st.sampled_from(
    [0.0, -0.0, -1.0, 5e-324, 1e-320, 1e-200, 1e-160, 1e-50, 1e50, 1e100, 1e154, 1e200, 1e308,
     1.7976931348623157e308, math.inf, -math.inf, math.nan, 10**400, -(10**400), -1, 0]
)
# the far corners of the value space, next to values a run would use
_EXTREME = st.one_of(_SPECIAL, st.floats(), st.integers(-(2**80), 2**80))


# each numeric key: the values a run would use
_USUAL_DRAWS = {
    ("grid", "box_length"): st.floats(1.0, 30.0),
    ("grid", "far_field_density"): st.floats(0.1, 10.0),
    ("preset", "amplitude"): st.floats(-0.9, 2.0),
    ("preset", "width"): st.floats(0.5, 3.0),
    ("preset", "velocity_amplitude"): st.floats(0.0, 2.0),
    ("preset", "max_mode"): st.integers(0, 12),
    ("solver", "gamma"): st.floats(1.0, 3.0),
    ("solver", "dt"): st.sampled_from([1e-3, 2e-3]),
    ("solver", "t_end"): st.sampled_from([0.0, 1e-2]),
    ("solver", "cfl_safety"): st.floats(0.1, 1.0),
    ("rng", "seed"): st.integers(0, 2**64),
}


@st.composite
def _values(draw):
    """Usual values for every key but at most three, which take extreme ones."""
    extreme = draw(st.sets(st.sampled_from(["dim", "n", *_USUAL_DRAWS]), max_size=3))
    dim = draw(st.sampled_from([0, 1, 4, -2]) if "dim" in extreme else st.sampled_from([2, 3]))
    sizes = (-8, 0, 6, 7, 10, 14) if "n" in extreme else (8, 12, 16, 18, 24, 32)
    n = draw(st.sampled_from([v for v in sizes if v <= (16 if dim == 3 else 32)]))
    name = draw(st.sampled_from(sorted(PRESET_PARAMS)))
    values = {"grid": {"dim": dim, "n": n}, "preset": {"name": name}, "solver": {}, "rng": {}}
    for (section, key), usual in _USUAL_DRAWS.items():
        if section == "preset" and (key not in PRESET_PARAMS[name] or not draw(st.booleans())):
            continue
        values[section][key] = draw(_EXTREME if (section, key) in extreme else usual)
    return values


_USUAL = {
    "grid": {"dim": 2, "n": 32, "box_length": 12.566370614359172, "far_field_density": 1.0},
    "preset": {"name": "gaussian-bump"},
    "solver": {"gamma": 2.0, "dt": 1e-3, "t_end": 0.5},
    "rng": {"seed": 0},
}


def _usual_with(section, **values):
    out = {name: dict(keys) for name, keys in _USUAL.items()}
    out[section].update(values)
    return out


# each of these ended in a traceback, in a numpy warning before its config
# error, or in a run of other values than the config's (max_mode 2.5 ran as 2)
_REJECTED = {
    "box-length-overflows": _usual_with("grid", box_length=1e308),
    "box-length-inf": _usual_with("grid", box_length=math.inf),
    "far-field-density-inf": _usual_with("grid", far_field_density=math.inf),
    "dt-overflows-the-step-count": _usual_with("solver", dt=1e-320),
    "negative-seed": {**_usual_with("rng", seed=-1), "preset": {"name": "random-large"}},
    "bump-width-zero": _usual_with("preset", width=0.0),
    "bump-width-underflows": _usual_with("preset", width=1e-200),
    "max-mode-not-whole": {**_USUAL, "preset": {"name": "random-large", "max_mode": 2.5}},
}


def _text(values, directory="out/values"):
    lines = []
    for section, keys in values.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {v if isinstance(v, str) else repr(v)}" for key, v in keys.items())
    return "\n".join(lines + ["[output]", f"directory = {directory}", ""])


def _state_or_config_error(values):
    try:
        _initial_state(parse_config(_text(values)))
    except ConfigError:
        event("config error")
    else:
        event("initial state")


@given(values=_values())
@settings(max_examples=300, deadline=None)
@example(values=_USUAL)
@example(values=_REJECTED["box-length-overflows"])
@example(values=_REJECTED["box-length-inf"])
@example(values=_REJECTED["far-field-density-inf"])
@example(values=_REJECTED["dt-overflows-the-step-count"])
@example(values=_REJECTED["negative-seed"])
@example(values=_REJECTED["bump-width-zero"])
@example(values=_REJECTED["bump-width-underflows"])
@example(values=_REJECTED["max-mode-not-whole"])
@example(values=_usual_with("grid", box_length=10**400))
@example(values={**_USUAL, "preset": {"name": "random-large", "max_mode": 1e300}})
@example(values={**_USUAL, "preset": {"name": "random-large", "velocity_amplitude": 1e200}})
@example(values={**_usual_with("grid", far_field_density=1e308), "preset": {"name": "gaussian-bump", "amplitude": 1e308}})
def test_values_give_a_state_or_a_config_error(values):
    _state_or_config_error(values)


def test_usual_values_give_a_state():
    assert _initial_state(parse_config(_text(_USUAL))).grid.n == 32


@pytest.mark.parametrize("values", list(_REJECTED.values()), ids=list(_REJECTED))
def test_rejected_value_exits_two(tmp_path, capsys, values):
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(_text(values, directory="run"))
    root = tmp_path / "root"
    assert cli_main(["run", str(cfg_path), "--output-root", str(root)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert "Traceback" not in err
    assert not root.exists()


# bool is a subclass of int: true and false once parsed as the numbers 1 and 0
_NUMBER_KEYS = ("dim", "n", "box_length", "far_field_density", "gamma", "dt", "t_end", "cfl_safety", "seed", "state_stride")


@pytest.mark.parametrize("value", ["true", "false"])
@pytest.mark.parametrize("key", _NUMBER_KEYS)
def test_a_boolean_is_no_number(tmp_path, capsys, key, value):
    lines = _text(_usual_with("solver", cfl_safety=0.5), directory="run").splitlines() + ["state_stride = 1"]
    lineno = next(i for i, line in enumerate(lines, 1) if line.startswith(f"{key} = "))
    lines[lineno - 1] = f"{key} = {value}"
    text = "\n".join(lines)
    with pytest.raises(ConfigError, match=rf"^line {lineno}: '{key}' must be (int|float), got {value.title()}$"):
        parse_config(text)
    cfg_path = tmp_path / "c.cfg"
    cfg_path.write_text(text)
    root = tmp_path / "root"
    assert cli_main(["run", str(cfg_path), "--output-root", str(root)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: line {lineno}: '{key}'")
    assert not root.exists()
