"""One route between the formulations: ``Workspace.velocity`` is the only
place u + grad log rho (v - grad log rho) is formed.

``to_effective``, ``from_effective``, the ``sobolev.v.H<k>`` probes and the
far-field check read it one component at a time; each must give the floats
of the whole-array forms it replaced (``tests/oracles.py``) bit for bit, on
either formulation, in 2D and 3D.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from nsklab.fields import make_grid
from nsklab.probes import resolve_probes
from nsklab.solver import (
    FAR_FIELD_TOL,
    PRESET_NAMES,
    Workspace,
    far_field_defect,
    from_effective,
    make_preset,
    to_effective,
)

SOBOLEV = resolve_probes(["sobolev.v.H1", "sobolev.v.H2"], 2.0)


def _grid(dim: int):
    return make_grid(dim, 32 if dim == 2 else 16, 4 * np.pi, 1.0)


def _wide_bump(formulation: str):
    """A 2D bump wide enough that its rim defect is far above FAR_FIELD_TOL."""
    s = make_preset("gaussian-bump", _grid(2), {"amplitude": 0.8, "width": 3.0})
    return to_effective(s) if formulation == "effective" else s


@st.composite
def _states(draw):
    grid = _grid(draw(st.sampled_from([2, 3])))
    name = draw(st.sampled_from(PRESET_NAMES))
    params = {}
    if name == "gaussian-bump":
        params = {"amplitude": draw(st.floats(-0.9, 3.0)), "width": draw(st.floats(0.5, 3.0))}
    elif name == "random-large":
        params = {
            "amplitude": draw(st.floats(-0.9, 0.9)),
            "velocity_amplitude": draw(st.floats(0.0, 1.0)),
            "max_mode": draw(st.integers(0, 6)),
        }
    s = make_preset(name, grid, params, seed=draw(st.integers(0, 2**32)))
    return to_effective(s) if draw(st.sampled_from(["primitive", "effective"])) == "effective" else s


def _converted(s):
    """The route's conversion of s and the oracle's."""
    if s.formulation == "primitive":
        return to_effective(s), oracles.effective(Workspace(s))
    return from_effective(s), oracles.primitive(Workspace(s))


@given(state=_states())
@settings(max_examples=60, deadline=None)
@example(state=_wide_bump("primitive"))
@example(state=_wide_bump("effective"))
def test_one_route_gives_the_old_bits(state):
    new, old = _converted(state)
    assert new.formulation == old.formulation and new.t == old.t
    assert np.array_equal(new.rho.values, old.rho.values)
    assert np.array_equal(new.vel.components, old.vel.components)
    effective_vel = oracles.effective(Workspace(state)).vel
    for k in (1, 2):
        assert SOBOLEV[f"sobolev.v.H{k}"](Workspace(state)) == oracles.vector_sobolev_norm(effective_vel, k)
    assert far_field_defect(Workspace(state)) == oracles.far_field_defect(state)


@pytest.mark.parametrize("formulation", ["primitive", "effective"])
def test_the_rim_comparison_is_not_of_zeros(formulation):
    s = _wide_bump(formulation)
    defect = far_field_defect(Workspace(s))
    assert defect > 1e3 * FAR_FIELD_TOL
    assert defect == oracles.far_field_defect(s)


def test_a_wrong_sign_fails():
    # negative control: the oracle with + in place of - is no longer the route
    s = _wide_bump("effective")
    wrong = oracles.primitive(Workspace(s), sign=-1.0)
    assert not np.array_equal(from_effective(s).vel.components, wrong.vel.components)
    assert far_field_defect(Workspace(s)) != oracles.far_field_defect(s, sign=-1.0)
