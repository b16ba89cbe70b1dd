import numpy as np
import pytest

from nsklab.fields import make_grid, random_band_limited
from nsklab.probes import stored_state_observer
from nsklab.solver import Workspace


@pytest.fixture(scope="session")
def grid64():
    return make_grid(2, 64, 2 * np.pi, 1.0)


@pytest.fixture(scope="session")
def grid64_wide():
    return make_grid(2, 64, 4 * np.pi, 1.0)


@pytest.fixture(scope="session")
def grid3d():
    return make_grid(3, 32, 4 * np.pi, 1.0)


@pytest.fixture(scope="session")
def corpus64(grid64):
    rng = np.random.default_rng(2024)
    return [random_band_limited(grid64, rng, max_mode=int(rng.integers(2, 20))) for _ in range(20)]


FFT_NAMES = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
    "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft",
)


@pytest.fixture
def transforms(monkeypatch):
    """A list that records the name of every numpy.fft call made from now on."""
    calls = []
    for name in FFT_NAMES:
        fn = getattr(np.fft, name)
        monkeypatch.setattr(
            np.fft, name, lambda *a, _fn=fn, _name=name, **k: calls.append(_name) or _fn(*a, **k)
        )
    return calls


@pytest.fixture(scope="session")
def observed():
    """``observed(states, names, ctx)``: the audit ``ctx`` once the named
    audits' per-state parts (``probes.stored_state_observer``) have seen each
    state's ``Workspace``, as a run hands them the states it stores."""

    def feed(states, names, ctx):
        observe = stored_state_observer(names, ctx)
        for s in states:
            observe(Workspace(s))
        return ctx

    return feed
