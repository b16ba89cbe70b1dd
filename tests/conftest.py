import numpy as np
import pytest

from nsklab.fields import Grid, make_grid, random_band_limited
from nsklab.probes import audit_observer
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
    """A list that records ``"rfft"`` or ``"irfft"`` for every ``Grid.rfft``/
    ``Grid.irfft`` call made from now on.  A ``numpy.fft`` function entered
    outside those two methods fails the test, so no transform goes uncounted."""
    calls, stray, depth = [], [], [0]

    def counted(name, method):
        def call(self, *a, **k):
            calls.append(name)
            depth[0] += 1
            try:
                return method(self, *a, **k)
            finally:
                depth[0] -= 1

        return call

    def guarded(name, fn):
        def call(*a, **k):
            if not depth[0]:
                stray.append(name)
                raise AssertionError(f"numpy.fft.{name} entered outside Grid.rfft/Grid.irfft")
            return fn(*a, **k)

        return call

    for name in ("rfft", "irfft"):
        monkeypatch.setattr(Grid, name, counted(name, getattr(Grid, name)))
    for name in FFT_NAMES:
        monkeypatch.setattr(np.fft, name, guarded(name, getattr(np.fft, name)))
    yield calls
    assert not stray, f"numpy.fft entered outside Grid.rfft/Grid.irfft: {stray}"


@pytest.fixture(scope="session")
def observed():
    """``observed(states, names, ctx)``: the audit ``ctx`` once the named
    audits' per-state parts (``probes.audit_observer``) have seen each
    state's ``Workspace``, as a run hands them the states it stores."""

    def feed(states, names, ctx):
        observe = audit_observer(names, ctx)
        for s in states:
            observe(Workspace(s), True)
        return ctx

    return feed


@pytest.fixture(scope="session")
def collecting():
    """``collecting(states, observe=None)``: an observer for ``run()`` that
    appends each state the run stores to the list ``states``, then hands the
    sample on to ``observe``."""

    def observer(states, observe=None):
        def collect(ws, stored):
            if stored:
                states.append(ws.state)
            if observe is not None:
                observe(ws, stored)

        return collect

    return observer
