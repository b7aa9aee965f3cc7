import os

import numpy as np
import pytest
from hypothesis import settings

import biphoton as bp

# numerical kernels can exceed the default 200 ms on cold caches
settings.register_profile("numeric", deadline=None)
settings.load_profile("numeric")


def make_random_spectrum(rng: np.random.Generator, n: int = 5) -> bp.BiphotonSpectrum:
    """Unit-norm spectrum with i.i.d. complex normal entries."""
    grid = bp.make_grid(0.0, 1.0, n)
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return bp.BiphotonSpectrum.from_array(grid, raw)


@pytest.fixture(autouse=True)
def no_unreaped_child():
    """Fail a test that leaves a child process running or unreaped."""
    yield
    if not hasattr(os, "fork"):
        return
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process behind (waitpid gave pid {pid})")


@pytest.fixture
def rng():
    return np.random.default_rng(987654321)


@pytest.fixture
def random_spectrum(rng):
    return make_random_spectrum(rng, 7)


@pytest.fixture
def balanced():
    return bp.BeamSplitterParams.balanced()


def pytest_terminal_summary(terminalreporter):
    """One pass/fail line per acceptance criterion that ran."""
    try:
        from test_acceptance import _cache
    except ImportError:
        return
    if _cache:
        terminalreporter.section("acceptance criteria")
        for number in sorted(_cache):
            terminalreporter.write_line(_cache[number].summary_line())
