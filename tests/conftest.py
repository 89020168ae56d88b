import contextlib
import os
import warnings

import numpy as np
import pytest

from jcrevival import JcmConfig, SeriesSpec, jcm

# Hypothesis imports this module to report a failing example; its libcst
# import warns, which the suite's error::DeprecationWarning filter turns into
# an INTERNALERROR that names no test and stops the run.  Imported once here,
# with the warning ignored, it is cached by the time a report needs it.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401


@pytest.fixture(autouse=True)
def fresh_families():
    """Each test builds its families as a new process would: a test that
    counts grid builds must not find another test's families cached."""
    jcm._family.cache_clear()


@pytest.fixture
def no_large_grids(monkeypatch):
    """quadrature.build_grid failing past 1e6 nodes, so a missing guard
    fails the test instead of allocating gigabytes."""
    build_grid = jcm.quadrature.build_grid

    def bounded(a, b, spec):
        assert (b - a) / spec.step <= 1e6, "an aliased grid was built"
        return build_grid(a, b, spec)

    monkeypatch.setattr(jcm.quadrature, "build_grid", bounded)


@pytest.fixture
def cpus(monkeypatch):
    """cpus(n) gives this process n CPUs to run on, as the CLI counts them
    for its workers; a platform without an affinity call gains one."""
    def set_cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                            raising=False)
    return set_cpus


@pytest.fixture(scope="session")
def cfg4():
    return JcmConfig(alpha=4.0)


@pytest.fixture(scope="session")
def cfg4_detuned():
    return JcmConfig(alpha=4.0, delta_omega=4.0)


@pytest.fixture(scope="session")
def series200():
    return SeriesSpec(n_max=200)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20100720)
