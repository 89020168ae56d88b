import numpy as np
import pytest

from jcrevival import JcmConfig, SeriesSpec, jcm


@pytest.fixture(autouse=True)
def fresh_families():
    """Each test builds its families as a new process would: a test that
    counts grid builds must not find another test's families cached."""
    jcm._family.cache_clear()


@pytest.fixture(scope="session")
def cfg4():
    return JcmConfig(alpha=4.0)


@pytest.fixture(scope="session")
def cfg4_detuned():
    return JcmConfig(alpha=4.0, delta_omega=4.0, kappa=1.0)


@pytest.fixture(scope="session")
def series200():
    return SeriesSpec(n_max=200)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20100720)
