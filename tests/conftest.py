import numpy as np
import pytest
from hypothesis import settings

from darklind.effective import dark_space
from darklind.protocols import linear_path, spin32_protocol

# property tests: the same examples on every run, none stored between runs,
# and no per-example deadline (a first call may build caches)
settings.register_profile("darklind", derandomize=True, deadline=None, database=None)
settings.load_profile("darklind")


@pytest.fixture(scope="session")
def spin32_linear():
    """The single-winding spin-3/2 protocol at gammaT = 200."""
    return spin32_protocol(linear_path(1, 0), 200.0)


@pytest.fixture(scope="session")
def spin32_ds(spin32_linear):
    return dark_space(spin32_linear.L_rot)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260809)
