import numpy as np
import pytest

from pcrlb.cli import random_spd, random_stable_linear_model  # noqa: F401  (re-exported for the test modules)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
