import os
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

import qmod
from qmod.fields import QQ, DEFAULT_PRIME, PrimeField

settings.register_profile(
    "exact",
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("exact")


@pytest.fixture(scope="session")
def fp():
    return PrimeField(DEFAULT_PRIME)


@pytest.fixture(scope="session")
def qq():
    return QQ


@pytest.fixture(scope="session")
def qmod_env():
    """Environment for a ``python -m qmod`` subprocess that imports the
    package under test, with or without PYTHONPATH set for pytest."""
    return dict(os.environ, PYTHONPATH=str(Path(qmod.__file__).parents[1]))
