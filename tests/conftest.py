from dataclasses import replace

import pytest
from hypothesis import HealthCheck, settings

from rampopt.plant import SurrogatePlant, default_surrogate_config

settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def clean_config():
    return replace(default_surrogate_config(), noise_std=0.0)


@pytest.fixture(scope="session")
def clean_plant(clean_config):
    return SurrogatePlant(clean_config)


@pytest.fixture(scope="session")
def noisy_plant():
    return SurrogatePlant()


@pytest.fixture(scope="session")
def coupled_plant(clean_config):
    return SurrogatePlant(replace(clean_config, coupling_enabled=True))
