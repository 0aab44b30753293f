import pytest
from hypothesis import settings

from hyperseries import corpus
from hyperseries.config import load_config
from hyperseries.nets import EpsGrid, Gauge
from hyperseries.series import HpsCoefficients

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def grid():
    return EpsGrid.decades()


@pytest.fixture(scope="session")
def rho():
    return Gauge.from_text("eps", "rho")


@pytest.fixture(scope="session")
def sigma():
    return Gauge.from_text("eps", "sigma")


@pytest.fixture(scope="session")
def env():
    return load_config()


@pytest.fixture(scope="session")
def corpus_family():
    """Fresh coefficients of a named :data:`hyperseries.corpus.EXPR_FAMILIES`
    family, the table :func:`hyperseries.corpus.build_series` builds."""
    return lambda name: HpsCoefficients.from_expr(corpus.EXPR_FAMILIES[name])
