import pytest

from nlfem.quadrature import default_cache


@pytest.fixture(autouse=True)
def _fresh_rule_cache():
    """Every test starts and ends with an empty process-wide rule cache."""
    default_cache().clear()
    yield
    default_cache().clear()
