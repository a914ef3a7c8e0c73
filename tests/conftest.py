import pytest

from qrh import rhsolver


@pytest.fixture(autouse=True)
def _empty_lattice_memo():
    """Every test starts with no lattice analysis kept, so a test that counts
    classify, _split or decompose calls does not depend on which tests ran before."""
    rhsolver._lattice_analysis.cache_clear()
    yield
