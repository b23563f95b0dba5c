"""Suite-wide fixtures."""
import pytest

from miop.rtable import shared_rtable


@pytest.fixture(autouse=True)
def cold_memo():
    """Every test starts and ends with an empty rtable.shared_rtable, so
    test order cannot change a result; the fixture's value empties it again
    mid-test.  families.classical_poly's cache is left alone."""
    shared_rtable.cache_clear()
    yield shared_rtable.cache_clear
    shared_rtable.cache_clear()
