"""Suite-wide fixtures."""
import pytest

from miop.families import three_term
from miop.rtable import shared_rtable


def _clear():
    shared_rtable.cache_clear()
    three_term.cache_clear()


@pytest.fixture(autouse=True)
def cold_memo():
    """Every test starts and ends with an empty rtable.shared_rtable and
    families.three_term, so test order cannot change a result; the
    fixture's value empties them again mid-test.  families.classical_poly's
    cache is left alone."""
    _clear()
    yield _clear
    _clear()
