"""The benchmark tracer patches miop from outside src/; keep that working.

perfbench/tracer.py wraps module functions and class methods by name
(Poly.__mul__, LaurentPoly.exact_div, GaussianRational.__mul__, ...). A
rename, or a class layout in which one carrier's or one scalar class's
method is another's, breaks `perfbench/run.py --trace 1`; this test makes
such a change fail the main suite too.
"""
import sys
from pathlib import Path

from miop.exact import GaussianRational, LaurentPoly, Poly, SqrtQRational

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracer  # noqa: E402


def test_install_then_uninstall_restores_every_attribute():
    t = tracer.Tracer()
    patched = []
    try:
        t.install()
        patched = list(t._undo)
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, f"{owner.__name__}.{attr}"
        # each carrier's and each scalar class's multiply is wrapped separately,
        # so the counters stay apart
        assert Poly.__mul__ is not LaurentPoly.__mul__
        assert GaussianRational.__mul__ is not SqrtQRational.__mul__
    finally:
        t.uninstall()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr}"
    assert Poly.__mul__ is LaurentPoly.__mul__ is Poly.__rmul__
    for cls in (GaussianRational, SqrtQRational):
        assert cls.__mul__ is cls.__rmul__, cls.__name__
