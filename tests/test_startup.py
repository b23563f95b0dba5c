"""Start-up cost of the command line: what a fresh process loads, and the parser.

numpy and mpmath serve only `ortho`, and the process pool only
MIOP_WORKERS > 1, so importing miop.cli and running `gen`, `rtable` or
`verify` must load none of them; every `ortho` grid loads numpy and mpmath.
main builds its parser once per process; a sequence of calls in one process
must behave as each call does alone in a fresh interpreter.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import miop
from miop.cli import main

from .test_cli import _GOLDEN_J, _GOLDEN_L

_SRC = str(Path(miop.__file__).resolve().parents[1])
_HEAVY = ("numpy", "mpmath", "concurrent.futures")

# runs main on argv (none: import only), then reports on stderr which of
# _HEAVY the process loaded
_PROBE = f"""
import json, sys
import miop.cli
code = miop.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
heavy = sorted({{h for h in {_HEAVY!r} for m in sys.modules if m == h or m.startswith(h + ".")}})
print(json.dumps({{"code": code, "heavy": heavy}}), file=sys.stderr)
"""


def _fresh(*args) -> subprocess.CompletedProcess:
    path = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path)
    env.pop("MIOP_WORKERS", None)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=120)


def _probe(*argv) -> tuple:
    proc = _fresh("-c", _PROBE, *argv)
    report = json.loads(proc.stderr.splitlines()[-1])
    return report["code"], report["heavy"], proc.stdout


class TestImportBoundary:
    def test_import_loads_no_float_or_pool_modules(self):
        assert _probe() == (0, [], "")

    def test_gen_loads_no_float_or_pool_modules(self):
        code, heavy, out = _probe("gen", "--preset", "l-default", "--D", "I1", "--N", "2")
        assert code == 0 and heavy == []
        assert json.loads(out)["degree_Xi"] == 1

    @pytest.mark.parametrize("argv", [
        ("rtable", "--preset", "l-default", "--M", "1", "--window=-2..3", "--format", "csv"),
        ("verify", "--preset", "l-default", "--D", "I1", "--n-range=-2..2"),
    ], ids=["rtable", "verify"])
    def test_rtable_and_verify_load_no_float_or_pool_modules(self, argv):
        code, heavy, out = _probe(*argv)
        assert code == 0 and heavy == [] and out

    def test_laguerre_ortho_loads_them_on_use_and_keeps_its_bits(self):
        # tanh-sinh sums each node set as a numpy array too
        code, heavy, out = _probe("ortho", "--preset", "l-default", "--D", "I1,II1", "--n", "0..2")
        assert code == 0 and heavy == ["mpmath", "numpy"]
        assert out == _GOLDEN_L

    def test_ortho_loads_them_on_use_and_keeps_its_bits(self):
        # J integrates by Gauss-Legendre, so it needs numpy as well as mpmath
        code, heavy, out = _probe("ortho", "--preset", "j-default", "--D", "I1", "--n", "0..2")
        assert code == 0 and heavy == ["mpmath", "numpy"]
        assert out == _GOLDEN_J


# one process, in this order: every subcommand, a negative window given with a
# space, a configuration error and an argparse rejection, then the first call again
_SEQUENCE = [
    ("gen", "--preset", "l-default", "--D", "I1", "--N", "2"),
    ("rtable", "--preset", "l-default", "--M", "1", "--window", "-2..3", "--format", "csv"),
    ("verify", "--preset", "l-default", "--D", "I1", "--n-range", "-2..2"),
    ("ortho", "--preset", "l-default", "--D", "I1", "--n", "0..1"),
    ("gen", "--preset", "nope", "--D", "I1"),
    ("gen", "--preset", "l-default", "--N", "two"),
    ("gen", "--preset", "l-default", "--D", "I1", "--N", "2"),
]


def _in_process(capsys, argv) -> tuple:
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejects bad flags this way
        code = exc.code
    return code, capsys.readouterr().out


def test_cached_parser_keeps_calls_independent(capsys):
    seen = [_in_process(capsys, argv) for argv in _SEQUENCE]
    assert [code for code, _ in seen] == [0, 0, 0, 0, 2, 2, 0]
    assert seen[-1] == seen[0]
    alone = {}
    for argv, got in zip(_SEQUENCE, seen):
        if argv not in alone:
            proc = _fresh("-m", "miop", *argv)
            alone[argv] = (proc.returncode, proc.stdout)
        assert got == alone[argv], argv

