"""Smoke tests of scripts/: each runs to exit 0 on a small input."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script,args", [
    ("export_tables.py", ["--out-dir", "{tmp}", "--N", "1"]),
    ("sweep_identities.py", ["--n-hi", "0"]),
    ("ortho_report.py", ["--n-max", "0"]),
], ids=["export_tables", "sweep_identities", "ortho_report"])
def test_script_exits_zero(tmp_path, script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = [sys.executable, str(ROOT / "scripts" / script)]
    argv += [a.format(tmp=tmp_path) for a in args]
    proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
