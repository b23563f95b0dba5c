"""Smoke test of scripts/depth_bench.py: it runs to exit 0 on a small input."""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_depth_bench_reports_one_tree(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for depth, sets in ((4, ["I1,I2,I3,II1", "I1,I2,I3,I4"]), (1, ["II1", "I1"])):
        argv = [sys.executable, str(ROOT / "scripts" / "depth_bench.py"),
                "--presets", "l-default", "--depths", str(depth), "--runs", "1"]
        proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        cases = json.loads(proc.stdout)["cases"]
        assert [(c["preset"], c["depth"], c["D"]) for c in cases] == [("l-default", depth, D) for D in sets]
        for case in cases:
            assert case["identical_stdout"] and case["last_line"] == "PASS"
            assert [len(ts) for ts in case["times_s"].values()] == [1]
