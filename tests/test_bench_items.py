"""Every benchmark item, run in-process, passes the benchmark's own check.

perfbench/workloads.py lists the items of each workload and checks their
outputs: verify verdicts and row counts, gen and rtable digests against
perfbench/reference.json, ortho rows against the acceptance tolerances.
Running them here makes a changed gen or rtable digest fail the main suite,
not only a benchmark run.
"""
import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from miop.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402

REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())
ITEMS = [(w, item) for w in workloads.WORKLOADS for item in workloads.items(w, 0)]


@pytest.mark.parametrize("workload,item", ITEMS,
                         ids=[f"{w}:{item['id']}" for w, item in ITEMS])
def test_item_matches_reference(workload, item):
    codes, outs, errs = [], [], []
    for argv in item["argvs"]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            codes.append(main(argv))
        outs.append(out.getvalue())
        errs.append(err.getvalue())
    assert workloads.check(item, codes, outs, REFERENCE.get(workload, {})) is None, errs
