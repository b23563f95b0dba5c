"""Record perfbench/reference.json, the exactness reference of the benchmark.

    python3 perfbench/record_reference.py

Runs every verify-sweep and export-artifacts item once, in process, and
stores the verify row counts and the export digests (gen content_sha256 and
rtable CSV sha256). Record it only at a commit whose outputs are trusted: a
later change to miop must reproduce these digests, not re-record them.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import miop.cli  # noqa: E402

import workloads  # noqa: E402
from child import run_argv  # noqa: E402


def record() -> dict:
    ref = {"verify-sweep": {}, "export-artifacts": {}}
    for workload in ref:
        extra = [workloads.breakdown_item(0)] if workload == "verify-sweep" else []
        for item in workloads.items(workload, seed=0) + extra:
            outs = []
            for argv in item["argvs"]:
                code, out, err = run_argv(miop.cli.main, argv)
                if code != 0:
                    raise SystemExit(f"{item['id']}: miop {argv[0]} exited {code}: {err}")
                outs.append(out)
            if workload == "verify-sweep":
                lines = outs[0].splitlines()
                if lines[-1] != "PASS":
                    raise SystemExit(f"{item['id']}: verdict {lines[-1]!r}")
                ref[workload][item["id"]] = {"rows": len(lines) - 1}
            else:
                ref[workload][item["id"]] = {
                    "gen_sha256": workloads.gen_digest(outs[0]),
                    "rtable_csv_sha256": workloads.sha256(outs[1]),
                }
    return ref


if __name__ == "__main__":
    (HERE / "reference.json").write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
