"""Benchmark of the miop command line: one workload per invocation.

    python3 perfbench/run.py --workload verify-sweep --seed 1 --seconds 35 --trace 0

Run from a checkout whose src/ holds the miop package. The workloads are a
closed loop, one client, one item at a time, MIOP_WORKERS unset (one worker);
workloads.py lists their items and why each was chosen.

Process plan, one child at a time:
  1. one untimed warm-up child, so .pyc compilation is not charged to set-up;
  2. SETUP_PROBES children that only import miop and resolve presets;
  3. timed passes over every item, each pass in a fresh interpreter so miop's
     caches start cold as they do for a CLI user, each in a new order drawn
     from the seed. A new pass starts only while the previous pass's
     duration still fits in --seconds, so a run ends near --seconds.

End-to-end timings are rescaled to a fixed host speed. On a shared 2-CPU
Xeon VM (2.1 GHz, Python 3.11) Python ran up to 2x slower for minutes at a
time, on both vCPUs at once, so raw wall time of the same code spread by
20-30% between runs. Each child therefore times a fixed pure-Python calibration loop
(child.calibrate) before and after every item, and an item's time is its
wall time x CAL_REF_S / (mean of those two calibrations): the seconds it
would take when the loop takes CAL_REF_S, about its time on an idle core of
that VM. Each item's time is the median of its rescaled repeats over the
passes; run_s is their sum (one full pass), item_p50_s and item_p90_s are
quantiles over the items. The report also prints the raw wall times.
setup_s is the raw median over all children, peak_rss_mb the median over
passes. ok_frac is 1 - failed_frac (failed items over attempted ones): a
metric that reads 0 on a healthy run cannot carry a relative bound.

With --trace 1, untraced and traced passes alternate; the per-layer metrics
are medians over the traced passes and trace.overhead_frac compares the two
kinds' run_s. A traced verify-sweep run then traces W {I1,I2,I3} at the
default window once, for its stage breakdown.

The last line of stdout is one JSON object {correct, attempted, failed,
metrics}: the end-to-end metrics with --trace 0, the per-layer ones with
--trace 1. The lines above it are a readable report of the same run: the run
record (seed, versions, machine), every metric with its unit, and the
exactness verdict. Spans of traced passes go to .perfbench/ in the checkout.
Exit status is nonzero, with no JSON line, when the run cannot be made.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 3
CHILD_LIMIT_S = 170.0  # every child must end before the run's 180 s limit
MIN_COVERAGE = 0.95  # root spans must cover this share of a traced pass
CAL_REF_S = 0.0035  # child.calibrate() on an idle core of the VM named above

END_TO_END = {
    "run_s": "s",
    "item_p50_s": "s",
    "item_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
}
LAYER_UNITS = {".calls": "count", ".s": "s", ".self_s": "s", ".incl_s": "s",
               ".evals": "count", ".us_per_eval": "us", ".bytes_out": "bytes",
               ".max_coeff_bits": "bits", ".unique": "count", ".redundancy": "ratio",
               ".hits": "count", ".misses": "count", "_frac": "fraction", ".coverage": "fraction"}

# ROADMAP baseline split of W {I1,I2,I3} at the default window -4..8 (s)
BASELINE_W123 = {
    "verify.genericity_probe": 3.2,
    "multiindex.build": 4.6,
    "verify.prefix-chain": 5.7,
    "verify.permutation": 2.3,
    "verify.seed-proportionality": 0.5,
    "verify.rtable-shift": 0.5,
}


class BenchError(Exception):
    """The run could not be made; no result is printed."""


def layer_unit(name: str) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    raise KeyError(name)


def _child_env() -> dict:
    env = dict(os.environ)
    for key in ("MIOP_WORKERS", "MIOP_TRACE"):
        env.pop(key, None)
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    env["PYTHONHASHSEED"] = "0"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Runner:
    """Spawns children one at a time, within the run's time limit."""

    def __init__(self):
        self.started = perf_counter()
        self.env = _child_env()

    def spawn(self, spec: dict) -> dict:
        limit = CHILD_LIMIT_S - (perf_counter() - self.started)
        if limit <= 0:
            raise BenchError("no time left for another child process")
        spawned = perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py")], input=json.dumps(spec),
                capture_output=True, text=True, env=self.env, cwd=ROOT, timeout=limit,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"a pass ran past the {CHILD_LIMIT_S:.0f} s limit") from exc
        if proc.returncode != 0:
            tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
            raise BenchError(f"child process exited {proc.returncode}:\n{tail}")
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        record["setup_s"] = record["ready"] - spawned
        record["wall_s"] = perf_counter() - spawned
        return record


def _p90(values: list) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def item_medians(passes: list, rescale: bool = True) -> dict:
    """Each item's median time over the passes, rescaled to CAL_REF_S or raw."""
    times = {}
    for rec in passes:
        for item in rec["items"]:
            s = item["s"] * CAL_REF_S / item["cal_s"] if rescale else item["s"]
            times.setdefault(item["id"], []).append(s)
    return {key: statistics.median(values) for key, values in times.items()}


def measure(workload: str, seed: int, seconds: float, trace: bool,
            items: list = None, reference: dict = None) -> dict:
    """Run the workload for about `seconds` and return the run's results.

    `items` and `reference` default to the full workload and the recorded
    reference; a subset of items skips the nonzero-counter check and the
    breakdown item.
    """
    if not (ROOT / "src" / "miop" / "__init__.py").is_file():
        raise BenchError(f"no miop sources under {ROOT / 'src'}")
    full = items is None
    if full:
        items = workloads.items(workload, seed)
    if reference is None:
        reference = json.loads((HERE / "reference.json").read_text())
    reference = reference.get(workload, {})
    runner = Runner()
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "git_sha": _git_sha(), "nproc": os.cpu_count(),
              "load1": os.getloadavg()[0]}
    warm = runner.spawn({"items": [], "reference": reference, "versions": True})
    record.update(warm["versions"])

    begin = perf_counter()
    setups = [runner.spawn({"items": items, "reference": reference, "setup_only": True})["setup_s"]
              for _ in range(SETUP_PROBES)]
    rng = random.Random(seed)
    trace_dir = ROOT / ".perfbench"
    passes, traced = [], []
    while True:
        # with --trace 1, untraced and traced passes alternate
        traced_pass = trace and len(passes) > len(traced)
        order = list(items)
        rng.shuffle(order)
        spec = {"items": order, "reference": reference, "trace": traced_pass}
        if traced_pass:
            trace_dir.mkdir(exist_ok=True)
            spec["spans_path"] = str(trace_dir / f"trace-{workload}-seed{seed}-{len(traced)}.jsonl")
        rec = runner.spawn(spec)
        (traced if traced_pass else passes).append(rec)
        setups.append(rec["setup_s"])
        if trace and not traced:
            continue
        if perf_counter() - begin + rec["wall_s"] > seconds:
            break

    extra = []
    if trace and full and workload == "verify-sweep":
        extra.append(runner.spawn({"items": [workloads.breakdown_item(seed)],
                                   "reference": reference, "trace": True}))
    all_items = [it for rec in passes + traced + extra for it in rec["items"]]
    failures = [it for it in all_items if it["error"] is not None]
    result = {"record": record, "attempted": len(all_items), "failed": len(failures),
              "failures": failures, "passes": len(passes), "traced_passes": len(traced)}
    per_item = list(item_medians(passes).values())
    result["end_to_end"] = {
        "run_s": sum(per_item),
        "item_p50_s": statistics.median(per_item),
        "item_p90_s": _p90(per_item),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rec["maxrss_mb"] for rec in passes),
        "ok_frac": 1.0 - len(failures) / len(all_items),
    }
    cals = [it["cal_s"] for rec in passes for it in rec["items"]]
    result["raw"] = {"run_s": sum(item_medians(passes, rescale=False).values()),
                     "fastest_pass_s": min(rec["pass_s"] for rec in passes),
                     "cal_median_s": statistics.median(cals)}
    result["samples"] = {"items": len(per_item), "setup": len(setups)}
    if trace:
        result["layers"] = _layer_metrics(traced, result["end_to_end"]["run_s"])
        result["breakdown"] = traced[0]["breakdown"]
        if extra:
            result["breakdown"].update(extra[0]["breakdown"])
        if full:
            zero = [n for n in workloads.EXPECTED_NONZERO[workload] if not result["layers"][n]]
            if zero:
                raise BenchError(f"per-layer counters read zero on {workload}: {', '.join(zero)}")
    return result


def _layer_metrics(traced: list, untraced_run_s: float) -> dict:
    for rec in traced:
        coverage = rec["layers"]["trace.coverage"]
        if coverage < MIN_COVERAGE:
            raise BenchError(f"root spans cover {coverage:.1%} of a traced pass, "
                             f"below {MIN_COVERAGE:.0%}")
    out = {}
    for name in tracer.metric_names():
        if name == "trace.overhead_frac":
            out[name] = sum(item_medians(traced).values()) / untraced_run_s - 1.0
        else:
            out[name] = statistics.median(rec["layers"][name] for rec in traced)
    return out


def report(result: dict) -> list:
    """Readable lines: run record, metrics with units, verdict."""
    rec = result["record"]
    lines = [
        f"perfbench {rec['workload']} seed={rec['seed']} seconds={rec['seconds']} trace={rec['trace']}",
        f"  git {rec['git_sha']}  python {rec['python']}  numpy {rec['numpy']}  "
        f"mpmath {rec['mpmath']}  nproc {rec['nproc']}  load1 {rec['load1']:.2f}",
        f"  passes {result['passes']} untraced + {result['traced_passes']} traced; "
        f"{result['samples']['items']} items (each the median of its untraced passes), "
        f"{result['samples']['setup']} set-up samples",
        f"  raw wall time: run_s {result['raw']['run_s']:.4f} s, fastest full pass "
        f"{result['raw']['fastest_pass_s']:.4f} s; calibration median "
        f"{result['raw']['cal_median_s'] * 1e3:.3f} ms against {CAL_REF_S * 1e3:.3f} ms",
    ]
    e2e = result["end_to_end"]
    lines.append("  end-to-end (times rescaled to the reference speed):")
    for name, unit in END_TO_END.items():
        lines.append(f"    {name:<14} {e2e[name]:>12.6g} {unit}")
    lines.append(f"    failed_frac    {result['failed'] / result['attempted']:>12.6g} "
                 f"({result['failed']} of {result['attempted']} items)")
    if "layers" in result:
        lines.append("  per-layer (traced):")
        for name, value in result["layers"].items():
            lines.append(f"    {name:<40} {value:>14.6g} {layer_unit(name)}")
        lines.append("  root spans (item, s, unattributed share):")
        for item, info in sorted(result["breakdown"].items()):
            share = info["unattributed_s"] / info["s"] if info["s"] else 0.0
            lines.append(f"    {item:<44} {info['s']:>9.4f} {share:>7.2%}")
        w123 = result["breakdown"].get(workloads.breakdown_item(0)["id"] + " [verify]")
        if w123:
            lines.append("  W {I1,I2,I3} run_all breakdown at window -4..8 (s), "
                         "ROADMAP baseline alongside:")
            for name, seconds in sorted(w123["run_all"].items(), key=lambda kv: -kv[1]):
                base = BASELINE_W123.get(name)
                lines.append(f"    {name:<32} {seconds:>8.3f}   "
                             + (f"baseline {base:.1f}" if base is not None else ""))
    verdict = "EXACT" if not result["failed"] else "NOT EXACT"
    lines.append(f"  verdict: {verdict}")
    for item in result["failures"]:
        lines.append(f"    FAILED {item['id']}: {item['error']}")
    return lines


def result_line(result: dict) -> dict:
    if "layers" in result:
        metrics = {name: {"value": v, "unit": layer_unit(name)} for name, v in result["layers"].items()}
    else:
        metrics = {name: {"value": result["end_to_end"][name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print("\n".join(report(result)), flush=True)
    print(json.dumps(result_line(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
