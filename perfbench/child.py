"""One benchmark pass of miop in a fresh interpreter.

Reads a JSON spec on stdin, imports miop, runs each item's command lines
through `miop.cli.main` with stdout and stderr captured, checks the outputs
after the timed loop, and writes one JSON record as the last line of stdout.
`ready` in the record is the perf_counter reading (system-wide monotonic
clock) once miop is imported and the workload's presets are resolved; the
parent subtracts its spawn time from it to get set-up time.
"""

import contextlib
import io
import json
import resource
import sys
from fractions import Fraction
from time import perf_counter


def calibrate() -> float:
    """Seconds for a fixed pure-Python Fraction and dict loop, best of two.

    Timed next to every item, it tracks how fast the host runs Python at
    that moment; run.py rescales each item's time by it.
    """
    best = float("inf")
    for _ in range(2):
        start = perf_counter()
        acc = Fraction(0)
        for k in range(1, 600):
            acc += Fraction(k, k + 1) * Fraction(1, 3)
        table = {}
        for k in range(8000):
            table[k % 97] = table.get(k % 97, 0) + k * k
        best = min(best, perf_counter() - start)
    return best


def _resolve_presets(items, presets):
    for item in items:
        for argv in item["argvs"]:
            if "--preset" in argv:
                presets[argv[argv.index("--preset") + 1]]


def run_argv(run, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:  # argparse rejects bad flags this way
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def main() -> int:
    spec = json.load(sys.stdin)
    import miop.cli
    from miop.families import PRESETS

    import workloads

    items = spec["items"]
    _resolve_presets(items, PRESETS)
    ready = perf_counter()
    record = {"ready": ready}
    if spec.get("setup_only"):
        sys.stdout.write(json.dumps(record) + "\n")
        return 0
    if spec.get("versions"):
        import mpmath
        import numpy

        record["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                              "mpmath": mpmath.__version__}

    tracer = None
    if spec.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    results = []
    cal = calibrate()
    for item in items:
        codes, outs, error = [], [], None
        t0 = perf_counter()
        for argv in item["argvs"]:
            try:
                if tracer is None:
                    code, out, err = run_argv(miop.cli.main, argv)
                else:
                    code, out, err = tracer.root(f"{item['id']} [{argv[0]}]", run_argv,
                                                 miop.cli.main, argv)
            except Exception as exc:  # one broken item must not abort the pass
                error = f"{argv[0]} raised {type(exc).__name__}: {exc}"
                break
            if code != 0 and err:
                error = f"`miop {argv[0]}` exited {code}: {err.strip().splitlines()[-1]}"
            codes.append(code)
            outs.append(out)
        seconds = perf_counter() - t0
        next_cal = calibrate()
        results.append((item, seconds, (cal + next_cal) / 2, codes, outs, error))
        cal = next_cal
    if tracer is not None:
        tracer.uninstall()

    pass_s = sum(r[1] for r in results)
    record["pass_s"] = pass_s
    record["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["items"] = []
    bytes_out = 0
    for item, seconds, cal, codes, outs, error in results:
        bytes_out += sum(len(out.encode()) for out in outs)
        if error is None:
            try:
                error = workloads.check(item, codes, outs, spec["reference"])
            except Exception as exc:  # malformed output is a failed item, not a crash
                error = f"check raised {type(exc).__name__}: {exc}"
        record["items"].append({"id": item["id"], "s": seconds, "cal_s": cal, "error": error})
    if tracer is not None:
        record["layers"] = tracer.metrics(pass_s, bytes_out)
        record["breakdown"] = tracer.item_breakdown()
        if spec.get("spans_path"):
            with open(spec["spans_path"], "w") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(span) + "\n")
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
