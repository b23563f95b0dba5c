"""Workload definitions and output checks for the miop benchmark.

Each workload is a fixed list of items. An item is one or two `miop` command
lines run through `miop.cli.main` in the same process; its output is checked
for exactness against `reference.json` or against the acceptance tolerances.
The item list does not depend on the seed: the seed only feeds `verify --seed`
(the permutation probe) and the order of items within a pass, so run-to-run
spread measures the program rather than a changing input mix.

A shared 2-CPU VM can swing in speed by up to 2x over seconds to minutes, so
every item is kept short (at most about 2 s), a run repeats the whole pass
several times and run.py takes each item's median rescaled repeat. Heavier
grids (depth-3 W/AW verification, aw-q13 at depth 3, ortho beyond n = 1)
are left out so that a pass takes 3-8 s and a 35 s run holds three to five
passes.

verify-sweep
    `verify --preset P --D S --n-range -4..2 --format json` over the four
    sweep presets and the sweep sets of depth 1 and 2, plus the depth-3 sets
    for L and J. The window keeps the structural rows n < 0 and three checked
    rows. Each item builds its pair several times (probe, checks, prefix
    chain, permutation): exercises verify, multiindex and rtable.
export-artifacts
    `gen --N 4` plus `rtable --M |D| --window -|D|-1..4 --format csv` over
    five presets and the six sweep sets, without aw-q13 at depth 3 (2-4 s
    each). Each object is built once and serialized: exercises the
    determinant, polynomial and scalar kernels (aw-q13 adds the sqrt(q)
    tower) and the serializers.
ortho-grid
    `ortho` over the Wilson and Askey-Wilson difference-weight presets
    (n 0..1 for W I1 and II1, n 0..0 for the others) and five
    Laguerre/Jacobi index sets (n 0..4). mpmath weight evaluation at the
    quadrature nodes dominates.

W {I1,I2,I3} at the default window (`BREAKDOWN_ITEM`) is too heavy for a
pass; a traced verify-sweep run times it once, after the passes, to print
its stage breakdown next to the ROADMAP baseline.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json

SWEEP_PRESETS = ("l-default", "j-default", "w-default", "aw-default")
SWEEP_SETS = ("I1", "II1", "I1,I2", "I1,II1", "I1,I2,I3", "I1,I2,II1")
VERIFY_WINDOW = "-4..2"
VERIFY_SKIP = {(p, s) for p in ("w-default", "aw-default") for s in ("I1,I2,I3", "I1,I2,II1")}
EXPORT_SKIP = {("aw-q13", "I1,I2,I3"), ("aw-q13", "I1,I2,II1")}
EXPORT_PRESETS = ("l-default", "j-default", "w-default", "aw-default", "aw-q13")
EXPORT_N = 4

# (family, a1..a4 or g[,h], q, D, n_max); the W/AW rows are the difference
# presets for which the continuous integral carries the full norm.
ORTHO_ITEMS = (
    ("W", "5/4,13/10,6/5,7/5", None, "I1", 1),
    ("W", "3/4,4/5,3/2,8/5", None, "II1", 1),
    ("W", "7/2,13/4,6/5,7/5", None, "I1,I2", 0),
    ("AW", "1/3,2/5,1/20,1/12", "1/4", "II1", 0),
    ("AW", "1/20,1/12,1/18,1/10", "1/4", "I1,II1", 0),
    ("l-default", None, None, "I1", 4),
    ("l-default", None, None, "I1,I2", 4),
    ("l-default", None, None, "I1,II1", 4),
    ("j-default", None, None, "I1", 4),
    ("j-default", None, None, "I1,II1", 4),
)
ORTHO_DIAG_TOL = 1e-7
ORTHO_OFF_TOL = 1e-8

WORKLOADS = ("verify-sweep", "export-artifacts", "ortho-grid")

# Per-layer counters that must read nonzero on a full pass of each workload;
# a rename in miop that silently empties a layer fails the traced run.
EXPECTED_NONZERO = {
    "verify-sweep": (
        "multiindex.build.calls", "exact.matrix.det.calls", "exact.poly.mul.calls",
        "exact.poly.laurent_mul.calls", "exact.poly.exact_div.calls",
        "exact.scalars.gaussian_mul.calls", "families.classical_poly.misses",
        "families.three_term.calls", "families.reduce_to_eta.calls",
        "families.x_shift.calls", "rtable.build_rtable.calls", "rtable.check.s",
        "verify.rrp.s", "verify.rrp-override.s", "verify.rtable-shift.s",
        "verify.vanishing.s", "verify.regeneration.s", "verify.seed-proportionality.s",
        "verify.prefix-chain.s", "verify.permutation.s", "verify.degrees.s",
        "verify.genericity_probe.s", "cli.main.s",
    ),
    "export-artifacts": (
        "multiindex.build.calls", "exact.matrix.det.calls", "exact.poly.mul.calls",
        "exact.poly.laurent_mul.calls", "exact.poly.exact_div.calls",
        "exact.scalars.gaussian_mul.calls", "exact.scalars.sqrtq_mul.calls",
        "families.classical_poly.misses", "families.three_term.calls",
        "families.reduce_to_eta.calls", "families.x_shift.calls",
        "rtable.build_rtable.calls", "cli.main.s", "cli.serialize.s", "cli.bytes_out",
    ),
    "ortho-grid": (
        "multiindex.build.calls", "exact.matrix.det.calls", "exact.poly.mul.calls",
        "quad.orthogonality_check.calls", "quad.integrate.s", "quad.integrand.evals",
        "quad.expected_norm.s", "cli.main.s",
    ),
}


def _set_depth(label: str) -> int:
    return len(label.split(","))


def _verify_item(preset: str, label: str, window: str, seed: int) -> dict:
    argv = ["verify", "--preset", preset, "--D", label, "--n-range", window,
            "--seed", str(seed), "--format", "json"]
    return {"id": f"{preset} {label} {window}", "kind": "verify", "argvs": [argv]}


def breakdown_item(seed: int) -> dict:
    """W {I1,I2,I3} at the CLI's default window, the ROADMAP's baseline item."""
    return _verify_item("w-default", "I1,I2,I3", "-4..8", seed)


def items(workload: str, seed: int) -> list:
    """The workload's items in canonical order; each is {"id", "kind", "argvs"}."""
    out = []
    if workload == "verify-sweep":
        for preset in SWEEP_PRESETS:
            for label in SWEEP_SETS:
                if (preset, label) in VERIFY_SKIP:
                    continue
                out.append(_verify_item(preset, label, VERIFY_WINDOW, seed))
    elif workload == "export-artifacts":
        for preset in EXPORT_PRESETS:
            for label in SWEEP_SETS:
                if (preset, label) in EXPORT_SKIP:
                    continue
                M = _set_depth(label)
                gen = ["gen", "--preset", preset, "--D", label, "--N", str(EXPORT_N)]
                rtable = ["rtable", "--preset", preset, "--M", str(M),
                          "--window", f"{-M - 1}..{EXPORT_N}", "--format", "csv"]
                out.append({"id": f"{preset} {label}", "kind": "export", "argvs": [gen, rtable]})
    elif workload == "ortho-grid":
        for family, params, q, label, n_max in ORTHO_ITEMS:
            if params is None:
                argv = ["ortho", "--preset", family, "--D", label, "--n", f"0..{n_max}"]
                ident = f"{family} {label}"
            else:
                argv = ["ortho", "--family", family, "--a", params, "--D", label,
                        "--n", f"0..{n_max}", "--enable-difference-weights"]
                if q is not None:
                    argv += ["--q", q]
                ident = f"{family} a={params} {label}"
            out.append({"id": ident, "kind": "ortho", "argvs": [argv], "n_max": n_max})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _check_verify(item: dict, outs: list, ref: dict):
    out = outs[0]
    lines = out.splitlines()
    if not lines or lines[-1] != "PASS":
        return f"verdict {lines[-1] if lines else '(no output)'!r}"
    rows = [json.loads(line) for line in lines[:-1]]
    failed = [r for r in rows if r.get("status") == "fail"]
    if failed:
        return f"{len(failed)} failed rows"
    want = ref.get("rows")
    if len(rows) != want:
        return f"{len(rows)} rows, expected {want}"
    return None


def gen_digest(out: str) -> str:
    """content_sha256 of a `gen` artifact, recomputed from its payload.

    The embedded provenance digest must agree, so a stale digest cannot
    hide a changed coefficient.
    """
    payload = json.loads(out)
    embedded = payload.pop("provenance")["content_sha256"]
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    actual = sha256(body)
    if actual != embedded:
        raise ValueError(f"embedded content_sha256 {embedded[:12]} != recomputed {actual[:12]}")
    return actual


def _check_export(item: dict, outs: list, ref: dict):
    gen = gen_digest(outs[0])
    if gen != ref.get("gen_sha256"):
        return f"gen content_sha256 {gen[:12]} != reference {str(ref.get('gen_sha256'))[:12]}"
    csv_digest = sha256(outs[1])
    if csv_digest != ref.get("rtable_csv_sha256"):
        return f"rtable csv sha256 {csv_digest[:12]} != reference {str(ref.get('rtable_csv_sha256'))[:12]}"
    return None


def _check_ortho(item: dict, outs: list, ref: dict):
    rows = list(csv.DictReader(io.StringIO(outs[0])))
    n_max = item["n_max"]
    want = (n_max + 1) * (n_max + 2) // 2
    if len(rows) != want:
        return f"{len(rows)} grid rows, expected {want}"
    for row in rows:
        n, m, rel = int(row["n"]), int(row["m"]), float(row["rel_err"])
        tol = ORTHO_DIAG_TOL if n == m else ORTHO_OFF_TOL
        if not rel < tol:
            return f"rel_err {rel!r} at (n={n}, m={m}) exceeds {tol}"
    return None


_CHECKS = {"verify": _check_verify, "export": _check_export, "ortho": _check_ortho}


def check(item: dict, codes: list, outs: list, reference: dict):
    """None when the item's outputs are exact, else a one-line reason."""
    for argv, code in zip(item["argvs"], codes):
        if code != 0:
            return f"`miop {argv[0]}` exited {code}"
    ref = reference.get(item["id"], {}) if item["kind"] != "ortho" else {}
    return _CHECKS[item["kind"]](item, outs, ref)
