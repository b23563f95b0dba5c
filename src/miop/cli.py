"""Command-line front end: construction, tables, verification, quadrature.

Subcommands
    gen     build (Xi_D, P_{D,0..N}) and emit a JSON artifact
    rtable  build the recurrence coefficient table, JSON or CSV
    verify  run the identity checks; exit 0 iff everything passes
    ortho   numerical orthogonality grid as CSV rows

Each subcommand takes the parsed argparse namespace, resolves its family
point and validates its own flags.  Every flag default lives in the parser
(the quadrature ones read from QuadratureSpec), except the rtable window,
whose default -M-1..8 depends on --M.

Outputs are deterministic: exact scalars serialize as strings, JSON keys
are sorted, floats use shortest round-trip repr, and payloads carry no
timestamps.  Every artifact embeds a provenance block with the resolved
configuration and a digest of the content, so results are traceable to
(family, lambda, D, N) alone.

`ortho` is the only subcommand that loads numpy and mpmath: miop.quad
imports them on first use and sums every grid's node sets as numpy arrays,
while each value it returns for a CSV row is a Python float.  The worker
count for the verification sweep comes from MIOP_WORKERS (default 1); only
a count above 1 imports the process pool, which run_all's VerificationReport
objects cross as they are.  --seed feeds only the randomized permutation
probe; no mathematical output depends on it.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import os
import sys
from fractions import Fraction
from typing import Optional

from . import __version__
from .errors import ConfigurationError, MiopError
from .families import PRESETS, FamilyParams
from .multiindex import IndexSet, build
from .quad import QuadratureSpec, ortho_grid
from .rtable import build_rtable
from .verify import IDENTITY_TAGS, run_all

_DIFFERENCE_FLAG = "--enable-difference-weights"

# default verification sweep: every family, one same-type and one mixed
# index set per depth M = 1..3
_SWEEP_SETS = ("I1", "II1", "I1,I2", "I1,II1", "I1,I2,I3", "I1,I2,II1")
_SWEEP_PRESETS = ("l-default", "j-default", "w-default", "aw-default")


def _parse_fraction(text: str, flag: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigurationError(f"{flag} expects an exact rational, got {text!r}") from exc


def _parse_range(text: str, flag: str) -> tuple:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise ConfigurationError(f"{flag} expects LO..HI, got {text!r}")
    try:
        pair = (int(lo), int(hi))
    except ValueError as exc:
        raise ConfigurationError(f"{flag} expects integers, got {text!r}") from exc
    if pair[0] > pair[1]:
        raise ConfigurationError(f"{flag}: empty range {text!r}")
    return pair


def _resolve_family(args) -> tuple:
    """Build FamilyParams from --preset or the inline parameter flags, never both."""
    if args.preset is not None:
        if args.preset not in PRESETS:
            known = ", ".join(sorted(PRESETS))
            raise ConfigurationError(f"unknown preset {args.preset!r} (known: {known})")
        fp = PRESETS[args.preset]
        if args.family is not None and args.family != fp.family:
            raise ConfigurationError(
                f"--family {args.family} contradicts preset {args.preset} ({fp.family})"
            )
        for flag in ("g", "h", "a", "q"):
            if getattr(args, flag) is not None:
                raise ConfigurationError(f"--{flag} conflicts with --preset {args.preset}")
        return fp, args.preset
    if args.family is None:
        raise ConfigurationError("either --preset or --family is required")
    family = args.family
    if family == "L":
        if args.g is None:
            raise ConfigurationError("family L needs --g")
        lam = (_parse_fraction(args.g, "--g"),)
    elif family == "J":
        if args.g is None or args.h is None:
            raise ConfigurationError("family J needs --g and --h")
        lam = (_parse_fraction(args.g, "--g"), _parse_fraction(args.h, "--h"))
    else:
        if args.a is None:
            raise ConfigurationError(f"family {family} needs --a A1,A2,A3,A4")
        parts = [p for p in args.a.split(",") if p]
        if len(parts) != 4:
            raise ConfigurationError(f"--a expects four comma-separated rationals, got {args.a!r}")
        lam = tuple(_parse_fraction(p, "--a") for p in parts)
    q = None
    if family == "AW":
        if args.q is None:
            raise ConfigurationError("family AW needs --q")
        q = _parse_fraction(args.q, "--q")
    elif args.q is not None:
        raise ConfigurationError("--q applies to family AW only")
    return FamilyParams(family, lam, q=q), None


def _provenance(payload: dict, fp: FamilyParams, preset: Optional[str],
                D: Optional[IndexSet]) -> dict:
    config = fp.to_json()
    if preset:
        config["preset"] = preset
    if D is not None:
        config["D"] = D.to_json()
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return {
        "tool": "miop",
        "version": __version__,
        "config": config,
        "content_sha256": hashlib.sha256(body.encode()).hexdigest(),
    }


def _emit(text: str, out: Optional[str]) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigurationError(f"--out {out}: cannot write ({exc.strerror or exc})") from exc


def _emit_json(payload: dict, out: Optional[str], fp: FamilyParams, preset: Optional[str],
               D: Optional[IndexSet] = None) -> None:
    payload = dict(payload)
    payload["provenance"] = _provenance(payload, fp, preset, D)
    _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", out)


# -- gen -------------------------------------------------------------------------


def cmd_gen(args) -> int:
    fp, preset = _resolve_family(args)
    D = IndexSet.parse(args.D)
    if args.N < 0:
        raise ConfigurationError("--N must be nonnegative")
    pair = build(fp, D, n_max=args.N)
    payload = pair.to_json()
    payload["degree_Xi"] = pair.Xi.degree
    _emit_json(payload, args.out, fp, preset, D)
    return 0


# -- rtable ----------------------------------------------------------------------


def cmd_rtable(args) -> int:
    fp, preset = _resolve_family(args)
    if args.M < 0:
        raise ConfigurationError("--M must be nonnegative")
    window = (-args.M - 1, 8) if args.window is None else _parse_range(args.window, "--window")
    table = build_rtable(fp, args.M, window)
    rows = table.to_rows()
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["s", "n", "k", "coeffs"])
        for row in rows:
            writer.writerow([row["s"], row["n"], row["k"], ";".join(row["coeffs"])])
        _emit(buf.getvalue(), args.out)
    else:
        payload = {
            "M": table.M,
            "window": list(table.window),
            "rows": rows,
        }
        _emit_json(payload, args.out, fp, preset)
    return 0


# -- verify ----------------------------------------------------------------------


def _sweep_task(task: tuple) -> list:
    fp, D, n_lo, n_hi, seed, identities = task
    return run_all(fp, D, (min(n_lo, -D.M - 1), n_hi), seed=seed, identities=identities)


def cmd_verify(args) -> int:
    if args.preset is None and args.family is None:
        if args.D is not None:
            raise ConfigurationError("--D needs --family or --preset")
        fps = [PRESETS[key] for key in _SWEEP_PRESETS]
    else:
        fps = [_resolve_family(args)[0]]
    sets = [IndexSet.parse(label) for label in ([args.D] if args.D is not None else _SWEEP_SETS)]
    lo, hi = _parse_range(args.n_range, "--n-range")
    identities = None if args.identity == "all" else [args.identity]
    tasks = [(fp, D, lo, hi, args.seed, identities) for fp in fps for D in sets]
    text = os.environ.get("MIOP_WORKERS", "1")
    try:
        workers = int(text)
    except ValueError:
        workers = 0  # rejected below with every other count < 1
    if workers < 1:
        raise ConfigurationError(f"MIOP_WORKERS must be an integer >= 1, got {text!r}")
    if workers > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_task, tasks))
    else:
        results = [_sweep_task(t) for t in tasks]

    reports = [rep for group in results for rep in group]
    if args.format == "json":
        text = "".join(json.dumps(obj, sort_keys=True, default=str) + "\n"
                       for rep in reports for obj in rep.stream())
    else:
        text = "".join(rep.one_line() + "\n" for rep in reports)
    bad = next((rep for rep in reports if not rep.passed), None)
    verdict = "PASS"
    if bad is not None:
        # the point as its flags spell it: "g=7/3 h=9/4", "a=... q=1/4"
        point = " ".join(f"{k}={','.join(v) if isinstance(v, list) else v}"
                         for k, v in bad.fp.to_json().items() if k != "family")
        verdict = f"FAIL  {bad.identity} {bad.fp.family} D={{{bad.D.label()}}} {point}: {bad.witness}"
    _emit(text + verdict + "\n", args.out)
    return 0 if bad is None else 1


# -- ortho -----------------------------------------------------------------------


def cmd_ortho(args) -> int:
    fp, _ = _resolve_family(args)
    D = IndexSet.parse(args.D)
    lo, hi = _parse_range(args.n, "--n")
    spec = QuadratureSpec(nodes=args.nodes, rtol=args.rtol)
    if fp.is_difference and not args.difference_weights:
        raise ConfigurationError(
            f"quadrature weights for family {fp.family} are optional; "
            f"pass {_DIFFERENCE_FLAG} to enable them"
        )
    if lo != 0:
        raise ConfigurationError("--n grid must start at 0")
    rows = ortho_grid(fp, D, hi, spec=spec)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["n", "m", "integral", "expected", "rel_err"])
    for n, m, integral, expected, rel in rows:
        writer.writerow([n, m, repr(integral), repr(expected), repr(rel)])
    _emit(buf.getvalue(), args.out)
    return 0


# -- argument wiring ---------------------------------------------------------------


def _add_family_flags(sub) -> None:
    sub.add_argument("--family", choices=["L", "J", "W", "AW"], help="family tag")
    sub.add_argument("--preset", help="named parameter preset")
    sub.add_argument("--g", help="exact rational g (L, J)")
    sub.add_argument("--h", help="exact rational h (J)")
    sub.add_argument("--a", help="four comma-separated rationals a1,a2,a3,a4 (W, AW)")
    sub.add_argument("--q", help="exact rational base q in (0,1) (AW)")
    sub.add_argument("--out", help="output path (default stdout)")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="miop",
        description="multi-indexed orthogonal polynomials: exact construction and checks",
    )
    parser.add_argument("--version", action="version", version=f"miop {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen", help="construct (Xi_D, P_{D,n}) as JSON")
    _add_family_flags(gen)
    gen.add_argument("--D", default="", help="index set, e.g. I1,II2")
    gen.add_argument("--N", type=int, default=8, help="largest polynomial index")

    rt = subs.add_parser("rtable", help="recurrence coefficient table")
    _add_family_flags(rt)
    rt.add_argument("--M", type=int, required=True, help="table depth")
    rt.add_argument("--window", default=None, help="row range LO..HI")
    rt.add_argument("--format", choices=["json", "csv"], default="json")

    ver = subs.add_parser("verify", help="run identity checks")
    _add_family_flags(ver)
    ver.add_argument("--D", default=None, help="index set; omit for the preset sweep")
    ver.add_argument("--identity", choices=list(IDENTITY_TAGS) + ["all"], default="all")
    ver.add_argument("--n-range", default="-4..8", help="row range LO..HI")
    ver.add_argument("--seed", type=int, default=0, help="seed for the permutation probe")
    ver.add_argument("--format", choices=["json", "lines"], default="lines")

    orth = subs.add_parser("ortho", help="orthogonality quadrature grid as CSV")
    _add_family_flags(orth)
    orth.add_argument("--D", default="", help="index set")
    orth.add_argument("--n", default="0..4", help="grid range 0..N")
    orth.add_argument(_DIFFERENCE_FLAG, action="store_true", dest="difference_weights")
    orth.add_argument("--rtol", type=float, default=QuadratureSpec.rtol,
                      help="acceptance tolerance (default %(default)s)")
    orth.add_argument("--nodes", type=int, default=QuadratureSpec.nodes,
                      help="starting Gauss-Legendre order for J and AW (default %(default)s)")

    return parser


_COMMANDS = {
    "gen": cmd_gen,
    "rtable": cmd_rtable,
    "verify": cmd_verify,
    "ortho": cmd_ortho,
}


_RANGE_FLAGS = {"--window", "--n-range", "--n"}


def _join_range_flags(argv: list) -> list:
    """Fuse `--window -3..10` into `--window=-3..10` so argparse does not
    mistake the leading-dash value for an option string."""
    out = []
    it = iter(argv)
    for tok in it:
        if tok in _RANGE_FLAGS:
            nxt = next(it, None)
            if nxt is None:
                out.append(tok)
            else:
                out.append(f"{tok}={nxt}")
        else:
            out.append(tok)
    return out


def main(argv: Optional[list] = None) -> int:
    args = _parser().parse_args(_join_range_flags(sys.argv[1:] if argv is None else list(argv)))
    try:
        return _COMMANDS[args.command](args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MiopError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
