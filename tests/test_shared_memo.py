"""The process-wide memos change no output.

rtable.shared_rtable keeps each default-convention table, with the override
tables and shift-law violations verify derives from it, and
families.three_term keeps each (A_n, B_n, C_n).  A warm memo must give the
bytes a cold one gives, no check may change what the memo holds, and a
build that raises must leave nothing behind.
"""
import contextlib
import hashlib
import io
import json
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import miop.cli as cli
import miop.rtable as rtable_mod
from miop.cli import main
from miop.errors import SingularCoefficient
from miop.families import PRESETS, FamilyParams, three_term
from miop.multiindex import IndexSet
from miop.rtable import shared_rtable
from miop.verify import run_all

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402

REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())["export-artifacts"]
VERIFY_ARGVS = [item["argvs"][0] for item in workloads.items("verify-sweep", 0)]
EXPORT_ITEMS = workloads.items("export-artifacts", 0)
RTABLE_ARGVS = [(item["id"], item["argvs"][1]) for item in EXPORT_ITEMS]


def _stdout(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0, argv
    return out.getvalue()


def _snapshot() -> dict:
    """Every table the verify-sweep items share, with what is kept with it."""
    out = {}
    for argv in VERIFY_ARGVS:
        flags = dict(zip(argv[1::2], argv[2::2]))
        fp, M = PRESETS[flags["--preset"]], IndexSet.parse(flags["--D"]).M
        lo, hi = map(int, flags["--n-range"].split(".."))
        table = shared_rtable(fp, M, (min(lo, -M - 1), hi))
        derived = {key: dict(v.entries) if isinstance(v, rtable_mod.RTable) else v
                   for key, v in table.derived.items()}
        out[fp, M] = (table, dict(table.entries), dict(table.abc), derived)
    return out


def test_warm_memo_gives_cold_bytes(cold_memo):
    cold = []
    for argv in VERIFY_ARGVS:
        cold_memo()
        cold.append(_stdout(argv))
    # one memo for the whole sweep, read in reverse order, then once more
    cold_memo()
    for _ in range(2):
        for argv, want in reversed(list(zip(VERIFY_ARGVS, cold))):
            assert _stdout(argv) == want, argv
    assert shared_rtable.cache_info().hits > 0


def test_shared_table_writes_pinned_csv(monkeypatch):
    # miop rtable builds its own table; made to read the shared one, cold
    # and then warm, every export keeps its pinned bytes
    monkeypatch.setattr(cli, "build_rtable", shared_rtable)
    for ident, argv in RTABLE_ARGVS + RTABLE_ARGVS:
        digest = hashlib.sha256(_stdout(argv).encode()).hexdigest()
        assert digest == REFERENCE[ident]["rtable_csv_sha256"], ident
    assert shared_rtable.cache_info().hits >= len(RTABLE_ARGVS)


def test_sweep_leaves_shared_tables_unchanged():
    for argv in VERIFY_ARGVS:
        _stdout(argv)
    before = _snapshot()
    assert all(derived for _, _, _, derived in before.values())
    for argv in reversed(VERIFY_ARGVS):
        _stdout(argv)
    after = _snapshot()
    assert before.keys() == after.keys()
    for key, (table, entries, abc, derived) in before.items():
        again, entries2, abc2, derived2 = after[key]
        assert again is table, key
        assert (entries2, abc2, derived2) == (entries, abc, derived), key


def test_failed_build_is_not_kept(monkeypatch):
    # the twisted g + h = -1 is a pole of A_0
    fp = FamilyParams("J", (F(3, 4), F(-7, 4)), check_range=False)
    builds = []
    real_build = rtable_mod.build_rtable

    def counting(*args, **kwargs):
        builds.append(args[1:])
        return real_build(*args, **kwargs)

    monkeypatch.setattr(rtable_mod, "build_rtable", counting)
    for _ in range(2):
        with pytest.raises(SingularCoefficient):
            shared_rtable(fp, 1, (-2, 2))
        assert shared_rtable.cache_info().currsize == 0
    assert builds == [(1, (-2, 2))] * 2
    # a run_all at that point raises on every call too
    for _ in range(2):
        with pytest.raises(SingularCoefficient):
            run_all(fp, IndexSet.parse("I1"), (0, 2))
    assert shared_rtable.cache_info().currsize == 0


def test_singular_three_term_is_not_kept():
    # the point of test_failed_build_is_not_kept: A_0 has a pole there
    fp = FamilyParams("J", (F(3, 4), F(-7, 4)), check_range=False)
    three_term(PRESETS["j-default"], 0)
    size = three_term.cache_info().currsize
    for _ in range(2):
        with pytest.raises(SingularCoefficient):
            three_term(fp, 0)
        assert three_term.cache_info().currsize == size


def test_export_pass_computes_each_coefficient_once():
    # gen and rtable of every export item read (A_n, B_n, C_n) of the same
    # points; each (point, n) is computed once and read from then on
    for item in EXPORT_ITEMS:
        for argv in item["argvs"]:
            _stdout(argv)
    info = three_term.cache_info()
    assert info.misses == info.currsize
    assert info.hits > info.misses
