"""End-to-end tests of the command-line interface."""

import contextlib
import hashlib
import io
import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from miop import verify as verify_mod
from miop.cli import main
from miop.exact import Poly
from miop.rtable import build_rtable

from .strategies import family_params


_DIFFERENCE = "--enable-difference-weights"

# `ortho` CSV text.  L and J were recorded before the per-node weight and P_n
# caches went in.  The W and AW strings pin the bits of the binary64 phi_0^2
# kernels; their expected columns (mpmath norms) predate those kernels.
_GOLDEN_L = """\
n,m,integral,expected,rel_err
0,0,44.07146891462283,44.07146891462282,1.612251085019641e-16
0,1,4.754878540090965e-14,0.0,3.848457057631719e-16
0,2,4.208442605055991e-14,0.0,1.8014913847537497e-16
1,1,346.3761969913037,346.3761969913037,0.0
1,2,-7.847880667101701e-14,0.0,1.1983064990179692e-16
2,2,1238.2858557539166,1238.2858557539164,1.8361969846195017e-16
"""
_GOLDEN_J = """\
n,m,integral,expected,rel_err
0,0,0.26623185829265866,0.2662318582926585,6.255203819773876e-16
0,1,-1.9619260301298554e-16,0.0,3.9491794856581403e-16
0,2,1.9619260301298554e-16,0.0,2.885940964102151e-16
1,1,0.9270250938036706,0.9270250938036698,8.38333419917325e-16
1,2,-1.0463605494025895e-15,0.0,8.248413745763977e-16
2,2,1.7359225689918103,1.735922568991808,1.279115836681533e-15
"""
_GOLDEN_W = """\
n,m,integral,expected,rel_err
0,0,3.1822584451277613,3.182258445127765,1.1164126798814615e-15
0,1,4.095853080612028e-15,0.0,9.867785048356184e-17
1,1,541.3946141502694,541.39461415027,1.0499442989477267e-15
"""
_GOLDEN_AW = """\
n,m,integral,expected,rel_err
0,0,11.391908639356298,11.391908639356368,6.0813265739571365e-15
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_laguerre_single_deletion(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--family", "L", "--g", "7/3", "--D", "I1", "--N", "8")
        assert code == 0
        obj = json.loads(out)
        assert obj["degree_Xi"] == 1
        assert obj["ell"] == 1
        assert set(obj["P"]) == {str(n) for n in range(9)}
        assert obj["Xi"] == ["17/6", "1"]

    def test_askey_wilson_mixed_ell(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--preset", "aw-default", "--D", "I1,II2", "--N", "6")
        assert code == 0
        obj = json.loads(out)
        assert obj["ell"] == 1 + 2 - 1 + 2
        assert obj["degree_Xi"] == obj["ell"]

    def test_duplicate_degree_rejected(self, capsys):
        code, _, err = run_cli(capsys, "gen", "--family", "L", "--g", "7/3", "--D", "I1,I1")
        assert code == 2
        assert "duplicate" in err

    def test_deterministic_output(self, capsys):
        args = ("gen", "--preset", "j-default", "--D", "I1,II1", "--N", "4")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_provenance_digest_matches_content(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "--family", "L", "--g", "7/3", "--D", "I1", "--N", "2")
        assert code == 0
        obj = json.loads(out)
        prov = obj.pop("provenance")
        body = json.dumps(obj, sort_keys=True, separators=(",", ":"))
        assert prov["content_sha256"] == hashlib.sha256(body.encode()).hexdigest()
        assert prov["config"]["family"] == "L"
        assert "time" not in json.dumps(prov).lower()

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "pair.json"
        code, out, _ = run_cli(
            capsys, "gen", "--preset", "l-default", "--D", "I1", "--N", "1", "--out", str(target)
        )
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["family"] == "L"

    def test_output_to_missing_directory_rejected(self, capsys, tmp_path):
        target = tmp_path / "missing" / "pair.json"
        code, out, err = run_cli(capsys, "gen", "--preset", "l-default", "--D", "I1",
                                 "--out", str(target))
        assert code == 2 and out == ""
        assert "--out" in err and "Traceback" not in err

    def test_zero_energy_virtual_state_rejected(self, capsys):
        # E^II_1 = -4(g - 3/2) = 0 at g = 3/2: P_{D,0} is the zero polynomial
        code, out, err = run_cli(capsys, "gen", "--family", "L", "--g", "3/2", "--D", "II1",
                                 "--N", "2")
        assert code == 1 and out == ""
        assert "GenericityError" in err and "P_{D,0}" in err and "D={II1}" in err
        assert "Traceback" not in err

    def test_removable_zero_in_virtual_twist_accepted(self, capsys):
        # the type-I twist of this W point has b1 = 1, a removable 0/0 at n = 0
        code, out, err = run_cli(capsys, "gen", "--family", "W", "--a", "5/3,2/3,2/3,2/3",
                                 "--D", "I1,II1", "--N", "2")
        assert code == 0, err
        assert json.loads(out)["ell"] == 3

    def test_jacobi_twist_with_zero_sum_accepted(self, capsys):
        # the type-I twist (5/6, -5/6) has g + h = 0: A_0 and B_0 are
        # removable 0/0 and C_0 multiplies P_{-1} = 0
        code, out, err = run_cli(capsys, "gen", "--family", "J", "--g", "5/6", "--h", "11/6",
                                 "--D", "I1", "--N", "2")
        assert code == 0, err
        assert sorted(json.loads(out)["P"]) == ["0", "1", "2"]

    @pytest.mark.parametrize("argv,point", [
        (("--family", "J", "--g", "7/2", "--h", "3/2", "--D", "II1"),
         "SingularCoefficient: three-term denominator vanishes at J lambda=(-5/2,3/2), n=0"),
        (("--family", "W", "--a", "2,5/4,4,5/4", "--D", "II1"),
         "SingularCoefficient: three-term denominator vanishes at W lambda=(2,5/4,-3,-1/4), n=0"),
        (("--family", "J", "--g", "13/2", "--h", "7/2", "--D", "II3"),
         "LeadingCoefficientZero: A_2 = 0 at J lambda=(-11/2,7/2)"),
    ], ids=["J-den", "W-den", "J-lead"])
    def test_singular_coefficient_names_virtual_point(self, capsys, argv, point):
        # the recurrence fails at the virtual point, not at the point typed
        code, out, err = run_cli(capsys, "gen", *argv, "--N", "1")
        assert code == 1 and out == ""
        assert err.startswith(f"error: {point}") and "Traceback" not in err


class TestRtable:
    def test_csv_to_missing_directory_rejected(self, capsys, tmp_path):
        target = tmp_path / "missing" / "table.csv"
        code, _, err = run_cli(capsys, "rtable", "--preset", "l-default", "--M", "1",
                               "--format", "csv", "--out", str(target))
        assert code == 2
        assert "--out" in err and "Traceback" not in err

    def test_top_corner_frozen(self, capsys):
        code, out, _ = run_cli(
            capsys, "rtable", "--family", "L", "--g", "7/3", "--M", "1", "--window", "-2..2"
        )
        assert code == 0
        obj = json.loads(out)
        corner = [r for r in obj["rows"] if (r["s"], r["n"], r["k"]) == (1, 0, 2)]
        assert corner == [{"s": 1, "n": 0, "k": 2, "coeffs": ["2"]}]
        assert sorted({r["s"] for r in obj["rows"]}) == [0, 1]

    def test_depth_zero_is_three_term(self, capsys):
        code, out, _ = run_cli(
            capsys, "rtable", "--preset", "w-default", "--M", "0", "--window", "0..2",
            "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "s,n,k,coeffs"
        ks = {line.split(",")[2] for line in lines[1:]}
        assert ks == {"-1", "0", "1"}

    def test_negative_window_with_space(self, capsys):
        # `--window -3..10` must survive argparse option detection
        code, out, _ = run_cli(
            capsys, "rtable", "--preset", "j-default", "--M", "2", "--window", "-3..10"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["window"] == [-3, 10]

    @pytest.mark.parametrize("argv", [
        ("--family", "W", "--a", "1/2,1/2,1/2,1/2"),  # b1 = 2
        ("--family", "AW", "--a", "1/2,1/2,1/2,1/2", "--q", "1/4"),  # b4 = q^2
        ("--family", "W", "--a", "1/4,1/4,1/4,1/4"),  # b1 = 1
        ("--family", "AW", "--a", "1/2,1/2,1/2,1/2", "--q", "1/16"),  # b4 = q
    ], ids=["W", "AW", "W-b1-1", "AW-b4-q"])
    def test_removable_zero_at_n0_accepted(self, capsys, argv):
        code, out, err = run_cli(capsys, "rtable", *argv, "--M", "1")
        assert code == 0, err
        assert json.loads(out)["rows"]

    @pytest.mark.parametrize("window,message", [
        ("5..1", "empty range"),
        ("", "--window expects LO..HI, got ''"),
    ], ids=["reversed", "empty"])
    def test_bad_window_rejected(self, capsys, window, message):
        code, _, err = run_cli(
            capsys, "rtable", "--preset", "j-default", "--M", "1", "--window", window
        )
        assert code == 2
        assert message in err


class TestVerify:
    def test_single_set_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--preset", "l-default", "--D", "I1", "--n-range", "-2..4"
        )
        assert code == 0
        assert out.strip().endswith("PASS")
        assert out.count("PASS") >= 9

    def test_removable_zero_at_n0_accepted(self, capsys):
        # b4 = q: 1 - b4 q^(2n-1) vanishes at n = 0
        code, out, err = run_cli(capsys, "verify", "--family", "AW", "--a", "1/2,1/2,1/2,1/2",
                                 "--q", "1/16", "--D", "I1", "--n-range", "0..2")
        assert code == 0, err
        assert out.strip().endswith("PASS")

    def test_jacobi_twist_with_unit_sum_verifies(self, capsys):
        # the type-I twist (3/4, 1/4) has g + h = 1, a removable 0/0 at n = 0
        code, out, err = run_cli(capsys, "verify", "--family", "J", "--g", "3/4", "--h", "3/4",
                                 "--D", "I1")
        assert code == 0, err
        assert out.strip().endswith("PASS") and "FAIL" not in out

    def test_inline_family(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--family", "L", "--g", "5/2", "--D", "II1",
            "--n-range", "0..3",
        )
        assert code == 0

    def test_structural_rows_in_json_stream(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--preset", "l-default", "--D", "I1",
            "--identity", "rrp", "--n-range", "-3..8", "--format", "json",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == "PASS"
        rows = [json.loads(line) for line in lines[:-1]]
        statuses = {r["n"]: r["status"] for r in rows if r["identity"] == "rrp"}
        assert statuses[-3] == "structural"
        assert statuses[0] == "pass"

    @pytest.mark.parametrize("argv,verdict", [
        (("--preset", "l-default", "--D", "I1"),
         "FAIL  prefix-chain L D={I1} g=7/3: n=1: eta^1 coefficient -493/12"),
        (("--family", "AW", "--a", "1/2,1/3,1/4,1/5", "--q", "1/4", "--D", "I1,II1"),
         "FAIL  prefix-chain AW D={I1,II1} a=1/2,1/3,1/4,1/5 q=1/4:"
         " n=1: eta^1 coefficient -54654355/2359296"),
    ], ids=["L", "AW"])
    def test_corrupted_coefficient_exits_one(self, capsys, monkeypatch, argv, verdict):
        real_build = verify_mod.build_rtable

        def corrupting(fp, M, window, coeffs=None, base=None):
            table = real_build(fp, M, window, coeffs=coeffs, base=base)
            key = (M, 1, 0)
            if coeffs is None and key in table.entries:
                table.entries[key] = table.entries[key] + Poly([F(0), F(3)])
            return table

        monkeypatch.setattr(verify_mod, "build_rtable", corrupting)
        code, out, _ = run_cli(capsys, "verify", *argv, "--n-range", "0..3")
        assert code == 1
        assert "FAIL" in out
        assert "eta^" in out or "level" in out
        # the witness names the index set and the parameter point as its flags spell it
        assert out.splitlines()[-1] == verdict

    def test_seed_changes_probe_not_verdict(self, capsys):
        outs = []
        for seed in ("4", "7"):  # shuffles of a 3-list differ at these seeds
            code, out, _ = run_cli(
                capsys, "verify", "--preset", "j-default", "--D", "I1,I2,II1",
                "--identity", "permutation", "--seed", seed, "--format", "json",
            )
            assert code == 0
            outs.append(out)
        assert outs[0] != outs[1]

    def test_sweep_single_family(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--preset", "l-default", "--n-range", "-2..4"
        )
        assert code == 0
        # six index sets, nine identities each
        assert out.count("PASS") == 6 * 9 + 1
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "01f0b8616e6d3d25850fe2e058dba376e31d362dcfe84a37cad3955411a7552e")
        code, out, _ = run_cli(
            capsys, "verify", "--preset", "l-default", "--n-range", "-2..4", "--format", "json"
        )
        assert code == 0
        assert len(out.splitlines()) == 347
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "8a4999579af04536ae023c1f6e3f6d2452f4609e71f516940d49c0b8988704c7")

    def test_default_sweep_digest(self, capsys):
        # all four presets x six index sets, so a changed witness scalar on
        # J, W or AW fails too; no change to the exact core may move it
        code, out, _ = run_cli(capsys, "verify", "--format", "json")
        assert code == 0
        assert len(out.splitlines()) == 2137
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "4c5cd2ed5f43a1392a5a5382f075c8c175478f414d6c7b3b9b94f7532612efb0")

    def test_workers_do_not_change_output(self, capsys, monkeypatch):
        args = ("verify", "--preset", "l-default", "--n-range", "-2..3")
        _, serial, _ = run_cli(capsys, *args)
        monkeypatch.setenv("MIOP_WORKERS", "2")
        _, pooled, _ = run_cli(capsys, *args)
        assert serial == pooled

    @pytest.mark.parametrize("value", ["abc", "0"])
    def test_bad_worker_count_rejected(self, capsys, monkeypatch, value):
        monkeypatch.setenv("MIOP_WORKERS", value)
        code, out, err = run_cli(capsys, "verify", "--preset", "l-default", "--D", "I1")
        assert code == 2
        assert "MIOP_WORKERS" in err and "Traceback" not in err
        assert out == ""

    def test_negative_range_end_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--preset", "l-default", "--D", "I1", "--n-range", "-4..-1"
        )
        assert code == 2
        assert "--n-range" in err

    def test_d_without_family_rejected(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--D", "I1")
        assert code == 2
        assert "--family" in err

    def test_degenerate_point_message(self, capsys):
        # Xi_D collapses to a constant at J (1, 1), D = {I1,II1}; the point prints as its
        # exact values and the degree witness has no n, so no "n=None" prefix
        code, out, err = run_cli(capsys, "verify", "--family", "J", "--g", "1", "--h", "1",
                                 "--D", "I1,II1", "--n-range", "0..2")
        assert code == 1 and out == ""
        assert err == ("error: GenericityError: degree law fails at J lambda=(1,1) D={I1,II1}:"
                       " deg Xi = 0, expected ell = 3; pick a different parameter point\n")


class TestOrtho:
    def test_laguerre_grid(self, capsys):
        code, out, _ = run_cli(capsys, "ortho", "--family", "L", "--g", "7/3", "--D", "I1", "--n", "0..2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,m,integral,expected,rel_err"
        assert len(lines) == 7
        for line in lines[1:]:
            rel = float(line.split(",")[4])
            assert rel < 1e-8

    def test_jacobi_grid_plain_floats(self, capsys):
        # the finite-interval quadrature path must not leak numpy scalar reprs
        code, out, _ = run_cli(capsys, "ortho", "--preset", "j-default", "--D", "I1", "--n", "0..2")
        assert code == 0
        assert "np.float64" not in out
        for line in out.splitlines()[1:]:
            assert float(line.split(",")[4]) < 1e-8

    def test_difference_family_gated(self, capsys):
        code, _, err = run_cli(capsys, "ortho", "--preset", "w-default", "--D", "I1")
        assert code == 2
        assert "--enable-difference-weights" in err

    def test_wilson_with_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "ortho", "--family", "W", "--a", "5/4,13/10,6/5,7/5",
            "--D", "I1", "--n", "0..1", "--enable-difference-weights",
        )
        assert code == 0
        rel = [float(line.split(",")[4]) for line in out.splitlines()[1:]]
        assert max(rel) < 1e-10


    def test_spec_flags_keep_auto_scheme(self, capsys):
        # --rtol alone must not switch L off tanh-sinh
        args = ("ortho", "--preset", "l-default", "--D", "I1", "--n", "0..1")
        _, default, _ = run_cli(capsys, *args)
        code, tuned, _ = run_cli(capsys, *args, "--rtol", "1e-10")
        assert code == 0
        # the (0, 0) entry settles at the same tanh-sinh level either way
        assert tuned.splitlines()[1] == default.splitlines()[1]

    def test_nodes_alone_keeps_default_output(self, capsys):
        # --nodes must not loosen the default rtol; tanh-sinh ignores nodes
        args = ("ortho", "--preset", "l-default", "--D", "I1", "--n", "0..1")
        _, default, _ = run_cli(capsys, *args)
        code, tuned, _ = run_cli(capsys, *args, "--nodes", "64")
        assert code == 0
        assert tuned == default

    @pytest.mark.parametrize("flag", ["--nodes=0", "--nodes=-3", "--rtol=0", "--rtol=-1e-9",
                                      "--rtol=inf"])
    def test_bad_spec_rejected(self, capsys, flag):
        code, _, err = run_cli(capsys, "ortho", "--preset", "j-default", "--D", "I1",
                               "--n", "0..1", flag)
        assert code == 2
        assert flag[2:flag.index("=")] in err and "Traceback" not in err

    def test_nodes_above_cap_rejected(self, capsys):
        # a 10^6-order Gauss-Legendre table would need a 7 TiB companion matrix
        code, out, err = run_cli(capsys, "ortho", "--preset", "j-default", "--D", "I1",
                                 "--n", "0..0", "--nodes", "1000000")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: ") and "Traceback" not in err
        assert "nodes <= 8192" in err

    @pytest.mark.parametrize("argv,csv", [
        (("--preset", "l-default", "--D", "I1,II1", "--n", "0..2"), _GOLDEN_L),
        (("--preset", "j-default", "--D", "I1", "--n", "0..2"), _GOLDEN_J),
        (("--family", "W", "--a", "5/4,13/10,6/5,7/5", "--D", "I1", "--n", "0..1",
          _DIFFERENCE), _GOLDEN_W),
        # the expected column runs the real-argument _qpoch_inf under workprec(120)
        (("--family", "AW", "--a", "1/3,2/5,1/20,1/12", "--q", "1/4", "--D", "II1",
          "--n", "0..0", _DIFFERENCE), _GOLDEN_AW),
    ], ids=["L", "J", "W", "AW"])
    def test_golden_csv(self, capsys, argv, csv):
        # every float bit of the grid is fixed: a faster evaluation order must not move one
        code, out, _ = run_cli(capsys, "ortho", *argv)
        assert code == 0
        assert out == csv

    def test_twisted_sqrt_q_parameters(self, capsys):
        # q = 1/3 is not a square, so the twisted AW parameters carry sqrt(q)
        code, out, _ = run_cli(capsys, "ortho", "--preset", "aw-q13", "--D", "II1",
                               "--n", "0..1", _DIFFERENCE)
        assert code == 0
        rel = [float(line.split(",")[4]) for line in out.splitlines()[1:]]
        assert len(rel) == 3 and max(rel) < 1e-10

    def test_wilson_twist_at_gamma_pole(self, capsys):
        # the twisted a1 - 1/2 is 0, a pole of Gamma(a1) but not of |Gamma(a1 + ix)|^2
        # (test_quad covers that kernel); here Etilde_I1 = 18/25 lies above E_0 = 0, so
        # the expected norm is negative and the grid is refused as a configuration error
        code, out, err = run_cli(capsys, "ortho", "--family", "W", "--a", "1/2,13/10,6/5,7/5",
                                 "--D", "I1", "--n", "0..1", _DIFFERENCE)
        assert code == 2 and out == "" and "Traceback" not in err
        assert "D={I1}" in err and "n = 0" in err and "-18/25" in err

    def test_twisted_sqrt_q_bound_state_deficit(self, capsys):
        # type I at aw-q13 has Etilde = 59/120 above E_0 = 0: refused, not a meaningless row
        code, out, err = run_cli(capsys, "ortho", "--preset", "aw-q13", "--D", "I1",
                                 "--n", "0..0", _DIFFERENCE)
        assert code == 2 and out == "" and "Traceback" not in err
        assert "D={I1}" in err and "n = 0" in err and "-59/120" in err

    @pytest.mark.parametrize("argv,exponent", [
        (("--family", "L", "--g", "1", "--D", "II1,II2"), "g' = -1"),
        (("--family", "J", "--g", "2", "--h", "1", "--D", "I1,I2"), "h' = -1"),
    ], ids=["L", "J"])
    def test_low_twisted_exponent_rejected(self, capsys, argv, exponent):
        # the energy factor at n = 0 is positive ((-2)(-6) for L, (-7)(-27) for J),
        # but Psi_D^2 grows like (end)^-2 at one end of the interval
        code, out, err = run_cli(capsys, "ortho", *argv, "--n", "0..0")
        assert code == 2 and out == "" and "Traceback" not in err
        assert f"D={{{argv[-1]}}}" in err and f"twisted exponent {exponent} is not above -1/2" in err

    def test_negative_factors_with_integrable_weight_accepted(self, capsys):
        # both factors E_0 - Etilde (-3 and -27/5) are negative, yet the product is
        # positive at every n and the twisted point (1, 6/5) keeps the weight integrable
        code, out, _ = run_cli(capsys, "ortho", "--family", "J", "--g", "1", "--h", "6/5",
                               "--D", "I1,II1", "--n", "0..2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,m,integral,expected,rel_err" and len(lines) == 7
        assert max(float(line.split(",")[4]) for line in lines[1:]) < 1e-8

    def test_off_diagonal_beyond_norm_product_range(self, capsys):
        # h_0 h_1 = 1.89e159 * 1.92e161 overflows binary64; rel_err takes the two roots
        code, out, _ = run_cli(capsys, "ortho", "--family", "L", "--g", "100", "--D", "I1",
                               "--n", "0..1")
        assert code == 0
        assert out.splitlines()[2] == "0,1,-8.877472439961103e+144,0.0,4.65715361730209e-16"

    def test_weight_beyond_power_range(self, capsys):
        # x ** 300 overflows at x = 17 although exp(-x^2) x^300 and h_0 are finite
        code, out, _ = run_cli(capsys, "ortho", "--family", "L", "--g", "150", "--D", "I1",
                               "--n", "0..1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,m,integral,expected,rel_err" and len(lines) == 4
        assert max(float(line.split(",")[4]) for line in lines[1:]) < 1e-13

    @pytest.mark.parametrize("argv,where", [
        # exp(-x^2) x^2g overflows in the L weight (h_0 = Gamma(300.5)/2 exceeds binary64 too)
        (("--family", "L", "--g", "300", "--D", "I1", "--n", "0..1"), "L weight"),
        # exp of the summed q-product logs overflows in the AW weight near q = 1
        (("--family", "AW", "--a", "1/3,2/5,1/20,1/12", "--q", "999/1000", "--D", "II1",
          "--n", "0..0", _DIFFERENCE), "AW weight"),
    ], ids=["L", "AW"])
    def test_weight_overflow_exits_one(self, capsys, argv, where):
        code, out, err = run_cli(capsys, "ortho", *argv)
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith("error: FloatRangeError: ") and where in err and "at x = " in err

    @given(family_params(), st.sampled_from(["I1", "II1", "I1,II1"]))
    @settings(max_examples=60, deadline=None)
    def test_random_points_exit_typed(self, fp, label):
        # every in-range point gives rows (0), a failed check (1) or a configuration error (2)
        argv = ["ortho", "--family", fp.family, "--D", label, "--n", "0..0"]
        if fp.family in ("L", "J"):
            argv += [f"--{name}={v}" for name, v in zip(("g", "h"), fp.lam)]
        else:
            argv += ["--a", ",".join(map(str, fp.lam)), _DIFFERENCE]
            if fp.q is not None:
                argv += ["--q", str(fp.q)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in err.getvalue()


class TestFlagValidation:
    @pytest.mark.parametrize("argv,spelled", [
        (("gen", "--preset", "l-default", "--D", "I1"), ("--N", "8")),
        (("rtable", "--preset", "l-default", "--M", "2"), ("--window", "-3..8")),
        (("verify", "--preset", "l-default", "--D", "I1"), ("--n-range", "-4..8")),
        (("ortho", "--preset", "l-default", "--D", "I1"), ("--n", "0..4")),
    ], ids=["gen-N", "rtable-window", "verify-n-range", "ortho-n"])
    def test_omitted_flag_equals_its_default(self, capsys, argv, spelled):
        # each default lives in one place: omitting the flag and spelling it out agree byte for byte
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        assert run_cli(capsys, *argv, *spelled) == (0, out, "")

    def test_unknown_preset(self, capsys):
        code, _, err = run_cli(capsys, "gen", "--preset", "nope", "--D", "I1")
        assert code == 2 and "unknown preset" in err

    def test_q_on_nondifference_family(self, capsys):
        code, _, err = run_cli(capsys, "gen", "--family", "L", "--g", "1/2", "--q", "1/3", "--D", "I1")
        assert code == 2 and "--q" in err

    def test_aw_requires_q(self, capsys):
        code, _, err = run_cli(capsys, "gen", "--family", "AW", "--a", "1/2,1/3,1/4,1/5", "--D", "I1")
        assert code == 2 and "--q" in err

    @pytest.mark.parametrize("flag,value", [
        ("--g", "1/2"), ("--h", "1/2"), ("--a", "1/2,1/3,1/4,1/5"), ("--q", "1/2"),
    ], ids=["g", "h", "a", "q"])
    def test_parameter_flag_conflicts_with_preset(self, capsys, flag, value):
        # a preset fixes every parameter; a flag next to it is refused, not dropped
        code, out, err = run_cli(capsys, "gen", "--preset", "aw-default", flag, value,
                                 "--D", "I1", "--N", "0")
        assert (code, out) == (2, "")
        assert f"{flag} conflicts with --preset aw-default" in err

    def test_family_preset_mismatch(self, capsys):
        code, _, err = run_cli(capsys, "gen", "--family", "J", "--preset", "l-default", "--D", "I1")
        assert code == 2 and "contradicts" in err

    def test_bad_fraction(self, capsys):
        code, _, err = run_cli(capsys, "gen", "--family", "L", "--g", "pi", "--D", "I1")
        assert code == 2 and "exact rational" in err
