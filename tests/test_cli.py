"""CLI surface: exit codes, outputs, file round-trips, determinism."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import stratsums
from stratsums.catalog import CATALOG
from stratsums.cli import build_parser, main
from stratsums.ffield import FieldCtx
from stratsums.polyring import AffineVariety, parse_poly
from stratsums.strat import VarietyChain
from stratsums.sumengine import SumGrid, SumSpec, eval_sum


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_module(*argv):
    """`python -m stratsums argv` in a fresh process."""
    src = os.path.dirname(os.path.dirname(stratsums.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-m", "stratsums", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


def test_sum_square_phase_p3(capsys):
    code, out, _ = run(capsys, "sum", "--p", "3", "--f", "x1^2", "--h", "0")
    assert code == 0
    assert f"{math.sqrt(3):.6f}"[:6] in out  # abs = sqrt(3)
    assert "exact:" in out


def test_sum_linear_space_example(capsys):
    code, out, _ = run(capsys, "sum", "--p", "5", "--variety", "x1,x2",
                       "--n", "3", "--h", "1,0,0")
    assert code == 0
    assert "exact: 5" in out


def test_sum_with_multiplicative_twist(capsys):
    # sum of the quadratic character over F_5 vanishes
    code, out, _ = run(capsys, "sum", "--p", "5", "--g", "x1",
                       "--chi-order", "2")
    assert code == 0
    assert "twist_zeros: 1" in out
    abs_line = [l for l in out.splitlines() if l.startswith("abs")][0]
    assert float(abs_line.split()[-1]) < 1e-9


def test_sum_parse_failure_exit_2(capsys):
    # a variety in more variables than --n is refused like such a phase
    for args in (["--f", "x^^2", "--h", "0"], ["--f", "x1*", "--h", "0"],
                 ["--n", "1", "--f", "x1 + x2"], ["--n", "1", "--variety", "x1 + x2"]):
        code, _, err = run(capsys, "sum", "--p", "3", *args)
        assert code == 2, args
        assert "parse error" in err


def test_sum_cap_exceeded_exit_3(capsys):
    code, _, err = run(capsys, "sum", "--p", "101", "--m", "4", "--f", "x1^2")
    assert code == 3


def test_sum_json_payload(capsys, tmp_path):
    path = tmp_path / "out.json"
    code, _, _ = run(capsys, "sum", "--p", "3", "--f", "x1^2", "--h", "0",
                     "--json", str(path))
    assert code == 0
    data = json.loads(path.read_text())
    assert data["schema"] == 1
    assert abs(data["abs"] - math.sqrt(3)) < 1e-9


def test_sum_json_matches_eval_sum(capsys, tmp_path):
    # `sum` runs on the kernel; enumeration is the reference
    cases = [
        (["--p", "7", "--m", "2", "--f", "x1^3 + x2", "--g", "x1 + x2",
          "--chi-order", "4", "--chi-index", "3", "--h", "1,0"],
         SumSpec(nvars=2, additive_phase=parse_poly("x1^3 + x2"),
                 mult_twist=(parse_poly("x1 + x2"), 4, 3)), 7, 2, (1, 0)),
        (["--p", "5", "--m", "2", "--variety", "x1^2 - x2", "--f", "x1*x2",
          "--h", "3,1"],
         SumSpec(nvars=2, variety=AffineVariety(2, [parse_poly("x1^2 - x2")]),
                 additive_phase=parse_poly("x1*x2")), 5, 2, (3, 1)),
        (["--p", "3", "--m", "2", "--f", "x1*x2 + x1^2", "--torus"],
         SumSpec(nvars=2, additive_phase=parse_poly("x1*x2 + x1^2"),
                 torus=True), 3, 2, None),
    ]
    for argv, spec, p, m, h in cases:
        path = tmp_path / "out.json"
        code, _, _ = run(capsys, "sum", *argv, "--json", str(path))
        assert code == 0
        got = json.loads(path.read_text())
        want = eval_sum(spec, FieldCtx(p, m), h=h)
        assert got["points"] == want.n_points, argv
        assert got["twist_zeros"] == want.twist_zeros, argv
        assert got["cyclo_counts"] == (list(want.cyclo.counts)
                                       if want.cyclo else None), argv
        assert abs(complex(got["value"]["re"], got["value"]["im"])
                   - want.value) <= 1e-9 * max(1.0, abs(want.value)), argv


def test_grid_spot_check_and_exports(capsys, tmp_path):
    csv = tmp_path / "g.csv"
    bin_ = tmp_path / "g.bin"
    code, out, _ = run(capsys, "grid", "--p", "5", "--f", "x1^2 + x2",
                       "--spot-check", "20", "--csv", str(csv),
                       "--bin", str(bin_))
    assert code == 0
    assert "max rel err" in out
    back = SumGrid.from_binary(bin_)
    csv_back = SumGrid.from_csv(csv)
    assert np.allclose(back.values, csv_back.values)


def test_grid_in_no_variables_is_the_one_point_sum(capsys, tmp_path):
    # S() is the summand at the one point of F_p^0, as `sum` prints it:
    # 1 without a phase, zeta^1 for the constant phase 1, 0 off the
    # variety 2 = 0; the spot check's eval_sum evaluates the constants in F_7
    cases = [((), [1, 0, 0, 0, 0, 0, 0]), (("--f", "1"), [0, 1, 0, 0, 0, 0, 0]),
             (("--variety", "2"), [0, 0, 0, 0, 0, 0, 0])]
    for args, counts in cases:
        path = tmp_path / "g0.bin"
        code, out, _ = run(capsys, "grid", "--p", "7", "--n", "0", *args,
                           "--spot-check", "3", "--bin", str(path))
        assert code == 0, args
        s = int(any(counts))
        assert f"grid 7^0: max|S| = {s}, nonzero at {s} of 1 parameters" in out
        assert "max rel err 0" in out, args
        grid = SumGrid.from_binary(path)
        assert grid.values.shape == () and grid.counts.tolist() == counts
        code, out, _ = run(capsys, "sum", "--p", "7", "--n", "0", *args)
        assert code == 0 and f"counts {tuple(counts)}" in out


def test_negative_variable_count_exit_2(capsys):
    for command in ("grid", "sum"):
        code, _, err = run(capsys, command, "--p", "7", "--n", "-1")
        assert code == 2, command
        assert "nvars must be >= 0" in err


def test_verify_pass_and_report(capsys, tmp_path):
    chain_path = tmp_path / "chain.json"
    chain = VarietyChain(3, [
        AffineVariety(3, [parse_poly("x3", nvars=3)]),
        AffineVariety.empty(3), AffineVariety.empty(3)])
    chain.save(chain_path)
    code, out, _ = run(capsys, "verify", "--chain", str(chain_path),
                       "--p", "3,5", "--variety", "x1,x2", "--n", "3",
                       "--C", "1", "--d", "1",
                       "--out", str(tmp_path / "rep"))
    assert code == 0
    assert "PASS" in out
    data = json.loads((tmp_path / "rep.p5.json").read_text())
    assert data["passed"] and data["schema"] == 1


def test_verify_reversed_chain_exit_4(capsys, tmp_path):
    chain_path = tmp_path / "bad.json"
    payload = {
        "schema": 1, "ambient_n": 2,
        "strata": [["x1", "x2"], ["x1"]],  # reversed: growing point sets
        "claimed_codims": [None, None],
    }
    chain_path.write_text(json.dumps(payload))
    code, _, err = run(capsys, "verify", "--chain", str(chain_path),
                       "--p", "3", "--variety", "x1", "--n", "2",
                       "--C", "1", "--d", "1")
    assert code == 4
    assert "invalid chain" in err


def test_verify_chain_codims_mismatch_exit_2(capsys, tmp_path):
    # a codim list shorter than the strata must not truncate the chain
    chain_path = tmp_path / "short.json"
    payload = {"schema": 1, "ambient_n": 2,
               "strata": [["x1"], ["x1", "x2"], ["x1", "x2"]],
               "claimed_codims": [1]}
    chain_path.write_text(json.dumps(payload))
    code, _, err = run(capsys, "verify", "--chain", str(chain_path),
                       "--p", "3", "--variety", "x1", "--n", "2",
                       "--C", "1", "--d", "1")
    assert code == 2
    assert "3 strata but 1 claimed codims" in err


def test_verify_builds_each_primes_masks_once(capsys, tmp_path, monkeypatch):
    # at p = 13 (13^4 <= 2^16) the chain's containment check and the bound
    # check share one mask per distinct stratum
    from stratsums import strat

    chain = str(tmp_path / "diag4.json")
    assert run(capsys, "catalog", "build", "diagonal_quadratic", "--params", "n=4",
               "--chain-out", chain)[0] == 0
    real, calls = strat.variety_mask, []

    def counting(V, p, nvars):
        calls.append(p)
        return real(V, p, nvars)

    monkeypatch.setattr(strat, "variety_mask", counting)
    code, out, _ = run(capsys, "verify", "--chain", chain, "--p", "13", "--variety",
                       "x1^2+x2^2+x3^2+x4^2", "--d", "3", "--C", "2")
    assert code == 0 and "PASS" in out
    strata = VarietyChain.load(chain, check_primes=()).strata
    assert calls == [13] * len({V.generators for V in strata})


def test_verify_fail_exit_1(capsys, tmp_path):
    chain_path = tmp_path / "chain.json"
    VarietyChain(3, [AffineVariety(3, [parse_poly("x1", nvars=3)])]).save(chain_path)
    code, out, _ = run(capsys, "verify", "--chain", str(chain_path),
                       "--p", "5", "--variety", "x1,x2", "--n", "3",
                       "--C", "1", "--d", "1")
    assert code == 1
    assert "VIOLATION" in out


def test_weights_kloosterman_pass(capsys):
    code, out, _ = run(capsys, "weights", "--p", "5", "--N", "6",
                       "--kloosterman", "1", "--w-max", "1")
    assert code == 0
    assert "PASS" in out
    payload = json.loads(out[:out.index("weight check") - 1]
                         [:out.rindex("}") + 1])
    assert payload["schema"] == 1 and len(payload["roots"]) == 2


def test_weights_constant_fails_exit_1(capsys):
    code, out, _ = run(capsys, "weights", "--p", "5", "--N", "6",
                       "--f", "0", "--w-max", "1")
    assert code == 1
    assert "FAIL" in out


def test_weights_too_short_exit_5(capsys):
    code, _, err = run(capsys, "weights", "--p", "5", "--N", "3",
                       "--kloosterman", "1", "--w-max", "1")
    assert code == 5
    assert "raise N" in err


def test_catalog_list(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    for name in ("linear_space", "diagonal_quadratic", "burgess_family"):
        assert name in out


def test_catalog_build_linear_space(capsys, tmp_path):
    chain_out = tmp_path / "chain.json"
    code, out, _ = run(capsys, "catalog", "build", "linear_space",
                       "--params", "n=3", "--p", "5",
                       "--chain-out", str(chain_out),
                       "--report-out", str(tmp_path / "rep"))
    assert code == 0
    assert "PASS" in out and "OK" in out
    loaded = VarietyChain.load(chain_out)
    assert loaded.ambient == 3


def test_catalog_build_linear_space_flat_basis(capsys, tmp_path):
    # --params writes a flat list: it is read as rows of length n
    code, out, _ = run(capsys, "catalog", "build", "linear_space",
                       "--params", "n=3,basis=1:1:1", "--p", "5",
                       "--report-out", str(tmp_path / "rep"))
    assert code == 0
    assert "PASS" in out and "OK" in out
    code, out, err = run(capsys, "catalog", "build", "linear_space",
                         "--params", "n=3,basis=1:0")
    assert code == 2 and out == ""
    assert "multiple of n=3" in err


def test_catalog_burgess_over_cap_exit_3(capsys):
    # 101^4 parameters are refused before any array is allocated
    code, _, err = run(capsys, "catalog", "build", "burgess_family",
                       "--params", "r=2", "--p", "101")
    assert code == 3 and "exceeds cap" in err


def test_catalog_unknown_exit_2(capsys):
    code, _, err = run(capsys, "catalog", "build", "nope")
    assert code == 2


def test_catalog_unknown_parameter_exit_2(capsys):
    # a misspelled parameter is refused, not replaced by its default
    for name, params, known in [("quadric_blocks", "n_block=2", "n_blocks"),
                                ("diagonal_quadratic", "n=4,coefs=1:2:3:5", "n, coeffs")]:
        code, out, err = run(capsys, "catalog", "build", name, "--params", params)
        assert code == 2 and out == ""
        assert f"known: {known}" in err


def test_catalog_chain_feeds_verify_end_to_end(capsys, tmp_path):
    # export the odd-parity quadric chain, then verify the quadric sums
    # against it through the generic verify command
    chain_out = tmp_path / "quadric_chain.json"
    code, _, _ = run(capsys, "catalog", "build", "diagonal_quadratic",
                     "--params", "n=3", "--chain-out", str(chain_out))
    assert code == 0
    code, out, _ = run(capsys, "verify", "--chain", str(chain_out),
                       "--p", "5,7,11,13", "--variety", "x1^2 + x2^2 + x3^2",
                       "--n", "3", "--C", "2", "--d", "2", "--N", "2")
    assert code == 0
    assert out.count("PASS") == 4


def test_discrepancy_linear(capsys, tmp_path):
    csv = tmp_path / "et.csv"
    code, out, _ = run(capsys, "discrepancy", "--p", "11", "--w", "11",
                       "--polys", "x1", "--alpha", "0", "--beta", "0.5",
                       "--K", "5", "--csv", str(csv))
    assert code == 0
    assert "holds" in out
    assert csv.read_text().startswith("A1,abs_sum")


def test_sieve_partition(capsys, tmp_path):
    csv = tmp_path / "buckets.csv"
    code, out, _ = run(capsys, "sieve", "--F", "y^2 - x1*x2 - 1",
                       "--p", "3", "--q", "5", "--u-bound", "3",
                       "--csv", str(csv))
    assert code == 0
    assert "exact" in out
    assert csv.read_text().startswith("j,k,")


def test_dual_command(capsys):
    code, out, _ = run(capsys, "dual", "--F", "x1^2 + x2^2 + x3^2",
                       "--v", "1,1,0", "--p", "7", "--max-ext", "1",
                       "--sufficient-ext", "1")
    assert code == 0
    assert out.strip() in {"member", "nonmember"}
    # 1 + 1 = 2 is a non-residue mod 7 scaled... F(v) = 2 != 0: nonmember
    assert out.strip() == "nonmember"


def test_workers_option_is_gone(capsys):
    # before the subcommand argparse reads the stray "1" as the command
    for argv, why in [(["--workers", "1", "grid"], "invalid choice: '1'"),
                      (["grid", "--workers", "1"], "unrecognized arguments: --workers 1")]:
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--p", "5", "--f", "x1^2 + x2"])
        assert exc.value.code == 2
        assert why in capsys.readouterr().err


def test_parser_built_once_serves_every_call(capsys):
    # main reuses one parser per process: calls after the first, and after a
    # parse error, read the same as a call in a fresh process
    argv = ["sum", "--p", "5", "--f", "x1^2 + x1", "--n", "1"]
    first = run(capsys, *argv)
    assert first[0] == 0 and run(capsys, *argv) == first
    with pytest.raises(SystemExit) as exc:
        main(["sum", "--f", "x1"])
    assert exc.value.code == 2
    assert "--p" in capsys.readouterr().err
    assert run(capsys, "sum", "--p", "5", "--f", "x1*")[0] == 2
    assert run(capsys, *argv) == first
    assert build_parser() is build_parser()
    done = run_module(*argv)
    assert (done.returncode, done.stdout) == first[:2]


def test_module_entry_point_lists_catalog():
    done = run_module("catalog", "list")
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == sorted(CATALOG)
