import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bnsharp
from bnsharp.cli import (OperatorSpecError, main, operator_parse,
                         parse_exponent, parse_sweep)
from bnsharp.body import ConvexBody
from bnsharp.constants import (_TEMP_LADDER, OptimizerConfig,
                               optimize_ascent)
from bnsharp.trigpoly import DifferentialOperator


def read_rows(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def test_operator_parse_grammar():
    lap = operator_parse("laplacian:2", 2)
    assert lap.terms == {(2, 0): 1.0, (0, 2): 1.0}
    d1 = operator_parse("1:1,0", 1)
    assert d1.terms == {(1,): 1.0}
    mixed = operator_parse("2,0:1,0 + 0,2:0,1", 2)
    assert mixed.terms == {(2, 0): 1.0, (0, 2): 1j}
    ident = operator_parse("identity", 3)
    assert ident.order == 0


def test_operator_parse_rejects_mixed_orders():
    with pytest.raises(OperatorSpecError, match="mixed total orders"):
        operator_parse("2,0:1,0 + 0,1:1,0", 2)
    with pytest.raises(OperatorSpecError, match="term 0"):
        operator_parse("banana", 2)
    with pytest.raises(OperatorSpecError, match="length"):
        operator_parse("1,0:1,0", 1)
    with pytest.raises(OperatorSpecError):
        operator_parse("laplacian:3", 2)


def test_parse_sweep_forms():
    assert parse_sweep("4,8,16") == [4.0, 8.0, 16.0]
    geom = parse_sweep("1:100:25:geom")
    assert len(geom) == 25
    assert geom[0] == pytest.approx(1.0) and geom[-1] == pytest.approx(100.0)
    lin = parse_sweep("0:10:11:lin")
    assert lin[1] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        parse_sweep("1:10:5:weird")
    with pytest.raises(ValueError):
        parse_sweep("")


def test_parse_exponent():
    assert math.isinf(parse_exponent("inf"))
    assert parse_exponent("2.5") == 2.5
    with pytest.raises(ValueError):
        parse_exponent("-1")


def test_converge_csv_and_manifest(tmp_path):
    out = tmp_path / "c.csv"
    code = main(["converge", "--body", "cube:1", "--m", "1", "--p", "2",
                 "--q", "inf", "--a", "1:100:25:geom", "--out", str(out)])
    assert code == 0
    rows = read_rows(out)
    assert rows[0] == "p,q,operator,body,a,kind,value,tolerance,seed,runtime_ms".split(",")
    assert len(rows) == 26
    last_val = float(rows[-1][6])
    assert abs(last_val - 1 / math.sqrt(math.pi)) < 0.02 / math.sqrt(math.pi)
    manifest = json.loads((tmp_path / "c.csv.manifest.json").read_text())
    assert manifest["versions"]["bnsharp"]
    assert manifest["config_sha256"]
    # the BLAS thread setting the rows were computed under (conftest.py's)
    assert manifest["blas_threads"] == {"OPENBLAS_NUM_THREADS": "1",
                                        "OMP_NUM_THREADS": "1",
                                        "MKL_NUM_THREADS": "1"}
    assert manifest["results"]["reference_E"] == \
        pytest.approx(1 / math.sqrt(math.pi))
    # the rows and the exact reference are all a sweep reports
    assert set(manifest["results"]) == {"reference_E"}


def test_converge_rows_equal_optimize_rows(tmp_path):
    # sweep points do not seed each other, so each row is the optimize row
    flags = ["--body", "cube:1", "--m", "1", "--operator", "1:1,0",
             "--p", "1", "--q", "inf", "--a", "2,4,8", "--restarts", "2",
             "--iterations", "80", "--seed", "3"]
    conv, opt = tmp_path / "conv.csv", tmp_path / "opt.csv"
    assert main(["converge", *flags, "--out", str(conv)]) == 0
    assert main(["optimize", *flags, "--out", str(opt)]) == 0
    strip = lambda p: [r[:-1] for r in read_rows(p)]
    assert len(strip(conv)) == 4
    assert strip(conv) == strip(opt)


def test_optimize_manifest_counts_ascent_stops(tmp_path):
    out = tmp_path / "o.csv"
    assert main(["optimize", "--body", "cube:1", "--m", "1", "--p", "1",
                 "--q", "inf", "--a", "0.5,2", "--restarts", "2",
                 "--iterations", "80", "--seed", "9", "--out", str(out)]) == 0
    results = json.loads((tmp_path / "o.csv.manifest.json").read_text())[
        "results"]
    # one frequency at a = 0.5: both restarts stop on the gradient tolerance
    assert results["ascent_stops_a=0.5"] == {"gtol": 2}
    assert sum(results["ascent_stops_a=2"].values()) == 2
    # finite p has no temperature ladder
    assert results["best_rung_a=2"] == [None, None]
    # the identity at p = 1, q = inf runs on the cosine orbits {0}, {-1, 1}
    # and {-2, 2} of the group {1, -1}
    assert results["unknowns_a=2"] == [3, 5, 2]
    # the segment's d/dx at p = inf on the ladder, which the CLI reaches
    # only above the LP's cut: both ladders peak at t = 10^5 and stop one
    # rung later
    out_ladder = optimize_ascent(
        math.inf, math.inf, DifferentialOperator.monomial((1,)), 8.0,
        ConvexBody.cube(1.0, 1),
        OptimizerConfig(restarts=2, iterations=500, seed=12))
    assert list(out_ladder.best_rungs) == [_TEMP_LADDER[8]] * 2
    assert len(out_ladder.ascent_stops) == 20
    # d/dx is odd, so the ladder runs on the sine orbits {-k, k}, k = 1..8
    assert out_ladder.unknowns == (8, 17, 2)
    # the CLI brackets it by the exchange LP on the sine orbits {-k, k},
    # k = 1..8, and writes the dual bound and the LP's counts
    assert main(["optimize", "--body", "cube:1", "--m", "1", "--p", "inf",
                 "--q", "inf", "--operator", "1:1,0", "--a", "8",
                 "--restarts", "2", "--iterations", "500", "--seed", "12",
                 "--out", str(out)]) == 0
    results = json.loads((tmp_path / "o.csv.manifest.json").read_text())[
        "results"]
    assert results["unknowns_a=8"] == [8, 17, 2]
    value = float(read_rows(out)[1][6])
    assert len(read_rows(out)) == 2
    assert value <= 1.0 <= results["upper_bound_a=8"] < 1.002 * value
    assert set(results["lp_a=8"]) == {"lps", "active_nodes", "residual",
                                      "simplex_iterations"}
    assert "best_rung_a=8" not in results
    # the disk Laplacian at p = inf runs on the cosine orbits of the
    # group of order 8 that the square's symmetries form
    assert main(["optimize", "--body", "ball:1", "--m", "2", "--p", "inf",
                 "--q", "inf", "--operator", "laplacian:2", "--a", "8",
                 "--restarts", "1", "--iterations", "5", "--seed", "12",
                 "--out", str(out)]) == 0
    results = json.loads((tmp_path / "o.csv.manifest.json").read_text())[
        "results"]
    assert results["unknowns_a=8"] == [32, 197, 8]


def test_optimize_manifest_counts_simplex_iterations(tmp_path):
    out = tmp_path / "o.csv"
    assert main(["optimize", "--body", "ball:1", "--m", "2", "--p", "inf",
                 "--q", "inf", "--operator", "laplacian:2", "--a", "4",
                 "--out", str(out)]) == 0
    lp = json.loads((tmp_path / "o.csv.manifest.json").read_text())[
        "results"]["lp_a=4"]
    # the sum of HiGHS's simplex iterations over the exchange rounds
    assert type(lp["simplex_iterations"]) is int
    assert lp["simplex_iterations"] > 0


def test_reproducible_output_modulo_runtime(tmp_path):
    args = ["optimize", "--body", "cube:1", "--m", "1", "--p", "1",
            "--q", "inf", "--a", "2", "--restarts", "2", "--iterations",
            "80", "--seed", "9"]
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    strip = lambda p: [",".join(r.split(",")[:-1])
                       for r in p.read_text().splitlines()]
    assert strip(out1) == strip(out2)


def test_levitan_check_rows(tmp_path):
    out = tmp_path / "l.csv"
    code = main(["levitan-check", "--body", "cube:1", "--m", "1",
                 "--a", "4,8,16", "--p-list", "1,2,inf", "--out", str(out)])
    assert code == 0
    rows = read_rows(out)
    assert rows[0] == ["a", "property", "bound", "observed", "slack"]
    props = {(r[0], r[1]) for r in rows[1:]}
    assert ("4", "contraction-p=2.0") in props
    assert ("16", "pointwise-bound") in props
    # every contraction and pointwise row passes: slack >= -bound
    for r in rows[1:]:
        assert float(r[4]) >= -abs(float(r[2]))


def test_constant_subcommand_kamzolov_row(tmp_path):
    out = tmp_path / "k.csv"
    code = main(["constant", "--body", "ball:1", "--m", "2", "--p", "inf",
                 "--q", "inf", "--operator", "laplacian:2", "--a", "1",
                 "--out", str(out)])
    assert code == 0
    rows = read_rows(out)
    kinds = {r[5] for r in rows[1:]}
    assert "exact-closed-form" not in kinds
    values = {r[5]: float(r[6]) for r in rows[1:]}
    assert values.get("upper-bound") == pytest.approx(2.0)


def test_constant_prints_the_exact_monomial_box_row(tmp_path):
    # at p = q the continuum constant of D^alpha on a box is sigma^alpha,
    # here 1 * 2, next to the crude bound
    out = tmp_path / "k.csv"
    assert main(["constant", "--body", "pi:1,2", "--m", "2", "--operator",
                 "1,1:1,0", "--p", "3", "--q", "3", "--a", "4",
                 "--out", str(out)]) == 0
    values = {r[5]: float(r[6]) for r in read_rows(out)[1:]}
    assert values["exact-closed-form"] == 2.0
    assert values["upper-bound"] == pytest.approx(5.0)


def test_converge_writes_the_monomial_box_reference_below_one(tmp_path):
    # the reference E = sigma = 0.1 does not need a sweep scale with
    # a * sigma >= 1
    out = tmp_path / "c.csv"
    assert main(["converge", "--body", "cube:0.1", "--m", "1", "--operator",
                 "1:1,0", "--p", "1", "--q", "1", "--a", "1,2,4",
                 "--out", str(out)]) == 0
    results = json.loads((tmp_path / "c.csv.manifest.json").read_text())[
        "results"]
    assert results["reference_E"] == 0.1


def test_constant_rows_share_one_operator_label(tmp_path):
    out = tmp_path / "c.csv"
    code = main(["constant", "--body", "cube:1", "--m", "1", "--p", "2",
                 "--q", "inf", "--a", "1", "--out", str(out)])
    assert code == 0
    rows = read_rows(out)
    assert len(rows) > 2
    assert {r[2] for r in rows[1:]} == {"0:1,0"}


def test_constant_rows_are_distinct(tmp_path):
    # an order-0 operator's composition bound is the metric-change bound,
    # so the upper bound is listed once
    out = tmp_path / "c.csv"
    code = main(["constant", "--body", "cube:1", "--m", "1", "--p", "1",
                 "--q", "inf", "--a", "4", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == len(set(lines))
    assert [r[5] for r in read_rows(out)[1:]].count("upper-bound") == 1


def test_candidates_subcommand(tmp_path):
    out = tmp_path / "cand.csv"
    code = main(["candidates", "--body", "cube:1", "--m", "1", "--p", "2",
                 "--q", "inf", "--out", str(out)])
    assert code == 0
    rows = read_rows(out)
    by_kind = {r[5]: float(r[6]) for r in rows[1:]}
    assert by_kind["lower-bound-candidate"] == \
        pytest.approx(1 / math.sqrt(math.pi), rel=2e-2)
    assert by_kind["exact-closed-form"] == pytest.approx(1 / math.sqrt(math.pi))


def test_candidates_rows_share_the_requested_body(tmp_path):
    out = tmp_path / "cand.csv"
    code = main(["candidates", "--body", "cube:1", "--m", "2", "--p", "2",
                 "--q", "2", "--operator", "1,1:1,0", "--out", str(out)])
    assert code == 0
    rows = read_rows(out)
    assert len(rows) > 2
    assert {r[3] for r in rows[1:]} == {"cube:1"}


def test_candidates_disk_laplacian(tmp_path):
    # D f of the disk's weight transform is again a weight transform, so
    # its sup norm runs on tensor grids
    out = tmp_path / "disk.csv"
    code = main(["candidates", "--body", "ball:1", "--m", "2", "--p", "2",
                 "--q", "inf", "--operator", "laplacian:2", "--out", str(out)])
    assert code == 0
    rows = read_rows(out)
    assert [r[5] for r in rows[1:]] == ["lower-bound-candidate",
                                        "exact-closed-form", "upper-bound"]
    assert {r[3] for r in rows[1:]} == {"ball:1"}
    cand = rows[1]
    value, tol = float(cand[6]), float(cand[7])
    assert value == pytest.approx(0.164219418979047, rel=1e-14)
    assert tol == pytest.approx(0.045931840582666084, rel=1e-12)
    assert value <= float(rows[2][6]) * (1.0 + tol)


def test_config_file_defaults(tmp_path):
    cfg_file = tmp_path / "exp.json"
    cfg_file.write_text(json.dumps({"body": "cube:1", "m": 1, "p": "2",
                                    "q": "inf", "a": "1,2"}))
    out = tmp_path / "from_config.csv"
    code = main(["converge", "--config", str(cfg_file), "--out", str(out)])
    assert code == 0
    rows = read_rows(out)
    assert len(rows) == 3  # header + 2 sweep points


def test_manifest_replays_its_run(tmp_path):
    first, again = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["converge", "--body", "cube:1", "--m", "1", "--p", "2",
                 "--q", "inf", "--a", "2,4", "--out", str(first)]) == 0
    manifest = tmp_path / "a.csv.manifest.json"
    assert main(["converge", "--config", str(manifest),
                 "--out", str(again)]) == 0
    strip = lambda p: [r[:-1] for r in read_rows(p)]
    assert len(strip(again)) == 3
    assert strip(again) == strip(first)
    # a misspelt key, a run of another subcommand, or a missing file is a
    # usage error
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"body": "cube:1", "restart": 2}))
    assert main(["converge", "--config", str(bad), "--out", str(again)]) == 2
    assert main(["optimize", "--config", str(manifest),
                 "--out", str(again)]) == 2
    assert main(["converge", "--config", str(tmp_path / "none.json"),
                 "--out", str(again)]) == 2


def test_usage_errors_exit_two(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["converge", "--body", "egg:1", "--m", "1",
                 "--out", str(out)]) == 2
    assert main(["constant", "--body", "cube:1", "--m", "2", "--operator",
                 "2,0:1,0 + 0,1:1,0", "--out", str(out)]) == 2
    assert main(["converge", "--body", "cube:1", "--m", "1", "--a", "",
                 "--out", str(out)]) == 2
    # a converge sweep must increase
    assert main(["converge", "--body", "cube:1", "--m", "1", "--p", "2",
                 "--q", "inf", "--a", "8,4", "--out", str(out)]) == 2
    # and every scale must be finite
    for sweep in ("inf", "1:inf:3:geom"):
        assert main(["converge", "--body", "cube:1", "--m", "1", "--p", "2",
                     "--q", "inf", "--a", sweep, "--out", str(out)]) == 2
    # the optimizer's grid factor is fixed: no flag or config key sets it
    with pytest.raises(SystemExit) as exc:
        main(["optimize", "--oversample", "4", "--out", str(out)])
    assert exc.value.code == 2
    stale = tmp_path / "stale.json"
    stale.write_text(json.dumps({"body": "cube:1", "oversample": 4}))
    assert main(["optimize", "--config", str(stale), "--out", str(out)]) == 2
    # no restart leaves nothing to report, and a negative count would lift
    # the iteration cap
    for kind in ("optimize", "converge"):
        for flag, value in (("--restarts", "0"), ("--iterations", "-1")):
            capsys.readouterr()
            assert main([kind, "--body", "cube:1", "--m", "1", "--p", "1",
                         "--q", "inf", "--a", "4", flag, value,
                         "--out", str(out)]) == 2
            assert f"usage error: {flag[2:]} must be at least" in \
                capsys.readouterr().err
    # a negative seed, on the exchange LP, which draws no random numbers,
    # and on a closed form alike
    for argv in (["optimize", "--body", "ball:1", "--m", "2", "--operator",
                  "laplacian:2", "--p", "inf", "--q", "inf", "--a", "4"],
                 ["converge", "--body", "cube:1", "--m", "1", "--p", "2",
                  "--q", "inf", "--a", "4"]):
        capsys.readouterr()
        assert main([*argv, "--seed", "-1", "--out", str(out)]) == 2
        assert "usage error: seed must be at least 0, got -1" in \
            capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("scale", ["--a=0", "--a=-0.5"])
def test_levitan_check_scale_below_one_is_a_usage_error(tmp_path, capsys,
                                                        scale):
    out = tmp_path / "l.csv"
    assert main(["levitan-check", "--body", "cube:1", "--m", "1", scale,
                 "--out", str(out)]) == 2
    assert "usage error: scale a must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_levitan_check_rejects_a_negative_seed_before_any_work(
        tmp_path, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("a check ran before the seed was validated")

    monkeypatch.setattr("bnsharp.cli.levitan_coefficients", no_work)
    out = tmp_path / "l.csv"
    assert main(["levitan-check", "--body", "cube:1", "--m", "2", "--a",
                 "4,8", "--seed", "-1", "--out", str(out)]) == 2
    assert "usage error: seed must be at least 0, got -1" in \
        capsys.readouterr().err
    assert not out.exists()


def test_uncertifiable_tail_is_an_error_record_not_a_usage_error(
        tmp_path, capsys):
    # every flag is valid, but the disk's candidate decays too slowly for an
    # L_1 tail certificate in dimension 2: exit 1 with a JSON error record
    out = tmp_path / "x.csv"
    code = main(["candidates", "--body", "ball:1", "--m", "2", "--p", "1",
                 "--q", "inf", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "usage error" not in err
    record = json.loads(err.strip().splitlines()[-1])
    assert record["error"] == "NonIntegrableTailError"
    assert "cannot certify" in record["message"]
    assert len(record["config_sha256"]) == 64
    assert not out.exists()


def test_atomic_write_leaves_no_temp_files(tmp_path):
    out = tmp_path / "a.csv"
    assert main(["constant", "--body", "cube:1", "--m", "1", "--p", "2",
                 "--q", "inf", "--a", "1", "--out", str(out)]) == 0
    leftovers = [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]
    assert leftovers == []


_IMPORT_PROBE = """
import json, os, sys

def loaded():
    return "scipy.optimize" in sys.modules

def run(line, name):
    return bnsharp.cli.main(line.split() +
                            ["--out", os.path.join(sys.argv[1], name)])

seen = {}
import bnsharp
seen["import bnsharp"] = loaded()
import bnsharp.cli
bnsharp.cli.build_parser()
seen["build_parser"] = loaded()
rc = run("optimize --body cube:1 --m 2 --operator identity --p 1 --q inf "
         "--a 4,8 --restarts 1 --seed 11", "sq.csv")
seen["square (1, inf)"] = (rc, loaded())
rc = run("converge --body ball:1 --m 2 --operator laplacian:2 --p 2 --q inf "
         "--a 1,2,4", "cv.csv")
seen["disk converge (2, inf)"] = (rc, loaded())
rc = run("optimize --body ball:1 --m 2 --operator laplacian:2 --p inf "
         "--q inf --a 4", "lp.csv")
seen["disk (inf, inf)"] = (rc, loaded())
print(json.dumps(seen))
"""


def test_scipy_optimize_loads_only_where_it_is_used(tmp_path):
    # a fresh interpreter: importing bnsharp, building the parser and the
    # finite-p and lattice-sum runs leave scipy.optimize unloaded; the
    # exchange LP at p = q = inf loads it and still prints its bound
    env = dict(os.environ)
    src = str(Path(bnsharp.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE,
                           str(tmp_path)], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen == {"import bnsharp": False, "build_parser": False,
                    "square (1, inf)": [0, False],
                    "disk converge (2, inf)": [0, False],
                    "disk (inf, inf)": [0, True]}
    results = json.loads((tmp_path / "lp.csv.manifest.json").read_text())[
        "results"]
    value = float(read_rows(tmp_path / "lp.csv")[1][6])
    assert value <= results["upper_bound_a=4"] <= 1.002 * value
