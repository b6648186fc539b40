"""Command-line interface: schemas, determinism, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import realify
from realify.cli import REPORT_FIELDS, REPORT_PREAMBLE, main
from realify.relaxation import size_report
from realify.polynomials import gen_sphere_instance


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------- generate


def test_generate_writes_instance_and_prints_dmin(tmp_path, capsys):
    out = tmp_path / "p.json"
    code, stdout, _ = run(
        capsys, "generate", "--family", "sphere", "--s", "5", "--seed", "1",
        "--out", str(out),
    )
    assert code == 0
    assert stdout == "d_min=2\n"
    data = json.loads(out.read_text())
    assert data["s"] == 5
    assert len(data["constraints"]) == 1

    out3 = tmp_path / "u.json"
    code, stdout, _ = run(
        capsys, "generate", "--family", "unitnorm", "--s", "3", "--seed", "2",
        "--out", str(out3),
    )
    assert code == 0
    assert len(json.loads(out3.read_text())["constraints"]) == 3


def test_generate_is_byte_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        code, _, _ = run(
            capsys, "generate", "--family", "unitnorm", "--s", "2", "--seed",
            "9", "--out", str(out),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_unsupported_family_is_an_input_error(tmp_path, capsys):
    code, _, stderr = run(
        capsys, "generate", "--family", "matpower", "--s", "3", "--seed", "0",
        "--out", str(tmp_path / "x.json"),
    )
    assert code == 3
    assert "matpower" in stderr


# ---------------------------------------------------------------------- relax


@pytest.fixture()
def sphere_file(tmp_path, capsys):
    out = tmp_path / "sphere5.json"
    assert (
        main(
            ["generate", "--family", "sphere", "--s", "5", "--seed", "1",
             "--out", str(out)]
        )
        == 0
    )
    capsys.readouterr()
    return out


def test_relax_prints_counts_and_writes_sidecar(tmp_path, capsys, sphere_file):
    sdpa = tmp_path / "prob.dat-s"
    code, stdout, _ = run(
        capsys, "relax", "--in", str(sphere_file), "--d", "2", "--form",
        "dualview", "--out", str(sdpa),
    )
    assert code == 0
    assert stdout.splitlines()[-1] == "n_sdp=42 m=441 rows=441"
    sidecar = json.loads((tmp_path / "prob.dat-s.rows.json").read_text())
    assert sidecar["version"] == 2
    assert sidecar["form"] == "dualview"
    assert len(sidecar["rows"]) == 441
    assert all("beta" in r and "merged" not in r for r in sidecar["rows"])

    code, stdout, _ = run(
        capsys, "relax", "--in", str(sphere_file), "--d", "2", "--form",
        "naive", "--out", str(sdpa),
    )
    assert code == 0
    assert stdout.splitlines()[-1] == "n_sdp=42 m=966 rows=903"
    sidecar = json.loads((tmp_path / "prob.dat-s.rows.json").read_text())
    keyed = [r for r in sidecar["rows"] if "beta" in r]
    structural = [r for r in sidecar["rows"] if r.get("structural")]
    assert len(keyed) == 441
    assert len(sidecar["rows"]) == len(keyed) + len(structural)
    assert len(sidecar["rows"]) == 903


@pytest.mark.parametrize("form", ["dualview", "naive"])
def test_relax_sidecar_names_every_merged_key_once(tmp_path, capsys, form):
    prob, sdpa = tmp_path / "u.json", tmp_path / "u.dat-s"
    assert main(["generate", "--family", "unitnorm", "--s", "2", "--seed", "0",
                 "--out", str(prob)]) == 0
    code, stdout, _ = run(capsys, "relax", "--in", str(prob), "--d", "2",
                          "--form", form, "--out", str(sdpa))
    assert code == 0
    rows = json.loads((tmp_path / "u.dat-s.rows.json").read_text())["rows"]
    assert stdout.split()[-1] == f"rows={len(rows)}"
    named = [
        (tuple(k["beta"]), tuple(k["gamma"]), r["part"])
        for r in rows if "beta" in r
        for k in [r] + r.get("merged", [])
    ]
    exps = realify.monomial_basis(2, 2).exponents
    canonical = [(b, g) for i, b in enumerate(exps) for g in exps[i:]]
    want = [(b, g, "re") for b, g in canonical]
    want += [(b, g, "im") for b, g in canonical if b != g]
    assert sorted(named) == sorted(want)
    assert any("merged" in r for r in rows)


def test_relax_below_minimum_order_cites_it(tmp_path, capsys, sphere_file):
    code, _, stderr = run(
        capsys, "relax", "--in", str(sphere_file), "--d", "1", "--form",
        "dualview", "--out", str(tmp_path / "x.dat-s"),
    )
    assert code == 3
    assert "minimum admissible order 2" in stderr


def test_relax_rejects_bad_form_and_missing_file(tmp_path, capsys):
    code, _, _ = run(
        capsys, "relax", "--in", str(tmp_path / "nope.json"), "--d", "2",
        "--form", "dualview", "--out", str(tmp_path / "x"),
    )
    assert code == 3
    code, _, _ = run(
        capsys, "relax", "--in", str(tmp_path / "nope.json"), "--d", "2",
        "--form", "fancy", "--out", str(tmp_path / "x"),
    )
    assert code == 3


# ---------------------------------------------------------------------- solve


def test_solve_writes_result_and_checks_sample(tmp_path, capsys):
    prob = tmp_path / "p.json"
    assert (
        main(["generate", "--family", "unitnorm", "--s", "2", "--seed", "4",
              "--out", str(prob)])
        == 0
    )
    capsys.readouterr()
    result = tmp_path / "res.json"
    code, stdout, _ = run(
        capsys, "solve", "--in", str(prob), "--d", "2", "--form", "dualview",
        "--tol", "1e-7", "--out", str(result), "--check-sample", "2000",
    )
    assert code == 0
    lines = stdout.splitlines()
    assert lines[0] == "status=optimal"
    assert lines[1].startswith("optimum=")
    assert lines[2].startswith("sample_bound=")
    data = json.loads(result.read_text())
    assert data["version"] == 1
    assert data["status"] == "optimal"
    assert data["options"] == {
        "tol_gap": 1e-7,
        "tol_primal": 1e-7,
        "tol_dual": 1e-7,
        "max_iter": 200,
    }
    assert data["objective"] == float(lines[1].split("=", 1)[1])
    assert set(data["presolve"]) == {
        "dropped_empty", "dropped_dependent", "dropped_free", "dualized"
    }
    assert float(lines[1].split("=", 1)[1]) <= float(
        lines[2].split("=", 1)[1]
    ) + 1e-6


def test_solve_nonoptimal_exits_two(tmp_path, capsys, sphere_file):
    # A tolerance far below attainable forces a non-optimal status.
    code, stdout, _ = run(
        capsys, "solve", "--in", str(sphere_file), "--d", "2", "--tol",
        "1e-15",
    )
    assert code == 2
    assert stdout.splitlines()[0] != "status=optimal"


# -------------------------------------------------------------------- compare


def test_compare_appends_versioned_csv(tmp_path, capsys):
    report = tmp_path / "report.csv"
    for seed in ("3", "4"):
        code, stdout, _ = run(
            capsys, "compare", "--family", "sphere", "--s", "1", "--d", "2",
            "--seed", seed, "--out", str(report), "--repeats", "1",
        )
        assert code == 0
        assert "abs_diff=" in stdout
    lines = report.read_text().splitlines()
    assert lines[0] == REPORT_PREAMBLE
    assert lines[1] == ",".join(REPORT_FIELDS)
    assert len(lines) == 4
    for line in lines[2:]:
        cells = dict(zip(REPORT_FIELDS, line.split(",")))
        assert cells["s"] == "1" and cells["d"] == "2"
        assert int(cells["m_dualview"]) < int(cells["m_naive"])
        diff = abs(float(cells["opt_naive"]) - float(cells["opt_dualview"]))
        assert diff <= 1e-5 * (1 + abs(float(cells["opt_dualview"])))
        assert float(cells["time_naive"]) > 0
        assert float(cells["time_dualview"]) > 0
    rep = size_report(gen_sphere_instance(1, seed=3), 2)
    row = dict(zip(REPORT_FIELDS, lines[2].split(",")))
    assert int(row["n_sdp"]) == rep["n_sdp"]
    assert int(row["m_naive"]) == rep["m_naive"]
    assert int(row["m_dualview"]) == rep["m_dualview"]


def test_compare_refuses_foreign_csv(tmp_path, capsys):
    report = tmp_path / "report.csv"
    report.write_text("something else\n")
    code, _, stderr = run(
        capsys, "compare", "--family", "sphere", "--s", "1", "--d", "2",
        "--seed", "0", "--out", str(report), "--repeats", "1",
    )
    assert code == 3
    assert "not a compare report" in stderr


# ------------------------------------------------------------------- plumbing


def test_usage_errors_exit_three(capsys):
    assert main(["relax", "--d", "2"]) == 3
    capsys.readouterr()
    assert main(["frobnicate"]) == 3
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "generate" in out and "compare" in out


def test_console_entry_point_runs():
    # the child imports the realify under test, installed or not
    src = str(Path(realify.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "realify.cli", "--help"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "realify" in proc.stdout
