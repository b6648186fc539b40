"""Tests of the benchmark itself: small runs, and checks that bite.

    python3 -m pytest bench

Each check must reject a planted wrong result; the small mode must run
every workload end to end and print exactly the metrics BENCHMARK.json
names.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import checks
import run
import workloads

rf = run.import_realify()
TOL = rf.SolverOptions(tol_gap=1e-7, tol_primal=1e-7, tol_dual=1e-7)
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_small_run_prints_every_metric(workload, trace):
    out = _bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                 "--trace", trace, "--small")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_without_sources_fails_without_result(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    out = _bench("--workload", "hsos", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""


# ---------------------------------------------------------------- hsos checks


@pytest.fixture(scope="module")
def sphere():
    p = rf.gen_sphere_instance(2, 0)
    art = rf.assemble_hsos(p, 2, "dualview")
    res = rf.solve(art.program, TOL)
    assert res.status == "optimal"
    return p, art, res, rf.extract_moments(art, res)


def test_hsos_checks_pass_on_real_output(sphere):
    p, art, res, y = sphere
    pts = checks.feasible_points("sphere", 2, checks.SAMPLES, 0)
    fmin = float(checks.eval_poly(p.f.terms, pts).min())
    assert checks.check_hsos_bound(res.objective, fmin) == []
    assert checks.check_mass(art, res, 2) == []
    assert checks.check_moments(y, p, 2, res.objective) == []
    assert checks.check_relaxation_rows(art, 2, 2) == []


def test_eval_poly_matches_the_term_sum():
    p = rf.gen_unitnorm_instance(2, 1)
    z = checks.feasible_points("unitnorm", 2, 3, 0)
    assert np.allclose(checks.eval_poly(p.f.terms, z), [p.f.eval(v) for v in z])


def test_objective_shifted_by_1e_3_is_rejected(sphere):
    p, _, res, y = sphere
    opt = res.objective
    assert checks.check_forms_agree({"dualview": opt, "naive": opt + 1e-3}, 1e-5)
    assert checks.check_moments(y, p, 2, opt + 1e-3)
    assert checks.check_hsos_bound(opt, opt - 1e-3)


def test_broken_moments_are_rejected(sphere):
    p, _, res, y = sphere
    bad = dict(y)
    bad[((1, 0), (1, 0))] = -1.0  # negative diagonal moment: M not PSD
    assert any("eigenvalue" in m for m in checks.check_moments(bad, p, 2, res.objective))
    bad = dict(y)
    key = ((1, 0), (1, 0))
    bad[key] = y[key] + 1e-3  # breaks sum |z_i|^2 = 1 under L_y
    assert any("localizing" in m for m in checks.check_moments(bad, p, 2, res.objective))


def test_wrongly_scaled_dual_is_rejected(sphere):
    _, art, res, _ = sphere
    scaled = SimpleNamespace(dual_row_values=res.dual_row_values * (1 + 1e-4))
    assert any("constant moment" in m for m in checks.check_mass(art, scaled, 2))


def test_wrong_row_count_is_rejected(sphere):
    _, art, _, _ = sphere
    assert checks.check_relaxation_rows(art, 2, 3)


# ---------------------------------------------------------------- csdp checks


@pytest.fixture(scope="module")
def planted():
    data = workloads.planted_csdp(4, 6, 0)
    c, a, b, _ = data
    sdp = rf.ComplexSDP(
        C=rf.HermitianMatrix.from_complex(c),
        A=tuple(rf.ComplexMatrix.from_complex(ak) for ak in a),
        b=rf.ComplexVector(b.real.copy(), b.imag.copy()),
    )
    res = rf.solve(rf.reformulate_primal_dualview(sdp), TOL)
    assert res.status == "optimal"
    h = rf.recover_complex_solution(res.primal_blocks[0]).to_complex()
    return data, res.objective, h


def test_csdp_checks_pass_on_real_output(planted):
    data, opt, h = planted
    assert checks.check_recovered(h, data, opt) == []


def test_recovered_h_with_negative_eigenvalue_is_rejected(planted):
    data, opt, h = planted
    lmin = np.linalg.eigvalsh(h)[0]
    bad = h - (lmin + 1e-3) * np.eye(h.shape[0])
    assert any("eigenvalue" in m for m in checks.check_recovered(bad, data, opt))


def test_csdp_objective_shift_is_rejected(planted):
    data, opt, h = planted
    assert checks.check_recovered(h, data, opt + 1e-3)
    assert checks.check_forms_agree({"dualview": opt, "dual": opt + 1e-3}, 1e-6)


def test_point_better_than_the_optimum_is_rejected(planted):
    # H stays feasible and attains opt, but the planted point scores 1 more,
    # so opt cannot be the maximum; only the planted-point check sees it
    data, opt, h = planted
    c, a, b, _ = data
    better = h + np.conj(c) / np.sum(np.abs(c) ** 2)
    found = checks.check_recovered(h, (c, a, b, better), opt)
    assert len(found) == 1 and "planted" in found[0]


def test_infeasible_h_is_rejected(planted):
    data, opt, h = planted
    c, a, b, h0 = data
    bad = (c, a, b + 1e-3, h0)
    assert any("constraint" in m for m in checks.check_recovered(h, bad, opt))


# ------------------------------------------------------------ error handling


def test_a_raise_after_an_optimal_solve_fails_the_operation():
    rnd = workloads.Round(rf)

    def broken():
        raise KeyError("moment")

    assert rnd.op("solve", lambda: "done") == "done"
    assert rnd.then("extract", broken) is workloads.FAILED
    assert (rnd.attempted, rnd.failed) == (1, 1)
    assert rnd.problems == []


def test_a_check_that_raises_rejects_the_output():
    rnd = workloads.Round(rf)
    rnd.check("case", checks.check_mass, None, None, 2)
    assert rnd.problems and "check_mass raised" in rnd.problems[0]


# --------------------------------------------------------------- relax checks


@pytest.fixture(scope="module")
def relaxed():
    p = rf.gen_unitnorm_instance(2, 0)
    return {form: rf.assemble_hsos(p, 2, form) for form in workloads.FORMS}


def test_relax_checks_pass_on_real_output(relaxed, tmp_path):
    assert checks.check_embedding(relaxed["dualview"], relaxed["naive"], 0) == []
    path = tmp_path / "p.dat-s"
    prog = relaxed["naive"].program
    rf.export_sdpa(prog, path)
    assert checks.check_roundtrip(prog, rf.import_sdpa(path)) == []


def test_corrupted_sdpa_line_is_rejected(relaxed, tmp_path):
    path = tmp_path / "p.dat-s"
    prog = relaxed["dualview"].program
    rf.export_sdpa(prog, path)
    lines = path.read_text().splitlines()
    k, blk, i, j, v = lines[-1].split()
    lines[-1] = " ".join([k, blk, i, j, repr(float(v) * (1 + 1e-12))])
    path.write_text("\n".join(lines) + "\n")
    assert checks.check_roundtrip(prog, rf.import_sdpa(path))


def test_corrupted_row_breaks_the_embedding_identity(relaxed):
    dv, nv = relaxed["dualview"], relaxed["naive"]
    rows = list(dv.program.rows)
    r = rows[-1]
    rows[-1] = rf.Row(entries=tuple((b, i, j, -c) for b, i, j, c in r.entries),
                      free=r.free, rhs=r.rhs)
    bad = rf.RelaxationArtifact(
        order=dv.order, form=dv.form, blocks=dv.blocks,
        program=rf.RealConicProgram(
            psd_blocks=dv.program.psd_blocks, n_free=dv.program.n_free,
            rows=tuple(rows), objective=dv.program.objective, sense=dv.program.sense,
        ),
        row_index=dv.row_index,
    )
    assert checks.check_embedding(bad, nv, 0)


def test_row_values_match_the_program_functionals(relaxed):
    prog = relaxed["naive"].program
    rng = np.random.default_rng(0)
    blocks = []
    for n in prog.psd_blocks:
        g = rng.standard_normal((n, n))
        blocks.append(g + g.T)
    free = rng.standard_normal(prog.n_free)
    assert np.allclose(checks.row_values(prog, blocks, free),
                       [r.value(blocks, free) for r in prog.rows])
