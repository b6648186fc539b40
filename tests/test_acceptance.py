"""End-to-end acceptance checks.

Each test covers one shipped guarantee and prints a single PASS/FAIL line
so the suite output doubles as a checklist.  Tolerances are the contract
values, not what the implementation happens to achieve.
"""

import time
from pathlib import Path

import numpy as np

from realify.cli import main
from realify.complex_sdp import (
    ComplexMatrix,
    ComplexSDP,
    ComplexVector,
    HermitianMatrix,
    apply_constraints,
    inner_product,
    recover_complex_solution,
    reformulate_primal_dualview,
)
from realify.polynomials import gen_sphere_instance, gen_unitnorm_instance
from realify.program import LinearFunctional, RealConicProgram, Row
from realify.relaxation import assemble_hsos, build_data_matrices, size_report
from realify.sdpa import export_sdpa, import_sdpa
from realify.solver import SolverOptions, solve
from realify.validation import (
    compare_reformulations,
    grid_min_1d,
    sample_upper_bound,
)

from entrywise_oracle import (
    accumulate_entries,
    add_dualview_imag,
    entries_by_key,
)

OPTS = SolverOptions(tol_gap=1e-7, tol_primal=1e-7, tol_dual=1e-7)
DATA = Path(__file__).parent / "data"

FAMILIES = (
    ("sphere", gen_sphere_instance),
    ("unitnorm", gen_unitnorm_instance),
)


def report(capsys, line: str) -> None:
    with capsys.disabled():
        print(line, flush=True)


def check(capsys, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    report(capsys, f"acceptance {name}: {verdict} ({detail})")
    assert ok, f"{name}: {detail}"


# criterion 1: published relaxation sizes, bookkeeping only


SPHERE_TABLE = {
    (5, 2): (42, 441, 966),
    (7, 2): (72, 1296, 2736),
    (9, 2): (110, 3025, 6270),
    (11, 2): (156, 6084, 12480),
    (13, 2): (210, 11025, 22470),
    (15, 2): (272, 18496, 37536),
    (5, 3): (112, 3136, 6846),
    (7, 3): (240, 14400, 30372),
}


def test_criterion_1_size_parity(capsys):
    t0 = time.perf_counter()
    bad = []
    for (s, d), (n_sdp, m_dv, m_nv) in SPHERE_TABLE.items():
        rep = size_report(gen_sphere_instance(s, seed=0), d)
        got = (rep["n_sdp"], rep["m_dualview"], rep["m_naive"])
        if got != (n_sdp, m_dv, m_nv):
            bad.append((s, d, got))
    wall = time.perf_counter() - t0
    ok = not bad and wall < 1.0
    check(
        capsys,
        "1 size parity",
        ok,
        f"8 sphere rows, {wall:.3f}s" if not bad else f"mismatches {bad}",
    )


# criterion 2: both forms agree on 20 seeded instances per family


def test_criterion_2_reformulation_equivalence(capsys):
    grid = [(s, d) for s in (1, 2, 3) for d in (2, 3)]
    t0 = time.perf_counter()
    bad = []
    for fam, gen in FAMILIES:
        for i in range(20):
            s, d = grid[i % len(grid)]
            p = gen(s, seed=i)
            opts = {}
            for form in ("naive", "dualview"):
                res = solve(assemble_hsos(p, d, form).program, OPTS)
                opts[form] = res
            diff = abs(opts["naive"].objective - opts["dualview"].objective)
            tol = 1e-5 * (1 + abs(opts["dualview"].objective))
            if (
                opts["naive"].status != "optimal"
                or opts["dualview"].status != "optimal"
                or diff > tol
            ):
                bad.append(
                    (fam, i, s, d, opts["naive"].status,
                     opts["dualview"].status, diff)
                )
    wall = time.perf_counter() - t0
    ok = not bad and wall <= 600.0
    detail = (
        f"40 instances, 80 solves, {wall:.1f}s"
        if not bad
        else f"failures {bad[:4]}"
    )
    check(capsys, "2 reformulation equivalence", ok, detail)


# criterion 3: complex solution recovery from the dual-view optimum


def planted_complex_sdp(seed: int) -> ComplexSDP:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    m = int(rng.integers(1, 8))
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h0 = HermitianMatrix.from_complex(g @ g.conj().T + 0.5 * np.eye(n))
    mats = [
        ComplexMatrix.from_complex(
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        )
        for _ in range(m)
    ]
    # a fixed-trace row keeps the feasible set bounded for any objective
    mats.append(ComplexMatrix.from_complex(np.eye(n)))
    vals = [inner_product(a, h0) for a in mats]
    c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return ComplexSDP(
        C=HermitianMatrix.from_complex(c + c.conj().T),
        A=tuple(mats),
        b=ComplexVector(
            np.array([v.real for v in vals]), np.array([v.imag for v in vals])
        ),
    )


def test_criterion_3_recovery_soundness(capsys):
    bad = []
    for seed in range(10):
        sdp = planted_complex_sdp(seed)
        res = solve(reformulate_primal_dualview(sdp), OPTS)
        if res.status != "optimal":
            bad.append((seed, res.status))
            continue
        h = recover_complex_solution(res.primal_blocks[0])
        eig = float(np.linalg.eigvalsh(h.to_complex())[0])
        resid = apply_constraints(sdp, h).to_complex() - sdp.b.to_complex()
        feas = float(np.abs(resid).max())
        obj = inner_product(sdp.C, h).real
        if eig < -1e-6 or feas > 1e-6 or abs(obj - res.objective) > 1e-6:
            bad.append((seed, eig, feas, abs(obj - res.objective)))
    check(
        capsys,
        "3 recovery soundness",
        not bad,
        "10 planted programs" if not bad else f"failures {bad}",
    )


# criterion 4: omitted diagonal imaginary rows evaluate to nothing


def test_criterion_4_redundancy(capsys):
    rng = np.random.default_rng(123)
    worst = 0.0
    complex_instances = 0
    for seed in range(5):
        p = gen_sphere_instance(2, seed=seed)
        if any(abs(c.imag) > 1e-3 for c in p.f.terms.values()):
            complex_instances += 1
        data = build_data_matrices(p, 2)
        dims = data.block_dims
        ents = entries_by_key(data)
        funs = []
        for beta in data.bases[0].exponents:
            acc = {}
            for blk, pb, qb, c in ents.get((beta, beta), ()):
                add_dualview_imag(acc, blk, dims[blk], pb, qb, c.real, c.imag)
            funs.append(
                accumulate_entries((b, i, j, c) for (b, i, j), c in acc.items())
            )
        for _ in range(100):
            xs = []
            for w in dims:
                m = rng.standard_normal((2 * w, 2 * w))
                xs.append(m + m.T)
            for entries in funs:
                val = sum(
                    c * (xs[b][i, j] + xs[b][j, i] if i != j else xs[b][i, i])
                    for b, i, j, c in entries
                )
                worst = max(worst, abs(val))
    ok = worst <= 1e-12 and complex_instances == 5
    check(
        capsys,
        "4 redundancy",
        ok,
        f"5 instances, 100 assignments each, worst {worst:.2e}",
    )


# criterion 5: hierarchy bounds sit below sampled and gridded minima


def test_criterion_5_bounds_and_monotonicity(capsys):
    bad = []
    for fam, gen in FAMILIES:
        for s in (1, 2):
            p = gen(s, seed=0)
            vals = {}
            for d in (2, 3):
                res = solve(assemble_hsos(p, d, "dualview").program, OPTS)
                if res.status != "optimal":
                    bad.append((fam, s, d, res.status))
                vals[d] = res.objective
            bound = sample_upper_bound(p, 20000, seed=0).best_value
            if not (vals[2] <= vals[3] + 1e-6 and vals[3] <= bound + 1e-6):
                bad.append((fam, s, vals[2], vals[3], bound))
    p1 = gen_unitnorm_instance(1, seed=0)
    res = solve(assemble_hsos(p1, 3, "dualview").program, OPTS)
    gmin = grid_min_1d(p1, 10**6)
    if res.status != "optimal" or res.objective > gmin + 1e-6:
        bad.append(("grid", res.status, res.objective, gmin))
    check(
        capsys,
        "5 bounds and monotonicity",
        not bad,
        "4 hierarchies plus 1-D grid" if not bad else f"failures {bad}",
    )


# criterion 6: solver analytics and SDPA fidelity


def test_criterion_6_solver_and_sdpa(capsys, tmp_path):
    bad = []

    corner = RealConicProgram(
        psd_blocks=(2,),
        n_free=0,
        rows=(Row(entries=((0, 0, 0, 1.0), (0, 1, 1, 1.0)), rhs=1.0),),
        objective=LinearFunctional(entries=((0, 0, 0, 1.0),)),
        sense="maximize",
    )
    res = solve(corner, OPTS)
    if res.status != "optimal" or abs(res.objective - 1.0) > 1e-7:
        bad.append(("corner", res.status, res.objective))

    diag_free = RealConicProgram(
        psd_blocks=(2,),
        n_free=1,
        rows=(
            Row(entries=((0, 0, 0, 1.0),), free=((0, -1.0),), rhs=0.0),
            Row(entries=((0, 1, 1, 1.0),), free=((0, -1.0),), rhs=0.0),
            Row(entries=((0, 0, 1, 0.5),), rhs=1.0),
        ),
        objective=LinearFunctional(free=((0, 1.0),)),
        sense="minimize",
    )
    res = solve(diag_free, OPTS)
    if res.status != "optimal" or abs(res.objective - 1.0) > 1e-7:
        bad.append(("diag_free", res.status, res.objective))

    prog = assemble_hsos(gen_sphere_instance(2, seed=0), 2, "dualview").program
    path = tmp_path / "round.dat-s"
    export_sdpa(prog, path)
    if import_sdpa(path) != prog:
        bad.append(("round trip",))

    golden = RealConicProgram(
        psd_blocks=(1,),
        n_free=0,
        rows=(Row(entries=((0, 0, 0, 1.0),), rhs=1.0),),
        objective=LinearFunctional(entries=((0, 0, 0, 1.0),)),
        sense="maximize",
    )
    out = tmp_path / "corner.dat-s"
    export_sdpa(golden, out)
    if out.read_bytes() != (DATA / "corner.dat-s").read_bytes():
        bad.append(("golden bytes",))

    check(
        capsys,
        "6 solver and SDPA",
        not bad,
        "2 analytic optima, exact round trip, golden bytes"
        if not bad
        else f"failures {bad}",
    )


# criterion 7: both forms reach optimal at benchmark size, the
# structure-free one no slower


def test_criterion_7_timing_order(capsys):
    p = gen_sphere_instance(5, seed=0)
    out = compare_reformulations(p, 3, OPTS, repeats=1)
    ok = (
        out["status_dualview"] == "optimal"
        and out["status_naive"] == "optimal"
        and out["time_dualview"] <= out["time_naive"]
    )
    check(
        capsys,
        "7 timing order",
        ok,
        f"dualview {out['time_dualview']:.1f}s ({out['status_dualview']}) vs "
        f"naive {out['time_naive']:.1f}s ({out['status_naive']}), "
        f"abs_diff {out['abs_diff']:.2e}",
    )


# criterion 8: unsupported scale and families stay out of scope


def test_criterion_8_out_of_scope(capsys, tmp_path):
    import realify.cli as cli

    bad = []
    code = main(
        ["generate", "--family", "matpower", "--s", "3", "--seed", "0",
         "--out", str(tmp_path / "x.json")]
    )
    capsys.readouterr()
    if code != 3:
        bad.append(("matpower exit", code))
    if set(cli.FAMILIES) != {"sphere", "unitnorm"}:
        bad.append(("families", sorted(cli.FAMILIES)))
    check(
        capsys,
        "8 out of scope",
        not bad,
        "matpower exits 3, families fixed" if not bad else f"failures {bad}",
    )
