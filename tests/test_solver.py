"""Interior-point solver on the sparse carrier.

The analytic programs here have closed-form optima; the random family is
checked against its planted construction and a second solve from perturbed
stepping, never against the solver's own first answer.
"""

import numpy as np
import pytest

from realify import (
    CPOP,
    CPolynomial,
    LinearFunctional,
    RealConicProgram,
    Row,
    SolverOptions,
    assemble_hsos,
    gen_sphere_instance,
    reformulate_dual,
    solve,
)
from realify.solver import _factor_spd, _Workspace
from test_complex_core import planted_sdp


def max_corner_program():
    # maximize X[0,0] s.t. X[0,0] + X[1,1] = 1, X PSD  ->  1
    return RealConicProgram(
        psd_blocks=(2,),
        n_free=0,
        rows=(Row(entries=((0, 0, 0, 1.0), (0, 1, 1, 1.0)), rhs=1.0),),
        objective=LinearFunctional(entries=((0, 0, 0, 1.0),)),
        sense="maximize",
    )


def min_diag_free_program():
    # minimize x s.t. [[x, 1], [1, x]] PSD  ->  1
    return RealConicProgram(
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


def planted_program(rng, sizes, m, nf=0, sense="maximize"):
    """Random program with strictly feasible points planted on both sides.

    Right-hand sides come from an interior primal point; the objective is
    built as A*(y0) - S0 for a random y0 and interior slack S0, so the dual
    is strictly feasible too and the optimum is finite with zero gap.
    """
    xs = []
    for n in sizes:
        g = rng.standard_normal((n, n))
        xs.append(g @ g.T + 0.5 * np.eye(n))
    fv = rng.standard_normal(nf)
    y0 = rng.standard_normal(m)
    rows = []
    cmats = []
    for n in sizes:
        g = rng.standard_normal((n, n))
        cmats.append(-(g @ g.T + 0.5 * np.eye(n)))
    cf = np.zeros(nf)
    for k in range(m):
        entries = []
        rhs = 0.0
        for b, n in enumerate(sizes):
            a = rng.standard_normal((n, n))
            a = 0.5 * (a + a.T)
            rhs += float(np.tensordot(a, xs[b]))
            cmats[b] += y0[k] * a
            for i in range(n):
                for j in range(i, n):
                    entries.append((b, i, j, float(a[i, j])))
        free = []
        for kk in range(nf):
            c = float(rng.standard_normal())
            free.append((kk, c))
            rhs += c * fv[kk]
            cf[kk] += c * y0[k]
        rows.append(Row(entries=tuple(entries), free=tuple(free), rhs=rhs))
    obj_entries = []
    for b, n in enumerate(sizes):
        for i in range(n):
            for j in range(i, n):
                obj_entries.append((b, i, j, float(cmats[b][i, j])))
    obj_free = tuple((k, float(cf[k])) for k in range(nf))
    prog = RealConicProgram(
        psd_blocks=tuple(sizes),
        n_free=nf,
        rows=tuple(rows),
        objective=LinearFunctional(entries=tuple(obj_entries), free=obj_free),
        sense="maximize",
    )
    if sense == "maximize":
        return prog
    return RealConicProgram(
        psd_blocks=prog.psd_blocks,
        n_free=prog.n_free,
        rows=prog.rows,
        objective=LinearFunctional(
            entries=tuple((b, i, j, -c) for b, i, j, c in prog.objective.entries),
            free=tuple((k, -c) for k, c in prog.objective.free),
        ),
        sense="minimize",
    )


def test_max_corner_reaches_analytic_optimum():
    res = solve(max_corner_program())
    assert res.status == "optimal"
    assert res.objective == pytest.approx(1.0, abs=1e-7)
    assert np.linalg.eigvalsh(res.primal_blocks[0])[0] >= -1e-9


def test_min_diag_free_reaches_analytic_optimum():
    res = solve(min_diag_free_program())
    assert res.status == "optimal"
    assert res.objective == pytest.approx(1.0, abs=1e-7)
    assert res.free_values[0] == pytest.approx(1.0, abs=1e-7)


LOOSE = SolverOptions(tol_gap=1e-7, tol_primal=1e-7, tol_dual=1e-7)


def test_random_planted_programs_solve_cleanly():
    rng = np.random.default_rng(21)
    for sizes, m, nf in [((4,), 6, 0), ((3, 5), 10, 2), ((10,), 30, 3)]:
        prog = planted_program(rng, sizes, m, nf)
        res = solve(prog, LOOSE)
        assert res.status == "optimal"
        assert res.residuals["gap"] <= 1e-7
        assert res.residuals["primal_inf"] <= 1e-7
        assert res.residuals["dual_inf"] <= 1e-7


def test_minimize_sense_negates_consistently():
    rng = np.random.default_rng(22)
    prog = planted_program(rng, (4,), 5, sense="maximize")
    flipped = RealConicProgram(
        psd_blocks=prog.psd_blocks,
        n_free=prog.n_free,
        rows=prog.rows,
        objective=LinearFunctional(
            entries=tuple((b, i, j, -c) for b, i, j, c in prog.objective.entries),
            free=prog.objective.free,
        ),
        sense="minimize",
    )
    a = solve(prog)
    b = solve(flipped)
    assert a.status == b.status == "optimal"
    assert a.objective == pytest.approx(-b.objective, abs=1e-6 * (1 + abs(a.objective)))


def test_solver_is_deterministic_to_the_bit():
    # the second program is in LMI form and is solved through its dual
    for build in (
        lambda rng: planted_program(rng, (3, 4), 8, 1),
        lambda rng: reformulate_dual(planted_sdp(rng, 4, 6)[0]),
    ):
        r1 = solve(build(np.random.default_rng(23)))
        r2 = solve(build(np.random.default_rng(23)))
        assert r1.presolve == r2.presolve
        assert r1.objective == r2.objective
        assert all(
            np.array_equal(a, b)
            for a, b in zip(r1.primal_blocks, r2.primal_blocks)
        )
        assert np.array_equal(r1.dual_row_values, r2.dual_row_values)
        assert np.array_equal(r1.free_values, r2.free_values)
        assert r1.iterations == r2.iterations
    assert r1.presolve["dualized"] == [0]


def test_objective_scaling_covariance():
    rng = np.random.default_rng(24)
    prog = planted_program(rng, (4,), 6)
    scaled = RealConicProgram(
        psd_blocks=prog.psd_blocks,
        n_free=prog.n_free,
        rows=prog.rows,
        objective=LinearFunctional(
            entries=tuple((b, i, j, 10.0 * c) for b, i, j, c in prog.objective.entries),
        ),
        sense=prog.sense,
    )
    a = solve(prog)
    b = solve(scaled)
    assert b.objective == pytest.approx(10.0 * a.objective, rel=1e-6)


def test_empty_row_with_zero_rhs_is_dropped_with_zero_dual():
    prog = RealConicProgram(
        psd_blocks=(2,),
        n_free=0,
        rows=(
            Row(entries=((0, 0, 0, 1.0), (0, 1, 1, 1.0)), rhs=1.0),
            Row(entries=(), rhs=0.0),
        ),
        objective=LinearFunctional(entries=((0, 0, 0, 1.0),)),
        sense="maximize",
    )
    res = solve(prog)
    assert res.status == "optimal"
    assert res.dual_row_values[1] == 0.0


def test_empty_row_with_nonzero_rhs_is_infeasible():
    prog = RealConicProgram(
        psd_blocks=(2,),
        n_free=0,
        rows=(Row(entries=(), rhs=3.0),),
        objective=LinearFunctional(entries=((0, 0, 0, 1.0),)),
        sense="maximize",
    )
    assert solve(prog).status == "infeasible"


def test_no_rows_feasibility_split_on_objective_sign():
    bounded = RealConicProgram(
        psd_blocks=(3,),
        n_free=0,
        rows=(),
        objective=LinearFunctional(entries=((0, 0, 0, -1.0),)),
        sense="maximize",
    )
    res = solve(bounded)
    assert res.status == "optimal"
    assert res.objective == 0.0
    unbounded = RealConicProgram(
        psd_blocks=(3,),
        n_free=0,
        rows=(),
        objective=LinearFunctional(entries=((0, 0, 0, 1.0),)),
        sense="maximize",
    )
    assert solve(unbounded).status == "infeasible"


def test_unconstrained_free_variable_with_objective_is_unbounded():
    prog = RealConicProgram(
        psd_blocks=(2,),
        n_free=1,
        rows=(Row(entries=((0, 0, 0, 1.0),), rhs=1.0),),
        objective=LinearFunctional(free=((0, 1.0),)),
        sense="minimize",
    )
    assert solve(prog).status == "infeasible"


def test_unconstrained_free_variable_without_objective_pins_to_zero():
    prog = RealConicProgram(
        psd_blocks=(2,),
        n_free=2,
        rows=(
            Row(entries=((0, 0, 0, 1.0), (0, 1, 1, 1.0)), rhs=1.0),
            Row(entries=((0, 0, 1, 0.5),), free=((0, 1.0),), rhs=0.0),
        ),
        objective=LinearFunctional(entries=((0, 0, 0, 1.0),)),
        sense="maximize",
    )
    res = solve(prog)
    assert res.status == "optimal"
    assert res.free_values[1] == 0.0


def test_duplicated_row_matches_single_row_solution():
    base = max_corner_program()
    doubled = RealConicProgram(
        psd_blocks=base.psd_blocks,
        n_free=0,
        rows=tuple(base.rows) * 2,
        objective=base.objective,
        sense="maximize",
    )
    a = solve(base)
    b = solve(doubled)
    assert b.status == "optimal"
    assert b.objective == pytest.approx(a.objective, abs=1e-7)
    # the presolved-away copy reports a zero multiplier
    assert b.dual_row_values[1] == 0.0
    assert b.presolve == {
        "dropped_empty": [], "dropped_dependent": [1], "dropped_free": [],
        "dualized": [],
    }


def test_contradictory_duplicate_row_is_infeasible():
    base = max_corner_program()
    clash = RealConicProgram(
        psd_blocks=base.psd_blocks,
        n_free=0,
        rows=tuple(base.rows) + (
            Row(entries=((0, 0, 0, 1.0), (0, 1, 1, 1.0)), rhs=2.0),
        ),
        objective=base.objective,
        sense="maximize",
    )
    assert solve(clash).status == "infeasible"


def test_max_iter_exhaustion_reports_best_iterate():
    res = solve(max_corner_program(), SolverOptions(max_iter=2))
    assert res.status == "max_iter"
    assert res.iterations <= 2
    assert np.isfinite(res.objective)


def test_solver_options_validate():
    with pytest.raises(ValueError):
        SolverOptions(tol_gap=0.0)
    with pytest.raises(ValueError):
        SolverOptions(max_iter=0)


def test_dual_multipliers_satisfy_stationarity():
    # At optimality C - A*(w) must be PSD for a maximize program: the
    # reported row duals are the certificate side of the solve.
    rng = np.random.default_rng(25)
    prog = planted_program(rng, (4,), 6)
    res = solve(prog, LOOSE)
    assert res.status == "optimal"
    n = 4
    slack = np.zeros((n, n))
    for b, i, j, c in prog.objective.entries:
        slack[i, j] -= c
        if i != j:
            slack[j, i] -= c
    for k, row in enumerate(prog.rows):
        for b, i, j, c in row.entries:
            slack[i, j] += c * res.dual_row_values[k]
            if i != j:
                slack[j, i] += c * res.dual_row_values[k]
    assert np.linalg.eigvalsh(slack)[0] >= -1e-6
    dual_obj = float(
        sum(row.rhs * res.dual_row_values[k] for k, row in enumerate(prog.rows))
    )
    assert dual_obj == pytest.approx(res.objective, abs=1e-6 * (1 + abs(res.objective)))


def rows_of_kinds(rng, sizes, kinds, n_free):
    """Program whose row k touches block b as kinds[k][b] says.

    None leaves the block out of the row; "diag", "off" and "pair" store
    one diagonal entry, one off-diagonal entry (two stored coefficients) or
    both; "dense" stores more than n coefficients of an n x n block.  A row
    that touches no block carries free scalars only.
    """
    uppers = [[(i, j) for i in range(n) for j in range(i + 1, n)] for n in sizes]
    rows = []
    for row_kinds in kinds:
        entries = []
        for b, kind in enumerate(row_kinds):
            n, upper = sizes[b], uppers[b]
            if kind == "dense":
                picks = rng.choice(len(upper), size=n // 2 + 1, replace=False)
                spots = [upper[t] for t in picks] + [(0, 0)]
            elif kind is None:
                spots = []
            else:
                i = int(rng.integers(n))
                off = upper[int(rng.integers(len(upper)))]
                spots = {"diag": [(i, i)], "off": [off], "pair": [(i, i), off]}[kind]
            entries += [(b, i, j, float(rng.standard_normal())) for i, j in spots]
        free = ()
        if not entries or rng.random() < 0.3:
            free = ((int(rng.integers(n_free)), float(rng.standard_normal())),)
        rows.append(Row(entries=tuple(sorted(entries)), free=free, rhs=1.0))
    return RealConicProgram(
        psd_blocks=tuple(sizes), n_free=n_free, rows=tuple(rows),
        objective=LinearFunctional(), sense="minimize",
    )


def schur_reference(prog, active, Xs, Sinvs):
    """M[k, l] = sum_b <A_kb, X_b A_lb S_b^-1> from dense coefficient matrices."""
    M = np.zeros((len(active), len(active)))
    for b, n in enumerate(prog.psd_blocks):
        A = np.zeros((len(active), n, n))
        for kk, k in enumerate(active):
            for bb, i, j, c in prog.rows[k].entries:
                if bb == b:
                    A[kk, i, j] = A[kk, j, i] = c
        M += np.tensordot(A, Xs[b] @ A @ Sinvs[b], axes=([1, 2], [1, 2]))
    return M


MIXED_KINDS = [
    # block 0 dense rows only, block 1 sparse rows only, block 2 both;
    # every sixth row has free scalars only
    (None, None, None) if k % 6 == 5 else (
        ("dense", None)[k % 2],
        ("diag", "off", None, "pair")[k % 4],
        ("dense", "diag", "off", "pair", None)[k % 5],
    )
    for k in range(30)
]
# Close to 290 dense rows of a 100 x 100 block: more than the 209 that one
# 2**21-element chunk of 10**4-element matrices holds, so the dense-by-dense
# products span chunks.
CHUNKED_KINDS = [
    (None, None) if k % 50 == 49 else (
        "off" if k % 12 == 0 else "dense", "diag" if k % 7 == 0 else None,
    )
    for k in range(320)
]


@pytest.mark.parametrize("sizes, kinds", [
    ((4, 5, 6), MIXED_KINDS),
    ((100, 3), CHUNKED_KINDS),
])
def test_schur_matrix_matches_the_trace_formula(sizes, kinds):
    rng = np.random.default_rng(26)
    prog = rows_of_kinds(rng, sizes, kinds, n_free=3)
    ws = _Workspace(prog)
    Xs, Sinvs = [], []
    for n in sizes:
        g, h = rng.standard_normal((2, n, n))
        Xs.append(g @ g.T + n * np.eye(n))
        Sinvs.append(np.linalg.inv(h @ h.T + n * np.eye(n)))
    M = ws.schur(Xs, Sinvs)
    ref = schur_reference(prog, ws.active, Xs, Sinvs)
    scale = np.abs(ref).max()
    assert np.abs(np.diag(M) - np.diag(ref)).max() <= 1e-12 * scale
    assert np.abs(M - ref).max() <= 1e-12 * scale
    # rows with free scalars only have no Schur entries
    free_only = [kk for kk, k in enumerate(ws.active) if not prog.rows[k].entries]
    assert free_only and not M[free_only].any()


def test_row_matrices_hold_each_entry_and_its_mirror():
    rng = np.random.default_rng(27)
    base = rows_of_kinds(rng, (4, 5, 6), MIXED_KINDS, n_free=3)
    shuffled = tuple(
        Row(entries=tuple(r.entries[t] for t in rng.permutation(len(r.entries))),
            free=r.free, rhs=r.rhs)
        for r in base.rows
    )
    prog = RealConicProgram(
        psd_blocks=base.psd_blocks, n_free=base.n_free,
        rows=(Row(),) + shuffled, objective=base.objective, sense=base.sense,
    )
    ws = _Workspace(prog)
    assert ws.active[0] == 1
    for b, n in enumerate(prog.psd_blocks):
        want = np.zeros((len(ws.active), n * n))
        for kk, k in enumerate(ws.active):
            for bb, i, j, c in prog.rows[k].entries:
                if bb == b:
                    want[kk, i * n + j] = want[kk, j * n + i] = c
        assert ws.R[b].has_canonical_format
        assert np.array_equal(ws.R[b].toarray(), want)
        assert ws.R[b].nnz == np.count_nonzero(want)


def test_factor_spd_shifts_a_singular_matrix_and_rejects_an_indefinite_one():
    singular = np.array([[1.0, 1.0], [1.0, 1.0]])
    factor = _factor_spd(singular)
    assert factor is not None
    L = np.tril(factor[0])
    shift = (L @ L.T - singular)[0, 0]
    np.testing.assert_allclose(
        L @ L.T, singular + shift * np.eye(2), rtol=0, atol=1e-15
    )
    # scale is max(1, largest diagonal entry) = 1
    assert 0.0 < shift <= 1e-4
    assert _factor_spd(np.array([[1.0, 0.0], [0.0, -1.0]])) is None


def test_presolve_reports_the_free_columns_it_removes():
    # sphere s=2 with a second, non-binomial equality
    # |z1|^2 + 2|z2|^2 - 1.5 = 0 at order 3: of the 73 free scalars, 9 are
    # linear combinations of kept ones
    sphere = gen_sphere_instance(2, 0)
    g = CPolynomial(2, {
        ((1, 0), (1, 0)): 1.0, ((0, 1), (0, 1)): 2.0, ((0, 0), (0, 0)): -1.5,
    })
    p = CPOP(s=2, f=sphere.f, constraints=sphere.constraints + ((g, "eq"),))
    prog = assemble_hsos(p, 3, "dualview").program
    res = solve(prog, SolverOptions(tol_gap=1e-7, tol_primal=1e-7, tol_dual=1e-7))
    assert res.status == "optimal"
    assert prog.n_free == 73
    assert len(res.presolve["dropped_free"]) == 9
    assert res.presolve["dropped_empty"] == res.presolve["dropped_dependent"] == []
    assert np.all(res.free_values[res.presolve["dropped_free"]] == 0.0)


def lmi_program(rng, sizes, nf, sense):
    """Program in LMI form: one row per upper-triangle key of every block.

    The rows pin X = Z0 - sum_j f_j G_j with random nonzero coefficients,
    in shuffled key order.  Z0 puts a strictly feasible X0 at a random f0,
    and cf is built from a positive definite Y0 with <G_j, Y0> = -c~_j
    (c~_j for maximize), so both sides are strictly feasible.  The block
    objective C is random.
    """
    s = -1.0 if sense == "maximize" else 1.0
    f0 = rng.standard_normal(nf)
    rows, obj, cf = [], [], np.zeros(nf)
    for b, n in enumerate(sizes):
        g, h, c = rng.standard_normal((3, n, n))
        G = rng.standard_normal((nf, n, n))
        G = G + G.transpose(0, 2, 1)
        z0 = g @ g.T + 0.5 * np.eye(n) + np.tensordot(f0, G, axes=1)
        y0 = h @ h.T + 0.5 * np.eye(n)
        c = c + c.T
        cf += -s * np.tensordot(G, y0) + np.tensordot(G, c)
        for i in range(n):
            for j in range(i, n):
                coef = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
                w = coef if i == j else 2.0 * coef
                rows.append(Row(
                    entries=((b, i, j, coef),),
                    free=tuple((k, float(w * G[k, i, j])) for k in range(nf)),
                    rhs=float(w * z0[i, j]),
                ))
                obj.append((b, i, j, float(c[i, j])))
    return RealConicProgram(
        psd_blocks=tuple(sizes), n_free=nf,
        rows=tuple(rows[t] for t in rng.permutation(len(rows))),
        objective=LinearFunctional(
            entries=tuple(obj), free=tuple((k, float(cf[k])) for k in range(nf)),
        ),
        sense=sense,
    )


def slack_of(prog, dual):
    """Blockwise C - A*(dual), the slack of a minimization program."""
    S = [np.zeros((n, n)) for n in prog.psd_blocks]
    for k, row in enumerate((prog.objective,) + tuple(prog.rows)):
        for b, i, j, c in row.entries:
            v = c if k == 0 else -c * dual[k - 1]
            S[b][i, j] += v
            if i != j:
                S[b][j, i] += v
    return S


@pytest.mark.parametrize("sense", ["minimize", "maximize"])
def test_lmi_form_is_solved_through_its_dual(sense):
    rng = np.random.default_rng(28)
    prog = lmi_program(rng, (3, 4), 5, sense)
    res = solve(prog, LOOSE)
    assert res.status == "optimal"
    assert res.presolve == {
        "dropped_empty": [], "dropped_dependent": [], "dropped_free": [],
        "dualized": [0, 1],
    }
    scale = 1.0 + float(np.abs(prog.rhs).max())
    resid = prog.row_residuals(res.primal_blocks, res.free_values)
    assert np.abs(resid).max() <= 1e-9 * scale
    # X and the slack C - A*(y) (A*(y) - C for maximize) are PSD, and the
    # row duals price the objective and every free scalar's column
    s = -1.0 if sense == "maximize" else 1.0
    for X, S in zip(res.primal_blocks, slack_of(prog, res.dual_row_values)):
        assert np.linalg.eigvalsh(X)[0] >= -1e-7 * (1.0 + np.abs(X).max())
        assert np.linalg.eigvalsh(s * S)[0] >= -1e-7 * (1.0 + np.abs(S).max())
    a = prog.functionals
    cf = np.zeros(prog.n_free)
    cf[a.free_idx[:a.free_indptr[1]]] = a.free_coef[:a.free_indptr[1]]
    Ft = np.zeros((prog.n_free, prog.n_rows))
    for k, row in enumerate(prog.rows):
        for q, c in row.free:
            Ft[q, k] = c
    np.testing.assert_allclose(Ft @ res.dual_row_values, cf, atol=1e-6 * scale)
    dual_obj = float(prog.rhs @ res.dual_row_values)
    assert dual_obj == pytest.approx(res.objective, abs=1e-6 * (1 + abs(res.objective)))
    # oracle: a duplicated row breaks the LMI form, so the program is solved
    # directly and presolve drops the copy
    twice = RealConicProgram(
        psd_blocks=prog.psd_blocks, n_free=prog.n_free,
        rows=tuple(prog.rows) + (prog.rows[0],), objective=prog.objective,
        sense=sense,
    )
    ref = solve(twice, LOOSE)
    assert ref.status == "optimal"
    assert ref.presolve["dualized"] == []
    assert ref.presolve["dropped_dependent"] == [prog.n_rows]
    assert res.objective == pytest.approx(ref.objective, abs=1e-6 * (1 + abs(ref.objective)))


def test_lmi_form_with_an_unused_priced_free_scalar_is_unbounded():
    # minimize f0 + f1 s.t. [[f0, 1], [1, f0]] PSD, f1 in no row
    prog = RealConicProgram(
        psd_blocks=(2,),
        n_free=2,
        rows=(
            Row(entries=((0, 0, 0, 1.0),), free=((0, -1.0),), rhs=0.0),
            Row(entries=((0, 1, 1, 1.0),), free=((0, -1.0),), rhs=0.0),
            Row(entries=((0, 0, 1, 0.5),), rhs=1.0),
        ),
        objective=LinearFunctional(free=((0, 1.0), (1, 1.0))),
        sense="minimize",
    )
    res = solve(prog)
    assert res.presolve["dualized"] == [0]
    assert res.status == "infeasible"


def test_only_programs_pinning_every_key_once_are_dualized():
    # minimize X[1,1] with X[0,0] = 1 and X[0,1] = 0.5: the row count fits
    # a 2 x 2 block, but one key is pinned twice or a coefficient is zero
    rows = (
        Row(entries=((0, 0, 0, 1.0),), rhs=1.0),
        Row(entries=((0, 0, 1, 0.5),), rhs=0.5),
    )
    for extra in (
        Row(entries=((0, 0, 0, 2.0),), rhs=2.0),
        Row(entries=((0, 1, 1, 0.0),), rhs=0.0),
    ):
        prog = RealConicProgram(
            psd_blocks=(2,), n_free=0, rows=rows + (extra,),
            objective=LinearFunctional(entries=((0, 1, 1, 1.0),)), sense="minimize",
        )
        res = solve(prog, LOOSE)
        assert res.presolve["dualized"] == []
        assert res.status == "optimal"
        assert res.objective == pytest.approx(0.25, abs=1e-6)
