"""Interior-point solver on the sparse carrier.

The analytic programs here have closed-form optima; the random family is
checked against its planted construction and a second solve from perturbed
stepping, never against the solver's own first answer.
"""

import ctypes
import sys
import threading
import tracemalloc
import weakref
from collections import defaultdict

import numpy as np
import pytest
import scipy
import scipy.linalg as sla
import scipy.sparse as sp

import realify.solver as solver
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
    reformulate_primal_dualview,
    reformulate_primal_naive,
    solve,
)
from realify.solver import _factor_spd, _independent, _presolve, _Workspace
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


def assert_same_bits(r1, r2):
    assert r1.status == r2.status
    assert r1.presolve == r2.presolve
    assert r1.objective == r2.objective
    assert all(
        np.array_equal(a, b)
        for a, b in zip(r1.primal_blocks, r2.primal_blocks)
    )
    assert np.array_equal(r1.dual_row_values, r2.dual_row_values)
    assert np.array_equal(r1.free_values, r2.free_values)
    assert r1.iterations == r2.iterations


def test_solver_is_deterministic_to_the_bit(monkeypatch):
    # the second program's Schur matrix turns singular near the optimum, so
    # it takes the pivoted fallback; the last is in LMI form and is solved
    # through its dual
    factor_spd, fallbacks = solver._factor_spd, []

    def spy(schur):
        L, kept = factor_spd(schur)
        fallbacks.append(isinstance(kept, np.ndarray))
        return L, kept

    monkeypatch.setattr(solver, "_factor_spd", spy)
    for build, seed in (
        (lambda rng: planted_program(rng, (3, 4), 8, 1), 23),
        (lambda rng: reformulate_primal_naive(planted_sdp(rng, 5, 8)[0]), 2),
        (lambda rng: reformulate_dual(planted_sdp(rng, 4, 6)[0]), 23),
    ):
        fallbacks.clear()
        r1 = solve(build(np.random.default_rng(seed)))
        r2 = solve(build(np.random.default_rng(seed)))
        assert_same_bits(r1, r2)
        assert any(fallbacks) == (seed == 2)
    assert r1.presolve["dualized"] == [0]


def small_programs():
    """Sphere (2,2) in both forms and a planted complex SDP (4,6) in the
    naive form and in LMI form, which is solved through its dual."""
    sdp = planted_sdp(np.random.default_rng(24), 4, 6)[0]
    return [
        assemble_hsos(gen_sphere_instance(2, 0), 2, form).program
        for form in ("dualview", "naive")
    ] + [reformulate_primal_naive(sdp), reformulate_dual(sdp)]


def test_solve_reads_only_the_upper_triangle_of_the_schur_matrix(monkeypatch):
    # below its diagonal the Schur matrix holds partial sums; NaN there
    # changes no bit of any result
    progs = small_programs()
    want = [solve(prog, LOOSE) for prog in progs]
    schur = _Workspace.schur

    def nan_below(self, Xs, Sinvs):
        M = schur(self, Xs, Sinvs)
        M[np.tril_indices_from(M, -1)] = np.nan
        return M

    monkeypatch.setattr(_Workspace, "schur", nan_below)
    for prog, r in zip(progs, want):
        assert r.status == "optimal"
        assert_same_bits(solve(prog, LOOSE), r)


def test_iterates_and_directions_are_exactly_symmetric(monkeypatch):
    # A holds each block entry and its mirror with one coefficient, so no
    # update of X, S, dX or dS needs a pass that re-imposes symmetry; X and
    # S are checked where they are factored, dX and dS at their step lengths
    cholesky, max_step, factored, calls = np.linalg.cholesky, solver._max_step, [], []

    def checked_factor(P):
        assert np.array_equal(P, P.T)
        factored.append(P.shape)
        return cholesky(P)

    def checked(L, D):
        assert np.array_equal(D, D.T)
        calls.append(D.shape)
        return max_step(L, D)

    monkeypatch.setattr(np.linalg, "cholesky", checked_factor)
    monkeypatch.setattr(solver, "_max_step", checked)
    for prog in small_programs():
        assert solve(prog, LOOSE).status == "optimal"
    assert len(calls) > 100 and len(factored) > 50


def test_each_iterate_is_factored_once(monkeypatch):
    # per iteration, one Cholesky of each X_b and each S_b serves S_b^-1 and
    # both step lengths; the Schur matrix's own factorization is not counted
    prog = planted_program(np.random.default_rng(23), (3, 4), 8, 1)
    factor_spd, in_schur, factored = solver._factor_spd, [False], [[]]

    def counted(factor):
        def wrapped(P, *args, **kwargs):
            if not in_schur[0]:
                factored[-1].append(len(P))
            return factor(P, *args, **kwargs)
        return wrapped

    def schur_factor(schur):
        in_schur[0] = True
        try:
            return factor_spd(schur)
        finally:
            in_schur[0] = False
            factored.append([])

    monkeypatch.setattr(np.linalg, "cholesky", counted(np.linalg.cholesky))
    monkeypatch.setattr(solver.sla, "cho_factor", counted(solver.sla.cho_factor))
    monkeypatch.setattr(solver, "_factor_spd", schur_factor)
    res = solve(prog)
    assert res.status == "optimal" and res.iterations > 5
    # the sizes factored before each Schur factorization, and none after the
    # last, since the converged iterate takes no step
    assert [sorted(f) for f in factored] == [[3, 3, 4, 4]] * res.iterations + [[]]


def knife_edge_program():
    """Planted complex SDP (5,8) at seed 2 in the naive form: near its
    optimum the Schur matrix turns singular, so it takes the pivoted
    fallback."""
    return reformulate_primal_naive(planted_sdp(np.random.default_rng(2), 5, 8)[0])


def test_no_schur_matrix_or_factor_outlives_its_iteration(monkeypatch):
    # M is factored in its own storage, and both the previous factor and a
    # failed plain factor are dropped before the next M is assembled: when
    # ws.schur starts, no earlier M and no earlier factor lives, so a solve
    # holds one m x m array at a time
    schur, factor_spd, refs, dead = _Workspace.schur, solver._factor_spd, [], []
    factors = []  # a ref to each factor: the assembled Ms' refs are the rest

    def checked(self, Xs, Sinvs):
        dead.append(all(r() is None for r in refs))
        M = schur(self, Xs, Sinvs)
        refs.append(weakref.ref(M))
        return M

    def kept_ref(assemble):
        L, kept = factor_spd(assemble)
        factors.append(weakref.ref(L))
        refs.append(factors[-1])
        return L, kept

    monkeypatch.setattr(_Workspace, "schur", checked)
    monkeypatch.setattr(solver, "_factor_spd", kept_ref)
    for prog in small_programs():
        assert solve(prog, LOOSE).status == "optimal"
    assert solve(knife_edge_program()).status == "optimal"
    # each fallback assembles M a second time
    assert len(dead) > len(factors) > 40 and all(dead)


def test_the_unrefined_schur_solve_meets_its_right_hand_side(monkeypatch):
    # one Cholesky solve per direction, with no refinement against M: on the
    # factor's kept rows M dy meets h to 1e-9 of h there, on the plain path
    # and on the pivoted fallback alike (h[kept] in place of the whole h
    # only makes the bound stricter)
    factor_spd, cho_solve = solver._factor_spd, sla.cho_solve
    factored, residuals = [], []  # (L, kept, M[kept][:, kept]) per factorization

    def spy_factor(schur):
        copies = []

        def copied():
            # M's storage becomes its factor: keep the triangle it holds first
            M = schur()
            copies.append(np.triu(M))
            return M

        L, kept = factor_spd(copied)
        U = copies[-1]
        factored.append((L, kept, (U + np.triu(U, 1).T)[kept][:, kept]))
        return L, kept

    def spy_solve(c_and_lower, h, *args, **kwargs):
        dy = cho_solve(c_and_lower, h, *args, **kwargs)
        if factored and c_and_lower[0] is factored[-1][0]:
            residuals.append(np.linalg.norm(h - factored[-1][2] @ dy) / np.linalg.norm(h))
        return dy

    monkeypatch.setattr(solver, "_factor_spd", spy_factor)
    monkeypatch.setattr(solver.sla, "cho_solve", spy_solve)
    for prog in small_programs():
        assert solve(prog, LOOSE).status == "optimal"
    assert solve(knife_edge_program()).status == "optimal"
    fallbacks = [kept for _, kept, _ in factored if not isinstance(kept, slice)]
    # two solves, the predictor's and the corrector's, per factorization
    assert fallbacks and len(residuals) == 2 * len(factored) > 50
    assert max(residuals) <= 1e-9


def blas_threads():
    """Each found OpenBLAS's thread count, read through its own getter,
    whose name carries the build's symbol prefix and suffix."""
    names = [
        p + "openblas_get_num_threads" + s for p in ("", "scipy_") for s in ("", "64_")
    ]
    return [
        next(getattr(lib, n) for n in names if hasattr(lib, n))()
        for lib in solver._OPENBLAS
    ]


def test_solve_runs_blas_on_one_thread_and_restores_the_callers_count(monkeypatch):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if sys.platform == "linux" and blas["name"] == "scipy-openblas":
        assert solver._OPENBLAS
    caller = blas_threads()
    inside = []
    direct = solver._solve_direct

    def spy(prog, opts):
        inside.append(blas_threads())
        return direct(prog, opts)

    def failing(prog, opts):
        inside.append(blas_threads())
        raise RuntimeError("breakdown")

    # the direct path, then the LMI path (a dual solve), then a raise
    monkeypatch.setattr(solver, "_solve_direct", spy)
    assert solve(max_corner_program()).status == "optimal"
    assert blas_threads() == caller
    lmi = reformulate_dual(planted_sdp(np.random.default_rng(25), 3, 4)[0])
    assert solve(lmi).presolve["dualized"] == [0]
    assert blas_threads() == caller
    monkeypatch.setattr(solver, "_solve_direct", failing)
    with pytest.raises(RuntimeError):
        solve(max_corner_program())
    assert blas_threads() == caller
    assert inside == [[1] * len(caller)] * 3


def setter(lib):
    return ctypes.cast(lib.openblas_set_num_threads_local, ctypes.c_void_p).value


SCIPY_OPENBLAS_ON_LINUX = sys.platform == "linux" and all(
    cfg(mode="dicts")["Build Dependencies"]["blas"]["name"] == "scipy-openblas"
    for cfg in (np.show_config, scipy.show_config)
)


@pytest.mark.skipif(
    not SCIPY_OPENBLAS_ON_LINUX, reason="needs Linux and scipy-openblas wheels"
)
def test_each_module_handle_reaches_an_openblas_the_process_maps():
    # the oracle: every file named openblas that /proc/self/maps lists and
    # that has the setter, each wheel's bundled library on its own
    with open("/proc/self/maps") as fh:
        paths = sorted({ln.split(None, 5)[-1].strip() for ln in fh if "openblas" in ln})
    mapped = [ctypes.CDLL(p) for p in paths]
    mapped = [lib for lib in mapped if hasattr(lib, "openblas_set_num_threads_local")]
    assert len(mapped) == 2
    assert sorted(map(setter, solver._OPENBLAS)) == sorted(map(setter, mapped))


@pytest.mark.skipif(not solver._OPENBLAS, reason="no OpenBLAS with the thread setter")
def test_an_openblas_reached_twice_is_restored_to_the_callers_count(monkeypatch):
    # numpy and scipy linking one OpenBLAS: the second save reads the first's
    # 1, so only a restore in reverse order ends at the caller's count
    lib = solver._OPENBLAS[0]
    saved = lib.openblas_set_num_threads_local(2)
    try:
        monkeypatch.setattr(solver, "_OPENBLAS", [lib, lib])
        assert solve(max_corner_program()).status == "optimal"
        assert blas_threads() == [2, 2]
    finally:
        lib.openblas_set_num_threads_local(saved)


def test_overlapping_solves_in_two_threads_restore_the_callers_count(monkeypatch):
    # the setter is process-wide: the second solve in saw the first's 1, so
    # only the last solve out may restore, and to what the first one saved
    caller = blas_threads()
    both_in = threading.Barrier(2, timeout=30)
    first_out = threading.Event()
    inside, results = {}, {}
    direct = solver._solve_direct

    def spy(prog, opts):
        both_in.wait()
        name = threading.current_thread().name
        if name == "second":
            assert first_out.wait(timeout=30)
        inside[name] = blas_threads()
        return direct(prog, opts)

    def run():
        name = threading.current_thread().name
        results[name] = solve(max_corner_program()).status
        if name == "first":
            first_out.set()

    monkeypatch.setattr(solver, "_solve_direct", spy)
    threads = [threading.Thread(target=run, name=n) for n in ("first", "second")]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results == {"first": "optimal", "second": "optimal"}
    assert inside == {"first": [1] * len(caller), "second": [1] * len(caller)}
    assert blas_threads() == caller


def test_result_does_not_depend_on_the_callers_blas_threads():
    # large enough that OpenBLAS would split its products over threads
    prog = reformulate_primal_naive(planted_sdp(np.random.default_rng(26), 16, 32)[0])
    saved = [lib.openblas_set_num_threads_local(1) for lib in solver._OPENBLAS]
    try:
        r1 = solve(prog)
        for lib in solver._OPENBLAS:
            lib.openblas_set_num_threads_local(2)
        r2 = solve(prog)
    finally:
        for lib, n in zip(solver._OPENBLAS, saved):
            lib.openblas_set_num_threads_local(n)
    assert r1.status == r2.status == "optimal"
    assert r1.objective == r2.objective
    assert all(
        np.array_equal(a, b) for a, b in zip(r1.primal_blocks, r2.primal_blocks)
    )
    assert np.array_equal(r1.dual_row_values, r2.dual_row_values)
    assert np.array_equal(r1.free_values, r2.free_values)
    assert r1.iterations == r2.iterations


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


# a row with no entries, and one whose only coefficient is a stored zero
empty_entries = pytest.mark.parametrize(
    "entries", [(), ((0, 0, 1, 0.0),)], ids=["no_entries", "stored_zero"]
)


@empty_entries
def test_empty_row_with_zero_rhs_is_dropped_with_zero_dual(entries):
    prog = RealConicProgram(
        psd_blocks=(2,),
        n_free=0,
        rows=(
            Row(entries=((0, 0, 0, 1.0), (0, 1, 1, 1.0)), rhs=1.0),
            Row(entries=entries, rhs=0.0),
        ),
        objective=LinearFunctional(entries=((0, 0, 0, 1.0),)),
        sense="maximize",
    )
    res = solve(prog)
    assert res.status == "optimal"
    assert res.dual_row_values[1] == 0.0
    assert res.presolve["dropped_empty"] == [1]
    assert res.presolve["dropped_dependent"] == []


@empty_entries
def test_empty_row_with_nonzero_rhs_is_infeasible(entries):
    prog = RealConicProgram(
        psd_blocks=(2,),
        n_free=0,
        rows=(Row(entries=entries, rhs=3.0),),
        objective=LinearFunctional(entries=((0, 0, 0, 1.0),)),
        sense="maximize",
    )
    res = solve(prog)
    assert res.status == "infeasible"
    assert res.iterations == 0
    assert res.presolve["dropped_empty"] == [0]


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
    # a free scalar and no rows: unbounded when priced, pinned at 0 when not
    for price, status in (((0, 1.0),), "infeasible"), ((), "optimal"):
        prog = RealConicProgram(
            psd_blocks=(3,),
            n_free=1,
            rows=(),
            objective=LinearFunctional(entries=((0, 0, 0, -1.0),), free=price),
            sense="maximize",
        )
        res = solve(prog)
        assert res.status == status
        assert res.presolve["dropped_free"] == [0]


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


@pytest.mark.parametrize("objective, sense, status", [
    (LinearFunctional(free=((0, 1.0),)), "minimize", "infeasible"),
    (LinearFunctional(free=((0, -1.0),)), "maximize", "infeasible"),
    (LinearFunctional(entries=((0, 0, 0, 1.0),)), "minimize", "optimal"),
], ids=["min_f0", "max_minus_f0", "unpriced"])
def test_dependent_free_scalar_is_pinned_unless_its_price_is_unmatched(
    objective, sense, status,
):
    # X00 + f0 + f1 = 1, X11 = 1: the column of f1 repeats that of f0, so
    # presolve keeps f0 and pins f1 at zero.  Priced f0 alone improves
    # without bound along f0 -> -inf, f1 -> +inf.
    prog = RealConicProgram(
        psd_blocks=(2,),
        n_free=2,
        rows=(
            Row(entries=((0, 0, 0, 1.0),), free=((0, 1.0), (1, 1.0)), rhs=1.0),
            Row(entries=((0, 1, 1, 1.0),), rhs=1.0),
        ),
        objective=objective,
        sense=sense,
    )
    res = solve(prog)
    assert res.status == status
    assert res.presolve["dropped_free"] == [1]
    assert res.free_values[1] == 0.0
    if status == "infeasible":
        assert res.iterations == 0


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


@pytest.mark.parametrize("k", [0, 3])
def test_breakdown_reports_the_steps_taken(monkeypatch, k):
    # the (k + 1)-th iteration breaks down, after k steps, at each site: its
    # Schur matrix has no positive pivot, its S is not positive definite, or
    # its direction is NaN, which the step-length test rejects
    cholesky = np.linalg.cholesky
    for site in ("schur", "slack", "direction"):
        calls = []

        def failing(schur):
            calls.append(schur)
            if len(calls) < k + 1:
                return _factor_spd(schur)
            if site == "schur":
                raise np.linalg.LinAlgError("no pivot of M is positive")
            L, kept = _factor_spd(schur)
            return np.full_like(L, np.nan), kept

        def failing_cholesky(P):
            # one block: each iteration factors X, then S
            calls.append(P)
            if len(calls) == 2 * k + 2:
                raise np.linalg.LinAlgError("S is not positive definite")
            return cholesky(P)

        with monkeypatch.context() as patch:
            if site == "slack":
                patch.setattr(np.linalg, "cholesky", failing_cholesky)
            else:
                patch.setattr(solver, "_factor_spd", failing)
            res = solve(max_corner_program())
        assert len(calls) == (2 * k + 2 if site == "slack" else k + 1)
        assert res.status == "numerical"
        assert res.iterations == k


def max_x11_program(rows):
    # maximize X[1,1] over one 2 x 2 block
    return RealConicProgram(
        psd_blocks=(2,), n_free=0, rows=rows,
        objective=LinearFunctional(entries=((0, 1, 1, 1.0),)), sense="maximize",
    )


def test_unbounded_program_ends_by_the_primal_divergence_exit():
    # X[0,0] = 1 leaves X[1,1] free to grow: the primal objective explodes
    # while the primal rows stay met
    res = solve(max_x11_program((Row(entries=((0, 0, 0, 1.0),), rhs=1.0),)))
    assert (res.status, res.iterations) == ("infeasible", 5)
    assert res.objective > 1e13 and res.residuals["primal_inf"] < 1e-6


def test_infeasible_program_ends_by_the_dual_divergence_exit():
    # a PSD X has no negative trace: the dual objective explodes while the
    # dual residual stays met
    res = solve(max_x11_program((
        Row(entries=((0, 0, 0, 1.0), (0, 1, 1, 1.0)), rhs=-5.0),
        Row(entries=((0, 0, 1, 0.5),), rhs=1.0),
    )))
    assert (res.status, res.iterations) == ("infeasible", 5)
    assert res.residuals["dual_inf"] < 1e-6


def unit_diagonal_program():
    # maximize X[0,1] s.t. X[0,0] = X[1,1] = 1  ->  1
    return RealConicProgram(
        psd_blocks=(2,), n_free=0,
        rows=(Row(entries=((0, 0, 0, 1.0),), rhs=1.0),
              Row(entries=((0, 1, 1, 1.0),), rhs=1.0)),
        objective=LinearFunctional(entries=((0, 0, 1, 1.0),)), sense="maximize",
    )


def test_three_vanishing_steps_end_by_the_stall_exit(monkeypatch):
    assert solve(unit_diagonal_program()).status == "optimal"
    monkeypatch.setattr(solver, "_max_step", lambda L, D: 1e-9)
    res = solve(unit_diagonal_program())
    assert (res.status, res.iterations) == ("numerical", 2)


def test_a_non_finite_residual_ends_by_the_non_finite_exit(monkeypatch):
    # each iteration applies the rows to X once for its residual and once
    # per direction, so the 4th call is the second iteration's residual
    apply, calls = _Workspace.apply, []

    def nan_residual(ws, Xs):
        calls.append(None)
        return np.full(ws.m, np.nan) if len(calls) == 4 else apply(ws, Xs)

    monkeypatch.setattr(_Workspace, "apply", nan_residual)
    res = solve(unit_diagonal_program())
    assert (res.status, res.iterations, len(calls)) == ("numerical", 1, 4)


def test_solver_options_validate():
    for bad in (
        dict(tol_gap=0.0), dict(tol_primal=np.inf), dict(tol_dual=np.nan),
        dict(tol_gap=-np.inf), dict(max_iter=0), dict(max_iter=2.5),
        # a bool passes for the number 1
        dict(max_iter=True), dict(tol_gap=True), dict(tol_dual=np.True_),
    ):
        with pytest.raises(ValueError):
            SolverOptions(**bad)
    assert SolverOptions(max_iter=np.int64(3)).max_iter == 3


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


def kept_rows(prog, report):
    """The rows that presolve does not report dropped."""
    dropped = report["dropped_empty"] + report["dropped_dependent"]
    return np.delete(np.arange(prog.n_rows), dropped)


def pivot_rows(prog, report, back):
    """The kept rows split into the pivot rows and the others.

    ``back`` solves the free scalars out of the pivot rows, so at a random
    X and the free values it gives, the pivot rows' residuals vanish.
    """
    rng = np.random.default_rng(0)
    Xs = [g + g.T for g in (rng.standard_normal((n, n)) for n in prog.psd_blocks)]
    resid = prog.row_residuals(Xs, back(Xs, None)[0])
    active = kept_rows(prog, report)
    at_zero = np.abs(resid[active]) <= 1e-12 * (1.0 + np.abs(prog.rhs).max())
    return active[at_zero], active[~at_zero]


def schur_reference(ws, Xs, Sinvs):
    """M[k, l] = sum_b <A_kb, X_b A_lb S_b^-1> from dense coefficient matrices
    of the workspace's block slices of the rows."""
    M = np.zeros((ws.m, ws.m))
    for (Ab, *_), X, Sinv, n in zip(ws.blocks, Xs, Sinvs, ws.sizes):
        Ab = Ab.toarray().reshape(-1, n, n)
        M += np.tensordot(Ab, X @ Ab @ Sinv, axes=([1, 2], [1, 2]))
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
# Close to 290 dense rows of a 100 x 100 block: more than a tile of _CHUNK
# elements holds (26 of these 10**4-element matrices at 2**18), so the
# dense-by-dense products span tiles.
CHUNKED_KINDS = [
    (None, None) if k % 50 == 49 else (
        "off" if k % 12 == 0 else "dense", "diag" if k % 7 == 0 else None,
    )
    for k in range(320)
]


@pytest.mark.parametrize("sizes, kinds, cap", [
    ((4, 5, 6), MIXED_KINDS, None),
    ((100, 3), CHUNKED_KINDS, None),
    ((4, 5, 6), MIXED_KINDS, 100),
], ids=["sizes0-kinds0", "sizes1-kinds1", "small-tiles"])
def test_schur_matrix_matches_the_trace_formula(sizes, kinds, cap, monkeypatch):
    rng = np.random.default_rng(26)
    prog = rows_of_kinds(rng, sizes, kinds, n_free=3)
    reduced, _, report, _ = _presolve(prog)
    ws = _Workspace(prog.psd_blocks, *reduced)
    if cap:
        # tiles of cap // max(n^2, m_b) rows: each block's sparse rows span
        # at least three
        monkeypatch.setattr(solver, "_CHUNK", cap)
        for (_, dense, sparse, *_), n in zip(ws.blocks, sizes):
            tile = cap // max(n * n, dense.size + sparse.size)
            assert sparse.size == 0 or sparse.size > 2 * tile
    Xs, Sinvs = [], []
    for n in sizes:
        g, h = rng.standard_normal((2, n, n))
        Xs.append(g @ g.T + n * np.eye(n))
        Sinvs.append(np.linalg.inv(h @ h.T + n * np.eye(n)))
    M = ws.schur(Xs, Sinvs)
    ref = schur_reference(ws, Xs, Sinvs)
    scale = np.abs(ref).max()
    assert np.abs(np.diag(M) - np.diag(ref)).max() <= 1e-12 * scale
    # only the upper triangle is assembled
    assert np.abs(np.triu(M - ref)).max() <= 1e-12 * scale
    # a kept row with free scalars only is a pivot row or takes the pivot
    # rows' block entries, so no row of the Schur system is empty
    assert any(not prog.rows[k].entries for k in kept_rows(prog, report))
    stored = sum(np.diff(Ab.indptr) for Ab, *_ in ws.blocks)
    assert stored.all() and np.diag(M).all()


def test_schur_peaks_a_few_tiles_above_its_matrix(monkeypatch):
    # 75 dense and 138 sparse rows of a 24 x 24 block.  A tile holds W, the
    # rows it meets (densified, or a sparse tile's gathered entries), the
    # C-ordered copy of W' that the sparse x dense product takes, the product
    # and the gather of M's entries it is added to: five temporaries of at
    # most _CHUNK elements, where one tile of all the rows peaks at 26 caps.
    n, m = 24, 300
    kinds = [(("dense", "diag", "off", "pair")[k % 4],) for k in range(m)]
    prog = rows_of_kinds(np.random.default_rng(36), (n,), kinds, n_free=1)
    ws = _Workspace(prog.psd_blocks, *_presolve(prog)[0])
    rng = np.random.default_rng(37)
    g, h = rng.standard_normal((2, n, n))
    Xs, Sinvs = [g @ g.T + n * np.eye(n)], [np.linalg.inv(h @ h.T + n * np.eye(n))]
    cap = 16 * n * n
    monkeypatch.setattr(solver, "_CHUNK", cap)
    # each kind of row spans at least three tiles of 16 rows
    _, dense, sparse, *_ = ws.blocks[0]
    assert min(dense.size, sparse.size) > 2 * cap // (n * n)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        M = ws.schur(Xs, Sinvs)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak - M.nbytes < 6 * cap * 8


def test_a_solve_peaks_near_one_schur_matrix(monkeypatch):
    # M is factored in its own storage and the previous factor is gone
    # before the next M is assembled, so with tiles far smaller than M a
    # solve holds one m x m array at a time; the copy that a Cholesky of M
    # would make, or a factor kept into the next assembly, adds a second.
    # Presolve's row Gram, over the 903 rows before presolve, peaks near
    # 1.12 m x m and is freed before the first M
    prog = assemble_hsos(gen_sphere_instance(5, 1), 2, "naive").program
    m = _presolve(prog)[0][0].shape[0]
    monkeypatch.setattr(solver, "_CHUNK", 4096)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        res = solve(prog, LOOSE)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert res.status == "optimal" and m > 800
    assert peak < 1.5 * m * m * 8


@pytest.mark.parametrize("seed", [0, 1])
def test_presolve_peaks_near_its_row_gram(monkeypatch, seed):
    # the 903 x 903 row Gram is 1.087 m x m, and scaling it one column at a
    # time adds no temporary wider than a column
    prog = assemble_hsos(gen_sphere_instance(5, seed), 2, "naive").program
    monkeypatch.setattr(solver, "_CHUNK", 4096)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        m = _presolve(prog)[0][0].shape[0]
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert prog.n_rows == 903 and m > 800
    assert peak < 1.15 * m * m * 8


def test_block_slices_act_as_the_stacked_operator():
    # three blocks: apply sums block by block, where the stacked A sums
    # each row in one pass
    rng = np.random.default_rng(31)
    prog = rows_of_kinds(rng, (4, 5, 6), MIXED_KINDS, n_free=3)
    reduced = _presolve(prog)[0]
    ws = _Workspace(prog.psd_blocks, *reduced)
    assert not hasattr(ws, "A")
    Xs = [g + g.T for g in (rng.standard_normal((n, n)) for n in prog.psd_blocks)]
    want = reduced[0] @ np.concatenate([X.ravel() for X in Xs])
    got = ws.apply(Xs)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    y = rng.standard_normal(ws.m)
    lhs = y @ got
    rhs = sum(np.tensordot(Z, X) for Z, X in zip(ws.apply_adjoint(y), Xs))
    assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


@pytest.mark.parametrize("form", [reformulate_primal_dualview, reformulate_primal_naive])
def test_workspace_keeps_one_copy_of_the_rows(form):
    # one block whose data rows are dense, so a second copy of them would
    # double what the workspace keeps; naive's structural rows are sparse,
    # and their own CSR and Schur entry lists (12 and 24 bytes an entry)
    # come on top
    prog = form(planted_sdp(np.random.default_rng(32), 16, 64)[0])
    A = _presolve(prog)[0][0]
    rows = A.data.nbytes + A.indices.nbytes + A.indptr.nbytes
    del A
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ws = _Workspace(prog.psd_blocks, *_presolve(prog)[0])
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert ws.m > 0
    assert kept <= 1.25 * rows


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
        rows=(Row(),) + shuffled, sense="maximize",
        objective=LinearFunctional(shuffled[0].entries, ((2, 0.5), (0, -1.5))),
    )
    (A, b, C, norms, const), _, report, back = _presolve(prog)
    assert kept_rows(prog, report)[0] == 1
    free_idx = np.delete(np.arange(prog.n_free), report["dropped_free"])
    off = np.r_[0, np.cumsum(np.square(prog.psd_blocks))]

    def stacked(fun):
        # vec(X_0), ..., vec(X_{B-1}), then the kept free scalars
        blocks = [np.zeros((n, n)) for n in prog.psd_blocks]
        for b, i, j, c in fun.entries:
            blocks[b][i, j] = blocks[b][j, i] = c
        free = np.zeros(prog.n_free)
        for k, c in fun.free:
            free[k] = c
        return np.concatenate([X.ravel() for X in blocks] + [free[free_idx]])

    # each kept free scalar is solved out of its own pivot row
    pivots, rows = pivot_rows(prog, report, back)
    assert pivots.size == free_idx.size
    full = {k: stacked(prog.rows[k]) for k in kept_rows(prog, report)}
    A_P, A_R = (np.array([full[k] for k in ix]) for ix in (pivots, rows))
    nx = off[-1]
    F_P, F_R = A_P[:, nx:], A_R[:, nx:]
    T = np.linalg.solve(F_P.T, F_R.T).T
    want = A_R[:, :nx] - T @ A_P[:, :nx]
    assert A.has_canonical_format
    assert A.shape == want.shape
    Ad = A.toarray()
    np.testing.assert_allclose(Ad, want, rtol=0, atol=1e-12)
    assert A.nnz == np.count_nonzero(want)
    np.testing.assert_allclose(
        b, prog.rhs[rows] - T @ prog.rhs[pivots], rtol=0, atol=1e-12
    )
    # no free scalar is dropped, so full[k] holds all of row k
    assert free_idx.size == prog.n_free
    np.testing.assert_allclose(
        norms, [np.linalg.norm(full[k]) for k in rows], rtol=1e-15, atol=0
    )
    # every entry keeps its mirror exactly
    for k, n in enumerate(prog.psd_blocks):
        Ab = Ad[:, off[k]:off[k + 1]].reshape(-1, n, n)
        assert np.array_equal(Ab, Ab.transpose(0, 2, 1))
    # the objective of a maximize program enters negated
    c = -stacked(prog.objective)
    g = np.linalg.solve(F_P.T, c[nx:])
    np.testing.assert_allclose(C, c[:nx] - A_P[:, :nx].T @ g, rtol=0, atol=1e-12)
    assert const == pytest.approx(g @ prog.rhs[pivots], abs=1e-12)
    # back: the kept rows' residuals are the reduced ones, and whatever
    # the multipliers y of those rows, every free column is priced, F'dual = cf
    rng = np.random.default_rng(29)
    Xs = [h + h.T for h in (rng.standard_normal((n, n)) for n in prog.psd_blocks)]
    y = rng.standard_normal(len(rows))
    f, dual = back(Xs, y)
    resid = prog.row_residuals(Xs, f)
    x = np.concatenate([X.ravel() for X in Xs])
    np.testing.assert_allclose(resid[rows], A @ x - b, rtol=0, atol=1e-12)
    F = np.array([stacked(r)[nx:] for r in prog.rows])
    cf = stacked(prog.objective)[nx:]
    np.testing.assert_allclose(F.T @ dual, cf, rtol=0, atol=1e-12)
    assert np.all(dual[report["dropped_empty"] + report["dropped_dependent"]] == 0.0)


def test_row_presolve_makes_no_gram_sized_temporary():
    # a rank-deficient Gram with uneven row norms; F order is the layout
    # LAPACK factors in place
    rng = np.random.default_rng(5)
    A = rng.standard_normal((400, 300)) * rng.uniform(0.1, 10.0, (400, 1))
    A[300:] = 2.0 * A[:100]
    G = np.asfortranarray(A @ A.T)
    want = G / np.outer(np.sqrt(np.diag(G)), np.sqrt(np.diag(G)))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        kept = _independent(G)
        extra = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert extra < G.nbytes / 2
    assert kept.size == 300
    # the factor overwrites the lower triangle only, so the upper one
    # shows the chunked scaling, bit for bit the unchunked one
    assert np.array_equal(np.triu(G, 1), np.triu(want, 1))


def test_workspace_makes_no_second_gram_sized_temporary():
    # sphere (5,2) naive carries free multipliers; its row Gram is 6.5 MB
    prog = assemble_hsos(gen_sphere_instance(5, 1), 2, "naive").program
    assert prog.n_free
    gram = prog.n_rows**2 * 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _Workspace(prog.psd_blocks, *_presolve(prog)[0])
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * gram


def stacked_rows(prog):
    """The rows as one CSR over vec(X_0), ..., vec(X_{B-1}) and the free
    scalars, each block entry beside its mirror, built dense and apart from
    presolve."""
    a, sizes = prog.functionals, np.array(prog.psd_blocks, dtype=np.intp)
    off = np.r_[0, np.cumsum(sizes * sizes)]
    at = np.arange(len(a.indptr) - 1)
    fun = np.repeat(at, np.diff(a.indptr))
    A = np.zeros((at.size, off[-1] + prog.n_free))
    A[fun, off[a.blk] + a.i * sizes[a.blk] + a.j] = a.coef
    A[fun, off[a.blk] + a.j * sizes[a.blk] + a.i] = a.coef
    A[np.repeat(at, np.diff(a.free_indptr)), off[-1] + a.free_idx] = a.free_coef
    return sp.csr_matrix(A[1:])


def test_row_gram_equals_the_sparse_product_to_the_bit(monkeypatch):
    # A row with more stored entries than sum n_b meets the Gram densified,
    # here two rows to a chunk.  The naive form, the LMI form and three
    # blocks with free columns mix such rows with sparse ones; the odd rows
    # of the last store 17 or 18 entries against sum n_b = 15.
    sdp = planted_sdp(np.random.default_rng(33), 5, 8)[0]
    kinds = [
        ("dense", "diag", "dense") if k % 2 else ("off", None, "pair") for k in range(12)
    ]
    mixed = [
        reformulate_primal_naive(sdp), reformulate_dual(sdp),
        rows_of_kinds(np.random.default_rng(34), (4, 5, 6), kinds, n_free=3),
    ]
    no_rows = RealConicProgram(
        psd_blocks=(3,), n_free=1, rows=(),
        objective=LinearFunctional(((0, 0, 0, 1.0),), ((0, 1.0),)), sense="minimize",
    )
    # _independent overwrites its Gram, so the spy keeps a copy
    grams, independent = [], solver._independent

    def spy(G):
        grams.append(G.copy())
        return independent(G)

    monkeypatch.setattr(solver, "_independent", spy)
    for prog in mixed + [no_rows]:
        A = stacked_rows(prog)
        dense = np.count_nonzero(np.diff(A.indptr) > sum(prog.psd_blocks))
        monkeypatch.setattr(solver, "_CHUNK", 2 * max(A.shape))
        grams.clear()
        _presolve(prog)
        assert grams[0].shape == (prog.n_rows, prog.n_rows)
        assert np.array_equal(grams[0], (A @ A.T).toarray())
        if prog is not no_rows:
            # at least three chunks of dense rows, and sparse rows besides
            assert 4 < dense < prog.n_rows


def test_row_gram_peaks_a_few_chunks_above_the_gram(monkeypatch):
    # 600 dense rows of a 24 x 24 block: the Gram (2.9 MB) outweighs the
    # operator's build, so the peak before the row pass is the Gram's.  A
    # chunk holds its rows densified, the C-ordered copy of their transpose
    # that the sparse x dense product takes, and the product: three
    # temporaries of at most _CHUNK elements, where the sparse product of
    # all the rows peaked at 68 chunks above the Gram.
    n, m, per_row = 24, 600, 20
    rng = np.random.default_rng(35)
    iu = np.triu_indices(n)
    picks = np.concatenate(
        [rng.choice(iu[0].size, per_row, replace=False) for _ in range(m)]
    )
    prog = RealConicProgram.from_arrays(
        (n,), 0, (np.r_[0, np.full(m, per_row)], np.zeros(picks.size, np.intp),
                  iu[0][picks], iu[1][picks], rng.standard_normal(picks.size)),
        rng.standard_normal(m), sense="minimize",
    )
    cap = 20 * m
    monkeypatch.setattr(solver, "_CHUNK", cap)
    seen, independent = [], solver._independent

    def spy(G):
        seen.append(tracemalloc.get_traced_memory())
        return independent(G)

    monkeypatch.setattr(solver, "_independent", spy)
    tracemalloc.start()
    try:
        _presolve(prog)
    finally:
        tracemalloc.stop()
    (live, peak), _ = seen
    assert peak - live < 3.25 * cap * 8


def test_factor_spd_keeps_the_rank_its_pivots_reveal():
    # a positive definite M keeps every row, with cho_factor's factor to the
    # bit; where the plain Cholesky fails, L L' = M[kept][:, kept] on the
    # pivots up to the revealed rank, and no positive pivot raises
    def assembly(M):
        # a fresh copy of M per call, as ws.schur assembles one
        made = []

        def schur():
            made.append(M.copy())
            return made[-1]

        return schur, made

    def factored(M):
        schur, made = assembly(M)
        L, kept = _factor_spd(schur)
        # the factor is the last M assembled, overwritten in place; only
        # the fallback assembles a second one
        assert len(made) == (1 if isinstance(kept, slice) else 2)
        assert np.shares_memory(L, made[-1])
        return np.tril(L), kept

    G = np.random.default_rng(26).standard_normal((6, 6))
    spd = G @ G.T + np.eye(6)
    L, kept = factored(spd)
    assert kept == slice(None)
    assert np.array_equal(L, np.tril(sla.cho_factor(spd, lower=True)[0]))
    L, kept = factored(np.ones((2, 2)))
    assert len(kept) == 1 and np.array_equal(L @ L.T, np.ones((1, 1)))
    L, kept = factored(np.diag([1.0, -1.0]))
    assert np.array_equal(kept, [0]) and np.array_equal(L, np.ones((1, 1)))
    for M in (-np.eye(2), np.zeros((2, 2))):
        schur, made = assembly(M)
        with pytest.raises(np.linalg.LinAlgError):
            _factor_spd(schur)
        assert len(made) == 2


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


def combined_row(x, ra, y, rb):
    """The row x ra + y rb, each key's coefficients summed."""
    entries, free = defaultdict(float), defaultdict(float)
    for w, r in ((x, ra), (y, rb)):
        for b, i, j, c in r.entries:
            entries[b, i, j] += w * c
        for k, c in r.free:
            free[k] += w * c
    return Row(
        entries=tuple((*key, c) for key, c in sorted(entries.items())),
        free=tuple(sorted(free.items())), rhs=x * ra.rhs + y * rb.rhs,
    )


@pytest.mark.parametrize("form", ["dualview", "naive"])
@pytest.mark.parametrize("x, y", [(0.1, 0.3), (1 / 3, 7.0), (1e3 / 7, -3.3)])
def test_rows_dependent_through_free_columns_are_dropped_as_dependent(form, x, y):
    # the planted row combines two rows that hold free entries; were the
    # free scalars solved out before the row pass, its copy could lose its
    # block entries to cancellation and read as empty, or another row drop
    prog = assemble_hsos(gen_sphere_instance(2, 0), 2, form).program
    ra, rb = [r for r in prog.rows if r.free][:2]
    planted = RealConicProgram(
        psd_blocks=prog.psd_blocks, n_free=prog.n_free,
        rows=tuple(prog.rows) + (combined_row(x, ra, y, rb),),
        objective=prog.objective, sense=prog.sense,
    )
    base, res = solve(prog, LOOSE), solve(planted, LOOSE)
    assert base.presolve["dropped_dependent"] == []
    assert res.status == "optimal"
    assert res.presolve["dropped_empty"] == []
    assert len(res.presolve["dropped_dependent"]) == 1
    assert res.objective == pytest.approx(base.objective, rel=1e-9)


@pytest.mark.parametrize("prog", [
    assemble_hsos(gen_sphere_instance(2, 0), 2, "dualview").program,
    assemble_hsos(gen_sphere_instance(2, 0), 2, "naive").program,
    min_diag_free_program(),
], ids=["sphere-2-2-dualview", "sphere-2-2-naive", "min_diag_free"])
def test_free_scalars_are_solved_out_of_pivot_rows(prog):
    (A, *_), _, report, back = _presolve(prog)
    n_kept = prog.n_free - len(report["dropped_free"])
    assert n_kept and A.shape[1] == sum(n * n for n in prog.psd_blocks)
    assert A.shape[0] == len(kept_rows(prog, report)) - n_kept
    res = solve(prog, LOOSE)
    assert res.status == "optimal"
    # each scalar's stationarity, F'dual = cf, holds through the pivot rows'
    # multipliers
    a = prog.functionals
    at = np.repeat(np.arange(prog.n_rows + 1), np.diff(a.free_indptr))
    Fc = np.zeros((prog.n_rows + 1, prog.n_free))
    Fc[at, a.free_idx] = a.free_coef
    lhs, cf = Fc[1:].T @ res.dual_row_values, Fc[0]
    assert np.abs(lhs - cf).max() <= 1e-9 * (1.0 + np.abs(cf).max())
    pivots, _ = pivot_rows(prog, report, back)
    assert pivots.size == n_kept
    resid = prog.row_residuals(res.primal_blocks, res.free_values)[pivots]
    assert np.abs(resid).max() <= LOOSE.tol_primal * (1.0 + np.abs(prog.rhs).max())


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
