"""Complex-to-real embedding layer: types, pairings, reformulations.

Numeric oracles here are numpy's complex eigensolver and direct complex
arithmetic on dense matrices; the code under test never computes with
complex dtypes, so agreement is an independent check.
"""

import numpy as np
import pytest

from realify import (
    ComplexMatrix,
    ComplexSDP,
    ComplexVector,
    HermitianMatrix,
    LinearFunctional,
    RealConicProgram,
    Row,
    SolverOptions,
    apply_constraints,
    embed_feasible,
    inner_product,
    realify_psd,
    recover_complex_solution,
    reformulate_dual,
    reformulate_primal_dualview,
    reformulate_primal_naive,
    structural_constraints,
    solve,
)
from realify.complex_sdp import _structural_rows

from entrywise_oracle import (
    accumulate_entries,
    accumulate_free,
    add_dualview_imag,
    add_dualview_real,
    add_naive_imag,
    add_naive_real,
    float_bits,
    structural_rows,
)

LOOSE = SolverOptions(tol_gap=1e-7, tol_primal=1e-7, tol_dual=1e-7)


def rand_hermitian(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return HermitianMatrix.from_complex((z + z.conj().T) / 2)


def rand_complex_matrix(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return ComplexMatrix(z.real.copy(), z.imag.copy())


def planted_sdp(rng, n, m, hermitian_data=False):
    """Feasible ComplexSDP with a known strictly feasible point."""
    v = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h0 = HermitianMatrix.from_complex(v @ v.conj().T + 0.1 * np.eye(n))
    mats = [ComplexMatrix(np.eye(n), np.zeros((n, n)))]
    for _ in range(m - 1):
        mats.append(
            rand_hermitian(rng, n) if hermitian_data
            else rand_complex_matrix(rng, n)
        )
    vals = [inner_product(a, h0) for a in mats]
    b = ComplexVector(
        np.array([v.real for v in vals]), np.array([v.imag for v in vals])
    )
    return ComplexSDP(C=rand_hermitian(rng, n), A=tuple(mats), b=b), h0


def test_hermitian_matrix_rejects_asymmetric_parts():
    with pytest.raises(ValueError):
        HermitianMatrix(np.array([[1.0, 2.0], [0.0, 1.0]]), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        HermitianMatrix(np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_hermitian_from_complex_folds_and_checks():
    z = np.array([[2.0, 1 - 3j], [1 + 3j, 5.0]])
    h = HermitianMatrix.from_complex(z)
    assert np.array_equal(h.to_complex(), z)
    with pytest.raises(ValueError):
        HermitianMatrix.from_complex(z + np.array([[0, 1e-6], [0, 0]]))


def test_inner_product_matches_unconjugated_trace():
    rng = np.random.default_rng(3)
    for n in (1, 2, 4, 7):
        a = rand_complex_matrix(rng, n)
        h = rand_hermitian(rng, n)
        want = np.trace(a.to_complex().T @ h.to_complex())
        got = inner_product(a, h)
        assert got == pytest.approx(want, abs=1e-12)


def test_inner_product_real_part_for_hermitian_pair():
    # For two Hermitian arguments the pairing is real.
    rng = np.random.default_rng(4)
    a = rand_hermitian(rng, 5)
    h = rand_hermitian(rng, 5)
    assert abs(inner_product(a, h).imag) < 1e-12


def test_realify_spectrum_doubles():
    rng = np.random.default_rng(5)
    for n in range(1, 9):
        h = rand_hermitian(rng, n)
        lam = np.linalg.eigvalsh(h.to_complex())
        lam2 = np.linalg.eigvalsh(realify_psd(h))
        assert np.allclose(np.repeat(lam, 2), lam2, atol=1e-9)


def test_realify_preserves_definiteness_both_ways():
    rng = np.random.default_rng(6)
    v = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    psd = HermitianMatrix.from_complex(v @ v.conj().T)
    assert np.linalg.eigvalsh(realify_psd(psd))[0] >= -1e-10
    dent = HermitianMatrix.from_complex(
        psd.to_complex() - 3.0 * np.linalg.eigvalsh(psd.to_complex())[-1] * np.eye(4)
    )
    assert np.linalg.eigvalsh(realify_psd(dent))[0] < 0


def row_value(row, mat):
    acc = 0.0
    for i, j, c in row:
        acc += c * (mat[i, j] + mat[j, i] if i != j else mat[i, j])
    return acc


def test_structural_constraint_count_and_exact_residual():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 5):
        rows = structural_constraints(n)
        assert len(rows) == n * (n + 1)
        y = realify_psd(rand_hermitian(rng, n))
        for row in rows:
            assert row_value(row, y) == 0.0


def test_structural_rows_match_the_pairwise_reference():
    for n in range(1, 9):
        want = structural_rows(n)
        assert structural_constraints(n) == [tuple(r) for r in want]
        flat = [e for r in want for e in r]
        counts, b, i, j, c = _structural_rows(n)
        assert counts.tolist() == [len(r) for r in want]
        assert b.tolist() == [0] * len(flat)
        assert list(zip(i.tolist(), j.tolist(), c.tolist())) == flat


def test_structural_constraints_reject_pattern_violations():
    rng = np.random.default_rng(8)
    n = 3
    y = realify_psd(rand_hermitian(rng, n))

    def worst(mat):
        return max(
            abs(row_value(row, mat)) for row in structural_constraints(n)
        )

    bad_diag = y.copy()
    bad_diag[n, n] += 1.0         # breaks Y[0,0] == Y[n,n]
    bad_skew = y.copy()
    bad_skew[0, n] += 0.5
    bad_skew[n, 0] += 0.5         # breaks antisymmetry of the corner block
    assert worst(y) == 0.0
    assert worst(bad_diag) >= 1.0
    assert worst(bad_skew) >= 0.5


def test_naive_rows_count_and_feasibility_transfer():
    rng = np.random.default_rng(9)
    sdp, h0 = planted_sdp(rng, 4, 5)
    prog = reformulate_primal_naive(sdp)
    n, m = sdp.n, sdp.m
    assert prog.psd_blocks == (2 * n,)
    assert prog.n_rows == 2 * m + n * (n + 1)
    y = realify_psd(h0)
    resid = prog.row_residuals((y,), np.zeros(0))
    assert np.abs(resid).max() <= 1e-12 * max(1.0, np.abs(y).max())
    want = inner_product(sdp.C, h0).real
    assert prog.objective.value((y,), np.zeros(0)) == pytest.approx(want, rel=1e-12)


def test_dualview_rows_count_and_embedded_feasibility():
    rng = np.random.default_rng(10)
    sdp, h0 = planted_sdp(rng, 3, 4)
    prog = reformulate_primal_dualview(sdp)
    assert prog.psd_blocks == (2 * sdp.n,)
    assert prog.n_rows == 2 * sdp.m
    x = embed_feasible(h0)
    resid = prog.row_residuals((x,), np.zeros(0))
    assert np.abs(resid).max() <= 1e-12 * max(1.0, np.abs(x).max())
    want = inner_product(sdp.C, h0).real
    assert prog.objective.value((x,), np.zeros(0)) == pytest.approx(want, rel=1e-12)


def test_embed_recover_round_trip_is_exact():
    rng = np.random.default_rng(11)
    h = rand_hermitian(rng, 5)
    back = recover_complex_solution(embed_feasible(h))
    assert np.array_equal(back.re, h.re)
    assert np.array_equal(back.im, h.im)


def test_recover_validates_input():
    with pytest.raises(ValueError):
        recover_complex_solution(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        recover_complex_solution(np.arange(16.0).reshape(4, 4))


def test_recover_maps_psd_to_psd():
    rng = np.random.default_rng(12)
    for _ in range(5):
        g = rng.standard_normal((6, 6))
        x = g @ g.T
        x = 0.5 * (x + x.T)
        h = recover_complex_solution(x)
        assert np.linalg.eigvalsh(realify_psd(h))[0] >= -1e-9


def test_naive_and_dualview_share_the_optimum():
    rng = np.random.default_rng(13)
    for n, m in [(2, 2), (3, 4), (4, 6)]:
        sdp, _ = planted_sdp(rng, n, m)
        rn = solve(reformulate_primal_naive(sdp), LOOSE)
        rv = solve(reformulate_primal_dualview(sdp), LOOSE)
        assert rn.status == "optimal"
        assert rv.status == "optimal"
        assert abs(rn.objective - rv.objective) <= 1e-6 * (1 + abs(rv.objective))


def test_both_primal_forms_reach_optimal_on_the_knife_edge():
    # the naive form's structural rows leave its optimal face primal
    # degenerate, so its Schur matrix turns singular to working precision
    # near the optimum; both forms still meet the default tolerances
    for seed in range(40):
        sdp, _ = planted_sdp(np.random.default_rng(seed), 5, 8)
        for reformulate in (reformulate_primal_naive, reformulate_primal_dualview):
            res = solve(reformulate(sdp), SolverOptions())
            assert res.status == "optimal", (seed, reformulate.__name__)


def test_dual_form_closes_the_gap():
    rng = np.random.default_rng(14)
    for n, m in [(2, 3), (3, 3), (4, 5)]:
        sdp, _ = planted_sdp(rng, n, m)
        rv = solve(reformulate_primal_dualview(sdp), LOOSE)
        rd = solve(reformulate_dual(sdp), LOOSE)
        assert rv.status == "optimal"
        assert rd.status == "optimal"
        # weak duality up to solver accuracy, and no residual gap
        assert rd.objective >= rv.objective - 1e-6 * (1 + abs(rv.objective))
        assert abs(rd.objective - rv.objective) <= 1e-5 * (1 + abs(rv.objective))


def test_dual_form_pins_the_unused_imaginary_trace_multiplier():
    # i A_0 = iI is skew-Hermitian, so Im(y_0), free scalar m, enters no
    # row of the slack, and b_0 = tr(H0) is real, so it has no objective
    # coefficient either: the presolve drops it and reports 0.
    sdp, _ = planted_sdp(np.random.default_rng(17), 4, 6)
    prog = reformulate_dual(sdp)
    assert 6 not in prog.functionals.free_idx
    rd = solve(prog, LOOSE)
    assert rd.status == "optimal"
    assert rd.presolve["dropped_free"] == [6]
    assert rd.free_values[6] == 0.0


def test_dual_form_with_hermitian_data():
    # Hermitian A_k zero out the imaginary multipliers' role; the program
    # must still assemble and solve (unused multipliers get pinned).
    rng = np.random.default_rng(15)
    sdp, _ = planted_sdp(rng, 3, 3, hermitian_data=True)
    rd = solve(reformulate_dual(sdp), LOOSE)
    rv = solve(reformulate_primal_dualview(sdp), LOOSE)
    assert rd.status == "optimal"
    assert abs(rd.objective - rv.objective) <= 1e-5 * (1 + abs(rv.objective))


def test_recovered_solution_solves_the_complex_problem():
    rng = np.random.default_rng(16)
    for n, m in [(3, 4), (5, 8)]:
        sdp, _ = planted_sdp(rng, n, m)
        rv = solve(reformulate_primal_dualview(sdp), LOOSE)
        assert rv.status == "optimal"
        h = recover_complex_solution(rv.primal_blocks[0])
        got = np.array(apply_constraints(sdp, h).to_complex())
        want = np.array(sdp.b.to_complex())
        assert np.abs(got - want).max() <= 1e-6
        assert np.linalg.eigvalsh(h.to_complex())[0] >= -1e-6
        assert inner_product(sdp.C, h).real == pytest.approx(
            rv.objective, abs=1e-6
        )


def test_reformulations_are_deterministic():
    rng1 = np.random.default_rng(17)
    rng2 = np.random.default_rng(17)
    s1, _ = planted_sdp(rng1, 3, 4)
    s2, _ = planted_sdp(rng2, 3, 4)
    assert reformulate_primal_naive(s1) == reformulate_primal_naive(s2)
    assert reformulate_primal_dualview(s1) == reformulate_primal_dualview(s2)
    assert reformulate_dual(s1) == reformulate_dual(s2)


# Oracles for the reformulations: every functional rebuilt entry by entry
# through the add_* adders, and the dual form's slack rows through one
# dict per LMI position.


def entrywise_functional(adder, mat):
    acc = {}
    n = mat.n
    for p in range(n):
        for q in range(n):
            cre, cim = mat.re[p, q], mat.im[p, q]
            if cre != 0.0 or cim != 0.0:
                adder(acc, 0, n, p, q, cre, cim)
    return accumulate_entries((b, i, j, c) for (b, i, j), c in acc.items())


def entrywise_primal(sdp, add_re, add_im, extra_rows=()):
    rows = []
    for k, a in enumerate(sdp.A):
        rows.append(Row(entries=entrywise_functional(add_re, a),
                        rhs=float(sdp.b.re[k])))
        rows.append(Row(entries=entrywise_functional(add_im, a),
                        rhs=float(sdp.b.im[k])))
    return RealConicProgram(
        psd_blocks=(2 * sdp.n,),
        n_free=0,
        rows=tuple(rows) + tuple(extra_rows),
        objective=LinearFunctional(
            entries=entrywise_functional(add_re, sdp.C)
        ),
        sense="maximize",
    )


def entrywise_dual(sdp):
    n, m = sdp.n, sdp.m
    dim = 2 * n
    lin = [[dict() for _ in range(dim)] for _ in range(dim)]
    cst = np.zeros((dim, dim))

    def put(p, q, k, c):
        if c != 0.0:
            lin[p][q][k] = lin[p][q].get(k, 0.0) + c

    for k, a in enumerate(sdp.A):
        kr, ki = k, m + k
        for p in range(n):
            for q in range(n):
                ar, ai = a.re[p, q], a.im[p, q]
                put(p, q, kr, ar)
                put(n + p, n + q, kr, ar)
                put(p, q, ki, -ai)
                put(n + p, n + q, ki, -ai)
                put(p, n + q, kr, -ai)
                put(p, n + q, ki, -ar)
                put(n + p, q, kr, ai)
                put(n + p, q, ki, ar)
    for p in range(n):
        for q in range(n):
            cst[p, q] -= sdp.C.re[p, q]
            cst[n + p, n + q] -= sdp.C.re[p, q]
            cst[p, n + q] += sdp.C.im[p, q]
            cst[n + p, q] -= sdp.C.im[p, q]
    rows = []
    for p in range(dim):
        for q in range(p, dim):
            acc = {}
            for k, c in lin[p][q].items():
                acc[k] = acc.get(k, 0.0) - 0.5 * c
            for k, c in lin[q][p].items():
                acc[k] = acc.get(k, 0.0) - 0.5 * c
            rows.append(Row(
                entries=((0, p, q, 1.0 if p == q else 0.5),),
                free=accumulate_free(acc.items()),
                rhs=0.5 * (cst[p, q] + cst[q, p]),
            ))
    return RealConicProgram(
        psd_blocks=(dim,),
        n_free=2 * m,
        rows=tuple(rows),
        objective=LinearFunctional(free=accumulate_free(
            [(k, float(sdp.b.re[k])) for k in range(m)]
            + [(m + k, -float(sdp.b.im[k])) for k in range(m)]
        )),
        sense="minimize",
    )


def oracle_sdps():
    rng = np.random.default_rng(18)
    for n in (1, 2, 5):
        mats = [rand_complex_matrix(rng, n) for _ in range(3)]
        holes = rand_complex_matrix(rng, n).to_complex()
        holes[rng.random((n, n)) < 0.4] = 0.0
        holes[0, 0] = 0.0
        mats += [
            ComplexMatrix.from_complex(holes),
            ComplexMatrix(rng.standard_normal((n, n)), np.zeros((n, n))),
            ComplexMatrix(np.zeros((n, n)), rng.standard_normal((n, n))),
            ComplexMatrix(np.zeros((n, n)), np.zeros((n, n))),
        ]
        m = len(mats)
        b = ComplexVector(rng.standard_normal(m), rng.standard_normal(m))
        yield ComplexSDP(C=rand_hermitian(rng, n), A=tuple(mats), b=b)


@pytest.mark.parametrize("sdp", list(oracle_sdps()), ids=["n1", "n2", "n5"])
def test_reformulations_match_the_entrywise_oracle(sdp):
    structural = tuple(
        Row(entries=accumulate_entries((0, i, j, c) for i, j, c in coeffs))
        for coeffs in structural_rows(sdp.n)
    )
    pairs = [
        (reformulate_primal_dualview(sdp),
         entrywise_primal(sdp, add_dualview_real, add_dualview_imag)),
        (reformulate_primal_naive(sdp),
         entrywise_primal(sdp, add_naive_real, add_naive_imag, structural)),
        (reformulate_dual(sdp), entrywise_dual(sdp)),
    ]
    for got, want in pairs:
        assert got == want
        assert np.array_equal(float_bits(got), float_bits(want))
