"""Sampling and grid oracles, and the side-by-side form comparison."""

import numpy as np
import pytest

from realify.polynomials import (
    CPOP,
    CPolynomial,
    gen_sphere_instance,
    gen_unitnorm_instance,
)
from realify.relaxation import assemble_hsos, size_report
from realify.solver import SolverOptions, solve
from realify.validation import (
    SampleReport,
    compare_reformulations,
    grid_min_1d,
    sample_upper_bound,
)

OPTS = SolverOptions(tol_gap=1e-7, tol_primal=1e-7, tol_dual=1e-7)


def univariate_unitnorm(terms_half):
    terms = {}
    for (b, g), c in terms_half.items():
        terms[(b, g)] = terms.get((b, g), 0j) + c
        if b != g:
            terms[(g, b)] = terms.get((g, b), 0j) + np.conj(c)
    ring = CPolynomial(1, {((1,), (1,)): 1 + 0j, ((0,), (0,)): -1 + 0j})
    return CPOP(s=1, f=CPolynomial(1, terms), constraints=((ring, "eq"),))


# ------------------------------------------------------------------- sampling


def test_sample_modulus_objective_on_sphere_is_constant():
    ball = CPolynomial(
        1, {((1,), (1,)): 1 + 0j, ((0,), (0,)): -1 + 0j}
    )
    p = CPOP(
        s=1,
        f=CPolynomial(1, {((1,), (1,)): 1 + 0j}),
        constraints=((ball, "eq"),),
    )
    rep = sample_upper_bound(p, 50, seed=0)
    assert abs(rep.best_value - 1.0) <= 1e-12


def test_sample_points_are_feasible_and_value_matches():
    p = gen_sphere_instance(3, seed=4)
    rep = sample_upper_bound(p, 200, seed=1)
    assert abs(np.linalg.norm(rep.best_point) - 1.0) <= 1e-9
    assert abs(rep.best_value - p.f.eval(rep.best_point)) <= 1e-12 * (
        1 + abs(rep.best_value)
    )
    q = gen_unitnorm_instance(2, seed=4)
    rep2 = sample_upper_bound(q, 200, seed=1)
    assert np.max(np.abs(np.abs(rep2.best_point) - 1.0)) <= 1e-9
    assert rep2.samples == 200 and rep2.seed == 1


def test_sample_is_deterministic_in_seed():
    p = gen_unitnorm_instance(2, seed=0)
    a = sample_upper_bound(p, 64, seed=9)
    b = sample_upper_bound(p, 64, seed=9)
    assert a.best_value == b.best_value
    assert np.array_equal(a.best_point, b.best_point)
    c = sample_upper_bound(p, 64, seed=10)
    assert not np.array_equal(a.best_point, c.best_point)


def test_sample_rejects_unsupported_families():
    ball = CPolynomial(
        2,
        {
            ((0, 0), (0, 0)): 1 + 0j,
            ((1, 0), (1, 0)): -1 + 0j,
            ((0, 1), (0, 1)): -1 + 0j,
        },
    )
    p = CPOP(
        s=2,
        f=CPolynomial(2, {((1, 0), (1, 0)): 1 + 0j}),
        constraints=((ball, "ge"),),
    )
    with pytest.raises(ValueError, match="direct feasible sampling"):
        sample_upper_bound(p, 10, seed=0)
    with pytest.raises(ValueError, match="positive"):
        sample_upper_bound(gen_sphere_instance(1, seed=0), 0, seed=0)


def test_sample_and_grid_accept_their_families_up_to_scale_and_order():
    sphere, unit = gen_sphere_instance(2, seed=0), gen_unitnorm_instance(2, seed=0)
    (g,), (u0, u1) = ((g for g, _ in p.constraints) for p in (sphere, unit))
    for cons in (((g.scale(-2.5), "eq"),), ((u1, "eq"), (u0.scale(3.0), "eq"))):
        p = CPOP(s=2, f=sphere.f, constraints=cons)
        assert sample_upper_bound(p, 10, seed=0).samples == 10
    one = gen_unitnorm_instance(1, seed=0)
    ring = one.constraints[0][0].scale(-0.5)
    assert grid_min_1d(CPOP(s=1, f=one.f, constraints=((ring, "eq"),)), 8) < np.inf
    # a radius other than 1, a repeated or missing coordinate, or "ge"
    off = g + CPolynomial(2, {((0, 0), (0, 0)): -1 + 0j})
    for cons in (((off, "eq"),), ((u0, "eq"), (u0, "eq")), ((u0, "eq"),),
                 ((g, "ge"),)):
        with pytest.raises(ValueError, match="direct feasible sampling"):
            sample_upper_bound(CPOP(s=2, f=sphere.f, constraints=cons), 10, seed=0)


def test_sample_report_validation():
    with pytest.raises(ValueError, match="non-finite"):
        SampleReport(
            best_value=1.0,
            best_point=np.array([np.inf + 0j]),
            samples=3,
            seed=0,
        )
    with pytest.raises(ValueError, match="positive"):
        SampleReport(
            best_value=1.0, best_point=np.array([1j]), samples=0, seed=0
        )


# ----------------------------------------------------------------- phase grid


def test_grid_constant_modulus_objective():
    p = univariate_unitnorm({((2,), (2,)): 1 + 0j})
    assert abs(grid_min_1d(p, 17) - 1.0) <= 1e-12


def test_grid_cosine_objective_hits_analytic_minimum():
    # z^2 + conj(z)^2 = 2 cos(2 theta): any grid containing theta = pi/2
    p = univariate_unitnorm({((2,), (0,)): 1 + 0j})
    assert abs(grid_min_1d(p, 4) - (-2.0)) <= 1e-12
    assert abs(grid_min_1d(p, 4000) - (-2.0)) <= 1e-6


def test_grid_refinement_is_monotone_and_convergent():
    p = gen_unitnorm_instance(1, seed=3)
    coarse = [grid_min_1d(p, g) for g in (10, 100, 1000)]
    assert coarse[0] >= coarse[1] >= coarse[2]
    assert abs(grid_min_1d(p, 10**6) - grid_min_1d(p, 10**7)) <= 1e-9


def test_grid_rejects_wrong_shapes():
    with pytest.raises(ValueError, match="univariate"):
        grid_min_1d(gen_unitnorm_instance(2, seed=0), 100)
    quartic_ring = CPolynomial(
        1, {((2,), (2,)): 1 + 0j, ((0,), (0,)): -1 + 0j}
    )
    f = CPolynomial(1, {((1,), (1,)): 1 + 0j})
    with pytest.raises(ValueError, match="z_1"):
        grid_min_1d(CPOP(s=1, f=f, constraints=((quartic_ring, "eq"),)), 100)
    p = gen_unitnorm_instance(1, seed=0)
    with pytest.raises(ValueError, match="at least one"):
        grid_min_1d(p, 0)


def test_sphere_s1_reduces_to_phase_problem():
    # At s=1 the sphere constraint IS |z_1|^2 = 1, so the grid oracle
    # applies directly and bounds the relaxation.
    p = gen_sphere_instance(1, seed=6)
    res = solve(assemble_hsos(p, 2, "dualview").program, OPTS)
    assert res.status == "optimal"
    assert res.objective <= grid_min_1d(p, 10**6) + 1e-6


# ----------------------------------------------------------------- comparison


def test_compare_reports_matching_counts_and_close_optima():
    p = gen_sphere_instance(2, seed=7)
    out = compare_reformulations(p, 2, OPTS, repeats=1)
    rep = size_report(p, 2)
    assert out["n_sdp"] == rep["n_sdp"]
    assert out["m_naive"] == rep["m_naive"]
    assert out["m_dualview"] == rep["m_dualview"]
    assert out["m_dualview"] < out["m_naive"]
    assert out["status_naive"] == "optimal"
    assert out["status_dualview"] == "optimal"
    assert out["abs_diff"] <= 1e-5 * (1 + abs(out["opt_dualview"]))
    assert out["time_naive"] > 0 and out["time_dualview"] > 0


def test_compare_median_timing_uses_repeats():
    p = gen_unitnorm_instance(1, seed=0)
    out = compare_reformulations(p, 2, OPTS, repeats=3)
    assert out["status_naive"] == out["status_dualview"] == "optimal"
    with pytest.raises(ValueError, match="repeats"):
        compare_reformulations(p, 2, OPTS, repeats=0)


def test_compare_rejects_low_order():
    p = gen_sphere_instance(2, seed=0)
    with pytest.raises(ValueError, match="minimum admissible order"):
        compare_reformulations(p, 1, OPTS)


def test_relaxation_below_sampled_bound():
    for gen in (gen_sphere_instance, gen_unitnorm_instance):
        p = gen(2, seed=11)
        bound = sample_upper_bound(p, 4000, seed=2).best_value
        res = solve(assemble_hsos(p, 2, "dualview").program, OPTS)
        assert res.status == "optimal"
        assert res.objective <= bound + 1e-6
