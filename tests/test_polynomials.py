"""Monomial ordering, Hermitian term maps, and the instance families."""

import math

import numpy as np
import pytest

from realify import (
    CPOP,
    CPolynomial,
    gen_sphere_instance,
    gen_unitnorm_instance,
    monomial_basis,
)


def naive_eval(terms, z):
    # independent term-by-term complex sum
    z = np.asarray(z, dtype=complex)
    total = 0j
    for (beta, gamma), c in terms.items():
        v = complex(c)
        for zi, b in zip(z, beta):
            v *= zi**b
        for zi, g in zip(z, gamma):
            v *= np.conj(zi) ** g
        total += v
    return total


def rand_hermitian_poly(rng, s, d):
    basis = monomial_basis(s, d)
    terms = {}
    for i, beta in enumerate(basis.exponents):
        for j, gamma in enumerate(basis.exponents):
            if i > j:
                continue
            if i == j:
                terms[(beta, gamma)] = complex(rng.standard_normal())
            else:
                c = complex(rng.standard_normal(), rng.standard_normal())
                terms[(beta, gamma)] = c
                terms[(gamma, beta)] = c.conjugate()
    return CPolynomial(s, terms)


def test_basis_small_example():
    b = monomial_basis(2, 1)
    assert b.exponents == ((0, 0), (0, 1), (1, 0))
    assert b.index[(1, 0)] == 2


def test_basis_sizes_match_binomials():
    for s in (1, 2, 3, 5, 8, 15):
        for d in (0, 1, 2, 3, 4):
            b = monomial_basis(s, d)
            assert len(b) == math.comb(s + d, d)
            assert b.exponents[0] == (0,) * s


def test_basis_order_strictly_increasing_graded_lex():
    b = monomial_basis(3, 3)
    keys = [(sum(e), e) for e in b.exponents]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    assert all(b.index[e] == k for k, e in enumerate(b.exponents))


def test_basis_rejects_absurd_sizes():
    with pytest.raises(ValueError, match="exceeds"):
        monomial_basis(200, 10)
    with pytest.raises(ValueError):
        monomial_basis(0, 2)
    with pytest.raises(ValueError):
        monomial_basis(2, -1)


def test_term_map_validation():
    with pytest.raises(ValueError, match="Hermitian"):
        CPolynomial(1, {((1,), (0,)): 1.0 + 2.0j})
    with pytest.raises(ValueError, match="Hermitian"):
        CPolynomial(
            1, {((1,), (0,)): 1.0 + 2.0j, ((0,), (1,)): 1.0 + 2.0j}
        )
    with pytest.raises(ValueError, match="Hermitian"):
        CPolynomial(1, {((1,), (1,)): 1.0j})
    with pytest.raises(ValueError, match="zero coefficient"):
        CPolynomial(1, {((1,), (1,)): 0.0})
    with pytest.raises(ValueError, match="tuple"):
        CPolynomial(2, {((1,), (0, 1)): 1.0})


@pytest.mark.parametrize("bad", [True, 1.0, np.int64(1)])
def test_equal_exponent_of_another_type_is_rejected_after_an_int_one(bad):
    # (bad,) == (1,) and hashes alike, but it is another object, so a
    # check that (1,) passed in an earlier key does not let it through
    assert (bad,) == (1,)
    for s, one in ((1, (1,)), (2, (1, 0))):
        zero, odd = (0,) * s, (bad,) + (0,) * (s - 1)
        terms = {(one, one): 1.0 + 0j, (zero, odd): 0.5j, (odd, zero): -0.5j}
        with pytest.raises(ValueError, match="non-natural entry"):
            CPolynomial(s, terms)


def test_eval_analytic_values():
    mod2 = CPolynomial(1, {((1,), (1,)): 1.0})
    assert mod2.eval([2.0 + 0j]) == pytest.approx(4.0)
    cross = CPolynomial(
        2,
        {
            ((1, 0), (0, 1)): 1.0 + 0j,
            ((0, 1), (1, 0)): 1.0 + 0j,
        },
    )
    assert cross.eval([1.0, 1.0j]) == pytest.approx(0.0, abs=1e-14)


def test_eval_matches_naive_complex_sum():
    rng = np.random.default_rng(5)
    for s, d in ((1, 2), (2, 2), (3, 1)):
        p = rand_hermitian_poly(rng, s, d)
        for _ in range(10):
            z = rng.standard_normal(s) + 1j * rng.standard_normal(s)
            ref = naive_eval(p.terms, z)
            assert abs(ref.imag) <= 1e-12
            assert p.eval(z) == pytest.approx(ref.real, abs=1e-11)


def test_eval_many_agrees_with_eval():
    rng = np.random.default_rng(6)
    p = rand_hermitian_poly(rng, 2, 2)
    pts = rng.standard_normal((40, 2)) + 1j * rng.standard_normal((40, 2))
    batch = p.eval_many(pts)
    single = np.array([p.eval(z) for z in pts])
    np.testing.assert_allclose(batch, single, atol=1e-11)


def test_eval_rejects_bad_input():
    p = CPolynomial(1, {((1,), (1,)): 1.0})
    with pytest.raises(ValueError):
        p.eval([1.0, 2.0])
    with pytest.raises(ValueError):
        p.eval([np.nan + 0j])


def test_addition_and_scaling_keep_symmetry():
    rng = np.random.default_rng(7)
    a = rand_hermitian_poly(rng, 2, 1)
    b = rand_hermitian_poly(rng, 2, 2)
    total = a + b.scale(-2.5)
    z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    assert total.eval(z) == pytest.approx(a.eval(z) - 2.5 * b.eval(z), rel=1e-12)
    cancel = a + (-a)
    assert cancel.terms == {}


def test_degree_and_orders():
    f = CPolynomial(1, {((2,), (2,)): 1.0})
    g = CPolynomial(1, {((1,), (1,)): 1.0, ((0,), (0,)): -1.0})
    p = CPOP(s=1, f=f, constraints=((g, "eq"),))
    assert f.degree == 4
    assert g.degree == 2
    assert p.constraint_orders == (1,)
    assert p.d_min == 2
    with pytest.raises(ValueError, match="kind"):
        CPOP(s=1, f=f, constraints=((g, "le"),))


@pytest.mark.parametrize("family", [gen_sphere_instance, gen_unitnorm_instance])
def test_generated_objective_is_hermitian_and_real(family):
    p = family(3, seed=11)
    # constructor validates symmetry; spot-check realness independently
    rng = np.random.default_rng(0)
    for _ in range(100):
        z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        ref = naive_eval(p.f.terms, z)
        assert abs(ref.imag) <= 1e-12 * (1 + abs(ref))


def test_sphere_instance_shape():
    p = gen_sphere_instance(5, seed=3)
    assert len(p.constraints) == 1
    g, kind = p.constraints[0]
    assert kind == "eq"
    # objective support comes from Q of dimension binomial(5+2,2) = 21
    assert len(p.f.terms) == 21 * 21
    assert p.f.degree == 4
    assert p.d_min == 2
    # constraint evaluates to 0 exactly on the sphere
    z = np.array([0.6, 0.8j, 0, 0, 0], dtype=complex)
    assert g.eval(z) == pytest.approx(0.0, abs=1e-15)


def test_unitnorm_instance_shape():
    p = gen_unitnorm_instance(5, seed=3)
    assert len(p.constraints) == 5
    assert all(kind == "eq" for _, kind in p.constraints)
    assert all(g.degree == 2 for g, _ in p.constraints)
    assert p.constraint_orders == (1, 1, 1, 1, 1)
    assert p.d_min == 2
    phases = np.exp(1j * np.linspace(0.3, 2.0, 5))
    for g, _ in p.constraints:
        assert g.eval(phases) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("family", [gen_sphere_instance, gen_unitnorm_instance])
def test_generators_replay_exactly(family):
    a = family(4, seed=123)
    b = family(4, seed=123)
    c = family(4, seed=124)
    assert a.f.terms == b.f.terms
    assert a.f.terms != c.f.terms


def test_families_draw_independent_streams():
    a = gen_sphere_instance(2, seed=9)
    b = gen_unitnorm_instance(2, seed=9)
    za = a.f.terms[((0, 0), (0, 0))]
    zb = b.f.terms[((0, 0), (0, 0))]
    assert za != zb


def test_unitnorm_coefficients_in_unit_box():
    # (M + M*)/2 with re, im uniform on [0,1]: real parts stay in [0,1],
    # imaginary parts in [-1/2, 1/2], diagonal exactly real
    p = gen_unitnorm_instance(3, seed=2)
    for (beta, gamma), c in p.f.terms.items():
        assert 0.0 <= c.real <= 1.0
        assert abs(c.imag) <= 0.5
        if beta == gamma:
            assert c.imag == 0.0
