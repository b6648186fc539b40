"""Moment-relaxation assembly: data matrices, row layout, moment read-off."""

import math

import numpy as np
import pytest

from realify.program import LinearFunctional, RealConicProgram, Row
from realify.polynomials import (
    CPOP,
    CPolynomial,
    gen_sphere_instance,
    gen_unitnorm_instance,
    monomial_basis,
)
from realify.relaxation import (
    RelaxationArtifact,
    assemble_hsos,
    build_data_matrices,
    extract_moments,
    moment_matrix,
    size_report,
)
from realify.solver import SolverOptions, solve
from realify.validation import grid_min_1d

from entrywise_oracle import (
    ADDERS,
    accumulate_entries,
    accumulate_free,
    add_dualview_imag,
    add_naive_imag,
    entries_by_key,
    float_bits,
    structural_rows,
)

OPTS = SolverOptions(tol_gap=1e-7, tol_primal=1e-7, tol_dual=1e-7)


def hermitian_poly(s, terms_half):
    """Build a CPolynomial from one triangle of its term map."""
    terms = {}
    for (b, g), c in terms_half.items():
        terms[(b, g)] = terms.get((b, g), 0j) + c
        if b != g:
            terms[(g, b)] = terms.get((g, b), 0j) + np.conj(c)
    return CPolynomial(s=s, terms=terms)


def random_conjugate_symmetric_moments(s, d, rng):
    """A full fake moment table over basis(s, d) pairs, y[g,b] = conj(y[b,g])."""
    exps = monomial_basis(s, d).exponents
    y = {}
    for b in exps:
        for g in exps:
            if (b, g) in y:
                continue
            if b == g:
                y[(b, g)] = complex(rng.standard_normal(), 0.0)
            else:
                v = complex(rng.standard_normal(), rng.standard_normal())
                y[(b, g)] = v
                y[(g, b)] = np.conj(v)
    return y


# ---------------------------------------------------------------- data matrices


def test_moment_block_entries_are_elementary():
    p = gen_sphere_instance(2, seed=3)
    d = 2
    data = build_data_matrices(p, d)
    ents = entries_by_key(data)
    basis = data.bases[0]
    for i, beta in enumerate(basis.exponents):
        for j, gamma in enumerate(basis.exponents):
            hits = [e for e in ents[(beta, gamma)] if e[0] == 0]
            assert hits == [(0, i, j, 1.0 + 0j)]


def test_localizing_entries_analytic_univariate():
    # g = 1 - |z|^2 at order 1: the localizing block is 1x1 over the
    # constant monomial, so A^1 puts +1 on the constant key, -1 on the
    # |z|^2 key, and nothing on the mixed key.
    g = hermitian_poly(1, {((0,), (0,)): 1 + 0j, ((1,), (1,)): -1 + 0j})
    f = hermitian_poly(1, {((1,), (1,)): 1 + 0j})
    p = CPOP(s=1, f=f, constraints=((g, "ge"),))
    data = build_data_matrices(p, 1)
    assert data.block_dims == (2, 1)
    assert data.sources == (-1, 0)
    ents = entries_by_key(data)

    def block1(key):
        return [e for e in ents.get(key, ()) if e[0] == 1]

    assert block1(((0,), (0,))) == [(1, 0, 0, 1 + 0j)]
    assert block1(((1,), (1,))) == [(1, 0, 0, -1 + 0j)]
    assert block1(((1,), (0,))) == []
    assert block1(((0,), (1,))) == []


def test_overweight_localizing_term_is_rejected():
    # z^2 + conj(z)^2 has a one-sided degree-2 term: its order is
    # max(|beta|, |gamma|) = 2, not its half-degree 1, and at order 1 its
    # keys would escape the degree range, so assembly must refuse.
    g = hermitian_poly(1, {((2,), (0,)): 1 + 0j})
    f = hermitian_poly(1, {((1,), (1,)): 1 + 0j})
    p = CPOP(s=1, f=f, constraints=((g, "ge"),))
    assert p.constraint_orders == (2,)
    with pytest.raises(ValueError, match="minimum admissible order 2"):
        build_data_matrices(p, 1)


def test_order_below_minimum_reports_computed_minimum():
    p = gen_sphere_instance(2, seed=0)
    assert p.d_min == 2
    with pytest.raises(ValueError, match="minimum admissible order 2"):
        build_data_matrices(p, 1)
    with pytest.raises(ValueError, match="minimum admissible order 2"):
        assemble_hsos(p, 1, "dualview")
    with pytest.raises(ValueError, match="minimum admissible order 2"):
        size_report(p, 1)


# ---------------------------------------------------------------- moment matrix


def test_moment_matrix_analytic_univariate():
    basis = monomial_basis(1, 1)
    a = 0.3 - 0.7j
    y = {
        ((0,), (0,)): 1 + 0j,
        ((0,), (1,)): a,
        ((1,), (0,)): np.conj(a),
        ((1,), (1,)): 0.6 + 0j,
    }
    M = moment_matrix(y, basis).to_complex()
    assert np.allclose(M, np.array([[1, a], [np.conj(a), 0.6]]), atol=1e-15)


def test_moment_matrix_of_point_evaluation_is_rank_one_psd():
    rng = np.random.default_rng(4)
    basis = monomial_basis(2, 2)
    z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    y = {}
    for b in basis.exponents:
        for g in basis.exponents:
            y[(b, g)] = np.prod(z**np.array(b)) * np.prod(np.conj(z) ** np.array(g))
    M = moment_matrix(y, basis).to_complex()
    eigs = np.linalg.eigvalsh(M)
    scale = max(1.0, eigs[-1])
    assert eigs[0] >= -1e-10 * scale
    assert eigs[-2] <= 1e-10 * scale


def test_moment_matrix_requires_every_key():
    basis = monomial_basis(1, 1)
    with pytest.raises(KeyError, match="moment value missing"):
        moment_matrix({((0,), (0,)): 1 + 0j}, basis)


# ---------------------------------------------------------------- assembly shape


def test_assembled_shapes_for_published_sphere_case():
    p = gen_sphere_instance(5, seed=0)
    dv = assemble_hsos(p, 2, "dualview")
    assert dv.program.psd_blocks == (42,)
    assert dv.program.n_free == 37
    assert dv.program.n_rows == 441
    assert dv.blocks == ((-1, 42),)
    nv = assemble_hsos(p, 2, "naive")
    assert nv.program.psd_blocks == (42,)
    assert nv.program.n_free == 37
    assert nv.program.n_rows == 903
    rep = size_report(p, 2)
    assert rep["m_dualview"] == dv.program.n_rows


def test_dualview_row_count_is_square_of_basis_size():
    # for s >= 2 the sphere constraint is not binomial, so every key keeps
    # its rows (for s = 1 it is the unit circle |z|^2 = 1)
    for s, d in ((2, 2), (2, 3), (3, 2), (4, 2)):
        p = gen_sphere_instance(s, seed=s)
        w = math.comb(s + d, d)
        art = assemble_hsos(p, d, "dualview")
        assert art.program.n_rows == w * w


def test_unit_modulus_rows_are_key_classes():
    # |z_i|^2 = 1 identifies the keys that differ by (e_i, e_i): unitnorm
    # (4,2) has 131 real and imaginary class rows of its 225 (key, part)
    # pairs, (3,3) has 147 of 400, and only the bound variable is free
    for (s, d), (rows, w) in {(4, 2): (131, 15), (3, 3): (147, 20)}.items():
        p = gen_unitnorm_instance(s, seed=1)
        dv = assemble_hsos(p, d, "dualview")
        nv = assemble_hsos(p, d, "naive")
        assert dv.program.n_rows == rows
        assert nv.program.n_rows == rows + w * (w + 1)
        assert dv.program.n_free == nv.program.n_free == 1
        assert len(dv.row_index) == w * w
        assert set(dv.row_index.values()) == set(range(rows))


def test_bound_variable_enters_only_the_constant_real_row():
    p = gen_sphere_instance(2, seed=9)
    for form in ("naive", "dualview"):
        art = assemble_hsos(p, 2, form)
        zero_key = (((0, 0), (0, 0)), "re")
        hits = [
            k
            for k, row in enumerate(art.program.rows)
            for kf, _ in row.free
            if kf == 0
        ]
        assert hits == [art.row_index[zero_key]]
        assert art.program.rows[hits[0]].free[0] == (0, 1.0)
        assert art.program.objective.free == ((0, 1.0),)
        assert art.program.sense == "maximize"


# 2 - |z1|^2 - |z2|^2 + c z1 conj(z2) + conj(c) conj(z1) z2, c complex.  The
# generated families' constraints have real coefficients, which leave the
# A_I quadrants of their localizing blocks empty.
COUPLING = hermitian_poly(2, {
    ((0, 0), (0, 0)): 2.0, ((1, 0), (1, 0)): -1.0, ((0, 1), (0, 1)): -1.0,
    ((1, 0), (0, 1)): 0.3 + 0.4j,
})
SPHERE2 = gen_sphere_instance(2, seed=1)


def random_hermitian(w, rng):
    g = rng.standard_normal((w, w)) + 1j * rng.standard_normal((w, w))
    return g + g.conj().T


def free_coordinates(h):
    """P[i, j] (i <= j) then Q[i, j] (i < j), each triangle row-major."""
    return np.concatenate(
        [h.real[np.triu_indices(len(h))], h.imag[np.triu_indices(len(h), 1)]]
    )


EMBED = {
    "dualview": lambda h: np.block(
        [[h.real / 2, h.imag / 2], [-h.imag / 2, h.real / 2]]
    ),
    "naive": lambda h: np.block([[h.real, -h.imag], [h.imag, h.real]]),
}


def test_data_rows_pair_every_block_with_its_hermitian_multiplier():
    # A PSD localizing block between two equalities, so both the block and
    # the free-scalar numbering have to skip over the other kind.  Neither
    # equality is binomial, so each keeps its free H.
    g1 = gen_unitnorm_instance(2, seed=4).constraints[1][0]
    p = CPOP(s=2, f=SPHERE2.f, constraints=(
        (COUPLING, "eq"), (g1, "ge"), (SPHERE2.constraints[0][0], "eq"),
    ))
    data = build_data_matrices(p, 2)
    ents = entries_by_key(data)
    free_mult = [False, True, False, True]
    rng = np.random.default_rng(31)
    hs = []
    for w, is_free in zip(data.block_dims, free_mult):
        h = random_hermitian(w, rng)
        hs.append(h if is_free else h @ h.conj().T)
    lam = rng.standard_normal()
    free = np.concatenate(
        [[lam]] + [free_coordinates(h) for h, f in zip(hs, free_mult) if f]
    )
    zero_key = ((0, 0), (0, 0))
    arts = {}
    for form, embed in EMBED.items():
        art = arts[form] = assemble_hsos(p, 2, form)
        prog = art.program
        assert prog.psd_blocks == (2 * data.block_dims[0], 2 * data.block_dims[2])
        assert prog.n_free == free.size
        blocks = [embed(h) for h, f in zip(hs, free_mult) if not f]
        for (key, part), rid in art.row_index.items():
            z = sum(c * hs[blk][i, j] for blk, i, j, c in ents[key])
            if key == zero_key:
                z += lam
            want = z.real if part == "re" else z.imag
            got = prog.rows[rid].value(blocks, free)
            assert abs(got - want) <= 1e-10 * (1.0 + abs(want))

    dv, nv = arts["dualview"].program, arts["naive"].program
    for key, rid in arts["dualview"].row_index.items():
        assert dv.rows[rid].free == nv.rows[arts["naive"].row_index[key]].free
    data_rows = set(arts["naive"].row_index.values())
    structural = [r for k, r in enumerate(nv.rows) if k not in data_rows]
    assert len(structural) == sum(n // 2 * (n // 2 + 1) for n in nv.psd_blocks)
    blocks = [EMBED["naive"](h) for h, f in zip(hs, free_mult) if not f]
    for row in structural:
        assert row.free == ()
        assert abs(row.value(blocks, free)) <= 1e-10


def _add_free_multiplier(acc, base, w, p, q, c, part) -> None:
    """Re or Im (``part``) of c * H[p, q] for a free Hermitian w x w
    H = P + iQ whose scalars start at ``base``: P[i, j] for i <= j, then
    Q[i, j] for i < j, each triangle row-major; Q[q, p] = -Q[p, q]."""
    i, j = min(p, q), max(p, q)
    sign = 1.0 if p < q else -1.0
    real = base + i * (2 * w - i + 1) // 2 + (j - i)
    imag = base + w * (w + 1) // 2 + i * (2 * w - i - 1) // 2 + (j - i - 1)
    # Re(cH) = Re(c) P - Im(c) Q,  Im(cH) = Im(c) P + Re(c) Q
    cp, cq = (c.real, -c.imag) if part == "re" else (c.imag, c.real)
    acc[real] = acc.get(real, 0.0) + cp
    if p != q:
        acc[imag] = acc.get(imag, 0.0) + sign * cq


def _shift(e, by):
    return tuple(x + y for x, y in zip(e, by))


def binomial_classes(p, d, keys):
    """The canonical keys grouped by the binomial equalities of p, each
    class in key order and the classes in the order of their first key,
    plus the indices of those equalities."""
    pos = {key: k for k, key in enumerate(keys)}
    parent = list(range(len(keys)))

    def find(k):
        while parent[k] != k:
            k = parent[k]
        return k

    absorbed = set()
    for src, ((g, kind), dg) in enumerate(zip(p.constraints, p.constraint_orders)):
        if kind != "eq" or len(g.terms) != 2:
            continue
        ((mu, m2), c1), ((nu, n2), c2) = g.terms.items()
        if mu != m2 or nu != n2 or c1 != -c2:
            continue
        absorbed.add(src)
        loc = monomial_basis(p.s, d - dg).exponents
        for a in loc:
            for b in loc:
                k1 = pos.get((_shift(a, mu), _shift(b, mu)))
                k2 = pos.get((_shift(a, nu), _shift(b, nu)))
                assert (k1 is None) == (k2 is None)
                if k1 is not None:
                    r1, r2 = find(k1), find(k2)
                    parent[max(r1, r2)] = min(r1, r2)
    classes: dict = {}
    for k, key in enumerate(keys):
        classes.setdefault(find(k), []).append(key)
    return list(classes.values()), absorbed


def entrywise_assembly(p, d, form, quotient=True):
    """The relaxation program rebuilt row by row through dicts.

    Each class row sums its keys' data entries and rhs values in key
    order; the multiplier of a binomial equality must cancel within every
    class row.  ``quotient=False`` keeps every key in its own row and
    gives every equality its free multiplier.
    """
    data = build_data_matrices(p, d)
    ents = entries_by_key(data)
    dims = data.block_dims
    exps = data.bases[0].exponents
    w0 = len(exps)
    zero_key = ((0,) * p.s, (0,) * p.s)
    keys = [(exps[i], exps[j]) for i in range(w0) for j in range(i, w0)]
    classes, absorbed = binomial_classes(p, d, keys)
    if not quotient:
        classes, absorbed = [[key] for key in keys], set()
    psd_of, free_of, n_free = {}, {}, 1
    for blk, (src, w) in enumerate(zip(data.sources, dims)):
        if src in absorbed:
            continue
        if src >= 0 and p.constraints[src][1] == "eq":
            free_of[blk] = n_free
            n_free += w * w
        else:
            psd_of[blk] = len(psd_of)
    psd_dims = [dims[blk] for blk in psd_of]

    def row(members, part):
        acc: dict = {}
        free: dict = {}
        cancel: dict = {}
        for key in members:
            if (key, part) == (zero_key, "re"):
                free[0] = free.get(0, 0.0) + 1.0
            for blk, pb, qb, c in ents.get(key, ()):
                if blk in psd_of:
                    ADDERS[form][part](
                        acc, psd_of[blk], dims[blk], pb, qb, c.real, c.imag
                    )
                elif blk in free_of:
                    base = free_of[blk]
                    _add_free_multiplier(free, base, dims[blk], pb, qb, c, part)
                else:
                    cancel[blk, pb, qb] = cancel.get((blk, pb, qb), 0j) + c
        assert all(c == 0 for c in cancel.values())
        coef = complex(p.f.terms.get(members[0], 0j))
        for key in members[1:]:
            coef += complex(p.f.terms.get(key, 0j))
        return Row(
            entries=accumulate_entries(
                (b, i, j, c) for (b, i, j), c in acc.items()
            ),
            free=accumulate_free(free.items()),
            rhs=coef.real if part == "re" else coef.imag,
        )

    rows = [row(members, "re") for members in classes]
    rows += [row(m, "im") for m in classes if m[0][0] != m[0][1]]
    if form == "naive":
        for blk, w in enumerate(psd_dims):
            for triples in structural_rows(w):
                rows.append(Row(
                    entries=accumulate_entries(
                        (blk, i, j, c) for i, j, c in triples
                    ),
                    rhs=0.0,
                ))
    return RealConicProgram(
        psd_blocks=tuple(2 * w for w in psd_dims),
        n_free=n_free,
        rows=tuple(rows),
        objective=LinearFunctional(free=((0, 1.0),)),
        sense="maximize",
    )


def recast(p, kinds):
    return CPOP(s=p.s, f=p.f, constraints=tuple(
        (g, kind) for (g, _), kind in zip(p.constraints, kinds)
    ))


ORACLE_CASES = [
    (CPOP(s=2, f=SPHERE2.f, constraints=SPHERE2.constraints + (
        (COUPLING, "ge"), (COUPLING, "eq"),
    )), 2),
    (SPHERE2, 2),
    (SPHERE2, 3),
    (gen_unitnorm_instance(3, seed=1), 2),
    (gen_unitnorm_instance(3, seed=1), 3),
    (recast(gen_unitnorm_instance(3, seed=2), ("eq", "ge", "eq")), 2),
    (recast(gen_unitnorm_instance(3, seed=2), ("ge", "ge", "ge")), 2),
]


ORACLE_IDS = ["complex-ge-eq", "sphere2-d2", "sphere2-d3", "unitnorm3-d2",
              "unitnorm3-d3", "eq-ge-eq", "all-ge"]


@pytest.mark.parametrize("p, d", ORACLE_CASES, ids=ORACLE_IDS)
@pytest.mark.parametrize("form", ["dualview", "naive"])
def test_assembly_matches_the_entrywise_oracle(p, d, form):
    got = assemble_hsos(p, d, form).program
    want = entrywise_assembly(p, d, form)
    assert got == want
    assert np.array_equal(float_bits(got), float_bits(want))


@pytest.mark.parametrize("p, d", ORACLE_CASES, ids=ORACLE_IDS)
def test_localizing_matrix_reconstruction_oracle(p, d):
    # sum_key A^i_key y_key must equal the directly computed moment or
    # localizing matrix [sum_t g_t y_{b'+b'', g'+g''}] for any
    # conjugate-symmetric y.
    rng = np.random.default_rng(11)
    data = build_data_matrices(p, d)
    ents = entries_by_key(data)
    y = random_conjugate_symmetric_moments(p.s, d, rng)

    zero = (0,) * p.s
    polys = [{(zero, zero): 1.0}] + [g.terms for g, _ in p.constraints]

    for blk, terms in enumerate(polys):
        exps = data.bases[blk].exponents
        w = len(exps)
        direct = np.zeros((w, w), dtype=complex)
        for a, bexp in enumerate(exps):
            for b, gexp in enumerate(exps):
                for (b2, g2), c in terms.items():
                    key = (
                        tuple(x + u for x, u in zip(bexp, b2)),
                        tuple(x + u for x, u in zip(gexp, g2)),
                    )
                    direct[a, b] += c * y[key]
        summed = np.zeros((w, w), dtype=complex)
        for key, es in ents.items():
            for eb, i, j, c in es:
                if eb == blk:
                    summed[i, j] += c * y[key]
        assert np.max(np.abs(summed - direct)) <= 1e-12 * (1 + np.max(np.abs(direct)))


def test_data_entries_are_ordered_by_key_then_position():
    # one entry per (key, position), in (row, col, blk, pb, qb) order
    for p, d in ORACLE_CASES:
        e = build_data_matrices(p, d).entries
        at = list(zip(*(x.tolist() for x in e[:5])))
        assert at == sorted(set(at))


def disk_recast(p):
    (g0, _), (g1, _), (g2, _) = p.constraints
    return CPOP(s=p.s, f=p.f, constraints=((g0, "eq"), (-g1, "ge"), (g2, "eq")))


# sphere s=2 with |z1|^2 = |z2|^2 added: a binomial equality whose terms
# are both of degree 2, next to the sphere's own non-binomial one
BALANCED = hermitian_poly(2, {((1, 0), (1, 0)): 1.0, ((0, 1), (0, 1)): -1.0})

QUOTIENT_CASES = [
    (gen_unitnorm_instance(2, seed=1), 2),
    (gen_unitnorm_instance(2, seed=1), 3),
    (gen_unitnorm_instance(3, seed=1), 2),
    (gen_unitnorm_instance(3, seed=1), 3),
    # the (eq, ge, eq) recast with the disk 1 - |z2|^2 >= 0: as recast,
    # |z2|^2 - 1 >= 0 leaves z2 unbounded and no form solves it
    (disk_recast(gen_unitnorm_instance(3, seed=2)), 2),
    (CPOP(s=2, f=SPHERE2.f, constraints=SPHERE2.constraints + (
        (BALANCED, "eq"),
    )), 2),
]


@pytest.mark.parametrize(
    "p, d", QUOTIENT_CASES,
    ids=["unitnorm2-d2", "unitnorm2-d3", "unitnorm3-d2", "unitnorm3-d3",
         "eq-disk-eq", "sphere2-balanced"],
)
def test_quotient_keeps_the_optimum_and_the_binomial_identities(p, d):
    full = solve(entrywise_assembly(p, d, "dualview", quotient=False), OPTS)
    assert full.status == "optimal"
    exps = monomial_basis(p.s, d).exponents
    keys = [(b, g) for i, b in enumerate(exps) for g in exps[i:]]
    _, absorbed = binomial_classes(p, d, keys)
    assert absorbed
    for form in ("dualview", "naive"):
        art = assemble_hsos(p, d, form)
        res = solve(art.program, OPTS)
        assert res.status == "optimal"
        assert abs(res.objective - full.objective) <= 1e-7 * abs(full.objective)
        y = extract_moments(art, res)
        for src in absorbed:
            g = p.constraints[src][0]
            (mu, _), (nu, _) = g.terms
            loc = monomial_basis(p.s, d - p.constraint_orders[src]).exponents
            for a in loc:
                for b in loc:
                    assert y[(_shift(a, mu), _shift(b, mu))] == y[
                        (_shift(a, nu), _shift(b, nu))
                    ]


def test_only_binomial_equalities_lose_their_multiplier():
    s, d = 2, 2
    f = SPHERE2.f
    one, z1 = ((0, 0), (0, 0)), ((1, 0), (1, 0))

    def assembled(terms):
        g = hermitian_poly(s, terms)
        return assemble_hsos(CPOP(s=s, f=f, constraints=((g, "eq"),)), d, "dualview")

    unit = assembled({z1: 1.0, one: -1.0}).program
    assert unit.n_free == 1
    # 2|z1|^2 - 2 = 0 identifies the same keys as |z1|^2 - 1 = 0
    assert assembled({z1: 2.0, one: -2.0}).program == unit
    # coefficients that do not cancel, or terms off the diagonal: the
    # 3 x 3 multiplier stays, and every key keeps its rows
    for terms in (
        {z1: 1.0, one: -2.0},
        {((1, 0), (0, 1)): 1j},  # i (z1 conj(z2) - conj(z1) z2)
    ):
        prog = assembled(terms).program
        assert prog.n_free == 1 + 9
        assert prog.n_rows == 36


def walked_moments(art, res):
    """The moment read-off as a walk over ``row_index``: the reference."""
    w = res.dual_row_values
    y = {}
    for (key, part), rid in art.row_index.items():
        if part != "re":
            continue
        beta, gamma = key
        if beta == gamma:
            y[key] = complex(w[rid])
        else:
            val = complex(w[rid], -float(w[art.row_index[(key, "im")]])) / 2.0
            y[key] = val
            y[(gamma, beta)] = val.conjugate()
    zero = (0,) * len(next(iter(y))[0])
    mass = y[(zero, zero)]
    return {k: v / mass.real for k, v in y.items()}


@pytest.mark.parametrize(
    "p, d", ORACLE_CASES + QUOTIENT_CASES,
    ids=[f"oracle-{x}" for x in ORACLE_IDS] + [
        f"quotient-{k}" for k in range(len(QUOTIENT_CASES))
    ],
)
def test_extract_moments_equals_the_row_index_walk(p, d):
    for form in ("dualview", "naive"):
        art = assemble_hsos(p, d, form)
        res = solve(art.program, OPTS)
        if res.status != "optimal":
            with pytest.raises(ValueError, match="optimal"):
                extract_moments(art, res)
            continue
        y = extract_moments(art, res)
        assert y == walked_moments(art, res)
        exps = monomial_basis(p.s, d).exponents
        assert y.keys() == {(b, g) for b in exps for g in exps}


def test_row_index_is_a_view_of_the_key_row_matrix():
    p = gen_unitnorm_instance(3, seed=1)
    w = math.comb(3 + 2, 2)
    dv, nv = (assemble_hsos(p, 2, form) for form in ("dualview", "naive"))
    for art in (dv, nv):
        view = art.row_index
        assert len(view) == len(list(view)) == w * w
        assert set(view.values()) == set(range(dv.program.n_rows))
        assert view.T.shape == (w * (w + 1) // 2, art.program.n_rows)
    exps = monomial_basis(3, 2).exponents
    lo, hi = exps[1], exps[2]
    for missing in (
        ((hi, lo), "re"),  # the mirrored half is not canonical
        ((lo, lo), "im"),  # a diagonal key has no imaginary row
        ((lo, hi), "Re"),
        (((9, 0, 0), lo), "re"),  # beyond the degree-d basis
    ):
        assert missing not in dv.row_index
        with pytest.raises(KeyError):
            dv.row_index[missing]
    assert dv.row_index[((lo, hi), "im")] >= dv.row_index[((lo, hi), "re")]

    res = solve(dv.program, OPTS)
    again = RelaxationArtifact(
        order=dv.order, form=dv.form, blocks=dv.blocks, program=dv.program,
        row_index=dv.row_index,
    )
    assert again == dv
    assert again.row_index == dict(dv.row_index.items())
    assert extract_moments(again, res) == extract_moments(dv, res)


def test_row_rhs_matches_objective_coefficients():
    p = gen_sphere_instance(2, seed=21)
    art = assemble_hsos(p, 2, "dualview")
    for (key, part), rid in art.row_index.items():
        c = complex(p.f.terms.get(key, 0j))
        want = c.real if part == "re" else c.imag
        assert art.program.rows[rid].rhs == want


def test_assembly_is_deterministic():
    p = gen_unitnorm_instance(2, seed=13)
    a1 = assemble_hsos(p, 2, "naive")
    a2 = assemble_hsos(p, 2, "naive")
    assert a1.program == a2.program


def test_unknown_form_and_empty_objective_are_rejected():
    p = gen_sphere_instance(1, seed=0)
    with pytest.raises(ValueError, match="unknown form"):
        assemble_hsos(p, 2, "fancy")
    zero = CPolynomial(s=1, terms={})
    empty = CPOP(s=1, f=zero, constraints=p.constraints)
    with pytest.raises(ValueError, match="empty"):
        assemble_hsos(empty, 2, "dualview")


# ---------------------------------------------------------------- redundancy


def evaluate_entries(entries, Xs):
    return sum(
        c * (Xs[b][i, j] + Xs[b][j, i] if i != j else Xs[b][i, i])
        for b, i, j, c in entries
    )


def diagonal_imag_functionals(p, d, adder):
    data = build_data_matrices(p, d)
    ents = entries_by_key(data)
    dims = data.block_dims
    out = []
    for beta in data.bases[0].exponents:
        acc = {}
        for blk, pb, qb, c in ents.get((beta, beta), ()):
            adder(acc, blk, dims[blk], pb, qb, c.real, c.imag)
        out.append(
            accumulate_entries((b, i, j, c) for (b, i, j), c in acc.items())
        )
    return dims, out


def test_omitted_diagonal_imaginary_functionals_vanish_dualview():
    # In the split-view pairing the symmetric part of X3 never enters, so
    # the diagonal imaginary functionals cancel coefficient by coefficient
    # and evaluate to zero on any symmetric assignment.
    rng = np.random.default_rng(7)
    for seed in range(3):
        p = gen_sphere_instance(2, seed=seed)
        assert any(
            abs(c.imag) > 1e-3 for c in p.f.terms.values()
        ), "instance is not genuinely complex"
        dims, funs = diagonal_imag_functionals(p, 2, add_dualview_imag)
        mats = []
        for _ in range(20):
            row = [rng.standard_normal((2 * w, 2 * w)) for w in dims]
            mats.append([m + m.T for m in row])
        for folded in funs:
            assert folded == ()
            for Xs in mats:
                assert abs(evaluate_entries(folded, Xs)) <= 1e-12


def test_omitted_diagonal_imaginary_functionals_vanish_naive():
    # The doubled form keeps entries in the off-diagonal quadrant, so the
    # functional is only redundant together with the structural rows: it
    # must vanish on every structured assignment [[R, -I], [I, R]].
    rng = np.random.default_rng(17)
    for seed in range(3):
        p = gen_sphere_instance(2, seed=seed)
        dims, funs = diagonal_imag_functionals(p, 2, add_naive_imag)
        mats = []
        for _ in range(20):
            row = []
            for w in dims:
                R = rng.standard_normal((w, w))
                R = R + R.T
                I = rng.standard_normal((w, w))
                I = I - I.T
                row.append(np.block([[R, -I], [I, R]]))
            mats.append(row)
        for folded in funs:
            for Xs in mats:
                assert abs(evaluate_entries(folded, Xs)) <= 1e-12


def test_mirrored_key_carries_the_conjugate_transposed_data():
    # The (gamma, beta) rows are left out because their data is the
    # conjugate transpose of the (beta, gamma) data, so they only repeat
    # the kept rows: Re and Im of <A_(g,b), H> = conj(<A_(b,g), H>) for
    # every Hermitian H.
    for p in (gen_sphere_instance(2, seed=4), gen_unitnorm_instance(2, seed=2)):
        ents = entries_by_key(build_data_matrices(p, 2))
        assert ents
        for (beta, gamma), es in ents.items():
            mirrored = sorted(
                (blk, j, i, c.conjugate()) for blk, i, j, c in es
            )
            assert ents[(gamma, beta)] == tuple(mirrored)


# ---------------------------------------------------------------- size report


SPHERE_SIZES = {
    (5, 2): (42, 441, 966),
    (7, 2): (72, 1296, 2736),
    (9, 2): (110, 3025, 6270),
    (11, 2): (156, 6084, 12480),
    (13, 2): (210, 11025, 22470),
    (15, 2): (272, 18496, 37536),
    (5, 3): (112, 3136, 6846),
    (7, 3): (240, 14400, 30372),
}


def test_size_report_published_sphere_numbers():
    for (s, d), (n_sdp, m_dv, m_nv) in SPHERE_SIZES.items():
        rep = size_report(gen_sphere_instance(s, seed=0), d)
        assert rep["n_sdp"] == n_sdp
        assert rep["m_dualview"] == m_dv
        assert rep["m_naive"] == m_nv
        assert rep["t"] == 1


def test_size_report_counts_unitnorm_constraints():
    rep = size_report(gen_unitnorm_instance(3, seed=1), 2)
    w = math.comb(5, 2)
    wi = math.comb(4, 1)
    assert rep["n_sdp"] == 2 * w
    assert rep["m_dualview"] == w * w
    assert rep["m_naive"] == 2 * w * w + 2 * w + 3 * wi * (wi + 1)
    assert rep["t"] == 3


# ---------------------------------------------------------------- moments


def test_extract_moments_normalized_and_psd():
    p = gen_unitnorm_instance(1, seed=6)
    art = assemble_hsos(p, 2, "dualview")
    res = solve(art.program, OPTS)
    assert res.status == "optimal"
    y = extract_moments(art, res)
    assert y[((0,), (0,))] == 1.0 + 0j
    # |z|^2 = 1 forces the degree-(1,1) moment of any representing measure
    assert abs(y[((1,), (1,))] - 1.0) <= 1e-5
    M = moment_matrix(y, monomial_basis(1, 2)).to_complex()
    eigs = np.linalg.eigvalsh(M)
    assert eigs[0] >= -1e-6 * max(1.0, eigs[-1])


def test_extract_moments_conjugate_structure():
    p = gen_sphere_instance(2, seed=8)
    art = assemble_hsos(p, 2, "naive")
    res = solve(art.program, OPTS)
    assert res.status == "optimal"
    y = extract_moments(art, res)
    for (b, g), v in y.items():
        assert y[(g, b)] == np.conj(v)
        if b == g:
            assert v.imag == 0.0


def test_extract_moments_requires_optimal_status():
    p = gen_sphere_instance(1, seed=0)
    art = assemble_hsos(p, 2, "dualview")
    res = solve(art.program, SolverOptions(max_iter=1))
    assert res.status != "optimal"
    with pytest.raises(ValueError, match="optimal"):
        extract_moments(art, res)


# f = 1 + z^3 conj(z) + z conj(z)^3 = 1 + 2 cos(2 theta) on |z| = 1; its
# terms are unbalanced, so its order is max(|beta|, |gamma|) = 3
UNBALANCED = CPOP(s=1, f=hermitian_poly(1, {
    ((0,), (0,)): 1.0, ((3,), (1,)): 1.0,
}), constraints=((hermitian_poly(1, {((1,), (1,)): 1.0, ((0,), (0,)): -1.0}), "eq"),))


def test_unbalanced_objective_terms_set_the_order():
    assert UNBALANCED.f.degree == 4 and UNBALANCED.d_min == 3
    gmin = grid_min_1d(UNBALANCED, 10**4)
    assert abs(gmin + 1.0) <= 1e-12
    for form in ("dualview", "naive"):
        with pytest.raises(ValueError, match="minimum admissible order 3"):
            assemble_hsos(UNBALANCED, 2, form)
        res = solve(assemble_hsos(UNBALANCED, 3, form).program, OPTS)
        assert res.status == "optimal"
        assert res.objective <= gmin + 1e-6
        assert abs(res.objective - gmin) <= 1e-5


def test_unbalanced_constraint_assembles_at_its_order():
    # z^2 + conj(z)^2 + 1 >= 0 has half-degree 1 but order 2
    g = hermitian_poly(1, {((2,), (0,)): 1.0, ((0,), (0,)): 1.0})
    f = hermitian_poly(1, {((1,), (1,)): 1.0})
    p = CPOP(s=1, f=f, constraints=((g, "ge"),))
    assert p.constraint_orders == (2,) and p.d_min == 2
    for form in ("dualview", "naive"):
        art = assemble_hsos(p, 2, form)
        assert art.blocks == ((-1, 6), (0, 2))


def test_relaxation_bounds_tighten_with_order():
    p = gen_sphere_instance(1, seed=5)
    vals = []
    for d in (2, 3):
        res = solve(assemble_hsos(p, d, "dualview").program, OPTS)
        assert res.status == "optimal"
        vals.append(res.objective)
    assert vals[0] <= vals[1] + 1e-6 * (1 + abs(vals[1]))
