"""Order-d moment relaxation of a CPOP as a real SDP, in both forms.

A lower bound lambda on f over {g_i >= 0, g_j = 0} is certified by writing

    f - lambda  =  sum_i <A^i_{beta,gamma}, H^i>  over monomial pairs,

with the multiplier H^0 paired against the moment-matrix data and one
Hermitian multiplier H^i per constraint: PSD for an inequality, free for an
equality (Josz and Molzahn, SIAM J. Optim. 2018).  Matching coefficients of
z^beta conj(z)^gamma produces one equality row per pair; conjugate symmetry
makes the (gamma, beta) half redundant, so rows are emitted for
beta <= gamma only, and the diagonal imaginary rows, which cancel
identically after that folding, are omitted in both forms.  Each PSD
Hermitian block is then realified per complex_sdp: the doubled block with
its structural rows ("naive") or the unstructured block whose functionals
touch only X1+X2 and X3-X3' ("dualview").  A free multiplier H = P + iQ
needs no embedding: it enters both forms as the same w^2 free scalars.

The dual multipliers of the coefficient rows are exactly the moment
sequence of the relaxation, which ``extract_moments`` reads off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .complex_sdp import (
    HermitianMatrix,
    add_dualview_imag,
    add_dualview_real,
    add_naive_imag,
    add_naive_real,
    structural_constraints,
)
from .polynomials import CPOP, Exponent, MonomialBasis, monomial_basis
from .program import (
    LinearFunctional,
    RealConicProgram,
    Row,
    SolveResult,
    accumulate_entries,
    accumulate_free,
)

__all__ = [
    "MomentKey",
    "DataMatrixSet",
    "RelaxationArtifact",
    "build_data_matrices",
    "moment_matrix",
    "assemble_hsos",
    "size_report",
    "extract_moments",
]

# a moment key pairs the exponent of z with the exponent of conj(z)
MomentKey = tuple[Exponent, Exponent]


def _graded(e: Exponent) -> tuple[int, Exponent]:
    return (sum(e), e)


def _is_canonical(key: MomentKey) -> bool:
    beta, gamma = key
    return _graded(beta) <= _graded(gamma)


def _require_order(p: CPOP, d: int) -> None:
    if d < p.d_min:
        raise ValueError(
            f"relaxation order {d} is below the minimum admissible order "
            f"{p.d_min} for this problem"
        )


@dataclass(frozen=True)
class DataMatrixSet:
    """Sparse data matrices of the order-d relaxation.

    ``entries`` maps each arising moment key to the positions it touches:
    tuples (block, row, col, complex coefficient).  Block 0 carries the
    moment-matrix data (single unit entry per key); block i + 1 carries the
    localizing data of constraint i.  ``sources`` indexes each block into
    the CPOP constraint list, with -1 marking the moment block itself.
    """

    order: int
    bases: tuple[MonomialBasis, ...]
    sources: tuple[int, ...]
    entries: dict[MomentKey, tuple[tuple[int, int, int, complex], ...]] = field(
        compare=False
    )

    @property
    def block_dims(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.bases)


def build_data_matrices(p: CPOP, d: int) -> DataMatrixSet:
    """Data matrices A^i of every block at order d.

    For a localizing polynomial g, position (beta', gamma') of block i
    receives g's coefficient at (beta'', gamma'') in the matrix for key
    (beta' + beta'', gamma' + gamma''); colliding contributions accumulate.
    A key escaping the degree-d index range means the constraint is too
    high-degree for its block size and is rejected.
    """
    _require_order(p, d)
    one = {((0,) * p.s, (0,) * p.s): 1.0 + 0j}
    blocks = [(-1, one, 0)] + [
        (src, g.terms, p.constraint_orders[src])
        for src, (g, _) in enumerate(p.constraints)
    ]
    bases = tuple(monomial_basis(p.s, d - di) for _, _, di in blocks)
    acc: dict[MomentKey, dict[tuple[int, int, int], complex]] = {}
    for blk, (_, terms, _) in enumerate(blocks):
        exps = bases[blk].exponents
        for pb, bexp in enumerate(exps):
            for qb, gexp in enumerate(exps):
                for (b2, g2), c in terms.items():
                    beta = tuple(x + y for x, y in zip(bexp, b2))
                    gamma = tuple(x + y for x, y in zip(gexp, g2))
                    if sum(beta) > d or sum(gamma) > d:
                        raise ValueError(
                            f"localizing term {(b2, g2)!r} pushes key "
                            f"{(beta, gamma)!r} beyond degree {d}"
                        )
                    pos = (blk, pb, qb)
                    bucket = acc.setdefault((beta, gamma), {})
                    bucket[pos] = bucket.get(pos, 0j) + c
    entries = {
        key: tuple(
            (blk, pb, qb, c)
            for (blk, pb, qb), c in sorted(bucket.items())
            if c != 0
        )
        for key, bucket in acc.items()
    }
    return DataMatrixSet(
        order=d,
        bases=bases,
        sources=tuple(src for src, _, _ in blocks),
        entries=entries,
    )


def moment_matrix(y, basis: MonomialBasis) -> HermitianMatrix:
    """Hermitian matrix of y over basis x basis; every key must be present."""
    w = len(basis)
    z = np.empty((w, w), dtype=complex)
    for i, beta in enumerate(basis.exponents):
        for j, gamma in enumerate(basis.exponents):
            try:
                z[i, j] = y[(beta, gamma)]
            except KeyError:
                raise KeyError(f"moment value missing for {(beta, gamma)!r}")
    return HermitianMatrix.from_complex(z)


@dataclass(frozen=True)
class RelaxationArtifact:
    """Assembled real SDP plus the bookkeeping to interpret its solution."""

    order: int
    form: str
    blocks: tuple[tuple[int, int], ...]
    program: RealConicProgram
    row_index: dict[tuple[MomentKey, str], int] = field(compare=False)
    lambda_id: int = 0


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


def assemble_hsos(p: CPOP, d: int, form: str) -> RelaxationArtifact:
    """Emit the order-d relaxation as a real conic program.

    Row layout: real rows for every canonical key in basis order, then
    imaginary rows for the strictly off-diagonal keys, then (naive form
    only) the structural rows of each doubled PSD block.  The PSD blocks
    are the moment block and one per "ge" constraint, in constraint order.

    Free scalar 0 is the bound variable: it enters exactly once, in the
    real row of the constant key, and the objective is to maximize it.
    Each equality's free multiplier H = P + iQ (w x w) follows, in
    constraint order, as w(w+1)/2 scalars P[p, q] (p <= q) and then
    w(w-1)/2 scalars Q[p, q] (p < q), each triangle row-major.  A data
    entry c at (p, q) of an equality block adds Re(c H[p, q]) to its key's
    real row and Im(c H[p, q]) to its imaginary row, in both forms.
    """
    if form not in ("naive", "dualview"):
        raise ValueError(f"unknown form {form!r}")
    if not p.f.terms:
        raise ValueError("objective polynomial is empty")
    data = build_data_matrices(p, d)
    dims = data.block_dims
    add = {
        "re": add_naive_real if form == "naive" else add_dualview_real,
        "im": add_naive_imag if form == "naive" else add_dualview_imag,
    }
    exps = data.bases[0].exponents
    w0 = len(exps)
    zero_key = ((0,) * p.s, (0,) * p.s)
    re_keys = [(exps[i], exps[j]) for i in range(w0) for j in range(i, w0)]
    im_keys = [(exps[i], exps[j]) for i in range(w0) for j in range(i + 1, w0)]

    # data block -> PSD block index, or -> first free scalar of its H
    psd_of: dict[int, int] = {}
    free_of: dict[int, int] = {}
    n_free = 1
    for blk, (src, w) in enumerate(zip(data.sources, dims)):
        if src >= 0 and p.constraints[src][1] == "eq":
            free_of[blk] = n_free
            n_free += w * w
        else:
            psd_of[blk] = len(psd_of)
    psd_dims = [dims[blk] for blk in psd_of]

    def row(key, part, rhs):
        acc: dict = {}
        free: dict = {0: 1.0} if (key, part) == (zero_key, "re") else {}
        for blk, pb, qb, c in data.entries.get(key, ()):
            if blk in psd_of:
                add[part](acc, psd_of[blk], dims[blk], pb, qb, c.real, c.imag)
            else:
                base = free_of[blk]
                _add_free_multiplier(free, base, dims[blk], pb, qb, c, part)
        return Row(
            entries=accumulate_entries(
                (b, i, j, c) for (b, i, j), c in acc.items()
            ),
            free=accumulate_free(free.items()),
            rhs=rhs,
        )

    rows: list[Row] = []
    row_index: dict[tuple[MomentKey, str], int] = {}
    for key in re_keys:
        b = complex(p.f.terms.get(key, 0j))
        if key[0] == key[1] and b.imag != 0.0:
            raise ValueError(f"diagonal objective coefficient {key!r} not real")
        row_index[(key, "re")] = len(rows)
        rows.append(row(key, "re", b.real))
    for key in im_keys:
        b = complex(p.f.terms.get(key, 0j))
        row_index[(key, "im")] = len(rows)
        rows.append(row(key, "im", b.imag))
    if form == "naive":
        for blk, w in enumerate(psd_dims):
            for triples in structural_constraints(w):
                rows.append(
                    Row(
                        entries=accumulate_entries(
                            (blk, i, j, c) for i, j, c in triples
                        ),
                        rhs=0.0,
                    )
                )

    program = RealConicProgram(
        psd_blocks=tuple(2 * w for w in psd_dims),
        n_free=n_free,
        rows=tuple(rows),
        objective=LinearFunctional(free=((0, 1.0),)),
        sense="maximize",
    )
    return RelaxationArtifact(
        order=d,
        form=form,
        blocks=tuple((data.sources[blk], 2 * dims[blk]) for blk in psd_of),
        program=program,
        row_index=row_index,
    )


def size_report(p: CPOP, d: int) -> dict[str, int]:
    """Program sizes at order d, without materializing anything.

    ``n_sdp`` is the realified moment-block dimension 2*omega and
    ``m_dualview`` the exact row count omega^2 of the dual-view form.
    ``m_naive`` counts the doubled form the way its bookkeeping is usually
    quoted: a real and an imaginary row for every canonical pair plus
    structural rows for one moment block and one localizing block per
    constraint, i.e. 2w(w+1) + sum_i w_i(w_i+1).  The materialized naive
    program instead drops the identically-zero diagonal imaginary rows and
    gives equalities free multipliers, which need no structural rows, so
    its true row count w^2 + w(w+1) + sum_{ge} w_i(w_i+1) is reported
    separately as ``m_naive_assembled``.
    """
    _require_order(p, d)
    w = math.comb(p.s + d, d)
    wis = [
        math.comb(p.s + d - di, d - di) for di in p.constraint_orders
    ]
    ge = [wi for wi, (_, kind) in zip(wis, p.constraints) if kind == "ge"]
    return {
        "n_sdp": 2 * w,
        "m_dualview": w * w,
        "m_naive": 2 * w * w + 2 * w + sum(wi * (wi + 1) for wi in wis),
        "m_naive_assembled": w * w
        + w * (w + 1)
        + sum(wi * (wi + 1) for wi in ge),
        "t": len(p.constraints),
    }


def extract_moments(
    art: RelaxationArtifact, res: SolveResult
) -> dict[MomentKey, complex]:
    """Moment sequence read off the dual row multipliers.

    Diagonal keys take the real-row multiplier directly; off-diagonal
    canonical keys take (u - i v) / 2 from their real and imaginary rows
    and are conjugate-extended.  The sequence is normalized so the constant
    key carries exactly 1.
    """
    if res.status != "optimal":
        raise ValueError(
            f"moment extraction needs an optimal solve, got {res.status!r}"
        )
    w = res.dual_row_values
    y: dict[MomentKey, complex] = {}
    for (key, part), rid in art.row_index.items():
        if part != "re" or not _is_canonical(key):
            continue
        beta, gamma = key
        if beta == gamma:
            y[key] = complex(w[rid])
        else:
            im_id = art.row_index.get((key, "im"))
            v = float(w[im_id]) if im_id is not None else 0.0
            val = complex(w[rid], -v) / 2.0
            y[key] = val
            y[(gamma, beta)] = val.conjugate()
    s = len(next(iter(y))[0]) if y else 0
    mass = y.get(((0,) * s, (0,) * s))
    if mass is None or not mass.real > 1e-12:
        raise ValueError("constant moment is missing or not positive")
    return {k: v / mass.real for k, v in y.items()}
