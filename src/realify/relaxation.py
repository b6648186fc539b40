"""Order-d moment relaxation of a CPOP as a real SDP, in both forms.

A lower bound lambda on f over {g_i >= 0, g_j = 0} is certified by writing

    f - lambda  =  sum_i <A^i_{beta,gamma}, H^i>  over monomial pairs,

with the multiplier H^0 paired against the moment-matrix data and one
Hermitian multiplier H^i per constraint: PSD for an inequality, free for an
equality (Josz and Molzahn, SIAM J. Optim. 2018).  Matching coefficients of
z^beta conj(z)^gamma produces one equality row per pair; conjugate symmetry
makes the (gamma, beta) half redundant, so rows are emitted for
beta <= gamma only, and the diagonal imaginary rows, which cancel
identically after that folding, are omitted in both forms.

A binomial equality c (z^mu conj(z)^mu - z^nu conj(z)^nu) = 0, such as
|z_i|^2 = 1, states that the moments at (a + mu, b + mu) and
(a + nu, b + nu) are one unknown.  The relaxation is built on that
quotient: those keys share one row, the sum of theirs, and the equality
needs no multiplier, because its H would enter that row at c and -c.
Every other equality keeps its free H.

Each PSD Hermitian block is then realified by complex_sdp's quadrant
table, the rule the complex SDP reformulations use too: the doubled
block with its structural rows ("naive") or the unstructured block whose
functionals touch only X1+X2 and X3-X3' ("dualview").  The data
matrices are entry arrays on the basis index of each key; the key
classes, the rows and that table's one array pass all read that index.
A free multiplier H = P + iQ needs no embedding: it enters both forms as
the same w^2 free scalars, placed by index arithmetic.

The dual multipliers of the coefficient rows are exactly the moment
sequence of the relaxation.  One sparse matrix T, canonical keys by rows,
says how: the canonical moments are T times the row multipliers, which is
all ``extract_moments`` computes, and the keys of one class read the same
row.  The rhs is read through T too: the real part of T^T times the
objective's coefficients, doubled where T holds 0.5 and -0.5i.
``RelaxationArtifact.row_index`` stores T and derives each (key, part) ->
row lookup from it.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .complex_sdp import (
    HermitianMatrix,
    _structural_rows,
    embed_entries,
    key_entries,
)
from .polynomials import CPOP, Exponent, MonomialBasis, monomial_basis
from .program import RealConicProgram, SolveResult

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


def _require_order(p: CPOP, d: int) -> None:
    if d < p.d_min:
        raise ValueError(
            f"relaxation order {d} is below the minimum admissible order "
            f"{p.d_min} for this problem"
        )


DataEntries = namedtuple("DataEntries", "row col blk pb qb coef")


@dataclass(frozen=True)
class DataMatrixSet:
    """Sparse data matrices of the order-d relaxation.

    ``entries`` holds every data entry as arrays (row, col, blk, pb, qb,
    coef): coefficient coef at position (pb, qb) of block blk in the matrix
    of key (exponents[row], exponents[col]) of the degree-d basis
    ``bases[0]``; both orientations of every key, ordered by (row, col,
    blk, pb, qb).  Block 0 carries the moment-matrix data (single unit
    entry per key); block i + 1 carries the localizing data of constraint
    i.  ``sources`` indexes each block into the CPOP constraint list, with
    -1 marking the moment block itself.
    """

    order: int
    bases: tuple[MonomialBasis, ...]
    sources: tuple[int, ...]
    entries: DataEntries = field(compare=False)

    @property
    def block_dims(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.bases)


def build_data_matrices(p: CPOP, d: int) -> DataMatrixSet:
    """Data matrices A^i of every block at order d.

    For a localizing polynomial g, position (beta', gamma') of block i
    receives g's coefficient at (beta'', gamma'') in the matrix for key
    (beta' + beta'', gamma' + gamma'').  Distinct terms reach distinct keys,
    so no position of one key's matrix is written twice.  Block i has
    degree d - d_i with d_i = max(|beta''|, |gamma''|) over g's terms, so
    every key stays in the degree-d index range.
    """
    _require_order(p, d)
    one = {((0,) * p.s, (0,) * p.s): 1.0 + 0j}
    blocks = [(-1, one, 0)] + [
        (src, g.terms, p.constraint_orders[src])
        for src, (g, _) in enumerate(p.constraints)
    ]
    bases = tuple(monomial_basis(p.s, d - di) for _, _, di in blocks)
    parts = []
    for blk, (_, terms, _) in enumerate(blocks):
        exps = bases[blk].exponents
        pb, qb = np.indices((len(exps), len(exps))).reshape(2, -1)
        for (b2, g2), c in terms.items():
            # the basis index of each exponent shifted by b2, then by g2
            at = np.array([[
                bases[0].index[tuple(x + y for x, y in zip(e, t))] for e in exps
            ] for t in (b2, g2)])
            parts.append((at[0][pb], at[1][qb], np.full(pb.size, blk), pb, qb,
                          np.full(pb.size, c)))
    cols = [np.concatenate(x) for x in zip(*parts)]
    order = np.lexsort(cols[4::-1])
    return DataMatrixSet(
        order=d,
        bases=bases,
        sources=tuple(src for src, _, _ in blocks),
        entries=DataEntries(*(x[order] for x in cols)),
    )


def moment_matrix(y, basis: MonomialBasis) -> HermitianMatrix:
    """Hermitian matrix of y over basis x basis; every key must be present."""
    keys = list(itertools.product(basis.exponents, repeat=2))
    for key in (k for k in keys if k not in y):
        raise KeyError(f"moment value missing for {key!r}")
    z = np.array([y[k] for k in keys], dtype=complex).reshape(len(basis), -1)
    return HermitianMatrix.from_complex(z)


def _upper(i, j, w):
    """Row-major index of (i, j), i <= j, in the upper triangle of w x w."""
    return i * (2 * w - i + 1) // 2 + j - i


def _key_classes(p: CPOP, data: DataMatrixSet) -> tuple[np.ndarray, ...]:
    """The canonical index of each data entry's key (pairs i <= j of the
    degree-d basis, row-major; -1 for i > j); the classes of the canonical
    keys that the binomial equalities identify, numbered in the order of
    their first key; which classes are off-diagonal; which constraints
    they absorb.

    A binomial equality c (z^mu conj(z)^mu - z^nu conj(z)^nu) = 0 has
    exactly two entries at each position (a, b) of its localizing block,
    on (a + mu, b + mu) and (a + nu, b + nu), and links those two keys.
    A shift by (mu, mu) keeps the graded order of a pair, so canonical
    positions (a <= b) link canonical keys and no class mixes diagonal and
    off-diagonal keys.
    """
    e, w = data.entries, len(data.bases[0])
    n = w * (w + 1) // 2
    i, j = e.row, e.col
    canon = np.where(i <= j, _upper(i, j, w), -1)
    absorbed = np.zeros(len(p.constraints), dtype=bool)
    for k, (g, kind) in enumerate(p.constraints):
        if kind == "eq" and len(g.terms) == 2:
            ((mu, m2), c1), ((nu, n2), c2) = g.terms.items()
            absorbed[k] = mu == m2 and nu == n2 and c1 + c2 == 0
    # the two entries of each canonical position of a binomial block
    at = np.r_[False, absorbed][e.blk] & (e.pb <= e.qb)
    ends = canon[at][np.lexsort((e.qb[at], e.pb[at], e.blk[at]))].reshape(-1, 2)
    links = sp.coo_matrix((np.ones(len(ends)), tuple(ends.T)), shape=(n, n))
    _, comp = connected_components(links, directed=False)
    first = np.full(n, n)
    np.minimum.at(first, comp, np.arange(n))
    reps, cls = np.unique(first[comp], return_inverse=True)
    i, j = np.triu_indices(w)
    return canon, cls, i[reps] != j[reps], absorbed


@dataclass(frozen=True, eq=False)
class _KeyRows(Mapping):
    """``row_index``: each canonical (key, part) to its class's data row.

    It stores T, the complex sparse matrix of canonical keys (pairs i <= j
    of ``basis``, row-major) by program rows: a key has 1 (diagonal) or 0.5
    on its class's real row, and -0.5i on the imaginary row of an
    off-diagonal class, so the canonical moments are T @ dual_row_values.
    A lookup reads a key's first entry (real row) or second (imaginary).
    Iteration yields every real (key, part) in key order, then every
    imaginary one.
    """

    T: sp.csr_matrix
    basis: MonomialBasis

    def canonical(self) -> list[MomentKey]:
        return list(itertools.combinations_with_replacement(self.basis.exponents, 2))

    def __len__(self) -> int:
        return self.T.nnz

    def __iter__(self):
        keys = self.canonical()
        yield from ((k, "re") for k in keys)
        im = np.diff(self.T.indptr) > 1
        yield from ((k, "im") for k, h in zip(keys, im) if h)

    def __getitem__(self, item: tuple[MomentKey, str]) -> int:
        (beta, gamma), part = item
        i, j = self.basis.index.get(beta), self.basis.index.get(gamma)
        if None not in (i, j) and i <= j and part in ("re", "im"):
            k = _upper(i, j, len(self.basis))
            at = self.T.indptr[k] + (part == "im")
            if at < self.T.indptr[k + 1]:
                return int(self.T.indices[at])
        raise KeyError(item)


@dataclass(frozen=True)
class RelaxationArtifact:
    """Assembled real SDP plus the bookkeeping to interpret its solution.

    ``row_index`` maps every canonical (key, part) to its data row as a
    read-only view of T (see ``_KeyRows``), which ``extract_moments`` and
    the ``.rows.json`` sidecar read.
    """

    order: int
    form: str
    blocks: tuple[tuple[int, int], ...]
    program: RealConicProgram
    row_index: _KeyRows = field(compare=False)


def assemble_hsos(p: CPOP, d: int, form: str) -> RelaxationArtifact:
    """Emit the order-d relaxation as a real conic program.

    Row layout: one real row per class of canonical keys (see
    ``_key_classes``), in the order of each class's first key, then one
    imaginary row per off-diagonal class, then (naive form only) the
    structural rows of each doubled PSD block.  A class row is the sum of
    the rows of its keys, rhs included; without binomial equalities every
    key is its own class.  ``row_index`` stores T, which places every
    canonical key on its class rows (see ``_KeyRows``).  The PSD blocks
    are the moment block and one per "ge" constraint, in constraint order;
    ``complex_sdp.embed_entries`` places their data entries.

    Free scalar 0 is the bound variable: it enters exactly once, in the
    real row of the constant key, and the objective is to maximize it.
    Each equality that is not binomial keeps a free multiplier
    H = P + iQ (w x w), in constraint order, as w(w+1)/2 scalars P[p, q]
    (p <= q) and then w(w-1)/2 scalars Q[p, q] (p < q), each triangle
    row-major, with Q[q, p] = -Q[p, q].  A data entry c at (p, q) of its
    block adds Re(c H[p, q]) = Re(c) P[p, q] - Im(c) Q[p, q] to its key's
    real row and Im(c H[p, q]) = Im(c) P[p, q] + Re(c) Q[p, q] to its
    imaginary row, in both forms.  A binomial equality's H[p, q] would
    enter a single class row, at c and -c, so it has no block and no
    scalars.
    """
    if form not in ("naive", "dualview"):
        raise ValueError(f"unknown form {form!r}")
    if not p.f.terms:
        raise ValueError("objective polynomial is empty")
    data = build_data_matrices(p, d)
    dims = np.array(data.block_dims)
    canon, cls, off, absorbed = _key_classes(p, data)
    n_re = len(off)
    n_data = n_re + int(off.sum())

    # data block -> PSD block index, or -> first free scalar of its H; the
    # blocks of absorbed equalities get neither (data.sources is -1, 0, 1..)
    is_eq = np.array([
        src >= 0 and p.constraints[src][1] == "eq" for src in data.sources
    ])
    gone = np.r_[False, absorbed]
    psd_of = np.cumsum(~is_eq) - 1
    sq = np.where(is_eq & ~gone, dims**2, 0)
    free_of = 1 + np.cumsum(sq) - sq
    psd_dims = dims[~is_eq].tolist()

    # the data entries of canonical keys, with the real and the imaginary
    # row of their key's class; diagonal classes have no imaginary row (-1).
    # Functional 0 is the objective, so row r is functional r + 1.
    re_fun = 1 + cls
    im_fun = np.where(off, n_re + np.cumsum(off), -1)[cls]
    e = data.entries
    kept = (canon >= 0) & ~gone[e.blk]
    blk, pb, qb, c, key = (x[kept] for x in (e.blk, e.pb, e.qb, e.coef, canon))
    re_row, im_row = re_fun[key], im_fun[key]

    psd = ~is_eq[blk]
    size = 2 * max(psd_dims)
    entries = key_entries(embed_entries(
        form, {"re": re_row[psd], "im": im_row[psd]}, n_data + 1, size,
        pb[psd], qb[psd], c.real[psd], c.imag[psd], dims[blk[psd]],
        psd_of[blk[psd]],
    ), size, *([_structural_rows(psd_dims)] if form == "naive" else []))
    n_fun = len(entries[0])

    # the equality entries, through Re(cH) = Re(c) P - Im(c) Q and
    # Im(cH) = Im(c) P + Re(c) Q, with Q[q, p] = -Q[p, q]
    eq = ~psd
    re_at, im_at, c = re_row[eq], im_row[eq], c[eq]
    w, base = dims[blk[eq]], free_of[blk[eq]]
    i, j = np.minimum(pb[eq], qb[eq]), np.maximum(pb[eq], qb[eq])
    real = base + _upper(i, j, w)
    imag = base + w * (w + 1) // 2 + i * (2 * w - i - 1) // 2 + (j - i - 1)
    sign = np.where(pb[eq] < qb[eq], 1.0, -1.0)
    o, h = i != j, im_at >= 0
    row, col, val = (np.concatenate(x) for x in zip(
        ([0], [0], [1.0]),  # the objective: maximize the bound variable
        ([1], [0], [1.0]),  # its one row, the constant key's class
        (re_at, real, c.real),
        (re_at[o], imag[o], sign[o] * -c.imag[o]),
        (im_at[h], real[h], c.imag[h]),
        (im_at[o & h], imag[o & h], (sign * c.real)[o & h]),
    ))
    free = sp.csr_matrix((val, (row, col)), shape=(n_fun, 1 + int(sq.sum())))
    free.eliminate_zeros()

    # T: each canonical key's entries on its class's rows (see _KeyRows)
    has_im = im_fun > 0
    T = sp.csr_matrix((
        np.r_[np.where(has_im, 0.5, 1.0), np.full(has_im.sum(), -0.5j)],
        (np.r_[np.arange(len(cls)), np.flatnonzero(has_im)],
         np.r_[re_fun, im_fun[has_im]] - 1),
    ), shape=(len(cls), n_fun - 1))

    # the rhs through T, each class summing its keys' in key order; f is
    # Hermitian, so its coefficients on canonical keys suffice
    index = data.bases[0].index
    i, j = np.array([[index[b], index[g]] for b, g in p.f.terms]).T
    f = np.zeros(len(cls), dtype=complex)
    f[_upper(i, j, len(index))[i <= j]] = np.array(list(p.f.terms.values()))[i <= j]
    rhs = (T.T @ (np.where(has_im, 2.0, 1.0) * f)).real

    program = RealConicProgram.from_arrays(
        tuple(2 * w for w in psd_dims), free.shape[1], entries, rhs,
        free=(np.diff(free.indptr), free.indices, free.data),
    )
    return RelaxationArtifact(
        order=d,
        form=form,
        blocks=tuple((src, 2 * w) for src, w, e in
                     zip(data.sources, data.block_dims, is_eq) if not e),
        program=program,
        row_index=_KeyRows(T, data.bases[0]),
    )


def size_report(p: CPOP, d: int) -> dict[str, int]:
    """The paper's program sizes at order d, from the basis sizes alone.

    ``n_sdp`` is the realified moment-block dimension 2*omega and
    ``m_dualview`` the omega^2 rows of the dual-view form, one per
    canonical (key, part).  ``m_naive`` counts the doubled form the way
    its bookkeeping is usually quoted: a real and an imaginary row for
    every canonical pair plus structural rows for one moment block and one
    localizing block per constraint, i.e. 2w(w+1) + sum_i w_i(w_i+1).
    The assembled programs are smaller: they quotient by the binomial
    equalities and give the other equalities free multipliers (see
    ``assemble_hsos``); ``program.n_rows`` is their row count.
    """
    _require_order(p, d)
    w = math.comb(p.s + d, d)
    wis = [
        math.comb(p.s + d - di, d - di) for di in p.constraint_orders
    ]
    return {
        "n_sdp": 2 * w,
        "m_dualview": w * w,
        "m_naive": 2 * w * w + 2 * w + sum(wi * (wi + 1) for wi in wis),
        "t": len(p.constraints),
    }


def extract_moments(
    art: RelaxationArtifact, res: SolveResult
) -> dict[MomentKey, complex]:
    """Moment sequence read off the dual row multipliers.

    The canonical moments are T @ dual_row_values (T is stored in
    ``art.row_index``): a diagonal key takes its real row's multiplier u,
    an off-diagonal one (u - i v) / 2 from its real and imaginary rows.
    They are conjugate-extended to every ordered key of the basis and
    normalized so the constant key carries exactly 1.
    """
    if res.status != "optimal":
        raise ValueError(
            f"moment extraction needs an optimal solve, got {res.status!r}"
        )
    y, basis = art.row_index.T @ res.dual_row_values, art.row_index.basis
    mass = y[0].real  # the constant key is canonical key 0
    if not mass > 1e-12:
        raise ValueError("constant moment is not positive")
    Y, at = np.empty((len(basis),) * 2, dtype=complex), np.triu_indices(len(basis))
    Y.T[at], Y[at] = y.conj(), y
    # real and imaginary parts divided apart, as a complex / float does
    vals = (Y.view(float) / mass).view(complex).ravel().tolist()
    return dict(zip(itertools.product(basis.exponents, repeat=2), vals))
