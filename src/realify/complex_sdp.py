"""Complex SDP data model and its real reformulations.

A complex SDP is

    maximize  <C, H>   subject to  <A_k, H> = b_k,  H Hermitian PSD,

where the pairing is the bilinear trace form <A, B> = trace(A^T B) taken
WITHOUT conjugation, so for A = A_R + i*A_I and H = H_R + i*H_I

    Re <A, H> = <A_R, H_R> - <A_I, H_I>
    Im <A, H> = <A_R, H_I> + <A_I, H_R>.

Two real forms are provided.  The classical one doubles H into

        Y = [ H_R  -H_I ]   (PSD iff H is),
            [ H_I   H_R ]

writes every data functional through the Y_11 and Y_21 blocks, and pins the
doubled structure with n*(n+1) extra equality rows.  The second ("dual view")
form optimizes over an unstructured PSD block

        X = [ X_1  X_3 ]
            [ X_3' X_2 ]

and reads the Hermitian candidate off as (X_1 + X_2) + (X_3 - X_3')i.  Its
functionals touch only X_1 + X_2 and X_3 - X_3', so no structural rows are
needed and both forms share one optimum; ``recover_complex_solution`` and
``embed_feasible`` move optimal points between the complex and real worlds.

Both forms, for the reformulations and the relaxation alike, rest on one
rule, the table _QUADRANTS: the Re or Im functional of a complex data
matrix A = A_R + i*A_I is the functional sum G[i,j] X[i,j] over the 2n x 2n
block, and each quadrant of G is +-A_R, +-A_I or empty.  ``embed_entries``
expands data entries through that table, folds every term onto the
canonical upper triangle (the diagonal keeps its coefficient, an
off-diagonal term gets 0.5) and sums duplicates in one sparse pass.  Each
canonical key receives at most two terms, from the entry at (p, q) and
its partner at (q, p), so the order of summation cannot change a bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .program import RealConicProgram

__all__ = [
    "ComplexMatrix",
    "HermitianMatrix",
    "ComplexVector",
    "ComplexSDP",
    "inner_product",
    "apply_constraints",
    "realify_psd",
    "structural_constraints",
    "reformulate_primal_naive",
    "reformulate_primal_dualview",
    "reformulate_dual",
    "recover_complex_solution",
    "embed_feasible",
]


def _as_square(a, name: str) -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be a square 2-D array, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class ComplexMatrix:
    """Complex square matrix stored as split real and imaginary parts."""

    re: np.ndarray
    im: np.ndarray

    def __post_init__(self) -> None:
        re = _as_square(self.re, "re")
        im = _as_square(self.im, "im")
        if re.shape != im.shape:
            raise ValueError("re and im must have identical shapes")
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    @property
    def n(self) -> int:
        return self.re.shape[0]

    def to_complex(self) -> np.ndarray:
        return self.re + 1j * self.im

    @classmethod
    def from_complex(cls, z) -> "ComplexMatrix":
        z = np.asarray(z, dtype=complex)
        return cls(z.real.copy(), z.imag.copy())


@dataclass(frozen=True)
class HermitianMatrix(ComplexMatrix):
    """Hermitian matrix: re exactly symmetric, im exactly antisymmetric."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if not np.array_equal(self.re, self.re.T):
            raise ValueError("re part must be exactly symmetric")
        if not np.array_equal(self.im, -self.im.T):
            raise ValueError("im part must be exactly antisymmetric")

    @classmethod
    def from_complex(cls, z, tol: float = 1e-12) -> "HermitianMatrix":
        """Build from a complex array, verifying Hermitian symmetry.

        Asymmetry up to ``tol`` (relative to the matrix scale) is folded
        away exactly; anything larger is an error.
        """
        z = np.asarray(z, dtype=complex)
        scale = max(1.0, float(np.abs(z).max()) if z.size else 1.0)
        if np.abs(z - z.conj().T).max() > tol * scale:
            raise ValueError("matrix is not Hermitian within tolerance")
        re = (z.real + z.real.T) / 2.0
        im = (z.imag - z.imag.T) / 2.0
        return cls(re, im)


@dataclass(frozen=True)
class ComplexVector:
    """Complex vector stored as split real and imaginary parts."""

    re: np.ndarray
    im: np.ndarray

    def __post_init__(self) -> None:
        re = np.asarray(self.re, dtype=float)
        im = np.asarray(self.im, dtype=float)
        if re.ndim != 1 or im.shape != re.shape:
            raise ValueError("re and im must be 1-D arrays of equal length")
        if not (np.isfinite(re).all() and np.isfinite(im).all()):
            raise ValueError("vector contains non-finite entries")
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    @property
    def m(self) -> int:
        return self.re.shape[0]

    def to_complex(self) -> np.ndarray:
        return self.re + 1j * self.im


@dataclass(frozen=True)
class ComplexSDP:
    """maximize <C,H> s.t. <A_k,H> = b_k, H Hermitian PSD.

    C is Hermitian so the objective is real on Hermitian H; the constraint
    matrices A_k may be arbitrary complex matrices.
    """

    C: HermitianMatrix
    A: tuple[ComplexMatrix, ...]
    b: ComplexVector

    def __post_init__(self) -> None:
        object.__setattr__(self, "A", tuple(self.A))
        n = self.C.n
        for k, mat in enumerate(self.A):
            if mat.n != n:
                raise ValueError(f"A[{k}] has size {mat.n}, expected {n}")
        if self.b.m != len(self.A):
            raise ValueError(
                f"b has length {self.b.m}, expected {len(self.A)}"
            )

    @property
    def n(self) -> int:
        return self.C.n

    @property
    def m(self) -> int:
        return len(self.A)


def inner_product(a: ComplexMatrix, h: ComplexMatrix) -> complex:
    """Bilinear trace pairing trace(a^T h), computed on split parts."""
    if a.n != h.n:
        raise ValueError("size mismatch")
    re = float(np.tensordot(a.re, h.re)) - float(np.tensordot(a.im, h.im))
    im = float(np.tensordot(a.re, h.im)) + float(np.tensordot(a.im, h.re))
    return complex(re, im)


def apply_constraints(sdp: ComplexSDP, h: ComplexMatrix) -> ComplexVector:
    """Evaluate all constraint functionals <A_k, h>."""
    vals = [inner_product(a, h) for a in sdp.A]
    return ComplexVector(
        np.array([v.real for v in vals]), np.array([v.imag for v in vals])
    )


def realify_psd(h: HermitianMatrix) -> np.ndarray:
    """Doubled real embedding [[re, -im], [im, re]]; PSD iff h is PSD.

    Each eigenvalue of h appears twice in the result.
    """
    return np.block([[h.re, -h.im], [h.im, h.re]])


def structural_constraints(n: int):
    """Equality rows pinning a 2n x 2n symmetric Y to the doubled shape.

    For every pair i <= j two rows are produced: Y[i,j] = Y[i+n,j+n] (the two
    diagonal blocks agree) and Y[i,j+n] + Y[j,i+n] = 0 (the off-diagonal
    block is antisymmetric).  Returns n*(n+1) rows, each a tuple of
    (i, j, coefficient) canonical entries with implied rhs 0; a coefficient c
    on i < j stands for c * (Y[i,j] + Y[j,i]).
    """
    if n < 1:
        raise ValueError("n must be positive")
    counts, _, i, j, c = _structural_rows(n)
    flat = list(zip(i.tolist(), j.tolist(), c.tolist()))
    at = np.r_[0, np.cumsum(counts)].tolist()
    return [tuple(flat[s:e]) for s, e in zip(at, at[1:])]


def _structural_rows(n: int, blk: int = 0):
    """structural_constraints(n) over block ``blk``: (counts, blk, i, j, coef),
    row r taking the next counts[r] entries.  Pair (i, j) has c = 1 on the
    diagonal, where the second row keeps only (i, n+i, 1), and 0.5 off it."""
    iu, ju = np.triu_indices(n)
    c = np.where(iu == ju, 1.0, 0.5)
    i, j, coef = (np.stack(x, axis=1) for x in (
        (iu, n + iu, iu, ju), (ju, n + ju, n + ju, n + iu), (c, -c, c, c)
    ))
    used = np.ones(i.shape, dtype=bool)
    used[:, 3] = iu != ju
    return (
        used.reshape(-1, 2).sum(axis=1), np.full(int(used.sum()), blk),
        i[used], j[used], coef[used],
    )


def key_entries(g, size: int, *more):
    """(counts, blk, i, j, coef) of the rows of a sparse matrix over the key
    columns (blk * size + i) * size + j, each in key order, then of ``more``."""
    g = g.tocsr()
    bi, j = np.divmod(g.indices, size)
    b, i = np.divmod(bi, size)
    return tuple(map(np.concatenate, zip((np.diff(g.indptr), b, i, j, g.data), *more)))


# Quadrants (top-left, top-right, bottom-left, bottom-right) of the 2n x 2n
# coefficient matrix G of Re<A, .> or Im<A, .> in each form: "R" is A_R,
# "I" is A_I, "" is empty.  The naive functionals read Y_11 and Y_21 only.
_QUADRANTS = {
    ("dualview", "re"): ("R", "-I", "I", "R"),
    ("dualview", "im"): ("I", "R", "-R", "I"),
    ("naive", "re"): ("R", "", "-I", ""),
    ("naive", "im"): ("I", "", "R", ""),
}


def embed_entries(form, rows, n_rows, size, p, q, re, im, n, blk=0):
    """Real functionals of complex data entries, summed into one CSC.

    Entry e is c = re[e] + i*im[e] at position (p[e], q[e]) of an n x n
    complex matrix acting on the 2n x 2n PSD block ``blk`` (``n`` and
    ``blk`` are scalars or per-entry arrays).  For each part, "re" or "im",
    in ``rows``, the entry adds that part of <A, .> to functional
    ``rows[part][e]``, or to none when the index is negative.  The result
    has one row per functional and one column per key (blk, i, j),
    i <= j < size, at (blk * size + i) * size + j; ``size`` is at least
    the largest 2n.  Duplicates are summed per key column, where they are
    fewer than per functional row.
    """
    shape = (n_rows, (int(np.max(blk, initial=0)) + 1) * size * size)
    # 32-bit indices whenever every key fits: half the memory to move
    idx = np.int32 if shape[1] <= np.iinfo(np.int32).max else np.int64
    ents = np.broadcast_arrays(p, q, n, blk, re, im)
    terms = []
    for part, at in rows.items():
        e = at >= 0
        fun, p, q, n, blk = (x[e].astype(idx) for x in (at, *ents[:4]))
        re, im = ents[4][e], ents[5][e]
        for (di, dj), quad in zip(
            ((0, 0), (0, 1), (1, 0), (1, 1)), _QUADRANTS[form, part]
        ):
            if quad:
                i, j = p + di * n, q + dj * n
                lo, hi = np.minimum(i, j), np.maximum(i, j)
                v = (re if quad[-1] == "R" else im) * (
                    -1.0 if quad[0] == "-" else 1.0
                )
                terms.append((
                    fun,
                    (blk * size + lo) * size + hi,
                    np.where(lo == hi, v, 0.5 * v),
                ))
    # exact zeros, given or summed, go in eliminate_zeros
    fun, key, coef = (np.concatenate(x) for x in zip(*terms))
    out = sp.csc_matrix((coef, (fun, key)), shape=shape)
    out.eliminate_zeros()
    return out


def _stacked(sdp: ComplexSDP, mats):
    """Entry arrays (k, p, q, re, im) of every n x n matrix k in mats."""
    n = sdp.n
    k = np.repeat(np.arange(len(mats)), n * n)
    p, q = (np.tile(x.ravel(), len(mats)) for x in np.indices((n, n)))
    re = np.array([a.re for a in mats], dtype=float).ravel()
    im = np.array([a.im for a in mats], dtype=float).ravel()
    return k, p, q, re, im


def _primal(sdp: ComplexSDP, form: str) -> RealConicProgram:
    """Real-part then imaginary-part row per constraint, then (naive form
    only) the structural rows."""
    m, dim = sdp.m, 2 * sdp.n
    # functional 0 is the objective Re<C, .>, 2k+1 Re<A_k, .>, 2k+2 Im<A_k, .>
    k, p, q, re, im = _stacked(sdp, (sdp.C,) + sdp.A)
    rows = {"re": np.where(k, 2 * k - 1, 0), "im": np.where(k, 2 * k, -1)}
    extra = [_structural_rows(sdp.n)] if form == "naive" else []
    entries = key_entries(
        embed_entries(form, rows, 2 * m + 1, dim, p, q, re, im, sdp.n), dim, *extra
    )
    rhs = np.zeros(len(entries[0]) - 1)
    rhs[: 2 * m] = np.column_stack([sdp.b.re, sdp.b.im]).ravel()
    return RealConicProgram.from_arrays((dim,), 0, entries, rhs)


def reformulate_primal_naive(sdp: ComplexSDP) -> RealConicProgram:
    """Doubled-embedding real form: one 2n block plus structural rows.

    Emits, per complex constraint k, its real-part row then its imaginary
    part row (rhs Re b_k and Im b_k), followed by the n*(n+1) structural
    rows.  The objective uses the same Y_11/Y_21 functional shape.
    """
    return _primal(sdp, "naive")


def reformulate_primal_dualview(sdp: ComplexSDP) -> RealConicProgram:
    """Structure-free real form over one unstructured 2n PSD block.

    All functionals read only X_1 + X_2 and X_3 - X_3', so the 2m data rows
    are the whole constraint set; no structural rows exist.
    """
    return _primal(sdp, "dualview")


def reformulate_dual(sdp: ComplexSDP) -> RealConicProgram:
    """Real form of the dual program min Re(b^T y) over y with slack PSD.

    Free scalars hold Re(y) (indices 0..m-1) and Im(y) (indices m..2m-1); a
    single 2n x 2n PSD slack block Z is pinned, entry by entry for p <= q,
    to the doubled matrix of sum_k y_k A_k - C.  The PSD requirement on
    that affine expression is the quadratic-form one, so Z matches its
    symmetric part; when the A_k are not Hermitian this leaves the skew
    part unconstrained, which is exactly what Lagrangian duality against
    Hermitian-matrix variables asks for.  Each row pins one slack entry,
    so the program is in LMI form, and ``solve`` runs it through its
    standard-form dual: one row per free scalar and no free scalars.
    """
    n, m = sdp.n, sdp.m
    dim = 2 * n
    iu, ju = np.triu_indices(dim)

    # The doubled matrix of sum_k y_k A_k is sum_k Re(y_k) L_k + Im(y_k) L'_k,
    # L_k the dual-view Re matrix of A_k and L'_k minus its Im matrix; the
    # row of key (p, q) takes minus the folded coefficient of each.
    k, p, q, re, im = _stacked(sdp, sdp.A)
    g = embed_entries(
        "dualview", {"re": k, "im": m + k}, 2 * m, dim, p, q, re, im, n
    )
    g.data *= np.where(g.indices < m, -1.0, 1.0)
    lin = g.T[iu * dim + ju]
    cst = -realify_psd(sdp.C)

    # row (p, q) holds X[p, q] itself and the free part of key (p, q); the
    # objective is Re(b).Re(y) - Im(b).Im(y), exact zeros dropped
    obj = np.concatenate([sdp.b.re, -sdp.b.im])
    has = np.flatnonzero(obj != 0.0)
    return RealConicProgram.from_arrays(
        (dim,), 2 * m,
        (np.r_[0, np.ones(iu.size, dtype=int)], np.zeros(iu.size, dtype=int),
         iu, ju, np.where(iu == ju, 1.0, 0.5)),
        0.5 * (cst[iu, ju] + cst[ju, iu]),
        free=(np.r_[has.size, np.diff(lin.indptr)],
              np.r_[has, lin.indices], np.r_[obj[has], lin.data]),
        sense="minimize",
    )


def recover_complex_solution(x: np.ndarray) -> HermitianMatrix:
    """Read the Hermitian candidate (X1+X2) + (X3-X3')i off a 2n x 2n X."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError("input must be a square matrix")
    if x.shape[0] % 2 != 0:
        raise ValueError("input dimension must be even")
    if not np.array_equal(x, x.T):
        raise ValueError("input must be exactly symmetric")
    n = x.shape[0] // 2
    x1 = x[:n, :n]
    x2 = x[n:, n:]
    x3 = x[:n, n:]
    return HermitianMatrix(x1 + x2, x3 - x3.T)


def embed_feasible(h: HermitianMatrix) -> np.ndarray:
    """Symmetric PSD preimage [[re/2, im/2], [-im/2, re/2]] of a Hermitian h.

    recover_complex_solution(embed_feasible(h)) reproduces h exactly, and
    the embedding preserves every dual-view functional value.
    """
    re2 = h.re / 2.0
    im2 = h.im / 2.0
    return np.block([[re2, im2], [-im2, re2]])
