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

The reformulations build rows as array operations, one constraint at a
time: the data functional of A_k becomes a full 2n x 2n coefficient matrix
G (value sum G[i,j] X[i,j]) assembled from A_R and A_I by block placement,
and G folds onto the canonical upper triangle, G[i,i] on the diagonal and
0.5*G[i,j] + 0.5*G[j,i] above it.  Each canonical key receives at most two
terms, so the rows equal, to the bit, what the entry-level ``add_*``
builders accumulate; those builders remain for the relaxation layer, which
places data entries one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .program import (
    LinearFunctional,
    RealConicProgram,
    Row,
    accumulate_entries,
    accumulate_free,
)

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
    rows = []
    for i in range(n):
        for j in range(i, n):
            if i == j:
                rows.append(((i, i, 1.0), (n + i, n + i, -1.0)))
                rows.append(((i, n + i, 1.0),))
            else:
                rows.append(((i, j, 0.5), (n + i, n + j, -0.5)))
                rows.append(((i, n + j, 0.5), (j, n + i, 0.5)))
    return rows


# Entry-level functional builders.  Each adds, into an accumulator dict
# keyed by (block, i, j) with i <= j, the canonical coefficients of one
# complex data entry c = cre + i*cim placed at position (p, q) of an
# n x n complex data matrix acting on a 2n x 2n real block.


def _add(acc, blk: int, i: int, j: int, c: float) -> None:
    # coefficient c on the single matrix entry X[i, j]
    if c == 0.0:
        return
    if i > j:
        i, j = j, i
    key = (blk, i, j)
    acc[key] = acc.get(key, 0.0) + (c if i == j else 0.5 * c)


def add_dualview_real(acc, blk, n, p, q, cre, cim) -> None:
    """Re-part functional: <A_R, X1+X2> - <A_I, X3-X3'>."""
    _add(acc, blk, p, q, cre)
    _add(acc, blk, n + p, n + q, cre)
    _add(acc, blk, p, n + q, -cim)
    _add(acc, blk, q, n + p, cim)


def add_dualview_imag(acc, blk, n, p, q, cre, cim) -> None:
    """Im-part functional: <A_R, X3-X3'> + <A_I, X1+X2>."""
    _add(acc, blk, p, n + q, cre)
    _add(acc, blk, q, n + p, -cre)
    _add(acc, blk, p, q, cim)
    _add(acc, blk, n + p, n + q, cim)


def add_naive_real(acc, blk, n, p, q, cre, cim) -> None:
    """Re-part functional through the doubled blocks: <A_R,Y11> - <A_I,Y21>."""
    _add(acc, blk, p, q, cre)
    _add(acc, blk, n + p, q, -cim)


def add_naive_imag(acc, blk, n, p, q, cre, cim) -> None:
    """Im-part functional through the doubled blocks: <A_R,Y21> + <A_I,Y11>."""
    _add(acc, blk, n + p, q, cre)
    _add(acc, blk, p, q, cim)


def _dualview_matrices(a: ComplexMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient matrices G (functional sum G[i,j] X[i,j]) of the
    dual-view Re and Im functionals of a; see add_dualview_real/imag."""
    r, i = a.re, a.im
    return np.block([[r, -i], [i, r]]), np.block([[i, r], [-r, i]])


def _naive_matrices(a: ComplexMatrix) -> tuple[np.ndarray, np.ndarray]:
    """As _dualview_matrices for the naive functionals (add_naive_real/imag)."""
    r, i = a.re, a.im
    z = np.zeros_like(r)
    return np.block([[r, z], [-i, z]]), np.block([[i, z], [r, z]])


def _fold(g: np.ndarray) -> tuple:
    """Canonical block-0 entries of the functional sum G[i,j] X[i,j].

    The diagonal keeps G[i,i]; the pair (i,j), (j,i) above it becomes
    0.5*G[i,j] + 0.5*G[j,i]; zeros are dropped; keys come in row-major
    upper-triangle order, the order accumulate_entries sorts them into.
    """
    iu, ju = np.triu_indices(len(g))
    c = 0.5 * g[iu, ju] + 0.5 * g[ju, iu]
    c[iu == ju] = np.diagonal(g)
    nz = np.flatnonzero(c)
    return tuple(zip(
        [0] * nz.size, iu[nz].tolist(), ju[nz].tolist(), c[nz].tolist()
    ))


def _primal(sdp: ComplexSDP, matrices, extra_rows=()) -> RealConicProgram:
    """Real-part then imaginary-part row per constraint, then extra_rows."""
    rows = []
    for k, a in enumerate(sdp.A):
        g_re, g_im = matrices(a)
        rows.append(Row(entries=_fold(g_re), rhs=float(sdp.b.re[k])))
        rows.append(Row(entries=_fold(g_im), rhs=float(sdp.b.im[k])))
    rows.extend(extra_rows)
    return RealConicProgram(
        psd_blocks=(2 * sdp.n,),
        n_free=0,
        rows=tuple(rows),
        objective=LinearFunctional(entries=_fold(matrices(sdp.C)[0])),
        sense="maximize",
    )


def reformulate_primal_naive(sdp: ComplexSDP) -> RealConicProgram:
    """Doubled-embedding real form: one 2n block plus structural rows.

    Emits, per complex constraint k, its real-part row then its imaginary
    part row (rhs Re b_k and Im b_k), followed by the n*(n+1) structural
    rows.  The objective uses the same Y_11/Y_21 functional shape.
    """
    return _primal(sdp, _naive_matrices, (
        Row(entries=accumulate_entries((0, i, j, c) for i, j, c in coeffs))
        for coeffs in structural_constraints(sdp.n)
    ))


def reformulate_primal_dualview(sdp: ComplexSDP) -> RealConicProgram:
    """Structure-free real form over one unstructured 2n PSD block.

    All functionals read only X_1 + X_2 and X_3 - X_3', so the 2m data rows
    are the whole constraint set; no structural rows exist.
    """
    return _primal(sdp, _dualview_matrices)


def reformulate_dual(sdp: ComplexSDP) -> RealConicProgram:
    """Real form of the dual program min Re(b^T y) over y with slack PSD.

    Free scalars hold Re(y) (indices 0..m-1) and Im(y) (indices m..2m-1); a
    single 2n x 2n PSD slack block Z is pinned, entry by entry for p <= q,
    to the doubled matrix of sum_k y_k A_k - C.  The PSD requirement on
    that affine expression is the quadratic-form one, so Z matches its
    symmetric part; when the A_k are not Hermitian this leaves the skew
    part unconstrained, which is exactly what Lagrangian duality against
    Hermitian-matrix variables asks for.
    """
    n, m = sdp.n, sdp.m
    dim = 2 * n
    iu, ju = np.triu_indices(dim)

    # The doubled matrix of sum_k y_k A_k is sum_k Re(y_k) L_k + Im(y_k) L'_k
    # with L_k = [[A_R, -A_I], [A_I, A_R]] and L'_k = -[[A_I, A_R],
    # [-A_R, A_I]]; the row of key (p, q) takes -0.5 L[p,q] - 0.5 L[q,p]
    # for every such L.  cst is the doubled matrix of -C.
    lin = np.empty((iu.size, 2 * m))
    for k, a in enumerate(sdp.A):
        g_re, g_im = _dualview_matrices(a)
        for col, mat in ((k, g_re), (m + k, -g_im)):
            lin[:, col] = -0.5 * mat[iu, ju] - 0.5 * mat[ju, iu]
    cst = np.zeros((dim, dim))
    cst[:n, :n] -= sdp.C.re
    cst[n:, n:] -= sdp.C.re
    cst[:n, n:] += sdp.C.im
    cst[n:, :n] -= sdp.C.im

    at, ks = np.nonzero(lin)
    pairs = list(zip(ks.tolist(), lin[at, ks].tolist()))
    ends = np.cumsum(np.count_nonzero(lin, axis=1)).tolist()
    rhs = (0.5 * (cst[iu, ju] + cst[ju, iu])).tolist()
    rows = []
    start = 0
    for p, q, end, r in zip(iu.tolist(), ju.tolist(), ends, rhs):
        rows.append(Row(
            entries=((0, p, q, 1.0 if p == q else 0.5),),
            free=tuple(pairs[start:end]),
            rhs=r,
        ))
        start = end

    return RealConicProgram(
        psd_blocks=(dim,),
        n_free=2 * m,
        rows=tuple(rows),
        objective=LinearFunctional(
            free=accumulate_free(
                [(k, float(sdp.b.re[k])) for k in range(m)]
                + [(m + k, -float(sdp.b.im[k])) for k in range(m)]
            )
        ),
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
