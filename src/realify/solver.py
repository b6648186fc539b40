"""Primal-dual interior-point solver for the sparse block carrier.

Solves programs of the form

    optimize  sum_b <C_b, X_b> + cf.f
    s.t.      sum_b <A_kb, X_b> + F[k,:].f = b_k   (k = 1..m)
              X_b PSD,  f free,

using an infeasible-start path-following method: a predictor-corrector
iteration on the symmetrized complementarity X S = mu I with the dual-scaled
search direction and a dense Schur complement M for the row multipliers.
Presolve is its own step ahead of the iteration's workspace: it drops empty
and dependent rows, then solves each free scalar out of one pivot row, so
the iteration carries PSD blocks and rows only.  The rows are held once, as
each block's sparse slice over vec(X_b), which the operator, its adjoint and
the Schur assembly all read.  Only M's upper triangle is assembled and read,
by a Cholesky of a copy, or where M is singular to working precision (the
naive form's degenerate optimal face) by a pivoted Cholesky cut at the rank
it reveals, the solve putting zero on the rows it drops; each solve is
refined twice against M, for the accuracy lost to M's conditioning.  Each
iterate is factored once: one Cholesky of each X_b and S_b serves S_b^-1 and
both step lengths; one breakdown exit catches every linear-algebra failure.
Everything is deterministic: identical inputs and options reproduce
identical iterates on a given platform.

Designed for desk-scale problems (blocks up to a few hundred, rows in the low
tens of thousands).  The Schur matrix is held dense but assembled by row
sparsity, a row with more than n stored entries in an n x n block by BLAS
products, any other by outer products of its entries (Fujisawa, Kojima and
Nakata, Math. Prog. 79, 1997), in tiles whose temporaries fit a core's L2.

A program whose rows pin every block entry once, a linear matrix inequality
in its free scalars such as ``reformulate_dual`` builds, is solved through
its standard-form dual, which has one row per free scalar and none free
(Kobayashi, Nakata and Kojima, Comput. Optim. Appl. 36, 2007).

A solve runs its BLAS and LAPACK calls on one thread: numpy and scipy each
bundle an OpenBLAS with its own thread pool, every iteration alternates
between the two, and each pool's idle workers spin against the other's
(about half of every solve on two cores).  Each OpenBLAS mapped into the
process, as /proc/self/maps lists it, is set to one thread and restored.
"""

from __future__ import annotations

import ctypes
import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .program import RealConicProgram, SolveResult, _values

__all__ = ["SolverOptions", "solve"]

_TINY = 1e-13
# Element cap on every temporary of a row Gram or Schur tile, the m x tile
# products included: 2 MB of float64, a core's L2, so a tile works in cache.
_CHUNK = 262_144


def _openblas() -> list:
    """Each OpenBLAS mapped into the process that has the thread setter."""
    try:
        with open("/proc/self/maps") as fh:
            maps = [ln.split(None, 5) for ln in fh if "openblas" in ln]
    except OSError:
        return []
    libs = []
    for path in sorted({fields[-1].strip() for fields in maps}):
        try:
            libs.append(ctypes.CDLL(path))
        except OSError:
            pass
    return [lib for lib in libs if hasattr(lib, "openblas_set_num_threads_local")]


_OPENBLAS = _openblas()
# The setter is process-wide in the wheels' pthreads builds, so concurrent
# solves share one save: the first in saves each count, the last out restores.
_blas_lock, _blas_users, _blas_saved = threading.Lock(), 0, []


@contextmanager
def _one_blas_thread():
    global _blas_users, _blas_saved
    with _blas_lock:
        if _blas_users == 0:
            _blas_saved = [lib.openblas_set_num_threads_local(1) for lib in _OPENBLAS]
        _blas_users += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_users -= 1
            if _blas_users == 0:
                for lib, n in zip(_OPENBLAS, _blas_saved):
                    lib.openblas_set_num_threads_local(n)


@dataclass(frozen=True)
class SolverOptions:
    """Termination tolerances and the iteration cap.

    tol_gap, tol_primal, tol_dual : normalized residual targets.  Realified
        programs carry structural rows that leave the optimal face
        degenerate; 1e-7 is a more realistic target for those than the
        defaults here.
    max_iter : iteration cap; exceeding it returns the best iterate.
    """

    tol_gap: float = 1e-8
    tol_primal: float = 1e-8
    tol_dual: float = 1e-8
    max_iter: int = 200

    def __post_init__(self) -> None:
        # a bool is an int to Python: True would be a tolerance or a cap of 1
        for name in ("tol_gap", "tol_primal", "tol_dual"):
            tol = getattr(self, name)
            if isinstance(tol, (bool, np.bool_)) or not 0 < tol < np.inf:  # NaN fails
                raise ValueError(f"{name} must be positive and finite")
        it = self.max_iter
        if isinstance(it, bool) or not isinstance(it, (int, np.integer)) or it < 1:
            raise ValueError("max_iter must be an integer of at least 1")


def _presolve(prog: RealConicProgram):
    """Reduce ``prog`` to PSD blocks and independent rows.

    Returns ((A, b, c, row_norms, const), infeasible, report, back).  ``A``
    holds the kept rows as one CSR over the stacked columns vec(X_0), ...,
    vec(X_{B-1}), block entry (b, i, j) at off[b] + i n_b + j and its mirror
    (j, i) off the diagonal; ``c`` is the objective, negated for maximize.

    One pass per variable kind, each a pivoted Cholesky of a Gram scaled to
    unit diagonal.  The row pass runs first and drops rows that are zero or
    combinations of earlier ones, which would make the Schur system
    singular; after the free pass, a row could lose its block entries to
    exact cancellation and keep a rounding residue in its rhs.  The free
    pass drops free scalars whose columns are zero or combinations of
    earlier ones (a moment relaxation's equality multipliers carry
    syzygies, g_j H_i = g_i H_j) and solves each kept one out of a pivot
    row, picked by LU with partial pivoting of the kept columns F
    (Kobayashi, Nakata and Kojima, Comput. Optim. Appl. 36, 2007).  With
    T = F_R F_P^-1 the other rows R become (A_R - T A_P) x = b_R - T b_P,
    and with g = F_P^-T cf the objective is <c - A_P' g, x> + g.b_P.  A
    dropped column is F W, priced at W'cf = F_PD' g; a dropped scalar whose
    price misses that, to 1e-9 relative, makes the stated sense unbounded,
    as an empty row with a nonzero rhs makes the program infeasible.  The
    row Gram is A A' to the bit, its dense rows met by sparse x dense products.

    ``back(Xs, y)`` gives f = F_P^-1 (b_P - A_P x), zero where dropped, and
    each row's multiplier: y on R, g - T'y on the pivot rows, zero on
    dropped rows, which the final residuals re-check.
    """
    sizes = np.array(prog.psd_blocks, dtype=np.intp)
    sign = -1.0 if prog.sense == "maximize" else 1.0
    off = np.r_[0, np.cumsum(sizes * sizes)]

    # Functional 0 is the objective (c and cf), functional k + 1 is row k;
    # the free scalars' columns follow the blocks'.
    a = prog.functionals
    at = np.arange(len(a.indptr) - 1)
    fun, mirror = np.repeat(at, np.diff(a.indptr)), a.i != a.j

    def col(i, j):
        return off[a.blk] + i * sizes[a.blk] + j

    A = sp.csr_matrix((
        np.r_[a.coef, a.coef[mirror], a.free_coef],
        (np.r_[fun, fun[mirror], np.repeat(at, np.diff(a.free_indptr))],
         np.r_[col(a.i, a.j), col(a.j, a.i)[mirror], off[-1] + a.free_idx]),
    ), shape=(at.size, off[-1] + prog.n_free))
    c = sign * A[0].toarray().ravel()
    A = A[1:]

    # The row Gram's diagonal holds the squared row norms; a zero marks an
    # empty row, which with a nonzero rhs certifies infeasibility.  Rows with
    # more stored entries than sum n_b leave A_s for sparse x dense products
    # per _CHUNK elements, which sum over ascending column index as A A' does.
    nnz, n = np.diff(A.indptr), sizes.sum()
    keep = np.repeat(nnz <= n, nnz)
    A_s = sp.csr_matrix(
        (A.data[keep], A.indices[keep], np.r_[0, np.cumsum(nnz * (nnz <= n))]), A.shape)
    G = (A_s @ A_s.T).toarray(order="F")
    dense, chunk = np.flatnonzero(nnz > n), max(1, _CHUNK // max(1, *A.shape))
    for rows in np.split(dense, np.arange(chunk, dense.size, chunk)):
        G[:, rows] = A @ A[rows].toarray().T
        G[rows] = G[:, rows].T
    norms = np.sqrt(np.diag(G))
    active = _independent(G)
    del G, A_s
    dropped = np.delete(np.arange(prog.n_rows), active)
    empty = dropped[norms[dropped] == 0.0]
    infeasible = bool(np.any(np.abs(prog.rhs[empty]) > _TINY))
    A = A[active]

    F, cf = A[:, off[-1]:].toarray(), c[off[-1]:]
    free_idx = _independent(F.T @ F)
    tol_cf = 1e-9 * (1.0 + float(np.abs(cf).max(initial=0.0)))
    F_D, cf_D = np.delete(F, free_idx, axis=1), np.delete(cf, free_idx)
    F, cf = F[:, free_idx], cf[free_idx]
    k = cf.size
    # F = L[p] U: row r of F is pivot p[r] when p[r] < k; an m x 0 F gives
    # an empty p
    p, L, U = sla.lu(F, p_indices=True)
    p = p if p.size else np.arange(active.size)
    piv, rest = np.argsort(p)[:k], np.flatnonzero(p >= k)
    # F_P = L[:k] U, in lu_factor's layout with no further row swaps
    lu = np.tril(L[:k], -1) + U, np.arange(k)
    T = sp.csr_matrix(sla.lu_solve(lu, F[rest].T, trans=1).T)
    g = sla.lu_solve(lu, cf, trans=1)
    infeasible |= float(np.abs(cf_D - F_D[piv].T @ g).max(initial=0.0)) > tol_cf

    A, pivots, rows = A[:, :off[-1]], active[piv], active[rest]
    A_P, b_P = A[piv], prog.rhs[pivots]
    A = A[rest] - T @ A_P
    A.sum_duplicates()  # sorted indices, as the one-call build has
    b = prog.rhs[rows] - T @ b_P
    c = c[:off[-1]] - A_P.T @ g
    report = dict(
        dropped_empty=empty.tolist(),
        dropped_dependent=np.setdiff1d(dropped, empty).tolist(),
        dropped_free=np.delete(np.arange(prog.n_free), free_idx).tolist(), dualized=[],
    )

    def back(Xs, y):
        f = np.zeros(prog.n_free)
        f[free_idx] = sla.lu_solve(lu, b_P - A_P @ _vec(Xs))
        dual = np.zeros(prog.n_rows)
        if y is not None:
            dual[rows] = sign * y
            dual[pivots] = sign * (g - T.T @ y)
        return f, dual

    return (A, b, c, norms[rows], float(g @ b_P)), infeasible, report, back


class _Workspace:
    """What an iteration reads: ``_presolve``'s objective and reduced rows,
    held once, as each block's column slice of the rows, split by stored
    entries into the dense and sparse rows of the Schur assembly."""

    def __init__(self, sizes, A, b, c, row_norms, const):
        self.sizes, self.b, self.m = list(sizes), b, A.shape[0]
        self.row_norms, self.const = row_norms, const
        off = np.r_[0, np.cumsum(np.array(self.sizes, dtype=np.intp) ** 2)]
        self.C = [c[o:o + n * n].reshape(n, n) for o, n in zip(off, self.sizes)]

        # Rows with more than n stored entries are dense (densified per
        # chunk); the others keep left-aligned, zero-padded entry lists.
        self.blocks = []
        for o, n in zip(off, self.sizes):
            Ab = A[:, o:o + n * n]
            nnz = np.diff(Ab.indptr)
            dense = np.flatnonzero(nnz > n)
            sparse = np.flatnonzero((nnz > 0) & (nnz <= n))
            Rs = Ab[sparse]
            row = np.repeat(np.arange(sparse.size), np.diff(Rs.indptr))
            slot = row, np.arange(Rs.nnz) - Rs.indptr[row]
            pos = np.zeros((sparse.size, int(nnz[sparse].max(initial=0))), dtype=int)
            coef = np.zeros(pos.shape)
            pos[slot], coef[slot] = Rs.indices, Rs.data
            self.blocks.append((Ab, dense, sparse, pos // n, pos % n, coef))

        self.N = sum(self.sizes) if self.sizes else 1
        self.C_norm = max((float(np.linalg.norm(Cb)) for Cb in self.C), default=0.0)

    def apply(self, Xs):
        parts = (Ab @ X.ravel() for (Ab, *_), X in zip(self.blocks, Xs))
        return sum(parts, np.zeros(self.m))

    def apply_adjoint(self, y):
        """A*(y) per block."""
        blocks = zip(self.blocks, self.sizes)
        return [(Ab.T @ y).reshape(n, n) for (Ab, *_), n in blocks]

    def schur(self, Xs, Sinvs):
        """The upper triangle of M[k, l] = sum_b <A_kb, X_b A_lb S_b^-1>.

        W_l = X A_l S^-1 takes two GEMMs for a dense row and the outer
        products sum_e c_e X[:, p_e] S^-1[q_e, :] for a sparse one; it needs
        no symmetrizing, since every A_k is symmetric.  Each block's rows
        are read from its slice of the operator.  Column chunks meet rows
        up to their end only; below the diagonal lie unread partial sums.
        """
        M = np.zeros((self.m, self.m))
        for b, n in enumerate(self.sizes):
            Ab, dense, sparse, p, q, coef = self.blocks[b]
            X, Sinv, Rs = Xs[b], Sinvs[b], Ab[sparse]
            chunk = max(1, _CHUNK // max(n * n, dense.size + sparse.size))
            for c0 in range(0, dense.size, chunk):
                cols = slice(c0, c0 + chunk)
                Ac = Ab[dense[cols]].toarray()
                W = (X @ Ac.reshape(-1, n, n) @ Sinv).reshape(len(Ac), -1)
                for r0 in range(0, c0 + 1, chunk):
                    rows = slice(r0, r0 + chunk)
                    Ar = Ac if r0 == c0 else Ab[dense[rows]].toarray()
                    _add_block(M, dense[rows], dense[cols], Ar @ W.T)
                if sparse.size:
                    T = Rs @ W.T
                    _add_block(M, sparse, dense[cols], T)
                    _add_block(M, dense[cols], sparse, T.T)
            for c0 in range(0, sparse.size, chunk):
                cols = slice(c0, c0 + chunk)
                # entries are left-aligned: pad only to this chunk's longest
                ent = cols, slice(0, np.diff(Rs.indptr[c0:c0 + chunk + 1]).max())
                U = (X.T[p[ent]] * coef[ent][..., None]).transpose(0, 2, 1)
                W = (U @ Sinv[q[ent]]).reshape(len(U), -1)
                _add_block(M, sparse[:c0 + chunk], sparse[cols], Rs[:c0 + chunk] @ W.T)
        return M


def _vec(Xs) -> np.ndarray:
    """The stacked columns vec(X_0), ..., vec(X_{B-1})."""
    return np.concatenate([X.ravel() for X in Xs] + [np.zeros(0)])


def _add_block(M: np.ndarray, rows: np.ndarray, cols: np.ndarray, T) -> None:
    """M[rows, cols] += T for sorted index sets, slicing contiguous ones."""
    r, c = (
        slice(int(ix[0]), int(ix[-1]) + 1) if ix[-1] - ix[0] + 1 == ix.size else ix
        for ix in (rows, cols)
    )
    if not (isinstance(r, slice) or isinstance(c, slice)):
        r, c = np.ix_(r, c)
    M[r, c] += T


def _independent(G: np.ndarray) -> np.ndarray:
    """Sorted indices of a maximal independent set of a Gram's columns.

    Pivoted Cholesky of G scaled to unit diagonal, with a relative rank
    tolerance of 1e-10; G is overwritten.  Scaled in column chunks, an
    F-ordered G is factored in place with no m x m temporary.
    """
    d = np.sqrt(np.diag(G))
    d[d == 0.0] = 1.0
    for c in range(0, len(d), 64):
        G[:, c:c + 64] /= np.outer(d, d[c:c + 64])
    _, piv, rank, _ = sla.lapack.dpstrf(G, tol=1e-10, lower=1, overwrite_a=True)
    return np.sort(piv[:rank] - 1)


def _factor_spd(M: np.ndarray):
    """(L, kept): a Cholesky factor from M's upper triangle, L L' = M[kept][:, kept].

    LAPACK's dpotrf factors a copy, read as its F-ordered transpose's lower
    triangle, and keeps every row.  Where that fails, M singular to working
    precision, dpstrf's pivoted Cholesky at its default tolerance keeps the
    pivots up to the rank it reveals (Higham 1990).  With no positive pivot
    it raises LinAlgError, which the iteration's one breakdown exit catches.
    """
    L, info = sla.lapack.dpotrf(M.T, lower=1, clean=0)
    if info == 0:
        return L, slice(None)
    L, piv, rank, _ = sla.lapack.dpstrf(M.T, lower=1)
    if rank == 0:
        raise np.linalg.LinAlgError("no pivot of M is positive")
    return L[:rank, :rank], piv[:rank] - 1


def _max_step(L: np.ndarray, D: np.ndarray) -> float:
    """sup { a : L L' + a*D PSD } for exactly symmetric D, from the iterate's
    factor L, so nothing is factored here.  A non-finite D raises LinAlgError
    for the one breakdown exit, which eigvalsh of a NaN need not do."""
    if not np.isfinite(D).all():
        raise np.linalg.LinAlgError("non-finite step direction")
    T = sla.solve_triangular(L, D, lower=True, check_finite=False)
    T = sla.solve_triangular(L, T.T, lower=True, check_finite=False)
    lam = float(np.linalg.eigvalsh(0.5 * (T + T.T))[0])
    if lam >= -_TINY:
        return np.inf
    return -1.0 / lam


def _sym(A: np.ndarray) -> np.ndarray:
    return 0.5 * (A + A.T)


def _finish(prog, opts, status, Xs, f_full, dual, res, iters, presolve) -> SolveResult:
    """SolveResult of ``prog``, its residuals rechecked over every row; a
    presolved-away row the solution misses demotes "optimal" to "infeasible"."""
    res = dict(res)
    values = _values(prog.functionals, Xs, f_full)
    if prog.n_rows:
        resid = values[1:] - prog.rhs
        full_p = float(np.abs(resid).max()) / (1.0 + float(np.abs(prog.rhs).max()))
        res["primal_inf"] = full_p
        if status == "optimal" and full_p > 10.0 * opts.tol_primal:
            status = "infeasible"
    return SolveResult(
        status, float(values[0]), tuple(Xs), f_full, dual, res, iters, presolve,
    )


def solve(prog: RealConicProgram, options: SolverOptions | None = None) -> SolveResult:
    """Solve a carrier program; see the module docstring for the method.

    The returned status is "optimal" only when all three normalized
    residuals meet their tolerances.  "infeasible" flags a detected
    inconsistency (including unboundedness of the stated sense); "numerical"
    a breakdown; "max_iter" exhaustion, with the best iterate found.
    """
    opts = options or SolverOptions()
    with _one_blas_thread():
        lmi = _lmi_dual(prog)
        if lmi is None:
            return _solve_direct(prog, opts)
        dual, (blk, i, j, coef, z, G, c0) = lmi
        r = _solve_direct(dual, opts)
        # f is D's row multipliers, X = Z0 - sum_j f_j G_j, and the row duals y
        # make C - A*(y) D's block Y (A*(y) - C for maximize)
        f, res = r.dual_row_values, r.residuals
        x, y = z - G @ f, c0.copy()
        sign = -1.0 if prog.sense == "maximize" else 1.0
        Xs = [np.zeros((n, n)) for n in prog.psd_blocks]
        for b, (X, Y) in enumerate(zip(Xs, r.primal_blocks)):
            k = np.flatnonzero(blk == b)
            X[i[k], j[k]] = X[j[k], i[k]] = x[k]
            y[k] -= sign * Y[i[k], j[k]]
        dropped = r.presolve["dropped_empty"] + r.presolve["dropped_dependent"]
        return _finish(
            prog, opts, r.status, Xs, f, y / coef,
            dict(res, dual_inf=res["primal_inf"]),
            r.iterations, dict(
                dropped_empty=[], dropped_dependent=[], dropped_free=sorted(dropped),
                dualized=list(range(len(prog.psd_blocks))),
            ),
        )


def _lmi_dual(prog: RealConicProgram):
    """D and each row's (blk, i, j, coef, Z0, G, C) in LMI form; else None.

    In LMI form every key (block, i, j) is pinned by one row, which holds
    it alone with a nonzero coefficient: X[i,j] = (rhs_k - F[k,:] f) / w_k,
    w_k the coefficient on the diagonal and twice that off it.  So X = Z0 -
    sum_j f_j G_j, and the objective is <C, Z0> + c~.f, c~_j = cf_j - <C, G_j>.
    D is min <Z0, Y> over the same blocks s.t. <G_j, Y> = -c~_j (c~_j for
    maximize); its row multipliers are f.
    """
    a, sizes = prog.functionals, np.array(prog.psd_blocks, dtype=np.intp)
    e0 = a.indptr[1]
    if (
        prog.n_rows == 0 or prog.n_rows != int((sizes * (sizes + 1) // 2).sum())
        or np.any(np.diff(a.indptr)[1:] != 1) or np.any(a.coef[e0:] == 0.0)
    ):
        return None
    off = np.r_[0, np.cumsum(sizes * sizes)]
    key = off[a.blk] + a.i * sizes[a.blk] + a.j
    if np.bincount(key[e0:]).max() > 1:
        return None
    # the objective's block coefficient at each row's key
    c0 = np.zeros(off[-1])
    c0[key[:e0]] = a.coef[:e0]
    c0 = c0[key[e0:]]
    blk, i, j, coef = a.blk[e0:], a.i[e0:], a.j[e0:], a.coef[e0:]
    mirrors = np.where(i == j, 1.0, 2.0)
    w = mirrors * coef
    f0 = a.free_indptr[1]
    at = np.repeat(np.arange(prog.n_rows), np.diff(a.free_indptr)[1:])
    G = sp.csr_matrix(
        (a.free_coef[f0:] / w[at], (at, a.free_idx[f0:])),
        shape=(prog.n_rows, prog.n_free),
    )
    ct = -G.T @ (mirrors * c0)
    ct[a.free_idx[:f0]] += a.free_coef[:f0]
    z, Gt = prog.rhs / w, G.T.tocsr()
    at = np.r_[np.arange(prog.n_rows), Gt.indices]
    dual = RealConicProgram.from_arrays(
        prog.psd_blocks, 0,
        (np.r_[prog.n_rows, np.diff(Gt.indptr)], blk[at], i[at], j[at],
         np.r_[z, Gt.data]),
        ct if prog.sense == "maximize" else -ct, sense="minimize",
    )
    return dual, (blk, i, j, coef, z, G, c0)


def _solve_direct(prog: RealConicProgram, opts: SolverOptions) -> SolveResult:
    """Run the interior-point method on ``prog`` itself."""
    reduced, infeasible, report, back = _presolve(prog)
    ws = _Workspace(prog.psd_blocks, *reduced)
    del reduced  # the workspace holds the rows as its block slices

    def finish(status, Xs, y, res, iters):
        return _finish(prog, opts, status, Xs, *back(Xs, y), res, iters, report)

    zero_blocks = [np.zeros((n, n)) for n in ws.sizes]
    # With no rows left, 0 is optimal iff no improving ray exists, i.e. the
    # internal objective is PSD blockwise.
    ray = ws.m == 0 and min(
        (float(np.linalg.eigvalsh(Cb)[0]) for Cb in ws.C), default=0.0
    ) < -1e-12
    if infeasible or ray:
        # An empty row with nonzero rhs, a priced free scalar that the kept
        # rows leave unbounded in the stated sense, or an improving ray.
        return finish(
            "infeasible", zero_blocks, None,
            {"primal_inf": 0.0, "dual_inf": 0.0, "gap": np.inf}, 0,
        )
    if ws.m == 0:
        return finish(
            "optimal", zero_blocks, np.zeros(0),
            {"primal_inf": 0.0, "dual_inf": 0.0, "gap": 0.0}, 0,
        )

    nmax = max(ws.sizes) if ws.sizes else 1
    amax = float(ws.row_norms.max(initial=0.0))
    xi_p = max(
        10.0, np.sqrt(nmax),
        nmax * float(np.max((1.0 + np.abs(ws.b)) / (1.0 + ws.row_norms))),
    )
    xi_d = max(10.0, np.sqrt(nmax), (1.0 + max(ws.C_norm, amax)) / np.sqrt(nmax))

    Xs = [xi_p * np.eye(n) for n in ws.sizes]
    Ss = [xi_d * np.eye(n) for n in ws.sizes]
    y = np.zeros(ws.m)

    b_scale = 1.0 + float(np.abs(ws.b).max(initial=0.0))
    c_scale = 1.0 + max(
        (float(np.abs(Cb).max(initial=0.0)) for Cb in ws.C), default=0.0
    )

    best = None
    best_score = np.inf
    stall = 0
    no_gain = 0
    res = {"primal_inf": np.inf, "dual_inf": np.inf, "gap": np.inf}

    for it in range(opts.max_iter):
        rp = ws.b - ws.apply(Xs)
        ATy = ws.apply_adjoint(y)
        Rd = [ws.C[b] - Ss[b] - ATy[b] for b in range(len(ws.sizes))]

        pobj = ws.const + sum(
            float(np.tensordot(ws.C[b], Xs[b])) for b in range(len(ws.sizes))
        )
        dobj = ws.const + float(ws.b @ y)
        primal_inf = float(np.abs(rp).max(initial=0.0)) / b_scale
        dual_inf = max(
            (float(np.abs(R).max(initial=0.0)) for R in Rd), default=0.0
        ) / c_scale
        gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        res = {"primal_inf": primal_inf, "dual_inf": dual_inf, "gap": gap}

        score = max(primal_inf, dual_inf, gap)
        if score < best_score:
            best_score = score
            best = ([X.copy() for X in Xs], y.copy(), dict(res))
            no_gain = 0
        else:
            # Iterates drifting without improving the best score signal
            # that directions have gone inaccurate; stop wandering.
            no_gain += 1
            if no_gain >= 6:
                break

        if (
            primal_inf <= opts.tol_primal
            and dual_inf <= opts.tol_dual
            and gap <= opts.tol_gap
        ):
            return finish("optimal", Xs, y, res, it)

        # Divergence heuristics: an exploding dual objective with tiny dual
        # residual certifies primal infeasibility; the mirror image flags an
        # unbounded (dual-infeasible) program.
        if dobj > 1e13 * b_scale and dual_inf < 1e-6:
            return finish("infeasible", Xs, y, res, it)
        if pobj < -1e13 * c_scale and primal_inf < 1e-6:
            return finish("infeasible", Xs, y, res, it)
        if not np.isfinite(score):
            break

        mu = sum(float(np.tensordot(Xs[b], Ss[b])) for b in range(len(ws.sizes)))
        mu /= ws.N

        def solve_schur(h):
            # on the factor's kept rows, zero on the rest, and refined twice
            # against M itself for the accuracy lost to M's conditioning
            dy = np.zeros(ws.m)
            dy[kept] = sla.cho_solve((Mf, True), h[kept], check_finite=False)
            for _ in range(2):
                r = h - sla.blas.dsymv(1.0, M.T, dy, lower=1)
                dy[kept] += sla.cho_solve((Mf, True), r[kept], check_finite=False)
            return dy

        def direction(sigma_mu, extras):
            # dX = V + sym(X A*(dy) S^-1), with V collecting every dX term
            # not involving dy, so the Schur rhs is h = rp - A(V).
            V = [
                sigma_mu * Sinvs[b] - Xs[b]
                - _sym((Xs[b] @ Rd[b] + extras[b]) @ Sinvs[b])
                for b in range(len(ws.sizes))
            ]
            dy = solve_schur(rp - ws.apply(V))
            ATdy = ws.apply_adjoint(dy)
            dS = [Rd[b] - ATdy[b] for b in range(len(ws.sizes))]
            dX = [
                V[b] + _sym(Xs[b] @ ATdy[b] @ Sinvs[b]) for b in range(len(ws.sizes))
            ]
            return dX, dS, dy

        def max_steps(dX, dS):
            blocks = range(len(ws.sizes))
            return (
                min((_max_step(LX[b], dX[b]) for b in blocks), default=np.inf),
                min((_max_step(LS[b], dS[b]) for b in blocks), default=np.inf),
            )

        # The one breakdown exit: X or S no longer positive definite, a Schur
        # matrix with no positive pivot, or a non-finite direction.
        try:
            LX = [np.linalg.cholesky(X) for X in Xs]
            LS = [np.linalg.cholesky(S) for S in Ss]
            Sinvs = [_sym(sla.cho_solve((L, True), np.eye(len(L)))) for L in LS]
            M = ws.schur(Xs, Sinvs)
            Mf, kept = _factor_spd(M)
            dX_a, dS_a, _ = direction(0.0, zero_blocks)
            ap, ad = max_steps(dX_a, dS_a)
            ap, ad = min(1.0, ap), min(1.0, ad)
            mu_aff = max(sum(
                float(np.tensordot(Xs[b] + ap * dX_a[b], Ss[b] + ad * dS_a[b]))
                for b in range(len(ws.sizes))
            ) / ws.N, 0.0)
            # Short affine steps mean a hard endgame: center more (smaller
            # exponent) and step less aggressively.
            expo = max(1.0, 3.0 * min(ap, ad) ** 2)
            sigma = min(1.0, max((mu_aff / mu) ** expo if mu > 0 else 1.0, 1e-8))
            gamma = min(0.98, 0.9 + 0.09 * min(ap, ad))
            extras = [dX_a[b] @ dS_a[b] for b in range(len(ws.sizes))]
            dX, dS, dy = direction(sigma * mu, extras)
            ap, ad = max_steps(dX, dS)
        except np.linalg.LinAlgError:
            break
        ap, ad = min(1.0, gamma * ap), min(1.0, gamma * ad)
        stall = stall + 1 if ap < 1e-8 and ad < 1e-8 else 0
        if stall >= 3:
            break

        for b in range(len(ws.sizes)):
            Xs[b] = Xs[b] + ap * dX[b]
            Ss[b] = Ss[b] + ad * dS[b]
        y = y + ad * dy
    else:
        return finish("max_iter", *best, opts.max_iter)
    # a breakdown in pass it leaves it steps taken
    if best is not None:
        return finish("numerical", *best, it)
    return finish("numerical", zero_blocks, None, res, it)
