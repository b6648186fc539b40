"""Primal-dual interior-point solver for the sparse block carrier.

Solves programs of the form

    optimize  sum_b <C_b, X_b> + cf.f
    s.t.      sum_b <A_kb, X_b> + F[k,:].f = b_k   (k = 1..m)
              X_b PSD,  f free,

using an infeasible-start path-following method: a predictor-corrector
iteration on the symmetrized complementarity X S = mu I with the dual-scaled
search direction, a dense Schur complement for the row multipliers, and the
free scalars carried natively in an augmented Schur system.  Both systems of
a step, the Schur matrix M and the free reduction F' M^-1 F, are factored by
one rule, a Cholesky with escalating diagonal shift, and each solve is
refined against the unshifted system.  Everything is deterministic:
identical inputs and options reproduce identical iterates on a given
platform.

Designed for desk-scale problems (block dimension up to a few hundred, row
counts in the low tens of thousands).  The Schur matrix is held dense but
assembled by row sparsity: a row with more than n stored entries in an n x n
block goes through BLAS products, any other row through outer products of
its entries (Fujisawa, Kojima and Nakata, Math. Prog. 79, 1997).

A program whose rows pin every block entry once, a linear matrix inequality
in its free scalars such as ``reformulate_dual`` builds, is solved through
its standard-form dual, which has one row per free scalar and none free
(Kobayashi, Nakata and Kojima, Comput. Optim. Appl. 36, 2007).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .program import RealConicProgram, SolveResult

__all__ = ["SolverOptions", "solve"]

_TINY = 1e-13
# Element cap on every Schur assembly temporary (16 MB of float64).
_CHUNK = 2_097_152


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
        for name in ("tol_gap", "tol_primal", "tol_dual"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


class _Workspace:
    """Preprocessed solver data for one program.

    Presolve drops structurally empty rows, rows that are exact linear
    combinations of earlier ones (rank detection on the normalized row Gram
    via pivoted Cholesky, the only factorization of that Gram; dependent but
    consistent rows would otherwise make the Schur system singular and let
    the multipliers drift along its null space), free scalars that appear in
    no surviving row, and free scalars whose columns are linear combinations
    of earlier ones (the equality multipliers of a moment relaxation carry
    such syzygies, g_j H_i = g_i H_j).
    Dropped rows report a zero multiplier and are re-checked in the final
    residuals; dropped scalars are reported as zero.  Each block's rows are
    then split once, by stored entries, into the dense and sparse rows of the
    Schur assembly.
    """

    def __init__(self, prog: RealConicProgram):
        self.sizes = list(prog.psd_blocks)
        self.nf_total = prog.n_free
        self.sign = -1.0 if prog.sense == "maximize" else 1.0

        # Structurally empty rows are dropped up front (their duals are
        # zero); an empty row with nonzero rhs is an immediate
        # infeasibility certificate.  Functional k + 1 is row k.
        a = prog.functionals
        counts, fcounts = np.diff(a.indptr), np.diff(a.free_indptr)
        empty = (counts[1:] == 0) & (fcounts[1:] == 0)
        self.dropped_empty = np.flatnonzero(empty).tolist()
        self.bad_empty = np.flatnonzero(empty & (np.abs(prog.rhs) > _TINY)).tolist()
        self.active = np.flatnonzero(~empty)
        self.m = self.active.size
        self.b = prog.rhs[~empty]

        # each free entry's position among the active rows; the objective's
        # f0 free entries come first
        at, f0 = np.r_[0, np.cumsum(~empty) - 1], fcounts[0]
        self.F = np.zeros((self.m, self.nf_total))
        self.F[np.repeat(at, fcounts)[f0:], a.free_idx[f0:]] = a.free_coef[f0:]
        # R[b] holds vec(A_kb) per active row; used for all operator
        # applications and the Schur assembly, each entry (i, j) with its
        # mirror (j, i) when off the diagonal.  The same layout of the
        # objective, functional 0, is C_b.
        fun = np.repeat(np.arange(counts.size), counts)
        self.R, self.C = [], []
        for b, n in enumerate(self.sizes):
            sel = a.blk == b
            off = sel & (a.i != a.j)
            Rb = sp.csr_matrix((np.r_[a.coef[sel], a.coef[off]], (
                np.r_[fun[sel], fun[off]],
                np.r_[a.i[sel] * n + a.j[sel], a.j[off] * n + a.i[off]],
            )), shape=(counts.size, n * n))
            self.C.append((self.sign * Rb[0]).toarray().reshape(n, n))
            self.R.append(Rb[1 + self.active])

        self.dropped_dependent: list[int] = []
        if self.m >= 2:
            G = np.zeros((self.m, self.m))
            for Rb in self.R:
                G += (Rb @ Rb.T).toarray()
            keep = _independent(G + self.F @ self.F.T)
            if keep.size < self.m:
                self.dropped_dependent = np.delete(self.active, keep).tolist()
                self.active = self.active[keep]
                self.b = self.b[keep]
                self.F = self.F[keep]
                self.R = [Rb[keep] for Rb in self.R]
                self.m = int(keep.size)

        cf_full = np.zeros(self.nf_total)
        cf_full[a.free_idx[:f0]] = self.sign * a.free_coef[:f0]
        if self.nf_total:
            col_used = (self.F != 0.0).any(axis=0)
            # An unconstrained scalar with a real objective coefficient
            # makes the program unbounded; coefficients at roundoff scale
            # (endemic when right-hand sides are computed numerically) are
            # treated as zero and the scalar is pinned.
            tol_cf = 1e-12 * (1.0 + float(np.abs(cf_full).max(initial=0.0)))
            self.unbounded_free = bool(
                np.any(np.abs(cf_full[~col_used]) > tol_cf)
            )
            self.free_idx = np.flatnonzero(col_used)
        else:
            self.unbounded_free = False
            self.free_idx = np.zeros(0, dtype=int)
        self.F = self.F[:, self.free_idx]
        self.cf = cf_full[self.free_idx]
        self.nf = int(self.free_idx.size)
        self._reduce_free_columns()

        # Rows with more than n stored entries are dense (densified per
        # chunk); the others keep left-aligned, zero-padded entry lists.
        self.schur_rows = []
        for b, n in enumerate(self.sizes):
            nnz = np.diff(self.R[b].indptr)
            dense = np.flatnonzero(nnz > n)
            sparse = np.flatnonzero((nnz > 0) & (nnz <= n))
            Rs = self.R[b][sparse]
            row = np.repeat(np.arange(sparse.size), np.diff(Rs.indptr))
            slot = row, np.arange(Rs.nnz) - Rs.indptr[row]
            pos = np.zeros((sparse.size, int(nnz[sparse].max(initial=0))), dtype=int)
            coef = np.zeros(pos.shape)
            pos[slot], coef[slot] = Rs.indices, Rs.data
            self.schur_rows.append(
                (dense, self.R[b][dense], sparse, Rs, pos // n, pos % n, coef)
            )

        self.N = sum(self.sizes) if self.sizes else 1
        norms = np.zeros(self.m)
        for Rb in self.R:
            norms += np.asarray(Rb.multiply(Rb).sum(axis=1)).ravel()
        if self.nf:
            norms += (self.F ** 2).sum(axis=1)
        self.row_norms = np.sqrt(norms)
        self.C_norm = max(float(np.linalg.norm(Cb)) for Cb in self.C + [self.cf])

    def _reduce_free_columns(self) -> None:
        """Drop free columns that are linear combinations of earlier ones.

        A rank-deficient free block leaves the Schur reduction F' M^-1 F
        singular and the free directions underdetermined; the resulting
        null-space excursions wreck the step arithmetic.  Dependent columns
        can be removed without changing the optimum provided the objective
        is consistent along the dependency (otherwise the program is
        unbounded in the stated sense, which the caller reports); the
        removed scalars are fixed at zero in the returned solution.
        """
        if self.nf < 2 or self.m == 0:
            return
        kept = _independent(self.F.T @ self.F)
        if kept.size == self.nf:
            return
        dropped = np.setdiff1d(np.arange(self.nf), kept)
        Fk = self.F[:, kept]
        Fd = self.F[:, dropped]
        W = np.linalg.lstsq(Fk, Fd, rcond=None)[0]
        mismatch = self.cf[dropped] - W.T @ self.cf[kept]
        tol_cf = 1e-9 * (1.0 + float(np.abs(self.cf).max(initial=0.0)))
        if float(np.abs(mismatch).max(initial=0.0)) > tol_cf:
            self.unbounded_free = True
        self.free_idx = self.free_idx[kept]
        self.F = Fk
        self.cf = self.cf[kept]
        self.nf = int(kept.size)

    def apply(self, Xs, f):
        out = np.zeros(self.m)
        for b in range(len(self.sizes)):
            out += self.R[b] @ Xs[b].ravel()
        if self.nf:
            out += self.F @ f
        return out

    def apply_adjoint(self, y):
        return [(Rb.T @ y).reshape(n, n) for Rb, n in zip(self.R, self.sizes)]

    def schur(self, Xs, Sinvs):
        """M[k, l] = sum_b <A_kb, X_b A_lb S_b^-1>.

        W_l = X A_l S^-1 takes two GEMMs for a dense row and the outer
        products sum_e c_e X[:, p_e] S^-1[q_e, :] for a sparse one; it needs
        no symmetrizing, since every A_k is symmetric.  M[dense, sparse] is
        filled from M[sparse, dense].
        """
        M = np.zeros((self.m, self.m))
        for b, n in enumerate(self.sizes):
            dense, Rd, sparse, Rs, p, q, coef = self.schur_rows[b]
            X, Sinv = Xs[b], Sinvs[b]
            # Caps every temporary, the m_b x chunk products included.
            chunk = max(1, _CHUNK // max(n * n, dense.size + sparse.size))
            for c0 in range(0, dense.size, chunk):
                cols = slice(c0, c0 + chunk)
                Ac = Rd[cols].toarray()
                W = (X @ Ac.reshape(-1, n, n) @ Sinv).reshape(len(Ac), -1)
                for r0 in range(0, dense.size, chunk):
                    rows = slice(r0, r0 + chunk)
                    Ar = Ac if r0 == c0 else Rd[rows].toarray()
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
                _add_block(M, sparse, sparse[cols], Rs @ W.T)
        return 0.5 * (M + M.T)


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
    tolerance of 1e-10; G is overwritten.
    """
    d = np.sqrt(np.diag(G))
    d[d == 0.0] = 1.0
    G /= np.outer(d, d)
    _, piv, rank, _ = sla.lapack.dpstrf(G, tol=1e-10, lower=1, overwrite_a=True)
    return np.sort(piv[:rank] - 1)


def _factor_spd(M: np.ndarray):
    """Cholesky with escalating diagonal jitter for near-singular systems.

    The factor of M + shift I, for the first shift in 0, 1e-12, 1e-10, ...,
    1e-4 (times the larger of 1 and M's largest diagonal entry) that
    factors; None when none does.
    """
    scale = max(float(M.diagonal().max(initial=0.0)), 1.0)
    jitter = 0.0
    for _ in range(6):
        try:
            Mj = M if jitter == 0.0 else M + jitter * np.eye(M.shape[0])
            return sla.cho_factor(Mj, lower=True, check_finite=False)
        except np.linalg.LinAlgError:
            jitter = 1e-12 * scale if jitter == 0.0 else jitter * 100.0
            if jitter > 1e-4 * scale:
                break
    return None


def _max_step(P: np.ndarray, D: np.ndarray) -> float:
    """sup { a : P + a*D PSD } for PD P, given exactly symmetric inputs."""
    L = np.linalg.cholesky(P)
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
    blocks = tuple(_sym(X) for X in Xs)
    res = dict(res)
    if prog.n_rows:
        resid = prog.row_residuals(blocks, f_full)
        full_p = float(np.abs(resid).max()) / (1.0 + float(np.abs(prog.rhs).max()))
        res["primal_inf"] = full_p
        if status == "optimal" and full_p > 10.0 * opts.tol_primal:
            status = "infeasible"
    return SolveResult(
        status, prog.objective.value(blocks, f_full), blocks, f_full, dual, res,
        iters, presolve,
    )


def solve(prog: RealConicProgram, options: SolverOptions | None = None) -> SolveResult:
    """Solve a carrier program; see the module docstring for the method.

    The returned status is "optimal" only when all three normalized
    residuals meet their tolerances.  "infeasible" flags a detected
    inconsistency (including unboundedness of the stated sense); "numerical"
    a breakdown; "max_iter" exhaustion, with the best iterate found.
    """
    opts = options or SolverOptions()
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
        dict(res, primal_inf=res["dual_inf"], dual_inf=res["primal_inf"]),
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
    ws = _Workspace(prog)

    def finish(status, Xs, f, y, res, iters):
        full_dual = np.zeros(prog.n_rows)
        if y is not None and ws.m:
            full_dual[ws.active] = -y if prog.sense == "maximize" else y
        f_full = np.zeros(prog.n_free)
        f_full[ws.free_idx] = f
        return _finish(prog, opts, status, Xs, f_full, full_dual, res, iters, dict(
            dropped_empty=ws.dropped_empty, dropped_dependent=ws.dropped_dependent,
            dropped_free=np.delete(np.arange(prog.n_free), ws.free_idx).tolist(),
            dualized=[],
        ))

    zero_blocks = [np.zeros((n, n)) for n in ws.sizes]
    zero_free = np.zeros(ws.nf)
    if ws.bad_empty:
        worst = float(np.abs(prog.rhs[ws.bad_empty]).max())
        return finish(
            "infeasible", zero_blocks, zero_free, None,
            {"primal_inf": worst, "dual_inf": 0.0, "gap": np.inf}, 0,
        )
    if ws.unbounded_free:
        # A free scalar with an objective coefficient but no surviving
        # constraint row: the stated sense is unbounded.
        return finish(
            "infeasible", zero_blocks, zero_free, None,
            {"primal_inf": 0.0, "dual_inf": 0.0, "gap": np.inf}, 0,
        )

    if ws.m == 0:
        # Pure feasibility in the PSD cone: 0 is optimal iff no improving
        # ray exists, i.e. the internal objective is PSD blockwise with no
        # free-variable gradient.
        lmin = min(
            (float(np.linalg.eigvalsh(Cb)[0]) for Cb in ws.C), default=0.0
        )
        if lmin < -1e-12:
            return finish(
                "infeasible", zero_blocks, zero_free, None,
                {"primal_inf": 0.0, "dual_inf": 0.0, "gap": np.inf}, 0,
            )
        return finish(
            "optimal", zero_blocks, zero_free, np.zeros(0),
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
    f = np.zeros(ws.nf)

    b_scale = 1.0 + float(np.abs(ws.b).max(initial=0.0))
    c_scale = 1.0 + max(
        max((float(np.abs(Cb).max(initial=0.0)) for Cb in ws.C), default=0.0),
        float(np.abs(ws.cf).max(initial=0.0)),
    )

    best = None
    best_score = np.inf
    stall = 0
    no_gain = 0
    res = {"primal_inf": np.inf, "dual_inf": np.inf, "gap": np.inf}
    status = "max_iter"
    iters = 0

    for it in range(opts.max_iter):
        iters = it
        rp = ws.b - ws.apply(Xs, f)
        ATy = ws.apply_adjoint(y)
        Rd = [ws.C[b] - Ss[b] - ATy[b] for b in range(len(ws.sizes))]
        rdf = ws.cf - ws.F.T @ y if ws.nf else np.zeros(0)

        pobj = sum(float(np.tensordot(ws.C[b], Xs[b])) for b in range(len(ws.sizes)))
        pobj += float(ws.cf @ f)
        dobj = float(ws.b @ y)
        primal_inf = float(np.abs(rp).max(initial=0.0)) / b_scale
        dual_inf = max(
            max((float(np.abs(R).max(initial=0.0)) for R in Rd), default=0.0),
            float(np.abs(rdf).max(initial=0.0)),
        ) / c_scale
        gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        res = {"primal_inf": primal_inf, "dual_inf": dual_inf, "gap": gap}

        score = max(primal_inf, dual_inf, gap)
        if score < best_score:
            best_score = score
            best = ([X.copy() for X in Xs], f.copy(), y.copy(), dict(res), it)
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
            status = "optimal"
            return finish(status, Xs, f, y, res, it)

        # Divergence heuristics: an exploding dual objective with tiny dual
        # residual certifies primal infeasibility; the mirror image flags an
        # unbounded (dual-infeasible) program.
        if dobj > 1e13 * b_scale and dual_inf < 1e-6:
            return finish("infeasible", Xs, f, y, res, it)
        if pobj < -1e13 * c_scale and primal_inf < 1e-6:
            return finish("infeasible", Xs, f, y, res, it)
        if not np.isfinite(score):
            break

        mu = sum(float(np.tensordot(Xs[b], Ss[b])) for b in range(len(ws.sizes)))
        mu /= ws.N

        try:
            Sinvs = []
            for b, n in enumerate(ws.sizes):
                Lc = sla.cho_factor(Ss[b], lower=True, check_finite=False)
                Sinvs.append(sla.cho_solve(Lc, np.eye(n), check_finite=False))
            Sinvs = [_sym(S) for S in Sinvs]
        except np.linalg.LinAlgError:
            break

        M = ws.schur(Xs, Sinvs)
        Mf = _factor_spd(M)
        if Mf is None:
            break
        if ws.nf:
            # F' M^-1 F goes ill-conditioned like 1/mu^2 near an optimum;
            # the shifted Cholesky and the refinement below absorb that.
            Gmat = sla.cho_solve(Mf, ws.F, check_finite=False)
            Hf = _factor_spd(ws.F.T @ Gmat)
            if Hf is None:
                break

        def solve_aug(h, g):
            # Block elimination on [[M, F], [F', 0]], plus iterative
            # refinement against the unfactored system (recovers the digits
            # lost to the stabilizing shifts in the factorizations).
            def once(h1, g1):
                t1 = sla.cho_solve(Mf, h1, check_finite=False)
                if ws.nf == 0:
                    return t1, np.zeros(0)
                df = sla.cho_solve(Hf, ws.F.T @ t1 - g1, check_finite=False)
                return t1 - Gmat @ df, df

            dy, df = once(h, g)
            for _ in range(2):
                rh = h - M @ dy
                rg = g
                if ws.nf:
                    rh = rh - ws.F @ df
                    rg = g - ws.F.T @ dy
                e1, e2 = once(rh, rg)
                dy = dy + e1
                df = df + e2
            return dy, df

        def direction(sigma_mu, extras):
            # dX = V + sym(X A*(dy) S^-1), with V collecting every dX term
            # not involving dy, so the Schur rhs is h = rp - A(V).
            V = [
                sigma_mu * Sinvs[b] - Xs[b]
                - _sym((Xs[b] @ Rd[b] + extras[b]) @ Sinvs[b])
                for b in range(len(ws.sizes))
            ]
            dy, df = solve_aug(rp - ws.apply(V, zero_free), rdf)
            ATdy = ws.apply_adjoint(dy)
            dS = [Rd[b] - ATdy[b] for b in range(len(ws.sizes))]
            dX = [
                _sym(V[b] + _sym(Xs[b] @ ATdy[b] @ Sinvs[b]))
                for b in range(len(ws.sizes))
            ]
            return dX, dS, dy, df

        def max_steps(dX, dS):
            # raises LinAlgError when X or S has lost definiteness
            blocks = range(len(ws.sizes))
            return (
                min((_max_step(Xs[b], dX[b]) for b in blocks), default=np.inf),
                min((_max_step(Ss[b], dS[b]) for b in blocks), default=np.inf),
            )

        zeros = [np.zeros((n, n)) for n in ws.sizes]
        dX_a, dS_a, _, _ = direction(0.0, zeros)
        try:
            ap, ad = max_steps(dX_a, dS_a)
        except np.linalg.LinAlgError:
            break
        ap = min(1.0, ap)
        ad = min(1.0, ad)
        mu_aff = sum(
            float(np.tensordot(Xs[b] + ap * dX_a[b], Ss[b] + ad * dS_a[b]))
            for b in range(len(ws.sizes))
        ) / ws.N
        mu_aff = max(mu_aff, 0.0)
        # Short affine steps mean a hard endgame: center more (smaller
        # exponent) and step less aggressively.
        expo = max(1.0, 3.0 * min(ap, ad) ** 2)
        sigma = min(1.0, max((mu_aff / mu) ** expo if mu > 0 else 1.0, 1e-8))
        gamma = min(0.98, 0.9 + 0.09 * min(ap, ad))

        extras = [dX_a[b] @ dS_a[b] for b in range(len(ws.sizes))]
        dX, dS, dy, df = direction(sigma * mu, extras)
        try:
            ap, ad = max_steps(dX, dS)
        except np.linalg.LinAlgError:
            break
        ap = min(1.0, gamma * ap)
        ad = min(1.0, gamma * ad)

        if ap < 1e-8 and ad < 1e-8:
            stall += 1
            if stall >= 3:
                break
        else:
            stall = 0

        for b in range(len(ws.sizes)):
            Xs[b] = _sym(Xs[b] + ap * dX[b])
            Ss[b] = _sym(Ss[b] + ad * dS[b])
        y = y + ad * dy
        if ws.nf:
            f = f + ap * df

    if best is not None:
        Xb, fb, yb, resb, itb = best
        final = "max_iter" if iters >= opts.max_iter - 1 else "numerical"
        return finish(final, Xb, fb, yb, resb, iters + 1)
    return finish(
        "numerical", zero_blocks, zero_free, None, res, iters + 1
    )
