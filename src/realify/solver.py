"""Primal-dual interior-point solver for the sparse block carrier.

Solves programs of the form

    optimize  sum_b <C_b, X_b> + cf.f
    s.t.      sum_b <A_kb, X_b> + F[k,:].f = b_k   (k = 1..m)
              X_b PSD,  f free,

using an infeasible-start path-following method: a predictor-corrector
iteration on the symmetrized complementarity X S = mu I with the dual-scaled
search direction, a dense Schur complement for the row multipliers, and the
free scalars carried natively in an augmented Schur system.  Everything is
deterministic: identical inputs and options reproduce identical iterates on
a given platform.

Designed for desk-scale problems (block dimension up to a few hundred, row
counts in the low tens of thousands).  The Schur matrix is held dense but
assembled by row sparsity: a row with more than n stored entries in an n x n
block goes through BLAS products, any other row through outer products of
its entries (Fujisawa, Kojima and Nakata, Math. Prog. 79, 1997).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .program import (
    LinearFunctional,
    RealConicProgram,
    Row,
    SolveResult,
    stack_entries,
)

__all__ = ["SolverOptions", "solve"]

_TINY = 1e-13
# Element cap on every Schur assembly temporary (16 MB of float64).
_CHUNK = 2_097_152


@dataclass(frozen=True)
class SolverOptions:
    """Termination tolerances and stepping controls.

    tol_gap, tol_primal, tol_dual : normalized residual targets.  Realified
        programs carry structural rows that leave the optimal face
        degenerate; 1e-7 is a more realistic target for those than the
        defaults here.
    max_iter      : iteration cap; exceeding it returns the best iterate.
    step_fraction : cap on the fraction-to-boundary factor in (0, 1); the
        factor itself adapts downward when steps get short.
    """

    tol_gap: float = 1e-8
    tol_primal: float = 1e-8
    tol_dual: float = 1e-8
    max_iter: int = 200
    step_fraction: float = 0.98
    verbose: bool = False

    def __post_init__(self) -> None:
        for name in ("tol_gap", "tol_primal", "tol_dual"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not 0.0 < self.step_fraction < 1.0:
            raise ValueError("step_fraction must lie in (0, 1)")


class _Workspace:
    """Preprocessed solver data for one program.

    Presolve drops structurally empty rows, rows that are exact linear
    combinations of earlier ones (rank detection on the normalized row Gram
    via pivoted Cholesky; dependent but consistent rows would otherwise make
    the Schur system singular and let the multipliers drift along its null
    space), and free scalars that appear in no surviving row.  Dropped rows
    report a zero multiplier and are re-checked in the final residuals.  Each
    block's rows are then split once, by stored entries, into the dense and
    sparse rows of the Schur assembly.
    """

    def __init__(self, prog: RealConicProgram):
        self.prog = prog
        self.sizes = list(prog.psd_blocks)
        self.nf_total = prog.n_free
        self.sign = -1.0 if prog.sense == "maximize" else 1.0

        # Structurally empty rows are dropped up front (their duals are
        # zero); an empty row with nonzero rhs is an immediate
        # infeasibility certificate.
        self.active: list[int] = []
        self.bad_empty: list[int] = []
        for k, row in enumerate(prog.rows):
            if row.entries or row.free:
                self.active.append(k)
            elif abs(row.rhs) > _TINY:
                self.bad_empty.append(k)
        self.m = len(self.active)

        self.b = np.array(
            [prog.rows[k].rhs for k in self.active], dtype=float
        )
        (kk, bs, i, j, c), (fkk, kfree, fc) = stack_entries(
            [prog.rows[k] for k in self.active]
        )
        self.F = np.zeros((self.m, self.nf_total))
        self.F[fkk, kfree] = fc
        # R[b] holds vec(A_kb) per active row; used for all operator
        # applications and the Schur assembly.  Each entry (i, j) is
        # followed by its mirror (j, i) when off the diagonal.
        self.R = []
        for b, n in enumerate(self.sizes):
            sel = np.flatnonzero(bs == b)
            ib, jb = i[sel], j[sel]
            twice = 1 + (ib != jb)
            cols = np.stack([ib * n + jb, jb * n + ib], axis=1)
            cols = cols[np.arange(2) < twice[:, None]]
            rows_ = np.repeat(kk[sel], twice)
            self.R.append(sp.coo_matrix(
                (np.repeat(c[sel], twice), (rows_, cols)),
                shape=(self.m, n * n),
            ).tocsr())

        # Block part of the row Gram, sum_b R_b R_b'; the free part is added
        # per use because the free columns change in between.
        RR = None
        if 1 <= self.m <= 12000:
            RR = np.zeros((self.m, self.m))
            for Rb in self.R:
                RR += (Rb @ Rb.T).toarray()

        self.dropped_dependent: list[int] = []
        if 2 <= self.m <= 12000:
            _, piv, rank, info = sla.lapack.dpstrf(
                _unit_diagonal_gram(RR, self.F)[0], tol=1e-10, lower=1,
                overwrite_a=True,
            )
            if info >= 0 and rank < self.m:
                keep = np.sort(piv[:rank] - 1)
                kept = set(keep.tolist())
                self.dropped_dependent = [
                    self.active[i] for i in range(self.m) if i not in kept
                ]
                self.active = [self.active[i] for i in keep]
                self.b = self.b[keep]
                self.F = self.F[keep]
                self.R = [Rb[keep] for Rb in self.R]
                self.m = int(rank)
                RR = RR[np.ix_(keep, keep)]

        cf_full = np.zeros(self.nf_total)
        for k, c in prog.objective.free:
            cf_full[k] = self.sign * c
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

        # Keep a factorization of the row Gram over the final row and
        # column sets: directions recovered from the Schur solve are
        # projected back onto the primal feasibility subsystem with it
        # (see project_primal).
        self.gram = None
        self.gram_scale = None
        if RR is not None:
            Gn, self.gram_scale = _unit_diagonal_gram(RR, self.F)
            del RR
            self.gram = _factor_spd(Gn)

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

        self.C = []
        for b, n in enumerate(self.sizes):
            self.C.append(np.zeros((n, n)))
        for b, i, j, c in prog.objective.entries:
            v = self.sign * c
            self.C[b][i, j] += v
            if i != j:
                self.C[b][j, i] += v

        self.N = sum(self.sizes) if self.sizes else 1
        norms = np.zeros(self.m)
        for b in range(len(self.sizes)):
            sq = np.asarray(self.R[b].multiply(self.R[b]).sum(axis=1)).ravel()
            norms += sq
        if self.nf:
            norms += (self.F ** 2).sum(axis=1)
        self.row_norms = np.sqrt(norms)
        self.C_norm = max(
            (float(np.linalg.norm(Cb)) for Cb in self.C), default=0.0
        )
        self.C_norm = max(self.C_norm, float(np.linalg.norm(self.cf)))

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
        Gc = self.F.T @ self.F
        d = np.sqrt(np.diag(Gc))
        d[d == 0.0] = 1.0
        Gn = Gc / np.outer(d, d)
        _, piv, rank, info = sla.lapack.dpstrf(
            Gn, tol=1e-10, lower=1, overwrite_a=True
        )
        if info < 0 or rank >= self.nf:
            return
        kept = np.sort(piv[:rank] - 1)
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
        self.nf = int(rank)

    def apply(self, Xs, f):
        out = np.zeros(self.m)
        for b in range(len(self.sizes)):
            out += self.R[b] @ Xs[b].ravel()
        if self.nf:
            out += self.F @ f
        return out

    def apply_adjoint(self, y):
        mats = []
        for b, n in enumerate(self.sizes):
            mats.append((self.R[b].T @ y).reshape(n, n))
        return mats

    def project_primal(self, Xs, f, target):
        """Shift (Xs, f) by the least-norm correction with A(delta) = residual.

        Directions reconstructed from the Schur complement pick up roundoff
        proportional to ||X|| * ||S^-1||, which blows up on problems whose
        optimal primal face is unbounded.  Solving the row Gram for the
        feasibility defect and pulling it back through the adjoint removes
        that error exactly (in exact arithmetic A o A* is the Gram).  The
        correction mutates Xs in place; the free part is returned.
        """
        if self.gram is None or not self.m:
            return f
        err = target - self.apply(Xs, f)
        scale = 1.0 + float(np.abs(target).max(initial=0.0))
        if float(np.abs(err).max(initial=0.0)) <= 1e-14 * scale:
            return f
        d = self.gram_scale
        w = sla.cho_solve(self.gram, err / d, check_finite=False) / d
        # One refinement pass: the kept rows may still be nearly dependent
        # at the presolve tolerance, and the defect is tiny to begin with.
        r2 = err - self.apply_gram(w)
        w += sla.cho_solve(self.gram, r2 / d, check_finite=False) / d
        for b, n in enumerate(self.sizes):
            B = (self.R[b].T @ w).reshape(n, n)
            Xs[b] += 0.5 * (B + B.T)
        if self.nf:
            f = f + self.F.T @ w
        return f

    def apply_gram(self, w):
        out = np.zeros(self.m)
        for Rb in self.R:
            out += Rb @ (Rb.T @ w)
        if self.nf:
            out += self.F @ (self.F.T @ w)
        return out

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


def _unit_diagonal_gram(RR: np.ndarray, F: np.ndarray):
    """The row Gram RR + F F' scaled to unit diagonal, and the scale."""
    G = RR + F @ F.T if F.shape[1] else RR.copy()
    d = np.sqrt(np.diag(G))
    d[d == 0.0] = 1.0
    G /= np.outer(d, d)
    return G, d


def _factor_spd(M: np.ndarray):
    """Cholesky with escalating diagonal jitter for near-singular systems."""
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


def _solve_sym(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve symmetric A x = B, tolerating (near-)singular A.

    The free-variable reduction F' M^-1 F goes ill-conditioned like 1/mu^2
    near an optimum; a graded diagonal shift keeps LAPACK happy and the
    caller's iterative refinement restores the lost digits.
    """
    scale = max(float(np.abs(np.diag(A)).max(initial=0.0)), 1.0)
    jitter = 0.0
    for _ in range(8):
        try:
            Aj = A if jitter == 0.0 else A + jitter * np.eye(A.shape[0])
            return np.linalg.solve(Aj, B)
        except np.linalg.LinAlgError:
            jitter = 1e-14 * scale if jitter == 0.0 else jitter * 100.0
    return np.linalg.lstsq(A, B, rcond=None)[0]


def _free_solver(H: np.ndarray):
    """B -> H^-1 B from one LU of H, reused across right-hand sides.

    An exactly zero pivot, where a fresh solve would raise, hands every
    solve to _solve_sym and its graded diagonal shifts instead.
    """
    lu, piv, info = sla.lapack.dgetrf(H)
    if info != 0:
        return lambda B: _solve_sym(H, B)
    return lambda B: sla.lu_solve((lu, piv), B, check_finite=False)


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


def _negated(e1, e2) -> bool:
    """Exact sign-flip test between two per-block entry tuples."""
    if len(e1) != len(e2):
        return False
    m2 = {(i, j): c for i, j, c in e2}
    for i, j, c in e1:
        c2 = m2.get((i, j))
        if c2 is None or c2 != -c:
            return False
    return True


def _tri_index(n: int, i: int, j: int) -> int:
    return i * (2 * n - i + 1) // 2 + (j - i)


def _fuse_opposite_blocks(prog: RealConicProgram):
    """Detect twin PSD blocks carrying exactly opposite data and absorb
    their difference into free scalars.

    A matched pair (P, N) enters every shared row, and the objective, with
    coefficient matrices that are exact negations of each other, so the
    program depends on the pair only through D = P - N; any rows private to
    one of the two blocks must come in identical twos (same coefficients,
    zero right-hand sides, nothing else in the row), in which case one copy
    is kept, rewritten onto D.  Solved directly, such a pair has no strictly
    complementary point: the dual slacks of both blocks are forced to zero
    and the primal optimal face is an unbounded ray along (T, T), which
    drags iterates off to huge norms and poisons the Schur system.  Fusing
    the pair into an unconstrained symmetric D (stored as upper-triangle
    scalars) removes the degeneracy without changing optimum, duals, or
    objective value.

    The fused interior solution is split back as P = pos(D), N = neg(D)
    (eigenvalue clipping), after which the caller re-checks every original
    row; a program whose private rows are not preserved by that split shows
    up there and is downgraded rather than misreported.

    Returns (fused_program, plan) or None when no pair qualifies.
    """
    sizes = prog.psd_blocks
    nb = len(sizes)
    if nb < 2:
        return None
    row_blocks: list[dict] = []
    for row in prog.rows:
        d: dict = {}
        for b, i, j, c in row.entries:
            d.setdefault(b, []).append((i, j, c))
        row_blocks.append({b: tuple(v) for b, v in d.items()})
    obj_blocks: dict = {}
    for b, i, j, c in prog.objective.entries:
        obj_blocks.setdefault(b, []).append((i, j, c))
    obj_blocks = {b: tuple(v) for b, v in obj_blocks.items()}

    used: set[int] = set()
    pairs: list[tuple[int, int]] = []
    drop_partner: dict[int, int] = {}
    for b1 in range(nb):
        if b1 in used:
            continue
        for b2 in range(b1 + 1, nb):
            if b2 in used or sizes[b1] != sizes[b2]:
                continue
            o1, o2 = obj_blocks.get(b1), obj_blocks.get(b2)
            if (o1 is None) != (o2 is None):
                continue
            if o1 is not None and not _negated(o1, o2):
                continue
            priv1: list[int] = []
            priv2: list[int] = []
            shared = False
            ok = True
            for k, rb in enumerate(row_blocks):
                e1, e2 = rb.get(b1), rb.get(b2)
                if e1 is None and e2 is None:
                    continue
                if e1 is not None and e2 is not None:
                    if not _negated(e1, e2):
                        ok = False
                        break
                    shared = True
                elif e1 is not None:
                    priv1.append(k)
                else:
                    priv2.append(k)
            if not ok or not shared or len(priv1) != len(priv2):
                continue
            for k1, k2 in zip(priv1, priv2):
                r1, r2 = prog.rows[k1], prog.rows[k2]
                if (
                    r1.free or r2.free
                    or r1.rhs != 0.0 or r2.rhs != 0.0
                    or len(row_blocks[k1]) != 1 or len(row_blocks[k2]) != 1
                    or row_blocks[k1][b1] != row_blocks[k2][b2]
                ):
                    ok = False
                    break
            if not ok:
                continue
            used.add(b1)
            used.add(b2)
            pairs.append((b1, b2))
            drop_partner.update(dict(zip(priv2, priv1)))
            break
    if not pairs or len(used) == nb:
        return None

    block_map: dict[int, int] = {}
    keep: list[int] = []
    for b in range(nb):
        if b not in used:
            block_map[b] = len(keep)
            keep.append(b)
    scalar_base: dict[int, int] = {}
    second_of: set[int] = set()
    pair_list: list[tuple[int, int, int, int]] = []
    nf = prog.n_free
    for b1, b2 in pairs:
        n = sizes[b1]
        scalar_base[b1] = nf
        second_of.add(b2)
        pair_list.append((b1, b2, n, nf))
        nf += n * (n + 1) // 2

    def rewrite(fun: LinearFunctional):
        entries = []
        free = list(fun.free)
        for b, i, j, c in fun.entries:
            if b in second_of:
                continue
            if b in scalar_base:
                n = sizes[b]
                w = 2.0 if i < j else 1.0
                free.append((scalar_base[b] + _tri_index(n, i, j), w * c))
            else:
                entries.append((block_map[b], i, j, c))
        return tuple(entries), tuple(sorted(free))

    new_rows: list[Row] = []
    row_map: list[tuple[int, float]] = [(0, 0.0)] * prog.n_rows
    for k, row in enumerate(prog.rows):
        if k in drop_partner:
            continue
        entries, free = rewrite(row)
        row_map[k] = (len(new_rows), 1.0)
        new_rows.append(Row(entries=entries, free=free, rhs=row.rhs))
    for k2, k1 in drop_partner.items():
        row_map[k2] = (row_map[k1][0], -1.0)
    oe, of = rewrite(prog.objective)
    fused = RealConicProgram(
        psd_blocks=tuple(sizes[b] for b in keep),
        n_free=nf,
        rows=tuple(new_rows),
        objective=LinearFunctional(entries=oe, free=of),
        sense=prog.sense,
    )
    return fused, (pair_list, keep, row_map)


def _split_structured(D: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Positive/negative split of D that respects a 2x2 rotation structure.

    Twin blocks produced by the Hermitian embedding live (up to solver
    tolerance) in the subspace [[P, -Q], [Q, P]] with P symmetric and Q
    skew.  A plain eigendecomposition of D splits correctly but smears the
    accumulated off-subspace drift across both parts, where the private
    structural rows of the embedding see it amplified.  Instead, split the
    complex carrier P + iQ, whose parts re-embed exactly on-subspace, and
    hand each side half of the drift so the difference stays exactly D.

    Returns None when D is nowhere near the subspace; callers then fall
    back to the plain split.
    """
    h = D.shape[0] // 2
    P = _sym(0.5 * (D[:h, :h] + D[h:, h:]))
    Q = 0.5 * (D[h:, :h] - D[h:, :h].T)
    S = D - np.block([[P, -Q], [Q, P]])
    if np.linalg.norm(S) > 1e-4 * (1.0 + np.linalg.norm(D)):
        return None
    w, U = np.linalg.eigh(P + 1j * Q)

    def embed(vals):
        H = (U * vals) @ U.conj().T
        R = _sym(H.real)
        I = 0.5 * (H.imag - H.imag.T)
        return np.block([[R, -I], [I, R]])

    half = 0.5 * S
    return embed(np.maximum(w, 0.0)) + half, embed(np.maximum(-w, 0.0)) - half


def _unfuse_result(
    prog: RealConicProgram, plan, inner: SolveResult, opts: SolverOptions
) -> SolveResult:
    """Map a fused-program solution back onto the original block layout."""
    pair_list, keep, row_map = plan
    blocks: list = [None] * len(prog.psd_blocks)
    for pos, b in enumerate(keep):
        blocks[b] = inner.primal_blocks[pos]
    fv = np.asarray(inner.free_values, dtype=float)
    for b1, b2, n, base in pair_list:
        D = np.zeros((n, n))
        idx = base
        for i in range(n):
            D[i, i:] = fv[idx : idx + n - i]
            D[i:, i] = fv[idx : idx + n - i]
            idx += n - i
        split = _split_structured(D) if n % 2 == 0 else None
        if split is None:
            w, U = np.linalg.eigh(D)
            blocks[b1] = _sym((U * np.maximum(w, 0.0)) @ U.T)
            blocks[b2] = _sym((U * np.maximum(-w, 0.0)) @ U.T)
        else:
            blocks[b1], blocks[b2] = split
    f_full = fv[: prog.n_free].copy()
    duals = np.zeros(prog.n_rows)
    for k, (rid, sgn) in enumerate(row_map):
        duals[k] = sgn * inner.dual_row_values[rid]
    res = dict(inner.residuals)
    status = inner.status
    out_blocks = tuple(blocks)
    if prog.n_rows:
        rhs_scale = 1.0 + max(abs(row.rhs) for row in prog.rows)
        resid = prog.row_residuals(out_blocks, f_full)
        full_p = float(np.abs(resid).max()) / rhs_scale
        res["primal_inf"] = full_p
        if status == "optimal" and full_p > 10.0 * opts.tol_primal:
            status = "numerical"
    return SolveResult(
        status=status,
        objective=prog.objective.value(out_blocks, f_full),
        primal_blocks=out_blocks,
        free_values=f_full,
        dual_row_values=duals,
        residuals=res,
        iterations=inner.iterations,
    )


def solve(prog: RealConicProgram, options: SolverOptions | None = None) -> SolveResult:
    """Solve a carrier program; see the module docstring for the method.

    The returned status is "optimal" only when all three normalized
    residuals meet their tolerances.  "infeasible" flags a detected
    inconsistency (including unboundedness of the stated sense); "numerical"
    a breakdown; "max_iter" exhaustion, with the best iterate found.
    """
    opts = options or SolverOptions()

    fused = _fuse_opposite_blocks(prog)
    if fused is not None:
        inner_prog, plan = fused
        return _unfuse_result(prog, plan, solve(inner_prog, options), opts)

    ws = _Workspace(prog)

    rhs_scale = 1.0 + max(
        (abs(row.rhs) for row in prog.rows), default=0.0
    )

    def finish(status, Xs, f, y, res, iters):
        full_dual = np.zeros(prog.n_rows)
        if y is not None and ws.m:
            w = -y if prog.sense == "maximize" else y
            for kk, k in enumerate(ws.active):
                full_dual[k] = w[kk]
        blocks = tuple(_sym(X) for X in Xs)
        f_full = np.zeros(prog.n_free)
        if ws.nf:
            f_full[ws.free_idx] = f
        # Residuals over every original row, the dropped ones included; a
        # presolved-away row that the solution does not satisfy means the
        # dropped rows were inconsistent with the kept ones.
        res = dict(res)
        if prog.n_rows:
            resid = prog.row_residuals(blocks, f_full)
            full_p = float(np.abs(resid).max()) / rhs_scale
            res["primal_inf"] = full_p
            if status == "optimal" and full_p > 10.0 * opts.tol_primal:
                status = "infeasible"
        obj = prog.objective.value(blocks, f_full)
        return SolveResult(
            status=status,
            objective=obj,
            primal_blocks=blocks,
            free_values=f_full,
            dual_row_values=full_dual,
            residuals=res,
            iterations=iters,
        )

    zero_blocks = [np.zeros((n, n)) for n in ws.sizes]
    zero_free = np.zeros(ws.nf)
    if ws.bad_empty:
        worst = max(abs(prog.rows[k].rhs) for k in ws.bad_empty)
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

        if opts.verbose:
            print(
                f"  it {it:3d}  pobj {pobj: .6e}  dobj {dobj: .6e}  "
                f"p {primal_inf:.2e}  d {dual_inf:.2e}  g {gap:.2e}"
            )

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
            Gmat = sla.cho_solve(Mf, ws.F, check_finite=False)
            solve_free = _free_solver(ws.F.T @ Gmat)

        def solve_aug(h, g):
            # Block elimination on [[M, F], [F', 0]], plus iterative
            # refinement against the unfactored system (recovers the digits
            # lost to any stabilizing shifts in the factorizations).
            def once(h1, g1):
                t1 = sla.cho_solve(Mf, h1, check_finite=False)
                if ws.nf == 0:
                    return t1, np.zeros(0)
                df = solve_free(ws.F.T @ t1 - g1)
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

        def rhs(sigma_mu, extras):
            h = rp.copy()
            parts = []
            for b in range(len(ws.sizes)):
                V = sigma_mu * Sinvs[b] - Xs[b] - _sym(
                    (Xs[b] @ Rd[b] + extras[b]) @ Sinvs[b]
                )
                parts.append(V)
            # h = rp - A(V); V collects every DX term not involving dy.
            h -= ws.apply(parts, zero_free)
            return h, parts

        zeros = [np.zeros((n, n)) for n in ws.sizes]
        h_aff, base_aff = rhs(0.0, zeros)
        dy_a, df_a = solve_aug(h_aff, rdf)
        ATdy = ws.apply_adjoint(dy_a)
        dS_a = [Rd[b] - ATdy[b] for b in range(len(ws.sizes))]
        dX_a = [
            _sym(base_aff[b] + _sym(Xs[b] @ ATdy[b] @ Sinvs[b]))
            for b in range(len(ws.sizes))
        ]
        df_a = ws.project_primal(dX_a, df_a, rp)

        try:
            ap = min(
                (_max_step(Xs[b], dX_a[b]) for b in range(len(ws.sizes))),
                default=np.inf,
            )
            ad = min(
                (_max_step(Ss[b], dS_a[b]) for b in range(len(ws.sizes))),
                default=np.inf,
            )
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
        gamma = min(opts.step_fraction, 0.9 + 0.09 * min(ap, ad))

        extras = [dX_a[b] @ dS_a[b] for b in range(len(ws.sizes))]
        h_cor, base_cor = rhs(sigma * mu, extras)
        dy, df = solve_aug(h_cor, rdf)
        ATdy = ws.apply_adjoint(dy)
        dS = [Rd[b] - ATdy[b] for b in range(len(ws.sizes))]
        dX = [
            _sym(base_cor[b] + _sym(Xs[b] @ ATdy[b] @ Sinvs[b]))
            for b in range(len(ws.sizes))
        ]
        df = ws.project_primal(dX, df, rp)

        try:
            ap = min(
                (_max_step(Xs[b], dX[b]) for b in range(len(ws.sizes))),
                default=np.inf,
            )
            ad = min(
                (_max_step(Ss[b], dS[b]) for b in range(len(ws.sizes))),
                default=np.inf,
            )
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
