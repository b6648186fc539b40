"""Sparse carrier for real SDPs with equality rows and free scalar variables.

A program holds symmetric PSD matrix blocks ``X_0, ..., X_{B-1}``, free
scalars ``f_0, ..., f_{F-1}`` and linear functionals over them: functional
0 is the objective and functional k + 1 the left side of row k.  Each is a
sparse list of upper-triangle coefficients,

    value = sum_{(b,i,j,c), i<j} c * (X_b[i,j] + X_b[j,i])
          + sum_{(b,i,i,c)}      c *  X_b[i,i]
          + sum_{(k,c)}          c *  f_k

stored once for all functionals as arrays, ``prog.functionals``: a CSR over
(block, i, j) keys and a CSR over free columns, next to ``prog.rhs``.
Entries keep the order they were given in.  ``Row`` and
``LinearFunctional`` are the tuple forms of one functional: a program is
built from them or, by the producers, from arrays (``from_arrays``), and
``prog.rows[k]`` and ``prog.objective`` rebuild them on each access.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "BlockEntry",
    "FreeEntry",
    "LinearFunctional",
    "Row",
    "RealConicProgram",
    "SolveResult",
]

# (block, row, col, coefficient) with row <= col.
BlockEntry = tuple[int, int, int, float]
# (free-variable index, coefficient).
FreeEntry = tuple[int, float]

# Functional f: block entries indptr[f]:indptr[f + 1] of blk, i, j, coef;
# free entries free_indptr[f]:free_indptr[f + 1] of free_idx, free_coef.
Functionals = namedtuple(
    "Functionals", "indptr blk i j coef free_indptr free_idx free_coef"
)


def _stack(funs: Sequence["LinearFunctional"]) -> Functionals:
    """The tuple entries of ``funs`` as arrays, in stored order."""
    ent, fre = (
        np.array([e for f in funs for e in getattr(f, part)], float).reshape(-1, w)
        for part, w in (("entries", 4), ("free", 2))
    )
    b, i, j = ent[:, :3].T.astype(np.intp, order="C")
    return Functionals(
        np.r_[0, np.cumsum([len(f.entries) for f in funs])], b, i, j,
        ent[:, 3].copy(), np.r_[0, np.cumsum([len(f.free) for f in funs])],
        fre[:, 0].astype(np.intp), fre[:, 1].copy(),
    )


def _values(
    fun: Functionals, blocks: Sequence[np.ndarray], free: np.ndarray
) -> np.ndarray:
    """Value of every functional.

    Each value is summed from 0.0 in stored order, block entries then free
    entries, as a loop over the entries would; ``np.bincount`` adds its
    weights in input order.
    """
    # per key, X[i, i] on the diagonal and X[i, j] + X[j, i] off it
    sym = [np.where(np.eye(len(x), dtype=bool), x, x + x.T).ravel() for x in blocks]
    sizes = np.array([len(x) for x in blocks] + [0])
    off = np.r_[0, np.cumsum(sizes**2)]
    x = np.concatenate(sym + [[]])[off[fun.blk] + fun.i * sizes[fun.blk] + fun.j]
    at = np.arange(len(fun.indptr) - 1)
    return np.bincount(
        np.repeat(np.r_[at, at], np.r_[np.diff(fun.indptr), np.diff(fun.free_indptr)]),
        weights=np.r_[fun.coef * x, fun.free_coef * np.asarray(free)[fun.free_idx]],
        minlength=at.size,
    )


@dataclass(frozen=True)
class LinearFunctional:
    """One sparse functional over the program variables."""

    entries: tuple[BlockEntry, ...] = ()
    free: tuple[FreeEntry, ...] = ()

    def value(self, blocks: Sequence[np.ndarray], free: np.ndarray) -> float:
        return float(_values(_stack((self,)), blocks, free)[0])


@dataclass(frozen=True)
class Row(LinearFunctional):
    """Equality row: functional == rhs."""

    rhs: float = 0.0


@dataclass(frozen=True)
class _Rows(Sequence):
    """``prog.rows``: row k is built from the program's arrays on access."""

    prog: "RealConicProgram"

    def __len__(self) -> int:
        return self.prog.n_rows

    def __getitem__(self, k: int) -> Row:
        k = range(len(self))[k]
        return Row(*self.prog._tuples(k + 1), rhs=float(self.prog.rhs[k]))


# What a block entry, then a free entry, reports for the first check it
# fails: block id, triangle, repeated key, finiteness.
_FAULTS = (
    ("", "block id {b} out of range",
     "entry ({i},{j}) outside upper triangle of block {b} (size {n})",
     "duplicate key ({b},{i},{j})", "non-finite coefficient"),
    ("", "", "free index {i} out of range", "duplicate free index {i}",
     "non-finite coefficient"),
)


class RealConicProgram:
    """max/min of a linear functional over PSD blocks, free scalars, rows.

    Fields
    ------
    psd_blocks : sizes of the symmetric PSD blocks.
    n_free     : number of free scalar variables.
    rows       : equality rows.
    objective  : the optimized functional.
    sense      : "maximize" or "minimize".
    """

    def __init__(
        self, psd_blocks: tuple[int, ...], n_free: int, rows: Sequence[Row],
        objective: LinearFunctional, sense: str = "maximize",
    ) -> None:
        rows = tuple(rows)
        self.psd_blocks, self.n_free, self.sense = tuple(psd_blocks), n_free, sense
        self.functionals = _stack((objective,) + rows)
        self.rhs = np.array([r.rhs for r in rows], dtype=float)
        self.__post_init__()

    @classmethod
    def from_arrays(
        cls, psd_blocks, n_free, entries, rhs, free=None, sense="maximize"
    ) -> "RealConicProgram":
        """Checked program whose functional f takes the next counts[f] entries
        of ``entries`` (counts, blk, i, j, coef) and of ``free`` (counts, idx, coef)."""
        counts, blk, i, j, coef = entries
        fcounts, idx, fcoef = free or (np.zeros_like(counts), [], [])
        prog = cls.__new__(cls)
        prog.psd_blocks, prog.n_free, prog.sense = tuple(psd_blocks), n_free, sense
        prog.functionals = Functionals(
            np.r_[0, np.cumsum(counts)], blk, i, j, np.asarray(coef, float),
            np.r_[0, np.cumsum(fcounts)], np.asarray(idx, np.intp),
            np.asarray(fcoef, float),
        )
        prog.rhs = np.asarray(rhs, dtype=float)
        prog.__post_init__()
        return prog

    def __post_init__(self) -> None:
        if self.sense not in ("maximize", "minimize"):
            raise ValueError(f"unknown sense {self.sense!r}")
        if self.n_free < 0:
            raise ValueError("n_free must be nonnegative")
        if any(size < 1 for size in self.psd_blocks):
            raise ValueError("PSD block sizes must be positive")
        self._check_entries()
        for k in np.flatnonzero(~np.isfinite(self.rhs))[:1]:
            raise ValueError(f"row {k}: non-finite rhs")

    def _check_entries(self) -> None:
        """Report the first bad entry, functional by functional.

        Within a functional the block entries come before the free ones.
        A free entry (k, c) is checked as the entry (k, k) of a last block
        of size n_free.
        """
        a, nb = self.functionals, len(self.psd_blocks)
        at = np.arange(len(a.indptr) - 1)
        fun = np.repeat(np.r_[at, at], np.r_[np.diff(a.indptr), np.diff(a.free_indptr)])
        free = np.arange(fun.size) >= a.blk.size
        pad = np.full(a.free_idx.size, nb)
        b, i, j = (
            np.r_[x, y].astype(np.int64)
            for x, y in ((a.blk, pad), (a.i, a.free_idx), (a.j, a.free_idx))
        )
        b_ok = free | ((b >= 0) & (b < nb))
        sizes = np.array(self.psd_blocks + (self.n_free,), dtype=np.int64)
        n = sizes[np.where(b_ok, b, nb)]
        tri = (i >= 0) & (i <= j) & (j < n)
        off = np.r_[0, np.cumsum(sizes**2)]
        key = fun * off[-1] + off[np.where(b_ok, b, nb)] + i * n + j
        key = np.where(b_ok & tri, key, -1 - np.arange(key.size))
        # a repeated key is one an earlier entry holds; producers emit keys
        # in increasing order, within the block and the free entries
        rise = np.diff(key) > 0
        rise[a.blk.size - 1:a.blk.size] = True
        dup = np.zeros(key.size, dtype=bool)
        if not rise.all():
            order = np.argsort(key, kind="stable")
            dup[order[1:]] = key[order[1:]] == key[order[:-1]]
        finite = np.isfinite(np.r_[a.coef, a.free_coef])
        code = np.select([~b_ok, ~tri, dup, ~finite], [1, 2, 3, 4])
        if code.any():
            r = np.flatnonzero(code)[np.argmin(fun[code > 0])]
            msg = _FAULTS[int(free[r])][code[r]]
            where = f"row {fun[r] - 1}" if fun[r] else "objective"
            raise ValueError(f"{where}: " + msg.format(b=b[r], i=i[r], j=j[r], n=n[r]))

    def _tuples(self, f: int) -> tuple[tuple, tuple]:
        """(entries, free) of functional f as tuples."""
        a = self.functionals
        e, fe = slice(*a.indptr[f:f + 2]), slice(*a.free_indptr[f:f + 2])
        return (
            tuple(zip(*(x[e].tolist() for x in (a.blk, a.i, a.j, a.coef)))),
            tuple(zip(a.free_idx[fe].tolist(), a.free_coef[fe].tolist())),
        )

    @property
    def rows(self) -> _Rows:
        return _Rows(self)

    @property
    def objective(self) -> LinearFunctional:
        return LinearFunctional(*self._tuples(0))

    @property
    def n_rows(self) -> int:
        return self.rhs.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, RealConicProgram):
            return NotImplemented
        return all(np.array_equal(x, y) for x, y in zip(*(
            (p.psd_blocks, p.n_free, p.sense, p.rhs, *p.functionals)
            for p in (self, other)
        )))

    def row_residuals(
        self, blocks: Sequence[np.ndarray], free: np.ndarray
    ) -> np.ndarray:
        """Vector of functional(vars) - rhs over all rows."""
        return _values(self.functionals, blocks, free)[1:] - self.rhs


@dataclass(frozen=True)
class SolveResult:
    """Outcome of an interior-point solve.

    ``status`` is one of "optimal", "max_iter", "infeasible", "numerical".
    ``objective`` is reported in the program's own sense.  Dual values follow
    the multiplier convention in which, at an optimum of a maximization
    program, sum_k rhs_k * dual_row_values[k] equals the objective.
    ``presolve`` lists, by index, what presolve took out: rows whose
    coefficients are all zero ("dropped_empty"), rows dependent on earlier
    ones ("dropped_dependent") and free scalars fixed at zero ("dropped_free"),
    and the PSD blocks solved through the standard-form dual of a program
    in LMI form ("dualized": every block, or none); there the dropped
    scalars are the dual's dropped rows.
    """

    status: str
    objective: float
    primal_blocks: tuple[np.ndarray, ...]
    free_values: np.ndarray
    dual_row_values: np.ndarray
    residuals: dict[str, float]
    iterations: int = 0
    presolve: dict[str, list[int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.status not in ("optimal", "max_iter", "infeasible", "numerical"):
            raise ValueError(f"unknown status {self.status!r}")
