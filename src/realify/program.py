"""Sparse carrier for real SDPs with equality rows and free scalar variables.

A program holds symmetric PSD matrix blocks ``X_0, ..., X_{B-1}`` and free
scalars ``f_0, ..., f_{F-1}``.  Every linear functional (objective and
constraint rows alike) is a sparse list of upper-triangle coefficients:

    value = sum_{(b,i,j,c), i<j} c * (X_b[i,j] + X_b[j,i])
          + sum_{(b,i,i,c)}      c *  X_b[i,i]
          + sum_{(k,c)}          c *  f_k

Storing only ``i <= j`` keys keeps every functional in one canonical shape;
symmetrization of inherently non-symmetric expressions is folded into the
coefficients when a row is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "BlockEntry",
    "FreeEntry",
    "LinearFunctional",
    "Row",
    "RealConicProgram",
    "SolveResult",
    "accumulate_entries",
]

# (block, row, col, coefficient) with row <= col.
BlockEntry = tuple[int, int, int, float]
# (free-variable index, coefficient).
FreeEntry = tuple[int, float]


def accumulate_entries(
    raw: Iterable[tuple[int, int, int, float]],
) -> tuple[BlockEntry, ...]:
    """Merge duplicate (block, i, j) keys, order them, and drop exact zeros.

    Keys with i > j are folded onto (j, i); the coefficient is unchanged
    because the stored value already refers to the symmetric pair.
    """
    acc: dict[tuple[int, int, int], float] = {}
    for b, i, j, c in raw:
        if i > j:
            i, j = j, i
        key = (b, i, j)
        acc[key] = acc.get(key, 0.0) + c
    return tuple(
        (b, i, j, c) for (b, i, j), c in sorted(acc.items()) if c != 0.0
    )


def accumulate_free(raw: Iterable[tuple[int, float]]) -> tuple[FreeEntry, ...]:
    acc: dict[int, float] = {}
    for k, c in raw:
        acc[k] = acc.get(k, 0.0) + c
    return tuple((k, c) for k, c in sorted(acc.items()) if c != 0.0)


def stack_entries(funs: Sequence["LinearFunctional"]):
    """Entries of ``funs`` as arrays, in stored order.

    Returns ``(fun, b, i, j, c)`` over the block entries and ``(fun, k, c)``
    over the free entries, ``fun`` being the functional's position in
    ``funs``.
    """
    ne = [len(f.entries) for f in funs]
    nf = [len(f.free) for f in funs]
    ent = np.fromiter(
        chain.from_iterable(chain.from_iterable(f.entries for f in funs)),
        dtype=float, count=4 * sum(ne),
    ).reshape(-1, 4)
    fre = np.fromiter(
        chain.from_iterable(chain.from_iterable(f.free for f in funs)),
        dtype=float, count=2 * sum(nf),
    ).reshape(-1, 2)
    at = np.arange(len(funs))
    b, i, j = ent[:, :3].astype(np.intp).T
    return (
        (np.repeat(at, ne), b, i, j, ent[:, 3]),
        (np.repeat(at, nf), fre[:, 0].astype(np.intp), fre[:, 1]),
    )


def _values(
    funs: Sequence["LinearFunctional"],
    blocks: Sequence[np.ndarray],
    free: np.ndarray,
) -> np.ndarray:
    """Value of every functional in ``funs``.

    Each value is summed from 0.0 in stored order, block entries then free
    entries, as a loop over the entries would; ``np.bincount`` adds its
    weights in input order.
    """
    (at, b, i, j, c), (fat, k, fc) = stack_entries(funs)
    x = np.empty(c.size)
    for blk in np.flatnonzero(np.bincount(b)).tolist():
        sel = b == blk
        ii, jj, mat = i[sel], j[sel], blocks[blk]
        x[sel] = np.where(ii == jj, mat[ii, jj], mat[ii, jj] + mat[jj, ii])
    terms = np.concatenate([c * x, fc * np.asarray(free)[k]])
    return np.bincount(
        np.concatenate([at, fat]), weights=terms, minlength=len(funs)
    )


@dataclass(frozen=True)
class LinearFunctional:
    """One sparse functional over the program variables."""

    entries: tuple[BlockEntry, ...] = ()
    free: tuple[FreeEntry, ...] = ()

    def value(self, blocks: Sequence[np.ndarray], free: np.ndarray) -> float:
        return float(_values((self,), blocks, free)[0])


@dataclass(frozen=True)
class Row(LinearFunctional):
    """Equality row: functional == rhs."""

    rhs: float = 0.0


@dataclass(frozen=True)
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

    psd_blocks: tuple[int, ...]
    n_free: int
    rows: tuple[Row, ...]
    objective: LinearFunctional
    sense: str = "maximize"

    def __post_init__(self) -> None:
        if self.sense not in ("maximize", "minimize"):
            raise ValueError(f"unknown sense {self.sense!r}")
        if self.n_free < 0:
            raise ValueError("n_free must be nonnegative")
        for size in self.psd_blocks:
            if size < 1:
                raise ValueError("PSD block sizes must be positive")
        for where, fun in (("objective", self.objective), *(
            (f"row {k}", r) for k, r in enumerate(self.rows)
        )):
            self._check_functional(where, fun)
        for k, r in enumerate(self.rows):
            if not math.isfinite(r.rhs):
                raise ValueError(f"row {k}: non-finite rhs")

    def _check_functional(self, where: str, fun: LinearFunctional) -> None:
        seen: set[tuple[int, int, int]] = set()
        for b, i, j, c in fun.entries:
            if not 0 <= b < len(self.psd_blocks):
                raise ValueError(f"{where}: block id {b} out of range")
            n = self.psd_blocks[b]
            if not (0 <= i <= j < n):
                raise ValueError(
                    f"{where}: entry ({i},{j}) outside upper triangle of "
                    f"block {b} (size {n})"
                )
            if (b, i, j) in seen:
                raise ValueError(f"{where}: duplicate key ({b},{i},{j})")
            seen.add((b, i, j))
            if not math.isfinite(c):
                raise ValueError(f"{where}: non-finite coefficient")
        seen_free: set[int] = set()
        for k, c in fun.free:
            if not 0 <= k < self.n_free:
                raise ValueError(f"{where}: free index {k} out of range")
            if k in seen_free:
                raise ValueError(f"{where}: duplicate free index {k}")
            seen_free.add(k)
            if not math.isfinite(c):
                raise ValueError(f"{where}: non-finite coefficient")

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def row_residuals(
        self, blocks: Sequence[np.ndarray], free: np.ndarray
    ) -> np.ndarray:
        """Vector of functional(vars) - rhs over all rows."""
        rhs = np.array([r.rhs for r in self.rows], dtype=float)
        return _values(self.rows, blocks, free) - rhs


@dataclass(frozen=True)
class SolveResult:
    """Outcome of an interior-point solve.

    ``status`` is one of "optimal", "max_iter", "infeasible", "numerical".
    ``objective`` is reported in the program's own sense.  Dual values follow
    the multiplier convention in which, at an optimum of a maximization
    program, sum_k rhs_k * dual_row_values[k] equals the objective.
    """

    status: str
    objective: float
    primal_blocks: tuple[np.ndarray, ...]
    free_values: np.ndarray
    dual_row_values: np.ndarray
    residuals: dict[str, float]
    iterations: int = 0

    def __post_init__(self) -> None:
        if self.status not in ("optimal", "max_iter", "infeasible", "numerical"):
            raise ValueError(f"unknown status {self.status!r}")
