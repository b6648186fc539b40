"""Independent checks on relaxation output.

Nothing here trusts the assembly or the solver: upper bounds come from
direct feasible-point sampling, univariate unit-modulus problems get a
dense phase grid, and the two assembled forms are solved side by side to
confirm they agree.  These are the oracles the test suite leans on.
"""

import statistics
import time
from dataclasses import dataclass

import numpy as np

from .polynomials import CPOP, CPolynomial, _modulus_equality, _sphere_equality
from .relaxation import assemble_hsos, size_report
from .solver import SolverOptions, solve

_GRID_CHUNK = 1_000_000


@dataclass(frozen=True)
class SampleReport:
    """Best feasible point found by direct sampling."""

    best_value: float
    best_point: np.ndarray
    samples: int
    seed: int

    def __post_init__(self) -> None:
        pt = np.asarray(self.best_point, dtype=complex)
        if pt.ndim != 1 or pt.size == 0:
            raise ValueError("best_point must be a nonempty complex vector")
        if not np.isfinite(pt).all():
            raise ValueError("best_point contains non-finite entries")
        if not np.isfinite(self.best_value):
            raise ValueError("best_value is not finite")
        if self.samples < 1:
            raise ValueError("sample count must be positive")
        object.__setattr__(self, "best_point", pt)
        object.__setattr__(self, "best_value", float(self.best_value))


def _scaled(g: CPolynomial, h: CPolynomial) -> bool:
    # g = c h for a real c != 0, where h's constant term is -1
    c = -g.terms.get(((0,) * g.s,) * 2, 0j).real
    return c != 0 and g.terms == h.scale(c).terms


def sample_upper_bound(p: CPOP, n_samples: int, seed: int) -> SampleReport:
    """Best objective value over random feasible points.

    Only constraint families whose feasible set admits direct sampling are
    supported: the unit sphere (normalize a complex Gaussian vector) and
    per-variable unit modulus (independent random phases).
    """
    if n_samples < 1:
        raise ValueError("sample count must be positive")
    rng = np.random.default_rng(seed)
    cons = p.constraints
    sphere = len(cons) == 1 and _scaled(cons[0][0], _sphere_equality(p.s))
    if sphere and cons[0][1] == "eq":
        pts = rng.standard_normal((n_samples, p.s)) + 1j * rng.standard_normal(
            (n_samples, p.s)
        )
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    elif (
        len(cons) == p.s
        and all(kind == "eq" for _, kind in cons)
        and sorted(
            i for g, _ in cons for i in range(p.s)
            if _scaled(g, _modulus_equality(p.s, i))
        )
        == list(range(p.s))
    ):
        pts = np.exp(2j * np.pi * rng.random((n_samples, p.s)))
    else:
        raise ValueError(
            "constraint family does not admit direct feasible sampling"
        )
    vals = p.f.eval_many(pts)
    best = int(np.argmin(vals))
    return SampleReport(
        best_value=float(vals[best]),
        best_point=pts[best],
        samples=n_samples,
        seed=seed,
    )


def grid_min_1d(p: CPOP, grid: int) -> float:
    """Minimum of f over z = exp(i*theta) on a uniform theta grid.

    Needs s = 1 with the single constraint |z_1|^2 = 1; refining the grid
    by an integer factor can only lower the result.
    """
    if p.s != 1:
        raise ValueError("grid search needs a univariate problem")
    if (
        len(p.constraints) != 1
        or p.constraints[0][1] != "eq"
        or not _scaled(p.constraints[0][0], _modulus_equality(1, 0))
    ):
        raise ValueError("grid search needs the single constraint |z_1|^2 = 1")
    if grid < 1:
        raise ValueError("grid must have at least one point")
    step = 2.0 * np.pi / grid
    best = np.inf
    for start in range(0, grid, _GRID_CHUNK):
        theta = step * np.arange(start, min(start + _GRID_CHUNK, grid))
        vals = p.f.eval_many(np.exp(1j * theta)[:, None])
        best = min(best, float(vals.min()))
    return best


def compare_reformulations(
    p: CPOP,
    d: int,
    opts: SolverOptions | None = None,
    repeats: int = 3,
) -> dict:
    """Solve both assembled forms of the order-d relaxation side by side.

    Returns the two optima, their absolute difference, per-form statuses,
    and wall times (median over ``repeats`` identical solves).  Row counts
    echo size_report so table rows can be emitted without re-deriving them.
    """
    if repeats < 1:
        raise ValueError("repeats must be positive")
    rep = size_report(p, d)
    out = {k: rep[k] for k in ("n_sdp", "m_naive", "m_dualview")}
    for form in ("naive", "dualview"):
        art = assemble_hsos(p, d, form)
        times = []
        res = None
        for _ in range(repeats):
            t0 = time.perf_counter()
            res = solve(art.program, opts)
            times.append(time.perf_counter() - t0)
        out[f"opt_{form}"] = res.objective
        out[f"status_{form}"] = res.status
        out[f"time_{form}"] = statistics.median(times)
    out["abs_diff"] = abs(out["opt_naive"] - out["opt_dualview"])
    return out
