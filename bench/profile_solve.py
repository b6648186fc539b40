"""One-off profile of ``solve`` by solver function.

    python3 bench/profile_solve.py

Solves the order-3 relaxation of sphere (4,3), seed 0, in both real
forms under cProfile and prints, per form, the wall time and the functions of ``realify.solver`` (plus the
LAPACK and BLAS entry points they call) with the largest cumulative time.
cProfile adds a cost to every Python call, which inflates Python-heavy
functions against native ones; use it to find candidates and the
benchmark to measure them.
"""

from __future__ import annotations

import cProfile
import pstats
import time

import run

# sphere (S, D) at seed 0 is profiled; TOP solver functions are listed
S, D = 4, 3
TOP = 12


def main() -> int:
    rf = run.import_realify()
    run.warm_up(rf)
    p = rf.gen_sphere_instance(S, 0)
    opts = rf.SolverOptions(tol_gap=1e-7, tol_primal=1e-7, tol_dual=1e-7)
    for form in ("dualview", "naive"):
        prog = rf.assemble_hsos(p, D, form).program
        prof = cProfile.Profile()
        t0 = time.perf_counter()
        prof.enable()
        res = rf.solve(prog, opts)
        prof.disable()
        wall = time.perf_counter() - t0
        print(f"== sphere ({S},{D}) {form}: {prog.n_rows} rows, "
              f"{res.status}, {res.iterations} iterations, {wall:.2f} s under cProfile")
        stats = pstats.Stats(prof)
        rows = []
        for (path, _, func), (_, _, tt, ct, _) in stats.stats.items():
            if "realify" in path and "solver" in path or func in (
                "cho_factor", "cho_solve", "eigvalsh", "cholesky", "solve_triangular"
            ):
                rows.append((ct, tt, func))
        print(f"{'function':28s} {'cumulative s':>12s} {'share':>6s} {'self s':>8s}")
        for ct, tt, func in sorted(rows, reverse=True)[:TOP]:
            print(f"{func:28s} {ct:12.2f} {ct / wall:6.0%} {tt:8.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
