"""The three workloads: inputs made from a seed, one round, its checks.

A round runs the same operations every time.  ``Round`` times every call
into realify and files the time under (phase, case): the phase is
"setup" or "form.<form>", and a block that is repeated within the round
leaves one sample per repeat.  An operation is one assemble, reformulate,
export or import, or one solve together with its checks.  An operation
fails when a call into realify raises, a solve ends other than "optimal",
or the extraction or recovery after an optimal solve raises; a check that
rejects (or raises on) the output of an operation that did not fail is a
correctness problem instead.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import checks

TOL = 1e-7

# (family, s, d).  Mid-size cases of the fixed list; see README for the
# cases left out and why.
HSOS_CASES = (("sphere", 5, 2), ("unitnorm", 4, 2), ("unitnorm", 3, 3))
HSOS_SMALL = (("sphere", 2, 2), ("unitnorm", 2, 2))
# (n, m): Hermitian n x n unknown, m complex constraints (trace row first).
CSDP_CASES = ((16, 32), (22, 44), (30, 60))
CSDP_SMALL = ((4, 6),)
RELAX_CASES = (
    ("sphere", 9, 2),
    ("sphere", 11, 2),
    ("sphere", 7, 3),
    ("sphere", 4, 4),
    ("unitnorm", 5, 3),
)
RELAX_SMALL = (("sphere", 3, 2), ("unitnorm", 2, 2))

FORMS = ("dualview", "naive")
CSDP_FORMS = ("dualview", "naive", "dual")
# what an operation returns when it failed or one of its inputs did
FAILED = object()


def case_name(family: str, s: int, d: int) -> str:
    return f"{family}-{s}-{d}"


def csdp_name(n: int, m: int) -> str:
    return f"csdp-{n}-{m}"


def program_counts(prog) -> tuple[int, int, int]:
    """(stored coefficients, sum of PSD block sizes, free scalars)."""
    nnz = len(prog.objective.entries) + len(prog.objective.free)
    nnz += sum(len(r.entries) + len(r.free) for r in prog.rows)
    return nnz, sum(prog.psd_blocks), prog.n_free


def typical(samples: dict) -> dict[str, float]:
    """Seconds per phase: the sum over cases of each case's median sample."""
    out: dict[str, float] = defaultdict(float)
    for (phase, _), times in samples.items():
        out[phase] += statistics.median(times)
    return out


class Round:
    """Timings, counts and problems of one round."""

    def __init__(self, rf) -> None:
        self.rf = rf
        self.elapsed = 0.0  # seconds spent inside calls into realify
        # (phase, case) -> seconds of each repeat of that block
        self.samples: dict[tuple[str, str], list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.rows = 0
        self.counts = [0, 0, 0]
        # (case, form, seconds, iterations) per solve
        self.solves: list[tuple[str, str, float, int]] = []
        self.sdpa_bytes = 0

    def call(self, fn, *args):
        """Time one call into realify."""
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.elapsed += time.perf_counter() - t0

    def fail(self, what: str, why: str) -> None:
        """Count the current operation as failed."""
        self.failed += 1
        print(f"operation failed: {what}: {why}", file=sys.stderr)

    def op(self, what: str, fn, *args):
        """One counted operation; FAILED when it failed or an input did."""
        self.attempted += 1
        if any(a is FAILED for a in args):
            self.failed += 1
            return FAILED
        return self.then(what, fn, *args)

    def then(self, what: str, fn, *args):
        """A call that belongs to the operation just attempted.

        A raise fails that operation and returns FAILED; it is counted,
        not fatal.
        """
        try:
            return self.call(fn, *args)
        except Exception as exc:
            self.fail(what, repr(exc))
            return FAILED

    def solve(self, case: str, form: str, prog):
        """A solve operation; returns the result only when it is optimal."""
        opts = self.rf.SolverOptions(tol_gap=TOL, tol_primal=TOL, tol_dual=TOL)
        before = self.elapsed
        res = self.op(f"solve {case} {form}", self.rf.solve, prog, opts)
        if res is FAILED:
            return FAILED
        self.solves.append((case, form, self.elapsed - before, res.iterations))
        if res.status != "optimal":
            self.fail(f"solve {case} {form}", res.status)
            return FAILED
        return res

    def timed(self, phase: str, case: str, body):
        """Run body() and file the time its calls into realify took.

        A block run more than once in a round leaves one sample per run;
        the round counts it once, at the median (see ``typical``).
        """
        before = self.elapsed
        out = body()
        self.samples[(phase, case)].append(self.elapsed - before)
        return out

    def handed_over(self, prog) -> None:
        """Count a program given to the solver or to the SDPA exporter."""
        self.rows += prog.n_rows
        for k, v in enumerate(program_counts(prog)):
            self.counts[k] += v

    def check(self, where: str, fn, *args) -> None:
        """Run one check; a check that raises rejects the output it read."""
        try:
            found = fn(*args)
        except Exception as exc:
            found = [f"{fn.__name__} raised {exc!r}"]
        self.problems.extend(f"{where}: {msg}" for msg in found)

    def wall(self) -> float:
        return sum(typical(self.samples).values())


def _load_and_assemble(rnd: Round, rf, cases, seed: int, workdir: Path):
    """Generate, save, load and assemble both forms of every case."""
    gen = {"sphere": rf.gen_sphere_instance, "unitnorm": rf.gen_unitnorm_instance}
    built = []
    for family, s, d in cases:
        name = case_name(family, s, d)
        path = workdir / f"{name}.json"
        p = rnd.call(gen[family], s, seed)
        rnd.call(rf.save_problem, p, path)
        q = rnd.call(rf.load_problem, path)
        arts = {
            form: rnd.op(f"assemble {name} {form}", rf.assemble_hsos, q, d, form)
            for form in FORMS
        }
        built.append((family, name, s, d, q, arts))
    return built


# ---------------------------------------------------------------------- hsos


class Hsos:
    """Moment-HSOS relaxations solved in both real forms."""

    name = "hsos"
    setup_repeats = 6
    # a naive solve takes three to five times a dualview one
    solve_repeats = {"dualview": 2, "naive": 1}

    def __init__(self, rf, seed: int, small: bool, workdir: Path) -> None:
        self.rf = rf
        self.seed = seed
        self.cases = HSOS_SMALL if small else HSOS_CASES
        self.workdir = workdir
        self.fmin: dict[str, float] = {}

    def round(self, rnd: Round) -> None:
        for _ in range(self.setup_repeats):
            built = rnd.timed(
                "setup", "",
                lambda: _load_and_assemble(rnd, self.rf, self.cases, self.seed, self.workdir),
            )
        opt: dict[str, dict] = defaultdict(dict)
        for family, name, s, _, p, arts in built:
            if name not in self.fmin:
                pts = checks.feasible_points(family, s, checks.SAMPLES, self.seed)
                self.fmin[name] = float(checks.eval_poly(p.f.terms, pts).min())
            for form in FORMS:
                if arts[form] is not FAILED:
                    rnd.handed_over(arts[form].program)

        def solve_and_check(name, s, d, p, form, art):
            res = rnd.solve(name, form, FAILED if art is FAILED else art.program)
            if res is FAILED:
                return
            where = f"{name} {form}"
            y = rnd.then(f"extract {where}", self.rf.extract_moments, art, res)
            if y is FAILED:
                return
            rnd.check(where, checks.check_relaxation_rows, art, s, d)
            rnd.check(where, checks.check_hsos_bound, res.objective, self.fmin[name])
            rnd.check(where, checks.check_mass, art, res, s)
            rnd.check(where, checks.check_moments, y, p, d, res.objective)
            opt[name][form] = res.objective

        # repeats interleave, so a burst of load elsewhere on the machine
        # does not hit every sample of one case
        for rep in range(max(self.solve_repeats.values())):
            for _, name, s, d, p, arts in built:
                for form in FORMS:
                    if rep < self.solve_repeats[form]:
                        rnd.timed(
                            f"form.{form}", name,
                            lambda: solve_and_check(name, s, d, p, form, arts[form]),
                        )
        for name, by_form in opt.items():
            if len(by_form) == len(FORMS):
                rnd.check(name, checks.check_forms_agree, by_form, 1e-5)


# ---------------------------------------------------------------------- csdp


def planted_csdp(n: int, m: int, seed: int):
    """Dense complex constraints, a trace row, a Hermitian PD planted point.

    Returns (C, A, b, H0) as complex arrays: b_k = <A_k, H0> so H0 is
    strictly feasible, and the trace row keeps the feasible set bounded.
    """
    rng = np.random.default_rng([seed, n, m])

    def cn(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    g = cn(n, n)
    h0 = g @ g.conj().T / n + 0.1 * np.eye(n)
    h0 = (h0 + h0.conj().T) / 2.0
    a = [np.eye(n, dtype=complex)] + [cn(n, n) for _ in range(m - 1)]
    b = np.array([checks.pairing(ak, h0) for ak in a])
    c = cn(n, n)
    c = (c + c.conj().T) / 2.0
    return c, a, b, h0


class Csdp:
    """Planted complex SDPs through all three real reformulations."""

    name = "csdp"
    setup_repeats = 2
    solve_repeats = {"dualview": 4, "naive": 2, "dual": 1}

    def __init__(self, rf, seed: int, small: bool, workdir: Path) -> None:
        self.rf = rf
        self.cases = [
            (csdp_name(n, m), planted_csdp(n, m, seed))
            for n, m in (CSDP_SMALL if small else CSDP_CASES)
        ]

    def _reformulate(self, rnd: Round):
        rf = self.rf
        reform = {
            "dualview": rf.reformulate_primal_dualview,
            "naive": rf.reformulate_primal_naive,
            "dual": rf.reformulate_dual,
        }
        built = []
        for name, (c, a, b, _) in self.cases:

            def to_sdp():
                return rf.ComplexSDP(
                    C=rf.HermitianMatrix.from_complex(c),
                    A=tuple(rf.ComplexMatrix.from_complex(ak) for ak in a),
                    b=rf.ComplexVector(b.real.copy(), b.imag.copy()),
                )

            sdp = rnd.call(to_sdp)
            built.append({
                form: rnd.op(f"reformulate {name} {form}", fn, sdp)
                for form, fn in reform.items()
            })
        return built

    def round(self, rnd: Round) -> None:
        for _ in range(self.setup_repeats):
            built = rnd.timed("setup", "", lambda: self._reformulate(rnd))
        opt: dict[str, dict] = defaultdict(dict)
        for progs in built:
            for form in CSDP_FORMS:
                if progs[form] is not FAILED:
                    rnd.handed_over(progs[form])

        def solve_and_check(name, data, form, prog):
            res = rnd.solve(name, form, prog)
            if res is FAILED:
                return
            opt[name][form] = res.objective
            if form == "dualview":
                where = f"{name} {form}"
                h = rnd.then(
                    f"recover {where}", self.rf.recover_complex_solution, res.primal_blocks[0]
                )
                if h is FAILED:
                    return

                def check_recovered():
                    return checks.check_recovered(h.to_complex(), data, res.objective)

                rnd.check(where, check_recovered)

        for rep in range(max(self.solve_repeats.values())):
            for (name, data), progs in zip(self.cases, built):
                for form in CSDP_FORMS:
                    if rep < self.solve_repeats[form]:
                        rnd.timed(
                            f"form.{form}", name,
                            lambda: solve_and_check(name, data, form, progs[form]),
                        )
        for name, by_form in opt.items():
            if len(by_form) == len(CSDP_FORMS):
                rnd.check(name, checks.check_forms_agree, by_form, 1e-6)


# --------------------------------------------------------------------- relax


class Relax:
    """Assembly and SDPA export/import of programs too large to solve here."""

    name = "relax"
    setup_repeats = 1

    def __init__(self, rf, seed: int, small: bool, workdir: Path) -> None:
        self.rf = rf
        self.seed = seed
        self.cases = RELAX_SMALL if small else RELAX_CASES
        self.workdir = workdir

    def round(self, rnd: Round) -> None:
        rf = self.rf
        for _ in range(self.setup_repeats):
            built = rnd.timed(
                "setup", "",
                lambda: _load_and_assemble(rnd, rf, self.cases, self.seed, self.workdir),
            )
        for _, name, s, d, _, arts in built:
            for form in FORMS:
                if arts[form] is not FAILED:
                    rnd.check(f"{name} {form}", checks.check_relaxation_rows, arts[form], s, d)
            if FAILED not in arts.values():
                rnd.check(
                    name, checks.check_embedding, arts["dualview"], arts["naive"], self.seed
                )
            for form in FORMS:
                prog = FAILED if arts[form] is FAILED else arts[form].program
                if prog is not FAILED:
                    rnd.handed_over(prog)
                path = self.workdir / f"{name}.{form}.dat-s"

                def round_trip():
                    done = rnd.op(f"export {name} {form}", rf.export_sdpa, prog, path)
                    return rnd.op(
                        f"import {name} {form}", rf.import_sdpa,
                        FAILED if done is FAILED else path,
                    )

                back = rnd.timed(f"form.{form}", name, round_trip)
                if back is not FAILED:
                    rnd.sdpa_bytes += path.stat().st_size
                    rnd.check(f"{name} {form}", checks.check_roundtrip, prog, back)
                path.unlink(missing_ok=True)


WORKLOADS = {w.name: w for w in (Hsos, Csdp, Relax)}
