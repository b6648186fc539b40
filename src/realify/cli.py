"""Command-line front end.

Subcommands: ``generate`` writes a random instance file, ``relax``
assembles one form at an order and exports it as SDPA plus a row-index
sidecar, ``solve`` runs the interior-point solver and writes a result
file, ``compare`` solves both forms and appends a benchmark row to a CSV.

Exit codes: 0 success with an optimal solve where one happens, 2 for a
solve that ended non-optimal (or a failed bound check), 3 for input
errors of any kind.  All output files are deterministic given the flags
and seed; wall times are the one exception.
"""

import argparse
import dataclasses
import json
import sys

from .polynomials import gen_sphere_instance, gen_unitnorm_instance
from .problem_io import load_problem, save_problem
from .relaxation import assemble_hsos, size_report
from .sdpa import export_sdpa
from .solver import SolverOptions, solve
from .validation import compare_reformulations, sample_upper_bound

FAMILIES = {
    "sphere": gen_sphere_instance,
    "unitnorm": gen_unitnorm_instance,
}

REPORT_PREAMBLE = "# realify compare v1"
REPORT_FIELDS = (
    "s",
    "d",
    "n_sdp",
    "m_naive",
    "m_dualview",
    "opt_naive",
    "opt_dualview",
    "time_naive",
    "time_dualview",
    "seed",
)
SIDECAR_VERSION = 2
RESULT_VERSION = 1


class _Parser(argparse.ArgumentParser):
    # Usage mistakes are input errors; keep exit code 2 reserved for
    # non-optimal solves.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(3)


def _instance(family: str, s: int, seed: int):
    gen = FAMILIES.get(family)
    if gen is None:
        raise ValueError(
            f"unknown family {family!r}; supported: {', '.join(sorted(FAMILIES))}"
        )
    return gen(s, seed)


def _options(args) -> SolverOptions:
    return SolverOptions(
        tol_gap=args.tol, tol_primal=args.tol, tol_dual=args.tol
    )


def cmd_generate(args) -> int:
    p = _instance(args.family, args.s, args.seed)
    save_problem(p, args.out)
    print(f"d_min={p.d_min}")
    return 0


def cmd_relax(args) -> int:
    p = load_problem(args.path)
    rep = size_report(p, args.d)
    art = assemble_hsos(p, args.d, args.form)
    export_sdpa(art.program, args.out)

    # column r of T holds row r's keys in key order, so its first key is
    # its class's; a real entry marks a real row, an empty column a
    # structural one
    T, keys = art.row_index.T.tocsc(), art.row_index.canonical()
    rows = []
    for rid in range(art.program.n_rows):
        at = slice(T.indptr[rid], T.indptr[rid + 1])
        if at.start == at.stop:
            rows.append({"row": rid, "structural": True})
            continue
        (beta, gamma), *rest = (keys[k] for k in T.indices[at])
        row = {"row": rid, "beta": list(beta), "gamma": list(gamma),
               "part": "re" if T.data[at.start].real else "im"}
        if rest:
            row["merged"] = [{"beta": list(b), "gamma": list(g)} for b, g in rest]
        rows.append(row)
    with open(str(args.out) + ".rows.json", "w") as fh:
        json.dump({"version": SIDECAR_VERSION, "form": args.form, "order": args.d,
                   "rows": rows}, fh, indent=1)
        fh.write("\n")

    print(
        f"n_sdp={rep['n_sdp']} m={rep['m_' + args.form]} rows={art.program.n_rows}"
    )
    return 0


def cmd_solve(args) -> int:
    p = load_problem(args.path)
    n = args.check_sample
    rep = None if n is None else sample_upper_bound(p, n, seed=0)  # before the solve
    art = assemble_hsos(p, args.d, args.form)
    opts = _options(args)
    res = solve(art.program, opts)
    result = {
        "version": RESULT_VERSION,
        "status": res.status,
        "objective": res.objective,
        "iterations": res.iterations,
        "residuals": res.residuals,
        "presolve": res.presolve,
        "form": args.form,
        "order": args.d,
        "options": dataclasses.asdict(opts),
    }
    if args.out is not None:
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=1)
            fh.write("\n")
    print(f"status={res.status}")
    print(f"optimum={res.objective!r}")
    if rep is not None:
        print(f"sample_bound={rep.best_value!r}")
        if res.objective > rep.best_value + 1e-6:
            print(
                "check failed: relaxation bound exceeds the sampled upper bound",
                file=sys.stderr,
            )
            return 2
    return 0 if res.status == "optimal" else 2


def cmd_compare(args) -> int:
    p = _instance(args.family, args.s, args.seed)
    out = compare_reformulations(p, args.d, _options(args), repeats=args.repeats)
    # str() of a float is its repr, so every value prints exactly
    row = {**out, "s": args.s, "d": args.d, "seed": args.seed}
    path = args.out
    try:
        with open(path) as fh:
            first = fh.readline().rstrip("\n")
        if first != REPORT_PREAMBLE:
            raise ValueError(
                f"{path} is not a compare report (expected {REPORT_PREAMBLE!r})"
            )
        fresh = False
    except FileNotFoundError:
        fresh = True
    with open(path, "a") as fh:
        if fresh:
            fh.write(REPORT_PREAMBLE + "\n")
            fh.write(",".join(REPORT_FIELDS) + "\n")
        fh.write(",".join(str(row[k]) for k in REPORT_FIELDS) + "\n")
    print(
        f"opt_naive={out['opt_naive']!r} opt_dualview={out['opt_dualview']!r} "
        f"abs_diff={out['abs_diff']:.3e}"
    )
    print(
        f"time_naive={out['time_naive']:.3f}s "
        f"time_dualview={out['time_dualview']:.3f}s"
    )
    ok = out["status_naive"] == out["status_dualview"] == "optimal"
    return 0 if ok else 2


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="realify", description=__doc__.split("\n\n")[1])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    gen = sub.add_parser("generate", help="write a random instance file")
    gen.add_argument("--family", required=True, help="sphere or unitnorm")
    gen.add_argument("--s", type=int, required=True, help="number of complex variables")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", required=True, help="problem file to write")
    gen.set_defaults(func=cmd_generate)

    relax = sub.add_parser("relax", help="assemble one form and export SDPA")
    relax.add_argument("--in", dest="path", required=True, help="problem file")
    relax.add_argument("--d", type=int, required=True, help="relaxation order")
    relax.add_argument("--form", choices=("naive", "dualview"), required=True)
    relax.add_argument("--out", required=True, help="SDPA file to write")
    relax.set_defaults(func=cmd_relax)

    slv = sub.add_parser("solve", help="solve one form at an order")
    slv.add_argument("--in", dest="path", required=True, help="problem file")
    slv.add_argument("--d", type=int, required=True, help="relaxation order")
    slv.add_argument("--form", choices=("naive", "dualview"), default="dualview")
    slv.add_argument("--tol", type=float, default=1e-7, help="solver tolerance")
    slv.add_argument("--out", help="result JSON to write")
    slv.add_argument(
        "--check-sample",
        type=int,
        metavar="N",
        help="also sample N feasible points and require bound <= best + 1e-6",
    )
    slv.set_defaults(func=cmd_solve)

    cmp_ = sub.add_parser("compare", help="solve both forms, append a report row")
    cmp_.add_argument("--family", required=True, help="sphere or unitnorm")
    cmp_.add_argument("--s", type=int, required=True)
    cmp_.add_argument("--d", type=int, required=True)
    cmp_.add_argument("--seed", type=int, required=True)
    cmp_.add_argument("--out", required=True, help="CSV report to append to")
    cmp_.add_argument("--tol", type=float, default=1e-7)
    cmp_.add_argument("--repeats", type=int, default=3, help="timed solves per form")
    cmp_.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
