"""realify benchmark: one workload, whole rounds for a fixed time.

    python3 bench/run.py --workload hsos --seed 1 --seconds 40 --trace 0

Builds nothing: it imports realify from ``src/`` of the checkout it sits
in and fails (exit code 1, no result) when that is missing.  A run makes
its inputs from ``--seed``, warms the BLAS up with one tiny solve, then
runs rounds of the workload until the next round would end after
``--seconds``; every round runs the same operations, so at least one
round always runs.  Each round's outputs are checked (see checks.py);
the checks are not timed.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A traced run
also writes its spans to ``bench/out/trace-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# (metric, unit) of the end-to-end metrics, in the order printed.
END_TO_END = (
    ("setup_s", "s"),
    ("form_s.dualview", "s"),
    ("form_s.naive", "s"),
    ("wall_s", "s"),
    ("rows", "count"),
    ("peak_rss_mb", "MB"),
)


def per_layer_names() -> list[tuple[str, str]]:
    """(metric, unit) of every per-layer metric; fixed for all workloads."""
    names = []
    for span in dict.fromkeys(n for n, _, _ in tracing.ENTRY_POINTS):
        names.append((span_metric(span), "s"))
    for span, _ in tracing.METHOD_POINTS:
        names.append((span_metric(span), "s"))
    names += [
        ("program.nnz", "count"),
        ("program.psd_dim", "count"),
        ("program.n_free", "count"),
        ("solver.iterations", "count"),
        ("solver.iter_s", "s"),
        ("sdpa.bytes", "B"),
    ]
    cases = [
        (workloads.case_name(*c), workloads.FORMS) for c in workloads.HSOS_CASES
    ] + [(workloads.csdp_name(*c), workloads.CSDP_FORMS) for c in workloads.CSDP_CASES]
    for case, forms in cases:
        for form in forms:
            names += [
                (f"solver.solve_s.{case}.{form}", "s"),
                (f"solver.iterations.{case}.{form}", "count"),
                (f"solver.iter_s.{case}.{form}", "s"),
            ]
    names += [
        ("trace.spans", "count"),
        ("trace.overhead_s", "s"),
        ("trace.wall_s", "s"),
    ]
    return names


def span_metric(span: str) -> str:
    """relaxation.assemble -> relaxation.assemble_s; a third part is a suffix."""
    layer, what, *variant = span.split(".")
    return ".".join([layer, what + "_s", *variant])


def import_realify():
    src = ROOT / "src"
    if not (src / "realify" / "__init__.py").is_file():
        raise SystemExit(f"error: no realify sources under {src}")
    sys.path.insert(0, str(src))
    import realify

    if Path(realify.__file__).resolve().parent != src / "realify":
        raise SystemExit(f"error: imported realify from {realify.__file__}, not {src}")
    return realify


def machine() -> dict:
    """Facts that decide the timings: cores, interpreter, numpy/scipy, BLAS."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("openblas configuration") or blas.get("name"),
        "blas_threads_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
    }


def warm_up(rf) -> None:
    """One tiny solve: the first LAPACK call of a process pays set-up costs."""
    prog = rf.RealConicProgram(
        psd_blocks=(2,),
        n_free=0,
        rows=(rf.Row(entries=((0, 0, 0, 1.0), (0, 1, 1, 1.0)), rhs=1.0),),
        objective=rf.LinearFunctional(entries=((0, 0, 0, 1.0),)),
        sense="minimize",
    )
    rf.solve(prog)


def layer_metrics(rnd, tracer: tracing.Tracer, first: int) -> dict[str, float]:
    """Per-layer figures of one traced round (spans from index first on)."""
    out = {name: 0.0 for name, _ in per_layer_names()}
    for sid, own in tracer.self_times(first):
        name = tracer.spans[sid][0]
        if name == "round":
            continue
        out[span_metric(name)] += own
    out["program.nnz"], out["program.psd_dim"], out["program.n_free"] = rnd.counts
    total_s = sum(dt for _, _, dt, _ in rnd.solves)
    total_it = sum(it for _, _, _, it in rnd.solves)
    out["solver.iterations"] = total_it
    out["solver.iter_s"] = total_s / total_it if total_it else 0.0
    # per case: the median over the round's repeats of one solve
    by_case = {}
    for case, form, dt, it in rnd.solves:
        by_case.setdefault((case, form), []).append((dt, it))
    for (case, form), runs in by_case.items():
        dt = statistics.median(t for t, _ in runs)
        it = statistics.median(i for _, i in runs)
        out[f"solver.solve_s.{case}.{form}"] = dt
        out[f"solver.iterations.{case}.{form}"] = it
        out[f"solver.iter_s.{case}.{form}"] = dt / it if it else 0.0
    out["sdpa.bytes"] = rnd.sdpa_bytes
    out["trace.spans"] = len(tracer.spans) - first
    out["trace.wall_s"] = rnd.wall()
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, small: bool) -> dict:
    rf = import_realify()
    warm_up(rf)
    OUT.mkdir(exist_ok=True)
    tracer = tracing.Tracer() if trace else None
    rounds = []
    layers = []
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        wl = workloads.WORKLOADS[workload](rf, seed, small, Path(tmp))
        with tracing.instrument(tracer, rf) if trace else nullcontext():
            start = time.perf_counter()
            durations = []
            while True:
                t0 = time.perf_counter()
                rnd = workloads.Round(rf)
                first = len(tracer.spans) if trace else 0
                with tracer.span("round") if trace else nullcontext():
                    wl.round(rnd)
                rounds.append(rnd)
                if trace:
                    layers.append(layer_metrics(rnd, tracer, first))
                durations.append(time.perf_counter() - t0)
                elapsed = time.perf_counter() - start
                if elapsed + statistics.median(durations) > seconds:
                    break

    problems = [p for r in rounds for p in r.problems]
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    if trace:
        cost = tracing.span_cost()
        for lay in layers:
            lay["trace.overhead_s"] = lay["trace.spans"] * cost
        units = dict(per_layer_names())
        metrics = {
            name: statistics.median(lay[name] for lay in layers) for name in units
        }
        path = OUT / f"trace-{workload}-{seed}.json"
        path.write_text(json.dumps({
            "workload": workload, "seed": seed, "machine": machine(),
            "spans": tracer.as_records(),
        }))
    else:
        units = dict(END_TO_END)
        pooled = defaultdict(list)
        for r in rounds:
            for key, times in r.samples.items():
                pooled[key] += times
        phases = workloads.typical(pooled)
        metrics = {
            "setup_s": phases["setup"],
            "form_s.dualview": phases["form.dualview"],
            "form_s.naive": phases["form.naive"],
            "wall_s": sum(phases.values()),
            "rows": rounds[0].rows,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    print(
        f"{workload}: seed {seed}, {len(rounds)} rounds in "
        f"{time.perf_counter() - start:.1f} s", file=sys.stderr,
    )
    return {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]} for name in units
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true", help="tiny inputs, for tests")
    args = ap.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.small)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
