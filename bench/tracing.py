"""Spans around calls into realify's layers, kept in memory.

A span is (name, start, end, parent): ``parent`` is the index of the span
that was open when this one started, or None.  Spans are recorded only by
a traced run; the untraced run times its phases with plain clock reads, so
the difference between the two runs is the tracing overhead.

``instrument`` wraps the public entry points of each layer module for the
duration of a ``with`` block.  It rebinds every name under which realify's
own modules hold the function, so calls between layers (``assemble_hsos``
calling ``build_data_matrices``, ``solve`` re-entering itself after twin
fusion) are traced too, and the self time of a span excludes the spans
nested in it.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

# (span name, module, public function) for every traced entry point.  The
# span name is "<layer>.<operation>"; the layer is the module name.
ENTRY_POINTS = (
    ("polynomials.generate", "polynomials", "gen_sphere_instance"),
    ("polynomials.generate", "polynomials", "gen_unitnorm_instance"),
    ("problem_io.save", "problem_io", "save_problem"),
    ("problem_io.load", "problem_io", "load_problem"),
    ("relaxation.data_matrices", "relaxation", "build_data_matrices"),
    ("relaxation.assemble", "relaxation", "assemble_hsos"),
    ("relaxation.extract", "relaxation", "extract_moments"),
    ("complex_sdp.reformulate.dualview", "complex_sdp", "reformulate_primal_dualview"),
    ("complex_sdp.reformulate.naive", "complex_sdp", "reformulate_primal_naive"),
    ("complex_sdp.reformulate.dual", "complex_sdp", "reformulate_dual"),
    ("complex_sdp.recover", "complex_sdp", "recover_complex_solution"),
    ("solver.solve", "solver", "solve"),
    ("sdpa.export", "sdpa", "export_sdpa"),
    ("sdpa.import", "sdpa", "import_sdpa"),
)
# Program construction validates every row; row_residuals re-evaluates
# every row after a solve.  Both are methods of RealConicProgram.
METHOD_POINTS = (
    ("program.validate", "__post_init__"),
    ("program.residuals", "row_residuals"),
)


class Tracer:
    """Nested spans of one single-threaded run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(sid)
        try:
            yield sid
        finally:
            self._open.pop()
            self.spans[sid][2] = time.perf_counter()

    def self_times(self, first: int = 0) -> list[tuple[int, float]]:
        """(span index, duration minus nested spans) for spans[first:]."""
        own = {
            k: self.spans[k][2] - self.spans[k][1]
            for k in range(first, len(self.spans))
        }
        for k in range(first, len(self.spans)):
            parent = self.spans[k][3]
            if parent is not None and parent in own:
                own[parent] -= self.spans[k][2] - self.spans[k][1]
        return sorted(own.items())

    def as_records(self) -> list[dict]:
        t0 = self.spans[0][1] if self.spans else 0.0
        return [
            {"name": n, "start": s - t0, "end": e - t0, "parent": p}
            for n, s, e, p in self.spans
        ]


def span_cost(n: int = 20000) -> float:
    """Seconds one empty span costs on this machine, measured now."""
    tr = Tracer()
    t0 = time.perf_counter()
    for _ in range(n):
        with tr.span("x"):
            pass
    return (time.perf_counter() - t0) / n


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)

    return traced


@contextmanager
def instrument(tracer: Tracer, package):
    """Trace every ENTRY_POINTS / METHOD_POINTS call inside the block."""
    prefix = package.__name__ + "."
    modules = [package] + [
        m for k, m in sys.modules.items() if k.startswith(prefix) and m
    ]
    undo = []
    try:
        for name, mod_name, attr in ENTRY_POINTS:
            orig = getattr(sys.modules[prefix + mod_name], attr)
            traced = _wrap(tracer, name, orig)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, traced)
                        undo.append((mod, key, orig))
        cls = package.RealConicProgram
        for name, attr in METHOD_POINTS:
            orig = cls.__dict__[attr]
            setattr(cls, attr, _wrap(tracer, name, orig))
            undo.append((cls, attr, orig))
        yield
    finally:
        for owner, key, orig in reversed(undo):
            setattr(owner, key, orig)
