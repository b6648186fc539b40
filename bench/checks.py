"""Correctness checks made apart from the program.

Every check recomputes what it needs with numpy from the inputs the
benchmark made: feasible points are sampled here, polynomials are
evaluated here, moment and localizing identities are summed here, and
Hermitian points are embedded here.  Nothing is compared with a stored
copy of an earlier output, and realify's ``validation`` oracles are not
used.  Each function returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import math

import numpy as np

SAMPLES = 10_000


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * (1.0 + abs(a))


# ---------------------------------------------------------------- polynomials


def eval_poly(terms: dict, pts: np.ndarray) -> np.ndarray:
    """Real values of sum c z^beta conj(z)^gamma at an (N, s) batch."""
    conj = np.conj(pts)
    total = np.zeros(pts.shape[0], dtype=complex)
    for (beta, gamma), c in terms.items():
        b = np.asarray(beta)
        g = np.asarray(gamma)
        total += c * np.prod(pts**b, axis=1) * np.prod(conj**g, axis=1)
    return total.real


def feasible_points(family: str, s: int, n: int, seed: int) -> np.ndarray:
    """Points of the unit sphere or of the unit torus in C^s."""
    rng = np.random.default_rng([seed, s, 7])
    if family == "sphere":
        z = rng.standard_normal((n, s)) + 1j * rng.standard_normal((n, s))
        return z / np.linalg.norm(z, axis=1, keepdims=True)
    if family == "unitnorm":
        return np.exp(2j * np.pi * rng.random((n, s)))
    raise ValueError(f"no sampler for family {family!r}")


def exponents(s: int, d: int) -> list[tuple[int, ...]]:
    """All exponents of degree <= d in s variables, degree first."""

    def comps(total, parts):
        if parts == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for tail in comps(total - head, parts - 1):
                yield (head,) + tail

    return [e for t in range(d + 1) for e in comps(t, s)]


def _add(a, b):
    return tuple(x + y for x, y in zip(a, b))


# ---------------------------------------------------------------------- hsos


def check_relaxation_rows(art, s: int, d: int) -> list[str]:
    """The data rows (one per canonical moment key and part) number w^2."""
    w = math.comb(s + d, d)
    if len(art.row_index) != w * w:
        return [f"{art.form}: {len(art.row_index)} data rows, expected w^2={w * w}"]
    return []


def check_hsos_bound(opt: float, fmin_sampled: float) -> list[str]:
    """A lower bound on min f cannot exceed f at a feasible point."""
    if opt > fmin_sampled + 1e-6:
        return [f"bound {opt!r} exceeds sampled feasible value {fmin_sampled!r}"]
    return []


def check_forms_agree(opts: dict, tol: float) -> list[str]:
    """Every form reaches the first form's optimum to tol relative."""
    ref = next(iter(opts.values()))
    if any(not _close(ref, v, tol) for v in opts.values()):
        return [f"optima disagree beyond {tol:g}: {opts!r}"]
    return []


def check_mass(art, res, s: int) -> list[str]:
    """The constant moment, before normalisation, is 1.

    The bound variable enters only the real row of the constant key, with
    coefficient 1, and the objective maximises it, so dual feasibility
    fixes that row's multiplier at 1.  ``extract_moments`` divides by this
    multiplier, so it is read here from the raw dual values.
    """
    zero = (0,) * s
    mass = float(res.dual_row_values[art.row_index[((zero, zero), "re")]])
    if abs(mass - 1.0) > 1e-6:
        return [f"constant moment is {mass!r}, not 1"]
    return []


def check_moments(y: dict, p, d: int, opt: float) -> list[str]:
    """Properties the normalised moment sequence must have.

    The moment matrix M[i, j] = y(a_i, a_j) over the degree-d basis is
    PSD; every equality constraint g satisfies L_y(g z^a conj(z)^b) = 0
    for |a|, |b| <= d - ceil(deg g / 2); and L_y(f) equals the bound.
    """
    out = []
    s = p.s
    basis = exponents(s, d)
    try:
        M = np.array([[y[(a, b)] for b in basis] for a in basis])
    except KeyError as exc:
        return out + [f"moment {exc} missing"]
    M = (M + M.conj().T) / 2.0
    lmin = float(np.linalg.eigvalsh(M)[0])
    if lmin < -1e-6:
        out.append(f"moment matrix min eigenvalue {lmin:.3e} < -1e-6")
    worst = 0.0
    for g, kind in p.constraints:
        if kind != "eq":
            continue
        dg = -(-max(sum(b) + sum(c) for b, c in g.terms) // 2)
        loc = exponents(s, d - dg)
        for a in loc:
            for b in loc:
                val = sum(
                    c * y[(_add(beta, a), _add(gamma, b))]
                    for (beta, gamma), c in g.terms.items()
                )
                worst = max(worst, abs(val))
    if worst > 1e-6:
        out.append(f"localizing identity violated by {worst:.3e} > 1e-6")
    lf = sum(c * y[key] for key, c in p.f.terms.items())
    if abs(lf.imag) > 1e-5 * (1.0 + abs(opt)) or not _close(opt, lf.real, 1e-5):
        out.append(f"L_y(f) = {lf!r} does not match the bound {opt!r}")
    return out


# ---------------------------------------------------------------------- csdp


def pairing(a: np.ndarray, h: np.ndarray) -> complex:
    """Bilinear trace pairing trace(a^T h)."""
    return complex(np.sum(a * h))


def check_recovered(h: np.ndarray, sdp_data, opt: float) -> list[str]:
    """H is Hermitian PSD, feasible, and attains the reported objective."""
    C, A, b, H0 = sdp_data
    out = []
    if np.abs(h - h.conj().T).max() > 1e-12 * (1.0 + np.abs(h).max()):
        out.append("recovered H is not Hermitian")
    lmin = float(np.linalg.eigvalsh((h + h.conj().T) / 2.0)[0])
    if lmin < -1e-6:
        out.append(f"recovered H has eigenvalue {lmin:.3e} < -1e-6")
    scale = 1.0 + float(np.abs(b).max())
    res = max(abs(pairing(a, h) - bk) for a, bk in zip(A, b)) / scale
    if res > 1e-6:
        out.append(f"recovered H violates a constraint by {res:.3e} (scaled)")
    val = pairing(C, h)
    if not _close(opt, val.real, 1e-6):
        out.append(f"<C,H> = {val.real!r} differs from the objective {opt!r}")
    planted = pairing(C, H0).real
    if opt < planted - 1e-6 * (1.0 + abs(planted)):
        out.append(f"optimum {opt!r} below the planted point's {planted!r}")
    return out


# --------------------------------------------------------------------- relax


def row_values(prog, blocks: list, free: np.ndarray) -> np.ndarray:
    """Every row functional at symmetric blocks and free values."""
    rid, blk, ii, jj, cc, fr, fk, fc = ([] for _ in range(8))
    for k, row in enumerate(prog.rows):
        for b, i, j, c in row.entries:
            rid.append(k)
            blk.append(b)
            ii.append(i)
            jj.append(j)
            cc.append(c if i == j else 2.0 * c)
        for kf, c in row.free:
            fr.append(k)
            fk.append(kf)
            fc.append(c)
    rid, blk, ii, jj = (np.asarray(v, dtype=int) for v in (rid, blk, ii, jj))
    cc = np.asarray(cc)
    vals = np.zeros(prog.n_rows)
    for b, X in enumerate(blocks):
        sel = blk == b
        np.add.at(vals, rid[sel], cc[sel] * X[ii[sel], jj[sel]])
    np.add.at(vals, np.asarray(fr, dtype=int), np.asarray(fc) * free[np.asarray(fk, dtype=int)])
    return vals


def random_psd_hermitian(w: int, rng) -> np.ndarray:
    g = rng.standard_normal((w, w)) + 1j * rng.standard_normal((w, w))
    return g @ g.conj().T / w


def embed_dualview(h: np.ndarray) -> np.ndarray:
    re, im = h.real, h.imag
    return np.block([[re / 2, im / 2], [-im / 2, re / 2]])


def embed_naive(h: np.ndarray) -> np.ndarray:
    re, im = h.real, h.imag
    return np.block([[re, -im], [im, re]])


def check_embedding(art_dv, art_nv, seed: int) -> list[str]:
    """Both forms read the same complex functional off embedded points.

    At random Hermitian PSD H_i per block, the dualview data rows at
    [[Re/2, Im/2], [-Im/2, Re/2]] must equal the naive data rows at
    [[Re, -Im], [Im, Re]], and every structural naive row must vanish.
    """
    rng = np.random.default_rng([seed, 11])
    hs = [random_psd_hermitian(n // 2, rng) for _, n in art_dv.blocks]
    free = rng.standard_normal(art_dv.program.n_free)
    v_dv = row_values(art_dv.program, [embed_dualview(h) for h in hs], free)
    v_nv = row_values(art_nv.program, [embed_naive(h) for h in hs], free)
    scale = 1.0 + float(np.abs(v_nv).max())
    out = []
    if art_dv.row_index.keys() != art_nv.row_index.keys():
        return ["the two forms index different data rows"]
    diff = max(
        abs(v_dv[r] - v_nv[art_nv.row_index[key]])
        for key, r in art_dv.row_index.items()
    )
    if diff > 1e-10 * scale:
        out.append(f"dualview and naive data rows differ by {diff:.3e}")
    data = set(art_nv.row_index.values())
    other = [k for k in range(art_nv.program.n_rows) if k not in data]
    resid = float(np.abs(v_nv[other]).max(initial=0.0))
    if resid > 1e-10 * scale:
        out.append(f"structural naive rows do not vanish ({resid:.3e})")
    return out


def check_roundtrip(prog, back) -> list[str]:
    if back != prog:
        return ["import_sdpa(export_sdpa(P)) differs from P"]
    return []
