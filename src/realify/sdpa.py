"""SDPA sparse (".dat-s") export and import for carrier programs.

The file layout is the usual one: comment lines starting with '*' or '"',
then the row count m, the block count, the block size list (negative sizes
mean diagonal blocks), the m right-hand sides, and finally coefficient
quintuples "k blk i j v" with 1-based indices, i <= j, and k = 0 holding
the objective matrix.

A program maps onto the side of the SDPA pair that optimizes the matrix
variable Y: functional k of the program (the objective, then the rows)
becomes matrix k, with each row's rhs on the right-hand-side line.  Two
conventions of the carrier do not exist in the format and are recorded as
machine-readable header comments so the round trip is exact:

* sense: the format maximizes the k = 0 functional; a minimize program is
  exported with the objective negated and "* sense: minimize" in the
  header, and the importer undoes the negation.
* free scalars: each becomes a trailing diagonal block of size -2 holding
  the split f = u - v (entries (1,1,+c) and (2,2,-c)); "* free-vars: N"
  tells the importer to fold the last N such blocks back into scalars,
  whose (1,1) entries must cancel their (2,2) entries per matrix (to 1e-9
  relative, for summation rounding); the coefficient is half the difference.

Foreign diagonal blocks (negative size, no free-vars header) import as PSD
blocks carrying only diagonal entries; that relaxation leaves optima and
row values unchanged because off-diagonal positions are never referenced.

Coefficients are written with repr, which round-trips binary doubles
exactly.  The importer reads "{}()," as blanks ("1,1,1,1,1.0" is an
entry) and a '*' or '"' after an entry as a comment; it reads all entries
in one ``np.loadtxt`` call and checks them by vector tests, each reporting
its first offending line.
"""

from __future__ import annotations

import re
import warnings
from itertools import islice
from pathlib import Path

import numpy as np

from .program import RealConicProgram

__all__ = ["export_sdpa", "import_sdpa"]

# A "* sense: ..." or "* free-vars: ..." comment, anywhere in the file.
_HEADER = re.compile(r"^[^\S\n]*\*[* ]*(sense|free-vars):(.*)$", re.M)
# Separators besides blanks, as in "{2, -2}" block size lists.
_BLANKS = str.maketrans("{}(),", "     ")
_ENTRY = np.dtype([("k", "i8"), ("b", "i8"), ("i", "i8"), ("j", "i8"), ("v", "f8")])


def export_sdpa(prog: RealConicProgram, path) -> None:
    """Write prog at path in SDPA sparse format; see the module docstring."""
    a = prog.functionals
    nb = len(prog.psd_blocks)
    neg = -1.0 if prog.sense == "minimize" else 1.0
    lines = [
        "* produced by realify; SDPA sparse format",
        f"* sense: {prog.sense}",
        f"* free-vars: {prog.n_free}",
        str(prog.n_rows),
        str(nb + prog.n_free),
        " ".join([str(n) for n in prog.psd_blocks] + ["-2"] * prog.n_free),
        " ".join(map(repr, prog.rhs.tolist())),
    ]
    at = np.arange(prog.n_rows + 1)
    k, fk = (np.repeat(at, np.diff(ptr)) for ptr in (a.indptr, a.free_indptr))
    v = np.where(k == 0, neg * a.coef, a.coef)
    fv = np.where(fk == 0, neg * a.free_coef, a.free_coef)
    body = list(map(
        "{} {} {} {} {!r}".format, k.tolist(), (a.blk + 1).tolist(),
        (a.i + 1).tolist(), (a.j + 1).tolist(), v.tolist(),
    )) + list(map(
        "{0} {1} 1 1 {2!r}\n{0} {1} 2 2 {3!r}".format, fk.tolist(),
        (nb + a.free_idx + 1).tolist(), fv.tolist(), (-fv).tolist(),
    ))
    # matrix by matrix, its block entries then its free pairs
    order = np.argsort(np.concatenate([k, fk]), kind="stable")
    lines += [body[t] for t in order.tolist()]
    Path(path).write_text("\n".join(lines) + "\n")


def _entry_lines(body: list[str], first: int):
    """(line number, fields) of the lines of body that np.loadtxt reads."""
    for ln, raw in enumerate(body, start=first):
        toks = raw.split("*", 1)[0].split()
        if toks:
            yield ln, toks


def import_sdpa(path) -> RealConicProgram:
    """Parse an SDPA sparse file back into a carrier program."""
    # '"' opens a comment as '*' does; one comment character keeps loadtxt in C
    text = Path(path).read_text().replace('"', "*")
    sense, n_free = "maximize", 0
    for hit in _HEADER.finditer(text):
        name, value = hit.group(1), hit.group(2).strip()
        if name == "sense" and value in ("maximize", "minimize"):
            sense = value
        elif name == "free-vars" and value.isdigit():
            n_free = int(value)
        else:
            ln = text.count("\n", 0, hit.start()) + 1
            raise ValueError(f"line {ln}: unknown {name} header {value!r}")

    lines = text.translate(_BLANKS).splitlines()
    head = ((ln, raw.split()) for ln, raw in enumerate(lines, start=1)
            if raw.strip() and raw.lstrip()[0] != "*")

    def field(what, parse):
        ln, toks = next(head, (0, None))
        try:
            return ln, parse(toks)
        except (ValueError, IndexError, TypeError):
            msg = f"line {ln}: {what}" if ln else "unexpected end of file"
            raise ValueError(msg) from None

    _, m = field("expected the row count", lambda t: int(t[0]))
    _, nblocks = field("expected the block count", lambda t: int(t[0]))
    ln, sizes = field("bad block size list", lambda t: [int(x) for x in t])
    if len(sizes) != nblocks:
        raise ValueError(f"line {ln}: {len(sizes)} block sizes for {nblocks} blocks")
    if 0 in sizes:
        raise ValueError(f"line {ln}: zero block size")
    rhs = []
    if m > 0:
        ln, rhs = field("bad right-hand side", lambda t: [float(x) for x in t])
        if len(rhs) != m:
            raise ValueError(f"line {ln}: {len(rhs)} right-hand sides for {m} rows")
    else:
        # tolerate and consume one (possibly empty) rhs line
        nxt = next((t for t in range(ln, len(lines)) if lines[t].lstrip()[:1] != "*"),
                   len(lines))
        if nxt < len(lines) and len(lines[nxt].split()) != 5:
            ln = nxt + 1

    # Trailing -2 blocks declared in the header fold back to free scalars.
    if n_free:
        if n_free > nblocks or any(s != -2 for s in sizes[-n_free:]):
            raise ValueError("free-vars header does not match trailing -2 blocks")
        sizes = sizes[:-n_free]
    nb = len(sizes)
    blocks = np.abs(sizes + [0])
    diag_only = np.array(sizes + [0]) < 0

    body = lines[ln:]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a body without entries
            ent = np.loadtxt(body, dtype=_ENTRY, comments="*", ndmin=1)
    except ValueError:
        for bad, toks in _entry_lines(body, ln + 1):
            if len(toks) != 5:
                msg = f"expected 5 fields, got {len(toks)}"
                raise ValueError(f"line {bad}: {msg}") from None
            try:
                [int(t) for t in toks[:4]] + [float(toks[4])]
            except ValueError:
                raise ValueError(f"line {bad}: malformed entry") from None
        raise
    k, blk, i, j, v = (ent[f] for f in _ENTRY.names)

    def line_of(r):
        return next(islice(_entry_lines(body, ln + 1), r, None))[0]

    # every check at once; an entry reports the first of its checks that fails
    free = blk > nb
    b = np.clip(blk - 1, 0, nb)
    n = blocks[b]
    faults = (
        ((k < 0) | (k > m), "matrix index {k} out of range"),
        ((blk < 1) | (blk > nb + n_free), "block {blk} out of range"),
        (i > j, "lower-triangle entry (i={i} > j={j})"),
        (i < 1, "index {i} below 1"),
        (free & ((i != j) | (i > 2)),
         "free-scalar block admits only diagonal (1,1)/(2,2) entries"),
        (~free & (j > n), "index {j} exceeds block size {n}"),
        (~free & diag_only[b] & (i != j), "off-diagonal entry in diagonal block"),
    )
    code = np.select([f for f, _ in faults], range(1, len(faults) + 1))
    for r in np.flatnonzero(code)[:1]:
        msg = faults[code[r] - 1][1].format(k=k[r], blk=blk[r], i=i[r], j=j[r], n=n[r])
        raise ValueError(f"line {line_of(r)}: {msg}")
    obj_sign = -1.0 if sense == "minimize" else 1.0

    # block entries, ordered by (matrix, block, i, j); duplicates are
    # summed in file order and exact zeros dropped
    at = np.flatnonzero(~free)
    off = np.r_[0, np.cumsum(blocks**2)]
    key = k[at] * off[-1] + off[b[at]] + (i[at] - 1) * n[at] + j[at] - 1
    order = np.argsort(key, kind="stable")
    at, key = at[order], key[order]
    first = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    c = np.where(k[at] == 0, obj_sign, 1.0) * v[at]
    c = np.add.reduceat(c, first) if at.size else c
    at, c = at[first[c != 0.0]], c[c != 0.0]

    # free entries: per (matrix, scalar) the (1,1) entries sum to c and the
    # (2,2) entries to -c, up to the rounding of summing duplicates
    fat = np.flatnonzero(free)
    scalar, lead, inv = np.unique(
        k[fat] * n_free + blk[fat] - nb - 1, return_index=True, return_inverse=True
    )
    s = np.bincount(2 * inv + i[fat] - 1, v[fat], 2 * scalar.size)
    s11, s22 = s.reshape(-1, 2).T
    bad = np.abs(s11 + s22) > 1e-9 * np.maximum(np.abs(s11), np.abs(s22))
    for t in np.flatnonzero(bad)[:1]:
        raise ValueError(
            f"line {line_of(fat[lead[t]])}: unpaired free-scalar entries: "
            f"(1,1) sums to {float(s11[t])!r}, (2,2) to {float(s22[t])!r}"
        )
    fk, fidx = np.divmod(scalar, max(n_free, 1))
    fc = np.where(fk == 0, obj_sign, 1.0) * (0.5 * (s11 - s22))
    fk, fidx, fc = fk[fc != 0.0], fidx[fc != 0.0], fc[fc != 0.0]
    return RealConicProgram.from_arrays(
        tuple(blocks[:nb].tolist()), n_free,
        (np.bincount(k[at], minlength=m + 1), b[at], i[at] - 1, j[at] - 1, c), rhs,
        free=(np.bincount(fk, minlength=m + 1), fidx, fc), sense=sense,
    )
