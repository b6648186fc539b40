"""Entry-by-entry builders of the realified functionals, kept as test oracles.

Each adder puts, into an accumulator dict keyed by (block, i, j) with
i <= j, the canonical coefficients of one complex data entry
c = cre + i*cim placed at position (p, q) of an n x n complex data matrix
acting on a 2n x 2n real block.  ``complex_sdp.embed_entries`` builds the
same coefficients from its quadrant table as array operations; the tests
require the two to agree to the bit.
"""

import numpy as np


def entries_by_key(data):
    """The data entries of a ``DataMatrixSet`` as
    {(beta, gamma): ((blk, pb, qb, c), ...)}, each key's in stored order."""
    exps = data.bases[0].exponents
    out = {}
    for r, c, *entry in zip(*(x.tolist() for x in data.entries)):
        out.setdefault((exps[r], exps[c]), []).append(tuple(entry))
    return {key: tuple(ents) for key, ents in out.items()}


def accumulate_entries(raw):
    """Merge duplicate (block, i, j) keys, order them, and drop exact zeros.

    Keys with i > j are folded onto (j, i); the coefficient is unchanged
    because the stored value already refers to the symmetric pair.
    """
    acc = {}
    for b, i, j, c in raw:
        key = (b, min(i, j), max(i, j))
        acc[key] = acc.get(key, 0.0) + c
    return tuple((*key, c) for key, c in sorted(acc.items()) if c != 0.0)


def accumulate_free(raw):
    """Merge duplicate free indices, order them, and drop exact zeros."""
    acc = {}
    for k, c in raw:
        acc[k] = acc.get(k, 0.0) + c
    return tuple((k, c) for k, c in sorted(acc.items()) if c != 0.0)


def _add(acc, blk: int, i: int, j: int, c: float) -> None:
    # coefficient c on the single matrix entry X[i, j]
    if c == 0.0:
        return
    if i > j:
        i, j = j, i
    key = (blk, i, j)
    acc[key] = acc.get(key, 0.0) + (c if i == j else 0.5 * c)


def add_dualview_real(acc, blk, n, p, q, cre, cim) -> None:
    """Re-part functional: <A_R, X1+X2> - <A_I, X3-X3'>."""
    _add(acc, blk, p, q, cre)
    _add(acc, blk, n + p, n + q, cre)
    _add(acc, blk, p, n + q, -cim)
    _add(acc, blk, q, n + p, cim)


def add_dualview_imag(acc, blk, n, p, q, cre, cim) -> None:
    """Im-part functional: <A_R, X3-X3'> + <A_I, X1+X2>."""
    _add(acc, blk, p, n + q, cre)
    _add(acc, blk, q, n + p, -cre)
    _add(acc, blk, p, q, cim)
    _add(acc, blk, n + p, n + q, cim)


def add_naive_real(acc, blk, n, p, q, cre, cim) -> None:
    """Re-part functional through the doubled blocks: <A_R,Y11> - <A_I,Y21>."""
    _add(acc, blk, p, q, cre)
    _add(acc, blk, n + p, q, -cim)


def add_naive_imag(acc, blk, n, p, q, cre, cim) -> None:
    """Im-part functional through the doubled blocks: <A_R,Y21> + <A_I,Y11>."""
    _add(acc, blk, n + p, q, cre)
    _add(acc, blk, p, q, cim)


def structural_rows(n):
    """The naive form's n(n+1) structural rows over a 2n x 2n Y, written out
    pair by pair: for each i <= j, Y[i,j] = Y[n+i,n+j] and then
    Y[i,n+j] + Y[j,n+i] = 0, as (i, j, c) canonical entries with c = 1 on
    the diagonal and 0.5 off it, in the order ``structural_constraints``
    gives."""
    rows = []
    for i in range(n):
        for j in range(i, n):
            c = 1.0 if i == j else 0.5
            rows.append(((i, j, c), (n + i, n + j, -c)))
            if i == j:
                rows.append(((i, n + i, 1.0),))
            else:
                rows.append(((i, n + j, c), (j, n + i, c)))
    return rows


ADDERS = {
    "dualview": {"re": add_dualview_real, "im": add_dualview_imag},
    "naive": {"re": add_naive_real, "im": add_naive_imag},
}


def float_bits(prog):
    """Every number of a program, as the bits of a float64."""
    out = []
    for fun in (prog.objective,) + tuple(prog.rows):
        for entry in fun.entries + fun.free:
            out.extend(entry)
        out.append(getattr(fun, "rhs", 0.0))
    return np.array(out, dtype=float).view(np.int64)
