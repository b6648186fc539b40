"""The sparse program carrier: construction checks and functional values."""

import numpy as np
import pytest

from realify import LinearFunctional, RealConicProgram, Row


def program(rows=(), objective=LinearFunctional(), blocks=(3,), n_free=2,
            sense="maximize"):
    return RealConicProgram(
        psd_blocks=blocks, n_free=n_free, rows=tuple(rows),
        objective=objective, sense=sense,
    )


def test_a_well_formed_program_is_accepted():
    prog = program(
        rows=[Row(entries=((0, 0, 0, 1.0), (0, 1, 2, -0.5)),
                  free=((1, 2.0),), rhs=3.0)],
        objective=LinearFunctional(free=((0, 1.0),)),
    )
    assert prog.n_rows == 1


@pytest.mark.parametrize("kwargs, message", [
    (dict(sense="maximise"), r"unknown sense 'maximise'"),
    (dict(n_free=-1), r"n_free must be nonnegative"),
    (dict(blocks=(3, 0)), r"PSD block sizes must be positive"),
])
def test_program_shape_is_checked(kwargs, message):
    with pytest.raises(ValueError, match=message):
        program(**kwargs)


FAULTS = [
    (((1, 0, 0, 1.0),), (), r"row 0: block id 1 out of range"),
    (((-1, 0, 0, 1.0),), (), r"row 0: block id -1 out of range"),
    (((0, 2, 1, 1.0),), (),
     r"row 0: entry \(2,1\) outside upper triangle of block 0 \(size 3\)"),
    (((0, 1, 3, 1.0),), (),
     r"row 0: entry \(1,3\) outside upper triangle of block 0 \(size 3\)"),
    (((0, 0, 1, 1.0), (0, 0, 1, 2.0)), (),
     r"row 0: duplicate key \(0,0,1\)"),
    (((0, 0, 1, float("nan")),), (), r"row 0: non-finite coefficient"),
    (((0, 0, 1, float("inf")),), (), r"row 0: non-finite coefficient"),
    (((0, 0, 1, -float("inf")),), (), r"row 0: non-finite coefficient"),
    ((), ((2, 1.0),), r"row 0: free index 2 out of range"),
    ((), ((-1, 1.0),), r"row 0: free index -1 out of range"),
    ((), ((0, 1.0), (0, 1.0)), r"row 0: duplicate free index 0"),
    ((), ((0, float("nan")),), r"row 0: non-finite coefficient"),
    ((), ((0, -float("inf")),), r"row 0: non-finite coefficient"),
]


@pytest.mark.parametrize("entries, free, message", FAULTS)
def test_every_functional_is_checked(entries, free, message):
    with pytest.raises(ValueError, match=message):
        program(rows=[Row(entries=entries, free=free)])
    with pytest.raises(ValueError, match=message.replace("row 0", "objective")):
        program(objective=LinearFunctional(entries=entries, free=free))


def from_arrays(rows=(), objective=LinearFunctional(), blocks=(3,), n_free=2):
    """program(...), handed over as the arrays the producers build."""
    funs = (objective, *rows)
    ent = [e for f in funs for e in f.entries]
    fre = [e for f in funs for e in f.free]
    return RealConicProgram.from_arrays(
        blocks, n_free,
        ([len(f.entries) for f in funs],
         *(np.array([e[t] for e in ent], dtype=int) for t in range(3)),
         [e[3] for e in ent]),
        [r.rhs for r in rows],
        free=([len(f.free) for f in funs], [e[0] for e in fre],
              [e[1] for e in fre]),
    )


@pytest.mark.parametrize("entries, free, message", FAULTS)
def test_arrays_are_checked_like_tuples(entries, free, message):
    with pytest.raises(ValueError, match=message):
        from_arrays(rows=[Row(entries=entries, free=free)])
    with pytest.raises(ValueError, match=message.replace("row 0", "objective")):
        from_arrays(objective=LinearFunctional(entries=entries, free=free))


def test_the_first_fault_is_reported_in_objective_then_row_order():
    nan = float("nan")
    rows = [
        Row(entries=((0, 0, 0, 1.0),)),
        # block entries come before free ones; the duplicate is caught
        # before its non-finite coefficient
        Row(entries=((0, 0, 1, 1.0), (0, 0, 1, nan)), free=((7, 1.0),)),
        Row(entries=((9, 0, 0, 1.0),)),
    ]
    for build in (program, from_arrays):
        with pytest.raises(ValueError, match=r"^row 1: duplicate key \(0,0,1\)$"):
            build(rows=rows)
        with pytest.raises(ValueError, match=r"^row 1: free index 7 out of range$"):
            build(rows=[rows[0], Row(free=((7, 1.0),)), rows[2]])
        with pytest.raises(ValueError, match=r"^objective: non-finite coefficient$"):
            build(rows=rows, objective=LinearFunctional(free=((0, nan),)))


def test_rows_are_built_from_the_arrays_on_each_access():
    given = [Row(entries=((0, 1, 2, -0.5), (0, 0, 0, 1.0)), free=((1, 2.0),),
                 rhs=3.0), Row(rhs=-1.0)]
    prog = program(rows=given, objective=LinearFunctional(free=((0, 1.0),)))
    assert list(prog.rows) == given
    assert prog.rows[-1] == given[-1] and prog.rows[0] is not prog.rows[0]
    assert prog.objective == LinearFunctional(free=((0, 1.0),))
    assert prog == from_arrays(rows=given,
                               objective=LinearFunctional(free=((0, 1.0),)))
    assert prog != program(rows=given[::-1])


@pytest.mark.parametrize("rhs", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_rhs_is_rejected(rhs):
    good = Row(entries=((0, 0, 0, 1.0),), rhs=1.0)
    with pytest.raises(ValueError, match=r"row 1: non-finite rhs"):
        program(rows=[good, Row(entries=((0, 1, 1, 1.0),), rhs=rhs)])


def entrywise_value(fun, blocks, free):
    total = 0.0
    for b, i, j, c in fun.entries:
        if i == j:
            total += c * blocks[b][i, i]
        else:
            total += c * (blocks[b][i, j] + blocks[b][j, i])
    for k, c in fun.free:
        total += c * free[k]
    return float(total)


def test_values_and_residuals_match_an_entrywise_sum_to_the_bit():
    # Coefficients over sixteen orders of magnitude, so that summing the
    # terms of a row in any other order would change its low bits.
    rng = np.random.default_rng(19)
    sizes = (4, 1, 6)
    n_free = 5

    def coef():
        return float(rng.standard_normal() * 10.0 ** rng.integers(-8, 8))

    def functional():
        keys = [(b, i, j) for b, n in enumerate(sizes)
                for i in range(n) for j in range(i, n)]
        pick = rng.permutation(len(keys))[: rng.integers(0, len(keys))]
        entries = tuple((*keys[t], coef()) for t in pick)
        free = tuple((int(k), coef())
                     for k in rng.permutation(n_free)[: rng.integers(0, 3)])
        return entries, free

    rows = [Row(entries=e, free=f, rhs=coef())
            for e, f in (functional() for _ in range(40))]
    rows.append(Row(rhs=coef()))
    prog = program(rows=rows, objective=LinearFunctional(*functional()),
                   blocks=sizes, n_free=n_free)
    assert any(len(r.entries) > 20 and r.free for r in prog.rows)

    blocks = [rng.standard_normal((n, n)) * 1e3 for n in sizes]
    free = rng.standard_normal(n_free)
    want = np.array([entrywise_value(r, blocks, free) - r.rhs
                     for r in prog.rows])
    got = prog.row_residuals(blocks, free)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    value = prog.objective.value(blocks, free)
    assert type(value) is float
    assert value == entrywise_value(prog.objective, blocks, free)
    assert LinearFunctional().value(blocks, free) == 0.0
    assert program(blocks=sizes).row_residuals(blocks, free).shape == (0,)
