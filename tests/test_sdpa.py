"""SDPA sparse export/import: golden bytes and exact round trips."""

from pathlib import Path

import numpy as np
import pytest

from realify import (
    ComplexMatrix,
    ComplexSDP,
    ComplexVector,
    HermitianMatrix,
    LinearFunctional,
    RealConicProgram,
    Row,
    assemble_hsos,
    export_sdpa,
    gen_sphere_instance,
    gen_unitnorm_instance,
    import_sdpa,
    reformulate_dual,
    reformulate_primal_dualview,
    reformulate_primal_naive,
    solve,
)

from entrywise_oracle import float_bits

DATA = Path(__file__).parent / "data"


def corner_program():
    return RealConicProgram(
        psd_blocks=(1,),
        n_free=0,
        rows=(Row(entries=((0, 0, 0, 1.0),), rhs=1.0),),
        objective=LinearFunctional(entries=((0, 0, 0, 1.0),)),
        sense="maximize",
    )


def mixed_program():
    # two blocks, two free scalars, minimize sense, awkward coefficients
    return RealConicProgram(
        psd_blocks=(2, 3),
        n_free=2,
        rows=(
            Row(
                entries=((0, 0, 1, 0.5), (1, 0, 0, -1.0 / 3.0)),
                free=((0, 2.0),),
                rhs=0.1,
            ),
            Row(
                entries=((1, 1, 2, np.nextafter(1.0, 2.0)),),
                free=((0, -1e-17), (1, 7.25)),
                rhs=-3.75,
            ),
        ),
        objective=LinearFunctional(
            entries=((0, 0, 0, 1.0), (1, 2, 2, -2.5)),
            free=((1, 0.3),),
        ),
        sense="minimize",
    )


def test_golden_fixture_bytes(tmp_path):
    out = tmp_path / "corner.dat-s"
    export_sdpa(corner_program(), out)
    assert out.read_bytes() == (DATA / "corner.dat-s").read_bytes()


def test_golden_fixture_parses_to_same_program():
    assert import_sdpa(DATA / "corner.dat-s") == corner_program()


def test_round_trip_is_exact_with_free_vars_and_minimize(tmp_path):
    prog = mixed_program()
    out = tmp_path / "mixed.dat-s"
    export_sdpa(prog, out)
    assert import_sdpa(out) == prog


def test_round_trip_preserves_solutions(tmp_path):
    prog = RealConicProgram(
        psd_blocks=(2,),
        n_free=1,
        rows=(
            Row(entries=((0, 0, 0, 1.0),), free=((0, -1.0),), rhs=0.0),
            Row(entries=((0, 1, 1, 1.0),), free=((0, -1.0),), rhs=0.0),
            Row(entries=((0, 0, 1, 0.5),), rhs=1.0),
        ),
        objective=LinearFunctional(free=((0, 1.0),)),
        sense="minimize",
    )
    out = tmp_path / "prog.dat-s"
    export_sdpa(prog, out)
    a = solve(prog)
    b = solve(import_sdpa(out))
    assert a.status == b.status == "optimal"
    assert a.objective == b.objective


def test_lower_triangle_entry_rejected(tmp_path):
    out = tmp_path / "bad.dat-s"
    out.write_text("1\n1\n2\n1.0\n1 1 2 1 5.0\n")
    with pytest.raises(ValueError, match="line 5"):
        import_sdpa(out)


def test_malformed_line_reports_line_number(tmp_path):
    out = tmp_path / "bad.dat-s"
    out.write_text("1\n1\n2\n1.0\n1 1 1 oops 5.0\n")
    with pytest.raises(ValueError, match="line 5"):
        import_sdpa(out)


def test_dimension_mismatches_rejected(tmp_path):
    out = tmp_path / "bad.dat-s"
    out.write_text("2\n1\n2\n1.0\n")
    with pytest.raises(ValueError, match="right-hand side"):
        import_sdpa(out)
    out.write_text("1\n2\n2\n1.0\n")
    with pytest.raises(ValueError, match="block size"):
        import_sdpa(out)


def test_empty_constraint_set_accepted(tmp_path):
    out = tmp_path / "feas.dat-s"
    prog = RealConicProgram(
        psd_blocks=(3,),
        n_free=0,
        rows=(),
        objective=LinearFunctional(entries=((0, 0, 0, -1.0),)),
        sense="maximize",
    )
    export_sdpa(prog, out)
    assert import_sdpa(out) == prog


def test_foreign_diagonal_block_imports_as_diag_constrained(tmp_path):
    # no free-vars header: a -2 block stays a block; off-diagonal entries
    # in it are format errors
    out = tmp_path / "diag.dat-s"
    out.write_text("1\n2\n2 -2\n1.0\n0 2 1 1 1.0\n1 1 1 1 1.0\n")
    prog = import_sdpa(out)
    assert prog.psd_blocks == (2, 2)
    assert prog.n_free == 0
    out.write_text("1\n2\n2 -2\n1.0\n0 2 1 2 1.0\n1 1 1 1 1.0\n")
    with pytest.raises(ValueError, match="diagonal"):
        import_sdpa(out)


def test_curly_brace_and_comma_size_lines(tmp_path):
    out = tmp_path / "braces.dat-s"
    out.write_text('"comment\n1\n2\n{2, 3}\n1.0\n1 1 1 1 1.0\n')
    prog = import_sdpa(out)
    assert prog.psd_blocks == (2, 3)


def test_free_var_header_mismatch_rejected(tmp_path):
    out = tmp_path / "bad.dat-s"
    out.write_text("* free-vars: 1\n1\n1\n2\n1.0\n1 1 1 1 1.0\n")
    with pytest.raises(ValueError, match="free-vars"):
        import_sdpa(out)


# (file text, line number, message) of every rejection that names a line;
# each bad line follows a good entry, so the first offender must be found.
HEAD = "1\n2\n2 -2\n1.0\n1 1 1 1 1.0\n"
FREE_HEAD = "* free-vars: 1\n" + HEAD
REJECTIONS = [
    (HEAD + "2 1 1 1 5.0\n", 6, r"matrix index 2 out of range"),
    (HEAD + "1 3 1 1 5.0\n", 6, r"block 3 out of range"),
    (HEAD + "1 1 1 3 5.0\n", 6, r"index 3 exceeds block size 2"),
    (FREE_HEAD + "1 2 1 2 5.0\n", 7,
     r"free-scalar block admits only diagonal \(1,1\)/\(2,2\) entries"),
    ("* produced elsewhere\n* sense: minimise\n" + HEAD, 2,
     r"unknown sense header 'minimise'"),
    ("1\n2\n2 0\n1.0\n1 1 1 1 1.0\n", 3, r"zero block size"),
    (HEAD + "1 1 2 2\n", 6, r"expected 5 fields, got 4"),
]


@pytest.mark.parametrize("text, line, message", REJECTIONS, ids=[
    "matrix", "block", "column", "free-entry", "sense", "zero-size", "fields",
])
def test_every_rejection_names_its_line(tmp_path, text, line, message):
    out = tmp_path / "bad.dat-s"
    out.write_text(text)
    with pytest.raises(ValueError, match=rf"^line {line}: {message}$"):
        import_sdpa(out)


def test_comment_lines_between_entries_keep_line_numbers(tmp_path):
    out = tmp_path / "commented.dat-s"
    body = "1\n1\n2\n1.0\n1 1 1 1 1.0\n* a comment\n\n0 1 2 2 3.0\n"
    out.write_text(body)
    prog = import_sdpa(out)
    assert prog.rows[0] == Row(entries=((0, 0, 0, 1.0),), rhs=1.0)
    assert prog.objective == LinearFunctional(entries=((0, 1, 1, 3.0),))
    out.write_text(body + '"another\n1 1 1 3 5.0\n')
    with pytest.raises(ValueError, match=r"^line 10: index 3 exceeds"):
        import_sdpa(out)


@pytest.mark.parametrize("entries", [
    "1 2 1 1 3.0\n",
    "1 2 1 1 3.0\n1 2 2 2 -2.5\n",
], ids=["lone", "mismatched"])
def test_unpaired_free_scalar_entries_are_rejected(tmp_path, entries):
    # a lone (1,1) entry used to import as half its value
    out = tmp_path / "unpaired.dat-s"
    out.write_text(FREE_HEAD + entries)
    with pytest.raises(ValueError, match=r"^line 7: unpaired free-scalar"):
        import_sdpa(out)


def test_a_pair_off_by_rounding_imports_as_half_its_difference(tmp_path):
    # duplicates summed in file order may round differently on the two
    # sides, so a near pair is accepted; any difference still shows
    out = tmp_path / "near.dat-s"
    out.write_text(FREE_HEAD + "1 2 1 1 3.0\n1 2 2 2 -3.0000000000003\n")
    assert import_sdpa(out).rows[0].free == ((0, 0.5 * (3.0 + 3.0000000000003)),)


def test_separators_and_trailing_comments_in_entries(tmp_path):
    # "{}()," read as blanks, as on the size and rhs lines; '*' or '"'
    # after an entry opens a comment
    out = tmp_path / "punct.dat-s"
    out.write_text("1\n1\n{2}\n(1.0)\n1,1,1,1,1.0\n0 1 (2,2) 3.0 * note\n"
                   '1 1 1 2 0.5 "note\n')
    prog = import_sdpa(out)
    assert prog.rows[0] == Row(entries=((0, 0, 0, 1.0), (0, 0, 1, 0.5)), rhs=1.0)
    assert prog.objective == LinearFunctional(entries=((0, 1, 1, 3.0),))


def built_programs():
    for gen, s in ((gen_sphere_instance, 2), (gen_unitnorm_instance, 3)):
        p = gen(s, 0)
        for form in ("dualview", "naive"):
            yield assemble_hsos(p, 2, form).program
    rng = np.random.default_rng(4)

    def cn():
        return rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))

    c = cn()
    sdp = ComplexSDP(
        C=HermitianMatrix.from_complex((c + c.conj().T) / 2),
        A=tuple(ComplexMatrix.from_complex(cn()) for _ in range(3)),
        b=ComplexVector(rng.standard_normal(3), rng.standard_normal(3)),
    )
    for reformulate in (
        reformulate_primal_dualview, reformulate_primal_naive, reformulate_dual,
    ):
        yield reformulate(sdp)


@pytest.mark.parametrize("prog", list(built_programs()), ids=[
    "sphere-2-2-dualview", "sphere-2-2-naive", "unitnorm-3-2-dualview",
    "unitnorm-3-2-naive", "csdp-4-dualview", "csdp-4-naive", "csdp-4-dual",
])
def test_built_programs_round_trip_to_the_bit(tmp_path, prog):
    out = tmp_path / "prog.dat-s"
    export_sdpa(prog, out)
    back = import_sdpa(out)
    assert back == prog
    assert np.array_equal(float_bits(back), float_bits(prog))
    # the same program built from its rows as tuples
    again = RealConicProgram(
        prog.psd_blocks, prog.n_free, prog.rows, prog.objective, prog.sense
    )
    assert again == prog
    assert np.array_equal(float_bits(again), float_bits(prog))
