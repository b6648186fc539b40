"""Problem file save/load round trips and schema validation."""

import json

import pytest

from realify.polynomials import (
    CPOP,
    CPolynomial,
    gen_sphere_instance,
    gen_unitnorm_instance,
)
from realify.problem_io import (
    load_problem,
    problem_from_dict,
    problem_to_dict,
    save_problem,
)


def bits(p: CPOP):
    """s, then each polynomial's kind and its terms with the exact bits of
    both parts (float.hex tells -0.0 from 0.0), in key order."""
    return p.s, [
        (kind, sorted((k, c.real.hex(), c.imag.hex()) for k, c in g.terms.items()))
        for g, kind in ((p.f, "objective"), *p.constraints)
    ]


def test_round_trip_is_exact(tmp_path):
    for p in (gen_sphere_instance(3, seed=5), gen_unitnorm_instance(2, seed=1)):
        path = tmp_path / "p.json"
        save_problem(p, path)
        q = load_problem(path)
        assert q.f.terms == p.f.terms
        assert bits(q) == bits(p)


def test_round_trip_keeps_every_bit_of_awkward_doubles(tmp_path):
    # the smallest subnormal, the largest double, a -0.0 part, thirds
    f = CPolynomial(1, {
        ((1,), (1,)): complex(5e-324, -0.0),
        ((0,), (0,)): complex(-1.7976931348623157e308, 0.0),
        ((0,), (1,)): complex(1 / 3, 2.2250738585072014e-308),
        ((1,), (0,)): complex(1 / 3, -2.2250738585072014e-308),
    })
    g = CPolynomial(1, {((1,), (1,)): complex(-1.0, -0.0), ((0,), (0,)): 0.1})
    p = CPOP(s=1, f=f, constraints=((g, "ge"),))
    path = tmp_path / "p.json"
    save_problem(p, path)
    assert bits(load_problem(path)) == bits(p)


def test_old_indented_layout_still_loads(tmp_path):
    # the layout of json.dumps(..., indent=1), which files were saved in
    # before each term record went on a line of its own
    for p in (gen_sphere_instance(3, seed=5), gen_unitnorm_instance(2, seed=1)):
        path = tmp_path / "old.json"
        path.write_text(json.dumps(problem_to_dict(p), indent=1) + "\n")
        assert bits(load_problem(path)) == bits(p)


def test_saved_file_is_the_dict_with_one_record_per_line(tmp_path):
    p = gen_unitnorm_instance(3, seed=2)
    path = tmp_path / "p.json"
    save_problem(p, path)
    text = path.read_text()
    data = problem_to_dict(p)
    assert json.loads(text) == data
    lines = text.splitlines()
    assert text.endswith("}\n") and all(line == line.rstrip() for line in lines)
    records = [line for line in lines if '"beta"' in line]
    assert len(records) == len(data["objective"]) + sum(
        len(con["terms"]) for con in data["constraints"]
    )
    for line in records:
        assert line.startswith('{"beta"') and line.count('"beta"') == 1
        assert json.loads(line[: line.index("}") + 1])["beta"]


@pytest.mark.parametrize("bad", ["true", "1.0"])
def test_exponent_of_true_or_float_is_rejected_after_an_int_one(bad):
    # [true] and [1.0] load as (True,) and (1.0,), equal to the int (1,)
    text = (
        '{"format": "cpop", "version": 1, "s": 1, "constraints": [], "objective": ['
        '{"beta": [1], "gamma": [1], "re": 1.0, "im": 0.0}, '
        f'{{"beta": [0], "gamma": [{bad}], "re": 0.0, "im": 0.5}}, '
        f'{{"beta": [{bad}], "gamma": [0], "re": 0.0, "im": -0.5}}]}}'
    )
    with pytest.raises(ValueError, match="non-natural entry"):
        problem_from_dict(json.loads(text))


def test_save_is_deterministic(tmp_path):
    p = gen_sphere_instance(2, seed=7)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_problem(p, a)
    save_problem(p, b)
    assert a.read_bytes() == b.read_bytes()


def test_half_stored_terms_are_completed_with_warning():
    data = {
        "format": "cpop",
        "version": 1,
        "s": 1,
        "objective": [
            {"beta": [0], "gamma": [1], "re": 0.5, "im": -2.0},
            {"beta": [1], "gamma": [1], "re": 1.0, "im": 0.0},
        ],
        "constraints": [
            {
                "kind": "eq",
                "terms": [
                    {"beta": [1], "gamma": [1], "re": 1.0, "im": 0.0},
                    {"beta": [0], "gamma": [0], "re": -1.0, "im": 0.0},
                ],
            }
        ],
    }
    with pytest.warns(UserWarning, match="one triangle"):
        p = problem_from_dict(data)
    assert p.f.terms[((1,), (0,))] == 0.5 + 2.0j
    assert p.f.terms[((0,), (1,))] == 0.5 - 2.0j


def test_full_maps_load_without_warning(tmp_path):
    p = gen_unitnorm_instance(1, seed=0)
    path = tmp_path / "p.json"
    save_problem(p, path)
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        load_problem(path)


def test_schema_rejections():
    good = problem_to_dict(gen_sphere_instance(1, seed=0))
    for mangle, msg in (
        (lambda d: d.update(format="other"), "not a cpop"),
        (lambda d: d.update(version=2), "version"),
        (lambda d: d.update(s="3"), "positive integer"),
        (lambda d: d.update(objective={}), "must be a list"),
        (
            lambda d: d["objective"].append(dict(d["objective"][0])),
            "duplicate",
        ),
        (
            lambda d: d["objective"][0].pop("im"),
            "beta, gamma, re, im",
        ),
        (
            lambda d: d["constraints"][0].update(kind="le"),
            "unknown constraint kind",
        ),
        (lambda d: d.update(s=True), "positive integer"),
        (
            lambda d: d["objective"][0].update(beta=1),
            "objective, term 0: malformed term",
        ),
        (
            lambda d: d["objective"][1].update(re=None),
            "objective, term 1: malformed term",
        ),
        (
            lambda d: d["constraints"][0]["terms"][0].update(beta=[[0]]),
            "constraint 0, term 0: malformed term",
        ),
        # coefficients are JSON numbers: no string, no bool
        (
            lambda d: d["objective"][0].update(re="0.5"),
            "objective, term 0: malformed term",
        ),
        (
            lambda d: d["constraints"][0]["terms"][1].update(im=True),
            "constraint 0, term 1: malformed term",
        ),
    ):
        data = json.loads(json.dumps(good))
        mangle(data)
        with pytest.raises(ValueError, match=msg):
            problem_from_dict(data)


def test_malformed_json_reports_cleanly(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match="malformed"):
        load_problem(path)


def test_inconsistent_mirror_is_rejected():
    data = problem_to_dict(gen_sphere_instance(1, seed=0))
    recs = data["objective"]
    flipped = False
    for rec in recs:
        if rec["beta"] != rec["gamma"]:
            rec["im"] += 1.0
            flipped = True
            break
    assert flipped
    with pytest.raises(ValueError, match="Hermitian"):
        problem_from_dict(data)