"""Problem interchange files.

A problem is stored as human-diffable JSON: variable count, objective
terms, and constraints, each term a record on a line of its own,
``{"beta": [...], "gamma": [...], "re": x, "im": y}``.  Coefficients are
plain JSON numbers written in shortest exact decimal form, so a load of a
saved file reproduces every double bit for bit.  Any layout of the same
JSON loads, such as the ``indent=1`` one of older files.  Files may store
only the ``beta <= gamma`` half of a term map; the loader completes the
conjugate half and warns.
"""

import json
import warnings

from .polynomials import CPOP, CPolynomial, Exponent

FORMAT_NAME = "cpop"
FORMAT_VERSION = 1


def _graded(e: Exponent) -> tuple:
    return (sum(e), e)


def _terms_to_records(terms: dict) -> list[dict]:
    records = []
    for beta, gamma in sorted(terms, key=lambda k: (_graded(k[0]), _graded(k[1]))):
        c = terms[(beta, gamma)]
        records.append(
            {
                "beta": list(beta),
                "gamma": list(gamma),
                "re": float(c.real),
                "im": float(c.imag),
            }
        )
    return records


def problem_to_dict(p: CPOP) -> dict:
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "s": p.s,
        "objective": _terms_to_records(p.f.terms),
        "constraints": [
            {"kind": kind, "terms": _terms_to_records(g.terms)}
            for g, kind in p.constraints
        ],
    }


def _records_to_terms(records, where: str) -> dict:
    if not isinstance(records, list):
        raise ValueError(f"{where}: terms must be a list")
    terms: dict = {}
    for t, rec in enumerate(records):
        if not isinstance(rec, dict) or set(rec) != {"beta", "gamma", "re", "im"}:
            raise ValueError(
                f"{where}: each term needs exactly beta, gamma, re, im"
            )
        try:
            beta, gamma = tuple(rec["beta"]), tuple(rec["gamma"])
            for v in (rec["re"], rec["im"]):
                if isinstance(v, bool) or not isinstance(v, (int, float)):
                    raise TypeError(f"coefficient {v!r} is not a JSON number")
            c = complex(float(rec["re"]), float(rec["im"]))
            duplicate = (beta, gamma) in terms
        except (TypeError, ValueError, OverflowError) as exc:
            # a non-list or nested exponent, or a coefficient that is not a
            # number (a string or a bool) or overflows a double
            raise ValueError(f"{where}, term {t}: malformed term ({exc})") from None
        if duplicate:
            raise ValueError(f"{where}: duplicate term key {(beta, gamma)!r}")
        terms[(beta, gamma)] = c
    completed = False
    for (beta, gamma), c in list(terms.items()):
        if (gamma, beta) not in terms:
            terms[(gamma, beta)] = c.conjugate()
            completed = True
    if completed:
        warnings.warn(
            f"{where}: term map stored one triangle only; completed the "
            "conjugate half",
            stacklevel=2,
        )
    return terms


def problem_from_dict(data: dict) -> CPOP:
    if not isinstance(data, dict):
        raise ValueError("problem file must hold a JSON object")
    if data.get("format") != FORMAT_NAME:
        raise ValueError(f"not a {FORMAT_NAME} problem file")
    if data.get("version") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported problem format version {data.get('version')!r}"
        )
    s = data.get("s")
    if not isinstance(s, int) or isinstance(s, bool) or s < 1:
        raise ValueError("field s must be a positive integer")
    f = CPolynomial(s, _records_to_terms(data.get("objective"), "objective"))
    constraints = []
    raw = data.get("constraints")
    if not isinstance(raw, list):
        raise ValueError("constraints must be a list")
    for k, con in enumerate(raw):
        where = f"constraint {k}"
        if not isinstance(con, dict) or set(con) != {"kind", "terms"}:
            raise ValueError(f"{where}: needs exactly kind and terms")
        g = CPolynomial(s, _records_to_terms(con["terms"], where))
        constraints.append((g, con["kind"]))
    return CPOP(s=s, f=f, constraints=tuple(constraints))


def save_problem(p: CPOP, path) -> None:
    # json's C encoder runs only without indent.  The only strings are keys,
    # "cpop" and the kinds, so each "{" opens an object: it starts a line
    text = json.dumps(problem_to_dict(p)).replace("{", "\n{").replace(" \n", "\n")
    with open(path, "w") as fh:
        fh.write(text[1:] + "\n")  # the root object's "{" starts the file


def load_problem(path) -> CPOP:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed problem file: {exc}") from None
    return problem_from_dict(data)
