"""Complex polynomials in z and conj(z), and the random instance families.

A polynomial is a term map (beta, gamma) -> coefficient standing for

    p(z) = sum  c[beta, gamma] * z^beta * conj(z)^gamma,

with beta and gamma exponent tuples.  The map always carries conj(c) at the
swapped key, which is exactly the condition for p to be real-valued on all
of C^s, so minimizing p makes sense.  Monomials are ordered graded
lexicographically (total degree first, then entry-wise comparison), putting
the constant monomial at position 0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Exponent",
    "MonomialBasis",
    "monomial_basis",
    "CPolynomial",
    "CPOP",
    "gen_sphere_instance",
    "gen_unitnorm_instance",
]

Exponent = tuple[int, ...]
TermKey = tuple[Exponent, Exponent]

# ceiling on binomial(s+d, d) before basis construction is refused
MAX_BASIS = 2_000_000


def _compositions(total: int, parts: int):
    # all tuples of `parts` nonnegative ints summing to `total`, in
    # lexicographically increasing order
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


@dataclass(frozen=True)
class MonomialBasis:
    """Graded-lex ordered exponents of degree <= d in s variables."""

    s: int
    d: int
    exponents: tuple[Exponent, ...]
    index: dict[Exponent, int] = field(compare=False)

    def __len__(self) -> int:
        return len(self.exponents)


def monomial_basis(s: int, d: int) -> MonomialBasis:
    """Ordered basis of the monomials z^alpha with |alpha| <= d.

    Size is binomial(s+d, d); position 0 is the zero exponent.  Absurdly
    large requests are refused rather than exhausting memory.
    """
    if s < 1:
        raise ValueError("variable count must be at least 1")
    if d < 0:
        raise ValueError("degree bound must be nonnegative")
    size = math.comb(s + d, d)
    if size > MAX_BASIS:
        raise ValueError(
            f"monomial basis of size {size} exceeds the supported "
            f"maximum {MAX_BASIS}"
        )
    exps = tuple(
        e for t in range(d + 1) for e in _compositions(t, s)
    )
    return MonomialBasis(
        s=s, d=d, exponents=exps, index={e: k for k, e in enumerate(exps)}
    )


def _check_exponent(e, s: int) -> Exponent:
    if not isinstance(e, tuple) or len(e) != s:
        raise ValueError(f"exponent {e!r} is not a {s}-tuple")
    for v in e:
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise ValueError(f"exponent {e!r} has a non-natural entry")
    return e


@dataclass(frozen=True)
class CPolynomial:
    """Hermitian-symmetric term map; real-valued by construction.

    ``terms`` stores both orientations of every term: the coefficient at
    (gamma, beta) must be the exact conjugate of the one at (beta, gamma),
    and diagonal coefficients must be exactly real.  Zero coefficients are
    never stored.
    """

    s: int
    terms: dict[TermKey, complex]

    def __post_init__(self) -> None:
        if self.s < 1:
            raise ValueError("variable count must be at least 1")
        fixed: dict[TermKey, complex] = {}
        # one check per exponent object: (True,) == (1,) is another object
        checked: dict[Exponent, Exponent] = {}
        for key, c in self.terms.items():
            if not isinstance(key, tuple) or len(key) != 2:
                raise ValueError(f"term key {key!r} is not a (beta, gamma) pair")
            for e in key:
                if checked.get(e) is not e:
                    checked[e] = _check_exponent(e, self.s)
            c = complex(c)
            if not (math.isfinite(c.real) and math.isfinite(c.imag)):
                raise ValueError(f"non-finite coefficient at {key!r}")
            if c == 0:
                raise ValueError(f"stored zero coefficient at {key!r}")
            fixed[key] = c
        for (beta, gamma), c in fixed.items():
            mirror = fixed.get((gamma, beta))
            if mirror is None or mirror != c.conjugate():
                raise ValueError(
                    f"term map is not Hermitian-symmetric at {(beta, gamma)!r}"
                )
        object.__setattr__(self, "terms", fixed)

    @property
    def degree(self) -> int:
        return max(
            (sum(b) + sum(g) for b, g in self.terms), default=0
        )

    def __add__(self, other: "CPolynomial") -> "CPolynomial":
        if not isinstance(other, CPolynomial):
            return NotImplemented
        if other.s != self.s:
            raise ValueError("cannot add polynomials in different variables")
        merged = dict(self.terms)
        for key, c in other.terms.items():
            tot = merged.get(key, 0j) + c
            if tot == 0:
                merged.pop(key, None)
            else:
                merged[key] = tot
        return CPolynomial(self.s, merged)

    def scale(self, a: float) -> "CPolynomial":
        """Multiply by a real scalar (keeps Hermitian symmetry)."""
        a = float(a)
        if a == 0.0:
            return CPolynomial(self.s, {})
        return CPolynomial(self.s, {k: a * c for k, c in self.terms.items()})

    def __neg__(self) -> "CPolynomial":
        return self.scale(-1.0)

    def eval(self, z) -> float:
        """Value at a point: ``eval_many`` on a batch of one."""
        z = np.asarray(z, dtype=complex)
        if z.shape != (self.s,):
            raise ValueError(f"expected a point in C^{self.s}, got shape {z.shape}")
        if not np.isfinite(z).all():
            raise ValueError("point contains non-finite entries")
        return float(self.eval_many(z[None])[0])

    def eval_many(self, pts) -> np.ndarray:
        """Values at an (N, s) batch of points; vectorized over N."""
        pts = np.asarray(pts, dtype=complex)
        if pts.ndim != 2 or pts.shape[1] != self.s:
            raise ValueError(f"expected an (N, {self.s}) batch, got {pts.shape}")
        if not np.isfinite(pts).all():
            raise ValueError("batch contains non-finite entries")
        conj = np.conj(pts)
        total = np.zeros(pts.shape[0], dtype=complex)
        for (beta, gamma), c in self.terms.items():
            total += (
                c
                * np.prod(pts ** np.array(beta), axis=1)
                * np.prod(conj ** np.array(gamma), axis=1)
            )
        bad = np.abs(total.imag) > 1e-12 * (1.0 + np.abs(total))
        if bad.any():
            raise ValueError("evaluation left imaginary residue on the batch")
        return total.real


@dataclass(frozen=True)
class CPOP:
    """Polynomial minimization over constraints g >= 0 ("ge") / g = 0 ("eq")."""

    s: int
    f: CPolynomial
    constraints: tuple[tuple[CPolynomial, str], ...] = ()

    def __post_init__(self) -> None:
        if self.f.s != self.s:
            raise ValueError("objective has the wrong variable count")
        object.__setattr__(self, "constraints", tuple(self.constraints))
        for g, kind in self.constraints:
            if g.s != self.s:
                raise ValueError("constraint has the wrong variable count")
            if kind not in ("ge", "eq"):
                raise ValueError(f"unknown constraint kind {kind!r}")
            if not g.terms:
                raise ValueError("constraint polynomial is identically zero")

    @functools.cached_property
    def constraint_orders(self) -> tuple[int, ...]:
        # max(|beta|, |gamma|) over the terms z^beta conj(z)^gamma (Josz and
        # Molzahn); the half-degree only when every term is balanced
        return tuple(_order(g) for g, _ in self.constraints)

    @functools.cached_property
    def d_min(self) -> int:
        return max((_order(self.f), *self.constraint_orders), default=0)


def _order(g: CPolynomial) -> int:
    return max((max(sum(b), sum(c)) for b, c in g.terms), default=0)


# Instance generators.  Each family draws from its own child of the seed
# (stream 0 for the sphere family, 1 for unit-norm) so the two can share
# seed values without sharing randomness, and replay is exact across runs.

_SPHERE_STREAM = 0
_UNITNORM_STREAM = 1


def _family_rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream,)))


def _quadratic_form_objective(basis: MonomialBasis, q: np.ndarray) -> CPolynomial:
    # [z]* Q [z] = sum_{j,k} Q[j,k] z^(alpha_k) conj(z)^(alpha_j); Hermitian
    # Q lands the conjugate at the swapped key by construction
    terms: dict[TermKey, complex] = {}
    exps = basis.exponents
    for j, gamma in enumerate(exps):
        for k, beta in enumerate(exps):
            c = complex(q[j, k])
            if c != 0:
                terms[(beta, gamma)] = c
    return CPolynomial(basis.s, terms)


def _unit_exponent(s: int, i: int) -> Exponent:
    return tuple(1 if k == i else 0 for k in range(s))


def _modulus_equality(s: int, i: int) -> CPolynomial:
    # |z_i|^2 - 1
    e = _unit_exponent(s, i)
    zero = (0,) * s
    return CPolynomial(s, {(e, e): 1.0 + 0j, (zero, zero): -1.0 + 0j})


def _sphere_equality(s: int) -> CPolynomial:
    # sum_i |z_i|^2 - 1
    terms = {(e, e): 1.0 + 0j for e in (_unit_exponent(s, i) for i in range(s))}
    return CPolynomial(s, {**terms, ((0,) * s,) * 2: -1.0 + 0j})


def gen_sphere_instance(s: int, seed: int) -> CPOP:
    """Random quartic over the unit sphere sum |z_i|^2 = 1.

    The objective is [z]_2* Q [z]_2 with Q Hermitian: real standard-normal
    diagonal, off-diagonal real and imaginary parts each standard normal
    scaled by 1/sqrt(2), then symmetrized.
    """
    basis = monomial_basis(s, 2)
    rng = _family_rng(seed, _SPHERE_STREAM)
    w = len(basis)
    m = (rng.standard_normal((w, w)) + 1j * rng.standard_normal((w, w))) / np.sqrt(2.0)
    q = (m + m.conj().T) / 2.0
    np.fill_diagonal(q, rng.standard_normal(w))
    return CPOP(
        s=s,
        f=_quadratic_form_objective(basis, q),
        constraints=((_sphere_equality(s), "eq"),),
    )


def gen_unitnorm_instance(s: int, seed: int) -> CPOP:
    """Random quartic with every variable on the unit circle |z_i| = 1.

    Q is drawn with real and imaginary parts uniform on [0, 1] and then
    Hermitian-symmetrized via (M + M*) / 2.
    """
    basis = monomial_basis(s, 2)
    rng = _family_rng(seed, _UNITNORM_STREAM)
    w = len(basis)
    m = rng.random((w, w)) + 1j * rng.random((w, w))
    q = (m + m.conj().T) / 2.0
    return CPOP(
        s=s,
        f=_quadratic_form_objective(basis, q),
        constraints=tuple((_modulus_equality(s, i), "eq") for i in range(s)),
    )
