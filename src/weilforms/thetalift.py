"""Theta lifts of antisymmetric cusp forms to orthogonal modular forms.

The lift of a cusp form F for the module (A, -Q_S) is the series with
coefficient sum_{n >= 1, r/n dual} c(Q(r/n), r/n) n^(k-1) at each dual
vector r in the closed positive cone, enumerated up to a height bound
against the cone seed.  The lattice S is a `LorentzianGram`: an
`EvenLattice` of signature (1, l-1) that also carries the cone seed, so
its Gram checks, Q and pairing are the even lattice's.  Cones of every
rank l >= 1 are enumerated one height slice at a time: each slice is an
ellipsoid in the l - 1 coordinates orthogonal to the seed, walked over
exact integer intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import _linalg
from .errors import (DegenerateModuleError, InputError, MismatchError,
                     PrecisionError)
from .eisenstein import QExpansion, _frs, factorize
from .quadmod import EvenLattice, module_dual_coset


@dataclass(frozen=True)
class LorentzianGram(EvenLattice):
    """An even lattice of signature (1, l-1) with a positive-norm cone seed."""

    cone_seed: tuple

    def __post_init__(self):
        try:
            super().__post_init__()
        except DegenerateModuleError as exc:
            raise InputError(str(exc)) from None
        seed = tuple(Fraction(x) for x in self.cone_seed)
        object.__setattr__(self, "cone_seed", seed)
        if len(seed) != self.rank:
            raise InputError("cone seed has %d coordinates, expected %d"
                             % (len(seed), self.rank))
        if _linalg.inertia(self.gram)[0] != 1:
            raise InputError("signature must be (1, l-1)")
        if self.qvalue(seed) <= 0:
            raise InputError("cone seed must have positive norm")


@dataclass
class OrthogonalExpansion:
    """Fourier expansion of an orthogonal modular form on the positive cone.

    Keys of `coeffs` are dual vectors r (tuples of Fractions) with
    <r, cone_seed> in (0, height_bound].
    """

    gram: LorentzianGram
    weight: int
    height_bound: Fraction
    coeffs: dict = field(default_factory=dict)

    def coefficient(self, r) -> Fraction:
        return self.coeffs.get(tuple(Fraction(x) for x in r), Fraction(0))

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.coeffs.values())

    def height(self, r) -> Fraction:
        return self.gram.pairing(r, self.gram.cone_seed)

    def scalar_index(self, r) -> int:
        """Collapse a rank-one key to its integer pairing with the basis vector."""
        v = _linalg.mat_vec([list(row) for row in self.gram.gram],
                            [Fraction(x) for x in r])
        out = [Fraction(x) for x in v]
        assert all(x.denominator == 1 for x in out)
        return int(out[0]) if self.gram.rank == 1 else tuple(int(x) for x in out)

    def to_json_dict(self):
        items = []
        for r in sorted(self.coeffs):
            c = self.coeffs[r]
            if c:
                items.append({"r": [_frs(x) for x in r], "c": _frs(c)})
        return {
            "s": [list(row) for row in self.gram.gram],
            "cone_seed": [_frs(x) for x in self.gram.cone_seed],
            "weight": self.weight,
            "height_bound": _frs(self.height_bound),
            "coeffs": items,
        }

    @classmethod
    def from_json_dict(cls, data):
        gram = LorentzianGram(tuple(tuple(r) for r in data["s"]),
                              tuple(Fraction(x) for x in data["cone_seed"]))
        coeffs = {tuple(Fraction(x) for x in item["r"]): Fraction(item["c"])
                  for item in data["coeffs"]}
        return cls(gram, int(data["weight"]), Fraction(data["height_bound"]), coeffs)


def _cone_vectors(gram: LorentzianGram, height_bound: Fraction):
    """Integer vectors v = S r with r in the closed cone, 0 < height <= bound.

    Heights are measured by <r, seed> = v . seed.  With w the primitive
    integer vector along the seed, the vectors of height t g / den are
    v = t a + sum_k u_k b_k, where a . w = 1 and the b_k span the integer
    vectors orthogonal to w.  The cone condition reads P(v) <= 0 for
    P(v) = -v^T S^-1 v = -(r, r), which is positive definite on w-perp
    because the seed is timelike; so each slice is an ellipsoid in u.
    Written as P = sum_i d_i (x_i + sum_{j>i} mu_ij x_j)^2 in the coordinates
    x = (u_1 .. u_{l-1}, t), it is walked from t down (Fincke-Pohst), each
    coordinate over its exact interval, and the last interval emitted whole.
    """
    ell = gram.rank
    den = math.lcm(*(x.denominator for x in gram.cone_seed))
    w = [int(x * den) for x in gram.cone_seed]
    g = math.gcd(*w)
    # Euclid column steps, keeping w . cols[j] == rest[j] * g
    rest, cols = [x // g for x in w], _linalg.identity(ell)
    for j in range(1, ell):
        while rest[j]:
            q = rest[0] // rest[j]
            rest[0], rest[j] = rest[j], rest[0] - q * rest[j]
            cols[0], cols[j] = cols[j], [x - q * y for x, y in zip(cols[0], cols[j])]
    basis = cols[1:] + [[rest[0] * x for x in cols[0]]]
    sinv = _linalg.inverse([list(row) for row in gram.gram])
    m = [[-sum(b[i] * sinv[i][j] * c[j] for i in range(ell) for j in range(ell))
          for c in basis] for b in basis]
    for i in range(ell):  # m[i][i] = d_i and m[i][j] = mu_ij for j > i
        for j in range(i + 1, ell):
            m[j][i], m[i][j] = m[i][j], m[i][j] / m[i][i]
        for k in range(i + 1, ell):
            for j in range(k, ell):
                m[k][j] -= m[k][i] * m[i][j]
    x = [0] * ell
    out = []

    def walk(k, lo, hi, budget, v):
        if k == 0:
            out.extend(tuple(a + u * b for a, b in zip(v, basis[0]))
                       for u in range(lo, hi + 1))
            return
        offset = sum(m[k][j] * x[j] for j in range(k + 1, ell))
        for u in range(lo, hi + 1):
            x[k] = u
            left = budget - m[k][k] * (u + offset) ** 2
            # |x Q - N| <= sqrt(Q^2 left / d) about the centre N / Q
            c = -sum(m[k - 1][j] * x[j] for j in range(k, ell))
            r = left / m[k - 1][k - 1]
            s = math.isqrt(c.denominator ** 2 * r.numerator // r.denominator)
            walk(k - 1, -((s - c.numerator) // c.denominator),
                 (c.numerator + s) // c.denominator, left,
                 [a + u * b for a, b in zip(v, basis[k])])

    walk(ell - 1, 1, math.floor(height_bound * den / g), 0, [0] * ell)
    return out


def theta_lift(form: QExpansion, gram: LorentzianGram, weight: int,
               height_bound) -> OrthogonalExpansion:
    """Lift a cusp form for (A, -Q_S) to an orthogonal cusp form of weight k."""
    height_bound = Fraction(height_bound)
    ell = gram.rank
    neg = tuple(tuple(-x for x in row) for row in gram.gram)
    if form.module.lattice.gram != neg:
        raise MismatchError("input form does not live on the module of -S")
    expected = Fraction(weight) + 1 - Fraction(ell, 2)
    if form.weight != expected:
        raise MismatchError("input weight %s, expected %s" % (form.weight, expected))
    sinv = _linalg.inverse([list(row) for row in gram.gram])
    vectors = _cone_vectors(gram, height_bound)
    keys = [tuple(_linalg.mat_vec(sinv, v)) for v in vectors]
    norms = [gram.qvalue(r) for r in keys]
    # q(r / n) = q(r) / n^2, so the largest exponent read is the largest q(r)
    if norms and max(norms) >= form.prec:
        raise PrecisionError("input precision %s does not cover exponent %s"
                             % (form.prec, max(norms)))
    module = form.module
    coeffs = {}
    for v, r, norm in zip(vectors, keys, norms):
        content = math.gcd(*v)
        total = Fraction(0)
        for n in range(1, content + 1):
            if content % n:
                continue
            lam = tuple(x / n for x in r)
            c = form.coefficient(module_dual_coset(module, lam), norm / n ** 2)
            if c:
                total += c * Fraction(n) ** (weight - 1)
        if total:
            coeffs[r] = total
    return OrthogonalExpansion(gram, int(weight), height_bound, coeffs)


# -- the Hilbert modular specialization ---------------------------------------


def hilbert_gram(disc: int) -> LorentzianGram:
    return LorentzianGram(((2, 1), (1, (1 - disc) // 2)), (1, 0))


def hilbert_index(r) -> str:
    """The key as an element of the real quadratic field, r1 + r2 w."""
    r1, r2 = (Fraction(x) for x in r)
    return "%s + %s*w" % (r1, r2)


def doi_naganuma(disc: int, form: QExpansion, height_bound) -> OrthogonalExpansion:
    """The lift to Hilbert modular forms for Q(sqrt disc), disc = 1 mod 4."""
    disc = int(disc)
    if disc <= 1 or disc % 4 != 1:
        raise InputError("discriminant must be 1 mod 4 and > 1")
    for p, e in factorize(disc):
        if e > 1:
            raise InputError("discriminant must be fundamental")
    gram = hilbert_gram(disc)
    if form.weight.denominator != 1:
        raise MismatchError("Hilbert lifts need integral weight input")
    return theta_lift(form, gram, int(form.weight), height_bound)

