"""Theta lifts of antisymmetric cusp forms to orthogonal modular forms.

The lift of a cusp form F for the module (A, -Q_S) is the series with
coefficient sum_{n >= 1, r/n dual} c(Q(r/n), r/n) n^(k-1) at each dual
vector r in the closed positive cone, enumerated up to a height bound
against the cone seed.  Signature (1, 1) cones are scanned line by line
with exact rational interval bounds; rank one is a ray.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import _linalg
from .errors import InputError, MismatchError, PrecisionError
from .eisenstein import QExpansion, _frs, factorize
from .quadmod import EvenLattice, discriminant_module, module_dual_coset


@dataclass(frozen=True)
class LorentzianGram:
    """Integer symmetric matrix of signature (1, l-1) with even diagonal."""

    s: tuple
    cone_seed: tuple

    def __post_init__(self):
        s = tuple(tuple(int(x) for x in row) for row in self.s)
        seed = tuple(Fraction(x) for x in self.cone_seed)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "cone_seed", seed)
        ell = len(s)
        if ell == 0 or any(len(row) != ell for row in s):
            raise InputError("Gram matrix must be square and nonempty")
        if len(seed) != ell:
            raise InputError("cone seed has %d coordinates, expected %d"
                             % (len(seed), ell))
        for i in range(ell):
            if s[i][i] % 2:
                raise InputError("Gram diagonal must be even")
            for j in range(ell):
                if s[i][j] != s[j][i]:
                    raise InputError("Gram matrix must be symmetric")
        if _linalg.det(s) == 0:
            raise InputError("Gram matrix is singular")
        if _linalg.inertia(s)[0] != 1:
            raise InputError("signature must be (1, l-1)")
        if self.qvalue(seed) <= 0:
            raise InputError("cone seed must have positive norm")

    @property
    def ell(self) -> int:
        return len(self.s)

    def qvalue(self, v) -> Fraction:
        v = [Fraction(x) for x in v]
        return sum(v[i] * self.s[i][j] * v[j]
                   for i in range(self.ell) for j in range(self.ell)) / 2

    def pairing(self, v, w) -> Fraction:
        v = [Fraction(x) for x in v]
        w = [Fraction(x) for x in w]
        return sum(v[i] * self.s[i][j] * w[j]
                   for i in range(self.ell) for j in range(self.ell))


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
        v = _linalg.mat_vec([list(row) for row in self.gram.s],
                            [Fraction(x) for x in r])
        out = [Fraction(x) for x in v]
        assert all(x.denominator == 1 for x in out)
        return int(out[0]) if self.gram.ell == 1 else tuple(int(x) for x in out)

    def to_json_dict(self):
        items = []
        for r in sorted(self.coeffs):
            c = self.coeffs[r]
            if c:
                items.append({"r": [_frs(x) for x in r], "c": _frs(c)})
        return {
            "s": [list(row) for row in self.gram.s],
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

    Heights are measured by <r, seed> = v . seed.
    """
    seed = gram.cone_seed
    ell = gram.ell
    if ell == 1:
        sigma = seed[0]
        out = []
        v = 1 if sigma > 0 else -1
        while abs(sigma) * abs(v) <= height_bound:
            out.append((v,))
            v += 1 if sigma > 0 else -1
        return out
    if ell != 2:
        raise InputError("cone enumeration implemented for rank 1 and 2 only")
    den = math.lcm(seed[0].denominator, seed[1].denominator)
    w = (int(seed[0] * den), int(seed[1] * den))
    g = math.gcd(w[0], w[1])
    w0 = (w[0] // g, w[1] // g)
    # solve v . w0 = t, t = 1 .. floor(bound * den / g)
    gg, x, y = _xgcd(w0[0], w0[1])
    assert gg == 1
    direction = (-w0[1], w0[0])
    adj = [[gram.s[1][1], -gram.s[0][1]], [-gram.s[0][1], gram.s[0][0]]]
    dets = _linalg.det([list(r) for r in gram.s])
    assert dets < 0
    tmax = math.floor(height_bound * den / g)
    out = []
    for t in range(1, tmax + 1):
        v0 = (x * t, y * t)
        # v(u) = v0 + u d; cone condition v^T adj v >= 0 flips under det < 0
        qa = _quad(adj, direction, direction)
        qb = 2 * _quad(adj, v0, direction)
        qc = _quad(adj, v0, v0)
        # want qa u^2 + qb u + qc <= 0 with qa > 0
        disc = qb * qb - 4 * qa * qc
        if disc < 0:
            continue
        root = math.isqrt(disc)
        lo = (-qb - root) // (2 * qa) - 2
        hi = (-qb + root) // (2 * qa) + 2
        for u in range(lo, hi + 1):
            if qa * u * u + qb * u + qc <= 0:
                out.append((v0[0] + u * direction[0], v0[1] + u * direction[1]))
    return out


def _quad(mat, v, w):
    return sum(v[i] * mat[i][j] * w[j] for i in range(len(v)) for j in range(len(v)))


def _xgcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def theta_lift(form: QExpansion, gram: LorentzianGram, weight: int,
               height_bound) -> OrthogonalExpansion:
    """Lift a cusp form for (A, -Q_S) to an orthogonal cusp form of weight k."""
    height_bound = Fraction(height_bound)
    ell = gram.ell
    neg = tuple(tuple(-x for x in row) for row in gram.s)
    if form.module.lattice.gram != neg:
        raise MismatchError("input form does not live on the module of -S")
    expected = Fraction(weight) + 1 - Fraction(ell, 2)
    if form.weight != expected:
        raise MismatchError("input weight %s, expected %s" % (form.weight, expected))
    sinv = _linalg.inverse([list(row) for row in gram.s])
    module = form.module
    coeffs = {}
    for v in _cone_vectors(gram, height_bound):
        r = tuple(sum(Fraction(sinv[i][j]) * v[j] for j in range(ell))
                  for i in range(ell))
        content = math.gcd(*(abs(x) for x in v)) if any(v) else 0
        if content == 0:
            continue
        total = Fraction(0)
        for n in range(1, content + 1):
            if content % n:
                continue
            lam = tuple(x / n for x in r)
            exponent = gram.qvalue(lam)
            if exponent >= form.prec:
                raise PrecisionError(
                    "input precision %s does not cover exponent %s"
                    % (form.prec, exponent))
            c = form.coefficient(module_dual_coset(module, lam), exponent)
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

