"""Exact Fourier coefficients of vector-valued Eisenstein series.

The weight k series attached to e_0 for the dual Weil representation of an
even lattice L has one Euler product per coefficient (Bruinier-Kuss 2001).
With kappa = k - h, h = 0 at integral and 1/2 at half-integral weight,

    c(n, gamma) = eps * C(kappa, chi) * A(n) * prod_(p | 2 det num(n)) alpha_p E_p,

    E_p = 1 / (1 - chi(p) p^-kappa)                      (h = 0),
    E_p = (1 - chi(p) p^-kappa) / (1 - p^-2kappa)        (h = 1/2).

alpha_p is the local density at p: counted directly at bad primes
(p | 2 det) on the counting lattice (-L) + U^j, padded with hyperbolic
planes U to rank 2k, and in closed form at the other primes of n.  chi is
the character of the square class of (-1)^kappa det, times 2n at h = 1/2.
At every other prime alpha_p = 1 / E_p, so the E_p over all primes leave
1 / L(kappa, chi) at h = 0 and L(kappa, chi) / zeta(2 kappa) at h = 1/2.
The functional equation turns these into L(1 - kappa, chi), exact from
generalized Bernoulli numbers, inside the n-free constant C(kappa, chi),
which is computed once per character and weight.  A(n) = n^(kappa-1) at
h = 0 and n^kappa / sqrt(2n |det| / f) at h = 1/2, f the conductor of chi.
The sign eps is +1 when 2k + sig(A, Q) = 0 mod 8 and -1 when it is 4 mod 8.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .errors import (InputError, NumericInconsistencyError, PrecisionError,
                     UnsupportedWeightError)
from .localdensity import DensityEngine
from .quadmod import (EvenLattice, FiniteQuadraticModule, _mod1,
                      discriminant_module, require_integers, weil_matrices)
from . import _linalg

# -- elementary number theory ----------------------------------------------


@lru_cache(maxsize=None)
def _bernoulli_list(n):
    """Bernoulli numbers B_0..B_n (B_1 = -1/2)."""
    out = [Fraction(1)]
    for m in range(1, n + 1):
        acc = Fraction(0)
        for j in range(m):
            acc += Fraction(math.comb(m + 1, j)) * out[j]
        out.append(-acc / (m + 1))
    return out


def bernoulli_number(n: int) -> Fraction:
    return _bernoulli_list(n)[n]


def factorize(m: int):
    """Trial-division factorization of |m| as a list of (p, e)."""
    m = abs(int(m))
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if m > 1:
        out.append((m, 1))
    return out


def prime_divisors(m: int):
    return [p for p, _ in factorize(m)]


def squarefree_kernel(m: int) -> int:
    sign = -1 if m < 0 else 1
    out = 1
    for p, e in factorize(m):
        if e % 2:
            out *= p
    return sign * out


def fundamental_discriminant_of(x) -> int:
    """Fundamental discriminant of the square class of a nonzero rational."""
    x = Fraction(x)
    s = squarefree_kernel(x.numerator * x.denominator)
    return s if s % 4 == 1 else 4 * s


def _jacobi(a: int, n: int) -> int:
    # n odd positive
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def kronecker(a: int, n: int) -> int:
    if n == 0:
        return 1 if abs(a) == 1 else 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    e = 0
    while n % 2 == 0:
        n //= 2
        e += 1
    if e:
        if a % 2 == 0:
            return 0
        if e % 2 == 1 and a % 8 in (3, 5):
            result = -result
    return result * _jacobi(a, n)


class KroneckerCharacter:
    """The real character attached to a fundamental discriminant."""

    def __init__(self, disc: int):
        self.disc = int(disc)
        self.conductor = max(abs(self.disc), 1)

    def __call__(self, m: int) -> int:
        return kronecker(self.disc, m)

    @property
    def is_odd(self) -> bool:
        return self.disc < 0

    def __repr__(self):
        return "KroneckerCharacter(%d)" % self.disc


def generalized_bernoulli(chi: KroneckerCharacter, n: int) -> Fraction:
    """B_{n,chi}, so that L(1-n, chi) = -B_{n,chi} / n.

    Expanding f^(n-1) sum_a chi(a) B_n(a/f) over the Bernoulli polynomial
    gives sum_j C(n,j) B_j f^(j-1) S_(n-j) with integer power sums
    S_m = sum_(a <= f) chi(a) a^m.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return _generalized_bernoulli(chi.disc, n)


@lru_cache(maxsize=None)
def _generalized_bernoulli(disc: int, n: int) -> Fraction:
    # for f > 1, chi(f - a) = chi(-1) chi(a) and B_n(1 - x) = (-1)^n B_n(x)
    # make the terms at a and f - a equal or opposite, so the sum is
    # 1 + chi(-1) (-1)^n times the sum over a <= f/2
    f = max(abs(disc), 1)
    chi_neg1 = -1 if disc < 0 else 1
    top, pair = (f // 2, 1 + chi_neg1 * (-1) ** n) if f > 1 else (1, 1)
    # chi(a) for a <= top by complete multiplicativity: kronecker at primes,
    # chi(q) chi(a/q) through the smallest prime factor q of a, which the
    # descending sieve leaves in place
    spf = list(range(top + 1))
    for q in range(math.isqrt(top), 1, -1):
        spf[q * q::q] = [q] * len(range(q * q, top + 1, q))
    chi = [0, 1] + [0] * (top - 1)
    for a in range(2, top + 1):
        q = spf[a]
        chi[a] = kronecker(disc, a) if q == a else chi[q] * chi[a // q]
    support = [a for a in range(1, top + 1) if chi[a]]
    terms = [chi[a] for a in support]
    sums = []
    for _ in range(n + 1):
        sums.append(sum(terms))
        terms = list(map(operator.mul, terms, support))
    bs = _bernoulli_list(n)
    return pair * sum(math.comb(n, j) * bs[j] * Fraction(f) ** (j - 1)
                      * sums[n - j] for j in range(n + 1))


def lvalue_at_negative(chi: KroneckerCharacter, n: int) -> Fraction:
    """L(1 - n, chi), exact."""
    return -generalized_bernoulli(chi, n) / n


def _gamma_quotient(kappa: int, delta: int) -> Fraction:
    # (-1)^g 4^g g! / ((2g)! (g + delta - 1)!) with g = (kappa - delta)/2
    g = (kappa - delta) // 2
    num = Fraction((-1) ** g * 4 ** g * math.factorial(g))
    return num / (math.factorial(2 * g) * math.factorial(g + delta - 1))


def sqrt_exact(x) -> Fraction:
    x = Fraction(x)
    if x < 0:
        raise ValueError("negative radicand")
    a = math.isqrt(x.numerator)
    b = math.isqrt(x.denominator)
    if a * a != x.numerator or b * b != x.denominator:
        raise ValueError("%s is not a rational square" % x)
    return Fraction(a, b)


# -- good-prime Euler factors ------------------------------------------------


def good_prime_local_factor(p: int, n, rank: int, det_m: int) -> Fraction:
    """Closed-form local density at p for p not dividing 2 * det * den(n).

    `det_m` is the determinant (with sign) of the counting lattice of the
    given rank.  p is odd and prime to the discriminant D of each character
    below, so chi(p) is kronecker(D, p) on D itself.
    """
    n = Fraction(n)
    if n.denominator % p == 0 or (2 * det_m) % p == 0:
        raise ValueError("p is not a good prime here")
    lam = 0
    num = n.numerator
    while num % p == 0:
        num //= p
        lam += 1
    if rank % 2 == 0:
        kappa = rank // 2
        chi_p = kronecker((-1) ** kappa * det_m, p)
        x = Fraction(chi_p, p ** (kappa - 1))
        return (1 - Fraction(chi_p, p ** kappa)) * sum(x ** j for j in range(lam + 1))
    kappa = (rank - 1) // 2
    w = Fraction(1, p ** (2 * kappa - 1))
    total = Fraction(1)
    total += (1 - Fraction(1, p)) * sum(w ** t for t in range(1, lam // 2 + 1))
    if lam % 2 == 0:
        chi_p = kronecker((-1) ** kappa * 2 * det_m * num * n.denominator, p)
        total += chi_p * Fraction(1, p ** kappa) * w ** (lam // 2)
    else:
        total -= Fraction(1, p) * w ** ((lam + 1) // 2)
    return total


# -- q-expansions ------------------------------------------------------------


@dataclass
class QExpansion:
    """Vector-valued q-series with exact rational coefficients.

    Keys of `coeffs` are (gamma coordinates, exponent); exponents satisfy
    n + Q(gamma) integral and 0 <= n < prec.  Missing keys below prec are
    zero coefficients.
    """

    module: FiniteQuadraticModule
    weight: Fraction
    prec: Fraction
    coeffs: dict = field(default_factory=dict)

    def coefficient(self, gamma, n) -> Fraction:
        return self.coeffs.get((tuple(gamma), Fraction(n)), Fraction(0))

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.coeffs.values())

    def scale(self, a):
        a = Fraction(a)
        return QExpansion(self.module, self.weight, self.prec,
                          {k: a * v for k, v in self.coeffs.items()})

    def common_denominator(self) -> int:
        out = 1
        for v in self.coeffs.values():
            out = out * v.denominator // math.gcd(out, v.denominator)
        return out

    def component(self, gamma):
        gamma = tuple(gamma)
        items = [(n, v) for (g, n), v in self.coeffs.items() if g == gamma and v]
        return sorted(items)

    def evaluate(self, tau: complex):
        """Value of the truncated series at tau: a list, components in lex order."""
        index = {g: i for i, g in enumerate(self.module.elements())}
        out = [0j] * len(index)
        for (g, n), v in self.coeffs.items():
            out[index[g]] += float(v) * cmath.exp(2j * cmath.pi * float(n) * tau)
        return out

    def to_json_dict(self):
        items = []
        for (g, n), v in sorted(self.coeffs.items()):
            if v:
                items.append({"gamma": list(g), "n": _frs(n), "c": _frs(v)})
        return {
            "gram": [list(r) for r in self.module.lattice.gram],
            "weight": _frs(self.weight),
            "prec": _frs(self.prec),
            "coeffs": items,
        }

    def validate(self):
        """Check the key invariants: n + Q(gamma) integral, 0 <= n < prec."""
        for (g, n), _ in self.coeffs.items():
            if not (0 <= n < self.prec):
                raise PrecisionError("exponent %s outside [0, %s)" % (n, self.prec))
            q = self.module.qvalue(self.module.element(g))
            if (n + q).denominator != 1:
                raise NumericInconsistencyError(
                    "exponent %s is not in Z - Q(gamma) for gamma %s" % (n, g))
        return self

    @classmethod
    def from_json_dict(cls, data):
        try:
            lattice = EvenLattice(tuple(tuple(r) for r in data["gram"]))
            coeffs = {}
            for item in data["coeffs"]:
                gamma = tuple(item["gamma"])
                require_integers(gamma, "gamma entries")
                coeffs[(gamma, Fraction(item["n"]))] = Fraction(item["c"])
            weight, prec = Fraction(data["weight"]), Fraction(data["prec"])
        except (KeyError, TypeError, ValueError, ZeroDivisionError,
                OverflowError) as exc:
            raise InputError("bad q-expansion (%s: %s)"
                             % (type(exc).__name__, exc)) from None
        module = discriminant_module(lattice)
        orders = module.generator_orders
        for g, _ in coeffs:
            if len(g) != len(orders) or not all(0 <= c < d for c, d in zip(g, orders)):
                raise InputError("gamma %s is not in the discriminant group %s"
                                 % (list(g), list(orders)))
        return cls(module, weight, prec, coeffs).validate()


def _frs(x: Fraction) -> str:
    x = Fraction(x)
    return "%d/%d" % (x.numerator, x.denominator)


# -- the Eisenstein series ----------------------------------------------------


def exponents_for(module, gamma, prec, include_zero=False):
    """Exponents n in Z - Q(gamma) with 0 <= n < prec (n > 0 unless asked)."""
    base = _mod1(-module.qvalue(gamma))
    out = []
    n = base
    if base == 0 and not include_zero:
        n = base + 1
    while n < prec:
        out.append(n)
        n += 1
    return out


def hyperbolic_padding(lattice: EvenLattice, weight) -> int:
    """The number j of hyperbolic planes with rank + 2j = 2 weight."""
    pad2 = 2 * Fraction(weight) - lattice.rank
    if pad2.denominator != 1 or int(pad2) < 0 or int(pad2) % 2:
        raise UnsupportedWeightError(
            "weight %s is not reachable from rank %d by hyperbolic padding"
            % (Fraction(weight), lattice.rank))
    return int(pad2) // 2


def eisenstein_qexp(lattice: EvenLattice, weight, prec,
                    cache=None) -> QExpansion:
    """Eisenstein series attached to e_0 for the dual Weil representation.

    Returns the zero expansion for antisymmetric weights.  Exact rational
    coefficients at every exponent below prec.
    """
    weight = Fraction(weight)
    prec = Fraction(prec)
    module = discriminant_module(lattice)
    if weight < Fraction(5, 2):
        raise UnsupportedWeightError("Eisenstein weight must be at least 5/2")
    sig = module.signature_mod8
    parity = 2 * weight + sig
    if parity.denominator != 1 or int(parity) % 4 != 0:
        return QExpansion(module, weight, prec, {})
    j_pad = hyperbolic_padding(lattice, weight)
    core = tuple(tuple(-x for x in row) for row in lattice.gram)
    engine = DensityEngine(core, j_pad, cache=cache)
    eps = 1 if int(parity) % 8 == 0 else -1
    det_m = _linalg.det(core) * (-1) ** j_pad
    dets = abs(det_m)
    bad = prime_divisors(2 * dets)

    coeffs = {}
    if prec > 0:
        coeffs[(module.zero(), Fraction(0))] = Fraction(1)

    for gamma in module.orbit_reps():
        gvec = module.dual_vector(gamma)
        neg = module.neg(gamma)
        for n in exponents_for(module, gamma, prec):
            dens = {p: engine.density(p, n, gvec).value for p in bad}
            val = _assemble(weight, eps, det_m, dets, bad, dens, n)
            if val:
                coeffs[(gamma, n)] = val
                coeffs[(neg, n)] = val
    return QExpansion(module, weight, prec, coeffs)


@lru_cache(maxsize=None)
def _character_part(kappa: int, half: int, d: int):
    """chi of the square class of d and the n-free constant C(kappa, chi).

    With f the conductor of chi, L = L(1 - kappa, chi) and G the Gamma
    quotient, C = 2^kappa f^(kappa-1) / ((kappa-1)! G L sqrt(|d| / f)) at
    integral weight, where d = (-1)^kappa det, and
    C = 2^(kappa+2) kappa! G L / (f^kappa |B_2kappa|) at half-integral
    weight, where d is already the fundamental discriminant of 2n det.
    """
    chi = KroneckerCharacter(d if half else fundamental_discriminant_of(d))
    f = chi.conductor
    assert chi.is_odd == bool(kappa % 2)
    gq = _gamma_quotient(kappa, kappa % 2)
    lval = lvalue_at_negative(chi, kappa)
    if half:
        return chi, 2 ** (kappa + 2) * math.factorial(kappa) * gq * lval \
            / (Fraction(f) ** kappa * abs(bernoulli_number(2 * kappa)))
    return chi, Fraction(2 ** kappa * f ** (kappa - 1)) \
        / (math.factorial(kappa - 1) * gq * lval * sqrt_exact(Fraction(abs(d), f)))


def _assemble(weight, eps, det_m, dets, bad, dens, n) -> Fraction:
    """The Euler product of the module docstring for one coefficient."""
    n = Fraction(n)
    half = int(weight.denominator == 2)
    kappa = int(weight - Fraction(half, 2))
    if half:
        chi, const = _character_part(kappa, half, fundamental_discriminant_of(
            (-1) ** kappa * 2 * n * det_m))
        val = eps * const * n ** kappa / sqrt_exact(2 * n * dets / chi.conductor)
    else:
        d_form = (-1) ** kappa * det_m
        assert d_form % 4 in (0, 1)
        chi, const = _character_part(kappa, half, d_form)
        val = eps * const * n ** (kappa - 1)
    for p in set(bad).union(prime_divisors(n.numerator)):
        alpha = dens[p] if p in dens else \
            good_prime_local_factor(p, n, 2 * kappa + half, det_m)
        e_p = 1 - Fraction(chi(p), p ** kappa)
        val *= alpha * e_p / (1 - Fraction(1, p ** (2 * kappa))) if half \
            else alpha / e_p
    return val


# -- numeric modularity check -------------------------------------------------

DEFAULT_TAU_SAMPLES = (1j, 0.28 + 0.96j, -0.35 + 1.05j)


def modularity_residual(f: QExpansion, tau_samples=None) -> float:
    """Max deviation from the S and T transformation laws at sample points.

    Uses the truncated series on both sides, so it is meaningful only when
    prec is large enough that tails are below the reporting threshold
    (samples are kept at im(tau) >= 0.8 and im(-1/tau) >= 0.8).
    """
    if tau_samples is None:
        tau_samples = DEFAULT_TAU_SAMPLES
    module = f.module
    rho_s, rho_t = weil_matrices(module)
    k = float(f.weight)
    worst = 0.0
    for tau in tau_samples:
        tau = complex(tau)
        value = f.evaluate(tau)
        factor = cmath.exp(k * cmath.log(tau))
        lhs = f.evaluate(-1 / tau) + f.evaluate(tau + 1)
        rhs = [factor * x for x in _linalg.mat_vec(rho_s, value)] \
            + _linalg.mat_vec(rho_t, value)
        worst = max([worst] + [abs(a - b) for a, b in zip(lhs, rhs)])
    return worst
