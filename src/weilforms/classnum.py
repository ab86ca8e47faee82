"""Hurwitz class numbers, Q(sqrt 5) ideals, and class-number identities.

Hurwitz class numbers are kept as the integers 12·H(d): a reduced form
(a, b, c), |b| <= a <= c with b >= 0 when |b| = a or a = c, counts 12,
except (a, 0, a) counts 6 and (a, a, a) counts 4, and 12·H(0) = -1 (Cohen,
Math. Ann. 217, 1975).  One enumeration of the reduced forms with
4ac - b^2 in an interval gives every d in it at once; `HurwitzTable` grows
one such list by doubling, and the identities sum integers read from it,
with a single division at the end.

Elements of Q(sqrt 5) are stored in doubled coordinates (x, y) meaning
(x + y sqrt 5)/2 with x = y mod 2, so all arithmetic stays integral.  The
witnesses of an ideal are its generators of least positive trace in a
residue class mod 5; `_min_trace_generator` finds them in a proven window
of ten unit multiples (the bound is in its docstring).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import UnsupportedModuleError, UnsupportedNormError


def _reduced_form_counts(lo: int, hi: int) -> list:
    """[12·H(d) for lo <= d <= hi], lo >= 1, from one pass over the reduced
    forms (a, b, c) with lo <= 4ac - b^2 <= hi."""
    out = [0] * (hi - lo + 1)
    for a in range(1, math.isqrt(hi // 3) + 1):
        step = 4 * a
        for b in range(1 - a, a + 1):
            bb = b * b
            # least c >= a (c > a when b < 0) with 4ac - b^2 >= lo
            c = -(-(lo + bb) // step)
            if c <= a:
                c = a + (b < 0)
            d = step * c - bb
            if d > hi:
                continue
            if c == a:
                out[d - lo] += 4 if b == a else 6 if b == 0 else 12
                d += step
            for d in range(d, hi + 1, step):
                out[d - lo] += 12
    return out


class HurwitzTable:
    """Hurwitz class numbers: the list `twelve_h` of 12·H(d) for
    0 <= d < len(twelve_h), grown by doubling, and a memo of the values H(d)
    asked for one at a time above it."""

    def __init__(self):
        self.twelve_h = [-1]
        self.memo = {}

    def upto(self, bound: int) -> list:
        """The list of 12·H(d), extended to cover every d <= bound."""
        size = len(self.twelve_h)
        if bound >= size:
            self.twelve_h += _reduced_form_counts(size, max(bound, 2 * size - 1))
        return self.twelve_h

    def __call__(self, d: int) -> Fraction:
        d = int(d)
        if d < 0:
            return Fraction(0)
        if d < len(self.twelve_h):
            return Fraction(self.twelve_h[d], 12)
        if d not in self.memo:
            self.memo[d] = Fraction(_reduced_form_counts(d, d)[0], 12)
        return self.memo[d]


_HURWITZ_TABLE = HurwitzTable()


def hurwitz(d: int) -> Fraction:
    """Hurwitz class number H(d): SL2(Z)-classes of positive binary forms of
    discriminant -d weighted by 2 / #automorphisms, with H(0) = -1/12."""
    return _HURWITZ_TABLE(d)


def twelve_h(bound: int) -> list:
    """The shared list t with t[d] = 12·H(d) for every 0 <= d <= bound."""
    return _HURWITZ_TABLE.upto(bound)


# -- arithmetic in Z[(1 + sqrt 5)/2] ------------------------------------------

_EPS0 = (1, 1)          # (1 + sqrt 5)/2, the fundamental unit, norm -1
_EPS0_INV = (-1, 1)     # (-1 + sqrt 5)/2


def _mul(u, v):
    x1, y1 = u
    x2, y2 = v
    return ((x1 * x2 + 5 * y1 * y2) // 2, (x1 * y2 + x2 * y1) // 2)


def _hnf_key(u):
    """Canonical key of the ideal generated by u = (x + y sqrt5)/2.

    Uses the Hermite form of the Z-basis (u, u*omega) written in the
    integral basis (1, omega), omega = (1 + sqrt 5)/2.
    """
    x, y = u
    a0, a1 = (x - y) // 2, y          # u = a0 + a1 omega
    rows = [[a0, a1], [a1, a0 + a1]]  # u, u * omega
    # Hermite normal form of the row span
    (r0, r1), (s0, s1) = rows
    while s0:
        q = r0 // s0
        r0, r1, s0, s1 = s0, s1, r0 - q * s0, r1 - q * s1
    if r0 < 0:
        r0, r1 = -r0, -r1
    if s1 < 0:
        s1 = -s1
    if s1:
        r1 %= s1
    return (r0, r1, s1)


def _principal_generators(m: int):
    """One generator for each ideal of norm m, deduped by Hermite key."""
    found = {}
    ybound = 2 * math.isqrt(m) + 3
    for y in range(-ybound, ybound + 1):
        for sign in (4 * m, -4 * m):
            xx = sign + 5 * y * y
            if xx < 0:
                continue
            x = math.isqrt(xx)
            if x * x != xx or (x - y) % 2:
                continue
            u = (x, y)
            key = _hnf_key(u)
            if key not in found:
                found[key] = u
    return [found[k] for k in sorted(found)]


@dataclass(frozen=True)
class IdealWitness:
    norm: int
    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction


def _min_trace_generator(gen, residue: int):
    """Generator of (gen) with minimal positive trace = residue mod 5.

    Generators are gen times units; ties in the trace are broken by the
    smaller |b|.  Let m = |N(gen)|, prime to 5.  Write a generator v as
    |v| = sqrt(m) eps^t, |v'| = sqrt(m) eps^-t, eps = (1 + sqrt 5)/2;
    multiplying by eps adds 1 to t, and t >= 0 exactly when x y >= 0
    (v^2 - v'^2 = x y sqrt 5).  Start from the associate with t in [0, 1)
    and take j steps of eps.  The trace x = v + v' satisfies
    sqrt(m)(eps^|t| - eps^-|t|) <= |x| <= sqrt(m)(eps^t + eps^-t).  For
    j = 0..3, x has the sign of v, and x -> 3x mod 5 under eps with
    x != 0 mod 5, so with the sign of v positive one of them has the wanted
    residue and a trace below sqrt(m)(eps^4 + eps^-4) = 7 sqrt(m).  For
    j >= 5 and j <= -6, |t| >= 5 and |x| >= sqrt(m)(eps^5 - eps^-5) =
    11 sqrt(m).  So the minimum, ties included, lies among the ten multiples
    j = -5..4, with both signs.
    """
    u = gen
    while u[0] * u[1] < 0:
        u = _mul(u, _EPS0)
    while True:
        w = _mul(u, _EPS0_INV)
        if w[0] * w[1] < 0:
            break
        u = w
    for _ in range(5):
        u = _mul(u, _EPS0_INV)
    best = None
    for _ in range(10):
        for x, y in (u, (-u[0], -u[1])):
            if x > 0 and x % 5 == residue % 5:
                cand = (x, abs(y), y)
                if best is None or cand < best:
                    best = cand
        u = _mul(u, _EPS0)
    x, _, y = best
    return Fraction(x, 2), Fraction(y, 2)


def ideals_of_norm_q5(m: int):
    """All ideals of Z[(1+sqrt5)/2] of norm m, with minimal-trace witnesses.

    Norms 1 mod 5 use trace residues (2, 3); norms 4 mod 5 use (1, 4).
    """
    m = int(m)
    if m < 1:
        raise UnsupportedNormError("norm must be positive")
    if m % 5 == 4:
        residues = (1, 4)
    elif m % 5 == 1:
        residues = (2, 3)
    else:
        raise UnsupportedNormError(
            "no congruence regime for norms = %d mod 5" % (m % 5))
    out = []
    for gen in _principal_generators(m):
        a, b = _min_trace_generator(gen, residues[0])
        c, d = _min_trace_generator(gen, residues[1])
        out.append(IdealWitness(norm=m, a=a, b=b, c=c, d=d))
    return out


def _witness_sum(m: int) -> Fraction:
    """sum over ideals of norm m of 7(c^2-a^2) - 30(|cd|-|ab|) + 35(d^2-b^2)."""
    total = Fraction(0)
    for w in ideals_of_norm_q5(m):
        total += 7 * (w.c ** 2 - w.a ** 2) - 30 * (abs(w.c * w.d) - abs(w.a * w.b)) \
            + 35 * (w.d ** 2 - w.b ** 2)
    return total


def prop10_check(variant: str, n: int):
    """Both sides of the class-number identity; returns (lhs, rhs, equal).

    (i): lhs = sum_r (r + 4/5) H(4n - 5r^2 - 8r) = sum_r (5r + 4) 12H / 60;
    (ii): lhs = sum_r (r - 2/5) H(4n - 5r^2 + 4r) = sum_r (5r - 2) 12H / 60.
    """
    n = int(n)
    rbound = math.isqrt(4 * n // 5 + 4) + 3
    rs = range(-rbound, rbound + 1)
    if variant == "i":
        terms = [(5 * r + 4, 4 * n - 5 * r * r - 8 * r) for r in rs]
        norm = 5 * n + 4
    elif variant == "ii":
        terms = [(5 * r - 2, 4 * n - 5 * r * r + 4 * r) for r in rs]
        norm = 5 * n + 1
    else:
        raise ValueError("variant must be 'i' or 'ii'")
    t = twelve_h(4 * n + 3)
    lhs = Fraction(sum(w * t[arg] for w, arg in terms if arg >= 0), 60)
    rhs = -Fraction(1, 150) * _witness_sum(norm)
    return lhs, rhs, lhs == rhs


def remark12_check(n: int):
    """Class-number sums against the twisted divisor sum, both residue classes.

    Returns (lhs1, lhs2, rhs, equal) where lhs1 runs over r = 1 mod 3,
    lhs2 over r = 2 mod 3, and rhs = eps(n) sum_{d | n} (d/3) min(d, n/d)^2
    with eps(n) = -1 if 3 | n else 1/2.  The divisor sum runs over the pairs
    (d, n/d) with d <= sqrt(n).
    """
    n = int(n)
    t = twelve_h(4 * n)
    s1 = s2 = 0
    rbound = math.isqrt(4 * n)
    for r in range(-rbound, rbound + 1):
        if r % 3 == 1:
            s1 += r * t[4 * n - r * r]
        elif r % 3 == 2:
            s2 += r * t[4 * n - r * r]
    lhs1, lhs2 = Fraction(s1, 12), Fraction(s2, 12)
    total = 0
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            e = n // d
            total += d * d * (_kronecker3(d) + (_kronecker3(e) if e != d else 0))
    rhs = Fraction(-total) if n % 3 == 0 else Fraction(total, 2)
    return lhs1, lhs2, rhs, lhs1 == rhs and lhs2 == -rhs


def _kronecker3(d: int) -> int:
    return (0, 1, -1)[d % 3]


def unit_orbit_correction(n_index, g: int, n_disc: int) -> Fraction:
    """The closed-form real-quadratic correction term of the weight 3 series.

    `g` is the integer label of the component g * gen, where gen is the
    distinguished generator of the cyclic module of order N; it is read
    mod N.  N = 5 uses the Q(sqrt 5) ideal sums; square N uses the finite
    divisor route.
    """
    n = Fraction(n_index)
    g %= n_disc
    if g == 0:
        return Fraction(0)
    s = math.isqrt(n_disc)
    if s * s == n_disc:
        return _square_disc_correction(n, g, n_disc, s)
    if n_disc == 5:
        m0 = 5 * n
        if m0.denominator != 1:
            raise UnsupportedModuleError("index is not in the support of the module")
        m0 = int(m0)
        assert m0 % 5 == (g * g) % 5
        sign = -1 if g % 2 == 0 else 1
        return sign * Fraction(1, 5) * _witness_sum(m0)
    raise UnsupportedModuleError(
        "correction term only available for N = 5 or square N")


def _square_disc_correction(n: Fraction, g: int, n_disc: int, s: int) -> Fraction:
    """Finite route: sqrt of the discriminant is rational.

    Enumerates factorizations u v = 4 n N with u = N r - s t, v = N r + s t.
    """
    d4 = 4 * n * n_disc
    if d4.denominator != 1:
        raise UnsupportedModuleError("index is not in the support of the module")
    d4 = int(d4)
    pairs = []
    for u in range(1, math.isqrt(d4) + 1):
        if d4 % u == 0:
            v = d4 // u
            pairs.append((u, v))
            pairs.append((-v, -u))
    total = Fraction(0)
    for su, sv in pairs:
        if (sv - su) % (2 * s):
            continue
        t = (sv - su) // (2 * s)
        r = Fraction(su + sv, 2 * n_disc)
        if (r - Fraction(2 * g, n_disc)).denominator != 1:
            continue
        coeff = -24 if t == 0 else -48
        sgn = 1 if r > 0 else -1
        total += sgn * coeff * (abs(r) - Fraction(t, s)) ** 2
    return Fraction(s ** 3, 32) * total
