import math
from fractions import Fraction

import pytest

from weilforms.classnum import (HurwitzTable, IdealWitness, hurwitz,
                                ideals_of_norm_q5, prop10_check, remark12_check,
                                unit_orbit_correction, _EPS0, _EPS0_INV, _mul,
                                _principal_generators, _witness_sum)
from weilforms.cuspgen import _weight3_hol_part, coset_window
from weilforms.errors import UnsupportedNormError


def hurwitz_oracle(d):
    """Independent route: canonicalize every form by explicit reduction steps
    and weight classes by 2 / #stabilizer found by brute matrix search."""
    if d == 0:
        return Fraction(-1, 12)
    if d < 0 or d % 4 in (1, 2):
        return Fraction(0)

    def canonical(a, b, c):
        while True:
            if b > a or b <= -a:
                k = (a - b) // (2 * a)
                c = a * k * k + b * k + c
                b = b + 2 * k * a
                continue
            if c < a:
                a, b, c = c, -b, a
                continue
            if c == a and b < 0:
                b = -b
                continue
            return (a, b, c)

    def stabilizer_order(form):
        a, b, c = form
        count = 0
        for p in range(-2, 3):
            for q in range(-2, 3):
                for r in range(-2, 3):
                    for s in range(-2, 3):
                        if p * s - q * r != 1:
                            continue
                        a2 = a * p * p + b * p * r + c * r * r
                        b2 = 2 * a * p * q + b * (p * s + q * r) + 2 * c * r * s
                        c2 = a * q * q + b * q * s + c * s * s
                        if (a2, b2, c2) == form:
                            count += 1
        return count

    classes = set()
    for a in range(1, math.isqrt(d // 3) + 2):
        for b in range(-2 * a, 2 * a + 1):
            if (b * b + d) % (4 * a) == 0:
                c = (b * b + d) // (4 * a)
                if c > 0:
                    classes.add(canonical(a, b, c))
    return sum(Fraction(2, stabilizer_order(f)) for f in classes)


def min_trace_generator_scan(gen, residue):
    """Reference: scan 250 unit multiples gen eps^k, k = -80..169, of both
    signs for the least positive trace = residue mod 5, ties by smaller |b|."""
    best = None
    for start_sign in (gen, (-gen[0], -gen[1])):
        u = start_sign
        for _ in range(80):
            u = _mul(u, _EPS0_INV)
        for _ in range(170):
            x, y = u
            if x > 0 and x % 5 == residue % 5:
                cand = (x, abs(y), y)
                if best is None or cand < best:
                    best = cand
            u = _mul(u, _EPS0)
    x, _, y = best
    return Fraction(x, 2), Fraction(y, 2)


def prop10_fraction(variant, n, h):
    """Reference: Prop. 10 accumulated in Fractions of H(d) = h(d)."""
    lhs = Fraction(0)
    rbound = math.isqrt(4 * n // 5 + 4) + 3
    for r in range(-rbound, rbound + 1):
        if variant == "i":
            arg, weight = 4 * n - 5 * r * r - 8 * r, Fraction(r) + Fraction(4, 5)
        else:
            arg, weight = 4 * n - 5 * r * r + 4 * r, Fraction(r) - Fraction(2, 5)
        if arg >= 0:
            lhs += weight * h(arg)
    norm = 5 * n + 4 if variant == "i" else 5 * n + 1
    rhs = -Fraction(1, 150) * _witness_sum(norm)
    return lhs, rhs, lhs == rhs


def remark12_fraction(n, h):
    """Reference: Remark 12 in Fractions, the divisor sum over every d <= n."""
    lhs1 = lhs2 = Fraction(0)
    rbound = math.isqrt(4 * n) + 1
    for r in range(-rbound, rbound + 1):
        arg = 4 * n - r * r
        if arg >= 0 and r % 3 == 1:
            lhs1 += r * h(arg)
        elif arg >= 0 and r % 3 == 2:
            lhs2 += r * h(arg)
    rhs = Fraction(0)
    for d in range(1, n + 1):
        if n % d == 0:
            rhs += (0, 1, -1)[d % 3] * min(d, n // d) ** 2
    rhs *= Fraction(-1) if n % 3 == 0 else Fraction(1, 2)
    return lhs1, lhs2, rhs, lhs1 == rhs and lhs2 == -rhs


def test_hurwitz_paper_values():
    assert hurwitz(0) == Fraction(-1, 12)
    assert hurwitz(3) == Fraction(1, 3)
    assert hurwitz(8) == 1
    assert hurwitz(11) == 1
    assert hurwitz(12) == Fraction(4, 3)
    assert hurwitz(15) == 2
    assert hurwitz(1) == 0
    assert hurwitz(2) == 0
    assert hurwitz(-4) == 0


def test_hurwitz_table_invariants():
    from weilforms.classnum import HurwitzTable
    table = HurwitzTable()
    assert table(0) == Fraction(-1, 12)
    for d in range(1, 200):
        value = table(d)
        if d % 4 in (1, 2):
            assert value == 0
        else:
            assert value >= 0
        assert table.memo[d] == value


def test_hurwitz_table_grown_in_steps():
    stepped = HurwitzTable()
    for bound in (10, 12, 37, 5000):
        stepped.upto(bound)
    assert len(stepped.twelve_h) > 5000
    at_once = HurwitzTable().upto(5000)
    assert stepped.twelve_h[:5001] == at_once[:5001]
    # single values come from the enumerator on [d, d]: interval edges
    single = HurwitzTable()
    assert all(single(d) == Fraction(at_once[d], 12) for d in range(5001))
    assert all(at_once[d] == 12 * hurwitz_oracle(d) for d in range(501))


def test_hurwitz_against_oracle_small():
    for d in range(0, 120):
        assert hurwitz(d) == hurwitz_oracle(d), d


def test_ideals_match_fixed_window_scan():
    for m in range(1, 3001):
        if m % 5 not in (1, 4):
            continue
        residues = (1, 4) if m % 5 == 4 else (2, 3)
        expected = []
        for gen in _principal_generators(m):
            a, b = min_trace_generator_scan(gen, residues[0])
            c, d = min_trace_generator_scan(gen, residues[1])
            expected.append(IdealWitness(norm=m, a=a, b=b, c=c, d=d))
        assert ideals_of_norm_q5(m) == expected, m


def test_identities_match_fraction_forms():
    h = HurwitzTable()
    for n in range(0, 301):
        for v in ("i", "ii"):
            assert prop10_check(v, n) == prop10_fraction(v, n, h), (v, n)
    for n in range(1, 1001):
        assert remark12_check(n) == remark12_fraction(n, h), n


def test_weight3_hol_part_matches_fraction_form():
    h = HurwitzTable()
    for n_disc in (5, 9, 13, 25):
        for g in range(1, (n_disc + 1) // 2):
            base = Fraction(g * g, n_disc) % 1
            for k in range(12):
                n = base + k if base + k else Fraction(1)
                expected = -6 * n_disc * sum(
                    (r * h(int(4 * n - n_disc * r * r))
                     for r in coset_window(Fraction(2 * g, n_disc),
                                           4 * n / n_disc)), Fraction(0))
                assert _weight3_hol_part(n, g, n_disc) == expected, (n_disc, g, n)


def test_ideals_norm_19():
    ws = ideals_of_norm_q5(19)
    assert len(ws) == 2
    for w in ws:
        # unit-orbit invariant combinations match the worked example
        assert 7 * w.a ** 2 - 30 * abs(w.a * w.b) + 35 * w.b ** 2 == 43
        assert 7 * w.c ** 2 - 30 * abs(w.c * w.d) + 35 * w.d ** 2 == 83
        assert (2 * w.a) % 5 == 1 and (2 * w.c) % 5 == 4
        assert abs(4 * (w.a ** 2 - 5 * w.b ** 2)) == 4 * 19
    assert _witness_sum(19) == 80


def test_ideals_norm_16():
    ws = ideals_of_norm_q5(16)
    assert len(ws) == 1
    w = ws[0]
    assert (w.c, abs(w.d)) == (4, 0)
    assert (2 * w.a) % 5 == 2 and (2 * w.c) % 5 == 3
    assert _witness_sum(16) == 80


def test_ideals_norm_1():
    ws = ideals_of_norm_q5(1)
    assert len(ws) == 1
    assert ws[0].a == 1 and ws[0].b == 0


def test_unsupported_norms():
    for m in (5, 2, 3, 10, 12):
        with pytest.raises(UnsupportedNormError):
            ideals_of_norm_q5(m)


def test_ideal_count_matches_divisor_sum():
    def r_m(m):
        return sum((0, 1, -1, -1, 1)[d % 5] for d in range(1, m + 1) if m % d == 0)

    for m in range(1, 301):
        if m % 5 in (1, 4):
            assert len(ideals_of_norm_q5(m)) == r_m(m), m
        elif m % 5 in (2, 3):
            assert r_m(m) == 0


def test_prop10_example_values():
    lhs, rhs, equal = prop10_check("i", 3)
    assert equal and lhs == Fraction(-8, 15)
    lhs, rhs, equal = prop10_check("ii", 3)
    assert equal and lhs == Fraction(-8, 15)
    lhs, rhs, equal = prop10_check("i", 0)
    assert equal


def test_prop10_small_range():
    for n in range(0, 20):
        for v in ("i", "ii"):
            _, _, equal = prop10_check(v, n)
            assert equal, (v, n)


def test_remark12_examples():
    l1, l2, rhs, equal = remark12_check(1)
    assert equal and l1 == Fraction(1, 2) and rhs == Fraction(1, 2)
    l1, l2, rhs, equal = remark12_check(3)
    assert equal and rhs < 0  # the 3 | n branch
    for n in range(1, 60):
        l1, l2, rhs, equal = remark12_check(n)
        assert equal and l2 == -l1


def test_unit_orbit_correction_balance():
    # the n = 3 worked example: correction balances the class number part
    from weilforms.cuspgen import _weight3_hol_part
    n = Fraction(19, 5)  # exponent 3 + 4/5, component g = 2
    corr = unit_orbit_correction(n, 2, 5)
    hol = _weight3_hol_part(n, 2, 5)
    assert hol == 16 and corr == -16
    assert corr == -Fraction(1, 5) * _witness_sum(19)


def test_unit_orbit_correction_zero_cases():
    assert unit_orbit_correction(Fraction(1), 0, 5) == 0
    # N = 9: component with no admissible r below the window
    assert unit_orbit_correction(Fraction(1, 9), 2, 9) == 0


def test_unit_orbit_correction_square_double_count():
    # N = 9 exponent with N r^2 = 4n: the t = 0 pair enters with -24
    n = Fraction(1, 9)
    val = unit_orbit_correction(n, 1, 9)
    # 4nN = 4: pairs (1,4) fails parity, (2,2) gives t=0, r=2/9 in the coset
    assert val == Fraction(27, 32) * (-24) * (Fraction(2, 9)) ** 2


def test_unit_orbit_correction_unsupported():
    with pytest.raises(Exception):
        unit_orbit_correction(Fraction(1), 1, 13)
