import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from weilforms import _linalg, localdensity
from weilforms.eisenstein import (fundamental_discriminant_of, good_prime_local_factor,
                                  kronecker)
from weilforms.errors import StabilizationError
from weilforms.localdensity import (CACHE_SCHEMA, DensityCache, DensityEngine,
                                    VClassMeasure, _coset_one, _convolve_mod, _den_exp,
                                    _dist_one, _dist_two, _int_mod, _level_sums, _vp,
                                    block_measure, local_density)
from weilforms.quadmod import EvenLattice, discriminant_module


def count_solutions_bruteforce(gram, p, n, gamma, nu):
    """Naive full-enumeration count, for small cross-checks only."""
    n = Fraction(n)
    rank = len(gram)
    modulus = p ** nu
    if modulus ** rank > 1 << 24:
        raise ValueError("brute-force domain too large")
    gamma = [Fraction(x) for x in gamma]
    total = 0
    for x in itertools.product(range(modulus), repeat=rank):
        q = Fraction(0)
        for i in range(rank):
            for j in range(rank):
                q += (x[i] + gamma[i]) * gram[i][j] * (x[j] + gamma[j])
        diff = q / 2 - n
        if diff.denominator % p == 0:
            continue
        if diff.numerator % modulus == 0:
            total += 1
    return total


def density_by_agreement(eng, p, n, gamma):
    """The agreement search that `density` replaced, kept as an oracle.

    Counts at nu0 = v_p(4 den(n) num(4 n det) det) + 3, nu0 + 1, ... and
    returns the first value that equals its predecessor; None when no two
    agree by nu0 + 8 or a count exceeds the caps.  (The search lowered nu0
    and asked for three agreements where the caps made nu0 unreachable;
    that branch is not kept.)
    """
    n = Fraction(n)
    dets = abs(_linalg.det(eng.core)) if eng.core else 1
    nu0 = _vp(4 * n.denominator * abs((4 * n * dets).numerator) * dets, p) + 3
    prev = None
    for nu in range(nu0, nu0 + 9):
        try:
            val = Fraction(eng.count(p, n, gamma, nu), p ** (nu * (eng.rank - 1)))
        except StabilizationError:
            return None
        if val == prev:
            return val
        prev = val
    return None


def _random_dual_case(rng):
    """A random nondegenerate even core of rank 1-4, padding 0-2, a prime
    p <= 7 (mostly one dividing 2 det), gamma in the dual and an n with
    n - Q(gamma) integral, up to p^3 times a small integer."""
    while True:
        rank = rng.choice((1, 1, 2, 2, 3, 4))
        gram = [[0] * rank for _ in range(rank)]
        for i in range(rank):
            gram[i][i] = 2 * rng.choice([x for x in range(-4, 5) if x])
            for j in range(i):
                gram[i][j] = gram[j][i] = rng.randrange(-2, 3)
        det = _linalg.det(gram)
        if det and abs(det) <= 200:
            break
    bad = [q for q in (2, 3, 5, 7) if (2 * det) % q == 0]
    p = rng.choice(bad) if rng.random() < 0.8 else rng.choice((2, 3, 5, 7))
    inv = _linalg.inverse(gram)
    v = [rng.randrange(abs(det)) for _ in range(rank)]
    gamma = tuple(x % 1 for x in _linalg.mat_vec(inv, v))
    q = sum(gamma[i] * gram[i][k] * gamma[k] for i in range(rank) for k in range(rank)) / 2
    n = q % 1 + rng.randrange(1, 5) * p ** rng.randrange(4)
    return tuple(map(tuple, gram)), rng.randrange(3), p, n, gamma


def test_density_at_proven_exponent_fuzz(monkeypatch):
    # one count at nu* gives the density: it equals the agreement oracle
    # wherever that finishes, and with the caps raised
    # count(nu* + 1) = p^(rank - 1) count(nu*)
    rng = random.Random(29)
    calls = []
    count = DensityEngine.count
    monkeypatch.setattr(DensityEngine, "count",
                        lambda self, *args: calls.append(args) or count(self, *args))
    agreed = 0
    for _ in range(300):
        gram, j_pad, p, n, gamma = _random_dual_case(rng)
        eng = DensityEngine(gram, j_pad)
        calls.clear()
        rec = eng.density(p, n, gamma)
        assert len(calls) == 1
        want = density_by_agreement(eng, p, n, gamma)
        if want is not None:
            assert rec.value == want, (gram, j_pad, p, n, gamma)
            agreed += 1
        with monkeypatch.context() as m:
            m.setattr(localdensity, "_MAX_DIST1", 1 << 30)
            m.setattr(localdensity, "_MAX_CONV", 1 << 30)
            nu = rec.stabilized_at
            c0, c1 = (eng.count(p, n, gamma, nu + i) for i in (0, 1))
        assert c1 == p ** (eng.rank - 1) * c0, (gram, j_pad, p, n, gamma, nu)
        assert rec.value == Fraction(c0, p ** (nu * (eng.rank - 1)))
    assert agreed >= 250


def test_density_beyond_the_agreement_caps():
    # the agreement search raised "did not stabilize at p=7 by nu=11" here;
    # the count is 2 / 7^nu at nu = 5, 6 and 7 with the caps lifted
    rec = DensityEngine([[6, 2], [2, -4]], 0).density(7, 3773, (0, 0))
    assert rec.value == 2 and rec.stabilized_at == 5


def test_spec_rank_one_density():
    rec = local_density(3, EvenLattice(((2,),)), Fraction(1), (0,))
    assert rec.value == 2
    assert rec.prime == 3


def test_stabilization_witness():
    # counts at the recorded exponent and the next one must agree
    rng = random.Random(9)
    grams = [((2,),), ((-4,),), ((2, 1), (1, -2)), ((2, 0), (0, 6))]
    for _ in range(50):
        gram = rng.choice(grams)
        eng = DensityEngine(gram, rng.randrange(0, 2))
        p = rng.choice([2, 3])
        n = Fraction(rng.randrange(1, 5))
        rec = eng.density(p, n, tuple(Fraction(0) for _ in gram))
        nu = rec.stabilized_at
        c1 = eng.count(p, n, tuple(Fraction(0) for _ in gram), nu)
        c2 = eng.count(p, n, tuple(Fraction(0) for _ in gram), nu + 1)
        r = eng.rank
        assert Fraction(c1, p ** (nu * (r - 1))) == Fraction(c2, p ** ((nu + 1) * (r - 1)))
        assert rec.value == Fraction(c1, p ** (nu * (r - 1)))


def test_good_prime_closed_form_random():
    # stabilized counting equals the closed-form Euler factor at good primes
    from weilforms import _linalg
    rng = random.Random(17)
    pool = [(), ((2,),), ((-2,),), ((4,),), ((2, 1), (1, -2))]
    cases = 0
    while cases < 100:
        core = rng.choice(pool)
        j = rng.randrange(0, 3)
        rank = len(core) + 2 * j
        if rank < 2:
            continue
        eng = DensityEngine(core, j)
        det_core = _linalg.det([list(r) for r in core]) if core else 1
        det_m = det_core * (-1) ** j
        p = rng.choice([3, 5, 7, 11])
        if (2 * det_core) % p == 0:
            continue
        n = Fraction(rng.randrange(1, 40))
        scale = rng.random()
        if scale < 0.3:
            n *= p
        elif scale < 0.45 and p <= 5:
            n *= p * p
        rec = eng.density(p, n, tuple(Fraction(0) for _ in core))
        want = good_prime_local_factor(p, n, rank, det_m)
        assert rec.value == want, (core, j, p, n, rec.value, want)
        cases += 1


def good_prime_local_factor_fundamental(p, n, rank, det_m):
    """The closed form with chi(p) read on the fundamental discriminant."""
    n = Fraction(n)
    lam, num = 0, n.numerator
    while num % p == 0:
        num //= p
        lam += 1
    if rank % 2 == 0:
        kappa = rank // 2
        chi_p = kronecker(fundamental_discriminant_of(Fraction((-1) ** kappa * det_m)), p)
        x = Fraction(chi_p, p ** (kappa - 1))
        return (1 - Fraction(chi_p, p ** kappa)) * sum(x ** j for j in range(lam + 1))
    kappa = (rank - 1) // 2
    w = Fraction(1, p ** (2 * kappa - 1))
    total = 1 + (1 - Fraction(1, p)) * sum(w ** t for t in range(1, lam // 2 + 1))
    if lam % 2 == 0:
        unit = n / p ** lam
        chi_p = kronecker(fundamental_discriminant_of((-1) ** kappa * 2 * unit * det_m), p)
        return total + chi_p * Fraction(1, p ** kappa) * w ** (lam // 2)
    return total - Fraction(1, p) * w ** ((lam + 1) // 2)


def test_good_prime_factor_matches_fundamental_discriminant_form():
    # chi(p) on D itself equals chi(p) on its fundamental discriminant
    rng = random.Random(23)
    primes = [3, 5, 7, 11, 13, 17, 19, 23]
    cases = 0
    while cases < 2500:
        p = rng.choice(primes)
        rank = rng.randrange(3, 13)
        det_m = rng.choice((-1, 1)) * rng.randrange(1, 5000)
        n = Fraction(rng.randrange(1, 3000) * p ** rng.randrange(4),
                     rng.choice((1, 2, 4, 8, 3, 9, 5, 25)))
        if (2 * det_m) % p == 0 or n.denominator % p == 0:
            continue
        assert good_prime_local_factor(p, n, rank, det_m) \
            == good_prime_local_factor_fundamental(p, n, rank, det_m), (p, n, rank, det_m)
        cases += 1


def test_good_prime_factor_rank_eight_unimodular():
    # split unimodular lattice of rank 8: Euler factor matches the count
    eng = DensityEngine((), 4)
    for p in (3, 5):
        for n in (Fraction(1), Fraction(2), Fraction(p), Fraction(3 * p)):
            rec = eng.density(p, n, ())
            assert rec.value == good_prime_local_factor(p, n, 8, 1)


def test_engine_matches_bruteforce_with_shifts():
    cases = [
        (((-4,),), 1, (Fraction(3, 4),)),
        (((2, 1), (1, -2)), 1, (Fraction(2, 5), Fraction(1, 5))),
        (((2, 0), (0, 6)), 0, (Fraction(1, 2), Fraction(1, 6))),
    ]
    for gram, j, gamma in cases:
        eng = DensityEngine(gram, j)
        n0 = len(gram)
        q = sum(Fraction(gamma[i]) * gram[i][k] * Fraction(gamma[k])
                for i in range(n0) for k in range(n0)) / 2
        n = (-q) % 1
        if n == 0:
            n = Fraction(1)
        for p in (2, 3):
            for nu in (1, 2):
                big = [list(r) + [0] * (2 * j) for r in gram]
                for t in range(j):
                    r1 = [0] * (n0 + 2 * j)
                    r2 = [0] * (n0 + 2 * j)
                    r1[n0 + 2 * t + 1] = 1
                    r2[n0 + 2 * t] = 1
                    big.append(r1)
                    big.append(r2)
                if (p ** nu) ** len(big) > 1 << 22:
                    continue
                got = eng.count(p, n, gamma, nu)
                want = count_solutions_bruteforce(big, p, n,
                                                  list(gamma) + [0] * 2 * j, nu)
                assert got == want


def test_vclass_measures_match_bruteforce():
    for nu in (1, 2, 3):
        for p in (2, 3, 5):
            meas = VClassMeasure.hyperbolic(p, nu)
            modulus = p ** nu
            brute = [0] * modulus
            for x in range(modulus):
                for y in range(modulus):
                    brute[x * y % modulus] += 1
            assert [meas.value(t) for t in range(modulus)] == brute
    for nu in (1, 2, 3, 4):
        meas = VClassMeasure.norm_form(nu)
        modulus = 2 ** nu
        brute = [0] * modulus
        for x in range(modulus):
            for y in range(modulus):
                brute[(x * x + x * y + y * y) % modulus] += 1
        assert [meas.value(t) for t in range(modulus)] == brute
    # 2^e xy and 2^e (x^2 + xy + y^2), Gram entries (a, b, c), at their own
    # modulus 2^(nu - e) times 4^e lifts; e = nu + 1 is the zero measure
    for nu in range(5):
        modulus = 2 ** nu
        for e in range(nu + 2):
            for a, b, c in ((0, 1, 0), (2, 1, 2)):
                meas = block_measure((a << e, b << e, c << e), 2, nu)
                brute = [0] * modulus
                for x in range(modulus):
                    for y in range(modulus):
                        q = (a * x * x // 2 + b * x * y + c * y * y // 2) << e
                        brute[q % modulus] += 1
                assert [meas.value(t) for t in range(modulus)] == brute, (nu, e, a)


def test_class_convolve_matches_residue_convolution():
    rng = random.Random(5)
    for p in (2, 3, 5, 7):
        for nu in range(6):
            modulus = p ** nu
            f, g = (VClassMeasure(p, nu, [rng.randrange(100) for _ in range(nu)],
                                  rng.randrange(100)) for _ in range(2))
            fa = np.array([f.value(t) for t in range(modulus)], dtype=np.int64)
            ga = np.array([g.value(t) for t in range(modulus)], dtype=np.int64)
            full = np.convolve(fa, ga)
            brute = full[:modulus].copy()
            brute[:full.size - modulus] += full[modulus:]
            out = f.convolve(g)
            assert [out.value(t) for t in range(modulus)] == brute.tolist(), (p, nu)


def test_convolve_mod_exact_beyond_int64():
    rng = random.Random(11)
    for modulus in (1, 2, 7, 64):
        d1 = [rng.randrange(1 << 70) if rng.random() < 0.8 else 0
              for _ in range(modulus)]
        d2 = [rng.randrange(1 << 64, 1 << 66) for _ in range(modulus)]
        want = [0] * modulus
        for i, x in enumerate(d1):
            for j, y in enumerate(d2):
                want[(i + j) % modulus] += x * y
        assert _convolve_mod(d1, d2, modulus) == want
    assert _convolve_mod([0, 0, 0], [5, 0, 1], 3) == [0, 0, 0]


def test_level_sums_match_full_convolution():
    # the old read-out is the oracle: the whole product by _convolve_mod, then
    # slice sums over t = target mod p^b; every target, every lowest level
    rng = random.Random(12)
    for p, w_max in ((2, 4), (3, 4), (7, 3)):
        for w_exp in range(w_max + 1):
            modulus = p ** w_exp
            d1 = [rng.randrange(1 << 70) if rng.random() < 0.8 else 0
                  for _ in range(modulus)]
            d2 = [rng.randrange(1 << 64, 1 << 66) for _ in range(modulus)]
            conv = _convolve_mod(d1, d2, modulus)
            for target in range(modulus):
                want = [sum(conv[target % p ** b::p ** b]) for b in range(w_exp + 1)]
                assert _level_sums(d1, d2, target, p, 0, w_exp) == want, (p, w_exp, target)
                lo = rng.randrange(w_exp + 1)
                assert _level_sums(d1, d2, target, p, lo, w_exp) == want[lo:]


def test_count_two_enumerated_blocks_match_bruteforce():
    # the enlarged lattice of [[4]] at m = 7/8 (the dim-0 cusp job), negated:
    # at p = 7 every coset has two one-dimensional enumerated blocks
    core = ((-4, 1), (1, -2))
    module = discriminant_module(EvenLattice(core))
    assert module.order == 7
    for j_pad in (0, 1):
        eng = DensityEngine(core, j_pad)
        big = [list(r) + [0] * (2 * j_pad) for r in core]
        if j_pad:
            big += [[0, 0, 0, 1], [0, 0, 1, 0]]
        for index, elem in enumerate(module.elements()):
            gamma = tuple(module.dual_vector(elem))
            assert len(eng._plan(7, gamma)[0]) == 2
            q = sum(gamma[i] * core[i][k] * gamma[k]
                    for i in range(2) for k in range(2)) / 2
            for nu in (1, 2):
                domain = 7 ** (nu * len(big))
                if domain > 1 << 22:
                    continue
                # the brute force over 7^4 points is slow: there, one n per
                # coset, with n = 49 (target valuation nu) on the zero coset
                ks = (1, 3, 7, 49) if domain < 7 ** 4 else ((49, 1, 2, 3, 7, 14, 98)[index],)
                for k in ks:
                    n = q % 1 + k
                    want = count_solutions_bruteforce(
                        big, 7, n, list(gamma) + [0] * 2 * j_pad, nu)
                    assert eng.count(7, n, gamma, nu) == want, (j_pad, gamma, nu, n)


def test_count_three_enumerated_blocks_with_pad():
    # three one-dimensional blocks are convolved, then read against xy
    gram = ((2, 0, 0), (0, 6, 0), (0, 0, -4))
    big = [list(r) + [0, 0] for r in gram] + [[0, 0, 0, 0, 1], [0, 0, 0, 1, 0]]
    eng = DensityEngine(gram, 1)
    for gamma in ((0, 0, 0), (Fraction(1, 2), Fraction(1, 6), Fraction(1, 4))):
        q = sum(gamma[i] * gram[i][i] * gamma[i] for i in range(3)) / 2
        for p, nu in ((2, 1), (2, 2), (3, 1)):
            assert len(eng._plan(p, gamma)[0]) == 3
            for k in (1, 2, 3, 4):
                n = q % 1 + k
                want = count_solutions_bruteforce(big, p, n,
                                                  list(gamma) + [0, 0], nu)
                assert eng.count(p, n, gamma, nu) == want, (gamma, p, nu, n)


def _dist_one_enumerated(coeffs, p, w_exp):
    """Histogram of c0 + c1 x + c2 x^2 mod p^W over all p^W residues."""
    modulus = p ** w_exp
    c0, c1, c2 = (_int_mod(c, modulus, p) for c in coeffs)
    counts = [0] * modulus
    for x in range(modulus):
        counts[(c0 + c1 * x + c2 * x * x) % modulus] += 1
    return counts


def _dist_two_enumerated(coeffs, p, w_exp):
    """Histogram of a two-variable quadratic mod p^W over all p^(2W) cells."""
    modulus = p ** w_exp
    c0, cx, cy, cxx, cxy, cyy = (_int_mod(c, modulus, p) for c in coeffs)
    y = np.arange(modulus, dtype=np.int64)
    along_y = (cy * y + cyy * y * y) % modulus
    counts = np.zeros(modulus, dtype=np.int64)
    rows = max(1, (1 << 20) // modulus)
    for x0 in range(0, modulus, rows):
        x = np.arange(x0, min(x0 + rows, modulus), dtype=np.int64)[:, None]
        vals = (c0 + cx * x + cxx * x * x + cxy * x * y + along_y) % modulus
        counts += np.bincount(vals.ravel(), minlength=modulus)
    return counts.tolist()


def _expand_coset(coset, p, w_exp, rank):
    """Histogram of a rank-`rank` block whose values fill c + p^g Z/p^W evenly."""
    c, g = coset
    modulus, cells = p ** w_exp, p ** (w_exp - g)
    counts = [0] * modulus
    counts[c::p ** g] = [modulus ** rank // cells] * cells
    return counts


def _shifted_one(p, rng):
    """A block h/2 (x + s)^2, h = unit * p^e, s = unit / p^sigma, sigma <= 3."""
    h = rng.choice((-1, 1)) * rng.choice([u for u in range(1, 4 * p) if u % p]) \
        * p ** rng.randrange(3)
    s = Fraction(rng.choice([u for u in range(1, p ** 3) if u % p]),
                 p ** rng.randrange(1, 4))
    return (h / Fraction(2) * s * s, h * s, h / Fraction(2))


def _shifted_two(p, rng):
    """p^e U (x + s, y + t) / 2 with det U a unit (U even at p = 2), (s, t)
    primitive of denominator p^sigma, sigma <= 3."""
    while True:
        a, b, c = (rng.randrange(-8, 9) for _ in range(3))
        if p == 2:
            a, b, c = 2 * a, 2 * b + 1, 2 * c
        if (a * c - b * b) % p:
            break
    scale = p ** rng.randrange(4)
    a, b, c = (Fraction(scale * x) for x in (a, b, c))
    sigma = rng.randrange(1, 4)
    while True:
        s0, t0 = rng.randrange(p ** sigma), rng.randrange(p ** sigma)
        if s0 % p or t0 % p:
            break
    s, t = Fraction(s0, p ** sigma), Fraction(t0, p ** sigma)
    return (a / 2 * s * s + b * s * t + c / 2 * t * t, a * s + b * t,
            b * s + c * t, a / 2, b, c / 2)


def _scaled(coeffs, p, extra):
    # the coefficients count() hands over: cleared of p in the denominator,
    # with `extra` further powers of p from the other blocks or from n
    scale = max(_den_exp(x, p) for x in coeffs) + extra
    return tuple(x * p ** scale for x in coeffs)


def test_dist_two_closed_form_matches_enumeration():
    # 2^e U with U even unimodular (hyperbolic or norm-form class), shifted by
    # a primitive w0 / 2^sigma, with the coefficients count() hands over
    rng = random.Random(23)
    det_classes = set()
    for _ in range(400):
        e, sigma = rng.randrange(4), rng.randrange(1, 5)
        extra, w_exp = rng.randrange(3), rng.randrange(1, 8)
        u = (2 * rng.randrange(-4, 5), 2 * rng.randrange(-4, 5) + 1,
             2 * rng.randrange(-4, 5))
        det_classes.add((u[0] * u[2] - u[1] ** 2) % 8)
        a, b, c = (Fraction(2 ** e * x) for x in u)
        while True:
            s0, t0 = rng.randrange(2 ** sigma), rng.randrange(2 ** sigma)
            if s0 % 2 or t0 % 2:
                break
        s, t = Fraction(s0, 2 ** sigma), Fraction(t0, 2 ** sigma)
        coeffs = (a / 2 * s * s + b * s * t + c / 2 * t * t, a * s + b * t,
                  b * s + c * t, a / 2, b, c / 2)
        scale = max(_den_exp(x, 2) for x in coeffs) + extra
        coeffs = tuple(x * 2 ** scale for x in coeffs)
        assert _expand_coset(_dist_two(coeffs, 2, w_exp), 2, w_exp, 2) \
            == _dist_two_enumerated(coeffs, 2, w_exp), (u, e, s, t, scale, w_exp)
    assert det_classes == {3, 7}


def test_dist_one_matches_enumeration():
    # unshifted blocks c2 x^2, v_p(c2) = 0 ... 3, at every W with p^W <= 2^12;
    # odd p also gets the unit denominator 2 of h / 2
    rng = random.Random(43)
    for p in (2, 3, 5, 7):
        units = [u for u in range(1, 4 * p) if u % p]
        w_exp = 1
        while p ** w_exp <= 1 << 12:
            for k in range(4):
                for den in (1, 2) if p > 2 else (1,):
                    c2 = Fraction(rng.choice((-1, 1)) * rng.choice(units) * p ** k, den)
                    coeffs = (Fraction(0), Fraction(0), c2)
                    assert _dist_one(coeffs, p, w_exp) \
                        == _dist_one_enumerated(coeffs, p, w_exp), (p, w_exp, c2)
            w_exp += 1


def test_shifted_blocks_are_uniform_cosets():
    # every shifted block against full enumeration, at every W with
    # p^W <= 2^12; binary blocks get fewer draws where p^(2W) is large
    rng = random.Random(41)
    triangular = 0
    for p in (2, 3, 5, 7):
        w_exp = 1
        while p ** w_exp <= 1 << 12:
            for _ in range(12):
                coeffs = _scaled(_shifted_one(p, rng), p, rng.randrange(3))
                c1, c2 = (_int_mod(c, p ** w_exp, p) for c in coeffs[1:])
                triangular += p == 2 and c1 and c2 and _vp(c1, 2) == _vp(c2, 2)
                assert _expand_coset(_coset_one(coeffs, p, w_exp), p, w_exp, 1) \
                    == _dist_one_enumerated(coeffs, p, w_exp), (p, w_exp, coeffs)
            for _ in range(max(1, min(8, (1 << 16) // p ** (2 * w_exp)))):
                coeffs = _scaled(_shifted_two(p, rng), p, rng.randrange(3))
                assert _expand_coset(_dist_two(coeffs, p, w_exp), p, w_exp, 2) \
                    == _dist_two_enumerated(coeffs, p, w_exp), (p, w_exp, coeffs)
            w_exp += 1
    assert triangular


def test_count_binary_blocks_match_bruteforce():
    # 2 U and 2 (x^2 + xy + y^2) at p = 2: every dual coset, with and without
    # a hyperbolic pad
    reached = 0
    for gram in (((0, 2), (2, 0)), ((4, 2), (2, 4))):
        module = discriminant_module(EvenLattice(gram))
        for j_pad in (0, 1):
            eng = DensityEngine(gram, j_pad)
            big = [list(r) + [0] * (2 * j_pad) for r in gram]
            if j_pad:
                big += [[0, 0, 0, 1], [0, 0, 1, 0]]
            for elem in module.elements():
                gamma = tuple(module.dual_vector(elem))
                reached += any(kind == "two" for kind, _ in eng._plan(2, gamma)[0])
                q = sum(gamma[i] * gram[i][k] * gamma[k]
                        for i in range(2) for k in range(2)) / 2
                for nu in (1, 2):
                    for k in (1, 2, 3, 4):
                        n = (-q) % 1 + k
                        want = count_solutions_bruteforce(
                            big, 2, n, list(gamma) + [0] * 2 * j_pad, nu)
                        assert eng.count(2, n, gamma, nu) == want, \
                            (gram, j_pad, gamma, nu, n)
    assert reached


def _padded(gram, j_pad):
    """The core Gram matrix plus j_pad hyperbolic planes."""
    rank = len(gram)
    big = [list(r) + [0] * (2 * j_pad) for r in gram]
    for t in range(j_pad):
        for col in (rank + 2 * t + 1, rank + 2 * t):
            row = [0] * (rank + 2 * j_pad)
            row[col] = 1
            big.append(row)
    return big


def test_count_mixed_cosets_and_histograms():
    # (gram, j_pad, p, gamma, shifted blocks, unshifted one-dimensional ones);
    # gamma = 1/2 on h = 2 at p = 2 is the triangular case, and where there
    # are two cosets their steps differ
    configs = [
        (((2, 0), (0, 6)), 0, 2, (Fraction(1, 2), 0), 1, 1),
        (((2, 0), (0, 6)), 1, 3, (0, Fraction(1, 3)), 1, 1),
        (((2, 0), (0, 16)), 1, 2, (Fraction(1, 2), Fraction(1, 4)), 2, 0),
        (((6, 0), (0, 54)), 0, 3, (Fraction(1, 3), Fraction(1, 9)), 2, 0),
        (((2, 0, 0), (0, 6, 0), (0, 0, -4)), 1, 2, (Fraction(1, 2), 0, 0), 1, 2),
        (((2, 0, 0), (0, 6, 0), (0, 0, -4)), 1, 3, (0, Fraction(1, 3), 0), 1, 2),
    ]
    for gram, j_pad, p, gamma, cosets, hists in configs:
        eng = DensityEngine(gram, j_pad)
        plan = eng._plan(p, gamma)[0]
        assert sum(k == "one" and c[1] == 0 for k, c in plan) == hists
        assert len(plan) == cosets + hists
        big = _padded(gram, j_pad)
        q = sum(gamma[i] * gram[i][i] * gamma[i] for i in range(len(gram))) / 2
        nu = 1
        while (p ** nu) ** len(big) <= 1 << 10:
            for k in sorted({1, 2, 3, p ** 2}):
                n = q % 1 + k
                want = count_solutions_bruteforce(big, p, n, list(gamma) + [0] * 2 * j_pad, nu)
                assert eng.count(p, n, gamma, nu) == want, (gram, j_pad, p, gamma, nu, n)
            nu += 1


def test_density_cache_round_trip(tmp_path):
    cache = DensityCache(str(tmp_path / "cache"))
    eng = DensityEngine(((2, 1), (1, -2)), 1, cache=cache)
    rec1 = eng.density(2, Fraction(1), (Fraction(0), Fraction(0)))
    cache2 = DensityCache(str(tmp_path / "cache"))
    eng2 = DensityEngine(((2, 1), (1, -2)), 1, cache=cache2)
    rec2 = eng2.density(2, Fraction(1), (Fraction(0), Fraction(0)))
    assert rec1 == rec2
    # stale schema versions are ignored, not deleted
    key = cache.key(eng.core, 1, 2, Fraction(1), (Fraction(0), Fraction(0)))
    path = tmp_path / "cache" / (key + ".json")
    path.write_text('{"schema": 999, "p": 2, "stabilized_at": 1, "value": "7/1"}')
    cache3 = DensityCache(str(tmp_path / "cache"))
    eng3 = DensityEngine(((2, 1), (1, -2)), 1, cache=cache3)
    rec3 = eng3.density(2, Fraction(1), (Fraction(0), Fraction(0)))
    assert rec3.value == rec1.value
    # entries of the wrong shape are misses: recomputed and rewritten
    head = '{"schema": %d, "p": 2, "stabilized_at": 1, ' % CACHE_SCHEMA
    for bad in ('[1, 2]', '{"schema": 1, "p": 2}', '"text"',
                '{"schema": 1, "p": 2, "stabilized_at": 1, "value": "7/1"}',
                '{"schema": 2, "p": 2, "stabilized_at": 1, "value": "7/1"}',
                head + '"value": "7"}', head + '"value": "1/0"}', head + '"value": 7}'):
        path.write_text(bad)
        eng4 = DensityEngine(((2, 1), (1, -2)), 1,
                             cache=DensityCache(str(tmp_path / "cache")))
        assert eng4.density(2, Fraction(1), (Fraction(0), Fraction(0))) == rec1
        assert DensityCache(str(tmp_path / "cache")).get(key) == rec1


def test_decomposition_fuzz_against_bruteforce():
    # random small even lattices: block decomposition + measures vs naive count
    rng = random.Random(31)
    trials = 0
    while trials < 30:
        rank = rng.choice([1, 2, 2, 3])
        gram = [[0] * rank for _ in range(rank)]
        for i in range(rank):
            gram[i][i] = 2 * rng.randrange(-3, 4)
            for j in range(i):
                gram[i][j] = gram[j][i] = rng.randrange(-2, 3)
        from weilforms import _linalg
        if _linalg.det(gram) == 0:
            continue
        gram = tuple(tuple(r) for r in gram)
        j_pad = rng.randrange(0, 2)
        eng = DensityEngine(gram, j_pad)
        p = rng.choice([2, 2, 3, 5])
        # draw gamma from the actual dual lattice
        from weilforms.quadmod import EvenLattice, discriminant_module
        module = discriminant_module(EvenLattice(gram))
        elems = list(module.elements())
        gamma = tuple(module.dual_vector(rng.choice(elems)))
        q = sum(gamma[i] * gram[i][k] * gamma[k]
                for i in range(rank) for k in range(rank)) / 2
        n = (-q) % 1
        n = n + rng.randrange(0, 2)
        if n <= 0:
            n += 1
        nu = rng.choice([1, 2])
        big = [list(r) + [0] * (2 * j_pad) for r in gram]
        for t in range(j_pad):
            r1 = [0] * (rank + 2 * j_pad)
            r2 = [0] * (rank + 2 * j_pad)
            r1[rank + 2 * t + 1] = 1
            r2[rank + 2 * t] = 1
            big.append(r1)
            big.append(r2)
        if (p ** nu) ** len(big) > 1 << 17:
            continue
        got = eng.count(p, n, gamma, nu)
        want = count_solutions_bruteforce(big, p, n,
                                          list(gamma) + [0] * 2 * j_pad, nu)
        assert got == want, (gram, j_pad, p, str(n), gamma, nu, got, want)
        trials += 1


def test_non_dual_gamma_rejected():
    from weilforms.errors import NotInDualError
    eng = DensityEngine(((-6, -2), (-2, 2)), 0)
    with pytest.raises(NotInDualError):
        eng.count(5, Fraction(8, 5), (Fraction(2, 5), Fraction(1, 5)), 1)
