import math
import random
from fractions import Fraction

import pytest
import sympy
from sympy.functions.combinatorial.numbers import kronecker_symbol as sympy_kronecker

from weilforms import _linalg, localdensity
from weilforms.eisenstein import (KroneckerCharacter, QExpansion, eisenstein_qexp,
                                  fundamental_discriminant_of,
                                  generalized_bernoulli, kronecker,
                                  modularity_residual)
from weilforms.errors import InputError, UnsupportedWeightError
from weilforms.quadmod import EvenLattice, module_dual_coset


def sigma(n, k):
    return sum(d ** k for d in range(1, n + 1) if n % d == 0)


@pytest.fixture(scope="module")
def det16_expansion():
    L = EvenLattice(((0, 0, 2), (0, -4, 0), (2, 0, 0)))
    return eisenstein_qexp(L, Fraction(5, 2), 3)


def test_e4_classical_oracle():
    E = eisenstein_qexp(EvenLattice(()), 4, 6)
    assert E.coefficient((), 0) == 1
    for n in range(1, 6):
        assert E.coefficient((), n) == 240 * sigma(n, 3)


def test_e6_classical_oracle():
    E = eisenstein_qexp(EvenLattice(()), 6, 6)
    for n in range(1, 6):
        assert E.coefficient((), n) == -504 * sigma(n, 5)


def test_constant_term():
    L = EvenLattice(((2, 1), (1, 2)))
    E = eisenstein_qexp(L, 3, 3)
    A = E.module
    assert E.coefficient(A.zero(), 0) == 1
    for g in A.elements():
        if g != A.zero():
            assert E.coefficient(g, 0) == 0


def test_antisymmetric_weight_gives_zero():
    L = EvenLattice(((2, 1), (1, 2)))  # signature 2: weight 4 is antisymmetric
    E = eisenstein_qexp(L, 4, 5)
    assert E.is_zero() and not E.coeffs


def test_weight_below_five_halves_rejected():
    with pytest.raises(UnsupportedWeightError):
        eisenstein_qexp(EvenLattice(((2,),)), 2, 5)


def test_known_weight3_expansion():
    # A2 root lattice at weight 3
    L = EvenLattice(((2, 1), (1, 2)))
    E = eisenstein_qexp(L, 3, 4)
    A = E.module
    g0 = A.zero()
    g1 = module_dual_coset(A, (Fraction(1, 3), Fraction(1, 3)))
    assert dict(E.component(g0))[Fraction(1)] == 72
    assert dict(E.component(g0))[Fraction(2)] == 270
    assert dict(E.component(g0))[Fraction(3)] == 720
    comp = dict(E.component(g1))
    assert comp[Fraction(2, 3)] == 27
    assert comp[Fraction(5, 3)] == 216
    assert comp[Fraction(8, 3)] == 459
    assert comp[Fraction(11, 3)] == 1080
    # symmetric coefficient law
    for (g, n), v in E.coeffs.items():
        assert E.coefficient(A.neg(A.element(g)), n) == v


def test_known_half_integral_expansion(det16_expansion):
    # rank 3 lattice of determinant 16 at weight 5/2
    E = det16_expansion
    A = E.module

    def comp(v):
        return dict(E.component(module_dual_coset(A, [Fraction(x) for x in v])))

    c0 = comp((0, 0, 0))
    assert c0[Fraction(1)] == -8 and c0[Fraction(2)] == -102
    c1 = comp((0, Fraction(3, 4), 0))
    assert c1[Fraction(1, 8)] == -1 and c1[Fraction(9, 8)] == -25
    assert c1[Fraction(17, 8)] == -48
    c2 = comp((0, Fraction(1, 2), 0))
    assert c2[Fraction(1, 2)] == -14 and c2[Fraction(3, 2)] == -16
    c3 = comp((Fraction(1, 2), Fraction(3, 4), Fraction(1, 2)))
    assert c3[Fraction(5, 8)] == -8 and c3[Fraction(13, 8)] == -40


def test_known_weight5_det12_expansion():
    # nontrivial character with denominator 11 in every nonconstant term
    L = EvenLattice(((2, 0), (0, 6)))
    E = eisenstein_qexp(L, 5, 2)
    A = E.module

    def comp(v):
        return dict(E.component(module_dual_coset(A, [Fraction(x) for x in v])))

    F = Fraction
    assert comp((0, 0)) == {F(0): 1, F(1): F(-1280, 11)}
    assert comp((0, F(1, 6))) == {F(11, 12): F(-915, 11), F(23, 12): -1590}
    assert comp((0, F(1, 3))) == {F(2, 3): F(-255, 11), F(5, 3): F(-9984, 11)}
    assert comp((0, F(1, 2))) == {F(1, 4): F(-5, 11), F(5, 4): F(-3198, 11)}
    assert comp((F(1, 2), 0)) == {F(3, 4): F(-410, 11), F(7, 4): F(-12010, 11)}
    assert comp((F(1, 2), F(1, 6))) == {F(2, 3): F(-240, 11),
                                        F(5, 3): F(-10608, 11)}
    assert comp((F(1, 2), F(1, 3))) == {F(5, 12): F(-39, 11),
                                        F(17, 12): F(-5220, 11)}
    assert comp((F(1, 2), F(1, 2))) == {F(1): F(-1360, 11)}


def test_common_denominator_recorded():
    L = EvenLattice(((2, 0), (0, 6)))
    E = eisenstein_qexp(L, 5, 3)
    den = E.common_denominator()
    assert den >= 1
    assert all((v * den).denominator == 1 for v in E.coeffs.values())
    assert any(v.denominator == den for v in E.coeffs.values())


def test_generalized_bernoulli_examples():
    triv = KroneckerCharacter(1)
    assert generalized_bernoulli(triv, 2) == Fraction(1, 6)
    chi4 = KroneckerCharacter(-4)
    assert generalized_bernoulli(chi4, 1) == Fraction(-1, 2)
    rng = random.Random(2)
    for disc in (-3, -4, 5, 8, -8, 12, 13):
        chi = KroneckerCharacter(disc)
        for n in range(1, 6):
            if (disc < 0) != (n % 2 == 1):
                assert generalized_bernoulli(chi, n) == 0


def _bernoulli_poly(r):
    """Coefficients of the Bernoulli polynomial B_r(x), lowest degree first."""
    x = sympy.Symbol("x")
    return [Fraction(int(c.p), int(c.q))
            for c in sympy.Poly(sympy.bernoulli(r, x), x).all_coeffs()[::-1]]


def test_generalized_bernoulli_against_sympy():
    # B_{k,chi} = f^(k-1) sum_(a <= f) chi(a) B_k(a/f), with sympy's Bernoulli
    # polynomials and Kronecker symbol as the oracle, on every fundamental
    # discriminant |D| <= 400 at k <= 6, and at k <= 3 on six of both signs
    # and every residue class mod 8 with 8000 < |D| < 9000, where the
    # Eisenstein series of [[-1458]] reach; the polynomial is evaluated
    # homogenized, f^k B_k(a/f) = sum_i c_i a^i f^(k-i), in exact integers
    polys = {k: _bernoulli_poly(k) for k in range(1, 7)}
    discs = [d for d in range(-400, 401)
             if d and fundamental_discriminant_of(Fraction(d)) == d]
    assert len(discs) == 243
    large = [-8995, -8996, -8984, 8737, 8972, 8984]
    assert all(fundamental_discriminant_of(Fraction(d)) == d for d in large)
    top = max(abs(d) for d in large)
    spf = list(range(top + 1))
    for q in range(2, math.isqrt(top) + 1):
        for m in range(q * q, top + 1, q):
            spf[m] = min(spf[m], q)
    for disc in discs + large:
        # (disc / a) is completely multiplicative in a: sympy's values at
        # primes, extended through the smallest prime factor
        f = abs(disc)
        chi = [0, 1]
        for a in range(2, f + 1):
            q = spf[a]
            chi.append(int(sympy_kronecker(disc, q)) if q == a else chi[q] * chi[a // q])
        for k, coeffs in polys.items():
            if f > 400 and k > 3:
                break
            den = math.lcm(*(c.denominator for c in coeffs))
            ints = [int(c * den) for c in coeffs]
            total = sum(chi[a] * sum(c * a ** i * f ** (k - i) for i, c in enumerate(ints))
                        for a in range(1, f + 1) if chi[a])
            assert generalized_bernoulli(KroneckerCharacter(disc), k) == \
                Fraction(total, den * f), (disc, k)


def test_kronecker_symbol_against_legendre():
    for p in (3, 5, 7, 11, 13):
        squares = {x * x % p for x in range(1, p)}
        for a in range(1, p):
            want = 1 if a in squares else -1
            assert kronecker(a, p) == want
    assert kronecker(2, 0) == 0 and kronecker(1, 0) == 1
    assert fundamental_discriminant_of(Fraction(8)) == 8
    assert fundamental_discriminant_of(Fraction(-1)) == -4
    assert fundamental_discriminant_of(Fraction(18)) == 8
    assert fundamental_discriminant_of(Fraction(1, 2)) == 8
    assert fundamental_discriminant_of(Fraction(9)) == 1


def test_modularity_residual_e4():
    E = eisenstein_qexp(EvenLattice(()), 4, 12)
    assert modularity_residual(E, (1j,)) < 1e-6
    assert modularity_residual(E) < 1e-6


def test_modularity_residual_nontrivial_module_prec10():
    # the series handed to the cusp generator must pass the numeric law
    L = EvenLattice(((2, 1), (1, 2)))
    E = eisenstein_qexp(L, 3, 10)
    assert modularity_residual(E) < 1e-4


def test_modularity_residual_zero_expansion():
    L = EvenLattice(((2, 1), (1, 2)))
    E = eisenstein_qexp(L, 4, 5)
    assert modularity_residual(E) == 0


def test_modularity_residual_detects_perturbation(det16_expansion):
    # a unit bump at a low fractional exponent is loud at the sample points
    E = det16_expansion
    key = min(E.coeffs, key=lambda k: k[1] if k[1] > 0 else Fraction(99))
    bad = dict(E.coeffs)
    bad[key] += 1
    Ebad = QExpansion(E.module, E.weight, E.prec, bad)
    assert modularity_residual(Ebad) > 1e-2
    # integral-exponent bumps are quieter but still visible
    E4 = eisenstein_qexp(EvenLattice(()), 4, 12)
    bad4 = dict(E4.coeffs)
    bad4[((), Fraction(1))] += 1
    assert modularity_residual(QExpansion(E4.module, E4.weight, E4.prec, bad4)) > 1e-4


def test_qexpansion_json_round_trip(det16_expansion):
    E = det16_expansion
    L = E.module.lattice
    data = E.to_json_dict()
    E2 = QExpansion.from_json_dict(data)
    assert E2.coeffs == E.coeffs
    assert E2.weight == E.weight and E2.prec == E.prec
    assert E2.module.lattice.gram == L.gram


def test_from_json_rejects_bad_exponent_class():
    E = eisenstein_qexp(EvenLattice(((2, 1), (1, 2))), 3, 3)
    data = E.to_json_dict()
    data["coeffs"].append({"gamma": [1, 1], "n": "1/7", "c": "3/1"})
    with pytest.raises(Exception):
        QExpansion.from_json_dict(data)


def test_from_json_rejects_gamma_outside_group():
    data = {"gram": [[-2]], "weight": "5/2", "prec": "2/1",
            "coeffs": [{"gamma": [1], "n": "1/4", "c": "3/1"}]}
    assert QExpansion.from_json_dict(data).coefficient((1,), Fraction(1, 4)) == 3
    for gamma in ([1, 7, 9], [3], [-1], [], [0, 1]):
        data["coeffs"][0]["gamma"] = gamma
        with pytest.raises(InputError, match="not in the discriminant group"):
            QExpansion.from_json_dict(data)
    # a coordinate that is not a JSON integer is refused, not truncated
    for gamma in ([1.5], [True], [1.0], ["1"]):
        data["coeffs"][0]["gamma"] = gamma
        with pytest.raises(InputError, match="gamma entries must be integers"):
            QExpansion.from_json_dict(data)
    data["coeffs"][0]["gamma"] = [1]
    for item, key in ((data["coeffs"][0], "c"), (data["coeffs"][0], "n"),
                      (data, "weight"), (data, "prec")):
        saved, item[key] = item[key], float("inf")
        with pytest.raises(InputError, match="OverflowError"):
            QExpansion.from_json_dict(data)
        item[key] = saved
    assert QExpansion.from_json_dict(data).coefficient((1,), Fraction(1, 4)) == 3


E6_CARTAN = [[2, -1, 0, 0, 0, 0], [-1, 2, -1, 0, 0, 0], [0, -1, 2, -1, 0, -1],
             [0, 0, -1, 2, -1, 0], [0, 0, 0, -1, 2, 0], [0, 0, -1, 0, 0, 2]]
E7_CARTAN = [[2, -1, 0, 0, 0, 0, 0], [-1, 2, -1, 0, 0, 0, 0],
             [0, -1, 2, -1, 0, 0, -1], [0, 0, -1, 2, -1, 0, 0],
             [0, 0, 0, -1, 2, -1, 0], [0, 0, 0, 0, -1, 2, 0],
             [0, 0, -1, 0, 0, 0, 2]]


def _dual_cosets(gram):
    """Representatives gamma of L*/L in basis coordinates, reduced mod 1."""
    inv = _linalg.inverse(gram)
    order = int(abs(_linalg.det(gram)))
    reps = set()
    for col in range(len(gram)):
        for k in range(order):
            reps.add(tuple((k * inv[r][col]) % 1 for r in range(len(gram))))
    assert len(reps) == order
    return sorted(reps)


def _theta_counts(gram, gamma, bound):
    """{Q(v): #v} over v in gamma + Z^n with Q(v) = v G v / 2 < bound.

    Fincke-Pohst: Q(y) = sum_i d_i (y_i + sum_(j>i) mu_ij y_j)^2, and each
    y_i is enumerated, last index first, in the interval that the remaining
    budget allows; every bound is exact.
    """
    n = len(gram)
    a = [[Fraction(x, 2) for x in row] for row in gram]
    d, mu = [], []
    for i in range(n):
        d.append(a[i][i])
        mu.append([a[i][j] / a[i][i] for j in range(n)])
        for j in range(i + 1, n):
            for k in range(i + 1, n):
                a[j][k] -= a[i][j] * a[i][k] / a[i][i]
    counts = {}

    def walk(i, y, used):
        if i < 0:
            counts[used] = counts.get(used, 0) + 1
            return
        center = -sum(mu[i][j] * y[j] for j in range(i + 1, n))
        radius = math.isqrt(math.floor((bound - used) / d[i])) + 1
        first = math.floor(center - gamma[i]) - radius
        for x in range(first, first + 2 * radius + 2):
            part = d[i] * (gamma[i] + x - center) ** 2
            if used + part < bound:
                y[i] = gamma[i] + x
                walk(i - 1, y, used + part)

    walk(n - 1, [0] * n, Fraction(0))
    return counts


@pytest.mark.parametrize("gram, weight, root_system, roots, p", [
    (((2,),), Fraction(7, 2), E7_CARTAN, 126, 2),
    (((2, 1), (1, 2)), 3, E6_CARTAN, 72, 3),
])
def test_siegel_weil_class_number_one(gram, weight, root_system, roots, p,
                                      monkeypatch):
    # A1 + E7 and A2 + E6 lie in E8 as orthogonal complements, so the
    # discriminant form of E7 (E6) is that of [[2]] (A2) negated; E7 and E6
    # have class number one, so the Eisenstein series is their theta series.
    # Both groups are cyclic of prime order, where -Q of a nonzero element
    # does not depend on the element: compare the series as multisets.
    prec = 4
    shifted = []
    coset_one = localdensity._coset_one

    def spy(coeffs, q, w_exp):
        shifted.append(q)
        return coset_one(coeffs, q, w_exp)

    monkeypatch.setattr(localdensity, "_coset_one", spy)
    E = eisenstein_qexp(EvenLattice(gram), weight, prec)
    assert p in shifted
    theta = sorted(sorted(_theta_counts(root_system, gamma, prec).items())
                   for gamma in _dual_cosets(root_system))
    assert theta[0][:2] == [(0, 1), (1, roots)]
    eis = sorted(sorted((n, c) for (g, n), c in E.coeffs.items()
                        if g == elem and c)
                 for elem in E.module.elements())
    assert eis == theta


def _cohen_h(r, big_n):
    """Cohen's H(r, N) from sympy alone, for N > 0 and (-1)^r N = D f^2 with D
    a fundamental discriminant (0 when N is not of that form):

        H(r, N) = L(1 - r, chi_D) sum_(d | f) mu(d) chi_D(d) d^(r-1) sigma_(2r-1)(f / d),

    with L(1 - r, chi_D) = -B_(r, chi_D) / r and B_(r, chi) = |D|^(r-1)
    sum_(a <= |D|) chi(a) B_r(a / |D|).
    """
    disc = (-1) ** r * big_n
    f = 1
    for q, e in sympy.factorint(abs(disc)).items():
        f *= q ** (e // 2)
    while True:
        d0 = disc // (f * f)
        if d0 % 4 == 1 or (d0 % 4 == 0 and d0 // 4 % 4 in (2, 3)):
            break
        if f % 2:
            return Fraction(0)
        f //= 2
    fd = abs(d0)
    poly = _bernoulli_poly(r)
    bern = fd ** (r - 1) * sum(int(sympy_kronecker(d0, a))
                               * sum(c * Fraction(a, fd) ** i for i, c in enumerate(poly))
                               for a in range(1, fd + 1))
    return -bern / r * sum(int(sympy.mobius(d)) * int(sympy_kronecker(d0, d)) * d ** (r - 1)
                           * int(sympy.divisor_sigma(f // d, 2 * r - 1))
                           for d in sympy.divisors(f))


@pytest.mark.parametrize("gram, weight", [
    (((-2,),), Fraction(5, 2)), (((-2,),), Fraction(9, 2)), (((-2,),), Fraction(13, 2)),
    (((2,),), Fraction(7, 2)), (((2,),), Fraction(11, 2)),
])
def test_cohen_numbers(gram, weight):
    # rank 1 at every weight 5/2 ... 13/2: the coefficient at (gamma, n) is
    # H(r, 4n) / zeta(1 - 2r), r = weight - 1/2 (Cohen, Math. Ann. 217, 1975)
    prec = 40
    r = int(weight - Fraction(1, 2))
    zeta = -_bernoulli_poly(2 * r)[0] / (2 * r)
    E = eisenstein_qexp(EvenLattice(gram), weight, prec)
    nonzero = 0
    for gamma in E.module.elements():
        n = -E.module.qvalue(gamma) % 1
        if n == 0:
            assert E.coefficient(gamma, 0) == 1
            n += 1
        while n < prec:
            want = _cohen_h(r, int(4 * n)) / zeta
            assert E.coefficient(gamma, n) == want, (gram, weight, gamma, n)
            nonzero += want != 0
            n += 1
    assert nonzero >= 70


E8_CARTAN = [[2, -1, 0, 0, 0, 0, 0, 0], [-1, 2, -1, 0, 0, 0, 0, 0],
             [0, -1, 2, -1, 0, 0, 0, 0], [0, 0, -1, 2, -1, 0, 0, 0],
             [0, 0, 0, -1, 2, -1, 0, -1], [0, 0, 0, 0, -1, 2, -1, 0],
             [0, 0, 0, 0, 0, -1, 2, 0], [0, 0, 0, 0, -1, 0, 0, 2]]


def test_e8_gives_e4():
    # -E8 at weight 4: the engine counts on the unimodular core E8 at p = 2
    # (no padding), and the series is E_4
    gram = tuple(tuple(-x for x in row) for row in E8_CARTAN)
    assert _linalg.det(E8_CARTAN) == 1
    E = eisenstein_qexp(EvenLattice(gram), 4, 6)
    zero = E.module.zero()
    assert E.coefficient(zero, 0) == 1
    for n in range(1, 6):
        assert E.coefficient(zero, n) == 240 * sigma(n, 3)
