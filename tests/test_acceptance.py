"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import random
import time
from fractions import Fraction

import pytest

from weilforms.classnum import hurwitz, prop10_check, remark12_check
from weilforms.cuspgen import CuspIndex, cusp_basis, r_series, weight3_cyclic
from weilforms.dimensions import dim_antisymmetric
from weilforms.eisenstein import eisenstein_qexp, modularity_residual
from weilforms.quadmod import (EvenLattice, cyclic_module, discriminant_module,
                               module_dual_coset)
from weilforms.thetalift import LorentzianGram, doi_naganuma, theta_lift

from test_classnum import hurwitz_oracle
from test_thetalift import conjugate_key


def report(cid, ok, detail=""):
    print("ACCEPTANCE %-2s %s %s" % (cid, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %s failed: %s" % (cid, detail)


@pytest.fixture(scope="module")
def n2_series():
    L = EvenLattice(((-4,),))
    A = discriminant_module(L)
    start = time.monotonic()
    f = r_series(L, Fraction(11, 2), CuspIndex(Fraction(1, 8), A.element((3,))), 4)
    return L, A, f, time.monotonic() - start


@pytest.fixture(scope="module")
def d5_series():
    L = EvenLattice(((-2, -1), (-1, 2)))
    A = discriminant_module(L)
    beta = module_dual_coset(A, (Fraction(2, 5), Fraction(1, 5)))
    start = time.monotonic()
    f = r_series(L, 5, CuspIndex(Fraction(1, 5), beta), 6)
    elapsed = time.monotonic() - start
    f8 = r_series(L, 5, CuspIndex(Fraction(1, 5), beta), 8)
    return L, A, f, elapsed, f8


def test_criterion_1_n2_golden_expansion(n2_series):
    L, A, f, elapsed = n2_series
    g14 = module_dual_coset(A, (Fraction(1, 4),))
    g34 = module_dual_coset(A, (Fraction(3, 4),))
    want = {Fraction(1, 8): 1, Fraction(9, 8): 237,
            Fraction(17, 8): 1440, Fraction(25, 8): 245}
    ok = (dict(f.component(g14)) == want
          and dict(f.component(g34)) == {k: -v for k, v in want.items()}
          and elapsed < 30)
    report(1, ok, "coefficients 1,237,1440,245 on e_{1/4}; %.2fs" % elapsed)


def test_criterion_2_shimura_lift(n2_series):
    _, _, f, _ = n2_series
    start = time.monotonic()
    lift = theta_lift(f, LorentzianGram(((4,),), (1,)), 5, 5)
    elapsed = time.monotonic() - start
    out = {lift.scalar_index(r): c for r, c in lift.coeffs.items()}
    ok = out == {1: 1, 2: 16, 3: -156, 4: 256, 5: 870} and elapsed < 10
    report(2, ok, "q+16q^2-156q^3+256q^4+870q^5; %.2fs" % elapsed)


def test_criterion_3_d5_golden_expansion(d5_series):
    L, A, f, elapsed, _ = d5_series
    beta = module_dual_coset(A, (Fraction(2, 5), Fraction(1, 5)))
    comp1 = dict(f.component(beta))
    want1 = {Fraction(1, 5): 1, Fraction(6, 5): 42, Fraction(11, 5): -108,
             Fraction(16, 5): -4, Fraction(21, 5): -378, Fraction(26, 5): 1512}
    # second pair orientation is forced by the transformation law; the
    # stated values are carried by the e_{(4/5,2/5)} - e_{(1/5,3/5)} pair
    comp2 = dict(f.component(module_dual_coset(A, (Fraction(4, 5), Fraction(2, 5)))))
    want2 = {Fraction(4, 5): -26, Fraction(9, 5): -39, Fraction(14, 5): 378,
             Fraction(19, 5): -140, Fraction(24, 5): -420}
    ok = (comp1 == want1
          and all(comp2[n] == c for n, c in want2.items())
          and all(f.coefficient(module_dual_coset(A, (Fraction(1, 5), Fraction(3, 5))), n) == -c
                  for n, c in want2.items())
          and elapsed < 60)
    report(3, ok, "42,-108,-4,-378,1512 and -26,-39,378,-140,-420; %.2fs" % elapsed)


def test_criterion_4_dimension_anchors():
    a = dim_antisymmetric(discriminant_module(EvenLattice(((-2, -1), (-1, 2)))), 5)
    b = dim_antisymmetric(discriminant_module(EvenLattice(((-4,),))), Fraction(11, 2))
    c = dim_antisymmetric(cyclic_module(5)[0], 3)
    d = dim_antisymmetric(cyclic_module(9)[0], 3)
    ok = (a.dim_s, b.dim_s, c.dim_s, d.dim_s) == (1, 1, 0, 0) and \
        max(r.numeric_residual for r in (a, b, c, d)) < 1e-6
    report(4, ok, "dim S = 1,1,0,0 with residuals < 1e-6")


def test_criterion_5_weight3_vanishing():
    f5 = weight3_cyclic(5, 5)
    f9 = weight3_cyclic(9, 5)
    ok = f5.is_zero() and f9.is_zero() and not f5.coeffs and not f9.coeffs
    report(5, ok, "weight3(5,5) and weight3(9,5) identically zero")


def test_criterion_6_prop10_suite():
    start = time.monotonic()
    ok = True
    for n in range(51):
        for variant in ("i", "ii"):
            lhs, rhs, equal = prop10_check(variant, n)
            ok = ok and equal
            if n == 3:
                ok = ok and lhs == Fraction(-8, 15) and rhs == Fraction(-8, 15)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60
    report(6, ok, "both variants equal for n <= 50, n=3 value -8/15; %.2fs" % elapsed)


def test_criterion_7_remark12_suite():
    ok = all(remark12_check(n)[3] for n in range(1, 201))
    report(7, ok, "both congruence identities for n <= 200")


def test_criterion_8_hurwitz_values_and_oracle():
    anchors = {0: Fraction(-1, 12), 3: Fraction(1, 3), 8: Fraction(1),
               11: Fraction(1), 12: Fraction(4, 3), 15: Fraction(2)}
    ok = all(hurwitz(d) == v for d, v in anchors.items())
    ok = ok and all(hurwitz(d) == hurwitz_oracle(d) for d in range(501))
    report(8, ok, "anchor values and brute-force agreement for d <= 500")


def test_criterion_9_eisenstein_oracle():
    E = eisenstein_qexp(EvenLattice(()), 4, 20)
    def sigma3(n):
        return sum(d ** 3 for d in range(1, n + 1) if n % d == 0)
    ok = E.coefficient((), 0) == 1
    for n in range(1, 20):
        ok = ok and E.coefficient((), n) == 240 * sigma3(n)
    report(9, ok, "E4 = 1 + 240 sum sigma_3 q^n exactly to prec 20")


PROPERTY_POOL = [
    (((-4,),), Fraction(11, 2)),
    (((2,),), Fraction(9, 2)),
    (((-2,),), Fraction(11, 2)),
    (((4,),), Fraction(9, 2)),
    (((6,),), Fraction(9, 2)),
    (((-6,),), Fraction(11, 2)),
    (((2, 1), (1, 2)), Fraction(4)),
    (((-2, -1), (-1, -2)), Fraction(4)),
    (((-2, -1), (-1, 2)), Fraction(5)),
    (((2, 1), (1, -2)), Fraction(5)),
    (((2,),), Fraction(13, 2)),
    (((-4,),), Fraction(15, 2)),
]


def test_criterion_10_property_suite():
    rng = random.Random(20260808)
    modules = rng.sample(PROPERTY_POOL, 10)
    details = []
    ok = True
    for gram, weight in modules:
        lattice = EvenLattice(gram)
        module = discriminant_module(lattice)
        rep = dim_antisymmetric(module, weight)
        basis = cusp_basis(lattice, weight)
        ok = ok and len(basis) == rep.dim_s
        if basis:
            idx = basis[0][0]
        else:
            beta = next(module.pair_reps(), module.zero())
            m = (-module.qvalue(beta)) % 1
            idx = CuspIndex(m if m else Fraction(1), beta)
        series = r_series(lattice, weight, idx, 10)
        for (g, n), v in series.coeffs.items():
            ok = ok and n > 0
            ok = ok and series.coefficient(module.neg(module.element(g)), n) == -v
        resid = modularity_residual(series)
        ok = ok and resid < 1e-4
        details.append("%s k=%s dim=%d resid=%.1e" %
                       (gram, weight, rep.dim_s, resid))
    report(10, ok, "; ".join(details))


def test_criterion_11_doi_naganuma_structure(d5_series):
    L, A, _, _, f8 = d5_series
    lift = doi_naganuma(5, f8, 4)
    ok = not lift.is_zero()
    for r, c in lift.coeffs.items():
        rc = conjugate_key(r)
        if rc == r:
            ok = ok and c == 0
        if 0 < lift.height(rc) <= lift.height_bound:
            ok = ok and lift.coefficient(rc) == -c
    basis = cusp_basis(L, 5)
    ok = ok and len(basis) == 1
    report(11, ok, "nonzero lift, swap sign (-1)^5, self-conjugate zero, 1-dim input")
