import collections
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from weilforms import _linalg
from weilforms.cuspgen import CuspIndex, r_series
from weilforms.eisenstein import QExpansion
from weilforms.errors import InputError, MismatchError, PrecisionError
from weilforms.quadmod import EvenLattice, discriminant_module, module_dual_coset
from weilforms.thetalift import (LorentzianGram, OrthogonalExpansion,
                                 _cone_vectors, doi_naganuma, theta_lift)


def conjugate_key(r):
    """Galois conjugation on dual coordinates: r1 + r2 w -> r1 + r2 w'."""
    r1, r2 = (Fraction(x) for x in r)
    return (r1 + r2, -r2)


def n2_input(prec=4):
    L = EvenLattice(((-4,),))
    A = discriminant_module(L)
    return r_series(L, Fraction(11, 2),
                    CuspIndex(Fraction(1, 8), A.element((3,))), prec)


def d5_input(prec=8):
    L = EvenLattice(((-2, -1), (-1, 2)))
    A = discriminant_module(L)
    beta = module_dual_coset(A, (Fraction(2, 5), Fraction(1, 5)))
    return r_series(L, 5, CuspIndex(Fraction(1, 5), beta), prec)


def test_lorentzian_gram_validation():
    assert isinstance(LorentzianGram(((4,),), (1,)), EvenLattice)
    g = LorentzianGram(((2, 1), (1, -2)), (1, 0))
    assert isinstance(g, EvenLattice) and g.rank == 2
    with pytest.raises(InputError):
        LorentzianGram(((-4,),), (1,))
    with pytest.raises(InputError):
        LorentzianGram(((2, 1), (1, -2)), (0, 1))  # negative-norm seed
    for gram, seed in [(((3,),), (1,)),                    # odd diagonal
                       (((2, 1), (0, -2)), (1, 0)),        # asymmetric
                       (((2, 2), (2, 2)), (1, 0)),         # singular
                       (((2, 1),), (1, 0)),                # not square
                       (((4.0,),), (1,)),                  # not an integer
                       ((), ())]:                          # empty
        with pytest.raises(InputError):
            LorentzianGram(gram, seed)


def _conjugated(diag, rng):
    """U^T diag U for a random unimodular U, and U^-1 e_0 of norm diag[0].

    U^T diag U has the signature of diag and an even diagonal.
    """
    n = len(diag)
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    inv = [row[:] for row in u]
    for _ in range(3 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]
        for row in inv:
            row[j] -= c * row[i]
    gram = tuple(tuple(sum(u[k][i] * diag[k] * u[k][j] for k in range(n))
                       for j in range(n)) for i in range(n))
    return gram, tuple(row[0] for row in inv)


def test_lorentzian_gram_signature():
    # (1, l-1) is accepted and every other nondegenerate signature rejected;
    # hyperbolic planes U have zero diagonal
    rng = random.Random(3)
    hyp = ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))
    cases = [(((0, 1), (1, 0)), (1, 1), True),
             (((0, 1, 0), (1, 0, 0), (0, 0, -2)), (1, 1, 0), True),
             (((0, 1, 0), (1, 0, 0), (0, 0, 2)), (1, 1, 0), False),
             (hyp, (1, 1, 0, 0), False)]
    for ell in range(1, 5):
        for n_pos in range(ell + 1):
            for _ in range(4):
                diag = [2 * rng.randrange(1, 4) for _ in range(n_pos)] \
                    + [-2 * rng.randrange(1, 4) for _ in range(ell - n_pos)]
                cases.append(_conjugated(diag, rng) + (n_pos == 1,))
    for gram, seed, lorentzian in cases:
        if lorentzian:
            assert LorentzianGram(gram, seed).gram == gram
        else:
            with pytest.raises(InputError, match="signature"):
                LorentzianGram(gram, seed)


def test_shimura_lift_golden():
    lift = theta_lift(n2_input(), LorentzianGram(((4,),), (1,)), 5, 5)
    out = {lift.scalar_index(r): c for r, c in lift.coeffs.items()}
    assert out == {1: 1, 2: 16, 3: -156, 4: 256, 5: 870}
    # the divisor structure: 3^4 - 237 and 5^4 + 245
    assert out[3] == 3 ** 4 - 237
    assert out[5] == 5 ** 4 + 245


def test_lift_primitive_coefficient_is_input_coefficient():
    form = n2_input()
    lift = theta_lift(form, LorentzianGram(((4,),), (1,)), 5, 5)
    # primitive key: v = 1, lambda = 1/4
    lam = (Fraction(1, 4),)
    c = form.coefficient(module_dual_coset(form.module, lam), Fraction(1, 8))
    assert lift.coefficient(lam) == c == 1


def test_lift_linearity():
    f = n2_input()
    gram = LorentzianGram(((4,),), (1,))
    lift_f = theta_lift(f, gram, 5, 5)
    g = f.scale(3)
    lift_g = theta_lift(g, gram, 5, 5)
    assert lift_g.coeffs == {k: 3 * v for k, v in lift_f.coeffs.items()}
    s = QExpansion(f.module, f.weight, f.prec,
                   {k: f.coefficient(*k) + g.coefficient(*k)
                    for k in f.coeffs.keys() | g.coeffs.keys()})
    lift_s = theta_lift(s, gram, 5, 5)
    assert lift_s.coeffs == {k: 4 * v for k, v in lift_f.coeffs.items()}


def test_lift_of_zero_form_is_zero():
    f = n2_input()
    zero = QExpansion(f.module, f.weight, f.prec, {})
    lift = theta_lift(zero, LorentzianGram(((4,),), (1,)), 5, 5)
    assert lift.is_zero() and not lift.coeffs


def test_lift_cusp_support():
    lift = doi_naganuma(5, d5_input(), 3)
    for r in lift.coeffs:
        assert lift.height(r) > 0


def test_lift_mismatch_errors():
    f = n2_input()
    with pytest.raises(MismatchError):
        theta_lift(f, LorentzianGram(((2,),), (1,)), 5, 5)
    with pytest.raises(MismatchError):
        theta_lift(f, LorentzianGram(((4,),), (1,)), 6, 5)


def test_lift_precision_error():
    f = n2_input(2)
    with pytest.raises(PrecisionError):
        theta_lift(f, LorentzianGram(((4,),), (1,)), 5, 6)


def test_doi_naganuma_structure():
    lift = doi_naganuma(5, d5_input(), 4)
    assert not lift.is_zero()
    for r, c in lift.coeffs.items():
        rc = conjugate_key(r)
        if rc == r:
            assert c == 0
        height = lift.height(rc)
        if 0 < height <= lift.height_bound:
            assert lift.coefficient(rc) == -c


def test_doi_naganuma_input_checks():
    with pytest.raises(InputError):
        doi_naganuma(8, d5_input(), 2)
    with pytest.raises(InputError):
        doi_naganuma(25, d5_input(), 2)


def test_orthogonal_expansion_round_trip():
    lift = doi_naganuma(5, d5_input(), 3)
    data = lift.to_json_dict()
    lift2 = OrthogonalExpansion.from_json_dict(data)
    assert lift2.coeffs == lift.coeffs
    assert lift2.gram.gram == lift.gram.gram
    assert lift2.weight == lift.weight


def _box_search(gram, bound):
    """The cone vectors by an exhaustive search of a box that holds them all.

    For r in the cone, N(r) = 2 <r, w>^2 / (w, w) - (r, r) is at most
    2 B^2 / (w, w) = C, with w the seed; N is positive definite.  In the
    coordinates v = S r its matrix is M = 2 w w^T / (w, w) - S^-1, so
    |v_i|^2 <= C (M^-1)_ii.  None if the box has more than 10^5 points.
    """
    ell, w = gram.rank, gram.cone_seed
    sinv = _linalg.inverse(gram.gram)
    ww = 2 * gram.qvalue(w)
    m = [[2 * w[i] * w[j] / ww - sinv[i][j] for j in range(ell)]
         for i in range(ell)]
    minv = _linalg.inverse(m)
    c = 2 * bound ** 2 / ww
    half = [math.isqrt(math.floor(c * minv[i][i])) for i in range(ell)]
    if math.prod(2 * h + 1 for h in half) > 10 ** 5:
        return None
    box = np.stack(np.meshgrid(*(np.arange(-h, h + 1) for h in half),
                               indexing="ij"), -1).reshape(-1, ell)
    # in integers: den * height, and (r, r) times |det S|
    den = math.lcm(*(x.denominator for x in w))
    height = box @ np.array([int(x * den) for x in w])
    det = abs(_linalg.det(gram.gram))
    norm = np.einsum("ni,ij,nj->n", box,
                     np.array([[int(det * x) for x in row] for row in sinv]), box)
    keep = (height > 0) & (height <= math.floor(bound * den)) & (norm >= 0)
    return [tuple(int(x) for x in v) for v in box[keep]]


def test_cone_vectors_match_box_search():
    # one enumerator for every rank: random conjugates of diagonal forms
    # at ranks 1 to 3, integral and rational seeds, and U + [-2] + [-2];
    # random rank-4 conjugates mostly have boxes too large to search
    rng = random.Random(11)
    u22 = ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, -2, 0), (0, 0, 0, -2))
    cases = [(u22, (1, 1, 0, 0), 4),
             (u22, (1, Fraction(1, 2), Fraction(1, 3), 0), Fraction(7, 2)),
             (((0, 1, 0), (1, 0, 0), (0, 0, -4)), (1, 1, 0), 4),
             (((0, 1, 0), (1, 0, 0), (0, 0, -4)),
              (1, Fraction(1, 2), Fraction(1, 3)), Fraction(7, 2)),
             (((2, 1), (1, -2)), (Fraction(3, 2), Fraction(-1, 3)), 5),
             (((4,),), (Fraction(-2, 3),), 5)]
    for ell in (1, 2, 3) * 5:
        diag = [2 * rng.randrange(1, 4)] \
            + [-2 * rng.randrange(1, 4) for _ in range(ell - 1)]
        gram, seed = _conjugated(diag, rng)
        cases.append((gram, seed, rng.randrange(1, 6)))
        rational = tuple(x + Fraction(rng.randrange(-1, 2), 3) for x in seed)
        if LorentzianGram(gram, seed).qvalue(rational) > 0:
            cases.append((gram, rational, Fraction(rng.randrange(3, 15), 2)))
    searched = collections.Counter()
    for gram, seed, bound in cases:
        lg = LorentzianGram(gram, seed)
        box = _box_search(lg, Fraction(bound))
        if box is None:
            continue
        got = _cone_vectors(lg, Fraction(bound))
        assert len(got) == len(set(got))
        assert sorted(got) == sorted(box), (gram, seed, bound)
        searched[lg.rank] += bool(box)
    assert min(searched[ell] for ell in (1, 2, 3)) >= 5 and searched[4] == 2


def test_rank3_lift_primitive_keys_read_the_input():
    # an O(2, 3) lift: at every key r whose S r has content 1 the lift
    # coefficient is the input coefficient c(q(r), r)
    L = EvenLattice(((0, -1, 0), (-1, 0, 0), (0, 0, 4)))
    A = discriminant_module(L)
    form = r_series(L, Fraction(21, 2), CuspIndex(Fraction(7, 8), A.element((1,))), 8)
    gram = LorentzianGram(((0, 1, 0), (1, 0, 0), (0, 0, -4)), (1, 1, 0))
    lift = theta_lift(form, gram, 11, 4)
    sinv = _linalg.inverse(gram.gram)
    primitive = 0
    for v in _cone_vectors(gram, Fraction(4)):
        if math.gcd(*v) == 1:
            r = tuple(_linalg.mat_vec(sinv, v))
            c = form.coefficient(module_dual_coset(A, r), gram.qvalue(r))
            assert lift.coefficient(r) == c
            primitive += bool(c)
    assert primitive and not lift.is_zero()
    assert lift.coefficient((1, 1, Fraction(-1, 4))) == Fraction(25920, 8831)
