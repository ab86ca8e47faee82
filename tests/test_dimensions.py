import math
import random
from fractions import Fraction

import pytest

from weilforms import _linalg
from weilforms.dimensions import dim_antisymmetric, gauss_sum, sawtooth
from weilforms.errors import WrongParityError
from weilforms.quadmod import (EvenLattice, _e, cyclic_module,
                               discriminant_module)


def test_sawtooth_values():
    assert sawtooth(0) == 0
    assert sawtooth(Fraction(1, 2)) == 0
    rng = random.Random(3)
    for _ in range(20):
        x = Fraction(rng.randrange(-50, 50), rng.randrange(1, 20))
        assert sawtooth(x + 1) == sawtooth(x)
        assert sawtooth(-x) == -sawtooth(x)


def test_gauss_sum_examples():
    triv = discriminant_module(EvenLattice(()))
    assert abs(gauss_sum(1, triv) - 1) < 1e-12
    rng = random.Random(4)
    for gram in [((2,),), ((-4,),), ((2, 1), (1, -2)), ((2, 0), (0, 6))]:
        A = discriminant_module(EvenLattice(gram))
        g1 = gauss_sum(1, A)
        want = math.sqrt(A.order) * complex(
            math.cos(2 * math.pi * A.signature_mod8 / 8),
            math.sin(2 * math.pi * A.signature_mod8 / 8))
        assert abs(g1 - want) < 1e-9
        for _ in range(3):
            a = rng.randrange(1, 12)
            assert abs(gauss_sum(-a, A) - gauss_sum(a, A).conjugate()) < 1e-9


def test_dimension_anchors():
    A = discriminant_module(EvenLattice(((-2, -1), (-1, 2))))
    rep = dim_antisymmetric(A, 5)
    assert rep.dim_s == 1 and rep.numeric_residual < 1e-6

    A2 = discriminant_module(EvenLattice(((-4,),)))
    rep = dim_antisymmetric(A2, Fraction(11, 2))
    assert rep.dim_s == 1 and rep.numeric_residual < 1e-6

    for n in (5, 9):
        M, _ = cyclic_module(n)
        rep = dim_antisymmetric(M, 3)
        assert rep.dim_s == 0 and rep.numeric_residual < 1e-6


def test_wrong_parity_raises():
    A = discriminant_module(EvenLattice(((-2, -1), (-1, 2))))
    with pytest.raises(WrongParityError):
        dim_antisymmetric(A, 4)
    with pytest.raises(WrongParityError):
        dim_antisymmetric(A, Fraction(9, 2))
    with pytest.raises(WrongParityError):
        dim_antisymmetric(A, 1)


@pytest.mark.parametrize("gram,k", [
    (((-4,),), Fraction(11, 2)),
    (((2,),), Fraction(9, 2)),
    (((2, 1), (1, 2)), 4),
    (((-2, -1), (-1, 2)), 5),
    (((2, 0), (0, 6)), 4),
])
def test_dimensions_nonnegative_and_monotone(gram, k):
    A = discriminant_module(EvenLattice(gram))
    rep = dim_antisymmetric(A, k)
    rep12 = dim_antisymmetric(A, k + 12)
    assert rep.dim_m >= rep.dim_s >= 0
    assert rep12.dim_s >= rep.dim_s


def _unreduced_dim_m(module, rep):
    """dim M_k from the float formula evaluated at k itself."""
    k, sig, order = rep.weight, module.signature_mod8, module.order
    g2, g1, gm3 = (gauss_sum(a, module) for a in (2, 1, -3))
    total = complex(rep.d_pairs * float(k - 1) / 12)
    total += _e(Fraction(int(2 * (k + 1)) + sig, 8)) * g2.imag / (4 * math.sqrt(order))
    total -= (_e(Fraction(int(4 * k) + 3 * sig - 10, 24)) * (g1 - gm3)).real \
        / (3 * math.sqrt(3 * order))
    total += float(rep.alpha4_tilde + rep.b1 - rep.b2) / 2
    return round(total.real)


def _seen_set_invariants(module):
    """b1, b2, d_pairs and alpha4~ read by one pass with a set of min(g, -g)."""
    b1 = b2 = Fraction(0)
    alpha4 = d_pairs = 0
    seen = set()
    for gamma in module.elements():
        q = module.qvalue(gamma)
        b1 += sawtooth(q)
        neg = module.neg(gamma)
        if neg == gamma:
            b2 += sawtooth(q)
        elif min(gamma, neg) not in seen:
            seen.add(min(gamma, neg))
            d_pairs += 1
            alpha4 += q == 0
    return b1, b2, d_pairs, alpha4


def test_period_twelve_reduction_matches_the_unreduced_formula():
    # dim_m above weight 14 is read at k - 12 j plus j d_pairs; the float
    # formula at k itself agrees at every antisymmetric weight up to 60
    rng = random.Random(5)
    modules = []
    while len(modules) < 12:
        n = rng.randrange(1, 4)
        gram = [[0] * n for _ in range(n)]
        for i in range(n):
            gram[i][i] = 2 * rng.choice((-3, -2, -1, 1, 2, 3))
            for j in range(i):
                gram[i][j] = gram[j][i] = rng.randrange(-2, 3)
        if 0 < abs(_linalg.det(gram)) <= 60:
            modules.append(discriminant_module(EvenLattice(tuple(map(tuple, gram)))))
    checked = 0
    for module in modules:
        oracle = _seen_set_invariants(module)
        for k in (Fraction(h, 2) for h in range(5, 121)):
            if (2 * k + module.signature_mod8) % 4 != 2:
                continue
            rep = dim_antisymmetric(module, k)
            assert (rep.b1, rep.b2, rep.d_pairs, rep.alpha4_tilde) == oracle
            assert rep.dim_m == _unreduced_dim_m(module, rep), (module, k)
            checked += k > 14
    assert checked > 150
