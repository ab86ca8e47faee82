from fractions import Fraction

import pytest

from weilforms.cuspgen import (CuspIndex, coset_window, cusp_basis, r_series,
                               weight3_cyclic)
from weilforms.eisenstein import modularity_residual
from weilforms.errors import (UnsupportedModuleError, UnsupportedWeightError,
                              WrongParityError)
from weilforms.quadmod import EvenLattice, discriminant_module, module_dual_coset


def n2_form(prec):
    L = EvenLattice(((-4,),))
    A = discriminant_module(L)
    return L, A, r_series(L, Fraction(11, 2),
                          CuspIndex(Fraction(1, 8), A.element((3,))), prec)


def test_coset_window():
    assert coset_window(Fraction(1, 4), Fraction(1, 16)) == [Fraction(1, 4)]
    assert coset_window(Fraction(3, 4), Fraction(9, 16)) == [Fraction(-1, 4),
                                                             Fraction(3, 4)]
    assert coset_window(Fraction(0), Fraction(4)) == [-2, -1, 0, 1, 2]
    assert coset_window(Fraction(1, 2), Fraction(0)) == []


def test_golden_n2_series():
    # E4 eta^3 on the order-4 module: 1, 237, 1440, 245
    L, A, f = n2_form(4)
    comp = dict(f.component(module_dual_coset(A, (Fraction(1, 4),))))
    assert comp == {Fraction(1, 8): 1, Fraction(9, 8): 237,
                    Fraction(17, 8): 1440, Fraction(25, 8): 245}
    comp_neg = dict(f.component(module_dual_coset(A, (Fraction(3, 4),))))
    assert comp_neg == {k: -v for k, v in comp.items()}


def test_golden_d5_series():
    L = EvenLattice(((-2, -1), (-1, 2)))
    A = discriminant_module(L)
    beta = module_dual_coset(A, (Fraction(2, 5), Fraction(1, 5)))
    f = r_series(L, 5, CuspIndex(Fraction(1, 5), beta), 6)
    comp1 = dict(f.component(beta))
    assert comp1 == {Fraction(1, 5): 1, Fraction(6, 5): 42,
                     Fraction(11, 5): -108, Fraction(16, 5): -4,
                     Fraction(21, 5): -378, Fraction(26, 5): 1512}
    # second pair: the orientation is forced by the transformation law
    comp2 = dict(f.component(module_dual_coset(A, (Fraction(4, 5), Fraction(2, 5)))))
    expected = {Fraction(4, 5): -26, Fraction(9, 5): -39, Fraction(14, 5): 378,
                Fraction(19, 5): -140, Fraction(24, 5): -420}
    for n, c in expected.items():
        assert comp2[n] == c
    comp2m = dict(f.component(module_dual_coset(A, (Fraction(1, 5), Fraction(3, 5)))))
    for n, c in expected.items():
        assert comp2m[n] == -c


def test_self_negative_components_vanish():
    L = EvenLattice(((-4,),))
    A = discriminant_module(L)
    f = n2_form(4)[2]
    for g in A.elements():
        if A.is_self_negative(g):
            assert not f.component(g)


def test_r_series_is_cusp_and_antisymmetric():
    _, A, f = n2_form(4)
    for (g, n), v in f.coeffs.items():
        assert n > 0
        assert f.coefficient(A.neg(A.element(g)), n) == -v


def test_r_series_errors():
    L = EvenLattice(((-4,),))
    A = discriminant_module(L)
    idx = CuspIndex(Fraction(1, 8), A.element((3,)))
    with pytest.raises(WrongParityError):
        r_series(L, 5, idx, 4)
    with pytest.raises(UnsupportedWeightError):
        r_series(L, Fraction(7, 2), idx, 4)


def test_cusp_basis_golden_cases():
    L = EvenLattice(((-2, -1), (-1, 2)))
    basis = cusp_basis(L, 5)
    assert len(basis) == 1
    assert basis[0][0].m == Fraction(1, 5)
    beta_vec = basis[0][1].module.dual_vector(basis[0][0].beta)

    L2 = EvenLattice(((-4,),))
    basis2 = cusp_basis(L2, Fraction(11, 2))
    assert len(basis2) == 1
    assert basis2[0][0].m == Fraction(1, 8)


def test_cusp_basis_zero_dimension_is_empty():
    from weilforms.quadmod import cyclic_module
    module, _ = cyclic_module(5)
    basis = cusp_basis(module.lattice, 3) if False else None
    # weight 3 is outside the Eisenstein route; use a weight with dim S = 0
    L = EvenLattice(((2,),))
    from weilforms.dimensions import dim_antisymmetric
    A = discriminant_module(L)
    rep = dim_antisymmetric(A, Fraction(9, 2))
    assert rep.dim_s == 0
    assert cusp_basis(L, Fraction(9, 2)) == []


def test_weight3_cyclic_vanishing():
    assert weight3_cyclic(5, 5).is_zero()
    assert weight3_cyclic(9, 5).is_zero()


def test_weight3_cyclic_errors():
    with pytest.raises(UnsupportedModuleError):
        weight3_cyclic(7, 3)
    with pytest.raises(UnsupportedModuleError):
        weight3_cyclic(13, 3)


def test_jacobi_coefficient_views():
    from weilforms.cuspgen import jacobi_coefficients
    from weilforms.eisenstein import eisenstein_qexp
    from weilforms.quadmod import enlarge_lattice, _mod1
    L = EvenLattice(((-4,),))
    A = discriminant_module(L)
    beta = A.element((3,))
    idx = CuspIndex(Fraction(1, 8), beta)
    enlarged = enlarge_lattice(L, idx.m, A.dual_vector(beta))
    eis = eisenstein_qexp(enlarged, 4, 4)
    gamma = A.element((1,))
    n = Fraction(9, 8)
    views = jacobi_coefficients(A, idx, gamma, n, eis)
    pairing = A.bilinear(gamma, beta)
    for v in views:
        assert _mod1(Fraction(v.r) + pairing) == 0     # r in Z - <gamma, beta>
        assert v.r * v.r <= 4 * idx.m * n
        assert v.n == n and v.gamma == gamma
    # the regrouped sum reproduces the series coefficient
    f = r_series(L, Fraction(11, 2), idx, 4)
    total = sum(v.r * v.value for v in views) / (2 * idx.m)
    assert total == f.coefficient(gamma, n) == -237


def test_modularity_of_golden_series():
    f = n2_form(10)[2]
    assert modularity_residual(f) < 1e-4


def test_all_two_torsion_r_series_reads_no_series(monkeypatch):
    # every element is its own negative, so the enlarged series is not built
    import weilforms.cuspgen as cuspgen

    def refuse(*args, **kwargs):
        raise AssertionError("eisenstein_qexp called")

    monkeypatch.setattr(cuspgen, "eisenstein_qexp", refuse)
    L = EvenLattice(((2,),))
    A = discriminant_module(L)
    f = r_series(L, Fraction(9, 2), CuspIndex(Fraction(3, 4), A.element((1,))), 3)
    assert f.coeffs == {} and f.weight == Fraction(9, 2)
    # the weight checks still run first
    L6 = EvenLattice(tuple(tuple(2 * (i == j) for j in range(6)) for i in range(6)))
    zero = discriminant_module(L6).zero()
    with pytest.raises(UnsupportedWeightError, match="not reachable from rank 7"):
        r_series(L6, 4, CuspIndex(1, zero), 3)
