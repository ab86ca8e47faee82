import math
import random
from fractions import Fraction

import pytest

from weilforms import _linalg
from weilforms.cuspgen import (CuspIndex, candidate_indices, coset_window,
                               cusp_basis, jacobi_coefficients, r_series,
                               weight3_cyclic)
from weilforms.eisenstein import exponents_for, modularity_residual
from weilforms.errors import (IndexMismatchError, UnsupportedModuleError,
                              UnsupportedWeightError, WrongParityError)
from weilforms.quadmod import (EvenLattice, _mod1, discriminant_module,
                               enlarge_lattice, module_dual_coset)


def n2_form(prec):
    L = EvenLattice(((-4,),))
    A = discriminant_module(L)
    return L, A, r_series(L, Fraction(11, 2),
                          CuspIndex(Fraction(1, 8), A.element((3,))), prec)


def coset_window_by_steps(r0, bound):
    """All r in r0 + Z with r^2 <= bound, stepping r up one at a time."""
    out = []
    if bound < 0:
        return out
    ab = bound.numerator * bound.denominator
    s = Fraction(math.isqrt(ab) + 1, bound.denominator)  # s >= sqrt(bound)
    r = r0 + math.ceil(-r0 - s)
    while r * r > bound:
        r += 1
        if r > s:
            return out
    while r * r <= bound:
        out.append(r)
        r += 1
    return out


def test_coset_window():
    assert coset_window(Fraction(1, 4), Fraction(1, 16)) == [Fraction(1, 4)]
    assert coset_window(Fraction(3, 4), Fraction(9, 16)) == [Fraction(-1, 4),
                                                             Fraction(3, 4)]
    assert coset_window(Fraction(0), Fraction(4)) == [-2, -1, 0, 1, 2]
    assert coset_window(Fraction(1, 2), Fraction(0)) == []
    # the closed form against the stepping loop; r0 = a/q and a bound with
    # a denominator dividing q^2 put perfect squares (r0 + t)^2 on the edge
    rng = random.Random(39)
    squares = 0
    for _ in range(12000):
        q = rng.randrange(1, 13)
        r0 = Fraction(rng.randrange(-30, 31), q)
        if rng.random() < 0.4:
            bound = (r0 + rng.randrange(-6, 7)) ** 2
            squares += 1
        else:
            bound = Fraction(rng.randrange(-20, 400), rng.randrange(1, 4 * q * q))
        assert coset_window(r0, bound) == coset_window_by_steps(r0, bound), (r0, bound)
    assert squares > 4000


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
    # the index is checked before the weight
    with pytest.raises(IndexMismatchError, match="must be integral"):
        r_series(L, 5, CuspIndex(Fraction(1, 4), A.element((3,))), 4)
    with pytest.raises(IndexMismatchError, match="must be positive"):
        r_series(L, 5, CuspIndex(0, A.element((3,))), 4)


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
    from weilforms.eisenstein import eisenstein_qexp
    L = EvenLattice(((-4,),))
    A = discriminant_module(L)
    beta = A.element((3,))
    idx = CuspIndex(Fraction(1, 8), beta)
    enlarged = enlarge_lattice(L, idx.m, A.dual_vector(beta))
    eis = eisenstein_qexp(enlarged, 4, 4)
    gamma = A.element((1,))
    triples = jacobi_coefficients(A, idx, gamma, eis)
    assert triples == sorted(triples, key=lambda t: t[:2])
    assert sorted({t[0] for t in triples}) == exponents_for(A, gamma, 4)
    pairing = A.bilinear(gamma, beta)
    for n, r, _ in triples:
        assert _mod1(Fraction(r) + pairing) == 0     # r in Z - <gamma, beta>
        assert r * r <= 4 * idx.m * n
    # the regrouped sum reproduces the series coefficient
    n = Fraction(9, 8)
    f = r_series(L, Fraction(11, 2), idx, 4)
    total = sum(r * c for e, r, c in triples if e == n) / (2 * idx.m)
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


def jacobi_terms_per_r(module, idx, gamma, eis):
    """The r-sums read one coset at a time: a `module_dual_coset` call per
    (n, r)."""
    m = idx.m
    beta_vec = module.dual_vector(idx.beta)
    gamma_vec = module.dual_vector(gamma)
    out = []
    r0 = _mod1(-module.bilinear(gamma, idx.beta))
    for n in exponents_for(module, gamma, eis.prec):
        for r in coset_window_by_steps(r0, 4 * m * n):
            w_vec = tuple(gv - (r / (2 * m)) * bv
                          for gv, bv in zip(gamma_vec, beta_vec)) + (r / (2 * m),)
            w = module_dual_coset(eis.module, w_vec)
            out.append((n, r, eis.coefficient(w, n - r * r / (4 * m))))
    return out


class _CosetEcho:
    """Stands in for the enlarged series: each coefficient names its coset
    and exponent, so equal terms mean equal cosets, not equal values."""

    def __init__(self, module, prec):
        self.module = module
        self.prec = Fraction(prec)

    def coefficient(self, w, e):
        return (w, e)


# the Gram matrices of the benchmark's cusp_cold jobs
BENCH_CUSP_GRAMS = [((-4,),), ((-6,),), ((2, 1), (1, 2)), ((-2, -1), (-1, -2)),
                    ((-2, -1), (-1, 2)), ((2, 1), (1, -2)), ((2,),), ((4,),),
                    ((6,),)]


def test_affine_r_sum_matches_per_r_cosets():
    rng = random.Random(20261020)
    grams = list(BENCH_CUSP_GRAMS)
    while len(grams) < 40:
        rank = rng.choice([1, 2, 2, 3])
        gram = [[0] * rank for _ in range(rank)]
        for i in range(rank):
            gram[i][i] = 2 * rng.choice([-5, -4, -3, -2, -1, 1, 2, 3])
            for j in range(i):
                gram[i][j] = gram[j][i] = rng.randrange(-2, 3)
        if _linalg.det(gram) != 0:
            grams.append(tuple(map(tuple, gram)))
    draws = 0
    for gram in grams:
        L = EvenLattice(gram)
        A = discriminant_module(L)
        indices = candidate_indices(A, Fraction(4))
        for idx in rng.sample(indices, min(3, len(indices))):
            enlarged = enlarge_lattice(L, idx.m, A.dual_vector(idx.beta))
            for gamma in rng.sample(list(A.elements()), min(4, A.order)):
                eis = _CosetEcho(discriminant_module(enlarged), rng.randrange(1, 6))
                terms = jacobi_coefficients(A, idx, gamma, eis)
                assert terms == jacobi_terms_per_r(A, idx, gamma, eis)
                draws += len({n for n, _, _ in terms})
    assert draws > 500


def test_r_series_reads_two_cosets_per_pair_rep(monkeypatch):
    # w(r0) and delta once per gamma, whatever the precision
    import weilforms.cuspgen as cuspgen
    calls = []

    def counted(module, v):
        calls.append(v)
        return module_dual_coset(module, v)

    monkeypatch.setattr(cuspgen, "module_dual_coset", counted)
    n2 = EvenLattice(((-4,),))
    d5 = EvenLattice(((-2, -1), (-1, 2)))
    beta = module_dual_coset(discriminant_module(d5), (Fraction(2, 5), Fraction(1, 5)))
    cases = [(n2, Fraction(11, 2), CuspIndex(Fraction(1, 8), (3,)), 10, 1),
             (d5, 5, CuspIndex(Fraction(1, 5), beta), 12, 2)]
    for lattice, weight, idx, prec, pair_reps in cases:
        assert len(list(discriminant_module(lattice).pair_reps())) == pair_reps
        del calls[:]
        r_series(lattice, weight, idx, prec)
        assert len(calls) == 2 * pair_reps


def _count_series(monkeypatch):
    """Record the (enlarged Gram, prec) of every Eisenstein series built, and
    the number of candidate series ranked."""
    import weilforms.cuspgen as cuspgen
    built, ranked = [], []
    qexp, add = cuspgen.eisenstein_qexp, cuspgen._RankAccumulator.add

    def counted_qexp(lattice, weight, prec, **kwargs):
        built.append((lattice.gram, prec))
        return qexp(lattice, weight, prec, **kwargs)

    def counted_add(self, row):
        ranked.append(row)
        return add(self, row)

    monkeypatch.setattr(cuspgen, "eisenstein_qexp", counted_qexp)
    monkeypatch.setattr(cuspgen._RankAccumulator, "add", counted_add)
    return built, ranked


def test_cusp_basis_builds_each_series_once(monkeypatch):
    L = EvenLattice(((-12,),))
    weight = Fraction(15, 2)
    built, ranked = _count_series(monkeypatch)
    basis = cusp_basis(L, weight)
    assert len(basis) >= 2 and len(built) == len(ranked)
    assert len(set(built)) == len(built)
    work_prec = built[0][1]
    # below the working precision the ranked series are truncated, not rebuilt
    del built[:], ranked[:]
    short = cusp_basis(L, weight, prec=work_prec - 1)
    assert len(built) == len(ranked)
    # above it, each candidate is built once, at the asked precision
    del built[:], ranked[:]
    long = cusp_basis(L, weight, prec=work_prec + 1)
    assert len(built) == len(ranked) == len(set(built))
    assert all(prec == work_prec + 1 for _, prec in built)
    for (idx, f), (idx_s, g), (idx_l, h) in zip(basis, short, long):
        assert idx == idx_s == idx_l
        assert g.prec == work_prec - 1 and h.prec == work_prec + 1
        # truncation is exact: the longer series agree below each precision
        assert g.coeffs == {k: c for k, c in f.coeffs.items() if k[1] < g.prec}
        assert f.coeffs == {k: c for k, c in h.coeffs.items() if k[1] < f.prec}
