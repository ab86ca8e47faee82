import math
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy

from weilforms import _linalg
from weilforms.errors import (DegenerateModuleError, IndexMismatchError, InputError,
                              NotInDualError)
from weilforms.quadmod import (EvenLattice, _mod1, cyclic_module,
                               discriminant_module, enlarge_lattice,
                               module_dual_coset, weil_matrices)


def test_discriminant_module_rank_one():
    A = discriminant_module(EvenLattice(((2,),)))
    assert A.generator_orders == (2,)
    gen = A.element((1,))
    assert A.qvalue(gen) == Fraction(1, 4)


def test_discriminant_module_d5():
    A = discriminant_module(EvenLattice(((2, 1), (1, -2))))
    assert A.order == 5
    assert A.generator_orders == (5,)


def test_discriminant_module_rank_zero():
    A = discriminant_module(EvenLattice(()))
    assert A.order == 1
    assert list(A.elements()) == [A.zero()]
    assert A.signature_mod8 == 0


def test_singular_gram_rejected():
    with pytest.raises(DegenerateModuleError):
        EvenLattice(((2, 2), (2, 2)))
    with pytest.raises(DegenerateModuleError):
        EvenLattice(((1,),))


def test_non_integer_gram_entries_rejected():
    # 2.5 and "2" used to be truncated to 2; numpy integers stay accepted
    for gram in (((2.5,),), (("2",),), ((2.0,),), ((True,),),
                 ((2, Fraction(1, 2)), (Fraction(1, 2), 2))):
        with pytest.raises(InputError, match="must be integers"):
            EvenLattice(gram)
    assert EvenLattice(((np.int64(2),),)).gram == ((2,),)


def test_qvalue_and_bilinear():
    A = discriminant_module(EvenLattice(((2,),)))
    assert A.qvalue(A.zero()) == 0
    gen = A.element((1,))
    assert A.qvalue(gen) == Fraction(1, 4)
    B = discriminant_module(EvenLattice(((2, 1), (1, 4))))
    for gamma in B.elements():
        assert B.bilinear(gamma, gamma) == (2 * B.qvalue(gamma)) % 1
        assert B.qvalue(B.neg(gamma)) == B.qvalue(gamma)


def test_signature_examples():
    assert discriminant_module(EvenLattice(())).signature_mod8 == 0
    assert discriminant_module(EvenLattice(((2,),))).signature_mod8 == 1
    assert discriminant_module(EvenLattice(((2, 1), (1, -2)))).signature_mod8 == 0
    assert discriminant_module(EvenLattice(((-4,),))).signature_mod8 == 7


def test_weil_matrices_trivial():
    A = discriminant_module(EvenLattice(()))
    s, t = map(np.array, weil_matrices(A))
    assert s.shape == (1, 1) and t.shape == (1, 1)
    assert abs(s[0, 0] - 1) < 1e-12 and abs(t[0, 0] - 1) < 1e-12


@pytest.mark.parametrize("gram", [((2, 1), (1, -2)), ((-4,),), ((2, 0), (0, 6))])
def test_weil_matrix_relations(gram):
    A = discriminant_module(EvenLattice(gram))
    s, t = map(np.array, weil_matrices(A))
    n = s.shape[0]
    # unitarity
    assert np.max(np.abs(s @ s.conj().T - np.eye(n))) < 1e-12
    # braid relation (ST)^3 = S^2
    st = s @ t
    assert np.max(np.abs(st @ st @ st - s @ s)) < 1e-10
    # S^2 sends e_gamma to (-1)^(sig/2) e_(-gamma) for even signature
    if A.signature_mod8 % 2 == 0:
        elems = list(A.elements())
        index = {g: i for i, g in enumerate(elems)}
        s2 = s @ s
        sign = (-1) ** (A.signature_mod8 // 2)
        for j, g in enumerate(elems):
            i = index[A.neg(g)]
            want = np.zeros(n)
            want[i] = sign
            assert np.max(np.abs(s2[:, j] - want)) < 1e-10


def test_milgram_modulus_random_modules():
    for gram in [((2,),), ((-4,),), ((2, 1), (1, 4)), ((6,),), ((2, 1), (1, -2))]:
        A = discriminant_module(EvenLattice(gram))
        total = sum(complex(math.cos(2 * math.pi * float(A.qvalue(g))),
                            math.sin(2 * math.pi * float(A.qvalue(g))))
                    for g in A.elements())
        assert abs(abs(total) - math.sqrt(A.order)) < 1e-6
        # one orbit representative per pair {g, -g}: the smaller, ascending
        assert list(A.orbit_reps()) == sorted({min(g, A.neg(g)) for g in A.elements()})
        assert list(A.pair_reps()) == [g for g in A.orbit_reps()
                                       if not A.is_self_negative(g)]


def _gauss_sum_signature(A):
    """sig mod 8 from the phase of sum e(Q(gamma)) = sqrt|A| e(sig / 8)."""
    total = sum(complex(math.cos(2 * math.pi * float(A.qvalue(g))),
                        math.sin(2 * math.pi * float(A.qvalue(g))))
                for g in A.elements())
    assert abs(abs(total) - math.sqrt(A.order)) < 1e-6
    phase = math.atan2(total.imag, total.real) / (2 * math.pi) * 8
    assert abs(phase - round(phase)) < 1e-6
    return round(phase) % 8


def _random_even_gram(rng, rank, max_det):
    while True:
        g = [[0] * rank for _ in range(rank)]
        for i in range(rank):
            g[i][i] = 2 * rng.randrange(-3, 4)
            for j in range(i):
                g[i][j] = g[j][i] = rng.randrange(-2, 3)
        det = round(np.linalg.det(np.array(g, dtype=float))) if rank else 1
        if det and abs(det) <= max_det:
            return tuple(map(tuple, g))


def test_signature_matches_gauss_sum_random_lattices():
    # the exact inertia against the float Gauss-sum phase (Milgram); the
    # fixed grams have zero diagonals, which need the congruence step
    rng = random.Random(17)
    kinds = {"definite": 0, "indefinite": 0}
    fixed = [((0, 1), (1, 0)), ((0, 3), (3, 0)), ((0, 1, 1), (1, 0, 1), (1, 1, 0)),
             ((0, 2, 0, 0), (2, 0, 0, 0), (0, 0, 0, 3), (0, 0, 3, 0))]
    for k in range(320):
        gram = fixed[k] if k < len(fixed) else \
            _random_even_gram(rng, rng.randrange(5), 200)
        eigs = np.linalg.eigvalsh(np.array(gram, dtype=float)) if gram else []
        kinds["definite" if len({e > 0 for e in eigs}) < 2 else "indefinite"] += 1
        A = discriminant_module(EvenLattice(gram))
        assert A.signature_mod8 == _gauss_sum_signature(A), gram
    assert min(kinds.values()) >= 80, kinds


def test_det_matches_sympy():
    # det reads the pivots of the symmetric elimination; zero diagonals need
    # its congruence step and singular matrices give a zero pivot
    rng = random.Random(29)
    fixed = [(), ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)),
             ((0, 1, 0), (1, 0, 0), (0, 0, -2)), ((0, 0), (0, 0)),
             ((0, 1, 1), (1, 0, 1), (1, 1, 0)), ((2, 2), (2, 2)),
             ((0, 1, 0), (1, 0, 0), (0, 0, 0))]
    singular = 0
    for k in range(400):
        if k < len(fixed):
            mat = [list(row) for row in fixed[k]]
        else:
            n = rng.randrange(6)
            mat = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    mat[i][j] = mat[j][i] = rng.randrange(-3, 4)
            if k % 4 == 0:
                for i in range(n):
                    mat[i][i] = 0
            if k % 5 == 0 and n > 1:
                mat[-1] = mat[0][:]
                for row in mat:
                    row[-1] = row[0]
        want = sympy.Matrix(mat).det() if mat else 1
        singular += want == 0
        assert _linalg.det(mat) == want, mat
    assert singular >= 60, singular


def test_enlarge_lattice_rank_zero():
    out = enlarge_lattice(EvenLattice(()), Fraction(1), ())
    assert out.gram == ((2,),)


def test_enlarge_lattice_n2_example():
    # the weight 11/2 story: A = Z/4 with Q(x) = -x^2/8, realized by [[-4]]
    L = EvenLattice(((-4,),))
    out = enlarge_lattice(L, Fraction(1, 8), (Fraction(3, 4),))
    assert Fraction(abs(out.det())) == 2 * Fraction(1, 8) * abs(L.det()) == 1
    # with the positive-definite realization the same index is invalid
    with pytest.raises(IndexMismatchError):
        enlarge_lattice(EvenLattice(((4,),)), Fraction(1, 8), (Fraction(3, 4),))
    out2 = enlarge_lattice(EvenLattice(((4,),)), Fraction(7, 8), (Fraction(3, 4),))
    assert Fraction(abs(out2.det())) == 2 * Fraction(7, 8) * 4


def test_enlarge_lattice_determinant_identity_random():
    rng = random.Random(11)
    lattices = [EvenLattice(((2,),)), EvenLattice(((-4,),)),
                EvenLattice(((2, 1), (1, -2))), EvenLattice(((2, 0), (0, 6)))]
    count = 0
    while count < 20:
        L = rng.choice(lattices)
        A = discriminant_module(L)
        beta = rng.choice(list(A.elements()))
        bvec = A.dual_vector(beta)
        m = (-A.qvalue(beta)) % 1
        m += rng.randrange(0, 3)
        if m <= 0:
            m += 1
        out = enlarge_lattice(L, m, bvec)
        assert all(out.gram[i][i] % 2 == 0 for i in range(out.rank))
        assert Fraction(abs(out.det())) == 2 * m * abs(L.det())
        count += 1


def test_enlarge_lattice_errors():
    L = EvenLattice(((4,),))
    with pytest.raises(IndexMismatchError):
        enlarge_lattice(L, Fraction(1, 8), (Fraction(1, 3),))
    with pytest.raises(IndexMismatchError):
        enlarge_lattice(L, Fraction(1, 4), (Fraction(3, 4),))
    with pytest.raises(IndexMismatchError):
        enlarge_lattice(L, Fraction(-7, 8), (Fraction(3, 4),))


def vinv_dual_coset(A, v):
    """The coset map through the inverse of the sign-normalized V of the
    Smith form U G V = D: coordinate i is (D V^-1 v)_i mod d_i."""
    n = A.lattice.rank
    d, _, vmat = _linalg.smith_normal_form(A.lattice.gram)
    vmat = [list(row) for row in vmat]
    for i in (i for i in range(n) if d[i] > 1):
        col = [Fraction(vmat[r][i], d[i]) for r in range(n)]
        if tuple(_mod1(-x) for x in col) > tuple(_mod1(x) for x in col):
            for r in range(n):
                vmat[r][i] = -vmat[r][i]
    t = _linalg.mat_vec(_linalg.inverse(vmat), [Fraction(x) for x in v])
    out = []
    for i in (i for i in range(n) if d[i] > 1):
        c = Fraction(t[i]) * d[i]
        assert c.denominator == 1
        out.append(int(c) % d[i])
    return tuple(out)


def test_dual_coset_identity_and_group_law():
    L = EvenLattice(((2, 1), (1, -2)))
    A = discriminant_module(L)
    assert module_dual_coset(A, (0, 0)) == A.zero()
    assert module_dual_coset(A, (3, -2)) == A.zero()
    rng = random.Random(5)
    for _ in range(10):
        g = rng.choice(list(A.elements()))
        v = A.dual_vector(g)
        shift = [rng.randrange(-2, 3) for _ in v]
        v2 = tuple(x + s for x, s in zip(v, shift))
        e1 = module_dual_coset(A, v2)
        e2 = module_dual_coset(A, tuple(-x for x in v2))
        assert A.add(e1, e2) == A.zero()
        assert e1 == g
    # U G v against the V^-1 map, on dual vectors shifted by lattice vectors
    draws = 0
    while draws < 2400:
        A = discriminant_module(EvenLattice(
            _random_even_gram(rng, rng.randrange(1, 5), 60)))
        for _ in range(40):
            g = tuple(rng.randrange(d) for d in A.generator_orders)
            v = tuple(x + rng.randrange(-3, 4) for x in A.dual_vector(g))
            got = module_dual_coset(A, v)
            assert got == vinv_dual_coset(A, v) == g, (A.lattice.gram, v)
            assert all(type(c) is int for c in got)
            draws += 1


def test_dual_coset_rejects_non_dual_vectors():
    L = EvenLattice(((2, 1), (1, -2)))
    with pytest.raises(NotInDualError):
        module_dual_coset(discriminant_module(L), (Fraction(1, 3), 0))


def test_cyclic_module():
    for n in (5, 9, 13):
        M, gen = cyclic_module(n)
        assert M.order == n
        assert M.qvalue(gen) == Fraction(-1, n) % 1
        assert M.element_order(gen) == n
    with pytest.raises(DegenerateModuleError):
        cyclic_module(4)
