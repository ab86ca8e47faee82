"""Even lattices, their discriminant groups, and the dual Weil representation.

All bookkeeping is exact: Gram matrices are integer matrices, dual vectors
and values of the quadratic form are Fractions.  The signature mod 8 is the
exact inertia n+ - n- of the Gram matrix (Milgram's formula); only the Weil
matrices themselves are complex floats.
"""

from __future__ import annotations

import cmath
import itertools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

from . import _linalg
from .errors import (DegenerateModuleError, IndexMismatchError, InputError,
                     NotInDualError)


def _e(x):
    """exp(2 pi i x)."""
    return cmath.exp(2j * cmath.pi * float(x))


def _mod1(x: Fraction) -> Fraction:
    return x - Fraction(math.floor(x))


def require_integers(values, what: str):
    """Raise InputError unless every value is an integer; bools are not."""
    bad = [x for x in values
           if isinstance(x, bool) or not isinstance(x, numbers.Integral)]
    if bad:
        raise InputError("%s must be integers, got %r" % (what, bad[0]))


@dataclass(frozen=True)
class EvenLattice:
    """Nondegenerate even lattice given by its integer Gram matrix."""

    gram: tuple

    def __post_init__(self):
        require_integers([x for row in self.gram for x in row], "Gram entries")
        g = tuple(tuple(int(x) for x in row) for row in self.gram)
        object.__setattr__(self, "gram", g)
        n = len(g)
        if any(len(row) != n for row in g):
            raise DegenerateModuleError("Gram matrix must be square")
        for i in range(n):
            if g[i][i] % 2:
                raise DegenerateModuleError("Gram diagonal must be even")
            for j in range(n):
                if g[i][j] != g[j][i]:
                    raise DegenerateModuleError("Gram matrix must be symmetric")
        if _linalg.det(g) == 0:
            raise DegenerateModuleError("Gram matrix is singular")

    @property
    def rank(self) -> int:
        return len(self.gram)

    def det(self) -> int:
        return _linalg.det(self.gram)

    def qvalue(self, v) -> Fraction:
        """Q(v) = v^T G v / 2 for a rational vector v in basis coordinates."""
        return self.pairing(v, v) / 2

    def pairing(self, v, w) -> Fraction:
        v = [Fraction(x) for x in v]
        w = [Fraction(x) for x in w]
        return sum((v[i] * self.gram[i][j] * w[j]
                    for i in range(self.rank) for j in range(self.rank)),
                   Fraction(0))

    def in_dual(self, v) -> bool:
        """v lies in the dual lattice iff G v is integral."""
        gv = _linalg.mat_vec(self.gram, [Fraction(x) for x in v])
        return all(x.denominator == 1 for x in map(Fraction, gv))


class FiniteQuadraticModule:
    """Discriminant group A = L'/L with its Q/Z valued quadratic form.

    Generators come from the Smith normal form of the Gram matrix; each
    generator is sign-normalized so that its canonical dual representative
    in [0,1)^n is the lexicographically larger of the two choices +-w.
    An element is its tuple of generator coordinates, each reduced mod the
    order of its generator.
    """

    def __init__(self, lattice: EvenLattice):
        self.lattice = lattice
        n = lattice.rank
        d, u, v = _linalg.smith_normal_form(lattice.gram)
        kept = tuple(i for i in range(n) if d[i] > 1)
        cols = [[Fraction(v[r][i], d[i]) for r in range(n)] for i in range(n)]
        vmat = [list(row) for row in v]
        for i in kept:
            w = tuple(_mod1(x) for x in cols[i])
            wneg = tuple(_mod1(-x) for x in cols[i])
            if wneg > w:
                for r in range(n):
                    cols[i][r] = -cols[i][r]
                    vmat[r][i] = -vmat[r][i]
        self._all_orders = tuple(d)
        self._kept = kept
        self.generator_orders = tuple(d[i] for i in kept)
        self.to_dual = tuple(tuple(cols[i]) for i in kept)
        self._vinv = tuple(map(tuple, _linalg.inverse(vmat)))
        self.q_matrix = tuple(
            tuple(_mod1(lattice.qvalue(wa) if a == b else lattice.pairing(wa, wb))
                  for b, wb in enumerate(self.to_dual))
            for a, wa in enumerate(self.to_dual))
        self.order = math.prod(self.generator_orders)
        if self.order != abs(lattice.det()):
            raise DegenerateModuleError("group order does not match |det|")
        pos, neg = _linalg.inertia(lattice.gram)
        self.signature_mod8 = (pos - neg) % 8

    # -- elements ----------------------------------------------------------

    def zero(self) -> tuple:
        return (0,) * len(self.generator_orders)

    def element(self, coords) -> tuple:
        return tuple(c % d for c, d in zip(coords, self.generator_orders))

    def elements(self):
        return itertools.product(*(range(d) for d in self.generator_orders))

    def neg(self, gamma) -> tuple:
        return self.element(tuple(-c for c in gamma))

    def add(self, a, b) -> tuple:
        return self.element(tuple(x + y for x, y in zip(a, b)))

    def is_self_negative(self, gamma) -> bool:
        return self.neg(gamma) == gamma

    def orbit_reps(self):
        """The lexicographically smaller of gamma, -gamma, once per pair."""
        for gamma in self.elements():
            if gamma <= self.neg(gamma):
                yield gamma

    def dual_vector(self, gamma):
        """Canonical dual-lattice representative of gamma (may be any coset rep)."""
        n = self.lattice.rank
        out = [Fraction(0)] * n
        for c, w in zip(gamma, self.to_dual):
            for r in range(n):
                out[r] += c * w[r]
        return tuple(out)

    def element_order(self, gamma) -> int:
        out = 1
        for c, d in zip(gamma, self.generator_orders):
            g = math.gcd(c, d)
            out = out * (d // g) // math.gcd(out, d // g)
        return out

    # -- quadratic form ----------------------------------------------------

    def qvalue(self, c) -> Fraction:
        total = Fraction(0)
        for i in range(len(c)):
            total += c[i] * c[i] * self.q_matrix[i][i]
            for j in range(i + 1, len(c)):
                total += c[i] * c[j] * self.q_matrix[i][j]
        return _mod1(total)

    def bilinear(self, a, b) -> Fraction:
        return _mod1(self.qvalue(self.add(a, b)) - self.qvalue(a) - self.qvalue(b))

    def __eq__(self, other):
        return (isinstance(other, FiniteQuadraticModule)
                and self.lattice.gram == other.lattice.gram)

    def __repr__(self):
        return "FiniteQuadraticModule(orders=%r, sig=%d)" % (
            list(self.generator_orders), self.signature_mod8)


# -- module-level operations ------------------------------------------------


def discriminant_module(lattice: EvenLattice) -> FiniteQuadraticModule:
    return FiniteQuadraticModule(lattice)


def weil_matrices(module: FiniteQuadraticModule):
    """Matrices of rho*(S) and rho*(T) in the basis e_gamma, lex order.

    Lists of rows of complex numbers; rho*(T) is diagonal.
    """
    elems = list(module.elements())
    rho_t = [[_e(-module.qvalue(g)) if i == j else 0j for j in range(len(elems))]
             for i, g in enumerate(elems)]
    phase = _e(Fraction(module.signature_mod8, 8)) / math.sqrt(module.order)
    rho_s = [[phase * _e(module.bilinear(g, b)) for g in elems] for b in elems]
    return rho_s, rho_t


def enlarge_lattice(lattice: EvenLattice, m: Fraction, beta) -> EvenLattice:
    """Rank n+1 even lattice on L + Z with Q(v, t) = Q(v + t*beta) + m t^2."""
    m = Fraction(m)
    beta = tuple(Fraction(x) for x in beta)
    if m <= 0:
        raise IndexMismatchError("index m must be positive")
    if not lattice.in_dual(beta):
        raise IndexMismatchError("beta is not in the dual lattice")
    corner = lattice.qvalue(beta) + m
    if corner.denominator != 1:
        raise IndexMismatchError("m + Q(beta) must be integral")
    gbeta = tuple(int(x) for x in _linalg.mat_vec(lattice.gram, beta))
    rows = [row + (b,) for row, b in zip(lattice.gram, gbeta)]
    rows.append(gbeta + (2 * int(corner),))
    return EvenLattice(tuple(rows))


def dual_coset(lattice: EvenLattice, v) -> tuple:
    """Canonical coordinates of v + L in the discriminant group."""
    return module_dual_coset(discriminant_module(lattice), v)


def module_dual_coset(module: FiniteQuadraticModule, v) -> tuple:
    v = [Fraction(x) for x in v]
    lat = module.lattice
    if len(v) != lat.rank:
        raise NotInDualError("wrong vector length")
    if not lat.in_dual(v):
        raise NotInDualError("vector does not pair integrally with the lattice")
    t = _linalg.mat_vec(module._vinv, v)
    coords = []
    for i in module._kept:
        c = Fraction(t[i]) * module._all_orders[i]
        if c.denominator != 1:
            raise NotInDualError("vector does not lie in the dual lattice")
        coords.append(int(c) % module._all_orders[i])
    return tuple(coords)


def cyclic_module(n_disc: int):
    """The cyclic module of order N with Q(x) = -N x^2 on (1/N)Z/Z, N odd.

    Returns (module, generator) where Q(generator) = -1/N mod 1.
    Realized as the discriminant module of a rank-2 lattice of determinant -N.
    """
    if n_disc % 2 == 0:
        raise DegenerateModuleError("cyclic module with even N is degenerate")
    if n_disc % 4 != 1:
        raise DegenerateModuleError("realizing lattice needs N = 1 mod 4")
    lat = EvenLattice((((1 - n_disc) // 2, 1), (1, 2)))
    module = discriminant_module(lat)
    target = _mod1(Fraction(-1, n_disc))
    gen = None
    for gamma in module.elements():
        if module.element_order(gamma) == n_disc and module.qvalue(gamma) == target:
            gen = gamma
            break
    if gen is None:
        raise DegenerateModuleError("no generator with Q = -1/N found")
    return module, gen
