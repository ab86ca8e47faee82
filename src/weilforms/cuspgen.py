"""Antisymmetric cusp forms from Jacobi Eisenstein coefficients.

The cusp form attached to an index (m, beta) is assembled from the
Eisenstein series of the enlarged lattice: the coefficient of q^n e_gamma
is (1/2m) times the sum over r in Z - <gamma, beta> with r^2 <= 4mn of
r times the enlarged-lattice Eisenstein coefficient at exponent n - r^2/4m
and coset (gamma - (r/2m) beta, r/2m), which is affine in r: one pass per
gamma reads the terms of every n.  Spanning sets iterate indices until the
exact coefficient rank reaches the dimension of the cusp space; each
candidate series is built once, at the asked precision, and the ranked ones
are kept.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .classnum import twelve_h, unit_orbit_correction
from .dimensions import dim_antisymmetric
from .eisenstein import (QExpansion, eisenstein_qexp, exponents_for,
                         hyperbolic_padding)
from .errors import (ExhaustionError, InputError, UnsupportedModuleError,
                     UnsupportedWeightError, WrongParityError)
from .quadmod import (EvenLattice, _mod1, cyclic_module,
                      discriminant_module, enlarge_lattice, module_dual_coset)


@dataclass(frozen=True)
class CuspIndex:
    m: Fraction
    beta: tuple

    def __post_init__(self):
        object.__setattr__(self, "m", Fraction(self.m))


def jacobi_coefficients(module, idx: CuspIndex, gamma, eis):
    """The terms (n, r, c) of every coefficient of e_gamma below eis.prec.

    Sorted by n, then r.  c is the enlarged-lattice coefficient at exponent
    n - r^2/4m and coset w(r) = (gamma, 0) + r delta, delta = (-beta/2m,
    1/2m).  The enlarged Gram matrix maps delta to the last unit vector, so
    delta is dual and w(r) = w(r0) + (r - r0) delta with r - r0 an integer.
    Coset coordinates are linear mod the generator orders, so two
    `module_dual_coset` calls, for w(r0) and delta, give the coset of every
    term of every n.
    """
    m = idx.m
    emod = eis.module
    delta = tuple(-bv / (2 * m) for bv in module.dual_vector(idx.beta)) + (1 / (2 * m),)
    r0 = _mod1(-module.bilinear(gamma, idx.beta))
    base = module_dual_coset(emod, tuple(
        gv + r0 * dv for gv, dv in zip(module.dual_vector(gamma) + (0,), delta)))
    step = module_dual_coset(emod, delta)
    out = []
    for n in exponents_for(module, gamma, eis.prec):
        for r in coset_window(r0, 4 * m * n):
            k = int(r - r0)
            w = emod.element(tuple(a + k * d for a, d in zip(base, step)))
            out.append((n, r, eis.coefficient(w, n - r * r / (4 * m))))
    return out


def coset_window(r0: Fraction, bound: Fraction):
    """All r in r0 + Z with r^2 <= bound, ascending.

    With r0 = a/q, r = (a + q t)/q for an integer t, and r^2 <= bound
    exactly when |a + q t| <= isqrt(floor(bound q^2)).
    """
    if bound < 0:
        return []
    a, q = r0.numerator, r0.denominator
    s = math.isqrt(math.floor(bound * q * q))
    return [Fraction(a + q * t, q) for t in range(-((s + a) // q), (s - a) // q + 1)]


def r_series(lattice: EvenLattice, weight, idx: CuspIndex, prec,
             cache=None) -> QExpansion:
    """The antisymmetric cusp form attached to (m, beta), exact coefficients."""
    weight = Fraction(weight)
    prec = Fraction(prec)
    module = discriminant_module(lattice)
    m = idx.m
    # checks m > 0 and m + Q(beta) integral before the weight
    enlarged = enlarge_lattice(lattice, m, module.dual_vector(idx.beta))
    parity = 2 * weight + module.signature_mod8
    if parity.denominator != 1 or int(parity) % 4 != 2:
        raise WrongParityError("weight %s is not antisymmetric for this module"
                               % weight)
    if weight < 4:
        raise UnsupportedWeightError("the Eisenstein route needs weight >= 4")
    eis_weight = weight - Fraction(3, 2)
    hyperbolic_padding(enlarged, eis_weight)
    reps = list(module.pair_reps())
    if not reps:
        # every element is its own negative: no coefficient reads the series
        return QExpansion(module, weight, prec, {})
    eis = eisenstein_qexp(enlarged, eis_weight, prec, cache=cache)
    coeffs = {}
    for gamma in reps:
        neg = module.neg(gamma)
        terms = jacobi_coefficients(module, idx, gamma, eis)
        for n, group in itertools.groupby(terms, key=lambda term: term[0]):
            total = sum((r * c for _, r, c in group), Fraction(0)) / (2 * m)
            if total:
                coeffs[(gamma, n)] = total
                coeffs[(neg, n)] = -total
    return QExpansion(module, weight, prec, coeffs)


def candidate_indices(module, m_cutoff):
    """Index iteration order: m ascending, beta by orbit-rep lex order."""
    out = []
    for beta in module.pair_reps():
        m = _mod1(-module.qvalue(beta))
        if m == 0:
            m = Fraction(1)
        while m <= m_cutoff:
            out.append(CuspIndex(m, beta))
            m += 1
    out.sort(key=lambda ix: (ix.m, ix.beta))
    return out


class _RankAccumulator:
    """Incremental exact row echelon over Q."""

    def __init__(self):
        self.rows = []
        self.pivots = []

    def add(self, row):
        row = list(row)
        for piv, prow in zip(self.pivots, self.rows):
            if row[piv]:
                f = row[piv] / prow[piv]
                row = [x - f * y for x, y in zip(row, prow)]
        piv = next((i for i, x in enumerate(row) if x), None)
        if piv is None:
            return False
        self.rows.append(row)
        self.pivots.append(piv)
        return True

    @property
    def rank(self):
        return len(self.rows)


def cusp_basis(lattice: EvenLattice, weight, prec=None, cache=None):
    """A basis of the antisymmetric cusp space as (index, series) pairs.

    Iterates indices until the exact coefficient rank reaches the cusp-space
    dimension; retries once with doubled working precision and a larger
    index cutoff before raising ExhaustionError.  Truncation can only lower
    the rank, so stopping at the target dimension is rigorous.  Each
    candidate is built once, at the larger of the working and the asked
    precision, and ranked on its coefficients below the working precision.
    The ranked series are returned truncated to the asked precision: a
    coefficient at n reads only Eisenstein coefficients at exponents <= n,
    whose values do not depend on the precision.
    """
    weight = Fraction(weight)
    module = discriminant_module(lattice)
    target = dim_antisymmetric(module, weight).dim_s
    if target == 0:
        return []
    work_prec = Fraction(math.ceil(weight / 12) + 2)
    m_cutoff = Fraction(target + 3)
    for _ in range(2):
        out_prec = work_prec if prec is None else Fraction(prec)
        keys = [(gamma, n) for gamma in module.pair_reps()
                for n in exponents_for(module, gamma, work_prec)]
        acc = _RankAccumulator()
        picked = []
        for idx in candidate_indices(module, m_cutoff):
            series = r_series(lattice, weight, idx, max(work_prec, out_prec),
                              cache=cache)
            if acc.add([series.coefficient(g, n) for (g, n) in keys]):
                picked.append((idx, QExpansion(
                    module, weight, out_prec,
                    {key: c for key, c in series.coeffs.items() if key[1] < out_prec})))
            if acc.rank == target:
                return picked
        work_prec *= 2
        m_cutoff += 2
    raise ExhaustionError(
        "rank %d not reached for weight %s (cutoff m <= %s, prec %s)"
        % (target, weight, m_cutoff, work_prec))


def weight3_cyclic(n_disc: int, prec) -> QExpansion:
    """The weight 3 form at index (1/N, 1/N) on the cyclic module of order N.

    Coefficients combine the Hurwitz class number part with the exact
    real-quadratic unit correction.  N must be a positive integer = 1 mod 4;
    beyond the square discriminants only N = 5 carries the needed ideal data.
    """
    prec = Fraction(prec)
    if n_disc < 1:
        raise InputError("the cyclic module needs N >= 1, got %d" % n_disc)
    if n_disc % 2 == 0 or n_disc % 4 != 1:
        raise UnsupportedModuleError("cyclic weight-3 family needs odd N = 1 mod 4")
    module, gen = cyclic_module(n_disc)
    coeffs = {}
    for g in range(1, (n_disc + 1) // 2):
        gamma = module.element(tuple(g * c for c in gen))
        base = _mod1(Fraction(g * g, n_disc))
        n = base if base else Fraction(1)
        while n < prec:
            val = _weight3_hol_part(n, g, n_disc) + unit_orbit_correction(n, g, n_disc)
            if val:
                neg = module.neg(gamma)
                coeffs[(gamma, n)] = val
                coeffs[(neg, n)] = -val
            n += 1
    return QExpansion(module, Fraction(3), prec, coeffs)


def _weight3_hol_part(n: Fraction, g: int, n_disc: int) -> Fraction:
    """-6N sum over r in Z + 2g/N, N r^2 <= 4n, of r H(4n - N r^2).

    With rn = r N this is -1/2 times the integer sum over rn = 2g mod N,
    rn^2 <= 4nN, of rn 12H((4nN - rn^2)/N).
    """
    four_nn = 4 * n * n_disc
    if four_nn.denominator != 1:
        raise UnsupportedModuleError("non-integral class number argument")
    four_nn = int(four_nn)
    t = twelve_h(four_nn // n_disc)
    s = math.isqrt(four_nn)
    total = 0
    for rn in range(-s + (2 * g + s) % n_disc, s + 1, n_disc):
        arg, rem = divmod(four_nn - rn * rn, n_disc)
        if rem:
            raise UnsupportedModuleError("non-integral class number argument")
        total += rn * t[arg]
    return Fraction(-total, 2)
