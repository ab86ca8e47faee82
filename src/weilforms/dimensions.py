"""Dimensions of spaces of antisymmetric vector-valued modular forms.

The formula evaluates Gauss sums over the discriminant group in floating
point and rounds; the rounding residual is recorded and checked.  Valid for
weights k > 2 with k + sig/2 an odd integer.  The formula is d_pairs k / 12
plus terms of period 12 in k (its phases have periods 4 and 6), so the floats
are read at k' = k - 12 j in (2, 14] and j d_pairs is added exactly; weights
above 14 record the residual at k'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import NumericInconsistencyError, WrongParityError
from .quadmod import FiniteQuadraticModule, _e

RESIDUAL_TOLERANCE = 1e-4


def sawtooth(x) -> Fraction:
    """B(x) = x - (floor(x) - floor(-x)) / 2, the odd 1-periodic sawtooth."""
    x = Fraction(x)
    return x - Fraction(math.floor(x) - math.floor(-x), 2)


def gauss_sum(a: int, module: FiniteQuadraticModule) -> complex:
    """G(a, A) = sum over gamma of e(a Q(gamma)), at double precision."""
    total = 0j
    for gamma in module.elements():
        total += _e(a * module.qvalue(gamma))
    return total


@dataclass(frozen=True)
class DimensionReport:
    weight: Fraction
    dim_m: int
    dim_s: int
    alpha4_tilde: int
    b1: Fraction
    b2: Fraction
    d_pairs: int
    numeric_residual: float


def dim_antisymmetric(module: FiniteQuadraticModule, weight) -> DimensionReport:
    """dim M_k and dim S_k for an antisymmetric weight k > 2."""
    k = Fraction(weight)
    if k <= 2:
        raise WrongParityError("the dimension formula needs weight > 2")
    sig = module.signature_mod8
    parity = 2 * k + sig
    if parity.denominator != 1 or int(parity) % 4 != 2:
        raise WrongParityError(
            "weight %s is not antisymmetric for signature %d" % (k, sig))
    b1 = sum((sawtooth(module.qvalue(g)) for g in module.elements()), Fraction(0))
    b2 = Fraction(0)
    alpha4 = 0
    d_pairs = 0
    for gamma in module.orbit_reps():
        q = module.qvalue(gamma)
        if module.is_self_negative(gamma):
            b2 += sawtooth(q)
        else:
            d_pairs += 1
            if q == 0:
                alpha4 += 1
    order = module.order
    g2 = gauss_sum(2, module)
    g1 = gauss_sum(1, module)
    gm3 = gauss_sum(-3, module)
    periods = math.ceil((k - 14) / 12)
    kr = k - 12 * periods
    total = complex(d_pairs * float(kr - 1) / 12)
    total += _e(Fraction(int(2 * (kr + 1)) + sig, 8)) * g2.imag / (4 * math.sqrt(order))
    total -= (_e(Fraction(int(4 * kr) + 3 * sig - 10, 24)) * (g1 - gm3)).real \
        / (3 * math.sqrt(3 * order))
    total += float(alpha4 + b1 - b2) / 2
    dim_m = round(total.real)
    residual = abs(total.real - dim_m) + abs(total.imag)
    if residual > RESIDUAL_TOLERANCE:
        raise NumericInconsistencyError(
            "dimension formula residual %.3g exceeds tolerance" % residual)
    dim_m += periods * d_pairs
    dim_s = dim_m - alpha4
    if dim_m < 0 or dim_s < 0:
        raise NumericInconsistencyError("negative dimension computed")
    return DimensionReport(weight=k, dim_m=dim_m, dim_s=dim_s,
                           alpha4_tilde=alpha4, b1=b1, b2=b2,
                           d_pairs=d_pairs, numeric_residual=residual)
