"""Small exact linear algebra over Z and Q used across the package.

Matrices are lists of lists (or tuples of tuples); entries are ints or
Fractions.  Everything here is desk scale, so plain Gaussian elimination
with Fractions is fine.  `det` and `inertia` read one symmetric
elimination, so both take symmetric matrices only.
"""

from __future__ import annotations

import math
from fractions import Fraction


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_vec(a, v):
    return [sum(a[i][j] * v[j] for j in range(len(v))) for i in range(len(a))]


def integral_image(a, v):
    """a v as a tuple of ints, or None if an entry is not an integer."""
    out = [Fraction(x) for x in mat_vec(a, v)]
    return tuple(map(int, out)) if all(x.denominator == 1 for x in out) else None


def _pivots(mat):
    """Diagonal of a symmetric elimination of `mat`, in Fractions.

    A congruence E A E^T keeps the inertia (Sylvester) and, with det E = 1,
    the determinant.  Each step pivots on a nonzero diagonal entry and
    passes to the Schur complement; if every remaining diagonal entry is
    zero, row and column i += row and column j put 2 a_ij on the diagonal.
    A remaining zero block gives zero pivots.
    """
    a = [[Fraction(x) for x in row] for row in mat]
    out = []
    while a:
        n = len(a)
        i = next((k for k in range(n) if a[k][k]), None)
        if i is None:
            pair = next(((k, j) for k in range(n) for j in range(n) if a[k][j]), None)
            if pair is None:
                return out + [Fraction(0)] * n
            i, j = pair
            a[i] = [x + y for x, y in zip(a[i], a[j])]
            for row in a:
                row[i] += row[j]
        d = a[i][i]
        out.append(d)
        a = [[a[r][c] - a[r][i] * a[i][c] / d for c in range(n) if c != i]
             for r in range(n) if r != i]
    return out


def det(mat):
    """Exact determinant of a symmetric matrix: the product of its pivots."""
    prod = math.prod(_pivots(mat), start=Fraction(1))
    return int(prod) if prod.denominator == 1 else prod


def inertia(mat):
    """(n+, n-) of a symmetric matrix: the signs of its pivots."""
    pivots = _pivots(mat)
    return sum(d > 0 for d in pivots), sum(d < 0 for d in pivots)


def inverse(mat):
    """Exact inverse as a matrix of Fractions."""
    n = len(mat)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(mat)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        a[col], a[piv] = a[piv], a[col]
        f = a[col][col]
        a[col] = [x / f for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                g = a[r][col]
                a[r] = [x - g * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def smith_normal_form(mat):
    """Smith normal form of a square integer matrix.

    Returns (d, u, v) with u * mat * v = diag(d), u and v unimodular and
    d[0] | d[1] | ... all positive.  Requires a nonsingular input.
    """
    n = len(mat)
    a = [[int(x) for x in row] for row in mat]
    u = identity(n)
    v = identity(n)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):
        # row dst += q * row src
        a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def add_col(dst, src, q):
        for row in a:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    for t in range(n):
        while True:
            entries = [(abs(a[i][j]), i, j)
                       for i in range(t, n) for j in range(t, n) if a[i][j]]
            if not entries:
                raise ZeroDivisionError("singular matrix in SNF")
            _, pi, pj = min(entries)
            if pi != t:
                swap_rows(t, pi)
            if pj != t:
                swap_cols(t, pj)
            p = a[t][t]
            done = True
            for i in range(t + 1, n):
                q = a[i][t] // p
                if q:
                    add_row(i, t, -q)
                if a[i][t]:
                    done = False
            for j in range(t + 1, n):
                q = a[t][j] // p
                if q:
                    add_col(j, t, -q)
                if a[t][j]:
                    done = False
            if not done:
                continue
            # divisibility: p must divide the remaining block
            bad = next(((i, j) for i in range(t + 1, n)
                        for j in range(t + 1, n) if a[i][j] % p), None)
            if bad is None:
                break
            add_row(t, bad[0], 1)
    for t in range(n):
        if a[t][t] < 0:
            for j in range(n):
                a[t][j] = -a[t][j]
                u[t][j] = -u[t][j]
    d = [a[t][t] for t in range(n)]
    return d, u, v
