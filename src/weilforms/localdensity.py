"""p-adic representation densities, counted once at a proven exponent.

The density of an even lattice M at p is

    lim_nu  p^(-nu(rank-1)) #{x in M/p^nu M : Q(x + gamma) = n mod p^nu},

reached at the exponent nu* that `DensityEngine.density` proves from the
largest Smith divisor of the Gram matrix (Hensel): one count per density.

Counting never enumerates the full residue space.  The form is split into
one- and two-dimensional p-adic blocks; p-integral shift components are
absorbed (shifting by a p-adic integer is a bijection of residues).
Unshifted binary blocks have closed-form value distributions constant on
valuation classes (hyperbolic xy and norm-form x^2+xy+y^2 types, any
scale), convolved on their nu + 1 class values.  Every block with a
fractional shift is uniform on a coset c + p^g Z of Z/p^W (Hensel), and so
is their sum, with the least step G.  Only unshifted one-dimensional blocks
u p^k x^2 get histograms, over half of the p^W residues.  The level sum
S_b counts the residues = target mod p^b of the whole convolution, and
S_b - S_(b+1) meets one valuation class of the pad.  The coset puts
p^-(b-G) of its mass into S_b past level G, so S_b reads the histograms'
convolution folded to p^min(b, G) at target - c: a slice sum for one
histogram, a dot product of two folded vectors for two.
"""

from __future__ import annotations

import hashlib
import json
import operator
import os
from dataclasses import dataclass
from fractions import Fraction

from . import _linalg
from .errors import NotInDualError, StabilizationError

CACHE_ENV_VAR = "WEILFORMS_CACHE_DIR"
CACHE_DEFAULT = ".weilforms-cache"
CACHE_SCHEMA = 3

_MAX_DIST1 = 1 << 18      # largest modulus for a one-variable histogram
_MAX_CONV = 1 << 15       # largest modulus when histograms must be convolved


@dataclass(frozen=True)
class LocalDensityRecord:
    prime: int
    stabilized_at: int
    value: Fraction


def _vp(x, p) -> int:
    """p-adic valuation; raises on 0."""
    x = Fraction(x)
    if x == 0:
        raise ZeroDivisionError("valuation of zero")
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def _den_exp(x, p) -> int:
    den = Fraction(x).denominator
    e = 0
    while den % p == 0:
        den //= p
        e += 1
    return e


def _int_mod(x: Fraction, modulus: int, p: int) -> int:
    """Reduce a p-integral rational mod p^W."""
    x = Fraction(x)
    den = x.denominator
    if den % p == 0:
        raise ValueError("rational is not p-integral")
    return x.numerator * pow(den, -1, modulus) % modulus if modulus > 1 else 0


def _fractional_part(s: Fraction, p: int) -> Fraction:
    """The part of s with negative valuation: s minus a p-adic integer."""
    s = Fraction(s)
    a = _den_exp(s, p)
    if a == 0:
        return Fraction(0)
    pa = p ** a
    m = s.denominator // pa
    num = s.numerator * pow(m, -1, pa) % pa
    return Fraction(num, pa)


# -- p-adic block diagonalization -------------------------------------------


def _padic_block_decomposition(gram, p):
    """Split Q = x^T G x / 2 into one- and two-dimensional p-adic blocks.

    Returns (blocks, binv): blocks is a list of ('one', h) with
    q(x) = h x^2 / 2, or ('two', (a, b, c)) with q(x, y) = (a x^2 + 2 b x y
    + c y^2)/2 and b of strictly minimal valuation (p = 2 only); binv is the
    inverse base change with entries in Z_(p), so shifts transform by
    gamma' = binv * gamma.
    """
    n = len(gram)
    h = [[Fraction(x) for x in row] for row in gram]
    basis = _linalg.identity(n)

    def add_col(dst, src, coef):
        for r in range(n):
            h[r][dst] += coef * h[r][src]
        for c in range(n):
            h[dst][c] += coef * h[src][c]
        for r in range(n):
            basis[r][dst] += coef * basis[r][src]

    def swap(i, j):
        if i == j:
            return
        for r in range(n):
            h[r][i], h[r][j] = h[r][j], h[r][i]
        h[i], h[j] = h[j], h[i]
        for r in range(n):
            basis[r][i], basis[r][j] = basis[r][j], basis[r][i]

    blocks = []
    i = 0
    while i < n:
        vmin, rmin, cmin = None, None, None
        for r in range(i, n):
            for c in range(r, n):
                if h[r][c]:
                    v = _vp(h[r][c], p)
                    if vmin is None or v < vmin:
                        vmin, rmin, cmin = v, r, c
        if vmin is None:
            raise StabilizationError("degenerate block in p-adic reduction")
        diag = next((t for t in range(i, n)
                     if h[t][t] != 0 and _vp(h[t][t], p) == vmin), None)
        if diag is not None:
            swap(i, diag)
            piv = h[i][i]
            for j in range(i + 1, n):
                if h[i][j]:
                    add_col(j, i, -h[i][j] / piv)
            blocks.append(("one", h[i][i]))
            i += 1
            continue
        if p != 2:
            add_col(cmin, rmin, 1)
            if h[cmin][cmin] == 0 or _vp(h[cmin][cmin], p) != vmin:
                add_col(cmin, rmin, -2)
            assert h[cmin][cmin] != 0 and _vp(h[cmin][cmin], p) == vmin
            continue
        swap(i, rmin)
        cmin = rmin if cmin == i else cmin
        swap(i + 1, cmin)
        a, b, d = h[i][i], h[i][i + 1], h[i + 1][i + 1]
        detb = a * d - b * b
        for j in range(i + 2, n):
            u, w = h[i][j], h[i + 1][j]
            if u or w:
                add_col(j, i, -(d * u - b * w) / detb)
                add_col(j, i + 1, -(a * w - b * u) / detb)
        blocks.append(("two", (h[i][i], h[i][i + 1], h[i + 1][i + 1])))
        i += 2
    pos = 0
    for kind, _ in blocks:
        width = 1 if kind == "one" else 2
        for r in range(pos, pos + width):
            for c in range(pos + width, n):
                assert h[r][c] == 0
        pos += width
    binv = _linalg.inverse(basis)
    return blocks, binv


# -- valuation-class measures -------------------------------------------------


class VClassMeasure:
    """A function on Z/p^nu constant on valuation classes.

    vals[a] is the per-residue value on {t : v_p(t) = a} for a < nu;
    zero_val the value at t = 0 (that is, on v_p >= nu).
    """

    def __init__(self, p, nu, vals, zero_val):
        self.p = p
        self.nu = nu
        self.vals = list(vals)
        self.zero_val = zero_val

    @classmethod
    def delta(cls, p, nu):
        return cls(p, nu, [0] * nu, 1)

    @classmethod
    def hyperbolic(cls, p, nu):
        """Counts of x y = t over (x, y) mod p^nu."""
        if nu == 0:
            return cls(p, 0, [], 1)
        unit_count = p ** (nu - 1) * (p - 1)
        vals = [(a + 1) * unit_count for a in range(nu)]
        return cls(p, nu, vals, nu * unit_count + p ** nu)

    @classmethod
    def norm_form(cls, nu):
        """Counts of x^2 + x y + y^2 = t over (x, y) mod 2^nu."""
        if nu == 0:
            return cls(2, 0, [], 1)
        vals = [3 * 2 ** (nu - 1) if a % 2 == 0 else 0 for a in range(nu)]
        return cls(2, nu, vals, 4 ** (nu // 2))

    def value(self, t):
        t %= self.p ** self.nu
        if t == 0:
            return self.zero_val
        a = 0
        while t % self.p == 0:
            t //= self.p
            a += 1
        return self.vals[a]

    def convolve(self, other):
        """Convolution over Z/p^nu; closed under valuation-class functions.

        With class sizes |C_a| = (p-1) p^(nu-a-1) for a < nu and |C_nu| = 1,
        a residue s of class a and t - s of class b meet t of class c as:
        a > c forces b = c, a < c forces b = a, and a = c < nu leaves b > c
        free over all of C_b, or b = c for (p-2) p^(nu-c-1) of the s.
        """
        p, nu = self.p, self.nu
        assert other.p == p and other.nu == nu
        f = self.vals + [self.zero_val]
        g = other.vals + [other.zero_val]
        sizes = [(p - 1) * p ** (nu - a - 1) for a in range(nu)] + [1]
        out = []
        for c in range(nu + 1):
            same = (p - 2) * p ** (nu - c - 1) if c < nu else 1
            out.append(f[c] * sum(g[b] * sizes[b] for b in range(c + 1, nu + 1))
                       + g[c] * sum(f[a] * sizes[a] for a in range(c + 1, nu + 1))
                       + sum(f[a] * g[a] * sizes[a] for a in range(c))
                       + f[c] * g[c] * same)
        return VClassMeasure(p, nu, out[:nu], out[nu])


def block_measure(data, p, nu):
    """Closed-form value distribution of an unshifted binary block mod p^nu.

    The block is 2^e q with q hyperbolic or the norm form, and e is capped
    at nu.  2^e q(x, y) = t mod 2^nu needs 2^e | t and q = t / 2^e mod
    2^(nu-e), which depends on (x, y) mod 2^(nu-e) only: q's measure at
    2^(nu-e), shifted up e classes and times the 4^e lifts of each (x, y).
    """
    a, b, c = data
    e = _vp(b, p)
    det_unit = (a * c - b * b) / Fraction(p ** (2 * e))
    assert _vp(det_unit, p) == 0
    if p != 2:
        raise ValueError("two-dimensional blocks only occur at p = 2")
    cls = int(_int_mod(det_unit, 8, 2))
    e = min(e, nu)
    if cls == 7:
        base = VClassMeasure.hyperbolic(2, nu - e)
    elif cls == 3:
        base = VClassMeasure.norm_form(nu - e)
    else:
        raise AssertionError("impossible unimodular binary determinant %d" % cls)
    lifts = 4 ** e
    return VClassMeasure(2, nu, [0] * e + [lifts * v for v in base.vals],
                         lifts * base.zero_val)


# -- cosets of shifted blocks, histograms of unshifted ones -------------------


def _dist_one(coeffs, p, w_exp):
    """Counts of c2 x^2 mod p^W over x mod p^W, for an unshifted block.

    Shifted blocks are cosets (`_coset_one`), so c0 = c1 = 0 here.  x and -x
    give the same value: x = 1 ... ceil(p^W / 2) - 1 count twice, x = 0 once
    and, for even p^W, x = p^W / 2 once.
    """
    modulus = p ** w_exp
    c0, c1, c2 = (_int_mod(c, modulus, p) for c in coeffs)
    assert c0 == c1 == 0
    counts = [0] * modulus
    for x in range(1, (modulus + 1) // 2):
        counts[c2 * x * x % modulus] += 2
    counts[0] += 1
    if modulus % 2 == 0:
        counts[c2 * (modulus // 2) ** 2 % modulus] += 1
    return counts


def _coset_one(coeffs, p, w_exp):
    """Coset (c0 mod p^g, g) of a shifted c0 + c1 x + c2 x^2, hit p^g times.

    The shift is fractional, so v_p(c2) > v_p(c1) = g and f - c0 has unit
    derivative after dividing by p^g (Hensel); or p = 2 and v(c2) = v(c1),
    where x (u + u' x) / 2 with u, u' odd runs over every residue (the
    triangular numbers) and g = v(c1) + 1 <= W.  If c1 = 0 mod p^W, so is c2.
    """
    modulus = p ** w_exp
    c0, c1, c2 = (_int_mod(c, modulus, p) for c in coeffs)
    g = _vp(c1, p) if c1 else w_exp
    if p == 2 and c2 and _vp(c2, 2) == g:
        g += 1
    return c0 % p ** g, g


def _dist_two(coeffs, p, w_exp):
    """Coset (c0 mod p^g, g) of a shifted binary quadratic, hit p^(W+g) times.

    With g = min(v_p(c_x), v_p(c_y), W) the form is c0 + p^g (l + p q), l a
    primitive linear form, as the shift is fractional.  A map with unit
    derivative permutes residues (Hensel).
    """
    modulus = p ** w_exp
    c0, cx, cy, cxx, cxy, cyy = (_int_mod(c, modulus, p) for c in coeffs)
    g = min(_vp(c, p) for c in (cx, cy, modulus) if c)
    assert g == w_exp or all(c % p ** (g + 1) == 0 for c in (cxx, cxy, cyy))
    return c0 % p ** g, g


def _convolve_mod(d1, d2, modulus):
    """Circular convolution of two count vectors mod `modulus`.

    `count` needs it only for all but the last of three or more histograms.
    Kronecker substitution: each vector is packed into one integer, w bytes
    per entry, the two integers are multiplied, and the product is folded at
    `modulus` entries.  A folded entry sum_i d1[i] d2[k - i] is at most
    max(d1) sum(d2) and max(d2) sum(d1), so w bytes hold it without a carry
    into its neighbour.
    """
    bound = min(max(d1, default=0) * sum(d2), max(d2, default=0) * sum(d1))
    w = max(1, (bound.bit_length() + 7) // 8)

    def pack(d):
        buf = bytearray(w * modulus)
        for i, v in enumerate(d):
            if v:
                buf[i * w:(i + 1) * w] = v.to_bytes(w, "little")
        return int.from_bytes(buf, "little")

    bits = 8 * w * modulus
    prod = pack(d1) * pack(d2)
    raw = ((prod & ((1 << bits) - 1)) + (prod >> bits)).to_bytes(w * modulus, "little")
    return [int.from_bytes(raw[j * w:(j + 1) * w], "little") for j in range(modulus)]


def _level_sums(f, g, target, p, lo, hi):
    """Level sums S_b (b = lo ... hi) at target of f * g, as folded dot products."""
    levels = []
    for b in range(hi, lo - 1, -1):
        step, t = p ** b, target % p ** b
        if len(f) > step:
            f, g = ([sum(d[r::step]) for r in range(step)] for d in (f, g))
        levels.insert(0, sum(map(operator.mul, f, g[t::-1] + g[:t:-1])))
    return levels


def _counting_scale(n, enum_polys, p):
    """Largest p-power denominator of n and of the enumerated coefficients."""
    return max([_den_exp(n, p)] + [_den_exp(c, p) for _, cs in enum_polys for c in cs])


# -- the engine ----------------------------------------------------------------


class DensityEngine:
    """Counts representation numbers for core_gram plus j hyperbolic planes."""

    def __init__(self, core_gram, j_pad, cache=None):
        self.core = tuple(tuple(int(x) for x in row) for row in core_gram)
        self.j_pad = int(j_pad)
        self.rank = len(self.core) + 2 * self.j_pad
        self.cache = cache
        self._decomp = {}
        self._plans = {}
        self._dist_cache = {}
        self._measure_cache = {}

    def _blocks(self, p):
        if p not in self._decomp:
            self._decomp[p] = _padic_block_decomposition(self.core, p)
        return self._decomp[p]

    def _plan(self, p, gamma):
        """Split blocks into enumerated (fractional) and closed-form parts."""
        key = (p, tuple(gamma))
        if key in self._plans:
            return self._plans[key]
        gamma = [Fraction(x) for x in gamma]
        # the count is well-defined on L/p^nu L only for gamma in the dual
        if _linalg.integral_image(self.core, gamma) is None:
            raise NotInDualError("gamma does not pair integrally with the lattice")
        blocks, binv = self._blocks(p)
        shifts = _linalg.mat_vec([list(r) for r in binv], gamma) if self.core else []
        shifts = [_fractional_part(Fraction(s), p) for s in shifts]
        enum_polys = []
        measured = []
        pos = 0
        for kind, data in blocks:
            if kind == "one":
                hcoef = data
                s = shifts[pos]
                enum_polys.append(("one", (hcoef / 2 * s * s, hcoef * s, hcoef / 2)))
                pos += 1
            else:
                a, b, c = data
                s, t = shifts[pos], shifts[pos + 1]
                if s == 0 and t == 0:
                    measured.append((kind, data))
                else:
                    enum_polys.append(("two", (a / 2 * s * s + b * s * t + c / 2 * t * t,
                                               a * s + b * t, b * s + c * t,
                                               a / 2, b, c / 2)))
                pos += 2
        self._plans[key] = enum_polys, tuple(measured)
        return self._plans[key]

    def _pad_measure(self, p, nu, measured_blocks):
        key = (p, nu, measured_blocks)
        if key not in self._measure_cache:
            out = VClassMeasure.delta(p, nu)
            single = VClassMeasure.hyperbolic(p, nu)
            for _ in range(self.j_pad):
                out = out.convolve(single)
            for _, data in measured_blocks:
                out = out.convolve(block_measure(data, p, nu))
            self._measure_cache[key] = out
        return self._measure_cache[key]

    def count(self, p, n, gamma, nu):
        """#{x mod p^nu : Q(x + gamma) = n mod p^nu} for the padded lattice."""
        n = Fraction(n)
        enum_polys, measured = self._plan(p, gamma)
        scale = _counting_scale(n, enum_polys, p)
        pad = self._pad_measure(p, nu, measured)
        w_exp = nu + scale
        modulus = p ** w_exp
        pscale = p ** scale
        hists = sum(kind == "one" and not cs[1] for kind, cs in enum_polys)
        cap = _MAX_CONV if hists > 1 else _MAX_DIST1
        if hists and modulus > cap:
            raise StabilizationError(
                "counting at p=%d, nu=%d needs modulus %d, above the cap %d"
                % (p, nu, modulus, cap))
        # the shifted blocks sum to a coset offset + p^step Z, taken evenly
        offset, step, dists = 0, w_exp, []
        for kind, coeffs in enum_polys:
            coeffs = tuple(Fraction(c) * pscale for c in coeffs)
            if kind == "two" or coeffs[1]:
                c, g = (_dist_two if kind == "two" else _coset_one)(coeffs, p, w_exp)
                offset, step = offset + c, min(step, g)
                continue
            key = (p, w_exp, coeffs)
            if key not in self._dist_cache:
                self._dist_cache[key] = _dist_one(coeffs, p, w_exp)
            dists.append(self._dist_cache[key])
        # folded[k - lo]: the histograms' convolution folded to p^k, read at
        # target - offset; with no histogram it is the point mass [1] at 0
        read_at = _int_mod(n * pscale, modulus, p) - offset
        lo = min(scale, step)
        if len(dists) < 2:
            hist = dists[0] if dists else [1]
            folded = [sum(hist[read_at % p ** k::p ** k]) for k in range(lo, step + 1)]
        else:
            conv = dists[0]
            for d in dists[1:-1]:
                conv = _convolve_mod(conv, d, modulus)
            folded = _level_sums(conv, dists[-1], read_at, p, lo, step)
        enum_rank = sum(1 if kind == "one" else 2 for kind, _ in enum_polys)
        mass = modulus ** (enum_rank - len(dists))
        # levels[a]: residues = target mod p^b, b = scale + a (the coset keeps
        # p^-(b-step) past step); the pad takes vals[a] on v_p(target - t) = b
        levels = [mass // p ** max(b - step, 0) * folded[min(b, step) - lo]
                  for b in range(scale, w_exp + 1)]
        total = pad.zero_val * levels[nu] + sum(
            val * (levels[a] - levels[a + 1]) for a, val in enumerate(pad.vals))
        overcount = pscale ** enum_rank
        assert total % overcount == 0
        return total // overcount

    def density(self, p, n, gamma):
        """Local density at p, from one count at nu* (`stabilized_at`).

        Write Q(y) = y.Gy / 2 on the padded lattice, y = x + gamma with
        Q(y) = n mod p^nu.  Let p^k be the largest Smith divisor of G, read
        off the core's blocks (the pads are unimodular; k = 0 for no core).
        Gy is integral (gamma is dual) and y = G^-1 Gy, so v_p(y) >= m - k
        with m = v_p(Gy).  Once nu > v_p(n), y.Gy = 2 Q(y) has valuation
        v_p(2n), so 2m - k <= v_p(2n).  With Gy = p^m u, u primitive, and
        nu >= 2m + 1: Q(y + p^(nu-m) w) = Q(y) + p^nu w.u mod p^(nu+1), as
        Q(w) is integral on an even lattice (at p = 2 too).  So the solutions
        mod p^nu are unions of cosets mod p^(nu-m), and a fraction 1/p of the
        lifts of each coset solve mod p^(nu+1): count(nu+1) =
        p^(rank-1) count(nu).  Hence nu* = max(1, v_p(2n) + k + 1), at p = 2
        as at odd p.
        """
        n = Fraction(n)
        gamma = tuple(Fraction(x) for x in gamma)
        cache_key = None
        if self.cache is not None:
            cache_key = self.cache.key(self.core, self.j_pad, p, n, gamma)
            hit = self.cache.get(cache_key)
            if hit is not None:
                return hit
        blocks, _ = self._blocks(p)
        k = max((_vp(data if kind == "one" else data[1], p) for kind, data in blocks),
                default=0)
        nu = max(1, _vp(2 * n, p) + k + 1)
        value = Fraction(self.count(p, n, gamma, nu), p ** (nu * (self.rank - 1)))
        record = LocalDensityRecord(prime=p, stabilized_at=nu, value=value)
        if self.cache is not None:
            self.cache.put(cache_key, record)
        return record


class DensityCache:
    """On-disk memo for local densities, keyed by content hash."""

    def __init__(self, directory=None):
        if directory is None:
            directory = os.environ.get(CACHE_ENV_VAR, CACHE_DEFAULT)
        self.directory = directory
        self._mem = {}

    def key(self, core, j_pad, p, n, gamma):
        n = Fraction(n)
        payload = json.dumps({
            "gram": [list(r) for r in core],
            "pad": j_pad,
            "p": p,
            "n": "%d/%d" % (n.numerator, n.denominator),
            "gamma": ["%d/%d" % (Fraction(g).numerator, Fraction(g).denominator)
                      for g in gamma],
        }, sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()

    def _path(self, key):
        return os.path.join(self.directory, key + ".json")

    def get(self, key):
        if key in self._mem:
            return self._mem[key]
        path = self._path(key)
        if not os.path.exists(path):
            return None
        # an entry that cannot be read is a miss: it is recomputed and rewritten
        try:
            with open(path) as fh:
                data = json.load(fh)
            if data.get("schema") != CACHE_SCHEMA:
                return None
            num, den = data["value"].split("/")
            rec = LocalDensityRecord(prime=data["p"],
                                     stabilized_at=data["stabilized_at"],
                                     value=Fraction(int(num), int(den)))
        except (OSError, ValueError, AttributeError, KeyError, TypeError,
                ZeroDivisionError):
            return None
        self._mem[key] = rec
        return rec

    def put(self, key, record):
        self._mem[key] = record
        try:
            os.makedirs(self.directory, exist_ok=True)
            path = self._path(key)
            tmp = path + ".tmp"
            with open(tmp, "w") as fh:
                json.dump({
                    "schema": CACHE_SCHEMA,
                    "p": record.prime,
                    "stabilized_at": record.stabilized_at,
                    "value": "%d/%d" % (record.value.numerator,
                                        record.value.denominator),
                }, fh)
            os.replace(tmp, path)
        except OSError:
            pass


def local_density(p, lattice, n, gamma, cache=None) -> LocalDensityRecord:
    """Local density of an even lattice at p.

    `gamma` is a dual vector in basis coordinates; `n` a positive rational
    with n + Q(gamma) integral.
    """
    engine = DensityEngine(lattice.gram, 0, cache=cache)
    return engine.density(p, n, tuple(Fraction(x) for x in gamma))
