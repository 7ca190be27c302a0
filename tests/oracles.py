"""Independent reference implementations used only by the test suite.

Everything here trades speed for obviousness: recursive cofactor
determinants, full box scans for group balls, direct Hermite-form
enumeration, orbit sums one element at a time in exact rationals.
None of it shares code with the package internals it checks; the
orbit-sum oracle reads the test sets' parameters and leaves only the
real-place membership of one point to the sets themselves.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from orbitlab.equidist import PadicShellBox, ProductTest


def padic_valuation(x, p):
    """v_p of a rational; v_p(0) is +infinity."""
    x = Fraction(x)
    if x == 0:
        return math.inf
    v, num, den = 0, x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def xgcd(a, b):
    """(g, x, y) with x a + y b = g >= 0, by Euclid's algorithm with
    floor division, signs flipped at the end when the last remainder is
    negative."""
    old_r, r, old_x, x, old_y, y = a, b, 1, 0, 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    sign = -1 if old_r < 0 else 1
    return old_r * sign, old_x * sign, old_y * sign


def laplace_det(a):
    """Determinant by cofactor expansion along the first row."""
    n = len(a)
    if n == 1:
        return a[0][0]
    total = 0
    for j in range(n):
        sub = [row[:j] + row[j + 1 :] for row in [list(r) for r in a[1:]]]
        term = a[0][j] * laplace_det(sub)
        total = total + (term if j % 2 == 0 else -term)
    return total


# ---------------------------------------------------------------------------
# ball enumeration by exhaustive box scan

def _norm_ok(mat, t, norm):
    if norm == "max":
        return max(abs(e) for row in mat for e in row) <= t
    return sum(e * e for row in mat for e in row) <= t * t


def brute_slnz(n, t, norm="frobenius"):
    """All of SL(n,Z) with norm <= t, by scanning the full entry box."""
    bound = int(math.floor(t if norm == "max" else math.sqrt(t * t - (n - 1))))
    rng = range(-bound, bound + 1)
    out = []
    for flat in itertools.product(rng, repeat=n * n):
        mat = [list(flat[i * n : (i + 1) * n]) for i in range(n)]
        if not _norm_ok(mat, t, norm):
            continue
        if laplace_det(mat) == 1:
            out.append(tuple(flat))
    return sorted(out)


def _int_det(mats):
    """Exact integer determinants of an (N, n, n) int64 stack by cofactor
    expansion along the first row."""
    n = mats.shape[1]
    if n == 1:
        return mats[:, 0, 0]
    total = np.zeros(len(mats), dtype=np.int64)
    for j in range(n):
        sub = np.delete(mats[:, 1:], j, axis=2)
        total += (-1) ** j * mats[:, 0, j] * _int_det(sub)
    return total


def box_scan_slnz(n, t, norm="frobenius"):
    """brute_slnz in numpy: the matrices of the full entry box, one first
    row at a time, with exact cofactor determinants; an (N, n*n) array in
    lex order of the flattened entries."""
    t = Fraction(t)
    cut = math.floor(t * t)
    bound = math.floor(t) if norm == "max" else math.isqrt(max(cut - n + 1, 0))
    rows = np.array(list(itertools.product(range(-bound, bound + 1),
                                           repeat=n)), dtype=np.int64)
    rest = np.array(list(itertools.product(range(len(rows)), repeat=n - 1)),
                    dtype=np.int64).reshape(-1, n - 1)
    found = []
    for first in rows:
        mats = np.concatenate([np.broadcast_to(first, (len(rest), 1, n)),
                               rows[rest]], axis=1)
        ok = _int_det(mats) == 1
        if norm != "max":
            ok &= (mats * mats).sum(axis=(1, 2)) <= cut
        found.append(mats[ok].reshape(-1, n * n))
    return np.concatenate(found)


def brute_sl2z(t, norm="frobenius"):
    return brute_slnz(2, t, norm)


def brute_sl2zp(p, t_inf, t_p, norm="frobenius"):
    """SL(2,Z[1/p]) ball as (level, integer matrix) pairs.

    A canonical representative of level m >= 1 is gamma = p^-m M with
    M integral, det M = p^(2m), and M not identically 0 mod p; level 0
    is plain SL(2,Z).  |gamma|_p = p^m exactly, so levels beyond
    log_p(t_p) are empty.
    """
    out = []
    max_level = int(math.floor(math.log(t_p, p) + 1e-9)) if t_p >= 1 else -1
    for m in range(0, max_level + 1):
        det = p ** (2 * m)
        scale = p**m
        bound = int(math.floor(scale * t_inf if norm == "max"
                               else math.sqrt((scale * t_inf) ** 2 - 0)))
        rng = range(-bound, bound + 1)
        for a, b, c, d in itertools.product(rng, repeat=4):
            if a * d - b * c != det:
                continue
            if m > 0 and a % p == 0 and b % p == 0 and c % p == 0 and d % p == 0:
                continue
            if norm == "max":
                if max(abs(a), abs(b), abs(c), abs(d)) > scale * t_inf:
                    continue
            else:
                if a * a + b * b + c * c + d * d > (scale * t_inf) ** 2:
                    continue
            out.append((m, (a, b, c, d)))
    return sorted(out)


def box_scan_sl2zp(p, t_inf, t_p, norm="frobenius"):
    """brute_sl2zp in numpy, at exact radii: each level's full entry box,
    one first entry a at a time; the same sorted (level, (a, b, c, d))
    pairs."""
    t_inf, t_p = Fraction(t_inf), Fraction(t_p)
    out, m = [], 0
    while t_p >= p**m:
        r = p**m * t_inf
        bound = math.floor(r)
        e = np.arange(-bound, bound + 1, dtype=np.int64)
        b, c, d = (x.ravel() for x in np.meshgrid(e, e, e, indexing="ij"))
        for a in range(-bound, bound + 1):
            ok = a * d - b * c == p ** (2 * m)
            if norm != "max":
                ok &= a * a + b * b + c * c + d * d <= math.floor(r * r)
            if m and a % p == 0:
                ok &= (b % p != 0) | (c % p != 0) | (d % p != 0)
            out += [(m, (a, int(x), int(y), int(z)))
                    for x, y, z in zip(b[ok], c[ok], d[ok])]
        m += 1
    return sorted(out)


def box_det_count(det, bound):
    """#{integer 2x2 M : det M = det, every |entry| <= bound}: for each
    (a, d) of the box, the pairs (b, c) of the box with b c = a d - det,
    read from a table of the products b c."""
    e = np.arange(-bound, bound + 1, dtype=np.int64)
    prods = (e[:, None] * e[None, :]).ravel()
    sq = bound * bound
    table = np.bincount(prods + sq, minlength=2 * sq + 1)
    need = prods - det
    ok = (need >= -sq) & (need <= sq)
    return int(table[need[ok] + sq].sum())


def two_squares_det_count(det, x):
    """#{integer 2x2 M : det M = det, norm_sq(M) <= x}, Frobenius, det >= 1.

    The direct sum over every 0 <= Q <= x - 2 det of r2(Q) r2(Q + 4 det),
    halved at odd Q (u = a+d, v = a-d, w = b-c, z = b+c give 4 det =
    (u^2 + w^2) - (v^2 + z^2) and 2 norm_sq = the sum of the two), with
    r2 counted from a full box of lattice points."""
    y = x - 2 * det
    if y < 0:
        return 0
    top = y + 4 * det
    r = math.isqrt(top)
    u = np.arange(-r, r + 1)
    size = (u[:, None] ** 2 + u[None, :] ** 2).ravel()
    r2 = np.bincount(size[size <= top], minlength=top + 1)
    terms = r2[: y + 1] * r2[4 * det : top + 1]
    return int(terms[0::2].sum() + terms[1::2].sum() // 2)


# ---------------------------------------------------------------------------
# orbit sums element by element

def shell_box_contains(box, w):
    """Membership of a pair of exact rationals in a PadicShellBox."""
    v = min(padic_valuation(x, box.p) for x in w)
    if v != -box.s:
        return False
    if box.m == 0:
        return True
    mod = box.p**box.m
    res = []
    for x in w:
        u = Fraction(x) * Fraction(box.p) ** (-v)
        res.append(u.numerator * pow(u.denominator % mod, -1, mod) % mod)
    return tuple(res) in set(box.units)


def orbit_sum_pointwise(elements, v, f, normalizer):
    """(1/normalizer) * #{gamma : f(gamma.v)}, one element at a time.

    ``elements`` holds (level, integer matrix rows) pairs, the element
    being p^-level times the matrix.  At infinity each coordinate is a
    left to right float sum of entry times v_inf entry, divided by p^level
    (the vectorized route's arithmetic); at p the point is exact.
    """
    real, padic = (f.real, f.padic) if isinstance(f, ProductTest) else (f, f)
    v_inf = v.inf_floats().tolist()
    total = 0
    for level, rows in elements:
        hit = True
        if not isinstance(real, PadicShellBox):
            w = [sum(float(e) * x for e, x in zip(row, v_inf))
                 for row in rows]
            if level:
                w = [c / float(v.p) ** level for c in w]
            hit &= bool(real.contains(np.asarray([w]))[0])
        if isinstance(padic, PadicShellBox):
            wp = [sum(Fraction(e) * Fraction(x) for e, x in zip(row, v.fin))
                  / Fraction(v.p) ** level for row in rows]
            hit &= shell_box_contains(padic, wp)
        total += hit
    return total / normalizer


# ---------------------------------------------------------------------------
# p-adic ball mass oracle

def hnf_primitive_count(p, det):
    """Number of primitive upper-triangular Hermite forms of given det.

    Forms are [[d1, c], [0, d2]] with d1 d2 = det, 0 <= c < d1,
    discarding those with every entry divisible by p.  The c values are
    enumerated explicitly (chunked through numpy when d1 is large).
    """
    divisors = set()
    d = 1
    while d * d <= det:
        if det % d == 0:
            divisors.update((d, det // d))
        d += 1
    count = 0
    for d1 in sorted(divisors):
        d2 = det // d1
        if d1 % p or d2 % p:
            count += d1
        elif d1 <= 10**5:
            count += sum(1 for c in range(d1) if c % p)
        else:
            done = 0
            while done < d1:
                chunk = np.arange(done, min(done + 10**7, d1), dtype=np.int64)
                count += int(np.count_nonzero(chunk % p))
                done += len(chunk)
    return count


def padic_ball_mass_oracle(p, j):
    """Mass of {g in SL(2,Q_p): |g|_p <= p^j} with SL(2,Z_p) mass 1.

    Level a cells (max entry |.|_p = p^a) have one coset of mass 1 for
    a = 0 and hnf_primitive_count(p, p^(2a)) cosets for a >= 1.
    """
    total = Fraction(1)
    for a in range(1, j + 1):
        total += hnf_primitive_count(p, p ** (2 * a))
    return total


# ---------------------------------------------------------------------------
# misc small oracles

def sym2_mass_oracle(p, n, e_inf=(0, 0, 0), f_p=(0, 0, 0)):
    """Ball mass for the (1, s, s^2) unipotent by direct constraint scan.

    Real factor: smallest bound among |s|^k <= p^(n - e_col) checked on
    a float grid of candidate half powers.  Finite factor: scan
    valuations v and test every entry |s^k p^-f|_p <= p^n with exact
    Fractions.  Returns a float.
    """
    profile = ((1, 1), (2, 1), (2, 2))  # (column index, degree)
    if max(e_inf) > n or min(f_p) < -n:
        return 0.0
    real = min((p ** float(n - e_inf[col])) ** (1.0 / k) for col, k in profile)

    def fits(v):
        for col, k in profile:
            val = k * v + f_p[col]  # v_p of s^k * p^f
            if Fraction(p) ** (-val) > Fraction(p) ** n:
                return False
        return True

    v = max(f_p) + n + 1
    assert fits(v)
    while fits(v - 1):
        v -= 1
        if v < -4 * n - 4:
            raise AssertionError("runaway scan")
    return real * p ** float(-v)


def mat_mul(a, b):
    """Plain product of two matrices given as lists of rows."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def minors_matrix(a, k):
    """k-minor matrix with rows/cols in lex subset order, via Laplace."""
    n = len(a)
    idx = list(itertools.combinations(range(n), k))
    out = []
    for rows in idx:
        line = []
        for cols in idx:
            sub = [[a[i][j] for j in cols] for i in rows]
            line.append(laplace_det(sub))
        out.append(line)
    return out


def det_np_batch(mats):
    """Rounded integer determinants of an (N,n,n) int array via LU."""
    return np.rint(np.linalg.det(mats.astype(np.float64))).astype(np.int64)
