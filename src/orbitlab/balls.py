"""Enumeration of norm balls in SL(2,Z), SL(2,Z[1/p]) and SL(n,Z).

The kernels are numpy-vectorized and stream their output in chunks so
ladders and orbit sums never materialize more than one block.  All
norm comparisons reduce to exact integer inequalities (radii are
converted through Fraction, never trusted as floats).  The SL(2) engine
solves exact integer intervals and builds only elements of the ball;
it is the one engine of both the whole-ball stream and the test strips
of orbit runs, which pass it a strip to cut its rows and intervals.
SL(n) matrices are built row by row: the first n-1 rows from tables,
the last one by one solver (_last_row_lines) that splits its lattice
coset into lines, each with an exact integer interval under either norm,
so counts sum interval lengths and enumeration builds only elements of
the ball.  Counts build no matrix under either norm.

The size of a matrix is its squared norm |M|^2 as an exact integer,
``norm_sq``; the cut for radius r is floor(r^2), ``norm_sq_cut``, under
both norms.  An element gamma = p^-m M of SL(2,Z[1/p]) (M integral, not
zero mod p) has size D(gamma) = max(|gamma|, |gamma|_p) with |gamma|_p =
p^m, so D(gamma) <= T exactly when p^m <= T and norm_sq(M) <=
norm_sq_cut(p^m T).

Element orders are deterministic and documented per group:

* sl2z:  lexicographic on the first column (a, c), then on the
  completion parameter t of the second column.
* sl2zp: levels m ascending, then the sl2z order of the integer
  matrix M = p^m gamma.
* slnz:  lexicographic on the flattened row-major entries.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CapacityError, ConfigError, InvariantError
from .places import as_rational, floor_log, is_prime

DEFAULT_CAPACITY = 10**8
_CHUNK_PAIRS = 1 << 21
# SL(2) engine: first columns per work block, and matrices per yielded
# chunk.  Small blocks keep the temporaries of the workers+2 blocks in
# flight small and let the consumer overlap the producers.
_SL2_BLOCK_PAIRS = 1 << 15
_SL2_CHUNK_ELEMS = 1 << 19
# matrices per chunk of a test strip, each binned and masked as a whole
_STRIP_CHUNK_ELEMS = 1 << 14
_MAX_N = 4
_ROW_BUDGET = 3 * 10**7
# radii whose full (2b+1)^n row table fits the row budget
_SLNZ_RADIUS_LIMITS = {2: 2500, 3: 150, 4: 15}
# matrices one SL(2) block may build (the work guard, apart from
# capacity): the block stops before allocating them
_SL2_BLOCK_WORK = 1 << 24
# bound on every intermediate of the SL(2) engine (_check_sl2_headroom)
_INT_HEADROOM = 1 << 62
# the SL(n) last-row solver: absolute margin of its float line ranges,
# and the bound on its integers (a sixteenth of the int64 range)
_LINE_MARGIN = 1e-6
_LINE_HEADROOM = 1 << 58
# matrices per pass of the max-norm norm_sq: their entries stay in cache
_NORM_ROWS = 1 << 13
_VAL_INF = 10**9  # valuation sentinel for a zero entry


def exact_radius(t) -> Fraction:
    """Radius as an exact rational; floats keep their binary value."""
    return Fraction(t) if isinstance(t, float) else as_rational(t)


def norm_sq(mats, norm: str) -> np.ndarray:
    """|M|^2 of each matrix of an (N, n, n) integer stack, exact in int64:
    the sum of squared entries (Frobenius) or the squared largest entry
    modulus (max).  The largest modulus is an elementwise maximum over
    the entries, _NORM_ROWS matrices at a time: numpy's reduction over a
    short axis is several times slower."""
    if norm == "frobenius":
        return np.einsum("nij,nij->n", mats, mats)
    flat = mats.reshape(-1, math.prod(mats.shape[1:]))
    top = np.empty(len(flat), dtype=flat.dtype)
    for i in range(0, len(flat), _NORM_ROWS):
        top[i:i + _NORM_ROWS] = functools.reduce(
            np.maximum, np.abs(flat[i:i + _NORM_ROWS]).T)
    return top * top


def norm_sq_cut(t: Fraction) -> int:
    """floor(t^2): |M| <= t exactly when norm_sq(M) <= norm_sq_cut(t).

    Under the max norm the key max|e|^2 is a square, and an integer
    square is at most t^2 exactly when it is at most floor(t^2)."""
    return math.floor(t * t)


def _level_cuts(t_inf: Fraction, p: int, t_p: Fraction) -> list:
    """norm_sq_cut(p^m t_inf) for each level m >= 0 with p^m <= t_p, the
    cut of the integer matrices M = p^m gamma of that level.  Without a
    finite place (p = 0) level 0 is the only one."""
    if not p:
        return [norm_sq_cut(t_inf)]
    return [norm_sq_cut(p**m * t_inf) for m in range(floor_log(t_p, p) + 1)]


def resolve_workers(workers=None) -> int:
    """Worker count: explicit arg, else ORBITLAB_THREADS, else all cores;
    never more than the cores, so a large value starts no more threads."""
    cores = os.cpu_count() or 1
    if workers is None:
        env = os.environ.get("ORBITLAB_THREADS", "").strip() or str(cores)
        try:
            workers = int(env)
        except ValueError:
            raise ConfigError(f"ORBITLAB_THREADS must be an integer, got {env!r}")
    if workers < 1:
        raise ConfigError("worker count must be >= 1")
    return min(workers, cores)


GROUPS = ("sl2z", "sl2zp", "slnz")
NORMS = ("frobenius", "max")


@dataclass(frozen=True)
class BallSpec:
    """What to enumerate: group, size, radii, norm kind, capacity."""

    group: str
    n: int = 2
    t_inf: object = 10
    t_p: object = None
    p: int = 0
    norm: str = "frobenius"
    capacity: int = DEFAULT_CAPACITY

    def __post_init__(self):
        problems = []
        if self.group not in GROUPS:
            problems.append(f"unknown group {self.group!r}")
        if self.group in ("sl2z", "sl2zp") and self.n != 2:
            problems.append("sl2 groups are 2x2")
        if self.group == "slnz" and not 2 <= self.n <= _MAX_N:
            problems.append(f"slnz supports 2 <= n <= {_MAX_N}")
        if self.group == "sl2zp":
            if not is_prime(self.p):
                problems.append(f"sl2zp needs a prime p, got {self.p}")
        elif self.p:
            problems.append("p is only meaningful for sl2zp")
        if self.norm not in NORMS:
            problems.append(f"unknown norm {self.norm!r}")
        if self.capacity < 1:
            problems.append("capacity must be positive")
        try:
            if self._exact_t_inf() <= 0:
                problems.append("t_inf must be positive")
            if self.group == "sl2zp" and self._exact_t_p() <= 0:
                problems.append("t_p must be positive")
        except (TypeError, ValueError) as exc:
            problems.append(f"bad radius: {exc}")
        if problems:
            raise ConfigError(problems)

    def _exact_t_inf(self) -> Fraction:
        return exact_radius(self.t_inf)

    def _exact_t_p(self) -> Fraction:
        return exact_radius(self.t_p if self.t_p is not None else self.t_inf)


@dataclass(frozen=True)
class CongruenceWindow:
    """A union of residue classes mod p^m in SL(2,Z)."""

    p: int
    m: int
    reps: tuple  # tuple of flattened (a, b, c, d) residue tuples

    def __post_init__(self):
        if not is_prime(self.p) or self.m < 1:
            raise ConfigError("window needs a prime p and m >= 1")
        mod = self.p**self.m
        if mod**4 >= 1 << 63:  # the keys of filter_window
            raise ConfigError(f"window mod {mod}: keys overflow int64")
        classes = set()
        for r in self.reps:
            if len(r) != 4:
                raise ConfigError("window reps are flattened 2x2 matrices")
            if (r[0] * r[3] - r[1] * r[2]) % mod != 1:
                raise ConfigError(f"rep {r} has det != 1 mod {mod}")
            classes.add(tuple(int(e) % mod for e in r))
        # one entry per class, so len(reps) counts the classes it keeps
        object.__setattr__(self, "reps", tuple(sorted(classes)))

    @property
    def modulus(self) -> int:
        return self.p**self.m


# ---------------------------------------------------------------------------
# shared vector helpers

def _xgcd_arrays(a, b):
    """Vectorized extended gcd: g >= 0 with x*a + y*b = g.

    Each Euclid step updates, in place, only the pairs whose remainder
    is still nonzero."""
    old_r, r = a.astype(np.int64), b.astype(np.int64)
    old_x, x = np.ones_like(old_r), np.zeros_like(old_r)
    old_y, y = np.zeros_like(old_r), np.ones_like(old_r)
    live = np.flatnonzero(r)
    while len(live):
        q = old_r[live] // r[live]
        for prev, cur in ((old_r, r), (old_x, x), (old_y, y)):
            step = cur[live]
            cur[live] = prev[live] - q * step
            prev[live] = step
        live = live[r[live] != 0]
    sign = np.where(old_r < 0, -1, 1)
    return old_r * sign, old_x * sign, old_y * sign


def _valuations(arr, p):
    """Elementwise p-adic valuation; zero entries get a large sentinel.

    For p = 2 the lowest set bit x & -x is 2^v (the same for x and -x),
    and 2^v - 1 has v bits set.  Odd p divides only the entries still
    divisible, so each pass touches about 1/p of the previous one."""
    arr = np.asarray(arr, dtype=np.int64)
    if p == 2:
        out = np.bitwise_count((arr & -arr) - 1).astype(np.int64)
    else:
        out = np.zeros(arr.shape, dtype=np.int64)
        idx, work = np.flatnonzero(arr), arr[arr != 0]
        while len(idx):
            more = work % p == 0
            idx, work = idx[more], work[more] // p
            out.flat[idx] += 1
    out[arr == 0] = _VAL_INF
    return out


def _content_valuation(cols, p):
    """Elementwise v_p of the gcd of the arrays ``cols``: for p = 2 that
    of their bitwise or, whose lowest set bit is the lowest of theirs."""
    if p == 2:
        return _valuations(functools.reduce(np.bitwise_or, cols), 2)
    return functools.reduce(np.minimum, [_valuations(c, p) for c in cols])


def _isqrt_array(x):
    """Exact elementwise floor(sqrt(x)) of a non-negative int64 array.

    The float square root is off by at most one below 2^62, so a single
    correction step in each direction makes it exact."""
    s = np.sqrt(x.astype(np.float64)).astype(np.int64)
    s += (s + 1) * (s + 1) <= x
    s -= s * s > x
    return s


def _dot(a, b):
    """Row-wise dot products of two (N, n) arrays, one coordinate at a
    time: numpy's sum over a short last axis is several times slower."""
    return sum(a[:, i] * b[:, i] for i in range(a.shape[1]))


def _box_interval(base, step, bound):
    """Exact ends tlo, thi (thi = tlo - 1 where empty) of the t in Z with
    |base + t step| <= bound in every coordinate, base and step yielding
    the k coordinates of N vectors (int64 arrays; no step vector zero),
    bound one or one per vector: the max-norm interval of the SL(2)
    engine and the last-row solver."""
    huge = 1 << 60
    tlo, thi = -huge, huge
    for b, s in zip(base, step):
        move = np.flatnonzero(s)
        sm, bm = np.abs(s[move]), np.where(s[move] < 0, -b[move], b[move])
        lo, hi = np.full(len(b), -huge), np.full(len(b), huge)
        bd = bound[move] if np.ndim(bound) else bound
        lo[move], hi[move] = -((bd + bm) // sm), (bd - bm) // sm
        out = np.flatnonzero((s == 0) & (np.abs(b) > bound))
        lo[out], hi[out] = huge, -huge
        tlo, thi = np.maximum(tlo, lo, out=lo), np.minimum(thi, hi, out=hi)
    return tlo, np.maximum(thi, tlo - 1)


def _quadratic_interval(qa, qb, qc):
    """Exact ends tlo, thi of {t in Z : qa t^2 + 2 qb t + qc <= 0} for
    int64 arrays with qa > 0; thi = tlo - 1 where it is empty: the exact
    interval of the SL(2) engine's Frobenius norm and of the last-row
    solver.  Times qa the inequality reads (qa t + qb)^2 <= disc = qb^2 -
    qa qc, and qa t + qb is an integer, so it holds exactly when |qa t +
    qb| <= isqrt(disc)."""
    disc = qb * qb - qa * qc
    s = _isqrt_array(np.maximum(disc, 0))
    tlo = -np.floor_divide(qb + s, qa)
    return tlo, np.where(disc >= 0, np.floor_divide(s - qb, qa), tlo - 1)


def _ragged_arange(lengths):
    """(index, offset) pairs enumerating range(lengths[i]) for each i."""
    lengths = lengths.astype(np.int64)
    total = int(lengths.sum())
    idx = np.repeat(np.arange(len(lengths)), lengths)
    starts = np.concatenate([[0], np.cumsum(lengths)[:-1]])
    offs = np.arange(total) - starts[idx]
    return idx, offs


def _ragged_layout(start, lengths, stride=1, skip=None, p=None):
    """The one (line, t) layout: the number of ragged pairs in line order,
    and a function laying out the pairs lo <= i < hi (lo < hi <= that
    number), which may begin and end inside a line.  Line r holds the t =
    start[r] + stride o (stride one or one per line) over the offsets 0
    <= o < lengths[r], less, where skip[r] >= 0, the o = skip[r] (mod p).
    It lays out the first-column rows and second columns of the SL(2)
    engine and the last rows of SL(n)."""
    lengths = lengths.copy()
    vanish = np.flatnonzero(skip >= 0) if skip is not None else ()
    if len(vanish):
        lengths[vanish] -= (lengths[vanish] + p - 1 - skip[vanish]) // p
    ends = np.cumsum(lengths)

    def window(lo, hi):  # lines c0..c1 hold the pairs lo..hi-1
        c0, c1 = np.searchsorted(ends, (lo, hi - 1), side="right")
        head = lo - int(ends[c0] - lengths[c0])
        sub = lengths[c0:c1 + 1].copy()
        sub[0] -= head
        sub[-1] -= int(ends[c1]) - hi
        rep, off = _ragged_arange(sub)
        rep += c0
        off[:sub[0]] += head
        if len(vanish):
            # the j-th offset kept sits at j + (j + p - 1 - skip) // (p - 1)
            sel = np.flatnonzero(skip[rep] >= 0)
            j = off[sel]
            off[sel] = j + (j + p - 1 - skip[rep[sel]]) // (p - 1)
        return rep, start[rep] + off * (stride if np.isscalar(stride)
                                        else stride[rep])

    return int(ends[-1]) if len(ends) else 0, window


def _pool_map(fn, args_list, workers):
    """Ordered map over blocks, with a bounded submission window."""
    if workers <= 1 or len(args_list) <= 1:
        for a in args_list:
            yield fn(a)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = []
        it = iter(args_list)
        for a in it:
            pending.append(pool.submit(fn, a))
            if len(pending) >= workers + 2:
                yield pending.pop(0).result()
        while pending:
            yield pending.pop(0).result()


class _CapacityMeter:
    """The running count of one ball against its capacity, charged by the
    count paths (sl2_ladder_totals, ball_count) as they go, so that an
    over-capacity ball fails before its count completes."""

    def __init__(self, limit):
        self.limit = limit
        self.count = 0
        self._lock = threading.Lock()

    def add(self, k):
        with self._lock:
            self.count += int(k)
            if self.count > self.limit:
                raise CapacityError(
                    f"ball exceeds capacity {self.limit} elements")


# ---------------------------------------------------------------------------
# the SL(2) column engine: first column (a, c), second column solved

def _sl2_levels(spec: BallSpec):
    """(det, bound, sq_int, prim_p) per level of an SL(2) ball, checked
    against int64 headroom before anything is enumerated.

    The level-m integer matrices M = p^m gamma have det p^(2m) and
    norm_sq(M) <= norm_sq_cut(p^m t_inf), so entries at most ``bound``,
    its integer square root; ``sq_int`` is that cut under the Frobenius
    norm and None under the max norm; ``prim_p`` drops the M that vanish
    mod p.  An slnz spec with n = 2 is the sl2z ball."""
    p = spec.p or 1
    levels = []
    cuts = _level_cuts(spec._exact_t_inf(), spec.p, spec._exact_t_p())
    for m, cut in enumerate(cuts):
        sq = cut if spec.norm == "frobenius" else None
        levels.append((p ** (2 * m), math.isqrt(cut), sq, p if m else None))
        _check_sl2_headroom(*levels[-1][:3])
    return levels


def _check_sl2_headroom(det, bound, sq_int):
    """Raise CapacityError unless every product of _sl2_det_blocks fits.

    With S >= a^2 + c^2 over the scanned first columns and Bezout
    coefficients |x| <= max(|c/g|, 1), |y| <= max(|a/g|, 1), the largest
    intermediates are the shift numerator |(a/g) b0| + |(c/g) d0| <= 2 S
    det (the shifted b0, d0 stay below three times that) and, under the
    Frobenius norm, the products of _quadratic_interval(q, rr, |b0, d0|^2
    - rem), with q = (a^2 + c^2)/g^2 <= S and |rr| <= q/2 after the
    shift: rr^2 <= S^2/4 and q (|b0, d0|^2 - rem), where q |b0, d0|^2 =
    rr^2 + (det/g)^2 <= S^2/4 + det^2 (Lagrange's identity) and 0 < q
    rem <= S^2/4, so each lies within 2^63 while S^2/4 and det^2 are below
    2^62.  Their difference, the discriminant q rem - (det/g)^2, is below
    2^62, where _isqrt_array is exact.  The checked terms, 2 S det, S^2/4
    and det^2, stay below 2^62."""
    frob = sq_int is not None
    span = sq_int if frob else 2 * bound * bound
    worst = 2 * span * det
    if frob:
        worst = max(worst, span * span // 4, det * det)
    if worst >= _INT_HEADROOM:
        raise CapacityError(
            f"radius out of the supported int64 range: det {_magnitude(det)} "
            f"at radius {_magnitude(bound)} needs products up to "
            f"2^{math.log2(worst):.1f} >= 2^62")


def _magnitude(x: int) -> str:
    """x in full below 2^64, else as a power of two to one decimal."""
    return str(x) if x < 1 << 64 else f"2^{math.log2(x):.1f}"


def _sl2_columns(a, c, det, bound, sq_int, prim_p=None, major=None):
    """Second columns of the first columns (a, c), gcd(a, c) | det.

    Returns (b0, d0, step_a, step_c, tlo, thi, skip): the matrices
    [[a, b0 + t step_a], [c, d0 + t step_c]], tlo <= t <= thi, are
    exactly those of det ``det`` in the ball.  Frobenius: with q =
    step_a^2 + step_c^2 and rr = step_a b0 + step_c d0, the norm bound is
    q t^2 + 2 rr t + |b0, d0|^2 - rem <= 0 (_quadratic_interval).  Max
    norm: _box_interval.

    ``major`` (a strip's major coordinate, 0 or 1) keeps only the second
    columns x with |x|^2 < q1 = a^2 + c^2, or |x|^2 = q1 and x in the
    half-plane major > 0, or major = 0 < minor.  Frobenius caps rem at
    q1.  The max norm cuts the box interval to the disk |x|^2 <= q1:
    about t = -rr/q, of half-width sqrt(g^2 - (det/g/q)^2) < g, rounded
    in float, each end then moved by one where the exact |x|^2 says so
    (q q1 may pass 2^62; |x|^2 next to the disk stays below 10 q1).
    |x(t)|^2 is strictly convex in t, so an x on the circle |x|^2 = q1
    is an end of its interval: only the two ends are checked.

    ``skip`` is -1, or where the matrices of a column vanish mod prim_p,
    the residue (t - tlo) mod p of exactly those t.  They occur only when
    p | a, p | c and p | det/g, and then t* = -(x b0 + y d0), with x a +
    y c = g, is one of them: b0 + t* step_a = -y det/g and d0 + t*
    step_c = x det/g.  For any other t mod p, step_a or step_c (coprime)
    moves b or d off 0 mod p."""
    g, x, y = _xgcd_arrays(a, c)
    scale = det // g
    b0, d0 = -y * scale, x * scale
    step_a, step_c = a // g, c // g
    q = step_a * step_a + step_c * step_c
    shift = np.rint(-(step_a * b0 + step_c * d0) / q).astype(np.int64)
    b0 += shift * step_a
    d0 += shift * step_c
    rr = step_a * b0 + step_c * d0
    q1 = a * a + c * c

    def col2(t):
        return b0 + t * step_a, d0 + t * step_c

    def inside(t):  # |x(t)|^2 <= q1
        b, d = col2(t)
        return b * b + d * d <= q1

    if sq_int is not None:
        rem = sq_int - q1
        if major is not None:
            rem = np.minimum(rem, q1)
        tlo, thi = _quadratic_interval(q, rr, b0 * b0 + d0 * d0 - rem)
    else:
        tlo, thi = _box_interval((b0, d0), (step_a, step_c), bound)
        if major is not None:
            center = -rr / q
            half = np.sqrt(np.maximum(g * g - (scale / q) ** 2, 0.0))
            lo = np.ceil(center - half).astype(np.int64)
            hi = np.floor(center + half).astype(np.int64)
            lo = np.where(inside(lo - 1), lo - 1, lo + ~inside(lo))
            hi = np.where(inside(hi + 1), hi + 1, hi - ~inside(hi))
            # the disk is empty exactly when g q < det/g
            tlo = np.maximum(tlo, lo)
            thi = np.where(g * q >= scale, np.minimum(thi, hi), tlo - 1)
    if major is not None:
        nonempty = tlo <= thi
        for end, inward in ((tlo, 1), (thi, -1)):
            b, d = col2(end)
            u, v = (b, d) if major == 0 else (d, b)
            end += inward * (nonempty & (b * b + d * d == q1)
                             & ((u < 0) | ((u == 0) & (v < 0))))
    skip = np.full(len(a), -1, dtype=np.int64)
    if prim_p:
        p = prim_p
        vanish = np.flatnonzero((a % p == 0) & (c % p == 0) & (scale % p == 0))
        t_star = -((x[vanish] % p) * (b0[vanish] % p)
                   + (y[vanish] % p) * (d0[vanish] % p))
        skip[vanish] = (t_star - tlo[vanish]) % p
    return b0, d0, step_a, step_c, tlo, thi, skip


def _sl2_assemble(a, c, b0, d0, step_a, step_c, rep, tt, det, bound, sq_int,
                  prim_p):
    """The matrices [[a, b0 + t step_a], [c, d0 + t step_c]] of the
    columns ``rep`` at ``tt``, each row checked to lie in the ball, to
    have det ``det`` and, with prim_p, not to vanish mod p."""
    aa, cc = a[rep], c[rep]
    bb = b0[rep] + tt * step_a[rep]
    dd = d0[rep] + tt * step_c[rep]
    if sq_int is not None:
        inside = aa * aa + bb * bb + cc * cc + dd * dd <= sq_int
    else:
        inside = (np.abs(bb) <= bound) & (np.abs(dd) <= bound)
    if not inside.all():
        raise InvariantError("sl2 engine built a matrix outside the ball")
    if not np.all(aa * dd - bb * cc == det):
        raise InvariantError(f"sl2 engine built a matrix of det != {det}")
    if prim_p:
        on_p = np.flatnonzero(((a % prim_p == 0) & (c % prim_p == 0))[rep])
        if np.any((bb[on_p] % prim_p == 0) & (dd[on_p] % prim_p == 0)):
            raise InvariantError(
                f"sl2 engine built a matrix that vanishes mod {prim_p}")
    out = np.empty((len(rep), 2, 2), dtype=np.int64)
    out[:, 0, 0], out[:, 0, 1] = aa, bb
    out[:, 1, 0], out[:, 1, 1] = cc, dd
    return out


def _sl2_det_blocks(det, bound, sq_int, prim_p, workers, strip=None):
    """Chunks of integer matrices N = [[a,b],[c,d]], det N = det; the one
    SL(2) engine, for the whole ball and for test strips.

    ``bound``: max entry modulus allowed (max norm) and the column search
    radius.  ``sq_int``: floor of the squared Frobenius radius (None for
    max norm).  ``prim_p``: leave out matrices that vanish mod p (levels
    >= 1 of SL(2,Z[1/p])).  First columns run over the disk a^2 + c^2 <=
    sq_int - 1 or the max-norm square |a|, |c| <= bound in rows of the
    major coordinate, each a progression (first, count, step) of the minor
    one, in blocks of _SL2_BLOCK_PAIRS pairs laid out as the second
    columns are, by _ragged_layout: at most 2 bound + 1 rows, of the
    order of the square root of the ball's count, which the callers check
    against the capacity first.  Without a strip a is major and c runs
    with step 1: the sl2z order.
    Only the matrices that belong to the ball are built: the exact
    t-intervals of _sl2_columns without their residue class mod p that
    vanishes.  Every row is checked all the same (in the ball, det,
    nonzero mod p).

    ``strip = (vec, width, nums, p, k)`` keeps a superset of the N whose
    columns x have |x . vec| <= width and x . nums = 0 (mod p^k): the
    minor coordinate is the one of the larger |vec_j|, and each row, a
    line of unit step in the minor coordinate, and each t-interval is cut
    to its widened float strip interval and its congruence progression
    by the one call _strip_progressions.  All of these are
    invariant under the quarter turn N -> N J^T, which maps the columns
    (x1, x2) to (-x2, x1), so the strip keeps one N of each orbit {N J^k}:
    the first column in the half-plane H, major > 0 or major = 0 < minor,
    and the second column x2 with |x2|^2 < |x1|^2, or |x2|^2 = |x1|^2 and
    x2 in H (_sl2_columns caps each t-interval exactly).  Its chunks, of
    _STRIP_CHUNK_ELEMS, are built as they are taken."""
    if sq_int == 0:
        return
    j = 1  # the minor coordinate of the first column
    amax = bound if sq_int is None else math.isqrt(sq_int - 1)
    major = np.arange(-amax if strip is None else 0, amax + 1, dtype=np.int64)
    half = (np.full(len(major), bound) if sq_int is None
            else _isqrt_array(sq_int - 1 - major * major))
    rows = -half, 2 * half + 1
    if strip is not None:
        j = int(abs(strip[0][1]) > abs(strip[0][0]))
        # the row is the line (a, c) = base + t unit, t its minor
        # coordinate, from 1 in the row major = 0
        rows = _strip_progressions(
            strip, j * major, (1 - j) * major, np.full_like(major, 1 - j),
            np.full_like(major, j), np.where(major, -half, 1), half)
    npairs, rows = _ragged_layout(*rows)

    def run(lo):
        row, y = rows(lo, min(lo + _SL2_BLOCK_PAIRS, npairs))
        x = major[row]
        a, c = (x, y) if j else (y, x)
        g = np.gcd(a, c)
        keep = (g > 0) & (det % np.where(g > 0, g, 1) == 0)
        a, c = a[keep], c[keep]
        b0, d0, step_a, step_c, tlo, thi, skip = _sl2_columns(
            a, c, det, bound, sq_int, prim_p,
            None if strip is None else 1 - j)
        cols = ((tlo, thi - tlo + 1, 1, skip, prim_p) if strip is None else
                _strip_progressions(strip, b0, d0, step_a, step_c, tlo, thi))
        work, window = _ragged_layout(*cols)
        if work > _SL2_BLOCK_WORK:
            raise CapacityError(
                f"work guard: one block of first columns would build {work} "
                f"matrices, over the limit {_SL2_BLOCK_WORK}")
        size = _STRIP_CHUNK_ELEMS if strip else _SL2_CHUNK_ELEMS
        chunks = (_sl2_assemble(a, c, b0, d0, step_a, step_c,
                                *window(lo, min(lo + size, work)), det, bound,
                                sq_int, prim_p)
                  for lo in range(0, work, size))
        return chunks if strip else list(chunks)

    for chunks in _pool_map(run, range(0, npairs, _SL2_BLOCK_PAIRS), workers):
        yield from chunks


def iter_sl2_zinvp_chunks(spec: BallSpec, workers=None):
    """Yield (levels, mats) chunks; the group element is p^-level * mat.

    Levels ascend; within a level the integer matrices come in the sl2z
    order.  Level 0 requires t_p >= 1 (p-adic norm of an
    integer SL(2) matrix is exactly 1); level m contributes when
    p^m <= t_p, with the archimedean bound scaled to p^m * t_inf.  An
    sl2z spec is level 0 alone.  A radius past the int64 headroom raises
    CapacityError when called; the first next() counts the ball exactly
    (ball_count, the elements of all levels) and raises CapacityError
    over the capacity before any matrix is built."""
    levels = _sl2_levels(spec)
    workers = resolve_workers(workers)

    def stream():
        ball_count(spec, workers)
        for m, (det, bound, sq, prim) in enumerate(levels):
            for block in _sl2_det_blocks(det, bound, sq, prim, workers):
                yield np.full(len(block), m, dtype=np.int64), block

    return stream()


def enum_sl2z(spec: BallSpec, workers=None) -> np.ndarray:
    return enum_sl2_zinvp(spec, workers)[1]


def enum_sl2_zinvp(spec: BallSpec, workers=None):
    """(levels, mats) arrays for the SL(2,Z[1/p]) ball."""
    return _concat_chunks(iter_sl2_zinvp_chunks(spec, workers), 2)


def _concat_chunks(chunks, n):
    """A stream of (levels, mats) chunks of n x n matrices as two arrays."""
    levels, mats = [np.empty(0, np.int64)], [np.empty((0, n, n), np.int64)]
    for lev, blk in chunks:
        levels.append(lev)
        mats.append(blk)
    return np.concatenate(levels), np.concatenate(mats)


# ---------------------------------------------------------------------------
# SL(2) ladders: rung totals without building a matrix, and test strips

# table entries per block of the two-squares passes; bounds their
# temporaries
_R2_BLOCK = 1 << 16
# first-column pairs per block of the max-norm count
_MAX_COL_BLOCK = 1 << 17


def _row_bincount(start, lengths, const, f, size):
    """Bincount into ``size`` bins of f(x) + const[r] over the integers x
    in [start[r], start[r] + lengths[r]) of each row r, for an increasing
    f whose value just past each row is at least size.

    The rows are laid out as one rectangle as wide as the widest row,
    whose cells past a row's end are clipped into one extra bin.  Where
    that rectangle would hold over 3/2 the points, each row is cut into
    pieces as wide as the mean row, which leaves at most twice the points
    plus one cell per row."""
    width = int(lengths.max(initial=0))
    total = int(lengths.sum())
    if 2 * len(lengths) * width > 3 * total:
        width = -(-total // len(lengths))
        rep, off = _ragged_arange(-(-lengths // width))
        start, const = start[rep] + off * width, const[rep]
    x = f(start[:, None] + np.arange(width))
    x += const[:, None]
    np.minimum(x, size, out=x)
    return np.bincount(x.ravel(), minlength=size + 1)[:-1]


def _r2_range(lo, hi):
    """r2(n) = #{(u, w) in Z^2 : u^2 + w^2 = n} for lo <= n < hi.

    The eight signed swaps act on Z^2 - 0 with one point u > w >= 1 in
    each free orbit; the orbits of (u, 0) and (u, u) have four points.
    The points u > w >= 1 of the annulus lo <= n < hi lie row by row
    between two integer square roots (_row_bincount); r2(0) = 1."""
    if hi <= lo:
        return np.zeros(0, dtype=np.int64)
    w = np.arange(1, math.isqrt((hi - 1) // 2) + 1, dtype=np.int64)
    w2 = w * w
    ulo = np.maximum(w + 1, _isqrt_array(np.maximum(lo - 1 - w2, 0)) + 1)
    uhi = _isqrt_array(hi - 1 - w2)  # >= w as 2 w^2 <= hi - 1
    out = 8 * _row_bincount(ulo, uhi - ulo + 1, w2 - lo, np.square, hi - lo)
    if lo == 0:
        out[0] = 1
    for mult in (1, 2):  # the axis points u^2, then the diagonal 2 u^2
        u = np.arange(math.isqrt(max(lo - 1, 0) // mult) + 1,
                      math.isqrt((hi - 1) // mult) + 1, dtype=np.int64)
        out[mult * u * u - lo] += 4
    return out


def _pronic_floor(x):
    """Largest a >= 0 with a (a + 1) <= x, elementwise (x >= 0): 2a + 1
    <= sqrt(4x + 1)."""
    return (_isqrt_array(4 * x + 1) - 1) // 2


def _r2_1mod4_range(lo, hi):
    """r2(4i + 1) for lo <= i < hi.

    A point of u^2 + w^2 = 4i + 1 has one odd and one even coordinate,
    and the swap pairs those with u odd off against those with w odd.
    The four sign changes act freely on the points u odd >= 1, w even
    >= 2, so r2(4i + 1) = 8 #{such points} + 4 [4i + 1 is a square].
    With u = 2a + 1 and w = 2b, 4i + 1 = u^2 + w^2 reads i = a (a + 1)
    + b^2: the points a >= 0, b >= 1 of lo <= i < hi lie row by row in b
    between two bounds of a (_row_bincount), half as many per unit of n
    as the points u > w >= 1 of _r2_range."""
    if hi <= lo:
        return np.zeros(0, dtype=np.int64)
    b = np.arange(1, math.isqrt(hi - 1) + 1, dtype=np.int64)
    b2 = b * b
    below = lo - 1 - b2
    alo = np.where(below >= 0, _pronic_floor(np.maximum(below, 0)) + 1, 0)
    ahi = _pronic_floor(hi - 1 - b2)
    out = 8 * _row_bincount(alo, ahi - alo + 1, b2 - lo,
                            lambda a: a * (a + 1), hi - lo)
    u = np.arange((math.isqrt(4 * lo) + 1) | 1, math.isqrt(4 * hi - 3) + 1, 2,
                  dtype=np.int64)
    out[u * u // 4 - lo] += 4  # the odd squares u^2 = 4i + 1, w = 0
    return out


def _pair_sums(table, terms, meters):
    """For each term (shift, ends, k, div): the sums over 0 <= i <= end
    of table(i) table(i + shift) divided by div (which divides each of
    them), at each end of the ascending ``ends``; 0 at an end below 0.

    One pass over i, in blocks of _R2_BLOCK so that memory does not grow
    with the ends, serves every term: a block builds the table once, up
    to the largest shift that fits in a block, and each term reads its
    two slices from it (a term of a larger shift builds its shifted
    slice apart).  The segments between consecutive ends are summed by
    dot products, each at most a level's count, far below 2^63 under the
    headroom guard (_check_sl2_headroom).  ``meters[k]`` is charged with
    each of its terms' running sums, block by block."""
    top = max([ends[-1] for _, ends, *_ in terms if ends], default=-1)
    reach = max([s for s, *_ in terms if s <= _R2_BLOCK], default=0)
    out = [[0] * sum(e < 0 for e in ends) for _, ends, *_ in terms]
    running = [0] * len(terms)
    for i0 in range(0, top + 1, _R2_BLOCK):
        i1 = min(i0 + _R2_BLOCK, top + 1)
        near = table(i0, i1 + reach)
        for t, (s, ends, k, div) in enumerate(terms):
            if not ends or ends[-1] < i0:
                continue
            n, before = min(i1, ends[-1] + 1) - i0, running[t]
            far = near[s:] if s <= _R2_BLOCK else table(i0 + s, i0 + n + s)
            his = [e - i0 + 1 for e in ends if i0 <= e < i0 + n]
            for lo, hi in zip([0] + his, his + [n]):
                running[t] += int(np.dot(near[lo:hi], far[lo:hi]))
                out[t].append(running[t] // div)
            out[t].pop()  # the sum at the block's end, not at an end
            meters[k].add((running[t] - before) // div)
    return out


def _det_norm_counts(dets, cutsets, meters):
    """For each det k and each X of the ascending ``cutsets[k]``, the
    number of integer 2x2 M with det M = dets[k] >= 1 and norm_sq(M) <= X.

    With u = a+d, v = a-d, w = b-c, z = b+c, P = u^2 + w^2 and Q = v^2 +
    z^2, 4 det M = P - Q and 2 norm_sq(M) = P + Q, and (u, v, w, z) comes
    from an integral M exactly when u = v and w = z (mod 2).  For even Q
    those parities follow from P = Q (mod 4); for odd Q half of the pairs
    keep them.  So with D = det and Y = X - 2D the count is the sum over
    0 <= Q <= Y of r2(Q) r2(Q + 4D), halved for odd Q (Jacobi's
    two-square theorem gives r2).

    Split that sum by v2(Q), with r2(2n) = r2(n) and r2(n) = 0 for n = 3
    (mod 4); put 4D = 2^e s, s odd.  The odd Q count only at Q = 1 (mod
    4), where Q + 4D = 1 (mod 4) too; the even Q = 2Q' give the sum over
    Q' <= Y/2 of r2(Q') r2(Q' + 4D/2), and so on.  While the shift 4D/2^j
    is 0 mod 4 its odd Q' again count at 1 (mod 4) only; at j = e - 1,
    shift 2 mod 4, every odd Q' vanishes; at j = e the shift s is odd and
    every q counts.  So the count is

        1/2 sum_{Q <= Y, Q = 1 (4)} r2(Q) r2(Q + 4D)
        + sum_{j=1..e-2} sum_{Q <= Y/2^j, Q = 1 (4)} r2(Q) r2(Q + 4D/2^j)
        + sum_{q <= Y/2^e} r2(q) r2(q + s).

    With Q = 4i + 1 the first two lines pair entries i and i + D/2^j of
    the table r2(4i + 1) (_r2_1mod4_range), j = 0..v2(D), over i <=
    (floor(Y/2^j) - 1)/4; the tail pairs r2 itself (_r2_range) over at
    most a quarter of the range, e >= 2.  One pass over the table serves
    every det and every j, and one pass over r2 every det's tail
    (_pair_sums).  Each j = 0 term is a multiple of 16 (4 | r2(n) for n
    >= 1), so halving is exact.  ``meters[k]`` is charged with det k's
    running sums, a lower bound on its largest X's count, block by block
    and table first."""
    heads, tails = [], []
    for k, (det, cuts) in enumerate(zip(dets, cutsets)):
        ys = [x - 2 * det for x in cuts]
        v = (det & -det).bit_length() - 1
        heads += [(det >> j, [((y >> j) - 1) // 4 for y in ys], k,
                   2 if j == 0 else 1) for j in range(v + 1)]
        tails.append((det >> v, [y >> v + 2 for y in ys], k, 1))
    sums = (_pair_sums(_r2_1mod4_range, heads, meters)
            + _pair_sums(_r2_range, tails, meters))
    out = [[0] * len(cuts) for cuts in cutsets]
    for (*_, k, _), got in zip(heads + tails, sums):
        out[k] = [a + b for a, b in zip(out[k], got)]
    return out


def _det_max_counts(det, cuts, meter, workers):
    """_det_norm_counts under the max norm (entries at most isqrt(X)).

    M -> P M diag(1, det P), P a signed permutation, keeps det and the
    largest entry, so a first column 0 <= c <= a, gcd(a, c) | det, stands
    for its orbit of (4 << (c > 0)) >> (a == c) columns; its matrices are
    the t of its max-norm interval (_sl2_columns).  Blocks of a run on
    ``workers`` threads, charging ``meter`` with the largest X's count."""
    bounds = [math.isqrt(x) for x in cuts]
    top = max(bounds, default=0)
    width = max(1, _MAX_COL_BLOCK // (top + 1))

    def run(a0):
        a, c = _ragged_arange(np.arange(a0, min(a0 + width, top + 1)) + 1)
        a += a0
        keep = det % np.gcd(a, c) == 0
        a, c = a[keep], c[keep]
        weight = (4 << (c > 0)) >> (a == c)
        counts = []
        for bound in bounds:
            on = a <= bound
            *_, tlo, thi, _ = _sl2_columns(a[on], c[on], det, bound, None)
            counts.append(int(((thi - tlo + 1) * weight[on]).sum()))
        meter.add(max(counts))
        return counts

    blocks = _pool_map(run, range(1, top + 1, width), workers)
    return [sum(col) for col in zip([0] * len(cuts), *blocks)]


def sl2_ladder_totals(spec: BallSpec, cuts, workers=None) -> list:
    """Elements of each rung of an SL(2,Z) or SL(2,Z[1/p]) ladder whose
    top rung is ``spec``'s ball, counted without building one: from sums
    of two squares (Frobenius) or column intervals (max, on ``workers``).

    ``cuts[i][m]`` is the norm_sq cut of the level-m matrices M at rung i
    (-1 where the level is excluded).  With L its top level, rung i holds
    exactly the integer M_L of det p^(2L) and norm_sq(M_L) <= cuts[i][L]
    under either norm: an element p^-m M of level m <= L is M_L = p^(L-m)
    M, and floor(cut_L / p^(2(L-m))) is the level-m cut.  So one
    _det_norm_counts pass (one _det_max_counts per det under the max
    norm) counts the rungs' top (det, cut) pairs.  The spec's int64
    headroom is checked first, and a top rung over its capacity raises
    CapacityError as soon as a running count passes the capacity (every
    rung lies in the top one)."""
    _sl2_levels(spec)
    p = spec.p or 1
    rungs = [[x for x in row if x >= 0]
             for row in np.asarray(cuts, dtype=np.int64).tolist()]
    tops = [(p ** (2 * len(r) - 2), r[-1]) if r else None for r in rungs]
    dets = sorted({t[0] for t in tops if t})
    xss = [sorted({t[1] for t in tops if t and t[0] == det}) for det in dets]
    meters = [_CapacityMeter(spec.capacity) for _ in dets]
    counts = (_det_norm_counts(dets, xss, meters) if spec.norm == "frobenius"
              else [_det_max_counts(*args, resolve_workers(workers))
                    for args in zip(dets, xss, meters)])
    here = {(det, x): got for det, xs, cs in zip(dets, xss, counts)
            for x, got in zip(xs, cs)}
    return [here[t] if t else 0 for t in tops]


def _linear_classes(coef, rhs, p, k):
    """Solutions t of coef t = rhs (mod p^k), per entry of the int64
    arrays coef and rhs: (ok, r, step) with t = r (mod step) where ok,
    and no solution elsewhere; k = 0 gives every t.  The unit part u of
    coef is inverted as u^(p-2) mod p lifted by Newton steps inv (2 - u
    inv), products below 2^60 while p^k < 2^30."""
    mod = p**k
    c, rhs = coef % mod, rhs % mod
    pf = np.power(p, np.minimum(_valuations(c, p), k))
    step = mod // pf
    u, inv = c // pf % step, np.ones_like(c)
    for bit in f"{p - 2:b}" if k and p > 2 else "":
        inv = inv * inv % p * (u if bit == "1" else 1) % p
    for _ in range(k.bit_length()):
        inv = inv * ((2 - u * inv) % step) % step
    r = (rhs // pf) % step * inv % step
    return rhs % pf == 0, r, step


def _strip_progressions(strip, b0, d0, step_a, step_c, tlo, thi):
    """The one strip cut: (first t, count, stride) per line of columns
    (b0 + t step_a, d0 + t step_c), the rows of first columns or the
    second columns, of the t in the exact interval tlo <= t <= thi and in
    the strip (vec, width, nums, p, k).  |col . vec| <= width is solved
    in float and widened by one step on each side; an end past the float
    range (slope tiny against width, as from a tiny vector entry) clips
    to [tlo, thi], a superset, which loses no element, and a line with
    col . vec constant keeps its whole interval exactly when the constant
    lies in the strip.  In it, t runs over the progression of col . nums
    = 0 (mod p^k) (_linear_classes)."""
    vec, width, nums, p, k = strip
    mod = p**k
    # the column . vec = offset + t slope
    offset = b0 * vec[0] + d0 * vec[1]
    slope = step_a * vec[0] + step_c * vec[1]
    flat = slope == 0
    slope[flat] = 1.0
    with np.errstate(over="ignore"):
        e1, e2 = (-width - offset) / slope, (width - offset) / slope
    low = np.clip(np.minimum(e1, e2), tlo - 2, thi + 2)
    high = np.clip(np.maximum(e1, e2), tlo - 2, thi + 2)
    t0 = np.where(flat, tlo,
                  np.maximum(tlo, np.ceil(low).astype(np.int64) - 1))
    t1 = np.where(flat, np.where(np.abs(offset) > width, tlo - 1, thi),
                  np.minimum(thi, np.floor(high).astype(np.int64) + 1))
    ok, r, tstep = _linear_classes(
        step_a % mod * nums[0] + step_c % mod * nums[1],
        -(b0 % mod * nums[0] + d0 % mod * nums[1]), p, k)
    first = t0 + (r - t0) % tstep
    count = np.where(ok & (t1 >= first), (t1 - first) // tstep + 1, 0)
    return first, count, tstep


def iter_sl2_strip_chunks(spec: BallSpec, vec, radius, congruence=None,
                          workers=None):
    """Yield (levels, mats) chunks of the elements gamma = p^-m M of an
    SL(2) ball whose orbit point gamma.vec may lie in the disk of
    ``radius`` (math.inf: the whole ball), one of each quarter-turn orbit
    {gamma, J gamma, -gamma, -J gamma}, J = [[0, -1], [1, 0]] (the ball,
    the levels, the strip and the congruence are invariant under gamma ->
    J gamma, which maps the rows (r1, r2) to (-r2, r1)): with their
    images, a superset of those whose vectorized float |gamma vec| is at
    most ``radius``.  The one kept has its first row in the half-plane H
    (major > 0, or major = 0 < minor, the major coordinate that of the
    smaller |vec_j|) and |r2|^2 < |r1|^2, or |r2|^2 = |r1|^2 and r2 in H.

    Both rows of M then satisfy |row . vec| <= p^m R', R' being
    ``radius`` widened by a relative and an absolute margin far above
    the rounding of the float orbit point and of the float intervals of
    the strip.  The elements of levels m <= L, the top one, are the M_L =
    p^(L-m) M of det p^(2L) and norm_sq(M_L) <= cut_L, of content p^(L-m),
    so one pass of _sl2_det_blocks runs on M_L^T with the strip |row .
    vec| <= p^L R' (transposition keeps det and the norm) and divides
    each M_L by its content, which gives its level.

    ``congruence = (nums, k0)`` also keeps only the M with M nums = 0
    (mod p^k), k = max(0, m + k0), on both rows: M_L nums = 0 (mod
    p^(L+k0)).  Chunks mix the levels, in a fixed order that is not the
    sl2z order.  The int64 headroom is checked when called, and so are
    the rows 0 <= a <= bound of a max-norm strip: no more than the 2^16
    of the largest Frobenius disk (CapacityError).  Capacity is not
    checked here: run_experiment counts the ball (sl2_ladder_totals)
    before it takes a strip."""
    levels = _sl2_levels(spec)
    if spec.norm == "max" and entry_bound(spec) >= 1 << 16:
        raise CapacityError("max-norm strip: over 2^16 rows of first columns")
    if not levels:
        return iter(())
    # one power of two takes the largest |vec_j| below 2 and radius with
    # it, an exact scaling of the strip (bar the rounding of a subnormal
    # entry, far below the absolute margin), so no product of it overflows
    shift = max(math.frexp(max(map(abs, vec)))[1] - 1, 0)
    vec, radius = np.ldexp(vec, -shift), math.ldexp(radius, -shift)
    p, top = spec.p or 1, len(levels) - 1
    det, bound, sq, _ = levels[top]
    # every row entry, every (b0, d0) with a nonempty t interval and every
    # t (step_a, step_c) in it is at most 4 sqrt(cut) (max norm: cut 2
    # bound^2), so the rounding of the float orbit point and of offset + t
    # slope stays far below the absolute margin
    eps, cut = 2.0**-40, 2 * bound**2 if sq is None else sq
    width = p**top * float(radius) * (1 + eps) \
        + eps * (4 * math.sqrt(cut) + 1) * (abs(vec[0]) + abs(vec[1]))
    k = max(0, top + congruence[1]) if congruence else 0
    while p**k >= 1 << 30:
        k -= 1
    nums = np.asarray(congruence[0] if congruence else (0, 0),
                      dtype=np.int64) % p**k

    def split(mats):  # M_L^T -> (levels, M), M contiguous for the masks
        mats = np.ascontiguousarray(mats.transpose(0, 2, 1))
        j = 0
        if top:
            j = _content_valuation(mats.reshape(-1, 4).T, p)
            if p == 2:
                mats >>= j[:, None, None]
            else:
                mats //= np.power(p, j)[:, None, None]
        return np.full(len(mats), top) - j, mats

    return map(split, _sl2_det_blocks(det, bound, sq, None,
                                      resolve_workers(workers),
                                      (vec, width, nums, p, k)))


# ---------------------------------------------------------------------------
# SL(n,Z): enumerate the first n-1 rows, solve the last by cofactors

def _row_table(n, bound, sq_int, norm):
    """All candidate rows, lex sorted, a stable size-sorted view, sizes."""
    if (2 * bound + 1) ** n > _ROW_BUDGET:
        raise CapacityError("slnz row table out of the supported range")
    rng = np.arange(-bound, bound + 1, dtype=np.int64)
    grids = np.meshgrid(*([rng] * n), indexing="ij")
    rows = np.stack([g.ravel() for g in grids], axis=1)
    keys = norm_sq(rows[:, None], norm)
    keep = keys > 0
    if norm == "frobenius":
        keep &= keys <= sq_int - (n - 1)
    rows, keys = rows[keep], keys[keep]
    order = np.argsort(keys, kind="stable")
    return rows, rows[order], keys[order]


def _orbit_rows(n, limit, cap):
    """Rows cap >= r0 >= r1 >= ... >= r(n-1) >= 0, r != 0, |r|^2 <= limit,
    lex sorted, with their orbit sizes under signed permutations.

    These rows form a fundamental domain of the signed permutations on
    the integer rows; the orbit of r has 2^#nonzero * n!/prod(mult!)
    elements, mult running over the multiplicities of r's entries.  Built
    one coordinate at a time, never through the full (2b+1)^n table."""
    rows = np.zeros((1, 0), dtype=np.int64)
    rem = np.array([max(limit, 0)], dtype=np.int64)
    prev = np.array([cap])  # each entry is capped by the one before
    for _ in range(n):
        rep, val = _ragged_arange(np.minimum(prev, _isqrt_array(rem)) + 1)
        rows = np.concatenate([rows[rep], val[:, None]], axis=1)
        rem = rem[rep] - val * val
        prev = val
    rows = rows[rows[:, 0] > 0]
    sizes = (math.factorial(n) << (rows > 0).sum(axis=1)) // _runs(rows.T)[0]
    return rows, sizes


def _runs(cols):
    """(product of run factorials, last run) along ``cols``, per row."""
    run = np.ones(len(cols[0]), dtype=np.int64)
    stabilizer = run.copy()
    for prev, cur in zip(cols, cols[1:]):
        run = np.where(cur == prev, run + 1, 1)
        stabilizer *= run
    return stabilizer, run


def _pack_rows(rows):
    """Row -> single int64 key preserving lex order (entries < 2^15)."""
    key = np.zeros(len(rows), dtype=np.int64)
    for j in range(rows.shape[1]):
        key = (key << 16) | (rows[:, j] + (1 << 15))
    return key


def _det(g):
    """Determinant of a square nested list of arrays, by cofactors."""
    if len(g) < 2:
        return g[0][0] if g else 1
    return sum((-1) ** j * g[0][j] * _det([row[:j] + row[j + 1:]
                                           for row in g[1:]])
               for j in range(len(g)))


def _adjugate(g):
    """Adjugate of a square nested list of arrays."""
    r = range(len(g))
    return [[(-1) ** (a + b) * _det([row[:a] + row[a + 1:]
                                     for i, row in enumerate(g) if i != b])
             for b in r] for a in r]


def _cofactor_vector(prefix):
    """Signed minors m with det(prefix stacked over x) = m . x."""
    k, n = prefix.shape[1:]
    rows = [[prefix[:, i, j] for j in range(n)] for i in range(k)]
    return np.stack([(-1) ** (k + j) * _det([r[:j] + r[j + 1:] for r in rows])
                     for j in range(n)], axis=1)


def _particular_solution(m):
    """Integer x0 with m . x0 = 1, assuming gcd of each row of m is 1."""
    n = m.shape[1]
    g = m[:, 0].copy()
    coeffs = [np.ones(len(m), dtype=np.int64)]
    for j in range(1, n):
        g2, s, t = _xgcd_arrays(g, m[:, j])
        for i in range(j):
            coeffs[i] = coeffs[i] * s
        coeffs.append(t)
        g = g2
    if not np.all(g == 1):
        raise InvariantError("cofactor vector with gcd != 1 reached the solver")
    return np.stack(coeffs, axis=1)


def _size_reduce_basis(ws):
    """Cheap pairwise Lagrange sweeps on a (N, k, n) batch of bases.

    A shorter, more orthogonal basis gives shorter line ranges and
    smaller intermediates in _last_row_lines, which checks its int64
    headroom itself; the rows found never depend on the basis."""
    ws = ws.copy()
    k = ws.shape[1]
    for _ in range(64):
        changed = False
        for i in range(k):
            for j in range(k):
                if i == j:
                    continue
                mu = np.rint(_dot(ws[:, j], ws[:, i])
                             / _dot(ws[:, i], ws[:, i])).astype(np.int64)
                if mu.any():
                    ws[:, j] -= mu[:, None] * ws[:, i]
                    changed = True
        if not changed:
            break
    return ws


def _last_row_lines(prefix, budget, limit, bound=None, slack=None):
    """The one last-row solver of SL(n): the rows x with det(prefix
    stacked over x) = 1, |x|^2 <= budget and |x_i| <= bound (max norm;
    one bound or one per prefix), for an (N, k, n) batch of prefixes (the
    first k = n-1 rows), as lines with exact intervals.

    Returns (keep, m, ws, x0), (rep, ys, tlo, thi) and a list that, given
    a ``slack`` per prefix, holds the ends of a second interval on the
    same lines: budget, or bound, less the slack.  A prefix keeps
    when its cofactor vector m has gcd 1 and its budget is at least 1;
    its rows, m . x = 1, are x0 + y . ws, y in Z^k, ws the size-reduced
    prefix (it spans the kernel lattice: its Gram determinant is |m|^2)
    and x0 a particular solution less the lattice point of its rounded
    coordinates.  Line i belongs to kept prefix rep[i], fixes y_j =
    ys[j][i] for j < k-1 and holds x0 + sum_j ys[j] ws_j + t ws_(k-1),
    tlo[i] <= t <= thi[i].

    With G the Gram matrix of ws the ball is y G y + 2 h . y + c <= 0, h
    = ws x0, c = |x0|^2 - budget.  Each y_j, j < k-1, runs in turn over
    the float projection onto y_j of the section fixing the earlier
    ones, widened by _LINE_MARGIN; h and c of a section are exact
    integers, updated from 1-D columns.  With H = G[j:, j:], A = adj H
    and d = det H the projection has center -(A h)_0 / d and half-width
    sqrt(q A_00) / d, q = h A h - c d, and q = d budget - 1 for the whole
    ellipsoid (the plane m . x = 1 lies at distance 1/|m| from 0).  The
    last coordinate takes its exact interval (_quadratic_interval, or
    _box_interval with a bound), so counting sums the lengths and
    enumeration builds no rejected row.

    Headroom: with W the largest |ws_i|^2, B the largest budget and R a
    bound on |x0 + sum y_j ws_j| over the coordinates fixed so far, every
    integer formed is at most (r^2 + 1)(R^2 + B) W^r, r the coordinates
    still free; CapacityError unless that is below 2^58.  For the last one
    it bounds qb^2 and qa qc; qb^2 - qa qc itself is qa (budget - min
    |x|^2 on the line) <= W B: below 22,801^2 for n = 3 at the limit T =
    150 (67,500^2 under the max norm's sphere n B^2, B = 150), below 256^2
    for n = 4, T = 15 (900^2).  _box_interval forms at most bound + |x0 +
    sum y_j ws_j| < 2 sqrt(R^2 + B), as bound^2 <= B.  On random and
    nearly parallel prefixes at those limits the checked bound reached
    2^46 (n = 3) and 2^34 (n = 4), 2^51 and 2^43 under the max norm.  The
    float ends come from exact integers with at most five roundings, each
    end off by at most 5 2^-53 (|center| + half) < 6e-10 while |center| +
    half < 2^20 (checked), far inside the margin.  More than ``limit``
    lines on one level raise CapacityError before they are laid out."""
    m = _cofactor_vector(prefix)
    keep = (functools.reduce(np.gcd, m.T) == 1) & (budget >= 1)
    m, budget = m[keep], budget[keep]
    ws = _size_reduce_basis(prefix[keep])
    x0 = _particular_solution(m)
    k = ws.shape[1]
    gram = [[_dot(ws[:, i], ws[:, j]) for j in range(k)] for i in range(k)]
    adj, d = _adjugate(gram), _det(gram)
    h = [_dot(x0, ws[:, i].astype(np.float64)) for i in range(k)]
    for a in range(k):
        mu = np.rint(sum(adj[a][b] * h[b] for b in range(k)) / d)
        x0 = x0 - mu.astype(np.int64)[:, None] * ws[:, a]
    h = [_dot(x0, ws[:, i]) for i in range(k)]
    c = _dot(x0, x0) - budget
    radius = math.sqrt(int((c + budget).max(initial=0)))
    rep, ys = np.arange(len(x0)), []
    wmax = max(float(gram[i][i].max(initial=0)) for i in range(k))
    big_b = int(budget.max(initial=0))
    for j in range(k):
        r = k - j
        if (r * r + 1) * (radius**2 + big_b) * wmax**r >= _LINE_HEADROOM:
            raise CapacityError("slnz last-row integers past the int64 range")
        if r == 1:
            break
        if j:
            sub = [row[j:] for row in gram[j:]]
            adj = [[e[rep] for e in row] for row in _adjugate(sub)]
            d = _det(sub)[rep]
            q = sum(h[a] * adj[a][b] * h[b]
                    for a in range(r) for b in range(r)) - c * d
        else:
            q = d * budget - 1
        center = -sum(adj[0][b] * h[b] for b in range(r)) / d
        half = np.sqrt(np.maximum(q, 0) * adj[0][0].astype(np.float64)) / d
        ymax = float((np.abs(center) + half).max(initial=0)) + 1
        if ymax >= 2**20:
            raise CapacityError("slnz last-row lines past the float range")
        radius += ymax * math.sqrt(wmax)
        lo = np.ceil(center - half - _LINE_MARGIN).astype(np.int64)
        hi = np.floor(center + half + _LINE_MARGIN).astype(np.int64)
        lines = np.where(q >= 0, np.maximum(hi - lo + 1, 0), 0)
        if int(lines.sum()) > limit:
            raise CapacityError("search lines exceed capacity")
        sel, off = _ragged_arange(lines)
        v = lo[sel] + off
        src = rep[sel] if j else sel
        c = c[sel] + v * (2 * h[0][sel] + v * gram[j][j][src])
        h = [h[a][sel] + v * gram[j + a][j][src] for a in range(1, r)]
        ys = [y[sel] for y in ys] + [v]
        rep = src
    less = [0] if slack is None else [0, slack[keep][rep]]
    if bound is None:
        ends = [_quadratic_interval(gram[-1][-1][rep], h[0], c + s)
                for s in less]
    else:  # the lines' points and steps, one coordinate at a time
        cols = range(ws.shape[2])
        bound = bound[keep][rep] if np.ndim(bound) else bound
        ends = [_box_interval((x0[rep, i] + sum(y * ws[rep, j, i] for j, y
                                                in enumerate(ys)) for i in cols),
                              (ws[rep, -1, i] for i in cols), bound - s)
                for s in less]
    return (keep, m, ws, x0), (rep, ys, *ends[0]), ends[1:]


def _complete_last_row(prefix, budget, bound, limit):
    """All matrices (prefix rows stacked over x) of det 1 in the ball,
    built from the solver's lines (at most ``limit`` per level) in
    sub-batches of _CHUNK_PAIRS rows (_ragged_layout).  The lines (budget
    and bound as in _last_row_lines) hold exactly the ball's rows, and
    every row is checked (in the ball, det 1)."""
    (keep, m, ws, x0), (rep, ys, tlo, thi), _ = _last_row_lines(
        prefix, budget, limit, bound)
    prefix, budget = prefix[keep], budget[keep]
    base = x0[rep] + sum(y[:, None] * ws[rep, j] for j, y in enumerate(ys))
    total, window = _ragged_layout(tlo, thi - tlo + 1)
    out = np.empty((total, prefix.shape[2], prefix.shape[2]), dtype=np.int64)
    for lo in range(0, total, _CHUNK_PAIRS):
        hi = min(lo + _CHUNK_PAIRS, total)
        line, t = window(lo, hi)
        own = rep[line]
        x = base[line] + t[:, None] * ws[own, -1]
        outside = (_dot(x, x) > budget[own] if bound is None
                   else np.abs(x) > bound)
        if np.any(outside):
            raise InvariantError("completed last row lies outside the ball")
        if not np.all(_dot(m[own], x) == 1):
            raise InvariantError("completed last row gives det != 1")
        out[lo:hi, :-1], out[lo:hi, -1] = prefix[own], x
    return out


class _SlnzPlan:
    """First rows, later-row tables and prefix block layout of slnz.

    A row's size is its norm_sq as a 1 x n matrix: |r|^2 or max |r_i|^2.
    Enumeration takes every first row of the lex sorted row table and
    every ordering of the later rows.  The count for n >= 3 (``reduced``)
    uses two symmetries that keep det, both norms and every row size, so
    they commute.  Right: for a signed permutation matrix P and D =
    diag(1, det P, 1, ..., 1), gamma -> D gamma P maps first row r to rP,
    so only the first rows of the signed permutation fundamental domain
    are taken, each standing for its orbit (``orbit``, the orbit sizes).
    Left: permuting the rows, one row's sign flipped for odd
    permutations, gives each matrix n! distinct images (the rows of an
    invertible matrix are pairwise independent), so only prefixes whose
    row sizes do not increase are taken.  Sign: negating a middle row
    (2..n-1) and the last row is a left multiplication of det 1 that
    keeps every row size and maps x to -x among a prefix's last rows, and
    no row is 0, so the reduced table keeps only the rows whose first
    nonzero entry is positive, each standing for itself and its negative
    (one prefix for 2^(n-2)).  Rows 2..n-1 range over the size-sorted
    table, up to the size of the row before them (reduced) and, under
    Frobenius, to what leaves each row after them a size of at least 1.
    A block holds at most _CHUNK_PAIRS prefixes (rows 1..n-1) and at most
    1/``workers`` of all, counted per first row without building them, or
    one first row."""

    def __init__(self, spec: BallSpec, reduced: bool = False, workers=1):
        n, cut = spec.n, norm_sq_cut(spec._exact_t_inf())
        self.n, self.reduced = n, reduced
        self.bound = math.isqrt(cut)
        if self.bound > _SLNZ_RADIUS_LIMITS[n]:
            raise CapacityError(
                f"slnz n={n} supports radii up to {_SLNZ_RADIUS_LIMITS[n]}")
        self.sq = cut if spec.norm == "frobenius" else None
        self.rows1, self.rows_ns, self.keys_ns = _row_table(
            n, self.bound, self.sq, spec.norm)
        if reduced:
            limit = n * self.bound**2 if self.sq is None else self.sq - n + 1
            self.rows1, self.orbit = _orbit_rows(n, limit, self.bound)
            lead = functools.reduce(lambda acc, col: np.where(col, col, acc),
                                    self.rows_ns.T[::-1])  # first nonzero
            self.rows_ns, self.keys_ns = (self.rows_ns[lead > 0],
                                          self.keys_ns[lead > 0])
        self.empty = len(self.rows1) == 0
        if self.empty:
            return
        self.keys1 = norm_sq(self.rows1[:, None], spec.norm)
        hist = np.bincount(self.keys_ns, minlength=self.sq or self.bound**2 + 1)
        cum = np.cumsum(hist)

        def tails(prev, used, m):  # choices of m later rows after prev
            cap = self._cap(prev, used, m)
            if m == 1:
                return cum[np.maximum(cap, 0)]
            v = np.arange(len(hist))
            more = tails(v, used[..., None] + v, m - 1)
            return ((v <= cap[..., None]) * hist * more).sum(axis=-1)

        keys, inverse = np.unique(self.keys1, return_inverse=True)
        per_row = (tails(keys, keys, n - 2)[inverse] if n > 2
                   else np.ones_like(self.keys1))
        cum = np.concatenate([[0], np.cumsum(per_row)])
        size = min(_CHUNK_PAIRS, -(-int(cum[-1]) // workers))
        self.blocks, start = [], 0
        while start < len(self.rows1):
            stop = np.searchsorted(cum, cum[start] + size, "right") - 1
            self.blocks.append((start, max(int(stop), start + 1)))
            start = self.blocks[-1][1]

    def _cap(self, prev, used, left):
        """Largest size of a later row after one of size ``prev``, with
        ``used`` spent and ``left`` rows to come."""
        cap = prev if self.reduced else np.full_like(used, self.keys_ns[-1])
        return cap if self.sq is None else np.minimum(cap, self.sq - used - left)

    def prefixes(self, span):
        """(prefix rows, budget of |x|^2 and bound of |x_i| (max norm) for
        the last row x, each prefix's first row in ``rows1``, the prefix
        rows' sizes) for a block: x is capped by the ball (the sphere n B^2
        around the max norm's cube) and, if reduced, the last row's size."""
        n, sq = self.n, self.sq
        first = np.arange(*span)
        rows, keys = [self.rows1[first]], [self.keys1[first]]
        used = keys[0]
        for i in range(n - 2):
            rep, off = _ragged_arange(np.searchsorted(
                self.keys_ns, self._cap(keys[-1], used, n - 2 - i), "right"))
            rows = [r[rep] for r in rows] + [self.rows_ns[off]]
            keys = [k[rep] for k in keys] + [self.keys_ns[off]]
            used, first = used[rep] + keys[-1], first[rep]
        top = (keys[-1] if self.reduced
               else np.full(len(first), sq or self.bound**2))
        budget = np.minimum(sq - used, top) if sq else n * top
        bound = (None if sq else _isqrt_array(top) if self.reduced
                 else self.bound)
        return np.stack(rows, axis=1), budget, bound, first, keys


def iter_slnz_chunks(spec: BallSpec, workers=None):
    """Yield (levels, mats) chunks of the SL(n,Z) ball, rows lex order.

    The exact count of the ball (ball_count) is checked against the
    capacity before the first block is built."""
    workers = resolve_workers(workers)
    plan = _SlnzPlan(spec, workers=workers)
    if plan.empty:
        return
    ball_count(spec, workers)

    def run(span):
        prefix, budget, bound, _, _ = plan.prefixes(span)
        mats = _complete_last_row(prefix, budget, bound, 8 * spec.capacity)
        keys = [_pack_rows(mats[:, i]) for i in range(spec.n)]
        return mats[np.lexsort(keys[::-1])]

    for block in _pool_map(run, plan.blocks, workers):
        if len(block):
            yield np.zeros(len(block), dtype=np.int64), block


def enum_slnz(spec: BallSpec, workers=None) -> np.ndarray:
    return _concat_chunks(iter_slnz_chunks(spec, workers), spec.n)[1]


def _level_zero(spec: BallSpec) -> BallSpec:
    """The level-0 ball of the spec: all that a congruence window keeps,
    as elements of a nonzero level are never p-integral (filter_window)."""
    return dataclasses.replace(spec, t_p=min(spec._exact_t_p(), 1))


def entry_bound(spec: BallSpec, window=None) -> int:
    """Largest |entry| of any integer matrix the spec's chunks can hold
    (iter_ball_chunks), with a congruence ``window`` those of its level-0
    ball.

    Under either norm every entry e of M has e^2 <= norm_sq(M), and the
    level-m integer matrix of sl2zp is p^m gamma."""
    if window is not None:
        spec = _level_zero(spec)
    cuts = _level_cuts(spec._exact_t_inf(), spec.p, spec._exact_t_p())
    return math.isqrt(cuts[-1]) if cuts else 0


def iter_ball_chunks(spec: BallSpec, workers=None, window=None):
    """Uniform chunk stream (levels, mats) for any supported group; with a
    congruence ``window``, only the elements in its classes.  Every
    group's stream counts its ball exactly (ball_count) at the first
    next() and raises CapacityError over the capacity before it builds a
    matrix.  Window elements all have level 0, so only the level-0 ball
    is counted and built."""
    if window is not None:
        return _window_chunks(iter_ball_chunks(_level_zero(spec), workers),
                              window)
    if spec.group == "slnz":
        return iter_slnz_chunks(spec, workers)
    return iter_sl2_zinvp_chunks(spec, workers)


def _window_chunks(chunks, window):
    for levels, mats in chunks:
        keep = filter_window(mats, window)
        if keep.any():
            yield levels[keep], mats[keep]


def ball_count(spec: BallSpec, workers=None) -> int:
    """Number of elements in the ball, counted without building a matrix
    under either norm.

    SL(2,Z), slnz n = 2 (the same set) and SL(2,Z[1/p]) are
    sl2_ladder_totals with the ball as its one rung: sums of products of
    two-square counts r2 under the Frobenius norm, read from a table at
    n = 1 (mod 4) plus a tail (_det_norm_counts), and exact column
    intervals under the max norm.
    Their int64 headroom is checked before counting, and capacity as the
    count runs.  SL(3,Z) and SL(4,Z) visit only the first rows of the
    signed-permutation fundamental domain, each weighted by its orbit
    size, the middle rows (2..n-1) whose first nonzero entry is positive,
    so that each prefix also stands for its 2^(n-2) sign changes, and the
    prefixes whose row sizes do not increase (``_SlnzPlan``).
    Such a prefix stands for W = n!/prod(run!) orderings, over its runs of
    equal sizes; a last row x as large as its last row joins that run, of
    length k, and stands for W/(k + 1), a multinomial.  So each line of
    the last-row solver adds (W - W/(k + 1)) #(x smaller) + W/(k + 1) #(x
    at most as large), the first from the interval of slack 1 (where the
    budget reaches the size: always under the max norm's sphere);
    capacity applies to the weighted totals block by block."""
    if spec.n == 2:
        cuts = _level_cuts(spec._exact_t_inf(), spec.p, spec._exact_t_p())
        return sl2_ladder_totals(spec, [cuts], workers)[0]
    workers = resolve_workers(workers)
    plan = _SlnzPlan(spec, reduced=True, workers=workers)
    if plan.empty:
        return 0
    meter = _CapacityMeter(spec.capacity)

    def run(span):
        prefix, budget, bound, first, keys = plan.prefixes(span)
        (keep, *_), (rep, _, tlo, thi), [(lo, hi)] = _last_row_lines(
            prefix, budget, 8 * meter.limit, bound, budget >= keys[-1])
        stabilizer, last_run = _runs(keys)
        # negating a middle row and the last row maps the ball onto itself
        # and keeps every size: each prefix stands for 2^(n-2) sign changes
        whole = (math.factorial(spec.n) // stabilizer * plan.orbit[first]
                 << spec.n - 2)
        tie = whole // (last_run + 1)
        total = int((tie[keep][rep] * (thi - tlo + 1)
                     + (whole - tie)[keep][rep] * (hi - lo + 1)).sum())
        meter.add(total)
        return total

    return sum(_pool_map(run, plan.blocks, workers))


def filter_window(mats, window: CongruenceWindow):
    """Mask of the integer matrices lying in the window's residue classes.
    Elements of a nonzero level are never p-integral and lie in none, so
    a stream with a window builds level 0 alone (iter_ball_chunks)."""
    if mats.shape[-2:] != (2, 2):
        raise ConfigError("congruence windows apply to 2x2 matrices only")
    mod = window.modulus
    flat = mats.reshape(len(mats), -1) % mod
    key = np.zeros(len(mats), dtype=np.int64)
    for j in range(flat.shape[1]):
        key = key * mod + flat[:, j]
    want = []
    for r in window.reps:  # distinct residues mod p^m, so distinct keys
        acc = 0
        for entry in r:
            acc = acc * mod + entry
        want.append(acc)
    return np.isin(key, np.array(want, dtype=np.int64))
