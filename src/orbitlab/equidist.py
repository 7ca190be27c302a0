"""Empirical orbit distributions against predicted limiting densities.

An orbit experiment bins lattice-ball elements (of the ball at the
largest radius of the ladder) into the whole radius ladder by their
exact per-place norms, so one pass serves every rung.  SL(2) balls
without a window count their rung totals exactly, under either norm,
and evaluate the tests only on the elements whose rows lie in the
strips |row . v| <= p^m R (R infinite when a test bounds no |gamma v|)
and in the row congruence their shells force.  Windows stream the
level-0 ball, the only level they keep, and SL(n) the whole ball.

Test functions are indicators of sets whose boundary carries no
limit mass: annulus sectors in R^2 - {0}, valuation shells with
unit-part congruence boxes in Q_p^2 - {0}, annuli in wedge
coordinates, and real x p-adic products of these.  Indicators make
the predicted masses closed forms instead of quadratures.

Unknown global constants (covolumes, Haar normalization factors)
never enter an assertion: reports carry constant-free ratio targets
between test functions, the fitted constant per test, and its
dispersion across tests.

Orbit points are computed in float at infinity and exactly at the
finite place: gamma.v there is an integer matrix times a rational
vector, and shell membership reduces to integer valuations and
unit-part residues, matching the enumeration module's discipline.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .balls import (
    BallSpec,
    CongruenceWindow,
    _content_valuation,
    _level_cuts,
    entry_bound,
    exact_radius,
    filter_window,
    iter_ball_chunks,
    iter_sl2_strip_chunks,
    norm_sq,
    sl2_ladder_totals,
)
from .errors import ConfigError, DegenerateSpanError
from .places import (
    as_rational,
    evaluate_symbolic,
    exact_sqrt,
    floor_log,
    is_prime,
    padic_valuation,
    parse_surd,
    surd_value,
)
from .volumes import StabilizerBall, skew_ball_ratio_limit, slope_fit

__all__ = [
    "RealAnnulusSector",
    "PadicShellBox",
    "RealWedgeAnnulus",
    "ProductTest",
    "OrbitVector",
    "ExperimentConfig",
    "ReportRow",
    "SlopeRecord",
    "OrientationRecord",
    "DistributionReport",
    "predicted_limit",
    "PredictionRecord",
    "orbit_sum",
    "check_density_hypothesis",
    "calibrate_orientation",
    "sl2_congruence_order",
    "window_scale",
    "wedge_normalizer_exponent",
    "normalizer_value",
    "parse_test",
    "run_experiment",
]

TWO_PI = 2.0 * math.pi
_INT64_MAX = 2**63 - 1


# ---------------------------------------------------------------------------
# test functions

@dataclass(frozen=True)
class RealAnnulusSector:
    """Indicator of {r1 <= |w| <= r2, arg(w) in the sector} on R^2 - 0.

    The sector is theta1 <= arg(w) <= theta2 measured mod 2*pi, so it
    may straddle the branch cut; its width must stay within one turn.
    A degenerate annulus r1 == r2 is allowed and carries zero mass.
    """

    r1: float
    r2: float
    theta1: float = 0.0
    theta2: float = TWO_PI

    def __post_init__(self):
        if not 0.0 < self.r1 <= self.r2:
            raise ConfigError(f"need 0 < r1 <= r2, got [{self.r1}, {self.r2}]")
        span = self.theta2 - self.theta1
        if not 0.0 < span <= TWO_PI + 1e-12:
            raise ConfigError(f"sector width {span} outside (0, 2*pi]")

    @property
    def label(self) -> str:
        return (f"annulus[{self.r1:g},{self.r2:g}]"
                f"sector[{self.theta1:g},{self.theta2:g}]")

    def contains(self, w: np.ndarray) -> np.ndarray:
        w = np.atleast_2d(np.asarray(w, dtype=np.float64))
        if w.shape[1] != 2:
            raise ConfigError("annulus sectors live on R^2")
        r = np.hypot(w[:, 0], w[:, 1])
        ok = (r >= self.r1) & (r <= self.r2)
        if self.turn_period > 1:
            span = self.theta2 - self.theta1
            rel = np.mod(np.arctan2(w[:, 1], w[:, 0]) - self.theta1, TWO_PI)
            ok &= rel <= span
        return ok

    @property
    def turn_period(self) -> int:
        """The least P with contains(J^P w) == contains(w), J the quarter
        turn: 1 at a full turn, where it reads only hypot (symmetric in
        its arguments and even in each), else 4."""
        return 1 if self.theta2 - self.theta1 >= TWO_PI else 4

    def predicted(self) -> float:
        """Mass under dw/|w|: polar form gives (theta span)(r span)."""
        return (self.theta2 - self.theta1) * (self.r2 - self.r1)


@dataclass(frozen=True)
class PadicShellBox:
    """Indicator of a valuation shell with a unit-part congruence box.

    The shell is {w in Q_p^2 : |w|_p = p^s}; inside it, w = p^(-s) u
    with u primitive in Z_p^2, and the box keeps the w whose unit part
    u lies in one of the listed residue classes mod p^m.  m = 0 means
    the full shell.
    """

    p: int
    s: int
    m: int = 0
    units: tuple = ()

    def __post_init__(self):
        if not is_prime(self.p):
            raise ConfigError(f"{self.p} is not prime")
        if self.m < 0:
            raise ConfigError("congruence depth m must be >= 0")
        if self.p ** (2 * self.m) > _INT64_MAX:  # keys of the unit classes
            raise ConfigError(f"shell mod {self.p}^{self.m}: keys overflow int64")
        if self.m == 0:
            if self.units:
                raise ConfigError("unit classes need a positive depth m")
            return
        mod = self.p**self.m
        seen = set()
        for u in self.units:
            if len(u) != 2:
                raise ConfigError(f"unit class {u!r} is not a pair")
            a, b = int(u[0]) % mod, int(u[1]) % mod
            if a % self.p == 0 and b % self.p == 0:
                raise ConfigError(f"unit class {u!r} is not primitive")
            seen.add((a, b))
        if not seen:
            raise ConfigError("listed congruence set is empty")
        object.__setattr__(self, "units", tuple(sorted(seen)))

    @property
    def label(self) -> str:
        if self.m == 0:
            return f"shell[{self.s}]"
        return f"shell[{self.s}]mod{self.p}^{self.m}x{len(self.units)}"

    @property
    def turn_period(self) -> int:
        """The least P with J^P w in the box exactly when w is, J the
        quarter turn: 1 when the listed unit classes are closed under
        (a, b) -> (-b, a) mod p^m (m = 0 lists none), 2 when only under
        u -> -u, else 4."""
        mod, units = self.p**self.m, set(self.units)
        if {(-b % mod, a) for a, b in units} == units:
            return 1
        return 2 if {(-a % mod, -b % mod) for a, b in units} == units else 4

    def unit_class_fraction(self) -> Fraction:
        if self.m == 0:
            return Fraction(1)
        total = self.p ** (2 * self.m) - self.p ** (2 * self.m - 2)
        return Fraction(len(self.units), total)

    def predicted(self) -> Fraction:
        """Mass under dw/|w|_p, with dw giving Z_p^2 mass 1.

        The full shell has dw-measure p^(2s)(1 - p^-2) and constant
        |w|_p = p^s on it; listed classes scale by their fraction of
        all primitive classes mod p^m.
        """
        full = Fraction(self.p) ** self.s * (1 - Fraction(1, self.p**2))
        return full * self.unit_class_fraction()


@dataclass(frozen=True)
class RealWedgeAnnulus:
    """Indicator of {r1 <= |w| <= r2} in wedge coordinates on R^dim - 0."""

    r1: float
    r2: float
    dim: int
    turn_period = 1  # contains reads only |w|

    def __post_init__(self):
        if not 0.0 < self.r1 <= self.r2:
            raise ConfigError(f"need 0 < r1 <= r2, got [{self.r1}, {self.r2}]")
        if self.dim < 1:
            raise ConfigError("wedge dimension must be >= 1")

    @property
    def label(self) -> str:
        return f"wedge[{self.r1:g},{self.r2:g}]d{self.dim}"

    def contains(self, w: np.ndarray) -> np.ndarray:
        w = np.atleast_2d(np.asarray(w, dtype=np.float64))
        if w.shape[1] != self.dim:
            raise ConfigError(f"expected dimension {self.dim}, got {w.shape[1]}")
        r = np.sqrt((w * w).sum(axis=1))
        return (r >= self.r1) & (r <= self.r2)

    def predicted(self) -> float:
        """Mass under dw/|w| on R^dim: surface area times radial factor."""
        d = self.dim
        if d == 1:
            # both rays contribute log(r2/r1)
            return 2.0 * math.log(self.r2 / self.r1)
        area = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
        return area * (self.r2 ** (d - 1) - self.r1 ** (d - 1)) / (d - 1)


@dataclass(frozen=True)
class ProductTest:
    """Product of a real test set and a p-adic one, for diagonal orbits."""

    real: RealAnnulusSector
    padic: PadicShellBox

    @property
    def label(self) -> str:
        return f"{self.real.label}*{self.padic.label}"

    @property
    def turn_period(self) -> int:
        return max(self.real.turn_period, self.padic.turn_period)

    def predicted_parts(self) -> tuple:
        return self.real.predicted(), self.padic.predicted()

    def predicted(self) -> float:
        re, qp = self.predicted_parts()
        return re * float(qp)


def parse_test(text: str, p: int = 0):
    """Parse one test-function token.

    Grammar (angles in radians, omitted sector means the full circle):
      annulus(r1,r2[,th1,th2])
      shell(s[,m,u1:u2|u1:u2|...])
      wedge(r1,r2,dim)
      product(annulus(...),shell(...))
    """
    s = text.strip()
    head, _, body = s.partition("(")
    if not body.endswith(")"):
        raise ConfigError(f"malformed test {text!r}")
    body = body[:-1]
    args, depth, cur = [], 0, []
    for ch in body:
        if ch == "," and depth == 0:
            args.append("".join(cur))
            cur = []
            continue
        depth += ch == "("
        depth -= ch == ")"
        cur.append(ch)
    if cur or body:
        args.append("".join(cur))
    head = head.strip().lower()
    try:
        if head == "annulus":
            vals = [float(evaluate_symbolic(a)) for a in args]
            if len(vals) == 2:
                return RealAnnulusSector(vals[0], vals[1])
            if len(vals) == 4:
                return RealAnnulusSector(*vals)
            raise ConfigError(f"annulus takes 2 or 4 arguments, got {len(vals)}")
        if head == "shell":
            if not p:
                raise ConfigError("shell tests need a prime p in the config")
            if len(args) == 1:
                return PadicShellBox(p, int(args[0]))
            if len(args) == 3:
                units = tuple(tuple(int(c) for c in piece.split(":"))
                              for piece in args[2].split("|"))
                return PadicShellBox(p, int(args[0]), int(args[1]), units)
            raise ConfigError(f"shell takes 1 or 3 arguments, got {len(args)}")
        if head == "wedge":
            if len(args) != 3:
                raise ConfigError("wedge takes 3 arguments")
            return RealWedgeAnnulus(float(evaluate_symbolic(args[0])),
                                    float(evaluate_symbolic(args[1])),
                                    int(args[2]))
        if head == "product":
            if len(args) != 2:
                raise ConfigError("product takes 2 arguments")
            re, qp = parse_test(args[0], p), parse_test(args[1], p)
            if not (isinstance(re, RealAnnulusSector)
                    and isinstance(qp, PadicShellBox)):
                raise ConfigError("product wants annulus(...) then shell(...)")
            return ProductTest(re, qp)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"malformed test {text!r}: {exc}") from None
    raise ConfigError(f"unknown test kind {head!r}")


# ---------------------------------------------------------------------------
# initial vectors and the density hypothesis

@dataclass(frozen=True)
class OrbitVector:
    """Initial vector per place.

    ``inf`` holds the archimedean entries exactly, as parse_surd pairs
    (coef, rad) for coef*sqrt(rad), evaluated only by inf_floats();
    ``fin`` holds exact rationals at the finite place when one is
    present.
    """

    inf: tuple
    fin: tuple | None = None
    p: int = 0

    def __post_init__(self):
        if all(coef == 0 or rad == 0 for coef, rad in self.inf):
            raise ConfigError("v_inf must be nonzero")
        if self.fin is not None:
            if not is_prime(self.p):
                raise ConfigError("finite-place entries need a prime p")
            if all(e == 0 for e in self.fin):
                raise ConfigError("v_p must be nonzero")

    @classmethod
    def make(cls, inf, fin=None, p: int = 0) -> "OrbitVector":
        """Parse literals: strings like "sqrt(2)" or "3/4", numbers, and
        floats at their exact binary value."""
        try:
            inf_vals = tuple(map(parse_surd, inf))
            fin_vals = None if fin is None else tuple(map(as_rational, fin))
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"vector entry: {exc}") from None
        return cls(inf=inf_vals, fin=fin_vals, p=p)

    def inf_floats(self) -> np.ndarray:
        return np.asarray([float(surd_value(e)) for e in self.inf],
                          dtype=np.float64)


def _rational_direction(entries):
    """Projective direction of a nonzero vector of surds coef*sqrt(rad)
    as a tuple of Fractions, the first nonzero entry 1 and a zero entry
    0; None when some ratio is irrational.

    Against the first nonzero entry b, e/b = (c_e/c_b) sqrt(r_e r_b)/r_b
    is rational exactly when r_e r_b is a rational square.
    """
    cb, rb = next((c, r) for c, r in entries if c and r)  # v is nonzero
    roots = [exact_sqrt(r * rb) if c else 0 for c, r in entries]
    if None in roots:
        return None
    return tuple(c * root / (cb * rb) for (c, _), root in zip(entries, roots))


def check_density_hypothesis(v: OrbitVector, application: str) -> tuple:
    """Flags (possibly empty) for the application's density hypothesis.

    Ledrappier-type real orbits need v_inf in no rational direction:
    the hypothesis is violated when v_inf is a real multiple of a
    rational vector.  The S-arithmetic product case is violated exactly
    when both components are multiples of one rational vector, i.e.
    the directions exist and agree.  Both are decided exactly on the
    parsed literals.
    """
    d_inf = _rational_direction(v.inf)
    if application in ("ledrappier", "a21", "wedge"):
        return ("density hypothesis violated",) if d_inf is not None else ()
    if application == "a22":
        if v.fin is None:
            raise ConfigError("a22 needs a finite-place vector")
        # a rational v_fin always has a rational direction
        if d_inf is not None and d_inf == _rational_direction(
                [(e, 1) for e in v.fin]):
            return ("density hypothesis violated",)
        return ()
    raise ConfigError(f"unknown application {application!r}")


# ---------------------------------------------------------------------------
# normalizers, window scaling, prediction records

def sl2_congruence_order(p: int, m: int) -> int:
    """|SL(2, Z/p^m)| = p^(3m-2)(p^2-1) for m >= 1; the trivial 1 at m=0."""
    if m == 0:
        return 1
    return p ** (3 * m - 2) * (p * p - 1)


def window_scale(window: CongruenceWindow | None) -> Fraction:
    """Haar mass of the window inside SL(2,Z_p): #classes / |SL2(Z/p^m)|."""
    if window is None:
        return Fraction(1)
    return Fraction(len(window.reps), sl2_congruence_order(window.p, window.m))


def wedge_normalizer_exponent(n: int, k: int) -> int:
    """Growth exponent of the wedge-orbit normalizer: n^2+k^2-nk-n."""
    if not 1 <= k <= n:
        raise ConfigError(f"need 1 <= k <= n, got k={k}, n={n}")
    return n * n + k * k - n * k - n


def normalizer_value(application: str, t, p: int = 0, n: int = 2) -> float:
    """The structural normalizer at radius t.

    T for real orbits; T p^E(ln_p T) when a finite place participates;
    the same base raised to wedge_normalizer_exponent(n, 1) = (n-1)^2 for
    wedge orbits of vectors (wedge degree 1).
    """
    tf = float(t)
    if tf <= 0:
        raise ConfigError("radius must be positive")
    base = tf
    if p:
        base = tf * float(p) ** floor_log(exact_radius(t), p)
    if application in ("ledrappier", "a21", "a22"):
        return base
    if application == "wedge":
        return base ** wedge_normalizer_exponent(n, 1)
    raise ConfigError(f"unknown application {application!r}")


def _normalizer_label(application: str, p: int, n: int) -> str:
    base = f"T*{p}^E(ln_{p} T)" if p else "T"
    if application == "wedge":
        return f"({base})^{wedge_normalizer_exponent(n, 1)}"
    return base


@dataclass(frozen=True)
class PredictionRecord:
    """Constant-free targets for one experiment."""

    application: str
    normalizer_label: str
    test_ids: tuple
    predicted: tuple          # window-scaled density masses
    ratio_targets: tuple      # predicted[j] / predicted[0]; None if 0/0
    window_scale: Fraction
    flags: tuple


def predicted_limit(application: str, tests=(), *, p: int = 0, n: int = 2,
                    window: CongruenceWindow | None = None) -> PredictionRecord:
    """Predicted densities and ratio targets for a test-function list.

    Absolute masses are density integrals only, up to one global
    constant the limit theorems leave free; the ratio targets are the
    assertable part.  Window scaling multiplies every prediction by
    the window's Haar mass.
    """
    if application not in ("ledrappier", "a21", "a22", "wedge"):
        raise ConfigError(f"unknown application {application!r}")
    if application == "a22" and not is_prime(p):
        raise ConfigError("a22 needs a prime p")
    flags = []
    scale = window_scale(window)
    preds = []
    for f in tests:
        val = float(f.predicted()) * float(scale)
        if val <= 0.0:
            flags.append(f"degenerate test mass: {f.label}")
        preds.append(val)
    if preds and preds[0] > 0.0:
        ratios = tuple(v / preds[0] for v in preds)
    else:
        ratios = tuple(None for _ in preds)
        if preds:
            flags.append("reference test has zero mass; ratios undefined")
    return PredictionRecord(
        application=application,
        normalizer_label=_normalizer_label(application, p, n),
        test_ids=tuple(f.label for f in tests),
        predicted=tuple(preds),
        ratio_targets=ratios,
        window_scale=scale,
        flags=tuple(flags),
    )


# ---------------------------------------------------------------------------
# orbit sums

@dataclass(frozen=True)
class _FinAction:
    """gamma.v_fin = (mats @ nums) / (den p^level), split for integer work."""

    nums: np.ndarray
    dv: int            # v_p of the common denominator
    den_unit: int      # denominator with its p-part removed

    @classmethod
    def for_vector(cls, v: OrbitVector) -> "_FinAction":
        dens = [as_rational(e).denominator for e in v.fin]
        den = math.lcm(*dens)
        ints = [int(as_rational(e) * den) for e in v.fin]
        if max(abs(x) for x in ints) > _INT64_MAX:
            raise ConfigError("v_fin: numerators over a common denominator "
                              "must fit in int64")
        nums = np.asarray(ints, dtype=np.int64)
        dv = padic_valuation(den, v.p)
        return cls(nums=nums, dv=int(dv), den_unit=den // v.p**int(dv))


def _padic_mask(minv, shifted, levels, fin: _FinAction,
                test: PadicShellBox) -> np.ndarray:
    mask = (minv - fin.dv - levels) == -test.s
    if test.m and mask.any():
        mod = test.p**test.m
        inv = pow(fin.den_unit % mod, -1, mod)
        res = (shifted % mod) * inv % mod
        key = res[:, 0] * mod + res[:, 1]
        want = np.asarray([a * mod + b for a, b in test.units], dtype=np.int64)
        mask &= np.isin(key, want)
    return mask


class _ChunkEvaluator:
    """Per-chunk orbit points and test masks for one fixed vector.

    ``entry_bound`` bounds |entry| of every matrix to come; it is
    checked once here against the int64 headroom of the finite-place
    action.  Without it, each chunk is checked as it arrives."""

    def __init__(self, v: OrbitVector, tests, entry_bound=None):
        self.v = v
        self.tests = tuple(tests)
        self.need_real = not all(isinstance(f, PadicShellBox) for f in self.tests)
        self.need_fin = any(isinstance(f, (PadicShellBox, ProductTest))
                            for f in self.tests)
        if self.need_fin:
            if v.fin is None:
                raise ConfigError("p-adic tests need a finite-place vector")
            self.fin = _FinAction.for_vector(v)
            if entry_bound is not None:
                self._check_headroom(entry_bound)
        self.entry_bound = entry_bound
        self.vec = v.inf_floats()

    def _check_headroom(self, bound):
        """|(mats @ nums)_i| <= n * bound * max|nums| must fit in int64."""
        top = max(abs(int(x)) for x in self.fin.nums)
        if len(self.fin.nums) * int(bound) * top > _INT64_MAX:
            raise ConfigError(
                f"finite-place action overflows int64: matrix entries up to "
                f"{bound} times v_fin numerators up to {top}")

    def masks(self, levels, mats: np.ndarray, turns: bool = False):
        """One boolean mask per test for the chunk's elements p^-m M, m
        their ``levels``; with ``turns``, per test the list of the masks
        of J^k M for k < P, J the quarter turn [[0, -1], [1, 0]] and P
        the test's turn_period.

        Each distinct real or p-adic set is evaluated once per chunk and
        image, so tests that repeat one share its mask.  The images are
        exact: J^k M has the float orbit point J^k w, since the column
        sums of its rows (-r2, r1) are -w1 and w0, bit for bit, and the
        p-adic valuation of J^k nums is that of nums, its shifted part J^k
        shifted (an exact quotient)."""
        if mats.shape[1] != len(self.vec):
            raise ConfigError("vector and matrix dimensions disagree")
        if self.need_real:
            w = _column_sums(mats, self.vec)
            if levels.any():  # p^m is exact in int64 and in float64
                w = w / np.power(self.v.p, levels)[:, None]
        if self.need_fin:
            if self.entry_bound is None:
                self._check_headroom(np.abs(mats).max())
            p = self.v.p
            nums = _column_sums(mats, self.fin.nums)
            minv = _content_valuation(nums.T, p)
            k = np.minimum(minv, 62)[:, None]
            shifted = nums >> k if p == 2 else nums // p**k
        seen = {}

        def part(f, k):
            k %= f.turn_period
            if (f, k) not in seen:
                seen[f, k] = (f.contains(_turn(w, k))
                              if not isinstance(f, PadicShellBox) else
                              _padic_mask(minv, _turn(shifted, k), levels,
                                          self.fin, f))
            return seen[f, k]

        def hit(f, k=0):
            if isinstance(f, ProductTest):
                return part(f.real, k) & part(f.padic, k)
            return part(f, k)

        return [[hit(f, k) for k in range(f.turn_period)] if turns
                else hit(f) for f in self.tests]


def _turn(x, k):
    """J^k x for the rows x of an (N, 2) array, J the quarter turn."""
    if k % 2:
        x = np.stack((-x[:, 1], x[:, 0]), axis=1)
    return -x if k >= 2 else x


def _column_sums(mats, vec):
    """mats @ vec for an (N, n, n) stack, as the sum over columns j of
    mats[:, :, j] * vec[j], accumulated left to right.

    Each product and each sum is rounded once, as in a plain left to
    right Python sum; a BLAS ``@`` may fuse them and round differently,
    depending on the platform's kernel."""
    out = mats[:, :, 0] * vec[0]
    for j in range(1, len(vec)):
        out += mats[:, :, j] * vec[j]
    return out


def orbit_sum(chunks, v: OrbitVector, f, normalizer: float, *,
              window: CongruenceWindow | None = None) -> float:
    """(1/normalizer) * sum over gamma in the (levels, mats) chunks of
    f(gamma.v).  Indicator tests make the sum a count."""
    if normalizer <= 0:
        raise ConfigError("normalizer must be positive")
    ev = _ChunkEvaluator(v, [f])
    total = 0
    for levels, mats in chunks:
        if not len(mats):
            continue
        mask = ev.masks(levels, mats)[0]
        if window is not None:
            mask = mask & filter_window(mats, window, levels=levels)
        total += int(mask.sum())
    return total / normalizer


# ---------------------------------------------------------------------------
# orientation calibration

@dataclass(frozen=True)
class OrientationRecord:
    winner: str
    inverse_spread: float
    forward_spread: float


def calibrate_orientation(v=(1.0, 1.7320508075688772), samples: int = 6,
                          seed: int = 7) -> OrientationRecord:
    """Decide which of g.v, g^-1.v the skew-ball density pairs with.

    The ladder-estimated ratio vol(H_t(g))/vol(H_t) is multiplied by
    |g v| and by |g^-1 v| over a deterministic sample of translators;
    the orientation whose product stays constant wins.  The estimate
    comes from the volume ladder, not the closed form, so the check
    stays a two-route comparison.
    """
    rng = random.Random(seed)
    ball = StabilizerBall(tuple(float(e) for e in v))
    vx, vy = (float(e) for e in v)
    fwd, inv = [], []
    for _ in range(samples):
        a, b, c = (rng.uniform(-2.0, 2.0) for _ in range(3))
        if abs(a) < 0.3:  # keep the completion d = (1+bc)/a tame
            a = math.copysign(0.5, a or 1.0)
        d = (1.0 + b * c) / a
        est = skew_ball_ratio_limit(ball, ((a, b), (c, d))).estimates[0]
        fwd.append(est * math.hypot(a * vx + b * vy, c * vx + d * vy))
        inv.append(est * math.hypot(d * vx - b * vy, -c * vx + a * vy))
    spread = [max(xs) / min(xs) - 1.0 for xs in (inv, fwd)]
    winner = "inverse" if spread[0] < spread[1] else "forward"
    return OrientationRecord(winner, spread[0], spread[1])


# ---------------------------------------------------------------------------
# experiments

@dataclass(frozen=True)
class ExperimentConfig:
    """One orbit experiment: application, vector, ladder, tests."""

    application: str
    v: OrbitVector
    t_ladder: tuple
    tests: tuple = ()
    n: int = 2
    norm: str = "frobenius"
    window: CongruenceWindow | None = None
    capacity: int = 10**8
    workers: int | None = None

    def __post_init__(self):
        if self.application not in ("ledrappier", "a21", "a22", "wedge"):
            raise ConfigError(f"unknown application {self.application!r}")
        if not self.t_ladder:
            raise ConfigError("empty radius ladder")
        exact = [exact_radius(t) for t in self.t_ladder]
        if any(t <= 0 for t in exact):
            raise ConfigError("ladder radii must be positive")
        if any(b <= a for a, b in zip(exact, exact[1:])):
            raise ConfigError("ladder radii must be strictly increasing")
        if self.application == "a22" and self.v.fin is None:
            raise ConfigError("a22 needs a finite-place vector")
        if self.group != "slnz" and self.n != 2:
            raise ConfigError(f"n: {self.application} orbits live in SL(2), "
                              f"n must be 2, got {self.n}")
        if self.window is not None and self.group == "slnz":
            raise ConfigError("congruence windows apply to SL(2) groups only")
        dim = self.dim
        vectors = (("v_inf", self.v.inf), ("v_fin", self.v.fin))
        problems = [f"{name}: expected {dim} entries, got {len(vec)}"
                    for name, vec in vectors
                    if vec is not None and len(vec) != dim]
        for f in self.tests:
            f_dim = getattr(f, "dim", 2)  # annulus, shell, product: the plane
            if f_dim != dim:
                problems.append(f"test {f.label}: dimension {f_dim}, "
                                f"expected {dim}")
        if problems:
            raise ConfigError(problems)

    @property
    def group(self) -> str:
        return {"ledrappier": "sl2z", "a21": "sl2z",
                "a22": "sl2zp", "wedge": "slnz"}[self.application]

    @property
    def p(self) -> int:
        return self.v.p if self.group == "sl2zp" else 0

    @property
    def dim(self) -> int:
        return self.n if self.group == "slnz" else 2


@dataclass(frozen=True)
class ReportRow:
    t: float
    test_id: str
    count: int
    empirical: float        # count / normalizer(t)
    predicted: float        # window-scaled density mass, constant-free
    # None where undefined: ratios when the first test has no mass or no
    # hit, the constant when this test has no mass
    ratio_target: float | None     # predicted / predicted(first test)
    ratio_empirical: float | None  # count / count(first test)
    rel_error: float        # |ratio_empirical/ratio_target - 1|, 0 if undefined
    constant: float | None  # empirical / predicted


@dataclass(frozen=True)
class SlopeRecord:
    exponent: float
    stderr: float
    against: str


@dataclass(frozen=True)
class DistributionReport:
    application: str
    orientation: str
    normalizer_label: str
    flags: tuple
    totals: tuple                 # (t, ball count) pairs
    rows: tuple
    slope_total: SlopeRecord | None
    slope_first_test: SlopeRecord | None
    constant_cv: tuple            # (t, coefficient of variation or None)
    max_rel_error: tuple          # (t, max over non-reference tests) pairs

    def __post_init__(self):
        if any(c < 0 for _, c in self.totals):
            raise ConfigError("negative ball count")
        if any(r.count < 0 for r in self.rows):
            raise ConfigError("negative test count")


def _ladder_cuts(config: ExperimentConfig):
    """Exact per-(rung, level) cutoffs on norm_sq of M = p^m gamma: the
    level cuts of each rung's ball (t_p = t_inf = T), -1 (level
    excluded) past them.  A rung T < 1 holds no element: it has no level
    with a finite place, and without one its cut floor(T^2) = 0 is below
    every element's norm."""
    rows = [_level_cuts(r, config.p, r)
            for r in map(exact_radius, config.t_ladder)]
    cuts = np.full((len(rows), max(map(len, rows), default=0)), -1,
                   dtype=np.int64)
    for i, row in enumerate(rows):
        cuts[i, :len(row)] = row
    return cuts


def _strip_route(config: ExperimentConfig):
    """(radius, congruence) for iter_sl2_strip_chunks, or None where
    run_experiment streams the ball: windows and SL(n).

    The radius is the largest outer radius of the tests' real parts, or
    math.inf when a test bounds no |gamma v| (a bare shell).  A shell s
    holds the points whose entries of M nums have valuation exactly m +
    v_p(den) - s, so when every test of an SL(2,Z[1/p]) run has a shell,
    both rows need row . nums = 0 mod p^k, k = m + v_p(den) - max s: the
    congruence is (nums, v_p(den) - max s), else None."""
    if config.group == "slnz" or config.window is not None:
        return None
    parts = [(f.real, f.padic) if isinstance(f, ProductTest) else (f, f)
             for f in config.tests]
    radius = max((math.inf if isinstance(f, PadicShellBox) else f.r2
                  for f, _ in parts), default=0.0)
    shells = [f.s for _, f in parts if isinstance(f, PadicShellBox)]
    if config.group != "sl2zp" or not shells or len(shells) < len(parts):
        return radius, None
    fin = _FinAction.for_vector(config.v)
    return radius, (fin.nums, fin.dv - max(shells))


def _try_slope(xs, ys, label):
    try:
        exp, err = slope_fit(xs, ys)
    except (DegenerateSpanError, ValueError):
        return None
    return SlopeRecord(exponent=exp, stderr=err, against=label)


def run_experiment(config: ExperimentConfig, *, seed: int = 7) -> DistributionReport:
    """Count the ball per ladder rung and each test's hits per rung, and
    compare them against the predictions.

    Two routes give the same integer counts.  The strip route (see
    _strip_route) takes every SL(2) ball without a window, under either
    norm: sl2_ladder_totals counts every rung without building an
    element, and the tests run only over iter_sl2_strip_chunks, one pass
    for every level, the elements whose rows satisfy |row . v| <= p^m R
    (R infinite when a test bounds no |gamma v|; and, when every test has
    a shell, the row congruence those shells force), one of each orbit
    {J^k gamma} of the quarter turn J: a test of turn_period P is
    evaluated on the P images J^k gamma, k < P, and each image's hits
    count 4/P times.  Congruence
    windows (level 0 only) and SL(n) (wedge) stream the ball through
    iter_ball_chunks and count its totals as they go.

    Deterministic for a fixed config: every accumulator is an integer
    count, which does not depend on chunk order.  The seed only feeds
    the orientation calibration sample.
    """
    flags = list(check_density_hypothesis(config.v, config.application))
    rec = predicted_limit(config.application, config.tests, p=config.p,
                          n=config.n, window=config.window)
    flags.extend(rec.flags)
    orientation = calibrate_orientation(seed=seed)

    spec = BallSpec(
        group=config.group,
        n=config.dim,
        t_inf=config.t_ladder[-1],
        t_p=config.t_ladder[-1] if config.p else None,
        p=config.p,
        norm=config.norm,
        capacity=config.capacity,
    )
    cuts = _ladder_cuts(config)
    nrungs, ntests = len(config.t_ladder), len(config.tests)
    # column 0: rung totals; column 1 + j: hits of test j
    acc = np.zeros((nrungs, ntests + 1), dtype=np.int64)
    ev = (_ChunkEvaluator(config.v, config.tests,
                          entry_bound(spec, config.window))
          if ntests else None)
    route = _strip_route(config)
    if route is None:
        chunks = iter_ball_chunks(spec, config.workers, config.window)
        first_col = 0
    else:
        acc[:, 0] = sl2_ladder_totals(spec, cuts, config.workers)
        chunks, first_col = (), 1
        if ntests:
            chunks = iter_sl2_strip_chunks(spec, config.v.inf_floats(),
                                           *route, config.workers)

    for levels, mats in chunks:
        key = norm_sq(mats, config.norm)
        # rungs are nested: an element lies in its first rung whose cut
        # admits it and in every later one, so count first rungs (the
        # rungs whose cut at its level, -1 where excluded, is below its
        # key) and accumulate; index nrungs collects the elements in none
        first = sum(row[levels] < key for row in cuts)
        tmasks = (ev.masks(levels, mats, turns=first_col == 1) if ntests
                  else [])
        for j, mask in enumerate(([None] + tmasks)[first_col:], first_col):
            # the strip holds one of each orbit {J^k gamma}: the hits of
            # its P images count 4/P times each
            images = mask if first_col else [mask]
            weight = 4 // len(images) if first_col else 1
            hist = sum(np.bincount(first if m is None else first[m],
                                   minlength=nrungs + 1) for m in images)
            acc[:, j] += weight * np.cumsum(hist[:-1])
    totals = acc[:, 0].tolist()
    counts = acc[:, 1:].tolist()

    norms = [normalizer_value(config.application, t, config.p, config.n)
             for t in config.t_ladder]
    rows, cv_rows, err_rows = [], [], []
    for i, t in enumerate(config.t_ladder):
        consts, errs = [], []
        for j in range(ntests):
            emp = counts[i][j] / norms[i]
            pred = rec.predicted[j]
            target = rec.ratio_targets[j]
            ratio = counts[i][j] / counts[i][0] if counts[i][0] > 0 else None
            rel = (abs(ratio / target - 1.0)
                   if j and target and ratio is not None else 0.0)
            const = emp / pred if pred > 0 else None
            rows.append(ReportRow(
                t=float(t), test_id=rec.test_ids[j], count=counts[i][j],
                empirical=emp, predicted=pred, ratio_target=target,
                ratio_empirical=ratio, rel_error=rel, constant=const))
            if const is not None:
                consts.append(const)
            if j:
                errs.append(rel)
        if consts:
            mean = sum(consts) / len(consts)
            var = sum((c - mean) ** 2 for c in consts) / len(consts)
            cv_rows.append((float(t), math.sqrt(var) / mean if mean else None))
        if errs:
            err_rows.append((float(t), max(errs)))

    slope_total = _try_slope([float(t) for t in config.t_ladder], totals, "T")
    slope_first = None
    if ntests:
        slope_first = _try_slope(norms, [counts[i][0] for i in range(nrungs)],
                                 rec.normalizer_label)
    return DistributionReport(
        application=config.application,
        orientation=orientation.winner,
        normalizer_label=rec.normalizer_label,
        flags=tuple(flags),
        totals=tuple((float(t), c) for t, c in zip(config.t_ladder, totals)),
        rows=tuple(rows),
        slope_total=slope_total,
        slope_first_test=slope_first,
        constant_cv=tuple(cv_rows),
        max_rel_error=tuple(err_rows),
    )
