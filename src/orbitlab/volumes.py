"""Volumes of balls and skew balls in subgroups of products of places.

Three families of subgroup are supported:

* ``StabilizerBall`` -- the unipotent stabilizer of a nonzero row
  vector v inside SL(2,R), parametrized as {I + s N} with N = v (Jv)^T
  nilpotent.  Haar mass is interval length in s.
* ``SymSquareUnipotentBall`` -- the one-parameter unipotent of SL(3)
  whose entries grow like (1, s, s^2) in an adapted basis, placed
  diagonally in SL(3,R) x SL(3,Q_p) with max norms on both factors.
  Its s-interval at the archimedean place is normalized to mass L for
  {|s| <= L}, and Haar on Q_p gives Z_p mass 1; all volumes are then
  exact powers of sqrt(p).
* ``UnipotentPairBall`` -- a product Stab(v_inf) x Stab(v_p) inside
  SL(2,R) x SL(2,Q_p), Frobenius norm at infinity and max norm at p.

Skew balls are {h in H : D(h g) <= t} for a translator g; their
volumes divided by the plain ball volume converge along residue
classes of E(ln_p t), and that limit is what the ratio routines
estimate (with closed forms where available).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DegenerateSpanError
from .places import as_rational, floor_log, padic_abs, surd_float

__all__ = [
    "SqrtPower",
    "StabilizerBall",
    "SymSquareUnipotentBall",
    "UnipotentPairBall",
    "RatioLimitResult",
    "AsymptoticProfile",
    "skew_ball_ratio_limit",
    "stab_ball_volume_sl2r",
    "padic_sl2_ball_volume",
    "fit_asymptotics",
    "slope_fit",
]


# ---------------------------------------------------------------------------
# exact values a/b * sqrt(p)^k

@dataclass(frozen=True)
class SqrtPower:
    """Exact value mantissa * sqrt(p)^k, normalized so k is 0 or 1."""

    mantissa: Fraction
    p: int
    k: int = 0

    @classmethod
    def make(cls, mantissa, p: int, k: int = 0) -> "SqrtPower":
        m = as_rational(mantissa)
        if m == 0:
            return cls(Fraction(0), p, 0)
        m *= Fraction(p) ** (k // 2)
        return cls(m, p, k % 2)

    @classmethod
    def from_half_exponent(cls, p: int, num: int) -> "SqrtPower":
        """p^(num/2) as an exact value."""
        return cls.make(1, p, num)

    def __mul__(self, other):
        if isinstance(other, SqrtPower):
            if other.p != self.p and self.k and other.k:
                raise ValueError("incompatible surds")
            p = self.p if self.k else other.p
            return SqrtPower.make(self.mantissa * other.mantissa, p, self.k + other.k)
        return SqrtPower.make(self.mantissa * as_rational(other), self.p, self.k)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, SqrtPower):
            return SqrtPower.make(self.mantissa / as_rational(other), self.p, self.k)
        if other.mantissa == 0:
            raise ZeroDivisionError
        if other.k == 0:
            return SqrtPower.make(self.mantissa / other.mantissa, self.p, self.k)
        if self.k and self.p != other.p:
            raise ValueError("incompatible surds")
        # 1/sqrt(p) = sqrt(p)/p
        return SqrtPower.make(self.mantissa / other.mantissa / other.p,
                              other.p, self.k + 1)

    def __float__(self):
        return surd_float((self.mantissa, self.p if self.k else 1))

    def __eq__(self, other):
        if isinstance(other, SqrtPower):
            return (self.mantissa, self.k and self.p, self.k) == (
                other.mantissa, other.k and other.p, other.k)
        return self.k == 0 and self.mantissa == other

    def __hash__(self):
        return hash((self.mantissa, self.k and self.p, self.k))

    def as_fraction(self) -> Fraction:
        if self.k:
            raise ValueError("not rational")
        return self.mantissa

    def serialize(self) -> str:
        m = self.mantissa
        return f"{m.numerator}/{m.denominator}*sqrt({self.p})^{self.k}"

    @classmethod
    def parse(cls, text: str) -> "SqrtPower":
        mant, rest = text.split("*sqrt(")
        p, k = rest.rstrip(")").split(")^") if ")^" in rest else (rest, "0")
        return cls.make(Fraction(mant), int(p), int(k))

    def __repr__(self):
        return f"SqrtPower({self.serialize()})"


# ---------------------------------------------------------------------------
# stabilizer of a vector in SL(2,R)

def _nilpotent_for(v):
    """N = v (Jv)^T; Stab(v) = {I + s N}."""
    vx, vy = (float(e) for e in v)
    ux, uy = -vy, vx
    return ((vx * ux, vx * uy), (vy * ux, vy * uy))


@dataclass(frozen=True)
class StabilizerBall:
    """Stab(v) in SL(2,R) under the Frobenius norm."""

    v: tuple

    def nilpotent(self):
        return _nilpotent_for(self.v)

    def ball_volume(self, t: float) -> float:
        return stab_ball_volume_sl2r(self.v, t)

    def skew_quadratic(self, g):
        """(a, b, c) with |(I + sN) g|_F^2 = a s^2 + b s + c."""
        n = self.nilpotent()
        gf = [[float(e) for e in row] for row in g]
        ng = [[sum(n[i][l] * gf[l][j] for l in range(2)) for j in range(2)]
              for i in range(2)]
        a = sum(e * e for row in ng for e in row)
        b = 2.0 * sum(ng[i][j] * gf[i][j] for i in range(2) for j in range(2))
        c = sum(e * e for row in gf for e in row)
        return a, b, c

    def skew_volume(self, g, t: float) -> float:
        """Mass of {s : |(I + sN) g|_F <= t}: an interval length."""
        return _quadratic_interval_length(*self.skew_quadratic(g), t)

    def ratio_closed_form(self, g) -> float:
        """lim_t skew/plain = |N|_F / |N g|_F.

        For det g = 1 this equals |v| / |g^-1 v|, the duality form.
        """
        n = self.nilpotent()
        return math.sqrt(sum(e * e for row in n for e in row)
                         / self.skew_quadratic(g)[0])


def _quadratic_interval_length(a, b, c, t: float) -> float:
    """Length of {s : a s^2 + b s + c <= t^2}, a > 0."""
    disc = b * b - 4.0 * a * (c - t * t)
    if disc <= 0.0:
        return 0.0
    return math.sqrt(disc) / a


def stab_ball_volume_sl2r(v, t: float) -> float:
    """Mass of {s : |I + s N|_F <= t}; zero below the threshold sqrt(2).

    |I + sN|_F^2 = 2 + s^2 |v|^4, so the interval is
    |s| <= sqrt(t^2 - 2)/|v|^2 and its length is the mass.
    """
    t = float(t)
    if t * t <= 2.0:
        return 0.0
    nv2 = sum(float(e) ** 2 for e in v)
    if nv2 == 0.0:
        raise ValueError("v must be nonzero")
    return 2.0 * math.sqrt(t * t - 2.0) / nv2


# ---------------------------------------------------------------------------
# the sym-square unipotent in SL(3,R) x SL(3,Q_p)

@dataclass(frozen=True)
class SymSquareUnipotentBall:
    """One-parameter unipotent with entry profile (1, s, s^2).

    Both factors carry the max norm taken in the adapted basis, and the
    translator is restricted to diagonal pairs whose entries are powers
    of p, given here by integer exponent vectors.  Every volume is an
    exact power of sqrt(p).
    """

    p: int

    # (row, col, degree): off-diagonal entry (i,j) is s^(j-i) * g_col
    _PROFILE = ((0, 1, 1), (1, 2, 1), (0, 2, 2))

    def ball_volume(self, n: int) -> SqrtPower:
        return self.skew_volume((0, 0, 0), (0, 0, 0), n)

    def skew_volume(self, g_inf_exps, g_p_exps, n: int) -> SqrtPower:
        """Volume of {h : D(h g) <= p^n} for diagonal g = (p^e_j) pairs.

        Archimedean factor: each entry s^k g_j gives |s| <= p^((n-e_j)/k),
        so the mass is p^min_k((n-e_j)/k), an exact half power.  Finite
        factor: v_p(s) >= ceil(-(n+f_j)/k) per entry, so the mass is
        p^-max_k(ceil(...)).  Diagonal entries must fit on both sides or
        the ball is empty.
        """
        p, prof = self.p, self._PROFILE
        e, f = tuple(g_inf_exps), tuple(g_p_exps)
        if len(e) != 3 or len(f) != 3:
            raise ValueError("three diagonal exponents per place")
        if max(e) > n or min(f) < -n:
            return SqrtPower.make(0, p)
        half = min((2 * (n - e[j])) // k for _, j, k in prof)
        vmin = max(-((n + f[j]) // k) for _, j, k in prof)
        return SqrtPower.from_half_exponent(p, half) * SqrtPower.make(
            Fraction(p) ** (-vmin), p
        )

    def ratio_sequence(self, n_values, g_p_exps=(1, 0, -1), g_inf_exps=(0, 0, 0)):
        """Exact skew/plain ratios along radii p^n, as SqrtPower values.

        For translators supported at the finite place only, the surd
        parts cancel and .as_fraction() on each entry is exact.
        """
        out = []
        for n in n_values:
            skew = self.skew_volume(g_inf_exps, g_p_exps, n)
            plain = self.ball_volume(n)
            out.append(skew / plain)
        return out


# ---------------------------------------------------------------------------
# product of vector stabilizers over two places

@dataclass(frozen=True)
class UnipotentPairBall:
    """Stab(v_inf) x Stab(v_p) in SL(2,R) x SL(2,Q_p).

    Frobenius norm at infinity, max entry norm at p; the two parameters
    are independent so volumes factor place by place.
    """

    v_inf: tuple
    v_p: tuple
    p: int

    def _stab(self):
        return StabilizerBall(self.v_inf)

    def padic_factor(self, g_p, t_p) -> Fraction:
        """Mass of {u in Q_p : |(I + u N_p) g_p|_p <= t_p}.

        Each entry is a_ij + u b_ij, an ultrametric ball condition in u;
        the intersection of the four balls is again a ball (or empty),
        and its mass is p^floor(log_p r).
        """
        p = self.p
        v = tuple(as_rational(e) for e in self.v_p)
        nu = (-v[1], v[0])
        npad = tuple(tuple(v[i] * nu[j] for j in range(2)) for i in range(2))
        g = tuple(tuple(as_rational(e) for e in row) for row in g_p)
        t_p = as_rational(t_p) if not isinstance(t_p, float) else t_p
        center, radius = None, None
        for i in range(2):
            for j in range(2):
                a = g[i][j]
                b = sum(npad[i][l] * g[l][j] for l in range(2))
                if b == 0:
                    if padic_abs(a, p) > t_p:
                        return Fraction(0)
                    continue
                c = -a / b
                r = t_p / padic_abs(b, p)
                if center is None:
                    center, radius = c, r
                    continue
                if padic_abs(center - c, p) > max(radius, r):
                    return Fraction(0)
                if r < radius:
                    center, radius = c, r
        if radius is None:
            raise ValueError("degenerate stabilizer")
        return Fraction(p) ** floor_log(radius, p)

    def ball_volume(self, t_inf, t_p):
        return self._stab().ball_volume(t_inf) * float(
            self.padic_factor(((1, 0), (0, 1)), t_p)
        )

    def skew_volume(self, g_inf, g_p, t_inf, t_p):
        return self._stab().skew_volume(g_inf, t_inf) * float(
            self.padic_factor(g_p, t_p)
        )


# ---------------------------------------------------------------------------
# ratio limits

@dataclass
class RatioLimitResult:
    """Per-residue-class limits of skew/plain volume ratios."""

    modulus: int
    estimates: dict
    converged: bool
    closed_form: float | None = None


def skew_ball_ratio_limit(case, g, t0=4.0, steps=24, tol=1e-4) -> RatioLimitResult:
    """Estimate lim_t vol(H_t(g))/vol(H_t) along residue classes.

    Archimedean-only cases use a doubling ladder with Richardson
    acceleration in 1/t^2 (the ratio expands as L(1 + a/t^2 + ...)).
    Cases with a finite place are evaluated along t = p^n and split by
    classes of n; divergence on the full sequence is retried on finer
    classes before flagging.
    """
    if isinstance(case, StabilizerBall):
        ts = [t0 * 2.0**k for k in range(steps)]
        quad = case.skew_quadratic(g)  # once per translator, not per t
        raw = [_quadratic_interval_length(*quad, t) / case.ball_volume(t)
               for t in ts]
        acc = [(4.0 * b - a) / 3.0 for a, b in zip(raw, raw[1:])]
        est, converged = _settle(acc, tol)
        return RatioLimitResult(
            modulus=1,
            estimates={0: est},
            converged=converged,
            closed_form=case.ratio_closed_form(g),
        )
    if isinstance(case, SymSquareUnipotentBall):
        seq = [float(r) for r in case.ratio_sequence(range(1, steps + 1),
                                                     g_p_exps=g[1],
                                                     g_inf_exps=g[0])]
        return _classify_sequence(seq, tol, offset=1)
    if isinstance(case, UnipotentPairBall):
        p = case.p
        seq = []
        for n in range(1, steps + 1):
            t = float(p) ** n
            plain = case.ball_volume(t, Fraction(p) ** n)
            if plain == 0.0:
                seq.append(math.nan)
                continue
            seq.append(case.skew_volume(g[0], g[1], t, Fraction(p) ** n) / plain)
        return _classify_sequence(seq, tol, offset=1)
    raise TypeError(f"unsupported case {type(case).__name__}")


def _settle(values, tol):
    """Last value plus a 3-successive-within-tol convergence verdict."""
    for i in range(len(values) - 2):
        a, b, c = values[i : i + 3]
        scale = max(abs(c), 1e-30)
        if abs(a - c) <= tol * scale and abs(b - c) <= tol * scale:
            return c, True
    return values[-1], False


def _classify_sequence(seq, tol, offset=0):
    """Split a sequence over residue classes of its index until each
    class settles; modulus grows 1 -> 2 -> 4 before giving up."""
    for modulus in (1, 2, 4):
        classes, ok = {}, True
        for r in range(modulus):
            sub = [s for i, s in enumerate(seq) if (i + offset) % modulus == r]
            sub = [s for s in sub if not math.isnan(s)]
            if len(sub) < 3:
                ok = False
                break
            est, conv = _settle(sub, tol)
            classes[r] = est
            ok = ok and conv
        if ok:
            return RatioLimitResult(modulus=modulus, estimates=classes,
                                    converged=True)
    return RatioLimitResult(modulus=0, estimates=classes, converged=False)


# ---------------------------------------------------------------------------
# balls in SL(2,Q_p)

def padic_sl2_ball_volume(p: int, j: int) -> Fraction:
    """Mass of {g in SL(2,Q_p) : |g|_p <= p^j}, K = SL(2,Z_p) mass 1.

    The ball is a disjoint union of cells K a K with a = diag(p^a, p^-a),
    0 <= a <= j, and the cell mass equals its number of right K-cosets:
    1 for a = 0, and for a >= 1 the geometric-series count

        sum_{i=0..2a} p^i - sum_{i=1..2a-1} p^(i-1)

    of primitive Hermite points of determinant p^(2a).
    """
    if j < 0:
        raise ValueError("radius exponent must be >= 0")
    total = Fraction(1)
    for a in range(1, j + 1):
        full = (p ** (2 * a + 1) - 1) // (p - 1)
        imprimitive = (p ** (2 * a - 1) - 1) // (p - 1)
        total += full - imprimitive
    return total


# ---------------------------------------------------------------------------
# residue-class asymptotics

@dataclass
class AsymptoticProfile:
    """Fitted volume law c * t^d * (log t)^e per residue class.

    ``classes`` maps a residue r (of E(ln_p t) mod modulus) to a
    (c, d, e) triple; ``residuals`` holds the per-class RMS residual in
    log space; ``ok`` is False when no candidate modulus fit within
    tolerance, in which case the best failing candidate is reported.
    """

    p: int
    modulus: int
    classes: dict
    residuals: dict
    ok: bool
    message: str = ""


def fit_asymptotics(ts, vols, p, moduli=(1, 2), e_candidates=(0, 1, 2),
                    tol=1e-6, min_per_class=8) -> AsymptoticProfile:
    """Fit log v = log c + d log t + e log log t per residue class.

    Classes partition samples by E(ln_p t) mod N for candidate moduli N;
    the exponent e is chosen from small naturals per class; N is the
    smallest candidate whose every class fits with RMS log-residual
    under tol and has at least min_per_class samples.
    """
    # class labels come from the exact radii; only the regression uses floats
    js = [floor_log(t, p) for t in ts]
    ts = [float(t) for t in ts]
    vols = [float(v) for v in vols]
    if len(ts) != len(vols) or not ts:
        raise ValueError("need matching nonempty samples")
    if min(ts) <= 1.0 or min(vols) <= 0.0:
        raise ValueError("radii above 1 and positive volumes required")
    logt = np.log(ts)
    loglogt = np.log(logt)
    logv = np.log(vols)

    attempts = {}
    for modulus in moduli:
        classes, residuals, valid = {}, {}, True
        for r in range(modulus):
            sel = np.array([j % modulus == r for j in js])
            if sel.sum() < min_per_class:
                valid = False
                break
            best = None
            for e in e_candidates:
                design = np.column_stack([np.ones(sel.sum()), logt[sel]])
                target = logv[sel] - e * loglogt[sel]
                coef, *_ = np.linalg.lstsq(design, target, rcond=None)
                rms = float(np.sqrt(np.mean((design @ coef - target) ** 2)))
                if best is None or rms < best[0] - tol:
                    best = (rms, e, coef)
            rms, e, coef = best
            classes[r] = (float(np.exp(coef[0])), float(coef[1]), e)
            residuals[r] = rms
        if not valid:
            attempts[modulus] = None
            continue
        attempts[modulus] = (classes, residuals)
        if max(residuals.values()) <= tol:
            return AsymptoticProfile(p=p, modulus=modulus, classes=classes,
                                     residuals=residuals, ok=True)
    # no candidate converged: report the best failing one
    scored = [(max(res.values()), m, cls, res)
              for m, payload in attempts.items() if payload
              for cls, res in [payload]]
    if not scored:
        raise ValueError("no modulus candidate has enough samples per class")
    worst, modulus, classes, residuals = min(scored)
    return AsymptoticProfile(p=p, modulus=modulus, classes=classes,
                             residuals=residuals, ok=False,
                             message=f"fit failure: best rms {worst:.3g} over tol {tol:.3g}")


def slope_fit(ts, counts):
    """Log-log least squares slope with its standard error.

    Needs at least 5 ladder points spanning a factor of 8, otherwise
    the fit is meaningless and a DegenerateSpanError is raised.
    """
    ts = np.asarray([float(t) for t in ts])
    counts = np.asarray([float(c) for c in counts])
    if len(ts) < 5 or ts.max() / ts.min() < 8.0:
        raise DegenerateSpanError(
            f"need >= 5 points spanning 8x, got {len(ts)} points "
            f"spanning {ts.max() / ts.min():.2g}x")
    if np.any(counts <= 0):
        raise ValueError("counts must be positive for a log-log fit")
    x, y = np.log(ts), np.log(counts)
    design = np.column_stack([np.ones_like(x), x])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    dof = max(len(x) - 2, 1)
    sxx = float(np.sum((x - x.mean()) ** 2))
    stderr = float(np.sqrt(np.sum(resid**2) / dof / sxx))
    return float(coef[1]), stderr
