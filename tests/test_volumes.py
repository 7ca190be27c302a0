"""Ball/skew-ball volumes, ratio limits, p-adic masses, residue fits."""

import math
import random
from fractions import Fraction

import pytest

from orbitlab.errors import DegenerateSpanError
from orbitlab.volumes import (
    AsymptoticProfile,
    RatioLimitResult,
    SqrtPower,
    StabilizerBall,
    SymSquareUnipotentBall,
    UnipotentPairBall,
    fit_asymptotics,
    padic_sl2_ball_volume,
    skew_ball_ratio_limit,
    slope_fit,
    stab_ball_volume_sl2r,
)
from orbitlab.places import floor_log, padic_abs

from oracles import hnf_primitive_count, padic_ball_mass_oracle, sym2_mass_oracle


# ---------------------------------------------------------------------------
# exact sqrt(p) powers

def test_sqrt_power_normalization():
    x = SqrtPower.make(1, 2, 5)  # 2^(5/2) = 4 sqrt(2)
    assert x.mantissa == 4 and x.k == 1
    assert float(x) == pytest.approx(4 * math.sqrt(2))
    y = SqrtPower.from_half_exponent(3, -3)  # 3^(-3/2) = (1/3) * 3^(-1/2)?
    assert float(y) == pytest.approx(3 ** -1.5)
    assert SqrtPower.make(Fraction(7, 2), 5, 0).as_fraction() == Fraction(7, 2)


def test_sqrt_power_arithmetic():
    a = SqrtPower.make(3, 2, 1)
    b = SqrtPower.make(Fraction(1, 2), 2, 1)
    assert (a * b).as_fraction() == 3  # 3 sqrt2 * (1/2) sqrt2 = 3
    assert (a / b).as_fraction() == 6
    c = SqrtPower.make(5, 3, 0)
    assert (a * c) == SqrtPower.make(15, 2, 1)
    with pytest.raises(ValueError):
        _ = a * SqrtPower.make(1, 3, 1)
    assert float(a / c) == pytest.approx(0.6 * math.sqrt(2))


def test_sqrt_power_serialize_roundtrip():
    for m, p, k in [(Fraction(3, 4), 2, 1), (Fraction(-2), 5, 0),
                    (Fraction(125), 5, 7)]:
        x = SqrtPower.make(m, p, k)
        assert SqrtPower.parse(x.serialize()) == x
    assert SqrtPower.make(1, 2, 2).serialize() == "2/1*sqrt(2)^0"


# ---------------------------------------------------------------------------
# stabilizer balls in SL(2,R)

def test_stab_ball_volume_examples():
    assert stab_ball_volume_sl2r((1, 0), math.sqrt(6)) == pytest.approx(4.0)
    assert stab_ball_volume_sl2r((1, 0), 1.0) == 0.0
    # at the float sqrt(2) boundary only rounding dust can survive
    assert stab_ball_volume_sl2r((1, 0), math.nextafter(math.sqrt(2), 0)) == 0.0
    assert stab_ball_volume_sl2r((1, 0), math.sqrt(2)) < 1e-7
    # scaling: mass goes like 1/|v|^2
    assert stab_ball_volume_sl2r((2, 0), 10.0) == pytest.approx(
        stab_ball_volume_sl2r((1, 0), 10.0) / 4.0
    )
    with pytest.raises(ValueError):
        stab_ball_volume_sl2r((0, 0), 10.0)


def _skew_volume_oracle(v, g, t, grid=4_000_000):
    """Interval length of {s: |(I+sN)g|_F <= t} by explicit quadratic

    coefficients computed entrywise from scratch (numpy-free)."""
    vx, vy = float(v[0]), float(v[1])
    n = [[-vx * vy, vx * vx], [-vy * vy, vx * vy]]
    rows = []
    for i in range(2):
        for j in range(2):
            const = float(g[i][j])
            lin = sum(n[i][l] * float(g[l][j]) for l in range(2))
            rows.append((const, lin))
    # sum (const + s lin)^2 <= t^2
    a = sum(l * l for _, l in rows)
    b = 2 * sum(c * l for c, l in rows)
    c = sum(c * c for c, _ in rows) - t * t
    disc = b * b - 4 * a * c
    if disc <= 0:
        return 0.0
    return (math.sqrt(disc) - 0.0) / a


def test_stab_skew_volume_against_quadratic_oracle():
    rng = random.Random(41)
    ball = None
    for _ in range(50):
        v = (rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(v[0]) + abs(v[1]) < 0.1:
            continue
        g = [[rng.uniform(-1.5, 1.5) for _ in range(2)] for _ in range(2)]
        if abs(g[0][0] * g[1][1] - g[0][1] * g[1][0]) < 0.05:
            continue
        t = rng.uniform(2.0, 40.0)
        ball = StabilizerBall(v)
        assert ball.skew_volume(g, t) == pytest.approx(
            _skew_volume_oracle(v, g, t), rel=1e-10, abs=1e-12
        )
    # identity translator reduces to the plain ball
    assert ball.skew_volume([[1, 0], [0, 1]], 9.0) == pytest.approx(
        ball.ball_volume(9.0)
    )


def _random_sl2r(rng):
    while True:
        g = [[rng.uniform(-2, 2) for _ in range(2)] for _ in range(2)]
        det = g[0][0] * g[1][1] - g[0][1] * g[1][0]
        if abs(det) > 0.1:
            s = 1.0 / math.sqrt(abs(det))
            g = [[e * s for e in row] for row in g]
            if det < 0:
                g[0], g[1] = g[1], g[0]
            return g


def test_stab_closed_form_equals_duality_form_on_sl2():
    # |N|/|Ng| = |v|/|g^-1 v| whenever det g = 1
    rng = random.Random(42)
    for _ in range(100):
        v = (rng.uniform(-3, 3), rng.uniform(0.2, 3))
        g = _random_sl2r(rng)
        (a, b), (c, d) = g
        w = (d * v[0] - b * v[1], -c * v[0] + a * v[1])  # g^-1 v
        assert StabilizerBall(v).ratio_closed_form(g) == pytest.approx(
            math.hypot(*v) / math.hypot(*w), rel=1e-10
        )


def test_stab_ratio_limit_converges_to_closed_form():
    rng = random.Random(43)
    for _ in range(20):
        v = (rng.uniform(-3, 3), rng.uniform(0.2, 3))
        g = _random_sl2r(rng)
        ball = StabilizerBall(v)
        res = skew_ball_ratio_limit(ball, g, t0=8.0, steps=20, tol=1e-6)
        assert res.converged
        assert res.estimates[0] == pytest.approx(res.closed_form, rel=1e-4)
    assert isinstance(res, RatioLimitResult)


# ---------------------------------------------------------------------------
# the sym-square unipotent case

@pytest.mark.parametrize("p", [2, 3, 5])
def test_sym2_plain_and_skew_closed_forms(p):
    ball = SymSquareUnipotentBall(p)
    for n in range(0, 41):
        vol = ball.ball_volume(n)
        assert vol == SqrtPower.from_half_exponent(p, n + 2 * (n // 2))
        if n >= 1:
            skew = ball.skew_volume((0, 0, 0), (1, 0, -1), n)
            assert skew == SqrtPower.from_half_exponent(p, n + 2 * ((n - 1) // 2))


@pytest.mark.parametrize("p", [2, 3])
def test_sym2_against_constraint_scan_oracle(p):
    rng = random.Random(44)
    ball = SymSquareUnipotentBall(p)
    for _ in range(120):
        n = rng.randint(0, 9)
        e = tuple(rng.randint(-2, 2) for _ in range(3))
        f = tuple(rng.randint(-2, 2) for _ in range(3))
        got = float(ball.skew_volume(e, f, n))
        want = sym2_mass_oracle(p, n, e, f)
        assert got == pytest.approx(want, rel=1e-9), (n, e, f)


def test_sym2_ratio_parity_classes():
    for p in (2, 3, 5):
        ball = SymSquareUnipotentBall(p)
        ratios = [r.as_fraction() for r in ball.ratio_sequence(range(1, 25))]
        odd = {r for n, r in zip(range(1, 25), ratios) if n % 2 == 1}
        even = {r for n, r in zip(range(1, 25), ratios) if n % 2 == 0}
        assert odd == {Fraction(1)}
        assert even == {Fraction(1, p)}


def test_sym2_ratio_limit_classifier():
    res = skew_ball_ratio_limit(SymSquareUnipotentBall(3), ((0, 0, 0), (1, 0, -1)),
                                steps=20)
    assert res.converged and res.modulus == 2
    assert res.estimates[1] == pytest.approx(1.0)
    assert res.estimates[0] == pytest.approx(1.0 / 3.0)


def test_sym2_empty_when_translator_exceeds_radius():
    ball = SymSquareUnipotentBall(2)
    assert float(ball.skew_volume((3, 0, 0), (0, 0, 0), 2)) == 0.0
    assert float(ball.skew_volume((0, 0, 0), (0, 0, -3), 2)) == 0.0


# ---------------------------------------------------------------------------
# product stabilizer pairs

def test_unipair_plain_padic_factor():
    ball = UnipotentPairBall((1, math.sqrt(2)), (1, 5), 2)
    # mass = p^E(log_p t) / |v|_p^2 and |（1,5)|_2 = 1
    for j in range(0, 8):
        assert ball.padic_factor(((1, 0), (0, 1)), Fraction(2) ** j) == Fraction(2) ** j
    ball2 = UnipotentPairBall((1, math.sqrt(2)), (Fraction(1, 2), 3), 2)
    # |v|_2 = 2 so masses shrink by 4
    for j in range(2, 8):
        assert ball2.padic_factor(((1, 0), (0, 1)), Fraction(2) ** j) == Fraction(2) ** (j - 2)


def _in_skew_set(v, g_p, p, t, u):
    """Direct membership test for {u : |(I + u N) g|_p <= t}."""
    n_mat = ((-v[0] * v[1], v[0] * v[0]), (-v[1] * v[1], v[0] * v[1]))
    for i in range(2):
        for j in range(2):
            entry = g_p[i][j] + u * sum(n_mat[i][l] * g_p[l][j] for l in range(2))
            if padic_abs(entry, p) > t:
                return False
    return True


def test_unipair_padic_factor_pins_ball_radius():
    # The skew set is an ultrametric ball; if its mass is p^k, it must
    # contain u0 + t for every |t| <= p^k and nothing at distance
    # p^(k+1).  Pin the implementation's answer from both sides.
    rng = random.Random(45)
    checked = 0
    for p in (2, 3):
        for _ in range(25):
            v = (Fraction(rng.randint(-6, 6)), Fraction(rng.randint(-6, 6)))
            if v[0] == 0 and v[1] == 0:
                continue
            g_p = ((Fraction(rng.randint(-9, 9), rng.choice([1, p])),
                    Fraction(rng.randint(-9, 9))),
                   (Fraction(rng.randint(-9, 9)),
                    Fraction(rng.randint(-9, 9), rng.choice([1, p]))))
            if g_p[0][0] * g_p[1][1] - g_p[0][1] * g_p[1][0] == 0:
                continue
            t = Fraction(p) ** rng.randint(0, 6)
            ball = UnipotentPairBall((1, 1), v, p)
            mass = ball.padic_factor(g_p, t)
            if mass == 0:
                continue
            k = floor_log(mass, p)
            assert mass == Fraction(p) ** k
            # scan for one member with small denominator
            u0 = None
            for a in range(-(p**4), p**4 + 1):
                cand = Fraction(a, p**3)
                if _in_skew_set(v, g_p, p, t, cand):
                    u0 = cand
                    break
            # members can hide at large denominators; skip those draws
            if u0 is None:
                continue
            checked += 1
            for a in (1, p + 1, 2 * p + 1):  # all prime to p
                assert _in_skew_set(v, g_p, p, t, u0 + a * Fraction(p) ** (-k))
                assert not _in_skew_set(v, g_p, p, t, u0 + a * Fraction(p) ** (-k - 1))
    assert checked >= 20


def test_unipair_ratio_limit():
    ball = UnipotentPairBall((1, math.sqrt(2)), (1, 5), 2)
    g_inf = ((1, Fraction(1, 2)), (0, 1))
    g_p = ((2, 0), (0, Fraction(1, 2)))
    res = skew_ball_ratio_limit(ball, (g_inf, g_p), steps=22, tol=1e-3)
    assert res.converged


# ---------------------------------------------------------------------------
# p-adic SL(2) ball masses

@pytest.mark.parametrize("p", [2, 3, 5])
def test_padic_ball_against_hnf_oracle_small(p):
    for j in range(0, 4):
        assert padic_sl2_ball_volume(p, j) == padic_ball_mass_oracle(p, j)


def test_padic_ball_cell_counts():
    # level-a cell count is (p+1) p^(2a-1): check the delta of the oracle
    for p in (2, 3):
        for a in (1, 2, 3):
            delta = padic_sl2_ball_volume(p, a) - padic_sl2_ball_volume(p, a - 1)
            assert delta == hnf_primitive_count(p, p ** (2 * a))
            assert delta == (p + 1) * p ** (2 * a - 1)


def test_padic_ball_ratio_tends_to_p_squared():
    for p in (2, 3, 5):
        r = padic_sl2_ball_volume(p, 8) / padic_sl2_ball_volume(p, 7)
        assert abs(float(r) - p * p) / (p * p) < 0.02


# ---------------------------------------------------------------------------
# residue-class asymptotics

def test_fit_asymptotics_sym2_volumes():
    p = 3
    ball = SymSquareUnipotentBall(p)
    ts = [p**n for n in range(1, 33)]
    vols = [float(ball.ball_volume(n)) for n in range(1, 33)]
    prof = fit_asymptotics(ts, vols, p, moduli=(1, 2))
    assert isinstance(prof, AsymptoticProfile)
    assert prof.ok and prof.modulus == 2
    for r in (0, 1):
        c, d, e = prof.classes[r]
        assert abs(d - 1.0) < 1e-3
        assert e == 0
    # class constants differ by sqrt(p): even classes c=1, odd c=p^(-1/2)
    assert prof.classes[0][0] / prof.classes[1][0] == pytest.approx(
        math.sqrt(p), rel=1e-6
    )


def test_fit_asymptotics_padic_factor_half_power():
    p = 2
    ts = [p**n for n in range(1, 33)]
    vols = [float(p) ** (n // 2) for n in range(1, 33)]
    prof = fit_asymptotics(ts, vols, p, moduli=(1, 2))
    assert prof.ok and prof.modulus == 2
    for r in (0, 1):
        assert prof.classes[r][1] == pytest.approx(0.5, abs=1e-9)


def test_fit_asymptotics_ratio_data_constant_classes():
    p = 5
    ts = [p**n for n in range(1, 33)]
    vols = [1.0 if n % 2 else 1.0 / p for n in range(1, 33)]
    prof = fit_asymptotics(ts, vols, p, moduli=(1, 2))
    assert prof.ok and prof.modulus == 2
    assert prof.classes[1] == pytest.approx((1.0, 0.0, 0))
    assert prof.classes[0][0] == pytest.approx(1.0 / p)
    # the two class constants differ by a factor of p
    assert prof.classes[1][0] / prof.classes[0][0] == pytest.approx(p)


def test_fit_asymptotics_flags_modulus_one():
    p = 2
    ts = [p**n for n in range(1, 33)]
    vols = [float(SymSquareUnipotentBall(p).ball_volume(n)) for n in range(1, 33)]
    prof = fit_asymptotics(ts, vols, p, moduli=(1,))
    assert not prof.ok
    assert "fit failure" in prof.message


def test_fit_asymptotics_scale_equivariance():
    p = 2
    ts = [p**n for n in range(1, 25)]
    vols = [3.0 * t**2 for t in ts]
    a = fit_asymptotics(ts, vols, p, moduli=(1,))
    b = fit_asymptotics(ts, [7.5 * v for v in vols], p, moduli=(1,))
    assert a.ok and b.ok
    assert b.classes[0][0] / a.classes[0][0] == pytest.approx(7.5)
    assert b.classes[0][1] == pytest.approx(a.classes[0][1])


def test_fit_asymptotics_with_log_factor():
    p = 2
    ts = [p**n for n in range(2, 34)]
    vols = [4.0 * t * math.log(t) for t in ts]
    prof = fit_asymptotics(ts, vols, p, moduli=(1,))
    assert prof.ok
    c, d, e = prof.classes[0]
    assert e == 1 and abs(d - 1.0) < 1e-9 and c == pytest.approx(4.0)


def test_fit_asymptotics_preconditions():
    with pytest.raises(ValueError):
        fit_asymptotics([2.0, 4.0], [1.0, 2.0], 2)  # too few per class
    with pytest.raises(ValueError):
        fit_asymptotics([0.5] * 16, [1.0] * 16, 2)


# ---------------------------------------------------------------------------
# log-log slope fitting

def test_slope_fit_recovers_power_law():
    ts = [10.0 * 2**k for k in range(6)]
    counts = [0.7 * t**2.5 for t in ts]
    slope, err = slope_fit(ts, counts)
    assert slope == pytest.approx(2.5, abs=1e-9)
    assert err < 1e-9


def test_slope_fit_noisy_power_law():
    rng = random.Random(5)
    ts = [10.0 * 2**k for k in range(8)]
    counts = [5.0 * t**2 * (1 + rng.uniform(-0.01, 0.01)) for t in ts]
    slope, err = slope_fit(ts, counts)
    assert abs(slope - 2.0) < 0.05


def test_slope_fit_degenerate_span():
    with pytest.raises(DegenerateSpanError):
        slope_fit([10, 20, 40], [1, 2, 3])
    with pytest.raises(DegenerateSpanError):
        slope_fit([10, 11, 12, 13, 14], [1, 2, 3, 4, 5])


def test_floor_log_exact_at_boundaries():
    assert floor_log(8, 2) == 3
    assert floor_log(7.999999, 2) == 2
    assert floor_log(Fraction(1, 9), 3) == -2
    assert floor_log(float(5**12), 5) == 12
    with pytest.raises(ValueError):
        floor_log(0, 2)


@pytest.mark.parametrize("p", [1, 0, -2])
def test_floor_log_rejects_base_below_two(p):
    # p^j never passes x for p <= 1: the search would not end
    with pytest.raises(ValueError):
        floor_log(5, p)
