"""Valuations, place absolute values, and their algebraic laws."""

import math
import random
from fractions import Fraction

import pytest

from orbitlab.places import (
    as_rational,
    evaluate_symbolic,
    is_prime,
    padic_abs,
    padic_valuation,
    parse_surd,
    surd_float,
)
from orbitlab.volumes import SqrtPower


def test_valuation_basics():
    assert padic_valuation(12, 2) == 2
    assert padic_valuation(12, 3) == 1
    assert padic_valuation(Fraction(5, 8), 2) == -3
    assert padic_valuation(Fraction(-9, 7), 3) == 2
    assert padic_valuation(1, 5) == 0
    assert padic_valuation(0, 7) == math.inf


def test_padic_abs_values():
    assert padic_abs(12, 2) == Fraction(1, 4)
    assert padic_abs(Fraction(5, 8), 2) == 8
    assert padic_abs(0, 3) == 0
    assert padic_abs(-50, 5) == Fraction(1, 25)


def test_is_prime_small():
    primes = [2, 3, 5, 7, 11, 13, 97, 101, 7919]
    comps = [0, 1, 4, 6, 9, 91, 561, 7917]
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(c) for c in comps)


def test_ultrametric_and_multiplicativity():
    rng = random.Random(20240601)
    for _ in range(300):
        p = rng.choice([2, 3, 5, 7])
        x = Fraction(rng.randint(-60, 60), rng.randint(1, 40))
        y = Fraction(rng.randint(-60, 60), rng.randint(1, 40))
        ax, ay = padic_abs(x, p), padic_abs(y, p)
        assert padic_abs(x * y, p) == ax * ay
        assert padic_abs(x + y, p) <= max(ax, ay)
        if ax != ay:
            assert padic_abs(x + y, p) == max(ax, ay)


def test_product_formula():
    # |x| * prod_p |x|_p = 1 over the primes dividing numerator and denominator
    rng = random.Random(7)
    for _ in range(100):
        x = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
        prod = Fraction(1)
        n = (x.numerator * x.denominator)
        p, m = 2, n
        while p * p <= m:
            if m % p == 0:
                prod *= padic_abs(x, p)
                while m % p == 0:
                    m //= p
            p += 1
        if m > 1:
            prod *= padic_abs(x, m)
        assert prod * abs(x) == 1


def test_as_rational_forms():
    assert as_rational("3/4") == Fraction(3, 4)
    assert as_rational("-2") == -2
    assert as_rational(Fraction(1, 3)) == Fraction(1, 3)
    with pytest.raises(TypeError):
        as_rational(0.5)


def test_evaluate_symbolic():
    assert evaluate_symbolic("3/4") == Fraction(3, 4)
    assert evaluate_symbolic("sqrt(2)") == pytest.approx(math.sqrt(2))
    assert evaluate_symbolic("2*sqrt(2)") == pytest.approx(2 * math.sqrt(2))
    # perfect squares give their exact value
    assert evaluate_symbolic("sqrt(9/4)") == Fraction(3, 2)
    assert evaluate_symbolic(5) == 5


def test_parse_surd_exact_parts():
    F = Fraction
    assert parse_surd("3/4") == (F(3, 4), 1)
    assert parse_surd("sqrt(2)") == (1, 2)
    assert parse_surd(" -2/3 * sqrt(5/7) ") == (F(-2, 3), F(5, 7))
    assert parse_surd("sqrt(9/4)") == (1, F(9, 4))
    assert parse_surd(5) == (5, 1)
    # a float is its exact binary value, a dyadic rational
    assert parse_surd(0.1) == (F(3602879701896397, 2**55), 1)
    assert surd_float(parse_surd(0.1)) == 0.1
    # the float value is the one rounding of the exact value, which the
    # product of two roundings misses for 3*sqrt(2) by one ulp
    coef, rad = parse_surd("3*sqrt(2)")
    x = surd_float((coef, rad))
    assert x == 4.242640687119285 != 3.0 * math.sqrt(2.0)
    assert _rounds_to(x, coef * coef * rad)


@pytest.mark.parametrize("text", ["sqrt(2)*3", "abc", "1/0", "sqrt(-2)",
                                  "sqrt(2", "2*abc"])
def test_parse_surd_rejects_malformed_literals(text):
    with pytest.raises((ValueError, ZeroDivisionError)):
        parse_surd(text)


def _rounds_to(x, sq):
    """Whether the float x is the double nearest the number of sign x
    whose square is the Fraction sq: sq lies between the squared
    midpoints from x to its neighbours, checked exactly in Fractions."""
    a = abs(x)
    lo = (Fraction(a) + Fraction(math.nextafter(a, 0.0))) / 2 if a else 0
    hi = (Fraction(a) + Fraction(math.nextafter(a, math.inf))) / 2
    return lo * lo <= sq <= hi * hi


def test_surd_float_is_the_nearest_double():
    # seeded literals a/b*sqrt(c/d): negative coefficients, radicands
    # above 2^53 and rational radicands
    rng = random.Random(20261020)
    for _ in range(12000):
        top = 10**rng.randint(1, 18)
        coef = Fraction(rng.randint(-top, top),
                        rng.randint(1, 10**rng.randint(1, 12)))
        rad = Fraction(rng.randint(1, 2**rng.randint(1, 80)),
                       rng.choice([1, rng.randint(1, 10**rng.randint(1, 20))]))
        x = surd_float((coef, rad))
        assert math.copysign(1.0, x) == (-1.0 if coef < 0 else 1.0)
        assert _rounds_to(x, coef * coef * rad), (coef, rad, x)
        if rad == 1:
            assert x == float(coef)


def test_surd_float_unit_coefficient_is_ieee_sqrt():
    # IEEE sqrt rounds correctly, and integers below 2^53 are exact
    rng = random.Random(5)
    for m in [0, 1, 2, 3, 2**52 + 1, 2**53 - 1,
              *(rng.randint(1, 2**53 - 1) for _ in range(3000))]:
        got = surd_float((Fraction(1), Fraction(m)))
        assert got == math.sqrt(m) and type(got) is float


def test_surd_float_range():
    assert surd_float((Fraction(0), Fraction(2))) == 0.0
    assert surd_float(parse_surd("sqrt(1e-640)")) == 1e-320  # subnormal
    assert surd_float(parse_surd("1e-400")) == 0.0
    # subnormal results round once: scaling a rounded q by ldexp would
    # round twice
    rng = random.Random(3)
    for _ in range(4000):
        x = Fraction(rng.randint(1, 10**30),
                     rng.randint(1, 10**30) << rng.randint(1022, 1074))
        assert surd_float((x, Fraction(1))) == float(x)
    assert surd_float(parse_surd("-1e308")) == -1e308
    for text in ["1e400", "sqrt(3e700)", "-1e309"]:
        with pytest.raises(ValueError, match="float range"):
            surd_float(parse_surd(text))


def test_sqrt_power_float_is_the_rule():
    rng = random.Random(11)
    for _ in range(2000):
        m = Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**9))
        p = rng.choice([2, 3, 5, 7, 11, 97])
        x = SqrtPower(m, p, 1)
        assert float(x) == surd_float((m, Fraction(p)))
        assert _rounds_to(float(x), m * m * p)
    assert float(SqrtPower(Fraction(3, 4), 5, 0)) == 0.75
