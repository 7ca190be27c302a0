"""Valuations, place absolute values, and their algebraic laws."""

import math
import random
from fractions import Fraction

import mpmath
import pytest

from orbitlab.places import (
    as_rational,
    evaluate_symbolic,
    is_prime,
    padic_abs,
    padic_valuation,
    parse_surd,
    set_real_precision,
    surd_value,
)


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
    # perfect squares stay exact
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
    assert surd_value(parse_surd(0.1)) == F(0.1)
    # the float value is the product of two roundings, as before the split
    coef, rad = parse_surd("12345*sqrt(7)")
    assert surd_value((coef, rad)) == 12345.0 * math.sqrt(7.0)


@pytest.mark.parametrize("text", ["sqrt(2)*3", "abc", "1/0", "sqrt(-2)",
                                  "sqrt(2", "2*abc"])
def test_parse_surd_rejects_malformed_literals(text):
    with pytest.raises((ValueError, ZeroDivisionError)):
        parse_surd(text)


def test_precision_toggle():
    # hardware doubles by default, mpmath at the set precision, and
    # doubles again once the precision is reset
    assert isinstance(evaluate_symbolic("sqrt(2)"), float)
    set_real_precision(50)
    try:
        x = evaluate_symbolic("sqrt(2)")
        assert isinstance(x, mpmath.mpf)
        assert abs(x * x - 2) < mpmath.mpf(10) ** -45
    finally:
        set_real_precision(0)
    assert isinstance(evaluate_symbolic("sqrt(2)"), float)
