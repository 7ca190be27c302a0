"""Exact rational scalars and per-place absolute values.

Scalars are stdlib ``fractions.Fraction`` (always in lowest terms with a
positive denominator, which is exactly the normal form we need).  A
*place* is either the archimedean place or a finite place attached to a
prime p.  At a finite place the absolute value |x|_p = p^(-v_p(x)) is an
exact rational; at the archimedean place it is the usual |x|.
"""

from __future__ import annotations

import math
from fractions import Fraction

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for every n < 3.3e24."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def as_rational(x) -> Fraction:
    """Coerce int/str/Fraction to an exact rational.

    Strings use the "a/b" form also accepted in config files and CSV
    matrix literals.  Floats are rejected: callers must be explicit
    about where exactness ends.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x.strip())
    raise TypeError(f"not an exact rational: {x!r}")


def padic_valuation(x, p: int):
    """v_p(x) for rational x; v_p(0) is +infinity (math.inf)."""
    x = as_rational(x)
    if x == 0:
        return math.inf
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    v = 0
    num = x.numerator
    while num % p == 0:
        num //= p
        v += 1
    den = x.denominator
    while den % p == 0:
        den //= p
        v -= 1
    return v


def padic_abs(x, p: int) -> Fraction:
    """|x|_p = p^(-v_p(x)) as an exact rational; |0|_p = 0."""
    v = padic_valuation(x, p)
    if v is math.inf:
        return Fraction(0)
    return Fraction(p) ** (-v)


def floor_log(x, p: int) -> int:
    """E(ln_p x): largest j with p^j <= x, exact even for float x.

    Floats convert to Fraction losslessly, so no log-rounding artifacts
    near powers of p.
    """
    x = Fraction(x) if isinstance(x, float) else as_rational(x)
    if x <= 0:
        raise ValueError("floor_log needs x > 0")
    if p < 2:
        raise ValueError(f"floor_log needs a base p >= 2, got {p}")
    j = 0
    if x >= 1:
        while Fraction(p) ** (j + 1) <= x:
            j += 1
    else:
        while Fraction(p) ** j > x:
            j -= 1
    return j


# ---------------------------------------------------------------------------
# symbolic entries

def parse_surd(text) -> tuple:
    """Exact parts (coef, rad) of a vector-entry literal coef*sqrt(rad).

    Accepted forms: "a/b", "sqrt(a/b)", and "a/b*sqrt(c/d)"; a rational
    has rad = 1, and an int, Fraction or float stands for itself, a
    float at its exact binary value.  A malformed literal raises
    ValueError (ZeroDivisionError for a zero denominator).
    """
    if not isinstance(text, str):
        return Fraction(text), Fraction(1)
    s = text.strip().replace(" ", "")
    coef = Fraction(1)
    if "*" in s:
        left, s = s.split("*", 1)
        coef = as_rational(left)
    if s.startswith("sqrt(") and s.endswith(")"):
        rad = as_rational(s[5:-1])
        if rad < 0:
            raise ValueError(f"negative radicand in {text!r}")
        return coef, rad
    return coef * as_rational(s), Fraction(1)


def surd_float(surd) -> float:
    """The double nearest coef*sqrt(rad) of a parse_surd pair, or
    ValueError past the float range.  With x^2 = n/d, q = isqrt(n 4^k
    // d) = floor(|x| 2^k) has at least 55 bits, and its low bit is set
    where q^2 d != n 4^k, so q rounds to 53 bits as x does.  One
    correctly rounded division by 2^k (a product for k < 0) then gives
    the nearest double, subnormals included, and float(x) for rational x."""
    coef, rad = surd
    n = coef.numerator ** 2 * rad.numerator
    d = coef.denominator ** 2 * rad.denominator
    k = (110 + d.bit_length() - n.bit_length()) // 2
    num, den = (n << 2 * k, d) if k >= 0 else (n, d << -2 * k)
    q = math.isqrt(num // den)
    if q * q * den != num:
        q |= 1
    try:
        x = q / (1 << k) if k >= 0 else float(q << -k)
    except OverflowError:
        raise ValueError("value past the float range") from None
    return -x if coef < 0 else x


def evaluate_symbolic(text) -> float:
    """The double nearest a vector-entry literal (see parse_surd,
    surd_float)."""
    return surd_float(parse_surd(text))


def exact_sqrt(q: Fraction):
    """sqrt(q) as a Fraction when q is a rational square, else None."""
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None
