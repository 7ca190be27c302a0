"""Exact matrix ops and wedge powers."""

import random
from fractions import Fraction

import pytest

from orbitlab.linalg import (
    as_matrix,
    mat_det,
    mat_mul,
    wedge_action,
)

from oracles import laplace_det, minors_matrix


def rand_mat(rng, n, den=6, lo=-9, hi=9):
    return as_matrix(
        [[Fraction(rng.randint(lo, hi), rng.randint(1, den)) for _ in range(n)]
         for _ in range(n)]
    )


def test_det_against_laplace():
    rng = random.Random(11)
    for n in (1, 2, 3, 4, 5):
        for _ in range(40):
            m = rand_mat(rng, n)
            assert mat_det(m) == laplace_det([list(r) for r in m])


def test_det_multiplicative():
    rng = random.Random(12)
    for _ in range(60):
        a, b = rand_mat(rng, 3), rand_mat(rng, 3)
        assert mat_det(mat_mul(a, b)) == mat_det(a) * mat_det(b)


def test_mat_mul_rejects_mismatched_shapes():
    # a typed error, not an assert: under python -O the extra column of
    # the left factor would be dropped from the sum
    a = as_matrix([[1, 2, 3], [4, 5, 6]])
    b = as_matrix([[1, 0], [0, 1]])
    with pytest.raises(ValueError, match="3 columns by 2 rows"):
        mat_mul(a, b)
    with pytest.raises(ValueError, match="2 columns by 3 rows"):
        mat_mul(b, b + ((1, 1),))
    assert mat_mul(b, a) == a


def test_wedge_action_is_minor_matrix():
    rng = random.Random(14)
    for n, k in [(3, 1), (3, 2), (4, 2), (4, 3), (5, 2)]:
        m = rand_mat(rng, n, den=3, lo=-4, hi=4)
        assert wedge_action(m, k) == tuple(
            tuple(row) for row in minors_matrix([list(r) for r in m], k)
        )


def test_wedge_action_functorial():
    # Cauchy-Binet: wedge(AB) = wedge(A) wedge(B)
    rng = random.Random(15)
    for _ in range(200):
        n = rng.choice([3, 4])
        k = rng.randint(1, n - 1)
        a, b = rand_mat(rng, n, den=2, lo=-3, hi=3), rand_mat(rng, n, den=2, lo=-3, hi=3)
        assert wedge_action(mat_mul(a, b), k) == mat_mul(
            wedge_action(a, k), wedge_action(b, k)
        )


def test_wedge_action_degree_one_and_top():
    rng = random.Random(16)
    m = rand_mat(rng, 4)
    assert wedge_action(m, 1) == m
    assert wedge_action(m, 4) == ((mat_det(m),),)
