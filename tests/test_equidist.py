"""Test functions, predicted densities, orbit sums, experiment reports."""

import math
import random
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from orbitlab import balls, equidist
from orbitlab.balls import (
    BallSpec,
    CongruenceWindow,
    filter_window,
    iter_ball_chunks,
)
from orbitlab.equidist import (
    DistributionReport,
    ExperimentConfig,
    OrbitVector,
    PadicShellBox,
    ProductTest,
    RealAnnulusSector,
    RealWedgeAnnulus,
    _column_sums,
    calibrate_orientation,
    check_density_hypothesis,
    normalizer_value,
    parse_test,
    predicted_limit,
    run_experiment,
    sl2_congruence_order,
    wedge_normalizer_exponent,
    window_scale,
)
from orbitlab.errors import CapacityError, ConfigError
from orbitlab.places import padic_valuation

from oracles import (
    brute_sl2z,
    brute_sl2zp,
    orbit_sum_pointwise,
    two_squares_det_count,
)

TWO_PI = 2.0 * math.pi


def small_ball(**kw):
    spec = BallSpec(**{"capacity": 10**6, **kw})
    return list(iter_ball_chunks(spec))


def hits(chunks, v, f, window=None):
    """Elements of the (levels, mats) chunks (a list) whose orbit point
    the test f holds, summed from the evaluator's masks; with a window,
    only the level-0 elements in its classes."""
    bound = max((int(np.abs(m).max()) for _, m in chunks if len(m)), default=0)
    ev = equidist._ChunkEvaluator(v, [f], bound)
    total = 0
    for levels, mats in chunks:
        mask = ev.masks(levels, mats)[0]
        if window is not None:
            mask &= filter_window(mats, window) & (levels == 0)
        total += int(mask.sum())
    return total


def flatten(chunks):
    out = []
    for levels, mats in chunks:
        for lev, m in zip(levels, mats):
            out.append((int(lev), [[int(x) for x in row] for row in m]))
    return out


# ---------------------------------------------------------------------------
# predicted masses

def test_annulus_prediction_closed_form():
    assert RealAnnulusSector(1, 2).predicted() == pytest.approx(TWO_PI)
    half = RealAnnulusSector(1, 3, 0.0, math.pi)
    assert half.predicted() == pytest.approx(2 * math.pi)
    # degenerate annulus carries no mass
    assert RealAnnulusSector(2, 2).predicted() == 0.0


def test_annulus_prediction_additive_and_rotation_invariant():
    whole = RealAnnulusSector(1, 2, 0.25, 0.25 + 1.5)
    left = RealAnnulusSector(1, 2, 0.25, 0.25 + 0.5)
    right = RealAnnulusSector(1, 2, 0.75, 1.75)
    assert whole.predicted() == pytest.approx(left.predicted() + right.predicted())
    for rho in (0.5, -2.0, 3.75):
        spun = RealAnnulusSector(1, 2, 0.25 + rho, 1.75 + rho)
        assert spun.predicted() == whole.predicted()


def test_annulus_prediction_scaling():
    # dyadic data keeps the float identity exact
    base = RealAnnulusSector(1.0, 1.5, 0.0, 2.0)
    lam = 4.0
    scaled = RealAnnulusSector(lam * 1.0, lam * 1.5, 0.0, 2.0)
    assert scaled.predicted() == lam * base.predicted()


def test_annulus_validation():
    with pytest.raises(ConfigError):
        RealAnnulusSector(0.0, 1.0)
    with pytest.raises(ConfigError):
        RealAnnulusSector(2.0, 1.0)
    with pytest.raises(ConfigError):
        RealAnnulusSector(1.0, 2.0, 0.0, 7.0)  # wider than one turn
    with pytest.raises(ConfigError):
        RealAnnulusSector(1.0, 2.0, 1.0, 1.0)


def test_shell_prediction_values():
    for p in (2, 3, 5):
        assert PadicShellBox(p, 0).predicted() == 1 - Fraction(1, p * p)
        for s in (-2, 1, 3):
            full = PadicShellBox(p, s).predicted()
            assert full == Fraction(p) ** s * (1 - Fraction(1, p * p))
            assert isinstance(full, Fraction)


def test_shell_congruence_fraction():
    # 2 of the 3 primitive classes mod 2 carry 2/3 of the shell
    box = PadicShellBox(2, 0, 1, ((1, 0), (0, 1)))
    assert box.predicted() == Fraction(3, 4) * Fraction(2, 3)
    # mod 4 there are 12 primitive classes
    one = PadicShellBox(2, 0, 2, ((1, 0),))
    assert one.unit_class_fraction() == Fraction(1, 12)
    # additivity across a disjoint split of classes
    a = PadicShellBox(3, 1, 1, ((1, 0), (2, 1)))
    b = PadicShellBox(3, 1, 1, ((0, 1), (1, 1)))
    union = PadicShellBox(3, 1, 1, ((1, 0), (2, 1), (0, 1), (1, 1)))
    assert a.predicted() + b.predicted() == union.predicted()


def test_turn_period_of_test_parts():
    # the period P of a test under the quarter turn J w = (-w1, w0): a
    # sector ignores the angle only at a full turn (P = 1, else 4); a box
    # has P = 1 when its unit classes are closed under (a, b) -> (-b, a),
    # 2 when only under u -> -u, else 4; a product the larger of its parts
    assert RealAnnulusSector(1, 2).turn_period == 1
    assert RealAnnulusSector(1, 2, 0.0, TWO_PI).turn_period == 1
    assert RealAnnulusSector(1, 2, 0.0, TWO_PI - 1e-9).turn_period == 4
    assert RealAnnulusSector(1, 2, 1.0, 1.0 + math.pi).turn_period == 4
    w = np.array([[1.5, 0.2], [-0.3, 1.1], [0.1, -1.7]])
    full, half = RealAnnulusSector(1, 2), RealAnnulusSector(1, 2, 0, math.pi)
    for k in range(4):
        assert (full.contains(equidist._turn(w, k)) == full.contains(w)).all()
    assert (half.contains(-w) != half.contains(w)).all()
    assert RealWedgeAnnulus(1, 2, 2).turn_period == 1
    for p in (2, 3, 5):
        assert PadicShellBox(p, 1).turn_period == 1  # m = 0
    cases = [
        # mod 2 every class is its own negative; J swaps (1, 0) and (0, 1)
        (2, 1, ((1, 1),), 1), (2, 1, ((1, 0),), 2),
        (2, 1, ((1, 0), (0, 1)), 1),
        # mod 4: -(1, 0) = (3, 0), while -(2, 1) = (2, 3)
        (2, 2, ((1, 0),), 4), (2, 2, ((1, 0), (3, 0)), 2),
        (2, 2, ((1, 0), (0, 1), (3, 0), (0, 3)), 1),
        (2, 2, ((2, 1), (3, 0), (1, 0)), 4),
        # odd p: no class is its own negative
        (3, 1, ((1, 0),), 4), (3, 1, ((1, 0), (2, 0)), 2),
        (3, 1, ((1, 0), (0, 1), (2, 0), (0, 2)), 1),
        (3, 2, ((1, 4), (8, 5)), 2), (3, 2, ((1, 4), (8, 4)), 4),
        (3, 2, ((1, 4), (5, 1), (8, 5), (4, 8)), 1),
        (5, 1, ((0, 1), (0, 4), (2, 3), (3, 2)), 2),
        # 2 is a square root of -1 mod 5: J maps (1, 2) to (3, 1) = 3 (1, 2)
        (5, 1, ((1, 2), (3, 1), (4, 3), (2, 4)), 1)]
    for p, m, units, period in cases:
        assert PadicShellBox(p, 2, m, units).turn_period == period, units
    real = RealAnnulusSector(1, 2, 0, 3)
    for box, want in ((PadicShellBox(3, 0), 4), (PadicShellBox(2, 0), 4)):
        assert ProductTest(real, box).turn_period == want
    assert ProductTest(RealAnnulusSector(1, 2),
                       PadicShellBox(3, 0, 1, ((1, 0), (2, 0)))).turn_period \
        == 2


def test_every_test_kind_defines_turn_period():
    # the strip route bins the images J^k gamma through turn_period: one
    # sample per kind of the parse_test grammar, so that a new kind fails
    # here until it defines one
    samples = {"annulus": "annulus(1,2,0,1)", "shell": "shell(0,1,1:0)",
               "wedge": "wedge(1,2,2)",
               "product": "product(annulus(1,2),shell(1))"}
    heads = re.findall(r"^\s+(\w+)\(", parse_test.__doc__, re.MULTILINE)
    assert sorted(heads) == sorted(samples)
    for head, token in samples.items():
        assert parse_test(token, p=3).turn_period in (1, 2, 4), head


def test_shell_validation():
    with pytest.raises(ConfigError):
        PadicShellBox(4, 0)
    with pytest.raises(ConfigError):
        PadicShellBox(2, 0, 1, ())  # empty listed set
    with pytest.raises(ConfigError):
        PadicShellBox(2, 0, 1, ((0, 0),))  # not primitive
    with pytest.raises(ConfigError):
        PadicShellBox(2, 0, 0, ((1, 0),))  # classes without a depth
    # unit classes pack into keys up to p^(2m), which must fit in int64
    assert PadicShellBox(2, 0, 31, ((1, 0),)).units == ((1, 0),)
    with pytest.raises(ConfigError, match="int64"):
        PadicShellBox(2, 0, 32, ((1, 0),))


def test_wedge_prediction_matches_annulus_in_dim_2():
    w = RealWedgeAnnulus(1.0, 2.5, 2)
    a = RealAnnulusSector(1.0, 2.5)
    assert w.predicted() == pytest.approx(a.predicted())


def test_wedge_prediction_dim_3_and_1():
    # dim 3: 4*pi*(r2^2 - r1^2)/2
    w = RealWedgeAnnulus(1.0, 2.0, 3)
    assert w.predicted() == pytest.approx(4 * math.pi * 3 / 2)
    # dim 1: two rays, log measure
    assert RealWedgeAnnulus(1.0, math.e, 1).predicted() == pytest.approx(2.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_wedge_norm_keeps_its_bits_past_the_square_range():
    # rows whose squares are floats keep the bits of sqrt(sum w^2), so the
    # edges of every interval fall on the same rows; rows whose squares
    # pass the float range are measured without an overflow
    rng = np.random.default_rng(5)
    w = rng.standard_normal((3000, 3)) * 10.0 ** rng.integers(-150, 150,
                                                              (3000, 1))
    r = np.sort(np.sqrt((w * w).sum(axis=1)))
    for lo, hi in zip(r[::7], r[3::7]):
        got = RealWedgeAnnulus(lo, hi, 3).contains(w)
        assert got.sum() == ((r >= lo) & (r <= hi)).sum() >= 4
    huge = RealWedgeAnnulus(1e300, 2e300, 2).contains([[1e300, 1e300],
                                                       [1e300, 2e300]])
    assert huge.tolist() == [True, False]
    with pytest.raises(ConfigError, match="past the float range"):
        predicted_limit("wedge", [RealWedgeAnnulus(1.0, 1e170, 3)], n=3)


def test_product_prediction_factors_exactly():
    f = ProductTest(RealAnnulusSector(1, 2), PadicShellBox(2, 1, 1, ((1, 1),)))
    re, qp = f.predicted_parts()
    assert f.predicted() == re * float(qp)
    assert qp == Fraction(2) * Fraction(3, 4) * Fraction(1, 3)


# ---------------------------------------------------------------------------
# token parsing

def test_parse_test_round_trips():
    assert parse_test("annulus(1,2)") == RealAnnulusSector(1.0, 2.0)
    assert parse_test("annulus(1/2,3,0,1.5)") == RealAnnulusSector(0.5, 3.0, 0.0, 1.5)
    assert parse_test("shell(-1)", p=3) == PadicShellBox(3, -1)
    assert parse_test("shell(0,1,1:0|0:1)", p=2) == PadicShellBox(
        2, 0, 1, ((0, 1), (1, 0)))
    assert parse_test("wedge(1,2,6)") == RealWedgeAnnulus(1.0, 2.0, 6)
    prod = parse_test("product(annulus(1,2),shell(0))", p=2)
    assert prod == ProductTest(RealAnnulusSector(1.0, 2.0), PadicShellBox(2, 0))


def test_parse_test_rejects_malformed():
    for bad in ("annulus(1)", "annulus(1,2", "blob(1,2)", "shell(0,1)",
                "product(shell(0),annulus(1,2))", "wedge(1,2)"):
        with pytest.raises(ConfigError):
            parse_test(bad, p=2)
    with pytest.raises(ConfigError):
        parse_test("shell(0)")  # no prime in scope


# ---------------------------------------------------------------------------
# vectors and the density hypothesis

def test_orbit_vector_validation():
    with pytest.raises(ConfigError):
        OrbitVector.make(("0", "0"))
    with pytest.raises(ConfigError):
        OrbitVector.make(("1", "2"), fin=("1", "1"), p=6)
    v = OrbitVector.make(("1", "sqrt(2)"), fin=("1/3", "5"), p=2)
    assert v.fin == (Fraction(1, 3), Fraction(5))
    assert v.inf_floats()[1] == pytest.approx(math.sqrt(2))


def test_density_hypothesis_flags():
    irr = OrbitVector.make(("1", "sqrt(2)"))
    assert check_density_hypothesis(irr, "ledrappier") == ()
    rat = OrbitVector.make(("2", "3"))
    assert check_density_hypothesis(rat, "ledrappier") == (
        "density hypothesis violated",)
    # surd multiples of a rational direction are still caught
    surd = OrbitVector.make(("sqrt(2)", "2*sqrt(2)"))
    assert check_density_hypothesis(surd, "a21") == (
        "density hypothesis violated",)


def test_density_hypothesis_product_case():
    ok = OrbitVector.make(("1", "sqrt(2)"), fin=("1", "3"), p=2)
    assert check_density_hypothesis(ok, "a22") == ()
    # both components along (1, 3): violated
    bad = OrbitVector.make(("2", "6"), fin=("1", "3"), p=2)
    assert check_density_hypothesis(bad, "a22") == (
        "density hypothesis violated",)
    # rational directions that disagree satisfy the span hypothesis
    split = OrbitVector.make(("2", "5"), fin=("1", "3"), p=2)
    assert check_density_hypothesis(split, "a22") == ()


VIOLATED = ("density hypothesis violated",)


@pytest.mark.parametrize("application", ["ledrappier", "a21"])
@pytest.mark.parametrize("v_inf,flags", [
    # rational directions whose float ratio looks irrational
    (("12345*sqrt(7)", "54321*sqrt(7)"), VIOLATED),
    (("sqrt(2)", "1000003/999983*sqrt(2)"), VIOLATED),
    (("sqrt(8)", "-3*sqrt(1/2)"), VIOLATED),
    (("0", "sqrt(3)"), VIOLATED),
    (("1", "sqrt(2)"), ()),
    (("sqrt(2)", "sqrt(3)"), ()),
    (("sqrt(6)", "2*sqrt(3/2)"), VIOLATED),
])
def test_density_hypothesis_decided_exactly(application, v_inf, flags):
    v = OrbitVector.make(v_inf)
    assert check_density_hypothesis(v, application) == flags


def test_density_hypothesis_float_entries_are_dyadic():
    # a float entry is its binary value, a rational: math.sqrt(2) lies
    # along a rational direction with 1
    v = OrbitVector.make((1.0, math.sqrt(2)))
    assert check_density_hypothesis(v, "ledrappier") == VIOLATED


def test_density_hypothesis_product_case_exact():
    v_inf = ("12345*sqrt(7)", "54321*sqrt(7)")
    same = OrbitVector.make(v_inf, fin=("12345", "54321"), p=2)
    assert check_density_hypothesis(same, "a22") == VIOLATED
    other = OrbitVector.make(v_inf, fin=("12345", "54322"), p=2)
    assert check_density_hypothesis(other, "a22") == ()


@pytest.mark.parametrize("v_inf,v_fin", [
    (("1", "sqrt(2)*3"), None), (("1", "abc"), None), (("1", "1/0"), None),
    (("1", "sqrt(-2)"), None), (("1", "sqrt(2)"), ("1", "abc")),
    (("1", "sqrt(2)"), ("1/0", "1")),
])
def test_orbit_vector_rejects_malformed_literals(v_inf, v_fin):
    with pytest.raises(ConfigError):
        OrbitVector.make(v_inf, fin=v_fin, p=2)


@pytest.mark.parametrize("token", [
    "annulus(1,abc)", "annulus(1/0,2)", "shell(x)", "wedge(1,2,x)",
    "shell(0,1,1:x)", "product(annulus(1,abc),shell(0))",
])
def test_parse_test_rejects_malformed_literals(token):
    with pytest.raises(ConfigError):
        parse_test(token, p=2)


# ---------------------------------------------------------------------------
# group orders, window scale, normalizers

def brute_sl2_mod(q):
    count = 0
    for a in range(q):
        for b in range(q):
            for c in range(q):
                for d in range(q):
                    if (a * d - b * c) % q == 1:
                        count += 1
    return count


@pytest.mark.parametrize("p,m", [(2, 1), (2, 2), (3, 1), (5, 1)])
def test_sl2_congruence_order_against_enumeration(p, m):
    assert sl2_congruence_order(p, m) == brute_sl2_mod(p**m)


def test_window_scale():
    win = CongruenceWindow(2, 1, reps=((1, 0, 0, 1),))
    assert window_scale(win) == Fraction(1, 6)
    assert window_scale(None) == 1


def test_repeated_window_class_counts_once():
    # (3,0,0,3) is (1,0,0,1) mod 2: the second window lists one class twice
    once = CongruenceWindow(2, 1, reps=((1, 0, 0, 1),))
    twice = CongruenceWindow(2, 1, reps=((3, 0, 0, 3), (1, 0, 0, 1)))
    assert twice.reps == once.reps == ((1, 0, 0, 1),)
    assert window_scale(twice) == window_scale(once) == Fraction(1, 6)
    v = OrbitVector.make(("1", "sqrt(2)"))
    once_run, twice_run = (run_experiment(ExperimentConfig(
        application="a21", v=v, t_ladder=(20, 40),
        tests=(RealAnnulusSector(1, 2), RealAnnulusSector(1, 4)), window=w))
        for w in (once, twice))
    assert twice_run.rows == once_run.rows


def test_wedge_normalizer_exponent_table():
    assert wedge_normalizer_exponent(2, 1) == 1
    assert wedge_normalizer_exponent(3, 1) == 4
    assert wedge_normalizer_exponent(3, 2) == 4   # duality k <-> n-k
    assert wedge_normalizer_exponent(4, 2) == 8
    with pytest.raises(ConfigError):
        wedge_normalizer_exponent(3, 4)


def test_normalizer_values():
    assert normalizer_value("ledrappier", 250) == 250.0
    assert normalizer_value("a22", 48, p=2) == 48.0 * 32.0
    assert normalizer_value("a22", 64, p=2) == 64.0 * 64.0
    assert normalizer_value("wedge", 10, n=3) == pytest.approx(10.0**4)
    with pytest.raises(ConfigError):
        normalizer_value("ledrappier", 0)


# ---------------------------------------------------------------------------
# orbit sums

def test_orbit_sum_trivial_cases():
    chunks = small_ball(group="sl2z", t_inf=3)
    total = sum(len(m) for _, m in chunks)
    v = OrbitVector.make(("1", "sqrt(2)"))
    # far-away annulus at tiny radius: empty
    assert hits(chunks, v, RealAnnulusSector(50.0, 60.0)) == 0
    # an annulus covering every orbit point counts the whole ball
    assert hits(chunks, v, RealAnnulusSector(1e-6, 1e6)) == total


def test_orbit_sum_vectorized_matches_pointwise():
    chunks = small_ball(group="sl2zp", p=2, t_inf=5, t_p=4)
    elements = flatten(chunks)
    v = OrbitVector.make(("1", "sqrt(2)"), fin=("1", "3"), p=2)
    tests = [
        parse_test("annulus(0.5,4)"),
        parse_test("annulus(0.5,4,-2.0,1.0)"),
        parse_test("shell(0)", p=2),
        parse_test("shell(1,1,1:0|1:1)", p=2),
        parse_test("product(annulus(0.5,4,0,3),shell(0,2,1:1|3:2|0:1))", p=2),
    ]
    for f in tests:
        vec = hits(chunks, v, f)
        pt = orbit_sum_pointwise(elements, v, f, 1.0)
        assert vec == pt, f.label


def test_pointwise_oracle_scales_odd_p_levels_like_the_vectorized_route():
    # at p = 3 the level-1 element M = [[-4, 1], [-1, -2]] has |M v / 3|
    # one ulp larger when the column sums are divided by 3 (the vectorized
    # route) than when they are multiplied by 3.0**-1; an annulus that
    # starts exactly there counts it on both routes
    v = OrbitVector.make(("1", "sqrt(2)"), fin=("1", "3"), p=3)
    m = np.array([[[-4, 1], [-1, -2]]])
    w = _column_sums(m, v.inf_floats())[0]
    r1 = float(np.hypot(w[0] / 3.0, w[1] / 3.0))
    assert np.hypot(w[0] * 3.0**-1, w[1] * 3.0**-1) < r1
    f = RealAnnulusSector(r1, 4.0)
    assert hits([(np.ones(1, dtype=np.int64), m)], v, f) == 1
    assert orbit_sum_pointwise([(1, m[0].tolist())], v, f, 1.0) == 1
    chunks = small_ball(group="sl2zp", p=3, t_inf=2, t_p=3)
    assert hits(chunks, v, f) == orbit_sum_pointwise(
        flatten(chunks), v, f, 1.0)


def test_orbit_sum_rotation_equivariance():
    # predictions are exactly rotation invariant (tested above); the
    # empirical half-to-full ratio of a rotated configuration must meet
    # the same tolerance as the unrotated one
    chunks = list(iter_ball_chunks(BallSpec("sl2z", t_inf=250)))
    phi = math.atan2(0.8, 0.6)
    s2 = math.sqrt(2.0)
    configs = [
        (OrbitVector.make(("1", "sqrt(2)")), 0.0),
        (OrbitVector.make((0.6 - 0.8 * s2, 0.8 + 0.6 * s2)), phi),
    ]
    for v, shift in configs:
        ref = hits(chunks, v, RealAnnulusSector(1, 2))
        half = hits(chunks, v, RealAnnulusSector(1, 2, shift, shift + math.pi))
        assert abs(half / ref / 0.5 - 1.0) <= 0.15


def test_orbit_sum_additive_over_disjoint_tests():
    chunks = small_ball(group="sl2z", t_inf=40)
    v = OrbitVector.make(("1", "sqrt(2)"))
    lo = RealAnnulusSector(0.5, 1.5, 0.0, 2.0)
    hi = RealAnnulusSector(0.5, 1.5, 2.0, 5.0)
    union = RealAnnulusSector(0.5, 1.5, 0.0, 5.0)
    assert hits(chunks, v, lo) + hits(chunks, v, hi) == hits(chunks, v, union)


def test_orbit_sum_with_rational_denominator_vector():
    chunks = small_ball(group="sl2zp", p=2, t_inf=5, t_p=4)
    elements = flatten(chunks)
    v = OrbitVector.make(("1", "sqrt(2)"), fin=("1/2", "2/3"), p=2)
    for tok in ("shell(1)", "shell(2,1,1:0|1:1|0:1)"):
        f = parse_test(tok, p=2)
        assert hits(chunks, v, f) == orbit_sum_pointwise(
            elements, v, f, 1.0), tok


def test_orbit_sum_window_matches_manual_filter():
    chunks = small_ball(group="sl2z", t_inf=12)
    win = CongruenceWindow(2, 1, reps=((1, 0, 0, 1),))
    v = OrbitVector.make(("1", "sqrt(2)"))
    f = RealAnnulusSector(1e-6, 1e6)
    windowed = hits(chunks, v, f, window=win)
    manual = 0
    for _, mats in chunks:
        for m in mats:
            if all(int(x) % 2 == (1 if i in (0, 3) else 0)
                   for i, x in enumerate(m.ravel())):
                manual += 1
    assert windowed == manual


def test_valuation_array_matches_scalar():
    from orbitlab.balls import _valuations

    rng = random.Random(11)
    for p in (2, 3, 5, 7):
        top = int(math.log(2**63 - 1, p))
        xs = [rng.randrange(-500, 500) for _ in range(200)]
        xs += [rng.choice((-1, 1)) * rng.randrange(1, p**3) * p**k
               for k in range(top - 2) for _ in range(3)]
        xs += [0, 2**62, -(2**62), 2**63 - 1, -(2**63), p**top, -(p**top),
               p**top - 1]
        xs = [x for x in xs if -(2**63) <= x < 2**63]
        pairs = np.array(list(zip(xs, reversed(xs))), dtype=np.int64)
        for arr in (pairs[:, 0], pairs):
            vals = _valuations(arr, p)
            assert vals.shape == arr.shape
            for x, got in zip(arr.ravel().tolist(), vals.ravel().tolist()):
                if x == 0:
                    assert got >= 10**8
                else:
                    assert got == padic_valuation(x, p), (p, x)


# ---------------------------------------------------------------------------
# orientation calibration

def test_orientation_calibration_prefers_inverse():
    rec = calibrate_orientation()
    assert rec.winner == "inverse"
    # the inverse-orientation product is constant to ladder tolerance,
    # the forward one is off by orders of magnitude
    assert rec.inverse_spread < 1e-4
    assert rec.forward_spread > 100 * rec.inverse_spread


# ---------------------------------------------------------------------------
# experiments

def led_config(**kw):
    base = dict(
        application="ledrappier",
        v=OrbitVector.make(("1", "sqrt(2)")),
        t_ladder=(10, 20, 40),
        tests=(RealAnnulusSector(1, 2), RealAnnulusSector(1, 3)),
        capacity=10**6,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_experiment_config_validation():
    with pytest.raises(ConfigError):
        led_config(t_ladder=())
    with pytest.raises(ConfigError):
        led_config(t_ladder=(10, 10, 20))
    with pytest.raises(ConfigError):
        led_config(application="nonsense")
    with pytest.raises(ConfigError):
        led_config(application="a22")  # missing finite-place vector
    with pytest.raises(ConfigError):
        ExperimentConfig(application="wedge", v=OrbitVector.make(("1", "sqrt(2)", "sqrt(3)")),
                         t_ladder=(3, 6), n=3,
                         window=CongruenceWindow(2, 1, reps=((1, 0, 0, 1),)))


@pytest.mark.parametrize("application", ["ledrappier", "a21", "a22"])
def test_experiment_config_sl2_applications_need_n_two(application):
    v = OrbitVector.make(("1", "sqrt(2)"), fin=("1", "3"), p=2)
    assert led_config(application=application, v=v, n=2).dim == 2
    with pytest.raises(ConfigError, match="n must be 2"):
        led_config(application=application, v=v, n=3)


def test_run_experiment_counts_match_orbit_sum():
    cfg = led_config()
    rep = run_experiment(cfg)
    assert rep.orientation == "inverse"
    assert rep.flags == ()
    chunks = small_ball(group="sl2z", t_inf=40)
    for row in rep.rows:
        if row.t != 40:
            continue
        f = next(f for f in cfg.tests if f.label == row.test_id)
        assert row.count == hits(chunks, cfg.v, f)
    # ball totals agree with the rung-40 enumeration
    assert rep.totals[-1] == (40.0, sum(len(m) for _, m in chunks))


def test_run_experiment_deterministic():
    a = run_experiment(led_config())
    b = run_experiment(led_config())
    assert a == b


def test_run_experiment_empty_tests_keeps_slope():
    rep = run_experiment(led_config(
        tests=(), t_ladder=(4, 8, 16, 32, 64, 128), capacity=10**7))
    assert rep.rows == ()
    assert rep.slope_total is not None
    # SL(2,Z) counts grow like T^2
    assert rep.slope_total.exponent == pytest.approx(2.0, abs=0.2)
    assert rep.slope_first_test is None


def test_run_experiment_flags_violated_hypothesis():
    rep = run_experiment(led_config(v=OrbitVector.make(("1", "2"))))
    assert "density hypothesis violated" in rep.flags


def test_run_experiment_window_binning():
    # windowed totals are the mod-2 principal congruence counts
    win = CongruenceWindow(2, 1, reps=((1, 0, 0, 1),))
    cfg = led_config(application="a21", window=win, t_ladder=(10, 20, 40))
    rep = run_experiment(cfg)
    chunks = small_ball(group="sl2z", t_inf=40)
    v = OrbitVector.make(("1", "sqrt(2)"))
    f = RealAnnulusSector(1e-6, 1e6)
    assert rep.totals[-1][1] == hits(chunks, v, f, window=win)
    # predictions are scaled by the window's Haar mass
    unwin = run_experiment(led_config(t_ladder=(10, 20, 40)))
    for rw, ru in zip(rep.rows, unwin.rows):
        assert rw.predicted == pytest.approx(ru.predicted / 6.0)


def test_windowed_run_builds_level_zero_only(monkeypatch):
    # a window keeps level 0 alone, so a windowed SL(2,Z[1/p]) run lays
    # out the level-0 ball (6,180 matrices at T = 32) and not every level
    # (12,548,820).  Counted as the SL(2) engine builds them: the columns
    # of each _sl2_assemble call, on one worker.  Totals and hits are
    # those of the window's masks over the full stream of every level,
    # checked here up to T = 16; the T = 32 values are those of the full
    # stream too, pinned because it takes seconds per test.
    built = [0]
    assemble = balls._sl2_assemble

    def counting(a, c, b0, d0, step_a, step_c, rep, *args):
        built[0] += len(rep)
        return assemble(a, c, b0, d0, step_a, step_c, rep, *args)

    monkeypatch.setattr(balls, "_sl2_assemble", counting)
    win = CongruenceWindow(2, 1, reps=((1, 0, 0, 1),))
    tests = tuple(parse_test(tok, p=2) for tok in (
        "product(annulus(1,2),shell(0))", "product(annulus(1,3),shell(0))",
        "product(annulus(1,2),shell(1))"))
    cfg = ExperimentConfig(
        application="a22",
        v=OrbitVector.make(("1", "sqrt(2)"), fin=("1", "3"), p=2),
        t_ladder=(4, 8, 16, 32), tests=tests, window=win, workers=1)
    rep = run_experiment(cfg)
    laid_out = built[0]
    assert laid_out == sum(len(m) for _, m in small_ball(
        group="sl2z", t_inf=32)) == 6180
    assert [c for _, c in rep.totals] == [10, 50, 234, 986]
    counts = [[r.count for r in rep.rows[3 * i:3 * i + 3]] for i in range(4)]
    assert counts[-1] == [24, 50, 0]
    everything = RealAnnulusSector(1e-9, 1e9)
    for (t, total), row in zip(rep.totals[:3], counts):
        chunks = small_ball(group="sl2zp", p=2, t_inf=t, t_p=t)
        assert total == hits(chunks, cfg.v, everything, window=win)
        assert row == [hits(chunks, cfg.v, f, window=win) for f in cfg.tests]


def test_over_capacity_wedge_run_builds_no_matrix(monkeypatch):
    # the exact count of the top rung fails the capacity before the
    # SL(3) stream completes a single last row
    calls = []
    monkeypatch.setattr(balls, "_complete_last_row",
                        lambda *args: calls.append(args))
    cfg = ExperimentConfig(
        application="wedge", n=3,
        v=OrbitVector.make(("1", "sqrt(2)", "sqrt(3)")),
        t_ladder=(2, 3, 4.5, 6.75, 10.125), tests=(RealWedgeAnnulus(1, 2, 3),),
        capacity=10**7)
    with pytest.raises(CapacityError, match="exceeds capacity"):
        run_experiment(cfg)
    assert calls == []


def test_run_experiment_sarithmetic_rungs():
    # every rung must agree with a fresh equal-radius enumeration
    cfg = ExperimentConfig(
        application="a22",
        v=OrbitVector.make(("1", "sqrt(2)"), fin=("1", "3"), p=2),
        t_ladder=(3, 6, 12),
        tests=(parse_test("product(annulus(0.5,4),shell(0))", p=2),),
        capacity=10**6,
    )
    rep = run_experiment(cfg)
    for (t, total), row in zip(rep.totals, rep.rows):
        chunks = small_ball(group="sl2zp", p=2, t_inf=t, t_p=t)
        assert total == sum(len(m) for _, m in chunks)
        assert row.count == hits(chunks, cfg.v, cfg.tests[0])


@pytest.mark.parametrize("norm", ["frobenius", "max"])
def test_run_experiment_rungs_follow_the_norm(norm):
    # rung totals are ball sizes under the configured norm, taken from
    # the enumeration (the Frobenius totals and ball_count share the
    # two-squares counter); the max ball is the larger one (sl2z at 4, 8,
    # 16: 180/692/2548 against the Frobenius 100/388/1476)
    led = led_config(t_ladder=(4, 8, 16), norm=norm)
    want = [sum(len(m) for _, m in small_ball(group="sl2z", t_inf=t,
                                              norm=norm))
            for t in led.t_ladder]
    assert [c for _, c in run_experiment(led).totals] == want
    a22 = ExperimentConfig(
        application="a22",
        v=OrbitVector.make(("1", "sqrt(2)"), fin=("1", "3"), p=3),
        t_ladder=(3, 6, 9), tests=(parse_test("shell(0)", p=3),),
        norm=norm, capacity=10**6)
    want = [sum(len(m) for _, m in small_ball(group="sl2zp", p=3, t_inf=t,
                                              t_p=t, norm=norm))
            for t in a22.t_ladder]
    assert [c for _, c in run_experiment(a22).totals] == want


@pytest.mark.parametrize("norm", ["frobenius", "max"])
def test_run_experiment_odd_p_matches_pointwise(norm, monkeypatch):
    # p = 3 takes the odd-p valuation path; tiny SL(2) blocks put every
    # rung and level across many chunks
    monkeypatch.setattr(balls, "_SL2_BLOCK_PAIRS", 11)
    monkeypatch.setattr(balls, "_SL2_CHUNK_ELEMS", 17)
    cfg = ExperimentConfig(
        application="a22",
        v=OrbitVector.make(("1", "sqrt(2)"), fin=("2/3", "5"), p=3),
        t_ladder=(2, 3.5, 5),
        tests=tuple(parse_test(tok, p=3) for tok in (
            "shell(1)", "shell(2)", "shell(1,1,1:0|2:1|0:1)",
            "product(annulus(0.5,4),shell(1))",
            "product(annulus(0.5,6,0,3),shell(2,1,1:1|2:2))")),
        norm=norm, capacity=10**6)
    rep = run_experiment(cfg)
    ntests = len(cfg.tests)
    for i, t in enumerate(cfg.t_ladder):
        elements = flatten(small_ball(group="sl2zp", p=3, t_inf=t, t_p=t,
                                      norm=norm))
        assert rep.totals[i] == (float(t), len(elements))
        rows = rep.rows[i * ntests:(i + 1) * ntests]
        for f, row in zip(cfg.tests, rows):
            assert row.count == orbit_sum_pointwise(elements, cfg.v, f, 1.0)
    assert any(row.count for row in rep.rows)


@pytest.mark.parametrize("p,v_inf", [(2, ("1", "sqrt(2)")),
                                     (3, ("sqrt(3)", "1/2"))])
def test_run_experiment_shared_sets_match_pointwise(p, v_inf, monkeypatch):
    # tests that repeat one real set (with and without a sector) and one
    # shell share a mask per chunk and image: the bare shell puts the run
    # on the whole ball's strip, where the full-turn set is evaluated
    # once per chunk and the sector on each image J^k gamma, k < 4
    monkeypatch.setattr(balls, "_SL2_BLOCK_PAIRS", 11)
    monkeypatch.setattr(balls, "_SL2_CHUNK_ELEMS", 29)
    cfg = ExperimentConfig(
        application="a22",
        v=OrbitVector.make(v_inf, fin=("1", "3"), p=p),
        t_ladder=(2, 3.5, 5),
        tests=tuple(parse_test(tok, p=p) for tok in (
            "product(annulus(0.5,4),shell(0))",
            "product(annulus(0.5,4),shell(1))",
            "annulus(0.5,4)",
            "product(annulus(0.5,4,0,3),shell(0))",
            "annulus(0.5,4,0,3)",
            "shell(0)")),
        capacity=10**6)
    calls, chunks = [], []
    contains = RealAnnulusSector.contains
    masks = equidist._ChunkEvaluator.masks
    monkeypatch.setattr(RealAnnulusSector, "contains",
                        lambda self, w: calls.append(self) or contains(self, w))
    monkeypatch.setattr(
        equidist._ChunkEvaluator, "masks",
        lambda self, level, mats, turns=False:
            chunks.append(turns) or masks(self, level, mats, turns))
    rep = run_experiment(cfg)
    assert chunks and all(chunks)
    full, sector = cfg.tests[2], cfg.tests[4]
    assert calls.count(full) == len(chunks)
    assert calls.count(sector) == len(calls) - len(chunks) == 4 * len(chunks)
    monkeypatch.undo()
    ntests = len(cfg.tests)
    for i, t in enumerate(cfg.t_ladder):
        elements = flatten(small_ball(group="sl2zp", p=p, t_inf=t, t_p=t))
        assert rep.totals[i] == (float(t), len(elements))
        rows = rep.rows[i * ntests:(i + 1) * ntests]
        for f, row in zip(cfg.tests, rows):
            assert row.count == orbit_sum_pointwise(elements, cfg.v, f, 1.0)
    assert all(row.count for row in rep.rows if row.t == 5)


def test_column_sums_round_like_the_pointwise_route():
    # the real action rounds each product and each partial sum once, left
    # to right, exactly as orbit_sum_pointwise does, for any vector
    rng = np.random.default_rng(5)
    mats = rng.integers(-2**40, 2**40, size=(2000, 2, 2))
    for vec in ((1.0, math.sqrt(2)), (math.sqrt(7), -3 / 11),
                (2.0**-30, math.sqrt(3) * 1.37)):
        want = [[sum(float(m[i][j]) * vec[j] for j in range(2))
                 for i in range(2)] for m in mats.tolist()]
        got = _column_sums(mats, np.array(vec))
        assert got.tobytes() == np.array(want).tobytes(), vec
    ints = np.array([3, -7], dtype=np.int64)
    assert np.array_equal(_column_sums(mats, ints), mats @ ints)


def test_finite_place_action_int64_headroom():
    # 2 * 128 * 10^17 > 2^63: the product would wrap and miscount shells
    v = OrbitVector.make(("1", "sqrt(2)"), fin=(str(10**17), "1"), p=3)
    shell = parse_test("shell(0)", p=3)
    spec = BallSpec("sl2zp", p=3, t_inf=128, t_p=1, capacity=10**6)
    with pytest.raises(ConfigError, match="int64"):
        hits(list(iter_ball_chunks(spec)), v, shell)
    cfg = ExperimentConfig(application="a22", v=v, t_ladder=(64, 128),
                           tests=(shell,), capacity=10**6)
    with pytest.raises(ConfigError, match="int64"):
        run_experiment(cfg)
    # numerators beyond int64 fail the same way, not with OverflowError
    huge = OrbitVector.make(("1", "sqrt(2)"), fin=(str(10**20), "1"), p=3)
    with pytest.raises(ConfigError, match="int64"):
        hits(small_ball(group="sl2z", t_inf=3), huge, shell)
    # inside the headroom the vectorized route stays exact
    fits = OrbitVector.make(("1", "sqrt(2)"), fin=(str(10**15), "1"), p=3)
    chunks = small_ball(group="sl2zp", p=3, t_inf=4, t_p=3)
    assert hits(chunks, fits, shell) == orbit_sum_pointwise(
        flatten(chunks), fits, shell, 1.0)


def test_run_experiment_ledrappier_calibrated_constant():
    # frozen during development: the fitted global constant for
    # Gamma = SL(2,Z), v = (1, sqrt 2) sits near 0.71; the T = 1000
    # empirical value of the [1,2] annulus stays within 15% of the
    # calibrated prediction
    cfg = led_config(t_ladder=(250, 500, 1000), capacity=10**8,
                     tests=(RealAnnulusSector(1, 2),))
    rep = run_experiment(cfg)
    row = next(r for r in rep.rows if r.t == 1000)
    assert row.empirical == pytest.approx(0.71 * TWO_PI, rel=0.15)


def test_report_invariants():
    rep = run_experiment(led_config())
    assert isinstance(rep, DistributionReport)
    assert all(c >= 0 for _, c in rep.totals)
    assert all(r.count >= 0 for r in rep.rows)
    assert all(cv >= 0 for _, cv in rep.constant_cv)
    labels = {r.test_id for r in rep.rows}
    assert labels == {f.label for f in led_config().tests}


# ---------------------------------------------------------------------------
# run_experiment's strip route against the stream

def _cells(rep):
    return [c for _, c in rep.totals], [r.count for r in rep.rows]


def _both_routes(cfg, monkeypatch):
    """(strip report, streamed report) of one config; the first must
    have taken the strip route."""
    assert equidist._strip_route(cfg) is not None
    strip = run_experiment(cfg)
    with monkeypatch.context() as mp:
        mp.setattr(equidist, "_strip_route", lambda config: None)
        stream = run_experiment(cfg)
    return strip, stream


def _random_literal(rng):
    kind = rng.choice(["surd", "surd", "rational", "zero"])
    sign = rng.choice(["", "-"])
    if kind == "zero":
        return "0"
    coef = f"{sign}{rng.randint(1, 7)}/{rng.randint(1, 5)}"
    if kind == "rational":
        return coef
    return f"{coef}*sqrt({rng.choice([2, 3, 5, 6, 7, 10, 11])})"


def _random_vector(rng):
    while True:
        v = (_random_literal(rng), _random_literal(rng))
        if v != ("0", "0"):
            return v


def _random_annulus(rng):
    r1 = rng.uniform(0.05, 2.0)
    r2 = r1 + rng.uniform(0.1, 3.5)
    if rng.random() < 0.5:
        return f"annulus({r1!r},{r2!r})"
    th1 = rng.uniform(-4.0, 4.0)
    return f"annulus({r1!r},{r2!r},{th1!r},{th1 + rng.uniform(0.1, 6.2)!r})"


def _random_shell(rng, p):
    s = rng.randint(-1, 2)
    if rng.random() < 0.5:
        return f"shell({s})"
    units = {(rng.randrange(p), rng.randrange(1, p)) for _ in range(2)}
    return f"shell({s},1,{'|'.join(f'{a}:{b}' for a, b in units)})"


def _random_ladder(rng, top):
    # exact and float radii, strictly increasing
    lo = Fraction(rng.randint(10, 30), 10)
    mid = float(lo) * rng.uniform(1.2, 1.6)
    return (lo, mid, top)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_strip_route_matches_stream_sl2zp(p, monkeypatch):
    # random vectors (surds and rationals, negative and zero coordinates),
    # exact and float radii, shells and unit-class boxes for s in -1..2,
    # both norms; the configs whose tests all have a shell also take the
    # p^k congruence on both rows, and a bare shell or box makes the
    # strip as wide as the ball
    rng = random.Random(100 + p)
    monkeypatch.setattr(balls, "_SL2_BLOCK_PAIRS", 97)
    monkeypatch.setattr(balls, "_SL2_CHUNK_ELEMS", 113)
    tops = {2: 9, 3: 8.5, 5: Fraction(21, 2)}
    for case in range(12):
        fin = (f"{rng.choice(['', '-'])}{rng.randint(1, 7)}/"
               f"{rng.choice([1, p, p * p, 5])}",
               rng.choice(["0", "3", f"1/{p}", f"{p}/7"]))
        v = OrbitVector.make(_random_vector(rng), fin=fin, p=p)
        tests = [f"product({_random_annulus(rng)},{_random_shell(rng, p)})"
                 for _ in range(rng.randint(1, 3))]
        if case % 3 == 2:
            tests.append(_random_annulus(rng))
        if case % 4 >= 2:
            tests.append(_random_shell(rng, p))
        norm = ("frobenius", "max")[case % 2]
        top = tops[p] if norm == "frobenius" else 0.75 * tops[p]
        cfg = ExperimentConfig(
            application="a22", v=v, t_ladder=_random_ladder(rng, top),
            tests=tuple(parse_test(tok, p=p) for tok in tests), norm=norm,
            capacity=10**7)
        strip, stream = _both_routes(cfg, monkeypatch)
        assert _cells(strip) == _cells(stream), (v, tests, norm)


def test_strip_route_matches_stream_sl2z(monkeypatch):
    # both norms, annulus sectors and wedge annuli in dimension 2
    rng = random.Random(7)
    monkeypatch.setattr(balls, "_SL2_BLOCK_PAIRS", 211)
    for case, application in enumerate(("ledrappier", "a21") * 4):
        tests = [_random_annulus(rng) for _ in range(rng.randint(1, 4))]
        if case % 3 == 1:
            r1 = rng.uniform(0.05, 2.0)
            tests.append(f"wedge({r1!r},{r1 + rng.uniform(0.1, 3.5)!r},2)")
        cfg = ExperimentConfig(
            application=application, v=OrbitVector.make(_random_vector(rng)),
            t_ladder=_random_ladder(rng, rng.choice([40, 61.5])),
            tests=tuple(parse_test(tok) for tok in tests),
            norm=("frobenius", "max")[case >= 4], capacity=10**7)
        strip, stream = _both_routes(cfg, monkeypatch)
        assert _cells(strip) == _cells(stream), cfg
    # an axis vector: the strip solves for its nonzero coordinate
    for v in (("1", "0"), ("0", "-2/3")):
        cfg = led_config(v=OrbitVector.make(v), t_ladder=(5, 12))
        strip, stream = _both_routes(cfg, monkeypatch)
        assert _cells(strip) == _cells(stream)


@pytest.mark.parametrize("p", [2, 3])
def test_strip_route_counts_negatives_of_non_invariant_tests(p,
                                                            monkeypatch):
    # the strip holds one of each quarter-turn orbit {J^k gamma}; a test
    # of period P under J counts the images J^k gamma, k < P, from masks
    # of their own: a half turn, a sector across the branch cut, and boxes
    # mod p and p^2 whose classes are closed under (a, b) -> (-b, a)
    # (period 1), only under u -> -u (2) or under neither (4), next to
    # full annuli and shells
    monkeypatch.setattr(balls, "_SL2_BLOCK_PAIRS", 97)
    by_period = {
        (2, 1): ("1:1", "1:0", None),
        (2, 2): ("1:0|0:1|3:0|0:3", "1:0|3:0|1:2|3:2", "1:0|1:2"),
        (3, 1): ("1:0|0:1|2:0|0:2", "1:0|2:0", "1:0|1:1"),
        (3, 2): ("1:4|5:1|8:5|4:8", "1:4|8:5", "1:4|8:4")}
    reals = ["annulus(0.5,3,0.3,3.4415926535897931)",
             "annulus(0.5,3,5,7)", "annulus(0.5,3)"]
    boxes = ["shell(0)", "shell(1)"]
    for s, m in ((0, 1), (1, 2)):
        for period, units in zip((1, 2, 4), by_period[p, m]):
            if units:
                boxes.append(f"shell({s},{m},{units})")
                assert parse_test(boxes[-1], p=p).turn_period == period
    tokens = [f"product({real},{box})" for real in reals for box in boxes]
    v = OrbitVector.make(("1", "sqrt(2)"), fin=("1", "3"), p=p)
    for extra in ([], [reals[0], reals[1]]):
        cfg = ExperimentConfig(
            application="a22", v=v, t_ladder=(3, 6),
            tests=tuple(parse_test(tok, p=p) for tok in tokens + extra),
            capacity=10**6)
        strip, stream = _both_routes(cfg, monkeypatch)
        assert _cells(strip) == _cells(stream), extra
        assert all(_cells(strip)[1])  # no test is empty


@pytest.mark.parametrize("p,v_inf", [(0, ("10/9", "-20/3")),
                                     (3, ("21/5", "-28/5"))])
def test_strip_route_keeps_elements_on_the_annulus_boundary(p, v_inf,
                                                            monkeypatch):
    # outer radii exactly at the float |gamma v| of ball elements whose
    # other row is orthogonal to v up to rounding: the strip of the first
    # row is then as tight as it gets, and the second row's slope is 0 or
    # a rounding error; the float test counts those elements, and so must
    # the strip route
    v = OrbitVector.make(v_inf, fin=("1", "2"), p=p or 2)
    spec = BallSpec("sl2zp" if p else "sl2z", p=p, t_inf=20,
                    t_p=9 if p else None, capacity=10**6)
    edges = set()
    for levels, mats in iter_ball_chunks(spec):
        w = _column_sums(mats, v.inf_floats()) / float(p or 1) ** levels[0]
        r = np.hypot(w[:, 0], w[:, 1])
        axis = (r >= 0.3) & (r <= 3) & (np.abs(w).min(axis=1) < 1e-9 * r)
        edges.update(r[axis].tolist())
    edges = sorted(edges)[::max(1, len(edges) // 6)]
    assert len(edges) >= 3
    tokens = [f"annulus(0.1,{edge!r})" for edge in edges]
    if p:
        tokens = [f"product({tok},shell(0))" for tok in tokens]
    cfg = ExperimentConfig(
        application="a22" if p else "ledrappier", v=v, t_ladder=(9, 20),
        tests=tuple(parse_test(tok, p=p) for tok in tokens), capacity=10**6)
    strip, stream = _both_routes(cfg, monkeypatch)
    assert _cells(strip) == _cells(stream)


@pytest.mark.parametrize("ladder,v_fin,tokens", [
    # every rung below 1: no level, an empty strip
    ((Fraction(1, 4), Fraction(1, 2)), ("1", "3"),
     ("product(annulus(1,2),shell(0))", "shell(1)")),
    # shells of a vector with denominator 2^40: the row congruence mod
    # 2^40 is cut below 2^30
    ((2, 4), ("1/1099511627776", "1"), ("shell(0)", "shell(2,1,1:0)")),
], ids=["rungs-below-1", "congruence-past-2^30"])
def test_strip_route_edge_cases_match_stream(ladder, v_fin, tokens,
                                             monkeypatch):
    cfg = ExperimentConfig(
        application="a22",
        v=OrbitVector.make(("1", "sqrt(2)"), fin=v_fin, p=2),
        t_ladder=ladder, tests=tuple(parse_test(t, p=2) for t in tokens))
    strip, stream = _both_routes(cfg, monkeypatch)
    assert _cells(strip) == _cells(stream)


def test_ladder_totals_match_box_scan_oracles():
    # random exact and float radii; sl2z, and sl2zp at p = 2 and 3
    rng = random.Random(29)
    for _ in range(3):
        t = rng.uniform(1.2, 5.5)
        cfg = led_config(tests=(), t_ladder=(t,))
        assert equidist._strip_route(cfg) is not None
        assert run_experiment(cfg).totals[0][1] == len(brute_sl2z(t))
    for p, top in ((2, 3.9), (3, 3.6)):
        for _ in range(2):
            t = rng.uniform(1.0, top)
            cfg = ExperimentConfig(
                application="a22",
                v=OrbitVector.make(("1", "sqrt(2)"), fin=("1", "3"), p=p),
                t_ladder=(t,), capacity=10**6)
            assert run_experiment(cfg).totals[0][1] \
                == len(brute_sl2zp(p, t, t))


def test_ladder_totals_capacity_and_headroom():
    cfg = led_config(tests=(RealAnnulusSector(1, 2),), t_ladder=(10, 20))
    total = run_experiment(cfg).totals[-1][1]
    assert run_experiment(led_config(
        tests=cfg.tests, t_ladder=(10, 20), capacity=total)).totals[-1][1] \
        == total
    with pytest.raises(CapacityError, match="capacity"):
        run_experiment(led_config(tests=cfg.tests, t_ladder=(10, 20),
                                  capacity=total - 1))
    with pytest.raises(CapacityError, match="int64"):
        run_experiment(led_config(tests=cfg.tests, t_ladder=(10, 2**31)))


def test_ladder_totals_memory_stays_bounded():
    # the T = 64 ladder of criterion 8 sums over Q up to 2^24, in blocks
    spec = BallSpec("sl2zp", p=2, t_inf=64, t_p=64, capacity=10**9)
    cfg = ExperimentConfig(
        application="a22",
        v=OrbitVector.make(("1", "sqrt(2)"), fin=("1", "3"), p=2),
        t_ladder=(4, 8, 16, 32, 64))
    cuts = equidist._ladder_cuts(cfg)
    tracemalloc.start()
    try:
        totals = balls.sl2_ladder_totals(spec, cuts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert totals == [2484, 46916, 775988, 12548820, 201171460]
    assert peak < 64 * 2**20


def _rung_cuts(p, rungs):
    """Ladder cuts of the balls (t_inf, t_p) of ``rungs``, -1 past each
    rung's levels (the layout of equidist._ladder_cuts)."""
    rows = [balls._level_cuts(Fraction(t_inf), p, Fraction(t_p))
            for t_inf, t_p in rungs]
    width = max(map(len, rows))
    return [row + [-1] * (width - len(row)) for row in rows]


def test_two_squares_pass_against_brute_force(monkeypatch):
    # blocks of 16 entries r2(4i + 1), 64 values of Q, and of 16 values of
    # r2 in the tail: many blocks, cuts on both sides of block edges,
    # levels that end in different blocks and shifts past the block (det
    # 25 and 49); every 2x2 matrix of norm_sq <= 256 has entries in
    # [-16, 16]
    monkeypatch.setattr(balls, "_R2_BLOCK", 1 << 4)
    e = np.arange(-16, 17)
    a, b, c, d = (x.ravel() for x in np.meshgrid(e, e, e, e, indexing="ij"))
    det_all, size_all = a * d - b * c, a * a + b * b + c * c + d * d
    rng = random.Random(29)
    dets = [1, 4, 9, 25, 49]
    cutsets = []
    for det in dets:
        xs = {2 * det + 64 * j + s for j in range(4) for s in (-1, 0, 1)}
        xs |= {rng.randint(0, 256) for _ in range(4)} | {2 * det - 1}
        cutsets.append(sorted(x for x in xs if x <= 256))
    meters = [balls._CapacityMeter(math.inf) for _ in dets]
    got = balls._det_norm_counts(dets, cutsets, meters)
    for det, xs, counts, meter in zip(dets, cutsets, got, meters):
        size = size_all[det_all == det]
        assert counts == [int((size <= x).sum()) for x in xs], det
        assert meter.count == max(counts)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_two_squares_pass_against_oracle(p, monkeypatch):
    # the table pass and the tail pass against the direct sum over every
    # Q, at blocks of 64: the levels det p^(2m) reach shifts past the
    # block (det 256, 81 and 625); cuts sit on both sides of the table's
    # block edges (Q = 4i + 1 at i = 64j) and of the tail's (q = 64j at
    # the odd shift), and below 2 det, where the count is 0
    monkeypatch.setattr(balls, "_R2_BLOCK", 1 << 6)
    rng = random.Random(p)
    dets = [p ** (2 * m) for m in range(5 if p == 2 else 3)]
    cutsets = []
    for det in dets:
        tail = 64 << (det & -det).bit_length() + 1  # 64 * 2^(v2(det) + 2)
        xs = {256 * j + s for j in range(1, 12) for s in (0, 1, 2)}
        xs |= {tail * j + s for j in (1, 2) for s in (-1, 0)}
        xs = {2 * det + y for y in xs if y <= 3000}
        xs |= {0, 2 * det - 1, 2 * det} | {rng.randint(0, 3000)
                                          for _ in range(4)}
        cutsets.append(sorted(xs))
    meters = [balls._CapacityMeter(math.inf) for _ in dets]
    got = balls._det_norm_counts(dets, cutsets, meters)
    assert got == [[two_squares_det_count(det, x) for x in xs]
                   for det, xs in zip(dets, cutsets)]
    assert [meter.count for meter in meters] == [max(c) for c in got]


@pytest.mark.parametrize("p,rungs", [
    (2, [(Fraction(3, 2), 1), (Fraction(5, 2), 2),
         (Fraction(23, 10), Fraction(9, 2)), (3, 8)]),  # level 3: shift 256
    (3, [(2, 2), (Fraction(5, 2), 3), (Fraction(5, 2), 9)]),  # shift 324
    (5, [(Fraction(3, 2), 1), (Fraction(7, 2), Fraction(26, 5)), (4, 5)]),
], ids=["p2", "p3", "p5"])
def test_ladder_totals_small_blocks_against_brute_force(p, rungs, monkeypatch):
    # the one pass over the r2(4i + 1) table for every level, at blocks of
    # 16 entries, 64 values of Q (the top levels span 6 or 7), against the
    # brute-force ball of each rung
    monkeypatch.setattr(balls, "_R2_BLOCK", 1 << 4)
    top = BallSpec("sl2zp", p=p, t_inf=max(t for t, _ in rungs),
                   t_p=max(t for _, t in rungs), capacity=10**9)
    totals = balls.sl2_ladder_totals(top, _rung_cuts(p, rungs))
    assert totals == [len(brute_sl2zp(p, t_inf, t_p)) for t_inf, t_p in rungs]


def _rule_blocks(end):
    """Starts of the blocks of the two-squares rule (balls._r2_block) that
    cover the entries 0..end."""
    starts = [0]
    while starts[-1] + balls._r2_block(starts[-1]) <= end:
        starts.append(starts[-1] + balls._r2_block(starts[-1]))
    return starts


def test_ladder_totals_build_r2_once_per_block(monkeypatch):
    # every level and every halving j of the a22 ladder T <= 32 reads its
    # slices from the one r2(4i + 1) table of each block: no p = 2 shift
    # 4^m / 2^j there exceeds a block, so there is one _r2_1mod4_range
    # call per block of the rule, in ascending order, each holding its
    # block up to the top level's last entry and at most the largest shift
    # past it
    calls = []
    real_table = balls._r2_1mod4_range

    def counted(lo, hi):
        calls.append((lo, hi))
        return real_table(lo, hi)

    monkeypatch.setattr(balls, "_r2_1mod4_range", counted)
    cuts = _rung_cuts(2, [(t, t) for t in (4, 8, 16, 32)])
    spec = BallSpec("sl2zp", p=2, t_inf=32, t_p=32)
    assert balls.sl2_ladder_totals(spec, cuts) == [2484, 46916, 775988,
                                                   12548820]
    top = len(cuts[-1]) - 1
    assert 4**top <= balls._r2_block(0)
    # the last table entry i of the top level: Q = 4i + 1 <= X - 2 det
    end = (cuts[-1][top] - 2 * 4**top - 1) // 4
    starts = _rule_blocks(end)
    assert [lo for lo, _ in calls] == starts and len(starts) > 1
    for lo, hi in calls:
        covered = lo + min(balls._r2_block(lo), end + 1 - lo)
        assert covered <= hi <= covered + 4**top


def test_two_squares_pass_across_rule_edges():
    # the default block rule against the direct sum over every Q, for the
    # dets 4^m of the a22 levels: cuts on both sides of the first block
    # edge and of the first block that grows.  Q = 4i + 1 of the halving
    # j ends at i = ((y >> j) - 1) // 4, so y = 4E and 4E + 1 end on
    # either side of the edge E at j = 0 (8E and 8E + 2 at j = 1)
    grown = next(i for i in _rule_blocks(1 << 21)
                 if balls._r2_block(i) > balls._R2_BLOCK)
    edges = [balls._r2_block(0), grown]
    ys = {y for e in edges for y in (4 * e, 4 * e + 1)}
    ys |= {8 * edges[0], 8 * edges[0] + 2}
    dets = [4**m for m in range(6)]
    cutsets = [sorted({0, 2 * det - 1} | {2 * det + y for y in ys})
               for det in dets]
    meters = [balls._CapacityMeter(math.inf) for _ in dets]
    got = balls._det_norm_counts(dets, cutsets, meters)
    assert got == [[two_squares_det_count(det, x) for x in xs]
                   for det, xs in zip(dets, cutsets)]
    assert [meter.count for meter in meters] == [max(c) for c in got]


def test_ladder_totals_working_set_stays_small():
    # the a22 ladder T <= 32 sums over some 2^18 table entries; its blocks
    # hold a few hundred KiB at a time (2^16-entry blocks peaked at 1.6 MiB)
    cuts = _rung_cuts(2, [(t, t) for t in (4, 8, 16, 32)])
    spec = BallSpec("sl2zp", p=2, t_inf=32, t_p=32)
    tracemalloc.start()
    try:
        totals = balls.sl2_ladder_totals(spec, cuts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert totals == [2484, 46916, 775988, 12548820]
    assert peak < 2**20


def _count_routes(monkeypatch):
    calls = {"stream": 0, "strip": 0}
    stream, strip = equidist.iter_ball_chunks, equidist.iter_sl2_strip_chunks

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(equidist, "iter_ball_chunks", counted("stream", stream))
    monkeypatch.setattr(equidist, "iter_sl2_strip_chunks",
                        counted("strip", strip))
    return calls


A22_V = OrbitVector.make(("1", "sqrt(2)"), fin=("1", "3"), p=2)


@pytest.mark.parametrize("norm", ["frobenius", "max"])
def test_strip_route_runs_one_pass_for_every_level(norm, monkeypatch):
    # the a22 ladder T <= 8 has levels 0..3: the strip route runs the SL(2)
    # engine once, at the top level (det 4^3), and takes each element's
    # level from its content; the stream runs it once per level, and
    # both give the same report
    calls = []
    real_blocks = balls._sl2_det_blocks

    def counted(det, *args, **kwargs):
        calls.append(det)
        return real_blocks(det, *args, **kwargs)

    monkeypatch.setattr(balls, "_sl2_det_blocks", counted)
    cfg = ExperimentConfig(
        application="a22", v=A22_V, t_ladder=(2, 4, 8), norm=norm,
        tests=tuple(parse_test(f"product(annulus(1,2),shell({s}))", p=2)
                    for s in (0, 1)))
    strip, stream = _both_routes(cfg, monkeypatch)
    assert calls == [4**3, 1, 4, 4**2, 4**3]
    assert _cells(strip) == _cells(stream)
    assert all(row.count for row in strip.rows)


@pytest.mark.parametrize("name,cfg", [
    # a window streams under either norm and whatever its tests: the
    # max-norm and bare-shell runs that stream are the windowed ones
    # (without a window they take the strip, see below)
    ("max", led_config(
        application="a21", t_ladder=(5, 10), norm="max",
        window=CongruenceWindow(2, 1, reps=((1, 0, 0, 1),)))),
    ("window", led_config(
        application="a21", t_ladder=(5, 10),
        window=CongruenceWindow(2, 1, reps=((1, 0, 0, 1),)))),
    ("bare shell", ExperimentConfig(
        application="a22", v=A22_V, t_ladder=(2, 4),
        tests=(parse_test("product(annulus(1,2),shell(0))", p=2),
               parse_test("shell(0)", p=2)),
        window=CongruenceWindow(2, 1, reps=((1, 0, 0, 1),)))),
    ("wedge", ExperimentConfig(
        application="wedge", n=3,
        v=OrbitVector.make(("1", "sqrt(2)", "sqrt(3)")), t_ladder=(2, 3),
        tests=(RealWedgeAnnulus(1, 2, 3),))),
])
def test_fallback_configs_stream_the_ball(name, cfg, monkeypatch):
    calls = _count_routes(monkeypatch)
    run_experiment(cfg)
    assert calls == {"stream": 1, "strip": 0}, name


def test_bounded_tests_take_the_strip_route(monkeypatch):
    # every SL(2) run without a window takes the strip, whatever its norm
    # and its tests
    calls = _count_routes(monkeypatch)
    run_experiment(led_config(t_ladder=(5, 10)))
    assert calls == {"stream": 0, "strip": 1}
    # without tests only the totals are needed
    run_experiment(led_config(t_ladder=(5, 10), tests=()))
    assert calls == {"stream": 0, "strip": 1}
    product = parse_test("product(annulus(1,2),shell(0))", p=2)
    for strips, cfg in enumerate([
            ExperimentConfig(application="a22", v=A22_V, t_ladder=(2, 4),
                             norm="max", tests=(product,)),
            # a bare shell bounds no |gamma v|: a strip of infinite width
            ExperimentConfig(application="a22", v=A22_V, t_ladder=(2, 4),
                             tests=(product, parse_test("shell(0)", p=2))),
            led_config(t_ladder=(5, 10), norm="max",
                       tests=(parse_test("wedge(1,2,2)"),))], 2):
        run_experiment(cfg)
        assert calls == {"stream": 0, "strip": strips}, cfg


def test_run_experiment_passes_its_workers_to_the_totals(monkeypatch):
    # the max-norm totals run their column blocks on the configured
    # workers, not on every core
    got = []
    totals = equidist.sl2_ladder_totals
    monkeypatch.setattr(
        equidist, "sl2_ladder_totals",
        lambda spec, cuts, workers=None: got.append(workers)
        or totals(spec, cuts, workers))
    for workers in (1, 2, None):
        run_experiment(led_config(t_ladder=(5, 10), norm="max",
                                  workers=workers))
    assert got == [1, 2, None]


def test_strip_route_evaluates_invariant_sectors_once(monkeypatch):
    # on the a22 ladder T <= 32 every test is invariant under negation:
    # -gamma is counted as gamma, with one contains call per distinct
    # real part and chunk
    calls, chunks = [], []
    contains = RealAnnulusSector.contains
    masks = equidist._ChunkEvaluator.masks

    def counted_contains(self, w):
        calls.append(self)
        return contains(self, w)

    def counted_masks(self, level, mats, turns=False):
        chunks.append(turns)
        return masks(self, level, mats, turns)

    monkeypatch.setattr(RealAnnulusSector, "contains", counted_contains)
    monkeypatch.setattr(equidist._ChunkEvaluator, "masks", counted_masks)
    tests = tuple(parse_test(tok, p=2) for tok in (
        "product(annulus(1,2),shell(0))", "product(annulus(1,3),shell(0))",
        "product(annulus(1,2),shell(1))"))
    rep = run_experiment(ExperimentConfig(
        application="a22", v=A22_V, t_ladder=(4, 8, 16, 32), tests=tests,
        capacity=10**9))
    assert [c for _, c in rep.totals] == [2484, 46916, 775988, 12548820]
    assert chunks and all(chunks)
    assert len(calls) == 2 * len(chunks)
    assert set(calls) == {f.real for f in tests}


def test_a22_strip_builds_one_of_each_quarter_turn_orbit(monkeypatch):
    # the a22 ladder T <= 32 of criterion 8: the strip caps each second
    # column's interval at |r2| <= |r1|, so it builds about a quarter of
    # the strip's elements rather than half (32,999 with one of each
    # +-gamma), and the totals hold
    built = [0]
    assemble = balls._sl2_assemble

    def counted(a, c, b0, d0, step_a, step_c, rep, *args):
        built[0] += len(rep)
        return assemble(a, c, b0, d0, step_a, step_c, rep, *args)

    monkeypatch.setattr(balls, "_sl2_assemble", counted)
    tests = tuple(parse_test(tok, p=2) for tok in (
        "product(annulus(1,2),shell(0))", "product(annulus(1,3),shell(0))",
        "product(annulus(1,2),shell(1))"))
    rep = run_experiment(ExperimentConfig(
        application="a22", v=A22_V, t_ladder=(4, 8, 16, 32), tests=tests,
        capacity=10**9, workers=1))
    assert [c for _, c in rep.totals] == [2484, 46916, 775988, 12548820]
    assert 0 < built[0] <= 16500
