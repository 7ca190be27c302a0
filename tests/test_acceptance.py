"""End-to-end acceptance checks, one criterion per test.

Each test prints a single PASS/FAIL line (visible under ``pytest -s``;
the verbose test status carries the same verdict) and enforces both
the quantitative tolerances and the runtime budget of its criterion.
The heavy criteria (growth exponents, the two S-arithmetic orbit runs)
dominate the wall clock; everything else is seconds.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np

from orbitlab.balls import (
    BallSpec,
    CongruenceWindow,
    ball_count,
    enum_sl2_zinvp,
    enum_sl2z,
    enum_slnz,
)
from orbitlab.cli import emit_report
from orbitlab.equidist import (
    ExperimentConfig,
    OrbitVector,
    RealAnnulusSector,
    parse_test,
    predicted_limit,
    run_experiment,
)
from orbitlab.places import padic_abs
from orbitlab.volumes import (
    SqrtPower,
    StabilizerBall,
    SymSquareUnipotentBall,
    fit_asymptotics,
    padic_sl2_ball_volume,
    skew_ball_ratio_limit,
    slope_fit,
)

from oracles import (
    brute_sl2z,
    brute_sl2zp,
    brute_slnz,
    mat_mul,
    minors_matrix,
    padic_ball_mass_oracle,
)

TWO_PI = 2.0 * math.pi


def _finish(num, label, checks, started, budget):
    elapsed = time.perf_counter() - started
    checks = list(checks)
    checks.append((f"runtime {elapsed:.1f}s within {budget:.0f}s",
                   elapsed < budget))
    ok = all(passed for _, passed in checks)
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {label} "
          f"({elapsed:.1f}s)", flush=True)
    failed = [desc for desc, passed in checks if not passed]
    for desc in failed:
        print(f"  failed: {desc}", flush=True)
    assert ok, f"criterion {num}: " + "; ".join(failed)


def test_criterion_01_exact_symsquare_volumes():
    started = time.perf_counter()
    checks = []
    for p in (2, 3, 5):
        ball = SymSquareUnipotentBall(p)
        ratios = set()
        exact = True
        for n in range(1, 41):
            plain = ball.ball_volume(n)
            skew = ball.skew_volume((0, 0, 0), (1, 0, -1), n)
            want_plain = SqrtPower.from_half_exponent(p, n + 2 * (n // 2))
            want_skew = SqrtPower.from_half_exponent(p, n + 2 * ((n - 1) // 2))
            exact &= plain == want_plain and skew == want_skew
            ratios.add((plain / skew).as_fraction())
        checks.append((f"p={p}: volumes match the closed form for n <= 40",
                       exact))
        two_values = ratios in ({Fraction(1), Fraction(p)},
                                {Fraction(1), Fraction(1, p)})
        checks.append(
            (f"p={p}: parity ratio set {{1, p^s}} with one sign, got {sorted(ratios)}",
             two_values))
    _finish(1, "exact ball and skew-ball volumes", checks, started, 1.0)


def test_criterion_02_residue_class_asymptotics():
    started = time.perf_counter()
    checks = []
    for p in (2, 3, 5):
        ball = SymSquareUnipotentBall(p)
        ts = [p**n for n in range(1, 41)]
        vols = [float(ball.ball_volume(n)) for n in range(1, 41)]
        profile = fit_asymptotics(ts, vols, p)
        checks.append((f"p={p}: modulus 2 selected",
                       profile.ok and profile.modulus == 2))
        for r, (c, d, e) in sorted(profile.classes.items()):
            checks.append(
                (f"p={p}: class {r} exponent {d:.6f} within 1e-3 of 1",
                 abs(d - 1.0) <= 1e-3))
        single = fit_asymptotics(ts, vols, p, moduli=(1,))
        checks.append((f"p={p}: modulus 1 flagged as non-convergent",
                       not single.ok and bool(single.message)))
    _finish(2, "residue-class volume asymptotics", checks, started, 1.0)


def test_criterion_03_padic_ball_masses():
    started = time.perf_counter()
    checks = []
    for p in (2, 3, 5):
        agrees = all(
            padic_sl2_ball_volume(p, j) == padic_ball_mass_oracle(p, j)
            for j in range(0, 7)
        )
        checks.append((f"p={p}: equals the primitive-class oracle for j <= 6",
                       agrees))
        ratio = padic_sl2_ball_volume(p, 6) / padic_sl2_ball_volume(p, 5)
        err = abs(float(ratio) / p**2 - 1.0)
        checks.append(
            (f"p={p}: growth ratio {float(ratio):.5f} within 2% of p^2", err <= 0.02))
    _finish(3, "p-adic ball masses", checks, started, 10.0)


def test_criterion_04_enumeration_oracles():
    started = time.perf_counter()
    checks = []

    mats = enum_sl2z(BallSpec("sl2z", t_inf=8, norm="max"))
    got = sorted(tuple(int(e) for e in m.ravel()) for m in mats)
    want = brute_sl2z(8, "max")
    checks.append((f"sl2z max norm T=8: {len(got)} elements equal the oracle",
                   got == want))

    for norm in ("frobenius", "max"):
        spec = BallSpec("sl2zp", p=2, t_inf=8, t_p=4, norm=norm)
        levels, mats = enum_sl2_zinvp(spec)
        got = sorted((int(m), tuple(int(e) for e in mat.ravel()))
                     for m, mat in zip(levels, mats))
        want = brute_sl2zp(2, 8, 4, norm)
        checks.append(
            (f"sl2zp p=2 T=8 T_p=4 {norm}: {len(got)} elements equal the oracle",
             got == want))

    mats = enum_slnz(BallSpec("slnz", n=3, t_inf=2.9))
    got = sorted(tuple(int(e) for e in m.ravel()) for m in mats)
    want = brute_slnz(3, 2.9)
    checks.append((f"sl3z T=2.9: {len(got)} elements equal the oracle",
                   got == want))
    _finish(4, "enumeration against brute-force oracles", checks, started, 300.0)


def test_criterion_05_ball_growth_exponents():
    started = time.perf_counter()
    checks = []

    ts2 = [125, 250, 500, 1000, 2000]
    counts2 = [ball_count(BallSpec("sl2z", t_inf=t, capacity=10**8))
               for t in ts2]
    slope2, err2 = slope_fit(ts2, counts2)
    checks.append(
        (f"sl2z slope {slope2:.4f} +- {err2:.4f} within 2.0 +- 0.1",
         abs(slope2 - 2.0) <= 0.1))

    ts3 = [2.46, 3.48, 4.92, 6.96, 9.84, 13.92, 19.68]
    counts3 = [ball_count(BallSpec("slnz", n=3, t_inf=t, capacity=2 * 10**9))
               for t in ts3]
    frozen = [2616, 25656, 226680, 1818744, 14551512, 119434200, 952526040]
    checks.append(("sl3z ladder counts reproduce the frozen values",
                   counts3 == frozen))
    slope3, err3 = slope_fit(ts3, counts3)
    checks.append(
        (f"sl3z slope {slope3:.4f} +- {err3:.4f} within 6.0 +- 0.5",
         abs(slope3 - 6.0) <= 0.5))
    _finish(5, "ball-growth exponents", checks, started, 600.0)


def test_criterion_06_plane_orbit_equidistribution():
    started = time.perf_counter()
    config = ExperimentConfig(
        application="ledrappier",
        v=OrbitVector.make(("1", "sqrt(2)")),
        t_ladder=(250, 500, 1000, 2000),
        tests=(
            RealAnnulusSector(1, 2),
            RealAnnulusSector(1, 3),
            RealAnnulusSector(1, 2, 0.0, math.pi),
            RealAnnulusSector(1, 2, 0.0, math.pi / 2),
        ),
        capacity=10**8,
    )
    report = run_experiment(config)
    checks = [("density hypothesis accepted", report.flags == ())]
    top = [r for r in report.rows if r.t == 2000]
    for row in top:
        checks.append(
            (f"{row.test_id}: ratio error {row.rel_error:.4f} within 15%",
             row.rel_error <= 0.15))
    cv = dict(report.constant_cv)[2000]
    checks.append((f"constant CV {cv:.4f} under 10%", cv <= 0.10))
    errs = [e for _, e in report.max_rel_error]
    checks.append(
        (f"max ratio error never increases along the ladder: {errs}",
         all(a >= b for a, b in zip(errs, errs[1:])) and errs[-1] < errs[0]))
    _finish(6, "plane orbit equidistribution at T=2000", checks, started, 600.0)


def test_criterion_07_window_scaling():
    started = time.perf_counter()
    tests = (
        RealAnnulusSector(1, 2),
        RealAnnulusSector(1, 3),
        RealAnnulusSector(1, 2, 0.0, math.pi),
        RealAnnulusSector(2, 3),
    )
    base = dict(
        v=OrbitVector.make(("1", "sqrt(2)")),
        t_ladder=(500, 1000, 2000),
        tests=tests,
        capacity=10**8,
    )
    window = CongruenceWindow(2, 1, reps=((1, 0, 0, 1),))
    full = run_experiment(ExperimentConfig(application="a21", **base))
    part = run_experiment(ExperimentConfig(application="a21", window=window,
                                           **base))
    target = 1.0 / 6.0
    checks = []
    for rf, rw in zip(full.rows, part.rows):
        if rf.t != 2000:
            continue
        ratio = rw.count / rf.count
        checks.append(
            (f"{rf.test_id}: windowed share {ratio:.5f} within 20% of 1/6",
             abs(ratio / target - 1.0) <= 0.20))
    share = dict(part.totals)[2000.0] / dict(full.totals)[2000.0]
    checks.append(
        (f"windowed ball share {share:.5f} within 20% of 1/6",
         abs(share / target - 1.0) <= 0.20))
    checks.append(("window scale enters the predictions",
                   predicted_limit("a21", tests, window=window).window_scale
                   == Fraction(1, 6)))
    _finish(7, "congruence window scaling", checks, started, 900.0)


def test_criterion_08_sarithmetic_orbit_structure():
    started = time.perf_counter()
    tests = (
        parse_test("product(annulus(1,2),shell(0))", p=2),
        parse_test("product(annulus(1,3),shell(0))", p=2),
        parse_test("product(annulus(1,2),shell(1))", p=2),
    )
    config = ExperimentConfig(
        application="a22",
        v=OrbitVector.make(("1", "sqrt(2)"), fin=("1", "3"), p=2),
        t_ladder=(4, 8, 16, 32, 64),
        tests=tests,
        capacity=10**9,
    )
    checks = []
    for f in tests:
        re_part, qp_part = f.predicted_parts()
        checks.append(
            (f"{f.label}: prediction factors exactly over the places",
             f.predicted() == re_part * float(qp_part)))
    report = run_experiment(config)
    checks.append(("density hypothesis accepted", report.flags == ()))
    slope = report.slope_first_test
    checks.append(
        (f"count slope {slope.exponent:.4f} against {slope.against} "
         f"within 1 +- 0.15", abs(slope.exponent - 1.0) <= 0.15))
    checks.append(("normalizer labelled with the integer-part exponent",
                   report.normalizer_label == "T*2^E(ln_2 T)"))
    _finish(8, "S-arithmetic orbit growth and factorization", checks,
            started, 900.0)


def test_criterion_09_skew_ball_ratio_closed_form():
    started = time.perf_counter()
    rng = np.random.default_rng(20260814)
    worst_fit = 0.0
    worst_product = 0.0
    all_converged = True
    for _ in range(20):
        v = tuple(rng.uniform(-2.0, 2.0, size=2))
        while math.hypot(*v) < 0.5:
            v = tuple(rng.uniform(-2.0, 2.0, size=2))
        a = rng.uniform(-2.0, 2.0)
        while abs(a) < 0.3:
            a = rng.uniform(-2.0, 2.0)
        b, c = rng.uniform(-2.0, 2.0, size=2)
        d = (1.0 + b * c) / a
        g = ((a, b), (c, d))
        ball = StabilizerBall(v)
        res = skew_ball_ratio_limit(ball, g)
        all_converged &= res.converged
        est = res.estimates[0]
        worst_fit = max(worst_fit, abs(est / res.closed_form - 1.0))
        ginv_v = (d * v[0] - b * v[1], -c * v[0] + a * v[1])
        product = est * math.hypot(*ginv_v) / math.hypot(*v)
        worst_product = max(worst_product, abs(product - 1.0))
    checks = [
        ("all 20 ladder extrapolations converged", all_converged),
        (f"worst closed-form error {worst_fit:.2e} within 1e-4",
         worst_fit <= 1e-4),
        (f"worst orientation-product error {worst_product:.2e} within 1e-3",
         worst_product <= 1e-3),
    ]
    _finish(9, "skew-ball ratio closed form", checks, started, 60.0)


def test_criterion_10_property_suites(tmp_path):
    started = time.perf_counter()
    checks = []

    rng = random.Random(10)
    laws = True
    for _ in range(300):
        p = rng.choice((2, 3, 5))
        x = Fraction(rng.randrange(-400, 400), rng.randrange(1, 60))
        y = Fraction(rng.randrange(-400, 400), rng.randrange(1, 60))
        laws &= padic_abs(x * y, p) == padic_abs(x, p) * padic_abs(y, p)
        laws &= padic_abs(x + y, p) <= max(padic_abs(x, p), padic_abs(y, p))
        if padic_abs(x, p) != padic_abs(y, p):
            laws &= padic_abs(x + y, p) == max(padic_abs(x, p), padic_abs(y, p))
    checks.append(("ultrametric and multiplicativity laws, 300 samples", laws))

    binet = True
    for _ in range(200):
        n = rng.choice((3, 4))
        k = rng.randrange(2, n)
        a = [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(n)]
        b = [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(n)]
        binet &= minors_matrix(mat_mul(a, b), k) == mat_mul(
            minors_matrix(a, k), minors_matrix(b, k))
    checks.append(("wedge multiplicativity on 200 random pairs", binet))

    cuts = (0.0, 1.1, 2.7, TWO_PI)
    parts = [RealAnnulusSector(1, 2, cuts[i], cuts[i + 1]) for i in range(3)]
    whole = RealAnnulusSector(1, 2)
    counts = [row.count for row in run_experiment(ExperimentConfig(
        application="ledrappier", v=OrbitVector.make(("1", "sqrt(2)")),
        t_ladder=(25,), tests=(*parts, whole))).rows]
    additive = (
        sum(counts[:-1]) == counts[-1] > 0
        and abs(sum(f.predicted() for f in parts) - whole.predicted()) < 1e-12
    )
    checks.append(("indicator additivity over a disjoint sector split",
                   additive))

    doc = {"rows": [[1, Fraction(1, 3), 0.1 + 0.2]], "label": "x,y"}
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    emit_report(doc, "json", str(p1))
    emit_report(doc, "json", str(p2))
    c1, c2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_report((["a", "b"], [[Fraction(1, 3), "x,y"]]), "csv", str(c1))
    emit_report((["a", "b"], [[Fraction(1, 3), "x,y"]]), "csv", str(c2))
    checks.append(("report emission is byte-stable",
                   p1.read_bytes() == p2.read_bytes()
                   and c1.read_bytes() == c2.read_bytes()))
    _finish(10, "property suites", checks, started, 60.0)
