"""Ball enumeration against exhaustive box-scan oracles."""

from __future__ import annotations

import dataclasses
import itertools
import math
import os
import random
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from orbitlab import balls
from orbitlab.balls import (
    BallSpec,
    CongruenceWindow,
    _cofactor_vector,
    _orbit_rows,
    _pack_rows,
    _particular_solution,
    _row_table,
    _sl2_columns,
    _xgcd_arrays,
    ball_count,
    enum_sl2_zinvp,
    enum_sl2z,
    enum_slnz,
    exact_radius,
    filter_window,
    iter_ball_chunks,
    iter_sl2_strip_chunks,
    iter_sl2_zinvp_chunks,
    norm_sq,
    norm_sq_cut,
    resolve_workers,
)
from orbitlab.errors import CapacityError, ConfigError, InvariantError
from orbitlab.places import padic_abs

from oracles import (
    box_det_count,
    box_scan_sl2zp,
    box_scan_slnz,
    brute_sl2z,
    brute_sl2zp,
    brute_slnz,
    det_np_batch,
    laplace_det,
    two_squares_det_count,
    xgcd,
)


def as_tuples(mats):
    return sorted(tuple(int(e) for e in m.ravel()) for m in mats)


def first_nonzero(rows):
    """The first nonzero entry of each row of an (N, n) array (0 if none)."""
    return rows[np.arange(len(rows)), np.argmax(rows != 0, axis=1)]


def test_xgcd_arrays_matches_math_gcd():
    rng = random.Random(11)
    a = np.array([rng.randint(-9999, 9999) for _ in range(400)] + [0, 0, 7, -7],
                 dtype=np.int64)
    b = np.array([rng.randint(-9999, 9999) for _ in range(400)] + [0, 5, 0, 0],
                 dtype=np.int64)
    g, x, y = _xgcd_arrays(a, b)
    for ai, bi, gi, xi, yi in zip(a, b, g, x, y):
        assert gi == math.gcd(int(ai), int(bi))
        assert xi * ai + yi * bi == gi


def test_xgcd_arrays_matches_python_xgcd():
    # the same (g, x, y) as a scalar Euclid, whichever step each pair
    # finishes at: zeros, negatives, equal and opposite entries
    rng = random.Random(13)
    pairs = [(rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6))
             for _ in range(3000)]
    pairs += [(rng.randint(-40, 40), rng.randint(-40, 40)) for _ in range(500)]
    for k in (0, 1, -1, 6, -6, 10**6):
        pairs += [(k, 0), (0, k), (k, k), (k, -k), (-k, k)]
    pairs += [(f, g) for f, g in zip((1, 2, 3, 5, 8, 13, 21, 34, 55, 89),
                                     (1, 1, 2, 3, 5, 8, 13, 21, 34, 55))]
    a, b = (np.array(col, dtype=np.int64) for col in zip(*pairs))
    got = np.stack(_xgcd_arrays(a, b), axis=1).tolist()
    assert got == [list(xgcd(ai, bi)) for ai, bi in pairs]


def test_xgcd_bezout_bounds():
    # the int64 headroom guard of the SL(2) engine relies on |x| <= |b/g|
    # and |y| <= |a/g| (or 1 when that entry is 0)
    rng = random.Random(12)
    vals = [rng.randint(-10**6, 10**6) for _ in range(4000)]
    a = np.array(vals[:2000] + [0, 5, -5, 0, 12, -12], dtype=np.int64)
    b = np.array(vals[2000:] + [7, 0, 0, -7, 18, -18], dtype=np.int64)
    g, x, y = _xgcd_arrays(a, b)
    assert np.all(np.abs(x) <= np.maximum(np.abs(b) // g, 1))
    assert np.all(np.abs(y) <= np.maximum(np.abs(a) // g, 1))


@pytest.mark.parametrize("norm", ["frobenius", "max"])
@pytest.mark.parametrize("t", [1.5, 2, 2.5, 3, 4.25, 6])
def test_sl2z_matches_brute_force(t, norm):
    got = as_tuples(enum_sl2z(BallSpec("sl2z", t_inf=t, norm=norm), workers=1))
    assert got == brute_sl2z(t, norm)


def test_sl2z_order_and_determinism():
    spec = BallSpec("sl2z", t_inf=12.5)
    one = enum_sl2z(spec, workers=1)
    many = enum_sl2z(spec, workers=3)
    assert np.array_equal(one, many)
    # documented order: lex on first column, then the completion step
    cols = _pack_rows(one[:, :, 0])
    assert np.all(np.diff(cols) >= 0)
    d = one[:, 1, 1][np.diff(cols, prepend=cols[0] - 1) == 0]
    del d  # within a column the parameter is increasing by construction
    flat = one.reshape(len(one), -1)
    assert len(np.unique(_pack_rows(flat[:, :2]) * (1 << 32)
                         + _pack_rows(flat[:, 2:]))) == len(one)


def test_sl2z_inverse_and_negation_closed():
    mats = enum_sl2z(BallSpec("sl2z", t_inf=7.5), workers=1)
    have = set(as_tuples(mats))
    for m in mats[::17]:
        a, b, c, d = (int(e) for e in m.ravel())
        assert (-a, -b, -c, -d) in have
        assert (d, -b, -c, a) in have  # adjugate = inverse, same Frobenius norm
    assert len(mats) % 2 == 0


def test_sl2z_tiny_radii():
    assert len(enum_sl2z(BallSpec("sl2z", t_inf=Fraction(1, 2)))) == 0
    exact = enum_sl2z(BallSpec("sl2z", t_inf="3/2"))
    assert as_tuples(exact) == brute_sl2z(1.5)
    # radius just past sqrt(2): only +-identity and +-rotation
    assert len(enum_sl2z(BallSpec("sl2z", t_inf=1.415))) == 4


@pytest.mark.parametrize("norm", ["frobenius", "max"])
@pytest.mark.parametrize("p,t_inf,t_p", [(2, 3, 4), (2, 5.5, 2), (3, 2.5, 9), (5, 2, 5)])
def test_sl2zp_matches_brute_force(p, t_inf, t_p, norm, monkeypatch):
    spec = BallSpec("sl2zp", p=p, t_inf=t_inf, t_p=t_p, norm=norm)
    levels, mats = enum_sl2_zinvp(spec, workers=1)
    got = sorted((int(m), tuple(int(e) for e in mat.ravel()))
                 for m, mat in zip(levels, mats))
    assert got == brute_sl2zp(p, t_inf, t_p, norm)
    # tiny SL(2) blocks and chunks cut the same stream finer: every chunk
    # stays within the element bound and the concatenation keeps the order
    monkeypatch.setattr(balls, "_SL2_BLOCK_PAIRS", 7)
    monkeypatch.setattr(balls, "_SL2_CHUNK_ELEMS", 5)
    chunks = list(iter_sl2_zinvp_chunks(spec, workers=2))
    assert len(chunks) > len(set(levels.tolist()))
    assert all(0 < len(m) <= 5 for _, m in chunks)
    assert np.array_equal(np.concatenate([lev for lev, _ in chunks]), levels)
    assert np.array_equal(np.concatenate([m for _, m in chunks]), mats)


def test_sl2zp_levels():
    spec0 = BallSpec("sl2zp", p=3, t_inf=5, t_p=1)
    levels, mats = enum_sl2_zinvp(spec0, workers=1)
    assert set(levels.tolist()) <= {0}
    assert as_tuples(mats) == as_tuples(enum_sl2z(BallSpec("sl2z", t_inf=5)))
    levels, mats = enum_sl2_zinvp(
        BallSpec("sl2zp", p=3, t_inf=5, t_p=Fraction(1, 3)), workers=1)
    assert len(mats) == 0
    levels, _ = enum_sl2_zinvp(BallSpec("sl2zp", p=2, t_inf=4, t_p=8), workers=1)
    assert sorted(set(levels.tolist())) == [0, 1, 2, 3]


@pytest.mark.parametrize("norm", ["frobenius", "max"])
@pytest.mark.parametrize("t", [1.5, 2.5, 4.25])
def test_slnz_n2_matches_column_engine(t, norm):
    spec = BallSpec("slnz", n=2, t_inf=t, norm=norm)
    got = as_tuples(enum_slnz(spec, workers=1))
    assert got == as_tuples(enum_sl2z(BallSpec("sl2z", t_inf=t, norm=norm)))


def test_sl3_matches_brute_force():
    spec = BallSpec("slnz", n=3, t_inf=2.2)
    assert as_tuples(enum_slnz(spec, workers=1)) == brute_slnz(3, 2.2)


def test_sl3_max_norm_matches_brute_force():
    spec = BallSpec("slnz", n=3, t_inf=1, norm="max")
    assert as_tuples(enum_slnz(spec, workers=1)) == brute_slnz(3, 1, "max")


def test_sl3_midscale_invariants():
    spec = BallSpec("slnz", n=3, t_inf=6)
    mats = enum_slnz(spec, workers=2)
    assert np.all(det_np_batch(mats) == 1)
    norms = (mats.astype(np.int64) ** 2).sum(axis=(1, 2))
    assert norms.max() <= 36
    keys = [_pack_rows(mats[:, i]) for i in range(3)]
    packed = (keys[0] << 34) + (keys[1] << 4) % (1 << 34)
    # full lex order on rows
    order = np.lexsort((keys[2], keys[1], keys[0]))
    assert np.array_equal(order, np.arange(len(mats)))
    assert ball_count(spec) == len(mats)
    count_even = len(mats) % 2 == 0  # gamma and gamma^T both occur
    assert count_even
    tup = set(as_tuples(mats))
    for m in mats[::97]:
        assert tuple(int(e) for e in m.T.ravel()) in tup


def test_sl4_signed_permutations():
    mats = enum_slnz(BallSpec("slnz", n=4, t_inf=2.1), workers=1)
    assert len(mats) == 192
    assert np.all(det_np_batch(mats) == 1)
    assert np.all(np.abs(mats).sum(axis=(1, 2)) == 4)


@pytest.mark.parametrize("n,tmax,norm", [(2, 4.0, "frobenius"),
                                         (2, 4.0, "max"),
                                         (3, 2.4, "frobenius"),
                                         (3, 2.4, "max")])
def test_slnz_against_box_scan_random_radii(n, tmax, norm):
    # count and enumeration share the last-row solver; the box scan
    # shares nothing with either, and equals the slower brute_slnz
    small = 2.2 if norm == "frobenius" else 1.5
    assert [tuple(r) for r in box_scan_slnz(n, small, norm).tolist()] \
        == brute_slnz(n, small, norm)
    rng = random.Random(40 + n)
    for _ in range(6):
        t = Fraction(rng.randint(100, int(tmax * 100)), 100)
        want = box_scan_slnz(n, t, norm)
        spec = BallSpec("slnz", n=n, t_inf=t, norm=norm)
        got = enum_slnz(spec, workers=1).reshape(-1, n * n)
        assert np.array_equal(got, want), t
        assert ball_count(spec, workers=1) == len(want), t


@pytest.mark.parametrize("route,t,norm,count", [
    ("count", 2.5, "frobenius", 50880), ("enum", 2.5, "frobenius", 50880),
    ("count", 3, "frobenius", 2109120), ("count", 1, "max", 5170368),
    ("count", 3.3, "frobenius", 3989184), ("count", 4, "frobenius", 101626560)])
def test_sl4_counts_pinned(route, t, norm, count):
    # too large for the box scan: the counts of an earlier, independent
    # enumeration (float bounding boxes around the whole ellipsoid and an
    # exact filter); a capacity equal to the count passes
    spec = BallSpec("slnz", n=4, t_inf=t, norm=norm, capacity=count)
    if route == "count":
        assert ball_count(spec, workers=2) == count
    else:
        assert len(enum_slnz(spec, workers=2)) == count


@pytest.mark.parametrize("t,norm,reduced,chunk", [
    (2, "max", True, None), (3, "frobenius", False, None),
    (3, "frobenius", False, 1 << 14), (4, "frobenius", True, None),
    (4, "frobenius", True, 1 << 10), (2, "max", True, 1 << 14)])
def test_slnz_blocks_hold_at_most_chunk_prefixes(t, norm, reduced, chunk,
                                                 monkeypatch):
    # the prefixes (rows 1..3) of each first row of SL(4), counted here
    # from every pair of table rows without building them: every block
    # holds at most _CHUNK_PAIRS of them or a single first row, and the
    # blocks cover the first rows in order; with small blocks the built
    # prefixes match the counts (and are sorted by row size if reduced)
    if chunk:
        monkeypatch.setattr(balls, "_CHUNK_PAIRS", chunk)
    plan = balls._SlnzPlan(BallSpec("slnz", n=4, t_inf=t, norm=norm), reduced)
    k2, k3 = (k.ravel() for k in np.meshgrid(plan.keys_ns, plan.keys_ns,
                                             indexing="ij"))
    per_key = {}
    for k1 in np.unique(plan.keys1).tolist():
        fits = (k1 >= k2) & (k2 >= k3) if reduced else np.ones(len(k2), bool)
        if norm == "frobenius":  # the last row keeps a size of at least 1
            fits &= k1 + k2 + k3 <= plan.sq - 1
        per_key[k1] = int(fits.sum())
    per_row = np.array([per_key[k] for k in plan.keys1.tolist()])
    starts, stops = zip(*plan.blocks)
    assert starts[0] == 0 and stops[-1] == len(plan.rows1)
    assert starts[1:] == stops[:-1]
    sizes = [int(per_row[a:b].sum()) for a, b in plan.blocks]
    assert all(size <= balls._CHUNK_PAIRS or b - a == 1
               for size, (a, b) in zip(sizes, plan.blocks))
    if chunk:
        assert len(plan.blocks) > (10 if reduced else 20)
        built = [plan.prefixes(span) for span in plan.blocks]
        assert [len(prefix) for prefix, *_ in built] == sizes
        if reduced:
            for *_, keys in built:
                assert np.all(keys[0] >= keys[1]) and np.all(keys[1] >= keys[2])


@pytest.mark.parametrize("group,kw,count", [
    ("sl2z", dict(t_inf=1000), 9734132), ("sl2z", dict(t_inf=2000), 38930804),
    ("sl2zp", dict(p=2, t_inf=20, t_p=8), 500300),
    ("sl2zp", dict(p=3, t_inf=30, t_p=27), 9594596),
    ("sl2zp", dict(p=5, t_inf=12, t_p=25), 1088500),
    ("slnz", dict(n=3, t_inf=2), 67704), ("slnz", dict(n=3, t_inf=4), 2597208),
    ("slnz", dict(n=3, t_inf=5), 10426488), ("slnz", dict(n=3, t_inf=6), 23527320)])
def test_max_norm_counts_pinned(group, kw, count):
    # too large for the box scans: the counts of the earlier max-norm
    # ball_count, which built, checked and counted every element through
    # the chunk stream; a capacity equal to the count passes
    spec = BallSpec(group, norm="max", capacity=count, **kw)
    assert ball_count(spec, workers=2) == count


@pytest.mark.parametrize("t,count", [("9.84", 14551512), ("13.92", 119434200)])
def test_sl3_counts_pinned(t, count):
    # the counts of the earlier count path, which solved every ordering
    # of the later rows; a capacity equal to the count passes
    spec = BallSpec("slnz", n=3, t_inf=Fraction(t), capacity=count)
    assert ball_count(spec, workers=2) == count


@pytest.mark.parametrize("p", [2, 3, 5])
def test_ragged_layout_matches_plain_pairs(p):
    # the one (line, t) layout against a plain list of its pairs: random
    # lengths with zeros, one stride or one per line, skipped residues
    # mod p or none, and windows that begin and end inside lines
    rng = np.random.default_rng(p)
    for trial in range(60):
        n = int(rng.integers(1, 12))
        lengths = rng.integers(0, 9, n)
        lengths[rng.random(n) < 0.3] = 0
        start = rng.integers(-20, 20, n)
        stride = (int(rng.integers(1, 4)) if trial % 2
                  else rng.integers(1, 5, n))
        skip = (None if trial % 3 == 0 else
                np.where(rng.random(n) < 0.5, rng.integers(0, p, n), -1))
        steps = np.broadcast_to(stride, n)
        pairs = [(r, int(start[r] + steps[r] * o))
                 for r in range(n) for o in range(lengths[r])
                 if skip is None or skip[r] < 0 or o % p != skip[r]]
        before = lengths.copy()
        total, window = balls._ragged_layout(start, lengths, stride, skip, p)
        assert total == len(pairs) and np.array_equal(lengths, before)
        cuts = sorted({0, total, *rng.integers(0, total + 1, 5).tolist()})
        for lo, hi in zip(cuts, cuts[1:]):
            rep, t = window(lo, hi)
            assert list(zip(rep.tolist(), t.tolist())) == pairs[lo:hi]


def test_quadratic_interval_is_exact():
    rng = np.random.default_rng(8)
    qa = rng.integers(1, 40, 3000)
    qb = rng.integers(-400, 400, 3000)
    qc = rng.integers(-3000, 3000, 3000)
    tlo, thi = balls._quadratic_interval(qa, qb, qc)
    t = np.arange(-1000, 1000)
    inside = qa[:, None] * t * t + 2 * qb[:, None] * t + qc[:, None] <= 0
    assert np.array_equal(thi - tlo + 1, inside.sum(axis=1))
    some = inside.any(axis=1)
    assert np.array_equal(t[inside.argmax(axis=1)][some], tlo[some])
    assert np.all(thi[~some] == tlo[~some] - 1)


def _count_interval_rows(monkeypatch):
    """Counter of the rows in the exact intervals of the lines that
    _complete_last_row lays out, which are all the rows enumeration
    builds.  The capacity count before them (ball_count, the only caller
    that asks for a slack interval) solves lines it never builds."""
    built = [0]
    real = balls._last_row_lines

    def counting(prefix, budget, limit, bound=None, slack=None):
        out = real(prefix, budget, limit, bound, slack)
        if slack is None:
            _, (_, _, tlo, thi), _ = out
            built[0] += int((thi - tlo + 1).sum())
        return out

    monkeypatch.setattr(balls, "_last_row_lines", counting)
    return built


@pytest.mark.parametrize("n,t", [(2, 9.5), (3, 3.5), (4, 2.5)])
def test_slnz_builds_no_rejected_row(n, t, monkeypatch):
    built = _count_interval_rows(monkeypatch)
    mats = enum_slnz(BallSpec("slnz", n=n, t_inf=t), workers=1)
    assert len(mats) > 0 and built[0] == len(mats)


@pytest.mark.parametrize("n,t,norm", [
    (2, 3, "frobenius"), (3, 3, "frobenius"), (4, 2.5, "frobenius"),
    (2, 3, "max"), (3, 2, "max")],
    ids=["2-3", "3-3", "4-2.5", "2-3-max", "3-2-max"])
def test_widened_last_row_interval_raises(n, t, norm, monkeypatch):
    # a row the solver should not have built is an invariant error,
    # never dropped silently, under either norm's exact interval
    name = "_quadratic_interval" if norm == "frobenius" else "_box_interval"
    real = getattr(balls, name)

    def widened(*args):
        tlo, thi = real(*args)
        return tlo - 1, thi + 1

    monkeypatch.setattr(balls, name, widened)
    with pytest.raises(InvariantError, match="outside the ball"):
        enum_slnz(BallSpec("slnz", n=n, t_inf=t, norm=norm), workers=1)


@pytest.mark.parametrize("n,t,norm", [(3, 3.5, "frobenius"), (3, 1, "max"),
                                      (4, 2.5, "frobenius")])
def test_slnz_capacity_counts_emitted_elements(n, t, norm):
    # capacity equal to the element count passes, one below fails
    spec = dict(group="slnz", n=n, t_inf=t, norm=norm)
    true = len(enum_slnz(BallSpec(**spec), workers=1))
    assert len(enum_slnz(BallSpec(**spec, capacity=true), workers=1)) == true
    with pytest.raises(CapacityError, match="exceeds capacity"):
        enum_slnz(BallSpec(**spec, capacity=true - 1), workers=1)


WINDOW = CongruenceWindow(2, 1, reps=((1, 0, 0, 1),))


@pytest.mark.parametrize("spec,window", [
    (BallSpec("slnz", n=2, t_inf=300, norm="max"), None),
    (BallSpec("slnz", n=3, t_inf=10.125), None),
    (BallSpec("slnz", n=4, t_inf=1, norm="max"), None),
    *[(BallSpec(group, p=p, t_inf=8, t_p=8 if p else None, norm=norm),
       window)
      for group, p, window in (("sl2z", 0, None), ("sl2zp", 2, None),
                               ("sl2zp", 2, WINDOW))
      for norm in ("frobenius", "max")],
], ids=["2-300-max", "3-10.125-frobenius", "4-1-max", "sl2z-frobenius",
        "sl2z-max", "sl2zp-frobenius", "sl2zp-max", "sl2zp-window-frobenius",
        "sl2zp-window-max"])
def test_over_capacity_slnz_builds_no_matrix(spec, window, monkeypatch):
    # every stream counts its ball exactly at the first next(): one below
    # the count fails the capacity before any matrix is built, in a
    # fraction of the stream's time and without its memory.  A window
    # builds only the level-0 ball, and only that ball is counted
    calls = []
    for name in ("_complete_last_row", "_sl2_assemble"):
        monkeypatch.setattr(balls, name, lambda *args: calls.append(args))
    count = ball_count(balls._level_zero(spec) if window else spec)
    over = iter_ball_chunks(dataclasses.replace(spec, capacity=count - 1),
                            window=window)
    with pytest.raises(CapacityError, match="exceeds capacity"):
        next(over)
    assert calls == []
    if window:
        monkeypatch.undo()
        assert count < ball_count(spec)
        assert list(iter_ball_chunks(dataclasses.replace(spec, capacity=count),
                                     window=window))


def test_last_row_headroom_guard(monkeypatch):
    # the solver's integers are bounded before they are formed
    monkeypatch.setattr(balls, "_LINE_HEADROOM", 1 << 10)
    with pytest.raises(CapacityError, match="int64"):
        enum_slnz(BallSpec("slnz", n=3, t_inf=6), workers=1)
    with pytest.raises(CapacityError, match="int64"):
        ball_count(BallSpec("slnz", n=3, t_inf=6), workers=1)


@pytest.mark.parametrize("n,t,norm,built", [(3, "6.96", "frobenius", 5621),
                                              (4, "1", "max", 6400)])
def test_reduced_plan_takes_middle_rows_up_to_sign(n, t, norm, built):
    # the count builds only the prefixes whose middle rows lead with a
    # positive entry: half of them for n = 3 (11,242 at T = 6.96), a
    # quarter for n = 4 (25,600 under the max norm at T = 1); enumeration
    # still takes the whole row table
    spec = BallSpec("slnz", n=n, t_inf=Fraction(t), norm=norm)
    plan = balls._SlnzPlan(spec, reduced=True)
    prefixes = np.concatenate([plan.prefixes(span)[0] for span in plan.blocks])
    assert len(prefixes) == built
    assert np.all(first_nonzero(prefixes[:, 1:].reshape(-1, n)) > 0)
    full = balls._SlnzPlan(spec)
    _, rows, keys = _row_table(n, full.bound, full.sq, norm)
    assert np.array_equal(full.rows_ns, rows)
    assert np.array_equal(full.keys_ns, keys)
    assert 2 * len(plan.rows_ns) == len(rows)


_ROUTE_CASES = [(3, 2.2, "frobenius"), (3, 3.5, "frobenius"),
                (2, 6.25, "frobenius"), (4, 2, "frobenius"),
                (4, 2.5, "frobenius"), (4, 3, "frobenius"), (3, 1, "max"),
                (3, 2, "max"), (3, 3, "max"), (4, 1, "max")]


@pytest.mark.parametrize("n,t,norm", _ROUTE_CASES, ids=[
    f"{n}-{t}" + ("-max" if norm == "max" else "") for n, t, norm in _ROUTE_CASES])
def test_count_only_route_matches_enumeration(n, t, norm):
    # the count path never materializes matrices and solves only the
    # row-sorted prefixes; it must agree with the enumeration, which
    # solves every ordering of the rows, at every scale
    spec = BallSpec("slnz", n=n, t_inf=t, norm=norm)
    assert ball_count(spec) == len(enum_slnz(spec, workers=1))


@pytest.mark.parametrize("n,tmax,norm", [(2, 9.0, "frobenius"),
                                         (3, 4.2, "frobenius"),
                                         (4, 2.6, "frobenius"),
                                         (3, 3.4, "max")],
                         ids=["2-9.0", "3-4.2", "4-2.6", "3-3.4-max"])
def test_reduced_count_random_radii(n, tmax, norm):
    # the count-only route (two squares for n = 2, symmetry-reduced for
    # n >= 3) against the materialized ball
    rng = random.Random(20 + n)
    for _ in range(12):
        t = Fraction(rng.randint(100, int(tmax * 100)), 100)
        spec = BallSpec("slnz", n=n, t_inf=t, norm=norm)
        assert ball_count(spec, workers=1) == len(enum_slnz(spec, workers=1)), t


@pytest.mark.parametrize("norm", ["frobenius", "max"])
def test_sorted_prefix_weights_cover_the_ball(norm):
    # each matrix has n! images under row permutations (one row's sign
    # flipped for odd ones); the matrices whose row sizes do not increase,
    # each weighted as the count weights its last row, sum to the ball:
    # n!/prod(run!) over the runs of the prefix's sizes, divided by one
    # more than the last run where the last row ties with it
    mats = enum_slnz(BallSpec("slnz", n=3, t_inf=3, norm=norm), workers=1)
    keys = [norm_sq(mats[:, i:i + 1], norm) for i in range(3)]
    keep = (keys[0] >= keys[1]) & (keys[1] >= keys[2])
    keys = [k[keep] for k in keys]
    stabilizer, last_run = balls._runs(keys[:2])
    whole = 6 // stabilizer
    weight = np.where(keys[2] == keys[1], whole // (last_run + 1), whole)
    assert 0 < keep.sum() < len(mats) and int(weight.sum()) == len(mats)
    # the number of distinct orderings of the three sizes
    orderings = {k: len(set(itertools.permutations(k)))
                 for k in set(zip(*(k.tolist() for k in keys)))}
    assert weight.tolist() == [orderings[k]
                               for k in zip(*(k.tolist() for k in keys))]


@pytest.mark.parametrize("n,t,norm", [(3, 3, "frobenius"), (3, 3, "max"),
                                      (4, 2.5, "frobenius")])
def test_middle_row_signs_map_the_ball_onto_itself(n, t, norm):
    # negating a middle row and the last row (det 1, every row size kept)
    # maps the ball onto itself, so the matrices whose middle rows all
    # lead with a positive entry are one in 2^(n-2)
    mats = enum_slnz(BallSpec("slnz", n=n, t_inf=t, norm=norm), workers=1)

    def lex_sorted(stack):
        flat = stack.reshape(len(stack), -1)
        return flat[np.lexsort(flat.T[::-1])]

    ball = lex_sorted(mats)
    for i in range(1, n - 1):
        image = mats.copy()
        image[:, [i, -1]] *= -1
        assert np.array_equal(lex_sorted(image), ball)
    positive = np.all(first_nonzero(mats[:, 1:-1].reshape(-1, n))
                      .reshape(len(mats), n - 2) > 0, axis=1)
    assert len(mats) % 2 ** (n - 2) == 0
    assert positive.sum() == len(mats) // 2 ** (n - 2)


def test_reduced_count_sl2z_matches_column_engine():
    # sl2z Frobenius counts come from sums of two squares; the column
    # engine is the independent route
    rng = random.Random(31)
    radii = [Fraction(rng.randint(50, 6000), 100) for _ in range(12)]
    for t in radii + [Fraction(1), Fraction(3, 2), 40]:
        spec = BallSpec("sl2z", t_inf=t)
        assert ball_count(spec, workers=2) == len(enum_sl2z(spec, workers=1)), t


def test_two_squares_count_matches_oracles(monkeypatch):
    # SL(2) balls are counted from sums of two squares (Frobenius) or
    # from the exact column intervals (max) alone: no column engine, no
    # chunk stream and no slnz row table, whose radius limit binds the
    # enumeration only
    def no_enumeration(*args, **kwargs):
        raise AssertionError("the count enumerated the ball")

    for name in ("_sl2_det_blocks", "iter_ball_chunks"):
        monkeypatch.setattr(balls, name, no_enumeration)
    monkeypatch.setattr(balls, "_SLNZ_RADIUS_LIMITS", {2: 1, 3: 150, 4: 15})
    with pytest.raises(CapacityError):
        enum_slnz(BallSpec("slnz", n=2, t_inf=3))
    for norm in ("frobenius", "max"):
        rng = random.Random(43)
        for _ in range(6):
            t = Fraction(rng.randint(100, 900), 100)
            want = len(brute_sl2z(t, norm))
            assert ball_count(BallSpec("sl2z", t_inf=t, norm=norm)) == want, t
            assert ball_count(BallSpec("slnz", n=2, t_inf=t, norm=norm)) \
                == want, t
        cases = [(2, Fraction(23, 10), Fraction(9, 2)),  # levels 0, 1, 2
                 (3, Fraction(5, 2), Fraction(5, 2)),  # t_p = t_inf
                 (5, Fraction(3), Fraction(1, 2))]  # t_p < 1: no level
        for p in (2, 3, 5):
            for _ in range(3):
                # t_p < p + 1 <= p^2: levels 0 and at most 1
                cases.append((p, Fraction(rng.randint(100, 240), 100),
                              Fraction(rng.randint(20, 100 * p + 99), 100)))
        for p, t_inf, t_p in cases:
            got = ball_count(BallSpec("sl2zp", p=p, t_inf=t_inf, t_p=t_p,
                                      norm=norm))
            assert got == len(brute_sl2zp(p, t_inf, t_p, norm)), \
                (p, t_inf, t_p, norm)
            if t_p < 1:
                assert got == 0


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("t_inf", [Fraction(23, 10), Fraction(7)])
def test_sl2zp_ball_is_one_det_of_its_top_level(p, t_inf):
    # the ball of top level L holds exactly the integer M_L = p^(L-m) M of
    # det p^(2L) and norm_sq(M_L) <= cut_L, counted here by oracles that
    # share no code with the package: the sum over Q of two-square counts
    # (Frobenius) and the products b c of a box (max norm); t_p takes
    # powers of p and radii that are none
    for t_p in (1, p, t_inf, p * t_inf):
        top = max(m for m in range(8) if p**m <= t_p)
        cut = math.floor((p**top * t_inf) ** 2)
        det = p ** (2 * top)
        for norm, want in (("frobenius", two_squares_det_count(det, cut)),
                           ("max", box_det_count(det, math.isqrt(cut)))):
            got = ball_count(BallSpec("sl2zp", p=p, t_inf=t_inf, t_p=t_p,
                                      norm=norm))
            assert got == want, (t_p, norm)


def test_r2_range_against_lattice_points():
    # windows at 0, straddling squares and far out, where rows of the
    # annulus u > w >= 1 are one or two points wide
    u = np.arange(-80, 81)
    size = (u[:, None] ** 2 + u[None, :] ** 2).ravel()
    want = np.bincount(size[size < 6400], minlength=6400)
    rng = random.Random(37)
    windows = [(0, 1), (0, 2), (1, 2), (0, 65), (24, 26), (5, 5), (6000, 6400)]
    windows += [(lo, lo + rng.randint(1, 400))
                for lo in (rng.randint(0, 6000) for _ in range(40))]
    for lo, hi in windows:
        assert balls._r2_range(lo, hi).tolist() == want[lo:hi].tolist(), \
            (lo, hi)


def test_r2_1mod4_range_against_lattice_points():
    # the table r2(4i + 1): windows at 0, on the odd squares 4i + 1 = u^2
    # (i = 0, 2, 6, 12, ...), and far out
    u = np.arange(-80, 81)
    size = (u[:, None] ** 2 + u[None, :] ** 2).ravel()
    want = np.bincount(size[size < 6400], minlength=6400)[1::4]
    rng = random.Random(41)
    windows = [(0, 1), (0, 2), (1, 2), (2, 3), (0, 17), (6, 13), (5, 5),
               (1500, 1600)]
    windows += [(lo, lo + rng.randint(1, 100))
                for lo in (rng.randint(0, 1500) for _ in range(40))]
    for lo, hi in windows:
        assert balls._r2_1mod4_range(lo, hi).tolist() \
            == want[lo:hi].tolist(), (lo, hi)


@pytest.mark.parametrize("group", ["sl2z", "slnz"])
def test_two_squares_count_checks_headroom_first(group, monkeypatch):
    # the int64 headroom of the SL(2) engine ends at T = 65536 (see
    # test_sl2_int64_headroom_guard); the count raises before it starts
    def no_count(*args, **kwargs):
        raise AssertionError("the count started")

    monkeypatch.setattr(balls, "_det_norm_counts", no_count)
    with pytest.raises(CapacityError, match="int64"):
        ball_count(BallSpec(group, n=2, t_inf=65536))


def test_two_squares_count_stops_at_capacity(monkeypatch):
    # the level-0 running sum bounds the count from below, so a ball far
    # over its capacity raises after a few blocks of the r2(4i + 1)
    # table, not after all: here in blocks held at 2^10 entries, up to the
    # table's end i = (10^6 - 3) // 4
    monkeypatch.setattr(balls, "_r2_block", lambda i0: 1 << 10)
    calls = []
    real_table = balls._r2_1mod4_range

    def counted(lo, hi):
        calls.append(lo)
        return real_table(lo, hi)

    monkeypatch.setattr(balls, "_r2_1mod4_range", counted)
    true = ball_count(BallSpec("sl2z", t_inf=1000))
    full = len(calls)
    assert true == 6000052 and full > 200
    assert calls == [i << 10 for i in range(full)]
    assert (10**6 - 3) // 4 < full << 10
    assert ball_count(BallSpec("sl2z", t_inf=1000, capacity=true)) == true
    with pytest.raises(CapacityError, match="exceeds capacity"):
        ball_count(BallSpec("sl2z", t_inf=1000, capacity=true - 1))
    calls.clear()
    with pytest.raises(CapacityError, match="exceeds capacity"):
        ball_count(BallSpec("sl2z", t_inf=1000, capacity=10**5))
    assert 0 < len(calls) < full // 20
    # the max-norm count is charged block by block too: B = 2^15 holds
    # about 10^10 elements in some 10^4 blocks of first columns, and the
    # default capacity of 10^8 stops it within a few hundred
    blocks = []
    real_columns = balls._sl2_columns

    def counted_columns(*args):
        blocks.append(len(args[0]))
        return real_columns(*args)

    monkeypatch.setattr(balls, "_sl2_columns", counted_columns)
    with pytest.raises(CapacityError, match="exceeds capacity"):
        ball_count(BallSpec("sl2z", t_inf=2**15, norm="max"))
    assert 0 < len(blocks) < 1000


def test_two_squares_count_under_forced_blocks(monkeypatch):
    # the sl2z ball at T = 4000 sums over 4 * 10^6 entries of each table,
    # in blocks that grow to some 2^17 entries under the rule; blocks held
    # at 2^10 entries give the same count
    spec = BallSpec("sl2z", t_inf=4000)
    ruled = ball_count(spec)
    monkeypatch.setattr(balls, "_r2_block", lambda i0: 1 << 10)
    assert ball_count(spec) == ruled


def test_two_squares_count_working_set_stays_small():
    # the T = 500 ball sums over 62,500 entries of each table in blocks of
    # a few hundred KiB (2^16-entry blocks peaked at 0.97 MiB)
    tracemalloc.start()
    try:
        got = ball_count(BallSpec("sl2z", t_inf=500))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == 1500740
    assert peak < 0.75 * 2**20


def _strip_elements(chunks):
    return [(int(m), tuple(int(e) for e in mat.ravel()))
            for levels, mats in chunks for m, mat in zip(levels, mats)]


def _quarter_turns(m, flat):
    """The orbit {J^k gamma} of one element, J = [[0, -1], [1, 0]]: J maps
    the rows (r1, r2) to (-r2, r1)."""
    a, b, c, d = flat
    return {(m, (a, b, c, d)), (m, (-c, -d, a, b)), (m, (-a, -b, -c, -d)),
            (m, (c, d, -a, -b))}


def _with_images(got):
    """The strip's elements and their quarter-turn images, after checking
    that no two elements share an orbit."""
    both = set()
    for g in got:
        orbit = _quarter_turns(*g)
        assert not orbit & both, g
        both |= orbit
    return both


@pytest.mark.parametrize("p,t_inf,t_p,block", [
    (0, 6.5, None, 5), (2, 2.2, 4, 5), (3, Fraction(5, 2), 3, 5),
    (2, 2.2, 8, 64), (3, Fraction(5, 2), 9, 64)],
    ids=["0-6.5-None", "2-2.2-4", "3-t_inf2-3", "2-2.2-8", "3-t_inf4-9"])
def test_strip_chunks_against_box_scan(p, t_inf, t_p, block, monkeypatch):
    # blocks of 5 or 64 first columns split the rows and their
    # progressions, and chunks of 64 matrices mix the levels (up to 3 at
    # t_p = 8 and 2 at t_p = 9, split from the one pass at the top
    # level); under either norm a strip holds one element of each orbit
    # {gamma, J gamma, -gamma, -J gamma}, and with their images every
    # ball element whose float |gamma v| is at most the radius (math.inf:
    # every one) and that meets the shell congruence, and nothing outside
    # the ball
    monkeypatch.setattr(balls, "_SL2_BLOCK_PAIRS", block)
    monkeypatch.setattr(balls, "_STRIP_CHUNK_ELEMS", 64)
    rng = random.Random(19 + p)
    for norm in ("frobenius", "max"):
        ball = (box_scan_sl2zp(p, t_inf, t_p, norm) if p
                else [(0, mat) for mat in brute_sl2z(t_inf, norm)])
        spec = BallSpec("sl2zp" if p else "sl2z", p=p, t_inf=t_inf, t_p=t_p,
                        norm=norm)
        levels = np.array([m for m, _ in ball])
        mats = np.array([mat for _, mat in ball]).reshape(-1, 2, 2)
        vecs = [(1.0, 0.0), (0.0, -2 / 3), (1.0, math.sqrt(2)), (1.0, -1.0)]
        vecs += [(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(3)]
        congruences = [None] + [((rng.randint(1, 9), rng.randint(0, 9)), k0)
                                for k0 in ((-1, 0, 1) if p else ())]
        for vec in vecs:
            w = mats[:, :, 0] * vec[0] + mats[:, :, 1] * vec[1]
            r = np.hypot(w[:, 0], w[:, 1]) / float(p or 1) ** levels
            for congruence in congruences:
                for radius in (rng.uniform(0.3, 3), math.inf):
                    got = _strip_elements(iter_sl2_strip_chunks(
                        spec, vec, radius, congruence, workers=2))
                    both = _with_images(got)
                    assert both <= set(ball)
                    keep = r <= radius
                    if congruence:
                        nums, k0 = congruence
                        mod = np.power(p, np.maximum(levels + k0, 0))[:, None]
                        keep &= np.all(mats @ np.array(nums) % mod == 0,
                                       axis=1)
                        for m, flat in got:
                            k = max(0, m + k0)
                            assert all((flat[2 * i] * nums[0] + flat[2 * i + 1]
                                        * nums[1]) % p**k == 0 for i in (0, 1))
                    assert {ball[i] for i in np.flatnonzero(keep)} <= both
            # a radius past every orbit point, or math.inf, gives exactly
            # a quarter of the ball, and with the images the whole ball
            for radius in (float(r.max()) + 1, math.inf):
                got = _strip_elements(iter_sl2_strip_chunks(
                    spec, vec, radius, workers=1))
                assert sorted(_with_images(got)) == ball
                assert 4 * len(got) == len(ball)


@pytest.mark.parametrize("norm", ["frobenius", "max"])
def test_strip_breaks_quarter_turn_ties_in_the_half_plane(norm):
    # rows of equal length: of each orbit the strip keeps the element
    # whose rows both lie in the half-plane of its major coordinate.
    # Level 0 holds +-I and +-J, one orbit (the whole Frobenius ball at
    # T = 3/2); p = 5 at level 1 holds 5^-1 [[3, 4], [-4, 3]] and its
    # orbit, whose rows have |r|^2 = 25
    for vec, major in (((1.0, 2.0), 0), ((2.0, 1.0), 1)):
        for spec, tie in (
                (BallSpec("sl2z", t_inf=Fraction(3, 2), norm=norm),
                 (0, (1, 0, 0, 1))),
                (BallSpec("sl2zp", p=5, t_inf=Fraction(3, 2), t_p=5,
                          norm=norm), (1, (3, 4, -4, 3)))):
            got = _strip_elements(iter_sl2_strip_chunks(spec, vec, math.inf,
                                                         workers=1))
            both = _with_images(got)
            assert len(both) == 4 * len(got) and tie in both
            ties = [flat for _, flat in got if flat[0] ** 2 + flat[1] ** 2
                    == flat[2] ** 2 + flat[3] ** 2]
            assert len(_with_images([(0, flat) for flat in ties])) \
                == 4 * len(ties)
            for flat in ties:
                for row in (flat[:2], flat[2:]):
                    assert (row[major], row[1 - major]) > (0, 0), flat
            if spec.group == "sl2z" and norm == "frobenius":
                assert got == [tie]


def test_max_norm_strip_rows_stay_within_the_frobenius_disk():
    # a max-norm strip lays out one row per first entry 0 <= a <= bound;
    # past the 2^16 rows the Frobenius headroom allows a disk, it raises
    # when called, before laying out a row (at 2^29 they would take GBs)
    vec = (1.0, math.sqrt(2))
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="rows"):
            iter_sl2_strip_chunks(BallSpec("sl2z", t_inf=2**29, norm="max"),
                                  vec, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    with pytest.raises(CapacityError, match="rows"):
        iter_sl2_strip_chunks(BallSpec("sl2zp", p=2, t_inf=2**14, t_p=4,
                                       norm="max"), vec, 2.0)
    levels, mats = next(iter_sl2_strip_chunks(
        BallSpec("sl2z", t_inf=2**16 - 1, norm="max"), vec, 2.0, workers=1))
    assert np.all(np.abs(mats) < 2**16) and np.all(levels == 0)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("limit", [0, 1, 2, 3, 11, 50, 99])
def test_orbit_weights_cover_row_table(n, limit):
    # the Frobenius rows |r|^2 <= limit, and the max-norm rows of entries
    # at most b, their sphere n b^2 capped at b
    b = math.isqrt(limit)
    for (rows, sizes), (full, _, _) in (
            (_orbit_rows(n, limit, b),
             _row_table(n, b, limit + n - 1, "frobenius")),
            (_orbit_rows(n, n * b * b, b), _row_table(n, b, None, "max"))):
        assert np.all(rows[:, :-1] >= rows[:, 1:]) and np.all(rows[:, -1] >= 0)
        assert int(sizes.sum()) == len(full)
        # each orbit representative stands for exactly its signed
        # permutations
        canon = {tuple(sorted((abs(int(e)) for e in r), reverse=True))
                 for r in full}
        assert canon == {tuple(int(e) for e in r) for r in rows}


_EDGE_CASES = [("slnz", 2, 7.5, "frobenius"), ("slnz", 3, 3.5, "frobenius"),
               ("sl2z", 2, 7.5, "frobenius"), ("sl2zp", 2, 7.5, "frobenius"),
               ("sl2zp", 2, 2.9, "frobenius"), ("sl2z", 2, 7.5, "max"),
               ("sl2zp", 2, 2.9, "max"), ("slnz", 3, 2, "max"),
               ("slnz", 4, 1, "max")]


@pytest.mark.parametrize("group,n,t,norm", _EDGE_CASES, ids=[
    f"{g}-{n}-{t}" + ("-max" if norm == "max" else "")
    for g, n, t, norm in _EDGE_CASES])
def test_reduced_count_capacity_edge(group, n, t, norm):
    # the count charges capacity with exactly the elements of the ball
    spec = dict(group=group, n=n, t_inf=t, norm=norm,
                p=2 if group == "sl2zp" else 0)
    true = ball_count(BallSpec(**spec))
    assert ball_count(BallSpec(**spec, capacity=true)) == true
    with pytest.raises(CapacityError):
        ball_count(BallSpec(**spec, capacity=true - 1))


def test_invariant_checks_raise_typed_errors(monkeypatch):
    # raised, not asserted: they must survive python -O
    with pytest.raises(InvariantError):
        _particular_solution(np.array([[2, 4, 6]], dtype=np.int64))
    real_xgcd = balls._xgcd_arrays

    def doubled_bezout(a, b):
        g, x, y = real_xgcd(a, b)
        return g, 2 * x, 2 * y

    monkeypatch.setattr(balls, "_xgcd_arrays", doubled_bezout)
    with pytest.raises(InvariantError):
        enum_sl2z(BallSpec("sl2z", t_inf=6), workers=1)
    monkeypatch.undo()
    real_solution = balls._particular_solution
    monkeypatch.setattr(balls, "_particular_solution",
                        lambda m: 2 * real_solution(m))
    with pytest.raises(InvariantError):
        enum_slnz(BallSpec("slnz", n=3, t_inf=3), workers=1)


def test_kernel_lattice_identity():
    # det(prefix stacked over particular solution) is exactly one
    rng = random.Random(5)
    rows = []
    while len(rows) < 60:
        r1 = [rng.randint(-9, 9) for _ in range(3)]
        r2 = [rng.randint(-9, 9) for _ in range(3)]
        m = np.cross(r1, r2)
        if np.gcd.reduce(np.abs(m)) == 1:
            rows.append((r1, r2))
    prefix = np.array(rows, dtype=np.int64)
    m = _cofactor_vector(prefix)
    x0 = _particular_solution(m)
    for (r1, r2), x in zip(rows, x0):
        assert laplace_det([list(r1), list(r2), [int(e) for e in x]]) == 1


def _column_order(entries):
    """The engine's documented order inside a level: first column (a, c),
    then the completion parameter t, which moves b by a/g (d by c/g when
    a = 0)."""
    a, b, c, d = entries
    return a, c, b * (1 if a > 0 else -1) if a else d * (1 if c > 0 else -1)


def _count_built(monkeypatch):
    """Counter of the matrices the SL(2) engine builds: the columns
    ``rep`` of each _sl2_assemble call.  The worker threads add to it
    under a lock: a bare += may lose the count of a chunk."""
    built = [0]
    real = balls._sl2_assemble
    lock = threading.Lock()

    def counting(a, c, b0, d0, step_a, step_c, rep, *args):
        with lock:
            built[0] += len(rep)
        return real(a, c, b0, d0, step_a, step_c, rep, *args)

    monkeypatch.setattr(balls, "_sl2_assemble", counting)
    return built


@pytest.mark.parametrize("norm", ["frobenius", "max"])
def test_sl2_engine_differential_sweep(norm, monkeypatch):
    # seeded random radii against the box-scan oracles, element for
    # element and in the documented order, with blocks and chunks small
    # enough that every level spans many of both
    rng = random.Random(41 if norm == "frobenius" else 43)
    monkeypatch.setattr(balls, "_SL2_BLOCK_PAIRS", 13)
    monkeypatch.setattr(balls, "_SL2_CHUNK_ELEMS", 7)
    built = _count_built(monkeypatch)
    for _ in range(4):
        t = Fraction(rng.randint(100, 650), 100)
        built[0] = 0
        got = np.concatenate([m for _, m in iter_sl2_zinvp_chunks(
            BallSpec("sl2z", t_inf=t, norm=norm), workers=2)])
        want = sorted(brute_sl2z(t, norm), key=_column_order)
        assert [tuple(int(e) for e in m.ravel()) for m in got] == want, t
        # only the matrices of the ball are ever built
        assert built[0] == len(got)
    for p in (2, 3, 5):
        t_inf = Fraction(rng.randint(100, 350), 100)
        t_p = p ** rng.randint(1, 2 if p < 5 else 1)
        built[0] = 0
        chunks = list(iter_sl2_zinvp_chunks(
            BallSpec("sl2zp", p=p, t_inf=t_inf, t_p=t_p, norm=norm),
            workers=2))
        assert all(0 < len(m) <= 7 for _, m in chunks)
        got = [(int(lev), tuple(int(e) for e in m.ravel()))
               for levels, mats in chunks for lev, m in zip(levels, mats)]
        want = sorted(brute_sl2zp(p, float(t_inf), t_p, norm),
                      key=lambda e: (e[0], _column_order(e[1])))
        assert got == want, (p, t_inf, t_p)
        assert built[0] == len(got)


def _random_window(rng, p, m, ball):
    """A window mod p^m of a few classes: some met by ``ball`` elements
    (level, (a, b, c, d)) of level 0, some drawn from all of SL(2, Z/p^m)."""
    mod = p**m
    sl2 = [r for r in itertools.product(range(mod), repeat=4)
           if (r[0] * r[3] - r[1] * r[2]) % mod == 1]
    met = sorted({tuple(e % mod for e in mat) for lev, mat in ball if lev == 0})
    reps = rng.sample(met, min(len(met), 3)) + rng.sample(sl2, 3)
    return CongruenceWindow(p, m, tuple(reps))


@pytest.mark.parametrize("norm", ["frobenius", "max"])
@pytest.mark.parametrize("p,m", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_sl2_window_differential_sweep(p, m, norm, monkeypatch):
    # filter_window over the engine's stream keeps exactly the brute-force
    # ball elements of level 0 whose entries mod p^m are window classes
    rng = random.Random(100 * p + 10 * m + (norm == "max"))
    monkeypatch.setattr(balls, "_SL2_BLOCK_PAIRS", 13)
    monkeypatch.setattr(balls, "_SL2_CHUNK_ELEMS", 7)
    t = Fraction(rng.randint(300, 600), 100)
    t_inf, t_p = Fraction(rng.randint(150, 300), 100), p ** rng.randint(1, 2)
    cases = [(BallSpec("sl2z", t_inf=t, norm=norm),
              [(0, e) for e in brute_sl2z(t, norm)]),
             (BallSpec("sl2zp", p=p, t_inf=t_inf, t_p=t_p, norm=norm),
              brute_sl2zp(p, float(t_inf), t_p, norm))]
    for spec, brute in cases:
        window = _random_window(rng, p, m, brute)
        mod = window.modulus
        got = []
        for levels, mats in iter_ball_chunks(spec, workers=2):
            keep = filter_window(mats, window) & (levels == 0)
            got += [(int(lev), tuple(int(e) for e in mat.ravel()))
                    for lev, mat in zip(levels[keep], mats[keep])]
        want = [(lev, mat) for lev, mat in brute if lev == 0
                and tuple(e % mod for e in mat) in set(window.reps)]
        assert want and got == sorted(want, key=lambda e: _column_order(e[1]))
        assert any(lev for lev, _ in brute) == (spec.group == "sl2zp")


def test_sl2zp_builds_no_rejected_matrix(monkeypatch):
    # levels >= 1 leave out the residue class of t that vanishes mod p
    # instead of building and dropping it: candidates equal elements
    built = _count_built(monkeypatch)
    levels, mats = enum_sl2_zinvp(
        BallSpec("sl2zp", p=2, t_inf=8, t_p=8), workers=1)
    assert len(mats) == 46916 and set(levels.tolist()) == {0, 1, 2, 3}
    assert built[0] == len(mats)


@pytest.mark.parametrize("norm", ["frobenius", "max"])
@pytest.mark.parametrize("group,p,t_inf,t_p,frobenius_count", [
    ("sl2z", 0, 50, None, 14788), ("sl2zp", 2, 8, 8, 46916),
    ("sl2zp", 3, 5, 9, 16884)])
def test_sl2_capacity_counts_emitted_elements(group, p, t_inf, t_p,
                                              frobenius_count, norm):
    # capacity equal to the element count passes, one below fails
    spec = dict(group=group, p=p, t_inf=t_inf, t_p=t_p, norm=norm)

    def count(**kw):
        return sum(len(m) for _, m in iter_ball_chunks(BallSpec(**spec, **kw)))

    true = count()
    assert norm == "max" or true == frobenius_count
    assert count(capacity=true) == true
    with pytest.raises(CapacityError, match="capacity"):
        count(capacity=true - 1)


def test_sl2_block_work_guard(monkeypatch):
    # a block whose first columns hold too many matrices stops before
    # laying them out, with its own message
    monkeypatch.setattr(balls, "_SL2_BLOCK_WORK", 1000)
    with pytest.raises(CapacityError, match="work guard"):
        enum_sl2z(BallSpec("sl2z", t_inf=50))


@pytest.mark.parametrize("norm,ok,past", [
    ("frobenius", "65535.9", 65536), ("max", 2**30 - 1, 2**30)])
def test_sl2_int64_headroom_guard(norm, ok, past, monkeypatch):
    # Frobenius: disc = q rem - (det/g)^2 reaches S^2/4, S = floor(T^2),
    # so T = 65536 is the first radius past 2^62; max norm: the shift
    # numerator reaches 2 * 2B^2.  The check runs before any block of the
    # stream and before ball_count counts anything.
    def no_work(*args, **kwargs):
        raise AssertionError("the engine started enumerating")

    for name in ("_sl2_det_blocks", "_det_norm_counts", "_det_max_counts"):
        monkeypatch.setattr(balls, name, no_work)
    chunks = iter_sl2_zinvp_chunks(BallSpec("sl2z", t_inf=ok, norm=norm))
    with pytest.raises(AssertionError, match="started"):
        next(chunks)  # the guard passed; blocks start on iteration only
    with pytest.raises(AssertionError, match="started"):
        ball_count(BallSpec("sl2z", t_inf=ok, norm=norm))
    # past the guard, and for sl2zp with level 0 inside and the top level
    # past it, nothing is yielded and nothing counted
    for spec in (BallSpec("sl2z", t_inf=past, norm=norm),
                 BallSpec("sl2zp", p=2, t_inf=3, t_p=2**15, norm=norm)):
        with pytest.raises(CapacityError, match="int64"):
            iter_sl2_zinvp_chunks(spec)
        with pytest.raises(CapacityError, match="int64"):
            ball_count(spec)


def test_sl2_max_norm_blocks_need_no_radius_sized_setup(monkeypatch):
    # a max-norm ball of a large radius fails its exact count at the first
    # next(), before the engine lays out a row of its square: no per-row
    # arrays of the radius, at 2^17 or at 2^29
    def no_blocks(*args, **kwargs):
        raise AssertionError("the engine started enumerating")

    monkeypatch.setattr(balls, "_sl2_det_blocks", no_blocks)
    for bound in (2**17, 2**29):
        chunks = iter_sl2_zinvp_chunks(
            BallSpec("sl2z", t_inf=bound, norm="max"), workers=1)
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="exceeds capacity"):
                next(chunks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


@pytest.mark.parametrize("norm,det,t", [
    ("frobenius", 1, Fraction(655359, 10)), ("frobenius", 2**8, 65535),
    ("max", 1, 2**30 - 1), ("max", 2**8, 2**26 - 1)])
def test_sl2_columns_exact_near_headroom(norm, det, t):
    # just inside the guard every interval still matches exact integer
    # arithmetic: its end points are in the ball and their neighbours
    # not, and an empty interval holds no integer of the real one
    sq = math.floor(t * t) if norm == "frobenius" else None
    bound = math.floor(t)
    balls._check_sl2_headroom(det, bound, sq)
    rng = random.Random(det)
    pairs = []
    while len(pairs) < 400:
        a, c = rng.randint(-bound, bound), rng.randint(-bound, bound)
        g = math.gcd(a, c)
        if g and det % g == 0 and (sq is None or a * a + c * c < sq):
            pairs.append((a, c))
    a, c = (np.array(col, dtype=np.int64) for col in zip(*pairs))
    cols = _sl2_columns(a, c, det, bound, sq)
    for i, (ai, ci) in enumerate(pairs):
        b0, d0, sa, sc, lo, hi, skip = (int(v[i]) for v in cols)
        assert ai * d0 - ci * b0 == det and skip == -1

        def inside(t):
            b, d = b0 + t * sa, d0 + t * sc
            if sq is None:
                return abs(b) <= bound and abs(d) <= bound
            return ai * ai + ci * ci + b * b + d * d <= sq

        if hi >= lo:
            assert inside(lo) and inside(hi)
            assert not inside(lo - 1) and not inside(hi + 1)
            continue
        if sq is not None:
            # convex in t: the integers either side of the vertex decide
            vertex = math.floor(Fraction(-(sa * b0 + sc * d0), sa * sa + sc * sc))
            assert not inside(vertex) and not inside(vertex + 1)
            continue
        low, high = Fraction(-10**30), Fraction(10**30)
        for base, k in ((b0, sa), (d0, sc)):
            if k == 0:
                if abs(base) > bound:
                    low, high = Fraction(1), Fraction(0)
                continue
            ends = sorted((Fraction(-bound - base, k), Fraction(bound - base, k)))
            low, high = max(low, ends[0]), min(high, ends[1])
        assert math.ceil(low) > math.floor(high)


def test_sl2_engine_row_checks_raise(monkeypatch):
    # every emitted row is checked against the ball and against p
    real_columns = balls._sl2_columns

    def one_too_many(*args):
        cols = list(real_columns(*args))
        cols[5] = cols[5] + 1
        return tuple(cols)

    monkeypatch.setattr(balls, "_sl2_columns", one_too_many)
    for norm in ("frobenius", "max"):
        with pytest.raises(InvariantError, match="outside the ball"):
            enum_sl2z(BallSpec("sl2z", t_inf=6, norm=norm), workers=1)

    def no_skip(*args):
        cols = list(real_columns(*args))
        cols[6] = np.full_like(cols[6], -1)
        return tuple(cols)

    monkeypatch.setattr(balls, "_sl2_columns", no_skip)
    with pytest.raises(InvariantError, match="vanishes mod 2"):
        enum_sl2_zinvp(BallSpec("sl2zp", p=2, t_inf=3, t_p=4), workers=1)


def test_norm_sq_matches_exact_norm():
    # norm_sq(M) <= norm_sq_cut(r) is |M| <= r in exact rationals, under
    # both norms, at radii such as 3, 19/2, 7/3 and at float square roots
    # of the keys themselves, whose binary value lies just below or just
    # above the boundary
    rng = random.Random(61)
    edges = set()
    for n in (2, 3):
        mats = np.array([[[rng.randint(-12, 12) for _ in range(n)]
                          for _ in range(n)] for _ in range(300)])
        for norm in ("frobenius", "max"):
            keys = norm_sq(mats, norm)
            assert keys.dtype == np.int64
            distinct = sorted(set(keys.tolist()))
            radii = [3, Fraction(19, 2), Fraction(7, 3)] + [
                math.sqrt(k) for k in rng.sample(distinct, min(len(distinct), 40))]
            for r in radii:
                t = exact_radius(r)
                cut = norm_sq_cut(t)
                for mat, key in zip(mats.tolist(), keys.tolist()):
                    entries = [Fraction(e) for row in mat for e in row]
                    if norm == "frobenius":
                        inside = sum(e * e for e in entries) <= t * t
                    else:
                        inside = max(abs(e) for e in entries) <= t
                    assert (key <= cut) == inside, (norm, r, mat)
                    if isinstance(r, float) and key == round(r * r) != t * t:
                        edges.add(key <= cut)
    assert edges == {False, True}  # both sides of a boundary were met


def test_size_function_max_over_places():
    # D(gamma) = max(|gamma|, |gamma|_p) for gamma = p^-m M, evaluated in
    # exact rationals, against the kernel's rule: D(gamma) <= T exactly
    # when p^m <= T and norm_sq(M) <= norm_sq_cut(p^m T)
    p = 2
    for norm in ("frobenius", "max"):
        levels, mats = enum_sl2_zinvp(
            BallSpec("sl2zp", p=p, t_inf=3, t_p=4, norm=norm), workers=1)
        keys = norm_sq(mats, norm)
        for T in (1, Fraction(3, 2), 2, Fraction(5, 2), 3):
            for lev, mat, key in zip(levels.tolist(), mats.tolist(),
                                     keys.tolist()):
                gamma = [Fraction(e, p**lev) for row in mat for e in row]
                if norm == "frobenius":
                    real_ok = sum(e * e for e in gamma) <= T * T
                else:
                    real_ok = max(abs(e) for e in gamma) <= T
                size_p = max(padic_abs(e, p) for e in gamma)
                assert size_p == p**lev
                kernel = p**lev <= T and key <= norm_sq_cut(p**lev * T)
                assert kernel == (real_ok and size_p <= T)


def test_capacity_guard():
    with pytest.raises(CapacityError):
        enum_sl2z(BallSpec("sl2z", t_inf=50, capacity=100))
    with pytest.raises(CapacityError):
        enum_slnz(BallSpec("slnz", n=3, t_inf=5, capacity=10))
    with pytest.raises(CapacityError):
        enum_sl2_zinvp(BallSpec("sl2zp", p=2, t_inf=2, t_p=2**80))
    with pytest.raises(CapacityError):
        enum_slnz(BallSpec("slnz", n=4, t_inf=40))


def test_spec_validation():
    with pytest.raises(ConfigError):
        BallSpec("so3")
    with pytest.raises(ConfigError):
        BallSpec("sl2z", norm="operator")
    with pytest.raises(ConfigError):
        BallSpec("sl2zp", p=6, t_inf=2)
    with pytest.raises(ConfigError):
        BallSpec("slnz", n=7, t_inf=2)
    with pytest.raises(ConfigError):
        BallSpec("sl2z", t_inf=-3)
    try:
        BallSpec("so3", norm="operator", capacity=0)
    except ConfigError as exc:
        assert len(exc.problems) >= 3


def test_window_filter_and_validation():
    mats = enum_sl2z(BallSpec("sl2z", t_inf=6), workers=1)
    w_id = CongruenceWindow(2, 1, ((1, 0, 0, 1),))
    mask = filter_window(mats, w_id)
    expect = sum(1 for m in mats
                 if all(int(e) % 2 == k for e, k in zip(m.ravel(), (1, 0, 0, 1))))
    assert mask.sum() == expect
    w_other = CongruenceWindow(2, 1, ((1, 1, 0, 1),))
    both = CongruenceWindow(2, 1, ((1, 0, 0, 1), (1, 1, 0, 1)))
    assert filter_window(mats, both).sum() == mask.sum() + \
        filter_window(mats, w_other).sum()
    with pytest.raises(ConfigError):
        CongruenceWindow(2, 1, ((1, 1, 1, 1),))
    with pytest.raises(ConfigError):
        CongruenceWindow(4, 1, ((1, 0, 0, 1),))
    # the packed key of a class runs up to p^(4m), which must fit in int64:
    # the largest entries at m = 15 keep their class, m = 16 is refused
    top = (2**15 - 1, 0, 0, 2**15 - 1)
    assert filter_window(np.array(top).reshape(1, 2, 2),
                         CongruenceWindow(2, 15, (top,)))[0]
    with pytest.raises(ConfigError, match="int64"):
        CongruenceWindow(2, 16, ((2**16 - 1, 0, 0, 2**16 - 1),))
    with pytest.raises(ConfigError):
        filter_window(enum_slnz(BallSpec("slnz", n=3, t_inf=2.5)), w_id)


def test_workers_env(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setenv("ORBITLAB_THREADS", "2")
    assert resolve_workers() == 2
    spec = BallSpec("sl2z", t_inf=9.5)
    a = enum_sl2z(spec)
    monkeypatch.setenv("ORBITLAB_THREADS", "1")
    assert np.array_equal(a, enum_sl2z(spec))
    monkeypatch.setenv("ORBITLAB_THREADS", "zero")
    with pytest.raises(ConfigError):
        resolve_workers()


def test_workers_never_exceed_the_cores(monkeypatch):
    # the SL(3) plan at T = 6.96 lays out about one block per worker
    # (1,356 at a million workers), and a pool keeps workers + 2 blocks
    # in flight: past the cores, the count is clamped.  Only plans are
    # built here; no thread is started
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert resolve_workers(10**6) == 3
    assert resolve_workers(2) == 2
    monkeypatch.setenv("ORBITLAB_THREADS", str(10**6))
    assert resolve_workers() == 3
    spec = BallSpec("slnz", n=3, t_inf=6.96)
    assert (balls._SlnzPlan(spec, workers=resolve_workers(10**6)).blocks
            == balls._SlnzPlan(spec, workers=3).blocks)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert resolve_workers(10**6) == 1
    with pytest.raises(ConfigError):
        resolve_workers(0)


def test_chunk_stream_matches_batch():
    spec = BallSpec("sl2z", t_inf=20)
    total = 0
    prev_key = -1 << 62
    for levels, block in iter_sl2_zinvp_chunks(spec, workers=1):
        assert len(levels) == len(block)
        total += len(block)
        keys = _pack_rows(block[:, :, 0])
        assert keys[0] >= prev_key
        prev_key = keys[-1]
    assert total == len(enum_sl2z(spec))
