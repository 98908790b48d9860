import sys
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motionemu import geometry as geo
from motionemu.alignment import (
    DP_STEPS,
    TSRVFField,
    _edge_band,
    _edge_tables,
    _row_squares,
    align_all,
    check_warp,
    dp_edge_cost,
    optimal_warp,
    tsrvf,
    warp_sequence,
)
from motionemu.errors import BadTarget, DimensionMismatch, ReferenceMismatch
from motionemu.flatten import shooting_vectors

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])
REF = np.stack([E1, E3])


def smooth_seq(ts, a=0.9, b=0.6, c=0.2, phase=0.0):
    """Two-bone sequence with smoothly varying speed and exact unit norms."""
    ang1 = a * ts + 0.35 * np.sin(2.1 * ts + phase)
    ang2 = b * ts + c + 0.25 * np.cos(1.6 * ts - phase)
    bone1 = np.stack([np.cos(ang1), np.sin(ang1), np.zeros_like(ts)], axis=-1)
    bone2 = np.stack([np.cos(ang2), np.zeros_like(ts), np.sin(ang2)], axis=-1)
    return np.stack([bone1, bone2], axis=1)


def wobble_seq(ts, f1=12.0, f2=10.0, w=0.35, phase=0.0):
    """Like smooth_seq but with fast speed variation, so warps are well
    identified by the velocity field."""
    ang1 = 0.9 * ts + w * np.sin(f1 * ts + phase)
    ang2 = 0.6 * ts + 0.2 + w * np.cos(f2 * ts - phase)
    bone1 = np.stack([np.cos(ang1), np.sin(ang1), np.zeros_like(ts)], axis=-1)
    bone2 = np.stack([np.cos(ang2), np.zeros_like(ts), np.sin(ang2)], axis=-1)
    return np.stack([bone1, bone2], axis=1)


def pinned_warp(ts, eps, freq=1):
    g = ts + eps * np.sin(freq * np.pi * ts)
    g[0], g[-1] = 0.0, 1.0
    return g


def field_dist(h1, h2):
    """Trapezoid rule over the norms of the two fields' row differences."""
    norms = np.linalg.norm(h1.values - h2.values, axis=1)
    return h1.dt * (norms.sum() - 0.5 * (norms[0] + norms[-1]))


def test_shooting_vectors_arc_example():
    # e1 -> e2 along the quarter circle in 2 steps: each step covers pi/4,
    # so every velocity has norm (pi/4) / dt with dt = 1/2.
    mid = np.array([np.sqrt(0.5), np.sqrt(0.5), 0.0])
    seq = np.stack([np.stack([E1, E3]), np.stack([mid, E3]), np.stack([E2, E3])])
    v = shooting_vectors(seq)
    norms = geo.tangent_norm(v)
    np.testing.assert_allclose(norms, (np.pi / 4) * 2, atol=1e-12)
    assert v.shape == (2, 2, 3)


def test_shooting_vectors_match_per_frame_logs():
    ts = np.linspace(0.0, 1.0, 9)
    seq = smooth_seq(ts)
    v = shooting_vectors(seq)
    for k in range(8):
        step = geo.sphere_log(seq[k], seq[k + 1]) * 8.0
        np.testing.assert_allclose(v[k], step, atol=1e-10)


def test_tsrvf_norm_squared_is_velocity_norm():
    ts = np.linspace(0.0, 1.0, 25)
    seq = smooth_seq(ts)
    field = tsrvf(seq, REF)
    speed = geo.tangent_norm(shooting_vectors(seq))
    np.testing.assert_allclose(np.sum(field.values**2, axis=1), speed, rtol=1e-10, atol=1e-10)
    assert field.length == 24
    assert field.dt == 1.0 / 24


def test_tsrvf_first_value_at_own_start():
    # With the reference at the first frame no transport is needed there.
    ts = np.linspace(0.0, 1.0, 13)
    seq = smooth_seq(ts)
    field = tsrvf(seq, seq[0])
    v0 = shooting_vectors(seq)[0]
    expected = geo.tangent_coords(seq[0], v0 / np.sqrt(geo.tangent_norm(v0)))
    np.testing.assert_allclose(field.values[0], expected, atol=1e-10)


def test_tsrvf_constant_sequence_is_zero():
    seq = np.broadcast_to(REF, (6, 2, 3)).copy()
    field = tsrvf(seq, REF)
    np.testing.assert_array_equal(field.values, np.zeros((5, 4)))


def test_warp_sequence_identity_is_bitwise():
    ts = np.linspace(0.0, 1.0, 31)
    seq = smooth_seq(ts)
    out = warp_sequence(seq, np.linspace(0.0, 1.0, 31))
    np.testing.assert_array_equal(out, seq)


def test_warp_sequence_constant_sequence():
    seq = np.broadcast_to(REF, (21, 2, 3)).copy()
    gamma = pinned_warp(np.linspace(0.0, 1.0, 21), 0.1)
    out = warp_sequence(seq, gamma)
    np.testing.assert_allclose(out, seq, atol=1e-12)


def test_warp_sequence_group_action():
    ts = np.linspace(0.0, 1.0, 1001)
    seq = smooth_seq(ts)
    g1 = pinned_warp(ts.copy(), 0.1)
    g2 = pinned_warp(ts.copy(), -0.08, freq=2)
    comp = g2 + 0.1 * np.sin(np.pi * g2)
    comp[0], comp[-1] = 0.0, 1.0
    once = warp_sequence(seq, comp)
    twice = warp_sequence(warp_sequence(seq, g1), g2)
    assert np.max(np.abs(once - twice)) < 1e-6


def test_check_warp_rejects_bad_samples():
    with pytest.raises(BadTarget):
        check_warp(np.array([0.0, 0.5, 0.9]))
    with pytest.raises(BadTarget):
        check_warp(np.array([0.0, 0.6, 0.4, 1.0]))
    with pytest.raises(DimensionMismatch):
        check_warp(np.array([0.0]))


def test_optimal_warp_self_alignment():
    ts = np.linspace(0.0, 1.0, 41)
    field = tsrvf(smooth_seq(ts), REF)
    gamma, cost = optimal_warp(field, field)
    assert cost <= 1e-14
    assert gamma.shape == (41,)
    assert np.max(np.abs(gamma - ts)) <= 2.0 / 40


def test_optimal_warp_cost_never_exceeds_unwarped():
    ts = np.linspace(0.0, 1.0, 61)
    h1 = tsrvf(smooth_seq(ts), REF)
    h2 = tsrvf(smooth_seq(ts, a=0.5, b=0.9, c=0.05, phase=0.6), REF)
    _, cost = optimal_warp(h1, h2)
    assert cost <= field_dist(h1, h2) + 1e-12


def test_optimal_warp_refuses_fields_at_different_references():
    values = np.random.default_rng(0).standard_normal((7, 4))
    field = TSRVFField(REF, values, 1.0 / 7)
    with pytest.raises(ReferenceMismatch):
        optimal_warp(field, TSRVFField(np.stack([E2, E3]), values.copy(), field.dt))


def test_optimal_warp_recovers_field_action():
    # Synthesize h2 as the field of h1's sequence under a known warp, then recover it.
    ts = np.linspace(0.0, 1.0, 151)
    seq = wobble_seq(ts)
    h1 = tsrvf(seq, REF)
    g0 = pinned_warp(ts.copy(), 0.05)
    h2 = tsrvf(warp_sequence(seq, g0), REF)
    gamma, _ = optimal_warp(h1, h2)
    cells = 1.0 / (h1.length - 1)
    assert np.max(np.abs(gamma - g0)) <= 2 * cells + 1e-12


def brute_force_warp_cost(v1, v2, dt):
    """Minimum path cost by exhaustive enumeration of admissible lattice
    paths, accumulating edges in the same order as the dynamic program."""
    n = v1.shape[0]
    best = [np.inf]

    def walk(i, j, acc):
        if acc >= best[0]:
            return
        if i == n - 1 and j == n - 1:
            best[0] = acc
            return
        for di, dj in DP_STEPS:
            if i + di <= n - 1 and j + dj <= n - 1:
                walk(i + di, j + dj, acc + dp_edge_cost(v1, v2, dt, (i, j), (i + di, j + dj)))

    walk(0, 0, 0.0)
    return best[0]


def test_dp_matches_exhaustive_search_on_short_sequences():
    rng = np.random.default_rng(7)
    for t in (3, 4, 6, 8):
        ts = np.linspace(0.0, 1.0, t)
        h1 = tsrvf(smooth_seq(ts, a=1.0 + rng.random(), b=0.7, c=0.2), REF)
        h2 = tsrvf(smooth_seq(ts, a=0.6, b=1.2, c=0.4, phase=0.3), REF)
        _, cost = optimal_warp(h1, h2)
        brute = brute_force_warp_cost(h1.values, h2.values, h1.dt)
        np.testing.assert_allclose(cost, brute, rtol=0, atol=1e-12)


def test_edge_tables_equal_dp_edge_cost_bitwise():
    # 39 interpolated rows and D = 40 coordinates, the benchmark's field width
    rng = np.random.default_rng(11)
    n, dt = 40, 1.0 / 40
    v1 = rng.standard_normal((n, 40))
    v2 = rng.standard_normal((n, 40))
    tables = _edge_tables(v1, v2, dt)
    for (di, dj), table in zip(DP_STEPS, tables):
        assert np.all(np.isinf(table[:di])) and np.all(np.isinf(table[:, :dj]))
        for i in range(di, n):
            for j in range(dj, n):
                edge = dp_edge_cost(v1, v2, dt, (i - di, j - dj), (i, j))
                assert table[i, j] == edge, ((di, dj), i, j, table[i, j], edge)


@settings(max_examples=60)
@given(n=st.integers(2, 12), d=st.integers(1, 64), seed=st.integers(0, 2**32 - 1),
       same=st.booleans(), workers=st.integers(1, 4))
def test_edge_tables_equal_dp_edge_cost_property(n, d, seed, same, workers):
    # the tables optimal_warp reads, in bands of ceil(n / workers) rows
    rng = np.random.default_rng(seed)
    v1 = rng.standard_normal((n, d))
    v2 = v1 if same else rng.standard_normal((n, d))
    dt = 1.0 / n
    with mock.patch.object(geo, "_workers", lambda: workers):
        tables = _edge_tables(v1, v2, dt)
    for (di, dj), table in zip(DP_STEPS, tables):
        if max(di, dj) >= n:
            assert np.all(np.isinf(table))
            continue
        assert np.all(np.isinf(table[:di])) and np.all(np.isinf(table[:, :dj]))
        edges = [dp_edge_cost(v1, v2, dt, (i - di, j - dj), (i, j))
                 for i in range(di, n) for j in range(dj, n)]
        assert table[di:, dj:].ravel().tobytes() == np.array(edges).tobytes()
    if same:
        h = TSRVFField(REF, v1, dt)
        gamma, cost = optimal_warp(h, h)
        assert cost == 0.0
        assert gamma.tobytes() == np.linspace(0.0, 1.0, n + 1).tobytes()


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 12), d=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
       same=st.booleans())
def test_edge_tables_assembled_from_bands_of_every_size_are_bitwise_equal(n, d, seed, same):
    # n = T-1 field samples; at T <= 3 some steps enter no cell at all
    rng = np.random.default_rng(seed)
    v1 = rng.standard_normal((n, d))
    v2 = v1 if same else rng.standard_normal((n, d))
    with mock.patch.object(geo, "_workers", lambda: 1):
        expected = _edge_tables(v1, v2, 1.0 / n)
    squares = _row_squares(v1, v2)
    for rows in range(1, n + 1):
        tables = np.full_like(expected, np.nan)
        # one work array for every band, as a thread reuses its own
        work = np.full((4, rows + 3, n), np.nan)
        for lo in range(0, n, rows):
            _edge_band(work, v1, v2, squares, 1.0 / n, lo, min(lo + rows, n), tables)
        assert tables.tobytes() == expected.tobytes(), rows


def test_optimal_warp_is_bitwise_equal_on_every_thread_count(monkeypatch):
    # 1 to 4 threads: bands from a whole lattice down to single rows, and
    # at L = 2 and 3 fewer bands than threads
    rng = np.random.default_rng(17)
    for n in (2, 3, 5, 12):
        h1, h2 = (TSRVFField(REF, rng.standard_normal((n, 4)), 1.0 / n) for _ in range(2))
        results = []
        for workers in (1, 2, 3, 4):
            monkeypatch.setattr(geo, "_workers", lambda: workers)
            results.append(optimal_warp(h1, h2))
        for gamma, cost in results[1:]:
            assert gamma.tobytes() == results[0][0].tobytes() and cost == results[0][1], n


@settings(max_examples=40)
@given(n=st.integers(2, 10), d=st.integers(1, 64), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1e-3, 1.0, 1e3]), near=st.booleans())
def test_edge_tables_within_stated_tolerance_of_direct_norms(n, d, seed, scale, near):
    # The docstring's bound: each norm is within sqrt(8*(D+4)*eps)*R of the
    # direct form, R the largest row norm; an entry sums dj weighted norms.
    rng = np.random.default_rng(seed)
    v1 = scale * rng.standard_normal((n, d))
    v2 = v1 + 1e-9 * scale * rng.standard_normal((n, d)) if near else \
        scale * rng.standard_normal((n, d))
    dt = 1.0 / n
    big = max(np.linalg.norm(v1, axis=1).max(), np.linalg.norm(v2, axis=1).max())
    per_norm = np.sqrt(8 * (d + 4) * np.finfo(float).eps) * big
    for (di, dj), table in zip(DP_STEPS, _edge_tables(v1, v2, dt)):
        if max(di, dj) >= n:
            continue
        root = np.sqrt(di / dj)
        direct = np.zeros((n - di, n - dj))
        for k in range(dj + 1):
            c = di * k / dj
            base, frac = int(np.floor(c)), c - np.floor(c)
            a = (1.0 - frac) * v1[:-1] + frac * v1[1:] if frac > 0 else v1
            norms = np.sqrt(((root * a[:, None] - v2[None]) ** 2).sum(-1))
            direct += (0.5 if k in (0, dj) else 1.0) * norms[base:base + n - di, k:k + n - dj]
        gap = np.abs(table[di:, dj:] - dt * direct)
        assert np.all(gap <= dt * dj * per_norm + 1e-13 * dt * direct), (di, dj, gap.max())


@settings(max_examples=60)
@given(n=st.integers(2, 12), d=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_dp_recursion_equals_strict_sweep(n, d, seed):
    # Small-integer fields make many candidate costs tie, so the oracle's
    # strict < sweep and the first minimum must pick the same steps.
    rng = np.random.default_rng(seed)
    v1 = rng.integers(-1, 2, (n, d)).astype(float)
    v2 = rng.integers(-1, 2, (n, d)).astype(float)
    tables = _edge_tables(v1, v2, 1.0 / n)
    cost = np.full((n, n), np.inf)
    cost[0, 0] = 0.0
    choice = np.full((n, n), -1)
    for i in range(1, n):
        for s, (di, dj) in enumerate(DP_STEPS):
            if i - di < 0:
                continue
            cand = cost[i - di, : n - dj] + tables[s][i, dj:]
            better = cand < cost[i, dj:]
            cost[i, dj:][better] = cand[better]
            choice[i, dj:][better] = s
    knots = [(n - 1, n - 1)]
    while knots[-1] != (0, 0):
        i, j = knots[-1]
        knots.append((i - DP_STEPS[choice[i, j]][0], j - DP_STEPS[choice[i, j]][1]))
    ki, kj = (np.array(k[::-1], dtype=float) / (n - 1) for k in zip(*knots))
    expected = np.interp(np.linspace(0.0, 1.0, n + 1), kj, ki)
    expected[0], expected[-1] = 0.0, 1.0
    gamma, got = optimal_warp(TSRVFField(REF, v1, 1.0 / n), TSRVFField(REF, v2, 1.0 / n))
    assert got == cost[n - 1, n - 1]
    assert gamma.tobytes() == expected.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_optimal_warp_rejects_non_finite_fields(bad):
    rng = np.random.default_rng(5)
    values = rng.standard_normal((10, 4))
    spoiled = values.copy()
    spoiled[3, 2] = bad
    good, broken = TSRVFField(REF, values, 0.1), TSRVFField(REF, spoiled, 0.1)
    with pytest.raises(DimensionMismatch, match="first field row 3: non-finite value"):
        optimal_warp(broken, good)
    with pytest.raises(DimensionMismatch, match="second field row 3: non-finite value"):
        optimal_warp(good, broken)


def test_dp_edge_cost_rejects_inadmissible_step():
    rng = np.random.default_rng(3)
    v = rng.standard_normal((6, 4))
    with pytest.raises(BadTarget):
        dp_edge_cost(v, v, 0.2, (0, 0), (2, 2))


def test_align_all_identical_pair():
    ts = np.linspace(0.0, 1.0, 21)
    seq = smooth_seq(ts)
    aligned, warps = align_all([seq, seq.copy()])
    np.testing.assert_array_equal(aligned[0], seq)
    np.testing.assert_array_equal(warps[0], ts)
    np.testing.assert_allclose(aligned[1], seq, atol=1e-10)
    assert np.max(np.abs(warps[1] - ts)) <= 2.0 / 20


def test_align_all_reduces_warp_spread():
    ts = np.linspace(0.0, 1.0, 151)
    base = wobble_seq(ts)
    rng = np.random.default_rng(11)
    seqs = [base]
    for _ in range(4):
        seqs.append(warp_sequence(base, pinned_warp(ts.copy(), rng.uniform(0.06, 0.10))))
    reference = geo.karcher_mean(np.stack([s[0] for s in seqs]))
    href = tsrvf(base, reference)
    pre = [field_dist(tsrvf(s, reference), href) for s in seqs[1:]]
    aligned, warps = align_all(seqs)  # reference: the mean of the first frames
    post = [field_dist(tsrvf(s, reference), href) for s in aligned[1:]]
    assert np.mean(post) <= 0.2 * np.mean(pre)

    again, warps2 = align_all(aligned)  # warping keeps the first frames
    for g in warps2[1:]:
        assert np.max(np.abs(g - ts)) <= 2.0 / 149


def test_align_all_validates_inputs():
    ts = np.linspace(0.0, 1.0, 9)
    seq = smooth_seq(ts)
    with pytest.raises(DimensionMismatch):
        align_all([])
    with pytest.raises(BadTarget):
        align_all([seq], ref_index=3)
    with pytest.raises(DimensionMismatch):
        align_all([seq, seq[:5]])


def test_align_all_refuses_postures_without_bones():
    with pytest.raises(DimensionMismatch, match="at least one bone"):
        align_all(np.empty((3, 9, 0, 3)))


def warped_class(count, t, seed):
    ts = np.linspace(0.0, 1.0, t)
    rng = np.random.default_rng(seed)
    return [warp_sequence(wobble_seq(ts, phase=0.1 * m),
                          pinned_warp(ts.copy(), rng.uniform(0.02, 0.1))) for m in range(count)]


def test_align_all_is_bitwise_equal_on_1_and_3_workers(monkeypatch):
    # 30 lattice rows: one band of 30, or three bands of 10
    seqs = warped_class(7, 31, 4)
    results = []
    for workers in (1, 3):
        monkeypatch.setattr(geo, "_workers", lambda: workers)
        threads = threading.active_count()
        results.append(align_all(seqs, ref_index=2))
        assert threading.active_count() == threads
    (aligned, warps), (again, warps3) = results
    assert aligned.tobytes() == again.tobytes()
    assert warps.tobytes() == warps3.tobytes()
    # each warp is optimal_warp's, bit for bit
    reference = geo.karcher_mean(np.stack([s[0] for s in seqs]))
    href = tsrvf(seqs[2], reference)
    for m, seq in enumerate(seqs):
        if m != 2:
            assert warps[m].tobytes() == optimal_warp(tsrvf(seq, reference), href)[0].tobytes()


def test_align_all_threads_under_frequent_switches(monkeypatch):
    # more threads than cores, switching every microsecond: a band built
    # into another band's arrays, or read before it is built, moves bits
    seqs = warped_class(12, 16, 9)
    monkeypatch.setattr(geo, "_workers", lambda: 1)
    aligned, warps = align_all(seqs)
    monkeypatch.setattr(geo, "_workers", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        start = time.perf_counter()
        for _ in range(5):
            again, warps8 = align_all(seqs)
            assert again.tobytes() == aligned.tobytes() and warps8.tobytes() == warps.tobytes()
        assert time.perf_counter() - start < 60.0
    finally:
        sys.setswitchinterval(interval)
