"""Oracle tests for the two-sample test, posture clustering, quantization,
variability, roughness, MDS embedding, and Q-Q helpers."""

from itertools import combinations
from math import comb, fsum
import re
import sys
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motionemu import evaluate, geometry as geo
from motionemu.errors import (BadTarget, DimensionMismatch, InsufficientData,
                              LengthMismatch)
from motionemu.evaluate import (
    ClusterModel,
    cluster_postures,
    disco_test,
    mds_coords_from,
    mean_label_sequence,
    permutation_test,
    posture_distance_matrix,
    qq_data,
    quantize,
    roughness,
    select_k,
    sequence_distance_matrix,
    silhouette_score,
    variability,
    variability_stats,
)

E1 = np.array([1.0, 0.0, 0.0])


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def rot_xy(t):
    return np.array([np.cos(t), np.sin(t), 0.0])


def rand_seq(rng, t=4, bones=2, scale=0.4, base=None):
    if base is None:
        base = unit(rng.normal(size=(bones, 3)))
    return unit(base + scale * rng.normal(size=(t, base.shape[0], 3)))


def seq_dist(a, b):
    return float(np.mean(geo.posture_dist(a, b)))


def disco_oracle(group_a, group_b):
    na, nb = len(group_a), len(group_b)
    cross = sum(seq_dist(a, b) for a in group_a for b in group_b)
    wa = sum(seq_dist(x, y) for x in group_a for y in group_a)
    wb = sum(seq_dist(x, y) for x in group_b for y in group_b)
    return 2.0 * cross / (na * nb) - wa / (na * na) - wb / (nb * nb)


def blob(rng, center, count, scale=0.02):
    return unit(center + scale * rng.normal(size=(count, center.shape[0], 3)))


BLOB_CENTERS = np.array([
    [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
    [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
])


# ---------------------------------------------------------------- distance matrices


def on_each_worker_count(monkeypatch, matrix, items):
    """matrix(items) on 1 and on 3 threads: the same bits, and no thread
    left running after either call."""
    results = []
    for workers in (1, 3):
        monkeypatch.setattr(geo, "_workers", lambda: workers)
        threads = threading.active_count()
        results.append(matrix(items))
        assert threading.active_count() == threads
    assert results[0].tobytes() == results[1].tobytes()
    return results[0]


def test_posture_distance_matrix_matches_pairwise_metric(monkeypatch):
    rng = np.random.default_rng(3)
    postures = unit(rng.normal(size=(9, 3, 3)))
    postures[4] = postures[2]
    # 27 angles a row at 32 bytes an angle: one block, then blocks of 1, 2
    # and 6 rows (the last two ragged at 1 and 3 rows), then one row by 1, 2
    # or 4 columns
    for budget in (geo.BLOCK_BYTES, *(32 * a for a in (27, 54, 162, 3, 6, 12))):
        monkeypatch.setattr(geo, "BLOCK_BYTES", budget)
        dmat = on_each_worker_count(monkeypatch, posture_distance_matrix, postures)
        assert np.array_equal(np.diag(dmat), np.zeros(9))
        assert np.array_equal(dmat, dmat.T)
        assert dmat[2, 4] == 0.0
        for i in range(9):
            for j in range(9):
                assert dmat[i, j] == geo.posture_dist(postures[i], postures[j])


def test_sequence_distance_matrix_matches_full_rows(monkeypatch):
    rng = np.random.default_rng(8)
    seqs = unit(rng.normal(size=(7, 4, 3, 3)))
    seqs[5] = seqs[1]
    flat = seqs.reshape(7, -1, 3)
    # each row in full, with every angle of the pair in one sum
    rows = np.stack([geo.sphere_dist(flat[i], flat).sum(axis=-1) for i in range(7)]) / 4
    # 84 angles a row at 32 bytes an angle: one block, then blocks of 1, 2,
    # 3 and 5 rows (the last three ragged at 1, 1 and 2 rows), then one row
    # by 1, 2 or 4 columns (the last two ragged)
    for budget in (geo.BLOCK_BYTES, *(32 * a for a in (84, 168, 252, 420, 12, 24, 48))):
        monkeypatch.setattr(geo, "BLOCK_BYTES", budget)
        dmat = on_each_worker_count(monkeypatch, sequence_distance_matrix, list(seqs))
        assert dmat.tobytes() == rows.tobytes()
        assert np.array_equal(dmat, dmat.T)
        assert np.array_equal(np.diag(dmat), np.zeros(7))
        assert dmat[1, 5] == 0.0
        for i in range(7):
            for j in range(7):
                # sequence_dist sums in the matrix's order
                assert dmat[i, j] == geo.sequence_dist(seqs[i], seqs[j])


def test_rectangular_sequence_distances_equal_the_pooled_square_block(monkeypatch):
    rng = np.random.default_rng(12)
    a, b = unit(rng.normal(size=(5, 4, 3, 3))), unit(rng.normal(size=(7, 4, 3, 3)))
    b[2] = a[1]
    # 7 columns of 12 angles, 84 angles a row at 32 bytes an angle: one
    # block, then blocks of 1 and 3 rows (the last ragged at 2), then one
    # row by 2 columns (the last ragged at 1)
    for budget in (geo.BLOCK_BYTES, 32 * 84, 32 * 252, 32 * 24):
        monkeypatch.setattr(geo, "BLOCK_BYTES", budget)
        rect = on_each_worker_count(monkeypatch, lambda s: sequence_distance_matrix(*s), (a, b))
        square = on_each_worker_count(monkeypatch, sequence_distance_matrix, [*a, *b])
        assert rect.shape == (5, 7)
        assert rect.tobytes() == square[:5, 5:].tobytes() == square[5:, :5].T.tobytes()
        assert rect[1, 2] == 0.0
        for i in range(5):
            for j in range(7):
                assert rect[i, j] == geo.sequence_dist(a[i], b[j])
    with pytest.raises(DimensionMismatch):
        sequence_distance_matrix(a, b[:, :3])
    with pytest.raises(DimensionMismatch):
        sequence_distance_matrix(a, b[:, :, :2])
    with pytest.raises(InsufficientData):
        sequence_distance_matrix(a, [])


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 40), st.integers(1, 4), st.integers(0, 2**32 - 1),
       st.sampled_from([None, 1, 2, 7]), st.sampled_from([1, 2, 3]))
def test_posture_distance_matrix_equals_posture_dist_entrywise(n, bones, seed, per_block,
                                                               workers):
    # per_block postures' angles at 32 bytes an angle: with fewer than n of
    # them, one row by runs of per_block columns
    postures = unit(np.random.default_rng(seed).normal(size=(n, bones, 3)))
    postures[n // 2] = postures[0]
    budget = geo.BLOCK_BYTES if per_block is None else 32 * per_block * bones
    with mock.patch.object(geo, "BLOCK_BYTES", budget), \
            mock.patch.object(geo, "_workers", lambda: workers):
        dmat = posture_distance_matrix(postures)
    expected = np.array([[geo.posture_dist(a, b) for b in postures] for a in postures])
    assert dmat.tobytes() == expected.tobytes()
    assert dmat[0, n // 2] == 0.0


def test_distance_matrix_threads_under_frequent_switches(monkeypatch):
    # more threads than cores, switching every microsecond, over 210 blocks
    # of at most 5 angles: a lost or misplaced block write changes the bits
    seqs = list(unit(np.random.default_rng(21).normal(size=(20, 5, 1, 3))))
    monkeypatch.setattr(geo, "BLOCK_BYTES", 32 * 5)
    monkeypatch.setattr(geo, "_workers", lambda: 1)
    expected = sequence_distance_matrix(seqs)
    monkeypatch.setattr(geo, "_workers", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        start = time.perf_counter()
        for _ in range(20):
            assert sequence_distance_matrix(seqs).tobytes() == expected.tobytes()
        assert time.perf_counter() - start < 60.0
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("bad", [np.zeros((5, 3, 2)), np.zeros((5, 3)), np.zeros((2, 5, 3, 3))])
def test_posture_distance_entry_points_reject_non_posture_stacks(bad):
    with pytest.raises(DimensionMismatch):
        posture_distance_matrix(bad)
    with pytest.raises(DimensionMismatch):
        cluster_postures(bad, k=2)
    with pytest.raises(DimensionMismatch):
        select_k(bad)


def test_sequence_distance_matrix_identical_rows_are_exact_zero():
    rng = np.random.default_rng(4)
    s = rand_seq(rng, t=5)
    dmat = sequence_distance_matrix([s, s.copy(), rand_seq(rng, t=5), rand_seq(rng, t=5)])
    assert dmat[0, 1] == 0.0 and dmat[1, 0] == 0.0
    assert dmat[0, 2] > 0.1
    assert np.array_equal(dmat, dmat.T)
    assert np.array_equal(np.diag(dmat), np.zeros(4))
    with pytest.raises(DimensionMismatch):
        sequence_distance_matrix([s, s[:3]])


def test_sequence_distance_matrix_rejects_empty_input():
    with pytest.raises(InsufficientData):
        sequence_distance_matrix([])
    with pytest.raises(InsufficientData):
        sequence_distance_matrix([np.zeros((0, 2, 3))] * 2)


@pytest.mark.parametrize("bad", [np.zeros((4, 2, 2)), np.zeros((4, 6)), np.zeros((1, 4, 2, 3))])
def test_sequence_distance_matrix_rejects_non_sequence_arrays(bad):
    rng = np.random.default_rng(5)
    with pytest.raises(DimensionMismatch):
        sequence_distance_matrix([bad, bad])
    with pytest.raises(DimensionMismatch):
        sequence_distance_matrix([rand_seq(rng), bad])


# ---------------------------------------------------------------- disco statistic


def test_disco_stat_identical_groups_is_exactly_zero():
    rng = np.random.default_rng(0)
    group = [rand_seq(rng) for _ in range(3)]
    assert disco_test(group, [g.copy() for g in group], n_perm=1).statistic == 0.0


def test_disco_stat_singletons():
    rng = np.random.default_rng(1)
    a, b = rand_seq(rng), rand_seq(rng)
    statistic = disco_test([a], [b], n_perm=1).statistic
    assert statistic == pytest.approx(2.0 * seq_dist(a, b), rel=1e-12)


def test_disco_stat_matches_double_loop_oracle():
    rng = np.random.default_rng(2)
    group_a = [rand_seq(rng, t=5, bones=3) for _ in range(4)]
    group_b = [rand_seq(rng, t=5, bones=3) for _ in range(5)]
    statistic = disco_test(group_a, group_b, n_perm=1).statistic
    assert statistic == pytest.approx(disco_oracle(group_a, group_b), abs=1e-10)


def test_disco_stat_errors():
    rng = np.random.default_rng(5)
    good = [rand_seq(rng)]
    with pytest.raises(InsufficientData):
        disco_test([], good)
    with pytest.raises(InsufficientData):
        disco_test(good, [])
    with pytest.raises(DimensionMismatch):
        disco_test(good, [rand_seq(rng, t=7)])


# ---------------------------------------------------------------- disco test


def test_disco_test_exhaustive_matches_enumeration():
    rng = np.random.default_rng(6)
    group_a = [rand_seq(rng, t=3) for _ in range(3)]
    group_b = [rand_seq(rng, t=3, scale=0.6) for _ in range(3)]
    result = disco_test(group_a, group_b, exhaustive=True)
    assert result.permutations == 19
    assert result.statistic == pytest.approx(disco_oracle(group_a, group_b), abs=1e-10)

    pooled = group_a + group_b
    count = 0
    for subset in combinations(range(6), 3):
        rest = [i for i in range(6) if i not in subset]
        stat = disco_oracle([pooled[i] for i in subset], [pooled[i] for i in rest])
        if stat >= result.statistic - 1e-9:
            count += 1
    assert round(result.p_value * 20) == count
    assert 0.0 < result.p_value <= 1.0


def test_disco_test_seeded_and_add_one():
    rng = np.random.default_rng(7)
    group_a = [rand_seq(rng) for _ in range(4)]
    group_b = [rand_seq(rng) for _ in range(4)]
    r1 = disco_test(group_a, group_b, n_perm=49, seed=11)
    r2 = disco_test(group_a, group_b, n_perm=49, seed=11)
    assert r1.p_value == r2.p_value
    assert r1.permutations == 49
    # add-one convention: p is k/50 for integer k >= 1
    assert 0.0 < r1.p_value <= 1.0
    assert round(r1.p_value * 50) == pytest.approx(r1.p_value * 50, abs=1e-12)
    with pytest.raises(BadTarget):
        disco_test(group_a, group_b, n_perm=0)


@pytest.mark.parametrize("exhaustive", [False, True])
def test_permutation_test_on_a_pooled_matrix_from_blocks_equals_disco_test(exhaustive):
    rng = np.random.default_rng(13)
    group_a = [rand_seq(rng, t=5) for _ in range(4)]
    group_b = [rand_seq(rng, t=5, scale=0.6) for _ in range(5)]
    pooled = np.empty((9, 9))
    pooled[:4, :4] = sequence_distance_matrix(group_a)
    pooled[4:, 4:] = sequence_distance_matrix(group_b)
    pooled[:4, 4:] = sequence_distance_matrix(group_a, group_b)
    pooled[4:, :4] = pooled[:4, 4:].T
    assert pooled.tobytes() == sequence_distance_matrix([*group_a, *group_b]).tobytes()
    want = disco_test(group_a, group_b, n_perm=49, seed=3, exhaustive=exhaustive)
    got = permutation_test(pooled, 4, n_perm=49, seed=3, exhaustive=exhaustive)
    assert (got.statistic, got.p_value, got.permutations) == (
        want.statistic, want.p_value, want.permutations)
    assert got.permutations == (125 if exhaustive else 49)


def test_permutation_test_refusals():
    dmat = sequence_distance_matrix([rand_seq(np.random.default_rng(14)) for _ in range(4)])
    with pytest.raises(DimensionMismatch):
        permutation_test(dmat[:3], 2)
    for na in (0, 4, 5, -1):
        with pytest.raises(InsufficientData):
            permutation_test(dmat, na)
    with pytest.raises(BadTarget, match="n_perm must be positive"):
        permutation_test(dmat, 2, n_perm=0)


def test_disco_test_refuses_n_perm_before_any_distance(monkeypatch):
    def no_distances(seqs):
        raise AssertionError("disco_test computed distances before checking n_perm")

    monkeypatch.setattr(evaluate, "sequence_distance_matrix", no_distances)
    rng = np.random.default_rng(7)
    group = [rand_seq(rng) for _ in range(3)]
    for n_perm in (0, -5):
        with pytest.raises(BadTarget, match="n_perm must be positive"):
            disco_test(group, group, n_perm=n_perm)


def test_disco_test_calibrated_under_the_null():
    rng = np.random.default_rng(8)
    rejections = 0
    repeats = 200
    for _ in range(repeats):
        base = unit(rng.normal(size=(2, 3)))
        group_a = [rand_seq(rng, t=3, scale=0.35, base=base) for _ in range(6)]
        group_b = [rand_seq(rng, t=3, scale=0.35, base=base) for _ in range(6)]
        p = disco_test(group_a, group_b, n_perm=99, seed=int(rng.integers(2**32))).p_value
        if p < 0.05:
            rejections += 1
    assert 0.01 <= rejections / repeats <= 0.12


def test_disco_test_power_under_strong_shift():
    rng = np.random.default_rng(9)
    base_a = unit(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))
    base_b = unit(np.array([[np.cos(1.2), np.sin(1.2), 0.0], [np.sin(1.2), 0.0, np.cos(1.2)]]))
    hits = 0
    repeats = 40
    for _ in range(repeats):
        group_a = [rand_seq(rng, t=3, scale=0.2, base=base_a) for _ in range(10)]
        group_b = [rand_seq(rng, t=3, scale=0.2, base=base_b) for _ in range(10)]
        p = disco_test(group_a, group_b, n_perm=99, seed=int(rng.integers(2**32))).p_value
        if p <= 0.01:
            hits += 1
    assert hits >= 0.95 * repeats


def loop_group_stat(dmat, idx_a, idx_b):
    na, nb = idx_a.size, idx_b.size
    cross = dmat[np.ix_(idx_a, idx_b)].sum()
    within_a = dmat[np.ix_(idx_a, idx_a)].sum()
    within_b = dmat[np.ix_(idx_b, idx_b)].sum()
    return 2.0 * cross / (na * nb) - within_a / (na * na) - within_b / (nb * nb)


def loop_disco_test(group_a, group_b, n_perm, seed=None, exhaustive=False):
    """The permutation test with one gathered statistic per relabeling."""
    na, nb = len(group_a), len(group_b)
    total = na + nb
    dmat = sequence_distance_matrix(list(group_a) + list(group_b))
    all_idx = np.arange(total)
    observed = float(loop_group_stat(dmat, all_idx[:na], all_idx[na:]))
    thresh = observed - 1e-12 * max(1.0, abs(observed))
    if exhaustive:
        count_ge = 0
        for subset in combinations(range(total), na):
            idx_a = np.array(subset)
            mask = np.ones(total, dtype=bool)
            mask[idx_a] = False
            if loop_group_stat(dmat, idx_a, all_idx[mask]) >= thresh:
                count_ge += 1
        splits = comb(total, na)
        return observed, count_ge / splits, splits - 1
    rng = np.random.default_rng(seed)
    hits = 0
    for _ in range(n_perm):
        perm = rng.permutation(total)
        if loop_group_stat(dmat, perm[:na], perm[na:]) >= thresh:
            hits += 1
    return observed, (1 + hits) / (n_perm + 1), n_perm


def disco_groups(data_seed, na, nb, shift, twins):
    """Two groups of short sequences; group b is shifted by `shift`, and
    with twins it repeats group a's sequences (exact ties)."""
    rng = np.random.default_rng(data_seed)
    base = unit(rng.normal(size=(2, 3)))
    group_a = [rand_seq(rng, t=3, scale=0.3, base=base) for _ in range(na)]
    moved = unit(base + shift * rng.normal(size=base.shape))
    group_b = [group_a[i % na].copy() if twins else rand_seq(rng, t=3, scale=0.3, base=moved)
               for i in range(nb)]
    return group_a, group_b


def as_tuple(result):
    return result.statistic, result.p_value, result.permutations


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 30), st.integers(1, 30), st.integers(1, 60), st.integers(0, 2**32 - 1),
       st.sampled_from([0.0, 0.3, 1.0]), st.booleans(),
       st.sampled_from([geo.BLOCK_BYTES, 48, 48 * 45, 48 * 600]))
def test_disco_test_equals_per_permutation_loop(na, nb, n_perm, seed, shift, twins, budget):
    # 48 bytes a label entry: one split a block, then 45 or 600 entries
    group_a, group_b = disco_groups(seed, na, nb, shift, twins)
    with mock.patch.object(geo, "BLOCK_BYTES", budget):
        result = disco_test(group_a, group_b, n_perm=n_perm, seed=seed)
    expected = loop_disco_test(group_a, group_b, n_perm, seed=seed)
    assert np.array(as_tuple(result)).tobytes() == np.array(expected).tobytes()


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1),
       st.sampled_from([0.0, 0.3, 1.0]), st.booleans(),
       st.sampled_from([geo.BLOCK_BYTES, 48, 48 * 30]))
def test_exhaustive_disco_test_equals_enumeration_loop(na, nb, seed, shift, twins, budget):
    group_a, group_b = disco_groups(seed, na, nb, shift, twins)
    with mock.patch.object(geo, "BLOCK_BYTES", budget):
        result = disco_test(group_a, group_b, exhaustive=True)
    expected = loop_disco_test(group_a, group_b, 0, exhaustive=True)
    assert np.array(as_tuple(result)).tobytes() == np.array(expected).tobytes()


# ---------------------------------------------------------------- clustering


def test_cluster_recovers_planted_blobs():
    rng = np.random.default_rng(10)
    groups = [blob(rng, c, 12) for c in BLOB_CENTERS]
    postures = np.concatenate(groups)
    model = cluster_postures(postures, k=3, seed=0)
    labels = quantize(postures, model)
    seen = []
    for g in range(3):
        block = labels[12 * g:12 * (g + 1)]
        assert np.all(block == block[0])
        seen.append(int(block[0]))
    assert sorted(seen) == [1, 2, 3]


def test_cluster_k_equals_sample_size():
    rng = np.random.default_rng(11)
    postures = unit(rng.normal(size=(6, 2, 3)))
    model = cluster_postures(postures, k=6, seed=0)
    assert model.objective == 0.0
    assert np.array_equal(model.medoid_indices, np.arange(6))
    assert np.array_equal(model.modes, postures)


def test_cluster_determinism_and_objective_consistency():
    rng = np.random.default_rng(12)
    postures = unit(rng.normal(size=(25, 2, 3)))
    m1 = cluster_postures(postures, k=4, seed=3)
    m2 = cluster_postures(postures, k=4, seed=3)
    assert np.array_equal(m1.medoid_indices, m2.medoid_indices)
    assert m1.objective == m2.objective
    dmat = posture_distance_matrix(postures)
    assert m1.objective == pytest.approx(dmat[:, m1.medoid_indices].min(axis=1).sum(), abs=1e-12)
    # descent never ends worse than its seeded start
    start = np.sort(np.random.default_rng(3).choice(25, size=4, replace=False))
    assert m1.objective <= dmat[:, start].min(axis=1).sum() + 1e-12


def test_swap_scan_blocks_keep_medoids_and_objective_bits(monkeypatch):
    rng = np.random.default_rng(16)
    postures = unit(rng.normal(size=(25, 2, 3)))
    runs = []
    # 24 bytes an entry of a 25-row column: tables filled 1 column at a time,
    # in ragged runs of 4 and 7 columns (the last 1 and 4 wide), and at once
    monkeypatch.setattr(evaluate, "K_SWEEP", range(2, 7))
    for budget in (24 * 25, 24 * 25 * 4, 24 * 25 * 7, geo.BLOCK_BYTES):
        monkeypatch.setattr(geo, "BLOCK_BYTES", budget)
        model = cluster_postures(postures, k=4, seed=3)
        best_k, scores, _ = select_k(postures, seed=5)
        runs.append((model.medoid_indices.tolist(), np.float64(model.objective).tobytes(),
                     best_k, np.array(list(scores.values())).tobytes()))
    assert all(run == runs[-1] for run in runs)
    # the descent moved: the medoids are not its seeded start
    start = np.sort(np.random.default_rng(3).choice(25, size=4, replace=False))
    assert runs[-1][0] != start.tolist()


def point_distances(seed, n):
    """Euclidean distances of n random points in R^3: exactly symmetric,
    zero on the diagonal."""
    x = np.random.default_rng(seed).normal(size=(n, 3))
    return np.sqrt(((x[:, None] - x[None]) ** 2).sum(axis=2))


def fastpam1_descent(dmat, medoids):
    """The best-swap-per-sweep descent the eager swaps replaced, kept as the
    reference: each sweep fills the (k, n) objective change of every
    slot/candidate swap (FastPAM1; Schubert & Rousseeuw, SISAP 2019) in
    column blocks and applies its row-major argmin if that gains > 1e-15."""
    n, k = dmat.shape[0], medoids.size
    medoids = np.sort(medoids)
    cols = geo._block_items(24 * n)
    delta = np.empty((k, n))
    for _ in range(evaluate.MAX_SWEEPS):
        near = np.column_stack([dmat[:, medoids], np.full(n, np.inf)])
        d1, d2 = np.partition(near, 1, axis=1)[:, :2].T[:, :, None]
        owner = (near.argmin(axis=1) == np.arange(k)[:, None]).astype(float)
        for lo in range(0, n, cols):
            kept = np.minimum(dmat[:, lo:lo + cols], d1)
            lost = np.minimum(dmat[:, lo:lo + cols], d2) - kept
            delta[:, lo:lo + cols] = (kept - d1).sum(axis=0) + owner @ lost
        slot, cand = np.unravel_index(np.argmin(delta), delta.shape)
        if not delta[slot, cand] < -1e-15:
            break
        medoids[slot] = cand
        medoids.sort()
    return medoids, float(dmat[:, medoids].min(axis=1).sum())


def assert_swap_stable(dmat, medoids):
    """No single medoid/non-medoid swap lowers the exactly summed objective
    by more than 1e-15."""
    def cost(m):
        return fsum(dmat[:, m].min(axis=1))

    base = cost(medoids)
    for slot in range(medoids.size):
        for cand in np.setdiff1d(np.arange(dmat.shape[0]), medoids):
            assert cost(np.append(np.delete(medoids, slot), cand)) >= base - 1e-15


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 40), st.data())
def test_eager_swaps_end_swap_stable(n, data):
    k = data.draw(st.integers(1, n))
    seed = data.draw(st.integers(0, 2**32 - 1))
    dmat = point_distances(seed, n)
    medoids, objective = evaluate._swap_descent(dmat, k, np.random.default_rng(seed))
    again, again_objective = evaluate._swap_descent(dmat, k, np.random.default_rng(seed))
    assert medoids.tolist() == again.tolist()
    assert np.float64(objective).tobytes() == np.float64(again_objective).tobytes()
    assert objective == float(dmat[:, medoids].min(axis=1).sum())
    start = np.sort(np.random.default_rng(seed).choice(n, size=k, replace=False))
    assert objective <= float(dmat[:, start].min(axis=1).sum()) + 1e-12
    assert_swap_stable(dmat, medoids)
    # the replaced best-swap descent finds nothing to gain from the result
    assert fastpam1_descent(dmat, medoids.copy())[1] >= objective - 1e-12


def test_one_medoid_takes_least_distance_sum():
    rng = np.random.default_rng(17)
    for seed in range(6):
        dmat = point_distances(seed, 5 + 7 * seed)
        medoids, _ = evaluate._swap_descent(dmat, 1, np.random.default_rng(seed))
        assert medoids.tolist() == [int(np.argmin(dmat.sum(axis=0)))]
        postures = unit(rng.normal(size=(5 + 7 * seed, 3, 3)))
        model = cluster_postures(postures, k=1, seed=seed)
        sums = posture_distance_matrix(postures).sum(axis=0)
        assert model.medoid_indices.tolist() == [int(np.argmin(sums))]


def test_cluster_errors():
    rng = np.random.default_rng(13)
    postures = unit(rng.normal(size=(4, 2, 3)))
    with pytest.raises(InsufficientData):
        cluster_postures(postures, k=5)
    with pytest.raises(BadTarget):
        cluster_postures(postures, k=0)


def test_silhouette_matches_hand_formula():
    rng = np.random.default_rng(14)
    postures = np.concatenate([blob(rng, BLOB_CENTERS[0], 3, scale=0.1),
                               blob(rng, BLOB_CENTERS[1], 4, scale=0.1)])
    dmat = posture_distance_matrix(postures)
    labels = np.array([0, 0, 0, 1, 1, 1, 1])
    expected = []
    for i in range(7):
        own = [j for j in range(7) if labels[j] == labels[i] and j != i]
        other = [j for j in range(7) if labels[j] != labels[i]]
        a = np.mean(dmat[i, own])
        b = np.mean(dmat[i, other])
        expected.append((b - a) / max(a, b))
    assert silhouette_score(dmat, labels) == pytest.approx(np.mean(expected), abs=1e-12)
    # singleton cluster contributes zero
    labels_single = np.array([0, 1, 1, 1, 1, 1, 1])
    expected_single = []
    for i in range(1, 7):
        a = np.mean([dmat[i, j] for j in range(1, 7) if j != i])
        b = dmat[i, 0]
        expected_single.append((b - a) / max(a, b))
    assert silhouette_score(dmat, labels_single) == pytest.approx(np.sum(expected_single) / 7, abs=1e-12)
    with pytest.raises(BadTarget):
        silhouette_score(dmat, np.zeros(7, dtype=int))


def test_select_k_finds_planted_count(monkeypatch):
    rng = np.random.default_rng(15)
    postures = np.concatenate([blob(rng, c, 8) for c in BLOB_CENTERS])
    monkeypatch.setattr(evaluate, "K_SWEEP", range(2, 7))
    best_k, scores, model = select_k(postures, seed=0)
    assert best_k == 3
    assert sorted(scores) == [2, 3, 4, 5, 6]
    assert scores[3] == max(scores.values())
    # the chosen k's model is the one cluster_postures fits from the same seed
    alone = cluster_postures(postures, k=3, seed=0)
    assert model.medoid_indices.tolist() == alone.medoid_indices.tolist()
    assert model.modes.tobytes() == alone.modes.tobytes()
    assert np.float64(model.objective).tobytes() == np.float64(alone.objective).tobytes()


# ---------------------------------------------------------------- quantize


def test_quantize_constant_mode_sequence():
    rng = np.random.default_rng(16)
    modes = np.stack([blob(rng, c, 1, scale=0.3)[0] for c in BLOB_CENTERS] * 2)[:4]
    model = ClusterModel(modes=modes[:4], medoid_indices=np.arange(4), objective=0.0)
    seq = np.tile(model.modes[2], (5, 1, 1))
    assert np.array_equal(quantize(seq, model), np.full(5, 3))


def test_quantize_tie_keeps_lower_index():
    far = np.stack([rot_xy(2.5), rot_xy(2.5)])
    v1 = np.stack([rot_xy(0.5), E1])
    v2 = np.stack([rot_xy(-0.5), E1])
    model = ClusterModel(modes=np.stack([far, v1, v2]), medoid_indices=np.arange(3),
                         objective=0.0)
    seq = np.stack([np.stack([E1, E1])])
    # modes 2 and 3 are exactly equidistant from the frame
    assert np.array_equal(quantize(seq, model), np.array([2]))


def test_quantize_bitwise_equal_mode_beats_arccos_rounding_tie():
    # a frame equal to mode 2 whose self-dot rounds below 1, beside a mode 1
    # one ulp away whose dot with the frame rounds to the same value: arccos
    # alone puts both modes at the same distance and picks mode 1
    rng = np.random.default_rng(19)
    for _ in range(10000):
        frame = unit(rng.normal(size=(1, 1, 3)))
        near = frame.copy()
        near[0, 0, 0] = np.nextafter(near[0, 0, 0], np.inf)
        dots = np.einsum("tkd,mkd->tmk", frame, np.concatenate([near, frame]))
        if dots[0, 1, 0] < 1.0 and dots[0, 0, 0] == dots[0, 1, 0]:
            break
    else:
        pytest.fail("no frame with a rounding tie found")
    model = ClusterModel(modes=np.concatenate([near, frame]), medoid_indices=np.arange(2),
                         objective=0.0)
    assert np.array_equal(quantize(frame, model), np.array([2]))
    # the distance cluster_postures uses keeps the two modes apart too
    assert posture_distance_matrix(np.concatenate([near, frame]))[0, 1] > 0.0


def test_quantize_matches_scan_oracle_and_is_idempotent():
    rng = np.random.default_rng(17)
    modes = unit(rng.normal(size=(5, 2, 3)))
    model = ClusterModel(modes=modes, medoid_indices=np.arange(5), objective=0.0)
    seq = unit(rng.normal(size=(30, 2, 3)))
    labels = quantize(seq, model)
    for t in range(30):
        dists = [float(geo.posture_dist(seq[t], m)) for m in modes]
        assert labels[t] == int(np.argmin(dists)) + 1
    assert np.array_equal(quantize(seq, model), labels)
    assert np.array_equal(quantize(model.modes, model), np.arange(1, 6))
    with pytest.raises(DimensionMismatch):
        quantize(unit(rng.normal(size=(4, 3, 3))), model)


# ---------------------------------------------------------------- variability


def test_variability_examples():
    labels = np.array([1, 2, 3, 2, 1])
    assert variability(labels, labels.copy()) == 0.0
    assert variability(labels, labels + 1) == 1.0
    assert variability(np.array([1, 1, 2, 2]), np.array([1, 2, 2, 2])) == 0.25
    with pytest.raises(LengthMismatch):
        variability(labels, labels[:3])


def test_variability_stats():
    ref = np.array([1, 1, 1, 1])
    label_set = [np.array([1, 1, 1, 1]), np.array([2, 1, 1, 1]), np.array([2, 2, 1, 1])]
    mean, var = variability_stats(label_set, ref)
    values = np.array([0.0, 0.25, 0.5])
    assert mean == pytest.approx(values.mean(), abs=1e-15)
    assert var == pytest.approx(values.var(ddof=1), abs=1e-15)
    single_mean, single_var = variability_stats([ref], ref)
    assert single_mean == 0.0 and single_var == 0.0
    with pytest.raises(InsufficientData):
        variability_stats([], ref)


def test_mean_label_sequence_of_identical_set():
    rng = np.random.default_rng(18)
    modes = np.stack([blob(rng, c, 1, scale=0.25)[0] for c in BLOB_CENTERS])
    model = ClusterModel(modes=modes, medoid_indices=np.arange(3), objective=0.0)
    seq = blob(rng, BLOB_CENTERS[1], 6, scale=0.05)
    labels = mean_label_sequence([seq, seq.copy(), seq.copy()], model)
    assert np.array_equal(labels, quantize(seq, model))


def test_mean_label_sequence_rejects_mixed_shapes_and_no_sequences():
    rng = np.random.default_rng(18)
    modes = np.stack([blob(rng, c, 1, scale=0.25)[0] for c in BLOB_CENTERS])
    model = ClusterModel(modes=modes, medoid_indices=np.arange(3), objective=0.0)
    seq = blob(rng, BLOB_CENTERS[1], 6, scale=0.05)
    with pytest.raises(DimensionMismatch):
        mean_label_sequence([seq, seq[:-1]], model)
    with pytest.raises(InsufficientData):
        mean_label_sequence([], model)


def test_mean_label_sequence_means_equal_per_frame_karcher_means(monkeypatch):
    rng = np.random.default_rng(19)
    base = unit(rng.normal(size=(3, 3)))
    seqs = [unit(base + 0.4 * rng.normal(size=(7, 3, 3))) for _ in range(5)]
    stack = np.stack(seqs)
    expected = np.stack([geo.karcher_mean(stack[:, t]) for t in range(7)])
    # quantize's input is the stack of per-frame means
    monkeypatch.setattr(evaluate, "quantize", lambda means, model: means)
    frame = 6 * stack[:, 0].nbytes
    # blocks of 1 frame, of 3 (the last ragged at 1) and of all 7
    for budget in (frame, 3 * frame, 7 * frame, geo.BLOCK_BYTES):
        monkeypatch.setattr(geo, "BLOCK_BYTES", budget)
        assert mean_label_sequence(seqs, None).tobytes() == expected.tobytes()


# ---------------------------------------------------------------- roughness


def test_roughness_constant_sequence_is_zero():
    seq = np.tile(unit(np.array([[0.3, 0.1, 1.0]])), (8, 1, 1))
    assert np.array_equal(roughness(seq), np.zeros(7))


def test_roughness_uniform_arc_is_constant():
    step = 0.07
    ts = step * np.arange(40)
    seq = np.stack([np.stack([rot_xy(t)]) for t in ts])
    values = roughness(seq)
    assert values.shape == (39,)
    assert np.max(np.abs(values - step)) < 1e-12
    with pytest.raises(DimensionMismatch):
        roughness(seq[:1])


# ---------------------------------------------------------------- MDS


def tri_seqs():
    def const_seq(b1, b2, b3):
        posture = np.stack([b1, b2, b3])
        return np.stack([posture, posture])

    a = const_seq(E1, E1, rot_xy(0.1))
    b = const_seq(rot_xy(0.2), E1, E1)
    c = const_seq(E1, rot_xy(0.3), E1)
    return [a, b, c]


def test_mds_recovers_right_triangle():
    seqs = tri_seqs()
    dmat = sequence_distance_matrix(seqs)
    expected = np.array([[0.0, 0.3, 0.4], [0.3, 0.0, 0.5], [0.4, 0.5, 0.0]])
    assert np.allclose(dmat, expected, atol=1e-12)
    coords = mds_coords_from(dmat, dims=2)
    emb = np.sqrt(((coords[:, None] - coords[None]) ** 2).sum(-1))
    assert np.max(np.abs(emb - expected)) < 1e-8


def test_mds_identical_sequences_embed_at_origin():
    rng = np.random.default_rng(19)
    s = rand_seq(rng, t=4)
    coords = mds_coords_from(sequence_distance_matrix([s, s.copy(), s.copy(), s.copy()]), dims=2)
    assert np.array_equal(coords, np.zeros((4, 2)))


def test_mds_truncation_never_expands_distances():
    rng = np.random.default_rng(20)
    base = unit(rng.normal(size=(2, 3)))
    seqs = [rand_seq(rng, t=5, scale=0.3, base=base) for _ in range(8)]
    dmat = sequence_distance_matrix(seqs)
    prev = None
    for dims in range(1, 8):
        coords = mds_coords_from(dmat, dims=dims)
        emb = np.sqrt(((coords[:, None] - coords[None]) ** 2).sum(-1))
        assert float((emb - dmat).max()) < 1e-9
        if prev is not None:
            # adding directions never shrinks an embedded distance
            assert float((emb - prev).min()) > -1e-12
        prev = emb
    with pytest.raises(BadTarget):
        mds_coords_from(dmat, dims=0)


def test_mds_with_more_dims_than_points_names_both_numbers():
    dmat = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert mds_coords_from(dmat, dims=2).shape == (2, 2)
    with pytest.raises(BadTarget, match="dims = 3 exceeds the 2 points"):
        mds_coords_from(dmat, dims=3)


@pytest.mark.parametrize("dmat", [np.zeros((3, 4)), np.zeros(3), np.zeros((3, 3, 1))])
def test_distance_matrix_entry_points_reject_non_square_matrices(dmat):
    with pytest.raises(DimensionMismatch, match="square distance matrix"):
        mds_coords_from(dmat)
    with pytest.raises(DimensionMismatch, match="square distance matrix"):
        silhouette_score(dmat, np.array([0, 1, 1]))


def test_silhouette_rejects_labels_of_the_wrong_length():
    dmat = 1.0 - np.eye(4)
    for labels in ([0, 1, 1], [0, 1, 1, 0, 1], np.zeros((4, 1))):
        with pytest.raises(LengthMismatch):
            silhouette_score(dmat, labels)


# ---------------------------------------------------------------- Q-Q data


def qq_oracle(sample_x, sample_y):
    xs, ys = np.sort(sample_x), np.sort(sample_y)
    n = max(xs.size, ys.size)

    def quantile(s, p):
        pos = [(j + 0.5) / s.size for j in range(s.size)]
        if p <= pos[0]:
            return s[0]
        if p >= pos[-1]:
            return s[-1]
        j = 0
        while pos[j + 1] < p:
            j += 1
        w = (p - pos[j]) / (pos[j + 1] - pos[j])
        return s[j] * (1.0 - w) + s[j + 1] * w

    pts = [(k + 0.5) / n for k in range(n)]
    return np.array([[quantile(xs, p), quantile(ys, p)] for p in pts])


def test_qq_identical_lists_on_identity_line():
    rng = np.random.default_rng(21)
    x = rng.normal(size=37)
    pairs = qq_data(x, x.copy())
    assert np.array_equal(pairs[:, 0], pairs[:, 1])
    assert np.array_equal(pairs[:, 0], np.sort(x))


def test_qq_constant_offset_line():
    rng = np.random.default_rng(22)
    x = rng.normal(size=25)
    pairs = qq_data(x, x + 1.75)
    assert np.array_equal(pairs[:, 1], pairs[:, 0] + 1.75)


def test_qq_unequal_sizes_match_interpolation_oracle():
    rng = np.random.default_rng(23)
    x = rng.normal(size=11)
    y = rng.normal(size=40)
    pairs = qq_data(x, y)
    assert pairs.shape == (40, 2)
    assert np.max(np.abs(pairs - qq_oracle(x, y))) < 1e-12
    swapped = qq_data(y, x)
    assert np.max(np.abs(swapped - qq_oracle(y, x))) < 1e-12
    with pytest.raises(InsufficientData):
        qq_data([], y)
