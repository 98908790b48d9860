"""Evaluation tools for comparing sets of motion sequences.

The two-sample statistic contrasts mean cross-group sequence distance
with the two within-group means (all double sums run over every ordered
pair, diagonal included) and is calibrated by a label-permutation test on
a pooled distance matrix computed once (permutation_test), which callers
may assemble from the square and rectangular blocks of
sequence_distance_matrix.  Clustering of postures uses k-medoids
under the intrinsic posture distance; quantizing sequences against the
fitted modes turns them into label strings whose disagreement rates
summarize motion variability.  Classical multidimensional scaling embeds
sequences for plotting, and sorted-quantile pairs support likelihood Q-Q
comparisons.
"""

from dataclasses import dataclass
from itertools import combinations, islice
from math import comb

import numpy as np

from . import geometry as geo
from .dimred import _top_eigenpairs
from .errors import BadTarget, DimensionMismatch, InsufficientData, LengthMismatch

MAX_SWEEPS = 200  # most passes over the candidates of one k-medoids descent
K_SWEEP = range(2, 16)  # the cluster counts select_k tries


def _pairwise(planes, others=None):
    """Summed angles between all pairs of N items of K unit vectors, given
    as three contiguous (N, K) coordinate planes (a (3, N, K) array or a
    list): planes[c][i, j] is coordinate c of vector j of item i.  With
    others, planes of M items of the same K vectors, the (N, M) sums
    between every item of planes (rows) and every item of others
    (columns) instead.

    Blocks fit geometry.BLOCK_BYTES at 32 bytes an angle (the kernel's three
    work arrays take 24 of them): several rows by all columns, or one row
    by a run of columns when a row alone is longer.
    geometry._angles is exactly symmetric, so for one set only blocks on or
    above the diagonal are computed and each is mirrored below it.  The
    blocks are dealt round-robin to threads by geometry._deal, and each
    thread reuses one set of work arrays for all of its blocks.  Every
    entry sums the same K angles in the same order, whatever the blocks,
    the thread count and the form, so an entry of the rectangular form
    equals the matching entry of the square form of both sets pooled.
    """
    square = others is None
    others = planes if square else others
    (n, k), m = planes[0].shape, others[0].shape[0]
    out = np.empty((n, m))
    rows = geo._block_items(32 * m * k)
    cols = geo._block_items(32 * rows * k)
    blocks = [(lo, c) for lo in range(0, n, rows) for c in range(lo if square else 0, m, cols)]
    size = min(rows, n) * min(cols, m) * k

    def run(mine, work):
        for lo, c in mine:
            y, z = [p[lo:lo + rows, None] for p in planes], [p[None, c:c + cols] for p in others]
            shape = (y[0].shape[0], z[0].shape[1], k)
            count = shape[0] * shape[1] * k
            block = geo._angles(y, z, [w[:count].reshape(shape) for w in work]).sum(axis=2)
            out[lo:lo + rows, c:c + cols] = block
            if square:
                out[c:c + cols, lo:lo + rows] = block.T

    geo._deal(run, blocks, [[np.empty(size) for _ in range(3)] for _ in range(geo._workers())])
    return out


def _check_square(dmat):
    dmat = np.asarray(dmat, dtype=float)
    if dmat.ndim != 2 or dmat.shape[0] != dmat.shape[1]:
        raise DimensionMismatch(f"expected a square distance matrix, got {dmat.shape}")
    return dmat


def posture_distance_matrix(postures):
    """Pairwise posture_dist of a (N, n-1, 3) posture stack, bit for bit."""
    postures = geo._check_postures(postures, least=1)
    return _pairwise(np.ascontiguousarray(np.moveaxis(postures, -1, 0)))


def _sequence_planes(seqs):
    """A set of (T, n-1, 3) sequences as _pairwise's three (N, T*(n-1))
    coordinate planes, and (T, n-1).  The set check stacks each coordinate
    into an (N, T, n-1) plane, so the set is copied once."""
    views = [np.moveaxis(geo._check_postures(s), -1, 0) for s in seqs]
    planes = [geo._check_set([v[c] for v in views], 1, "sequences") for c in range(3)]
    n, t, bones = planes[0].shape
    if t == 0:
        raise InsufficientData("need sequences of at least one frame")
    return [p.reshape(n, t * bones) for p in planes], (t, bones)


def sequence_distance_matrix(seqs, others=None):
    """Pairwise mean-posture distances between (T, n-1, 3) sequences: each
    entry sums a pair's T*(n-1) bone angles in one sum and divides by T, as
    geometry.sequence_dist does.  Given a second set of the same frame
    shape, the rectangular (len(seqs), len(others)) block of distances
    from each of seqs to each of others instead, entry for entry the bits
    of the square matrix of both sets pooled.  Each set is copied once,
    into _pairwise's layout."""
    planes, shape = _sequence_planes(seqs)
    columns = None
    if others is not None:
        columns, other = _sequence_planes(others)
        if other != shape:
            raise DimensionMismatch(f"(T, n-1) = {shape} sequences against {other} ones")
    return _pairwise(planes, columns) / shape[0]


def _group_stat(dmat, idx_a, idx_b):
    na, nb = idx_a.size, idx_b.size
    cross = dmat[np.ix_(idx_a, idx_b)].sum()
    within_a = dmat[np.ix_(idx_a, idx_a)].sum()
    within_b = dmat[np.ix_(idx_b, idx_b)].sum()
    return 2.0 * cross / (na * nb) - within_a / (na * na) - within_b / (nb * nb)


@dataclass
class DiscoResult:
    statistic: float
    p_value: float
    permutations: int


def _split_stats(dmat, members, na, nb):
    """The statistic of every split in one block: row i of members (m, na)
    holds the indices of group a in split i.  A is the 0/1 label matrix of
    group a and B its complement, so A @ dmat and B @ dmat give every
    split's cross and within sums as row sums."""
    a = np.zeros((members.shape[0], dmat.shape[0]))
    np.put_along_axis(a, members, 1.0, axis=1)
    b = 1.0 - a
    ad, bd = a @ dmat, b @ dmat
    cross = (ad * b).sum(axis=1)
    within_a = (ad * a).sum(axis=1)
    within_b = (bd * b).sum(axis=1)
    return 2.0 * cross / (na * nb) - within_a / (na * na) - within_b / (nb * nb)


def _check_groups(na, nb, n_perm, exhaustive):
    if not exhaustive and n_perm < 1:
        raise BadTarget("n_perm must be positive")
    if not (na > 0 and nb > 0):
        raise InsufficientData("both groups need at least one sequence")


def permutation_test(dmat, na: int, n_perm: int = 999, seed=None,
                     exhaustive: bool = False) -> DiscoResult:
    """Permutation test of the two-sample statistic on a pooled distance
    matrix whose first na rows and columns are group a and the rest group
    b: only labels are permuted.  p = (1 + #{permuted >= observed}) /
    (n_perm + 1), the permutations drawn from default_rng(seed).  With
    exhaustive=True all distinct label splits are enumerated instead, in
    which case p is exact.  Either way one loop takes the splits from
    their iterator in blocks that fit geometry.BLOCK_BYTES at 48 bytes a
    label entry and scores each block at once (_split_stats).  The
    same matrix, na, n_perm and seed give the same bits however the
    matrix was assembled."""
    dmat = _check_square(dmat)
    total = dmat.shape[0]
    nb = total - na
    _check_groups(na, nb, n_perm, exhaustive)
    observed = float(_group_stat(dmat, np.arange(na), np.arange(na, total)))
    # relabelings that tie the observed split in exact arithmetic must count
    # as hits even when resummation shifts them a few ulps below it
    thresh = observed - 1e-12 * max(1.0, abs(observed))
    rows = geo._block_items(48 * total)
    # the observed split is one hit: the enumeration holds it, the draws add it
    if exhaustive:
        splits, n_perm, count = combinations(range(total), na), comb(total, na) - 1, 0
    else:
        rng = np.random.default_rng(seed)
        splits, count = (rng.permutation(total)[:na] for _ in range(n_perm)), 1
    while block := list(islice(splits, rows)):
        count += int(np.count_nonzero(_split_stats(dmat, np.array(block), na, nb) >= thresh))
    return DiscoResult(statistic=observed, p_value=count / (n_perm + 1), permutations=n_perm)


def disco_test(group_a, group_b, n_perm: int = 999, seed=None, exhaustive: bool = False) -> DiscoResult:
    """Permutation test of the two-sample statistic between two sets of
    sequences: permutation_test on the pooled sequence_distance_matrix of
    [*group_a, *group_b], computed once, after n_perm and the group sizes
    are checked."""
    na, nb = len(group_a), len(group_b)
    _check_groups(na, nb, n_perm, exhaustive)
    return permutation_test(sequence_distance_matrix([*group_a, *group_b]), na, n_perm, seed,
                            exhaustive)


@dataclass
class ClusterModel:
    """K-medoids result: mode postures and their training indices."""

    modes: np.ndarray
    medoid_indices: np.ndarray
    objective: float


def cluster_postures(postures, k: int, seed=None) -> ClusterModel:
    """K-medoids under the intrinsic posture distance (swap descent).

    Starts from a seeded random draw of k distinct medoids and applies every
    single medoid/non-medoid swap that lowers the total assignment distance
    as soon as the scan finds it, until no swap does (or MAX_SWEEPS passes).
    Deterministic for a given seed; the objective never increases."""
    postures = geo._check_postures(postures)
    n = postures.shape[0]
    if k < 1:
        raise BadTarget(f"k={k} must be positive")
    if k > n:
        raise InsufficientData(f"need at least {k} postures, got {n}")
    return _clustered(postures, posture_distance_matrix(postures), k, seed)


def _clustered(postures, dmat, k, seed):
    """The k-medoids model of postures under their distance matrix, from a
    fresh seeded start."""
    medoids, objective = _swap_descent(dmat, k, np.random.default_rng(seed))
    return ClusterModel(modes=postures[medoids], medoid_indices=medoids, objective=objective)


def _swap_descent(dmat, k, rng):
    """Eager swaps (FasterPAM; Schubert & Rousseeuw, Inf. Syst. 101, 2021): a
    cyclic scan of the candidates, in row blocks at 24 bytes an entry, swaps in
    the first whose FastPAM1 objective change at its best slot (the lowest on
    ties) gains > 1e-15, until n in a row do not.  dmat is exactly symmetric;
    each change sums its row alone in a fixed order, whatever the block."""
    n = dmat.shape[0]
    medoids = np.sort(rng.choice(n, size=k, replace=False))
    rows = geo._block_items(24 * n)  # two minima and their owners' slots
    lo = idle = scanned = 0
    while idle < n and scanned < MAX_SWEEPS * n:
        if not idle:  # the medoids moved; d2 is inf when k = 1
            near = np.column_stack([dmat[:, medoids], np.full(n, np.inf)])
            d1, d2 = np.partition(near, 1, axis=1)[:, :2].T
            slots = near.argmin(axis=1)
        kept = np.minimum(dmat[lo:lo + rows], d1)
        lost = np.minimum(dmat[lo:lo + rows], d2) - kept
        m = kept.shape[0]
        delta = np.bincount((slots + k * np.arange(m)[:, None]).ravel(), lost.ravel(), m * k)
        delta = delta.reshape(m, k) + (kept - d1).sum(axis=1)[:, None]
        hit = np.flatnonzero(delta.min(axis=1) < -1e-15)
        if hit.size:
            medoids[np.argmin(delta[hit[0]])] = lo + hit[0]
            medoids.sort()
            m = hit[0] + 1
        lo, idle, scanned = (lo + m) % n, 0 if hit.size else idle + m, scanned + m
    return medoids, float(dmat[:, medoids].min(axis=1).sum())


def silhouette_score(dmat, labels) -> float:
    """Mean silhouette width for a labelling under a precomputed distance
    matrix.  Singleton clusters contribute zero."""
    dmat = _check_square(dmat)
    labels = np.asarray(labels)
    if labels.shape != dmat.shape[:1]:
        raise LengthMismatch(f"{labels.shape} labels for a {dmat.shape} distance matrix")
    values = np.unique(labels)
    if values.size < 2:
        raise BadTarget("silhouette needs at least two clusters")
    n = dmat.shape[0]
    scores = np.zeros(n)
    members = {v: np.flatnonzero(labels == v) for v in values}
    for i in range(n):
        own = members[labels[i]]
        if own.size < 2:
            continue
        a = dmat[i, own].sum() / (own.size - 1)
        b = min(dmat[i, members[v]].mean() for v in values if v != labels[i])
        scores[i] = (b - a) / max(a, b)
    return float(scores.mean())


def select_k(postures, seed=None):
    """Pick the cluster count of K_SWEEP, below the posture count, by silhouette.

    Returns (best_k, scores, model): scores maps each swept k to its mean
    silhouette width, ties keep the smaller k, and model is
    cluster_postures(postures, best_k, seed), fitted on the sweep's
    distance matrix.
    """
    postures = geo._check_postures(postures)
    n = postures.shape[0]
    ks = range(K_SWEEP[0], min(K_SWEEP[-1], n - 1) + 1)
    if not ks:
        raise BadTarget(f"empty sweep range [{ks.start}, {ks.stop - 1}] for {n} postures")
    dmat = posture_distance_matrix(postures)
    rng = np.random.default_rng(seed)
    scores = {}
    best_k = ks[0]
    for k in ks:
        medoids, _ = _swap_descent(dmat, k, rng)
        labels = np.argmin(dmat[:, medoids], axis=1)
        scores[k] = silhouette_score(dmat, labels)
        if scores[k] > scores[best_k]:
            best_k = k
    return best_k, scores, _clustered(postures, dmat, best_k, seed)


def quantize(seq, model: ClusterModel):
    """Label every frame with its nearest mode (1-based); ties keep the
    lowest mode index."""
    seq = geo._check_postures(seq, least=1)
    if seq.shape[1:] != model.modes.shape[1:]:
        raise DimensionMismatch(
            f"sequence bones {seq.shape[1:]} do not match modes {model.modes.shape[1:]}")
    return np.argmin(geo.sphere_dist(seq[:, None], model.modes[None]).sum(axis=2), axis=1) + 1


def variability(labels, reference_labels) -> float:
    """Fraction of frames whose label disagrees with the reference string."""
    labels = np.asarray(labels)
    reference_labels = np.asarray(reference_labels)
    if labels.shape != reference_labels.shape:
        raise LengthMismatch(f"label lengths differ: {labels.shape} vs {reference_labels.shape}")
    return float(np.mean(labels != reference_labels))


def variability_stats(label_set, reference_labels):
    """Mean and sample variance of per-sequence variability over a set."""
    values = np.array([variability(b, reference_labels) for b in label_set])
    if values.size == 0:
        raise InsufficientData("no label sequences")
    var = float(values.var(ddof=1)) if values.size > 1 else 0.0
    return float(values.mean()), var


def mean_label_sequence(seqs, model: ClusterModel):
    """Quantized per-frame intrinsic mean of a set of sequences: the
    reference label string for variability summaries."""
    return quantize(geo.karcher_mean(geo._check_set(seqs, 1, "sequences")), model)


def roughness(seq):
    """Distances between successive frames, shape (T-1,)."""
    seq = geo._check_postures(seq, least=2)
    return geo.posture_dist(seq[:-1], seq[1:])


def mds_coords_from(dmat, dims: int = 2):
    """Classical multidimensional scaling of a symmetric distance matrix
    (such as sequence_distance_matrix's): double-center the squared
    distances, keep the top eigenpairs and scale eigenvectors by root
    eigenvalues, truncating negative ones to zero.  Distances are
    reproduced exactly when they embed in `dims` dimensions."""
    if dims < 1:
        raise BadTarget("dims must be positive")
    dmat = _check_square(dmat)
    m = dmat.shape[0]
    if dims > m:
        raise BadTarget(f"dims = {dims} exceeds the {m} points to embed")
    j = np.eye(m) - np.ones((m, m)) / m
    b = -0.5 * j @ (dmat * dmat) @ j
    w, v = _top_eigenpairs((b + b.T) / 2.0, dims)
    coords = np.zeros((m, dims))
    keep = w > 0
    coords[:, keep] = v[:, keep] * np.sqrt(w[keep])
    return coords


def qq_data(sample_x, sample_y):
    """Sorted-quantile pairs of two samples at matched plotting positions.

    Positions are (k - 0.5) / N for N = max(len(x), len(y)); each sample's
    empirical quantile function is linearly interpolated (clamped at the
    extremes).  Equal-length samples pair their sorted values directly.
    """
    x = np.sort(np.asarray(sample_x, dtype=float))
    y = np.sort(np.asarray(sample_y, dtype=float))
    if x.size == 0 or y.size == 0:
        raise InsufficientData("both samples need at least one value")
    n = max(x.size, y.size)
    p = (np.arange(n) + 0.5) / n
    qx = np.interp(p, (np.arange(x.size) + 0.5) / x.size, x)
    qy = np.interp(p, (np.arange(y.size) + 0.5) / y.size, y)
    return np.column_stack([qx, qy])
