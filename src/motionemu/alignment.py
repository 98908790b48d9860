"""Temporal alignment of posture sequences.

Sequences are compared through a transported square-root velocity field:
each discrete velocity is carried to a common reference posture and
scaled by the inverse square root of its own norm.  Warping a sequence by
a monotone reparameterization gamma acts on its field as
``h(gamma(t)) * sqrt(gamma'(t))``, and the field distance is the time
integral of pointwise norm differences, so the optimal warp between two
sequences can be searched by dynamic programming on a lattice of
piecewise-linear warps.
"""

from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from .errors import BadTarget, DimensionMismatch, ReferenceMismatch
from .flatten import transported_velocities

# Lattice steps (di, dj) the warp search may take; slopes stay in [1/3, 3].
DP_STEPS = ((1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2))

# Velocities with squared norm below this are treated as zero in the
# square-root scaling.
ZERO_VELOCITY = 1e-12


@dataclass
class TSRVFField:
    """Square-root velocity field of one sequence: T-1 coordinate vectors
    at the shared reference posture, plus the grid spacing dt."""

    reference: np.ndarray
    values: np.ndarray  # (T-1, 2*(n-1))
    dt: float

    @property
    def length(self) -> int:
        return int(self.values.shape[0])


def check_warp(gamma):
    """Validate warp samples: on [0, 1], strictly increasing, endpoints pinned."""
    gamma = np.asarray(gamma, dtype=float)
    if gamma.ndim != 1 or gamma.shape[0] < 2:
        raise DimensionMismatch("a warp needs at least two samples")
    if gamma[0] != 0.0 or gamma[-1] != 1.0:
        raise BadTarget("warp endpoints must be exactly 0 and 1")
    if np.any(np.diff(gamma) <= 0):
        raise BadTarget("warp samples must be strictly increasing")
    return gamma


def tsrvf(seq, reference) -> TSRVFField:
    """Transported square-root velocity field of a sequence.

    Each shooting vector is parallel-transported from its frame to the
    reference posture and divided by the square root of its norm; zero
    velocities map to zero.  Coordinates are taken in the deterministic
    tangent frame at the reference, so ||column||^2 equals the shooting
    vector norm.
    """
    seq = np.asarray(seq, dtype=float)
    reference = np.asarray(reference, dtype=float)
    moved = transported_velocities(seq, reference)
    norms = geo.tangent_norm(moved)
    scale = np.where(norms < ZERO_VELOCITY, 0.0, 1.0 / np.sqrt(np.where(norms < ZERO_VELOCITY, 1.0, norms)))
    coords = geo.tangent_coords(reference, moved * scale[:, None, None])
    return TSRVFField(reference.copy(), coords, 1.0 / (seq.shape[0] - 1))


def _check_pair(h1: TSRVFField, h2: TSRVFField):
    if not np.array_equal(h1.reference, h2.reference):
        raise ReferenceMismatch("fields were built at different reference postures")
    if h1.values.shape != h2.values.shape:
        raise DimensionMismatch(f"field shapes differ: {h1.values.shape} vs {h2.values.shape}")


def tsrvf_dist(h1: TSRVFField, h2: TSRVFField) -> float:
    """Field distance: trapezoidal integral of pointwise norm differences."""
    _check_pair(h1, h2)
    norms = np.linalg.norm(h1.values - h2.values, axis=1)
    return float(h1.dt * (norms.sum() - 0.5 * (norms[0] + norms[-1])))


def warp_sequence(seq, gamma):
    """Reparameterize a sequence in time.

    Samples the sequence at gamma(t_k) for the original uniform grid t_k,
    interpolating between neighbouring frames along the geodesic.  Frames
    hit exactly (in particular under the identity warp) are copied
    bit-for-bit.
    """
    seq = np.asarray(seq, dtype=float)
    gamma = check_warp(gamma)
    t = seq.shape[0]
    if gamma.shape[0] != t:
        raise DimensionMismatch(f"warp has {gamma.shape[0]} samples for {t} frames")
    pos = gamma * (t - 1)
    near = np.rint(pos)
    # grid hits are detected up to rounding in the gamma*(t-1) product
    exact = np.abs(pos - near) < 1e-9
    idx = np.where(exact, near, np.floor(pos)).astype(int)
    w = np.where(exact, 0.0, pos - idx)
    out = np.empty_like(seq)
    out[exact] = seq[idx[exact]]
    rest = ~exact
    if np.any(rest):
        lo = seq[idx[rest]]
        hi = seq[idx[rest] + 1]
        step = geo.posture_log(lo, hi)
        out[rest] = geo.posture_exp(lo, w[rest, None, None] * step)
    return out


def warp_field(field: TSRVFField, gamma) -> TSRVFField:
    """Action of a warp on a field: resample at gamma and scale by the
    square root of gamma's derivative (central differences)."""
    gamma = check_warp(gamma)
    n = field.length
    grid = np.linspace(0.0, 1.0, n)
    g = np.interp(grid, np.linspace(0.0, 1.0, gamma.shape[0]), gamma)
    dg = np.gradient(g, grid)
    if np.any(dg <= 0):
        raise BadTarget("warp derivative must stay positive")
    resampled = _interp_rows(field.values, g * (n - 1))
    return TSRVFField(field.reference, resampled * np.sqrt(dg)[:, None], field.dt)


def _interp_rows(values, pos):
    """Linear interpolation of the rows of (L, D) values at fractional row
    positions."""
    n = values.shape[0]
    idx = np.minimum(pos.astype(int), n - 2)
    w = (pos - idx)[:, None]
    return (1.0 - w) * values[idx] + w * values[idx + 1]


# Rows of the first operand per block in _pair_norms: a block's (rows, q, D)
# difference buffer stays cache-sized instead of spanning all p rows.
NORM_BLOCK_ROWS = 8


def _pair_norms(a, b):
    """Norms ||a_i - b_j|| for all row pairs of (p, D) a and (q, D) b.

    Differences are squared in one reused (NORM_BLOCK_ROWS, q, D) buffer and
    summed over the contiguous last axis, so every norm has the same bits
    as ``np.sqrt(((a[:, None] - b[None]) ** 2).sum(-1))``."""
    p, q = a.shape[0], b.shape[0]
    out = np.empty((p, q))
    buf = np.empty((min(NORM_BLOCK_ROWS, p), q, a.shape[1]))
    for lo in range(0, p, NORM_BLOCK_ROWS):
        hi = min(lo + NORM_BLOCK_ROWS, p)
        diff = buf[:hi - lo]
        np.subtract(a[lo:hi, None, :], b[None, :, :], out=diff)
        np.multiply(diff, diff, out=diff)
        diff.sum(axis=-1, out=out[lo:hi])
    return np.sqrt(out, out=out)


def _edge_tables(v1, v2, dt):
    """Per-step tables C[s][i, j]: cost of entering lattice cell (i, j)
    with step DP_STEPS[s].  Each edge integrates the pointwise norm gap
    between the warped first field and the second by the trapezoid rule
    on the target grid.

    Term k of step (di, dj) compares sqrt(di/dj) times the first field,
    shifted by di*k/dj rows, with the second field shifted by k rows.  The
    integer parts of both shifts only offset rows and columns, so a term
    is a slice of one norm table per (step, fractional shift).  The two
    trapezoid ends k = 0 and k = dj both have fraction zero, which leaves
    13 distinct tables for the 20 terms of DP_STEPS.  Sliced entries are
    computed from the same rows as dp_edge_cost's, so they match it
    bitwise."""
    n = v1.shape[0]
    tables = []
    for di, dj in DP_STEPS:
        table = np.full((n, n), np.inf)
        tables.append(table)
        if max(di, dj) >= n:
            continue  # no lattice cell can be entered with this step
        root = np.sqrt(di / dj)
        norms = {}
        total = np.zeros((n - di, n - dj))
        for k in range(dj + 1):
            c = di * k / dj
            base = int(np.floor(c))
            frac = c - base
            if frac not in norms:
                a = (1.0 - frac) * v1[:-1] + frac * v1[1:] if frac > 0 else v1
                norms[frac] = _pair_norms(root * a, v2)
            weight = 0.5 if k in (0, dj) else 1.0
            total += weight * norms[frac][base:base + (n - di), k:k + (n - dj)]
        table[di:, dj:] = dt * total
    return tables


def dp_edge_cost(v1, v2, dt, start, end):
    """Cost of one lattice edge from start=(i0, j0) to end=(i, j).

    The dynamic program reads edge costs from _edge_tables instead; this
    per-edge form is the reference those tables must equal bitwise, and
    the cost exhaustive path enumeration sums."""
    i0, j0 = start
    i, j = end
    di, dj = i - i0, j - j0
    if (di, dj) not in DP_STEPS:
        raise BadTarget(f"({di}, {dj}) is not an admissible lattice step")
    root = np.sqrt(di / dj)
    total = 0.0
    for k in range(dj + 1):
        c = di * k / dj
        base = i0 + int(np.floor(c))
        frac = c - np.floor(c)
        if frac > 0:
            a = (1.0 - frac) * v1[base] + frac * v1[base + 1]
        else:
            a = v1[base]
        weight = 0.5 if k in (0, dj) else 1.0
        total += weight * float(_pair_norms((root * a)[None, :], v2[j0 + k][None, :])[0, 0])
    return dt * total


def optimal_warp(h1: TSRVFField, h2: TSRVFField):
    """Best piecewise-linear warp of h1's time axis onto h2's.

    Runs dynamic programming over the full lattice of field samples with
    steps limited to DP_STEPS (slopes in [1/3, 3]), endpoints pinned.

    Returns
    -------
    (gamma, cost)
        gamma has T = L+1 samples, ready for warp_sequence on the original
        sequences; cost is the warped field distance along the optimal
        path and never exceeds the unwarped distance.
    """
    _check_pair(h1, h2)
    n = h1.length
    if n < 2:
        raise DimensionMismatch("need at least two field samples to align")
    tables = _edge_tables(h1.values, h2.values, h1.dt)
    cost = np.full((n, n), np.inf)
    cost[0, 0] = 0.0
    choice = np.full((n, n), -1, dtype=np.int8)
    for i in range(1, n):
        best = np.full(n, np.inf)
        pick = np.full(n, -1, dtype=np.int8)
        for s, (di, dj) in enumerate(DP_STEPS):
            if i - di < 0:
                continue
            cand = cost[i - di, : n - dj] + tables[s][i, dj:]
            better = cand < best[dj:]
            best[dj:][better] = cand[better]
            pick[dj:][better] = s
        cost[i] = best
        choice[i] = pick
    if not np.isfinite(cost[n - 1, n - 1]):
        raise BadTarget("no admissible warp path reaches the corner")
    knots = [(n - 1, n - 1)]
    while knots[-1] != (0, 0):
        i, j = knots[-1]
        di, dj = DP_STEPS[choice[i, j]]
        knots.append((i - di, j - dj))
    knots.reverse()
    ki = np.array([k[0] for k in knots], dtype=float) / (n - 1)
    kj = np.array([k[1] for k in knots], dtype=float) / (n - 1)
    grid = np.linspace(0.0, 1.0, n + 1)
    gamma = np.interp(grid, kj, ki)
    gamma[0], gamma[-1] = 0.0, 1.0
    return gamma, float(cost[n - 1, n - 1])


def align_all(seqs, ref_index: int = 0, reference=None):
    """Warp every sequence onto the one at ref_index.

    The shared reference posture for the velocity fields defaults to the
    intrinsic mean of all first frames.  Returns (aligned sequences,
    warps); the reference sequence is returned unchanged with the
    identity warp.
    """
    seqs = [np.asarray(s, dtype=float) for s in seqs]
    if not seqs:
        raise DimensionMismatch("no sequences to align")
    if not 0 <= ref_index < len(seqs):
        raise BadTarget(f"reference index {ref_index} out of range")
    t = seqs[0].shape[0]
    for s in seqs:
        if s.shape != seqs[0].shape:
            raise DimensionMismatch("sequences must share their shape to be aligned")
    if reference is None:
        reference = geo.karcher_mean(np.stack([s[0] for s in seqs]))
    href = tsrvf(seqs[ref_index], reference)
    identity = np.linspace(0.0, 1.0, t)
    aligned, warps = [], []
    for m, seq in enumerate(seqs):
        if m == ref_index:
            aligned.append(seq.copy())
            warps.append(identity.copy())
            continue
        gamma, _ = optimal_warp(tsrvf(seq, reference), href)
        aligned.append(warp_sequence(seq, gamma))
        warps.append(gamma)
    return aligned, warps
