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

# Fractional row shifts c - floor(c), c = di*k/dj, of the steps' terms, as
# computed: 4/3 - 1 is not 1/3 in floating point.
_SHIFTS = tuple(sorted({di * k / dj - int(np.floor(di * k / dj))
                       for di, dj in DP_STEPS for k in range(dj + 1)}))

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
    reference = np.asarray(reference, dtype=float)
    moved = transported_velocities(geo._check_postures(seq, least=2), reference)
    norms = geo.tangent_norm(moved)
    scale = np.where(norms < ZERO_VELOCITY, 0.0, 1.0 / np.sqrt(np.where(norms < ZERO_VELOCITY, 1.0, norms)))
    coords = geo.tangent_coords(reference, moved * scale[:, None, None])
    return TSRVFField(reference.copy(), coords, 1.0 / moved.shape[0])


def warp_sequence(seq, gamma):
    """Reparameterize a sequence in time.

    Samples the sequence at gamma(t_k) for the original uniform grid t_k,
    interpolating between neighbouring frames along the geodesic.  Frames
    hit exactly (in particular under the identity warp) are copied
    bit-for-bit.
    """
    seq = geo._check_postures(seq, least=2)
    gamma = check_warp(gamma)
    t = seq.shape[0]
    if gamma.shape[0] != t:
        raise DimensionMismatch(f"warp has {gamma.shape[0]} samples for {t} frames")
    return _resample(seq, gamma)


def _resample(seq, times):
    """The (T, n-1, 3) sequence seq at the times on [0, 1], one frame per
    time, frame k of seq at time k/(T-1); warp_sequence's sampling, with
    every frame computed on its own, so a subset of a warp's times gives
    that subset of its frames bit for bit."""
    pos = times * (seq.shape[0] - 1)
    near = np.rint(pos)
    # grid hits are detected up to rounding in the times*(T-1) product
    exact = np.abs(pos - near) < 1e-9
    idx = np.where(exact, near, np.floor(pos)).astype(int)
    w = np.where(exact, 0.0, pos - idx)
    out = np.empty((len(times), *seq.shape[1:]))
    out[exact] = seq[idx[exact]]
    rest = ~exact
    lo, hi = seq[idx[rest]], seq[idx[rest] + 1]
    out[rest] = geo.sphere_exp(lo, w[rest, None, None] * geo.sphere_log(lo, hi))
    return out


def _coord_dots(x, y):
    """Sums over the last axis of x * y, for x and y broadcasting to (..., D),
    added one coordinate at a time in index order; a BLAS product sums in
    another order, with other last bits."""
    total = x[..., 0] * y[..., 0]
    for d in range(1, x.shape[-1]):
        total += x[..., d] * y[..., d]
    return total


def _gap(r, root, aa, bb, ab):
    """||root*a - b|| from r = root**2, ||a||^2, ||b||^2 and a.b; squares below 0 clamp to 0."""
    return np.sqrt(np.maximum(r * aa + bb - 2.0 * root * ab, 0.0))


def _row_squares(v1, v2):
    """(aa, bb): aa[s, i] = ||a||^2 for the shifted rows a = (1-f)*v1[i] +
    f*v1[i+1] at shift f = _SHIFTS[s] (0 in the last row for f > 0), and
    bb[j] = ||v2[j]||^2, the fixed-order coordinate sums of _coord_dots,
    computed once for every band and step that reads them."""
    shifted = np.empty((len(_SHIFTS), *v1.shape))
    for f, a in zip(_SHIFTS, shifted):
        if f > 0:
            np.multiply(1.0 - f, v1[:-1], out=a[:-1])
            a[:-1] += f * v1[1:]
            a[-1] = 0.0  # the last row has no successor
        else:
            a[...] = v1
    return _coord_dots(shifted, shifted), _coord_dots(v2, v2)


def _band_norms(gram, scratch, aa, bb, r, frac, out):
    """_edge_tables' norm table for one step ratio r and shift frac, on
    the first-field rows of gram, in place into out, with scratch as work
    rows; aa holds the squared norms of the same rows at that shift."""
    rows = gram.shape[0]
    ab = gram
    if frac > 0:
        rows -= 1  # a shifted row reads the next one
        ab, term = scratch[:rows], out[:rows]
        np.multiply(1.0 - frac, gram[:-1], out=ab)
        ab += np.multiply(frac, gram[1:], out=term)
    norm = out[:rows]
    np.add((r * aa[:rows])[:, None], bb, out=norm)
    norm -= np.multiply(2.0 * np.sqrt(r), ab, out=scratch[:rows])
    np.maximum(norm, 0.0, out=norm)
    return np.sqrt(norm, out=norm)


def _edge_band(work, v1, v2, squares, dt, lo, hi, tables):
    """Rows lo to hi-1 of _edge_tables, filled into its lattice tables in
    place by the same operations.  work is a (4, rows + 3, L) array for
    bands of up to rows rows, which read up to 3 field rows before them:
    Gram rows, work rows and two norm sets.  squares is
    _row_squares(v1, v2), which the band only reads."""
    n, width = v1.shape
    aa, bb = squares
    p0 = max(lo - 3, 0)
    gram, scratch = work[0, :hi - p0], work[1]
    np.multiply(v1[p0:hi, 0, None], v2[:, 0], out=gram)
    for d in range(1, width):
        gram += np.multiply(v1[p0:hi, d, None], v2[:, d], out=scratch[:hi - p0])
    for (di, dj), table in zip(DP_STEPS, tables[:, lo:hi]):
        first = max(lo, di)
        if max(di, dj) >= n or first >= hi:
            table.fill(np.inf)
            continue  # no cell of the band can be entered with this step
        table[:first - lo] = np.inf
        table[:, :dj] = np.inf
        r = di / dj
        # a step's unshifted norms serve its first and last terms, and each
        # shifted set one term between them (di and dj are coprime)
        norms = {}
        total = table[first - lo:, dj:]
        total.fill(0.0)
        for k in range(dj + 1):
            c = di * k / dj
            base = int(np.floor(c))
            frac = c - base
            if frac not in norms:
                norms[frac] = _band_norms(gram, scratch, aa[_SHIFTS.index(frac), p0:hi], bb,
                                          r, frac, work[3 if frac > 0 else 2])
            rows = norms[frac][base + first - di - p0:base + hi - di - p0, k:k + (n - dj)]
            if k in (0, dj):
                total += np.multiply(0.5, rows, out=scratch[:hi - first, :n - dj])
            else:
                total += rows  # weight 1.0, and 1.0 * x is x
        total *= dt


def _edge_tables(v1, v2, dt):
    """Per-step tables C[s][i, j]: cost of entering lattice cell (i, j)
    with step DP_STEPS[s], inf where a step enters no cell, as one
    (len(DP_STEPS), L, L) lattice.  Each edge integrates the pointwise norm
    gap between the warped first field and the second by the trapezoid
    rule on the target grid.

    The lattice and each band's work array are allocated on the calling
    thread; _edge_band fills bands of ceil(L/threads) rows, one per thread
    of geometry._deal.  The tables do not depend on the band size.

    Term k of step (di, dj) compares sqrt(di/dj) times the first field,
    shifted by di*k/dj rows, with the second field shifted by k rows: a
    slice of one norm table per (step, fractional shift f), 13 tables for
    the 20 terms.  Tables are in Gram form: with r = di/dj and
    a = (1-f)*v1[i] + f*v1[i+1], the squared norm is
    r*||a||^2 + ||b||^2 - 2*sqrt(r)*a.b, where a.b = (1-f)*G[i, j] +
    f*G[i+1, j] for G = v1 v2^T.  G and the squared norms are fixed-order
    coordinate sums, and dp_edge_cost evaluates the same expression in the
    same order, so the tables equal it bitwise; equal rows give exactly 0.
    The square cancels: each norm is within sqrt(8*(D+4)*eps)*R of the
    direct ||sqrt(r)*a - b||, R the largest row norm, so a tiny distance is
    accurate only to ~1e-8 times the field scale.  Squares overflow beyond
    ~1e150, far above any unit-bone field."""
    n = v1.shape[0]
    squares = _row_squares(v1, v2)
    rows = -(-n // geo._workers())
    starts = range(0, n, rows)
    tables = np.empty((len(DP_STEPS), n, n))
    works = [np.empty((4, rows + 3, n)) for _ in starts]

    def build(mine, work):
        for lo in mine:
            _edge_band(work, v1, v2, squares, dt, lo, min(lo + rows, n), tables)

    geo._deal(build, starts, works)
    return tables


def dp_edge_cost(v1, v2, dt, start, end):
    """Cost of one lattice edge from start=(i0, j0) to end=(i, j).

    The dynamic program reads edge costs from _edge_tables instead; this
    per-edge form, the tables' Gram-form expression with the same
    coordinate sums in the same order, is the reference that the tables
    must equal bitwise, and the cost exhaustive path enumeration sums."""
    (i0, j0), (i, j) = start, end
    di, dj = i - i0, j - j0
    if (di, dj) not in DP_STEPS:
        raise BadTarget(f"({di}, {dj}) is not an admissible lattice step")
    r, total = di / dj, 0.0
    root = np.sqrt(r)
    for k in range(dj + 1):
        c = di * k / dj
        base = i0 + int(np.floor(c))
        frac = c - np.floor(c)
        b = v2[j0 + k]
        a, ab = v1[base], _coord_dots(v1[base], b)
        if frac > 0:
            a = (1.0 - frac) * v1[base] + frac * v1[base + 1]
            ab = (1.0 - frac) * ab + frac * _coord_dots(v1[base + 1], b)
        weight = 0.5 if k in (0, dj) else 1.0
        total += weight * float(_gap(r, root, _coord_dots(a, a), _coord_dots(b, b), ab))
    return dt * total


def optimal_warp(h1: TSRVFField, h2: TSRVFField):
    """Best piecewise-linear warp of h1's time axis onto h2's.

    Runs dynamic programming over the full lattice of field samples with
    steps limited to DP_STEPS (slopes in [1/3, 3]), endpoints pinned.  The
    edge tables come from _edge_tables, whose bands are the only part that
    runs on worker threads; the program then runs down the lattice rows on
    the calling thread, and one pass over the lattice reads off the step
    into each cell.  The warp and its cost do not depend on the thread
    count.

    Returns
    -------
    (gamma, cost)
        gamma has T = L+1 samples, ready for warp_sequence on the original
        sequences; cost is the warped field distance along the optimal
        path and never exceeds the unwarped distance.
    """
    if not np.array_equal(h1.reference, h2.reference):
        raise ReferenceMismatch("fields were built at different reference postures")
    for name, v in zip(("first", "second"), geo._check_set((h1.values, h2.values), 2, "fields")):
        bad = ~np.isfinite(v).all(axis=1)
        if bad.any():
            raise DimensionMismatch(f"{name} field row {int(np.argmax(bad))}: non-finite value")
    n, v1, v2 = h1.length, h1.values, h2.values
    if n < 2:
        raise DimensionMismatch("need at least two field samples to align")
    tables = _edge_tables(v1, v2, h1.dt)
    # cost[i, j] sits at padded[i + 3, j + 3], below 3 rows and right of 3
    # columns of inf, so that every step into a cell has a predecessor entry
    wide = n + 3
    padded = np.full((wide, wide), np.inf)
    padded[3, 3] = 0.0
    cost, flat = padded[3:, 3:], padded.ravel()
    # reach[s, j]: offset in flat of the predecessor of (i, j) by step s, from padded row i
    reach = np.array([(3 - di) * wide + 3 - dj for di, dj in DP_STEPS])[:, None] + np.arange(n)
    # cand[s, j]: cost into (i, j) by step s, inf off the lattice
    cand = np.empty((len(DP_STEPS), n))
    for i in range(1, n):
        # every offset is in range: clip only skips the bounds check and
        # the copy of out that mode "raise" makes
        np.take(flat[i * wide:], reach, out=cand, mode="clip")
        cand += tables[:, i]
        # the minimum is the candidate argmin picks, as no cost is -0.0
        np.minimum.reduce(cand, axis=0, out=cost[i])
    # the step each cost came from, the lowest on ties: the candidates,
    # summed in place of the tables, that equal it
    choice = np.empty((n, n), dtype=np.int8)
    for s in reversed(range(len(DP_STEPS))):
        di, dj = DP_STEPS[s]
        tables[s] += padded[3 - di:wide - di, 3 - dj:wide - dj]
        np.copyto(choice, s, where=tables[s] == cost)
    if not np.isfinite(cost[n - 1, n - 1]):
        raise BadTarget("no admissible warp path reaches the corner")
    knots = [(n - 1, n - 1)]
    while knots[-1] != (0, 0):
        i, j = knots[-1]
        di, dj = DP_STEPS[choice[i, j]]
        knots.append((i - di, j - dj))
    ki, kj = np.array(knots[::-1], dtype=float).T / (n - 1)
    gamma = np.interp(np.linspace(0.0, 1.0, n + 1), kj, ki)
    gamma[0], gamma[-1] = 0.0, 1.0
    return gamma, float(cost[n - 1, n - 1])


def align_all(seqs, ref_index: int = 0):
    """Warp every sequence of a set onto the one at ref_index.

    The shared reference posture for the velocity fields is the intrinsic
    mean of all first frames.  Returns (aligned, warps), shapes
    (M, T, n-1, 3) and (M, T): the set copied once, each sequence warped in
    place but the reference, which keeps the identity warp.  The warps are
    searched one after another, each on every thread optimal_warp uses.
    """
    aligned = geo._check_set(seqs, 0, "sequences")
    if isinstance(seqs, np.ndarray) and np.may_share_memory(aligned, seqs):
        aligned = aligned.copy()  # warp a copy, never the caller's array
    if not len(aligned):
        raise DimensionMismatch("no sequences to align")
    if not 0 <= ref_index < len(aligned):
        raise BadTarget(f"reference index {ref_index} out of range")
    t = geo._check_postures(aligned[0], least=2).shape[0]
    reference = geo.karcher_mean(aligned[:, 0])
    href = tsrvf(aligned[ref_index], reference)
    warps = np.tile(np.linspace(0.0, 1.0, t), (len(aligned), 1))
    for m, seq in enumerate(aligned):
        if m != ref_index:
            warps[m], _ = optimal_warp(tsrvf(seq, reference), href)
            seq[...] = warp_sequence(seq, warps[m])
    return aligned, warps
