"""Riemannian primitives on the unit sphere and on products of spheres.

A posture is an array of shape (n-1, 3) whose rows are unit vectors, one
per bone of a skeleton with n landmarks.  The posture space is the product
of n-1 copies of the 2-sphere; all product-manifold operations act
bone-wise.  Distances between postures add the per-bone angles of
sphere_dist, a wrapper of _angles, the one angle kernel: exactly zero for
equal vectors, exactly symmetric and accurate to ~1e-14 rad over [0, pi].
Tangent vectors carry the Euclidean (L2) norm of their stacked coordinates,
which is what transport, flattening and PCA use.

All sphere functions broadcast over leading axes: one call acts on a whole
posture bone by bone, or on a whole (T, n-1, 3) sequence of postures.
"""

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import (AntipodalPoints, DimensionMismatch, InsufficientData, NoConvergence,
                     NotTangent)

# Angles or tangent norms below this are treated as exactly zero.
EPS_ZERO = 1e-12
# Dot products at or below -1 + this margin count as antipodal.
ANTIPODAL_MARGIN = 1e-9
# Maximum tolerated component of a "tangent" vector along its base point.
TANGENCY_TOL = 1e-8
# Bytes of kernel temporaries one block of a blocked loop keeps live, per
# worker where the blocks run on a thread pool; 2**23 raised the peak memory
# of a paper-scale pipeline run by 6-8 MiB.
BLOCK_BYTES = 2**21
MAX_WORKERS = 4  # most threads one pooled loop runs on
KARCHER_TOL = 1e-9  # karcher_mean converges once the mean log's norm is below this
KARCHER_MAX_ITER = 200  # karcher_mean's iteration budget


def _block_items(item_bytes):
    """Items per block of a loop whose kernel keeps item_bytes live per item."""
    return max(1, BLOCK_BYTES // max(item_bytes, 1))


def _workers():
    """Threads of one pooled loop: the cores this process may run on, at
    most MAX_WORKERS."""
    if hasattr(os, "sched_getaffinity"):
        return min(MAX_WORKERS, len(os.sched_getaffinity(0)))
    return min(MAX_WORKERS, os.cpu_count() or 1)


def _deal(run, items, spaces):
    """Deal items round-robin to one thread per workspace of spaces, at
    most one per item: thread w calls run(items[w::workers], spaces[w])
    once.  Callers build the spaces on their own thread, as arrays
    allocated on a worker thread come from that thread's malloc arena,
    which keeps what they free resident.  A worker's exception is raised
    here, after every thread has finished."""
    workers = min(len(spaces), len(items))
    if not workers:
        return
    with ThreadPoolExecutor(workers) as pool:
        done = [pool.submit(run, items[w::workers], spaces[w]) for w in range(workers)]
    for future in done:
        future.result()


def _dot(a, b):
    return np.einsum("...i,...i->...", a, b)


def _angles(y, z, work=None):
    """The angle kernel on coordinate-major operands: y[c] and z[c] are the
    c-th coordinates, broadcast against each other.  work, if given, is
    three arrays of the broadcast shape that the kernel overwrites; the
    angles land in work[0], which is returned.  Each per-coordinate pass
    reads contiguous memory when y and z are contiguous (3, ...) arrays."""
    if work is None:
        shape = np.broadcast_shapes(np.shape(y[0]), np.shape(z[0]))
        work = np.empty(shape), np.empty(shape), np.empty(shape)
    diff, total, term = work
    for op, acc in ((np.subtract, diff), (np.add, total)):
        op(y[0], z[0], out=acc)
        acc *= acc
        for c in (1, 2):
            op(y[c], z[c], out=term)
            term *= term
            acc += term
    np.sqrt(diff, out=diff)
    np.sqrt(total, out=total)
    np.arctan2(diff, total, out=diff)
    diff *= 2.0
    return diff


def sphere_dist(y, z):
    """Geodesic distance between unit vectors of shape (..., 3), broadcast
    over leading axes: 2*atan2(|y-z|, |y+z|) (Kahan, "How Futile are
    Mindless Assessments of Roundoff", 2006), with the norms summed one
    coordinate at a time by the coordinate-major kernel _angles, which
    reads y[..., c] and z[..., c] in place.

    Within ~1e-14 rad of the true angle on [0, pi] (9e-15 at most over 2e5
    pairs at known angles in [1e-12, pi - 1e-6]; arccos of the dot product
    is off by up to 3e-8).  Exactly zero when y == z element by element
    (-0.0 matches 0.0), positive otherwise unless every coordinate differs
    by less than ~1e-162, whose square underflows.  Swapping y and z gives
    the same bits.
    """
    y, z = np.asarray(y, dtype=float), np.asarray(z, dtype=float)
    return _angles(np.moveaxis(y, -1, 0), np.moveaxis(z, -1, 0))[()]


def sphere_log(y, z, out=None):
    """Inverse exponential map: the tangent vector at y pointing to z.

    Returns the zero vector when the two points coincide to within
    EPS_ZERO, and raises AntipodalPoints when they are (numerically)
    antipodal, since the minimizing geodesic is then not unique.  out, if
    given, is an array of the broadcast shape that receives the result.
    """
    dot = np.clip(_dot(y, z), -1.0, 1.0)
    if np.any(dot <= -1.0 + ANTIPODAL_MARGIN):
        raise AntipodalPoints("log map undefined for antipodal points")
    theta = np.arccos(dot)
    # one array of the broadcast shape, updated in place: z - dot*y, then scaled
    perp = np.multiply(dot[..., None], y, out=out)
    np.subtract(z, perp, out=perp)
    # normalize by the perpendicular norm rather than sin(arccos(dot)),
    # which loses ~1e-10 to cancellation close to the antipodal margin;
    # a norm below EPS_ZERO is rounding noise from coincident points and
    # must not be rescaled to theta.  The norm is np.linalg.norm's sum
    # without its copy of perp.
    norm = np.sqrt(np.add.reduce(perp * perp, axis=-1))
    small = norm < EPS_ZERO
    safe = np.where(small, 1.0, norm)
    scale = np.where(small, 0.0, theta / safe)
    perp *= scale[..., None]
    return perp


def sphere_exp(y, v):
    """Exponential map: follow the geodesic from y with initial velocity v.

    Parameters
    ----------
    y : ndarray, shape (..., 3)
        Base points (unit vectors).
    v : ndarray, shape (..., 3)
        Tangent vectors at y.  A component along y larger than
        TANGENCY_TOL raises NotTangent.

    Returns
    -------
    ndarray, shape (..., 3)
        Unit vectors at geodesic distance ||v|| from y.
    """
    y = np.broadcast_arrays(y, v)[0]
    radial = _dot(y, v)
    if np.any(np.abs(radial) > TANGENCY_TOL):
        raise NotTangent("vector has a radial component at its base point")
    norm = np.linalg.norm(v, axis=-1)
    small = norm < EPS_ZERO
    safe = np.where(small, 1.0, norm)
    out = np.cos(norm)[..., None] * y + (np.sin(norm) / safe)[..., None] * v
    return np.where(small[..., None], y, out)


def sphere_transport(y, z, u):
    """Parallel transport of u along the minimizing geodesic from y to z.

    Uses the closed reflection form, which is an isometry of tangent
    spaces; the result is re-projected onto the tangent space at z to
    scrub floating-point drift.  Transporting from a point to itself is
    the identity.
    """
    dot = _dot(y, z)
    if np.any(dot <= -1.0 + ANTIPODAL_MARGIN):
        raise AntipodalPoints("transport undefined for antipodal points")
    w = y + z
    coef = 2.0 * _dot(u, z) / _dot(w, w)
    out = u - coef[..., None] * w
    return out - _dot(out, z)[..., None] * z


def posture_dist(a, b):
    """Distance between postures: the sum of per-bone geodesic angles."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    try:
        shape = np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise DimensionMismatch(f"posture shapes differ: {a.shape} vs {b.shape}") from None
    if not _posture_shaped(shape):
        raise DimensionMismatch(f"not posture-shaped: {a.shape} vs {b.shape}")
    return np.sum(sphere_dist(a, b), axis=-1)


def tangent_norm(v):
    """Euclidean norm of a stacked tangent field, shape (..., n-1, 3)."""
    return np.sqrt(np.sum(v * v, axis=(-2, -1)))


def tangent_frame(base):
    """Deterministic orthonormal basis of the tangent plane at each bone.

    For every unit vector the two frame vectors come from Gram-Schmidt of
    the two global coordinate axes least aligned with it (|dot| ascending,
    ties broken by axis index) against it.  The second axis keeps a
    residual of norm |base.ax2| / sqrt(1 - (base.ax0)^2) >= 1/sqrt(2),
    ax2 being the most aligned axis, so the frame never degenerates.

    Parameters
    ----------
    base : ndarray, shape (..., 3)

    Returns
    -------
    (b1, b2) : pair of ndarray, shape (..., 3)
    """
    base = np.asarray(base, dtype=float)
    order = np.argsort(np.abs(base), axis=-1, kind="stable")
    eye = np.eye(3)
    ax0, ax1 = eye[order[..., 0]], eye[order[..., 1]]
    b1 = ax0 - _dot(ax0, base)[..., None] * base
    b1 = b1 / np.linalg.norm(b1, axis=-1, keepdims=True)
    b2 = ax1 - _dot(ax1, base)[..., None] * base - _dot(ax1, b1)[..., None] * b1
    b2 = b2 / np.linalg.norm(b2, axis=-1, keepdims=True)
    return b1, b2


def tangent_coords(base, v):
    """Coordinates of tangent fields in the deterministic frame at base.

    Parameters
    ----------
    base : ndarray, shape (..., n-1, 3)
        Posture(s) whose tangent space the fields live in.
    v : ndarray, shape (..., n-1, 3)
        Tangent fields at base (leading axes broadcast).

    Returns
    -------
    ndarray, shape (..., 2*(n-1))
        Per-bone coordinate pairs, interleaved bone by bone.  The map is
        a linear isometry: Euclidean norms of coordinates equal tangent
        field norms.
    """
    base = np.asarray(base, dtype=float)
    v = np.asarray(v, dtype=float)
    if not _posture_shaped(base.shape) or base.shape[-2:] != v.shape[-2:]:
        raise DimensionMismatch(f"expected (..., n-1, 3) tangents at (..., n-1, 3) postures with "
                                f"at least one bone, got {v.shape} at {base.shape}")
    b1, b2 = tangent_frame(base)
    c = np.stack([_dot(v, b1), _dot(v, b2)], axis=-1)
    return c.reshape(c.shape[:-2] + (2 * base.shape[-2],))


def coords_to_tangent(base, coords):
    """Inverse of tangent_coords: rebuild tangent fields from coordinates."""
    base = np.asarray(base, dtype=float)
    coords = np.asarray(coords, dtype=float)
    if not _posture_shaped(base.shape) or coords.shape[-1:] != (2 * base.shape[-2],):
        raise DimensionMismatch(f"expected (..., 2*(n-1)) coordinates at (..., n-1, 3) postures "
                                f"with at least one bone, got {coords.shape} at {base.shape}")
    k = base.shape[-2]
    b1, b2 = tangent_frame(base)
    c = coords.reshape(coords.shape[:-1] + (k, 2))
    return c[..., 0, None] * b1 + c[..., 1, None] * b2


def karcher_mean(postures):
    """Intrinsic mean of a set of postures, or of each set of a stack, by
    Riemannian gradient descent.

    Starts from the bone-wise normalized extrinsic mean and repeatedly
    shoots along the mean tangent vector (unit step) until the gradient
    norm drops below KARCHER_TOL.  A stack is iterated in blocks of sets
    sized by BLOCK_BYTES; within a block a set stops moving once it
    converges, so every mean keeps the bits of its own one-set call.  Each
    step writes the block's logs into one array, a run of postures at a
    time, and averages them in one call.  When
    KARCHER_MAX_ITER steps are spent, or a step leaves the sphere,
    NoConvergence names the bone spread furthest from the start and carries
    the largest residual of the first unconverged block.

    Parameters
    ----------
    postures : ndarray, shape (M, n-1, 3) or (M, B, n-1, 3)
        One set of M postures, or B sets, set b being postures[:, b].

    Returns
    -------
    ndarray, shape (n-1, 3) or (B, n-1, 3)
    """
    x = _check_postures(postures, (1,), (1, 0))
    stack = x[:, None] if x.ndim == 3 else x
    means = np.empty(stack.shape[1:])
    # a block of sets keeps its logs, one array the shape of the block, and
    # sphere_log's temporaries for one run of postures at a time, about three
    # runs' worth (1.04 BLOCK_BYTES by tracemalloc; a whole set logged in one
    # call kept 3.04 sets)
    step = _block_items(3 * stack[:, :1].nbytes)
    for lo in range(0, stack.shape[1], step):
        sets = stack[:, lo:lo + step]
        logs = np.empty(sets.shape)
        run = _block_items(3 * sets[:1].nbytes)
        chordal = sets.mean(axis=0)
        norms = np.linalg.norm(chordal, axis=-1, keepdims=True)
        # Renormalizing a row that is already unit length must not perturb it,
        # so the mean of identical postures whose sum divides back exactly (one
        # or two copies, say) is that posture bitwise.
        norms = np.where(np.abs(norms - 1.0) <= 4 * np.finfo(float).eps, 1.0, norms)
        # A collapsed extrinsic mean gives no usable direction; start from a sample.
        degenerate = norms[..., 0] < EPS_ZERO
        mu = np.where(degenerate[..., None], sets[0],
                      chordal / np.where(norms < EPS_ZERO, 1.0, norms))
        start, residual = mu, np.full(sets.shape[1], np.inf)
        moving = np.ones(sets.shape[1], dtype=bool)
        for _ in range(KARCHER_MAX_ITER):
            for p in range(0, len(sets), run):
                sphere_log(mu, sets[p:p + run], out=logs[p:p + run])
            grad = logs.mean(axis=0)
            residual = tangent_norm(grad)
            # a NaN residual never converges
            moving &= ~(residual < KARCHER_TOL)
            if not moving.any():
                break
            try:
                mu = np.where(moving[:, None, None], sphere_exp(mu, grad), mu)
            except NotTangent:  # the step drifted off the sphere
                break
        if moving.any():
            spread = sphere_dist(start[moving], sets[:, moving]).max(axis=(0, 1))
            raise NoConvergence(f"intrinsic mean did not converge: bone {spread.argmax()} "
                                f"spreads {spread.max():.3g} rad from the chordal start",
                                residual=float(residual[moving].max()))
        means[lo:lo + step] = mu
    return means[0] if x.ndim == 3 else means


def _posture_shaped(shape):
    """Whether shape is that of postures broadcast over leading axes: (..., n-1, 3), n-1 >= 1."""
    return len(shape) >= 2 and shape[-2] >= 1 and shape[-1] == 3


def _check_postures(x, *lead):
    """x as a float (..., n-1, 3) array of postures (or frames) with a bone
    and finite coordinates, its leading axes at least as long as one of
    lead: (2,) for a sequence of T >= 2 frames, (0, 2) for a block of them,
    (0,) if lead is empty."""
    x = np.asarray(x, dtype=float)
    lead = lead or ((0,),)
    least = {len(axes): axes for axes in lead}.get(x.ndim - 2)
    if least is None or not _posture_shaped(x.shape) or any(n < k for n, k in zip(x.shape, least)):
        raise DimensionMismatch(f"expected (..., n-1, 3) postures with at least one bone and "
                                f"leading axes of at least {' or '.join(map(str, lead))}, "
                                f"got {x.shape}")
    # min and max carry a nan through; unlike an isfinite mask they allocate nothing
    if x.size and not (np.isfinite(x.min()) and np.isfinite(x.max())):
        raise DimensionMismatch(f"postures of shape {x.shape} hold non-finite coordinates")
    return x


def _check_set(arrays, least, what, frames=None, axes=None):
    """The set as one C-ordered float (M, ...) array, such an ndarray as it
    is and anything else copied once: at least `least` members of one
    shape, named `what`.  Given frames, the members are (T, n-1, 3)
    sequences with T >= frames; given axes, one name per axis, they are
    arrays of that rank with no empty axis."""
    try:
        x = np.ascontiguousarray(arrays, dtype=float)
    except ValueError:
        shapes = sorted({np.shape(a) for a in arrays})
        if len(shapes) < 2:
            raise
        raise DimensionMismatch(f"{what} have mixed shapes: {shapes}") from None
    if len(x) < least:
        raise InsufficientData(f"got {len(x)} {what}, need at least {least}")
    if frames is not None:
        _check_postures(x, (0, frames))
    if axes is not None:
        if x.ndim != len(axes) + 1:
            raise DimensionMismatch(f"{what} must be {len(axes)}-d ({', '.join(axes)}), got "
                                    f"shape {x.shape[1:]}")
        if 0 in x.shape[1:]:
            raise InsufficientData(f"{what} of shape {x.shape[1:]} have rank 0: "
                                   f"{axes[x.shape.index(0, 1) - 1]} = 0")
    return x


def sequence_dist(a, b):
    """Mean posture distance between two (T, n-1, 3) sequences on a shared
    time grid: all T*(n-1) bone angles in one sum, divided by T, which is
    evaluate.sequence_distance_matrix's order, bit for bit."""
    pair = _check_set((a, b), 2, "sequences", frames=1)
    return float(sphere_dist(pair[0].reshape(-1, 3), pair[1].reshape(-1, 3)).sum() / pair.shape[1])
