from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from motionemu import geometry as geo
from motionemu.datagen import SynthConfig, gen_mixture
from motionemu.errors import (AntipodalPoints, DimensionMismatch, MotionError,
                              NoConvergence, NotTangent)

E1, E2, E3 = np.eye(3)


def rand_unit(rng, *shape):
    v = rng.standard_normal(shape + (3,))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def rand_tangent(rng, base, scale=1.0):
    v = rng.standard_normal(base.shape) * scale
    v -= np.sum(v * base, axis=-1, keepdims=True) * base
    return v


def log_oracle(y, z):
    """Independent log derivation: angle via atan2 of the projected
    residual, direction by normalizing that residual."""
    dot = np.sum(y * z, axis=-1, keepdims=True)
    rej = z - dot * y
    norm = np.linalg.norm(rej, axis=-1, keepdims=True)
    theta = np.arctan2(norm, dot)
    return np.where(norm < 1e-300, 0.0, theta * rej / np.where(norm < 1e-300, 1.0, norm))


def test_dist_basics():
    assert geo.sphere_dist(E1, E1) == 0.0
    assert np.isclose(geo.sphere_dist(E1, E2), np.pi / 2, atol=1e-15)
    assert np.isclose(geo.sphere_dist(E1, -E1), np.pi, atol=1e-15)


def normalized(raw):
    norm = np.linalg.norm(raw, axis=-1, keepdims=True)
    assume(np.all(norm > 0.0))
    return raw / norm


@given(arrays(np.float64, st.tuples(st.integers(1, 8), st.just(3)),
              elements=st.floats(-1.0, 1.0)),
       arrays(np.float64, st.tuples(st.integers(1, 8), st.just(3)),
              elements=st.floats(-1.0, 1.0)))
def test_dist_is_bitwise_symmetric(a, b):
    y, z = normalized(a), normalized(b)
    n = min(len(y), len(z))
    assert np.array_equal(geo.sphere_dist(y[:n], z[:n]), geo.sphere_dist(z[:n], y[:n]))
    assert np.array_equal(geo.sphere_dist(y[:, None], z[None]), geo.sphere_dist(z[None], y[:, None]))


# Coordinates are zero or at least 1e-100 in magnitude: differences below
# ~1e-162 underflow when squared, which sphere_dist's docstring states.
COORD = st.one_of(st.sampled_from([0.0, -0.0]),
                  st.floats(1e-100, 1.0).flatmap(lambda x: st.sampled_from([x, -x])))


@given(st.tuples(COORD, COORD, COORD), st.tuples(*[st.integers(-3, 3)] * 3),
       st.tuples(*[st.booleans()] * 3))
def test_dist_is_zero_exactly_for_equal_vectors(coords, ulps, flip_zero):
    y = normalized(np.array(coords))
    z = y.copy()
    for c in range(3):
        if z[c] != 0.0:
            for _ in range(abs(ulps[c])):
                z[c] = np.nextafter(z[c], np.copysign(np.inf, ulps[c]))
        elif flip_zero[c]:
            z[c] = -z[c]
    assert (geo.sphere_dist(y, z) == 0.0) == bool(np.all(y == z))


@given(st.floats(np.log(1e-12), np.log(np.pi - 1e-6)), st.integers(0, 2**32 - 1))
def test_dist_accurate_at_known_angles(log_theta, seed):
    theta = np.exp(log_theta)
    rng = np.random.default_rng(seed)
    y = rand_unit(rng, 64)
    u = rand_tangent(rng, y)
    u /= np.linalg.norm(u, axis=-1, keepdims=True)
    z = np.cos(theta) * y + np.sin(theta) * u
    assert np.max(np.abs(geo.sphere_dist(y, z) - theta)) <= 1e-13


def coordinate_major(x):
    return np.ascontiguousarray(np.moveaxis(x, -1, 0))


# pairs of broadcastable leading shapes for (..., 3) operands
BROADCAST_SHAPES = [((), ()), ((5,), (5,)), ((), (6,)), ((4, 1), (1, 6)), ((1,), (7,)),
                    ((2, 3, 1), (3, 4)), ((3, 1, 5), (1, 2, 5))]


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(BROADCAST_SHAPES),
       st.sampled_from(["random", "equal", "opposite", "near-antipodal"]),
       st.floats(np.log(1e-9), np.log(1e-2)))
def test_sphere_dist_is_the_coordinate_major_kernel(seed, shapes, kind, log_gap):
    rng = np.random.default_rng(seed)
    y = rand_unit(rng, *shapes[0])
    z = rand_unit(rng, *shapes[1])
    full = np.broadcast_shapes(y.shape, z.shape)
    if kind == "equal":
        z = np.broadcast_to(y, full).copy()
    elif kind == "opposite":
        z = -np.broadcast_to(y, full)
    elif kind == "near-antipodal":
        # pi - gap away from y, along a random tangent direction
        base = np.broadcast_to(y, full)
        u = rand_tangent(rng, base)
        u /= np.linalg.norm(u, axis=-1, keepdims=True)
        z = np.cos(np.pi - np.exp(log_gap)) * base + np.sin(np.pi - np.exp(log_gap)) * u
    dist = geo.sphere_dist(y, z)
    kernel = geo._angles(coordinate_major(y), coordinate_major(z))
    assert np.shape(dist) == kernel.shape == full[:-1]
    assert np.asarray(dist).tobytes() == kernel.tobytes()
    assert np.asarray(geo.sphere_dist(z, y)).tobytes() == kernel.tobytes()
    assert np.all((0.0 <= kernel) & (kernel <= np.pi))
    if kind == "equal":
        assert np.array_equal(kernel, np.zeros(full[:-1]))
    elif kind == "opposite":
        assert np.array_equal(kernel, np.full(full[:-1], np.pi))
    elif kind == "near-antipodal":
        assert np.max(np.abs(kernel - (np.pi - np.exp(log_gap)))) <= 1e-13


def test_angle_kernel_writes_into_given_work_arrays():
    rng = np.random.default_rng(4)
    y, z = rand_unit(rng, 4, 1, 5), rand_unit(rng, 1, 3, 5)
    work = [np.full((4, 3, 5), np.nan) for _ in range(3)]
    angles = geo._angles(coordinate_major(y), coordinate_major(z), work)
    assert angles is work[0]
    assert angles.tobytes() == geo.sphere_dist(y, z).tobytes()


def test_log_examples():
    assert np.allclose(geo.sphere_log(E1, E1), 0.0)
    np.testing.assert_allclose(geo.sphere_log(E1, E2), (np.pi / 2) * E2, atol=1e-15)


def test_log_matches_independent_oracle():
    rng = np.random.default_rng(0)
    y = rand_unit(rng, 300)
    z = rand_unit(rng, 300)
    keep = np.sum(y * z, axis=-1) > -0.999
    np.testing.assert_allclose(geo.sphere_log(y[keep], z[keep]),
                               log_oracle(y[keep], z[keep]), atol=1e-10)


def test_log_antipodal_rejected():
    with pytest.raises(AntipodalPoints):
        geo.sphere_log(E1, -E1)


def test_exp_examples():
    np.testing.assert_allclose(geo.sphere_exp(E1, np.zeros(3)), E1)
    np.testing.assert_allclose(geo.sphere_exp(E1, (np.pi / 2) * E2), E2, atol=1e-15)
    np.testing.assert_allclose(geo.sphere_exp(E1, np.pi * E2), -E1, atol=1e-15)


def test_exp_rejects_radial_component():
    with pytest.raises(NotTangent):
        geo.sphere_exp(E1, 0.1 * E1)


def test_exp_log_roundtrip():
    rng = np.random.default_rng(1)
    y = rand_unit(rng, 500)
    z = rand_unit(rng, 500)
    keep = geo.sphere_dist(y, z) < np.pi - 1e-3
    y, z = y[keep], z[keep]
    back = geo.sphere_exp(y, geo.sphere_log(y, z))
    assert np.max(np.linalg.norm(back - z, axis=-1)) < 1e-10
    assert np.max(np.abs(np.linalg.norm(back, axis=-1) - 1.0)) < 1e-12


def test_transport_same_point_identity():
    rng = np.random.default_rng(2)
    y = rand_unit(rng)
    u = rand_tangent(rng, y)
    np.testing.assert_allclose(geo.sphere_transport(y, y, u), u, atol=1e-12)


def test_transport_orthogonal_direction_example():
    for c in (1.0, -2.5, 0.3):
        np.testing.assert_allclose(geo.sphere_transport(E1, E2, c * E3), c * E3,
                                   atol=1e-15)


def test_transport_isometry_and_tangency():
    rng = np.random.default_rng(3)
    y = rand_unit(rng, 400)
    z = rand_unit(rng, 400)
    keep = np.sum(y * z, axis=-1) > -0.999
    y, z = y[keep], z[keep]
    u = rand_tangent(rng, y, scale=2.0)
    out = geo.sphere_transport(y, z, u)
    assert np.max(np.abs(np.linalg.norm(out, axis=-1) - np.linalg.norm(u, axis=-1))) < 1e-12
    assert np.max(np.abs(np.sum(out * z, axis=-1))) < 1e-10


def test_transport_reverses_shooting_vector():
    rng = np.random.default_rng(4)
    y = rand_unit(rng, 200)
    z = rand_unit(rng, 200)
    keep = geo.sphere_dist(y, z) < np.pi - 1e-2
    y, z = y[keep], z[keep]
    moved = geo.sphere_transport(y, z, geo.sphere_log(y, z))
    assert np.max(np.linalg.norm(moved + geo.sphere_log(z, y), axis=-1)) < 1e-8


def test_transport_antipodal_rejected():
    with pytest.raises(AntipodalPoints):
        geo.sphere_transport(E1, -E1, E2)


def test_posture_dist_examples():
    a = np.stack([E1, E1])
    b = np.stack([E2, E1])
    assert np.isclose(geo.posture_dist(a, b), np.pi / 2, atol=1e-15)
    assert geo.posture_dist(a, a) == 0.0
    rng = np.random.default_rng(5)
    pa, pb = rand_unit(rng, 7), rand_unit(rng, 7)
    manual = sum(float(geo.sphere_dist(pa[i], pb[i])) for i in range(7))
    assert np.isclose(geo.posture_dist(pa, pb), manual, atol=1e-12)


def test_posture_dist_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        geo.posture_dist(np.zeros((3, 3)), np.zeros((4, 3)))


def test_posture_roundtrip_and_transport_isometry():
    rng = np.random.default_rng(6)
    a = rand_unit(rng, 6)
    b = rand_unit(rng, 6)
    v = geo.sphere_log(a, b)
    back = geo.sphere_exp(a, v)
    assert np.max(np.linalg.norm(back - b, axis=-1)) < 1e-10
    w = rand_tangent(rng, a, scale=1.3)
    moved = geo.sphere_transport(a, b, w)
    assert abs(geo.tangent_norm(moved) - geo.tangent_norm(w)) < 1e-10


def test_metric_axioms_random_triples():
    rng = np.random.default_rng(7)
    for _ in range(100):
        a, b, c = rand_unit(rng, 5), rand_unit(rng, 5), rand_unit(rng, 5)
        dab, dba = geo.posture_dist(a, b), geo.posture_dist(b, a)
        assert dab == dba
        assert geo.posture_dist(a, a) == 0.0
        assert geo.posture_dist(a, c) <= dab + geo.posture_dist(b, c) + 1e-12


def test_tangent_coords_roundtrip_isometry_linearity():
    rng = np.random.default_rng(8)
    base = rand_unit(rng, 9)
    v = rand_tangent(rng, base, scale=0.8)
    w = rand_tangent(rng, base, scale=1.7)
    cv = geo.tangent_coords(base, v)
    assert cv.shape == (18,)
    np.testing.assert_allclose(geo.coords_to_tangent(base, cv), v, atol=1e-12)
    assert abs(np.linalg.norm(cv) - geo.tangent_norm(v)) < 1e-12
    combo = geo.tangent_coords(base, 2.0 * v - 0.5 * w)
    np.testing.assert_allclose(combo, 2.0 * cv - 0.5 * geo.tangent_coords(base, w),
                               atol=1e-12)
    assert np.allclose(geo.tangent_coords(base, np.zeros_like(v)), 0.0)


def test_tangent_coords_batched_base():
    rng = np.random.default_rng(9)
    base = rand_unit(rng, 4, 6)
    v = rand_tangent(rng, base)
    coords = geo.tangent_coords(base, v)
    assert coords.shape == (4, 12)
    back = geo.coords_to_tangent(base, coords)
    np.testing.assert_allclose(back, v, atol=1e-12)
    # the batched call computes each row's frame exactly as a per-row call does
    rows = np.stack([geo.coords_to_tangent(base[i], coords[i]) for i in range(4)])
    assert back.tobytes() == rows.tobytes()


def test_tangent_frame_orthonormal():
    rng = np.random.default_rng(10)
    base = rand_unit(rng, 50)
    b1, b2 = geo.tangent_frame(base)
    for vec in (b1, b2):
        np.testing.assert_allclose(np.linalg.norm(vec, axis=-1), 1.0, atol=1e-12)
        assert np.max(np.abs(np.sum(vec * base, axis=-1))) < 1e-12
    assert np.max(np.abs(np.sum(b1 * b2, axis=-1))) < 1e-12


# Bones anywhere, with tied components (|x| = |y|), on an axis or on a
# diagonal, in any axis order and with any signs; off_unit scales them by up
# to 1e-9 off unit length.
RAW_BONE = st.one_of(
    st.tuples(*[st.floats(-1.0, 1.0)] * 3),
    st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(lambda t: (t[0], t[0], t[1])),
    st.sampled_from([(1.0, 0.0, 0.0), (1.0, 1.0, 0.0), (1.0, 1.0, 1.0)]))


@st.composite
def any_bone(draw, off_unit=True):
    raw = np.array(draw(RAW_BONE))[draw(st.permutations(range(3)))]
    raw *= [draw(st.sampled_from([1.0, -1.0])) for _ in range(3)]
    norm = np.linalg.norm(raw)
    assume(norm > 1e-6)
    return raw / norm * (1.0 + (draw(st.floats(-1e-9, 1e-9)) if off_unit else 0.0))


def postures(off_unit=True, most=6):
    return st.lists(any_bone(off_unit), min_size=1, max_size=most).map(np.array)


def off_unit_tol(base):
    """A bone d off unit length leaves its frame off the tangent plane by ~2d."""
    return 1e-12 + 4.0 * np.abs(np.sum(base * base, axis=-1) - 1.0)


@settings(max_examples=300)
@given(postures(most=8))
def test_tangent_frame_orthonormal_and_tangent_on_any_bone(base):
    b1, b2 = geo.tangent_frame(base)
    tol = off_unit_tol(base)
    for vec in (b1, b2):
        assert np.all(np.abs(np.linalg.norm(vec, axis=-1) - 1.0) <= 1e-12)
        assert np.all(np.abs(np.sum(vec * base, axis=-1)) <= tol)
    assert np.all(np.abs(np.sum(b1 * b2, axis=-1)) <= tol)


@given(postures(), st.integers(0, 2**32 - 1), st.floats(1e-3, 10.0))
def test_tangent_coords_round_trip_isometrically(base, seed, scale):
    v = rand_tangent(np.random.default_rng(seed), base, scale)
    coords = geo.tangent_coords(base, v)
    assert coords.shape == (2 * len(base),)
    tol = np.max(off_unit_tol(base)) * (1.0 + geo.tangent_norm(v))
    assert np.max(np.abs(geo.coords_to_tangent(base, coords) - v)) <= tol
    assert abs(np.linalg.norm(coords) - geo.tangent_norm(v)) <= tol


def unit_pairs():
    return st.lists(st.tuples(any_bone(False), any_bone(False)), min_size=1, max_size=8).map(
        lambda pairs: tuple(np.array(p) for p in zip(*pairs)))


@given(unit_pairs())
def test_exp_inverts_log_away_from_antipodes(pair):
    y, z = pair
    keep = geo.sphere_dist(y, z) < np.pi - 1e-3
    assume(keep.any())
    y, z = y[keep], z[keep]
    assert np.max(np.linalg.norm(geo.sphere_exp(y, geo.sphere_log(y, z)) - z, axis=-1)) < 1e-10


@given(unit_pairs(), st.integers(0, 2**32 - 1), st.floats(1e-3, 10.0))
def test_transport_is_an_isometry_into_the_tangent_plane(pair, seed, scale):
    y, z = pair
    keep = geo.sphere_dist(y, z) < np.pi - 1e-3
    assume(keep.any())
    y, z = y[keep], z[keep]
    u = rand_tangent(np.random.default_rng(seed), y, scale)
    out = geo.sphere_transport(y, z, u)
    norm = np.linalg.norm(u, axis=-1)
    assert np.all(np.abs(np.linalg.norm(out, axis=-1) - norm) <= 1e-12 * (1.0 + norm))
    assert np.all(np.abs(np.sum(out * z, axis=-1)) <= 1e-12 * (1.0 + norm))


def test_karcher_identical_inputs():
    rng = np.random.default_rng(11)
    p = rand_unit(rng, 5)
    np.testing.assert_allclose(geo.karcher_mean(np.stack([p, p, p])), p, atol=1e-12)


def test_karcher_two_point_midpoint_against_grid():
    """The mean of e1 and e2 on one bone must be the 45-degree midpoint;
    checked against a dense Fibonacci grid search of the squared-distance
    objective."""
    pts = np.stack([E1[None, :], E2[None, :]])
    mean = geo.karcher_mean(pts)
    expected = (E1 + E2) / np.linalg.norm(E1 + E2)
    np.testing.assert_allclose(mean[0], expected, atol=1e-6)

    k = np.arange(200000)
    phi = (1 + np.sqrt(5.0)) / 2
    zs = 1 - 2 * (k + 0.5) / len(k)
    theta = 2 * np.pi * k / phi
    r = np.sqrt(1 - zs**2)
    grid = np.column_stack([r * np.cos(theta), r * np.sin(theta), zs])
    objective = geo.sphere_dist(grid, E1) ** 2 + geo.sphere_dist(grid, E2) ** 2
    best = grid[np.argmin(objective)]
    assert geo.sphere_dist(best, mean[0]) < 2e-2
    mean_obj = geo.sphere_dist(mean[0], E1) ** 2 + geo.sphere_dist(mean[0], E2) ** 2
    assert mean_obj <= objective.min() + 1e-9


def test_karcher_local_optimality():
    rng = np.random.default_rng(12)
    center = rand_unit(rng, 4)
    cloud = np.stack([geo.sphere_exp(center, rand_tangent(rng, center, 0.3))
                      for _ in range(12)])
    mean = geo.karcher_mean(cloud)

    def objective(p):
        return float(np.sum(geo.sphere_dist(p, cloud) ** 2))

    at_mean = objective(mean)
    for sample in cloud:
        assert at_mean <= objective(sample) + 1e-12
    for _ in range(50):
        nudged = geo.sphere_exp(mean, rand_tangent(rng, mean, 0.05))
        assert at_mean <= objective(nudged) + 1e-12


def test_karcher_reports_nonconvergence():
    rng = np.random.default_rng(14)
    cloud = rand_unit(rng, 8, 3)
    with mock.patch.object(geo, "KARCHER_MAX_ITER", 1), pytest.raises(NoConvergence) as info:
        geo.karcher_mean(cloud)
    assert info.value.residual > 0.0


@pytest.mark.parametrize("landmarks, frames, amplitude", [
    (4, 60, 1.5),  # a step drifts off the sphere (sphere_exp's NotTangent)
    (6, 150, 0.8),  # the iteration budget runs out
])
def test_pooled_classes_fail_naming_the_bone_spread_furthest(landmarks, frames, amplitude):
    """Pooled over two synthetic classes, a bone spreads past a hemisphere
    and the descent fails; NoConvergence names that bone and its largest
    angle from the chordal start.  Each class alone converges."""
    seqs, labels = gen_mixture([SynthConfig(landmarks=landmarks, frames=frames, count=4,
                                            amplitude=amplitude, seed=190 + k)
                                for k in range(2)])
    bones = landmarks - 1
    for k in range(2):
        geo.karcher_mean(seqs[labels == k].reshape(-1, bones, 3))
    pooled = seqs.reshape(-1, bones, 3)
    start = pooled.mean(axis=0)
    start /= np.linalg.norm(start, axis=-1, keepdims=True)
    spread = np.arccos(np.clip(np.sum(pooled * start, axis=-1), -1.0, 1.0)).max(axis=0)
    worst = int(spread.argmax())
    assert spread[worst] > np.pi / 2
    with pytest.raises(NoConvergence, match=f"bone {worst} spreads {spread[worst]:.3g} rad "
                                            "from the chordal start"):
        geo.karcher_mean(pooled)


def stacked_sets(rng, m, b, bones, spread):
    """A (m, b, bones, 3) stack of b posture sets: set 0 holds m copies of
    one posture, set 1 (with m a multiple of 3) has a first bone whose
    samples sit 120 degrees apart on a great circle, so that its chordal
    mean collapses, and the others scatter by their own random spread, so
    that they converge after different numbers of iterations."""
    base = rand_unit(rng, b, bones)
    scales = spread * rng.uniform(size=(b, 1, 1))
    stack = base + scales * rng.standard_normal((m, b, bones, 3))
    stack /= np.linalg.norm(stack, axis=-1, keepdims=True)
    stack[:, 0] = stack[0, 0]
    if b > 1 and m % 3 == 0:
        u, w = np.linalg.qr(rng.standard_normal((3, 2)))[0].T
        angles = 2 * np.pi * np.arange(m) / 3
        stack[:, 1, 0] = np.cos(angles)[:, None] * u + np.sin(angles)[:, None] * w
    return stack


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 7), st.integers(1, 5), st.integers(1, 4), st.floats(0.0, 1.0),
       st.integers(0, 2**32 - 1), st.integers(0, 5))
def test_stacked_means_equal_one_set_calls_bitwise(m, b, bones, spread, seed, per_block):
    """Blocks of 1 to 5 sets (0: the default budget) give every set the
    bits of its own call."""
    stack = stacked_sets(np.random.default_rng(seed), m, b, bones, spread)
    budget = per_block * 6 * stack[:, 0].nbytes or geo.BLOCK_BYTES
    try:
        expected = np.stack([geo.karcher_mean(stack[:, j]) for j in range(b)])
    except MotionError as exc:
        with mock.patch.object(geo, "BLOCK_BYTES", budget), pytest.raises(type(exc)):
            geo.karcher_mean(stack)
        return
    with mock.patch.object(geo, "BLOCK_BYTES", budget):
        assert geo.karcher_mean(stack).tobytes() == expected.tobytes()
    if m in (1, 2):  # the chordal mean of one or two copies is exact
        assert expected[0].tobytes() == stack[0, 0].tobytes()


def test_stacked_means_report_the_largest_unconverged_residual():
    stack = stacked_sets(np.random.default_rng(15), 9, 4, 1, 0.8)
    residuals = []
    with mock.patch.object(geo, "KARCHER_MAX_ITER", 2):
        for j in range(4):
            try:
                geo.karcher_mean(stack[:, j])
            except NoConvergence as exc:
                residuals.append(exc.residual)
        # the identical and collapsed sets converge, the other two do not
        assert len(residuals) == 2 and residuals[0] != residuals[1]
        with pytest.raises(NoConvergence) as info:
            geo.karcher_mean(stack)
        assert info.value.residual == max(residuals)
        # with one set a block, the first unconverged set's block raises
        with mock.patch.object(geo, "BLOCK_BYTES", 6 * stack[:, 0].nbytes), \
                pytest.raises(NoConvergence) as info:
            geo.karcher_mean(stack)
        assert info.value.residual == residuals[0]
    with mock.patch.object(geo, "KARCHER_MAX_ITER", 0):
        for run in (lambda: geo.karcher_mean(stack), lambda: geo.karcher_mean(stack[:, 0])):
            with pytest.raises(NoConvergence) as info:
                run()
            assert info.value.residual == np.inf


def test_sequence_dist_mean_over_frames():
    rng = np.random.default_rng(13)
    a = rand_unit(rng, 4, 3)
    b = rand_unit(rng, 4, 3)
    manual = np.mean([geo.posture_dist(a[t], b[t]) for t in range(4)])
    assert np.isclose(geo.sequence_dist(a, b), manual, atol=1e-12)
    assert geo.sequence_dist(a, a) == 0.0
