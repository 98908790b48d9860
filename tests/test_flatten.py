import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from motionemu import geometry as geo
from motionemu.errors import DimensionMismatch, KindMismatch
from motionemu.flatten import (
    FLATTEN_KINDS,
    FlatField,
    flatten_sequence,
    transported_velocities,
    unflatten_batch,
    unflatten_field,
)

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])
REF = np.stack([E1, E3])


def curved_seq(ts):
    """Two bones tracing non-geodesic sphere paths, so multi-hop
    transport picks up path dependence."""
    a = 1.2 * ts + 0.3 * np.sin(5.0 * ts)
    b = 0.7 * np.sin(3.1 * ts + 0.4)
    bone1 = np.stack([np.cos(a) * np.cos(b), np.sin(a) * np.cos(b), np.sin(b)], axis=-1)
    c = 0.9 * ts
    d = 0.5 * np.cos(2.3 * ts)
    bone2 = np.stack([np.cos(c) * np.cos(d), np.sin(d), np.sin(c) * np.cos(d)], axis=-1)
    return np.stack([bone1, bone2], axis=1)


def chord_angles(x, y):
    """Well-conditioned per-bone angles between matching unit vectors."""
    return 2.0 * np.arcsin(np.clip(np.linalg.norm(x - y, axis=-1) / 2.0, 0.0, 1.0))


def test_flatfield_validation():
    with pytest.raises(KindMismatch):
        FlatField("banana", REF, REF, np.zeros((4, 3)), 0.5)
    with pytest.raises(DimensionMismatch):
        FlatField("stvf", REF, REF, np.zeros((3, 3)), 0.5)
    field = FlatField("stvf", REF, None, np.zeros((4, 3)), 0.25)
    with pytest.raises(DimensionMismatch):
        unflatten_field(field)


def test_stvf_column_norms_match_velocities():
    ts = np.linspace(0.0, 1.0, 41)
    seq = curved_seq(ts)
    field = flatten_sequence(seq, REF, "stvf")
    assert field.values.shape == (4, 40)
    assert field.dt == 1.0 / 40
    speed = geo.tangent_norm(geo.sphere_log(seq[:-1], seq[1:]) * 40.0)
    np.testing.assert_allclose(np.linalg.norm(field.values, axis=0), speed, rtol=1e-10, atol=1e-12)


def test_stvf_single_step_decode_by_hand():
    step = geo.sphere_exp(REF, np.stack([0.3 * E2, -0.2 * E2]))
    seq = np.stack([REF, step])
    field = flatten_sequence(seq, REF, "stvf")
    decoded = unflatten_field(field)
    v = geo.coords_to_tangent(REF, field.values.T)[0]
    by_hand = geo.sphere_exp(REF, v * field.dt)
    np.testing.assert_allclose(decoded[1], by_hand, atol=1e-15)
    np.testing.assert_allclose(decoded, seq, atol=1e-12)


def test_stvf_roundtrip_error_small():
    ts = np.linspace(0.0, 1.0, 101)
    seq = curved_seq(ts)
    decoded = unflatten_field(flatten_sequence(seq, REF, "stvf"))
    assert np.max(geo.posture_dist(seq, decoded)) <= 1e-6


def test_istvf_constant_velocity_is_ramp():
    seq = curved_seq(np.linspace(0.0, 1.0, 31))
    stvf = flatten_sequence(seq, REF, "stvf")
    istvf = flatten_sequence(seq, REF, "istvf")
    assert istvf.values.tobytes() == (np.cumsum(stvf.values, axis=1) * stvf.dt).tobytes()
    assert istvf.dt == stvf.dt
    # a constant-speed geodesic from the reference has constant stvf
    # columns, so its istvf columns grow linearly
    v = np.stack([0.6 * E2, -0.9 * E2])
    geodesic = geo.sphere_exp(REF, np.arange(7)[:, None, None] / 6.0 * v)
    ramp = flatten_sequence(geodesic, REF, "istvf")
    expected = geo.tangent_coords(REF, v)[:, None] * np.arange(1, 7) / 6.0
    np.testing.assert_allclose(ramp.values, expected, atol=1e-14)


def test_istvf_to_stvf_is_near_exact_inverse():
    seq = curved_seq(np.linspace(0.0, 1.0, 51))
    stvf = flatten_sequence(seq, REF, "stvf")
    istvf = flatten_sequence(seq, REF, "istvf")
    diffs = np.diff(istvf.values, axis=1, prepend=0.0) / istvf.dt
    np.testing.assert_allclose(diffs, stvf.values, atol=1e-14)


def test_istvf_decode_matches_stvf_decode():
    ts = np.linspace(0.0, 1.0, 101)
    seq = curved_seq(ts)
    via_stvf = unflatten_field(flatten_sequence(seq, REF, "stvf"))
    via_istvf = unflatten_field(flatten_sequence(seq, REF, "istvf"))
    assert np.max(np.abs(via_stvf - via_istvf)) <= 1e-9


def test_siem_roundtrip_per_bone():
    ts = np.linspace(0.0, 1.0, 60)
    seq = curved_seq(ts)
    field = flatten_sequence(seq, REF, "siem")
    assert field.values.shape == (4, 60)
    decoded = unflatten_field(field)
    assert np.max(chord_angles(decoded, seq)) <= 1e-10


def test_siem_column_norms_are_root_sum_square_angles():
    ts = np.linspace(0.0, 1.0, 30)
    seq = curved_seq(ts)
    field = flatten_sequence(seq, REF, "siem")
    dots = np.einsum("tkj,kj->tk", seq, REF)
    crosses = np.linalg.norm(np.cross(np.broadcast_to(REF, seq.shape), seq), axis=-1)
    angles = np.arctan2(crosses, dots)
    np.testing.assert_allclose(
        np.sum(field.values**2, axis=0), np.sum(angles**2, axis=1), atol=1e-12)


def test_mtvf_equals_stvf_for_two_frames():
    ts = np.linspace(0.0, 1.0, 2)
    seq = curved_seq(ts)
    np.testing.assert_array_equal(
        flatten_sequence(seq, REF, "mtvf").values, flatten_sequence(seq, REF, "stvf").values)


def test_mtvf_drift_dominates_stvf_error():
    ts = np.linspace(0.0, 1.0, 101)
    seq = curved_seq(ts)
    stvf_err = np.max(geo.posture_dist(seq, unflatten_field(flatten_sequence(seq, REF, "stvf"))))
    per_frame = geo.posture_dist(seq, unflatten_field(flatten_sequence(seq, REF, "mtvf")))
    assert np.max(per_frame) > 1000 * stvf_err
    # drift grows along the sequence
    assert per_frame[-1] > per_frame[20]


def test_dispatch_roundtrips():
    ts = np.linspace(0.0, 1.0, 21)
    seq = curved_seq(ts)
    for kind in ("stvf", "istvf", "siem"):
        field = flatten_sequence(seq, REF, kind)
        assert field.kind == kind
        decoded = unflatten_field(field)
        assert decoded.shape == seq.shape
        assert np.max(geo.posture_dist(seq, decoded)) <= 1e-6
    control = flatten_sequence(seq, REF, "mtvf")
    assert unflatten_field(control).shape == seq.shape
    with pytest.raises(KindMismatch):
        flatten_sequence(seq, REF, "svf")


# ---- the one encoder: the bits of the per-kind encoders it replaced -------

def per_kind_encode(seq, reference, kind):
    """The encoders as separate per-kind functions, one body each: the
    reference flatten_sequence must match bit for bit."""
    seq = np.asarray(seq, dtype=float)
    reference = np.asarray(reference, dtype=float)
    t = seq.shape[0]

    def field(kind, coords):
        return FlatField(kind, reference.copy(), seq[0].copy(), coords.T.copy(), 1.0 / (t - 1))

    shooting = geo.sphere_log(seq[:-1], seq[1:]) * float(t - 1)
    if kind == "siem":
        return field("siem", geo.tangent_coords(reference, geo.sphere_log(reference, seq)))
    if kind == "mtvf":
        moved = shooting.copy()
        for s in range(t - 2, 0, -1):
            moved[s:] = geo.sphere_transport(seq[s], seq[s - 1], moved[s:])
        moved = geo.sphere_transport(seq[0], reference, moved)
        return field("mtvf", geo.tangent_coords(reference, moved))
    stvf = field("stvf", geo.tangent_coords(
        reference, geo.sphere_transport(seq[:-1], reference, shooting)))
    if kind == "stvf":
        return stvf
    return FlatField("istvf", stvf.reference, stvf.start,
                     np.cumsum(stvf.values, axis=1) * stvf.dt, stvf.dt)


@given(kind=st.sampled_from(FLATTEN_KINDS), frames=st.integers(2, 9),
       bones=st.integers(1, 4), spread=st.sampled_from([0.01, 0.15, 0.6]),
       at_start=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_flatten_sequence_equals_per_kind_encoders(kind, frames, bones, spread, at_start,
                                                   seed):
    rng = np.random.default_rng(seed)
    seq = rng.normal(size=(1, bones, 3)) + np.cumsum(
        rng.normal(scale=spread, size=(frames, bones, 3)), axis=0)
    seq /= np.linalg.norm(seq, axis=-1, keepdims=True)
    reference = seq[0].copy() if at_start else rng.normal(size=(bones, 3))
    reference /= np.linalg.norm(reference, axis=-1, keepdims=True)
    got = flatten_sequence(seq, reference, kind)
    want = per_kind_encode(seq, reference, kind)
    assert got.kind == want.kind == kind
    assert got.dt == want.dt
    for name in ("values", "start", "reference"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
        assert a.flags.c_contiguous == b.flags.c_contiguous, name


def test_recon_error_quarter_turn():
    a = np.broadcast_to(REF, (4, 2, 3)).copy()
    b = a.copy()
    b[:, 0] = E2
    np.testing.assert_allclose(geo.posture_dist(a, b), np.pi / 2, atol=1e-12)
    with pytest.raises(DimensionMismatch):
        geo.posture_dist(a, a[:2])


def test_reference_of_the_wrong_shape_is_a_dimension_mismatch():
    """Every kind, and the shared transport step, names the two shapes
    instead of failing inside numpy's broadcasting."""
    seq = curved_seq(np.linspace(0.0, 1.0, 5))
    for reference in (REF[:1], REF[None], np.ones((2, 2))):
        for kind in FLATTEN_KINDS:
            with pytest.raises(DimensionMismatch, match="does not match frames"):
                flatten_sequence(seq, reference, kind)
        with pytest.raises(DimensionMismatch, match="does not match frames"):
            transported_velocities(seq, reference)


# ---- batch decode: one loop over the columns, the same bits per field -----

def per_frame_decode(field):
    """The decode as one field at a time, frame by frame: the reference
    the batch decode must match bit for bit."""
    values = field.values
    if field.kind == "istvf":
        values = np.concatenate([values[:, :1], np.diff(values, axis=1)], axis=1) / field.dt
    steps = geo.coords_to_tangent(field.reference, values.T)
    if field.kind == "siem":
        return geo.sphere_exp(field.reference, steps)
    frames = [field.start.copy()]
    for t in range(values.shape[1]):
        v = geo.sphere_transport(field.reference, frames[-1], steps[t])
        frames.append(geo.sphere_exp(frames[-1], v * field.dt))
    return np.stack(frames)


def random_fields(kind, count, frames, bones, seed):
    """count fields of one kind at a shared reference, encoded from
    random smooth sequences."""
    rng = np.random.default_rng(seed)
    reference = rng.normal(size=(bones, 3))
    reference /= np.linalg.norm(reference, axis=-1, keepdims=True)
    fields = []
    for _ in range(count):
        drift = np.cumsum(rng.normal(scale=0.15, size=(frames, bones, 3)), axis=0)
        seq = reference + drift
        seq /= np.linalg.norm(seq, axis=-1, keepdims=True)
        fields.append(flatten_sequence(seq, reference, kind))
    return reference, fields


@given(kind=st.sampled_from(["stvf", "istvf", "siem", "mtvf"]),
       count=st.integers(1, 5), frames=st.integers(2, 9), bones=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_batch_decode_equals_single_field_decodes(kind, count, frames, bones, seed):
    reference, fields = random_fields(kind, count, frames, bones, seed)
    starts = np.stack([f.start for f in fields])
    values = np.stack([f.values for f in fields])
    before = values.copy()
    batch = unflatten_batch(kind, reference, starts, values, fields[0].dt)
    assert batch.shape == (count, frames, bones, 3)
    assert np.array_equal(values, before)  # the input is left alone
    for field, decoded in zip(fields, batch):
        single = unflatten_field(field)
        expected = per_frame_decode(field)
        assert single.shape == expected.shape == decoded.shape
        assert single.tobytes() == expected.tobytes()
        assert decoded.tobytes() == expected.tobytes()


def test_batch_decode_of_no_fields_is_empty():
    for kind in ("stvf", "istvf", "siem", "mtvf"):
        out = unflatten_batch(kind, REF, np.zeros((0, 2, 3)), np.zeros((0, 4, 5)), 0.2)
        assert out.shape[0] == 0


def test_velocity_decode_without_start_raises():
    values = np.zeros((4, 3))
    for kind in ("stvf", "istvf", "mtvf"):
        with pytest.raises(DimensionMismatch, match="start posture"):
            unflatten_field(FlatField(kind, REF, None, values, 0.25))
        with pytest.raises(DimensionMismatch, match="start posture"):
            unflatten_batch(kind, REF, None, values[None], 0.25)
    # siem decodes at the reference and needs no start
    assert unflatten_field(FlatField("siem", REF, None, values, 0.5)).shape == (3, 2, 3)


def test_batch_decode_rejects_bad_shapes():
    with pytest.raises(DimensionMismatch):
        unflatten_batch("stvf", REF, REF[None], np.zeros((4, 3)), 0.25)
    with pytest.raises(DimensionMismatch):
        unflatten_batch("stvf", REF, np.stack([REF, REF]), np.zeros((1, 4, 3)), 0.25)
    with pytest.raises(DimensionMismatch):
        unflatten_batch("stvf", REF, REF[None], np.zeros((1, 6, 3)), 0.25)
    with pytest.raises(KindMismatch):
        unflatten_batch("svf", REF, REF[None], np.zeros((1, 4, 3)), 0.25)
