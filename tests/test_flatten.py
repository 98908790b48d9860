import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from motionemu import geometry as geo
from motionemu.errors import DimensionMismatch, KindMismatch
from motionemu.flatten import (
    FlatField,
    flatten_sequence,
    istvf_decode,
    istvf_encode,
    istvf_to_stvf,
    mtvf_decode,
    mtvf_encode,
    recon_error,
    siem_decode,
    siem_encode,
    stvf_decode,
    stvf_encode,
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
        stvf_decode(field)


def test_stvf_column_norms_match_velocities():
    ts = np.linspace(0.0, 1.0, 41)
    seq = curved_seq(ts)
    field = stvf_encode(seq, REF)
    assert field.values.shape == (4, 40)
    assert field.dt == 1.0 / 40
    speed = geo.tangent_norm(geo.posture_log(seq[:-1], seq[1:]) * 40.0)
    np.testing.assert_allclose(np.linalg.norm(field.values, axis=0), speed, rtol=1e-10, atol=1e-12)


def test_stvf_single_step_decode_by_hand():
    step = geo.posture_exp(REF, np.stack([0.3 * E2, -0.2 * E2]))
    seq = np.stack([REF, step])
    field = stvf_encode(seq, REF)
    decoded = stvf_decode(field)
    v = geo.coords_to_tangent(REF, field.values.T)[0]
    by_hand = geo.posture_exp(REF, v * field.dt)
    np.testing.assert_allclose(decoded[1], by_hand, atol=1e-15)
    np.testing.assert_allclose(decoded, seq, atol=1e-12)


def test_stvf_roundtrip_error_small():
    ts = np.linspace(0.0, 1.0, 101)
    seq = curved_seq(ts)
    decoded = stvf_decode(stvf_encode(seq, REF))
    assert np.max(recon_error(seq, decoded)) <= 1e-6


def test_istvf_constant_velocity_is_ramp():
    values = np.tile(np.array([[1.0], [-2.0], [0.5], [3.0]]), (1, 6))
    field = FlatField("stvf", REF, REF, values, 1.0 / 6)
    ramp = istvf_encode(field)
    expected = values[:, :1] * np.arange(1, 7) / 6.0
    np.testing.assert_allclose(ramp.values, expected, atol=1e-15)


def test_istvf_to_stvf_is_near_exact_inverse():
    ts = np.linspace(0.0, 1.0, 51)
    field = stvf_encode(curved_seq(ts), REF)
    back = istvf_to_stvf(istvf_encode(field))
    assert back.kind == "stvf"
    np.testing.assert_allclose(back.values, field.values, atol=1e-14)


def test_istvf_decode_matches_stvf_decode():
    ts = np.linspace(0.0, 1.0, 101)
    seq = curved_seq(ts)
    via_stvf = stvf_decode(stvf_encode(seq, REF))
    via_istvf = istvf_decode(istvf_encode(stvf_encode(seq, REF)))
    assert np.max(np.abs(via_stvf - via_istvf)) <= 1e-9


def test_siem_roundtrip_per_bone():
    ts = np.linspace(0.0, 1.0, 60)
    seq = curved_seq(ts)
    field = siem_encode(seq, REF)
    assert field.values.shape == (4, 60)
    decoded = siem_decode(field)
    assert np.max(chord_angles(decoded, seq)) <= 1e-10


def test_siem_column_norms_are_root_sum_square_angles():
    ts = np.linspace(0.0, 1.0, 30)
    seq = curved_seq(ts)
    field = siem_encode(seq, REF)
    dots = np.einsum("tkj,kj->tk", seq, REF)
    crosses = np.linalg.norm(np.cross(np.broadcast_to(REF, seq.shape), seq), axis=-1)
    angles = np.arctan2(crosses, dots)
    np.testing.assert_allclose(
        np.sum(field.values**2, axis=0), np.sum(angles**2, axis=1), atol=1e-12)


def test_mtvf_equals_stvf_for_two_frames():
    ts = np.linspace(0.0, 1.0, 2)
    seq = curved_seq(ts)
    np.testing.assert_array_equal(
        mtvf_encode(seq, REF).values, stvf_encode(seq, REF).values)


def test_mtvf_drift_dominates_stvf_error():
    ts = np.linspace(0.0, 1.0, 101)
    seq = curved_seq(ts)
    stvf_err = np.max(recon_error(seq, stvf_decode(stvf_encode(seq, REF))))
    mtvf_err = np.max(recon_error(seq, mtvf_decode(mtvf_encode(seq, REF))))
    assert mtvf_err > 1000 * stvf_err
    # drift grows along the sequence
    per_frame = recon_error(seq, mtvf_decode(mtvf_encode(seq, REF)))
    assert per_frame[-1] > per_frame[20]


def test_dispatch_roundtrips():
    ts = np.linspace(0.0, 1.0, 21)
    seq = curved_seq(ts)
    for kind in ("stvf", "istvf", "siem"):
        field = flatten_sequence(seq, REF, kind)
        assert field.kind == kind
        decoded = unflatten_field(field)
        assert decoded.shape == seq.shape
        assert np.max(recon_error(seq, decoded)) <= 1e-6
    control = flatten_sequence(seq, REF, "mtvf")
    assert unflatten_field(control).shape == seq.shape
    with pytest.raises(KindMismatch):
        flatten_sequence(seq, REF, "svf")
    with pytest.raises(KindMismatch):
        istvf_to_stvf(flatten_sequence(seq, REF, "stvf"))


def test_recon_error_quarter_turn():
    a = np.broadcast_to(REF, (4, 2, 3)).copy()
    b = a.copy()
    b[:, 0] = E2
    np.testing.assert_allclose(recon_error(a, b), np.pi / 2, atol=1e-12)
    with pytest.raises(DimensionMismatch):
        recon_error(a, a[:2])


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
