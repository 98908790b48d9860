from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from motionemu import geometry as geo
from motionemu.errors import DimensionMismatch, KindMismatch
from motionemu.flatten import (
    FLATTEN_KINDS,
    FlatFields,
    flatten_sequence,
    transported_velocities,
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


def encode(seq, reference, kind):
    """One sequence as a set of one field."""
    return flatten_sequence(seq[None], reference, kind)


def decode(fields):
    """The one sequence of a set of one field."""
    return unflatten_field(fields)[0]


def chord_angles(x, y):
    """Well-conditioned per-bone angles between matching unit vectors."""
    return 2.0 * np.arcsin(np.clip(np.linalg.norm(x - y, axis=-1) / 2.0, 0.0, 1.0))


def test_flatfield_validation():
    with pytest.raises(KindMismatch):
        FlatFields("banana", REF, REF[None], np.zeros((1, 4, 3)), 0.5)
    with pytest.raises(DimensionMismatch):
        FlatFields("stvf", REF, REF[None], np.zeros((1, 3, 3)), 0.5)
    with pytest.raises(DimensionMismatch):
        FlatFields("stvf", REF, None, np.zeros((1, 4, 3)), 0.25)


def test_stvf_column_norms_match_velocities():
    ts = np.linspace(0.0, 1.0, 41)
    seq = curved_seq(ts)
    field = encode(seq, REF, "stvf")
    assert field.values[0].shape == (4, 40)
    assert field.dt == 1.0 / 40
    speed = geo.tangent_norm(geo.sphere_log(seq[:-1], seq[1:]) * 40.0)
    np.testing.assert_allclose(np.linalg.norm(field.values[0], axis=0), speed,
                               rtol=1e-10, atol=1e-12)


def test_stvf_single_step_decode_by_hand():
    step = geo.sphere_exp(REF, np.stack([0.3 * E2, -0.2 * E2]))
    seq = np.stack([REF, step])
    field = encode(seq, REF, "stvf")
    decoded = decode(field)
    v = geo.coords_to_tangent(REF, field.values[0].T)[0]
    by_hand = geo.sphere_exp(REF, v * field.dt)
    np.testing.assert_allclose(decoded[1], by_hand, atol=1e-15)
    np.testing.assert_allclose(decoded, seq, atol=1e-12)


def test_stvf_roundtrip_error_small():
    ts = np.linspace(0.0, 1.0, 101)
    seq = curved_seq(ts)
    decoded = decode(encode(seq, REF, "stvf"))
    assert np.max(geo.posture_dist(seq, decoded)) <= 1e-6


def test_istvf_constant_velocity_is_ramp():
    seq = curved_seq(np.linspace(0.0, 1.0, 31))
    stvf = encode(seq, REF, "stvf")
    istvf = encode(seq, REF, "istvf")
    assert istvf.values[0].tobytes() == (np.cumsum(stvf.values[0], axis=1) * stvf.dt).tobytes()
    assert istvf.dt == stvf.dt
    # a constant-speed geodesic from the reference has constant stvf
    # columns, so its istvf columns grow linearly
    v = np.stack([0.6 * E2, -0.9 * E2])
    geodesic = geo.sphere_exp(REF, np.arange(7)[:, None, None] / 6.0 * v)
    ramp = encode(geodesic, REF, "istvf")
    expected = geo.tangent_coords(REF, v)[:, None] * np.arange(1, 7) / 6.0
    np.testing.assert_allclose(ramp.values[0], expected, atol=1e-14)


def test_istvf_to_stvf_is_near_exact_inverse():
    seq = curved_seq(np.linspace(0.0, 1.0, 51))
    stvf = encode(seq, REF, "stvf")
    istvf = encode(seq, REF, "istvf")
    diffs = np.diff(istvf.values[0], axis=1, prepend=0.0) / istvf.dt
    np.testing.assert_allclose(diffs, stvf.values[0], atol=1e-14)


def test_istvf_decode_matches_stvf_decode():
    ts = np.linspace(0.0, 1.0, 101)
    seq = curved_seq(ts)
    via_stvf = decode(encode(seq, REF, "stvf"))
    via_istvf = decode(encode(seq, REF, "istvf"))
    assert np.max(np.abs(via_stvf - via_istvf)) <= 1e-9


def test_siem_roundtrip_per_bone():
    ts = np.linspace(0.0, 1.0, 60)
    seq = curved_seq(ts)
    field = encode(seq, REF, "siem")
    assert field.values[0].shape == (4, 60)
    decoded = decode(field)
    assert np.max(chord_angles(decoded, seq)) <= 1e-10


def test_siem_column_norms_are_root_sum_square_angles():
    ts = np.linspace(0.0, 1.0, 30)
    seq = curved_seq(ts)
    field = encode(seq, REF, "siem")
    dots = np.einsum("tkj,kj->tk", seq, REF)
    crosses = np.linalg.norm(np.cross(np.broadcast_to(REF, seq.shape), seq), axis=-1)
    angles = np.arctan2(crosses, dots)
    np.testing.assert_allclose(
        np.sum(field.values[0]**2, axis=0), np.sum(angles**2, axis=1), atol=1e-12)


def test_mtvf_equals_stvf_for_two_frames():
    ts = np.linspace(0.0, 1.0, 2)
    seq = curved_seq(ts)
    np.testing.assert_array_equal(
        encode(seq, REF, "mtvf").values[0], encode(seq, REF, "stvf").values[0])


def test_mtvf_drift_dominates_stvf_error():
    ts = np.linspace(0.0, 1.0, 101)
    seq = curved_seq(ts)
    stvf_err = np.max(geo.posture_dist(seq, decode(encode(seq, REF, "stvf"))))
    per_frame = geo.posture_dist(seq, decode(encode(seq, REF, "mtvf")))
    assert np.max(per_frame) > 1000 * stvf_err
    # drift grows along the sequence
    assert per_frame[-1] > per_frame[20]


def test_dispatch_roundtrips():
    ts = np.linspace(0.0, 1.0, 21)
    seq = curved_seq(ts)
    for kind in ("stvf", "istvf", "siem"):
        field = encode(seq, REF, kind)
        assert field.kind == kind
        decoded = decode(field)
        assert decoded.shape == seq.shape
        assert np.max(geo.posture_dist(seq, decoded)) <= 1e-6
    control = encode(seq, REF, "mtvf")
    assert decode(control).shape == seq.shape
    with pytest.raises(KindMismatch):
        encode(seq, REF, "svf")


# ---- the one encoder: the bits of the per-kind encoders it replaced -------

def per_kind_encode(seq, reference, kind):
    """The encoders as separate per-kind functions, one body each, giving
    one sequence's values, start and reference: the reference
    flatten_sequence must match bit for bit."""
    seq = np.asarray(seq, dtype=float)
    reference = np.asarray(reference, dtype=float)
    t = seq.shape[0]

    def field(coords):
        return {"values": coords.T.copy(), "start": seq[0].copy(),
                "reference": reference.copy()}

    shooting = geo.sphere_log(seq[:-1], seq[1:]) * float(t - 1)
    if kind == "siem":
        return field(geo.tangent_coords(reference, geo.sphere_log(reference, seq)))
    if kind == "mtvf":
        moved = shooting.copy()
        for s in range(t - 2, 0, -1):
            moved[s:] = geo.sphere_transport(seq[s], seq[s - 1], moved[s:])
        moved = geo.sphere_transport(seq[0], reference, moved)
        return field(geo.tangent_coords(reference, moved))
    stvf = field(geo.tangent_coords(
        reference, geo.sphere_transport(seq[:-1], reference, shooting)))
    if kind == "istvf":
        stvf["values"] = np.cumsum(stvf["values"], axis=1) * (1.0 / (t - 1))
    return stvf


@given(kind=st.sampled_from(FLATTEN_KINDS), count=st.integers(1, 7), frames=st.integers(2, 9),
       bones=st.integers(1, 4), spread=st.sampled_from([0.01, 0.15, 0.6]),
       at_start=st.booleans(), per_block=st.one_of(st.none(), st.integers(1, 7)),
       seed=st.integers(0, 2**32 - 1))
def test_flatten_sequence_equals_per_kind_encoders(kind, count, frames, bones, spread,
                                                   at_start, per_block, seed):
    rng = np.random.default_rng(seed)
    seqs = rng.normal(size=(count, 1, bones, 3)) + np.cumsum(
        rng.normal(scale=spread, size=(count, frames, bones, 3)), axis=1)
    seqs /= np.linalg.norm(seqs, axis=-1, keepdims=True)
    reference = seqs[0, 0].copy() if at_start else rng.normal(size=(bones, 3))
    reference /= np.linalg.norm(reference, axis=-1, keepdims=True)
    # the encoder budgets nine times a sequence's bytes for each one: blocks
    # of per_block sequences, the last one ragged, or the default budget
    budget = geo.BLOCK_BYTES if per_block is None else per_block * 9 * seqs[0].nbytes
    with mock.patch.object(geo, "BLOCK_BYTES", budget):
        got = flatten_sequence(seqs, reference, kind)
    assert got.kind == kind and len(got) == count
    assert got.dt == 1.0 / (frames - 1)
    for i, seq in enumerate(seqs):
        want = per_kind_encode(seq, reference, kind)
        mine = {"values": got.values[i], "start": got.starts[i], "reference": got.reference}
        for name in ("values", "start", "reference"):
            a, b = mine[name], want[name]
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
            assert a.flags.c_contiguous == b.flags.c_contiguous, name


@pytest.mark.parametrize("kind", FLATTEN_KINDS)
def test_flatten_sequence_without_reference_uses_the_mean_of_every_frame(kind):
    ts = np.linspace(0.0, 1.0, 7)
    seqs = np.stack([curved_seq(ts), curved_seq(0.8 * ts + 0.1)])
    got = flatten_sequence(seqs, None, kind)
    want = flatten_sequence(seqs, geo.karcher_mean(seqs.reshape(-1, 2, 3)), kind)
    for name in ("reference", "starts", "values"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


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
                encode(seq, reference, kind)
        with pytest.raises(DimensionMismatch, match="does not match frames"):
            transported_velocities(seq, reference)


# ---- set decode: one loop over the columns, the same bits per field -------

def per_frame_decode(fields, i):
    """The decode of field i alone, frame by frame: the reference the set
    decode must match bit for bit."""
    values = fields.values[i]
    if fields.kind == "istvf":
        values = np.concatenate([values[:, :1], np.diff(values, axis=1)], axis=1) / fields.dt
    steps = geo.coords_to_tangent(fields.reference, values.T)
    if fields.kind == "siem":
        return geo.sphere_exp(fields.reference, steps)
    frames = [fields.starts[i].copy()]
    for t in range(values.shape[1]):
        v = geo.sphere_transport(fields.reference, frames[-1], steps[t])
        frames.append(geo.sphere_exp(frames[-1], v * fields.dt))
    return np.stack(frames)


def random_fields(kind, count, frames, bones, seed):
    """A set of count fields of one kind at a shared reference, encoded
    from random smooth sequences."""
    rng = np.random.default_rng(seed)
    reference = rng.normal(size=(bones, 3))
    reference /= np.linalg.norm(reference, axis=-1, keepdims=True)
    seqs = reference + np.cumsum(rng.normal(scale=0.15, size=(count, frames, bones, 3)), axis=1)
    seqs /= np.linalg.norm(seqs, axis=-1, keepdims=True)
    return flatten_sequence(seqs, reference, kind)


@given(kind=st.sampled_from(["stvf", "istvf", "siem", "mtvf"]),
       count=st.integers(1, 5), frames=st.integers(2, 9), bones=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_batch_decode_equals_single_field_decodes(kind, count, frames, bones, seed):
    fields = random_fields(kind, count, frames, bones, seed)
    before = fields.values.copy()
    batch = unflatten_field(fields)
    assert batch.shape == (count, frames, bones, 3)
    assert np.array_equal(fields.values, before)  # the input is left alone
    for i, decoded in enumerate(batch):
        single = decode(FlatFields(kind, fields.reference, fields.starts[i:i + 1],
                                   fields.values[i:i + 1], fields.dt))
        expected = per_frame_decode(fields, i)
        assert single.shape == expected.shape == decoded.shape
        assert single.tobytes() == expected.tobytes()
        assert decoded.tobytes() == expected.tobytes()


def test_batch_decode_of_no_fields_is_empty():
    for kind in ("stvf", "istvf", "siem", "mtvf"):
        out = unflatten_field(FlatFields(kind, REF, np.zeros((0, 2, 3)), np.zeros((0, 4, 5)), 0.2))
        assert out.shape[0] == 0


def test_velocity_decode_without_start_raises():
    values = np.zeros((1, 4, 3))
    for kind in FLATTEN_KINDS:
        with pytest.raises(DimensionMismatch, match="start posture"):
            FlatFields(kind, REF, None, values, 0.25)
    # siem decodes at the reference: its start postures are not read
    at_ref = unflatten_field(FlatFields("siem", REF, REF[None], values, 0.5))
    elsewhere = unflatten_field(FlatFields("siem", REF, -REF[None], values, 0.5))
    assert at_ref.shape == (1, 3, 2, 3) and at_ref.tobytes() == elsewhere.tobytes()


def test_batch_decode_rejects_bad_shapes():
    with pytest.raises(DimensionMismatch):
        FlatFields("stvf", REF, REF[None], np.zeros((4, 3)), 0.25)
    with pytest.raises(DimensionMismatch):
        FlatFields("stvf", REF, np.stack([REF, REF]), np.zeros((1, 4, 3)), 0.25)
    with pytest.raises(DimensionMismatch):
        FlatFields("stvf", REF, REF[None], np.zeros((1, 6, 3)), 0.25)
    with pytest.raises(KindMismatch):
        FlatFields("svf", REF, REF[None], np.zeros((1, 4, 3)), 0.25)
