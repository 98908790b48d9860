import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from motionemu import io as mio
from motionemu.errors import DimensionMismatch
from motionemu.flatten import FlatField
from motionemu.skeleton import SkeletonHierarchy


def rand_postures(rng, t, k):
    v = rng.standard_normal((t, k, 3))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def test_posture_sequences_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    seqs = [rand_postures(rng, 5, 3), rand_postures(rng, 5, 3)]
    path = tmp_path / "seqs.txt"
    mio.write_posture_sequences(path, seqs)
    back = mio.read_posture_sequences(path)
    assert len(back) == 2
    for a, b in zip(seqs, back):
        np.testing.assert_array_equal(a, b)
    second = tmp_path / "again.txt"
    mio.write_posture_sequences(second, back)
    assert path.read_bytes() == second.read_bytes()


def test_raw_sequences_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    hierarchy = SkeletonHierarchy(np.array([-1, 0, 1, 1]))
    frames = [rng.standard_normal((4, 4, 3)), rng.standard_normal((6, 4, 3))]
    path = tmp_path / "raw.txt"
    mio.write_raw_sequences(path, frames, hierarchy)
    back, h = mio.read_raw_sequences(path)
    np.testing.assert_array_equal(h.parent, hierarchy.parent)
    for a, b in zip(frames, back):
        np.testing.assert_array_equal(a, b)


def test_warps_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    raw = np.sort(rng.random((3, 9)), axis=1)
    warps = [np.concatenate([[0.0], w, [1.0]]) for w in raw]
    path = tmp_path / "warps.txt"
    mio.write_warps(path, warps)
    back = mio.read_warps(path)
    for a, b in zip(warps, back):
        np.testing.assert_array_equal(a, b)


def test_flatfields_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    ref = rand_postures(rng, 1, 4)[0]
    start = rand_postures(rng, 1, 4)[0]
    fields = [
        FlatField("stvf", ref, start, rng.standard_normal((8, 6)), 1.0 / 6),
        FlatField("siem", ref, None, rng.standard_normal((8, 7)), 1.0 / 6),
    ]
    path = tmp_path / "fields.txt"
    mio.write_flatfields(path, fields)
    back = mio.read_flatfields(path)
    for a, b in zip(fields, back):
        assert a.kind == b.kind
        assert a.dt == b.dt
        np.testing.assert_array_equal(a.reference, b.reference)
        np.testing.assert_array_equal(a.values, b.values)
        if a.start is None:
            assert b.start is None
        else:
            np.testing.assert_array_equal(a.start, b.start)


def test_doc_roundtrip_all_tags(tmp_path):
    rng = np.random.default_rng(4)
    items = [
        ("nothing", None),
        ("name", "hello world"),
        ("count", 42),
        ("scale", -0.12345678901234567),
        ("vec", rng.standard_normal(5)),
        ("mat", rng.standard_normal((3, 4))),
        ("empty", np.zeros((0, 4))),
    ]
    path = tmp_path / "doc.txt"
    mio.write_doc(path, "example", 2, items)
    doctype, version, data = mio.read_doc(path)
    assert doctype == "example" and version == 2
    assert data["nothing"] is None
    assert data["name"] == "hello world"
    assert data["count"] == 42
    assert data["scale"] == -0.12345678901234567
    np.testing.assert_array_equal(data["vec"], items[4][1])
    np.testing.assert_array_equal(data["mat"], items[5][1])
    assert data["empty"].shape == (0, 4)


def test_doc_float_bit_exactness(tmp_path):
    rng = np.random.default_rng(5)
    values = rng.standard_normal(200) * 10.0 ** rng.integers(-200, 200, size=200)
    path = tmp_path / "floats.txt"
    mio.write_doc(path, "floats", 1, [("v", values)])
    _, _, data = mio.read_doc(path)
    np.testing.assert_array_equal(data["v"], values)


def test_read_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("postureseq 3 2\n1 0 0\n")
    with pytest.raises(DimensionMismatch):
        mio.read_posture_sequences(path)
    empty = tmp_path / "empty.txt"
    empty.write_text("\n")
    with pytest.raises(DimensionMismatch):
        mio.read_posture_sequences(empty)


def test_read_posture_sequences_rejects_non_finite_and_off_unit_bones(tmp_path):
    rng = np.random.default_rng(6)
    seqs = [rand_postures(rng, 5, 3), rand_postures(rng, 5, 3)]
    path = tmp_path / "seqs.txt"
    nan = [s.copy() for s in seqs]
    nan[1][2, 0, 1] = np.nan
    mio.write_posture_sequences(path, nan)
    with pytest.raises(DimensionMismatch, match=r"block 1, row 2: non-finite"):
        mio.read_posture_sequences(path)
    doubled = [seqs[0], 2.0 * seqs[1]]
    mio.write_posture_sequences(path, doubled)
    with pytest.raises(DimensionMismatch, match=r"block 1, row 0: bone norm off 1"):
        mio.read_posture_sequences(path)
    # the tolerance is 1e-9 on | |bone| - 1 |
    within = [s * (1.0 + 5e-10) for s in seqs]
    mio.write_posture_sequences(path, within)
    assert len(mio.read_posture_sequences(path)) == 2
    beyond = [seqs[0], seqs[1].copy()]
    beyond[1][4, 2] *= 1.0 + 2e-9
    mio.write_posture_sequences(path, beyond)
    with pytest.raises(DimensionMismatch, match=r"block 1, row 4"):
        mio.read_posture_sequences(path)


def test_read_flatfields_rejects_non_finite_and_non_unit_postures(tmp_path):
    rng = np.random.default_rng(7)
    ref = rand_postures(rng, 1, 4)[0]
    start = rand_postures(rng, 1, 4)[0]
    good = FlatField("istvf", ref, start, rng.standard_normal((8, 6)), 1.0 / 6)
    path = tmp_path / "fields.txt"
    cases = [
        (FlatField("istvf", ref, start, good.values.copy(), good.dt), "values row 3: non-finite"),
        (FlatField("istvf", 2.0 * ref, start, good.values, good.dt), "reference bone 0: bone norm"),
        (FlatField("istvf", ref, 0.5 * start, good.values, good.dt), "start bone 0: bone norm"),
    ]
    cases[0][0].values[3, 1] = np.inf
    for bad, message in cases:
        mio.write_flatfields(path, [good, bad])
        with pytest.raises(DimensionMismatch, match=f"block 1, {message}"):
            mio.read_flatfields(path)


@given(arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 4), st.just(3)),
              elements=st.floats(-1.0, 1.0, allow_subnormal=False)),
       st.integers(1, 3))
def test_posture_sequences_roundtrip_bitwise_property(raw, count):
    norms = np.linalg.norm(raw, axis=-1, keepdims=True)
    raw = np.where(norms > 1e-3, raw, [1.0, 0.0, 0.0])
    seq = raw / np.linalg.norm(raw, axis=-1, keepdims=True)
    seqs = [np.roll(seq, i, axis=0) for i in range(count)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "seqs.txt"
        mio.write_posture_sequences(path, seqs)
        back = mio.read_posture_sequences(path)
    assert len(back) == count
    for a, b in zip(seqs, back):
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()
