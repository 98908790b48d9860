import numpy as np
import pytest

from motionemu import geometry as geo
from motionemu.errors import BadTarget, DegenerateBone, DimensionMismatch
from motionemu.skeleton import SkeletonHierarchy, downsample, ingest_sequence

CHAIN3 = SkeletonHierarchy(np.array([-1, 0, 1]))


def test_hierarchy_validation():
    assert CHAIN3.n == 3
    assert CHAIN3.root == 0
    np.testing.assert_array_equal(CHAIN3.bone_order, [1, 2])
    with pytest.raises(DimensionMismatch):
        SkeletonHierarchy(np.array([-1, -1, 0]))
    with pytest.raises(DimensionMismatch):
        SkeletonHierarchy(np.array([1, 0]))
    with pytest.raises(DimensionMismatch):
        SkeletonHierarchy(np.array([-1, 2, 1]))


def test_to_posture_axis_aligned_chain():
    frame = np.array([[0.0, 0, 0], [1.0, 0, 0], [1.0, 2, 0]])
    posture = ingest_sequence(frame[None], CHAIN3)[0]
    np.testing.assert_allclose(posture, np.array([[1.0, 0, 0], [0.0, 1, 0]]))


def test_to_posture_translation_and_scale_invariance():
    rng = np.random.default_rng(0)
    frame = rng.standard_normal((3, 3)) * 10
    base = ingest_sequence(frame[None], CHAIN3)[0]
    shifted = ingest_sequence((frame + np.array([5.0, 5, 5]))[None], CHAIN3)[0]
    np.testing.assert_allclose(shifted, base, atol=1e-12)
    scaled = ingest_sequence((frame * 3.0)[None], CHAIN3)[0]
    np.testing.assert_allclose(scaled, base, atol=1e-12)


def test_to_posture_per_bone_ratio_invariance():
    """Stretching each bone by its own factor must not change the posture;
    a star hierarchy makes the bones independent."""
    star = SkeletonHierarchy(np.array([-1, 0, 0, 0]))
    rng = np.random.default_rng(1)
    root = rng.standard_normal(3)
    offsets = rng.standard_normal((3, 3))
    frame = np.vstack([root, root + offsets])
    stretched = np.vstack([root, root + offsets * np.array([[0.5], [3.0], [7.5]])])
    np.testing.assert_allclose(ingest_sequence(stretched[None], star)[0],
                               ingest_sequence(frame[None], star)[0], atol=1e-12)


def test_to_posture_degenerate_bone():
    frame = np.array([[0.0, 0, 0], [0.0, 0, 0], [1.0, 0, 0]])
    with pytest.raises(DegenerateBone) as info:
        ingest_sequence(frame[None], CHAIN3)
    assert info.value.bone == 1 and info.value.frame == 0


def test_ingest_identical_frames():
    frame = np.array([[0.0, 0, 0], [1.0, 0, 0], [1.0, 2, 0]])
    seq = ingest_sequence(np.stack([frame, frame]), CHAIN3)
    assert seq.shape == (2, 2, 3)
    assert geo.posture_dist(seq[0], seq[1]) == 0.0


def test_ingest_synthetic_chain_unit_bones():
    rng = np.random.default_rng(2)
    frames = np.cumsum(rng.standard_normal((10, 3, 3)) + 2.0, axis=1)
    seq = ingest_sequence(frames, CHAIN3)
    assert seq.shape == (10, 2, 3)
    np.testing.assert_allclose(np.linalg.norm(seq, axis=-1), 1.0, atol=1e-12)


def test_ingest_reports_frame_of_degenerate_bone():
    frame = np.array([[0.0, 0, 0], [1.0, 0, 0], [1.0, 2, 0]])
    bad = frame.copy()
    bad[2] = bad[1]
    with pytest.raises(DegenerateBone) as info:
        ingest_sequence(np.stack([frame, bad, frame]), CHAIN3)
    assert "frame 1" in str(info.value)


def test_downsample_identity_and_examples():
    seq = np.arange(5)[:, None, None] * np.ones((5, 2, 3))
    np.testing.assert_array_equal(downsample(seq, 5), seq)
    np.testing.assert_array_equal(downsample(seq, 3)[:, 0, 0], [0, 2, 4])
    long = np.arange(1000)[:, None, None] * np.ones((1000, 1, 3))
    picked = downsample(long, 301)[:, 0, 0]
    assert picked[0] == 0 and picked[-1] == 999
    assert picked.shape == (301,)
    assert np.all(np.diff(picked) > 0)


def test_downsample_bad_targets():
    seq = np.zeros((5, 2, 3))
    with pytest.raises(BadTarget):
        downsample(seq, 1)
    with pytest.raises(BadTarget):
        downsample(seq, 6)
