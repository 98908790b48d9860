"""Skeleton hierarchies and conversion of landmark frames to postures.

A raw motion frame is an (n, 3) array of landmark positions.  The shape
representation keeps, for every non-root landmark in index order, the unit
vector pointing from its parent to it.  Absolute position and all bone
lengths are discarded, so the representation is invariant to translation,
global scale and per-bone rescaling.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BadTarget, DegenerateBone, DimensionMismatch

# Bones shorter than this cannot be normalized into a direction.
BONE_LENGTH_EPS = 1e-9


@dataclass(frozen=True)
class SkeletonHierarchy:
    """Rooted tree over n landmarks.

    parent[i] is the index of landmark i's parent; the root carries -1.
    """

    parent: np.ndarray

    def __post_init__(self):
        parent = np.asarray(self.parent, dtype=int)
        object.__setattr__(self, "parent", parent)
        n = parent.shape[0]
        if parent.ndim != 1 or n < 2:
            raise DimensionMismatch("hierarchy needs a 1-d parent array with n >= 2")
        roots = np.flatnonzero(parent < 0)
        if roots.size != 1:
            raise DimensionMismatch(f"hierarchy must have exactly one root, found {roots.size}")
        if np.any(parent >= n):
            raise DimensionMismatch("parent index out of range")
        root = int(roots[0])
        for i in range(n):
            j, hops = i, 0
            while j != root:
                j = int(parent[j])
                hops += 1
                if hops > n:
                    raise DimensionMismatch("hierarchy contains a cycle")

    @property
    def n(self) -> int:
        return int(self.parent.shape[0])

    @property
    def root(self) -> int:
        return int(np.flatnonzero(self.parent < 0)[0])

    @property
    def bone_order(self) -> np.ndarray:
        """Non-root landmark indices in increasing order, one per bone."""
        return np.flatnonzero(self.parent >= 0)


def ingest_sequence(frames, hierarchy: SkeletonHierarchy):
    """Convert a (T, n, 3) array of landmark frames to a posture sequence.

    Returns an array of shape (T, n-1, 3).  The first degenerate bone
    found is reported together with its frame index.
    """
    frames = np.asarray(frames, dtype=float)
    if frames.ndim != 3 or frames.shape[1:] != (hierarchy.n, 3):
        raise DimensionMismatch(f"expected frames of shape (T, {hierarchy.n}, 3), got {frames.shape}")
    bones = hierarchy.bone_order
    diff = frames[:, bones] - frames[:, hierarchy.parent[bones]]
    lengths = np.linalg.norm(diff, axis=-1)
    bad = np.argwhere(lengths <= BONE_LENGTH_EPS)
    if bad.size:
        t, k = bad[0]
        raise DegenerateBone(int(bones[k]), frame=int(t))
    return diff / lengths[..., None]


def downsample_index(frames: int, target: int):
    """The frames that downsample keeps of a sequence of `frames` frames.

    Frame k of the result is frame round(k*(frames-1)/(target-1)) of the
    input (round half up, exact integer arithmetic); endpoints are always
    kept.  A target outside [2, frames] raises BadTarget.
    """
    if not 2 <= target <= frames:
        raise BadTarget(f"cannot downsample {frames} frames to {target}")
    k = np.arange(target, dtype=np.int64)
    return (2 * k * (frames - 1) + (target - 1)) // (2 * (target - 1))


def downsample(seq, target: int):
    """Keep target frames of a sequence by evenly spaced index selection
    (downsample_index)."""
    seq = np.asarray(seq)
    return seq[downsample_index(seq.shape[0], target)]
