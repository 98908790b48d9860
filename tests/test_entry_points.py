"""Every public function that takes postures, sequences or sets of
sequences refuses an array of the wrong shape with a MotionError: it
neither returns a result nor lets a numpy error through."""

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from motionemu import alignment, evaluate, flatten, geometry, models
from motionemu.errors import MotionError

REF = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
MODES = evaluate.ClusterModel(modes=np.stack([REF, REF[::-1]]), medoid_indices=np.arange(2),
                              objective=0.0)


def stack_shaped(shape):
    """(N, n-1, 3) with N >= 1: what every function but posture_dist needs
    at least (some need two frames)."""
    return len(shape) == 3 and shape[0] >= 1 and shape[2] == 3


def set_or_stack_shaped(shape):
    """(M, n-1, 3) or a stack of sets (M, B, n-1, 3), with M >= 1."""
    return len(shape) in (3, 4) and shape[0] >= 1 and shape[-1] == 3


def broadcast_posture_shaped(shape):
    return len(shape) >= 2 and shape[-1] == 3


CALLS = {
    "karcher_mean": (geometry.karcher_mean, set_or_stack_shaped),
    "posture_dist": (lambda x: geometry.posture_dist(x, x), broadcast_posture_shaped),
    "sequence_dist": (lambda x: geometry.sequence_dist(x, x), stack_shaped),
    "flatten_sequence": (lambda x: flatten.flatten_sequence(x, REF, "istvf"), stack_shaped),
    "tsrvf": (lambda x: alignment.tsrvf(x, REF), stack_shaped),
    "warp_sequence": (lambda x: alignment.warp_sequence(x, np.linspace(0.0, 1.0, max(len(x), 2))),
                      stack_shaped),
    "align_all": (lambda x: alignment.align_all([x, x]), stack_shaped),
    "fit_pwi": (lambda x: models.fit_pwi([x, x]), stack_shaped),
    "fit_emulator": (lambda x: models.fit_emulator([x, x, x]), stack_shaped),
    "disco_test": (lambda x: evaluate.disco_test([x], [x], n_perm=3, seed=0), stack_shaped),
    "sequence_distance_matrix": (lambda x: evaluate.sequence_distance_matrix([x, x]),
                                 stack_shaped),
    "posture_distance_matrix": (evaluate.posture_distance_matrix, stack_shaped),
    "cluster_postures": (lambda x: evaluate.cluster_postures(x, k=1, seed=0), stack_shaped),
    "quantize": (lambda x: evaluate.quantize(x, MODES), stack_shaped),
    "mean_label_sequence": (lambda x: evaluate.mean_label_sequence([x, x], MODES), stack_shaped),
    "roughness": (evaluate.roughness, stack_shaped),
}

# ndim 1 to 4, a last axis of 1 to 5, and a leading axis that may be empty
SHAPES = st.one_of(
    st.tuples(st.integers(0, 5)),
    st.integers(0, 2).flatmap(lambda middle: st.tuples(
        st.sampled_from([0, 1, 2, 5]), *[st.integers(1, 3)] * middle, st.integers(1, 5))))


@pytest.mark.parametrize("name", sorted(CALLS))
@given(shape=SHAPES)
@example(shape=(0, 2, 3))  # no postures, of the right bones
def test_wrong_shapes_raise_motion_errors(name, shape):
    call, valid = CALLS[name]
    assume(not valid(shape))
    # unit rows wherever the last axis has three entries, so that only the
    # shape is wrong
    x = np.full(shape, 1.0 / np.sqrt(3.0))
    with pytest.raises(MotionError):
        call(x)
