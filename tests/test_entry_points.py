"""Every public function that takes postures, sequences or sets of
sequences refuses an array of the wrong shape with a MotionError: it
neither returns a result nor lets a numpy error through.  Every function
that takes a set gives the same bits on an (M, ...) array as on the list
of its rows, and copies the set no more than once."""

import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from motionemu import alignment, dimred, evaluate, flatten, geometry, models
from motionemu.datagen import SynthConfig, gen_class
from motionemu.errors import DimensionMismatch, MotionError

REF = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
MODES = evaluate.ClusterModel(modes=np.stack([REF, REF[::-1]]), medoid_indices=np.arange(2),
                              objective=0.0)


def frame_of(x):
    """A unit-row posture of the shape of x's frames, so that a reference
    never disagrees with the sequence it is used with."""
    return np.full(x.shape[-2:], 1.0 / np.sqrt(3.0))


def stack_shaped(shape):
    """(N, n-1, 3) with N >= 1 and a bone: what every function but
    posture_dist needs at least (some need two frames)."""
    return len(shape) == 3 and shape[0] >= 1 and shape[1] >= 1 and shape[2] == 3


def set_or_stack_shaped(shape):
    """(M, n-1, 3) or a stack of sets (M, B, n-1, 3), with M >= 1 and a bone."""
    return len(shape) in (3, 4) and shape[0] >= 1 and shape[-2] >= 1 and shape[-1] == 3


def sequence_or_block_shaped(shape):
    """(T, n-1, 3) or a block of sequences (B, T, n-1, 3), with T >= 2 and a bone."""
    return len(shape) in (3, 4) and shape[-3] >= 2 and shape[-2] >= 1 and shape[-1] == 3


def broadcast_posture_shaped(shape):
    return len(shape) >= 2 and shape[-2] >= 1 and shape[-1] == 3


def matrix_set_shaped(shape):
    """(M, d1, d2) with no empty matrix axis."""
    return len(shape) == 3 and shape[1] >= 1 and shape[2] >= 1


def sample_shaped(shape):
    return len(shape) == 1 and shape[0] >= 1


CALLS = {
    "karcher_mean": (geometry.karcher_mean, set_or_stack_shaped),
    "posture_dist": (lambda x: geometry.posture_dist(x, x), broadcast_posture_shaped),
    "sequence_dist": (lambda x: geometry.sequence_dist(x, x), stack_shaped),
    "tangent_coords": (lambda x: geometry.tangent_coords(x, x), broadcast_posture_shaped),
    "coords_to_tangent": (lambda x: geometry.coords_to_tangent(x, np.zeros(4)),
                          broadcast_posture_shaped),
    "shooting_vectors": (flatten.shooting_vectors, sequence_or_block_shaped),
    "transported_velocities": (lambda x: flatten.transported_velocities(x, frame_of(x)),
                               sequence_or_block_shaped),
    "flatten_sequence": (lambda x: flatten.flatten_sequence([x, x], frame_of(x), "istvf"),
                         stack_shaped),
    "flatten_sequence(reference=None)": (lambda x: flatten.flatten_sequence([x, x], None, "istvf"),
                                         stack_shaped),
    "tsrvf": (lambda x: alignment.tsrvf(x, frame_of(x)), stack_shaped),
    "warp_sequence": (lambda x: alignment.warp_sequence(x, np.linspace(0.0, 1.0, max(len(x), 2))),
                      stack_shaped),
    "align_all": (lambda x: alignment.align_all([x, x]), stack_shaped),
    "fit_pwi": (lambda x: models.fit_pwi([x, x]), stack_shaped),
    "fit_emulator": (lambda x: models.fit_emulator([x, x, x]), stack_shaped),
    "fit_mvg": (models.fit_mvg, matrix_set_shaped),
    "fit_ig": (models.fit_ig, matrix_set_shaped),
    "fpca_fit": (lambda x: dimred.fpca_fit(x, dt=0.1), matrix_set_shaped),
    "disco_test": (lambda x: evaluate.disco_test([x], [x], n_perm=3, seed=0), stack_shaped),
    "sequence_distance_matrix": (lambda x: evaluate.sequence_distance_matrix([x, x]),
                                 stack_shaped),
    "posture_distance_matrix": (evaluate.posture_distance_matrix, stack_shaped),
    "cluster_postures": (lambda x: evaluate.cluster_postures(x, k=1, seed=0), stack_shaped),
    "quantize": (lambda x: evaluate.quantize(x, MODES), stack_shaped),
    "mean_label_sequence": (lambda x: evaluate.mean_label_sequence([x, x], MODES), stack_shaped),
    "roughness": (evaluate.roughness, stack_shaped),
    "qq_data": (lambda x: evaluate.qq_data(x, x), sample_shaped),
    "variability_stats": (lambda x: evaluate.variability_stats([x], x), sample_shaped),
}

# ndim 1 to 4, a last axis of 0 to 5, middle axes of 0 to 3 and a leading
# axis that may be empty
SHAPES = st.one_of(
    st.tuples(st.integers(0, 5)),
    st.integers(0, 2).flatmap(lambda middle: st.tuples(
        st.sampled_from([0, 1, 2, 5]), *[st.integers(0, 3)] * middle, st.integers(0, 5))))


@pytest.mark.parametrize("name", sorted(CALLS))
@given(shape=SHAPES)
@example(shape=(0, 2, 3))  # no postures, of the right bones
@example(shape=(3, 0, 3))  # postures, or sequences, without bones
@example(shape=(3, 5, 0, 3))  # a stack, or a block, of them
@example(shape=(3, 0, 2))  # matrices with an empty axis
@example(shape=(3, 2, 0))
def test_wrong_shapes_raise_motion_errors(name, shape):
    call, valid = CALLS[name]
    assume(not valid(shape))
    # unit rows wherever the last axis has three entries, so that only the
    # shape is wrong
    x = np.full(shape, 1.0 / np.sqrt(3.0))
    with pytest.raises(MotionError):
        call(x)


NO_BONES = np.empty((3, 5, 0, 3))
NAN_POSTURES = np.full((5, 2, 3), np.nan)
HOLES = {
    "fit_emulator": (lambda: models.fit_emulator(NO_BONES), "at least one bone"),
    "flatten_sequence": (lambda: flatten.flatten_sequence(NO_BONES, None, "istvf"),
                         "at least one bone"),
    "flatten_sequence at a boneless reference": (
        lambda: flatten.flatten_sequence(NO_BONES, NO_BONES[0, 0], "istvf"), "at least one bone"),
    "karcher_mean of a set": (lambda: geometry.karcher_mean(NO_BONES[0]), "at least one bone"),
    "karcher_mean of a stack": (lambda: geometry.karcher_mean(NO_BONES), "at least one bone"),
    "shooting_vectors": (lambda: flatten.shooting_vectors(NO_BONES[0]), "at least one bone"),
    "transported_velocities": (
        lambda: flatten.transported_velocities(NO_BONES[0], NO_BONES[0, 0]), "at least one bone"),
    "fit_mvg": (lambda: models.fit_mvg(np.zeros((3, 0, 2))), "d1 = 0"),
    "fit_ig": (lambda: models.fit_ig(np.zeros((3, 2, 0))), "d2 = 0"),
    "fpca_fit": (lambda: dimred.fpca_fit(np.zeros((3, 2, 0)), dt=0.1), "T = 0"),
    "qq_data": (lambda: evaluate.qq_data(np.zeros((3, 2)), np.zeros(3)), "must be 1-d"),
    "tangent_coords": (lambda: geometry.tangent_coords(np.ones((2, 2)), np.ones((2, 2))),
                       "at least one bone, got (2, 2) at (2, 2)"),
    "coords_to_tangent": (lambda: geometry.coords_to_tangent(np.ones((2, 2)), np.ones(4)),
                          "at least one bone, got (4,) at (2, 2)"),
    "variability": (lambda: evaluate.variability([], []), "non-empty string of labels"),
    "variability_stats": (lambda: evaluate.variability_stats([[]], []),
                          "non-empty string of labels"),
    "fit_var": (lambda: models.fit_var(np.zeros((0, 9))), "d1 = 0"),
    "karcher_mean of nan postures": (lambda: geometry.karcher_mean(NAN_POSTURES), "non-finite"),
    "posture_distance_matrix of nan postures": (
        lambda: evaluate.posture_distance_matrix(NAN_POSTURES), "non-finite"),
    "cluster_postures of nan postures": (
        lambda: evaluate.cluster_postures(NAN_POSTURES, k=2, seed=0), "non-finite"),
    "sequence_distance_matrix with an infinite coordinate": (
        lambda: evaluate.sequence_distance_matrix([REF[None], np.full((1, 2, 3), np.inf)]),
        "non-finite"),
}


@pytest.mark.parametrize("name", sorted(HOLES))
def test_each_refusal_names_its_cause(name):
    call, cause = HOLES[name]
    with pytest.raises(MotionError, match=re.escape(cause)):
        call()


# ---- a set of sequences is one array -----------------------------------------

def bits(obj):
    """Everything a result holds, arrays as their shape, dtype and bytes."""
    if dataclasses.is_dataclass(obj):
        return bits(vars(obj))
    if isinstance(obj, dict):
        return {k: bits(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [bits(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.shape, obj.dtype.str, obj.tobytes()
    return repr(obj)


def synth_set(seed, count=6, landmarks=4, frames=16):
    cfg = SynthConfig(landmarks=landmarks, frames=frames, count=count, seed=seed)
    return gen_class(cfg)[0]


def modes_for(x):
    return evaluate.cluster_postures(x.reshape((-1,) + x.shape[2:]), k=2, seed=0)


# every public function that takes a set: name -> (builder of its set from a
# seed, call on the set)
SET_CALLS = {
    "align_all": (synth_set, alignment.align_all),
    "fit_pwi": (synth_set, models.fit_pwi),
    "fit_emulator": (synth_set, lambda s: models.fit_emulator(s, model_type="mvg", d1=2, d2=3)),
    "flatten_sequence": (synth_set, lambda s: flatten.flatten_sequence(s, s[0][0], "istvf")),
    "disco_test": (synth_set, lambda s: evaluate.disco_test(s[:3], s[3:], n_perm=19, seed=0)),
    "sequence_distance_matrix": (synth_set, evaluate.sequence_distance_matrix),
    "mean_label_sequence": (synth_set,
                            lambda s: evaluate.mean_label_sequence(s, modes_for(np.asarray(s)))),
    "fit_mvg": (lambda seed: np.random.default_rng(seed).standard_normal((6, 2, 3)),
                models.fit_mvg),
    "fit_ig": (lambda seed: np.random.default_rng(seed).standard_normal((6, 2, 3)),
               models.fit_ig),
    "fpca_fit": (lambda seed: np.random.default_rng(seed).standard_normal((6, 2, 15)),
                 lambda s: dimred.fpca_fit(s, dt=0.1)),
    "fit_var": (lambda seed: np.random.default_rng(seed).standard_normal((6, 2, 15)),
                lambda s: models.fit_var(s, order=2)),
}


@pytest.mark.parametrize("name", sorted(SET_CALLS))
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_an_array_set_gives_the_bits_of_the_list_of_its_rows(name, seed):
    build, call = SET_CALLS[name]
    x = build(seed)
    before = x.copy()
    assert bits(call(x)) == bits(call(list(x)))
    assert np.array_equal(x, before)  # the caller's set is left as it was


def test_sets_come_back_as_arrays():
    x = synth_set(1, count=8)
    m, t, bones, _ = x.shape
    aligned, warps = alignment.align_all(list(x))
    assert aligned.shape == x.shape and warps.shape == (m, t)
    for model_type in ("mvg", "ig", "var", "pwi"):
        bundle = models.fit_emulator(x, model_type=model_type, d1=2, d2=3, order=1)
        for count in (0, 3):
            assert models.simulate_sequence(bundle, count, seed=2).shape == (count, t, bones, 3)
        if model_type in ("mvg", "ig"):
            for count in (0, 3):
                assert models.sample_coeffs(bundle.model, count, seed=2).shape == (count, 2, 3)


def traced_peak(call):
    """Peak bytes that call allocates on top of what is live before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_the_set_check_copies_a_list_once_and_an_array_never():
    x = synth_set(2, count=40, landmarks=11, frames=40)
    assert geometry._check_set(x, 1, "sequences") is x
    assert np.shares_memory(geometry._check_set(x[1:4], 1, "sequences"), x)
    rows = list(x)
    assert traced_peak(lambda: geometry._check_set(rows, 1, "sequences")) < 1.2 * x.nbytes
    with pytest.raises(DimensionMismatch, match=re.escape("[(3, 10, 3), (40, 10, 3)]")):
        geometry._check_set([x[0], x[0], x[1, :3]], 1, "sequences")


def test_array_sets_reach_their_karcher_means_uncopied(monkeypatch):
    x = synth_set(3, count=6)
    seen = []
    original = geometry.karcher_mean

    def spy(postures, *args, **kwargs):
        seen.append(postures)
        return original(postures, *args, **kwargs)

    monkeypatch.setattr(geometry, "karcher_mean", spy)
    models.fit_pwi(x)
    evaluate.mean_label_sequence(x, modes_for(x))
    models.fit_emulator(x, model_type="mvg", d1=2, d2=3)  # first mean: the reference
    assert len(seen) >= 3 and all(np.shares_memory(p, x) for p in seen[:3])


@pytest.mark.parametrize("as_list", [False, True])
def test_align_all_and_sequence_distance_matrix_copy_a_set_once(monkeypatch, as_list):
    monkeypatch.setattr(geometry, "BLOCK_BYTES", 2**12)
    x = synth_set(4, count=30, landmarks=21, frames=30)
    s = list(x) if as_list else x
    for call in (alignment.align_all, evaluate.sequence_distance_matrix):
        assert traced_peak(lambda: call(s)) < 1.5 * x.nbytes


def test_a_karcher_mean_keeps_its_logs_and_one_block_of_temporaries(monkeypatch):
    # sphere_log's temporaries for one run of postures measured 1.04
    # BLOCK_BYTES over the logs; with the whole set in one call, 3.05 sets
    monkeypatch.setattr(geometry, "BLOCK_BYTES", 2**16)
    x = synth_set(6, count=20, landmarks=21, frames=100).reshape(-1, 20, 3)
    assert traced_peak(lambda: geometry.karcher_mean(x)) < x.nbytes + 1.25 * geometry.BLOCK_BYTES


def test_distance_matrices_of_array_sets_copy_tiles_not_the_set(monkeypatch):
    # four workers each hold one tile, one row block and the kernel's work,
    # 0.2 of this set; the coordinate planes of the whole set were 1.0 of it
    monkeypatch.setattr(geometry, "BLOCK_BYTES", 2**14)
    monkeypatch.setattr(geometry, "_workers", lambda: 4)
    x = synth_set(7, count=60, landmarks=21, frames=30)
    for call in (evaluate.sequence_distance_matrix, lambda s: evaluate.sequence_distance_matrix(
            s[:30], s[30:]), lambda s: evaluate.disco_test(s[:30], s[30:], n_perm=19, seed=0)):
        assert traced_peak(lambda: call(x)) < 0.5 * x.nbytes


def test_a_one_tile_posture_matrix_is_copied_once_for_all_workers(monkeypatch):
    # 800 postures in one tile of columns, rows one at a time: beside the
    # matrix and each worker's three kernel arrays, four workers sharing one
    # copy of the postures measured 1.47 copies, and a copy each 4.47
    monkeypatch.setattr(geometry, "BLOCK_BYTES", 2**20)
    monkeypatch.setattr(geometry, "_workers", lambda: 4)
    x = synth_set(8, count=10, landmarks=41, frames=80).reshape(-1, 40, 3)
    n, k = x.shape[:2]
    matrix, work = 8 * n * n, 4 * 3 * 8 * n * k
    assert traced_peak(lambda: evaluate.posture_distance_matrix(x)) < matrix + work + 2 * x.nbytes


@pytest.mark.parametrize("kind", flatten.FLATTEN_KINDS)
def test_flatten_sequence_keeps_one_block_of_temporaries(monkeypatch, kind):
    # blocks of 4 of these 14.4 KB sequences; over its output the encoder
    # measured 0.90 BLOCK_BYTES of temporaries for stvf and istvf (siem 0.57,
    # mtvf 0.66), and encoding the whole set as one block 4.5
    monkeypatch.setattr(geometry, "BLOCK_BYTES", 2**19)
    x = synth_set(4, count=30, landmarks=21, frames=30)
    fields = flatten.flatten_sequence(x, x[0, 0], kind)
    output = fields.values.nbytes + fields.starts.nbytes
    peak = traced_peak(lambda: flatten.flatten_sequence(x, x[0, 0], kind))
    assert peak < output + 1.2 * geometry.BLOCK_BYTES


def test_reduce_fields_and_fit_bundle_read_the_set_uncopied(monkeypatch):
    x = synth_set(5, count=40, landmarks=11, frames=40)
    fields = flatten.flatten_sequence(x, x[0, 0], "istvf")
    seen = []
    for name in ("spatial_pca_fit", "spatial_project", "mpca_fit"):
        original = getattr(dimred, name)

        def spy(f, *args, original=original, **kwargs):
            seen.append(f)
            return original(f, *args, **kwargs)

        monkeypatch.setattr(dimred, name, spy)
    spatial, fpca = dimred.reduce_fields(fields, True, 3, 4)
    bundle = models.fit_bundle(fields, spatial, fpca, "mvg", start_policy="fixed")
    dimred.mpca_fit(fields, 3, 4)
    assert len(seen) == 4 and all(f is fields for f in seen)
    assert np.shares_memory(bundle.start_postures, fields.starts)
    # each holds its own set-sized arrays (reduce_fields the centred values
    # that spatial_project scores, the spatial fit itself only one pooled
    # column and one block; MPCA the centred tensors and
    # one projection; fit_bundle the centred values of one projection) and
    # no copy of the set beside them
    size = fields.values.nbytes
    assert traced_peak(lambda: dimred.reduce_fields(fields, True, 3, 4)) < 3.5 * size
    assert traced_peak(lambda: dimred.mpca_fit(fields, 3, 4)) < 2.5 * size
    assert traced_peak(lambda: models.fit_bundle(fields, spatial, fpca, "mvg",
                                                 start_policy="fixed")) < 1.5 * size
