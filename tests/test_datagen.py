"""Tests for the synthetic motion generator: template shaping, warps,
noise, mixtures, and the statistical probes the generator must support."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

import motionemu
from motionemu import geometry as geo
from motionemu.alignment import align_all
from motionemu.datagen import (SynthConfig, _smooth, default_mixture, gen_class,
                               gen_mixture, make_template, random_warp)
from motionemu.errors import BadTarget
from motionemu.evaluate import disco_test, roughness, sequence_distance_matrix
from motionemu.skeleton import downsample


def offdiag_mean(dmat):
    m = dmat.shape[0]
    return dmat.sum() / (m * m - m)


@pytest.fixture(scope="module")
def gaussian_filter1d():
    """scipy's filter, the smoothing's oracle; scipy is a test dependency only."""
    return pytest.importorskip("scipy.ndimage").gaussian_filter1d


SMOOTH_SHAPES = st.tuples(st.integers(1, 40), st.lists(st.integers(1, 3), max_size=2)).map(
    lambda t: (t[0], *t[1]))


@given(arrays(np.float64, SMOOTH_SHAPES, elements=st.floats(-1e6, 1e6)), st.floats(0.01, 4.0))
def test_smooth_equals_scipys_gaussian_filter_bitwise(gaussian_filter1d, values, scale):
    """The numpy smoothing gives scipy's bits, for sigma from a fraction of
    a frame to four times the axis, where the kernel radius spans several
    reflections of the axis."""
    sigma = max(scale * len(values), 0.05)
    expected = gaussian_filter1d(values, sigma, axis=0, mode="reflect")
    got = _smooth(values, sigma)
    assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


def test_the_package_imports_without_scipy():
    """A fresh interpreter that imports the command line loads no scipy
    module: numpy is the only runtime dependency."""
    src = os.path.dirname(os.path.dirname(motionemu.__file__))
    code = ("import sys, motionemu.cli; "
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True)
    assert run.stdout.strip() == "[]"


def test_config_validation():
    SynthConfig().validate()
    bad = [
        dict(landmarks=2),
        dict(frames=9),
        dict(count=0),
        dict(amplitude=0.0),
        dict(amplitude=np.pi / 2),
        dict(bandwidth=0.0),
        dict(bandwidth=0.6),
        dict(warp_strength=1.0),
        dict(warp_strength=-0.1),
        dict(noise_scale=-1e-9),
    ]
    for kwargs in bad:
        with pytest.raises(BadTarget):
            SynthConfig(**kwargs).validate()


def test_template_shape_and_amplitude():
    cfg = SynthConfig(landmarks=7, frames=80, amplitude=0.8, bandwidth=0.1, seed=1)
    template = make_template(cfg)
    assert template.shape == (80, 6, 3)
    norms = np.linalg.norm(template, axis=-1)
    assert np.max(np.abs(norms - 1.0)) < 1e-12
    # the scaling pins the largest excursion from the base posture to amplitude
    rng = np.random.default_rng(cfg.seed)
    base = rng.standard_normal((6, 3))
    base /= np.linalg.norm(base, axis=1, keepdims=True)
    excursions = geo.sphere_dist(base, template)
    assert abs(float(excursions.max()) - cfg.amplitude) < 1e-9


def test_random_warp_properties():
    frames = 120
    rng = np.random.default_rng(2)
    assert np.array_equal(random_warp(rng, frames, 0.0), np.linspace(0.0, 1.0, frames))
    for strength in (0.2, 0.7):
        gamma = random_warp(rng, frames, strength)
        assert gamma[0] == 0.0 and gamma[-1] == 1.0
        assert np.all(np.diff(gamma) > 0)
        assert np.max(np.abs(gamma - np.linspace(0, 1, frames))) <= strength
    g1 = random_warp(np.random.default_rng(9), frames, 0.5)
    g2 = random_warp(np.random.default_rng(9), frames, 0.5)
    assert np.array_equal(g1, g2)


def test_zero_warp_zero_noise_copies_template():
    cfg = SynthConfig(landmarks=5, frames=40, count=4, warp_strength=0.0,
                      noise_scale=0.0, seed=3)
    seqs, template = gen_class(cfg)
    assert seqs.shape == (4, 40, 4, 3)
    for m in range(4):
        assert np.array_equal(seqs[m], template)


def test_gen_class_determinism_and_posture_invariants():
    cfg = SynthConfig(landmarks=6, frames=50, count=5, warp_strength=0.4,
                      noise_scale=0.05, seed=4)
    seqs1, tmpl1 = gen_class(cfg)
    seqs2, tmpl2 = gen_class(cfg)
    assert np.array_equal(seqs1, seqs2)
    assert np.array_equal(tmpl1, tmpl2)
    assert np.all(np.isfinite(seqs1))
    assert np.max(np.abs(np.linalg.norm(seqs1, axis=-1) - 1.0)) < 1e-12
    other, _ = gen_class(SynthConfig(landmarks=6, frames=50, count=5, warp_strength=0.4,
                                     noise_scale=0.05, seed=5))
    assert not np.array_equal(seqs1, other)


def test_alignment_recovers_warped_class():
    cfg = SynthConfig(landmarks=6, frames=151, count=6, amplitude=0.9,
                      bandwidth=0.08, warp_strength=0.5, noise_scale=0.0, seed=5)
    seqs, _ = gen_class(cfg)
    pre = offdiag_mean(sequence_distance_matrix(seqs))
    aligned, _ = align_all(list(seqs))
    post = offdiag_mean(sequence_distance_matrix(aligned))
    assert post <= 0.2 * pre


def test_roughness_bounded_by_smoothness_scale():
    # c frozen at 16 from an eight-seed probe whose worst ratio was 8.3
    c = 16.0
    for seed in range(4):
        cfg = SynthConfig(landmarks=8, frames=200, count=4, amplitude=0.7,
                          bandwidth=0.1, warp_strength=0.4, noise_scale=0.02, seed=seed)
        seqs, _ = gen_class(cfg)
        bound = cfg.amplitude / (cfg.bandwidth * cfg.frames)
        worst = max(float(roughness(s).max()) for s in seqs)
        assert bound <= worst <= c * bound


def test_mixture_labels_and_separation():
    cfg_a = SynthConfig(landmarks=5, frames=60, count=8, amplitude=0.6, bandwidth=0.1,
                        warp_strength=0.4, noise_scale=0.05, seed=21)
    cfg_b = SynthConfig(landmarks=5, frames=60, count=8, amplitude=0.6, bandwidth=0.1,
                        warp_strength=0.4, noise_scale=0.05, seed=22)
    seqs, labels = gen_mixture([cfg_a, cfg_b])
    assert seqs.shape == (16, 60, 4, 3)
    assert np.array_equal(labels, np.repeat([0, 1], 8))
    group_a = [s for s, l in zip(seqs, labels) if l == 0]
    group_b = [s for s, l in zip(seqs, labels) if l == 1]
    assert disco_test(group_a, group_b, n_perm=199, seed=0).p_value <= 0.01
    with pytest.raises(BadTarget):
        gen_mixture([])


def test_split_half_calibration():
    rng = np.random.default_rng(99)
    rejections = 0
    repeats = 200
    for _ in range(repeats):
        cfg = SynthConfig(landmarks=4, frames=40, count=12, amplitude=0.6, bandwidth=0.12,
                          warp_strength=0.3, noise_scale=0.05, seed=int(rng.integers(2**31)))
        block, _ = gen_class(cfg)
        p = disco_test(list(block[:6]), list(block[6:]), n_perm=99,
                       seed=int(rng.integers(2**32))).p_value
        if p < 0.05:
            rejections += 1
    assert 0.01 <= rejections / repeats <= 0.12


def test_default_mixture_shape_and_spawned_seeds():
    seqs, labels = default_mixture(seed=0)
    assert seqs.shape == (300, 301, 20, 3)
    assert np.array_equal(np.bincount(labels), np.full(5, 60))
    assert np.max(np.abs(np.linalg.norm(seqs, axis=-1) - 1.0)) < 1e-12
    # class k is reproducible in isolation through its spawn key
    child = np.random.SeedSequence(0, spawn_key=(2,)).generate_state(1)[0]
    cfg = SynthConfig(landmarks=21, frames=1000, count=60, seed=int(child))
    block, _ = gen_class(cfg)
    downsampled = np.stack([downsample(s, 301) for s in block])
    assert np.array_equal(seqs[120:180], downsampled)


def test_mixture_downsampling_matches_per_sequence():
    cfg = SynthConfig(landmarks=4, frames=100, count=3, seed=11)
    full, _ = gen_class(cfg)
    mixed, labels = gen_mixture([cfg], target_frames=31)
    assert mixed.shape == (3, 31, 3, 3)
    assert np.array_equal(mixed, np.stack([downsample(s, 31) for s in full]))
