"""Synthetic motion generator for tests and benchmarks.

Each class is built around one smooth template: per-bone tangent curves
of Gaussian-smoothed white noise, scaled to a target amplitude and
exponentiated from a random base posture.  Samples are warped copies of
the template (random monotone time warps, blended with the identity by a
strength knob) with optional smoothed tangent noise added frame by frame.
With zero warp strength and zero noise every sample is the template,
bit for bit.  The module needs numpy alone: the smoothing is a numpy twin
of scipy's Gaussian filter, equal to it bit for bit.
"""

from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from .alignment import warp_sequence
from .errors import BadTarget
from .skeleton import downsample


@dataclass
class SynthConfig:
    """Knobs for one synthetic class.

    amplitude is the largest per-bone tangent excursion of the template
    (radians, must stay below pi/2 so every bone remains in the injective
    range of its base direction); bandwidth is the smoothing window as a
    fraction of the frame count; warp_strength in [0, 1) blends random
    monotone warps with the identity; noise_scale is the per-coordinate
    standard deviation of the added tangent noise.
    """

    landmarks: int = 21
    frames: int = 301
    count: int = 60
    amplitude: float = 0.8
    bandwidth: float = 0.05
    warp_strength: float = 0.5
    noise_scale: float = 0.0
    seed: int = 0

    def validate(self):
        if self.landmarks < 3:
            raise BadTarget("need at least three landmarks")
        if self.frames < 10:
            raise BadTarget("need at least ten frames")
        if self.count < 1:
            raise BadTarget("count must be positive")
        if not 0.0 < self.amplitude < np.pi / 2:
            raise BadTarget("amplitude must lie in (0, pi/2)")
        if not 0.0 < self.bandwidth <= 0.5:
            raise BadTarget("bandwidth must lie in (0, 0.5]")
        if not 0.0 <= self.warp_strength < 1.0:
            raise BadTarget("warp_strength must lie in [0, 1)")
        if self.noise_scale < 0.0:
            raise BadTarget("noise_scale must be nonnegative")
        return self


def _random_posture(rng, bones: int):
    v = rng.standard_normal((bones, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _smooth(values, sigma):
    """Gaussian smoothing along axis 0 with half-sample reflecting ends.

    Gives the same bits as scipy.ndimage.gaussian_filter1d(values, sigma,
    axis=0, mode="reflect"), so every synthetic class, and every test and
    benchmark input built from one, keeps its bytes without scipy: the same
    kernel (radius int(4 sigma + 0.5), normalized by its sum), the same ends
    (numpy's 'symmetric' pad, repeated when the radius exceeds the axis) and
    scipy's summation order for a symmetric kernel (centre term first, then
    the pairs of taps from the outermost inwards).
    """
    r = int(4.0 * sigma + 0.5)
    w = np.exp(-0.5 / (sigma * sigma) * np.arange(-r, r + 1) ** 2)
    w = w / w.sum()
    n = len(values)
    x = np.pad(values, [(r, r)] + [(0, 0)] * (values.ndim - 1), mode="symmetric")
    out = x[r:r + n] * w[r]
    for j in range(r, 0, -1):
        out += (x[r - j:r - j + n] + x[r + j:r + j + n]) * w[r + j]
    return out


def make_template(cfg: SynthConfig, rng=None):
    """Smooth template sequence for one class, shape (T, n-1, 3)."""
    cfg.validate()
    rng = np.random.default_rng(cfg.seed if rng is None else rng)
    bones = cfg.landmarks - 1
    base = _random_posture(rng, bones)
    sigma = cfg.bandwidth * cfg.frames
    coords = _smooth(rng.standard_normal((cfg.frames, bones, 2)), sigma)
    peak = np.sqrt((coords**2).sum(axis=2)).max()
    coords *= cfg.amplitude / max(peak, 1e-300)
    vecs = geo.coords_to_tangent(base, coords.reshape(cfg.frames, 2 * bones))
    return geo.sphere_exp(base, vecs)


def random_warp(rng, frames: int, strength: float):
    """Random monotone warp: the normalized running integral of a
    positive (exponentiated smooth-noise) rate, blended with the identity
    by `strength`.  strength=0 returns the identity exactly."""
    grid = np.linspace(0.0, 1.0, frames)
    if strength == 0.0:
        return grid
    rate = rng.standard_normal(frames)
    rate = _smooth(rate, 0.1 * frames)
    spread = rate.std()
    if spread > 0:
        rate = rate / spread
    warped = np.concatenate([[0.0], np.cumsum(np.exp(rate[1:]))])
    warped /= warped[-1]
    gamma = (1.0 - strength) * grid + strength * warped
    gamma[0], gamma[-1] = 0.0, 1.0
    return gamma


def gen_class(cfg: SynthConfig, rng=None):
    """Generate one class: (sequences, template) with sequences of shape
    (count, T, n-1, 3)."""
    cfg.validate()
    rng = np.random.default_rng(cfg.seed if rng is None else rng)
    template = make_template(cfg, rng)
    bones = cfg.landmarks - 1
    sigma = cfg.bandwidth * cfg.frames
    out = np.empty((cfg.count, cfg.frames, bones, 3))
    for m in range(cfg.count):
        gamma = random_warp(rng, cfg.frames, cfg.warp_strength)
        seq = warp_sequence(template, gamma)
        if cfg.noise_scale > 0.0:
            noise = _smooth(rng.standard_normal((cfg.frames, bones, 2)), sigma)
            spread = noise.std()
            if spread > 0:
                noise *= cfg.noise_scale / spread
            vecs = geo.coords_to_tangent(seq, noise.reshape(cfg.frames, 2 * bones))
            seq = geo.sphere_exp(seq, vecs)
        out[m] = seq
    return out, template


def gen_mixture(configs, target_frames=None):
    """Generate several classes and pool them.

    Returns (sequences, labels): sequences stacked over classes (each
    class keeps its own config and seed) and integer class labels.  When
    target_frames is given every sequence is downsampled to that length
    by index selection.
    """
    if not configs:
        raise BadTarget("no class configs")
    seqs, labels = [], []
    for label, cfg in enumerate(configs):
        block, _ = gen_class(cfg)
        if target_frames is not None:
            block = np.stack([downsample(s, target_frames) for s in block])
        seqs.append(block)
        labels.extend([label] * block.shape[0])
    return np.concatenate(seqs, axis=0), np.array(labels, dtype=int)


def default_mixture(seed: int = 0, classes: int = 5, count: int = 60,
                    landmarks: int = 21, base_frames: int = 1000, target_frames: int = 301):
    """Benchmark-shaped mixture: several classes generated on a dense
    grid and downsampled.  Class k derives its seed from the root seed by
    spawn key (k,)."""
    configs = []
    for k in range(classes):
        child = np.random.SeedSequence(seed, spawn_key=(k,)).generate_state(1)[0]
        configs.append(SynthConfig(landmarks=landmarks, frames=base_frames, count=count,
                                   seed=int(child)))
    return gen_mixture(configs, target_frames=target_frames)
