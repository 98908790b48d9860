"""Synthetic motion generator for tests and benchmarks.

Each class is built around one smooth template: per-bone tangent curves
of Gaussian-smoothed white noise, scaled to a target amplitude and
exponentiated from a random base posture.  Samples are warped copies of
the template (random monotone time warps, blended with the identity by a
strength knob) with optional smoothed tangent noise added frame by frame.
With zero warp strength and zero noise every sample is the template,
bit for bit.  The module needs numpy alone: the smoothing is a numpy twin
of scipy's Gaussian filter, equal to it bit for bit.

The template, each warp and each noise draw's smoothing and spread are
computed at the full frame rate, since the bits of every frame depend on
them; the warped samples, the noise's tangent lift and its exponential
map are computed only at the frames kept, which gen_mixture's
target_frames sets (skeleton.downsample_index), and are then the bits of
downsampling the full-rate sequences.
"""

from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from .alignment import _resample, check_warp
from .errors import BadTarget, DimensionMismatch
from .skeleton import downsample_index


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
    pair = np.empty_like(out)
    for j in range(r, 0, -1):
        np.add(x[r - j:r - j + n], x[r + j:r + j + n], out=pair)
        pair *= w[r + j]
        out += pair
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


def _finish_warp(rate, strength):
    """The warp of a smoothed rate: the normalized running integral of the
    exponentiated, unit-spread rate, blended with the identity by strength."""
    spread = rate.std()
    if spread > 0:
        rate = rate / spread
    warped = np.concatenate([[0.0], np.cumsum(np.exp(rate[1:]))])
    warped /= warped[-1]
    gamma = (1.0 - strength) * np.linspace(0.0, 1.0, len(rate)) + strength * warped
    gamma[0], gamma[-1] = 0.0, 1.0
    return gamma


def random_warp(rng, frames: int, strength: float):
    """Random monotone warp: the normalized running integral of a
    positive (exponentiated smooth-noise) rate, blended with the identity
    by `strength`.  strength=0 returns the identity exactly."""
    if strength == 0.0:
        return np.linspace(0.0, 1.0, frames)
    return _finish_warp(_smooth(rng.standard_normal(frames), 0.1 * frames), strength)


def _fill_class(cfg: SynthConfig, keep, out):
    """Write class cfg's sequences, at the frames `keep` (an index array or
    slice over cfg.frames), into out, shape (count, kept, n-1, 3); return the
    template.  Each sequence is the template warped by random_warp, then
    lifted by its noise, with the stream drawn in that order sequence by
    sequence; the rates are smoothed together, and the resampling, the noise
    lift and its sphere_exp run on kept frames only."""
    rng = np.random.default_rng(cfg.seed)
    template = make_template(cfg, rng)
    bones = cfg.landmarks - 1
    sigma = cfg.bandwidth * cfg.frames
    warped = cfg.warp_strength > 0.0
    noisy = cfg.noise_scale > 0.0
    rates = np.empty((cfg.frames, cfg.count)) if warped else None
    for m in range(cfg.count):
        if warped:
            rates[:, m] = rng.standard_normal(cfg.frames)
        if noisy:  # smoothed and scaled on every frame; kept in out[m] until its warp is done
            noise = _smooth(rng.standard_normal((cfg.frames, bones, 2)), sigma)
            spread = noise.std()
            if spread > 0:
                noise *= cfg.noise_scale / spread
            out[m, ..., :2] = noise[keep]
    if warped:  # one row per warp, each as random_warp's own rate
        rates = np.ascontiguousarray(_smooth(rates, 0.1 * cfg.frames).T)
    identity = np.linspace(0.0, 1.0, cfg.frames)
    for m in range(cfg.count):
        gamma = check_warp(_finish_warp(rates[m], cfg.warp_strength) if warped else identity)
        seq = _resample(template, gamma[keep])
        if noisy:
            vecs = geo.coords_to_tangent(seq, out[m, ..., :2].reshape(len(seq), 2 * bones))
            seq = geo.sphere_exp(seq, vecs)
        out[m] = seq
    return template


def gen_class(cfg: SynthConfig):
    """Generate one class from its seed: (sequences, template) with
    sequences of shape (count, T, n-1, 3)."""
    cfg.validate()
    out = np.empty((cfg.count, cfg.frames, cfg.landmarks - 1, 3))
    return out, _fill_class(cfg, slice(None), out)


def gen_mixture(configs, target_frames=None):
    """Generate several classes and pool them.

    Returns (sequences, labels): sequences stacked over classes (each
    class keeps its own config and seed) in one array, and integer class
    labels.  When target_frames is given every sequence is
    downsample(..., target_frames) of its full-rate self, computed at the
    kept frames only.  Every config and the target are checked before any
    class is generated.
    """
    if not configs:
        raise BadTarget("no class configs")
    for cfg in configs:
        cfg.validate()
    keeps = [slice(None) if target_frames is None else downsample_index(cfg.frames, target_frames)
             for cfg in configs]
    shapes = {(cfg.frames if target_frames is None else target_frames, cfg.landmarks - 1)
              for cfg in configs}
    if len(shapes) > 1:
        raise DimensionMismatch(f"classes of mixed (frames, bones): {sorted(shapes)}")
    counts = [cfg.count for cfg in configs]
    seqs = np.empty((sum(counts), *shapes.pop(), 3))
    start = 0
    for cfg, keep in zip(configs, keeps):
        _fill_class(cfg, keep, seqs[start:start + cfg.count])
        start += cfg.count
    return seqs, np.repeat(np.arange(len(configs)), counts)
