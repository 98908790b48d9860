"""Flattenings of posture sequences into fixed-size coordinate matrices.

Each encoding maps a sequence of T postures to a matrix whose columns are
tangent coordinates at one shared reference posture, so that ordinary
vector-space statistics apply:

* ``stvf``  - shooting vectors (discrete velocities), each transported
  from its own frame straight to the reference in one hop.
* ``istvf`` - running integral of the stvf columns (cumulative sum times
  dt); inverts exactly by first differences.
* ``siem``  - log-map coordinates of every frame at the reference; encodes
  positions rather than velocities (T columns instead of T-1).
* ``mtvf``  - velocities transported step by step through all earlier
  frames before reaching the reference.  Kept as a control: decoding
  transports each column back in a single hop, which does not undo the
  multi-hop chain (parallel transport is path dependent), so its
  reconstruction error grows along the sequence.

A set of M flattened sequences is one ``FlatFields``: one kind, one
reference, one dt, the M start postures as one (M, n-1, 3) array and the M
value matrices as one (M, 2*(n-1), L) array, on the time grid stated once by
``field_columns``, ``FlatFields.frames`` and ``grid_dt``.  ``flatten_sequence``
encodes a set of sequences of any kind into one, a block of sequences per
batch of numpy calls (``shooting_vectors`` and ``transported_velocities``
take a (B, T, n-1, 3) block as well as one sequence), and ``unflatten_field``
decodes one back into an (M, T, n-1, 3) array.  Either way each sequence
keeps the bits of its own call.  Velocity columns are scaled by 1/dt = T-1;
decoding scales them back by dt before exponentiating.
"""

from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from .errors import DimensionMismatch, KindMismatch

FLATTEN_KINDS = ("stvf", "istvf", "siem", "mtvf")


def field_columns(kind: str, frames: int) -> int:
    """The columns of a kind's field of a frames-frame sequence: siem keeps
    one per frame, the velocity kinds one per step."""
    return frames if kind == "siem" else frames - 1


def grid_dt(frames: int) -> float:
    """The step of a frames-frame time grid on [0, 1]."""
    if frames < 2:
        raise DimensionMismatch(f"a time grid needs at least two frames, got {frames}")
    return 1.0 / (frames - 1)


@dataclass
class FlatFields:
    """A set of M flattened sequences of one kind at one reference posture
    (n-1, 3) and on one time grid dt: their start postures (M, n-1, 3),
    needed to invert the velocity kinds, and their value matrices
    (M, 2*(n-1), L)."""

    kind: str
    reference: np.ndarray
    starts: np.ndarray
    values: np.ndarray
    dt: float

    def __post_init__(self):
        if self.kind not in FLATTEN_KINDS:
            raise KindMismatch(f"unknown flattening kind {self.kind!r}")
        k, m = self.reference.shape[0], len(self.values)
        if (self.reference.shape != (k, 3) or self.values.ndim != 3
                or self.values.shape[1] != 2 * k or np.shape(self.starts) != (m, k, 3)):
            raise DimensionMismatch(f"expected a ({k}, 3) reference, (M, {k}, 3) start postures "
                                    f"and (M, {2 * k}, L) values, got {self.reference.shape}, "
                                    f"{np.shape(self.starts)} and {self.values.shape}")

    def __len__(self):
        return len(self.values)

    @property
    def length(self) -> int:
        return int(self.values.shape[2])

    @property
    def frames(self) -> int:
        """The frame count of the encoded sequences: field_columns inverted."""
        return self.length if self.kind == "siem" else self.length + 1


def _check_sequence(seq, reference=None):
    """seq as a float (T, n-1, 3) sequence or (B, T, n-1, 3) block of
    sequences, T >= 2, whose frames match the reference's shape."""
    seq = np.asarray(seq, dtype=float)
    if seq.ndim not in (3, 4) or seq.shape[-3] < 2 or seq.shape[-1] != 3:
        raise DimensionMismatch("expected a (T, n-1, 3) sequence or a (B, T, n-1, 3) block "
                                f"with T >= 2, got {seq.shape}")
    if reference is not None and np.shape(reference) != seq.shape[-2:]:
        raise DimensionMismatch(f"reference {np.shape(reference)} does not match "
                                f"frames {seq.shape[-2:]}")
    return seq


def shooting_vectors(seq):
    """Discrete velocities: log of each frame at its predecessor, scaled
    by 1/dt.  Returns shape (T-1, n-1, 3), or (B, T-1, n-1, 3) for a
    block of B sequences."""
    seq = _check_sequence(seq)
    return geo.sphere_log(seq[..., :-1, :, :], seq[..., 1:, :, :]) * float(seq.shape[-3] - 1)


def transported_velocities(seq, reference):
    """Shooting vectors, each transported from its own frame straight to
    the reference posture: the columns of stvf and of the alignment's
    square-root velocity field.  Returns shape (T-1, n-1, 3), or
    (B, T-1, n-1, 3) for a block of B sequences."""
    seq = _check_sequence(seq, reference)
    return geo.sphere_transport(seq[..., :-1, :, :], reference, shooting_vectors(seq))


def flatten_sequence(seqs, reference, kind: str) -> FlatFields:
    """Encode a set of (T, n-1, 3) sequences (an (M, T, n-1, 3) array or a
    list) as fields of the given kind: the kind's tangent vectors, in
    coordinates at the reference posture and, for istvf, integrated over
    time.  A reference of None is the default chart: the intrinsic mean of
    every frame of the set.  Transport and the coordinate map are
    isometries, so stvf column norms equal the shooting-vector norms; siem
    rejects frames antipodal to the reference.  Sequences are encoded in
    blocks sized by geometry.BLOCK_BYTES, on the calling thread, into one
    array; every step acts element by element across a block, so each
    field keeps the bits of encoding its sequence alone."""
    if kind not in FLATTEN_KINDS:
        raise KindMismatch(f"unknown flattening kind {kind!r}")
    seqs = geo._check_set(seqs, 0, "sequences")
    if seqs.ndim != 4 or seqs.shape[1] < 2:
        raise DimensionMismatch(f"expected (M, T, n-1, 3) sequences with T >= 2, got {seqs.shape}")
    if reference is None:
        reference = geo.karcher_mean(seqs.reshape((-1,) + seqs.shape[2:]))
    reference = np.array(reference, dtype=float)
    _check_sequence(seqs, reference)
    t = seqs.shape[1]
    dt = grid_dt(t)
    values = np.empty((len(seqs), 2 * seqs.shape[2], field_columns(kind, t)))
    # about seven sequences' worth of temporaries per sequence of a block (6.8
    # by tracemalloc for stvf and istvf, numpy's buffers included, in blocks
    # of 2 to 64 50-frame, 5-bone sequences; siem and mtvf keep less)
    step = geo._block_items(7 * seqs[:1].nbytes)
    for lo in range(0, len(seqs), step):
        block, out = seqs[lo:lo + step], values[lo:lo + step]
        if kind == "siem":
            tangents = geo.sphere_log(reference, block)
        elif kind == "mtvf":
            tangents = shooting_vectors(block)
            # Walk the chain backwards, dragging every not-yet-finished column
            # down one hop per iteration so each numpy call stays batched.
            for s in range(t - 2, 0, -1):
                tangents[:, s:] = geo.sphere_transport(block[:, s, None], block[:, s - 1, None],
                                                       tangents[:, s:])
            tangents = geo.sphere_transport(block[:, :1], reference, tangents)
        else:
            tangents = transported_velocities(block, reference)
        coords = np.swapaxes(geo.tangent_coords(reference, tangents), 1, 2)
        if kind == "istvf":
            np.cumsum(coords, axis=2, out=out)
            out *= dt
        else:
            out[:] = coords
        del tangents, coords  # the next block's arrays take their place
    return FlatFields(kind, reference, seqs[:, 0].copy(), values, dt)


def unflatten_field(fields: FlatFields):
    """Decode a set of fields into an (M, T, n-1, 3) array.

    siem does not use the start postures.  Every step acts element by
    element across the set, so each decoded sequence equals decoding its
    field alone, bit for bit.  The velocity kinds grow all M sequences in
    one loop over the L columns: each column is turned into a step (istvf
    first differenced and divided by dt), transported from the reference
    to the newest frame, scaled by dt and exponentiated there.  Only one
    column of steps exists at a time.
    """
    reference, values, dt = fields.reference, fields.values, fields.dt
    if fields.kind == "siem":
        return geo.sphere_exp(reference, geo.coords_to_tangent(reference,
                                                               np.swapaxes(values, 1, 2)))
    out = np.empty((len(values), fields.frames) + reference.shape)
    out[:, 0] = fields.starts
    for t in range(values.shape[2]):
        coords = values[:, :, t]
        if fields.kind == "istvf":
            coords = (coords - values[:, :, t - 1] if t else coords) / dt
        step = geo.coords_to_tangent(reference, coords)
        v = geo.sphere_transport(reference, out[:, t], step)
        out[:, t + 1] = geo.sphere_exp(out[:, t], v * dt)
    return out
