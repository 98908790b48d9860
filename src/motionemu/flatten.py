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

``flatten_sequence`` encodes every kind; ``unflatten_field`` decodes one
field and ``unflatten_batch`` many fields of one kind at once.  Velocity
columns are scaled by 1/dt = T-1; decoding scales them back by the
field's dt before exponentiating.
"""

from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from .errors import DimensionMismatch, KindMismatch

FLATTEN_KINDS = ("stvf", "istvf", "siem", "mtvf")
VELOCITY_KINDS = ("stvf", "istvf", "mtvf")


@dataclass
class FlatField:
    """A flattened sequence: kind tag, reference posture, start posture
    (needed to invert the velocity kinds), value matrix of shape
    (2*(n-1), L) and grid spacing dt."""

    kind: str
    reference: np.ndarray
    start: np.ndarray | None
    values: np.ndarray
    dt: float

    def __post_init__(self):
        if self.kind not in FLATTEN_KINDS:
            raise KindMismatch(f"unknown flattening kind {self.kind!r}")
        k = self.reference.shape[0]
        if self.values.ndim != 2 or self.values.shape[0] != 2 * k:
            raise DimensionMismatch(
                f"values must have {2 * k} rows for {k} bones, got {self.values.shape}")

    @property
    def length(self) -> int:
        return int(self.values.shape[1])


def _check_sequence(seq, reference=None):
    seq = geo._check_postures(seq, least=2)
    if reference is not None and np.shape(reference) != seq.shape[1:]:
        raise DimensionMismatch(f"reference {np.shape(reference)} does not match "
                                f"frames {seq.shape[1:]}")
    return seq


def shooting_vectors(seq):
    """Discrete velocities: log of each frame at its predecessor, scaled
    by 1/dt.  Returns shape (T-1, n-1, 3)."""
    seq = _check_sequence(seq)
    return geo.sphere_log(seq[:-1], seq[1:]) * float(seq.shape[0] - 1)


def transported_velocities(seq, reference):
    """Shooting vectors, each transported from its own frame straight to
    the reference posture: the columns of stvf and of the alignment's
    square-root velocity field.  Returns shape (T-1, n-1, 3)."""
    seq = _check_sequence(seq, reference)
    return geo.sphere_transport(seq[:-1], reference, shooting_vectors(seq))


def flatten_sequence(seq, reference, kind: str) -> FlatField:
    """Encode a (T, n-1, 3) sequence as a field of the given kind: the
    kind's tangent vectors, in coordinates at the reference posture and,
    for istvf, integrated over time.  Transport and the coordinate map are
    isometries, so stvf column norms equal the shooting-vector norms;
    siem rejects frames antipodal to the reference."""
    if kind not in FLATTEN_KINDS:
        raise KindMismatch(f"unknown flattening kind {kind!r}")
    seq = _check_sequence(seq, reference)
    reference = np.asarray(reference, dtype=float)
    dt = 1.0 / (seq.shape[0] - 1)
    if kind == "siem":
        tangents = geo.sphere_log(reference, seq)
    elif kind == "mtvf":
        tangents = shooting_vectors(seq)
        # Walk the chain backwards, dragging every not-yet-finished column
        # down one hop per iteration so each numpy call stays batched.
        for s in range(seq.shape[0] - 2, 0, -1):
            tangents[s:] = geo.sphere_transport(seq[s], seq[s - 1], tangents[s:])
        tangents = geo.sphere_transport(seq[0], reference, tangents)
    else:
        tangents = transported_velocities(seq, reference)
    values = geo.tangent_coords(reference, tangents).T.copy()
    if kind == "istvf":
        values = np.cumsum(values, axis=1) * dt
    return FlatField(kind, reference.copy(), seq[0].copy(), values, dt)


def unflatten_batch(kind: str, reference, starts, values, dt: float):
    """Decode N fields that share their kind, reference and dt at once.

    values has shape (N, 2*(n-1), L) and starts (N, n-1, 3); siem does not
    use starts, which may then be None.  Returns shape (N, T, n-1, 3).
    Every step acts element by element across the batch, so each decoded
    sequence equals decoding its field alone, bit for bit.  The velocity
    kinds grow all N sequences in one loop over the L columns: each column
    is turned into a step (istvf first differenced and divided by dt),
    transported from the reference to the newest frame, scaled by dt and
    exponentiated there.  Only one column of steps exists at a time.
    """
    if kind not in FLATTEN_KINDS:
        raise KindMismatch(f"unknown flattening kind {kind!r}")
    reference = np.asarray(reference, dtype=float)
    values = np.asarray(values, dtype=float)
    if values.ndim != 3:
        raise DimensionMismatch(f"expected (N, 2*(n-1), L) values, got {values.shape}")
    if kind == "siem":
        return geo.sphere_exp(reference, geo.coords_to_tangent(reference,
                                                               np.swapaxes(values, 1, 2)))
    if starts is None:
        raise DimensionMismatch(f"{kind} field is missing its start posture")
    starts = np.asarray(starts, dtype=float)
    if starts.shape != (values.shape[0],) + reference.shape:
        raise DimensionMismatch(f"starts {starts.shape} do not match {values.shape[0]} fields "
                                f"of {reference.shape[0]} bones")
    out = np.empty((values.shape[0], values.shape[2] + 1) + reference.shape)
    out[:, 0] = starts
    for t in range(values.shape[2]):
        coords = values[:, :, t]
        if kind == "istvf":
            coords = (coords - values[:, :, t - 1] if t else coords) / dt
        step = geo.coords_to_tangent(reference, coords)
        v = geo.sphere_transport(reference, out[:, t], step)
        out[:, t + 1] = geo.sphere_exp(out[:, t], v * dt)
    return out


def unflatten_field(field: FlatField):
    """Decode one field of any kind: the one-field case of unflatten_batch."""
    starts = None if field.start is None else field.start[None]
    return unflatten_batch(field.kind, field.reference, starts, field.values[None],
                           field.dt)[0]
