"""Line-delimited text formats for sequences, warps, fields and models.

All floats are written with 17 significant digits, which round-trips IEEE
doubles bit-exactly through float().  Files hold one or more blocks, each
introduced by a header line naming the block type and its dimensions.

Model-like objects (PCA bases, fitted models, emulator bundles) use a
generic tagged document: a `doc <type> <version>` header, then one entry
per line (`s`tring, `i`nt, `f`loat, `v`ector, `m`atrix, `x` none), closed
by `end`.  Vectors and matrices are followed by their payload lines.
"""

import numpy as np

from .errors import DimensionMismatch, KindMismatch
from .flatten import FLATTEN_KINDS, FlatField
from .skeleton import SkeletonHierarchy

# Largest | |bone| - 1 | a posture read from a file may show; the program's
# own writes stay within about 1e-15 of unit length.
UNIT_TOL = 1e-9


def fmt(x) -> str:
    return format(float(x), ".17g")


def _fmt_row(row):
    return " ".join(fmt(v) for v in row)


def _parse_row(line, count, path):
    parts = line.split()
    if len(parts) != count:
        raise DimensionMismatch(f"{path}: expected {count} numbers per line, got {len(parts)}")
    return np.array([float(p) for p in parts])


def _first_bad(path, where, bad, what):
    if bad.any():
        raise DimensionMismatch(f"{path}: {where} {int(np.argmax(bad))}: {what}")


def _check_postures(path, where, postures):
    """Reject (R, k, 3) postures with a non-finite entry or a bone off the
    unit sphere, naming the first offending one of the R."""
    _first_bad(path, where, ~np.isfinite(postures).all(axis=(1, 2)), "non-finite value")
    off = np.abs(np.linalg.norm(postures, axis=-1) - 1.0) > UNIT_TOL
    _first_bad(path, where, off.any(axis=1), f"bone norm off 1 by more than {UNIT_TOL:g}")


class _Lines:
    """Iterator over non-empty lines with a one-line pushback."""

    def __init__(self, path):
        self.path = str(path)
        with open(path) as fh:
            self.lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
        self.pos = 0

    def peek(self):
        return self.lines[self.pos] if self.pos < len(self.lines) else None

    def next(self):
        if self.pos >= len(self.lines):
            raise DimensionMismatch(f"{self.path}: unexpected end of file")
        line = self.lines[self.pos]
        self.pos += 1
        return line


def write_raw_sequences(path, frames_list, hierarchy: SkeletonHierarchy):
    """Write landmark-coordinate sequences sharing one hierarchy."""
    with open(path, "w") as fh:
        for frames in frames_list:
            frames = np.asarray(frames, dtype=float)
            t, n, _ = frames.shape
            fh.write(f"rawseq {n} {t}\n")
            fh.write("parents " + " ".join(str(int(p)) for p in hierarchy.parent) + "\n")
            for frame in frames:
                fh.write(_fmt_row(frame.ravel()) + "\n")


def read_raw_sequences(path):
    """Read landmark sequences; returns (list of (T, n, 3), hierarchy)."""
    src = _Lines(path)
    out = []
    hierarchy = None
    while src.peek() is not None:
        head = src.next().split()
        if head[0] != "rawseq" or len(head) != 3:
            raise DimensionMismatch(f"{path}: bad raw sequence header")
        n, t = int(head[1]), int(head[2])
        parents = src.next().split()
        if parents[0] != "parents" or len(parents) != n + 1:
            raise DimensionMismatch(f"{path}: bad parents line")
        h = SkeletonHierarchy(np.array([int(p) for p in parents[1:]]))
        if hierarchy is None:
            hierarchy = h
        elif not np.array_equal(h.parent, hierarchy.parent):
            raise DimensionMismatch(f"{path}: blocks disagree on hierarchy")
        frames = np.stack([_parse_row(src.next(), 3 * n, path).reshape(n, 3) for _ in range(t)])
        out.append(frames)
    if hierarchy is None:
        raise DimensionMismatch(f"{path}: no sequences found")
    return out, hierarchy


def write_posture_sequences(path, seqs):
    """Write posture sequences, one block per sequence."""
    with open(path, "w") as fh:
        for seq in seqs:
            seq = np.asarray(seq, dtype=float)
            t, k, _ = seq.shape
            fh.write(f"postureseq {k + 1} {t}\n")
            for frame in seq:
                fh.write(_fmt_row(frame.ravel()) + "\n")


def read_posture_sequences(path):
    """Read posture sequences; returns a list of (T, n-1, 3) arrays."""
    src = _Lines(path)
    out = []
    while src.peek() is not None:
        head = src.next().split()
        if head[0] != "postureseq" or len(head) != 3:
            raise DimensionMismatch(f"{path}: bad posture sequence header")
        n, t = int(head[1]), int(head[2])
        k = n - 1
        seq = np.stack([_parse_row(src.next(), 3 * k, path).reshape(k, 3) for _ in range(t)])
        _check_postures(path, f"block {len(out)}, row", seq)
        out.append(seq)
    if not out:
        raise DimensionMismatch(f"{path}: no sequences found")
    return out


def write_warps(path, warps):
    """Write time-warp sample arrays, one block for the whole set."""
    warps = [np.asarray(w, dtype=float) for w in warps]
    t = warps[0].shape[0]
    with open(path, "w") as fh:
        fh.write(f"warps {len(warps)} {t}\n")
        for w in warps:
            if w.shape != (t,):
                raise DimensionMismatch("warps in one file must share their sample count")
            fh.write(_fmt_row(w) + "\n")


def read_warps(path):
    src = _Lines(path)
    head = src.next().split()
    if head[0] != "warps" or len(head) != 3:
        raise DimensionMismatch(f"{path}: bad warps header")
    m, t = int(head[1]), int(head[2])
    return [_parse_row(src.next(), t, path) for _ in range(m)]


def write_flatfields(path, fields):
    """Write flattened fields, one block per field."""
    with open(path, "w") as fh:
        for field in fields:
            k = field.reference.shape[0]
            rows, cols = field.values.shape
            fh.write(f"flatfield {field.kind} {k + 1} {cols} {fmt(field.dt)}\n")
            fh.write("reference " + _fmt_row(field.reference.ravel()) + "\n")
            if field.start is None:
                fh.write("start none\n")
            else:
                fh.write("start " + _fmt_row(field.start.ravel()) + "\n")
            for row in field.values:
                fh.write(_fmt_row(row) + "\n")


def read_flatfields(path):
    src = _Lines(path)
    out = []
    while src.peek() is not None:
        head = src.next().split()
        if head[0] != "flatfield" or len(head) != 5:
            raise DimensionMismatch(f"{path}: bad flat field header")
        kind, n, cols, dt = head[1], int(head[2]), int(head[3]), float(head[4])
        if kind not in FLATTEN_KINDS:
            raise KindMismatch(f"{path}: unknown field kind {kind!r}")
        k = n - 1
        ref_line = src.next().split(maxsplit=1)
        if ref_line[0] != "reference":
            raise DimensionMismatch(f"{path}: missing reference line")
        reference = _parse_row(ref_line[1], 3 * k, path).reshape(k, 3)
        start_line = src.next().split(maxsplit=1)
        if start_line[0] != "start":
            raise DimensionMismatch(f"{path}: missing start line")
        start = None if start_line[1].strip() == "none" else _parse_row(start_line[1], 3 * k, path).reshape(k, 3)
        values = np.stack([_parse_row(src.next(), cols, path) for _ in range(2 * k)])
        block = f"block {len(out)},"
        _check_postures(path, f"{block} reference bone", reference[:, None])
        if start is not None:
            _check_postures(path, f"{block} start bone", start[:, None])
        _first_bad(path, f"{block} values row", ~np.isfinite(values).all(axis=1),
                   "non-finite value")
        out.append(FlatField(kind=kind, reference=reference, start=start, values=values, dt=dt))
    if not out:
        raise DimensionMismatch(f"{path}: no fields found")
    return out


def write_doc(path, doctype: str, version: int, items):
    """Write a tagged document.  items is a list of (name, value) pairs;
    the tag is inferred from the value's type (None, str, int, float,
    1-d array, 2-d array)."""
    with open(path, "w") as fh:
        fh.write(f"doc {doctype} {version}\n")
        for name, value in items:
            if value is None:
                fh.write(f"x {name} none\n")
            elif isinstance(value, str):
                fh.write(f"s {name} {value}\n")
            elif isinstance(value, (int, np.integer)):
                fh.write(f"i {name} {int(value)}\n")
            elif isinstance(value, (float, np.floating)):
                fh.write(f"f {name} {fmt(value)}\n")
            else:
                arr = np.asarray(value, dtype=float)
                if arr.ndim == 1:
                    fh.write(f"v {name} {arr.shape[0]}\n")
                    fh.write(_fmt_row(arr) + "\n")
                elif arr.ndim == 2:
                    fh.write(f"m {name} {arr.shape[0]} {arr.shape[1]}\n")
                    for row in arr:
                        fh.write(_fmt_row(row) + "\n")
                else:
                    raise DimensionMismatch(f"cannot serialize {name}: ndim {arr.ndim}")
        fh.write("end\n")


def read_doc(path):
    """Read a tagged document; returns (doctype, version, dict name->value)."""
    src = _Lines(path)
    head = src.next().split()
    if head[0] != "doc" or len(head) != 3:
        raise DimensionMismatch(f"{path}: bad document header")
    doctype, version = head[1], int(head[2])
    out = {}
    while True:
        line = src.next()
        if line.strip() == "end":
            break
        tag, rest = line.split(maxsplit=1)
        if tag == "x":
            name, _ = rest.split(maxsplit=1)
            out[name] = None
        elif tag == "s":
            parts = rest.split(maxsplit=1)
            out[parts[0]] = parts[1] if len(parts) > 1 else ""
        elif tag == "i":
            name, value = rest.split()
            out[name] = int(value)
        elif tag == "f":
            name, value = rest.split()
            out[name] = float(value)
        elif tag == "v":
            name, count = rest.split()
            out[name] = _parse_row(src.next(), int(count), path)
        elif tag == "m":
            name, rows, cols = rest.split()
            out[name] = np.stack([_parse_row(src.next(), int(cols), path) for _ in range(int(rows))]) \
                if int(rows) else np.zeros((0, int(cols)))
        else:
            raise DimensionMismatch(f"{path}: unknown tag {tag!r}")
    return doctype, version, out
