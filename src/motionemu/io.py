"""Line-delimited text formats for sequences, warps, fields and models.

Files hold blocks (`rawseq`, `postureseq`, `warps`, `doc`), each opened
by a header line naming its type and sizes.  One codec handles every
float row: the writer formats one line per row with one `%.17g` template,
which round-trips IEEE doubles bit-exactly, and the reader hands each
block's lines to one `np.loadtxt` as it reads them from the open file.
Bad headers, short files, ragged rows and non-numeric tokens raise
`DimensionMismatch` naming the file, as do non-finite values and bones
off the unit sphere (`UNIT_TOL`).

Fields, reductions and bundles are tagged documents: a `doc <type>
<version>` header, one entry per line (`s`tring, `i`nt, `f`loat, `x`
none, `a`rray) and `end`.  An array entry `a NAME d0 ... dk` is followed
by d0*...*d(k-1) rows of dk values, none when a dimension is 0.  Readers
fetch entries with the tags and ranks they expect (`_Doc.entry`,
`_Doc.array`).
"""

import math
import os
from itertools import chain, islice

import numpy as np

from .errors import DimensionMismatch, MotionError
from .flatten import FlatFields, grid_dt
from .skeleton import SkeletonHierarchy

# Largest | |bone| - 1 | a posture read from a file may show; the program's
# own writes stay within about 1e-15 of unit length.
UNIT_TOL = 1e-9


def fmt(x) -> str:
    return format(float(x), ".17g")


def _write_rows(fh, rows):
    """Write an array of rank 1 or more, one line of %.17g values per
    vector along its last axis; an array with no entries writes no lines."""
    rows = np.asarray(rows, dtype=float)
    if rows.size:
        line = " ".join(["%.17g"] * rows.shape[-1]) + "\n"
        fh.writelines(line % tuple(row)
                      for row in map(np.ndarray.tolist, rows.reshape(-1, rows.shape[-1])))


def _first_bad(path, where, bad, what):
    if bad.any():
        raise DimensionMismatch(f"{path}: {where} {int(np.argmax(bad))}: {what}")


def _non_finite(path, where, values):
    """Reject (R, a, b) values with a non-finite entry, naming the first of the R."""
    _first_bad(path, where, ~np.isfinite(values).all(axis=(1, 2)), "non-finite value")


def _check_postures(path, where, postures):
    """Reject (R, k, 3) postures with a non-finite entry or a bone off the
    unit sphere, naming the first offending one of the R."""
    _non_finite(path, where, postures)
    off = np.abs(np.linalg.norm(postures, axis=-1) - 1.0) > UNIT_TOL
    _first_bad(path, where, off.any(axis=1), f"bone norm off 1 by more than {UNIT_TOL:g}")


class _Lines:
    """The non-empty lines of an open file, consumed front to back."""

    def __init__(self, fh):
        self.path = fh.name
        self.size = os.fstat(fh.fileno()).st_size
        self.lines = (ln.rstrip("\n") for ln in fh if ln.strip())

    def next(self):
        line = next(self.lines, None)
        if line is None:
            raise DimensionMismatch(f"{self.path}: unexpected end of file")
        return line

    def end(self, after):
        """Refuse a non-empty line left after the last thing read."""
        line = next(self.lines, None)
        if line is not None:
            raise DimensionMismatch(f"{self.path}: line {line!r} after {after}")

    def head(self, line, tag, *least):
        """The sizes after tag on a header line: integers, one per entry of
        least and none below it; another line raises DimensionMismatch
        quoting it."""
        head = line.split()
        try:
            sizes = [int(v) for v in head[1:]]
        except ValueError:
            sizes = None
        if (sizes is None or head[0] != tag or len(sizes) != len(least)
                or any(s < lo for s, lo in zip(sizes, least))):
            raise DimensionMismatch(f"{self.path}: bad {tag} line {line!r}")
        return sizes

    def block(self, rows, cols):
        """Parse the next rows x cols block with one np.loadtxt over its
        lines; a block with no entries has no lines."""
        if rows * cols > self.size:  # every number takes a byte at least
            raise DimensionMismatch(f"{self.path}: unexpected end of file")
        if not rows * cols:
            return np.empty((rows, cols))
        # a first line is taken here, as np.loadtxt warns on no lines
        lines = chain([self.next()], islice(self.lines, rows - 1))
        what = f"{self.path}: expected {rows} rows of {cols} numbers"
        try:
            out = np.loadtxt(lines, dtype=float, ndmin=2, comments=None)
        except ValueError as exc:
            raise DimensionMismatch(f"{what}: {exc}") from None
        if len(out) < rows:
            raise DimensionMismatch(f"{self.path}: unexpected end of file")
        if out.shape != (rows, cols):
            raise DimensionMismatch(f"{what}, got shape {out.shape}")
        return out


def write_raw_sequences(path, frames_list, hierarchy: SkeletonHierarchy):
    """Write landmark-coordinate sequences sharing one hierarchy."""
    with open(path, "w") as fh:
        for frames in frames_list:
            frames = np.asarray(frames, dtype=float)
            t, n, _ = frames.shape
            fh.write(f"rawseq {n} {t}\n")
            fh.write("parents " + " ".join(str(int(p)) for p in hierarchy.parent) + "\n")
            _write_rows(fh, frames.reshape(t, 3 * n))


def read_raw_sequences(path):
    """Read landmark sequences; returns (list of (T, n, 3), hierarchy)."""
    out, hierarchy = [], None
    with open(path) as fh:
        src = _Lines(fh)
        for line in src.lines:
            n, t = src.head(line, "rawseq", 0, 0)
            parents = src.head(src.next(), "parents", *[-math.inf] * n)
            try:
                h = SkeletonHierarchy(np.array(parents))
            except DimensionMismatch as exc:
                raise DimensionMismatch(f"{path}: block {len(out)}: {exc}") from None
            if hierarchy is None:
                hierarchy = h
            elif not np.array_equal(h.parent, hierarchy.parent):
                raise DimensionMismatch(f"{path}: blocks disagree on hierarchy")
            out.append(src.block(t, 3 * n).reshape(t, n, 3))
            _non_finite(path, f"block {len(out) - 1}, row", out[-1])
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
            _write_rows(fh, seq.reshape(t, 3 * k))


def read_posture_sequences(path):
    """Read posture sequences; returns a list of (T, n-1, 3) arrays."""
    out = []
    with open(path) as fh:
        src = _Lines(fh)
        for line in src.lines:
            n, t = src.head(line, "postureseq", 1, 0)
            seq = src.block(t, 3 * (n - 1)).reshape(t, n - 1, 3)
            _check_postures(path, f"block {len(out)}, row", seq)
            out.append(seq)
    if not out:
        raise DimensionMismatch(f"{path}: no sequences found")
    return out


def write_warps(path, warps):
    """Write time-warp sample arrays, one block for the whole set."""
    t = len(warps[0])
    if any(np.shape(w) != (t,) for w in warps):
        raise DimensionMismatch("warps in one file must share their sample count")
    with open(path, "w") as fh:
        fh.write(f"warps {len(warps)} {t}\n")
        _write_rows(fh, warps)


def read_warps(path):
    """Read a set of warps as one (M, T) array."""
    with open(path) as fh:
        src = _Lines(fh)
        m, t = src.head(src.next(), "warps", 0, 0)
        warps = src.block(m, t)
        src.end(f"the {m} warps of its header")
    return warps


def write_flatfields(path, fields: FlatFields):
    """Write a set of flattened fields as one document."""
    write_doc(path, "flatfields", 1, [
        ("kind", fields.kind), ("dt", float(fields.dt)), ("reference", fields.reference),
        ("starts", fields.starts), ("values", fields.values)])


def read_flatfields(path) -> FlatFields:
    """Read a set of flattened fields.  Non-finite values and bones off the
    unit sphere are refused naming the field (or the reference bone), and
    an unknown kind, arrays of disagreeing shapes or a dt off the values'
    time grid naming the file."""
    doctype, version, doc = read_doc(path)
    if (doctype, version) != ("flatfields", 1):
        raise DimensionMismatch(f"{path}: not a version-1 flatfields document")
    reference, starts = doc.array("reference", 2), doc.array("starts", 3)
    values = doc.array("values", 3)
    try:
        fields = FlatFields(doc.entry("kind", "s"), reference, starts, values,
                            doc.entry("dt", "f"))
        if fields.dt != grid_dt(fields.frames):
            raise DimensionMismatch(f"entry 'dt' = {fields.dt!r} is off the {fields.frames}-frame "
                                    f"grid of {fields.kind} entry 'values' {values.shape}")
    except MotionError as exc:
        raise type(exc)(f"{path}: {exc}") from None
    _check_postures(path, "reference bone", reference[:, None])
    _check_postures(path, "start posture of field", starts)
    _non_finite(path, "values of field", values)
    return fields


def write_doc(path, doctype: str, version: int, items):
    """Write a tagged document.  items is a list of (name, value) pairs;
    the tag is inferred from the value's type (None, str, int, float,
    array of rank 1 or more)."""
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
                if not arr.ndim:
                    raise DimensionMismatch(f"cannot serialize {name}: ndim 0")
                fh.write(f"a {name} {' '.join(map(str, arr.shape))}\n")
                _write_rows(fh, arr)
        fh.write("end\n")


class _Doc(dict):
    """Document entries and their tags; a missing entry, or one whose tag
    or rank entry() or array() does not accept, raises DimensionMismatch
    naming it."""

    def __init__(self, path):
        super().__init__()
        self.path = path
        self.tags = {}

    def __missing__(self, name):
        raise DimensionMismatch(f"{self.path}: missing entry {name!r}")

    def entry(self, name, tags):
        """The value of an entry whose tag is one of the letters in tags."""
        value = self[name]
        if self.tags[name] not in tags:
            raise DimensionMismatch(f"{self.path}: entry {name!r} is tagged "
                                    f"{self.tags[name]!r}, expected one of {tags!r}")
        return value

    def array(self, name, ndim):
        """The value of an array entry with ndim axes."""
        value, tag = self[name], self.tags[name]
        if tag != "a" or value.ndim != ndim:
            raise DimensionMismatch(f"{self.path}: entry {name!r} is tagged {tag!r} with "
                                    f"shape {np.shape(value)}, expected an array of rank {ndim}")
        return value


def read_doc(path):
    """Read a tagged document; returns (doctype, version, dict name->value).
    A malformed line raises DimensionMismatch quoting it."""
    with open(path) as fh:
        src = _Lines(fh)
        out = _Doc(src.path)
        line = src.next()
        try:
            tag, doctype, version = line.split()
            if tag != "doc":
                raise ValueError("not a doc header")
            version = int(version)
            while (line := src.next()).strip() != "end":
                tag, rest = line.split(maxsplit=1)
                if tag == "x":
                    name, _ = rest.split(maxsplit=1)
                    out[name] = None
                elif tag == "s":
                    name, *value = rest.split(maxsplit=1)
                    out[name] = value[0] if value else ""
                elif tag == "i":
                    name, value = rest.split()
                    out[name] = int(value)
                elif tag == "f":
                    name, value = rest.split()
                    out[name] = float(value)
                elif tag == "a":
                    name, *dims = rest.split()
                    shape = [int(d) for d in dims]
                    if not shape or min(shape) < 0:
                        raise ValueError("an array needs one or more dimensions, none negative")
                    out[name] = src.block(math.prod(shape[:-1]), shape[-1]).reshape(shape)
                else:
                    raise ValueError(f"unknown tag {tag!r}")
                out.tags[name] = tag
        except ValueError as exc:
            raise DimensionMismatch(f"{src.path}: bad line {line!r}: {exc}") from None
        src.end("end")
    return doctype, version, out
