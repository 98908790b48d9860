"""Line-delimited text formats for sequences, warps, fields and models.

Files hold blocks (`rawseq`, `postureseq`, `warps`, `flatfield`, `doc`),
each introduced by a header line naming its type and dimensions.  One
codec handles every float row: the writer fills one `%.17g` template per
row, which round-trips IEEE doubles bit-exactly, and the reader parses a
block's lines in one `np.loadtxt` call.  A block with no
entries (a length-0 vector, a (D, 0) matrix) has no payload lines.  Bad
headers, short files, ragged rows and non-numeric tokens raise
`DimensionMismatch` naming the file, as do non-finite posture or field
values and bones off the unit sphere (`UNIT_TOL`).  Files are read one
line at a time, so a reader holds one block's lines, not the file's.

Model-like objects (PCA bases, fitted models, emulator bundles) use a
generic tagged document: a `doc <type> <version>` header, then one entry
per line (`s`tring, `i`nt, `f`loat, `v`ector, `m`atrix, `x` none), closed
by `end`.  Vectors and matrices are followed by their payload lines.
Readers fetch entries with the tags they expect (`_Doc.entry`).
"""

from itertools import islice

import numpy as np

from .errors import DimensionMismatch, KindMismatch, ReferenceMismatch
from .flatten import FLATTEN_KINDS, FlatFields
from .skeleton import SkeletonHierarchy

# Largest | |bone| - 1 | a posture read from a file may show; the program's
# own writes stay within about 1e-15 of unit length.
UNIT_TOL = 1e-9


def fmt(x) -> str:
    return format(float(x), ".17g")


def _write_rows(fh, rows):
    """Write a 2-d array, one line of %.17g values per row; an array with
    no entries writes no lines."""
    rows = np.asarray(rows, dtype=float)
    if rows.size:
        line = " ".join(["%.17g"] * rows.shape[1]) + "\n"
        fh.writelines(line % tuple(row) for row in rows.tolist())


def _parse_rows(path, lines, rows, cols):
    """Parse lines of whitespace-separated floats into a (rows, cols) array."""
    if not (rows and cols):
        return np.zeros((rows, cols))
    what = f"{path}: expected {rows} rows of {cols} numbers"
    try:
        values = np.loadtxt(lines, dtype=float, ndmin=2, comments=None)
    except ValueError as exc:
        raise DimensionMismatch(f"{what}: {exc}") from None
    if values.shape != (rows, cols):
        raise DimensionMismatch(f"{what}, got shape {values.shape}")
    return values


def _first_bad(path, where, bad, what):
    if bad.any():
        raise DimensionMismatch(f"{path}: {where} {int(np.argmax(bad))}: {what}")


def _check_postures(path, where, postures):
    """Reject (R, k, 3) postures with a non-finite entry or a bone off the
    unit sphere, naming the first offending one of the R."""
    _first_bad(path, where, ~np.isfinite(postures).all(axis=(1, 2)), "non-finite value")
    off = np.abs(np.linalg.norm(postures, axis=-1) - 1.0) > UNIT_TOL
    _first_bad(path, where, off.any(axis=1), f"bone norm off 1 by more than {UNIT_TOL:g}")


def _nonempty_lines(path):
    with open(path) as fh:
        yield from (ln.rstrip("\n") for ln in fh if ln.strip())


class _Lines:
    """The non-empty lines of a file, read and consumed front to back, with
    one line of lookahead."""

    def __init__(self, path):
        self.path = str(path)
        self.lines = _nonempty_lines(path)
        self.ahead = list(islice(self.lines, 1))

    def left(self):
        return bool(self.ahead)

    def take(self, count):
        if not count:
            return []
        lines = self.ahead + list(islice(self.lines, count - 1))
        if len(lines) < count:
            raise DimensionMismatch(f"{self.path}: unexpected end of file")
        self.ahead = list(islice(self.lines, 1))
        return lines

    def head(self, tag, size=None):
        """Tokens after tag of the next line, which starts with tag and,
        when size is given, holds size tokens in all."""
        head = self.take(1)[0].split()
        if head[0] != tag or (size is not None and len(head) != size):
            raise DimensionMismatch(f"{self.path}: bad {tag} line")
        return head[1:]

    def block(self, rows, cols):
        """Parse the next rows x cols block; a block with no entries has no lines."""
        lines = self.take(rows if cols else 0)
        return _parse_rows(self.path, lines, rows, cols)


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
    src = _Lines(path)
    out = []
    hierarchy = None
    while src.left():
        n, t = (int(v) for v in src.head("rawseq", 3))
        h = SkeletonHierarchy(np.array([int(p) for p in src.head("parents", n + 1)]))
        if hierarchy is None:
            hierarchy = h
        elif not np.array_equal(h.parent, hierarchy.parent):
            raise DimensionMismatch(f"{path}: blocks disagree on hierarchy")
        out.append(src.block(t, 3 * n).reshape(t, n, 3))
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
    src = _Lines(path)
    out = []
    while src.left():
        n, t = (int(v) for v in src.head("postureseq", 3))
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
    src = _Lines(path)
    m, t = (int(v) for v in src.head("warps", 3))
    return src.block(m, t)


# a fields file's header entries, which every block shares with block 0
_FIELD_HEAD = (("kind", KindMismatch), ("landmark count", DimensionMismatch),
               ("column count", DimensionMismatch), ("dt", ReferenceMismatch))


def write_flatfields(path, fields: FlatFields):
    """Write a set of flattened fields, one block per field, each with the
    set's kind, dt and reference."""
    k = fields.reference.shape[0]
    head = (f"flatfield {fields.kind} {k + 1} {fields.length} {fmt(fields.dt)}\n"
            f"reference {' '.join(map(fmt, fields.reference.ravel()))}\nstart ")
    with open(path, "w") as fh:
        for start, values in zip(fields.starts, fields.values):
            fh.write(head)
            _write_rows(fh, start.reshape(1, 3 * k))
            _write_rows(fh, values)


def read_flatfields(path) -> FlatFields:
    """Read a set of flattened fields.  Every block must hold a start
    posture and agree with block 0 on kind (else KindMismatch), bones and
    columns (DimensionMismatch), dt and reference (ReferenceMismatch); the
    error names the field."""
    src = _Lines(path)
    heads, starts, values = [], [], []
    while src.left():
        i = len(heads)
        kind, n, cols, dt = src.head("flatfield", 5)
        if kind not in FLATTEN_KINDS:
            raise KindMismatch(f"{path}: unknown field kind {kind!r}")
        heads.append((kind, int(n), int(cols), float(dt)))
        for (name, error), mine, first in zip(_FIELD_HEAD, heads[-1], heads[0]):
            if mine != first:
                raise error(f"{path}: field {i} has {name} {mine!r}, field 0 {first!r}")
        k, cols = heads[0][1] - 1, heads[0][2]
        ref = _parse_rows(path, [" ".join(src.head("reference"))], 1, 3 * k).reshape(k, 3)
        _check_postures(path, f"block {i}, reference bone", ref[:, None])
        if not i:
            reference = ref
        elif not np.array_equal(ref, reference):
            raise ReferenceMismatch(f"{path}: field {i} has another reference than field 0")
        start = src.head("start")
        if start == ["none"]:
            raise DimensionMismatch(f"{path}: field {i} has no start posture")
        starts.append(_parse_rows(path, [" ".join(start)], 1, 3 * k).reshape(k, 3))
        _check_postures(path, f"block {i}, start bone", starts[-1][:, None])
        values.append(src.block(2 * k, cols))
        _first_bad(path, f"block {i}, values row", ~np.isfinite(values[-1]).all(axis=1),
                   "non-finite value")
    if not heads:
        raise DimensionMismatch(f"{path}: no fields found")
    return FlatFields(heads[0][0], reference, np.stack(starts), np.stack(values), heads[0][3])


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
                    arr = arr[None]
                elif arr.ndim == 2:
                    fh.write(f"m {name} {arr.shape[0]} {arr.shape[1]}\n")
                else:
                    raise DimensionMismatch(f"cannot serialize {name}: ndim {arr.ndim}")
                _write_rows(fh, arr)
        fh.write("end\n")


class _Doc(dict):
    """Document entries and their tags; a missing entry, or one whose tag
    entry() does not accept, raises DimensionMismatch naming it."""

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


def read_doc(path):
    """Read a tagged document; returns (doctype, version, dict name->value).
    A malformed line raises DimensionMismatch quoting it."""
    src = _Lines(path)
    doctype, version = src.head("doc", 3)
    out = _Doc(src.path)
    line = f"doc {doctype} {version}"
    try:
        version = int(version)
        while (line := src.take(1)[0]).strip() != "end":
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
            elif tag == "v":
                name, count = rest.split()
                out[name] = src.block(1, int(count))[0]
            elif tag == "m":
                name, rows, cols = rest.split()
                out[name] = src.block(int(rows), int(cols))
            else:
                raise DimensionMismatch(f"{path}: unknown tag {tag!r}")
            out.tags[name] = tag
    except ValueError as exc:
        raise DimensionMismatch(f"{src.path}: bad line {line!r}: {exc}") from None
    return doctype, version, out
