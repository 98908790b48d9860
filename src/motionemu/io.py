"""Line-delimited text formats for sequences, warps, fields and models.

Files hold blocks (`rawseq`, `postureseq`, `warps`, `doc`), each opened
by a header line naming its type and sizes.  One codec handles every
float row.  The writer's bytes equal `'%.17g' % v` for every value, which
round-trips IEEE doubles bit-exactly: numpy computes the digits of zeros
and of 1e-4 <= |v| < 1e16 (the range `%.17g` prints positionally) exactly,
with Dekker's two-product, and `'%.17g' % v` itself formats the rest (nan,
inf, subnormals, smaller and larger magnitudes).  It writes blocks of
values as it formats them.  The reader hands each block's lines to one
`np.loadtxt` as it reads them from the open file.
Bad headers, short files, ragged rows and non-numeric tokens raise
`DimensionMismatch` naming the file, as does a non-finite number in any
block or `f` entry; `_check_postures` refuses bones of other than three
coordinates or off the unit sphere (`UNIT_TOL`) in every posture entry.

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

from .alignment import check_warp
from .errors import DimensionMismatch, MotionError
from .flatten import FlatFields, grid_dt
from .skeleton import SkeletonHierarchy

# Largest | |bone| - 1 | a posture read from a file may show; the program's
# own writes stay within about 1e-15 of unit length.
UNIT_TOL = 1e-9


def fmt(x) -> str:
    return format(float(x), ".17g")


# ---- the row writer: Python's own '%.17g' digits, computed with numpy ------
#
# Each value gets a row of _W bytes, first Z = "0000000", its 17 significant
# digits D (D[0] in column 7) and a zero pad.  '%.17g' prints a value of
# exponent k in -4..15 as Z[7 + min(k, 0):8 + k], then '.' and the fraction
# Z[8 + k:24 - trailing zeros] when that is not empty.  So column c of the
# token row takes Z[c] left of the point and Z[c - 1] right of it (the 0/1
# masks _LEFT and _RIGHT, per k and trailing zeros); the sign, the point and
# the separator are written into their columns, every other byte is zero,
# and the block's bytes drop the zeros.
_W = 28
_POW10 = np.array([float(10 ** p) for p in range(23)])  # exact doubles
_SPLIT = 2.0 ** 27 + 1  # Veltkamp's splitter: 26 + 26 bits, sign bit spare
_POW10_HI = _SPLIT * _POW10 - (_SPLIT * _POW10 - _POW10)
_POW10_LO = _POW10 - _POW10_HI


def _four_digits():
    """The 4 ASCII digits of each of 0..9999 as one word, and their trailing
    zeros.  Built by broadcast copies alone: other numpy kernels touched at
    import would stay in every command's resident memory."""
    digits = np.empty((10,) * 4 + (4,), np.uint8)  # [thousands, hundreds, tens, ones, position]
    ascii = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    for j in range(4):
        digits[..., j] = ascii[(slice(None),) + (None,) * (3 - j)]
    zeros = np.zeros((10,) * 4, np.int8)
    for j in range(1, 5):
        zeros[(...,) + (0,) * j] += 1
    return digits.view(np.uint32).ravel(), zeros.ravel()


_DIGITS4, _ZEROS4 = _four_digits()


def _digit_masks():
    """Row (k + 4) * 17 + trailing zeros: the token row's integer digits and
    its fraction digits, as 0/1 bytes."""
    left, right = np.zeros((2, 20, 17, _W), np.uint8)
    for k in range(-4, 16):
        left[k + 4, :, 7 + min(k, 0):8 + k] = 1
        for tz in range(17):
            right[k + 4, tz, 9 + k:25 - tz] = 1
    return left.reshape(-1, _W), right.reshape(-1, _W)


_LEFT, _RIGHT = _digit_masks()
# Bytes each value keeps live while its block is formatted (tracemalloc
# reads 250-265); a block holds 384 KiB of them.
_LIVE_BYTES = 256
_BLOCK = 384 * 1024 // _LIVE_BYTES


def _scaled(a, k):
    """round(a * 10**(16 - k)), half to even, exactly: Dekker's two-product
    hi + lo of a and the power; where hi >= 2**53 it is an even integer, so
    rint(lo) rounds the sum."""
    p = 16 - k
    b, bh, bl = (table.take(p, mode="clip") for table in (_POW10, _POW10_HI, _POW10_LO))
    hi = a * b
    ah = _SPLIT * a
    ah -= ah - a
    al = a - ah
    lo = ((ah * bh - hi) + ah * bl + al * bh) + al * bl
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _digits(a):
    """(k, d, bad) for doubles 1e-4 <= a < 1e16: d in [1e16, 1e17) holds the
    17 significant digits of a and k its decimal exponent, except at the
    indices bad.  k starts at floor(log10 a), which is one off at most;
    where d falls outside the range, k moves one step towards it, which also
    takes a 17th digit that rounded up into an 18th."""
    k = np.floor(np.log10(a)).astype(np.intp)
    d = _scaled(a, k)
    off = np.flatnonzero((d < 10 ** 16) | (d >= 10 ** 17))
    if off.size:
        k[off] += np.where(d[off] < 10 ** 16, -1, 1)
        d[off] = _scaled(a[off], k[off])
        ko, do = k[off], d[off]
        off = off[(do < 10 ** 16) | (do >= 10 ** 17) | (ko < -4) | (ko > 15)]
    return k, d, off


def _format_block(v, sep):
    """The bytes of '%.17g' % x, then its byte of sep, for each x of the
    float64 vector v."""
    n = len(v)
    a = np.abs(v)
    fast = (a >= 1e-4) & (a < 1e16)
    k, d, bad = _digits(np.where(fast, a, 1.0))  # zeros and the slow go as 1.0
    fast[bad] = False
    slow = np.flatnonzero(~fast)
    zero, slow = slow[v[slow] == 0], slow[v[slow] != 0]
    k[slow], d[slow] = 0, 10 ** 16
    hi, lo = np.divmod(d, 10 ** 8)
    first, hi = np.divmod(hi.astype(np.int32), 10 ** 8)
    groups = [first, *np.divmod(hi, 10 ** 4), *np.divmod(lo.astype(np.int32), 10 ** 4)]
    tz = _ZEROS4[groups[4]]
    rows = np.flatnonzero(groups[4] == 0)
    for g in groups[3:0:-1]:
        tz[rows] += _ZEROS4[g[rows]]
        rows = rows[g[rows] == 0]
    raw = np.empty(4 + n * _W, np.uint8)  # raw[3] is read for column -1, never kept
    z = raw[4:].view(np.uint32).reshape(n, _W // 4)
    z[:, 0], z[:, 6] = _DIGITS4[0], 0
    for j, g in enumerate(groups):
        z[:, 1 + j] = _DIGITS4[g]
    combo = (k + 4) * 17 + tz
    out = _LEFT.take(combo, axis=0).reshape(-1)
    out *= raw[4:]
    shifted = _RIGHT.take(combo, axis=0).reshape(-1)
    shifted *= raw[3:-1]
    out += shifted
    base = np.arange(0, n * _W, _W)
    lead, point, end = base + 7 + np.minimum(k, 0), base + 8 + k, base + 24 - tz
    out[lead - 1] = np.signbit(v).view(np.uint8) * ord("-")
    out[point] = ord(".")
    out[base[zero] + 7] = ord("0")  # zeros went as 1.0
    sep_at = np.where(end > point, end + 1, point)
    for i in slow:
        token = ("%.17g" % v[i]).encode()
        out[base[i]:base[i] + _W] = 0
        out[base[i]:base[i] + len(token)] = np.frombuffer(token, np.uint8)
        sep_at[i] = base[i] + len(token)
    out[sep_at] = sep
    return out.tobytes().translate(None, b"\0")


def _write_rows(fh, rows):
    """Write an array of rank 1 or more, one line per vector along its last
    axis, each value as the bytes of '%.17g' % value, separated by spaces;
    an array with no entries writes no lines.  Zeros and values with 1e-4
    <= |v| < 1e16, which '%.17g' prints positionally, are formatted by
    numpy in blocks of _BLOCK values; every other value (nan, inf,
    subnormals, smaller and larger magnitudes) goes through '%.17g'
    itself.  Each block is written as soon as it is formatted."""
    rows = np.asarray(rows, dtype=float)
    if rows.size:
        cols = rows.shape[-1]
        flat = rows.reshape(-1)
        sep = np.full(_BLOCK + cols, ord(" "), np.uint8)
        sep[cols - 1::cols] = ord("\n")
        for start in range(0, flat.size, _BLOCK):
            block = flat[start:start + _BLOCK]
            fh.write(_format_block(block, sep[start % cols:][:len(block)]).decode("ascii"))


def _first_bad(path, where, bad, what):
    if bad.any():
        raise DimensionMismatch(f"{path}: {where} {int(np.argmax(bad))}: {what}")


def _check_postures(path, where, postures):
    """Reject (R, k, 3) postures with other than three coordinates per bone,
    or with a bone off the unit sphere, naming the first offending one of the R."""
    if postures.shape[-1] != 3:
        raise DimensionMismatch(f"{path}: {where.partition(',')[0]} holds "
                                f"{postures.shape[-1]} coordinates per bone, not 3")
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

    def block(self, rows, cols, where):
        """Parse the next rows x cols block with one np.loadtxt over its
        lines; a block with no entries has no lines.  A row holding a
        non-finite number is refused as `where` and its index."""
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
        _first_bad(self.path, where, ~np.isfinite(out).all(axis=1), "non-finite value")
        return out


def _refuse_empty(path, items, what):
    """Refuse to write a set with no members, which its reader would refuse."""
    if not len(items):
        raise DimensionMismatch(f"{path}: no {what} to write")


def _refuse_shapes(path, seqs, landmarks=None):
    """Refuse, before the file is opened, a set its reader refuses by shape:
    no members, or one not (T >= 1, k >= 1, 3) (k = landmarks when given)."""
    _refuse_empty(path, seqs, "sequences")
    for i, seq in enumerate(seqs):
        shape = np.shape(seq)
        if len(shape) != 3 or min(shape) < 1 or shape[2] != 3 or landmarks not in (None, shape[1]):
            want = "(T >= 1, k >= 1, 3)" if landmarks is None else f"(T >= 1, {landmarks}, 3)"
            raise DimensionMismatch(f"{path}: sequence {i} has shape {shape}, expected {want}")


def write_raw_sequences(path, frames_list, hierarchy: SkeletonHierarchy):
    """Write landmark-coordinate sequences sharing one hierarchy."""
    _refuse_shapes(path, frames_list, hierarchy.n)
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
            n, t = src.head(line, "rawseq", 0, 1)
            parents = src.head(src.next(), "parents", *[-math.inf] * n)
            try:
                h = SkeletonHierarchy(np.array(parents))
            except DimensionMismatch as exc:
                raise DimensionMismatch(f"{path}: block {len(out)}: {exc}") from None
            if hierarchy is None:
                hierarchy = h
            elif not np.array_equal(h.parent, hierarchy.parent):
                raise DimensionMismatch(f"{path}: blocks disagree on hierarchy")
            out.append(src.block(t, 3 * n, f"block {len(out)}, row").reshape(t, n, 3))
    if hierarchy is None:
        raise DimensionMismatch(f"{path}: no sequences found")
    return out, hierarchy


def write_posture_sequences(path, seqs):
    """Write posture sequences, one block per sequence."""
    _refuse_shapes(path, seqs)
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
            n, t = src.head(line, "postureseq", 2, 1)  # a bone and a frame, as in raw files
            where = f"block {len(out)}, row"
            seq = src.block(t, 3 * (n - 1), where).reshape(t, n - 1, 3)
            _check_postures(path, where, seq)
            out.append(seq)
    if not out:
        raise DimensionMismatch(f"{path}: no sequences found")
    return out


def write_warps(path, warps):
    """Write time-warp sample arrays, one block for the whole set."""
    _refuse_empty(path, warps, "warps")
    t = len(warps[0])
    if t < 2 or any(np.shape(w) != (t,) for w in warps):
        raise DimensionMismatch(f"{path}: warps in one file must share their sample count, "
                                "two at least")
    with open(path, "w") as fh:
        fh.write(f"warps {len(warps)} {t}\n")
        _write_rows(fh, warps)


def read_warps(path):
    """Read a set of warps as one (M, T) array; each must be a warp
    `check_warp` accepts."""
    with open(path) as fh:
        src = _Lines(fh)
        m, t = src.head(src.next(), "warps", 1, 2)
        warps = src.block(m, t, "warp")
        src.end(f"the {m} warps of its header")
    for i, warp in enumerate(warps):
        try:
            check_warp(warp)
        except MotionError as exc:
            raise type(exc)(f"{path}: warp {i}: {exc}") from None
    return warps


def write_flatfields(path, fields: FlatFields):
    """Write a set of flattened fields as one document."""
    write_doc(path, "flatfields", 1, [
        ("kind", fields.kind), ("dt", float(fields.dt)), ("reference", fields.reference),
        ("starts", fields.starts), ("values", fields.values)])


def read_flatfields(path) -> FlatFields:
    """Read a set of flattened fields.  Bones off the unit sphere are
    refused naming the field (or the reference bone), and an unknown kind,
    arrays of disagreeing shapes or a dt off the values' time grid naming
    the file."""
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
                    if not math.isfinite(value := float(value)):
                        raise ValueError("non-finite value")
                    out[name] = value
                elif tag == "a":
                    name, *dims = rest.split()
                    shape = [int(d) for d in dims]
                    if not shape or min(shape) < 0:
                        raise ValueError("an array needs one or more dimensions, none negative")
                    out[name] = src.block(math.prod(shape[:-1]), shape[-1],
                                          f"entry {name!r}, row").reshape(shape)
                else:
                    raise ValueError(f"unknown tag {tag!r}")
                out.tags[name] = tag
        except ValueError as exc:
            raise DimensionMismatch(f"{src.path}: bad line {line!r}: {exc}") from None
        src.end("end")
    return doctype, version, out
