import io
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from motionemu import dimred, io as mio, models
from motionemu.errors import DimensionMismatch, KindMismatch, ReferenceMismatch
from motionemu.flatten import FLATTEN_KINDS, FlatFields
from motionemu.persist import load_bundle, load_reduction, save_bundle, save_reduction
from motionemu.skeleton import SkeletonHierarchy


def unit_rows(raw):
    norms = np.linalg.norm(raw, axis=-1, keepdims=True)
    raw = np.where(norms > 1e-3, raw, [1.0, 0.0, 0.0])
    return raw / np.linalg.norm(raw, axis=-1, keepdims=True)


def rand_postures(rng, t, k):
    v = rng.standard_normal((t, k, 3))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def one_field(kind, reference, start, values, dt):
    """A set of one field."""
    return FlatFields(kind, reference, start[None], values[None], dt)


def write_blocks(path, *sets):
    """One fields file holding the blocks of several sets, in order: a file
    whose blocks need not agree, as one written by hand may."""
    text = ""
    for fields in sets:
        mio.write_flatfields(path, fields)
        text += Path(path).read_text()
    Path(path).write_text(text)


def test_posture_sequences_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    seqs = [rand_postures(rng, 5, 3), rand_postures(rng, 5, 3)]
    path = tmp_path / "seqs.txt"
    mio.write_posture_sequences(path, seqs)
    back = mio.read_posture_sequences(path)
    assert len(back) == 2
    for a, b in zip(seqs, back):
        np.testing.assert_array_equal(a, b)
    second = tmp_path / "again.txt"
    mio.write_posture_sequences(second, back)
    assert path.read_bytes() == second.read_bytes()


def test_the_line_reader_holds_one_block_not_the_file(tmp_path):
    """A reader keeps the arrays it returns and one block's lines and
    tokens, not every line of the file (about 2.6 times the arrays here)."""
    rng = np.random.default_rng(10)
    seqs = [rand_postures(rng, 30, 20) for _ in range(40)]
    path = tmp_path / "seqs.txt"
    mio.write_posture_sequences(path, seqs)
    tracemalloc.start()
    try:
        back = mio.read_posture_sequences(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(map(np.array_equal, seqs, back))
    assert peak < 2.0 * sum(s.nbytes for s in seqs)


def test_raw_sequences_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    hierarchy = SkeletonHierarchy(np.array([-1, 0, 1, 1]))
    frames = [rng.standard_normal((4, 4, 3)), rng.standard_normal((6, 4, 3))]
    path = tmp_path / "raw.txt"
    mio.write_raw_sequences(path, frames, hierarchy)
    back, h = mio.read_raw_sequences(path)
    np.testing.assert_array_equal(h.parent, hierarchy.parent)
    for a, b in zip(frames, back):
        np.testing.assert_array_equal(a, b)


def test_warps_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    raw = np.sort(rng.random((3, 9)), axis=1)
    warps = [np.concatenate([[0.0], w, [1.0]]) for w in raw]
    path = tmp_path / "warps.txt"
    mio.write_warps(path, warps)
    back = mio.read_warps(path)
    assert isinstance(back, np.ndarray) and back.shape == (3, 11)
    np.testing.assert_array_equal(back, np.stack(warps))


def test_flatfields_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    ref = rand_postures(rng, 1, 4)[0]
    for kind, cols in (("stvf", 6), ("siem", 7)):
        fields = FlatFields(kind, ref, rand_postures(rng, 2, 4),
                            rng.standard_normal((2, 8, cols)), 1.0 / 6)
        path = tmp_path / f"{kind}.txt"
        mio.write_flatfields(path, fields)
        back = mio.read_flatfields(path)
        assert back.kind == kind
        assert back.dt == fields.dt
        for name in ("reference", "starts", "values"):
            np.testing.assert_array_equal(getattr(back, name), getattr(fields, name))


def test_doc_roundtrip_all_tags(tmp_path):
    rng = np.random.default_rng(4)
    items = [
        ("nothing", None),
        ("name", "hello world"),
        ("count", 42),
        ("scale", -0.12345678901234567),
        ("vec", rng.standard_normal(5)),
        ("mat", rng.standard_normal((3, 4))),
        ("empty", np.zeros((0, 4))),
        ("empty_vec", np.zeros(0)),
        ("after_vec", 7),
        ("no_cols", np.zeros((3, 0))),
        ("after_mat", "tail"),
    ]
    path = tmp_path / "doc.txt"
    mio.write_doc(path, "example", 2, items)
    # an entry with no numbers has no payload lines, blank or otherwise
    assert path.read_text().splitlines()[-6:] == [
        "m empty 0 4", "v empty_vec 0", "i after_vec 7", "m no_cols 3 0", "s after_mat tail",
        "end"]
    doctype, version, data = mio.read_doc(path)
    assert doctype == "example" and version == 2
    assert data["nothing"] is None
    assert data["name"] == "hello world"
    assert data["count"] == 42
    assert data["scale"] == -0.12345678901234567
    np.testing.assert_array_equal(data["vec"], items[4][1])
    np.testing.assert_array_equal(data["mat"], items[5][1])
    assert data["empty"].shape == (0, 4)
    assert data["empty_vec"].shape == (0,) and data["after_vec"] == 7
    assert data["no_cols"].shape == (3, 0) and data["after_mat"] == "tail"


def test_doc_float_bit_exactness(tmp_path):
    rng = np.random.default_rng(5)
    values = rng.standard_normal(200) * 10.0 ** rng.integers(-200, 200, size=200)
    path = tmp_path / "floats.txt"
    mio.write_doc(path, "floats", 1, [("v", values)])
    _, _, data = mio.read_doc(path)
    np.testing.assert_array_equal(data["v"], values)


def test_read_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("postureseq 3 2\n1 0 0\n")
    with pytest.raises(DimensionMismatch):
        mio.read_posture_sequences(path)
    empty = tmp_path / "empty.txt"
    empty.write_text("\n")
    with pytest.raises(DimensionMismatch):
        mio.read_posture_sequences(empty)


def test_read_posture_sequences_rejects_non_finite_and_off_unit_bones(tmp_path):
    rng = np.random.default_rng(6)
    seqs = [rand_postures(rng, 5, 3), rand_postures(rng, 5, 3)]
    path = tmp_path / "seqs.txt"
    nan = [s.copy() for s in seqs]
    nan[1][2, 0, 1] = np.nan
    mio.write_posture_sequences(path, nan)
    with pytest.raises(DimensionMismatch, match=r"block 1, row 2: non-finite"):
        mio.read_posture_sequences(path)
    doubled = [seqs[0], 2.0 * seqs[1]]
    mio.write_posture_sequences(path, doubled)
    with pytest.raises(DimensionMismatch, match=r"block 1, row 0: bone norm off 1"):
        mio.read_posture_sequences(path)
    # the tolerance is 1e-9 on | |bone| - 1 |
    within = [s * (1.0 + 5e-10) for s in seqs]
    mio.write_posture_sequences(path, within)
    assert len(mio.read_posture_sequences(path)) == 2
    beyond = [seqs[0], seqs[1].copy()]
    beyond[1][4, 2] *= 1.0 + 2e-9
    mio.write_posture_sequences(path, beyond)
    with pytest.raises(DimensionMismatch, match=r"block 1, row 4"):
        mio.read_posture_sequences(path)


def test_read_flatfields_rejects_non_finite_and_non_unit_postures(tmp_path):
    rng = np.random.default_rng(7)
    ref = rand_postures(rng, 1, 4)[0]
    start = rand_postures(rng, 1, 4)[0]
    values = rng.standard_normal((8, 6))
    good = one_field("istvf", ref, start, values, 1.0 / 6)
    path = tmp_path / "fields.txt"
    cases = [
        (one_field("istvf", ref, start, values.copy(), good.dt), "values row 3: non-finite"),
        (one_field("istvf", 2.0 * ref, start, values, good.dt), "reference bone 0: bone norm"),
        (one_field("istvf", ref, 0.5 * start, values, good.dt), "start bone 0: bone norm"),
    ]
    cases[0][0].values[0, 3, 1] = np.inf
    for bad, message in cases:
        write_blocks(path, good, bad)
        with pytest.raises(DimensionMismatch, match=f"block 1, {message}"):
            mio.read_flatfields(path)


@pytest.mark.parametrize("case", ["kind", "reference", "dt", "bones", "columns", "start none"])
def test_read_flatfields_refuses_a_block_that_disagrees_with_block_0(tmp_path, case):
    """A set has one kind, reference, bone count, column count and dt, and
    a start posture per field: a hand-edited file whose block 2 breaks
    that is refused, naming field 2."""
    rng = np.random.default_rng(9)
    ref, other, start = rand_postures(rng, 3, 4)
    values = rng.standard_normal((8, 6))
    good = one_field("istvf", ref, start, values, 0.2)
    bad, error, message = {
        "kind": (one_field("siem", ref, start, values, 0.2), KindMismatch,
                 "field 2 has kind 'siem', field 0 'istvf'"),
        "reference": (one_field("istvf", other, start, values, 0.2), ReferenceMismatch,
                      "field 2 has another reference than field 0"),
        "dt": (one_field("istvf", ref, start, values, 0.25), ReferenceMismatch,
               "field 2 has dt 0.25, field 0 0.2"),
        "bones": (one_field("istvf", ref[:3], start[:3], values[:6], 0.2), DimensionMismatch,
                  "field 2 has landmark count 4, field 0 5"),
        "columns": (one_field("istvf", ref, start, values[:, :5], 0.2), DimensionMismatch,
                    "field 2 has column count 5, field 0 6"),
        "start none": (good, DimensionMismatch, "field 2 has no start posture"),
    }[case]
    path = tmp_path / "fields.txt"
    write_blocks(path, good, good, bad)
    if case == "start none":
        lines = path.read_text().splitlines(keepends=True)
        starts = [i for i, ln in enumerate(lines) if ln.startswith("start ")]
        lines[starts[2]] = "start none\n"
        path.write_text("".join(lines))
    with pytest.raises(error, match=message):
        mio.read_flatfields(path)


@given(arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 4), st.just(3)),
              elements=st.floats(-1.0, 1.0, allow_subnormal=False)),
       st.integers(1, 3))
def test_posture_sequences_roundtrip_bitwise_property(raw, count):
    seq = unit_rows(raw)
    seqs = [np.roll(seq, i, axis=0) for i in range(count)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "seqs.txt"
        mio.write_posture_sequences(path, seqs)
        back = mio.read_posture_sequences(path)
    assert len(back) == count
    for a, b in zip(seqs, back):
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def test_constant_field_reduction_survives_save_and_load(tmp_path):
    # constant fields have rank zero: the spatial basis is (4, 0)
    ref = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    fields = FlatFields("istvf", ref, np.stack([ref] * 3), np.ones((3, 4, 6)), 0.2)
    spatial, fpca = dimred.reduce_fields(fields, False)
    assert spatial.basis.shape == (4, 0) and fpca is None
    path = tmp_path / "reduction.txt"
    save_reduction(path, spatial, fpca)
    back, back_fpca = load_reduction(path)
    assert back_fpca is None
    for name in ("mean", "basis", "eigenvalues"):
        a, b = getattr(spatial, name), getattr(back, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert back.total_variance == spatial.total_variance


@pytest.mark.parametrize("bad", ["i length abc", "i length", "i length 3 4", "lonely",
                                 "x gone", "v vec abc", "m mat 2 x", "m mat -1 0"])
def test_read_doc_names_the_file_and_the_bad_line(tmp_path, bad):
    path = tmp_path / "doc.txt"
    mio.write_doc(path, "example", 1, [("length", 3), ("name", "x")])
    text = path.read_text()
    path.write_text(text.replace("i length 3", bad))
    with pytest.raises(DimensionMismatch, match=re.escape(f"{path}: bad line {bad!r}")):
        mio.read_doc(path)
    path.write_text(text.replace("doc example 1", "doc example one"))
    with pytest.raises(DimensionMismatch, match="bad line 'doc example one'"):
        mio.read_doc(path)


def saved_documents(tmp_path, model_type):
    """A bundle and a reduction fitted on a small training set, saved under
    tmp_path; yields (path, loader) pairs."""
    rng = np.random.default_rng(8)
    seqs = [rand_postures(rng, 1, 2) + np.cumsum(rng.normal(scale=0.05, size=(8, 2, 3)), axis=0)
            for _ in range(6)]
    seqs = [s / np.linalg.norm(s, axis=-1, keepdims=True) for s in seqs]
    bundle = models.fit_emulator(seqs, "istvf", model_type, d1=2, d2=2, order=1)
    save_bundle(tmp_path / "bundle.txt", bundle)
    docs = [(tmp_path / "bundle.txt", load_bundle)]
    if bundle.fpca is not None:
        save_reduction(tmp_path / "reduction.txt", bundle.spatial, bundle.fpca)
        docs.append((tmp_path / "reduction.txt", load_reduction))
    return docs


def test_missing_entries_name_the_file_and_the_entry(tmp_path):
    for path, load in saved_documents(tmp_path, "mvg"):
        lines = path.read_text().splitlines(keepends=True)
        load(path)
        # every scalar entry is read; the reduction's has_mpca is kept for
        # earlier readers only
        scalars = [i for i, ln in enumerate(lines)
                   if ln[:2] in ("s ", "i ", "f ", "x ") and "has_mpca" not in ln]
        assert len(scalars) >= 4
        for i in scalars:
            entry = lines[i].split()[1]
            path.write_text("".join(lines[:i] + lines[i + 1:]))
            with pytest.raises(DimensionMismatch,
                               match=re.escape(f"{path}: missing entry {entry!r}")):
                load(path)


@pytest.mark.parametrize("model_type", ["mvg", "ig", "var", "pwi"])
def test_mistyped_entries_name_the_file_and_the_entry(tmp_path, model_type):
    """Each entry written under another tag that still parses (a scalar as
    a string, a string as none, a vector as a one-row matrix, an array as
    none) is refused with a DimensionMismatch naming the file and the
    entry."""
    for path, load in saved_documents(tmp_path, model_type):
        lines = path.read_text().splitlines(keepends=True)
        load(path)
        retyped = []  # (line index, replacement, payload lines it replaces)
        for i, ln in enumerate(lines):
            tag, entry, *rest = ln.split() + [""]
            if entry == "has_mpca":
                continue
            if tag in ("i", "f", "x"):
                retyped.append((i, "s" + ln[1:], 0))
            elif tag == "s" and rest[0]:
                retyped.append((i, "x" + ln[1:], 0))
            elif tag in ("v", "m"):
                shape = [1, int(rest[0])] if tag == "v" else [int(rest[0]), int(rest[1])]
                payload = shape[0] if shape[0] * shape[1] else 0
                retyped.append((i, f"x {entry} none\n", payload))
                if tag == "v":
                    retyped.append((i, f"m {entry} 1 {rest[0]}\n", 0))
        assert len(retyped) >= 10
        for i, line, payload in retyped:
            entry = line.split()[1]
            path.write_text("".join(lines[:i] + [line] + lines[i + 1 + payload:]))
            with pytest.raises(DimensionMismatch,
                               match=re.escape(f"{path}: entry {entry!r} is tagged")):
                load(path)


@pytest.mark.parametrize("model_type, entry, new", [
    ("ig", "start.count", 2), ("mvg", "start.count", 3), ("mvg", "model.rows", 1),
    ("ig", "model.cols", 3), ("ig", "length", 6), ("mvg", "length", 9), ("mvg", "fpca.rows", 1),
    ("var", "model.order", 2), ("pwi", "model.frames", 7), ("pwi", "model.bones", 3),
    ("mvg", "has_fpca", 0), ("ig", "has_spatial", 0), ("var", "has_fpca", 1),
    ("var", "has_spatial", 0), ("pwi", "has_spatial", 1), ("ig", "model_type", "mvg"),
    ("mvg", "model_type", "var"), ("mvg", "model.family", "ig"), ("pwi", "model.family", "var"),
    ("mvg", "kind", "mtvf"), ("ig", "kind", "stvf"), ("var", "kind", "intrinsic"),
    ("pwi", "kind", "istvf"), ("mvg", "kind", "bogus")])
def test_size_entries_that_disagree_with_their_arrays_name_the_file_and_the_entry(
        tmp_path, model_type, entry, new):
    """A bundle whose size entry no longer matches the arrays it sizes, or
    whose stage flags, model family or kind disagree with its model_type, is
    refused on loading, naming the file and the entry, rather than loading
    and failing later inside simulate.  Unedited bundles load and write
    back the same bytes."""
    path = saved_documents(tmp_path, model_type)[0][0]
    text = path.read_text()
    save_bundle(tmp_path / "again.txt", load_bundle(path))
    assert (tmp_path / "again.txt").read_text() == text
    old = re.search(rf"^([is]) {re.escape(entry)} (\S+)$", text, re.M)
    assert old.group(2) != str(new)
    path.write_text(text.replace(old.group(0), f"{old.group(1)} {entry} {new}"))
    named = re.escape(f"{path}: entry ") + ".*" + re.escape(f"{entry!r} = {new}")
    with pytest.raises(DimensionMismatch, match=named) as info:
        load_bundle(path)
    if entry == "kind":
        assert f"'model_type' = {model_type}" in str(info.value)


# ---- the row codec: exact bytes, bitwise round trips, rejected rows -------

SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.225073858507201e-308,
           -2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308,
           1.8e307, -1.79e308, 1.0, -1.0, 0.1, 1.0 / 3.0]
ANY_FLOAT = st.one_of(st.sampled_from(SPECIAL), st.floats(width=64))
FINITE = st.one_of(st.sampled_from([v for v in SPECIAL if np.isfinite(v)]),
                   st.floats(allow_nan=False, allow_infinity=False))
NUMBER = st.one_of(FINITE, st.sampled_from([np.inf, -np.inf]))


def shapes(rows, cols):
    return st.tuples(st.integers(*rows), st.integers(*cols))


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@given(arrays(np.float64, shapes((0, 5), (0, 7)), elements=ANY_FLOAT))
def test_row_writer_bytes_equal_per_value_format(rows):
    fh = io.StringIO()
    mio._write_rows(fh, rows)
    expected = "".join(" ".join(format(float(v), ".17g") for v in row) + "\n"
                       for row in rows if row.size)
    assert fh.getvalue() == expected


@given(arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(2, 4), st.just(3)),
              elements=FINITE), st.integers(1, 3))
def test_raw_sequences_roundtrip_bitwise_property(frames, count):
    n = frames.shape[1]
    hierarchy = SkeletonHierarchy(np.arange(n) - 1)
    frames_list = [np.roll(frames, i, axis=0) for i in range(count)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "raw.txt"
        mio.write_raw_sequences(path, frames_list, hierarchy)
        back, h = mio.read_raw_sequences(path)
    assert np.array_equal(h.parent, hierarchy.parent)
    assert len(back) == count and all(map(same_bits, frames_list, back))


@given(arrays(np.float64, shapes((1, 4), (1, 9)), elements=FINITE))
def test_warps_roundtrip_bitwise_property(warps):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "warps.txt"
        mio.write_warps(path, list(warps))
        back = mio.read_warps(path)
    assert same_bits(warps, back)


@given(arrays(np.float64, st.tuples(st.integers(2, 5), st.integers(1, 4), st.just(3)),
              elements=st.floats(-1.0, 1.0)),
       arrays(np.float64, shapes((1, 3), (1, 6)), elements=FINITE),
       st.sampled_from(FLATTEN_KINDS))
def test_flatfields_roundtrip_bitwise_property(postures, cols, kind):
    ref, *starts = unit_rows(postures)
    k, m = ref.shape[0], len(starts)
    values = np.resize(cols.ravel(), (m, 2 * k, cols.shape[1]))
    values[1::2] *= -1.0
    fields = FlatFields(kind, ref, np.stack(starts), values, float(cols.flat[0]))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fields.txt"
        mio.write_flatfields(path, fields)
        back = mio.read_flatfields(path)
        mio.write_flatfields(Path(tmp) / "again.txt", back)
        assert path.read_bytes() == (Path(tmp) / "again.txt").read_bytes()
    assert (back.kind, len(back), same_bits(fields.dt, back.dt)) == (kind, m, True)
    for name in ("reference", "starts", "values"):
        assert same_bits(getattr(fields, name), getattr(back, name)), name


@given(st.lists(st.one_of(arrays(np.float64, st.tuples(st.integers(0, 4)), elements=NUMBER),
                          arrays(np.float64, shapes((0, 3), (0, 4)), elements=NUMBER)),
                min_size=1, max_size=4))
def test_doc_vectors_and_matrices_roundtrip_bitwise_property(values):
    # every array is followed by another entry, so a stray payload line shows
    items = []
    for i, v in enumerate(values):
        items += [(f"a{i}", v), (f"n{i}", i)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.txt"
        mio.write_doc(path, "arrays", 1, items)
        _, _, data = mio.read_doc(path)
    for i, v in enumerate(values):
        assert same_bits(v, data[f"a{i}"]) and data[f"n{i}"] == i


@given(arrays(np.float64, shapes((1, 4), (2, 5)), elements=FINITE),
       st.integers(0, 3), st.integers(0, 4), st.sampled_from(["x", "1.0.0", "--1", "1e", ","]))
def test_ragged_rows_and_bad_tokens_raise_dimension_mismatch(matrix, row, col, token):
    row, col = row % matrix.shape[0], col % matrix.shape[1]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.txt"
        mio.write_doc(path, "bad", 1, [("m", matrix), ("n", 1)])
        lines = path.read_text().splitlines()
        tokens = lines[2 + row].split()
        for bad in (tokens[:col] + tokens[col + 1:], tokens[:col] + [token] + tokens[col + 1:]):
            lines[2 + row] = " ".join(bad)
            path.write_text("\n".join(lines) + "\n")
            with pytest.raises(DimensionMismatch, match="doc.txt: expected"):
                mio.read_doc(path)
