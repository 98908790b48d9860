import io
import math
import re
import tempfile
import tracemalloc
import warnings
from itertools import zip_longest
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from motionemu import dimred, flatten, io as mio, models
from motionemu.alignment import check_warp
from motionemu.errors import (BadTarget, DimensionMismatch, KindMismatch, MotionError,
                              ReferenceMismatch)
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
        ("cube", rng.standard_normal((2, 3, 4))),
        ("hollow", np.zeros((2, 0, 4))),
        ("last", 1),
    ]
    path = tmp_path / "doc.txt"
    mio.write_doc(path, "example", 2, items)
    # an entry with no numbers has no payload lines, blank or otherwise, and
    # a (2, 3, 4) array has 2 * 3 lines of 4 numbers
    lines = path.read_text().splitlines()
    assert lines[-15:-9] == ["a empty 0 4", "a empty_vec 0", "i after_vec 7", "a no_cols 3 0",
                             "s after_mat tail", "a cube 2 3 4"]
    assert [len(ln.split()) for ln in lines[-9:-3]] == [4] * 6
    assert lines[-3:] == ["a hollow 2 0 4", "i last 1", "end"]
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
    np.testing.assert_array_equal(data["cube"], items[11][1])
    assert data["hollow"].shape == (2, 0, 4) and data["last"] == 1


def test_doc_float_bit_exactness(tmp_path):
    rng = np.random.default_rng(5)
    values = rng.standard_normal(200) * 10.0 ** rng.integers(-200, 200, size=200)
    path = tmp_path / "floats.txt"
    mio.write_doc(path, "floats", 1, [("v", values)])
    _, _, data = mio.read_doc(path)
    np.testing.assert_array_equal(data["v"], values)


def test_read_errors(tmp_path):
    """Malformed headers (sizes that are not integers, a count of sizes
    other than the type's, a negative size, a sequence block without a
    bone or a frame, a warps block without a warp or with a warp of one
    sample), short blocks and files without blocks are refused naming the
    file, and a bad header line is quoted."""
    raw = "rawseq 2 1\nparents -1 0\n0 0 0 1 0 0\n"
    path = tmp_path / "bad.txt"
    cases = [
        (mio.read_posture_sequences, "postureseq 3 2\n1 0 0\n", "unexpected end of file"),
        (mio.read_posture_sequences, "\n", "no sequences found"),
        (mio.read_posture_sequences, "postureseq x 3\n1 0 0\n",
         "bad postureseq line 'postureseq x 3'"),
        (mio.read_posture_sequences, "postureseq 0 2\n", "bad postureseq line 'postureseq 0 2'"),
        (mio.read_posture_sequences, "postureseq 1 2\n", "bad postureseq line 'postureseq 1 2'"),
        (mio.read_posture_sequences, "postureseq 2 -1\n",
         "bad postureseq line 'postureseq 2 -1'"),
        (mio.read_posture_sequences, "postureseq 3 0\n" * 2, "bad postureseq line 'postureseq 3 0'"),
        (mio.read_posture_sequences, "postureseq 2 1 1\n1 0 0\n", "bad postureseq line"),
        (mio.read_posture_sequences, "rawseq 2 1\n1 0 0\n", "bad postureseq line 'rawseq 2 1'"),
        (mio.read_warps, "warps 2\n0 1\n", "bad warps line 'warps 2'"),
        (mio.read_warps, "warps 1 1.5\n0 1\n", "bad warps line 'warps 1 1.5'"),
        (mio.read_warps, "", "unexpected end of file"),
        (mio.read_warps, "warps 0 2\n", "bad warps line 'warps 0 2'"),
        (mio.read_warps, "warps 2 1\n0\n1\n", "bad warps line 'warps 2 1'"),
        (mio.read_raw_sequences, "rawseq 3 0\nparents -1 0 1\n", "bad rawseq line 'rawseq 3 0'"),
        (mio.read_raw_sequences, raw.replace("rawseq 2 1", "rawseq -2 1"), "bad rawseq line"),
        (mio.read_raw_sequences, raw.replace("-1 0", "-1 x"), "bad parents line 'parents -1 x'"),
        (mio.read_raw_sequences, raw.replace("-1 0", "-1 0 1"), "bad parents line"),
        (mio.read_raw_sequences, "rawseq 2 1\n", "unexpected end of file"),
        (mio.read_raw_sequences, raw + raw.replace("-1 0", "1 -1"),
         "blocks disagree on hierarchy"),
        (mio.read_raw_sequences, "\n\n", "no sequences found")]
    for read, text, message in cases:
        path.write_text(text)
        with pytest.raises(DimensionMismatch, match=re.escape(f"{path}: {message}")):
            read(path)


def test_read_doc_refuses_lines_after_end(tmp_path):
    path = tmp_path / "doc.txt"
    mio.write_doc(path, "example", 1, [("length", 3)])
    text = path.read_text()
    path.write_text(text + "\n  \n")  # blank lines after end are no entries
    assert mio.read_doc(path)[2] == {"length": 3}
    path.write_text(text + "i m 2\n")
    with pytest.raises(DimensionMismatch, match=re.escape(f"{path}: line 'i m 2' after end")):
        mio.read_doc(path)


def test_read_warps_refuses_rows_beyond_its_header_count(tmp_path):
    path = tmp_path / "warps.txt"
    mio.write_warps(path, [np.linspace(0, 1, 3)] * 2)
    path.write_text(path.read_text() + "0 0.25 1\n")
    with pytest.raises(DimensionMismatch,
                       match=re.escape(f"{path}: line '0 0.25 1' after the 2 warps of its header")):
        mio.read_warps(path)


def test_read_warps_refuses_what_check_warp_refuses_naming_the_warp(tmp_path):
    path = tmp_path / "warps.txt"
    warps = np.stack([np.linspace(0, 1, 5)] * 3)
    for row, col, value, error, message in [
            (1, 2, np.nan, DimensionMismatch, "warp 1: non-finite value"),
            (2, 2, 0.1, BadTarget, "warp 2: warp samples must be strictly increasing"),
            (0, 4, 0.9, BadTarget, "warp 0: warp endpoints must be exactly 0 and 1")]:
        bad = warps.copy()
        bad[row, col] = value
        mio.write_warps(path, bad)
        with pytest.raises(error, match=re.escape(f"{path}: {message}")):
            mio.read_warps(path)


@pytest.mark.parametrize("parents, message", [
    ("-1", "hierarchy needs a 1-d parent array with n >= 2"),
    ("-1 -1", "hierarchy must have exactly one root, found 2"),
    ("-1 2 1", "hierarchy contains a cycle"),
    ("-1 3", "parent index out of range")])
def test_read_raw_sequences_names_the_file_of_an_invalid_hierarchy(tmp_path, parents, message):
    n = len(parents.split())
    path = tmp_path / "raw.txt"
    path.write_text(f"rawseq {n} 1\nparents {parents}\n" + " ".join(["0"] * 3 * n) + "\n")
    with pytest.raises(DimensionMismatch, match=re.escape(f"{path}: block 0: {message}")):
        mio.read_raw_sequences(path)


def test_load_bundle_refuses_a_start_entry_without_postures(tmp_path):
    path = tmp_path / "bundle.txt"
    bundle = load_bundle(saved_documents(tmp_path, "mvg")[0][0])
    bundle.start_postures = bundle.start_postures[:0]
    save_bundle(path, bundle)
    assert "\na start.postures 0 2 3\n" in path.read_text()
    with pytest.raises(DimensionMismatch,
                       match=re.escape(f"{path}: entry 'start.postures' holds no posture")):
        load_bundle(path)


def off_sphere(bone):
    return bone * (1.0 + 1e-6)


@pytest.mark.parametrize("model_type, entry, at, change, message", [
    ("mvg", "reference", 1, off_sphere, "entry 'reference', bone 1: bone norm off 1"),
    ("ig", "start.postures", (0, 1), off_sphere,
     "entry 'start.postures', posture 0: bone norm off 1"),
    ("pwi", "model.means", (3, 0), off_sphere, "entry 'model.means', frame 3: bone norm off 1"),
    ("mvg", "reference", (0, 0), np.nan, "entry 'reference', row 0: non-finite value"),
    ("mvg", "model.covariance", (2, 1), np.nan,
     "entry 'model.covariance', row 2: non-finite value"),
    ("ig", "spatial.basis", (3, 0), np.inf, "entry 'spatial.basis', row 3: non-finite value"),
    ("pwi", "model.covariances", (1, 2, 0), -np.inf,
     "entry 'model.covariances', row 6: non-finite value")])
def test_load_bundle_refuses_non_finite_numbers_and_postures_off_the_sphere(
        tmp_path, model_type, entry, at, change, message):
    """A non-finite number is refused naming the entry and its row, and a
    posture entry with a bone off the unit sphere naming the entry and the
    posture, as in posture files and fields, on loading rather than inside
    simulate."""
    path = saved_documents(tmp_path, model_type)[0][0]
    _, _, doc = mio.read_doc(path)
    value = doc[entry].copy()
    value[at] = change(value[at]) if callable(change) else change
    rewrite(path, entry, value)
    with pytest.raises(DimensionMismatch, match=re.escape(f"{path}: {message}")):
        load_bundle(path)


@pytest.mark.parametrize("model_type, entry, at, value, message", [
    ("ig", "model.variances", 1, None, "entry 'model.variances', coefficient 1: negative variance"),
    ("mvg", "model.covariance", (2, 2), None,
     "entry 'model.covariance', coefficient 2: negative variance"),
    ("ig", "model.jitter", None, -1.5, "entry 'model.jitter' = -1.5 is negative"),
    ("mvg", "model.jitter", None, -1e-300, "entry 'model.jitter' = -1e-300 is negative")])
def test_load_bundle_refuses_negative_variances_and_jitter(tmp_path, model_type, entry, at,
                                                          value, message):
    """A Gaussian bundle with a negative variance (an entry of an ig
    bundle's variances or of an mvg bundle's covariance diagonal) or a
    negative jitter is refused on loading, naming the file and the entry,
    rather than simulating nan draws."""
    path = saved_documents(tmp_path, model_type)[0][0]
    _, _, doc = mio.read_doc(path)
    if at is not None:
        value = doc[entry].copy()
        assert value[at] > 0.0
        value[at] = -value[at]
    rewrite(path, entry, value)
    with pytest.raises(DimensionMismatch, match=re.escape(f"{path}: {message}")):
        load_bundle(path)


def test_save_bundle_refuses_a_model_of_no_family_leaving_no_file(tmp_path):
    """A model that holds a family's fields but is of no known model class
    is refused naming its type, before the file is opened."""
    bundle = load_bundle(saved_documents(tmp_path, "ig")[0][0])
    bundle.model = SimpleNamespace(**vars(bundle.model))
    path = tmp_path / "unknown.txt"
    with pytest.raises(KindMismatch, match="cannot serialize model SimpleNamespace"):
        save_bundle(path, bundle)
    assert not path.exists()


def test_write_warps_refuses_warps_of_unequal_sample_counts(tmp_path):
    for warps in ([np.linspace(0, 1, 5), np.linspace(0, 1, 6)], [np.zeros(1)] * 2):
        with pytest.raises(DimensionMismatch, match="share their sample count, two at least"):
            mio.write_warps(tmp_path / "warps.txt", warps)
    assert not (tmp_path / "warps.txt").exists()


@pytest.mark.parametrize("write, what", [
    (mio.write_warps, "warps"), (mio.write_posture_sequences, "sequences"),
    (lambda path, sets: mio.write_raw_sequences(path, sets, SkeletonHierarchy([-1, 0])),
     "sequences")])
@pytest.mark.parametrize("empty", [[], np.zeros((0, 4, 1, 3))])
def test_set_writers_refuse_an_empty_set_naming_the_file(tmp_path, write, what, empty):
    """A set with no members, which every set reader refuses, is refused
    before its file is opened."""
    path = tmp_path / "set.txt"
    with pytest.raises(DimensionMismatch, match=re.escape(f"{path}: no {what} to write")):
        write(path, empty)
    assert not path.exists()


@pytest.mark.parametrize("write, sets, message", [
    (mio.write_posture_sequences, [np.zeros((4, 3))],
     "sequence 0 has shape (4, 3), expected (T >= 1, k >= 1, 3)"),
    (mio.write_posture_sequences, np.empty((2, 5, 0, 3)),
     "sequence 0 has shape (5, 0, 3), expected (T >= 1, k >= 1, 3)"),
    (mio.write_posture_sequences, [np.ones((2, 1, 3)), np.empty((0, 1, 3))],
     "sequence 1 has shape (0, 1, 3), expected (T >= 1, k >= 1, 3)"),
    (mio.write_posture_sequences, [np.ones((2, 1, 4))],
     "sequence 0 has shape (2, 1, 4), expected (T >= 1, k >= 1, 3)"),
    (lambda path, sets: mio.write_raw_sequences(path, sets, SkeletonHierarchy([-1, 0])),
     [np.ones((2, 3, 3))], "sequence 0 has shape (2, 3, 3), expected (T >= 1, 2, 3)")])
def test_set_writers_refuse_by_shape_before_opening_the_file(tmp_path, write, sets, message):
    """A sequence without a frame or a bone, of another rank or last axis,
    or of another landmark count than its hierarchy, which the reader would
    refuse or which cannot be written, is refused before the file is
    opened."""
    path = tmp_path / "set.txt"
    with pytest.raises(DimensionMismatch, match=re.escape(f"{path}: {message}")):
        write(path, sets)
    assert not path.exists()


def test_blank_lines_in_a_block_and_a_block_cut_short_raise_no_warning(tmp_path):
    """The reader skips blank lines inside a block, and reports a block cut
    short by the end of the file as such, without a numpy warning."""
    rng = np.random.default_rng(9)
    seqs = [rand_postures(rng, 4, 2), rand_postures(rng, 3, 2)]
    path = tmp_path / "seqs.txt"
    mio.write_posture_sequences(path, seqs)
    lines = path.read_text().splitlines(keepends=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        path.write_text("".join(ln + "\n  \n" for ln in lines))
        assert all(map(same_bits, seqs, mio.read_posture_sequences(path)))
        for cut in (lines[:7], lines[:6]):  # inside the last block, and right after its header
            path.write_text("".join(cut))
            with pytest.raises(DimensionMismatch,
                               match=re.escape(f"{path}: unexpected end of file")):
                mio.read_posture_sequences(path)


def test_read_raw_sequences_rejects_non_finite_coordinates(tmp_path):
    rng = np.random.default_rng(12)
    frames = [rng.standard_normal((5, 4, 3)) for _ in range(2)]
    frames[1][3, 2, 0] = np.nan
    path = tmp_path / "raw.txt"
    mio.write_raw_sequences(path, frames, SkeletonHierarchy(np.array([-1, 0, 1, 1])))
    with pytest.raises(DimensionMismatch,
                       match=re.escape(f"{path}: block 1, row 3: non-finite value")):
        mio.read_raw_sequences(path)


def test_fields_read_and_write_hold_one_line_of_text_at_a_time(tmp_path):
    """Writing a fields document of paper-scale size formats one block of
    values at a time and writes it at once, holding under a tenth of the
    values' bytes (a writer that formatted runs of rows held a fifth), and
    reading one holds its arrays and numpy's parse buffers, not the file's
    lines."""
    rng = np.random.default_rng(11)
    fields = FlatFields("istvf", rand_postures(rng, 1, 20)[0], rand_postures(rng, 60, 20),
                        rng.standard_normal((60, 40, 300)), 1.0 / 300)
    path = tmp_path / "fields.txt"
    peaks = []
    for step in (lambda: mio.write_flatfields(path, fields), lambda: mio.read_flatfields(path)):
        tracemalloc.start()
        try:
            back = step()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert same_bits(back.values, fields.values) and same_bits(back.starts, fields.starts)
    assert peaks[0] < 0.1 * fields.values.nbytes
    assert peaks[1] < 1.6 * fields.values.nbytes


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


def rewrite(path, name, value):
    """Rewrite one entry of a document in place, keeping the others."""
    doctype, version, doc = mio.read_doc(path)
    doc[name] = value
    mio.write_doc(path, doctype, version, list(doc.items()))


def test_read_flatfields_rejects_non_finite_and_non_unit_postures(tmp_path):
    """Non-finite numbers are refused naming the entry and its row (field 1,
    row 3 of the values is row 11 of their block), bones off the unit
    sphere naming the field (or the reference bone); an unknown kind and
    arrays whose shapes disagree are refused naming the file."""
    rng = np.random.default_rng(7)
    ref = rand_postures(rng, 1, 4)[0]
    starts = rand_postures(rng, 3, 4)
    values = rng.standard_normal((3, 8, 6))
    bad_values, bad_starts = values.copy(), starts.copy()
    bad_values[1, 3, 1] = np.inf
    bad_starts[1, 2] *= 0.5
    path, dt = tmp_path / "fields.txt", 1.0 / 6
    for fields, message in [
            (FlatFields("istvf", ref, starts, bad_values, dt), "entry 'values', row 11: non-finite"),
            (FlatFields("istvf", ref, starts * [1, 1, np.nan], values, dt),
             "entry 'starts', row 0: non-finite value"),
            (FlatFields("istvf", 2.0 * ref, starts, values, dt), "reference bone 0: bone norm"),
            (FlatFields("istvf", ref, bad_starts, values, dt), "start posture of field 1: bone"),
    ]:
        mio.write_flatfields(path, fields)
        with pytest.raises(DimensionMismatch, match=re.escape(f"{path}: {message}")):
            mio.read_flatfields(path)
    for name, value, error, message in [
            ("kind", "svf", KindMismatch, "unknown flattening kind 'svf'"),
            ("starts", starts[:2], DimensionMismatch, "(M, 4, 3) start postures"),
            ("values", values[:, :7], DimensionMismatch, "(M, 8, L) values"),
            ("reference", ref[:, :2], DimensionMismatch, "a (4, 3) reference")]:
        mio.write_flatfields(path, FlatFields("istvf", ref, starts, values, dt))
        rewrite(path, name, value)
        with pytest.raises(error, match=re.escape(f"{path}: ") + ".*" + re.escape(message)):
            mio.read_flatfields(path)


def test_read_flatfields_refuses_a_dt_off_the_grid_of_its_values(tmp_path):
    """dt must be 1/(frames - 1) for the frames the values encode (one per
    siem column, one more than the velocity kinds' columns); a grid under
    two frames is refused before any division."""
    rng = np.random.default_rng(7)
    ref = rand_postures(rng, 1, 4)[0]
    starts = rand_postures(rng, 3, 4)
    path = tmp_path / "fields.txt"
    for kind, cols, dt, message in [
            ("istvf", 39, 0.5, "entry 'dt' = 0.5 is off the 40-frame grid of "
                               "istvf entry 'values' (3, 8, 39)"),
            ("siem", 39, 1.0 / 39, "entry 'dt' = 0.02564102564102564 is off "
                                   "the 39-frame grid of siem entry 'values' (3, 8, 39)"),
            ("siem", 1, 1.0, "a time grid needs at least two frames, got 1"),
            ("stvf", 0, 1.0, "a time grid needs at least two frames, got 1")]:
        values = rng.standard_normal((3, 8, cols))
        mio.write_flatfields(path, FlatFields(kind, ref, starts, values, dt))
        with pytest.raises(DimensionMismatch, match=re.escape(f"{path}: {message}")):
            mio.read_flatfields(path)
    fields = FlatFields("istvf", ref, starts, rng.standard_normal((3, 8, 39)), 1.0 / 39)
    mio.write_flatfields(path, fields)
    assert mio.read_flatfields(path).dt == 1.0 / 39


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


@given(st.lists(arrays(np.float64, st.tuples(st.integers(0, 3), st.integers(0, 3),
                                             st.integers(2, 4)),
                       elements=st.floats(0.5, 1.0)), min_size=1, max_size=3))
def test_posture_writer_refuses_or_reads_back_bitwise_property(raw):
    """The writer refuses, without creating the file, every set its reader
    would not read back: the reader returns every other set bit for bit."""
    seqs = [r / np.linalg.norm(r, axis=-1, keepdims=True) for r in raw]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "seqs.txt"
        try:
            mio.write_posture_sequences(path, seqs)
        except DimensionMismatch as exc:
            assert str(exc).startswith(f"{path}: sequence ") and not path.exists()
            assert any(s.shape[0] < 1 or s.shape[1] < 1 or s.shape[2] != 3 for s in seqs)
            return
        back = mio.read_posture_sequences(path)
    assert len(back) == len(seqs) and all(map(same_bits, seqs, back))


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
                                 "f length nan", "f length -inf",
                                 "x gone", "v vec abc", "m mat 2 x", "m mat -1 0", "a",
                                 "a arr", "a arr 2 x", "a arr -1 2", "a arr 1.5"])
def test_read_doc_names_the_file_and_the_bad_line(tmp_path, bad):
    """A malformed entry line, a non-finite float entry, an unknown tag (`v`
    and `m` belonged to an earlier format) and an array header without
    dimensions, or with a negative or non-integer one, are refused quoting
    the line."""
    path = tmp_path / "doc.txt"
    mio.write_doc(path, "example", 1, [("length", 3), ("name", "x")])
    text = path.read_text()
    path.write_text(text.replace("i length 3", bad))
    with pytest.raises(DimensionMismatch, match=re.escape(f"{path}: bad line {bad!r}")):
        mio.read_doc(path)
    path.write_text(text.replace("doc example 1", "doc example one"))
    with pytest.raises(DimensionMismatch, match="bad line 'doc example one'"):
        mio.read_doc(path)


def test_write_doc_refuses_0d_arrays_and_read_doc_arrays_longer_than_the_file(tmp_path):
    path = tmp_path / "doc.txt"
    with pytest.raises(DimensionMismatch, match="cannot serialize scalar: ndim 0"):
        mio.write_doc(path, "bad", 1, [("scalar", np.array(1.5))])
    # a header that sizes more numbers than the file holds allocates nothing
    path.write_text("doc bad 1\na huge 100000 100000 100000\nend\n")
    with pytest.raises(DimensionMismatch, match=re.escape(f"{path}: unexpected end of file")):
        mio.read_doc(path)


def saved_documents(tmp_path, model_type):
    """A bundle, its reduction and the fields it was fitted on, from a small
    training set, saved under tmp_path; returns (path, load, save) triples."""
    rng = np.random.default_rng(8)
    seqs = [rand_postures(rng, 1, 2) + np.cumsum(rng.normal(scale=0.05, size=(8, 2, 3)), axis=0)
            for _ in range(6)]
    seqs = [s / np.linalg.norm(s, axis=-1, keepdims=True) for s in seqs]
    bundle = models.fit_emulator(seqs, "istvf", model_type, d1=2, d2=2, order=1)
    save_bundle(tmp_path / "bundle.txt", bundle)
    docs = [(tmp_path / "bundle.txt", load_bundle, save_bundle)]
    if bundle.spatial is not None:
        save_reduction(tmp_path / "reduction.txt", bundle.spatial, bundle.fpca)
        mio.write_flatfields(tmp_path / "fields.txt",
                             flatten.flatten_sequence(seqs, bundle.reference, bundle.kind))
        docs += [(tmp_path / "reduction.txt", load_reduction,
                  lambda path, loaded: save_reduction(path, *loaded)),
                 (tmp_path / "fields.txt", mio.read_flatfields, mio.write_flatfields)]
    return docs


def doc_entries(lines):
    """(line index, tag, name, dimensions, payload line count) of each entry
    of a document's lines."""
    out, i = [], 1
    while i < len(lines) - 1:
        tag, name, *dims = lines[i].split()
        dims = [int(d) for d in dims] if tag == "a" else []
        rows = math.prod(dims[:-1]) if tag == "a" and math.prod(dims) else 0
        out.append((i, tag, name, dims, rows))
        i += 1 + rows
    return out


@pytest.mark.parametrize("model_type", ["mvg", "ig", "var", "pwi"])
def test_load_then_save_reproduces_every_document(tmp_path, model_type):
    for path, load, save in saved_documents(tmp_path, model_type):
        save(tmp_path / "again.txt", load(path))
        assert (tmp_path / "again.txt").read_bytes() == path.read_bytes(), path.name


def test_missing_entries_name_the_file_and_the_entry(tmp_path):
    for model_type in ("mvg", "ig", "var", "pwi"):
        for path, load, _ in saved_documents(tmp_path, model_type):
            lines = path.read_text().splitlines(keepends=True)
            load(path)
            # every entry, arrays and all, is read
            entries = doc_entries(lines)
            assert len(entries) >= 5
            for i, _, entry, _, rows in entries:
                path.write_text("".join(lines[:i] + lines[i + 1 + rows:]))
                with pytest.raises(DimensionMismatch,
                                   match=re.escape(f"{path}: missing entry {entry!r}")):
                    load(path)


@pytest.mark.parametrize("model_type", ["mvg", "ig", "var", "pwi"])
def test_mistyped_entries_name_the_file_and_the_entry(tmp_path, model_type):
    """Each entry written under another tag or rank that still parses (a
    scalar as a string, a string as none, an array as none, an array with
    one more axis of length 1) is refused with a DimensionMismatch naming
    the file and the entry."""
    for path, load, _ in saved_documents(tmp_path, model_type):
        lines = path.read_text().splitlines(keepends=True)
        load(path)
        retyped = []  # (line index, replacement, payload lines it replaces)
        for i, tag, entry, dims, rows in doc_entries(lines):
            if tag in ("i", "f", "x"):
                retyped.append((i, "s" + lines[i][1:], 0))
            elif tag == "s" and len(lines[i].split()) > 2:
                retyped.append((i, "x" + lines[i][1:], 0))
            elif tag == "a":
                retyped.append((i, f"a {entry} 1 {' '.join(map(str, dims))}\n", 0))
                retyped.append((i, f"x {entry} none\n", rows))
        assert len(retyped) >= 5
        for i, line, payload in retyped:
            entry = line.split()[1]
            path.write_text("".join(lines[:i] + [line] + lines[i + 1 + payload:]))
            with pytest.raises(DimensionMismatch,
                               match=re.escape(f"{path}: entry {entry!r} is tagged")):
                load(path)


# (model_type, entry) -> what the refusal says after the file name
DISAGREEMENTS = {
    ("ig", "length"): "entry 'length' = 6 does not match 'fpca.means' (2, 7)",
    ("mvg", "length"): "entry 'length' = 9 does not match 'fpca.means' (2, 7)",
    ("ig", "model_type"): "missing entry 'model.covariance'",
    ("mvg", "model_type"): "missing entry 'model.coef'",
    ("mvg", "fpca.bases"): "entry 'fpca.bases' (2, 6, 2) does not match 'fpca.means' (2, 7)",
    ("mvg", "model.covariance"):
        "entry 'model.covariance' (3, 3) does not match 'fpca.bases' (2, 7, 2)",
    ("ig", "model.variances"): "entry 'model.variances' (3,) does not match 'fpca.bases' (2, 7, 2)",
    ("var", "model.coef"): "entry 'var_init' (2, 1) does not match 'model.coef' (2, 2, 2)",
    ("pwi", "model.covariances"):
        "entry 'model.covariances' (7, 4, 4) does not match 'model.means' (8, 2, 3)",
    ("mvg", "start.postures"): "entry 'start.postures' (1, 1, 3) does not match 'reference' (2, 3)",
    ("ig", "start.postures"): "entry 'start.postures' (1, 2, 2) does not match 'reference' (2, 3)",
    ("mvg", "meta"): "entry 'meta' is not a JSON object",
    ("pwi", "meta"): "entry 'meta' is not a JSON object",
    ("ig", "spatial.mean"): "entry 'spatial.mean' (3,) does not match 'spatial.basis' (4, 2)",
    ("mvg", "spatial.mean"): "entry 'spatial.mean' (6,) does not match 'reference' (2, 3)",
    ("mvg", "spatial.basis"): "entry 'fpca.means' (2, 7) does not match 'spatial.basis' (4, 1)",
    ("var", "spatial.basis"): "entry 'model.coef' (1, 2, 2) does not match 'spatial.basis' (4, 1)",
    ("var", "model.intercept"):
        "entry 'model.intercept' (3,) does not match 'spatial.basis' (4, 2)",
    ("var", "model.noise_cov"):
        "entry 'model.noise_cov' (1, 1) does not match 'spatial.basis' (4, 2)",
    ("mvg", "fpca.dt"): "entry 'fpca.dt' = 0.25 does not match 'length' = 8",
    # a VAR path of order 1 needs one column, which a 1-frame istvf grid lacks
    ("var", "length"): "entry 'length' = 1 does not match 'model.coef' (1, 2, 2)",
    ("ig", "fpca.dt"): "entry 'fpca.dt' = 0.125 does not match 'length' = 8",
}


def two_more_rows(a):
    return np.concatenate([a, a[:2]])


@pytest.mark.parametrize("model_type, entry, new", [
    ("ig", "length", 6), ("mvg", "length", 9), ("ig", "model_type", "mvg"),
    ("mvg", "model_type", "var"), ("mvg", "fpca.bases", lambda a: a[:, 1:]),
    ("mvg", "model.covariance", lambda a: a[1:, 1:]), ("ig", "model.variances", lambda a: a[1:]),
    ("var", "model.coef", lambda a: np.concatenate([a, a])),
    ("pwi", "model.covariances", lambda a: a[1:]), ("mvg", "start.postures", lambda a: a[:, 1:]),
    ("ig", "start.postures", lambda a: a[..., :2]),
    ("mvg", "meta", "{bad"), ("pwi", "meta", "[1]"),
    ("mvg", "kind", "mtvf"), ("ig", "kind", "stvf"), ("var", "kind", "intrinsic"),
    ("pwi", "kind", "istvf"), ("mvg", "kind", "bogus"),
    ("ig", "spatial.mean", lambda a: a[:-1]),
    ("mvg", "spatial.mean", {"spatial.mean": two_more_rows, "spatial.basis": two_more_rows}),
    ("mvg", "spatial.basis", lambda a: a[:, :1]), ("var", "spatial.basis", lambda a: a[:, :1]),
    ("var", "model.intercept", lambda a: np.append(a, 0.0)),
    ("var", "model.noise_cov", lambda a: a[:1, :1]),
    ("mvg", "fpca.dt", 0.25), ("ig", "fpca.dt", 0.125), ("var", "length", 1)])
def test_size_entries_that_disagree_with_their_arrays_name_the_file_and_the_entry(
        tmp_path, model_type, entry, new):
    """A bundle whose length (the one size entry left) disagrees with its
    FPCA curves or their time step, or gives a VAR fewer columns than its
    order, whose arrays stored as separate entries disagree in shape
    (a spatial mean with its basis rows and with the reference's bones, the
    FPCA and VAR arrays with the basis columns), whose kind or model
    entries disagree with its model_type, or whose meta is not a JSON
    object, is refused on loading, naming the file and the entries, rather
    than loading and failing later inside simulate.  A dict rewrites
    several entries."""
    path = saved_documents(tmp_path, model_type)[0][0]
    _, _, doc = mio.read_doc(path)
    for name, value in (new if isinstance(new, dict) else {entry: new}).items():
        rewrite(path, name, value(doc[name]) if callable(value) else value)
    message = DISAGREEMENTS.get((model_type, entry),
                                f"entry 'kind' = {new} does not match 'model_type' = {model_type}")
    with pytest.raises(DimensionMismatch, match=re.escape(f"{path}: {message}")):
        load_bundle(path)


def test_a_reduction_whose_spatial_basis_disagrees_with_its_fpca_is_refused(tmp_path):
    """Refused on loading, naming the file and the entries, rather than
    loading and failing later inside fit."""
    path = saved_documents(tmp_path, "mvg")[1][0]
    _, _, doc = mio.read_doc(path)
    rewrite(path, "spatial.basis", doc["spatial.basis"][:, :1])
    message = "entry 'fpca.means' (2, 7) does not match 'spatial.basis' (4, 1)"
    with pytest.raises(DimensionMismatch, match=re.escape(f"{path}: {message}")):
        load_reduction(path)


def test_readers_refuse_other_document_types_versions_and_model_types(tmp_path):
    """Each document reader refuses a document of another type, or of its
    own type at another version, naming the file; a bundle of an unknown
    model_type is refused naming the file and the model_type."""
    docs = {path.name: (path, load) for path, load, _ in saved_documents(tmp_path, "mvg")}
    for name, other, wanted in [("bundle.txt", "reduction.txt", "version-2 emulator-bundle"),
                                ("reduction.txt", "fields.txt", "version-2 reduction"),
                                ("fields.txt", "bundle.txt", "version-1 flatfields")]:
        path, load = docs[name]
        head, rest = path.read_text().split("\n", 1)
        tag, doctype, version = head.split()
        path.write_text(f"{tag} {doctype} {int(version) + 1}\n{rest}")
        for bad in (docs[other][0], path):
            with pytest.raises(DimensionMismatch,
                               match=re.escape(f"{bad}: not a {wanted} document")):
                load(bad)
        path.write_text(f"{head}\n{rest}")
    path = docs["bundle.txt"][0]
    rewrite(path, "model_type", "gp")
    with pytest.raises(KindMismatch, match=re.escape(f"{path}: unknown model_type 'gp'")):
        load_bundle(path)


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


def row_writer_cases():
    """Arrays on which the numpy row writer is held to '%.17g' byte for byte:
    exact ties, powers of ten and their neighbours, digits next to a carry, the
    edges of its positional range, subnormals, random bit patterns and rows
    that span several blocks."""
    rng = np.random.default_rng(12)
    powers = np.array([10.0 ** p for p in range(-8, 18)])
    edges = np.array([1e-4, 1e16, 1.0, 0.1, 9.5, 99.5, 0.5e-4])
    around = lambda x: np.stack([x, np.nextafter(x, 0), np.nextafter(x, np.inf)], axis=1)
    # odd n / 2**m has m decimal places: between 10**(17 - m) and 10**(18 - m)
    # that makes 18 significant digits, so rounding to 17 is an exact tie
    bounds = [(m, 10 ** 17 * 2 ** m // 10 ** m, 10 ** 18 * 2 ** m // 10 ** m) for m in range(3, 22)]
    ties = [np.ldexp(2 * rng.integers(lo // 2 + 1, hi // 2, 8) + 1, -m) for m, lo, hi in bounds]
    yield "ties", np.array(ties)
    yield "powers of ten", np.concatenate([around(powers), -around(powers)], axis=1)
    yield "carries and edges", np.concatenate([around(edges), -around(edges)], axis=1)
    yield "subnormals", rng.integers(1, 2 ** 52, (16, 8)).view(np.float64) * [[1, -1] * 4]
    yield "bit patterns", rng.integers(-2 ** 63, 2 ** 63 - 1, (256, 16)).view(np.float64)
    spread = 10.0 ** rng.uniform(-12, 20, (400, 5)) * rng.choice([-1.0, 1.0], (400, 5))
    yield "magnitudes", spread
    yield "rows over blocks", rng.standard_normal((5, 3 * mio._BLOCK + 7))
    yield "blocks over rows", rng.standard_normal((2 * mio._BLOCK // 3 + 1, 3, 7))


def first_line_off_per_value_format(rows):
    """The first line (number, written, expected) where the row writer's
    output differs from a per-value format(v, ".17g"), or None."""
    fh = io.StringIO()
    mio._write_rows(fh, rows)
    expected = ("".join(" ".join(format(float(v), ".17g") for v in row) + "\n"
                        for row in rows.reshape(-1, rows.shape[-1])) if rows.size else "")
    lines = zip_longest(fh.getvalue().split("\n"), expected.split("\n"))
    return next(((i, got, want) for i, (got, want) in enumerate(lines) if got != want), None)


@given(arrays(np.float64, shapes((0, 5), (0, 7)), elements=ANY_FLOAT))
def test_row_writer_bytes_equal_per_value_format(rows):
    assert first_line_off_per_value_format(rows) is None


@pytest.mark.parametrize("name, rows", row_writer_cases())
def test_row_writer_bytes_equal_per_value_format_on_hard_cases(name, rows):
    assert first_line_off_per_value_format(rows) is None


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


def pinned(inside):
    """Warps through the sorted rows of inside, pinned to 0 and 1."""
    ends = np.ones((len(inside), 1))
    return np.hstack([0.0 * ends, np.sort(inside, axis=1), ends])


@given(st.one_of(
    arrays(np.float64, shapes((1, 4), (0, 7)), unique=True,
           elements=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)).map(pinned),
    arrays(np.float64, shapes((1, 4), (2, 9)), elements=FINITE)))
def test_warps_roundtrip_bitwise_property(warps):
    """Warps read back bitwise, unless check_warp refuses one: then the
    reader refuses the first such warp naming the file and its index."""
    refusals = []
    for i, warp in enumerate(warps):
        try:
            check_warp(warp)
        except MotionError as exc:
            refusals.append((type(exc), f"warp {i}: {exc}"))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "warps.txt"
        mio.write_warps(path, list(warps))
        if refusals:
            error, message = refusals[0]
            with pytest.raises(error, match=re.escape(f"{path}: {message}")):
                mio.read_warps(path)
        else:
            assert same_bits(warps, mio.read_warps(path))


@given(arrays(np.float64, st.tuples(st.integers(2, 5), st.integers(1, 4), st.just(3)),
              elements=st.floats(-1.0, 1.0)),
       arrays(np.float64, shapes((1, 3), (2, 6)), elements=FINITE),
       st.sampled_from(FLATTEN_KINDS))
def test_flatfields_roundtrip_bitwise_property(postures, cols, kind):
    ref, *starts = unit_rows(postures)
    k, m = ref.shape[0], len(starts)
    values = np.resize(cols.ravel(), (m, 2 * k, cols.shape[1]))
    values[1::2] *= -1.0
    fields = FlatFields(kind, ref, np.stack(starts), values, 0.0)
    fields.dt = flatten.grid_dt(fields.frames)  # the one dt the reader takes
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fields.txt"
        mio.write_flatfields(path, fields)
        back = mio.read_flatfields(path)
        mio.write_flatfields(Path(tmp) / "again.txt", back)
        assert path.read_bytes() == (Path(tmp) / "again.txt").read_bytes()
    assert (back.kind, len(back), same_bits(fields.dt, back.dt)) == (kind, m, True)
    for name in ("reference", "starts", "values"):
        assert same_bits(getattr(fields, name), getattr(back, name)), name


@given(st.lists(arrays(np.float64, array_shapes(min_dims=1, max_dims=4, min_side=0, max_side=3),
                       elements=NUMBER), min_size=1, max_size=4))
def test_doc_vectors_and_matrices_roundtrip_bitwise_property(values):
    # arrays of rank 1 to 4, zero dimensions included; every array is
    # followed by another entry, so a stray payload line shows.  A document
    # holding an infinity is refused naming its first entry and row.
    items, bad = [], None
    for i, v in enumerate(values):
        items += [(f"a{i}", v), (f"n{i}", i)]
        rows = ~np.isfinite(v.reshape(math.prod(v.shape[:-1]), v.shape[-1])).all(axis=1)
        if bad is None and rows.any():
            bad = f"entry 'a{i}', row {int(np.argmax(rows))}: non-finite value"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.txt"
        mio.write_doc(path, "arrays", 1, items)
        if bad is not None:
            with pytest.raises(DimensionMismatch, match=re.escape(f"{path}: {bad}")):
                mio.read_doc(path)
            return
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
