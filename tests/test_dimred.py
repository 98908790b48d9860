import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motionemu.dimred import (
    FPCABasis,
    MPCAModel,
    SpatialPCA,
    fpca_fit,
    fpca_project,
    fpca_reconstruct,
    mpca_fit,
    mpca_project,
    mpca_reconstruct,
    reduce_fields,
    select_dims,
    seq_recon_error,
    spatial_pca_fit,
    spatial_project,
    spatial_reconstruct,
)
from motionemu.errors import DimensionMismatch, InsufficientData
from motionemu.flatten import FlatFields, flatten_sequence, unflatten_field

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])
REF = np.stack([E1, E3])
REF4 = np.stack([E1, E3, E2, np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)])


def make_fields(values, reference=REF, dt=None):
    """A set of istvf fields from a list or an (M, D, L) array of value
    matrices, every one starting at the reference."""
    values = np.asarray(values, dtype=float)
    starts = np.broadcast_to(reference, (len(values),) + reference.shape)
    return FlatFields("istvf", reference, starts, values,
                      dt if dt is not None else 1.0 / values.shape[2])


def curved_seq(ts, p1=0.0, p2=0.0, w=0.3):
    a = 1.2 * ts + w * np.sin(5.0 * ts + p1)
    b = 0.7 * np.sin(3.1 * ts + 0.4 + p2)
    bone1 = np.stack([np.cos(a) * np.cos(b), np.sin(a) * np.cos(b), np.sin(b)], axis=-1)
    c = 0.9 * ts + p2
    d = 0.5 * np.cos(2.3 * ts - p1)
    bone2 = np.stack([np.cos(c) * np.cos(d), np.sin(d), np.sin(c) * np.cos(d)], axis=-1)
    return np.stack([bone1, bone2], axis=1)


def max_principal_angle(a, b):
    svals = np.linalg.svd(a.T @ b, compute_uv=False)
    return float(np.arccos(np.clip(svals.min(), -1.0, 1.0)))


def test_select_dims_examples():
    assert select_dims(np.array([3.0, 1.0, 0.0]), 0.75) == 1
    assert select_dims(np.array([3.0, 1.0, 0.0]), 1.0) == 2
    assert select_dims(np.zeros(4), 0.9) == 0
    assert select_dims(np.array([5.0]), 0.5) == 1
    with pytest.raises(DimensionMismatch):
        select_dims(np.array([1.0, 2.0]), 0.0)
    with pytest.raises(DimensionMismatch):
        select_dims(np.array([1.0, 2.0]), 1.5)


def test_spatial_pca_identical_columns():
    column = np.array([0.4, -1.0, 0.2, 0.9])
    fields = make_fields([np.tile(column[:, None], (1, 6)) for _ in range(3)])
    pca = spatial_pca_fit(fields)
    assert pca.dim == 0
    assert pca.total_variance == 0.0
    np.testing.assert_allclose(pca.mean, column, atol=1e-15)


def test_spatial_pca_recovers_planted_subspace():
    rng = np.random.default_rng(5)
    u0, _ = np.linalg.qr(rng.standard_normal((8, 3)))
    mean = rng.standard_normal(8)
    fields = make_fields([mean[:, None] + u0 @ rng.standard_normal((3, 10)) for _ in range(6)],
                         reference=REF4)
    pca = spatial_pca_fit(fields, n_components=3)
    assert pca.basis.shape == (8, 3)
    assert max_principal_angle(pca.basis, u0) < 1e-6
    np.testing.assert_allclose(pca.basis.T @ pca.basis, np.eye(3), atol=1e-10)
    assert np.all(np.diff(pca.eigenvalues) <= 1e-12)


def test_spatial_pca_variance_accounting():
    rng = np.random.default_rng(6)
    fields = make_fields([rng.standard_normal((4, 7)) for _ in range(4)])
    pca = spatial_pca_fit(fields, n_components=4)
    assert pca.dim == 4
    np.testing.assert_allclose(pca.eigenvalues.sum(), pca.total_variance, rtol=1e-10)


def test_spatial_project_mean_field_is_zero():
    rng = np.random.default_rng(7)
    fields = make_fields([rng.standard_normal((4, 5)) for _ in range(3)])
    pca = spatial_pca_fit(fields, n_components=2)
    centered = make_fields([np.tile(pca.mean[:, None], (1, 5))])
    np.testing.assert_array_equal(spatial_project(centered, pca), np.zeros((1, 2, 5)))


def test_spatial_full_rank_roundtrip_and_pythagoras():
    rng = np.random.default_rng(8)
    fields = make_fields([rng.standard_normal((4, 6)) for _ in range(4)])
    full = spatial_pca_fit(fields, n_components=4)
    rebuilt = spatial_reconstruct(spatial_project(fields, full), full)
    np.testing.assert_allclose(rebuilt, fields.values, atol=1e-10)

    partial = spatial_pca_fit(fields, n_components=2)
    f = fields.values[0]
    rebuilt = spatial_reconstruct(spatial_project(fields, partial), partial)[0]
    err = np.linalg.norm(f - rebuilt)
    centered = f - partial.mean[:, None]
    orth = centered - partial.basis @ (partial.basis.T @ centered)
    np.testing.assert_allclose(err, np.linalg.norm(orth), atol=1e-10)


def test_spatial_pca_errors():
    with pytest.raises(InsufficientData):
        spatial_pca_fit(make_fields(np.zeros((0, 4, 5))))
    rng = np.random.default_rng(9)
    fields = make_fields([rng.standard_normal((4, 5)) for _ in range(3)])
    pca = spatial_pca_fit(fields, n_components=2)
    with pytest.raises(DimensionMismatch):
        spatial_project(make_fields([rng.standard_normal((8, 5))], reference=REF4), pca)
    with pytest.raises(DimensionMismatch):
        spatial_reconstruct(np.zeros((3, 5)), pca)


def test_fpca_identical_inputs_give_zero_coefficients():
    h = np.arange(12.0).reshape(2, 6)
    basis = fpca_fit([h.copy() for _ in range(4)], dt=1.0 / 6)
    assert basis.dims == (2, 1)
    np.testing.assert_allclose(fpca_project(h, basis), np.zeros((2, 1)), atol=1e-12)
    np.testing.assert_allclose(basis.eigenvalues, 0.0, atol=1e-12)


def test_fpca_recovers_planted_functions():
    rng = np.random.default_rng(10)
    length, m, dt = 20, 30, 1.0 / 20
    q, _ = np.linalg.qr(rng.standard_normal((length, 2)))
    b0 = q / np.sqrt(dt)
    mean = rng.standard_normal(length)
    hs = []
    for _ in range(m):
        c = rng.standard_normal(2) * np.array([3.0, 1.0])
        row = mean + b0 @ c
        hs.append(row[None, :])
    basis = fpca_fit(hs, dt=dt, n_components=2)
    fitted = basis.bases[0]
    gram = (b0.T @ fitted) * dt
    svals = np.linalg.svd(gram, compute_uv=False)
    assert np.arccos(np.clip(svals.min(), -1.0, 1.0)) < 1e-6
    assert np.all(basis.eigenvalues[0] >= 0.0)
    assert np.all(np.diff(basis.eigenvalues[0]) <= 1e-12)


def test_fpca_mean_input_projects_to_zero():
    rng = np.random.default_rng(11)
    hs = [rng.standard_normal((3, 8)) for _ in range(5)]
    basis = fpca_fit(hs, dt=0.125, n_components=2)
    a = fpca_project(basis.means.copy(), basis)
    np.testing.assert_allclose(a, np.zeros((3, 2)), atol=1e-12)
    np.testing.assert_allclose(fpca_reconstruct(a, basis), basis.means, atol=1e-12)


def test_fpca_project_reconstruct_identity_on_coefficients():
    rng = np.random.default_rng(12)
    hs = [rng.standard_normal((2, 9)) for _ in range(6)]
    basis = fpca_fit(hs, dt=1.0 / 9, n_components=4)
    a = rng.standard_normal(basis.means.shape[0] * basis.dims[1]).reshape(2, -1)
    back = fpca_project(fpca_reconstruct(a, basis), basis)
    np.testing.assert_allclose(back, a, atol=1e-12)


def test_fpca_full_dimension_reconstructs_inputs():
    rng = np.random.default_rng(13)
    length = 8
    hs = [rng.standard_normal((2, length)) for _ in range(12)]
    basis = fpca_fit(hs, dt=1.0 / length, n_components=length)
    assert basis.dims[1] == length
    for h in hs:
        rebuilt = fpca_reconstruct(fpca_project(h, basis), basis)
        np.testing.assert_allclose(rebuilt, h, atol=1e-9)


def test_fpca_truncation_error_is_monotone():
    rng = np.random.default_rng(14)
    hs = [rng.standard_normal((2, 10)) for _ in range(8)]
    basis = fpca_fit(hs, dt=0.1, n_components=7)
    d2 = basis.dims[1]
    for h in hs:
        a = fpca_project(h, basis)
        errors = []
        for keep in range(d2 + 1):
            trunc = a.copy()
            trunc[:, keep:] = 0.0
            errors.append(np.linalg.norm(h - fpca_reconstruct(trunc, basis)))
        assert np.all(np.diff(errors) <= 1e-10)


def test_fpca_errors():
    with pytest.raises(InsufficientData):
        fpca_fit([np.zeros((2, 5))], dt=0.2)
    rng = np.random.default_rng(15)
    hs = [rng.standard_normal((2, 5)) for _ in range(3)]
    basis = fpca_fit(hs, dt=0.2, n_components=2)
    with pytest.raises(DimensionMismatch):
        fpca_project(np.zeros((3, 5)), basis)
    with pytest.raises(DimensionMismatch):
        fpca_reconstruct(np.zeros((2, 5)), basis)


def test_fpca_fit_rejects_score_matrices_of_mixed_shapes():
    rng = np.random.default_rng(16)
    for other in ((3, 5), (2, 6)):
        scores = [rng.standard_normal((2, 5)), rng.standard_normal((2, 5)),
                  rng.standard_normal(other)]
        with pytest.raises(DimensionMismatch, match="mixed shapes"):
            fpca_fit(scores, dt=0.2)
    # one shape, but score vectors rather than (d1, T) matrices
    with pytest.raises(DimensionMismatch, match=re.escape("must be 2-d (d1, T), got shape (5,)")):
        fpca_fit([np.zeros(5)] * 3, dt=0.2)


def test_functional_reduction_of_constant_fields_names_rank_zero():
    # constant fields have a (4, 0) spatial basis, so no score rows
    fields = make_fields(np.ones((3, 4, 6)), dt=0.2)
    with pytest.raises(InsufficientData, match="rank 0"):
        reduce_fields(fields, True)
    with pytest.raises(InsufficientData, match="rank 0"):
        fpca_fit([np.zeros((0, 6))] * 3, dt=0.2)


def test_mpca_rank_one_captured_in_one_pass():
    rng = np.random.default_rng(16)
    u = rng.standard_normal(4)
    v = rng.standard_normal(9)
    fields = make_fields([np.outer(u, v) * s for s in (1.0, -0.5, 2.0, 0.3)])
    model = mpca_fit(fields, 1, 1)
    assert model.converged
    np.testing.assert_allclose(model.captured[0], model.total_variance, rtol=1e-10)


def test_mpca_full_dims_reconstruct():
    rng = np.random.default_rng(17)
    fields = make_fields([rng.standard_normal((4, 6)) for _ in range(5)])
    model = mpca_fit(fields, 4, 6)
    rebuilt = mpca_reconstruct(mpca_project(fields, model), model)
    np.testing.assert_allclose(rebuilt, fields.values, atol=1e-9)
    np.testing.assert_allclose(model.row_basis.T @ model.row_basis, np.eye(4), atol=1e-10)
    np.testing.assert_allclose(model.col_basis.T @ model.col_basis, np.eye(6), atol=1e-10)


def test_mpca_captured_variance_is_monotone():
    rng = np.random.default_rng(18)
    fields = make_fields([rng.standard_normal((4, 12)) for _ in range(10)])
    model = mpca_fit(fields, 2, 3)
    assert np.all(np.diff(model.captured) >= -1e-10 * model.total_variance)
    assert model.captured[-1] <= model.total_variance + 1e-9


def test_mpca_errors():
    rng = np.random.default_rng(19)
    values = rng.standard_normal((3, 4, 6))
    fields = make_fields(values)
    for few in (values[:0], values[:1]):
        with pytest.raises(InsufficientData):
            mpca_fit(make_fields(few), 1, 1)
    with pytest.raises(DimensionMismatch):
        mpca_fit(fields, 5, 2)
    with pytest.raises(DimensionMismatch):
        mpca_project(make_fields([rng.standard_normal((4, 7))]), mpca_fit(fields, 2, 2))


def test_full_dimension_pipeline_reproduces_sequences():
    rng = np.random.default_rng(20)
    ts = np.linspace(0.0, 1.0, 13)
    seqs = [curved_seq(ts, p1=rng.uniform(-0.5, 0.5), p2=rng.uniform(-0.5, 0.5),
                       w=rng.uniform(0.2, 0.4)) for _ in range(14)]
    fields = flatten_sequence(seqs, REF, "istvf")
    pca = spatial_pca_fit(fields, n_components=4)
    assert pca.dim == 4
    hs = spatial_project(fields, pca)
    basis = fpca_fit(hs, dt=fields.dt, n_components=12)
    assert basis.dims == (4, 12)
    h_back = fpca_reconstruct(fpca_project(hs, basis), basis)
    np.testing.assert_allclose(h_back, hs, atol=1e-9)
    rebuilt = spatial_reconstruct(h_back, pca)
    np.testing.assert_allclose(rebuilt, fields.values, atol=1e-8)
    decoded = unflatten_field(dataclasses.replace(fields, values=rebuilt))
    for seq, sequence in zip(seqs, decoded):
        assert seq_recon_error(seq, sequence) <= 1e-6


def test_seq_recon_error_identical_is_zero():
    ts = np.linspace(0.0, 1.0, 9)
    seq = curved_seq(ts)
    assert seq_recon_error(seq, seq.copy()) == 0.0


# ---- set products: the bits of one product per field ----------------------

@settings(max_examples=30, deadline=None)
@given(count=st.integers(2, 6), bones=st.integers(1, 12), length=st.integers(2, 40),
       seed=st.integers(0, 2**32 - 1))
def test_set_products_give_the_per_field_bits(count, bones, length, seed):
    """Each set product equals the one-field product written out."""
    rng = np.random.default_rng(seed)
    fields = make_fields(rng.standard_normal((count, 2 * bones, length)),
                         reference=np.tile(E1, (bones, 1)))
    d1, d2 = min(2 * bones, 3), min(length, 4)
    pca = spatial_pca_fit(fields, n_components=d1)
    scores = spatial_project(fields, pca)
    basis = fpca_fit(scores, dt=fields.dt, n_components=d2)
    coeffs = fpca_project(scores, basis)
    rows = fpca_reconstruct(coeffs, basis)
    model = mpca_fit(fields, d1, d2)
    cores = mpca_project(fields, model)
    sets = [scores, coeffs, rows, spatial_reconstruct(rows, pca), cores,
            mpca_reconstruct(cores, model)]
    for i, v in enumerate(fields.values):
        fields_alone = [
            pca.basis.T @ (v - pca.mean[:, None]),
            np.einsum("il,ilj->ij", scores[i] - basis.means, basis.bases) * basis.dt,
            basis.means + np.einsum("ij,ilj->il", coeffs[i], basis.bases),
            pca.mean[:, None] + pca.basis @ rows[i],
            model.row_basis.T @ (v - model.mean) @ model.col_basis,
            model.mean + model.row_basis @ cores[i] @ model.col_basis.T]
        for got, want in zip(sets, fields_alone):
            assert got[i].shape == want.shape and got[i].tobytes() == want.tobytes()
