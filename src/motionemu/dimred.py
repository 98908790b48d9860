"""Dimension reduction for flattened motion fields.

Two-stage sequential route: a spatial PCA pools every column of every
field and keeps d1 directions, turning each field into a (d1, L) score
matrix H; a functional PCA then models each of the d1 score rows as a
curve and keeps d2 basis functions per row, leaving a (d1, d2)
coefficient matrix per sequence.  A multilinear alternative compresses
the (2*(n-1), L) field tensors directly with one basis per mode.

Eigenvectors are sign-fixed (largest-magnitude entry positive) so fits
are reproducible run to run.
"""

from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from .errors import DimensionMismatch, InsufficientData
from .flatten import FlatFields

# Relative eigenvalue threshold under which spectrum entries count as zero rank.
RANK_RTOL = 1e-12
MPCA_TOL = 1e-8  # MPCA stops once an iteration gains under this share of the total variance
MPCA_MAX_ITER = 50  # or after this many iterations


def _fix_signs(basis):
    """Flip eigenvector columns so each one's largest-|entry| is positive."""
    idx = np.argmax(np.abs(basis), axis=0)
    signs = np.sign(basis[idx, np.arange(basis.shape[1])])
    signs[signs == 0] = 1.0
    return basis * signs


def _top_eigenpairs(sym, k=None):
    """Eigenpairs of a symmetric matrix, eigenvalues descending (the top k
    when k is given), eigenvectors as sign-fixed columns."""
    w, v = np.linalg.eigh(sym)
    order = np.argsort(w)[::-1][:k]
    return w[order], _fix_signs(v[:, order])


def select_dims(eigenvalues, threshold: float) -> int:
    """Smallest dimension whose cumulative spectrum share reaches threshold.

    Entries below RANK_RTOL times the largest eigenvalue are treated as
    zero, so a threshold of 1.0 returns the numerical rank.  An all-zero
    spectrum selects 0 dimensions.
    """
    if not 0.0 < threshold <= 1.0:
        raise DimensionMismatch(f"threshold must be in (0, 1], got {threshold}")
    ev = np.asarray(eigenvalues, dtype=float).copy()
    if ev.ndim != 1 or ev.size == 0:
        raise DimensionMismatch("need a 1-d spectrum")
    ev[ev < ev.max() * RANK_RTOL] = 0.0
    total = ev.sum()
    if total <= 0.0:
        return 0
    cumulative = np.cumsum(ev) / total
    return int(np.searchsorted(cumulative, threshold - 1e-12) + 1)


@dataclass
class SpatialPCA:
    """Pooled-column PCA: mean (D,), basis (D, d1), eigenvalues (d1,)."""

    mean: np.ndarray
    basis: np.ndarray
    eigenvalues: np.ndarray
    total_variance: float

    @property
    def dim(self) -> int:
        return int(self.basis.shape[1])


def spatial_pca_fit(fields: FlatFields, n_components=None, var_threshold=0.9) -> SpatialPCA:
    """Fit the pooled spatial PCA over all columns of all fields.

    Parameters
    ----------
    fields : FlatFields
        Their columns are pooled, field by field.
    n_components : int, optional
        Fixed d1; capped at the numerical rank of the pooled data.
    var_threshold : float
        Used to select d1 when n_components is None.
    """
    values = fields.values
    m, d, length = values.shape
    if m * length < 2:
        raise InsufficientData("need at least two pooled columns")
    # the mean and the constant test, one pooled column at a time: each
    # column's values are copied in pooled order, field by field, and summed
    # pairwise, which gives numpy's mean of the pooled matrix stored column
    # by column, bit for bit
    mean, constant = np.empty(d), True
    for c in range(d):
        col = np.ascontiguousarray(values[:, c]).ravel()
        mean[c] = col.sum()
        constant = constant and bool(np.all(col == col[0]))
    if constant:
        # constant data: the mean is the shared column and the rank is zero
        return SpatialPCA(mean=values[0, :, 0].copy(), basis=np.zeros((d, 0)),
                          eigenvalues=np.zeros(0), total_variance=0.0)
    mean /= m * length
    # TSQR (Demmel, Grigori, Hoemmen & Langou, SIAM J. Sci. Comput. 34(1),
    # 2012) on a flat tree: the R factor of the centred pooled rows so far,
    # stacked on the next block of them, gives the next R; the pooled matrix's
    # singular values and right vectors are R's, and U is never formed.  No
    # Gram matrix: its condition number would be the square of the one
    # RANK_RTOL is set for.  A block is whole fields' columns, or a run of one
    # field's, copied into buf below the running R.
    rows = max(d, geo._block_items(24 * d))  # buf and np.linalg.qr's two copies of it
    per, run = min(m, max(1, rows // length)), min(rows, length)
    cols = np.swapaxes(values, 1, 2)
    buf = np.empty((d + per * run, d))
    r = buf[:0]
    for i in range(0, m, per):
        for j in range(0, length, run):
            block = cols[i:i + per, j:j + run]
            x = buf[len(r):len(r) + block.shape[0] * block.shape[1]]
            np.copyto(x.reshape(block.shape), block)
            x -= mean
            buf[:len(r)] = r
            r = np.linalg.qr(buf[:len(r) + len(x)], mode="r")
    _, svals, vt = np.linalg.svd(r, full_matrices=False)
    eigenvalues = svals**2 / (m * length - 1)
    rank = int(np.sum(eigenvalues > eigenvalues.max() * RANK_RTOL)) if eigenvalues.size else 0
    if n_components is None:
        d1 = select_dims(eigenvalues, var_threshold)
    else:
        d1 = int(n_components)
        if d1 < 0:
            raise DimensionMismatch("n_components must be nonnegative")
    d1 = min(d1, rank)
    # C order, like a reloaded basis, so spatial_project gives both the same bits
    basis = np.ascontiguousarray(_fix_signs(vt[:d1].T))
    return SpatialPCA(mean=mean, basis=basis, eigenvalues=eigenvalues[:d1].copy(),
                      total_variance=float(eigenvalues.sum()))


def spatial_project(fields: FlatFields, pca: SpatialPCA):
    """Scores H = basis^T (values - mean) of every field, shape (M, d1, L)."""
    if fields.values.shape[1] != pca.mean.shape[0]:
        raise DimensionMismatch("fields do not match the fitted spatial PCA")
    return pca.basis.T @ (fields.values - pca.mean[:, None])


def spatial_reconstruct(scores, pca: SpatialPCA):
    """Field values mean + basis H from scores H: (..., d1, L) scores give
    (..., D, L) values; the mean is added in place."""
    scores = np.asarray(scores, dtype=float)
    if scores.ndim < 2 or scores.shape[-2] != pca.dim:
        raise DimensionMismatch(f"scores must be (..., d1, L) with d1={pca.dim}, got {scores.shape}")
    values = pca.basis @ scores
    values += pca.mean[:, None]
    return values


@dataclass
class FPCABasis:
    """Per-row functional PCA: means (d1, L), orthonormal bases
    (d1, L, d2) under the dt-weighted inner product, eigenvalues (d1, d2)."""

    means: np.ndarray
    bases: np.ndarray
    eigenvalues: np.ndarray
    dt: float

    @property
    def dims(self):
        return int(self.bases.shape[0]), int(self.bases.shape[2])


def fpca_fit(score_list, dt: float, n_components=None, var_threshold=0.95) -> FPCABasis:
    """Fit a functional PCA to each spatial score row across sequences.

    The inner product between curves is the dt-weighted dot product of
    their samples.  When n_components is None, d2 is the largest
    per-row selection at var_threshold so every row reaches it.
    """
    stack = geo._check_set(score_list, 2, "score matrices", axes=("d1", "T"))
    m, d1, length = stack.shape
    means = stack.mean(axis=0)
    dev = stack - means
    bases, values = [], []
    for i in range(d1):
        cov = dev[:, i, :].T @ dev[:, i, :] / (m - 1)
        w, v = _top_eigenpairs(cov)
        values.append(np.clip(w, 0.0, None) * dt)
        bases.append(v / np.sqrt(dt))
    values = np.stack(values)
    if n_components is None:
        picks = [select_dims(values[i], var_threshold) for i in range(d1)]
        d2 = max(max(picks), 1)
    else:
        d2 = int(n_components)
        if d2 < 1:
            raise DimensionMismatch("n_components must be positive")
    d2 = min(d2, length, m - 1)
    # C order, like a reloaded basis, so fpca_project gives both the same bits
    return FPCABasis(means=means,
                     bases=np.ascontiguousarray(np.stack([b[:, :d2] for b in bases])),
                     eigenvalues=values[:, :d2].copy(),
                     dt=dt)


def fpca_project(scores, basis: FPCABasis):
    """Coefficients a[i, j] = <row_i - mean_i, basis_ij> under the
    dt-weighted inner product: (..., d1, L) scores give (..., d1, d2)."""
    scores = np.asarray(scores, dtype=float)
    if scores.shape[-2:] != basis.means.shape:
        raise DimensionMismatch(f"scores shape {scores.shape} does not match fit {basis.means.shape}")
    dev = scores - basis.means
    return np.einsum("...il,ilj->...ij", dev, basis.bases) * basis.dt


def fpca_reconstruct(coeffs, basis: FPCABasis):
    """Rebuild score rows from coefficients, mean_i + sum_j a_ij basis_ij:
    (..., d1, d2) coefficients give (..., d1, L)."""
    coeffs = np.asarray(coeffs, dtype=float)
    d1, d2 = basis.dims
    if coeffs.shape[-2:] != (d1, d2):
        raise DimensionMismatch(f"coefficients must be (..., {d1}, {d2}), got {coeffs.shape}")
    return basis.means + np.einsum("...ij,ilj->...il", coeffs, basis.bases)


def reduce_fields(fields, functional: bool, d1=None, d2=None, var1=0.9, var2=0.95):
    """The sequential reduction shared by the library and the CLI.

    Fits the spatial PCA of the fields (d1, or var1 when d1 is None) and,
    when functional is true, the functional PCA of their score rows (d2,
    or var2).  Returns (spatial, fpca), with fpca None otherwise.
    """
    spatial = spatial_pca_fit(fields, n_components=d1, var_threshold=var1)
    if not functional:
        return spatial, None
    scores = spatial_project(fields, spatial)
    return spatial, fpca_fit(scores, dt=fields.dt, n_components=d2, var_threshold=var2)


@dataclass
class MPCAModel:
    """Multilinear PCA: mean tensor (D, L), row basis (D, d1), column
    basis (L, d2), captured-variance history and a convergence flag."""

    mean: np.ndarray
    row_basis: np.ndarray
    col_basis: np.ndarray
    captured: np.ndarray
    converged: bool
    total_variance: float = 0.0


def mpca_fit(fields, d1: int, d2: int) -> MPCAModel:
    """Fit a two-mode multilinear PCA by alternating maximization.

    Each half-step fixes one mode's basis and takes the top eigenvectors
    of the other mode's partially projected scatter, so the captured
    variance never decreases.  Stops when its improvement falls below
    MPCA_TOL of the total variance; MPCA_MAX_ITER iterations without that
    return the best iterate with converged=False.
    """
    x = fields.values
    m, rows, cols = x.shape
    if m < 2:
        raise InsufficientData(f"got {m} fields, need at least 2")
    if not (1 <= d1 <= rows and 1 <= d2 <= cols):
        raise DimensionMismatch(f"target dims ({d1}, {d2}) exceed tensor shape ({rows}, {cols})")
    mean = x.mean(axis=0)
    c = x - mean
    total = float(np.sum(c * c))
    u2 = _top_eigenpairs(np.einsum("mdl,mdk->lk", c, c), d2)[1]
    u1 = None
    history = []
    converged = False
    for _ in range(MPCA_MAX_ITER):
        proj2 = c @ u2
        u1 = _top_eigenpairs(np.einsum("mdj,mej->de", proj2, proj2), d1)[1]
        proj1 = np.einsum("de,mdl->mel", u1, c)
        u2 = _top_eigenpairs(np.einsum("mil,mik->lk", proj1, proj1), d2)[1]
        core = np.einsum("mel,lk->mek", proj1, u2)
        history.append(float(np.sum(core * core)))
        if len(history) > 1 and history[-1] - history[-2] <= MPCA_TOL * max(total, 1e-300):
            converged = True
            break
    return MPCAModel(mean=mean, row_basis=u1, col_basis=u2,
                     captured=np.array(history), converged=converged,
                     total_variance=total)


def mpca_project(fields: FlatFields, model: MPCAModel):
    """Core tensors Z = U1^T (X - mean) U2 of every field, shape (M, d1, d2)."""
    if fields.values.shape[1:] != model.mean.shape:
        raise DimensionMismatch("fields do not match the fitted MPCA")
    return model.row_basis.T @ (fields.values - model.mean) @ model.col_basis


def mpca_reconstruct(core, model: MPCAModel):
    """Field values mean + U1 Z U2^T from core tensors: (..., d1, d2) cores
    give (..., D, L) values."""
    core = np.asarray(core, dtype=float)
    expected = (model.row_basis.shape[1], model.col_basis.shape[1])
    if core.shape[-2:] != expected:
        raise DimensionMismatch(f"core must end in {expected}, got {core.shape}")
    return model.mean + model.row_basis @ core @ model.col_basis.T


def seq_recon_error(seq, reconstructed) -> float:
    """Mean per-frame posture distance between a sequence and its
    reconstruction through any reduce/rebuild route."""
    return geo.sequence_dist(seq, reconstructed)
