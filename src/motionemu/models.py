"""Generative models over reduced motion representations.

Coefficient models treat the (d1, d2) coefficient matrix of each training
sequence as one draw of a zero-mean Gaussian vector: either with a full
covariance (MVG) or independent per-coefficient variances (IG).  A vector
autoregression models the spatial score rows directly as a lagged linear
system.  The posture-wise independent model (PWI) skips flattening
altogether: it keeps a per-frame intrinsic mean and tangent covariance
and samples every frame independently.

An EmulatorBundle packages one fitted route end to end (reference
posture, reduction stages, model, start-posture policy) so new sequences
can be simulated, and persisted, from a single object.
"""

from dataclasses import dataclass, field as dc_field
from math import prod

import numpy as np

from . import dimred, flatten
from . import geometry as geo
from .dimred import FPCABasis, SpatialPCA
from .errors import (BadTarget, DimensionMismatch, InsufficientData, KindMismatch,
                     SingularCovariance)
from .flatten import FlatFields

# Relative diagonal jitter applied to covariances before factorization.
JITTER_SCALE = 1e-10

START_POLICIES = ("training-mean", "fixed", "sampled-from-training")


@dataclass
class MVGModel:
    """Zero-mean Gaussian over vectorized (row-major) coefficient matrices."""

    covariance: np.ndarray
    jitter: float
    shape: tuple

    @property
    def dim(self) -> int:
        return int(self.covariance.shape[0])


@dataclass
class IGModel:
    """Independent zero-mean Gaussians, one variance per coefficient."""

    variances: np.ndarray
    jitter: float
    shape: tuple

    @property
    def dim(self) -> int:
        return int(self.variances.shape[0])


def fit_mvg(coeffs) -> MVGModel:
    """Sample covariance of vectorized coefficients about zero mean
    (denominator M-1), plus a relative jitter used only when sampling."""
    coeffs = geo._check_set(coeffs, 2, "coefficient matrices")
    v = coeffs.reshape(len(coeffs), -1)
    cov = v.T @ v / (len(coeffs) - 1)
    cov = (cov + cov.T) / 2.0
    d = cov.shape[0]
    return MVGModel(covariance=cov, jitter=JITTER_SCALE * float(np.trace(cov)) / d,
                    shape=coeffs.shape[1:])


def fit_ig(coeffs) -> IGModel:
    """Diagonal of the MVG fit: per-coefficient variances."""
    full = fit_mvg(coeffs)
    return IGModel(variances=np.diag(full.covariance).copy(), jitter=full.jitter,
                   shape=full.shape)


def _gaussian_factor(cov):
    """Symmetric factor F with F F^T = cov (eigenvalues clamped at zero), of
    one covariance or of each in a stack, with the bits of one call each."""
    w, q = np.linalg.eigh((cov + np.swapaxes(cov, -1, -2)) / 2.0)
    return q * np.sqrt(np.clip(w, 0.0, None))[..., None, :]


def sample_coeffs(model, count: int, seed=None):
    """Draw a (count, d1, d2) array of coefficient matrices from a fitted
    MVG or IG model.

    Deterministic for a given seed; the jitter recorded on the model is
    added to the covariance diagonal before factorization.
    """
    rng = np.random.default_rng(seed)
    if count < 0:
        raise BadTarget("count must be nonnegative")
    if not isinstance(model, (MVGModel, IGModel)):
        raise KindMismatch(f"cannot sample coefficients from {type(model).__name__}")
    z = rng.standard_normal((count, model.dim))
    if isinstance(model, MVGModel):
        factor = _gaussian_factor(model.covariance + model.jitter * np.eye(model.dim))
        draws = z @ factor.T
    else:
        draws = z * np.sqrt(model.variances + model.jitter)
    return draws.reshape((count,) + tuple(model.shape))


def logliks(coeffs, model) -> np.ndarray:
    """Gaussian log-densities of a batch of coefficient matrices (a list or
    an (N, ...) array) under the model, as an (N,) array.

    Uses the raw fitted covariance (no jitter); a covariance that cannot
    be factorized raises SingularCovariance.  An MVG batch takes one
    triangular-factor solve for all N vectors, so its entries may differ
    from one-vector calls in the last bits; a one-vector batch and every
    IG batch give the per-vector bits.
    """
    try:
        x = np.asarray(coeffs, dtype=float)
    except ValueError:
        raise DimensionMismatch("coefficient matrices must share their shape") from None
    if not isinstance(model, (MVGModel, IGModel)):
        raise KindMismatch(f"no density for {type(model).__name__}")
    if x.ndim == 0:
        raise DimensionMismatch("expected a batch of coefficient matrices")
    # an empty list is an empty batch; any other shape keeps its row size
    x = x.reshape(0, model.dim) if x.shape == (0,) else x.reshape(len(x), prod(x.shape[1:]))
    if x.shape[1] != model.dim:
        raise DimensionMismatch("coefficient size does not match the model")
    if isinstance(model, IGModel):
        if np.any(model.variances <= 0.0):
            raise SingularCovariance("a coefficient variance is zero")
        quad = np.sum(x * x / model.variances, axis=1)
        logdet = float(np.sum(np.log(model.variances)))
    else:
        try:
            chol = np.linalg.cholesky(model.covariance)
        except np.linalg.LinAlgError:
            raise SingularCovariance("covariance is not positive definite") from None
        y = np.ascontiguousarray(np.linalg.solve(chol, x.T).T)
        quad = np.array([row @ row for row in y])  # one dot each, as for one vector
        logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
    return -0.5 * (model.dim * np.log(2.0 * np.pi) + logdet + quad)


def loglik(coeff, model) -> float:
    """Gaussian log-density of one coefficient matrix: the one-element
    case of logliks."""
    return float(logliks([coeff], model)[0])


@dataclass
class VARModel:
    """Vector autoregression of order p on spatial score rows: scores(t) =
    intercept + sum_i coef[i] @ scores(t-i) + noise."""

    order: int
    coef: np.ndarray        # (p, d1, d1)
    intercept: np.ndarray   # (d1,)
    noise_cov: np.ndarray   # (d1, d1)

    @property
    def dim(self) -> int:
        return int(self.intercept.shape[0])


def fit_var(scores, order: int = 4) -> VARModel:
    """Least-squares fit of a VAR(p) to one score matrix (d1, L) or a set
    of them (regressions pooled across sequences): an (M, d1, L) array or
    a list, whose matrices may differ in length.

    Rank-deficient designs (for example a constant series, whose lags are
    collinear with the intercept) fall back to the minimum-norm solution.
    """
    if order < 1:
        raise BadTarget("order must be at least 1")
    if not isinstance(scores, (list, tuple)) and np.ndim(scores) != 3:
        scores = [scores]
    matrices = [np.asarray(s, dtype=float) for s in scores]
    if not matrices:
        raise InsufficientData("no score matrices to fit")
    d1 = matrices[0].shape[0]
    xs, ys = [], []
    for h in matrices:
        if h.ndim != 2 or h.shape[0] != d1:
            raise DimensionMismatch("score matrices must share their row count")
        length = h.shape[1]
        if length <= d1 * order + 1:
            raise InsufficientData(f"series length {length} too short for order {order}")
        cols = [np.ones(length - order)]
        for lag in range(1, order + 1):
            cols.append(h[:, order - lag:length - lag].T)
        xs.append(np.column_stack(cols))
        ys.append(h[:, order:].T)
    x = np.concatenate(xs, axis=0)
    y = np.concatenate(ys, axis=0)
    beta, _, _, _ = np.linalg.lstsq(x, y, rcond=None)
    resid = y - x @ beta
    dof = max(x.shape[0] - x.shape[1], 1)
    noise = resid.T @ resid / dof
    # C order, like a reloaded coef, so simulate_var gives both the same bits
    coef = np.ascontiguousarray([beta[1 + i * d1: 1 + (i + 1) * d1, :].T for i in range(order)])
    return VARModel(order=order, coef=coef, intercept=beta[0, :].copy(),
                    noise_cov=(noise + noise.T) / 2.0)


def simulate_var(model: VARModel, length: int, init, seed=None):
    """Iterate the fitted recursion from observed initial lags.

    init has shape (d1, p): the first p columns of the output.  Noise is
    drawn from the fitted residual covariance; a zero covariance gives a
    deterministic trajectory.
    """
    init = np.asarray(init, dtype=float)
    p = model.order
    if init.shape != (model.dim, p):
        raise DimensionMismatch(f"init must be ({model.dim}, {p}), got {init.shape}")
    if length < p:
        raise BadTarget(f"length {length} shorter than the order {p}")
    rng = np.random.default_rng(seed)
    factor = _gaussian_factor(model.noise_cov)
    out = np.empty((model.dim, length))
    out[:, :p] = init
    for t in range(p, length):
        acc = model.intercept.copy()
        for i in range(1, p + 1):
            acc += model.coef[i - 1] @ out[:, t - i]
        out[:, t] = acc + factor @ rng.standard_normal(model.dim)
    return out


@dataclass
class PWIModel:
    """Per-frame intrinsic means with tangent-space covariances; frames
    are treated as independent."""

    means: np.ndarray       # (T, n-1, 3)
    covariances: np.ndarray  # (T, D, D) with D = 2*(n-1)
    diagonal: bool

    @property
    def length(self) -> int:
        return int(self.means.shape[0])


def fit_pwi(seqs, diagonal: bool = False) -> PWIModel:
    """Fit the posture-wise model: per frame, the intrinsic mean of the
    training postures and the covariance of their log coordinates
    (denominator M-1).  diagonal=True keeps only per-coordinate variances."""
    stack = geo._check_set(seqs, 2, "sequences")
    t, bones, _ = geo._check_postures(stack[0], least=1).shape
    m, dim = stack.shape[0], 2 * bones
    means = geo.karcher_mean(stack)
    covs = np.empty((t, dim, dim))
    # sphere_log keeps about six frames' worth of temporaries live
    step = geo._block_items(6 * stack[:, 0].nbytes)
    for lo in range(0, t, step):
        frames, mu = stack[:, lo:lo + step], means[lo:lo + step]
        coords = np.swapaxes(geo.tangent_coords(mu, geo.sphere_log(mu, frames)), 0, 1)
        cov = np.swapaxes(coords, -1, -2) @ coords / (m - 1)
        if diagonal:
            # where() keeps the off-diagonal zeros positive, as written to files
            cov = np.where(np.eye(dim, dtype=bool), cov, 0.0)
        covs[lo:lo + step] = (cov + np.swapaxes(cov, -1, -2)) / 2.0
    return PWIModel(means=means, covariances=covs, diagonal=diagonal)


def _pwi_draws(model: PWIModel, count: int, rng):
    """count sequences as one (count, T, n-1, 3) array: every frame is the
    exponential of independent zero-mean tangent noise at that frame's mean
    posture.  One normal block holds the stream of count one-sequence draws."""
    z = rng.standard_normal((count, model.length, model.covariances.shape[1]))
    coords = np.einsum("tij,ntj->nti", _gaussian_factor(model.covariances), z)
    return geo.sphere_exp(model.means, geo.coords_to_tangent(model.means, coords))


def sample_pwi(model: PWIModel, seed=None):
    """Draw one sequence from the posture-wise model: the one-sequence case
    of simulate_sequence on a 'pwi' bundle."""
    return _pwi_draws(model, 1, np.random.default_rng(seed))[0]


# The reduction each model is fitted through (spatial + functional PCA, the
# spatial scores alone, or none) and the models with a density.
REDUCTIONS = {"mvg": "seqpca", "ig": "seqpca", "var": "spatialpca", "pwi": "none"}
DENSITY_MODELS = ("mvg", "ig")
# flattenings that back a reduced-field emulator; mtvf decodes lossily
EMULATOR_KINDS = ("istvf", "siem")


@dataclass
class EmulatorBundle:
    """One fitted emulation route, ready to simulate new sequences.

    kind is the flattening ('istvf' or 'siem') for coefficient and VAR
    models, or 'intrinsic' for the posture-wise route.  start_postures
    backs the start policy for velocity flattenings: the training-mean
    policy stores the intrinsic mean of the training starts, the other
    policies store the training starts themselves.
    """

    kind: str
    model_type: str
    model: object
    length: int
    reference: np.ndarray | None = None
    spatial: SpatialPCA | None = None
    fpca: FPCABasis | None = None
    start_policy: str = "training-mean"
    start_postures: np.ndarray | None = None
    var_init: np.ndarray | None = None
    meta: dict = dc_field(default_factory=dict)


def fit_bundle(fields: FlatFields, spatial: SpatialPCA, fpca: FPCABasis | None,
               model_type: str, order: int = 4, var_index: int = 0,
               start_policy: str = "training-mean") -> EmulatorBundle:
    """Fit a route's model on flattened fields through a fitted reduction
    and package the route as a bundle.  The fields' start postures back
    the start policy; 'var' fits the scores of field var_index, 'mvg' and
    'ig' the coefficient matrices (fpca is required for them, on the fields'
    time grid)."""
    if start_policy not in START_POLICIES:
        raise BadTarget(f"unknown start policy {start_policy!r}")
    if REDUCTIONS.get(model_type, "none") == "none":
        raise KindMismatch(f"model type {model_type!r} is not fitted on reduced fields")
    if not len(fields):
        raise InsufficientData("no fields to fit")
    if fields.kind not in EMULATOR_KINDS:
        raise KindMismatch(f"flattening kind {fields.kind!r} cannot back an emulator")
    if REDUCTIONS[model_type] == "seqpca":
        if fpca is None:
            raise KindMismatch("reduction lacks a functional basis")
        if fpca.dt != fields.dt:  # a reduction fitted on another time grid
            raise DimensionMismatch(f"fpca.dt {fpca.dt!r} is not the fields' dt {fields.dt!r}")
    scores = dimred.spatial_project(fields, spatial)
    starts = fields.starts
    if start_policy == "training-mean":
        starts = geo.karcher_mean(starts)[None]
    route = dict(kind=fields.kind, model_type=model_type, length=fields.frames,
                 reference=fields.reference, spatial=spatial,
                 start_policy=start_policy, start_postures=starts)
    if model_type == "var":
        if not 0 <= var_index < len(fields):
            raise BadTarget(f"var_index {var_index} out of range")
        return EmulatorBundle(model=fit_var(scores[var_index], order=order),
                              var_init=scores[var_index][:, :order].copy(),
                              meta={"count": len(fields), "var_index": var_index}, **route)
    coeffs = dimred.fpca_project(scores, fpca)
    model = fit_mvg(coeffs) if model_type == "mvg" else fit_ig(coeffs)
    return EmulatorBundle(model=model, fpca=fpca, meta={"count": len(fields)}, **route)


def fit_stages(seqs, kind, model_type, d1, d2, var1, var2, reference, order, var_index,
               start_policy, diagonal=False):
    """fit_emulator, returning (fields, bundle); (None, bundle) for pwi.  The
    bundle's spatial and fpca are the reduction fitted on the fields."""
    seqs = geo._check_set(seqs, 1, "sequences")
    if model_type not in REDUCTIONS:
        raise KindMismatch(f"unknown model type {model_type!r}")
    if model_type == "pwi":
        return None, EmulatorBundle(kind="intrinsic", model_type="pwi",
                                    model=fit_pwi(seqs, diagonal), length=seqs.shape[1],
                                    meta={"count": len(seqs)})
    if kind not in EMULATOR_KINDS:
        raise KindMismatch(f"flattening kind {kind!r} cannot back an emulator")
    fields = flatten.flatten_sequence(seqs, reference, kind)
    reduction = dimred.reduce_fields(fields, REDUCTIONS[model_type] == "seqpca", d1, d2,
                                     var1, var2)
    return fields, fit_bundle(fields, *reduction, model_type, order, var_index, start_policy)


def fit_emulator(seqs, kind: str = "istvf", model_type: str = "ig",
                 d1=None, d2=None, var1: float = 0.9, var2: float = 0.95,
                 reference=None, order: int = 4, var_index: int = 0,
                 start_policy: str = "training-mean", diagonal: bool = False) -> EmulatorBundle:
    """Fit a full emulation route on training sequences: 'pwi' by fit_pwi on
    the sequences, any other model by fit_bundle ('var' on the scores of
    sequence var_index) on their flattening at the reference (default: the
    intrinsic mean of all frames), reduced through its REDUCTIONS entry by
    dimred.reduce_fields (d1/d2 or var1/var2).  route.run_route shares it."""
    return fit_stages(seqs, kind, model_type, d1, d2, var1, var2, reference, order, var_index,
                      start_policy, diagonal)[1]


def _pick_start(bundle: EmulatorBundle, rng):
    if bundle.start_policy == "sampled-from-training":
        return bundle.start_postures[rng.integers(bundle.start_postures.shape[0])]
    return bundle.start_postures[0]


def simulate_sequence(bundle: EmulatorBundle, count: int, seed=None):
    """Simulate new sequences from a fitted bundle.

    Returns one (count, T, n-1, 3) array.  All randomness flows from the
    seed; coefficient models run sample -> functional rebuild -> spatial
    rebuild -> unflatten, the VAR iterates its recursion, and the
    posture-wise model samples frames independently.  The rebuilt fields
    are decoded as one set (flatten.unflatten_field), posture-wise draws
    are made as one batch, and that batch is returned.
    """
    if count < 0:
        raise BadTarget("count must be nonnegative")
    rng = np.random.default_rng(seed)
    if bundle.model_type == "pwi":
        return _pwi_draws(bundle.model, count, rng)
    cols = flatten.field_columns(bundle.kind, bundle.length)
    if bundle.model_type == "var":
        scores = np.empty((count, bundle.spatial.dim, cols))
    else:
        scores = dimred.fpca_reconstruct(sample_coeffs(bundle.model, count, rng), bundle.fpca)
    starts = np.empty((count,) + bundle.reference.shape)
    for i in range(count):  # a VAR path is drawn after its start is picked
        starts[i] = _pick_start(bundle, rng)
        if bundle.model_type == "var":
            scores[i] = simulate_var(bundle.model, cols, bundle.var_init, rng)
    values = dimred.spatial_reconstruct(scores, bundle.spatial)
    del scores  # the decode reads only the rebuilt fields
    return flatten.unflatten_field(FlatFields(bundle.kind, bundle.reference, starts, values,
                                              flatten.grid_dt(bundle.length)))


def sequence_logliks(bundle: EmulatorBundle, seqs) -> np.ndarray:
    """Log-likelihoods of a set of sequences under a coefficient-model
    bundle: flatten the set and project it through both reductions, then
    evaluate the Gaussian on the whole batch at once (logliks)."""
    if bundle.model_type not in DENSITY_MODELS:
        raise KindMismatch("log-likelihood needs a coefficient-model bundle")
    if not len(seqs):  # an empty list has no sequence shape to flatten
        return logliks([], bundle.model)
    fields = flatten.flatten_sequence(seqs, bundle.reference, bundle.kind)
    scores = dimred.spatial_project(fields, bundle.spatial)
    return logliks(dimred.fpca_project(scores, bundle.fpca), bundle.model)
