import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motionemu import dimred, flatten
from motionemu import geometry as geo
from motionemu.errors import (BadTarget, DimensionMismatch, InsufficientData,
                              KindMismatch, SingularCovariance)
from motionemu.models import (
    START_POLICIES,
    EmulatorBundle,
    IGModel,
    MVGModel,
    PWIModel,
    VARModel,
    fit_bundle,
    fit_emulator,
    fit_ig,
    fit_mvg,
    fit_pwi,
    fit_var,
    loglik,
    logliks,
    sample_coeffs,
    sample_pwi,
    sequence_logliks,
    simulate_sequence,
    simulate_var,
)
from motionemu.persist import load_bundle, save_bundle

E1 = np.array([1.0, 0.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])
REF = np.stack([E1, E3])


def curved_seq(ts, p1=0.0, p2=0.0, w=0.3):
    a = 1.2 * ts + w * np.sin(5.0 * ts + p1)
    b = 0.7 * np.sin(3.1 * ts + 0.4 + p2)
    bone1 = np.stack([np.cos(a) * np.cos(b), np.sin(a) * np.cos(b), np.sin(b)], axis=-1)
    c = 0.9 * ts + p2
    d = 0.5 * np.cos(2.3 * ts - p1)
    bone2 = np.stack([np.cos(c) * np.cos(d), np.sin(d), np.sin(c) * np.cos(d)], axis=-1)
    return np.stack([bone1, bone2], axis=1)


def training_set(count, t=21, seed=0):
    rng = np.random.default_rng(seed)
    ts = np.linspace(0.0, 1.0, t)
    return [curved_seq(ts, p1=rng.uniform(-0.5, 0.5), p2=rng.uniform(-0.5, 0.5),
                       w=rng.uniform(0.2, 0.4)) for _ in range(count)]


def test_fit_mvg_zero_and_shape_checks():
    zeros = [np.zeros((2, 3)) for _ in range(4)]
    model = fit_mvg(zeros)
    np.testing.assert_array_equal(model.covariance, np.zeros((6, 6)))
    assert model.jitter == 0.0
    assert model.shape == (2, 3)
    with pytest.raises(InsufficientData):
        fit_mvg(zeros[:1])
    with pytest.raises(DimensionMismatch):
        fit_mvg([np.zeros((2, 3)), np.zeros((3, 2))])


def test_fit_mvg_monte_carlo_recovery():
    rng = np.random.default_rng(1)
    sigma0 = np.diag([4.0, 1.0, 0.25])
    m = 500
    draws = rng.standard_normal((m, 3)) * np.sqrt(np.diag(sigma0))
    model = fit_mvg([d.reshape(1, 3) for d in draws])
    se = np.sqrt((np.outer(np.diag(sigma0), np.diag(sigma0)) + sigma0**2) / (m - 1))
    assert np.all(np.abs(model.covariance - sigma0) <= 5.0 * se)


def test_ig_variances_equal_mvg_diagonal():
    rng = np.random.default_rng(2)
    coeffs = [rng.standard_normal((2, 2)) for _ in range(10)]
    mvg = fit_mvg(coeffs)
    ig = fit_ig(coeffs)
    np.testing.assert_array_equal(ig.variances, np.diag(mvg.covariance))
    assert ig.jitter == mvg.jitter


def test_sample_coeffs_zero_covariance():
    model = MVGModel(covariance=np.zeros((4, 4)), jitter=0.0, shape=(2, 2))
    for draw in sample_coeffs(model, 5, seed=3):
        np.testing.assert_array_equal(draw, np.zeros((2, 2)))
    diag = IGModel(variances=np.zeros(4), jitter=0.0, shape=(2, 2))
    for draw in sample_coeffs(diag, 5, seed=3):
        np.testing.assert_array_equal(draw, np.zeros((2, 2)))


def test_sample_coeffs_monte_carlo_covariance():
    sigma0 = np.array([[2.0, 0.6, 0.0], [0.6, 1.0, -0.3], [0.0, -0.3, 0.5]])
    model = MVGModel(covariance=sigma0, jitter=0.0, shape=(3,))
    n = 10_000
    draws = np.stack([d for d in sample_coeffs(model, n, seed=4)])
    emp = draws.T @ draws / n
    se = np.sqrt((np.outer(np.diag(sigma0), np.diag(sigma0)) + sigma0**2) / n)
    assert np.all(np.abs(emp - sigma0) <= 5.0 * se)


def test_sample_coeffs_deterministic_and_kind_check():
    rng = np.random.default_rng(5)
    coeffs = [rng.standard_normal((2, 3)) for _ in range(8)]
    model = fit_ig(coeffs)
    a = sample_coeffs(model, 4, seed=11)
    b = sample_coeffs(model, 4, seed=11)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)
    with pytest.raises(KindMismatch):
        sample_coeffs(VARModel(1, np.zeros((1, 2, 2)), np.zeros(2), np.eye(2)), 1)


def test_loglik_analytic_values():
    model = MVGModel(covariance=np.eye(4), jitter=0.0, shape=(2, 2))
    assert abs(loglik(np.zeros((2, 2)), model) + 2.0 * np.log(2.0 * np.pi)) < 1e-14
    pair = MVGModel(covariance=np.eye(2), jitter=0.0, shape=(2,))
    expected = -np.log(2.0 * np.pi) - 1.0
    assert abs(loglik(np.array([1.0, 1.0]), pair) - expected) < 1e-14
    diag = IGModel(variances=np.ones(2), jitter=0.0, shape=(2,))
    assert abs(loglik(np.array([1.0, 1.0]), diag) - expected) < 1e-14


def test_loglik_matches_dense_solve_oracle():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((5, 5))
    sigma = a @ a.T + 0.5 * np.eye(5)
    model = MVGModel(covariance=sigma, jitter=0.0, shape=(5,))
    for _ in range(5):
        x = rng.standard_normal(5)
        sign, logdet = np.linalg.slogdet(sigma)
        assert sign > 0
        expected = -0.5 * (5 * np.log(2 * np.pi) + logdet + x @ np.linalg.solve(sigma, x))
        np.testing.assert_allclose(loglik(x, model), expected, rtol=1e-12)


def test_loglik_is_maximal_at_zero():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((3, 3))
    model = MVGModel(covariance=a @ a.T + np.eye(3), jitter=0.0, shape=(3,))
    at_zero = loglik(np.zeros(3), model)
    for _ in range(10):
        assert loglik(rng.standard_normal(3), model) <= at_zero


def test_loglik_singular_covariance():
    flat = IGModel(variances=np.array([1.0, 0.0]), jitter=0.0, shape=(2,))
    with pytest.raises(SingularCovariance):
        loglik(np.zeros(2), flat)
    rank1 = MVGModel(covariance=np.outer([1.0, 1.0], [1.0, 1.0]), jitter=0.0, shape=(2,))
    with pytest.raises(SingularCovariance):
        loglik(np.zeros(2), rank1)


def spiral_var_data(length, init, phi, intercept):
    h = np.empty((2, length))
    h[:, 0] = init
    for t in range(1, length):
        h[:, t] = intercept + phi @ h[:, t - 1]
    return h


def test_fit_var_recovers_noiseless_system():
    theta = 0.7
    phi = 0.95 * np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    intercept = np.array([0.3, -0.2])
    h = spiral_var_data(40, np.array([1.0, -1.0]), phi, intercept)
    model = fit_var(h, order=1)
    np.testing.assert_allclose(model.coef[0], phi, atol=1e-6)
    np.testing.assert_allclose(model.intercept, intercept, atol=1e-6)
    np.testing.assert_allclose(model.noise_cov, np.zeros((2, 2)), atol=1e-12)
    np.testing.assert_array_equal(model.noise_cov, model.noise_cov.T)

    pooled = fit_var([h, spiral_var_data(40, np.array([-2.0, 0.5]), phi, intercept)], order=1)
    np.testing.assert_allclose(pooled.coef[0], phi, atol=1e-6)


def test_fit_var_constant_series():
    h = np.ones((2, 30)) * np.array([[0.7], [-0.3]])
    model = fit_var(h, order=4)
    sim = simulate_var(model, 30, h[:, :4], seed=0)
    np.testing.assert_allclose(sim, h, atol=1e-6)


def test_simulate_var_zero_noise_is_deterministic():
    theta = 0.5
    phi = 0.9 * np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    model = VARModel(order=1, coef=phi[None], intercept=np.zeros(2), noise_cov=np.zeros((2, 2)))
    init = np.array([[1.0], [0.0]])
    a = simulate_var(model, 20, init, seed=1)
    b = simulate_var(model, 20, init, seed=999)
    np.testing.assert_array_equal(a, b)
    expected = spiral_var_data(20, np.array([1.0, 0.0]), phi, np.zeros(2))
    np.testing.assert_allclose(a, expected, atol=1e-12)


def test_var_validation():
    with pytest.raises(BadTarget):
        fit_var(np.zeros((2, 30)), order=0)
    with pytest.raises(InsufficientData):
        fit_var(np.zeros((2, 9)), order=4)
    model = VARModel(order=2, coef=np.zeros((2, 2, 2)), intercept=np.zeros(2),
                     noise_cov=np.eye(2))
    with pytest.raises(DimensionMismatch):
        simulate_var(model, 10, np.zeros((2, 3)))
    with pytest.raises(BadTarget):
        simulate_var(model, 1, np.zeros((2, 2)))


def test_fit_var_without_score_matrices_is_insufficient_data():
    for empty in ([], ()):
        with pytest.raises(InsufficientData):
            fit_var(empty, order=1)


def test_pwi_identical_training():
    ts = np.linspace(0.0, 1.0, 7)
    seq = curved_seq(ts)
    model = fit_pwi([seq.copy() for _ in range(4)])
    np.testing.assert_allclose(model.means, seq, atol=1e-12)
    assert np.max(np.abs(model.covariances)) < 1e-20
    sample = sample_pwi(model, seed=0)
    np.testing.assert_allclose(sample, seq, atol=1e-9)
    with pytest.raises(InsufficientData):
        fit_pwi([seq])


def pwi_per_frame(seqs, diagonal):
    """fit_pwi's means and covariances, one frame at a time."""
    stack = np.stack(seqs)
    means, covs = [], []
    for k in range(stack.shape[1]):
        mu = geo.karcher_mean(stack[:, k])
        coords = geo.tangent_coords(mu, geo.sphere_log(mu, stack[:, k]))
        cov = coords.T @ coords / (len(seqs) - 1)
        if diagonal:
            cov = np.diag(np.diag(cov))
        means.append(mu)
        covs.append((cov + cov.T) / 2.0)
    return np.stack(means), np.stack(covs)


@pytest.mark.parametrize("diagonal", [False, True])
def test_pwi_fit_equals_per_frame_loop_at_every_block_height(diagonal, monkeypatch):
    seqs = training_set(5, t=7, seed=41)
    means, covs = pwi_per_frame(seqs, diagonal)
    frame = 6 * np.stack(seqs)[:, 0].nbytes
    # blocks of 1 frame, of 3 (the last ragged at 1) and of all 7
    for budget in (frame, 3 * frame, 7 * frame, geo.BLOCK_BYTES):
        monkeypatch.setattr(geo, "BLOCK_BYTES", budget)
        model = fit_pwi(seqs, diagonal=diagonal)
        assert model.means.tobytes() == means.tobytes()
        assert model.covariances.tobytes() == covs.tobytes()
    if diagonal:
        off = ~np.eye(4, dtype=bool)
        assert np.all(model.covariances[:, off] == 0.0)
        assert not np.signbit(model.covariances[:, off]).any()


def test_pwi_fit_rejects_mixed_shapes_and_no_sequences():
    seq = curved_seq(np.linspace(0.0, 1.0, 7))
    with pytest.raises(DimensionMismatch):
        fit_pwi([seq, seq[:-1]])
    with pytest.raises(DimensionMismatch):
        fit_pwi([seq, seq[:, :1]])
    with pytest.raises(InsufficientData):
        fit_pwi([])


def test_pwi_samples_concentrate_with_variance():
    t = 5
    means = np.broadcast_to(REF, (t, 2, 3)).copy()
    scales = 0.02 * (1.0 + np.arange(t))
    covs = np.stack([(s**2) * np.eye(4) for s in scales])
    model = PWIModel(means=means, covariances=covs, diagonal=False)
    draws = [sample_pwi(model, seed=100 + i) for i in range(300)]
    spread = np.stack([geo.posture_dist(d, means) for d in draws]).mean(axis=0)
    assert np.all(np.diff(spread) > 0)


def test_pwi_noise_has_no_serial_correlation():
    t, m = 6, 500
    means = np.broadcast_to(REF, (t, 2, 3)).copy()
    covs = np.stack([0.01 * np.eye(4) for _ in range(t)])
    model = PWIModel(means=means, covariances=covs, diagonal=False)
    u = np.empty((m, t))
    for i in range(m):
        draw = sample_pwi(model, seed=i)
        coords = np.stack([
            geo.tangent_coords(means[k], geo.sphere_log(means[k], draw[k])) for k in range(t)])
        u[i] = coords[:, 0]
    for k in range(t - 1):
        corr = np.corrcoef(u[:, k], u[:, k + 1])[0, 1]
        assert abs(corr) < 4.0 / np.sqrt(m)


def test_fit_emulator_validation():
    seqs = training_set(3, t=9)
    with pytest.raises(InsufficientData):
        fit_emulator([])
    with pytest.raises(KindMismatch):
        fit_emulator(seqs, model_type="gan")
    with pytest.raises(KindMismatch):
        fit_emulator(seqs, kind="stvf")
    with pytest.raises(BadTarget):
        fit_emulator(seqs, start_policy="first")
    with pytest.raises(DimensionMismatch):
        fit_emulator([seqs[0], seqs[1][:5]])


def test_zero_covariance_bundle_simulates_mean_sequence():
    ts = np.linspace(0.0, 1.0, 11)
    seq = curved_seq(ts)
    bundle = fit_emulator([seq.copy() for _ in range(3)], kind="istvf", model_type="mvg",
                          d1=2, d2=1)
    assert np.max(np.abs(bundle.model.covariance)) < 1e-30
    sims = simulate_sequence(bundle, 3, seed=9)
    scores = dimred.fpca_reconstruct(np.zeros(bundle.model.shape), bundle.fpca)
    expected = flatten.unflatten_field(flatten.FlatFields(
        bundle.kind, bundle.reference, bundle.start_postures[:1],
        dimred.spatial_reconstruct(scores, bundle.spatial)[None], 1.0 / 10))[0]
    for sim in sims:
        np.testing.assert_allclose(sim, expected, atol=1e-12)


def test_simulation_closure_recovers_sampled_coefficients():
    seqs = training_set(20, t=21, seed=3)
    bundle = fit_emulator(seqs, kind="istvf", model_type="ig", d1=3, d2=4)
    count = 60
    sims = simulate_sequence(bundle, count, seed=42)
    sampled = sample_coeffs(bundle.model, count, np.random.default_rng(42))
    fields = flatten.flatten_sequence(sims, bundle.reference, bundle.kind)
    recovered = dimred.fpca_project(dimred.spatial_project(fields, bundle.spatial), bundle.fpca)
    np.testing.assert_allclose(recovered, sampled, atol=1e-6)
    emp = recovered.reshape(count, -1)
    emp_var = np.sum(emp * emp, axis=0) / count
    sig = bundle.model.variances
    se = np.sqrt(2.0 / count) * sig
    assert np.all(np.abs(emp_var - sig) <= 5.0 * se + 1e-12)


def test_simulation_is_seed_deterministic():
    seqs = training_set(8, t=13, seed=5)
    for model_type in ("ig", "mvg", "var", "pwi"):
        bundle = fit_emulator(seqs, model_type=model_type, d1=2, d2=2, order=2)
        a = simulate_sequence(bundle, 2, seed=77)
        b = simulate_sequence(bundle, 2, seed=77)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)
        assert all(s.shape == seqs[0].shape for s in a)
        norms = np.linalg.norm(a[0], axis=-1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)


def test_var_bundle_plumbing():
    seqs = training_set(6, t=21, seed=8)
    bundle = fit_emulator(seqs, model_type="var", d1=2, order=3, var_index=2)
    assert bundle.var_init.shape == (2, 3)
    assert bundle.meta["var_index"] == 2
    sims = simulate_sequence(bundle, 2, seed=1)
    assert sims[0].shape == seqs[0].shape
    with pytest.raises(BadTarget):
        fit_emulator(seqs, model_type="var", var_index=17)


def test_sequence_loglik_matches_manual_projection():
    seqs = training_set(12, t=17, seed=9)
    bundle = fit_emulator(seqs, kind="siem", model_type="mvg", d1=3, d2=3)
    target = seqs[0]
    field = flatten.flatten_sequence([target], bundle.reference, bundle.kind)
    coeff = dimred.fpca_project(dimred.spatial_project(field, bundle.spatial), bundle.fpca)[0]
    np.testing.assert_allclose(sequence_logliks(bundle, [target])[0],
                               loglik(coeff, bundle.model), rtol=1e-12)
    pwi_bundle = fit_emulator(seqs, model_type="pwi")
    with pytest.raises(KindMismatch):
        sequence_logliks(pwi_bundle, [target])


# ---- batched simulation: the same bits as decoding one field at a time ----

def per_sequence_simulation(bundle, count, seed):
    """simulate_sequence as one rebuilt field and one decode per sequence,
    with the same rng calls in the same order."""
    rng = np.random.default_rng(seed)
    cols = flatten.field_columns(bundle.kind, bundle.length)

    def pick_start():
        if bundle.start_policy == "sampled-from-training":
            return bundle.start_postures[rng.integers(bundle.start_postures.shape[0])]
        return bundle.start_postures[0]

    def decode(scores, start):
        values = dimred.spatial_reconstruct(scores, bundle.spatial)
        return flatten.unflatten_field(flatten.FlatFields(
            bundle.kind, bundle.reference, start[None], values[None],
            1.0 / (bundle.length - 1)))[0]

    out = []
    if bundle.model_type == "var":
        for _ in range(count):
            start = pick_start()
            out.append(decode(simulate_var(bundle.model, cols, bundle.var_init, rng), start))
        return out
    for coeff in sample_coeffs(bundle.model, count, rng):
        scores = dimred.fpca_reconstruct(coeff, bundle.fpca)
        out.append(decode(scores, pick_start()))
    return out


@pytest.mark.parametrize("policy", START_POLICIES)
@pytest.mark.parametrize("model_type,kind", [("mvg", "istvf"), ("ig", "istvf"),
                                             ("mvg", "siem"), ("var", "istvf")])
def test_simulate_sequence_equals_per_sequence_decode(model_type, kind, policy):
    seqs = training_set(9, t=15, seed=11)
    bundle = fit_emulator(seqs, kind=kind, model_type=model_type, d1=3, d2=3, order=2,
                          start_policy=policy)
    sims = simulate_sequence(bundle, 7, seed=123)
    expected = per_sequence_simulation(bundle, 7, 123)
    assert len(sims) == len(expected) == 7
    for sim, exp in zip(sims, expected):
        assert sim.shape == exp.shape == seqs[0].shape
        assert sim.tobytes() == exp.tobytes()


def test_fit_bundle_refuses_an_empty_set():
    seqs = training_set(6, t=11, seed=4)
    fields = flatten.flatten_sequence(seqs, seqs[0][0], "istvf")
    spatial, fpca = dimred.reduce_fields(fields, True, 2, 2)
    empty = dataclasses.replace(fields, starts=fields.starts[:0], values=fields.values[:0])
    for model_type in ("mvg", "ig", "var"):
        with pytest.raises(InsufficientData):
            fit_bundle(empty, spatial, fpca, model_type)


def test_fit_bundle_refuses_a_reduction_fitted_on_another_time_grid():
    """siem fields of 11 frames and istvf fields of 12 both have 11
    columns; a reduction of the first is on dt 1/10, the second on 1/11."""
    seqs = training_set(6, t=12, seed=4)
    siem = flatten.flatten_sequence([s[:11] for s in seqs], seqs[0][0], "siem")
    istvf = flatten.flatten_sequence(seqs, seqs[0][0], "istvf")
    assert siem.values.shape == istvf.values.shape
    spatial, fpca = dimred.reduce_fields(siem, True, 2, 2)
    for model_type in ("mvg", "ig"):
        with pytest.raises(DimensionMismatch, match=r"fpca\.dt 0\.1 is not the fields. dt "
                                                     r"0\.09090909090909091"):
            fit_bundle(istvf, spatial, fpca, model_type)
    fit_bundle(istvf, spatial, None, "var")  # a VAR has no time grid of its own


@pytest.mark.parametrize("kind", ["stvf", "mtvf"])
def test_fit_bundle_refuses_flattenings_that_cannot_back_an_emulator(kind):
    seqs = training_set(6, t=11, seed=4)
    fields = flatten.flatten_sequence(seqs, seqs[0][0], kind)
    spatial, fpca = dimred.reduce_fields(fields, True, 2, 2)
    for model_type in ("mvg", "ig", "var"):
        with pytest.raises(KindMismatch, match=f"kind '{kind}'"):
            fit_bundle(fields, spatial, fpca, model_type)


def test_simulate_zero_sequences_is_empty():
    seqs = training_set(8, t=13, seed=5)
    for model_type in ("mvg", "ig", "var", "pwi"):
        bundle = fit_emulator(seqs, model_type=model_type, d1=2, d2=2, order=2)
        assert simulate_sequence(bundle, 0, seed=1).shape == (0,) + seqs[0].shape
    with pytest.raises(BadTarget):
        simulate_sequence(bundle, -1)


# ---- the MVG factor: the same bits on every call ----------------------------

def fresh_factor_loglik(coeff, model):
    """loglik with a Cholesky factor computed for this call alone."""
    x = np.asarray(coeff, dtype=float).ravel()
    chol = np.linalg.cholesky(model.covariance)
    y = np.linalg.solve(chol, x)
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
    return -0.5 * (x.shape[0] * np.log(2.0 * np.pi) + logdet + float(y @ y))


def test_mvg_loglik_same_bits_fresh_reused_and_reloaded(tmp_path):
    seqs = training_set(30, t=17, seed=12)
    bundle = fit_emulator(seqs, kind="istvf", model_type="mvg", d1=3, d2=4)
    draws = sample_coeffs(bundle.model, 6, seed=4)
    expected = [fresh_factor_loglik(c, bundle.model) for c in draws]
    first = [loglik(c, bundle.model) for c in draws]
    again = [loglik(c, bundle.model) for c in draws]
    save_bundle(tmp_path / "bundle.txt", bundle)
    reloaded = load_bundle(tmp_path / "bundle.txt").model
    back = [loglik(c, reloaded) for c in draws]
    for values in (first, again, back):
        assert np.array(values).tobytes() == np.array(expected).tobytes()


def test_singular_covariance_raises_every_call_and_caches_nothing():
    model = MVGModel(covariance=np.diag([1.0, 0.0, 2.0]), jitter=0.0, shape=(3,))
    for _ in range(3):
        with pytest.raises(SingularCovariance):
            loglik(np.ones(3), model)


def test_mvg_factor_cache_is_not_part_of_the_value():
    cov = np.array([[2.0, 0.5], [0.5, 1.0]])
    used = MVGModel(covariance=cov, jitter=1e-10, shape=(2,))
    loglik(np.ones(2), used)
    fresh = MVGModel(covariance=cov, jitter=1e-10, shape=(2,))
    assert used == fresh
    assert repr(used) == repr(fresh)


# ---- fitted models are plain data ---------------------------------------

def test_fitted_models_hold_only_their_data():
    assert [f.name for f in dataclasses.fields(MVGModel)] == ["covariance", "jitter", "shape"]
    assert [f.name for f in dataclasses.fields(PWIModel)] == ["means", "covariances",
                                                              "diagonal"]


def test_editing_a_fitted_model_changes_its_next_result():
    mvg, _, rng = random_models(5, 6)
    xs = rng.standard_normal((4, 6))
    logliks(xs, mvg)
    other, _, _ = random_models(6, 6)
    mvg.covariance = other.covariance
    assert bits(logliks(xs, mvg)) == bits(logliks(xs, MVGModel(other.covariance, 0.0, (6,))))

    seqs = training_set(6, t=9, seed=3)
    bundle = fit_emulator(seqs, model_type="pwi")
    simulate_sequence(bundle, 3, seed=2)
    covs = 4.0 * bundle.model.covariances
    bundle.model.covariances = covs
    fresh = EmulatorBundle(kind="intrinsic", model_type="pwi", length=bundle.length,
                           model=PWIModel(bundle.model.means, covs, diagonal=False))
    assert bits(simulate_sequence(bundle, 3, seed=2)) == bits(simulate_sequence(fresh, 3,
                                                                                seed=2))


def per_draw_pwi(model, count, seed):
    """The posture-wise sampler one draw at a time: per-frame eigh factors
    and one (T, D) normal block per sequence."""
    rng = np.random.default_rng(seed)
    factors = []
    for cov in model.covariances:
        w, q = np.linalg.eigh((cov + cov.T) / 2.0)
        factors.append(q * np.sqrt(np.clip(w, 0.0, None)))
    factors = np.stack(factors)
    out = []
    for _ in range(count):
        z = rng.standard_normal((model.length, model.covariances.shape[1]))
        coords = np.einsum("tij,tj->ti", factors, z)
        out.append(geo.sphere_exp(model.means, geo.coords_to_tangent(model.means, coords)))
    return out


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 6), st.integers(2, 9), st.integers(1, 4),
       st.booleans())
def test_pwi_batch_draw_equals_per_draw_sampler(seed, count, t, bones, diagonal):
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((t, bones, 3))
    seqs = [base + 0.3 * rng.standard_normal((t, bones, 3)) for _ in range(2 * bones + 2)]
    seqs = [s / np.linalg.norm(s, axis=-1, keepdims=True) for s in seqs]
    bundle = fit_emulator(seqs, model_type="pwi", diagonal=diagonal)
    sims = simulate_sequence(bundle, count, seed=seed)
    expected = per_draw_pwi(bundle.model, count, seed)
    assert len(sims) == count
    assert bits(sims) == bits(expected)
    if count:
        assert bits(sample_pwi(bundle.model, seed=seed)) == bits(expected[0])


# ---- batched densities: one solve per batch ------------------------------

def per_vector_ig_loglik(coeff, model):
    """IG log-density of one coefficient matrix, one vector at a time."""
    x = np.asarray(coeff, dtype=float).ravel()
    quad = float(np.sum(x * x / model.variances))
    logdet = float(np.sum(np.log(model.variances)))
    return -0.5 * (x.shape[0] * np.log(2.0 * np.pi) + logdet + quad)


def random_models(seed, dim):
    """An MVG model with a well-conditioned covariance and its IG diagonal."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim + 3))
    cov = a @ a.T / (dim + 3) + 0.1 * np.eye(dim)
    mvg = MVGModel(covariance=(cov + cov.T) / 2.0, jitter=0.0, shape=(dim,))
    ig = IGModel(variances=np.diag(mvg.covariance).copy(), jitter=0.0, shape=(dim,))
    return mvg, ig, rng


def bits(values):
    return np.asarray(values, dtype=float).tobytes()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.floats(0.1, 30.0))
def test_one_vector_batch_has_the_per_vector_bits(seed, dim, scale):
    mvg, ig, rng = random_models(seed, dim)
    x = scale * rng.standard_normal(dim)
    assert bits(logliks([x], mvg)) == bits([fresh_factor_loglik(x, mvg)])
    assert bits(logliks([x], ig)) == bits([per_vector_ig_loglik(x, ig)])
    assert bits([loglik(x, mvg), loglik(x, ig)]) == bits(
        [fresh_factor_loglik(x, mvg), per_vector_ig_loglik(x, ig)])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 80), st.floats(0.1, 30.0))
def test_batches_match_per_vector_values(seed, dim, count, scale):
    mvg, ig, rng = random_models(seed, dim)
    xs = scale * rng.standard_normal((count, dim))
    assert bits(logliks(xs, ig)) == bits([per_vector_ig_loglik(x, ig) for x in xs])
    batch = logliks(list(xs), mvg)
    assert batch.shape == (count,)
    assert bits(logliks(xs, mvg)) == bits(batch)
    one_by_one = np.array([fresh_factor_loglik(x, mvg) for x in xs])
    # a multi-vector solve rounds differently; the terms bound the cancellation
    logdet = 2.0 * np.sum(np.log(np.diag(np.linalg.cholesky(mvg.covariance))))
    terms = dim * np.log(2.0 * np.pi) + abs(logdet) + np.sum(xs * xs, axis=1) / 0.1
    assert np.all(np.abs(batch - one_by_one) <= 1e-10 * np.maximum(np.abs(one_by_one), terms))


def test_batch_accepts_coefficient_matrices_and_empty_batches():
    seqs = training_set(30, t=17, seed=12)
    bundle = fit_emulator(seqs, kind="istvf", model_type="mvg", d1=3, d2=4)
    draws = sample_coeffs(bundle.model, 5, seed=4)
    assert bits(logliks(draws, bundle.model)) == bits(logliks(np.stack(draws), bundle.model))
    for model in (bundle.model, fit_ig(np.concatenate((draws, draws)))):
        for empty in ([], np.empty((0, 3, 4))):
            out = logliks(empty, model)
            assert out.shape == (0,) and out.dtype == float


def test_singular_covariance_raises_for_a_batch_and_caches_nothing():
    model = MVGModel(covariance=np.diag([1.0, 0.0, 2.0]), jitter=0.0, shape=(3,))
    for batch in ([], np.ones((4, 3))):
        with pytest.raises(SingularCovariance):
            logliks(batch, model)
    with pytest.raises(SingularCovariance):
        logliks(np.ones((2, 2)), IGModel(variances=np.array([1.0, 0.0]), jitter=0.0, shape=(2,)))


def test_mis_sized_batches_raise():
    mvg, ig, _ = random_models(3, 4)
    for model in (mvg, ig):
        for bad in (np.ones((2, 5)), [np.ones(4), np.ones(3)], np.ones((3, 2, 3)), 1.0):
            with pytest.raises(DimensionMismatch):
                logliks(bad, model)
    with pytest.raises(KindMismatch):
        logliks(np.ones((1, 4)), VARModel(order=1, coef=np.zeros((1, 4, 4)),
                                          intercept=np.zeros(4), noise_cov=np.eye(4)))


def test_sequence_logliks_is_the_batch_of_sequence_loglik():
    seqs = training_set(14, t=17, seed=9)
    for model_type in ("mvg", "ig"):
        bundle = fit_emulator(seqs, kind="istvf", model_type=model_type, d1=3, d2=3)
        batch = sequence_logliks(bundle, seqs)
        single = np.array([sequence_logliks(bundle, [s])[0] for s in seqs])
        np.testing.assert_allclose(batch, single, rtol=1e-10)
        assert bits(sequence_logliks(bundle, seqs[:1])) == bits(single[:1])
        assert sequence_logliks(bundle, []).shape == (0,)
    with pytest.raises(KindMismatch):
        sequence_logliks(fit_emulator(seqs, model_type="pwi"), seqs)
