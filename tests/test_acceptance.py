"""Release acceptance suite.

One test per criterion.  Each computes its measurements first, prints a
single "[criterion N] PASS/FAIL" line with the observed numbers, then
asserts, so the verdict reaches the log either way.
"""

import dataclasses
import time
from itertools import combinations

import numpy as np

from motionemu import alignment, dimred, evaluate, flatten, models
from motionemu import geometry as geo
from motionemu import io as mio
from motionemu.cli import main, run_twolevel
from motionemu.datagen import SynthConfig, gen_class


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def failed(checks):
    return [name for name, ok in checks.items() if not ok]


def test_criterion_1_geometry_suite(capsys):
    start = time.time()
    rng = np.random.default_rng(2026)
    n = 10_000
    y = unit(rng.standard_normal((n, 3)))
    z = unit(rng.standard_normal((n, 3)))
    # the inversion contract holds away from the antipode
    dom = geo.sphere_dist(y, z) < np.pi - 1e-3

    checks = {}
    back = geo.sphere_exp(y, geo.sphere_log(y, z))
    checks["exp_log"] = float(np.max(np.linalg.norm(back - z, axis=-1)[dom])) <= 1e-10

    u = rng.standard_normal((n, 3))
    u -= np.sum(u * y, axis=-1, keepdims=True) * y
    u = unit(u)
    mag = rng.uniform(1e-4, np.pi - 1e-3, n)
    v = u * mag[:, None]
    w = geo.sphere_log(y, geo.sphere_exp(y, v))
    checks["log_exp"] = float(np.max(np.linalg.norm(w - v, axis=-1))) <= 1e-10

    t = geo.sphere_transport(y, z, v)
    checks["transport_isometry"] = float(
        np.max(np.abs(np.linalg.norm(t, axis=-1) - mag)[dom])) <= 1e-12
    checks["transport_tangency"] = float(
        np.max(np.abs(np.sum(t * z, axis=-1))[dom])) <= 1e-12
    rev = geo.sphere_transport(y, z, geo.sphere_log(y, z)) + geo.sphere_log(z, y)
    checks["transport_reversal"] = float(
        np.max(np.linalg.norm(rev, axis=-1)[dom])) <= 1e-8

    a = unit(rng.standard_normal((n, 4, 3)))
    b = unit(rng.standard_normal((n, 4, 3)))
    c = unit(rng.standard_normal((n, 4, 3)))
    checks["metric_symmetry"] = np.array_equal(geo.posture_dist(a, b),
                                               geo.posture_dist(b, a))
    checks["metric_identity"] = float(np.max(geo.posture_dist(a, a))) == 0.0
    checks["metric_triangle"] = bool(np.all(
        geo.posture_dist(a, c)
        <= geo.posture_dist(a, b) + geo.posture_dist(b, c) + 1e-12))

    worst_rt = 0.0
    worst_nm = 0.0
    for i in range(50):
        base = a[i]
        vb = rng.standard_normal((200, 4, 3))
        vb -= np.einsum("pkd,kd->pk", vb, base)[..., None] * base
        co = geo.tangent_coords(base, vb)
        vv = geo.coords_to_tangent(base, co)
        worst_rt = max(worst_rt, float(np.max(np.abs(vv - vb))))
        norms = np.linalg.norm(vb.reshape(vb.shape[0], -1), axis=1)
        worst_nm = max(worst_nm, float(
            np.max(np.abs(np.linalg.norm(co, axis=-1) - norms))))
    checks["coords_roundtrip"] = worst_rt <= 1e-12
    checks["coords_isometry"] = worst_nm <= 1e-12

    elapsed = time.time() - start
    checks["runtime"] = elapsed < 10.0
    bad = failed(checks)
    report(capsys, 1, not bad,
           f"10^4 cases per block, failures={bad or 'none'}, {elapsed:.1f}s")


def test_criterion_2_flatten_bijectivity(capsys):
    start = time.time()
    cfg = SynthConfig(landmarks=21, frames=301, count=50, amplitude=0.8,
                      bandwidth=0.08, warp_strength=0.4, noise_scale=0.03,
                      seed=0)
    seqs, _ = gen_class(cfg)
    seqs = [np.asarray(s) for s in seqs]
    ref = seqs[0][0]
    errs = {}
    for kind in ("stvf", "istvf", "siem", "mtvf"):
        worst = 0.0
        decoded = flatten.unflatten_field(flatten.flatten_sequence(seqs, ref, kind))
        for s, d in zip(seqs, decoded):
            worst = max(worst, float(np.max(geo.posture_dist(s, d))))
        errs[kind] = worst
    elapsed = time.time() - start
    ok = (errs["stvf"] <= 1e-6 and errs["istvf"] <= 1e-6
          and errs["siem"] <= 1e-6
          and errs["mtvf"] >= 1e3 * errs["stvf"]
          and elapsed < 60.0)
    report(capsys, 2, ok,
           "max e_Y stvf={stvf:.2e} istvf={istvf:.2e} siem={siem:.2e} "
           "mtvf={mtvf:.2e}, ratio {ratio:.1e}, {secs:.1f}s".format(
               ratio=errs["mtvf"] / errs["stvf"], secs=elapsed, **errs))


def brute_force_warp_cost(v1, v2, dt):
    n = v1.shape[0]
    best = [np.inf]

    def walk(i, j, acc):
        if acc >= best[0]:
            return
        if i == n - 1 and j == n - 1:
            best[0] = acc
            return
        for di, dj in alignment.DP_STEPS:
            if i + di <= n - 1 and j + dj <= n - 1:
                walk(i + di, j + dj,
                     acc + alignment.dp_edge_cost(v1, v2, dt, (i, j),
                                                  (i + di, j + dj)))

    walk(0, 0, 0.0)
    return best[0]


def test_criterion_3_alignment(capsys):
    pre_list, post_list, ratios = [], [], []
    for seed in range(20):
        cfg = SynthConfig(landmarks=6, frames=151, count=6, amplitude=0.9,
                          bandwidth=0.08, warp_strength=0.5, noise_scale=0.0,
                          seed=seed)
        seqs, _ = gen_class(cfg)
        seqs = [np.asarray(s) for s in seqs]
        aligned, _ = alignment.align_all(seqs)

        def mean_dist(x, ref):
            return float(np.mean(geo.posture_dist(x, ref)))

        pre = np.mean([mean_dist(s, seqs[0]) for s in seqs[1:]])
        post = np.mean([mean_dist(s, aligned[0]) for s in aligned[1:]])
        pre_list.append(pre)
        post_list.append(post)
        ratios.append(post / pre)
    agg = np.mean(post_list) / np.mean(pre_list)

    exact = True
    for seed in range(3):
        cfg = SynthConfig(landmarks=4, frames=16, count=2, amplitude=0.7,
                          bandwidth=0.3, warp_strength=0.3, noise_scale=0.05,
                          seed=seed)
        (s1, s2), _ = gen_class(cfg)
        for t in (4, 6, 8):
            ref = np.asarray(s1)[0]
            h1 = alignment.tsrvf(np.asarray(s1)[:t], ref)
            h2 = alignment.tsrvf(np.asarray(s2)[:t], ref)
            _, cost = alignment.optimal_warp(h1, h2)
            if cost != brute_force_warp_cost(h1.values, h2.values, h1.dt):
                exact = False
    ok = agg <= 0.2 and exact
    report(capsys, 3, ok,
           f"post/pre mean ratio {agg:.3f} (worst trial {max(ratios):.3f}) "
           f"over 20 trials, dp==enumeration exact: {exact}")


def test_criterion_4_dimension_reduction(capsys):
    cfg = SynthConfig(landmarks=5, frames=30, count=12, amplitude=0.8,
                      bandwidth=0.1, warp_strength=0.3, noise_scale=0.02,
                      seed=21)
    seqs, _ = gen_class(cfg)
    seqs = [np.asarray(s) for s in seqs]
    ref = seqs[0][0]
    fields = flatten.flatten_sequence(seqs, ref, "istvf")
    d_full, length = fields.values.shape[1:]

    checks = {}
    spca = dimred.spatial_pca_fit(fields, n_components=d_full)
    checks["spatial_orthonormal"] = float(np.max(np.abs(
        spca.basis.T @ spca.basis - np.eye(spca.dim)))) <= 1e-10
    scores = dimred.spatial_project(fields, spca)
    basis = dimred.fpca_fit(scores, fields.dt, n_components=length)
    d2 = basis.dims[1]
    gram_dev = max(float(np.max(np.abs(
        basis.bases[i].T @ basis.bases[i] * basis.dt - np.eye(d2))))
        for i in range(basis.bases.shape[0]))
    checks["fpca_orthonormal"] = gram_dev <= 1e-10

    worst_field = worst_ey = worst_h = 0.0
    h2s = dimred.fpca_reconstruct(dimred.fpca_project(scores, basis), basis)
    f2s = dimred.spatial_reconstruct(h2s, spca)
    decoded = flatten.unflatten_field(dataclasses.replace(fields, values=f2s))
    for s, f, h, h2, f2, d in zip(seqs, fields.values, scores, h2s, f2s, decoded):
        worst_h = max(worst_h, float(np.max(np.abs(h2 - h))))
        worst_field = max(worst_field, float(np.max(np.abs(f2 - f))))
        worst_ey = max(worst_ey, float(np.max(geo.posture_dist(s, d))))
    checks["full_dim_field"] = worst_field <= 1e-8
    checks["full_dim_sequence"] = worst_ey <= 1e-6
    checks["fpca_full_scores"] = worst_h <= 1e-9

    mp_full = dimred.mpca_fit(fields, d1=d_full, d2=length)
    worst_mp = max(float(np.max(np.abs(f2 - f))) for f, f2 in zip(
        fields.values, dimred.mpca_reconstruct(dimred.mpca_project(fields, mp_full), mp_full)))
    checks["mpca_full"] = worst_mp <= 1e-9
    mp_red = dimred.mpca_fit(fields, d1=3, d2=4)
    for mp in (mp_full, mp_red):
        if np.any(np.diff(mp.captured) < -1e-9 * max(mp.total_variance, 1.0)):
            checks["mpca_monotone_capture"] = False
    checks.setdefault("mpca_monotone_capture", True)

    rng = np.random.default_rng(33)
    planted, _ = np.linalg.qr(rng.standard_normal((d_full, 3)))
    coeff = rng.standard_normal((300, 3)) * np.array([3.0, 2.0, 1.0])
    values = (0.1 * rng.standard_normal(d_full))[:, None] + (coeff @ planted.T).T
    one = flatten.FlatFields(fields.kind, fields.reference,
                             fields.starts[:1], values[None], fields.dt)
    fitted = dimred.spatial_pca_fit(one, n_components=3)
    sv = np.linalg.svd(planted.T @ fitted.basis, compute_uv=False)
    spatial_angle = float(np.max(np.arccos(np.clip(sv, -1.0, 1.0))))

    lf, m2, dd = 40, 30, 2
    q, _ = np.linalg.qr(rng.standard_normal((lf, dd)))
    dtf = 1.0 / (lf - 1)
    phi = q / np.sqrt(dtf)
    mean_row = rng.standard_normal(lf)
    planted_scores = [(mean_row + phi @ (rng.standard_normal(dd)
                                         * np.array([2.0, 1.0])))[None, :]
                      for _ in range(m2)]
    fb = dimred.fpca_fit(planted_scores, dtf, n_components=dd)
    sv2 = np.linalg.svd(phi.T @ fb.bases[0] * dtf, compute_uv=False)
    fpca_angle = float(np.max(np.arccos(np.clip(sv2, -1.0, 1.0))))
    checks["planted_subspaces"] = spatial_angle < 1e-6 and fpca_angle < 1e-6

    grid = (1, 2, 4, 8)
    sums = np.zeros(len(grid))
    for trial in range(20):
        c = SynthConfig(landmarks=5, frames=25, count=10, amplitude=0.8,
                        bandwidth=0.1, warp_strength=0.3, noise_scale=0.03,
                        seed=400 + trial)
        ss, _ = gen_class(c)
        ss = [np.asarray(s) for s in ss]
        ff = flatten.flatten_sequence(ss, ss[0][0], "istvf")
        sp = dimred.spatial_pca_fit(ff, n_components=6)
        hh = dimred.spatial_project(ff, sp)
        for gi, d2v in enumerate(grid):
            fbv = dimred.fpca_fit(hh, ff.dt, n_components=d2v)
            back = dimred.spatial_reconstruct(
                dimred.fpca_reconstruct(dimred.fpca_project(hh, fbv), fbv), sp)
            rebuilt = flatten.unflatten_field(dataclasses.replace(ff, values=back))
            errs = [dimred.seq_recon_error(s, r) for s, r in zip(ss, rebuilt)]
            sums[gi] += np.mean(errs)
    means = sums / 20
    checks["nested_error_monotone"] = bool(np.all(np.diff(means) <= 0))

    bad = failed(checks)
    report(capsys, 4, not bad,
           f"full-dim dev {worst_field:.1e}/{worst_ey:.1e}, angles "
           f"{spatial_angle:.1e}/{fpca_angle:.1e}, nested means "
           f"{np.array2string(means, precision=3)}, failures={bad or 'none'}")


def test_criterion_5_coefficient_models(capsys):
    checks = {}
    rng = np.random.default_rng(42)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    sigma = (q * np.linspace(0.5, 3.0, 6)) @ q.T
    sigma = (sigma + sigma.T) / 2.0
    mvg = models.MVGModel(covariance=sigma, jitter=0.0, shape=(6,))
    draws = np.stack([d.ravel() for d in models.sample_coeffs(mvg, 10_000, seed=7)])
    emp = draws.T @ draws / draws.shape[0]
    se = np.sqrt((np.outer(np.diag(sigma), np.diag(sigma)) + sigma**2)
                 / draws.shape[0])
    mvg_dev = float(np.max(np.abs(emp - sigma) / se))
    ig = models.IGModel(variances=np.linspace(0.5, 3.0, 6), jitter=0.0,
                        shape=(6,))
    di = np.stack([d.ravel() for d in models.sample_coeffs(ig, 10_000, seed=8)])
    emp_i = di.T @ di / di.shape[0]
    sig_i = np.diag(ig.variances)
    se_i = np.sqrt((np.outer(ig.variances, ig.variances) + sig_i**2)
                   / di.shape[0])
    ig_dev = float(np.max(np.abs(emp_i - sig_i) / se_i))
    checks["mc_covariance"] = mvg_dev <= 5.0 and ig_dev <= 5.0

    got_ig = models.loglik(np.array([3.0, 4.0]),
                           models.IGModel(variances=np.ones(2), jitter=0.0,
                                          shape=(2,)))
    want_ig = -0.5 * (2 * np.log(2 * np.pi) + 25.0)
    got_mvg = models.loglik(np.array([1.0, 1.0]),
                            models.MVGModel(covariance=np.array([[2.0, 1.0],
                                                                 [1.0, 2.0]]),
                                            jitter=0.0, shape=(2,)))
    want_mvg = -0.5 * (2 * np.log(2 * np.pi) + np.log(3.0) + 2.0 / 3.0)
    loglik_dev = max(abs(got_ig - want_ig), abs(got_mvg - want_mvg))
    checks["analytic_loglik"] = loglik_dev <= 1e-12

    theta = 0.7
    phi = 0.95 * np.array([[np.cos(theta), -np.sin(theta)],
                           [np.sin(theta), np.cos(theta)]])
    x = np.zeros((2, 80))
    x[:, 0] = [1.0, 0.5]
    for t in range(1, 80):
        x[:, t] = phi @ x[:, t - 1]
    var = models.fit_var(x, order=1)
    var_dev = float(np.max(np.abs(var.coef[0] - phi)))
    checks["var_recovery"] = var_dev <= 1e-6

    cfg = SynthConfig(landmarks=5, frames=20, count=2, amplitude=0.9,
                      bandwidth=0.15, warp_strength=0.3, noise_scale=0.05,
                      seed=3)
    (base, _), _ = gen_class(cfg)
    base = np.asarray(base)
    pwi = models.fit_pwi([base.copy() for _ in range(4)])
    s1 = models.sample_pwi(pwi, seed=0)
    s2 = models.sample_pwi(pwi, seed=99)
    checks["pwi_zero_variance"] = (np.array_equal(s1, base)
                                   and np.array_equal(s1, s2))

    bad = failed(checks)
    report(capsys, 5, not bad,
           f"mc dev {mvg_dev:.2f}/{ig_dev:.2f} se, loglik dev {loglik_dev:.1e}, "
           f"var dev {var_dev:.1e}, pwi exact={checks['pwi_zero_variance']}, "
           f"failures={bad or 'none'}")


def test_criterion_6_two_sample_test(capsys):
    start = time.time()
    checks = {}

    cfg = SynthConfig(landmarks=3, frames=10, count=6, amplitude=0.8,
                      bandwidth=0.15, warp_strength=0.3, noise_scale=0.05,
                      seed=77)
    ss, _ = gen_class(cfg)
    ss = [np.asarray(s) for s in ss]
    res = evaluate.disco_test(ss[:3], ss[3:], exhaustive=True)
    dmat = evaluate.sequence_distance_matrix(ss)

    def stat(ia, ib):
        ia, ib = np.asarray(ia), np.asarray(ib)
        cross = dmat[np.ix_(ia, ib)].sum()
        wa = dmat[np.ix_(ia, ia)].sum()
        wb = dmat[np.ix_(ib, ib)].sum()
        return 2.0 * cross / (ia.size * ib.size) - wa / ia.size**2 - wb / ib.size**2

    observed = stat(np.arange(3), np.arange(3, 6))
    thresh = observed - 1e-12 * max(1.0, abs(observed))
    count = 0
    for subset in combinations(range(6), 3):
        rest = [i for i in range(6) if i not in subset]
        if stat(list(subset), rest) >= thresh:
            count += 1
    checks["exhaustive_equality"] = (res.p_value == count / 20
                                     and res.statistic == observed
                                     and res.permutations == 19)

    low = 0
    for rep in range(200):
        c = SynthConfig(landmarks=3, frames=10, count=16, amplitude=0.8,
                        bandwidth=0.15, warp_strength=0.3, noise_scale=0.05,
                        seed=900 + rep)
        group, _ = gen_class(c)
        group = [np.asarray(s) for s in group]
        if evaluate.disco_test(group[:8], group[8:], n_perm=199,
                               seed=rep).p_value < 0.05:
            low += 1
    frac = low / 200
    checks["calibration"] = 0.01 <= frac <= 0.12

    hits = 0
    for rep in range(40):
        ga, _ = gen_class(SynthConfig(landmarks=3, frames=10, count=8,
                                      amplitude=0.8, bandwidth=0.15,
                                      warp_strength=0.3, noise_scale=0.05,
                                      seed=2000 + rep))
        gb, _ = gen_class(SynthConfig(landmarks=3, frames=10, count=8,
                                      amplitude=0.8, bandwidth=0.15,
                                      warp_strength=0.3, noise_scale=0.05,
                                      seed=3000 + rep))
        res = evaluate.disco_test([np.asarray(s) for s in ga],
                                  [np.asarray(s) for s in gb],
                                  n_perm=199, seed=rep)
        if res.p_value <= 0.01:
            hits += 1
    checks["power"] = hits >= 38

    elapsed = time.time() - start
    checks["runtime"] = elapsed < 120.0
    bad = failed(checks)
    report(capsys, 6, not bad,
           f"exhaustive p={res.p_value if not checks['exhaustive_equality'] else 'match'}, "
           f"null rejection rate {frac:.3f}, power {hits}/40, {elapsed:.1f}s, "
           f"failures={bad or 'none'}")


def test_criterion_7_two_level_protocol(capsys):
    start = time.time()
    p_mvg, p_pwi, below, gaps = [], [], [], []
    for seed in range(10):
        cfg = SynthConfig(landmarks=6, frames=50, count=60, amplitude=1.5,
                          bandwidth=0.07, warp_strength=0.8, noise_scale=0.02,
                          seed=seed)
        seqs, _ = gen_class(cfg)
        out = run_twolevel(list(seqs), kind="istvf", model_type="mvg",
                           d1=10, d2=49, total=1000, holdout=200,
                           emulators=("mvg", "pwi"), n_perm=199, seed=seed)
        rows = {r["emulator"]: r for r in out["rows"]}
        p_mvg.append(rows["mvg"]["p_value"])
        p_pwi.append(rows["pwi"]["p_value"])
        q = out["qq"]["pwi"]
        below.append(float(np.mean(q[:, 1] <= q[:, 0])))
        gaps.append(rows["pwi"]["median_loglik"]
                    - rows["pwi"]["median_loglik_test"])
    med_mvg = float(np.median(p_mvg))
    med_pwi = float(np.median(p_pwi))
    elapsed = time.time() - start
    ok = (med_mvg > 0.05 and med_pwi < med_mvg
          and min(below) >= 0.9 and max(gaps) < 0.0
          and elapsed < 900.0)
    report(capsys, 7, ok,
           f"median p matched-family={med_mvg:.3f} pwi={med_pwi:.3f}, "
           f"qq below-identity min frac {min(below):.2f}, "
           f"loglik gap max {max(gaps):.2e}, {elapsed:.0f}s")


def test_criterion_8_sample_quality_orderings(capsys):
    cfg = SynthConfig(landmarks=6, frames=60, count=40, amplitude=0.8,
                      bandwidth=0.1, warp_strength=0.5, noise_scale=0.0,
                      seed=0)
    train, _ = gen_class(cfg)
    train = [np.asarray(s) for s in train]
    mvg = models.fit_emulator(train, kind="istvf", model_type="mvg",
                              d1=8, d2=12)
    pwi = models.fit_emulator(train, model_type="pwi")
    r_band = max(float(evaluate.roughness(s).mean()) for s in train)
    r_mvg = float(np.mean([evaluate.roughness(s).mean()
                           for s in models.simulate_sequence(mvg, 40, seed=11)]))
    r_pwi = float(np.mean([evaluate.roughness(s).mean()
                           for s in models.simulate_sequence(pwi, 40, seed=12)]))
    rough_ok = r_pwi > r_mvg > r_band

    cfg2 = SynthConfig(landmarks=6, frames=150, count=40, amplitude=1.4,
                       bandwidth=0.1, warp_strength=0.08, noise_scale=0.06,
                       seed=100)
    train2, _ = gen_class(cfg2)
    train2 = [np.asarray(s) for s in train2]
    mvg2 = models.fit_emulator(train2, kind="istvf", model_type="mvg",
                               d1=8, d2=8)
    pwi2 = models.fit_emulator(train2, model_type="pwi")
    draws_mvg = models.simulate_sequence(mvg2, 150, seed=11)
    draws_pwi = models.simulate_sequence(pwi2, 150, seed=12)

    # mode pool: on-path postures plus off-path halos half a radian away
    on_path = np.concatenate([s[::4] for s in train2])
    rng = np.random.default_rng(14)
    reps = np.repeat(on_path, 2, axis=0)
    nv = rng.standard_normal(reps.shape)
    tang = nv - np.einsum("pkd,pkd->pk", nv, reps)[..., None] * reps
    tang /= np.linalg.norm(tang, axis=-1, keepdims=True)
    pooled = np.concatenate([on_path, geo.sphere_exp(reps, 0.5 * tang)])
    model = evaluate.cluster_postures(pooled, 16, seed=13)
    ref = evaluate.mean_label_sequence(train2, model)

    def mean_var(group):
        return evaluate.variability_stats(
            [evaluate.quantize(s, model) for s in group], ref)[0]

    v_train = mean_var(train2)
    v_mvg = mean_var(draws_mvg)
    v_pwi = mean_var(draws_pwi)
    var_ok = v_pwi < v_train < v_mvg
    ok = rough_ok and var_ok
    report(capsys, 8, ok,
           f"roughness pwi {r_pwi:.3f} > gaussian {r_mvg:.3f} > band "
           f"{r_band:.3f}: {rough_ok}; variability pwi {v_pwi:.4f} < train "
           f"{v_train:.4f} < gaussian {v_mvg:.4f}: {var_ok}")


def test_criterion_9_cli_determinism(tmp_path, capsys):
    synth = ["--landmarks", "5", "--frames", "60", "--target-frames", "0",
             "--classes", "1", "--per-class", "5", "--amplitude", "0.7",
             "--bandwidth", "0.1", "--warp-strength", "0.3", "--noise", "0.02"]

    def run(args):
        assert main([str(a) for a in args]) == 0

    def dir_bytes(path):
        out = {}
        for name in sorted(p.name for p in path.iterdir()):
            with open(path / name, "rb") as fh:
                out[name] = fh.read()
        return out

    pipe_dirs = []
    for tag in ("p1", "p2"):
        out = tmp_path / tag
        run(["pipeline", "--out", out, "--seed", 7, *synth,
             "--scheme", "istvf/seqpca/ig", "--d1", 3, "--d2", 4,
             "--count", 6, "--n-perm", 49])
        pipe_dirs.append(dir_bytes(out))

    cfg = SynthConfig(landmarks=4, frames=20, count=12, amplitude=0.7,
                      bandwidth=0.12, warp_strength=0.3, noise_scale=0.03,
                      seed=5)
    seqs, _ = gen_class(cfg)
    train_path = tmp_path / "train.txt"
    mio.write_posture_sequences(train_path, [np.asarray(s) for s in seqs])
    tl_dirs = []
    for tag in ("t1", "t2"):
        out = tmp_path / tag
        run(["twolevel", "--input", train_path, "--scheme", "istvf/seqpca/ig",
             "--d1", 2, "--d2", 3, "--total", 30, "--holdout", 10,
             "--emulators", "ig,pwi", "--n-perm", 19, "--seed", 0,
             "--out", out])
        tl_dirs.append(dir_bytes(out))

    pipe_ok = (pipe_dirs[0].keys() == pipe_dirs[1].keys()
               and all(pipe_dirs[0][k] == pipe_dirs[1][k] for k in pipe_dirs[0]))
    tl_ok = (tl_dirs[0].keys() == tl_dirs[1].keys()
             and all(tl_dirs[0][k] == tl_dirs[1][k] for k in tl_dirs[0]))
    report(capsys, 9, pipe_ok and tl_ok,
           f"pipeline rerun identical over {len(pipe_dirs[0])} artifacts: "
           f"{pipe_ok}; twolevel rerun identical over {len(tl_dirs[0])} "
           f"artifacts: {tl_ok}")
