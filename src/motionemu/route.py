"""The library calls that draw random streams, on arrays: the synthetic mixture
(`synth`), the route (`run_route`), posture codes (`run_quantize`) and the
two-level check (`run_twolevel`).  One function here applies each SeedSequence
spawn key below (stage_seed); the CLI passes --seed through and writes results."""

import numpy as np

from . import datagen, evaluate, models
from .alignment import align_all
from .errors import BadTarget, KindMismatch

SEED_SIMULATE = 100      # simulate
SEED_EVAL_PERM = 101     # two_sample shuffles
SEED_EVAL_CLUSTER = 102  # run_quantize clustering
SEED_EVAL_SAMPLE = 103   # run_quantize subsample
SEED_TL_LEVEL1 = 110     # twolevel level-one draws
SEED_TL_SIM = 111        # twolevel emulator j's draws: (111, j)
SEED_TL_DISCO = 112      # twolevel emulator j's test: (112, j)
SEED_CLASS = 120         # the root seed of pipeline class k's route: (120, k)


def stage_seed(root, stage, extra=()):
    """Derive a stage's generator seed from the root seed."""
    key = (int(stage),) + tuple(int(x) for x in extra)
    return int(np.random.SeedSequence(int(root), spawn_key=key).generate_state(1)[0])


def synth(seed, classes, target_frames=None, **settings):
    """datagen.gen_mixture's (seqs, labels): class k of `classes` from spawn key
    (k,) of seed, with the other SynthConfig fields from settings."""
    configs = [datagen.SynthConfig(**settings, seed=stage_seed(seed, k)) for k in range(classes)]
    return datagen.gen_mixture(configs, target_frames=target_frames)


def class_seed(seed, k):
    """The root seed of class k's route in a multi-class pipeline."""
    return stage_seed(seed, SEED_CLASS, (k,))


def simulate(bundle, count, seed):
    """count draws from the bundle."""
    return models.simulate_sequence(bundle, count, seed=stage_seed(seed, SEED_SIMULATE))


def two_sample(a, b, n_perm, seed, exhaustive=False):
    """The permutation two-sample test of a against b (evaluate.disco_test)."""
    return evaluate.disco_test(a, b, n_perm=n_perm, seed=stage_seed(seed, SEED_EVAL_PERM),
                               exhaustive=exhaustive)


def run_quantize(train, sets, k, sample, seed):
    """Posture codes: cluster up to `sample` postures drawn from the training
    sequences into k modes (k=0: evaluate.select_k's silhouette sweep picks k),
    take the training set's per-frame mean labels and label each (name,
    sequences) pair of sets.  Returns k, model, mean_labels and, per set in
    order, (name, label strings, mean variability, its variance)."""
    if sample < 1:
        raise BadTarget("sample must be positive")
    pool = np.concatenate([np.asarray(s) for s in train], axis=0)
    if pool.shape[0] > sample:
        rng = np.random.default_rng(stage_seed(seed, SEED_EVAL_SAMPLE))
        pool = pool[np.sort(rng.choice(pool.shape[0], size=sample, replace=False))]
    cluster_seed = stage_seed(seed, SEED_EVAL_CLUSTER)
    if k == 0:
        k, _, model = evaluate.select_k(pool, seed=cluster_seed)
    else:
        model = evaluate.cluster_postures(pool, k=k, seed=cluster_seed)
    mean_labels = evaluate.mean_label_sequence(train, model)
    labelled = [(name, [evaluate.quantize(s, model) for s in seqs]) for name, seqs in sets]
    rows = [(name, labels, *evaluate.variability_stats(labels, mean_labels))
            for name, labels in labelled]
    return {"k": k, "model": model, "mean_labels": mean_labels, "sets": rows}


def run_route(seqs, kind="istvf", model_type="ig", ref_index=0, d1=None, d2=None,
              var1=0.9, var2=0.95, order=4, var_index=0, start_policy="training-mean",
              count=10, n_perm=199, seed=0):
    """Run align -> flatten -> reduce -> fit (as fit_emulator) -> simulate
    -> two-sample (draws against the aligned set) on one class, yielding
    each stage's (name, result) as it ends: aligned, warps, fields (None
    for 'pwi'), bundle (its spatial and fpca are the reduction), sims and
    two_sample.  seqs, warps and fields are dropped once no later stage
    reads them: a caller that drops each result as it comes frees them."""
    aligned, warps = align_all(seqs, ref_index=ref_index)
    del seqs  # every later stage reads the aligned copy; keeping both raises the peak
    yield "aligned", aligned
    yield "warps", warps
    del warps
    fields, bundle = models.fit_stages(aligned, kind, model_type, d1, d2, var1, var2, None,
                                       order, var_index, start_policy)
    yield "fields", fields
    del fields
    yield "bundle", bundle
    sims = simulate(bundle, count, seed)
    yield "sims", sims
    yield "two_sample", two_sample(sims, aligned, n_perm, seed)


def run_twolevel(seqs, kind="istvf", model_type="ig", d1=4, d2=4,
                 total=1000, holdout=200, emulators=("ig", "mvg", "pwi"),
                 n_perm=999, seed=0):
    """Second-level adequacy check of an emulator family.

    Fits a level-one emulator on the training sequences, simulates a
    large synthetic population, splits it into fitting and held-out
    parts, refits each candidate emulator on the fitting part, and
    scores its draws against the held-out part: a two-sample permutation
    test plus log-likelihood quantile pairs under the matched-family
    reference model refit on the fitting part.  The held-out part's
    distance block is computed once and shared by every emulator's test.
    An emulator listed twice is refused, as is anything else that cannot
    be scored, before any fit.
    """
    if not 0 < holdout < total:
        raise BadTarget("holdout must be positive and smaller than total")
    if not emulators:
        raise BadTarget("no emulators to score")
    if n_perm < 1:
        raise BadTarget("n_perm must be positive")
    for j, name in enumerate(emulators):
        if name not in models.REDUCTIONS:
            raise KindMismatch(f"unknown emulator {name!r}")
        if name in emulators[:j]:
            # two rows of one name would share, and overwrite, one qq file
            raise BadTarget(f"emulator {name!r} is listed more than once")
    if model_type not in models.DENSITY_MODELS:
        raise KindMismatch(f"level-one model {model_type!r} has no density to score draws "
                           f"with; it must be one of {models.DENSITY_MODELS}")
    level_one = models.fit_emulator(seqs, kind=kind, model_type=model_type,
                                    d1=d1, d2=d2)
    sims = models.simulate_sequence(level_one, total,
                                    seed=stage_seed(seed, SEED_TL_LEVEL1))
    train2, test2 = sims[:total - holdout], sims[total - holdout:]
    # level-two refits share the level-one chart so the closure comparison
    # is not confounded by reference drift ('pwi' ignores the chart)
    bundles = {name: models.fit_emulator(train2, kind=kind, model_type=name, d1=d1, d2=d2,
                                         reference=level_one.reference)
               for name in dict.fromkeys((model_type, *emulators))}
    reference = bundles[model_type]
    ll_test = models.sequence_logliks(reference, test2)
    # the pooled distance matrix of draws (first) and held-out sequences: the
    # held-out block is computed once, each emulator's draws fill the rest
    pooled = np.empty((2 * holdout, 2 * holdout))
    pooled[holdout:, holdout:] = evaluate.sequence_distance_matrix(test2)
    rows, qq, ll_sim = [], {}, {}
    for j, name in enumerate(emulators):
        draws = models.simulate_sequence(bundles[name], holdout,
                                         seed=stage_seed(seed, SEED_TL_SIM, (j,)))
        pooled[:holdout, :holdout] = evaluate.sequence_distance_matrix(draws)
        pooled[:holdout, holdout:] = evaluate.sequence_distance_matrix(draws, test2)
        pooled[holdout:, :holdout] = pooled[:holdout, holdout:].T
        res = evaluate.permutation_test(pooled, holdout, n_perm,
                                        stage_seed(seed, SEED_TL_DISCO, (j,)))
        ll = models.sequence_logliks(reference, draws)
        qq[name] = evaluate.qq_data(ll_test, ll)
        ll_sim[name] = ll
        rows.append({"emulator": name, "statistic": res.statistic,
                     "p_value": res.p_value,
                     "median_loglik": float(np.median(ll)),
                     "median_loglik_test": float(np.median(ll_test))})
    return {"level_one": level_one, "bundles": bundles, "rows": rows,
            "qq": qq, "loglik_test": ll_test, "loglik_sim": ll_sim}
