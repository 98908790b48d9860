"""Command-line pipeline around the library.

Commands: synth, ingest, align, flatten, reduce, fit, simulate, eval
(two-sample, quantize, roughness, mds, qq), pipeline, twolevel.  Each
command hands its files to one writer, `_emit`, which writes them into
the --out directory and then a `manifest_<command>.json` over exactly
those files.  The manifest records the command, its configuration (built
by `_config` from the command's flags), and SHA-256 checksums of inputs
and artifacts, with all paths reduced to basenames; it carries no
timestamps, so a rerun with the same seed and inputs reproduces every
artifact and manifest byte for byte.

`pipeline` calls the stage commands' own functions in one process and
hands each stage's results to the next in memory, reading back none of
its artifacts; it writes and hashes the same files as the hand-run stages.

Emulation schemes are written `<repr>/<dimred>/<model>` and parsed
case-insensitively: repr is `istvf` or `siem`, dimred is `seqpca`
(spatial + functional PCA, for mvg/ig) or `spatialpca` (spatial only,
for var), model is `mvg`, `ig` or `var`.  The bare scheme `pwi` selects
the posture-wise intrinsic model, which needs no flattening.

All randomness expands from the single --seed through fixed spawn keys
of numpy's SeedSequence:

    class k of synth          (k,)      (the datagen convention)
    simulate                  (100,)
    eval two-sample shuffles  (101,)
    eval quantize clustering  (102,)
    eval quantize subsample   (103,)
    twolevel level-one draws  (110,)
    twolevel emulator j draws (111, j)
    twolevel emulator j test  (112, j)

If the environment variable MOTIONEMU_DATA_DIR is set, relative input
and --out paths are resolved against it.  Errors print a single JSON
line (error type and message) to stderr and exit with status 1.
"""

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from . import datagen, dimred, evaluate, flatten, io as mio, models
from .alignment import align_all
from .errors import BadTarget, KindMismatch, MotionError
from .persist import load_bundle, load_reduction, save_bundle, save_reduction
from .skeleton import downsample, ingest_sequence

SEED_SIMULATE = 100
SEED_EVAL_PERM = 101
SEED_EVAL_CLUSTER = 102
SEED_EVAL_SAMPLE = 103
SEED_TL_LEVEL1 = 110
SEED_TL_SIM = 111
SEED_TL_DISCO = 112

# synth's flags (dashes for underscores) and their defaults
SYNTH_DEFAULTS = {"landmarks": 21, "frames": 1000, "target_frames": 301, "classes": 5,
                  "per_class": 60, "amplitude": 0.8, "bandwidth": 0.05,
                  "warp_strength": 0.5, "noise": 0.0}


def stage_seed(root, stage, extra=()):
    """Derive a stage's generator seed from the root seed."""
    key = (int(stage),) + tuple(int(x) for x in extra)
    return int(np.random.SeedSequence(int(root), spawn_key=key).generate_state(1)[0])


def parse_scheme(text: str):
    """Split a scheme string into (kind, dimred, model_type)."""
    t = text.strip().lower()
    if t in ("pwi", "intrinsic/none/pwi"):
        return "intrinsic", "none", "pwi"
    parts = t.split("/")
    if len(parts) != 3:
        raise KindMismatch(f"scheme {text!r} is not <repr>/<dimred>/<model> or 'pwi'")
    kind, red, model = parts
    if kind not in models.EMULATOR_KINDS:
        raise KindMismatch(f"unknown representation {kind!r}")
    if red not in ("seqpca", "spatialpca"):
        raise KindMismatch(f"unknown reduction {red!r}")
    if model not in ("mvg", "ig", "var"):
        raise KindMismatch(f"unknown model {model!r}")
    if model == "var" and red != "spatialpca":
        raise KindMismatch("var models run on spatial scores; use <repr>/spatialpca/var")
    if model in ("mvg", "ig") and red != "seqpca":
        raise KindMismatch(f"{model} models need both reductions; use <repr>/seqpca/{model}")
    return kind, red, model


def _resolve(path):
    base = os.environ.get("MOTIONEMU_DATA_DIR")
    if path is not None and base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _manifest(outdir, command, config, inputs, artifacts):
    blob = json.dumps(config, sort_keys=True).encode()
    payload = {
        "command": command,
        "config": config,
        "config_hash": hashlib.sha256(blob).hexdigest(),
        "seed": config.get("seed"),
        "inputs": {os.path.basename(p): _sha256(p) for p in inputs},
        "artifacts": {os.path.basename(p): _sha256(p) for p in artifacts},
    }
    path = os.path.join(outdir, f"manifest_{command}.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _emit(out, command, config, inputs, files):
    """Write each (name, writer, *data) of files as writer(out/name, *data),
    in order, then manifest_<command>.json over exactly those paths, which
    are returned."""
    paths = [os.path.join(out, name) for name, *_ in files]
    for path, (_, writer, *data) in zip(paths, files):
        writer(path, *data)
    _manifest(out, command, config, inputs, paths)
    return paths


def _config(args, *flags, **extra):
    """A manifest config: the named flags' values, with None as -1 and
    booleans as 0/1, plus the extra entries."""
    config = {}
    for flag in flags:
        value = getattr(args, flag)
        config[flag] = -1 if value is None else int(value) if isinstance(value, bool) else value
    return {**config, **extra}


def _cell(value):
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_, int, np.integer)):
        return str(int(value))
    return mio.fmt(value)


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_cell(v) for v in row) + "\n")


def _named_sets(pairs):
    """(name, resolved path, sequences) of each --set name=path."""
    out = []
    for pair in pairs:
        name, _, path = pair.partition("=")
        if not name or not path:
            raise BadTarget(f"--set wants name=path, got {pair!r}")
        path = _resolve(path)
        out.append((name, path, mio.read_posture_sequences(path)))
    return out


def _synth(args, out):
    configs = [datagen.SynthConfig(
        landmarks=args.landmarks, frames=args.frames, count=args.per_class,
        amplitude=args.amplitude, bandwidth=args.bandwidth, warp_strength=args.warp_strength,
        noise_scale=args.noise, seed=stage_seed(args.seed, k)) for k in range(args.classes)]
    target = args.target_frames if args.target_frames > 0 else None
    seqs, labels = datagen.gen_mixture(configs, target_frames=target)
    paths = _emit(out, "synth", _config(args, *SYNTH_DEFAULTS, "seed"), [], [
        ("sequences.txt", mio.write_posture_sequences, seqs),
        ("labels.csv", _write_csv, ["index", "label"],
         [(i, int(v)) for i, v in enumerate(labels)])])
    print(f"synth: {len(seqs)} sequences of {seqs[0].shape[0]} frames, "
          f"{args.classes} classes")
    return seqs, paths


def cmd_ingest(args, out):
    src = _resolve(args.input)
    frames_list, hierarchy = mio.read_raw_sequences(src)
    seqs = [ingest_sequence(f, hierarchy) for f in frames_list]
    if args.target_frames > 0:
        seqs = [downsample(s, args.target_frames) for s in seqs]
    _emit(out, "ingest", _config(args, "target_frames", input=os.path.basename(src)), [src],
          [("sequences.txt", mio.write_posture_sequences, seqs)])
    print(f"ingest: {len(seqs)} sequences, {seqs[0].shape[0]} frames, "
          f"{hierarchy.n} landmarks")


def _align(args, out, seqs, src):
    aligned, warps = align_all(seqs, ref_index=args.ref_index)
    paths = _emit(out, "align", _config(args, "ref_index", input=os.path.basename(src)), [src],
                  [("aligned.txt", mio.write_posture_sequences, aligned),
                   ("warps.txt", mio.write_warps, warps)])
    print(f"align: {len(aligned)} sequences warped onto index {args.ref_index}")
    return aligned, paths


def cmd_align(args, out):
    src = _resolve(args.input)
    _align(args, out, mio.read_posture_sequences(src), src)


def _flatten(args, out, seqs, inputs, reference=None):
    """inputs are the paths of seqs and, when given, of the reference."""
    fields = flatten.flatten_sequence(seqs, reference, args.kind)
    config = _config(args, "kind", input=os.path.basename(inputs[0]),
                     reference=os.path.basename(args.reference))
    paths = _emit(out, "flatten", config, inputs,
                  [("fields.txt", mio.write_flatfields, fields),
                   ("reference.txt", mio.write_posture_sequences, [fields.reference[None]])])
    print(f"flatten: {len(fields)} {args.kind} fields of {fields.length} columns")
    return fields, paths


def cmd_flatten(args, out):
    inputs = [_resolve(p) for p in (args.input, args.reference) if p]
    seqs = mio.read_posture_sequences(inputs[0])
    reference = mio.read_posture_sequences(inputs[1])[0][0] if args.reference else None
    _flatten(args, out, seqs, inputs, reference)


def _reduce(args, out, fields, src):
    spatial, fpca = dimred.reduce_fields(fields, args.method == "seqpca", args.d1, args.d2,
                                         args.var1, args.var2)
    config = _config(args, "method", "d1", "d2", "var1", "var2", input=os.path.basename(src))
    paths = _emit(out, "reduce", config, [src], [("reduction.txt", save_reduction, spatial, fpca)])
    d2 = "" if fpca is None else f" d2={fpca.dims[1]}"
    print(f"reduce: {args.method} d1={spatial.dim}{d2}")
    return (spatial, fpca), paths


def cmd_reduce(args, out):
    src = _resolve(args.input)
    _reduce(args, out, mio.read_flatfields(src), src)


def _fit(args, out, inputs, seqs=None, fields=None, reduction=None):
    """Fit pwi on seqs, other models on fields through reduction, a
    (spatial, fpca) pair; inputs are the paths of what was fitted on."""
    kind, _, model_type = parse_scheme(args.scheme)
    if model_type == "pwi":
        bundle = models.fit_emulator(seqs, model_type="pwi", diagonal=args.diagonal)
    else:
        if fields.kind != kind:
            raise KindMismatch(f"fields are {fields.kind!r}, scheme wants {kind!r}")
        bundle = models.fit_bundle(fields, *reduction, model_type, args.order,
                                   args.var_index, args.start_policy)
    config = _config(args, "order", "var_index", "start_policy", "diagonal",
                     scheme=args.scheme.lower())
    paths = _emit(out, "fit", config, inputs, [("bundle.txt", save_bundle, bundle)])
    print(f"fit: {bundle.model_type} bundle over {bundle.length} frames "
          f"({bundle.meta.get('count', 0)} training sequences)")
    return bundle, paths


def cmd_fit(args, out):
    _, _, model_type = parse_scheme(args.scheme)
    if model_type == "pwi":
        if not args.input:
            raise BadTarget("scheme pwi fits from sequences; pass --input")
        src = _resolve(args.input)
        _fit(args, out, [src], seqs=mio.read_posture_sequences(src))
        return
    if not args.fields or not args.reduction:
        raise BadTarget(f"scheme {args.scheme} fits from artifacts; "
                        "pass --fields and --reduction")
    fields_src = _resolve(args.fields)
    red_src = _resolve(args.reduction)
    _fit(args, out, [fields_src, red_src], fields=mio.read_flatfields(fields_src),
         reduction=load_reduction(red_src))


def _simulate(args, out, bundle, src):
    if args.split:
        head, _, tail = args.split.partition("/")
        try:
            n_fit, n_held = int(head), int(tail)
        except ValueError:
            raise BadTarget(f"--split wants FIT/HELD counts, got {args.split!r}")
        if n_fit <= 0 or n_held <= 0 or n_fit + n_held != args.count:
            raise BadTarget(f"split {args.split} does not partition count {args.count}")
    sims = models.simulate_sequence(bundle, args.count,
                                    seed=stage_seed(args.seed, SEED_SIMULATE))
    files = [("sims.txt", mio.write_posture_sequences, sims)]
    if args.split:
        files += [("sims_fit.txt", mio.write_posture_sequences, sims[:n_fit]),
                  ("sims_held.txt", mio.write_posture_sequences, sims[n_fit:])]
    config = _config(args, "count", "split", "seed", bundle=os.path.basename(src))
    paths = _emit(out, "simulate", config, [src], files)
    print(f"simulate: {len(sims)} sequences from {bundle.model_type} bundle")
    return sims, paths


def cmd_simulate(args, out):
    if args.count < 1:
        raise BadTarget("count must be positive")
    src = _resolve(args.bundle)
    _simulate(args, out, load_bundle(src), src)


def _two_sample(args, out, group_a, group_b, a_src, b_src):
    res = evaluate.disco_test(group_a, group_b, n_perm=args.n_perm,
                              seed=stage_seed(args.seed, SEED_EVAL_PERM),
                              exhaustive=args.exhaustive)
    config = _config(args, "n_perm", "exhaustive", "seed", a=os.path.basename(a_src),
                     b=os.path.basename(b_src))
    paths = _emit(out, "eval-two-sample", config, [a_src, b_src],
                  [("two_sample.csv", _write_csv, ["statistic", "p_value", "permutations"],
                    [(res.statistic, res.p_value, res.permutations)])])
    print(f"two-sample: statistic {res.statistic:.6g}, p {res.p_value:.4g} "
          f"({res.permutations} shuffles)")
    return res, paths


def cmd_two_sample(args, out):
    a_src, b_src = _resolve(args.a), _resolve(args.b)
    _two_sample(args, out, mio.read_posture_sequences(a_src),
                mio.read_posture_sequences(b_src), a_src, b_src)


def cmd_quantize(args, out):
    if args.sample < 1:
        raise BadTarget("sample must be positive")
    train_src = _resolve(args.train)
    train = mio.read_posture_sequences(train_src)
    sets = [("train", train_src, train)] + _named_sets(args.set or [])
    pool = np.concatenate([np.asarray(s) for s in train], axis=0)
    if pool.shape[0] > args.sample:
        rng = np.random.default_rng(stage_seed(args.seed, SEED_EVAL_SAMPLE))
        keep = rng.choice(pool.shape[0], size=args.sample, replace=False)
        pool = pool[np.sort(keep)]
    seed = stage_seed(args.seed, SEED_EVAL_CLUSTER)
    if args.k == 0:
        k, _, model = evaluate.select_k(pool, seed=seed)
        print(f"quantize: silhouette sweep picked k={k}")
    else:
        model = evaluate.cluster_postures(pool, k=args.k, seed=seed)
    reference_labels = evaluate.mean_label_sequence(train, model)
    rows = []
    label_rows = []
    for name, _, seqs in sets:
        labels = [evaluate.quantize(s, model) for s in seqs]
        label_rows += [(name, i, " ".join(str(int(v)) for v in lab))
                       for i, lab in enumerate(labels)]
        mean, var = evaluate.variability_stats(labels, reference_labels)
        rows.append((name, len(seqs), mean, var))
    config = _config(args, "k", "sample", "seed", train=os.path.basename(train_src),
                     sets=",".join(name for name, _, _ in sets[1:]))
    _emit(out, "eval-quantize", config, [path for _, path, _ in sets], [
        ("quantize.csv", _write_csv, ["set", "sequences", "mean_variability", "variance"], rows),
        ("mean_labels.csv", _write_csv, ["frame", "label"],
         [(i, int(v)) for i, v in enumerate(reference_labels)]),
        ("label_sequences.csv", _write_csv, ["set", "index", "labels"], label_rows)])
    for row in rows:
        print(f"quantize: {row[0]} mean variability {row[2]:.4f}")


def cmd_roughness(args, out):
    sets = _named_sets(args.set)
    rows = []
    series_rows = []
    for name, _, seqs in sets:
        per_seq = []
        for i, s in enumerate(seqs):
            series = evaluate.roughness(s)
            per_seq.append(float(series.mean()))
            series_rows.append((name, i, " ".join(mio.fmt(v) for v in series)))
        per_seq = np.asarray(per_seq)
        sd = float(per_seq.std(ddof=1)) if per_seq.size > 1 else 0.0
        rows.append((name, len(seqs), float(per_seq.mean()), sd))
    _emit(out, "eval-roughness", _config(args, sets=",".join(name for name, _, _ in sets)),
          [path for _, path, _ in sets],
          [("roughness.csv", _write_csv, ["set", "sequences", "mean", "sd"], rows),
           ("roughness_series.csv", _write_csv, ["set", "index", "series"], series_rows)])
    for row in rows:
        print(f"roughness: {row[0]} mean {row[2]:.6g}")


def cmd_mds(args, out):
    src = _resolve(args.input)
    dmat = evaluate.sequence_distance_matrix(mio.read_posture_sequences(src))
    coords = evaluate.mds_coords_from(dmat, dims=args.dims)
    _emit(out, "eval-mds", _config(args, "dims", input=os.path.basename(src)), [src], [
        ("mds.csv", _write_csv, ["index"] + [f"c{i}" for i in range(args.dims)],
         [(i, *row) for i, row in enumerate(coords)]),
        ("dmat.csv", _write_csv, [f"d{i}" for i in range(dmat.shape[0])],
         [tuple(row) for row in dmat])])
    print(f"mds: {coords.shape[0]} sequences embedded in {args.dims} dimensions")


def cmd_qq(args, out):
    bundle_src, a_src, b_src = (_resolve(p) for p in (args.bundle, args.a, args.b))
    bundle = load_bundle(bundle_src)
    ll_a = models.sequence_logliks(bundle, mio.read_posture_sequences(a_src))
    ll_b = models.sequence_logliks(bundle, mio.read_posture_sequences(b_src))
    pairs = evaluate.qq_data(ll_a, ll_b)
    config = _config(args, bundle=os.path.basename(bundle_src), a=os.path.basename(a_src),
                     b=os.path.basename(b_src))
    _emit(out, "eval-qq", config, [bundle_src, a_src, b_src],
          [("qq.csv", _write_csv, ["a_quantile", "b_quantile"], [tuple(r) for r in pairs])])
    print(f"qq: {pairs.shape[0]} quantile pairs, medians "
          f"{np.median(ll_a):.6g} vs {np.median(ll_b):.6g}")


def cmd_pipeline(args, out):
    kind, red, model_type = parse_scheme(args.scheme)
    for flag in ("count", "n_perm"):
        if getattr(args, flag) < 1:
            raise BadTarget(f"{flag} must be positive")
    args.kind, args.method = kind, red
    artifacts = []

    def stage(run, *loaded, **more):  # -> result, path the next stage hashes
        result, paths = run(args, out, *loaded, **more)
        artifacts.extend(paths)
        return result, paths[0]

    if args.input:
        seq_src = _resolve(args.input)
        seqs = mio.read_posture_sequences(seq_src)
        inputs = [seq_src]
    else:
        seqs, seq_src = stage(_synth)
        inputs = []
    aligned, aligned_path = stage(_align, seqs, seq_src)
    del seqs  # every later stage reads the aligned copy; keeping both raises the peak
    if model_type == "pwi":
        bundle, bundle_path = stage(_fit, [aligned_path], seqs=aligned)
    else:
        fields, fields_path = stage(_flatten, aligned, [aligned_path])
        reduction, red_path = stage(_reduce, fields, fields_path)
        bundle, bundle_path = stage(_fit, [fields_path, red_path], fields=fields,
                                    reduction=reduction)
    sims, sims_path = stage(_simulate, bundle, bundle_path)
    stage(_two_sample, sims, aligned, sims_path, aligned_path)
    config = _config(args, "seed", "count", "n_perm", "d1", "d2", "var1", "var2",
                     scheme=args.scheme.lower(), input=os.path.basename(args.input))
    _manifest(out, "pipeline", config, inputs, artifacts)
    print(f"pipeline: {args.scheme.lower()} run complete in {out}")


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
        if name not in models.MODEL_TYPES:
            raise KindMismatch(f"unknown emulator {name!r}")
        if name in emulators[:j]:
            # two rows of one name would share, and overwrite, one qq file
            raise BadTarget(f"emulator {name!r} is listed more than once")
    if model_type not in ("mvg", "ig"):
        raise KindMismatch(f"level-one model {model_type!r} has no density to score draws "
                           "with; the scheme must be <repr>/seqpca/mvg or <repr>/seqpca/ig")
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


def cmd_twolevel(args, out):
    src = _resolve(args.input)
    seqs = mio.read_posture_sequences(src)
    kind, _, model_type = parse_scheme(args.scheme)
    emulators = tuple(e.strip() for e in args.emulators.split(",") if e.strip())
    report = run_twolevel(seqs, kind=kind, model_type=model_type,
                          d1=args.d1, d2=args.d2, total=args.total,
                          holdout=args.holdout, emulators=emulators,
                          n_perm=args.n_perm, seed=args.seed)
    table = ("twolevel.csv", _write_csv,
             ["emulator", "statistic", "p_value", "median_loglik", "median_loglik_test"],
             [(r["emulator"], r["statistic"], r["p_value"],
               r["median_loglik"], r["median_loglik_test"]) for r in report["rows"]])
    qq = [(f"qq_{name}.csv", _write_csv, ["test_quantile", "sim_quantile"],
           [tuple(r) for r in report["qq"][name]]) for name in emulators]
    config = _config(args, "d1", "d2", "total", "holdout", "n_perm", "seed",
                     input=os.path.basename(src), scheme=args.scheme.lower(),
                     emulators=",".join(emulators))
    _emit(out, "twolevel", config, [src], [table, *qq])
    for r in report["rows"]:
        print(f"twolevel: {r['emulator']} p {r['p_value']:.4g} "
              f"median loglik {r['median_loglik']:.6g} "
              f"(test {r['median_loglik_test']:.6g})")


def _add_synth_flags(p):
    for name, default in SYNTH_DEFAULTS.items():
        p.add_argument("--" + name.replace("_", "-"), type=type(default), default=default)


def _add_reduce_flags(p):
    for name, kind, default in (("d1", int, None), ("d2", int, None),
                                ("var1", float, 0.9), ("var2", float, 0.95)):
        p.add_argument("--" + name, type=kind, default=default)


def _add_fit_flags(p):
    p.add_argument("--order", type=int, default=4)
    p.add_argument("--var-index", type=int, default=0)
    p.add_argument("--start-policy", default="training-mean",
                   choices=models.START_POLICIES)


def build_parser():
    root = argparse.ArgumentParser(prog="motionemu",
                                   description="Skeletal motion emulation pipeline.")
    sub = root.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", required=True)

    def leaf(group, name, func, about):  # a command: --out plus its own flags
        p = group.add_parser(name, help=about, parents=[common])
        p.set_defaults(func=func)
        return p

    p = leaf(sub, "synth", _synth, "generate synthetic motion classes")
    _add_synth_flags(p)
    p.add_argument("--seed", type=int, default=0)

    p = leaf(sub, "ingest", cmd_ingest, "convert landmark files to posture sequences")
    p.add_argument("--input", required=True)
    p.add_argument("--target-frames", type=int, default=0)

    p = leaf(sub, "align", cmd_align, "register sequences to a common timing")
    p.add_argument("--input", required=True)
    p.add_argument("--ref-index", type=int, default=0)

    p = leaf(sub, "flatten", cmd_flatten, "map sequences to Euclidean fields")
    p.add_argument("--input", required=True)
    p.add_argument("--kind", default="istvf", choices=flatten.FLATTEN_KINDS)
    p.add_argument("--reference", default="")

    p = leaf(sub, "reduce", cmd_reduce, "fit dimension reductions on fields")
    p.add_argument("--input", required=True)
    p.add_argument("--method", default="seqpca", choices=("seqpca", "spatialpca"))
    _add_reduce_flags(p)

    p = leaf(sub, "fit", cmd_fit, "fit an emulator bundle")
    p.add_argument("--scheme", required=True)
    p.add_argument("--fields", default="")
    p.add_argument("--reduction", default="")
    p.add_argument("--input", default="")
    p.add_argument("--diagonal", action="store_true")
    _add_fit_flags(p)

    p = leaf(sub, "simulate", cmd_simulate, "draw sequences from a bundle")
    p.add_argument("--bundle", required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--split", default="", metavar="FIT/HELD",
                   help="also write the draws partitioned into two files")
    p.add_argument("--seed", type=int, default=0)

    esub = sub.add_parser("eval", help="evaluation reports").add_subparsers(
        dest="eval_cmd", required=True)

    e = leaf(esub, "two-sample", cmd_two_sample, "permutation two-sample test")
    e.add_argument("--a", required=True)
    e.add_argument("--b", required=True)
    e.add_argument("--n-perm", type=int, default=999)
    e.add_argument("--exhaustive", action="store_true")
    e.add_argument("--seed", type=int, default=0)

    e = leaf(esub, "quantize", cmd_quantize, "posture-code variability summaries")
    e.add_argument("--train", required=True)
    e.add_argument("--set", action="append", metavar="NAME=PATH")
    e.add_argument("--k", type=int, default=9,
                   help="cluster count; 0 sweeps 2..15 by silhouette")
    e.add_argument("--sample", type=int, default=5000)
    e.add_argument("--seed", type=int, default=0)

    e = leaf(esub, "roughness", cmd_roughness, "successive-frame distance summaries")
    e.add_argument("--set", action="append", required=True, metavar="NAME=PATH")

    e = leaf(esub, "mds", cmd_mds, "classical scaling of sequence distances")
    e.add_argument("--input", required=True)
    e.add_argument("--dims", type=int, default=2)

    e = leaf(esub, "qq", cmd_qq, "log-likelihood quantile pairs under a bundle")
    e.add_argument("--bundle", required=True)
    e.add_argument("--a", required=True)
    e.add_argument("--b", required=True)

    p = leaf(sub, "pipeline", cmd_pipeline, "run the full chain in one directory")
    p.add_argument("--input", default="")
    _add_synth_flags(p)
    p.add_argument("--scheme", default="istvf/seqpca/ig")
    p.add_argument("--ref-index", type=int, default=0)
    _add_reduce_flags(p)
    _add_fit_flags(p)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--n-perm", type=int, default=199)
    p.add_argument("--seed", type=int, default=0)
    # the stage settings pipeline does not expose
    p.set_defaults(diagonal=False, reference="", split="", exhaustive=False)

    p = leaf(sub, "twolevel", cmd_twolevel, "second-level emulator adequacy report")
    p.add_argument("--input", required=True)
    p.add_argument("--scheme", default="istvf/seqpca/ig")
    p.add_argument("--d1", type=int, default=4)
    p.add_argument("--d2", type=int, default=4)
    p.add_argument("--total", type=int, default=1000)
    p.add_argument("--holdout", type=int, default=200)
    p.add_argument("--emulators", default="ig,mvg,pwi")
    p.add_argument("--n-perm", type=int, default=999)
    p.add_argument("--seed", type=int, default=0)

    return root


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        out = _resolve(args.out)
        os.makedirs(out, exist_ok=True)
        args.func(args, out)
    except (MotionError, OSError, ValueError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
