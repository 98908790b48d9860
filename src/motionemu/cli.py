"""Command-line pipeline around the library.

Commands: synth, ingest, align, flatten, reduce, fit, simulate, eval
(two-sample, quantize, roughness, mds, qq), pipeline, twolevel.  Each
command writes its artifacts plus a `manifest_<command>.json` into the
--out directory.  The manifest records the command, its configuration,
and SHA-256 checksums of inputs and artifacts, with all paths reduced to
basenames; it carries no timestamps, so a rerun with the same seed and
inputs reproduces every artifact and manifest byte for byte.

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

from . import datagen, dimred, evaluate, flatten, geometry as geo, io as mio, models
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
    if kind not in ("istvf", "siem"):
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


def _out_dir(args):
    out = _resolve(args.out)
    os.makedirs(out, exist_ok=True)
    return out


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
    out = []
    for pair in pairs:
        name, _, path = pair.partition("=")
        if not name or not path:
            raise BadTarget(f"--set wants name=path, got {pair!r}")
        out.append((name, mio.read_posture_sequences(_resolve(path))))
    return out


def _synth(args, out):
    configs = []
    for k in range(args.classes):
        configs.append(datagen.SynthConfig(
            landmarks=args.landmarks, frames=args.frames, count=args.per_class,
            amplitude=args.amplitude, bandwidth=args.bandwidth, warp_strength=args.warp_strength,
            noise_scale=args.noise, seed=stage_seed(args.seed, k)))
    target = args.target_frames if args.target_frames > 0 else None
    seqs, labels = datagen.gen_mixture(configs, target_frames=target)
    seq_path = os.path.join(out, "sequences.txt")
    mio.write_posture_sequences(seq_path, list(seqs))
    label_path = os.path.join(out, "labels.csv")
    _write_csv(label_path, ["index", "label"], [(i, int(v)) for i, v in enumerate(labels)])
    config = {"landmarks": args.landmarks, "frames": args.frames,
              "target_frames": args.target_frames, "classes": args.classes,
              "per_class": args.per_class, "amplitude": args.amplitude,
              "bandwidth": args.bandwidth, "warp_strength": args.warp_strength,
              "noise": args.noise, "seed": args.seed}
    _manifest(out, "synth", config, [], [seq_path, label_path])
    print(f"synth: {seqs.shape[0]} sequences of {seqs.shape[1]} frames, "
          f"{args.classes} classes")
    return list(seqs), [seq_path, label_path]


def cmd_synth(args):
    _synth(args, _out_dir(args))


def cmd_ingest(args):
    out = _out_dir(args)
    src = _resolve(args.input)
    frames_list, hierarchy = mio.read_raw_sequences(src)
    seqs = [ingest_sequence(f, hierarchy) for f in frames_list]
    if args.target_frames > 0:
        seqs = [downsample(s, args.target_frames) for s in seqs]
    seq_path = os.path.join(out, "sequences.txt")
    mio.write_posture_sequences(seq_path, seqs)
    config = {"input": os.path.basename(src), "target_frames": args.target_frames}
    _manifest(out, "ingest", config, [src], [seq_path])
    print(f"ingest: {len(seqs)} sequences, {seqs[0].shape[0]} frames, "
          f"{hierarchy.n} landmarks")


def _align(args, out, seqs, src):
    aligned, warps = align_all(seqs, ref_index=args.ref_index)
    aligned_path = os.path.join(out, "aligned.txt")
    warps_path = os.path.join(out, "warps.txt")
    mio.write_posture_sequences(aligned_path, aligned)
    mio.write_warps(warps_path, warps)
    config = {"input": os.path.basename(src), "ref_index": args.ref_index}
    _manifest(out, "align", config, [src], [aligned_path, warps_path])
    print(f"align: {len(aligned)} sequences warped onto index {args.ref_index}")
    return aligned, [aligned_path, warps_path]


def cmd_align(args):
    out = _out_dir(args)
    src = _resolve(args.input)
    _align(args, out, mio.read_posture_sequences(src), src)


def _flatten(args, out, seqs, inputs, reference=None):
    """inputs are the paths of seqs and, when given, of the reference."""
    if reference is None:
        reference = geo.karcher_mean(np.concatenate(seqs, axis=0))
    fields = [flatten.flatten_sequence(s, reference, args.kind) for s in seqs]
    fields_path = os.path.join(out, "fields.txt")
    mio.write_flatfields(fields_path, fields)
    ref_path = os.path.join(out, "reference.txt")
    mio.write_posture_sequences(ref_path, [reference[None]])
    config = {"input": os.path.basename(inputs[0]), "kind": args.kind,
              "reference": os.path.basename(args.reference) if args.reference else ""}
    _manifest(out, "flatten", config, inputs, [fields_path, ref_path])
    print(f"flatten: {len(fields)} {args.kind} fields of "
          f"{fields[0].values.shape[1]} columns")
    return fields, [fields_path, ref_path]


def cmd_flatten(args):
    out = _out_dir(args)
    inputs = [_resolve(p) for p in (args.input, args.reference) if p]
    seqs = mio.read_posture_sequences(inputs[0])
    reference = mio.read_posture_sequences(inputs[1])[0][0] if args.reference else None
    _flatten(args, out, seqs, inputs, reference)


def _reduce(args, out, fields, src):
    red_path = os.path.join(out, "reduction.txt")
    spatial, fpca = dimred.reduce_fields(fields, args.method == "seqpca", args.d1, args.d2,
                                         args.var1, args.var2)
    save_reduction(red_path, spatial, fpca)
    d2 = "" if fpca is None else f" d2={fpca.dims[1]}"
    print(f"reduce: {args.method} d1={spatial.dim}{d2}")
    config = {"input": os.path.basename(src), "method": args.method,
              "d1": args.d1 if args.d1 is not None else -1,
              "d2": args.d2 if args.d2 is not None else -1,
              "var1": args.var1, "var2": args.var2}
    _manifest(out, "reduce", config, [src], [red_path])
    return (spatial, fpca), [red_path]


def cmd_reduce(args):
    out = _out_dir(args)
    src = _resolve(args.input)
    _reduce(args, out, mio.read_flatfields(src), src)


def _fit(args, out, inputs, seqs=None, fields=None, reduction=None):
    """Fit pwi on seqs, other models on fields through reduction, a
    (spatial, fpca) pair; inputs are the paths of what was fitted on."""
    kind, _, model_type = parse_scheme(args.scheme)
    if model_type == "pwi":
        bundle = models.fit_emulator(seqs, model_type="pwi", diagonal=args.diagonal)
    else:
        if fields[0].kind != kind:
            raise KindMismatch(f"fields are {fields[0].kind!r}, scheme wants {kind!r}")
        bundle = models.fit_bundle(fields, *reduction, model_type, args.order,
                                   args.var_index, args.start_policy)
    bundle_path = os.path.join(out, "bundle.txt")
    save_bundle(bundle_path, bundle)
    config = {"scheme": args.scheme.lower(), "order": args.order,
              "var_index": args.var_index, "start_policy": args.start_policy,
              "diagonal": int(args.diagonal)}
    _manifest(out, "fit", config, inputs, [bundle_path])
    print(f"fit: {bundle.model_type} bundle over {bundle.length} frames "
          f"({bundle.meta.get('count', 0)} training sequences)")
    return bundle, [bundle_path]


def cmd_fit(args):
    out = _out_dir(args)
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
    sims_path = os.path.join(out, "sims.txt")
    mio.write_posture_sequences(sims_path, sims)
    artifacts = [sims_path]
    if args.split:
        fit_path = os.path.join(out, "sims_fit.txt")
        held_path = os.path.join(out, "sims_held.txt")
        mio.write_posture_sequences(fit_path, sims[:n_fit])
        mio.write_posture_sequences(held_path, sims[n_fit:])
        artifacts += [fit_path, held_path]
    config = {"bundle": os.path.basename(src), "count": args.count,
              "split": args.split or "", "seed": args.seed}
    _manifest(out, "simulate", config, [src], artifacts)
    print(f"simulate: {len(sims)} sequences from {bundle.model_type} bundle")
    return sims, artifacts


def cmd_simulate(args):
    out = _out_dir(args)
    src = _resolve(args.bundle)
    _simulate(args, out, load_bundle(src), src)


def _two_sample(args, out, group_a, group_b, a_src, b_src):
    res = evaluate.disco_test(group_a, group_b, n_perm=args.n_perm,
                              seed=stage_seed(args.seed, SEED_EVAL_PERM),
                              exhaustive=args.exhaustive)
    csv_path = os.path.join(out, "two_sample.csv")
    _write_csv(csv_path, ["statistic", "p_value", "permutations"],
               [(res.statistic, res.p_value, res.permutations)])
    config = {"a": os.path.basename(a_src), "b": os.path.basename(b_src),
              "n_perm": args.n_perm, "exhaustive": int(args.exhaustive),
              "seed": args.seed}
    _manifest(out, "eval-two-sample", config, [a_src, b_src], [csv_path])
    print(f"two-sample: statistic {res.statistic:.6g}, p {res.p_value:.4g} "
          f"({res.permutations} shuffles)")
    return res, [csv_path]


def _eval_two_sample(args, out):
    a_src, b_src = _resolve(args.a), _resolve(args.b)
    _two_sample(args, out, mio.read_posture_sequences(a_src),
                mio.read_posture_sequences(b_src), a_src, b_src)


def _eval_quantize(args, out):
    train_src = _resolve(args.train)
    train = mio.read_posture_sequences(train_src)
    sets = _named_sets(args.set or [])
    pool = np.concatenate([np.asarray(s) for s in train], axis=0)
    if pool.shape[0] > args.sample:
        rng = np.random.default_rng(stage_seed(args.seed, SEED_EVAL_SAMPLE))
        keep = rng.choice(pool.shape[0], size=args.sample, replace=False)
        pool = pool[np.sort(keep)]
    k = args.k
    if k == 0:
        k, _ = evaluate.select_k(pool, seed=stage_seed(args.seed, SEED_EVAL_CLUSTER))
        print(f"quantize: silhouette sweep picked k={k}")
    model = evaluate.cluster_postures(pool, k=k,
                                      seed=stage_seed(args.seed, SEED_EVAL_CLUSTER))
    reference_labels = evaluate.mean_label_sequence(train, model)
    rows = []
    label_rows = []
    for name, seqs in [("train", train)] + sets:
        labels = [evaluate.quantize(s, model) for s in seqs]
        label_rows += [(name, i, " ".join(str(int(v)) for v in lab))
                       for i, lab in enumerate(labels)]
        mean, var = evaluate.variability_stats(labels, reference_labels)
        rows.append((name, len(seqs), mean, var))
    csv_path = os.path.join(out, "quantize.csv")
    _write_csv(csv_path, ["set", "sequences", "mean_variability", "variance"], rows)
    labels_path = os.path.join(out, "mean_labels.csv")
    _write_csv(labels_path, ["frame", "label"],
               [(i, int(v)) for i, v in enumerate(reference_labels)])
    series_path = os.path.join(out, "label_sequences.csv")
    _write_csv(series_path, ["set", "index", "labels"], label_rows)
    config = {"train": os.path.basename(train_src), "k": args.k,
              "sample": args.sample, "seed": args.seed,
              "sets": ",".join(name for name, _ in sets)}
    inputs = [train_src] + [_resolve(p.partition("=")[2]) for p in (args.set or [])]
    _manifest(out, "eval-quantize", config, inputs, [csv_path, labels_path, series_path])
    for row in rows:
        print(f"quantize: {row[0]} mean variability {row[2]:.4f}")


def _eval_roughness(args, out):
    sets = _named_sets(args.set)
    rows = []
    series_rows = []
    for name, seqs in sets:
        per_seq = []
        for i, s in enumerate(seqs):
            series = evaluate.roughness(s)
            per_seq.append(float(series.mean()))
            series_rows.append((name, i, " ".join(mio.fmt(v) for v in series)))
        per_seq = np.asarray(per_seq)
        sd = float(per_seq.std(ddof=1)) if per_seq.size > 1 else 0.0
        rows.append((name, len(seqs), float(per_seq.mean()), sd))
    csv_path = os.path.join(out, "roughness.csv")
    _write_csv(csv_path, ["set", "sequences", "mean", "sd"], rows)
    series_path = os.path.join(out, "roughness_series.csv")
    _write_csv(series_path, ["set", "index", "series"], series_rows)
    config = {"sets": ",".join(name for name, _ in sets)}
    inputs = [_resolve(p.partition("=")[2]) for p in args.set]
    _manifest(out, "eval-roughness", config, inputs, [csv_path, series_path])
    for row in rows:
        print(f"roughness: {row[0]} mean {row[2]:.6g}")


def _eval_mds(args, out):
    src = _resolve(args.input)
    seqs = mio.read_posture_sequences(src)
    dmat = evaluate.sequence_distance_matrix(seqs)
    coords = evaluate.mds_coords_from(dmat, dims=args.dims)
    csv_path = os.path.join(out, "mds.csv")
    header = ["index"] + [f"c{i}" for i in range(args.dims)]
    _write_csv(csv_path, header, [(i, *row) for i, row in enumerate(coords)])
    dmat_path = os.path.join(out, "dmat.csv")
    _write_csv(dmat_path, [f"d{i}" for i in range(dmat.shape[0])],
               [tuple(row) for row in dmat])
    config = {"input": os.path.basename(src), "dims": args.dims}
    _manifest(out, "eval-mds", config, [src], [csv_path, dmat_path])
    print(f"mds: {coords.shape[0]} sequences embedded in {args.dims} dimensions")


def _eval_qq(args, out):
    bundle_src = _resolve(args.bundle)
    a_src, b_src = _resolve(args.a), _resolve(args.b)
    bundle = load_bundle(bundle_src)
    ll_a = models.sequence_logliks(bundle, mio.read_posture_sequences(a_src))
    ll_b = models.sequence_logliks(bundle, mio.read_posture_sequences(b_src))
    pairs = evaluate.qq_data(ll_a, ll_b)
    csv_path = os.path.join(out, "qq.csv")
    _write_csv(csv_path, ["a_quantile", "b_quantile"], [tuple(r) for r in pairs])
    config = {"bundle": os.path.basename(bundle_src), "a": os.path.basename(a_src),
              "b": os.path.basename(b_src)}
    _manifest(out, "eval-qq", config, [bundle_src, a_src, b_src], [csv_path])
    print(f"qq: {pairs.shape[0]} quantile pairs, medians "
          f"{np.median(ll_a):.6g} vs {np.median(ll_b):.6g}")


def cmd_eval(args):
    handlers = {"two-sample": _eval_two_sample, "quantize": _eval_quantize,
                "roughness": _eval_roughness, "mds": _eval_mds, "qq": _eval_qq}
    handlers[args.eval_cmd](args, _out_dir(args))


def cmd_pipeline(args):
    out = _out_dir(args)
    kind, red, model_type = parse_scheme(args.scheme)
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
    if model_type == "pwi":
        bundle, bundle_path = stage(_fit, [aligned_path], seqs=aligned)
    else:
        fields, fields_path = stage(_flatten, aligned, [aligned_path])
        reduction, red_path = stage(_reduce, fields, fields_path)
        bundle, bundle_path = stage(_fit, [fields_path, red_path], fields=fields,
                                    reduction=reduction)
    sims, sims_path = stage(_simulate, bundle, bundle_path)
    stage(_two_sample, sims, aligned, sims_path, aligned_path)
    config = {"scheme": args.scheme.lower(), "seed": args.seed,
              "input": os.path.basename(args.input) if args.input else "",
              "count": args.count, "n_perm": args.n_perm,
              "d1": args.d1 if args.d1 is not None else -1,
              "d2": args.d2 if args.d2 is not None else -1,
              "var1": args.var1, "var2": args.var2}
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
    reference model refit on the fitting part.
    """
    if not 0 < holdout < total:
        raise BadTarget("holdout must be positive and smaller than total")
    level_one = models.fit_emulator(seqs, kind=kind, model_type=model_type,
                                    d1=d1, d2=d2)
    sims = models.simulate_sequence(level_one, total,
                                    seed=stage_seed(seed, SEED_TL_LEVEL1))
    train2, test2 = sims[:total - holdout], sims[total - holdout:]

    bundles = {}

    def fit_two(name):
        if name not in bundles:
            if name == "pwi":
                bundles[name] = models.fit_emulator(train2, model_type="pwi")
            else:
                # level-two refits share the level-one chart so the closure
                # comparison is not confounded by reference drift
                bundles[name] = models.fit_emulator(train2, kind=kind,
                                                    model_type=name, d1=d1, d2=d2,
                                                    reference=level_one.reference)
        return bundles[name]

    reference = fit_two(model_type)
    ll_test = models.sequence_logliks(reference, test2)
    rows, qq, ll_sim = [], {}, {}
    for j, name in enumerate(emulators):
        bundle = fit_two(name)
        draws = models.simulate_sequence(bundle, holdout,
                                         seed=stage_seed(seed, SEED_TL_SIM, (j,)))
        res = evaluate.disco_test(draws, test2, n_perm=n_perm,
                                  seed=stage_seed(seed, SEED_TL_DISCO, (j,)))
        ll = models.sequence_logliks(reference, draws)
        qq[name] = evaluate.qq_data(ll_test, ll)
        ll_sim[name] = ll
        rows.append({"emulator": name, "statistic": res.statistic,
                     "p_value": res.p_value,
                     "median_loglik": float(np.median(ll)),
                     "median_loglik_test": float(np.median(ll_test))})
    return {"level_one": level_one, "bundles": bundles, "rows": rows,
            "qq": qq, "loglik_test": ll_test, "loglik_sim": ll_sim}


def cmd_twolevel(args):
    out = _out_dir(args)
    src = _resolve(args.input)
    seqs = mio.read_posture_sequences(src)
    kind, _, model_type = parse_scheme(args.scheme)
    if model_type == "pwi":
        raise KindMismatch("the level-one scheme must be a coefficient model")
    emulators = tuple(e.strip() for e in args.emulators.split(",") if e.strip())
    for name in emulators:
        if name not in models.MODEL_TYPES:
            raise KindMismatch(f"unknown emulator {name!r}")
    report = run_twolevel(seqs, kind=kind, model_type=model_type,
                          d1=args.d1, d2=args.d2, total=args.total,
                          holdout=args.holdout, emulators=emulators,
                          n_perm=args.n_perm, seed=args.seed)
    csv_path = os.path.join(out, "twolevel.csv")
    _write_csv(csv_path,
               ["emulator", "statistic", "p_value", "median_loglik", "median_loglik_test"],
               [(r["emulator"], r["statistic"], r["p_value"],
                 r["median_loglik"], r["median_loglik_test"]) for r in report["rows"]])
    artifacts = [csv_path]
    for name in emulators:
        qq_path = os.path.join(out, f"qq_{name}.csv")
        _write_csv(qq_path, ["test_quantile", "sim_quantile"],
                   [tuple(r) for r in report["qq"][name]])
        artifacts.append(qq_path)
    config = {"input": os.path.basename(src), "scheme": args.scheme.lower(),
              "d1": args.d1, "d2": args.d2, "total": args.total,
              "holdout": args.holdout, "emulators": ",".join(emulators),
              "n_perm": args.n_perm, "seed": args.seed}
    _manifest(out, "twolevel", config, [src], artifacts)
    for r in report["rows"]:
        print(f"twolevel: {r['emulator']} p {r['p_value']:.4g} "
              f"median loglik {r['median_loglik']:.6g} "
              f"(test {r['median_loglik_test']:.6g})")


def _add_synth_flags(p):
    p.add_argument("--landmarks", type=int, default=21)
    p.add_argument("--frames", type=int, default=1000)
    p.add_argument("--target-frames", type=int, default=301)
    p.add_argument("--classes", type=int, default=5)
    p.add_argument("--per-class", type=int, default=60)
    p.add_argument("--amplitude", type=float, default=0.8)
    p.add_argument("--bandwidth", type=float, default=0.05)
    p.add_argument("--warp-strength", type=float, default=0.5)
    p.add_argument("--noise", type=float, default=0.0)


def _add_fit_flags(p):
    p.add_argument("--order", type=int, default=4)
    p.add_argument("--var-index", type=int, default=0)
    p.add_argument("--start-policy", default="training-mean",
                   choices=models.START_POLICIES)


def build_parser():
    root = argparse.ArgumentParser(prog="motionemu",
                                   description="Skeletal motion emulation pipeline.")
    sub = root.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic motion classes")
    _add_synth_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ingest", help="convert landmark files to posture sequences")
    p.add_argument("--input", required=True)
    p.add_argument("--target-frames", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("align", help="register sequences to a common timing")
    p.add_argument("--input", required=True)
    p.add_argument("--ref-index", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("flatten", help="map sequences to Euclidean fields")
    p.add_argument("--input", required=True)
    p.add_argument("--kind", default="istvf", choices=flatten.FLATTEN_KINDS)
    p.add_argument("--reference", default="")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_flatten)

    p = sub.add_parser("reduce", help="fit dimension reductions on fields")
    p.add_argument("--input", required=True)
    p.add_argument("--method", default="seqpca", choices=("seqpca", "spatialpca"))
    p.add_argument("--d1", type=int, default=None)
    p.add_argument("--d2", type=int, default=None)
    p.add_argument("--var1", type=float, default=0.9)
    p.add_argument("--var2", type=float, default=0.95)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("fit", help="fit an emulator bundle")
    p.add_argument("--scheme", required=True)
    p.add_argument("--fields", default="")
    p.add_argument("--reduction", default="")
    p.add_argument("--input", default="")
    p.add_argument("--diagonal", action="store_true")
    _add_fit_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("simulate", help="draw sequences from a bundle")
    p.add_argument("--bundle", required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--split", default="", metavar="FIT/HELD",
                   help="also write the draws partitioned into two files")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("eval", help="evaluation reports")
    esub = p.add_subparsers(dest="eval_cmd", required=True)

    e = esub.add_parser("two-sample", help="permutation two-sample test")
    e.add_argument("--a", required=True)
    e.add_argument("--b", required=True)
    e.add_argument("--n-perm", type=int, default=999)
    e.add_argument("--exhaustive", action="store_true")
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--out", required=True)
    e.set_defaults(func=cmd_eval)

    e = esub.add_parser("quantize", help="posture-code variability summaries")
    e.add_argument("--train", required=True)
    e.add_argument("--set", action="append", metavar="NAME=PATH")
    e.add_argument("--k", type=int, default=9,
                   help="cluster count; 0 sweeps 2..15 by silhouette")
    e.add_argument("--sample", type=int, default=5000)
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--out", required=True)
    e.set_defaults(func=cmd_eval)

    e = esub.add_parser("roughness", help="successive-frame distance summaries")
    e.add_argument("--set", action="append", required=True, metavar="NAME=PATH")
    e.add_argument("--out", required=True)
    e.set_defaults(func=cmd_eval)

    e = esub.add_parser("mds", help="classical scaling of sequence distances")
    e.add_argument("--input", required=True)
    e.add_argument("--dims", type=int, default=2)
    e.add_argument("--out", required=True)
    e.set_defaults(func=cmd_eval)

    e = esub.add_parser("qq", help="log-likelihood quantile pairs under a bundle")
    e.add_argument("--bundle", required=True)
    e.add_argument("--a", required=True)
    e.add_argument("--b", required=True)
    e.add_argument("--out", required=True)
    e.set_defaults(func=cmd_eval)

    p = sub.add_parser("pipeline", help="run the full chain in one directory")
    p.add_argument("--input", default="")
    _add_synth_flags(p)
    p.add_argument("--scheme", default="istvf/seqpca/ig")
    p.add_argument("--ref-index", type=int, default=0)
    p.add_argument("--d1", type=int, default=None)
    p.add_argument("--d2", type=int, default=None)
    p.add_argument("--var1", type=float, default=0.9)
    p.add_argument("--var2", type=float, default=0.95)
    _add_fit_flags(p)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--n-perm", type=int, default=199)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    # the stage settings pipeline does not expose
    p.set_defaults(func=cmd_pipeline, diagonal=False, reference="", split="",
                   exhaustive=False)

    p = sub.add_parser("twolevel", help="second-level emulator adequacy report")
    p.add_argument("--input", required=True)
    p.add_argument("--scheme", default="istvf/seqpca/ig")
    p.add_argument("--d1", type=int, default=4)
    p.add_argument("--d2", type=int, default=4)
    p.add_argument("--total", type=int, default=1000)
    p.add_argument("--holdout", type=int, default=200)
    p.add_argument("--emulators", default="ig,mvg,pwi")
    p.add_argument("--n-perm", type=int, default=999)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_twolevel)

    return root


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (MotionError, OSError, ValueError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
