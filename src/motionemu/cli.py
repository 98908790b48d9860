"""Command-line pipeline around the library.

Commands: synth, ingest, align, flatten, reduce, fit, simulate, eval
(two-sample, quantize, roughness, mds, qq), pipeline, twolevel.  Each
command reads its files, makes its library call and hands the result to
`_emit`, which writes the files into --out and then manifest_<command>.json:
the command, its configuration (`_config`, from its flags) and SHA-256
checksums of its inputs as read, before any write (by basename), and of
exactly the files it wrote (by path under --out).  No timestamps: a rerun
with the same seed and inputs reproduces every file byte for byte.
Inputs and written files travel as (path, SHA-256) pairs, so a command
hashes each file once.

`pipeline` hands each stage's result to that stage's writer as
route.run_route yields it, and drops it once written, reading none back;
a later stage's inputs are the pairs an earlier stage returned, and a
failed stage leaves the earlier stages' files but no manifest_pipeline.json.
With --classes above one it runs the route once per synthetic class k, in
class_k/ from the root seed route.class_seed(seed, k), as `pipeline
--input class_k/sequences.txt` with that seed would.  Schemes are
`<repr>/<dimred>/<model>` (any case) with the model's reduction from
models.REDUCTIONS, or the bare `pwi`.
Seeded commands pass --seed to the `route` function that draws their streams.
Relative paths resolve against MOTIONEMU_DATA_DIR when it is set.
Errors print one JSON line (error type and message) to stderr and exit
with status 1.
"""

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from . import dimred, evaluate, flatten, io as mio, models, route
from .alignment import align_all
from .errors import BadTarget, DimensionMismatch, KindMismatch, MotionError
from .persist import load_bundle, load_reduction, save_bundle, save_reduction
from .route import run_twolevel  # criterion 7 imports it from here
from .skeleton import downsample_index, ingest_sequence

# synth's flags (dashes for underscores) and their defaults
SYNTH_DEFAULTS = {"landmarks": 21, "frames": 1000, "target_frames": 301, "classes": 5,
                  "per_class": 60, "amplitude": 0.8, "bandwidth": 0.05,
                  "warp_strength": 0.5, "noise": 0.0}


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
    wanted = models.REDUCTIONS.get(model, "none")
    if wanted == "none":  # the posture-wise model is the bare scheme
        raise KindMismatch(f"unknown model {model!r}")
    if red != wanted:
        raise KindMismatch(f"{model} models are fitted through {wanted}, not {red!r}; "
                           f"use <repr>/{wanted}/{model}")
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


def _digests(paths):  # (path, SHA-256) pairs, taken before any write: --out may hold an input
    return [(p, _sha256(p)) for p in paths]


def _manifest(outdir, command, config, inputs, artifacts):
    """inputs and artifacts are (path, SHA-256) pairs, recorded by basename
    and by path under outdir."""
    blob = json.dumps(config, sort_keys=True).encode()
    payload = {
        "command": command,
        "config": config,
        "config_hash": hashlib.sha256(blob).hexdigest(),
        "seed": config.get("seed"),
        "inputs": {os.path.basename(p): digest for p, digest in inputs},
        "artifacts": {os.path.relpath(p, outdir): digest for p, digest in artifacts},
    }
    path = os.path.join(outdir, f"manifest_{command}.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _emit(out, command, config, inputs, files):
    """Write each (name, writer, *data) of files as writer(out/name, *data),
    in order, hashing each file once written, then manifest_<command>.json
    over the (path, SHA-256) pairs of inputs and of exactly those files;
    return the files' pairs."""
    written = []
    for name, writer, *data in files:
        path = os.path.join(out, name)
        writer(path, *data)
        written.append((path, _sha256(path)))
    _manifest(out, command, config, inputs, written)
    return written


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


def _named_sets(pairs, given=()):
    """(name, resolved path, sequences) of the given (name, resolved path)
    pairs, then of each --set name=path.  Every name is checked before any
    file is read: a CSV cell, distinct from the others."""
    named = list(given)
    for pair in pairs:
        name, _, path = pair.partition("=")
        if not name or not path:
            raise BadTarget(f"--set wants name=path, got {pair!r}")
        if "," in name or any(c.isspace() for c in name):
            raise BadTarget(f"--set name {name!r} holds a comma or whitespace")
        if name in dict(named):
            raise BadTarget(f"--set name {name!r} is used more than once")
        named.append((name, _resolve(path)))
    return [(name, path, mio.read_posture_sequences(path)) for name, path in named]


def _synth(args, out):
    """Write the mixture; return its classes, as views of the pooled set
    (its labels are in class order), and the written (path, SHA-256) pairs."""
    seqs, labels = route.synth(
        args.seed, args.classes, args.target_frames if args.target_frames > 0 else None,
        landmarks=args.landmarks, frames=args.frames, count=args.per_class,
        amplitude=args.amplitude, bandwidth=args.bandwidth, warp_strength=args.warp_strength,
        noise_scale=args.noise)
    paths = _emit(out, "synth", _config(args, *SYNTH_DEFAULTS, "seed"), [], [
        ("sequences.txt", mio.write_posture_sequences, seqs),
        ("labels.csv", _write_csv, ["index", "label"],
         [(i, int(v)) for i, v in enumerate(labels)])])
    print(f"synth: {len(seqs)} sequences of {seqs[0].shape[0]} frames, {args.classes} classes")
    n = args.per_class
    return [seqs[k * n:(k + 1) * n] for k in range(args.classes)], paths


def cmd_ingest(args, out):
    src = _resolve(args.input)
    frames_list, hierarchy = mio.read_raw_sequences(src)
    keeps = [slice(None)] * len(frames_list)
    if args.target_frames > 0:  # every block is checked before any is converted
        for i, frames in enumerate(frames_list):
            try:
                keeps[i] = downsample_index(len(frames), args.target_frames)
            except BadTarget as exc:
                raise BadTarget(f"{src}: block {i}: {exc}") from None
    seqs = [ingest_sequence(f, hierarchy)[keep] for f, keep in zip(frames_list, keeps)]
    _emit(out, "ingest", _config(args, "target_frames", input=os.path.basename(src)),
          _digests([src]),
          [("sequences.txt", mio.write_posture_sequences, seqs)])
    print(f"ingest: {len(seqs)} sequences, {seqs[0].shape[0]} frames, "
          f"{hierarchy.n} landmarks")


# Stage writers: print, write and hash what they are given, with the (path,
# SHA-256) pairs of their inputs; return the written pairs.

def _align(args, out, aligned, warps, inputs):
    print(f"align: {len(aligned)} sequences warped onto index {args.ref_index}")
    config = _config(args, "ref_index", input=os.path.basename(inputs[0][0]))
    return _emit(out, "align", config, inputs,
                 [("aligned.txt", mio.write_posture_sequences, aligned),
                  ("warps.txt", mio.write_warps, warps)])


def cmd_align(args, out):
    src = _resolve(args.input)
    aligned, warps = align_all(mio.read_posture_sequences(src), ref_index=args.ref_index)
    _align(args, out, aligned, warps, _digests([src]))


def _flatten(args, out, fields, inputs):
    """inputs are the pairs of the sequences and, when given, of the reference."""
    config = _config(args, kind=fields.kind, input=os.path.basename(inputs[0][0]),
                     reference=os.path.basename(args.reference))
    print(f"flatten: {len(fields)} {fields.kind} fields of {fields.length} columns")
    return _emit(out, "flatten", config, inputs,
                 [("fields.txt", mio.write_flatfields, fields),
                  ("reference.txt", mio.write_posture_sequences, [fields.reference[None]])])


def cmd_flatten(args, out):
    inputs = [_resolve(p) for p in (args.input, args.reference) if p]
    seqs = mio.read_posture_sequences(inputs[0])
    reference = mio.read_posture_sequences(inputs[1])[0][0] if args.reference else None
    _flatten(args, out, flatten.flatten_sequence(seqs, reference, args.kind), _digests(inputs))


def _reduce(args, out, spatial, fpca, inputs):
    method = "spatialpca" if fpca is None else "seqpca"
    config = _config(args, "d1", "d2", "var1", "var2", method=method,
                     input=os.path.basename(inputs[0][0]))
    d2 = "" if fpca is None else f" d2={fpca.dims[1]}"
    print(f"reduce: {method} d1={spatial.dim}{d2}")
    return _emit(out, "reduce", config, inputs,
                 [("reduction.txt", save_reduction, spatial, fpca)])


def cmd_reduce(args, out):
    src = _resolve(args.input)
    _reduce(args, out, *dimred.reduce_fields(mio.read_flatfields(src), args.method == "seqpca",
                                             args.d1, args.d2, args.var1, args.var2),
            _digests([src]))


def _fit(args, out, bundle, inputs):
    config = _config(args, "order", "var_index", "start_policy", "diagonal",
                     scheme=args.scheme.lower())
    print(f"fit: {bundle.model_type} bundle over {bundle.length} frames "
          f"({bundle.meta.get('count', 0)} training sequences)")
    return _emit(out, "fit", config, inputs, [("bundle.txt", save_bundle, bundle)])


def cmd_fit(args, out):
    kind, _, model_type = parse_scheme(args.scheme)
    if model_type == "pwi":
        if not args.input:
            raise BadTarget("scheme pwi fits from sequences; pass --input")
        src = _resolve(args.input)
        _fit(args, out, models.fit_emulator(mio.read_posture_sequences(src), model_type="pwi",
                                            diagonal=args.diagonal), _digests([src]))
        return
    if not args.fields or not args.reduction:
        raise BadTarget(f"scheme {args.scheme} fits from artifacts; "
                        "pass --fields and --reduction")
    inputs = [_resolve(args.fields), _resolve(args.reduction)]
    fields, reduction = mio.read_flatfields(inputs[0]), load_reduction(inputs[1])
    if fields.kind != kind:
        raise KindMismatch(f"fields are {fields.kind!r}, scheme wants {kind!r}")
    try:
        bundle = models.fit_bundle(fields, *reduction, model_type, args.order, args.var_index,
                                   args.start_policy)
    except DimensionMismatch as exc:  # the two files disagree, say, on their time grid
        raise type(exc)(f"{inputs[0]} and {inputs[1]}: {exc}") from None
    _fit(args, out, bundle, _digests(inputs))


def _simulate(args, out, sims, model_type, inputs):
    config = _config(args, "count", "seed", bundle=os.path.basename(inputs[0][0]))
    print(f"simulate: {len(sims)} sequences from {model_type} bundle")
    return _emit(out, "simulate", config, inputs, [("sims.txt", mio.write_posture_sequences, sims)])


def cmd_simulate(args, out):
    if args.count < 1:
        raise BadTarget("count must be positive")
    src = _resolve(args.bundle)
    bundle = load_bundle(src)
    sims = route.simulate(bundle, args.count, args.seed)
    _simulate(args, out, sims, bundle.model_type, _digests([src]))


def _two_sample(args, out, res, inputs):
    (a_src, _), (b_src, _) = inputs
    config = _config(args, "n_perm", "exhaustive", "seed", a=os.path.basename(a_src),
                     b=os.path.basename(b_src))
    print(f"two-sample: statistic {res.statistic:.6g}, p {res.p_value:.4g} "
          f"({res.permutations} shuffles)")
    return _emit(out, "eval-two-sample", config, inputs,
                 [("two_sample.csv", _write_csv, ["statistic", "p_value", "permutations"],
                   [(res.statistic, res.p_value, res.permutations)])])


def cmd_two_sample(args, out):
    a_src, b_src = _resolve(args.a), _resolve(args.b)
    res = route.two_sample(mio.read_posture_sequences(a_src), mio.read_posture_sequences(b_src),
                           args.n_perm, args.seed, args.exhaustive)
    _two_sample(args, out, res, _digests([a_src, b_src]))


def cmd_quantize(args, out):
    sets = _named_sets(args.set or [], [("train", _resolve(args.train))])
    res = route.run_quantize(sets[0][2], [(name, seqs) for name, _, seqs in sets], args.k,
                             args.sample, args.seed)
    if args.k == 0:
        print(f"quantize: silhouette sweep picked k={res['k']}")
    config = _config(args, "k", "sample", "seed", train=os.path.basename(sets[0][1]),
                     sets=",".join(name for name, _, _ in sets[1:]))
    _emit(out, "eval-quantize", config, _digests([path for _, path, _ in sets]), [
        ("quantize.csv", _write_csv, ["set", "sequences", "mean_variability", "variance"],
         [(name, len(labels), mean, var) for name, labels, mean, var in res["sets"]]),
        ("mean_labels.csv", _write_csv, ["frame", "label"],
         [(i, int(v)) for i, v in enumerate(res["mean_labels"])]),
        ("label_sequences.csv", _write_csv, ["set", "index", "labels"],
         [(name, i, " ".join(str(int(v)) for v in lab))
          for name, labels, _, _ in res["sets"] for i, lab in enumerate(labels)])])
    for name, _, mean, _ in res["sets"]:
        print(f"quantize: {name} mean variability {mean:.4f}")


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
          _digests([path for _, path, _ in sets]),
          [("roughness.csv", _write_csv, ["set", "sequences", "mean", "sd"], rows),
           ("roughness_series.csv", _write_csv, ["set", "index", "series"], series_rows)])
    for row in rows:
        print(f"roughness: {row[0]} mean {row[2]:.6g}")


def cmd_mds(args, out):
    src = _resolve(args.input)
    dmat = evaluate.sequence_distance_matrix(mio.read_posture_sequences(src))
    coords = evaluate.mds_coords_from(dmat, dims=args.dims)
    config = _config(args, "dims", input=os.path.basename(src))
    _emit(out, "eval-mds", config, _digests([src]), [
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
    _emit(out, "eval-qq", config, _digests([bundle_src, a_src, b_src]),
          [("qq.csv", _write_csv, ["a_quantile", "b_quantile"], [tuple(r) for r in pairs])])
    print(f"qq: {pairs.shape[0]} quantile pairs, medians "
          f"{np.median(ll_a):.6g} vs {np.median(ll_b):.6g}")


def _pipeline(args, out, sets, source, inputs, before=()):
    """Run the route on sets.pop(0), read from the (path, SHA-256) pair
    source, with args' settings; write each stage's files into out as the
    route yields them, then manifest_pipeline.json (the pairs of inputs,
    then before and them), and return their pairs.  Popped in the call,
    the set is freed once aligned."""
    kind, _, model_type = parse_scheme(args.scheme)
    run = route.run_route(sets.pop(0), kind=kind, model_type=model_type, ref_index=args.ref_index,
                          d1=args.d1, d2=args.d2, var1=args.var1, var2=args.var2, order=args.order,
                          var_index=args.var_index, start_policy=args.start_policy, seed=args.seed,
                          count=args.count, n_perm=args.n_perm)
    # next(run)[1] is the next stage's result; no name keeps it past its writer
    align = _align(args, out, next(run)[1], next(run)[1], [source])  # aligned, warps
    fields, bundle = next(run)[1], next(run)[1]
    fit_on, chart = align[:1], []
    if fields is not None:  # a 'pwi' route fits on the aligned sequences
        chart = _flatten(args, out, fields, align[:1])
        chart += _reduce(args, out, bundle.spatial, bundle.fpca, chart[:1])
        fit_on = [chart[0], chart[-1]]
    del fields
    fit = _fit(args, out, bundle, fit_on)
    sims = _simulate(args, out, next(run)[1], bundle.model_type, fit)
    written = align + chart + fit + sims + _two_sample(args, out, next(run)[1],
                                                       [sims[0], align[0]])
    _pipeline_manifest(args, out, inputs, [*before, *written])
    return written


def _pipeline_manifest(args, out, inputs, artifacts):
    synth = () if args.input else SYNTH_DEFAULTS  # synth's flags when synth made the input
    config = _config(args, "seed", "count", "n_perm", "d1", "d2", "var1", "var2", "ref_index",
                     "order", "var_index", "start_policy", *synth,
                     scheme=args.scheme.lower(), input=os.path.basename(args.input))
    _manifest(out, "pipeline", config, inputs, artifacts)
    print(f"pipeline: {args.scheme.lower()} run complete in {out}")


def cmd_pipeline(args, out):
    parse_scheme(args.scheme)  # refused before synth writes anything
    for flag in ("count", "n_perm"):
        if getattr(args, flag) < 1:
            raise BadTarget(f"{flag} must be positive")
    if args.input:
        src = _resolve(args.input)
        sets, inputs, artifacts = [mio.read_posture_sequences(src)], _digests([src]), []
        source = inputs[0]
    else:
        sets, artifacts = _synth(args, out)
        inputs, source = [], artifacts[0]
    if len(sets) == 1:
        _pipeline(args, out, sets, source, inputs, artifacts)
        return
    for k in range(len(sets)):  # one route per class, as an --input run on its file
        sub = os.path.join(out, f"class_{k}")
        os.makedirs(sub, exist_ok=True)
        src = os.path.join(sub, "sequences.txt")
        mio.write_posture_sequences(src, sets[0])
        run = argparse.Namespace(**{**vars(args), "input": src,
                                    "seed": route.class_seed(args.seed, k)})
        source = _digests([src])
        artifacts += [*source, *_pipeline(run, sub, sets, source[0], source)]
    _pipeline_manifest(args, out, [], artifacts)


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
    _emit(out, "twolevel", config, _digests([src]), [table, *qq])
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
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0)

    def leaf(group, name, func, about, *parents):  # a command: --out plus its own flags
        p = group.add_parser(name, help=about, parents=[common, *parents])
        p.set_defaults(func=func)
        return p

    p = leaf(sub, "synth", _synth, "generate synthetic motion classes", seeded)
    _add_synth_flags(p)

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

    p = leaf(sub, "simulate", cmd_simulate, "draw sequences from a bundle", seeded)
    p.add_argument("--bundle", required=True)
    p.add_argument("--count", type=int, default=1)

    esub = sub.add_parser("eval", help="evaluation reports").add_subparsers(
        dest="eval_cmd", required=True)

    e = leaf(esub, "two-sample", cmd_two_sample, "permutation two-sample test", seeded)
    e.add_argument("--a", required=True)
    e.add_argument("--b", required=True)
    e.add_argument("--n-perm", type=int, default=999)
    e.add_argument("--exhaustive", action="store_true")

    e = leaf(esub, "quantize", cmd_quantize, "posture-code variability summaries", seeded)
    e.add_argument("--train", required=True)
    e.add_argument("--set", action="append", metavar="NAME=PATH")
    e.add_argument("--k", type=int, default=9,
                   help=f"cluster count; 0 sweeps {evaluate.K_SWEEP[0]}..{evaluate.K_SWEEP[-1]} "
                        "by silhouette")
    e.add_argument("--sample", type=int, default=5000)

    e = leaf(esub, "roughness", cmd_roughness, "successive-frame distance summaries")
    e.add_argument("--set", action="append", required=True, metavar="NAME=PATH")

    e = leaf(esub, "mds", cmd_mds, "classical scaling of sequence distances")
    e.add_argument("--input", required=True)
    e.add_argument("--dims", type=int, default=2)

    e = leaf(esub, "qq", cmd_qq, "log-likelihood quantile pairs under a bundle")
    e.add_argument("--bundle", required=True)
    e.add_argument("--a", required=True)
    e.add_argument("--b", required=True)

    p = leaf(sub, "pipeline", cmd_pipeline, "run the full chain in one directory", seeded)
    p.add_argument("--input", default="")
    _add_synth_flags(p)
    p.add_argument("--scheme", default="istvf/seqpca/ig")
    p.add_argument("--ref-index", type=int, default=0)
    _add_reduce_flags(p)
    _add_fit_flags(p)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--n-perm", type=int, default=199)
    # the stage settings pipeline does not expose
    p.set_defaults(diagonal=False, reference="", exhaustive=False)

    p = leaf(sub, "twolevel", cmd_twolevel, "second-level emulator adequacy report", seeded)
    p.add_argument("--input", required=True)
    p.add_argument("--scheme", default="istvf/seqpca/ig")
    p.add_argument("--d1", type=int, default=4)
    p.add_argument("--d2", type=int, default=4)
    p.add_argument("--total", type=int, default=1000)
    p.add_argument("--holdout", type=int, default=200)
    p.add_argument("--emulators", default="ig,mvg,pwi")
    p.add_argument("--n-perm", type=int, default=999)

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
