"""The benchmark's workloads: inputs, CLI commands and output checks.

Each workload builds its inputs with `motionemu.datagen` from the
benchmark seed and writes them as files; one round runs the workload's
`motionemu` command(s) on those files; `check` then tests the outputs
with the benchmark's own numpy code, against values it recomputes or
properties the method must have, never against stored earlier output.

`FULL` holds the sizes that are measured; `SMALL` shrinks every
workload to a few seconds for the self-test.
"""

import csv
import glob
import hashlib
import json
import os

import numpy as np

FULL = {
    "pipeline": {"landmarks": 21, "base_frames": 1000, "frames": 301, "count": 60,
                 "sims": 60, "n_perm": 199},
    "twolevel": {"landmarks": 6, "frames": 50, "count": 60, "d1": 10, "d2": 49,
                 "total": 1000, "holdout": 200, "n_perm": 199},
    "quantize": {"landmarks": 21, "base_frames": 1000, "frames": 301, "count": 60,
                 "other": 30, "sample": 2000, "k": 9, "commands": 3},
}

SMALL = {
    "pipeline": {"landmarks": 6, "base_frames": 100, "frames": 31, "count": 8,
                 "sims": 8, "n_perm": 19},
    "twolevel": {"landmarks": 5, "frames": 20, "count": 20, "d1": 4, "d2": 6,
                 "total": 120, "holdout": 40, "n_perm": 19},
    "quantize": {"landmarks": 6, "base_frames": 100, "frames": 31, "count": 10,
                 "other": 5, "sample": 200, "k": 4, "commands": 2},
}

NAMES = tuple(FULL)

UNIT_TOL = 1e-9
STAT_RTOL = 1e-9


def child_seed(seed, key):
    """Independent 32-bit seed for stream `key` of the benchmark seed."""
    return int(np.random.SeedSequence(seed, spawn_key=(key,)).generate_state(1)[0])


# ---- set-up: synthetic inputs -------------------------------------------

# motionemu is imported inside the set-up functions: run.py imports this
# module before it has found the program's sources.

def _paper_class(cfg, seed, count, noise=0.0):
    from motionemu import datagen
    synth = datagen.SynthConfig(landmarks=cfg["landmarks"], frames=cfg["base_frames"],
                                count=count, noise_scale=noise, seed=seed)
    seqs, _ = datagen.gen_mixture([synth], target_frames=cfg["frames"])
    return list(seqs)


def make_inputs(name, cfg, seed, indir):
    """Generate and write the inputs of one workload into indir."""
    from motionemu import datagen, io as mio
    os.makedirs(indir, exist_ok=True)
    if name == "pipeline":
        seqs = _paper_class(cfg, child_seed(seed, 0), cfg["count"])
        mio.write_posture_sequences(os.path.join(indir, "sequences.txt"), seqs)
    elif name == "twolevel":
        # shaped like acceptance criterion 7
        synth = datagen.SynthConfig(landmarks=cfg["landmarks"], frames=cfg["frames"],
                                    count=cfg["count"], amplitude=1.5, bandwidth=0.07,
                                    warp_strength=0.8, noise_scale=0.02,
                                    seed=child_seed(seed, 0))
        seqs, _ = datagen.gen_class(synth)
        mio.write_posture_sequences(os.path.join(indir, "sequences.txt"), list(seqs))
    else:
        # the second set shares the class template and adds tangent noise
        train = _paper_class(cfg, child_seed(seed, 0), cfg["count"])
        other = _paper_class(cfg, child_seed(seed, 0), cfg["other"], noise=0.05)
        mio.write_posture_sequences(os.path.join(indir, "train.txt"), train)
        mio.write_posture_sequences(os.path.join(indir, "other.txt"), other)


# ---- one round of CLI commands ------------------------------------------

def commands(name, cfg, seed, indir, outdir):
    """argv lists of one round of the workload, for motionemu.cli.main."""
    if name == "pipeline":
        return [["pipeline", "--input", os.path.join(indir, "sequences.txt"),
                 "--scheme", "istvf/seqpca/mvg", "--count", str(cfg["sims"]),
                 "--n-perm", str(cfg["n_perm"]), "--seed", str(seed), "--out", outdir]]
    if name == "twolevel":
        return [["twolevel", "--input", os.path.join(indir, "sequences.txt"),
                 "--scheme", "istvf/seqpca/mvg", "--d1", str(cfg["d1"]), "--d2", str(cfg["d2"]),
                 "--total", str(cfg["total"]), "--holdout", str(cfg["holdout"]),
                 "--emulators", "mvg,pwi", "--n-perm", str(cfg["n_perm"]),
                 "--seed", str(seed), "--out", outdir]]
    # several clustering seeds per round, so that one seed's k-medoids
    # sweep count does not set the round's time
    return [["eval", "quantize", "--train", os.path.join(indir, "train.txt"),
             "--set", "other=" + os.path.join(indir, "other.txt"),
             "--k", str(cfg["k"]), "--sample", str(cfg["sample"]),
             "--seed", str(child_seed(seed, 100 + j)), "--out", os.path.join(outdir, f"q{j}")]
            for j in range(cfg["commands"])]


# ---- readers written apart from motionemu.io -----------------------------

def read_sequences(path):
    """Posture sequences of the text format as a list of (T, n-1, 3)."""
    seqs = []
    with open(path) as fh:
        for line in fh:
            head = line.split()
            if not head:
                continue
            if head[0] != "postureseq":
                raise ValueError(f"{path}: unexpected line {line[:40]!r}")
            bones, frames = int(head[1]) - 1, int(head[2])
            rows = [np.array(next(fh).split(), dtype=float) for _ in range(frames)]
            seqs.append(np.stack(rows).reshape(frames, bones, 3))
    return seqs


def read_warps(path):
    with open(path) as fh:
        head = fh.readline().split()
        count = int(head[1])
        return [np.array(fh.readline().split(), dtype=float) for _ in range(count)]


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ---- numerics written apart from motionemu -------------------------------

def angles(a, b):
    """Bone-wise geodesic angles, 2*atan2(|a-b|, |a+b|): exact zero for
    equal vectors and accurate near zero and pi."""
    return 2.0 * np.arctan2(np.linalg.norm(a - b, axis=-1), np.linalg.norm(a + b, axis=-1))


def arccos_angles(a, b):
    """Bone-wise angles as arccos of the clipped dot product, zero for
    bitwise-equal bones.  Near zero arccos is off by up to ~1e-8 rad."""
    ang = np.arccos(np.clip(np.einsum("...d,...d->...", a, b), -1.0, 1.0))
    return np.where(np.all(a == b, axis=-1), 0.0, ang)


def sequence_distance(a, b):
    """Mean over frames of the summed bone angles."""
    return float(angles(a, b).sum(axis=-1).mean())


def two_sample_statistic(group_a, group_b, kernel=angles):
    """Twice the mean cross distance minus the two mean within distances,
    every ordered pair counted, the diagonal included."""
    pooled = np.stack(group_a + group_b)
    m, na = pooled.shape[0], len(group_a)
    dmat = np.zeros((m, m))
    for i in range(m):
        dmat[i, i + 1:] = kernel(pooled[i], pooled[i + 1:]).sum(axis=-1).mean(axis=-1)
    dmat = dmat + dmat.T
    nb = m - na
    return (2.0 * dmat[:na, na:].sum() / (na * nb) - dmat[:na, :na].sum() / (na * na)
            - dmat[na:, na:].sum() / (nb * nb))


def on_perm_grid(p, n_perm):
    h = p * (n_perm + 1) - 1
    return 0 <= round(h) <= n_perm and abs(h - round(h)) < 1e-6


# ---- checks --------------------------------------------------------------

def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _check_manifests(outdir, indir, fails):
    manifests = sorted(glob.glob(os.path.join(outdir, "manifest_*.json")))
    if not manifests:
        fails.append(f"{outdir}: no manifest")
    for path in manifests:
        with open(path) as fh:
            doc = json.load(fh)
        blob = json.dumps(doc["config"], sort_keys=True).encode()
        if doc["config_hash"] != hashlib.sha256(blob).hexdigest():
            fails.append(f"{os.path.basename(path)}: config_hash does not match its config")
        for section in ("inputs", "artifacts"):
            for base, digest in doc[section].items():
                found = [d for d in (outdir, indir) if os.path.exists(os.path.join(d, base))]
                if not found or _sha256(os.path.join(found[0], base)) != digest:
                    fails.append(f"{os.path.basename(path)}: digest of {base} does not match")


def _check_unit_rows(name, seqs, fails):
    for i, s in enumerate(seqs):
        if not np.all(np.isfinite(s)):
            fails.append(f"{name}[{i}]: non-finite value")
        elif np.max(np.abs(np.linalg.norm(s, axis=-1) - 1.0)) > UNIT_TOL:
            fails.append(f"{name}[{i}]: a bone is not unit-norm within {UNIT_TOL}")


def _check_pipeline(cfg, indir, outdir, fails):
    _check_manifests(outdir, indir, fails)
    inputs = read_sequences(os.path.join(indir, "sequences.txt"))
    aligned = read_sequences(os.path.join(outdir, "aligned.txt"))
    sims = read_sequences(os.path.join(outdir, "sims.txt"))
    if len(aligned) != cfg["count"] or len(sims) != cfg["sims"]:
        fails.append(f"pipeline: {len(aligned)} aligned and {len(sims)} simulated sequences")
        return
    _check_unit_rows("aligned", aligned, fails)
    _check_unit_rows("sims", sims, fails)
    for i, w in enumerate(read_warps(os.path.join(outdir, "warps.txt"))):
        if w[0] != 0.0 or w[-1] != 1.0 or not np.all(np.diff(w) > 0):
            fails.append(f"warp {i}: not pinned to 0 and 1 or not strictly increasing")
    if not np.array_equal(aligned[0], inputs[0]):
        fails.append("aligned reference sequence (index 0) differs from its input")
    before = np.mean([sequence_distance(s, inputs[0]) for s in inputs[1:]])
    after = np.mean([sequence_distance(s, aligned[0]) for s in aligned[1:]])
    if not after < before:
        fails.append(f"alignment did not lower the distance to the reference: {before} -> {after}")
    row = read_csv(os.path.join(outdir, "two_sample.csv"))[0]
    # The rounding of an arccos angle kernel near zero exceeds the 1e-9
    # tolerance, so the written statistic must match the statistic under
    # one of the two kernels: the accurate atan2 form or arccos.
    written = float(row["statistic"])
    for kernel in (arccos_angles, angles):
        stat = two_sample_statistic(sims, aligned, kernel)
        if abs(written - stat) <= STAT_RTOL * abs(stat):
            break
    else:
        fails.append(f"two-sample statistic {written!r} != recomputed {stat!r}")
    if int(row["permutations"]) != cfg["n_perm"] or not on_perm_grid(float(row["p_value"]),
                                                                      cfg["n_perm"]):
        fails.append(f"p-value {row['p_value']} is not on the {cfg['n_perm']}-permutation grid")


def _check_twolevel(cfg, indir, outdir, fails):
    _check_manifests(outdir, indir, fails)
    rows = read_csv(os.path.join(outdir, "twolevel.csv"))
    if [r["emulator"] for r in rows] != ["mvg", "pwi"]:
        fails.append(f"twolevel rows {[r['emulator'] for r in rows]}")
        return
    test_column = None
    for r in rows:
        values = [float(r[k]) for k in ("statistic", "p_value", "median_loglik",
                                        "median_loglik_test")]
        if not np.all(np.isfinite(values)):
            fails.append(f"twolevel {r['emulator']}: non-finite value")
        if not on_perm_grid(float(r["p_value"]), cfg["n_perm"]):
            fails.append(f"twolevel {r['emulator']}: p-value {r['p_value']} off the grid")
        qq = np.array([[float(v) for v in (q["test_quantile"], q["sim_quantile"])]
                       for q in read_csv(os.path.join(outdir, f"qq_{r['emulator']}.csv"))])
        if qq.shape != (cfg["holdout"], 2) or not np.all(np.isfinite(qq)):
            fails.append(f"qq_{r['emulator']}: shape {qq.shape} or non-finite values")
            continue
        if np.any(np.diff(qq, axis=0) < 0):
            fails.append(f"qq_{r['emulator']}: a column decreases")
        if test_column is None:
            test_column = qq[:, 0]
        elif not np.array_equal(test_column, qq[:, 0]):
            fails.append(f"qq_{r['emulator']}: test column differs between emulators")
        if np.median(qq[:, 0]) != float(r["median_loglik_test"]):
            fails.append(f"{r['emulator']}: median of the test column != median_loglik_test")
        if np.median(qq[:, 1]) != float(r["median_loglik"]):
            fails.append(f"{r['emulator']}: median of the sim column != median_loglik")


def _check_quantize(cfg, indir, outdir, fails):
    counts = {"train": cfg["count"], "other": cfg["other"]}
    for j in range(cfg["commands"]):
        out = os.path.join(outdir, f"q{j}")
        _check_manifests(out, indir, fails)
        ref = np.array([int(r["label"]) for r in read_csv(os.path.join(out, "mean_labels.csv"))])
        series = {}
        for r in read_csv(os.path.join(out, "label_sequences.csv")):
            series.setdefault(r["set"], []).append(np.array(r["labels"].split(), dtype=int))
        strings = [ref] + [lab for labels in series.values() for lab in labels]
        if any(lab.shape != (cfg["frames"],) or lab.min() < 1 or lab.max() > cfg["k"]
               for lab in strings):
            fails.append(f"q{j}: a label string has the wrong length or labels outside 1..k")
            continue
        summary = {r["set"]: r for r in read_csv(os.path.join(out, "quantize.csv"))}
        if sorted(summary) != sorted(counts) or sorted(series) != sorted(counts):
            fails.append(f"q{j}: sets {sorted(summary)} / {sorted(series)}")
            continue
        for name, labels in series.items():
            rates = np.array([np.mean(lab != ref) for lab in labels])
            row = summary[name]
            if int(row["sequences"]) != counts[name] or len(labels) != counts[name]:
                fails.append(f"q{j} {name}: sequence count")
            if not np.isclose(float(row["mean_variability"]), rates.mean(), rtol=1e-12, atol=0):
                fails.append(f"q{j} {name}: mean_variability != recomputed {rates.mean()!r}")
            if not np.isclose(float(row["variance"]), rates.var(ddof=1), rtol=1e-12, atol=0):
                fails.append(f"q{j} {name}: variance != recomputed {rates.var(ddof=1)!r}")


CHECKS = {"pipeline": _check_pipeline, "twolevel": _check_twolevel, "quantize": _check_quantize}


def check(name, cfg, indir, outdir):
    """Failure messages for the outputs of one workload; empty when correct."""
    fails = []
    CHECKS[name](cfg, indir, outdir, fails)
    return fails
