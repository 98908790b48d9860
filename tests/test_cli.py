"""End-to-end tests of the command-line pipeline: scheme parsing, stage
artifacts, manifests, determinism, and the two-level report."""

import argparse
import hashlib
import json
import os
import re
import weakref
from pathlib import Path

import numpy as np
import pytest

from motionemu import cli, dimred, evaluate, io as mio, models, route
from motionemu.cli import main, parse_scheme, run_twolevel
from motionemu.route import SEED_CLASS, SEED_EVAL_PERM, SEED_SIMULATE, stage_seed
from motionemu.datagen import SynthConfig, gen_class, gen_mixture
from motionemu.errors import BadTarget, KindMismatch
from motionemu.flatten import FlatFields, flatten_sequence
from motionemu.persist import save_reduction
from motionemu.skeleton import SkeletonHierarchy, downsample, ingest_sequence


def run_cli(*argv):
    return main([str(a) for a in argv])


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.rstrip("\n").split(",") for line in fh]
    return header, rows


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


SYNTH_FLAGS = ["--landmarks", 5, "--frames", 60, "--target-frames", 0,
               "--classes", 1, "--per-class", 5, "--amplitude", 0.7,
               "--bandwidth", 0.1, "--warp-strength", 0.3, "--noise", 0.02]


def test_parse_scheme():
    assert parse_scheme("istvf/seqpca/mvg") == ("istvf", "seqpca", "mvg")
    assert parse_scheme("SIEM/SeqPCA/IG") == ("siem", "seqpca", "ig")
    assert parse_scheme("istvf/spatialpca/var") == ("istvf", "spatialpca", "var")
    assert parse_scheme("pwi") == ("intrinsic", "none", "pwi")
    for bad in ("istvf/seqpca", "svf/seqpca/mvg", "istvf/pca/mvg",
                "istvf/seqpca/gp", "istvf/seqpca/var", "siem/spatialpca/ig"):
        with pytest.raises(KindMismatch):
            parse_scheme(bad)


def commands(parser, prefix=""):
    """(name, parser) of every leaf command, 'eval qq' for eval's."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                if sub._subparsers:
                    yield from commands(sub, f"{prefix}{name} ")
                else:
                    yield prefix + name, sub


def test_readme_synopsis_lists_every_flag_of_every_command():
    """Each command's lines of the README's synopsis (pipeline's with
    `<synth flags>` standing for synth's) hold every long flag it takes."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = re.search(r"\nStages:\n\n```\n(.*?)```", readme, re.S).group(1)
    synopsis = {}
    for line in block.splitlines():
        if line.startswith("motionemu "):
            words = line.split()
            name = " ".join(words[1:3 if words[1] == "eval" else 2])
        synopsis[name] = synopsis.get(name, "") + line + "\n"
    synopsis["pipeline"] = synopsis["pipeline"].replace("<synth flags>", synopsis["synth"])
    found = dict(commands(cli.build_parser()))
    assert sorted(synopsis) == sorted(found)
    for name, parser in found.items():
        flags = [f for a in parser._actions for f in a.option_strings
                 if f.startswith("--") and f != "--help"]
        missing = [f for f in flags if not re.search(rf"(?<![\w-]){f}(?![\w-])", synopsis[name])]
        assert not missing, (name, missing)


def test_stage_seed_matches_spawn_convention():
    expected = int(np.random.SeedSequence(7, spawn_key=(SEED_SIMULATE,))
                   .generate_state(1)[0])
    assert stage_seed(7, SEED_SIMULATE) == expected
    assert stage_seed(7, 111, (3,)) == int(
        np.random.SeedSequence(7, spawn_key=(111, 3)).generate_state(1)[0])


def test_synth_reproduces_library_output(tmp_path):
    out = tmp_path / "s"
    assert run_cli("synth", "--out", out, "--seed", 3, *SYNTH_FLAGS) == 0
    seqs = mio.read_posture_sequences(out / "sequences.txt")
    child = int(np.random.SeedSequence(3, spawn_key=(0,)).generate_state(1)[0])
    cfg = SynthConfig(landmarks=5, frames=60, count=5, amplitude=0.7, bandwidth=0.1,
                      warp_strength=0.3, noise_scale=0.02, seed=child)
    expected, labels = gen_mixture([cfg])
    assert len(seqs) == 5
    assert np.array_equal(np.stack(seqs), expected)
    header, rows = read_csv(out / "labels.csv")
    assert header == ["index", "label"]
    assert [r[1] for r in rows] == ["0"] * 5


def test_synth_class_k_reproduces_from_spawn_key_k(tmp_path):
    """Each class of a multi-class synth is gen_class on the seed of spawn
    key (k,), downsampled, in class order."""
    assert run_cli("synth", "--out", tmp_path, "--seed", 5, "--landmarks", 6, "--frames", 90,
                   "--target-frames", 31, "--classes", 3, "--per-class", 4) == 0
    seqs = mio.read_posture_sequences(tmp_path / "sequences.txt")
    assert np.shape(seqs) == (12, 31, 5, 3)
    assert np.max(np.abs(np.linalg.norm(seqs, axis=-1) - 1.0)) < 1e-12
    _, rows = read_csv(tmp_path / "labels.csv")
    assert [int(r[1]) for r in rows] == [k for k in range(3) for _ in range(4)]
    for k in range(3):
        child = np.random.SeedSequence(5, spawn_key=(k,)).generate_state(1)[0]
        block, _ = gen_class(SynthConfig(landmarks=6, frames=90, count=4, seed=int(child)))
        assert np.array_equal(seqs[4 * k:4 * k + 4], [downsample(s, 31) for s in block])


def test_synth_hands_on_each_class_as_a_view_of_the_pooled_set(tmp_path):
    """The classes _synth returns are contiguous slices of one pooled array,
    not copies of it."""
    args = cli.build_parser().parse_args(
        ["synth", "--out", str(tmp_path), "--seed", "5", "--landmarks", "6", "--frames", "90",
         "--target-frames", "31", "--classes", "3", "--per-class", "4"])
    sets, _ = cli._synth(args, str(tmp_path))
    pooled = np.stack(mio.read_posture_sequences(tmp_path / "sequences.txt"))
    assert len(sets) == 3
    for k, block in enumerate(sets):
        assert block.base is sets[0].base and block.flags.c_contiguous
        assert np.array_equal(block, pooled[4 * k:4 * k + 4])
    assert sets[0].base.shape == (12, 31, 5, 3)


@pytest.mark.parametrize("target", [1, 61])
def test_synth_refuses_a_bad_target_before_generating(tmp_path, capsys, monkeypatch, target):
    """A --target-frames outside [2, --frames] is refused before any class is
    generated: no template is made and no file written."""
    def make_template(*args):
        raise AssertionError("a class was generated before the target was refused")

    monkeypatch.setattr(route.datagen, "make_template", make_template)
    out = tmp_path / "out"
    capsys.readouterr()
    assert run_cli("synth", "--out", out, "--frames", 60, "--target-frames", target,
                   "--classes", 3) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "BadTarget", "message": f"cannot downsample 60 frames to {target}"}
    assert os.listdir(out) == []


def test_manifest_checksums_and_rerun_identity(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert run_cli("synth", "--out", out, "--seed", 11, *SYNTH_FLAGS) == 0
    with open(out1 / "manifest_synth.json") as fh:
        manifest = json.load(fh)
    assert manifest["command"] == "synth"
    assert manifest["seed"] == 11
    blob = json.dumps(manifest["config"], sort_keys=True).encode()
    assert manifest["config_hash"] == hashlib.sha256(blob).hexdigest()
    for name, digest in manifest["artifacts"].items():
        assert digest == hashlib.sha256(read_bytes(out1 / name)).hexdigest()
    for name in ("sequences.txt", "labels.csv", "manifest_synth.json"):
        assert read_bytes(out1 / name) == read_bytes(out2 / name)


def test_ingest_converts_and_downsamples(tmp_path):
    hierarchy = SkeletonHierarchy([-1, 0, 1, 1])
    rng = np.random.default_rng(5)
    frames_list = [rng.normal(size=(9, 4, 3)) for _ in range(3)]
    raw = tmp_path / "raw.txt"
    mio.write_raw_sequences(raw, frames_list, hierarchy)
    out = tmp_path / "ing"
    assert run_cli("ingest", "--input", raw, "--target-frames", 5, "--out", out) == 0
    seqs = mio.read_posture_sequences(out / "sequences.txt")
    for got, frames in zip(seqs, frames_list):
        assert np.array_equal(got, downsample(ingest_sequence(frames, hierarchy), 5))


def test_ingest_refuses_a_non_finite_coordinate(tmp_path, capsys):
    frames_list = [np.random.default_rng(5).normal(size=(9, 4, 3)) for _ in range(2)]
    frames_list[1][3, 2, 0] = np.nan
    raw = tmp_path / "raw.txt"
    mio.write_raw_sequences(raw, frames_list, SkeletonHierarchy([-1, 0, 1, 1]))
    capsys.readouterr()
    assert run_cli("ingest", "--input", raw, "--out", tmp_path / "ing") == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "DimensionMismatch", "message": f"{raw}: block 1, row 3: non-finite value"}
    assert not (tmp_path / "ing" / "sequences.txt").exists()


def test_ingest_refuses_a_target_above_a_block_naming_the_file_and_block(tmp_path, capsys,
                                                                         monkeypatch):
    """--target-frames longer than a block is refused naming the file and the
    first block that is too short, before any block is converted or a file
    written."""
    def convert(*args):
        raise AssertionError("a block was converted before the target was refused")

    frames_list = [np.random.default_rng(5).normal(size=(t, 4, 3)) for t in (30, 20, 10)]
    raw = tmp_path / "raw.txt"
    mio.write_raw_sequences(raw, frames_list, SkeletonHierarchy([-1, 0, 1, 1]))
    monkeypatch.setattr(cli, "ingest_sequence", convert)
    out = tmp_path / "ing"
    capsys.readouterr()
    for target, block, frames in ((25, 1, 20), (1, 0, 30)):
        assert run_cli("ingest", "--input", raw, "--target-frames", target, "--out", out) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "BadTarget",
            "message": f"{raw}: block {block}: cannot downsample {frames} frames to {target}"}
        assert os.listdir(out) == []


PIPELINE_SCHEMES = [
    ("istvf/seqpca/mvg", "training-mean"),
    ("siem/seqpca/ig", "sampled-from-training"),
    ("istvf/spatialpca/var", "fixed"),
    ("siem/spatialpca/var", "training-mean"),
    ("pwi", "training-mean"),
]
PIPELINE_FLAGS = ["--d1", 3, "--d2", 4, "--count", 6, "--n-perm", 49, "--seed", 7]


def run_stage_chain(out, seqs, scheme, policy):
    """The stages `pipeline` chains, run by hand on the sequences file seqs."""
    kind, red, model_type = parse_scheme(scheme)
    assert run_cli("align", "--input", seqs, "--out", out, "--ref-index", 0) == 0
    fit = ["fit", "--scheme", scheme, "--start-policy", policy, "--out", out]
    if model_type == "pwi":
        assert run_cli(*fit, "--input", out / "aligned.txt") == 0
    else:
        assert run_cli("flatten", "--input", out / "aligned.txt", "--kind", kind,
                       "--out", out) == 0
        assert run_cli("reduce", "--input", out / "fields.txt", "--method", red,
                       "--d1", 3, "--d2", 4, "--var1", 0.9, "--var2", 0.95,
                       "--out", out) == 0
        assert run_cli(*fit, "--fields", out / "fields.txt",
                       "--reduction", out / "reduction.txt") == 0
    assert run_cli("simulate", "--bundle", out / "bundle.txt", "--count", 6,
                   "--seed", 7, "--out", out) == 0
    assert run_cli("eval", "two-sample", "--a", out / "sims.txt",
                   "--b", out / "aligned.txt", "--n-perm", 49, "--seed", 7,
                   "--out", out) == 0


def assert_same_run(pipe, manual):
    """pipe holds every file of manual, byte for byte, plus the pipeline
    manifest, which lists every artifact."""
    names = sorted(os.listdir(manual))
    assert sorted(os.listdir(pipe)) == sorted(names + ["manifest_pipeline.json"])
    for name in names:
        assert read_bytes(pipe / name) == read_bytes(manual / name), name
    with open(pipe / "manifest_pipeline.json") as fh:
        manifest = json.load(fh)
    assert sorted(manifest["artifacts"]) == [n for n in names if not n.startswith("manifest_")]


@pytest.mark.parametrize("scheme,policy", PIPELINE_SCHEMES, ids=[s for s, _ in PIPELINE_SCHEMES])
def test_pipeline_equals_manual_stage_chain(tmp_path, scheme, policy):
    pipe, manual = tmp_path / "pipe", tmp_path / "manual"
    assert run_cli("pipeline", "--out", pipe, *SYNTH_FLAGS, "--scheme", scheme,
                   "--start-policy", policy, *PIPELINE_FLAGS) == 0
    assert run_cli("synth", "--out", manual, "--seed", 7, *SYNTH_FLAGS) == 0
    run_stage_chain(manual, manual / "sequences.txt", scheme, policy)
    assert_same_run(pipe, manual)


def test_pipeline_on_input_equals_manual_stage_chain(tmp_path):
    src = tmp_path / "src"
    assert run_cli("synth", "--out", src, "--seed", 4, *SYNTH_FLAGS) == 0
    pipe, manual = tmp_path / "pipe", tmp_path / "manual"
    assert run_cli("pipeline", "--out", pipe, "--input", src / "sequences.txt",
                   "--scheme", "istvf/seqpca/mvg", *PIPELINE_FLAGS) == 0
    run_stage_chain(manual, src / "sequences.txt", "istvf/seqpca/mvg", "training-mean")
    assert_same_run(pipe, manual)


def test_pipeline_never_reads_its_own_artifacts(tmp_path, monkeypatch):
    src = tmp_path / "src"
    assert run_cli("synth", "--out", src, "--seed", 4, *SYNTH_FLAGS) == 0

    def refuse(*args):
        raise AssertionError("pipeline read back an artifact")

    for space, name in [(mio, "read_flatfields"), (cli, "load_reduction"),
                        (cli, "load_bundle")]:
        monkeypatch.setattr(space, name, refuse)
    reads = []
    real_read = mio.read_posture_sequences

    def counted(path):
        reads.append(os.path.basename(path))
        return real_read(path)

    monkeypatch.setattr(mio, "read_posture_sequences", counted)
    for scheme, _ in PIPELINE_SCHEMES:
        assert run_cli("pipeline", "--out", tmp_path / "synth", *SYNTH_FLAGS,
                       "--scheme", scheme, *PIPELINE_FLAGS) == 0
        assert reads == []
    assert run_cli("pipeline", "--out", tmp_path / "input", "--input", src / "sequences.txt",
                   "--scheme", "istvf/seqpca/mvg", *PIPELINE_FLAGS) == 0
    assert reads == ["sequences.txt"]


def test_pipeline_manifest_lists_only_files_this_run_wrote(tmp_path):
    """A run into a used directory hashes only its own artifacts, so its
    manifest equals the same run's manifest from a fresh directory."""
    shared = tmp_path / "shared"
    assert run_cli("pipeline", "--out", shared, *SYNTH_FLAGS, "--scheme", "istvf/seqpca/mvg",
                   *PIPELINE_FLAGS) == 0
    runs = [[*SYNTH_FLAGS, "--scheme", "pwi"],
            ["--input", shared / "sequences.txt", "--scheme", "istvf/seqpca/mvg"]]
    for i, flags in enumerate(runs):
        fresh = tmp_path / f"fresh{i}"
        for out in (shared, fresh):
            assert run_cli("pipeline", "--out", out, *flags, *PIPELINE_FLAGS) == 0
        assert read_bytes(shared / "manifest_pipeline.json") == \
            read_bytes(fresh / "manifest_pipeline.json")
    with open(shared / "manifest_pipeline.json") as fh:
        manifest = json.load(fh)
    assert sorted(manifest["artifacts"]) == ["aligned.txt", "bundle.txt", "fields.txt",
                                             "reduction.txt", "reference.txt", "sims.txt",
                                             "two_sample.csv", "warps.txt"]


def test_the_cli_derives_no_seed_itself():
    """route applies every spawn key; the CLI passes --seed through."""
    assert not hasattr(cli, "stage_seed")
    assert [name for name in vars(cli) if name.startswith("SEED_")] == []


def sha256(path):
    return hashlib.sha256(read_bytes(path)).hexdigest()


def manifest_of(path):
    with open(path) as fh:
        return json.load(fh)


def test_a_stage_rerun_into_its_own_out_records_its_input_as_read(stage_inputs, tmp_path):
    out = tmp_path / "align"
    assert run_cli("align", "--input", stage_inputs / "sequences.txt", "--out", out) == 0
    read = sha256(out / "aligned.txt")
    assert run_cli("align", "--input", out / "aligned.txt", "--ref-index", 2, "--out", out) == 0
    manifest = manifest_of(out / "manifest_align.json")
    assert manifest["inputs"] == {"aligned.txt": read}
    assert manifest["artifacts"]["aligned.txt"] == sha256(out / "aligned.txt") != read


def test_pipeline_on_an_artifact_named_input_records_it_as_read(stage_inputs, tmp_path):
    """A pipeline whose --input is named like an artifact in --out records
    the input it read, and writes what the same run from elsewhere writes."""
    flags = ["--scheme", "istvf/seqpca/mvg", "--d1", 2, "--d2", 3, "--count", 4, "--n-perm", 9]
    inside, outside, fresh = tmp_path / "inside", tmp_path / "outside", tmp_path / "fresh"
    for where in (inside, outside):
        where.mkdir()
        (where / "aligned.txt").write_bytes(read_bytes(stage_inputs / "sequences.txt"))
    read = sha256(inside / "aligned.txt")
    assert run_cli("pipeline", "--input", inside / "aligned.txt", *flags, "--out", inside) == 0
    assert run_cli("pipeline", "--input", outside / "aligned.txt", *flags, "--out", fresh) == 0
    for name in ("manifest_align.json", "manifest_pipeline.json"):
        assert manifest_of(inside / name)["inputs"] == {"aligned.txt": read}, name
    assert sorted(os.listdir(inside)) == sorted(os.listdir(fresh))
    for name in os.listdir(fresh):
        assert read_bytes(inside / name) == read_bytes(fresh / name), name


@pytest.mark.parametrize("scheme", ["istvf/seqpca/mvg", "pwi"])
def test_pipeline_hashes_each_input_and_artifact_once(stage_inputs, tmp_path, monkeypatch, scheme):
    """A pipeline --input run reads each file it records in its manifests
    once to hash it: its input and each artifact, and nothing else."""
    hashed = []
    sha = cli._sha256
    monkeypatch.setattr(cli, "_sha256", lambda path: hashed.append(path) or sha(path))
    src = stage_inputs / "sequences.txt"
    assert run_cli("pipeline", "--input", src, "--scheme", scheme, "--d1", 2, "--d2", 3,
                   "--count", 4, "--n-perm", 9, "--out", tmp_path) == 0
    manifest = manifest_of(tmp_path / "manifest_pipeline.json")
    recorded = [str(src), *(str(tmp_path / name) for name in manifest["artifacts"])]
    assert sorted(map(str, hashed)) == sorted(recorded)
    assert len(recorded) == (9 if scheme != "pwi" else 6)


def test_pipeline_config_holds_every_route_setting(stage_inputs, tmp_path):
    """Pipelines that differ in one route setting record different configs;
    a synthesizing run also records synth's flags, an --input run none."""
    base = ["pipeline", "--input", stage_inputs / "sequences.txt", "--scheme",
            "istvf/spatialpca/var", "--d1", 2, "--count", 3, "--n-perm", 9]
    variants = {"base": [], "order": ["--order", 2], "ref-index": ["--ref-index", 1],
                "var-index": ["--var-index", 1], "start-policy": ["--start-policy", "fixed"]}
    hashes = set()
    for name, flags in variants.items():
        assert run_cli(*base, *flags, "--out", tmp_path / name) == 0
        manifest = manifest_of(tmp_path / name / "manifest_pipeline.json")
        assert not set(cli.SYNTH_DEFAULTS) & set(manifest["config"])
        hashes.add(manifest["config_hash"])
    assert len(hashes) == len(variants)
    out = tmp_path / "synth"
    assert run_cli("pipeline", "--seed", 3, *SYNTH_FLAGS, "--d1", 2, "--count", 3,
                   "--n-perm", 9, "--out", out) == 0
    config = manifest_of(out / "manifest_pipeline.json")["config"]
    assert {flag: config[flag] for flag in cli.SYNTH_DEFAULTS} == {
        "landmarks": 5, "frames": 60, "target_frames": 0, "classes": 1, "per_class": 5,
        "amplitude": 0.7, "bandwidth": 0.1, "warp_strength": 0.3, "noise": 0.02}


def test_pipeline_runs_the_route_once_per_class(tmp_path):
    """With several synthetic classes, class_k/ holds class k's sequences
    and exactly what a pipeline --input run on them writes with class k's
    seed, stage_seed(seed, SEED_CLASS, (k,)); the top-level manifest lists
    every artifact by its path under --out."""
    out = tmp_path / "pipe"
    synth = ["--landmarks", 5, "--frames", 40, "--target-frames", 0, "--classes", 2,
             "--per-class", 5]
    route = ["--scheme", "istvf/seqpca/mvg", "--d1", 2, "--d2", 3, "--count", 4,
             "--n-perm", 19]
    assert run_cli("pipeline", "--out", out, "--seed", 3, *synth, *route) == 0
    assert sorted(os.listdir(out)) == ["class_0", "class_1", "labels.csv",
                                       "manifest_pipeline.json", "manifest_synth.json",
                                       "sequences.txt"]
    pooled = mio.read_posture_sequences(out / "sequences.txt")
    listed = ["labels.csv", "sequences.txt"]
    for k in range(2):
        cls, rerun = out / f"class_{k}", tmp_path / f"rerun{k}"
        assert np.array_equal(mio.read_posture_sequences(cls / "sequences.txt"),
                              pooled[5 * k:5 * k + 5])
        rerun.mkdir()
        (rerun / "sequences.txt").write_bytes(read_bytes(cls / "sequences.txt"))
        assert run_cli("pipeline", "--out", rerun, "--input", rerun / "sequences.txt",
                       "--seed", stage_seed(3, SEED_CLASS, (k,)), *route) == 0
        names = sorted(os.listdir(cls))
        assert names == sorted(os.listdir(rerun)) and "manifest_pipeline.json" in names
        for name in names:
            assert read_bytes(cls / name) == read_bytes(rerun / name), (k, name)
        listed += [f"class_{k}/{n}" for n in names if not n.startswith("manifest_")]
    with open(out / "manifest_pipeline.json") as fh:
        manifest = json.load(fh)
    assert manifest["seed"] == 3 and sorted(manifest["artifacts"]) == sorted(listed)
    for name, digest in manifest["artifacts"].items():
        assert digest == hashlib.sha256(read_bytes(out / name)).hexdigest(), name


def test_pipeline_frees_the_raw_set_after_alignment(stage_inputs, tmp_path, monkeypatch):
    """Nothing but the route holds the sequences read from --input or made
    by synth, and the route drops them once aligned, so no stage after
    alignment keeps two copies of the set alive."""
    class Raw(list):  # a list a weak reference can watch
        pass

    made, alive = [], []
    real_read, real_mix = mio.read_posture_sequences, route.datagen.gen_mixture
    real_fit = models.fit_stages

    def read(path):
        seqs = Raw(real_read(path))
        made.append(weakref.ref(seqs))
        return seqs

    def mix(*args, **kwargs):
        seqs, labels = real_mix(*args, **kwargs)
        made.append(weakref.ref(seqs))
        return seqs, labels

    def fit(*args):
        alive.append(made[-1]() is not None)
        return real_fit(*args)

    monkeypatch.setattr(mio, "read_posture_sequences", read)
    monkeypatch.setattr(route.datagen, "gen_mixture", mix)
    monkeypatch.setattr(models, "fit_stages", fit)
    for scheme in ("istvf/seqpca/mvg", "pwi"):
        out = tmp_path / scheme.replace("/", "-")
        flags = ["--scheme", scheme, "--d1", 2, "--d2", 2, "--count", 3, "--n-perm", 9]
        assert run_cli("pipeline", "--input", stage_inputs / "sequences.txt", *flags,
                       "--out", out / "input") == 0
        assert run_cli("pipeline", *SYNTH_FLAGS, *flags, "--out", out / "synth") == 0
    assert alive == [False] * 4


def test_pipeline_drops_each_stage_result_once_written(stage_inputs, tmp_path, monkeypatch):
    """Neither the route nor the CLI keeps the warps past their file, nor the
    flattened fields past theirs: the warps are dead when the fit starts,
    the fields when the draws and the two-sample test start."""
    warps, fields, dead = [], [], []
    real_align, real_fit = route.align_all, models.fit_stages

    def align(*args, **kwargs):
        aligned, made = real_align(*args, **kwargs)
        warps.append(weakref.ref(made))
        return aligned, made

    def fit(*args):
        dead.append(("fit", warps[-1]() is None))
        made, bundle = real_fit(*args)
        fields.append(weakref.ref(made) if made is not None else lambda: None)  # None: pwi
        return made, bundle

    def spy(name, real):
        def call(*args, **kwargs):
            dead.append((name, fields[-1]() is None))
            return real(*args, **kwargs)
        return call

    monkeypatch.setattr(route, "align_all", align)
    monkeypatch.setattr(models, "fit_stages", fit)
    for name in ("simulate", "two_sample"):
        monkeypatch.setattr(route, name, spy(name, getattr(route, name)))
    for scheme in ("istvf/seqpca/mvg", "pwi"):
        out = tmp_path / scheme.replace("/", "-")
        flags = ["--scheme", scheme, "--d1", 2, "--d2", 2, "--count", 3, "--n-perm", 9]
        assert run_cli("pipeline", "--input", stage_inputs / "sequences.txt", *flags,
                       "--out", out / "input") == 0
        assert run_cli("pipeline", *SYNTH_FLAGS, *flags, "--out", out / "synth") == 0
    assert dead == [("fit", True), ("simulate", True), ("two_sample", True)] * 4


def test_pipeline_failing_mid_route_leaves_the_finished_stages_files(stage_inputs, tmp_path,
                                                                     capsys):
    """Each stage's files are written as the stage ends, so a fit refused
    after alignment leaves align's files and manifest and no
    manifest_pipeline.json; refusals of the command line's values come
    before any write."""
    src, out = stage_inputs / "sequences.txt", tmp_path / "var"
    capsys.readouterr()
    assert run_cli("pipeline", "--input", src, "--scheme", "istvf/spatialpca/var",
                   "--var-index", 99, "--count", 2, "--n-perm", 9, "--out", out) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": "BadTarget", "message": "var_index 99 out of range"}
    assert sorted(os.listdir(out)) == ["aligned.txt", "manifest_align.json", "warps.txt"]
    manifest = json.loads((out / "manifest_align.json").read_text())
    sha = {p: hashlib.sha256(p.read_bytes()).hexdigest() for p in (src, *out.glob("*.txt"))}
    assert manifest["inputs"] == {"sequences.txt": sha[src]}
    assert manifest["artifacts"] == {p.name: sha[p] for p in out.glob("*.txt")}
    assert (out / "aligned.txt").read_bytes() == (stage_inputs / "aligned.txt").read_bytes()
    for i, flags in enumerate([["--scheme", "istvf/seqpca/gp"], ["--count", 0], ["--n-perm", 0]]):
        for source in (["--input", src], SYNTH_FLAGS):
            out = tmp_path / f"refused-{i}-{len(source)}"
            assert run_cli("pipeline", *source, *flags, "--out", out) == 1
            assert capsys.readouterr().err.count("\n") == 1
            assert os.listdir(out) == []


def test_simulate_seed_expansion(tmp_path):
    out = tmp_path / "run"
    assert run_cli("pipeline", "--out", out, "--seed", 2, *SYNTH_FLAGS,
                   "--scheme", "istvf/seqpca/ig", "--d1", 2, "--d2", 3,
                   "--count", 4, "--n-perm", 19) == 0
    sim = tmp_path / "sim"
    assert run_cli("simulate", "--bundle", out / "bundle.txt", "--count", 5,
                   "--seed", 9, "--out", sim) == 0
    sims = mio.read_posture_sequences(sim / "sims.txt")
    # the draw seed expands from the root seed by the documented key
    from motionemu.persist import load_bundle
    bundle = load_bundle(out / "bundle.txt")
    expected = models.simulate_sequence(bundle, 5, seed=stage_seed(9, SEED_SIMULATE))
    assert np.array_equal(np.stack(sims), np.stack(expected))


@pytest.mark.parametrize("count", [0, -2])
def test_simulate_refuses_a_count_below_one(stage_inputs, tmp_path, capsys, count):
    out = tmp_path / "sim"
    capsys.readouterr()
    assert run_cli("simulate", "--bundle", stage_inputs / "bundle.txt", "--count", count,
                   "--seed", 9, "--out", out) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    report = json.loads(err)
    assert report["error"] == "BadTarget" and report["message"] == "count must be positive"
    # refused before anything is simulated or written
    assert not out.exists() or os.listdir(out) == []


@pytest.mark.parametrize("sample", [0, -1])
def test_quantize_refuses_a_sample_below_one(stage_inputs, tmp_path, capsys, sample):
    out = tmp_path / "quantize"
    capsys.readouterr()
    assert run_cli("eval", "quantize", "--train", stage_inputs / "aligned.txt",
                   "--sample", sample, "--out", out) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    report = json.loads(err)
    assert report["error"] == "BadTarget" and report["message"] == "sample must be positive"
    # refused before anything is clustered or written
    assert not out.exists() or os.listdir(out) == []


def test_pipeline_refuses_a_count_below_one_before_any_stage(tmp_path, capsys):
    out = tmp_path / "run"
    capsys.readouterr()
    assert run_cli("pipeline", "--out", out, "--seed", 2, *SYNTH_FLAGS,
                   "--scheme", "istvf/seqpca/ig", "--d1", 2, "--d2", 2,
                   "--count", 0, "--n-perm", 9) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    report = json.loads(err)
    assert report["error"] == "BadTarget" and report["message"] == "count must be positive"
    assert not out.exists() or os.listdir(out) == []


def test_bundle_with_a_missing_entry_reports_one_json_line(tmp_path, capsys):
    out = tmp_path / "run"
    assert run_cli("pipeline", "--out", out, "--seed", 2, *SYNTH_FLAGS,
                   "--scheme", "istvf/seqpca/ig", "--d1", 2, "--d2", 2,
                   "--count", 2, "--n-perm", 9) == 0
    bundle = tmp_path / "bundle.txt"
    lines = (out / "bundle.txt").read_text().splitlines(keepends=True)
    bundle.write_text("".join(ln for ln in lines if not ln.startswith("s kind ")))
    capsys.readouterr()
    assert run_cli("simulate", "--bundle", bundle, "--count", 2, "--out", tmp_path / "sim") == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    report = json.loads(err)
    assert report["error"] == "DimensionMismatch"
    assert report["message"] == f"{bundle}: missing entry 'kind'"
    # a malformed entry line is named along with the file
    bundle.write_text("".join(ln.replace("i length ", "i length x") for ln in lines))
    assert run_cli("simulate", "--bundle", bundle, "--count", 2, "--out", tmp_path / "sim") == 1
    report = json.loads(capsys.readouterr().err)
    assert report["error"] == "DimensionMismatch"
    assert report["message"].startswith(f"{bundle}: bad line 'i length x")


def test_bundle_without_start_postures_reports_one_json_line(tmp_path, capsys):
    out = tmp_path / "run"
    assert run_cli("pipeline", "--out", out, "--seed", 2, *SYNTH_FLAGS,
                   "--scheme", "istvf/seqpca/mvg", "--d1", 2, "--d2", 2,
                   "--count", 2, "--n-perm", 9) == 0
    bundle = tmp_path / "bundle.txt"
    doctype, version, doc = mio.read_doc(out / "bundle.txt")
    mio.write_doc(bundle, doctype, version,
                  [*{**doc, "start.postures": doc["start.postures"][:0]}.items()])
    capsys.readouterr()
    assert run_cli("simulate", "--bundle", bundle, "--count", 2, "--out", tmp_path / "sim") == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    report = json.loads(err)
    assert report["error"] == "DimensionMismatch"
    assert report["message"] == f"{bundle}: entry 'start.postures' holds no posture"


def test_bundle_with_two_coordinates_per_bone_is_refused_naming_the_entry(stage_inputs,
                                                                          tmp_path, capsys):
    """A bundle whose reference and start postures lie in the plane (unit
    bones of two coordinates, in shapes that agree with each other and with
    the spatial mean) is refused by the loader, naming the file and the
    entry, not by simulate."""
    doctype, version, doc = mio.read_doc(stage_inputs / "bundle.txt")
    flat = {}
    for entry in ("reference", "start.postures"):
        plane = doc[entry][..., :2]
        flat[entry] = plane / np.linalg.norm(plane, axis=-1, keepdims=True)
    bundle, out = tmp_path / "bundle.txt", tmp_path / "sim"
    mio.write_doc(bundle, doctype, version, [*{**doc, **flat}.items()])
    capsys.readouterr()
    assert run_cli("simulate", "--bundle", bundle, "--count", 2, "--out", out) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": "DimensionMismatch", "message":
                               f"{bundle}: entry 'reference' holds 2 coordinates per bone, "
                               "not 3"}
    assert os.listdir(out) == []


def test_bundle_with_a_mistyped_entry_reports_one_json_line(tmp_path, capsys):
    out = tmp_path / "run"
    assert run_cli("pipeline", "--out", out, "--seed", 2, *SYNTH_FLAGS,
                   "--scheme", "istvf/seqpca/ig", "--d1", 2, "--d2", 2,
                   "--count", 2, "--n-perm", 9) == 0
    bundle = tmp_path / "bundle.txt"
    text = (out / "bundle.txt").read_text()
    # the same payload lines read as a (4, 3) array: one start posture without its axis
    assert "\na start.postures 1 4 3\n" in text
    bundle.write_text(text.replace("\na start.postures 1 4 3\n", "\na start.postures 4 3\n"))
    capsys.readouterr()
    assert run_cli("simulate", "--bundle", bundle, "--count", 2, "--out", tmp_path / "sim") == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    report = json.loads(err)
    assert report["error"] == "DimensionMismatch"
    assert report["message"] == (f"{bundle}: entry 'start.postures' is tagged 'a' with shape "
                                 "(4, 3), expected an array of rank 3")


def test_two_sample_reruns_byte_identical_and_exhaustive(tmp_path):
    rng = np.random.default_rng(13)
    base = unit(rng.normal(size=(2, 3)))
    group_a = [unit(base + 0.3 * rng.normal(size=(4, 2, 3))) for _ in range(3)]
    group_b = [unit(base + 0.3 * rng.normal(size=(4, 2, 3))) for _ in range(3)]
    a_path, b_path = tmp_path / "a.txt", tmp_path / "b.txt"
    mio.write_posture_sequences(a_path, group_a)
    mio.write_posture_sequences(b_path, group_b)
    e1, e2 = tmp_path / "e1", tmp_path / "e2"
    for out in (e1, e2):
        assert run_cli("eval", "two-sample", "--a", a_path, "--b", b_path,
                       "--n-perm", 99, "--seed", 7, "--out", out) == 0
    for name in ("two_sample.csv", "manifest_eval-two-sample.json"):
        assert read_bytes(e1 / name) == read_bytes(e2 / name)

    ex = tmp_path / "ex"
    assert run_cli("eval", "two-sample", "--a", a_path, "--b", b_path,
                   "--exhaustive", "--out", ex) == 0
    _, rows = read_csv(ex / "two_sample.csv")
    res = evaluate.disco_test(group_a, group_b, exhaustive=True)
    assert float(rows[0][0]) == res.statistic
    assert float(rows[0][1]) == res.p_value
    assert int(rows[0][2]) == 19


def test_two_sample_refuses_an_exhaustive_test_past_max_splits(tmp_path, capsys, monkeypatch):
    def never(*args):
        raise AssertionError("a distance matrix was computed")

    monkeypatch.setattr(evaluate, "sequence_distance_matrix", never)
    seq = unit(np.random.default_rng(14).normal(size=(4, 2, 3)))
    for name, count in (("a.txt", 10), ("b.txt", 60)):
        mio.write_posture_sequences(tmp_path / name, [seq] * count)
    assert run_cli("eval", "two-sample", "--a", tmp_path / "a.txt", "--b", tmp_path / "b.txt",
                   "--exhaustive", "--out", tmp_path / "ex") == 1
    report = json.loads(capsys.readouterr().err)
    assert report["error"] == "BadTarget" and "enumerates 396704524216 splits" in report["message"]
    assert not (tmp_path / "ex" / "two_sample.csv").exists()


def test_eval_quantize_artifacts_and_sweep(tmp_path, capsys):
    centers = unit(np.array([
        [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
        [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
    ]))
    rng = np.random.default_rng(17)
    train = []
    for c in centers:
        for _ in range(2):
            train.append(unit(c + 0.02 * rng.normal(size=(4, 2, 3))))
    other = [unit(centers[0] + 0.02 * rng.normal(size=(4, 2, 3)))]
    train_path, other_path = tmp_path / "train.txt", tmp_path / "other.txt"
    mio.write_posture_sequences(train_path, train)
    mio.write_posture_sequences(other_path, other)

    out = tmp_path / "q"
    assert run_cli("eval", "quantize", "--train", train_path, "--set",
                   f"other={other_path}", "--k", 0, "--seed", 1, "--out", out) == 0
    assert "picked k=3" in capsys.readouterr().out
    header, rows = read_csv(out / "quantize.csv")
    assert header == ["set", "sequences", "mean_variability", "variance"]
    assert [r[0] for r in rows] == ["train", "other"]
    for row in rows:
        assert 0.0 <= float(row[2]) <= 1.0
    _, label_rows = read_csv(out / "label_sequences.csv")
    assert len(label_rows) == 7
    for row in label_rows:
        assert set(row[2].split()) <= {"1", "2", "3"}
    assert (out / "mean_labels.csv").exists()


def test_eval_roughness_and_mds_match_library(tmp_path):
    rng = np.random.default_rng(19)
    base = unit(rng.normal(size=(2, 3)))
    seqs = [unit(base + 0.2 * rng.normal(size=(6, 2, 3))) for _ in range(4)]
    path = tmp_path / "set.txt"
    mio.write_posture_sequences(path, seqs)

    rout = tmp_path / "r"
    assert run_cli("eval", "roughness", "--set", f"sims={path}", "--out", rout) == 0
    _, series_rows = read_csv(rout / "roughness_series.csv")
    for i, row in enumerate(series_rows):
        got = np.array([float(v) for v in row[2].split()])
        assert np.array_equal(got, evaluate.roughness(seqs[i]))
    _, rows = read_csv(rout / "roughness.csv")
    means = [float(evaluate.roughness(s).mean()) for s in seqs]
    assert float(rows[0][2]) == pytest.approx(np.mean(means), abs=1e-15)

    mout = tmp_path / "m"
    assert run_cli("eval", "mds", "--input", path, "--dims", 2, "--out", mout) == 0
    dmat = np.loadtxt(mout / "dmat.csv", delimiter=",", skiprows=1)
    assert np.array_equal(dmat, evaluate.sequence_distance_matrix(seqs))
    coords = np.loadtxt(mout / "mds.csv", delimiter=",", skiprows=1)[:, 1:]
    assert np.array_equal(coords, evaluate.mds_coords_from(dmat, dims=2))


def test_eval_qq_matches_library(tmp_path):
    run = tmp_path / "run"
    assert run_cli("pipeline", "--out", run, "--seed", 4, *SYNTH_FLAGS,
                   "--scheme", "istvf/seqpca/ig", "--d1", 2, "--d2", 3,
                   "--count", 6, "--n-perm", 19) == 0
    qout = tmp_path / "qq"
    assert run_cli("eval", "qq", "--bundle", run / "bundle.txt",
                   "--a", run / "aligned.txt", "--b", run / "sims.txt",
                   "--out", qout) == 0
    from motionemu.persist import load_bundle
    bundle = load_bundle(run / "bundle.txt")
    ll_a = models.sequence_logliks(bundle, mio.read_posture_sequences(run / "aligned.txt"))
    ll_b = models.sequence_logliks(bundle, mio.read_posture_sequences(run / "sims.txt"))
    pairs = np.loadtxt(qout / "qq.csv", delimiter=",", skiprows=1)
    assert np.array_equal(pairs, evaluate.qq_data(ll_a, ll_b))


def test_pwi_scheme_through_cli(tmp_path):
    out = tmp_path / "pwi"
    assert run_cli("pipeline", "--out", out, "--seed", 5, "--landmarks", 4,
                   "--frames", 30, "--target-frames", 0, "--classes", 1,
                   "--per-class", 4, "--amplitude", 0.6, "--bandwidth", 0.1,
                   "--warp-strength", 0.2, "--noise", 0.02,
                   "--scheme", "pwi", "--count", 3, "--n-perm", 19) == 0
    sims = mio.read_posture_sequences(out / "sims.txt")
    assert len(sims) == 3 and sims[0].shape == (30, 3, 3)
    assert not (out / "fields.txt").exists()


def test_error_reports_are_single_json_lines(stage_inputs, tmp_path, capsys):
    """Bad arguments and bad input files end the command with exit code 1
    and one JSON line on stderr naming the error and its cause."""
    bad = tmp_path / "bad.txt"
    text = (stage_inputs / "aligned.txt").read_text()
    bad.write_text(text.replace("postureseq 5", "postureseq x"))
    fields, reduction = stage_inputs / "fields.txt", stage_inputs / "reduction.txt"
    aligned, other = np.stack(mio.read_posture_sequences(stage_inputs / "aligned.txt")), {}
    for frames in (60, 59):
        other[frames] = tmp_path / f"siem{frames}.txt"
        siem = flatten_sequence(aligned[:, :frames], None, "siem")
        save_reduction(other[frames], *dimred.reduce_fields(siem, True, 2, 3))
    cases = [
        (["fit", "--scheme", "istvf/seqpca/gp"], "KindMismatch", "unknown model 'gp'"),
        (["align", "--input", tmp_path / "missing.txt"], "FileNotFoundError", "missing.txt"),
        (["align", "--input", bad], "DimensionMismatch",
         f"{bad}: bad postureseq line 'postureseq x"),
        (["synth", "--amplitude", 2.0], "BadTarget", "amplitude"),
        (["eval", "roughness", "--set", fields], "BadTarget", "--set wants name=path"),
        (["fit", "--scheme", "pwi"], "BadTarget", "pass --input"),
        (["fit", "--scheme", "istvf/seqpca/mvg", "--fields", fields], "BadTarget",
         "pass --fields and --reduction"),
        (["fit", "--scheme", "siem/seqpca/mvg", "--fields", fields, "--reduction", reduction],
         "KindMismatch", "fields are 'istvf', scheme wants 'siem'"),
        # reductions of siem fields: 60 columns like the fields' 60 frames, and
        # 59 like their 59 columns, but on the 59-frame grid
        (["fit", "--scheme", "istvf/seqpca/mvg", "--fields", fields, "--reduction", other[60]],
         "DimensionMismatch", f"{fields} and {other[60]}: scores shape (5, 2, 59) does not "
         "match fit (2, 60)"),
        (["fit", "--scheme", "istvf/seqpca/mvg", "--fields", fields, "--reduction", other[59]],
         "DimensionMismatch", f"{fields} and {other[59]}: fpca.dt 0.017241379310344827 is not "
         "the fields' dt 0.01694915254237288")]
    capsys.readouterr()
    for i, (argv, error, cause) in enumerate(cases):
        assert run_cli(*argv, "--out", tmp_path / str(i)) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        report = json.loads(err)
        assert report["error"] == error and cause in report["message"], report


# id -> argv reading the zero-bone file {z}, before --out
ZERO_BONE_RUNS = {
    "align": ["align", "--input", "{z}"],
    "pipeline": ["pipeline", "--input", "{z}", "--count", 2, "--n-perm", 9],
    "flatten": ["flatten", "--input", "{z}"],
    "twolevel": ["twolevel", "--input", "{z}", "--total", 12, "--holdout", 4],
    "eval-roughness": ["eval", "roughness", "--set", "zero={z}"],
    "eval-mds": ["eval", "mds", "--input", "{z}"],
    "eval-quantize": ["eval", "quantize", "--train", "{z}"],
}


@pytest.mark.parametrize("run", list(ZERO_BONE_RUNS))
def test_posture_files_without_bones_are_refused_naming_the_file(tmp_path, capsys, run):
    """A postureseq header of one landmark, no bones, is refused by the
    reader as raw files refuse one: one JSON line naming the file, nothing
    written."""
    zero = tmp_path / "zero.txt"
    zero.write_text("postureseq 1 5\n" * 2)
    out = tmp_path / "out"
    capsys.readouterr()
    assert run_cli(*[str(a).format(z=zero) for a in ZERO_BONE_RUNS[run]], "--out", out) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    report = json.loads(err)
    assert report == {"error": "DimensionMismatch",
                      "message": f"{zero}: bad postureseq line 'postureseq 1 5'"}
    assert os.listdir(out) == []


# id -> (the bad file: a stage input with one entry's number at one index
# replaced, or a text; the command before --out, with {i} the input
# directory and {b} the bad file; what the refusal says after the file name)
MALFORMED_RUNS = {
    "simulate-inf-reference": (
        ("bundle.txt", "reference", (0, 1), np.inf), ["simulate", "--bundle", "{b}"],
        "entry 'reference', row 0: non-finite value"),
    "simulate-start-off-the-sphere": (
        ("bundle.txt", "start.postures", (0, 1, 2), 2.0), ["simulate", "--bundle", "{b}"],
        "entry 'start.postures', posture 0: bone norm off 1 by more than 1e-09"),
    "qq-nan-covariance": (
        ("bundle.txt", "model.covariance", (2, 0), np.nan),
        ["eval", "qq", "--bundle", "{b}", "--a", "{i}/aligned.txt", "--b", "{i}/sims.txt"],
        "entry 'model.covariance', row 2: non-finite value"),
    "fit-nan-basis": (
        ("reduction.txt", "spatial.basis", (3, 1), np.nan),
        ["fit", "--scheme", "istvf/seqpca/mvg", "--fields", "{i}/fields.txt",
         "--reduction", "{b}"], "entry 'spatial.basis', row 3: non-finite value"),
    "align-no-frames": ("postureseq 3 0\n" * 2, ["align", "--input", "{b}"],
                        "bad postureseq line 'postureseq 3 0'"),
    "ingest-no-frames": ("rawseq 3 0\nparents -1 0 1\n", ["ingest", "--input", "{b}"],
                         "bad rawseq line 'rawseq 3 0'"),
}


@pytest.mark.parametrize("run", list(MALFORMED_RUNS))
def test_malformed_numbers_and_headers_are_refused_naming_the_file(stage_inputs, tmp_path,
                                                                   capsys, run):
    """A non-finite number in a bundle or reduction, a bundle's start
    posture off the unit sphere and a sequence block without frames are
    refused by the reader: one JSON line naming the file, nothing written."""
    source, argv, message = MALFORMED_RUNS[run]
    bad = tmp_path / "bad.txt"
    if isinstance(source, str):
        bad.write_text(source)
    else:
        name, entry, index, number = source
        doctype, version, doc = mio.read_doc(stage_inputs / name)
        doc[entry][index] = number
        mio.write_doc(bad, doctype, version, list(doc.items()))
    out = tmp_path / "out"
    capsys.readouterr()
    assert run_cli(*[str(a).format(i=stage_inputs, b=bad) for a in argv], "--out", out) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": "DimensionMismatch", "message": f"{bad}: {message}"}
    assert os.listdir(out) == []


def test_bad_set_names_are_refused_before_any_file_is_read(stage_inputs, tmp_path, capsys,
                                                            monkeypatch):
    """A --set name that a CSV cell cannot hold, or that names two sets
    (train is eval quantize's --train), is refused with nothing read or
    written."""
    def no_read(path):
        raise AssertionError(f"{path} was read before the set names were checked")

    monkeypatch.setattr(mio, "read_posture_sequences", no_read)
    aligned, sims = stage_inputs / "aligned.txt", stage_inputs / "sims.txt"
    cases = [(["roughness", "--set", f"a,b={aligned}"], "'a,b' holds a comma or whitespace"),
             (["roughness", "--set", f"a b={aligned}"], "'a b' holds a comma or whitespace"),
             (["roughness", "--set", f"a={aligned}", "--set", f"b\t={sims}"],
              "'b\\t' holds a comma or whitespace"),
             (["roughness", "--set", f"a,b={aligned}", "--set", f"a,b={aligned}"],
              "'a,b' holds a comma or whitespace"),
             (["roughness", "--set", f"a={aligned}", "--set", f"a={sims}"],
              "'a' is used more than once"),
             (["quantize", "--train", aligned, "--set", f"train={aligned}"],
              "'train' is used more than once"),
             (["quantize", "--train", aligned, "--set", f"s={sims}", "--set", f"s={sims}"],
              "'s' is used more than once")]
    capsys.readouterr()
    for i, (argv, cause) in enumerate(cases):
        out = tmp_path / str(i)
        assert run_cli("eval", *argv, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err) == {"error": "BadTarget", "message": f"--set name {cause}"}
        assert os.listdir(out) == []


def test_fit_on_fields_without_start_names_the_missing_start(tmp_path, capsys):
    run = tmp_path / "run"
    assert run_cli("pipeline", "--out", run, "--seed", 4, *SYNTH_FLAGS,
                   "--scheme", "istvf/seqpca/mvg", "--d1", 2, "--d2", 3,
                   "--count", 2, "--n-perm", 9) == 0
    doctype, version, doc = mio.read_doc(run / "fields.txt")
    doc["starts"] = None
    mio.write_doc(tmp_path / "fields.txt", doctype, version, list(doc.items()))
    capsys.readouterr()
    for policy in ("fixed", "training-mean"):
        assert run_cli("fit", "--fields", tmp_path / "fields.txt",
                       "--reduction", run / "reduction.txt", "--scheme", "istvf/seqpca/mvg",
                       "--start-policy", policy, "--out", tmp_path / policy) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        report = json.loads(err)
        assert report["error"] == "DimensionMismatch"
        assert report["message"].startswith(f"{tmp_path / 'fields.txt'}: entry 'starts' is "
                                            "tagged 'x'")
        assert not (tmp_path / policy / "bundle.txt").exists()


def test_seqpca_on_constant_fields_reports_rank_zero(tmp_path, capsys):
    ref = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    fields = FlatFields("istvf", ref, np.stack([ref] * 3), np.ones((3, 4, 6)), 1.0 / 6)
    mio.write_flatfields(tmp_path / "fields.txt", fields)
    assert run_cli("reduce", "--input", tmp_path / "fields.txt", "--method", "seqpca",
                   "--out", tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    report = json.loads(err)
    assert report["error"] == "InsufficientData" and "rank 0" in report["message"]


def test_data_dir_env_resolves_relative_paths(tmp_path, monkeypatch):
    monkeypatch.setenv("MOTIONEMU_DATA_DIR", str(tmp_path))
    assert run_cli("synth", "--out", "rel_run", "--seed", 1, *SYNTH_FLAGS) == 0
    assert (tmp_path / "rel_run" / "sequences.txt").exists()
    rout = tmp_path / "rough_out"
    assert run_cli("eval", "roughness", "--set", "sims=rel_run/sequences.txt",
                   "--out", rout) == 0
    assert (rout / "roughness.csv").exists()


def smooth_training_set(count=12, t=12, bones=3, seed=0):
    rng = np.random.default_rng(seed)
    ts = np.linspace(0.0, 1.0, t)
    seqs = []
    for _ in range(count):
        a = 0.7 + 0.1 * rng.normal()
        b = 0.3 * rng.normal()
        seq = np.empty((t, bones, 3))
        for k in range(bones):
            ang = a * ts + b + 0.2 * k
            axis = np.array([np.cos(0.4 * k), np.sin(0.4 * k), 0.0])
            seq[:, k] = (np.outer(np.cos(ang), axis)
                         + np.outer(np.sin(ang), np.array([0.0, 0.0, 1.0])))
        seqs.append(unit(seq))
    return seqs


def test_run_twolevel_structure_and_determinism():
    seqs = smooth_training_set()
    kwargs = dict(kind="istvf", model_type="ig", d1=2, d2=2, total=30, holdout=10,
                  emulators=("ig", "pwi"), n_perm=19, seed=0)
    report = run_twolevel(seqs, **kwargs)
    assert set(report) == {"level_one", "bundles", "rows", "qq", "loglik_test",
                           "loglik_sim"}
    assert set(report["bundles"]) == {"ig", "pwi"}
    assert [r["emulator"] for r in report["rows"]] == ["ig", "pwi"]
    for row in report["rows"]:
        assert 0.0 < row["p_value"] <= 1.0
    assert len(report["loglik_test"]) == 10
    assert report["qq"]["ig"].shape == (10, 2)
    again = run_twolevel(seqs, **kwargs)
    assert report["rows"] == again["rows"]
    assert np.array_equal(report["qq"]["pwi"], again["qq"]["pwi"])


def test_run_twolevel_tests_equal_disco_test_on_the_same_draws():
    # every emulator's test reads the one held-out block run_twolevel shares
    seqs = smooth_training_set()
    report = run_twolevel(seqs, kind="istvf", model_type="ig", d1=2, d2=2, total=30,
                          holdout=10, emulators=("ig", "mvg", "pwi"), n_perm=19, seed=4)
    sims = models.simulate_sequence(report["level_one"], 30,
                                    seed=stage_seed(4, route.SEED_TL_LEVEL1))
    for j, row in enumerate(report["rows"]):
        draws = models.simulate_sequence(report["bundles"][row["emulator"]], 10,
                                         seed=stage_seed(4, route.SEED_TL_SIM, (j,)))
        res = evaluate.disco_test(draws, sims[20:], n_perm=19,
                                  seed=stage_seed(4, route.SEED_TL_DISCO, (j,)))
        assert (row["statistic"], row["p_value"]) == (res.statistic, res.p_value)


def test_run_twolevel_refuses_a_repeated_emulator_before_fitting(monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("run_twolevel fitted a model before refusing its emulators")

    monkeypatch.setattr(models, "fit_emulator", no_fit)
    seqs = smooth_training_set()
    # two rows of one name would write one qq file twice
    for emulators in (("mvg", "mvg"), ["ig", "pwi", "ig"]):
        with pytest.raises(BadTarget, match=f"emulator '{emulators[0]}' is listed more than once"):
            run_twolevel(seqs, model_type="mvg", total=30, holdout=10, emulators=emulators)


def test_twolevel_cli_matches_library(tmp_path, capsys):
    seqs = smooth_training_set()
    path = tmp_path / "train.txt"
    mio.write_posture_sequences(path, seqs)
    out = tmp_path / "tl"
    assert run_cli("twolevel", "--input", path, "--scheme", "istvf/seqpca/ig",
                   "--d1", 2, "--d2", 2, "--total", 30, "--holdout", 10,
                   "--emulators", "ig,pwi", "--n-perm", 19, "--seed", 0,
                   "--out", out) == 0
    report = run_twolevel(seqs, kind="istvf", model_type="ig", d1=2, d2=2,
                          total=30, holdout=10, emulators=("ig", "pwi"),
                          n_perm=19, seed=0)
    _, rows = read_csv(out / "twolevel.csv")
    for row, expected in zip(rows, report["rows"]):
        assert row[0] == expected["emulator"]
        assert float(row[1]) == expected["statistic"]
        assert float(row[2]) == expected["p_value"]
    for name in ("ig", "pwi"):
        pairs = np.loadtxt(out / f"qq_{name}.csv", delimiter=",", skiprows=1)
        assert np.array_equal(pairs, report["qq"][name])


@pytest.fixture(scope="module")
def stage_inputs(tmp_path_factory):
    """One small mvg pipeline run plus a raw landmark file: an input for
    every command."""
    root = tmp_path_factory.mktemp("inputs")
    assert run_cli("pipeline", "--out", root, "--seed", 2, *SYNTH_FLAGS,
                   "--scheme", "istvf/seqpca/mvg", "--d1", 2, "--d2", 3,
                   "--count", 4, "--n-perm", 9) == 0
    rng = np.random.default_rng(5)
    mio.write_raw_sequences(root / "raw.txt", [rng.normal(size=(9, 4, 3)) for _ in range(3)],
                            SkeletonHierarchy([-1, 0, 1, 1]))
    return root


# id -> (argv before --out, with {i} the input directory; the manifests the
# command writes, its own first)
COMMAND_RUNS = {
    "synth": (["synth", "--seed", 3, *SYNTH_FLAGS], ["synth"]),
    "ingest": (["ingest", "--input", "{i}/raw.txt", "--target-frames", 5], ["ingest"]),
    "align": (["align", "--input", "{i}/sequences.txt", "--ref-index", 1], ["align"]),
    "flatten": (["flatten", "--input", "{i}/aligned.txt", "--kind", "siem"], ["flatten"]),
    "flatten-reference": (["flatten", "--input", "{i}/aligned.txt",
                           "--reference", "{i}/reference.txt"], ["flatten"]),
    "reduce": (["reduce", "--input", "{i}/fields.txt", "--method", "spatialpca"], ["reduce"]),
    "fit-pwi": (["fit", "--scheme", "pwi", "--input", "{i}/aligned.txt", "--diagonal"], ["fit"]),
    "fit-mvg": (["fit", "--scheme", "istvf/seqpca/mvg", "--fields", "{i}/fields.txt",
                 "--reduction", "{i}/reduction.txt"], ["fit"]),
    "simulate": (["simulate", "--bundle", "{i}/bundle.txt", "--count", 3, "--seed", 4],
                 ["simulate"]),
    "eval-two-sample": (["eval", "two-sample", "--a", "{i}/sims.txt", "--b", "{i}/aligned.txt",
                         "--exhaustive"], ["eval-two-sample"]),
    "eval-quantize": (["eval", "quantize", "--train", "{i}/aligned.txt",
                       "--set", "sims={i}/sims.txt", "--k", 3, "--sample", 50],
                      ["eval-quantize"]),
    "eval-roughness": (["eval", "roughness", "--set", "train={i}/aligned.txt",
                        "--set", "sims={i}/sims.txt"], ["eval-roughness"]),
    "eval-mds": (["eval", "mds", "--input", "{i}/aligned.txt", "--dims", 3], ["eval-mds"]),
    "eval-qq": (["eval", "qq", "--bundle", "{i}/bundle.txt", "--a", "{i}/aligned.txt",
                 "--b", "{i}/sims.txt"], ["eval-qq"]),
    "pipeline": (["pipeline", "--seed", 3, *SYNTH_FLAGS, "--scheme", "istvf/spatialpca/var",
                  "--count", 3, "--n-perm", 9],
                 ["pipeline", "synth", "align", "flatten", "reduce", "fit", "simulate",
                  "eval-two-sample"]),
    "twolevel": (["twolevel", "--input", "{i}/aligned.txt", "--scheme", "istvf/seqpca/ig",
                  "--d1", 2, "--d2", 2, "--total", 12, "--holdout", 4,
                  "--emulators", "ig,pwi", "--n-perm", 9], ["twolevel"]),
}


@pytest.mark.parametrize("run", list(COMMAND_RUNS))
def test_every_command_manifest_lists_exactly_what_it_wrote(stage_inputs, tmp_path, run):
    """The --out directory holds the command's manifest and exactly the
    artifacts it lists (a pipeline also holds its stages' manifests, whose
    inputs are earlier stages' artifacts); every digest matches its file
    and config_hash matches config."""
    argv, commands = COMMAND_RUNS[run]
    out = tmp_path / "out"
    assert run_cli(*[str(a).format(i=stage_inputs) for a in argv], "--out", out) == 0
    names = sorted(os.listdir(out))
    assert [n for n in names if n.startswith("manifest_")] == \
        sorted(f"manifest_{c}.json" for c in commands)
    for i, command in enumerate(commands):
        with open(out / f"manifest_{command}.json") as fh:
            manifest = json.load(fh)
        assert manifest["command"] == command
        blob = json.dumps(manifest["config"], sort_keys=True).encode()
        assert manifest["config_hash"] == hashlib.sha256(blob).hexdigest()
        read_from = stage_inputs if i == 0 else out
        for where, listed in ((read_from, manifest["inputs"]), (out, manifest["artifacts"])):
            for name, digest in listed.items():
                assert digest == hashlib.sha256(read_bytes(where / name)).hexdigest(), name
        if i == 0:
            assert sorted(manifest["artifacts"]) == \
                [n for n in names if not n.startswith("manifest_")]


def test_inconsistent_bundle_and_excess_mds_dims_report_one_json_line(stage_inputs, tmp_path,
                                                                      capsys):
    text = (stage_inputs / "bundle.txt").read_text()
    assert "\ns kind istvf\n" in text
    bundle = tmp_path / "bundle.txt"
    bundle.write_text(text.replace("\ns kind istvf\n", "\ns kind intrinsic\n"))
    capsys.readouterr()
    assert run_cli("simulate", "--bundle", bundle, "--count", 2, "--out", tmp_path / "sim") == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": "DimensionMismatch", "message":
                               f"{bundle}: entry 'kind' = intrinsic does not match "
                               "'model_type' = mvg"}
    assert run_cli("eval", "mds", "--input", stage_inputs / "aligned.txt", "--dims", 12,
                   "--out", tmp_path / "mds") == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": "BadTarget",
                               "message": "dims = 12 exceeds the 5 points to embed"}


def test_twolevel_refuses_what_it_cannot_score_before_fitting(stage_inputs, tmp_path, capsys,
                                                               monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("twolevel fitted a model before refusing its input")

    monkeypatch.setattr(models, "fit_emulator", no_fit)
    # each case's flags override the valid run's
    cases = [(["--emulators", ","], "BadTarget", "no emulators"),
             (["--scheme", "istvf/spatialpca/var"], "KindMismatch", "level-one model 'var'"),
             (["--scheme", "pwi", "--emulators", "pwi"], "KindMismatch", "level-one model 'pwi'"),
             (["--emulators", "mvg,gp"], "KindMismatch", "unknown emulator 'gp'"),
             (["--holdout", 12], "BadTarget", "holdout must be positive and smaller than total"),
             (["--holdout", 0], "BadTarget", "holdout must be positive and smaller than total"),
             (["--emulators", "mvg,pwi,mvg"], "BadTarget",
              "emulator 'mvg' is listed more than once")]
    capsys.readouterr()
    for i, (flags, error, cause) in enumerate(cases):
        out = tmp_path / str(i)
        assert run_cli("twolevel", "--input", stage_inputs / "aligned.txt",
                       "--scheme", "istvf/seqpca/mvg", "--emulators", "mvg", "--d1", 2,
                       "--d2", 2, "--total", 12, "--holdout", 4, "--n-perm", 9, *flags,
                       "--out", out) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        report = json.loads(err)
        assert report["error"] == error and cause in report["message"]
        assert os.listdir(out) == []


def test_pipeline_and_twolevel_refuse_n_perm_before_any_work(stage_inputs, tmp_path, capsys,
                                                              monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work ran before n_perm was checked")

    for space, name in [(models, "fit_emulator"), (models, "fit_bundle"),
                        (evaluate, "sequence_distance_matrix"), (cli, "align_all")]:
        monkeypatch.setattr(space, name, no_work)
    runs = [["twolevel", "--input", stage_inputs / "aligned.txt", "--d1", 2, "--d2", 2,
             "--total", 12, "--holdout", 4],
            ["pipeline", *SYNTH_FLAGS, "--count", 2],
            ["pipeline", "--input", stage_inputs / "sequences.txt", "--scheme", "pwi"]]
    capsys.readouterr()
    for i, argv in enumerate(runs):
        out = tmp_path / str(i)
        assert run_cli(*argv, "--n-perm", 0, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err) == {"error": "BadTarget", "message": "n_perm must be positive"}
        assert os.listdir(out) == []
