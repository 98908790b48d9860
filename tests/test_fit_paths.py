"""The library's fit_emulator and the CLI's flatten -> reduce -> fit chain
share one reduction (dimred.reduce_fields) and one model fit
(models.fit_bundle), so they must build the same bundle from the same
aligned sequences, and the library route (route.run_route) and posture
codes (route.run_quantize) must give the stage commands' artifacts bit for
bit.  A fitted object and its reloaded copy must also compute the same
bits, since `pipeline` keeps in memory what the stage commands read back
from files."""

import json

import numpy as np
import pytest

from motionemu import io as mio, models
from motionemu.cli import main, parse_scheme
from motionemu.cli import _write_csv
from motionemu.persist import load_bundle, save_bundle, save_reduction
from motionemu.route import run_quantize, run_route

SYNTH_FLAGS = ["--classes", 1, "--amplitude", 0.7, "--target-frames", 0,
               "--bandwidth", 0.1, "--warp-strength", 0.3, "--noise", 0.02]
# (landmarks, frames, sequences)
SMALL = (5, 40, 8)
PAPER = (12, 100, 20)


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def aligned_at(tmp_path_factory):
    """Aligned synthetic sequences of a given size, written once per size."""
    made = {}

    def make(size):
        if size not in made:
            landmarks, frames, count = size
            out = tmp_path_factory.mktemp("chain")
            assert run_cli("synth", "--out", out, "--seed", 5, *SYNTH_FLAGS,
                           "--landmarks", landmarks, "--frames", frames,
                           "--per-class", count) == 0
            assert run_cli("align", "--input", out / "sequences.txt", "--out", out) == 0
            made[size] = out / "aligned.txt"
        return made[size]

    return make


@pytest.fixture(scope="module")
def aligned(aligned_at):
    return aligned_at(SMALL)


@pytest.mark.parametrize("scheme,policy,size", [
    pytest.param("istvf/seqpca/mvg", "training-mean", SMALL,
                 id="istvf/seqpca/mvg-training-mean"),
    pytest.param("siem/seqpca/ig", "sampled-from-training", SMALL,
                 id="siem/seqpca/ig-sampled-from-training"),
    pytest.param("istvf/spatialpca/var", "fixed", SMALL, id="istvf/spatialpca/var-fixed"),
    # big enough that an F-ordered spatial basis projects to other bits
    pytest.param("istvf/seqpca/mvg", "training-mean", PAPER,
                 id="istvf/seqpca/mvg-training-mean-12x100x20"),
])
def test_cli_chain_matches_fit_emulator(tmp_path, aligned_at, scheme, policy, size):
    aligned = aligned_at(size)
    kind, red, model_type = parse_scheme(scheme)
    assert run_cli("flatten", "--input", aligned, "--kind", kind, "--out", tmp_path) == 0
    assert run_cli("reduce", "--input", tmp_path / "fields.txt", "--method", red,
                   "--d1", 3, "--out", tmp_path) == 0
    assert run_cli("fit", "--scheme", scheme, "--fields", tmp_path / "fields.txt",
                   "--reduction", tmp_path / "reduction.txt", "--start-policy", policy,
                   "--out", tmp_path) == 0
    cli = load_bundle(tmp_path / "bundle.txt")
    lib = models.fit_emulator(mio.read_posture_sequences(aligned), kind=kind,
                              model_type=model_type, d1=3, start_policy=policy)

    for name in ("kind", "model_type", "length", "start_policy", "meta"):
        assert getattr(cli, name) == getattr(lib, name), name
    for name in ("reference", "start_postures", "var_init"):
        a, b = getattr(cli, name), getattr(lib, name)
        assert (a is None and b is None) or np.array_equal(a, b), name
    for name in ("mean", "basis", "eigenvalues", "total_variance"):
        assert np.array_equal(getattr(cli.spatial, name), getattr(lib.spatial, name)), name
    if model_type == "var":
        assert cli.fpca is None and lib.fpca is None
        assert cli.model.order == lib.model.order
        for name in ("coef", "intercept", "noise_cov"):
            assert np.array_equal(getattr(cli.model, name), getattr(lib.model, name)), name
        return
    for name in ("means", "bases", "eigenvalues", "dt"):
        assert np.array_equal(getattr(cli.fpca, name), getattr(lib.fpca, name)), name
    stat = "covariance" if model_type == "mvg" else "variances"
    assert np.array_equal(getattr(cli.model, stat), getattr(lib.model, stat)), stat
    assert cli.model.shape == lib.model.shape


@pytest.mark.parametrize("scheme", ["istvf/seqpca/mvg", "istvf/spatialpca/var", "pwi"])
def test_library_route_gives_the_stage_commands_artifacts(tmp_path, scheme):
    """run_route's results, yielded stage by stage and written by the
    artifact writers, equal byte for byte what align, flatten, reduce, fit,
    simulate and eval two-sample write when run by hand on the same
    sequences with the same seed."""
    src = tmp_path / "synth"
    assert run_cli("synth", "--out", src, "--seed", 6, *SYNTH_FLAGS, "--landmarks", 5,
                   "--frames", 30, "--per-class", 6) == 0
    cli, lib = tmp_path / "cli", tmp_path / "lib"
    lib.mkdir()
    kind, red, model_type = parse_scheme(scheme)
    assert run_cli("align", "--input", src / "sequences.txt", "--ref-index", 1, "--out", cli) == 0
    if model_type == "pwi":
        assert run_cli("fit", "--scheme", scheme, "--input", cli / "aligned.txt",
                       "--out", cli) == 0
    else:
        assert run_cli("flatten", "--input", cli / "aligned.txt", "--kind", kind,
                       "--out", cli) == 0
        assert run_cli("reduce", "--input", cli / "fields.txt", "--method", red, "--d1", 3,
                       "--var2", 0.8, "--out", cli) == 0
        assert run_cli("fit", "--scheme", scheme, "--fields", cli / "fields.txt",
                       "--reduction", cli / "reduction.txt", "--order", 2,
                       "--start-policy", "sampled-from-training", "--out", cli) == 0
    assert run_cli("simulate", "--bundle", cli / "bundle.txt", "--count", 5, "--seed", 8,
                   "--out", cli) == 0
    assert run_cli("eval", "two-sample", "--a", cli / "sims.txt", "--b", cli / "aligned.txt",
                   "--n-perm", 29, "--seed", 8, "--out", cli) == 0

    stages = list(run_route(mio.read_posture_sequences(src / "sequences.txt"), kind=kind,
                            model_type=model_type, ref_index=1, d1=3, var2=0.8, order=2,
                            start_policy="sampled-from-training", count=5, n_perm=29, seed=8))
    # one result per stage, in the order the stages end
    assert [name for name, _ in stages] == ["aligned", "warps", "fields", "bundle", "sims",
                                            "two_sample"]
    route = dict(stages)
    test = route["two_sample"]
    files = [("aligned.txt", mio.write_posture_sequences, route["aligned"]),
             ("warps.txt", mio.write_warps, route["warps"]),
             ("bundle.txt", save_bundle, route["bundle"]),
             ("sims.txt", mio.write_posture_sequences, route["sims"]),
             ("two_sample.csv", _write_csv, ["statistic", "p_value", "permutations"],
              [(test.statistic, test.p_value, test.permutations)])]
    bundle = route["bundle"]
    assert "reduction" not in route  # the bundle holds it
    if model_type == "pwi":
        assert route["fields"] is None and bundle.spatial is None and bundle.fpca is None
    else:
        files += [("fields.txt", mio.write_flatfields, route["fields"]),
                  ("reduction.txt", save_reduction, bundle.spatial, bundle.fpca)]
    for name, write, *data in files:
        write(lib / name, *data)
        assert (lib / name).read_bytes() == (cli / name).read_bytes(), name


@pytest.mark.parametrize("k", [0, 3])
def test_library_quantize_gives_the_eval_quantize_files(tmp_path, aligned, k):
    """run_quantize's results, written by the CSV writer, equal byte for byte
    what eval quantize writes from the same sets and seed."""
    train = mio.read_posture_sequences(aligned)
    mio.write_posture_sequences(tmp_path / "other.txt", train[3:])
    cli, lib = tmp_path / "cli", tmp_path / "lib"
    lib.mkdir()
    assert run_cli("eval", "quantize", "--train", aligned, "--set",
                   f"other={tmp_path / 'other.txt'}", "--k", k, "--sample", 100, "--seed", 4,
                   "--out", cli) == 0
    res = run_quantize(train, [("train", train), ("other", train[3:])], k, 100, 4)
    assert k == 0 or res["k"] == k
    files = [("quantize.csv", ["set", "sequences", "mean_variability", "variance"],
              [(name, len(labels), mean, var) for name, labels, mean, var in res["sets"]]),
             ("mean_labels.csv", ["frame", "label"], list(enumerate(res["mean_labels"]))),
             ("label_sequences.csv", ["set", "index", "labels"],
              [(name, i, " ".join(str(v) for v in lab))
               for name, labels, _, _ in res["sets"] for i, lab in enumerate(labels)])]
    for name, header, rows in files:
        _write_csv(lib / name, header, rows)
        assert (lib / name).read_bytes() == (cli / name).read_bytes(), name


@pytest.mark.parametrize("model_type", ["mvg", "ig", "var", "pwi"])
def test_draws_survive_save_and_load(tmp_path, aligned, model_type):
    seqs = mio.read_posture_sequences(aligned)
    bundle = models.fit_emulator(seqs, model_type=model_type, d1=3)
    save_bundle(tmp_path / "bundle.txt", bundle)
    reloaded = load_bundle(tmp_path / "bundle.txt")
    before = models.simulate_sequence(bundle, 3, seed=11)
    after = models.simulate_sequence(reloaded, 3, seed=11)
    for a, b in zip(before, after):
        assert np.array_equal(a, b)


def test_reduce_rejects_mpca(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli("reduce", "--input", tmp_path / "fields.txt", "--method", "mpca",
                "--d1", 2, "--d2", 2, "--out", tmp_path)
    assert exc.value.code == 2


def test_fit_needs_a_spatial_basis(tmp_path, aligned, capsys):
    assert run_cli("flatten", "--input", aligned, "--kind", "istvf", "--out", tmp_path) == 0
    # no spatial basis, like the MPCA-only reductions of earlier releases
    red = tmp_path / "reduction.txt"
    mio.write_doc(red, "reduction", 2, [("has_fpca", 0)])
    capsys.readouterr()
    assert run_cli("fit", "--scheme", "istvf/seqpca/ig", "--fields", tmp_path / "fields.txt",
                   "--reduction", red, "--out", tmp_path) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": "DimensionMismatch",
                               "message": f"{red}: missing entry 'spatial.mean'"}
