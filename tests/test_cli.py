"""End-to-end tests of the command-line interface."""

import dataclasses
import json
import os
import struct
import time

import numpy as np
import pytest

import ecml
from ecml import cli
from ecml.features import ROW_BLOCK

from conftest import run_python
from test_evaluation import reference_scores


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def workspace(tmp_path, capsys):
    """Synthetic features/labels/pairs written through the CLI."""
    f, l, p = tmp_path / "f.csv", tmp_path / "l.csv", tmp_path / "p.csv"
    code, out, _ = run(
        capsys,
        "synth",
        "--ids", "12", "--samples-per-id", "10", "--dim", "16",
        "--intra-spread", "1.0", "--inter-spread", "2.0",
        "--seed", "4", "--count", "600",
        "--features", str(f), "--labels", str(l), "--pairs", str(p),
    )
    assert code == 0
    return tmp_path


class TestSynth:
    def test_outputs_roundtrip(self, workspace):
        feats = ecml.load_features(workspace / "f.csv", "csv")
        assert feats.count == 120 and feats.dim == 16
        labels = ecml.load_labels(workspace / "l.csv")
        assert labels.size == 120
        pairs = ecml.load_pairs(workspace / "p.csv")
        assert len(pairs) == 600

    def test_prints_seed(self, tmp_path, capsys):
        code, out, _ = run(
            capsys,
            "synth", "--ids", "4", "--samples-per-id", "4", "--dim", "4",
            "--seed", "9", "--count", "20",
            "--features", str(tmp_path / "f.csv"),
            "--labels", str(tmp_path / "l.csv"),
            "--pairs", str(tmp_path / "p.csv"),
        )
        assert code == 0 and "seed: 9" in out

    def test_deterministic_files(self, tmp_path, capsys):
        args = [
            "synth", "--ids", "4", "--samples-per-id", "4", "--dim", "4",
            "--seed", "9", "--count", "20",
            "--labels", str(tmp_path / "l.csv"), "--pairs", str(tmp_path / "p.csv"),
        ]
        run(capsys, *args, "--features", str(tmp_path / "a.csv"))
        run(capsys, *args, "--features", str(tmp_path / "b.csv"))
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


    def test_negative_seed_exit_code(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "synth", "--seed", "-1", "--features", str(tmp_path / "f.csv"),
            "--labels", str(tmp_path / "l.csv"), "--pairs", str(tmp_path / "p.csv"),
        )
        assert code == 2 and "seed" in err
        assert not (tmp_path / "f.csv").exists()


class TestPairsCommand:
    def test_negative_seed_exit_code(self, tmp_path, capsys):
        ecml.save_labels(np.repeat(np.arange(5), 4), tmp_path / "l.csv")
        code, _, err = run(
            capsys, "pairs", "--labels", str(tmp_path / "l.csv"), "--seed", "-3",
            "--count", "10", "--pairs", str(tmp_path / "p.csv"),
        )
        assert code == 2 and "seed" in err
        assert not (tmp_path / "p.csv").exists()

    def test_label_beyond_int64_exit_code(self, tmp_path, capsys):
        (tmp_path / "l.csv").write_text(f"0\n0\n1\n{2**64}\n")
        code, _, err = run(
            capsys, "pairs", "--labels", str(tmp_path / "l.csv"),
            "--count", "2", "--pairs", str(tmp_path / "p.csv"),
        )
        assert code == 2 and "line 3" in err

    def test_split_counting(self, tmp_path, capsys):
        labels = np.repeat(np.arange(50), 20)
        ecml.save_labels(labels, tmp_path / "l.csv")
        code, out, _ = run(
            capsys,
            "pairs", "--labels", str(tmp_path / "l.csv"),
            "--count", "10000", "--pos-fraction", "0.55", "--seed", "3",
            "--pairs", str(tmp_path / "p.csv"),
        )
        assert code == 0
        pairs = ecml.load_pairs(tmp_path / "p.csv")
        assert abs(pairs.n_pos - 5500) <= 1


class TestFit:
    def test_lambda_zero_plain_gives_identity_metric(self, workspace, capsys):
        model_path = workspace / "m0.ecml"
        code, _, _ = run(
            capsys,
            "fit", "--features", str(workspace / "f.csv"),
            "--pairs", str(workspace / "p.csv"), "--model", str(model_path),
            "--learner", "rmml", "--lambda", "0", "--seed", "1",
        )
        assert code == 0
        model, _ = ecml.load_model(model_path)
        assert np.array_equal(model.final_metric.matrix, np.eye(16))

    def test_byte_identical_refits(self, workspace, capsys):
        common = [
            "fit", "--features", str(workspace / "f.csv"),
            "--pairs", str(workspace / "p.csv"), "--cascade", "--stages", "2",
            "--seed", "5",
        ]
        run(capsys, *common, "--model", str(workspace / "a.ecml"))
        run(capsys, *common, "--model", str(workspace / "b.ecml"))
        assert (workspace / "a.ecml").read_bytes() == (workspace / "b.ecml").read_bytes()

    def test_reports_clamped_counts_per_stage(self, workspace, capsys):
        code, out, err = run(
            capsys,
            "fit", "--features", str(workspace / "f.csv"),
            "--pairs", str(workspace / "p.csv"),
            "--model", str(workspace / "m.ecml"),
            "--cascade", "--stages", "2", "--seed", "5",
        )
        assert code == 0
        assert "stage 0: groups=4" in out and "clamped=" in out
        # timing lines go to the diagnostics stream as phase,seconds
        assert any(line.startswith("fit,") for line in err.splitlines())
        assert "fit," not in out

    def test_fit_budget_on_medium_problem(self, tmp_path, capsys):
        run(
            capsys,
            "synth", "--ids", "20", "--samples-per-id", "20", "--dim", "64",
            "--seed", "0", "--count", "2000",
            "--features", str(tmp_path / "f.csv"),
            "--labels", str(tmp_path / "l.csv"), "--pairs", str(tmp_path / "p.csv"),
        )
        start = time.perf_counter()
        code, _, _ = run(
            capsys,
            "fit", "--features", str(tmp_path / "f.csv"),
            "--pairs", str(tmp_path / "p.csv"), "--model", str(tmp_path / "m.ecml"),
            "--cascade", "--stages", "3", "--seed", "0",
        )
        assert code == 0
        assert time.perf_counter() - start < 10.0

    def test_pca_embedded_in_model(self, workspace, capsys):
        model_path = workspace / "mp.ecml"
        code, _, _ = run(
            capsys,
            "fit", "--features", str(workspace / "f.csv"),
            "--pairs", str(workspace / "p.csv"), "--model", str(model_path),
            "--pca-dim", "8", "--seed", "2",
        )
        assert code == 0
        model, pca = ecml.load_model(model_path)
        assert pca is not None and pca.k == 8 and model.input_dim == 8

    def test_config_file_precedence(self, workspace, capsys):
        cfg = workspace / "cfg.json"
        cfg.write_text(json.dumps({
            "features": str(workspace / "f.csv"),
            "pairs": str(workspace / "p.csv"),
            "model": str(workspace / "c.ecml"),
            "lambda": 0.9,
            "seed": 3,
        }))
        code, _, _ = run(capsys, "fit", "--config", str(cfg), "--lambda", "0.2")
        assert code == 0
        model, _ = ecml.load_model(workspace / "c.ecml")
        # flag wins over config file
        assert model.final_metric.lam == 0.2
        assert model.seed == 3

    # a 401-digit integer is a JSON number, but no float holds it
    @pytest.mark.parametrize(
        "bad", [{"stages": "three"}, {"cascade": "no"}, {"seed": 1.5}, {"lambda": 10**400}]
    )
    def test_config_value_of_wrong_type(self, workspace, capsys, bad):
        cfg = workspace / "bad.json"
        cfg.write_text(json.dumps(bad))
        code, _, err = run(
            capsys, "fit", "--config", str(cfg), "--features", str(workspace / "f.csv"),
            "--pairs", str(workspace / "p.csv"), "--model", str(workspace / "bad.ecml"),
        )
        assert code == 2 and repr(next(iter(bad))) in err
        assert not (workspace / "bad.ecml").exists()

    def test_seed_beyond_model_format(self, workspace, capsys):
        def fit(seed, name):
            return run(
                capsys, "fit", "--features", str(workspace / "f.csv"),
                "--pairs", str(workspace / "p.csv"), "--model", str(workspace / name),
                "--seed", str(seed),
            )

        code, _, err = fit(2**64, "over.ecml")
        assert code == 2 and "seed" in err
        assert fit(2**64 - 1, "max.ecml")[0] == 0
        model, _ = ecml.load_model(workspace / "max.ecml")
        assert model.seed == 2**64 - 1
        with pytest.raises(ecml.ValidationError):
            dataclasses.replace(model, seed=2**64)

    def test_more_groups_than_dimensions_exit_code(self, workspace, capsys):
        # 2**64 stage-0 groups for 16 dimensions
        code, _, err = run(
            capsys, "fit", "--features", str(workspace / "f.csv"),
            "--pairs", str(workspace / "p.csv"), "--model", str(workspace / "x.ecml"),
            "--cascade", "--stages", "64",
        )
        assert code == 2 and "64 stages" in err
        assert not (workspace / "x.ecml").exists()

    @pytest.mark.parametrize("flags", [["--stages", "4"], ["--pca-dim", "8", "--stages", "3"]])
    def test_rmml_fits_one_wide_groups(self, workspace, capsys, flags):
        # 16 raw or 8 PCA dimensions split into 16 or 8 stage-0 groups of width 1;
        # the zero contrast of a 1-wide group gives it M = I
        code, out, _ = run(
            capsys, "fit", "--features", str(workspace / "f.csv"),
            "--pairs", str(workspace / "p.csv"), "--model", str(workspace / "x.ecml"),
            "--cascade", *flags, "--learner", "rmml",
        )
        groups = 2 ** int(flags[-1])
        assert code == 0 and f"stage 0: groups={groups} group_dim=1" in out
        assert (workspace / "x.ecml").exists()

    def test_kissme_fits_one_wide_groups(self, workspace, capsys):
        code, out, _ = run(
            capsys, "fit", "--features", str(workspace / "f.csv"),
            "--pairs", str(workspace / "p.csv"), "--model", str(workspace / "k.ecml"),
            "--cascade", "--pca-dim", "2", "--stages", "1", "--learner", "kissme",
        )
        assert code == 0 and "groups=2 group_dim=1" in out

    def test_missing_features_flag(self, workspace, capsys):
        code, _, err = run(
            capsys, "fit", "--pairs", str(workspace / "p.csv"),
            "--model", str(workspace / "x.ecml"),
        )
        assert code == 2 and "--features" in err

    def test_missing_file_exit_code(self, workspace, capsys):
        code, _, err = run(
            capsys,
            "fit", "--features", str(workspace / "nope.csv"),
            "--pairs", str(workspace / "p.csv"), "--model", str(workspace / "x.ecml"),
        )
        assert code == 2

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        # few pairs in higher dim: kissme covariances are rank deficient
        run(
            capsys,
            "synth", "--ids", "6", "--samples-per-id", "4", "--dim", "24",
            "--seed", "1", "--count", "12",
            "--features", str(tmp_path / "f.csv"),
            "--labels", str(tmp_path / "l.csv"), "--pairs", str(tmp_path / "p.csv"),
        )
        code, _, err = run(
            capsys,
            "fit", "--features", str(tmp_path / "f.csv"),
            "--pairs", str(tmp_path / "p.csv"), "--model", str(tmp_path / "m.ecml"),
            "--learner", "kissme",
        )
        assert code == 3
        assert "covariance" in err


class TestConfigContract:
    """How a --config file combines with flags and built-in defaults."""

    def fit_with_config(self, workspace, capsys, config, *flags):
        cfg = workspace / "cfg.json"
        cfg.write_text(json.dumps({
            "features": str(workspace / "f.csv"),
            "pairs": str(workspace / "p.csv"),
            "model": str(workspace / "c.ecml"),
            **config,
        }))
        code, out, err = run(capsys, "fit", "--config", str(cfg), *flags)
        assert code == 0, err
        model, _ = ecml.load_model(workspace / "c.ecml")
        return model.final_metric.lam, model.seed, model.stage_count

    @pytest.mark.parametrize("config, flags, expected", [
        # a JSON null counts as not set
        ({"lambda": None, "seed": None, "cascade": None}, [], (0.5, 0, 0)),
        # keys of other subcommands are accepted and ignored
        ({"bins": 7, "ids": 3, "output": "unused.csv"}, [], (0.5, 0, 0)),
        ({"cascade": True, "stages": 2, "seed": 4}, [], (0.1, 4, 2)),
        # a flag beats the file, also to switch a boolean off
        ({"cascade": True, "stages": 2}, ["--no-cascade"], (0.5, 0, 0)),
        ({"lambda": 1}, ["--seed", "6"], (1.0, 6, 0)),
    ], ids=["null", "foreign-keys", "cascade", "no-cascade-flag", "flag-and-file"])
    def test_fit_config(self, workspace, capsys, config, flags, expected):
        assert self.fit_with_config(workspace, capsys, config, *flags) == expected

    @pytest.mark.parametrize("as_list", [False, True])
    def test_eval_model_from_config(self, workspace, capsys, as_list):
        model = str(workspace / "m.ecml")
        run(
            capsys, "fit", "--features", str(workspace / "f.csv"),
            "--pairs", str(workspace / "p.csv"), "--model", model,
        )
        data = ["--features", str(workspace / "f.csv"), "--pairs", str(workspace / "p.csv")]
        code, expected, _ = run(capsys, "eval", "--model", model, *data)
        assert code == 0
        cfg = workspace / "cfg.json"
        cfg.write_text(json.dumps({"model": [model] if as_list else model}))
        code, out, err = run(capsys, "eval", "--config", str(cfg), *data)
        assert code == 0, err
        assert out == expected

    @pytest.mark.parametrize("flags, option", [
        (["--cascade", "--stages", "0"], "stage"),
        (["--stages", "-1"], "stage"),
        (["--lambda", "-1"], "lambda"),
        (["--learner", "kissme", "--lambda", "-1"], "lambda"),
        (["--lambda", "nan"], "lambda"),
        (["--lambda", "inf"], "lambda"),
        (["--pca-dim", "0"], "pca"),
        (["--seed", "-1"], "seed"),
    ], ids=[
        "cascade-stages-0", "stages-neg", "lambda-neg", "kissme-lambda-neg", "lambda-nan",
        "lambda-inf", "pca-dim-0", "seed-neg",
    ])
    def test_rejected_fit_value(self, workspace, capsys, flags, option):
        code, _, err = run(
            capsys, "fit", "--features", str(workspace / "f.csv"),
            "--pairs", str(workspace / "p.csv"), "--model", str(workspace / "x.ecml"), *flags,
        )
        assert code == 2 and option in err
        assert not (workspace / "x.ecml").exists()


@pytest.mark.parametrize("argv", [
    ["fit", "--features", "{w}/f.csv", "--pairs", "{w}/p.csv", "--model", "{out}"],
    ["eval", "--model", "{w}/m.ecml", "--features", "{w}/f.csv", "--pairs", "{w}/p.csv",
     "--report", "{out}"],
    ["transform", "--model", "{w}/m.ecml", "--features", "{w}/f.csv", "--output", "{out}"],
    ["synth", "--features", "{out}", "--labels", "{w}/l2.csv", "--pairs", "{w}/p2.csv"],
    ["synth", "--features", "{w}/f2.csv", "--labels", "{out}", "--pairs", "{w}/p2.csv"],
], ids=["fit-model", "eval-report", "transform-output", "synth-features", "synth-labels"])
def test_unwritable_output_exit_code(workspace, capsys, argv):
    run(
        capsys, "fit", "--features", str(workspace / "f.csv"),
        "--pairs", str(workspace / "p.csv"), "--model", str(workspace / "m.ecml"),
    )
    out = workspace / "missing" / "x"
    if argv[0] == "synth":
        argv = [*argv, "--ids", "4", "--samples-per-id", "4", "--dim", "4", "--count", "20"]
    code, _, err = run(capsys, *(a.format(w=workspace, out=out) for a in argv))
    assert code == 2 and f"{out}: cannot write file" in err


@pytest.mark.parametrize("bad", ["features", "labels", "pairs"])
def test_failed_synth_leaves_no_output(tmp_path, capsys, bad):
    paths = {name: tmp_path / f"{name}.csv" for name in ("features", "labels", "pairs")}
    paths[bad] = tmp_path / "missing" / "x"
    code, _, err = run(
        capsys, "synth", "--ids", "4", "--samples-per-id", "4", "--dim", "4", "--count", "20",
        *(arg for name, path in paths.items() for arg in (f"--{name}", str(path))),
    )
    assert code == 2 and f"{paths[bad]}: cannot write file" in err
    assert list(tmp_path.iterdir()) == []


class TestEval:
    def fit_model(self, workspace, capsys, name="m.ecml", *extra):
        run(
            capsys,
            "fit", "--features", str(workspace / "f.csv"),
            "--pairs", str(workspace / "p.csv"), "--model", str(workspace / name),
            *extra,
        )
        return workspace / name

    def test_separated_clusters_zero_eer(self, tmp_path, capsys):
        run(
            capsys,
            "synth", "--ids", "6", "--samples-per-id", "8", "--dim", "8",
            "--intra-spread", "0.05", "--inter-spread", "5.0",
            "--seed", "2", "--count", "200",
            "--features", str(tmp_path / "f.csv"),
            "--labels", str(tmp_path / "l.csv"), "--pairs", str(tmp_path / "p.csv"),
        )
        run(
            capsys,
            "fit", "--features", str(tmp_path / "f.csv"),
            "--pairs", str(tmp_path / "p.csv"), "--model", str(tmp_path / "m.ecml"),
            "--lambda", "0",
        )
        code, out, _ = run(
            capsys,
            "eval", "--model", str(tmp_path / "m.ecml"),
            "--features", str(tmp_path / "f.csv"), "--pairs", str(tmp_path / "p.csv"),
        )
        assert code == 0 and "eer=0.0" in out

    def test_eval_read_only_and_stable(self, workspace, capsys):
        model = self.fit_model(workspace, capsys)
        args = [
            "eval", "--model", str(model),
            "--features", str(workspace / "f.csv"), "--pairs", str(workspace / "p.csv"),
            "--report", str(workspace / "rep.txt"),
        ]
        code, out1, _ = run(capsys, *args)
        rep1 = (workspace / "rep.txt").read_bytes()
        code, out2, _ = run(capsys, *args)
        rep2 = (workspace / "rep.txt").read_bytes()
        assert code == 0 and out1 == out2 and rep1 == rep2
        report = ecml.load_report(workspace / "rep.txt")
        assert 0.0 <= report.eer <= 1.0

    def test_multi_model_mean_std(self, workspace, capsys):
        paths = []
        for seed in range(3):
            paths.append(str(self.fit_model(
                workspace, capsys, f"m{seed}.ecml",
                "--cascade", "--stages", "2", "--seed", str(seed),
            )))
        code, out, _ = run(
            capsys,
            "eval", "--model", *paths,
            "--features", str(workspace / "f.csv"), "--pairs", str(workspace / "p.csv"),
        )
        assert code == 0
        assert "eer_mean=" in out and "eer_std=" in out
        assert "model_2_eer=" in out

    def test_bad_bins_rejected_before_loading(self, workspace, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("an input was read before --bins was checked")

        for reader in ("load_features", "load_pairs", "FeatureFile"):
            monkeypatch.setattr(ecml.cli.feat, reader, never)
        for fmt in ("csv", "raw-binary"):
            code, _, err = run(
                capsys,
                "eval", "--model", str(workspace / "m.ecml"), "--bins", "0", "--format", fmt,
                "--features", str(workspace / "f.csv"), "--pairs", str(workspace / "p.csv"),
            )
            assert code == 2 and "bins must be an integer >= 1" in err

    @pytest.mark.parametrize(
        "stages", [[], ["--cascade", "--stages", "1"]], ids=["plain", "cascade"]
    )
    def test_wrong_feature_width_exit_code(self, tmp_path, capsys, stages):
        f, l, p = tmp_path / "f.csv", tmp_path / "l.csv", tmp_path / "p.csv"
        run(
            capsys,
            "synth", "--ids", "6", "--samples-per-id", "8", "--dim", "8",
            "--seed", "2", "--count", "200",
            "--features", str(f), "--labels", str(l), "--pairs", str(p),
        )
        run(capsys, "fit", "--features", str(f), "--pairs", str(p),
            "--model", str(tmp_path / "m.ecml"), *stages)
        data = ecml.load_features(f).data
        ecml.save_features(ecml.FeatureMatrix(np.hstack([data, data[:, :1]])), tmp_path / "w.csv")
        code, _, err = run(
            capsys,
            "eval", "--model", str(tmp_path / "m.ecml"),
            "--features", str(tmp_path / "w.csv"), "--pairs", str(p),
        )
        assert code == 2
        assert err.splitlines()[-1] == "error: feature dim 9 does not match model input dim 8"

    def test_corrupt_model_exit_code(self, workspace, capsys):
        bad = workspace / "bad.ecml"
        bad.write_bytes(b"not a model")
        code, _, err = run(
            capsys,
            "eval", "--model", str(bad),
            "--features", str(workspace / "f.csv"), "--pairs", str(workspace / "p.csv"),
        )
        assert code == 2 and "magic" in err

    def test_huge_projection_entries_load_and_eval(self, workspace, capsys):
        # P @ P.T of these entries overflows to inf; no gram check may run on load
        path = self.fit_model(workspace, capsys, "m.ecml", "--cascade", "--stages", "1")
        model, _ = ecml.load_model(path)
        stage = model.stages[0]
        offset = 12 + len(model.learner) + struct.calcsize("<ddQII") + 8 + 4 * stage.width
        blob = bytearray(path.read_bytes())
        huge = np.full(stage.group_dim**2, 1e300, dtype="<f8").tobytes()
        blob[offset : offset + len(huge)] = huge
        path.write_bytes(bytes(blob))
        loaded, _ = ecml.load_model(path)
        assert loaded.stages[0].projections[0].p.max() == 1e300
        code, _, _ = run(
            capsys,
            "eval", "--model", str(path),
            "--features", str(workspace / "f.csv"), "--pairs", str(workspace / "p.csv"),
        )
        assert code in (0, 2)

    @pytest.mark.parametrize("header, message", [
        ((0, 8), "a stage needs at least one group"),
        ((2, 0), "group width must be >= 1"),
    ], ids=["no-groups", "zero-width"])
    def test_empty_stage_header_rejected(self, workspace, capsys, header, message):
        path = self.fit_model(workspace, capsys, "m.ecml", "--cascade", "--stages", "1")
        model, _ = ecml.load_model(path)
        offset = 12 + len(model.learner) + struct.calcsize("<ddQII")
        blob = bytearray(path.read_bytes())
        blob[offset : offset + 8] = struct.pack("<II", *header)
        path.write_bytes(bytes(blob))
        with pytest.raises(ecml.ValidationError, match=message):
            ecml.load_model(path)
        code, _, err = run(
            capsys,
            "eval", "--model", str(path),
            "--features", str(workspace / "f.csv"), "--pairs", str(workspace / "p.csv"),
        )
        assert code == 2 and err.splitlines()[-1] == f"error: {path}: {message}"

    def test_huge_stage_group_count_exits_fast(self, workspace):
        # a 56-byte model declaring 2**32 - 1 empty groups; reading them one
        # by one until the file ran out would take hours, so a child is timed
        path = workspace / "groups.ecml"
        path.write_bytes(
            b"ECML" + struct.pack("<II", 1, 4) + b"rmml"
            + struct.pack("<ddQIIII", 0.1, 1.0, 0, 16, 1, 2**32 - 1, 0)
        )
        out = run_python(
            "-m", "ecml.cli", "eval", "--model", str(path),
            "--features", str(workspace / "f.csv"), "--pairs", str(workspace / "p.csv"),
            timeout=20, check=False,
        )
        assert out.returncode == 2
        assert out.stderr.splitlines()[-1] == (
            f"error: {path}: truncated model file: need {56 + 4 * (2**32 - 1)} bytes "
            f"through stage 0 groups, file has 56"
        )


@pytest.fixture(scope="module")
def streamed(tmp_path_factory):
    """One data set as raw-binary and CSV features, held-out pairs and three fitted models."""
    work = tmp_path_factory.mktemp("streamed")
    f, l, p = work / "f.bin", work / "l.csv", work / "train.csv"
    assert cli.main([
        "synth", "--ids", "30", "--samples-per-id", "12", "--dim", "16",
        "--inter-spread", "1.0", "--seed", "7", "--count", "600", "--format", "raw-binary",
        "--features", str(f), "--labels", str(l), "--pairs", str(p),
    ]) == 0
    feats = ecml.load_features(f, "raw-binary")
    ecml.save_features(feats, work / "f.csv")
    assert cli.main(["pairs", "--labels", str(l), "--count", "400", "--seed", "8",
                     "--pairs", str(work / "p.csv")]) == 0
    # ROW_BLOCK + 1 referenced rows, one past a block
    labels = ecml.load_labels(l)
    rows = np.arange(ROW_BLOCK + 1) + 50
    ecml.save_pairs(ecml.PairSet(rows, np.roll(rows, -1), labels[rows] == labels[np.roll(rows, -1)]),
                    work / "p-past-block.csv")
    for name, flags in {
        "plain": [],
        "kissme-pca": ["--learner", "kissme", "--pca-dim", "8"],
        "cascade-pca": ["--cascade", "--stages", "1", "--pca-dim", "8"],
    }.items():
        assert cli.main(["fit", "--features", str(work / "f.csv"), "--pairs", str(p),
                         "--model", str(work / f"{name}.ecml"), *flags]) == 0
    return work


def _reference_report(work, model_name, pairs_name):
    """The report of the whole matrix, projected through PCA, scored by ``reference_scores``."""
    model, pca = ecml.load_model(work / f"{model_name}.ecml")
    feats = ecml.load_features(work / "f.csv")
    x = (ecml.apply_pca(pca, feats) if pca is not None else feats).data
    pairs = ecml.load_pairs(work / pairs_name)
    scores = reference_scores(model, x, pairs.i, pairs.j)
    return ecml.build_report(ecml.ScoredPairs(scores, pairs.y))


class TestRawBinaryEval:
    """``eval --format raw-binary`` reads only the rows the pairs reference, as it streams the file."""

    def eval(self, capsys, work, features, pairs, *models, fmt="raw-binary", report=None):
        argv = ["eval", "--model", *(str(work / f"{m}.ecml") for m in models),
                "--features", str(work / features), "--pairs", str(work / pairs), "--format", fmt]
        if report is not None:
            argv += ["--report", str(work / report)]
        return run(capsys, *argv)

    @pytest.mark.parametrize("model, pairs", [
        ("plain", "p.csv"),
        ("kissme-pca", "p.csv"),
        ("cascade-pca", "p.csv"),
        ("cascade-pca", "p-past-block.csv"),
    ], ids=["stage-free", "pca-kissme", "pca-cascade", "rows-one-past-block"])
    def test_report_bytes_match_csv_and_whole_matrix(self, streamed, capsys, model, pairs):
        tag = f"{model}-{pairs}"
        for fmt, features in (("raw-binary", "f.bin"), ("csv", "f.csv")):
            code, _, _ = self.eval(capsys, streamed, features, pairs, model, fmt=fmt,
                                   report=f"{tag}-{fmt}.txt")
            assert code == 0
        ecml.save_report(_reference_report(streamed, model, pairs), streamed / f"{tag}-ref.txt",
                         roc_path=streamed / f"{tag}-ref.txt.roc.csv")
        for suffix in ("", ".roc.csv"):
            want = (streamed / f"{tag}-ref.txt{suffix}").read_bytes()
            for fmt in ("raw-binary", "csv"):
                assert (streamed / f"{tag}-{fmt}.txt{suffix}").read_bytes() == want

    def test_rows_one_past_block(self, streamed):
        pairs = ecml.load_pairs(streamed / "p-past-block.csv")
        assert np.unique(np.concatenate([pairs.i, pairs.j])).size == ROW_BLOCK + 1

    def test_three_models(self, streamed, capsys):
        models = ("plain", "kissme-pca", "cascade-pca")
        outs = []
        for fmt, features in (("raw-binary", "f.bin"), ("csv", "f.csv")):
            code, out, _ = self.eval(capsys, streamed, features, "p.csv", *models, fmt=fmt,
                                     report=f"three-{fmt}.txt")
            assert code == 0
            outs.append((out, (streamed / f"three-{fmt}.txt").read_text()))
        refs = [_reference_report(streamed, m, "p.csv") for m in models]
        eers = np.asarray([r.eer for r in refs])
        want = []
        for k, (m, r) in enumerate(zip(models, refs)):
            want += [f"model_{k}_path={streamed / m}.ecml", f"model_{k}_eer={r.eer!r}",
                     f"model_{k}_kl={r.kl_pos_neg!r}"]
        want += [f"eer_mean={float(eers.mean())!r}", f"eer_std={float(eers.std(ddof=1))!r}"]
        want = "\n".join(want) + "\n"
        assert outs == [(want, want), (want, want)]

    @staticmethod
    def write_raw(path, data):
        # written by hand: save_features refuses non-finite values
        path.write_bytes(b"CMF1" + struct.pack("<QQ", *data.shape) + data.astype("<f8").tobytes())

    @pytest.mark.parametrize("fault", [
        "nan-unreferenced", "truncated", "bad-magic", "pair-out-of-range", "width-pca",
        "width-model",
    ])
    def test_faults_exit_2_with_message(self, streamed, capsys, fault):
        blob = (streamed / "f.bin").read_bytes()
        data = ecml.load_features(streamed / "f.bin", "raw-binary").data.copy()
        bad, pairs, model = streamed / f"{fault}.bin", "p.csv", "cascade-pca"
        if fault == "nan-unreferenced":
            held = ecml.load_pairs(streamed / "p.csv")
            row = int(np.setdiff1d(np.arange(data.shape[0]), np.r_[held.i, held.j])[-1])
            data[row, 5] = np.nan
            self.write_raw(bad, data)
            message = f"non-finite feature value at row {row}, column 5"
        elif fault == "truncated":
            bad.write_bytes(blob[:-5])
            message = f"{bad}: expected {len(blob)} bytes for 360x16 features, found {len(blob) - 5}"
        elif fault == "bad-magic":
            bad.write_bytes(b"NOPE" + blob[4:])
            message = f"{bad}: bad magic b'NOPE', expected b'CMF1'"
        elif fault == "pair-out-of-range":
            bad.write_bytes(blob)
            pairs = "p-out.csv"
            text = (streamed / "p.csv").read_text()
            (streamed / pairs).write_text(text + "3,360,0\n")
            message = "pair index 360 out of range for 360 samples"
        else:
            self.write_raw(bad, np.hstack([data, data[:, :1]]))
            if fault == "width-pca":
                message = "feature dim 17 does not match PCA input dim 16"
            else:
                model = "plain"
                message = "feature dim 17 does not match model input dim 16"
        code, _, err = self.eval(capsys, streamed, bad.name, pairs, model)
        assert code == 2 and err.splitlines()[-1] == f"error: {message}"

    def test_pair_range_reported_before_a_non_finite_value(self, streamed, capsys):
        # the range is checked against the header; values only as rows are read
        data = ecml.load_features(streamed / "f.bin", "raw-binary").data.copy()
        data[0, 0] = np.inf
        self.write_raw(streamed / "inf.bin", data)
        (streamed / "p-far.csv").write_text((streamed / "p.csv").read_text() + "3,400,0\n")
        code, _, err = self.eval(capsys, streamed, "inf.bin", "p-far.csv", "plain")
        assert code == 2
        assert err.splitlines()[-1] == "error: pair index 400 out of range for 360 samples"


    def test_file_rewritten_between_models(self, streamed, capsys, monkeypatch):
        # same shape, same inode, new modification time: the first model's
        # scores must not be reported beside the second's on other rows
        path = streamed / "rewritten.bin"
        path.write_bytes((streamed / "f.bin").read_bytes())
        data = ecml.load_features(path, "raw-binary").data
        load_model = cli.casc.load_model
        loaded = []

        def rewrite_after_first(model_path):
            if loaded:
                before = path.stat()
                ecml.save_features(ecml.FeatureMatrix(data[::-1]), path, "raw-binary")
                os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns + 1000))
            loaded.append(model_path)
            return load_model(model_path)

        monkeypatch.setattr(cli.casc, "load_model", rewrite_after_first)
        code, out, err = self.eval(capsys, streamed, path.name, "p.csv", "plain", "kissme-pca")
        assert len(loaded) == 2 and code == 2 and out == ""
        assert err.splitlines()[-1] == f"error: {path}: feature file changed while being read"


@pytest.fixture(scope="module")
def huge(tmp_path_factory):
    """Raw-binary features, the same scaled by 1e160 (finite, so valid), training pairs, and
    a plain and a ``--pca-dim 4`` model fitted on the unscaled features."""
    work = tmp_path_factory.mktemp("huge")
    f = work / "f.bin"
    assert cli.main([
        "synth", "--ids", "30", "--samples-per-id", "12", "--dim", "16",
        "--inter-spread", "1.0", "--seed", "7", "--count", "600", "--format", "raw-binary",
        "--features", str(f), "--labels", str(work / "l.csv"), "--pairs", str(work / "p.csv"),
    ]) == 0
    scaled = ecml.FeatureMatrix(ecml.load_features(f, "raw-binary").data * 1e160)
    ecml.save_features(scaled, work / "big.bin", "raw-binary")
    for name, flags in (("plain", []), ("pca", ["--pca-dim", "4"])):
        assert cli.main(["fit", "--features", str(f), "--format", "raw-binary", "--pairs",
                         str(work / "p.csv"), "--model", str(work / f"{name}.ecml"), *flags]) == 0
    return work


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("argv, overflowed", [
    (["fit"], "matched difference sums"),
    (["fit", "--cascade", "--stages", "2"],
     "stage 0: ensemble group 0 of 4: matched difference sums"),
    (["fit", "--learner", "kissme"], "matched difference sums"),
    (["fit", "--pca-dim", "4"], "feature covariance"),
    (["eval", "--model", "plain.ecml"], "pair scores"),
    (["eval", "--model", "pca.ecml"], "pair scores"),
], ids=["fit", "fit-cascade", "fit-kissme", "fit-pca", "eval", "eval-pca"])
def test_computed_overflow_is_numerical(huge, capsys, argv, overflowed):
    # valid features whose squares pass the float range: a numerical failure naming what
    # overflowed, not an input error
    command, *flags = argv
    if command == "fit":
        flags += ["--model", "out.ecml"]
    flags = [str(huge / flag) if flag.endswith(".ecml") else flag for flag in flags]
    code, _, err = run(capsys, command, "--features", str(huge / "big.bin"), "--format",
                       "raw-binary", "--pairs", str(huge / "p.csv"), *flags)
    assert code == 3 and not any(line.startswith("error:") for line in err.splitlines())
    assert f"numerical failure: {overflowed} overflowed: entry [" in err


class TestRawBinaryFit:
    """``fit --pca-dim --format raw-binary`` reads the file in fit_pca and again in apply_pca."""

    @staticmethod
    def data_set(work, n):
        """``n`` rows of 16-dim features as raw binary and CSV, and training pairs."""
        feats, labels = ecml.gen_synthetic(30, 20, 16, 1.0, 1.0, seed=n)
        feats = ecml.FeatureMatrix(feats.data[:n])
        ecml.save_features(feats, work / "f.bin", "raw-binary")
        ecml.save_features(feats, work / "f.csv")
        ecml.save_pairs(ecml.sample_pairs(labels[:n], 500, 0.5, seed=n), work / "p.csv")

    def fit(self, capsys, work, features, *flags, fmt="raw-binary", pairs="p.csv",
            pca=("--pca-dim", "8")):
        return run(capsys, "fit", "--features", str(work / features), "--format", fmt,
                   "--pairs", str(work / pairs), "--model", str(work / f"{features}.ecml"),
                   *pca, *flags)

    @pytest.mark.parametrize("n, flags", [
        (360, ["--learner", "kissme"]),
        (257, ["--learner", "kissme"]),
        (513, ["--cascade", "--stages", "1"]),
    ], ids=["kissme", "kissme-257-rows", "cascade-513-rows"])
    def test_model_bytes_match_csv(self, tmp_path, capsys, monkeypatch, n, flags):
        # 257 and 513 rows leave a 1-row remainder, projected with the block before it
        self.data_set(tmp_path, n)
        assert self.fit(capsys, tmp_path, "f.csv", *flags, fmt="csv")[0] == 0

        def load_features(path, fmt="csv"):
            raise AssertionError("the raw-binary fit loaded the whole file")

        monkeypatch.setattr(cli.feat, "load_features", load_features)
        assert self.fit(capsys, tmp_path, "f.bin", *flags)[0] == 0
        assert (tmp_path / "f.bin.ecml").read_bytes() == (tmp_path / "f.csv.ecml").read_bytes()

    @pytest.mark.parametrize("fault", ["nan", "nan-and-bad-pairs", "nan-and-bad-pca-dim",
                                       "nan-and-pair-out-of-range"])
    def test_fault_order(self, tmp_path, capsys, fault):
        self.data_set(tmp_path, 360)
        data = ecml.load_features(tmp_path / "f.bin", "raw-binary").data.copy()
        data[359, 15] = np.nan
        TestRawBinaryEval.write_raw(tmp_path / "nan.bin", data)
        flags, pairs = [], "p.csv"
        message = "non-finite feature value at row 359, column 15"
        if fault == "nan-and-bad-pairs":
            pairs = "bad.csv"
            (tmp_path / pairs).write_text("0,1,1\n2,x,0\n")
            message = f"{tmp_path / pairs}: line 1: cannot parse 'x' at row 1, column 1"
        elif fault == "nan-and-bad-pca-dim":
            flags = ["--pca-dim", "17"]
            message = "pca dimension 17 out of range [1, 16] for 360 samples of dim 16"
        elif fault == "nan-and-pair-out-of-range":
            # the pairs are checked against the header's row count
            pairs = "far.csv"
            (tmp_path / pairs).write_text((tmp_path / "p.csv").read_text() + "3,360,0\n")
            message = "pair index 360 out of range for 360 samples"
        # without --pca-dim the rows are read in fit_cascade, after the same checks;
        # the bad-pca-dim fault has no such variant
        for pca in (("--pca-dim", "8"),) + (((),) if not flags else ()):
            code, _, err = self.fit(capsys, tmp_path, "nan.bin", *flags, pairs=pairs, pca=pca)
            assert code == 2 and err.splitlines()[-1] == f"error: {message}"
            assert not (tmp_path / "nan.bin.ecml").exists()

    def test_pair_range_checked_before_pca_fit(self, tmp_path, capsys, monkeypatch):
        self.data_set(tmp_path, 360)
        (tmp_path / "far.csv").write_text((tmp_path / "p.csv").read_text() + "3,360,0\n")

        def never(*args, **kwargs):
            raise AssertionError("fit_pca ran before the pair indices were checked")

        monkeypatch.setattr(cli.feat, "fit_pca", never)
        code, _, err = self.fit(capsys, tmp_path, "f.bin", pairs="far.csv")
        assert code == 2
        assert err.splitlines()[-1] == "error: pair index 360 out of range for 360 samples"

    def test_file_rewritten_between_pca_fit_and_projection(self, tmp_path, capsys, monkeypatch):
        self.data_set(tmp_path, 360)
        path = tmp_path / "f.bin"
        data = ecml.load_features(path, "raw-binary").data
        fit_pca = cli.feat.fit_pca

        def fit_then_rewrite(features, k):
            pca = fit_pca(features, k)
            before = path.stat()
            ecml.save_features(ecml.FeatureMatrix(data * 2.0), path, "raw-binary")
            os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns + 1000))
            return pca

        monkeypatch.setattr(cli.feat, "fit_pca", fit_then_rewrite)
        code, _, err = self.fit(capsys, tmp_path, "f.bin", "--learner", "kissme")
        assert code == 2
        assert err.splitlines()[-1] == f"error: {path}: feature file changed while being read"
        assert not (tmp_path / "f.bin.ecml").exists()


class TestTransform:
    def test_matches_library_transform(self, workspace, capsys):
        run(
            capsys,
            "fit", "--features", str(workspace / "f.csv"),
            "--pairs", str(workspace / "p.csv"), "--model", str(workspace / "m.ecml"),
            "--cascade", "--stages", "2", "--seed", "5",
        )
        code, _, _ = run(
            capsys,
            "transform", "--model", str(workspace / "m.ecml"),
            "--features", str(workspace / "f.csv"),
            "--output", str(workspace / "t.csv"),
        )
        assert code == 0
        model, _ = ecml.load_model(workspace / "m.ecml")
        feats = ecml.load_features(workspace / "f.csv", "csv")
        expected = ecml.transform(model, feats)
        got = ecml.load_features(workspace / "t.csv", "csv")
        assert np.array_equal(got.data, expected.data)

    def test_applies_embedded_pca_first(self, workspace, capsys):
        run(
            capsys,
            "fit", "--features", str(workspace / "f.csv"),
            "--pairs", str(workspace / "p.csv"), "--model", str(workspace / "mp.ecml"),
            "--pca-dim", "8", "--cascade", "--stages", "1", "--seed", "2",
        )
        code, _, _ = run(
            capsys,
            "transform", "--model", str(workspace / "mp.ecml"),
            "--features", str(workspace / "f.csv"),
            "--output", str(workspace / "tp.csv"),
        )
        assert code == 0
        model, pca = ecml.load_model(workspace / "mp.ecml")
        feats = ecml.load_features(workspace / "f.csv", "csv")
        expected = ecml.transform(model, ecml.apply_pca(pca, feats))
        got = ecml.load_features(workspace / "tp.csv", "csv")
        assert np.array_equal(got.data, expected.data)


    @pytest.mark.parametrize("pca", [["--pca-dim", "8"], []], ids=["pca", "no-pca"])
    def test_raw_binary_input_streams_through_pca(self, workspace, capsys, monkeypatch, pca):
        run(
            capsys,
            "fit", "--features", str(workspace / "f.csv"),
            "--pairs", str(workspace / "p.csv"), "--model", str(workspace / "mp.ecml"),
            *pca, "--cascade", "--stages", "1", "--seed", "2",
        )
        ecml.save_features(ecml.load_features(workspace / "f.csv"), workspace / "f.bin",
                           "raw-binary")
        code, _, _ = run(
            capsys,
            "transform", "--model", str(workspace / "mp.ecml"),
            "--features", str(workspace / "f.csv"), "--output", str(workspace / "t.csv"),
        )
        assert code == 0

        def load_features(path, fmt="csv"):
            raise AssertionError("transform loaded the whole raw-binary file")

        monkeypatch.setattr(cli.feat, "load_features", load_features)
        code, _, _ = run(
            capsys,
            "transform", "--model", str(workspace / "mp.ecml"), "--format", "raw-binary",
            "--features", str(workspace / "f.bin"), "--output", str(workspace / "t.bin"),
        )
        assert code == 0
        monkeypatch.undo()
        ecml.save_features(ecml.load_features(workspace / "t.bin", "raw-binary"),
                           workspace / "t-from-bin.csv")
        assert (workspace / "t-from-bin.csv").read_bytes() == (workspace / "t.csv").read_bytes()


class TestInspect:
    def test_cascade_summary(self, workspace, capsys):
        run(
            capsys,
            "fit", "--features", str(workspace / "f.csv"),
            "--pairs", str(workspace / "p.csv"), "--model", str(workspace / "m3.ecml"),
            "--cascade", "--stages", "3", "--seed", "5",
        )
        code, out, _ = run(capsys, "inspect", "--model", str(workspace / "m3.ecml"))
        assert code == 0
        assert "group counts: 8,4,2" in out
        assert "learner: rmml" in out
        assert "rho:" in out

    def test_plain_model_reports_zero_stages(self, workspace, capsys):
        run(
            capsys,
            "fit", "--features", str(workspace / "f.csv"),
            "--pairs", str(workspace / "p.csv"), "--model", str(workspace / "m0.ecml"),
        )
        code, out, _ = run(capsys, "inspect", "--model", str(workspace / "m0.ecml"))
        assert code == 0 and "stages: 0" in out

    def test_truncated_model_errors(self, workspace, capsys):
        run(
            capsys,
            "fit", "--features", str(workspace / "f.csv"),
            "--pairs", str(workspace / "p.csv"), "--model", str(workspace / "mt.ecml"),
        )
        blob = (workspace / "mt.ecml").read_bytes()
        (workspace / "mt.ecml").write_bytes(blob[:-7])
        code, _, err = run(capsys, "inspect", "--model", str(workspace / "mt.ecml"))
        assert code == 2 and "truncated" in err

    @pytest.mark.parametrize("damage", ["truncated", "trailing", "directory"])
    def test_unloadable_model_exit_code_and_message(self, workspace, capsys, damage):
        path = workspace / "md.ecml"
        run(
            capsys,
            "fit", "--features", str(workspace / "f.csv"),
            "--pairs", str(workspace / "p.csv"), "--model", str(path),
        )
        blob = path.read_bytes()
        if damage == "truncated":
            path.write_bytes(blob[:-7])
            # the final metric ends just before the 1-byte pca flag
            message = (
                f"{path}: truncated model file: need {len(blob) - 1} bytes "
                f"through final metric, file has {len(blob) - 7}"
            )
        elif damage == "trailing":
            path.write_bytes(blob + b"xyz")
            message = f"{path}: 3 unexpected trailing bytes after model payload"
        else:
            path = workspace / "dir.ecml"
            path.mkdir()
            message = f"{path}: cannot read file: [Errno 21] Is a directory: '{path}'"
        code, _, err = run(capsys, "inspect", "--model", str(path))
        assert code == 2 and err.splitlines()[-1] == f"error: {message}"

    def test_non_utf8_learner_tag_errors(self, workspace, capsys):
        path = workspace / "mu.ecml"
        run(
            capsys,
            "fit", "--features", str(workspace / "f.csv"),
            "--pairs", str(workspace / "p.csv"), "--model", str(path),
        )
        blob = bytearray(path.read_bytes())
        blob[12:16] = b"\xff\xfe\xfd\xfc"  # the 4-byte tag "rmml"
        path.write_bytes(bytes(blob))
        code, _, err = run(capsys, "inspect", "--model", str(path))
        assert code == 2 and "UTF-8" in err

    @pytest.mark.parametrize("offset, name, value", [
        (16, "lambda", -1.0), (16, "lambda", float("inf")),
        (24, "rho", -3.0), (24, "rho", float("inf")),
    ], ids=["lambda-negative", "lambda-inf", "rho-negative", "rho-inf"])
    def test_corrupt_lambda_or_rho_header_fails_closed(
        self, workspace, capsys, offset, name, value
    ):
        path = workspace / "mh.ecml"
        run(
            capsys,
            "fit", "--features", str(workspace / "f.csv"),
            "--pairs", str(workspace / "p.csv"), "--model", str(path),
        )
        blob = bytearray(path.read_bytes())
        # "ECML", u32 version, u32 tag length and the tag "rmml" fill bytes 0-15;
        # f64 lambda and f64 rho follow
        struct.pack_into("<d", blob, offset, value)
        path.write_bytes(bytes(blob))
        message = f"{path}: {name} must be finite and lie in [0, inf], got {value!r}"
        with pytest.raises(ecml.ValidationError) as info:
            ecml.load_model(path)
        assert str(info.value) == message
        code, _, err = run(capsys, "inspect", "--model", str(path))
        assert code == 2 and err.splitlines()[-1] == f"error: {message}"


# Fits the 3-stage rmml cascade (seed 0) twice from synthetic raw-binary
# inputs and prints one sha256 line per model file.
_GOLDEN_FIT = """
import hashlib, sys
from pathlib import Path
from ecml import cli

work = Path(sys.argv[1])
f, l, p = work / "f.bin", work / "l.csv", work / "p.csv"
assert cli.main(["synth", *sys.argv[2:], "--format", "raw-binary",
                 "--features", str(f), "--labels", str(l), "--pairs", str(p)]) == 0
for k in (0, 1):
    m = work / f"m{k}.ecml"
    assert cli.main(["fit", "--features", str(f), "--pairs", str(p), "--format", "raw-binary",
                     "--model", str(m), "--cascade", "--stages", "3", "--seed", "0"]) == 0
    print("sha256", hashlib.sha256(m.read_bytes()).hexdigest())
"""


class TestGoldenModelBytes:
    """Model bytes of pinned configurations, fitted in a one-thread OpenBLAS child.

    The hashes hold for numpy 2.4 with its bundled OpenBLAS 0.3.31 on x86-64;
    another BLAS build may round differently.
    """

    def fit_hashes(self, tmp_path, *synth, threads=1):
        out = run_python("-c", _GOLDEN_FIT, str(tmp_path), *synth, threads=threads).stdout
        return [line.split()[1] for line in out.splitlines() if line.startswith("sha256 ")]

    def test_classes_within_one_chunk_keep_earlier_bytes(self, tmp_path):
        # acceptance geometry: 1500 matched + 1500 unmatched pairs, each class
        # below metrics.STATS_CHUNK, so every sum is one product, as unchunked
        hashes = self.fit_hashes(
            tmp_path, "--ids", "50", "--samples-per-id", "20", "--dim", "64",
            "--count", "3000", "--seed", "0",
        )
        assert hashes == ["5ed6cf95d2efdab1823f72d6010438a9afcba383348900c9389b87df9b1f9294"] * 2

    def test_classes_above_one_chunk(self, tmp_path):
        # 3000 + 3000 pairs: each class sums two chunk products
        hashes = self.fit_hashes(
            tmp_path, "--ids", "20", "--samples-per-id", "20", "--dim", "16",
            "--count", "6000", "--seed", "1",
        )
        assert hashes == ["88902763acb0a5e8bb431209faac50499bbf69d5f31cc35ead4def4332a3c7c0"] * 2

    def test_stage_zero_pads_30_to_32(self, tmp_path):
        # 30 input dimensions do not split into 8 groups: stage 0 pads to 32
        hashes = self.fit_hashes(
            tmp_path, "--ids", "40", "--samples-per-id", "10", "--dim", "30",
            "--count", "2400", "--seed", "0",
        )
        assert hashes == ["76bc3c2b9fe47ef1302e36ba41d69697253558ee9373678d00968ffe7b29d255"] * 2

    def test_two_blas_threads_fit_identical_bytes_twice(self, tmp_path):
        # both stats classes call into a two-thread OpenBLAS at once; 3000 + 3000
        # pairs span two chunks per class. No golden hash: bytes may differ
        # from the one-thread fit, but not between repeats.
        hashes = self.fit_hashes(
            tmp_path, "--ids", "20", "--samples-per-id", "20", "--dim", "128",
            "--count", "6000", "--seed", "2", threads=2,
        )
        assert len(hashes) == 2 and hashes[0] == hashes[1]


# Fits PCA to 32 dimensions and then plain kissme twice from synthetic
# raw-binary inputs, printing one sha256 line per model file.
_GOLDEN_PCA_FIT = """
import hashlib, sys
from pathlib import Path
from ecml import cli

work = Path(sys.argv[1])
f, l, p = work / "f.bin", work / "l.csv", work / "p.csv"
assert cli.main(["synth", *sys.argv[2:], "--format", "raw-binary",
                 "--features", str(f), "--labels", str(l), "--pairs", str(p)]) == 0
for k in (0, 1):
    m = work / f"m{k}.ecml"
    assert cli.main(["fit", "--features", str(f), "--pairs", str(p), "--format", "raw-binary",
                     "--model", str(m), "--learner", "kissme", "--no-cascade",
                     "--pca-dim", "32", "--seed", "0"]) == 0
    print("sha256", hashlib.sha256(m.read_bytes()).hexdigest())
"""


class TestGoldenPcaModelBytes:
    """Model bytes of a PCA front end plus plain kissme, fitted in a one-thread OpenBLAS child.

    Same numpy and OpenBLAS caveat as ``TestGoldenModelBytes``.
    """

    def test_pca_then_plain_kissme(self, tmp_path):
        # 27 x 19 = 513 samples: PCA projects them in row blocks, the last of
        # which takes the 1-row remainder
        out = run_python(
            "-c", _GOLDEN_PCA_FIT, str(tmp_path),
            "--ids", "27", "--samples-per-id", "19", "--dim", "64",
            "--count", "3000", "--seed", "0",
        ).stdout
        hashes = [line.split()[1] for line in out.splitlines() if line.startswith("sha256 ")]
        assert hashes == ["a166c6055b58ddaef0af752ba7d60b5134b153bbcd4b666b785cd5d550fca2f7"] * 2


# Runs one ecml command in a fresh interpreter and prints its exit code and
# which of numpy's lazily imported submodules it loaded.
_LOADED_SUBMODULES = """
import sys
from ecml import cli

code = cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print("loaded", code, *sorted(m for m in ("numpy.random", "numpy.ma") if m in sys.modules))
"""


class TestImportHygiene:
    """numpy.random and numpy.ma load on first use; a command needing neither loads neither."""

    def loaded(self, *argv):
        out = run_python("-c", _LOADED_SUBMODULES, *argv, timeout=60).stdout
        code, *modules = out.splitlines()[-1].split()[1:]
        assert code == "0"
        return modules

    def fit_args(self, work, model, *flags):
        return ("fit", "--features", str(work / "f.csv"), "--pairs", str(work / "p.csv"),
                "--model", str(work / model), *flags)

    def test_import_loads_neither(self):
        assert self.loaded() == []

    def test_eval_loads_no_numpy_ma(self, workspace, capsys):
        code, _, _ = run(capsys, *self.fit_args(workspace, "m.ecml", "--cascade", "--stages", "2"))
        assert code == 0
        modules = self.loaded(
            "eval", "--model", str(workspace / "m.ecml"), "--features", str(workspace / "f.csv"),
            "--pairs", str(workspace / "p.csv"), "--report", str(workspace / "rep.txt"),
        )
        assert modules == []

    def test_stage_free_pca_fit_loads_no_numpy_random(self, workspace):
        modules = self.loaded(
            *self.fit_args(workspace, "m.ecml", "--learner", "kissme", "--no-cascade",
                           "--pca-dim", "8")
        )
        assert modules == []

    def test_cascade_fit_loads_numpy_random(self, workspace):
        # the stages draw their shuffles from it: a probe that never saw it
        # load would pass the two tests above vacuously
        modules = self.loaded(*self.fit_args(workspace, "m.ecml", "--cascade", "--stages", "2"))
        assert modules == ["numpy.random"]
