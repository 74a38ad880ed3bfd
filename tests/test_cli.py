"""End-to-end tests of the command-line interface."""

import dataclasses
import json
import os
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import ecml
from ecml import cli


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

    @pytest.mark.parametrize("bad", [{"stages": "three"}, {"cascade": "no"}, {"seed": 1.5}])
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
    def test_rmml_one_wide_groups_rejected_before_fitting(
        self, workspace, capsys, monkeypatch, flags
    ):
        # 16 raw or 8 PCA dimensions split into 16 or 8 stage-0 groups of width 1
        def unreachable(*args):
            raise AssertionError("fitting started")

        monkeypatch.setattr(cli.feat, "fit_pca", unreachable)
        monkeypatch.setattr(cli.casc, "fit_cascade", unreachable)
        code, _, err = run(
            capsys, "fit", "--features", str(workspace / "f.csv"),
            "--pairs", str(workspace / "p.csv"), "--model", str(workspace / "x.ecml"),
            "--cascade", *flags,
        )
        assert code == 2 and "1 wide" in err
        assert not (workspace / "x.ecml").exists()

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
            raise AssertionError("features loaded before --bins was checked")

        monkeypatch.setattr(ecml.cli.feat, "load_features", never)
        code, _, err = run(
            capsys,
            "eval", "--model", str(workspace / "m.ecml"), "--bins", "0",
            "--features", str(workspace / "f.csv"), "--pairs", str(workspace / "p.csv"),
        )
        assert code == 2 and "bins must be >= 1" in err

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
        assert code == 2 and err.splitlines()[-1] == f"error: {message}"


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

    def fit_hashes(self, tmp_path, *synth, threads="1"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        src = str(Path(ecml.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", _GOLDEN_FIT, str(tmp_path), *synth],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        ).stdout
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
            "--count", "6000", "--seed", "2", threads="2",
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
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        src = str(Path(ecml.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", _GOLDEN_PCA_FIT, str(tmp_path),
             "--ids", "27", "--samples-per-id", "19", "--dim", "64",
             "--count", "3000", "--seed", "0"],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        ).stdout
        hashes = [line.split()[1] for line in out.splitlines() if line.startswith("sha256 ")]
        assert hashes == ["a166c6055b58ddaef0af752ba7d60b5134b153bbcd4b666b785cd5d550fca2f7"] * 2
