"""Smoke test of ``scripts/sweep.py``: each subcommand runs on a tiny problem."""

from pathlib import Path

import pytest

from conftest import run_python

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "sweep.py"
_TINY = ["--ids", "10", "--samples-per-id", "10", "--dim", "16",
         "--train-pairs", "200", "--heldout-pairs", "100"]


def run_sweep(command, *args):
    proc = run_python(str(_SCRIPT), command, *_TINY, *args, check=False)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize("command, extra, header", [
    ("trend", ["--stages", "2"], "seed eer plain eer casc kl plain kl casc"),
    ("stages", ["--max-stages", "2"], "stages train eer heldout eer"),
    ("lambda", ["--stages", "2"], "lambda eer plain eer cascade"),
    ("pca", ["--pca-dims", "8", "4"], "pca dim rmml kissme genuine-baseline"),
], ids=["trend", "stages", "lambda", "pca"])
def test_subcommand_runs(command, extra, header):
    assert run_sweep(command, *extra)[0].split() == header.split()


def test_pca_fits_rmml_on_one_wide_groups_and_marks_singular_covariance():
    # 3 stages at PCA 8 make 1-wide stage-0 groups, on which rmml's contrast
    # is zero and its metric the identity; 3-stage kissme on the raw features
    # meets a singular covariance
    rows = {row.split()[0]: row.split()[1:] for row in run_sweep(
        "pca", "--stages", "3", "--pca-dims", "8"
    )[1:]}
    assert 0.0 <= float(rows["8"][0]) <= 1.0
    assert rows["raw"][1] == "--"


def test_pca_marks_unfittable_configuration_and_goes_on():
    # 3 stages need at least 2**3 input dimensions, which PCA 4 does not give;
    # the row is marked and the sweep goes on to the next dimension
    rows = {row.split()[0]: row.split()[1:] for row in run_sweep(
        "pca", "--stages", "3", "--pca-dims", "4", "8"
    )[1:]}
    assert rows["4"] == ["n/a"] * 3
    assert 0.0 <= float(rows["8"][0]) <= 1.0


@pytest.mark.parametrize("command, extra, count", [
    # 4 stages make 16 stage-0 groups of one column each
    ("stages", ["--max-stages", "4"], 5),
    # at lambda 1.1 and 1.2 clamped stage-0 columns leave a stage-1 group
    # with one live column on seeds 0 and 1
    ("lambda", [], 13),
], ids=["stages", "lambda"])
def test_rmml_sweep_prints_every_row(command, extra, count):
    rows = run_sweep(command, *extra)[1:]
    assert len(rows) == count
    for row in rows:
        assert all(0.0 <= float(v) <= 1.0 for v in row.split()[1:])


def test_trend_marks_a_failed_arm_and_counts_wins_over_paired_seeds():
    # the 2-stage kissme cascade meets a singular covariance on every seed
    out = run_sweep("trend", "--stages", "2", "--learner", "kissme", "--seeds", "2")
    per_seed, mean, std, wins = out[1:3], out[4], out[5], out[6]
    for row in per_seed:
        cells = row.split()
        assert float(cells[1]) >= 0.0 and cells[2] == "--"
        assert float(cells[3]) >= 0.0 and cells[4] == "--"
    assert mean.split()[2] == "--" and std.split()[2] == "--"
    assert wins == "cascade eer <= plain on 0/0 seeds; cascade kl >= plain on 0/0 seeds"
