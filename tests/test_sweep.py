"""Smoke test of ``scripts/sweep.py``: each subcommand runs on a tiny problem."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ecml

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "sweep.py"
_TINY = ["--ids", "10", "--samples-per-id", "10", "--dim", "16",
         "--train-pairs", "200", "--heldout-pairs", "100"]


def run_sweep(command, *args):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    src = str(Path(ecml.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(_SCRIPT), command, *_TINY, *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
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


def test_pca_marks_degenerate_stats_apart_from_singular_covariance():
    # 3 stages at PCA 8 make 1-wide stage-0 groups, on which rmml's stats are
    # degenerate; 3-stage kissme on the raw features meets a singular covariance
    rows = {row.split()[0]: row.split()[1:] for row in run_sweep(
        "pca", "--stages", "3", "--pca-dims", "8"
    )[1:]}
    assert rows["8"][0] == "deg"
    assert rows["raw"][1] == "--"


def test_pca_marks_unfittable_configuration_and_goes_on():
    # 3 stages need at least 2**3 input dimensions, which PCA 4 does not give;
    # the row is marked and the sweep goes on to the next dimension
    rows = {row.split()[0]: row.split()[1:] for row in run_sweep(
        "pca", "--stages", "3", "--pca-dims", "4", "8"
    )[1:]}
    assert rows["4"] == ["n/a"] * 3
    assert rows["8"][0] == "deg"
