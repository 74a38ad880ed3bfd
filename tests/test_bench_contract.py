"""What the benchmark under ``perfbench/`` uses of the package still works.

The benchmark's tracer rebinds package attributes by name, and its oracle
recomputes ``eval``'s scores through ``load_model`` and stage-only
``transform``; a refactor that renames or reshapes any of them breaks the
benchmark, not the package's own tests. The modules are loaded by path,
because ``perfbench/`` is not a package.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import ecml
from ecml import cli

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
oracle = _load("oracle")


def _run(*argv):
    assert cli.main([str(a) for a in argv]) == 0


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A tiny raw-binary problem, as the benchmark's set-up writes it."""
    work = tmp_path_factory.mktemp("bench")
    _run(
        "synth", "--ids", 6, "--samples-per-id", 8, "--dim", 16, "--intra-spread", 1.0,
        "--inter-spread", 0.5, "--count", 300, "--format", "raw-binary",
        "--features", work / "f.bin", "--labels", work / "l.txt", "--pairs", work / "train.csv",
    )
    _run("pairs", "--labels", work / "l.txt", "--count", 200, "--seed", 1,
         "--pairs", work / "heldout.csv")
    return work


def test_tracer_rebinds_existing_attributes_and_restores_them():
    tracer = tracing.Tracer()
    sites = tracing._wrappers(tracer, ecml, np)
    originals = [(module, name, getattr(module, name)) for module, name, _ in sites]
    with tracing.instrumented(tracer):
        rebound = [getattr(module, name) is not original for module, name, original in originals]
    assert all(rebound)
    assert all(getattr(module, name) is original for module, name, original in originals)


@pytest.mark.parametrize("fit", [
    ["--learner", "rmml", "--cascade", "--stages", 2],
    ["--learner", "kissme", "--no-cascade", "--pca-dim", 8],
], ids=["rmml-2-stages", "kissme-pca"])
def test_traced_fit_and_eval_agree_with_oracle(inputs, capsys, fit):
    model, report = inputs / "model.ecml", inputs / "report.txt"
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer):
        _run("fit", "--features", inputs / "f.bin", "--format", "raw-binary",
             "--pairs", inputs / "train.csv", "--model", model, "--seed", 0, *fit)
        capsys.readouterr()
        _run("eval", "--model", model, "--features", inputs / "f.bin", "--format", "raw-binary",
             "--pairs", inputs / "heldout.csv", "--report", report)
    out = capsys.readouterr().out
    assert {"cascade.fit_cascade", "cascade.load_model", "evaluation.build_report"} <= {
        span["name"] for span in tracer.spans
    }
    (eer,) = (float(line[4:]) for line in out.splitlines() if line.startswith("eer="))
    problems, oracle_eer = oracle.check(
        model, inputs / "f.bin", inputs / "heldout.csv", f"{report}.roc.csv", eer
    )
    assert problems == []
    assert oracle.close(eer, oracle_eer)
