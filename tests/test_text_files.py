"""The text-file boundary: writer bytes pinned by hash, and loaders fuzzed.

Every text format (feature CSV, pairs, labels, report, ROC table, JSON config)
either loads or fails with ``ValidationError``; no other exception escapes.
"""

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ecml
from ecml import cli
from ecml.errors import ValidationError

from conftest import run_python

# Writes every text output of one small synth/fit/eval run, with relative paths
# so the multi-model report does not name the temporary directory.
_GOLDEN_TEXT = """
import os, sys
from ecml import cli

os.chdir(sys.argv[1])
data = ["--features", "f.csv", "--pairs", "p.csv"]
assert cli.main(["synth", "--ids", "6", "--samples-per-id", "5", "--dim", "4", "--count", "60",
                 "--seed", "3", "--inter-spread", "0.8", "--labels", "l.csv", *data]) == 0
assert cli.main(["fit", *data, "--model", "m0.ecml"]) == 0
assert cli.main(["fit", *data, "--model", "m1.ecml", "--cascade", "--stages", "1"]) == 0
assert cli.main(["eval", *data, "--model", "m0.ecml", "--report", "r.txt"]) == 0
assert cli.main(["eval", *data, "--model", "m0.ecml", "m1.ecml", "--report", "r2.txt"]) == 0
"""

_GOLDEN_HASHES = {
    "f.csv": "ab137227dfe2b7f90c1fb7043b674c399126a86b73f28e0dd6b368fcd269adfd",
    "p.csv": "1a273556f8c2e786bfd37e3ab312e2237e905641c9c599773145df1c85e06774",
    "l.csv": "ef0623d0fb1ee43808b2e9e80329b699d33b5eeb56211e4c1a62cd8ba76d24d7",
    "r.txt": "1069f09dd50caa3797cdca7b56552eaa9e16bd32fea81648b214ed99f7c7a107",
    "r.txt.roc.csv": "53bc9d6bfaf9104de25e2e3716bdca1c1857b86314415c815c137350221015cb",
    "r2.txt": "eb13f8d86cb640134ef4044178e874d249d87f1ee66d5160f36401da45bd9e36",
}


class TestGoldenTextBytes:
    """Text writer output of a pinned run, produced in a one-thread OpenBLAS child.

    Feature, pair and label bytes depend only on numpy's random generator; the
    report hashes hold for numpy 2.4 with its bundled OpenBLAS on x86-64.
    """

    @pytest.fixture(scope="class")
    def outputs(self, tmp_path_factory):
        work = tmp_path_factory.mktemp("golden-text")
        run_python("-c", _GOLDEN_TEXT, str(work))
        return work

    @pytest.mark.parametrize("name", sorted(_GOLDEN_HASHES))
    def test_writer_bytes(self, outputs, name):
        digest = hashlib.sha256((outputs / name).read_bytes()).hexdigest()
        assert digest == _GOLDEN_HASHES[name]


# Set-up inputs of the benchmark's workloads at their 100 x 20 shape and seed 0
# (perfbench/run.py): labels, 20 000 training pairs, and the 500 and 5 000
# held-out pairs drawn with seed 1. Label and pair bytes do not depend on the
# feature width, so 4 dimensions stand in for 1024.
_BENCH_INPUT_HASHES = {
    "l.csv": "40ac23e325449dd753074aa3c4dc6606282672cd13a3da8a50ac7c1996e89707",
    "p20000.csv": "7e1c97909ddddbaea747aad28247bdd2626b1d38a1533a11da77d7eec99475bb",
    "p500.csv": "f08c061d55f27491e21e377566e43825a6e9b16246f1018203426ce2272abf85",
    "p5000.csv": "dbb27c0a74210559719f103618a73463d7a6a2813089a07a8c04fb91eb166b1d",
}


def test_benchmark_input_bytes(tmp_path, capsys):
    labels, train = tmp_path / "l.csv", tmp_path / "p20000.csv"
    assert cli.main([
        "synth", "--ids", "100", "--samples-per-id", "20", "--dim", "4",
        "--intra-spread", "1.0", "--inter-spread", "0.5", "--seed", "0", "--count", "20000",
        "--features", str(tmp_path / "f.bin"), "--format", "raw-binary",
        "--labels", str(labels), "--pairs", str(train),
    ]) == 0
    for count in (500, 5000):
        assert cli.main([
            "pairs", "--labels", str(labels), "--count", str(count), "--seed", "1",
            "--pairs", str(tmp_path / f"p{count}.csv"),
        ]) == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in _BENCH_INPUT_HASHES
    }
    assert digests == _BENCH_INPUT_HASHES


# Bytes that steer the text parsers (digits, separators, signs, exponent,
# nan/inf letters, header and JSON syntax), mixed with arbitrary ones.
_BYTE = st.one_of(
    st.sampled_from(b"0123456789,.-+eE_ \t\r\n#=:\"{}[]nainf\x00\xff"), st.integers(0, 255)
)
_EDITS = st.lists(
    st.tuples(st.sampled_from("rid"), st.integers(0, 2**16), _BYTE), min_size=1, max_size=3
)
# a bare integer truncates the file at that offset (modulo its length)
_MUTATION = st.one_of(_EDITS, st.integers(0, 2**16))


def _mutate(blob, mutation):
    if isinstance(mutation, int):
        return blob[: mutation % len(blob)]
    out = bytearray(blob)
    for op, pos, byte in mutation:
        if op == "i":
            out.insert(pos % (len(out) + 1), byte)
        elif out and op == "r":
            out[pos % len(out)] = byte
        elif out:
            del out[pos % len(out)]
    return bytes(out)


@pytest.fixture(scope="module")
def text_samples(tmp_path_factory):
    """One valid file per text format, plus a loader for each."""
    work = tmp_path_factory.mktemp("fuzz")
    ecml.save_features(ecml.FeatureMatrix([[0.5, -1.0, 2.0], [1e-3, 3.0, -2.5]]), work / "f")
    ecml.save_pairs(ecml.PairSet([0, 1, 2, 3], [1, 2, 3, 0], [1, 0, 1, 0]), work / "p")
    ecml.save_labels([0, 0, 1, 1, 2], work / "l")
    scored = ecml.ScoredPairs([0.1, 0.4, 0.3, 0.9, 0.7], [1, 1, 0, 0, 1])
    ecml.save_report(ecml.build_report(scored, bins=4), work / "r", roc_path=work / "roc")
    # the config names no output, so no mutation of it can make the run write a file
    (work / "c").write_text(json.dumps({
        "labels": str(work / "absent"), "count": 10, "pos_fraction": 0.5, "seed": 1,
        "lambda": 0.5, "stages": 2,
    }))

    def run_config(path):
        assert cli.main(["pairs", "--config", str(path)]) in (0, 2)

    loaders = {
        "features": (work / "f", lambda path: ecml.load_features(path, "csv")),
        "pairs": (work / "p", ecml.load_pairs),
        "labels": (work / "l", ecml.load_labels),
        "report": (work / "r", ecml.load_report),
        "roc": (work / "roc", lambda path: ecml.load_report(work / "r", roc_path=path)),
        "config": (work / "c", run_config),
    }
    return work, {kind: (path.read_bytes(), load) for kind, (path, load) in loaders.items()}


@pytest.mark.parametrize("kind", ["features", "pairs", "labels", "report", "roc", "config"])
@settings(max_examples=150, deadline=None)
@given(mutation=_MUTATION)
def test_mutated_text_file_loads_or_raises_validation_error(text_samples, kind, mutation):
    work, samples = text_samples
    blob, load = samples[kind]
    path = work / f"mutated-{kind}"
    path.write_bytes(_mutate(blob, mutation))
    try:
        load(path)
    except ValidationError:
        pass
