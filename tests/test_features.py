"""Tests for feature I/O, PCA, pair sampling, padding, and generation."""

import ast
import os
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ecml
from ecml.cascade import _shuffle
from ecml.errors import ValidationError
from ecml.features import ROW_BLOCK

from conftest import clustered_problem, make_stats


class TestFeatureMatrix:
    def test_shape_properties(self):
        m = ecml.FeatureMatrix([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        assert m.count == 3 and m.dim == 2

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            ecml.FeatureMatrix(np.empty((0, 3)))

    def test_rejects_nonfinite_with_location(self):
        data = np.ones((4, 3))
        data[2, 1] = np.nan
        with pytest.raises(ValidationError, match="row 2, column 1"):
            ecml.FeatureMatrix(data)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_rejects_infinity_at_first_location(self, bad):
        data = np.ones((4, 3))
        data[2, 1] = bad
        data[3, 0] = bad
        with pytest.raises(ValidationError, match="row 2, column 1"):
            ecml.FeatureMatrix(data)

    def test_finiteness_check_builds_no_full_size_temporary(self, rng):
        data = rng.normal(size=(500, 200))
        data.setflags(write=False)  # kept uncopied
        tracemalloc.start()
        try:
            ecml.FeatureMatrix(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < data.size // 8  # below even one bool per entry

    def test_immutable(self):
        m = ecml.FeatureMatrix(np.ones((2, 2)))
        with pytest.raises(ValueError):
            m.data[0, 0] = 7.0


class TestCsvFormat:
    def test_parse_small(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("1,2\n3,4\n5,6\n")
        m = ecml.load_features(path, "csv")
        assert m.count == 3 and m.dim == 2
        assert np.array_equal(m.data, [[1, 2], [3, 4], [5, 6]])

    def test_nan_cell_rejected(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("1,2\n3,nan\n")
        with pytest.raises(ValidationError, match="row 1, column 1"):
            ecml.load_features(path, "csv")

    def test_bad_token_names_cell(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("1,2\n3,zap\n")
        with pytest.raises(ValidationError, match="row 1, column 1"):
            ecml.load_features(path, "csv")

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(ValidationError, match="row 1"):
            ecml.load_features(path, "csv")

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("# dim=3 count=2\n1,2\n3,4\n")
        with pytest.raises(ValidationError, match="header declares"):
            ecml.load_features(path, "csv")

    def test_header_honored(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("# dim=2 count=2\n1,2\n3,4\n")
        assert ecml.load_features(path, "csv").dim == 2


class TestBinaryFormat:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValidationError, match="bad magic"):
            ecml.load_features(path, "raw-binary")

    def test_truncated_names_lengths(self, tmp_path, rng):
        path = tmp_path / "f.bin"
        ecml.save_features(ecml.FeatureMatrix(rng.normal(size=(4, 3))), path, "raw-binary")
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(ValidationError, match=r"expected \d+ bytes .* found \d+"):
            ecml.load_features(path, "raw-binary")

    def test_loads_aligned_and_bit_exact(self, tmp_path, rng):
        # the payload starts at byte 20 of the file; a view into the file's
        # bytes would be unaligned, which sends numpy to its slow loops
        data = rng.normal(scale=1e3, size=(7, 5))
        data[0, :4] = [-0.0, 5e-324, -1e308, 0.0]
        path = tmp_path / "f.bin"
        ecml.save_features(ecml.FeatureMatrix(data), path, "raw-binary")
        back = ecml.load_features(path, "raw-binary").data
        assert back.flags.aligned and back.flags.c_contiguous
        assert not back.flags.writeable
        assert back.base is None  # its own buffer, not a view of the file's bytes
        assert np.array_equal(back.view(np.uint64), data.view(np.uint64))

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValidationError, match="unknown feature format"):
            ecml.load_features(tmp_path / "x", "parquet")

    def test_file_changed_between_header_and_read(self, tmp_path, rng):
        path = tmp_path / "f.bin"
        ecml.save_features(ecml.FeatureMatrix(rng.normal(size=(6, 3))), path, "raw-binary")
        source = ecml.FeatureFile(path)
        ecml.save_features(ecml.FeatureMatrix(rng.normal(size=(3, 6))), path, "raw-binary")
        with pytest.raises(ValidationError, match="feature file changed while being read"):
            list(source.gather(np.arange(2), 4))

    @pytest.mark.parametrize("rewrite", ["in-place-new-mtime", "replaced-same-mtime"])
    def test_same_shape_rewrite_rejected(self, tmp_path, rng, rewrite):
        # same size, same header: only the inode or the modification time tells
        path = tmp_path / "f.bin"
        ecml.save_features(ecml.FeatureMatrix(rng.normal(size=(6, 3))), path, "raw-binary")
        before = path.stat()
        source = ecml.FeatureFile(path)
        other = ecml.FeatureMatrix(rng.normal(size=(6, 3)))
        if rewrite == "in-place-new-mtime":
            ecml.save_features(other, path, "raw-binary")
            os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns + 1000))
            assert path.stat().st_ino == before.st_ino
        else:
            ecml.save_features(other, tmp_path / "new.bin", "raw-binary")
            os.replace(tmp_path / "new.bin", path)
            os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
            assert path.stat().st_ino != before.st_ino
        assert path.stat().st_size == before.st_size
        with pytest.raises(ValidationError, match="feature file changed while being read"):
            list(source.gather(np.arange(2), 4))
        with pytest.raises(ValidationError, match="feature file changed while being read"):
            source.load()


class TestSingleBinaryReader:
    """``load_features(path, "raw-binary")`` reads through ``FeatureFile.load``."""

    def test_load_equals_file_load(self, tmp_path, rng):
        data = rng.normal(scale=1e3, size=(9, 4))
        data[0, :3] = [-0.0, 5e-324, -1e308]
        path = tmp_path / "f.bin"
        ecml.save_features(ecml.FeatureMatrix(data), path, "raw-binary")
        loaded = ecml.load_features(path, "raw-binary").data
        opened = ecml.FeatureFile(path).load().data
        for arr in (loaded, opened):
            assert arr.flags.aligned and arr.flags.c_contiguous and not arr.flags.writeable
            assert arr.view(np.uint64).tobytes() == data.view(np.uint64).tobytes()

    @pytest.mark.parametrize("fault", ["bad-magic", "size", "empty", "short-header", "directory"])
    def test_fault_messages(self, tmp_path, fault):
        path = tmp_path / "f.bin"
        if fault == "bad-magic":
            path.write_bytes(b"NOPE" + struct.pack("<QQ", 1, 1) + bytes(8))
            message = f"{path}: bad magic b'NOPE', expected b'CMF1'"
        elif fault == "size":
            path.write_bytes(b"CMF1" + struct.pack("<QQ", 2, 3) + bytes(40))
            message = f"{path}: expected 68 bytes for 2x3 features, found 60"
        elif fault == "empty":
            path.write_bytes(b"CMF1" + struct.pack("<QQ", 0, 3))
            message = f"{path}: header declares empty matrix 0x3"
        elif fault == "short-header":
            path.write_bytes(b"CMF1" + bytes(6))
            message = f"{path}: truncated feature file: need 20 bytes through header, file has 10"
        else:
            path.mkdir()
            message = f"{path}: cannot read file: [Errno 21] Is a directory: '{path}'"
        with pytest.raises(ValidationError) as info:
            ecml.load_features(path, "raw-binary")
        assert str(info.value) == message

    def test_file_rewritten_between_header_and_payload(self, tmp_path, rng, monkeypatch):
        # same size, another shape: only the header tells the versions apart
        path = tmp_path / "f.bin"
        ecml.save_features(ecml.FeatureMatrix(rng.normal(size=(6, 3))), path, "raw-binary")
        load = ecml.FeatureFile.load

        def rewrite_then_load(source):
            ecml.save_features(ecml.FeatureMatrix(rng.normal(size=(3, 6))), path, "raw-binary")
            return load(source)

        monkeypatch.setattr(ecml.FeatureFile, "load", rewrite_then_load)
        with pytest.raises(ValidationError) as info:
            ecml.load_features(path, "raw-binary")
        assert str(info.value) == f"{path}: feature file changed while being read"


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    n=st.integers(1, 23),
    size=st.integers(1, 6),
)
def test_file_gather_matches_matrix_gather(tmp_path_factory, data, n, size):
    # blocks of `size` referenced rows, read `size` file rows at a time: a
    # block may span several reads, and a read may fill several blocks
    rows = np.asarray(sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1))))
    m = ecml.FeatureMatrix(np.random.default_rng(n).normal(size=(n, 3)))
    path = tmp_path_factory.mktemp("gather") / "f.bin"
    ecml.save_features(m, path, "raw-binary")
    source = ecml.FeatureFile(path)
    assert (source.count, source.dim) == (n, 3)
    want = [(a, b, block.copy()) for a, b, block in m.gather(rows, size)]
    got = [(a, b, block.copy()) for a, b, block in source.gather(rows, size)]
    assert [(a, b) for a, b, _ in got] == [(a, b) for a, b, _ in want]
    for (a, b, g), (_, _, w) in zip(got, want):
        assert g.tobytes() == m.data[rows[a:b]].tobytes() == w.tobytes()


@pytest.mark.parametrize("kind", ["matrix", "file"])
@pytest.mark.parametrize("rows, error", [
    ([5], r"rows 5\.\.5 out of range for 3 rows"),
    ([0, 7], r"rows 0\.\.7 out of range for 3 rows"),
    ([-1, 2], r"rows -1\.\.2 out of range for 3 rows"),
    ([2, 1], "ascending, unique"),
    ([1, 1], "ascending, unique"),
    ([], None),
])
def test_gather_checks_rows(tmp_path, kind, rows, error):
    m = ecml.FeatureMatrix(np.arange(6.0).reshape(3, 2))
    source = m
    if kind == "file":
        ecml.save_features(m, tmp_path / "f.bin", "raw-binary")
        source = ecml.FeatureFile(tmp_path / "f.bin")
    if error is None:
        assert list(source.gather(rows, 4)) == []
    else:
        with pytest.raises(ValidationError, match=error):
            list(source.gather(rows, 4))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), fmt=st.sampled_from(["csv", "raw-binary"]))
def test_feature_roundtrip_bitwise(tmp_path_factory, seed, fmt):
    rng = np.random.default_rng(seed)
    m = ecml.FeatureMatrix(rng.normal(scale=100.0, size=(10, 8)))
    path = tmp_path_factory.mktemp("rt") / "f.dat"
    ecml.save_features(m, path, fmt)
    back = ecml.load_features(path, fmt)
    assert np.array_equal(back.data, m.data)


class TestPca:
    def test_degenerate_axis(self):
        # second coordinate constant -> top direction is +-e1
        data = np.column_stack([np.linspace(-3, 3, 20), np.full(20, 2.0)])
        model = ecml.fit_pca(ecml.FeatureMatrix(data), 1)
        assert np.allclose(np.abs(model.basis[:, 0]), [1.0, 0.0], atol=1e-12)

    def test_full_rank_reconstruction(self, rng):
        m = ecml.FeatureMatrix(rng.normal(size=(60, 6)))
        model = ecml.fit_pca(m, 6)
        centered = m.data - model.mean
        recon = centered @ model.basis @ model.basis.T
        assert np.abs(recon - centered).max() <= 1e-8

    def test_k_out_of_range(self, rng):
        m = ecml.FeatureMatrix(rng.normal(size=(10, 4)))
        with pytest.raises(ValidationError):
            ecml.fit_pca(m, 5)
        with pytest.raises(ValidationError):
            ecml.fit_pca(m, 0)

    def test_k_capped_by_sample_count(self, rng):
        m = ecml.FeatureMatrix(rng.normal(size=(3, 8)))
        with pytest.raises(ValidationError):
            ecml.fit_pca(m, 3)

    def test_apply_mean_maps_to_zero(self, rng):
        m = ecml.FeatureMatrix(rng.normal(size=(30, 5)))
        model = ecml.fit_pca(m, 3)
        out = ecml.apply_pca(model, ecml.FeatureMatrix(model.mean[None, :]))
        assert np.abs(out.data).max() <= 1e-12

    def test_identity_basis_centered_output(self, rng):
        data = rng.normal(size=(20, 4))
        model = ecml.PcaModel(mean=data.mean(axis=0), basis=np.eye(4))
        out = ecml.apply_pca(model, ecml.FeatureMatrix(data))
        assert np.allclose(out.data, data - data.mean(axis=0), atol=0)

    def test_projected_variance_matches_eigenvalues(self, rng):
        data = rng.normal(size=(300, 8)) @ rng.normal(size=(8, 8))
        m = ecml.FeatureMatrix(data)
        model = ecml.fit_pca(m, 4)
        # independent oracle: eigenvalues of the sample covariance
        centered = data - data.mean(axis=0)
        evals = np.sort(np.linalg.eigvalsh(centered.T @ centered / (len(data) - 1)))[::-1]
        proj = ecml.apply_pca(model, m).data
        got = proj.var(axis=0, ddof=1)
        assert np.abs(got - evals[:4]).max() <= 1e-6 * np.abs(evals[:4]).max()

    def test_dimension_mismatch(self, rng):
        m = ecml.FeatureMatrix(rng.normal(size=(30, 5)))
        model = ecml.fit_pca(m, 2)
        with pytest.raises(ValidationError):
            ecml.apply_pca(model, ecml.FeatureMatrix(rng.normal(size=(3, 4))))

    def test_inner_products_preserved_at_full_rank(self, rng):
        # data of exact rank 3: projection onto k=3 keeps centered inner products
        data = rng.normal(size=(40, 3)) @ rng.normal(size=(3, 10))
        m = ecml.FeatureMatrix(data)
        model = ecml.fit_pca(m, 3)
        centered = data - data.mean(axis=0)
        proj = ecml.apply_pca(model, m).data
        assert np.abs(proj @ proj.T - centered @ centered.T).max() <= 1e-6

    def test_fit_frees_centered_copy_before_eigh(self, rng, monkeypatch):
        feats = ecml.FeatureMatrix(rng.normal(size=(2000, 64)))
        live = []
        real_eigh = np.linalg.eigh

        def eigh(a):
            live.append(tracemalloc.get_traced_memory()[0])
            return real_eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        tracemalloc.start()
        try:
            ecml.fit_pca(feats, 8)
        finally:
            tracemalloc.stop()
        # the mean and the scaled D x D covariance, but no N x D temporary
        assert len(live) == 1 and live[0] < feats.data.nbytes // 4

    def test_fit_from_file_holds_nothing_n_by_d_at_eigh(self, tmp_path, rng, monkeypatch):
        feats = ecml.FeatureMatrix(rng.normal(size=(2000, 64)))
        path = tmp_path / "f.bin"
        ecml.save_features(feats, path, "raw-binary")
        source = ecml.FeatureFile(path)
        live = []
        real_eigh = np.linalg.eigh

        def eigh(a):
            live.append(tracemalloc.get_traced_memory()[0])
            return real_eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        tracemalloc.start()
        try:
            model = ecml.fit_pca(source, 8)
        finally:
            tracemalloc.stop()
        # the rows are read inside the call; only the mean and the D x D
        # covariance are alive at eigh
        assert len(live) == 1 and live[0] < feats.data.nbytes // 4
        want = ecml.fit_pca(feats, 8)
        assert model.mean.tobytes() == want.mean.tobytes()
        assert model.basis.tobytes() == want.basis.tobytes()

    def test_basis_built_in_one_copy_held_by_model(self, rng, monkeypatch):
        built = []
        real_fix = ecml.features.fix_column_signs
        monkeypatch.setattr(
            ecml.features, "fix_column_signs", lambda q: built.append(real_fix(q)) or built[-1]
        )
        model = ecml.fit_pca(ecml.FeatureMatrix(rng.normal(size=(200, 32))), 8)
        assert len(built) == 1 and built[0].flags.c_contiguous
        assert np.shares_memory(model.basis, built[0])

    def test_heap_released_once_eigendecomposition_freed(self, rng, monkeypatch):
        n, d, k = 2000, 64, 8
        live = []
        monkeypatch.setattr(
            ecml.features, "_release_free_heap",
            lambda: live.append(tracemalloc.get_traced_memory()[0]),
        )
        feats = ecml.FeatureMatrix(rng.normal(size=(n, d)))
        tracemalloc.start()
        try:
            ecml.fit_pca(feats, k)
        finally:
            tracemalloc.stop()
        # before eigh, the D x D covariance and the mean, and nothing N x D;
        # after it, only the mean and the D x k basis: no covariance or eigenvectors
        assert len(live) == 2
        assert 8 * d * d <= live[0] < 8 * (d * d + d) + 4096
        assert live[1] < 8 * (d + d * k) + 4096

    @pytest.mark.parametrize("n", [
        1, 2, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK, 2 * ROW_BLOCK + 1, 4 * ROW_BLOCK + 1,
        4 * ROW_BLOCK + 2,
    ])
    def test_apply_to_file_equals_apply_to_matrix_bitwise(self, tmp_path, rng, n):
        feats = ecml.FeatureMatrix(rng.normal(size=(n, 96)))
        path = tmp_path / "f.bin"
        ecml.save_features(feats, path, "raw-binary")
        model = ecml.fit_pca(ecml.FeatureMatrix(rng.normal(size=(80, 96))), 40)
        got = ecml.apply_pca(model, ecml.FeatureFile(path)).data
        assert not got.flags.writeable
        assert got.tobytes() == ecml.apply_pca(model, feats).data.tobytes()

    def test_fit_from_file_checks_k_before_reading_rows(self, tmp_path, rng):
        data = rng.normal(size=(10, 4))
        data[3, 1] = np.nan
        path = tmp_path / "f.bin"
        # written by hand: save_features refuses non-finite values
        path.write_bytes(b"CMF1" + struct.pack("<QQ", 10, 4) + data.astype("<f8").tobytes())
        source = ecml.FeatureFile(path)
        with pytest.raises(ValidationError, match=r"pca dimension 5 out of range \[1, 4\]"):
            ecml.fit_pca(source, 5)
        with pytest.raises(ValidationError, match="non-finite feature value at row 3, column 1"):
            ecml.fit_pca(source, 2)

    def test_apply_peak_is_output_plus_one_row_block(self, rng):
        n, d, k = 1000, 256, 128
        feats = ecml.FeatureMatrix(rng.normal(size=(n, d)))
        model = ecml.fit_pca(feats, k)
        tracemalloc.start()
        try:
            ecml.apply_pca(model, feats)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # plus the fixed buffer numpy's subtract uses to broadcast the mean
        assert peak <= 8 * (n * k + (ROW_BLOCK + 1) * d + np.getbufsize()) + 4096

    @pytest.mark.parametrize("n", [1, 2, 4 * ROW_BLOCK, 4 * ROW_BLOCK + 1, 4 * ROW_BLOCK + 2])
    def test_blocked_projection_equals_one_product_bitwise(self, rng, n):
        # a 1-row remainder alone would be a matrix-vector product, which
        # rounds differently; it is projected with the block before it
        data = rng.normal(size=(n, 96))
        model = ecml.fit_pca(ecml.FeatureMatrix(rng.normal(size=(80, 96))), 40)
        got = ecml.apply_pca(model, ecml.FeatureMatrix(data)).data
        want = (data - model.mean) @ model.basis
        assert not got.flags.writeable
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_orthonormality_validated(self):
        with pytest.raises(ValidationError, match="orthonormal"):
            ecml.PcaModel(mean=np.zeros(2), basis=np.asarray([[1.0, 1.0], [0.0, 1.0]]))


class TestSamplePairs:
    def test_forced_counts(self):
        labels = [0, 0, 1, 1]
        pairs = ecml.sample_pairs(labels, 2, 0.5, seed=0)
        assert pairs.n_pos == 1 and pairs.n_neg == 1

    def test_deterministic(self):
        labels = np.repeat(np.arange(10), 5)
        a = ecml.sample_pairs(labels, 200, 0.4, seed=9)
        b = ecml.sample_pairs(labels, 200, 0.4, seed=9)
        assert np.array_equal(a.i, b.i) and np.array_equal(a.j, b.j) and np.array_equal(a.y, b.y)

    def test_fraction_tracked_closely(self):
        labels = np.repeat(np.arange(40), 10)
        pairs = ecml.sample_pairs(labels, 1000, 0.37, seed=3)
        assert abs(pairs.n_pos / 1000 - 0.37) <= 0.002

    def test_large_count_split(self):
        labels = np.repeat(np.arange(200), 10)
        pairs = ecml.sample_pairs(labels, 10_000, 0.55, seed=1)
        assert abs(pairs.n_pos - 5500) <= 1

    def test_no_self_or_duplicate_pairs(self):
        labels = np.repeat(np.arange(6), 4)
        pairs = ecml.sample_pairs(labels, 100, 0.3, seed=2)
        assert (pairs.i != pairs.j).all()
        canon = {(min(a, b), max(a, b)) for a, b in zip(pairs.i, pairs.j)}
        assert len(canon) == len(pairs)

    def test_labels_respected(self):
        labels = np.repeat(np.arange(6), 4)
        pairs = ecml.sample_pairs(labels, 100, 0.3, seed=2)
        same = labels[pairs.i] == labels[pairs.j]
        assert np.array_equal(same.astype(int), pairs.y)

    def test_infeasible_request(self):
        labels = [0, 0, 1, 1]
        with pytest.raises(ValidationError, match="matched pairs"):
            ecml.sample_pairs(labels, 10, 0.9, seed=0)

    def test_negative_seed(self):
        with pytest.raises(ValidationError, match="seed"):
            ecml.sample_pairs([0, 0, 1, 1], 2, 0.5, seed=-3)

    def test_rejection_path_matches_contracts(self):
        # 2500 samples: more than the listed-pool oracle below is run on
        labels = np.repeat(np.arange(500), 5)
        pairs = ecml.sample_pairs(labels, 4000, 0.25, seed=7)
        assert pairs.n_pos == 1000 and pairs.n_neg == 3000
        same = labels[pairs.i] == labels[pairs.j]
        assert np.array_equal(same.astype(int), pairs.y)
        canon = {(min(a, b), max(a, b)) for a, b in zip(pairs.i, pairs.j)}
        assert len(canon) == len(pairs)


def _listed_pools_oracle(labels, count, pos_fraction, seed):
    """Reference sampler: list both pools in full, then draw from each with rng.choice."""
    labels = np.asarray(labels)
    n_pos = int(round(count * pos_fraction))
    blocks_i, blocks_j = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for value in np.unique(labels):
        idx = np.flatnonzero(labels == value)
        a, b = np.triu_indices(idx.size, 1)
        blocks_i.append(idx[a])
        blocks_j.append(idx[b])
    pos_i, pos_j = np.concatenate(blocks_i), np.concatenate(blocks_j)
    ii, jj = np.triu_indices(labels.size, 1)
    mask = labels[ii] != labels[jj]
    neg_i, neg_j = ii[mask], jj[mask]
    rng = np.random.default_rng(seed)
    sel = rng.choice(pos_i.size, size=n_pos, replace=False)
    nsel = rng.choice(neg_i.size, size=count - n_pos, replace=False)
    return np.r_[pos_i[sel], neg_i[nsel]], np.r_[pos_j[sel], neg_j[nsel]]


def _pool_sizes(labels):
    sizes = np.unique(labels, return_counts=True)[1]
    pos = int((sizes * (sizes - 1) // 2).sum())
    return pos, labels.size * (labels.size - 1) // 2 - pos


def _random_labels(rng, kind):
    n = int(rng.integers(2, 300))
    if kind == "unsorted":
        return rng.integers(0, max(1, n // 4), n)
    if kind == "singletons":
        return rng.permutation(n) // 2 + (rng.random(n) < 0.5) * n
    if kind == "dominant":
        return np.where(rng.random(n) < 0.9, 7, rng.integers(-20, 20, n))
    return np.repeat(rng.integers(-50, 50, n // 5 + 1), 5)[:n]  # blocks, ids unordered


class TestSamplePairsOracle:
    """The rank-decoding sampler draws exactly what listing the pools draws."""

    def assert_matches(self, labels, n_pos, n_neg, seed):
        count = n_pos + n_neg
        pairs = ecml.sample_pairs(labels, count, n_pos / count, seed)
        i, j = _listed_pools_oracle(labels, count, n_pos / count, seed)
        assert np.array_equal(pairs.i, i) and np.array_equal(pairs.j, j)
        assert np.array_equal(pairs.y, np.r_[np.ones(n_pos), np.zeros(n_neg)])

    @pytest.mark.parametrize("kind", ["unsorted", "singletons", "dominant", "blocks"])
    def test_random_label_sets(self, kind):
        rng = np.random.default_rng(sum(map(ord, kind)))
        tried = 0
        while tried < 40:
            labels = _random_labels(rng, kind)
            pos, neg = _pool_sizes(labels)
            if pos < 1 or neg < 1:
                continue
            # sparse and dense requests, up to the whole of either pool
            n_pos = int(rng.choice([1, rng.integers(1, pos + 1), pos]))
            n_neg = int(rng.choice([1, rng.integers(1, neg + 1), neg]))
            if int(round((n_pos + n_neg) * (n_pos / (n_pos + n_neg)))) != n_pos:
                continue  # the fraction does not round back to n_pos
            self.assert_matches(labels, n_pos, n_neg, int(rng.integers(2**32)))
            tried += 1

    def test_whole_pools_hold_every_pair_once(self):
        labels = np.array([3, 1, 3, 2, 1, 3, 9])
        pos, neg = _pool_sizes(labels)
        self.assert_matches(labels, pos, neg, seed=5)
        pairs = ecml.sample_pairs(labels, pos + neg, pos / (pos + neg), seed=5)
        assert sorted(zip(pairs.i.tolist(), pairs.j.tolist())) == [
            (a, b) for a in range(7) for b in range(a + 1, 7)
        ]

    def test_dense_request_above_2048_samples(self):
        # a third of the unmatched pool from 2100 samples in unsorted identities
        labels = np.random.default_rng(4).permutation(np.repeat(np.arange(105), 20))
        neg = _pool_sizes(labels)[1]
        self.assert_matches(labels, 500, neg // 3 + 1, seed=11)

    def test_memory_linear_in_samples_and_count(self):
        # listing the 2000-sample pools peaks at 67 MB; the rank path at 1.6 MB
        labels = np.repeat(np.arange(100), 20)
        tracemalloc.start()
        try:
            ecml.sample_pairs(labels, 20000, 0.5, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6


class TestZeroPad:
    # padding lives in the cascade's shuffle; an identity permutation shows it
    def test_pads_up(self):
        m = ecml.FeatureMatrix(np.arange(20.0).reshape(2, 10))
        out = _shuffle(m.data, np.arange(12))
        assert out.shape == (2, 12)
        assert np.array_equal(out[:, :10], m.data)
        assert np.array_equal(out[:, 10:], np.zeros((2, 2)))

    def test_exact_multiple_unchanged(self):
        m = ecml.FeatureMatrix(np.ones((3, 8)))
        assert np.array_equal(_shuffle(m.data, np.arange(8)), m.data)


@pytest.mark.parametrize("what, call", [
    ("pair count", lambda v: ecml.sample_pairs([0, 0, 1, 1], v, 0.5, seed=0)),
    ("identities", lambda v: ecml.gen_synthetic(v, 5, 3, 1.0, 1.0, seed=0)),
    ("samples_per_id", lambda v: ecml.gen_synthetic(2, v, 3, 1.0, 1.0, seed=0)),
    ("dim", lambda v: ecml.gen_synthetic(2, 5, v, 1.0, 1.0, seed=0)),
    ("pca dimension", lambda v: ecml.fit_pca(ecml.FeatureMatrix(np.eye(6)), v)),
], ids=lambda v: v.replace(" ", "-") if isinstance(v, str) else "")
def test_non_integer_count_rejected(what, call):
    for value in (2.5, "3", None, True):
        with pytest.raises(ValidationError) as info:
            call(value)
        assert str(info.value) == f"{what} must be an integer >= 1, got {value!r}"


@pytest.mark.parametrize("call", [
    lambda: ecml.sample_pairs([0, 0, 1, 1], 2, "0.5", seed=0),
    lambda: ecml.sample_pairs([0, 0, 1, 1], 2, None, seed=0),
    lambda: ecml.gen_synthetic(2, 5, 3, "1", 1.0, seed=0),
    lambda: ecml.gen_synthetic(2, 5, 3, 1.0, None, seed=0),
    lambda: ecml.make_learner("rmml", "0.5"),
    lambda: ecml.fit_rmml(make_stats(np.random.default_rng(0), 3), None),
    lambda: ecml.gen_synthetic(2, 5, 3, True, 1.0, seed=0),
    lambda: ecml.make_learner("rmml", True),
    lambda: ecml.MetricModel(np.eye(2), "rmml", float("nan")),
    lambda: ecml.DifferenceStats(np.eye(2), np.eye(2), "3", 1),
    lambda: ecml.EvalReport("x", 0, 0),
    lambda: ecml.objective(make_stats(np.random.default_rng(0), 2), np.eye(2), "x"),
    lambda: ecml.MetricModel(np.eye(2), 3),
    lambda: ecml.MetricModel(np.eye(2), "rmml", "x"),
    # clustered_problem(...)[::2] is (features, pairs)
    lambda: ecml.fit_cascade(*clustered_problem(seed=1, dim=4)[::2], True,
                             ecml.make_learner("rmml"), seed=0),
    lambda: ecml.evaluate(ecml.CascadeModel((), ecml.MetricModel(np.eye(16), "rmml"), 16, 0),
                          *clustered_problem(seed=1)[::2], bins=True),
], ids=["pos-fraction-str", "pos-fraction-none", "intra-spread-str", "inter-spread-none",
        "learner-lambda-str", "rmml-lambda-none", "intra-spread-true", "learner-lambda-true",
        "metric-lambda-nan", "stats-count-str", "report-eer-str", "objective-lambda-str",
        "metric-learner-int", "metric-lambda-str", "cascade-stages-true", "eval-bins-true"])
def test_non_numeric_real_argument_rejected(call):
    with pytest.raises(ValidationError):
        call()


@pytest.mark.parametrize("value", [10**400, -10**400], ids=["above", "below"])
def test_integer_beyond_float_range_rejected(value):
    # the bounds compare exactly, so only the float conversion can refuse it
    for call in (lambda: ecml.make_learner("rmml", value),
                 lambda: ecml.gen_synthetic(2, 5, 3, value, 1.0, seed=0),
                 lambda: ecml.MetricModel(np.eye(2), "rmml", 0.5, value)):
        with pytest.raises(ValidationError, match="must be finite and lie in"):
            call()


@pytest.mark.parametrize("seed", [1.5, 2.0])
@pytest.mark.parametrize("entry", ["sample_pairs", "gen_synthetic"])
def test_non_integer_seed_rejected(entry, seed):
    draws = {
        "sample_pairs": lambda: ecml.sample_pairs([0, 0, 1, 1], 2, 0.5, seed=seed),
        "gen_synthetic": lambda: ecml.gen_synthetic(2, 5, 3, 1.0, 1.0, seed=seed),
    }
    with pytest.raises(ValidationError, match="seed must be an integer >= 0, got"):
        draws[entry]()


def test_argument_policy_stated_in_one_module():
    # only _linalg's _check_integer and _check_real decide what an integer or a real is
    users = set()
    for path in Path(ecml.__file__).resolve().parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Name) and node.id == "numbers"
                    or isinstance(node, ast.Import) and "numbers" in [a.name for a in node.names]
                    or isinstance(node, ast.ImportFrom) and node.module == "numbers"):
                users.add(path.name)
    assert users == {"_linalg.py"}


class TestGenSynthetic:
    def test_tight_clusters_in_limit(self):
        feats, labels = ecml.gen_synthetic(4, 5, 6, 1e-15, 1.0, seed=0)
        for value in np.unique(labels):
            block = feats.data[labels == value]
            assert np.abs(block - block[0]).max() <= 1e-12

    def test_deterministic(self):
        a, la = ecml.gen_synthetic(5, 4, 7, 0.5, 2.0, seed=11)
        b, lb = ecml.gen_synthetic(5, 4, 7, 0.5, 2.0, seed=11)
        assert np.array_equal(a.data, b.data) and np.array_equal(la, lb)

    def test_separable_at_high_ratio(self):
        feats, labels = ecml.gen_synthetic(20, 10, 8, 1.0, 10.0, seed=1)
        x = feats.data
        d2 = ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2)
        np.fill_diagonal(d2, np.inf)
        nn = labels[np.argmin(d2, axis=1)]
        assert (nn == labels).mean() > 0.95

    def test_negative_seed(self):
        with pytest.raises(ValidationError, match="seed"):
            ecml.gen_synthetic(2, 5, 3, 1.0, 1.0, seed=-1)

    def test_bad_params(self):
        with pytest.raises(ValidationError):
            ecml.gen_synthetic(0, 5, 3, 1.0, 1.0, seed=0)
        with pytest.raises(ValidationError):
            ecml.gen_synthetic(2, 5, 3, 0.0, 1.0, seed=0)


class TestPairAndLabelFiles:
    def test_pair_roundtrip(self, tmp_path):
        pairs = ecml.PairSet([0, 1, 2], [3, 4, 5], [1, 0, 1])
        path = tmp_path / "p.csv"
        ecml.save_pairs(pairs, path)
        back = ecml.load_pairs(path)
        assert np.array_equal(back.i, pairs.i)
        assert np.array_equal(back.j, pairs.j)
        assert np.array_equal(back.y, pairs.y)

    def test_pair_file_malformed(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("0,1\n")
        with pytest.raises(ValidationError, match="line 0"):
            ecml.load_pairs(path)

    def test_pair_index_beyond_int64_names_line(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(f"0,1,1\n\n2,{2**63},0\n")
        with pytest.raises(ValidationError, match="line 2: integer out of int64 range"):
            ecml.load_pairs(path)

    def test_label_beyond_int64_names_line(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_text(f"3\n{-(2**63) - 1}\n")
        with pytest.raises(ValidationError, match="line 1: integer out of int64 range"):
            ecml.load_labels(path)

    def test_label_file_not_utf8(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_bytes(b"\xff\xfe1\n")
        with pytest.raises(ValidationError, match="cannot read"):
            ecml.load_labels(path)

    def test_label_roundtrip(self, tmp_path):
        path = tmp_path / "l.csv"
        ecml.save_labels([4, 4, 7, 9], path)
        assert np.array_equal(ecml.load_labels(path), [4, 4, 7, 9])

    def test_save_labels_rejects_fractions(self, tmp_path):
        with pytest.raises(ValidationError, match="labels must be integer-valued, got 1.5"):
            ecml.save_labels([0, 1.5], tmp_path / "l.csv")
        assert not (tmp_path / "l.csv").exists()

    @pytest.mark.parametrize("field, values, message", [
        ("i", [0.5, 2.7], "pair indices must be integer-valued, got 0.5"),
        ("j", [1.2, 3.9], "pair indices must be integer-valued, got 1.2"),
        ("y", [1.0, 0.4], "pair labels must be integer-valued, got 0.4"),
    ])
    def test_pairset_rejects_values_int64_would_change(self, field, values, message):
        # whole floats convert; 2.7 would truncate to 2, and the label 0.4 to unmatched
        arrays = {"i": [0.0, 2.0], "j": [1.0, 3.0], "y": [1.0, 0.0]}
        whole = ecml.PairSet(**arrays)
        assert whole.i.tolist() == [0, 2] and whole.y.tolist() == [1, 0]
        with pytest.raises(ValidationError) as info:
            ecml.PairSet(**{**arrays, field: values})
        assert str(info.value) == message

    def test_pairset_requires_both_labels(self):
        with pytest.raises(ValidationError, match="matched"):
            ecml.PairSet([0, 1], [2, 3], [1, 1])

    def test_pairset_rejects_self_pair(self):
        with pytest.raises(ValidationError, match="itself"):
            ecml.PairSet([0, 1], [0, 1], [1, 0])

    def test_pairset_rejects_empty(self):
        with pytest.raises(ValidationError, match="empty"):
            ecml.PairSet([], [], [])

    def test_pairset_rejects_bad_label(self):
        with pytest.raises(ValidationError, match="0 or 1"):
            ecml.PairSet([0, 1], [2, 3], [1, 2])
