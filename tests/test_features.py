"""Tests for feature I/O, PCA, pair sampling, padding, and generation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ecml
from ecml.cascade import _shuffle
from ecml.errors import ValidationError


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

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValidationError, match="unknown feature format"):
            ecml.load_features(tmp_path / "x", "parquet")


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
        # big enough sample count to take the rejection-sampling branch
        labels = np.repeat(np.arange(500), 5)
        pairs = ecml.sample_pairs(labels, 4000, 0.25, seed=7)
        assert pairs.n_pos == 1000 and pairs.n_neg == 3000
        same = labels[pairs.i] == labels[pairs.j]
        assert np.array_equal(same.astype(int), pairs.y)
        canon = {(min(a, b), max(a, b)) for a, b in zip(pairs.i, pairs.j)}
        assert len(canon) == len(pairs)


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
