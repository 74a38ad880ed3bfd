"""Tests for pair scoring, EER, KL divergence, and report persistence."""

import re
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ecml
from ecml.errors import ValidationError
from ecml.evaluation import SCORE_CHUNK
from ecml.features import ROW_BLOCK

from conftest import brute_force_eer, clustered_problem


def scored(pos, neg):
    pos = np.asarray(pos, dtype=float)
    neg = np.asarray(neg, dtype=float)
    return ecml.ScoredPairs(
        scores=np.concatenate([pos, neg]),
        labels=np.concatenate([np.ones(len(pos), int), np.zeros(len(neg), int)]),
    )


class TestScoredPairs:
    def test_requires_both_labels(self):
        with pytest.raises(ValidationError):
            ecml.ScoredPairs(scores=np.asarray([1.0, 2.0]), labels=np.asarray([1, 1]))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValidationError):
            scored([np.inf], [1.0])

    def test_split_properties(self):
        sp = scored([1.0, 2.0], [3.0])
        assert np.array_equal(sp.pos, [1.0, 2.0])
        assert np.array_equal(sp.neg, [3.0])


class TestScorePairs:
    def test_identity_metric_squared_norm(self):
        feats = ecml.FeatureMatrix([[0.0, 0.0], [3.0, 4.0]])
        pairs = ecml.PairSet([0, 0], [1, 1], [1, 0])
        sp = ecml.score_pairs(lambda a, b: ((a - b) ** 2).sum(1), feats, pairs)
        assert np.array_equal(sp.scores, [25.0, 25.0])

    def test_identical_samples_score_zero(self):
        feats = ecml.FeatureMatrix([[1.0, 2.0], [1.0, 2.0], [5.0, 6.0]])
        pairs = ecml.PairSet([0, 0], [1, 2], [1, 0])
        sp = ecml.score_pairs(lambda a, b: ((a - b) ** 2).sum(1), feats, pairs)
        assert sp.scores[0] == 0.0

    def test_labels_copied(self):
        feats = ecml.FeatureMatrix([[0.0], [1.0], [2.0]])
        pairs = ecml.PairSet([0, 0], [1, 2], [1, 0])
        sp = ecml.score_pairs(lambda a, b: np.ones(len(a)), feats, pairs)
        assert np.array_equal(sp.labels, pairs.y)

    def test_chunked_cascade_scores_match_one_pair_calls(self):
        count = 2 * SCORE_CHUNK + 37
        feats, _, pairs = clustered_problem(seed=31, dim=12, count=count)
        model = ecml.fit_cascade(feats, pairs, 2, ecml.make_learner("rmml", 0.1), seed=3)
        blocks = partial(ecml.cascade_distance, model)
        first = ecml.score_pairs(blocks, feats, pairs).scores
        again = ecml.score_pairs(blocks, feats, pairs).scores
        assert first.size == count and first.tobytes() == again.tobytes()
        x = feats.data
        single = [ecml.cascade_distance(model, x[a], x[b]) for a, b in zip(pairs.i, pairs.j)]
        assert all(type(s) is float for s in single)
        np.testing.assert_allclose(first, single, rtol=1e-12, atol=0.0)
        with pytest.raises(ValidationError):
            ecml.cascade_distance(model, x[:3], x[:2])


def reference_scores(model, x, i, j):
    """Pair scores as ``score_pairs(partial(cascade_distance, model), ...)`` gave
    them: per ``SCORE_CHUNK`` pairs, both row blocks stacked and transformed
    together, then ``((d @ M) * d).sum(1)``."""
    i, j = np.asarray(i), np.asarray(j)
    out = []
    for start in range(0, i.size, SCORE_CHUNK):
        a, b = i[start : start + SCORE_CHUNK], j[start : start + SCORE_CHUNK]
        mapped = ecml.transform(model, ecml.FeatureMatrix(np.vstack([x[a], x[b]]))).data
        d = mapped[: a.size] - mapped[a.size :]
        out.append(((d @ model.final_metric.matrix) * d).sum(1))
    return np.concatenate(out)


def evaluated_scores(model, features, pairs, monkeypatch):
    """The per-pair scores that ``ecml.evaluate`` builds its report from."""
    seen = []
    build = ecml.evaluation.build_report

    def capture(scored, bins):
        seen.append(scored)
        return build(scored, bins=bins)

    monkeypatch.setattr(ecml.evaluation, "build_report", capture)
    ecml.evaluate(model, features, pairs)
    (scored,) = seen
    assert np.array_equal(scored.labels, pairs.y)
    return scored.scores


def chain_pairs(labels, rows):
    """Pairs (rows[k], rows[k + 1]), wrapping around, labelled by identity;
    together they reference exactly ``rows``."""
    i, j = rows, np.roll(rows, -1)
    return ecml.PairSet(i, j, (labels[i] == labels[j]).astype(int))


@pytest.fixture(scope="module")
def cascade_problem():
    feats, labels, pairs = clustered_problem(
        seed=31, ids=30, spp=12, dim=12, count=2 * SCORE_CHUNK + 37
    )
    model = ecml.fit_cascade(feats, pairs, 2, ecml.make_learner("rmml", 0.1), seed=3)
    return feats, labels, pairs, model


def _smallest(feats, labels, pairs, model):
    first_pos, first_neg = np.argmax(pairs.y == 1), np.argmax(pairs.y == 0)
    keep = [first_pos, first_neg]
    return model, feats, ecml.PairSet(pairs.i[keep], pairs.j[keep], pairs.y[keep])


def _last_chunk_of_one(feats, labels, pairs, model):
    # every other pair, so that both classes are drawn
    keep = np.arange(0, len(pairs), 2)[: SCORE_CHUNK + 1]
    return model, feats, ecml.PairSet(pairs.i[keep], pairs.j[keep], pairs.y[keep])


def _rows_one_past_block(feats, labels, pairs, model):
    return model, feats, chain_pairs(labels, np.arange(ROW_BLOCK + 1) + 40)


def _two_chunks_and_37(feats, labels, pairs, model):
    return model, feats, pairs


def _stage_free(feats, labels, pairs, model):
    return ecml.fit_cascade(feats, pairs, 0, ecml.make_learner("rmml", 0.1), 0), feats, pairs


def _pca_row_subset(feats, labels, pairs, model):
    reduced = ecml.apply_pca(ecml.fit_pca(feats, 8), feats)
    fitted = ecml.fit_cascade(reduced, pairs, 1, ecml.make_learner("rmml", 0.1), seed=5)
    # the even rows only, in 300 pairs: some rows are left out of the mapping
    even = ecml.sample_pairs(labels[::2], 300, 0.5, seed=8)
    return fitted, reduced, ecml.PairSet(2 * even.i, 2 * even.j, even.y)


class TestEvaluate:
    @pytest.mark.parametrize("case", [
        _smallest, _last_chunk_of_one, _rows_one_past_block, _two_chunks_and_37,
        _stage_free, _pca_row_subset,
    ], ids=lambda case: case.__name__.strip("_"))
    def test_scores_bit_identical_to_stacked_chunks(self, cascade_problem, monkeypatch, case):
        model, features, pairs = case(*cascade_problem)
        got = evaluated_scores(model, features, pairs, monkeypatch)
        want = reference_scores(model, features.data, pairs.i, pairs.j)
        assert got.tobytes() == want.tobytes()

    def test_case_shapes(self, cascade_problem):
        # the cases above reach the block edges they are named for
        _, _, pairs = _rows_one_past_block(*cascade_problem)
        assert np.unique(np.concatenate([pairs.i, pairs.j])).size % ROW_BLOCK == 1
        _, _, pairs = _last_chunk_of_one(*cascade_problem)
        assert len(pairs) % SCORE_CHUNK == 1
        _, features, pairs = _pca_row_subset(*cascade_problem)
        assert np.unique(np.concatenate([pairs.i, pairs.j])).size < features.count

    def test_free_heap_released_before_rows_are_mapped(self, cascade_problem, monkeypatch):
        # the mapped rows and the stages' block temporaries set the eval's
        # peak RSS; they grow it from a heap holding only live arrays
        feats, _, pairs, model = cascade_problem
        calls = []
        real_map = ecml.evaluation.map_rows
        monkeypatch.setattr(ecml.evaluation, "_release_free_heap", lambda: calls.append("release"))
        monkeypatch.setattr(
            ecml.evaluation, "map_rows", lambda *args: calls.append("map") or real_map(*args)
        )
        ecml.evaluate(model, feats, pairs)
        assert calls == ["release", "map"]

    def test_lone_pair_matches_reference(self, cascade_problem):
        feats, _, pairs, model = cascade_problem
        x, a, b = feats.data, int(pairs.i[0]), int(pairs.j[0])
        want = reference_scores(model, x, [a], [b])
        assert ecml.cascade_distance(model, x[a], x[b]) == want[0]

    @pytest.mark.parametrize("stages", [0, 1])
    def test_wrong_feature_width_rejected(self, stages):
        feats, _, pairs = clustered_problem(seed=5, dim=8)
        model = ecml.fit_cascade(feats, pairs, stages, ecml.make_learner("rmml", 0.1), seed=0)
        wide = ecml.FeatureMatrix(np.hstack([feats.data, feats.data[:, :1]]))
        with pytest.raises(ValidationError) as info:
            ecml.evaluate(model, wide, pairs)
        assert str(info.value) == "feature dim 9 does not match model input dim 8"

    @pytest.mark.parametrize("bins", [0, -5])
    def test_bins_checked_before_any_row_is_read(self, tmp_path, monkeypatch, bins):
        # every score is 0, so the report would be degenerate and compute no KL
        feats, _, pairs = clustered_problem(seed=5, dim=8)
        model = ecml.CascadeModel((), ecml.MetricModel(np.zeros((8, 8)), "rmml"), 8, 0)
        ecml.save_features(feats, tmp_path / "f.bin", "raw-binary")
        source = ecml.FeatureFile(tmp_path / "f.bin")

        def never(*args, **kwargs):
            raise AssertionError("a feature row was read before bins was checked")

        monkeypatch.setattr(ecml.FeatureFile, "gather", never)
        for features in (source, feats):
            with pytest.raises(ValidationError) as info:
                ecml.evaluate(model, features, pairs, bins=bins)
            assert str(info.value) == f"bins must be >= 1, got {bins}"

    @pytest.mark.parametrize("stages", [0, 2])
    def test_peak_is_mapped_rows_plus_chunk_buffers(self, rng, stages):
        dim, rows, count = 512, 800, 2000

        def stage(groups):
            g = dim // groups
            projections = tuple(ecml.Projection(rng.normal(size=(g, g)) / g, 0)
                                for _ in range(groups))
            return ecml.StageModel(rng.permutation(dim), projections)

        model = ecml.CascadeModel(
            tuple(stage(2 ** (stages - s)) for s in range(stages)),
            ecml.MetricModel(np.eye(dim), "rmml", 0.1, 1.0), dim, 0,
        )
        feats = ecml.FeatureMatrix(rng.normal(size=(1000, dim)))
        i = rng.integers(0, rows, size=count)
        j = (i + rng.integers(1, rows, size=count)) % rows
        y = np.arange(count) % 2

        def peak(repeats):
            pairs = ecml.PairSet(np.tile(i, repeats), np.tile(j, repeats), np.tile(y, repeats))
            tracemalloc.start()
            try:
                ecml.evaluate(model, feats, pairs)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        used = np.unique(np.concatenate([i, j])).size
        mapped = used * dim * 8 if stages else 0
        # a mapped block's input, the previous stage's output, its shuffled
        # successor and the group block; or a chunk's differences and product
        chunk_buffers = 4 * SCORE_CHUNK * dim * 8
        base = peak(1)
        assert base <= mapped + chunk_buffers + 2**20
        # ten times the pairs over the same rows add only per-pair arrays:
        # the gathered, unique and inverse indices and the scores
        assert peak(10) - base <= 9 * count * 5 * 8

    def test_streamed_peak_ignores_unreferenced_rows(self, rng, tmp_path):
        dim, k, rows, count = 256, 128, 300, 1000
        basis, _ = np.linalg.qr(rng.normal(size=(dim, k)))
        pca = ecml.PcaModel(rng.normal(size=dim), basis)

        def stage(groups):
            g = k // groups
            projections = tuple(ecml.Projection(rng.normal(size=(g, g)) / g, 0)
                                for _ in range(groups))
            return ecml.StageModel(rng.permutation(k), projections)

        model = ecml.CascadeModel(
            (stage(4), stage(2)), ecml.MetricModel(np.eye(k), "rmml", 0.1, 1.0), k, 0
        )
        data = rng.normal(size=(5 * rows, dim))
        i = rng.integers(0, rows, size=count)
        j = (i + rng.integers(1, rows, size=count)) % rows
        pairs = ecml.PairSet(i, j, np.arange(count) % 2)

        def peak(n):
            path = tmp_path / f"f{n}.bin"
            ecml.save_features(ecml.FeatureMatrix(data[:n]), path, "raw-binary")
            source = ecml.FeatureFile(path)
            tracemalloc.start()
            try:
                ecml.evaluate(model, source, pairs, pca=pca)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        used = np.unique(np.concatenate([i, j])).size
        # the read buffer, the gathered block, the projected block and the
        # stage temporaries of one mapped block, each at most 257 rows
        blocks = 5 * (ROW_BLOCK + 1) * dim * 8
        base = peak(rows)
        assert base <= used * k * 8 + blocks + 2**20
        # four times as many rows that no pair references (3 MB more file)
        # are read, not kept: the peak moves by a few Python objects at most
        assert abs(peak(5 * rows) - base) <= 2**12


class TestComputeEer:
    def test_perfect_separation(self):
        res = ecml.compute_eer(scored([1.0, 2.0], [3.0, 4.0]))
        assert res.eer == 0.0 and not res.degenerate

    def test_worked_four_pair_example(self):
        res = ecml.compute_eer(scored([1.0, 3.0], [2.0, 4.0]))
        assert res.eer == pytest.approx(0.25, abs=1e-12)
        assert res.threshold == pytest.approx(2.5, abs=1e-12)

    def test_random_labels_near_half(self):
        rng = np.random.default_rng(77)
        values = rng.normal(size=10_000)
        labels = rng.integers(0, 2, size=10_000)
        while labels.sum() in (0, len(labels)):  # pragma: no cover
            labels = rng.integers(0, 2, size=10_000)
        sp = ecml.ScoredPairs(scores=values, labels=labels)
        assert ecml.compute_eer(sp).eer == pytest.approx(0.5, abs=0.02)

    def test_degenerate_identical_scores(self):
        res = ecml.compute_eer(scored([2.0, 2.0], [2.0, 2.0]))
        assert res.eer == 0.5 and res.degenerate and res.threshold == 2.0

    def test_inverted_scores_exceed_half(self):
        # orientation is the caller's contract: no silent flipping
        res = ecml.compute_eer(scored([3.0, 4.0], [1.0, 2.0]))
        assert res.eer > 0.5

    def test_matches_brute_force_small(self):
        sp = scored([0.1, 0.4, 0.4, 0.9], [0.3, 0.5, 0.5, 1.2, 1.5])
        res = ecml.compute_eer(sp)
        eer, thr = brute_force_eer(sp)
        assert res.eer == pytest.approx(eer, abs=1e-12)
        assert res.threshold == pytest.approx(thr, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n_pos=st.integers(1, 60),
    n_neg=st.integers(1, 60),
    ties=st.booleans(),
)
def test_eer_matches_brute_force(seed, n_pos, n_neg, ties):
    rng = np.random.default_rng(seed)
    pos = rng.normal(loc=0.0, size=n_pos)
    neg = rng.normal(loc=1.0, size=n_neg)
    if ties:
        pos = np.round(pos * 4) / 4
        neg = np.round(neg * 4) / 4
    sp = scored(pos, neg)
    res = ecml.compute_eer(sp)
    eer, thr = brute_force_eer(sp)
    assert res.eer == pytest.approx(eer, abs=1e-9)
    assert res.threshold == pytest.approx(thr, abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_eer_rank_statistic(seed):
    rng = np.random.default_rng(seed)
    sp = scored(rng.normal(size=30), rng.normal(loc=0.6, size=30))
    base = ecml.compute_eer(sp).eer
    warped = ecml.ScoredPairs(scores=np.exp(0.5 * sp.scores) + 3.0, labels=sp.labels)
    assert ecml.compute_eer(warped).eer == pytest.approx(base, abs=1e-12)


class TestKlDivergence:
    def test_identical_distributions_near_zero(self):
        rng = np.random.default_rng(5)
        sp = scored(rng.normal(size=100_000), rng.normal(size=100_000))
        assert ecml.kl_divergence(sp, bins=100) <= 0.01

    def test_separated_gaussians_match_analytic(self):
        # analytic KL for equal-variance gaussians is (mu1-mu2)^2 / 2 = 4.5;
        # the histogram estimator needs coarse bins to stay unbiased once the
        # tails stop overlapping (smoothed empty bins explode the log ratio)
        rng = np.random.default_rng(3)
        sp = scored(rng.normal(0.0, 1.0, 100_000), rng.normal(3.0, 1.0, 100_000))
        kl = ecml.kl_divergence(sp, bins=10)
        assert abs(kl - 4.5) <= 0.15 * 4.5

    def test_asymmetry(self):
        rng = np.random.default_rng(11)
        a = rng.normal(0.0, 0.5, 20_000)
        b = rng.normal(1.0, 2.0, 20_000)
        forward = ecml.kl_divergence(scored(a, b), bins=50)
        backward = ecml.kl_divergence(scored(b, a), bins=50)
        assert abs(forward - backward) > 1e-3

    def test_shared_affine_rescaling_invariant(self):
        rng = np.random.default_rng(13)
        pos = rng.normal(0.0, 1.0, 5_000)
        neg = rng.normal(1.5, 1.2, 5_000)
        base = ecml.kl_divergence(scored(pos, neg), bins=40)
        moved = ecml.kl_divergence(scored(pos * 7.5 - 2.0, neg * 7.5 - 2.0), bins=40)
        assert moved == pytest.approx(base, rel=1e-9)

    def test_needs_two_distinct_scores(self):
        with pytest.raises(ValidationError):
            ecml.kl_divergence(scored([1.0], [1.0]), bins=10)

    def test_bad_bins(self):
        with pytest.raises(ValidationError):
            ecml.kl_divergence(scored([1.0], [2.0]), bins=0)


@pytest.mark.parametrize("bins", [2.5, 2.0])
@pytest.mark.parametrize("entry", ["evaluate", "build_report", "kl_divergence"])
def test_non_integer_bins_rejected(entry, bins):
    feats, _, pairs = clustered_problem(seed=5, dim=8)
    model = ecml.CascadeModel((), ecml.MetricModel(np.eye(8), "rmml"), 8, 0)
    calls = {
        "evaluate": lambda: ecml.evaluate(model, feats, pairs, bins=bins),
        "build_report": lambda: ecml.build_report(scored([1.0], [2.0]), bins=bins),
        "kl_divergence": lambda: ecml.kl_divergence(scored([1.0], [2.0]), bins=bins),
    }
    with pytest.raises(ValidationError) as info:
        calls[entry]()
    assert str(info.value) == f"bins must be an integer, got {bins}"


class TestReport:
    def test_build_report_fields(self):
        sp = scored([0.1, 0.2, 0.3], [0.8, 0.9, 1.0])
        report = ecml.build_report(sp, bins=10)
        assert report.eer == 0.0
        assert report.kl_pos_neg >= 0.0
        assert report.roc.shape[1] == 3

    def test_roc_far_non_increasing_in_emitted_order(self):
        rng = np.random.default_rng(17)
        sp = scored(rng.normal(size=200), rng.normal(loc=1.0, size=200))
        report = ecml.build_report(sp, bins=20)
        far = report.roc[:, 1]
        assert (np.diff(far) <= 1e-12).all()

    @pytest.mark.parametrize("first_zero", [-0.0, 0.0])
    def test_signed_zero_tie_threshold_is_first_in_pair_order(self, first_zero):
        # -0.0 == 0.0, so the two are one threshold; eleven zeros are enough
        # for a hash-based unique to keep the later sign
        zeros = [first_zero] + [-first_zero] * 10
        report = ecml.build_report(scored(zeros[:6] + [1.0, 2.0], zeros[6:] + [3.0, 4.0]))
        assert report.roc[:, 0].tolist() == [4.0, 3.0, 2.0, 1.0, 0.0]
        assert np.signbit(report.roc[-1, 0]) == np.signbit(first_zero)

    def test_degenerate_report(self):
        report = ecml.build_report(scored([1.0, 1.0], [1.0]))
        assert report.degenerate and report.eer == 0.5

    @pytest.mark.parametrize("bins", [0, -5])
    def test_degenerate_report_checks_bins(self, bins):
        # a degenerate report computes no KL, the other place bins is checked
        with pytest.raises(ValidationError) as info:
            ecml.build_report(scored([1.0, 1.0], [1.0]), bins=bins)
        assert str(info.value) == f"bins must be >= 1, got {bins}"

    def test_roundtrip_lossless(self, tmp_path):
        rng = np.random.default_rng(19)
        sp = scored(rng.normal(size=50), rng.normal(loc=1.0, size=60))
        report = ecml.build_report(sp, bins=30)
        path, roc_path = tmp_path / "rep.txt", tmp_path / "rep.roc.csv"
        ecml.save_report(report, path, roc_path=roc_path)
        back = ecml.load_report(path, roc_path=roc_path)
        assert back.eer == report.eer
        assert back.threshold == report.threshold
        assert back.kl_pos_neg == report.kl_pos_neg
        assert back.degenerate == report.degenerate
        assert np.array_equal(back.roc, report.roc)

    def test_report_without_roc(self, tmp_path):
        report = ecml.EvalReport(eer=0.25, threshold=1.5, kl_pos_neg=2.0)
        path = tmp_path / "rep.txt"
        ecml.save_report(report, path)
        back = ecml.load_report(path)
        assert back.eer == 0.25 and back.roc.shape == (0, 3)

    def test_report_field_not_a_number(self, tmp_path):
        path = tmp_path / "rep.txt"
        path.write_text("eer=abc\nthreshold=1.0\nkl=0.5\n")
        with pytest.raises(ValidationError, match="abc"):
            ecml.load_report(path)

    def test_report_file_missing(self, tmp_path):
        with pytest.raises(ValidationError, match="cannot read"):
            ecml.load_report(tmp_path / "absent.txt")

    def test_eer_validated(self):
        with pytest.raises(ValidationError):
            ecml.EvalReport(eer=1.5, threshold=0.0, kl_pos_neg=0.0)

    def test_eval_report_rejects_nan_threshold(self):
        with pytest.raises(ValidationError, match="threshold must be finite"):
            ecml.EvalReport(eer=0.1, threshold=float("nan"), kl_pos_neg=0.5)

    def test_eval_report_rejects_nan_kl(self):
        with pytest.raises(ValidationError, match="kl must be finite"):
            ecml.EvalReport(eer=0.1, threshold=1.0, kl_pos_neg=float("nan"))

    def test_loaded_infinite_threshold_rejected(self, tmp_path):
        path = tmp_path / "rep.txt"
        path.write_text("eer=0.1\nthreshold=inf\nkl=0.5\n")
        with pytest.raises(ValidationError, match="threshold must be finite"):
            ecml.load_report(path)

    def test_loaded_nan_kl_rejected(self, tmp_path):
        path = tmp_path / "rep.txt"
        path.write_text("eer=0.1\nthreshold=1.0\nkl=nan\n")
        with pytest.raises(ValidationError, match="kl must be finite"):
            ecml.load_report(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("eer=0.1\nthreshold=1.0\nkl=0.5\ndegenerate=false\nbogus=1\n",
             "line 4: unknown report field 'bogus'"),
            ("eer=0.1\nthreshold=1.0\nkl=0.5\ndegenerate=false\neer=0.2\n",
             "line 4: repeated report field 'eer'"),
            ("eer=0.1\nthreshold=1.0\nkl=0.5\n", "missing report field 'degenerate'"),
            ("eer=0.1\nthreshold=1.0\nkl=0.5\ndegenerate=ture\n",
             "degenerate must be true or false, got 'ture'"),
        ],
        ids=["unknown-key", "repeated-key", "missing-degenerate", "degenerate-not-a-bool"],
    )
    def test_report_keys_fail_closed(self, tmp_path, text, message):
        path = tmp_path / "rep.txt"
        path.write_text(text)
        with pytest.raises(ValidationError, match=message):
            ecml.load_report(path)

    def test_report_value_rejection_names_file(self, tmp_path):
        path = tmp_path / "rep.txt"
        path.write_text("eer=0.1\nthreshold=inf\nkl=0.5\ndegenerate=false\n")
        with pytest.raises(ValidationError, match=re.escape(f"{path}: threshold must be finite")):
            ecml.load_report(path)

    def test_non_finite_roc_cell_rejected(self, tmp_path):
        path, roc_path = tmp_path / "rep.txt", tmp_path / "rep.roc.csv"
        path.write_text("eer=0.1\nthreshold=1.0\nkl=0.5\n")
        roc_path.write_text("threshold,far,frr\n2.0,0.5,0.0\nnan,0.5,inf\n")
        with pytest.raises(ValidationError, match="line 2: non-finite value nan at row 1, column 0"):
            ecml.load_report(path, roc_path=roc_path)

    def test_header_only_roc_loads_empty(self, tmp_path):
        report = ecml.EvalReport(eer=0.25, threshold=1.5, kl_pos_neg=2.0)
        path, roc_path = tmp_path / "rep.txt", tmp_path / "rep.roc.csv"
        ecml.save_report(report, path, roc_path=roc_path)
        assert roc_path.read_text() == "threshold,far,frr\n"
        assert ecml.load_report(path, roc_path=roc_path).roc.shape == (0, 3)

    def test_operating_points_computed_once(self, monkeypatch):
        calls = []
        points = ecml.evaluation._operating_points
        monkeypatch.setattr(
            ecml.evaluation, "_operating_points", lambda sp: calls.append(1) or points(sp)
        )
        report = ecml.build_report(scored([0.1, 0.5, 0.2], [0.4, 0.9]), bins=5)
        assert len(calls) == 1
        assert report.eer == ecml.compute_eer(scored([0.1, 0.5, 0.2], [0.4, 0.9])).eer

    def test_degenerate_report_roc_row(self):
        report = ecml.build_report(scored([2.0, 2.0], [2.0]))
        assert report.kl_pos_neg == 0.0 and report.threshold == 2.0
        assert report.roc.tolist() == [[2.0, 0.0, 0.0]]
