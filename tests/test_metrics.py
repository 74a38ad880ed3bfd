"""Tests for difference-space statistics and the metric learners."""

import dataclasses
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ecml
from ecml import _linalg, metrics
from ecml._linalg import SYMMETRY_TILE, is_symmetric, symmetrize
from ecml.errors import NumericalError, SingularCovariance, ValidationError

from conftest import clustered_problem, make_stats


def stats_from_diffs(pos, neg):
    pos = np.atleast_2d(np.asarray(pos, dtype=float))
    neg = np.atleast_2d(np.asarray(neg, dtype=float))
    return ecml.DifferenceStats(
        sum_pos=pos.T @ pos,
        sum_neg=neg.T @ neg,
        n_pos=len(pos),
        n_neg=len(neg),
    )


def naive_stats(feats, pairs):
    """Per-pair summation of d d^T and d^T d, one class at a time."""
    dim = feats.dim
    sums = {1: np.zeros((dim, dim)), 0: np.zeros((dim, dim))}
    traces = {1: 0.0, 0: 0.0}
    for a, b, y in zip(pairs.i, pairs.j, pairs.y):
        d = feats.data[a] - feats.data[b]
        sums[y] += np.outer(d, d)
        traces[y] += d @ d
    return sums[1], sums[0], traces[1], traces[0]


def assert_matches_oracle(feats, pairs, stats):
    sum_pos, sum_neg, tr_pos, tr_neg = naive_stats(feats, pairs)
    scale = max(1.0, np.abs(sum_pos).max(), np.abs(sum_neg).max())
    assert np.abs(stats.sum_pos - sum_pos).max() <= 1e-9 * scale
    assert np.abs(stats.sum_neg - sum_neg).max() <= 1e-9 * scale
    assert abs(stats.tr_pos - tr_pos) <= 1e-9 * max(1.0, tr_pos)
    assert abs(stats.tr_neg - tr_neg) <= 1e-9 * max(1.0, tr_neg)


def sequential_class_sum(x, pairs, label):
    """One class's d d^T sum, chunk products added in order on this thread."""
    idx = np.flatnonzero(pairs.y == label)
    total = None
    for start in range(0, idx.size, metrics.STATS_CHUNK):
        k = idx[start : start + metrics.STATS_CHUNK]
        d = x[pairs.i[k]] - x[pairs.j[k]]
        total = d.T @ d if total is None else total + d.T @ d
    return total


def random_pairs(rng, n, labels):
    """Pairs over ``n`` samples with the given labels, never joining a sample to itself."""
    i = rng.integers(0, n, labels.size)
    j = (i + rng.integers(1, n, labels.size)) % n
    return ecml.PairSet(i, j, labels)


class TestAccumulateStats:
    def test_single_outer_product(self):
        feats = ecml.FeatureMatrix([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        pairs = ecml.PairSet([0, 0], [1, 2], [1, 0])
        stats = ecml.accumulate_stats(feats, pairs)
        assert np.array_equal(stats.sum_pos, [[1.0, 0.0], [0.0, 0.0]])
        assert stats.tr_pos == 1.0
        assert stats.n_pos == 1 and stats.n_neg == 1

    def test_swap_invariance(self, rng):
        feats, _, pairs = clustered_problem(seed=5)
        swapped = ecml.PairSet(pairs.j, pairs.i, pairs.y)
        a = ecml.accumulate_stats(feats, pairs)
        b = ecml.accumulate_stats(feats, swapped)
        assert np.allclose(a.sum_pos, b.sum_pos, atol=0)
        assert np.allclose(a.sum_neg, b.sum_neg, atol=0)

    def test_matches_naive_oracle(self, rng):
        feats, _, pairs = clustered_problem(seed=7, count=500)
        assert_matches_oracle(feats, pairs, ecml.accumulate_stats(feats, pairs))

    @pytest.mark.parametrize(
        "size",
        [metrics.STATS_CHUNK - 1, metrics.STATS_CHUNK, metrics.STATS_CHUNK + 1,
         2 * metrics.STATS_CHUNK + 3],
    )
    def test_chunked_sums_match_naive_oracle(self, size):
        # both classes hold `size` pairs, interleaved
        rng = np.random.default_rng(size)
        feats = ecml.FeatureMatrix(rng.normal(size=(60, 5)))
        pairs = random_pairs(rng, 60, rng.permutation(np.repeat([1, 0], size)))
        stats = ecml.accumulate_stats(feats, pairs)
        assert stats.n_pos == stats.n_neg == size
        assert_matches_oracle(feats, pairs, stats)
        again = ecml.accumulate_stats(feats, pairs)
        assert np.array_equal(again.sum_pos, stats.sum_pos)
        assert np.array_equal(again.sum_neg, stats.sum_neg)
        assert (again.tr_pos, again.tr_neg) == (stats.tr_pos, stats.tr_neg)

    def test_peak_allocation_independent_of_pair_count(self):
        # all differences at once would take 2 * count * dim * 8 bytes (82 MB)
        rng = np.random.default_rng(3)
        count, dim = 20_000, 256
        feats = ecml.FeatureMatrix(rng.normal(size=(400, dim)))
        pairs = random_pairs(rng, 400, np.arange(count) % 2)
        tracemalloc.start()
        try:
            ecml.accumulate_stats(feats, pairs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        bound = 8 * (4 * metrics.STATS_CHUNK * dim + 4 * dim * dim)
        assert peak <= bound < 2 * count * dim * 8

    def test_order_independent(self, rng):
        feats, _, pairs = clustered_problem(seed=8, count=400)
        perm = rng.permutation(len(pairs))
        shuffled = ecml.PairSet(pairs.i[perm], pairs.j[perm], pairs.y[perm])
        a = ecml.accumulate_stats(feats, pairs)
        b = ecml.accumulate_stats(feats, shuffled)
        scale = max(1.0, np.abs(a.sum_pos).max())
        assert np.abs(a.sum_pos - b.sum_pos).max() <= 1e-9 * scale

    def test_out_of_range_index(self):
        feats = ecml.FeatureMatrix(np.ones((2, 2)))
        pairs = ecml.PairSet([0, 1], [1, 5], [1, 0])
        with pytest.raises(ValidationError, match="out of range"):
            ecml.accumulate_stats(feats, pairs)

    @pytest.mark.parametrize(
        "n_pos, n_neg",
        [
            (1, metrics.STATS_CHUNK),
            (metrics.STATS_CHUNK, 1),
            (metrics.STATS_CHUNK + 1, 2 * metrics.STATS_CHUNK + 3),
            (2 * metrics.STATS_CHUNK + 3, metrics.STATS_CHUNK + 1),
            (1, 5000),
            (5000, 1),
        ],
    )
    def test_concurrent_sums_bitwise_equal_sequential_reference(self, n_pos, n_neg):
        # the last column is zero padding, with some entries negative zero
        rng = np.random.default_rng(n_pos * 7919 + n_neg)
        data = np.concatenate([rng.normal(size=(50, 7)), np.zeros((50, 1))], axis=1)
        data[::3, -1] = -0.0
        feats = ecml.FeatureMatrix(data)
        pairs = random_pairs(rng, 50, rng.permutation(np.repeat([1, 0], [n_pos, n_neg])))
        stats = ecml.accumulate_stats(feats, pairs)
        for label, got in ((1, stats.sum_pos), (0, stats.sum_neg)):
            want = sequential_class_sum(feats.data, pairs, label)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert (stats.n_pos, stats.n_neg) == (n_pos, n_neg)

    def test_class_sum_allocates_no_arrays(self):
        # allocations made while both threads sum would make the heap layout,
        # and so the peak RSS, depend on how the threads interleave
        rng = np.random.default_rng(4)
        x = rng.normal(size=(300, 256))
        pairs = random_pairs(rng, 300, np.arange(3 * metrics.STATS_CHUNK) % 2)
        args = metrics._class_buffers(x, pairs, 1)
        tracemalloc.start()
        try:
            metrics._class_sum(x, *args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 256 * 8 // 4  # a quarter of one 64-row difference block

    @pytest.mark.parametrize("count, width", [
        (1, 96), (metrics.STATS_CHUNK, 96), (metrics.STATS_CHUNK + 1, 96),
        (1, 8), (metrics.STATS_CHUNK + 1, 8),
    ])
    def test_subtracted_rows_share_the_product_block(self, count, width):
        # sub lives in the block that each chunk's product overwrites next: prod,
        # or total when one chunk holds the class; never in the running total.
        # Below SUB_ROWS columns that block has too few rows, and sub is its own
        rng = np.random.default_rng(count)
        x = rng.normal(size=(60, width))
        pairs = random_pairs(rng, 60, np.arange(2 * count) % 2)
        _, _, gather, sub, total, prod = metrics._class_buffers(x, pairs, 1)
        assert (prod is None) == (count <= metrics.STATS_CHUNK)
        assert sub.shape == (metrics.SUB_ROWS, width)
        shared = np.shares_memory(sub, total if prod is None else prod)
        assert shared == (width >= metrics.SUB_ROWS)
        assert prod is None or not np.shares_memory(sub, total)
        assert not np.shares_memory(sub, gather)

    def test_free_heap_released_once_worker_joined(self, monkeypatch):
        # which freed heap blocks stay resident depends on how the two threads
        # interleaved; handing them back keeps the fit's peak RSS repeatable
        counts = []
        monkeypatch.setattr(
            metrics, "_release_free_heap", lambda: counts.append(threading.active_count())
        )
        feats, _, pairs = clustered_problem(seed=11, count=300)
        before = threading.active_count()
        ecml.accumulate_stats(feats, pairs)
        assert counts == [before]

    @pytest.mark.parametrize("failing_label", [1, 0, "both"])
    def test_class_failure_reaches_caller_and_joins_worker(self, monkeypatch, failing_label):
        # label 1 is summed on the worker thread, label 0 on the calling
        # thread, whose exception wins when both fail
        failing = [1, 0] if failing_label == "both" else [failing_label]
        real = metrics._class_sum

        def class_sum(x, first, *buffers):
            for label in failing:
                if np.array_equal(first, pairs.i[pairs.y == label]):
                    raise FloatingPointError(f"class {label} failed")
            real(x, first, *buffers)

        monkeypatch.setattr(metrics, "_class_sum", class_sum)
        feats, _, pairs = clustered_problem(seed=10, count=300)
        caught = []

        def call():
            try:
                ecml.accumulate_stats(feats, pairs)
            except FloatingPointError as exc:
                caught.append(exc)

        before = threading.active_count()
        runner = threading.Thread(target=call)
        runner.start()
        runner.join(timeout=60)
        assert not runner.is_alive()
        assert [str(exc) for exc in caught] == [f"class {failing[-1]} failed"]
        assert threading.active_count() == before


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    dim=st.integers(1, 8),
    rank=st.integers(1, 8),
    count=st.integers(2, 2 * metrics.STATS_CHUNK + 3),
    log_scale=st.floats(-3.0, 3.0),
)
def test_accumulated_stats_pass_public_checks(seed, dim, rank, count, log_scale):
    # accumulate_stats skips the PSD check; its fields must still pass it
    rng = np.random.default_rng(seed)
    rank = min(rank, dim)
    data = rng.normal(size=(30, rank)) @ rng.normal(scale=10.0**log_scale, size=(rank, dim))
    labels = rng.permutation(np.arange(count) % 2)
    stats = ecml.accumulate_stats(ecml.FeatureMatrix(data), random_pairs(rng, 30, labels))
    fields = {f.name: getattr(stats, f.name) for f in dataclasses.fields(stats)}
    ecml.DifferenceStats(**fields)


class TestDifferenceStatsInvariants:
    def test_rejects_asymmetric(self):
        bad = np.asarray([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(ValidationError, match="symmetric"):
            ecml.DifferenceStats(bad, np.eye(2), 1, 1)

    def test_rejects_indefinite(self):
        bad = np.diag([1.0, -1.0])
        with pytest.raises(ValidationError, match="PSD"):
            ecml.DifferenceStats(bad, np.eye(2), 1, 1)

    def test_rejects_missing_class(self):
        with pytest.raises(ValidationError):
            ecml.DifferenceStats(np.eye(2), np.eye(2), 0, 1)

    def test_rejects_counts_int64_would_change(self):
        # an integral float is refused too, as every other count argument refuses it
        for count in (2.5, 2.0):
            message = f"n_pos must be an integer >= 1, got {count}"
            with pytest.raises(ValidationError, match=message):
                ecml.DifferenceStats(np.eye(2), np.eye(2), count, 3)


class TestMetricModel:
    def test_asymmetric_overflow_rejected(self):
        # finite entries whose mean overflows: the check runs after symmetrizing
        m = np.asarray([[0.0, 1e308], [1.7e308, 0.0]])
        with pytest.raises(ValidationError, match="non-finite"):
            ecml.MetricModel(matrix=m, learner="x")
        with pytest.raises(ValidationError, match="non-finite"):
            ecml.mcd(m)

    def test_symmetric_extremes_kept_exactly(self):
        m = np.full((2, 2), 1e308)
        assert np.array_equal(ecml.MetricModel(matrix=m, learner="x").matrix, m)

    def test_symmetrize_skips_only_bitwise_symmetric(self):
        # a +0.0 / -0.0 pair compares equal but is not bitwise symmetric; the
        # formula, which makes both +0.0, must still run on it
        m = np.asarray([[1.0, 0.0], [-0.0, 2.0]])
        got = symmetrize(m)
        assert np.array_equal(got.view(np.uint64), (0.5 * (m + m.T)).view(np.uint64))
        sym = np.asarray([[1.0, -0.0], [-0.0, 5e-324]])
        assert symmetrize(sym) is sym

    @pytest.mark.parametrize("learner", metrics.LEARNER_NAMES)
    def test_learner_matrix_kept_uncopied(self, learner, monkeypatch):
        # each learner's matrix, or its symmetrized form, is built fresh and
        # read-only, so MetricModel keeps it as it is
        feats, _, pairs = clustered_problem(seed=11)
        stats = ecml.accumulate_stats(feats, pairs)
        freeze = _linalg.freeze_array
        copied = []

        def tracking_freeze(arr):
            out = freeze(arr)
            if out is not arr:
                copied.append(arr.shape)
            return out

        monkeypatch.setattr(_linalg, "freeze_array", tracking_freeze)
        model = ecml.make_learner(learner)(stats)
        assert copied == [] and not model.matrix.flags.writeable


class TestIsSymmetric:
    """The tiled bitwise test against one comparison of the whole matrix with its transpose."""

    @staticmethod
    def reference(m):
        bits = m.view(np.uint64)
        return np.array_equal(bits, bits.T)

    @pytest.mark.parametrize("w", [1, 2, SYMMETRY_TILE - 1, SYMMETRY_TILE, SYMMETRY_TILE + 1, 300])
    def test_symmetric_widths(self, rng, w):
        a = rng.normal(size=(w, w))
        m = a + a.T
        assert self.reference(m) and is_symmetric(m)

    @pytest.mark.parametrize("w", [2, SYMMETRY_TILE + 1, 300])
    def test_every_single_mismatch_found(self, rng, w):
        a = rng.normal(size=(w, w))
        m = a + a.T
        # first and last row and column, the last partial tile, and an
        # off-diagonal tile well inside the matrix
        cells = {(0, w - 1), (w - 1, 0), (w - 1, w - 2), (w // 2, 1), (1, w // 2)}
        for i, j in (c for c in cells if c[0] != c[1]):
            bad = m.copy()
            bad[i, j] = np.nextafter(bad[i, j], np.inf)
            assert not self.reference(bad) and not is_symmetric(bad), (i, j)

    def test_one_mismatch_in_an_off_diagonal_tile(self, rng):
        w = 2 * SYMMETRY_TILE + 44
        a = rng.normal(size=(w, w))
        m = a + a.T
        m[SYMMETRY_TILE + 5, 3] += 1.0  # tile (1, 0); its mirror (0, 1) is unchanged
        assert not is_symmetric(m)

    def test_signed_zeros_differ(self):
        w = SYMMETRY_TILE + 3
        m = np.zeros((w, w))
        m[w - 1, 2] = -0.0
        assert not is_symmetric(m)
        m[2, w - 1] = -0.0
        assert is_symmetric(m)

    def test_non_square_is_not_symmetric(self):
        assert not is_symmetric(np.zeros((3, 4)))
        assert not is_symmetric(np.zeros((SYMMETRY_TILE + 1, SYMMETRY_TILE)))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), w=st.integers(1, 2 * SYMMETRY_TILE + 3),
           flips=st.integers(0, 2))
    def test_matches_reference(self, seed, w, flips):
        r = np.random.default_rng(seed)
        a = r.normal(size=(w, w))
        m = a + a.T
        for _ in range(flips):
            i, j = r.integers(0, w, size=2)
            m[i, j] = -m[i, j] if m[i, j] != 0.0 else -0.0
        assert is_symmetric(m) == self.reference(m)


class TestFitRmml:
    def test_lambda_zero_gives_identity(self, rng):
        stats = make_stats(rng, 6)
        model = ecml.fit_rmml(stats, 0.0)
        assert np.array_equal(model.matrix, np.eye(6))
        assert model.learner == "rmml" and model.lam == 0.0

    def test_hand_example(self):
        stats = ecml.DifferenceStats(
            sum_pos=np.asarray([[1.0, 0.0], [0.0, 0.0]]),
            sum_neg=np.asarray([[0.0, 0.0], [0.0, 1.0]]),
            n_pos=1,
            n_neg=1,
        )
        model = ecml.fit_rmml(stats, 0.5)
        # contrast diag(-1, 1); mean |eigenvalue| is 1 by the eigensolver oracle
        contrast = stats.sum_neg / stats.tr_neg - stats.sum_pos / stats.tr_pos
        assert np.allclose(np.abs(np.linalg.eigvalsh(contrast)).mean(), 1.0, atol=1e-12)
        assert model.rho == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(model.matrix, np.diag([0.5, 1.5]), atol=1e-12)

    def test_unnormalized_solution_is_stationary(self, rng):
        # finite differences of the objective vanish at M = I + lam * C
        stats = make_stats(rng, 5)
        lam = 0.7
        contrast = stats.sum_neg / stats.tr_neg - stats.sum_pos / stats.tr_pos
        m = np.eye(5) + lam * contrast
        h = 1e-6
        grad = np.zeros_like(m)
        for a in range(5):
            for b in range(5):
                e = np.zeros_like(m)
                e[a, b] = h
                grad[a, b] = (
                    ecml.objective(stats, m + e, lam) - ecml.objective(stats, m - e, lam)
                ) / (2 * h)
        assert np.abs(grad).max() <= 1e-6

    def test_degenerate_matched_pairs(self):
        # all matched differences are zero: 0/0 is taken as 0, so the contrast
        # is the unmatched scatter S / tr alone, here I / 2 with rho 0.5
        stats = ecml.DifferenceStats(np.zeros((2, 2)), np.eye(2), 1, 1)
        model = ecml.fit_rmml(stats, 0.5)
        scatter = stats.sum_neg / stats.tr_neg
        rho = np.abs(np.linalg.eigvalsh(scatter)).mean()
        assert model.rho == pytest.approx(rho, abs=1e-12)
        assert np.allclose(model.matrix, np.eye(2) + 0.5 * scatter / rho, atol=1e-12)
        # and likewise with the classes swapped, the matched scatter subtracted
        swapped = ecml.fit_rmml(ecml.DifferenceStats(np.eye(2), np.zeros((2, 2)), 1, 1), 0.5)
        assert np.allclose(swapped.matrix, np.eye(2) - 0.5 * scatter / rho, atol=1e-12)

    @pytest.mark.parametrize("sums", [(np.eye(2), np.eye(2)), (np.zeros((2, 2)),) * 2],
                             ids=["equal-classes", "all-zero"])
    def test_zero_contrast_gives_identity(self, sums):
        # the objective's gradient at a zero contrast is M - I: its minimizer is I,
        # and no normalizer is applied
        stats = ecml.DifferenceStats(*sums, 1, 1)
        model = ecml.fit_rmml(stats, 0.5)
        assert np.array_equal(model.matrix, np.eye(2)) and model.rho is None
        assert (model.learner, model.lam) == ("rmml", 0.5)
        assert ecml.objective(stats, model.matrix, 0.5) == 0.0

    def test_contrast_below_rho_floor_gives_identity(self):
        tiny = np.diag([1e-13, 0.0])
        stats = ecml.DifferenceStats(np.eye(2) - tiny, np.eye(2) + tiny, 1, 1)
        model = ecml.fit_rmml(stats, 0.5)
        assert np.array_equal(model.matrix, np.eye(2)) and model.rho is None

    def test_negative_lambda_rejected(self, rng):
        with pytest.raises(ValidationError):
            ecml.fit_rmml(make_stats(rng, 3), -0.1)

    @pytest.mark.parametrize("lam", [float("nan"), float("inf")])
    def test_non_finite_lambda_rejected(self, rng, lam):
        with pytest.raises(ValidationError, match="lambda"):
            ecml.fit_rmml(make_stats(rng, 3), lam)

    def test_pair_order_invariance(self, rng):
        feats, _, pairs = clustered_problem(seed=13, count=500)
        perm = rng.permutation(len(pairs))
        shuffled = ecml.PairSet(pairs.i[perm], pairs.j[perm], pairs.y[perm])
        a = ecml.fit_rmml(ecml.accumulate_stats(feats, pairs), 0.5)
        b = ecml.fit_rmml(ecml.accumulate_stats(feats, shuffled), 0.5)
        assert np.abs(a.matrix - b.matrix).max() <= 1e-9

    def test_feature_scale_invariance(self, rng):
        feats, _, pairs = clustered_problem(seed=14, count=500)
        scaled = ecml.FeatureMatrix(feats.data * 37.5)
        a = ecml.fit_rmml(ecml.accumulate_stats(feats, pairs), 0.5)
        b = ecml.fit_rmml(ecml.accumulate_stats(scaled, pairs), 0.5)
        assert np.abs(a.matrix - b.matrix).max() <= 1e-8

    def test_no_inversion_on_rmml_path(self, rng, monkeypatch):
        # structural check: breaking every inversion entry point leaves rmml intact
        def boom(*args, **kwargs):
            raise RuntimeError("inversion path exercised")

        monkeypatch.setattr(metrics, "_spd_inverse", boom)
        monkeypatch.setattr(np.linalg, "inv", boom)
        monkeypatch.setattr(np.linalg, "solve", boom)
        monkeypatch.setattr(np.linalg, "cholesky", boom)
        stats = make_stats(rng, 4)
        ecml.fit_rmml(stats, 0.5)
        with pytest.raises(RuntimeError, match="inversion path"):
            ecml.fit_kissme(stats)


class TestFitKissme:
    def test_equal_stats_cancel(self):
        stats = ecml.DifferenceStats(np.eye(3), np.eye(3), 1, 1)
        model = ecml.fit_kissme(stats)
        assert np.abs(model.matrix).max() <= 1e-12
        assert model.learner == "kissme" and model.lam is None

    def test_diagonal_example(self):
        stats = ecml.DifferenceStats(
            np.diag([1.0, 2.0]), np.diag([2.0, 1.0]), 1, 1
        )
        model = ecml.fit_kissme(stats)
        assert np.allclose(model.matrix, np.diag([0.5, -0.5]), atol=1e-12)

    def test_rank_deficient_raises(self):
        # 3 identical matched differences in 10 dims: rank-1 covariance
        d = np.ones((3, 10))
        neg = np.random.default_rng(0).normal(size=(40, 10))
        stats = stats_from_diffs(d, neg)
        with pytest.raises(SingularCovariance, match="matched"):
            ecml.fit_kissme(stats)

    def test_gaussian_recovery_medium(self, rng):
        pos = rng.normal(size=(20_000, 4))
        neg = rng.normal(scale=2.0, size=(20_000, 4))
        model = ecml.fit_kissme(stats_from_diffs(pos, neg))
        assert np.abs(model.matrix - 0.75 * np.eye(4)).max() <= 0.08

    def test_same_data_succeeds_under_rmml(self):
        d = np.ones((3, 10))
        neg = np.random.default_rng(0).normal(size=(40, 10))
        stats = stats_from_diffs(d, neg)
        model = ecml.fit_rmml(stats, 0.5)
        assert np.isfinite(model.matrix).all()


class TestGenuineBaseline:
    def test_identity(self):
        stats = ecml.DifferenceStats(np.eye(2), np.eye(2), 1, 1)
        assert np.allclose(ecml.fit_genuine_baseline(stats).matrix, np.eye(2), atol=1e-12)

    def test_diagonal(self):
        stats = ecml.DifferenceStats(np.diag([4.0, 1.0]), np.eye(2), 1, 1)
        assert np.allclose(
            ecml.fit_genuine_baseline(stats).matrix, np.diag([0.25, 1.0]), atol=1e-12
        )

    def test_random_spd_inverse(self, rng):
        a = rng.normal(size=(30, 6))
        stats = stats_from_diffs(a, rng.normal(size=(30, 6)))
        model = ecml.fit_genuine_baseline(stats)
        sigma = stats.sum_pos / stats.n_pos
        assert np.abs(model.matrix @ sigma - np.eye(6)).max() <= 1e-8


class TestObjective:
    def test_identity_has_zero_regularizer(self, rng):
        stats = make_stats(rng, 4)
        lam = 0.9
        g1 = np.trace(stats.sum_pos) / stats.tr_pos - np.trace(stats.sum_neg) / stats.tr_neg
        assert ecml.objective(stats, np.eye(4), lam) == pytest.approx(lam * g1, rel=1e-12)

    def test_lambda_zero_is_regularizer_only(self, rng):
        stats = make_stats(rng, 4)
        m = rng.normal(size=(4, 4))
        expected = 0.5 * ((m - np.eye(4)) ** 2).sum()
        assert ecml.objective(stats, m, 0.0) == pytest.approx(expected, rel=1e-12)

    def test_matches_per_pair_oracle(self, rng):
        feats, _, pairs = clustered_problem(seed=21, dim=5, count=200)
        stats = ecml.accumulate_stats(feats, pairs)
        m = rng.normal(size=(5, 5))
        m = 0.5 * (m + m.T)
        lam = 0.8
        # brute force over raw pairs
        num_pos = den_pos = num_neg = den_neg = 0.0
        for a, b, y in zip(pairs.i, pairs.j, pairs.y):
            d = feats.data[a] - feats.data[b]
            if y == 1:
                num_pos += d @ m @ d
                den_pos += d @ d
            else:
                num_neg += d @ m @ d
                den_neg += d @ d
        expected = lam * (num_pos / den_pos - num_neg / den_neg)
        expected += 0.5 * ((m - np.eye(5)) ** 2).sum()
        got = ecml.objective(stats, m, lam)
        assert got == pytest.approx(expected, rel=1e-9)

    def test_minimizer_beats_perturbations(self, rng):
        stats = make_stats(rng, 6)
        lam = 0.6
        contrast = stats.sum_neg / stats.tr_neg - stats.sum_pos / stats.tr_pos
        m = np.eye(6) + lam * contrast
        base = ecml.objective(stats, m, lam)
        for _ in range(50):
            e = rng.normal(size=(6, 6))
            e = 0.5 * (e + e.T)
            e *= 0.1 / np.linalg.norm(e)
            assert base <= ecml.objective(stats, m + e, lam) + 1e-12


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), t=st.floats(0.01, 0.99))
def test_objective_convexity(seed, t):
    rng = np.random.default_rng(seed)
    stats = make_stats(rng, 4)
    lam = float(rng.uniform(0.0, 2.0))
    m1 = rng.normal(size=(4, 4))
    m2 = rng.normal(size=(4, 4))
    lhs = ecml.objective(stats, t * m1 + (1 - t) * m2, lam)
    rhs = t * ecml.objective(stats, m1, lam) + (1 - t) * ecml.objective(stats, m2, lam)
    assert lhs <= rhs + 1e-9


class TestMakeLearner:
    def test_known_names(self, rng):
        stats = make_stats(rng, 3)
        assert ecml.make_learner("rmml", 0.2)(stats).learner == "rmml"
        assert ecml.make_learner("kissme")(stats).learner == "kissme"
        assert ecml.make_learner("genuine-baseline")(stats).learner == "genuine-baseline"

    def test_unknown_name(self):
        with pytest.raises(ValidationError, match="unknown learner"):
            ecml.make_learner("xqda")

    def test_rmml_default_lambda(self, rng):
        stats = make_stats(rng, 3)
        assert ecml.make_learner("rmml")(stats).lam == ecml.DEFAULT_LAMBDA

    @pytest.mark.parametrize("name", ["rmml", "kissme", "genuine-baseline"])
    @pytest.mark.parametrize("lam", [-0.1, float("nan"), float("inf")])
    def test_bad_lambda_rejected_for_every_learner(self, name, lam):
        with pytest.raises(ValidationError, match="lambda"):
            ecml.make_learner(name, lam)


def _no_convergence(a):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


_STATS = make_stats(np.random.default_rng(0), 3)  # built before any eigen solve is patched


@pytest.mark.parametrize("call, error, what", [
    (lambda: ecml.fit_rmml(_STATS), NumericalError, "contrast matrix"),
    (lambda: ecml.DifferenceStats(_STATS.sum_pos, _STATS.sum_neg, 1, 1), NumericalError,
     "matched sum matrix"),
    (lambda: ecml.fit_pca(ecml.FeatureMatrix(np.arange(12.0).reshape(4, 3) ** 2), 2),
     NumericalError, "covariance"),
    (lambda: ecml.mcd(np.eye(3)), NumericalError, "3x3 matrix"),
    (lambda: ecml.fit_kissme(_STATS), SingularCovariance, "matched covariance"),
], ids=["rmml", "stats", "pca", "mcd", "kissme"])
def test_eigen_failure_is_numerical(monkeypatch, call, error, what):
    # a LAPACK failure in any eigen solve names the matrix it was solving
    monkeypatch.setattr(np.linalg, "eigh", _no_convergence)
    monkeypatch.setattr(np.linalg, "eigvalsh", _no_convergence)
    with pytest.raises(error, match=f"{what}.* did not converge"):
        call()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_overflowing_sums_are_numerical():
    # finite features whose differences square past the float range
    feats, _, pairs = clustered_problem(seed=3)
    huge = ecml.FeatureMatrix(feats.data * 1e160)
    with pytest.raises(NumericalError, match=r"^matched difference sums overflowed: entry \["):
        ecml.accumulate_stats(huge, pairs)


@pytest.mark.parametrize("build, message", [
    (lambda: ecml.FeatureMatrix([[1.0, np.nan]]), "non-finite feature value at row 0, column 1"),
    (lambda: ecml.DifferenceStats([[np.nan]], [[1.0]], 1, 1),
     "matched sum matrix has non-finite entries"),
    (lambda: ecml.MetricModel([[np.nan]], "rmml"), "metric matrix has non-finite entries"),
    (lambda: ecml.ScoredPairs([np.nan, 1.0], [1, 0]), "score vector has non-finite entries"),
], ids=["features", "stats", "metric", "scores"])
def test_non_finite_input_stays_a_validation_error(build, message):
    # the records check input: a NaN handed to them is malformed input, not an overflow
    with pytest.raises(ValidationError) as info:
        build()
    assert str(info.value) == message
