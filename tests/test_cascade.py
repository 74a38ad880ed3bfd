"""Tests for the spectral projection, stage fitting, cascade, and persistence."""

import builtins
import itertools
import re
import struct
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ecml
from ecml.cascade import _fit_stage, _map_groups, _padded_width, _shuffle, _sqrt_norm
from ecml.errors import SingularCovariance, ValidationError
from ecml.features import ROW_BLOCK

from conftest import clustered_problem, run_python
from sweep import split_pairs


def fit_stage(feats, pairs, n_groups, learner, rng):
    """One stage fitted from its input as ``fit_cascade`` fits it, drawing the permutation from ``rng``."""
    perm = rng.permutation(_padded_width(feats.dim, n_groups))
    return _fit_stage(_shuffle(feats.data, perm), perm, pairs, n_groups, learner)


def identity_learner(stats):
    return ecml.MetricModel(matrix=np.eye(stats.dim), learner="fixed-identity")


def random_learner(stats):
    """A symmetric metric drawn from the width alone, so that every product has nontrivial bits."""
    a = np.random.default_rng(stats.dim).normal(size=(stats.dim, stats.dim))
    return ecml.MetricModel(matrix=a + a.T, learner="fixed-random")


def random_stage(rng, width, groups):
    g = width // groups
    projections = tuple(ecml.Projection(rng.normal(size=(g, g)) / g, 0) for _ in range(groups))
    return ecml.StageModel(rng.permutation(width), projections)


@pytest.fixture
def no_fitting(monkeypatch):
    """Fail the test as soon as the cascade accumulates any pair statistics."""

    def unreachable(*args):
        raise AssertionError("fitting started")

    monkeypatch.setattr(ecml.cascade, "accumulate_stats", unreachable)


class TestMcd:
    def test_identity(self):
        proj = ecml.mcd(np.eye(4))
        assert np.allclose(proj.p @ proj.p.T, np.eye(4), atol=1e-12)
        assert proj.clamped_count == 0

    def test_negative_eigenvalue_clamped(self):
        proj = ecml.mcd(np.diag([4.0, -1.0]))
        assert np.allclose(proj.p @ proj.p.T, np.diag([4.0, 0.0]), atol=1e-12)
        assert proj.clamped_count == 1

    def test_spectrum_matches_clamped_oracle(self, rng):
        m = rng.normal(size=(16, 16))
        m = 0.5 * (m + m.T)
        proj = ecml.mcd(m)
        got = np.sort(np.linalg.eigvalsh(proj.p @ proj.p.T))
        want = np.sort(np.clip(np.linalg.eigvalsh(m), 0.0, None))
        assert np.abs(got - want).max() <= 1e-8

    def test_psd_reconstruction_exact(self, rng):
        a = rng.normal(size=(12, 12))
        m = a @ a.T
        proj = ecml.mcd(m)
        assert np.linalg.norm(proj.p @ proj.p.T - m) <= 1e-8 * np.linalg.norm(m)
        assert proj.clamped_count == 0

    def test_jitter_below_tolerance_not_counted(self):
        proj = ecml.mcd(np.diag([1.0, -1e-12]))
        assert proj.clamped_count == 0
        assert np.allclose(proj.p @ proj.p.T, np.diag([1.0, 0.0]), atol=1e-11)

    def test_symmetrizes_input(self):
        m = np.asarray([[2.0, 1.0 + 1e-10], [1.0 - 1e-10, 2.0]])
        proj = ecml.mcd(m)
        assert np.allclose(proj.p @ proj.p.T, 0.5 * (m + m.T), atol=1e-9)

    def test_deterministic_basis(self, rng):
        m = rng.normal(size=(8, 8))
        m = m + m.T
        a = ecml.mcd(m)
        b = ecml.mcd(m.copy())
        assert np.array_equal(a.p, b.p)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), dim=st.integers(2, 12))
def test_mcd_never_negative_spectrum(seed, dim):
    rng = np.random.default_rng(seed)
    m = rng.normal(scale=3.0, size=(dim, dim))
    m = 0.5 * (m + m.T)
    proj = ecml.mcd(m)
    assert np.linalg.eigvalsh(proj.p @ proj.p.T).min() >= -1e-8


def sqrt_normed(a):
    """``_sqrt_norm`` of a copy of ``a``, written into a new array."""
    out = np.empty_like(a)
    _sqrt_norm(np.array(a), out)
    return out


class TestSqrtNormalize:
    def test_values(self):
        out = sqrt_normed(np.asarray([[4.0, -9.0, 0.0]]))
        assert np.array_equal(out, [[2.0, -3.0, 0.0]])

    def test_twice_is_fourth_root(self, rng):
        data = rng.normal(scale=5.0, size=(6, 4))
        twice = sqrt_normed(sqrt_normed(data))
        want = np.sign(data) * np.abs(data) ** 0.25
        assert np.allclose(twice, want, atol=1e-12)

    def test_shape_preserved(self, rng):
        assert sqrt_normed(rng.normal(size=(3, 7))).shape == (3, 7)

    def test_bits_equal_sign_times_sqrt_into_strided_columns(self, rng):
        # signed zeros and subnormals included; out is a column slice of a
        # wider matrix, as each group of a stage is
        z = rng.normal(scale=3.0, size=(5, 6))
        z[0, :4] = [0.0, -0.0, 5e-324, -5e-324]
        want = np.sign(z) * np.sqrt(np.abs(z))
        wide = np.full((5, 10), np.nan)
        _sqrt_norm(z.copy(), wide[:, 2:8])
        assert wide[:, 2:8].tobytes() == want.tobytes()
        assert np.isnan(wide[:, :2]).all() and np.isnan(wide[:, 8:]).all()


class TestGroupCounts:
    def test_three_stages(self):
        assert ecml.group_counts(3) == [8, 4, 2]

    def test_one_stage(self):
        assert ecml.group_counts(1) == [2]

    def test_five_stages(self):
        assert ecml.group_counts(5) == [32, 16, 8, 4, 2]

    def test_zero_rejected(self):
        with pytest.raises(ValidationError):
            ecml.group_counts(0)


class TestFitStage:
    def test_shapes(self):
        feats, _, pairs = clustered_problem(seed=3, dim=16)
        stage, out = fit_stage(
            feats, pairs, 4, ecml.make_learner("rmml", 0.1), np.random.default_rng(0)
        )
        assert stage.group_count == 4 and stage.group_dim == 4
        assert len(stage.projections) == 4
        assert all(p.p.shape == (4, 4) for p in stage.projections)
        assert out.dim == 16 and out.count == feats.count

    def test_deterministic(self):
        feats, _, pairs = clustered_problem(seed=4, dim=12)
        a_stage, a_out = fit_stage(
            feats, pairs, 3, ecml.make_learner("rmml", 0.1), np.random.default_rng(9)
        )
        b_stage, b_out = fit_stage(
            feats, pairs, 3, ecml.make_learner("rmml", 0.1), np.random.default_rng(9)
        )
        assert np.array_equal(a_stage.permutation, b_stage.permutation)
        for pa, pb in zip(a_stage.projections, b_stage.projections):
            assert np.array_equal(pa.p, pb.p)
        assert np.array_equal(a_out.data, b_out.data)

    def test_identity_metric_preserves_distances(self):
        # orthogonal per-group maps: pairwise distances before normalization
        # match the raw features even though coordinates may differ
        feats, _, pairs = clustered_problem(seed=5, dim=8)
        stage, _ = fit_stage(feats, pairs, 1, identity_learner, np.random.default_rng(1))
        proj = stage.projections[0]
        assert np.allclose(proj.p.T @ proj.p, np.eye(8), atol=1e-10)
        shuffled = feats.data[:, stage.permutation]
        mapped = shuffled @ proj.p
        d_raw = np.linalg.norm(feats.data[:5, None] - feats.data[None, :5], axis=2)
        d_map = np.linalg.norm(mapped[:5, None] - mapped[None, :5], axis=2)
        assert np.allclose(d_raw, d_map, atol=1e-10)

    def test_output_is_sqrt_normalized_projection(self):
        feats, _, pairs = clustered_problem(seed=6, dim=8)
        stage, out = fit_stage(
            feats, pairs, 2, ecml.make_learner("rmml", 0.1), np.random.default_rng(2)
        )
        replayed = _map_groups(stage, _shuffle(feats.data, stage.permutation))
        assert np.array_equal(out.data, replayed)

    def test_padding_widens_stage(self):
        feats, _, pairs = clustered_problem(seed=7, dim=10)
        stage, out = fit_stage(
            feats, pairs, 4, ecml.make_learner("rmml", 0.1), np.random.default_rng(3)
        )
        assert stage.width == 12 and out.dim == 12
        # padded columns stay zero through the permutation bookkeeping
        padded = _shuffle(feats.data, np.arange(12))
        assert np.array_equal(padded[:, 10:], np.zeros((feats.count, 2)))

    def test_single_live_dimension_group_degenerates(self):
        # a group with at most one live dimension after padding has an exactly
        # zero trace-normalized contrast, so rmml's metric and its projection are I
        feats, _, pairs = clustered_problem(seed=7, dim=9)
        stage, _ = fit_stage(
            feats, pairs, 8, ecml.make_learner("rmml", 0.1), np.random.default_rng(3)
        )
        live = (stage.permutation < 9).reshape(8, 2).sum(axis=1)
        assert sorted(set(live.tolist())) == [0, 1, 2]
        for count, proj in zip(live, stage.projections):
            assert np.array_equal(proj.p, np.eye(2)) == (count < 2)

    def test_group_fits_are_independent(self):
        # refit each group in isolation from its permuted slice: projections match
        feats, _, pairs = clustered_problem(seed=8, dim=12)
        learner = ecml.make_learner("rmml", 0.1)
        stage, _ = fit_stage(feats, pairs, 3, learner, np.random.default_rng(4))
        shuffled = feats.data[:, stage.permutation]
        for g in reversed(range(3)):
            block = ecml.FeatureMatrix(shuffled[:, g * 4 : (g + 1) * 4])
            model = learner(ecml.accumulate_stats(block, pairs))
            alone = ecml.mcd(model.matrix)
            assert np.array_equal(alone.p, stage.projections[g].p)

    def test_kissme_zero_padding_failure_carries_group_index(self):
        # padded zero columns make a group covariance singular for kissme
        feats, _, pairs = clustered_problem(seed=9, dim=10)
        with pytest.raises(SingularCovariance, match="ensemble group"):
            fit_stage(feats, pairs, 8, ecml.make_learner("kissme"), np.random.default_rng(5))
        try:
            fit_stage(feats, pairs, 8, ecml.make_learner("kissme"), np.random.default_rng(5))
        except SingularCovariance as exc:
            assert hasattr(exc, "group_index")


class TestStageOverlap:
    """Each group's stats, learner and mcd run on the calling thread, in group order;
    the stage is mapped once every group is fitted."""

    def test_traced_calls_stay_on_calling_thread_in_group_order(self, monkeypatch):
        feats, _, pairs = clustered_problem(seed=21, dim=16)
        caller = threading.current_thread()
        calls = []
        # (C-contiguous, writeable, data pointer) of each stats call's features
        layouts = []

        def recorded(name, fn):
            def wrapper(*args):
                # a stats call reads a buffer that is overwritten afterwards:
                # record the values it read
                seen = tuple(
                    np.array(a.data) if isinstance(a, ecml.FeatureMatrix) else a for a in args
                )
                layouts.extend(
                    (a.data.flags.c_contiguous, a.data.flags.writeable, a.data.ctypes.data)
                    for a in args if isinstance(a, ecml.FeatureMatrix)
                )
                out = fn(*args)
                calls.append((name, threading.current_thread(), seen, out))
                return out

            return wrapper

        monkeypatch.setattr(
            ecml.cascade, "accumulate_stats", recorded("stats", ecml.cascade.accumulate_stats)
        )
        monkeypatch.setattr(ecml.cascade, "mcd", recorded("mcd", ecml.cascade.mcd))
        learner = recorded("learner", ecml.make_learner("rmml", 0.1))
        model = ecml.fit_cascade(feats, pairs, 3, learner, seed=4)

        assert all(thread is caller for _, thread, _, _ in calls)
        # the stats read only read-only C-contiguous arrays, and each stage's
        # groups all through one buffer
        assert all(contiguous and not writeable for contiguous, writeable, _ in layouts)
        stage_calls = iter(layouts)
        for n_groups in (8, 4, 2):
            pointers = {ptr for _, _, ptr in itertools.islice(stage_calls, n_groups)}
            assert len(pointers) == 1
        per_group = ["stats", "learner", "mcd"]
        assert [name for name, *_ in calls] == per_group * (8 + 4 + 2) + ["stats", "learner"]
        # each group's stats are summed over that group's columns of the stage
        # input, the learner gets those stats, and mcd that learner's matrix
        groups = iter(zip(*[iter(calls[:-2])] * 3))
        current = feats.data
        for stage in model.stages:
            shuffled = _shuffle(current, stage.permutation)
            gdim = stage.group_dim
            for g, proj in enumerate(stage.projections):
                stats, fit, factor = next(groups)
                block = stats[2][0]
                assert np.array_equal(block, shuffled[:, g * gdim : (g + 1) * gdim])
                assert fit[2][0] is stats[3]
                assert factor[2][0] is fit[3].matrix and factor[3] is proj
            current = _map_groups(stage, shuffled)
        assert calls[-1][3] is model.final_metric

    def test_learner_failure_mid_stage_keeps_indices_and_joins_helper(self, monkeypatch):
        feats, _, pairs = clustered_problem(seed=22, dim=16)
        rmml = ecml.make_learner("rmml", 0.1)
        seen = []

        def learner(stats):
            seen.append(stats.dim)
            # stage 1 has 4 groups of 4 dims; fail at its third group
            if seen.count(4) == 3:
                raise ecml.NumericalError("injected")
            return rmml(stats)

        before = threading.active_count()
        with pytest.raises(ecml.NumericalError, match="injected") as info:
            ecml.fit_cascade(feats, pairs, 3, learner, seed=4)
        assert (info.value.stage_index, info.value.group_index) == (1, 2)
        assert threading.active_count() == before

    def test_fit_starts_only_the_matched_stats_worker(self, monkeypatch):
        feats, _, pairs = clustered_problem(seed=23, dim=16)
        started = []
        real_start = threading.Thread.start

        def recorded_start(thread):
            started.append(thread.name)
            return real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", recorded_start)
        ecml.fit_cascade(feats, pairs, 3, ecml.make_learner("rmml", 0.1), seed=4)
        # one per accumulate_stats call: 8 + 4 + 2 groups and the final metric
        assert started == ["ecml-matched-stats"] * 15

    def test_map_groups_maps_given_buffer_in_place(self):
        feats, _, pairs = clustered_problem(seed=24, dim=12)
        stage, fitted = fit_stage(
            feats, pairs, 3, ecml.make_learner("rmml", 0.1), np.random.default_rng(5)
        )
        shuffled = _shuffle(feats.data, stage.permutation)
        out = _map_groups(stage, shuffled)
        assert out is shuffled
        assert not shuffled.flags.writeable
        assert np.array_equal(out, fitted.data)
        assert not fitted.data.flags.writeable

    def test_map_groups_peak_is_its_group_block(self, rng):
        n, gdim = 300, 1024
        stage = random_stage(rng, 2 * gdim, 2)
        shuffled = rng.normal(size=(n, 2 * gdim))
        tracemalloc.start()
        try:
            _map_groups(stage, shuffled)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # beside the one N x (D/G) group block, only ufunc buffers
        assert peak <= 8 * n * gdim + 256 * 1024


class TestFitCascade:
    def test_zero_stages_equals_plain_learner(self):
        feats, _, pairs = clustered_problem(seed=10)
        learner = ecml.make_learner("rmml", 0.5)
        model = ecml.fit_cascade(feats, pairs, 0, learner, seed=0)
        assert model.stage_count == 0
        plain = learner(ecml.accumulate_stats(feats, pairs))
        assert np.array_equal(model.final_metric.matrix, plain.matrix)

    def test_three_stage_group_counts(self):
        feats, _, pairs = clustered_problem(seed=11, dim=16)
        model = ecml.fit_cascade(feats, pairs, 3, ecml.make_learner("rmml", 0.1), seed=1)
        assert [s.group_count for s in model.stages] == [8, 4, 2]
        assert model.final_metric.dim == model.output_dim

    def test_stage_input_freed_before_its_stats(self, monkeypatch):
        # a stage reads only its shuffled copy of the previous stage's output,
        # so that output is gone by the stage's first stats call; the final
        # metric's stats call reads the last one
        feats, _, pairs = clustered_problem(seed=11, dim=16)
        outputs, live = [], []
        real_map, real_stats = ecml.cascade._map_groups, ecml.cascade.accumulate_stats

        def tracked_map(stage, shuffled):
            outputs.append(weakref.ref(shuffled))
            return real_map(stage, shuffled)

        def counting_stats(features, pairs):
            live.append(sum(ref() is not None for ref in outputs))
            return real_stats(features, pairs)

        monkeypatch.setattr(ecml.cascade, "_map_groups", tracked_map)
        monkeypatch.setattr(ecml.cascade, "accumulate_stats", counting_stats)
        ecml.fit_cascade(feats, pairs, 2, ecml.make_learner("rmml", 0.1), seed=1)
        assert len(outputs) == 2
        assert live == [0] * 4 + [0] * 2 + [1]

    def test_negative_stage_count(self):
        feats, _, pairs = clustered_problem(seed=12)
        with pytest.raises(ValidationError):
            ecml.fit_cascade(feats, pairs, -1, ecml.make_learner("rmml", 0.1), seed=0)

    @pytest.mark.parametrize("stages", [1.5, 2.0])
    def test_non_integer_stage_count_rejected(self, no_fitting, stages):
        feats, _, pairs = clustered_problem(seed=12, dim=16)
        with pytest.raises(ValidationError, match="stage count must be an integer >= 1"):
            ecml.group_counts(stages)
        with pytest.raises(ValidationError, match="stage count must be an integer >= 0"):
            ecml.fit_cascade(feats, pairs, stages, ecml.make_learner("rmml", 0.1), seed=0)

    def test_more_groups_than_dimensions_fails_before_fitting(self, no_fitting):
        # 5 stages put 2**5 = 32 groups on 16 dimensions: half would be pure padding
        feats, _, pairs = clustered_problem(seed=12, dim=16)
        with pytest.raises(ValidationError, match=r"2\*\*5 input dimensions, got 16"):
            ecml.fit_cascade(feats, pairs, 5, ecml.make_learner("rmml", 0.1), seed=0)

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5])
    def test_seed_outside_model_format_fails_before_fitting(self, no_fitting, seed):
        feats, _, pairs = clustered_problem(seed=12, dim=8)
        # a 0-stage fit draws nothing, so no generator rejects the seed for it
        for stages in (0, 1):
            with pytest.raises(ValidationError, match=re.escape(f"in [0, {2**64})")):
                ecml.fit_cascade(feats, pairs, stages, ecml.make_learner("rmml", 0.1), seed=seed)

    @pytest.mark.parametrize("stages", [0, 2])
    def test_feature_file_checked_then_fitted_as_the_loaded_matrix(
        self, tmp_path, monkeypatch, stages
    ):
        feats, _, pairs = clustered_problem(seed=12, dim=16)
        path = tmp_path / "f.bin"
        ecml.save_features(feats, path, "raw-binary")
        learner = ecml.make_learner("rmml", 0.1)

        def unreadable(*args):
            raise AssertionError("a row was read before the header checks")

        # the stage count and the seed are checked against the header alone
        monkeypatch.setattr(ecml.FeatureFile, "load", unreadable)
        monkeypatch.setattr(ecml.FeatureFile, "blocks", unreadable)
        for bad_stages, seed, message in ((5, 0, r"2\*\*5 input dimensions, got 16"),
                                          (stages, -1, re.escape(f"in [0, {2**64})"))):
            with pytest.raises(ValidationError, match=message):
                ecml.fit_cascade(ecml.FeatureFile(path), pairs, bad_stages, learner, seed=seed)
        monkeypatch.undo()
        for name, source in (("file", ecml.FeatureFile(path)),
                             ("matrix", ecml.load_features(path, "raw-binary"))):
            model = ecml.fit_cascade(source, pairs, stages, learner, seed=3)
            ecml.save_model(model, tmp_path / f"{name}.ecml")
        assert (tmp_path / "file.ecml").read_bytes() == (tmp_path / "matrix.ecml").read_bytes()

    @pytest.mark.parametrize("lam", [0.1, 1.5])
    @pytest.mark.parametrize("dim", range(8, 18))
    def test_rmml_fits_every_width(self, dim, lam):
        # padding and clamped columns leave groups with one live column or none;
        # rmml gives each of them M = I, so every width fits and scores
        feats, labels = ecml.gen_synthetic(20, 10, dim, 1.0, 0.5, 0)
        pairs = ecml.sample_pairs(labels, 1500, 0.5, 0)
        model = ecml.fit_cascade(feats, pairs, 3, ecml.make_learner("rmml", lam), seed=0)
        assert [s.group_count for s in model.stages] == [8, 4, 2]
        assert 0.0 <= ecml.evaluate(model, feats, pairs).eer <= 0.5

    def test_stage_failure_carries_stage_index(self):
        feats, _, pairs = clustered_problem(seed=13, dim=10)
        with pytest.raises(SingularCovariance, match="stage 0"):
            ecml.fit_cascade(feats, pairs, 3, ecml.make_learner("kissme"), seed=0)

    def test_final_metric_refit_from_transform_matches(self):
        # transform replays the exact stage outputs seen while fitting
        feats, _, pairs = clustered_problem(seed=14, dim=16)
        learner = ecml.make_learner("rmml", 0.1)
        model = ecml.fit_cascade(feats, pairs, 3, learner, seed=2)
        replayed = ecml.transform(model, feats)
        refit = learner(ecml.accumulate_stats(replayed, pairs))
        assert np.array_equal(refit.matrix, model.final_metric.matrix)

    def test_determinism(self):
        feats, _, pairs = clustered_problem(seed=15, dim=16)
        a = ecml.fit_cascade(feats, pairs, 2, ecml.make_learner("rmml", 0.1), seed=3)
        b = ecml.fit_cascade(feats, pairs, 2, ecml.make_learner("rmml", 0.1), seed=3)
        assert np.array_equal(a.final_metric.matrix, b.final_metric.matrix)
        for sa, sb in zip(a.stages, b.stages):
            assert np.array_equal(sa.permutation, sb.permutation)


# Fits 0 stages plus plain rmml from saved inputs and writes the model; with
# "block" as its last argument, importing numpy.random fails in the child.
_ZERO_STAGE_FIT = """
import sys
if sys.argv[-1] == "block":
    sys.modules["numpy.random"] = None
import numpy as np
import ecml

work = sys.argv[1]
feats = ecml.load_features(work + "/f.bin", "raw-binary")
pairs = ecml.load_pairs(work + "/p.csv")
model = ecml.fit_cascade(feats, pairs, 0, ecml.make_learner("rmml", 0.5), seed=7)
ecml.save_model(model, work + "/" + sys.argv[-1] + ".ecml")
try:
    np.random
except ImportError:
    print("numpy.random blocked")
"""


def test_zero_stage_fit_needs_no_numpy_random(tmp_path):
    feats, _, pairs = clustered_problem(seed=10)
    ecml.save_features(feats, tmp_path / "f.bin", "raw-binary")
    ecml.save_pairs(pairs, tmp_path / "p.csv")
    # one BLAS thread in both children: model bytes differ between thread counts
    outs = [
        run_python("-c", _ZERO_STAGE_FIT, str(tmp_path), mode, timeout=60).stdout
        for mode in ("plain", "block")
    ]
    assert outs == ["", "numpy.random blocked\n"]
    assert (tmp_path / "block.ecml").read_bytes() == (tmp_path / "plain.ecml").read_bytes()


class TestTransformAndDistance:
    def test_empty_model_is_identity(self):
        feats, _, pairs = clustered_problem(seed=16)
        model = ecml.fit_cascade(feats, pairs, 0, ecml.make_learner("rmml", 0.5), seed=0)
        assert ecml.transform(model, feats) is feats

    def test_stage_outputs_match_pad_then_permute_reference(self):
        # 10 dims pad to 12 in both stages; the reference pads, permutes, maps
        # each group, normalizes and concatenates, as separate steps
        feats, _, pairs = clustered_problem(seed=17, dim=10)
        model = ecml.fit_cascade(feats, pairs, 2, ecml.make_learner("rmml", 0.1), seed=5)
        assert [s.width for s in model.stages] == [12, 12]
        data = np.vstack([feats.data[:20], np.zeros((1, 10)), np.full((1, 10), -0.0)])
        want = data
        for stage in model.stages:
            padded = np.pad(want, ((0, 0), (0, stage.width - want.shape[1])))
            shuffled = padded[:, stage.permutation]
            gdim = stage.group_dim
            mapped = [
                shuffled[:, g * gdim : (g + 1) * gdim] @ proj.p
                for g, proj in enumerate(stage.projections)
            ]
            want = np.hstack([np.sign(z) * np.sqrt(np.abs(z)) for z in mapped])
        got = ecml.transform(model, ecml.FeatureMatrix(data)).data
        # compared as bit patterns, so a +0.0 / -0.0 mismatch fails too
        assert (want == 0.0).any()
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("n", [
        1, 2, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK, 2 * ROW_BLOCK + 1, 4 * ROW_BLOCK + 1,
    ])
    def test_block_replay_equals_training_stage_output_bitwise(self, rng, monkeypatch, n):
        # transform replays ROW_BLOCK rows at a time, fit_cascade maps the
        # whole matrix at once; the bits must agree, a 1-row block included
        data = rng.normal(size=(n, 40))
        feats = ecml.FeatureMatrix(data)
        seen = []
        real_stats = ecml.cascade.accumulate_stats

        def recording_stats(features, pairs):
            seen.append(features.data)
            return real_stats(features, pairs)

        if n > 1:  # a pair needs two samples, so one row cannot be fitted
            monkeypatch.setattr(ecml.cascade, "accumulate_stats", recording_stats)
            i = np.arange(max(n - 1, 2)) % (n - 1)
            pairs = ecml.PairSet(i, i + 1, np.arange(i.size) % 2)
            model = ecml.fit_cascade(feats, pairs, 2, random_learner, seed=4)
            monkeypatch.undo()
        else:
            model = ecml.CascadeModel(
                (random_stage(rng, 40, 4), random_stage(rng, 40, 2)),
                ecml.MetricModel(np.eye(40), "rmml"), 40, 0,
            )
        got = ecml.transform(model, feats).data
        want = data  # the stages replayed on the whole matrix at once
        for stage in model.stages:
            want = _map_groups(stage, _shuffle(want, stage.permutation))
        assert got.tobytes() == want.tobytes()
        if n > 1:
            assert got.tobytes() == seen[-1].tobytes()

    def test_transform_peak_is_output_plus_one_block(self, rng):
        n, dim = 3000, 256
        model = ecml.CascadeModel(
            (random_stage(rng, dim, 4), random_stage(rng, dim, 2)),
            ecml.MetricModel(np.eye(dim), "rmml"), dim, 0,
        )
        feats = ecml.FeatureMatrix(rng.normal(size=(n, dim)))
        tracemalloc.start()
        try:
            ecml.transform(model, feats)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # beside the output: the block buffer, the previous stage's output,
        # its shuffled successor and the group block, each ROW_BLOCK (+1) rows
        assert peak <= 8 * (n * dim + 4 * (ROW_BLOCK + 1) * dim) + 2**16

    def test_dim_mismatch(self):
        feats, _, pairs = clustered_problem(seed=17, dim=8)
        model = ecml.fit_cascade(feats, pairs, 1, ecml.make_learner("rmml", 0.1), seed=0)
        with pytest.raises(ValidationError):
            ecml.transform(model, ecml.FeatureMatrix(np.ones((2, 9))))

    def test_identical_inputs_identical_outputs(self):
        feats, _, pairs = clustered_problem(seed=18, dim=12)
        model = ecml.fit_cascade(feats, pairs, 2, ecml.make_learner("rmml", 0.1), seed=1)
        doubled = ecml.FeatureMatrix(np.vstack([feats.data[0], feats.data[0]]))
        out = ecml.transform(model, doubled)
        assert np.array_equal(out.data[0], out.data[1])

    def test_distance_zero_on_equal_vectors(self):
        feats, _, pairs = clustered_problem(seed=19, dim=12)
        model = ecml.fit_cascade(feats, pairs, 2, ecml.make_learner("rmml", 0.1), seed=1)
        assert ecml.cascade_distance(model, feats.data[0], feats.data[0]) == 0.0

    def test_distance_symmetric(self, rng):
        feats, _, pairs = clustered_problem(seed=20, dim=12)
        model = ecml.fit_cascade(feats, pairs, 2, ecml.make_learner("rmml", 0.1), seed=1)
        x, y = rng.normal(size=12), rng.normal(size=12)
        assert abs(
            ecml.cascade_distance(model, x, y) - ecml.cascade_distance(model, y, x)
        ) <= 1e-12

    def test_plain_identity_metric_is_squared_euclidean(self):
        feats, _, pairs = clustered_problem(seed=21, dim=6)
        model = ecml.fit_cascade(feats, pairs, 0, identity_learner, seed=0)
        x, y = feats.data[0], feats.data[1]
        assert ecml.cascade_distance(model, x, y) == pytest.approx(
            ((x - y) ** 2).sum(), rel=1e-12
        )

    def test_projection_realizes_clamped_metric(self, rng):
        # squared euclidean distance after mapping equals d^T (P P^T) d
        m = rng.normal(size=(6, 6))
        m = 0.5 * (m + m.T)
        proj = ecml.mcd(m)
        clamped = proj.p @ proj.p.T
        d = rng.normal(size=6)
        assert (d @ proj.p) @ (d @ proj.p) == pytest.approx(d @ clamped @ d, rel=1e-10)

    def test_ranking_invariant_under_feature_scaling(self):
        feats, labels, pairs = clustered_problem(seed=22, dim=16, count=400)
        train, test = split_pairs(pairs, 300, seed=22)
        learner = ecml.make_learner("rmml", 0.1)
        model_a = ecml.fit_cascade(feats, train, 2, learner, seed=7)
        scaled = ecml.FeatureMatrix(feats.data * 11.0)
        model_b = ecml.fit_cascade(scaled, train, 2, learner, seed=7)
        da = [ecml.cascade_distance(model_a, feats.data[a], feats.data[b])
              for a, b in zip(test.i[:40], test.j[:40])]
        db = [ecml.cascade_distance(model_b, scaled.data[a], scaled.data[b])
              for a, b in zip(test.i[:40], test.j[:40])]
        assert np.array_equal(np.argsort(da), np.argsort(db))


@pytest.mark.parametrize("build, message", [
    (lambda: ecml.Projection(np.eye(2), 1.5), "clamped_count must be an integer >= 0, got 1.5"),
    (lambda: ecml.StageModel([0.5, 1.2], (ecml.Projection(np.eye(1), 0),) * 2),
     "permutation must be integer-valued, got 0.5"),
    # its stage pads 8.5 columns, like 8, to 12; the file would store 8, which pads to 8
    (lambda: ecml.CascadeModel(
        (ecml.StageModel(np.arange(12), (ecml.Projection(np.eye(3), 0),) * 4),),
        ecml.MetricModel(np.eye(12), "rmml"), 8.5, 0,
    ), "input_dim must be an integer >= 1, got 8.5"),
], ids=["clamped-count", "permutation", "input-dim"])
def test_constructors_reject_values_int64_would_change(build, message):
    with pytest.raises(ValidationError) as info:
        build()
    assert str(info.value) == message


class TestPersistence:
    def test_roundtrip_bitwise_distances(self, tmp_path, rng):
        feats, _, pairs = clustered_problem(seed=23, dim=16)
        model = ecml.fit_cascade(feats, pairs, 3, ecml.make_learner("rmml", 0.1), seed=4)
        path = tmp_path / "m.ecml"
        ecml.save_model(model, path)
        loaded, pca = ecml.load_model(path)
        assert pca is None
        for _ in range(100):
            x, y = rng.normal(size=16), rng.normal(size=16)
            assert ecml.cascade_distance(model, x, y) == ecml.cascade_distance(loaded, x, y)

    def test_roundtrip_metadata(self, tmp_path):
        feats, _, pairs = clustered_problem(seed=24, dim=8)
        model = ecml.fit_cascade(feats, pairs, 1, ecml.make_learner("rmml", 0.25), seed=6)
        path = tmp_path / "m.ecml"
        ecml.save_model(model, path)
        loaded, _ = ecml.load_model(path)
        assert loaded.final_metric.learner == "rmml"
        assert loaded.final_metric.lam == 0.25
        assert loaded.final_metric.rho == model.final_metric.rho
        assert loaded.seed == 6 and loaded.input_dim == 8

    def test_roundtrip_with_pca(self, tmp_path, rng):
        feats, _, pairs = clustered_problem(seed=25, dim=12)
        pca = ecml.fit_pca(feats, 8)
        reduced = ecml.apply_pca(pca, feats)
        model = ecml.fit_cascade(reduced, pairs, 1, ecml.make_learner("rmml", 0.1), seed=7)
        path = tmp_path / "m.ecml"
        ecml.save_model(model, path, pca=pca)
        loaded, pca_back = ecml.load_model(path)
        assert np.array_equal(pca_back.mean, pca.mean)
        assert np.array_equal(pca_back.basis, pca.basis)
        assert np.array_equal(loaded.final_metric.matrix, model.final_metric.matrix)

    def test_resave_byte_identical(self, tmp_path):
        feats, _, pairs = clustered_problem(seed=26, dim=16)
        model = ecml.fit_cascade(feats, pairs, 2, ecml.make_learner("kissme"), seed=8)
        a, b = tmp_path / "a.ecml", tmp_path / "b.ecml"
        ecml.save_model(model, a)
        loaded, _ = ecml.load_model(a)
        ecml.save_model(loaded, b)
        assert a.read_bytes() == b.read_bytes()

    # kissme with 3 stages is omitted: clamped projections drain variance
    # from some direction and a later-stage matched covariance goes singular
    # (the failure path has its own tests above)
    @pytest.mark.parametrize("learner,lam,stages", [
        ("rmml", 0.1, 0), ("rmml", 0.1, 1), ("rmml", 0.1, 3),
        ("kissme", None, 0), ("kissme", None, 1),
        ("genuine-baseline", None, 0), ("genuine-baseline", None, 1),
        ("genuine-baseline", None, 3),
    ])
    def test_roundtrip_all_learners(self, tmp_path, learner, lam, stages):
        feats, _, pairs = clustered_problem(seed=30, dim=16, count=800)
        model = ecml.fit_cascade(
            feats, pairs, stages, ecml.make_learner(learner, lam), seed=stages
        )
        path = tmp_path / "m.ecml"
        ecml.save_model(model, path)
        loaded, _ = ecml.load_model(path)
        assert loaded.final_metric.learner == learner
        assert loaded.stage_count == stages
        assert np.array_equal(loaded.final_metric.matrix, model.final_metric.matrix)
        x, y = feats.data[0], feats.data[5]
        assert ecml.cascade_distance(loaded, x, y) == ecml.cascade_distance(model, x, y)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.ecml"
        path.write_bytes(b"JUNKJUNKJUNK")
        with pytest.raises(ValidationError, match="bad magic"):
            ecml.load_model(path)

    def test_truncated_reports_lengths(self, tmp_path):
        feats, _, pairs = clustered_problem(seed=27, dim=8)
        model = ecml.fit_cascade(feats, pairs, 1, ecml.make_learner("rmml", 0.1), seed=9)
        path = tmp_path / "m.ecml"
        ecml.save_model(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ValidationError, match=r"need \d+ bytes .* has \d+"):
            ecml.load_model(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        feats, _, pairs = clustered_problem(seed=28, dim=8)
        model = ecml.fit_cascade(feats, pairs, 0, ecml.make_learner("rmml", 0.1), seed=9)
        path = tmp_path / "m.ecml"
        ecml.save_model(model, path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(ValidationError, match="trailing"):
            ecml.load_model(path)

    def test_load_peak_is_payload_plus_one_mb(self, tmp_path, rng):
        # PCA 1024 -> 256, then one stage of two 128-wide groups; the largest
        # check temporaries are PcaModel's 256 x 256 gram and a bool per
        # final-metric entry, both well under 1 MB
        basis = np.linalg.qr(rng.normal(size=(1024, 256)))[0]
        pca = ecml.PcaModel(mean=rng.normal(size=1024), basis=basis)
        projections = tuple(ecml.Projection(rng.normal(size=(128, 128)), 0) for _ in range(2))
        stage = ecml.StageModel(rng.permutation(256), projections)
        final = ecml.MetricModel(np.eye(256), "rmml", 0.1, 1.0)
        path = tmp_path / "m.ecml"
        ecml.save_model(ecml.CascadeModel((stage,), final, 256, 0), path, pca=pca)
        tracemalloc.start()
        try:
            model, pca_back = ecml.load_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= path.stat().st_size + 2**20
        # each array is its own aligned buffer, read-only, held uncopied
        arrays = [model.final_metric.matrix, pca_back.mean, pca_back.basis,
                  *(p.p for p in model.stages[0].projections)]
        for arr in arrays:
            assert arr.base is None and arr.flags.aligned and not arr.flags.writeable
        assert np.array_equal(pca_back.basis, pca.basis)

    @pytest.mark.parametrize("edit, error", [
        ("none", None), ("truncated", "truncated"), ("trailing", "trailing"),
        ("magic", "bad magic"), ("version", "unsupported model version"),
        ("tag", "UTF-8"), ("pca-flag", "invalid pca flag 2"),
    ])
    def test_file_closed_on_every_path(self, tmp_path, monkeypatch, edit, error):
        feats, _, pairs = clustered_problem(seed=29, dim=8)
        pca = ecml.fit_pca(feats, 4)
        model = ecml.fit_cascade(
            ecml.apply_pca(pca, feats), pairs, 1, ecml.make_learner("rmml", 0.1), seed=3
        )
        path = tmp_path / "m.ecml"
        ecml.save_model(model, path, pca=pca)
        blob = bytearray(path.read_bytes())
        # the pca block is the flag, two u32, the mean and the basis
        flag_at = len(blob) - 1 - 8 - 8 * 8 - 8 * 8 * 4
        if edit == "truncated":
            del blob[-5:]
        elif edit == "trailing":
            blob += b"x"
        elif edit == "magic":
            blob[:4] = b"JUNK"
        elif edit == "version":
            blob[4:8] = struct.pack("<I", 9)
        elif edit == "tag":
            blob[12] = 0xFF
        elif edit == "pca-flag":
            blob[flag_at] = 2
        path.write_bytes(bytes(blob))
        opened = []

        def tracking_open(*args, **kwargs):
            fh = builtins.open(*args, **kwargs)
            opened.append(fh)
            return fh

        monkeypatch.setattr(ecml.cascade, "open", tracking_open, raising=False)
        if error is None:
            ecml.load_model(path)
        else:
            with pytest.raises(ValidationError, match=error):
                ecml.load_model(path)
        assert len(opened) == 1 and opened[0].closed

    def test_pca_width_mismatch_not_saved(self, tmp_path):
        model = ecml.CascadeModel((), ecml.MetricModel(np.eye(8), "rmml"), 8, 0)
        pca = ecml.PcaModel(mean=np.zeros(12), basis=np.eye(12)[:, :6])
        path = tmp_path / "m.ecml"
        with pytest.raises(ValidationError) as info:
            ecml.save_model(model, path, pca=pca)
        assert str(info.value) == "PCA front end outputs 6 dims, but the model takes 8"
        assert not path.exists()

    def test_pca_width_mismatch_not_loaded(self, tmp_path):
        # every length in the file agrees; only the PCA output width is wrong
        model = ecml.CascadeModel((), ecml.MetricModel(np.eye(8), "rmml"), 8, 0)
        path = tmp_path / "m.ecml"
        ecml.save_model(model, path)
        pca = (
            struct.pack("<II", 12, 6)
            + np.zeros(12, dtype="<f8").tobytes()
            + np.eye(12)[:, :6].astype("<f8").tobytes()
        )
        path.write_bytes(path.read_bytes()[:-1] + b"\x01" + pca)
        with pytest.raises(ValidationError) as info:
            ecml.load_model(path)
        assert str(info.value) == f"{path}: PCA front end outputs 6 dims, but the model takes 8"

    @pytest.mark.parametrize("fault, message", [
        ("duplicate-permutation-entry", "permutation is not a bijection"),
        ("nan-projection-entry", "projection has non-finite entries"),
        ("nan-final-metric-entry", "metric matrix has non-finite entries"),
        ("non-orthonormal-pca-basis", "PCA basis columns are not orthonormal"),
    ])
    def test_fault_in_built_objects_names_the_file(self, tmp_path, rng, fault, message):
        stage = random_stage(rng, 8, 2)
        final = ecml.MetricModel(np.eye(8), "rmml", 0.1, 1.0)
        pca = ecml.PcaModel(mean=np.zeros(12), basis=np.eye(12)[:, :8])
        path = tmp_path / "m.ecml"
        ecml.save_model(ecml.CascadeModel((stage,), final, 8, 0), path, pca=pca)
        blob = bytearray(path.read_bytes())
        perm = 12 + len("rmml") + struct.calcsize("<ddQII") + 8  # after the stage header
        projection = perm + 8 * 4
        metric = projection + 2 * 16 * 8 + 2 * 4 + 4  # past the clamped counts and final dim
        basis = len(blob) - 12 * 8 * 8
        at, value = {
            "duplicate-permutation-entry": (perm, blob[perm + 4 : perm + 8]),
            "nan-projection-entry": (projection, struct.pack("<d", np.nan)),
            "nan-final-metric-entry": (metric, struct.pack("<d", np.nan)),
            "non-orthonormal-pca-basis": (basis, struct.pack("<d", 2.0)),
        }[fault]
        blob[at : at + len(value)] = value
        path.write_bytes(bytes(blob))
        with pytest.raises(ValidationError, match=message) as info:
            ecml.load_model(path)
        assert str(info.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("n_groups", [10**5, 2**32 - 1])
    def test_stage_groups_checked_against_file_size_before_reading(self, tmp_path, n_groups):
        # 56 bytes: the model header and a stage header of n empty groups,
        # each of which would be built before the file ran out
        head = MODEL_HEAD + struct.pack("<ddQII", 0.1, 1.0, 0, 8, 1)
        path = tmp_path / "m.ecml"
        path.write_bytes(head + struct.pack("<II", n_groups, 0))
        with pytest.raises(ValidationError) as info:
            ecml.load_model(path)
        assert str(info.value) == (
            f"{path}: truncated model file: need {56 + 4 * n_groups} bytes "
            f"through stage 0 groups, file has 56"
        )


MODEL_HEAD = b"ECML" + struct.pack("<II", 1, 4) + b"rmml"

# u32 fields of a model file with a PCA front end and one stage
HEADER_FIELDS = (
    "tag length", "input dim", "stage count", "group count", "group width",
    "final dim", "pca input dim", "pca k",
)


@pytest.fixture(scope="module")
def header_sample(tmp_path_factory):
    """A valid model file (PCA 6 -> 4, one stage of 2 x 2) and each u32 field's offset."""
    rng = np.random.default_rng(0)
    pca = ecml.PcaModel(mean=rng.normal(size=6), basis=np.linalg.qr(rng.normal(size=(6, 4)))[0])
    stage = ecml.StageModel([2, 0, 3, 1], tuple(ecml.Projection(np.eye(2), 0) for _ in range(2)))
    model = ecml.CascadeModel((stage,), ecml.MetricModel(np.eye(4), "rmml", 0.1, 1.0), 4, 0)
    path = tmp_path_factory.mktemp("header") / "m.ecml"
    ecml.save_model(model, path, pca=pca)
    blob = path.read_bytes()
    head = len(MODEL_HEAD) + struct.calcsize("<ddQ")
    final = head + 16 + 4 * 4 + 8 * 2 * 2**2 + 4 * 2
    offsets = dict(zip(HEADER_FIELDS, (8, head, head + 4, head + 8, head + 12, final,
                                       final + 4 + 8 * 4**2 + 1, final + 4 + 8 * 4**2 + 5)))
    values = [struct.unpack_from("<I", blob, offsets[name])[0] for name in HEADER_FIELDS]
    assert values == [4, 4, 1, 2, 2, 4, 6, 4]
    return path, blob, offsets


_U32 = st.one_of(
    st.sampled_from([0, 1, 2, 2**31, 2**32 - 1]), st.integers(0, 16), st.integers(0, 2**32 - 1)
)


@settings(max_examples=200)
@given(edits=st.dictionaries(st.sampled_from(HEADER_FIELDS), _U32, min_size=1))
def test_model_header_fields_load_or_raise_validation_error(header_sample, edits):
    # within Hypothesis' deadline: no declared size may set the work done
    path, blob, offsets = header_sample
    out = bytearray(blob)
    for name, value in edits.items():
        struct.pack_into("<I", out, offsets[name], value)
    path.write_bytes(bytes(out))
    try:
        ecml.load_model(path)
    except ValidationError:
        pass
