"""Acceptance criteria.

One test per criterion, each at its stated tolerance, printing a single
pass/fail line (run with ``pytest tests/test_acceptance.py -s`` to see the
lines as they happen). Criteria 7 and 12 measure trend reproduction on the
pinned synthetic setup; see the per-test notes for the setup details.
"""

import time

import numpy as np

import ecml
from ecml import cli
from ecml.errors import SingularCovariance

from conftest import brute_force_eer, split_pairs


def _line(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"acceptance criterion {num:2d} [{name}]: {status}{tail}")


def _random_instance(rng, dim, n_pairs=200):
    """Synthetic stats instance: features, sampled pairs, accumulated stats."""
    feats, labels = ecml.gen_synthetic(10, 20, dim, 1.0, 1.5, seed=int(rng.integers(1 << 30)))
    pairs = ecml.sample_pairs(labels, n_pairs, 0.5, seed=int(rng.integers(1 << 30)))
    return feats, pairs, ecml.accumulate_stats(feats, pairs)


def _fd_gradient(stats, m, lam, h=1e-5):
    grad = np.zeros_like(m)
    for a in range(m.shape[0]):
        for b in range(m.shape[1]):
            e = np.zeros_like(m)
            e[a, b] = h
            grad[a, b] = (
                ecml.objective(stats, m + e, lam) - ecml.objective(stats, m - e, lam)
            ) / (2 * h)
    return grad


def _per_pair_objective(feats, pairs, m, lam):
    num_pos = den_pos = num_neg = den_neg = 0.0
    for a, b, y in zip(pairs.i, pairs.j, pairs.y):
        d = feats.data[a] - feats.data[b]
        if y == 1:
            num_pos += d @ m @ d
            den_pos += d @ d
        else:
            num_neg += d @ m @ d
            den_neg += d @ d
    g1 = num_pos / den_pos - num_neg / den_neg
    g2 = 0.5 * ((m - np.eye(m.shape[0])) ** 2).sum()
    return lam * g1 + g2


_INSTANCES = None


def _instances():
    global _INSTANCES
    if _INSTANCES is None:
        rng = np.random.default_rng(1234)
        dims = [4, 8, 16]
        _INSTANCES = []
        for k in range(25):
            dim = dims[k % 3]
            lam = float(rng.uniform(0.1, 1.0))
            _INSTANCES.append((*_random_instance(rng, dim), lam))
    return _INSTANCES


def test_criterion_01_closed_form_optimality():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    worst_grad = 0.0
    for feats, pairs, stats, lam in _instances():
        contrast = stats.sum_neg / stats.tr_neg - stats.sum_pos / stats.tr_pos
        m = np.eye(stats.dim) + lam * contrast
        grad = _fd_gradient(stats, m, lam)
        worst_grad = max(worst_grad, float(np.abs(grad).max()))
        base = ecml.objective(stats, m, lam)
        for _ in range(100):
            e = rng.normal(size=m.shape)
            e = 0.5 * (e + e.T)
            e *= 0.1 / np.linalg.norm(e)
            assert base <= ecml.objective(stats, m + e, lam)
    elapsed = time.perf_counter() - start
    ok = worst_grad <= 1e-5 and elapsed < 30.0
    _line(1, "closed-form optimality", ok, f"max |fd grad| {worst_grad:.2e}, {elapsed:.1f}s")
    assert worst_grad <= 1e-5
    assert elapsed < 30.0


def test_criterion_02_objective_oracle_equivalence():
    rng = np.random.default_rng(8)
    worst = 0.0
    for feats, pairs, stats, lam in _instances():
        contrast = stats.sum_neg / stats.tr_neg - stats.sum_pos / stats.tr_pos
        candidates = [np.eye(stats.dim) + lam * contrast]
        m = rng.normal(size=(stats.dim, stats.dim))
        candidates.append(0.5 * (m + m.T))
        for m in candidates:
            got = ecml.objective(stats, m, lam)
            want = _per_pair_objective(feats, pairs, m, lam)
            worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    ok = worst <= 1e-9
    _line(2, "objective oracle equivalence", ok, f"max rel err {worst:.2e}")
    assert worst <= 1e-9


def test_criterion_03_mcd_correctness():
    rng = np.random.default_rng(9)
    worst_spec = 0.0
    worst_recon = 0.0
    for k in range(100):
        m = rng.normal(size=(32, 32))
        m = 0.5 * (m + m.T)
        proj = ecml.mcd(m)
        got = np.sort(np.linalg.eigvalsh(proj.p @ proj.p.T))
        want = np.sort(np.clip(np.linalg.eigvalsh(m), 0.0, None))
        worst_spec = max(worst_spec, float(np.abs(got - want).max()))
    for k in range(100):
        a = rng.normal(size=(32, 32))
        m = a @ a.T
        proj = ecml.mcd(m)
        worst_recon = max(
            worst_recon,
            float(np.linalg.norm(proj.p @ proj.p.T - m) / np.linalg.norm(m)),
        )
    ok = worst_spec <= 1e-8 and worst_recon <= 1e-8
    _line(3, "mcd correctness", ok, f"spectrum err {worst_spec:.2e}, psd recon {worst_recon:.2e}")
    assert worst_spec <= 1e-8
    assert worst_recon <= 1e-8


def test_criterion_04_kissme_analytic_recovery():
    rng = np.random.default_rng(10)
    n = 100_000
    pos_diffs = rng.normal(0.0, 1.0, size=(n, 8))
    neg_diffs = rng.normal(0.0, 2.0, size=(n, 8))
    data = np.vstack([np.zeros((1, 8)), pos_diffs, neg_diffs])
    feats = ecml.FeatureMatrix(data)
    idx = np.arange(1, 2 * n + 1)
    pairs = ecml.PairSet(
        idx, np.zeros(2 * n, dtype=np.int64),
        np.concatenate([np.ones(n, dtype=np.int64), np.zeros(n, dtype=np.int64)]),
    )
    model = ecml.fit_kissme(ecml.accumulate_stats(feats, pairs))
    err = float(np.abs(model.matrix - 0.75 * np.eye(8)).max())
    ok = err <= 0.05 * 0.75
    _line(4, "kissme analytic recovery", ok, f"max elementwise err {err:.4f} vs 0.0375")
    assert err <= 0.05 * 0.75


def test_criterion_05_kissme_failure_rmml_robustness():
    # every matched difference identical: matched covariance has rank 1
    rng = np.random.default_rng(11)
    v = rng.normal(size=10)
    data = np.vstack([np.zeros(10), np.tile(v, (3, 1)), rng.normal(size=(30, 10))])
    feats = ecml.FeatureMatrix(data)
    i = np.arange(1, 34)
    pairs = ecml.PairSet(
        i, np.zeros(33, dtype=np.int64),
        np.concatenate([np.ones(3, dtype=np.int64), np.zeros(30, dtype=np.int64)]),
    )
    stats = ecml.accumulate_stats(feats, pairs)
    raised = False
    try:
        ecml.fit_kissme(stats)
    except SingularCovariance:
        raised = True
    rmml_model = ecml.fit_rmml(stats, 0.5)
    rmml_ok = bool(np.isfinite(rmml_model.matrix).all())
    ok = raised and rmml_ok
    _line(5, "kissme failure vs rmml robustness", ok,
          f"kissme raised {raised}, rmml finite {rmml_ok}")
    assert raised and rmml_ok


def test_criterion_06_group_count_rule():
    got = ecml.group_counts(3)
    ok = got == [8, 4, 2]
    _line(6, "group count rule", ok, f"group_counts(3) = {got}")
    assert got == [8, 4, 2]


# ---------------------------------------------------------------------------
# trend experiment shared by criteria 7, 8, and 12
#
# Pinned setup: 50 identities x 20 samples, D=64, identity spread twice the
# sample spread, 3000 train pairs and 2000 disjoint held-out pairs, learner
# defaults lambda=0.5 standalone and lambda=0.1 inside the 3-stage cascade.

_TREND = None


def _eval_model(model, feats, pairs):
    rep = ecml.evaluate(model, feats, pairs)
    return rep.eer, rep.kl_pos_neg


def _trend_results():
    global _TREND
    if _TREND is None:
        start = time.perf_counter()
        rows = []
        for seed in range(5):
            feats, labels = ecml.gen_synthetic(50, 20, 64, 1.0, 2.0, seed=seed)
            pool = ecml.sample_pairs(labels, 5000, 0.5, seed=seed)
            train, heldout = split_pairs(pool, 3000, seed)
            plain = ecml.fit_cascade(feats, train, 0, ecml.make_learner("rmml", 0.5), seed)
            casc = ecml.fit_cascade(feats, train, 3, ecml.make_learner("rmml", 0.1), seed)
            zero = ecml.fit_cascade(feats, train, 0, ecml.make_learner("rmml", 0.0), seed)
            eer_plain, kl_plain = _eval_model(plain, feats, heldout)
            eer_casc, kl_casc = _eval_model(casc, feats, heldout)
            eer_zero, _ = _eval_model(zero, feats, heldout)
            rows.append(
                dict(seed=seed, eer_plain=eer_plain, eer_casc=eer_casc,
                     eer_zero=eer_zero, kl_plain=kl_plain, kl_casc=kl_casc)
            )
        _TREND = (rows, time.perf_counter() - start)
    return _TREND


def test_criterion_07_cascade_trend():
    rows, elapsed = _trend_results()
    eer_wins = sum(1 for r in rows if r["eer_casc"] <= r["eer_plain"])
    kl_wins = sum(1 for r in rows if r["kl_casc"] >= r["kl_plain"])
    ok = eer_wins >= 4 and kl_wins >= 4 and elapsed < 60.0
    _line(7, "cascade trend", ok,
          f"eer<= {eer_wins}/5, kl>= {kl_wins}/5, {elapsed:.1f}s")
    assert elapsed < 60.0
    assert eer_wins >= 4, (
        f"cascade EER at or below plain RMML on only {eer_wins}/5 seeds: "
        + ", ".join(f"{r['eer_casc']:.4f} vs {r['eer_plain']:.4f}" for r in rows)
    )
    assert kl_wins >= 4, (
        f"cascade KL above plain RMML on only {kl_wins}/5 seeds: "
        + ", ".join(f"{r['kl_casc']:.3f} vs {r['kl_plain']:.3f}" for r in rows)
    )


def test_criterion_08_shuffle_stability():
    feats, labels = ecml.gen_synthetic(50, 20, 64, 1.0, 2.0, seed=0)
    pool = ecml.sample_pairs(labels, 5000, 0.5, seed=0)
    train, heldout = split_pairs(pool, 3000, 0)
    eers = []
    for shuffle_seed in range(5):
        model = ecml.fit_cascade(
            feats, train, 3, ecml.make_learner("rmml", 0.1), shuffle_seed
        )
        eers.append(_eval_model(model, feats, heldout)[0])
    std_pp = float(np.std(eers, ddof=1)) * 100.0
    ok = std_pp < 1.0
    _line(8, "shuffle stability", ok, f"eer std {std_pp:.3f} pp over 5 shuffle seeds")
    assert std_pp < 1.0


def test_criterion_09_eer_oracle():
    rng = np.random.default_rng(13)
    worst = 0.0
    for k in range(50):
        n = int(rng.integers(50, 2001))
        n_pos = int(rng.integers(1, n))
        pos = rng.normal(0.0, 1.0, size=n_pos)
        neg = rng.normal(float(rng.uniform(0.0, 2.0)), 1.0, size=n - n_pos)
        if k % 2 == 0:
            pos = np.round(pos * 8) / 8
            neg = np.round(neg * 8) / 8
        sp = ecml.ScoredPairs(
            scores=np.concatenate([pos, neg]),
            labels=np.concatenate([np.ones(n_pos, int), np.zeros(n - n_pos, int)]),
        )
        res = ecml.compute_eer(sp)
        eer, thr = brute_force_eer(sp)
        worst = max(worst, abs(res.eer - eer), abs(res.threshold - thr))
    ok = worst <= 1e-9
    _line(9, "eer brute-force oracle", ok, f"max deviation {worst:.2e} over 50 sets")
    assert worst <= 1e-9


def test_criterion_10_kl_estimator_sanity():
    rng = np.random.default_rng(14)
    pos = rng.normal(0.0, 1.0, size=100_000)
    neg = rng.normal(3.0, 1.0, size=100_000)
    sp = ecml.ScoredPairs(
        scores=np.concatenate([pos, neg]),
        labels=np.concatenate([np.ones(100_000, int), np.zeros(100_000, int)]),
    )
    # coarse bins keep the smoothed estimator unbiased once the tails stop
    # overlapping; at fine binning the eps-smoothed empty bins dominate
    kl_gauss = ecml.kl_divergence(sp, bins=10)
    same = ecml.ScoredPairs(
        scores=np.concatenate([rng.normal(size=100_000), rng.normal(size=100_000)]),
        labels=np.concatenate([np.ones(100_000, int), np.zeros(100_000, int)]),
    )
    kl_same = ecml.kl_divergence(same, bins=100)
    ok = abs(kl_gauss - 4.5) <= 0.15 * 4.5 and kl_same <= 0.01
    _line(10, "kl estimator sanity", ok,
          f"gaussians {kl_gauss:.3f} vs 4.5, identical {kl_same:.5f}")
    assert abs(kl_gauss - 4.5) <= 0.15 * 4.5
    assert kl_same <= 0.01


def test_criterion_11_determinism_and_roundtrip(tmp_path, capsys):
    feats, labels = ecml.gen_synthetic(20, 10, 16, 1.0, 2.0, seed=3)
    pairs = ecml.sample_pairs(labels, 800, 0.5, seed=3)
    ecml.save_features(feats, tmp_path / "f.csv", "csv")
    ecml.save_pairs(pairs, tmp_path / "p.csv")
    argv = [
        "fit", "--features", str(tmp_path / "f.csv"), "--pairs", str(tmp_path / "p.csv"),
        "--cascade", "--stages", "3", "--seed", "17",
    ]
    assert cli.main(argv + ["--model", str(tmp_path / "a.ecml")]) == 0
    assert cli.main(argv + ["--model", str(tmp_path / "b.ecml")]) == 0
    capsys.readouterr()
    identical = (tmp_path / "a.ecml").read_bytes() == (tmp_path / "b.ecml").read_bytes()

    refit = ecml.fit_cascade(feats, pairs, 3, ecml.make_learner("rmml", 0.1), 17)
    saved, _ = ecml.load_model(tmp_path / "a.ecml")
    rng = np.random.default_rng(18)
    bitwise = True
    for _ in range(1000):
        x, y = rng.normal(size=16), rng.normal(size=16)
        if ecml.cascade_distance(refit, x, y) != ecml.cascade_distance(saved, x, y):
            bitwise = False
            break
    ok = identical and bitwise
    _line(11, "determinism and round trip", ok,
          f"byte-identical {identical}, 1000 probes bitwise {bitwise}")
    assert identical and bitwise


def test_criterion_12_lambda_study_direction():
    rows, _ = _trend_results()
    wins = sum(1 for r in rows if r["eer_plain"] < r["eer_zero"])
    ok = wins >= 4
    detail = ", ".join(
        f"seed {r['seed']}: {r['eer_plain']:.4f} vs {r['eer_zero']:.4f}" for r in rows
    )
    _line(12, "lambda study direction", ok, f"strict wins {wins}/5")
    assert wins >= 4, (
        f"rmml at lambda=0.5 strictly below lambda=0 on only {wins}/5 seeds ({detail})"
    )
