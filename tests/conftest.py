import threading

import numpy as np
import pytest

import ecml


@pytest.fixture(autouse=True)
def no_thread_outlives_test():
    """Fail a test that leaves more threads alive than it started with."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before]
    assert not left, f"threads still alive after the test: {left}"


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def make_stats(rng, dim, n_pos=60, n_neg=60):
    """Random well-conditioned DifferenceStats via explicit pair differences."""
    pos = rng.normal(size=(n_pos, dim))
    neg = rng.normal(scale=2.0, size=(n_neg, dim))
    return ecml.DifferenceStats(
        sum_pos=pos.T @ pos,
        sum_neg=neg.T @ neg,
        tr_pos=float(np.trace(pos.T @ pos)),
        tr_neg=float(np.trace(neg.T @ neg)),
        n_pos=n_pos,
        n_neg=n_neg,
    )


def clustered_problem(seed, ids=12, spp=12, dim=16, intra=1.0, inter=2.0, count=600):
    """Synthetic features plus a sampled pair set, for fitting tests."""
    feats, labels = ecml.gen_synthetic(ids, spp, dim, intra, inter, seed)
    pairs = ecml.sample_pairs(labels, count, 0.5, seed)
    return feats, labels, pairs


def split_pairs(pairs, n_train, seed):
    """Disjoint train/held-out split of one sampled pair set."""
    rng = np.random.default_rng(seed + 104729)
    idx = rng.permutation(len(pairs))
    take = lambda sel: ecml.PairSet(pairs.i[sel], pairs.j[sel], pairs.y[sel])
    return take(idx[:n_train]), take(idx[n_train:])


def brute_force_eer(sp):
    """Independent O(n^2) threshold enumeration for the equal error rate.

    Evaluates FAR (unmatched strictly below t) and FRR (matched strictly
    above t) by direct counting at every distinct score, walks to the first
    threshold where FAR - FRR turns nonnegative, and interpolates linearly
    between the bracketing operating points. Shares no code with the
    searchsorted sweep in the package.
    """
    pos = sp.scores[sp.labels == 1]
    neg = sp.scores[sp.labels == 0]
    thresholds = sorted(set(sp.scores.tolist()))
    points = []
    for t in thresholds:
        far = int((neg < t).sum()) / neg.size
        frr = int((pos > t).sum()) / pos.size
        points.append((t, far, frr))
    if len(points) == 1:
        return 0.5, points[0][0]
    for k, (t, far, frr) in enumerate(points):
        d = far - frr
        if d >= 0.0:
            if d == 0.0 or k == 0:
                return 0.5 * (far + frr), t
            t0, far0, frr0 = points[k - 1]
            d0 = far0 - frr0
            w = -d0 / (d - d0)
            return far0 + w * (far - far0), t0 + w * (t - t0)
    raise AssertionError("no crossing found")
