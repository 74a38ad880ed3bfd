"""Independent check of what ``ecml eval`` reports.

Features and pairs are read with plain numpy, the model with
``ecml.cascade.load_model``; held-out scores are recomputed in one batch as
``((d @ M) * d).sum(1)`` on the transformed differences, and the equal error
rate comes from a cumulative-count threshold sweep that shares no code with
``ecml.evaluation``.
"""

from __future__ import annotations

import numpy as np

REL_TOL = 1e-9


def load_features(path):
    """Read a raw-binary feature file: magic, u64 N, u64 D, N*D float64."""
    with open(path, "rb") as fh:
        if fh.read(4) != b"CMF1":
            raise ValueError(f"{path}: not a raw-binary feature file")
        n, d = np.frombuffer(fh.read(16), dtype="<u8")
        return np.fromfile(fh, dtype="<f8", count=int(n * d)).reshape(int(n), int(d))


def load_pairs(path):
    arr = np.loadtxt(path, delimiter=",", dtype=np.int64, ndmin=2)
    return arr[:, 0], arr[:, 1], arr[:, 2]


def heldout_scores(model_path, features_path, pairs_path):
    """Per-pair scores and labels, recomputed from the model file in one batch."""
    from ecml.cascade import load_model, transform
    from ecml.features import FeatureMatrix

    model, pca = load_model(model_path)
    x = load_features(features_path)
    if pca is not None:
        x = (x - pca.mean) @ pca.basis
    t = transform(model, FeatureMatrix(x)).data
    i, j, y = load_pairs(pairs_path)
    d = t[i] - t[j]
    return ((d @ model.final_metric.matrix) * d).sum(1), y


def eer(scores, labels):
    """Equal error rate over the distinct scores, interpolated at the crossing.

    FAR(t) counts unmatched scores strictly below t, FRR(t) matched scores
    strictly above t; the crossing of FAR - FRR is interpolated linearly.
    """
    order = np.argsort(scores, kind="stable")
    s, y = scores[order], labels[order]
    n_pos, n_neg = int((y == 1).sum()), int((y == 0).sum())
    thresholds, first = np.unique(s, return_index=True)
    if thresholds.size == 1:
        return 0.5
    neg_before = np.concatenate([[0], np.cumsum(y == 0)])
    pos_upto = np.concatenate([[0], np.cumsum(y == 1)])
    end = np.append(first[1:], s.size)
    far = neg_before[first] / n_neg
    frr = (n_pos - pos_upto[end]) / n_pos
    diff = far - frr
    k = int(np.argmax(diff >= 0.0))
    if k == 0 or diff[k] == 0.0:
        return float(0.5 * (far[k] + frr[k]))
    w = -diff[k - 1] / (diff[k] - diff[k - 1])
    return float(far[k - 1] + w * (far[k] - far[k - 1]))


def close(a, b, tol=REL_TOL):
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-300)


def check(model_path, features_path, pairs_path, roc_path, reported_eer):
    """Return (failed problem descriptions, oracle EER)."""
    scores, labels = heldout_scores(model_path, features_path, pairs_path)
    oracle_eer = eer(scores, labels)
    problems = []
    if not close(oracle_eer, reported_eer):
        problems.append(f"eer: eval reported {reported_eer!r}, oracle {oracle_eer!r}")
    # The ROC table has one row per distinct score, thresholds descending.
    roc = np.loadtxt(roc_path, delimiter=",", skiprows=1, dtype=np.float64, ndmin=2)
    reported = np.sort(roc[:, 0])
    mine = np.unique(scores)
    if reported.shape != mine.shape:
        problems.append(f"scores: {reported.size} distinct in the ROC table, oracle {mine.size}")
    else:
        gap = float(np.max(np.abs(reported - mine) / np.maximum(np.abs(mine), 1e-300)))
        if gap > REL_TOL:
            problems.append(f"scores: max relative gap {gap:.3e} exceeds {REL_TOL:.0e}")
    return problems, oracle_eer
