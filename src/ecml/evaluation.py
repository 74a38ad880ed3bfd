"""Verification scoring, equal error rate, and the divergence between
matched and unmatched distance distributions.

Scores are distances: smaller means more likely matched. A pair is accepted
at threshold t when its score falls below t; false accepts count unmatched
scores strictly below t and false rejects count matched scores strictly
above t, so a score exactly at the threshold penalizes neither side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ._linalg import _check_integer, _check_real, _int64_exact, _real_array, _release_free_heap
from .cascade import CascadeModel, _check_rows, transform
from .errors import ValidationError
from .features import (
    FeatureFile,
    FeatureMatrix,
    PairSet,
    PcaModel,
    _parse_table,
    _read_rows,
    _write_lines,
    map_rows,
)
from .metrics import SUB_ROWS, _differences

DEFAULT_BINS = 100
# Pairs per chunk of _score_chunks, the kernel of evaluate and cascade_distance,
# and per distance_fn call in score_pairs. A constant, because BLAS picks its
# kernel by row count: a pair's bits depend on the size of its chunk.
SCORE_CHUNK = 256
KL_SMOOTHING = 1e-10


@dataclass(frozen=True)
class ScoredPairs:
    """Per-pair distance scores with their match labels (1 = matched)."""

    scores: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        scores = _real_array(self.scores, "score vector", 1)
        labels = _int64_exact(self.labels, "labels")
        if scores.size != labels.size:
            raise ValidationError("scores and labels must be of equal length")
        if not np.isin(labels, (0, 1)).all():
            raise ValidationError("labels must be 0 or 1")
        if not (labels == 1).any() or not (labels == 0).any():
            raise ValidationError("need at least one matched and one unmatched score")
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.scores.size

    @property
    def pos(self) -> np.ndarray:
        return self.scores[self.labels == 1]

    @property
    def neg(self) -> np.ndarray:
        return self.scores[self.labels == 0]


class EerResult(NamedTuple):
    eer: float
    threshold: float
    degenerate: bool = False


@dataclass(frozen=True)
class EvalReport:
    """Verification summary: EER, its threshold, ROC points, and KL(Pos||Neg)."""

    eer: float
    threshold: float
    kl_pos_neg: float
    roc: np.ndarray = field(default_factory=lambda: np.empty((0, 3)))
    degenerate: bool = False

    def __post_init__(self):
        roc = _real_array(self.roc, "roc")
        if roc.size % 3:
            raise ValidationError(f"roc must hold rows of 3 values, got shape {roc.shape}")
        _check_real(self.eer, "eer", 0, 1)
        _check_real(self.threshold, "threshold", -math.inf, math.inf)
        _check_real(self.kl_pos_neg, "kl", 0, math.inf)
        object.__setattr__(self, "eer", float(self.eer))
        object.__setattr__(self, "threshold", float(self.threshold))
        object.__setattr__(self, "kl_pos_neg", float(self.kl_pos_neg))
        object.__setattr__(self, "roc", roc.reshape(-1, 3))
        object.__setattr__(self, "degenerate", bool(self.degenerate))


def score_pairs(distance_fn, features: FeatureMatrix, pairs: PairSet) -> ScoredPairs:
    """Score every pair with ``distance_fn(x[i_chunk], x[j_chunk])``.

    ``distance_fn`` receives two equal-shape row blocks, the first and second
    members of up to ``SCORE_CHUNK`` consecutive pairs, and returns one score
    per row. Chunking bounds the memory of the gathered rows.
    """
    pairs.check_against(features)
    x = features.data
    scores = np.empty(len(pairs))
    for start in range(0, len(pairs), SCORE_CHUNK):
        chunk = slice(start, start + SCORE_CHUNK)
        scores[chunk] = distance_fn(x[pairs.i[chunk]], x[pairs.j[chunk]])
    return ScoredPairs(scores=scores, labels=pairs.y)


def evaluate(model: CascadeModel, features: FeatureMatrix | FeatureFile, pairs: PairSet,
             bins: int = DEFAULT_BINS, pca: PcaModel | None = None) -> EvalReport:
    """Score ``pairs`` with the cascade ``model`` and build the full report.

    ``features`` is a ``FeatureMatrix`` or a ``FeatureFile``, and ``pca``
    the model's PCA front end, if it has one. ``bins``, the widths and then
    the pair indices are checked before any row is read. Only the rows the
    pairs reference are read, and ``map_rows`` maps each once, through
    ``pca``, then the stages; a ``FeatureMatrix`` scored by a model with
    neither is scored as it is. ``_score_chunks`` scores the pairs, as it
    does for ``cascade_distance``, so the two agree bit for bit. The mapped
    rows and one block's or chunk's temporaries set the peak, so the free
    heap (of imports and model loading) goes back to the OS first.
    """
    _check_bins(bins)
    _check_rows(model, pca, features.dim)
    pairs.check_against(features)
    if model.stages or pca is not None or not isinstance(features, FeatureMatrix):
        rows, inverse = np.unique(np.concatenate((pairs.i, pairs.j)), return_inverse=True)
        rows.setflags(write=False)  # so that gather's check keeps it uncopied
        _release_free_heap()
        x = map_rows(features, pca, model.stages, rows).data
        first, second = inverse[: len(pairs)], inverse[len(pairs) :]
    else:
        x, first, second = features.data, pairs.i, pairs.j
    scores = _score_chunks(x, first, second, model.final_metric.matrix)
    return build_report(ScoredPairs(scores=scores, labels=pairs.y), bins=bins)


def cascade_distance(model: CascadeModel, x, y):
    """Squared metric distance d^T M d between transformed inputs.

    ``x`` and ``y`` are either two vectors, giving one float, or two
    equal-shape ``(n, D)`` row blocks, giving ``n`` scores for the row pairs
    ``(x[k], y[k])``. Both blocks go through ``transform`` in one pass and
    are scored by ``_score_chunks``, as in ``evaluate``, so the scores equal
    ``evaluate``'s bit for bit at any block size.
    """
    x, y = _real_array(x, "x"), _real_array(y, "y")
    single = x.ndim == 1 and y.ndim == 1
    x, y = np.atleast_2d(x), np.atleast_2d(y)
    if x.ndim != 2 or x.shape != y.shape:
        raise ValidationError(f"inputs must be two vectors or two equal-shape (n, D) row "
                              f"blocks, got shapes {x.shape} and {y.shape}")
    n = x.shape[0]
    stacked = np.vstack([x, y])
    stacked.setflags(write=False)  # so that FeatureMatrix keeps it uncopied
    mapped = transform(model, FeatureMatrix(stacked)).data
    scores = _score_chunks(mapped, np.arange(n), np.arange(n, 2 * n), model.final_metric.matrix)
    return float(scores[0]) if single else scores


def _score_chunks(x, first, second, m):
    """Read-only d^T m d, d = x[first[k]] - x[second[k]], ``SCORE_CHUNK`` pairs at a time.

    The one scoring kernel: the scores, a chunk's differences and its
    ``(d @ m) * d``, whose top rows first hold the subtracted ones, are its
    only arrays. The indices must already have been checked against ``x``.
    """
    n, width = first.size, x.shape[1]
    scores = np.empty(n)
    d = np.empty((min(n, SCORE_CHUNK), width))
    prod = np.empty_like(d)
    for start in range(0, n, SCORE_CHUNK):
        chunk = slice(start, start + SCORE_CHUNK)
        dk, pk = d[: scores[chunk].size], prod[: scores[chunk].size]
        _differences(x, first[chunk], second[chunk], dk, pk[:SUB_ROWS])
        np.matmul(dk, m, out=pk)
        pk *= dk
        pk.sum(axis=1, out=scores[chunk])
    scores.setflags(write=False)  # so that ScoredPairs keeps it uncopied
    return scores


def _operating_points(scored: ScoredPairs):
    """FAR/FRR step values at every distinct score, thresholds ascending.

    Of scores that compare equal (-0.0 and 0.0), the threshold takes the
    first in pair order.
    """
    # return_index makes unique sort stably, and keeps it off the path that
    # imports numpy.ma on first use
    thresholds = np.unique(scored.scores, return_index=True)[0]
    pos = np.sort(scored.pos)
    neg = np.sort(scored.neg)
    far = np.searchsorted(neg, thresholds, side="left") / neg.size
    frr = (pos.size - np.searchsorted(pos, thresholds, side="right")) / pos.size
    return thresholds, far, frr


def compute_eer(scored: ScoredPairs) -> EerResult:
    """Equal error rate with linear interpolation at the FAR/FRR crossing.

    Sweeps thresholds over the distinct scores; FAR - FRR is nondecreasing,
    and the result interpolates linearly between the bracketing thresholds
    where the sign changes. With every score identical the crossing is
    undefined and (0.5, score, degenerate=True) is returned. The value is a
    rank statistic: strictly increasing score transformations preserve it.
    """
    return _eer(*_operating_points(scored))


def _eer(thresholds, far, frr) -> EerResult:
    if thresholds.size == 1:
        return EerResult(eer=0.5, threshold=float(thresholds[0]), degenerate=True)
    diff = far - frr
    k = int(np.argmax(diff >= 0.0))
    if diff[k] == 0.0 or k == 0:
        return EerResult(eer=float(0.5 * (far[k] + frr[k])), threshold=float(thresholds[k]))
    w = -diff[k - 1] / (diff[k] - diff[k - 1])
    eer = far[k - 1] + w * (far[k] - far[k - 1])
    thr = thresholds[k - 1] + w * (thresholds[k] - thresholds[k - 1])
    return EerResult(eer=float(eer), threshold=float(thr))


def _check_bins(bins):
    _check_integer(bins, "bins", 1)


def kl_divergence(scored: ScoredPairs, bins: int = DEFAULT_BINS) -> float:
    """KL(Pos||Neg) in nats between histogram estimates of the two score
    distributions.

    Both histograms share equal-width bins over [min(scores), max(scores)];
    counts get additive smoothing of ``KL_SMOOTHING`` per bin before
    normalization. Estimates depend on ``bins``; with heavily separated
    distributions the smoothing inflates bins observed on one side only.
    """
    _check_bins(bins)
    scores = scored.scores
    lo, hi = float(scores.min()), float(scores.max())
    if lo == hi:
        raise ValidationError("need at least 2 distinct scores to compare distributions")
    hist_pos, _ = np.histogram(scored.pos, bins=bins, range=(lo, hi))
    hist_neg, _ = np.histogram(scored.neg, bins=bins, range=(lo, hi))
    p = hist_pos + KL_SMOOTHING
    q = hist_neg + KL_SMOOTHING
    p = p / p.sum()
    q = q / q.sum()
    return max(float(np.sum(p * np.log(p / q))), 0.0)


def build_report(scored: ScoredPairs, bins: int = DEFAULT_BINS) -> EvalReport:
    """Assemble the full report; ROC rows hold (threshold, far, frr) with
    thresholds descending so FAR is non-increasing down the table. A
    degenerate report (every score identical) has KL 0 and one ROC row;
    ``bins`` is checked for it too."""
    _check_bins(bins)
    points = _operating_points(scored)
    res = _eer(*points)
    return EvalReport(
        eer=res.eer,
        threshold=res.threshold,
        kl_pos_neg=0.0 if res.degenerate else kl_divergence(scored, bins),
        roc=np.column_stack(points)[::-1],
        degenerate=res.degenerate,
    )


# ---------------------------------------------------------------------------
# report persistence: flat key=value text plus an optional ROC CSV table


_REPORT_KEYS = ("eer", "threshold", "kl", "degenerate")


def report_lines(report: EvalReport) -> list[str]:
    """The ``key=value`` lines of a report file, without the ROC table."""
    return [
        f"eer={report.eer!r}",
        f"threshold={report.threshold!r}",
        f"kl={report.kl_pos_neg!r}",
        f"degenerate={'true' if report.degenerate else 'false'}",
    ]


def save_report(report: EvalReport, path, roc_path=None) -> None:
    _write_lines(path, report_lines(report))
    if roc_path is not None:
        rows = (f"{t!r},{a!r},{r!r}" for t, a, r in report.roc.tolist())
        _write_lines(roc_path, ["threshold,far,frr", *rows])


def load_report(path, roc_path=None) -> EvalReport:
    """Read a report written by :func:`save_report`.

    Every key of :func:`report_lines` must appear exactly once and no other
    key may appear; ``degenerate`` must read ``true`` or ``false``.
    """
    fields = {}
    for lineno, line in _read_rows(path):
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep:
            raise ValidationError(f"{path}: line {lineno}: expected key=value, got {line!r}")
        if key not in _REPORT_KEYS:
            raise ValidationError(f"{path}: line {lineno}: unknown report field {key!r}")
        if key in fields:
            raise ValidationError(f"{path}: line {lineno}: repeated report field {key!r}")
        fields[key] = value.strip()
    try:
        eer, threshold, kl = (float(fields[key]) for key in ("eer", "threshold", "kl"))
    except KeyError as exc:
        raise ValidationError(f"{path}: missing report field {exc}") from None
    except ValueError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    flag = fields.get("degenerate")
    if flag not in ("true", "false", None):
        raise ValidationError(f"{path}: degenerate must be true or false, got {flag!r}")
    # file line 0 of the ROC table is its header
    rows = [] if roc_path is None else [row for row in _read_rows(roc_path) if row[0] > 0]
    roc = _parse_table(roc_path, rows, float, 3) if rows else ()
    try:
        report = EvalReport(
            eer=eer, threshold=threshold, kl_pos_neg=kl, roc=roc, degenerate=flag == "true"
        )
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    # checked after the values, so a file that also holds a bad value names it
    if flag is None:
        raise ValidationError(f"{path}: missing report field 'degenerate'")
    return report
