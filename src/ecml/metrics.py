"""Difference-space statistics and the closed-form Mahalanobis metric learners.

All learners consume :class:`DifferenceStats` accumulated over labeled sample
pairs and return a :class:`MetricModel` holding a symmetric matrix M that
scores a pair as ``d.T @ M @ d`` on the feature difference ``d = x_i - x_j``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._linalg import freeze_array, symmetrize
from .errors import DegenerateStats, SingularCovariance, ValidationError
from .features import FeatureMatrix, PairSet

COND_LIMIT = 1e12
RHO_FLOOR = 1e-12
DEFAULT_LAMBDA = 0.5
# Pairs per difference block in accumulate_stats; fixed, because the
# summation order it sets is part of the model bytes.
STATS_CHUNK = 2048

LEARNER_NAMES = ("rmml", "kissme", "genuine-baseline")


@dataclass(frozen=True)
class DifferenceStats:
    """Accumulated outer products and squared norms of pair differences.

    ``sum_pos`` is the D x D sum of d d^T over matched pairs and ``tr_pos``
    the matching sum of d^T d (equal to trace(sum_pos)); likewise for the
    unmatched quantities.
    """

    sum_pos: np.ndarray
    sum_neg: np.ndarray
    tr_pos: float
    tr_neg: float
    n_pos: int
    n_neg: int

    def __post_init__(self):
        self._check(psd=True)

    @classmethod
    def _from_sums(cls, sum_pos, sum_neg, tr_pos, tr_neg, n_pos, n_neg):
        """Stats whose matrices are sums of d d^T formed in this module.

        Such sums are PSD by construction, so the O(D^3) eigenvalue check of
        the public constructor is skipped; every other check still runs.
        """
        stats = object.__new__(cls)
        for name, value in (
            ("sum_pos", sum_pos), ("sum_neg", sum_neg), ("tr_pos", tr_pos),
            ("tr_neg", tr_neg), ("n_pos", n_pos), ("n_neg", n_neg),
        ):
            object.__setattr__(stats, name, value)
        stats._check(psd=False)
        return stats

    def _check(self, psd):
        sp = np.asarray(self.sum_pos, dtype=np.float64)
        sn = np.asarray(self.sum_neg, dtype=np.float64)
        if sp.ndim != 2 or sp.shape[0] != sp.shape[1] or sp.shape != sn.shape:
            raise ValidationError("sum matrices must be square and of equal shape")
        if self.n_pos < 1 or self.n_neg < 1:
            raise ValidationError("need at least one matched and one unmatched pair")
        for name, mat, tr in (("matched", sp, self.tr_pos), ("unmatched", sn, self.tr_neg)):
            if not np.isfinite(mat).all():
                raise ValidationError(f"{name} sum matrix has non-finite entries")
            scale = max(1.0, float(np.abs(mat).max()))
            if np.abs(mat - mat.T).max() > 1e-8 * scale:
                raise ValidationError(f"{name} sum matrix is not symmetric within 1e-8")
            if psd and np.linalg.eigvalsh(symmetrize(mat)).min() < -1e-8 * scale:
                raise ValidationError(f"{name} sum matrix is not PSD within 1e-8")
            if abs(tr - np.trace(mat)) > 1e-8 * max(1.0, abs(tr)):
                raise ValidationError(
                    f"{name} squared-norm total {tr} disagrees with trace {np.trace(mat)}"
                )
        object.__setattr__(self, "sum_pos", freeze_array(sp))
        object.__setattr__(self, "sum_neg", freeze_array(sn))
        object.__setattr__(self, "tr_pos", float(self.tr_pos))
        object.__setattr__(self, "tr_neg", float(self.tr_neg))
        object.__setattr__(self, "n_pos", int(self.n_pos))
        object.__setattr__(self, "n_neg", int(self.n_neg))

    @property
    def dim(self) -> int:
        return self.sum_pos.shape[0]


@dataclass(frozen=True)
class MetricModel:
    """Learned symmetric Mahalanobis matrix with its provenance.

    ``lam`` and ``rho`` are populated by the rmml learner only; ``rho`` is
    the eigenvalue normalizer that was actually applied.
    """

    matrix: np.ndarray
    learner: str
    lam: float | None = None
    rho: float | None = None

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError(f"metric matrix must be square, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise ValidationError("metric matrix has non-finite entries")
        if not self.learner:
            raise ValidationError("learner tag must be a nonempty string")
        object.__setattr__(self, "matrix", freeze_array(symmetrize(m)))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def accumulate_stats(features: FeatureMatrix, pairs: PairSet) -> DifferenceStats:
    """Accumulate d d^T sums and squared norms over matched/unmatched pairs.

    Each class's differences are gathered ``STATS_CHUNK`` pairs at a time, in
    pair-set order, and their ``d.T @ d`` products are added into one D x D
    total, so beyond the result the call allocates a few chunk x D blocks
    whatever the pair count. A class of at most ``STATS_CHUNK`` pairs is one
    product; a larger one sums its chunk products in order, which rounds
    differently from one product over the whole class. The chunk size is
    therefore part of the determinism contract for model bytes.
    """
    pairs.check_against(features)
    sum_pos, n_pos = _class_sum(features.data, pairs, 1)
    sum_neg, n_neg = _class_sum(features.data, pairs, 0)
    return DifferenceStats._from_sums(
        sum_pos=sum_pos,
        sum_neg=sum_neg,
        tr_pos=float(np.trace(sum_pos)),
        tr_neg=float(np.trace(sum_neg)),
        n_pos=n_pos,
        n_neg=n_neg,
    )


def _class_sum(x, pairs, label):
    """Sum of d d^T over the pairs labeled ``label``, and their count."""
    idx = np.flatnonzero(pairs.y == label)
    total = None
    for start in range(0, idx.size, STATS_CHUNK):
        k = idx[start : start + STATS_CHUNK]
        d = x[pairs.i[k]] - x[pairs.j[k]]
        if total is None:
            total = d.T @ d
        else:
            total += d.T @ d
    return total, idx.size


def merge_stats(a: DifferenceStats, b: DifferenceStats) -> DifferenceStats:
    """Merge stats accumulated over disjoint pair partitions."""
    if a.dim != b.dim:
        raise ValidationError(f"cannot merge stats of dim {a.dim} and {b.dim}")
    return DifferenceStats._from_sums(
        sum_pos=a.sum_pos + b.sum_pos,
        sum_neg=a.sum_neg + b.sum_neg,
        tr_pos=a.tr_pos + b.tr_pos,
        tr_neg=a.tr_neg + b.tr_neg,
        n_pos=a.n_pos + b.n_pos,
        n_neg=a.n_neg + b.n_neg,
    )


def fit_rmml(stats: DifferenceStats, lam: float = DEFAULT_LAMBDA) -> MetricModel:
    """Closed-form robust metric: M = I + lam * C / rho.

    C contrasts the trace-normalized unmatched and matched difference sums
    (sum_neg / tr_neg - sum_pos / tr_pos). Because trace(C) is identically
    zero, the plain mean eigenvalue cannot normalize it; rho is the mean of
    the absolute eigenvalues of C, which puts C on the magnitude of the
    identity. No covariance inversion is involved anywhere on this path.
    """
    _check_lambda(lam)
    if stats.tr_pos <= 0.0:
        raise DegenerateStats("all matched pair differences are zero (tr_pos = 0)")
    if stats.tr_neg <= 0.0:
        raise DegenerateStats("all unmatched pair differences are zero (tr_neg = 0)")
    contrast = stats.sum_neg / stats.tr_neg - stats.sum_pos / stats.tr_pos
    rho = float(np.abs(np.linalg.eigvalsh(symmetrize(contrast))).mean())
    if rho < RHO_FLOOR:
        raise DegenerateStats(f"contrast matrix is numerically zero (mean |eigenvalue| = {rho:.3e})")
    m = np.eye(stats.dim) + lam * (contrast / rho)
    return MetricModel(matrix=m, learner="rmml", lam=float(lam), rho=rho)


def _check_lambda(lam):
    if not (math.isfinite(lam) and lam >= 0):
        raise ValidationError(f"lambda must be finite and nonnegative, got {lam}")


def _spd_inverse(sigma, label):
    """Invert a PSD covariance through its symmetric eigendecomposition.

    Raises :class:`SingularCovariance` when factorization fails or the
    condition number exceeds ``COND_LIMIT``; callers treat that as a
    first-class, catchable fitting failure.
    """
    try:
        evals, evecs = np.linalg.eigh(sigma)
    except np.linalg.LinAlgError as exc:
        raise SingularCovariance(f"{label} covariance factorization failed: {exc}") from exc
    lo, hi = float(evals[0]), float(evals[-1])
    if lo <= 0.0 or hi / lo > COND_LIMIT:
        cond = math.inf if lo <= 0.0 else hi / lo
        raise SingularCovariance(
            f"{label} covariance is singular or ill-conditioned "
            f"(condition number {cond:.3e}, limit {COND_LIMIT:.0e})"
        )
    return (evecs / evals) @ evecs.T


def fit_kissme(stats: DifferenceStats) -> MetricModel:
    """Log-likelihood-ratio metric: M = inv(Sigma_pos) - inv(Sigma_neg).

    Covariances are the per-count means of the difference outer products.
    Raises :class:`SingularCovariance` when either covariance cannot be
    inverted reliably.
    """
    inv_pos = _spd_inverse(stats.sum_pos / stats.n_pos, "matched")
    inv_neg = _spd_inverse(stats.sum_neg / stats.n_neg, "unmatched")
    return MetricModel(matrix=inv_pos - inv_neg, learner="kissme")


def fit_genuine_baseline(stats: DifferenceStats) -> MetricModel:
    """Baseline metric from matched pairs only: M = inv(Sigma_pos)."""
    inv_pos = _spd_inverse(stats.sum_pos / stats.n_pos, "matched")
    return MetricModel(matrix=inv_pos, learner="genuine-baseline")


def objective(stats: DifferenceStats, matrix, lam: float) -> float:
    """Evaluate lam * g1 + g2 at M.

    g1 = tr(sum_pos M)/tr_pos - tr(sum_neg M)/tr_neg contrasts the
    normalized matched/unmatched distances; g2 = 0.5 * ||M - I||_F^2 is the
    regularizer whose gradient (M - I) makes ``fit_rmml`` the exact
    stationary point.
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.shape != stats.sum_pos.shape:
        raise ValidationError(f"matrix shape {m.shape} does not match stats dim {stats.dim}")
    g1 = (
        np.einsum("ij,ji->", stats.sum_pos, m) / stats.tr_pos
        - np.einsum("ij,ji->", stats.sum_neg, m) / stats.tr_neg
    )
    delta = m - np.eye(m.shape[0])
    g2 = 0.5 * float((delta * delta).sum())
    return float(lam * g1 + g2)


def make_learner(name: str, lam: float | None = None):
    """Return a ``stats -> MetricModel`` callable for a named learner.

    A given ``lam`` is checked for every learner, although only rmml uses it.
    """
    if lam is not None:
        _check_lambda(lam)
    if name == "rmml":
        return functools.partial(fit_rmml, lam=DEFAULT_LAMBDA if lam is None else float(lam))
    if name == "kissme":
        return fit_kissme
    if name == "genuine-baseline":
        return fit_genuine_baseline
    raise ValidationError(f"unknown learner {name!r}; expected one of {LEARNER_NAMES}")
