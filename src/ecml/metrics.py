"""Difference-space statistics and the closed-form Mahalanobis metric learners.

All learners consume :class:`DifferenceStats` accumulated over labeled sample
pairs and return a :class:`MetricModel` holding a symmetric matrix M that
scores a pair as ``d.T @ M @ d`` on the feature difference ``d = x_i - x_j``.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

from ._linalg import (_check_integer, _check_real, _release_free_heap, freeze_array, is_symmetric,
                      symmetrize)
from .errors import SingularCovariance, ValidationError
from .features import FeatureMatrix, PairSet

COND_LIMIT = 1e12
RHO_FLOOR = 1e-12
DEFAULT_LAMBDA = 0.5
# Pairs per difference block in accumulate_stats; fixed, because the
# summation order it sets is part of the model bytes.
STATS_CHUNK = 2048
# Rows of x[second] that _differences subtracts at a time
SUB_ROWS = 64

LEARNER_NAMES = ("rmml", "kissme", "genuine-baseline")


@dataclass(frozen=True)
class DifferenceStats:
    """Accumulated outer products of pair differences.

    ``sum_pos`` is the D x D sum of d d^T over matched pairs and ``tr_pos``
    its trace, the matching sum of d^T d; likewise for the unmatched
    quantities. The public constructor checks shape, pair counts,
    finiteness, symmetry and positive semidefiniteness (one ``eigvalsh``
    per sum).
    """

    sum_pos: np.ndarray
    sum_neg: np.ndarray
    n_pos: int
    n_neg: int

    def __post_init__(self):
        self._check(psd=True)

    @classmethod
    def _from_sums(cls, sum_pos, sum_neg, n_pos, n_neg):
        """Stats whose matrices are sums of d d^T formed in this module.

        Such sums are PSD by construction, so the O(D^3) eigenvalue check of
        the public constructor is skipped; every other check still runs.
        """
        stats = object.__new__(cls)
        for name, value in (
            ("sum_pos", sum_pos), ("sum_neg", sum_neg), ("n_pos", n_pos), ("n_neg", n_neg),
        ):
            object.__setattr__(stats, name, value)
        stats._check(psd=False)
        return stats

    def _check(self, psd):
        sp = np.asarray(self.sum_pos, dtype=np.float64)
        sn = np.asarray(self.sum_neg, dtype=np.float64)
        if sp.ndim != 2 or sp.shape[0] != sp.shape[1] or sp.shape != sn.shape:
            raise ValidationError("sum matrices must be square and of equal shape")
        _check_integer(self.n_pos, "n_pos", 1)
        _check_integer(self.n_neg, "n_neg", 1)
        for name, mat in (("matched", sp), ("unmatched", sn)):
            if not np.isfinite(mat).all():
                raise ValidationError(f"{name} sum matrix has non-finite entries")
            scale = max(1.0, float(mat.max()), -float(mat.min()))  # max |entry|
            if not is_symmetric(mat) and np.abs(mat - mat.T).max() > 1e-8 * scale:
                raise ValidationError(f"{name} sum matrix is not symmetric within 1e-8")
            if psd and np.linalg.eigvalsh(symmetrize(mat)).min() < -1e-8 * scale:
                raise ValidationError(f"{name} sum matrix is not PSD within 1e-8")
        object.__setattr__(self, "sum_pos", freeze_array(sp))
        object.__setattr__(self, "sum_neg", freeze_array(sn))
        object.__setattr__(self, "n_pos", int(self.n_pos))
        object.__setattr__(self, "n_neg", int(self.n_neg))

    @property
    def tr_pos(self) -> float:
        return float(np.trace(self.sum_pos))

    @property
    def tr_neg(self) -> float:
        return float(np.trace(self.sum_neg))

    @property
    def dim(self) -> int:
        return self.sum_pos.shape[0]


@dataclass(frozen=True)
class MetricModel:
    """Learned symmetric Mahalanobis matrix with its provenance.

    ``lam`` and ``rho`` are populated by the rmml learner only; ``rho`` is
    the eigenvalue normalizer that was actually applied, None if none was.
    """

    matrix: np.ndarray
    learner: str
    lam: float | None = None
    rho: float | None = None

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError(f"metric matrix must be square, got shape {m.shape}")
        # checked after symmetrizing, which can overflow finite entries
        m = symmetrize(m)
        if not np.isfinite(m).all():
            raise ValidationError("metric matrix has non-finite entries")
        if not (isinstance(self.learner, str) and self.learner):
            raise ValidationError(f"learner tag must be a nonempty string, got {self.learner!r}")
        for name, what in (("lam", "lambda"), ("rho", "rho")):
            value = getattr(self, name)
            if value is not None:
                _check_real(value, what, 0, math.inf)
                object.__setattr__(self, name, float(value))
        object.__setattr__(self, "matrix", freeze_array(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def accumulate_stats(features: FeatureMatrix, pairs: PairSet) -> DifferenceStats:
    """Accumulate d d^T sums and squared norms over matched/unmatched pairs.

    Each class's differences are gathered ``STATS_CHUNK`` pairs at a time, in
    pair-set order, and their ``d.T @ d`` products are added into one D x D
    total (see ``_class_buffers`` for the blocks). A class of at most
    ``STATS_CHUNK`` pairs is one product; a larger one sums its chunk
    products in order, which rounds differently from one product over the
    whole class. The chunk size is therefore part of the determinism
    contract for model bytes.

    The matched class is summed on a worker thread (see
    ``_concurrent_class_sums``) while the calling thread sums the unmatched
    one. Each keeps its own chunk order, so the result is the same to the
    bit as summing them one after the other. How the two threads' small
    allocations interleave differs from run to run, and with it which freed
    heap blocks stay resident; handing the free heap back to the OS once the
    class buffers are freed (``_release_free_heap``) keeps the fit's peak RSS
    the same from run to run.
    """
    # must come first: _class_sum gathers with mode="clip", which would
    # silently clamp an out-of-range index instead of raising
    pairs.check_against(features)
    (n_pos, sum_pos), (n_neg, sum_neg) = _concurrent_class_sums(features.data, pairs)
    # read-only, so the stats hold the sums themselves rather than frozen copies
    sum_pos.setflags(write=False)
    sum_neg.setflags(write=False)
    _release_free_heap()
    return DifferenceStats._from_sums(sum_pos, sum_neg, n_pos, n_neg)


def _concurrent_class_sums(x, pairs):
    """(pair count, sum of d d^T) for the matched and then the unmatched class.

    The matched class is summed on one worker thread while this thread sums
    the unmatched one. The worker is joined whether or not this thread's sum
    raised. An exception raised in the worker is re-raised here, unless this
    thread raised one of its own, which then propagates instead.
    """
    # every array either loop touches is allocated here, before the worker
    # starts, and the loops allocate no arrays: a worker's own malloc arena
    # cannot reuse heap that earlier stages freed, and large allocations made
    # while both threads run leave a heap layout, and so a peak RSS, that
    # depends on how the threads interleave
    pos = _class_buffers(x, pairs, 1)
    neg = _class_buffers(x, pairs, 0)
    errors = []

    def matched():
        try:
            _class_sum(x, *pos)
        except BaseException as exc:  # re-raised on the calling thread below
            errors.append(exc)

    worker = threading.Thread(target=matched, name="ecml-matched-stats")
    worker.start()
    try:
        _class_sum(x, *neg)
    finally:
        worker.join()
    if errors:
        raise errors[0]
    return [(first.size, total) for first, *_, total, _ in (pos, neg)]


def _class_buffers(x, pairs, label):
    """Row indices and buffers for one class's sum: the arguments of _class_sum after x.

    Whatever the pair count, the buffers are one ``STATS_CHUNK`` x D gather
    block, the D x D total, a D x D ``prod`` only when the class spans several
    chunks, and ``sub``: the top rows of the block each product writes, or
    its own block if D < ``SUB_ROWS``.
    """
    idx = np.flatnonzero(pairs.y == label)
    width = x.shape[1]
    gather = np.empty((min(idx.size, STATS_CHUNK), width))
    total = np.empty((width, width))
    prod = np.empty((width, width)) if idx.size > STATS_CHUNK else None
    sub = (total if prod is None else prod)[:SUB_ROWS]
    if width < SUB_ROWS:
        sub = np.empty((SUB_ROWS, width))
    return pairs.i[idx], pairs.j[idx], gather, sub, total, prod


def _class_sum(x, first, second, gather, sub, total, prod):
    """Fill ``total`` with the sum of d d^T, d = x[first] - x[second], chunk by chunk in order.

    The indices must already have been checked against ``x`` (see
    ``_differences``). The first chunk's product is written straight
    into ``total``, so its bits (signed zeros included) are those of
    ``d.T @ d``; later products go through ``prod`` and are added. Every
    intermediate lands in the given buffers, so the loop allocates no arrays.
    """
    for start in range(0, first.size, STATS_CHUNK):
        stop = min(start + STATS_CHUNK, first.size)
        d = gather[: stop - start]
        _differences(x, first[start:stop], second[start:stop], d, sub)
        if start == 0:
            np.matmul(d.T, d, out=total)
        else:
            np.matmul(d.T, d, out=prod)
            total += prod


def _differences(x, first, second, d, sub):
    """Fill ``d`` with x[first] - x[second], allocating no arrays.

    The x[second] rows are gathered into ``sub`` and subtracted ``len(sub)``
    at a time. The gathers clip out-of-range indices, so the indices must
    already have been checked against ``x``.
    """
    x.take(first, axis=0, out=d, mode="clip")
    step = sub.shape[0]
    for s in range(0, first.size, step):
        rows = sub[: min(step, first.size - s)]
        x.take(second[s : s + step], axis=0, out=rows, mode="clip")
        d[s : s + step] -= rows


def fit_rmml(stats: DifferenceStats, lam: float = DEFAULT_LAMBDA) -> MetricModel:
    """Closed-form robust metric: M = I + lam * C / rho.

    C contrasts the trace-normalized unmatched and matched difference sums
    (``_contrast``). Because trace(C) is zero, rho is the mean of the absolute
    eigenvalues of C, which puts C on the magnitude of the identity. Below
    ``RHO_FLOOR`` C is numerically zero, the objective's gradient is M - I,
    and M = I is returned with ``rho`` None: no normalizer was applied.
    Nothing is inverted, so any stats have an answer.
    """
    _check_real(lam, "lambda", 0, math.inf)
    contrast = _contrast(stats)
    rho = float(np.abs(np.linalg.eigvalsh(symmetrize(contrast))).mean())
    if rho < RHO_FLOOR:
        m, rho = np.eye(stats.dim), None
    else:
        m = np.eye(stats.dim) + lam * (contrast / rho)
    m.setflags(write=False)  # so that MetricModel keeps it uncopied
    return MetricModel(matrix=m, learner="rmml", lam=float(lam), rho=rho)


def _contrast(stats):
    """C = sum_neg / tr_neg - sum_pos / tr_pos with 0/0 taken as 0: a class whose
    differences are all zero adds no term, and only then is a zero array made for it."""
    def scatter(total, trace):
        return total / trace if trace > 0.0 else np.zeros_like(total)
    return scatter(stats.sum_neg, stats.tr_neg) - scatter(stats.sum_pos, stats.tr_pos)


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

    g1 = tr(sum_pos M)/tr_pos - tr(sum_neg M)/tr_neg = -tr(C M) (``_contrast``)
    contrasts the normalized matched/unmatched distances; g2 = 0.5 * ||M - I||_F^2
    is the regularizer whose gradient (M - I) makes ``fit_rmml`` the exact
    stationary point.
    """
    _check_real(lam, "lambda", 0, math.inf)
    m = np.asarray(matrix, dtype=np.float64)
    if m.shape != stats.sum_pos.shape:
        raise ValidationError(f"matrix shape {m.shape} does not match stats dim {stats.dim}")
    g1 = -np.einsum("ij,ji->", _contrast(stats), m)
    delta = m - np.eye(m.shape[0])
    g2 = 0.5 * float((delta * delta).sum())
    return float(lam * g1 + g2)


def make_learner(name: str, lam: float | None = None):
    """Return a ``stats -> MetricModel`` callable for a named learner.

    A given ``lam`` is checked for every learner, although only rmml uses it.
    """
    if lam is not None:
        _check_real(lam, "lambda", 0, math.inf)
    if name == "rmml":
        return functools.partial(fit_rmml, lam=DEFAULT_LAMBDA if lam is None else float(lam))
    if name == "kissme":
        return fit_kissme
    if name == "genuine-baseline":
        return fit_genuine_baseline
    raise ValidationError(f"unknown learner {name!r}; expected one of {LEARNER_NAMES}")
