"""Feature ingestion, PCA preprocessing, pair sampling, and synthetic
identity-cluster generation for desk-scale experiments.

File formats
------------
CSV features: one sample per line, comma-separated decimal floats, with an
optional leading header line ``# dim=D count=N``.

Raw binary features: magic ``CMF1``, little-endian u64 N, u64 D, then N*D
little-endian float64 values in row-major order.

Pair files: CSV lines ``i,j,y`` with 0-based sample indices and y in {0,1}.

Label files: one integer identity id per line.
"""

from __future__ import annotations

import math
import re
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._linalg import fix_column_signs, freeze_array
from .errors import NumericalError, ValidationError

FEATURE_MAGIC = b"CMF1"
_HEADER_RE = re.compile(r"#\s*dim=(\d+)\s+count=(\d+)\s*$")

FEATURE_FORMATS = ("csv", "raw-binary")


@dataclass(frozen=True)
class FeatureMatrix:
    """Immutable N x D matrix of per-sample feature rows (float64)."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim != 2:
            raise ValidationError(f"feature matrix must be 2-D, got shape {arr.shape}")
        n, d = arr.shape
        if n < 1 or d < 1:
            raise ValidationError(f"feature matrix needs N >= 1 and D >= 1, got N={n}, D={d}")
        bad = ~np.isfinite(arr)
        if bad.any():
            r, c = map(int, np.argwhere(bad)[0])
            raise ValidationError(f"non-finite feature value at row {r}, column {c}")
        object.__setattr__(self, "data", freeze_array(arr))

    @property
    def count(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class PairSet:
    """Unordered sample-index pairs with match labels (1 = same identity)."""

    i: np.ndarray
    j: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        i = np.asarray(self.i, dtype=np.int64)
        j = np.asarray(self.j, dtype=np.int64)
        y = np.asarray(self.y, dtype=np.int64)
        if not (i.ndim == j.ndim == y.ndim == 1 and i.size == j.size == y.size):
            raise ValidationError("pair arrays must be 1-D and of equal length")
        if i.size == 0:
            raise ValidationError("pair set is empty")
        if (i < 0).any() or (j < 0).any():
            raise ValidationError("pair indices must be nonnegative")
        if (i == j).any():
            k = int(np.argmax(i == j))
            raise ValidationError(f"pair {k} joins sample {int(i[k])} with itself")
        if not np.isin(y, (0, 1)).all():
            raise ValidationError("pair labels must be 0 or 1")
        if not (y == 1).any() or not (y == 0).any():
            raise ValidationError(
                "pair set needs at least one matched (y=1) and one unmatched (y=0) pair"
            )
        object.__setattr__(self, "i", freeze_array(i))
        object.__setattr__(self, "j", freeze_array(j))
        object.__setattr__(self, "y", freeze_array(y))

    def __len__(self) -> int:
        return self.i.size

    @property
    def n_pos(self) -> int:
        return int((self.y == 1).sum())

    @property
    def n_neg(self) -> int:
        return int((self.y == 0).sum())

    def check_against(self, features: FeatureMatrix) -> None:
        """Raise if any pair index falls outside the feature matrix."""
        n = features.count
        hi = int(max(self.i.max(), self.j.max()))
        if hi >= n:
            raise ValidationError(f"pair index {hi} out of range for {n} samples")


@dataclass(frozen=True)
class PcaModel:
    """Centering vector plus orthonormal top-k principal directions (D x k)."""

    mean: np.ndarray
    basis: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        basis = np.asarray(self.basis, dtype=np.float64)
        if mean.ndim != 1 or basis.ndim != 2 or basis.shape[0] != mean.size:
            raise ValidationError("PCA mean must be a D-vector and basis a D x k matrix")
        if not (np.isfinite(mean).all() and np.isfinite(basis).all()):
            raise ValidationError("PCA model has non-finite entries")
        k = basis.shape[1]
        if not 1 <= k <= basis.shape[0]:
            raise ValidationError(f"PCA basis needs 1 <= k <= D, got k={k}, D={basis.shape[0]}")
        gram = basis.T @ basis
        if np.abs(gram - np.eye(k)).max() > 1e-8:
            raise ValidationError("PCA basis columns are not orthonormal within 1e-8")
        object.__setattr__(self, "mean", freeze_array(mean))
        object.__setattr__(self, "basis", freeze_array(basis))

    @property
    def input_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def k(self) -> int:
        return self.basis.shape[1]


# ---------------------------------------------------------------------------
# file I/O


def load_features(path, fmt="csv") -> FeatureMatrix:
    """Load a feature matrix from ``path`` in the declared format."""
    if fmt == "csv":
        return _load_csv(path)
    if fmt == "raw-binary":
        return _load_binary(path)
    raise ValidationError(f"unknown feature format {fmt!r}; expected one of {FEATURE_FORMATS}")


def save_features(features: FeatureMatrix, path, fmt="csv") -> None:
    """Write a feature matrix; a save/load round trip is bit-exact."""
    if fmt == "csv":
        lines = [f"# dim={features.dim} count={features.count}"]
        for row in features.data:
            lines.append(",".join(repr(float(v)) for v in row))
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    elif fmt == "raw-binary":
        with open(path, "wb") as fh:
            fh.write(FEATURE_MAGIC)
            fh.write(struct.pack("<QQ", features.count, features.dim))
            fh.write(np.ascontiguousarray(features.data, dtype="<f8").tobytes())
    else:
        raise ValidationError(f"unknown feature format {fmt!r}; expected one of {FEATURE_FORMATS}")


def _read_text(path):
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"{path}: cannot read file: {exc}") from exc


def _read_bytes(path):
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise ValidationError(f"{path}: cannot read file: {exc}") from exc


def _load_csv(path) -> FeatureMatrix:
    lines = _read_text(path).splitlines()
    declared = None
    start = 0
    if lines and lines[0].lstrip().startswith("#"):
        m = _HEADER_RE.match(lines[0].strip())
        if not m:
            raise ValidationError(f"{path}: malformed header line {lines[0]!r}")
        declared = (int(m.group(2)), int(m.group(1)))  # (N, D)
        start = 1
    rows = []
    width = None
    for line in lines[start:]:
        if not line.strip():
            continue
        parts = line.split(",")
        r = len(rows)
        if width is None:
            width = len(parts)
        elif len(parts) != width:
            raise ValidationError(f"{path}: row {r} has {len(parts)} values, expected {width}")
        vals = []
        for c, tok in enumerate(parts):
            try:
                v = float(tok)
            except ValueError:
                raise ValidationError(
                    f"{path}: row {r}, column {c}: cannot parse {tok.strip()!r}"
                ) from None
            if not math.isfinite(v):
                raise ValidationError(
                    f"{path}: non-finite value {tok.strip()!r} at row {r}, column {c}"
                )
            vals.append(v)
        rows.append(vals)
    if not rows:
        raise ValidationError(f"{path}: no feature rows")
    data = np.asarray(rows, dtype=np.float64)
    if declared is not None and declared != data.shape:
        raise ValidationError(
            f"{path}: header declares {declared[0]}x{declared[1]} but payload is "
            f"{data.shape[0]}x{data.shape[1]}"
        )
    return FeatureMatrix(data)


def _load_binary(path) -> FeatureMatrix:
    buf = _read_bytes(path)
    header = 4 + 8 + 8
    if len(buf) < header:
        raise ValidationError(f"{path}: file too short for feature header ({len(buf)} bytes)")
    if buf[:4] != FEATURE_MAGIC:
        raise ValidationError(f"{path}: bad magic {buf[:4]!r}, expected {FEATURE_MAGIC!r}")
    n, d = struct.unpack_from("<QQ", buf, 4)
    expected = header + n * d * 8
    if len(buf) != expected:
        raise ValidationError(
            f"{path}: expected {expected} bytes for {n}x{d} features, found {len(buf)}"
        )
    if n < 1 or d < 1:
        raise ValidationError(f"{path}: header declares empty matrix {n}x{d}")
    data = np.frombuffer(buf, dtype="<f8", offset=header, count=n * d).reshape(n, d)
    return FeatureMatrix(data)


def save_pairs(pairs: PairSet, path) -> None:
    lines = [f"{int(a)},{int(b)},{int(c)}" for a, b, c in zip(pairs.i, pairs.j, pairs.y)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_pairs(path) -> PairSet:
    arr = _load_int_lines(path, 3, "pairs")
    return PairSet(arr[:, 0], arr[:, 1], arr[:, 2])


def save_labels(labels, path) -> None:
    labels = np.asarray(labels, dtype=np.int64)
    Path(path).write_text("\n".join(str(int(v)) for v in labels) + "\n", encoding="utf-8")


def load_labels(path) -> np.ndarray:
    return _load_int_lines(path, 1, "labels")[:, 0]


def _load_int_lines(path, fields, what) -> np.ndarray:
    """Non-blank lines of ``fields`` comma-separated integers as an int64 array."""
    lines = _read_text(path).splitlines()
    rows = []
    for lineno, line in enumerate(lines):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != fields:
            raise ValidationError(
                f"{path}: line {lineno}: expected {fields} comma-separated integers, got {line!r}"
            )
        try:
            rows.append(tuple(map(int, parts)))
        except ValueError:
            raise ValidationError(f"{path}: line {lineno}: non-integer field in {line!r}") from None
    if not rows:
        raise ValidationError(f"{path}: no {what}")
    try:
        return np.asarray(rows, dtype=np.int64)
    except OverflowError:
        linenos = [n for n, line in enumerate(lines) if line.strip()]
        k = next(k for k, row in enumerate(rows) if not all(-(2**63) <= v < 2**63 for v in row))
        raise ValidationError(f"{path}: line {linenos[k]}: integer out of int64 range") from None


# ---------------------------------------------------------------------------
# PCA


def fit_pca(features: FeatureMatrix, k: int) -> PcaModel:
    """Fit a centered (not whitened) PCA onto the top-k covariance eigenvectors.

    Eigenvalues are taken in non-increasing order; eigenvector signs are
    pinned for reproducibility.
    """
    n, d = features.count, features.dim
    kmax = min(n - 1, d)
    if not 1 <= k <= kmax:
        raise ValidationError(
            f"pca dimension {k} out of range [1, {kmax}] for {n} samples of dim {d}"
        )
    mean = features.data.mean(axis=0)
    centered = features.data - mean
    cov = centered.T @ centered / (n - 1)
    try:
        evals, evecs = np.linalg.eigh(cov)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"covariance eigendecomposition failed: {exc}") from exc
    order = np.argsort(evals)[::-1][:k]
    basis = fix_column_signs(evecs[:, order])
    return PcaModel(mean=mean, basis=basis)


def apply_pca(model: PcaModel, features: FeatureMatrix) -> FeatureMatrix:
    """Project rows onto the PCA basis: (x - mean) @ basis."""
    if features.dim != model.input_dim:
        raise ValidationError(
            f"feature dim {features.dim} does not match PCA input dim {model.input_dim}"
        )
    return FeatureMatrix((features.data - model.mean) @ model.basis)


# ---------------------------------------------------------------------------
# pair sampling and synthetic data


def sample_pairs(labels, count: int, pos_fraction: float, seed: int) -> PairSet:
    """Draw ``count`` distinct unordered pairs without replacement.

    Matched pairs are uniform over same-identity pairs, unmatched pairs
    uniform over cross-identity pairs; the split honors ``pos_fraction``
    within rounding. Deterministic for a fixed seed.
    """
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.size < 2:
        raise ValidationError("labels must be a 1-D array of at least 2 samples")
    if count < 1:
        raise ValidationError("pair count must be >= 1")
    if not 0.0 <= pos_fraction <= 1.0:
        raise ValidationError(f"pos_fraction must lie in [0, 1], got {pos_fraction}")
    n = labels.size
    n_pos = int(round(count * pos_fraction))
    n_neg = count - n_pos
    if n_pos < 1 or n_neg < 1:
        raise ValidationError(
            f"requested split gives {n_pos} matched / {n_neg} unmatched pairs; "
            "at least one of each is required"
        )

    pos_i, pos_j = _same_identity_pairs(labels)
    pos_avail = pos_i.size
    total = n * (n - 1) // 2
    neg_avail = total - pos_avail
    if n_pos > pos_avail:
        raise ValidationError(f"requested {n_pos} matched pairs but only {pos_avail} exist")
    if n_neg > neg_avail:
        raise ValidationError(f"requested {n_neg} unmatched pairs but only {neg_avail} exist")

    rng = _rng(seed)
    sel = rng.choice(pos_avail, size=n_pos, replace=False)
    pi, pj = pos_i[sel], pos_j[sel]

    # enumerate the cross-identity pool outright when it is small or the
    # request is dense; otherwise rejection-sample (memory stays bounded)
    if n <= 2048 or (3 * n_neg >= neg_avail and n <= 4096):
        ii, jj = np.triu_indices(n, 1)
        mask = labels[ii] != labels[jj]
        ni_pool, nj_pool = ii[mask], jj[mask]
        sel = rng.choice(ni_pool.size, size=n_neg, replace=False)
        ni, nj = ni_pool[sel], nj_pool[sel]
    else:
        ni, nj = _reject_sample_negatives(labels, n_neg, rng)

    i = np.concatenate([pi, ni])
    j = np.concatenate([pj, nj])
    y = np.concatenate([np.ones(n_pos, dtype=np.int64), np.zeros(n_neg, dtype=np.int64)])
    return PairSet(i, j, y)


def _rng(seed):
    if seed < 0:
        raise ValidationError(f"seed must be nonnegative, got {seed}")
    return np.random.default_rng(seed)


def _same_identity_pairs(labels):
    blocks_i, blocks_j = [], []
    for value in np.unique(labels):
        idx = np.flatnonzero(labels == value)
        if idx.size < 2:
            continue
        a, b = np.triu_indices(idx.size, 1)
        blocks_i.append(idx[a])
        blocks_j.append(idx[b])
    if not blocks_i:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    return np.concatenate(blocks_i), np.concatenate(blocks_j)


def _reject_sample_negatives(labels, n_neg, rng):
    n = labels.size
    seen: set[int] = set()
    out_i, out_j = [], []
    while len(out_i) < n_neg:
        need = n_neg - len(out_i)
        a = rng.integers(0, n, size=4 * need + 16)
        b = rng.integers(0, n, size=4 * need + 16)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        ok = (lo != hi) & (labels[lo] != labels[hi])
        for x, y in zip(lo[ok], hi[ok]):
            code = int(x) * n + int(y)
            if code in seen:
                continue
            seen.add(code)
            out_i.append(int(x))
            out_j.append(int(y))
            if len(out_i) == n_neg:
                break
    return np.asarray(out_i, dtype=np.int64), np.asarray(out_j, dtype=np.int64)


def gen_synthetic(identities, samples_per_id, dim, intra_spread, inter_spread, seed):
    """Generate isotropic Gaussian identity clusters.

    Identity means are drawn from N(0, inter_spread**2 I) and samples from
    N(mean, intra_spread**2 I). Returns (FeatureMatrix, labels).
    """
    if identities < 1 or samples_per_id < 1 or dim < 1:
        raise ValidationError("identities, samples_per_id, and dim must all be >= 1")
    if not (intra_spread > 0 and inter_spread > 0):
        raise ValidationError("spreads must be positive")
    rng = _rng(seed)
    means = rng.normal(0.0, inter_spread, size=(identities, dim))
    noise = rng.normal(0.0, intra_spread, size=(identities * samples_per_id, dim))
    data = np.repeat(means, samples_per_id, axis=0) + noise
    labels = np.repeat(np.arange(identities, dtype=np.int64), samples_per_id)
    return FeatureMatrix(data), labels
