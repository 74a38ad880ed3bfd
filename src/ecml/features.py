"""Feature ingestion, PCA preprocessing, pair sampling, and synthetic
identity-cluster generation for desk-scale experiments.

File formats
------------
Text files are UTF-8 and blank lines in them are ignored; a parse error names
the 0-based file line and the row and column of the offending cell.

CSV features: one sample per line, comma-separated finite decimal floats,
with an optional header ``# dim=D count=N`` on the first line of the file.

Raw binary features: magic ``CMF1``, little-endian u64 N, u64 D, then N*D
little-endian float64 values in row-major order.

Pair files: CSV lines ``i,j,y`` with 0-based sample indices and y in {0,1}.

Label files: one integer identity id per line.
"""

from __future__ import annotations

import itertools
import math
import os
import re
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._linalg import (_check_integer, _check_real, _int64_exact, _release_free_heap,
                      fix_column_signs, freeze_array, row_blocks)
from .errors import NumericalError, ValidationError

FEATURE_MAGIC = b"CMF1"
_HEADER_RE = re.compile(r"#\s*dim=(\d+)\s+count=(\d+)\s*$")

FEATURE_FORMATS = ("csv", "raw-binary")

# Rows per block of map_rows (one more with a folded 1-row remainder, see
# row_blocks). It bounds the temporaries of mapping rows, never their bits.
ROW_BLOCK = 128


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
        bad = _first_nonfinite(arr)
        if bad is not None:
            raise ValidationError(f"non-finite feature value at row {bad[0]}, column {bad[1]}")
        object.__setattr__(self, "data", freeze_array(arr))

    @property
    def count(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    def blocks(self, size):
        """Yield ``(start, stop, data[start:stop])`` for each of ``row_blocks(count, size)``.

        The rows are copied into one reused buffer, which the caller may
        overwrite and must be done with before asking for the next block.
        """
        buf = np.empty((min(self.count, size + 1), self.dim))
        for start, stop in row_blocks(self.count, size):
            block = buf[: stop - start]
            np.copyto(block, self.data[start:stop])
            yield start, stop, block

    def gather(self, rows, size):
        """As ``blocks``, of ``data[rows]``; ``rows`` are ascending, unique and below ``count``."""
        return _pick(self, [(0, self.count, self.data)], rows, size)


@dataclass(frozen=True)
class PairSet:
    """Unordered sample-index pairs with match labels (1 = same identity)."""

    i: np.ndarray
    j: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        i = _int64_exact(self.i, "pair indices")
        j = _int64_exact(self.j, "pair indices")
        y = _int64_exact(self.y, "pair labels")
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

    def check_against(self, features: FeatureMatrix | FeatureFile) -> None:
        """Raise if any pair index falls outside the features' ``count`` rows."""
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
        gram.flat[:: k + 1] -= 1.0  # gram - I, in place
        if np.abs(gram, out=gram).max() > 1e-8:
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
        return FeatureFile(path).load()
    raise ValidationError(f"unknown feature format {fmt!r}; expected one of {FEATURE_FORMATS}")


def save_features(features: FeatureMatrix, path, fmt="csv") -> None:
    """Write a feature matrix; a save/load round trip is bit-exact."""
    if fmt == "csv":
        header = f"# dim={features.dim} count={features.count}"
        rows = (",".join(map(repr, row.tolist())) for row in features.data)
        _write_lines(path, [header, *rows])
    elif fmt == "raw-binary":
        header = FEATURE_MAGIC + struct.pack("<QQ", features.count, features.dim)
        # the frozen matrix is written through its buffer, not copied
        _write_bytes(path, [header, np.ascontiguousarray(features.data, dtype="<f8")])
    else:
        raise ValidationError(f"unknown feature format {fmt!r}; expected one of {FEATURE_FORMATS}")


def _read_text(path):
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"{path}: cannot read file: {exc}") from exc


def _write_bytes(path, chunks):
    """Write byte chunks (any C-contiguous buffers) to ``path`` in order."""
    try:
        with open(path, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
    except OSError as exc:
        raise ValidationError(f"{path}: cannot write file: {exc}") from exc


def _write_lines(path, lines):
    """Write ``lines`` (any iterable of str) as newline-terminated UTF-8 text."""
    _write_bytes(path, [("\n".join(lines) + "\n").encode("utf-8")])


def _read_rows(path):
    """Lazily, ``(0-based file line, line)`` of each non-blank line of a UTF-8 text file."""
    lines = _read_text(path).splitlines()  # read now, so that read errors raise here
    return ((n, line) for n, line in enumerate(lines) if line.strip())


def _parse_table(path, rows, cast, width=None):
    """The comma-separated cells of ``rows`` (as from ``_read_rows``) as a 2-D array.

    ``cast`` is ``int`` (cells must fit int64) or ``float`` (cells must be
    finite). Every row has ``width`` cells, by default as many as the first.
    Errors name the 0-based file line, the row and the column.
    """

    def fail(r, c, what):
        raise ValidationError(f"{path}: line {linenos[r]}: {what} at row {r}, column {c}") from None

    linenos = []
    cells = []  # row-major; one flat list converts to an array faster than nested rows
    for r, (lineno, line) in enumerate(rows):
        linenos.append(lineno)
        parts = line.split(",")
        width = width or len(parts)
        if len(parts) != width:
            raise ValidationError(
                f"{path}: line {lineno}: row {r} has {len(parts)} values, expected {width}"
            )
        try:
            cells.extend(map(cast, parts))
        except ValueError:
            for c, tok in enumerate(parts):
                try:
                    cast(tok)
                except ValueError:
                    fail(r, c, f"cannot parse {tok.strip()!r}")
    if not linenos:
        raise ValidationError(f"{path}: no data rows")
    try:
        arr = np.array(cells, dtype=np.int64 if cast is int else np.float64).reshape(-1, width)
    except OverflowError:
        k = next(k for k, v in enumerate(cells) if not -(2**63) <= v < 2**63)
        fail(*divmod(k, width), "integer out of int64 range")
    bad = _first_nonfinite(arr)  # never found for integers
    if bad is not None:
        fail(*bad, f"non-finite value {float(arr[bad])!r}")
    return arr


def _first_nonfinite(arr):
    """(row, column) of the first non-finite entry of the 2-D ``arr``, or None.

    Every entry is finite exactly when the minimum and the maximum are (both
    propagate NaN), and neither reduction builds an array the size of ``arr``;
    only a failure does, to find the cell.
    """
    if np.isfinite(arr.min()) and np.isfinite(arr.max()):
        return None
    return tuple(map(int, np.argwhere(~np.isfinite(arr))[0]))


def _load_csv(path) -> FeatureMatrix:
    rows = _read_rows(path)
    first = next(rows, None)
    declared = None
    if first is not None and first[0] == 0 and first[1].lstrip().startswith("#"):
        m = _HEADER_RE.match(first[1].strip())
        if not m:
            raise ValidationError(f"{path}: malformed header line {first[1]!r}")
        declared = (int(m.group(2)), int(m.group(1)))  # (N, D)
    elif first is not None:
        rows = itertools.chain([first], rows)
    data = _parse_table(path, rows, float)
    if declared is not None and declared != data.shape:
        raise ValidationError(
            f"{path}: header declares {declared[0]}x{declared[1]} but payload is "
            f"{data.shape[0]}x{data.shape[1]}"
        )
    return FeatureMatrix(data)


class _BinaryReader:
    """Reads a binary file front to back, checking each read against the file size.

    ``kind`` names the file in messages ("model", "feature").
    """

    def __init__(self, fh, path, kind):
        self.fh = fh
        self.path = path
        self.kind = kind
        self.stat = os.fstat(fh.fileno())
        self.size = self.stat.st_size
        self.off = 0

    def need(self, n, what):
        """Raise unless ``n`` more bytes, the size of ``what``, remain in the file."""
        if self.off + n > self.size:
            raise ValidationError(
                f"{self.path}: truncated {self.kind} file: need {self.off + n} bytes "
                f"through {what}, file has {self.size}"
            )

    def _advance(self, n, what):
        self.need(n, what)
        self.off += n

    def _shrank(self):
        return ValidationError(f"{self.path}: {self.kind} file shrank while being read")

    def take(self, n, what):
        self._advance(n, what)
        out = self.fh.read(n)
        if len(out) != n:
            raise self._shrank()
        return out

    def unpack(self, fmt, what):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def fill(self, arr, what):
        """Read the next ``arr.nbytes`` bytes of the file into the C-contiguous ``arr``."""
        self._advance(arr.nbytes, what)
        if self.fh.readinto(arr) != arr.nbytes:
            raise self._shrank()
        return arr

    def array(self, shape, dtype, what):
        """An array of ``shape`` and the little-endian ``dtype``, read from the file.

        The bytes go straight into a fresh, aligned array, marked read-only so
        that the objects built on it keep it uncopied. A view into the file's
        bytes could be unaligned (a feature payload starts at byte 20), and
        numpy runs its slower unaligned loops on such an array.
        """
        dtype = np.dtype(dtype)
        self.need(math.prod(shape) * dtype.itemsize, what)  # before allocating
        arr = self.fill(np.empty(shape, dtype=dtype), what)
        arr.setflags(write=False)
        return arr


@contextmanager
def _open_binary(path):
    """The raw-binary feature file at ``path``, open, as ``(reader, N, D)``.

    The header is checked first: the magic, the file size against N x D,
    and N, D >= 1; the reader is then at the first payload byte.
    """
    try:
        with open(path, "rb") as fh:
            cur = _BinaryReader(fh, path, "feature")
            magic = cur.take(4, "magic")
            if magic != FEATURE_MAGIC:
                raise ValidationError(f"{path}: bad magic {magic!r}, expected {FEATURE_MAGIC!r}")
            n, d = cur.unpack("<QQ", "header")
            expected = cur.off + n * d * 8
            if cur.size != expected:
                raise ValidationError(
                    f"{path}: expected {expected} bytes for {n}x{d} features, found {cur.size}"
                )
            if n < 1 or d < 1:
                raise ValidationError(f"{path}: header declares empty matrix {n}x{d}")
            yield cur, n, d
    except OSError as exc:
        raise ValidationError(f"{path}: cannot read file: {exc}") from exc


def _identity(stat):
    """What tells two versions of a file apart, from its ``os.stat_result``."""
    return stat.st_dev, stat.st_ino, stat.st_size, stat.st_mtime_ns


class FeatureFile:
    """A raw-binary feature file whose header has been checked; its rows are read on demand.

    Like a ``FeatureMatrix`` it has ``count``, ``dim``, ``blocks`` and
    ``gather``, so ``map_rows``, ``fit_pca`` and ``fit_cascade`` take either,
    but it holds no rows: each ``blocks``, ``gather`` or ``load`` reads the
    file again, front to back. The file's identity (device, inode, size and
    modification time) is recorded at open, and every read rejects a file
    whose identity or header has changed since, so that no result mixes two
    versions of it.
    """

    def __init__(self, path):
        self.path = path
        with _open_binary(path) as (cur, n, d):
            self.count, self.dim = n, d
            self._identity = _identity(cur.stat)

    @contextmanager
    def _reopen(self):
        """The file, open at its first payload byte, checked to be the file opened at first."""
        with _open_binary(self.path) as (cur, n, d):
            if (_identity(cur.stat), n, d) != (self._identity, self.count, self.dim):
                raise ValidationError(f"{self.path}: feature file changed while being read")
            yield cur

    def load(self) -> FeatureMatrix:
        """Every row, read into one checked matrix; ``load_features`` and ``map_rows`` load here."""
        with self._reopen() as cur:
            data = cur.array((self.count, self.dim), "<f8", "features")
        return FeatureMatrix(data)

    def blocks(self, size):
        """As ``FeatureMatrix.blocks``; each block is read into the buffer and checked finite."""
        with self._reopen() as cur:
            buf = np.empty((min(self.count, size + 1), self.dim), dtype="<f8")
            for start, stop in row_blocks(self.count, size):
                block = cur.fill(buf[: stop - start], "features")
                bad = _first_nonfinite(block)
                if bad is not None:
                    raise ValidationError(
                        f"non-finite feature value at row {start + bad[0]}, column {bad[1]}"
                    )
                yield start, stop, block

    def gather(self, rows, size):
        """As ``FeatureMatrix.gather``; every row is read and checked, picked or not."""
        return _pick(self, self.blocks(size), rows, size)


def _pick(source, chunks, rows, size):
    """The ``gather`` of either source: its rows ``rows``, taken from its ``chunks``.

    ``rows`` must be ascending, unique and below ``source.count``.
    ``chunks`` yields ``(first, past, rows first..past-1)`` of the source
    in order, and is read to its end.
    """
    rows = np.asarray(rows)
    if rows.ndim != 1 or (rows[1:] <= rows[:-1]).any():
        raise ValidationError("rows must be a 1-D array of ascending, unique row indices")
    if rows.size and not 0 <= rows[0] <= rows[-1] < source.count:
        raise ValidationError(f"rows {rows[0]}..{rows[-1]} out of range for {source.count} rows")
    bounds = row_blocks(rows.size, size)
    block = np.empty((min(rows.size, size + 1), source.dim))
    k, b = 0, 0  # next entry of rows to copy, and the block it belongs to
    for first, past, chunk in chunks:
        end = int(np.searchsorted(rows, past))  # rows[k:end] are in this chunk
        while k < end:
            start, stop = bounds[b]
            upto = min(end, stop)
            # "clip" takes straight into ``out``, unbuffered; no index needs clipping
            chunk.take(rows[k:upto] - first, axis=0, out=block[k - start : upto - start],
                       mode="clip")
            k = upto
            if k == stop:
                yield start, stop, block[: stop - start]
                b += 1


def save_pairs(pairs: PairSet, path) -> None:
    columns = (pairs.i.tolist(), pairs.j.tolist(), pairs.y.tolist())
    _write_lines(path, (f"{a},{b},{c}" for a, b, c in zip(*columns)))


def load_pairs(path) -> PairSet:
    arr = _parse_table(path, _read_rows(path), int, 3)
    return PairSet(arr[:, 0], arr[:, 1], arr[:, 2])


def save_labels(labels, path) -> None:
    _write_lines(path, map(str, _int64_exact(labels, "labels").tolist()))


def load_labels(path) -> np.ndarray:
    return _parse_table(path, _read_rows(path), int, 1)[:, 0]


# ---------------------------------------------------------------------------
# PCA


def fit_pca(features: FeatureMatrix | FeatureFile, k: int) -> PcaModel:
    """Fit a centered (not whitened) PCA onto the top-k covariance eigenvectors.

    Eigenvalues are taken in non-increasing order; eigenvector signs are
    pinned for reproducibility. ``k`` is checked before any row is read.

    A ``FeatureFile`` is read here, by ``map_rows``, into one checked N x D
    matrix, freed once the N x D centered copy is made. The centered copy is
    freed, the covariance scaled in place and the free heap handed back to
    the OS before ``eigh`` allocates its own workspace, so that the peak
    does not depend on where earlier blocks were freed in the heap. During
    ``eigh`` the call then holds the D x D covariance and
    the mean beside ``eigh``'s own workspace and output, and nothing N x D;
    a ``FeatureMatrix`` stays held by its caller. The basis is built in one
    D x k copy, which ``PcaModel`` keeps uncopied. The covariance and the
    eigendecomposition are then freed and the free heap handed back to the
    OS before the call returns, so the steps after it grow RSS from a heap
    holding only live arrays. The model's bits are the same for either
    input.
    """
    _check_integer(k, "pca dimension", 1)
    n, d = features.count, features.dim
    kmax = min(n - 1, d)
    if k > kmax:
        raise ValidationError(
            f"pca dimension {k} out of range [1, {kmax}] for {n} samples of dim {d}"
        )
    features = map_rows(features)
    mean = features.data.mean(axis=0)
    centered = features.data - mean
    del features  # the last reference to a matrix loaded here
    cov = centered.T @ centered
    del centered
    cov /= n - 1
    _release_free_heap()
    try:
        evals, evecs = np.linalg.eigh(cov)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"covariance eigendecomposition failed: {exc}") from exc
    order = np.argsort(evals)[::-1][:k]
    # take gives a C-contiguous array, evecs[:, order] would not
    basis = fix_column_signs(evecs.take(order, axis=1))
    del cov, evals, evecs
    _release_free_heap()
    # read-only, so that PcaModel keeps them uncopied
    mean.setflags(write=False)
    basis.setflags(write=False)
    return PcaModel(mean=mean, basis=basis)


def apply_pca(model: PcaModel, features: FeatureMatrix | FeatureFile) -> FeatureMatrix:
    """(x - mean) @ basis for every row x, with the bits of one product over all rows.

    Beside the N x k output, ``map_rows`` holds one buffer of ``ROW_BLOCK`` (+1) rows.
    """
    return map_rows(features, pca=model)


def _check_pca_input(model: PcaModel, dim):
    if dim != model.input_dim:
        raise ValidationError(f"feature dim {dim} does not match PCA input dim {model.input_dim}")


def map_rows(source, pca=None, stages=(), rows=None) -> FeatureMatrix:
    """Rows of a ``FeatureMatrix`` or ``FeatureFile`` through ``pca``, then ``stages``.

    ``rows`` (ascending, unique) picks the rows, by default all; ``stages``
    are fitted cascade stages, each applied by its ``replay``. Each block
    of ``ROW_BLOCK`` rows is centered in the source's ``blocks`` or
    ``gather`` buffer and projected straight into the output when no stage
    follows; each stage adds its shuffled rows and group block.
    ``row_blocks`` keeps a row's bits independent of its block.
    Only the result is checked. Mapped through nothing, a ``FeatureMatrix``
    is returned as it is and a ``FeatureFile`` is loaded whole.
    """
    if pca is None and not stages and rows is None:
        return source.load() if isinstance(source, FeatureFile) else source
    if pca is not None:
        _check_pca_input(pca, source.dim)
    if rows is None:
        count, blocks = source.count, source.blocks(ROW_BLOCK)
    else:
        count, blocks = len(rows), source.gather(rows, ROW_BLOCK)
    width = stages[-1].width if stages else source.dim if pca is None else pca.k
    out = np.empty((count, width))
    for start, stop, block in blocks:
        target = out[start:stop]
        if pca is not None:
            np.subtract(block, pca.mean, out=block)
            block = np.matmul(block, pca.basis, out=None if stages else target)
        for stage in stages:
            block = stage.replay(block)
        if block is not target:
            target[...] = block
    out.setflags(write=False)  # so that FeatureMatrix keeps it uncopied
    return FeatureMatrix(out)


# ---------------------------------------------------------------------------
# pair sampling and synthetic data


def sample_pairs(labels, count: int, pos_fraction: float, seed: int) -> PairSet:
    """Draw ``count`` distinct unordered pairs without replacement.

    ``round(count * pos_fraction)`` pairs are matched, uniform over
    same-identity pairs, and the rest unmatched, uniform over cross-identity
    pairs. Deterministic for a fixed seed.

    Each class's pool has a fixed order: matched pairs by identity
    (ascending), then row-major within it; unmatched pairs row-major over all
    ``i < j``. One ``rng.choice`` per class, matched first, draws ranks into
    that order, and each rank is decoded into its pair without listing the
    pool. The draws therefore equal those of listing both pools and calling
    ``rng.choice`` on their lengths. Memory is O(n + count), except where
    ``count`` exceeds a fiftieth of a class's pool: there ``rng.choice``
    shuffles an index array of the whole pool.
    """
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.size < 2:
        raise ValidationError("labels must be a 1-D array of at least 2 samples")
    _check_integer(count, "pair count", 1)
    _check_real(pos_fraction, "pos_fraction", 0, 1)
    n = labels.size
    n_pos = int(round(count * pos_fraction))
    n_neg = count - n_pos
    if n_pos < 1 or n_neg < 1:
        raise ValidationError(
            f"requested split gives {n_pos} matched / {n_neg} unmatched pairs; "
            "at least one of each is required"
        )

    # sorted position t holds sample order[t]: identities ascending, samples
    # ascending within each; first[g] is where identity g starts
    order = np.argsort(labels, kind="stable")
    ranked = labels[order]
    first = np.flatnonzero(np.r_[True, ranked[1:] != ranked[:-1]])
    sizes = np.diff(np.r_[first, n])
    group = np.repeat(np.arange(first.size), sizes)
    seq = np.arange(n)  # sorted positions, or sample indices
    later = first[group] + sizes[group] - seq - 1  # same-identity samples after position t
    pos_avail = int(later.sum())
    neg_avail = n * (n - 1) // 2 - pos_avail
    if n_pos > pos_avail:
        raise ValidationError(f"requested {n_pos} matched pairs but only {pos_avail} exist")
    if n_neg > neg_avail:
        raise ValidationError(f"requested {n_neg} unmatched pairs but only {neg_avail} exist")

    rng = _rng(seed)
    t, k = _unrank(later, rng.choice(pos_avail, size=n_pos, replace=False))
    pi, pj = order[t], order[t + 1 + k]

    # sample i's unmatched partners are the samples after it, less the
    # `later` ones of its own identity
    where = np.empty(n, dtype=np.int64)
    where[order] = seq
    ni, k = _unrank(n - 1 - seq - later[where], rng.choice(neg_avail, size=n_neg, replace=False))
    # Unmatched partner k of sample i, at sorted position t, is i + 1 + k + m,
    # where m counts the samples of i's identity between i and that partner.
    # Position r of an identity has key order[r] - (r - first) samples of other
    # identities before it, so m is the number of r > t whose key is at most
    # i's key plus k. Offsetting each identity's keys (all below n) by
    # group * n makes one ascending array, so one searchsorted finds every m.
    key = group * n + order - (seq - first[group])
    t = where[ni]
    m = np.searchsorted(key, key[t] + k, side="right") - (t + 1)
    nj = ni + 1 + k + m

    i = np.concatenate([pi, ni])
    j = np.concatenate([pj, nj])
    y = np.concatenate([np.ones(n_pos, dtype=np.int64), np.zeros(n_neg, dtype=np.int64)])
    return PairSet(i, j, y)


def _unrank(counts, ranks):
    """Row and offset in the row of each rank into rows of ``counts`` entries, listed row by row."""
    ends = np.cumsum(counts)
    rows = np.searchsorted(ends, ranks, side="right")
    return rows, ranks - (ends[rows] - counts[rows])


def _rng(seed):
    _check_integer(seed, "seed", 0)
    return np.random.default_rng(seed)


def gen_synthetic(identities, samples_per_id, dim, intra_spread, inter_spread, seed):
    """Generate isotropic Gaussian identity clusters.

    Identity means are drawn from N(0, inter_spread**2 I) and samples from
    N(mean, intra_spread**2 I). Returns (FeatureMatrix, labels).
    """
    for v, what in zip((identities, samples_per_id, dim), ("identities", "samples_per_id", "dim")):
        _check_integer(v, what, 1)
    for v, what in zip((intra_spread, inter_spread), ("intra_spread", "inter_spread")):
        _check_real(v, what, math.ulp(0.0), math.inf)  # the least positive float: spreads are > 0
    rng = _rng(seed)
    means = rng.normal(0.0, inter_spread, size=(identities, dim))
    data = rng.normal(0.0, intra_spread, size=(identities * samples_per_id, dim))
    # mean + noise in place (addition commutes bit for bit), read-only so
    # FeatureMatrix keeps it uncopied
    data.reshape(identities, samples_per_id, dim)[...] += means[:, None, :]
    data.setflags(write=False)
    labels = np.repeat(np.arange(identities, dtype=np.int64), samples_per_id)
    return FeatureMatrix(data), labels
