"""Ensemble cascade machinery.

A cascade is L grouped learning stages followed by one plain metric. A stage
of G groups zero-pads its input to a multiple of G columns and shuffles them
with a seeded permutation, once. The shuffled matrix splits into G contiguous
equal-width groups: the metric learner is fit per group, ``mcd`` factorizes
each learned matrix into a PSD-clamped projection P, and each group of the
same matrix is then mapped in place through its P and square-root
normalized, so the shuffled matrix becomes the stage output. The final stage
fits one ungrouped metric on the last stage's output and performs no mapping
or normalization. Padding is internal: stage widths follow from the input
dimension and the group counts, and no padding helper is public.

Inference replays the stored permutations and projections through the same
shuffle and mapping code, so a fitted model reproduces its training-time
stage outputs bit for bit.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from ._linalg import (_check_integer, _eigen, _int64_exact, _real_array, _release_free_heap,
                      fix_column_signs)
from .errors import NumericalError, ValidationError
from .features import (FeatureMatrix, PairSet, PcaModel, _BinaryReader, _check_pca_input,
                       _write_bytes, map_rows)
from .metrics import MetricModel, accumulate_stats

DEFAULT_CASCADE_LAMBDA = 0.1
DEFAULT_STAGES = 3

CLAMP_TOL = 1e-10

MODEL_MAGIC = b"ECML"
MODEL_VERSION = 1


@dataclass(frozen=True)
class Projection:
    """Per-group mapping matrix P; ``mcd`` makes P @ P.T the clamped group metric.

    There is no PSD check: P @ P.T is PSD for every finite P.
    """

    p: np.ndarray
    clamped_count: int

    def __post_init__(self):
        object.__setattr__(self, "p", _real_array(self.p, "projection", square=True))
        _check_integer(self.clamped_count, "clamped_count", 0)
        object.__setattr__(self, "clamped_count", int(self.clamped_count))

    @property
    def dim(self) -> int:
        return self.p.shape[0]


@dataclass(frozen=True)
class StageModel:
    """One ensemble stage: a dimension shuffle plus per-group projections.

    The group count is the number of projections and the group width their
    common dimension; the permutation shuffles count x width columns.
    """

    permutation: np.ndarray
    projections: tuple[Projection, ...]

    def __post_init__(self):
        projections = tuple(self.projections)
        if not projections:
            raise ValidationError("a stage needs at least one group")
        gdim = projections[0].dim
        if gdim < 1:
            raise ValidationError("group width must be >= 1")
        for g, proj in enumerate(projections):
            if proj.dim != gdim:
                raise ValidationError(f"group {g} projection has dim {proj.dim}, expected {gdim}")
        perm = _int64_exact(self.permutation, "permutation")
        width = len(projections) * gdim
        if perm.size != width:
            raise ValidationError(f"permutation must have length {width}, got {perm.size}")
        if not np.array_equal(np.sort(perm), np.arange(width)):
            raise ValidationError("permutation is not a bijection of the padded dimensions")
        object.__setattr__(self, "permutation", perm)
        object.__setattr__(self, "projections", projections)

    @property
    def group_count(self) -> int:
        return len(self.projections)

    @property
    def group_dim(self) -> int:
        return self.projections[0].dim

    @property
    def width(self) -> int:
        return self.permutation.size

    def replay(self, x) -> np.ndarray:
        """The stage output for the rows of the array ``x``: a new, read-only array."""
        return _map_groups(self, _shuffle(x, self.permutation))


@dataclass(frozen=True)
class CascadeModel:
    """Fitted cascade: ordered stages plus the final scoring metric."""

    stages: tuple[StageModel, ...]
    final_metric: MetricModel
    input_dim: int
    seed: int

    def __post_init__(self):
        stages = tuple(self.stages)
        _check_integer(self.input_dim, "input_dim", 1)
        _check_integer(self.seed, "seed", 0, 2**64)
        dim = self.input_dim
        for s, stage in enumerate(stages):
            padded = _padded_width(dim, stage.group_count)
            if stage.width != padded:
                raise ValidationError(
                    f"stage {s} has width {stage.width}, but the previous output "
                    f"pads to {padded}"
                )
            dim = stage.width
        if self.final_metric.dim != dim:
            raise ValidationError(
                f"final metric dim {self.final_metric.dim} does not match "
                f"last stage output dim {dim}"
            )
        object.__setattr__(self, "stages", stages)
        object.__setattr__(self, "input_dim", int(self.input_dim))
        object.__setattr__(self, "seed", int(self.seed))

    @property
    def stage_count(self) -> int:
        return len(self.stages)

    @property
    def output_dim(self) -> int:
        return self.final_metric.dim

    @property
    def learner(self) -> str:
        return self.final_metric.learner


# ---------------------------------------------------------------------------
# core operations


def mcd(matrix) -> Projection:
    """Spectral factorization with negative eigenvalues clamped to zero.

    Decomposes the symmetrized input as Q diag(w) Q^T, zeroes negative
    eigenvalues, and returns P = Q diag(sqrt(max(w, 0))) so that P @ P.T
    reconstructs the clamped matrix. Eigenvalues are kept in ascending order
    and eigenvector signs pinned, fixing the basis freedom. Eigenvalues in
    (-CLAMP_TOL, 0) are treated as zero without counting as clamped.
    """
    m = _real_array(matrix, "matrix", square=True, symmetric=True)
    evals, evecs = _eigen(m, f"{m.shape[0]}x{m.shape[0]} matrix")
    evecs = fix_column_signs(evecs)
    clamped = int((evals <= -CLAMP_TOL).sum())
    p = evecs * np.sqrt(np.clip(evals, 0.0, None))
    p.setflags(write=False)  # so that Projection keeps it uncopied
    return Projection(p=p, clamped_count=clamped)


def _sqrt_norm(z, out):
    """sign(z) * sqrt(|z|) into ``out``, overwriting ``z``: the stage map of fit and replay.

    Allocates nothing; the bits are those of ``np.sign(z) * np.sqrt(np.abs(z))``.
    ``out`` first holds z + 0.0, whose signs are z's except that -0.0 turns
    +0.0, as ``np.sign`` maps it; sqrt(|z|) then takes those signs. The root
    is taken in ``z``, as a pass over the strided ``out`` costs several over
    the contiguous ``z``.
    """
    np.add(z, 0.0, out=out)
    np.copysign(np.sqrt(np.abs(z, out=z), out=z), out, out=out)


def group_counts(stage_count: int) -> list[int]:
    """Ensemble group counts per stage: 2**L, 2**(L-1), ..., 2."""
    _check_integer(stage_count, "stage count", 1)
    return [2 ** (stage_count - l + 1) for l in range(1, stage_count + 1)]


def _padded_width(dim, n_groups):
    """Stage width: ``dim`` rounded up to a multiple of ``n_groups``."""
    return -(-dim // n_groups) * n_groups


def _shuffle(x, perm):
    """Zero-pad ``x`` to ``perm.size`` columns; column k of the result is padded column perm[k]."""
    n, d = x.shape
    if d < perm.size:
        x = np.concatenate([x, np.zeros((n, perm.size - d))], axis=1)
    return x.take(perm, axis=1)


def _map_groups(stage: StageModel, shuffled) -> np.ndarray:
    """Map and sqrt-normalize ``shuffled`` in place, group by group; returns it read-only.

    Each group's product lands in one N x (D/G) ``block``, which
    ``_sqrt_norm`` normalizes straight back into the group's columns, so
    ``block`` is the only array allocated. ``shuffled`` is overwritten, so
    callers pass a fresh matrix (as ``_shuffle`` makes) that nothing else uses.
    """
    gdim = stage.group_dim
    block = np.empty((shuffled.shape[0], gdim))
    for g, proj in enumerate(stage.projections):
        cols = shuffled[:, g * gdim : (g + 1) * gdim]
        np.matmul(cols, proj.p, out=block)
        _sqrt_norm(block, cols)
    shuffled.setflags(write=False)
    return shuffled


def _fit_stage(shuffled, perm, pairs, n_groups, learner, stage_index):
    """Fit ensemble stage ``stage_index`` on its input padded and shuffled by ``perm``.

    Returns (StageModel, stage output features). Each group's columns are
    copied into one N x (D/G) ``block``, allocated here once, and summed
    through a read-only view of it, which the checked ``FeatureMatrix``
    constructor keeps uncopied; the group's learner and ``mcd`` then run on
    those stats. A ``NumericalError`` of any of the three is raised again,
    of its type, naming the stage and group and carrying ``stage_index`` and
    ``group_index``. Once every group is fitted, ``shuffled`` (from ``_shuffle``)
    is mapped in place by ``_map_groups``, which replays the stage, as the output.
    """
    gdim = perm.size // n_groups
    block = np.empty((shuffled.shape[0], gdim))
    group = block.view()
    group.setflags(write=False)
    projections = []
    for g in range(n_groups):
        np.copyto(block, shuffled[:, g * gdim : (g + 1) * gdim])
        try:
            stats = accumulate_stats(FeatureMatrix(group), pairs)
            projections.append(mcd(learner(stats).matrix))
        except NumericalError as exc:
            failure = type(exc)(f"stage {stage_index}: ensemble group {g} of {n_groups}: {exc}")
            failure.stage_index, failure.group_index = stage_index, g
            raise failure from exc
    # freed before _map_groups allocates its own block
    del block, group
    stage = StageModel(perm, tuple(projections))
    # checked once, as the input of the next stats call
    return stage, FeatureMatrix(_map_groups(stage, shuffled))


def fit_cascade(features, pairs: PairSet, stage_count, learner, seed) -> CascadeModel:
    """Fit ``stage_count`` ensemble stages plus one final ungrouped metric.

    ``features`` is a ``FeatureMatrix`` or a ``FeatureFile``. The stage
    count, ``2**stage_count <= D`` and the seed are checked first, a file's
    against its header, and only then are its rows read, whole. Stage group
    counts follow :func:`group_counts`; each stage consumes the previous
    stage's output. ``stage_count = 0`` degenerates to the plain learner on
    the raw features. The final metric is fitted without grouping and is
    never factorized or normalized.

    Each stage shuffles its input into a fresh matrix and drops its own
    reference to the input, so the previous stage's output (and the
    caller's matrix, if the caller holds no reference) is freed before the
    stage's first stats call. Each stage ends by handing the free heap back
    to the OS, as each ``accumulate_stats`` call does. The stages' shuffles
    are drawn from one ``numpy.random`` generator seeded with ``seed``; with
    0 stages no generator is created, and the seed is only checked and
    recorded in the model.
    """
    _check_integer(stage_count, "stage count", 0)
    # more stage-0 groups than input dimensions leave groups of pure padding
    if stage_count >= features.dim.bit_length():
        raise ValidationError(
            f"{stage_count} stages need at least 2**{stage_count} input dimensions, "
            f"got {features.dim}"
        )
    _check_integer(seed, "seed", 0, 2**64)  # the model file stores a u64
    stages = []
    input_dim = features.dim
    current, features = map_rows(features), None
    counts = group_counts(stage_count) if stage_count else []
    # 0 stages draw nothing, so they neither create an RNG nor import numpy.random
    rng = np.random.default_rng(seed) if counts else None
    for s, n_groups in enumerate(counts):
        perm = rng.permutation(_padded_width(current.dim, n_groups))
        shuffled, current = _shuffle(current.data, perm), None
        stage, current = _fit_stage(shuffled, perm, pairs, n_groups, learner, s)
        stages.append(stage)
        # the next stage's stats buffers then grow RSS from a heap holding
        # only live arrays
        _release_free_heap()
    final = learner(accumulate_stats(current, pairs))
    return CascadeModel(tuple(stages), final, input_dim, seed)


def _check_rows(model: CascadeModel, pca: PcaModel | None, dim=None):
    """Raise unless rows ``dim`` wide can enter ``model``: a front end ``pca`` must output
    the model's input width and take ``dim`` columns; without one the model takes ``dim``.
    ``dim=None`` checks the front end alone."""
    if pca is not None and pca.k != model.input_dim:
        raise ValidationError(
            f"PCA front end outputs {pca.k} dims, but the model takes {model.input_dim}"
        )
    if pca is not None and dim is not None:
        _check_pca_input(pca, dim)
    elif pca is None and dim not in (None, model.input_dim):
        raise ValidationError(f"feature dim {dim} does not match model input dim {model.input_dim}")


def transform(model: CascadeModel, features) -> FeatureMatrix:
    """Replay the fitted stages on a ``FeatureMatrix`` or ``FeatureFile`` through ``map_rows``;
    the output lives in the final metric's space."""
    _check_rows(model, None, features.dim)
    return map_rows(features, stages=model.stages)


# ---------------------------------------------------------------------------
# persistence

# Layout (version 1, all little-endian):
#   magic "ECML", u32 version, u32 tag length, tag utf-8 bytes,
#   f64 lambda (NaN if n/a), f64 rho (NaN if n/a), u64 seed,
#   u32 input_dim, u32 stage count;
#   per stage: u32 group_count, u32 group_dim, u32 permutation[width],
#              group_count dense f64 P matrices (group_dim x group_dim,
#              row-major), u32 clamped_count[group_count];
#   u32 final dim, dense f64 final metric; u8 pca flag, and if set:
#   u32 pca input dim, u32 pca k, f64 mean, dense f64 basis (row-major).


def save_model(model: CascadeModel, path, pca: PcaModel | None = None) -> None:
    """Serialize a cascade model (and optional PCA front end) to ``path``."""
    _check_rows(model, pca)
    tag = model.final_metric.learner.encode("utf-8")
    lam = model.final_metric.lam
    rho = model.final_metric.rho
    chunks = [
        MODEL_MAGIC,
        struct.pack("<II", MODEL_VERSION, len(tag)),
        tag,
        struct.pack(
            "<ddQII",
            float("nan") if lam is None else float(lam),
            float("nan") if rho is None else float(rho),
            model.seed,
            model.input_dim,
            model.stage_count,
        ),
    ]
    for stage in model.stages:
        chunks.append(struct.pack("<II", stage.group_count, stage.group_dim))
        chunks.append(stage.permutation.astype("<u4").tobytes())
        for proj in stage.projections:
            chunks.append(np.ascontiguousarray(proj.p, dtype="<f8").tobytes())
        counts = np.asarray([p.clamped_count for p in stage.projections], dtype="<u4")
        chunks.append(counts.tobytes())
    fm = model.final_metric.matrix
    chunks.append(struct.pack("<I", fm.shape[0]))
    chunks.append(np.ascontiguousarray(fm, dtype="<f8").tobytes())
    if pca is None:
        chunks.append(b"\x00")
    else:
        chunks.append(b"\x01")
        chunks.append(struct.pack("<II", pca.input_dim, pca.k))
        chunks.append(np.ascontiguousarray(pca.mean, dtype="<f8").tobytes())
        chunks.append(np.ascontiguousarray(pca.basis, dtype="<f8").tobytes())
    _write_bytes(path, chunks)


def load_model(path):
    """Load a model file; returns (CascadeModel, PcaModel or None). Every fault names the file.

    Each array is read from the open file into its own aligned buffer, and the file
    is closed on every path. Beyond the model's arrays the call holds the largest
    check temporary: the k x k gram of the PCA orthonormality check.
    """
    try:
        with open(path, "rb") as fh:
            return _read_model(_BinaryReader(fh, path, "model"))
    except OSError as exc:
        raise ValidationError(f"{path}: cannot read file: {exc}") from exc


def _read_model(cur):
    path = cur.path

    def built(make, *args):  # the objects' own messages do not name the file
        try:
            return make(*args)
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from None

    magic = cur.take(4, "magic")
    if magic != MODEL_MAGIC:
        raise ValidationError(f"{path}: bad magic {magic!r}, expected {MODEL_MAGIC!r}")
    (version, tag_len) = cur.unpack("<II", "header")
    if version != MODEL_VERSION:
        raise ValidationError(f"{path}: unsupported model version {version}")
    try:
        tag = cur.take(tag_len, "learner tag").decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: learner tag is not valid UTF-8: {exc}") from exc
    lam, rho, seed, input_dim, n_stages = cur.unpack("<ddQII", "model header")
    stages = []
    for s in range(n_stages):
        n_groups, gdim = cur.unpack("<II", f"stage {s} header")
        # checked before any group is read, so that the file's size, not the
        # declared count, bounds how many (possibly empty) groups are built
        cur.need(n_groups * (gdim * 4 + gdim * gdim * 8 + 4), f"stage {s} groups")
        perm = cur.array((n_groups * gdim,), "<u4", f"stage {s} permutation")
        mats = [
            cur.array((gdim, gdim), "<f8", f"stage {s} group {g} projection")
            for g in range(n_groups)
        ]
        counts = cur.array((n_groups,), "<u4", f"stage {s} clamped counts")
        projections = tuple(built(Projection, mat, c) for mat, c in zip(mats, counts))
        stages.append(built(StageModel, perm, projections))
    (final_dim,) = cur.unpack("<I", "final metric dim")
    fm = cur.array((final_dim, final_dim), "<f8", "final metric")
    lam, rho = (None if np.isnan(v) else float(v) for v in (lam, rho))
    final = built(MetricModel, fm, tag, lam, rho)
    (has_pca,) = cur.unpack("<B", "pca flag")
    pca = None
    if has_pca == 1:
        pca_dim, pca_k = cur.unpack("<II", "pca header")
        mean = cur.array((pca_dim,), "<f8", "pca mean")
        basis = cur.array((pca_dim, pca_k), "<f8", "pca basis")
        pca = built(PcaModel, mean, basis)
    elif has_pca != 0:
        raise ValidationError(f"{path}: invalid pca flag {has_pca}")
    if cur.off != cur.size:
        raise ValidationError(
            f"{path}: {cur.size - cur.off} unexpected trailing bytes after model payload"
        )
    model = built(CascadeModel, tuple(stages), final, input_dim, seed)
    built(_check_rows, model, pca)
    return model, pca
