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

import numbers
import struct
from dataclasses import dataclass

import numpy as np

from ._linalg import _release_free_heap, fix_column_signs, freeze_array, symmetrize
from .errors import NumericalError, ValidationError
from .features import FeatureMatrix, PairSet, PcaModel, _BinaryReader, _write_bytes, map_rows
from .metrics import MetricModel, accumulate_stats

DEFAULT_CASCADE_LAMBDA = 0.1
DEFAULT_STAGES = 3

CLAMP_TOL = 1e-10
# Rows of a mapped group block normalized per _sqrt_norm call, which bounds
# its temporaries to this many rows whatever the sample count
SQRT_ROWS = 64

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
        p = np.asarray(self.p, dtype=np.float64)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise ValidationError(f"projection must be square, got shape {p.shape}")
        if not np.isfinite(p).all():
            raise ValidationError("projection has non-finite entries")
        if self.clamped_count < 0:
            raise ValidationError("clamped_count must be nonnegative")
        object.__setattr__(self, "p", freeze_array(p))
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
        perm = np.asarray(self.permutation, dtype=np.int64)
        width = len(projections) * gdim
        if perm.ndim != 1 or perm.size != width:
            raise ValidationError(f"permutation must have length {width}, got {perm.size}")
        if not np.array_equal(np.sort(perm), np.arange(width)):
            raise ValidationError("permutation is not a bijection of the padded dimensions")
        object.__setattr__(self, "permutation", freeze_array(perm))
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
        return _map_groups(self, _shuffle(x, self.permutation)).data


@dataclass(frozen=True)
class CascadeModel:
    """Fitted cascade: ordered stages plus the final scoring metric."""

    stages: tuple[StageModel, ...]
    final_metric: MetricModel
    input_dim: int
    seed: int

    def __post_init__(self):
        stages = tuple(self.stages)
        if self.input_dim < 1:
            raise ValidationError("input_dim must be >= 1")
        _check_seed(self.seed)
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


def _check_seed(seed):
    if not (isinstance(seed, numbers.Integral) and 0 <= seed < 2**64):
        raise ValidationError(
            f"seed must be an integer in [0, 2**64) to fit the model file, got {seed}"
        )


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
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"matrix must be square, got shape {m.shape}")
    # checked after symmetrizing, which can overflow finite entries
    m = symmetrize(m)
    if not np.isfinite(m).all():
        raise ValidationError("matrix has non-finite entries")
    try:
        evals, evecs = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"eigendecomposition failed for {m.shape[0]}x{m.shape[0]} matrix "
            f"(fro norm {np.linalg.norm(m):.3e}): {exc}"
        ) from exc
    evecs = fix_column_signs(evecs)
    clamped = int((evals <= -CLAMP_TOL).sum())
    p = evecs * np.sqrt(np.clip(evals, 0.0, None))
    p.setflags(write=False)  # so that Projection keeps it uncopied
    return Projection(p=p, clamped_count=clamped)


def _sqrt_norm(arr):
    return np.sign(arr) * np.sqrt(np.abs(arr))


def _check_stage_count(stage_count, least):
    if not (isinstance(stage_count, numbers.Integral) and stage_count >= least):
        raise ValidationError(f"stage count must be an integer >= {least}, got {stage_count}")


def group_counts(stage_count: int) -> list[int]:
    """Ensemble group counts per stage: 2**L, 2**(L-1), ..., 2."""
    _check_stage_count(stage_count, 1)
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


def _stage_output(shuffled):
    """The fully mapped ``shuffled`` as features, marked read-only so none are copied."""
    shuffled.setflags(write=False)
    return FeatureMatrix(shuffled)


def _map_groups(stage: StageModel, shuffled) -> FeatureMatrix:
    """Map and sqrt-normalize ``shuffled`` in place, group by group.

    Each group's product lands in one N x (D/G) ``block`` and goes back into
    the group's columns ``SQRT_ROWS`` rows at a time, so the only other
    arrays allocated are ``_sqrt_norm``'s row-block temporaries.
    ``shuffled`` is overwritten and returned read-only inside the result, so
    callers pass a fresh matrix (as ``_shuffle`` makes) that nothing else uses.
    """
    gdim = stage.group_dim
    block = np.empty((shuffled.shape[0], gdim))
    for g, proj in enumerate(stage.projections):
        cols = slice(g * gdim, (g + 1) * gdim)
        np.matmul(shuffled[:, cols], proj.p, out=block)
        for start in range(0, block.shape[0], SQRT_ROWS):
            rows = slice(start, start + SQRT_ROWS)
            shuffled[rows, cols] = _sqrt_norm(block[rows])
    return _stage_output(shuffled)


def _fit_stage(shuffled, perm, pairs, n_groups, learner):
    """Fit one ensemble stage on its input padded and shuffled by ``perm``.

    Returns (StageModel, stage output features). Each group's columns are
    copied into one N x (D/G) ``block``, allocated here once, and summed
    through a read-only view of it, which the checked ``FeatureMatrix``
    constructor keeps uncopied; the group's learner and ``mcd`` then run on
    those stats. Once every group is fitted, ``shuffled``, as ``_shuffle``
    makes it, is mapped in place by ``_map_groups``, the code that replays
    the stage, and becomes the output.
    """
    gdim = perm.size // n_groups
    block = np.empty((shuffled.shape[0], gdim))
    group = block.view()
    group.setflags(write=False)
    projections = []
    for g in range(n_groups):
        np.copyto(block, shuffled[:, g * gdim : (g + 1) * gdim])
        stats = accumulate_stats(FeatureMatrix(group), pairs)
        try:
            model = learner(stats)
        except NumericalError as exc:
            failure = type(exc)(f"ensemble group {g} of {n_groups}: {exc}")
            failure.group_index = g
            raise failure from exc
        projections.append(mcd(model.matrix))
    # freed before _map_groups allocates its own block
    del block, group
    stage = StageModel(perm, tuple(projections))
    return stage, _map_groups(stage, shuffled)


def fit_cascade(features: FeatureMatrix, pairs: PairSet, stage_count, learner, seed) -> CascadeModel:
    """Fit ``stage_count`` ensemble stages plus one final ungrouped metric.

    Stage group counts follow :func:`group_counts`; each stage consumes the
    previous stage's output. ``stage_count = 0`` degenerates to the plain
    learner on the raw features. The final metric is fitted without grouping
    and is never factorized or normalized. More stage-0 groups than input
    dimensions (``2**stage_count > D``) are rejected before fitting.

    Each stage shuffles its input into a fresh matrix and drops its own
    reference to the input, so the previous stage's output (and the
    caller's matrix, if the caller holds no reference) is freed before the
    stage's first stats call. Each stage ends by handing the free heap back
    to the OS, as each ``accumulate_stats`` call does. The stages' shuffles
    are drawn from one ``numpy.random`` generator seeded with ``seed``; with
    0 stages no generator is created, and the seed is only checked and
    recorded in the model.
    """
    _check_stage_count(stage_count, 0)
    # more stage-0 groups than input dimensions leave groups of pure padding
    if stage_count >= features.dim.bit_length():
        raise ValidationError(
            f"{stage_count} stages need at least 2**{stage_count} input dimensions, "
            f"got {features.dim}"
        )
    _check_seed(seed)
    stages = []
    input_dim = features.dim
    current, features = features, None
    counts = group_counts(stage_count) if stage_count else []
    # 0 stages draw nothing, so they neither create an RNG nor import numpy.random
    rng = np.random.default_rng(seed) if counts else None
    for s, n_groups in enumerate(counts):
        perm = rng.permutation(_padded_width(current.dim, n_groups))
        shuffled, current = _shuffle(current.data, perm), None
        try:
            stage, current = _fit_stage(shuffled, perm, pairs, n_groups, learner)
        except NumericalError as exc:
            failure = type(exc)(f"stage {s}: {exc}")
            failure.stage_index = s
            failure.group_index = getattr(exc, "group_index", None)
            raise failure from exc
        stages.append(stage)
        # the next stage's stats buffers then grow RSS from a heap holding
        # only live arrays
        _release_free_heap()
    final = learner(accumulate_stats(current, pairs))
    return CascadeModel(
        stages=tuple(stages),
        final_metric=final,
        input_dim=input_dim,
        seed=int(seed),
    )


def _check_input_dim(model: CascadeModel, features: FeatureMatrix):
    if features.dim != model.input_dim:
        raise ValidationError(
            f"feature dim {features.dim} does not match model input dim {model.input_dim}"
        )


def transform(model: CascadeModel, features) -> FeatureMatrix:
    """Replay the fitted stages on a ``FeatureMatrix`` or ``FeatureFile`` through ``map_rows``;
    the output lives in the final metric's space."""
    _check_input_dim(model, features)
    return map_rows(features, stages=model.stages)


def cascade_distance(model: CascadeModel, x, y):
    """Squared metric distance d^T M d between transformed inputs.

    ``x`` and ``y`` are either two vectors, giving one float, or two
    equal-shape ``(n, D)`` row blocks, giving ``n`` scores for the row pairs
    ``(x[k], y[k])``. Both blocks go through the cascade in one pass. This
    is the single-pair entry point; ``ecml.evaluate`` scores a pair set
    through the same quadratic form.
    """
    single = np.ndim(x) == 1 and np.ndim(y) == 1
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    if x.ndim != 2 or x.shape != y.shape or x.shape[1] != model.input_dim:
        raise ValidationError(
            f"inputs must be two vectors of dim {model.input_dim} or two equal-shape "
            f"(n, {model.input_dim}) row blocks, got shapes {x.shape} and {y.shape}"
        )
    n = x.shape[0]
    stacked = np.vstack([x, y])
    stacked.setflags(write=False)  # so that FeatureMatrix keeps it uncopied
    mapped = transform(model, FeatureMatrix(stacked)).data
    scores = _quadratic_forms(mapped[:n] - mapped[n:], model.final_metric.matrix)
    return float(scores[0]) if single else scores


def _quadratic_forms(d, m, prod=None, out=None):
    """d[k]^T m d[k] for every row k of ``d``, computed as ``((d @ m) * d).sum(1)``.

    ``prod`` (shaped like ``d``) and ``out`` (one entry per row) are
    optional buffers for the product and the scores; given both, nothing is
    allocated and the bits are those of the formula.
    """
    prod = np.matmul(d, m, out=prod)
    prod *= d
    return prod.sum(axis=1, out=out)


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
    if pca is not None and pca.k != model.input_dim:
        raise ValidationError(
            f"PCA front end outputs {pca.k} dims, but the model takes {model.input_dim}"
        )
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
    """Load a model file; returns (CascadeModel, PcaModel or None).

    Each array is read from the open file into its own aligned buffer, and
    the file is closed on every path. Beyond the model's arrays the call
    holds the largest check temporary: one bool per final-metric entry, or
    the k x k gram of the PCA orthonormality check.
    """
    try:
        with open(path, "rb") as fh:
            return _read_model(_BinaryReader(fh, path, "model"))
    except OSError as exc:
        raise ValidationError(f"{path}: cannot read file: {exc}") from exc


def _read_model(cur):
    path = cur.path
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
        projections = tuple(
            Projection(p=mat, clamped_count=int(c)) for mat, c in zip(mats, counts)
        )
        stages.append(StageModel(perm, projections))
    (final_dim,) = cur.unpack("<I", "final metric dim")
    fm = cur.array((final_dim, final_dim), "<f8", "final metric")
    final = MetricModel(
        matrix=fm,
        learner=tag,
        lam=None if np.isnan(lam) else float(lam),
        rho=None if np.isnan(rho) else float(rho),
    )
    (has_pca,) = cur.unpack("<B", "pca flag")
    pca = None
    if has_pca == 1:
        pca_dim, pca_k = cur.unpack("<II", "pca header")
        if pca_k != input_dim:
            raise ValidationError(
                f"{path}: PCA front end outputs {pca_k} dims, but the model takes {input_dim}"
            )
        mean = cur.array((pca_dim,), "<f8", "pca mean")
        basis = cur.array((pca_dim, pca_k), "<f8", "pca basis")
        pca = PcaModel(mean=mean, basis=basis)
    elif has_pca != 0:
        raise ValidationError(f"{path}: invalid pca flag {has_pca}")
    if cur.off != cur.size:
        raise ValidationError(
            f"{path}: {cur.size - cur.off} unexpected trailing bytes after model payload"
        )
    model = CascadeModel(
        stages=tuple(stages),
        final_metric=final,
        input_dim=int(input_dim),
        seed=int(seed),
    )
    return model, pca
