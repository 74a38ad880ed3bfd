"""Array helpers, input and overflow checks and eigen solves shared by the modules; heap release."""

import functools
import numbers
import sys

import numpy as np

from .errors import NumericalError, ValidationError


def freeze_array(arr):
    """Return a read-only C-contiguous view or copy of ``arr``."""
    if arr.flags.writeable or not arr.flags.c_contiguous:
        arr = arr.copy(order="C")
        arr.setflags(write=False)
    return arr


def row_blocks(n, size):
    """(start, stop) bounds of consecutive blocks of ``size`` rows out of ``n``.

    BLAS computes a 1-row product as a matrix-vector product, which rounds
    differently from the same row inside a larger block; a 1-row remainder
    is therefore joined to the block before it, so a row's product has the
    same bits whichever block holds it. A block then has up to ``size + 1``
    rows.
    """
    starts = list(range(0, n, size))
    if n > 1 and n % size == 1:
        starts.pop()
    bounds = [*starts, n]
    return list(zip(bounds, bounds[1:]))


# Side of the square tiles is_symmetric compares; a tile and its mirror stay in cache
SYMMETRY_TILE = 128


def is_symmetric(m):
    """True when the float64 matrix ``m`` equals its transpose bit for bit.

    Each tile on or above the diagonal is compared with the transpose of its
    mirror below it, so the comparison's temporary is one tile, not w x w,
    and it stops at the first tile that differs.
    """
    bits = m.view(np.uint64)
    w = bits.shape[0]
    if bits.shape != (w, w):
        return False
    t = SYMMETRY_TILE
    return all(
        np.array_equal(bits[i : i + t, j : j + t], bits[j : j + t, i : i + t].T)
        for i in range(0, w, t)
        for j in range(i, w, t)
    )


def symmetrize(m):
    """``0.5 * (m + m.T)``; ``m`` itself, uncopied, when it is already symmetric.

    For a bitwise-symmetric ``m`` the formula gives back ``m``'s own bits
    wherever it does not overflow, so skipping it changes no result; where it
    does, the entry becomes inf without a warning. A matrix built here is
    read-only, so that ``freeze_array`` keeps it uncopied.
    """
    if is_symmetric(m):
        return m
    with np.errstate(over="ignore"):
        sym = 0.5 * (m + m.T)
    sym.setflags(write=False)
    return sym


def fix_column_signs(q, tol=1e-12):
    """Flip each column so its first entry larger than ``tol`` is positive.

    Pins the sign freedom of eigenvector columns so repeated decompositions
    of the same matrix are reproducible.
    """
    lead_rows = (np.abs(q) > tol).argmax(axis=0)
    lead = q[lead_rows, np.arange(q.shape[1])]
    signs = np.where(lead < 0.0, -1.0, 1.0)
    return q * signs


@functools.cache
def _malloc_trim():
    """The C library's ``malloc_trim``, or None where it has none (it is glibc's)."""
    import ctypes

    try:
        return ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return None


def _release_free_heap():
    """Hand the pages of free heap blocks back to the OS; a no-op without glibc.

    It lives here, not in ``metrics``, so that ``features`` (which
    ``metrics`` imports) can call it without an import cycle; ``metrics``
    imports the name, and ``accumulate_stats`` calls it through that module.
    """
    trim = _malloc_trim()
    if trim is not None:
        trim(0)


def _check_integer(value, what, least, below=None):
    """Raise unless ``value`` is an integer of any integral type, not a bool, in [least, below)."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least
            or (below is not None and value >= below)):
        bound = f">= {least}" if below is None else f"in [{least}, {below})"
        raise ValidationError(f"{what} must be an integer {bound}, got {value!r}")


def _check_real(value, what, least, most):
    """Raise unless ``value`` is a real number a float holds finitely, not a bool, in [least, most]."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not (least <= value <= most and abs(value) <= sys.float_info.max)):
        raise ValidationError(f"{what} must be finite and lie in [{least}, {most}], got {value!r}")


def _numeric_array(value, what, kinds, ndim):
    """``value`` as an array of ``ndim`` dimensions (None: any) and a dtype kind in ``kinds``."""
    try:
        arr = np.asarray(value)
    except ValueError as exc:  # numpy's refusal of a ragged sequence
        raise ValidationError(f"{what} must be a rectangular array: {exc}") from None
    if arr.dtype.kind not in kinds:
        raise ValidationError(f"{what} must have a real dtype, got {arr.dtype}")
    if ndim not in (None, arr.ndim):
        raise ValidationError(f"{what} must be {ndim}-D, got shape {arr.shape}")
    return arr


def _first_nonfinite(arr):
    """Index of the first non-finite entry of ``arr``, or None: ``min`` and ``max`` are finite
    exactly when every entry is, and neither builds an ``arr``-sized array; only a failure does."""
    if not arr.size or np.isfinite(arr.min()) and np.isfinite(arr.max()):
        return None
    return tuple(map(int, np.argwhere(~np.isfinite(arr))[0]))


def _real_array(value, what, ndim=None, square=False, symmetric=False, nonfinite=None):
    """``value`` as a read-only C-contiguous float64 array, uncopied if it is one already: an
    integer or float dtype, ``ndim`` dimensions (None: any) or a ``square`` matrix, and finite
    entries, checked after symmetrizing a ``symmetric`` matrix (which can overflow). A non-finite
    entry raises ``nonfinite`` formatted with its index, or "<what> has non-finite entries"."""
    arr = _numeric_array(value, what, "iuf", ndim)
    out = arr.astype(np.float64, order="C", copy=False)
    if square and (out.ndim != 2 or out.shape[0] != out.shape[1]):
        raise ValidationError(f"{what} must be square, got shape {out.shape}")
    if symmetric:
        out = symmetrize(out)
    bad = _first_nonfinite(out)
    if bad is not None:
        raise ValidationError((nonfinite or f"{what} has non-finite entries").format(*bad))
    return _read_only(value, arr, out)


def _int64_exact(values, what):
    """``values`` as a read-only C-contiguous 1-D int64 array, bool as 0/1, refused where the
    cast changes a value (2.7 would truncate to 2)."""
    arr = _numeric_array(values, what, "biuf", 1)
    with np.errstate(invalid="ignore"):  # NaN and out-of-range values are refused below
        out = arr.astype(np.int64, order="C", copy=False)
    if not np.can_cast(arr.dtype, np.int64) and (out != arr).any():
        raise ValidationError(f"{what} must be integer-valued, got {arr[out != arr][0].item()!r}")
    return _read_only(values, arr, out)


def _read_only(value, arr, out):
    """``out``, converted from ``value`` through ``arr``, read-only: marked in place when the
    conversion built it (``np.asarray`` of a list or tuple, or a cast), so that it is copied
    once, and through ``freeze_array`` when it may be the caller's own array."""
    if out is not arr or isinstance(value, (list, tuple)):
        out.setflags(write=False)
        return out
    return freeze_array(out)


def _eigen(m, what, vectors=True, failure=NumericalError):
    """``np.linalg.eigh(m)``, or ``eigvalsh`` without ``vectors``; looked up at the call, so
    that a rebinding of either is seen. LAPACK's failure raises ``failure`` naming ``what``."""
    try:
        return np.linalg.eigh(m) if vectors else np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:
        raise failure(f"{what} eigendecomposition failed: {exc}") from exc


def _check_overflow(arr, what):
    """Raise ``NumericalError`` if ``arr``, computed from finite input, holds a non-finite
    entry; like ``_first_nonfinite``, it builds no ``arr``-sized array unless one is found."""
    bad = _first_nonfinite(arr)
    if bad is not None:
        raise NumericalError(f"{what} overflowed: entry {list(bad)} is {float(arr[bad])!r}")
