"""Small array helpers shared by the feature and cascade modules."""

import numpy as np


def freeze_array(arr):
    """Return a read-only C-contiguous view or copy of ``arr``."""
    if arr.flags.writeable or not arr.flags.c_contiguous:
        arr = arr.copy(order="C")
        arr.setflags(write=False)
    return arr


def is_symmetric(m):
    """True when the float64 matrix ``m`` equals its transpose bit for bit."""
    bits = m.view(np.uint64)
    return np.array_equal(bits, bits.T)


def symmetrize(m):
    """``0.5 * (m + m.T)``; ``m`` itself, uncopied, when it is already symmetric.

    For a bitwise-symmetric ``m`` the formula gives back ``m``'s own bits
    wherever it does not overflow, so skipping it changes no result. Where it
    does overflow, the entry becomes inf without a warning, so callers check
    finiteness after symmetrizing. A matrix built here is read-only, so that
    ``freeze_array`` keeps it uncopied.
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
