"""Symmetric PSD pseudoinverse and weighted one-step moment assembly.

Every backward recursion in the engine reduces to the same three
conditional moments of the price increments, weighted by the branch
probability times the child value of the opportunity process:
weighted_moments returns them as the tuple (m0, bbar_u, cbar_u) =
(sum_k w_k, sum_k w_k d_k, sum_k w_k d_k d_k^T), with w_k = p_k * L_k and
d_k the price increment to child k.  They are kept unnormalized (no
division by the parent opportunity value); the normalization cancels
wherever the moments are consumed.
"""
from __future__ import annotations

import numpy as np

from .errors import NotSymmetric

SYMMETRY_RTOL = 1e-12
EIG_TRUNCATION = 1e-12


def pinv_psd(m: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudoinverse of a symmetric matrix, or of each
    matrix in a (..., d, d) stack.

    Computed via symmetric eigendecomposition; eigenvalues with
    |lam| <= d * 1e-12 * max|lam| are truncated to zero, max|lam| taken
    per matrix.  The result is exactly symmetric, and PSD whenever the
    input is PSD.  Each matrix of a stack gets the same arithmetic as a
    call on that matrix alone, so the results agree bit for bit.

    Raises NotSymmetric if the asymmetry of any matrix exceeds tolerance.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise NotSymmetric("input must be a square matrix or a stack of them")
    mT = m.swapaxes(-1, -2)
    scale = np.abs(m).max(axis=(-2, -1), initial=0.0)
    asym = np.abs(m - mT).max(axis=(-2, -1), initial=0.0)
    bad = asym > SYMMETRY_RTOL * np.maximum(scale, 1.0)
    if np.count_nonzero(bad):
        raise NotSymmetric(f"asymmetry {np.max(np.where(bad, asym, 0.0)):.3e} exceeds tolerance")
    d = m.shape[-1]
    if m.size == 0:
        return m.copy()
    # an exactly symmetric input is its own symmetric part; not copying it
    # keeps one (d, d) array fewer alive through eigh on the oracle's large
    # solves.  In a stack with some asymmetric member, 0.5 * (m + mT) leaves
    # the exactly symmetric members unchanged (short of overflow near 1e308)
    sym = 0.5 * (m + mT) if np.count_nonzero(asym) else m
    lam, vec = np.linalg.eigh(sym)
    cutoff = d * EIG_TRUNCATION * np.abs(lam).max(axis=-1, keepdims=True)
    inv = np.where(np.abs(lam) > cutoff, 1.0 / np.where(lam == 0.0, 1.0, lam), 0.0)
    out = (vec * inv[..., None, :]) @ vec.swapaxes(-1, -2)
    return 0.5 * (out + out.swapaxes(-1, -2))


def weighted_moments(weights: np.ndarray, increments: np.ndarray) -> tuple:
    """The moments (m0, bbar_u, cbar_u) from per-child weights p_k*L_k and
    increment vectors (one row per child), or from (m, k) weights and
    (m, k, d) increments for m nodes of k children each, with a leading
    axis of length m.  A node of a stack gets the same arithmetic as a
    call on that node alone, so the results agree bit for bit."""
    w = np.asarray(weights, dtype=float)
    d = np.asarray(increments, dtype=float)
    dT = d.swapaxes(-1, -2)
    m0 = np.sum(w, axis=-1)
    bbar_u = (dT @ w[..., None])[..., 0]
    cbar_u = (dT * w[..., None, :]) @ d
    return m0, bbar_u, 0.5 * (cbar_u + cbar_u.swapaxes(-1, -2))
