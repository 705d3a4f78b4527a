"""Symmetric PSD pseudoinverse and weighted one-step moment assembly.

Every backward recursion in the engine reduces to the same three
conditional moments of the price increments, weighted by the branch
probability times the child value of the opportunity process.  They are
kept unnormalized (no division by the parent opportunity value); the
normalization cancels wherever the moments are consumed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotSymmetric

SYMMETRY_RTOL = 1e-12
EIG_TRUNCATION = 1e-12


@dataclass(frozen=True)
class OneStepMoments:
    """Weighted conditional one-step moments at a non-terminal node.

    m0      = sum_k w_k            (weighted mass)
    bbar_u  = sum_k w_k d_k        (weighted drift, unnormalized)
    cbar_u  = sum_k w_k d_k d_k^T  (weighted second moment, unnormalized)

    with w_k = p_k * L_k and d_k the price increment to child k.
    """

    m0: float
    bbar_u: np.ndarray
    cbar_u: np.ndarray


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


def weighted_moments(weights: np.ndarray, increments: np.ndarray) -> OneStepMoments:
    """Assemble OneStepMoments from per-child weights p_k*L_k and
    increment vectors (one row per child)."""
    w = np.asarray(weights, dtype=float)
    d = np.asarray(increments, dtype=float)
    if d.ndim == 1:
        d = d[:, None]
    m0 = float(np.sum(w))
    bbar_u = d.T @ w
    cbar_u = (d.T * w) @ d
    return OneStepMoments(m0=m0, bbar_u=bbar_u, cbar_u=0.5 * (cbar_u + cbar_u.T))
