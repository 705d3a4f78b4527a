"""Symmetric PSD pseudoinverse and centered one-step moments.

Every backward recursion in the engine reduces to conditional means and
covariances under a law on a node's children: the opportunity-neutral
P*, q_k = p_k L_k / m0, or P itself.  centered_moments forms them as
Chan, Golub & LeVeque (Amer. Stat. 37, 1983) do the sample variance:
shift by the child of largest weight and center before squaring, so a
child that carries almost all of the mass costs no cancellation.
"""
from __future__ import annotations

import numpy as np

from .errors import NotSymmetric

SYMMETRY_RTOL = 1e-12
EIG_TRUNCATION = 1e-12


def pinv_psd(m: np.ndarray, root: bool = False) -> np.ndarray:
    """Moore-Penrose pseudoinverse of a symmetric matrix, or of each
    matrix in a (..., d, d) stack.

    Computed via symmetric eigendecomposition; eigenvalues with
    |lam| <= d * 1e-12 * max|lam| are truncated to zero, max|lam| taken
    per matrix.  The result is exactly symmetric, and PSD whenever the
    input is PSD.  Each matrix of a stack gets the same arithmetic as a
    call on that matrix alone, so the results agree bit for bit.  root
    returns R = vec diag(inv^1/2) (negative inv as 0), R R' = m^+ for PSD
    m, so that b' m^+ b = |b' R|^2 keeps its accuracy for ill-conditioned m.

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
    # an exactly symmetric input is its own symmetric part: taken as is, it
    # cannot overflow in m + mT, as the covariances of prices near 1e155 do
    # (entries past 9e307).  In a stack with some asymmetric member, 0.5 *
    # (m + mT) leaves the exactly symmetric ones unchanged, short of overflow
    sym = 0.5 * (m + mT) if np.count_nonzero(asym) else m
    lam, vec = np.linalg.eigh(sym)
    cutoff = d * EIG_TRUNCATION * np.abs(lam).max(axis=-1, keepdims=True)
    inv = np.where(np.abs(lam) > cutoff, 1.0 / np.where(lam == 0.0, 1.0, lam), 0.0)
    if root:
        return vec * np.sqrt(np.maximum(inv, 0.0))[..., None, :]
    out = (vec * inv[..., None, :]) @ vec.swapaxes(-1, -2)
    return 0.5 * (out + out.swapaxes(-1, -2))


def centered_moments(q: np.ndarray, x: np.ndarray) -> tuple:
    """(mean, dev, cov) of values x (..., k, d), or scalar values x
    (..., k), under probabilities q (..., k), one row a node: with j the
    child of largest q and s_k = x_k - x_j, mean = x_j + sum_k q_k s_k,
    dev_k = s_k - sum_j q_j s_j and cov = sum_k q_k dev_k dev_k^T,
    symmetrized (the variance for scalar values).  A node of a stack gets
    the arithmetic of a call on that node alone, bit for bit."""
    q, x = np.asarray(q, dtype=float), np.asarray(x, dtype=float)
    scalar = x.ndim == q.ndim
    x = x[..., None] if scalar else x
    pivot = np.take_along_axis(x, np.argmax(q, axis=-1)[..., None, None], axis=-2)
    dev = x - pivot
    shift = q[..., None, :] @ dev
    dev -= shift
    cov = (dev.swapaxes(-1, -2) * q[..., None, :]) @ dev
    mean, cov = (pivot + shift)[..., 0, :], 0.5 * (cov + cov.swapaxes(-1, -2))
    return (mean[..., 0], dev[..., 0], cov[..., 0, 0]) if scalar else (mean, dev, cov)
