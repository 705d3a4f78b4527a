"""Symmetric PSD pseudoinverse, least-squares roots, centered moments.

centered_moments centers a node's (k, d) increments or values under a
one-step law (P*, q_k = p_k L_k / m0, or P) after a shift by the child
of largest weight (Chan, Golub & LeVeque, Amer. Stat. 37, 1983);
gram_root inverts their covariance a'a through a = diag(sqrt q) dev
itself, squaring no small singular value of a (Golub 1965; Bjorck,
Numerical Methods for Least Squares Problems, 1996, ch. 2).
"""
from __future__ import annotations

import numpy as np

from .errors import NotSymmetric

SYMMETRY_RTOL = 1e-12
EIG_TRUNCATION = 1e-12
GRAM_CUTOFF = 1e-8


def pinv_psd(m: np.ndarray, root: bool = False) -> np.ndarray:
    """Moore-Penrose pseudoinverse of a symmetric matrix, or of each
    matrix in a (..., d, d) stack, from the eigenvalues lam of 0.5 (m +
    m') (m itself if exactly symmetric), truncating |lam| <= d
    EIG_TRUNCATION max|lam| (per matrix) to zero.  The result is exactly
    symmetric, PSD if m is; a matrix of a stack gets the arithmetic of a
    lone call, bit for bit.  root returns R = vec diag(inv^1/2) (negative
    inv as 0), R R' = m^+ for PSD m: b' m^+ b = |b' R|^2 keeps its accuracy.

    Raises NotSymmetric if the asymmetry of any matrix exceeds tolerance."""
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
    lam, vec = np.linalg.eigh(0.5 * (m + mT))
    cutoff = d * EIG_TRUNCATION * np.abs(lam).max(axis=-1, keepdims=True)
    inv = np.where(np.abs(lam) > cutoff, 1.0 / np.where(lam == 0.0, 1.0, lam), 0.0)
    if root:
        return vec * np.sqrt(np.maximum(inv, 0.0))[..., None, :]
    out = (vec * inv[..., None, :]) @ vec.swapaxes(-1, -2)
    return 0.5 * (out + out.swapaxes(-1, -2))


def gram_root(a: np.ndarray) -> tuple:
    """(R, V, keep) for each a of a (..., k, d) stack: V the eigenvectors
    of a'a, keep those v with |a v| > GRAM_CUTOFF max |a V|, and R R' =
    (a'a)^+ on their span, R'v = 0 on the rest, so b'(a'a)^+ b = |R'b|^2.
    With a scaled by a power of two, W = a V, D its column norms and C C'
    = Y'Y + I_dropped, Y = W / D: R = V D^-1 C^-T.  C corrects V, so R's
    accuracy follows a's singular values, not their squares; a stacked
    member gets the arithmetic of a lone call, bit for bit."""
    e = np.frexp(np.abs(a).max(axis=(-2, -1), initial=0.0))[1]
    s = np.ldexp(1.0, -np.maximum(e, -1021))[..., None, None]   # finite for subnormal a
    a = a * s
    V = np.linalg.eigh(a.swapaxes(-1, -2) @ a)[1]
    W = a @ V
    D = np.sqrt(np.einsum("...kd,...kd->...d", W, W))
    keep = D > GRAM_CUTOFF * D.max(axis=-1, keepdims=True)
    inv = (keep / np.where(keep, D, 1.0))[..., None, :]
    Y = W * inv
    C = np.linalg.cholesky(Y.swapaxes(-1, -2) @ Y + np.eye(a.shape[-1]) * ~keep[..., None, :])
    return (V * inv) @ np.linalg.inv(C).swapaxes(-1, -2) * s, V, keep


def centered_moments(q: np.ndarray, x: np.ndarray) -> tuple:
    """(mean, dev) of values x (..., k, d) under probabilities q (..., k),
    one row a node, scalar values as d = 1: with j the child of largest q
    and s_k = x_k - x_j, mean = x_j + sum_k q_k s_k and dev_k = s_k -
    sum_j q_j s_j.  A node of a stack gets the arithmetic of a call on
    that node alone, bit for bit."""
    q, x = np.asarray(q, dtype=float), np.asarray(x, dtype=float)
    pivot = np.take_along_axis(x, np.argmax(q, axis=-1)[..., None, None], axis=-2)
    dev = x - pivot
    shift = q[..., None, :] @ dev
    dev -= shift
    return (pivot + shift)[..., 0, :], dev
