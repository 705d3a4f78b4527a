"""Symmetric PSD pseudoinverse, least-squares roots, centered moments.

centered_moments centers a node's (k, d) increments or values under a
one-step law (P*, q_k = p_k L_k / m0, or P) after a shift by the child
of largest weight (Chan, Golub & LeVeque, Amer. Stat. 37, 1983);
gram_root inverts their covariance a'a through a = diag(sqrt q) dev
itself, squaring no small singular value of a (Golub 1965; Bjorck,
Numerical Methods for Least Squares Problems, 1996, ch. 2): at d <= 3
by cyclic one-sided Jacobi plane rotations (Hestenes, J. SIAM 6, 1958;
Demmel & Veselic, SIAM J. Matrix Anal. Appl. 13, 1992) with no LAPACK
call, on 1e5 (4, 2) stacks a third of the time of batched eigh,
Cholesky and inverse and on (4, 3) stacks about 0.6 of it; at d >= 4 by
eigh and a Cholesky correction, which rotations took 1.2 to 1.9 times
as long to match.
"""
from __future__ import annotations

import numpy as np

from .errors import NotSymmetric

SYMMETRY_RTOL = 1e-12
EIG_TRUNCATION = 1e-12
GRAM_CUTOFF = 1e-8
ORTH_TOL = 1e-15
MAX_ROTATIONS = 30   # bounds the sweeps of _rotate, each turning every column pair once


def pinv_psd(m: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudoinverse of a symmetric matrix, or of each
    matrix in a (..., d, d) stack, from the eigenvalues lam of 0.5 (m +
    m'), truncating |lam| <= d EIG_TRUNCATION max|lam| (per matrix) to
    zero.  The result is exactly symmetric, PSD if m is; a matrix of a
    stack gets the arithmetic of a lone call, bit for bit.

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
    lam, vec = np.linalg.eigh(0.5 * (m + mT))
    cutoff = m.shape[-1] * EIG_TRUNCATION * np.abs(lam).max(axis=-1, keepdims=True, initial=0.0)
    inv = np.where(np.abs(lam) > cutoff, 1.0 / np.where(lam == 0.0, 1.0, lam), 0.0)
    out = (vec * inv[..., None, :]) @ vec.swapaxes(-1, -2)
    return 0.5 * (out + out.swapaxes(-1, -2))


def gram_root(a: np.ndarray) -> tuple:
    """(R, V, keep) for each a of a (..., k, d) stack: V orthonormal with
    W = a V of orthogonal columns, D their norms, keep those with D >
    GRAM_CUTOFF max D, and R R' = (a'a)^+ on their span, R'v = 0 on the
    rest, so b'(a'a)^+ b = |R'b|^2.  a is first scaled by a power of two.
    At d <= 3, V is the product of one-sided Jacobi plane rotations of a's
    columns (Hestenes 1958) and R = V D^-1; at d >= 4, V holds the
    eigenvectors of a'a and R = V D^-1 C^-T, C C' = Y'Y + I_dropped, Y =
    W / D, the Cholesky factor correcting V.  Either way R's accuracy
    follows a's singular values, not their squares.  R and V are
    C-contiguous, and a stacked member gets the arithmetic of a lone
    call, bit for bit."""
    e = np.frexp(np.abs(a).max(axis=(-2, -1), initial=0.0))[1]
    s = np.ldexp(1.0, -np.maximum(e, -1021))[..., None, None]   # finite for subnormal a
    a, d = a * s, a.shape[-1]
    if d <= 3:
        D2, V = _rotate(a)
    else:
        V = np.linalg.eigh(a.swapaxes(-1, -2) @ a)[1]
        W = a @ V
        D2 = np.einsum("...kd,...kd->...d", W, W)
    D = np.sqrt(D2)
    keep = D > GRAM_CUTOFF * D.max(axis=-1, keepdims=True)
    inv = (keep / np.where(keep, D, 1.0))[..., None, :]
    if d <= 3:
        return V * inv * s, V, keep
    Y = W * inv
    C = np.linalg.cholesky(Y.swapaxes(-1, -2) @ Y + np.eye(d) * ~keep[..., None, :])
    return (V * inv) @ np.linalg.inv(C).swapaxes(-1, -2) * s, V, keep


def _rotate(a: np.ndarray) -> tuple:
    """(D^2, V) for a stack of (k, d) matrices a: V (..., d, d) the product
    of the plane rotations that leave the columns x_i of a V with x_i'x_j
    <= ORTH_TOL |x_i| |x_j| in every matrix, D^2 (..., d) their squared
    norms, by cyclic sweeps over the pairs i < j until one turns none (at
    most MAX_ROTATIONS).  Each rotation diagonalizes the pair's Gram matrix,
    recomputed from the columns; a converged matrix gets tan = 0, the
    identity, so a stacked member turns as a lone call would."""
    d, dot = a.shape[-1], "...k,...k->..."
    x, v = [a[..., j] for j in range(d)], list(np.zeros((d, *a.shape[:-2], d)))
    for j in range(d):
        v[j][..., j] = 1.0
    n2 = [np.einsum(dot, c, c) for c in x]
    for sweep in range(MAX_ROTATIONS + 1):
        turned = False
        for i, j in ((i, j) for i in range(d) for j in range(i + 1, d)):
            gamma = np.einsum(dot, x[i], x[j])
            gamma = np.where(gamma * gamma <= ORTH_TOL ** 2 * n2[i] * n2[j], 0.0, gamma)
            if sweep == MAX_ROTATIONS or not gamma.any():
                continue
            delta = n2[j] - n2[i]   # tan = sign(delta) 2 gamma / (|delta| + hypot(delta, 2 gamma))
            g = np.copysign(2.0, delta) * gamma
            den = np.abs(delta) + np.hypot(delta, g)
            t = (g / (den + (den == 0.0)))[..., None]
            c = 1.0 / np.sqrt(1.0 + t * t)
            sn = c * t
            x[i], x[j] = c * x[i] - sn * x[j], sn * x[i] + c * x[j]
            v[i], v[j] = c * v[i] - sn * v[j], sn * v[i] + c * v[j]
            n2[i], n2[j], turned = np.einsum(dot, x[i], x[i]), np.einsum(dot, x[j], x[j]), True
        if not turned:
            return np.stack(n2, axis=-1), np.stack(v, axis=-1)


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
