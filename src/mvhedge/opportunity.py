"""Opportunity process, adjustment process, and derived measures.

The opportunity process L(n) is the conditional minimal expected squared
error of hedging the constant payoff 1 from node n with zero endowment.
With the one-step opportunity-neutral law P* on a node's children,
q_k = p_k L_k / m0, its increment mean b* and covariance c_hat*, and
K = b*' a_hat with a_hat = c_hat*^+ b*, it satisfies (Cerny & Kallsen,
Lemma 3.19 and Cor. 3.20) the backward recursion

    L(leaf) = 1
    L(n)    = m0 / (1 + K),   m0 = sum_k p_k L_k.

The adjustment process a_tilde(n) = a_hat / (1 + K) is the optimal
per-unit-of-wealth holding in the pure investment problem, and
everything else (the signed variance-optimal measure, the opportunity-
neutral measure, Sharpe ratios, mean-variance tradeoff diagnostics)
derives from these objects.  identities evaluates the paper's one-step
identities between them, which verify prints.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateStep
from .linalg import centered_moments, gram_root, pinv_psd
from .tree import ScenarioTree

DEGENERACY_THRESHOLD = 1e-12
MVT_TOL = 1e-10
RANGE_TOL = 1e-8


@dataclass
class OpportunitySurface:
    """Per-node outputs of the backward recursion.

    Arrays are indexed by node id; entries that only exist at
    non-terminal nodes are NaN at terminal nodes.  Seven arrays are
    stored: L, a_tilde and the one-step P* law from node n: its mass m0 =
    sum_k p_k L_k, the increments' mean b_sstar, c_hat_root, a root R R' =
    c_hat*^+, and the weights qstar_w = (L_k/L_n)(1 - a_tilde' d_k) of Q*
    (signed: entries <= 0 are legal and never clamped) and pstar_p = p_k
    L_k / m0 of P*, at the child k as tree.prob is (1 at the root).
    Derived at first access: dAK = m0/L - 1, a_hat = (1 + dAK) a_tilde
    and the maximal conditional Sharpe ratio to T, sharpe = sqrt(1/L - 1).
    """

    L: np.ndarray                 # (n,)
    a_tilde: np.ndarray           # (n, d)
    m0: np.ndarray                # (n,)
    b_sstar: np.ndarray           # (n, d)
    c_hat_root: np.ndarray        # (n, d, d)
    qstar_w: np.ndarray           # (n,)
    pstar_p: np.ndarray           # (n,)

    @cached_property
    def dAK(self) -> np.ndarray:
        return self.m0 / self.L - 1.0

    @cached_property
    def a_hat(self) -> np.ndarray:
        return (1.0 + self.dAK)[:, None] * self.a_tilde

    @cached_property
    def sharpe(self) -> np.ndarray:
        return np.sqrt(np.maximum(1.0 / self.L - 1.0, 0.0))


@dataclass
class MeasureSurface:
    """The one-step factor nstar_f and the cumulative densities of the
    derived measures, all indexed by node id.  The one-step Q* weights
    and P* probabilities are the surface's qstar_w and pstar_p.

    One-step, for the edge from node n into its child k and stored at k
    as tree.prob is (1 at the root):
      nstar_f: one-step factor 1 - a_hat' (d_k - b_sstar)
    Cumulative along the root path (so in particular per leaf):
      z_qstar: product of surf.qstar_w factors (= dQ*/dP on leaves)
      z_pstar: product of surf.pstar_p/p factors (= dP*/dP on leaves)
    """

    nstar_f: np.ndarray   # (n,)
    z_qstar: np.ndarray   # (n,)
    z_pstar: np.ndarray   # (n,)


@dataclass
class MvtDiagnostics:
    """Mean-variance tradeoff process and its classification flags.

    dK_hat(n) = b' c_hat^+ b with the unweighted one-step moments (the
    squared conditional Sharpe ratio of the step).  deterministic_mvt is
    true when dK_hat is constant across each time slice; in that case
    det_l_residual reports the worst relative deviation of L(n) from the
    closed form eps_t / eps_T with eps_t = prod_{s<=t} (1 + dK_hat_s).
    """

    dK_hat: np.ndarray
    deterministic_mvt: bool
    pstar_is_p: bool
    det_l_residual: float | None


def compute_opportunity(tree: ScenarioTree) -> OpportunitySurface:
    """Backward induction for L, a_tilde, the one-step P* law and the
    one-step weights, one time slice at a time: per child-count group of
    the slice, one stacked gram_root of A = diag(sqrt q) dev, the centered
    increments, so that c_hat* = A'A, K = |R'b*|^2 and a_hat = R R'b*.

    Raises DegenerateStep when some one-step market admits a riskless
    nonzero return: L/m0 = 1/(1 + K) vanishes (relative to m0, as L may
    be tiny on long horizons of a well-posed market), or |V_dropped' b*|,
    the 1-norm of b* along the directions gram_root drops, exceeds
    RANGE_TOL max |A_kj|.  It names the lowest id of the latest such slice."""
    n, d = len(tree.nodes), tree.num_assets
    nan = np.full((2, n, d), np.nan)
    surf = OpportunitySurface(np.ones(n), nan[0], np.full(n, np.nan), nan[1],
                              np.full((n, d, d), np.nan), np.ones(n), np.ones(n))
    for t in range(tree.horizon - 1, -1, -1):
        degenerate = []
        for s in tree.layout.steps[t]:
            child_L = surf.L[s.kids]
            q = s.probs * child_L
            m0 = np.sum(q, axis=-1)
            q /= m0[:, None]
            b, dc = centered_moments(q, s.deltas)
            A = np.sqrt(q)[..., None] * dc
            R, V, keep = gram_root(A)
            z = (b[:, None, :] @ R)[:, 0]
            K, a_hat = (z[:, None, :] @ z[..., None])[:, 0, 0], (R @ z[..., None])[..., 0]
            L, off = m0 / (1.0 + K), np.sum(np.abs((b[:, None, :] @ V)[:, 0]) * ~keep, axis=1)
            scale = np.abs(A).max(axis=(1, 2))
            degenerate.append(s.ids[(L <= DEGENERACY_THRESHOLD * m0) | (off > RANGE_TOL * scale)])
            surf.L[s.ids], surf.a_tilde[s.ids] = L, a_hat / (1.0 + K)[:, None]
            surf.m0[s.ids], surf.b_sstar[s.ids], surf.c_hat_root[s.ids] = m0, b, R
            w = (1.0 - (dc @ a_hat[..., None])[..., 0]) * (child_L / m0[:, None])
            surf.qstar_w[s.kids], surf.pstar_p[s.kids] = w, q
            del A, dc, w
        DegenerateStep.raise_lowest(degenerate)
    return surf


def martingale_surface(tree: ScenarioTree) -> OpportunitySurface:
    """The surface the tree would have if prices were martingales:
    L = 1, a_tilde = 0 and qstar_w = 1, so P* is P (pstar_p = p_k / m0)
    with b_sstar = 0 and c_hat_root the gram_root of diag(sqrt pstar_p) d,
    a root of E_P[d d']^+.  The engine's mean value and pure hedge on it
    are the martingale-style (GKW) hedge, the P regression of the value
    increments on the price increments.  L, a_tilde, b_sstar and qstar_w
    are read-only constant views, which take no memory."""
    n, d = len(tree.nodes), tree.num_assets
    ones, zeros = np.broadcast_to(1.0, (n,)), np.broadcast_to(0.0, (n, d))
    surf = OpportunitySurface(ones, zeros, np.full(n, np.nan), zeros,
                              np.full((n, d, d), np.nan), ones, np.ones(n))
    for t in range(tree.horizon):
        for s in tree.layout.steps[t]:
            surf.m0[s.ids] = m0 = np.sum(s.probs, axis=-1)
            q = surf.pstar_p[s.kids] = s.probs / m0[:, None]
            surf.c_hat_root[s.ids] = gram_root(np.sqrt(q)[..., None] * s.deltas)[0]
    return surf


def measures(tree: ScenarioTree, surf: OpportunitySurface) -> MeasureSurface:
    """The one-step factor nstar_f and the cumulative path densities of
    the variance-optimal signed measure and the opportunity-neutral
    measure, products of the surface's qstar_w and pstar_p/p."""
    lay = tree.layout
    nstar_f, z_qstar, z_pstar = np.ones((3, len(tree.nodes)))
    for t in range(tree.horizon):
        for s in lay.steps[t]:
            i = s.ids
            shifted = s.deltas - surf.b_sstar[i][:, None, :]
            nstar_f[s.kids] = 1.0 - (shifted @ surf.a_hat[i][..., None])[..., 0]
            z_qstar[s.kids] = z_qstar[i][:, None] * surf.qstar_w[s.kids]
            z_pstar[s.kids] = z_pstar[i][:, None] * (surf.pstar_p[s.kids] / s.probs)
    return MeasureSurface(nstar_f, z_qstar, z_pstar)


def identities(tree: ScenarioTree, surf: OpportunitySurface, mea: MeasureSurface) -> dict:
    """The paper's one-step identities at the nodes tree.layout.inner, as
    name -> (value, target) pairs of per-node arrays or scalars, each
    value equal to its target up to rounding: Cor. 3.20 with the tilde
    and with the hat characteristics, Lemma 3.19, dAK = b' c_hat^+ b,
    the mass and the drift of the one-step Q* weights, and Lemma 3.23.
    Asset j's increments are read in units of D_j = max_k |d_kj| (1 where
    0), so that no check has a price unit: c_hat* is rebuilt in them from
    pstar_p, and c_tilde* = c_hat* + b* b*' inverted by pinv_psd, the
    second route to Lemma 3.19; 1 + b*' c_hat*^+ b* is read off c_hat_root."""
    lay = tree.layout
    ids, d = lay.inner, tree.num_assets
    up = 1.0 + np.sum((surf.b_sstar[ids][:, None, :] @ surf.c_hat_root[ids]) ** 2, axis=(1, 2))
    mass, drift, lemma323 = np.empty((3, len(ids)))
    unit, c_hat = np.empty((len(ids), d)), np.empty((len(ids), d, d))
    for t in range(tree.horizon):
        for s in lay.steps[t]:
            D, q = np.max(np.abs(s.deltas), axis=1), surf.pstar_p[s.kids]
            unit[s.ids] = np.where(D > 0.0, D, 1.0)
            A = np.sqrt(q)[..., None] * centered_moments(q, s.deltas / unit[s.ids][:, None, :])[1]
            c_hat[s.ids] = A.swapaxes(1, 2) @ A
            qw = surf.qstar_w[s.kids]
            mass[s.ids] = (s.probs[:, None, :] @ qw[..., None])[:, 0, 0]
            moment = (s.deltas.swapaxes(1, 2) @ (s.probs * qw)[..., None])[..., 0]
            drift[s.ids] = np.max(np.abs(moment / unit[s.ids]), axis=1)
            fact = surf.L[s.kids] / surf.m0[s.ids][:, None] * mea.nstar_f[s.kids]
            lemma323[s.ids] = np.max(np.abs(fact - qw), axis=1)
    b = surf.b_sstar[ids] / unit
    c_tilde = c_hat + b[:, :, None] * b[:, None, :]
    dn = 1.0 - (b[:, None, :] @ pinv_psd(c_tilde) @ b[:, :, None])[:, 0, 0]

    def cor320(c, a):
        return np.max(np.abs((c @ (a[ids] * unit)[..., None])[..., 0] - b), axis=1)

    return {
        "cor320_tilde": (cor320(c_tilde, surf.a_tilde), 0.0),
        "cor320_hat": (cor320(c_hat, surf.a_hat), 0.0),
        "identity_319": (up * dn, 1.0),
        "dak_identity": (surf.dAK[ids], up - 1.0),
        "qstar_mass": (mass, 1.0),
        "qstar_drift": (drift, 0.0),
        "lemma323": (lemma323, 0.0),
    }


def mvt_process(tree: ScenarioTree, surf: OpportunitySurface) -> MvtDiagnostics:
    """Mean-variance tradeoff increments, from the P mean and gram_root of
    each step's increments, and the deterministic-MVT / opportunity-
    neutral classification, both to tolerance MVT_TOL."""
    mea = measures(tree, surf)
    lay = tree.layout
    dK = np.full(len(tree.nodes), np.nan)
    deterministic = True
    slice_values = np.zeros(tree.horizon)
    for t in range(tree.horizon):
        for s in lay.steps[t]:
            q = s.probs / np.sum(s.probs, axis=-1)[:, None]
            b, dc = centered_moments(q, s.deltas)
            z = b[:, None, :] @ gram_root(np.sqrt(q)[..., None] * dc)[0]
            dK[s.ids] = (z @ z.swapaxes(1, 2))[:, 0, 0]
        vals = dK[lay.slices[t]]
        slice_values[t] = vals[0]
        if np.max(np.abs(vals - vals[0])) > MVT_TOL * max(1.0, abs(vals[0])):
            deterministic = False
    pstar_is_p = bool(np.max(np.abs(mea.z_pstar - 1.0)) <= MVT_TOL)
    det_residual = None
    if deterministic:
        eps = np.cumprod(np.concatenate(([1.0], 1.0 + slice_values)))
        expected = (eps / eps[-1])[tree.time]
        det_residual = float(np.max(np.abs(surf.L - expected) / expected))
    return MvtDiagnostics(dK, deterministic, pstar_is_p, det_residual)

