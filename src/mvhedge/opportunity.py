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
from .linalg import EIG_TRUNCATION, centered_moments, pinv_psd
from .tree import ScenarioTree

DEGENERACY_THRESHOLD = 1e-12
MVT_TOL = 1e-10


@dataclass
class OpportunitySurface:
    """Per-node outputs of the backward recursion.

    Arrays are indexed by node id; entries that only exist at
    non-terminal nodes are NaN at terminal nodes.  Seven arrays are
    stored: L, a_tilde and the one-step P* law from node n: its mass
    m0 = sum_k p_k L_k, the increments' mean b_sstar and the
    pseudoinverse c_hat_pinv of their covariance c_hat*, inverted once
    where it is formed, and the weights qstar_w = (L_k/L_n)(1 - a_tilde'
    d_k) of Q* and pstar_p = p_k L_k / m0 of P*, at the child k as
    tree.prob is (1 at the root).  Derived at first access: dAK = m0/L - 1,
    a_hat = (1 + dAK) a_tilde, and the maximal conditional Sharpe ratio
    over the remaining periods, sharpe = sqrt(1/L - 1).
    """

    L: np.ndarray                 # (n,)
    a_tilde: np.ndarray           # (n, d)
    m0: np.ndarray                # (n,)
    b_sstar: np.ndarray           # (n, d)
    c_hat_pinv: np.ndarray        # (n, d, d)
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

    @property
    def num_negative_weights(self) -> int:
        """The count of one-step Q* weights <= 0; the variance-optimal
        measure is signed, so they are legal and never clamped."""
        return int(np.count_nonzero(self.qstar_w <= 0.0))


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
    the slice, centered moments and one pseudoinverse of c_hat*, stacked.

    Raises DegenerateStep when some one-step market admits a riskless
    nonzero return: L/m0 = 1/(1 + K) vanishes (relative to m0, as L may
    be tiny on long horizons of a well-posed market), or r = b* - c_hat*
    a_hat, the part of b* outside the range of c_hat*, exceeds sqrt(d
    EIG_TRUNCATION) times the scale of c_hat* + b* b*' and the rounding
    scale tr(c_hat*) |a_hat| of c_hat* a_hat (|.| the 1-norm, which does
    not overflow).  It names the lowest id of the latest such slice."""
    n, d = len(tree.nodes), tree.num_assets
    nan, ones = np.full((2, n, d), np.nan), np.ones(d)
    surf = OpportunitySurface(np.ones(n), nan[0], np.full(n, np.nan), nan[1],
                              np.full((n, d, d), np.nan), np.ones(n), np.ones(n))
    for t in range(tree.horizon - 1, -1, -1):
        degenerate = []
        for s in tree.layout.steps[t]:
            child_L = surf.L[s.kids]
            q = s.probs * child_L
            m0 = np.sum(q, axis=-1)
            q /= m0[:, None]
            b, dc, c = centered_moments(q, s.deltas)
            c_pinv = pinv_psd(c)
            a_hat = (c_pinv @ b[..., None])[..., 0]
            K = (b[:, None, :] @ a_hat[..., None])[:, 0, 0]
            r = np.abs(b - (c @ a_hat[..., None])[..., 0]) @ ones
            L, tr = m0 / (1.0 + K), np.trace(c, axis1=1, axis2=2)
            unit = np.max([np.sqrt(tr), np.abs(b) @ ones, tr * (np.abs(a_hat) @ ones)], axis=0)
            degenerate.append(s.ids[(L <= DEGENERACY_THRESHOLD * m0)
                                    | (r > np.sqrt(d * EIG_TRUNCATION) * unit)])
            surf.L[s.ids], surf.a_tilde[s.ids] = L, a_hat / (1.0 + K)[:, None]
            surf.m0[s.ids], surf.b_sstar[s.ids], surf.c_hat_pinv[s.ids] = m0, b, c_pinv
            w = (dc @ a_hat[..., None])[..., 0]   # then in place: fewer live temporaries
            np.subtract(1.0, w, out=w)
            w *= child_L / m0[:, None]
            surf.qstar_w[s.kids], surf.pstar_p[s.kids] = w, q
            del dc, w
        DegenerateStep.raise_lowest(degenerate)
    return surf


def martingale_surface(tree: ScenarioTree) -> OpportunitySurface:
    """The surface the tree would have if prices were martingales:
    L = 1, a_tilde = 0 and qstar_w = 1, so P* is P (pstar_p = p_k / m0)
    with b_sstar = 0 and c_hat_pinv the pseudoinverse of the P second
    moment E_P[d d'] of the increments.  The engine's mean value and pure
    hedge on it are the martingale-style (GKW) hedge, the P regression of
    the value increments on the price increments.  L, a_tilde, b_sstar
    and qstar_w are read-only constant views, which take no memory."""
    n, d = len(tree.nodes), tree.num_assets
    ones, zeros = np.broadcast_to(1.0, (n,)), np.broadcast_to(0.0, (n, d))
    surf = OpportunitySurface(ones, zeros, np.full(n, np.nan), zeros,
                              np.full((n, d, d), np.nan), ones, np.ones(n))
    for t in range(tree.horizon):
        for s in tree.layout.steps[t]:
            surf.m0[s.ids] = m0 = np.sum(s.probs, axis=-1)
            q = surf.pstar_p[s.kids] = s.probs / m0[:, None]
            c = (s.deltas.swapaxes(1, 2) * q[:, None, :]) @ s.deltas
            surf.c_hat_pinv[s.ids] = pinv_psd(0.5 * (c + c.swapaxes(1, 2)))
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
    Component j of the Cor. 3.20 residuals and of the drift is divided by
    D_j = max_k |d_kj| (1 where 0), so that no check has a price unit.
    c_hat* is rebuilt from pstar_p, bit for bit the matrix c_hat_pinv
    inverts, and c_tilde* = c_hat* + b* b*' is inverted for Lemma 3.19."""
    lay = tree.layout
    ids, d = lay.inner, tree.num_assets
    b = surf.b_sstar[ids]
    up = 1.0 + (b[:, None, :] @ surf.c_hat_pinv[ids] @ b[:, :, None])[:, 0, 0]
    mass, drift, lemma323 = np.empty((3, len(ids)))
    unit, c_hat = np.empty((len(ids), d)), np.empty((len(ids), d, d))
    for t in range(tree.horizon):
        for s in lay.steps[t]:
            c_hat[s.ids] = centered_moments(surf.pstar_p[s.kids], s.deltas)[2]
            D = np.max(np.abs(s.deltas), axis=1)
            unit[s.ids] = np.where(D > 0.0, D, 1.0)
            qw = surf.qstar_w[s.kids]
            mass[s.ids] = (s.probs[:, None, :] @ qw[..., None])[:, 0, 0]
            moment = (s.deltas.swapaxes(1, 2) @ (s.probs * qw)[..., None])[..., 0]
            drift[s.ids] = np.max(np.abs(moment / unit[s.ids]), axis=1)
            fact = surf.L[s.kids] / surf.m0[s.ids][:, None] * mea.nstar_f[s.kids]
            lemma323[s.ids] = np.max(np.abs(fact - qw), axis=1)
    c_tilde = c_hat + b[:, :, None] * b[:, None, :]
    dn = 1.0 - (b[:, None, :] @ pinv_psd(c_tilde) @ b[:, :, None])[:, 0, 0]

    def cor320(c, a):
        return np.max(np.abs((c @ a[ids][..., None])[..., 0] - b) / unit, axis=1)

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
    """Mean-variance tradeoff increments, from the P mean and covariance
    of each step's increments, and the deterministic-MVT /
    opportunity-neutral classification, both to tolerance MVT_TOL."""
    mea = measures(tree, surf)
    lay = tree.layout
    dK = np.full(len(tree.nodes), np.nan)
    deterministic = True
    slice_values = np.zeros(tree.horizon)
    for t in range(tree.horizon):
        for s in lay.steps[t]:
            b, _, c = centered_moments(s.probs / np.sum(s.probs, axis=-1)[:, None], s.deltas)
            dK[s.ids] = (b[:, None, :] @ pinv_psd(c) @ b[..., None])[:, 0, 0]
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

