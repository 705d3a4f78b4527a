"""Opportunity process, adjustment process, and derived measures.

The opportunity process L(n) is the conditional minimal expected squared
error of hedging the constant payoff 1 from node n with zero endowment.
It satisfies the backward recursion

    L(leaf) = 1
    L(n)    = m0 - bbar_u' cbar_u^+ bbar_u

with the weighted one-step moments of linalg.weighted_moments (weights
p_k * L_k).  The adjustment process a_tilde(n) = cbar_u^+ bbar_u is the
optimal per-unit-of-wealth holding in the pure investment problem, and
everything else (the signed variance-optimal measure, the opportunity-
neutral measure, Sharpe ratios, mean-variance tradeoff diagnostics)
derives from these two objects.  identities evaluates the paper's
one-step identities between them, which verify prints.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateStep
from .linalg import pinv_psd, weighted_moments
from .tree import ScenarioTree

DEGENERACY_THRESHOLD = 1e-12
MVT_TOL = 1e-10


@dataclass
class OpportunitySurface:
    """Per-node outputs of the backward recursion.

    Arrays are indexed by node id; entries that only exist at
    non-terminal nodes are NaN at terminal nodes.  Seven arrays are
    stored: L, a_tilde, the weighted one-step moments m0, bbar_u, cbar_u,
    and the one-step weights qstar_w = (L_k/L_n)(1 - a_tilde' d_k) and
    pstar_p = p_k L_k / m0 of the step from node n into its child k, at k
    as tree.prob is (1 at the root).  The rest is derived at first access:
    dAK = m0/L - 1, a_hat = (1 + dAK) a_tilde, and the one-step
    characteristics of the price under the opportunity-neutral measure,
    b_sstar = bbar_u/m0 (conditional mean), c_tilde_sstar = cbar_u/m0
    (conditional second moment) and c_hat_sstar = c_tilde_sstar -
    b_sstar b_sstar' (conditional covariance), and the maximal
    conditional Sharpe ratio over the remaining periods, sharpe =
    sqrt(1/L - 1).
    """

    L: np.ndarray                 # (n,)
    a_tilde: np.ndarray           # (n, d)
    m0: np.ndarray                # (n,)
    bbar_u: np.ndarray            # (n, d)
    cbar_u: np.ndarray            # (n, d, d)
    qstar_w: np.ndarray           # (n,)
    pstar_p: np.ndarray           # (n,)

    @cached_property
    def dAK(self) -> np.ndarray:
        return self.m0 / self.L - 1.0

    @cached_property
    def a_hat(self) -> np.ndarray:
        return (1.0 + self.dAK)[:, None] * self.a_tilde

    @cached_property
    def b_sstar(self) -> np.ndarray:
        return self.bbar_u / self.m0[:, None]

    @cached_property
    def c_tilde_sstar(self) -> np.ndarray:
        return self.cbar_u / self.m0[:, None, None]

    @cached_property
    def c_hat_sstar(self) -> np.ndarray:
        b = self.b_sstar
        return self.c_tilde_sstar - b[:, :, None] * b[:, None, :]

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


def _unfilled(L: np.ndarray, a_tilde: np.ndarray, qstar_w: np.ndarray) -> OpportunitySurface:
    """The given L, a_tilde and qstar_w; NaN moments and pstar_p = 1 to fill in."""
    n, d = a_tilde.shape
    return OpportunitySurface(L, a_tilde, np.full(n, np.nan), np.full((n, d), np.nan),
                              np.full((n, d, d), np.nan), qstar_w, np.ones(n))


def compute_opportunity(tree: ScenarioTree) -> OpportunitySurface:
    """Backward induction for L, a_tilde, the weighted moments and the
    one-step weights, one time slice at a time: per child-count group of
    the slice, stacked moments and one stacked pseudoinverse.

    Raises DegenerateStep when some one-step market admits a riskless
    nonzero return: the one-step ratio L/m0 = 1/(1 + dAK) vanishes.  The
    test is relative to m0 because L itself compounds multiplicatively
    and may be tiny on long horizons of a well-posed market.  The node
    named is the lowest id of the latest slice with such a step."""
    lay = tree.layout
    n, d = len(tree.nodes), tree.num_assets
    surf = _unfilled(np.ones(n), np.full((n, d), np.nan), np.ones(n))
    for t in range(tree.horizon - 1, -1, -1):
        degenerate = []
        for s in lay.steps[t]:
            child_L = surf.L[s.kids]
            m0, bbar_u, cbar_u = weighted_moments(s.probs * child_L, s.deltas)
            cinv = pinv_psd(cbar_u)
            b = bbar_u[..., None]
            L = m0 - (b.swapaxes(1, 2) @ cinv @ b)[:, 0, 0]
            degenerate.append(s.ids[L <= DEGENERACY_THRESHOLD * m0])
            surf.L[s.ids] = L
            a = surf.a_tilde[s.ids] = (cinv @ b)[..., 0]
            surf.m0[s.ids], surf.bbar_u[s.ids], surf.cbar_u[s.ids] = m0, bbar_u, cbar_u
            gain = (s.deltas @ a[..., None])[..., 0]
            with np.errstate(divide="ignore", invalid="ignore"):  # a degenerate L raises below
                surf.qstar_w[s.kids] = child_L / L[:, None] * (1.0 - gain)
                surf.pstar_p[s.kids] = s.probs * child_L / m0[:, None]
        DegenerateStep.raise_lowest(degenerate)
    return surf


def martingale_surface(tree: ScenarioTree) -> OpportunitySurface:
    """The surface the tree would have if prices were martingales:
    L = 1 and a_tilde = 0 at every node, with the plain P-weighted
    one-step moments.  The engine's mean value and pure hedge on it are
    the martingale-style (GKW) hedge, and its c_hat_sstar is the
    physical conditional covariance of the increments.  L, a_tilde and
    qstar_w = 1 are read-only constant views, which take no memory;
    pstar_p = p_k / m0."""
    lay = tree.layout
    n, d = len(tree.nodes), tree.num_assets
    ones = np.broadcast_to(1.0, (n,))
    surf = _unfilled(ones, np.broadcast_to(0.0, (n, d)), ones)
    for t in range(tree.horizon):
        for s in lay.steps[t]:
            moments = weighted_moments(s.probs, s.deltas)
            surf.m0[s.ids], surf.bbar_u[s.ids], surf.cbar_u[s.ids] = moments
            surf.pstar_p[s.kids] = s.probs / moments[0][:, None]
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
    the mass and the drift of the one-step Q* weights, and Lemma 3.23."""
    lay = tree.layout
    ids = lay.inner
    b = surf.b_sstar[ids]
    up = 1.0 + (b[:, None, :] @ pinv_psd(surf.c_hat_sstar[ids]) @ b[:, :, None])[:, 0, 0]
    dn = 1.0 - (b[:, None, :] @ pinv_psd(surf.c_tilde_sstar[ids]) @ b[:, :, None])[:, 0, 0]
    mass, drift, lemma323 = np.empty((3, len(ids)))
    for t in range(tree.horizon):
        for s in lay.steps[t]:
            qw = surf.qstar_w[s.kids]
            mass[s.ids] = (s.probs[:, None, :] @ qw[..., None])[:, 0, 0]
            drift[s.ids] = np.max(np.abs(s.deltas.swapaxes(1, 2) @ (s.probs * qw)[..., None]),
                                  axis=(1, 2))
            fact = surf.L[s.kids] / surf.m0[s.ids][:, None] * mea.nstar_f[s.kids]
            lemma323[s.ids] = np.max(np.abs(fact - qw), axis=1)

    def cor320(c, a):
        return np.max(np.abs((c[ids] @ a[ids][..., None])[..., 0] - b), axis=1)

    return {
        "cor320_tilde": (cor320(surf.c_tilde_sstar, surf.a_tilde), 0.0),
        "cor320_hat": (cor320(surf.c_hat_sstar, surf.a_hat), 0.0),
        "identity_319": (up * dn, 1.0),
        "dak_identity": (surf.dAK[ids], up - 1.0),
        "qstar_mass": (mass, 1.0),
        "qstar_drift": (drift, 0.0),
        "lemma323": (lemma323, 0.0),
    }


def mvt_process(tree: ScenarioTree, surf: OpportunitySurface) -> MvtDiagnostics:
    """Mean-variance tradeoff increments, read off the martingale
    surface (P-weighted moments, L = 1), and the deterministic-MVT /
    opportunity-neutral classification, both to tolerance MVT_TOL."""
    mea = measures(tree, surf)
    plain = martingale_surface(tree)
    b, c_hat = plain.b_sstar, plain.c_hat_sstar
    lay = tree.layout
    dK = np.full(len(tree.nodes), np.nan)
    ids = lay.inner
    dK[ids] = (b[ids][:, None, :] @ pinv_psd(c_hat[ids]) @ b[ids][:, :, None])[:, 0, 0]
    deterministic = True
    slice_values = np.zeros(tree.horizon)
    for t in range(tree.horizon):
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
    return MvtDiagnostics(dK_hat=dK, deterministic_mvt=deterministic, pstar_is_p=pstar_is_p,
                          det_l_residual=det_residual)

