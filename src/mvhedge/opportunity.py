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
derives from these two objects.
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
    non-terminal nodes are NaN at terminal nodes.  Five arrays are
    stored: L, a_tilde and the weighted one-step moments m0, bbar_u,
    cbar_u.  The rest is derived from them for every node at first
    access: dAK = m0/L - 1, a_hat = (1 + dAK) a_tilde, and the one-step
    characteristics of the price under the opportunity-neutral measure,
    b_sstar = bbar_u/m0 (conditional mean), c_tilde_sstar = cbar_u/m0
    (conditional second moment) and c_hat_sstar = c_tilde_sstar -
    b_sstar b_sstar' (conditional covariance).
    """

    L: np.ndarray                 # (n,)
    a_tilde: np.ndarray           # (n, d)
    m0: np.ndarray                # (n,)
    bbar_u: np.ndarray            # (n, d)
    cbar_u: np.ndarray            # (n, d, d)

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


@dataclass
class MeasureSurface:
    """One-step and cumulative densities of the derived measures.

    Per non-terminal node, lists aligned with the node's children:
      qstar_w: one-step signed density factor of the variance-optimal
               measure, (L_k/L_n)(1 - a_tilde' d_k); may be <= 0
      pstar_p: one-step probability of the opportunity-neutral measure,
               p_k L_k / m0
      nstar_f: one-step factor 1 - a_hat' (d_k - b_sstar)
    Per node (cumulative along the root path, so in particular per leaf):
      z_qstar: product of qstar_w factors (= dQ*/dP on leaves)
      z_pstar: product of pstar_p/p factors (= dP*/dP on leaves)
    """

    qstar_w: dict[int, np.ndarray]
    pstar_p: dict[int, np.ndarray]
    nstar_f: dict[int, np.ndarray]
    z_qstar: np.ndarray
    z_pstar: np.ndarray
    num_negative_weights: int


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


def _unfilled(L: np.ndarray, a_tilde: np.ndarray) -> OpportunitySurface:
    """A surface with the given L and a_tilde and NaN moments to fill in."""
    n, d = a_tilde.shape
    return OpportunitySurface(
        L=L,
        a_tilde=a_tilde,
        m0=np.full(n, np.nan),
        bbar_u=np.full((n, d), np.nan),
        cbar_u=np.full((n, d, d), np.nan),
    )


def compute_opportunity(tree: ScenarioTree) -> OpportunitySurface:
    """Backward induction for L, a_tilde, and the weighted moments.

    Raises DegenerateStep when some one-step market admits a riskless
    nonzero return: the one-step ratio L/m0 = 1/(1 + dAK) vanishes.  The
    test is relative to m0 because L itself compounds multiplicatively
    and may be tiny on long horizons of a well-posed market."""
    n, d = len(tree.nodes), tree.num_assets
    surf = _unfilled(np.ones(n), np.full((n, d), np.nan))
    for t in range(tree.horizon - 1, -1, -1):
        for node in tree.nodes_at(t):
            kids, probs, deltas = tree.step(node)
            mom = weighted_moments(probs * surf.L[kids], deltas)
            cinv = pinv_psd(mom.cbar_u)
            L = mom.m0 - float(mom.bbar_u @ cinv @ mom.bbar_u)
            if L <= DEGENERACY_THRESHOLD * mom.m0:
                raise DegenerateStep(node.id)
            i = node.id
            surf.L[i] = L
            surf.a_tilde[i] = cinv @ mom.bbar_u
            surf.m0[i], surf.bbar_u[i], surf.cbar_u[i] = mom.m0, mom.bbar_u, mom.cbar_u
    return surf


def martingale_surface(tree: ScenarioTree) -> OpportunitySurface:
    """The surface the tree would have if prices were martingales:
    L = 1 and a_tilde = 0 at every node, with the plain P-weighted
    one-step moments.  The engine's mean value and pure hedge on it are
    the martingale-style (GKW) hedge, and its c_hat_sstar is the
    physical conditional covariance of the increments.  L and a_tilde
    are read-only constant views, which take no memory."""
    n, d = len(tree.nodes), tree.num_assets
    surf = _unfilled(np.broadcast_to(1.0, (n,)), np.broadcast_to(0.0, (n, d)))
    for node in tree.nonterminal():
        _, probs, deltas = tree.step(node)
        mom = weighted_moments(probs, deltas)
        i = node.id
        surf.m0[i], surf.bbar_u[i], surf.cbar_u[i] = mom.m0, mom.bbar_u, mom.cbar_u
    return surf


def measures(tree: ScenarioTree, surf: OpportunitySurface) -> MeasureSurface:
    """One-step weights and cumulative path densities of the
    variance-optimal signed measure and the opportunity-neutral measure.

    Negative qstar_w entries are legal (the variance-optimal measure is
    signed) and are counted, never clamped."""
    qstar_w: dict[int, np.ndarray] = {}
    pstar_p: dict[int, np.ndarray] = {}
    nstar_f: dict[int, np.ndarray] = {}
    z_qstar = np.ones(len(tree.nodes))
    z_pstar = np.ones(len(tree.nodes))
    negatives = 0
    for node in tree.nonterminal():
        i = node.id
        kids, probs, deltas = tree.step(node)
        child_L = surf.L[kids]
        qw = (child_L / surf.L[i]) * (1.0 - deltas @ surf.a_tilde[i])
        pp = probs * child_L / surf.m0[i]
        qstar_w[i] = qw
        pstar_p[i] = pp
        nstar_f[i] = 1.0 - (deltas - surf.b_sstar[i]) @ surf.a_hat[i]
        negatives += int(np.sum(qw <= 0.0))
        z_qstar[kids] = z_qstar[i] * qw
        z_pstar[kids] = z_pstar[i] * (pp / probs)
    return MeasureSurface(
        qstar_w=qstar_w,
        pstar_p=pstar_p,
        nstar_f=nstar_f,
        z_qstar=z_qstar,
        z_pstar=z_pstar,
        num_negative_weights=negatives,
    )


def sharpe_ratio(surf: OpportunitySurface, node_id: int) -> float:
    """Maximal conditional Sharpe ratio over the remaining periods,
    sqrt(1/L(n) - 1)."""
    return float(np.sqrt(max(1.0 / surf.L[node_id] - 1.0, 0.0)))


def mvt_process(tree: ScenarioTree, surf: OpportunitySurface) -> MvtDiagnostics:
    """Mean-variance tradeoff increments, read off the martingale
    surface (P-weighted moments, L = 1), and the deterministic-MVT /
    opportunity-neutral classification, both to tolerance MVT_TOL."""
    mea = measures(tree, surf)
    plain = martingale_surface(tree)
    b, c_hat = plain.b_sstar, plain.c_hat_sstar
    dK = np.full(len(tree.nodes), np.nan)
    ids = [node.id for node in tree.nonterminal()]
    dK[ids] = (b[ids][:, None, :] @ pinv_psd(c_hat[ids]) @ b[ids][:, :, None])[:, 0, 0]
    deterministic = True
    slice_values = np.zeros(tree.horizon)
    for t in range(tree.horizon):
        vals = np.array([dK[n.id] for n in tree.nodes_at(t)])
        slice_values[t] = vals[0]
        if np.max(np.abs(vals - vals[0])) > MVT_TOL * max(1.0, abs(vals[0])):
            deterministic = False
    pstar_is_p = bool(np.max(np.abs(mea.z_pstar - 1.0)) <= MVT_TOL)
    det_residual = None
    if deterministic:
        eps = np.cumprod(np.concatenate(([1.0], 1.0 + slice_values)))
        expected = (eps / eps[-1])[[node.time for node in tree.nodes]]
        det_residual = float(np.max(np.abs(surf.L - expected) / expected))
    return MvtDiagnostics(
        dK_hat=dK,
        deterministic_mvt=deterministic,
        pstar_is_p=pstar_is_p,
        det_l_residual=det_residual,
    )

