"""Mean value process, pure hedge, feedback strategy, and exact error.

The mean value process V is the claim's conditional "price" under the
variance-optimal signed measure, computed backward with the one-step
weights p_k qstar_w_k that the surface stores; by the opportunity
recursion they sum to 1 at every node, which is checked, not assumed.
The pure hedge coefficient xi regresses V-increments on price increments
under the one-step P* law that the surface stores, and the optimal
strategy corrects xi by the running surplus: phi = xi - (wealth - V) a_tilde.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateStep, number
from .linalg import centered_moments
from .opportunity import OpportunitySurface
from .tree import ScenarioTree, claim_at

WEIGHT_SUM_TOL = 1e-9


@dataclass
class HedgePlan:
    """Per-node mean value V, pure hedge coefficient xi and conditional
    error term e, the last two NaN at terminal nodes."""

    V: np.ndarray         # (n,)
    xi: np.ndarray        # (n, d)
    e: np.ndarray         # (n,)

    @property
    def v0(self) -> float:
        return float(self.V[0])


@dataclass
class HedgeReport:
    """Exact expected squared hedging error and its decomposition."""

    total_error: float
    endowment_term: float
    slice_error: dict[int, float]


def compute_mean_value(tree: ScenarioTree, surf: OpportunitySurface,
                       claim: np.ndarray) -> np.ndarray:
    """Backward recursion V(n) = sum_k p_k qstar_w_k V_k, qstar_w_k =
    (L_k/L_n)(1 - a_tilde' d_k) as stored on surf, with V(leaf) = claim,
    one time slice at a time.

    Raises DegenerateStep when the one-step weights p_k qstar_w_k at a
    node do not sum to 1 within WEIGHT_SUM_TOL; the node named is the
    lowest id of the latest slice with such a node."""
    V = claim_at(tree, claim)
    for t in range(tree.horizon - 1, -1, -1):
        bad = []
        for s in tree.layout.steps[t]:
            i = s.ids
            w = s.probs * surf.qstar_w[s.kids]
            bad.append(i[~(np.abs(np.sum(w, axis=1) - 1.0) <= WEIGHT_SUM_TOL)])
            V[i] = (w[:, None, :] @ V[s.kids][..., None])[:, 0, 0]
        DegenerateStep.raise_lowest(bad)
    return V


def compute_pure_hedge(tree: ScenarioTree, surf: OpportunitySurface, V: np.ndarray) -> HedgePlan:
    """Pure hedge coefficient xi(n) = R R'c_sv and error term e(n) = m0
    (sum_k q_k dv_k^2 - |R'c_sv|^2) per non-terminal node, >= 0 up to a
    rounding of order eps m0 max dv_k^2, from the stored P* law q = pstar_p
    and R = c_hat_root: dv_k = V_k - sum_j q_j V_j and c_sv = sum_k q_k
    (d_k - b_sstar) dv_k.  As V is the Q* mean, they are the fit and
    residual of V_k - V_n on d_k in weights p_k L_k."""
    n = len(tree.nodes)
    xi, e = np.full((n, tree.num_assets), np.nan), np.full(n, np.nan)
    for t in range(tree.horizon):
        for s in tree.layout.steps[t]:
            i, q = s.ids, surf.pstar_p[s.kids]
            dv, R = centered_moments(q, V[s.kids][..., None])[1][..., 0], surf.c_hat_root[i]
            z = (q * dv)[:, None, :] @ (s.deltas - surf.b_sstar[i][:, None, :]) @ R   # c_sv' R
            xi[i] = (z @ R.swapaxes(1, 2))[:, 0]
            e[i] = surf.m0[i] * (np.sum(q * dv * dv, axis=1) - np.sum(z * z, axis=(1, 2)))
    return HedgePlan(V=V, xi=xi, e=e)


def compute_plan(tree: ScenarioTree, surf: OpportunitySurface, claim: np.ndarray) -> HedgePlan:
    """Convenience: mean value followed by pure hedge."""
    return compute_pure_hedge(tree, surf, compute_mean_value(tree, surf, claim))


def rollout_strategy(tree: ScenarioTree, xi, V, a, v0: float) -> tuple[np.ndarray, np.ndarray]:
    """Forward feedback rollout phi = xi - (wealth - V) a over the whole tree.

    xi, V and a are per-node arrays or constants: (plan.xi, plan.V,
    a_tilde) is the optimal strategy, (0, target, a_tilde) pure
    investment toward a constant target, (holdings, 0, 0) fixed holdings.
    Because the tree is a path tree, the wealth at a node is determined
    by its root path, so per-node holdings and wealth are well defined.
    Returns (phi, G): phi[n] is the holding chosen at node n (NaN at
    terminal nodes), G[n] the wealth on arrival at node n.  BadParameter
    unless v0 is a finite number.
    """
    n, d = len(tree.nodes), tree.num_assets
    xi, V, a = np.broadcast_to(xi, (n, d)), np.broadcast_to(V, (n,)), np.broadcast_to(a, (n, d))
    phi = np.full((n, d), np.nan)
    G = np.full(n, np.nan)
    G[0] = number(v0, "v0 must be a finite number")
    for t in range(tree.horizon):
        for s in tree.layout.steps[t]:
            i = s.ids
            phi[i] = xi[i] - (G[i] - V[i])[:, None] * a[i]
            G[s.kids] = G[i][:, None] + (s.deltas @ phi[i][..., None])[..., 0]
    return phi, G


def hedging_error(tree: ScenarioTree, surf: OpportunitySurface, plan: HedgePlan,
                  v0: float) -> HedgeReport:
    """Exact expected squared hedging error of the optimal strategy,
    total = L_0 (v0 - V_0)^2 + sum_n P(n) e(n), summed slice by slice.
    BadParameter unless v0 is a finite number."""
    v0 = number(v0, "v0 must be a finite number")
    probs = tree.node_probs()
    endowment = float(surf.L[0] * (v0 - plan.V[0]) ** 2)
    slice_error = {t: sum((probs[ids] * plan.e[ids]).tolist())
                   for t, ids in enumerate(tree.layout.slices[:-1])}
    total = sum(slice_error.values(), endowment)   # endowment first, then slice by slice
    return HedgeReport(total_error=total, endowment_term=endowment, slice_error=slice_error)


def fs_residual_check(tree: ScenarioTree, surf: OpportunitySurface, plan: HedgePlan) -> float:
    """Orthogonality residual of the decomposition V = V_0 + xi . S + M
    under the opportunity-neutral measure.

    Returns the largest absolute component over all non-terminal nodes of
    r(n) = sum_k pstar_p_k d_k ((V_k - V_n) - xi' d_k), its component j
    divided by D_j = max_k |d_kj| (1 where 0), so in the claim's units.
    """
    worst = 0.0
    for t in range(tree.horizon):
        for s in tree.layout.steps[t]:
            i = s.ids
            gains = (s.deltas @ plan.xi[i][..., None])[..., 0]
            resid = (plan.V[s.kids] - plan.V[i][:, None]) - gains
            r = (s.deltas.swapaxes(1, 2) @ (surf.pstar_p[s.kids] * resid)[..., None])[..., 0]
            D = np.max(np.abs(s.deltas), axis=1)
            worst = max(worst, float(np.max(np.abs(r / np.where(D > 0.0, D, 1.0)))))
    return worst
