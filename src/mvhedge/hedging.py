"""Mean value process, pure hedge, feedback strategy, and exact error.

The mean value process V is the claim's conditional "price" under the
variance-optimal signed measure, computed backward with the one-step
weights p_k (L_k/L_n)(1 - a_tilde' d_k); these sum to 1 at every node, a
consequence of the opportunity recursion that is checked, not assumed.
The pure hedge coefficient xi regresses V-increments on price increments
in the L-weighted one-step geometry, and the optimal strategy corrects
xi by the running surplus: phi = xi - (wealth - V) a_tilde.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateStep
from .linalg import pinv_psd
from .opportunity import OpportunitySurface
from .tree import Claim, ScenarioTree, claim_at

WEIGHT_SUM_TOL = 1e-9


@dataclass
class HedgePlan:
    """Per-node mean value V and pure hedge coefficient xi.

    dbar_u(n) = sum_k p_k L_k d_k (V_k - V_n) is the weighted
    price/value cross moment feeding both xi and the error term."""

    V: np.ndarray         # (n,)
    xi: np.ndarray        # (n, d), NaN at terminal nodes
    dbar_u: np.ndarray    # (n, d), NaN at terminal nodes

    @property
    def v0(self) -> float:
        return float(self.V[0])


@dataclass
class HedgeReport:
    """Exact expected squared hedging error and its decomposition."""

    v0_used: float
    total_error: float
    endowment_term: float
    e: np.ndarray                      # per-node conditional residual term
    slice_error: dict[int, float] = field(default_factory=dict)


def compute_mean_value(tree: ScenarioTree, surf: OpportunitySurface, claim: Claim) -> np.ndarray:
    """Backward recursion V(n) = sum_k p_k (L_k/L_n)(1 - a_tilde' d_k) V_k
    with V(leaf) = payoff.

    Raises DegenerateStep when the one-step weights at a node do not sum
    to 1 within WEIGHT_SUM_TOL."""
    V = claim_at(tree, claim)
    for t in range(tree.horizon - 1, -1, -1):
        for node in tree.nodes_at(t):
            i = node.id
            kids, probs, deltas = tree.step(node)
            w = probs * (surf.L[kids] / surf.L[i]) * (1.0 - deltas @ surf.a_tilde[i])
            if not abs(float(np.sum(w)) - 1.0) <= WEIGHT_SUM_TOL:
                raise DegenerateStep(i)
            V[i] = float(w @ V[kids])
    return V


def compute_pure_hedge(tree: ScenarioTree, surf: OpportunitySurface, V: np.ndarray) -> HedgePlan:
    """Pure hedge coefficient xi(n) = cbar_u^+ dbar_u per non-terminal node."""
    n = len(tree.nodes)
    d = tree.num_assets
    xi = np.full((n, d), np.nan)
    dbar_u = np.full((n, d), np.nan)
    nonterminal = tree.nonterminal()
    for node in nonterminal:
        i = node.id
        kids, probs, deltas = tree.step(node)
        dbar_u[i] = deltas.T @ (probs * surf.L[kids] * (V[kids] - V[i]))
    ids = [node.id for node in nonterminal]
    xi[ids] = (pinv_psd(surf.cbar_u[ids]) @ dbar_u[ids][..., None])[..., 0]
    return HedgePlan(V=V, xi=xi, dbar_u=dbar_u)


def compute_plan(tree: ScenarioTree, surf: OpportunitySurface, claim: Claim) -> HedgePlan:
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
    terminal nodes), G[n] the wealth on arrival at node n.
    """
    n, d = len(tree.nodes), tree.num_assets
    xi, V, a = np.broadcast_to(xi, (n, d)), np.broadcast_to(V, (n,)), np.broadcast_to(a, (n, d))
    phi = np.full((n, d), np.nan)
    G = np.full(n, np.nan)
    G[0] = v0
    for node in tree.nonterminal():
        i = node.id
        phi[i] = xi[i] - (G[i] - V[i]) * a[i]
        kids, _, deltas = tree.step(node)
        G[kids] = G[i] + deltas @ phi[i]
    return phi, G


def hedging_error(tree: ScenarioTree, surf: OpportunitySurface, plan: HedgePlan,
                  v0: float) -> HedgeReport:
    """Exact expected squared hedging error of the optimal strategy.

    e(n) = sum_k p_k L_k (V_k - V_n)^2 - dbar_u' cbar_u^+ dbar_u >= 0,
    total = L_0 (v0 - V_0)^2 + sum_n P(n) e(n).
    """
    n = len(tree.nodes)
    e = np.full(n, np.nan)
    for node in tree.nonterminal():
        i = node.id
        kids, probs, _ = tree.step(node)
        dv = plan.V[kids] - plan.V[i]
        e[i] = float(probs * surf.L[kids] @ (dv * dv)) - float(plan.dbar_u[i] @ plan.xi[i])
    probs = tree.node_probs()
    endowment = float(surf.L[0] * (v0 - plan.V[0]) ** 2)
    slice_error: dict[int, float] = {}
    total = endowment
    for t in range(tree.horizon):
        s = sum(float(probs[node.id] * e[node.id]) for node in tree.nodes_at(t))
        slice_error[t] = s
        total += s
    return HedgeReport(
        v0_used=v0,
        total_error=total,
        endowment_term=endowment,
        e=e,
        slice_error=slice_error,
    )


def fs_residual_check(tree: ScenarioTree, surf: OpportunitySurface, plan: HedgePlan) -> float:
    """Orthogonality residual of the decomposition V = V_0 + xi . S + M
    under the opportunity-neutral measure.

    Returns the largest absolute component over all non-terminal nodes of
    r(n) = sum_k pstar_k d_k ((V_k - V_n) - xi' d_k).
    """
    worst = 0.0
    for node in tree.nonterminal():
        i = node.id
        kids, probs, deltas = tree.step(node)
        pstar = probs * surf.L[kids] / surf.m0[i]
        resid = (plan.V[kids] - plan.V[i]) - deltas @ plan.xi[i]
        r = deltas.T @ (pstar * resid)
        worst = max(worst, float(np.max(np.abs(r))))
    return worst
