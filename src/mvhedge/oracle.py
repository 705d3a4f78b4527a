"""Brute-force optimizers establishing ground truth on small trees.

These deliberately share nothing with the engine except the symmetric
pseudoinverse: the hedging problem is solved as one flat weighted least
squares over all per-node holdings, and the variance-optimal measure as
an equality-constrained QP on leaf densities.  Agreement between engine
and oracle is therefore a genuine cross check, not a tautology.  They
read the Node objects directly, never the engine's tree layout, which
also keeps the per-node subtrees of a verify run from building one.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import Infeasible, TooLarge
from .linalg import pinv_psd
from .tree import Claim, ScenarioTree

MAX_ORACLE_LEAVES = 2000


@dataclass
class LsqSolution:
    min_error: float
    v0_opt: float
    value_process: np.ndarray  # wealth of the optimal strategy at each node
    holdings: np.ndarray       # (n, d) minimum-norm holdings, NaN at terminals


@dataclass
class QpSolution:
    second_moment: float
    leaf_density: np.ndarray   # signed, in leaf order


def _leaves(tree: ScenarioTree) -> list:
    return [n for n in tree.nodes if n.time == tree.horizon]


def _nonterminal(tree: ScenarioTree) -> list:
    return [n for n in tree.nodes if n.time < tree.horizon]


def _node_probs(tree: ScenarioTree) -> np.ndarray:
    probs = np.zeros(len(tree.nodes))
    probs[0] = 1.0
    for n in tree.nodes:
        for cid, p in n.children:
            probs[cid] = probs[n.id] * p
    return probs


def _check_size(tree: ScenarioTree) -> None:
    n_leaves = len(_leaves(tree))
    if n_leaves > MAX_ORACLE_LEAVES:
        raise TooLarge(f"{n_leaves} leaves exceeds the oracle bound {MAX_ORACLE_LEAVES}")


def lsq_projection(tree: ScenarioTree, claim: Claim, v0: float | str = "free") -> LsqSolution:
    """Minimize E[(v0 + gains_T - H)^2] over all per-node holdings.

    Decision variables are the d holdings at every non-terminal node
    (plus v0 when free); the terminal wealth on each leaf is linear in
    them, so the optimum is a weighted least squares solved by normal
    equations with the PSD pseudoinverse (minimum-norm representative).
    """
    _check_size(tree)
    free_v0 = isinstance(v0, str)
    nonterm = _nonterminal(tree)
    d = tree.num_assets
    col_of = {node.id: k for k, node in enumerate(nonterm)}
    leaves = _leaves(tree)
    n_cols = len(nonterm) * d + (1 if free_v0 else 0)
    X = np.zeros((len(leaves), n_cols))
    probs = _node_probs(tree)
    w = np.array([probs[leaf.id] for leaf in leaves])
    target = np.asarray(claim.payoff, dtype=float).copy()
    for r, leaf in enumerate(leaves):
        path = tree.path_nodes(leaf.id)
        for parent, child in zip(path, path[1:]):
            delta = tree.increment(parent, child)
            c = col_of[parent] * d
            X[r, c:c + d] = delta
        if free_v0:
            X[r, -1] = 1.0
    if not free_v0:
        target -= float(v0)
    # with unit-norm columns the pseudoinverse cutoff, relative to the
    # largest eigenvalue, no longer depends on the price unit: the v0
    # column (scale 1) and the holding columns (scale of the prices)
    # are weighed alike
    norms = np.sqrt(np.einsum("ij,ij->j", X, X))
    norms[norms == 0.0] = 1.0
    X /= norms
    normal = (X.T * w) @ X
    rhs = X.T @ (w * target)
    beta = pinv_psd(normal) @ rhs
    resid = X @ beta - target
    min_error = float(w @ (resid * resid))
    beta /= norms
    v0_opt = float(beta[-1]) if free_v0 else float(v0)

    holdings = np.full((len(tree.nodes), d), np.nan)
    for node in nonterm:
        c = col_of[node.id] * d
        holdings[node.id] = beta[c:c + d]
    value = np.full(len(tree.nodes), np.nan)
    value[0] = v0_opt
    for node in nonterm:
        for cid, _ in node.children:
            gain = float(tree.increment(node.id, cid) @ holdings[node.id])
            value[cid] = value[node.id] + gain
    return LsqSolution(
        min_error=min_error,
        v0_opt=v0_opt,
        value_process=value,
        holdings=holdings,
    )


def martingale_qp(tree: ScenarioTree, feas_tol: float = 1e-8) -> QpSolution:
    """Minimum-second-moment signed martingale density via its KKT system.

    minimize sum_m P(m) z_m^2
    s.t.     sum_m P(m) z_m = 1
             for every non-terminal node n and asset i:
             sum_{children k} (sum_{leaves m under k} P(m) z_m) delta_{k,i} = 0
    """
    _check_size(tree)
    leaves = _leaves(tree)
    probs = _node_probs(tree)
    w = np.array([probs[leaf.id] for leaf in leaves])
    leaf_col = {leaf.id: j for j, leaf in enumerate(leaves)}

    under: dict[int, list[int]] = {}

    def leaves_under(node_id: int) -> list[int]:
        if node_id not in under:
            node = tree.nodes[node_id]
            if not node.children:
                under[node_id] = [node_id]
            else:
                acc: list[int] = []
                for cid, _ in node.children:
                    acc.extend(leaves_under(cid))
                under[node_id] = acc
        return under[node_id]

    nonterm = _nonterminal(tree)
    A = np.zeros((1 + len(nonterm) * tree.num_assets, len(leaves)))
    b = np.zeros(len(A))
    A[0], b[0] = w, 1.0  # unit-mass constraint
    r = 1
    for node in nonterm:
        deltas = [tree.increment(node.id, cid) for cid, _ in node.children]
        for i in range(tree.num_assets):
            for (cid, _), delta in zip(node.children, deltas):
                for m in leaves_under(cid):
                    A[r, leaf_col[m]] += probs[m] * delta[i]
            r += 1
    # unit-norm constraint rows keep the constraints above the
    # pseudoinverse cutoff whatever the price unit
    norms = np.sqrt(np.einsum("ij,ij->i", A, A))
    norms[norms == 0.0] = 1.0
    A /= norms[:, None]
    b /= norms
    n_z, n_c = len(leaves), len(b)
    kkt = np.zeros((n_z + n_c, n_z + n_c))
    kkt[:n_z, :n_z] = 2.0 * np.diag(w)
    kkt[:n_z, n_z:] = A.T
    kkt[n_z:, :n_z] = A
    sol = pinv_psd(kkt) @ np.concatenate([np.zeros(n_z), b])
    z = sol[:n_z]
    violation = np.max(np.abs(A @ z - b))
    if violation > feas_tol * max(1.0, np.max(np.abs(b))):
        raise Infeasible(f"martingale constraints inconsistent (residual {violation:.3e})")
    return QpSolution(second_moment=float(w @ (z * z)), leaf_density=z)


def subtree_at(tree: ScenarioTree, node_id: int) -> tuple[ScenarioTree, dict[int, int]]:
    """Extract the subtree rooted at node_id as a standalone tree with
    conditional probabilities; returns (subtree, old id -> new id map)."""
    from .tree import Node

    order = []
    stack = [node_id]
    while stack:
        i = stack.pop(0)
        order.append(i)
        stack.extend(cid for cid, _ in tree.nodes[i].children)
    order.sort(key=lambda i: (tree.nodes[i].time, i))
    remap = {old: new for new, old in enumerate(order)}
    base_time = tree.nodes[node_id].time
    nodes = []
    for old in order:
        src = tree.nodes[old]
        nodes.append(Node(
            id=remap[old],
            time=src.time - base_time,
            price=src.price.copy(),
            parent=None if old == node_id else remap[src.parent],
            children=[(remap[c], p) for c, p in src.children],
            regime=src.regime,
        ))
    sub = ScenarioTree(
        num_assets=tree.num_assets,
        horizon=tree.horizon - base_time,
        nodes=nodes,
    )
    return sub, remap


def node_conditional_check(tree: ScenarioTree, node_id: int) -> float:
    """Conditional minimal squared error of hedging the constant payoff 1
    with zero endowment, starting at node_id; equals the opportunity
    process there.  Leaves trivially give 1."""
    node = tree.nodes[node_id]
    if not node.children:
        return 1.0
    sub, _ = subtree_at(tree, node_id)
    ones = Claim(payoff=np.ones(len(_leaves(sub))))
    return lsq_projection(sub, ones, v0=0.0).min_error


def max_sharpe(tree: ScenarioTree, node_id: int = 0) -> float:
    """Brute-force maximal conditional Sharpe ratio over the remaining
    periods, read off the least-squares solution for the constant claim:
    the optimal terminal wealth X maximizes E[X]/std(X)."""
    node = tree.nodes[node_id]
    if not node.children:
        return 0.0
    sub, _ = subtree_at(tree, node_id)
    leaves = _leaves(sub)
    ones = Claim(payoff=np.ones(len(leaves)))
    sol = lsq_projection(sub, ones, v0=0.0)
    probs = _node_probs(sub)
    x = np.array([sol.value_process[leaf.id] for leaf in leaves])
    w = np.array([probs[leaf.id] for leaf in leaves])
    mean = float(w @ x)
    var = float(w @ (x * x)) - mean * mean
    if var <= 1e-24:
        return 0.0
    return mean / np.sqrt(var)
