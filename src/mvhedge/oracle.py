"""Brute-force optimizers establishing ground truth on small trees.

These deliberately share nothing with the engine except the symmetric
pseudoinverse: the hedging problem is solved as one flat weighted least
squares over all per-node holdings, and the variance-optimal measure as
an equality-constrained QP on leaf densities.  Agreement between engine
and oracle is therefore a genuine cross check, not a tautology.
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


def _check_size(tree: ScenarioTree) -> None:
    n_leaves = len(tree.leaves())
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
    nonterm = tree.nonterminal()
    d = tree.num_assets
    col_of = {node.id: k for k, node in enumerate(nonterm)}
    leaves = tree.leaves()
    n_cols = len(nonterm) * d + (1 if free_v0 else 0)
    X = np.zeros((len(leaves), n_cols))
    probs = tree.node_probs()
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
    normal = (X.T * w) @ X
    rhs = X.T @ (w * target)
    beta = pinv_psd(normal) @ rhs
    resid = X @ beta - target
    min_error = float(w @ (resid * resid))
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
    leaves = tree.leaves()
    probs = tree.node_probs()
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

    rows = [w]  # unit-mass constraint
    rhs = [1.0]
    for node in tree.nonterminal():
        _, _, deltas = tree.step(node)
        for i in range(tree.num_assets):
            row = np.zeros(len(leaves))
            for (cid, _), delta in zip(node.children, deltas):
                for m in leaves_under(cid):
                    row[leaf_col[m]] += probs[m] * delta[i]
            rows.append(row)
            rhs.append(0.0)
    A = np.array(rows)
    b = np.array(rhs)
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
    ones = Claim(payoff=np.ones(len(sub.leaves())))
    return lsq_projection(sub, ones, v0=0.0).min_error


def max_sharpe(tree: ScenarioTree, node_id: int = 0) -> float:
    """Brute-force maximal conditional Sharpe ratio over the remaining
    periods, read off the least-squares solution for the constant claim:
    the optimal terminal wealth X maximizes E[X]/std(X)."""
    node = tree.nodes[node_id]
    if not node.children:
        return 0.0
    sub, _ = subtree_at(tree, node_id)
    ones = Claim(payoff=np.ones(len(sub.leaves())))
    sol = lsq_projection(sub, ones, v0=0.0)
    probs = sub.node_probs()
    x = np.array([sol.value_process[leaf.id] for leaf in sub.leaves()])
    w = np.array([probs[leaf.id] for leaf in sub.leaves()])
    mean = float(w @ x)
    var = float(w @ (x * x)) - mean * mean
    if var <= 1e-24:
        return 0.0
    return mean / np.sqrt(var)
