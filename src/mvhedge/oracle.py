"""Brute-force optimizers establishing ground truth on small trees.

These deliberately share nothing with the engine except the symmetric
pseudoinverse: the hedging problem is solved as one flat weighted least
squares over all per-node holdings, and the variance-optimal measure as
an equality-constrained QP on leaf densities.  Agreement between engine
and oracle is therefore a genuine cross check, not a tautology.  They
walk the stored parent, price and prob arrays in their own Python
loops, never the engine's tree layout, which also keeps the per-node
subtrees of a verify run from building one.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import Infeasible, TooLarge
from .linalg import pinv_psd
from .tree import Claim, ScenarioTree

MAX_ORACLE_LEAVES = 2000
QP_FEAS_TOL = 1e-8   # relative constraint residual above which the QP is Infeasible


@dataclass
class LsqSolution:
    min_error: float
    v0_opt: float
    value_process: np.ndarray  # wealth of the optimal strategy at each node


@dataclass
class QpSolution:
    second_moment: float
    leaf_density: np.ndarray   # signed, in leaf order


def _node_probs(tree: ScenarioTree) -> np.ndarray:
    probs = np.ones(len(tree.nodes))
    for i, (p, q) in enumerate(zip(tree.parent.tolist(), tree.prob.tolist())):
        if p >= 0:
            probs[i] = probs[p] * q
    return probs


def _path(parent: list[int], node_id: int) -> list[int]:
    """The ids on the path from the root to node_id, inclusive."""
    path = [node_id]
    while parent[path[-1]] >= 0:
        path.append(parent[path[-1]])
    return path[::-1]


def _inner(tree: ScenarioTree) -> list[int]:
    return np.flatnonzero(tree.time < tree.horizon).tolist()


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
    nonterm = _inner(tree)
    d = tree.num_assets
    col_of = {i: k for k, i in enumerate(nonterm)}
    leaves = tree.leaves()
    parent, price = tree.parent.tolist(), tree.price
    n_cols = len(nonterm) * d + (1 if free_v0 else 0)
    X = np.zeros((len(leaves), n_cols))
    probs = _node_probs(tree)
    w = probs[leaves]
    target = np.asarray(claim.payoff, dtype=float).copy()
    for r, leaf in enumerate(leaves.tolist()):
        path = _path(parent, leaf)
        for up, child in zip(path, path[1:]):
            c = col_of[up] * d
            X[r, c:c + d] = price[child] - price[up]
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
    holdings[nonterm] = beta[:len(nonterm) * d].reshape(-1, d)
    value = np.full(len(tree.nodes), np.nan)
    value[0] = v0_opt
    for i, up in enumerate(parent):
        if up >= 0:
            value[i] = value[up] + float((price[i] - price[up]) @ holdings[up])
    return LsqSolution(min_error=min_error, v0_opt=v0_opt, value_process=value)


def martingale_qp(tree: ScenarioTree) -> QpSolution:
    """Minimum-second-moment signed martingale density via its KKT system.

    minimize sum_m P(m) z_m^2
    s.t.     sum_m P(m) z_m = 1
             for every non-terminal node n and asset i:
             sum_{children k} (sum_{leaves m under k} P(m) z_m) delta_{k,i} = 0
    """
    _check_size(tree)
    leaves = tree.leaves()
    probs = _node_probs(tree)
    w = probs[leaves]
    d = tree.num_assets
    row_of = {i: 1 + k * d for k, i in enumerate(_inner(tree))}
    parent, price = tree.parent.tolist(), tree.price
    A = np.zeros((1 + len(row_of) * d, len(leaves)))
    b = np.zeros(len(A))
    A[0], b[0] = w, 1.0  # unit-mass constraint
    for j, m in enumerate(leaves.tolist()):
        path = _path(parent, m)
        for up, child in zip(path, path[1:]):
            r = row_of[up]
            A[r:r + d, j] += probs[m] * (price[child] - price[up])
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
    if violation > QP_FEAS_TOL * max(1.0, np.max(np.abs(b))):
        raise Infeasible(f"martingale constraints inconsistent (residual {violation:.3e})")
    return QpSolution(second_moment=float(w @ (z * z)), leaf_density=z)


def subtree_at(tree: ScenarioTree, node_id: int) -> tuple[ScenarioTree, np.ndarray]:
    """Extract the subtree rooted at node_id as a standalone tree with
    conditional probabilities; returns (subtree, ids), where node j of
    the subtree is node ids[j] of the tree.  By the ordering contract
    the descendants in each later time slice are one id range: the
    nodes whose parents lie in the range before."""
    ranges = []
    lo, hi = node_id, node_id + 1
    while lo < hi:
        ranges.append(np.arange(lo, hi))
        lo, hi = np.searchsorted(tree.parent, [lo, hi]).tolist()
    ids = np.concatenate(ranges)
    parent = np.searchsorted(ids, tree.parent[ids])
    parent[0] = -1
    prob = tree.prob[ids]
    prob[0] = 1.0
    base_time = int(tree.time[node_id])
    sub = ScenarioTree(
        num_assets=tree.num_assets,
        horizon=tree.horizon - base_time,
        parent=parent,
        time=tree.time[ids] - base_time,
        price=tree.price[ids],
        regime=tree.regime[ids],
        prob=prob,
    )
    return sub, ids


def node_conditional_check(tree: ScenarioTree, node_id: int) -> float:
    """Conditional minimal squared error of hedging the constant payoff 1
    with zero endowment, starting at node_id; equals the opportunity
    process there.  Leaves trivially give 1."""
    if tree.time[node_id] == tree.horizon:
        return 1.0
    sub, _ = subtree_at(tree, node_id)
    ones = Claim(payoff=np.ones(len(sub.leaves())))
    return lsq_projection(sub, ones, v0=0.0).min_error


def max_sharpe(tree: ScenarioTree, node_id: int = 0) -> float:
    """Brute-force maximal conditional Sharpe ratio over the remaining
    periods, read off the least-squares solution for the constant claim:
    the optimal terminal wealth X maximizes E[X]/std(X)."""
    if tree.time[node_id] == tree.horizon:
        return 0.0
    sub, _ = subtree_at(tree, node_id)
    leaves = sub.leaves()
    ones = Claim(payoff=np.ones(len(leaves)))
    sol = lsq_projection(sub, ones, v0=0.0)
    x = sol.value_process[leaves]
    w = _node_probs(sub)[leaves]
    mean = float(w @ x)
    var = float(w @ (x * x)) - mean * mean
    if var <= 1e-24:
        return 0.0
    return mean / np.sqrt(var)
