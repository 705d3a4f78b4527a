"""Brute-force optimizers establishing ground truth on small trees.

These deliberately share nothing with the engine except the symmetric
pseudoinverse: the hedging problem is solved as one flat weighted least
squares over all per-node holdings, and the variance-optimal measure as
an equality-constrained QP on leaf densities.  Agreement between engine
and oracle is therefore a genuine cross check, not a tautology.  Both
read one leaf x holding matrix of price increments along each leaf's
root path, built from the stored parent and price arrays a tree level
at a time; the QP is solved in range-space form through the Schur
complement of its diagonal Hessian.  Neither reads the engine's tree
layout, which also keeps the per-node subtrees of a verify run from
building one.
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


def _increments(tree: ScenarioTree) -> np.ndarray:
    """The (n_leaves, n_inner * d) matrix whose row j holds, in the d
    columns of each ancestor i of leaf j, the price increment from i to
    the next node on the root path of leaf j.  Inner node i owns the
    columns of its rank among the inner ids; filled one level at a time."""
    d = tree.num_assets
    col = np.cumsum(tree.time < tree.horizon) - 1
    node = tree.leaves()
    rows = np.arange(len(node))
    X = np.zeros((len(node), (col[-1] + 1) * d))
    while len(node):
        up = tree.parent[node]
        keep = up >= 0
        rows, node, up = rows[keep], node[keep], up[keep]
        X[rows[:, None], col[up][:, None] * d + np.arange(d)] = tree.price[node] - tree.price[up]
        node = up
    return X


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
    X = _increments(tree)
    if free_v0:
        X = np.hstack([X, np.ones((len(X), 1))])
    w = _node_probs(tree)[tree.leaves()]
    target = np.asarray(claim.payoff, dtype=float) - (0.0 if free_v0 else float(v0))
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

    d, inner = tree.num_assets, tree.time < tree.horizon
    holdings = np.full((len(tree.nodes), d), np.nan)
    holdings[inner] = beta[:np.count_nonzero(inner) * d].reshape(-1, d)
    value = np.full(len(tree.nodes), np.nan)
    value[0] = v0_opt
    price = tree.price
    for i, up in enumerate(tree.parent.tolist()):
        if up >= 0:
            value[i] = value[up] + float((price[i] - price[up]) @ holdings[up])
    return LsqSolution(min_error=min_error, v0_opt=v0_opt, value_process=value)


def martingale_qp(tree: ScenarioTree) -> QpSolution:
    """Minimum-second-moment signed martingale density.

    minimize sum_m P(m) z_m^2
    s.t.     sum_m P(m) z_m = 1
             for every non-terminal node n and asset i:
             sum_{children k} (sum_{leaves m under k} P(m) z_m) delta_{k,i} = 0

    The Hessian is the positive diagonal 2W, W = diag(P(m)), so the
    range-space (Schur complement) form z = W^-1 A' (A W^-1 A')^+ b gives
    the W-weighted minimum-norm solution whenever the constraints are
    consistent (Nocedal & Wright, Numerical Optimization, section 16.2).
    """
    _check_size(tree)
    w = _node_probs(tree)[tree.leaves()]
    A = np.vstack([w, (_increments(tree) * w[:, None]).T])
    b = np.zeros(len(A))
    b[0] = 1.0  # unit-mass constraint
    # unit-norm constraint rows keep the constraints above the
    # pseudoinverse cutoff whatever the price unit
    norms = np.sqrt(np.einsum("ij,ij->i", A, A))
    norms[norms == 0.0] = 1.0
    A /= norms[:, None]
    b /= norms
    B = A / np.sqrt(w)
    z = (A.T @ (pinv_psd(B @ B.T) @ b)) / w
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
