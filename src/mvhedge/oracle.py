"""Brute-force optimizers establishing ground truth on small trees.

These deliberately share nothing with the engine except the symmetric
pseudoinverse: the hedging problem is solved as one flat weighted least
squares over all per-node holdings, and the variance-optimal measure as
an equality-constrained QP on leaf densities.  Agreement between engine
and oracle is therefore a genuine cross check, not a tautology.  Both
read the sqrt(P)-weighted leaf x holding matrix of price increments
along each leaf's path, path-sparse (a row is nonzero only in its
ancestors' columns), built a tree level at a time from the parent,
price and prob arrays; its normal matrix G is one bincount and the only
one.  One solve of G for the cash column and the claim together serves
the least squares, with free endowment or, along the cash column's
solution, a fixed one, the QP (in range-space form, through the Schur
complement of its diagonal Hessian) and the root's conditional check
(the Schur complement of the cash column).  Every other node's check,
the root's least squares restricted to the node's subtree, solves G's
block on the subtree's holdings, the subtrees of one slice and shape as
one stack.  G and its blocks are solved directly where a shifted
Cholesky factor of G certifies that the pseudoinverse would truncate
nothing, else through it.  The oracles rely on validate_tree's ordering
contract, not the tree layout.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import Infeasible, TooLarge
from .linalg import pinv_psd
from .tree import ScenarioTree

MAX_ORACLE_LEAVES = 2000
QP_FEAS_TOL = 1e-8   # relative constraint residual above which the QP is Infeasible
# tau / (n r) of _certify, at least twice linalg.EIG_TRUNCATION: as r >= lambda_max,
# the Cholesky factor of G - tau I proves lambda_min(G) > tau less its backward error,
# about n u r (Higham, Accuracy and Stability of Numerical Algorithms, section 10.1),
# so above pinv_psd's cutoff n EIG_TRUNCATION max|lambda|
_CERTIFY = 1e-11


@dataclass
class LsqSolution:
    min_error: float
    v0_opt: float
    value_process: np.ndarray  # wealth of the optimal strategy at each node


@dataclass
class QpSolution:
    second_moment: float
    leaf_density: np.ndarray   # signed, in leaf order


@dataclass
class _Factor:
    """Y (n_leaves, m) with unit columns, path-sparse: row j of Y is vals[j] in
    columns cols[j] (n_leaves, q), else 0, cash last; sqrt(w), the column norms,
    G = Y'Y and whether _certify certified it, and so each principal block."""
    cols: np.ndarray
    vals: np.ndarray
    sw: np.ndarray
    norms: np.ndarray
    gram: np.ndarray
    certified: bool
    cash_sol: np.ndarray | None = None   # G^+ e_c, c the cash column
    claim_sol: tuple = (None, None)      # (claim, G^+ Y' sqrt(w) H)

    def Yt(self, t: np.ndarray) -> np.ndarray:
        """Y't (m,), t (n_leaves,)."""
        return np.bincount(self.cols.ravel(), (self.vals * t[:, None]).ravel(), len(self.norms))

    def Yx(self, x: np.ndarray) -> np.ndarray:
        """Y x (n_leaves,), x (m,)."""
        return np.einsum("jq,jq->j", self.vals, x[self.cols])


def _certify(G: np.ndarray) -> bool:
    """Whether each G of the stack less tau = _CERTIFY n r times I, with r the
    largest row sum of |G|, has a Cholesky factor, so that pinv_psd(G) would
    truncate nothing and G^+ = G^-1 (see _CERTIFY).  It certifies every
    principal block of G too: by Cauchy interlacing a block's smallest
    eigenvalue is at least G's, and its n and r, so its tau, at most G's."""
    n = G.shape[-1]
    tau = _CERTIFY * n * np.abs(G).sum(axis=-1).max(axis=-1, initial=0.0)
    shifted = G.copy()
    shifted[..., range(n), range(n)] -= tau[..., None]
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return bool(np.all(np.isfinite(tau)))


def _solve(G: np.ndarray, rhs: np.ndarray, certified: bool) -> np.ndarray:
    """G^+ rhs, for a stack of G too: directly for (blocks of) a certified G."""
    return np.linalg.solve(G, rhs) if certified else pinv_psd(G) @ rhs


def root_factor(tree: ScenarioTree, claim: np.ndarray | None = None) -> _Factor:
    """The _Factor of Y = sqrt(w) X for the whole tree, and one solve of
    G x = [e_c, Y' sqrt(w) H] for the root oracles and lsq_projection of
    claim, the payoff array H.

    Row j of X (n_leaves, m) holds, in the d columns of block a of the
    ancestor a of leaf j (by the ordering contract inner nodes come
    first), the price increment from a to the next node on the path to
    leaf j, q = horizon * d + 1 entries, and a last column of ones.  w is
    each leaf's probability, a product taken leaf first on the same
    ancestor walk that fills X.  Y's columns are scaled to unit norm (a
    zero column keeps norm 1), so the certificate and the pseudoinverse
    cutoff, relative to the largest eigenvalue, do not depend on the
    price unit: cash (scale 1) and holdings (prices) weigh alike.  The
    norms and G are bincounts."""
    node = tree.leaves()
    if len(node) > MAX_ORACLE_LEAVES:
        raise TooLarge(f"{len(node)} leaves exceeds the oracle bound {MAX_ORACLE_LEAVES}")
    d = tree.num_assets
    m = node[0] * d + 1   # the inner nodes are the ids below the first leaf
    cols = np.full((len(node), tree.horizon * d + 1), m - 1)   # cash last
    vals = np.ones(cols.shape)
    w = np.ones(len(node))
    for level in range(tree.horizon - 1, -1, -1):
        up, at = tree.parent[node], slice(level * d, (level + 1) * d)
        cols[:, at] = up[:, None] * d + np.arange(d)
        vals[:, at] = tree.price[node] - tree.price[up]
        w *= tree.prob[node]
        node = up
    sw = np.sqrt(w)
    vals *= sw[:, None]
    norms = np.sqrt(np.bincount(cols.ravel(), (vals * vals).ravel(), m))
    norms[norms == 0.0] = 1.0
    vals /= norms[cols]
    gram = np.bincount((cols[:, :, None] * m + cols[:, None, :]).ravel(),
                       (vals[:, :, None] * vals[:, None, :]).ravel(), m * m).reshape(m, m)
    f = _Factor(cols, vals, sw, norms, gram, _certify(gram))
    rhs = [np.eye(1, m, m - 1)[0]] + ([] if claim is None else [f.Yt(sw * claim)])
    sol = _solve(gram, np.stack(rhs, axis=-1), f.certified)
    f.cash_sol, f.claim_sol = sol[:, 0], (claim, None if claim is None else sol[:, 1])
    return f


def lsq_projection(tree: ScenarioTree, claim: np.ndarray, v0: float | str = "free",
                   root: _Factor | None = None) -> LsqSolution:
    """Minimize E[(v0 + gains_T - H)^2] over per-node holdings, H the payoff array claim.

    The terminal wealth on each leaf is linear in v0 and the d holdings
    at every non-terminal node: a least squares in the sqrt(P)-weighted
    space, x = G^+ Y' sqrt(w) H on root's G, read off root's solution for
    the same claim object.  A fixed v0 moves x along y = G^+ e_c to the
    cash coefficient v0 n_c (n_c the cash norm): x + (v0 n_c - x_c) / y_c y,
    in range(G) and so of minimum norm, as no null vector of G has a cash
    entry (a riskless profit, which the engine rejects as degenerate).
    """
    f = root or root_factor(tree, claim)
    target = f.sw * claim
    beta = f.claim_sol[1] if f.claim_sol[0] is claim else _solve(f.gram, f.Yt(target), f.certified)
    if not isinstance(v0, str):
        beta = beta + (v0 * f.norms[-1] - beta[-1]) / f.cash_sol[-1] * f.cash_sol
    resid = f.Yx(beta) - target
    beta = beta / f.norms
    v0_opt = float(beta[-1]) if isinstance(v0, str) else float(v0)
    # at the root, inner node a owns column block a
    bounds = np.searchsorted(tree.time, np.arange(tree.horizon + 2))
    holdings = beta[:bounds[-2] * tree.num_assets].reshape(-1, tree.num_assets)
    value = np.full(len(tree.parent), v0_opt)
    for lo, hi in zip(bounds[1:-1].tolist(), bounds[2:].tolist()):
        up = tree.parent[lo:hi]
        value[lo:hi] = value[up] + np.einsum(
            "ij,ij->i", tree.price[lo:hi] - tree.price[up], holdings[up])
    return LsqSolution(min_error=float(resid @ resid), v0_opt=v0_opt, value_process=value)


def martingale_qp(tree: ScenarioTree, root: _Factor | None = None) -> QpSolution:
    """Minimum-second-moment signed martingale density.

    minimize sum_m P(m) z_m^2
    s.t.     sum_m P(m) z_m = 1
             for every non-terminal node n and asset i:
             sum_{children k} (sum_{leaves m under k} P(m) z_m) delta_{k,i} = 0

    In u = sqrt(P) z this is: minimize |u|^2 subject to B'u = b, where the
    columns of B = sqrt(P) [X, 1] are the constraints, the Y of root.  The
    Hessian of the original problem is the positive diagonal 2 diag(P),
    so the range-space (Schur complement) form u = B (B'B)^+ b gives the
    P-weighted minimum-norm density whenever the constraints are
    consistent (Nocedal & Wright, Numerical Optimization, section 16.2);
    b is a multiple of the cash unit vector, so (B'B)^+ b is cash_sol's.
    """
    f = root or root_factor(tree)
    b = np.zeros(len(f.norms))
    b[-1] = 1.0 / f.norms[-1]  # unit-mass constraint, for the scaled cash column
    u = f.Yx(f.cash_sol * b[-1])
    violation = np.max(np.abs(f.Yt(u) - b))
    if violation > QP_FEAS_TOL * max(1.0, np.max(np.abs(b))):
        raise Infeasible(f"martingale constraints inconsistent (residual {violation:.3e})")
    return QpSolution(second_moment=float(u @ u), leaf_density=u / f.sw)


def node_conditional_check(tree: ScenarioTree, root: _Factor | None = None) -> np.ndarray:
    """Conditional minimal squared error of hedging the constant payoff 1
    with zero endowment, starting at each node; equals the opportunity
    process.  Leaves trivially give 1.  At the root it is 1 / G^+[c, c],
    the Schur complement of root's unit cash column c, also for a
    rank-deficient G.  Elsewhere the least squares is root's, restricted to
    the node's leaves and the holdings of its inner subtree nodes, so it is
    1 - g' G_nn^+ g / P(n), G_nn the block of G on those holdings, g the
    block's column of Y' sqrt(w) and P(n) the node's leaf mass.  By the
    ordering contract a node's descendants at each depth are one id range,
    found by searchsorted on parent.  The subtrees of a later slice with
    the same node count at every depth are solved as one stack."""
    sq = np.ones(len(tree.parent))
    if not tree.horizon:  # root_factor checks the size; a 0-period tree has one leaf
        return sq
    f = root or root_factor(tree)
    sq[0] = 1.0 / f.cash_sol[-1]
    d, bounds = tree.num_assets, np.searchsorted(tree.time, np.arange(tree.horizon + 2))
    for t in range(1, tree.horizon):
        lo = np.arange(bounds[t], bounds[t + 1])
        ranges = [np.stack([lo, lo + 1])]   # per depth, each node's descendant id range
        for _ in range(tree.horizon - t):
            ranges.append(np.searchsorted(tree.parent, ranges[-1]))
        first, end = np.transpose(ranges, (1, 2, 0))
        shapes, group = np.unique(end - first, axis=0, return_inverse=True)
        for k, counts in enumerate(shapes):
            members = np.flatnonzero(group == k)
            ids = [first[members, level, None] + np.arange(c) for level, c in enumerate(counts)]
            cols = (np.hstack(ids[:-1])[..., None] * d + np.arange(d)).reshape(len(members), -1)
            g = f.gram[cols, -1] * f.norms[-1]
            quad = np.einsum("ij,ij->i", g, _solve(
                f.gram[cols[..., None], cols[:, None]], g[..., None], f.certified)[..., 0])
            sq[lo[members]] = 1.0 - quad / np.sum(f.sw[ids[-1] - bounds[-2]] ** 2, axis=1)
    return sq


def max_sharpe(tree: ScenarioTree) -> np.ndarray:
    """Brute-force maximal conditional Sharpe ratio over the remaining
    periods at each node, read off the least-squares solution for the
    constant claim: the optimal terminal wealth x = 1 + r / sqrt(w)
    maximizes E[x]/std(x), with E[x] = 1 + sum sqrt(w) r and
    var(x) = sum r^2 - (sum sqrt(w) r)^2, where sum sqrt(w) r = -sum r^2,
    as r is orthogonal to Y and sqrt(w) has unit norm.  Leaves give 0."""
    sq = node_conditional_check(tree)
    var = sq - sq * sq
    return np.divide(1.0 - sq, np.sqrt(np.maximum(var, 1e-24)),
                     out=np.zeros(len(sq)), where=var > 1e-24)
