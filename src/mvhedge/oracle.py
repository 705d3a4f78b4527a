"""Brute-force optimizers establishing ground truth on small trees.

These deliberately share nothing with the engine except the symmetric
pseudoinverse: the hedging problem is solved as one flat weighted least
squares over all per-node holdings, and the variance-optimal measure as
an equality-constrained QP on leaf densities.  Agreement between engine
and oracle is therefore a genuine cross check, not a tautology.  Both
read the sqrt(P)-weighted leaf x holding matrix of price increments
along each leaf's path, path-sparse (a row is nonzero only in its
ancestors' columns), built a tree level at a time from the parent,
price and prob arrays; its normal matrix is one bincount.  One factor of
the whole tree's normal matrix, with one solve for the cash column and
the claim together, serves the least squares with free endowment, the
QP (in range-space form, through the Schur complement of its diagonal
Hessian) and the root's conditional check (the Schur complement of the
cash column); every other node's check re-solves the least squares on
its subtree, the subtrees of one slice and shape as one stack.  A normal
matrix is solved directly where a shifted Cholesky factor certifies
that the pseudoinverse would truncate nothing, else through it.  The
oracles rely on validate_tree's ordering contract, not the tree layout.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import Infeasible, TooLarge
from .linalg import pinv_psd
from .tree import Claim, ScenarioTree

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
    """Y (k, n_leaves, m) with unit columns, path-sparse: row j of Y[i] is vals[i, j]
    in columns cols[i, j] (k, n_leaves, q), else 0; sqrt(w), the column norms and,
    as _certify returns them, each G = Y'Y or pinv_psd(G) and whether G^+ = G^-1."""
    cols: np.ndarray
    vals: np.ndarray
    sw: np.ndarray
    norms: np.ndarray
    gram: np.ndarray
    certified: bool
    cash_sol: np.ndarray | None = None   # root_factor's G^+ e_c, c the cash column
    claim_sol: tuple = (None, None)      # root_factor's (claim, G^+ Y' sqrt(w) H)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """G^+ rhs for each G of the stack, rhs (k, m, r)."""
        return np.linalg.solve(self.gram, rhs) if self.certified else self.gram @ rhs

    def Yt(self, t: np.ndarray) -> np.ndarray:
        """Y't (k, m) for each Y of the stack, t (k, n_leaves)."""
        return _sum_at(self.cols, self.vals * t[..., None], self.norms.shape[1])

    def Yx(self, x: np.ndarray) -> np.ndarray:
        """Y x (k, n_leaves) for each Y of the stack, x (k, m)."""
        return np.einsum("ijq,ijq->ij", self.vals, np.take_along_axis(x[:, None], self.cols, 2))

    def lsq(self, target: np.ndarray, beta=None) -> tuple[np.ndarray, np.ndarray]:
        """Min-norm least squares on each Y: (beta / norms, Y beta - target), beta = G^+ Y't."""
        beta = self.solve(self.Yt(target)[..., None])[..., 0] if beta is None else beta
        return beta / self.norms, self.Yx(beta) - target


def _sum_at(index: np.ndarray, weights: np.ndarray, size: int) -> np.ndarray:
    """(k, size): the sums of weights[i] at each index[i] in range(size), as floats."""
    k = len(index)
    flat = (index.reshape(k, -1) + size * np.arange(k)[:, None]).ravel()
    return np.bincount(flat, weights.ravel(), k * size).astype(float, copy=False).reshape(k, size)


def _certify(G: np.ndarray) -> tuple[np.ndarray, bool]:
    """(G, True) when each G of the stack less tau = _CERTIFY n r times I,
    with r the largest row sum of |G|, has a Cholesky factor, so that
    pinv_psd(G) would truncate nothing and G^+ = G^-1 (see _CERTIFY);
    else (pinv_psd(G), False)."""
    n = G.shape[-1]
    tau = _CERTIFY * n * np.abs(G).sum(axis=-1).max(axis=-1, initial=0.0)
    shifted = G.copy()
    shifted[..., range(n), range(n)] -= tau[..., None]
    try:
        np.linalg.cholesky(shifted)
        if np.all(np.isfinite(tau)):
            return G, True
    except np.linalg.LinAlgError:
        pass
    return pinv_psd(G), False


def _factor(tree: ScenarioTree, first: np.ndarray, counts: np.ndarray,
            cash: bool = False) -> _Factor:
    """The _Factor of Y = sqrt(w) X for k subtrees of one shape.

    Subtree i has counts[l] nodes at depth l, with ids from first[i, l].
    Row j of X (k, n_leaves, n_inner * d) holds, in the d columns of block
    offset_l + a - first[i, l] of the ancestor a of leaf j at depth l
    (offset_l nodes lie above depth l), the price increment from a to the
    next node on the path to leaf j, q = depth * d entries; with cash, X
    gets a last column of ones.  w is the conditional probability of each
    leaf given the subtree root, a product taken leaf first on the same
    ancestor walk that fills X.  Y's columns are scaled to unit norm (a
    zero column keeps norm 1), so the certificate and the pseudoinverse
    cutoff, relative to the largest eigenvalue, do not depend on the price
    unit: cash (scale 1) and holdings (prices) weigh alike.  The norms and
    G are bincounts."""
    k, depth, d = len(first), len(counts) - 1, tree.num_assets
    offset = np.cumsum(counts) - counts
    m = offset[-1] * d + cash
    cols = np.full((k, counts[-1], depth * d + cash), m - 1)   # cash last
    vals = np.ones(cols.shape)
    w = np.ones((k, counts[-1]))
    node = first[:, -1, None] + np.arange(counts[-1])
    for level in range(depth - 1, -1, -1):
        up, at = tree.parent[node], slice(level * d, (level + 1) * d)
        cols[..., at] = (up - first[:, level, None] + offset[level])[..., None] * d + np.arange(d)
        vals[..., at] = tree.price[node] - tree.price[up]
        w *= tree.prob[node]
        node = up
    sw = np.sqrt(w)
    vals *= sw[..., None]
    norms = np.sqrt(_sum_at(cols, vals * vals, m))
    norms[norms == 0.0] = 1.0
    vals /= np.take_along_axis(norms[:, None], cols, 2)
    gram = _sum_at(cols[..., :, None] * m + cols[..., None, :],
                   vals[..., :, None] * vals[..., None, :], m * m).reshape(k, m, m)
    return _Factor(cols, vals, sw, norms, *_certify(gram))


def root_factor(tree: ScenarioTree, cash: bool = True, claim: Claim | None = None) -> _Factor:
    """The whole tree's _Factor; with cash, one solve of G x = [e_c, Y' sqrt(w) H]
    serves the root oracles and the free-v0 lsq_projection of claim (payoff H)."""
    n_leaves = len(tree.leaves())
    if n_leaves > MAX_ORACLE_LEAVES:
        raise TooLarge(f"{n_leaves} leaves exceeds the oracle bound {MAX_ORACLE_LEAVES}")
    bounds = np.searchsorted(tree.time, np.arange(tree.horizon + 2))
    f = _factor(tree, bounds[None, :-1], np.diff(bounds), cash)
    if cash:
        m = f.gram.shape[-1]
        rhs = [np.eye(1, m, m - 1)] + ([] if claim is None else [f.Yt(f.sw * claim.payoff)])
        sol = f.solve(np.stack(rhs, axis=-1))
        f.cash_sol, f.claim_sol = sol[..., 0], (claim, None if claim is None else sol[..., 1])
    return f


def lsq_projection(tree: ScenarioTree, claim: Claim, v0: float | str = "free",
                   root: _Factor | None = None) -> LsqSolution:
    """Minimize E[(v0 + gains_T - H)^2] over all per-node holdings.

    Decision variables are the d holdings at every non-terminal node
    (plus v0 when free); the terminal wealth on each leaf is linear in
    them, so the optimum is a least squares in the sqrt(P)-weighted
    space, solved by normal equations (minimum-norm representative, see
    _Factor), of root when v0 is free, read off its solution for this claim.
    """
    free_v0 = isinstance(v0, str)
    f = (root or root_factor(tree)) if free_v0 else root_factor(tree, cash=False)
    (beta,), (resid,) = f.lsq(
        f.sw * (np.asarray(claim.payoff, dtype=float) - (0.0 if free_v0 else float(v0))),
        f.claim_sol[1] if free_v0 and f.claim_sol[0] is claim else None)
    v0_opt = float(beta[-1]) if free_v0 else float(v0)

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
    b = np.zeros(f.norms.shape[1])
    b[-1] = 1.0 / f.norms[0, -1]  # unit-mass constraint, for the scaled cash column
    (u,) = f.Yx(f.cash_sol * b[-1])
    violation = np.max(np.abs(f.Yt(u[None])[0] - b))
    if violation > QP_FEAS_TOL * max(1.0, np.max(np.abs(b))):
        raise Infeasible(f"martingale constraints inconsistent (residual {violation:.3e})")
    return QpSolution(second_moment=float(u @ u), leaf_density=u / f.sw[0])


def _constant_hedge(tree: ScenarioTree, root: _Factor | None) -> tuple[np.ndarray, np.ndarray]:
    """Per node, sum r^2 and sum sqrt(w) r for the weighted residual
    r = Y beta - sqrt(w) of hedging the constant payoff 1 with zero
    endowment over the node's subtree; a leaf, with nothing to trade,
    gives (1, -1).  At the root both sums are +-1 / (Y'Y)^+[c, c], the
    Schur complement of root's unit cash column c = sqrt(w), also for a
    rank-deficient Y.  By the ordering contract a node's descendants at
    each depth are one id range, found by searchsorted on parent.  The
    subtrees of a later slice with the same node count at every depth
    are solved as one stack."""
    sq, cross = np.ones(len(tree.parent)), -np.ones(len(tree.parent))
    if tree.horizon:  # root_factor checks the size; a 0-period tree has one leaf
        sq[0] = 1.0 / (root or root_factor(tree)).cash_sol[0, -1]
        cross[0] = -sq[0]
    bounds = np.searchsorted(tree.time, np.arange(tree.horizon + 2))
    for t in range(1, tree.horizon):
        lo = np.arange(bounds[t], bounds[t + 1])
        ranges = [np.stack([lo, lo + 1])]   # per depth, each node's descendant id range
        for _ in range(tree.horizon - t):
            ranges.append(np.searchsorted(tree.parent, ranges[-1]))
        first, end = np.transpose(ranges, (1, 2, 0))
        shapes, group = np.unique(end - first, axis=0, return_inverse=True)
        for g, counts in enumerate(shapes):
            members = np.flatnonzero(group == g)
            f = _factor(tree, first[members], counts)
            _, r = f.lsq(f.sw)
            sq[lo[members]] = np.einsum("ij,ij->i", r, r)
            cross[lo[members]] = np.einsum("ij,ij->i", f.sw, r)
    return sq, cross


def node_conditional_check(tree: ScenarioTree, root: _Factor | None = None) -> np.ndarray:
    """Conditional minimal squared error of hedging the constant payoff 1
    with zero endowment, starting at each node; equals the opportunity
    process.  Leaves trivially give 1."""
    return _constant_hedge(tree, root)[0]


def max_sharpe(tree: ScenarioTree) -> np.ndarray:
    """Brute-force maximal conditional Sharpe ratio over the remaining
    periods at each node, read off the least-squares solution for the
    constant claim: the optimal terminal wealth x = 1 + r / sqrt(w)
    maximizes E[x]/std(x), with E[x] = 1 + sum sqrt(w) r and
    var(x) = sum r^2 - (sum sqrt(w) r)^2.  Leaves give 0."""
    sq, cross = _constant_hedge(tree, None)
    var = sq - cross * cross
    return np.divide(1.0 + cross, np.sqrt(np.maximum(var, 1e-24)),
                     out=np.zeros(len(sq)), where=var > 1e-24)
