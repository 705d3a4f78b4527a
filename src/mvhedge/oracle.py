"""Brute-force optimizers establishing ground truth on small trees.

These deliberately share no code with the engine: the hedging problem
is solved as one flat weighted least squares over all per-node
holdings, and the variance-optimal measure as an equality-constrained
QP on leaf densities.  Agreement between engine and oracle is
therefore a genuine cross check, not a tautology.  Both read the
sqrt(P)-weighted leaf x holding matrix Y of price increments along
each leaf's path, path-sparse (a row is nonzero only in its ancestors'
columns).  Y is factored by QR front by front up the tree, deepest node
first and cash last (multifrontal QR: George & Heath, Linear Algebra
Appl. 34, 1980; Matstoms, ACM TOMS 20, 1994), each front no wider than
a leaf's path, and neither G = Y'Y nor any matrix of its size is
formed.  Pseudoinverse pivots make the factor a generalized inverse of
G.  The least squares solves its claim and the QP the cash column, each
with one correction step (Bjorck, Linear Algebra Appl. 88/89, 1987),
and a fixed endowment the cash column; each node's check is its front's
cash column once its subtree is eliminated.  The oracles rely on
validate_tree's ordering contract, not the tree layout.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BadParameter, Infeasible, TooLarge, number
from .tree import ScenarioTree, claim_at

MAX_ORACLE_LEAVES = 2000
QP_FEAS_TOL = 1e-8   # relative constraint residual above which the QP is Infeasible
PIVOT_TRUNCATION = 1e-12   # T^+ drops singular values <= sqrt(d * this) times the largest


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
    columns cols[j] (n_leaves, q), else 0, cash first, then the ancestors root
    first; sqrt(w), the column norms and a factor of G = Y'Y, per depth,
    deepest first, then cash: the depth's node columns (N, d), the columns
    of cash and their ancestors (N, r), S' (N, r, d) and T^+ (N, d, d), [T S]
    the pivot rows of the node's QR front, so that T^+ T^+' = D^+ for G's
    block LDL' pivot D = T'T and S'T is its block below; and each node's L."""
    cols: np.ndarray
    vals: np.ndarray
    sw: np.ndarray
    norms: np.ndarray
    steps: list
    node_L: np.ndarray

    @cached_property
    def cash_sol(self) -> np.ndarray:
        """G^- e_c, c the cash column."""
        return self.solve(np.eye(1, len(self.norms), len(self.norms) - 1)[0])

    def Yt(self, t: np.ndarray) -> np.ndarray:
        """Y't (m,), t (n_leaves,)."""
        return np.bincount(self.cols.ravel(), (self.vals * t[:, None]).ravel(), len(self.norms))

    def Yx(self, x: np.ndarray) -> np.ndarray:
        """Y x (n_leaves,), x (m,)."""
        return np.einsum("jq,jq->j", self.vals, x[self.cols])

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """G^- rhs, rhs (m,) or (m, k): forward substitution deepest first, then
        back substitution.  G G^- G = G, so for rhs in range(G), Y G^- rhs and
        rhs' G^- rhs are G^+'s, and G^- rhs is off G^+ rhs by a null vector."""
        x = rhs.reshape(len(rhs), -1).astype(float)
        for cols, rows, w, r in self.steps:
            x[cols] = r.swapaxes(1, 2) @ x[cols]
            np.subtract.at(x, rows, w @ x[cols])
        for cols, rows, w, r in reversed(self.steps):
            x[cols] = r @ (x[cols] - w.swapaxes(1, 2) @ x[rows])
        return x.reshape(rhs.shape)


def _ldl(cols: np.ndarray, vals: np.ndarray, tree: ScenarioTree) -> tuple:
    """_Factor's steps and node_L, by QR fronts on Y's columns reversed: a
    node's own d first, cash last.  A leaf's front is its row y of Y, its
    mass y_c^2; a node stacks its children's (one id range by the ordering
    contract, zero rows padding ragged counts and stacks under d rows) and
    sums their masses.  One QR per depth gives the pivot rows [T S], and
    [R22; S - T T^+ S] goes up, with Gram matrix G's Schur complement on
    the rest: its cash column's squared norm over the mass is node_L."""
    d, bounds = tree.num_assets, np.searchsorted(tree.time, np.arange(tree.horizon + 2))
    idx, front, mass, steps = cols[:, ::-1], vals[:, None, ::-1], vals[:, 0] ** 2, []
    node_L = np.ones(len(tree.parent))
    for lo, hi in zip(bounds[-2:0:-1].tolist(), bounds[:0:-1].tolist()):
        first, k = np.flatnonzero(np.diff(tree.parent[lo:hi], prepend=-1)), front.shape[1]
        at = np.arange(hi - lo) - np.repeat(first, np.diff(first, append=hi - lo))
        stack = np.zeros((len(first), max((at.max() + 1) * k, d), front.shape[2]))
        stack[np.cumsum(at == 0)[:, None] - 1, at[:, None] * k + np.arange(k)] = front
        r = np.linalg.qr(stack, mode="r")
        t, s, idx, mass = r[:, :d, :d], r[:, :d, d:], idx[first], np.add.reduceat(mass, first)
        tp = np.linalg.pinv(t, rcond=np.sqrt(d * PIVOT_TRUNCATION))
        steps.append((idx[:, :d], idx[:, d:], s.swapaxes(1, 2), tp))
        front, idx = np.concatenate((r[:, d:, d:], s - t @ (tp @ s)), axis=1), idx[:, d:]
        node_L[tree.parent[lo + first]] = np.sum(front[..., -1] ** 2, axis=1) / mass
    t = np.linalg.qr(front, mode="r")   # the cash pivot
    return steps + [(idx, idx[:, :0], t[:, :0], np.linalg.pinv(t))], node_L


def root_factor(tree: ScenarioTree) -> _Factor:
    """The _Factor of Y = sqrt(w) X for the whole tree, which the root
    oracles share.

    Row j of X (n_leaves, m) holds, in the d columns of block a of the ancestor
    a of leaf j (by the ordering contract inner nodes come first), the price
    increment from a to the next node on the path to leaf j, and a last column
    of ones: q = horizon * d + 1 entries, kept cash first.  w is each leaf's
    probability, a product taken leaf first on the same ancestor walk that
    fills X.  Y's columns are scaled to unit norm (a zero column keeps norm 1),
    so the pivots' cutoff does not depend on the price unit; the norms are a
    bincount of squares taken after an exact power-of-two scaling per column,
    which no tiny price underflows."""
    node = tree.leaves()
    if len(node) > MAX_ORACLE_LEAVES:
        raise TooLarge(f"{len(node)} leaves exceeds the oracle bound {MAX_ORACLE_LEAVES}")
    d = tree.num_assets
    m = node[0] * d + 1   # the inner nodes are the ids below the first leaf
    cols = np.full((len(node), tree.horizon * d + 1), m - 1)   # cash first
    vals = np.ones(cols.shape)
    w = np.ones(len(node))
    for level in range(tree.horizon - 1, -1, -1):
        up, at = tree.parent[node], slice(1 + level * d, 1 + (level + 1) * d)
        cols[:, at] = up[:, None] * d + np.arange(d)
        vals[:, at] = tree.price[node] - tree.price[up]
        w *= tree.prob[node]
        node = up
    sw = np.sqrt(w)
    vals *= sw[:, None]
    top = np.zeros(m)
    np.maximum.at(top, cols.ravel(), np.abs(vals).ravel())
    unit = np.ldexp(1.0, np.frexp(top)[1])
    vals /= unit[cols]
    norms = np.sqrt(np.bincount(cols.ravel(), (vals * vals).ravel(), m))
    norms[norms == 0.0] = 1.0
    vals /= norms[cols]
    norms *= unit
    return _Factor(cols, vals, sw, norms, *_ldl(cols, vals, tree))


def lsq_projection(tree: ScenarioTree, claim: np.ndarray, v0: float | str = "free",
                   root: _Factor | None = None) -> LsqSolution:
    """Minimize E[(v0 + gains_T - H)^2] over per-node holdings, H the payoff array
    claim, v0 "free" or a finite number.

    The terminal wealth on each leaf is linear in v0 and the d holdings
    at every non-terminal node: a least squares in the sqrt(P)-weighted
    space, x = G^- Y' sqrt(w) H on root's factor, and x += G^- Y' r, r =
    sqrt(w) H - Y x, the one correction step of the semi-normal equations.
    A fixed v0 moves x along y = G^- e_c to the cash coefficient v0 n_c
    (n_c the cash norm): x + (v0 n_c - x_c) / y_c y.
    Both are off the minimum-norm solutions by null vectors of G, which
    change neither Y x nor, without a cash entry (a riskless profit, which
    the engine rejects as degenerate), the cash coefficient or the wealth.
    A claim that is not one value per leaf raises BadParameter.
    """
    free = isinstance(v0, str) and v0 == "free"   # an array's == is elementwise
    v0 = v0 if free else number(v0, "v0 must be 'free' or a finite number")
    f = root or root_factor(tree)
    target = f.sw * claim_at(tree, claim)[tree.leaves()]
    beta = f.solve(f.Yt(target))
    beta += f.solve(f.Yt(target - f.Yx(beta)))
    if not free:
        beta = beta + (v0 * f.norms[-1] - beta[-1]) / f.cash_sol[-1] * f.cash_sol
    resid = f.Yx(beta) - target
    beta = beta / f.norms
    v0_opt = float(beta[-1]) if free else v0
    holdings = beta[:-1].reshape(-1, tree.num_assets)   # inner node a owns column block a
    bounds = np.searchsorted(tree.time, np.arange(tree.horizon + 2))
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
    b = b_c e_c is in range(B'B), so u = B cash_sol b_c, and one correction
    step u += B G^-(b - B'u) follows, on u: on G^- b it is lost to rounding.
    """
    f = root or root_factor(tree)
    b = np.zeros(len(f.norms))
    b[-1] = 1.0 / f.norms[-1]  # unit-mass constraint, for the scaled cash column
    u = f.Yx(f.cash_sol * b[-1])
    u += f.Yx(f.solve(b - f.Yt(u)))
    violation = np.max(np.abs(f.Yt(u) - b))
    if violation > QP_FEAS_TOL * max(1.0, np.max(np.abs(b))):
        raise Infeasible(f"martingale constraints inconsistent (residual {violation:.3e})")
    return QpSolution(second_moment=float(u @ u), leaf_density=u / f.sw)


def node_conditional_check(tree: ScenarioTree, root: _Factor | None = None) -> np.ndarray:
    """Conditional minimal squared error of hedging the constant payoff 1
    with zero endowment, starting at each node; equals the opportunity
    process.  Leaves give 1.  At an inner node n it is root's least
    squares on n's leaves and the holdings of its inner subtree nodes,
    1 - g' G_nn^+ g / P(n), G_nn the block of G on those holdings, g its
    column of Y' sqrt(w) and P(n) the leaf mass: root's node_L, final
    once n's front is eliminated."""
    return (root or root_factor(tree)).node_L.copy()
