"""Randomized tree/claim generators shared by the test suite."""
from __future__ import annotations

import dataclasses
from fractions import Fraction

import numpy as np

import mvhedge as mv
from mvhedge.tree import ScenarioTree


def step(tree: ScenarioTree, node_id: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One-step view of a node, aligned by child: the child ids, their
    conditional probabilities, and the price increments (one row per
    child), the node's row of its Step in tree.layout.steps, as
    read-only views; empty arrays at a terminal node."""
    t = tree.time[node_id]
    for s in tree.layout.steps[t] if t < tree.horizon else []:
        row = np.flatnonzero(s.ids == node_id)
        if row.size:
            return s.kids[row[0]], s.probs[row[0]], s.deltas[row[0]]
    return np.empty(0, dtype=np.intp), np.empty(0), np.empty((0, tree.num_assets))


def _random_law(rng, branching: int, d: int, martingale: bool):
    probs = rng.dirichlet(np.full(branching, 5.0))
    probs = np.clip(probs, 0.05, None)
    probs = probs / probs.sum()
    mu = rng.normal(0.0, 0.3, size=d)
    sigma = rng.uniform(0.5, 1.5)
    deltas = mu + sigma * rng.normal(size=(branching, d))
    if martingale:
        deltas = deltas - probs @ deltas
    return probs, deltas


def random_tree(rng, periods: int | None = None, d: int | None = None,
                martingale: bool = False) -> ScenarioTree:
    """Heterogeneous random path tree: every node gets its own branch
    probabilities and increment vectors (branching d + 1 to max(3, d + 1),
    so one-step degeneracy has probability zero)."""
    while True:
        dd = int(d if d is not None else rng.integers(1, 3))
        pp = int(periods if periods is not None else rng.integers(1, 5))
        branching = int(rng.integers(dd + 1, max(4, dd + 2)))
        parent, price, prob = [-1], [np.full(dd, 10.0)], [1.0]
        frontier = [0]
        for _ in range(pp):
            nxt = []
            for i in frontier:
                probs, deltas = _random_law(rng, branching, dd, martingale)
                for p, delta in zip(probs, deltas):
                    nxt.append(len(parent))
                    parent.append(i)
                    price.append(price[i] + delta)
                    prob.append(float(p))
            frontier = nxt
        time = np.repeat(np.arange(pp + 1), branching ** np.arange(pp + 1))
        tree = ScenarioTree(num_assets=dd, horizon=pp, parent=parent, time=time,
                            price=np.array(price), regime=np.full(len(parent), -1), prob=prob)
        try:
            surf = mv.compute_opportunity(tree)
        except mv.DegenerateStep:
            continue
        # keep the market at desk scale: reject near-degenerate draws whose
        # conditioning would make 1e-9 agreement meaningless
        if surf.L[0] < 0.05:
            continue
        # in martingale mode the drift is centered in floating point; a
        # near-collinear step can amplify that residual, so insist the
        # adjustment is numerically indistinguishable from zero
        if martingale and np.nanmax(np.abs(surf.a_tilde)) > 1e-13:
            continue
        return tree


def random_claim(rng, tree: ScenarioTree) -> np.ndarray:
    kind = rng.choice(["call", "put", "per_leaf"])
    if kind == "per_leaf":
        return mv.attach_claim(tree, "per_leaf",
                               values=rng.normal(0.0, 2.0, size=len(tree.leaves())))
    strike = float(rng.uniform(6.0, 14.0))
    return mv.attach_claim(tree, str(kind), strike=strike)


def random_binomial(rng) -> mv.ScenarioTree:
    return mv.build_binomial(
        [float(rng.uniform(5.0, 20.0))],
        up=float(rng.uniform(1.05, 1.3)),
        down=float(rng.uniform(0.7, 0.95)),
        p_up=float(rng.uniform(0.2, 0.8)),
        periods=int(rng.integers(1, 5)),
    )


def random_iid(rng) -> mv.ScenarioTree:
    branching = int(rng.integers(2, 4))
    periods = int(rng.integers(1, 5))
    while True:
        probs = rng.dirichlet(np.full(branching, 5.0))
        probs = np.clip(probs, 0.05, None)
        probs = probs / probs.sum()
        deltas = rng.normal(0.2, 1.0, size=branching)
        incs = [([float(delta)], float(p)) for delta, p in zip(deltas, probs)]
        tree = mv.build_iid_multinomial([10.0], incs, periods, "additive")
        try:
            surf = mv.compute_opportunity(tree)
        except mv.DegenerateStep:
            continue
        if surf.L[0] < 0.05:
            continue
        return tree


def rollout_path(tree: ScenarioTree, surf: mv.OpportunitySurface, plan: mv.HedgePlan,
                 v0: float, path: list[int]) -> tuple[list[np.ndarray], list[float]]:
    """Reference feedback rollout along a single root-to-leaf node path."""
    holdings = []
    wealth = [v0]
    for parent, child in zip(path, path[1:]):
        g = wealth[-1]
        h = plan.xi[parent] - (g - plan.V[parent]) * surf.a_tilde[parent]
        holdings.append(h)
        wealth.append(g + float((tree.price[child] - tree.price[parent]) @ h))
    return holdings, wealth


def efficient_value_process(tree: ScenarioTree, surf: mv.OpportunitySurface,
                            start_node: int = 0) -> dict[int, float]:
    """Value of the efficient strategy (hedging the constant 1, started
    at start_node with value 1) at every descendant: the running product
    of the one-step factors 1 - a_tilde' d_k.  The conditional
    expectation of its square at start_node equals L(start_node)."""
    values = {start_node: 1.0}
    stack = [start_node]
    while stack:
        i = stack.pop()
        if tree.time[i] == tree.horizon:
            continue
        kids, _, deltas = step(tree, i)
        factors = 1.0 - deltas @ surf.a_tilde[i]
        for cid, f in zip(kids.tolist(), factors):
            values[cid] = values[i] * float(f)
            stack.append(cid)
    return values


def gkw_holdings_loop(tree: ScenarioTree, plan: mv.HedgePlan) -> np.ndarray:
    """Reference martingale-style hedge as its own backward loop: the
    P-expectation of the payoff and the P-weighted regression of its
    increments on the price increments, E[d d']^+ Cov(d, V), through the
    root R R' = E[d d']^+ of each node's gram_root."""
    V = plan.V.copy()
    phi = np.full((len(tree.nodes), tree.num_assets), np.nan)
    for t in range(tree.horizon - 1, -1, -1):
        for i in tree.layout.slices[t]:
            kids, probs, deltas = step(tree, i)
            V[i] = float(probs @ V[kids])
            q = probs / float(np.sum(probs))
            _, dv = _centered(q, V[kids])
            R = mv.gram_root(np.sqrt(q)[:, None] * deltas)[0]
            phi[i] = R @ ((deltas.T @ (q * dv)) @ R)
    return phi


def markowitz_holdings_loop(tree: ScenarioTree, surf: mv.OpportunitySurface,
                            target: float, v0: float) -> np.ndarray:
    """Reference pure investment of the running deficit to a constant
    target, phi = (target - wealth) a_tilde, as its own forward loop."""
    phi = np.full((len(tree.nodes), tree.num_assets), np.nan)
    G = np.full(len(tree.nodes), np.nan)
    G[0] = v0
    for i in tree.layout.inner:
        phi[i] = (target - G[i]) * surf.a_tilde[i]
        kids, _, deltas = step(tree, i)
        G[kids] = G[i] + deltas @ phi[i]
    return phi


def sample_paths_loop(tree: ScenarioTree, n: int, seed: int) -> list[int]:
    """Reference sampler: one Philox generator per path, each path walked
    node by node."""
    cum: dict[int, tuple[np.ndarray, list[int]]] = {}
    for i in tree.layout.inner.tolist():
        kids, probs, _ = step(tree, i)
        cum[i] = (np.cumsum(probs), kids.tolist())
    out = []
    for i in range(n):
        bg = np.random.Philox(key=seed, counter=[0, 0, i, 0])
        u = np.random.Generator(bg).random(tree.horizon)
        nid = 0
        for t in range(tree.horizon):
            cdf, children = cum[nid]
            nid = children[min(int(np.searchsorted(cdf, u[t], side="right")), len(children) - 1)]
        out.append(nid)
    return out


def reverse_children(tree: ScenarioTree) -> tuple[ScenarioTree, np.ndarray]:
    """The tree with every node's children in reverse order, renumbered a
    slice at a time so that the ordering contract holds, and for each new
    id the old one."""
    old = [np.array([0])]
    for _ in range(tree.horizon):
        old.append(np.concatenate([np.flatnonzero(tree.parent == i)[::-1] for i in old[-1]]))
    old = np.concatenate(old)
    new = np.empty_like(old)
    new[old] = np.arange(len(old))
    parent = np.where(tree.parent[old] >= 0, new[tree.parent[old]], -1)
    return dataclasses.replace(tree, parent=parent, time=tree.time[old], price=tree.price[old],
                               regime=tree.regime[old], prob=tree.prob[old]), old


def split_child(tree: ScenarioTree, child: int) -> tuple[ScenarioTree, np.ndarray]:
    """The tree with node child (not the root) and its subtree replaced by
    two copies, each at half of child's conditional probability and the
    copy listed right after the original, renumbered a slice at a time so
    that the ordering contract holds, and for each new id the old one."""
    old, parent, frontier = [0], [-1], [0]
    for _ in range(tree.horizon):
        nxt = []
        for new in frontier:
            for k in np.flatnonzero(tree.parent == old[new]).tolist():
                for _ in range(2 if k == child else 1):
                    nxt.append(len(old))
                    old.append(k)
                    parent.append(new)
        frontier = nxt
    old = np.array(old)
    prob = np.where(old == child, tree.prob[old] / 2.0, tree.prob[old])
    return dataclasses.replace(tree, parent=np.array(parent), time=tree.time[old],
                               price=tree.price[old], regime=tree.regime[old], prob=prob), old


def uneven_regime_args(periods: int = 3) -> tuple:
    """build_regime_switching arguments of uneven_regime_tree."""
    regimes = [
        [([1.0], 0.6), ([-1.0], 0.4)],
        [([2.0], 0.3), ([-1.5], 0.7)],
    ]
    return [10.0], regimes, [[1.0, 0.0], [0.55, 0.45]], 1, periods


def uneven_regime_tree(periods: int = 3) -> mv.ScenarioTree:
    """Regime tree with uneven branching: regime 0 is absorbing (2
    children a node), regime 1 moves to either regime (4 children)."""
    return mv.build_regime_switching(*uneven_regime_args(periods))


def two_regime_tree(periods: int = 3) -> mv.ScenarioTree:
    """Low/high-vol binomial regimes with distinct one-step tradeoffs."""
    regimes = [
        [([1.0], 0.6), ([-1.0], 0.4)],
        [([2.0], 0.5), ([-2.0], 0.5)],
    ]
    return mv.build_regime_switching(
        [10.0], regimes, [[0.9, 0.1], [0.2, 0.8]], initial_regime=0, periods=periods,
    )


def binomial_06(periods: int = 1) -> mv.ScenarioTree:
    """Additive binomial with increments +-1 and p_up = 0.6."""
    return mv.build_iid_multinomial([10.0], [([1.0], 0.6), ([-1.0], 0.4)], periods)


def martingale_trinomial(periods: int = 1) -> mv.ScenarioTree:
    """Zero-mean trinomial: increments (+1, 0, -1) with p = (0.3, 0.4, 0.3)."""
    return mv.build_iid_multinomial(
        [10.0], [([1.0], 0.3), ([0.0], 0.4), ([-1.0], 0.3)], periods,
    )


# ---------------------------------------------------------------------------
# Reference per-node sweeps.  They find each node's children by its
# parent pointers, visit the nodes of a time slice in id order and use
# the per-node expressions the batched engine stacks, so the engine must
# equal them bit for bit.


def _children(tree: ScenarioTree, i: int):
    ids = np.flatnonzero(tree.parent == i)
    return ids, tree.prob[ids], tree.price[ids] - tree.price[i]


def _slice(tree: ScenarioTree, t: int) -> list[int]:
    return np.flatnonzero(tree.time == t).tolist()


def _inner(tree: ScenarioTree) -> list[int]:
    return np.flatnonzero(tree.time < tree.horizon).tolist()


def _centered(q: np.ndarray, x: np.ndarray) -> tuple:
    """(mean, deviations) of one node's child values x ((k,) or (k, d))
    under its child probabilities q, shifted first by the child of
    largest q."""
    s = x - x[int(np.argmax(q))]
    shift = q @ s
    return x[int(np.argmax(q))] + shift, s - shift


def opportunity_loop(tree: ScenarioTree) -> dict[str, np.ndarray]:
    """The surface's seven stored arrays node by node, from the centered
    one-step P* law: L, a_tilde, m0, b_sstar, c_hat_root, qstar_w and
    pstar_p, each node's root its own gram_root call."""
    n, d = len(tree.nodes), tree.num_assets
    out = {"L": np.ones(n), "a_tilde": np.full((n, d), np.nan), "m0": np.full(n, np.nan),
           "b_sstar": np.full((n, d), np.nan), "c_hat_root": np.full((n, d, d), np.nan),
           "qstar_w": np.ones(n), "pstar_p": np.ones(n)}
    for t in range(tree.horizon - 1, -1, -1):
        for i in _slice(tree, t):
            kids, probs, deltas = _children(tree, i)
            w = probs * out["L"][kids]
            m0 = float(np.sum(w))
            q = w / m0
            b, dc = _centered(q, deltas)
            A = np.sqrt(q)[:, None] * dc
            R, V, keep = mv.gram_root(A)
            z = b @ R
            K = float(z @ z)
            a_hat = R @ z
            L = m0 / (1.0 + K)
            off = float(np.sum(np.abs(b @ V[:, ~keep])))
            if L <= 1e-12 * m0 or off > 1e-8 * float(np.max(np.abs(A))):
                raise mv.DegenerateStep(i)
            out["L"][i], out["a_tilde"][i] = L, a_hat / (1.0 + K)
            out["m0"][i], out["b_sstar"][i], out["c_hat_root"][i] = m0, b, R
            out["qstar_w"][kids] = out["L"][kids] / m0 * (1.0 - dc @ a_hat)
            out["pstar_p"][kids] = q
    return out


def mean_value_loop(tree: ScenarioTree, surf: mv.OpportunitySurface,
                    claim: np.ndarray) -> np.ndarray:
    """V node by node from the stored Q* weights, with the weight-sum check."""
    V = np.full(len(tree.nodes), np.nan)
    for leaf, value in zip(_slice(tree, tree.horizon), claim):
        V[leaf] = value
    for t in range(tree.horizon - 1, -1, -1):
        for i in _slice(tree, t):
            kids, probs, _ = _children(tree, i)
            w = probs * surf.qstar_w[kids]
            if not abs(float(np.sum(w)) - 1.0) <= 1e-9:
                raise mv.DegenerateStep(i)
            V[i] = float(w @ V[kids])
    return V


def shift_adjustment(tree: ScenarioTree, surf: mv.OpportunitySurface, node_ids,
                     shift: float = 1.0) -> None:
    """Add shift to a_tilde at the listed nodes and rewrite the one-step
    Q* weights stored at their children from it by the formula
    (L_k/L_n)(1 - a_tilde' d_k), so that both compute_mean_value and
    mean_value_loop see the change."""
    surf.a_tilde[node_ids] += shift
    for i in node_ids:
        kids, _, deltas = _children(tree, i)
        surf.qstar_w[kids] = (surf.L[kids] / surf.L[i]) * (1.0 - deltas @ surf.a_tilde[i])


def c_hat_at(tree: ScenarioTree, surf: mv.OpportunitySurface, i: int) -> np.ndarray:
    """The covariance c_hat* of node i's increments under the stored
    one-step P* law pstar_p, centered as compute_opportunity centers it
    (the surface stores only a root of its pseudoinverse)."""
    kids, _, deltas = _children(tree, i)
    q = surf.pstar_p[kids]
    _, dc = _centered(q, deltas)
    c = (dc.T * q) @ dc
    return 0.5 * (c + c.T)


def _pure_hedge_at(tree: ScenarioTree, surf: mv.OpportunitySurface, V: np.ndarray,
                   i: int) -> tuple[np.ndarray, float]:
    """(xi, e) at node i from the stored one-step P* law, factoring its
    weighted centered increments here rather than reading the stored
    c_hat_root."""
    kids, _, deltas = _children(tree, i)
    q = surf.pstar_p[kids]
    _, dv = _centered(q, V[kids])
    R = mv.gram_root(np.sqrt(q)[:, None] * _centered(q, deltas)[1])[0]
    z = (q * dv) @ (deltas - surf.b_sstar[i]) @ R
    return z @ R.T, surf.m0[i] * (float(np.sum(q * dv * dv)) - float(np.sum(z * z)))


def pure_hedge_loop(tree: ScenarioTree, surf: mv.OpportunitySurface,
                    V: np.ndarray) -> np.ndarray:
    """xi node by node."""
    xi = np.full((len(tree.nodes), tree.num_assets), np.nan)
    for i in _inner(tree):
        xi[i] = _pure_hedge_at(tree, surf, V, i)[0]
    return xi


def rollout_loop(tree: ScenarioTree, xi, V, a, v0: float) -> tuple[np.ndarray, np.ndarray]:
    """(phi, G) of the feedback rollout phi = xi - (wealth - V) a, node by node."""
    n, d = len(tree.nodes), tree.num_assets
    xi, V, a = np.broadcast_to(xi, (n, d)), np.broadcast_to(V, (n,)), np.broadcast_to(a, (n, d))
    phi, G = np.full((n, d), np.nan), np.full(n, np.nan)
    G[0] = v0
    for i in _inner(tree):
        phi[i] = xi[i] - (G[i] - V[i]) * a[i]
        kids, _, deltas = _children(tree, i)
        G[kids] = G[i] + deltas @ phi[i]
    return phi, G


def node_probs_loop(tree: ScenarioTree) -> np.ndarray:
    probs = np.zeros(len(tree.nodes))
    probs[0] = 1.0
    for i in _inner(tree):
        kids, p, _ = _children(tree, i)
        probs[kids] = probs[i] * p
    return probs


def hedging_error_loop(tree: ScenarioTree, surf: mv.OpportunitySurface,
                       plan: mv.HedgePlan, v0: float) -> tuple[np.ndarray, float, dict]:
    """(e, total_error, slice_error) node by node."""
    e = np.full(len(tree.nodes), np.nan)
    for i in _inner(tree):
        e[i] = _pure_hedge_at(tree, surf, plan.V, i)[1]
    probs = node_probs_loop(tree)
    total = float(surf.L[0] * (v0 - plan.V[0]) ** 2)
    slice_error = {}
    for t in range(tree.horizon):
        slice_error[t] = sum(float(probs[i] * e[i]) for i in _slice(tree, t))
        total += slice_error[t]
    return e, total, slice_error


def scaled_tree(tree: ScenarioTree, k: float) -> ScenarioTree:
    """The same tree with every price multiplied by k."""
    return dataclasses.replace(tree, price=tree.price * k)


def backtest_2d_tree(periods: int = 2) -> mv.ScenarioTree:
    """A small tree shaped like the benchmark's backtest_2d: 2 assets,
    multiplicative, two regimes with 3- and 4-point laws, so 6 or 8
    children a node."""
    regimes = [
        [([0.11, -0.04], 0.35), ([-0.02, 0.09], 0.4), ([-0.08, -0.06], 0.25)],
        [([0.18, 0.05], 0.2), ([0.04, -0.15], 0.3), ([-0.12, 0.2], 0.25), ([-0.16, -0.1], 0.25)],
    ]
    return mv.build_regime_switching([10.0, 8.0], regimes, [[0.75, 0.25], [0.375, 0.625]],
                                     initial_regime=0, periods=periods, mode="multiplicative")


def measures_loop(tree: ScenarioTree, surf: mv.OpportunitySurface) -> dict:
    """The fields of measures(tree, surf) node by node, and the count of
    Q* weights <= 0; each one-step factor is stored at the child node,
    1 at the root."""
    n = len(tree.nodes)
    out = {"nstar_f": np.ones(n), "z_qstar": np.ones(n), "z_pstar": np.ones(n),
           "num_negative_weights": 0}
    for i in _inner(tree):
        kids, probs, deltas = _children(tree, i)
        qw, pp = surf.qstar_w[kids], surf.pstar_p[kids]
        out["nstar_f"][kids] = 1.0 - (deltas - surf.b_sstar[i]) @ surf.a_hat[i]
        out["num_negative_weights"] += int(np.sum(qw <= 0.0))
        out["z_qstar"][kids] = out["z_qstar"][i] * qw
        out["z_pstar"][kids] = out["z_pstar"][i] * (pp / probs)
    return out


def fs_residual_loop(tree: ScenarioTree, surf: mv.OpportunitySurface,
                     plan: mv.HedgePlan) -> float:
    """fs_residual_check node by node, from the stored P* probabilities,
    each component in units of the node's largest |increment| of that
    asset."""
    worst = 0.0
    for i in _inner(tree):
        kids, _, deltas = _children(tree, i)
        resid = (plan.V[kids] - plan.V[i]) - deltas @ plan.xi[i]
        D = np.max(np.abs(deltas), axis=0)
        r = (deltas.T @ (surf.pstar_p[kids] * resid)) / np.where(D > 0.0, D, 1.0)
        worst = max(worst, float(np.max(np.abs(r))))
    return worst


def uncentered_sweep(tree: ScenarioTree, claim: np.ndarray) -> dict[str, np.ndarray]:
    """The engine's one-step algebra before the centered P* law, node by
    node, kept as a second reference: with w_k = p_k L_k the unnormalized
    moments m0 = sum w_k, bbar = sum w_k d_k and cbar = sum w_k d_k d_k',
    L = m0 - bbar' cbar^+ bbar, a_tilde = cbar^+ bbar, qstar_w =
    (L_k/L_n)(1 - a_tilde' d_k), pstar_p = w_k / m0, V, xi = cbar^+ dbar
    and e = sum w_k dv_k^2 - dbar' xi with dv_k = V_k - V_n and dbar =
    sum w_k d_k dv_k, and the same regression with w_k = p_k on the
    P-expectation of the claim, gkw."""
    n, d = len(tree.nodes), tree.num_assets
    out = {"L": np.ones(n), "a_tilde": np.full((n, d), np.nan), "qstar_w": np.ones(n),
           "pstar_p": np.ones(n), "V": np.full(n, np.nan), "xi": np.full((n, d), np.nan),
           "e": np.full(n, np.nan), "gkw": np.full((n, d), np.nan)}
    L, V, U = out["L"], out["V"], np.full(n, np.nan)
    V[_slice(tree, tree.horizon)] = U[_slice(tree, tree.horizon)] = claim

    def regress(w, deltas, dv):
        dbar = deltas.T @ (w * dv)
        xi = mv.pinv_psd((deltas.T * w) @ deltas) @ dbar
        return xi, float(w @ (dv * dv)) - float(dbar @ xi)

    for t in range(tree.horizon - 1, -1, -1):
        for i in _slice(tree, t):
            kids, probs, deltas = _children(tree, i)
            w = probs * L[kids]
            m0, bbar = float(np.sum(w)), deltas.T @ w
            a = out["a_tilde"][i] = mv.pinv_psd((deltas.T * w) @ deltas) @ bbar
            L[i] = m0 - float(bbar @ a)
            qw = out["qstar_w"][kids] = L[kids] / L[i] * (1.0 - deltas @ a)
            out["pstar_p"][kids] = w / m0
            V[i], U[i] = float((probs * qw) @ V[kids]), float(probs @ U[kids])
            out["xi"][i], out["e"][i] = regress(w, deltas, V[kids] - V[i])
            out["gkw"][i] = regress(probs, deltas, U[kids] - U[i])[0]
    return out


def exact_pinv(c: list) -> list:
    """Moore-Penrose inverse of a symmetric positive semidefinite d x d
    Fraction matrix, exactly: the inverse by Gauss-Jordan elimination when
    it exists, for any d; else c / tr(c)^2 (rank 1, c = v v'), and 0 when
    c = 0.  ValueError for a singular c of rank 2 or more."""
    d = len(c)
    m = [[*row, *(Fraction(int(i == j)) for j in range(d))] for i, row in enumerate(c)]
    for p in range(d):
        if not m[p][p]:   # c positive definite has no zero pivot
            break
        m[p] = [x / m[p][p] for x in m[p]]
        m = [row if r == p else [x - row[p] * y for x, y in zip(row, m[p])]
             for r, row in enumerate(m)]
    else:
        return [row[d:] for row in m]
    tr = sum(c[j][j] for j in range(d))
    if any(sum(x * y for x, y in zip(row, col)) != tr * row[j]
           for row in c for j, col in enumerate(c)):   # c c = tr(c) c: rank <= 1
        raise ValueError("exact_pinv handles singular matrices of rank 1 only")
    return [[x / tr ** 2 if tr else Fraction(0) for x in row] for row in c]


def exact_quadratic(a, b) -> Fraction:
    """b'(a'a)^-1 b for a float (k, d) matrix a of full column rank and a
    float d-vector b, exactly: the floats are read as Fractions and a'a
    is inverted by exact_pinv."""
    a = [[Fraction(x) for x in row] for row in np.asarray(a).tolist()]
    b = [Fraction(x) for x in np.asarray(b).tolist()]
    c = [[sum(row[i] * row[j] for row in a) for j in range(len(b))] for i in range(len(b))]
    return sum(bi * x * bj for bi, row in zip(b, exact_pinv(c)) for x, bj in zip(row, b))


def exact_sweep(tree: ScenarioTree, payoff) -> dict[str, list]:
    """The paper's backward recursion in exact rational arithmetic, for
    any d on full-rank steps and for d <= 2 on any step (exact_pinv): the
    float inputs are read exactly (Fraction(x)) and nothing is rounded.
    Returns per-node lists of Fractions: L, a_tilde, xi =
    cbar_u^+ dbar_u and e = sum_k p_k L_k (V_k - V_n)^2 - dbar_u' xi, with
    dbar_u = sum_k p_k L_k d_k (V_k - V_n) (the last three None at
    terminal nodes), V, and the one-step qstar_w = (L_k/L_n)(1 -
    a_tilde' d_k) and pstar_p = p_k L_k / m0, each at the child node and
    1 at the root."""
    n, d = len(tree.nodes), tree.num_assets
    price = [[Fraction(x) for x in row] for row in tree.price.tolist()]
    prob = [Fraction(p) for p in tree.prob.tolist()]
    out = {"L": [Fraction(1)] * n, "a_tilde": [None] * n, "V": [None] * n,
           "xi": [None] * n, "e": [None] * n,
           "qstar_w": [Fraction(1)] * n, "pstar_p": [Fraction(1)] * n}
    L, V = out["L"], out["V"]
    for leaf, value in zip(_slice(tree, tree.horizon), payoff):
        V[leaf] = Fraction(value)
    for t in range(tree.horizon - 1, -1, -1):
        for i in _slice(tree, t):
            kids = np.flatnonzero(tree.parent == i).tolist()
            dk = {k: [price[k][j] - price[i][j] for j in range(d)] for k in kids}
            w = {k: prob[k] * L[k] for k in kids}
            m0 = sum(w.values())
            b = [sum(w[k] * dk[k][j] for k in kids) for j in range(d)]
            c = [[sum(w[k] * dk[k][j] * dk[k][m] for k in kids) for m in range(d)]
                 for j in range(d)]
            cinv = exact_pinv(c)
            a = out["a_tilde"][i] = [sum(x * y for x, y in zip(row, b)) for row in cinv]
            L[i] = m0 - sum(x * y for x, y in zip(a, b))
            for k in kids:
                out["qstar_w"][k] = L[k] / L[i] * (1 - sum(x * y for x, y in zip(a, dk[k])))
                out["pstar_p"][k] = w[k] / m0
            V[i] = sum(prob[k] * out["qstar_w"][k] * V[k] for k in kids)
            dv = {k: V[k] - V[i] for k in kids}
            dbar = [sum(w[k] * dk[k][j] * dv[k] for k in kids) for j in range(d)]
            xi = out["xi"][i] = [sum(x * y for x, y in zip(row, dbar)) for row in cinv]
            out["e"][i] = (sum(w[k] * dv[k] ** 2 for k in kids)
                           - sum(x * y for x, y in zip(dbar, xi)))
    return out


# ---------------------------------------------------------------------------
# Reference builders: the tree grown breadth-first node by node, each
# child's price computed from its parent's alone, as the builders did
# before they grew whole time slices.


def expand_loop(s0, periods: int, law_at, num_assets: int, regime0: int = -1) -> ScenarioTree:
    """law_at(price, regime) yields (price, probability, regime) triples
    for the children of a node, regime None when the tree has none."""
    parent, time, price = [-1], [0], [np.asarray(s0, dtype=float)]
    prob, regime = [1.0], [regime0]
    frontier = [0]
    for t in range(periods):
        nxt = []
        for i in frontier:
            for child_price, p, r in law_at(price[i], regime[i]):
                nxt.append(len(parent))
                parent.append(i)
                time.append(t + 1)
                price.append(np.asarray(child_price, dtype=float))
                prob.append(float(p))
                regime.append(-1 if r is None else r)
        frontier = nxt
    return ScenarioTree(num_assets=num_assets, horizon=periods, parent=parent, time=time,
                        price=np.array(price), regime=regime, prob=prob)


def binomial_loop(s0, up: float, down: float, p_up: float, periods: int) -> ScenarioTree:
    s0 = np.atleast_1d(np.asarray(s0, dtype=float))
    return expand_loop(s0, periods, lambda price, _: [(price * up, p_up, None),
                                                      (price * down, 1.0 - p_up, None)], len(s0))


def iid_loop(s0, increments, periods: int, mode: str = "additive") -> ScenarioTree:
    s0 = np.atleast_1d(np.asarray(s0, dtype=float))
    incs = [(np.atleast_1d(np.asarray(d, dtype=float)), float(p)) for d, p in increments]

    def law(price, _):
        for d, p in incs:
            yield (price + d if mode == "additive" else price * (1.0 + d)), p, None

    return expand_loop(s0, periods, law, len(s0))


def regime_loop(s0, regimes, transition, initial_regime: int, periods: int,
                mode: str = "additive") -> ScenarioTree:
    s0 = np.atleast_1d(np.asarray(s0, dtype=float))
    trans = np.asarray(transition, dtype=float)
    laws = [[(np.atleast_1d(np.asarray(d, dtype=float)), float(p)) for d, p in law]
            for law in regimes]

    def law_at(price, cur):
        for d, p in laws[cur]:
            child = price + d if mode == "additive" else price * (1.0 + d)
            for nxt in range(len(laws)):
                q = trans[cur, nxt]
                if q > 0.0:
                    yield child, p * q, nxt

    return expand_loop(s0, periods, law_at, len(s0), initial_regime)


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


def oracle_sharpe(tree: ScenarioTree) -> np.ndarray:
    """The maximal conditional Sharpe ratio over the remaining periods at
    each node, sqrt(1/node_L - 1) from the oracle's node checks (0 at the
    leaves): the optimal terminal wealth for the constant claim maximizes
    E[x]/std(x)."""
    return np.sqrt(np.maximum(1.0 / mv.node_conditional_check(tree) - 1.0, 0.0))


def node_oracle_loop(tree: ScenarioTree) -> tuple[np.ndarray, np.ndarray]:
    """(conditional minimal error of hedging 1, maximal Sharpe ratio) at
    each node, from one least-squares oracle call on each node's subtree:
    the optimal terminal wealth x maximizes E[x]/std(x)."""
    check, sharpe = np.ones(len(tree.nodes)), np.zeros(len(tree.nodes))
    for i in np.flatnonzero(tree.time < tree.horizon).tolist():
        sub, _ = subtree_at(tree, i)
        leaves = sub.leaves()
        sol = mv.lsq_projection(sub, np.ones(len(leaves)), v0=0.0)
        check[i] = sol.min_error
        x, w = sol.value_process[leaves], sub.node_probs()[leaves]
        mean = float(w @ x)
        var = float(w @ (x * x)) - mean * mean
        sharpe[i] = mean / np.sqrt(var) if var > 1e-24 else 0.0
    return check, sharpe


def lsq_loop(tree: ScenarioTree, claim: np.ndarray, v0) -> tuple[float, float, np.ndarray]:
    """(min_error, v0, value_process) of the least squares through pinv_psd:
    with v0 "free" on the root's G, with v0 fixed on G without its cash
    row and column, where the target is sqrt(w) (H - v0) and the cash
    coefficient stays 0.  The wealth is rolled forward node by node."""
    f = mv.oracle.root_factor(tree)
    free = v0 == "free"
    target = f.sw * (claim - (0.0 if free else v0))
    keep = slice(None) if free else slice(-1)
    beta = np.zeros(len(f.norms))
    beta[keep] = mv.pinv_psd(dense_gram(f)[keep, keep]) @ f.Yt(target)[keep]
    resid = f.Yx(beta) - target
    beta /= f.norms
    v0 = float(beta[-1]) if free else float(v0)
    holdings = beta[:-1].reshape(-1, tree.num_assets)
    value = np.full(len(tree.nodes), v0)
    for i in tree.nodes[1:]:
        up = tree.parent[i]
        value[i] = value[up] + float((tree.price[i] - tree.price[up]) @ holdings[up])
    return float(resid @ resid), v0, value


def node_check_pinv_loop(tree: ScenarioTree) -> np.ndarray:
    """The oracle's node checks through pinv_psd, node by node: at an inner
    node n, 1 - g' G_nn^+ g / P(n), G_nn the block of the root's G on the
    holdings of n's inner subtree nodes, g its cash column times the cash
    norm and P(n) the sum of sqrt(w)^2 over n's leaves."""
    f = mv.oracle.root_factor(tree)
    G = dense_gram(f)
    first_leaf, d = len(tree.nodes) - len(tree.leaves()), tree.num_assets
    check = np.ones(len(tree.nodes))
    for i in range(first_leaf):
        _, ids = subtree_at(tree, i)
        cols = (ids[ids < first_leaf, None] * d + np.arange(d)).ravel()
        g = G[cols, -1] * f.norms[-1]
        mass = np.sum(f.sw[ids[ids >= first_leaf] - first_leaf] ** 2)
        check[i] = 1.0 - g @ mv.pinv_psd(G[np.ix_(cols, cols)]) @ g / mass
    return check


def dense_y(f) -> np.ndarray:
    """The dense Y (n_leaves, m) of the oracle's path-sparse factor f,
    scattered from its cols and vals."""
    Y = np.zeros((len(f.cols), len(f.norms)))
    Y[np.arange(len(f.cols))[:, None], f.cols] = f.vals
    return Y


def dense_gram(f) -> np.ndarray:
    """Y'Y (m, m) of the oracle's factor f, from the dense Y: a normal
    matrix the oracle itself never forms."""
    Y = dense_y(f)
    return Y.T @ Y


def singular(G: np.ndarray) -> bool:
    """Whether pinv_psd(G) truncates an eigenvalue of G: one of magnitude at
    most n 1e-12 times the largest."""
    lam = np.abs(np.linalg.eigvalsh(G))
    return bool(lam.min() <= len(G) * mv.linalg.EIG_TRUNCATION * lam.max())


def dense_increments(tree: ScenarioTree, first: np.ndarray, counts: np.ndarray,
                     cash: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The increment matrix of the least squares on each of k subtrees of
    one shape, built dense: (Y, norms), Y (k, n_leaves, m) = sqrt(w) X
    with unit columns and norms X's weighted column norms (a zero column
    keeps norm 1).  For the whole tree, with cash, it is root_factor's Y;
    for a later subtree, Y'Y is the block of the root's G that the
    oracle's node check on the subtree solves.
    Subtree i has counts[l] nodes at depth l, with ids from first[i, l];
    row j of X holds, in the d columns of block offset_l + a - first[i, l]
    of leaf j's ancestor a at depth l, the price increment from a on the
    path to leaf j, and with cash a last column of ones."""
    k, depth, d = len(first), len(counts) - 1, tree.num_assets
    offset = np.cumsum(counts) - counts
    sub = np.arange(k)[:, None]
    w = np.ones((k, 1))
    for level in range(1, depth + 1):
        ids = first[:, level, None] + np.arange(counts[level])
        w = w[sub, tree.parent[ids] - first[:, level - 1, None]] * tree.prob[ids]
    Y = np.zeros((k, counts[-1], offset[-1] * d + cash))
    if cash:
        Y[..., -1] = 1.0
    node = first[:, -1, None] + np.arange(counts[-1])
    rows = (sub[..., None], np.arange(counts[-1])[:, None])
    for level in range(depth - 1, -1, -1):
        up = tree.parent[node]
        block = up - first[:, level, None] + offset[level]
        Y[rows + (block[..., None] * d + np.arange(d),)] = tree.price[node] - tree.price[up]
        node = up
    Y *= np.sqrt(w)[..., None]
    norms = np.sqrt(np.einsum("...ij,...ij->...j", Y, Y))
    norms[norms == 0.0] = 1.0
    return Y / norms[..., None, :], norms


def subtree_stacks(tree: ScenarioTree):
    """(first, counts) of each stack of subtrees that the oracle's node
    checks solve together, as one stack of blocks of the root's G: the
    subtrees rooted in one slice after the first with the same node count
    at every depth."""
    bounds = np.searchsorted(tree.time, np.arange(tree.horizon + 2))
    for t in range(1, tree.horizon):
        lo = np.arange(bounds[t], bounds[t + 1])
        ranges = [np.stack([lo, lo + 1])]
        for _ in range(tree.horizon - t):
            ranges.append(np.searchsorted(tree.parent, ranges[-1]))
        first, end = np.transpose(ranges, (1, 2, 0))
        shapes, group = np.unique(end - first, axis=0, return_inverse=True)
        for g, counts in enumerate(shapes):
            yield first[group == g], counts


def serialize_loop(tree: ScenarioTree, claim: np.ndarray | None = None) -> str:
    """Reference for serialize_tree: one Python list of child documents per
    node and one string per number, joined at the end."""
    parts = ['{"num_assets": %d, "horizon": %d, "nodes": [' % (tree.num_assets, tree.horizon)]
    parent = tree.parent.tolist()
    kids = [[] for _ in parent]
    for i, (p, q) in enumerate(zip(parent, tree.prob.tolist())):
        if p >= 0:
            kids[p].append('{"id": %d, "p": %.17g}' % (i, q))
    node_docs = []
    for i, (t, price, p, r) in enumerate(zip(tree.time.tolist(), tree.price.tolist(),
                                             parent, tree.regime.tolist())):
        doc = '{"id": %d, "time": %d, "price": [%s], "parent": %s, "children": [%s]' % (
            i, t, ", ".join("%.17g" % x for x in price), "null" if p < 0 else p, ", ".join(kids[i])
        )
        if r >= 0:
            doc += ', "regime": %d' % r
        node_docs.append(doc + "}")
    parts.append(", ".join(node_docs))
    parts.append("]")
    if claim is not None:
        parts.append(', "claim": [%s]' % ", ".join("%.17g" % x for x in claim))
    parts.append("}")
    return "".join(parts)
