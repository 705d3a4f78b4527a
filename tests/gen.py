"""Randomized tree/claim generators shared by the test suite."""
from __future__ import annotations

import numpy as np

import mvhedge as mv
from mvhedge.tree import Node, ScenarioTree


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
    probabilities and increment vectors (branching >= d+1, so one-step
    degeneracy has probability zero)."""
    while True:
        dd = int(d if d is not None else rng.integers(1, 3))
        pp = int(periods if periods is not None else rng.integers(1, 5))
        branching = int(rng.integers(dd + 1, 4))
        root = Node(id=0, time=0, price=np.full(dd, 10.0), parent=None)
        nodes = [root]
        frontier = [root]
        for t in range(pp):
            nxt = []
            for node in frontier:
                probs, deltas = _random_law(rng, branching, dd, martingale)
                for p, delta in zip(probs, deltas):
                    child = Node(id=len(nodes), time=t + 1,
                                 price=node.price + delta, parent=node.id)
                    nodes.append(child)
                    node.children.append((child.id, float(p)))
                    nxt.append(child)
            frontier = nxt
        tree = ScenarioTree(num_assets=dd, horizon=pp, nodes=nodes)
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


def random_claim(rng, tree: ScenarioTree) -> mv.Claim:
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
        wealth.append(g + float(tree.increment(parent, child) @ h))
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
        node = tree.nodes[i]
        if not node.children:
            continue
        kids, _, deltas = tree.step(node)
        factors = 1.0 - deltas @ surf.a_tilde[i]
        for cid, f in zip(kids.tolist(), factors):
            values[cid] = values[i] * float(f)
            stack.append(cid)
    return values


def gkw_holdings_loop(tree: ScenarioTree, plan: mv.HedgePlan) -> np.ndarray:
    """Reference martingale-style hedge as its own backward loop: the
    P-expectation of the payoff and the P-weighted regression of its
    increments on the price increments."""
    V = plan.V.copy()
    phi = np.full((len(tree.nodes), tree.num_assets), np.nan)
    for t in range(tree.horizon - 1, -1, -1):
        for node in tree.nodes_at(t):
            kids, probs, deltas = tree.step(node)
            V[node.id] = float(probs @ V[kids])
            c_u = (deltas.T * probs) @ deltas
            d_u = deltas.T @ (probs * (V[kids] - V[node.id]))
            phi[node.id] = mv.pinv_psd(c_u) @ d_u
    return phi


def markowitz_holdings_loop(tree: ScenarioTree, surf: mv.OpportunitySurface,
                            target: float, v0: float) -> np.ndarray:
    """Reference pure investment of the running deficit to a constant
    target, phi = (target - wealth) a_tilde, as its own forward loop."""
    phi = np.full((len(tree.nodes), tree.num_assets), np.nan)
    G = np.full(len(tree.nodes), np.nan)
    G[0] = v0
    for node in tree.nonterminal():
        i = node.id
        phi[i] = (target - G[i]) * surf.a_tilde[i]
        kids, _, deltas = tree.step(node)
        G[kids] = G[i] + deltas @ phi[i]
    return phi


def sample_paths_loop(tree: ScenarioTree, n: int, seed: int) -> list[int]:
    """Reference sampler: one Philox generator per path, each path walked
    node by node."""
    cum: dict[int, tuple[np.ndarray, list[int]]] = {}
    for node in tree.nonterminal():
        kids, probs, _ = tree.step(node)
        cum[node.id] = (np.cumsum(probs), kids.tolist())
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


def uneven_regime_tree(periods: int = 3) -> mv.ScenarioTree:
    """Regime tree with uneven branching: regime 0 is absorbing (2
    children a node), regime 1 moves to either regime (4 children)."""
    regimes = [
        [([1.0], 0.6), ([-1.0], 0.4)],
        [([2.0], 0.3), ([-1.5], 0.7)],
    ]
    return mv.build_regime_switching(
        [10.0], regimes, [[1.0, 0.0], [0.55, 0.45]], initial_regime=1, periods=periods,
    )


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
