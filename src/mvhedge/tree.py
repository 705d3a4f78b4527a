"""Finite multinomial scenario trees and terminal claims.

A tree is a rooted path tree (non-recombining): node identity encodes the
whole price history, so the filtration atoms at time t are exactly the
time-t nodes.  Edge probabilities are conditional one-step probabilities
under the physical measure; unconditional node probabilities are products
along the root path.  Nodes are indexed breadth-first by time, then by
parent order, which makes every per-node output serialization-stable.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BadParameter

PROB_SUM_TOL = 1e-12
MAX_LEAVES = 2 ** 20


def _fmt(x: float) -> str:
    """Render a double with 17 significant digits (lossless round trip)."""
    return format(float(x), ".17g")


@dataclass
class Node:
    id: int
    time: int
    price: np.ndarray
    parent: int | None
    children: list[tuple[int, float]] = field(default_factory=list)
    regime: int | None = None


@dataclass
class ScenarioTree:
    num_assets: int
    horizon: int
    nodes: list[Node]

    @property
    def root(self) -> Node:
        return self.nodes[0]

    def leaves(self) -> list[Node]:
        return [n for n in self.nodes if n.time == self.horizon]

    def nonterminal(self) -> list[Node]:
        return [n for n in self.nodes if n.time < self.horizon]

    def nodes_at(self, t: int) -> list[Node]:
        return [n for n in self.nodes if n.time == t]

    def increment(self, parent_id: int, child_id: int) -> np.ndarray:
        return self.nodes[child_id].price - self.nodes[parent_id].price

    def step(self, node: Node) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One-step view of a non-terminal node, aligned by child: the
        child ids, their conditional probabilities, and the price
        increments (one row per child)."""
        ids, probs = zip(*node.children)
        deltas = np.array([self.nodes[c].price for c in ids]) - node.price
        return np.array(ids), np.array(probs), deltas

    def path_nodes(self, node_id: int) -> list[int]:
        """Node ids from the root to node_id, inclusive."""
        path = []
        nid: int | None = node_id
        while nid is not None:
            path.append(nid)
            nid = self.nodes[nid].parent
        return path[::-1]

    def node_probs(self) -> np.ndarray:
        """Unconditional probability of reaching each node."""
        probs = np.zeros(len(self.nodes))
        probs[0] = 1.0
        for n in self.nodes:
            for cid, p in n.children:
                probs[cid] = probs[n.id] * p
        return probs


@dataclass
class Claim:
    """Terminal payoff, one value per leaf in leaf order."""

    payoff: np.ndarray


# ---------------------------------------------------------------------------
# Builders


def _expand(s0, periods: int, law_at, num_assets: int) -> ScenarioTree:
    """Grow a path tree breadth-first; law_at(node) yields
    (price, probability, regime) triples for the children of a node."""
    root = Node(id=0, time=0, price=np.asarray(s0, dtype=float), parent=None)
    nodes = [root]
    frontier = [root]
    for t in range(periods):
        next_frontier = []
        for node in frontier:
            for price, prob, regime in law_at(node):
                child = Node(
                    id=len(nodes),
                    time=t + 1,
                    price=np.asarray(price, dtype=float),
                    parent=node.id,
                    regime=regime,
                )
                nodes.append(child)
                node.children.append((child.id, float(prob)))
                next_frontier.append(child)
        frontier = next_frontier
    return ScenarioTree(num_assets=num_assets, horizon=periods, nodes=nodes)


def build_binomial(s0, up: float, down: float, p_up: float, periods: int) -> ScenarioTree:
    """Multiplicative binomial path tree with 2^periods leaves."""
    s0 = np.atleast_1d(np.asarray(s0, dtype=float))
    if periods < 1 or periods > 16:
        raise BadParameter(f"periods must be in [1, 16], got {periods}")
    if not (up > 1.0):
        raise BadParameter("up must exceed 1")
    if not (0.0 < down < 1.0):
        raise BadParameter("down must lie in (0, 1)")
    if not (up > down):
        raise BadParameter("up must exceed down")
    if not (0.0 < p_up < 1.0):
        raise BadParameter("p_up must lie in (0, 1)")

    def law(node):
        return [(node.price * up, p_up, None), (node.price * down, 1.0 - p_up, None)]

    return _expand(s0, periods, law, len(s0))


def build_iid_multinomial(s0, increments, periods: int, mode: str = "additive") -> ScenarioTree:
    """Path tree with i.i.d. increments; increments is a list of
    (delta vector, probability) pairs.  Additive: child = parent + delta;
    multiplicative: child = parent * (1 + delta) componentwise."""
    s0 = np.atleast_1d(np.asarray(s0, dtype=float))
    if mode not in ("additive", "multiplicative"):
        raise BadParameter(f"unknown mode {mode!r}")
    if periods < 1:
        raise BadParameter("periods must be positive")
    if len(increments) < 2:
        raise BadParameter("need at least 2 increments")
    deltas = [np.atleast_1d(np.asarray(d, dtype=float)) for d, _ in increments]
    probs = [float(p) for _, p in increments]
    if any(p <= 0.0 for p in probs):
        raise BadParameter("increment probabilities must be positive")
    if abs(sum(probs) - 1.0) > PROB_SUM_TOL:
        raise BadParameter(f"increment probabilities sum to {sum(probs)!r}, not 1")
    if any(d.shape != s0.shape for d in deltas):
        raise BadParameter("increment dimension does not match s0")
    if len(increments) ** periods > MAX_LEAVES:
        raise BadParameter("tree would exceed the leaf bound 2^20")

    def law(node):
        for d, p in zip(deltas, probs):
            price = node.price + d if mode == "additive" else node.price * (1.0 + d)
            yield price, p, None

    return _expand(s0, periods, law, len(s0))


def build_regime_switching(
    s0,
    regimes,
    transition,
    initial_regime: int,
    periods: int,
    mode: str = "additive",
) -> ScenarioTree:
    """Markov-modulated path tree.  Each regime is an increment law (list
    of (delta, probability)); the price increment is drawn from the current
    regime's law while the regime itself moves by the transition matrix.
    Children are (next regime, increment) pairs; zero-probability
    transitions are dropped."""
    s0 = np.atleast_1d(np.asarray(s0, dtype=float))
    if mode not in ("additive", "multiplicative"):
        raise BadParameter(f"unknown mode {mode!r}")
    if periods < 1:
        raise BadParameter("periods must be positive")
    trans = np.asarray(transition, dtype=float)
    n_reg = len(regimes)
    if trans.shape != (n_reg, n_reg):
        raise BadParameter("transition matrix shape does not match regime count")
    if np.any(trans < 0.0) or np.any(np.abs(trans.sum(axis=1) - 1.0) > PROB_SUM_TOL):
        raise BadParameter("transition rows must be nonnegative and sum to 1")
    if not (0 <= initial_regime < n_reg):
        raise BadParameter("initial_regime out of range")
    laws = []
    for law in regimes:
        deltas = [np.atleast_1d(np.asarray(d, dtype=float)) for d, _ in law]
        probs = [float(p) for _, p in law]
        if any(p <= 0.0 for p in probs) or abs(sum(probs) - 1.0) > PROB_SUM_TOL:
            raise BadParameter("regime increment probabilities must be positive and sum to 1")
        if any(d.shape != s0.shape for d in deltas):
            raise BadParameter("increment dimension does not match s0")
        laws.append(list(zip(deltas, probs)))
    branching = max(
        n_reg * len(law) for law in regimes
    )
    if branching ** periods > MAX_LEAVES:
        raise BadParameter("tree would exceed the leaf bound 2^20")

    def law_at(node):
        cur = node.regime if node.regime is not None else initial_regime
        for d, p in laws[cur]:
            price = node.price + d if mode == "additive" else node.price * (1.0 + d)
            for nxt in range(n_reg):
                q = trans[cur, nxt]
                if q > 0.0:
                    yield price, p * q, nxt

    tree = _expand(s0, periods, law_at, len(s0))
    tree.root.regime = initial_regime
    return tree


def attach_claim(tree: ScenarioTree, kind: str, strike: float | None = None, values=None) -> Claim:
    """Attach a terminal payoff: 'call'/'put' on asset 0, or 'per_leaf'
    with explicit values in leaf order."""
    leaves = tree.leaves()
    if kind == "call":
        if strike is None:
            raise BadParameter("call requires a strike")
        payoff = np.array([max(n.price[0] - strike, 0.0) for n in leaves])
    elif kind == "put":
        if strike is None:
            raise BadParameter("put requires a strike")
        payoff = np.array([max(strike - n.price[0], 0.0) for n in leaves])
    elif kind == "per_leaf":
        payoff = np.asarray(values, dtype=float)
        if payoff.shape != (len(leaves),):
            raise BadParameter(
                f"per_leaf claim has {payoff.size} values for {len(leaves)} leaves"
            )
    else:
        raise BadParameter(f"unknown claim kind {kind!r}")
    if not np.all(np.isfinite(payoff)):
        raise BadParameter("claim payoff must be finite")
    return Claim(payoff=payoff)


def claim_at(tree: ScenarioTree, claim: Claim) -> np.ndarray:
    """Payoff indexed by node id (defined on leaves, NaN elsewhere)."""
    h = np.full(len(tree.nodes), np.nan)
    for leaf, value in zip(tree.leaves(), claim.payoff):
        h[leaf.id] = value
    return h


# ---------------------------------------------------------------------------
# Validation


def validate_tree(tree: ScenarioTree, max_violations: int = 100) -> list[str]:
    """Check all structural invariants; returns a list of violation
    messages (empty when the tree is well formed)."""
    out: list[str] = []

    def report(msg: str) -> bool:
        out.append(msg)
        return len(out) >= max_violations

    roots = [n for n in tree.nodes if n.parent is None]
    if len(roots) != 1 or (roots and roots[0].time != 0):
        if report("tree must have exactly one root at time 0"):
            return out
    seen_child: dict[int, int] = {}
    for n in tree.nodes:
        if not np.all(np.isfinite(n.price)):
            if report(f"non-finite price at node {n.id}"):
                return out
        if n.price.shape != (tree.num_assets,):
            if report(f"price dimension mismatch at node {n.id}"):
                return out
        if n.time == tree.horizon and n.children:
            if report(f"terminal node {n.id} has children"):
                return out
        if n.time < tree.horizon and not n.children:
            if report(f"non-terminal node {n.id} has no children"):
                return out
        for cid, p in n.children:
            child = tree.nodes[cid]
            if child.time != n.time + 1:
                if report(f"time skip from node {n.id} to node {cid}"):
                    return out
            if child.parent != n.id:
                if report(f"parent mismatch at node {cid}"):
                    return out
            if cid in seen_child:
                if report(f"node {cid} shared by two parents"):
                    return out
            seen_child[cid] = n.id
            if not (p > 0.0):
                if report(f"nonpositive probability at node {n.id} child {cid}"):
                    return out
        if n.children:
            total = sum(p for _, p in n.children)
            if abs(total - 1.0) > PROB_SUM_TOL:
                if report(f"child probabilities at node {n.id} sum to {total!r}"):
                    return out
    return out


# ---------------------------------------------------------------------------
# Serialization


def serialize_tree(tree: ScenarioTree, claim: Claim | None = None) -> str:
    """Serialize tree (and optional claim) to a canonical JSON document.

    All reals are rendered with 17 significant digits, so
    serialize -> parse -> serialize is byte-identical.
    """
    parts = ['{"num_assets": %d, "horizon": %d, "nodes": [' % (tree.num_assets, tree.horizon)]
    node_docs = []
    for n in tree.nodes:
        price = ", ".join(_fmt(x) for x in n.price)
        children = ", ".join(
            '{"id": %d, "p": %s}' % (cid, _fmt(p)) for cid, p in n.children
        )
        parent = "null" if n.parent is None else str(n.parent)
        doc = '{"id": %d, "time": %d, "price": [%s], "parent": %s, "children": [%s]' % (
            n.id, n.time, price, parent, children
        )
        if n.regime is not None:
            doc += ', "regime": %d' % n.regime
        node_docs.append(doc + "}")
    parts.append(", ".join(node_docs))
    parts.append("]")
    if claim is not None:
        parts.append(', "claim": [%s]' % ", ".join(_fmt(x) for x in claim.payoff))
    parts.append("}")
    return "".join(parts)


def parse_tree(text: str) -> tuple[ScenarioTree, Claim | None]:
    """Parse a document produced by serialize_tree."""
    doc = json.loads(text)
    try:
        nodes = [
            Node(
                id=nd["id"],
                time=nd["time"],
                price=np.asarray(nd["price"], dtype=float),
                parent=nd["parent"],
                children=[(c["id"], float(c["p"])) for c in nd["children"]],
                regime=nd.get("regime"),
            )
            for nd in doc["nodes"]
        ]
        tree = ScenarioTree(num_assets=doc["num_assets"], horizon=doc["horizon"], nodes=nodes)
    except (KeyError, TypeError) as exc:
        raise BadParameter(f"malformed tree document: {exc}") from exc
    claim = None
    if "claim" in doc and doc["claim"] is not None:
        claim = Claim(payoff=np.asarray(doc["claim"], dtype=float))
    return tree, claim
