"""Finite multinomial scenario trees and terminal claims.

A tree is a rooted path tree (non-recombining): node identity encodes the
whole price history, so the filtration atoms at time t are exactly the
time-t nodes.  Edge probabilities are conditional one-step probabilities
under the physical measure; unconditional node probabilities are products
along the root path.  Nodes are indexed breadth-first by time, then by
parent order, which makes every per-node output serialization-stable.

The ordering contract, which validate_tree enforces: each node's id is
its position in the node list, and time never decreases along the list.

The engine does not walk the Node objects.  At first use a tree derives
one flat, read-only TreeLayout from its nodes (node prices and times,
CSR children with their probabilities and price increments, and each
time slice's nodes grouped by child count) and every sweep runs one
time slice at a time over those groups.  The layout is cached, so the
nodes must not change once the engine has seen the tree.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

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


class Step(NamedTuple):
    """The one-step markets of m nodes of one time slice that have the
    same child count k, aligned by child: row r holds node ids[r]'s
    child ids, conditional probabilities and price increments, in the
    order of its children."""

    ids: np.ndarray      # (m,)
    kids: np.ndarray     # (m, k)
    probs: np.ndarray    # (m, k)
    deltas: np.ndarray   # (m, k, d)


class TreeLayout:
    """Flat, read-only arrays of a tree, derived from its nodes, which
    must keep the ordering contract.

    Node i has price[i] and time[i].  Its children are the edges
    offsets[i]:offsets[i + 1], in the order of node.children; edge e
    leads to node child[e] with conditional probability prob[e] and
    price increment delta[e] = price[child[e]] - price[i].  slices[t]
    holds the ids of the time-t nodes in id order, and inner the ids of
    the non-terminal nodes.  groups[t], for t < horizon, splits
    slices[t] by child count k into (ids, edges) pairs, ascending in k:
    edges is the (m, k) matrix of edge indices whose row r is node
    ids[r]'s edges.  Grouping by child count, not padding to a common
    count, keeps every stacked one-step computation the same arithmetic
    as on one node alone.
    """

    def __init__(self, tree: ScenarioTree):
        nodes = tree.nodes
        n = len(nodes)
        price = np.array([node.price for node in nodes], dtype=float).reshape(n, tree.num_assets)
        time = np.array([node.time for node in nodes], dtype=np.intp)
        counts = np.array([len(node.children) for node in nodes], dtype=np.intp)
        offsets = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(counts, out=offsets[1:])
        child = np.fromiter((c for node in nodes for c, _ in node.children), np.intp, offsets[-1])
        prob = np.fromiter((p for node in nodes for _, p in node.children), float, offsets[-1])
        delta = price[child] - np.repeat(price, counts, axis=0)
        slices = [np.flatnonzero(time == t) for t in range(tree.horizon + 1)]
        groups = []
        for ids in slices[:-1]:
            k = counts[ids]
            groups.append([(ids[k == kk], offsets[ids[k == kk], None] + np.arange(kk))
                           for kk in np.flatnonzero(np.bincount(k)).tolist()])
        inner = np.flatnonzero(time < tree.horizon)
        for a in (price, time, offsets, child, prob, delta, inner, *slices,
                  *(a for group in groups for pair in group for a in pair)):
            a.flags.writeable = False
        self.price, self.time, self.offsets = price, time, offsets
        self.child, self.prob, self.delta = child, prob, delta
        self.slices, self.groups, self.inner = slices, groups, inner

    @property
    def leaves(self) -> np.ndarray:
        """Ids of the terminal nodes, in id order."""
        return self.slices[-1]

    def steps(self, t: int) -> list[Step]:
        """The one-step markets of the time-t nodes, one Step per child
        count, gathered from the edge arrays."""
        return [Step(ids, self.child[edges], self.prob[edges], self.delta[edges])
                for ids, edges in self.groups[t]]


@dataclass
class ScenarioTree:
    num_assets: int
    horizon: int
    nodes: list[Node]

    @property
    def root(self) -> Node:
        return self.nodes[0]

    @cached_property
    def layout(self) -> TreeLayout:
        """The flat layout of the nodes, built at first access."""
        return TreeLayout(self)

    def _nodes(self, ids: np.ndarray) -> list[Node]:
        return [self.nodes[i] for i in ids.tolist()]

    def leaves(self) -> list[Node]:
        return self._nodes(self.layout.leaves)

    def nonterminal(self) -> list[Node]:
        return self._nodes(self.layout.inner)

    def nodes_at(self, t: int) -> list[Node]:
        return self._nodes(self.layout.slices[t])

    def increment(self, parent_id: int, child_id: int) -> np.ndarray:
        return self.nodes[child_id].price - self.nodes[parent_id].price

    def step(self, node: Node) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One-step view of a non-terminal node, aligned by child: the
        child ids, their conditional probabilities, and the price
        increments (one row per child).  Read-only views into the
        layout."""
        lay = self.layout
        edges = slice(lay.offsets[node.id], lay.offsets[node.id + 1])
        return lay.child[edges], lay.prob[edges], lay.delta[edges]

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
        lay = self.layout
        probs = np.zeros(len(self.nodes))
        probs[0] = 1.0
        for t in range(self.horizon):
            for ids, edges in lay.groups[t]:
                probs[lay.child[edges]] = probs[ids, None] * lay.prob[edges]
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
    leaves = tree.layout.leaves
    if np.shape(claim.payoff) != leaves.shape:
        raise BadParameter(f"claim has {np.size(claim.payoff)} values for {leaves.size} leaves")
    h = np.full(len(tree.nodes), np.nan)
    h[leaves] = claim.payoff
    return h


# ---------------------------------------------------------------------------
# Validation


def validate_tree(tree: ScenarioTree, max_violations: int = 100) -> list[str]:
    """Check all structural invariants, the ordering contract included;
    returns a list of violation messages (empty when the tree is well
    formed)."""
    out: list[str] = []

    def report(msg: str) -> bool:
        out.append(msg)
        return len(out) >= max_violations

    roots = [n for n in tree.nodes if n.parent is None]
    if len(roots) != 1 or (roots and roots[0].time != 0):
        if report("tree must have exactly one root at time 0"):
            return out
    seen_child: dict[int, int] = {}
    for pos, n in enumerate(tree.nodes):
        if n.id != pos:
            if report(f"node at list position {pos} has id {n.id}"):
                return out
        if pos and n.time < tree.nodes[pos - 1].time:
            if report(f"time decreases at list position {pos}"):
                return out
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
