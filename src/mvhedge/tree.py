"""Finite multinomial scenario trees and terminal claims.

A tree is a rooted path tree (non-recombining): node identity encodes the
whole price history, so the filtration atoms at time t are exactly the
time-t nodes.  Edge probabilities are conditional one-step probabilities
under the physical measure; unconditional node probabilities are products
along the root path.

A ScenarioTree stores five arrays over its n nodes, indexed by node id:
parent (-1 at the root), time, price (n, d), regime (-1 when the tree
has none) and prob, the conditional probability of the edge into each
node (1 at the root).  tree.nodes is the id range range(n).

The ordering contract, which validate_tree enforces: node 0 is the root,
each time slice's nodes are contiguous and in time order, and parent
never decreases within a slice.  So a node's children are a contiguous
id range, in the order the builders create them.  Every per-edge value
is stored at the child node the edge leads to, as prob is.

The engine derives one flat, read-only TreeLayout from the arrays at
first use (CSR child offsets, and each time slice's one-step markets
gathered once, grouped by child count) and every sweep runs one time
slice at a time over those groups.  The layout is cached, so the arrays
must not change once the engine has seen the tree.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import BadParameter

PROB_SUM_TOL = 1e-12
MAX_LEAVES = 2 ** 20
MAX_PERIODS = 20   # the deepest binary tree within MAX_LEAVES
MAX_VIOLATIONS = 100   # validate_tree reports at most this many
NOT_NUMBERS = (("boolean", (bool, np.bool_)), ("string", str))   # float() reads them as numbers


class Step(NamedTuple):
    """The one-step markets of m nodes of one time slice that have the
    same child count k, aligned by child: row r holds node ids[r]'s
    child ids, conditional probabilities tree.prob[kids] and price
    increments tree.price[kids] - tree.price[ids[r]], in the order of
    its children."""

    ids: np.ndarray      # (m,)
    kids: np.ndarray     # (m, k)
    probs: np.ndarray    # (m, k)
    deltas: np.ndarray   # (m, k, d)


class TreeLayout:
    """Flat, read-only arrays derived from a tree that keeps the
    ordering contract.

    The children of node i are the nodes offsets[i] + 1 .. offsets[i + 1].
    slices[t] holds the ids of the time-t nodes, and inner the ids of
    the non-terminal nodes.  steps[t], for t < horizon, is the one-step
    market of slices[t], gathered once: one Step per child count k,
    ascending in k, together covering slices[t].  Grouping by child
    count, not padding to a common count, keeps every stacked one-step
    computation the same arithmetic as on one node alone.
    """

    def __init__(self, tree: ScenarioTree):
        n = len(tree.parent)
        counts = np.bincount(tree.parent[1:], minlength=n)
        offsets = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(counts, out=offsets[1:])
        bounds = np.zeros(tree.horizon + 2, dtype=np.intp)
        np.cumsum(np.bincount(tree.time, minlength=tree.horizon + 1), out=bounds[1:])
        slices = [np.arange(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
        steps = []
        for ids in slices[:-1]:
            k = counts[ids]
            steps.append([])
            for kk in np.flatnonzero(np.bincount(k)).tolist():
                group = ids[k == kk]
                kids = offsets[group, None] + 1 + np.arange(kk)
                steps[-1].append(Step(group, kids, tree.prob[kids],
                                      tree.price[kids] - tree.price[group][:, None]))
        inner = np.arange(bounds[-2])
        for a in (offsets, inner, *slices, *(a for step in steps for s in step for a in s)):
            a.flags.writeable = False
        self.offsets, self.slices, self.steps, self.inner = offsets, slices, steps, inner


@dataclass(eq=False)
class ScenarioTree:
    num_assets: int
    horizon: int
    parent: np.ndarray   # (n,) parent id, -1 at the root
    time: np.ndarray     # (n,)
    price: np.ndarray    # (n, d)
    regime: np.ndarray   # (n,) regime, -1 when absent
    prob: np.ndarray     # (n,) conditional probability of the edge into the node

    def __post_init__(self):
        self.parent = np.asarray(self.parent, dtype=np.intp)
        self.time = np.asarray(self.time, dtype=np.intp)
        self.price = np.asarray(self.price, dtype=float)
        self.regime = np.asarray(self.regime, dtype=np.intp)
        self.prob = np.asarray(self.prob, dtype=float)

    @property
    def nodes(self) -> range:
        """The node ids."""
        return range(len(self.parent))

    @cached_property
    def layout(self) -> TreeLayout:
        """The flat layout of the tree, built at first access."""
        return TreeLayout(self)

    def leaves(self) -> np.ndarray:
        """Ids of the terminal nodes, in id order."""
        return np.flatnonzero(self.time == self.horizon)

    def node_probs(self) -> np.ndarray:
        """Unconditional probability of reaching each node."""
        probs = np.ones(len(self.parent))
        for ids in self.layout.slices[1:]:
            probs[ids] = probs[self.parent[ids]] * self.prob[ids]
        return probs


# ---------------------------------------------------------------------------
# Builders


def _grow(s0: np.ndarray, periods: int, laws, mode: str,
          initial_regime: int | None) -> ScenarioTree:
    """Grow a path tree one time slice at a time.  laws[r] lists the
    children of a node in regime r as (operand, probability, next
    regime) triples, in child order; a child's price is its parent's
    plus (additive) or times (multiplicative) the operand.  Without an
    initial regime there is one law and the regimes are stored as -1."""
    d = len(s0)
    k = np.array([len(law) for law in laws])
    start = np.cumsum(k) - k
    operand = np.array([o for law in laws for o, _, _ in law], dtype=float).reshape(-1, d)
    prob = np.array([p for law in laws for _, p, _ in law], dtype=float)
    nxt = np.array([r for law in laws for _, _, r in law], dtype=np.intp)
    op = np.add if mode == "additive" else np.multiply
    parent, price, probs = [np.array([-1])], [s0[None, :]], [np.ones(1)]
    regime = [np.array([0 if initial_regime is None else initial_regime])]
    first = 0
    for _ in range(periods):
        counts = k[regime[-1]]
        local = np.repeat(np.arange(len(counts)), counts)
        template = (start[regime[-1]] - np.cumsum(counts) + counts)[local] + np.arange(len(local))
        parent.append(first + local)
        price.append(op(price[-1][local], operand[template]))
        probs.append(prob[template])
        regime.append(nxt[template])
        first += len(counts)
    regime = np.concatenate(regime)
    if initial_regime is None:
        regime[:] = -1
    return ScenarioTree(num_assets=d, horizon=periods, parent=np.concatenate(parent),
                        time=np.repeat(np.arange(periods + 1), [len(p) for p in parent]),
                        price=np.concatenate(price), regime=regime, prob=np.concatenate(probs))


def build_binomial(s0, up: float, down: float, p_up: float, periods: int) -> ScenarioTree:
    """Multiplicative binomial path tree with 2^periods leaves."""
    s0 = _finite(s0, "s0")
    up, down, p_up = _floats([up, down, p_up], "up, down and p_up").tolist()
    if not (_is_int(periods) and 1 <= periods <= 16):
        raise BadParameter(f"periods must be an integer in [1, 16], got {periods!r}")
    if not (up > 1.0):
        raise BadParameter("up must exceed 1")
    if not (0.0 < down < 1.0):
        raise BadParameter("down must lie in (0, 1)")
    if not (0.0 < p_up < 1.0):
        raise BadParameter("p_up must lie in (0, 1)")
    law = [(np.full(len(s0), up), p_up, 0), (np.full(len(s0), down), 1.0 - p_up, 0)]
    return _grow(s0, periods, [law], "multiplicative", None)


def _is_int(x) -> bool:
    """x is an integer and not a boolean."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _floats(values, what: str) -> np.ndarray:
    """values as a float array; BadParameter on a boolean or a string
    (one of NOT_NUMBERS), which float() would read as a number."""
    for kind, types in NOT_NUMBERS:
        if any(isinstance(v, types) for v in np.asarray(values, dtype=object).flat):
            raise BadParameter(f"{what} must be numeric, not a {kind}")
    return np.asarray(values, dtype=float)


def _finite(values, what: str) -> np.ndarray:
    """values as a float vector; BadParameter unless there is at least one
    entry and every entry is a finite number."""
    v = np.atleast_1d(_floats(values, what))
    if not (v.size and np.all(np.isfinite(v))):
        raise BadParameter(f"{what} must be finite and non-empty")
    return v


def build_iid_multinomial(s0, increments, periods: int, mode: str = "additive") -> ScenarioTree:
    """Path tree with i.i.d. increments; increments is a list of
    (delta vector, probability) pairs.  Additive: child = parent + delta;
    multiplicative: child = parent * (1 + delta) componentwise."""
    if len(increments) < 2:
        raise BadParameter("need at least 2 increments")
    return _build(s0, [increments], [[1.0]], None, periods, mode)


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
    Children are (next regime, increment) pairs, increment-major;
    zero-probability transitions are dropped."""
    if not _is_int(initial_regime):
        raise BadParameter(f"initial_regime must be an integer, got {initial_regime!r}")
    if not (0 <= initial_regime < len(regimes)):
        raise BadParameter("initial_regime out of range")
    return _build(s0, regimes, transition, initial_regime, periods, mode)


def _build(s0, regimes, transition, initial_regime, periods: int, mode: str) -> ScenarioTree:
    """Check the regimes' increment laws, the transition matrix, the mode
    and the periods, and grow the tree; an iid tree is one regime that
    moves to itself, with no initial regime."""
    s0 = _finite(s0, "s0")
    if mode not in ("additive", "multiplicative"):
        raise BadParameter(f"unknown mode {mode!r}")
    if not (_is_int(periods) and periods >= 1):
        raise BadParameter(f"periods must be a positive integer, got {periods!r}")
    trans = _finite(transition, "transition")
    n_reg = len(regimes)
    if trans.shape != (n_reg, n_reg):
        raise BadParameter("transition matrix shape does not match regime count")
    if np.any(trans < 0.0) or not np.all(np.abs(trans.sum(axis=1) - 1.0) <= PROB_SUM_TOL):
        raise BadParameter("transition rows must be nonnegative and sum to 1")
    laws = []
    for cur, law in enumerate(regimes):
        deltas = [_finite(d, "increment deltas") for d, _ in law]
        probs = _finite([p for _, p in law], "increment probabilities").tolist()
        if any(p <= 0.0 for p in probs) or not (abs(sum(probs) - 1.0) <= PROB_SUM_TOL):
            raise BadParameter("increment probabilities must be positive and sum to 1")
        if any(d.shape != s0.shape for d in deltas):
            raise BadParameter("increment dimension does not match s0")
        laws.append([(d if mode == "additive" else 1.0 + d, p * trans[cur, nxt], nxt)
                     for d, p in zip(deltas, probs)
                     for nxt in range(n_reg) if trans[cur, nxt] > 0.0])
    branching = max(n_reg * len(law) for law in regimes)
    if branching ** min(periods, MAX_PERIODS + 1) > MAX_LEAVES:
        raise BadParameter("tree would exceed the leaf bound 2^20")
    if periods > MAX_PERIODS:   # a one-point law: one leaf at any depth
        raise BadParameter(f"periods must be at most {MAX_PERIODS}, got {periods}")
    return _grow(s0, periods, laws, mode, initial_regime)


def attach_claim(tree: ScenarioTree, kind: str, strike: float | None = None,
                 values=None) -> np.ndarray:
    """A terminal claim as its payoff array, one finite value per leaf in
    leaf order: 'call'/'put' on asset 0 at a finite strike, or 'per_leaf' values."""
    leaves = tree.leaves()
    if kind in ("call", "put"):
        if strike is None:
            raise BadParameter(f"{kind} requires a strike")
        if np.ndim(strike):
            raise BadParameter(f"strike must be one number, got {strike!r}")
        gain = tree.price[leaves, 0] - _finite(strike, "strike").item()
        payoff = np.maximum(gain if kind == "call" else -gain, 0.0)
    elif kind == "per_leaf":
        payoff = _floats(values, "per_leaf values")
        if payoff.shape != (len(leaves),):
            raise BadParameter(f"per_leaf claim needs {leaves.size} values, one per leaf, "
                               f"got shape {payoff.shape}")
    else:
        raise BadParameter(f"unknown claim kind {kind!r}")
    if not np.all(np.isfinite(payoff)):
        raise BadParameter("claim payoff must be finite")
    return payoff


def claim_at(tree: ScenarioTree, claim: np.ndarray) -> np.ndarray:
    """claim, one value per leaf in leaf order, by node id (NaN off leaves)."""
    leaves = tree.leaves()
    if np.shape(claim) != leaves.shape:
        raise BadParameter(f"claim needs {leaves.size} values, got shape {np.shape(claim)}")
    h = np.full(len(tree.nodes), np.nan)
    h[leaves] = claim
    return h


# ---------------------------------------------------------------------------
# Validation


def validate_tree(tree: ScenarioTree) -> list[str]:
    """Check all structural invariants, the ordering contract included;
    returns a list of violation messages (empty when the tree is well
    formed), ordered by the list position they are reported at."""
    for name, x in (("num_assets", tree.num_assets), ("horizon", tree.horizon)):
        if not (_is_int(x) and x >= 0):
            return [f"{name} {x!r} is not a non-negative integer"]
    if tree.num_assets == 0:
        return ["the tree has no assets"]
    parent, time, price = tree.parent, tree.time, tree.price
    n = len(parent)
    if n == 0 or any(a.shape != (n,) for a in (time, tree.regime, tree.prob)):
        return ["node arrays differ in length"]
    if price.shape != (n, tree.num_assets):
        return [f"price dimension mismatch: shape {price.shape} for {n} nodes "
                f"of {tree.num_assets} assets"]
    bad = np.flatnonzero((parent < -1) | (parent >= n))
    if bad.size:
        return [f"parent out of range at node {i}" for i in bad[:MAX_VIOLATIONS].tolist()]
    kid = np.flatnonzero(parent >= 0)
    up = parent[kid]
    found = []   # (position, check, child, child check, message)

    def check(rank: int, where: np.ndarray, message, minor: int = 0, edge: bool = False) -> None:
        """Report message(w) for each w in where (node ids, or with edge
        indices into kid/up, reported at the parent in child order)."""
        if edge:
            where = where[np.lexsort((kid[where], up[where]))][:MAX_VIOLATIONS]
            keys = zip(up[where].tolist(), kid[where].tolist())
        else:
            where = where[:MAX_VIOLATIONS]
            keys = ((i, 0) for i in where.tolist())
        found.extend((p, rank, c, minor, message(w)) for (p, c), w in zip(keys, where.tolist()))

    if np.count_nonzero(parent == -1) != 1 or parent[0] != -1 or time[0] != 0:
        found.append((-1, 0, 0, 0, "tree must have exactly one root at time 0"))
    check(1, 1 + np.flatnonzero(time[1:] < time[:-1]),
          lambda i: f"time decreases at list position {i}")
    check(2, 1 + np.flatnonzero((time[1:] == time[:-1]) & (parent[1:] < parent[:-1])),
          lambda i: f"parent decreases at list position {i}")
    check(3, np.flatnonzero(~np.all(np.isfinite(price), axis=1)),
          lambda i: f"non-finite price at node {i}")
    counts = np.bincount(up, minlength=n)
    check(4, np.flatnonzero((time == tree.horizon) & (counts > 0)),
          lambda i: f"terminal node {i} has children")
    check(5, np.flatnonzero((time < tree.horizon) & (counts == 0)),
          lambda i: f"non-terminal node {i} has no children")
    check(6, np.flatnonzero(time[kid] != time[up] + 1),
          lambda e: f"time skip from node {up[e]} to node {kid[e]}", edge=True)
    check(6, np.flatnonzero(~(tree.prob[kid] > 0.0)),
          lambda e: f"nonpositive probability at node {up[e]} child {kid[e]}", 1, edge=True)
    total = np.bincount(up, weights=tree.prob[kid], minlength=n)
    check(7, np.flatnonzero((counts > 0) & (np.abs(total - 1.0) > PROB_SUM_TOL)),
          lambda i: f"child probabilities at node {i} sum to {float(total[i])!r}")
    found.sort(key=lambda f: f[:4])
    return [message for *_, message in found[:MAX_VIOLATIONS]]


# ---------------------------------------------------------------------------
# Serialization


def serialize_tree(tree: ScenarioTree, claim: np.ndarray | None = None) -> str:
    """Serialize tree (and optional claim payoff) to a canonical JSON document,
    one printf template per node with its children in id order.  All reals
    are rendered with 17 significant digits, so serialize -> parse ->
    serialize is byte-identical.
    """
    parent = tree.parent
    kid = np.argsort(parent, kind="stable")[np.count_nonzero(parent < 0):]   # by parent, then id
    edges = ['{"id": %d, "p": %.17g}' % e for e in zip(kid.tolist(), tree.prob[kid].tolist())]
    ends = np.cumsum(np.bincount(parent[kid], minlength=len(parent))).tolist()
    template = ('{"id": %d, "time": %d, "price": [' + ", ".join(["%.17g"] * tree.price.shape[1])
                + '], "parent": %s, "children": [%s]%s}')
    nodes = ", ".join(template % row for row in zip(
        tree.nodes, tree.time.tolist(), *tree.price.T.tolist(),
        ("null" if p < 0 else p for p in parent.tolist()),
        (", ".join(edges[a:b]) for a, b in zip([0] + ends, ends)),
        ("" if r < 0 else ', "regime": %d' % r for r in tree.regime.tolist())))
    tail = "" if claim is None else ', "claim": [%s]' % ", ".join("%.17g" % x for x in claim)
    return '{"num_assets": %d, "horizon": %d, "nodes": [%s]%s}' % (
        tree.num_assets, tree.horizon, nodes, tail)


def _is_id(x, n: int) -> bool:
    return type(x) is int and 0 <= x < n


def parse_tree(text: str) -> tuple[ScenarioTree, np.ndarray | None]:
    """Parse a document produced by serialize_tree into the tree and the
    claim's payoff array (None without one).  Raises BadParameter on text
    that is not JSON, or when the document contradicts itself: an id that
    is not its list position, a parent or child id out of range, a price
    row of the wrong length, children lists that disagree with the parent
    pointers, a num_assets or horizon that is not a non-negative integer,
    or a claim that is not a list of numbers, one per leaf."""
    try:
        doc = json.loads(text)
        nodes, num_assets = doc["nodes"], doc["num_assets"]
        n = len(nodes)
        parent = [-1 if nd["parent"] is None else nd["parent"] for nd in nodes]
        listed = [(i, c["id"], c["p"]) for i, nd in enumerate(nodes) for c in nd["children"]]
        horizon, claim = doc["horizon"], doc.get("claim")
        errors = [f"{name} {x!r} is not a non-negative integer"
                  for name, x in (("num_assets", num_assets), ("horizon", horizon))
                  if not (_is_int(x) and x >= 0)]
        errors += [f"node at list position {pos} has id {nd['id']}"
                   for pos, nd in enumerate(nodes) if nd["id"] != pos]
        errors += [f"parent {p!r} of node {i} out of range"
                   for i, p in enumerate(parent) if p != -1 and not _is_id(p, n)]
        errors += [f"child {c!r} of node {i} out of range"
                   for i, c, _ in listed if not _is_id(c, n)]
        time = [nd["time"] for nd in nodes]
        regime = [-1 if nd.get("regime") is None else nd["regime"] for nd in nodes]
        errors += [f"{key} {x!r} of node {i} is not an integer"
                   for key, xs in (("time", time), ("regime", regime))
                   for i, x in enumerate(xs) if type(x) is not int]
        errors += [f"price dimension mismatch at node {i}"
                   for i, nd in enumerate(nodes) if len(nd["price"]) != num_assets]
        errors += [f"{kind} price at node {i}" for i, nd in enumerate(nodes)
                   for kind, t in NOT_NUMBERS if any(isinstance(x, t) for x in nd["price"])]
        errors += [f"{kind} probability at node {i} child {c}"
                   for i, c, p in listed for kind, t in NOT_NUMBERS if isinstance(p, t)]
        prob, seen = [1.0] * n, [0] * n
        if not errors:
            for i, c, p in listed:
                prob[c] = float(p)
                seen[c] += 1
                if parent[c] != i:
                    errors.append(f"parent mismatch at node {c}")
            errors += [f"node {c} listed {k} times" for c, k in enumerate(seen) if k > 1]
            errors += [f"node {c} missing from the children of node {p}"
                       for c, (p, k) in enumerate(zip(parent, seen)) if p >= 0 and not k]
        if not errors:
            tree = ScenarioTree(
                num_assets=num_assets, horizon=horizon, parent=parent, time=time,
                price=np.array([nd["price"] for nd in nodes], dtype=float).reshape(n, num_assets),
                regime=regime, prob=prob,
            )
            leaves = len(tree.leaves())
            if claim is not None and not (isinstance(claim, list) and len(claim) == leaves
                                          and all(type(x) in (int, float) for x in claim)):
                errors.append(f"claim is not a list of {leaves} numbers, one per leaf")
    except (KeyError, TypeError, ValueError) as exc:
        raise BadParameter(f"malformed tree document: {exc}") from exc
    if errors:
        raise BadParameter("malformed tree document: " + "; ".join(errors))
    return tree, None if claim is None else np.array(claim, dtype=float)
