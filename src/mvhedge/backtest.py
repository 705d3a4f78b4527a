"""Monte Carlo path simulation and strategy comparison.

Two evaluation modes: sampled (counter-based per-path randomness, so
results are reproducible independently of evaluation order) and exact
(every leaf weighted by its probability — the primary acceptance path,
since the trees are finite).

The baselines are special cases of the engine: gkw is the pure hedge on
the martingale surface (L = 1, a_tilde = 0), and markowitz and fixed
holdings are the feedback rollout with xi = 0 or a_tilde = 0.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import BadParameter, IncompatibleClaim, is_int, number
from .hedging import HedgePlan, compute_plan, hedging_error, rollout_strategy
from .opportunity import OpportunitySurface, martingale_surface
from .tree import ScenarioTree

STRATEGY_KINDS = ("mvh", "pure_xi", "gkw", "markowitz")
# at the 20-period horizon that MAX_LEAVES allows, drawing 2**20 paths
# peaks at 176 MB (tracemalloc), nearly all of it Philox's temporaries
MAX_PATHS = 2 ** 20


@dataclass
class BacktestReport:
    strategy: str
    num_paths: int
    mean_sq_error: float
    std_error: float
    analytic_error: float | None


# Philox4x64-10 constants (Salmon et al., SC'11), as in numpy.random.Philox
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_LOW32 = 0xFFFFFFFF


def _mulhilo(a: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Low and high 64-bit words of the 128-bit products a * x for a uint64
    array x, the high word by Hacker's Delight's mulhu, so nothing overflows."""
    a_lo, a_hi = a & _LOW32, a >> 32
    x_lo, x_hi = x & _LOW32, x >> 32
    t = x_hi * a_lo + ((x_lo * a_lo) >> 32)
    w = (t & _LOW32) + x_lo * a_hi
    return x * a, x_hi * a_hi + (t >> 32) + (w >> 32)


def _philox4x64(ctr: list[np.ndarray], key: int) -> list[np.ndarray]:
    """Philox4x64-10 of counter words ctr (four uint64 arrays) under a
    128-bit key, bumped by _PHILOX_W between rounds."""
    k0, k1 = key % 2**64, key >> 64
    v0, v1, v2, v3 = ctr
    for _ in range(_PHILOX_ROUNDS):
        lo0, hi0 = _mulhilo(_PHILOX_M[0], v0)
        lo1, hi1 = _mulhilo(_PHILOX_M[1], v2)
        v0, v1, v2, v3 = hi1 ^ v1 ^ k0, lo1, hi0 ^ v3 ^ k1, lo0
        k0, k1 = (k0 + _PHILOX_W[0]) % 2**64, (k1 + _PHILOX_W[1]) % 2**64
    return [v0, v1, v2, v3]


def _uniforms(seed: int, n: int, horizon: int) -> Iterator[np.ndarray]:
    """Yields horizon (n,) arrays of doubles in [0, 1), element i of the t-th
    being draw t of Generator(Philox(key=seed, counter=[0, 0, i, 0])).random(horizon),
    for all i together one counter block (four draws) at a time."""
    i = np.arange(n, dtype=np.uint64)
    zero = np.zeros(n, dtype=np.uint64)
    for first in range(0, horizon, 4):
        b = np.full(n, first // 4 + 1, dtype=np.uint64)
        for word in _philox4x64([b, zero, i, zero], seed)[:horizon - first]:
            yield (word >> 11) * 2.0**-53


def sample_paths(tree: ScenarioTree, n: int, seed: int) -> np.ndarray:
    """Draw n root-to-leaf paths by the edge probabilities; returns their
    leaf node ids as an (n,) intp array.

    The draws are a fixed stream, so the paths can be re-derived outside
    this package.  Path i takes its horizon uniforms from Philox4x64-10
    with key (seed mod 2**64, seed >> 64): the four 64-bit words of
    counter block [b, 0, i, 0], b = 1, 2, ..., in order, each word x
    giving the double (x >> 11) * 2**-53.  This is exactly
    numpy.random.Generator(numpy.random.Philox(key=seed, counter=[0, 0,
    i, 0])).random(horizon), so path i depends only on (seed, i).  At
    step t the path moves from its node to the child that
    searchsorted(cumsum(probs), u_t, side="right") selects, capped at the
    last child, with probs the node's edge probabilities in child order."""
    if not (is_int(n) and 1 <= n <= MAX_PATHS):
        raise BadParameter(f"paths must be in [1, 2**20], got {n!r}")
    if not (is_int(seed) and 0 <= seed < 2**128):
        raise BadParameter(f"seed must be in [0, 2**128), got {seed!r}")
    seed, lay = int(seed), tree.layout   # a numpy integer would overflow in the key
    # cdf[r, i]: inner node i's r-th cumulative probability (inner ids come
    # first), +inf from its last child on, so the rows <= u count the capped searchsorted
    cdf = np.full((np.diff(lay.offsets).max(initial=1) - 1, len(lay.inner)), np.inf)
    for steps in lay.steps:
        for s in steps:
            cdf[:s.probs.shape[1] - 1, s.ids] = np.cumsum(s.probs, axis=1)[:, :-1].T
    nid = np.zeros(n, dtype=np.intp)
    for u in _uniforms(seed, n, tree.horizon):
        nid = lay.offsets[nid] + 1 + sum(row[nid] <= u for row in cdf)
    return nid


def strategy_holdings(tree: ScenarioTree, surf: OpportunitySurface, plan: HedgePlan,
                      kind: str, v0: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-node holdings (NaN at terminals) and wealth of the requested
    strategy from endowment v0, as rollout_strategy returns them.

    mvh       feedback-optimal strategy
    pure_xi   pure hedge coefficient, no feedback
    gkw       martingale-style hedge: the pure hedge on the martingale
              surface, i.e. the conditional expectation of the payoff
              under P and its unweighted regression on price increments
    markowitz pure investment of the running deficit, requires a
              constant claim
    """
    if kind not in STRATEGY_KINDS:
        raise BadParameter(f"unknown strategy kind {kind!r}")
    if kind == "mvh":
        return rollout_strategy(tree, plan.xi, plan.V, surf.a_tilde, v0)
    if kind == "pure_xi":
        return rollout_strategy(tree, plan.xi, 0.0, 0.0, v0)
    h = plan.V[tree.leaves()]
    if kind == "gkw":
        xi = compute_plan(tree, martingale_surface(tree), h).xi
        return rollout_strategy(tree, xi, 0.0, 0.0, v0)
    if np.max(np.abs(h - h[0])) > 1e-12 * max(1.0, np.max(np.abs(h))):
        raise IncompatibleClaim("markowitz strategy requires a constant claim")
    return rollout_strategy(tree, 0.0, float(h[0]), surf.a_tilde, v0)


def exact_sq_error(tree: ScenarioTree, plan: HedgePlan, G: np.ndarray) -> float:
    """Full-tree expectation of the squared terminal hedging error of a
    strategy whose per-node wealth is G (one value per node, else
    BadParameter), summed leaf by leaf in leaf order."""
    if np.shape(G) != (len(tree.nodes),):
        raise BadParameter(f"wealth needs {len(tree.nodes)} values, got shape {np.shape(G)}")
    ids = tree.leaves()
    err = np.asarray(G)[ids] - plan.V[ids]
    return float(sum((tree.node_probs()[ids] * err * err).tolist()))


def run_strategy(tree: ScenarioTree, surf: OpportunitySurface, plan: HedgePlan, kind: str,
                 v0: float, paths: np.ndarray | list[int] | None = None) -> BacktestReport:
    """Evaluate a strategy on the sampled paths' leaf ids (an array or a
    list), or by exact expectation when paths is None.

    The claim is read off the plan's terminal values.  For kind='mvh'
    the analytic error of the closed-form decomposition is attached.
    BadParameter unless v0 is a finite number and paths a non-empty vector of leaf ids."""
    v0 = number(v0, "v0 must be a finite number")
    _, G = strategy_holdings(tree, surf, plan, kind, v0)
    analytic = hedging_error(tree, surf, plan, v0).total_error if kind == "mvh" else None
    if paths is None:
        return BacktestReport(kind, len(tree.leaves()), exact_sq_error(tree, plan, G), 0.0,
                              analytic)
    ids, first = np.asarray(paths), len(tree.layout.inner)   # inner ids come first, then leaves
    bad = ids[(ids < first) | (ids >= len(tree.nodes))] if ids.dtype.kind in "iu" else ids
    if ids.ndim != 1 or not ids.size or bad.size:
        raise BadParameter(f"paths must be a non-empty vector of leaf ids, got shape {ids.shape}"
                           + (f", first bad id {bad.flat[0]}" if bad.size else ""))
    errs = (G - plan.V)[ids] ** 2
    std_err = float(np.std(errs, ddof=1) / np.sqrt(len(errs))) if len(errs) > 1 else 0.0
    return BacktestReport(kind, len(ids), float(np.mean(errs)), std_err, analytic)


def compare_report(reports: list[BacktestReport]) -> str:
    """CSV comparison table with each strategy's error ratio to mvh (empty without one)."""
    if not reports:
        raise BadParameter("need at least one report")
    mvh = next((r for r in reports if r.strategy == "mvh"), None)
    rows = ["strategy,n_paths,mean_sq_error,std_error,analytic_error,ratio_to_mvh\n"]
    for r in reports:
        analytic = "" if r.analytic_error is None else "%.17g" % r.analytic_error
        ratio = "" if mvh is None else "%.17g" % (
            r.mean_sq_error / mvh.mean_sq_error if mvh.mean_sq_error > 0.0
            else 1.0 if r.mean_sq_error == 0.0 else float("inf"))
        rows.append("%s,%d,%.17g,%.17g,%s,%s\n" % (
            r.strategy, r.num_paths, r.mean_sq_error, r.std_error, analytic, ratio))
    return "".join(rows)
