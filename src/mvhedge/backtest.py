"""Monte Carlo path simulation and strategy comparison.

Two evaluation modes: sampled (counter-based per-path randomness, so
results are reproducible independently of evaluation order or worker
count) and exact (every leaf weighted by its probability — the primary
acceptance path, since the trees are finite).

The baselines are special cases of the engine: gkw is the pure hedge on
the martingale surface (L = 1, a_tilde = 0), and markowitz and fixed
holdings are the feedback rollout with xi = 0 or a_tilde = 0.
"""
from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .errors import BadParameter, IncompatibleClaim
from .hedging import HedgePlan, compute_plan, hedging_error, rollout_strategy
from .opportunity import OpportunitySurface, martingale_surface
from .tree import Claim, ScenarioTree

STRATEGY_KINDS = ("mvh", "pure_xi", "gkw", "markowitz")


@dataclass
class BacktestReport:
    strategy: str
    num_paths: int
    mean_sq_error: float
    std_error: float
    analytic_error: float | None
    exact: bool


# Philox4x64-10 constants (Salmon et al., SC'11), as in numpy.random.Philox
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_LOW32 = 0xFFFFFFFF


def _mulhilo(a: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Low and high 64-bit words of the 128-bit products a * x for a
    uint64 array x, the high word from 32-bit partial products so that
    nothing overflows."""
    a_lo, a_hi = a & _LOW32, a >> 32
    x_lo, x_hi = x & _LOW32, x >> 32
    lh, hl = x_lo * a_hi, x_hi * a_lo
    mid = ((x_lo * a_lo) >> 32) + (lh & _LOW32) + (hl & _LOW32)
    hi = x_hi * a_hi + (lh >> 32) + (hl >> 32) + (mid >> 32)
    return x * a, hi


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


def _uniforms(seed: int, n: int, horizon: int) -> np.ndarray:
    """(n, horizon) doubles in [0, 1): row i is what
    Generator(Philox(key=seed, counter=[0, 0, i, 0])).random(horizon)
    draws, computed for all rows at once."""
    blocks = -(-horizon // 4)
    b, i = np.meshgrid(np.arange(1, blocks + 1, dtype=np.uint64),
                       np.arange(n, dtype=np.uint64))
    zero = np.zeros_like(b)
    words = np.stack(_philox4x64([b, zero, i, zero], seed), axis=-1)
    return (words.reshape(n, 4 * blocks)[:, :horizon] >> 11) * 2.0**-53


def _child_index(cdf: np.ndarray, k: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per row, the child that u selects from the +inf-padded cumulative
    probabilities cdf of a node with k children: the number of entries
    <= u, which is searchsorted(cdf, u, side="right"), kept below k."""
    return np.minimum((cdf <= u[:, None]).sum(axis=1), k - 1)


def sample_paths(tree: ScenarioTree, n: int, seed: int) -> list[int]:
    """Draw n root-to-leaf paths by the edge probabilities; returns leaf
    node ids.

    The draws are a fixed stream, so the paths can be re-derived outside
    this package.  Path i takes its horizon uniforms from Philox4x64-10
    with key (seed mod 2**64, seed >> 64): the four 64-bit words of
    counter block [b, 0, i, 0], b = 1, 2, ..., in order, each word x
    giving the double (x >> 11) * 2**-53.  This is exactly
    numpy.random.Generator(numpy.random.Philox(key=seed, counter=[0, 0,
    i, 0])).random(horizon), so path i depends only on (seed, i).  At
    step t the path moves from its node to the child that
    searchsorted(cumsum(probs), u_t, side="right") selects, capped at the
    last child, with probs in the order tree.step gives them."""
    if n < 1:
        raise BadParameter("need at least one path")
    if not 0 <= seed < 2**128:
        raise BadParameter(f"seed must be in [0, 2**128), got {seed}")
    inner = tree.nonterminal()
    steps = [tree.step(node)[:2] for node in inner]
    k = np.array([len(ids) for ids, _ in steps])
    row = np.zeros(len(tree.nodes), dtype=np.intp)
    row[[node.id for node in inner]] = np.arange(len(inner))
    cdf = np.full((len(inner), k.max()), np.inf)
    kids = np.zeros((len(inner), k.max()), dtype=np.intp)
    for r, (ids, probs) in enumerate(steps):
        cdf[r, :k[r]], kids[r, :k[r]] = np.cumsum(probs), ids
    u = _uniforms(seed, n, tree.horizon)
    nid = np.zeros(n, dtype=np.intp)
    for t in range(tree.horizon):
        r = row[nid]
        nid = kids[r, _child_index(cdf[r], k[r], u[:, t])]
    return nid.tolist()


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
    h = plan.V[[leaf.id for leaf in tree.leaves()]]
    if kind == "gkw":
        xi = compute_plan(tree, martingale_surface(tree), Claim(payoff=h)).xi
        return rollout_strategy(tree, xi, 0.0, 0.0, v0)
    if np.max(np.abs(h - h[0])) > 1e-12 * max(1.0, np.max(np.abs(h))):
        raise IncompatibleClaim("markowitz strategy requires a constant claim")
    return rollout_strategy(tree, 0.0, float(h[0]), surf.a_tilde, v0)


def exact_sq_error(tree: ScenarioTree, plan: HedgePlan, G: np.ndarray) -> float:
    """Full-tree expectation of the squared terminal hedging error of a
    strategy whose per-node wealth is G, summed leaf by leaf in leaf order."""
    ids = [leaf.id for leaf in tree.leaves()]
    err = G[ids] - plan.V[ids]
    return float(sum(tree.node_probs()[ids] * err * err))


def run_strategy(tree: ScenarioTree, surf: OpportunitySurface, plan: HedgePlan,
                 kind: str, v0: float, paths: list[int] | None = None,
                 exact: bool = False) -> BacktestReport:
    """Evaluate a strategy on sampled paths or by exact expectation.

    The claim is read off the plan's terminal values.  For kind='mvh'
    the analytic error of the closed-form decomposition is attached."""
    _, G = strategy_holdings(tree, surf, plan, kind, v0)
    analytic = hedging_error(tree, surf, plan, v0).total_error if kind == "mvh" else None
    if exact:
        mse = exact_sq_error(tree, plan, G)
        return BacktestReport(
            strategy=kind, num_paths=len(tree.leaves()), mean_sq_error=mse,
            std_error=0.0, analytic_error=analytic, exact=True,
        )
    if paths is None:
        raise BadParameter("sampled mode requires paths")
    errs = (G[paths] - plan.V[paths]) ** 2
    mean = float(np.mean(errs))
    std_err = float(np.std(errs, ddof=1) / np.sqrt(len(errs))) if len(errs) > 1 else 0.0
    return BacktestReport(
        strategy=kind, num_paths=len(paths), mean_sq_error=mean,
        std_error=std_err, analytic_error=analytic, exact=False,
    )


def compare_report(reports: list[BacktestReport]) -> str:
    """CSV comparison table with each strategy's error ratio to mvh."""
    if not reports:
        raise BadParameter("need at least one report")
    mvh = next((r for r in reports if r.strategy == "mvh"), reports[0])
    buf = io.StringIO()
    buf.write("strategy,n_paths,mean_sq_error,std_error,analytic_error,ratio_to_mvh\n")
    for r in reports:
        analytic = "" if r.analytic_error is None else format(r.analytic_error, ".17g")
        ratio = r.mean_sq_error / mvh.mean_sq_error if mvh.mean_sq_error > 0.0 else (
            1.0 if r.mean_sq_error == 0.0 else float("inf")
        )
        buf.write("%s,%d,%s,%s,%s,%s\n" % (
            r.strategy, r.num_paths,
            format(r.mean_sq_error, ".17g"),
            format(r.std_error, ".17g"),
            analytic,
            format(ratio, ".17g"),
        ))
    return buf.getvalue()
