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


def sample_paths(tree: ScenarioTree, n: int, seed: int) -> list[int]:
    """Draw n root-to-leaf paths by the edge probabilities; returns leaf
    node ids.  Path i consumes its own counter block of the Philox
    stream keyed by seed, so the result depends only on (seed, i)."""
    if n < 1:
        raise BadParameter("need at least one path")
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
            nid = children[int(np.searchsorted(cdf, u[t], side="right").clip(0, len(children) - 1))]
        out.append(nid)
    return out


def strategy_holdings(tree: ScenarioTree, surf: OpportunitySurface, plan: HedgePlan,
                      kind: str, v0: float) -> np.ndarray:
    """Per-node holdings of the requested strategy (NaN at terminals).

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
        return rollout_strategy(tree, plan.xi, plan.V, surf.a_tilde, v0)[0]
    if kind == "pure_xi":
        return plan.xi.copy()
    h = plan.V[[leaf.id for leaf in tree.leaves()]]
    if kind == "gkw":
        return compute_plan(tree, martingale_surface(tree), Claim(payoff=h)).xi
    if np.max(np.abs(h - h[0])) > 1e-12 * max(1.0, np.max(np.abs(h))):
        raise IncompatibleClaim("markowitz strategy requires a constant claim")
    return rollout_strategy(tree, 0.0, float(h[0]), surf.a_tilde, v0)[0]


def exact_sq_error(tree: ScenarioTree, plan: HedgePlan, holdings: np.ndarray,
                   v0: float) -> float:
    """Full-tree expectation of the squared terminal hedging error."""
    _, G = rollout_strategy(tree, holdings, 0.0, 0.0, v0)
    probs = tree.node_probs()
    total = 0.0
    for leaf in tree.leaves():
        err = G[leaf.id] - plan.V[leaf.id]
        total += probs[leaf.id] * err * err
    return total


def run_strategy(tree: ScenarioTree, surf: OpportunitySurface, plan: HedgePlan,
                 kind: str, v0: float, paths: list[int] | None = None,
                 exact: bool = False) -> BacktestReport:
    """Evaluate a strategy on sampled paths or by exact expectation.

    The claim is read off the plan's terminal values.  For kind='mvh'
    the analytic error of the closed-form decomposition is attached."""
    holdings = strategy_holdings(tree, surf, plan, kind, v0)
    analytic = hedging_error(tree, surf, plan, v0).total_error if kind == "mvh" else None
    if exact:
        mse = exact_sq_error(tree, plan, holdings, v0)
        return BacktestReport(
            strategy=kind, num_paths=len(tree.leaves()), mean_sq_error=mse,
            std_error=0.0, analytic_error=analytic, exact=True,
        )
    if paths is None:
        raise BadParameter("sampled mode requires paths")
    _, G = rollout_strategy(tree, holdings, 0.0, 0.0, v0)
    errs = np.array([(G[leaf] - plan.V[leaf]) ** 2 for leaf in paths])
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
