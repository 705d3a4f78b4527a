"""The benchmark's workloads: a seed becomes an mvhedge CLI config.

Each workload fixes the asset count, branching, periods and path count,
so the work done does not depend on the seed.  The seed draws only the
increment-law probabilities and deltas (within fixed ranges), the strike
and the backtest path seed.  Draws whose opportunity process at the root
is below L0_FLOOR are redrawn, as the test generators do, so every input
stays at desk scale.

hedge_1d is runnable but not among the workloads of BENCHMARK.json: on a
shared 2-vCPU host its wall time (5 to 9 s a command, most of it
per-node Python over 88,573 nodes) spread 0.22 and 0.26 between quartiles
of ten runs, against a largest allowed bound of 0.25.  backtest_2d runs
the same per-node sweeps, with d = 2 and uneven branching.

backtest_2d has 5 periods (16,807 nodes) so that a command takes about
3 s and a 50 s run times a dozen of them.  With 6 periods (117,649
nodes) on the same shared 2-vCPU host a command took 10 to 12 s, a run
timed only 4, and the run medians spread 0.18 and 0.31 between
quartiles of ten runs.

Besides the config, each workload carries values the benchmark checks
the CLI's outputs against: the node and leaf counts of its tree and the
root opportunity value L0 from a recursion over (time, regime) that
shares no code with mvhedge (hedge_1d and verify_oracle print L0).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NAMES = ("hedge_1d", "backtest_2d", "verify_oracle")
L0_FLOOR = 0.05


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]   # CLI arguments after `python -m mvhedge.cli`
    config: dict            # the JSON config the arguments refer to
    nodes: int
    leaves: int
    L0: float


def _law(rng, points: int, assets: int, lo: float, hi: float, p_lo: float, p_hi: float):
    """An increment law of `points` deltas drawn in [lo, hi] per asset,
    with probabilities drawn in [p_lo, p_hi] and normalized."""
    p = rng.uniform(p_lo, p_hi, size=points)
    p = p / p.sum()
    deltas = rng.uniform(lo, hi, size=(points, assets))
    return [{"delta": [float(x) for x in row], "p": float(q)} for row, q in zip(deltas, p)]


def regime_shape_and_L0(laws, transition, initial: int, periods: int) -> tuple[int, int, float]:
    """Node count, leaf count and L0 of a regime tree (an iid tree is one regime).

    A node's children are (law point, next regime) pairs with positive
    transition probability.  L at a node depends only on its time and
    regime: additive increments are the same everywhere, and scaling the
    increments of a multiplicative law by the positive prices leaves
    L = m0 - b' c^+ b unchanged.
    """
    trans = np.asarray(transition, dtype=float)
    regimes = range(len(laws))
    count = np.zeros(len(laws))
    count[initial] = 1.0
    nodes = 1
    for _ in range(periods):
        nxt = np.zeros(len(laws))
        for r in regimes:
            for s in regimes:
                if trans[r, s] > 0.0:
                    nxt[s] += count[r] * len(laws[r])
        count = nxt
        nodes += int(count.sum())
    L = np.ones(len(laws))
    for _ in range(periods):
        prev = np.empty(len(laws))
        for r in regimes:
            w, d = [], []
            for point in laws[r]:
                for s in regimes:
                    if trans[r, s] > 0.0:
                        w.append(point["p"] * trans[r, s] * L[s])
                        d.append(point["delta"])
            w, d = np.array(w), np.array(d)
            b = d.T @ w
            c = (d.T * w) @ d
            prev[r] = w.sum() - b @ np.linalg.pinv(c) @ b
        L = prev
    return nodes, int(count.sum()), float(L[initial])


def _draw(name: str, rng, tiny: bool):
    """One draw of (argv, config, laws, transition) for a workload."""
    if name == "hedge_1d":
        # 1-asset additive trinomial with drift, 10 periods, a call.
        p_up, p_down = rng.uniform(0.28, 0.38), rng.uniform(0.24, 0.32)
        laws = [[
            {"delta": [float(rng.uniform(0.8, 1.2))], "p": float(p_up)},
            {"delta": [float(rng.uniform(-0.1, 0.1))], "p": float(1.0 - p_up - p_down)},
            {"delta": [float(rng.uniform(-1.2, -0.8))], "p": float(p_down)},
        ]]
        model = {"type": "iid", "s0": [10.0], "increments": laws[0],
                 "periods": 3 if tiny else 10, "mode": "additive"}
        cfg = {"model": model, "claim": {"type": "call", "strike": float(rng.uniform(9.0, 11.0))},
               "v0": "auto"}
        return ("hedge", "--config", "config.json", "--out", "out"), cfg, laws, [[1.0]]
    if name == "backtest_2d":
        # 2-asset multiplicative tree with two regimes whose laws have 3 and
        # 4 points: 6 or 8 children per node, 5 periods, sampled backtest.
        laws = [_law(rng, 3, 2, -0.12, 0.15, 0.2, 0.45),
                _law(rng, 4, 2, -0.2, 0.22, 0.15, 0.35)]
        transition = [[0.75, 0.25], [0.375, 0.625]]
        model = {"type": "regime", "s0": [10.0, 8.0], "regimes": laws, "transition": transition,
                 "initial_regime": 0, "periods": 2 if tiny else 5, "mode": "multiplicative"}
        cfg = {"model": model, "claim": {"type": "call", "strike": float(rng.uniform(9.0, 11.0))},
               "v0": "auto", "seed": int(rng.integers(0, 2 ** 31)),
               "paths": 500 if tiny else 20000, "strategies": ["mvh", "pure_xi", "gkw"]}
        return ("backtest", "--config", "config.json", "--out", "out"), cfg, laws, transition
    if name == "verify_oracle":
        # 2-asset additive iid tree with a 4-point law, 5 periods: 1,024
        # leaves, at the oracle's size bound.
        laws = [_law(rng, 4, 2, -1.2, 1.2, 0.15, 0.35)]
        model = {"type": "iid", "s0": [10.0, 10.0], "increments": laws[0],
                 "periods": 2 if tiny else 5, "mode": "additive"}
        cfg = {"model": model, "claim": {"type": "call", "strike": float(rng.uniform(9.0, 11.0))}}
        return ("verify", "--config", "config.json"), cfg, laws, [[1.0]]
    raise ValueError(f"unknown workload {name!r}")


def make(name: str, seed: int, tiny: bool = False) -> Workload:
    """The workload's inputs for `seed`; `tiny` shrinks periods and paths
    for the benchmark's self-test."""
    rng = np.random.default_rng([NAMES.index(name), seed])
    while True:
        argv, cfg, laws, transition = _draw(name, rng, tiny)
        model = cfg["model"]
        nodes, leaves, L0 = regime_shape_and_L0(
            laws, transition, model.get("initial_regime", 0), model["periods"])
        if L0 >= L0_FLOOR:
            return Workload(name, argv, cfg, nodes, leaves, L0)
