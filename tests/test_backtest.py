import numpy as np
import pytest

import mvhedge as mv
import mvhedge.backtest as bt
from mvhedge.backtest import _uniforms

from gen import (
    binomial_06,
    gkw_holdings_loop,
    markowitz_holdings_loop,
    martingale_trinomial,
    random_claim,
    random_tree,
    sample_paths_loop,
    uneven_regime_tree,
)

SAMPLER_SEEDS = (0, 1, 2**32 + 1, 2**64 - 1, 2**64, 2**127 + 3, 2**128 - 1)
SAMPLER_TREES = {
    "binomial": lambda periods: mv.build_binomial([10.0], 1.1, 0.9, 0.6, periods),
    "iid_trinomial": martingale_trinomial,
    "uneven_regime": uneven_regime_tree,
}


def drifted_tree(periods=3):
    return mv.build_iid_multinomial(
        [10.0], [([1.0], 0.4), ([0.0], 0.35), ([-1.0], 0.25)], periods,
    )


def setup(tree, claim):
    surf = mv.compute_opportunity(tree)
    plan = mv.compute_plan(tree, surf, claim)
    return surf, plan


def test_sample_paths_deterministic():
    tree = binomial_06(periods=3)
    a = mv.sample_paths(tree, 500, seed=7)
    b = mv.sample_paths(tree, 500, seed=7)
    assert a == b
    c = mv.sample_paths(tree, 500, seed=8)
    assert a != c


def test_sample_paths_prefix_stable():
    # path i depends only on (seed, i), not on how many paths are drawn
    tree = binomial_06(periods=3)
    assert mv.sample_paths(tree, 50, seed=3) == mv.sample_paths(tree, 200, seed=3)[:50]


def test_sample_paths_frequencies():
    tree = binomial_06(periods=1)
    n = 100_000
    paths = mv.sample_paths(tree, n, seed=11)
    up_leaf = 1
    frac = sum(1 for leaf in paths if leaf == up_leaf) / n
    assert abs(frac - 0.6) <= 4.0 * np.sqrt(0.24 / n)


@pytest.mark.parametrize("periods", range(1, 10))
@pytest.mark.parametrize("kind", SAMPLER_TREES)
def test_sample_paths_equal_per_path_generators(kind, periods):
    # horizons 1..9 cross the 4-draw Philox block edges at 4->5 and 8->9
    tree = SAMPLER_TREES[kind](periods)
    for seed in SAMPLER_SEEDS:
        assert mv.sample_paths(tree, 40, seed) == sample_paths_loop(tree, 40, seed)


@pytest.mark.parametrize("seed", SAMPLER_SEEDS)
def test_uniforms_equal_numpy_generator(seed):
    for horizon in range(1, 10):
        ref = [np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, i, 0]))
               .random(horizon) for i in range(6)]
        assert np.array_equal(_uniforms(seed, 6, horizon), np.array(ref))


def test_child_index_matches_searchsorted(monkeypatch):
    laws = [[0.25, 0.5, 0.25], [0.1] * 10, [0.3, 0.7], [1 / 3] * 3, [0.5, 0.5]]
    for p in laws:
        tree = mv.build_iid_multinomial([10.0], [([float(j)], q) for j, q in enumerate(p)], 1)
        row = np.cumsum(tree.prob[1:])
        # u exactly on every cdf entry, just below and above them, and
        # above the last entry (which may round below 1)
        us = np.concatenate([row, np.nextafter(row, 0.0), np.nextafter(row, 2.0),
                             [0.0, 1.0 - 2.0**-53, 0.999]])
        us = us[us < 1.0]
        monkeypatch.setattr(bt, "_uniforms", lambda seed, n, horizon: us[:, None])
        got = [leaf - 1 for leaf in mv.sample_paths(tree, len(us), seed=0)]
        want = [min(int(np.searchsorted(row, u, side="right")), len(p) - 1) for u in us]
        assert got == want


def test_sample_paths_zero_periods():
    # a 0-period tree has no inner node and no child: every path ends at the root
    tree = mv.ScenarioTree(num_assets=1, horizon=0, parent=[-1], time=[0], price=[[10.0]],
                           regime=[-1], prob=[1.0])
    assert mv.sample_paths(tree, 3, seed=1) == [0, 0, 0]


def test_sample_paths_bad_count():
    with pytest.raises(mv.BadParameter):
        mv.sample_paths(binomial_06(), 0, seed=1)


def test_sample_paths_bad_seed():
    with pytest.raises(mv.BadParameter):
        mv.sample_paths(binomial_06(), 5, seed=-1)


@pytest.mark.parametrize("n,seed", [(1.5, 1), (5.0, 1), (True, 1), ("5", 1),
                                    (5, 1.5), (5, True), (5, None)])
def test_sample_paths_non_integer_arguments(n, seed):
    # a float or a boolean would otherwise be truncated to an integer
    with pytest.raises(mv.BadParameter, match="must be in"):
        mv.sample_paths(binomial_06(), n, seed)


def test_exact_mvh_matches_analytic():
    tree = drifted_tree()
    claim = mv.attach_claim(tree, "call", strike=10.0)
    surf, plan = setup(tree, claim)
    rep = mv.run_strategy(tree, surf, plan, "mvh", plan.v0)
    assert rep.analytic_error is not None
    assert rep.mean_sq_error == pytest.approx(rep.analytic_error, rel=1e-9)


def test_exact_sq_error_equals_leaf_loop():
    tree = drifted_tree()
    claim = mv.attach_claim(tree, "call", strike=10.0)
    surf, plan = setup(tree, claim)
    _, G = mv.strategy_holdings(tree, surf, plan, "pure_xi", plan.v0)
    probs = tree.node_probs()
    total = 0.0
    for leaf in tree.leaves():
        err = G[leaf] - plan.V[leaf]
        total += probs[leaf] * err * err
    assert mv.exact_sq_error(tree, plan, G) == total


def test_exact_mvh_beats_alternatives():
    tree = drifted_tree()
    claim = mv.attach_claim(tree, "call", strike=10.0)
    surf, plan = setup(tree, claim)
    mvh = mv.run_strategy(tree, surf, plan, "mvh", plan.v0)
    for kind in ("pure_xi", "gkw"):
        alt = mv.run_strategy(tree, surf, plan, kind, plan.v0)
        assert alt.mean_sq_error >= mvh.mean_sq_error - 1e-14


def test_martingale_gkw_equals_mvh():
    tree = martingale_trinomial(periods=2)
    claim = mv.attach_claim(tree, "call", strike=10.0)
    surf, plan = setup(tree, claim)
    h_mvh, _ = mv.strategy_holdings(tree, surf, plan, "mvh", plan.v0)
    h_gkw, _ = mv.strategy_holdings(tree, surf, plan, "gkw", plan.v0)
    for i in tree.layout.inner:
        assert np.allclose(h_mvh[i], h_gkw[i], atol=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_baselines_equal_their_own_loops(seed):
    # gkw and markowitz run through the engine; they must reproduce the
    # dedicated loops bit for bit
    rng = np.random.default_rng(900 + seed)
    tree = random_tree(rng)
    surf, plan = setup(tree, random_claim(rng, tree))
    gkw, _ = mv.strategy_holdings(tree, surf, plan, "gkw", plan.v0)
    assert np.array_equal(gkw, gkw_holdings_loop(tree, plan), equal_nan=True)
    const = mv.attach_claim(tree, "per_leaf", values=np.full(len(tree.leaves()), 1.5))
    surf, plan = setup(tree, const)
    mkz, _ = mv.strategy_holdings(tree, surf, plan, "markowitz", 0.25)
    assert np.array_equal(mkz, markowitz_holdings_loop(tree, surf, 1.5, 0.25), equal_nan=True)


def test_markowitz_requires_constant_claim():
    tree = drifted_tree()
    claim = mv.attach_claim(tree, "call", strike=10.0)
    surf, plan = setup(tree, claim)
    with pytest.raises(mv.IncompatibleClaim):
        mv.strategy_holdings(tree, surf, plan, "markowitz", 0.0)


def test_markowitz_matches_mvh_on_constant_claim():
    tree = drifted_tree()
    claim = mv.attach_claim(tree, "per_leaf", values=np.full(len(tree.leaves()), 2.0))
    surf, plan = setup(tree, claim)
    h_mkz, _ = mv.strategy_holdings(tree, surf, plan, "markowitz", 0.5)
    h_mvh, _ = mv.strategy_holdings(tree, surf, plan, "mvh", 0.5)
    for i in tree.layout.inner:
        assert np.allclose(h_mkz[i], h_mvh[i], atol=1e-12)


def test_sampled_mvh_within_three_stderr():
    tree = drifted_tree(periods=4)
    claim = mv.attach_claim(tree, "call", strike=10.0)
    surf, plan = setup(tree, claim)
    paths = mv.sample_paths(tree, 20_000, seed=5)
    rep = mv.run_strategy(tree, surf, plan, "mvh", plan.v0, paths=paths)
    assert abs(rep.mean_sq_error - rep.analytic_error) <= 3.0 * rep.std_error


def test_reports_reproducible():
    tree = drifted_tree()
    claim = mv.attach_claim(tree, "call", strike=10.0)
    surf, plan = setup(tree, claim)
    paths = mv.sample_paths(tree, 2000, seed=9)
    r1 = mv.run_strategy(tree, surf, plan, "mvh", plan.v0, paths=paths)
    r2 = mv.run_strategy(tree, surf, plan, "mvh", plan.v0,
                         paths=mv.sample_paths(tree, 2000, seed=9))
    assert mv.compare_report([r1]) == mv.compare_report([r2])


def test_compare_report_single_row():
    tree = binomial_06()
    claim = mv.attach_claim(tree, "call", strike=10.0)
    surf, plan = setup(tree, claim)
    rep = mv.run_strategy(tree, surf, plan, "mvh", plan.v0)
    table = mv.compare_report([rep])
    lines = table.strip().splitlines()
    assert lines[0].startswith("strategy,")
    assert len(lines) == 2
    assert lines[1].split(",")[-1] == "1"


def test_compare_report_without_mvh_leaves_the_ratio_empty():
    tree = drifted_tree()
    claim = mv.attach_claim(tree, "call", strike=10.0)
    surf, plan = setup(tree, claim)
    reports = [mv.run_strategy(tree, surf, plan, k, plan.v0) for k in ("gkw", "pure_xi")]
    rows = mv.compare_report(reports).strip().splitlines()
    assert rows[0].endswith(",ratio_to_mvh")
    assert [row.split(",")[0] for row in rows[1:]] == ["gkw", "pure_xi"]
    assert all(row.endswith(",") for row in rows[1:])


def test_compare_report_drifted_ranking():
    tree = drifted_tree()
    claim = mv.attach_claim(tree, "call", strike=10.0)
    surf, plan = setup(tree, claim)
    reports = [
        mv.run_strategy(tree, surf, plan, k, plan.v0)
        for k in ("mvh", "pure_xi", "gkw")
    ]
    table = mv.compare_report(reports)
    rows = table.strip().splitlines()[1:]
    ratios = [float(r.split(",")[-1]) for r in rows]
    assert ratios[0] == pytest.approx(1.0)
    assert all(r >= 1.0 - 1e-12 for r in ratios[1:])
