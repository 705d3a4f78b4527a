import numpy as np
import pytest

import mvhedge as mv

from gen import (
    binomial_06,
    gkw_holdings_loop,
    markowitz_holdings_loop,
    martingale_trinomial,
    random_claim,
    random_tree,
)


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
    up_leaf = tree.root.children[0][0]
    frac = sum(1 for leaf in paths if leaf == up_leaf) / n
    assert abs(frac - 0.6) <= 4.0 * np.sqrt(0.24 / n)


def test_sample_paths_bad_count():
    with pytest.raises(mv.BadParameter):
        mv.sample_paths(binomial_06(), 0, seed=1)


def test_exact_mvh_matches_analytic():
    tree = drifted_tree()
    claim = mv.attach_claim(tree, "call", strike=10.0)
    surf, plan = setup(tree, claim)
    rep = mv.run_strategy(tree, surf, plan, "mvh", plan.v0, exact=True)
    assert rep.analytic_error is not None
    assert rep.mean_sq_error == pytest.approx(rep.analytic_error, rel=1e-9)


def test_exact_mvh_beats_alternatives():
    tree = drifted_tree()
    claim = mv.attach_claim(tree, "call", strike=10.0)
    surf, plan = setup(tree, claim)
    mvh = mv.run_strategy(tree, surf, plan, "mvh", plan.v0, exact=True)
    for kind in ("pure_xi", "gkw"):
        alt = mv.run_strategy(tree, surf, plan, kind, plan.v0, exact=True)
        assert alt.mean_sq_error >= mvh.mean_sq_error - 1e-14


def test_martingale_gkw_equals_mvh():
    tree = martingale_trinomial(periods=2)
    claim = mv.attach_claim(tree, "call", strike=10.0)
    surf, plan = setup(tree, claim)
    h_mvh = mv.strategy_holdings(tree, surf, plan, "mvh", plan.v0)
    h_gkw = mv.strategy_holdings(tree, surf, plan, "gkw", plan.v0)
    for node in tree.nonterminal():
        assert np.allclose(h_mvh[node.id], h_gkw[node.id], atol=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_baselines_equal_their_own_loops(seed):
    # gkw and markowitz run through the engine; they must reproduce the
    # dedicated loops bit for bit
    rng = np.random.default_rng(900 + seed)
    tree = random_tree(rng)
    surf, plan = setup(tree, random_claim(rng, tree))
    gkw = mv.strategy_holdings(tree, surf, plan, "gkw", plan.v0)
    assert np.array_equal(gkw, gkw_holdings_loop(tree, plan), equal_nan=True)
    const = mv.attach_claim(tree, "per_leaf", values=np.full(len(tree.leaves()), 1.5))
    surf, plan = setup(tree, const)
    mkz = mv.strategy_holdings(tree, surf, plan, "markowitz", 0.25)
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
    h_mkz = mv.strategy_holdings(tree, surf, plan, "markowitz", 0.5)
    h_mvh = mv.strategy_holdings(tree, surf, plan, "mvh", 0.5)
    for node in tree.nonterminal():
        assert np.allclose(h_mkz[node.id], h_mvh[node.id], atol=1e-12)


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
    rep = mv.run_strategy(tree, surf, plan, "mvh", plan.v0, exact=True)
    table = mv.compare_report([rep])
    lines = table.strip().splitlines()
    assert lines[0].startswith("strategy,")
    assert len(lines) == 2
    assert lines[1].split(",")[-1] == "1"


def test_compare_report_drifted_ranking():
    tree = drifted_tree()
    claim = mv.attach_claim(tree, "call", strike=10.0)
    surf, plan = setup(tree, claim)
    reports = [
        mv.run_strategy(tree, surf, plan, k, plan.v0, exact=True)
        for k in ("mvh", "pure_xi", "gkw")
    ]
    table = mv.compare_report(reports)
    rows = table.strip().splitlines()[1:]
    ratios = [float(r.split(",")[-1]) for r in rows]
    assert ratios[0] == pytest.approx(1.0)
    assert all(r >= 1.0 - 1e-12 for r in ratios[1:])
