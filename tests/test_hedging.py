import numpy as np
import pytest

import mvhedge as mv

from gen import binomial_06, martingale_trinomial, random_claim, random_tree, rollout_path


def make_call(tree, strike=10.0):
    return mv.attach_claim(tree, "call", strike=strike)


def test_constant_claim():
    tree = binomial_06(periods=2)
    surf = mv.compute_opportunity(tree)
    claim = mv.attach_claim(tree, "per_leaf", values=np.full(len(tree.leaves()), 3.0))
    plan = mv.compute_plan(tree, surf, claim)
    assert np.allclose(plan.V, 3.0, atol=1e-12)
    for node in tree.nonterminal():
        assert np.allclose(plan.xi[node.id], 0.0, atol=1e-12)


def test_weight_sum_violation_raises():
    tree = binomial_06(periods=2)
    surf = mv.compute_opportunity(tree)
    surf.a_tilde[0] += 1.0
    with pytest.raises(mv.DegenerateStep) as info:
        mv.compute_mean_value(tree, surf, make_call(tree))
    assert info.value.node_id == 0


def test_complete_binomial_replication():
    tree = mv.build_iid_multinomial([10.0], [([1.0], 0.6), ([-1.0], 0.4)], 1)
    surf = mv.compute_opportunity(tree)
    plan = mv.compute_plan(tree, surf, make_call(tree))
    assert plan.V[0] == pytest.approx(0.5)
    assert plan.xi[0][0] == pytest.approx(0.5)
    _, G = mv.rollout_strategy(tree, plan.xi, plan.V, surf.a_tilde, 0.5)
    for leaf in tree.leaves():
        assert G[leaf.id] == pytest.approx(plan.V[leaf.id], abs=1e-12)
    assert mv.hedging_error(tree, surf, plan, 0.5).total_error == pytest.approx(0.0, abs=1e-15)


def test_trinomial_hand_case():
    tree = martingale_trinomial()
    surf = mv.compute_opportunity(tree)
    plan = mv.compute_plan(tree, surf, make_call(tree))
    assert plan.V[0] == pytest.approx(0.3)
    assert plan.xi[0][0] == pytest.approx(0.5)
    _, G = mv.rollout_strategy(tree, plan.xi, plan.V, surf.a_tilde, 0.3)
    errors = sorted(plan.V[leaf.id] - G[leaf.id] for leaf in tree.leaves())
    assert errors == pytest.approx([-0.3, 0.2, 0.2])
    report = mv.hedging_error(tree, surf, plan, 0.3)
    assert report.total_error == pytest.approx(0.06)
    assert report.endowment_term == pytest.approx(0.0)
    # shifted endowment adds L0 (v0 - V0)^2
    shifted = mv.hedging_error(tree, surf, plan, 0.5)
    assert shifted.total_error == pytest.approx(0.10)


def test_martingale_feedback_is_pure_hedge():
    rng = np.random.default_rng(3)
    tree = random_tree(rng, martingale=True)
    surf = mv.compute_opportunity(tree)
    claim = random_claim(rng, tree)
    plan = mv.compute_plan(tree, surf, claim)
    phi, _ = mv.rollout_strategy(tree, plan.xi, plan.V, surf.a_tilde, plan.v0 + 1.7)
    for node in tree.nonterminal():
        assert np.allclose(phi[node.id], plan.xi[node.id], atol=1e-12)
    # V reduces to plain conditional expectation under the physical measure
    probs = tree.node_probs()
    for node in tree.nonterminal():
        kids, p, _ = tree.step(node)
        assert plan.V[node.id] == pytest.approx(float(p @ plan.V[kids]), rel=1e-10, abs=1e-10)


def test_fs_residual_hand_cases():
    tree = martingale_trinomial()
    surf = mv.compute_opportunity(tree)
    plan = mv.compute_plan(tree, surf, make_call(tree))
    assert mv.fs_residual_check(tree, surf, plan) <= 1e-12

    tree2 = binomial_06()
    surf2 = mv.compute_opportunity(tree2)
    plan2 = mv.compute_plan(tree2, surf2, make_call(tree2))
    assert mv.fs_residual_check(tree2, surf2, plan2) <= 1e-12


@pytest.mark.parametrize("seed", range(10))
def test_v_is_one_step_qstar_martingale(seed):
    rng = np.random.default_rng(600 + seed)
    tree = random_tree(rng)
    surf = mv.compute_opportunity(tree)
    claim = random_claim(rng, tree)
    plan = mv.compute_plan(tree, surf, claim)
    mea = mv.measures(tree, surf)
    scale = max(1.0, np.max(np.abs(claim.payoff)))
    for node in tree.nonterminal():
        i = node.id
        kids, p, _ = tree.step(node)
        assert float((p * mea.qstar_w[i]) @ plan.V[kids]) == pytest.approx(
            plan.V[i], abs=1e-10 * scale
        )


@pytest.mark.parametrize("seed", range(10))
def test_error_terms_nonnegative_and_residual(seed):
    rng = np.random.default_rng(700 + seed)
    tree = random_tree(rng)
    surf = mv.compute_opportunity(tree)
    claim = random_claim(rng, tree)
    plan = mv.compute_plan(tree, surf, claim)
    report = mv.hedging_error(tree, surf, plan, plan.v0)
    scale = max(1.0, np.max(np.abs(claim.payoff)))
    for node in tree.nonterminal():
        assert report.e[node.id] >= -1e-12 * scale * scale
    assert mv.fs_residual_check(tree, surf, plan) <= 1e-9 * scale
    # decomposition is exact as computed
    probs = tree.node_probs()
    total = report.endowment_term + sum(
        probs[n.id] * report.e[n.id] for n in tree.nonterminal()
    )
    assert report.total_error == pytest.approx(total, rel=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_oracle_equivalence_random(seed):
    rng = np.random.default_rng(800 + seed)
    tree = random_tree(rng)
    surf = mv.compute_opportunity(tree)
    claim = random_claim(rng, tree)
    plan = mv.compute_plan(tree, surf, claim)
    report = mv.hedging_error(tree, surf, plan, plan.v0)
    sol = mv.lsq_projection(tree, claim, "free")
    scale = max(1.0, np.max(np.abs(claim.payoff)))
    assert sol.v0_opt == pytest.approx(plan.v0, abs=1e-9 * scale)
    assert report.total_error == pytest.approx(sol.min_error, rel=1e-9, abs=1e-12 * scale**2)
    _, G = mv.rollout_strategy(tree, plan.xi, plan.V, surf.a_tilde, plan.v0)
    assert np.max(np.abs(G - sol.value_process)) <= 1e-9 * scale


@pytest.mark.parametrize("offset", [-2.0, -0.5, 0.5, 2.0])
def test_endowment_quadratic(offset):
    rng = np.random.default_rng(17)
    tree = random_tree(rng)
    surf = mv.compute_opportunity(tree)
    claim = random_claim(rng, tree)
    plan = mv.compute_plan(tree, surf, claim)
    base = mv.hedging_error(tree, surf, plan, plan.v0).total_error
    shifted = mv.hedging_error(tree, surf, plan, plan.v0 + offset).total_error
    assert shifted - base == pytest.approx(surf.L[0] * offset * offset, rel=1e-12)
    # and the rollout achieves it exactly
    exact = mv.exact_sq_error(
        tree, plan, mv.strategy_holdings(tree, surf, plan, "mvh", plan.v0 + offset)[1],
    )
    scale = max(1.0, np.max(np.abs(plan.V)))
    assert exact == pytest.approx(shifted, rel=1e-9, abs=1e-12 * scale * scale)


def test_rollout_path_matches_full_rollout():
    rng = np.random.default_rng(23)
    tree = random_tree(rng)
    surf = mv.compute_opportunity(tree)
    claim = random_claim(rng, tree)
    plan = mv.compute_plan(tree, surf, claim)
    _, G = mv.rollout_strategy(tree, plan.xi, plan.V, surf.a_tilde, plan.v0)
    leaf = tree.leaves()[0]
    path = tree.path_nodes(leaf.id)
    _, wealth = rollout_path(tree, surf, plan, plan.v0, path)
    assert wealth[-1] == pytest.approx(G[leaf.id], rel=1e-12)
