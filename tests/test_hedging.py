import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mvhedge as mv

from gen import (binomial_06, dense_gram, martingale_trinomial, parse_tree, random_claim,
                 random_tree, reverse_children, rollout_path, shift_adjustment, singular,
                 split_child, step, uneven_regime_args, uneven_regime_tree)


def make_call(tree, strike=10.0):
    return mv.attach_claim(tree, "call", strike=strike)


def test_constant_claim():
    tree = binomial_06(periods=2)
    surf = mv.compute_opportunity(tree)
    claim = mv.attach_claim(tree, "per_leaf", values=np.full(len(tree.leaves()), 3.0))
    plan = mv.compute_plan(tree, surf, claim)
    assert np.allclose(plan.V, 3.0, atol=1e-12)
    for i in tree.layout.inner:
        assert np.allclose(plan.xi[i], 0.0, atol=1e-12)


def test_weight_sum_violation_raises():
    tree = binomial_06(periods=2)
    surf = mv.compute_opportunity(tree)
    shift_adjustment(tree, surf, [0])
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
        assert G[leaf] == pytest.approx(plan.V[leaf], abs=1e-12)
    assert mv.hedging_error(tree, surf, plan, 0.5).total_error == pytest.approx(0.0, abs=1e-15)


def test_trinomial_hand_case():
    tree = martingale_trinomial()
    surf = mv.compute_opportunity(tree)
    plan = mv.compute_plan(tree, surf, make_call(tree))
    assert plan.V[0] == pytest.approx(0.3)
    assert plan.xi[0][0] == pytest.approx(0.5)
    _, G = mv.rollout_strategy(tree, plan.xi, plan.V, surf.a_tilde, 0.3)
    errors = sorted(plan.V[leaf] - G[leaf] for leaf in tree.leaves())
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
    for i in tree.layout.inner:
        assert np.allclose(phi[i], plan.xi[i], atol=1e-12)
    # V reduces to plain conditional expectation under the physical measure
    probs = tree.node_probs()
    for i in tree.layout.inner:
        kids, p, _ = step(tree, i)
        assert plan.V[i] == pytest.approx(float(p @ plan.V[kids]), rel=1e-10, abs=1e-10)


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
    scale = max(1.0, np.max(np.abs(claim)))
    for i in tree.layout.inner:
        kids, p, _ = step(tree, i)
        assert float((p * surf.qstar_w[kids]) @ plan.V[kids]) == pytest.approx(
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
    scale = max(1.0, np.max(np.abs(claim)))
    for i in tree.layout.inner:
        assert plan.e[i] >= -1e-12 * scale * scale
    assert mv.fs_residual_check(tree, surf, plan) <= 1e-9 * scale
    # decomposition is exact as computed
    probs = tree.node_probs()
    total = report.endowment_term + sum(
        probs[i] * plan.e[i] for i in tree.layout.inner
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
    scale = max(1.0, np.max(np.abs(claim)))
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


# a boolean read as 1, a nan carried into the error, a string numpy
# refuses, a one-value list the rollout let through to a bare ValueError
@pytest.mark.parametrize("v0", [True, np.nan, "0.5", [0.3]])
def test_endowment_not_a_finite_number_raises(v0):
    tree = binomial_06(periods=2)
    surf = mv.compute_opportunity(tree)
    plan = mv.compute_plan(tree, surf, make_call(tree))
    with pytest.raises(mv.BadParameter, match="v0 must be a finite number"):
        mv.hedging_error(tree, surf, plan, v0)
    with pytest.raises(mv.BadParameter, match="v0 must be a finite number"):
        mv.rollout_strategy(tree, plan.xi, plan.V, surf.a_tilde, v0)
    for kind in ("mvh", "pure_xi", "gkw"):
        with pytest.raises(mv.BadParameter, match="v0 must be a finite number"):
            mv.run_strategy(tree, surf, plan, kind, v0)
        with pytest.raises(mv.BadParameter, match="v0 must be a finite number"):
            mv.strategy_holdings(tree, surf, plan, kind, v0)


@pytest.mark.parametrize("arg", ["xi", "V", "a"])
def test_rollout_rejects_arrays_that_do_not_broadcast(arg):
    # a (2, 3) array on the 7-node 1-asset tree fits neither (7, 1) nor (7,)
    tree = binomial_06(periods=2)
    surf = mv.compute_opportunity(tree)
    plan = mv.compute_plan(tree, surf, make_call(tree))
    args = {"xi": plan.xi, "V": plan.V, "a": surf.a_tilde, arg: np.ones((2, 3))}
    with pytest.raises(mv.BadParameter, match=r"^xi and a must broadcast to \(7, 1\) and V to"):
        mv.rollout_strategy(tree, args["xi"], args["V"], args["a"], plan.v0)


def test_rollout_path_matches_full_rollout():
    rng = np.random.default_rng(23)
    tree = random_tree(rng)
    surf = mv.compute_opportunity(tree)
    claim = random_claim(rng, tree)
    plan = mv.compute_plan(tree, surf, claim)
    _, G = mv.rollout_strategy(tree, plan.xi, plan.V, surf.a_tilde, plan.v0)
    path = [int(tree.leaves()[0])]
    while tree.parent[path[0]] >= 0:
        path.insert(0, int(tree.parent[path[0]]))
    _, wealth = rollout_path(tree, surf, plan, plan.v0, path)
    assert wealth[-1] == pytest.approx(G[path[-1]], rel=1e-12)


def plan_and_error(tree, claim):
    surf = mv.compute_opportunity(tree)
    plan = mv.compute_plan(tree, surf, claim)
    return surf, plan, mv.hedging_error(tree, surf, plan, plan.v0).total_error


@pytest.mark.parametrize("seed", range(6))
def test_duplicated_asset(seed):
    # a copy of the last asset adds no new one-step market: the same L,
    # V and error, and the minimum-norm xi and a_tilde split the last
    # asset's holding evenly over the two copies (pinv_psd truncates a
    # zero eigenvalue at every node)
    rng = np.random.default_rng(1300 + seed)
    tree = random_tree(rng)
    claim = random_claim(rng, tree)
    d = tree.num_assets
    dup = dataclasses.replace(tree, num_assets=d + 1, price=tree.price[:, [*range(d), d - 1]])
    surf, plan, err = plan_and_error(tree, claim)
    surf2, plan2, err2 = plan_and_error(dup, claim)
    scale = max(1.0, float(np.max(np.abs(claim))))
    assert np.allclose(surf2.L, surf.L, rtol=1e-9, atol=0.0)
    assert np.allclose(plan2.V, plan.V, rtol=1e-9, atol=1e-9 * scale)
    assert err2 == pytest.approx(err, rel=1e-9, abs=1e-9 * scale * scale)
    inner = tree.layout.inner
    for got, want, tol in ((plan2.xi, plan.xi, 1e-9 * scale), (surf2.a_tilde, surf.a_tilde, 1e-9)):
        half = want[inner, d - 1] / 2.0
        assert np.allclose(got[inner, :d - 1], want[inner, :d - 1], rtol=1e-9, atol=tol)
        assert np.allclose(got[inner, d - 1], half, rtol=1e-9, atol=tol)
        assert np.allclose(got[inner, d], half, rtol=1e-9, atol=tol)
    # the oracles see the same market through rank-deficient constraints
    qp, qp2 = mv.martingale_qp(tree), mv.martingale_qp(dup)
    assert qp2.second_moment == pytest.approx(1.0 / surf.L[0], rel=1e-9)
    z_scale = max(1.0, float(np.max(np.abs(qp.leaf_density))))
    assert np.allclose(qp2.leaf_density, qp.leaf_density, rtol=1e-9, atol=1e-9 * z_scale)
    assert mv.lsq_projection(dup, claim, "free").min_error == pytest.approx(
        err2, rel=1e-9, abs=1e-9 * scale * scale)
    # the node checks sum Schur terms of a rank-deficient normal matrix,
    # whose pivots pinv_psd truncates
    assert singular(dense_gram(mv.oracle.root_factor(dup)))
    assert np.allclose(mv.node_conditional_check(dup), surf.L, rtol=1e-9, atol=0.0)


def split_first_point(law):
    """The law with its first point replaced by two copies at half its
    probability."""
    (delta, p), *rest = law
    return [(delta, p / 2.0), (delta, p / 2.0), *rest]


def split_cases(periods: int):
    """(tree, the same tree with one law point split in halves) for an iid
    trinomial and for a regime tree."""
    law = [([1.2], 0.3), ([0.1], 0.4), ([-1.0], 0.3)]
    iid = [mv.build_iid_multinomial([10.0], laws, periods)
           for laws in (law, split_first_point(law))]
    s0, regimes, transition, initial, _ = uneven_regime_args()
    split = [regimes[0], split_first_point(regimes[1])]
    regime = [mv.build_regime_switching(s0, laws, transition, initial, periods)
              for laws in (regimes, split)]
    return [iid, regime]


@pytest.mark.parametrize("periods", [2, 3])
@pytest.mark.parametrize("case", range(2))
def test_law_point_split_in_halves(case, periods):
    # every child with the split point becomes two copies of itself and
    # its subtree at half the probability: the same L0, V0 and error, and
    # the oracles, which stack the copies' subtrees as subtrees of one
    # shape, still agree with the engine
    tree, split = split_cases(periods)[case]
    assert len(split.nodes) > len(tree.nodes)
    claim, claim2 = make_call(tree), make_call(split)
    surf, plan, err = plan_and_error(tree, claim)
    surf2, plan2, err2 = plan_and_error(split, claim2)
    assert surf2.L[0] == pytest.approx(surf.L[0], rel=1e-12)
    assert plan2.V[0] == pytest.approx(plan.V[0], rel=1e-12)
    assert err2 == pytest.approx(err, rel=1e-12)
    assert np.allclose(mv.node_conditional_check(split), surf2.L, rtol=1e-9, atol=0.0)
    qp = mv.martingale_qp(split)
    assert qp.second_moment == pytest.approx(1.0 / surf2.L[0], rel=1e-9)
    z = mv.measures(split, surf2).z_qstar[split.leaves()]
    assert np.max(np.abs(z - qp.leaf_density)) <= 1e-9 * max(1.0, np.max(np.abs(z)))


@pytest.mark.parametrize("seed", range(6))
def test_assets_permuted(seed):
    # permuting the asset columns permutes xi and a_tilde alike and
    # leaves L, V, the error and both oracles' answers unchanged
    rng = np.random.default_rng(1500 + seed)
    tree = random_tree(rng, d=2)
    claim = rng.normal(0.0, 2.0, size=len(tree.leaves()))
    perm = [1, 0]
    swapped = dataclasses.replace(tree, price=tree.price[:, perm])
    surf, plan, err = plan_and_error(tree, claim)
    surf2, plan2, err2 = plan_and_error(swapped, claim)
    scale = max(1.0, float(np.max(np.abs(claim))))
    assert np.allclose(surf2.L, surf.L, rtol=1e-9, atol=0.0)
    assert np.allclose(plan2.V, plan.V, rtol=1e-9, atol=1e-9 * scale)
    assert err2 == pytest.approx(err, rel=1e-9, abs=1e-9 * scale * scale)
    inner = tree.layout.inner
    assert np.allclose(plan2.xi[inner], plan.xi[inner][:, perm], rtol=1e-9, atol=1e-9 * scale)
    assert np.allclose(surf2.a_tilde[inner], surf.a_tilde[inner][:, perm], rtol=1e-9, atol=1e-9)
    lsq, lsq2 = mv.lsq_projection(tree, claim, "free"), mv.lsq_projection(swapped, claim, "free")
    assert lsq2.min_error == pytest.approx(lsq.min_error, rel=1e-9, abs=1e-9 * scale * scale)
    assert lsq2.v0_opt == pytest.approx(lsq.v0_opt, rel=1e-9, abs=1e-9 * scale)
    assert np.allclose(lsq2.value_process, lsq.value_process, rtol=1e-9, atol=1e-9 * scale)
    qp, qp2 = mv.martingale_qp(tree), mv.martingale_qp(swapped)
    assert qp2.second_moment == pytest.approx(qp.second_moment, rel=1e-9)
    z_scale = max(1.0, float(np.max(np.abs(qp.leaf_density))))
    assert np.allclose(qp2.leaf_density, qp.leaf_density, rtol=1e-9, atol=1e-9 * z_scale)


@pytest.mark.parametrize("seed", range(6))
def test_additive_shift_of_prices_and_strike(seed):
    # an additive tree shifted by a constant, with the strike shifted
    # alike, has the same increments and the same payoff
    rng = np.random.default_rng(1400 + seed)
    tree = random_tree(rng)
    strike, shift = float(rng.uniform(6.0, 14.0)), 250.0
    shifted = dataclasses.replace(tree, price=tree.price + shift)
    surf, plan, _ = plan_and_error(tree, mv.attach_claim(tree, "call", strike=strike))
    claim2 = mv.attach_claim(shifted, "call", strike=strike + shift)
    surf2, plan2, _ = plan_and_error(shifted, claim2)
    assert np.allclose(surf2.L, surf.L, rtol=1e-9, atol=0.0)
    assert np.allclose(surf2.a_tilde, surf.a_tilde, rtol=1e-9, atol=1e-9, equal_nan=True)
    assert np.allclose(plan2.V, plan.V, rtol=1e-9, atol=1e-9)
    assert np.allclose(plan2.xi, plan.xi, rtol=1e-9, atol=1e-9, equal_nan=True)


def reversed_cases():
    law = [([1.2], 0.3), ([0.1], 0.4), ([-1.0], 0.3)]
    return [*(mv.build_iid_multinomial([10.0], law, periods) for periods in (2, 3)),
            uneven_regime_tree(3)]


@pytest.mark.parametrize("case", range(3))
def test_children_reversed(case):
    # listing every node's children in reverse order, with the ids
    # renumbered to keep the ordering contract, permutes the per-node
    # outputs, the one-step weights included, and leaves the error unchanged
    tree = reversed_cases()[case]
    rev, old = reverse_children(tree)
    rev, _ = parse_tree(mv.serialize_tree(rev))
    surf, plan, err = plan_and_error(tree, make_call(tree))
    surf2, plan2, err2 = plan_and_error(rev, make_call(rev))
    scale = max(1.0, float(np.max(np.abs(make_call(tree)))))
    assert np.allclose(surf2.L, surf.L[old], rtol=1e-12, atol=0.0)
    assert np.allclose(plan2.V, plan.V[old], rtol=1e-12, atol=1e-12 * scale)
    inner = rev.layout.inner
    assert np.allclose(plan2.xi[inner], plan.xi[old[inner]], rtol=1e-12, atol=1e-12 * scale)
    assert err2 == pytest.approx(err, rel=1e-12)
    qstar_w = surf.qstar_w
    assert np.allclose(surf2.qstar_w, qstar_w[old],
                       rtol=1e-12, atol=0.0)


# the property versions of the two invariants above, over small
# heterogeneous random trees kept at desk scale (random_tree redraws a
# tree with L0 < 0.05); derandomized, so that every run draws the same
# examples
invariant_settings = settings(max_examples=60, deadline=None, derandomize=True)
small_trees = st.builds(lambda seed, periods: random_tree(np.random.default_rng(seed), periods),
                        st.integers(0, 2 ** 32 - 1), st.integers(1, 3))
strikes = st.floats(7.0, 13.0)


@invariant_settings
@given(tree=small_trees, strike=strikes)
def test_children_reversed_property(tree, strike):
    rev, old = reverse_children(tree)
    rev, _ = parse_tree(mv.serialize_tree(rev))
    surf, plan, err = plan_and_error(tree, make_call(tree, strike))
    surf2, plan2, err2 = plan_and_error(rev, make_call(rev, strike))
    scale = max(1.0, float(np.max(np.abs(make_call(tree, strike)))))
    assert np.allclose(surf2.L, surf.L[old], rtol=1e-12, atol=0.0)
    assert np.allclose(plan2.V, plan.V[old], rtol=1e-12, atol=1e-12 * scale)
    inner = rev.layout.inner
    assert np.allclose(plan2.xi[inner], plan.xi[old[inner]], rtol=1e-12, atol=1e-12 * scale)
    assert err2 == pytest.approx(err, rel=1e-12, abs=1e-12 * scale * scale)
    assert np.allclose(surf2.qstar_w, surf.qstar_w[old],
                       rtol=1e-12, atol=0.0)


@invariant_settings
@given(tree=small_trees, strike=strikes, pick=st.floats(0.0, 1.0, exclude_max=True))
def test_law_point_split_property(tree, strike, pick):
    # any one non-root node with its subtree split into two copies at half
    # the probability: the same L, V and xi at every copy, the same error,
    # and the oracles still agree with the engine
    split, old = split_child(tree, 1 + int(pick * (len(tree.parent) - 1)))
    surf, plan, err = plan_and_error(tree, make_call(tree, strike))
    surf2, plan2, err2 = plan_and_error(split, make_call(split, strike))
    scale = max(1.0, float(np.max(np.abs(make_call(tree, strike)))))
    assert np.allclose(surf2.L, surf.L[old], rtol=1e-12, atol=0.0)
    assert np.allclose(plan2.V, plan.V[old], rtol=1e-12, atol=1e-12 * scale)
    inner = split.layout.inner
    assert np.allclose(plan2.xi[inner], plan.xi[old[inner]], rtol=1e-12, atol=1e-12 * scale)
    assert err2 == pytest.approx(err, rel=1e-12, abs=1e-12 * scale * scale)
    assert np.allclose(mv.node_conditional_check(split), surf2.L, rtol=1e-9, atol=0.0)
    assert mv.martingale_qp(split).second_moment == pytest.approx(1.0 / surf2.L[0], rel=1e-9)
