import numpy as np
import pytest

import mvhedge as mv
from mvhedge.linalg import pinv_psd
from mvhedge.tree import Node, ScenarioTree

from gen import (
    binomial_06,
    efficient_value_process,
    martingale_trinomial,
    random_tree,
    two_regime_tree,
)


def leaf_expectation(tree, values, power=1):
    probs = tree.node_probs()
    return sum(probs[leaf.id] * values[leaf.id] ** power for leaf in tree.leaves())


def test_martingale_tree_trivial_surface():
    rng = np.random.default_rng(0)
    tree = random_tree(rng, martingale=True)
    surf = mv.compute_opportunity(tree)
    assert np.allclose(surf.L, 1.0, atol=1e-12)
    for node in tree.nonterminal():
        assert np.allclose(surf.a_tilde[node.id], 0.0, atol=1e-12)
        assert surf.dAK[node.id] == pytest.approx(0.0, abs=1e-12)


def test_binomial_hand_values():
    surf = mv.compute_opportunity(binomial_06())
    assert surf.L[0] == pytest.approx(0.96)
    assert surf.a_tilde[0][0] == pytest.approx(0.2)
    assert surf.dAK[0] == pytest.approx(1.0 / 0.96 - 1.0)
    assert surf.a_hat[0][0] == pytest.approx(0.2 / 0.96)


def test_degenerate_single_child():
    nodes = [
        Node(id=0, time=0, price=np.array([10.0]), parent=None, children=[(1, 1.0)]),
        Node(id=1, time=1, price=np.array([11.0]), parent=0),
    ]
    tree = ScenarioTree(num_assets=1, horizon=1, nodes=nodes)
    with pytest.raises(mv.DegenerateStep):
        mv.compute_opportunity(tree)


@pytest.mark.parametrize("periods", [9, 16])
def test_long_horizon_complete_binomial_not_degenerate(periods):
    # L0 falls below 1e-12 here, but every one-step ratio L/m0 is 0.0396
    up, down, p_up = 1.1, 0.9, 0.99
    tree = mv.build_binomial([10.0], up, down, p_up, periods)
    surf = mv.compute_opportunity(tree)
    mean = p_up * (up - 1.0) + (1.0 - p_up) * (down - 1.0)
    second = p_up * (up - 1.0) ** 2 + (1.0 - p_up) * (down - 1.0) ** 2
    dK = mean * mean / (second - mean * mean)
    closed = (1.0 + dK) ** -periods
    assert abs(surf.L[0] - closed) <= 1e-12 * closed


def test_measures_martingale_tree():
    rng = np.random.default_rng(1)
    tree = random_tree(rng, martingale=True)
    surf = mv.compute_opportunity(tree)
    mea = mv.measures(tree, surf)
    for node in tree.nonterminal():
        _, probs, _ = tree.step(node)
        assert np.allclose(mea.qstar_w[node.id], 1.0, atol=1e-12)
        assert np.allclose(mea.pstar_p[node.id], probs, atol=1e-12)
    assert np.allclose(mea.z_pstar, 1.0, atol=1e-12)


def test_measures_binomial_hand_values():
    tree = binomial_06()
    surf = mv.compute_opportunity(tree)
    mea = mv.measures(tree, surf)
    assert mea.qstar_w[0] == pytest.approx([0.8 / 0.96, 1.2 / 0.96])
    assert mea.pstar_p[0] == pytest.approx([0.6, 0.4])


def test_measures_signed_trinomial():
    tree = mv.build_iid_multinomial(
        [10.0], [([2.0], 0.45), ([1.0], 0.45), ([-1.0], 0.1)], 1
    )
    surf = mv.compute_opportunity(tree)
    mea = mv.measures(tree, surf)
    assert surf.a_tilde[0][0] == pytest.approx(1.25 / 2.35)
    # up branch weight is negative: the measure is signed
    assert mea.qstar_w[0][0] < 0.0
    assert mea.num_negative_weights == 1
    _, probs, _ = tree.step(tree.root)
    assert float(probs @ mea.qstar_w[0]) == pytest.approx(1.0)


def test_sharpe_formula():
    surf = mv.compute_opportunity(binomial_06())
    assert mv.sharpe_ratio(surf, 1) == 0.0  # leaf, L = 1
    assert mv.sharpe_ratio(surf, 0) == pytest.approx(0.2 / np.sqrt(0.96))
    assert mv.sharpe_ratio(surf, 0) == pytest.approx(0.204124, abs=1e-6)


def test_mvt_iid_deterministic():
    tree = binomial_06(periods=3)
    surf = mv.compute_opportunity(tree)
    mvt = mv.mvt_process(tree, surf)
    assert mvt.deterministic_mvt
    assert mvt.pstar_is_p
    assert mvt.dK_hat[0] == pytest.approx(0.04 / 0.96)
    assert mvt.det_l_residual is not None and mvt.det_l_residual <= 1e-10


def test_mvt_regime_switching_stochastic():
    tree = two_regime_tree()
    surf = mv.compute_opportunity(tree)
    mvt = mv.mvt_process(tree, surf)
    assert not mvt.deterministic_mvt
    assert not mvt.pstar_is_p
    # dK_hat differs across same-time nodes
    vals = [mvt.dK_hat[n.id] for n in tree.nodes_at(1)]
    assert max(vals) - min(vals) > 1e-3


def test_mvt_martingale_tree():
    rng = np.random.default_rng(2)
    tree = random_tree(rng, martingale=True)
    surf = mv.compute_opportunity(tree)
    mvt = mv.mvt_process(tree, surf)
    nonterm = [n.id for n in tree.nonterminal()]
    assert np.allclose(mvt.dK_hat[nonterm], 0.0, atol=1e-12)
    assert mvt.deterministic_mvt and mvt.pstar_is_p


def test_efficient_value_binomial():
    tree = binomial_06()
    surf = mv.compute_opportunity(tree)
    values = efficient_value_process(tree, surf, 0)
    leaf_vals = sorted(values[leaf.id] for leaf in tree.leaves())
    assert leaf_vals == pytest.approx([0.8, 1.2])
    arr = np.zeros(len(tree.nodes))
    for i, v in values.items():
        arr[i] = v
    assert leaf_expectation(tree, arr, power=2) == pytest.approx(0.96)


def test_efficient_value_multiplicative_two_periods():
    tree = binomial_06(periods=2)
    surf = mv.compute_opportunity(tree)
    values = efficient_value_process(tree, surf, 0)
    for leaf in tree.leaves():
        parent = tree.nodes[leaf.id].parent
        step = efficient_value_process(tree, surf, parent)
        assert values[leaf.id] == pytest.approx(values[parent] * step[leaf.id])


@pytest.mark.parametrize("seed", range(8))
def test_conditional_square_equals_L(seed):
    rng = np.random.default_rng(400 + seed)
    tree = random_tree(rng, periods=3)
    surf = mv.compute_opportunity(tree)
    probs = tree.node_probs()
    for node in tree.nodes_at(1) + [tree.root]:
        if not node.children:
            continue
        values = efficient_value_process(tree, surf, node.id)
        sub, remap = mv.subtree_at(tree, node.id)
        sub_probs = sub.node_probs()
        second = sum(
            sub_probs[remap[leaf.id]] * values[leaf.id] ** 2
            for leaf in tree.leaves() if leaf.id in values
        )
        assert second == pytest.approx(surf.L[node.id], rel=1e-9)


@pytest.mark.parametrize("seed", range(10))
def test_structural_identities_random_trees(seed):
    rng = np.random.default_rng(500 + seed)
    tree = random_tree(rng)
    surf = mv.compute_opportunity(tree)
    mea = mv.measures(tree, surf)
    probs = tree.node_probs()
    for node in tree.nonterminal():
        i = node.id
        kids, p, deltas = tree.step(node)
        child_L = surf.L[kids]
        # backward fixed point
        assert surf.L[i] * (1.0 + surf.dAK[i]) == pytest.approx(float(p @ child_L))
        # submartingale
        assert float(p @ child_L) >= surf.L[i] - 1e-12
        assert 0.0 < surf.L[i] <= 1.0 + 1e-12
        # adjustment identities under the opportunity-neutral measure
        b = surf.b_sstar[i]
        assert np.allclose(surf.c_tilde_sstar[i] @ surf.a_tilde[i], b, atol=1e-9)
        assert np.allclose(surf.c_hat_sstar[i] @ surf.a_hat[i], b, atol=1e-9)
        up = 1.0 + float(b @ pinv_psd(surf.c_hat_sstar[i]) @ b)
        dn = 1.0 - float(b @ pinv_psd(surf.c_tilde_sstar[i]) @ b)
        assert up * dn == pytest.approx(1.0, abs=1e-9)
        assert surf.dAK[i] == pytest.approx(up - 1.0, rel=1e-9, abs=1e-9)
        # signed measure prices every one-step increment to zero
        assert float(p @ mea.qstar_w[i]) == pytest.approx(1.0, abs=1e-10)
        assert np.allclose(deltas.T @ (p * mea.qstar_w[i]), 0.0, atol=1e-10)
        # one-step factorization of the signed density over the neutral one
        fact = (child_L / surf.m0[i]) * mea.nstar_f[i]
        assert np.allclose(fact, mea.qstar_w[i], atol=1e-10)
    # cumulative densities
    z = mea.z_qstar
    assert leaf_expectation(tree, z) == pytest.approx(1.0, abs=1e-9)
    assert leaf_expectation(tree, z, power=2) == pytest.approx(1.0 / surf.L[0], rel=1e-9)
    assert np.all(mea.z_pstar <= 1.0 / surf.L[0] + 1e-9)
    assert leaf_expectation(tree, mea.z_pstar) == pytest.approx(1.0, abs=1e-9)
    # leaf density equals the efficient value process scaled by 1/L0
    eff = efficient_value_process(tree, surf, 0)
    for leaf in tree.leaves():
        assert z[leaf.id] == pytest.approx(eff[leaf.id] / surf.L[0], abs=1e-10)
