import json

import numpy as np
import pytest

import mvhedge as mv
from mvhedge.tree import Node, ScenarioTree, parse_tree, serialize_tree, validate_tree

from gen import random_tree


def test_binomial_one_period():
    tree = mv.build_binomial([10.0], 1.1, 0.9, 0.5, 1)
    prices = sorted(leaf.price[0] for leaf in tree.leaves())
    assert prices == pytest.approx([9.0, 11.0])


def test_binomial_is_path_tree():
    tree = mv.build_binomial([10.0], 1.1, 0.9, 0.5, 2)
    assert len(tree.leaves()) == 4
    assert len(tree.nodes) == 7


def test_binomial_period_bound():
    with pytest.raises(mv.BadParameter):
        mv.build_binomial([10.0], 1.1, 0.9, 0.5, 17)
    with pytest.raises(mv.BadParameter):
        mv.build_binomial([10.0], 0.95, 0.9, 0.5, 2)


def test_iid_additive_one_period():
    tree = mv.build_iid_multinomial([10.0], [([1.0], 0.6), ([-1.0], 0.4)], 1)
    prices = sorted(leaf.price[0] for leaf in tree.leaves())
    assert prices == pytest.approx([9.0, 11.0])


def test_iid_trinomial_leaves():
    tree = mv.build_iid_multinomial(
        [10.0], [([1.0], 0.3), ([0.0], 0.4), ([-1.0], 0.3)], 1
    )
    assert len(tree.leaves()) == 3


def test_iid_bad_probabilities():
    with pytest.raises(mv.BadParameter):
        mv.build_iid_multinomial([10.0], [([1.0], 0.5), ([-1.0], 0.6)], 1)


def test_iid_multiplicative():
    tree = mv.build_iid_multinomial([10.0], [([0.1], 0.5), ([-0.1], 0.5)], 1,
                                    "multiplicative")
    prices = sorted(leaf.price[0] for leaf in tree.leaves())
    assert prices == pytest.approx([9.0, 11.0])


def test_regime_single_regime_matches_iid():
    incs = [([1.0], 0.6), ([-1.0], 0.4)]
    a = mv.build_regime_switching([10.0], [incs], [[1.0]], 0, 2)
    b = mv.build_iid_multinomial([10.0], incs, 2)
    assert len(a.nodes) == len(b.nodes)
    for na, nb in zip(a.nodes, b.nodes):
        assert na.time == nb.time
        assert np.allclose(na.price, nb.price)
        assert [p for _, p in na.children] == pytest.approx([p for _, p in nb.children])


def test_regime_branching():
    tree = mv.build_regime_switching(
        [10.0],
        [[([1.0], 0.6), ([-1.0], 0.4)], [([2.0], 0.5), ([-2.0], 0.5)]],
        [[0.9, 0.1], [0.2, 0.8]],
        0, 1,
    )
    # two increments x two reachable next regimes
    assert len(tree.leaves()) == 4
    assert not validate_tree(tree)


def test_regime_bad_transition():
    with pytest.raises(mv.BadParameter):
        mv.build_regime_switching(
            [10.0], [[([1.0], 0.5), ([-1.0], 0.5)]], [[0.9]], 0, 1
        )


def test_attach_claim_call():
    tree = mv.build_binomial([10.0], 1.1, 0.9, 0.5, 1)
    claim = mv.attach_claim(tree, "call", strike=10.0)
    assert sorted(claim.payoff) == pytest.approx([0.0, 1.0])


def test_attach_claim_per_leaf():
    tree = mv.build_iid_multinomial(
        [10.0], [([1.0], 0.3), ([0.0], 0.4), ([-1.0], 0.3)], 1
    )
    claim = mv.attach_claim(tree, "per_leaf", values=[1.0, 0.0, 0.0])
    assert list(claim.payoff) == [1.0, 0.0, 0.0]
    with pytest.raises(mv.BadParameter):
        mv.attach_claim(tree, "per_leaf", values=[1.0, 0.0])


def test_validate_ok():
    rng = np.random.default_rng(1)
    assert validate_tree(random_tree(rng)) == []


def test_validate_bad_probability():
    tree = mv.build_binomial([10.0], 1.1, 0.9, 0.5, 1)
    tree.nodes[0].children[0] = (tree.nodes[0].children[0][0], 0.0)
    msgs = validate_tree(tree)
    assert any("nonpositive probability" in m for m in msgs)


def test_validate_time_skip():
    tree = mv.build_binomial([10.0], 1.1, 0.9, 0.5, 2)
    tree.nodes[1].time = 2  # child of root now two steps ahead
    msgs = validate_tree(tree)
    assert any("time skip" in m for m in msgs)


@pytest.mark.parametrize("seed", range(5))
def test_slice_probabilities_sum_to_one(seed):
    rng = np.random.default_rng(300 + seed)
    tree = random_tree(rng)
    probs = tree.node_probs()
    for t in range(tree.horizon + 1):
        total = sum(probs[n.id] for n in tree.nodes_at(t))
        assert total == pytest.approx(1.0, abs=1e-10)


def test_serialization_round_trip_byte_identical():
    rng = np.random.default_rng(42)
    tree = random_tree(rng)
    claim = mv.attach_claim(tree, "per_leaf",
                            values=rng.normal(size=len(tree.leaves())))
    doc = serialize_tree(tree, claim)
    tree2, claim2 = parse_tree(doc)
    assert serialize_tree(tree2, claim2) == doc


def test_serialization_preserves_regime():
    tree = mv.build_regime_switching(
        [10.0],
        [[([1.0], 0.6), ([-1.0], 0.4)], [([2.0], 0.5), ([-2.0], 0.5)]],
        [[0.9, 0.1], [0.2, 0.8]],
        0, 2,
    )
    tree2, _ = parse_tree(serialize_tree(tree))
    assert [n.regime for n in tree2.nodes] == [n.regime for n in tree.nodes]


def test_validate_rejects_nodes_out_of_list_order():
    # a serialized binomial whose list positions 1 and 2 are swapped keeps
    # every id, parent and child link, but breaks the ordering contract
    tree = mv.build_binomial([10.0], 1.1, 0.9, 0.6, 2)
    doc = json.loads(serialize_tree(tree))
    doc["nodes"][1], doc["nodes"][2] = doc["nodes"][2], doc["nodes"][1]
    swapped, _ = parse_tree(json.dumps(doc))
    msgs = validate_tree(swapped)
    assert "node at list position 1 has id 2" in msgs
    assert "node at list position 2 has id 1" in msgs


def test_validate_rejects_time_decreasing_along_list():
    # ids equal list positions and every link is consistent, but the
    # nodes are listed depth first: times 0, 1, 2, 1, 2
    nodes = [
        Node(id=0, time=0, price=np.array([10.0]), parent=None, children=[(1, 0.5), (3, 0.5)]),
        Node(id=1, time=1, price=np.array([11.0]), parent=0, children=[(2, 1.0)]),
        Node(id=2, time=2, price=np.array([12.0]), parent=1),
        Node(id=3, time=1, price=np.array([9.0]), parent=0, children=[(4, 1.0)]),
        Node(id=4, time=2, price=np.array([8.0]), parent=3),
    ]
    tree = ScenarioTree(num_assets=1, horizon=2, nodes=nodes)
    assert validate_tree(tree) == ["time decreases at list position 3"]
