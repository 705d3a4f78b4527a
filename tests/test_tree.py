import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import mvhedge as mv
from mvhedge.tree import ScenarioTree, serialize_tree, validate_tree

from gen import (binomial_loop, iid_loop, parse_tree, random_tree, regime_loop, serialize_loop,
                 uneven_regime_args, uneven_regime_tree)

GOLDEN_CONFIG = Path(__file__).resolve().parent / "golden" / "config.json"


def leaf_prices(tree):
    return sorted(tree.price[tree.leaves(), 0])


def test_binomial_one_period():
    tree = mv.build_binomial([10.0], 1.1, 0.9, 0.5, 1)
    prices = leaf_prices(tree)
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


@pytest.mark.parametrize("periods", [True, 2.0])
def test_periods_must_be_an_integer(periods):
    with pytest.raises(mv.BadParameter):
        mv.build_binomial([10.0], 1.1, 0.9, 0.5, periods)
    with pytest.raises(mv.BadParameter):
        mv.build_iid_multinomial([10.0], [([1.0], 0.6), ([-1.0], 0.4)], periods)
    with pytest.raises(mv.BadParameter):
        mv.build_regime_switching(*uneven_regime_args(periods))


def test_iid_additive_one_period():
    tree = mv.build_iid_multinomial([10.0], [([1.0], 0.6), ([-1.0], 0.4)], 1)
    prices = leaf_prices(tree)
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
    prices = leaf_prices(tree)
    assert prices == pytest.approx([9.0, 11.0])


def test_regime_single_regime_matches_iid():
    incs = [([1.0], 0.6), ([-1.0], 0.4)]
    a = mv.build_regime_switching([10.0], [incs], [[1.0]], 0, 2)
    b = mv.build_iid_multinomial([10.0], incs, 2)
    assert len(a.nodes) == len(b.nodes)
    assert np.array_equal(a.parent, b.parent) and np.array_equal(a.time, b.time)
    assert np.allclose(a.price, b.price)
    assert a.prob == pytest.approx(b.prob)


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
    assert sorted(claim) == pytest.approx([0.0, 1.0])


def test_attach_claim_per_leaf():
    tree = mv.build_iid_multinomial(
        [10.0], [([1.0], 0.3), ([0.0], 0.4), ([-1.0], 0.3)], 1
    )
    claim = mv.attach_claim(tree, "per_leaf", values=[1.0, 0.0, 0.0])
    assert list(claim) == [1.0, 0.0, 0.0]
    with pytest.raises(mv.BadParameter):
        mv.attach_claim(tree, "per_leaf", values=[1.0, 0.0])


def test_claim_is_its_payoff_array():
    tree = mv.build_binomial([10.0], 1.1, 0.9, 0.5, 2)
    for claim in (mv.attach_claim(tree, "put", strike=10.0),
                  mv.attach_claim(tree, "per_leaf", values=[1, 2, 3, 4])):
        assert type(claim) is np.ndarray and claim.shape == (4,)
        _, parsed = parse_tree(mv.serialize_tree(tree, claim))
        assert type(parsed) is np.ndarray and np.array_equal(parsed, claim)
    assert "Claim" not in mv.__all__


def test_validate_ok():
    rng = np.random.default_rng(1)
    assert validate_tree(random_tree(rng)) == []


def test_validate_bad_probability():
    tree = mv.build_binomial([10.0], 1.1, 0.9, 0.5, 1)
    tree.prob[1] = 0.0
    msgs = validate_tree(tree)
    assert any("nonpositive probability" in m for m in msgs)


def test_validate_time_skip():
    tree = mv.build_binomial([10.0], 1.1, 0.9, 0.5, 2)
    tree.time[1] = 2  # child of root now two steps ahead
    msgs = validate_tree(tree)
    assert any("time skip" in m for m in msgs)


@pytest.mark.parametrize("seed", range(5))
def test_slice_probabilities_sum_to_one(seed):
    rng = np.random.default_rng(300 + seed)
    tree = random_tree(rng)
    probs = tree.node_probs()
    for t in range(tree.horizon + 1):
        total = sum(probs[tree.time == t])
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
    assert np.array_equal(tree2.regime, tree.regime)


def hand_built(parent, time) -> ScenarioTree:
    n = len(parent)
    return ScenarioTree(num_assets=2, horizon=max(time), parent=parent, time=time,
                        price=np.arange(2.0 * n).reshape(n, 2) / 3, regime=[-1] * n,
                        prob=np.linspace(0.1, 1.0, n))


# trees that break the ordering contract, which the writer lists children of in id order
OFF_CONTRACT = {
    "interleaved_children": hand_built([-1, 0, 0, 1, 2, 1, 2], [0, 1, 1, 2, 2, 2, 2]),
    "two_roots": hand_built([-1, -1, 0, 1, 0], [0, 0, 1, 1, 1]),
    "parent_after_child": hand_built([-1, 2, 0], [0, 2, 1]),
}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("d", [1, 2])
def test_serialize_equals_reference_writer_on_random_trees(d, seed):
    rng = np.random.default_rng(500 + seed)
    tree = random_tree(rng, d=d)
    claim = mv.attach_claim(tree, "per_leaf", values=rng.normal(size=len(tree.leaves())))
    assert serialize_tree(tree, claim) == serialize_loop(tree, claim)


@pytest.mark.parametrize("name", ["regime", *OFF_CONTRACT])
def test_serialize_equals_reference_writer(name):
    tree = uneven_regime_tree(3) if name == "regime" else OFF_CONTRACT[name]
    assert serialize_tree(tree) == serialize_loop(tree)


def test_serialize_rejects_a_claim_not_one_value_per_leaf():
    # a one-value claim on 4 leaves would make a document the reader rejects
    tree = mv.build_binomial([10.0], 1.1, 0.9, 0.6, 2)
    claim = mv.attach_claim(tree, "call", strike=10.0)
    with pytest.raises(mv.BadParameter, match=r"^claim needs 4 values, got shape \(1,\)$"):
        serialize_tree(tree, claim[:1])


def test_parse_rejects_text_that_is_not_json():
    tree = mv.build_binomial([10.0], 1.1, 0.9, 0.5, 2)
    tree.price[3] = np.inf   # written as inf, which JSON has no word for
    for text in (serialize_tree(tree), "", '{"num_assets": 1'):
        with pytest.raises(mv.BadParameter, match="malformed tree document"):
            parse_tree(text)


def test_validate_rejects_nodes_out_of_list_order():
    # a serialized binomial whose list positions 1 and 2 are swapped keeps
    # every id, parent and child link, but breaks the ordering contract
    tree = mv.build_binomial([10.0], 1.1, 0.9, 0.6, 2)
    doc = json.loads(serialize_tree(tree))
    doc["nodes"][1], doc["nodes"][2] = doc["nodes"][2], doc["nodes"][1]
    with pytest.raises(mv.BadParameter) as exc:
        parse_tree(json.dumps(doc))
    assert "node at list position 1 has id 2" in str(exc.value)
    assert "node at list position 2 has id 1" in str(exc.value)


def test_validate_rejects_time_decreasing_along_list():
    # ids equal list positions and every link is consistent, but the
    # nodes are listed depth first: times 0, 1, 2, 1, 2
    tree = ScenarioTree(num_assets=1, horizon=2, parent=[-1, 0, 1, 0, 3], time=[0, 1, 2, 1, 2],
                        price=[[10.0], [11.0], [12.0], [9.0], [8.0]], regime=[-1] * 5,
                        prob=[1.0, 0.5, 1.0, 0.5, 1.0])
    assert validate_tree(tree) == ["time decreases at list position 3"]


def test_validate_rejects_parent_decreasing_within_a_slice():
    # the slices are contiguous, but node 1's child is listed after node 2's
    tree = ScenarioTree(num_assets=1, horizon=2, parent=[-1, 0, 0, 0, 2, 1, 3],
                        time=[0, 1, 1, 1, 2, 2, 2], price=np.arange(7.0)[:, None], regime=[-1] * 7,
                        prob=[1.0, 0.25, 0.25, 0.5, 1.0, 1.0, 1.0])
    assert validate_tree(tree) == ["parent decreases at list position 5"]


def test_validate_reports_in_list_order():
    # the per-node checks of a node-by-node validator, in the order it
    # would report them
    tree = mv.build_binomial([10.0], 1.1, 0.9, 0.5, 2)
    tree.prob[[2, 3]] = [-0.5, 1.5]
    tree.time[4] = 1
    tree.price[1, 0] = np.nan
    assert validate_tree(tree) == [
        "nonpositive probability at node 0 child 2",
        "child probabilities at node 0 sum to 0.0",
        "non-finite price at node 1",
        "time skip from node 1 to node 4",
        "child probabilities at node 1 sum to 2.0",
        "time decreases at list position 4",
        "non-terminal node 4 has no children",
    ]


# (field, value, the violation validate_tree reports) for a one-period
# binomial with that field replaced: a hand-built tree that no builder
# or document makes
HAND_BUILT_DEFECTS = [
    ("horizon", -1, "horizon -1 is not a non-negative integer"),
    ("horizon", 1.0, "horizon 1.0 is not a non-negative integer"),
    ("horizon", True, "horizon True is not a non-negative integer"),
    ("num_assets", 1.0, "num_assets 1.0 is not a non-negative integer"),
    ("num_assets", True, "num_assets True is not a non-negative integer"),
    ("prob", [1.0, 0.5], "node arrays differ in length"),
    ("num_assets", 2, "price dimension mismatch: shape (3, 1) for 3 nodes of 2 assets"),
    ("parent", [-1, 0, 3], "parent out of range at node 2"),
    ("parent", [-1, 0, -1], "tree must have exactly one root at time 0"),
]


@pytest.mark.parametrize("field,value,message", HAND_BUILT_DEFECTS,
                         ids=[f"{field}={value!r}" for field, value, _ in HAND_BUILT_DEFECTS])
def test_validate_rejects_hand_built_defects(field, value, message):
    tree = dataclasses.replace(mv.build_binomial([10.0], 1.1, 0.9, 0.5, 1), **{field: value})
    assert message in validate_tree(tree)


def test_validate_rejects_a_document_with_no_assets():
    # it parses, but has no increments to hedge with
    doc = binomial_doc()
    doc["num_assets"] = 0
    for nd in doc["nodes"]:
        nd["price"] = []
    assert validate_tree(parse_tree(json.dumps(doc))[0]) == ["the tree has no assets"]


def test_attach_claim_rejects_what_no_config_reaches():
    tree = mv.build_binomial([10.0], 1.1, 0.9, 0.5, 1)
    with pytest.raises(mv.BadParameter, match="^call requires a strike$"):
        mv.attach_claim(tree, "call")
    with pytest.raises(mv.BadParameter, match="^unknown claim kind 'digital'$"):
        mv.attach_claim(tree, "digital", strike=10.0)
    with pytest.raises(mv.BadParameter, match=r"^claim needs 2 values, got shape \(3,\)$"):
        mv.compute_mean_value(tree, mv.compute_opportunity(tree), np.ones(3))


def binomial_doc():
    return json.loads(serialize_tree(mv.build_binomial([10.0], 1.1, 0.9, 0.5, 2)))


def child_past_end(doc):
    doc["nodes"][1]["children"][0]["id"] = 7


def child_minus_one(doc):
    doc["nodes"][0]["children"][0]["id"] = -1


def parent_past_end(doc):
    doc["nodes"][3]["parent"] = 57


def parent_negative(doc):
    doc["nodes"][3]["parent"] = -2


def ragged_price(doc):
    doc["nodes"][2]["price"].append(1.0)


def child_disagrees_with_parent(doc):
    doc["nodes"][1]["children"], doc["nodes"][2]["children"] = (
        doc["nodes"][2]["children"], doc["nodes"][1]["children"])


def child_listed_twice(doc):
    doc["nodes"][2]["children"].append(doc["nodes"][2]["children"][0])


def child_missing(doc):
    doc["nodes"][2]["children"].pop()


def time_not_integer(doc):
    doc["nodes"][1]["time"] = 1.5


def boolean_price_and_probability(doc):
    doc["nodes"][0]["price"] = [True]
    doc["nodes"][1]["children"][0]["p"] = True


def string_price_and_probability(doc):
    doc["nodes"][0]["price"] = ["11"]
    doc["nodes"][1]["children"][0]["p"] = "0.5"


def claim_not_a_list(doc):
    doc["claim"] = {"a": 1}


def claim_a_string(doc):
    doc["claim"] = "ab"


def claim_too_short(doc):
    doc["claim"] = [1.0]


def regime_fractional(doc):
    doc["nodes"][1]["regime"] = 1.7


def regime_boolean(doc):
    doc["nodes"][2]["regime"] = True


def horizon_boolean(doc):
    doc["horizon"] = True


def horizon_negative(doc):
    doc["horizon"] = -1


def num_assets_float(doc):
    doc["num_assets"] = 1.0


def num_assets_boolean(doc):
    doc["num_assets"] = True


def node_without_time(doc):
    del doc["nodes"][1]["time"]


def price_beyond_double(doc):
    doc["nodes"][2]["price"] = [10**400]


def probability_beyond_double(doc):
    doc["nodes"][1]["children"][0]["p"] = 10**400


def claim_beyond_double(doc):
    doc["claim"] = [1.0, 10**400, 0.0, 0.0]


DOCUMENT_DEFECTS = [
    (child_past_end, "child 7 of node 1 out of range"),
    (child_minus_one, "child -1 of node 0 out of range"),
    (parent_past_end, "parent 57 of node 3 out of range"),
    (parent_negative, "parent -2 of node 3 out of range"),
    (ragged_price, "price dimension mismatch at node 2"),
    (child_disagrees_with_parent, "parent mismatch at node 3"),
    (child_listed_twice, "node 5 listed 2 times"),
    (child_missing, "node 6 missing from the children of node 2"),
    (time_not_integer, "time 1.5 of node 1 is not an integer"),
    (regime_fractional, "regime 1.7 of node 1 is not an integer"),
    (regime_boolean, "regime True of node 2 is not an integer"),
    (boolean_price_and_probability, "boolean price at node 0; boolean probability at node 1 child 3"),
    (string_price_and_probability, "string price at node 0; string probability at node 1 child 3"),
    (claim_not_a_list, "claim is not a list of 4 numbers, one per leaf"),
    (claim_a_string, "claim is not a list of 4 numbers, one per leaf"),
    (claim_too_short, "claim is not a list of 4 numbers, one per leaf"),
    (horizon_boolean, "horizon True is not a non-negative integer"),
    (horizon_negative, "horizon -1 is not a non-negative integer"),
    (num_assets_float, "num_assets 1.0 is not a non-negative integer"),
    (num_assets_boolean, "num_assets True is not a non-negative integer"),
    (node_without_time, "malformed tree document: 'time'"),
    (price_beyond_double, "malformed tree document: int too large to convert to float"),
    (probability_beyond_double, "malformed tree document: int too large to convert to float"),
    (claim_beyond_double, "malformed tree document: int too large to convert to float"),
]


@pytest.mark.parametrize("defect,message", DOCUMENT_DEFECTS,
                         ids=[d.__name__ for d, _ in DOCUMENT_DEFECTS])
def test_parse_rejects_document_defects(defect, message):
    doc = binomial_doc()
    defect(doc)
    with pytest.raises(mv.BadParameter) as exc:
        parse_tree(json.dumps(doc))
    assert message in str(exc.value)


def golden_regime_args():
    model = json.loads(GOLDEN_CONFIG.read_text())["model"]
    regimes = [[(inc["delta"], inc["p"]) for inc in law] for law in model["regimes"]]
    return (model["s0"], regimes, model["transition"], model["initial_regime"],
            model["periods"], model["mode"])


TRINOMIAL = [([1.0, -0.5], 0.3), ([0.0, 0.25], 0.4), ([-1.0, 0.1], 0.3)]
BUILDERS = {
    "binomial": (mv.build_binomial, binomial_loop, ([10.0, 7.0], 1.13, 0.91, 0.55, 4)),
    "iid_additive": (mv.build_iid_multinomial, iid_loop, ([10.0, 5.0], TRINOMIAL, 3)),
    "iid_multiplicative": (mv.build_iid_multinomial, iid_loop,
                           ([10.0, 5.0], [([0.07, -0.03], 0.5), ([-0.06, 0.02], 0.5)], 4,
                            "multiplicative")),
    "regime_zero_transition": (mv.build_regime_switching, regime_loop, golden_regime_args()),
    "regime_uneven": (mv.build_regime_switching, regime_loop, uneven_regime_args(3)),
}


@pytest.mark.parametrize("name", BUILDERS)
def test_builders_equal_node_by_node_reference(name):
    build, reference, args = BUILDERS[name]
    tree, ref = build(*args), reference(*args)
    assert not validate_tree(tree)
    assert (tree.num_assets, tree.horizon) == (ref.num_assets, ref.horizon)
    for key in ("parent", "time", "price", "prob", "regime"):
        got, want = getattr(tree, key), getattr(ref, key)
        assert got.dtype == want.dtype and np.array_equal(got, want), key

