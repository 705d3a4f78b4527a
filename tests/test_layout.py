"""The per-slice tree layout and the sweeps that run over it: every
batched sweep must equal its per-node reference loop in tests/gen.py
bit for bit, and name the same node when it fails."""
import ast
from pathlib import Path

import numpy as np
import pytest

import mvhedge as mv

from gen import (
    backtest_2d_tree,
    fs_residual_loop,
    hedging_error_loop,
    mean_value_loop,
    measures_loop,
    node_probs_loop,
    opportunity_loop,
    pure_hedge_loop,
    random_binomial,
    random_claim,
    random_iid,
    random_tree,
    rollout_loop,
    shift_adjustment,
    step,
    two_regime_tree,
    uncentered_sweep,
    uneven_regime_tree,
)


def case_trees():
    rng = np.random.default_rng(2024)
    trees = [(f"random_d{d}_{j}", random_tree(rng, d=d)) for d in (1, 2) for j in range(4)]
    trees += [("uneven_regime", uneven_regime_tree(3)), ("backtest_2d_shaped", backtest_2d_tree(3))]
    return [(name, tree, random_claim(rng, tree)) for name, tree in trees]


CASES = case_trees()


def desk_scale_cases():
    rng = np.random.default_rng(77)
    trees = [(f"random_{j}", random_tree(rng)) for j in range(12)]
    trees += [(f"binomial_{j}", random_binomial(rng)) for j in range(4)]
    trees += [(f"iid_{j}", random_iid(rng)) for j in range(4)]
    trees += [("uneven_regime", uneven_regime_tree(3)), ("two_regime", two_regime_tree(3)),
              ("backtest_2d_shaped", backtest_2d_tree(3))]
    return [(name, tree, random_claim(rng, tree)) for name, tree in trees]


DESK = desk_scale_cases()


def equal(a, b) -> bool:
    return np.array_equal(a, b, equal_nan=True)


@pytest.mark.parametrize("name,tree,claim", CASES, ids=[c[0] for c in CASES])
def test_sweeps_equal_reference_loops(name, tree, claim):
    ref = opportunity_loop(tree)
    surf = mv.compute_opportunity(tree)
    for key, value in ref.items():
        assert equal(getattr(surf, key), value), key

    V = mv.compute_mean_value(tree, surf, claim)
    assert equal(V, mean_value_loop(tree, surf, claim))
    plan = mv.compute_pure_hedge(tree, surf, V)
    assert equal(plan.xi, pure_hedge_loop(tree, surf, V))

    for args in [(plan.xi, plan.V, surf.a_tilde, plan.v0 + 0.3), (plan.xi, 0.0, 0.0, plan.v0),
                 (0.0, 1.5, surf.a_tilde, 0.25)]:
        phi, G = mv.rollout_strategy(tree, *args)
        ref_phi, ref_G = rollout_loop(tree, *args)
        assert equal(phi, ref_phi) and equal(G, ref_G)

    assert equal(tree.node_probs(), node_probs_loop(tree))
    report = mv.hedging_error(tree, surf, plan, plan.v0 + 0.1)
    e, total, slice_error = hedging_error_loop(tree, surf, plan, plan.v0 + 0.1)
    assert equal(plan.e, e)
    assert report.total_error == total and report.slice_error == slice_error

    mea, ref_mea = mv.measures(tree, surf), measures_loop(tree, surf)
    assert np.count_nonzero(surf.qstar_w <= 0.0) == ref_mea["num_negative_weights"]
    for key in ("nstar_f", "z_qstar", "z_pstar"):
        assert equal(getattr(mea, key), ref_mea[key]), key
    assert mv.fs_residual_check(tree, surf, plan) == fs_residual_loop(tree, surf, plan)


@pytest.mark.parametrize("name,tree,claim", DESK, ids=[c[0] for c in DESK])
def test_engine_agrees_with_the_uncentered_algebra(name, tree, claim):
    # the one-step algebra before the centered P* law, at desk scale
    ref = uncentered_sweep(tree, claim)
    surf = mv.compute_opportunity(tree)
    plan = mv.compute_plan(tree, surf, claim)
    gkw = mv.compute_plan(tree, mv.martingale_surface(tree), claim).xi
    got = {"L": surf.L, "a_tilde": surf.a_tilde, "qstar_w": surf.qstar_w,
           "pstar_p": surf.pstar_p, "V": plan.V, "xi": plan.xi, "e": plan.e, "gkw": gkw}
    for key, value in got.items():
        np.testing.assert_allclose(value, ref[key], rtol=1e-12, atol=1e-12, err_msg=key)


def test_qstar_w_read_through_step_matches_node_by_node():
    # a node's one-step weights sit at its child ids: (L_k/m0)(1 - a_hat'
    # dc_k), dc_k the increments centered under P*, a_hat = R R'b*, R the
    # stored root of c_hat*^+
    tree = uneven_regime_tree(3)
    surf = mv.compute_opportunity(tree)
    for i in tree.layout.inner.tolist():
        kids, _, deltas = step(tree, i)
        _, dc = mv.centered_moments(surf.pstar_p[kids], deltas)
        a_hat = surf.c_hat_root[i] @ (surf.b_sstar[i] @ surf.c_hat_root[i])
        want = (surf.L[kids] / surf.m0[i]) * (1.0 - dc @ a_hat)
        assert equal(surf.qstar_w[kids], want), i


def make_riskless(tree, node_ids):
    """Give each listed node's children one common increment, a riskless
    one-step return (before the layout exists)."""
    for i in node_ids:
        tree.price[tree.parent == i] = tree.price[i] + 0.5
    return tree


# uneven_regime_tree(3): slice 1 is nodes 1, 3 (2 children) and 2, 4 (4
# children); node 10 is in slice 2.  (failing nodes, the node to name)
FAILING = [
    ([3], 3),            # the group of 2 children
    ([2, 3], 2),         # lowest id in the later group of the slice
    ([0, 3, 4], 3),      # the latest failing slice wins over the root
    ([0, 2, 10], 10),    # slice 2 before slice 1
]


@pytest.mark.parametrize("node_ids,expected", FAILING)
def test_degenerate_step_names_the_loops_node(node_ids, expected):
    tree = make_riskless(uneven_regime_tree(3), node_ids)
    with pytest.raises(mv.DegenerateStep) as loop:
        opportunity_loop(tree)
    with pytest.raises(mv.DegenerateStep) as batched:
        mv.compute_opportunity(tree)
    assert batched.value.node_id == loop.value.node_id == expected


@pytest.mark.parametrize("node_ids,expected", FAILING)
def test_weight_sum_error_names_the_loops_node(node_ids, expected):
    tree = uneven_regime_tree(3)
    surf = mv.compute_opportunity(tree)
    shift_adjustment(tree, surf, node_ids)
    claim = mv.attach_claim(tree, "call", strike=10.0)
    with pytest.raises(mv.DegenerateStep) as loop:
        mean_value_loop(tree, surf, claim)
    with pytest.raises(mv.DegenerateStep) as batched:
        mv.compute_mean_value(tree, surf, claim)
    assert batched.value.node_id == loop.value.node_id == expected


def test_layout_matches_nodes():
    tree = uneven_regime_tree(3)
    lay = tree.layout
    assert tree.layout is lay
    for i in tree.nodes:
        kids, probs, deltas = step(tree, i)
        assert kids.tolist() == np.flatnonzero(tree.parent == i).tolist()
        assert probs.tolist() == tree.prob[kids].tolist()
        for cid, delta in zip(kids, deltas):
            assert np.array_equal(delta, tree.price[cid] - tree.price[i])
    for t in range(tree.horizon + 1):
        assert lay.slices[t].tolist() == np.flatnonzero(tree.time == t).tolist()
    for t, steps in enumerate(lay.steps):
        counts = [s.kids.shape[1] for s in steps]
        assert counts == sorted(set(counts))
        ids = np.sort(np.concatenate([s.ids for s in steps]))
        assert np.array_equal(ids, lay.slices[t])
    has_children = np.isin(tree.nodes, tree.parent)
    assert tree.leaves().tolist() == np.flatnonzero(~has_children).tolist()
    assert lay.inner.tolist() == np.flatnonzero(has_children).tolist()


def test_step_views_are_read_only():
    tree = uneven_regime_tree(2)
    kids, probs, deltas = step(tree, 0)
    views = [kids, probs, deltas, tree.layout.slices[1]]
    views += [a for steps in tree.layout.steps for s in steps for a in s]
    for view in views:
        with pytest.raises(ValueError):
            view[0] = 0


def test_measures_are_node_aligned():
    # a one-step factor sits at the node its edge leads to, 1 at the
    # root, as tree.prob does, so each path density is a running product
    tree = uneven_regime_tree(3)
    surf = mv.compute_opportunity(tree)
    mea = mv.measures(tree, surf)
    for key, value in (("qstar_w", surf.qstar_w), ("pstar_p", surf.pstar_p),
                       ("nstar_f", mea.nstar_f)):
        assert value.shape == (len(tree.nodes),) and value[0] == 1.0, key
    for i in tree.layout.inner.tolist():
        kids, probs, _ = step(tree, i)
        assert equal(mea.z_qstar[kids], mea.z_qstar[i] * surf.qstar_w[kids]), i
        assert equal(mea.z_pstar[kids], mea.z_pstar[i] * (surf.pstar_p[kids] / probs)), i


def test_oracles_build_no_layout(monkeypatch):
    # verify re-solves the subtree of every node; no oracle may build a layout
    tree = uneven_regime_tree(3)
    claim = mv.attach_claim(tree, "call", strike=10.0)
    surf = mv.compute_opportunity(tree)
    built = []
    original = mv.tree.TreeLayout.__init__
    monkeypatch.setattr(mv.tree.TreeLayout, "__init__",
                        lambda lay, sub: built.append(sub) or original(lay, sub))
    assert np.allclose(mv.node_conditional_check(tree), surf.L, rtol=1e-9, atol=0.0)
    mv.martingale_qp(tree)
    mv.lsq_projection(tree, claim, "free")
    assert built == []


ENGINE = {"linalg", "opportunity", "hedging", "backtest"}


def test_oracle_imports_nothing_from_the_engine_and_reads_no_layout():
    # the oracles cross-check the engine only while they share no code with it
    source = Path(mv.oracle.__file__).read_text()
    shared, layout_reads = set(), []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").rsplit(".", 1)[-1]
            names = {alias.name for alias in node.names}
            if module in ENGINE:
                shared |= {f"{module}.{name}" for name in names}
            elif module in ("", "mvhedge"):
                shared |= names & ENGINE
        elif isinstance(node, ast.Import):
            shared |= {alias.name for alias in node.names
                       if alias.name.rsplit(".", 1)[-1] in ENGINE}
        elif isinstance(node, ast.Attribute) and node.attr == "layout":
            layout_reads.append(node.lineno)
    assert shared == set()
    assert layout_reads == []


def test_cli_does_no_one_step_algebra():
    # cli only prints: the one-step algebra that verify checks, its
    # identities included, is computed in the engine
    source = (Path(mv.__file__).parent / "cli.py").read_text()
    linalg_imports, step_reads = [], []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names = {(node.module or "").rsplit(".", 1)[-1]} | {a.name for a in node.names}
            if "linalg" in names:
                linalg_imports.append(node.lineno)
        elif isinstance(node, ast.Import):
            if any(a.name.rsplit(".", 1)[-1] == "linalg" for a in node.names):
                linalg_imports.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "steps":
            step_reads.append(node.lineno)
    assert linalg_imports == []
    assert step_reads == []


def test_no_module_imports_a_private_name():
    # a name with a leading underscore is used only in the module that
    # defines it
    found = []
    for path in sorted(Path(mv.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "mvhedge"):
                found += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                          if alias.name.startswith("_")]
    assert found == []


LAYOUT_FIELDS = {"offsets", "slices", "steps", "inner"}


def test_one_index_convention():
    # every one-step value is stored at the child node its edge leads
    # to, so no module turns child ids into edge indices, and outside
    # tree.py the layout is read only through its node and slice fields
    kids_minus, layout_reads = [], []
    for path in sorted(Path(mv.__file__).parent.glob("*.py")):
        module = ast.parse(path.read_text())
        layouts = {target.id for node in ast.walk(module) if isinstance(node, ast.Assign)
                   and isinstance(node.value, ast.Attribute) and node.value.attr == "layout"
                   for target in node.targets if isinstance(target, ast.Name)}
        for node in ast.walk(module):
            if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
                    and isinstance(node.left, ast.Attribute) and node.left.attr == "kids"):
                kids_minus.append(f"{path.name}:{node.lineno}")
            elif (isinstance(node, ast.Attribute) and path.name != "tree.py"
                  and node.attr not in LAYOUT_FIELDS
                  and (isinstance(node.value, ast.Attribute) and node.value.attr == "layout"
                       or isinstance(node.value, ast.Name) and node.value.id in layouts)):
                layout_reads.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert kids_minus == []
    assert layout_reads == []


WEIGHT_HOMES = {"compute_opportunity", "martingale_surface"}


def divisions_by_node_values(names: set) -> list[str]:
    """"module:line function" of each division, in a function of
    src/mvhedge outside WEIGHT_HOMES, whose divisor holds one of the
    named arrays indexed by node ids (a subscript by a name, not by a
    constant or by slices alone)."""
    found = []
    for path in sorted(Path(mv.__file__).parent.glob("*.py")):
        module = ast.parse(path.read_text())
        functions = [f for top in module.body
                     for f in (top.body if isinstance(top, ast.ClassDef) else [top])
                     if isinstance(f, ast.FunctionDef) and f.name not in WEIGHT_HOMES]
        for func in functions:
            for node in ast.walk(func):
                if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)):
                    continue
                for sub in ast.walk(node.right):
                    if (isinstance(sub, ast.Subscript)
                            and (getattr(sub.value, "id", None) in names
                                 or getattr(sub.value, "attr", None) in names)
                            and any(isinstance(x, (ast.Name, ast.Attribute))
                                    for x in ast.walk(sub.slice))):
                        found.append(f"{path.name}:{node.lineno} {func.name}")
    return found


def test_one_step_weights_have_one_home():
    # the Q* weights (L_k/L_n)(1 - a_tilde' d_k) and the P* probabilities
    # p_k L_k / m0 are formed where L and m0 are, and every sweep reads
    # them; identities' lemma323 is the second route that verify compares
    found = divisions_by_node_values({"L", "m0"})
    assert [f.split()[1] for f in found] == ["identities"], found


def test_each_one_step_covariance_is_inverted_once():
    # compute_opportunity, martingale_surface and mvt_process each factor
    # a step's weighted increments by one gram_root call, and the pure
    # hedge reads the stored root; pinv_psd inverts only c_tilde*, in
    # identities, the second route to Lemma 3.19
    src, calls, imports = Path(mv.__file__).parent, {}, []
    for name in ("hedging.py", "opportunity.py"):
        module = ast.parse((src / name).read_text())
        imports += [f"{name} {a.name}" for node in ast.walk(module)
                    if isinstance(node, ast.ImportFrom) for a in node.names]
        for func in module.body:
            if isinstance(func, ast.FunctionDef):
                calls[f"{name} {func.name}"] = [
                    f"{fn}({ast.unparse(node.args[0])})" for node in ast.walk(func)
                    if isinstance(node, ast.Call)
                    for fn in [getattr(node.func, "id", None) or getattr(node.func, "attr", None)]
                    if fn in ("pinv_psd", "gram_root")]
    assert not {"hedging.py pinv_psd", "hedging.py gram_root"} & set(imports)
    assert {f: [c.split("(")[0] for c in found] for f, found in calls.items() if found} == {
        "opportunity.py compute_opportunity": ["gram_root"],
        "opportunity.py martingale_surface": ["gram_root"],
        "opportunity.py mvt_process": ["gram_root"], "opportunity.py identities": ["pinv_psd"]}
    assert calls["opportunity.py identities"] == ["pinv_psd(c_tilde)"]


def test_child_opportunity_values_have_one_reader():
    # only the opportunity sweep reads L at the children, to form the
    # one-step P* law; identities' lemma323 is the second route that
    # verify compares.  Every other sweep reads the stored law
    found = set()
    for path in sorted(Path(mv.__file__).parent.glob("*.py")):
        module = ast.parse(path.read_text())
        for func in ast.walk(module):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if (isinstance(node, ast.Subscript)
                        and (getattr(node.value, "id", None) == "L"
                             or getattr(node.value, "attr", None) == "L")
                        and any(getattr(x, "attr", getattr(x, "id", None)) == "kids"
                                for x in ast.walk(node.slice))):
                    found.add(func.name)
    assert found == {"compute_opportunity", "identities"}


def test_claim_length_must_match_leaves():
    tree = uneven_regime_tree(2)
    with pytest.raises(mv.BadParameter):
        mv.compute_plan(tree, mv.compute_opportunity(tree), np.ones(3))
