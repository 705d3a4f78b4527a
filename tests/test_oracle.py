import ast
import dataclasses
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import mvhedge as mv
from mvhedge import linalg, oracle
from mvhedge.tree import ScenarioTree

from gen import (binomial_06, dense_gram, dense_increments, dense_y, lsq_loop,
                 martingale_trinomial, node_check_pinv_loop, node_oracle_loop, oracle_sharpe,
                 random_claim, random_tree, scaled_tree, singular, subtree_stacks,
                 uneven_regime_tree)


def test_lsq_complete_binomial_free_endowment():
    tree = mv.build_iid_multinomial([10.0], [([1.0], 0.6), ([-1.0], 0.4)], 1)
    claim = mv.attach_claim(tree, "call", strike=10.0)
    sol = mv.lsq_projection(tree, claim, "free")
    assert sol.min_error == pytest.approx(0.0, abs=1e-15)
    assert sol.v0_opt == pytest.approx(0.5)


def test_lsq_trinomial_fixed_endowment():
    tree = martingale_trinomial()
    claim = mv.attach_claim(tree, "call", strike=10.0)
    sol = mv.lsq_projection(tree, claim, 0.3)
    assert sol.min_error == pytest.approx(0.06)
    # free endowment can only do at least as well
    assert mv.lsq_projection(tree, claim, "free").min_error <= sol.min_error + 1e-15


def trivial_tree():
    return ScenarioTree(num_assets=1, horizon=0, parent=[-1], time=[0], price=[[10.0]],
                        regime=[-1], prob=[1.0])


def test_lsq_trivial_tree_no_trading():
    tree = trivial_tree()
    sol = mv.lsq_projection(tree, np.array([1.0]), 0.25)
    assert sol.min_error == pytest.approx(0.75 ** 2)


def test_qp_martingale_tree():
    rng = np.random.default_rng(4)
    tree = random_tree(rng, martingale=True)
    qp = mv.martingale_qp(tree)
    assert qp.second_moment == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(qp.leaf_density, 1.0, atol=1e-8)


def test_qp_binomial_hand_values():
    qp = mv.martingale_qp(binomial_06())
    assert qp.second_moment == pytest.approx(1.0 / 0.96)
    assert sorted(qp.leaf_density) == pytest.approx([0.8 / 0.96, 1.2 / 0.96])


def test_qp_infeasible_degenerate_step():
    tree = ScenarioTree(num_assets=1, horizon=1, parent=[-1, 0], time=[0, 1],
                        price=[[10.0], [11.0]], regime=[-1, -1], prob=[1.0, 1.0])
    with pytest.raises(mv.Infeasible):
        mv.martingale_qp(tree)


def test_too_large():
    tree = mv.build_binomial([10.0], 1.1, 0.9, 0.5, 11)  # 2048 leaves
    claim = mv.attach_claim(tree, "call", strike=10.0)
    with pytest.raises(mv.TooLarge):
        mv.lsq_projection(tree, claim, "free")
    with pytest.raises(mv.TooLarge):
        mv.martingale_qp(tree)


def test_node_conditional_check_binomial():
    tree = binomial_06()
    checks = mv.node_conditional_check(tree)
    assert checks[0] == pytest.approx(0.96)
    assert checks[tree.leaves()[0]] == 1.0


@pytest.mark.parametrize("seed", range(6))
def test_node_conditional_check_equals_L(seed):
    rng = np.random.default_rng(900 + seed)
    tree = random_tree(rng, periods=3)
    surf = mv.compute_opportunity(tree)
    assert np.allclose(mv.node_conditional_check(tree), surf.L, rtol=1e-9, atol=0.0)
    assert oracle_sharpe(tree)[0] == pytest.approx(np.sqrt(1.0 / surf.L[0] - 1.0), rel=1e-12)


def test_max_sharpe_binomial():
    tree = binomial_06()
    assert oracle_sharpe(tree)[0] == pytest.approx(0.204124, abs=1e-6)


def stacked_cases():
    # the uneven regime tree has subtrees of several shapes in a slice
    rng = np.random.default_rng(1100)
    return [uneven_regime_tree(3), *(random_tree(rng) for _ in range(6))]


@pytest.mark.parametrize("case", range(7))
def test_stacked_node_oracle_matches_per_node_loop(case):
    tree = stacked_cases()[case]
    check, sharpe = node_oracle_loop(tree)
    assert np.allclose(mv.node_conditional_check(tree), check, rtol=1e-12, atol=0.0)
    assert np.allclose(oracle_sharpe(tree), sharpe, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_qp_matches_engine_measures(seed):
    rng = np.random.default_rng(1000 + seed)
    tree = random_tree(rng)
    surf = mv.compute_opportunity(tree)
    mea = mv.measures(tree, surf)
    qp = mv.martingale_qp(tree)
    assert qp.second_moment == pytest.approx(1.0 / surf.L[0], rel=1e-9)
    z = mea.z_qstar[tree.leaves()]
    assert np.max(np.abs(z - qp.leaf_density)) <= 1e-8 * max(1.0, np.max(np.abs(z)))


def scale_cases():
    rng = np.random.default_rng(4242)
    trinomial = mv.build_iid_multinomial(
        [10.0], [([1.2], 0.3), ([0.1], 0.4), ([-1.0], 0.3)], 3)
    cases = [(trinomial, mv.attach_claim(trinomial, "call", strike=10.0))]
    for d in (1, 2):
        tree = random_tree(rng, periods=3, d=d)
        cases.append((tree, random_claim(rng, tree)))
    return cases


@pytest.mark.parametrize("k", [1e-6, 1e6])
@pytest.mark.parametrize("case", range(3))
def test_prices_times_k(k, case):
    # prices x k: the same L; xi / k for the same claim; V x k and
    # error x k^2 for the claim x k; the oracles agree at every k
    tree, claim = scale_cases()[case]
    scaled = scaled_tree(tree, k)
    surf, surf_k = mv.compute_opportunity(tree), mv.compute_opportunity(scaled)
    assert np.allclose(surf_k.L, surf.L, rtol=1e-9, atol=0.0)
    plan = mv.compute_plan(tree, surf, claim)
    xi_k = mv.compute_plan(scaled, surf_k, claim).xi
    inner = tree.layout.inner
    assert np.allclose(xi_k[inner] * k, plan.xi[inner], rtol=1e-9, atol=1e-9)
    claim_k = claim * k
    plan_k = mv.compute_plan(scaled, surf_k, claim_k)
    scale = max(1.0, np.max(np.abs(claim)))
    assert np.allclose(plan_k.V, plan.V * k, rtol=1e-9, atol=1e-12 * scale * k)
    err = mv.hedging_error(tree, surf, plan, plan.v0).total_error
    err_k = mv.hedging_error(scaled, surf_k, plan_k, plan_k.v0).total_error
    assert err_k == pytest.approx(err * k * k, rel=1e-9, abs=1e-12 * (scale * k) ** 2)

    sol = mv.lsq_projection(scaled, claim_k, "free")
    assert sol.v0_opt == pytest.approx(plan_k.v0, abs=1e-9 * scale * k)
    assert err_k == pytest.approx(sol.min_error, rel=1e-9, abs=1e-12 * (scale * k) ** 2)
    assert mv.martingale_qp(scaled).second_moment == pytest.approx(1.0 / surf_k.L[0], rel=1e-9)
    assert np.allclose(mv.node_conditional_check(scaled), surf_k.L, rtol=1e-9, atol=0.0)


def near_duplicated(tree, eps):
    """tree with a copy of its last asset, moved off it by eps times a draw
    per node: G is full rank, with a small eigenvalue that shrinks with eps."""
    d = tree.num_assets
    noise = np.random.default_rng(1450).normal(size=len(tree.parent))
    price = np.column_stack([tree.price, tree.price[:, -1] + eps * noise])
    return dataclasses.replace(tree, num_assets=d + 1, price=price)


def test_certificate_clears_the_pinv_cutoff():
    # no certificate: the factor keeps every eigenvalue that pinv_psd(G)
    # keeps, as each pivot, a Schur complement of G, has its smallest
    # eigenvalue at least G's and its largest at most G's, and a cutoff
    # d 1e-12 below G's m 1e-12.  A near-duplicated asset puts G's smallest
    # eigenvalue within a decade of the cutoff; the pivots' square roots
    # keep the solve as accurate as pinv_psd(G)'s there
    trinomial = mv.build_iid_multinomial([10.0], [([1.2], 0.3), ([0.1], 0.4), ([-1.0], 0.3)], 3)
    f = oracle.root_factor(near_duplicated(trinomial, 1e-3))
    G = dense_gram(f)
    lam = np.linalg.eigvalsh(G)
    assert not singular(G) and lam[0] < 10 * len(lam) * linalg.EIG_TRUNCATION * lam[-1]
    rhs = np.random.default_rng(1470).normal(size=(len(lam), 3))
    cond = lam[-1] / lam[0]
    assert_close(f.solve(rhs), mv.pinv_psd(G) @ rhs, 1e-14 * cond)
    assert_close(G @ f.solve(rhs), rhs, 1e-14 * cond)


def test_oracle_calls_no_dense_solver():
    # one fill-free factor: no numpy.linalg solve, Cholesky or inverse
    tree = ast.parse(Path(oracle.__file__).read_text())
    linalg_calls = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"}
    imports = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert linalg_calls & {"solve", "cholesky", "inv"} == set()
    assert "numpy.linalg" not in imports


def assert_close(got, want, rel):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= rel * np.max(np.abs(want), initial=0.0)


def block_cols(tree, first, counts):
    """The root columns of each subtree's holdings, in dense_increments'
    column order, and the subtree's leaf rows in the root's leaf order."""
    d = tree.num_assets
    ids = [first[:, level, None] + np.arange(c) for level, c in enumerate(counts)]
    cols = (np.hstack(ids[:-1])[..., None] * d + np.arange(d)).reshape(len(first), -1)
    return cols, ids[-1] - tree.leaves()[0]


def factor_cases():
    """(tree, first, counts, cash): the roots of six random trees, with and
    without cash, the stacked subtrees of a tree with several subtree
    shapes in a slice, and the 0-period tree."""
    cases = []
    trees = [random_tree(np.random.default_rng(1500 + seed)) for seed in range(6)]
    for tree in trees + [trivial_tree()]:
        bounds = np.searchsorted(tree.time, np.arange(tree.horizon + 2))
        cases += [(tree, bounds[None, :-1], np.diff(bounds), cash) for cash in (True, False)]
    tree = uneven_regime_tree(3)
    return cases + [(tree, first, counts, False) for first, counts in subtree_stacks(tree)]


@pytest.mark.parametrize("case", range(len(factor_cases())))
def test_path_sparse_factor_matches_dense(case):
    # the root's factor is the dense one, without cash its block on the
    # holdings; a subtree's Y'Y is its block of the root's G, whose cash
    # column times the cash norm, over sqrt(P(n)), is the subtree's Y' sqrt(w)
    tree, first, counts, cash = factor_cases()[case]
    f = oracle.root_factor(tree)
    G = dense_gram(f)
    assert not singular(G)
    if first[0, 0] == 0:   # the root; a stack's subtrees start at depth 1 or later
        Y, norms = dense_increments(tree, first, counts, cash)
        (Y, norms), keep = (Y[0], norms[0]), slice(None if cash else -1)
        assert np.array_equal(dense_y(f)[:, keep] != 0.0, Y != 0.0)
        assert_close(G[keep, keep], Y.T @ Y, 1e-13)
        assert_close(f.norms[keep], norms, 1e-13)
        rng = np.random.default_rng(1550 + case)
        t, x = rng.normal(size=len(Y)), np.zeros(len(f.norms))
        x[keep] = rng.normal(size=Y.shape[1])
        assert_close(f.Yt(t)[keep], Y.T @ t, 1e-13)
        assert_close(f.Yx(x), Y @ x[keep], 1e-13)
        return
    Y, norms = dense_increments(tree, first, counts, cash=True)
    cols, leaves = block_cols(tree, first, counts)
    mass = np.sum(f.sw[leaves] ** 2, axis=1)
    hold, sw = Y[..., :-1], Y[..., -1] * norms[:, None, -1]
    assert_close(G[cols[..., None], cols[:, None]], hold.swapaxes(1, 2) @ hold, 1e-13)
    assert_close(G[cols, -1] * f.norms[-1] / np.sqrt(mass)[:, None],
                 (hold.swapaxes(1, 2) @ sw[..., None])[..., 0], 1e-13)


def test_lsq_reads_the_root_solve_only_for_its_claim(monkeypatch):
    # on a shared factor, each call solves its own claim, one column
    rng = np.random.default_rng(1560)
    tree = random_tree(rng)
    claim, other = random_claim(rng, tree), random_claim(rng, tree)
    root = oracle.root_factor(tree)
    solves = []
    solve = oracle._Factor.solve
    monkeypatch.setattr(oracle._Factor, "solve", lambda f, rhs: solves.append(rhs.shape)
                        or solve(f, rhs))
    for c in (claim, other):
        solves.clear()
        got = mv.lsq_projection(tree, c, "free", root)
        assert solves == [root.norms.shape]
        want = mv.lsq_projection(tree, c, "free")
        assert got.v0_opt == pytest.approx(want.v0_opt, rel=1e-12, abs=1e-12)
        assert got.min_error == pytest.approx(want.min_error, rel=1e-12, abs=1e-12)
        assert_close(got.value_process, want.value_process, 1e-12)


def duplicated(tree):
    """tree with a copy of its last asset, which makes G singular."""
    d = tree.num_assets
    return dataclasses.replace(tree, num_assets=d + 1, price=tree.price[:, [*range(d), d - 1]])


def fixed_v0_cases():
    """(tree, claim): random trees, the uneven regime tree, duplicated-asset
    trees, whose G takes the pseudoinverse, and the 0-period tree."""
    rng = np.random.default_rng(1800)
    trees = [uneven_regime_tree(3), *(random_tree(rng) for _ in range(8))]
    trees += [duplicated(tree) for tree in trees[1:5]]
    return [(tree, random_claim(rng, tree)) for tree in trees] + [(trivial_tree(), np.ones(1))]


@pytest.mark.parametrize("v0", [0.0, 0.37, 5.0])
@pytest.mark.parametrize("case", range(len(fixed_v0_cases())))
def test_fixed_v0_lsq_matches_the_block_solve(case, v0):
    # moving the root's one solution along its cash column's solution
    # gives the solution of G without the cash row and column
    tree, claim = fixed_v0_cases()[case]
    if case in range(9, 13):
        assert singular(dense_gram(oracle.root_factor(tree)))
    error, _, value = lsq_loop(tree, claim, v0)
    sol = mv.lsq_projection(tree, claim, v0)
    scale = max(1.0, v0, float(np.max(np.abs(claim))))
    assert sol.v0_opt == v0
    assert sol.min_error == pytest.approx(error, rel=1e-12, abs=1e-12 * scale * scale)
    assert_close(sol.value_process, value, 1e-12)


@pytest.mark.parametrize("v0", [0.3, "free"])
def test_lsq_without_a_factor_solves_the_root_once(monkeypatch, v0):
    rng = np.random.default_rng(1850)
    tree = random_tree(rng)
    claim = random_claim(rng, tree)
    m = len(oracle.root_factor(tree).norms)
    shapes = []
    solve = oracle._Factor.solve
    monkeypatch.setattr(oracle._Factor, "solve", lambda f, rhs: shapes.append(rhs.shape)
                        or solve(f, rhs))
    mv.lsq_projection(tree, claim, v0)
    # the claim, and for a fixed v0 the cash column, one column each
    assert shapes == [(m,)] * (1 if v0 == "free" else 2)


def zero_column(tree):
    """tree with a second asset whose price never moves: an all-zero column
    of Y at every inner node, which makes G singular."""
    price = np.column_stack([tree.price, np.full(len(tree.parent), 7.0)])
    return dataclasses.replace(tree, num_assets=tree.num_assets + 1, price=price)


def full_rank_cases():
    rng = np.random.default_rng(1600)
    return [*(random_tree(rng) for _ in range(4)), uneven_regime_tree(3), binomial_06(4)]


def singular_cases():
    rng = np.random.default_rng(1610)
    trees = [duplicated(random_tree(rng)) for _ in range(3)]
    return trees + [duplicated(uneven_regime_tree(3)), zero_column(binomial_06(3)),
                    zero_column(random_tree(rng, d=1))]


@pytest.mark.parametrize("seed", range(6))
def test_certified_factor_matches_pinv(seed):
    # where G has full rank, the factor's solve is pinv_psd(G)'s
    tree = full_rank_cases()[seed]
    f = oracle.root_factor(tree)
    G = dense_gram(f)
    assert not singular(G)
    rhs = np.random.default_rng(1620 + seed).normal(size=(len(f.norms), 3))
    assert_close(f.solve(rhs), mv.pinv_psd(G) @ rhs, 1e-12)
    assert_close(f.solve(rhs[:, 0]), mv.pinv_psd(G) @ rhs[:, 0], 1e-12)
    assert_close(f.cash_sol, mv.pinv_psd(G)[:, -1], 1e-12)


@pytest.mark.parametrize("case", range(7))
def test_certified_root_certifies_its_blocks(case):
    # every node check is its front's cash entry, once the subtree is
    # eliminated, over its cash mass: 1 - g' G_nn^+ g / P(n) on the
    # subtree's block, pinv_psd'd, for the root (G without cash) and each
    # stack of later subtrees
    rng = np.random.default_rng(1650 + case)
    tree = uneven_regime_tree(3) if case == 0 else random_tree(rng)
    f = oracle.root_factor(tree)
    G = dense_gram(f)
    got = oracle.node_conditional_check(tree, f)
    g = G[:-1, -1] * f.norms[-1]
    assert got[0] == pytest.approx(1.0 - g @ mv.pinv_psd(G[:-1, :-1]) @ g, rel=1e-12)
    for first, counts in subtree_stacks(tree):
        cols, leaves = block_cols(tree, first, counts)
        g = G[cols, -1] * f.norms[-1]
        quad = np.einsum("ij,ijk,ik->i", g, mv.pinv_psd(G[cols[..., None], cols[:, None]]), g)
        want = 1.0 - quad / np.sum(f.sw[leaves] ** 2, axis=1)
        assert np.allclose(got[first[:, 0]], want, rtol=1e-12, atol=0.0)


def test_certificate_rejects_an_eigenvalue_at_the_pinv_cutoff():
    # where G is singular (a duplicated asset, a price that never moves),
    # pivots through pinv_psd drop its null space: the factor is a
    # generalized inverse, whose Y-image, cash coefficient, least squares,
    # wealth and node checks are pinv_psd(G)'s
    rng = np.random.default_rng(1700)
    for tree in singular_cases():
        f = oracle.root_factor(tree)
        G = dense_gram(f)
        assert singular(G)
        claim = random_claim(rng, tree)
        rhs = f.Yt(f.sw * claim)
        got, want = f.solve(rhs), mv.pinv_psd(G) @ rhs
        assert_close(f.Yx(got), f.Yx(want), 1e-12)
        assert got[-1] == pytest.approx(want[-1], rel=1e-12)
        for v0 in ("free", 0.37):
            sol = mv.lsq_projection(tree, claim, v0)
            error, v0_opt, value = lsq_loop(tree, claim, v0)
            scale = max(1.0, float(np.max(np.abs(claim))))
            assert sol.v0_opt == pytest.approx(v0_opt, rel=1e-12)
            assert sol.min_error == pytest.approx(error, rel=1e-12, abs=1e-12 * scale * scale)
            assert_close(sol.value_process, value, 1e-12)
        want = node_check_pinv_loop(tree)
        assert np.allclose(oracle.node_conditional_check(tree, f), want, rtol=1e-12, atol=0.0)


def test_root_factor_forms_no_root_size_matrix():
    # 1,024 leaves of 4 assets, m = 4,093 columns: the factor's fronts are
    # no larger than a leaf's path, 41 x 41, so it peaks below one m x m
    # array (a normal matrix formed whole and copied once peaked at 275 MB,
    # the fronts at 22 MB).  Two points for 4 assets make the engine call
    # the market degenerate, not the oracle
    tree = mv.build_iid_multinomial([10.0] * 4, [([1.0, 0.5, -0.2, 0.3], 0.5),
                                                 ([-1.0, -0.4, 0.3, -0.2], 0.5)], 10)
    tracemalloc.start()
    try:
        f = oracle.root_factor(tree)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(f.norms) == 4093 and peak < 4093 * 4093 * 8


def oracle_bound_tree(seed):
    """An additive iid tree at the oracle bound, 5 periods of a 4-point law
    in 2 assets (1,024 leaves), drawn until L0 >= 0.05, and its surface."""
    rng = np.random.default_rng(seed)
    while True:
        p = rng.uniform(0.15, 0.35, size=4)
        law = list(zip(rng.uniform(-1.2, 1.2, size=(4, 2)).tolist(), (p / p.sum()).tolist()))
        tree = mv.build_iid_multinomial([10.0, 10.0], law, 5)
        surf = mv.compute_opportunity(tree)
        if surf.L[0] >= 0.05:
            return tree, surf


@pytest.mark.parametrize("seed", [0, 2])
def test_oracles_at_the_bound_agree_to_rounding(seed):
    # summing each node's front from its own subtree keeps the cancellation
    # of one normal matrix accumulated over all leaves out: QP and node
    # checks within 3.5e-15 of the engine on these draws (a dense normal
    # matrix: 6.8e-14 and 1.7e-13 for the QP, 6.2e-14 and 3.2e-14 for L)
    tree, surf = oracle_bound_tree(seed)
    assert len(tree.leaves()) == 1024
    assert abs(mv.martingale_qp(tree).second_moment * surf.L[0] - 1.0) <= 1e-14
    assert np.max(np.abs(mv.node_conditional_check(tree) / surf.L - 1.0)) <= 1e-14


@pytest.mark.parametrize("shape", [(3,), (9, 1)])
def test_lsq_rejects_a_claim_not_one_value_per_leaf(shape):
    # 9 leaves: a claim of another length, or one value per leaf in a
    # column, is a BadParameter, as in compute_plan
    tree = martingale_trinomial(2)
    with pytest.raises(mv.BadParameter, match=r"claim needs 9 values, got shape"):
        mv.lsq_projection(tree, np.ones(shape), "free")


@pytest.mark.parametrize("v0", ["fre", "", None, np.nan, np.inf, -np.inf, [0.3], True,
                                np.array([0.3, 0.7])])
def test_lsq_rejects_a_v0_neither_free_nor_finite(v0):
    tree = binomial_06()
    with pytest.raises(mv.BadParameter, match="v0 must be 'free' or a finite number"):
        mv.lsq_projection(tree, np.ones(2), v0)
