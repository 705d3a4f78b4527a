"""End-to-end acceptance gate.

Each test covers one advertised guarantee of the engine and prints a
single pass/fail line on the real terminal (bypassing capture), so a
plain ``pytest tests/test_acceptance.py`` run leaves a ten-line scorecard.
"""
from __future__ import annotations

import sys

import numpy as np
import pytest

import mvhedge as mv
from gen import (
    binomial_06,
    c_hat_at,
    martingale_trinomial,
    oracle_sharpe,
    random_binomial,
    random_claim,
    random_iid,
    random_tree,
    step,
    two_regime_tree,
)


def report(name: str, ok: bool) -> None:
    print(f"ACCEPT {name}: {'PASS' if ok else 'FAIL'}", file=sys.__stdout__, flush=True)
    assert ok, name


def full_plan(tree, claim):
    surf = mv.compute_opportunity(tree)
    plan = mv.compute_plan(tree, surf, claim)
    return surf, plan


@pytest.fixture(scope="module")
def reference_trees():
    rng = np.random.default_rng(2024)
    return [random_tree(rng) for _ in range(50)]


def test_01_engine_matches_least_squares_oracle():
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(200):
        tree = random_tree(rng)
        claim = random_claim(rng, tree)
        surf, plan = full_plan(tree, claim)
        rep = mv.hedging_error(tree, surf, plan, plan.v0)
        sol = mv.lsq_projection(tree, claim, v0="free")
        scale = max(1.0, float(np.nanmax(np.abs(sol.value_process))))
        if abs(rep.total_error - sol.min_error) > 1e-9 * max(1.0, sol.min_error):
            ok = False
        if abs(plan.v0 - sol.v0_opt) > 1e-9 * scale:
            ok = False
        _, G = mv.rollout_strategy(tree, plan.xi, plan.V, surf.a_tilde, plan.v0)
        if np.nanmax(np.abs(G - sol.value_process)) > 1e-9 * scale:
            ok = False
    report("oracle_equivalence", ok)


def test_02_opportunity_process_everywhere(reference_trees):
    ok = True
    for tree in reference_trees:
        surf = mv.compute_opportunity(tree)
        for L, brute in zip(surf.L, mv.node_conditional_check(tree)):
            if not (0.0 < L <= 1.0 + 1e-12):
                ok = False
            if abs(L - brute) > 1e-9 * max(1.0, brute):
                ok = False
        # one-step submartingale inequality: L(n) <= E[L(t+1) | n]
        for i in tree.layout.inner:
            kids, probs, _ = step(tree, i)
            if surf.L[i] > probs @ surf.L[kids] + 1e-12:
                ok = False
    report("opportunity_process", ok)


def test_03_variance_optimal_measure(reference_trees):
    ok = True
    for tree in reference_trees:
        surf = mv.compute_opportunity(tree)
        mea = mv.measures(tree, surf)
        qp = mv.martingale_qp(tree)
        if abs(qp.second_moment - 1.0 / surf.L[0]) > 1e-9 / surf.L[0]:
            ok = False
        z = mea.z_qstar[tree.leaves()]
        if np.max(np.abs(z - qp.leaf_density)) > 1e-9 * max(1.0, np.max(np.abs(z))):
            ok = False
    # hand binomial case: minimal second moment 1/0.96
    qp = mv.martingale_qp(binomial_06())
    if abs(qp.second_moment - 1.0 / 0.96) > 1e-12:
        ok = False
    report("variance_optimal_measure", ok)


def test_04_martingale_reduction():
    rng = np.random.default_rng(11)
    ok = True
    for _ in range(20):
        tree = random_tree(rng, martingale=True)
        surf = mv.compute_opportunity(tree)
        mea = mv.measures(tree, surf)
        if np.nanmax(np.abs(surf.L - 1.0)) > 1e-12:
            ok = False
        if np.nanmax(np.abs(surf.a_tilde)) > 1e-12:
            ok = False
        if np.max(np.abs(mea.z_pstar - 1.0)) > 1e-12:
            ok = False
        claim = random_claim(rng, tree)
        plan = mv.compute_plan(tree, surf, claim)
        phi, _ = mv.rollout_strategy(tree, plan.xi, plan.V, surf.a_tilde, plan.v0)
        gkw, _ = mv.strategy_holdings(tree, surf, plan, "gkw", plan.v0)
        scale = max(1.0, float(np.nanmax(np.abs(plan.xi))))
        if np.nanmax(np.abs(phi - plan.xi)) > 1e-12 * scale:
            ok = False
        if np.nanmax(np.abs(gkw - plan.xi)) > 1e-9 * scale:
            ok = False
    # hand trinomial call: value 0.3, hedge 0.5, residual error 0.06
    tree = martingale_trinomial()
    claim = mv.attach_claim(tree, "call", strike=10.0)
    surf, plan = full_plan(tree, claim)
    rep = mv.hedging_error(tree, surf, plan, plan.v0)
    if abs(plan.v0 - 0.3) > 1e-12 or abs(plan.xi[0, 0] - 0.5) > 1e-12:
        ok = False
    if abs(rep.total_error - 0.06) > 1e-12:
        ok = False
    report("martingale_reduction", ok)


def _replication_price(tree, claim):
    """Independent binomial pricing oracle: one-step risk-neutral weights,
    plain backward induction on payoffs."""
    value = np.full(len(tree.nodes), np.nan)
    for leaf, h in zip(tree.leaves(), claim):
        value[leaf] = float(h)
    for t in range(tree.horizon - 1, -1, -1):
        for i in tree.layout.slices[t]:
            (up_id, dn_id), _, deltas = step(tree, i)
            du, dd = deltas[:, 0]
            q = -dd / (du - dd)
            value[i] = q * value[up_id] + (1.0 - q) * value[dn_id]
    return value


def test_05_complete_market_reduction():
    rng = np.random.default_rng(13)
    ok = True
    for _ in range(30):
        tree = random_binomial(rng)
        claim = random_claim(rng, tree)
        surf, plan = full_plan(tree, claim)
        rep = mv.hedging_error(tree, surf, plan, plan.v0)
        repl = _replication_price(tree, claim)
        scale = max(1.0, float(np.nanmax(np.abs(repl))))
        if rep.total_error > 1e-12 * scale * scale:
            ok = False
        if np.nanmax(np.abs(plan.V - repl)) > 1e-12 * scale:
            ok = False
    report("complete_market", ok)


def test_06_deterministic_tradeoff_classification():
    rng = np.random.default_rng(17)
    ok = True
    for _ in range(30):
        tree = random_iid(rng)
        surf = mv.compute_opportunity(tree)
        diag = mv.mvt_process(tree, surf)
        if not (diag.deterministic_mvt and diag.pstar_is_p):
            ok = False
        if diag.det_l_residual is None or diag.det_l_residual > 1e-10:
            ok = False
    tree = two_regime_tree(periods=3)
    surf = mv.compute_opportunity(tree)
    diag = mv.mvt_process(tree, surf)
    if diag.deterministic_mvt or diag.pstar_is_p:
        ok = False
    # heterogeneous trees still satisfy the oracle equivalence
    claim = mv.attach_claim(tree, "call", strike=10.0)
    plan = mv.compute_plan(tree, surf, claim)
    rep = mv.hedging_error(tree, surf, plan, plan.v0)
    sol = mv.lsq_projection(tree, claim, v0="free")
    if abs(rep.total_error - sol.min_error) > 1e-9 * max(1.0, sol.min_error):
        ok = False
    report("deterministic_tradeoff", ok)


def test_07_structural_identities(reference_trees):
    ok = True
    for tree in reference_trees:
        surf = mv.compute_opportunity(tree)
        mea = mv.measures(tree, surf)
        claim = mv.attach_claim(tree, "call", strike=10.0)
        plan = mv.compute_plan(tree, surf, claim)
        if mv.fs_residual_check(tree, surf, plan) > 1e-9 * max(
                1.0, float(np.nanmax(np.abs(plan.V)))):
            ok = False
        for i in tree.layout.inner:
            b = surf.b_sstar[i]
            ch = c_hat_at(tree, surf, i)
            ct = ch + np.outer(b, b)
            at, ah = surf.a_tilde[i], surf.a_hat[i]
            if np.max(np.abs(ct @ at - b)) > 1e-10 * max(1.0, np.max(np.abs(b))):
                ok = False
            if np.max(np.abs(ch @ ah - b)) > 1e-10 * max(1.0, np.max(np.abs(b))):
                ok = False
            lhs = (1.0 + b @ mv.pinv_psd(ch) @ b) * (1.0 - b @ mv.pinv_psd(ct) @ b)
            if abs(lhs - 1.0) > 1e-10:
                ok = False
            if abs(surf.dAK[i] - b @ mv.pinv_psd(ch) @ b) > 1e-10 * max(
                    1.0, abs(surf.dAK[i])):
                ok = False
            # one-step conditions of the signed martingale measure
            kids, probs, deltas = step(tree, i)
            w = probs * surf.qstar_w[kids]
            if abs(np.sum(w) - 1.0) > 1e-10:
                ok = False
            if np.max(np.abs(deltas.T @ w)) > 1e-10 * max(
                    1.0, float(np.max(np.abs(deltas)))):
                ok = False
            # density factorization: (L_k / m0) * nstar = qstar
            fact = surf.L[kids] / surf.m0[i] * mea.nstar_f[kids]
            if np.max(np.abs(fact - surf.qstar_w[kids])) > 1e-10 * max(
                    1.0, float(np.max(np.abs(surf.qstar_w[kids])))):
                ok = False
    report("structural_identities", ok)


def test_08_sharpe_relation(reference_trees):
    ok = True
    for tree in reference_trees[:20]:
        surf = mv.compute_opportunity(tree)
        for engine, brute in zip(surf.sharpe, oracle_sharpe(tree)):
            if abs(engine - brute) > 1e-8 * max(1.0, brute):
                ok = False
    surf = mv.compute_opportunity(binomial_06())
    if abs(surf.sharpe[0] - 0.2041241452319315) > 1e-9:
        ok = False
    report("sharpe_relation", ok)


def test_09_monte_carlo_consistency():
    tree = mv.build_iid_multinomial(
        [10.0], [([1.0], 0.4), ([0.0], 0.35), ([-1.0], 0.25)], periods=6,
    )
    claim = mv.attach_claim(tree, "call", strike=10.0)
    surf, plan = full_plan(tree, claim)
    ok = True
    exact = {}
    for kind in ("mvh", "pure_xi", "gkw"):
        exact[kind] = mv.run_strategy(tree, surf, plan, kind, plan.v0)
    analytic = exact["mvh"].analytic_error
    if abs(exact["mvh"].mean_sq_error - analytic) > 1e-9 * max(1.0, analytic):
        ok = False
    for kind in ("pure_xi", "gkw"):
        if exact["mvh"].mean_sq_error > exact[kind].mean_sq_error + 1e-12:
            ok = False
    paths = mv.sample_paths(tree, 100_000, seed=99)
    sampled = mv.run_strategy(tree, surf, plan, "mvh", plan.v0, paths=paths)
    if abs(sampled.mean_sq_error - analytic) > 3.0 * sampled.std_error:
        ok = False
    report("monte_carlo", ok)


def test_10_perturbation_optimality():
    rng = np.random.default_rng(23)
    ok = True
    for _ in range(20):
        tree = random_tree(rng)
        claim = random_claim(rng, tree)
        surf, plan = full_plan(tree, claim)
        holdings, G = mv.strategy_holdings(tree, surf, plan, "mvh", plan.v0)
        base = mv.exact_sq_error(tree, plan, G)
        scale = max(1.0, float(np.nanmax(np.abs(plan.V))))
        for i in tree.layout.inner:
            for j in range(tree.num_assets):
                for delta in (1e-3, -1e-3):
                    bumped = holdings.copy()
                    bumped[i, j] += delta
                    _, G = mv.rollout_strategy(tree, bumped, 0.0, 0.0, plan.v0)
                    err = mv.exact_sq_error(tree, plan, G)
                    if err < base - 1e-12 * scale * scale:
                        ok = False
    report("perturbation_optimality", ok)
