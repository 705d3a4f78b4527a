import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import mvhedge as mv
from mvhedge.linalg import pinv_psd
from mvhedge.opportunity import DEGENERACY_THRESHOLD
from mvhedge.tree import ScenarioTree, validate_tree

from gen import (
    binomial_06,
    c_hat_at,
    efficient_value_process,
    exact_sweep,
    martingale_trinomial,
    random_claim,
    random_tree,
    scaled_tree,
    step,
    subtree_at,
    two_regime_tree,
    uneven_regime_tree,
)

IDENTITIES = ["cor320_tilde", "cor320_hat", "identity_319", "dak_identity", "qstar_mass",
              "qstar_drift", "lemma323"]


def identities_loop(tree, surf, mea) -> dict:
    """identities(tree, surf, mea) node by node: name -> (n_inner, 2)
    array of (value, target) rows, component j of the Cor. 3.20 residuals
    and of the drift divided by D_j = max_k |d_kj| (1 where 0)."""
    per_node = {name: [] for name in IDENTITIES}
    for i in tree.layout.inner:
        kids, p, deltas = step(tree, i)
        b, qw = surf.b_sstar[i], surf.qstar_w[kids]
        ch = c_hat_at(tree, surf, i)
        ct = ch + np.outer(b, b)
        up = 1.0 + float(b @ pinv_psd(ch) @ b)
        dn = 1.0 - float(b @ pinv_psd(ct) @ b)
        D = np.max(np.abs(deltas), axis=0)
        unit = np.where(D > 0.0, D, 1.0)
        fact = (surf.L[kids] / surf.m0[i]) * mea.nstar_f[kids]
        for name, pair in zip(IDENTITIES, [
                (np.max(np.abs(ct @ surf.a_tilde[i] - b) / unit), 0.0),
                (np.max(np.abs(ch @ surf.a_hat[i] - b) / unit), 0.0),
                (up * dn, 1.0), (surf.dAK[i], up - 1.0), (float(p @ qw), 1.0),
                (np.max(np.abs(deltas.T @ (p * qw)) / unit), 0.0),
                (np.max(np.abs(fact - qw)), 0.0)]):
            per_node[name].append(pair)
    return {name: np.array(pairs) for name, pairs in per_node.items()}


def leaf_expectation(tree, values, power=1):
    probs = tree.node_probs()
    return sum(probs[leaf] * values[leaf] ** power for leaf in tree.leaves())


def test_identities_name_the_node_whose_adjustment_is_off():
    tree = uneven_regime_tree(3)
    surf = mv.compute_opportunity(tree)
    mea = mv.measures(tree, surf)
    i = int(tree.layout.slices[2][1])
    surf.a_tilde[i] += 1.0
    value, target = mv.identities(tree, surf, mea)["cor320_tilde"]
    assert target == 0.0
    assert tree.layout.inner[value > 1e-9].tolist() == [i]


def test_martingale_tree_trivial_surface():
    rng = np.random.default_rng(0)
    tree = random_tree(rng, martingale=True)
    surf = mv.compute_opportunity(tree)
    assert np.allclose(surf.L, 1.0, atol=1e-12)
    for i in tree.layout.inner:
        assert np.allclose(surf.a_tilde[i], 0.0, atol=1e-12)
        assert surf.dAK[i] == pytest.approx(0.0, abs=1e-12)


def test_binomial_hand_values():
    surf = mv.compute_opportunity(binomial_06())
    assert surf.L[0] == pytest.approx(0.96)
    assert surf.a_tilde[0][0] == pytest.approx(0.2)
    assert surf.dAK[0] == pytest.approx(1.0 / 0.96 - 1.0)
    assert surf.a_hat[0][0] == pytest.approx(0.2 / 0.96)


def test_degenerate_single_child():
    tree = ScenarioTree(num_assets=1, horizon=1, parent=[-1, 0], time=[0, 1],
                        price=[[10.0], [11.0]], regime=[-1, -1], prob=[1.0, 1.0])
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
    for i in tree.layout.inner:
        kids, probs, _ = step(tree, i)
        assert np.allclose(surf.qstar_w[kids], 1.0, atol=1e-12)
        assert np.allclose(surf.pstar_p[kids], probs, atol=1e-12)
    assert np.allclose(mea.z_pstar, 1.0, atol=1e-12)


def test_measures_binomial_hand_values():
    tree = binomial_06()
    surf = mv.compute_opportunity(tree)
    kids, _, _ = step(tree, 0)
    assert surf.qstar_w[kids] == pytest.approx([0.8 / 0.96, 1.2 / 0.96])
    assert surf.pstar_p[kids] == pytest.approx([0.6, 0.4])


def test_measures_signed_trinomial():
    tree = mv.build_iid_multinomial(
        [10.0], [([2.0], 0.45), ([1.0], 0.45), ([-1.0], 0.1)], 1
    )
    surf = mv.compute_opportunity(tree)
    assert surf.a_tilde[0][0] == pytest.approx(1.25 / 2.35)
    # up branch weight is negative: the measure is signed
    kids, probs, _ = step(tree, 0)
    assert surf.qstar_w[kids[0]] < 0.0
    assert np.count_nonzero(surf.qstar_w <= 0.0) == 1
    assert float(probs @ surf.qstar_w[kids]) == pytest.approx(1.0)


def test_sharpe_formula():
    surf = mv.compute_opportunity(binomial_06())
    assert surf.sharpe[1] == 0.0  # leaf, L = 1
    assert surf.sharpe[0] == pytest.approx(0.2 / np.sqrt(0.96))
    assert surf.sharpe[0] == pytest.approx(0.204124, abs=1e-6)


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
    vals = mvt.dK_hat[tree.layout.slices[1]]
    assert max(vals) - min(vals) > 1e-3


def test_mvt_martingale_tree():
    rng = np.random.default_rng(2)
    tree = random_tree(rng, martingale=True)
    surf = mv.compute_opportunity(tree)
    mvt = mv.mvt_process(tree, surf)
    assert np.allclose(mvt.dK_hat[tree.layout.inner], 0.0, atol=1e-12)
    assert mvt.deterministic_mvt and mvt.pstar_is_p


def test_efficient_value_binomial():
    tree = binomial_06()
    surf = mv.compute_opportunity(tree)
    values = efficient_value_process(tree, surf, 0)
    leaf_vals = sorted(values[leaf] for leaf in tree.leaves())
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
        parent = tree.parent[leaf]
        step = efficient_value_process(tree, surf, parent)
        assert values[leaf] == pytest.approx(values[parent] * step[leaf])


@pytest.mark.parametrize("seed", range(8))
def test_conditional_square_equals_L(seed):
    rng = np.random.default_rng(400 + seed)
    tree = random_tree(rng, periods=3)
    surf = mv.compute_opportunity(tree)
    probs = tree.node_probs()
    for i in [*tree.layout.slices[1], 0]:
        if tree.time[i] == tree.horizon:
            continue
        values = efficient_value_process(tree, surf, i)
        sub, ids = subtree_at(tree, i)
        sub_probs = sub.node_probs()
        second = sum(
            sub_probs[new] * values[old] ** 2
            for new, old in enumerate(ids) if sub.time[new] == sub.horizon
        )
        assert second == pytest.approx(surf.L[i], rel=1e-9)


@pytest.mark.parametrize("seed", range(10))
def test_structural_identities_random_trees(seed):
    rng = np.random.default_rng(500 + seed)
    tree = random_tree(rng)
    surf = mv.compute_opportunity(tree)
    mea = mv.measures(tree, surf)
    for i in tree.layout.inner:
        kids, p, deltas = step(tree, i)
        child_L = surf.L[kids]
        # backward fixed point
        assert surf.L[i] * (1.0 + surf.dAK[i]) == pytest.approx(float(p @ child_L))
        # submartingale
        assert float(p @ child_L) >= surf.L[i] - 1e-12
        assert 0.0 < surf.L[i] <= 1.0 + 1e-12
        # adjustment identities under the opportunity-neutral measure
        b = surf.b_sstar[i]
        ch = c_hat_at(tree, surf, i)
        ct = ch + np.outer(b, b)
        assert np.allclose(ct @ surf.a_tilde[i], b, atol=1e-9)
        assert np.allclose(ch @ surf.a_hat[i], b, atol=1e-9)
        up = 1.0 + float(b @ pinv_psd(ch) @ b)
        dn = 1.0 - float(b @ pinv_psd(ct) @ b)
        assert up * dn == pytest.approx(1.0, abs=1e-9)
        assert surf.dAK[i] == pytest.approx(up - 1.0, rel=1e-9, abs=1e-9)
        # signed measure prices every one-step increment to zero
        assert float(p @ surf.qstar_w[kids]) == pytest.approx(1.0, abs=1e-10)
        assert np.allclose(deltas.T @ (p * surf.qstar_w[kids]), 0.0, atol=1e-10)
        # one-step factorization of the signed density over the neutral one
        fact = (child_L / surf.m0[i]) * mea.nstar_f[kids]
        assert np.allclose(fact, surf.qstar_w[kids], atol=1e-10)
    # the engine's identities, as verify prints them, agree with the loop
    # in units of each node's increments, at any price scale
    n_inner = len(tree.layout.inner)
    for k in (1.0, 1e-6, 1e6):
        scaled = scaled_tree(tree, k)
        surf_k = mv.compute_opportunity(scaled)
        mea_k = mv.measures(scaled, surf_k)
        got, want = mv.identities(scaled, surf_k, mea_k), identities_loop(scaled, surf_k, mea_k)
        assert list(got) == IDENTITIES
        for name, (value, target) in got.items():
            assert np.shape(value) == (n_inner,) and np.shape(target) in ((), (n_inner,))
            msg = f"{name} at price scale {k}"
            np.testing.assert_allclose(value, want[name][:, 0], rtol=1e-12, atol=1e-12,
                                       err_msg=msg)
            np.testing.assert_allclose(np.broadcast_to(target, (n_inner,)), want[name][:, 1],
                                       rtol=1e-12, atol=1e-12, err_msg=msg)
    # cumulative densities
    z = mea.z_qstar
    assert leaf_expectation(tree, z) == pytest.approx(1.0, abs=1e-9)
    assert leaf_expectation(tree, z, power=2) == pytest.approx(1.0 / surf.L[0], rel=1e-9)
    assert np.all(mea.z_pstar <= 1.0 / surf.L[0] + 1e-9)
    assert leaf_expectation(tree, mea.z_pstar) == pytest.approx(1.0, abs=1e-9)
    # leaf density equals the efficient value process scaled by 1/L0
    eff = efficient_value_process(tree, surf, 0)
    for leaf in tree.leaves():
        assert z[leaf] == pytest.approx(eff[leaf] / surf.L[0], abs=1e-10)


# Engine against exact_sweep on 40 random_tree draws (rng 12345, up to
# 121 nodes).  Worst errors: L 4.7e-14 relative, V 1.2e-13, qstar_w
# 5.2e-14, a_tilde 2.8e-14, xi 5.6e-14 and e 1.7e-13 relative to
# max(1, |x|), pstar_p 4.2e-14 relative; the bound leaves a margin of
# 5.8 over the largest.
EXACT_TOL = 1e-12


def exact_error(got, want, floor: bool, unit=1) -> float:
    """Largest |got - want| / |want| over the entries, / max(1, |want|)
    with floor, computed exactly; with floor, got and want are first
    divided by unit."""
    return max(float(abs(Fraction(g) - w) / (max(unit, abs(w)) if floor else abs(w)))
               for g, w in zip(got, want))


def test_engine_matches_exact_reference():
    rng = np.random.default_rng(12345)
    for _ in range(40):
        tree = random_tree(rng)
        claim = random_claim(rng, tree)
        surf = mv.compute_opportunity(tree)
        V = mv.compute_mean_value(tree, surf, claim)
        plan = mv.compute_pure_hedge(tree, surf, V)
        exact = exact_sweep(tree, claim.tolist())
        inner = tree.layout.inner.tolist()
        errors = {
            "L": exact_error(surf.L.tolist(), exact["L"], False),
            "V": exact_error(V.tolist(), exact["V"], True),
            "qstar_w": exact_error(surf.qstar_w.tolist(), exact["qstar_w"], True),
            "pstar_p": exact_error(surf.pstar_p.tolist(), exact["pstar_p"], False),
            "a_tilde": exact_error(surf.a_tilde[inner].ravel().tolist(),
                                   [x for i in inner for x in exact["a_tilde"][i]], True),
            "xi": exact_error(plan.xi[inner].ravel().tolist(),
                              [x for i in inner for x in exact["xi"][i]], True),
            "e": exact_error(plan.e[inner].tolist(), [exact["e"][i] for i in inner], True),
        }
        assert max(errors.values()) <= EXACT_TOL, errors


def tilted(tree, p: float, scale: float) -> ScenarioTree:
    """tree with probability p on the first child of every inner node, the
    other children rescaled to the rest, and every price times scale."""
    prob = tree.prob.copy()
    for i in tree.layout.inner.tolist():
        kids = np.flatnonzero(tree.parent == i)
        prob[kids[1:]] *= (1.0 - p) / prob[kids[1:]].sum()
        prob[kids[0]] = p
    return dataclasses.replace(tree, price=tree.price * scale, prob=prob)


def exact_min_ratio(tree, L) -> Fraction:
    """The least one-step L/m0 over the inner nodes, m0 = sum_k p_k L_k,
    from exact_sweep's L: the verdict compute_opportunity must give is
    DegenerateStep exactly where it is at most DEGENERACY_THRESHOLD."""
    prob = [Fraction(p) for p in tree.prob.tolist()]
    return min(L[i] / sum(prob[k] * L[k] for k in np.flatnonzero(tree.parent == i).tolist())
               for i in tree.layout.inner.tolist())


# The same comparison off desk scale: prices and claim times 10**power,
# power in [-150, 150], and a first child of probability 1e-16 to 0.3 at
# every inner node; V, e and a_tilde in the units of the unscaled tree.
# Every draw gets exact_sweep's verdict (48 of 200 raise); of the others,
# those with L0 >= 0.05 are compared.  Worst error: 5.5e-15 (xi; seed
# 1365894, one period, log_p = -1.0, power = -49), a margin of 181.  On
# an earlier set of 200 draws, floors of 1e-30 and 1e-100 gave the same
# worst error, with ever more draws degenerate; below 1e-16, 1 - p rounds
# to 1.  The floor was 1e-8 while the engine
# inverted c_hat*: below about 10**-8.7 its eigenvalue ratio fell under
# the pseudoinverse's cutoff and well-posed steps were called degenerate.
SCALES = dict(seed=st.integers(0, 2 ** 32 - 1), periods=st.integers(1, 3),
              log_p=st.floats(-16.0, float(np.log10(0.3))), power=st.integers(-150, 150))


def errors_across_scales(seed, periods, log_p, power, d=None) -> dict:
    """The engine's largest error per quantity against exact_sweep on one
    draw of SCALES (random_tree with d assets), {} where exact_sweep calls
    the tree degenerate and compute_opportunity raises as it must."""
    rng = np.random.default_rng(seed)
    desk = random_tree(rng, periods, d)
    k = Fraction(10) ** power
    tree = tilted(desk, 10.0 ** log_p, float(k))
    assume(not validate_tree(tree))
    claim = random_claim(rng, desk) * float(k)
    exact = exact_sweep(tree, claim.tolist())
    if exact_min_ratio(tree, exact["L"]) <= DEGENERACY_THRESHOLD:
        with pytest.raises(mv.DegenerateStep):
            mv.compute_opportunity(tree)
        return {}
    assume(exact["L"][0] >= 0.05)
    return engine_errors(tree, claim, k, exact)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(**SCALES)
def test_engine_matches_exact_reference_across_scales(seed, periods, log_p, power):
    errors = errors_across_scales(seed, periods, log_p, power)
    assert max(errors.values(), default=0.0) <= EXACT_TOL, errors


# The same at d = 3, where every step has 4 children (random_tree) and the
# one-step factor is plane rotations, as at d <= 2.  At most 2 periods:
# random_tree redraws until every step is well posed, about 25 s a tree at
# 3 periods (21 steps).  59 of the 100 draws raise; worst error of the
# others 2.6e-13 (xi; seed 10000000, one period, log_p = -2.0, power =
# -117), a margin of 3.8 (eigh and Cholesky: 2.1e-13).  Over 2,000 draws
# of the same law, one draw misses: seed 2826691161, one period, log_p =
# -6.86, power = -146, xi by 4.7e-11, a_tilde by 2.9e-12 and qstar_w by
# 2.8e-12 (eigh and Cholesky: 6.5e-11, 1.5e-13 and 1.5e-13).
@settings(max_examples=100, deadline=None, derandomize=True)
@given(**dict(SCALES, periods=st.integers(1, 2)))
def test_engine_matches_exact_reference_at_three_assets(seed, periods, log_p, power):
    errors = errors_across_scales(seed, periods, log_p, power, d=3)
    assert max(errors.values(), default=0.0) <= EXACT_TOL, errors


def engine_errors(tree, claim, k=1, exact=None) -> dict:
    """The engine's largest error against exact_sweep (or exact, its
    result) per quantity, as test_engine_matches_exact_reference measures
    them; V, e and a_tilde in the units of tree's prices divided by k."""
    surf = mv.compute_opportunity(tree)
    plan = mv.compute_plan(tree, surf, claim)
    exact = exact or exact_sweep(tree, claim.tolist())
    inner = tree.layout.inner.tolist()
    return {
        "L": exact_error(surf.L.tolist(), exact["L"], False),
        "pstar_p": exact_error(surf.pstar_p.tolist(), exact["pstar_p"], False),
        "qstar_w": exact_error(surf.qstar_w.tolist(), exact["qstar_w"], True),
        "V": exact_error(plan.V.tolist(), exact["V"], True, k),
        "xi": exact_error(plan.xi[inner].ravel().tolist(),
                          [x for i in inner for x in exact["xi"][i]], True),
        "e": exact_error(plan.e[inner].tolist(), [exact["e"][i] for i in inner], True, k * k),
        "a_tilde": exact_error(surf.a_tilde[inner].ravel().tolist(),
                               [x for i in inner for x in exact["a_tilde"][i]], True, 1 / k),
    }


@pytest.mark.parametrize("periods", [1, 4])
@pytest.mark.parametrize("p_up", [1e-6, 1e-8, 1e-9, 1e-12])
def test_complete_binomial_with_a_tiny_probability(p_up, periods):
    # a child that carries almost all of the P* mass: the uncentered
    # moments lost L to cancellation (1.6e-10 at 1e-6 and 4 periods) and
    # called the market degenerate from 1e-8 on; L0 = (1 + K)^-T with K
    # the squared one-step Sharpe ratio of the returns (+0.1, -0.1)
    tree = mv.build_binomial([1.0], 1.1, 0.9, p_up, periods)
    claim = mv.attach_claim(tree, "call", strike=1.0)
    errors = engine_errors(tree, claim)
    assert max(errors.values()) <= EXACT_TOL, errors
    mean, var = 0.2 * p_up - 0.1, 0.04 * p_up * (1.0 - p_up)
    closed = (1.0 + mean * mean / var) ** -periods
    L0 = mv.compute_opportunity(tree).L[0]
    assert abs(L0 - closed) <= EXACT_TOL * closed


@pytest.mark.parametrize("periods", [1, 3, 12])
@pytest.mark.parametrize("p_up", [0.3, 1e-6, 1e-9, 1e-12])
def test_complete_binomial_v0_is_the_replication_price(p_up, periods):
    # the market is complete, so V0 is the risk-neutral price of the call
    # at 1 whatever p_up is; the risk-neutral probability of (1.1, 0.9)
    # is 1/2
    tree = mv.build_binomial([1.0], 1.1, 0.9, p_up, periods)
    plan = mv.compute_plan(tree, mv.compute_opportunity(tree),
                           mv.attach_claim(tree, "call", strike=1.0))
    price = sum(math.comb(periods, j) * 0.5 ** periods * max(1.1 ** j * 0.9 ** (periods - j) - 1.0, 0.0)
                for j in range(periods + 1))
    assert abs(plan.v0 - price) <= EXACT_TOL * max(1.0, price)


# Desk-scale draws where the uncentered one-step algebra missed the exact
# reference (test_engine_matches_exact_reference_across_scales' tilted
# random_tree at scale 1): (seed, periods, first-child p, bound).  Before
# the centered P* law their worst errors were 2.4e-12 (xi), 9.1e-12 (xi)
# and 1.85e-12 (xi); now they are 6.7e-13 (xi), 1.5e-12 (xi) and 2.6e-14
# (xi), margins of 1.5, 2.6 and 3.8 under the bounds.  What is left on
# seed 3234957440 is xi on a c_hat* of condition 7.7e4, about cond * eps,
# and it moves with the summation order.
FOUND_DRAWS = [(4294967294, 3, 0.237, 1e-12), (3234957440, 2, 0.0383, 4e-12), (304, 1, 1e-2, 1e-13)]


@pytest.mark.parametrize("seed,periods,p,bound", FOUND_DRAWS)
def test_engine_matches_exact_reference_on_found_draws(seed, periods, p, bound):
    rng = np.random.default_rng(seed)
    desk = random_tree(rng, periods)
    errors = engine_errors(tilted(desk, p, 1.0), random_claim(rng, desk))
    assert max(errors.values()) <= bound, errors


# Draws the engine called degenerate while it inverted c_hat*: c_hat*'s
# eigenvalue ratio fell under the pseudoinverse's cutoff with b* outside
# the kept range, though their exact one-step L/m0 (3.0e-11, 1.2e-11 and
# 9.5e-12) lies above DEGENERACY_THRESHOLD: (seed, periods, log10 of the
# first child's p, price power), drawn as the scale property above draws.
# Their L is now within 2e-16 of exact_sweep's.
WELL_POSED_DRAWS = [(4133060677, 2, -8.68, 83), (1101270541, 1, -10.96, 0),
                    (999215963, 1, -11.225, 0)]


@pytest.mark.parametrize("seed,periods,log_p,power", WELL_POSED_DRAWS)
def test_well_posed_draws_get_the_exact_verdict(seed, periods, log_p, power):
    desk = random_tree(np.random.default_rng(seed), periods)
    tree = tilted(desk, 10.0 ** log_p, float(Fraction(10) ** power))
    L = exact_sweep(tree, [0.0] * len(tree.leaves()))["L"]
    assert exact_min_ratio(tree, L) > DEGENERACY_THRESHOLD
    assert exact_error(mv.compute_opportunity(tree).L.tolist(), L, False) <= EXACT_TOL


@pytest.mark.parametrize("s0", [1e-307, 1e-300, 1e-160, 1e-150, 1e150, 1e160, 1e300])
def test_opportunity_is_free_of_the_price_unit(s0):
    # the multiplicative trinomial (+0.1, 0, -0.1; .35, .4, .25): its
    # c_hat* underflows at 1e-160 and overflows at 1e160, where inverting
    # it raised DegenerateStep or returned the martingale answer L = 1;
    # the engine squares no increment, so L is s0 = 1's to rounding, also
    # at 1e-307, where the weighted increments are subnormal
    law = [([0.1], 0.35), ([0.0], 0.4), ([-0.1], 0.25)]
    one = mv.compute_opportunity(mv.build_iid_multinomial([1.0], law, 2, "multiplicative"))
    surf = mv.compute_opportunity(mv.build_iid_multinomial([s0], law, 2, "multiplicative"))
    assert abs(one.L[0] - 0.96694444444444) <= 1e-14
    assert np.allclose(surf.L, one.L, rtol=0.0, atol=1e-15)
    inner = [0, 1, 2, 3]
    assert np.allclose(surf.a_tilde[inner] * s0, one.a_tilde[inner], rtol=1e-14, atol=0.0)


def spread_tree(spread: float, copy: bool = False) -> ScenarioTree:
    """2 assets on the trinomial (+1, 0, -1; .3, .4, .3), 2 periods:
    asset 2 moves as asset 1 plus spread, so it earns spread risklessly,
    or it copies asset 1."""
    law = [(1.0, 0.3), (0.0, 0.4), (-1.0, 0.3)]
    return mv.build_iid_multinomial([10.0, 10.0], [([d, d if copy else d + spread], p)
                                                   for d, p in law], 2)


@pytest.mark.parametrize("spread", [0.5, 1e-3])
def test_riskless_spread_is_degenerate(spread):
    # b* has a part outside the range of c_hat*; at 1e-3 the uncentered
    # moments returned L0 = 2.0e-21
    with pytest.raises(mv.DegenerateStep) as err:
        mv.compute_opportunity(spread_tree(spread))
    assert err.value.node_id == 1


@pytest.mark.parametrize("spread,copy", [(0.0, True), (1e-9, False)])
def test_redundant_asset_is_not_degenerate(spread, copy):
    # a copied asset, and a spread under RANGE_TOL times the increments'
    # scale, leave the one-asset market: b*'s part along the dropped
    # direction is 6.5e-10 |A|_F at 1e-9 (15 times under RANGE_TOL) and
    # 6.5e-4 |A|_F at 1e-3, which raises
    one = mv.compute_opportunity(mv.build_iid_multinomial(
        [10.0], [([1.0], 0.3), ([0.0], 0.4), ([-1.0], 0.3)], 2))
    surf = mv.compute_opportunity(spread_tree(spread, copy))
    assert np.allclose(surf.L, one.L, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("p_up,periods", [(0.6, 1), (0.6, 4), (0.25, 3), (0.75, 2), (0.5, 4)])
def test_exact_sweep_binomial_closed_form(p_up, periods):
    # iid increments make L0 = (1 + K)^-T, K = E[d]^2 / Var[d] the squared
    # one-step Sharpe ratio; dyadic increments from 10 keep every price exact
    tree = mv.build_iid_multinomial([10.0], [([1.0], p_up), ([-0.5], 1.0 - p_up)], periods)
    p, q = (Fraction(x) for x in tree.prob[1:3].tolist())
    assert p + q == 1
    mean = p - q / 2
    var = p + q / 4 - mean ** 2
    L = exact_sweep(tree, [0.0] * len(tree.leaves()))["L"]
    assert L[0] == (1 + mean ** 2 / var) ** -periods


def test_exact_sweep_rank_one_step():
    # a copy of the only asset makes every weighted c_bar rank 1: the
    # exact recursion must see the one-asset market
    rng = np.random.default_rng(7)
    tree = random_tree(rng, d=1)
    payoff = random_claim(rng, tree).tolist()
    dup = dataclasses.replace(tree, num_assets=2, price=tree.price[:, [0, 0]])
    one, two = exact_sweep(tree, payoff), exact_sweep(dup, payoff)
    for key in ("L", "V", "e", "qstar_w", "pstar_p"):
        assert one[key] == two[key], key
