import numpy as np
import pytest

import mvhedge as mv
from mvhedge.linalg import pinv_psd, weighted_moments

from gen import random_tree


def test_diagonal_case():
    out = pinv_psd(np.array([[2.0, 0.0], [0.0, 0.0]]))
    assert np.allclose(out, [[0.5, 0.0], [0.0, 0.0]])


def test_identity():
    assert np.allclose(pinv_psd(np.eye(3)), np.eye(3))


def test_rank_one():
    out = pinv_psd(np.ones((2, 2)))
    assert np.allclose(out, np.full((2, 2), 0.25))


def test_not_symmetric_raises():
    with pytest.raises(mv.NotSymmetric):
        pinv_psd(np.array([[1.0, 2.0], [0.0, 1.0]]))


@pytest.mark.parametrize("seed", range(20))
def test_penrose_identities_random_psd(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 7))
    rank = int(rng.integers(1, d + 1))
    B = rng.normal(size=(d, rank))
    m = B @ B.T
    p = pinv_psd(m)
    scale = np.max(np.abs(m))
    assert np.max(np.abs(m @ p @ m - m)) <= 1e-9 * scale
    assert np.max(np.abs(p @ m @ p - p)) <= 1e-9 * max(np.max(np.abs(p)), 1.0)
    assert np.max(np.abs((m @ p) - (m @ p).T)) <= 1e-9 * scale


@pytest.mark.parametrize("seed", range(10))
def test_double_pinv_well_conditioned(seed):
    rng = np.random.default_rng(100 + seed)
    d = int(rng.integers(1, 7))
    B = rng.normal(size=(d, d + 2))
    m = B @ B.T + 0.1 * np.eye(d)
    assert np.max(np.abs(pinv_psd(pinv_psd(m)) - m)) <= 1e-8 * np.max(np.abs(m))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_stacked_pinv_equals_loop(d):
    # scales 1e-8, 1 and 1e8, full rank and rank-deficient members, and
    # members with an asymmetry inside the tolerance
    rng = np.random.default_rng(300 + d)
    mats = []
    for scale in (1e-8, 1.0, 1e8):
        for rank in range(d + 1):
            B = scale * rng.normal(size=(d, rank))
            m = B @ B.T
            mats.append(m)
            mats.append(m + 1e-14 * max(np.max(np.abs(m)), 1.0) * np.triu(np.ones((d, d)), 1))
    stack = np.array(mats)
    out = pinv_psd(stack)
    assert out.shape == stack.shape
    assert np.array_equal(out, np.array([pinv_psd(m) for m in mats]))
    assert np.array_equal(pinv_psd(stack.reshape(2, -1, d, d)), out.reshape(2, -1, d, d))


def test_stacked_not_symmetric_raises():
    stack = np.array([np.eye(2), [[1.0, 2.0], [0.0, 1.0]], np.ones((2, 2))])
    with pytest.raises(mv.NotSymmetric):
        pinv_psd(stack)


def test_empty_stack():
    out = pinv_psd(np.zeros((0, 2, 2)))
    assert out.shape == (0, 2, 2)


def test_weighted_moments_binomial_hand_case():
    mom = weighted_moments([0.6, 0.4], [[1.0], [-1.0]])
    assert mom.m0 == pytest.approx(1.0)
    assert mom.bbar_u[0] == pytest.approx(0.2)
    assert mom.cbar_u[0, 0] == pytest.approx(1.0)


def test_weighted_moments_zero_increments():
    mom = weighted_moments([0.5, 0.5], [[0.0], [0.0]])
    assert mom.bbar_u[0] == 0.0
    assert mom.cbar_u[0, 0] == 0.0


def test_weighted_moments_martingale_step():
    mom = weighted_moments([0.25, 0.75], [[3.0], [-1.0]])
    assert mom.bbar_u[0] == pytest.approx(0.0)


@pytest.mark.parametrize("seed", range(5))
def test_range_property_on_random_trees(seed):
    # bbar_u always lies in the range of cbar_u (same weighted Gram build)
    rng = np.random.default_rng(200 + seed)
    tree = random_tree(rng)
    surf = mv.compute_opportunity(tree)
    for node in tree.nonterminal():
        i = node.id
        proj = surf.cbar_u[i] @ pinv_psd(surf.cbar_u[i]) @ surf.bbar_u[i]
        scale = max(np.max(np.abs(surf.bbar_u[i])), 1e-30)
        assert np.max(np.abs(proj - surf.bbar_u[i])) <= 1e-9 * max(scale, 1.0)
