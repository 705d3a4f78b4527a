import numpy as np
import pytest

import mvhedge as mv
from mvhedge.linalg import centered_moments, pinv_psd

from gen import c_hat_at, random_tree


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


@pytest.mark.parametrize("shape", [(3,), (2, 3), (4, 2, 3)])
def test_non_square_raises(shape):
    with pytest.raises(mv.NotSymmetric, match="^input must be a square matrix or a stack of them$"):
        pinv_psd(np.ones(shape))


@pytest.mark.parametrize("seed", range(6))
def test_root_factors_the_pseudoinverse(seed):
    # R R' = m^+ for PSD m, also rank-deficient, and a stack's R is each
    # member's own, bit for bit
    rng = np.random.default_rng(300 + seed)
    d = int(rng.integers(1, 6))
    B = rng.normal(size=(3, d, int(rng.integers(1, d + 1))))
    m = B @ B.swapaxes(1, 2)
    R = pinv_psd(m, root=True)
    assert np.allclose(R @ R.swapaxes(1, 2), pinv_psd(m), rtol=0.0,
                       atol=1e-12 * np.abs(pinv_psd(m)).max())
    for k in range(3):
        assert np.array_equal(pinv_psd(m[k], root=True), R[k])


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


def test_centered_moments_binomial_hand_case():
    mean, dev, cov = centered_moments([0.6, 0.4], [[1.0], [-1.0]])
    assert mean[0] == pytest.approx(0.2)
    assert dev[:, 0] == pytest.approx([0.8, -1.2])
    assert cov[0, 0] == pytest.approx(0.96)


def test_centered_moments_zero_increments():
    mean, dev, cov = centered_moments([0.5, 0.5], [[0.0], [0.0]])
    assert mean[0] == 0.0
    assert np.all(dev == 0.0)
    assert cov[0, 0] == 0.0


def test_centered_moments_martingale_step():
    mean, _, _ = centered_moments([0.25, 0.75], [[3.0], [-1.0]])
    assert mean[0] == pytest.approx(0.0)


def test_centered_moments_scalar_values_and_stacks():
    # a stacked node gets the arithmetic of a call on that node alone;
    # scalar values give the mean, deviations and variance of a column
    rng = np.random.default_rng(11)
    q = rng.dirichlet(np.ones(4), size=5)
    x = rng.normal(size=(5, 4, 2))
    mean, dev, cov = centered_moments(q, x)
    for j in range(5):
        one = centered_moments(q[j], x[j])
        assert all(np.array_equal(a[j], b) for a, b in zip((mean, dev, cov), one))
        m, v, var = centered_moments(q[j], x[j, :, 1])
        assert np.allclose([m, *v, var], [mean[j, 1], *dev[j, :, 1], cov[j, 1, 1]],
                           rtol=1e-15, atol=1e-15)


def test_centered_moments_one_child_of_almost_all_mass():
    # the uncentered form sum q d^2 - (sum q d)^2 loses the variance to
    # cancellation; the centered form keeps it to rounding
    p = 1e-12
    mean, _, cov = centered_moments([p, 1.0 - p], [[1.1], [0.9]])
    var = p * (1.0 - p) * 0.2 ** 2
    assert abs(mean[0] - (0.9 + 0.2 * p)) <= 1e-16
    assert abs(cov[0, 0] - var) <= 1e-14 * var


@pytest.mark.parametrize("seed", range(5))
def test_range_property_on_random_trees(seed):
    # b_sstar lies in the range of c_hat* at every inner node: the
    # degeneracy rule raises on a step where it does not
    rng = np.random.default_rng(200 + seed)
    tree = random_tree(rng)
    surf = mv.compute_opportunity(tree)
    for i in tree.layout.inner:
        c, b = c_hat_at(tree, surf, i), surf.b_sstar[i]
        proj = c @ pinv_psd(c) @ b
        scale = max(np.max(np.abs(b)), 1e-30)
        assert np.max(np.abs(proj - b)) <= 1e-9 * max(scale, 1.0)
