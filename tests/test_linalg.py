import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import mvhedge as mv
from mvhedge.cli import main
from mvhedge.linalg import EIG_TRUNCATION, centered_moments, gram_root, pinv_psd

from gen import c_hat_at, exact_quadratic, random_tree

GOLDEN_CONFIG = Path(__file__).resolve().parent / "golden" / "config.json"


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
    # m = B B' of rank r = rank(B), also below d: m^+ is PSD with exactly r
    # eigenvalues above the cutoff, and a stack's member is its own, bit for bit
    rng = np.random.default_rng(300 + seed)
    d = int(rng.integers(1, 6))
    B = rng.normal(size=(3, d, int(rng.integers(1, d + 1))))
    m = B @ B.swapaxes(1, 2)
    p = pinv_psd(m)
    lam = np.linalg.eigvalsh(p)
    cutoff = d * EIG_TRUNCATION * lam.max(axis=-1, keepdims=True)
    assert np.all(lam >= -cutoff)
    assert np.count_nonzero(lam > cutoff, axis=-1).tolist() == [B.shape[-1]] * 3
    for k in range(3):
        assert np.array_equal(pinv_psd(m[k]), p[k])


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
    # an empty matrix, an empty stack and a stack of empty matrices
    for shape in ((0, 0), (0, 2, 2), (3, 0, 0)):
        assert pinv_psd(np.zeros(shape)).shape == shape


@pytest.mark.parametrize("seed", range(6))
def test_gram_root_factors_the_pseudoinverse(seed):
    # R R' = (a'a)^+ for a of any rank, V orthonormal, keep the rank's
    # directions, R and V C-contiguous, and a stack's (R, V, keep) each
    # member's own, bit for bit
    rng = np.random.default_rng(700 + seed)
    d = int(rng.integers(1, 5))
    rank = int(rng.integers(0, d + 1))
    a = rng.normal(size=(3, 6, rank)) @ rng.normal(size=(3, rank, d))
    R, V, keep = gram_root(a)
    assert R.flags.c_contiguous and V.flags.c_contiguous
    want = pinv_psd(a.swapaxes(1, 2) @ a)
    assert np.allclose(R @ R.swapaxes(1, 2), want, rtol=0.0, atol=1e-12 * np.abs(want).max())
    assert np.allclose(V.swapaxes(1, 2) @ V, np.eye(d), rtol=0.0, atol=1e-14)
    assert np.all(np.count_nonzero(keep, axis=1) == rank)
    assert np.abs(R.swapaxes(1, 2) @ V * ~keep[:, None, :]).max() <= 1e-14 * np.abs(R).max()
    for k in range(3):
        assert all(np.array_equal(x[k], y) for x, y in zip((R, V, keep), gram_root(a[k])))


def test_gram_root_scales_by_powers_of_two_exactly():
    # a is scaled to unit size by a power of two first, so a times 2^j
    # gives the root times 2^-j bit for bit, at any price unit
    a = np.random.default_rng(5).normal(size=(4, 5, 2))
    R = gram_root(a)[0]
    for j in (-900, -300, 300, 900):
        assert np.array_equal(gram_root(a * 2.0 ** j)[0], R * 2.0 ** -j)


def test_gram_root_of_zero_drops_every_direction():
    R, V, keep = gram_root(np.zeros((2, 3, 2)))
    assert np.all(R == 0.0) and not keep.any()


@pytest.fixture
def no_lapack(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg called")
    for name in ("eigh", "cholesky", "inv", "svd", "qr", "pinv", "solve", "lstsq"):
        monkeypatch.setattr(np.linalg, name, refuse)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_gram_root_makes_no_lapack_call_at_three_assets_or_fewer(no_lapack, d):
    # d <= 3 is factored by plane rotations: no np.linalg call, on stacks
    # of any rank, of either child count, and on one matrix
    rng = np.random.default_rng(40 + d)
    for k, rank in ((3, d), (8, d - 1), (6, 0)):
        a = rng.normal(size=(4, k, rank)) @ rng.normal(size=(4, rank, d))
        R, V, keep = gram_root(a)
        assert np.all(np.count_nonzero(keep, axis=1) == rank)
        assert all(np.array_equal(x[0], y) for x, y in zip((R, V, keep), gram_root(a[0])))


def test_backtest_makes_no_lapack_call_on_a_two_asset_tree(no_lapack, tmp_path):
    # the golden config's 2-asset regime tree, with the mvh, pure_xi and
    # gkw strategies: every sweep's one-step factor is rotated
    assert main(["backtest", "--config", str(GOLDEN_CONFIG), "--out", str(tmp_path)]) == 0


def test_hedge_makes_no_lapack_call_on_a_three_asset_tree(no_lapack, tmp_path):
    # L, a_tilde, V, xi and e of a 3-period iid tree of 3 assets and 4
    # children a step: every one-step factor is rotated
    law = [{"delta": [0.3, -0.2, 0.1], "p": 0.3}, {"delta": [-0.2, 0.25, 0.05], "p": 0.25},
           {"delta": [0.05, 0.1, -0.3], "p": 0.25}, {"delta": [-0.1, -0.15, 0.2], "p": 0.2}]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": {"type": "iid", "s0": [10.0, 9.0, 11.0], "periods": 3,
                                         "increments": law},
                               "claim": {"type": "call", "strike": 10.0}}))
    assert main(["hedge", "--config", str(cfg), "--out", str(tmp_path)]) == 0


def test_gram_root_turns_nearly_collinear_columns_without_warnings():
    # the column norms are recomputed at every rotation; updated as
    # alpha - tan gamma they went negative here (pyproject turns a
    # RuntimeWarning into an error).  Two and three nearly equal columns
    rng = np.random.default_rng(8)
    x = rng.normal(size=(200, 6, 1))
    for d in (2, 3):
        a = np.concatenate([x] + [x * (1.0 + 10.0 ** rng.uniform(-16, -8, size=(200, 1, 1)))
                                  + 1e-17 * rng.normal(size=(200, 6, 1)) for _ in range(d - 1)],
                           axis=2)
        R, V, keep = gram_root(a)
        assert np.all(np.isfinite(R)) and np.allclose(V.swapaxes(1, 2) @ V, np.eye(d), atol=1e-15)
        assert np.all(keep.any(axis=1))


# b'(a'a)^-1 b for 2, 3 and 4 assets of singular values sigma, a = U
# diag(sigma) W' (U, W random orthonormal from seeds 0-3) and a random b,
# both times 1e-120 and 1e120, against exact_quadratic: plane rotations at
# d <= 3, eigh and Cholesky at d = 4.  Worst errors: 2.2e-14 at (1, 1e-3,
# 1.5e-3), 5.7e-10 at (1, 1e-7, 2e-7), 1.9e-10 at (1, 1e-7) and 1.5e-10 at
# (1, 1e-3, 1e-5, 1e-7), margins of 46, 17, 53 and 68; eigh and Cholesky
# gave 2.7e-14, 3.1e-10 and 6.9e-11 on the first three.  Without the
# Cholesky factor of Y'Y (R = V D^-1 with V from eigh) the 3-asset errors
# were 8.2e-11 and 7.9e-3: V alone is inaccurate on the small eigenvalues
# of a'a, while plane rotations keep the columns' own accuracy.
@pytest.mark.parametrize("sigma,bound", [((1.0, 1e-3, 1.5e-3), 1e-12), ((1.0, 1e-7, 2e-7), 1e-8),
                                         ((1.0, 1e-7), 1e-8), ((1.0, 1e-3, 1e-5, 1e-7), 1e-8)])
def test_gram_root_three_assets_against_exact_reference(sigma, bound):
    worst, d = 0.0, len(sigma)
    for seed in range(4):
        rng = np.random.default_rng(seed)
        u = np.linalg.qr(rng.normal(size=(5, d)))[0]
        w = np.linalg.qr(rng.normal(size=(d, d)))[0]
        a, b = (u * np.array(sigma)) @ w.T, rng.normal(size=d)
        for scale in (1e-120, 1e120):
            K = exact_quadratic(a * scale, b * scale)
            got = float(np.sum((b * scale @ gram_root(a * scale)[0]) ** 2))
            worst = max(worst, float(abs(Fraction(got) - K) / K))
    assert worst <= bound


def test_centered_moments_binomial_hand_case():
    mean, dev = centered_moments([0.6, 0.4], [[1.0], [-1.0]])
    assert mean[0] == pytest.approx(0.2)
    assert dev[:, 0] == pytest.approx([0.8, -1.2])
    assert np.array([0.6, 0.4]) @ dev[:, 0] ** 2 == pytest.approx(0.96)


def test_centered_moments_zero_increments():
    mean, dev = centered_moments([0.5, 0.5], [[0.0], [0.0]])
    assert mean[0] == 0.0
    assert np.all(dev == 0.0)


def test_centered_moments_martingale_step():
    mean, _ = centered_moments([0.25, 0.75], [[3.0], [-1.0]])
    assert mean[0] == pytest.approx(0.0)


def test_centered_moments_scalar_values_and_stacks():
    # a stacked node gets the arithmetic of a call on that node alone;
    # scalar values give the mean and deviations of a column
    rng = np.random.default_rng(11)
    q = rng.dirichlet(np.ones(4), size=5)
    x = rng.normal(size=(5, 4, 2))
    mean, dev = centered_moments(q, x)
    for j in range(5):
        one = centered_moments(q[j], x[j])
        assert all(np.array_equal(a[j], b) for a, b in zip((mean, dev), one))
        m, v = centered_moments(q[j], x[j, :, 1:])
        assert np.allclose([*m, *v[:, 0]], [mean[j, 1], *dev[j, :, 1]], rtol=1e-15, atol=1e-15)


def test_centered_moments_one_child_of_almost_all_mass():
    # the uncentered form sum q d^2 - (sum q d)^2 loses the variance to
    # cancellation; the centered deviations keep it to rounding
    p = 1e-12
    mean, dev = centered_moments([p, 1.0 - p], [[1.1], [0.9]])
    var = p * (1.0 - p) * 0.2 ** 2
    assert abs(mean[0] - (0.9 + 0.2 * p)) <= 1e-16
    assert abs(np.array([p, 1.0 - p]) @ dev[:, 0] ** 2 - var) <= 1e-14 * var


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
