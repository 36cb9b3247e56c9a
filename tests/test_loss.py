import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xtalssl.autodiff import ShapeMismatch, Tape, Tensor
from xtalssl.loss import (
    BatchTooSmall,
    LossConfig,
    barlow_twins_loss,
    bt_loss_from_embeddings,
    cross_correlation,
    mae_metric,
    mse_loss,
)

from oracles import (
    add,
    chain_barlow_twins_loss,
    chain_cross_correlation,
    chain_mse,
    grad_check,
    mul,
    naive_bt_loss,
    naive_cross_correlation,
    naive_mae,
    naive_mse,
    scale,
    sum_all,
)


class TestLossConfig:
    def test_defaults(self):
        cfg = LossConfig()
        assert cfg.lam == pytest.approx(0.0051)
        assert cfg.eps == pytest.approx(1e-5)

    def test_validation(self):
        with pytest.raises(ValueError):
            LossConfig(lam=-0.1)
        with pytest.raises(ValueError):
            LossConfig(eps=-1e-9)


class TestBarlowTwinsIdentities:
    def test_identity_matrix_gives_zero(self):
        loss = barlow_twins_loss(Tensor(np.eye(8)), LossConfig())
        assert float(loss.data) == pytest.approx(0.0, abs=1e-15)

    def test_half_off_diagonal_value(self):
        c = Tensor(np.array([[1.0, 0.5], [0.5, 1.0]]))
        loss = barlow_twins_loss(c, LossConfig(lam=0.0051))
        # two off-diagonal terms: 2 * 0.0051 * 0.25
        assert float(loss.data) == pytest.approx(0.00255, abs=1e-12)

    def test_diagonal_only(self):
        c = Tensor(np.diag([0.0, 2.0]))
        loss = barlow_twins_loss(c, LossConfig(lam=0.0051))
        assert float(loss.data) == pytest.approx(2.0, abs=1e-12)

    def test_lambda_zero_ignores_off_diagonal(self):
        c = Tensor(np.array([[1.0, 9.0], [-7.0, 1.0]]))
        loss = barlow_twins_loss(c, LossConfig(lam=0.0))
        assert float(loss.data) == pytest.approx(0.0, abs=1e-15)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            d = int(rng.integers(1, 12))
            c = rng.normal(size=(d, d))
            got = float(barlow_twins_loss(Tensor(c), LossConfig()).data)
            npt.assert_allclose(got, naive_bt_loss(c, 0.0051), rtol=1e-12)

    def test_rejects_non_square(self):
        with pytest.raises(ShapeMismatch):
            barlow_twins_loss(Tensor(np.zeros((2, 3))), LossConfig())
        with pytest.raises(ShapeMismatch):
            barlow_twins_loss(Tensor(1.0), LossConfig())


class TestCrossCorrelation:
    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            b = int(rng.integers(2, 16))
            d = int(rng.integers(1, 8))
            za, zb = rng.normal(size=(b, d)), rng.normal(size=(b, d))
            got = cross_correlation(Tensor(za), Tensor(zb), eps=1e-5).data
            npt.assert_allclose(got, naive_cross_correlation(za, zb, 1e-5),
                                rtol=0, atol=1e-12)

    def test_identical_views_give_identity(self):
        rng = np.random.default_rng(2)
        z = rng.normal(size=(64, 6))
        c = cross_correlation(Tensor(z), Tensor(z), eps=0.0).data
        npt.assert_allclose(np.diag(c), np.ones(6), atol=1e-9)

    def test_batch_too_small(self):
        with pytest.raises(BatchTooSmall):
            cross_correlation(Tensor(np.ones((1, 4))), Tensor(np.ones((1, 4))))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            cross_correlation(Tensor(np.ones((4, 3))), Tensor(np.ones((4, 2))))


class TestInvariances:
    def test_swap_and_scale_invariance(self):
        # with eps=0 standardization removes per-view affine scale, and the
        # loss is symmetric in the views up to transposition of C
        rng = np.random.default_rng(3)
        cfg = LossConfig(lam=0.0051, eps=0.0)
        for _ in range(25):
            b = int(rng.integers(4, 32))
            d = int(rng.integers(2, 10))
            za, zb = rng.normal(size=(b, d)), rng.normal(size=(b, d))
            base = float(bt_loss_from_embeddings(Tensor(za), Tensor(zb), cfg).data)
            swapped = float(bt_loss_from_embeddings(Tensor(zb), Tensor(za), cfg).data)
            scaled = float(bt_loss_from_embeddings(
                Tensor(za * 3.7), Tensor(zb * 0.2), cfg).data)
            shifted = float(bt_loss_from_embeddings(
                Tensor(za + 11.0), Tensor(zb - 4.0), cfg).data)
            assert abs(base - swapped) < 1e-9
            assert abs(base - scaled) < 1e-9
            assert abs(base - shifted) < 1e-9

    def test_gradient_flows(self):
        rng = np.random.default_rng(4)
        za = Tensor(rng.normal(size=(8, 4)), requires_grad=True)
        zb = Tensor(rng.normal(size=(8, 4)), requires_grad=True)
        with Tape() as tape:
            loss = bt_loss_from_embeddings(za, zb, LossConfig())
            tape.backward(loss)
        assert za.grad is not None and zb.grad is not None
        assert np.any(za.grad != 0)


class TestRegressionLosses:
    def test_mse_value(self):
        pred = Tensor(np.array([[1.0], [2.0], [3.0]]))
        target = np.array([1.0, 4.0, 2.0])
        got = float(mse_loss(pred, target).data)
        assert got == pytest.approx(naive_mse(pred.data.ravel(), target), rel=1e-12)
        assert got == pytest.approx((0.0 + 4.0 + 1.0) / 3.0, rel=1e-12)

    def test_mse_gradient(self):
        pred = Tensor(np.array([[2.0]]), requires_grad=True)
        with Tape() as tape:
            loss = mse_loss(pred, np.array([0.5]))
            tape.backward(loss)
        npt.assert_allclose(pred.grad, [[2 * (2.0 - 0.5)]], atol=1e-12)

    def test_mae_value(self):
        pred = np.array([1.0, -2.0, 0.0])
        target = np.array([0.0, -2.5, 4.0])
        assert mae_metric(pred, target) == pytest.approx(naive_mae(pred, target))
        assert mae_metric(pred, target) == pytest.approx((1.0 + 0.5 + 4.0) / 3.0)

    def test_mse_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            mse_loss(Tensor(np.ones((2, 1))), np.ones(3))


def _taped(build, *arrays, grads=None):
    """build(*tensors) under a tape and its backward: the loss and each input's gradient.

    ``grads`` says which inputs require a gradient (default all); an
    input given as the int k is the same Tensor as input k.
    """
    grads = grads or [True] * len(arrays)
    tensors = []
    for a, g in zip(arrays, grads):
        tensors.append(tensors[a] if isinstance(a, int) else Tensor(a.copy(), requires_grad=g))
    with Tape() as tape:
        loss = build(*tensors)
        tape.backward(loss)
    return [loss.data] + [t.grad for t in tensors]


def _around(loss, z, w, c):
    """c * (loss + sum(z * w)): the later records give z a gradient before
    the loss's backward runs, and the loss an upstream gradient c != 1,
    so the order of every addition and product in that backward shows."""
    return scale(add(loss, sum_all(mul(z, Tensor(w)))), c)


def _same_bits(got, expected):
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        if e is None:
            assert g is None
        else:
            assert g.shape == e.shape and np.array_equal(g, e)


class TestFusedPrimitivesMatchTheChain:
    """The fused losses give the loss and every gradient of the old chain of
    small tape ops (``tests/oracles.py``) to the last bit."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 64), st.integers(1, 128), st.sampled_from([0.0, 1e-5]),
           st.integers(0, 2**32 - 1), st.sampled_from(["none", "a", "both"]),
           st.floats(-3.0, 3.0), st.sampled_from(["distinct", "same", "a_only", "b_only"]))
    def test_barlow_twins(self, batch, dim, eps, seed, constant, log_scale, inputs):
        rng = np.random.default_rng(seed)
        za = rng.normal(size=(batch, dim)) * 10.0 ** log_scale
        zb = rng.normal(size=(batch, dim)) * rng.uniform(0.1, 10.0) + rng.normal()
        col = int(rng.integers(dim))
        if constant in ("a", "both"):
            za[:, col] = rng.normal()
        if constant == "both":
            zb[:, col] = rng.normal()
        lam = float(rng.uniform(0.0, 0.1))
        cfg = LossConfig(lam=lam, eps=eps)
        w, c = rng.normal(size=za.shape), float(rng.uniform(0.1, 10.0))
        arrays = (za, 0 if inputs == "same" else zb)
        grads = [inputs != "b_only", inputs != "a_only"]

        fused = _taped(lambda a, b: _around(bt_loss_from_embeddings(a, b, cfg), a, w, c),
                       *arrays, grads=grads)
        chain = _taped(lambda a, b: _around(
            chain_barlow_twins_loss(chain_cross_correlation(a, b, eps), lam), a, w, c),
            *arrays, grads=grads)
        _same_bits(fused, chain)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 64), st.integers(0, 2**32 - 1), st.floats(-3.0, 3.0))
    def test_mse(self, batch, seed, log_scale):
        rng = np.random.default_rng(seed)
        pred = rng.normal(size=(batch, 1)) * 10.0 ** log_scale
        target = rng.normal(size=batch) * 10.0 ** log_scale
        w, c = rng.normal(size=pred.shape), float(rng.uniform(0.1, 10.0))

        fused = _taped(lambda p: _around(mse_loss(p, target), p, w, c), pred)
        chain = _taped(lambda p: _around(chain_mse(p, target), p, w, c), pred)
        _same_bits(fused, chain)


class TestFusedPrimitives:
    def test_one_tape_record_per_loss_stage(self):
        # guards against either loss falling back to a chain of small ops
        rng = np.random.default_rng(5)
        za = Tensor(rng.normal(size=(8, 4)), requires_grad=True)
        zb = Tensor(rng.normal(size=(8, 4)), requires_grad=True)
        pred = Tensor(rng.normal(size=(8, 1)), requires_grad=True)
        with Tape() as tape:
            bt_loss_from_embeddings(za, zb, LossConfig())
        assert len(tape._records) == 2
        with Tape() as tape:
            mse_loss(pred, rng.normal(size=8))
        assert len(tape._records) == 1

    @pytest.mark.parametrize("eps", [0.0, 1e-5])
    def test_gradients_match_finite_differences(self, eps):
        rng = np.random.default_rng(6)
        za = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        zb = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        cfg = LossConfig(eps=eps)
        assert grad_check(lambda: bt_loss_from_embeddings(za, zb, cfg), [za, zb]) == []
        pred = Tensor(rng.normal(size=(5, 1)), requires_grad=True)
        target = rng.normal(size=5)
        assert grad_check(lambda: mse_loss(pred, target), [pred]) == []
