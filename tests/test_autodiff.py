import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xtalssl import autodiff as ad
from xtalssl.autodiff import (
    IndexOutOfRange,
    NonScalarLoss,
    ShapeMismatch,
    Tape,
    Tensor,
)
from xtalssl.model import _readout_weights

from oracles import (
    add,
    chain_scaled_gather,
    chain_scaled_segment_sum,
    chain_softplus_mlp,
    column_standardize,
    gather_rows,
    grad_check,
    matmul,
    mul,
    scale,
    scale_rows,
    scatter_add_rows,
    segment_sum,
    softplus,
    sum_all,
    transpose,
)


def numeric_grad(f, x, eps=1e-6):
    """Central differences of a scalar-valued f over a flat copy of x."""
    x = np.array(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f(x)
        flat[i] = orig - eps
        fm = f(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * eps)
    return g


def backward_of(build, *arrays):
    """Run build(tensors) under a tape, backprop, return each grad."""
    ts = [Tensor(a, requires_grad=True) for a in arrays]
    with Tape() as tape:
        loss = build(*ts)
        tape.backward(loss)
    return [t.grad for t in ts]


class TestTensor:
    def test_scalar_stays_zero_dim(self):
        t = Tensor(3.5)
        assert t.data.shape == ()
        assert t.data.dtype == np.float64

    def test_defaults(self):
        t = Tensor([1.0, 2.0])
        assert not t.requires_grad
        assert t.grad is None

    def test_zero_grad(self):
        t = Tensor([1.0], requires_grad=True)
        t.grad = np.ones(1)
        t.zero_grad()
        assert t.grad is None


class TestTapeMechanics:
    def test_inference_mode_records_nothing(self):
        a = Tensor([[1.0, 2.0]], requires_grad=True)
        out = softplus(a)  # no tape active
        assert out.grad is None
        assert a.grad is None

    def test_non_scalar_loss_rejected(self):
        a = Tensor([[1.0, 2.0]], requires_grad=True)
        with Tape() as tape:
            out = mul(a, a)
            with pytest.raises(NonScalarLoss):
                tape.backward(out)

    def test_no_requires_grad_no_grads(self):
        a = Tensor([[1.0, 2.0]])
        with Tape() as tape:
            loss = sum_all(mul(a, a))
            tape.backward(loss)
        assert a.grad is None

    def test_reuse_accumulates(self):
        # y = sum(a * a) + sum(a) => dy/da = 2a + 1
        a = Tensor([[1.0, -2.0], [0.5, 3.0]], requires_grad=True)
        with Tape() as tape:
            loss = add(sum_all(mul(a, a)), sum_all(a))
            tape.backward(loss)
        npt.assert_allclose(a.grad, 2 * a.data + 1, atol=1e-12)

    def test_nested_tapes_are_independent(self):
        a = Tensor([[2.0]], requires_grad=True)
        with Tape() as outer:
            la = sum_all(mul(a, a))
            with Tape() as inner:
                lb = sum_all(scale(a, 3.0))
                inner.backward(lb)
            inner_grad = a.grad.copy()
            a.zero_grad()
            outer.backward(la)
        npt.assert_allclose(inner_grad, [[3.0]])
        npt.assert_allclose(a.grad, [[4.0]])

    def test_tapes_are_per_thread(self):
        a = Tensor([[2.0]], requires_grad=True)
        seen = {}

        def other_thread():
            seen["active"] = ad.active_tape()
            with Tape() as own:
                seen["loss"] = sum_all(scale(a, 3.0))
            seen["own"] = own

        with Tape() as tape:
            worker = threading.Thread(target=other_thread)
            worker.start()
            worker.join()
            assert ad.active_tape() is tape
        assert seen["active"] is None
        assert tape._records == []
        assert len(seen["own"]._records) == 2
        seen["own"].backward(seen["loss"])
        npt.assert_allclose(a.grad, [[3.0]])

    def test_walk_starts_from_gradients_already_set(self):
        a = Tensor([[1.5, -2.0]], requires_grad=True)
        with Tape() as inner:
            y = mul(a, a)
        with Tape() as outer:
            loss = sum_all(scale(y, 3.0))
            outer.backward(loss)
        assert a.grad is None  # the inner tape holds the way from y to a
        inner.walk()
        npt.assert_allclose(a.grad, 6.0 * a.data)

    def test_backward_bitwise_repeatable(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 3))
        w = rng.normal(size=(3, 2))
        def run():
            tx, tw = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
            with Tape() as tape:
                loss = sum_all(softplus(matmul(tx, tw)))
                tape.backward(loss)
            return tx.grad.copy(), tw.grad.copy(), loss.data.copy()
        a, b = run(), run()
        for x1, x2 in zip(a, b):
            npt.assert_array_equal(x1, x2)


class TestForwardValues:
    def test_matmul(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0], [6.0]])
        npt.assert_allclose(matmul(a, b).data, [[17.0], [39.0]])

    def test_add_bias_broadcast(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([10.0, 20.0])
        npt.assert_allclose(add(a, b).data, [[11.0, 22.0], [13.0, 24.0]])

    def test_mul(self):
        a = Tensor([[2.0, 3.0]])
        npt.assert_allclose(mul(a, a).data, [[4.0, 9.0]])

    def test_scale(self):
        npt.assert_allclose(scale(Tensor([[2.0]]), -1.5).data, [[-3.0]])

    def test_scale_rows(self):
        a = Tensor([[1.0, 1.0], [2.0, 2.0]])
        out = scale_rows(a, np.array([0.0, 3.0]))
        npt.assert_allclose(out.data, [[0.0, 0.0], [6.0, 6.0]])

    def test_transpose(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        npt.assert_allclose(transpose(a).data, [[1.0, 3.0], [2.0, 4.0]])

    def test_softplus_stable(self):
        out = softplus(Tensor([[-800.0, 0.0, 800.0]])).data
        npt.assert_allclose(out, [[0.0, np.log(2.0), 800.0]], atol=1e-12)
        assert np.isfinite(out).all()

    def test_sum_all_scalar(self):
        out = sum_all(Tensor([[1.0, 2.0], [3.0, 4.0]]))
        assert out.data.shape == ()
        assert float(out.data) == pytest.approx(10.0)

    def test_gather_rows(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        out = gather_rows(a, np.array([2, 0, 2]))
        npt.assert_allclose(out.data, [[5.0, 6.0], [1.0, 2.0], [5.0, 6.0]])

    def test_scatter_add_rows(self):
        a = Tensor([[1.0], [2.0], [3.0]])
        out = scatter_add_rows(a, np.array([0, 0, 2]), 4)
        npt.assert_allclose(out.data, [[3.0], [0.0], [3.0], [0.0]])

    def test_column_standardize_two_rows(self):
        out = column_standardize(Tensor([[1.0], [3.0]]), eps=0.0)
        npt.assert_allclose(out.data, [[-1.0], [1.0]], atol=1e-12)

    def test_column_standardize_constant_column(self):
        out = column_standardize(Tensor([[2.0, 1.0], [2.0, 3.0]]), eps=0.0)
        npt.assert_allclose(out.data[:, 0], [0.0, 0.0], atol=1e-12)
        npt.assert_allclose(out.data[:, 1], [-1.0, 1.0], atol=1e-12)

    def test_column_standardize_eps_shrinks(self):
        out = column_standardize(Tensor([[1.0], [3.0]]), eps=1.0)
        npt.assert_allclose(out.data, [[-0.5], [0.5]], atol=1e-12)


class TestShapeErrors:
    def test_matmul_mismatch(self):
        with pytest.raises(ShapeMismatch):
            matmul(Tensor([[1.0, 2.0]]), Tensor([[1.0, 2.0]]))

    def test_add_mismatch(self):
        with pytest.raises(ShapeMismatch):
            add(Tensor([[1.0, 2.0]]), Tensor([[1.0], [2.0]]))

    def test_mul_mismatch(self):
        with pytest.raises(ShapeMismatch):
            mul(Tensor([[1.0]]), Tensor([[1.0, 2.0]]))

    def test_scale_rows_mismatch(self):
        with pytest.raises(ShapeMismatch):
            scale_rows(Tensor([[1.0], [2.0]]), np.ones(3))

    def test_gather_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            gather_rows(Tensor([[1.0], [2.0]]), np.array([0, 2]))
        with pytest.raises(IndexOutOfRange):
            gather_rows(Tensor([[1.0], [2.0]]), np.array([-1]))

    def test_scatter_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            scatter_add_rows(Tensor([[1.0]]), np.array([3]), 2)


class TestBackwardAgainstFiniteDifferences:
    """Every primitive's gradient is checked against central differences
    through a sum-based scalar loss with non-uniform weights."""

    def weighted(self, t, w):
        return sum_all(mul(t, Tensor(w)))

    def check(self, build, *arrays, tol=1e-6):
        grads = backward_of(build, *arrays)
        for k, arr in enumerate(arrays):
            def f(x, k=k):
                tensors = [Tensor(a) for a in arrays]
                tensors[k] = Tensor(x)
                return float(build(*tensors).data)
            npt.assert_allclose(grads[k], numeric_grad(f, arr), rtol=1e-5, atol=tol)

    def test_matmul(self):
        rng = np.random.default_rng(1)
        w = rng.normal(size=(3, 2))
        self.check(lambda a, b: self.weighted(matmul(a, b), w),
                   rng.normal(size=(3, 4)), rng.normal(size=(4, 2)))

    def test_add_same_shape(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=(2, 3))
        self.check(lambda a, b: self.weighted(add(a, b), w),
                   rng.normal(size=(2, 3)), rng.normal(size=(2, 3)))

    def test_add_bias(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=(4, 3))
        self.check(lambda a, b: self.weighted(add(a, b), w),
                   rng.normal(size=(4, 3)), rng.normal(size=3))

    def test_mul(self):
        rng = np.random.default_rng(4)
        w = rng.normal(size=(2, 2))
        self.check(lambda a, b: self.weighted(mul(a, b), w),
                   rng.normal(size=(2, 2)), rng.normal(size=(2, 2)))

    def test_scale(self):
        rng = np.random.default_rng(5)
        w = rng.normal(size=(2, 2))
        self.check(lambda a: self.weighted(scale(a, -2.5), w),
                   rng.normal(size=(2, 2)))

    def test_scale_rows(self):
        rng = np.random.default_rng(6)
        w = rng.normal(size=(3, 2))
        rows = np.array([0.0, 1.0, 2.0])
        self.check(lambda a: self.weighted(scale_rows(a, rows), w),
                   rng.normal(size=(3, 2)))

    def test_transpose(self):
        rng = np.random.default_rng(7)
        w = rng.normal(size=(3, 2))
        self.check(lambda a: self.weighted(transpose(a), w),
                   rng.normal(size=(2, 3)))

    def test_softplus(self):
        rng = np.random.default_rng(10)
        w = rng.normal(size=(2, 3))
        self.check(lambda a: self.weighted(softplus(a), w),
                   rng.normal(size=(2, 3)))

    def test_gather_rows(self):
        rng = np.random.default_rng(11)
        w = rng.normal(size=(4, 2))
        idx = np.array([2, 0, 2, 1])
        self.check(lambda a: self.weighted(gather_rows(a, idx), w),
                   rng.normal(size=(3, 2)))

    def test_scatter_add_rows(self):
        rng = np.random.default_rng(12)
        w = rng.normal(size=(3, 2))
        idx = np.array([0, 2, 0, 1])
        self.check(lambda a: self.weighted(scatter_add_rows(a, idx, 3), w),
                   rng.normal(size=(4, 2)))

    def test_column_standardize(self):
        rng = np.random.default_rng(14)
        w = rng.normal(size=(5, 3))
        self.check(lambda a: self.weighted(column_standardize(a, eps=1e-5), w),
                   rng.normal(size=(5, 3)), tol=1e-5)

    def test_column_standardize_zero_eps(self):
        rng = np.random.default_rng(15)
        w = rng.normal(size=(4, 2))
        self.check(lambda a: self.weighted(column_standardize(a, eps=0.0), w),
                   rng.normal(size=(4, 2)), tol=1e-5)

    def test_composite_expression(self):
        # sigma(x W1) softplussed, standardized, summed: stacks many rules
        rng = np.random.default_rng(16)
        x = rng.normal(size=(6, 3))
        def build(xt, wt):
            h = softplus(matmul(xt, wt))
            return sum_all(mul(column_standardize(h, eps=1e-5), h))
        self.check(build, x, rng.normal(size=(3, 4)), tol=1e-5)


class TestGradCheck:
    def test_accepts_correct_gradients(self):
        rng = np.random.default_rng(20)
        p = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        q = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        def loss_fn():
            return sum_all(softplus(matmul(p, q)))
        assert grad_check(loss_fn, [p, q], eps=1e-5) == []

    def test_flags_hidden_dependence(self):
        # loss_fn that routes part of the value around the tape: analytic
        # gradient misses it, numeric gradient sees it
        p = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
        def loss_fn():
            leak = Tensor(p.data * 3.0)  # constant as far as the tape knows
            return add(sum_all(p), sum_all(leak))
        failures = grad_check(loss_fn, [p], eps=1e-5)
        assert len(failures) == 2
        pi, fi, numeric, analytic = failures[0]
        assert (pi, fi) == (0, 0)
        assert numeric == pytest.approx(4.0, abs=1e-3)
        assert analytic == pytest.approx(1.0, abs=1e-12)

    def test_restores_parameter_values(self):
        p = Tensor(np.array([[1.0, -2.0]]), requires_grad=True)
        before = p.data.copy()
        grad_check(lambda: sum_all(mul(p, p)), [p])
        npt.assert_array_equal(p.data, before)


class TestSegmentSum:
    def test_bitwise_equal_to_add_at(self):
        rng = np.random.default_rng(30)
        for n_rows, n_items, width in ((7, 40, 3), (50, 9, 5), (4, 0, 2), (3, 6, 1)):
            x = rng.normal(size=(n_items, width))
            # draw from half the rows only, so some rows are never hit
            index = rng.integers(0, max(1, n_rows // 2), n_items)
            expected = np.zeros((n_rows, width))
            np.add.at(expected, index, x)
            got = ad._segment_sum(x, index, n_rows)
            assert got.shape == (n_rows, width)
            npt.assert_array_equal(got, expected)
            assert not got[n_rows // 2 + 1:].any()

    def test_an_empty_index_gives_zero_rows(self):
        index = np.zeros(0, dtype=np.int64)
        npt.assert_array_equal(ad._segment_sum(np.zeros((0, 3)), index, 2), np.zeros((2, 3)))
        out = ad.scaled_segment_sum(Tensor(np.zeros((0, 3))), np.zeros(0), index, 2)
        npt.assert_array_equal(out.data, np.zeros((2, 3)))


def layout_case(seed, n_rows, n_items, width, kind):
    """An (n_items, width) block with exact and signed zeros, and an index into n_rows rows.

    ``kind``: "sorted" and "unsorted" draw from a random subset of the
    rows, so some rows are never hit; "regular" gives every row the same
    count, in row order; "hub" puts every item in one row.  One row, if it
    holds items, holds only -0.0.
    """
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n_items, width)) * 10.0 ** rng.integers(-8, 9, size=(n_items, width))
    x[rng.uniform(size=x.shape) < 0.1] = 0.0
    x[rng.uniform(size=x.shape) < 0.1] = -0.0
    if kind == "regular":
        index = np.repeat(np.arange(n_rows), n_items // n_rows)
        x = x[:index.size]
    elif kind == "hub":
        index = np.full(n_items, rng.integers(n_rows))
    else:
        hit = rng.choice(n_rows, size=rng.integers(1, n_rows + 1), replace=False)
        index = rng.choice(hit, size=n_items)
        if kind == "sorted":
            index.sort()
    x[index == rng.integers(n_rows)] = -0.0  # a row of -0.0 items sums to +0.0
    return x, index


class TestSegmentLayout:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_rows=st.integers(1, 40),
           n_items=st.integers(0, 300), width=st.integers(1, 128),
           kind=st.sampled_from(["sorted", "unsorted", "regular", "hub"]))
    def test_sums_bitwise_as_add_at(self, seed, n_rows, n_items, width, kind):
        x, index = layout_case(seed, n_rows, n_items, width, kind)
        layout = ad._SegmentLayout(index, n_rows)
        # in column-major memory too, where numpy would reduce a row pairwise
        got = layout.sum(np.asfortranarray(x) if seed % 2 else x)
        expected = segment_sum(x, index, n_rows)
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
        # rows that hold no item are +0.0, never -0.0
        assert not np.signbit(got[np.bincount(index, minlength=n_rows) == 0]).any()

    @pytest.mark.parametrize("kind, n_rows, n_items, form", [
        ("regular", 30, 300, "regular"),
        ("sorted", 40, 300, "passes"),
        ("unsorted", 40, 300, "passes"),
        ("hub", 40, 300, "long"),
        ("unsorted", 3, 40, "long"),  # fewer rows than a pass must add
    ])
    @pytest.mark.parametrize("width", [1, 2, 128])
    def test_each_form_runs(self, kind, n_rows, n_items, form, width):
        # the property above covers these; this pins that each form is reached
        x, index = layout_case(1, n_rows, n_items, width, kind)
        layout = ad._SegmentLayout(index, n_rows)
        forms = {"regular": bool(layout.depth),
                 "passes": not layout.depth and bool(layout.passes),
                 "long": not layout.depth and bool(layout.long)}
        assert forms[form]
        assert layout.sum(x).tobytes() == segment_sum(x, index, n_rows).tobytes()


class TestElementwiseHelpers:
    def test_negative_tail_keeps_relative_precision(self):
        # Adam's steps do not scale with the gradient, so a tail that rounds
        # to zero (as 0.5 * (1 + tanh(x / 2)) does below x = -37) changes
        # training runs; both helpers must stay accurate relative to exp(x)
        x = np.linspace(-700.0, -20.0, 1001)
        ex = np.exp(x)
        npt.assert_allclose(ad._sigmoid(x), ex / (1.0 + ex), rtol=1e-15, atol=0.0)
        npt.assert_allclose(ad._softplus(x), np.log1p(ex), rtol=1e-15, atol=0.0)

    def test_softplus_matches_logaddexp(self):
        x = np.random.default_rng(31).normal(scale=30.0, size=10_000)
        ref = np.logaddexp(0.0, x)
        assert np.all(np.abs(ad._softplus(x) - ref) <= 2 * np.spacing(ref))


def conv_case(rng, width=3, k=2):
    """A small graph exercising every indexing path of gated_conv.

    Edges are unsorted in both src and dst, (0, 2) appears twice, node 4
    has no edges and edges 1 and 5 are masked (zeroed features).
    """
    src = np.array([2, 0, 3, 0, 1, 3, 2])
    dst = np.array([1, 2, 0, 2, 3, 1, 2])
    e = rng.normal(size=(src.size, k))
    e[[1, 5]] = 0.0
    z_dim = 2 * width + k
    params = [Tensor(rng.normal(size=shape), requires_grad=True)
              for shape in ((5, width), (z_dim, width), (width,), (z_dim, width), (width,))]
    return src, dst, e, params


def dense_gated_conv(h, src, dst, e, w_f, b_f, w_s, b_s):
    """Concatenate z per edge and apply both matmuls: the unfused layer."""
    z = np.concatenate([h[src], h[dst], e], axis=1)
    gate = 1.0 / (1.0 + np.exp(-(z @ w_f + b_f)))
    core = np.logaddexp(0.0, z @ w_s + b_s)
    out = h.copy()
    np.add.at(out, src, gate * core)
    return out


class TestGatedConv:
    def test_matches_dense_layer(self):
        rng = np.random.default_rng(40)
        src, dst, e, params = conv_case(rng)
        h, w_f, b_f, w_s, b_s = params
        got = ad.gated_conv(h, ad._EdgePlan(src, dst, 5), e, w_f, b_f, w_s, b_s).data
        expected = dense_gated_conv(h.data, src, dst, e, w_f.data, b_f.data, w_s.data, b_s.data)
        npt.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)
        # the node without edges passes through unchanged
        npt.assert_array_equal(got[4], h.data[4])

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(41)
        src, dst, e, params = conv_case(rng)
        h, w_f, b_f, w_s, b_s = params
        weight = Tensor(rng.normal(size=h.shape))

        def loss_fn():
            out = ad.gated_conv(h, ad._EdgePlan(src, dst, 5), e, w_f, b_f, w_s, b_s)
            return sum_all(mul(out, weight))

        assert grad_check(loss_fn, params, eps=1e-6) == []

    def test_stable_at_extreme_preactivations(self):
        # zero weights leave the biases as the pre-activations: each edge
        # sends sigmoid(b_f) * softplus(b_s) = [0 * 0, 0.5 ln 2, 1 * 800]
        width, k = 3, 2
        h = Tensor(np.zeros((2, width)), requires_grad=True)
        w_f = Tensor(np.zeros((2 * width + k, width)), requires_grad=True)
        w_s = Tensor(np.zeros((2 * width + k, width)), requires_grad=True)
        b_f = Tensor([-800.0, 0.0, 800.0], requires_grad=True)
        b_s = Tensor([-800.0, 0.0, 800.0], requires_grad=True)
        src, dst = np.array([0, 0, 1]), np.array([1, 0, 0])
        e = np.ones((3, k))
        with Tape() as tape:
            out = ad.gated_conv(h, ad._EdgePlan(src, dst, 2), e, w_f, b_f, w_s, b_s)
            tape.backward(sum_all(out))
        assert np.isfinite(out.data).all()
        npt.assert_allclose(out.data[0], 2 * np.array([0.0, 0.5 * np.log(2.0), 800.0]),
                            atol=1e-12)
        npt.assert_allclose(out.data[1], [0.0, 0.5 * np.log(2.0), 800.0], atol=1e-12)
        for t in (h, w_f, b_f, w_s, b_s):
            assert np.isfinite(t.grad).all()
        # d msg / d b_f = sigmoid'(b_f) softplus(b_s) and d msg / d b_s =
        # sigmoid(b_f) sigmoid(b_s), summed over the three edges
        npt.assert_allclose(b_f.grad, 3 * np.array([0.0, 0.25 * np.log(2.0), 0.0]), atol=1e-12)
        npt.assert_allclose(b_s.grad, 3 * np.array([0.0, 0.25, 1.0]), atol=1e-12)

    def test_shape_and_index_errors(self):
        rng = np.random.default_rng(42)
        src, dst, e, params = conv_case(rng)
        h, w_f, b_f, w_s, b_s = params
        plan = ad._EdgePlan(src, dst, 5)
        with pytest.raises(ShapeMismatch):
            ad.gated_conv(h, plan, e[:, :1], w_f, b_f, w_s, b_s)
        with pytest.raises(ShapeMismatch):
            ad._EdgePlan(src[:-1], dst, 5)
        with pytest.raises(ShapeMismatch):
            ad.gated_conv(h, plan, e, w_f, b_f, w_s, Tensor(np.zeros(2)))
        with pytest.raises(IndexOutOfRange):
            ad._EdgePlan(src, np.where(dst == 3, 5, dst), 5)
        with pytest.raises(ShapeMismatch, match="5 node and 6 edge rows against 5 and 7"):
            ad.gated_conv(h, plan, e[:-1], w_f, b_f, w_s, b_s)
        # a plan laid out without a tape holds no dst layouts for the backward
        with Tape(), pytest.raises(ShapeMismatch, match="built under a tape"):
            ad.gated_conv(h, plan, e, w_f, b_f, w_s, b_s)

    def test_a_hub_holds_no_padding(self):
        # a star: 64 sources with 64 edges each, every edge into node 0.  Rows
        # padded to the hub's 4,096 edges would hold 65 x 4,096 x 2H floats;
        # the taped layer, forward and backward, stays within a few E x 2H
        n_src, per_src, width, k = 64, 64, 8, 4
        src = np.repeat(np.arange(1, n_src + 1), per_src)
        dst = np.zeros_like(src)
        rng = np.random.default_rng(43)
        z_dim = 2 * width + k
        params = [Tensor(rng.normal(size=s), requires_grad=True)
                  for s in ((n_src + 1, width), (z_dim, width), (width,), (z_dim, width), (width,))]
        e, w_out = rng.normal(size=(src.size, k)), Tensor(rng.normal(size=(n_src + 1, width)))
        tracemalloc.start()
        try:
            with Tape() as tape:
                out = ad.gated_conv(params[0], ad._EdgePlan(src, dst, n_src + 1), e, *params[1:])
                tape.backward(sum_all(mul(out, w_out)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * src.size * 2 * width * 8
        expected = dense_gated_conv(params[0].data, src, dst, e, *(p.data for p in params[1:]))
        npt.assert_allclose(out.data, expected, rtol=1e-12, atol=1e-12)


def merged_conv_case(seed, sizes, edge_counts, width, k):
    """A merged batch as ``merge_graphs`` lays it out, the split at its middle graph.

    Graph i has ``sizes[i]`` nodes and ``edge_counts[i]`` random edges
    among them, self-loops and repeats included, listed after the edges of
    graph i - 1.  Some nodes (masked atoms) and edge rows (masked edges)
    are zero.  Returns the edges, features, ``[h, w_f, b_f, w_s, b_s]``
    arrays, an output weight and the first node of graph ceil(n/2).
    """
    rng = np.random.default_rng(seed)
    offsets = np.cumsum([0] + list(sizes))
    edges = [rng.integers(lo, hi, size=(m, 2)) for lo, hi, m in
             zip(offsets[:-1], offsets[1:], edge_counts)]
    src, dst = np.concatenate(edges).T
    e = rng.normal(size=(src.size, k)) * (rng.uniform(size=(src.size, 1)) < 0.8)
    n, z_dim = offsets[-1], 2 * width + k
    h = rng.normal(size=(n, width)) * (rng.uniform(size=(n, 1)) < 0.8)
    arrays = [h] + [rng.normal(size=s) for s in ((z_dim, width), (width,), (z_dim, width), (width,))]
    return src, dst, e, arrays, rng.normal(size=(n, width)), int(offsets[(len(sizes) + 1) // 2])


def conv_bytes(src, dst, e, arrays, w_out, split=None, worker=None):
    """The output and the five gradients of a taped gated_conv, as bytes."""
    params = [Tensor(a, requires_grad=True) for a in arrays]
    with Tape() as tape:
        plan = ad._EdgePlan(src, dst, len(arrays[0]), split, worker)
        out = ad.gated_conv(params[0], plan, e, *params[1:])
        tape.backward(sum_all(mul(out, Tensor(w_out))))
    return [out.data.tobytes()] + [p.grad.tobytes() for p in params]


class TestSplitConv:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           graphs=st.lists(st.tuples(st.integers(1, 5), st.integers(0, 7)), min_size=2,
                           max_size=6),
           width=st.integers(1, 6), k=st.integers(1, 4))
    def test_two_blocks_equal_one_bitwise(self, seed, graphs, width, k):
        # blocks of one node or no edges, and graphs with no edges, included
        sizes, edge_counts = zip(*graphs)
        src, dst, e, arrays, w_out, split = merged_conv_case(seed, sizes, edge_counts, width, k)
        assert len(ad._row_blocks(src, dst, len(arrays[0]), split)) == 2
        assert conv_bytes(src, dst, e, arrays, w_out, split) == \
            conv_bytes(src, dst, e, arrays, w_out)

    def test_two_threads_equal_one_at_model_width(self):
        # the widths of the default model and the benchmark's larger batches
        sizes, edge_counts = [37, 41, 40, 29, 44], [451, 480, 470, 300, 512]
        src, dst, e, arrays, w_out, split = merged_conv_case(7, sizes, edge_counts, 64, 41)
        with ThreadPoolExecutor(max_workers=1) as worker:
            assert conv_bytes(src, dst, e, arrays, w_out, split, worker) == \
                conv_bytes(src, dst, e, arrays, w_out)

    @pytest.mark.parametrize("move, split", [
        (None, 0), (None, 9), (None, None),
        ("src", 4),  # an edge of the first block that ends in the second
        ("dst", 4),  # an edge of the second block that ends in the first
        ("order", 4),  # two crossing edges that only their order gives away
    ])
    def test_a_split_that_an_edge_crosses_or_outside_the_graph_runs_one_block(
            self, move, split):
        src, dst, e, arrays, w_out, _ = merged_conv_case(3, [4, 5], [6, 6], 3, 2)
        src, dst = src.copy(), dst.copy()
        if move == "src":
            dst[0] = 6
        elif move == "dst":
            dst[-1] = 1
        elif move == "order":
            src[[5, 6]] = src[[6, 5]]
        assert ad._row_blocks(src, dst, 9, split) == [(slice(0, 9), slice(0, 12), src, dst)]
        assert conv_bytes(src, dst, e, arrays, w_out, split) == \
            conv_bytes(src, dst, e, arrays, w_out)


def node_mask(rng, seg, n_graphs, kind):
    """0/1 node weights: all kept, some dropped, none kept, or whole graphs dropped."""
    if kind == "all":
        return np.ones(seg.size)
    if kind == "none":
        return np.zeros(seg.size)
    mask = (rng.uniform(size=seg.size) < 0.6).astype(np.float64)
    if kind == "graphs":
        mask[np.isin(seg, rng.permutation(n_graphs)[:max(1, n_graphs // 2)])] = 0.0
    return mask


def taped_around(build, arrays, w_out, w_in, c):
    """c * (sum(out * w_out) + sum_k sum(x_k * w_in[k])) for out = build(*x) under a tape.

    The later records give every input a gradient before build's backward
    runs, and the output an upstream gradient that is not all ones, so the
    order of every addition and product in that backward shows.  Returns
    the output and each input's gradient.
    """
    ts = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    with Tape() as tape:
        out = build(*ts)
        loss = sum_all(mul(out, Tensor(w_out)))
        for t, w in zip(ts, w_in):
            loss = add(loss, sum_all(mul(t, Tensor(w))))
        tape.backward(scale(loss, c))
    return [out.data] + [t.grad for t in ts]


def assert_fused_equals_chain(fused, chain, arrays, rng):
    w_out = rng.normal(size=fused(*(Tensor(a) for a in arrays)).shape)
    w_in = [rng.normal(size=a.shape) for a in arrays]
    c = float(rng.uniform(0.1, 10.0))
    got = taped_around(fused, arrays, w_out, w_in, c)
    expected = taped_around(chain, arrays, w_out, w_in, c)
    for g, e in zip(got, expected, strict=True):
        assert g.shape == e.shape and g.tobytes() == e.tobytes()


def mlp_arrays(rng, batch, n_in, n_hidden, n_out, log_scale=0.0):
    return (rng.normal(size=(batch, n_in)) * 10.0 ** log_scale,
            rng.normal(size=(n_in, n_hidden)), rng.normal(size=n_hidden),
            rng.normal(size=(n_hidden, n_out)), rng.normal(size=n_out))


class TestFusedModelPrimitivesMatchTheChain:
    """The embedding, readout and MLP primitives give the output and every
    gradient of the old chain of small tape ops (``tests/oracles.py``) to
    the last bit."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 64), st.integers(1, 8),
           st.integers(0, 2**32 - 1), st.sampled_from(["all", "some", "none"]))
    def test_scaled_gather(self, n_table, n_rows, width, seed, kind):
        rng = np.random.default_rng(seed)
        index = rng.integers(0, n_table, n_rows)
        w = node_mask(rng, np.zeros(n_rows, dtype=np.int64), 1, kind)
        assert_fused_equals_chain(lambda t: ad.scaled_gather(t, index, w),
                                  lambda t: chain_scaled_gather(t, index, w),
                                  (rng.normal(size=(n_table, width)),), rng)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 64), st.integers(1, 6), st.integers(1, 8),
           st.integers(0, 2**32 - 1), st.sampled_from(["all", "some", "none", "graphs"]))
    def test_scaled_segment_sum(self, n_rows, n_graphs, width, seed, kind):
        # the masked-mean readout's weights, an all-masked graph's included
        rng = np.random.default_rng(seed)
        n_graphs = min(n_graphs, n_rows)
        seg = np.sort(np.concatenate([np.arange(n_graphs),
                                      rng.integers(0, n_graphs, n_rows - n_graphs)]))
        w = _readout_weights(node_mask(rng, seg, n_graphs, kind), seg, n_graphs)
        assert_fused_equals_chain(lambda h: ad.scaled_segment_sum(h, w, seg, n_graphs),
                                  lambda h: chain_scaled_segment_sum(h, w, seg, n_graphs),
                                  (rng.normal(size=(n_rows, width)),), rng)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 64), st.integers(1, 8), st.integers(1, 8), st.integers(1, 4),
           st.integers(0, 2**32 - 1), st.floats(-3.0, 3.0))
    def test_softplus_mlp(self, batch, n_in, n_hidden, n_out, seed, log_scale):
        rng = np.random.default_rng(seed)
        assert_fused_equals_chain(ad.softplus_mlp, chain_softplus_mlp,
                                  mlp_arrays(rng, batch, n_in, n_hidden, n_out, log_scale), rng)


class TestFusedModelPrimitives:
    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(50)
        table = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        index, mask = np.array([2, 0, 2, 3, 1]), np.array([1.0, 0.0, 1.0, 1.0, 1.0])
        w_gather = Tensor(rng.normal(size=(5, 3)))
        assert grad_check(lambda: sum_all(mul(ad.scaled_gather(table, index, mask), w_gather)),
                          [table]) == []

        h = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        seg = np.array([0, 0, 1, 1, 1])
        weights = _readout_weights(np.array([0, 0, 1, 0, 1]), seg, 2)
        w_sum = Tensor(rng.normal(size=(2, 3)))
        assert grad_check(lambda: sum_all(mul(ad.scaled_segment_sum(h, weights, seg, 2), w_sum)),
                          [h]) == []

        params = [Tensor(a, requires_grad=True) for a in mlp_arrays(rng, 5, 3, 4, 2)]
        w_mlp = Tensor(rng.normal(size=(5, 2)))
        assert grad_check(lambda: sum_all(mul(ad.softplus_mlp(*params), w_mlp)), params) == []

    def test_shape_and_index_errors(self):
        table, w3 = Tensor(np.zeros((4, 2))), np.ones(3)
        with pytest.raises(ShapeMismatch):
            ad.scaled_gather(table, np.array([0, 1]), w3)
        with pytest.raises(ShapeMismatch):
            ad.scaled_gather(Tensor(np.zeros(4)), np.array([0, 1, 2]), w3)
        with pytest.raises(IndexOutOfRange):
            ad.scaled_gather(table, np.array([0, 4, 1]), w3)
        with pytest.raises(IndexOutOfRange):
            ad.scaled_gather(table, np.array([0, -1, 1]), w3)

        h = Tensor(np.zeros((3, 2)))
        with pytest.raises(ShapeMismatch):
            ad.scaled_segment_sum(h, np.ones(2), np.array([0, 0, 1]), 2)
        with pytest.raises(ShapeMismatch):
            ad.scaled_segment_sum(h, w3, np.array([0, 1]), 2)
        with pytest.raises(IndexOutOfRange):
            ad.scaled_segment_sum(h, w3, np.array([0, 2, 1]), 2)
        with pytest.raises(IndexOutOfRange):
            ad.scaled_segment_sum(h, w3, np.array([0, -1, 1]), 2)

        x, w1, b1, w2, b2 = (Tensor(a) for a in mlp_arrays(np.random.default_rng(51), 5, 3, 4, 2))
        with pytest.raises(ShapeMismatch):
            ad.softplus_mlp(Tensor(np.zeros(3)), w1, b1, w2, b2)
        with pytest.raises(ShapeMismatch):
            ad.softplus_mlp(x, w2, b1, w2, b2)
        with pytest.raises(ShapeMismatch):
            ad.softplus_mlp(x, w1, b2, w2, b2)
        with pytest.raises(ShapeMismatch):
            ad.softplus_mlp(x, w1, b1, w2, b1)
        with pytest.raises(ShapeMismatch):
            ad.softplus_mlp(x, w1, b1, Tensor(np.zeros((3, 2))), b2)
