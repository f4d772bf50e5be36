"""Tests for the functional ops: im2col, conv2d, pooling, softmax, losses."""

import tracemalloc

import numpy as np
import pytest

from repro.backend import BlockedBackend, get_backend
from repro.nn import functional as F
from repro.nn.tensor import Tensor
from repro.utils import perf


def naive_conv2d(x, w, b, stride, padding):
    """Reference convolution computed with explicit loops."""
    n, c_in, h, w_in = x.shape
    c_out, _, kh, kw = w.shape
    sh, sw = stride
    ph, pw = padding
    padded = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    out_h = (h + 2 * ph - kh) // sh + 1
    out_w = (w_in + 2 * pw - kw) // sw + 1
    out = np.zeros((n, c_out, out_h, out_w))
    for sample in range(n):
        for channel in range(c_out):
            for i in range(out_h):
                for j in range(out_w):
                    patch = padded[sample, :, i * sh:i * sh + kh, j * sw:j * sw + kw]
                    out[sample, channel, i, j] = (patch * w[channel]).sum()
            if b is not None:
                out[sample, channel] += b[channel]
    return out


def loop_patches(x, kernel, stride, padding):
    """Reference gather: ``(N, oh, ow, kh, kw, C)`` patches, one copy per kernel offset."""
    n, c, h, w = x.shape
    kh, kw = kernel
    sh, sw = stride
    ph, pw = padding
    padded = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    out_h = F.conv_output_size(h, kh, sh, ph)
    out_w = F.conv_output_size(w, kw, sw, pw)
    out = np.empty((n, out_h, out_w, kh, kw, c), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            window = padded[:, :, i:i + sh * out_h:sh, j:j + sw * out_w:sw]
            out[:, :, :, i, j, :] = window.transpose(0, 2, 3, 1)
    return out


def loop_conv2d(x, w, b, grad, stride, padding):
    """Reference conv on :func:`loop_patches`, with ``conv2d``'s GEMMs and fold.

    Returns the output and the input, weight and bias gradients for the
    upstream gradient ``grad``.
    """
    backend = get_backend()
    n, c_in, h, w_in = x.shape
    c_out, _, kh, kw = w.shape
    sh, sw = stride
    ph, pw = padding
    patches = loop_patches(x, (kh, kw), stride, padding)
    _, out_h, out_w = patches.shape[:3]
    cols = patches.reshape(n * out_h * out_w, -1)
    weight_matrix = np.ascontiguousarray(w.transpose(0, 2, 3, 1)).reshape(c_out, -1)
    out = backend.gemm(cols, weight_matrix.T, bias=b)
    out = out.reshape(n, out_h, out_w, c_out).transpose(0, 3, 1, 2)
    grad_matrix = np.ascontiguousarray(grad.transpose(0, 2, 3, 1)).reshape(-1, c_out)
    grad_w = backend.gemm(grad_matrix.T, cols).reshape(c_out, kh, kw, c_in).transpose(0, 3, 1, 2)
    grad_patches = backend.gemm(grad_matrix, weight_matrix).reshape(patches.shape)
    grad_padded = np.zeros((n, h + 2 * ph, w_in + 2 * pw, c_in), dtype=grad.dtype)
    for i in range(kh):
        for j in range(kw):
            grad_padded[:, i:i + sh * out_h:sh, j:j + sw * out_w:sw] += grad_patches[:, :, :, i, j]
    grad_x = grad_padded[:, ph:ph + h, pw:pw + w_in].transpose(0, 3, 1, 2)
    return out, grad_x, grad_w, grad.sum(axis=(0, 2, 3))


def make_images(rng, shape, layout):
    """Random NCHW images, NCHW-contiguous or channels-last in memory."""
    n, c, h, w = shape
    if layout == "channels_last":
        return rng.standard_normal((n, h, w, c)).transpose(0, 3, 1, 2)
    return rng.standard_normal(shape)


#: (kernel, stride, padding) pairs: the square grid plus per-axis mixes.
GATHER_GEOMETRIES = [
    *(((kernel, kernel), (stride, stride), (padding, padding))
      for stride in (1, 2)
      for padding in (0, 1, 2)
      for kernel in (1, 2, 3)),
    ((3, 2), (1, 2), (2, 0)),
    ((1, 3), (2, 1), (0, 1)),
    ((2, 3), (2, 1), (1, 2)),
]
GATHER_CASES = [
    (*geometry, layout) for geometry in GATHER_GEOMETRIES
    for layout in ("nchw", "channels_last")
]
#: Odd and even spatial sizes, each with 1, 3 and 16 channels.
GATHER_SHAPES = [(2, c, h, w) for c in (1, 3, 16) for h, w in ((5, 7), (6, 8))]
#: The paper's conv geometry: kernel 3, stride 1, padding 1.
PAPER_GEOMETRY = ((3, 3), (1, 1), (1, 1))
#: Enough output rows (N*oh*ow) for the blocked backend to tile every GEMM.
TILED_SHAPE = (16, 8, 32, 32)


class TestGather:
    @pytest.mark.parametrize("kernel,stride,padding,layout", GATHER_CASES)
    def test_gathers_match_per_offset_loop(self, rng, kernel, stride, padding, layout):
        for shape in GATHER_SHAPES:
            x = make_images(rng, shape, layout)
            expected = loop_patches(x, kernel, stride, padding)
            patches = F._gather_conv_patches(x, np.empty_like(expected), stride, padding)
            assert np.array_equal(patches, expected)
            cols = F.im2col(x, kernel, stride, padding)
            assert np.array_equal(cols, expected.transpose(0, 5, 3, 4, 1, 2))

    @pytest.mark.parametrize("grad_on", [True, False])
    @pytest.mark.parametrize("kernel,stride,padding,layout", GATHER_CASES)
    def test_conv2d_bitwise_matches_loop_reference(self, rng, kernel, stride, padding,
                                                   layout, grad_on):
        shapes = list(GATHER_SHAPES)
        if (kernel, stride, padding) == PAPER_GEOMETRY:
            n, _, h, w = TILED_SHAPE
            assert n * h * w >= 2 * BlockedBackend().block_rows
            shapes.append(TILED_SHAPE)
        for shape in shapes:
            x = make_images(rng, shape, layout)
            w = rng.standard_normal((4, shape[1], *kernel))
            b = rng.standard_normal(4)
            tx, tw, tb = (Tensor(a, requires_grad=grad_on) for a in (x, w, b))
            out = F.conv2d(tx, tw, tb, stride=stride, padding=padding)
            grad = rng.standard_normal(out.shape)
            expected = loop_conv2d(x, w, b, grad, stride, padding)
            assert np.array_equal(out.data, expected[0])
            if grad_on:
                out.backward(grad)
                for actual, reference in zip((tx.grad, tw.grad, tb.grad), expected[1:]):
                    assert np.array_equal(actual, reference)

    @pytest.mark.parametrize("grad_on", [True, False])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_conv2d_caches_no_pad_buffer(self, rng, stride, grad_on):
        x = Tensor(rng.standard_normal((2, 8, 16, 16)), requires_grad=grad_on)
        w = Tensor(rng.standard_normal((4, 8, 3, 3)), requires_grad=grad_on)
        out = F.conv2d(x, w, stride=stride, padding=1)
        assert not [key for key in perf.workspaces._buffers if key[0].startswith("conv2d.pad")]
        if not grad_on:
            return
        grad = np.ones_like(out.data)
        perf.workspaces.clear()
        tracemalloc.start()
        try:
            out.backward(grad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not [key for key in perf.workspaces._buffers
                    if key[0].startswith("conv2d.grad_cols")]
        if stride == 1:
            # Overlapping windows: the (N*oh*ow, kh*kw*C) patch-gradient
            # matrix is 9x the input, so staying below it means the input
            # gradient was never built through it.  (At stride 2 it is
            # barely larger than the padded image itself.)
            n, _, oh, ow = out.shape
            assert peak < n * oh * ow * w.data[0].size * grad.itemsize

    @pytest.mark.parametrize("stride", [1, 2])
    def test_padded_max_pool_training_matches_window_max(self, rng, stride, gradcheck):
        x = rng.standard_normal((2, 3, 5, 6))
        expected = loop_patches(x, (3, 3), (stride, stride), (1, 1)).max(axis=(3, 4))
        tx = Tensor(x, requires_grad=True)
        out = F.max_pool2d(tx, 3, stride=stride, padding=1)
        assert np.array_equal(out.data, expected.transpose(0, 3, 1, 2))
        out.sum().backward()

        def loss():
            return float(loop_patches(x, (3, 3), (stride, stride), (1, 1)).max(axis=(3, 4)).sum())

        np.testing.assert_allclose(tx.grad, gradcheck(loss, x), atol=1e-5)


class TestIm2Col:
    def test_shapes(self, rng):
        images = rng.standard_normal((2, 3, 8, 8))
        cols = F.im2col(images, (3, 3), (1, 1), (1, 1))
        assert cols.shape == (2, 3, 3, 3, 8, 8)

    def test_col2im_is_adjoint_of_im2col(self, rng):
        """<im2col(x), y> == <x, col2im(y)> for random x, y (adjoint property)."""
        images = rng.standard_normal((2, 2, 6, 6))
        cols_shape = F.im2col(images, (3, 3), (2, 2), (1, 1)).shape
        other = rng.standard_normal(cols_shape)
        lhs = float((F.im2col(images, (3, 3), (2, 2), (1, 1)) * other).sum())
        rhs = float((images * F.col2im(other, images.shape, (3, 3), (2, 2), (1, 1))).sum())
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_stride_no_padding_output_size(self):
        assert F.conv_output_size(8, 3, 1, 0) == 6
        assert F.conv_output_size(8, 2, 2, 0) == 4
        assert F.conv_output_size(8, 3, 1, 1) == 8


class TestConv2D:
    @pytest.mark.parametrize("stride,padding", [((1, 1), (0, 0)), ((1, 1), (1, 1)), ((2, 2), (1, 1))])
    def test_matches_naive_reference(self, rng, stride, padding):
        x = rng.standard_normal((2, 3, 7, 7))
        w = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal(4)
        out = F.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=padding)
        np.testing.assert_allclose(out.data, naive_conv2d(x, w, b, stride, padding), atol=1e-10)

    def test_channel_mismatch_raises(self, rng):
        x = Tensor(rng.standard_normal((1, 3, 5, 5)))
        w = Tensor(rng.standard_normal((2, 4, 3, 3)))
        with pytest.raises(ValueError, match="channel"):
            F.conv2d(x, w)

    def test_gradients_match_numeric(self, rng, gradcheck):
        x = rng.standard_normal((2, 2, 5, 5))
        w = rng.standard_normal((3, 2, 3, 3))
        b = rng.standard_normal(3)

        def loss():
            return float(naive_conv2d(x, w, b, (1, 1), (1, 1)).sum())

        tx = Tensor(x, requires_grad=True)
        tw = Tensor(w, requires_grad=True)
        tb = Tensor(b, requires_grad=True)
        F.conv2d(tx, tw, tb, stride=1, padding=1).sum().backward()
        np.testing.assert_allclose(tx.grad, gradcheck(loss, x), atol=1e-5)
        np.testing.assert_allclose(tw.grad, gradcheck(loss, w), atol=1e-5)
        np.testing.assert_allclose(tb.grad, gradcheck(loss, b), atol=1e-5)

    def test_no_bias(self, rng):
        x = rng.standard_normal((1, 2, 4, 4))
        w = rng.standard_normal((2, 2, 3, 3))
        out = F.conv2d(Tensor(x), Tensor(w), None, padding=1)
        np.testing.assert_allclose(out.data, naive_conv2d(x, w, None, (1, 1), (1, 1)), atol=1e-10)

    def test_no_graph_without_requires_grad(self, rng):
        out = F.conv2d(Tensor(rng.standard_normal((1, 1, 4, 4))),
                       Tensor(rng.standard_normal((1, 1, 3, 3))))
        assert not out.requires_grad


class TestPooling:
    def test_max_pool_forward(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = F.max_pool2d(Tensor(x), 2)
        np.testing.assert_allclose(out.data, [[[[5.0, 7.0], [13.0, 15.0]]]])

    def test_max_pool_backward_routes_to_argmax(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4), requires_grad=True)
        F.max_pool2d(x, 2).sum().backward()
        expected = np.zeros((1, 1, 4, 4))
        expected[0, 0, [1, 1, 3, 3], [1, 3, 1, 3]] = 1.0
        np.testing.assert_allclose(x.grad, expected)

    def test_max_pool_gradient_numeric(self, rng, gradcheck):
        x = rng.standard_normal((2, 2, 6, 6))

        def loss():
            cols = F.im2col(x, (2, 2), (2, 2), (0, 0))
            return float(cols.max(axis=(2, 3)).sum())

        tx = Tensor(x, requires_grad=True)
        F.max_pool2d(tx, 2).sum().backward()
        np.testing.assert_allclose(tx.grad, gradcheck(loss, x), atol=1e-5)

    def test_avg_pool_forward_and_backward(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4), requires_grad=True)
        out = F.avg_pool2d(x, 2)
        np.testing.assert_allclose(out.data, [[[[2.5, 4.5], [10.5, 12.5]]]])
        out.sum().backward()
        np.testing.assert_allclose(x.grad, np.full((1, 1, 4, 4), 0.25))

    def test_pool_halves_spatial_size(self, rng):
        out = F.max_pool2d(Tensor(rng.standard_normal((3, 4, 8, 8))), 2)
        assert out.shape == (3, 4, 4, 4)


class TestSoftmaxAndLosses:
    def test_softmax_rows_sum_to_one(self, rng):
        logits = Tensor(rng.standard_normal((5, 7)))
        probabilities = F.softmax(logits).data
        np.testing.assert_allclose(probabilities.sum(axis=1), np.ones(5), atol=1e-12)
        assert (probabilities >= 0).all()

    def test_softmax_shift_invariance(self, rng):
        logits = rng.standard_normal((3, 4))
        a = F.softmax(Tensor(logits)).data
        b = F.softmax(Tensor(logits + 100.0)).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_log_softmax_matches_log_of_softmax(self, rng):
        logits = Tensor(rng.standard_normal((4, 6)))
        np.testing.assert_allclose(
            F.log_softmax(logits).data, np.log(F.softmax(logits).data), atol=1e-10
        )

    def test_one_hot(self):
        encoded = F.one_hot(np.array([0, 2, 1]), 3)
        np.testing.assert_allclose(encoded, [[1, 0, 0], [0, 0, 1], [0, 1, 0]])

    def test_one_hot_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            F.one_hot(np.array([0, 5]), 3)

    def test_cross_entropy_uniform_logits(self):
        logits = Tensor(np.zeros((2, 4)))
        loss = F.cross_entropy(logits, np.array([1, 2]))
        assert loss.item() == pytest.approx(np.log(4.0))

    def test_cross_entropy_perfect_prediction_near_zero(self):
        logits = np.full((1, 3), -100.0)
        logits[0, 1] = 100.0
        loss = F.cross_entropy(Tensor(logits), np.array([1]))
        assert loss.item() == pytest.approx(0.0, abs=1e-8)

    def test_cross_entropy_gradient_is_softmax_minus_onehot(self, rng):
        logits_data = rng.standard_normal((3, 5))
        labels = np.array([0, 2, 4])
        logits = Tensor(logits_data, requires_grad=True)
        F.cross_entropy(logits, labels, reduction="sum").backward()
        expected = F.softmax(Tensor(logits_data)).data - F.one_hot(labels, 5)
        np.testing.assert_allclose(logits.grad, expected, atol=1e-10)

    def test_nll_loss_reductions(self, rng):
        log_probs = F.log_softmax(Tensor(rng.standard_normal((4, 3))))
        labels = np.array([0, 1, 2, 1])
        none = F.nll_loss(log_probs, labels, reduction="none")
        assert none.shape == (4,)
        assert F.nll_loss(log_probs, labels, reduction="sum").item() == pytest.approx(
            none.data.sum()
        )
        assert F.nll_loss(log_probs, labels, reduction="mean").item() == pytest.approx(
            none.data.mean()
        )

    def test_mse_loss(self):
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        b = Tensor(np.array([0.0, 0.0]))
        loss = F.mse_loss(a, b)
        assert loss.item() == pytest.approx(2.5)
        loss.backward()
        np.testing.assert_allclose(a.grad, [1.0, 2.0])

    def test_unknown_reduction_raises(self):
        with pytest.raises(ValueError, match="reduction"):
            F.mse_loss(Tensor([1.0]), Tensor([1.0]), reduction="bogus")

    def test_cross_entropy_loss_decreases_under_gradient_step(self, rng):
        """One manual gradient step on the logits must reduce the loss."""
        logits_data = rng.standard_normal((8, 5))
        labels = rng.integers(0, 5, 8)
        logits = Tensor(logits_data, requires_grad=True)
        loss_before = F.cross_entropy(logits, labels)
        loss_before.backward()
        stepped = Tensor(logits_data - 0.5 * logits.grad)
        loss_after = F.cross_entropy(stepped, labels)
        assert loss_after.item() < loss_before.item()
