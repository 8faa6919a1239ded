import warnings

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from tmlnet import layers, tml
from tmlnet.gradcheck import DEFAULT_STEP, _central_diff, _rel_err
from tmlnet.layers import (
    conv2d_backward,
    conv2d_forward,
    dropout_backward,
    dropout_forward,
    fc_backward,
    fc_forward,
    gap_backward,
    gap_forward,
    maxpool_backward,
    maxpool_forward,
    relu_backward,
    relu_forward,
    sigmoid_backward,
    sigmoid_forward,
    softmax_xent,
)


def einsum_conv(x, w, b):
    """Window-einsum forward and backward, the reference for the conv kernels."""
    kh, kw = w.shape[0], w.shape[1]
    win = sliding_window_view(x, (kh, kw), axis=(1, 2))
    y = np.einsum("bijkpq,pqkf->bijf", win, w, optimize=True) + b

    def backward(d_y):
        d_w = np.einsum("bijkpq,bijf->pqkf", win, d_y, optimize=True)
        # full correlation of d_y with the flipped kernel
        pad = np.pad(d_y, ((0, 0), (kh - 1, kh - 1), (kw - 1, kw - 1), (0, 0)))
        win_d = sliding_window_view(pad, (kh, kw), axis=(1, 2))
        d_x = np.einsum("bijfpq,pqkf->bijk", win_d, w[::-1, ::-1], optimize=True)
        return d_x, d_w, d_y.sum(axis=(0, 1, 2))

    return y, backward


def channel_major(a):
    """a's values with each channel's (B, H, W) plane one contiguous run, as
    the conv, TML, ReLU and pooling layers hand them on."""
    return np.ascontiguousarray(a.transpose(3, 0, 1, 2)).transpose(1, 2, 3, 0)


def is_channel_major(a):
    return a.transpose(3, 0, 1, 2).flags.c_contiguous


LAYOUTS = {"nhwc": np.ascontiguousarray, "channel_major": channel_major}


# (B, H, W, Cin, kh, kw, Cout): kh != kw, several channels, non-square inputs,
# the 5x5 single-channel and 3x3 eight-channel kernels of the shipped nets,
# outputs of one row (H'=1), one column (W'=1) and one image, where the input
# gradient's per-cell adds reach the last row, column and image, and cooc's
# 1x1 sixteen-channel bank
CONV_SHAPES = [
    (2, 9, 7, 3, 3, 2, 4),
    (3, 6, 11, 2, 2, 5, 3),
    (1, 4, 5, 1, 1, 1, 2),
    (3, 12, 10, 1, 5, 5, 6),
    (2, 8, 9, 8, 3, 3, 16),
    (3, 3, 8, 2, 3, 2, 3),
    (2, 7, 4, 3, 2, 4, 2),
    (1, 7, 6, 2, 3, 3, 4),
    (2, 5, 4, 16, 1, 1, 8),
]


def cell_sum_grad_input(w, d_y, x_shape):
    """The input gradient as a sum over kernel cells started from +0.0: each
    cell's product with d_y's zero-padded planes added into zeros at flat
    offset p*W + q, so a -0.0 product reads +0.0."""
    b, h, w_, c_in = x_shape
    kh, kw, _, c_out = w.shape
    planes = np.zeros((c_out, b, h, w_))
    planes[:, :, : d_y.shape[1], : d_y.shape[2]] = d_y.transpose(3, 0, 1, 2)
    planes = planes.reshape(c_out, -1)
    n = planes.shape[1]
    d_x = np.zeros((c_in, n))
    for p in range(kh):
        for q in range(kw):
            off = p * w_ + q
            d_x[:, off:] += (w[p, q] @ planes)[:, : n - off]
    return d_x.reshape(c_in, b, h, w_).transpose(1, 2, 3, 0)


class TestConv:
    def test_identity_kernel(self):
        x = np.arange(16.0).reshape(1, 4, 4, 1)
        w = np.ones((1, 1, 1, 1))
        b = np.zeros(1)
        np.testing.assert_array_equal(conv2d_forward(x, w, b), x)

    def test_known_sum(self):
        x = np.ones((1, 3, 3, 1))
        w = np.ones((2, 2, 1, 1))
        y = conv2d_forward(x, w, np.array([1.0]))
        assert y.shape == (1, 2, 2, 1)
        assert np.all(y == 5.0)  # 4 ones + bias

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 5, 4, 2))
        w = rng.normal(size=(3, 2, 2, 3))
        b = rng.normal(size=3)
        r = rng.normal(size=(2, 3, 3, 3))
        loss = lambda: float((r * conv2d_forward(x, w, b)).sum())
        d_x, d_w, d_b = conv2d_backward(x, w, r)
        assert _rel_err(d_x, _central_diff(loss, x, DEFAULT_STEP)) < 1e-5
        assert _rel_err(d_w, _central_diff(loss, w, DEFAULT_STEP)) < 1e-5
        assert _rel_err(d_b, _central_diff(loss, b, DEFAULT_STEP)) < 1e-5

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("shape", CONV_SHAPES)
    def test_window_matrix_rows_are_kernel_cells(self, shape, layout):
        # row (p, q, k), column (b, i, j) holds x[b, i+p, j+q, k]
        bsz, h, w_, cin, kh, kw, _ = shape
        x = LAYOUTS[layout](np.random.default_rng(sum(shape)).normal(size=(bsz, h, w_, cin)))
        oh, ow = h - kh + 1, w_ - kw + 1
        cols = layers._cols(layers._windows(x, kh, kw))
        assert cols.shape == (kh * kw * cin, bsz * oh * ow)
        cells = cols.reshape(kh, kw, cin, bsz, oh, ow)
        for p, q, k, b in np.ndindex(kh, kw, cin, bsz):
            np.testing.assert_array_equal(cells[p, q, k, b], x[b, p : p + oh, q : q + ow, k])

    @pytest.mark.parametrize("shape", CONV_SHAPES)
    def test_matches_einsum_reference(self, shape):
        bsz, h, w_, cin, kh, kw, cout = shape
        rng = np.random.default_rng(sum(shape))
        x = rng.normal(size=(bsz, h, w_, cin))
        w = rng.normal(size=(kh, kw, cin, cout))
        b = rng.normal(size=cout)
        ref_y, ref_backward = einsum_conv(x, w, b)
        d_y = rng.normal(size=ref_y.shape)
        ref_grads = ref_backward(d_y)
        for layout in LAYOUTS.values():
            np.testing.assert_array_equal(conv2d_forward(layout(x), w, b), ref_y)
            for got, ref in zip(conv2d_backward(layout(x), w, layout(d_y)), ref_grads):
                assert got.shape == ref.shape
                assert _rel_err(got, ref) < 1e-12

    @pytest.mark.parametrize("shape", CONV_SHAPES)
    def test_window_matrix_of_strided_batches_matches_sliding_windows(self, shape):
        # the window view is built from x's own strides, so batches that are
        # views (every other image, channel-major planes, a slice of those)
        # give the matrix the transposed sliding windows give, bit for bit
        bsz, h, w_, cin, kh, kw, _ = shape
        x = np.random.default_rng(sum(shape)).normal(size=(2 * bsz + 1, h, w_, cin))
        for xb in (x[::2], channel_major(x), channel_major(x)[1 : bsz + 1]):
            win = sliding_window_view(xb.transpose(3, 0, 1, 2), (kh, kw), axis=(2, 3))
            ref = win.transpose(4, 5, 0, 1, 2, 3).reshape(kh * kw * cin, -1)
            got = layers._cols(layers._windows(xb, kh, kw))
            np.testing.assert_array_equal(got.view(np.int64), ref.view(np.int64))

    @staticmethod
    def _count_blocks(monkeypatch, images_per_block):
        """Sets `_BLOCK_BYTES` to room for `images_per_block` images of a
        (3, 2, 2, 4) kernel over 6x7 inputs, and records each block's image
        count and each window view built. An image takes 3*2*2 window rows and
        4 output rows, of 4*6 float64s each; a budget counting window rows
        alone would fit more."""
        monkeypatch.setattr(layers, "_BLOCK_BYTES", images_per_block * 8 * 24 * (12 + 4) + 8)
        cols, strided, blocks, views = layers._cols, layers.as_strided, [], []

        def counting_cols(win):
            blocks.append(win.shape[3])
            return cols(win)

        def counting_strided(x, *args, **kwargs):
            views.append(len(x))
            return strided(x, *args, **kwargs)

        monkeypatch.setattr(layers, "_cols", counting_cols)
        monkeypatch.setattr(layers, "as_strided", counting_strided)
        return blocks, views

    def test_blocked_forward_matches_einsum_reference(self, monkeypatch):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(5, 6, 7, 2))
        w = rng.normal(size=(3, 2, 2, 4))
        b = rng.normal(size=4)
        blocks, views = self._count_blocks(monkeypatch, 3)
        np.testing.assert_array_equal(conv2d_forward(x, w, b), einsum_conv(x, w, b)[0])
        assert blocks == [3, 2]
        assert views == [5]  # one window view of the whole batch, sliced per block

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_blocked_weight_gradient_matches_einsum_reference(self, monkeypatch, layout):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(7, 6, 7, 2))
        w = rng.normal(size=(3, 2, 2, 4))
        y, backward = einsum_conv(x, w, np.zeros(4))
        d_y = rng.normal(size=y.shape)
        blocks, views = self._count_blocks(monkeypatch, 3)
        d_w = layers.correlate_grad_weights(LAYOUTS[layout](x), LAYOUTS[layout](d_y), 3, 2)
        assert blocks == [3, 3, 1]
        assert views == [7]
        assert _rel_err(d_w, backward(d_y)[1]) < 1e-12

    @pytest.mark.parametrize("shape", CONV_SHAPES)
    def test_output_is_channel_major(self, shape):
        # each channel's (B, H', W') plane is one contiguous run: relu, maxpool
        # and gap then stream whole planes, and gap's per-channel means sum in
        # the order that keeps the logits' bits
        bsz, h, w_, cin, kh, kw, cout = shape
        rng = np.random.default_rng(sum(shape))
        x = rng.normal(size=(bsz, h, w_, cin))
        y = conv2d_forward(x, rng.normal(size=(kh, kw, cin, cout)), rng.normal(size=cout))
        assert is_channel_major(y)

    @pytest.mark.parametrize("shape", CONV_SHAPES)
    def test_input_gradient_is_channel_major(self, shape):
        # so the ReLU and pooling backwards below it read and write one layout
        bsz, h, w_, cin, kh, kw, cout = shape
        rng = np.random.default_rng(sum(shape))
        w = rng.normal(size=(kh, kw, cin, cout))
        for layout in LAYOUTS.values():
            d_y = layout(rng.normal(size=(bsz, h - kh + 1, w_ - kw + 1, cout)))
            d_x = layers.correlate_grad_input(w, d_y, (bsz, h, w_, cin))
            assert d_x.shape == (bsz, h, w_, cin) and is_channel_major(d_x)

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("b,h,w_,c_in,c_out", [(3, 5, 4, 16, 8), (2, 1, 6, 16, 19)])
    def test_one_by_one_input_gradient_is_the_cell_sum_bytes(self, layout, b, h, w_, c_in, c_out):
        # cooc's 16 -> 8 bank, and a shape whose GEMM on NHWC d_y read in
        # place differs in the last bits from the GEMM on its copied planes;
        # a 3x3 and a 2x1 kernel take the same one path, and their d_y is the
        # (b, h, w_) output
        for kh, kw in [(1, 1), (3, 3), (2, 1)]:
            rng = np.random.default_rng(7)
            w = rng.normal(size=(kh, kw, c_in, c_out))
            w[:, :, 3], w[:, :, 5] = -0.0, 0.0
            d_y = rng.normal(size=(b, h, w_, c_out))
            d_y[0, 0] = -0.0
            d_y = LAYOUTS[layout](d_y)
            x_shape = (b, h + kh - 1, w_ + kw - 1, c_in)
            got = layers.correlate_grad_input(w, d_y, x_shape)
            ref = cell_sum_grad_input(w, d_y, x_shape)
            assert is_channel_major(got) and not np.signbit(got[:, :, :, 3]).any()
            np.testing.assert_array_equal(got.view(np.int64), ref.view(np.int64))

    @pytest.mark.parametrize("shape", CONV_SHAPES)
    def test_weights_only_call_matches_full_call(self, shape):
        bsz, h, w_, cin, kh, kw, cout = shape
        rng = np.random.default_rng(sum(shape))
        w = rng.normal(size=(kh, kw, cin, cout))
        for layout in LAYOUTS.values():
            x = layout(rng.normal(size=(bsz, h, w_, cin)))
            d_y = layout(rng.normal(size=(bsz, h - kh + 1, w_ - kw + 1, cout)))
            _, d_w, d_b = conv2d_backward(x, w, d_y)
            no_dx, d_w_only, d_b_only = conv2d_backward(x, w, d_y, need_dx=False)
            assert no_dx is None
            np.testing.assert_array_equal(d_w_only, d_w)
            np.testing.assert_array_equal(d_b_only, d_b)

    def test_gradcheck_names_a_computed_dx(self, monkeypatch):
        from tmlnet import gradcheck

        conv_err, fc_err = gradcheck.check_conv_fc_gradients(0)
        assert conv_err < 1e-5 and fc_err < 1e-5

        def always_dx(x, w, d_y, need_dx=True):
            return conv2d_backward(x, w, d_y)

        # the conv Kind looks the kernel up in `layers` at call time
        monkeypatch.setattr(layers, "conv2d_backward", always_dx)
        with pytest.raises(AssertionError, match="need_dx=False"):
            gradcheck.check_conv_fc_gradients(0)


def argmax_maxpool(x):
    """Block-copy/argmax forward and backward, the reference for the pool kernels."""
    b, h, w, c = x.shape
    h2, w2 = h // 2, w // 2
    blocks = (
        x[:, : 2 * h2, : 2 * w2, :]
        .reshape(b, h2, 2, w2, 2, c)
        .transpose(0, 1, 3, 5, 2, 4)
        .reshape(b, h2, w2, c, 4)
    )
    idx = blocks.argmax(axis=-1)  # first max wins ties
    y = np.take_along_axis(blocks, idx[..., None], axis=-1)[..., 0]

    def backward(d_y):
        d_blocks = np.zeros((b, h2, w2, c, 4))
        np.put_along_axis(d_blocks, idx[..., None], d_y[..., None], axis=-1)
        d_x = np.zeros(x.shape)
        d_x[:, : 2 * h2, : 2 * w2, :] = (
            d_blocks.reshape(b, h2, w2, c, 2, 2)
            .transpose(0, 1, 4, 2, 5, 3)
            .reshape(b, 2 * h2, 2 * w2, c)
        )
        return d_x

    return y, backward


# (B, H, W, C): odd and even H and W, C in {1, 6, 16}
POOL_SHAPES = [(2, 5, 7, 1), (3, 8, 9, 6), (1, 11, 6, 16), (4, 2, 3, 6), (2, 7, 7, 16)]


def pool_backward(d_y, x):
    """maxpool_backward through the route a forward of x records."""
    return maxpool_backward(d_y, maxpool_forward(x, return_route=True)[1])


class TestMaxpool:
    def test_single_block(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 2, 2, 1)
        y = maxpool_forward(x)
        assert y.reshape(()) == 4.0

    def test_odd_trailing_dropped(self):
        x = np.arange(30.0).reshape(1, 5, 6, 1)
        y = maxpool_forward(x)
        assert y.shape == (1, 2, 3, 1)

    def test_backward_routes_to_argmax(self):
        x = np.array([[1.0, 4.0], [3.0, 2.0]]).reshape(1, 2, 2, 1)
        d_x = pool_backward(np.full((1, 1, 1, 1), 5.0), x)
        np.testing.assert_array_equal(d_x.reshape(2, 2), [[0.0, 5.0], [0.0, 0.0]])

    def test_tie_routes_once(self):
        # equal entries must receive the gradient exactly once in total
        x = np.full((1, 2, 2, 1), 7.0)
        d_x = pool_backward(np.ones((1, 1, 1, 1)), x)
        assert d_x.sum() == 1.0

    def test_route_is_a_byte_per_block(self):
        x = np.arange(4 * 5 * 7 * 3, dtype=np.float64).reshape(4, 5, 7, 3)
        y, route = maxpool_forward(x, return_route=True)
        assert route.code.dtype == np.uint8 and route.code.shape == y.shape == (4, 2, 3, 3)
        assert route.x_shape == x.shape
        # increasing values: every block's max is its last position
        np.testing.assert_array_equal(route.code, 3)
        assert y.tobytes() == maxpool_forward(x).tobytes()

    @pytest.mark.parametrize("shape", POOL_SHAPES)
    def test_matches_argmax_reference_bytes(self, shape):
        # small integers tie often; the ReLU turns every negative into a 0.0
        # block member, and whole all-zero blocks occur
        rng = np.random.default_rng(sum(shape))
        x = relu_forward(rng.integers(-3, 3, size=shape).astype(np.float64))
        x[0, :2, :2] = 0.0  # an all-zero block in every channel
        ref_y, ref_backward = argmax_maxpool(x)
        d_y = rng.normal(size=ref_y.shape)  # negative entries too: no -0.0 may leak
        ref_d_x = ref_backward(d_y)
        for layout in LAYOUTS.values():
            x_l = layout(x)
            y, route = maxpool_forward(x_l, return_route=True)
            assert y.shape == ref_y.shape and y.tobytes() == ref_y.tobytes()
            d_x = maxpool_backward(layout(d_y), route)
            assert d_x.shape == x.shape and d_x.tobytes() == ref_d_x.tobytes()
            # d_x has x's layout, so the ReLU backward below reads one layout
            assert is_channel_major(d_x) == is_channel_major(x_l)
            assert d_x.flags.c_contiguous == x_l.flags.c_contiguous

    def test_nan_block_gets_no_gradient(self):
        x = np.array([[1.0, np.nan], [3.0, 2.0]]).reshape(1, 2, 2, 1)
        y, route = maxpool_forward(x, return_route=True)
        assert np.isnan(y).all() and route.code.reshape(()) == 4
        np.testing.assert_array_equal(maxpool_backward(np.ones_like(y), route), 0.0)

    @pytest.mark.parametrize("signs", [(0.0, -0.0), (-0.0, 0.0)])
    def test_signed_zero_max_routes_to_its_first_zero(self, signs):
        # 0.0 == -0.0: the first zero gets the gradient, whichever sign it has
        x = np.array([[-1.0, signs[0]], [signs[1], -2.0]]).reshape(1, 2, 2, 1)
        y, route = maxpool_forward(x, return_route=True)
        assert y.reshape(()) == 0.0 and route.code.reshape(()) == 1
        d_x = maxpool_backward(np.full((1, 1, 1, 1), -3.0), route)
        assert d_x.tobytes() == np.array([0.0, -3.0, 0.0, 0.0]).tobytes()


class TestActivations:
    def test_relu_values(self):
        np.testing.assert_array_equal(relu_forward(np.array([-3.0, 2.0])), [0.0, 2.0])

    def test_relu_backward(self):
        x = np.array([-1.0, 0.0, 2.0])
        np.testing.assert_array_equal(relu_backward(np.ones(3), x), [0.0, 0.0, 1.0])

    def test_relu_backward_from_output_matches_input(self):
        x = np.array([-2.0, -0.0, 0.0, 1e-300, 3.0, np.nan, -np.inf, np.inf])
        d_y = np.arange(1.0, 9.0)
        y = relu_forward(x)
        assert not np.signbit(y[1])
        assert relu_backward(d_y, y).tobytes() == relu_backward(d_y, x).tobytes()

    def test_sigmoid_range_and_symmetry(self):
        x = np.array([-800.0, -1.0, 0.0, 1.0, 800.0])
        y = sigmoid_forward(x)
        assert np.all((y >= 0) & (y <= 1))
        assert y[2] == 0.5
        np.testing.assert_allclose(y + sigmoid_forward(-x), 1.0, atol=1e-15)

    def test_sigmoid_matches_the_two_branch_formula_bit_for_bit(self):
        def two_branch(x):
            out = np.empty_like(x)
            pos = x >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
            ex = np.exp(x[~pos])
            out[~pos] = ex / (1.0 + ex)
            return out

        nans = np.array([np.nan, -np.nan])
        assert np.signbit(nans).tolist() == [False, True]
        edges = np.array([0.0, -0.0, 745.0, -745.0, 1e3, -1e3, np.inf, -np.inf, *nans])
        x = np.concatenate([edges, np.random.default_rng(2).normal(scale=20.0, size=224)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow or invalid warning leaks out
            y = sigmoid_forward(x)
        assert y.tobytes() == two_branch(x).tobytes()
        np.testing.assert_array_equal(y[:10], [0.5, 0.5, 1.0, 5e-324, 1.0, 0.0, 1.0, 0.0,
                                               np.nan, np.nan])
        assert np.signbit(y[8:10]).tolist() == [False, True]  # a NaN keeps its sign

    def test_sigmoid_gradient(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=7)
        r = rng.normal(size=7)
        y = sigmoid_forward(x)
        analytic = sigmoid_backward(r, y)
        numeric = _central_diff(lambda: float((r * sigmoid_forward(x)).sum()), x, DEFAULT_STEP)
        assert _rel_err(analytic, numeric) < 1e-6


class TestFc:
    def test_forward_matches_matmul(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(3, 2, 2, 2))
        w = rng.normal(size=(8, 5))
        b = rng.normal(size=5)
        np.testing.assert_allclose(fc_forward(x, w, b), x.reshape(3, 8) @ w + b)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 6))
        w = rng.normal(size=(6, 4))
        b = rng.normal(size=4)
        r = rng.normal(size=(2, 4))
        loss = lambda: float((r * fc_forward(x, w, b)).sum())
        d_x, d_w, d_b = fc_backward(x, w, r)
        assert _rel_err(d_x, _central_diff(loss, x, DEFAULT_STEP)) < 1e-5
        assert _rel_err(d_w, _central_diff(loss, w, DEFAULT_STEP)) < 1e-5
        assert _rel_err(d_b, _central_diff(loss, b, DEFAULT_STEP)) < 1e-5


class TestDropout:
    def test_eval_mode_is_identity(self):
        x = np.random.default_rng(4).normal(size=(2, 3, 3, 1))
        y, mask = dropout_forward(x, 0.5, None, train=False)
        assert mask is None
        np.testing.assert_array_equal(y, x)

    def test_train_mode_scales_survivors(self):
        x = np.ones((1, 100, 100, 1))
        y, mask = dropout_forward(x, 0.25, np.random.default_rng(5), train=True)
        kept = y[mask]
        np.testing.assert_allclose(kept, 1.0 / 0.75)
        assert np.all(y[~mask] == 0.0)
        # survivor fraction is near 1 - rate
        assert abs(mask.mean() - 0.75) < 0.02

    def test_backward_uses_same_mask(self):
        x = np.ones((4, 4))
        y, mask = dropout_forward(x, 0.5, np.random.default_rng(6), train=True)
        d = dropout_backward(np.ones((4, 4)), mask, 0.5)
        np.testing.assert_array_equal(d != 0, mask)

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            dropout_forward(np.ones(3), 1.0, np.random.default_rng(0), train=True)

    def test_channel_major_input_keeps_its_layout(self):
        # a conv's output is a (B, H, W, C) view of (C, B, H, W) memory
        x = np.random.default_rng(7).normal(size=(3, 2, 5, 4)).transpose(1, 2, 3, 0)
        y, mask = dropout_forward(x, 0.5, np.random.default_rng(8), train=True)
        d_y = np.random.default_rng(9).normal(size=(3, 2, 5, 4)).transpose(1, 2, 3, 0)
        d_x = dropout_backward(d_y, mask, 0.5)
        for got, given in ((y, x), (d_x, d_y)):
            assert got.transpose(3, 0, 1, 2).flags.c_contiguous
            np.testing.assert_array_equal(got, given * mask / (1 - 0.5))


class TestGap:
    def test_constant_map(self):
        x = np.full((1, 3, 4, 2), 2.5)
        np.testing.assert_array_equal(gap_forward(x), [[2.5, 2.5]])

    def test_hand_mean(self):
        x = np.array([[1.0, 3.0], [5.0, 7.0]]).reshape(1, 2, 2, 1)
        assert gap_forward(x)[0, 0] == 4.0

    def test_backward_spreads_uniformly(self):
        d = gap_backward(np.array([[2.0]]), (1, 2, 2, 1))
        np.testing.assert_array_equal(d.reshape(2, 2), np.full((2, 2), 0.5))

    def test_backward_is_a_read_only_broadcast_view(self):
        # it allocates no maps; the TML's maps path multiplies it into y's
        # layout, channel-major like the maps, and a pooled bank reads one
        # position per image
        d_y = np.arange(6.0).reshape(2, 3)
        d = gap_backward(d_y, (2, 4, 5, 3))
        assert d.shape == (2, 4, 5, 3) and not d.flags.writeable
        assert d.strides[1:3] == (0, 0) and d.base is not None
        np.testing.assert_array_equal(d, np.broadcast_to(d_y[:, None, None, :] / 20, d.shape))
        y = channel_major(np.random.default_rng(0).uniform(size=d.shape))
        g = tml._log_grad(y, d)
        assert is_channel_major(g) and g.strides == y.strides
        np.testing.assert_array_equal(g, np.asarray(d) * np.asarray(y))


class TestSoftmaxXent:
    def test_uniform_logits_loss_is_log_c(self):
        for c in (2, 5, 10):
            t = np.zeros((1, c))
            t[0, 1] = 1.0
            losses, _ = softmax_xent(np.zeros((1, c)), t)
            assert losses[0] == pytest.approx(np.log(c))

    def test_peaked_logits_loss_vanishes(self):
        t = np.array([[0.0, 1.0, 0.0]])
        losses, _ = softmax_xent(np.array([[0.0, 50.0, 0.0]]), t)
        assert losses[0] < 1e-20

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        logits = rng.normal(size=(1, 5))
        t = np.zeros((1, 5))
        t[0, 2] = 1.0
        _, analytic = softmax_xent(logits, t)
        numeric = _central_diff(lambda: softmax_xent(logits, t)[0][0], logits, DEFAULT_STEP)
        assert _rel_err(analytic, numeric) < 1e-6

    def test_batched_matches_per_sample(self):
        rng = np.random.default_rng(8)
        logits = rng.normal(size=(3, 4))
        t = np.eye(4)[:3]
        losses, grads = softmax_xent(logits, t)
        for i in range(3):
            li, gi = softmax_xent(logits[i : i + 1], t[i : i + 1])
            assert losses[i] == pytest.approx(li[0])
            np.testing.assert_allclose(grads[i], gi[0])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            softmax_xent(np.array([[np.inf, 0.0]]), np.array([[1.0, 0.0]]))
