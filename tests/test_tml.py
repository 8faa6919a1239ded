import dataclasses

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from tmlnet import gradcheck, layers, network
from tmlnet.hlac import default_mask_set, masks_to_binary_kernels
from tmlnet.layers import gap_backward, gap_forward
from tmlnet.gradcheck import DEFAULT_STEP, _central_diff, _rel_err
from tmlnet.tml import (
    TmlConfig,
    TmlKernels,
    backward_input_batch,
    backward_weights_batch,
    clip_step,
    forward_batch,
    init_kernels,
    project_kernels,
    reinit_kernels,
    rescale_step,
)

# Exponents large enough to matter, small enough that exp() stays tame.
TINY_EPS = 1e-300  # numerically exact for inputs >= 0.1


def direct_product_forward(x, kernels):
    """Independent oracle: literal product of (x+eps)**w, no log transform."""
    eps = kernels.config.eps
    h, w, channels, num_kernels = kernels.weights.shape
    n1, n2, _ = x.shape
    out = np.empty((n1 - h + 1, n2 - w + 1, num_kernels))
    for i in range(out.shape[0]):
        for j in range(out.shape[1]):
            for m in range(num_kernels):
                prod = 1.0
                for p in range(h):
                    for q in range(w):
                        for k in range(channels):
                            prod *= (x[i + p, j + q, k] + eps) ** kernels.weights[p, q, k, m]
                out[i, j, m] = prod
    return out


def random_instance(rng, n1=4, n2=4, k=1, h=2, w=2, m=2, lo=0.1, hi=2.0, eps=1e-6):
    kernels = init_kernels(TmlConfig(c1=1.0, c2=0.5, eps=eps), (h, w, k, m), rng)
    x = rng.uniform(lo, hi, size=(n1, n2, k))
    return x, kernels


class TestConfig:
    def test_rejects_c2_above_c1(self):
        with pytest.raises(ValueError):
            TmlConfig(c1=0.5, c2=1.0)

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError):
            TmlConfig(eps=0.0)

    @pytest.mark.parametrize("eps", [np.nan, np.inf])
    def test_rejects_nonfinite_eps(self, eps):
        with pytest.raises(ValueError, match="eps must be positive and finite"):
            TmlConfig(eps=eps)

    def test_rejects_nonfinite_constraints(self):
        # inf / inf is NaN, which no ratio or order check catches
        with pytest.raises(ValueError, match="c1 and c2 must be positive and finite"):
            TmlConfig(c1=np.inf, c2=np.inf)


class TestForward:
    def test_zero_weights_give_ones(self):
        kernels = TmlKernels(TmlConfig(c1=1.0, c2=1.0), np.zeros((2, 2, 1, 3)))
        x = np.random.default_rng(0).uniform(0, 5, size=(4, 5, 1))
        y = forward_batch(x[None], kernels)[0]
        assert y.shape == (3, 4, 3)
        assert np.all(y == 1.0)

    def test_single_unit_weight_is_identity_shift(self):
        kernels = TmlKernels(TmlConfig(c1=1.0, c2=1.0, eps=1e-8), np.ones((1, 1, 1, 1)))
        x = np.random.default_rng(1).uniform(0, 2, size=(3, 3, 1))
        y = forward_batch(x[None], kernels)[0]
        np.testing.assert_allclose(y[:, :, 0], x[:, :, 0] + 1e-8, rtol=1e-12)

    def test_half_exponents_sqrt_product(self):
        # One 2x2 kernel [[0.5, 0.5], [0, 0]] over [[1,2],[3,4]] -> sqrt(1*2)
        w = np.zeros((2, 2, 1, 1))
        w[0, 0, 0, 0] = 0.5
        w[0, 1, 0, 0] = 0.5
        kernels = TmlKernels(TmlConfig(c1=1.0, c2=1.0, eps=TINY_EPS), w)
        x = np.array([[1.0, 2.0], [3.0, 4.0]])[:, :, None]
        y = forward_batch(x[None], kernels)[0]
        assert y.shape == (1, 1, 1)
        np.testing.assert_allclose(y[0, 0, 0], np.sqrt(2.0), rtol=1e-12)
        np.testing.assert_allclose(y, direct_product_forward(x, kernels), rtol=1e-12)

    def test_log_domain_matches_direct_product(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            x, kernels = random_instance(
                rng,
                n1=int(rng.integers(2, 6)),
                n2=int(rng.integers(2, 6)),
                k=int(rng.integers(1, 3)),
                h=2,
                w=2,
                m=3,
                lo=1e-6,
                hi=10.0,
            )
            y = forward_batch(x[None], kernels)[0]
            np.testing.assert_allclose(y, direct_product_forward(x, kernels), rtol=1e-10)

    def test_rejects_negative_input(self):
        x, kernels = random_instance(np.random.default_rng(2))
        x[1, 1, 0] = -0.5
        with pytest.raises(ValueError):
            forward_batch(x[None], kernels)[0]

    def test_rejects_nan_input(self):
        x, kernels = random_instance(np.random.default_rng(2))
        x[1, 1, 0] = np.nan
        with pytest.raises(ValueError):
            forward_batch(x[None], kernels)[0]

    def test_rejects_channel_mismatch(self):
        _, kernels = random_instance(np.random.default_rng(3))
        with pytest.raises(ValueError):
            forward_batch(np.ones((1, 4, 4, 2)), kernels)

    def test_rejects_undersized_input(self):
        _, kernels = random_instance(np.random.default_rng(4), h=3, w=3, n1=4, n2=4)
        with pytest.raises(ValueError):
            forward_batch(np.ones((1, 2, 2, 1)), kernels)

    def test_batched_matches_per_image(self):
        rng = np.random.default_rng(5)
        _, kernels = random_instance(rng)
        xb = rng.uniform(0.1, 2.0, size=(4, 5, 5, 1))
        yb = forward_batch(xb, kernels)
        for b in range(4):
            np.testing.assert_array_equal(yb[b], forward_batch(xb[b][None], kernels)[0])


def einsum_tml(xb, kernels):
    """Window-einsum log-domain forward and backward, the reference for the
    TML's use of the shared correlation kernels."""
    eps = kernels.config.eps
    kh, kw = kernels.weights.shape[:2]
    z = np.log(xb + eps)
    win = sliding_window_view(z, (kh, kw), axis=(1, 2))
    y = np.exp(np.einsum("bijkpq,pqkm->bijm", win, kernels.weights, optimize=True))

    def backward(d_y):
        g = d_y * y
        d_w = np.einsum("bijkpq,bijm->pqkm", win, g, optimize=True)
        d_x = np.zeros_like(xb)
        oh, ow = g.shape[1], g.shape[2]
        for p in range(kh):
            for q in range(kw):
                d_x[:, p : p + oh, q : q + ow, :] += np.einsum(
                    "bijm,km->bijk", g, kernels.weights[p, q], optimize=True
                )
        return d_w, d_x / (xb + eps)

    return y, backward


class TestMatchesEinsumReference:
    @pytest.mark.parametrize("h,w,k,m", [(3, 2, 3, 5), (1, 1, 16, 8), (2, 4, 1, 3)])
    def test_forward_and_gradients(self, h, w, k, m):
        rng = np.random.default_rng(h * 100 + w * 10 + k + m)
        kernels = init_kernels(TmlConfig(c1=1.0, c2=1.0), (h, w, k, m), rng)
        xb = rng.uniform(0.0, 2.0, size=(3, 7, 6, k))
        xb[xb < 0.3] = 0.0  # exact zeros, as after a ReLU
        ref_y, ref_backward = einsum_tml(xb, kernels)
        y, z = forward_batch(xb, kernels, return_cache=True)
        np.testing.assert_array_equal(y, ref_y)
        np.testing.assert_array_equal(forward_batch(xb, kernels), ref_y)
        np.testing.assert_array_equal(z, np.log(xb + kernels.config.eps))

        d_y = rng.normal(size=y.shape)
        ref_dw, ref_dx = ref_backward(d_y)
        d_w = backward_weights_batch(z, y, d_y, kernels)
        assert _rel_err(d_w, ref_dw) < 1e-12
        assert _rel_err(backward_input_batch(xb, y, d_y, kernels), ref_dx) < 1e-12


def pooled_instances():
    """(name, batch, bank) at the shapes the pooled step runs on: dhlac's
    trainable 3x3x1 bank of 8 kernels at 32 px, gradcheck's tiny branched
    net, and baseline+hlac's frozen 25-mask bank at 64 px."""
    rng = np.random.default_rng(21)
    dhlac = init_kernels(TmlConfig(), (3, 3, 1, 8), rng)
    tiny_layer = gradcheck.tiny_network().side_layers[0]
    tiny = init_kernels(tiny_layer.tml, (2, 2, 1, 2), rng)
    hlac = TmlKernels(TmlConfig(1.0, 1.0, network.HLAC_EPS),
                      masks_to_binary_kernels(default_mask_set(), 3, 3))
    return {
        "dhlac": (rng.uniform(size=(32, 32, 32, 1)), dhlac),
        "tiny": (rng.uniform(0.1, 2.0, size=(2, 6, 6, 1)), tiny),
        "hlac": (rng.uniform(size=(3, 64, 64, 1)), hlac),
    }


class TestPooledStep:
    """A bank and the GAP after it as one step: the means of the maps, and
    each image's product q in place of the maps and their log."""

    @pytest.mark.parametrize("name", ["dhlac", "hlac"])
    def test_means_are_gap_of_the_maps_bit_for_bit(self, name):
        xb, kernels = pooled_instances()[name]
        want = gap_forward(forward_batch(xb, kernels))
        means, q = forward_batch(xb, kernels, return_cache=True, pool=True)
        assert means.shape == want.shape and means.tobytes() == want.tobytes()
        assert forward_batch(xb, kernels, pool=True).tobytes() == want.tobytes()
        kh, kw, k, m = kernels.weights.shape
        assert q.shape == (len(xb), kh * kw * k, m)

    @pytest.mark.parametrize("name", ["dhlac", "tiny"])
    def test_weight_gradient_matches_the_maps_path(self, name):
        xb, kernels = pooled_instances()[name]
        y, z = forward_batch(xb, kernels, return_cache=True)
        d_y = gap_backward(np.random.default_rng(3).normal(size=(len(xb), y.shape[3])), y.shape)
        want = backward_weights_batch(z, y, d_y, kernels)
        q = forward_batch(xb, kernels, return_cache=True, pool=True)[1]
        got = backward_weights_batch(q, None, d_y, kernels)
        assert got.shape == kernels.weights.shape
        assert _rel_err(got, want) < 1e-13

    def test_blocks_of_images_give_the_same_bytes(self, monkeypatch):
        # one GEMM block per image, then the whole batch in one block
        xb, kernels = pooled_instances()["dhlac"]
        monkeypatch.setattr(layers, "_BLOCK_BYTES", 1)
        one = forward_batch(xb, kernels, return_cache=True, pool=True)
        monkeypatch.setattr(layers, "_BLOCK_BYTES", 1 << 30)
        whole = forward_batch(xb, kernels, return_cache=True, pool=True)
        for a, b in zip(one, whole):
            assert a.tobytes() == b.tobytes()


class TestBackwardWeights:
    def test_log_one_inputs_give_zero_gradient(self):
        cfg = TmlConfig(eps=1e-6)
        kernels = init_kernels(cfg, (2, 2, 1, 2), np.random.default_rng(0))
        x = np.full((4, 4, 1), 1.0 - cfg.eps)
        y, z = forward_batch(x[None], kernels, return_cache=True)
        d_w = backward_weights_batch(z, y, np.ones_like(y), kernels)
        np.testing.assert_allclose(d_w, 0.0, atol=1e-12)

    def test_zero_upstream_gradient(self):
        rng = np.random.default_rng(1)
        x, kernels = random_instance(rng)
        y, z = forward_batch(x[None], kernels, return_cache=True)
        d_w = backward_weights_batch(z, y, np.zeros_like(y), kernels)
        assert np.all(d_w == 0.0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            x, kernels = random_instance(rng)
            y, z = forward_batch(x[None], kernels, return_cache=True)
            r = rng.normal(size=y.shape[1:])  # fixed linear functional: L = sum(r * y)
            analytic = backward_weights_batch(z, y, r[None], kernels)
            numeric = _central_diff(
                lambda: float((r * forward_batch(x[None], kernels)[0]).sum()),
                kernels.weights,
                DEFAULT_STEP,
            )
            assert _rel_err(analytic, numeric) < 1e-5

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(8)
        x, kernels = random_instance(rng)
        y, z = forward_batch(x[None], kernels, return_cache=True)
        with pytest.raises(ValueError):
            backward_weights_batch(z, y, y[:, :-1], kernels)

    def test_gradcheck_checks_the_network_kind(self, monkeypatch):
        # a tml Kind whose backward reads the cached input, not its log
        def input_for_log(layer, p, cache, d_y, need_dx):
            x, y, _z = cache
            kernels = TmlKernels(layer.tml, p["w"])
            d_x = backward_input_batch(x, y, d_y, kernels) if need_dx else None
            return d_x, {"w": backward_weights_batch(x, y, d_y, kernels)}

        assert gradcheck.check_tml_gradients(3, 0)[0] < 1e-5
        broken = dataclasses.replace(network.KINDS["tml"], backward=input_for_log)
        monkeypatch.setitem(network.KINDS, "tml", broken)
        w_err, x_err = gradcheck.check_tml_gradients(3, 0)
        assert w_err > 1e-5 and x_err < 1e-5


class TestBackwardInput:
    def test_zero_weights_give_zero_gradient(self):
        kernels = TmlKernels(TmlConfig(), np.zeros((2, 2, 1, 2)))
        x = np.random.default_rng(0).uniform(0.1, 2, size=(4, 4, 1))
        y = forward_batch(x[None], kernels)[0]
        d_x = backward_input_batch(x[None], y[None], np.ones_like(y)[None], kernels)[0]
        assert np.all(d_x == 0.0)

    def test_identity_kernel_routes_gradient(self):
        kernels = TmlKernels(TmlConfig(c1=1.0, c2=1.0, eps=1e-12), np.ones((1, 1, 1, 1)))
        rng = np.random.default_rng(1)
        x = rng.uniform(0.5, 2.0, size=(3, 4, 1))
        y = forward_batch(x[None], kernels)[0]
        d_y = rng.normal(size=y.shape)
        d_x = backward_input_batch(x[None], y[None], d_y[None], kernels)[0]
        np.testing.assert_allclose(d_x, d_y, rtol=1e-10)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            x, kernels = random_instance(rng)
            y = forward_batch(x[None], kernels)[0]
            r = rng.normal(size=y.shape)
            analytic = backward_input_batch(x[None], y[None], r[None], kernels)[0]
            numeric = _central_diff(
                lambda: float((r * forward_batch(x[None], kernels)[0]).sum()), x, DEFAULT_STEP
            )
            assert _rel_err(analytic, numeric) < 1e-5


class TestProjection:
    def kernels_from_flat(self, flat, c1=1.0, c2=0.5):
        flat = np.asarray(flat, dtype=np.float64)
        return TmlKernels(TmlConfig(c1=c1, c2=c2), flat.reshape(1, flat.size, 1, 1))

    def test_feasible_bank_unchanged(self):
        k = self.kernels_from_flat([0.5, 0.5])
        out, restarted = project_kernels(k)
        np.testing.assert_array_equal(out.weights.ravel(), [0.5, 0.5])
        assert restarted == ()

    def test_clip_then_rescale_order(self):
        # clip [0.8, 0.6, 0.2] -> [0.5, 0.5, 0.2] (sum 1.2), rescale by 1/1.2
        k = self.kernels_from_flat([0.8, 0.6, 0.2])
        out, _ = project_kernels(k)
        np.testing.assert_allclose(out.weights.ravel(), [5 / 12, 5 / 12, 1 / 6], atol=1e-12)

    def test_transient_bound_violation_reproduced(self):
        # [-0.3, 1.3] clips to [0, 0.5]; rescale doubles to [0, 1.0] > c2.
        k = self.kernels_from_flat([-0.3, 1.3])
        out, restarted = project_kernels(k)
        assert restarted == ()
        np.testing.assert_allclose(out.weights.ravel(), [0.0, 1.0], atol=1e-12)
        assert out.weights.max() > out.config.c2

    def test_clip_step_bounds(self):
        k = self.kernels_from_flat([-1.0, 0.3, 2.0], c2=0.5)
        clipped = clip_step(k)
        np.testing.assert_array_equal(clipped.weights.ravel(), [0.0, 0.3, 0.5])

    def test_idempotent_on_feasible_output(self):
        rng = np.random.default_rng(11)
        cfg = TmlConfig(c1=1.0, c2=0.5)
        for _ in range(20):
            k = TmlKernels(cfg, rng.uniform(-0.2, 0.7, size=(3, 3, 2, 4)))
            once, _ = project_kernels(k)
            if once.weights.max() <= cfg.c2:
                twice, _ = project_kernels(once)
                np.testing.assert_allclose(twice.weights, once.weights, rtol=1e-14)

    def test_postconditions(self):
        rng = np.random.default_rng(12)
        cfg = TmlConfig(c1=2.0, c2=1.0)
        k = TmlKernels(cfg, rng.normal(size=(3, 3, 1, 5)))
        out, _ = project_kernels(k)
        assert out.weights.min() >= 0.0
        np.testing.assert_allclose(out.weights.sum(axis=(0, 1, 2)), cfg.c1, atol=1e-9)

    def test_degenerate_kernel_signaled_and_reinit(self):
        w = np.zeros((1, 2, 1, 2))
        w[0, :, 0, 0] = [-1.0, -2.0]  # clips to all zero
        w[0, :, 0, 1] = [0.5, 0.5]
        k = TmlKernels(TmlConfig(c1=1.0, c2=0.5), w)
        fixed, restarted = project_kernels(k)
        assert restarted == (0,)
        np.testing.assert_array_equal(fixed.weights[..., 0].ravel(), [0.5, 0.5])
        np.testing.assert_array_equal(fixed.weights[..., 1], k.weights[..., 1])

    def test_rescale_of_a_zero_sum_kernel_rejected(self):
        # a zero sum would rescale to inf/NaN; project_kernels restarts such a kernel first
        k = TmlKernels(TmlConfig(c1=1.0, c2=0.5), np.zeros((1, 2, 1, 3)))
        k.weights[..., 1] = 0.25
        with pytest.raises(ValueError, match=r"kernel\(s\) \[0, 2\] sum to zero"):
            rescale_step(k)

    def test_rejects_nonfinite(self):
        k = self.kernels_from_flat([np.nan, 0.5])
        with pytest.raises(ValueError):
            project_kernels(k)


class TestKernelL1:
    """The training penalty is lambda times the bank's L1 norm; projection pins that norm."""

    def test_zero_bank(self):
        # an all-zero bank has no direction to rescale; every kernel restarts
        # uniform and the bank's L1 norm comes back to M * c1
        k = TmlKernels(TmlConfig(c1=1.0, c2=1.0), np.zeros((2, 2, 1, 3)))
        assert np.abs(k.weights).sum() == 0.0
        out, restarted = project_kernels(k)
        assert list(restarted) == [0, 1, 2]
        assert np.abs(out.weights).sum() == pytest.approx(3 * 1.0, abs=1e-12)

    def test_absolute_values(self):
        # |0.3| + |-0.2| = 0.5 before projection; the clip drops the negative
        # weight, so afterwards the L1 norm is the plain sum c1
        k = TmlKernels(TmlConfig(c1=1.0, c2=1.0), np.array([0.3, -0.2]).reshape(1, 2, 1, 1))
        assert np.abs(k.weights).sum() == pytest.approx(0.5)
        out, _ = project_kernels(k)
        np.testing.assert_allclose(out.weights.ravel(), [1.0, 0.0], atol=1e-12)
        assert np.abs(out.weights).sum() == pytest.approx(out.weights.sum(), abs=1e-12)

    def test_projected_bank_is_m_times_c1(self):
        rng = np.random.default_rng(13)
        k, _ = project_kernels(TmlKernels(TmlConfig(c1=1.5, c2=0.75), rng.uniform(0, 1, (3, 3, 2, 6))))
        assert np.abs(k.weights).sum() == pytest.approx(6 * 1.5, abs=1e-9)


class TestInit:
    def test_init_is_feasible_and_seeded(self):
        cfg = TmlConfig()
        a = init_kernels(cfg, (3, 3, 1, 4), np.random.default_rng(99))
        b = init_kernels(cfg, (3, 3, 1, 4), np.random.default_rng(99))
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_allclose(a.weights.sum(axis=(0, 1, 2)), cfg.c1, atol=1e-9)
        assert a.weights.min() >= 0.0

    def test_uniform_kernels(self):
        # reinit restarts the listed kernels at c1 / (H*W*K) and leaves the rest
        k = init_kernels(TmlConfig(), (2, 2, 1, 3), np.random.default_rng(0))
        one = reinit_kernels(k, [1])
        assert np.all(one.weights[..., 1] == 0.25)
        np.testing.assert_array_equal(one.weights[..., [0, 2]], k.weights[..., [0, 2]])
        assert np.all(reinit_kernels(k, range(3)).weights == 0.25)

