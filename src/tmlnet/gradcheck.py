"""Finite-difference verification of every analytic gradient in the package.

Each check builds random small instances, evaluates a scalar probe loss
(sum of a fixed random sensitivity times the forward output), and compares
analytic gradients against central differences. Errors are reported as
max |analytic - numeric| / max |numeric| per instance.
"""

from __future__ import annotations

import numpy as np

from . import tml as T
from .layers import conv2d_backward, conv2d_forward, fc_backward, fc_forward, softmax_xent
from .network import (
    LayerSpec,
    NetworkSpec,
    conv,
    fc,
    init_params,
    network_backward,
    network_forward,
    tml_layer,
)

DEFAULT_STEP = 1e-6


def _rel_err(analytic, numeric):
    scale = max(np.max(np.abs(numeric)), 1e-12)
    return float(np.max(np.abs(analytic - numeric)) / scale)


def _central_diff(loss, arr, step):
    g = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = arr[idx]
        arr[idx] = orig + step
        fp = loss()
        arr[idx] = orig - step
        fm = loss()
        arr[idx] = orig
        g[idx] = (fp - fm) / (2 * step)
    return g


def check_tml_gradients(trials: int, seed: int):
    """Weight- and input-gradient errors over `trials` random instances
    (inputs in [0.1, 2], feasible kernel banks); `trials` must be at least 1."""
    if trials < 1:
        raise ValueError(f"gradcheck needs at least 1 trial, got {trials}")
    rng = np.random.default_rng(seed)
    worst_w = worst_x = 0.0
    for _ in range(trials):
        n1, n2 = rng.integers(3, 6, size=2)
        k = int(rng.integers(1, 3))
        shape = (2, 2, k, int(rng.integers(1, 4)))
        kernels = T.init_kernels(T.TmlConfig(c1=1.0, c2=0.5), shape, rng)
        x = rng.uniform(0.1, 2.0, size=(1, int(n1), int(n2), k))  # a batch of one
        y, z = T.forward_batch(x, kernels, return_log=True)
        r = rng.normal(size=y.shape)

        def loss():
            return float((r * T.forward_batch(x, kernels)).sum())

        numeric_w = _central_diff(loss, kernels.weights, DEFAULT_STEP)
        worst_w = max(worst_w, _rel_err(T.backward_weights_batch(z, y, r, kernels), numeric_w))
        numeric_x = _central_diff(loss, x, DEFAULT_STEP)
        worst_x = max(worst_x, _rel_err(T.backward_input_batch(x, y, r, kernels), numeric_x))
    return worst_w, worst_x


def check_conv_fc_gradients(seed: int):
    """Conv (full and weights-only backward) and fc gradient errors."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(2, 5, 4, 2))
    w = rng.normal(size=(3, 2, 2, 3))
    b = rng.normal(size=3)
    r = rng.normal(size=(2, 3, 3, 3))
    d_x, d_w, d_b = conv2d_backward(x, w, r)
    no_dx, d_w_only, d_b_only = conv2d_backward(x, w, r, need_dx=False)
    if no_dx is not None:
        raise AssertionError("conv2d_backward(..., need_dx=False) computed d_x; it must return None")

    def conv_loss():
        return float((r * conv2d_forward(x, w, b)).sum())

    numeric_w = _central_diff(conv_loss, w, DEFAULT_STEP)
    numeric_b = _central_diff(conv_loss, b, DEFAULT_STEP)
    conv_err = max(
        _rel_err(d_x, _central_diff(conv_loss, x, DEFAULT_STEP)),
        _rel_err(d_w, numeric_w),
        _rel_err(d_b, numeric_b),
        _rel_err(d_w_only, numeric_w),
        _rel_err(d_b_only, numeric_b),
    )
    xf = rng.normal(size=(3, 6))
    wf = rng.normal(size=(6, 4))
    bf = rng.normal(size=4)
    rf = rng.normal(size=(3, 4))
    d_xf, d_wf, d_bf = fc_backward(xf, wf, rf)

    def fc_loss():
        return float((rf * fc_forward(xf, wf, bf)).sum())

    fc_err = max(
        _rel_err(grad, _central_diff(fc_loss, arr, DEFAULT_STEP))
        for grad, arr in ((d_xf, xf), (d_wf, wf), (d_bf, bf))
    )
    return conv_err, fc_err


def tiny_network():
    """Every differentiable layer kind in one small branched net."""
    return NetworkSpec(
        layers=[
            conv(2, 3, 3),
            LayerSpec("relu"),
            LayerSpec("maxpool"),
            fc(5),
            LayerSpec("sigmoid"),
            fc(3),
        ],
        input_shape=(6, 6, 1),
        num_classes=3,
        side_layers=[tml_layer(2, 2, 2, T.TmlConfig(c1=1.0, c2=0.6)), LayerSpec("gap")],
    )


def check_network_gradients(seed: int):
    """Whole-net gradient error through the tiny branched topology."""
    rng = np.random.default_rng(seed)
    spec = init_params(tiny_network(), rng)
    xb = rng.uniform(0.1, 2.0, size=(2, 6, 6, 1))
    labels = rng.integers(0, 3, size=2)
    onehot = np.eye(3)[labels]

    def loss():
        logits, _ = network_forward(spec, xb, train_mode=False, trace=False)
        losses, _ = softmax_xent(logits, onehot)
        return float(losses.mean())

    logits, trace = network_forward(spec, xb, train_mode=False)
    _losses, d_logits = softmax_xent(logits, onehot)
    grads = network_backward(spec, trace, d_logits / len(labels))

    worst = 0.0
    for plist, glist in ((spec.params, grads.main), (spec.side_params, grads.side)):
        for i, params in enumerate(plist):
            for key, arr in params.items():
                numeric = _central_diff(loss, arr, DEFAULT_STEP)
                worst = max(worst, _rel_err(glist[i][key], numeric))
    return worst


def run_all(seed: int = 0, trials: int = 100, emit=print):
    """Run every check; returns True when all pass their tolerances."""
    w_err, x_err = check_tml_gradients(trials, seed)
    conv_err, fc_err = check_conv_fc_gradients(seed)
    net_err = check_network_gradients(seed)
    ok = True
    for name, err, tol in (
        ("tml weight gradient", w_err, 1e-5),
        ("tml input gradient", x_err, 1e-5),
        ("conv gradient", conv_err, 1e-5),
        ("fc gradient", fc_err, 1e-5),
        ("whole-network gradient", net_err, 1e-4),
    ):
        status = "ok" if err < tol else "FAIL"
        ok &= err < tol
        emit(f"{name}: max rel err {err:.3e} (tolerance {tol:.0e}) {status}")
    return ok
