"""Finite-difference verification of every analytic gradient in the package.

Each check builds random small instances, evaluates a scalar probe loss
(sum of a fixed random sensitivity times the forward output), and compares
analytic gradients against central differences. Errors are reported as
max |analytic - numeric| / max |numeric| per instance. A layer's check runs
its kind's `KINDS` entry (`check_layer`), the forward and backward the
network runs, so it also covers the glue around the kernels: the tml
forward's cached log, which the weight gradient reads, and conv's `need_dx`.
"""

from __future__ import annotations

import numpy as np

from .layers import softmax_xent
from .network import (
    KINDS,
    LayerSpec,
    NetworkSpec,
    conv,
    fc,
    init_params,
    network_backward,
    network_forward,
    tml_layer,
)
from .tml import TmlConfig

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


def check_layer(layer: LayerSpec, params: dict, x, r, need_dx: bool = True) -> dict:
    """Errors of the gradients `KINDS[layer.kind]`'s eval-mode backward
    returns for the probe loss sum(r * forward(x)), keyed "x" for d_x (when
    `need_dx`) and by parameter name. The backward reads the cache of a
    forward told to keep it; the probe's forwards keep none. With `need_dx`
    False the backward must return d_x None."""
    kind = KINDS[layer.kind]

    def loss():
        return float((r * kind.forward(layer, params, x, False, None, False)[0]).sum())

    _y, cache = kind.forward(layer, params, x, False, None, True)
    d_x, grads = kind.backward(layer, params, cache, r, need_dx)
    if need_dx:
        grads = {"x": d_x, **grads}
    elif d_x is not None:
        raise AssertionError(f"{layer.kind} backward(..., need_dx=False) computed d_x; "
                             "it must return None")
    arrays = {"x": x, **params}
    return {key: _rel_err(g, _central_diff(loss, arrays[key], DEFAULT_STEP))
            for key, g in grads.items()}


def check_tml_gradients(trials: int, seed: int):
    """Weight- and input-gradient errors over `trials` random instances
    (inputs in [0.1, 2], feasible kernel banks); `trials` must be at least 1."""
    if trials < 1:
        raise ValueError(f"gradcheck needs at least 1 trial, got {trials}")
    rng = np.random.default_rng(seed)
    worst_w = worst_x = 0.0
    for _ in range(trials):
        n1, n2 = rng.integers(3, 6, size=2)
        k, m = int(rng.integers(1, 3)), int(rng.integers(1, 4))
        layer = tml_layer(m, 2, 2, TmlConfig(c1=1.0, c2=0.5))
        params = KINDS["tml"].init(layer, {"w": (2, 2, k, m)}, rng)
        x = rng.uniform(0.1, 2.0, size=(1, n1, n2, k))  # a batch of one
        err = check_layer(layer, params, x, rng.normal(size=(1, n1 - 1, n2 - 1, m)))
        worst_w, worst_x = max(worst_w, err["w"]), max(worst_x, err["x"])
    return worst_w, worst_x


def check_conv_fc_gradients(seed: int):
    """Conv (with and without d_x) and fc gradient errors."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(2, 5, 4, 2))
    params = {"w": rng.normal(size=(3, 2, 2, 3)), "b": rng.normal(size=3)}
    r = rng.normal(size=(2, 3, 3, 3))
    layer = conv(3, 3, 2)
    conv_err = max(*check_layer(layer, params, x, r).values(),
                   *check_layer(layer, params, x, r, need_dx=False).values())
    xf = rng.normal(size=(3, 6))
    params_f = {"w": rng.normal(size=(6, 4)), "b": rng.normal(size=4)}
    fc_err = max(check_layer(fc(4), params_f, xf, rng.normal(size=(3, 4))).values())
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
        side_layers=[tml_layer(2, 2, 2, TmlConfig(c1=1.0, c2=0.6)), LayerSpec("gap")],
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
