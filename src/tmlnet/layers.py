"""Batched CNN building blocks with hand-written forward/backward passes.

Arrays flow through as float64 with a leading batch axis: feature volumes are
(B, rows, cols, channels), vectors are (B, dims). Convolution is valid-padding
stride-1 cross-correlation (`correlate`, shared with the multiplication layer)
plus a bias; its d_w is one im2col matmul, its d_x a scatter of d_y @ w[p, q].T
per kernel cell, skipped for a layer that reads the network input. Max pooling
is 2x2 stride 2 (odd trailing rows or columns are dropped); dropout scales
survivors by 1/(1-rate) at train time.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def correlate(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Bias-free correlation: x (B,H,W,Cin), w (kh,kw,Cin,Cout) -> (B,H',W',Cout)."""
    kh, kw = w.shape[0], w.shape[1]
    win = sliding_window_view(x, (kh, kw), axis=(1, 2))  # (B,H',W',Cin,kh,kw)
    return np.einsum("bijkpq,pqkf->bijf", win, w, optimize=True)


def correlate_grad_weights(x, d_y, kh: int, kw: int) -> np.ndarray:
    """d(sum d_y * correlate(x, w)) / dw: cols.T @ d_y over (B*H'*W', kh*kw*Cin) windows."""
    cols = sliding_window_view(x, (kh, kw), axis=(1, 2)).transpose(0, 1, 2, 4, 5, 3)
    d_w = cols.reshape(-1, kh * kw * x.shape[3]).T @ d_y.reshape(-1, d_y.shape[3])
    return d_w.reshape(kh, kw, x.shape[3], d_y.shape[3])


def correlate_grad_input(w, d_y, x_shape) -> np.ndarray:
    """d(sum d_y * correlate(x, w)) / dx: each kernel cell's share, added where it reads."""
    b, oh, ow, c_out = d_y.shape
    flat = d_y.reshape(-1, c_out)
    d_x = np.zeros(x_shape)
    for p in range(w.shape[0]):
        for q in range(w.shape[1]):
            d_x[:, p : p + oh, q : q + ow] += (flat @ w[p, q].T).reshape(b, oh, ow, -1)
    return d_x


def conv2d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x (B,H,W,Cin), w (kh,kw,Cin,Cout), b (Cout,) -> (B,H',W',Cout)."""
    return correlate(x, w) + b


def conv2d_backward(x, w, d_y, need_dx: bool = True):
    """Returns (d_x, d_w, d_b); d_x is None when `need_dx` is False."""
    d_x = correlate_grad_input(w, d_y, x.shape) if need_dx else None
    d_w = correlate_grad_weights(x, d_y, w.shape[0], w.shape[1])
    return d_x, d_w, d_y.sum(axis=(0, 1, 2))


def maxpool_forward(x: np.ndarray):
    """2x2/2 max pool; returns (y, argmax indices) for the backward pass."""
    b, h, w, c = x.shape
    h2, w2 = h // 2, w // 2
    if h2 == 0 or w2 == 0:
        raise ValueError(f"input {h}x{w} too small for 2x2 pooling")
    blocks = (
        x[:, : 2 * h2, : 2 * w2, :]
        .reshape(b, h2, 2, w2, 2, c)
        .transpose(0, 1, 3, 5, 2, 4)
        .reshape(b, h2, w2, c, 4)
    )
    idx = blocks.argmax(axis=-1)  # first max wins ties: deterministic routing
    y = np.take_along_axis(blocks, idx[..., None], axis=-1)[..., 0]
    return y, idx


def maxpool_backward(d_y: np.ndarray, idx: np.ndarray, in_shape) -> np.ndarray:
    b, h, w, c = in_shape
    h2, w2 = h // 2, w // 2
    d_blocks = np.zeros((b, h2, w2, c, 4))
    np.put_along_axis(d_blocks, idx[..., None], d_y[..., None], axis=-1)
    d_x = np.zeros(in_shape)
    d_x[:, : 2 * h2, : 2 * w2, :] = (
        d_blocks.reshape(b, h2, w2, c, 2, 2)
        .transpose(0, 1, 4, 2, 5, 3)
        .reshape(b, 2 * h2, 2 * w2, c)
    )
    return d_x


def relu_forward(x):
    return np.maximum(x, 0.0)


def relu_backward(d_y, x):
    return d_y * (x > 0)


def sigmoid_forward(x):
    # split on sign to keep exp() in the underflow-safe range
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid_backward(d_y, y):
    return d_y * y * (1.0 - y)


def fc_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Flattens any trailing dims: x (B, ...) -> (B, units)."""
    return x.reshape(x.shape[0], -1) @ w + b


def fc_backward(x, w, d_y):
    flat = x.reshape(x.shape[0], -1)
    d_w = flat.T @ d_y
    d_b = d_y.sum(axis=0)
    d_x = (d_y @ w.T).reshape(x.shape)
    return d_x, d_w, d_b


def dropout_forward(x, rate: float, rng: np.random.Generator, train: bool):
    """Returns (y, mask); eval mode and rate 0 are exact identities."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not train or rate == 0.0:
        return x, None
    mask = rng.random(x.shape) >= rate
    return x * mask / (1.0 - rate), mask


def dropout_backward(d_y, mask, rate: float):
    if mask is None:
        return d_y
    return d_y * mask / (1.0 - rate)


def gap_forward(x: np.ndarray) -> np.ndarray:
    """Per-channel spatial mean: (B,H,W,C) -> (B,C)."""
    return x.mean(axis=(1, 2))


def gap_backward(d_y: np.ndarray, in_shape) -> np.ndarray:
    _, h, w, _ = in_shape
    return np.broadcast_to(d_y[:, None, None, :] / (h * w), in_shape).copy()


def softmax_xent(logits: np.ndarray, onehot: np.ndarray):
    """Softmax cross-entropy against one-hot teachers.

    Accepts a single (C,) vector or a batch (B, C). Returns per-sample losses
    and the gradient of their sum: softmax(logits) - onehot.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(logits)):
        raise ValueError("non-finite logits")
    single = logits.ndim == 1
    lg = logits[None] if single else logits
    t = np.asarray(onehot, dtype=np.float64)
    t = t[None] if single else t
    shifted = lg - lg.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_p = shifted - log_z
    losses = -(t * log_p).sum(axis=1)
    d_logits = np.exp(log_p) - t
    if single:
        return float(losses[0]), d_logits[0]
    return losses, d_logits
