"""Trainable multiplication layer: products of inputs raised to learned exponents.

The layer slides an H x W x K bank of M exponent kernels over a nonnegative
input volume and, at each valid position, multiplies the covered entries
raised to the kernel weights:

    y[i, j, m] = prod_{p,q,k} (x[i+p, j+q, k] + eps) ** w[p, q, k, m]

Products are evaluated in the log domain, y = exp(correlate(log(x + eps), W)),
by the convolution's kernels (`layers.correlate` and its gradients, which get
g = d_y * y), so long chains of small factors neither underflow nor overflow.
The weight gradient correlates the forward's log(x + eps), which
`forward_batch(..., return_cache=True)` returns, so the log is taken once per
step.

A bank whose maps are only averaged (a GAP after it, and no input gradient
read) runs as the pooled step, `forward_batch(..., pool=True)`: per block of
`layers.window_blocks`, the maps are exp'd in place and summed over each
image's positions, bit-equal to `layers.gap_forward` of the whole maps,
which are never held. Since GAP's gradient d_y[b] is one vector per image,
the weight gradient sum over b, i, j of cols * (d_y * y) is
sum_b q[b] * d_y[b, 0, 0, :] with q[b] = cols_b @ y_b^T, a (kh*kw*K, M)
product per image that the step keeps in place of the maps and z. With
binary weights the layer computes a local auto-correlation
integrand (`hlac.masks_to_binary_kernels` builds such a bank); training
the weights under the clip/rescale projection below learns which positions
get multiplied together.

Weight constraints: every weight stays in [0, C2] and each kernel's weights
sum to C1. They are enforced by alternating projection (clip into the box,
then rescale each kernel to the target sum), applied after every gradient
update rather than solved exactly; the rescale may transiently push a weight
above C2 until the next step's clip. A kernel that the clip leaves all zero
has no direction to rescale: `project_kernels` restarts it as the uniform
kernel C1 / (H*W*K) and returns its index with the projected bank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import layers as L


@dataclass(frozen=True)
class TmlConfig:
    """The constraint constants of a kernel bank. The bank's geometry, H x W x
    K cells per kernel and M kernels, is its weight array's shape, as for a
    convolution; the layer spec that owns the bank checks that c1 / c2 fits
    its H * W * K cells (`network`'s shape walk).

    c1: target sum of each kernel's weights (after projection).
    c2: per-weight upper bound used by the clip step.
    eps: offset added inside the logarithm so zero inputs stay finite.
    """

    c1: float = 1.0
    c2: float = 0.5
    eps: float = 1e-6

    def __post_init__(self):
        if not (0 < self.c1 < np.inf and 0 < self.c2 < np.inf):
            raise ValueError("c1 and c2 must be positive and finite")
        if self.c2 > self.c1:
            raise ValueError(f"c2 ({self.c2}) must not exceed c1 ({self.c1})")
        if not (np.isfinite(self.eps) and self.eps > 0):
            raise ValueError(f"eps must be positive and finite, got {self.eps!r}")


@dataclass
class TmlKernels:
    """A bank's constraint constants and its weights: weights[p, q, k, m] is
    cell (p, q) of kernel m for channel k."""

    config: TmlConfig
    weights: np.ndarray


def init_kernels(config: TmlConfig, shape, rng: np.random.Generator) -> TmlKernels:
    """Draw a (H, W, K, M) bank uniformly from [0, c2], then project once so it starts feasible."""
    w = rng.uniform(0.0, config.c2, size=shape)
    return project_kernels(TmlKernels(config, w))[0]


# ---------------------------------------------------------------------------
# forward / backward
# ---------------------------------------------------------------------------


def _check_input(xb: np.ndarray, weights: np.ndarray) -> None:
    kh, kw, channels, _m = weights.shape
    if xb.shape[-1] != channels:
        raise ValueError(f"input has {xb.shape[-1]} channels, kernels expect {channels}")
    if xb.shape[-3] < kh or xb.shape[-2] < kw:
        raise ValueError(f"input {xb.shape[-3]}x{xb.shape[-2]} smaller than kernel {kh}x{kw}")
    if not xb.min() >= 0:  # also catches NaN, which min() propagates
        raise ValueError("multiplication layer requires nonnegative inputs, got NaN or < 0")


def forward_batch(xb: np.ndarray, kernels: TmlKernels, return_cache: bool = False,
                  pool: bool = False):
    """Batched forward: xb (B, N1, N2, K) -> y (B, N1-H+1, N2-W+1, M), or with
    `return_cache` (y, z), z = log(xb + eps), what `backward_weights_batch`
    reads.

    With `pool`, the pooled step: y's position means, (B, M), bit-equal to
    `layers.gap_forward(y)`, and y is never held whole; with `return_cache`,
    (means, q) with q[b] = cols_b @ y_b^T (kh*kw*K, M) per image, in place of
    (y, z)."""
    _check_input(xb, kernels.weights)
    z = xb + kernels.config.eps
    np.log(z, out=z)
    if pool:
        return _pooled(z, kernels.weights, return_cache)
    y = L.correlate(z, kernels.weights)
    np.exp(y, out=y)
    return (y, z) if return_cache else y


def _pooled(zb: np.ndarray, w: np.ndarray, keep_q: bool):
    """Per block of `layers.window_blocks`: the block's maps, exp'd in place,
    summed over each image's positions, and with `keep_q` each image's
    product q[b] = cols_b @ y_b^T. Returns (means (B, M), q or None)."""
    kh, kw, _, m = w.shape
    b, h, wd, _ = zb.shape
    n = (h - kh + 1) * (wd - kw + 1)
    w_t = w.reshape(-1, m).T
    sums = np.empty((m, b))
    q = np.empty((b, w_t.shape[1], m)) if keep_q else None
    for images, cols in L.window_blocks(zb, kh, kw, m):
        y = (w_t @ cols).reshape(m, -1, n)
        np.exp(y, out=y)
        # the sum over each contiguous run of n positions is the one gap_forward takes
        np.add.reduce(y, axis=2, out=sums[:, images])
        if keep_q:
            np.matmul(cols.reshape(len(cols), -1, n).transpose(1, 0, 2), y.transpose(1, 2, 0),
                      out=q[images])
        del cols, y  # before the next block's are built (layers.window_blocks)
    sums /= n
    return (sums.T, q) if keep_q else sums.T


def _log_grad(yb: np.ndarray, d_yb: np.ndarray) -> np.ndarray:
    """d(loss)/d(log y) = d_y * y, what the log-domain correlation receives,
    in y's layout (d_y may be GAP's broadcast view)."""
    if yb.shape != d_yb.shape:
        raise ValueError(f"d_y shape {d_yb.shape} does not match y shape {yb.shape}")
    return np.multiply(d_yb, yb, out=np.empty_like(yb))


def backward_weights_batch(
    cache: np.ndarray, yb: np.ndarray | None, d_yb: np.ndarray, kernels: TmlKernels
) -> np.ndarray:
    """Gradient w.r.t. weights, summed over batch and output positions, from
    what `forward_batch(..., return_cache=True)` returned: z = log(xb + eps)
    with the maps yb, or after a pooled forward q with yb None. There d_yb is
    GAP's backward, d_y[b, 0, 0, :] at every position of image b, so the
    gradient is sum_b q[b] * d_y[b, 0, 0, :]."""
    if yb is not None:
        return L.correlate_grad_weights(cache, _log_grad(yb, d_yb), *kernels.weights.shape[:2])
    d_w = np.einsum("bcm,bm->cm", cache, d_yb[:, 0, 0, :])
    return d_w.reshape(kernels.weights.shape)


def backward_input_batch(
    xb: np.ndarray, yb: np.ndarray, d_yb: np.ndarray, kernels: TmlKernels
) -> np.ndarray:
    """Gradient w.r.t. the input volume (chain rule through the log form)."""
    d_x = L.correlate_grad_input(kernels.weights, _log_grad(yb, d_yb), xb.shape)
    d_x /= xb + kernels.config.eps
    return d_x


# ---------------------------------------------------------------------------
# constraint projection
# ---------------------------------------------------------------------------


def clip_step(kernels: TmlKernels) -> TmlKernels:
    """Projection step A: clamp every weight into [0, c2]."""
    if not np.all(np.isfinite(kernels.weights)):
        raise ValueError("kernel weights must be finite before projection")
    return TmlKernels(kernels.config, np.clip(kernels.weights, 0.0, kernels.config.c2))


def rescale_step(kernels: TmlKernels) -> TmlKernels:
    """Projection step B: scale each kernel so its weights sum to c1.

    Raises ValueError if any kernel sums to zero (`project_kernels` restarts
    such a kernel first).
    """
    sums = kernels.weights.sum(axis=(0, 1, 2))
    if not sums.all():
        raise ValueError(f"kernel(s) {np.flatnonzero(sums == 0.0).tolist()} sum to zero")
    return TmlKernels(kernels.config, kernels.weights * (kernels.config.c1 / sums))


def project_kernels(kernels: TmlKernels) -> tuple[TmlKernels, tuple[int, ...]]:
    """Clip into [0, c2], restart every kernel the clip left all zero
    (`reinit_kernels`), then rescale each kernel to sum c1. Returns
    (projected bank, restarted kernel indices).

    The rescale can push individual weights above c2 when the clipped sum falls
    short of c1; that transient excess is deliberate and gets clipped on the
    next call.
    """
    clipped = clip_step(kernels)
    dead = tuple(np.flatnonzero(~clipped.weights.any(axis=(0, 1, 2))).tolist())
    if dead:
        clipped = reinit_kernels(clipped, dead)
    return rescale_step(clipped), dead


def reinit_kernels(kernels: TmlKernels, kernel_indices) -> TmlKernels:
    """Replace the listed kernels with the uniform feasible bank value c1 / (H*W*K)."""
    w = kernels.weights.copy()
    w[..., list(kernel_indices)] = kernels.config.c1 / math.prod(w.shape[:3])
    return TmlKernels(kernels.config, w)
