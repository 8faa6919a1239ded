"""Batched CNN building blocks with hand-written forward/backward passes.

Arrays flow through as float64 with a leading batch axis: feature volumes are
(B, rows, cols, channels), vectors are (B, dims). Convolution is valid-padding
stride-1 cross-correlation (`correlate`, shared with the multiplication layer)
plus a bias. Forward and d_w read the window matrix `_cols`: one row per
kernel cell in (p, q, k) order, one column per output position in (b, i, j)
order. One blocked window loop, `window_blocks`, hands out each block's
matrix to `correlate`, `correlate_grad_weights` and the multiplication
layer's pooled step (`tml.forward_batch(..., pool=True)`). Each call builds
one (kh, kw, Cin, B, H', W') view of x with one `as_strided` call, from x's
own strides (`_windows`), and copies each block's matrix from a slice of
that view: an `as_strided` call costs about 8 us of Python, and one per
block would make 14 calls per 5-image block of the HLAC net's eval.
Activations are already channel-major, so each row is built from whole image
rows, runs of W' values, where one row per output position would copy runs
of only kw*Cin values. Forward and d_w are GEMMs over blocks of
whole images. A block holds as many images as fit in `_BLOCK_BYTES` (half the
2 MiB L2) with their window-matrix rows and their output rows, H'*W' float64s
each: an image takes (kh*kw*Cin + Cout) * H'*W' * 8 bytes. Counting the output
matters for wide banks: the 25-mask HLAC bank writes 25 output rows per 9
window rows. The forward writes channel-major memory: the (B, H', W', Cout)
result is a view of a (Cout, B, H', W') array, because ReLU, pooling and GAP
downstream stream whole channel planes on this layout, and GAP's means summed
in another order would move the logits' last bits. d_w sums the blocks'
cols @ d_y products.

d_x, for every kernel size, zero-pads d_y once into x's (Cout, B, H, W)
planes. Cell (0, 0)'s product w[0, 0] @ planes (Cin x Cout by Cout x B*H*W)
is d_x, and each other cell's product is added into it at flat offset
p*W + q, so every add streams whole planes and a padded zero lands, adding
nothing, in the next row or image. A sum started from +0.0 would differ
only where the first product holds a -0.0, and no GEMM tried on OpenBLAS
returns one (zero and -0.0 weights and d_y, 1-16 x 1-8 by 1-1000 shapes),
so d_x needs no +0.0 pass; a test pins its bytes to that sum. d_x is not
blocked by images: the planes of the benchmarked nets fit L2 (ROADMAP item
10). d_x is skipped for a layer that reads the network input. Max pooling's
backward writes d_x in x's layout, so the ReLU backward beneath it
multiplies arrays of one layout. GAP's backward is a read-only broadcast
view of d_y / (H*W), which allocates nothing: a pooled bank reads one
position of it per image, and the TML maps path writes its product in the
maps' layout. Dropout scales survivors by 1/(1-rate) at train time.

Max pooling is 2x2 stride 2; odd trailing rows or columns are dropped and get
a zero gradient. The forward takes the elementwise max of the four strided
views x[:, p::2, q::2] of the blocks, with no copy and no index array. A
forward whose backward will run also returns a route (`return_route`): one
uint8 per block, the first position of the block, in (0,0),(0,1),(1,0),(1,1)
order, whose value equals the max, so tied values get the gradient once
(first max wins, as an argmax would pick). It is built from compares of the
four views against the max the forward already has, and a trace keeps it in
place of x, a 32nd of x's bytes: the backward routes each d_y by it and
recomputes no max. A block holding a NaN pools to NaN, which equals nothing,
so its route is 4 and it gets no gradient; NaN logits are rejected by
`softmax_xent` before any backward runs. A block whose max is a zero held as
both 0.0 and -0.0 may pool to either, and routes to the first of them, since
the two compare equal. ReLU's backward reads its output: y > 0 exactly where
x > 0.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

# bytes of window matrix and output per GEMM block: half of a 2 MiB L2, so a
# block's window matrix is still cached when the GEMM reads it, and the
# GEMM's output does not push it out
_BLOCK_BYTES = 1 << 20


def _block_images(rows: int, oh: int, ow: int) -> int:
    """Images per GEMM block: as many as fit `rows` float64 rows of oh*ow
    output positions each in `_BLOCK_BYTES`, at least one."""
    return max(1, _BLOCK_BYTES // (8 * rows * oh * ow))


def _windows(x: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """The (kh, kw, Cin, B, H', W') window view of x (B,H,W,Cin), built from
    x's own strides: [p, q, k, b, i, j] is x[b, i+p, j+q, k]."""
    b, h, wd, c_in = x.shape
    sb, sh, sw, sc = x.strides
    return as_strided(x, (kh, kw, c_in, b, h - kh + 1, wd - kw + 1), (sh, sw, sc, sb, sh, sw),
                      writeable=False)


def _cols(win: np.ndarray) -> np.ndarray:
    """Window matrix of a window view (or a block of its images): one row per
    kernel cell in (p, q, k) order, one column per output position in (b, i, j)
    order."""
    kh, kw, c_in = win.shape[:3]
    return win.reshape(kh * kw * c_in, -1)


def window_blocks(x: np.ndarray, kh: int, kw: int, c_out: int):
    """The blocked window loop: yields (images, cols) per GEMM block of x's
    whole images, a slice of the batch and its window matrix (`_cols`), with
    as many images per block as fit their kh*kw*Cin window rows and `c_out`
    output rows in `_BLOCK_BYTES`. Every bank and conv GEMM over windows runs
    in it: `correlate`, `correlate_grad_weights` and the multiplication
    layer's pooled step. A caller drops each block's matrix before it asks
    for the next, so the allocator builds the next one in the memory, still
    in L2, that this one held: a loop variable kept alive made dhlac's
    trace-free eval 6% slower."""
    b, h, wd, c_in = x.shape
    oh, ow = h - kh + 1, wd - kw + 1
    win = _windows(x, kh, kw)
    per = _block_images(kh * kw * c_in + c_out, oh, ow)
    for s in range(0, b, per):
        yield slice(s, s + per), _cols(win[:, :, :, s : s + per])


def correlate(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Bias-free correlation: x (B,H,W,Cin), w (kh,kw,Cin,Cout) -> (B,H',W',Cout), channel-major."""
    b, h, wd, _ = x.shape
    kh, kw, _, c_out = w.shape
    w_t = w.reshape(-1, c_out).T
    y = np.empty((c_out, b, h - kh + 1, wd - kw + 1))
    for images, cols in window_blocks(x, kh, kw, c_out):
        np.matmul(w_t, cols, out=y[:, images].reshape(c_out, -1))
        del cols  # before the next block's is built (window_blocks)
    return y.transpose(1, 2, 3, 0)


def correlate_grad_weights(x, d_y, kh: int, kw: int) -> np.ndarray:
    """d(sum d_y * correlate(x, w)) / dw: cols @ d_y over the B*H'*W' output
    positions, summed over blocks of whole images."""
    c_in, c_out = x.shape[3], d_y.shape[3]
    d_w = None
    for images, cols in window_blocks(x, kh, kw, c_out):
        part = cols @ d_y[images].reshape(-1, c_out)
        del cols  # before the next block's is built (window_blocks)
        if d_w is None:
            d_w = part
        else:
            d_w += part
    return d_w.reshape(kh, kw, c_in, c_out)


def correlate_grad_input(w, d_y, x_shape) -> np.ndarray:
    """d(sum d_y * correlate(x, w)) / dx, channel-major: d_y zero-padded to
    x's (Cout, B, H, W) planes; cell (0, 0)'s product w[0, 0] @ planes is
    d_x, and every other cell's product is added into it at flat offset
    p*W + q."""
    b, oh, ow, c_out = d_y.shape
    kh, kw, c_in, _ = w.shape
    _, h, wd, _ = x_shape
    planes = np.zeros((c_out, b, h, wd))
    planes[:, :, :oh, :ow] = d_y.transpose(3, 0, 1, 2)
    planes = planes.reshape(c_out, -1)
    n = planes.shape[1]
    d_x = w[0, 0] @ planes
    # each product is a new array: one buffer reused over the cells, left
    # unwritten by a 1x1 kernel, made every 1x1 call fault its output's pages
    # in again (6x slower on cooc's 16 -> 8 bank)
    for cell in range(1, kh * kw):
        p, q = divmod(cell, kw)
        # a padded position's share is a zero (w[p, q] @ 0), and adding it
        # leaves the sum as it was
        off = p * wd + q
        d_x[:, off:] += (w[p, q] @ planes)[:, : n - off]
    return d_x.reshape(c_in, b, h, wd).transpose(1, 2, 3, 0)


def conv2d_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x (B,H,W,Cin), w (kh,kw,Cin,Cout), b (Cout,) -> (B,H',W',Cout)."""
    y = correlate(x, w)
    y += b
    return y


def conv2d_backward(x, w, d_y, need_dx: bool = True):
    """Returns (d_x, d_w, d_b); d_x is None when `need_dx` is False."""
    d_x = correlate_grad_input(w, d_y, x.shape) if need_dx else None
    d_w = correlate_grad_weights(x, d_y, w.shape[0], w.shape[1])
    return d_x, d_w, d_y.sum(axis=(0, 1, 2))


def _quarters(a: np.ndarray, h2: int, w2: int) -> list[np.ndarray]:
    """The four strided (h2, w2) views of a's 2x2 blocks, in (0,0),(0,1),(1,0),(1,1) order."""
    return [a[:, p : 2 * h2 : 2, q : 2 * w2 : 2] for p in (0, 1) for q in (0, 1)]


class PoolRoute(NamedTuple):
    """What a 2x2/2 max pool's backward reads in place of its input x."""

    code: np.ndarray  # uint8, one per block: its first max's position 0-3, 4 for NaN
    x_shape: tuple  # x's (B, H, W, C)
    x_axes: tuple  # x's axes, outermost in memory first: d_x's layout


def maxpool_forward(x: np.ndarray, return_route: bool = False):
    """2x2/2 max pool: the elementwise max y of x's four block views; with
    `return_route`, (y, the `PoolRoute` that `maxpool_backward` reads)."""
    _, h, w, _ = x.shape
    h2, w2 = h // 2, w // 2
    if h2 == 0 or w2 == 0:
        raise ValueError(f"input {h}x{w} too small for 2x2 pooling")
    v = _quarters(x, h2, w2)
    y = np.maximum(v[0], v[1])
    np.maximum(y, v[2], out=y)
    np.maximum(y, v[3], out=y)
    if not return_route:
        return y
    # code is the index of the first view equal to y, 4 if none is (a NaN
    # block): after view k, missed holds whether views 0..k all differ from
    # y, and code sums missed over k
    code = np.not_equal(v[0], y).view(np.uint8)
    missed, ne = code.astype(bool), np.empty_like(code, dtype=bool)
    for q in v[1:]:
        np.not_equal(q, y, out=ne)
        missed &= ne
        code += missed.view(np.uint8)
    axes = tuple(sorted(range(4), key=lambda a: -x.strides[a]))
    return y, PoolRoute(code, x.shape, axes)


def maxpool_backward(d_y: np.ndarray, route: PoolRoute) -> np.ndarray:
    """Routes each d_y to the position `route.code` names in its block of d_x
    (x's shape and layout); a NaN block's code, 4, names none. The route
    stands in for x, so no max is recomputed: one compare and one copy per
    block position."""
    code, x_shape, axes = route
    d_x = np.zeros([x_shape[a] for a in axes]).transpose(np.argsort(axes))
    hit = np.empty_like(code, dtype=bool)
    bits = np.asarray(d_y, dtype=np.float64).view(np.int64)
    for k, dv in enumerate(_quarters(d_x, *code.shape[1:3])):
        np.equal(code, k, out=hit)
        # multiplying bit patterns copies d_y exactly where hit and writes +0.0
        # elsewhere; a float product would leave -0.0 (or NaN from an inf) there
        np.multiply(bits, hit, out=dv.view(np.int64))
    return d_x


def relu_forward(x):
    return np.maximum(x, 0.0)


def relu_backward(d_y, y):
    """Takes the output: y > 0 exactly where x > 0, since ReLU passes positives,
    keeps NaN (not > 0) and maps the rest, -0.0 included, to a zero."""
    return d_y * (y > 0)


def sigmoid_forward(x):
    """Each side of 0 takes the formula whose exp() cannot overflow: with
    e = exp(min(x, -x)), 1 / (1 + e) where x >= 0 and e / (1 + e) elsewhere.
    min, not -|x|, keeps a NaN's sign."""
    e = np.exp(np.minimum(x, -x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


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
    """Returns (y, mask); eval mode and rate 0 are exact identities. The mask
    is drawn in C order; y (and d_x) keep x's layout, channel-major after a conv."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not train or rate == 0.0:
        return x, None
    mask = rng.random(x.shape) >= rate
    y = np.multiply(x, mask, out=np.empty_like(x))
    y /= 1.0 - rate
    return y, mask


def dropout_backward(d_y, mask, rate: float):
    if mask is None:
        return d_y
    d_x = np.multiply(d_y, mask, out=np.empty_like(d_y))
    d_x /= 1.0 - rate
    return d_x


def gap_forward(x: np.ndarray) -> np.ndarray:
    """Per-channel spatial mean: (B,H,W,C) -> (B,C)."""
    return x.mean(axis=(1, 2))


def gap_backward(d_y: np.ndarray, in_shape) -> np.ndarray:
    """Spreads d_y / (H*W) over each map: a read-only broadcast view, which
    allocates nothing. A multiplication layer after a pooled forward reads
    one position of it per image; the maps path multiplies it into y's layout."""
    _, h, w, _ = in_shape
    return np.broadcast_to((d_y / (h * w))[:, None, None, :], in_shape)


def softmax_xent(logits: np.ndarray, labels: np.ndarray):
    """Softmax cross-entropy of (B, C) logits against B integer labels in 0..C-1.

    Returns per-sample losses, -log softmax(logits)[b, labels[b]], and the
    gradient of their sum: softmax(logits) less 1 at each label.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(logits)):
        raise ValueError("non-finite logits")
    labels = np.asarray(labels)
    if (labels.shape != logits.shape[:1] or labels.dtype.kind not in "iu"
            or labels.min() < 0 or labels.max() >= logits.shape[1]):
        raise ValueError("label outside class range")
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_p = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    rows = np.arange(len(labels))
    d_logits = np.exp(log_p)
    d_logits[rows, labels] -= 1.0
    return -log_p[rows, labels], d_logits
