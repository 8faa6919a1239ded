"""Grayscale renderers for kernels, feature maps, and co-occurrence overlays,
plus a byte-exact binary PGM writer.

An image is a (height, width) uint8 array; the renderers return one and
`write_pgm` writes one. Nothing in the package reads PGM back, so the tests
check the written bytes against the layout below.

Kernel heatmaps normalize weights by the clip bound C2, so black is 0 and
white is a weight at (or above) the bound. Feature maps are rescaled from
[0, 1] to [0, 255] with clamping. All quantization uses round-half-up so the
mapping is reproducible across platforms. A NaN or infinite value raises
`ValueError`: `to_u8` would write NaN as black and clamp an infinity to black
or white, so a diverged network's kernels or maps would render as a plausible
image.
"""

from __future__ import annotations

import numpy as np

from .datasets import to_u8
from .network import NetworkSpec, layer_input


def _finite_u8(values: np.ndarray, what: str) -> np.ndarray:
    """`to_u8` of values that must all be finite."""
    if not np.isfinite(values).all():
        raise ValueError(f"{what} holds NaN or inf")
    return to_u8(values)


def render_kernel_heatmap(weights: np.ndarray, c2: float, m: int, channel: int = 0) -> np.ndarray:
    """One kernel slice of a (kh, kw, channels, kernels) bank with clip bound
    `c2` as a heatmap: pixel = round(255 * clamp(w / c2, 0, 1))."""
    _kh, _kw, channels, num_kernels = weights.shape
    if not 0 <= m < num_kernels:
        raise IndexError(f"kernel index {m} out of range 0..{num_kernels - 1}")
    if not 0 <= channel < channels:
        raise IndexError(f"channel {channel} out of range 0..{channels - 1}")
    return _finite_u8(weights[:, :, channel, m] / c2, f"kernel {m}")


def render_feature_map(y: np.ndarray, m: int) -> np.ndarray:
    """Output map m rescaled from [0, 1] to [0, 255] (values above 1 clamp)."""
    y = np.asarray(y)
    if y.ndim != 3:
        raise ValueError("feature volume must be (rows, cols, maps)")
    if not 0 <= m < y.shape[2]:
        raise IndexError(f"feature map {m} out of range 0..{y.shape[2] - 1}")
    return _finite_u8(y[:, :, m], f"feature map {m}")


def upsample_nearest(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Deterministic nearest-neighbor resize: source index floor(i * in / out)."""
    in_h, in_w = img.shape
    rows = (np.arange(out_h) * in_h) // out_h
    cols = (np.arange(out_w) * in_w) // out_w
    return img[rows[:, None], cols[None, :]]


def _coocc_structure(spec: NetworkSpec):
    """Locate the multiplication layer -> gap -> fc(classes) tail; the tracing
    procedure needs the pooled kernel outputs wired straight into the
    classifier."""
    kinds = [l.kind for l in spec.layers]
    if spec.side_layers:
        raise ValueError("co-occurrence tracing needs a single-chain network")
    try:
        t = kinds.index("tml")
    except ValueError:
        raise ValueError("network has no multiplication layer") from None
    if kinds[t + 1 :] != ["gap", "fc"]:
        raise ValueError(f"co-occurrence tracing expects ... -> tml -> gap -> fc, got {kinds[t:]}")
    return t, t + 2


def cooc_heat(
    spec: NetworkSpec,
    image: np.ndarray,
    target_class: int,
    nonzero_frac: float = 0.05,
):
    """Trace the strongest co-occurrence evidence for a class.

    Runs the forward pass up to the multiplication layer, picks the kernel
    behind the largest classifier weight for the target class, selects the
    input feature maps under that kernel's above-threshold cells
    (weight > nonzero_frac * c2; a NaN, infinite or negative fraction is a
    ValueError), and averages them upsampled to the input size.

    Returns (heat, kernel_index, channel_indices).
    """
    if not 0 <= nonzero_frac < np.inf:  # also rejects NaN
        raise ValueError(f"threshold must be finite and nonnegative, got {nonzero_frac!r}")
    t_idx, fc_idx = _coocc_structure(spec)
    layer = spec.layers[t_idx]
    if not 0 <= target_class < spec.num_classes:
        raise ValueError(f"class {target_class} out of range 0..{spec.num_classes - 1}")
    x_tml = layer_input(spec, "main", t_idx, np.asarray(image)[None])
    fc_w = spec.params[fc_idx]["w"]  # (num_kernels, classes)
    m = int(np.argmax(fc_w[:, target_class]))
    bank = spec.params[t_idx]["w"]
    threshold = nonzero_frac * layer.tml.c2
    cell_max = bank[:, :, :, m].max(axis=(0, 1))  # strongest cell per channel
    channels = np.flatnonzero(cell_max > threshold)
    if channels.size == 0:
        channels = np.array([int(np.argmax(cell_max))])
    in_h, in_w, _ = spec.input_shape
    heat = np.zeros((in_h, in_w))
    for k in channels:
        heat += upsample_nearest(x_tml[0, :, :, k], in_h, in_w)
    heat /= channels.size
    return heat, m, channels


def cooc_highlight(image: np.ndarray, heat: np.ndarray) -> np.ndarray:
    """Alpha-blend a `cooc_heat` map over the input image:
    out = clamp(0.5 * input + 0.5 * heat)."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 3 or image.shape[2] != 1:
        raise ValueError("overlay rendering expects a single-channel input image")
    return _finite_u8(0.5 * image[:, :, 0] + 0.5 * heat, "overlay")


# ---------------------------------------------------------------------------
# binary PGM ("P5"), maxval 255
# ---------------------------------------------------------------------------
# Exact layout: b"P5\n<width> <height>\n255\n" followed by height*width
# pixel bytes in row-major order. A 1x1 white image is the 12 bytes
# b"P5\n1 1\n255\n\xff".


def write_pgm(pixels: np.ndarray, path) -> None:
    height, width = pixels.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        f.write(np.asarray(pixels, dtype=np.uint8).tobytes())
