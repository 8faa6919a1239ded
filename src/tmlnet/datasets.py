"""Dataset handling: IDX container parsing/writing, the synthetic stripe
texture generator, and batch iteration.

IDX files are parsed bit-exactly: big-endian magic (0x00000803 for image
files, 0x00000801 for label files), big-endian u32 dimensions, then raw u8
payload. A file is read whole and must be exactly as long as its header and
the product of its dimensions, so a header cannot ask for more memory than
the file holds. Pixels map to [0, 1] by dividing by 255; the writer inverts
that mapping with round-half-up so load -> write reproduces a file byte for
byte.

The stripe set draws one periodic line pattern per class on a large black
canvas, adds uniform noise, clamps to [0, 1], and cuts random crops; test
crops come from an independently generated canvas (fresh noise and crop
positions over the same pattern). No canvas is built: per class and split,
one reused canvas-sized buffer takes the noise draw, the crop positions are
drawn, and each crop is computed from its own window as
clip(pattern[win] + amplitude * noise[win], 0, 1), straight into the split's
image array. Every operation is elementwise on float64 and IEEE addition
commutes exactly, so each pixel goes through the very operations it went
through on a whole clipped canvas, and a crop equals the crop of that canvas
bit for bit. The RNG draws (noise, tops, lefts; class by class, train before
test) are the canvas version's, so a seed gives the same set. A pattern is
one period x period tile repeated: its phase (row, column, row + column or
row - column) mod the period depends only on row and column mod the period.
So the pattern window at (top, left) is the one at (top mod period,
left mod period), and crops read it from a pattern crop + period - 1 wide.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801
IDX_WRITE_CHUNK = 64  # images converted to u8 at a time

# (orientation degrees, period px) per class; intensity 1.0, thickness 2 px.
STRIPE_STYLES = [
    (0, 4),
    (90, 4),
    (45, 4),
    (135, 4),
    (0, 8),
    (90, 8),
    (45, 8),
    (135, 8),
]
STRIPE_THICKNESS = 2


@dataclass
class Dataset:
    """Stacked images (N, rows, cols, channels) with integer labels (N,)."""

    images: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.images.ndim != 4 or len(self.images) != len(self.labels):
            raise ValueError("dataset needs (N,h,w,c) images and N labels")

    def __len__(self) -> int:
        return len(self.labels)

    def subset(self, n: int) -> "Dataset":
        return Dataset(self.images[:n], self.labels[:n])


# ---------------------------------------------------------------------------
# IDX container
# ---------------------------------------------------------------------------


def _read_idx(path, magic: int, ndim: int, what: str) -> np.ndarray:
    """The u8 payload of an IDX file, shaped by its `ndim` dimensions."""
    with open(path, "rb") as f:
        blob = f.read()
    header = 4 * (1 + ndim)
    if len(blob) < header:
        raise ValueError(f"{path}: truncated IDX header")
    found, *dims = struct.unpack(f">{1 + ndim}I", blob[:header])
    if found != magic:
        raise ValueError(f"{path}: bad IDX {what} magic 0x{found:08x}")
    if len(blob) != header + math.prod(dims):
        raise ValueError(
            f"{path}: IDX dimensions {'x'.join(map(str, dims))} need "
            f"{header + math.prod(dims)} bytes, the file has {len(blob)}"
        )
    return np.frombuffer(blob, dtype=np.uint8, offset=header).reshape(dims)


def load_idx_images(path) -> np.ndarray:
    """Parse an IDX image file into (N, rows, cols, 1) float64 in [0, 1]."""
    raw = _read_idx(path, IDX_IMAGE_MAGIC, 3, "image")
    if 0 in raw.shape[1:]:
        raise ValueError(f"{path}: empty IDX image size {raw.shape[1]}x{raw.shape[2]}")
    return np.divide(raw, 255.0, dtype=np.float64)[..., None]


def load_idx_labels(path) -> np.ndarray:
    """Parse an IDX label file into int64 (N,)."""
    return _read_idx(path, IDX_LABEL_MAGIC, 1, "label").astype(np.int64)


def to_u8(values: np.ndarray) -> np.ndarray:
    """[0, 1] floats -> u8 with clamping and round-half-up, so b/255 -> b
    survives the round trip exactly."""
    scaled = np.clip(values, 0.0, 1.0)
    scaled *= 255.0
    scaled += 0.5
    return np.floor(scaled, out=scaled).astype(np.uint8)


def write_idx_images(images, path) -> None:
    """Inverse of load_idx_images for [0, 1] images, given as an (N, rows,
    cols[, 1]) array or a sequence of (rows, cols[, 1]) images. Every image is
    checked (one size, one channel, every pixel finite) and converted before the
    file is opened, so a rejected input leaves no partial file."""
    if len(images) == 0:
        raise ValueError("cannot write an empty IDX image file")
    rows, cols = np.shape(images[0])[:2]
    for i, im in enumerate(images):
        shape = np.shape(im)
        if shape[:2] != (rows, cols):
            raise ValueError(
                f"IDX images must share one size: image {i} is {shape[0]}x{shape[1]}, "
                f"image 0 is {rows}x{cols}"
            )
        if math.prod(shape[2:]) != 1:
            raise ValueError(f"IDX image {i} has {math.prod(shape[2:])} channels; IDX holds one")
    payload = np.empty((len(images), rows, cols), dtype=np.uint8)
    for start in range(0, len(images), IDX_WRITE_CHUNK):
        # a view of an array's images; a sequence's are stacked here
        chunk = np.asarray(images[start : start + IDX_WRITE_CHUNK])
        chunk = chunk.reshape(len(chunk), rows, cols)
        if not (np.isfinite(chunk.min()) and np.isfinite(chunk.max())):  # NaN, or an inf
            bad = start + int((~np.isfinite(chunk)).any(axis=(1, 2)).argmax())
            raise ValueError(f"IDX image {bad} has NaN or infinite pixels")
        payload[start : start + len(chunk)] = to_u8(chunk)
    with open(path, "wb") as f:
        f.write(struct.pack(">4I", IDX_IMAGE_MAGIC, len(images), rows, cols))
        f.write(payload.tobytes())


def write_idx_labels(labels, path) -> None:
    with open(path, "wb") as f:
        f.write(struct.pack(">2I", IDX_LABEL_MAGIC, len(labels)))
        f.write(bytes(int(v) for v in labels))


def load_dataset_dir(directory) -> tuple[Dataset, Dataset]:
    """Read the four-file layout that `gen-stripes` writes: train-images.idx,
    train-labels.idx, test-images.idx, test-labels.idx. Each split must hold
    an image, and both splits' images must have one shape."""

    def one(split):
        images = load_idx_images(os.path.join(directory, f"{split}-images.idx"))
        labels = load_idx_labels(os.path.join(directory, f"{split}-labels.idx"))
        if len(images) == 0:
            raise ValueError(f"{directory}: {split} split has no images")
        if len(images) != len(labels):
            raise ValueError(f"{directory}: {split} image/label counts differ")
        return Dataset(images, labels)

    train, test = one("train"), one("test")
    if train.images.shape[1:] != test.images.shape[1:]:
        shapes = ["x".join(map(str, ds.images.shape[1:])) for ds in (train, test)]
        raise ValueError(f"{directory}: train images are {shapes[0]}, test images {shapes[1]}")
    return train, test


# ---------------------------------------------------------------------------
# synthetic stripe textures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StripeSpec:
    num_classes: int = 6
    canvas: int = 1024
    crop: int = 32
    noise_amplitude: float = 1.0
    samples_per_class: int = 100
    rng_seed: int = 0

    def __post_init__(self):
        if self.crop < 1:
            raise ValueError(f"crop size must be at least 1, got {self.crop}")
        if self.crop > self.canvas:
            raise ValueError("crop size exceeds canvas size")
        if not 1 <= self.num_classes <= len(STRIPE_STYLES):
            raise ValueError(f"num_classes must be in 1..{len(STRIPE_STYLES)}")
        if self.samples_per_class < 1:
            raise ValueError("samples_per_class must be positive")
        if not 0 <= self.noise_amplitude < np.inf:  # also rejects NaN
            raise ValueError(
                f"noise_amplitude must be finite and nonnegative, got {self.noise_amplitude!r}"
            )


def stripe_pattern(cls: int, size: int) -> np.ndarray:
    """Clean periodic line pattern for one class: 1.0 on stripes, 0.0 off."""
    angle, period = STRIPE_STYLES[cls]
    r = np.arange(period)[:, None]
    c = np.arange(period)[None, :]
    if angle == 0:
        phase = np.broadcast_to(r, (period, period))
    elif angle == 90:
        phase = np.broadcast_to(c, (period, period))
    elif angle == 45:
        phase = r + c
    else:  # 135
        phase = r - c
    tile = (np.mod(phase, period) < STRIPE_THICKNESS).astype(np.float64)
    reps = -(-size // period)
    return np.tile(tile, (reps, reps))[:size, :size]


def gen_stripe_dataset(spec: StripeSpec) -> tuple[Dataset, Dataset]:
    """Per class: noisy canvas -> samples_per_class random crops, for a train
    and an independently generated test split (see the module docstring)."""
    rng = np.random.default_rng(spec.rng_seed)
    n, size = spec.samples_per_class, spec.crop
    span = spec.canvas - size + 1
    images = {split: np.empty((spec.num_classes * n, size, size, 1)) for split in ("train", "test")}
    noise = np.empty((spec.canvas, spec.canvas))
    noise_windows = sliding_window_view(noise, (size, size))
    for cls in range(spec.num_classes):
        # the pattern repeats with its period, so the window at (t, l) is
        # the one at (t mod period, l mod period)
        period = STRIPE_STYLES[cls][1]
        pattern = stripe_pattern(cls, size + period - 1)
        pattern_windows = sliding_window_view(pattern, (size, size))
        for split in ("train", "test"):
            rng.random(out=noise)
            tops = rng.integers(0, span, size=n)
            lefts = rng.integers(0, span, size=n)
            out = images[split][cls * n : (cls + 1) * n, :, :, 0]
            np.multiply(noise_windows[tops, lefts], spec.noise_amplitude, out=out)
            out += pattern_windows[tops % period, lefts % period]
            np.clip(out, 0.0, 1.0, out=out)
    labels = np.repeat(np.arange(spec.num_classes), n)
    return Dataset(images["train"], labels), Dataset(images["test"], labels.copy())


def batches(ds: Dataset, batch_size: int, rng: np.random.Generator):
    """Seeded shuffled minibatches; the final short batch is emitted too."""
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    order = rng.permutation(len(ds))
    for start in range(0, len(ds), batch_size):
        idx = order[start : start + batch_size]
        yield ds.images[idx], ds.labels[idx]
