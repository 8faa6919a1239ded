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
positions over the same pattern).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801

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
    return (raw.astype(np.float64) / 255.0)[..., None]


def load_idx_labels(path) -> np.ndarray:
    """Parse an IDX label file into int64 (N,)."""
    return _read_idx(path, IDX_LABEL_MAGIC, 1, "label").astype(np.int64)


def to_u8(values: np.ndarray) -> np.ndarray:
    """[0, 1] floats -> u8 with clamping and round-half-up, so b/255 -> b
    survives the round trip exactly."""
    return np.floor(np.clip(values, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)


def write_idx_images(images, path) -> None:
    """Inverse of load_idx_images for [0, 1] image tensors."""
    imgs = [np.asarray(im) for im in images]
    if not imgs:
        raise ValueError("cannot write an empty IDX image file")
    rows, cols = imgs[0].shape[0], imgs[0].shape[1]
    with open(path, "wb") as f:
        f.write(struct.pack(">4I", IDX_IMAGE_MAGIC, len(imgs), rows, cols))
        for im in imgs:
            if im.shape[0] != rows or im.shape[1] != cols:
                raise ValueError("IDX images must share one size")
            f.write(to_u8(im.reshape(rows, cols, -1)[:, :, 0]).tobytes())


def write_idx_labels(labels, path) -> None:
    with open(path, "wb") as f:
        f.write(struct.pack(">2I", IDX_LABEL_MAGIC, len(labels)))
        f.write(bytes(int(v) for v in labels))


def load_dataset_dir(directory) -> tuple[Dataset, Dataset]:
    """Read the four-file layout produced by `gen-stripes` / the fetch script:
    train-images.idx, train-labels.idx, test-images.idx, test-labels.idx."""
    import os

    def one(split):
        images = load_idx_images(os.path.join(directory, f"{split}-images.idx"))
        labels = load_idx_labels(os.path.join(directory, f"{split}-labels.idx"))
        if len(images) != len(labels):
            raise ValueError(f"{directory}: {split} image/label counts differ")
        return Dataset(images, labels)

    return one("train"), one("test")


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
    r = np.arange(size)[:, None]
    c = np.arange(size)[None, :]
    if angle == 0:
        phase = np.broadcast_to(r, (size, size))
    elif angle == 90:
        phase = np.broadcast_to(c, (size, size))
    elif angle == 45:
        phase = r + c
    else:  # 135
        phase = r - c
    return (np.mod(phase, period) < STRIPE_THICKNESS).astype(np.float64)


def _crops(canvas_img, spec, count, rng):
    span = spec.canvas - spec.crop + 1
    tops = rng.integers(0, span, size=count)
    lefts = rng.integers(0, span, size=count)
    return [
        canvas_img[t : t + spec.crop, l : l + spec.crop, None].copy()
        for t, l in zip(tops, lefts)
    ]


def gen_stripe_dataset(spec: StripeSpec) -> tuple[Dataset, Dataset]:
    """Per class: noisy canvas -> samples_per_class random crops, for a train
    and an independently generated test split."""
    rng = np.random.default_rng(spec.rng_seed)
    splits = {"train": ([], []), "test": ([], [])}
    for cls in range(spec.num_classes):
        pattern = stripe_pattern(cls, spec.canvas)
        for split in ("train", "test"):
            canvas = pattern + spec.noise_amplitude * rng.random((spec.canvas, spec.canvas))
            np.clip(canvas, 0.0, 1.0, out=canvas)
            images, labels = splits[split]
            images.extend(_crops(canvas, spec, spec.samples_per_class, rng))
            labels.extend([cls] * spec.samples_per_class)
    out = []
    for split in ("train", "test"):
        images, labels = splits[split]
        out.append(Dataset(np.stack(images), np.asarray(labels)))
    return out[0], out[1]


def batches(ds: Dataset, batch_size: int, rng: np.random.Generator):
    """Seeded shuffled minibatches; the final short batch is emitted too."""
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    order = rng.permutation(len(ds))
    for start in range(0, len(ds), batch_size):
        idx = order[start : start + batch_size]
        yield ds.images[idx], ds.labels[idx]
