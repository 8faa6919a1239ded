"""Higher-order local auto-correlation (HLAC) features.

An HLAC feature for displacements a_1..a_L sums, over every image position r
whose displaced partners all stay inside the image, the product
f(r) * f(r+a_1) * ... * f(r+a_L). The classical feature vector evaluates a
fixed family of displacement patterns ("masks"); `default_mask_set` builds
the standard 25 patterns of order <= 2 that fit in a 3x3 window.

This module doubles as the correctness oracle for the trainable
multiplication layer: a mask converted to a binary exponent kernel makes the
layer compute exactly the HLAC integrand at every valid position. It returns
plain weight arrays and imports nothing from `tml`, the code it checks; the
caller pairs a bank with its constants.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import combinations

import numpy as np

Offset = tuple[int, int]


@dataclass(frozen=True)
class DisplacementSet:
    """Ordered displacements a_1..a_L of one autocorrelation term (order L = len)."""

    offsets: tuple[Offset, ...]

    def __post_init__(self):
        offs = tuple((int(r), int(c)) for r, c in self.offsets)
        object.__setattr__(self, "offsets", offs)

    @property
    def order(self) -> int:
        return len(self.offsets)

    def points(self) -> tuple[Offset, ...]:
        """The multiset of mask points: the origin plus every displacement."""
        return ((0, 0),) + self.offsets


def _anchored(d: DisplacementSet) -> tuple[Offset, ...]:
    """The mask's points in order, shifted so the smallest row and column are 0."""
    pts = d.points()
    r0 = min(p[0] for p in pts)
    c0 = min(p[1] for p in pts)
    return tuple((r - r0, c - c0) for r, c in pts)


def _canonical_points(d: DisplacementSet) -> tuple[Offset, ...]:
    """Translation-normalized, sorted point multiset; equal iff masks are duplicates."""
    return tuple(sorted(_anchored(d)))


@dataclass(frozen=True)
class MaskSet:
    """A family of displacement sets, duplicate-free up to translated multisets."""

    masks: tuple[DisplacementSet, ...]

    def __post_init__(self):
        if not self.masks:
            raise ValueError("MaskSet must contain at least one mask")
        seen = set()
        for m in self.masks:
            key = _canonical_points(m)
            if key in seen:
                raise ValueError(f"duplicate displacement multiset: {m.offsets}")
            seen.add(key)

    def __len__(self) -> int:
        return len(self.masks)


def default_mask_set() -> MaskSet:
    """The 25 standard masks: orders 0-2, distinct points, within a 3x3 window.

    Enumerates every choice of zero, one, or two distinct nonzero displacements
    from the 8-neighborhood and drops patterns that are translations of an
    earlier one (e.g. {(0,1)} and {(0,-1)} describe the same two-point
    pattern). Yields 1 + 4 + 20 = 25 masks.
    """
    neighborhood = [(r, c) for r in (-1, 0, 1) for c in (-1, 0, 1) if (r, c) != (0, 0)]
    candidates = [()]
    candidates += [(a,) for a in neighborhood]
    candidates += list(combinations(neighborhood, 2))
    masks, seen = [], set()
    for offs in candidates:
        d = DisplacementSet(tuple(offs))
        key = _canonical_points(d)
        if key not in seen:
            seen.add(key)
            masks.append(d)
    return MaskSet(tuple(masks))


def hlac_feature(img: np.ndarray, d: DisplacementSet) -> float:
    """R_L for one mask on a single-channel image.

    Sums f(r) * prod_l f(r + a_l) over all r for which every displaced
    coordinate stays inside the image; returns 0 when no position qualifies.
    """
    img = np.asarray(img, dtype=np.float64)
    if img.ndim == 3:
        if img.shape[2] != 1:
            raise ValueError("hlac_feature expects a single-channel image")
        img = img[:, :, 0]
    h, w = mask_extent(d)
    out_h, out_w = img.shape[0] - h + 1, img.shape[1] - w + 1
    if out_h < 1 or out_w < 1:
        return 0.0
    prod = np.ones((out_h, out_w))
    for r, c in _anchored(d):
        prod *= img[r : r + out_h, c : c + out_w]
    return float(prod.sum())


def hlac_vector(img: np.ndarray, masks: MaskSet) -> np.ndarray:
    """Feature vector over a mask set; multi-channel images are processed
    channel by channel and concatenated (channel-major order)."""
    img = np.asarray(img, dtype=np.float64)
    if img.ndim == 2:
        img = img[:, :, None]
    out = []
    for k in range(img.shape[2]):
        ch = img[:, :, k]
        out.extend(hlac_feature(ch, m) for m in masks.masks)
    return np.array(out)


def masks_to_binary_kernels(masks: MaskSet, kernel_h: int, kernel_w: int) -> np.ndarray:
    """Convert masks to a (kernel_h, kernel_w, 1, len(masks)) array of exponent
    kernels: weight 1 at the origin and at each displaced cell (repeated
    displacements accumulate), 0 elsewhere.

    Every mask's points are shifted to nonnegative coordinates and must fit in
    kernel_h x kernel_w. The bank is returned unprojected; it is meant for
    fixed-pattern use, not for constrained training.
    """
    weights = np.zeros((kernel_h, kernel_w, 1, len(masks)))
    for m, d in enumerate(masks.masks):
        h, w = mask_extent(d)
        if h > kernel_h or w > kernel_w:
            raise ValueError(
                f"mask {d.offsets} spans {h}x{w}, exceeding kernel {kernel_h}x{kernel_w}"
            )
        for r, c in _anchored(d):
            weights[r, c, 0, m] += 1.0
    return weights


def mask_extent(d: DisplacementSet) -> tuple[int, int]:
    """Tight bounding-box size (h, w) of the mask's points."""
    pts = _anchored(d)
    return max(r for r, _c in pts) + 1, max(c for _r, c in pts) + 1


def write_features_csv(rows, path) -> None:
    """Write one HLAC feature vector per image as a CSV row."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        for row in rows:
            writer.writerow([repr(float(v)) for v in row])
