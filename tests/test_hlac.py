import numpy as np
import pytest

from tmlnet.hlac import (
    DisplacementSet,
    MaskSet,
    default_mask_set,
    hlac_feature,
    hlac_vector,
    mask_extent,
    masks_to_binary_kernels,
    write_features_csv,
)
from tmlnet.tml import forward_batch


def brute_force_hlac(img, offsets):
    """Triple-loop oracle, written directly from the defining sum."""
    n1, n2 = img.shape
    total = 0.0
    for r in range(n1):
        for c in range(n2):
            ok = all(0 <= r + dr < n1 and 0 <= c + dc < n2 for dr, dc in offsets)
            if not ok:
                continue
            prod = img[r, c]
            for dr, dc in offsets:
                prod *= img[r + dr, c + dc]
            total += prod
    return total


class TestHlacFeature:
    def test_order_zero_is_pixel_sum(self):
        img = np.ones((2, 2))
        assert hlac_feature(img, DisplacementSet(())) == 4.0

    def test_first_order_hand_example(self):
        img = np.array([[1.0, 2.0], [3.0, 4.0]])
        # positions with a right neighbor: 1*2 + 3*4 = 14
        assert hlac_feature(img, DisplacementSet(((0, 1),))) == 14.0

    def test_zero_image(self):
        img = np.zeros((5, 5))
        assert hlac_feature(img, DisplacementSet(((1, 1), (-1, 0)))) == 0.0

    def test_oversized_displacement_returns_zero(self):
        img = np.ones((3, 3))
        assert hlac_feature(img, DisplacementSet(((0, 5),))) == 0.0
        assert hlac_feature(img, DisplacementSet(((-4, 0),))) == 0.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        img = rng.random((7, 6))
        for offsets in [(), ((0, 1),), ((1, 0), (0, 1)), ((-1, -1), (1, 1)), ((2, 0), (0, 2))]:
            d = DisplacementSet(offsets)
            assert hlac_feature(img, d) == pytest.approx(brute_force_hlac(img, offsets))

    def test_transposition_invariance(self):
        rng = np.random.default_rng(4)
        img = rng.random((5, 8))
        for offsets in [((0, 1),), ((1, 1), (0, 1)), ((2, -1),)]:
            d = DisplacementSet(offsets)
            d_t = DisplacementSet(tuple((c, r) for r, c in offsets))
            assert hlac_feature(img, d) == pytest.approx(hlac_feature(img.T.copy(), d_t))

    def test_rejects_multichannel(self):
        with pytest.raises(ValueError):
            hlac_feature(np.ones((3, 3, 2)), DisplacementSet(()))


class TestHlacVector:
    def test_single_empty_mask_gives_pixel_sum(self):
        img = np.arange(6.0).reshape(2, 3)
        v = hlac_vector(img, MaskSet((DisplacementSet(()),)))
        assert v.shape == (1,)
        assert v[0] == 15.0

    def test_concatenation_matches_per_mask_calls(self):
        rng = np.random.default_rng(5)
        img = rng.random((6, 6))
        masks = MaskSet((DisplacementSet(((0, 1),)), DisplacementSet(((1, 0), (1, 1)))))
        v = hlac_vector(img, masks)
        assert np.array_equal(
            v, [hlac_feature(img, masks.masks[0]), hlac_feature(img, masks.masks[1])]
        )

    def test_default_set_matches_brute_force_on_binary_image(self):
        rng = np.random.default_rng(6)
        img = (rng.random((8, 8)) > 0.5).astype(np.float64)
        masks = default_mask_set()
        v = hlac_vector(img, masks)
        expected = [brute_force_hlac(img, m.offsets) for m in masks.masks]
        np.testing.assert_allclose(v, expected)

    def test_multichannel_channel_major_concat(self):
        rng = np.random.default_rng(7)
        img = rng.random((5, 5, 2))
        masks = MaskSet((DisplacementSet(()), DisplacementSet(((0, 1),))))
        v = hlac_vector(img, masks)
        assert v.shape == (4,)
        np.testing.assert_array_equal(v[:2], hlac_vector(img[:, :, 0], masks))
        np.testing.assert_array_equal(v[2:], hlac_vector(img[:, :, 1], masks))


class TestMaskSet:
    def test_default_set_has_25_masks(self):
        masks = default_mask_set()
        assert len(masks) == 25
        by_order = {}
        for m in masks.masks:
            by_order[m.order] = by_order.get(m.order, 0) + 1
        assert by_order == {0: 1, 1: 4, 2: 20}

    def test_default_set_fits_3x3(self):
        for m in default_mask_set().masks:
            h, w = mask_extent(m)
            assert h <= 3 and w <= 3

    def test_duplicate_multisets_rejected(self):
        # (0,1) and (0,-1) are the same two-point pattern up to translation
        with pytest.raises(ValueError):
            MaskSet((DisplacementSet(((0, 1),)), DisplacementSet(((0, -1),))))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MaskSet(())


class TestBinaryKernels:
    def test_empty_mask_is_origin_only(self):
        k = masks_to_binary_kernels(MaskSet((DisplacementSet(()),)), 1, 1)
        assert k.weights.shape == (1, 1, 1, 1)
        assert k.weights[0, 0, 0, 0] == 1.0

    def test_right_neighbor_mask(self):
        k = masks_to_binary_kernels(MaskSet((DisplacementSet(((0, 1),)),)), 1, 2)
        np.testing.assert_array_equal(k.weights[0, :, 0, 0], [1.0, 1.0])

    def test_repeated_displacement_accumulates_exponent(self):
        k = masks_to_binary_kernels(MaskSet((DisplacementSet(((0, 1), (0, 1))),)), 1, 2)
        np.testing.assert_array_equal(k.weights[0, :, 0, 0], [1.0, 2.0])

    def test_out_of_bounds_mask_rejected(self):
        with pytest.raises(ValueError):
            masks_to_binary_kernels(MaskSet((DisplacementSet(((0, 2),)),)), 1, 2)

    def test_negative_offsets_are_origin_anchored(self):
        k = masks_to_binary_kernels(MaskSet((DisplacementSet(((-1, -1),)),)), 2, 2)
        np.testing.assert_array_equal(k.weights[:, :, 0, 0], [[1.0, 0.0], [0.0, 1.0]])


class TestTmlEquivalence:
    def test_mean_times_position_count_equals_hlac(self):
        # With a binary kernel that tightly bounds the mask, the layer's valid
        # positions coincide with the legal HLAC positions, so output mean
        # times position count must reproduce the feature.
        rng = np.random.default_rng(8)
        masks = default_mask_set()
        for _ in range(5):
            img = rng.uniform(0.05, 1.0, size=(16, 16, 1))
            for mask in masks.masks:
                h, w = mask_extent(mask)
                kernels = masks_to_binary_kernels(MaskSet((mask,)), h, w, eps=1e-12)
                y = forward_batch(img[None], kernels)[0]
                count = y.shape[0] * y.shape[1]
                got = y[:, :, 0].mean() * count
                want = hlac_feature(img, mask)
                assert got == pytest.approx(want, rel=1e-9)


def test_write_features_csv(tmp_path):
    path = tmp_path / "features.csv"
    write_features_csv([[1.0, 2.5], [0.125, 3.0]], path)
    lines = path.read_text().strip().splitlines()
    assert lines == ["1.0,2.5", "0.125,3.0"]
