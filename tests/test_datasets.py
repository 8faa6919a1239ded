import struct

import numpy as np
import pytest

from tmlnet.datasets import (
    Dataset,
    StripeSpec,
    batches,
    gen_stripe_dataset,
    load_dataset_dir,
    load_idx_images,
    load_idx_labels,
    stripe_pattern,
    write_idx_images,
    write_idx_labels,
)
from tmlnet.hlac import default_mask_set, hlac_vector


def make_idx_image_file(path, images_u8):
    arr = np.asarray(images_u8, dtype=np.uint8)
    n, rows, cols = arr.shape
    path.write_bytes(struct.pack(">4I", 0x00000803, n, rows, cols) + arr.tobytes())


def make_idx_label_file(path, labels):
    path.write_bytes(struct.pack(">2I", 0x00000801, len(labels)) + bytes(labels))


class TestIdxLoad:
    def test_hand_encoded_image(self, tmp_path):
        p = tmp_path / "img.idx"
        make_idx_image_file(p, [[[0, 255], [128, 64]]])
        (img,) = load_idx_images(p)
        assert img.shape == (2, 2, 1)
        np.testing.assert_allclose(
            img[:, :, 0], [[0.0, 1.0], [128 / 255, 64 / 255]]
        )
        # the documented 5-decimal values
        assert img[1, 0, 0] == pytest.approx(0.50196, abs=5e-6)
        assert img[1, 1, 0] == pytest.approx(0.25098, abs=5e-6)

    def test_hand_encoded_labels(self, tmp_path):
        p = tmp_path / "lab.idx"
        make_idx_label_file(p, [3])
        assert load_idx_labels(p) == [3]

    def test_wrong_magic_rejected(self, tmp_path):
        p = tmp_path / "bad.idx"
        make_idx_image_file(p, [[[0]]])
        blob = bytearray(p.read_bytes())
        blob[3] = 0x99
        p.write_bytes(bytes(blob))
        with pytest.raises(ValueError):
            load_idx_images(p)
        with pytest.raises(ValueError):
            load_idx_labels(p)

    def test_truncated_rejected(self, tmp_path):
        p = tmp_path / "short.idx"
        make_idx_image_file(p, [[[1, 2], [3, 4]]])
        p.write_bytes(p.read_bytes()[:-1])
        with pytest.raises(ValueError):
            load_idx_images(p)

    def test_trailing_bytes_rejected(self, tmp_path):
        p = tmp_path / "long.idx"
        make_idx_image_file(p, [[[1, 2], [3, 4]]])
        p.write_bytes(p.read_bytes() + b"\x00")
        with pytest.raises(ValueError):
            load_idx_images(p)


    def test_header_larger_than_the_file_rejected(self, tmp_path):
        # a 26-byte file claiming 2^20 images of 1024x1024 (1 TiB) must not
        # be read into memory
        p = tmp_path / "huge.idx"
        p.write_bytes(struct.pack(">4I", 0x00000803, 2**20, 1024, 1024) + bytes(10))
        with pytest.raises(ValueError, match="1048576x1024x1024 need"):
            load_idx_images(p)
        p.write_bytes(struct.pack(">2I", 0x00000801, 2**32 - 1) + bytes(10))
        with pytest.raises(ValueError, match="4294967295 need"):
            load_idx_labels(p)

    def test_loaders_return_arrays(self, tmp_path):
        images, labels = tmp_path / "img.idx", tmp_path / "lab.idx"
        make_idx_image_file(images, np.arange(12, dtype=np.uint8).reshape(2, 3, 2))
        make_idx_label_file(labels, [4, 1])
        x, y = load_idx_images(images), load_idx_labels(labels)
        assert x.shape == (2, 3, 2, 1) and x.dtype == np.float64
        np.testing.assert_array_equal(x[..., 0] * 255, np.arange(12).reshape(2, 3, 2))
        assert y.dtype == np.int64 and y.tolist() == [4, 1]


class TestIdxRoundTrip:
    def test_images_byte_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        src = tmp_path / "src.idx"
        make_idx_image_file(src, rng.integers(0, 256, size=(7, 5, 4), dtype=np.uint8))
        out = tmp_path / "out.idx"
        write_idx_images(load_idx_images(src), out)
        assert out.read_bytes() == src.read_bytes()

    def test_labels_byte_exact(self, tmp_path):
        src = tmp_path / "src.idx"
        make_idx_label_file(src, [0, 9, 3, 3, 7])
        out = tmp_path / "out.idx"
        write_idx_labels(load_idx_labels(src), out)
        assert out.read_bytes() == src.read_bytes()


class TestStripes:
    def test_paper_counts(self):
        spec = StripeSpec(samples_per_class=100, rng_seed=1)
        train, test = gen_stripe_dataset(spec)
        assert len(train) == 600
        assert len(test) == 600
        assert train.images.shape == (600, 32, 32, 1)
        assert sorted(set(train.labels.tolist())) == list(range(6))

    def test_zero_noise_gives_clean_pattern(self):
        spec = StripeSpec(canvas=64, crop=16, samples_per_class=5, noise_amplitude=0.0)
        train, _ = gen_stripe_dataset(spec)
        values = np.unique(train.images)
        assert set(values.tolist()) <= {0.0, 1.0}

    def test_pixels_bounded(self):
        spec = StripeSpec(canvas=128, crop=32, samples_per_class=10, rng_seed=2)
        train, test = gen_stripe_dataset(spec)
        for ds in (train, test):
            assert ds.images.min() >= 0.0
            assert ds.images.max() <= 1.0

    def test_seeded_determinism(self):
        spec = StripeSpec(canvas=128, crop=16, samples_per_class=6, rng_seed=7)
        a_train, a_test = gen_stripe_dataset(spec)
        b_train, b_test = gen_stripe_dataset(spec)
        np.testing.assert_array_equal(a_train.images, b_train.images)
        np.testing.assert_array_equal(a_test.images, b_test.images)
        np.testing.assert_array_equal(a_train.labels, b_train.labels)

    def test_splits_are_independent(self):
        spec = StripeSpec(canvas=128, crop=16, samples_per_class=6, rng_seed=7)
        train, test = gen_stripe_dataset(spec)
        assert not np.array_equal(train.images, test.images)

    def test_pattern_styles_differ(self):
        pats = [stripe_pattern(c, 16) for c in range(6)]
        for i in range(6):
            for j in range(i + 1, 6):
                assert not np.array_equal(pats[i], pats[j])

    def test_crop_larger_than_canvas_rejected(self):
        with pytest.raises(ValueError):
            StripeSpec(canvas=16, crop=32)

    def test_hlac_centroid_separates_classes(self):
        # statistical smoke test: nearest centroid on auto-correlation
        # features beats chance by a wide margin
        spec = StripeSpec(canvas=128, crop=16, samples_per_class=15, rng_seed=3)
        train, test = gen_stripe_dataset(spec)
        masks = default_mask_set()
        feats = lambda ds: np.stack([hlac_vector(im, masks) for im in ds.images])
        f_train, f_test = feats(train), feats(test)
        mu = f_train.mean(axis=0)
        sd = f_train.std(axis=0) + 1e-9
        f_train = (f_train - mu) / sd
        f_test = (f_test - mu) / sd
        centroids = np.stack(
            [f_train[train.labels == c].mean(axis=0) for c in range(spec.num_classes)]
        )
        d = ((f_test[:, None, :] - centroids[None]) ** 2).sum(axis=2)
        acc = (d.argmin(axis=1) == test.labels).mean()
        assert acc > 2.0 / spec.num_classes


class TestBatches:
    def ds(self, n):
        return Dataset(np.arange(n * 4.0).reshape(n, 2, 2, 1), np.arange(n) % 3)

    def test_batch_sizes(self):
        sizes = [len(yb) for _, yb in batches(self.ds(10), 4, np.random.default_rng(0))]
        assert sizes == [4, 4, 2]

    def test_singleton_batches_cover_all(self):
        ds = self.ds(6)
        got = [xb[0, 0, 0, 0] for xb, _ in batches(ds, 1, np.random.default_rng(1))]
        assert sorted(got) == sorted(ds.images[:, 0, 0, 0].tolist())
        assert got != ds.images[:, 0, 0, 0].tolist()  # shuffled for this seed

    def test_same_seed_same_order(self):
        ds = self.ds(9)
        a = [yb.tolist() for _, yb in batches(ds, 2, np.random.default_rng(5))]
        b = [yb.tolist() for _, yb in batches(ds, 2, np.random.default_rng(5))]
        assert a == b


def test_dataset_dir_round_trip(tmp_path):
    spec = StripeSpec(canvas=64, crop=16, samples_per_class=3, rng_seed=4)
    train, test = gen_stripe_dataset(spec)
    write_idx_images(list(train.images), tmp_path / "train-images.idx")
    write_idx_labels(train.labels.tolist(), tmp_path / "train-labels.idx")
    write_idx_images(list(test.images), tmp_path / "test-images.idx")
    write_idx_labels(test.labels.tolist(), tmp_path / "test-labels.idx")
    tr, te = load_dataset_dir(tmp_path)
    assert len(tr) == len(train) and len(te) == len(test)
    # u8 quantization: equal after one round trip through the writer
    np.testing.assert_allclose(tr.images, train.images, atol=0.5 / 255 + 1e-12)
    np.testing.assert_array_equal(tr.labels, train.labels)
