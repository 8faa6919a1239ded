import hashlib
import struct
import tracemalloc

import numpy as np
import pytest

from tmlnet.datasets import (
    IDX_WRITE_CHUNK,
    STRIPE_STYLES,
    STRIPE_THICKNESS,
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
from tmlnet import training
from tmlnet.hlac import default_mask_set, hlac_vector
from tmlnet.network import build_dhlac_net, init_params, tml_layer
from tmlnet.tml import TmlConfig


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

    @pytest.mark.parametrize("count", [1, IDX_WRITE_CHUNK, IDX_WRITE_CHUNK + 1, 2 * IDX_WRITE_CHUNK + 2])
    def test_images_byte_exact_across_chunks(self, tmp_path, count):
        rng = np.random.default_rng(count)
        src = tmp_path / "src.idx"
        make_idx_image_file(src, rng.integers(0, 256, size=(count, 3, 5), dtype=np.uint8))
        out = tmp_path / "out.idx"
        write_idx_images(load_idx_images(src), out)
        assert out.read_bytes() == src.read_bytes()
        write_idx_images(list(load_idx_images(src)[..., 0]), out)  # (rows, cols) images
        assert out.read_bytes() == src.read_bytes()

    def test_labels_byte_exact(self, tmp_path):
        src = tmp_path / "src.idx"
        make_idx_label_file(src, [0, 9, 3, 3, 7])
        out = tmp_path / "out.idx"
        write_idx_labels(load_idx_labels(src), out)
        assert out.read_bytes() == src.read_bytes()


class TestIdxWriterRejects:
    @pytest.mark.parametrize("count", [2, IDX_WRITE_CHUNK + 3])
    def test_mixed_sizes_before_the_file_opens(self, tmp_path, count):
        images = [np.zeros((4, 4, 1))] * (count - 1) + [np.zeros((4, 5, 1))]
        p = tmp_path / "img.idx"
        with pytest.raises(ValueError, match=f"image {count - 1} is 4x5"):
            write_idx_images(images, p)
        assert not p.exists()  # no truncated file whose header claims every image
        p.write_bytes(b"kept")
        with pytest.raises(ValueError):
            write_idx_images(images, p)
        assert p.read_bytes() == b"kept"

    @pytest.mark.parametrize("as_list", [False, True], ids=["array", "list"])
    def test_more_than_one_channel(self, tmp_path, as_list):
        # IDX holds one channel; writing only channel 0 would drop the rest unseen
        images = np.full((3, 4, 4, 2), 0.5)
        p = tmp_path / "img.idx"
        with pytest.raises(ValueError, match="image 0 has 2 channels"):
            write_idx_images(list(images) if as_list else images, p)
        assert not p.exists()

    @pytest.mark.parametrize("bad", [0, IDX_WRITE_CHUNK + 1])
    def test_nan_pixels(self, tmp_path, bad):
        images = np.full((IDX_WRITE_CHUNK + 2, 3, 3, 1), 0.5)
        images[bad, 1, 2, 0] = np.nan
        p = tmp_path / "img.idx"
        with pytest.raises(ValueError, match=f"image {bad} has NaN"):
            write_idx_images(images, p)
        assert not p.exists()

    def test_infinite_pixels(self, tmp_path):
        # clamped to 255 or 0, an infinity would read back as a plain 1.0 or 0.0
        p = tmp_path / "img.idx"
        for value in (np.inf, -np.inf):
            images = np.full((IDX_WRITE_CHUNK + 2, 3, 3, 1), 0.5)
            images[IDX_WRITE_CHUNK + 1, 0, 1, 0] = value
            with pytest.raises(ValueError, match=f"image {IDX_WRITE_CHUNK + 1} has NaN or inf"):
                write_idx_images(images, p)
            with pytest.raises(ValueError, match="image 0 has NaN or inf"):
                write_idx_images([np.array([[value, 0.5]])], p)
        assert not p.exists()


def sha256(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def canvas_stripe_dataset(spec: StripeSpec):
    """The stripe set cut from whole clipped canvases, as the generator's
    docstring defines it."""
    rng = np.random.default_rng(spec.rng_seed)
    splits = {"train": ([], []), "test": ([], [])}
    for cls in range(spec.num_classes):
        pattern = stripe_pattern(cls, spec.canvas)
        for split in ("train", "test"):
            canvas = pattern + spec.noise_amplitude * rng.random((spec.canvas, spec.canvas))
            np.clip(canvas, 0.0, 1.0, out=canvas)
            span = spec.canvas - spec.crop + 1
            tops = rng.integers(0, span, size=spec.samples_per_class)
            lefts = rng.integers(0, span, size=spec.samples_per_class)
            images, labels = splits[split]
            images += [canvas[t : t + spec.crop, l : l + spec.crop, None] for t, l in zip(tops, lefts)]
            labels += [cls] * spec.samples_per_class
    return [(np.stack(splits[s][0]), np.array(splits[s][1])) for s in ("train", "test")]


class TestStripeIdentity:
    # sha256 of the images and labels of the generator that built whole
    # clipped canvases, which the crop-by-crop generator must reproduce
    GOLDEN = {
        "small": (
            StripeSpec(canvas=96, crop=24, samples_per_class=5, rng_seed=3),
            "a8b1a8fcda3a98b00293278f15e3cfd68d1fbce3d0cf3c9f8bf85346e93b8fb1",
            "3ca0ad816688116f916c9385f373de81c1f156d02a648dc94da514a188f2eaae",
            "b47ef338ce3e3930e5c474cfaccd16eb0e0103d70a84328c7a5600a5421f510a",
        ),
        "default": (
            StripeSpec(),
            "679bdcba9f9076521e34adace3a3e805b075c534c857fa851474bbcf3e9d7c1e",
            "a2a6ae6997df9cd4d8a18e52f3f89a2bc71ef8038afb67d65e096edd5e258869",
            "dbd2620fecabc2c372837b7cc769c2142a304f1c01676fc5a479e198bef3f8c4",
        ),
    }

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_golden_hashes(self, name):
        spec, train_images, test_images, labels = self.GOLDEN[name]
        train, test = gen_stripe_dataset(spec)
        assert sha256(train.images) == train_images
        assert sha256(test.images) == test_images
        assert sha256(train.labels) == sha256(test.labels) == labels

    @pytest.mark.parametrize(
        "spec",
        [
            StripeSpec(num_classes=8, canvas=40, crop=13, samples_per_class=7, rng_seed=5),
            StripeSpec(num_classes=8, canvas=29, crop=29, samples_per_class=2, rng_seed=6),
            StripeSpec(num_classes=3, canvas=50, crop=1, noise_amplitude=0.3, samples_per_class=9),
            StripeSpec(num_classes=2, canvas=33, crop=10, noise_amplitude=0.0, samples_per_class=4),
        ],
    )
    def test_equals_crops_of_clipped_canvases(self, spec):
        for ds, (images, labels) in zip(gen_stripe_dataset(spec), canvas_stripe_dataset(spec)):
            assert ds.images.tobytes() == images.tobytes()
            np.testing.assert_array_equal(ds.labels, labels)

    @pytest.mark.parametrize("cls", range(len(STRIPE_STYLES)))
    def test_pattern_matches_the_phase_formula(self, cls):
        angle, period = STRIPE_STYLES[cls]
        for size in [*range(1, 21), 37, 1024]:
            r, c = np.indices((size, size))
            phase = {0: r, 90: c, 45: r + c, 135: r - c}[angle]
            expected = (np.mod(phase, period) < STRIPE_THICKNESS).astype(np.float64)
            got = stripe_pattern(cls, size)
            assert got.dtype == np.float64 and got.shape == (size, size)
            np.testing.assert_array_equal(got, expected)


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


@pytest.mark.parametrize("split", ["train", "test"])
def test_dataset_dir_split_without_images_named(tmp_path, split):
    image = np.full((1, 4, 4), 7, dtype=np.uint8)
    for name in ("train", "test"):
        make_idx_image_file(tmp_path / f"{name}-images.idx", image[:0] if name == split else image)
        make_idx_label_file(tmp_path / f"{name}-labels.idx", [] if name == split else [0])
    # an empty file is a valid IDX file, only not a usable split
    assert load_idx_images(tmp_path / f"{split}-images.idx").shape == (0, 4, 4, 1)
    with pytest.raises(ValueError) as err:
        load_dataset_dir(tmp_path)
    assert str(err.value) == f"{tmp_path}: {split} split has no images"


@pytest.mark.parametrize("test_shape", [(6, 4), (4, 6), (3, 3)])
def test_dataset_dir_splits_of_two_shapes_named(tmp_path, test_shape):
    make_idx_image_file(tmp_path / "train-images.idx", np.zeros((1, 4, 4), dtype=np.uint8))
    make_idx_image_file(tmp_path / "test-images.idx", np.zeros((1, *test_shape), dtype=np.uint8))
    for name in ("train", "test"):
        make_idx_label_file(tmp_path / f"{name}-labels.idx", [0])
    with pytest.raises(ValueError) as err:
        load_dataset_dir(tmp_path)
    rows, cols = test_shape
    assert str(err.value) == f"{tmp_path}: train images are 4x4x1, test images {rows}x{cols}x1"


class TestDatasetLabels:
    def test_one_label_per_image_required(self):
        with pytest.raises(ValueError, match=r"3 images, labels of shape \(3, 2\)"):
            Dataset(np.zeros((3, 2, 2, 1)), np.zeros((3, 2)))
        with pytest.raises(ValueError, match=r"3 images, labels of shape \(2,\)"):
            Dataset(np.zeros((3, 2, 2, 1)), [0, 1])

    @pytest.mark.parametrize("labels, bad", [([0.5, 1.7, 2.2], "label 0 is 0.5"),
                                             ([0.0, 1.0, np.nan], "label 2 is nan"),
                                             ([0.0, np.inf, 2.0], "label 1 is inf")])
    def test_labels_that_are_not_integers_named(self, labels, bad):
        # [0.5, 1.7, 2.2] was silently truncated to [0, 1, 2]
        with pytest.raises(ValueError, match=f"{bad}, not an integer"):
            Dataset(np.zeros((3, 2, 2, 1)), labels)

    def test_labels_of_a_non_number_dtype_rejected(self):
        with pytest.raises(ValueError, match="labels must be integers, got dtype bool"):
            Dataset(np.zeros((2, 2, 2, 1)), [True, False])

    def test_whole_float_labels_become_int64(self):
        ds = Dataset(np.zeros((3, 2, 2, 1)), [2.0, 0.0, -0.0])
        assert ds.labels.dtype == np.int64 and ds.labels.tolist() == [2, 0, 0]


def write_stripe_dir(path, spec):
    for split, ds in zip(("train", "test"), gen_stripe_dataset(spec)):
        write_idx_images(ds.images, path / f"{split}-images.idx")
        write_idx_labels(ds.labels.tolist(), path / f"{split}-labels.idx")


class TestByteBackedSplit:
    """A loaded split keeps its IDX bytes, and what it hands a network is
    bit-equal to a float64 set built from `load_idx_images` of its file."""

    @pytest.fixture
    def splits(self, tmp_path):
        write_stripe_dir(tmp_path, StripeSpec(canvas=64, crop=16, samples_per_class=5, rng_seed=2))
        floats = [Dataset(load_idx_images(tmp_path / f"{split}-images.idx"),
                          load_idx_labels(tmp_path / f"{split}-labels.idx"))
                  for split in ("train", "test")]
        return list(zip(load_dataset_dir(tmp_path), floats))

    def test_holds_one_byte_per_pixel(self, splits):
        for loaded, floats in splits:
            n, h, w, c = floats.pixels.shape
            assert loaded.pixels.dtype == np.uint8 and loaded.pixels.shape == (n, h, w, c)
            assert loaded.pixels.nbytes == n * h * w

    @pytest.mark.parametrize("index", [0, 7, slice(3, 9), slice(None), np.array([5, 0, 5, 2])])
    def test_take_is_bit_equal(self, splits, index):
        for loaded, floats in splits:
            got, want = loaded.take(index), floats.take(index)
            assert got.dtype == np.float64 and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_images_are_bit_equal_and_read_only(self, splits):
        for loaded, floats in splits:
            images = loaded.images
            assert images.dtype == np.float64 and images.tobytes() == floats.images.tobytes()
            with pytest.raises(ValueError, match="read-only"):
                images[0, 0, 0, 0] = 0.5
        # a float set's images are its own array, written as before
        floats.images[0, 0, 0, 0] = 0.5
        assert floats.pixels[0, 0, 0, 0] == 0.5

    def test_batches_are_bit_equal(self, splits):
        for loaded, floats in splits:
            got = list(batches(loaded, 8, np.random.default_rng(3)))
            want = list(batches(floats, 8, np.random.default_rng(3)))
            assert len(got) == len(want) == 4
            for (xa, ya), (xb, yb) in zip(got, want):
                assert xa.dtype == np.float64 and xa.tobytes() == xb.tobytes()
                np.testing.assert_array_equal(ya, yb)

    def test_evaluate_reads_bit_equal_batches(self, splits, monkeypatch):
        spec = build_dhlac_net((16, 16, 1), 6, tml_layer(2, 3, 3, TmlConfig()))
        init_params(spec, np.random.default_rng(4))
        forward, seen = training.network_forward, []

        def recording_forward(spec, xb, **kwargs):
            seen.append(xb.copy())
            return forward(spec, xb, **kwargs)

        monkeypatch.setattr(training, "network_forward", recording_forward)
        for loaded, floats in splits:
            runs = []
            for ds in (loaded, floats):
                seen.clear()
                runs.append((training.evaluate(spec, ds, batch_size=8), list(seen)))
            (acc, got), (want_acc, want) = runs
            assert acc == want_acc and len(got) == len(want) == 4
            for xa, xb in zip(got, want):
                assert xa.dtype == np.float64 and xa.tobytes() == xb.tobytes()

    def test_subset_keeps_the_bytes(self, splits):
        loaded, floats = splits[0]
        sub = loaded.subset(4)
        assert sub.pixels.dtype == np.uint8 and sub.pixels.nbytes == 4 * 16 * 16
        assert np.shares_memory(sub.pixels, loaded.pixels)
        assert sub.take(slice(None)).tobytes() == floats.take(slice(0, 4)).tobytes()


def test_dataset_dir_load_allocates_one_byte_per_pixel(tmp_path):
    # 1024 64-px images per split: 4 MiB of bytes each, 32 MiB each as float64
    rng = np.random.default_rng(0)
    for split in ("train", "test"):
        make_idx_image_file(tmp_path / f"{split}-images.idx",
                            rng.integers(0, 256, size=(1024, 64, 64), dtype=np.uint8))
        make_idx_label_file(tmp_path / f"{split}-labels.idx", [3] * 1024)
    tracemalloc.start()
    try:
        train, test = load_dataset_dir(tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12e6, f"loading two 4 MiB splits allocated {peak / 1e6:.1f} MB"
    assert train.pixels.nbytes == test.pixels.nbytes == 1024 * 64 * 64
