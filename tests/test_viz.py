import numpy as np
import pytest

from tmlnet import network, tml
from tmlnet.cli import cli_dispatch
from tmlnet.datasets import (
    StripeSpec,
    gen_stripe_dataset,
    load_dataset_dir,
    write_idx_images,
    write_idx_labels,
)
from tmlnet.network import (
    build_baseline_hlac_net,
    build_cooc_net,
    build_dhlac_net,
    init_params,
    save_network,
    tml_layer,
)
from tmlnet.tml import TmlConfig
from tmlnet.viz import (
    cooc_heat,
    cooc_highlight,
    render_feature_map,
    render_kernel_heatmap,
    write_pgm,
)

NUM_CLASSES = 3


def pgm_bytes(pixels):
    """The documented binary PGM: b"P5\n<width> <height>\n255\n", then the rows."""
    height, width = pixels.shape
    return b"P5\n%d %d\n255\n" % (width, height) + pixels.astype(np.uint8).tobytes()


def tiny_cooc_net(seed=0):
    bank = tml_layer(4, 1, 1, TmlConfig(c1=1.0, c2=0.5))
    spec = build_cooc_net((16, 16, 1), NUM_CLASSES, bank)
    return init_params(spec, np.random.default_rng(seed))


def tiny_dhlac_net(seed=0):
    bank = tml_layer(4, 3, 3, TmlConfig(c1=1.0, c2=0.5))
    spec = build_dhlac_net((16, 16, 1), NUM_CLASSES, bank)
    return init_params(spec, np.random.default_rng(seed))


def write_dataset(d, crop):
    train, test = gen_stripe_dataset(
        StripeSpec(num_classes=NUM_CLASSES, canvas=64, crop=crop, samples_per_class=2, rng_seed=3)
    )
    d.mkdir()
    write_idx_images(train.images, d / "train-images.idx")
    write_idx_labels(train.labels.tolist(), d / "train-labels.idx")
    write_idx_images(test.images, d / "test-images.idx")
    write_idx_labels(test.labels.tolist(), d / "test-labels.idx")
    return d


@pytest.fixture
def dataset_dir(tmp_path):
    return write_dataset(tmp_path / "data", 16)


class TestCoocTracing:
    def test_heat_on_tiny_cooc_net(self):
        spec = tiny_cooc_net()
        image = np.random.default_rng(1).uniform(0, 1, size=(16, 16, 1))
        heat, m, channels = cooc_heat(spec, image, target_class=1)
        assert heat.shape == (16, 16)
        assert np.all(np.isfinite(heat)) and heat.min() >= 0  # averaged ReLU maps
        assert 0 <= m < 4
        assert channels.size >= 1 and np.all((0 <= channels) & (channels < 16))
        overlay = cooc_highlight(image, heat)
        assert overlay.shape == (16, 16) and overlay.dtype == np.uint8

    def test_viz_cooc_cli(self, tmp_path, dataset_dir, monkeypatch):
        spec = tiny_cooc_net()
        ckpt = tmp_path / "cooc.net"
        save_network(spec, ckpt)
        out = tmp_path / "cooc.pgm"
        argv = ["viz-cooc", str(ckpt), "--dataset", str(dataset_dir), "--out", str(out)]
        traces = []
        monkeypatch.setattr(network, "ForwardTrace", lambda *args: traces.append(args))
        assert cli_dispatch(argv) == 0
        # the heat map reads the bank's input from a forward that keeps no trace
        assert traces == []
        image = load_dataset_dir(dataset_dir)[1].images[0]
        logits, _ = network.network_forward(spec, image[None], train_mode=False, trace=False)
        heat, _m, _channels = cooc_heat(spec, image, int(logits[0].argmax()))
        assert out.read_bytes() == pgm_bytes(cooc_highlight(image, heat))


def test_viz_features_cli_writes_tml_maps(tmp_path, dataset_dir):
    spec = tiny_dhlac_net()
    ckpt = tmp_path / "dhlac.net"
    save_network(spec, ckpt)
    out = tmp_path / "features"
    argv = ["viz-features", str(ckpt), "--dataset", str(dataset_dir), "--index", "1",
            "--out", str(out)]
    assert cli_dispatch(argv) == 0
    # the side bank reads the input image, so its maps can be recomputed directly
    _train, test = load_dataset_dir(dataset_dir)
    kernels = tml.TmlKernels(spec.side_layers[0].tml, spec.side_params[0]["w"])
    y = tml.forward_batch(test.images[1][None], kernels)[0]
    for m in range(4):
        assert (out / f"feature_{m:02d}.pgm").read_bytes() == pgm_bytes(render_feature_map(y, m))


def test_viz_features_cli_on_a_frozen_bank(tmp_path):
    # the trace keeps nothing of a frozen bank on the input; the maps are recomputed
    dataset_dir = write_dataset(tmp_path / "data", 20)  # 16 px is too small for the baseline
    spec = init_params(build_baseline_hlac_net((20, 20, 1), NUM_CLASSES), np.random.default_rng(0))
    ckpt = tmp_path / "hlac.net"
    save_network(spec, ckpt)
    out = tmp_path / "features"
    argv = ["viz-features", str(ckpt), "--dataset", str(dataset_dir), "--index", "1",
            "--out", str(out)]
    assert cli_dispatch(argv) == 0
    _train, test = load_dataset_dir(dataset_dir)
    bank = tml.TmlKernels(spec.side_layers[0].tml, spec.side_params[0]["w"])
    y = tml.forward_batch(test.images[1][None], bank)[0]
    assert sorted(p.name for p in out.iterdir()) == [f"feature_{m:02d}.pgm" for m in range(25)]
    for m in range(25):
        assert (out / f"feature_{m:02d}.pgm").read_bytes() == pgm_bytes(render_feature_map(y, m))


@pytest.mark.parametrize("target", ["99", "-1"])
def test_viz_cooc_cli_rejects_out_of_range_class(tmp_path, dataset_dir, capsys, target):
    ckpt = tmp_path / "cooc.net"
    save_network(tiny_cooc_net(), ckpt)
    out = tmp_path / "cooc.pgm"
    argv = ["viz-cooc", str(ckpt), "--dataset", str(dataset_dir), "--target-class", target,
            "--out", str(out)]
    assert cli_dispatch(argv) == 1
    assert f"error: class {target} out of range" in capsys.readouterr().err
    assert not out.exists()


NON_FINITE = [np.nan, np.inf, -np.inf]


# `to_u8` writes NaN as 0 and clamps inf, so a diverged net would render as an image
@pytest.mark.parametrize("bad", NON_FINITE)
def test_kernel_heatmap_rejects_non_finite_weights(bad):
    weights = np.full((3, 3, 2, 4), 0.1)
    weights[1, 2, 1, 3] = bad
    render_kernel_heatmap(weights, 0.5, 3, 0)  # the other channel's slice is finite
    with pytest.raises(ValueError, match="kernel 3 holds NaN or inf"):
        render_kernel_heatmap(weights, 0.5, 3, 1)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_feature_map_rejects_non_finite_values(bad):
    y = np.full((4, 5, 3), 0.5)
    y[2, 0, 1] = bad
    render_feature_map(y, 0)
    with pytest.raises(ValueError, match="feature map 1 holds NaN or inf"):
        render_feature_map(y, 1)


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("where", ["image", "heat"])
def test_cooc_overlay_rejects_non_finite_values(bad, where):
    arrays = {"image": np.full((4, 4, 1), 0.5), "heat": np.full((4, 4), 0.5)}
    arrays[where].flat[5] = bad
    with pytest.raises(ValueError, match="overlay holds NaN or inf"):
        cooc_highlight(arrays["image"], arrays["heat"])


def test_pgm_bytes_pinned(tmp_path):
    # header "P5\n<width> <height>\n255\n", then the rows top to bottom
    pixels = np.array([[0, 255, 7], [1, 2, 3]], dtype=np.uint8)
    write_pgm(pixels, tmp_path / "a.pgm")
    assert (tmp_path / "a.pgm").read_bytes() == b"P5\n3 2\n255\n\x00\xff\x07\x01\x02\x03"
    assert pgm_bytes(pixels) == (tmp_path / "a.pgm").read_bytes()
    write_pgm(pixels.T.copy().T, tmp_path / "b.pgm")  # a column-major copy
    assert (tmp_path / "b.pgm").read_bytes() == (tmp_path / "a.pgm").read_bytes()
