from pathlib import Path

import numpy as np
import pytest

from tmlnet.cli import cli_dispatch
from tmlnet.datasets import load_dataset_dir
from tmlnet.hlac import default_mask_set, hlac_vector
from tmlnet.network import load_network
from tmlnet.tml import TmlKernels
from tmlnet.training import evaluate
from tmlnet.viz import render_kernel_heatmap


def test_stripes_train_eval_round_trip(tmp_path, capsys):
    data, run = tmp_path / "data", tmp_path / "run"
    gen = ["gen-stripes", "--out", str(data), "--classes", "3",
           "--canvas", "96", "--crop", "24", "--samples", "6", "--seed", "5"]
    assert cli_dispatch(gen) == 0
    train_ds, test_ds = load_dataset_dir(data)
    assert train_ds.images.shape == (18, 24, 24, 1) and len(test_ds) == 18

    train = ["train", "--arch", "dhlac", "--dataset", str(data), "--out", str(run),
             "--epochs", "1", "--num-kernels", "4", "--seed", "5"]
    assert cli_dispatch(train) == 0
    metrics = (tmp_path / "run.metrics.csv").read_text().splitlines()
    assert metrics[0] == "epoch,mean_loss,train_acc,test_acc" and len(metrics) == 2
    ckpt = tmp_path / "run.net"
    assert (tmp_path / "run.net.bin").exists()

    capsys.readouterr()
    assert cli_dispatch(["eval", "--ckpt", str(ckpt), "--dataset", str(data)]) == 0
    acc = evaluate(load_network(ckpt), test_ds)
    assert capsys.readouterr().out.strip() == f"test accuracy {acc:.4f} (18 samples)"

    kernels = tmp_path / "kernels"
    assert cli_dispatch(["viz-kernels", str(ckpt), "--out", str(kernels)]) == 0
    heatmaps = sorted(p.name for p in kernels.iterdir())
    assert heatmaps == [f"kernel_{m:02d}.pgm" for m in range(4)]
    # one channel, so each file is the documented PGM of that kernel's heatmap
    net = load_network(ckpt)
    bank = TmlKernels(net.side_layers[0].tml, net.side_params[0]["w"])
    for m, name in enumerate(heatmaps):
        pixels = render_kernel_heatmap(bank, m)
        header = b"P5\n%d %d\n255\n" % (pixels.shape[1], pixels.shape[0])
        assert (kernels / name).read_bytes() == header + pixels.tobytes()

    csv = tmp_path / "hlac.csv"
    images = ["hlac-extract", "--images", str(data / "test-images.idx"), "--out", str(csv)]
    assert cli_dispatch(images) == 0
    expected = [hlac_vector(img, default_mask_set()) for img in test_ds.images]
    np.testing.assert_array_equal(np.loadtxt(csv, delimiter=","), expected)


def test_gradcheck_command_passes(capsys):
    assert cli_dispatch(["gradcheck", "--trials", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "gradcheck passed"
    assert sum(line.endswith(" ok") for line in out) == 5


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_gradcheck_without_trials_rejected(capsys, trials):
    assert cli_dispatch(["gradcheck", "--trials", trials]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "at least 1 trial" in captured.err
    assert "gradcheck passed" not in captured.out


def tiny_stripes(tmp_path):
    data = tmp_path / "data"
    gen = ["gen-stripes", "--out", str(data), "--classes", "2",
           "--canvas", "64", "--crop", "16", "--samples", "4"]
    assert cli_dispatch(gen) == 0
    return data


def test_train_reads_config_file_under_flags(tmp_path, capsys):
    data = tiny_stripes(tmp_path)
    config = tmp_path / "run.cfg"
    config.write_text("# tiny run\nepochs = 1\nnum_kernels=3  # fewer kernels\n\nlambda=0.02\nseed=7\n")
    capsys.readouterr()
    train = ["train", "--arch", "dhlac", "--dataset", str(data), "--out", str(tmp_path / "run"),
             "--config", str(config), "--seed", "5"]
    assert cli_dispatch(train) == 0
    out = capsys.readouterr().out.splitlines()
    for line in ("config epochs=1", "config num_kernels=3", "config lambda=0.02",
                 "config seed=5"):
        assert line in out
    assert load_network(tmp_path / "run.net").side_params[0]["w"].shape[-1] == 3


@pytest.mark.parametrize(
    "text,message",
    [
        ("seed=1\nbogus=3\n", ":2: unknown config key 'bogus'"),
        ("# header\nseed 3\n", ":2: expected key=value"),
        ("seed=1.5\n", ":1: bad value for 'seed'"),
        ("epochs=2\nlambda=small\n", ":2: bad value for 'lambda'"),
    ],
)
def test_bad_config_file_names_file_and_line(tmp_path, capsys, text, message):
    config = tmp_path / "bad.cfg"
    config.write_text(text)
    assert cli_dispatch(["gradcheck", "--trials", "1", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{config}{message}" in err


def test_negative_limit_rejected_before_reading(tmp_path, capsys):
    missing = tmp_path / "no-such-dataset"
    for flag in ("--train-limit", "--test-limit"):
        train = ["train", "--arch", "dhlac", "--dataset", str(missing), "--out",
                 str(tmp_path / "run"), flag, "-25"]
        assert cli_dispatch(train) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "must be nonnegative" in err
    assert list(tmp_path.iterdir()) == []


def test_zero_crop_rejected_before_writing(tmp_path, capsys):
    out = tmp_path / "data"
    assert cli_dispatch(["gen-stripes", "--out", str(out), "--crop", "0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "crop" in err
    assert not out.exists()


def tiny_checkpoint(tmp_path):
    """A trained 1-epoch dhlac checkpoint and its 2-class dataset."""
    data = tiny_stripes(tmp_path)
    train = ["train", "--arch", "dhlac", "--dataset", str(data), "--out", str(tmp_path / "run"),
             "--epochs", "1", "--num-kernels", "2"]
    assert cli_dispatch(train) == 0
    return tmp_path / "run.net", data


def test_nan_weight_in_blob_rejected(tmp_path, capsys):
    ckpt, data = tiny_checkpoint(tmp_path)
    blob = Path(str(ckpt) + ".bin")
    raw = bytearray(blob.read_bytes())
    raw[16:24] = np.float64(np.nan).tobytes()  # the first value after the header
    blob.write_bytes(bytes(raw))
    capsys.readouterr()
    assert cli_dispatch(["eval", "--ckpt", str(ckpt), "--dataset", str(data)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {blob}: 1 non-finite parameter value")
    assert "accuracy" not in captured.out


def test_nan_eps_in_layer_line_rejected(tmp_path, capsys):
    ckpt, data = tiny_checkpoint(tmp_path)
    text = ckpt.read_text()
    assert " eps=1e-06 " in text
    ckpt.write_text(text.replace(" eps=1e-06 ", " eps=nan "))
    capsys.readouterr()
    assert cli_dispatch(["eval", "--ckpt", str(ckpt), "--dataset", str(data)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {ckpt}: malformed line")
    assert "eps must be positive and finite" in captured.err
    assert "accuracy" not in captured.out


def test_binary_file_is_not_a_checkpoint(tmp_path, capsys):
    # the header and weights of a raw kernel bank, a format no longer read
    bank = tmp_path / "bank.tmlk"
    bank.write_bytes(b"TMLK" + (1).to_bytes(4, "little") + np.full(4, 0.25).tobytes())
    assert cli_dispatch(["viz-kernels", str(bank), "--out", str(tmp_path / "k")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bank}: not a network checkpoint")
    assert not (tmp_path / "k").exists()


def test_checkpoint_of_an_older_format_named(tmp_path, capsys):
    # v1 listed a loss-head layer and a join index; its layer lines are not parsed
    ckpt = tmp_path / "old.net"
    ckpt.write_text(
        "format=tmlnet-net-v1\ninput=6x6x1\nclasses=3\njoin=0\n"
        "layer chain=main kind=fc units=3\nlayer chain=main kind=softmax_xent_head\n"
        "layer chain=side kind=tml kh=2 kw=2 kc=1 km=2 c1=1.0 c2=0.6 eps=1e-06 trainable=1\n"
        "layer chain=side kind=gap\n"
    )
    assert cli_dispatch(["viz-kernels", str(ckpt), "--out", str(tmp_path / "k")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {ckpt}: unsupported network format 'tmlnet-net-v1'")
    assert not (tmp_path / "k").exists()


def test_checkpoint_of_format_v2_named(tmp_path, capsys):
    # v2 stated a bank's input channels and kernel count in its own fields
    ckpt = tmp_path / "old.net"
    ckpt.write_text(
        "format=tmlnet-net-v2\ninput=6x6x1\nclasses=3\n"
        "layer chain=main kind=fc units=3\n"
        "layer chain=side kind=tml kh=2 kw=2 kc=1 km=2 c1=1.0 c2=0.6 eps=1e-06 trainable=1\n"
        "layer chain=side kind=gap\n"
    )
    assert cli_dispatch(["viz-kernels", str(ckpt), "--out", str(tmp_path / "k")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {ckpt}: unsupported network format 'tmlnet-net-v2'")
    assert not (tmp_path / "k").exists()


@pytest.mark.parametrize(
    "old,new,message",
    [
        ("classes=2", "classes=3", "expected (3,) logits, chain produces (2,)"),
        ("c2=0.5", "c2=0.1", "constraints infeasible: c1/c2 = 10.0 exceeds kernel cell count 9"),
    ],
    ids=["classes", "infeasible-bank"],
)
def test_checkpoint_shape_walk_error_names_the_file(tmp_path, capsys, old, new, message):
    ckpt, _data = tiny_checkpoint(tmp_path)
    text = ckpt.read_text()
    assert old in text
    ckpt.write_text(text.replace(old, new))
    capsys.readouterr()
    assert cli_dispatch(["viz-kernels", str(ckpt), "--out", str(tmp_path / "k")]) == 1
    assert capsys.readouterr().err == f"error: {ckpt}: {message}\n"
    assert not (tmp_path / "k").exists()


@pytest.mark.parametrize("noise", ["nan", "inf"])
def test_nonfinite_noise_rejected_before_writing(tmp_path, capsys, noise):
    out = tmp_path / "data"
    assert cli_dispatch(["gen-stripes", "--out", str(out), "--noise", noise]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: noise_amplitude must be finite and nonnegative")
    assert not out.exists()
