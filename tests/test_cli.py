from pathlib import Path

import numpy as np
import pytest

from tmlnet.cli import DEFAULTS, build_network, cli_dispatch
from tmlnet.datasets import load_dataset_dir, load_idx_images
from tmlnet.hlac import default_mask_set, hlac_vector, write_features_csv
from tmlnet.network import load_network
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
    for m, name in enumerate(heatmaps):
        pixels = render_kernel_heatmap(net.side_params[0]["w"], net.side_layers[0].tml.c2, m)
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


def tiny_stripes(tmp_path, crop=16, classes=2):
    data = tmp_path / "data"
    gen = ["gen-stripes", "--out", str(data), "--classes", str(classes),
           "--canvas", "64", "--crop", str(crop), "--samples", "4"]
    assert cli_dispatch(gen) == 0
    return data


def test_hlac_extract_writes_the_rows_of_the_whole_file_conversion(tmp_path):
    # the command widens one image at a time; its CSV is byte for byte the one
    # written from load_idx_images of the whole file
    images = tiny_stripes(tmp_path) / "train-images.idx"
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    assert cli_dispatch(["hlac-extract", "--images", str(images), "--out", str(got)]) == 0
    write_features_csv([hlac_vector(img, default_mask_set()) for img in load_idx_images(images)],
                       want)
    assert got.read_bytes() == want.read_bytes()


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
    # train reads every key here, and its config before the (missing) dataset
    config = tmp_path / "bad.cfg"
    config.write_text(text)
    train = ["train", "--arch", "dhlac", "--dataset", str(tmp_path / "missing"),
             "--out", str(tmp_path / "run"), "--config", str(config)]
    assert cli_dispatch(train) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{config}{message}" in err
    assert list(tmp_path.iterdir()) == [config]


@pytest.mark.parametrize(
    "argv,key,value",
    [
        (["gen-stripes", "--out", "{dir}/out"], "epochs", "1"),
        (["gradcheck", "--trials", "1"], "canvas", "5"),
        (["train", "--arch", "baseline", "--dataset", "{dir}/data", "--out", "{dir}/run",
          "--epochs", "1"], "eps", "0.1"),
    ],
    ids=["gen-stripes", "gradcheck", "train-baseline"],
)
def test_config_key_the_run_does_not_read_rejected(tmp_path, capsys, argv, key, value):
    tiny_stripes(tmp_path, crop=20)  # 16 px is too small for the baseline
    config = tmp_path / "run.cfg"
    config.write_text(f"# one setting\n{key}={value}\n")
    argv = [arg.format(dir=tmp_path) for arg in argv] + ["--config", str(config)]
    files = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert cli_dispatch(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {config}:2: unknown config key {key!r} for {argv[0]}")
    assert "passed" not in captured.out and sorted(tmp_path.rglob("*")) == files


def test_bank_flag_rejected_for_a_frozen_bank(tmp_path, capsys):
    data = tiny_stripes(tmp_path, crop=20)
    train = ["train", "--arch", "baseline+hlac", "--dataset", str(data),
             "--out", str(tmp_path / "run"), "--epochs", "1", "--eps", "0.1"]
    assert cli_dispatch(train) == 1
    assert capsys.readouterr().err == (
        "error: --eps is not a setting of train --arch baseline+hlac\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data"]


TRAIN_SETTINGS = ["batch_size", "epochs", "lambda", "learning_rate", "momentum", "seed"]
BANK_SETTINGS = ["c1", "c2", "eps", "kernel_h", "kernel_w", "num_kernels"]


@pytest.mark.parametrize(
    "arch,settings",
    [
        ("dhlac", sorted(TRAIN_SETTINGS + BANK_SETTINGS)),
        ("cooc", sorted(TRAIN_SETTINGS + BANK_SETTINGS)),
        ("baseline", TRAIN_SETTINGS),
        ("baseline+hlac", TRAIN_SETTINGS),
    ],
)
def test_train_prints_each_setting_it_reads(tmp_path, capsys, arch, settings):
    data = tiny_stripes(tmp_path, crop=20)
    capsys.readouterr()
    train = ["train", "--arch", arch, "--dataset", str(data), "--out", str(tmp_path / "run"),
             "--epochs", "1", "--seed", "3"]
    assert cli_dispatch(train) == 0
    out = capsys.readouterr().out.splitlines()
    lines = [line for line in out if line.startswith("config ")]
    assert [line[len("config "):].split("=")[0] for line in lines] == settings
    assert "config seed=3" in lines and not any(line.startswith("seed ") for line in out)
    if arch == "cooc":
        assert "config kernel_h=1" in lines and "config kernel_w=1" in lines


def test_bad_training_value_rejected_before_reading(tmp_path, capsys):
    missing = tmp_path / "no-such-dataset"
    for flag, value, message in (
        ("--epochs", "0", "epochs must be at least 1, got 0"),
        ("--batch-size", "0", "batch_size must be at least 1, got 0"),
        ("--learning-rate", "-1", "learning_rate must be finite and nonnegative, got -1.0"),
        ("--lambda", "nan", "lambda must be finite and nonnegative, got nan"),
    ):
        train = ["train", "--arch", "dhlac", "--dataset", str(missing), "--out",
                 str(tmp_path / "run"), flag, value]
        assert cli_dispatch(train) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_dataset_limits_are_not_settings(tmp_path, capsys):
    data = tiny_stripes(tmp_path)
    train = ["train", "--arch", "dhlac", "--dataset", str(data), "--out", str(tmp_path / "run")]
    assert cli_dispatch(train + ["--train-limit", "5"]) == 2
    assert "unrecognized arguments: --train-limit 5" in capsys.readouterr().err
    config = tmp_path / "run.cfg"
    config.write_text("train_limit=5\n")
    assert cli_dispatch(train + ["--config", str(config)]) == 1
    assert capsys.readouterr().err == (
        f"error: {config}:1: unknown config key 'train_limit' for train --arch dhlac\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data", "run.cfg"]


def test_train_out_directory_checked_before_reading(tmp_path, capsys):
    data = tiny_stripes(tmp_path)
    capsys.readouterr()
    train = ["train", "--arch", "dhlac", "--dataset", str(data), "--out",
             str(tmp_path / "nodir" / "run"), "--epochs", "1"]
    assert cli_dispatch(train) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: output directory {tmp_path / 'nodir'} does not exist\n"
    assert not any(line.startswith(("dataset ", "epoch ")) for line in captured.out.splitlines())
    assert sorted(p.name for p in tmp_path.iterdir()) == ["data"]


def test_train_rejects_splits_of_two_shapes_before_training(tmp_path, capsys):
    data = tiny_stripes(tmp_path, crop=24)
    small = tiny_stripes(tmp_path / "small", crop=16)
    for name in ("test-images.idx", "test-labels.idx"):
        (small / name).replace(data / name)
    capsys.readouterr()
    train = ["train", "--arch", "dhlac", "--dataset", str(data), "--out", str(tmp_path / "run"),
             "--epochs", "1"]
    assert cli_dispatch(train) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {data}: train images are 24x24x1, test images 16x16x1\n"
    assert not any(line.startswith(("dataset ", "epoch ")) for line in captured.out.splitlines())
    assert not list(tmp_path.glob("run*"))


def test_zero_crop_rejected_before_writing(tmp_path, capsys):
    out = tmp_path / "data"
    assert cli_dispatch(["gen-stripes", "--out", str(out), "--crop", "0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "crop" in err
    assert not out.exists()


@pytest.mark.parametrize("arch, eps", [("baseline+hlac", 1e-6), ("dhlac", 0.1), ("cooc", 0.1)])
def test_eps_key_reaches_trainable_banks_only(arch, eps):
    spec = build_network(arch, (20, 20, 1), 3, dict(DEFAULTS, eps=0.1))
    [(_chain, _i, bank)] = spec.tml_entries()
    assert bank.tml.eps == eps


def tiny_checkpoint(tmp_path):
    """A trained 1-epoch dhlac checkpoint and its 2-class dataset."""
    data = tiny_stripes(tmp_path)
    train = ["train", "--arch", "dhlac", "--dataset", str(data), "--out", str(tmp_path / "run"),
             "--epochs", "1", "--num-kernels", "2"]
    assert cli_dispatch(train) == 0
    return tmp_path / "run.net", data


def test_eval_rejects_labels_outside_the_classes(tmp_path, capsys):
    ckpt, _data = tiny_checkpoint(tmp_path / "two")
    four = tiny_stripes(tmp_path, classes=4)
    capsys.readouterr()
    assert cli_dispatch(["eval", "--ckpt", str(ckpt), "--dataset", str(four)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: label outside class range\n"
    assert "accuracy" not in captured.out


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
