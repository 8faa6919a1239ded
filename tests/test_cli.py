import numpy as np

from tmlnet.cli import cli_dispatch
from tmlnet.datasets import load_dataset_dir
from tmlnet.hlac import default_mask_set, hlac_vector
from tmlnet.network import load_network
from tmlnet.training import evaluate
from tmlnet.viz import read_pgm


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
    assert all(read_pgm(kernels / name).width > 0 for name in heatmaps)

    csv = tmp_path / "hlac.csv"
    images = ["hlac-extract", "--images", str(data / "test-images.idx"), "--out", str(csv)]
    assert cli_dispatch(images) == 0
    expected = [hlac_vector(img, default_mask_set()) for img in test_ds.images]
    np.testing.assert_array_equal(np.loadtxt(csv, delimiter=","), expected)
