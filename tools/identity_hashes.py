"""Print one sha256 per result of the four shipped nets, for byte-identity checks.

It hashes the images and labels of the two stripe sets the benchmark
generates at canvas 1024 (`StripeSpec()` and hlac-eval's 8 classes of 128
64-px crops), and the IDX files written from them. It hashes what each split
loaded back from those files hands a network: `take` of the whole split and
the first batch of 32 that `batches` yields from it. For dhlac, cooc, baseline
and baseline+hlac at 32-px crops in batches of 32 and 64-px crops in batches
of 256, it hashes the initial parameters, the logits and every parameter
gradient of a traced forward in eval and in train mode, the logits of a
trace-free forward, and the per-epoch metrics and parameters after a 2-epoch
`train_loop`. At 32 px it hashes `layer_input` of the first 4 images for
every index 1..len of each chain; the main chain of a net with a side chain
stops at len - 1, because its last layer reads the joined vector. It hashes
the parameters and velocities after a `train_step` whose projection
restarts a dhlac bank kernel that clipped to all zeros. It then runs the
command line (gen-stripes, hlac-extract, gradcheck, and train, eval,
viz-kernels, viz-features and viz-cooc for each net) in a scratch directory
and hashes every output and every file written.
Each line reads `<sha256>  <what>`.

Two trees give the same bytes exactly when `diff` of their outputs is empty:

    PYTHONPATH=src python tools/identity_hashes.py > change.txt
    PYTHONPATH=<other tree>/src python tools/identity_hashes.py > parent.txt
    diff parent.txt change.txt

With `--npz <file>` it also saves every array it hashes, under its line's
label, so two trees whose last bits differ can be compared by value, say by
max |diff| / max |value| per label:

    PYTHONPATH=src python tools/identity_hashes.py --npz change.npz > change.txt
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import math
import os
import tempfile

import numpy as np

from tmlnet.cli import ARCHS, DEFAULTS, build_network, cli_dispatch
from tmlnet.datasets import (
    StripeSpec,
    batches,
    gen_stripe_dataset,
    load_dataset_dir,
    write_idx_images,
    write_idx_labels,
)
from tmlnet.layers import softmax_xent
from tmlnet.network import init_params, layer_input, network_backward, network_forward
from tmlnet.training import OptimizerState, TrainConfig, train_loop, train_step

SIZES = ((32, 32), (64, 256))  # (crop, batch)
CLASSES = 6


def sha(data) -> str:
    if isinstance(data, np.ndarray):
        data = np.ascontiguousarray(data).tobytes()
    elif isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


class Emitter:
    """Prints `<sha256>  <what>` lines. With `arrays`, it also keeps a copy of
    every array it hashes there, keyed by the line's label."""

    def __init__(self, arrays: dict[str, np.ndarray] | None = None):
        self.arrays = arrays

    def __call__(self, what: str, data) -> None:
        print(f"{sha(data)}  {what}")
        if self.arrays is not None and isinstance(data, np.ndarray):
            if what in self.arrays:
                raise ValueError(f"two arrays hashed as {what!r}")
            self.arrays[what] = data.copy()


def build(arch: str, crop: int, seed: int):
    # the bank's defaults, as `tmlnet train` builds it
    cfg = dict(DEFAULTS, **(ARCHS[arch].bank or {}))
    spec = build_network(arch, (crop, crop, 1), CLASSES, cfg)
    return init_params(spec, np.random.default_rng(seed))


def emit_arrays(emit: Emitter, tag: str, main, side) -> None:
    for chain, plist in (("main", main), ("side", side)):
        for i, arrays in enumerate(plist):
            for key in sorted(arrays):
                emit(f"{tag} {chain}[{i}].{key}", arrays[key])


def emit_params(emit: Emitter, tag: str, spec) -> None:
    emit_arrays(emit, tag, spec.params, spec.side_params)


def stripe_hashes(emit: Emitter, seed: int) -> None:
    bench_sets = (("StripeSpec()", StripeSpec(rng_seed=seed)),
                  ("hlac-eval", StripeSpec(num_classes=8, crop=64, samples_per_class=128,
                                           rng_seed=seed)))
    with tempfile.TemporaryDirectory() as root:
        for name, stripes in bench_sets:
            for split, ds in zip(("train", "test"), gen_stripe_dataset(stripes)):
                tag = f"stripes {name} {split}"
                emit(f"{tag} images", ds.images)
                emit(f"{tag} labels", ds.labels)
                for what, write, data in (("images", write_idx_images, ds.images),
                                          ("labels", write_idx_labels, ds.labels.tolist())):
                    path = os.path.join(root, f"{split}-{what}.idx")
                    write(data, path)
                    with open(path, "rb") as f:
                        emit(f"{tag} {what}.idx", f.read())
            for split, ds in zip(("train", "test"), load_dataset_dir(root)):
                tag = f"stripes {name} {split} loaded"
                emit(f"{tag} take", ds.take(slice(None)))
                xb, labels = next(batches(ds, 32, np.random.default_rng(seed)))
                emit(f"{tag} first batch images", xb)
                emit(f"{tag} first batch labels", labels)


def network_hashes(emit: Emitter, seed: int) -> None:
    for crop, batch in SIZES:
        stripes = StripeSpec(num_classes=CLASSES, canvas=128, crop=crop,
                             samples_per_class=math.ceil(batch / CLASSES), rng_seed=seed)
        train, _test = gen_stripe_dataset(stripes)
        xb, labels = train.images[:batch], train.labels[:batch]
        onehot = np.eye(CLASSES)[labels]
        for arch in ARCHS:
            tag = f"{arch} {crop}px B={batch}"
            spec = build(arch, crop, seed)
            emit_params(emit, f"{tag} init", spec)
            for mode in ("eval", "train"):
                rng = np.random.default_rng(seed + 1)
                logits, trace = network_forward(spec, xb, train_mode=mode == "train", rng=rng)
                emit(f"{tag} {mode} logits", logits)
                _, d_logits = softmax_xent(logits, onehot)
                grads = network_backward(spec, trace, d_logits / batch)
                emit_arrays(emit, f"{tag} {mode} grad", grads.main, grads.side)
            emit(f"{tag} trace-free logits", network_forward(spec, xb, trace=False)[0])
            if crop == 32:
                emit_layer_inputs(emit, f"{arch} {crop}px B=4", spec, xb[:4])
            cfg = TrainConfig(epochs=2, batch_size=batch, rng_seed=seed)
            metrics = train_loop(spec, train.subset(batch), cfg)
            emit(f"{tag} train_loop metrics", repr(metrics))
            emit_params(emit, f"{tag} train_loop", spec)


def emit_layer_inputs(emit: Emitter, tag: str, spec, xb) -> None:
    for chain, layers in (("main", spec.layers), ("side", spec.side_layers)):
        last = len(layers) - (chain == "main" and bool(spec.side_layers))
        for i in range(1, last + 1):
            emit(f"{tag} layer_input {chain}[:{i}]", layer_input(spec, chain, i, xb))


def restart_hashes(emit: Emitter, seed: int) -> None:
    # dhlac's bank kernel 0 and its velocity are negative, so the step's clip
    # leaves the kernel all zero: it restarts uniform and its velocity clears
    spec = build("dhlac", 16, seed)
    state = OptimizerState.zeros_like(spec)
    spec.side_params[0]["w"][..., 0] = -0.01
    state.velocities.side[0]["w"][..., 0] = -0.5
    stripes = StripeSpec(num_classes=CLASSES, canvas=64, crop=16, samples_per_class=2,
                         rng_seed=seed)
    train, _test = gen_stripe_dataset(stripes)
    loss = train_step(spec, (train.images, train.labels), TrainConfig(rng_seed=seed), state,
                      np.random.default_rng(seed + 1))
    tag = "dhlac 16px restart step"
    emit(f"{tag} loss", repr(loss))
    emit_params(emit, f"{tag} params", spec)
    emit_arrays(emit, f"{tag} velocities", state.velocities.main, state.velocities.side)


def run_cli(emit: Emitter, root: str, label: str, argv) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_dispatch(argv)
    text = f"exit {code}\n{out.getvalue()}{err.getvalue()}".replace(root, "<dir>")
    emit(f"cli {label} output", text)


def cli_hashes(emit: Emitter, seed: int) -> None:
    with tempfile.TemporaryDirectory() as root:
        data = os.path.join(root, "data")
        s = str(seed)
        run_cli(emit, root, "gen-stripes", ["gen-stripes", "--out", data, "--canvas", "96",
                                            "--crop", "24", "--samples", "8", "--seed", s])
        run_cli(emit, root, "hlac-extract", ["hlac-extract", "--images",
                                             os.path.join(data, "test-images.idx"),
                                             "--out", os.path.join(root, "hlac.csv")])
        run_cli(emit, root, "gradcheck", ["gradcheck", "--trials", "3", "--seed", s])
        for arch in ARCHS:
            run = os.path.join(root, arch)
            ckpt = run + ".net"
            run_cli(emit, root, f"{arch} train", ["train", "--arch", arch, "--dataset", data,
                                                  "--out", run, "--epochs", "2", "--seed", s])
            run_cli(emit, root, f"{arch} eval", ["eval", "--ckpt", ckpt, "--dataset", data])
            for viz in ("viz-kernels", "viz-features", "viz-cooc"):
                out = os.path.join(root, f"{arch}-{viz}")
                dataset = [] if viz == "viz-kernels" else ["--dataset", data]
                out = out + ".pgm" if viz == "viz-cooc" else out
                run_cli(emit, root, f"{arch} {viz}", [viz, ckpt, *dataset, "--out", out])
        for folder, _dirs, files in sorted(os.walk(root)):
            for name in sorted(files):
                path = os.path.join(folder, name)
                with open(path, "rb") as f:
                    emit(f"file {os.path.relpath(path, root)}", f.read())


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--npz", help="also save every hashed array to this .npz file")
    args = parser.parse_args()
    emit = Emitter({} if args.npz else None)
    for hashes in (stripe_hashes, network_hashes, restart_hashes, cli_hashes):
        hashes(emit, args.seed)
    if args.npz:
        np.savez(args.npz, **emit.arrays)


if __name__ == "__main__":
    main()
