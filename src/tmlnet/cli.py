"""Command-line front end for the whole toolkit.

Subcommands: gen-stripes, train, eval, gradcheck, viz-kernels, viz-features,
viz-cooc, hlac-extract. Options come from flags layered over a plain-text
key=value config file over built-in defaults; every run prints the resolved
configuration (including the seed) before doing anything, so logs pin down
reproducibility.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import gradcheck
from .datasets import (
    StripeSpec,
    gen_stripe_dataset,
    load_dataset_dir,
    load_idx_images,
    write_idx_images,
    write_idx_labels,
)
from .hlac import default_mask_set, hlac_vector, write_features_csv
from .network import (
    build_baseline_hlac_net,
    build_baseline_net,
    build_cooc_net,
    build_dhlac_net,
    init_params,
    layer_input,
    load_network,
    network_forward,
    save_network,
    tml_layer,
)
from .tml import TmlConfig, TmlKernels
from .training import TrainConfig, evaluate, train_loop
from .viz import (
    cooc_heat,
    cooc_highlight,
    render_feature_map,
    render_kernel_heatmap,
    write_pgm,
)

DEFAULTS = {
    "epochs": 30,
    "batch_size": 32,
    "learning_rate": 0.05,
    "momentum": 0.9,
    "lambda": 0.01,
    "c1": 1.0,
    "c2": 0.5,
    "eps": 1e-6,
    "kernel_h": 3,
    "kernel_w": 3,
    "num_kernels": 8,
    "seed": 0,
    "train_limit": 0,  # 0 = use everything
    "test_limit": 0,
    # stripe generation
    "classes": 6,
    "canvas": 1024,
    "crop": 32,
    "noise": 1.0,
    "samples": 100,
}

def parse_config_file(path) -> dict:
    """key=value lines; blank lines and #-comments ignored."""
    values = {}
    with open(path) as f:
        for ln_no, raw in enumerate(f, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{ln_no}: expected key=value, got {raw.strip()!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            if key not in DEFAULTS:
                raise ValueError(f"{path}:{ln_no}: unknown config key {key!r}")
            try:
                values[key] = type(DEFAULTS[key])(val)
            except ValueError as err:
                raise ValueError(f"{path}:{ln_no}: bad value for {key!r}: {err}") from err
    return values


def resolve_config(args, overrides=None) -> dict:
    cfg = dict(DEFAULTS)
    if overrides:
        cfg.update(overrides)
    if getattr(args, "config", None):
        cfg.update(parse_config_file(args.config))
    for key in DEFAULTS:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
    return cfg


def print_config(cfg: dict, keys=None) -> None:
    for key in sorted(keys or cfg):
        print(f"config {key}={cfg[key]}")
    print(f"seed {cfg['seed']}")


def _train_config(cfg: dict) -> TrainConfig:
    return TrainConfig(
        lam=cfg["lambda"],
        learning_rate=cfg["learning_rate"],
        momentum=cfg["momentum"],
        batch_size=cfg["batch_size"],
        epochs=cfg["epochs"],
        rng_seed=cfg["seed"],
    )


def _limited(ds, limit):
    return ds.subset(limit) if limit and limit < len(ds) else ds


def build_network(arch: str, input_shape, num_classes: int, cfg: dict):
    if arch in ("dhlac", "cooc"):
        bank = tml_layer(
            cfg["num_kernels"], cfg["kernel_h"], cfg["kernel_w"],
            TmlConfig(c1=cfg["c1"], c2=cfg["c2"], eps=cfg["eps"]),
        )
        build = build_dhlac_net if arch == "dhlac" else build_cooc_net
        return build(input_shape, num_classes, bank)
    if arch == "baseline":
        return build_baseline_net(input_shape, num_classes)
    if arch == "baseline+hlac":
        return build_baseline_hlac_net(input_shape, num_classes)
    raise ValueError(f"unknown architecture {arch!r}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_gen_stripes(args) -> int:
    cfg = resolve_config(args)
    keys = ("classes", "canvas", "crop", "noise", "samples")
    print_config(cfg, keys)
    spec = StripeSpec(
        num_classes=cfg["classes"],
        canvas=cfg["canvas"],
        crop=cfg["crop"],
        noise_amplitude=cfg["noise"],
        samples_per_class=cfg["samples"],
        rng_seed=cfg["seed"],
    )
    train, test = gen_stripe_dataset(spec)
    os.makedirs(args.out, exist_ok=True)
    for split, ds in (("train", train), ("test", test)):
        write_idx_images(ds.images, os.path.join(args.out, f"{split}-images.idx"))
        write_idx_labels(ds.labels.tolist(), os.path.join(args.out, f"{split}-labels.idx"))
        print(f"wrote {len(ds)} {split} images to {args.out}")
    return 0


def cmd_train(args) -> int:
    # a 1x1 bank is the natural default for channel co-occurrence
    overrides = {"kernel_h": 1, "kernel_w": 1} if args.arch == "cooc" else None
    cfg = resolve_config(args, overrides)
    print(f"architecture {args.arch}")
    print_config(cfg)
    for key in ("train_limit", "test_limit"):
        if cfg[key] < 0:
            raise ValueError(f"{key} must be nonnegative (0 = use everything), got {cfg[key]}")
    train_ds, test_ds = load_dataset_dir(args.dataset)
    train_ds = _limited(train_ds, cfg["train_limit"])
    test_ds = _limited(test_ds, cfg["test_limit"])
    num_classes = int(max(train_ds.labels.max(), test_ds.labels.max())) + 1
    input_shape = train_ds.images.shape[1:]
    print(f"dataset {args.dataset}: {len(train_ds)} train / {len(test_ds)} test, "
          f"{input_shape[0]}x{input_shape[1]}x{input_shape[2]}, {num_classes} classes")

    spec = build_network(args.arch, input_shape, num_classes, cfg)
    init_params(spec, np.random.default_rng(cfg["seed"]))
    tcfg = _train_config(cfg)
    metrics_path = args.out + ".metrics.csv"
    train_loop(spec, train_ds, tcfg, test_ds=test_ds, metrics_path=metrics_path, log=print)
    save_network(spec, args.out + ".net")
    print(f"checkpoint {args.out}.net (+.bin), metrics {metrics_path}")
    return 0


def cmd_eval(args) -> int:
    spec = load_network(args.ckpt)
    train_ds, test_ds = load_dataset_dir(args.dataset)
    ds = train_ds if args.split == "train" else test_ds
    acc = evaluate(spec, ds)
    print(f"{args.split} accuracy {acc:.4f} ({len(ds)} samples)")
    return 0


def cmd_gradcheck(args) -> int:
    cfg = resolve_config(args)
    print_config(cfg, keys=("seed",))
    ok = gradcheck.run_all(seed=cfg["seed"], trials=args.trials, emit=print)
    print("gradcheck " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def _checkpoint_bank(spec, path):
    """(chain, index, layer) of a checkpoint's multiplication layer, a trainable one first."""
    banks = sorted(spec.tml_entries(), key=lambda entry: not entry[2].trainable)
    if not banks:
        raise ValueError(f"{path}: network has no multiplication layer")
    return banks[0]


def cmd_viz_kernels(args) -> int:
    spec = load_network(args.ckpt)
    chain, i, layer = _checkpoint_bank(spec, args.ckpt)
    kernels = TmlKernels(layer.tml, spec.param_dict(chain, i)["w"])
    os.makedirs(args.out, exist_ok=True)
    _kh, _kw, channels, num_kernels = kernels.weights.shape
    for m in range(num_kernels):
        for k in range(channels):
            suffix = f"_c{k}" if channels > 1 else ""
            name = os.path.join(args.out, f"kernel_{m:02d}{suffix}.pgm")
            write_pgm(render_kernel_heatmap(kernels, m, k), name)
    print(f"wrote {num_kernels * channels} kernel heatmaps to {args.out}")
    return 0


def _image_from_dataset(args):
    train_ds, test_ds = load_dataset_dir(args.dataset)
    ds = train_ds if args.split == "train" else test_ds
    if not 0 <= args.index < len(ds):
        raise ValueError(f"index {args.index} outside dataset of {len(ds)} samples")
    return ds.images[args.index], int(ds.labels[args.index])


def cmd_viz_features(args) -> int:
    """One PGM per map of the checkpoint's bank for one image: the bank's
    output, which `layer_input` gives as the next layer's input."""
    spec = load_network(args.ckpt)
    image, label = _image_from_dataset(args)
    chain, i, _ = _checkpoint_bank(spec, args.ckpt)
    y = layer_input(spec, chain, i + 1, image[None])
    os.makedirs(args.out, exist_ok=True)
    for m in range(y.shape[3]):
        write_pgm(render_feature_map(y[0], m), os.path.join(args.out, f"feature_{m:02d}.pgm"))
    print(f"wrote {y.shape[3]} feature maps (label {label}) to {args.out}")
    return 0


def cmd_viz_cooc(args) -> int:
    spec = load_network(args.ckpt)
    image, label = _image_from_dataset(args)
    target = args.target_class
    if target is None:
        logits, _ = network_forward(spec, image[None], train_mode=False, trace=False)
        target = int(logits[0].argmax())
    heat, m, channels = cooc_heat(spec, image, target, nonzero_frac=args.threshold)
    write_pgm(cooc_highlight(image, heat), args.out)
    print(f"class {target} (label {label}): kernel {m}, "
          f"feature maps {channels.tolist()} -> {args.out}")
    return 0


def cmd_hlac_extract(args) -> int:
    images = load_idx_images(args.images)
    masks = default_mask_set()
    rows = [hlac_vector(img, masks) for img in images]
    write_features_csv(rows, args.out)
    print(f"wrote {len(rows)} feature rows ({len(rows[0]) if rows else 0} columns) to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_config_flags(p, keys=("seed",)):
    p.add_argument("--config", help="key=value config file")
    for key in keys:
        p.add_argument(f"--{key.replace('_', '-')}", dest=key, type=type(DEFAULTS[key]))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tmlnet",
        description="Trainable multiplication layer toolkit: data synthesis, "
        "training, gradient checks, and visualization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-stripes", help="generate the synthetic stripe texture set")
    p.add_argument("--out", required=True, help="output directory for IDX files")
    _add_config_flags(p, ("seed", "classes", "canvas", "crop", "noise", "samples"))
    p.set_defaults(func=cmd_gen_stripes)

    p = sub.add_parser("train", help="train a network on an IDX dataset directory")
    p.add_argument("--arch", required=True, choices=["dhlac", "cooc", "baseline", "baseline+hlac"])
    p.add_argument("--dataset", required=True, help="directory with {train,test}-{images,labels}.idx")
    p.add_argument("--out", default="run", help="output basename (default: run)")
    _add_config_flags(p, ("seed", "epochs", "batch_size", "learning_rate", "momentum",
                          "lambda", "c1", "c2", "eps", "kernel_h", "kernel_w",
                          "num_kernels", "train_limit", "test_limit"))
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="report accuracy of a checkpoint")
    p.add_argument("--ckpt", required=True, help="checkpoint .net file")
    p.add_argument("--dataset", required=True)
    p.add_argument("--split", default="test", choices=["train", "test"])
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference check of all gradients")
    p.add_argument("--trials", type=int, default=100)
    _add_config_flags(p, ("seed",))
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("viz-kernels", help="render kernel heatmaps as PGM files")
    p.add_argument("ckpt", help="checkpoint .net file")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_viz_kernels)

    p = sub.add_parser("viz-features", help="render multiplication-layer outputs for one image")
    p.add_argument("ckpt")
    p.add_argument("--dataset", required=True)
    p.add_argument("--split", default="test", choices=["train", "test"])
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_viz_features)

    p = sub.add_parser("viz-cooc", help="overlay traced co-occurrence evidence on an image")
    p.add_argument("ckpt")
    p.add_argument("--dataset", required=True)
    p.add_argument("--split", default="test", choices=["train", "test"])
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--target-class", type=int, default=None)
    p.add_argument("--threshold", type=float, default=0.05,
                   help="active-cell threshold as a fraction of c2")
    p.add_argument("--out", required=True, help="output PGM path")
    p.set_defaults(func=cmd_viz_cooc)

    p = sub.add_parser("hlac-extract", help="classical auto-correlation features to CSV")
    p.add_argument("--images", required=True, help="IDX image file")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_hlac_extract)

    return parser


def cli_dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
