"""Command-line front end for the whole toolkit.

Subcommands: gen-stripes, train, eval, gradcheck, viz-kernels, viz-features,
viz-cooc, hlac-extract. gen-stripes, train and gradcheck take settings from
flags layered over a plain-text key=value config file over built-in defaults.
`SETTINGS` declares which settings each of them reads (train reads the bank's
only for an architecture with a trainable bank, per `ARCHS`); a run prints
every setting it reads, including the seed, before doing anything, so logs pin
down reproducibility, and rejects any flag or config key it does not read.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, NamedTuple

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
from .tml import TmlConfig
from .training import TrainConfig, evaluate, train_loop
from .viz import (
    cooc_heat,
    cooc_highlight,
    render_feature_map,
    render_kernel_heatmap,
    write_pgm,
)

# the settings each configurable command reads, with their defaults
SEED = {"seed": 0}
SETTINGS = {
    "gen-stripes": SEED | {"classes": 6, "canvas": 1024, "crop": 32, "noise": 1.0, "samples": 100},
    "gradcheck": SEED,
    "train": SEED | {"epochs": 30, "batch_size": 32, "learning_rate": 0.05, "momentum": 0.9,
                     "lambda": 0.01, "train_limit": 0, "test_limit": 0},  # limit 0: use all
}
# what train reads besides for an architecture with a trainable bank
BANK_SETTINGS = {"c1": 1.0, "c2": 0.5, "eps": 1e-6, "kernel_h": 3, "kernel_w": 3, "num_kernels": 8}
DEFAULTS = SETTINGS["gen-stripes"] | SETTINGS["train"] | BANK_SETTINGS


class Arch(NamedTuple):
    build: Callable
    bank: dict | None  # its trainable bank's defaults over BANK_SETTINGS; None: no such bank


ARCHS = {
    "dhlac": Arch(build_dhlac_net, {}),
    # a 1x1 bank is the natural default for channel co-occurrence
    "cooc": Arch(build_cooc_net, {"kernel_h": 1, "kernel_w": 1}),
    "baseline": Arch(build_baseline_net, None),
    "baseline+hlac": Arch(build_baseline_hlac_net, None),
}


def parse_config_file(path, settings: dict, run: str) -> dict:
    """key=value lines, each key one of `settings` (typed by its default);
    blank lines and #-comments ignored."""
    values = {}
    with open(path) as f:
        for ln_no, raw in enumerate(f, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{ln_no}: expected key=value, got {raw.strip()!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            if key not in settings:
                raise ValueError(f"{path}:{ln_no}: unknown config key {key!r} for {run}")
            try:
                values[key] = type(settings[key])(val)
            except ValueError as err:
                raise ValueError(f"{path}:{ln_no}: bad value for {key!r}: {err}") from err
    return values


def resolve_config(args) -> dict:
    """The settings the run reads, each from its flag, else the config file,
    else the architecture's bank defaults, else `SETTINGS` and `BANK_SETTINGS`.
    A flag or config key the run does not read is a ValueError, raised before
    anything else runs."""
    run, bank = args.command, None
    if getattr(args, "arch", None):
        run, bank = f"{run} --arch {args.arch}", ARCHS[args.arch].bank
    cfg = SETTINGS[args.command] | (BANK_SETTINGS | bank if bank is not None else {})
    flags = {key: getattr(args, key) for key in DEFAULTS if getattr(args, key, None) is not None}
    for key in flags:
        if key not in cfg:
            raise ValueError(f"--{key.replace('_', '-')} is not a setting of {run}")
    if args.config:
        cfg.update(parse_config_file(args.config, cfg, run))
    return cfg | flags


def print_config(cfg: dict) -> None:
    for key in sorted(cfg):
        print(f"config {key}={cfg[key]}")


def _limited(ds, limit):
    return ds.subset(limit) if limit and limit < len(ds) else ds


def build_network(arch: str, input_shape, num_classes: int, cfg: dict):
    """The `ARCHS` net; one with a trainable bank takes its geometry and
    constants from `cfg`, whose other keys go unread."""
    if arch not in ARCHS:
        raise ValueError(f"unknown architecture {arch!r}")
    build, bank = ARCHS[arch]
    if bank is None:
        return build(input_shape, num_classes)
    tml = TmlConfig(c1=cfg["c1"], c2=cfg["c2"], eps=cfg["eps"])
    return build(input_shape, num_classes,
                 tml_layer(cfg["num_kernels"], cfg["kernel_h"], cfg["kernel_w"], tml))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_gen_stripes(args) -> int:
    cfg = resolve_config(args)
    print_config(cfg)
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
    cfg = resolve_config(args)
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
    tcfg = TrainConfig(lam=cfg["lambda"], learning_rate=cfg["learning_rate"],
                       momentum=cfg["momentum"], batch_size=cfg["batch_size"],
                       epochs=cfg["epochs"], rng_seed=cfg["seed"])
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
    print_config(cfg)
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
    weights = spec.param_dict(chain, i)["w"]
    os.makedirs(args.out, exist_ok=True)
    _kh, _kw, channels, num_kernels = weights.shape
    for m in range(num_kernels):
        for k in range(channels):
            suffix = f"_c{k}" if channels > 1 else ""
            name = os.path.join(args.out, f"kernel_{m:02d}{suffix}.pgm")
            write_pgm(render_kernel_heatmap(weights, layer.tml.c2, m, k), name)
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


def _add_config_flags(p, settings: dict):
    p.add_argument("--config", help="key=value config file")
    for key, default in settings.items():
        p.add_argument(f"--{key.replace('_', '-')}", dest=key, type=type(default))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tmlnet",
        description="Trainable multiplication layer toolkit: data synthesis, "
        "training, gradient checks, and visualization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-stripes", help="generate the synthetic stripe texture set")
    p.add_argument("--out", required=True, help="output directory for IDX files")
    _add_config_flags(p, SETTINGS["gen-stripes"])
    p.set_defaults(func=cmd_gen_stripes)

    p = sub.add_parser("train", help="train a network on an IDX dataset directory")
    p.add_argument("--arch", required=True, choices=list(ARCHS))
    p.add_argument("--dataset", required=True, help="directory with {train,test}-{images,labels}.idx")
    p.add_argument("--out", default="run", help="output basename (default: run)")
    _add_config_flags(p, SETTINGS["train"] | BANK_SETTINGS)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="report accuracy of a checkpoint")
    p.add_argument("--ckpt", required=True, help="checkpoint .net file")
    p.add_argument("--dataset", required=True)
    p.add_argument("--split", default="test", choices=["train", "test"])
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference check of all gradients")
    p.add_argument("--trials", type=int, default=100)
    _add_config_flags(p, SETTINGS["gradcheck"])
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
