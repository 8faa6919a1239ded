"""Command-line front end for the whole toolkit.

Subcommands: gen-stripes, train, eval, gradcheck, viz-kernels, viz-features,
viz-cooc, hlac-extract. gen-stripes, train and gradcheck take settings from
flags layered over a plain-text key=value config file over built-in defaults.
`SETTINGS` declares which settings each of them reads (train reads the bank's
only for an architecture with a trainable bank, per `ARCHS`). A setting that
sets a field of `StripeSpec`, `TrainConfig` or `TmlConfig` takes its default
from that dataclass, and `FIELDS` names the field it sets; a run builds each
dataclass through `FIELDS` too. A run prints every setting it reads, including
the seed, before doing anything, so logs pin down reproducibility, and rejects
any flag or config key it does not read.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import os
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import gradcheck
from .datasets import (
    StripeSpec,
    from_u8,
    gen_stripe_dataset,
    load_dataset_dir,
    read_idx_images,
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


def _fields(cls, renamed: dict) -> dict:
    """Setting name -> field of dataclass `cls`: each field is the setting of
    its own name, unless `renamed` (setting -> field name) names another."""
    setting = {field: key for key, field in renamed.items()}
    return {setting.get(f.name, f.name): f for f in dataclasses.fields(cls)}


# each config dataclass's table of the settings that set its fields
FIELDS = {
    StripeSpec: _fields(StripeSpec, {"seed": "rng_seed", "classes": "num_classes",
                                     "noise": "noise_amplitude", "samples": "samples_per_class"}),
    TrainConfig: _fields(TrainConfig, {"seed": "rng_seed", "lambda": "lam"}),
    TmlConfig: _fields(TmlConfig, {}),
}


def defaults(cls) -> dict:
    """The settings of config dataclass `cls`, each with its field's default."""
    return {key: f.default for key, f in FIELDS[cls].items()}


def from_settings(cls, cfg: dict):
    """An instance of config dataclass `cls` with each field from its setting in `cfg`."""
    return cls(**{f.name: cfg[key] for key, f in FIELDS[cls].items()})


def _default(fn, param: str):
    """The default of `fn`'s parameter `param`, for the flag that passes it on."""
    return inspect.signature(fn).parameters[param].default


# the settings each configurable command reads, with their defaults
SETTINGS = {"gen-stripes": defaults(StripeSpec), "train": defaults(TrainConfig),
            "gradcheck": {"seed": _default(gradcheck.run_all, "seed")}}
# what train reads besides for an architecture with a trainable bank
BANK_SETTINGS = defaults(TmlConfig) | {"kernel_h": 3, "kernel_w": 3, "num_kernels": 8}
DEFAULTS = SETTINGS["gen-stripes"] | SETTINGS["train"] | BANK_SETTINGS
SPLITS = ("train", "test")  # the order `load_dataset_dir` and `gen_stripe_dataset` return them in


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
    blank lines and #-comments ignored; a key given twice is an error."""
    values, first = {}, {}
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
            if key in first:
                raise ValueError(f"{path}:{ln_no}: config key {key!r} given twice "
                                 f"(first on line {first[key]})")
            first[key] = ln_no
            try:
                values[key] = type(settings[key])(val)
            except ValueError as err:
                raise ValueError(f"{path}:{ln_no}: bad value for {key!r}: {err}") from err
    return values


def resolve_config(args) -> dict:
    """The settings the run reads, each from its flag, else the config file,
    else the architecture's bank defaults, else `SETTINGS` and `BANK_SETTINGS`,
    printed one `config key=value` line each. A flag or config key the run does
    not read is a ValueError, raised before anything else runs."""
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
    cfg |= flags
    for key in sorted(cfg):
        print(f"config {key}={cfg[key]}")
    return cfg


def build_network(arch: str, input_shape, num_classes: int, cfg: dict):
    """The `ARCHS` net; one with a trainable bank takes its geometry and
    constants from `cfg`, whose other keys go unread."""
    if arch not in ARCHS:
        raise ValueError(f"unknown architecture {arch!r}")
    build, bank = ARCHS[arch]
    if bank is None:
        return build(input_shape, num_classes)
    tml = from_settings(TmlConfig, cfg)
    return build(input_shape, num_classes,
                 tml_layer(cfg["num_kernels"], cfg["kernel_h"], cfg["kernel_w"], tml))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_gen_stripes(args) -> int:
    cfg = resolve_config(args)
    datasets = gen_stripe_dataset(from_settings(StripeSpec, cfg))
    os.makedirs(args.out, exist_ok=True)
    for split, ds in zip(SPLITS, datasets):
        write_idx_images(ds.images, os.path.join(args.out, f"{split}-images.idx"))
        write_idx_labels(ds.labels.tolist(), os.path.join(args.out, f"{split}-labels.idx"))
        print(f"wrote {len(ds)} {split} images to {args.out}")
    return 0


def cmd_train(args) -> int:
    print(f"architecture {args.arch}")
    cfg = resolve_config(args)
    tcfg = from_settings(TrainConfig, cfg)
    if not os.path.isdir(os.path.dirname(args.out) or "."):
        raise ValueError(f"output directory {os.path.dirname(args.out)} does not exist")
    train_ds, test_ds = load_dataset_dir(args.dataset)
    num_classes = int(max(train_ds.labels.max(), test_ds.labels.max())) + 1
    input_shape = train_ds.take(0).shape
    print(f"dataset {args.dataset}: {len(train_ds)} train / {len(test_ds)} test, "
          f"{input_shape[0]}x{input_shape[1]}x{input_shape[2]}, {num_classes} classes")

    spec = build_network(args.arch, input_shape, num_classes, cfg)
    init_params(spec, np.random.default_rng(cfg["seed"]))
    metrics_path = args.out + ".metrics.csv"
    train_loop(spec, train_ds, tcfg, test_ds=test_ds, metrics_path=metrics_path, log=print)
    save_network(spec, args.out + ".net")
    print(f"checkpoint {args.out}.net (+.bin), metrics {metrics_path}")
    return 0


def cmd_eval(args) -> int:
    spec = load_network(args.ckpt)
    ds = load_dataset_dir(args.dataset)[SPLITS.index(args.split)]
    acc = evaluate(spec, ds)
    print(f"{args.split} accuracy {acc:.4f} ({len(ds)} samples)")
    return 0


def cmd_gradcheck(args) -> int:
    cfg = resolve_config(args)
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
    ds = load_dataset_dir(args.dataset)[SPLITS.index(args.split)]
    if not 0 <= args.index < len(ds):
        raise ValueError(f"index {args.index} outside dataset of {len(ds)} samples")
    return ds.take(args.index), int(ds.labels[args.index])


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
    masks = default_mask_set()
    rows = [hlac_vector(from_u8(img), masks) for img in read_idx_images(args.images)]
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


def _add_image_flags(p):
    p.add_argument("ckpt")
    p.add_argument("--dataset", required=True)
    p.add_argument("--split", default="test", choices=SPLITS)
    p.add_argument("--index", type=int, default=0)


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
    p.add_argument("--split", default="test", choices=SPLITS)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference check of all gradients")
    p.add_argument("--trials", type=int, default=_default(gradcheck.run_all, "trials"))
    _add_config_flags(p, SETTINGS["gradcheck"])
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("viz-kernels", help="render kernel heatmaps as PGM files")
    p.add_argument("ckpt", help="checkpoint .net file")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_viz_kernels)

    p = sub.add_parser("viz-features", help="render multiplication-layer outputs for one image")
    _add_image_flags(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_viz_features)

    p = sub.add_parser("viz-cooc", help="overlay traced co-occurrence evidence on an image")
    _add_image_flags(p)
    p.add_argument("--target-class", type=int, default=None)
    p.add_argument("--threshold", type=float, default=_default(cooc_heat, "nonzero_frac"),
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
