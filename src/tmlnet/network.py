"""Network assembly: layer specs, shape checking, forward/backward, and the
two multiplication-layer topologies (input-side auto-correlation extractor
and mid-network co-occurrence extractor), plus a plain baseline CNN.

A network is a main chain of layers whose last layer emits the logits that
training scores with `layers.softmax_xent`, optionally joined by a side
chain that also reads the network input (the multiplication layer + average
pooling of the auto-correlation topology). The chains meet at the main
chain's last layer: the main activation is flattened and the side vector is
concatenated in front of it.

Activation volumes are (B, rows, cols, channels); vectors are (B, dims).

Each layer kind is defined once, as one `Kind` entry of the `KINDS` table:
its forward and backward, output shape, parameter shapes and init, and its
checkpoint fields, the one list of its hyperparameters. The entries reach
their kernels through the module at call time (`L.conv2d_forward`,
`T.forward_batch`, ...) and never hold a reference to a kernel function, so
code that replaces a module attribute (a tracer, a test's call recorder)
sees every call.

A layer runs its backward only if it or a layer beneath it (towards the
input; for the main chain's last layer, the side chain too) has weights that
train: a conv, an fc or a trainable tml bank. Only such a layer keeps a
cache in the trace, and it computes its input's gradient only if a layer
beneath it runs its backward; the shape walk (`_chain_shapes`) works out
this step. The backward runs the main chain's last layer, the side chain,
then the rest of the main chain. baseline+hlac's side chain, the frozen HLAC
bank and its GAP, runs none, and keeps no cache.

A tml bank whose only consumer is a gap, and whose input gradient nothing
reads (the walk's `pooled`: the side banks of dhlac and baseline+hlac, not
cooc's), runs with the gap as one pooled step, traced or not
(`tml.forward_batch(..., pool=True)`): it returns the gap's vector, bit-equal
to the gap of the maps, and never holds the maps. A bank that trains caches
each image's product q (`tml`'s docstring), its gap the maps' shape, and
the gap's backward, a broadcast view, hands the bank the d_y its d_w reads.
The walk alone says which banks pool, and every forward pairs each with its
gap: a block stop is a layer with weights, and a gap has none, so no block
splits a pair. `layer_input` runs with no bank pooled, so a gap's input is
its bank's maps.

The side chain runs forward first. A traced forward runs every layer of
both chains over the whole batch, and a train-mode dropout draws its masks
for the whole batch in chain order; the pooled step keeps baseline+hlac's
frozen bank from ever holding its 25 maps (197 MB for 64-px crops at
B=256). A forward without a trace (`trace=False`, eval mode only) runs each
chain's leading layers depth-first: the batch is cut into blocks of whole
images, and each block runs through them up to the chain's block stop and
is copied into the whole batch's output there before the next block starts.
A chain's block stop is its first layer that has weights and a vector
output (an fc), and with a side chain at the latest the main chain's last
layer, which reads the joined vector; the rest of both chains, and the
join, then run once over the whole batch. So an fc weight is read once per
batch, not once per block (baseline's 2.4 MB fc(64) weight was streamed 52
times per 256-image batch of 64-px crops), while GAP, which turns a volume
into a vector, still runs inside the blocks. A block holds
`_EVAL_BLOCK_BYTES // (8 * widest)` images, at least one, where `widest` is
the largest per-image activation on the shape walk of either chain. So each
layer's output for a block is at most 4 MiB, and the allocator serves it
from freed heap memory: an eval pass of 1024 64-px crops through the HLAC
net takes no page faults. A whole-batch output (63 MB for that net's first
conv at B=256) is fresh pages the kernel zero-fills on every batch, and the
next layer reads it back from memory: on a 2-vCPU Xeon that net's eval ran
at 1328 images per CPU-second with the whole batch as one block and at 1698
with the blocks (medians of 8 alternating passes). The size scales with the
activation because no fixed image count fits every net: the 64-px HLAC net
ran fastest with 4-8 images per block, while the 32-px dhlac net ran
fastest with 16-48 and slower with 8 than with the whole batch. Blocked
logits can differ from whole-batch ones in the last bits (relative 3e-13 at
most on the shipped nets), because OpenBLAS may sum a GEMM in an order that
depends on its shape and the block sets the shape; a whole-batch forward
already differs the same way between batch sizes.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import Callable, NamedTuple

import numpy as np

from . import layers as L
from . import tml as T
from .hlac import default_mask_set, masks_to_binary_kernels

NET_MAGIC = b"TMLP"
NET_FORMAT = "tmlnet-net-v3"
NET_BLOB_VERSION = 1

_EVAL_BLOCK_BYTES = 4 << 20  # widest activation of one block of images
HLAC_EPS = 1e-6  # log offset of baseline+hlac's frozen bank


@dataclass
class LayerSpec:
    kind: str
    out_channels: int | None = None  # conv, tml
    kernel_h: int | None = None  # conv, tml
    kernel_w: int | None = None  # conv, tml
    units: int | None = None  # fc
    rate: float | None = None  # dropout
    tml: T.TmlConfig | None = None  # tml
    trainable: bool = True  # tml: a frozen bank gets no gradient, update or projection

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        kind = KINDS[self.kind]
        for _key, attr, parse in kind.fields:
            try:
                v = attrgetter(attr)(self)
            except AttributeError:
                raise ValueError(f"{self.kind} layer has no {attr}") from None
            if parse is int and (not isinstance(v, (int, np.integer)) or v < 1):
                raise ValueError(f"{self.kind} {attr} must be a positive integer, got {v!r}")
        named = {"kind", *(attr.split(".")[0] for _key, attr, _parse in kind.fields)}
        for f in fields(self):
            if f.name not in named and getattr(self, f.name) != f.default:
                raise ValueError(f"{self.kind} takes no {f.name}, got {getattr(self, f.name)!r}")
        kind.check(self)


def conv(out_channels, kernel_h, kernel_w):
    return LayerSpec("conv", out_channels=out_channels, kernel_h=kernel_h, kernel_w=kernel_w)


def fc(units):
    return LayerSpec("fc", units=units)


def dropout(rate):
    return LayerSpec("dropout", rate=rate)


def tml_layer(out_channels, kernel_h, kernel_w, cfg: T.TmlConfig, trainable: bool = True):
    """A multiplication layer: a conv's geometry (its input channels come from
    the input) with the bank's constraint constants `cfg`."""
    return LayerSpec("tml", out_channels=out_channels, kernel_h=kernel_h, kernel_w=kernel_w,
                     tml=cfg, trainable=trainable)


@dataclass
class NetworkSpec:
    """Layer chains plus every learnable array (CNN weights and exponent kernels)."""

    layers: list[LayerSpec]
    input_shape: tuple[int, int, int]
    num_classes: int
    side_layers: list[LayerSpec] = field(default_factory=list)
    params: list[dict] = field(default_factory=list)
    side_params: list[dict] = field(default_factory=list)

    def tml_entries(self):
        """Yield (chain_name, index, LayerSpec) for every multiplication layer."""
        for chain, specs in (("main", self.layers), ("side", self.side_layers)):
            for i, layer in enumerate(specs):
                if layer.kind == "tml":
                    yield chain, i, layer

    def param_dict(self, chain: str, index: int) -> dict:
        return (self.params if chain == "main" else self.side_params)[index]


@dataclass
class ForwardTrace:
    """Per-layer caches for one batch, with the shape walks of the forward
    that made them; feeds network_backward exactly once. Only this module
    reads the caches: other code gets a layer's input from `layer_input`."""

    caches: list
    side_caches: list
    main: ChainWalk
    side: ChainWalk
    consumed: bool = False


@dataclass
class Gradients:
    main: list[dict]
    side: list[dict]


# ---------------------------------------------------------------------------
# layer kinds
# ---------------------------------------------------------------------------


def _volume(layer: LayerSpec, shape):
    if len(shape) != 3:
        raise ValueError(f"{layer.kind} needs a feature volume input")
    return shape


def _valid_shape(layer: LayerSpec, shape):
    """Output shape of a conv or tml layer: valid-padding stride-1 correlation."""
    h, w, _c = _volume(layer, shape)
    kh, kw = layer.kernel_h, layer.kernel_w
    if h < kh or w < kw:
        raise ValueError(f"{layer.kind} kernel {kh}x{kw} exceeds input {h}x{w}")
    return (h - kh + 1, w - kw + 1, layer.out_channels)


def _pool_shape(layer: LayerSpec, shape):
    h, w, c = _volume(layer, shape)
    if h < 2 or w < 2:
        raise ValueError(f"input {h}x{w} too small for 2x2 pooling")
    return (h // 2, w // 2, c)


def _tml_shape(layer: LayerSpec, shape):
    """A conv's output shape, once c1/c2 fits the kh * kw * channels cells of a kernel."""
    out = _valid_shape(layer, shape)
    cells = layer.kernel_h * layer.kernel_w * shape[2]
    ratio = layer.tml.c1 / layer.tml.c2
    if ratio > cells:
        raise ValueError(f"constraints infeasible: c1/c2 = {ratio} exceeds kernel cell count {cells}")
    return out


def _fan_in_normal(gain: float):
    """Init of a weight (..., out) and its bias: w ~ N(0, gain / fan_in), b = 0,
    where fan_in is the product of every weight axis but the last."""

    def init(layer, shapes, rng):
        std = np.sqrt(gain / math.prod(shapes["w"][:-1]))
        return {"w": rng.normal(0.0, std, size=shapes["w"]), "b": np.zeros(shapes["b"])}

    return init


def _check_rate(layer: LayerSpec):
    if not (isinstance(layer.rate, (int, float)) and 0.0 <= layer.rate < 1.0):
        raise ValueError(f"dropout rate must be in [0, 1), got {layer.rate!r}")


def _weight_grads(d_x, d_w, d_b):
    return d_x, {"w": d_w, "b": d_b}


def _sigmoid_forward(layer, p, a, train_mode, rng, keep):
    y = L.sigmoid_forward(a)
    return y, y


def _relu_forward(layer, p, a, train_mode, rng, keep):
    y = L.relu_forward(a)
    return y, y


def _dropout_forward(layer, p, a, train_mode, rng, keep):
    if train_mode and layer.rate > 0 and rng is None:
        raise ValueError("training forward through dropout needs an rng")
    return L.dropout_forward(a, layer.rate, rng, train_mode)


def _tml_forward(layer, p, a, train_mode, rng, keep):
    kernels = T.TmlKernels(layer.tml, p["w"])
    if not layer.trainable:  # its backward computes d_x alone, from x and y
        y = T.forward_batch(a, kernels)
        return y, (a, y)
    y, z = T.forward_batch(a, kernels, return_cache=True)
    return y, (a, y, z)


def _tml_pooled(layer, p, a, keep):
    kernels = T.TmlKernels(layer.tml, p["w"])
    if keep:  # the bank trains: its d_w reads q
        return T.forward_batch(a, kernels, return_cache=True, pool=True)
    return T.forward_batch(a, kernels, pool=True), None


def _tml_backward(layer, p, cache, d_y, need_dx):
    kernels = T.TmlKernels(layer.tml, p["w"])
    if not isinstance(cache, tuple):  # the pooled step's q: a d_w, and no d_x
        return None, {"w": T.backward_weights_batch(cache, None, d_y, kernels)}
    x, y = cache[:2]
    d_x = T.backward_input_batch(x, y, d_y, kernels) if need_dx else None
    if not layer.trainable:
        return d_x, {}
    return d_x, {"w": T.backward_weights_batch(cache[2], y, d_y, kernels)}


def _flag(text: str) -> bool:
    if text not in ("0", "1"):
        raise ValueError(f"a flag must be 0 or 1, got {text!r}")
    return text == "1"


def _tml_from_fields(values: dict) -> LayerSpec:
    cfg = {path[4:]: values.pop(path) for path in list(values) if path.startswith("tml.")}
    return LayerSpec("tml", tml=T.TmlConfig(**cfg), **values)


@dataclass(frozen=True)
class Kind:
    """What one layer kind does; every function takes the LayerSpec first.

    Conv and tml share their geometry: out_channels kernels of kernel_h x
    kernel_w cells over every input channel, a (kh, kw, in, out) weight.

    `fields` are also the rule a spec is checked by: each path resolves, each
    int field is a positive integer, and every other attribute keeps its
    default. `check` adds what fields cannot say (dropout's rate range), and
    `make` exists only for fields nested in a config (tml's `TmlConfig`).

    The network runs a layer's backward only if the layer or one beneath it
    trains (the shape walk's step), and passes it `need_dx`: whether a layer
    beneath it runs its backward. Conv and tml backwards return d_input None
    when it is False. Param grads hold only the arrays that train: a frozen
    tml bank returns {}.

    A forward is passed `keep`: whether the trace keeps its cache, which it
    does only for a layer whose backward runs. The cache: conv and fc keep
    their input x; maxpool its route (`layers.PoolRoute`: one uint8 per
    block naming the position its d_y goes to, with x's shape and layout),
    which it computes only when kept; relu and sigmoid their output y; gap
    the input shape; dropout its keep mask (None in eval mode); tml (x, y, z)
    with z = log(x + eps), which d_w reads, and a frozen bank (x, y). `pooled`
    runs a layer and the gap after it as one step and returns the gap's
    vector: a tml bank keeps q, (B, kh*kw*K, M), its d_w's only input. A
    cached input is the array the layer beneath returned, not a copy, so the
    trace holds each activation once. In a conv -> maxpool -> relu stack no
    cache holds the conv's output: the pool keeps its route, a 32nd of that
    output's bytes, and the relu's pooled output y is also the next layer's
    x. In a relu -> maxpool stack (older checkpoints) the relu keeps its
    whole unpooled output.
    """

    forward: Callable  # (layer, params, a, train_mode, rng, keep) -> (y, cache)
    backward: Callable  # (layer, params, cache, d_y, need_dx) -> (d_x, param grads)
    out_shape: Callable = lambda layer, shape: shape  # (h, w, c) volume or (d,) vector
    param_shapes: Callable = lambda layer, in_shape: {}
    init: Callable = lambda layer, shapes, rng: {}  # (layer, param shapes, rng) -> params
    check: Callable = lambda layer: None  # raises ValueError on a bad hyperparameter
    fields: tuple = ()  # checkpoint fields: (key, LayerSpec attribute path, parser)
    make: Callable | None = None  # ({attribute path: value}) -> LayerSpec
    pooled: Callable | None = None  # (layer, params, a, keep) -> (gap's vector, cache)


KINDS = {
    "conv": Kind(
        forward=lambda layer, p, a, train_mode, rng, keep: (
            L.conv2d_forward(a, p["w"], p["b"]), a
        ),
        backward=lambda layer, p, x, d_y, need_dx: _weight_grads(
            *L.conv2d_backward(x, p["w"], d_y, need_dx=need_dx)
        ),
        out_shape=_valid_shape,
        param_shapes=lambda layer, in_shape: {
            "w": (layer.kernel_h, layer.kernel_w, in_shape[2], layer.out_channels),
            "b": (layer.out_channels,),
        },
        init=_fan_in_normal(2.0),
        fields=(("out", "out_channels", int), ("kh", "kernel_h", int), ("kw", "kernel_w", int)),
    ),
    "maxpool": Kind(
        forward=lambda layer, p, a, train_mode, rng, keep: (
            L.maxpool_forward(a, return_route=True) if keep else (L.maxpool_forward(a), None)
        ),
        backward=lambda layer, p, route, d_y, need_dx: (L.maxpool_backward(d_y, route), {}),
        out_shape=_pool_shape,
    ),
    "relu": Kind(
        forward=_relu_forward,
        backward=lambda layer, p, y, d_y, need_dx: (L.relu_backward(d_y, y), {}),
    ),
    "sigmoid": Kind(
        forward=_sigmoid_forward,
        backward=lambda layer, p, y, d_y, need_dx: (L.sigmoid_backward(d_y, y), {}),
    ),
    "fc": Kind(
        forward=lambda layer, p, a, train_mode, rng, keep: (L.fc_forward(a, p["w"], p["b"]), a),
        backward=lambda layer, p, x, d_y, need_dx: _weight_grads(*L.fc_backward(x, p["w"], d_y)),
        out_shape=lambda layer, shape: (layer.units,),
        param_shapes=lambda layer, in_shape: {
            "w": (math.prod(in_shape), layer.units),
            "b": (layer.units,),
        },
        init=_fan_in_normal(1.0),
        fields=(("units", "units", int),),
    ),
    "gap": Kind(
        forward=lambda layer, p, a, train_mode, rng, keep: (L.gap_forward(a), a.shape),
        backward=lambda layer, p, in_shape, d_y, need_dx: (L.gap_backward(d_y, in_shape), {}),
        out_shape=lambda layer, shape: (_volume(layer, shape)[2],),
    ),
    "dropout": Kind(
        forward=_dropout_forward,
        backward=lambda layer, p, mask, d_y, need_dx: (
            L.dropout_backward(d_y, mask, layer.rate), {}
        ),
        check=_check_rate,
        fields=(("rate", "rate", float),),
    ),
}

# a conv without bias whose weights are exponents: conv geometry and fields
KINDS["tml"] = Kind(
    forward=_tml_forward,
    backward=_tml_backward,
    out_shape=_tml_shape,
    param_shapes=lambda layer, shape: {"w": KINDS["conv"].param_shapes(layer, shape)["w"]},
    init=lambda layer, shapes, rng: {"w": T.init_kernels(layer.tml, shapes["w"], rng).weights},
    fields=KINDS["conv"].fields + (
        ("c1", "tml.c1", float),
        ("c2", "tml.c2", float),
        ("eps", "tml.eps", float),
        ("trainable", "trainable", _flag),
    ),
    make=_tml_from_fields,
    pooled=_tml_pooled,
)


class ChainWalk(NamedTuple):
    """What the shape walk of one chain finds (`_chain_shapes`)."""

    param_shapes: list  # per layer: {array name: shape}
    steps: list  # per layer: its backward's (runs, need_dx)
    shapes: list  # the chain's input shape, then each layer's output shape
    stop: int  # the block stop
    pooled: frozenset  # layers that run with the gap after them as one pooled step


def _chain_shapes(layers: list[LayerSpec], shape, side: ChainWalk | None = None) -> ChainWalk:
    """Walk a chain from its input `shape`, layer by layer.

    A layer's step (runs, need_dx) follows the rule in the module docstring:
    it trains if it is trainable and has parameters. The block stop is the
    first layer that has weights and a vector output (len(layers) if none).
    Given the walk of a side chain that ends in a (d,) vector, the last layer
    reads that vector prepended to the flattened activation, runs its
    backward if a side layer trains, and is the block stop at the latest.
    """
    param_shapes, steps, shapes, below = [], [], [shape], False
    stop = len(layers) - (side is not None)
    for i, layer in enumerate(layers):
        if side is not None and i == len(layers) - 1:
            shape = (side.shapes[-1][0] + math.prod(shape),)
            below |= side.steps[-1][0]
        kind = KINDS[layer.kind]
        out = kind.out_shape(layer, shape)
        param_shapes.append(kind.param_shapes(layer, shape))
        trains = layer.trainable and bool(param_shapes[-1])
        steps.append((below or trains, below))
        below |= trains
        if i < stop and len(out) == 1 and param_shapes[-1]:
            stop = i
        shape = out
        shapes.append(shape)
    pooled = frozenset(
        i for i, (layer, after) in enumerate(zip(layers, layers[1:]))
        if KINDS[layer.kind].pooled and after.kind == "gap" and not steps[i][1]
    )
    return ChainWalk(param_shapes, steps, shapes, stop, pooled)


def validate_network(spec: NetworkSpec):
    """Walk both chains, checking shape compatibility.

    Returns (main walk, side walk, widest), where widest is the largest
    per-image activation size (values) on either chain.
    """
    shape = spec.input_shape
    if len(shape) != 3 or not all(isinstance(n, (int, np.integer)) and n > 0 for n in shape):
        raise ValueError(f"input shape must be three positive integers, got {shape}")
    if not spec.layers:
        raise ValueError("network has no layers")
    side = _chain_shapes(spec.side_layers, spec.input_shape)
    if spec.side_layers and len(side.shapes[-1]) != 1:
        raise ValueError(f"side chain must end in a vector, got shape {side.shapes[-1]}")
    main = _chain_shapes(spec.layers, spec.input_shape, side if spec.side_layers else None)
    if main.shapes[-1] != (spec.num_classes,):
        raise ValueError(f"expected ({spec.num_classes},) logits, chain produces {main.shapes[-1]}")
    return main, side, max(map(math.prod, main.shapes + side.shapes))


def init_params(spec: NetworkSpec, rng: np.random.Generator) -> NetworkSpec:
    """Fill in every unset parameter array with its kind's init (He-style for
    conv, scaled normal for fc, uniform-then-project for exponent kernels).

    Pre-seeded entries (e.g. frozen binary kernel banks) are kept; their
    shapes must fit the layer. The side chain initializes first, then the
    main chain, so a given seed always produces the same parameter stream.
    """
    main, side, _ = validate_network(spec)
    for attr, specs, shapes in (
        ("side_params", spec.side_layers, side.param_shapes),
        ("params", spec.layers, main.param_shapes),
    ):
        params = list(getattr(spec, attr)) or [None] * len(specs)
        for i, layer in enumerate(specs):
            if params[i] is None:
                params[i] = KINDS[layer.kind].init(layer, shapes[i], rng)
            elif {key: a.shape for key, a in params[i].items()} != shapes[i]:
                raise ValueError(f"{layer.kind} layer {i} parameters do not have shapes {shapes[i]}")
        setattr(spec, attr, params)
    return spec


# ---------------------------------------------------------------------------
# forward / backward
# ---------------------------------------------------------------------------


def network_forward(spec: NetworkSpec, xb, train_mode: bool = False, rng=None, trace: bool = True):
    """Run a batch through the network; returns (logits, ForwardTrace).

    `trace=False` says the caller needs only the logits: the call returns
    (logits, None) and runs in eval mode only, cutting the layers before each
    chain's block stop into blocks of images. A traced forward runs every
    layer over the whole batch. The module docstring says which caches a
    trace keeps.
    """
    if train_mode and not trace:
        raise ValueError("a forward without trace runs in eval mode only")
    xb = _checked_batch(spec, xb)
    main, side, widest = validate_network(spec)
    block = None if trace else max(1, _EVAL_BLOCK_BYTES // (8 * widest))
    caches, side_caches = ([], []) if trace else (None, None)
    s = None
    if spec.side_layers:
        s = _chain_forward(spec.side_layers, spec.side_params, side, xb, train_mode, rng, block,
                           side_caches)
    logits = _chain_forward(spec.layers, spec.params, main, xb, train_mode, rng, block, caches, s)
    return logits, ForwardTrace(caches, side_caches, main, side) if trace else None


def _checked_batch(spec: NetworkSpec, xb) -> np.ndarray:
    """xb as float64, once it is a nonempty batch of the network's input shape."""
    xb = np.asarray(xb, dtype=np.float64)
    if xb.ndim != 4:
        raise ValueError(f"batch must be (B, rows, cols, channels), got {xb.shape}")
    if not len(xb):
        raise ValueError("empty batch")
    if xb.shape[1:] != spec.input_shape:
        raise ValueError(f"batch shape {xb.shape[1:]} != network input {spec.input_shape}")
    if not spec.params:
        raise ValueError("network parameters not initialized")
    return xb


def layer_input(spec: NetworkSpec, chain: str, index: int, xb) -> np.ndarray:
    """What layer `index` of `chain` ("main" or "side") reads for the batch
    `xb`: the eval-mode output of the chain's first `index` layers, with no
    bank pooled, so a gap reads its bank's maps. `index` runs to the chain's
    length, but for the main chain of a net with a side chain only to its
    last layer, which reads the joined vector."""
    if chain not in ("main", "side"):
        raise ValueError(f"chain must be 'main' or 'side', got {chain!r}")
    main = chain == "main"
    xb = _checked_batch(spec, xb)
    layers = spec.layers if main else spec.side_layers
    last = len(layers) - (main and bool(spec.side_layers))
    if not 0 <= index <= last:
        raise ValueError(f"{chain} layer index must be in 0..{last}, got {index!r}")
    walk = validate_network(spec)[0 if main else 1]
    return _run_layers(layers, spec.params if main else spec.side_params,
                       walk._replace(pooled=frozenset()), range(index), xb)


def _chain_forward(layers, params, walk: ChainWalk, a, train_mode, rng, block, caches, side=None):
    """Run a chain over the batch `a`; returns its output. Without a trace
    (`caches` None), the layers before its block stop run over blocks of
    `block` images; the rest, and with a trace every layer, run over the
    whole batch (`_run_layers`)."""
    stop = walk.stop if caches is None else 0
    if stop:
        # in C order, which the fc reading the main chain's activation
        # flattens without a copy; the blocks' outputs are channel-major
        out = np.empty((len(a), *walk.shapes[stop]))
        for i in range(0, len(a), block):
            out[i : i + block] = _run_layers(layers, params, walk, range(stop), a[i : i + block])
        a = out
    return _run_layers(layers, params, walk, range(stop, len(layers)), a, train_mode, rng, caches,
                       side)


def _run_layers(layers, params, walk: ChainWalk, span: range, a, train_mode=False, rng=None,
                caches=None, side=None):
    """Run the chain's layers in `span` over `a`; returns the output. Appends
    to `caches`, when given, the cache of each layer whose backward runs
    (None for the others). The chain's last layer reads the side vector
    `side`, when given, ahead of its flattened input. A layer in
    `walk.pooled` runs the pooled step with the gap after it, which `span`
    holds too: no block stop falls between them, since a gap has no weights."""
    for i in span:
        layer = layers[i]
        if side is not None and i == len(layers) - 1:
            a = np.concatenate([side, a.reshape(len(a), -1)], axis=1)
        keep = caches is not None and walk.steps[i][0]
        if i - 1 in walk.pooled:  # the pooled step made this gap's vector
            cache = (len(a), *walk.shapes[i])
        elif i in walk.pooled:
            a, cache = KINDS[layer.kind].pooled(layer, params[i], a, keep)
        else:
            a, cache = KINDS[layer.kind].forward(layer, params[i], a, train_mode, rng, keep)
        if caches is not None:
            caches.append(cache if keep else None)
    return a


def network_backward(spec: NetworkSpec, trace: ForwardTrace, d_logits) -> Gradients:
    """Backpropagate d(loss)/d(logits) through the trace; one use per trace.
    The module docstring says which layers run their backward, in what order."""
    if trace.consumed:
        raise ValueError("forward trace already consumed by a backward pass")
    trace.consumed = True
    main, side = trace.main, trace.side
    grads = Gradients([{} for _ in spec.layers], [{} for _ in spec.side_layers])
    last = len(spec.layers) - 1
    mains = (spec.layers, spec.params, main.steps, trace.caches, grads.main)
    sides = (spec.side_layers, spec.side_params, side.steps, trace.side_caches, grads.side)
    d = _chain_backward(*mains, np.asarray(d_logits, dtype=np.float64), range(last, last + 1))
    if spec.side_layers and d is not None:
        width = side.shapes[-1][0]
        _chain_backward(*sides, d[:, :width], range(len(spec.side_layers)))
        d = d[:, width:].reshape(len(d), *main.shapes[-2])
    _chain_backward(*mains, d, range(last))
    return grads


def _chain_backward(layers, params, steps, caches, grads, d, span: range):
    """The backward of a chain's layers in `span`, last first, into `grads`;
    returns the gradient at the input of the span's first layer, or None once
    a layer runs no backward or needs no input gradient."""
    for i in reversed(span):
        runs, need_dx = steps[i]
        if not runs:
            return None
        layer = layers[i]
        d, grads[i] = KINDS[layer.kind].backward(layer, params[i], caches[i], d, need_dx)
    return d


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def _lenet_branch() -> list[LayerSpec]:
    """Conv/pool stack with ReLU, sigmoid on the fully connected tail.

    Each conv is pooled before its ReLU: max(relu(a), relu(b)) is
    relu(max(a, b)), bit for bit, so the net computes what conv -> relu ->
    maxpool computes, with the ReLU on a quarter of the values, and the
    parameter gradients agree too: both orders route a block's gradient to
    the same position when its max is positive, and pass only a zero when it
    is not."""
    return [
        conv(6, 5, 5),
        LayerSpec("maxpool"),
        LayerSpec("relu"),
        conv(16, 5, 5),
        LayerSpec("maxpool"),
        LayerSpec("relu"),
        fc(120),
        LayerSpec("sigmoid"),
        fc(84),
        LayerSpec("sigmoid"),
    ]


def _baseline_branch() -> list[LayerSpec]:
    """Three conv blocks with pooling and dropout, then a small fully
    connected layer. The first two convs are pooled before their ReLU, for
    the reason `_lenet_branch` gives."""
    return [
        conv(8, 3, 3),
        LayerSpec("maxpool"),
        LayerSpec("relu"),
        dropout(0.25),
        conv(16, 3, 3),
        LayerSpec("maxpool"),
        LayerSpec("relu"),
        dropout(0.25),
        conv(32, 3, 3),
        LayerSpec("relu"),
        fc(64),
        LayerSpec("relu"),
        dropout(0.5),
    ]


def _net(layers, input_shape, num_classes: int, bank=None, bank_w=None) -> NetworkSpec:
    """The validated net whose main chain is `layers` and the classifying
    fc(num_classes), joined, given a `bank`, by the side chain [bank, gap]; a
    frozen bank comes with its weights `bank_w`."""
    spec = NetworkSpec(layers + [fc(num_classes)], tuple(input_shape), num_classes,
                       side_layers=[bank, LayerSpec("gap")] if bank else [],
                       side_params=[{"w": bank_w}, {}] if bank_w is not None else [])
    validate_network(spec)
    return spec


def build_dhlac_net(input_shape, num_classes: int, bank: LayerSpec) -> NetworkSpec:
    """Auto-correlation topology: the multiplication layer `bank` (a
    `tml_layer`) reads the input image, average pooling turns its maps into a
    vector, and that vector is concatenated with the convolutional branch's
    last hidden features ahead of the classifying layer."""
    return _net(_lenet_branch(), input_shape, num_classes, bank)


def build_cooc_net(input_shape, num_classes: int, bank: LayerSpec) -> NetworkSpec:
    """Co-occurrence topology: the multiplication layer `bank` (a `tml_layer`)
    consumes the second convolution's rectified feature maps, and its pooled
    outputs feed the classifying layer directly (required by the
    co-occurrence tracing tools). The LeNet branch up to conv2 feeds the bank
    16 channels, conv2's maps rectified but not pooled."""
    return _net(_lenet_branch()[:4] + [LayerSpec("relu"), bank, LayerSpec("gap")], input_shape,
                num_classes)


def build_baseline_net(input_shape, num_classes: int) -> NetworkSpec:
    """Plain CNN stand-in: `_baseline_branch` and the classifying layer."""
    return _net(_baseline_branch(), input_shape, num_classes)


def build_baseline_hlac_net(input_shape, num_classes: int) -> NetworkSpec:
    """Baseline CNN plus fixed auto-correlation features: the standard 25
    binary masks run as a frozen multiplication-layer bank over the input,
    pooled to a 25-vector and concatenated before the classifier; the bank
    takes single-channel input. The bank is the classical features' oracle,
    so its eps is `HLAC_EPS`, not a setting: a larger one would turn its
    maps into products of x + eps."""
    w = masks_to_binary_kernels(default_mask_set(), 3, 3)
    frozen = tml_layer(w.shape[3], 3, 3, T.TmlConfig(1.0, 1.0, HLAC_EPS), trainable=False)
    return _net(_baseline_branch(), input_shape, num_classes, frozen, w)


# ---------------------------------------------------------------------------
# serialization: text spec + little-endian float64 parameter blob
# ---------------------------------------------------------------------------


def _field_text(value) -> str:
    return str(int(value)) if isinstance(value, bool) else str(value)


def save_network(spec: NetworkSpec, path) -> None:
    """Write `path` (text layer listing) and `path`.bin (parameter blob)."""
    validate_network(spec)
    h, w, c = spec.input_shape
    lines = [
        f"format={NET_FORMAT}",
        f"input={h}x{w}x{c}",
        f"classes={spec.num_classes}",
    ]
    for chain, specs in (("main", spec.layers), ("side", spec.side_layers)):
        for layer in specs:
            pairs = (f"{key}={_field_text(attrgetter(attr)(layer))}"
                     for key, attr, _parse in KINDS[layer.kind].fields)
            lines.append(" ".join(["layer", f"chain={chain}", f"kind={layer.kind}", *pairs]))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")

    # main chain then side chain, keys sorted: the order load_network reads
    arrays = [params[key] for params in spec.params + spec.side_params for key in sorted(params)]
    total = sum(a.size for a in arrays)
    with open(str(path) + ".bin", "wb") as f:
        f.write(NET_MAGIC + struct.pack("<IQ", NET_BLOB_VERSION, total))
        for a in arrays:
            f.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def _each_once(pairs, keys) -> dict:
    """The (key, value) `pairs` as a dict, once their keys are `keys`, each once."""
    if sorted(key for key, _value in pairs) != sorted(keys):
        raise ValueError(f"keys must be {', '.join(keys)}, each once")
    return dict(pairs)


def load_network(path) -> NetworkSpec:
    try:
        with open(path) as f:
            lines = [ln.strip() for ln in f if ln.strip()]
    except UnicodeDecodeError as err:
        raise ValueError(f"{path}: not a network checkpoint (not text)") from err
    fmt = next((ln.split("=", 1)[1] for ln in lines if ln.startswith("format=")), None)
    if fmt != NET_FORMAT:
        raise ValueError(f"{path}: unsupported network format {fmt!r}")
    header, main, side = [], [], []
    chains = {"main": main, "side": side}
    for ln in lines:
        try:
            if ln.startswith("layer "):
                pairs = [part.split("=", 1) for part in ln.split()[1:]]
                kind = KINDS[dict(pairs)["kind"]]
                text = _each_once(pairs, ["chain", "kind", *(key for key, *_ in kind.fields)])
                values = {attr: parse(text[key]) for key, attr, parse in kind.fields}
                layer = kind.make(values) if kind.make else LayerSpec(text["kind"], **values)
                chains[text["chain"]].append(layer)
            else:
                key, value = ln.split("=", 1)
                header.append((key, value))
        except (KeyError, ValueError) as err:
            raise ValueError(f"{path}: malformed line {ln!r}: {err!r}") from err
    try:
        kv = _each_once(header, ["format", "input", "classes"])
        h, w, c = (int(v) for v in kv["input"].split("x"))
        num_classes = int(kv["classes"])
    except (KeyError, ValueError) as err:
        raise ValueError(f"{path}: malformed header: {err!r}") from err
    spec = NetworkSpec(
        layers=main,
        input_shape=(h, w, c),
        num_classes=num_classes,
        side_layers=side,
    )
    try:
        main_walk, side_walk, _ = validate_network(spec)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from err

    with open(str(path) + ".bin", "rb") as f:
        blob = f.read()
    if blob[:4] != NET_MAGIC or len(blob) < 16:
        raise ValueError(f"{path}.bin: bad parameter blob magic or header")
    version, total = struct.unpack("<IQ", blob[4:16])
    if version != NET_BLOB_VERSION:
        raise ValueError(f"{path}.bin: unsupported parameter blob version {version}")
    if (len(blob) - 16) % 8:
        raise ValueError(f"{path}.bin: {len(blob) - 16}-byte payload is not a whole number "
                         "of float64 values")
    values = np.frombuffer(blob[16:], dtype="<f8")
    if values.size != total:
        raise ValueError(f"{path}.bin: expected {total} values, found {values.size}")
    bad = np.count_nonzero(~np.isfinite(values))
    if bad:
        raise ValueError(f"{path}.bin: {bad} non-finite parameter value(s)")

    cursor = 0
    filled = []
    for shapes in main_walk.param_shapes + side_walk.param_shapes:
        d = {}
        for key in sorted(shapes):
            n = math.prod(shapes[key])
            d[key] = values[cursor : cursor + n].reshape(shapes[key]).astype(np.float64)
            cursor += n
        filled.append(d)
    if cursor != total:
        raise ValueError(f"{path}.bin: parameter blob size mismatch")
    spec.params = filled[: len(main)]
    spec.side_params = filled[len(main) :]
    return spec
