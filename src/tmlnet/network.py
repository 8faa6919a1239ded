"""Network assembly: layer specs, shape checking, forward/backward, and the
two multiplication-layer topologies (input-side auto-correlation extractor
and mid-network co-occurrence extractor), plus a plain baseline CNN.

A network is a main chain of layers ending in a softmax cross-entropy head,
optionally joined by a side chain that also reads the network input (the
multiplication layer + average pooling of the auto-correlation topology).
Where the chains meet, the main activation is flattened and the side vector
is concatenated in front of it; the joint vector feeds the remaining layers.

Activation volumes are (B, rows, cols, channels); vectors are (B, dims).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from . import layers as L
from . import tml as T
from .hlac import default_mask_set, masks_to_binary_kernels

LAYER_KINDS = (
    "conv",
    "maxpool",
    "relu",
    "sigmoid",
    "fc",
    "gap",
    "dropout",
    "tml",
    "softmax_xent_head",
)

NET_MAGIC = b"TMLP"
NET_FORMAT = "tmlnet-net-v1"
NET_BLOB_VERSION = 1


@dataclass
class LayerSpec:
    kind: str
    out_channels: int | None = None  # conv
    kernel_h: int | None = None  # conv
    kernel_w: int | None = None  # conv
    units: int | None = None  # fc
    rate: float | None = None  # dropout
    tml: T.TmlConfig | None = None  # tml
    trainable: bool = True  # tml: frozen banks skip updates and projection

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")


def conv(out_channels, kernel_h, kernel_w):
    return LayerSpec("conv", out_channels=out_channels, kernel_h=kernel_h, kernel_w=kernel_w)


def fc(units):
    return LayerSpec("fc", units=units)


def dropout(rate):
    return LayerSpec("dropout", rate=rate)


def tml_layer(cfg: T.TmlConfig, trainable: bool = True):
    return LayerSpec("tml", tml=cfg, trainable=trainable)


@dataclass
class NetworkSpec:
    """Layer chains plus every learnable array (CNN weights and exponent kernels)."""

    layers: list[LayerSpec]
    input_shape: tuple[int, int, int]
    num_classes: int
    side_layers: list[LayerSpec] = field(default_factory=list)
    join_at: int | None = None
    params: list[dict] = field(default_factory=list)
    side_params: list[dict] = field(default_factory=list)

    def tml_entries(self, trainable_only: bool = False):
        """Yield (chain_name, index, LayerSpec) for every multiplication layer."""
        for chain, specs in (("main", self.layers), ("side", self.side_layers)):
            for i, layer in enumerate(specs):
                if layer.kind == "tml" and (layer.trainable or not trainable_only):
                    yield chain, i, layer

    def param_dict(self, chain: str, index: int) -> dict:
        return (self.params if chain == "main" else self.side_params)[index]


@dataclass
class ForwardTrace:
    """Per-layer caches for one batch; feeds network_backward exactly once."""

    caches: list
    side_caches: list
    join_info: tuple | None  # (side_dim, main activation shape before flatten)
    train_mode: bool
    consumed: bool = False


@dataclass
class Gradients:
    main: list[dict]
    side: list[dict]


# ---------------------------------------------------------------------------
# shape chain
# ---------------------------------------------------------------------------


def _layer_out_shape(layer: LayerSpec, shape):
    """shape: (h, w, c) volume or (d,) vector."""
    kind = layer.kind
    if kind in ("relu", "sigmoid", "dropout"):
        return shape
    if kind == "conv":
        if len(shape) != 3:
            raise ValueError("conv needs a feature volume input")
        h, w, c = shape
        oh, ow = h - layer.kernel_h + 1, w - layer.kernel_w + 1
        if oh < 1 or ow < 1:
            raise ValueError(f"conv kernel {layer.kernel_h}x{layer.kernel_w} exceeds input {h}x{w}")
        return (oh, ow, layer.out_channels)
    if kind == "maxpool":
        if len(shape) != 3:
            raise ValueError("maxpool needs a feature volume input")
        h, w, c = shape
        if h < 2 or w < 2:
            raise ValueError(f"input {h}x{w} too small for 2x2 pooling")
        return (h // 2, w // 2, c)
    if kind == "tml":
        if len(shape) != 3:
            raise ValueError("tml needs a feature volume input")
        h, w, c = shape
        cfg = layer.tml
        if c != cfg.in_channels:
            raise ValueError(f"tml config expects {cfg.in_channels} channels, input has {c}")
        oh, ow = h - cfg.kernel_h + 1, w - cfg.kernel_w + 1
        if oh < 1 or ow < 1:
            raise ValueError(f"tml kernel {cfg.kernel_h}x{cfg.kernel_w} exceeds input {h}x{w}")
        return (oh, ow, cfg.num_kernels)
    if kind == "gap":
        if len(shape) != 3:
            raise ValueError("gap needs a feature volume input")
        return (shape[2],)
    if kind == "fc":
        return (layer.units,)
    if kind == "softmax_xent_head":
        return shape
    raise AssertionError(kind)


def _flat_dim(shape) -> int:
    return int(np.prod(shape))


def _layer_param_shapes(layer: LayerSpec, in_shape) -> dict:
    if layer.kind == "conv":
        c_in = in_shape[2]
        return {
            "w": (layer.kernel_h, layer.kernel_w, c_in, layer.out_channels),
            "b": (layer.out_channels,),
        }
    if layer.kind == "fc":
        return {"w": (_flat_dim(in_shape), layer.units), "b": (layer.units,)}
    if layer.kind == "tml":
        return {"w": layer.tml.weights_shape()}
    return {}


def validate_network(spec: NetworkSpec):
    """Walk both chains, checking shape compatibility and head placement.

    Returns (main_param_shapes, side_param_shapes, logits_shape).
    """
    if not spec.layers:
        raise ValueError("network has no layers")
    heads = [i for i, l in enumerate(spec.layers) if l.kind == "softmax_xent_head"]
    if heads != [len(spec.layers) - 1]:
        raise ValueError("network must end with exactly one softmax_xent_head")
    if any(l.kind == "softmax_xent_head" for l in spec.side_layers):
        raise ValueError("side chain must not contain a loss head")
    if (spec.join_at is None) != (not spec.side_layers):
        raise ValueError("side_layers and join_at must be set together")

    side_shapes = []
    side_out = None
    if spec.side_layers:
        shape = spec.input_shape
        for layer in spec.side_layers:
            side_shapes.append(_layer_param_shapes(layer, shape))
            shape = _layer_out_shape(layer, shape)
        if len(shape) != 1:
            raise ValueError(f"side chain must end in a vector, got shape {shape}")
        side_out = shape[0]
        if not 0 <= spec.join_at < len(spec.layers) - 1:
            raise ValueError(f"join_at {spec.join_at} must precede the loss head")

    main_shapes = []
    shape = spec.input_shape
    for i, layer in enumerate(spec.layers):
        if spec.join_at is not None and i == spec.join_at:
            shape = (side_out + _flat_dim(shape),)
        main_shapes.append(_layer_param_shapes(layer, shape))
        shape = _layer_out_shape(layer, shape)
    if shape != (spec.num_classes,):
        raise ValueError(f"head expects ({spec.num_classes},) logits, chain produces {shape}")
    return main_shapes, side_shapes, shape


def init_params(spec: NetworkSpec, rng: np.random.Generator) -> NetworkSpec:
    """Fill in every unset parameter array (He-style for conv, scaled normal
    for fc, uniform-then-project for trainable exponent kernels).

    Pre-seeded entries (e.g. frozen binary kernel banks) are kept. The side
    chain initializes first, then the main chain, so a given seed always
    produces the same parameter stream.
    """
    main_shapes, side_shapes, _ = validate_network(spec)
    for chain, specs, shapes, existing in (
        ("side", spec.side_layers, side_shapes, spec.side_params),
        ("main", spec.layers, main_shapes, spec.params),
    ):
        params = list(existing) if existing else [None] * len(specs)
        for i, layer in enumerate(specs):
            if params[i] is not None:
                continue
            want = shapes[i]
            if not want:
                params[i] = {}
            elif layer.kind == "conv":
                fan_in = want["w"][0] * want["w"][1] * want["w"][2]
                params[i] = {
                    "w": rng.normal(0.0, np.sqrt(2.0 / fan_in), size=want["w"]),
                    "b": np.zeros(want["b"]),
                }
            elif layer.kind == "fc":
                fan_in = want["w"][0]
                params[i] = {
                    "w": rng.normal(0.0, np.sqrt(1.0 / fan_in), size=want["w"]),
                    "b": np.zeros(want["b"]),
                }
            elif layer.kind == "tml":
                params[i] = {"w": T.init_kernels(layer.tml, rng).weights}
            else:
                raise AssertionError(layer.kind)
        if chain == "side":
            spec.side_params = params
        else:
            spec.params = params
    return spec


# ---------------------------------------------------------------------------
# forward / backward
# ---------------------------------------------------------------------------


def _layer_forward(layer: LayerSpec, params: dict, a, train_mode, rng):
    kind = layer.kind
    if kind == "conv":
        return L.conv2d_forward(a, params["w"], params["b"]), a
    if kind == "maxpool":
        y, idx = L.maxpool_forward(a)
        return y, (idx, a.shape)
    if kind == "relu":
        return L.relu_forward(a), a
    if kind == "sigmoid":
        y = L.sigmoid_forward(a)
        return y, y
    if kind == "fc":
        return L.fc_forward(a, params["w"], params["b"]), a
    if kind == "gap":
        return L.gap_forward(a), a.shape
    if kind == "dropout":
        if train_mode and layer.rate > 0 and rng is None:
            raise ValueError("training forward through dropout needs an rng")
        y, mask = L.dropout_forward(a, layer.rate, rng, train_mode)
        return y, mask
    if kind == "tml":
        kernels = T.TmlKernels(layer.tml, params["w"])
        y, z = T.forward_batch(a, kernels, return_log=True)
        return y, (a, y, z)
    raise AssertionError(kind)


def _layer_backward(layer: LayerSpec, params: dict, cache, d_y, need_dx: bool):
    """Returns (d_input, param_grads); conv and tml layers return d_input None
    when `need_dx` is False."""
    kind = layer.kind
    if kind == "conv":
        d_x, d_w, d_b = L.conv2d_backward(cache, params["w"], d_y, need_dx=need_dx)
        return d_x, {"w": d_w, "b": d_b}
    if kind == "maxpool":
        idx, in_shape = cache
        return L.maxpool_backward(d_y, idx, in_shape), {}
    if kind == "relu":
        return L.relu_backward(d_y, cache), {}
    if kind == "sigmoid":
        return L.sigmoid_backward(d_y, cache), {}
    if kind == "fc":
        d_x, d_w, d_b = L.fc_backward(cache, params["w"], d_y)
        return d_x, {"w": d_w, "b": d_b}
    if kind == "gap":
        return L.gap_backward(d_y, cache), {}
    if kind == "dropout":
        return L.dropout_backward(d_y, cache, layer.rate), {}
    if kind == "tml":
        x, y, z = cache
        kernels = T.TmlKernels(layer.tml, params["w"])
        d_x = T.backward_input_batch(x, y, d_y, kernels) if need_dx else None
        if layer.trainable:
            d_w = T.backward_weights_batch(x, y, d_y, kernels, z=z)
        else:
            d_w = np.zeros_like(params["w"])
        return d_x, {"w": d_w}
    raise AssertionError(kind)


def network_forward(spec: NetworkSpec, xb, train_mode: bool = False, rng=None):
    """Run a batch through the network; returns (logits, ForwardTrace).

    The loss head itself computes nothing here: the returned activations are
    the logits it consumes (see training.energy / layers.softmax_xent).
    """
    xb = np.asarray(xb, dtype=np.float64)
    if xb.ndim != 4:
        raise ValueError(f"batch must be (B, rows, cols, channels), got {xb.shape}")
    if xb.shape[1:] != spec.input_shape:
        raise ValueError(f"batch shape {xb.shape[1:]} != network input {spec.input_shape}")
    if not spec.params:
        raise ValueError("network parameters not initialized")

    side_caches = []
    join_info = None
    s = None
    if spec.join_at is not None:
        s = xb
        for i, layer in enumerate(spec.side_layers):
            s, cache = _layer_forward(layer, spec.side_params[i], s, train_mode, rng)
            side_caches.append(cache)

    a = xb
    caches = []
    for i, layer in enumerate(spec.layers[:-1]):
        if spec.join_at is not None and i == spec.join_at:
            join_info = (s.shape[1], a.shape)
            a = np.concatenate([s, a.reshape(a.shape[0], -1)], axis=1)
        a, cache = _layer_forward(layer, spec.params[i], a, train_mode, rng)
        caches.append(cache)
    caches.append(None)  # head slot
    return a, ForwardTrace(caches, side_caches, join_info, train_mode)


def network_backward(spec: NetworkSpec, trace: ForwardTrace, d_logits) -> Gradients:
    """Backpropagate d(loss)/d(logits) through the trace; one use per trace.

    The first layer of each chain reads the network input, whose gradient
    nothing uses, so it computes none (unless the side chain joins there).
    """
    if trace.consumed:
        raise ValueError("forward trace already consumed by a backward pass")
    trace.consumed = True
    main_grads = [dict() for _ in spec.layers]
    side_grads = [dict() for _ in spec.side_layers]

    d = np.asarray(d_logits, dtype=np.float64)
    d_side = None
    for i in range(len(spec.layers) - 2, -1, -1):
        layer = spec.layers[i]
        need_dx = i > 0 or spec.join_at == 0
        d, main_grads[i] = _layer_backward(layer, spec.params[i], trace.caches[i], d, need_dx)
        if spec.join_at is not None and i == spec.join_at:
            side_dim, pre_shape = trace.join_info
            d_side = d[:, :side_dim]
            d = d[:, side_dim:].reshape(pre_shape)
    if spec.join_at is not None:
        for i in range(len(spec.side_layers) - 1, -1, -1):
            layer = spec.side_layers[i]
            d_side, side_grads[i] = _layer_backward(
                layer, spec.side_params[i], trace.side_caches[i], d_side, i > 0
            )
    return Gradients(main_grads, side_grads)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def _lenet_branch() -> list[LayerSpec]:
    # conv/pool stack with ReLU, sigmoid on the fully connected tail
    return [
        conv(6, 5, 5),
        LayerSpec("relu"),
        LayerSpec("maxpool"),
        conv(16, 5, 5),
        LayerSpec("relu"),
        LayerSpec("maxpool"),
        fc(120),
        LayerSpec("sigmoid"),
        fc(84),
        LayerSpec("sigmoid"),
    ]


def build_dhlac_net(input_shape, num_classes: int, tml_cfg: T.TmlConfig) -> NetworkSpec:
    """Auto-correlation topology: the multiplication layer reads the input
    image, average pooling turns its maps into a vector, and that vector is
    concatenated with the convolutional branch's last hidden features ahead
    of the classifying layer."""
    if tml_cfg.in_channels != input_shape[2]:
        raise ValueError(
            f"kernel bank expects {tml_cfg.in_channels} channels, input has {input_shape[2]}"
        )
    branch = _lenet_branch()
    spec = NetworkSpec(
        layers=branch + [fc(num_classes), LayerSpec("softmax_xent_head")],
        input_shape=tuple(input_shape),
        num_classes=num_classes,
        side_layers=[tml_layer(tml_cfg), LayerSpec("gap")],
        join_at=len(branch),
    )
    validate_network(spec)
    return spec


def build_cooc_net(input_shape, num_classes: int, tml_cfg: T.TmlConfig) -> NetworkSpec:
    """Co-occurrence topology: the multiplication layer consumes the second
    convolution's rectified feature maps, and its pooled outputs feed the
    classifying layer directly (required by the co-occurrence tracing tools)."""
    if tml_cfg.in_channels != 16:
        raise ValueError("co-occurrence bank must take the 16 feature maps of conv2")
    spec = NetworkSpec(
        layers=[
            conv(6, 5, 5),
            LayerSpec("relu"),
            LayerSpec("maxpool"),
            conv(16, 5, 5),
            LayerSpec("relu"),
            tml_layer(tml_cfg),
            LayerSpec("gap"),
            fc(num_classes),
            LayerSpec("softmax_xent_head"),
        ],
        input_shape=tuple(input_shape),
        num_classes=num_classes,
    )
    validate_network(spec)
    return spec


def build_baseline_net(input_shape, num_classes: int) -> NetworkSpec:
    """Plain CNN stand-in: three conv blocks with pooling and dropout, then
    a small fully connected classifier."""
    spec = NetworkSpec(
        layers=[
            conv(8, 3, 3),
            LayerSpec("relu"),
            LayerSpec("maxpool"),
            dropout(0.25),
            conv(16, 3, 3),
            LayerSpec("relu"),
            LayerSpec("maxpool"),
            dropout(0.25),
            conv(32, 3, 3),
            LayerSpec("relu"),
            fc(64),
            LayerSpec("relu"),
            dropout(0.5),
            fc(num_classes),
            LayerSpec("softmax_xent_head"),
        ],
        input_shape=tuple(input_shape),
        num_classes=num_classes,
    )
    validate_network(spec)
    return spec


def build_baseline_hlac_net(input_shape, num_classes: int, eps: float = 1e-6) -> NetworkSpec:
    """Baseline CNN plus fixed auto-correlation features: the standard 25
    binary masks run as a frozen multiplication-layer bank over the input,
    pooled to a 25-vector and concatenated before the classifier."""
    if input_shape[2] != 1:
        raise ValueError("the fixed auto-correlation branch expects single-channel input")
    base = build_baseline_net(input_shape, num_classes)
    bank = masks_to_binary_kernels(default_mask_set(), 3, 3, eps=eps)
    spec = NetworkSpec(
        layers=base.layers,
        input_shape=tuple(input_shape),
        num_classes=num_classes,
        side_layers=[tml_layer(bank.config, trainable=False), LayerSpec("gap")],
        join_at=len(base.layers) - 2,  # ahead of the classifying fc
        side_params=[{"w": bank.weights}, {}],
    )
    validate_network(spec)
    return spec


# ---------------------------------------------------------------------------
# serialization: text spec + little-endian float64 parameter blob
# ---------------------------------------------------------------------------


def _layer_line(chain: str, layer: LayerSpec) -> str:
    fields = [f"chain={chain}", f"kind={layer.kind}"]
    if layer.kind == "conv":
        fields += [f"out={layer.out_channels}", f"kh={layer.kernel_h}", f"kw={layer.kernel_w}"]
    elif layer.kind == "fc":
        fields += [f"units={layer.units}"]
    elif layer.kind == "dropout":
        fields += [f"rate={layer.rate!r}"]
    elif layer.kind == "tml":
        c = layer.tml
        fields += [
            f"kh={c.kernel_h}",
            f"kw={c.kernel_w}",
            f"kc={c.in_channels}",
            f"km={c.num_kernels}",
            f"c1={c.c1!r}",
            f"c2={c.c2!r}",
            f"eps={c.eps!r}",
            f"trainable={int(layer.trainable)}",
        ]
    return "layer " + " ".join(fields)


def _parse_layer_line(line: str) -> tuple[str, LayerSpec]:
    kv = dict(part.split("=", 1) for part in line.split()[1:])
    chain, kind = kv["chain"], kv["kind"]
    if kind == "conv":
        return chain, conv(int(kv["out"]), int(kv["kh"]), int(kv["kw"]))
    if kind == "fc":
        return chain, fc(int(kv["units"]))
    if kind == "dropout":
        return chain, dropout(float(kv["rate"]))
    if kind == "tml":
        cfg = T.TmlConfig(
            int(kv["kh"]),
            int(kv["kw"]),
            int(kv["kc"]),
            int(kv["km"]),
            c1=float(kv["c1"]),
            c2=float(kv["c2"]),
            eps=float(kv["eps"]),
        )
        return chain, tml_layer(cfg, trainable=bool(int(kv["trainable"])))
    return chain, LayerSpec(kind)


def _param_stream(spec: NetworkSpec):
    """Deterministic parameter order: main chain then side chain, keys sorted."""
    for params in list(spec.params) + list(spec.side_params):
        for key in sorted(params):
            yield params[key]


def save_network(spec: NetworkSpec, path) -> None:
    """Write `path` (text layer listing) and `path`.bin (parameter blob)."""
    validate_network(spec)
    h, w, c = spec.input_shape
    lines = [
        f"format={NET_FORMAT}",
        f"input={h}x{w}x{c}",
        f"classes={spec.num_classes}",
    ]
    if spec.join_at is not None:
        lines.append(f"join={spec.join_at}")
    lines += [_layer_line("main", l) for l in spec.layers]
    lines += [_layer_line("side", l) for l in spec.side_layers]
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")

    arrays = list(_param_stream(spec))
    total = sum(a.size for a in arrays)
    with open(str(path) + ".bin", "wb") as f:
        f.write(NET_MAGIC + struct.pack("<IQ", NET_BLOB_VERSION, total))
        for a in arrays:
            f.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def load_network(path) -> NetworkSpec:
    with open(path) as f:
        lines = [ln.strip() for ln in f if ln.strip()]
    kv = {}
    main, side = [], []
    for ln in lines:
        try:
            if ln.startswith("layer "):
                chain, layer = _parse_layer_line(ln)
                (main if chain == "main" else side).append(layer)
            else:
                k, v = ln.split("=", 1)
                kv[k] = v
        except (KeyError, ValueError) as err:
            raise ValueError(f"{path}: malformed line {ln!r}: {err!r}") from err
    if kv.get("format") != NET_FORMAT:
        raise ValueError(f"{path}: unsupported network format {kv.get('format')!r}")
    try:
        h, w, c = (int(v) for v in kv["input"].split("x"))
        num_classes = int(kv["classes"])
        join_at = int(kv["join"]) if "join" in kv else None
    except (KeyError, ValueError) as err:
        raise ValueError(f"{path}: malformed header: {err!r}") from err
    spec = NetworkSpec(
        layers=main,
        input_shape=(h, w, c),
        num_classes=num_classes,
        side_layers=side,
        join_at=join_at,
    )
    main_shapes, side_shapes, _ = validate_network(spec)

    with open(str(path) + ".bin", "rb") as f:
        blob = f.read()
    if blob[:4] != NET_MAGIC or len(blob) < 16:
        raise ValueError(f"{path}.bin: bad parameter blob magic or header")
    version, total = struct.unpack("<IQ", blob[4:16])
    if version != NET_BLOB_VERSION:
        raise ValueError(f"{path}.bin: unsupported parameter blob version {version}")
    values = np.frombuffer(blob[16:], dtype="<f8")
    if values.size != total:
        raise ValueError(f"{path}.bin: expected {total} values, found {values.size}")

    cursor = 0
    filled = []
    for shapes in main_shapes + side_shapes:
        d = {}
        for key in sorted(shapes):
            n = _flat_dim(shapes[key])
            d[key] = values[cursor : cursor + n].reshape(shapes[key]).astype(np.float64)
            cursor += n
        filled.append(d)
    if cursor != total:
        raise ValueError(f"{path}.bin: parameter blob size mismatch")
    spec.params = filled[: len(main)]
    spec.side_params = filled[len(main) :]
    return spec
