import dataclasses
import math

import numpy as np
import pytest

from tmlnet import layers, network, tml
from tmlnet.cli import ARCHS, DEFAULTS, build_network
from tmlnet.datasets import Dataset
from tmlnet.gradcheck import _central_diff, _rel_err, tiny_network
from tmlnet.layers import fc_forward, softmax_xent
from tmlnet.network import (
    LayerSpec,
    NetworkSpec,
    build_baseline_hlac_net,
    build_baseline_net,
    build_cooc_net,
    build_dhlac_net,
    conv,
    dropout,
    fc,
    init_params,
    load_network,
    network_backward,
    network_forward,
    save_network,
    tml_layer,
    validate_network,
)
from tmlnet.tml import TmlConfig
from tmlnet.training import evaluate


def tiny_branched_net(seed=0):
    """6x6 input, every differentiable layer kind, side multiplication branch."""
    return init_params(tiny_network(), np.random.default_rng(seed))


def hlac_net():
    """Every kind tiny_branched_net lacks (dropout) and a frozen bank."""
    return init_params(build_baseline_hlac_net((20, 20, 1), 3), np.random.default_rng(0))


def batch_loss(spec, xb, labels):
    logits, _ = network_forward(spec, xb, train_mode=False)
    onehot = np.eye(spec.num_classes)[labels]
    losses, _ = softmax_xent(logits, onehot)
    return float(losses.mean())


class TestShapeChain:
    def test_dhlac_mnist_shapes(self):
        spec = build_dhlac_net((28, 28, 1), 10, tml_layer(8, 3, 3, TmlConfig(c1=1.0, c2=0.5)))
        spec = init_params(spec, np.random.default_rng(0))
        xb = np.random.default_rng(1).uniform(0, 1, size=(2, 28, 28, 1))
        logits, trace = network_forward(spec, xb)
        assert logits.shape == (2, 10)
        # the bank and its GAP run as one pooled step: the bank keeps each
        # image's 3*3*1 x 8 product q, and the GAP the shape of the maps
        q, maps = trace.side_caches
        assert q.shape == (2, 9, 8)
        assert maps == (2, 26, 26, 8)  # valid padding
        assert validate_network(spec)[1].shapes[-1] == (8,)  # pooled vector length

    def test_dhlac_stripes_shapes(self):
        spec = build_dhlac_net((32, 32, 1), 6, tml_layer(4, 9, 9, TmlConfig(c1=1.0, c2=0.5)))
        spec = init_params(spec, np.random.default_rng(0))
        xb = np.random.default_rng(1).uniform(0, 1, size=(1, 32, 32, 1))
        _, trace = network_forward(spec, xb)
        assert trace.side_caches[0].shape == (1, 81, 4)
        assert trace.side_caches[1] == (1, 24, 24, 4)

    def test_minimal_single_kernel_net(self):
        spec = build_dhlac_net((16, 16, 1), 2, tml_layer(1, 3, 3, TmlConfig(c1=1.0, c2=1.0)))
        validate_network(spec)

    def test_cooc_shapes(self):
        spec = build_cooc_net((28, 28, 1), 10, tml_layer(5, 1, 1, TmlConfig(c1=1.0, c2=0.5)))
        spec = init_params(spec, np.random.default_rng(0))
        xb = np.random.default_rng(1).uniform(0, 1, size=(2, 28, 28, 1))
        logits, trace = network_forward(spec, xb)
        assert logits.shape == (2, 10)
        x_tml, y_tml, _z = trace.caches[5]
        assert x_tml.shape == (2, 8, 8, 16)
        assert y_tml.shape == (2, 8, 8, 5)

    def test_bank_reads_every_input_channel(self):
        # a bank's channel count is its input's, so it cannot disagree with it
        spec = init_params(
            build_dhlac_net((16, 16, 2), 3, tml_layer(4, 3, 3, TmlConfig())),
            np.random.default_rng(0),
        )
        assert spec.side_params[0]["w"].shape == (3, 3, 2, 4)
        cooc = build_network("cooc", (28, 28, 1), 10, dict(DEFAULTS, **ARCHS["cooc"].bank))
        cooc = init_params(cooc, np.random.default_rng(0))
        assert cooc.params[5]["w"].shape == (1, 1, 16, 8)

    def test_rejects_infeasible_ratio(self):
        # c1/c2 = 8 > 2*2*1 cells: constraint set is empty; with 2 channels it fits
        bank = tml_layer(1, 2, 2, TmlConfig(c1=8.0, c2=1.0))
        with pytest.raises(ValueError, match="c1/c2 = 8.0 exceeds kernel cell count 4"):
            build_dhlac_net((16, 16, 1), 2, bank)
        build_dhlac_net((16, 16, 2), 2, bank)

    def test_preseeded_bank_must_fit_its_layer(self):
        # a 3x3 bank seeded for a layer that declares 2x2 kernels
        spec = NetworkSpec(
            layers=[fc(3)],
            input_shape=(6, 6, 1),
            num_classes=3,
            side_layers=[tml_layer(2, 2, 2, TmlConfig(c1=1.0, c2=1.0)), LayerSpec("gap")],
            side_params=[{"w": np.full((3, 3, 1, 2), 1 / 9)}, {}],
        )
        with pytest.raises(ValueError, match="tml layer 0 parameters do not have shapes") as err:
            init_params(spec, np.random.default_rng(0))
        assert str(err.value).endswith("{'w': (2, 2, 1, 2)}")

    def test_missized_chain_rejected(self):
        spec = NetworkSpec(
            layers=[fc(4)],
            input_shape=(4, 4, 1),
            num_classes=3,  # fc emits 4 logits, not 3
        )
        with pytest.raises(ValueError):
            validate_network(spec)

    def test_loss_head_is_not_a_layer_kind(self):
        # the main chain ends in the layer that emits the logits
        with pytest.raises(ValueError, match="unknown layer kind 'softmax_xent_head'"):
            LayerSpec("softmax_xent_head")

    @pytest.mark.parametrize(
        "make",
        [
            lambda: conv(0, 3, 3),
            lambda: conv(2, 3.0, 3),
            lambda: fc(-5),
            lambda: dropout(1.5),
            lambda: LayerSpec("fc"),
        ],
        ids=["zero-out", "float-kernel", "negative-units", "rate-past-one", "no-units"],
    )
    def test_bad_hyperparameter_rejected_when_built(self, make):
        with pytest.raises(ValueError, match="must be"):
            make()

    def test_baseline_nets_validate(self):
        for shape in ((28, 28, 1), (32, 32, 1)):
            validate_network(build_baseline_net(shape, 10))
            validate_network(build_baseline_hlac_net(shape, 10))


class TestForward:
    def test_single_layer_net_equals_layer_op(self):
        spec = NetworkSpec(
            layers=[fc(3)],
            input_shape=(2, 2, 1),
            num_classes=3,
        )
        spec = init_params(spec, np.random.default_rng(0))
        xb = np.random.default_rng(1).normal(size=(4, 2, 2, 1))
        logits, _ = network_forward(spec, xb)
        expected = fc_forward(xb, spec.params[0]["w"], spec.params[0]["b"])
        np.testing.assert_array_equal(logits, expected)

    def test_eval_mode_dropout_is_identity(self):
        spec = build_baseline_net((20, 20, 1), 4)
        spec = init_params(spec, np.random.default_rng(0))
        xb = np.random.default_rng(1).uniform(size=(2, 20, 20, 1))
        a, _ = network_forward(spec, xb, train_mode=False)
        b, _ = network_forward(spec, xb, train_mode=False)
        np.testing.assert_array_equal(a, b)
        zero_rate = build_baseline_net((20, 20, 1), 4)
        for layer in zero_rate.layers:
            if layer.kind == "dropout":
                layer.rate = 0.0
        zero_rate.params = spec.params
        c, _ = network_forward(zero_rate, xb, train_mode=True, rng=np.random.default_rng(2))
        np.testing.assert_array_equal(a, c)

    def test_eval_forward_deterministic(self):
        spec = tiny_branched_net()
        xb = np.random.default_rng(3).uniform(0.1, 2.0, size=(3, 6, 6, 1))
        a, _ = network_forward(spec, xb)
        b, _ = network_forward(spec, xb)
        np.testing.assert_array_equal(a, b)

    def test_train_dropout_requires_rng(self):
        spec = build_baseline_net((20, 20, 1), 4)
        spec = init_params(spec, np.random.default_rng(0))
        xb = np.zeros((1, 20, 20, 1))
        with pytest.raises(ValueError):
            network_forward(spec, xb, train_mode=True, rng=None)

    def test_input_shape_checked(self):
        spec = tiny_branched_net()
        with pytest.raises(ValueError):
            network_forward(spec, np.zeros((1, 5, 6, 1)))

    @pytest.mark.parametrize("trace", [True, False], ids=["traced", "trace-free"])
    @pytest.mark.parametrize("arch", ["dhlac", "baseline+hlac", "cooc"])
    def test_empty_batch_rejected(self, arch, trace):
        # two chains (one of them frozen) and one chain, named before any layer runs
        spec = init_params(SHIPPED_NETS[arch](), np.random.default_rng(0))
        with pytest.raises(ValueError, match="^empty batch$"):
            network_forward(spec, np.zeros((0, *spec.input_shape)), trace=trace)


SHIPPED_NETS = {
    "dhlac": lambda: build_dhlac_net((16, 16, 1), 4, tml_layer(4, 3, 3, TmlConfig(c1=1.0, c2=0.5))),
    "cooc": lambda: build_cooc_net((16, 16, 1), 4, tml_layer(4, 1, 1, TmlConfig(c1=1.0, c2=0.5))),
    "baseline": lambda: build_baseline_net((20, 20, 1), 4),
    "baseline+hlac": lambda: build_baseline_hlac_net((20, 20, 1), 4),
}


class TestLayerInput:
    @pytest.mark.parametrize("arch", sorted(SHIPPED_NETS))
    def test_is_what_a_traced_forward_hands_the_layer(self, arch):
        # a conv caches its input x, a trainable bank on the maps path
        # (x, y, z), and a pooled one the product q its input makes
        spec = init_params(SHIPPED_NETS[arch](), np.random.default_rng(0))
        xb = np.random.default_rng(1).uniform(size=(3, *spec.input_shape))
        _, trace = network_forward(spec, xb)
        checked = 0
        for chain, layers, caches in (("main", spec.layers, trace.caches),
                                      ("side", spec.side_layers, trace.side_caches)):
            for i, (layer, cache) in enumerate(zip(layers, caches)):
                if layer.kind not in ("conv", "tml") or cache is None:
                    continue
                x = network.layer_input(spec, chain, i, xb)
                if layer.kind == "tml" and not isinstance(cache, tuple):
                    kernels = tml.TmlKernels(layer.tml, spec.param_dict(chain, i)["w"])
                    cache = tml.forward_batch(x, kernels, return_cache=True, pool=True)[1]
                    np.testing.assert_array_equal(cache, caches[i])
                else:
                    np.testing.assert_array_equal(x, cache[0] if layer.kind == "tml" else cache)
                checked += 1
        assert checked >= 2

    @pytest.mark.parametrize(
        "initialized, shape",
        [(True, (6, 6, 1)), (True, (0, 6, 6, 1)), (True, (1, 5, 6, 1)), (False, (1, 6, 6, 1))],
        ids=["unbatched", "empty", "wrong-size", "no-params"],
    )
    def test_rejects_a_batch_as_network_forward_does(self, initialized, shape):
        spec = tiny_branched_net() if initialized else tiny_network()
        with pytest.raises(ValueError) as forward_err:
            network_forward(spec, np.zeros(shape))
        with pytest.raises(ValueError) as input_err:
            network.layer_input(spec, "main", 2, np.zeros(shape))
        assert str(input_err.value) == str(forward_err.value)


def blocks_of_three(monkeypatch, spec):
    """Size blocks to 3 images of `spec`; returns the list of block sizes run,
    one run of blocks per chain that cuts them, the side chain first."""
    widest = validate_network(spec)[2]
    monkeypatch.setattr(network, "_EVAL_BLOCK_BYTES", 8 * widest * 3 + 7)
    run, sizes = network._forward_block, []

    def counting_run(layers, params, pooled, a):
        sizes.append(len(a))
        return run(layers, params, pooled, a)

    monkeypatch.setattr(network, "_forward_block", counting_run)
    return sizes


def record_banks(monkeypatch):
    """Replace `tml.forward_batch` by a recorder; returns {"maps": [...],
    "pooled": [...]}, the batch size of each call by whether it ran the
    pooled step."""
    calls, forward = {"maps": [], "pooled": []}, tml.forward_batch

    def call(xb, kernels, return_cache=False, pool=False):
        calls["pooled" if pool else "maps"].append(len(xb))
        return forward(xb, kernels, return_cache, pool)

    monkeypatch.setattr(tml, "forward_batch", call)
    return calls


def record_batch_sizes(monkeypatch, module, *names):
    """Replace kernels of `module` by recorders; returns {name: [batch size per call]}."""
    calls = {}
    for name in names:
        def call(x, *args, _kernel=getattr(module, name), _seen=calls.setdefault(name, []), **kw):
            _seen.append(len(x))
            return _kernel(x, *args, **kw)

        monkeypatch.setattr(module, name, call)
    return calls


class TestTraceFreeForward:
    @pytest.mark.parametrize("arch", sorted(SHIPPED_NETS))
    def test_blocks_match_traced_forward(self, monkeypatch, arch):
        spec = init_params(SHIPPED_NETS[arch](), np.random.default_rng(0))
        xb = np.random.default_rng(1).uniform(size=(7, *spec.input_shape))
        traced, _ = network_forward(spec, xb)
        sizes = blocks_of_three(monkeypatch, spec)
        blocked, no_trace = network_forward(spec, xb, trace=False)
        assert sizes == [3, 3, 1] * (1 + bool(spec.side_layers)) and no_trace is None
        np.testing.assert_allclose(blocked, traced, rtol=1e-12)
        np.testing.assert_array_equal(blocked.argmax(axis=1), traced.argmax(axis=1))

    @pytest.mark.parametrize("arch", sorted(SHIPPED_NETS))
    def test_fc_runs_once_per_batch(self, monkeypatch, arch):
        # an fc reads its whole weight for every call, so it runs on the
        # whole batch; GAP turns the large maps into a vector inside the
        # blocks, on its own (cooc) or in a bank's pooled step (the side banks)
        spec = init_params(SHIPPED_NETS[arch](), np.random.default_rng(0))
        xb = np.random.default_rng(1).uniform(size=(7, *spec.input_shape))
        blocks_of_three(monkeypatch, spec)
        calls = record_batch_sizes(monkeypatch, layers, "fc_forward", "gap_forward")
        banks = record_banks(monkeypatch)
        network_forward(spec, xb, trace=False)
        fcs = sum(layer.kind == "fc" for layer in spec.layers + spec.side_layers)
        gaps = sum(layer.kind == "gap" for layer in spec.layers + spec.side_layers)
        pooled = len(spec.side_layers) // 2
        assert calls["fc_forward"] == [7] * fcs
        assert sorted(calls["gap_forward"] + banks["pooled"]) == sorted([3, 3, 1] * gaps)
        assert banks["pooled"] == [3, 3, 1] * pooled

    def test_train_mode_rejected(self):
        spec = tiny_branched_net()
        xb = np.ones((2, 6, 6, 1))
        with pytest.raises(ValueError, match="eval mode only"):
            network_forward(spec, xb, train_mode=True, rng=np.random.default_rng(0), trace=False)

    @pytest.mark.parametrize("arch", sorted(SHIPPED_NETS))
    def test_evaluate_matches_traced_argmax(self, monkeypatch, arch):
        spec = init_params(SHIPPED_NETS[arch](), np.random.default_rng(0))
        rng = np.random.default_rng(2)
        ds = Dataset(rng.uniform(size=(11, *spec.input_shape)), rng.integers(0, 4, size=11))
        expected = np.mean(network_forward(spec, ds.images)[0].argmax(axis=1) == ds.labels)
        sizes = blocks_of_three(monkeypatch, spec)
        assert evaluate(spec, ds, batch_size=4) == expected
        chains = 1 + bool(spec.side_layers)
        assert sizes == ([3, 1] * chains) * 2 + [3] * chains  # batches of 4, 4, 3


def traced_step(spec, xb, mode):
    """Logits and every gradient of one traced forward and backward."""
    rng = np.random.default_rng(5)
    logits, trace = network_forward(spec, xb, train_mode=mode == "train", rng=rng)
    grads = network_backward(spec, trace, np.cos(logits))
    return logits, [g[key] for g in grads.main + grads.side for key in sorted(g)]


def dropout_net():
    """Dropout in both chains ahead of every layer that trains: in train mode
    each chain's blocked run must end there."""
    frozen = tml_layer(2, 2, 2, TmlConfig(c1=1.0, c2=0.6), trainable=False)
    spec = NetworkSpec(
        layers=[dropout(0.5), conv(2, 3, 3), LayerSpec("relu"), fc(3)],
        input_shape=(8, 8, 1),
        num_classes=3,
        side_layers=[frozen, LayerSpec("gap"), dropout(0.5)],
    )
    return init_params(spec, np.random.default_rng(0))


class TestTracedBlocks:
    @pytest.mark.parametrize("mode", ["eval", "train"])
    @pytest.mark.parametrize("arch", sorted(SHIPPED_NETS))
    def test_only_the_frozen_side_chain_runs_in_blocks(self, monkeypatch, arch, mode):
        # baseline+hlac's side chain trains nothing, so its bank's pooled step
        # runs per block; every other net takes the whole batch through, the
        # side banks as a pooled step and cooc's bank as maps and a GAP
        spec = init_params(SHIPPED_NETS[arch](), np.random.default_rng(0))
        xb = np.random.default_rng(1).uniform(size=(7, *spec.input_shape))
        sizes = blocks_of_three(monkeypatch, spec)
        calls = record_banks(monkeypatch)
        calls.update(record_batch_sizes(monkeypatch, layers, "gap_forward"))
        network_forward(spec, xb, train_mode=mode == "train", rng=np.random.default_rng(2))
        blocked = arch == "baseline+hlac"
        expected = [3, 3, 1] if blocked else [7] * (arch != "baseline")
        maps = expected if arch == "cooc" else []
        assert sizes == ([3, 3, 1] if blocked else [])
        assert calls == {"maps": maps, "pooled": [] if maps else expected, "gap_forward": maps}

    @pytest.mark.parametrize("mode", ["eval", "train"])
    @pytest.mark.parametrize("arch", sorted(SHIPPED_NETS) + ["dropout"])
    def test_blocks_keep_every_bit(self, monkeypatch, arch, mode):
        spec = dropout_net() if arch == "dropout" else SHIPPED_NETS[arch]()
        spec = init_params(spec, np.random.default_rng(0))
        xb = np.random.default_rng(1).uniform(size=(7, *spec.input_shape))
        widest = validate_network(spec)[2]
        monkeypatch.setattr(network, "_EVAL_BLOCK_BYTES", 8 * widest * 7)
        one_logits, one_grads = traced_step(spec, xb, mode)
        blocks_of_three(monkeypatch, spec)
        logits, grads = traced_step(spec, xb, mode)
        np.testing.assert_array_equal(logits, one_logits)
        assert len(grads) == len(one_grads) > 0
        for got, want in zip(grads, one_grads):
            np.testing.assert_array_equal(got, want)

    def test_dropout_ends_a_blocked_run_in_train_mode(self, monkeypatch):
        spec = dropout_net()
        xb = np.random.default_rng(1).uniform(size=(7, 8, 8, 1))
        sizes = blocks_of_three(monkeypatch, spec)
        calls = record_batch_sizes(monkeypatch, layers, "gap_forward", "dropout_forward")
        calls.update(record_banks(monkeypatch))
        _, trace = network_forward(spec, xb, train_mode=True, rng=np.random.default_rng(2))
        assert sizes == [3, 3, 1]
        # the frozen bank and its GAP run as one pooled step per block
        assert calls == {"gap_forward": [], "dropout_forward": [7, 7], "maps": [],
                         "pooled": [3, 3, 1]}
        # nothing beneath either dropout trains: the trace keeps no cache of it
        assert trace.side_caches == [None, None, None] and trace.caches[0] is None
        # in eval mode both dropouts run in the blocks, the side chain's first
        _, trace = network_forward(spec, xb)
        assert sizes == [3, 3, 1] * 3 and calls["dropout_forward"][2:] == [3, 3, 1] * 2
        assert calls["pooled"] == [3, 3, 1] * 2 and trace.caches[1].shape == (7, 8, 8, 1)


def relu_before_pool(spec):
    """`spec` with every (maxpool, relu) pair of its main chain swapped back to
    (relu, maxpool), sharing its parameters; returns it and the pair count."""
    layers, pairs = list(spec.layers), 0
    for i in range(len(layers) - 1):
        if [layers[i].kind, layers[i + 1].kind] == ["maxpool", "relu"]:
            layers[i], layers[i + 1] = layers[i + 1], layers[i]
            pairs += 1
    return dataclasses.replace(spec, layers=layers), pairs


def tied_batch(spec, seed=1):
    """u8-quantized images with a band of zero rows and of saturated columns,
    wide enough that whole windows are constant: ties and zeros in every pool."""
    rng = np.random.default_rng(seed)
    xb = rng.integers(0, 256, size=(4, *spec.input_shape)) / 255.0
    xb[:, :7] = 0.0
    xb[:, :, -7:] = 1.0
    return xb


def trace_bytes(trace):
    """Bytes of the distinct arrays the trace's caches hold, counting each
    array whose memory another cached array shares once."""
    bases = {}

    def visit(c):
        if isinstance(c, np.ndarray):
            while isinstance(c.base, np.ndarray):
                c = c.base
            bases[id(c)] = c.nbytes
        elif isinstance(c, tuple):
            for part in c:
                visit(part)

    for cache in trace.caches + trace.side_caches:
        visit(cache)
    return sum(bases.values())


class TestPoolBeforeRelu:
    """The shipped nets pool each conv before its ReLU; swapping every pair
    back gives the same bits everywhere."""

    @pytest.mark.parametrize("biases", ["random", "zero"])
    @pytest.mark.parametrize("mode", ["eval", "train"])
    @pytest.mark.parametrize("arch", sorted(SHIPPED_NETS))
    def test_relu_first_gives_the_same_bits(self, arch, mode, biases):
        spec = init_params(SHIPPED_NETS[arch](), np.random.default_rng(0))
        if biases == "random":  # init leaves them zero
            rng = np.random.default_rng(2)
            for p in spec.params:
                if "b" in p:
                    p["b"] = rng.normal(0.0, 0.1, size=p["b"].shape)
        old, pairs = relu_before_pool(spec)
        assert pairs == (1 if arch == "cooc" else 2)
        xb = tied_batch(spec)
        (la, ga), (lb, gb) = (traced_step(net, xb, mode) for net in (spec, old))
        assert len(ga) == len(gb)
        for a, b in zip([la, *ga], [lb, *gb]):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        if mode == "eval":
            a, b = (network_forward(net, xb, trace=False)[0] for net in (spec, old))
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("arch", sorted(SHIPPED_NETS))
    def test_each_pool_keeps_a_byte_route(self, arch):
        # a pool keeps one uint8 per block, not the conv output it read; what
        # relu -> maxpool keeps also holds the ReLU's unpooled output
        spec = init_params(SHIPPED_NETS[arch](), np.random.default_rng(0))
        xb = tied_batch(spec)
        shapes = validate_network(spec)[0].shapes
        _, trace = network_forward(spec, xb)
        pools = [i for i, layer in enumerate(spec.layers) if layer.kind == "maxpool"]
        assert len(pools) == (1 if arch == "cooc" else 2)
        for i in pools:
            route = trace.caches[i]
            assert route.code.dtype == np.uint8
            assert route.code.shape == (len(xb), *shapes[i + 1])
            assert all(part.shape != (len(xb), *shapes[i])
                       for part in route if isinstance(part, np.ndarray))
        sizes = [trace_bytes(network_forward(net, xb)[1])
                 for net in (spec, relu_before_pool(spec)[0])]
        assert sizes[0] < sizes[1]


def record_routes(monkeypatch):
    """Replace `layers.maxpool_forward` by a recorder; returns the
    `return_route` flag of each call."""
    flags, pool = [], layers.maxpool_forward

    def call(x, return_route=False):
        flags.append(return_route)
        return pool(x, return_route=return_route)

    monkeypatch.setattr(layers, "maxpool_forward", call)
    return flags


def pool_net():
    """Pools whose backward does not run: one on the main chain beneath every
    layer that trains, behind a dropout, and one on a frozen side chain."""
    frozen = tml_layer(2, 2, 2, TmlConfig(c1=1.0, c2=0.6), trainable=False)
    spec = NetworkSpec(
        layers=[dropout(0.5), LayerSpec("maxpool"), conv(2, 3, 3), LayerSpec("maxpool"),
                LayerSpec("relu"), fc(3)],
        input_shape=(12, 12, 1),
        num_classes=3,
        side_layers=[frozen, LayerSpec("maxpool"), LayerSpec("gap")],
    )
    return init_params(spec, np.random.default_rng(0))


class TestPoolRoute:
    """Only a pool whose backward runs computes a route, and the trace keeps
    it in place of the pool's input: a trace-free forward, and the pools of a
    traced one that no backward reads, pool alone."""

    @pytest.mark.parametrize("arch", sorted(SHIPPED_NETS))
    def test_one_route_per_pool_of_a_traced_forward(self, monkeypatch, arch):
        spec = init_params(SHIPPED_NETS[arch](), np.random.default_rng(0))
        xb = np.random.default_rng(1).uniform(size=(7, *spec.input_shape))
        blocks_of_three(monkeypatch, spec)
        flags = record_routes(monkeypatch)
        network_forward(spec, xb, trace=False)
        pools = sum(layer.kind == "maxpool" for layer in spec.layers)
        assert flags == [False] * 3 * pools
        flags.clear()
        network_forward(spec, xb)
        assert flags == [True] * pools

    @pytest.mark.parametrize("mode", ["eval", "train"])
    def test_pools_no_backward_reads_compute_no_route(self, monkeypatch, mode):
        # eval: the first main pool and the side pool run in the blocks;
        # train: the dropout ends the main chain's blocked run, and the first
        # pool runs over the whole batch, still with no backward
        spec = pool_net()
        xb = np.random.default_rng(1).uniform(0.1, 1.0, size=(7, 12, 12, 1))
        sizes = blocks_of_three(monkeypatch, spec)
        flags = record_routes(monkeypatch)
        logits, trace = network_forward(spec, xb, train_mode=mode == "train",
                                        rng=np.random.default_rng(2))
        assert sizes == ([3, 3, 1] * 2 if mode == "eval" else [3, 3, 1])
        assert flags == [False] * (6 if mode == "eval" else 4) + [True]
        assert trace.caches[1] is None and trace.side_caches == [None, None, None]
        assert trace.caches[3].code.shape == (7, 2, 2, 2)
        grads = network_backward(spec, trace, np.cos(logits))
        assert all(np.any(g) for g in grads.main[2].values())

    def test_hlac_trace_at_64_px_fits_45_mib_at_b256(self):
        # every cache is per image, so B=2 scales to the B=256 of hlac-eval's
        # checkpoint check: 41.1 MiB, where keeping each pool's conv output
        # made it 124.8 MiB
        spec = init_params(build_baseline_hlac_net((64, 64, 1), 8), np.random.default_rng(0))
        xb = np.random.default_rng(1).uniform(size=(2, 64, 64, 1))
        assert trace_bytes(network_forward(spec, xb)[1]) * 128 <= 45 << 20


class TestPooledBank:
    """A bank whose only consumer is a GAP, and whose input gradient nothing
    reads, runs with the GAP as one pooled step: its trace keeps no maps."""

    def test_walk_pools_the_side_banks_only(self):
        pooled = {arch: [walk.pooled for walk in validate_network(
            init_params(build(), np.random.default_rng(0)))[:2]]
            for arch, build in SHIPPED_NETS.items()}
        # cooc's bank passes an input gradient to the conv beneath it
        assert pooled == {"dhlac": [set(), {0}], "baseline+hlac": [set(), {0}],
                          "cooc": [set(), set()], "baseline": [set(), set()]}

    def test_dhlac_trace_at_b256_keeps_no_maps_and_fits_5_mib(self):
        # the B=256 forward of dhlac-train's checkpoint check: besides the
        # input batch, which the first conv caches, the trace held 20.1 MiB,
        # 14 MiB of it the maps and 2 MiB z = log(x + eps)
        spec = init_params(build_network("dhlac", (32, 32, 1), 6, DEFAULTS),
                           np.random.default_rng(0))
        xb = np.random.default_rng(1).uniform(size=(256, 32, 32, 1))
        maps = math.prod(validate_network(spec)[1].shapes[1])
        _, trace = network_forward(spec, xb)
        arrays = [c for cache in trace.caches + trace.side_caches
                  for c in (cache if isinstance(cache, tuple) else (cache,))
                  if isinstance(c, np.ndarray)]
        assert arrays and all(a.size < 256 * maps for a in arrays)
        assert trace.caches[0] is xb
        assert trace_bytes(trace) - xb.nbytes <= 5 << 20

    def test_layer_input_of_the_gap_is_the_maps(self):
        # a pair cut at its GAP runs the bank alone, on the maps path
        spec = init_params(SHIPPED_NETS["dhlac"](), np.random.default_rng(0))
        xb = np.random.default_rng(1).uniform(size=(3, *spec.input_shape))
        kernels = tml.TmlKernels(spec.side_layers[0].tml, spec.side_params[0]["w"])
        want = tml.forward_batch(xb, kernels)
        np.testing.assert_array_equal(network.layer_input(spec, "side", 1, xb), want)


class TestBackward:
    def test_backward_reuses_the_forward_shape_walks(self, monkeypatch):
        spec = tiny_branched_net()
        xb = np.random.default_rng(3).uniform(0.1, 2.0, size=(2, 6, 6, 1))
        walks = []
        chain_shapes = network._chain_shapes
        monkeypatch.setattr(
            network, "_chain_shapes", lambda *args: walks.append(1) or chain_shapes(*args)
        )
        logits, trace = network_forward(spec, xb)
        assert len(walks) == 2  # the side chain, then the main chain
        _, d_logits = softmax_xent(logits, np.eye(3)[[0, 2]])
        grads = network_backward(spec, trace, d_logits / 2)
        assert len(walks) == 2
        assert [set(g) for g in grads.main] == [set(p) for p in spec.params]
        assert [set(g) for g in grads.side] == [set(p) for p in spec.side_params]

    def test_whole_net_gradients_match_finite_differences(self):
        spec = tiny_branched_net()
        rng = np.random.default_rng(10)
        xb = rng.uniform(0.1, 2.0, size=(2, 6, 6, 1))
        labels = np.array([0, 2])
        onehot = np.eye(3)[labels]

        logits, trace = network_forward(spec, xb, train_mode=False)
        losses, d_logits = softmax_xent(logits, onehot)
        grads = network_backward(spec, trace, d_logits / len(labels))

        step = 1e-6
        for chain, plist, glist in (
            ("main", spec.params, grads.main),
            ("side", spec.side_params, grads.side),
        ):
            for li, params in enumerate(plist):
                for key, arr in params.items():
                    analytic = glist[li][key]
                    numeric = np.zeros_like(arr)
                    it = np.nditer(arr, flags=["multi_index"])
                    for _ in it:
                        idx = it.multi_index
                        orig = arr[idx]
                        arr[idx] = orig + step
                        fp = batch_loss(spec, xb, labels)
                        arr[idx] = orig - step
                        fm = batch_loss(spec, xb, labels)
                        arr[idx] = orig
                        numeric[idx] = (fp - fm) / (2 * step)
                    scale = max(np.max(np.abs(numeric)), 1e-10)
                    err = np.max(np.abs(analytic - numeric)) / scale
                    assert err < 1e-4, f"{chain} layer {li} param {key}: rel err {err}"

    def test_side_chain_joining_at_first_layer_gets_its_gradient(self):
        # main layer 0 reads [side vector, flattened input], so it must pass
        # an input gradient back to the side chain
        spec = NetworkSpec(
            layers=[fc(3)],
            input_shape=(4, 4, 1),
            num_classes=3,
            side_layers=[tml_layer(2, 2, 2, TmlConfig(c1=1.0, c2=0.6)), LayerSpec("gap")],
        )
        spec = init_params(spec, np.random.default_rng(12))
        xb = np.random.default_rng(13).uniform(0.1, 2.0, size=(2, 4, 4, 1))
        labels = np.array([1, 2])
        logits, trace = network_forward(spec, xb)
        _, d_logits = softmax_xent(logits, np.eye(3)[labels])
        grads = network_backward(spec, trace, d_logits / len(labels))
        w = spec.side_params[0]["w"]
        numeric = _central_diff(lambda: batch_loss(spec, xb, labels), w, 1e-6)
        assert _rel_err(grads.side[0]["w"], numeric) < 1e-4

    def test_side_chain_trains_through_a_last_layer_without_weights(self):
        # nothing in the main chain trains, so only the join makes the sigmoid
        # run its backward: 2 pooled maps + 16 pixels are the 18 logits
        spec = NetworkSpec(
            layers=[LayerSpec("sigmoid")],
            input_shape=(4, 4, 1),
            num_classes=18,
            side_layers=[tml_layer(2, 2, 2, TmlConfig(c1=1.0, c2=0.6)), LayerSpec("gap")],
        )
        spec = init_params(spec, np.random.default_rng(12))
        xb = np.random.default_rng(13).uniform(0.1, 2.0, size=(2, 4, 4, 1))
        labels = np.array([0, 1])
        logits, trace = network_forward(spec, xb)
        _, d_logits = softmax_xent(logits, np.eye(18)[labels])
        grads = network_backward(spec, trace, d_logits / len(labels))
        w = spec.side_params[0]["w"]
        numeric = _central_diff(lambda: batch_loss(spec, xb, labels), w, 1e-6)
        assert _rel_err(grads.side[0]["w"], numeric) < 1e-4

    @pytest.mark.parametrize(
        "build,conv_need_dx,tml_dx_calls",
        [
            # backward order: the last conv first; main layer 0 computes no d_x
            (lambda: build_dhlac_net((32, 32, 1), 6, tml_layer(4, 3, 3, TmlConfig())),
             [True, False], 0),
            (lambda: build_baseline_hlac_net((20, 20, 1), 3), [True, True, False], 0),
            (lambda: build_cooc_net((28, 28, 1), 10, tml_layer(4, 1, 1, TmlConfig())),
             [True, False], 1),
        ],
        ids=["dhlac", "baseline+hlac", "cooc"],
    )
    def test_layers_reading_the_input_compute_no_input_gradient(
        self, monkeypatch, build, conv_need_dx, tml_dx_calls
    ):
        conv_calls, tml_calls = [], []
        conv_backward, tml_backward_input = layers.conv2d_backward, tml.backward_input_batch

        def record_conv(*args, **kwargs):
            out = conv_backward(*args, **kwargs)
            conv_calls.append(out[0] is not None)
            return out

        def record_tml(*args, **kwargs):
            tml_calls.append(args[0].shape)
            return tml_backward_input(*args, **kwargs)

        monkeypatch.setattr(layers, "conv2d_backward", record_conv)
        monkeypatch.setattr(tml, "backward_input_batch", record_tml)
        spec = init_params(build(), np.random.default_rng(0))
        xb = np.random.default_rng(1).uniform(0.0, 1.0, size=(2, *spec.input_shape))
        logits, trace = network_forward(spec, xb)
        network_backward(spec, trace, np.ones_like(logits))
        assert conv_calls == conv_need_dx
        assert len(tml_calls) == tml_dx_calls
        assert all(shape[1:] != spec.input_shape for shape in tml_calls)

    def test_every_kernel_is_looked_up_at_call_time(self, monkeypatch):
        # tracers and call recorders replace module attributes; a kernel
        # reference stored at import would bypass them without any error
        layer_kernels = [
            f"{name}_{step}"
            for name in ("conv2d", "maxpool", "relu", "sigmoid", "fc", "gap", "dropout")
            for step in ("forward", "backward")
        ]
        kernels = {
            layers: layer_kernels,
            tml: ["forward_batch", "backward_weights_batch", "backward_input_batch"],
        }
        called = set()
        for module, names in kernels.items():
            for name in names:
                def record(*args, _kernel=getattr(module, name), _name=name, **kwargs):
                    called.add(_name)
                    return _kernel(*args, **kwargs)

                monkeypatch.setattr(module, name, record)
        cooc = build_cooc_net((28, 28, 1), 10, tml_layer(4, 1, 1, TmlConfig()))
        rng = np.random.default_rng(0)
        for spec in (tiny_branched_net(), hlac_net(), init_params(cooc, rng)):
            xb = rng.uniform(0.1, 1.0, size=(2, *spec.input_shape))
            logits, trace = network_forward(spec, xb, train_mode=True, rng=rng)
            network_backward(spec, trace, np.ones_like(logits))
        assert called == {name for names in kernels.values() for name in names}

    def test_trace_consumed_once(self):
        spec = tiny_branched_net()
        xb = np.random.default_rng(11).uniform(0.1, 1.0, size=(1, 6, 6, 1))
        logits, trace = network_forward(spec, xb)
        d = np.ones_like(logits)
        network_backward(spec, trace, d)
        with pytest.raises(ValueError):
            network_backward(spec, trace, d)

    def test_frozen_tml_gets_no_weight_gradient(self):
        spec = build_baseline_hlac_net((20, 20, 1), 3)
        spec = init_params(spec, np.random.default_rng(0))
        xb = np.random.default_rng(1).uniform(0.1, 1.0, size=(2, 20, 20, 1))
        logits, trace = network_forward(spec, xb)
        grads = network_backward(spec, trace, np.ones_like(logits))
        assert grads.side[0] == {}
        # conv gradients still flow
        assert np.any(grads.main[0]["w"] != 0.0)

    @pytest.mark.parametrize(
        "build",
        [hlac_net, tiny_branched_net,
         lambda: init_params(SHIPPED_NETS["dhlac"](), np.random.default_rng(0))],
        ids=["baseline+hlac", "tiny_branched_net", "dhlac"],
    )
    def test_side_chain_backward_runs_only_where_the_bank_trains(self, monkeypatch, build):
        spec = build()
        xb = np.random.default_rng(1).uniform(0.1, 1.0, size=(3, *spec.input_shape))
        logits, trace = network_forward(spec, xb)
        trains = spec.side_layers[0].trainable
        if trains:  # the pooled step kept each image's product q, not the maps
            kh, kw, k, m = spec.side_params[0]["w"].shape
            q, maps = trace.side_caches
            assert q.shape == (3, kh * kw * k, m)
            assert maps == (3, *validate_network(spec)[1].shapes[1])
        calls = record_batch_sizes(
            monkeypatch, tml, "backward_weights_batch", "backward_input_batch"
        )
        calls.update(record_batch_sizes(monkeypatch, layers, "gap_backward"))
        grads = network_backward(spec, trace, np.cos(logits))
        assert calls == {
            "backward_weights_batch": [3] * trains,
            "backward_input_batch": [],
            "gap_backward": [3] * trains,
        }
        if trains:
            assert grads.side[0]["w"].shape == spec.side_params[0]["w"].shape
            assert np.any(grads.side[0]["w"] != 0.0)
        else:
            assert trace.side_caches == [None, None] and grads.side == [{}, {}]

    def test_frozen_bank_on_the_input_keeps_no_cache(self):
        # nothing uses its input gradient and it has no weight gradient, so
        # its backward reads nothing; the trace holds none of its arrays
        spec = hlac_net()
        xb = np.random.default_rng(1).uniform(0.1, 1.0, size=(2, 20, 20, 1))
        _, trace = network_forward(spec, xb)
        assert trace.side_caches[0] is None

    def test_frozen_bank_mid_chain_passes_its_input_gradient(self):
        frozen = tml_layer(2, 2, 2, TmlConfig(c1=1.0, c2=0.6), trainable=False)
        spec = NetworkSpec(
            layers=[conv(3, 2, 2), LayerSpec("sigmoid"), frozen, LayerSpec("gap"), fc(3)],
            input_shape=(5, 5, 1),
            num_classes=3,
        )
        spec = init_params(spec, np.random.default_rng(14))
        xb = np.random.default_rng(15).uniform(0.1, 1.0, size=(2, 5, 5, 1))
        labels = np.array([2, 0])
        logits, trace = network_forward(spec, xb)
        x, y = trace.caches[2]  # no z = log(x + eps): only d_w reads it
        assert x is trace.caches[1] and y.shape == (2, 3, 3, 2)
        _, d_logits = softmax_xent(logits, np.eye(3)[labels])
        grads = network_backward(spec, trace, d_logits / len(labels))
        assert grads.main[2] == {}
        for key in ("w", "b"):
            numeric = _central_diff(lambda: batch_loss(spec, xb, labels), spec.params[0][key], 1e-6)
            assert _rel_err(grads.main[0][key], numeric) < 1e-4


# Between them the two pinned checkpoints hold all eight layer kinds and a
# frozen bank.
TINY_NET_TEXT = """\
format=tmlnet-net-v3
input=6x6x1
classes=3
layer chain=main kind=conv out=2 kh=3 kw=3
layer chain=main kind=relu
layer chain=main kind=maxpool
layer chain=main kind=fc units=5
layer chain=main kind=sigmoid
layer chain=main kind=fc units=3
layer chain=side kind=tml out=2 kh=2 kw=2 c1=1.0 c2=0.6 eps=1e-06 trainable=1
layer chain=side kind=gap
"""

HLAC_NET_TEXT = """\
format=tmlnet-net-v3
input=20x20x1
classes=3
layer chain=main kind=conv out=8 kh=3 kw=3
layer chain=main kind=maxpool
layer chain=main kind=relu
layer chain=main kind=dropout rate=0.25
layer chain=main kind=conv out=16 kh=3 kw=3
layer chain=main kind=maxpool
layer chain=main kind=relu
layer chain=main kind=dropout rate=0.25
layer chain=main kind=conv out=32 kh=3 kw=3
layer chain=main kind=relu
layer chain=main kind=fc units=64
layer chain=main kind=relu
layer chain=main kind=dropout rate=0.5
layer chain=main kind=fc units=3
layer chain=side kind=tml out=25 kh=3 kw=3 c1=1.0 c2=1.0 eps=1e-06 trainable=0
layer chain=side kind=gap
"""

# what build_baseline_hlac_net saved before it pooled each conv ahead of its ReLU
RELU_POOL_HLAC_NET_TEXT = """\
format=tmlnet-net-v3
input=20x20x1
classes=3
layer chain=main kind=conv out=8 kh=3 kw=3
layer chain=main kind=relu
layer chain=main kind=maxpool
layer chain=main kind=dropout rate=0.25
layer chain=main kind=conv out=16 kh=3 kw=3
layer chain=main kind=relu
layer chain=main kind=maxpool
layer chain=main kind=dropout rate=0.25
layer chain=main kind=conv out=32 kh=3 kw=3
layer chain=main kind=relu
layer chain=main kind=fc units=64
layer chain=main kind=relu
layer chain=main kind=dropout rate=0.5
layer chain=main kind=fc units=3
layer chain=side kind=tml out=25 kh=3 kw=3 c1=1.0 c2=1.0 eps=1e-06 trainable=0
layer chain=side kind=gap
"""


class TestSerialization:
    def test_round_trip_bitwise(self, tmp_path):
        spec = tiny_branched_net(seed=7)
        path = tmp_path / "ckpt.net"
        save_network(spec, path)
        back = load_network(path)
        assert back.input_shape == spec.input_shape
        assert back.num_classes == spec.num_classes
        assert len(back.side_layers) == len(spec.side_layers)
        assert [l.kind for l in back.layers] == [l.kind for l in spec.layers]
        for a, b in zip(spec.params + spec.side_params, back.params + back.side_params):
            assert sorted(a) == sorted(b)
            for key in a:
                np.testing.assert_array_equal(a[key], b[key])
        xb = np.random.default_rng(1).uniform(0.1, 1.0, size=(2, 6, 6, 1))
        la, _ = network_forward(spec, xb)
        lb, _ = network_forward(back, xb)
        np.testing.assert_array_equal(la, lb)

    @pytest.mark.parametrize(
        "build,text",
        [(tiny_branched_net, TINY_NET_TEXT), (hlac_net, HLAC_NET_TEXT)],
        ids=["tiny-branched", "baseline+hlac"],
    )
    def test_saved_text_is_pinned(self, tmp_path, build, text):
        save_network(build(), tmp_path / "ckpt.net")
        assert (tmp_path / "ckpt.net").read_text() == text

    @pytest.mark.parametrize("trace", [True, False], ids=["traced", "trace-free"])
    def test_relu_before_pool_checkpoint_gives_the_same_logits(self, tmp_path, trace):
        # the parameter blob does not depend on the order: same bytes, same logits
        spec = hlac_net()
        path = tmp_path / "ckpt.net"
        save_network(spec, path)
        path.write_text(RELU_POOL_HLAC_NET_TEXT)
        old = load_network(path)
        assert [l.kind for l in old.layers] == [l.kind for l in relu_before_pool(spec)[0].layers]
        xb = tied_batch(spec)
        a, b = (network_forward(net, xb, trace=trace)[0] for net in (spec, old))
        assert a.tobytes() == b.tobytes()
        if trace:
            (_, ga), (_, gb) = (traced_step(net, xb, "train") for net in (spec, old))
            assert all(x.tobytes() == y.tobytes() for x, y in zip(ga, gb))

    def test_identical_saves_are_byte_identical(self, tmp_path):
        spec = tiny_branched_net(seed=3)
        save_network(spec, tmp_path / "a.net")
        save_network(spec, tmp_path / "b.net")
        assert (tmp_path / "a.net").read_bytes() == (tmp_path / "b.net").read_bytes()
        assert (tmp_path / "a.net.bin").read_bytes() == (tmp_path / "b.net.bin").read_bytes()

    def test_corrupt_blob_rejected(self, tmp_path):
        spec = tiny_branched_net()
        path = tmp_path / "ckpt.net"
        save_network(spec, path)
        blob = (tmp_path / "ckpt.net.bin").read_bytes()
        (tmp_path / "ckpt.net.bin").write_bytes(blob[:-8])
        with pytest.raises(ValueError):
            load_network(path)

    def test_payload_of_part_of_a_float_rejected(self, tmp_path):
        # numpy's own error would name neither the file nor the byte count
        path = tmp_path / "ckpt.net"
        save_network(tiny_branched_net(), path)
        blob = (tmp_path / "ckpt.net.bin").read_bytes()
        (tmp_path / "ckpt.net.bin").write_bytes(blob + b"abc")
        payload = len(blob) - 16 + 3
        with pytest.raises(ValueError, match=rf"ckpt\.net\.bin: {payload}-byte payload is not a "
                                             "whole number of float64 values"):
            load_network(path)

    def test_unknown_blob_version_rejected(self, tmp_path):
        path = tmp_path / "ckpt.net"
        save_network(tiny_branched_net(), path)
        blob = bytearray((tmp_path / "ckpt.net.bin").read_bytes())
        blob[4:8] = (2).to_bytes(4, "little")
        (tmp_path / "ckpt.net.bin").write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="version 2"):
            load_network(path)

    def test_short_blob_rejected(self, tmp_path):
        path = tmp_path / "ckpt.net"
        save_network(tiny_branched_net(), path)
        (tmp_path / "ckpt.net.bin").write_bytes(b"TMLP\x01\x00")
        with pytest.raises(ValueError):
            load_network(path)

    @pytest.mark.parametrize(
        "build,old,new",
        [
            (tiny_branched_net, "kind=conv out=2", "kind=conv"),  # missing key
            (tiny_branched_net, "units=5", "units=five"),  # bad int
            (tiny_branched_net, "kw=2 c1=1.0", "kw=2 c1"),  # field without "="
            (tiny_branched_net, "chain=side kind=gap", "chain=sid kind=gap"),
            (tiny_branched_net, "out=2", "out=0"),
            (tiny_branched_net, "units=5", "units=-5"),
            (hlac_net, "rate=0.5", "rate=1.5"),
        ],
        ids=[
            "missing-key",
            "bad-int",
            "no-equals",
            "unknown-chain",
            "zero-out",
            "negative-units",
            "rate-past-one",
        ],
    )
    def test_malformed_layer_line_named(self, tmp_path, build, old, new):
        path = tmp_path / "ckpt.net"
        save_network(build(), path)
        text = path.read_text()
        assert old in text
        bad = next(ln for ln in text.splitlines() if old in ln).replace(old, new)
        path.write_text(text.replace(old, new))
        with pytest.raises(ValueError, match="malformed line") as err:
            load_network(path)
        assert bad in str(err.value)

    def test_missing_header_key_rejected(self, tmp_path):
        path = tmp_path / "ckpt.net"
        save_network(tiny_branched_net(), path)
        path.write_text("\n".join(ln for ln in path.read_text().splitlines()
                                  if not ln.startswith("classes=")))
        with pytest.raises(ValueError, match="classes"):
            load_network(path)

    def test_frozen_flag_survives(self, tmp_path):
        spec = build_baseline_hlac_net((20, 20, 1), 3)
        spec = init_params(spec, np.random.default_rng(0))
        path = tmp_path / "ckpt.net"
        save_network(spec, path)
        back = load_network(path)
        assert back.side_layers[0].trainable is False
        np.testing.assert_array_equal(back.side_params[0]["w"], spec.side_params[0]["w"])

    def test_numpy_scalar_hyperparameters_save_as_plain_numbers(self, tmp_path):
        spec = NetworkSpec(
            layers=[conv(np.int64(2), 3, 3), fc(np.int64(3))],
            input_shape=(6, 6, 1),
            num_classes=3,
            side_layers=[tml_layer(2, 2, 2, TmlConfig(c1=np.float64(1.0), c2=np.float64(0.6))),
                         LayerSpec("gap")],
        )
        path = tmp_path / "ckpt.net"
        save_network(init_params(spec, np.random.default_rng(0)), path)
        text = path.read_text()
        assert "out=2 " in text and "units=3" in text and "c1=1.0 c2=0.6 " in text
        assert load_network(path).side_layers[0].tml == spec.side_layers[0].tml


def test_init_params_deterministic():
    a = tiny_branched_net(seed=5)
    b = tiny_branched_net(seed=5)
    for pa, pb in zip(a.params + a.side_params, b.params + b.side_params):
        for key in pa:
            np.testing.assert_array_equal(pa[key], pb[key])
