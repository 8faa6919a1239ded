import dataclasses

import numpy as np
import pytest

from tmlnet import network, tml, training
from tmlnet.datasets import Dataset, StripeSpec, gen_stripe_dataset
from tmlnet.layers import softmax_xent
from tmlnet.network import (
    LayerSpec,
    NetworkSpec,
    build_baseline_hlac_net,
    build_dhlac_net,
    fc,
    init_params,
    network_backward,
    network_forward,
    tml_layer,
)
from tmlnet.tml import TmlConfig
from tmlnet.training import (
    InvariantLog,
    OptimizerState,
    TrainConfig,
    evaluate,
    train_loop,
    train_step,
    write_metrics_csv,
)


def fc_toy_net(num_classes=2, seed=0):
    spec = NetworkSpec(
        layers=[fc(num_classes)],
        input_shape=(1, 1, 1),
        num_classes=num_classes,
    )
    return init_params(spec, np.random.default_rng(seed))


def tml_toy_net(seed=0, m=4, c1=1.0, c2=0.5):
    spec = NetworkSpec(
        layers=[
            tml_layer(m, 2, 2, TmlConfig(c1=c1, c2=c2)),
            LayerSpec("gap"),
            fc(2),
        ],
        input_shape=(4, 4, 1),
        num_classes=2,
    )
    return init_params(spec, np.random.default_rng(seed))


def without_projection(monkeypatch):
    """Replace the constraint projection by the identity, so a step is plain momentum SGD."""
    monkeypatch.setattr(tml, "project_kernels", lambda kernels: (kernels, ()))


def toy_batch(rng, n=4, shape=(4, 4, 1), classes=2):
    return rng.uniform(0.1, 1.0, size=(n, *shape)), rng.integers(0, classes, size=n)


class TestEnergy:
    """The objective E = mean loss + lambda * L1(trainable kernels): train_step
    reports the mean loss and applies the L1 term through its subgradient."""

    def test_zero_lambda_total_is_mean_loss(self):
        spec, same = tml_toy_net(), tml_toy_net()
        rng = np.random.default_rng(1)
        batch = toy_batch(rng)
        logits, _ = network_forward(spec, batch[0], train_mode=False)
        expected = float(softmax_xent(logits, batch[1])[0].mean())
        loss = train_step(spec, batch, TrainConfig(lam=0.0), OptimizerState.zeros_like(spec), rng)
        assert loss == pytest.approx(expected, abs=1e-12)
        # the reported loss carries no L1 term, whatever lambda is
        other = train_step(same, batch, TrainConfig(lam=0.5), OptimizerState.zeros_like(same),
                           np.random.default_rng(1))
        assert other == loss

    def test_projected_kernels_l1_is_lambda_m_c1(self):
        spec = tml_toy_net(m=4, c1=1.0)
        rng = np.random.default_rng(2)
        cfg = TrainConfig(lam=0.01)
        train_step(spec, toy_batch(rng), cfg, OptimizerState.zeros_like(spec), rng)
        assert cfg.lam * np.abs(spec.params[0]["w"]).sum() == pytest.approx(0.04, abs=1e-12)

    def test_hand_built_single_sample(self):
        # one fc layer, zero weights: loss is ln(2), and with no multiplication
        # layer in the net lambda changes nothing in the update
        spec = fc_toy_net()
        spec.params[0]["w"][...] = 0.0
        spec.params[0]["b"][...] = 0.0
        cfg = TrainConfig(learning_rate=0.1, lam=0.5, momentum=0.0)
        batch = (np.ones((1, 1, 1, 1)), np.array([0]))
        loss = train_step(spec, batch, cfg, OptimizerState.zeros_like(spec), np.random.default_rng(0))
        assert loss == pytest.approx(np.log(2.0), abs=1e-12)
        np.testing.assert_allclose(spec.params[0]["w"], [[0.05, -0.05]], atol=1e-15)
        np.testing.assert_allclose(spec.params[0]["b"], [0.05, -0.05], atol=1e-15)

    def test_empty_batch_rejected(self):
        spec = fc_toy_net()
        before = spec.params[0]["w"].copy()
        with pytest.raises(ValueError, match="empty"):
            train_step(spec, (np.zeros((0, 1, 1, 1)), np.zeros(0, dtype=int)), TrainConfig(),
                       OptimizerState.zeros_like(spec), np.random.default_rng(0))
        np.testing.assert_array_equal(spec.params[0]["w"], before)

    def test_report_total_decomposition(self, monkeypatch):
        # the step on E is the step on the mean loss plus -lr * lambda * sign(w)
        # on kernel weights only, with sign(0) = 0
        without_projection(monkeypatch)
        plain, penalized = tml_toy_net(seed=6), tml_toy_net(seed=6)
        for spec in (plain, penalized):
            spec.params[0]["w"][0, 0, 0, 0] = 0.0
            spec.params[0]["w"][0, 1, 0, 0] = -0.1
        w0 = plain.params[0]["w"].copy()
        batch = toy_batch(np.random.default_rng(7))
        lr, lam = 0.1, 0.3
        for spec, cfg_lam in ((plain, 0.0), (penalized, lam)):
            cfg = TrainConfig(learning_rate=lr, lam=cfg_lam, momentum=0.0)
            train_step(spec, batch, cfg, OptimizerState.zeros_like(spec),
                       np.random.default_rng(0))
        np.testing.assert_allclose(
            penalized.params[0]["w"] - plain.params[0]["w"], -lr * lam * np.sign(w0), atol=1e-12
        )
        for p, q in zip(plain.params[1:], penalized.params[1:]):
            for key in p:
                np.testing.assert_array_equal(p[key], q[key])


class TestTrainStep:
    def test_zero_learning_rate_leaves_feasible_net_unchanged(self):
        spec = tml_toy_net()
        # start box-feasible (init's single projection may transiently exceed c2)
        spec.params[0]["w"][...] = 0.25
        before = [{k: v.copy() for k, v in p.items()} for p in spec.params]
        cfg = TrainConfig(learning_rate=0.0, lam=0.01, momentum=0.9)
        state = OptimizerState.zeros_like(spec)
        batch = toy_batch(np.random.default_rng(3))
        train_step(spec, batch, cfg, state, np.random.default_rng(0))
        for p, q in zip(before, spec.params):
            for key in p:
                np.testing.assert_allclose(q[key], p[key], atol=1e-15)

    def test_single_step_matches_hand_computed_sgd(self):
        # x=1, zero init, label 0: p=(0.5,0.5), d_logits=(-0.5,0.5),
        # d_w = d_b = d_logits, so w and b move to (+0.05, -0.05) at lr 0.1
        spec = fc_toy_net()
        spec.params[0]["w"][...] = 0.0
        spec.params[0]["b"][...] = 0.0
        cfg = TrainConfig(learning_rate=0.1, lam=0.0, momentum=0.0, batch_size=1, epochs=1)
        state = OptimizerState.zeros_like(spec)
        batch = (np.ones((1, 1, 1, 1)), np.array([0]))
        loss = train_step(spec, batch, cfg, state, np.random.default_rng(0))
        assert loss == pytest.approx(np.log(2.0), abs=1e-12)
        np.testing.assert_allclose(spec.params[0]["w"], [[0.05, -0.05]], atol=1e-15)
        np.testing.assert_allclose(spec.params[0]["b"], [0.05, -0.05], atol=1e-15)

    def test_kernels_feasible_after_any_step(self):
        spec = tml_toy_net()
        cfg = TrainConfig(learning_rate=0.5, lam=0.01)
        state = OptimizerState.zeros_like(spec)
        rng = np.random.default_rng(4)
        inv = InvariantLog()
        for _ in range(10):
            train_step(spec, toy_batch(rng), cfg, state, rng, invariants=inv)
        w = spec.params[0]["w"]
        assert w.min() >= 0.0
        np.testing.assert_allclose(w.sum(axis=(0, 1, 2)), 1.0, atol=1e-9)
        assert inv.min_weight >= 0.0
        assert inv.max_sum_abs_err <= 1e-9
        assert inv.steps == 10

    def test_post_clip_hook_sees_bounded_weights(self, monkeypatch):
        # record every bank the clip sub-step hands on to the rescale
        spec = tml_toy_net(c2=0.3)
        cfg = TrainConfig(learning_rate=1.0, lam=0.01)
        state = OptimizerState.zeros_like(spec)
        rng = np.random.default_rng(5)
        seen = []
        clip_step = tml.clip_step

        def recording_clip(bank):
            clipped = clip_step(bank)
            seen.append(clipped.weights.copy())
            return clipped

        monkeypatch.setattr(tml, "clip_step", recording_clip)
        train_step(spec, toy_batch(rng), cfg, state, rng)
        assert seen
        for w in seen:
            assert w.max() <= 0.3 + 1e-15
            assert w.min() >= 0.0

    def test_unconstrained_step_reduces_to_plain_sgd(self, monkeypatch):
        spec = tml_toy_net(seed=6)
        ref = tml_toy_net(seed=6)
        cfg = TrainConfig(learning_rate=0.07, lam=0.0, momentum=0.9)
        state = OptimizerState.zeros_like(spec)
        rng = np.random.default_rng(7)
        batch = toy_batch(rng)

        # reference: raw gradients, momentum update, no projection
        logits, trace = network_forward(ref, batch[0], train_mode=True,
                                        rng=np.random.default_rng(99))
        losses, d_logits = softmax_xent(logits, batch[1])
        grads = network_backward(ref, trace, d_logits / len(losses))
        vel = OptimizerState.zeros_like(ref)
        for plist, glist, vlist in ((ref.params, grads.main, vel.velocities.main),):
            for i, params in enumerate(plist):
                for key in params:
                    vlist[i][key] = cfg.momentum * vlist[i][key] - cfg.learning_rate * glist[i][key]
                    params[key] += vlist[i][key]

        without_projection(monkeypatch)
        train_step(spec, batch, cfg, state, np.random.default_rng(99))
        for p, q in zip(spec.params, ref.params):
            for key in p:
                np.testing.assert_allclose(p[key], q[key], atol=1e-14)

    def test_degenerate_kernel_reinitialized(self):
        spec = tml_toy_net(m=2)
        spec.params[0]["w"][..., 0] = -1.0  # clips to all-zero
        cfg = TrainConfig(learning_rate=0.0, lam=0.0, momentum=0.9)
        state = OptimizerState.zeros_like(spec)
        state.velocities.main[0]["w"][..., 0] = -0.5  # keeps the kernel nonpositive
        train_step(spec, toy_batch(np.random.default_rng(8)), cfg, state,
                   np.random.default_rng(0))
        np.testing.assert_allclose(spec.params[0]["w"][..., 0], 0.25, atol=1e-15)
        np.testing.assert_array_equal(state.velocities.main[0]["w"][..., 0], 0.0)

    def test_dead_kernel_restarts_through_the_tml_projection_steps(self, monkeypatch):
        # the step projects through tml's module functions, which a tracer
        # hooks by name; the restart gets the dead indices as its second argument
        spec = tml_toy_net(m=3)
        spec.params[0]["w"][..., 0] = -1.0
        spec.params[0]["w"][..., 2] = -1.0
        calls = []
        for name in ("clip_step", "rescale_step", "reinit_kernels"):
            def recording(*args, _name=name, _original=getattr(tml, name)):
                calls.append((_name, *args[1:]))
                return _original(*args)

            monkeypatch.setattr(tml, name, recording)
        cfg = TrainConfig(learning_rate=0.0, lam=0.0, momentum=0.0)
        train_step(spec, toy_batch(np.random.default_rng(8)), cfg, OptimizerState.zeros_like(spec),
                   np.random.default_rng(0))
        assert calls == [("clip_step",), ("reinit_kernels", (0, 2)), ("rescale_step",)]
        np.testing.assert_allclose(spec.params[0]["w"][..., [0, 2]], 0.25, atol=1e-15)

    @pytest.mark.parametrize("fault", ["nan-gradient", "overflowing-update"])
    def test_failed_step_changes_nothing(self, monkeypatch, fault):
        spec = tml_toy_net(seed=11)
        cfg = TrainConfig(learning_rate=0.1, lam=0.01, momentum=0.9)
        state = OptimizerState.zeros_like(spec)
        rng = np.random.default_rng(12)
        train_step(spec, toy_batch(rng), cfg, state, rng)  # nonzero velocities
        # the fc bias main[2]["b"] is the last array updated, after the kernels
        if fault == "nan-gradient":
            backward = training.network_backward

            def poisoned(*args):
                grads = backward(*args)
                grads.main[2]["b"][0] = np.nan
                return grads

            monkeypatch.setattr(training, "network_backward", poisoned)
        else:
            state.velocities.main[2]["b"][0] = 1e308
            cfg = TrainConfig(learning_rate=0.1, lam=0.01, momentum=10.0)
        params = [{k: v.copy() for k, v in p.items()} for p in spec.params]
        vels = [{k: v.copy() for k, v in p.items()} for p in state.velocities.main]
        with pytest.raises(ValueError, match="non-finite"), np.errstate(over="ignore"):
            train_step(spec, toy_batch(rng), cfg, state, rng)
        for before, after in ((params, spec.params), (vels, state.velocities.main)):
            for a, b in zip(before, after):
                for key in a:
                    np.testing.assert_array_equal(b[key], a[key])

    def test_failed_projection_changes_nothing(self, monkeypatch):
        # the bank is a side layer, after every main slot, so a step that
        # committed before it projected would already have moved the convs
        bank = tml_layer(4, 3, 3, TmlConfig(c1=1.0, c2=0.5))
        spec = init_params(build_dhlac_net((16, 16, 1), 2, bank), np.random.default_rng(13))
        cfg = TrainConfig(learning_rate=0.1, lam=0.01, momentum=0.9)
        state = OptimizerState.zeros_like(spec)
        rng = np.random.default_rng(14)
        train_step(spec, toy_batch(rng, shape=(16, 16, 1)), cfg, state, rng)  # nonzero velocities
        arrays = spec.params + spec.side_params + state.velocities.main + state.velocities.side
        before = [{k: v.copy() for k, v in p.items()} for p in arrays]
        inv = InvariantLog()

        def failing_rescale(kernels):
            raise ValueError("rescale failed")

        monkeypatch.setattr(tml, "rescale_step", failing_rescale)
        with pytest.raises(ValueError, match="rescale failed"):
            train_step(spec, toy_batch(rng, shape=(16, 16, 1)), cfg, state, rng, invariants=inv)
        for a, b in zip(before, arrays):
            for key in a:
                assert b[key].tobytes() == a[key].tobytes()
        assert inv == InvariantLog()

    @pytest.mark.parametrize("bad", [2, -1], ids=["num-classes", "negative"])
    def test_bad_label_leaves_the_step_unapplied(self, bad):
        # the loss finds the label after the forward, before anything is written
        bank = tml_layer(4, 3, 3, TmlConfig(c1=1.0, c2=0.5))
        spec = init_params(build_dhlac_net((16, 16, 1), 2, bank), np.random.default_rng(13))
        cfg = TrainConfig(learning_rate=0.1, lam=0.01, momentum=0.9)
        state, inv = OptimizerState.zeros_like(spec), InvariantLog()
        rng = np.random.default_rng(14)
        train_step(spec, toy_batch(rng, shape=(16, 16, 1)), cfg, state, rng, invariants=inv)
        arrays = spec.params + spec.side_params + state.velocities.main + state.velocities.side
        before = [{k: v.copy() for k, v in p.items()} for p in arrays]
        logged = dataclasses.replace(inv)
        xb, labels = toy_batch(rng, shape=(16, 16, 1))
        labels[1] = bad
        with pytest.raises(ValueError, match="label outside class range"):
            train_step(spec, (xb, labels), cfg, state, rng, invariants=inv)
        for a, b in zip(before, arrays):
            for key in a:
                assert b[key].tobytes() == a[key].tobytes()
        assert inv == logged and inv.steps == 1

    def test_l1_subgradient_applied(self, monkeypatch):
        # with momentum 0 and projection off, the kernel moves by
        # -lr * (data_grad + lam * sign(w)); compare lam=0 vs lam>0
        without_projection(monkeypatch)
        a = tml_toy_net(seed=9)
        b = tml_toy_net(seed=9)
        batch = toy_batch(np.random.default_rng(10))
        state_a = OptimizerState.zeros_like(a)
        state_b = OptimizerState.zeros_like(b)
        train_step(a, batch, TrainConfig(learning_rate=0.1, lam=0.0, momentum=0.0),
                   state_a, np.random.default_rng(0))
        train_step(b, batch, TrainConfig(learning_rate=0.1, lam=0.2, momentum=0.0),
                   state_b, np.random.default_rng(0))
        delta = a.params[0]["w"] - b.params[0]["w"]
        signs = np.sign(tml_toy_net(seed=9).params[0]["w"])
        np.testing.assert_allclose(delta, 0.1 * 0.2 * signs, atol=1e-12)

    def test_frozen_bank_untouched_by_step(self):
        # the binary HLAC kernels sum to 1-3, not c1 = 1, and are nonzero, so
        # an L1 step or a projection would visibly move them
        spec = init_params(build_baseline_hlac_net((20, 20, 1), 3), np.random.default_rng(0))
        bank = spec.side_params[0]["w"].copy()
        assert not np.allclose(bank.sum(axis=(0, 1, 2)), 1.0)
        state = OptimizerState.zeros_like(spec)
        rng = np.random.default_rng(1)
        train_step(spec, toy_batch(rng, shape=(20, 20, 1), classes=3),
                   TrainConfig(learning_rate=0.1, lam=0.5), state, rng)
        assert spec.side_params[0]["w"].tobytes() == bank.tobytes()
        assert not np.any(state.velocities.side[0]["w"])
        # the trainable conv weights did move
        assert np.any(state.velocities.main[0]["w"])


def record_layer_runs(monkeypatch):
    """Record each run of `network._run_layers`; returns [(span, batch size)]."""
    run, runs = network._run_layers, []

    def recording_run(layers, params, walk, span, a, *rest):
        runs.append((span, len(a)))
        return run(layers, params, walk, span, a, *rest)

    monkeypatch.setattr(network, "_run_layers", recording_run)
    return runs


class TestEvaluate:
    def test_all_correct(self):
        spec = fc_toy_net()
        spec.params[0]["w"][...] = [[10.0, -10.0]]
        spec.params[0]["b"][...] = 0.0
        ds = Dataset(np.ones((5, 1, 1, 1)), np.zeros(5, dtype=int))
        assert evaluate(spec, ds) == 1.0

    def test_random_predictor_near_chance(self):
        spec = fc_toy_net(num_classes=10, seed=1)
        rng = np.random.default_rng(11)
        ds = Dataset(rng.uniform(size=(2000, 1, 1, 1)), rng.integers(0, 10, size=2000))
        acc = evaluate(spec, ds)
        assert 0.02 < acc < 0.3

    def test_empty_dataset_rejected(self):
        spec = fc_toy_net()
        ds = Dataset(np.ones((5, 1, 1, 1)), np.zeros(5, dtype=int))
        with pytest.raises(ValueError, match="empty dataset"):
            evaluate(spec, ds.subset(0))
        with pytest.raises(ValueError, match="empty dataset"):
            train_loop(spec, ds, TrainConfig(epochs=1), test_ds=ds.subset(0))

    @pytest.mark.parametrize("batch_size", [0, -3])
    def test_batch_size_below_one_rejected(self, batch_size):
        # -3 read no batch and returned 0.0; 0 failed inside range()
        ds = Dataset(np.ones((5, 1, 1, 1)), np.zeros(5, dtype=int))
        with pytest.raises(ValueError, match=f"batch_size must be positive, got {batch_size}"):
            evaluate(fc_toy_net(), ds, batch_size=batch_size)

    def test_nonfinite_logits_rejected(self):
        # the argmax of NaN logits is class 0, which would read as an accuracy
        spec = fc_toy_net()
        spec.params[0]["b"][1] = np.nan
        ds = Dataset(np.ones((5, 1, 1, 1)), np.zeros(5, dtype=int))
        with pytest.raises(ValueError, match="non-finite logits"):
            evaluate(spec, ds)

    def test_previous_batch_trace_is_freed(self, monkeypatch):
        # evaluate's forwards build no trace, so none outlives its batch
        forward, calls, traces = training.network_forward, [], []

        def recording_forward(*args, **kwargs):
            calls.append(kwargs.get("trace"))
            return forward(*args, **kwargs)

        monkeypatch.setattr(training, "network_forward", recording_forward)
        monkeypatch.setattr(network, "ForwardTrace", lambda *args: traces.append(args))
        runs = record_layer_runs(monkeypatch)
        monkeypatch.setattr(network, "_EVAL_BLOCK_BYTES", 8)  # one image per block
        ds = Dataset(np.ones((5, 4, 4, 1)), np.zeros(5, dtype=int))
        evaluate(tml_toy_net(), ds, batch_size=2)
        assert calls == [False] * 3  # one trace-free forward per batch of 2, 2, 1
        # per batch, the bank and its GAP in one-image blocks, then the fc over the batch
        assert runs == [r for b in (2, 2, 1) for r in [(range(2), 1)] * b + [(range(2, 3), b)]]
        assert traces == []

    def test_trace_free_forward_of_an_fc_first_net_cuts_no_block(self, monkeypatch):
        spec = fc_toy_net()
        xb = np.ones((5, 1, 1, 1))
        traced, _ = network_forward(spec, xb)

        def forbidden(*args):
            raise AssertionError("a trace-free forward of an fc-first net built this")

        monkeypatch.setattr(network, "ForwardTrace", forbidden)
        runs = record_layer_runs(monkeypatch)
        logits, trace = network_forward(spec, xb, trace=False)
        assert trace is None and runs == [(range(1), 5)]  # the fc, once over the batch
        np.testing.assert_array_equal(logits, traced)


class TestTrainLoop:
    def test_single_class_constant_input_perfect_in_one_epoch(self):
        spec = fc_toy_net()
        ds = Dataset(np.full((8, 1, 1, 1), 0.5), np.zeros(8, dtype=int))
        cfg = TrainConfig(learning_rate=0.5, lam=0.0, batch_size=4, epochs=1)
        metrics = train_loop(spec, ds, cfg)
        assert metrics[0].train_acc == 1.0

    def test_identical_seeds_give_identical_logs(self, tmp_path):
        spec_args = dict(canvas=64, crop=16, samples_per_class=5, rng_seed=3)
        paths = []
        for name in ("a.csv", "b.csv"):
            train, test = gen_stripe_dataset(StripeSpec(**spec_args))
            cfg = TrainConfig(learning_rate=0.05, epochs=2, batch_size=8, rng_seed=12)
            bank = tml_layer(2, 3, 3, TmlConfig(c1=1.0, c2=0.5, eps=1e-6))
            spec = build_dhlac_net((16, 16, 1), 6, bank)
            init_params(spec, np.random.default_rng(cfg.rng_seed))
            p = tmp_path / name
            train_loop(spec, train, cfg, test_ds=test, metrics_path=p)
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_metrics_decomposition_and_csv(self, tmp_path):
        spec = tml_toy_net()
        rng = np.random.default_rng(13)
        ds = Dataset(*toy_batch(rng, n=12))
        cfg = TrainConfig(learning_rate=0.05, lam=0.01, batch_size=4, epochs=3)
        p = tmp_path / "metrics.csv"
        metrics = train_loop(spec, ds, cfg, metrics_path=p)
        assert len(metrics) == 3
        lines = p.read_text().strip().splitlines()
        assert lines[0] == "epoch,mean_loss,train_acc,test_acc"
        assert lines[1:] == [
            f"{m.epoch},{m.mean_loss!r},{m.train_acc!r}," for m in metrics
        ]

    def test_empty_dataset_rejected(self):
        spec = fc_toy_net()
        ds = Dataset(np.zeros((0, 1, 1, 1)), np.zeros(0, dtype=int))
        with pytest.raises(ValueError):
            train_loop(spec, ds, TrainConfig())


class TestConfigValidation:
    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(lam=-0.1)

    def test_negative_learning_rate_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-0.1)

    @pytest.mark.parametrize("key", ["lam", "learning_rate", "momentum"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_nonfinite_rates_rejected(self, key, value):
        with pytest.raises(ValueError, match="must be finite and nonnegative"):
            TrainConfig(**{key: value})

    def test_zero_epochs_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)

    def test_labels_validated(self):
        # train_step hands its labels to the loss, which checks them
        with pytest.raises(ValueError, match="label outside class range"):
            softmax_xent(np.zeros((2, 3)), np.array([0, 5]))


def test_write_metrics_csv_handles_missing_test_acc(tmp_path):
    from tmlnet.training import EpochMetrics

    p = tmp_path / "m.csv"
    write_metrics_csv(
        [EpochMetrics(1, 0.5, 0.9, None)],
        p,
    )
    assert p.read_text().splitlines()[1] == "1,0.5,0.9,"
