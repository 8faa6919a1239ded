"""Constrained training: an objective with an L1 kernel penalty, momentum SGD,
and the alternating clip/rescale projection applied after every update.

Each step computes gradients of

    E = mean batch loss + lambda * sum(|kernel weights|)

over the CNN parameters and the multiplication-layer kernels, updates both
with momentum SGD, and projects every trainable kernel bank's new weights
back onto its constraint set (weights in [0, C2], per-kernel sum C1). Only
kernel weights carry the L1 term and the projection; ordinary CNN parameters
are untouched by either. The subgradient of |w| at w = 0 is taken as 0 so
clipped-away weights stay put until the data gradient revives them. A kernel
that the clip leaves all zero restarts as the uniform kernel
(`tml.project_kernels` returns its index) and its new velocity is cleared, so
the old momentum does not drive it back to zero. A frozen bank gets no
gradient from the backward pass, so the step neither updates nor projects it.

A step is all or nothing: every slot's update, check and projection is
computed first, and parameters, velocities and the `InvariantLog` are written
only once all of them have succeeded.

Only the mean loss is reported: after projection every trainable kernel is
nonnegative and sums to C1, so the L1 term is the constant lambda * M * C1.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import tml as T
from .datasets import Dataset, batches
from .layers import softmax_xent
from .network import Gradients, NetworkSpec, network_backward, network_forward


@dataclass(frozen=True)
class TrainConfig:
    lam: float = 0.01  # L1 weight, the "lambda" config key
    learning_rate: float = 0.05
    momentum: float = 0.9
    batch_size: int = 32
    epochs: int = 30
    rng_seed: int = 0

    def __post_init__(self):
        # a zero learning rate is allowed so a no-op update still exercises the projection
        for name, value in (
            ("lambda", self.lam),
            ("learning_rate", self.learning_rate),
            ("momentum", self.momentum),
        ):
            if not (np.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")
        for name, value in (("batch_size", self.batch_size), ("epochs", self.epochs)):
            if value < 1:
                raise ValueError(f"{name} must be at least 1, got {value!r}")


@dataclass
class EpochMetrics:
    epoch: int
    mean_loss: float
    train_acc: float
    test_acc: float | None


@dataclass
class OptimizerState:
    velocities: Gradients

    @classmethod
    def zeros_like(cls, spec: NetworkSpec) -> "OptimizerState":
        def z(plist):
            return [{k: np.zeros_like(v) for k, v in p.items()} for p in plist]

        return cls(Gradients(z(spec.params), z(spec.side_params)))


@dataclass
class InvariantLog:
    """Per-run extrema of the constraint invariants, refreshed every step."""

    min_weight: float = np.inf
    max_sum_abs_err: float = 0.0
    steps: int = 0


def _check_labels(labels: np.ndarray, num_classes: int) -> None:
    if labels.min() < 0 or labels.max() >= num_classes:
        raise ValueError("label outside class range")


def teacher_onehot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    labels = np.asarray(labels)
    _check_labels(labels, num_classes)
    return np.eye(num_classes)[labels]


def train_step(
    spec: NetworkSpec,
    batch,
    cfg: TrainConfig,
    state: OptimizerState,
    rng: np.random.Generator,
    invariants: InvariantLog | None = None,
) -> float:
    """One gradient/update/project cycle over the (layer, params, grads,
    velocities) slots in checkpoint order; mutates spec parameters in place and
    returns the batch's mean loss before the update.

    Raises ValueError on an empty batch or a non-finite loss, gradient or
    update. Whatever the step raises, a projection's error too, leaves every
    parameter, velocity and `invariants` unchanged.
    """
    xb, labels = batch
    if len(labels) == 0:
        raise ValueError("empty batch")
    onehot = teacher_onehot(labels, spec.num_classes)
    logits, trace = network_forward(spec, xb, train_mode=True, rng=rng)
    losses, d_logits = softmax_xent(logits, onehot)
    mean_loss = float(losses.mean())
    if not np.isfinite(mean_loss):
        raise ValueError("non-finite loss")
    grads = network_backward(spec, trace, d_logits / len(losses))
    slots = zip(
        spec.layers + spec.side_layers,
        spec.params + spec.side_params,
        grads.main + grads.side,
        state.velocities.main + state.velocities.side,
    )

    # compute and project every update first and commit only when all have
    # succeeded, so a failed step leaves parameters and velocities as they were
    updates = []
    for n, (layer, params, g, vel) in enumerate(slots):
        for key, d in g.items():
            # L1 subgradient on kernels only (sign(0) = 0); skipped at lambda 0,
            # where adding 0 * sign(w) could still turn a -0.0 gradient into +0.0
            if layer.kind == "tml" and cfg.lam:
                d = d + cfg.lam * np.sign(params[key])
            v = vel[key] * cfg.momentum
            v -= cfg.learning_rate * d
            new = params[key] + v
            if not (np.isfinite(v).all() and np.isfinite(new).all()):
                raise ValueError(
                    f"non-finite gradient or update for {layer.kind} layer {n} {key!r}; "
                    "parameters left unchanged"
                )
            if layer.kind == "tml":
                projected, restarted = T.project_kernels(T.TmlKernels(layer.tml, new))
                new = projected.weights
                v[..., list(restarted)] = 0.0
            updates.append((layer, params[key], new, vel[key], v))
    for layer, p, new, vel, v in updates:
        p[...] = new
        vel[...] = v
        if layer.kind == "tml" and invariants is not None:
            invariants.min_weight = min(invariants.min_weight, float(p.min()))
            sums = p.sum(axis=(0, 1, 2))
            invariants.max_sum_abs_err = max(
                invariants.max_sum_abs_err, float(np.abs(sums - layer.tml.c1).max())
            )
    if invariants is not None:
        invariants.steps += 1
    return mean_loss


def evaluate(spec: NetworkSpec, ds: Dataset, batch_size: int = 256) -> float:
    """Fraction of samples whose arg-max logit matches the label (eval mode).

    Each batch is read through `Dataset.take`, so a split loaded from IDX
    files is divided by 255 one batch at a time and never held as float64.

    Raises ValueError on a batch_size below 1, an empty dataset, a label no
    logit stands for, or non-finite logits, whose argmax would be a
    meaningless class.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    if len(ds) == 0:
        raise ValueError("empty dataset")
    _check_labels(ds.labels, spec.num_classes)
    hits = 0
    for start in range(0, len(ds), batch_size):
        xb = ds.take(slice(start, start + batch_size))
        yb = ds.labels[start : start + batch_size]
        logits, _ = network_forward(spec, xb, train_mode=False, trace=False)
        if not np.isfinite(logits).all():
            raise ValueError(f"non-finite logits in the batch at sample {start}")
        hits += int((logits.argmax(axis=1) == yb).sum())
    return hits / len(ds)


METRIC_FIELDS = ("epoch", "mean_loss", "train_acc", "test_acc")


def write_metrics_csv(metrics: list[EpochMetrics], path) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(METRIC_FIELDS)
        for m in metrics:
            writer.writerow(
                [
                    m.epoch,
                    repr(m.mean_loss),
                    repr(m.train_acc),
                    "" if m.test_acc is None else repr(m.test_acc),
                ]
            )


def train_loop(
    spec: NetworkSpec,
    train_ds: Dataset,
    cfg: TrainConfig,
    test_ds: Dataset | None = None,
    metrics_path=None,
    log=None,
    invariants: InvariantLog | None = None,
) -> list[EpochMetrics]:
    """Fixed-epoch training with a seeded shuffle; returns per-epoch metrics.

    The epoch's mean_loss averages the pre-update batch losses seen during the
    epoch.
    """
    if len(train_ds) == 0:
        raise ValueError("empty training dataset")
    rng = np.random.default_rng(cfg.rng_seed)
    state = OptimizerState.zeros_like(spec)
    metrics: list[EpochMetrics] = []
    for epoch in range(1, cfg.epochs + 1):
        step_losses = []
        for batch in batches(train_ds, cfg.batch_size, rng):
            loss = train_step(spec, batch, cfg, state, rng, invariants=invariants)
            step_losses.append(loss)
        m = EpochMetrics(
            epoch=epoch,
            mean_loss=float(np.mean(step_losses)),
            train_acc=evaluate(spec, train_ds),
            test_acc=evaluate(spec, test_ds) if test_ds is not None else None,
        )
        metrics.append(m)
        if log is not None:
            acc = "" if m.test_acc is None else f" test_acc={m.test_acc:.4f}"
            log(f"epoch {epoch}: loss={m.mean_loss:.4f} train_acc={m.train_acc:.4f}{acc}")
    if metrics_path is not None:
        write_metrics_csv(metrics, metrics_path)
    return metrics
