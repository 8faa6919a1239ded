"""Span stack over tmlnet's public functions, for the benchmark's traced run.

A `Tracer` replaces each hooked function in the module where callers look
it up (``training`` imports ``network_forward`` by name, ``network`` reaches
the layers through ``layers.<name>``) with a wrapper that opens a span, and
restores the originals on exit. When a span closes, its self time (duration
minus the time covered by its child spans) is added to a bucket named
``<phase>.<concept>``. Spans are timed in process CPU time (`time.process_time`,
user + sys of every thread), which leaves out the time the hypervisor runs
other guests on this CPU:

- the phase is ``step`` under ``train_step`` or ``batches``, ``eval`` under
  ``evaluate``, and ``setup`` otherwise;
- a layer span nested inside another layer span keeps the outer span's
  bucket, so a conv call made from inside a multiplication-layer call counts
  as ``tml`` time and the split stays comparable when one layer is rewritten
  on top of another.

Nothing is written to disk; the benchmark reads the aggregates at the end.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np

from tmlnet import layers, tml, training


@dataclass(frozen=True)
class Hook:
    module: object
    name: str
    concept: str  # bucket suffix, e.g. "conv.fwd" or "network"
    phase: str | None = None  # set on the functions that start a phase
    layer: bool = False  # layer spans pass their bucket to nested layer spans
    generator: bool = False  # time each next() instead of the call
    count: Callable | None = None  # count(tracer, args) records counters


def _count_tml_input(tracer, args):
    xb = args[0]
    tracer.counts["tml.input_zero"] += int(np.count_nonzero(xb == 0))
    tracer.counts["tml.input_total"] += xb.size


def _count_resets(tracer, args):
    tracer.counts["tml.resets"] += len(list(args[1]))


def _count_images(tracer, args):
    tracer.sizes["evaluate"].append(len(args[1]))


_LAYER_FUNCS = {
    "conv": ("conv2d_forward", "conv2d_backward"),
    "pool": ("maxpool_forward", "maxpool_backward"),
    "act": ("relu_forward", "relu_backward", "sigmoid_forward", "sigmoid_backward"),
    "fc": ("fc_forward", "fc_backward"),
    "gap": ("gap_forward", "gap_backward"),
    "dropout": ("dropout_forward", "dropout_backward"),
}


def full_hooks() -> list[Hook]:
    """Every public layer, TML, loss, network and training entry point."""
    hooks = [
        Hook(layers, fn, f"{concept}.{'fwd' if fn.endswith('forward') else 'bwd'}", layer=True)
        for concept, fns in _LAYER_FUNCS.items()
        for fn in fns
    ]
    hooks += [
        Hook(tml, "forward_batch", "tml.fwd", layer=True, count=_count_tml_input),
        Hook(tml, "backward_weights_batch", "tml.bwd_w", layer=True),
        Hook(tml, "backward_input_batch", "tml.bwd_x", layer=True),
        Hook(tml, "clip_step", "project"),
        Hook(tml, "rescale_step", "project"),
        Hook(tml, "reinit_kernels", "project", count=_count_resets),
    ]
    return hooks + light_hooks() + [
        Hook(training, "network_backward", "network"),
        Hook(training, "softmax_xent", "loss"),
        Hook(training, "batches", "batch", phase="step", generator=True),
    ]


def light_hooks() -> list[Hook]:
    """Only what the end-to-end metrics need: step, eval call and eval batch latency."""
    return [
        Hook(training, "train_step", "update", phase="step"),
        Hook(training, "evaluate", "network", phase="eval", count=_count_images),
        Hook(training, "network_forward", "network"),
    ]


class Tracer:
    """Installs `hooks` for the duration of a `with` block and aggregates spans.

    self_s[bucket]       summed self time in seconds
    durations[(name, phase)]  inclusive duration of every span, in order
    counts[key]          counters recorded by the hooks
    sizes[name]          per-call input sizes recorded by the hooks
    """

    def __init__(self, hooks: list[Hook]):
        self.hooks = hooks
        self.self_s: dict[str, float] = defaultdict(float)
        self.durations: dict[tuple[str, str], list[float]] = defaultdict(list)
        self.counts: dict[str, float] = defaultdict(float)
        self.sizes: dict[str, list[int]] = defaultdict(list)
        self.missing: list[str] = []
        self._stack: list[list] = []  # [bucket, phase, in_layer, start, child_s]
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        for hook in self.hooks:
            original = getattr(hook.module, hook.name, None)
            if original is None:
                self.missing.append(f"{hook.module.__name__}.{hook.name}")
                continue
            self._saved.append((hook.module, hook.name, original))
            setattr(hook.module, hook.name, self._wrap(hook, original))
        return self

    def __exit__(self, *exc):
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()

    def _open(self, hook: Hook):
        parent = self._stack[-1] if self._stack else None
        phase = hook.phase or (parent[1] if parent else "setup")
        if parent is not None and parent[2]:
            bucket, in_layer = parent[0], True
        else:
            bucket, in_layer = f"{phase}.{hook.concept}", hook.layer
        self._stack.append([bucket, phase, in_layer, time.process_time(), 0.0])

    def _close(self, hook: Hook):
        bucket, phase, _, start, child_s = self._stack.pop()
        dur = time.process_time() - start
        self.self_s[bucket] += dur - child_s
        self.durations[(hook.name, phase)].append(dur)
        if self._stack:
            self._stack[-1][4] += dur

    def _wrap(self, hook: Hook, original):
        tracer = self

        if hook.generator:

            def gen_wrapper(*args, **kwargs):
                it = original(*args, **kwargs)
                while True:
                    tracer._open(hook)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(hook)
                    yield item

            return gen_wrapper

        def wrapper(*args, **kwargs):
            if hook.count is not None:
                hook.count(tracer, args)
            tracer._open(hook)
            try:
                return original(*args, **kwargs)
            finally:
                tracer._close(hook)

        return wrapper

    @property
    def in_layer(self) -> bool:
        """True while a layer span is open."""
        return bool(self._stack) and self._stack[-1][2]

    def spans(self, name: str, phase: str) -> list[float]:
        return self.durations.get((name, phase), [])
